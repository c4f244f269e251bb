use std::any::Any;
use std::fmt::Debug;
use std::mem;

use mehpt_hash::{HashFamily, ResizeEvent, ResizeKind};
use mehpt_mem::{AllocError, AllocTag, Chunk, PhysMem};
use mehpt_types::rng::Xoshiro256;
use mehpt_types::{PageSize, PhysAddr, Ppn, Vpn};

use crate::config::{ChunkSizePolicy, MeHptConfig};
use crate::entry::ClusterEntry;

/// Where the physical chunks of a table's ways come from.
///
/// This is the one thing the ECPT baseline and ME-HPT disagree on; the
/// elastic cuckoo algorithm and its resize policy are the same
/// [`HptTable`] code. ECPT backs each way with one contiguous chunk the
/// size of the way (a private implementation in this crate); ME-HPT
/// (`mehpt_core`) registers chunks from its size ladder in the L2P table,
/// which is shared by a process's three per-size tables and therefore
/// passed into every table operation rather than owned by a table.
pub trait WayMemory: Debug + Any {
    /// The chunk size of a new way of `entries` entries.
    fn first_chunk_bytes(&self, entries: usize) -> u64;

    /// The chunk size of an out-of-place copy of way `way` at `entries`
    /// entries, whose current chunks are `current` bytes; `None` when no
    /// chunk size fits the registry, and the way must switch chunk size
    /// instead.
    fn copy_chunk_bytes(
        &self,
        way: usize,
        ps: PageSize,
        current: u64,
        entries: usize,
    ) -> Option<u64>;

    /// The chunk size a way of `entries` entries switches to from
    /// `current`-byte chunks (Section IV-B).
    fn switch_chunk_bytes(&self, current: u64, entries: usize) -> u64;

    // The registry of chunks; the defaults are a memory without one.

    /// How many more chunks way `way` of the `ps` table can register.
    fn room(&self, _way: usize, _ps: PageSize) -> usize {
        usize::MAX
    }

    /// Registers `chunk` as the next logical chunk of way `way`.
    fn register(&mut self, _way: usize, _ps: PageSize, _chunk: Chunk) {}

    /// Withdraws a registered chunk of way `way`.
    fn unregister(&mut self, _way: usize, _ps: PageSize, _chunk: Chunk) {}

    /// The chunks registered for way `way`, in logical order, or `None` if
    /// this memory keeps no registry.
    fn registered(&self, _way: usize, _ps: PageSize) -> Option<Vec<Chunk>> {
        None
    }

    /// Registry entries in use (L2P entries for ME-HPT).
    fn entries_used(&self) -> usize {
        0
    }
}

/// ECPT's way memory: one contiguous chunk per way, exactly the way's
/// size, and no registry. Every resize is therefore out of place.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Contiguous;

impl WayMemory for Contiguous {
    fn first_chunk_bytes(&self, entries: usize) -> u64 {
        entries as u64 * ClusterEntry::BYTES
    }

    fn copy_chunk_bytes(&self, _: usize, _: PageSize, _: u64, entries: usize) -> Option<u64> {
        Some(self.first_chunk_bytes(entries))
    }

    fn switch_chunk_bytes(&self, _: u64, entries: usize) -> u64 {
        self.first_chunk_bytes(entries)
    }
}

/// What one insert did, for OS cost accounting in the simulator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InsertReport {
    /// Cuckoo re-insertions needed to place the entry.
    pub kicks: u32,
    /// Entries migrated on behalf of an in-flight resize.
    pub migrated: u32,
}

/// Statistics of one [`HptTable`].
#[derive(Clone, Debug, Default)]
pub struct HptStats {
    /// Completed resize events (Figures 11 and 13 derive from these).
    pub resizes: Vec<ResizeEvent>,
    /// Histogram of cuckoo re-insertions per insert or rehash (Figure 16).
    pub kicks_histogram: Vec<u64>,
    /// Chunk-size switches performed (the only out-of-place resizes in the
    /// full ME-HPT design; the paper observes at most one per run).
    pub chunk_switches: u64,
    /// High-water mark of table memory in bytes.
    pub peak_bytes: u64,
    /// The largest chunk ever allocated — the contiguity requirement
    /// (Figure 8).
    pub max_chunk_bytes: u64,
}

impl HptStats {
    fn record_kicks(&mut self, kicks: usize) {
        if self.kicks_histogram.len() <= kicks {
            self.kicks_histogram.resize(kicks + 1, 0);
        }
        self.kicks_histogram[kicks] += 1;
    }
}

/// One way's physical storage: a flat logical array of cluster entries
/// over equal-sized chunks (one chunk for a contiguous way).
#[derive(Debug)]
struct Storage {
    slots: Vec<Option<ClusterEntry>>,
    chunks: Vec<Chunk>,
    chunk_bytes: u64,
}

impl Storage {
    /// The physical address of logical entry `idx` — the L2P translation:
    /// chunk `idx / entries_per_chunk`, offset `idx % entries_per_chunk`.
    fn addr(&self, idx: usize) -> PhysAddr {
        // Chunk sizes are powers of two, so the split is a shift and a
        // mask rather than a division.
        let epc = ChunkSizePolicy::entries_per_chunk(self.chunk_bytes);
        let chunk = idx >> epc.trailing_zeros();
        self.chunks[chunk].addr((idx & (epc - 1)) as u64 * ClusterEntry::BYTES)
    }

    fn bytes(&self) -> u64 {
        self.chunks.iter().map(Chunk::bytes).sum()
    }
}

#[derive(Clone, Copy, Debug)]
struct Resize {
    old_len: usize,
    rehash_ptr: usize,
    kind: ResizeKind,
    in_place: bool,
    moved: u64,
    kept: u64,
}

#[derive(Debug)]
struct Way {
    storage: Storage,
    /// The old table during an out-of-place resize.
    old: Option<Storage>,
    len: usize,
    resize: Option<Resize>,
    occupied: usize,
}

impl Way {
    /// Resolves a hash value to `(in_old_storage, index)`.
    fn locate(&self, h: u64) -> (bool, usize) {
        match &self.resize {
            Some(r) => {
                let old_idx = h as usize & (r.old_len - 1);
                if old_idx >= r.rehash_ptr {
                    (!r.in_place, old_idx)
                } else {
                    (false, h as usize & (self.len - 1))
                }
            }
            None => (false, h as usize & (self.len - 1)),
        }
    }

    /// The table a located slot lives in: the old one or the current one.
    fn table(&self, in_old: bool) -> &Storage {
        if in_old {
            self.old.as_ref().expect("an old table is resizing")
        } else {
            &self.storage
        }
    }

    fn slot_mut(&mut self, in_old: bool, idx: usize) -> &mut Option<ClusterEntry> {
        if in_old {
            &mut self.old.as_mut().expect("an old table is resizing").slots[idx]
        } else {
            &mut self.storage.slots[idx]
        }
    }

    fn bytes(&self) -> u64 {
        self.storage.bytes() + self.old.as_ref().map(Storage::bytes).unwrap_or(0)
    }

    fn is_resizing(&self) -> bool {
        self.resize.is_some()
    }
}

/// Allocates `n` page-table chunks of `bytes`, freeing them again if one
/// allocation fails.
fn alloc_chunks(n: usize, bytes: u64, mem: &mut PhysMem) -> Result<Vec<Chunk>, AllocError> {
    let mut chunks = Vec::with_capacity(n);
    for _ in 0..n {
        match mem.alloc(bytes, AllocTag::PageTable) {
            Ok(c) => chunks.push(c),
            Err(e) => {
                for c in chunks {
                    mem.free(c);
                }
                return Err(e);
            }
        }
    }
    Ok(chunks)
}

/// Unregisters and frees every chunk of `storage`, in order.
fn release(
    storage: Storage,
    way: usize,
    ps: PageSize,
    memory: &mut dyn WayMemory,
    mem: &mut PhysMem,
) {
    for c in storage.chunks {
        memory.unregister(way, ps, c);
        mem.free(c);
    }
}

/// The elastic cuckoo page table for one page size, shared by the ECPT
/// baseline and ME-HPT.
///
/// A W-way cuckoo table of [`ClusterEntry`]s whose ways live in chunks
/// supplied by a [`WayMemory`]. Resizing is gradual: per-way rehash
/// pointers split each resizing way into migrated and live regions, and
/// entries migrate as inserts arrive. The [`MeHptConfig`] switches choose
/// the resize policy:
///
/// * `in_place` off: resizes are **out of place** — a new table is
///   allocated at double (half) the size and the old one freed once
///   migration completes; on contiguous memory an upsize *fails* if
///   physical memory cannot supply the chunks, which is how ECPT dies on a
///   fragmented machine. On: upsizing appends chunks and consumes one
///   extra hash-key bit, so ≈half the migrated entries never move
///   (Section IV-C);
/// * `per_way` off: all ways resize together, atomically; on: one way at a
///   time, with weighted-random insertion and a 2× balance gate
///   (Section IV-D).
///
/// When the memory's registry has no room for a growing way, the way
/// switches synchronously to the next chunk size (Section IV-B).
pub struct HptTable {
    ways: Vec<Way>,
    family: HashFamily,
    cfg: MeHptConfig,
    rng: Xoshiro256,
    ps: PageSize,
    clusters: usize,
    pages: u64,
    stats: HptStats,
}

impl std::fmt::Debug for HptTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HptTable")
            .field("page_size", &self.ps)
            .field("pages", &self.pages)
            .field("clusters", &self.clusters)
            .field("way_sizes", &self.way_sizes())
            .finish_non_exhaustive()
    }
}

impl HptTable {
    /// Creates a table for `ps` pages, allocating the initial chunks from
    /// `memory`. The hash functions are seeded with `hash_seed`, the way
    /// choices with `rng_seed`.
    ///
    /// # Errors
    ///
    /// Propagates allocation failure of the initial chunks; nothing leaks.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is structurally invalid (fewer than two
    /// ways or a non-power-of-two initial size).
    pub fn new(
        ps: PageSize,
        cfg: &MeHptConfig,
        (hash_seed, rng_seed): (u64, u64),
        memory: &mut dyn WayMemory,
        mem: &mut PhysMem,
    ) -> Result<HptTable, AllocError> {
        assert!(cfg.ways >= 2, "cuckoo hashing needs at least 2 ways");
        assert!(
            cfg.initial_entries_per_way.is_power_of_two(),
            "way sizes must be powers of two"
        );
        let len = cfg.initial_entries_per_way;
        let chunk_bytes = memory.first_chunk_bytes(len);
        let n_chunks = ChunkSizePolicy::chunks_for(len, chunk_bytes);
        let mut ways: Vec<Way> = Vec::with_capacity(cfg.ways);
        for w in 0..cfg.ways {
            let chunks = match alloc_chunks(n_chunks, chunk_bytes, mem) {
                Ok(chunks) => chunks,
                Err(e) => {
                    for (w, way) in ways.into_iter().enumerate() {
                        release(way.storage, w, ps, memory, mem);
                    }
                    return Err(e);
                }
            };
            for &c in &chunks {
                memory.register(w, ps, c);
            }
            ways.push(Way {
                storage: Storage {
                    slots: vec![None; len],
                    chunks,
                    chunk_bytes,
                },
                old: None,
                len,
                resize: None,
                occupied: 0,
            });
        }
        let mut table = HptTable {
            ways,
            family: HashFamily::new(cfg.ways, hash_seed),
            cfg: cfg.clone(),
            rng: Xoshiro256::seed_from_u64(rng_seed),
            ps,
            clusters: 0,
            pages: 0,
            stats: HptStats::default(),
        };
        table.stats.max_chunk_bytes = chunk_bytes;
        table.note_bytes();
        Ok(table)
    }

    /// The number of valid translations (pages) stored.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// The number of occupied cluster entries.
    pub fn clusters(&self) -> usize {
        self.clusters
    }

    /// Logical capacity in cluster entries (sum of way sizes).
    pub fn capacity(&self) -> usize {
        self.ways.iter().map(|w| w.len).sum()
    }

    /// The logical size of each way in bytes (entries × 64B) — Figure 12.
    pub fn way_sizes(&self) -> Vec<u64> {
        self.ways
            .iter()
            .map(|w| w.len as u64 * ClusterEntry::BYTES)
            .collect()
    }

    /// The physical bytes backing each way's current table (whole chunks,
    /// even when the way only fills part of one — Figure 15's metric).
    pub fn way_phys_bytes(&self) -> Vec<u64> {
        self.ways.iter().map(|w| w.storage.bytes()).collect()
    }

    /// The chunk size each way currently uses.
    pub fn way_chunk_bytes(&self) -> Vec<u64> {
        self.ways.iter().map(|w| w.storage.chunk_bytes).collect()
    }

    /// Physical memory currently held (all chunks, both tables during an
    /// out-of-place resize).
    pub fn memory_bytes(&self) -> u64 {
        self.ways.iter().map(Way::bytes).sum()
    }

    /// Whether any way is mid-resize.
    pub fn is_resizing(&self) -> bool {
        self.ways.iter().any(Way::is_resizing)
    }

    /// Collected statistics.
    pub fn stats(&self) -> &HptStats {
        &self.stats
    }

    /// Histogram of cuckoo re-insertions per insert or rehash (Figure 16).
    pub fn kicks_histogram(&self) -> &[u64] {
        &self.stats.kicks_histogram
    }

    /// Functional lookup (no timing).
    pub fn lookup(&self, vpn: Vpn) -> Option<Ppn> {
        let (w, in_old, idx) = self.find(ClusterEntry::tag_of(vpn))?;
        self.ways[w].table(in_old).slots[idx].as_ref()?.get(vpn)
    }

    /// One hardware probe of `vpn`: appends the W slot addresses a walker
    /// probes to `out`, honoring the rehash pointers (Section II-B: "a
    /// lookup operation during resizing only needs W probes"), and returns
    /// what [`HptTable::lookup`] would, hashing each way once. For ME-HPT
    /// the L2P lookup that produces these addresses costs ~4 cycles in
    /// hardware and hides behind the CWC access (Section V-D).
    pub(crate) fn probe(&self, vpn: Vpn, out: &mut Vec<PhysAddr>) -> Option<Ppn> {
        let tag = ClusterEntry::tag_of(vpn);
        let mut found = None;
        for (w, way) in self.ways.iter().enumerate() {
            let (in_old, idx) = way.locate(self.family.hash(w, &tag));
            out.push(way.table(in_old).addr(idx));
            // Read slots only until the tag is found, like `lookup`.
            if found.is_none() {
                if let Some(cluster) = way.table(in_old).slots[idx]
                    .as_ref()
                    .filter(|c| c.tag() == tag)
                {
                    found = Some(cluster.get(vpn));
                }
            }
        }
        found.flatten()
    }

    /// Inserts (or updates) the translation `vpn → ppn`.
    ///
    /// # Errors
    ///
    /// Fails only when a resize is needed and `mem` cannot supply its
    /// chunks — on contiguous ways this is the paper's failure mode for
    /// ECPT on fragmented machines; with ME-HPT's 8KB/1MB chunks it
    /// effectively never happens. Every translation stored before the call
    /// is still stored afterwards, and `vpn` is not mapped.
    pub fn insert(
        &mut self,
        vpn: Vpn,
        ppn: Ppn,
        mem: &mut PhysMem,
        memory: &mut dyn WayMemory,
    ) -> Result<InsertReport, AllocError> {
        let mut report = InsertReport::default();
        let tag = ClusterEntry::tag_of(vpn);
        // Update in place if the cluster already exists.
        if let Some((w, in_old, idx)) = self.find(tag) {
            let cluster = self.ways[w]
                .slot_mut(in_old, idx)
                .as_mut()
                .expect("found a cluster");
            if cluster.set(vpn, ppn).is_none() {
                self.pages += 1;
            }
            return Ok(report);
        }
        // A new cluster is needed: resize bookkeeping first.
        self.maybe_resize(mem, memory)?;
        report.migrated = self.migration_step(mem, memory);
        let way = self.choose_insert_way();
        let mut cluster = ClusterEntry::new(tag);
        cluster.set(vpn, ppn);
        report.kicks = self.place(way, cluster, mem, memory)? as u32;
        self.clusters += 1;
        self.pages += 1;
        self.stats.record_kicks(report.kicks as usize);
        self.note_bytes();
        Ok(report)
    }

    /// Removes the translation for `vpn`, returning it.
    ///
    /// Empty clusters are deleted; a downsize may be triggered, and is
    /// deferred silently if its allocation fails (the OS retries later).
    pub fn remove(
        &mut self,
        vpn: Vpn,
        mem: &mut PhysMem,
        memory: &mut dyn WayMemory,
    ) -> Option<Ppn> {
        let (w, in_old, idx) = self.find(ClusterEntry::tag_of(vpn))?;
        let slot = self.ways[w].slot_mut(in_old, idx);
        let cluster = slot.as_mut().expect("found a cluster");
        let ppn = cluster.clear(vpn)?;
        self.pages -= 1;
        if cluster.is_empty() {
            *slot = None;
            self.ways[w].occupied -= 1;
            self.clusters -= 1;
        }
        let _ = self.maybe_resize(mem, memory);
        self.migration_step(mem, memory);
        Some(ppn)
    }

    /// Releases all physical memory and registry entries.
    pub fn destroy(mut self, mem: &mut PhysMem, memory: &mut dyn WayMemory) {
        for (w, way) in self.ways.drain(..).enumerate() {
            release(way.storage, w, self.ps, memory, mem);
            if let Some(old) = way.old {
                release(old, w, self.ps, memory, mem);
            }
        }
    }

    /// Checks the table's structural invariants, panicking on a violation:
    /// every entry sits where a lookup looks for it, rehash pointers stay
    /// within the old table, per-way occupancy matches the filled slots
    /// and sums to the cluster count (and the valid PTEs to the page
    /// count), every way's chunks are of its chunk size and exactly cover
    /// its slots, and the registry of `memory` holds exactly the way's
    /// chunks in logical order.
    pub fn check_invariants(&self, memory: &dyn WayMemory) {
        let (mut clusters, mut pages) = (0, 0);
        for (w, way) in self.ways.iter().enumerate() {
            assert!(way.len.is_power_of_two(), "way {w} length {}", way.len);
            match &way.resize {
                Some(r) => {
                    assert!(r.rehash_ptr <= r.old_len, "way {w} rehash pointer");
                    assert_eq!(way.old.is_some(), !r.in_place, "way {w} old table");
                }
                None => {
                    assert!(way.old.is_none(), "way {w} keeps an old table");
                    assert_eq!(way.storage.slots.len(), way.len, "way {w} slots");
                }
            }
            let mut filled = 0;
            for (in_old, storage) in [(true, way.old.as_ref()), (false, Some(&way.storage))] {
                let Some(storage) = storage else { continue };
                assert!(
                    storage
                        .chunks
                        .iter()
                        .all(|c| c.bytes() == storage.chunk_bytes),
                    "way {w} mixes chunk sizes"
                );
                assert_eq!(
                    storage.chunks.len(),
                    ChunkSizePolicy::chunks_for(storage.slots.len(), storage.chunk_bytes),
                    "way {w} chunks do not cover its slots"
                );
                for (idx, slot) in storage.slots.iter().enumerate() {
                    let Some(cluster) = slot else { continue };
                    assert!(!cluster.is_empty(), "way {w} keeps an empty cluster");
                    let h = self.family.hash(w, &cluster.tag());
                    assert_eq!(
                        way.locate(h),
                        (in_old, idx),
                        "way {w}: cluster {:#x} is not where lookups look",
                        cluster.tag()
                    );
                    filled += 1;
                    pages += cluster.valid_count() as u64;
                }
            }
            assert_eq!(filled, way.occupied, "way {w} occupancy");
            clusters += filled;
            if let Some(registered) = memory.registered(w, self.ps) {
                let owned: Vec<Chunk> = way
                    .old
                    .iter()
                    .chain([&way.storage])
                    .flat_map(|s| s.chunks.iter().copied())
                    .collect();
                assert_eq!(registered, owned, "way {w} registry");
            }
        }
        assert_eq!(clusters, self.clusters, "cluster count");
        assert_eq!(pages, self.pages, "page count");
    }

    // ---- internals ----

    /// The way and slot holding the cluster tagged `tag`.
    fn find(&self, tag: u64) -> Option<(usize, bool, usize)> {
        (0..self.ways.len()).find_map(|w| {
            let (in_old, idx) = self.ways[w].locate(self.family.hash(w, &tag));
            let hit = self.ways[w].table(in_old).slots[idx]
                .as_ref()
                .is_some_and(|c| c.tag() == tag);
            hit.then_some((w, in_old, idx))
        })
    }

    fn note_bytes(&mut self) {
        let bytes = self.memory_bytes();
        self.stats.peak_bytes = self.stats.peak_bytes.max(bytes);
    }

    fn other_way(&mut self, not: usize) -> usize {
        let pick = self.rng.next_index(self.ways.len() - 1);
        if pick >= not {
            pick + 1
        } else {
            pick
        }
    }

    /// Weighted random insertion (Section IV-D) when per-way resizing is
    /// on; uniform otherwise.
    fn choose_insert_way(&mut self) -> usize {
        if !self.cfg.per_way {
            return self.rng.next_index(self.ways.len());
        }
        let min_len = self.ways.iter().map(|w| w.len).min().expect("ways exist");
        let weights: Vec<u64> = self
            .ways
            .iter()
            .map(|w| {
                let free = w.len.saturating_sub(w.occupied) as u64;
                let at_threshold = w.occupied as f64 >= self.cfg.upsize_threshold * w.len as f64;
                if w.len > min_len && at_threshold {
                    0
                } else {
                    free
                }
            })
            .collect();
        let total: u64 = weights.iter().sum();
        if total == 0 {
            return self.rng.next_index(self.ways.len());
        }
        let mut r = self.rng.next_below(total);
        for (i, w) in weights.iter().enumerate() {
            if r < *w {
                return i;
            }
            r -= w;
        }
        unreachable!("weighted choice must land in a bucket")
    }

    /// Places a new cluster starting at `way`, cuckoo-kicking occupants.
    /// Every `max_kicks` kicks the pressure valve finishes in-flight
    /// resizes and upsizes (the fullest smallest way, or all ways) so the
    /// pending entry can land. If that upsize cannot allocate, the insert
    /// is undone and the error returned.
    fn place(
        &mut self,
        way: usize,
        cluster: ClusterEntry,
        mem: &mut PhysMem,
        memory: &mut dyn WayMemory,
    ) -> Result<usize, AllocError> {
        let tag = cluster.tag();
        let mut way = way;
        let mut entry = cluster;
        let mut kicks = 0usize;
        loop {
            let h = self.family.hash(way, &entry.tag());
            let (in_old, idx) = self.ways[way].locate(h);
            let slot = self.ways[way].slot_mut(in_old, idx);
            match slot {
                None => {
                    *slot = Some(entry);
                    self.ways[way].occupied += 1;
                    return Ok(kicks);
                }
                Some(_) => {
                    entry = slot.replace(entry).expect("slot is occupied");
                    kicks += 1;
                    if kicks.is_multiple_of(self.cfg.max_kicks) {
                        self.finish_all_resizes(mem, memory);
                        let grown = if self.cfg.per_way {
                            let w = self.fullest_smallest_way();
                            self.start_resize(w, ResizeKind::Upsize, mem, memory)
                        } else {
                            self.start_all(ResizeKind::Upsize, mem, memory)
                        };
                        if let Err(e) = grown {
                            self.undo_place(tag, entry, way);
                            return Err(e);
                        }
                    }
                    way = self.other_way(way);
                }
            }
        }
    }

    /// Undoes a failed [`HptTable::place`] of the cluster tagged `tag`:
    /// `in_hand` is the entry the last kick displaced from way `from`. The
    /// new cluster leaves the table and `in_hand` is placed back, so the
    /// table holds exactly the clusters it held before the insert.
    fn undo_place(&mut self, tag: u64, in_hand: ClusterEntry, from: usize) {
        if in_hand.tag() == tag {
            return;
        }
        let (w, in_old, idx) = self.find(tag).expect("the new cluster was placed");
        *self.ways[w].slot_mut(in_old, idx) = None;
        self.ways[w].occupied -= 1;
        let other = self.other_way(from);
        self.place_infallible(other, in_hand);
    }

    /// Places a displaced entry without ever allocating: kicks until a
    /// slot frees up (used by migration and chunk switches).
    fn place_infallible(&mut self, way: usize, cluster: ClusterEntry) -> usize {
        let mut way = way;
        let mut entry = cluster;
        let mut kicks = 0usize;
        loop {
            let h = self.family.hash(way, &entry.tag());
            let (in_old, idx) = self.ways[way].locate(h);
            let slot = self.ways[way].slot_mut(in_old, idx);
            match slot {
                None => {
                    *slot = Some(entry);
                    self.ways[way].occupied += 1;
                    return kicks;
                }
                Some(_) => {
                    entry = slot.replace(entry).expect("slot is occupied");
                    kicks += 1;
                    way = self.other_way(way);
                    assert!(kicks < 100_000, "victim placement diverged");
                }
            }
        }
    }

    fn fullest_smallest_way(&self) -> usize {
        let min_len = self.ways.iter().map(|w| w.len).min().expect("ways exist");
        (0..self.ways.len())
            .filter(|&w| self.ways[w].len == min_len)
            .max_by_key(|&w| self.ways[w].occupied)
            .expect("some way is the smallest")
    }

    /// Threshold checks: starts the resize that is due, if any. A failed
    /// upsize is returned; a failed downsize is deferred.
    fn maybe_resize(
        &mut self,
        mem: &mut PhysMem,
        memory: &mut dyn WayMemory,
    ) -> Result<(), AllocError> {
        if self.is_resizing() {
            return Ok(());
        }
        let (up, down) = (self.cfg.upsize_threshold, self.cfg.downsize_threshold);
        let initial = self.cfg.initial_entries_per_way;
        // `(way, kind)`; no way means all ways.
        let due = if self.cfg.per_way {
            let min_len = self.ways.iter().map(|w| w.len).min().expect("ways exist");
            let max_len = self.ways.iter().map(|w| w.len).max().expect("ways exist");
            self.ways.iter().enumerate().find_map(|(w, way)| {
                let occupied = way.occupied as f64;
                if occupied >= up * way.len as f64 && way.len <= min_len {
                    Some((Some(w), ResizeKind::Upsize))
                } else if occupied < down * way.len as f64
                    && way.len >= max_len
                    && way.len > initial
                {
                    Some((Some(w), ResizeKind::Downsize))
                } else {
                    None
                }
            })
        } else {
            let cap = self.capacity() as f64;
            if (self.clusters + 1) as f64 > up * cap {
                Some((None, ResizeKind::Upsize))
            } else if (self.clusters as f64) < down * cap && self.ways[0].len > initial {
                Some((None, ResizeKind::Downsize))
            } else {
                None
            }
        };
        let Some((way, kind)) = due else {
            return Ok(());
        };
        let started = match way {
            Some(w) => self.start_resize(w, kind, mem, memory),
            None => self.start_all(kind, mem, memory),
        };
        match kind {
            ResizeKind::Upsize => started,
            ResizeKind::Downsize => Ok(()),
        }
    }

    /// Starts a resize of every way. If one way cannot allocate, the ways
    /// already started are rolled back (freeing their new chunks in way
    /// order) and the table is as before.
    fn start_all(
        &mut self,
        kind: ResizeKind,
        mem: &mut PhysMem,
        memory: &mut dyn WayMemory,
    ) -> Result<(), AllocError> {
        for w in 0..self.ways.len() {
            if let Err(e) = self.start_resize(w, kind, mem, memory) {
                for v in 0..w {
                    self.abandon_resize(v, mem, memory);
                }
                return Err(e);
            }
        }
        Ok(())
    }

    /// Starts a resize of way `w`: in-place growth or shrinkage, an
    /// out-of-place copy, or a chunk-size switch.
    fn start_resize(
        &mut self,
        w: usize,
        kind: ResizeKind,
        mem: &mut PhysMem,
        memory: &mut dyn WayMemory,
    ) -> Result<(), AllocError> {
        debug_assert!(!self.ways[w].is_resizing());
        let ps = self.ps;
        let in_place = self.cfg.in_place;
        let old_len = self.ways[w].len;
        let new_len = match kind {
            ResizeKind::Upsize => old_len * 2,
            ResizeKind::Downsize => old_len / 2,
        };
        let storage = &self.ways[w].storage;
        if !in_place {
            // Old and new chunks are registered at the same time, so the
            // registry may run out much earlier — exactly the pressure
            // Section VII-D describes for the ablation.
            let Some(chunk_bytes) = memory.copy_chunk_bytes(w, ps, storage.chunk_bytes, new_len)
            else {
                return self.chunk_switch(w, new_len, mem, memory);
            };
            let n = ChunkSizePolicy::chunks_for(new_len, chunk_bytes);
            let chunks = alloc_chunks(n, chunk_bytes, mem)?;
            for &c in &chunks {
                memory.register(w, ps, c);
            }
            let copy = Storage {
                slots: vec![None; new_len],
                chunks,
                chunk_bytes,
            };
            let way = &mut self.ways[w];
            way.old = Some(mem::replace(&mut way.storage, copy));
        } else if kind == ResizeKind::Upsize {
            let chunk_bytes = storage.chunk_bytes;
            let extra = ChunkSizePolicy::chunks_for(new_len, chunk_bytes)
                .saturating_sub(storage.chunks.len());
            if extra > 0 && memory.room(w, ps) < extra {
                // The registry is full: switch chunk size (Section IV-B;
                // "by construction, out-of-place").
                return self.chunk_switch(w, new_len, mem, memory);
            }
            let chunks = alloc_chunks(extra, chunk_bytes, mem)?;
            for &c in &chunks {
                memory.register(w, ps, c);
            }
            let way = &mut self.ways[w];
            way.storage.chunks.extend(chunks);
            way.storage.slots.resize(new_len, None);
        }
        // An in-place downsize allocates nothing: the array shrinks after
        // the migration completes.
        let way = &mut self.ways[w];
        way.len = new_len;
        way.resize = Some(Resize {
            old_len,
            rehash_ptr: 0,
            kind,
            in_place,
            moved: 0,
            kept: 0,
        });
        self.stats.max_chunk_bytes = self.stats.max_chunk_bytes.max(way.storage.chunk_bytes);
        self.note_bytes();
        Ok(())
    }

    /// Undoes a resize of way `w` that [`HptTable::start_all`] started but
    /// that has migrated nothing yet. A chunk switch completes when it
    /// starts and stays.
    fn abandon_resize(&mut self, w: usize, mem: &mut PhysMem, memory: &mut dyn WayMemory) {
        let Some(r) = self.ways[w].resize.take() else {
            return;
        };
        debug_assert_eq!(r.rehash_ptr, 0);
        let way = &mut self.ways[w];
        way.len = r.old_len;
        if let Some(old) = way.old.take() {
            let copy = mem::replace(&mut way.storage, old);
            release(copy, w, self.ps, memory, mem);
        } else if r.kind == ResizeKind::Upsize {
            way.storage.slots.truncate(r.old_len);
            self.drop_surplus_chunks(w, mem, memory);
        }
    }

    /// Frees the chunks of way `w` beyond what its slots need, last first.
    fn drop_surplus_chunks(&mut self, w: usize, mem: &mut PhysMem, memory: &mut dyn WayMemory) {
        let storage = &mut self.ways[w].storage;
        let keep = ChunkSizePolicy::chunks_for(storage.slots.len(), storage.chunk_bytes);
        while storage.chunks.len() > keep {
            let c = storage.chunks.pop().expect("more chunks than kept");
            memory.unregister(w, self.ps, c);
            mem.free(c);
        }
    }

    /// Synchronously rehomes way `w` into chunks of the next size
    /// (Figure 3d → 3e): allocate the new chunks, free the old ones,
    /// register the new ones, rehash every entry. The paper observes at
    /// most one of these per run.
    fn chunk_switch(
        &mut self,
        w: usize,
        new_len: usize,
        mem: &mut PhysMem,
        memory: &mut dyn WayMemory,
    ) -> Result<(), AllocError> {
        let ps = self.ps;
        let old_len = self.ways[w].len;
        let chunk_bytes = memory.switch_chunk_bytes(self.ways[w].storage.chunk_bytes, new_len);
        // Allocate the new chunks first; register them once the old ones
        // have left the registry.
        let n = ChunkSizePolicy::chunks_for(new_len, chunk_bytes);
        let chunks = alloc_chunks(n, chunk_bytes, mem)?;
        let fresh = Storage {
            slots: vec![None; new_len],
            chunks,
            chunk_bytes,
        };
        let mut old = mem::replace(&mut self.ways[w].storage, fresh);
        let entries: Vec<ClusterEntry> = mem::take(&mut old.slots).into_iter().flatten().collect();
        release(old, w, ps, memory, mem);
        for &c in &self.ways[w].storage.chunks {
            memory.register(w, ps, c);
        }
        let moved = entries.len() as u64;
        self.ways[w].occupied = 0;
        self.ways[w].len = new_len;
        for entry in entries {
            let kicks = self.place_infallible(w, entry);
            self.stats.record_kicks(kicks);
        }
        self.stats.chunk_switches += 1;
        self.stats.resizes.push(ResizeEvent {
            way: w,
            kind: ResizeKind::Upsize,
            from_entries: old_len,
            to_entries: new_len,
            moved,
            kept: 0,
        });
        self.stats.max_chunk_bytes = self.stats.max_chunk_bytes.max(chunk_bytes);
        self.note_bytes();
        Ok(())
    }

    /// Advances all in-flight migrations; returns entries migrated.
    fn migration_step(&mut self, mem: &mut PhysMem, memory: &mut dyn WayMemory) -> u32 {
        let mut migrated = 0;
        for w in 0..self.ways.len() {
            for _ in 0..self.cfg.migrate_per_insert {
                if !self.ways[w].is_resizing() {
                    break;
                }
                migrated += self.migrate_one(w, mem, memory);
            }
        }
        migrated
    }

    fn finish_all_resizes(&mut self, mem: &mut PhysMem, memory: &mut dyn WayMemory) {
        for w in 0..self.ways.len() {
            while self.ways[w].is_resizing() {
                self.migrate_one(w, mem, memory);
            }
        }
    }

    /// Migrates the entry under way `w`'s rehash pointer (Section IV-C's
    /// detailed rehash algorithm). Returns 1 if an entry was processed.
    fn migrate_one(&mut self, w: usize, mem: &mut PhysMem, memory: &mut dyn WayMemory) -> u32 {
        let r = self.ways[w].resize.as_mut().expect("way is resizing");
        if r.rehash_ptr >= r.old_len {
            self.complete_resize(w, mem, memory);
            return 0;
        }
        let (idx, in_place) = (r.rehash_ptr, r.in_place);
        r.rehash_ptr += 1;
        let Some(cluster) = self.ways[w].slot_mut(!in_place, idx).take() else {
            return 0;
        };
        // Rehash with the same function, one more (or one fewer) bit of the
        // hash key: in place, the entry stays or moves to the same offset
        // in the other half (Figure 5).
        let h = self.family.hash(w, &cluster.tag());
        let way = &mut self.ways[w];
        let new_idx = h as usize & (way.len - 1);
        let r = way.resize.as_mut().expect("way is resizing");
        if in_place && new_idx == idx {
            r.kept += 1;
        } else {
            r.moved += 1;
        }
        match way.storage.slots[new_idx].replace(cluster) {
            None => self.stats.record_kicks(0),
            Some(victim) => {
                // Conflict: the occupant is cuckooed into a different way
                // (Section IV-C), so this way's occupancy is unchanged.
                way.occupied -= 1;
                let other = self.other_way(w);
                let kicks = self.place_infallible(other, victim);
                self.stats.record_kicks(kicks + 1);
            }
        }
        1
    }

    /// Finalizes a completed migration: an in-place downsize drops its
    /// upper half, an out-of-place resize frees its old table.
    fn complete_resize(&mut self, w: usize, mem: &mut PhysMem, memory: &mut dyn WayMemory) {
        let way = &mut self.ways[w];
        let r = way.resize.take().expect("resize must be active");
        if let Some(old) = way.old.take() {
            debug_assert!(old.slots.iter().all(Option::is_none));
            release(old, w, self.ps, memory, mem);
        } else if r.kind == ResizeKind::Downsize {
            debug_assert!(
                way.storage.slots[way.len..].iter().all(Option::is_none),
                "upper half must be empty after downsize migration"
            );
            way.storage.slots.truncate(way.len);
            way.storage.slots.shrink_to_fit();
            self.drop_surplus_chunks(w, mem, memory);
        }
        self.stats.resizes.push(ResizeEvent {
            way: w,
            kind: r.kind,
            from_entries: r.old_len,
            to_entries: self.ways[w].len,
            moved: r.moved,
            kept: r.kept,
        });
        self.note_bytes();
    }
}
