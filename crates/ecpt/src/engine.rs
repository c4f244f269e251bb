use std::any::Any;
use std::fmt::Debug;

use mehpt_hash::{CuckooEngine, InsertReport, Policy, TableStats, WayBacking};
use mehpt_mem::{AllocError, AllocTag, Chunk, PhysMem};
use mehpt_types::{PageSize, PhysAddr, Ppn, Vpn};

use crate::config::{ChunkSizePolicy, MeHptConfig};
use crate::entry::ClusterEntry;

/// Where the physical chunks of a page table's ways come from.
///
/// This is the one thing the ECPT baseline and ME-HPT disagree on; the
/// elastic cuckoo algorithm and its resize policy are the same
/// [`CuckooEngine`] code. ECPT backs each way with one contiguous chunk
/// the size of the way (a private implementation in this crate); ME-HPT
/// (`mehpt_core`) registers chunks from its size ladder in the L2P table,
/// which is shared by a process's three per-size tables and therefore
/// passed into every table operation rather than owned by a table. The
/// methods are the engine's [`WayBacking`] ones for the table of page
/// size `ps`; [`PhysMem`] supplies the chunks.
pub trait WayMemory: Debug + Any {
    /// [`WayBacking::first_chunk_bytes`].
    fn first_chunk_bytes(&self, entries: usize) -> u64;

    /// [`WayBacking::copy_chunk_bytes`].
    fn copy_chunk_bytes(
        &self,
        way: usize,
        ps: PageSize,
        current: u64,
        entries: usize,
    ) -> Option<u64>;

    /// [`WayBacking::switch_chunk_bytes`].
    fn switch_chunk_bytes(&self, current: u64, entries: usize) -> u64;

    // The registry of chunks; the defaults are a memory without one.

    /// [`WayBacking::room`].
    fn room(&self, _way: usize, _ps: PageSize) -> usize {
        usize::MAX
    }

    /// [`WayBacking::register`].
    fn register(&mut self, _way: usize, _ps: PageSize, _chunk: Chunk) {}

    /// [`WayBacking::unregister`].
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

/// The [`WayBacking`] of one page-size table for the length of one
/// operation: chunks come from `mem`, sizes and the registry from
/// `memory`.
struct PtBacking<'a> {
    memory: &'a mut dyn WayMemory,
    mem: &'a mut PhysMem,
    ps: PageSize,
}

impl WayBacking for PtBacking<'_> {
    type Chunk = Chunk;
    type Error = AllocError;

    fn chunk_bytes(chunk: &Chunk) -> u64 {
        chunk.bytes()
    }

    fn first_chunk_bytes(&self, entries: usize) -> u64 {
        self.memory.first_chunk_bytes(entries)
    }

    fn copy_chunk_bytes(&self, way: usize, current: u64, entries: usize) -> Option<u64> {
        self.memory.copy_chunk_bytes(way, self.ps, current, entries)
    }

    fn switch_chunk_bytes(&self, current: u64, entries: usize) -> u64 {
        self.memory.switch_chunk_bytes(current, entries)
    }

    fn alloc(&mut self, bytes: u64) -> Result<Chunk, AllocError> {
        self.mem.alloc(bytes, AllocTag::PageTable)
    }

    fn free(&mut self, chunk: Chunk) {
        self.mem.free(chunk);
    }

    fn room(&self, way: usize) -> usize {
        self.memory.room(way, self.ps)
    }

    fn register(&mut self, way: usize, chunk: Chunk) {
        self.memory.register(way, self.ps, chunk);
    }

    fn unregister(&mut self, way: usize, chunk: Chunk) {
        self.memory.unregister(way, self.ps, chunk);
    }
}

/// The physical address of logical entry `idx` of a table in `chunks` of
/// `chunk_bytes` — the L2P translation: chunk `idx / entries_per_chunk`,
/// offset `idx % entries_per_chunk`.
fn slot_addr(chunks: &[Chunk], chunk_bytes: u64, idx: usize) -> PhysAddr {
    // Chunk sizes are powers of two, so the split is a shift and a mask
    // rather than a division.
    let epc = ChunkSizePolicy::entries_per_chunk(chunk_bytes);
    let chunk = idx >> epc.trailing_zeros();
    chunks[chunk].addr((idx & (epc - 1)) as u64 * ClusterEntry::BYTES)
}

/// The elastic cuckoo page table for one page size, shared by the ECPT
/// baseline and ME-HPT.
///
/// The [`CuckooEngine`] of `mehpt-hash` storing [`ClusterEntry`]s, keyed
/// by their tag, in physical-memory chunks supplied by a [`WayMemory`];
/// this type adds the page granularity (a translation is one PTE of a
/// cluster) and the physical addresses a hardware walker probes. The
/// [`MeHptConfig`] switches choose the resize policy: `in_place` off
/// resizes out of place, and on contiguous memory an upsize *fails* if
/// physical memory cannot supply the chunks, which is how ECPT dies on a
/// fragmented machine; `per_way` off resizes all ways together.
pub struct HptTable {
    engine: CuckooEngine<ClusterEntry, Chunk>,
    ps: PageSize,
    pages: u64,
}

impl std::fmt::Debug for HptTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HptTable")
            .field("page_size", &self.ps)
            .field("pages", &self.pages)
            .field("clusters", &self.clusters())
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
        seeds: (u64, u64),
        memory: &mut dyn WayMemory,
        mem: &mut PhysMem,
    ) -> Result<HptTable, AllocError> {
        let policy = Policy {
            ways: cfg.ways,
            initial_entries_per_way: cfg.initial_entries_per_way,
            upsize_threshold: cfg.upsize_threshold,
            downsize_threshold: cfg.downsize_threshold,
            migrate_per_insert: cfg.migrate_per_insert,
            max_kicks: cfg.max_kicks,
            in_place: cfg.in_place,
            per_way: cfg.per_way,
        };
        let engine = CuckooEngine::new(policy, seeds, &mut PtBacking { memory, mem, ps })?;
        Ok(HptTable {
            engine,
            ps,
            pages: 0,
        })
    }

    /// The number of valid translations (pages) stored.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// The number of occupied cluster entries.
    pub fn clusters(&self) -> usize {
        self.engine.len()
    }

    /// Logical capacity in cluster entries (sum of way sizes).
    pub fn capacity(&self) -> usize {
        self.engine.capacity()
    }

    /// The logical size of each way in bytes (entries × 64B) — Figure 12.
    pub fn way_sizes(&self) -> Vec<u64> {
        self.engine
            .way_capacities()
            .into_iter()
            .map(|len| len as u64 * ClusterEntry::BYTES)
            .collect()
    }

    /// The physical bytes backing each way's current table (whole chunks,
    /// even when the way only fills part of one — Figure 15's metric).
    pub fn way_phys_bytes(&self) -> Vec<u64> {
        self.engine.way_bytes()
    }

    /// The chunk size each way currently uses.
    pub fn way_chunk_bytes(&self) -> Vec<u64> {
        self.engine.way_chunk_bytes()
    }

    /// Physical memory currently held (all chunks, both tables during an
    /// out-of-place resize).
    pub fn memory_bytes(&self) -> u64 {
        self.engine.memory_bytes()
    }

    /// Whether any way is mid-resize.
    pub fn is_resizing(&self) -> bool {
        self.engine.is_resizing()
    }

    /// Collected statistics.
    pub fn stats(&self) -> &TableStats {
        self.engine.stats()
    }

    /// Histogram of cuckoo re-insertions per insert or rehash (Figure 16).
    pub fn kicks_histogram(&self) -> &[u64] {
        &self.stats().kicks_histogram
    }

    /// Functional lookup (no timing).
    pub fn lookup(&self, vpn: Vpn) -> Option<Ppn> {
        self.engine.get(&ClusterEntry::tag_of(vpn))?.get(vpn)
    }

    /// One hardware probe of `vpn`: appends the W slot addresses a walker
    /// probes to `out`, honoring the rehash pointers, and returns what
    /// [`HptTable::lookup`] would, hashing each way once. For ME-HPT the
    /// L2P lookup that produces these addresses costs ~4 cycles in
    /// hardware and hides behind the CWC access (Section V-D).
    pub(crate) fn probe(&self, vpn: Vpn, out: &mut Vec<PhysAddr>) -> Option<Ppn> {
        self.engine
            .probe(&ClusterEntry::tag_of(vpn), |chunks, chunk_bytes, idx| {
                out.push(slot_addr(chunks, chunk_bytes, idx));
            })?
            .get(vpn)
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
        let tag = ClusterEntry::tag_of(vpn);
        // Update in place if the cluster already exists.
        if let Some(cluster) = self.engine.get_mut(&tag) {
            if cluster.set(vpn, ppn).is_none() {
                self.pages += 1;
            }
            return Ok(InsertReport::default());
        }
        let mut cluster = ClusterEntry::new(tag);
        cluster.set(vpn, ppn);
        let ps = self.ps;
        let report = self
            .engine
            .insert(cluster, &mut PtBacking { memory, mem, ps })?;
        self.pages += 1;
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
        let ps = self.ps;
        let backing = &mut PtBacking { memory, mem, ps };
        let ppn = self
            .engine
            .remove_with(&ClusterEntry::tag_of(vpn), backing, |slot| {
                let cluster = slot.as_mut()?;
                let ppn = cluster.clear(vpn)?;
                if cluster.is_empty() {
                    *slot = None;
                }
                Some(ppn)
            })?;
        self.pages -= 1;
        Some(ppn)
    }

    /// Releases all physical memory and registry entries.
    pub fn destroy(self, mem: &mut PhysMem, memory: &mut dyn WayMemory) {
        let ps = self.ps;
        self.engine.destroy(&mut PtBacking { memory, mem, ps });
    }

    /// Checks the table's structural invariants, panicking on a violation:
    /// the engine's ([`CuckooEngine::check_invariants`], with the registry
    /// of `memory`), no empty cluster is stored, and the valid PTEs sum to
    /// the page count.
    pub fn check_invariants(&self, memory: &dyn WayMemory) {
        self.engine
            .check_invariants::<PtBacking<'_>>(|w| memory.registered(w, self.ps));
        let mut pages = 0;
        for cluster in self.engine.iter() {
            assert!(!cluster.is_empty(), "an empty cluster is stored");
            pages += cluster.valid_count() as u64;
        }
        assert_eq!(pages, self.pages, "page count");
    }
}
