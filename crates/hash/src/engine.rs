use std::convert::Infallible;
use std::fmt::Debug;
use std::hash::Hash;
use std::mem;

use mehpt_types::rng::Xoshiro256;

use crate::stats::{ResizeEvent, ResizeKind, TableStats};
use crate::HashFamily;

/// An entry of an elastic cuckoo table, found by its key.
///
/// The page tables store clustered translation entries keyed by their tag;
/// [`ElasticCuckooTable`](crate::ElasticCuckooTable) stores `(K, V)` pairs
/// keyed by `K`.
pub trait Entry {
    /// What the entry is hashed and looked up by.
    type Key: Hash + Eq;

    /// The bytes one slot occupies in a way's chunks.
    const SLOT_BYTES: u64;

    /// The entry's key.
    fn key(&self) -> &Self::Key;
}

impl<K: Hash + Eq, V> Entry for (K, V) {
    type Key = K;

    const SLOT_BYTES: u64 = mem::size_of::<Option<(K, V)>>() as u64;

    fn key(&self) -> &K {
        &self.0
    }
}

/// Chunks of `chunk_bytes` needed to back a way of `entries` entries of
/// `E` (at least one).
pub fn chunks_for<E: Entry>(entries: usize, chunk_bytes: u64) -> usize {
    entries
        .div_ceil((chunk_bytes / E::SLOT_BYTES) as usize)
        .max(1)
}

/// Where the chunks of a table's ways come from, and where they are
/// registered.
///
/// This is the one thing the instantiations of [`CuckooEngine`] disagree
/// on. The ECPT baseline backs each way with one contiguous physical chunk
/// the size of the way, ME-HPT registers chunks from its size ladder in the
/// L2P table, and [`ElasticCuckooTable`](crate::ElasticCuckooTable) uses
/// ECPT's one-chunk-per-way layout on the heap, which never fails.
pub trait WayBacking {
    /// A handle to one allocated chunk.
    type Chunk: Copy + PartialEq + Debug;

    /// Why a chunk could not be allocated.
    type Error;

    /// The size of `chunk` in bytes.
    fn chunk_bytes(chunk: &Self::Chunk) -> u64;

    /// The chunk size of a new way of `entries` entries.
    fn first_chunk_bytes(&self, entries: usize) -> u64;

    /// The chunk size of an out-of-place copy of way `way` at `entries`
    /// entries, whose current chunks are `current` bytes; `None` when no
    /// chunk size fits the registry, and the way must switch chunk size
    /// instead.
    fn copy_chunk_bytes(&self, way: usize, current: u64, entries: usize) -> Option<u64>;

    /// The chunk size a way of `entries` entries switches to from
    /// `current`-byte chunks (Section IV-B).
    fn switch_chunk_bytes(&self, current: u64, entries: usize) -> u64;

    /// Allocates one chunk of `bytes`.
    ///
    /// # Errors
    ///
    /// Returns why the chunk could not be allocated.
    fn alloc(&mut self, bytes: u64) -> Result<Self::Chunk, Self::Error>;

    /// Frees a chunk returned by [`WayBacking::alloc`].
    fn free(&mut self, chunk: Self::Chunk);

    // The registry of chunks; the defaults are a backing without one.

    /// How many more chunks way `way` can register.
    fn room(&self, _way: usize) -> usize {
        usize::MAX
    }

    /// Registers `chunk` as the next logical chunk of way `way`.
    fn register(&mut self, _way: usize, _chunk: Self::Chunk) {}

    /// Withdraws a registered chunk of way `way`.
    fn unregister(&mut self, _way: usize, _chunk: Self::Chunk) {}
}

/// The resize policy of a [`CuckooEngine`].
#[derive(Clone, Debug)]
pub struct Policy {
    /// Number of ways. At least 2.
    pub ways: usize,
    /// Entries per way at creation (a power of two), and the floor below
    /// which downsizing stops.
    pub initial_entries_per_way: usize,
    /// Occupancy fraction that triggers an upsize.
    pub upsize_threshold: f64,
    /// Occupancy fraction that triggers a downsize.
    pub downsize_threshold: f64,
    /// Entries migrated from each resizing way per insert or remove.
    pub migrate_per_insert: usize,
    /// Cuckoo kicks between two kick-limit upsizes of one insert.
    pub max_kicks: usize,
    /// In-place resizing (Section IV-C). Off = out of place.
    pub in_place: bool,
    /// Per-way resizing with weighted insertion (Section IV-D). Off =
    /// all-way resizing.
    pub per_way: bool,
}

/// What one insert did, for OS cost accounting in the simulator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InsertReport {
    /// Cuckoo re-insertions needed to place the entry.
    pub kicks: u32,
    /// Entries migrated on behalf of an in-flight resize.
    pub migrated: u32,
}

/// One way's table: a flat logical array of slots over equal-sized chunks
/// (one chunk for a contiguous way).
#[derive(Clone, Debug)]
struct Storage<E, C> {
    slots: Vec<Option<E>>,
    chunks: Vec<C>,
    chunk_bytes: u64,
}

impl<E, C> Storage<E, C> {
    fn new(len: usize, chunks: Vec<C>, chunk_bytes: u64) -> Storage<E, C> {
        Storage {
            slots: empty_slots(len),
            chunks,
            chunk_bytes,
        }
    }

    fn bytes(&self) -> u64 {
        self.chunks.len() as u64 * self.chunk_bytes
    }
}

fn empty_slots<E>(len: usize) -> Vec<Option<E>> {
    std::iter::repeat_with(|| None).take(len).collect()
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

#[derive(Clone, Debug)]
struct Way<E, C> {
    storage: Storage<E, C>,
    /// The old table during an out-of-place resize.
    old: Option<Storage<E, C>>,
    len: usize,
    resize: Option<Resize>,
    occupied: usize,
}

impl<E, C> Way<E, C> {
    /// Resolves a hash value to `(in_old_storage, index)`, honoring the
    /// rehash pointer: keys whose old-table index is at or above it are
    /// still in the live region of the old table; below it, the key lives
    /// in the new table (indexed with one more or one fewer bit of the
    /// same hash value).
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
    fn table(&self, in_old: bool) -> &Storage<E, C> {
        if in_old {
            self.old.as_ref().expect("an old table is resizing")
        } else {
            &self.storage
        }
    }

    fn slot_mut(&mut self, in_old: bool, idx: usize) -> &mut Option<E> {
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

/// Allocates `n` chunks of `bytes`, freeing them again if one allocation
/// fails.
fn alloc_chunks<B: WayBacking>(
    n: usize,
    bytes: u64,
    backing: &mut B,
) -> Result<Vec<B::Chunk>, B::Error> {
    let mut chunks = Vec::with_capacity(n);
    for _ in 0..n {
        match backing.alloc(bytes) {
            Ok(c) => chunks.push(c),
            Err(e) => {
                for c in chunks {
                    backing.free(c);
                }
                return Err(e);
            }
        }
    }
    Ok(chunks)
}

/// Unregisters and frees every chunk of `storage`, in order.
fn release<E, B: WayBacking>(storage: Storage<E, B::Chunk>, way: usize, backing: &mut B) {
    for c in storage.chunks {
        backing.unregister(way, c);
        backing.free(c);
    }
}

/// The elastic cuckoo hash table: the one implementation of the algorithm
/// that the ECPT baseline, ME-HPT and the generic
/// [`ElasticCuckooTable`](crate::ElasticCuckooTable) instantiate.
///
/// A W-way cuckoo table of entries `E` whose ways live in chunks `C`
/// supplied by a [`WayBacking`], which every operation that may allocate
/// takes as an argument. Resizing is gradual: per-way rehash pointers split
/// each resizing way into migrated and live regions, and entries migrate as
/// inserts and removes arrive. The [`Policy`] switches choose the resize
/// policy:
///
/// * `in_place` off: resizes are **out of place** — a new table is
///   allocated at double (half) the size and the old one freed once
///   migration completes; an upsize *fails* if the backing cannot supply
///   the chunks, which is how ECPT dies on a fragmented machine. On:
///   upsizing appends chunks and consumes one extra hash-key bit, so
///   ≈half the migrated entries never move (Section IV-C);
/// * `per_way` off: all ways resize together, atomically; on: one way at a
///   time, with weighted-random insertion and a 2× balance gate
///   (Section IV-D).
///
/// Every `max_kicks` kicks of one insert, a pressure valve finishes the
/// in-flight resizes and upsizes (the fullest smallest way, or all ways).
/// When the backing's registry has no room for a growing way, the way
/// switches synchronously to the next chunk size (Section IV-B).
#[derive(Clone, Debug)]
pub struct CuckooEngine<E, C> {
    ways: Vec<Way<E, C>>,
    family: HashFamily,
    policy: Policy,
    rng: Xoshiro256,
    len: usize,
    stats: TableStats,
}

impl<E: Entry, C: Copy + PartialEq + Debug> CuckooEngine<E, C> {
    /// Creates an empty table, allocating the initial chunks from
    /// `backing`. The hash functions are seeded with `hash_seed`, the way
    /// choices with `rng_seed`.
    ///
    /// # Errors
    ///
    /// Propagates allocation failure of the initial chunks; nothing leaks.
    ///
    /// # Panics
    ///
    /// Panics if the policy is structurally invalid (fewer than two ways or
    /// a non-power-of-two initial size).
    pub fn new<B: WayBacking<Chunk = C>>(
        policy: Policy,
        (hash_seed, rng_seed): (u64, u64),
        backing: &mut B,
    ) -> Result<CuckooEngine<E, C>, B::Error> {
        assert!(policy.ways >= 2, "cuckoo hashing needs at least 2 ways");
        assert!(
            policy.initial_entries_per_way.is_power_of_two(),
            "way sizes must be powers of two"
        );
        let len = policy.initial_entries_per_way;
        let chunk_bytes = backing.first_chunk_bytes(len);
        let n_chunks = chunks_for::<E>(len, chunk_bytes);
        let mut ways: Vec<Way<E, C>> = Vec::with_capacity(policy.ways);
        for w in 0..policy.ways {
            let chunks = match alloc_chunks(n_chunks, chunk_bytes, backing) {
                Ok(chunks) => chunks,
                Err(e) => {
                    for (w, way) in ways.into_iter().enumerate() {
                        release(way.storage, w, backing);
                    }
                    return Err(e);
                }
            };
            for &c in &chunks {
                backing.register(w, c);
            }
            ways.push(Way {
                storage: Storage::new(len, chunks, chunk_bytes),
                old: None,
                len,
                resize: None,
                occupied: 0,
            });
        }
        let mut engine = CuckooEngine {
            ways,
            family: HashFamily::new(policy.ways, hash_seed),
            policy,
            rng: Xoshiro256::seed_from_u64(rng_seed),
            len: 0,
            stats: TableStats::default(),
        };
        engine.stats.max_chunk_bytes = chunk_bytes;
        engine.note_bytes();
        Ok(engine)
    }

    /// The number of entries stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entry is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Logical capacity in entries (sum of way sizes).
    pub fn capacity(&self) -> usize {
        self.ways.iter().map(|w| w.len).sum()
    }

    /// The logical capacity of each way, in entries.
    pub fn way_capacities(&self) -> Vec<usize> {
        self.ways.iter().map(|w| w.len).collect()
    }

    /// The number of entries in each way.
    pub fn way_occupancies(&self) -> Vec<usize> {
        self.ways.iter().map(|w| w.occupied).collect()
    }

    /// The bytes backing each way's current table (whole chunks, even when
    /// the way only fills part of one).
    pub fn way_bytes(&self) -> Vec<u64> {
        self.ways.iter().map(|w| w.storage.bytes()).collect()
    }

    /// The chunk size each way currently uses.
    pub fn way_chunk_bytes(&self) -> Vec<u64> {
        self.ways.iter().map(|w| w.storage.chunk_bytes).collect()
    }

    /// Bytes currently held (all chunks, both tables during an
    /// out-of-place resize).
    pub fn memory_bytes(&self) -> u64 {
        self.ways.iter().map(Way::bytes).sum()
    }

    /// Whether any way is mid-resize.
    pub fn is_resizing(&self) -> bool {
        self.ways.iter().any(Way::is_resizing)
    }

    /// The number of ways mid-resize.
    pub fn resizing_ways(&self) -> usize {
        self.ways.iter().filter(|w| w.is_resizing()).count()
    }

    /// Collected statistics.
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// The entry keyed `key`.
    pub fn get(&self, key: &E::Key) -> Option<&E> {
        self.ways.iter().enumerate().find_map(|(w, way)| {
            let (in_old, idx) = way.locate(self.family.hash(w, key));
            way.table(in_old).slots[idx]
                .as_ref()
                .filter(|e| e.key() == key)
        })
    }

    /// The entry keyed `key`, mutably. The key must not change.
    pub fn get_mut(&mut self, key: &E::Key) -> Option<&mut E> {
        let (w, in_old, idx) = self.find(key)?;
        self.ways[w].slot_mut(in_old, idx).as_mut()
    }

    /// Looks `key` up as a hardware walker does, hashing each way once:
    /// `visit` sees the slot probed in each way, in way order, as the
    /// chunks and chunk size of its table and its index there, honoring
    /// the rehash pointers (Section II-B: "a lookup operation during
    /// resizing only needs W probes"). Returns what
    /// [`CuckooEngine::get`] would.
    pub fn probe(&self, key: &E::Key, mut visit: impl FnMut(&[C], u64, usize)) -> Option<&E> {
        let mut found = None;
        for (w, way) in self.ways.iter().enumerate() {
            let (in_old, idx) = way.locate(self.family.hash(w, key));
            let table = way.table(in_old);
            visit(&table.chunks, table.chunk_bytes, idx);
            // Read slots only until the key is found.
            if found.is_none() {
                found = table.slots[idx].as_ref().filter(|e| e.key() == key);
            }
        }
        found
    }

    /// Every entry, in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &E> {
        self.ways.iter().flat_map(|w| {
            w.storage
                .slots
                .iter()
                .chain(w.old.iter().flat_map(|s| s.slots.iter()))
                .flatten()
        })
    }

    /// Inserts `entry`, whose key must be absent.
    ///
    /// # Errors
    ///
    /// Fails only when a resize is needed and `backing` cannot supply its
    /// chunks. Every entry stored before the call is still stored
    /// afterwards, and `entry` is not: to take it out again after a failed
    /// kick-limit upsize, the engine keeps a copy of its key.
    pub fn insert<B: WayBacking<Chunk = C>>(
        &mut self,
        entry: E,
        backing: &mut B,
    ) -> Result<InsertReport, B::Error>
    where
        E::Key: Copy,
    {
        let key = *entry.key();
        self.insert_entry(entry, Some(&key), backing)
    }

    /// [`CuckooEngine::insert`] on a backing that never fails, which needs
    /// no copy of the key.
    pub fn insert_infallible<B: WayBacking<Chunk = C, Error = Infallible>>(
        &mut self,
        entry: E,
        backing: &mut B,
    ) -> InsertReport {
        match self.insert_entry(entry, None, backing) {
            Ok(report) => report,
            Err(never) => match never {},
        }
    }

    /// Edits the entry keyed `key` with `edit`, which returns `None` to
    /// leave the table untouched and may empty the slot to delete the
    /// entry. A successful edit then does the resize work a remove does: a
    /// downsize may be triggered, and is deferred silently if its
    /// allocation fails (the OS retries later).
    pub fn remove_with<R, B: WayBacking<Chunk = C>>(
        &mut self,
        key: &E::Key,
        backing: &mut B,
        edit: impl FnOnce(&mut Option<E>) -> Option<R>,
    ) -> Option<R> {
        let (w, in_old, idx) = self.find(key)?;
        let slot = self.ways[w].slot_mut(in_old, idx);
        let out = edit(slot)?;
        if slot.is_none() {
            self.ways[w].occupied -= 1;
            self.len -= 1;
        }
        let _ = self.maybe_resize(backing);
        self.migration_step(backing);
        Some(out)
    }

    /// Releases every chunk and registry entry, way by way.
    pub fn destroy<B: WayBacking<Chunk = C>>(mut self, backing: &mut B) {
        for (w, way) in self.ways.drain(..).enumerate() {
            release(way.storage, w, backing);
            if let Some(old) = way.old {
                release(old, w, backing);
            }
        }
    }

    /// Checks the structural invariants, panicking on a violation: every
    /// entry sits where a lookup looks for it, rehash pointers stay within
    /// the old table, per-way occupancy matches the filled slots and sums
    /// to the entry count, every way's chunks are of its chunk size and
    /// exactly cover its slots, and `registered(way)` (`None` for a backing
    /// without a registry) holds exactly the way's chunks in logical order.
    pub fn check_invariants<B: WayBacking<Chunk = C>>(
        &self,
        registered: impl Fn(usize) -> Option<Vec<C>>,
    ) {
        let mut entries = 0;
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
                        .all(|c| B::chunk_bytes(c) == storage.chunk_bytes),
                    "way {w} mixes chunk sizes"
                );
                assert_eq!(
                    storage.chunks.len(),
                    chunks_for::<E>(storage.slots.len(), storage.chunk_bytes),
                    "way {w} chunks do not cover its slots"
                );
                for (idx, slot) in storage.slots.iter().enumerate() {
                    let Some(entry) = slot else { continue };
                    let h = self.family.hash(w, entry.key());
                    assert_eq!(
                        way.locate(h),
                        (in_old, idx),
                        "way {w}: an entry is not where lookups look"
                    );
                    filled += 1;
                }
            }
            assert_eq!(filled, way.occupied, "way {w} occupancy");
            entries += filled;
            if let Some(registered) = registered(w) {
                let owned: Vec<C> = way
                    .old
                    .iter()
                    .chain([&way.storage])
                    .flat_map(|s| s.chunks.iter().copied())
                    .collect();
                assert_eq!(registered, owned, "way {w} registry");
            }
        }
        assert_eq!(entries, self.len, "entry count");
    }

    // ---- internals ----

    /// The way and slot holding the entry keyed `key`.
    fn find(&self, key: &E::Key) -> Option<(usize, bool, usize)> {
        (0..self.ways.len()).find_map(|w| {
            let (in_old, idx) = self.ways[w].locate(self.family.hash(w, key));
            let hit = self.ways[w].table(in_old).slots[idx]
                .as_ref()
                .is_some_and(|e| e.key() == key);
            hit.then_some((w, in_old, idx))
        })
    }

    /// Places a new entry after the resize bookkeeping; see
    /// [`CuckooEngine::insert`]. `undo_key` is the entry's key, needed
    /// only if the backing can fail.
    fn insert_entry<B: WayBacking<Chunk = C>>(
        &mut self,
        entry: E,
        undo_key: Option<&E::Key>,
        backing: &mut B,
    ) -> Result<InsertReport, B::Error> {
        let mut report = InsertReport::default();
        self.maybe_resize(backing)?;
        report.migrated = self.migration_step(backing);
        let way = self.choose_insert_way();
        report.kicks = self.place(way, entry, undo_key, backing)? as u32;
        self.len += 1;
        self.stats.record_kicks(report.kicks as usize);
        Ok(report)
    }

    /// Raises the peak to the current bytes. Bytes grow only where chunks
    /// are allocated, and each of those places calls this.
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
    /// on: weight i is the way's free-slot count, forced to zero when the
    /// way is already larger than another way and at its upsize threshold.
    /// Uniform otherwise.
    fn choose_insert_way(&mut self) -> usize {
        if !self.policy.per_way {
            return self.rng.next_index(self.ways.len());
        }
        let min_len = self.ways.iter().map(|w| w.len).min().expect("ways exist");
        let weights: Vec<u64> = self
            .ways
            .iter()
            .map(|w| {
                let free = w.len.saturating_sub(w.occupied) as u64;
                let at_threshold = w.occupied as f64 >= self.policy.upsize_threshold * w.len as f64;
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

    /// Places a new entry starting at `way`, cuckoo-kicking occupants.
    /// Every `max_kicks` kicks the pressure valve finishes in-flight
    /// resizes and upsizes (the fullest smallest way, or all ways) so the
    /// pending entry can land. If that upsize cannot allocate, the insert
    /// is undone and the error returned.
    fn place<B: WayBacking<Chunk = C>>(
        &mut self,
        way: usize,
        entry: E,
        undo_key: Option<&E::Key>,
        backing: &mut B,
    ) -> Result<usize, B::Error> {
        let mut way = way;
        let mut entry = entry;
        let mut kicks = 0usize;
        loop {
            let h = self.family.hash(way, entry.key());
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
                    if kicks.is_multiple_of(self.policy.max_kicks) {
                        self.finish_all_resizes(backing);
                        let grown = if self.policy.per_way {
                            let w = self.fullest_smallest_way();
                            self.start_resize(w, ResizeKind::Upsize, backing)
                        } else {
                            self.start_all(ResizeKind::Upsize, backing)
                        };
                        if let Err(e) = grown {
                            let key = undo_key.expect("a backing that can fail has a key to undo");
                            self.undo_place(key, entry, way);
                            return Err(e);
                        }
                    }
                    way = self.other_way(way);
                }
            }
        }
    }

    /// Undoes a failed [`CuckooEngine::place`] of the entry keyed `key`:
    /// `in_hand` is the entry the last kick displaced from way `from`. The
    /// new entry leaves the table and `in_hand` is placed back, so the
    /// table holds exactly the entries it held before the insert.
    fn undo_place(&mut self, key: &E::Key, in_hand: E, from: usize) {
        if in_hand.key() == key {
            return;
        }
        let (w, in_old, idx) = self.find(key).expect("the new entry was placed");
        *self.ways[w].slot_mut(in_old, idx) = None;
        self.ways[w].occupied -= 1;
        let other = self.other_way(from);
        self.place_infallible(other, in_hand);
    }

    /// Places a displaced entry without ever allocating: kicks until a
    /// slot frees up (used by migration and chunk switches).
    fn place_infallible(&mut self, way: usize, entry: E) -> usize {
        let mut way = way;
        let mut entry = entry;
        let mut kicks = 0usize;
        loop {
            let h = self.family.hash(way, entry.key());
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
    fn maybe_resize<B: WayBacking<Chunk = C>>(&mut self, backing: &mut B) -> Result<(), B::Error> {
        if self.is_resizing() {
            return Ok(());
        }
        let (up, down) = (self.policy.upsize_threshold, self.policy.downsize_threshold);
        let initial = self.policy.initial_entries_per_way;
        // `(way, kind)`; no way means all ways.
        let due = if self.policy.per_way {
            // The candidate way must not already be larger than another way
            // (upsize) or smaller than another (downsize): Section IV-D's
            // balance gate.
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
            if (self.len + 1) as f64 > up * cap {
                Some((None, ResizeKind::Upsize))
            } else if (self.len as f64) < down * cap && self.ways[0].len > initial {
                Some((None, ResizeKind::Downsize))
            } else {
                None
            }
        };
        let Some((way, kind)) = due else {
            return Ok(());
        };
        let started = match way {
            Some(w) => self.start_resize(w, kind, backing),
            None => self.start_all(kind, backing),
        };
        match kind {
            ResizeKind::Upsize => started,
            ResizeKind::Downsize => Ok(()),
        }
    }

    /// Starts a resize of every way. If one way cannot allocate, the ways
    /// already started are rolled back (freeing their new chunks in way
    /// order) and the table is as before.
    fn start_all<B: WayBacking<Chunk = C>>(
        &mut self,
        kind: ResizeKind,
        backing: &mut B,
    ) -> Result<(), B::Error> {
        for w in 0..self.ways.len() {
            if let Err(e) = self.start_resize(w, kind, backing) {
                for v in 0..w {
                    self.abandon_resize(v, backing);
                }
                return Err(e);
            }
        }
        Ok(())
    }

    /// Starts a resize of way `w`: in-place growth or shrinkage, an
    /// out-of-place copy, or a chunk-size switch.
    fn start_resize<B: WayBacking<Chunk = C>>(
        &mut self,
        w: usize,
        kind: ResizeKind,
        backing: &mut B,
    ) -> Result<(), B::Error> {
        debug_assert!(!self.ways[w].is_resizing());
        let in_place = self.policy.in_place;
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
            let Some(chunk_bytes) = backing.copy_chunk_bytes(w, storage.chunk_bytes, new_len)
            else {
                return self.chunk_switch(w, new_len, backing);
            };
            let n = chunks_for::<E>(new_len, chunk_bytes);
            let chunks = alloc_chunks(n, chunk_bytes, backing)?;
            for &c in &chunks {
                backing.register(w, c);
            }
            let way = &mut self.ways[w];
            let copy = Storage::new(new_len, chunks, chunk_bytes);
            way.old = Some(mem::replace(&mut way.storage, copy));
        } else if kind == ResizeKind::Upsize {
            let chunk_bytes = storage.chunk_bytes;
            let extra = chunks_for::<E>(new_len, chunk_bytes).saturating_sub(storage.chunks.len());
            if extra > 0 && backing.room(w) < extra {
                // The registry is full: switch chunk size (Section IV-B;
                // "by construction, out-of-place").
                return self.chunk_switch(w, new_len, backing);
            }
            let chunks = alloc_chunks(extra, chunk_bytes, backing)?;
            for &c in &chunks {
                backing.register(w, c);
            }
            // The old table becomes the lower half of the new one.
            let way = &mut self.ways[w];
            way.storage.chunks.extend(chunks);
            way.storage.slots.resize_with(new_len, || None);
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

    /// Undoes a resize of way `w` that [`CuckooEngine::start_all`] started
    /// but that has migrated nothing yet. A chunk switch completes when it
    /// starts and stays.
    fn abandon_resize<B: WayBacking<Chunk = C>>(&mut self, w: usize, backing: &mut B) {
        let Some(r) = self.ways[w].resize.take() else {
            return;
        };
        debug_assert_eq!(r.rehash_ptr, 0);
        let way = &mut self.ways[w];
        way.len = r.old_len;
        if let Some(old) = way.old.take() {
            let copy = mem::replace(&mut way.storage, old);
            release(copy, w, backing);
        } else if r.kind == ResizeKind::Upsize {
            way.storage.slots.truncate(r.old_len);
            self.drop_surplus_chunks(w, backing);
        }
    }

    /// Frees the chunks of way `w` beyond what its slots need, last first.
    fn drop_surplus_chunks<B: WayBacking<Chunk = C>>(&mut self, w: usize, backing: &mut B) {
        let storage = &mut self.ways[w].storage;
        let keep = chunks_for::<E>(storage.slots.len(), storage.chunk_bytes);
        while storage.chunks.len() > keep {
            let c = storage.chunks.pop().expect("more chunks than kept");
            backing.unregister(w, c);
            backing.free(c);
        }
    }

    /// Synchronously rehomes way `w` into chunks of the next size
    /// (Figure 3d → 3e): allocate the new chunks, free the old ones,
    /// register the new ones, rehash every entry. The paper observes at
    /// most one of these per run.
    fn chunk_switch<B: WayBacking<Chunk = C>>(
        &mut self,
        w: usize,
        new_len: usize,
        backing: &mut B,
    ) -> Result<(), B::Error> {
        let old_len = self.ways[w].len;
        let chunk_bytes = backing.switch_chunk_bytes(self.ways[w].storage.chunk_bytes, new_len);
        // Allocate the new chunks first; register them once the old ones
        // have left the registry.
        let n = chunks_for::<E>(new_len, chunk_bytes);
        let chunks = alloc_chunks(n, chunk_bytes, backing)?;
        let fresh = Storage::new(new_len, chunks, chunk_bytes);
        let mut old = mem::replace(&mut self.ways[w].storage, fresh);
        let entries: Vec<E> = mem::take(&mut old.slots).into_iter().flatten().collect();
        release(old, w, backing);
        for &c in &self.ways[w].storage.chunks {
            backing.register(w, c);
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
    fn migration_step<B: WayBacking<Chunk = C>>(&mut self, backing: &mut B) -> u32 {
        let mut migrated = 0;
        for w in 0..self.ways.len() {
            for _ in 0..self.policy.migrate_per_insert {
                if !self.ways[w].is_resizing() {
                    break;
                }
                migrated += self.migrate_one(w, backing);
            }
        }
        migrated
    }

    fn finish_all_resizes<B: WayBacking<Chunk = C>>(&mut self, backing: &mut B) {
        for w in 0..self.ways.len() {
            while self.ways[w].is_resizing() {
                self.migrate_one(w, backing);
            }
        }
    }

    /// Migrates the entry under way `w`'s rehash pointer (Section IV-C's
    /// detailed rehash algorithm). Returns 1 if an entry was processed.
    fn migrate_one<B: WayBacking<Chunk = C>>(&mut self, w: usize, backing: &mut B) -> u32 {
        let r = self.ways[w].resize.as_mut().expect("way is resizing");
        if r.rehash_ptr >= r.old_len {
            self.complete_resize(w, backing);
            return 0;
        }
        let (idx, in_place) = (r.rehash_ptr, r.in_place);
        r.rehash_ptr += 1;
        let Some(entry) = self.ways[w].slot_mut(!in_place, idx).take() else {
            return 0;
        };
        // Rehash with the same function, one more (or one fewer) bit of the
        // hash key: in place, the entry stays or moves to the same offset
        // in the other half (Figure 5).
        let h = self.family.hash(w, entry.key());
        let way = &mut self.ways[w];
        let new_idx = h as usize & (way.len - 1);
        let r = way.resize.as_mut().expect("way is resizing");
        if in_place && new_idx == idx {
            r.kept += 1;
        } else {
            r.moved += 1;
        }
        match way.storage.slots[new_idx].replace(entry) {
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
    fn complete_resize<B: WayBacking<Chunk = C>>(&mut self, w: usize, backing: &mut B) {
        let way = &mut self.ways[w];
        let r = way.resize.take().expect("resize must be active");
        if let Some(old) = way.old.take() {
            debug_assert!(old.slots.iter().all(Option::is_none));
            release(old, w, backing);
        } else if r.kind == ResizeKind::Downsize {
            debug_assert!(
                way.storage.slots[way.len..].iter().all(Option::is_none),
                "upper half must be empty after downsize migration"
            );
            way.storage.slots.truncate(way.len);
            way.storage.slots.shrink_to_fit();
            self.drop_surplus_chunks(w, backing);
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
