/// Hit/miss counters for a cache structure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Hit fraction, or 0 if never accessed.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// A set-associative cache of 64-bit keys with LRU replacement.
///
/// The building block for every cached hardware structure in the model:
/// TLB arrays, radix page-walk caches, cuckoo-walk caches, and the L2/L3
/// data caches that page-walk memory references travel through. Only
/// presence is tracked (keys, no payloads) — the simulator keeps the actual
/// data in the functional structures, and the cache decides latency.
///
/// Storage is one flat key array of `sets × ways` slots plus a resident
/// count per set: set `s` owns slots `s * ways ..`, of which the first
/// `len[s]` hold its keys in recency order (MRU first). A hit moves the key
/// to the front; a miss that inserts drops the last (LRU) key when the set
/// is full. The cache allocates only at construction.
///
/// # Examples
///
/// ```
/// use mehpt_tlb::SetAssocCache;
///
/// let mut cache = SetAssocCache::new(4, 2);
/// assert!(!cache.access(42));  // cold miss (inserts)
/// assert!(cache.access(42));   // hit
/// ```
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    /// `keys[s * ways .. s * ways + len[s]]` is set `s`, MRU first.
    keys: Box<[u64]>,
    len: Box<[usize]>,
    ways: usize,
    /// `sets - 1` when `sets` is a power of two (index by mask), else
    /// `None` (index by modulo).
    set_mask: Option<usize>,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates a cache with `sets` sets of `ways` entries.
    ///
    /// Use `sets = 1` for a fully associative structure. Set selection uses
    /// modulo indexing, so any positive set count works (Table III has
    /// structures like a 12-way 1024-entry TLB whose set count is not a
    /// power of two).
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> SetAssocCache {
        assert!(sets > 0, "cache needs at least one set");
        assert!(ways > 0, "cache needs at least one way");
        SetAssocCache {
            keys: vec![0; sets * ways].into_boxed_slice(),
            len: vec![0; sets].into_boxed_slice(),
            ways,
            set_mask: sets.is_power_of_two().then_some(sets - 1),
            stats: CacheStats::default(),
        }
    }

    /// Creates a fully associative cache of `entries` entries.
    pub fn fully_associative(entries: usize) -> SetAssocCache {
        SetAssocCache::new(1, entries)
    }

    /// Total entry capacity.
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// The set `key` maps to (`key % sets`).
    #[inline]
    fn set_of(&self, key: u64) -> usize {
        match self.set_mask {
            Some(mask) => key as usize & mask,
            None => key as usize % self.len.len(),
        }
    }

    /// Set `set`'s resident keys, MRU first.
    #[inline]
    fn set_keys(&self, set: usize) -> &[u64] {
        let base = set * self.ways;
        &self.keys[base..base + self.len[set]]
    }

    /// The set `key` maps to, and `key`'s position in it if resident.
    #[inline]
    fn find(&self, key: u64) -> (usize, Option<usize>) {
        let set = self.set_of(key);
        (set, self.set_keys(set).iter().position(|&k| k == key))
    }

    /// Moves the key at position `pos` of `set` to its MRU slot.
    #[inline]
    fn promote(&mut self, set: usize, pos: usize) {
        let base = set * self.ways;
        let key = self.keys[base + pos];
        self.keys.copy_within(base..base + pos, base + 1);
        self.keys[base] = key;
    }

    /// Inserts `key` (known absent) at `set`'s MRU slot, dropping the LRU
    /// key if the set is full.
    #[inline]
    fn insert_front(&mut self, set: usize, key: u64) {
        let base = set * self.ways;
        let kept = self.len[set].min(self.ways - 1);
        self.keys.copy_within(base..base + kept, base + 1);
        self.keys[base] = key;
        self.len[set] = kept + 1;
    }

    /// Accesses `key`: returns `true` on hit. On miss the key is inserted,
    /// evicting the set's LRU entry if needed.
    pub fn access(&mut self, key: u64) -> bool {
        match self.find(key) {
            (set, Some(pos)) => {
                self.promote(set, pos);
                self.stats.hits += 1;
                true
            }
            (set, None) => {
                self.stats.misses += 1;
                self.insert_front(set, key);
                false
            }
        }
    }

    /// Probes for `key`: updates recency and hit/miss statistics like
    /// [`SetAssocCache::access`], but does **not** insert on a miss.
    /// TLB semantics: entries enter only via [`SetAssocCache::fill`] after
    /// a successful walk.
    pub fn probe(&mut self, key: u64) -> bool {
        match self.find(key) {
            (set, Some(pos)) => {
                self.promote(set, pos);
                self.stats.hits += 1;
                true
            }
            (_, None) => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Checks for `key` without updating recency or statistics.
    pub fn contains(&self, key: u64) -> bool {
        self.find(key).1.is_some()
    }

    /// Inserts `key` without counting an access (e.g. a fill on the return
    /// path of a walk).
    pub fn fill(&mut self, key: u64) {
        match self.find(key) {
            (set, Some(pos)) => self.promote(set, pos),
            (set, None) => self.insert_front(set, key),
        }
    }

    /// Removes `key` if present (e.g. on an unmap/shootdown).
    pub fn invalidate(&mut self, key: u64) {
        if let (set, Some(pos)) = self.find(key) {
            let base = set * self.ways;
            let len = self.len[set];
            self.keys
                .copy_within(base + pos + 1..base + len, base + pos);
            self.len[set] -= 1;
        }
    }

    /// Empties the cache (e.g. on context switch).
    pub fn flush(&mut self) {
        self.len.fill(0);
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets the hit/miss counters (the contents stay).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mehpt_types::proptest_lite::{check, Gen};

    /// The original `Vec<Vec<u64>>` cache, kept as the oracle the flat
    /// layout must match operation for operation.
    struct Reference {
        sets: Vec<Vec<u64>>,
        ways: usize,
        stats: CacheStats,
    }

    impl Reference {
        fn new(sets: usize, ways: usize) -> Reference {
            Reference {
                sets: (0..sets).map(|_| Vec::with_capacity(ways)).collect(),
                ways,
                stats: CacheStats::default(),
            }
        }

        fn set(&mut self, key: u64) -> &mut Vec<u64> {
            let n = self.sets.len();
            &mut self.sets[(key as usize) % n]
        }

        fn touch(&mut self, key: u64, insert: bool) -> bool {
            let ways = self.ways;
            let set = self.set(key);
            if let Some(pos) = set.iter().position(|&k| k == key) {
                let k = set.remove(pos);
                set.insert(0, k);
                return true;
            }
            if insert {
                if set.len() == ways {
                    set.pop();
                }
                set.insert(0, key);
            }
            false
        }

        fn access(&mut self, key: u64) -> bool {
            let hit = self.touch(key, true);
            self.count(hit);
            hit
        }

        fn probe(&mut self, key: u64) -> bool {
            let hit = self.touch(key, false);
            self.count(hit);
            hit
        }

        fn count(&mut self, hit: bool) {
            if hit {
                self.stats.hits += 1;
            } else {
                self.stats.misses += 1;
            }
        }

        fn contains(&self, key: u64) -> bool {
            self.sets[(key as usize) % self.sets.len()].contains(&key)
        }
    }

    #[test]
    fn flat_layout_matches_the_reference_cache() {
        // Power-of-two, non-power-of-two (3, and the L2 TLB's 85) and
        // fully associative geometries.
        const GEOMETRIES: [(usize, usize); 6] =
            [(4, 2), (16, 4), (3, 2), (85, 12), (1, 16), (1, 1)];
        check(
            "flat_layout_matches_the_reference_cache",
            96,
            |g: &mut Gen| {
                let (sets, ways) = GEOMETRIES[g.index(GEOMETRIES.len())];
                let mut flat = SetAssocCache::new(sets, ways);
                let mut oracle = Reference::new(sets, ways);
                // A key space a few times the capacity, so sets fill, evict and
                // hit; a few huge keys exercise the full-width modulo.
                let span = (sets * ways * 3) as u64;
                let key = |g: &mut Gen| {
                    if g.below(16) == 0 {
                        u64::MAX - g.below(span)
                    } else {
                        g.below(span)
                    }
                };
                for _ in 0..g.len(600) {
                    let k = key(g);
                    match g.weighted(&[4, 4, 3, 1, 1]) {
                        0 => assert_eq!(flat.access(k), oracle.access(k), "access {k}"),
                        1 => assert_eq!(flat.probe(k), oracle.probe(k), "probe {k}"),
                        2 => {
                            flat.fill(k);
                            oracle.touch(k, true);
                        }
                        3 => {
                            flat.invalidate(k);
                            oracle.set(k).retain(|&x| x != k);
                        }
                        _ => {
                            if g.below(8) == 0 {
                                flat.flush();
                                oracle.sets.iter_mut().for_each(Vec::clear);
                            }
                        }
                    }
                    assert_eq!(flat.stats(), oracle.stats);
                    assert_eq!(flat.contains(k), oracle.contains(k), "key {k}");
                    for (set, keys) in oracle.sets.iter().enumerate() {
                        assert_eq!(flat.set_keys(set), &keys[..], "recency order of set {set}");
                    }
                }
            },
        );
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = SetAssocCache::new(1, 4);
        assert!(!c.access(1));
        assert!(c.access(1));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = SetAssocCache::new(1, 2);
        c.access(1);
        c.access(2);
        c.access(1); // 1 becomes MRU; 2 is LRU
        c.access(3); // evicts 2
        assert!(c.contains(1));
        assert!(!c.contains(2));
        assert!(c.contains(3));
    }

    #[test]
    fn sets_are_independent() {
        let mut c = SetAssocCache::new(2, 1);
        c.access(0); // set 0
        c.access(1); // set 1
        assert!(c.contains(0));
        assert!(c.contains(1));
        c.access(2); // set 0, evicts 0
        assert!(!c.contains(0));
        assert!(c.contains(1));
    }

    #[test]
    fn fill_does_not_count_access() {
        let mut c = SetAssocCache::new(1, 2);
        c.fill(9);
        assert_eq!(c.stats(), CacheStats::default());
        assert!(c.access(9));
    }

    #[test]
    fn invalidate_and_flush() {
        let mut c = SetAssocCache::new(2, 2);
        c.access(4);
        c.access(5);
        c.invalidate(4);
        assert!(!c.contains(4));
        assert!(c.contains(5));
        c.flush();
        assert!(!c.contains(5));
    }

    #[test]
    fn hit_rate() {
        let mut c = SetAssocCache::new(1, 8);
        c.access(1);
        c.access(1);
        c.access(1);
        c.access(2);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn capacity_reported() {
        assert_eq!(SetAssocCache::new(16, 4).capacity(), 64);
        assert_eq!(SetAssocCache::fully_associative(32).capacity(), 32);
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn zero_set_count_panics() {
        SetAssocCache::new(0, 1);
    }

    #[test]
    fn probe_does_not_insert() {
        let mut c = SetAssocCache::new(1, 4);
        assert!(!c.probe(5));
        assert!(!c.probe(5), "probe must not install the key");
        assert_eq!(c.stats().misses, 2);
        c.fill(5);
        assert!(c.probe(5));
    }

    #[test]
    fn non_power_of_two_sets_work() {
        let mut c = SetAssocCache::new(3, 1);
        c.access(0);
        c.access(1);
        c.access(2);
        assert!(c.contains(0) && c.contains(1) && c.contains(2));
        c.access(3); // maps to set 0, evicts key 0
        assert!(!c.contains(0));
    }
}
