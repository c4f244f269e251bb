use std::convert::Infallible;
use std::hash::Hash;
use std::mem;

use crate::engine::{CuckooEngine, Entry, Policy, WayBacking};
use crate::stats::TableStats;
use crate::{Config, ResizeMode, WaySizing};

/// The generic table's way memory: ECPT's one-chunk-per-way layout on the
/// heap. A chunk is its size in bytes, counted as slots × the slot size;
/// allocation never fails.
struct Heap {
    slot_bytes: u64,
}

impl WayBacking for Heap {
    type Chunk = u64;
    type Error = Infallible;

    fn chunk_bytes(chunk: &u64) -> u64 {
        *chunk
    }

    fn first_chunk_bytes(&self, entries: usize) -> u64 {
        entries as u64 * self.slot_bytes
    }

    fn copy_chunk_bytes(&self, _: usize, _: u64, entries: usize) -> Option<u64> {
        Some(self.first_chunk_bytes(entries))
    }

    fn switch_chunk_bytes(&self, _: u64, entries: usize) -> u64 {
        self.first_chunk_bytes(entries)
    }

    fn alloc(&mut self, bytes: u64) -> Result<u64, Infallible> {
        Ok(bytes)
    }

    fn free(&mut self, _: u64) {}
}

impl Config {
    /// The engine policy and `(hash, way-choice)` seeds of this
    /// configuration.
    fn engine_policy(&self) -> (Policy, (u64, u64)) {
        let policy = Policy {
            ways: self.ways,
            initial_entries_per_way: self.initial_entries_per_way,
            upsize_threshold: self.upsize_threshold,
            downsize_threshold: self.downsize_threshold,
            migrate_per_insert: self.migrate_per_insert,
            max_kicks: self.max_kicks,
            in_place: self.resize_mode == ResizeMode::InPlace,
            per_way: self.sizing == WaySizing::PerWay,
        };
        (policy, (self.seed, self.seed ^ 0xc0ff_ee00))
    }
}

/// A W-way elastic cuckoo hash table.
///
/// This is Elastic Cuckoo Hashing (the substrate of ECPT, Section II-B)
/// extended with the paper's two memory-reduction techniques in their
/// generic form:
///
/// * **in-place resizing** ([`ResizeMode::InPlace`], Section IV-C) — the new
///   table shares the old table's memory; upsizing indexes with one extra
///   hash-key bit, so ≈50% of migrated entries do not move at all;
/// * **per-way resizing** ([`WaySizing::PerWay`], Section IV-D) — one way
///   resizes at a time, with weighted-random insertion proportional to
///   per-way free slots and a balance gate that keeps every way within 2× of
///   every other.
///
/// Resizing is *gradual*: each insert (or remove) migrates a bounded number
/// of entries, so no operation ever stops the world. Lookups always probe
/// exactly W locations.
///
/// The table is the page tables' [`CuckooEngine`] storing `(K, V)` pairs in
/// heap memory, ECPT's one-chunk-per-way layout that never fails to grow.
///
/// # Examples
///
/// ```
/// use mehpt_hash::{Config, ElasticCuckooTable};
///
/// let mut table: ElasticCuckooTable<u64, &str> =
///     ElasticCuckooTable::new(Config::mehpt());
/// table.insert(1, "one");
/// assert_eq!(table.remove(&1), Some("one"));
/// assert!(table.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct ElasticCuckooTable<K, V> {
    engine: CuckooEngine<(K, V), u64>,
}

impl<K: Hash + Eq, V> ElasticCuckooTable<K, V> {
    /// Creates an empty table from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use [`Config::validate`] to
    /// check fallibly first.
    pub fn new(cfg: Config) -> ElasticCuckooTable<K, V> {
        if let Err(e) = cfg.validate() {
            panic!("invalid ElasticCuckooTable config: {e}");
        }
        let (policy, seeds) = cfg.engine_policy();
        let Ok(engine) = CuckooEngine::new(policy, seeds, &mut Self::heap());
        ElasticCuckooTable { engine }
    }

    fn heap() -> Heap {
        Heap {
            slot_bytes: <(K, V)>::SLOT_BYTES,
        }
    }

    /// The number of live entries.
    pub fn len(&self) -> usize {
        self.engine.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.engine.is_empty()
    }

    /// Total logical capacity in entries across ways.
    pub fn capacity(&self) -> usize {
        self.engine.capacity()
    }

    /// The logical capacity of each way, in entries.
    pub fn way_capacities(&self) -> Vec<usize> {
        self.engine.way_capacities()
    }

    /// The number of live entries in each way.
    pub fn way_occupancies(&self) -> Vec<usize> {
        self.engine.way_occupancies()
    }

    /// Current occupancy as a fraction of capacity.
    pub fn load_factor(&self) -> f64 {
        self.len() as f64 / self.capacity() as f64
    }

    /// Whether any way has a resize in flight.
    pub fn is_resizing(&self) -> bool {
        self.engine.is_resizing()
    }

    /// Collected statistics (resize events, kick histogram, memory marks).
    pub fn stats(&self) -> &TableStats {
        self.engine.stats()
    }

    /// Bytes currently occupied by the table arrays.
    pub fn memory_bytes(&self) -> u64 {
        self.engine.memory_bytes()
    }

    /// Looks up `key`, probing each way once.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.engine.get(key).map(|(_, v)| v)
    }

    /// Looks up `key` and returns a mutable reference to its value.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.engine.get_mut(key).map(|(_, v)| v)
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Inserts `key → value`; returns the previous value if the key was
    /// already present.
    ///
    /// An insert may trigger a gradual resize (per the 0.6/0.2 occupancy
    /// thresholds) and performs a bounded amount of migration work on
    /// behalf of any in-flight resize, exactly like the OS piggybacking
    /// rehashes on page-table inserts in the paper.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if let Some(v) = self.get_mut(&key) {
            return Some(mem::replace(v, value));
        }
        self.engine
            .insert_infallible((key, value), &mut Self::heap());
        None
    }

    /// Removes `key`, returning its value.
    ///
    /// Removes also advance in-flight migrations and may trigger a
    /// downsize.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (_, v) = self
            .engine
            .remove_with(key, &mut Self::heap(), Option::take)?;
        Some(v)
    }

    /// Iterates over all live entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.engine.iter().map(|(k, v)| (k, v))
    }

    /// Checks the engine's structural invariants; test helper.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        self.engine.check_invariants::<Heap>(|_| None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn configs() -> Vec<(&'static str, Config)> {
        vec![
            ("oop-allway", Config::ecpt_baseline()),
            (
                "inplace-allway",
                Config {
                    resize_mode: ResizeMode::InPlace,
                    ..Config::default()
                },
            ),
            (
                "oop-perway",
                Config {
                    sizing: WaySizing::PerWay,
                    ..Config::default()
                },
            ),
            ("inplace-perway", Config::mehpt()),
        ]
    }

    #[test]
    fn insert_get_remove_roundtrip_all_configs() {
        for (name, cfg) in configs() {
            let mut t = ElasticCuckooTable::new(cfg);
            for i in 0..5_000u64 {
                assert_eq!(t.insert(i, i + 1), None, "{name}: fresh insert");
            }
            t.check_invariants();
            for i in 0..5_000u64 {
                assert_eq!(t.get(&i), Some(&(i + 1)), "{name}: get({i})");
            }
            assert_eq!(t.get(&9999), None);
            for i in 0..5_000u64 {
                assert_eq!(t.remove(&i), Some(i + 1), "{name}: remove({i})");
            }
            assert!(t.is_empty(), "{name}");
            t.check_invariants();
        }
    }

    #[test]
    fn insert_replaces_existing_value() {
        let mut t = ElasticCuckooTable::new(Config::default());
        assert_eq!(t.insert(7u64, "a"), None);
        assert_eq!(t.insert(7, "b"), Some("a"));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&7), Some(&"b"));
    }

    #[test]
    fn occupancy_never_exceeds_upsize_threshold_for_long() {
        for (name, cfg) in configs() {
            let mut t = ElasticCuckooTable::new(cfg);
            for i in 0..20_000u64 {
                t.insert(i, ());
                // Slack above the trigger: resizing is gradual, so the load
                // can transiently exceed 0.6, but never by much.
                assert!(
                    t.load_factor() < 0.75,
                    "{name}: load factor {} at i={i}",
                    t.load_factor()
                );
            }
        }
    }

    #[test]
    fn upsizes_happen_and_grow_capacity() {
        let mut t = ElasticCuckooTable::new(Config::ecpt_baseline());
        let initial_cap = t.capacity();
        for i in 0..10_000u64 {
            t.insert(i, ());
        }
        assert!(t.capacity() > initial_cap * 8);
        assert!(!t.stats().resizes.is_empty());
    }

    #[test]
    fn downsizes_shrink_capacity() {
        let mut t = ElasticCuckooTable::new(Config::mehpt());
        for i in 0..10_000u64 {
            t.insert(i, ());
        }
        let grown = t.capacity();
        for i in 0..10_000u64 {
            t.remove(&i);
        }
        // Removes trigger gradual downsizes; push them along.
        for i in 0..12_000u64 {
            t.insert(100_000 + i, ());
            t.remove(&(100_000 + i));
        }
        assert!(
            t.capacity() < grown / 2,
            "capacity {} did not shrink from {grown}",
            t.capacity()
        );
        t.check_invariants();
    }

    #[test]
    fn inplace_upsize_keeps_roughly_half_in_place() {
        // Figure 13: the fraction of entries moved per in-place upsize ≈ 0.5.
        let mut t = ElasticCuckooTable::new(Config {
            resize_mode: ResizeMode::InPlace,
            ..Config::default()
        });
        for i in 0..200_000u64 {
            t.insert(i, ());
        }
        let f = t.stats().mean_upsize_moved_fraction();
        assert!((0.4..0.6).contains(&f), "moved fraction {f}");
    }

    #[test]
    fn out_of_place_upsize_moves_everything() {
        let mut t = ElasticCuckooTable::new(Config::ecpt_baseline());
        for i in 0..50_000u64 {
            t.insert(i, ());
        }
        let f = t.stats().mean_upsize_moved_fraction();
        assert_eq!(f, 1.0, "out-of-place migration always moves entries");
    }

    #[test]
    fn inplace_peak_memory_below_out_of_place() {
        // Section IV-C: out-of-place resizing holds old + new (1.5× the new
        // table); in-place holds max(old, new).
        let run = |mode| {
            let mut t = ElasticCuckooTable::new(Config {
                resize_mode: mode,
                ..Config::default()
            });
            for i in 0..100_000u64 {
                t.insert(i, ());
            }
            t.stats().peak_bytes
        };
        let oop = run(ResizeMode::OutOfPlace);
        let inp = run(ResizeMode::InPlace);
        assert!(
            (inp as f64) < 0.8 * oop as f64,
            "in-place peak {inp} not clearly below out-of-place peak {oop}"
        );
    }

    #[test]
    fn per_way_resizing_keeps_ways_within_double() {
        let mut t = ElasticCuckooTable::new(Config::mehpt());
        for i in 0..300_000u64 {
            t.insert(i, ());
            if i % 8192 == 0 {
                let caps = t.way_capacities();
                let min = *caps.iter().min().unwrap();
                let max = *caps.iter().max().unwrap();
                assert!(max <= 2 * min, "way imbalance beyond 2x: {caps:?} at i={i}");
            }
        }
    }

    #[test]
    fn per_way_resizes_one_way_at_a_time() {
        let mut t = ElasticCuckooTable::new(Config::mehpt());
        for i in 0..100_000u64 {
            t.insert(i, ());
            let resizing = t.engine.resizing_ways();
            assert!(resizing <= 1, "{resizing} ways resizing at once");
        }
    }

    #[test]
    fn all_way_resizes_all_ways_together() {
        let mut t: ElasticCuckooTable<u64, ()> = ElasticCuckooTable::new(Config::ecpt_baseline());
        let mut saw_full_resize = false;
        for i in 0..10_000u64 {
            t.insert(i, ());
            let resizing = t.engine.resizing_ways();
            if resizing > 0 {
                assert_eq!(
                    resizing,
                    t.way_capacities().len(),
                    "all ways must resize together"
                );
                saw_full_resize = true;
            }
        }
        assert!(saw_full_resize);
    }

    #[test]
    fn kick_histogram_mostly_zero_at_paper_occupancy() {
        // Figure 16: P(no re-insertion) ≈ 0.64 at ECPT's occupancy bounds.
        let mut t = ElasticCuckooTable::new(Config::mehpt());
        for i in 0..100_000u64 {
            t.insert(i, ());
        }
        let hist = &t.stats().kicks_histogram;
        let total: u64 = hist.iter().sum();
        let zero_frac = hist[0] as f64 / total as f64;
        assert!(zero_frac > 0.5, "P(0 kicks) = {zero_frac}");
        let mean = t.stats().mean_kicks();
        assert!(mean < 1.5, "mean kicks {mean}");
    }

    #[test]
    fn lookups_correct_during_resizes() {
        // Interleave inserts and lookups so many lookups hit mid-resize.
        for (name, cfg) in configs() {
            let mut t = ElasticCuckooTable::new(cfg);
            for i in 0..30_000u64 {
                t.insert(i, i);
                if i % 7 == 0 {
                    let probe = i / 2;
                    assert_eq!(t.get(&probe), Some(&probe), "{name} at i={i}");
                }
            }
        }
    }

    #[test]
    fn iter_visits_every_entry_once() {
        let mut t = ElasticCuckooTable::new(Config::mehpt());
        for i in 0..10_000u64 {
            t.insert(i, ());
        }
        let mut keys: Vec<u64> = t.iter().map(|(k, _)| *k).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 10_000);
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut t = ElasticCuckooTable::new(Config::default());
        t.insert(1u64, 10);
        *t.get_mut(&1).unwrap() += 5;
        assert_eq!(t.get(&1), Some(&15));
        assert_eq!(t.get_mut(&2), None);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut t = ElasticCuckooTable::new(Config::mehpt());
            for i in 0..50_000u64 {
                t.insert(i, ());
            }
            (
                t.way_capacities(),
                t.stats().resizes.len(),
                t.stats().kicks_histogram.clone(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "invalid ElasticCuckooTable config")]
    fn invalid_config_panics() {
        let _ = ElasticCuckooTable::<u64, ()>::new(Config {
            ways: 1,
            ..Config::default()
        });
    }
}
