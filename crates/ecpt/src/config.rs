use mehpt_types::{ByteSize, KIB, MIB};

use crate::entry::ClusterEntry;

/// Configuration of the elastic cuckoo page-table engine, one per process.
///
/// The defaults are the full ME-HPT design of the paper (Table III plus all
/// four techniques). ECPT is the same engine with `in_place` and `per_way`
/// off and one contiguous chunk per way ([`Ecpt::new`](crate::Ecpt::new)).
/// The two switches also serve the ablation experiments of Figure 10:
/// turning one off reverts that dimension to the ECPT baseline behaviour
/// while keeping chunked storage.
#[derive(Clone, Debug, PartialEq)]
pub struct MeHptConfig {
    /// Number of cuckoo ways.
    pub ways: usize,
    /// Initial (and minimum) entries per way; a power of two
    /// (128 × 64B = the paper's 8KB starting way).
    pub initial_entries_per_way: usize,
    /// Occupancy fraction that triggers an upsize.
    pub upsize_threshold: f64,
    /// Occupancy fraction that triggers a downsize.
    pub downsize_threshold: f64,
    /// Entries migrated from each resizing way per insert.
    pub migrate_per_insert: usize,
    /// Cuckoo kicks before an insert forces an upsize.
    pub max_kicks: usize,
    /// In-place resizing (Section IV-C). Off = out-of-place (baseline).
    pub in_place: bool,
    /// Per-way resizing with weighted insertion (Section IV-D). Off =
    /// all-way resizing (baseline).
    pub per_way: bool,
    /// The chunk-size ladder of L2P-backed ways (Section IV-B).
    pub chunk_policy: ChunkSizePolicy,
    /// L2P entries per (way, page size) subtable (32 in the paper).
    pub l2p_entries_per_subtable: usize,
    /// Seed for hash functions and way choice.
    pub seed: u64,
}

impl Default for MeHptConfig {
    fn default() -> MeHptConfig {
        MeHptConfig {
            ways: 3,
            initial_entries_per_way: 128,
            upsize_threshold: 0.6,
            downsize_threshold: 0.2,
            migrate_per_insert: 2,
            max_kicks: 128,
            in_place: true,
            per_way: true,
            chunk_policy: ChunkSizePolicy::paper_default(),
            l2p_entries_per_subtable: 32,
            seed: 0x3e_87,
        }
    }
}

/// The ladder of chunk sizes a way climbs as it grows (Section IV-B, V-B).
///
/// The paper chooses 8KB, 1MB, 8MB and 64MB — "although, for our
/// applications, we only need 8KB and 1MB chunks". A way starts at the
/// smallest size; when its L2P subtable runs out of entries, it switches to
/// the next size (the only out-of-place resize in ME-HPT).
///
/// # Examples
///
/// ```
/// use mehpt_ecpt::ChunkSizePolicy;
///
/// let policy = ChunkSizePolicy::paper_default();
/// assert_eq!(policy.first(), 8 * 1024);
/// assert_eq!(policy.next(8 * 1024), Some(1024 * 1024));
/// assert_eq!(policy.next(64 * 1024 * 1024), None);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkSizePolicy {
    sizes: Vec<u64>,
}

impl ChunkSizePolicy {
    /// The paper's ladder: 8KB → 1MB → 8MB → 64MB.
    pub fn paper_default() -> ChunkSizePolicy {
        ChunkSizePolicy::new(vec![8 * KIB, MIB, 8 * MIB, 64 * MIB])
    }

    /// A single-size policy (e.g. 1MB only, the `ME-HPT 1MB` variant of
    /// Figure 15).
    pub fn fixed(bytes: u64) -> ChunkSizePolicy {
        ChunkSizePolicy::new(vec![bytes])
    }

    /// Creates a policy from an ascending list of power-of-two sizes.
    ///
    /// # Panics
    ///
    /// Panics if the list is empty, unsorted, or contains a size that is
    /// not a power of two of at least 8KB.
    pub fn new(sizes: Vec<u64>) -> ChunkSizePolicy {
        assert!(!sizes.is_empty(), "need at least one chunk size");
        for w in sizes.windows(2) {
            assert!(w[0] < w[1], "chunk sizes must be strictly ascending");
        }
        for &s in &sizes {
            assert!(
                s.is_power_of_two() && s >= 8 * KIB,
                "chunk size must be a power of two of at least 8KB, got {}",
                ByteSize(s)
            );
        }
        ChunkSizePolicy { sizes }
    }

    /// The smallest chunk size — every way starts here.
    pub fn first(&self) -> u64 {
        self.sizes[0]
    }

    /// The next larger size after `current`, or `None` at the top.
    pub fn next(&self, current: u64) -> Option<u64> {
        self.sizes.iter().copied().find(|&s| s > current)
    }

    /// All sizes, ascending.
    pub fn sizes(&self) -> &[u64] {
        &self.sizes
    }

    /// Cluster entries that fit one chunk of `bytes`.
    pub fn entries_per_chunk(bytes: u64) -> usize {
        (bytes / ClusterEntry::BYTES) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ladder() {
        let p = ChunkSizePolicy::paper_default();
        assert_eq!(p.sizes(), &[8 * KIB, MIB, 8 * MIB, 64 * MIB]);
        assert_eq!(p.next(MIB), Some(8 * MIB));
    }

    #[test]
    fn entries_per_chunk_matches_figure_3() {
        // An 8KB chunk holds 128 cache-line entries; 64 of them form a
        // 512KB way (Table II row 1).
        assert_eq!(ChunkSizePolicy::entries_per_chunk(8 * KIB), 128);
        assert_eq!(64 * 8 * KIB, 512 * KIB);
        assert_eq!(ChunkSizePolicy::entries_per_chunk(MIB), 16384);
    }

    #[test]
    fn fixed_policy_has_no_next() {
        let p = ChunkSizePolicy::fixed(MIB);
        assert_eq!(p.first(), MIB);
        assert_eq!(p.next(MIB), None);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_rejected() {
        ChunkSizePolicy::new(vec![MIB, 8 * KIB]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        ChunkSizePolicy::new(vec![12 * KIB]);
    }
}
