use std::any::Any;
use std::ops::{Deref, DerefMut};

use mehpt_ecpt::{Hpt, MeHptConfig};
use mehpt_mem::{AllocError, PhysMem};
use mehpt_types::PageSize;

use crate::l2p::{L2pChunks, L2pTable};

/// ME-HPT's seeds: each page size gets its own hash family and way-choice
/// stream.
fn mehpt_seeds(seed: u64, ps: PageSize) -> (u64, u64) {
    let ps = ps.index() as u64;
    (seed ^ ps, seed ^ 0xfeed_f00d ^ ps << 32)
}

/// A process's complete ME-HPT: the [`Hpt`] engine with its ways in
/// chunks registered in one shared [`L2pTable`], plus the Cuckoo Walk
/// Tables.
///
/// This is the paper's full design. Compared to the ECPT baseline
/// ([`mehpt_ecpt::Ecpt`]) it:
///
/// * never allocates more contiguous memory than one chunk (8KB or 1MB for
///   all of the paper's workloads — Figure 8);
/// * uses `max(old, new)` memory during resizes instead of `old + new`
///   (in-place resizing — Figure 10);
/// * grows one way at a time (per-way resizing — Figures 11/12);
/// * keeps lookups at W parallel probes, with the L2P access hidden behind
///   the CWC probe (Section V-D), so the same
///   [`EcptWalker`](mehpt_ecpt::EcptWalker) hardware model is used.
///
/// Tables are created lazily per page size, so an unused page size holds
/// no L2P entries — which is what lets a 4KB subtable steal the whole 1GB
/// region and reach 64 entries (Section V-A; GUPS's 192 entries in
/// Figure 14).
///
/// # Examples
///
/// ```
/// use mehpt_core::MeHpt;
/// use mehpt_mem::PhysMem;
/// use mehpt_types::{PageSize, Ppn, VirtAddr, MIB};
///
/// let mut mem = PhysMem::new(64 * MIB);
/// let mut hpt = MeHpt::new(&mut mem)?;
/// let va = VirtAddr::new(0x7000_3000);
/// hpt.map(va.vpn(PageSize::Base4K), PageSize::Base4K, Ppn(11), &mut mem)?;
/// assert_eq!(hpt.translate(va), Some((Ppn(11), PageSize::Base4K)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct MeHpt(Hpt);

impl MeHpt {
    /// Creates the full design with the paper's default configuration.
    ///
    /// # Errors
    ///
    /// Never fails today (tables are allocated on first use); kept
    /// fallible like the other designs.
    pub fn new(mem: &mut PhysMem) -> Result<MeHpt, AllocError> {
        MeHpt::with_config(MeHptConfig::default(), mem)
    }

    /// Creates the design from an explicit configuration (ablation modes,
    /// custom chunk ladders, etc.).
    ///
    /// # Errors
    ///
    /// Never fails today; see [`MeHpt::new`].
    pub fn with_config(cfg: MeHptConfig, mem: &mut PhysMem) -> Result<MeHpt, AllocError> {
        let _ = mem;
        let memory = L2pChunks {
            l2p: L2pTable::new(cfg.ways, cfg.l2p_entries_per_subtable),
            policy: cfg.chunk_policy.clone(),
        };
        Ok(MeHpt(Hpt::new(cfg, Box::new(memory), mehpt_seeds)))
    }

    /// The L2P table (for inspection: entry usage, Figure 14).
    pub fn l2p(&self) -> &L2pTable {
        let memory: &dyn Any = self.0.memory();
        let chunks: &L2pChunks = memory
            .downcast_ref()
            .expect("ME-HPT ways live in L2P-registered chunks");
        &chunks.l2p
    }

    /// The largest chunk any table ever allocated — ME-HPT's contiguity
    /// requirement (Figure 8's metric).
    pub fn max_chunk_bytes(&self) -> u64 {
        mehpt_types::PAGE_SIZES
            .iter()
            .filter_map(|&ps| self.table(ps))
            .map(|t| t.stats().max_chunk_bytes)
            .max()
            .unwrap_or(0)
    }

    /// L2P entries currently in use (Figure 14's metric).
    pub fn l2p_entries_used(&self) -> usize {
        self.l2p().used_entries()
    }

    /// Releases all physical memory.
    pub fn destroy(self, mem: &mut PhysMem) {
        self.0.destroy(mem);
    }
}

impl Deref for MeHpt {
    type Target = Hpt;

    fn deref(&self) -> &Hpt {
        &self.0
    }
}

impl DerefMut for MeHpt {
    fn deref_mut(&mut self) -> &mut Hpt {
        &mut self.0
    }
}

impl From<MeHpt> for Hpt {
    fn from(hpt: MeHpt) -> Hpt {
        hpt.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mehpt_ecpt::{HptTable, HptView};
    use mehpt_hash::ResizeKind;
    use mehpt_mem::{AllocCostModel, AllocTag};
    use mehpt_types::{Ppn, Vpn, GIB, KIB};

    const PS: PageSize = PageSize::Base4K;

    fn setup() -> (PhysMem, MeHpt) {
        let mut mem = PhysMem::with_cost_model(4 * GIB, AllocCostModel::zero_cost());
        let hpt = MeHpt::new(&mut mem).unwrap();
        (mem, hpt)
    }

    fn table(hpt: &MeHpt) -> &HptTable {
        hpt.table(PS).unwrap()
    }

    fn lookup(hpt: &MeHpt, vpn: Vpn) -> Option<Ppn> {
        table(hpt).lookup(vpn)
    }

    #[test]
    fn starts_with_one_8kb_chunk_per_way() {
        let (mut mem, mut hpt) = setup();
        hpt.map(Vpn(0), PS, Ppn(0), &mut mem).unwrap();
        assert_eq!(table(&hpt).way_sizes(), vec![8 * KIB, 8 * KIB, 8 * KIB]);
        assert_eq!(
            table(&hpt).way_chunk_bytes(),
            vec![8 * KIB, 8 * KIB, 8 * KIB]
        );
        assert_eq!(hpt.l2p_entries_used(), 3);
    }

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let (mut mem, mut hpt) = setup();
        for i in 0..20_000u64 {
            hpt.map(Vpn(i * 5), PS, Ppn(i), &mut mem).unwrap();
        }
        for i in 0..20_000u64 {
            assert_eq!(lookup(&hpt, Vpn(i * 5)), Some(Ppn(i)), "lookup {i}");
        }
        for i in 0..20_000u64 {
            assert_eq!(hpt.unmap(Vpn(i * 5), PS, &mut mem), Some(Ppn(i)));
        }
        assert_eq!(hpt.pages(), 0);
    }

    #[test]
    fn per_way_keeps_ways_within_double() {
        let (mut mem, mut hpt) = setup();
        for i in 0..100_000u64 {
            hpt.map(Vpn(i * 8), PS, Ppn(i), &mut mem).unwrap();
            if i % 4096 == 0 {
                let sizes = table(&hpt).way_sizes();
                let min = *sizes.iter().min().unwrap();
                let max = *sizes.iter().max().unwrap();
                assert!(max <= 2 * min, "imbalance {sizes:?} at {i}");
            }
        }
        // Per-way resizing produces ways of different sizes at least some
        // of the time (Figure 12's point).
        assert!(table(&hpt).stats().resizes.len() > 5);
    }

    #[test]
    fn lookups_stay_correct_through_all_resize_machinery() {
        let (mut mem, mut hpt) = setup();
        for i in 0..150_000u64 {
            hpt.map(Vpn(i), PS, Ppn(i + 3), &mut mem).unwrap();
            if i % 11 == 0 {
                let probe = i / 2;
                assert_eq!(lookup(&hpt, Vpn(probe)), Some(Ppn(probe + 3)), "at {i}");
            }
        }
    }

    #[test]
    fn downsizes_free_chunks_and_l2p_entries() {
        let (mut mem, mut hpt) = setup();
        for i in 0..30_000u64 {
            hpt.map(Vpn(i * 8), PS, Ppn(i), &mut mem).unwrap();
        }
        let grown_bytes = table(&hpt).memory_bytes();
        let grown_capacity = table(&hpt).capacity();
        let grown_l2p = hpt.l2p_entries_used();
        for i in 0..30_000u64 {
            hpt.unmap(Vpn(i * 8), PS, &mut mem);
        }
        // Churn to drive the gradual downsizes to completion.
        for i in 0..60_000u64 {
            hpt.map(Vpn(1_000_000 + (i % 64)), PS, Ppn(i), &mut mem)
                .unwrap();
            hpt.unmap(Vpn(1_000_000 + (i % 64)), PS, &mut mem);
        }
        // Logical capacity shrinks hard; physical memory shrinks down to
        // the chunk-granularity floor (one chunk per way).
        let t = table(&hpt);
        assert!(
            t.capacity() < grown_capacity / 2,
            "capacity {} did not shrink from {grown_capacity}",
            t.capacity()
        );
        assert!(t.memory_bytes() <= grown_bytes);
        assert!(hpt.l2p_entries_used() <= grown_l2p);
        let downs = t
            .stats()
            .resizes
            .iter()
            .filter(|e| e.kind == ResizeKind::Downsize)
            .count();
        assert!(downs > 0, "no downsizes happened");
    }

    #[test]
    fn ablation_out_of_place_uses_more_memory() {
        let run = |in_place: bool| {
            let mut mem = PhysMem::with_cost_model(4 * GIB, AllocCostModel::zero_cost());
            // All-way sizing isolates the in-place effect: with per-way
            // resizing only one way resizes at a time, muting the contrast.
            let cfg = MeHptConfig {
                in_place,
                per_way: false,
                ..MeHptConfig::default()
            };
            let mut hpt = MeHpt::with_config(cfg, &mut mem).unwrap();
            for i in 0..100_000u64 {
                hpt.map(Vpn(i * 8), PS, Ppn(i), &mut mem).unwrap();
            }
            table(&hpt).stats().peak_bytes
        };
        let inplace = run(true);
        let oop = run(false);
        assert!(
            (inplace as f64) < 0.8 * oop as f64,
            "in-place peak {inplace} not clearly below out-of-place {oop}"
        );
    }

    #[test]
    fn destroy_returns_everything() {
        let mut mem = PhysMem::with_cost_model(4 * GIB, AllocCostModel::zero_cost());
        let before = mem.stats().tag(AllocTag::PageTable).current_bytes;
        let cfg = MeHptConfig::default();
        let mut memory = L2pChunks {
            l2p: L2pTable::paper_default(),
            policy: cfg.chunk_policy.clone(),
        };
        let mut t = HptTable::new(PS, &cfg, (1, 2), &mut memory, &mut mem).unwrap();
        for i in 0..50_000u64 {
            t.insert(Vpn(i * 8), Ppn(i), &mut mem, &mut memory).unwrap();
        }
        t.destroy(&mut mem, &mut memory);
        assert_eq!(mem.stats().tag(AllocTag::PageTable).current_bytes, before);
        assert_eq!(memory.l2p.used_entries(), 0);
    }

    #[test]
    fn probe_addrs_land_inside_owned_chunks() {
        let (mut mem, mut hpt) = setup();
        for i in 0..50_000u64 {
            hpt.map(Vpn(i * 8), PS, Ppn(i), &mut mem).unwrap();
            if i % 977 == 0 {
                for addr in hpt.probe_addrs(PS, Vpn(i * 8)) {
                    // Each probe address must fall in some live page-table
                    // chunk (we only check it is within the memory the
                    // allocator handed out).
                    assert!(addr.0 < mem.total_bytes());
                }
            }
        }
    }

    #[test]
    fn update_existing_translation() {
        let (mut mem, mut hpt) = setup();
        hpt.map(Vpn(9), PS, Ppn(1), &mut mem).unwrap();
        hpt.map(Vpn(9), PS, Ppn(2), &mut mem).unwrap();
        assert_eq!(hpt.pages(), 1);
        assert_eq!(lookup(&hpt, Vpn(9)), Some(Ppn(2)));
    }
}
