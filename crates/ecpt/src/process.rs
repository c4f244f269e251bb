use std::ops::{Deref, DerefMut};

use mehpt_hash::InsertReport;
use mehpt_mem::{AllocError, PhysMem};
use mehpt_types::{PageSize, PhysAddr, Ppn, VirtAddr, Vpn, PAGE_SIZES};

use crate::config::MeHptConfig;
use crate::cwt::CwtSet;
use crate::engine::{Contiguous, HptTable, WayMemory};
use crate::view::HptView;

/// Bitmask bit for a page size (bit 0 = 4KB, bit 1 = 2MB, bit 2 = 1GB).
pub(crate) fn size_bit(ps: PageSize) -> u8 {
    1 << ps.index()
}

/// Derives a per-size table's `(hash seed, way-choice seed)` from the
/// process seed offset for that page size.
pub type SeedFn = fn(u64, PageSize) -> (u64, u64);

/// A process's hashed page table: one elastic cuckoo [`HptTable`] per page
/// size, the [`WayMemory`] their ways live in, and the Cuckoo Walk Tables.
///
/// [`Ecpt`] and ME-HPT (`mehpt_core::MeHpt`) are this type with different
/// way memory, resize switches and seeds; both dereference to it.
///
/// The CWTs record, per virtual-memory region, which page sizes have
/// mappings inside it: the PUD-CWT covers 1GB regions, the PMD-CWT 2MB
/// regions. The hardware walker caches CWT entries in its Cuckoo Walk
/// Caches and uses them to probe only the right page size's table
/// (Section V-D, Figure 7).
#[derive(Debug)]
pub struct Hpt {
    /// Per-page-size tables, created lazily on the first mapping of that
    /// size — an unused page size consumes no page-table memory and no
    /// registry entries, matching the paper's accounting (GUPS without THP
    /// only ever has 4KB tables; Table I's 288MB is exactly 3 × (64+32)MB
    /// of 4KB ways; a 4KB L2P subtable can steal the whole 1GB region,
    /// Section V-A).
    tables: Vec<Option<HptTable>>,
    cfg: MeHptConfig,
    memory: Box<dyn WayMemory>,
    seeds: SeedFn,
    cwt: CwtSet,
}

impl Hpt {
    /// Creates an empty page table whose ways live in `memory`. Each
    /// per-size table is seeded by `seeds` from `cfg.seed` offset by the
    /// page size.
    pub fn new(cfg: MeHptConfig, memory: Box<dyn WayMemory>, seeds: SeedFn) -> Hpt {
        Hpt {
            tables: vec![None, None, None],
            cfg,
            memory,
            seeds,
            cwt: CwtSet::new(),
        }
    }

    /// The table for one page size, if any page of that size was ever
    /// mapped.
    pub fn table(&self, ps: PageSize) -> Option<&HptTable> {
        self.tables[ps.index()].as_ref()
    }

    /// The memory the ways live in.
    pub fn memory(&self) -> &dyn WayMemory {
        &*self.memory
    }

    /// Maps `vpn` (of size `ps`) to `ppn`, creating the `ps` table (its
    /// initial ways) on first use.
    ///
    /// # Errors
    ///
    /// Fails when the table cannot allocate the chunks of a needed resize;
    /// the mappings made before stay intact.
    pub fn map(
        &mut self,
        vpn: Vpn,
        ps: PageSize,
        ppn: Ppn,
        mem: &mut PhysMem,
    ) -> Result<InsertReport, AllocError> {
        let slot = &mut self.tables[ps.index()];
        if slot.is_none() {
            let seed = self.cfg.seed.wrapping_add(ps.index() as u64 * 0x9e37_79b9);
            let seeds = (self.seeds)(seed, ps);
            *slot = Some(HptTable::new(ps, &self.cfg, seeds, &mut *self.memory, mem)?);
        }
        let table = slot.as_mut().expect("created above");
        let pages = table.pages();
        let report = table.insert(vpn, ppn, mem, &mut *self.memory)?;
        // An update of an existing PTE (a remap) adds no page to the region.
        if table.pages() > pages {
            self.cwt.note_map(vpn, ps);
        }
        Ok(report)
    }

    /// Unmaps `vpn` (of size `ps`), returning the previous translation.
    pub fn unmap(&mut self, vpn: Vpn, ps: PageSize, mem: &mut PhysMem) -> Option<Ppn> {
        let table = self.tables[ps.index()].as_mut()?;
        let ppn = table.remove(vpn, mem, &mut *self.memory)?;
        self.cwt.note_unmap(vpn, ps);
        Some(ppn)
    }

    /// Functional translation (no timing): probes the tables largest page
    /// size first.
    pub fn translate(&self, va: VirtAddr) -> Option<(Ppn, PageSize)> {
        PAGE_SIZES.iter().rev().find_map(|&ps| {
            let ppn = self.tables[ps.index()].as_ref()?.lookup(va.vpn(ps))?;
            Some((ppn, ps))
        })
    }

    /// The PMD-CWT mask for the 2MB region containing `va` (bit 0 = 4KB
    /// pages present, bit 1 = a 2MB page present). `None` if the region has
    /// no CWT entry at all.
    pub fn pmd_mask(&self, va: VirtAddr) -> Option<u8> {
        self.cwt.pmd_mask(va)
    }

    /// The PUD-CWT mask for the 1GB region containing `va`.
    pub fn pud_mask(&self, va: VirtAddr) -> Option<u8> {
        self.cwt.pud_mask(va)
    }

    /// Total mapped pages across page sizes.
    pub fn pages(&self) -> u64 {
        self.tables.iter().flatten().map(HptTable::pages).sum()
    }

    /// Total page-table memory (including CWTs, modeled at 8 bytes per
    /// region entry).
    pub fn memory_bytes(&self) -> u64 {
        let tables: u64 = self
            .tables
            .iter()
            .flatten()
            .map(HptTable::memory_bytes)
            .sum();
        tables + 8 * self.cwt.entries() as u64
    }

    /// Checks every table's invariants ([`HptTable::check_invariants`]),
    /// panicking on a violation.
    pub fn check_invariants(&self) {
        for table in self.tables.iter().flatten() {
            table.check_invariants(&*self.memory);
        }
    }

    /// Releases all physical memory and registry entries.
    pub fn destroy(mut self, mem: &mut PhysMem) {
        for t in self.tables.into_iter().flatten() {
            t.destroy(mem, &mut *self.memory);
        }
    }
}

impl HptView for Hpt {
    fn pud_mask(&self, va: VirtAddr) -> Option<u8> {
        self.cwt.pud_mask(va)
    }

    fn pmd_mask(&self, va: VirtAddr) -> Option<u8> {
        self.cwt.pmd_mask(va)
    }

    fn probe(&self, ps: PageSize, vpn: Vpn, out: &mut Vec<PhysAddr>) -> Option<Ppn> {
        self.tables[ps.index()].as_ref()?.probe(vpn, out)
    }

    fn translate(&self, va: VirtAddr) -> Option<(Ppn, PageSize)> {
        Hpt::translate(self, va)
    }
}

/// The ECPT baseline's seeds: the hash family and way choices both come
/// straight from the per-size seed.
fn ecpt_seeds(seed: u64, _: PageSize) -> (u64, u64) {
    (seed, seed ^ 0xdead_10cc)
}

/// A process's ECPT: the [`Hpt`] engine with each way in one contiguous
/// chunk, resized out of place and all ways at once.
///
/// Each way occupies **one contiguous chunk** of physical memory — the
/// design whose contiguity requirement (up to 64MB per way, Table I)
/// motivates the paper. An upsize *fails* if physical memory cannot supply
/// the contiguous chunks, which is how ECPT dies on a highly fragmented
/// machine in the paper's experiments.
#[derive(Debug)]
pub struct Ecpt(Hpt);

impl Ecpt {
    /// Creates the process state with Table III's parameters: 3 ways of 128
    /// entries (8KB per way) per page size, upsize above 0.6 occupancy,
    /// downsize below 0.2. Tables are allocated on first use.
    ///
    /// # Errors
    ///
    /// Never fails today; kept fallible like the other designs.
    pub fn new(mem: &mut PhysMem) -> Result<Ecpt, AllocError> {
        let _ = mem;
        let cfg = MeHptConfig {
            in_place: false,
            per_way: false,
            seed: 0xec9_7ab1e,
            ..MeHptConfig::default()
        };
        Ok(Ecpt(Hpt::new(cfg, Box::new(Contiguous), ecpt_seeds)))
    }

    /// The largest single way across the tables — the contiguity
    /// requirement (Table I column 4, Figure 8).
    pub fn max_way_bytes(&self) -> u64 {
        self.tables
            .iter()
            .flatten()
            .flat_map(HptTable::way_sizes)
            .max()
            .unwrap_or(0)
    }

    /// Releases all physical memory.
    pub fn destroy(self, mem: &mut PhysMem) {
        self.0.destroy(mem);
    }
}

impl Deref for Ecpt {
    type Target = Hpt;

    fn deref(&self) -> &Hpt {
        &self.0
    }
}

impl DerefMut for Ecpt {
    fn deref_mut(&mut self) -> &mut Hpt {
        &mut self.0
    }
}

impl From<Ecpt> for Hpt {
    fn from(ecpt: Ecpt) -> Hpt {
        ecpt.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mehpt_mem::{AllocCostModel, AllocTag};
    use mehpt_types::{KIB, MIB};

    /// A failed pressure-valve upsize (the kick limit hit on exhausted
    /// memory) keeps every earlier mapping and maps nothing new.
    #[test]
    fn failed_kick_limit_upsize_loses_no_mapping() {
        for max_kicks in [1, 2, 4] {
            let mut mem = PhysMem::with_cost_model(2 * MIB, AllocCostModel::zero_cost());
            let cfg = MeHptConfig {
                in_place: false,
                per_way: false,
                max_kicks,
                ..MeHptConfig::default()
            };
            let mut hpt = Hpt::new(cfg, Box::new(Contiguous), ecpt_seeds);
            hpt.map(Vpn(0), PageSize::Base4K, Ppn(0), &mut mem).unwrap();
            while mem.alloc(4 * KIB, AllocTag::Data).is_ok() {}
            let mut inserted = vec![0];
            let failed = (1..10_000u64).find(|&i| {
                let ok = hpt
                    .map(Vpn(i * 8), PageSize::Base4K, Ppn(i), &mut mem)
                    .is_ok();
                if ok {
                    inserted.push(i);
                }
                !ok
            });
            let failed = failed.expect("exhausted memory must fail an upsize");
            let t = hpt.table(PageSize::Base4K).unwrap();
            assert!(
                (t.clusters() + 1) as f64 <= 0.6 * t.capacity() as f64,
                "max_kicks {max_kicks}: the kick limit, not the upsize threshold, must fail"
            );
            for &i in &inserted {
                assert_eq!(
                    t.lookup(Vpn(i * 8)),
                    Some(Ppn(i)),
                    "max_kicks {max_kicks}: {i} lost"
                );
            }
            assert_eq!(t.lookup(Vpn(failed * 8)), None);
            assert_eq!(hpt.pages(), inserted.len() as u64);
            hpt.check_invariants();
        }
    }
}
