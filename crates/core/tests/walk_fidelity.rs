//! Walk fidelity: the single-pass hardware walk must return exactly the
//! functional translation and issue exactly the probes the design implies,
//! for ECPT and for ME-HPT with in-place and out-of-place resizing,
//! including while resizes are in flight.

use std::cell::Cell;

use mehpt_core::{MeHpt, MeHptConfig};
use mehpt_ecpt::{Ecpt, EcptWalker, Hpt, HptView};
use mehpt_mem::{AllocCostModel, PhysMem};
use mehpt_tlb::MemoryModel;
use mehpt_types::proptest_lite::{check, Gen};
use mehpt_types::{PageSize, PhysAddr, Ppn, VirtAddr, Vpn, GIB, PAGE_SIZES};

/// Maps `vpn`; the tests' 1GB of memory always suffices.
fn map(table: &mut Hpt, vpn: Vpn, ps: PageSize, ppn: Ppn, mem: &mut PhysMem) {
    table
        .map(vpn, ps, ppn, mem)
        .expect("1GB of memory suffices");
}

fn resizing(table: &Hpt) -> bool {
    PAGE_SIZES
        .iter()
        .any(|&ps| table.table(ps).is_some_and(|t| t.is_resizing()))
}

/// The group a walk must issue: `cwt` (the missed CWT entries), then the
/// W slots of every size in `sizes`, smallest first.
fn expected_group<T: HptView>(
    table: &T,
    va: VirtAddr,
    cwt: &[PhysAddr],
    sizes: u8,
) -> Vec<PhysAddr> {
    let mut group = cwt.to_vec();
    for ps in PAGE_SIZES {
        if sizes & (1 << ps.index()) != 0 {
            group.extend(table.probe_addrs(ps, va.vpn(ps)));
        }
    }
    group
}

/// Walks `va` cold, warm, and a neighbour 2MB region with only the PUD-CWC
/// warm, checking each walk's translation and probe group.
fn check_walks<T: HptView>(table: &T, va: VirtAddr) {
    let mut walker = EcptWalker::paper_default();
    let mut dram = MemoryModel::paper_default();
    let masks = |va| {
        (
            table.pud_mask(va).unwrap_or(0),
            table.pmd_mask(va).unwrap_or(0),
        )
    };

    // Cold: both CWCs miss, so both CWT entries and every size are fetched.
    let r = walker.walk(table, va, &mut dram);
    assert_eq!(r.translation, table.translate(va), "cold walk of {va:?}");
    let cwt = EcptWalker::cwt_addrs(va);
    assert_eq!(
        walker.last_probe_group(),
        expected_group(table, va, &cwt, 0b111)
    );
    assert_eq!(r.memory_accesses as usize, walker.last_probe_group().len());

    // Warm: the CWC masks select the sizes exactly.
    let r = walker.walk(table, va, &mut dram);
    assert_eq!(r.translation, table.translate(va), "warm walk of {va:?}");
    let (pud, pmd) = masks(va);
    let sizes = (pmd & 0b011) | (pud & 0b100);
    assert_eq!(
        walker.last_probe_group(),
        expected_group(table, va, &[], sizes)
    );

    // Same 1GB region, other 2MB region: PMD-CWT fetch plus the PUD mask.
    let near = VirtAddr::new(va.0 ^ (1 << 21));
    let r = walker.walk(table, near, &mut dram);
    assert_eq!(r.translation, table.translate(near), "walk of {near:?}");
    let (pud, _) = masks(near);
    let [_, pmd_cwt] = EcptWalker::cwt_addrs(near);
    assert_eq!(
        walker.last_probe_group(),
        expected_group(table, near, &[pmd_cwt], pud)
    );
}

/// Random maps, remaps and unmaps of 4KB, 2MB and 1GB pages in a 4GB
/// window, walking mapped and unmapped addresses every few operations.
/// Returns how many checkpoints fell inside a resize.
fn run_case(g: &mut Gen, mut table: Hpt, mem: &mut PhysMem) -> u64 {
    let mut mapped: Vec<(Vpn, PageSize)> = Vec::new();
    let mut mid_resize = 0;
    for op in 0..g.len(2400).max(800) {
        match g.weighted(&[40, 2, 1, 4, 4]) {
            0 => {
                let vpn = Vpn(g.below(1 << 20));
                map(&mut table, vpn, PageSize::Base4K, Ppn(op as u64), mem);
                mapped.push((vpn, PageSize::Base4K));
            }
            1 => {
                let vpn = Vpn(g.below(1 << 11));
                map(&mut table, vpn, PageSize::Huge2M, Ppn(op as u64), mem);
                mapped.push((vpn, PageSize::Huge2M));
            }
            2 => {
                let vpn = Vpn(g.below(4));
                map(&mut table, vpn, PageSize::Giant1G, Ppn(op as u64), mem);
                mapped.push((vpn, PageSize::Giant1G));
            }
            3 if !mapped.is_empty() => {
                // Remap: a new PPN for a live mapping.
                let (vpn, ps) = mapped[g.index(mapped.len())];
                map(&mut table, vpn, ps, Ppn(op as u64 + (1 << 30)), mem);
            }
            _ if !mapped.is_empty() => {
                let (vpn, ps) = mapped.swap_remove(g.index(mapped.len()));
                table.unmap(vpn, ps, mem);
            }
            _ => {}
        }
        if op % 64 == 0 && !mapped.is_empty() {
            mid_resize += u64::from(resizing(&table));
            table.check_invariants();
            for _ in 0..4 {
                let (vpn, ps) = mapped[g.index(mapped.len())];
                let offset = g.below(ps.bytes());
                check_walks(&table, VirtAddr::new(vpn.base_addr(ps).0 + offset));
                check_walks(&table, VirtAddr::new(g.below(4 * GIB)));
            }
        }
    }
    mid_resize
}

fn mem() -> PhysMem {
    PhysMem::with_cost_model(GIB, AllocCostModel::zero_cost())
}

#[test]
fn ecpt_walks_match_translate_and_probe_addrs() {
    let mid_resize = Cell::new(0);
    check("ecpt_walk_fidelity", 6, |g: &mut Gen| {
        let mut m = mem();
        let table = Ecpt::new(&mut m).unwrap();
        mid_resize.set(mid_resize.get() + run_case(g, table.into(), &mut m));
    });
    assert!(
        mid_resize.get() > 0,
        "no checkpoint caught a resize in flight"
    );
}

#[test]
fn mehpt_walks_match_translate_and_probe_addrs() {
    for in_place in [true, false] {
        let mid_resize = Cell::new(0);
        check("mehpt_walk_fidelity", 6, |g: &mut Gen| {
            let mut m = mem();
            let cfg = MeHptConfig {
                in_place,
                ..MeHptConfig::default()
            };
            let table = MeHpt::with_config(cfg, &mut m).unwrap();
            mid_resize.set(mid_resize.get() + run_case(g, table.into(), &mut m));
        });
        assert!(
            mid_resize.get() > 0,
            "in_place={in_place}: no checkpoint caught a resize in flight"
        );
    }
}
