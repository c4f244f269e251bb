//! Integration tests of the full ME-HPT design: contiguity guarantees,
//! walker timing, chunk-size transitions, and paper-shape invariants.

use mehpt_core::{ChunkSizePolicy, MeHpt, MeHptConfig};
use mehpt_ecpt::{EcptWalker, HptView};
use mehpt_hash::ResizeKind;
use mehpt_mem::{AllocCostModel, AllocTag, Fragmenter, PhysMem};
use mehpt_tlb::MemoryModel;
use mehpt_types::rng::Xoshiro256;
use mehpt_types::{PageSize, Ppn, VirtAddr, Vpn, GIB, KIB, MIB};

fn mem(bytes: u64) -> PhysMem {
    PhysMem::with_cost_model(bytes, AllocCostModel::zero_cost())
}

#[test]
fn multiple_page_sizes_coexist() {
    let mut m = mem(GIB);
    let mut hpt = MeHpt::new(&mut m).unwrap();
    let va4k = VirtAddr::new(0x1000_0000);
    let va2m = VirtAddr::new(0x8000_0000);
    let va1g = VirtAddr::new(0x40_0000_0000);
    hpt.map(va4k.vpn(PageSize::Base4K), PageSize::Base4K, Ppn(1), &mut m)
        .unwrap();
    hpt.map(va2m.vpn(PageSize::Huge2M), PageSize::Huge2M, Ppn(2), &mut m)
        .unwrap();
    hpt.map(
        va1g.vpn(PageSize::Giant1G),
        PageSize::Giant1G,
        Ppn(3),
        &mut m,
    )
    .unwrap();
    assert_eq!(hpt.translate(va4k), Some((Ppn(1), PageSize::Base4K)));
    assert_eq!(
        hpt.translate(va2m + 0x5000),
        Some((Ppn(2), PageSize::Huge2M))
    );
    assert_eq!(hpt.translate(va1g + MIB), Some((Ppn(3), PageSize::Giant1G)));
    assert_eq!(hpt.pages(), 3);
    hpt.destroy(&mut m);
}

#[test]
fn contiguity_never_exceeds_one_chunk_even_at_scale() {
    // The headline claim: ECPT needs up to 64MB contiguous; ME-HPT needs at
    // most one chunk (1MB here).
    let mut m = mem(4 * GIB);
    let mut hpt = MeHpt::new(&mut m).unwrap();
    for i in 0..400_000u64 {
        hpt.map(Vpn(i * 8), PageSize::Base4K, Ppn(i), &mut m)
            .unwrap();
    }
    assert!(hpt.memory_bytes() > 16 * MIB);
    assert_eq!(m.stats().tag(AllocTag::PageTable).max_contiguous_bytes, MIB);
    assert_eq!(hpt.max_chunk_bytes(), MIB);
}

#[test]
fn survives_fragmentation_that_kills_ecpt() {
    // At 0.9 FMFI the ECPT baseline dies (see the ecpt crate's tests);
    // ME-HPT keeps allocating its small chunks just fine.
    let mut m = mem(GIB);
    let mut rng = Xoshiro256::seed_from_u64(7);
    Fragmenter::fragment(&mut m, 0.9, &mut rng);
    let mut hpt = MeHpt::new(&mut m).unwrap();
    for i in 0..150_000u64 {
        hpt.map(Vpn(i * 8), PageSize::Base4K, Ppn(i), &mut m)
            .unwrap_or_else(|e| panic!("ME-HPT must survive fragmentation: {e} at {i}"));
    }
    assert!(hpt.memory_bytes() > 8 * MIB);
}

#[test]
fn chunk_switch_happens_once_per_growth_run() {
    // Section VII-E1: "for all the applications, there is at most one chunk
    // size switch (from 8KB to 1MB) throughout the whole execution".
    let mut m = mem(4 * GIB);
    let mut hpt = MeHpt::new(&mut m).unwrap();
    for i in 0..400_000u64 {
        hpt.map(Vpn(i * 8), PageSize::Base4K, Ppn(i), &mut m)
            .unwrap();
    }
    let switches = hpt.table(PageSize::Base4K).unwrap().stats().chunk_switches;
    assert_eq!(
        switches, 3,
        "one switch per way (3 ways) from 8KB to 1MB chunks"
    );
    assert_eq!(
        hpt.table(PageSize::Base4K).unwrap().way_chunk_bytes(),
        vec![MIB, MIB, MIB]
    );
}

#[test]
fn l2p_usage_stays_modest() {
    // Figure 14: applications use a fraction of the 288 entries.
    let mut m = mem(4 * GIB);
    let mut hpt = MeHpt::new(&mut m).unwrap();
    for i in 0..400_000u64 {
        hpt.map(Vpn(i * 8), PageSize::Base4K, Ppn(i), &mut m)
            .unwrap();
    }
    let used = hpt.l2p_entries_used();
    assert!(used <= 288);
    // 400K clusters → way ≈ 64K–256K entries → a handful of 1MB chunks per
    // way plus the idle page sizes' initial chunks.
    assert!((6..120).contains(&used), "L2P entries used: {used}");
}

#[test]
fn walker_times_mehpt_like_ecpt() {
    let mut m = mem(GIB);
    let mut hpt = MeHpt::new(&mut m).unwrap();
    let mut walker = EcptWalker::paper_default();
    let mut dram = MemoryModel::paper_default();
    let va = VirtAddr::new(0x4242_0000);
    hpt.map(va.vpn(PageSize::Base4K), PageSize::Base4K, Ppn(77), &mut m)
        .unwrap();
    let cold = walker.walk(&hpt, va, &mut dram);
    assert_eq!(cold.translation, Some((Ppn(77), PageSize::Base4K)));
    let warm = walker.walk(&hpt, va, &mut dram);
    assert_eq!(warm.memory_accesses, 3, "3 parallel way probes");
    assert!(
        warm.cycles <= 4 + 200,
        "warm walk must cost one parallel round trip: {} cycles",
        warm.cycles
    );
}

#[test]
fn small_chunk_start_saves_memory_for_small_processes() {
    // Figure 15's mechanism: with the 8KB+1MB ladder a small process keeps
    // 8KB chunks; with a 1MB-only ladder it burns 1MB per way immediately.
    let small_process = |policy: ChunkSizePolicy| {
        let mut m = mem(GIB);
        let cfg = MeHptConfig {
            chunk_policy: policy,
            ..MeHptConfig::default()
        };
        let mut hpt = MeHpt::with_config(cfg, &mut m).unwrap();
        for i in 0..500u64 {
            hpt.map(Vpn(i), PageSize::Base4K, Ppn(i), &mut m).unwrap();
        }
        hpt.table(PageSize::Base4K).unwrap().memory_bytes()
    };
    let ladder = small_process(ChunkSizePolicy::paper_default());
    let fixed_1mb = small_process(ChunkSizePolicy::fixed(MIB));
    assert!(ladder <= 64 * KIB, "ladder build used {ladder} bytes");
    assert!(
        fixed_1mb >= 3 * MIB,
        "1MB-only build used {fixed_1mb} bytes"
    );
}

#[test]
fn in_place_resizes_move_about_half() {
    let mut m = mem(4 * GIB);
    let mut hpt = MeHpt::new(&mut m).unwrap();
    for i in 0..200_000u64 {
        hpt.map(Vpn(i * 8), PageSize::Base4K, Ppn(i), &mut m)
            .unwrap();
    }
    let stats = hpt.table(PageSize::Base4K).unwrap().stats();
    let inplace_ups: Vec<f64> = stats
        .resizes
        .iter()
        .filter(|e| e.kind == ResizeKind::Upsize && e.moved + e.kept > 0 && e.kept > 0)
        .map(|e| e.moved as f64 / (e.moved + e.kept) as f64)
        .collect();
    assert!(!inplace_ups.is_empty());
    let mean = inplace_ups.iter().sum::<f64>() / inplace_ups.len() as f64;
    assert!((0.4..0.6).contains(&mean), "moved fraction {mean}");
}

#[test]
fn upsizes_spread_across_ways() {
    // Figure 11: per-way resizing balances upsizes across ways.
    let mut m = mem(4 * GIB);
    let mut hpt = MeHpt::new(&mut m).unwrap();
    for i in 0..300_000u64 {
        hpt.map(Vpn(i * 8), PageSize::Base4K, Ppn(i), &mut m)
            .unwrap();
    }
    let stats = hpt.table(PageSize::Base4K).unwrap().stats();
    let mut per_way = [0u64; 3];
    for e in &stats.resizes {
        if e.kind == ResizeKind::Upsize {
            per_way[e.way] += 1;
        }
    }
    let min = *per_way.iter().min().unwrap();
    let max = *per_way.iter().max().unwrap();
    assert!(min > 0);
    assert!(max - min <= 2, "upsizes unbalanced: {per_way:?}");
}

#[test]
fn unmap_returns_translations_and_shrinks() {
    let mut m = mem(GIB);
    let mut hpt = MeHpt::new(&mut m).unwrap();
    for i in 0..10_000u64 {
        hpt.map(Vpn(i), PageSize::Base4K, Ppn(i), &mut m).unwrap();
    }
    for i in 0..10_000u64 {
        assert_eq!(hpt.unmap(Vpn(i), PageSize::Base4K, &mut m), Some(Ppn(i)));
    }
    assert_eq!(hpt.pages(), 0);
    assert_eq!(hpt.unmap(Vpn(0), PageSize::Base4K, &mut m), None);
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut m = mem(GIB);
        let mut hpt = MeHpt::new(&mut m).unwrap();
        for i in 0..100_000u64 {
            hpt.map(Vpn(i * 8), PageSize::Base4K, Ppn(i), &mut m)
                .unwrap();
        }
        (
            hpt.table(PageSize::Base4K).unwrap().way_sizes(),
            hpt.l2p_entries_used(),
            hpt.memory_bytes(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn remap_then_unmap_clears_cwt_masks() {
    // A remap (map over a live PTE, as after compaction) adds no page to
    // the region, so the one unmap must clear its page-size bits.
    let mut m = mem(GIB);
    let mut hpt = MeHpt::new(&mut m).unwrap();
    for (va, ps) in [
        (VirtAddr::new(0x1234_5000), PageSize::Base4K),
        (VirtAddr::new(0x8020_0000), PageSize::Huge2M),
    ] {
        let vpn = va.vpn(ps);
        hpt.map(vpn, ps, Ppn(9), &mut m).unwrap();
        hpt.map(vpn, ps, Ppn(10), &mut m).unwrap();
        assert_eq!(hpt.translate(va), Some((Ppn(10), ps)));
        assert_eq!(hpt.unmap(vpn, ps, &mut m), Some(Ppn(10)));
        assert_eq!(hpt.pmd_mask(va), None, "{ps:?}");
        assert_eq!(hpt.pud_mask(va), None, "{ps:?}");
    }
}

#[test]
fn custom_config_is_respected() {
    let mut m = mem(GIB);
    let cfg = MeHptConfig {
        ways: 4,
        initial_entries_per_way: 256,
        ..MeHptConfig::default()
    };
    let mut hpt = MeHpt::with_config(cfg, &mut m).unwrap();
    hpt.map(Vpn(1), PageSize::Base4K, Ppn(1), &mut m).unwrap();
    let t = hpt.table(PageSize::Base4K).unwrap();
    assert_eq!(t.way_sizes().len(), 4);
    assert_eq!(t.capacity(), 1024);
    assert_eq!(hpt.l2p().ways(), 4);
}
