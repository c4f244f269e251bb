//! The traced run: a copy of `Simulator::run`'s step loop, built from the
//! public calls of each layer, with a span around every call into a layer.
//!
//! Spans are kept in memory as per-site aggregates (calls, busy time, a
//! log2 latency histogram and, for the sites that allocate, heap
//! allocations) and printed when the run ends. The copy must reproduce
//! `Simulator::run`'s statistics exactly; the caller checks that per cell.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

use mehpt_core::MeHpt;
use mehpt_ecpt::{Ecpt, EcptWalker, HptView};
use mehpt_mem::{AllocTag, Fragmenter, PhysMem};
use mehpt_radix::{RadixPageTable, RadixWalker};
use mehpt_sim::{PtKind, SimConfig};
use mehpt_tlb::{MemoryModel, TlbHierarchy};
use mehpt_types::rng::Xoshiro256;
use mehpt_types::{PageSize, Ppn, VirtAddr, PAGE_SIZES};

use crate::cells::Cell;
use crate::digest::Outcome;
use crate::stats::Log2Hist;

/// A timed call site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Site {
    WorkloadsNext,
    TlbLookup,
    TlbFill,
    TlbMemmodel,
    RadixWalk,
    EcptWalk,
    CoreWalk,
    HashProbe,
    RadixMap,
    EcptMap,
    CoreMap,
    MemAlloc,
    MemSetup,
    LabEngine,
    LabReport,
    LabJournal,
}

/// Every site with its metric prefix and whether it reports heap
/// allocations per call.
pub const SITES: [(Site, &str, bool); 16] = [
    (Site::WorkloadsNext, "workloads.next", false),
    (Site::TlbLookup, "tlb.lookup", false),
    (Site::TlbFill, "tlb.fill", false),
    (Site::TlbMemmodel, "tlb.memmodel", false),
    (Site::RadixWalk, "radix.walk", true),
    (Site::EcptWalk, "ecpt.walk", true),
    (Site::CoreWalk, "core.walk", true),
    (Site::HashProbe, "hash.probe", true),
    (Site::RadixMap, "radix.map", true),
    (Site::EcptMap, "ecpt.map", true),
    (Site::CoreMap, "core.map", true),
    (Site::MemAlloc, "mem.alloc", false),
    (Site::MemSetup, "mem.setup", false),
    (Site::LabEngine, "lab.engine", false),
    (Site::LabReport, "lab.report", false),
    (Site::LabJournal, "lab.journal", false),
];

/// The sites `Simulator::run`'s own loop calls (what `sim.self_ns_per_access`
/// subtracts).
pub const LOOP_SITES: [Site; 11] = [
    Site::WorkloadsNext,
    Site::TlbLookup,
    Site::TlbFill,
    Site::RadixWalk,
    Site::EcptWalk,
    Site::CoreWalk,
    Site::RadixMap,
    Site::EcptMap,
    Site::CoreMap,
    Site::MemAlloc,
    Site::MemSetup,
];

/// Aggregate of one site's spans.
#[derive(Clone, Debug, Default)]
pub struct SiteStats {
    pub calls: u64,
    pub busy_ns: u64,
    pub hist: Log2Hist,
    pub allocs: u64,
}

/// In-memory span aggregates.
pub struct Tracer {
    sites: Vec<SiteStats>,
    alloc_count: Option<fn() -> u64>,
}

impl Tracer {
    /// A tracer; `alloc_count` reads the process's heap-allocation counter.
    pub fn new(alloc_count: Option<fn() -> u64>) -> Tracer {
        Tracer {
            sites: vec![SiteStats::default(); SITES.len()],
            alloc_count,
        }
    }

    /// The aggregate of `site`.
    pub fn site(&self, site: Site) -> &SiteStats {
        &self.sites[site as usize]
    }

    /// Runs `f` inside a span of `site`.
    #[inline(always)]
    pub fn span<R>(&mut self, site: Site, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        let ns = t0.elapsed().as_nanos() as u64;
        let s = &mut self.sites[site as usize];
        s.calls += 1;
        s.busy_ns += ns;
        s.hist.record(ns);
        r
    }

    /// [`Tracer::span`] that also counts the heap allocations `f` makes.
    #[inline(always)]
    pub fn span_alloc<R>(&mut self, site: Site, f: impl FnOnce() -> R) -> R {
        let Some(count) = self.alloc_count else {
            return self.span(site, f);
        };
        let a0 = count();
        let r = self.span(site, f);
        self.sites[site as usize].allocs += count() - a0;
        r
    }
}

/// Median duration an empty span reads, in ns: the bias every traced call
/// carries. A trimmed mean over many spans, so it resolves below 1 ns.
pub fn calibrate_span_ns() -> f64 {
    const N: usize = 200_000;
    let mut samples: Vec<u64> = (0..N)
        .map(|_| {
            let t0 = Instant::now();
            black_box(());
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    let kept = &samples[N / 100..N - N / 100];
    kept.iter().sum::<u64>() as f64 / kept.len() as f64
}

/// Page-table design of a cell, with its hardware walker.
pub enum Table {
    Radix(RadixPageTable, RadixWalker),
    Ecpt(Ecpt, EcptWalker),
    MeHpt(MeHpt, EcptWalker),
}

impl Table {
    /// The table `Simulator::run` builds for `cfg`.
    pub fn new(cfg: &SimConfig, mem: &mut PhysMem) -> Table {
        match cfg.kind {
            PtKind::Radix => Table::Radix(
                RadixPageTable::new(mem).expect("initial radix root"),
                RadixWalker::paper_default(),
            ),
            PtKind::Ecpt => Table::Ecpt(
                Ecpt::new(mem).expect("ECPT process state"),
                EcptWalker::paper_default(),
            ),
            PtKind::MeHpt => Table::MeHpt(
                MeHpt::with_config(cfg.mehpt.clone(), mem).expect("ME-HPT process state"),
                EcptWalker::paper_default(),
            ),
        }
    }

    fn bytes(&self) -> u64 {
        match self {
            Table::Radix(t, _) => t.memory_bytes(),
            Table::Ecpt(t, _) => t.memory_bytes(),
            Table::MeHpt(t, _) => t.memory_bytes(),
        }
    }
}

/// Design index of the per-design counters: radix, ECPT, ME-HPT.
fn design(t: &Table) -> usize {
    match t {
        Table::Radix(..) => 0,
        Table::Ecpt(..) => 1,
        Table::MeHpt(..) => 2,
    }
}

/// Counts the traced loop makes beside its spans, summed over cells.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    pub accesses: u64,
    pub faults: u64,
    pub tlb_l2_misses: u64,
    /// Walks and simulated memory references per design.
    pub walks: [u64; 3],
    pub walk_refs: [u64; 3],
    /// Maps, kicks and migrated entries per design.
    pub maps: [u64; 3],
    pub kicks: [u64; 3],
    pub migrated: [u64; 3],
    pub chunk_switches: u64,
    pub huge_attempts: u64,
    pub huge_failures: u64,
    pub relocations: u64,
}

/// Every 16th hashed walk is replayed through `probe_addrs` and a fresh
/// memory model after the cell ends, up to this many per cell.
const SAMPLE_EVERY: u64 = 16;
const MAX_SAMPLES: usize = 1 << 15;

#[derive(Default)]
struct Cycles {
    accesses: u64,
    total: u64,
    base: u64,
    translation: u64,
    fault: u64,
    alloc: u64,
    os_pt: u64,
    faults: u64,
    pages_4k: u64,
    pages_2m: u64,
    pt_peak: u64,
}

/// Runs `cell` through the traced copy of the step loop. Returns the
/// simulated statistics and the host ns the loop took (set-up included,
/// the post-run probe replay excluded).
pub fn run_cell(cell: &Cell, tr: &mut Tracer, counts: &mut Counts) -> (Outcome, u64) {
    let cfg = &cell.cfg;
    let mut wl = cell.workload();
    let t0 = Instant::now();
    let (mut mem, _ballast) = tr.span(Site::MemSetup, || {
        let mut mem = PhysMem::new(cfg.mem_bytes);
        let mut rng = Xoshiro256::seed_from_u64(cfg.seed);
        let ballast = Fragmenter::fragment(&mut mem, cfg.fragmentation, &mut rng);
        (mem, ballast)
    });
    let mut tlb = TlbHierarchy::paper_default();
    let mut dram = MemoryModel::paper_default();
    let mut pt = Table::new(cfg, &mut mem);
    let d = design(&pt);
    let regions = wl.regions().to_vec();
    let mut huge_failed: HashSet<u64> = HashSet::new();
    let mut frame_owner: HashMap<u64, (VirtAddr, PageSize)> = HashMap::new();
    let mut mapped_4k: HashSet<u64> = HashSet::new();
    let mut mapped_2m: HashSet<u64> = HashSet::new();
    let mut last: Option<(u64, PageSize)> = None;
    let mut c = Cycles::default();
    let mut aborted = None;
    let mut samples: Vec<VirtAddr> = Vec::new();
    let limit = cfg.max_accesses.unwrap_or(u64::MAX);

    while c.accesses < limit {
        let Some(va) = tr.span(Site::WorkloadsNext, || wl.next()) else {
            break;
        };
        c.accesses += 1;
        c.total += cfg.base_access_cycles;
        c.base += cfg.base_access_cycles;

        let page4k = va.0 >> 12;
        let mapped = match last {
            Some((p, ps)) if p == page4k => Some(ps),
            _ if mapped_4k.contains(&page4k) => Some(PageSize::Base4K),
            _ if mapped_2m.contains(&(va.0 >> 21)) => Some(PageSize::Huge2M),
            _ => None,
        };
        if let Some(ps) = mapped {
            last = Some((page4k, ps));
            let out = tr.span(Site::TlbLookup, || tlb.lookup(va, ps));
            c.translation += out.cycles();
            c.total += out.cycles();
            if out.is_miss() {
                let wc = walk(&mut pt, va, &mut dram, tr, counts, &mut samples);
                c.translation += wc;
                c.total += wc;
                tr.span(Site::TlbFill, || tlb.fill(va.vpn(ps), ps));
            }
            continue;
        }

        // ---- page fault ----
        c.faults += 1;
        let out = tr.span(Site::TlbLookup, || tlb.lookup(va, PageSize::Base4K));
        let wc = walk(&mut pt, va, &mut dram, tr, counts, &mut samples);
        c.translation += out.cycles() + wc;
        c.total += out.cycles() + wc;
        c.total += cfg.page_fault_cycles;
        c.fault += cfg.page_fault_cycles;

        let alloc_before = mem.stats().total_alloc_cycles();
        let thp_ok = cfg.thp
            && regions
                .iter()
                .find(|r| r.contains(va))
                .is_some_and(|r| r.thp_eligible);
        let mut chosen: Option<(PageSize, Ppn)> = None;
        if thp_ok && !huge_failed.contains(&(va.0 >> 21)) {
            counts.huge_attempts += 1;
            match tr.span(Site::MemAlloc, || {
                mem.alloc(PageSize::Huge2M.bytes(), AllocTag::Data)
            }) {
                Ok(chunk) => {
                    chosen = Some((
                        PageSize::Huge2M,
                        Ppn(chunk.base().0 >> PageSize::Huge2M.shift()),
                    ));
                }
                Err(_) => {
                    counts.huge_failures += 1;
                    huge_failed.insert(va.0 >> 21);
                }
            }
        }
        if chosen.is_none() {
            match tr.span(Site::MemAlloc, || {
                mem.alloc(PageSize::Base4K.bytes(), AllocTag::Data)
            }) {
                Ok(chunk) => {
                    chosen = Some((
                        PageSize::Base4K,
                        Ppn(chunk.base().0 >> PageSize::Base4K.shift()),
                    ));
                }
                Err(e) => {
                    aborted = Some(format!("data allocation failed: {e}"));
                    break;
                }
            }
        }
        let (ps, ppn) = chosen.expect("a frame was allocated");
        match map(&mut pt, va, ps, ppn, &mut mem, tr) {
            Ok((kicks, migrated)) => {
                counts.maps[d] += 1;
                counts.kicks[d] += kicks as u64;
                counts.migrated[d] += migrated as u64;
                let os = cfg.insert_cycles
                    + kicks as u64 * cfg.kick_cycles
                    + migrated as u64 * cfg.migrate_entry_cycles;
                c.os_pt += os;
                c.total += os;
            }
            Err(e) => {
                aborted = Some(format!("page-table insertion failed: {e}"));
                break;
            }
        }
        match ps {
            PageSize::Base4K => {
                c.pages_4k += 1;
                mapped_4k.insert(page4k);
            }
            PageSize::Huge2M => {
                c.pages_2m += 1;
                mapped_2m.insert(va.0 >> 21);
            }
            PageSize::Giant1G => {}
        }
        frame_owner.insert((ppn.0 << ps.shift()) >> 12, (va.page_base(ps), ps));
        let relocations = mem.take_relocations();
        counts.relocations += relocations.len() as u64;
        for (old_frame, new_frame, tag) in relocations {
            if tag != AllocTag::Data {
                continue;
            }
            let Some((page_va, mps)) = frame_owner.remove(&old_frame) else {
                continue;
            };
            let new_ppn = Ppn(new_frame >> (mps.shift() - 12));
            remap(&mut pt, page_va, mps, new_ppn, &mut mem);
            tlb.invalidate(page_va.vpn(mps), mps);
            frame_owner.insert(new_frame, (page_va, mps));
        }
        tr.span(Site::TlbFill, || tlb.fill(va.vpn(ps), ps));
        last = Some((page4k, ps));
        c.alloc += mem.stats().total_alloc_cycles() - alloc_before;
        if c.faults % 4096 == 0 {
            c.pt_peak = c.pt_peak.max(pt.bytes());
        }
    }
    let loop_ns = t0.elapsed().as_nanos() as u64;

    counts.accesses += c.accesses;
    counts.faults += c.faults;
    counts.tlb_l2_misses += tlb.l2_stats().misses;
    let pt_tag = mem.stats().tag(AllocTag::PageTable);
    let mut out = Outcome {
        accesses: c.accesses,
        total_cycles: c.total + c.alloc,
        base_cycles: c.base,
        translation_cycles: c.translation,
        fault_cycles: c.fault,
        alloc_cycles: c.alloc,
        os_pt_cycles: c.os_pt,
        faults: c.faults,
        pages_4k: c.pages_4k,
        pages_2m: c.pages_2m,
        walks: 0,
        pt_final_bytes: pt.bytes(),
        pt_peak_bytes: c.pt_peak.max(pt.bytes()).max(pt_tag.peak_bytes),
        pt_max_contiguous: pt_tag.max_contiguous_bytes,
        aborted,
        ..Outcome::default()
    };
    match &pt {
        Table::Radix(_, walker) => out.walks = walker.walks(),
        Table::Ecpt(table, walker) => {
            out.walks = walker.walks();
            if let Some(t4k) = table.table(PageSize::Base4K) {
                out.way_sizes_4k = t4k.way_sizes();
                out.way_phys_4k = t4k.way_sizes();
            }
            for ps in PAGE_SIZES {
                if let Some(t) = table.table(ps) {
                    merge_hist(&mut out.kicks_histogram, t.kicks_histogram());
                }
            }
            replay(table, &samples, tr);
        }
        Table::MeHpt(table, walker) => {
            out.walks = walker.walks();
            if let Some(t4k) = table.table(PageSize::Base4K) {
                out.way_sizes_4k = t4k.way_sizes();
                out.way_phys_4k = t4k.way_phys_bytes();
            }
            for ps in PAGE_SIZES {
                if let Some(t) = table.table(ps) {
                    merge_hist(&mut out.kicks_histogram, &t.stats().kicks_histogram);
                    counts.chunk_switches += t.stats().chunk_switches;
                }
            }
            replay(table, &samples, tr);
        }
    }
    (out, loop_ns)
}

/// One timed walk; samples every [`SAMPLE_EVERY`]th hashed walk for the
/// probe replay.
fn walk(
    pt: &mut Table,
    va: VirtAddr,
    dram: &mut MemoryModel,
    tr: &mut Tracer,
    counts: &mut Counts,
    samples: &mut Vec<VirtAddr>,
) -> u64 {
    let d = design(pt);
    let (cycles, refs) = match pt {
        Table::Radix(table, walker) => {
            let r = tr.span_alloc(Site::RadixWalk, || walker.walk(table, va, dram));
            (r.cycles, r.memory_accesses)
        }
        Table::Ecpt(table, walker) => {
            let r = tr.span_alloc(Site::EcptWalk, || walker.walk(table, va, dram));
            (r.cycles, r.memory_accesses)
        }
        Table::MeHpt(table, walker) => {
            let r = tr.span_alloc(Site::CoreWalk, || walker.walk(table, va, dram));
            (r.cycles, r.memory_accesses)
        }
    };
    counts.walks[d] += 1;
    counts.walk_refs[d] += refs as u64;
    if d > 0 && counts.walks[d].is_multiple_of(SAMPLE_EVERY) && samples.len() < MAX_SAMPLES {
        samples.push(va);
    }
    cycles
}

/// `Simulator::run`'s page-table insert: the timed `map` call, plus the
/// walker's CWC shootdown when the region's page-size mask changed.
fn map(
    pt: &mut Table,
    va: VirtAddr,
    ps: PageSize,
    ppn: Ppn,
    mem: &mut PhysMem,
    tr: &mut Tracer,
) -> Result<(u32, u32), String> {
    let vpn = va.vpn(ps);
    match pt {
        Table::Radix(table, _) => tr
            .span_alloc(Site::RadixMap, || table.map(vpn, ps, ppn, mem))
            .map(|()| (0, 0))
            .map_err(|e| e.to_string()),
        Table::Ecpt(table, walker) => {
            let masks = (table.pud_mask(va), table.pmd_mask(va));
            let report = tr
                .span_alloc(Site::EcptMap, || table.map(vpn, ps, ppn, mem))
                .map_err(|e| e.to_string())?;
            if masks != (table.pud_mask(va), table.pmd_mask(va)) {
                walker.invalidate_region(va);
            }
            Ok((report.kicks, report.migrated))
        }
        Table::MeHpt(table, walker) => {
            let masks = (HptView::pud_mask(table, va), HptView::pmd_mask(table, va));
            let report = tr
                .span_alloc(Site::CoreMap, || table.map(vpn, ps, ppn, mem))
                .map_err(|e| e.to_string())?;
            if masks != (HptView::pud_mask(table, va), HptView::pmd_mask(table, va)) {
                walker.invalidate_region(va);
            }
            Ok((report.kicks, report.migrated))
        }
    }
}

/// Rewrites a mapping whose data page compaction moved (untimed: rare).
fn remap(pt: &mut Table, va: VirtAddr, ps: PageSize, ppn: Ppn, mem: &mut PhysMem) {
    let vpn = va.vpn(ps);
    match pt {
        Table::Radix(table, _) => {
            let ok = table.remap(vpn, ps, ppn);
            debug_assert!(ok, "relocated frame had no mapping");
        }
        Table::Ecpt(table, _) => {
            let _ = table.map(vpn, ps, ppn, mem);
        }
        Table::MeHpt(table, _) => {
            let _ = table.map(vpn, ps, ppn, mem);
        }
    }
}

/// Replays sampled walked VAs on the final table: `probe_addrs` for the
/// page size that maps each, then those addresses through a fresh memory
/// model.
fn replay<T: HptView>(table: &T, samples: &[VirtAddr], tr: &mut Tracer) {
    let mut model = MemoryModel::paper_default();
    for &va in samples {
        let Some((_, ps)) = table.translate(va) else {
            continue;
        };
        let addrs = tr.span_alloc(Site::HashProbe, || table.probe_addrs(ps, va.vpn(ps)));
        black_box(tr.span(Site::TlbMemmodel, || model.access_parallel(&addrs)));
    }
}

fn merge_hist(into: &mut Vec<u64>, from: &[u64]) {
    if into.len() < from.len() {
        into.resize(from.len(), 0);
    }
    for (dst, &src) in into.iter_mut().zip(from) {
        *dst += src;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mehpt_workloads::{App, WorkloadCfg};

    #[test]
    fn traced_copy_matches_the_simulator() {
        for (app, thp) in [(App::Mummer, true), (App::Bfs, false)] {
            for kind in [PtKind::Radix, PtKind::Ecpt, PtKind::MeHpt] {
                let mut cfg = SimConfig::paper(kind, thp);
                cfg.mem_bytes = 2 * mehpt_types::GIB;
                let wcfg = WorkloadCfg {
                    scale: 0.002,
                    ..WorkloadCfg::default()
                };
                let cell = Cell {
                    id: format!("{}-{kind:?}", app.name()),
                    app,
                    wcfg,
                    cfg,
                };
                let reference = mehpt_sim::Simulator::run(cell.workload(), cell.cfg.clone());
                let mut tr = Tracer::new(None);
                let (copy, _) = run_cell(&cell, &mut tr, &mut Counts::default());
                assert_eq!(copy, Outcome::from_report(&reference), "{}", cell.id);
                assert_eq!(tr.site(Site::WorkloadsNext).calls, reference.accesses + 1);
            }
        }
    }
}
