use mehpt_core::L2pTable;
use mehpt_mem::{AllocTag, Fragmenter, PhysMem};
use mehpt_tlb::{MemoryModel, TlbHierarchy};
use mehpt_types::rng::Xoshiro256;
use mehpt_workloads::Workload;

use crate::runner::ProcState;
use crate::{SimConfig, SimReport};

/// Accesses per scheduling slice before the next process runs.
const TIME_SLICE: u64 = 50_000;
/// Fixed OS cost of a context switch (register state, scheduler), in
/// cycles; ME-HPT adds its L2P save/restore on top.
const SWITCH_CYCLES: u64 = 1_000;

/// The outcome of a multiprogrammed run.
#[derive(Clone, Debug)]
pub struct MultiReport {
    /// Per-process reports (same shape as single-process runs).
    pub processes: Vec<SimReport>,
    /// Context switches performed.
    pub switches: u64,
    /// Cycles spent switching (including L2P save/restore).
    pub switch_cycles: u64,
    /// Peak page-table memory across *all* processes simultaneously —
    /// the multiprogrammed pressure the paper warns about (Section IV-C:
    /// "there may potentially be several HPT resizings occurring
    /// concurrently, consuming substantial memory").
    pub peak_pt_bytes: u64,
    /// Largest contiguous page-table allocation machine-wide.
    pub max_contiguous: u64,
}

impl MultiReport {
    /// Total cycles across processes plus switching.
    pub fn total_cycles(&self) -> u64 {
        self.processes.iter().map(|p| p.total_cycles).sum::<u64>() + self.switch_cycles
    }
}

/// Runs several workloads round-robin on one core with a shared TLB and
/// shared physical memory — each process with its own page table of the
/// configured kind.
///
/// `cfg` is the per-process configuration (page-table kind, THP, cost
/// constants); its memory size and fragmentation apply machine-wide.
/// Processes run 50K-access slices. Every context switch costs 1000
/// cycles, flushes the TLB and the incoming process's walker caches, and
/// (for ME-HPT) saves and restores the L2P table's live entries
/// ([`L2pTable::save_restore_cycles`]).
///
/// # Panics
///
/// Panics if `workloads` is empty or the initial page tables cannot be
/// allocated.
pub fn run_multi(workloads: Vec<Workload>, cfg: SimConfig) -> MultiReport {
    assert!(!workloads.is_empty(), "need at least one workload");
    let mut mem = PhysMem::new(cfg.mem_bytes);
    let mut rng = Xoshiro256::seed_from_u64(cfg.seed);
    let _ballast = Fragmenter::fragment(&mut mem, cfg.fragmentation, &mut rng);
    let mut tlb = TlbHierarchy::paper_default();
    let mut dram = MemoryModel::paper_default();
    let mut procs: Vec<ProcState> = workloads
        .into_iter()
        .map(|wl| ProcState::new(wl, &cfg, &mut mem))
        .collect();

    let mut switches = 0u64;
    let mut switch_cycles_total = 0u64;
    let mut peak_pt = 0u64;
    loop {
        let mut any_ran = false;
        for proc in procs.iter_mut() {
            if proc.finished() {
                continue;
            }
            // Context switch in: flush shared translation state and pay
            // the switch + L2P restore bill.
            tlb.flush();
            proc.flush_walker();
            let cost =
                SWITCH_CYCLES + L2pTable::save_restore_cycles(proc.l2p_entries_used() as u64);
            switches += 1;
            switch_cycles_total += cost;
            for _ in 0..TIME_SLICE {
                if !proc.step(&cfg, &mut mem, &mut tlb, &mut dram) {
                    break;
                }
            }
            any_ran = true;
            peak_pt = peak_pt.max(mem.stats().tag(AllocTag::PageTable).current_bytes);
        }
        if !any_ran {
            break;
        }
    }
    let max_contiguous = mem.stats().tag(AllocTag::PageTable).max_contiguous_bytes;
    peak_pt = peak_pt.max(mem.stats().tag(AllocTag::PageTable).peak_bytes);
    let processes = procs
        .into_iter()
        .map(|p| p.into_report(&cfg, &mem))
        .collect();
    MultiReport {
        processes,
        switches,
        switch_cycles: switch_cycles_total,
        peak_pt_bytes: peak_pt,
        max_contiguous,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PtKind;
    use mehpt_types::GIB;
    use mehpt_workloads::{App, WorkloadCfg};

    fn wl(app: App) -> Workload {
        app.build(&WorkloadCfg {
            scale: 0.005,
            ..WorkloadCfg::default()
        })
    }

    fn cfg(kind: PtKind) -> SimConfig {
        let mut base = SimConfig::paper(kind, false);
        base.mem_bytes = 2 * GIB;
        base
    }

    #[test]
    fn two_processes_complete_and_account() {
        let r = run_multi(vec![wl(App::Mummer), wl(App::Tc)], cfg(PtKind::MeHpt));
        assert_eq!(r.processes.len(), 2);
        for p in &r.processes {
            assert!(p.aborted.is_none(), "{:?}", p.aborted);
            assert!(p.accesses > 0);
            assert!(p.faults > 0);
        }
        assert!(r.switches >= 2);
        assert!(r.switch_cycles > 0);
        assert!(r.peak_pt_bytes > 0);
        assert!(r.total_cycles() > r.switch_cycles);
    }

    #[test]
    fn multiprogrammed_peak_exceeds_any_single_process() {
        let r = run_multi(
            vec![wl(App::Bfs), wl(App::Pr), wl(App::Cc)],
            cfg(PtKind::MeHpt),
        );
        let max_single = r.processes.iter().map(|p| p.pt_peak_bytes).max().unwrap();
        assert!(
            r.peak_pt_bytes > max_single,
            "combined {} vs single {}",
            r.peak_pt_bytes,
            max_single
        );
    }

    #[test]
    fn mehpt_contiguity_holds_under_multiprogramming() {
        let ecpt = run_multi(vec![wl(App::Bfs), wl(App::Pr)], cfg(PtKind::Ecpt));
        let mehpt = run_multi(vec![wl(App::Bfs), wl(App::Pr)], cfg(PtKind::MeHpt));
        assert!(
            mehpt.max_contiguous <= ecpt.max_contiguous,
            "mehpt {} vs ecpt {}",
            mehpt.max_contiguous,
            ecpt.max_contiguous
        );
    }

    #[test]
    fn deterministic() {
        let a = run_multi(vec![wl(App::Mummer), wl(App::Tc)], cfg(PtKind::Ecpt));
        let b = run_multi(vec![wl(App::Mummer), wl(App::Tc)], cfg(PtKind::Ecpt));
        assert_eq!(a.total_cycles(), b.total_cycles());
        assert_eq!(a.switches, b.switches);
    }
}
