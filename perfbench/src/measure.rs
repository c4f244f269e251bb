//! Untraced passes: the end-to-end measurements.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

use mehpt_mem::{Fragmenter, PhysMem};
use mehpt_sim::Simulator;
use mehpt_tlb::{MemoryModel, TlbHierarchy};
use mehpt_types::rng::Xoshiro256;

use crate::cells::Cell;
use crate::digest::Outcome;
use crate::traced::Table;

/// One cell's result in a pass.
#[derive(Debug)]
pub struct CellRun {
    pub id: String,
    pub outcome: Outcome,
    /// Host ns per simulated access, scaled to the reference host.
    pub ns_per_access: f64,
    /// The same, as measured.
    pub raw_ns_per_access: f64,
}

/// One pass over a workload's cells.
#[derive(Debug)]
pub struct Pass {
    /// Sum of the cells' times, each scaled to the reference host.
    pub wall_s: f64,
    /// Sum of the cells' times as measured.
    pub raw_wall_s: f64,
    pub cells: Vec<CellRun>,
}

impl Pass {
    /// Simulated accesses of the pass.
    pub fn accesses(&self) -> u64 {
        self.cells.iter().map(|c| c.outcome.accesses).sum()
    }
}

/// Seconds spent in the set-up calls `Simulator::run` makes before its
/// first access, summed over `cells`: `App::build`, `PhysMem::new`,
/// `Fragmenter::fragment`, the table's `new`, and the TLB, walker and
/// memory-model constructors. Tear-down is not timed.
pub fn setup_pass(cells: &[Cell]) -> f64 {
    let mut total = 0.0;
    for cell in cells {
        let cfg = &cell.cfg;
        let t0 = Instant::now();
        let wl = cell.workload();
        let mut mem = PhysMem::new(cfg.mem_bytes);
        let mut rng = Xoshiro256::seed_from_u64(cfg.seed);
        let ballast = Fragmenter::fragment(&mut mem, cfg.fragmentation, &mut rng);
        let table = Table::new(cfg, &mut mem);
        let tlb = TlbHierarchy::paper_default();
        let dram = MemoryModel::paper_default();
        total += t0.elapsed().as_secs_f64();
        black_box((wl, mem, ballast, table, tlb, dram));
    }
    total
}

/// Runs every cell through `Simulator::run`, one after another, with
/// the reference job after each (see [`HostRef`]).
pub fn sim_pass(cells: &[Cell], host: &mut HostRef) -> Pass {
    let mut pass = Pass {
        wall_s: 0.0,
        raw_wall_s: 0.0,
        cells: Vec::with_capacity(cells.len()),
    };
    for cell in cells {
        let t = Instant::now();
        let report = Simulator::run(cell.workload(), cell.cfg.clone());
        let raw_s = t.elapsed().as_secs_f64();
        let s = raw_s * host.factor();
        pass.wall_s += s;
        pass.raw_wall_s += raw_s;
        let accesses = report.accesses.max(1) as f64;
        pass.cells.push(CellRun {
            id: cell.id.clone(),
            ns_per_access: s * 1e9 / accesses,
            raw_ns_per_access: raw_s * 1e9 / accesses,
            outcome: Outcome::from_report(&report),
        });
    }
    pass
}

/// What one reference job takes on the reference host, by definition.
/// End-to-end host times are reported at this host's speed.
pub const REF_MS: f64 = 50.0;

/// A fixed reference job run right before and after each timed piece of
/// work: 10M steps of an ALU loop, then 1M random lookups in a
/// 20k-entry hash map that fits in a core's L2 cache. Each half takes
/// about 25 ms on a 2-core shared host.
///
/// On such a host the simulator's speed moves by about a tenth from pass
/// to pass, and the slowdowns last for tens of seconds: other tenants
/// share the core's pipeline and caches. The two halves of the job slow
/// down with them, each tracking a different part of that contention. The
/// job lives in the benchmark, so no change to the simulator moves it.
/// Scaling each timed piece — a set-up pass or one cell's simulation —
/// by [`REF_MS`] over the job's time around it, then taking medians,
/// takes most of this out: over 35 minutes of 45-second blocks of passes,
/// the spread of block medians fell from 0.14 (`translate`) and 0.10
/// (`populate`) of the median to about 0.07 and 0.06 when scaling whole
/// passes, and for `populate` from 0.054 to 0.040 over 25 further minutes
/// when scaling cell by cell instead. A job of lookups in a 10 MB map,
/// which misses the caches, tracked the simulator worse than no scaling.
pub struct HostRef {
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    samples: Vec<f64>,
}

impl HostRef {
    const KEYS: u64 = 20_000;

    /// Builds the map (untimed) and runs the job once.
    pub fn new() -> HostRef {
        let mut host = HostRef {
            map: (0..Self::KEYS).map(|k| (k, k * 3)).collect(),
            samples: Vec::new(),
        };
        host.sample_ms();
        host
    }

    /// Runs the job; returns its time in ms.
    pub fn sample_ms(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..black_box(10_000_000) {
            x = xorshift(x);
        }
        let mut acc = 0u64;
        for _ in 0..black_box(1_000_000) {
            x = xorshift(x);
            if let Some(v) = self.map.get(&(x % Self::KEYS)) {
                acc = acc.wrapping_add(*v);
            }
        }
        black_box(acc);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.samples.push(ms);
        ms
    }

    /// Call right after a timed piece of work: runs the job and returns
    /// the factor that scales the work's time to the reference host,
    /// [`REF_MS`] over the mean of the job's times just before and after.
    pub fn factor(&mut self) -> f64 {
        let before = *self.samples.last().expect("sampled in new");
        let after = self.sample_ms();
        2.0 * REF_MS / (before + after)
    }

    /// Every job time so far, in ms.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

#[inline]
fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

impl Default for HostRef {
    fn default() -> HostRef {
        HostRef::new()
    }
}

/// A fixed CPU loop; its duration in ms tracks the host's ALU speed.
pub fn host_calib_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..black_box(20_000_000u64) {
        x = xorshift(x);
    }
    black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Peak resident memory of this process, in MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Resident memory of this process now, in MiB (Linux `VmRSS`).
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
