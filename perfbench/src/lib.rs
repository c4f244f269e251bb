//! Host-speed benchmark of the ME-HPT translation simulator.
//!
//! `perfbench --workload W --seed N --seconds S --trace 0|1` runs one
//! workload (`translate` or `populate`, see [`cells`]). With
//! `--trace 0` it times the simulator's public entry points with no
//! instrumentation and prints the end-to-end metrics; with `--trace 1`
//! ([`traced`], the `perfbench-traced` binary) it drives the same cells
//! through each layer's public calls and prints per-layer metrics. Either
//! way it checks the simulated outputs, prints a human-readable table and
//! ends with one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! See `README.md` next to this crate.

pub mod cells;
pub mod digest;
pub mod measure;
pub mod stats;
pub mod traced;

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mehpt_lab::journal::{self, JournalWriter};
use mehpt_lab::{run_cells, CellSpec, LabReport, Progress, RunOptions};
use mehpt_sim::{Simulator, MODEL_REVISION};

use cells::{Bench, Cell};
use digest::{Outcome, DEFAULT_SEED};
use measure::{CellRun, HostRef, Pass, REF_MS};
use stats::{max, median};
use traced::{Counts, Site, Tracer, LOOP_SITES, SITES};

const USAGE: &str = "usage: perfbench --workload translate|populate \
[--seed N] [--seconds S] [--trace 0|1] [--bless]";

/// Parsed command line.
#[derive(Clone, Debug)]
struct Args {
    bench: Bench,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut bench = None;
    let mut args = Args {
        bench: Bench::Translate,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        bless: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                bench = Some(Bench::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds must be a positive number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v}")),
                }
            }
            "--bless" => args.bless = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    args.bench = bench.ok_or("--workload is required")?;
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// What the value summarizes (sample count and statistic).
    how: String,
}

fn metric(name: &str, value: f64, unit: &'static str, how: impl Into<String>) -> Metric {
    Metric {
        name: name.to_string(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        how: how.into(),
    }
}

/// The outcome of a run: metrics, correctness tallies and notes.
struct RunResult {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    notes: Vec<String>,
}

impl RunResult {
    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn print(&self, args: &Args) {
        println!(
            "perfbench {} seed={} seconds={} trace={} scale={} model_revision={}",
            args.bench.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            args.bench.scale(),
            MODEL_REVISION
        );
        for m in &self.metrics {
            println!(
                "  {:<30} {:>16.4} {:<12} {}",
                m.name, m.value, m.unit, m.how
            );
        }
        for n in &self.notes {
            println!("  {n}");
        }
        for p in &self.problems {
            println!("  CHECK FAILED: {p}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Entry point of both binaries. `alloc_count` reads the heap-allocation
/// counter; only the traced binary installs one.
pub fn main_with(alloc_count: Option<fn() -> u64>) -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    mehpt_lab::cli::mute_worker_panics();
    let tmp = PathBuf::from(".perfbench-tmp").join(format!(
        "{}-{}",
        args.bench.name(),
        std::process::id()
    ));
    let result = if args.bless {
        bless(&args)
    } else if args.trace {
        match alloc_count {
            Some(count) => run_traced(&args, count, &tmp),
            None => Err("the traced run needs the perfbench-traced binary".to_string()),
        }
    } else {
        run_untraced(&args)
    };
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(".perfbench-tmp");
    match result {
        Ok(Some(r)) => {
            r.print(&args);
            if r.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// A pass at [`DEFAULT_SEED`]: the statistics the stored digests cover.
fn default_seed_pass(bench: Bench) -> Pass {
    measure::sim_pass(&cells::cells(bench, DEFAULT_SEED), &mut HostRef::new())
}

fn bless(args: &Args) -> Result<Option<RunResult>, String> {
    let pass = default_seed_pass(args.bench);
    let digests = pass
        .cells
        .iter()
        .map(|c| {
            let o = &c.outcome;
            if !o.components_sum() {
                return Err(format!("{}: cycle components do not sum", c.id));
            }
            Ok((c.id.clone(), o.digest()))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let path = digest::bless(args.bench, &digests).map_err(|e| e.to_string())?;
    eprintln!(
        "perfbench: wrote {} digest(s) for {} to {}",
        digests.len(),
        args.bench.name(),
        path.display()
    );
    Ok(None)
}

/// Correctness tallies over cell runs.
#[derive(Default)]
struct Check {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Check {
    /// Checks one cell run: its cycle components sum to the total,
    /// `populate` faults on every access, and its digest equals
    /// `reference` (the first pass's).
    fn cell(&mut self, bench: Bench, run: &CellRun, reference: u64) {
        self.attempted += 1;
        let o = &run.outcome;
        let problem = if !o.components_sum() {
            Some("cycle components do not sum to total_cycles".to_string())
        } else if bench == Bench::Populate && o.faults != o.accesses {
            Some(format!(
                "{} faults on {} accesses; every populate access must fault",
                o.faults, o.accesses
            ))
        } else if o.digest() != reference {
            Some("digest differs between repeated runs".into())
        } else {
            None
        };
        if let Some(p) = problem {
            self.failed += 1;
            self.problems.push(format!("{}: {p}", run.id));
        }
    }

    /// Checks the cells of a [`DEFAULT_SEED`] pass against the stored
    /// digests of the current `MODEL_REVISION`.
    fn golden(&mut self, bench: Bench, pass: &Pass) {
        let expected = digest::expected(bench);
        if expected.is_empty() {
            self.problems.push(format!(
                "no expected digests for {} at MODEL_REVISION {MODEL_REVISION}; \
                 run with --bless after checking the model change",
                bench.name()
            ));
            return;
        }
        for run in &pass.cells {
            self.attempted += 1;
            let got = run.outcome.digest();
            if expected.get(&run.id) != Some(&got) {
                self.failed += 1;
                self.problems.push(format!(
                    "{}: digest {got:#x} at seed {DEFAULT_SEED} does not match the stored {:x?}",
                    run.id,
                    expected.get(&run.id)
                ));
            }
        }
        if pass.cells.len() != expected.len() {
            self.problems.push(format!(
                "{} cells ran at seed {DEFAULT_SEED}, {} digests are stored",
                pass.cells.len(),
                expected.len()
            ));
        }
    }
}

fn run_untraced(args: &Args) -> Result<Option<RunResult>, String> {
    let bench = args.bench;
    let calib_start = measure::host_calib_ms();
    let cells = cells::cells(bench, args.seed);
    let rss_before_ref = measure::rss_mb();
    let mut host = HostRef::new();
    let ref_rss = measure::rss_mb() - rss_before_ref;

    // Every timed piece is paired with its host factor (see `HostRef`).
    let setup_reps = 15;
    let setup: Vec<(f64, f64)> = (0..setup_reps)
        .map(|_| (measure::setup_pass(&cells), host.factor()))
        .collect();
    let budget = Duration::from_secs_f64(args.seconds);
    let t0 = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.is_empty() || t0.elapsed() < budget {
        passes.push(measure::sim_pass(&cells, &mut host));
    }

    let mut check = Check::default();
    let first: HashMap<&str, u64> = passes[0]
        .cells
        .iter()
        .map(|c| (c.id.as_str(), c.outcome.digest()))
        .collect();
    for pass in &passes {
        for run in &pass.cells {
            check.cell(bench, run, first[run.id.as_str()]);
        }
    }
    if args.seed == DEFAULT_SEED {
        check.golden(bench, &passes[0]);
    } else {
        check.golden(bench, &default_seed_pass(bench));
    }
    let calib_end = measure::host_calib_ms();

    // Host times at reference speed (`HostRef`), as medians over the
    // passes; raw figures in brackets.
    let n_wall = passes.len();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let raw_walls: Vec<f64> = passes.iter().map(|p| p.raw_wall_s).collect();
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| p.accesses() as f64 / p.wall_s / 1e6)
        .collect();
    let mut per_cell: BTreeMap<&str, Vec<(f64, f64)>> = BTreeMap::new();
    for pass in &passes {
        for run in &pass.cells {
            per_cell
                .entry(run.id.as_str())
                .or_default()
                .push((run.ns_per_access, run.raw_ns_per_access));
        }
    }
    let cell_ns: Vec<f64> = per_cell
        .values()
        .map(|v| median(&v.iter().map(|x| x.0).collect::<Vec<_>>()))
        .collect();
    let raw_cell_ns: Vec<f64> = per_cell
        .values()
        .map(|v| median(&v.iter().map(|x| x.1).collect::<Vec<_>>()))
        .collect();
    let setup_s: Vec<f64> = setup.iter().map(|(s, f)| s * f).collect();
    let raw_setup: Vec<f64> = setup.iter().map(|(s, _)| *s).collect();
    let outcomes: Vec<&Outcome> = passes[0].cells.iter().map(|c| &c.outcome).collect();
    let n_out = outcomes.len().max(1) as f64;
    let cpa = outcomes.iter().map(|o| o.cycles_per_access()).sum::<f64>() / n_out;
    let pt_peak = outcomes
        .iter()
        .map(|o| o.pt_peak_bytes as f64 / (1 << 20) as f64)
        .sum::<f64>()
        / n_out;
    let accesses = passes[0].accesses();
    let metrics = vec![
        metric(
            "wall_s",
            median(&walls),
            "s",
            format!(
                "median of n={n_wall} passes (raw {:.4} s)",
                median(&raw_walls)
            ),
        ),
        metric(
            "maccesses_per_s",
            median(&rates),
            "Macc/s",
            format!("median of n={n_wall} passes of {accesses} accesses"),
        ),
        metric(
            "ns_per_access_p50",
            median(&cell_ns),
            "ns",
            format!(
                "median over n={} cells of each cell's median over {} passes (raw {:.2})",
                cell_ns.len(),
                passes.len(),
                median(&raw_cell_ns)
            ),
        ),
        metric(
            "ns_per_access_max",
            max(&cell_ns),
            "ns",
            format!(
                "slowest of n={} cells (raw {:.2})",
                cell_ns.len(),
                max(&raw_cell_ns)
            ),
        ),
        metric(
            "setup_s",
            median(&setup_s),
            "s",
            format!(
                "median of n={setup_reps} set-up passes (raw {:.4} s)",
                median(&raw_setup)
            ),
        ),
        metric(
            "peak_rss_mb",
            measure::peak_rss_mb() - ref_rss,
            "MiB",
            format!("VmHWM of this process less the reference map's {ref_rss:.2} MiB"),
        ),
        metric(
            "sim.cycles_per_access",
            cpa,
            "cycles",
            format!("simulated, mean over n={} cells", outcomes.len()),
        ),
        metric(
            "sim.pt_peak_mb",
            pt_peak,
            "MiB",
            format!("simulated, mean over n={} cells", outcomes.len()),
        ),
    ];
    let notes = vec![
        format!(
            "fail_ratio {:.4} ({} of {} cell runs failed a check)",
            check.failed as f64 / check.attempted.max(1) as f64,
            check.failed,
            check.attempted
        ),
        format!("host.calib_ms start {calib_start:.2} end {calib_end:.2}"),
        format!(
            "host.ref_ms median {:.3} of n={} reference jobs; host times above are scaled to a {REF_MS} ms job",
            median(host.samples()),
            host.samples().len()
        ),
        format!(
            "wall_s samples (s): {}",
            walls
                .iter()
                .map(|w| format!("{w:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
    ];
    Ok(Some(RunResult {
        metrics,
        attempted: check.attempted,
        failed: check.failed,
        problems: check.problems,
        notes,
    }))
}

/// Per-site (calls, busy ns) snapshot, to isolate one cell's spans.
fn snapshot(tr: &Tracer) -> Vec<(u64, u64)> {
    SITES
        .iter()
        .map(|&(s, _, _)| (tr.site(s).calls, tr.site(s).busy_ns))
        .collect()
}

fn run_traced(
    args: &Args,
    alloc_count: fn() -> u64,
    tmp: &Path,
) -> Result<Option<RunResult>, String> {
    let bench = args.bench;
    let calib_start = measure::host_calib_ms();
    let mut host = HostRef::new();
    for _ in 0..3 {
        host.sample_ms();
    }
    let span_ns = traced::calibrate_span_ns();
    let cells = cells::cells(bench, args.seed);
    let mut tr = Tracer::new(Some(alloc_count));
    let mut counts = Counts::default();
    let mut check = Check::default();
    let (mut untraced_ns, mut traced_ns, mut passes) = (0u64, 0u64, 0u64);
    let budget = Duration::from_secs_f64(args.seconds);
    let t0 = Instant::now();
    while passes == 0 || t0.elapsed() < budget {
        for cell in &cells {
            let t = Instant::now();
            let report = Simulator::run(cell.workload(), cell.cfg.clone());
            untraced_ns += t.elapsed().as_nanos() as u64;
            let reference = Outcome::from_report(&report);
            let before = snapshot(&tr);
            let (copy, ns) = traced::run_cell(cell, &mut tr, &mut counts);
            traced_ns += ns;
            check.attempted += 1;
            if copy != reference {
                check.failed += 1;
                check.problems.push(format!(
                    "{}: the traced copy diverged from Simulator::run \
                     (accesses {} vs {}, faults {} vs {}, total_cycles {} vs {}); \
                     its per-layer figures below are INVALID",
                    cell.id,
                    copy.accesses,
                    reference.accesses,
                    copy.faults,
                    reference.faults,
                    copy.total_cycles,
                    reference.total_cycles
                ));
                for ((&(_, name, _), (c0, b0)), (c1, b1)) in
                    SITES.iter().zip(&before).zip(snapshot(&tr))
                {
                    if c1 > *c0 {
                        check.problems.push(format!(
                            "INVALID {} {name}: calls {} busy_s {:.6}",
                            cell.id,
                            c1 - c0,
                            (b1 - b0) as f64 / 1e9
                        ));
                    }
                }
            }
        }
        passes += 1;
    }
    let lab = lab_pass(&cells, args, tmp, &mut tr, &mut check)?;
    let calib_end = measure::host_calib_ms();
    for _ in 0..4 {
        host.sample_ms();
    }

    let per_pass = passes as f64;
    let mut metrics = Vec::new();
    for &(site, name, allocs) in &SITES {
        let s = tr.site(site);
        // Lab sites run once per traced run; loop sites once per pass.
        let reps = if matches!(site, Site::LabEngine | Site::LabReport | Site::LabJournal) {
            1.0
        } else {
            per_pass
        };
        let net_busy = (s.busy_ns as f64 - s.calls as f64 * span_ns).max(0.0);
        let how = format!("n={} calls over {reps} pass(es)", s.calls);
        metrics.push(metric(
            &format!("{name}.calls"),
            s.calls as f64 / reps,
            "count",
            "per pass",
        ));
        metrics.push(metric(
            &format!("{name}.busy_s"),
            net_busy / 1e9 / reps,
            "s",
            "per pass, span cost subtracted",
        ));
        metrics.push(metric(
            &format!("{name}.ns_p50"),
            (s.hist.quantile(0.50) - span_ns).max(0.0),
            "ns",
            how.clone(),
        ));
        metrics.push(metric(
            &format!("{name}.ns_p99"),
            (s.hist.quantile(0.99) - span_ns).max(0.0),
            "ns",
            how,
        ));
        if allocs {
            metrics.push(metric(
                &format!("{name}.allocs"),
                s.allocs as f64 / s.calls.max(1) as f64,
                "allocs/call",
                "heap allocations per call",
            ));
        }
    }
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let c = &counts;
    let child_ns: f64 = LOOP_SITES
        .iter()
        .map(|&s| (tr.site(s).busy_ns as f64 - tr.site(s).calls as f64 * span_ns).max(0.0))
        .sum();
    metrics.extend([
        metric(
            "tlb.miss_ratio",
            ratio(c.tlb_l2_misses, c.accesses),
            "ratio",
            "L2 TLB misses / accesses",
        ),
        metric(
            "walk.mem_refs.radix",
            ratio(c.walk_refs[0], c.walks[0]),
            "refs/walk",
            format!("n={} walks", c.walks[0]),
        ),
        metric(
            "walk.mem_refs.ecpt",
            ratio(c.walk_refs[1], c.walks[1]),
            "refs/walk",
            format!("n={} walks", c.walks[1]),
        ),
        metric(
            "walk.mem_refs.core",
            ratio(c.walk_refs[2], c.walks[2]),
            "refs/walk",
            format!("n={} walks", c.walks[2]),
        ),
        metric(
            "ecpt.kicks_per_map",
            ratio(c.kicks[1], c.maps[1]),
            "kicks/map",
            format!("n={} maps", c.maps[1]),
        ),
        metric(
            "core.kicks_per_map",
            ratio(c.kicks[2], c.maps[2]),
            "kicks/map",
            format!("n={} maps", c.maps[2]),
        ),
        metric(
            "ecpt.migrated_per_map",
            ratio(c.migrated[1], c.maps[1]),
            "entries/map",
            format!("n={} maps", c.maps[1]),
        ),
        metric(
            "core.migrated_per_map",
            ratio(c.migrated[2], c.maps[2]),
            "entries/map",
            format!("n={} maps", c.maps[2]),
        ),
        metric(
            "core.chunk_switches",
            c.chunk_switches as f64 / per_pass,
            "count",
            "per pass",
        ),
        metric(
            "mem.thp_fallback_ratio",
            ratio(c.huge_failures, c.huge_attempts),
            "ratio",
            format!("n={} 2MB attempts", c.huge_attempts),
        ),
        metric(
            "mem.relocations",
            c.relocations as f64 / per_pass,
            "count",
            "per pass",
        ),
        metric(
            "sim.self_ns_per_access",
            (untraced_ns as f64 - child_ns) / c.accesses.max(1) as f64,
            "ns/access",
            "untraced Simulator::run minus traced child calls",
        ),
        metric(
            "sim.fault_ratio",
            ratio(c.faults, c.accesses),
            "ratio",
            format!("n={} accesses", c.accesses),
        ),
        metric(
            "lab.cell_ms_p50",
            median(&lab.cell_ms),
            "ms",
            format!("n={} cells", lab.cell_ms.len()),
        ),
        metric(
            "lab.cell_ms_max",
            max(&lab.cell_ms),
            "ms",
            format!("n={} cells", lab.cell_ms.len()),
        ),
        metric(
            "lab.parallel_efficiency",
            lab.cell_ms.iter().sum::<f64>() / (lab.jobs as f64 * lab.engine_ms),
            "ratio",
            format!("sum of cell wall / ({} jobs x engine wall)", lab.jobs),
        ),
        metric(
            "trace.span_ns",
            span_ns,
            "ns",
            "trimmed mean of 200000 empty spans",
        ),
        metric(
            "trace.overhead_ratio",
            ratio(traced_ns, untraced_ns),
            "ratio",
            "traced / untraced wall over the cells",
        ),
        metric(
            "host.calib_ms",
            (calib_start + calib_end) / 2.0,
            "ms",
            format!("start {calib_start:.2}, end {calib_end:.2}"),
        ),
        metric(
            "host.ref_ms",
            median(host.samples()),
            "ms",
            format!(
                "median of n={} reference jobs at start and end",
                host.samples().len()
            ),
        ),
    ]);
    Ok(Some(RunResult {
        metrics,
        attempted: check.attempted,
        failed: check.failed,
        problems: check.problems,
        notes: vec![format!(
            "{passes} traced pass(es) over {} cells",
            cells.len()
        )],
    }))
}

/// What the lab layer's traced pass measured.
struct LabStats {
    cell_ms: Vec<f64>,
    engine_ms: f64,
    jobs: usize,
}

/// Drives the cells through the lab: the engine (`run_cells`), report
/// rendering (`to_json` + `to_csv`) and the result journal (`append` +
/// `sync`), each in its own span.
fn lab_pass(
    cells: &[Cell],
    args: &Args,
    tmp: &Path,
    tr: &mut Tracer,
    check: &mut Check,
) -> Result<LabStats, String> {
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let specs: Vec<CellSpec> = cells.iter().map(Cell::spec).collect();
    let walls = Mutex::new(Vec::new());
    let progress = |p: Progress| {
        walls
            .lock()
            .expect("progress lock poisoned")
            .push(p.wall_millis as f64)
    };
    let t0 = Instant::now();
    let results = tr.span(Site::LabEngine, || {
        run_cells(&specs, &RunOptions::with_jobs(jobs), &progress)
    });
    let engine_ms = t0.elapsed().as_secs_f64() * 1e3;
    for r in &results {
        check.attempted += 1;
        if r.status.is_failure() {
            check.failed += 1;
            check
                .problems
                .push(format!("lab {}: {}", r.spec.id(), r.status.label()));
        }
    }
    let report = LabReport {
        preset: args.bench.name().to_string(),
        scale: args.bench.scale(),
        base_seed: args.seed,
        seeds: 1,
        retries: 0,
        timeout_secs: None,
        fault: None,
        cells: results,
    };
    std::hint::black_box(tr.span(Site::LabReport, || (report.to_json(), report.to_csv())));
    std::fs::create_dir_all(tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let path = tmp.join("trace.journal");
    let mut writer =
        JournalWriter::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    for cell in &report.cells {
        let id = cell.spec.id();
        let fp = journal::fingerprint(&cell.spec, None, 0, None, 1);
        for rep in &cell.replicates {
            tr.span(Site::LabJournal, || {
                writer.append(&id, rep.replicate, fp, rep)
            })
            .map_err(|e| format!("journal append: {e}"))?;
        }
    }
    tr.span(Site::LabJournal, || writer.sync())
        .map_err(|e| format!("journal sync: {e}"))?;
    Ok(LabStats {
        cell_ms: walls.into_inner().expect("progress lock poisoned"),
        engine_ms,
        jobs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv("--workload populate --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(a.bench, Bench::Populate);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
        assert!(parse_args(&argv("--seed 7")).is_err());
        assert!(parse_args(&argv("--workload translate --trace 2")).is_err());
        assert!(parse_args(&argv("--workload sweep")).is_err());
    }
}
