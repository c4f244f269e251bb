//! Named experiment presets: the paper's tables and figures, and the
//! Sec. VII-D technique ablation, as grids.
//!
//! Each preset couples an [`ExperimentGrid`] (which cells to run) with a
//! renderer that turns the sweep's [`LabReport`] into the paper-style
//! table. `mehpt-lab all` unions every preset's cells, runs each distinct
//! cell once, and renders all presets from the shared results.

use std::fmt::Write as _;

use mehpt_core::L2pTable;
use mehpt_ecpt::{ClusterEntry, CLUSTER_PTES};
use mehpt_sim::PtKind;
use mehpt_types::PageSize;
use mehpt_workloads::App;

use crate::fmt::{fmt_bytes, fmt_ci, fmt_mb, geomean};
use crate::grid::{ExperimentGrid, FmfiAxis, Variant};
use crate::report::{CellStatus, LabReport};

/// A named experiment preset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Preset {
    /// Table I — memory consumption of the applications.
    Table1,
    /// Table II — max way sizes and mapping space per chunk size (analytic).
    Table2,
    /// Figure 7 — performance across the fragmentation (FMFI) sweep.
    Fig7,
    /// Figure 8 — maximum contiguous HPT allocation.
    Fig8,
    /// Figure 9 — speedup over radix without THP.
    Fig9,
    /// Figure 10 — PT memory reduction over ECPT, by technique.
    Fig10,
    /// Figure 11 — upsizes per way.
    Fig11,
    /// Figure 12 — final way sizes.
    Fig12,
    /// Figure 13 — fraction of entries moved per upsize.
    Fig13,
    /// Figure 14 — L2P entries used.
    Fig14,
    /// Figure 15 — way memory for small graphs, 1MB-only vs the ladder.
    Fig15,
    /// Figure 16 — cuckoo re-insertion distribution.
    Fig16,
    /// Section VII-D — each ME-HPT technique toggled independently.
    Ablation,
}

/// Every preset, in the paper's order.
pub const PRESETS: [Preset; 13] = [
    Preset::Table1,
    Preset::Table2,
    Preset::Fig7,
    Preset::Fig8,
    Preset::Fig9,
    Preset::Fig10,
    Preset::Fig11,
    Preset::Fig12,
    Preset::Fig13,
    Preset::Fig14,
    Preset::Fig15,
    Preset::Fig16,
    Preset::Ablation,
];

impl Preset {
    /// CLI name (`mehpt-lab <name>`).
    pub fn name(self) -> &'static str {
        match self {
            Preset::Table1 => "table1",
            Preset::Table2 => "table2",
            Preset::Fig7 => "fig7",
            Preset::Fig8 => "fig8",
            Preset::Fig9 => "fig9",
            Preset::Fig10 => "fig10",
            Preset::Fig11 => "fig11",
            Preset::Fig12 => "fig12",
            Preset::Fig13 => "fig13",
            Preset::Fig14 => "fig14",
            Preset::Fig15 => "fig15",
            Preset::Fig16 => "fig16",
            Preset::Ablation => "ablation",
        }
    }

    /// Parses a CLI name.
    pub fn parse(name: &str) -> Option<Preset> {
        PRESETS.into_iter().find(|p| p.name() == name)
    }

    /// Human title (the banner line).
    pub fn title(self) -> &'static str {
        match self {
            Preset::Table1 => "Table I: Memory consumption of our applications",
            Preset::Table2 => "Table II: Maximum HPT way sizes and mapping space per chunk size",
            Preset::Fig7 => "Figure 7: Cycles per access across the fragmentation sweep",
            Preset::Fig8 => "Figure 8: Maximum contiguous memory allocated for the HPTs",
            Preset::Fig9 => "Figure 9: Speedup over Radix (no THP)",
            Preset::Fig10 => "Figure 10: Page-table memory reduction over ECPT, by technique",
            Preset::Fig11 => "Figure 11: Upsizing operations per way (ME-HPT, 4KB tables)",
            Preset::Fig12 => "Figure 12: Size of each ME-HPT way (4KB tables)",
            Preset::Fig13 => "Figure 13: Fraction of entries moved per 4KB-table upsize (ME-HPT)",
            Preset::Fig14 => "Figure 14: L2P table entries used per application",
            Preset::Fig15 => "Figure 15: Average 4KB-HPT way memory for small graphs",
            Preset::Fig16 => "Figure 16: Cuckoo re-insertions per insertion or rehash (ME-HPT)",
            Preset::Ablation => {
                "Ablation (Sec. VII-D): each ME-HPT technique toggled independently"
            }
        }
    }

    /// The watchdog default for this preset (whole seconds), applied when
    /// the user passes no `--timeout`. The fragmentation sweep is the one
    /// preset whose ECPT cuckoo-insertion paths can degenerate into
    /// unbounded resize loops (the paper's Sec. VII regime), so it runs
    /// under a generous bound by default; everything else runs unwatched.
    pub fn default_timeout_secs(self) -> Option<u64> {
        match self {
            Preset::Fig7 => Some(600),
            _ => None,
        }
    }

    /// The cells this preset needs. Empty for the analytic [`Preset::Table2`].
    pub fn grid(self) -> ExperimentGrid {
        let all = App::all().to_vec();
        let both = vec![false, true];
        match self {
            Preset::Table1 => ExperimentGrid::paper(all, vec![PtKind::Radix, PtKind::Ecpt], both),
            Preset::Table2 => ExperimentGrid::paper(vec![], vec![], vec![]),
            Preset::Fig7 => {
                let mut grid = ExperimentGrid::paper(
                    vec![App::Gups, App::Bfs, App::Mummer],
                    vec![PtKind::Ecpt, PtKind::MeHpt],
                    vec![false],
                );
                grid.fmfi = FmfiAxis::sweep();
                grid
            }
            Preset::Fig8 => ExperimentGrid::paper(all, vec![PtKind::Ecpt, PtKind::MeHpt], both),
            Preset::Fig9 => {
                ExperimentGrid::paper(all, vec![PtKind::Radix, PtKind::Ecpt, PtKind::MeHpt], both)
            }
            Preset::Fig10 => {
                let mut grid = ExperimentGrid::paper(all, vec![PtKind::Ecpt, PtKind::MeHpt], both);
                grid.variants = vec![Variant::Full, Variant::NoInPlace, Variant::NoPerWay];
                grid
            }
            Preset::Fig11 | Preset::Fig12 | Preset::Fig13 | Preset::Fig14 => {
                ExperimentGrid::paper(all, vec![PtKind::MeHpt], both)
            }
            Preset::Fig15 => {
                let mut grid = ExperimentGrid::paper(
                    App::graph_apps().to_vec(),
                    vec![PtKind::MeHpt],
                    vec![false],
                );
                grid.variants = vec![Variant::Full, Variant::Fixed1Mb];
                grid.graph_nodes = vec![1_000, 10_000, 100_000];
                grid
            }
            Preset::Fig16 => ExperimentGrid::paper(all, vec![PtKind::MeHpt], vec![false]),
            Preset::Ablation => {
                let mut grid = ExperimentGrid::paper(
                    ABLATION_APPS.to_vec(),
                    vec![PtKind::Ecpt, PtKind::MeHpt],
                    vec![false],
                );
                grid.variants = ABLATION_VARIANTS.map(|(_, v)| v).to_vec();
                grid
            }
        }
    }

    /// Renders the preset's table from a report holding (at least) the
    /// preset's cells. Missing or failed cells render as `-`.
    pub fn render(self, report: &LabReport) -> String {
        let mut out = String::new();
        let _ = writeln!(out);
        let _ = writeln!(out, "{}", "=".repeat(72));
        let _ = writeln!(out, "{}", self.title());
        let _ = writeln!(
            out,
            "  (scale {}, base seed {:#x})",
            report.scale, report.base_seed
        );
        let abandoned = report.workers_abandoned();
        if abandoned > 0 {
            let _ = writeln!(
                out,
                "  (workers abandoned: {abandoned} — timed-out attempts, see report.json)"
            );
        }
        let _ = writeln!(out, "{}", "=".repeat(72));
        match self {
            Preset::Table1 => render_table1(report, &mut out),
            Preset::Table2 => render_table2(&mut out),
            Preset::Fig7 => render_fig7(report, &mut out),
            Preset::Fig8 => render_fig8(report, &mut out),
            Preset::Fig9 => render_fig9(report, &mut out),
            Preset::Fig10 => render_fig10(report, &mut out),
            Preset::Fig11 => render_fig11(report, &mut out),
            Preset::Fig12 => render_fig12(report, &mut out),
            Preset::Fig13 => render_fig13(report, &mut out),
            Preset::Fig14 => render_fig14(report, &mut out),
            Preset::Fig15 => render_fig15(report, &mut out),
            Preset::Fig16 => render_fig16(report, &mut out),
            Preset::Ablation => render_ablation(report, &mut out),
        }
        out
    }
}

const FULL: Variant = Variant::Full;

/// The ablation's apps: GUPS carries Sec. VII-D's argument, BFS and
/// MUMmer are a graph and a mixed workload.
const ABLATION_APPS: [App; 3] = [App::Gups, App::Bfs, App::Mummer];

/// The ablation's ME-HPT rows (label, variant), shown under the ECPT
/// baseline row.
const ABLATION_VARIANTS: [(&str, Variant); 5] = [
    ("ME-HPT full", Variant::Full),
    ("  - in-place resizing", Variant::NoInPlace),
    ("  - per-way resizing", Variant::NoPerWay),
    ("  - both", Variant::Neither),
    ("  1MB-only chunks", Variant::Fixed1Mb),
];

fn render_table1(r: &LabReport, out: &mut String) {
    let _ = writeln!(
        out,
        "{:<9} {:>7} | {:>10} {:>10} | {:>9} {:>9} | {:>9} {:>9}",
        "App", "Data", "Contig", "Contig", "Total", "Total", "Total", "Total"
    );
    let _ = writeln!(
        out,
        "{:<9} {:>7} | {:>10} {:>10} | {:>9} {:>9} | {:>9} {:>9}",
        "", "(GB)", "Tree(KB)", "ECPT(KB)", "TreeMB", "ECPTMB", "TreeTHP", "ECPTTHP"
    );
    let _ = writeln!(out, "{}", "-".repeat(88));
    let mut geo: Vec<Vec<f64>> = vec![Vec::new(); 7];
    for app in App::all() {
        let (Some(tree), Some(tree_thp), Some(ecpt), Some(ecpt_thp)) = (
            r.metrics(app, PtKind::Radix, false, FULL),
            r.metrics(app, PtKind::Radix, true, FULL),
            r.metrics(app, PtKind::Ecpt, false, FULL),
            r.metrics(app, PtKind::Ecpt, true, FULL),
        ) else {
            let _ = writeln!(out, "{:<9} (cells missing or failed)", app.name());
            continue;
        };
        let data_gb = tree.data_bytes_nominal as f64 / mehpt_types::GIB as f64;
        let cols = [
            data_gb,
            tree.pt_max_contiguous as f64 / 1024.0,
            ecpt.pt_max_contiguous as f64 / 1024.0,
            tree.pt_peak_bytes as f64,
            ecpt.pt_peak_bytes as f64,
            tree_thp.pt_peak_bytes as f64,
            ecpt_thp.pt_peak_bytes as f64,
        ];
        for (g, c) in geo.iter_mut().zip(cols) {
            g.push(c);
        }
        let _ = writeln!(
            out,
            "{:<9} {:>7.1} | {:>10.0} {:>10.0} | {:>9} {:>9} | {:>9} {:>9}",
            app.name(),
            data_gb,
            cols[1],
            cols[2],
            fmt_mb(tree.pt_peak_bytes),
            fmt_mb(ecpt.pt_peak_bytes),
            fmt_mb(tree_thp.pt_peak_bytes),
            fmt_mb(ecpt_thp.pt_peak_bytes),
        );
    }
    let _ = writeln!(out, "{}", "-".repeat(88));
    let _ = writeln!(
        out,
        "{:<9} {:>7.1} | {:>10.1} {:>10.1} | {:>9.1} {:>9.1} | {:>9.1} {:>9.1}",
        "GeoMean",
        geomean(&geo[0]),
        geomean(&geo[1]),
        geomean(&geo[2]),
        geomean(&geo[3]) / (1 << 20) as f64,
        geomean(&geo[4]) / (1 << 20) as f64,
        geomean(&geo[5]) / (1 << 20) as f64,
        geomean(&geo[6]) / (1 << 20) as f64,
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Paper (GeoMean row of Table I): data 13.9GB, tree contiguity 4KB,"
    );
    let _ = writeln!(
        out,
        "ECPT contiguity 12.7MB, tree/ECPT totals 23.5/56.0MB (no THP) and 7.9/18.0MB (THP)."
    );
}

fn render_table2(out: &mut String) {
    // Analytic: derived directly from the design's constants (64 L2P
    // entries per subtable after stealing, 64-byte cluster entries holding
    // 8 translations, 3 ways).
    let max_chunks: u64 = 64;
    let ways: u64 = 3;
    let _ = writeln!(
        out,
        "{:<10} {:>14} {:>24} {:>24}",
        "Chunk", "Max way size", "Map space (4KB pages)", "Map space (2MB pages)"
    );
    let _ = writeln!(out, "{}", "-".repeat(76));
    for &chunk in mehpt_core::ChunkSizePolicy::paper_default().sizes() {
        let way_bytes = max_chunks * chunk;
        let entries = ways * way_bytes / ClusterEntry::BYTES;
        let pages = entries * CLUSTER_PTES as u64;
        let space_4k = pages * PageSize::Base4K.bytes();
        let space_2m = pages * PageSize::Huge2M.bytes();
        let _ = writeln!(
            out,
            "{:<10} {:>14} {:>24} {:>24}",
            fmt_bytes(chunk),
            fmt_bytes(way_bytes),
            fmt_bytes(space_4k),
            fmt_bytes(space_2m)
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Paper: 8KB→512KB way, 768MB / 384GB; 1MB→64MB way, 96GB / 48TB;"
    );
    let _ = writeln!(
        out,
        "       8MB→512MB way, 768GB / 384TB; 64MB→4GB way, 6TB / 3PB."
    );
}

fn render_fig7(r: &LabReport, out: &mut String) {
    // One column per FMFI point, one row per app × kind. Cells print the
    // cycles-per-access mean with its 95% CI band when the sweep ran with
    // `--seeds > 1`; `abort` marks the modeled ECPT contiguous-allocation
    // failure at high fragmentation.
    let points = FmfiAxis::sweep().points();
    let _ = write!(out, "{:<9} {:<7} |", "App", "PT");
    for f in &points {
        let _ = write!(out, " {:>9}", format!("f={f:.1}"));
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "{}", "-".repeat(20 + 10 * points.len()));
    let mut abort_onsets = Vec::new();
    for app in [App::Gups, App::Bfs, App::Mummer] {
        for (kind, label) in [(PtKind::Ecpt, "ECPT"), (PtKind::MeHpt, "ME-HPT")] {
            let _ = write!(out, "{:<9} {:<7} |", app.name(), label);
            let mut onset: Option<f64> = None;
            for &f in &points {
                let cell = r.cells.iter().find(|c| {
                    c.spec.app == app
                        && c.spec.kind == kind
                        && !c.spec.thp
                        && c.spec.variant == FULL
                        && (c.spec.fragmentation - f).abs() < 1e-9
                });
                let text = match cell {
                    Some(c) if c.status == CellStatus::Failed => "failed".to_string(),
                    Some(c) if c.status == CellStatus::TimedOut => "timeout".to_string(),
                    Some(c) => {
                        let aborted = c.status == CellStatus::Aborted;
                        if aborted && onset.is_none() {
                            onset = Some(f);
                        }
                        match c.stats.as_ref().and_then(|s| s.field("cycles_per_access")) {
                            Some(cpa) if !aborted => fmt_ci(cpa.mean, cpa.ci95),
                            Some(cpa) => format!("{}*", fmt_ci(cpa.mean, cpa.ci95)),
                            None => "abort".to_string(),
                        }
                    }
                    None => "-".to_string(),
                };
                let _ = write!(out, " {text:>9}");
            }
            if let Some(f) = onset {
                abort_onsets.push((app, label, f));
            }
            let _ = writeln!(out);
        }
    }
    let _ = writeln!(out, "{}", "-".repeat(20 + 10 * points.len()));
    if r.seeds > 1 {
        let _ = writeln!(
            out,
            "Cells are cycles-per-access mean ± 95% CI over {} replicate seeds.",
            r.seeds
        );
    } else {
        let _ = writeln!(
            out,
            "Single-seed sweep; re-run with --seeds N for confidence bands."
        );
    }
    for (app, label, f) in &abort_onsets {
        let _ = writeln!(
            out,
            "{} {}: contiguous allocation fails from FMFI {f:.1} (*)",
            app.name(),
            label
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Paper: ECPT's large contiguous ways stop fitting as fragmentation"
    );
    let _ = writeln!(
        out,
        "rises (abort past ~0.7 FMFI) while ME-HPT's chunked ways keep"
    );
    let _ = writeln!(out, "running with flat cycles-per-access.");
}

fn render_fig8(r: &LabReport, out: &mut String) {
    let _ = writeln!(
        out,
        "{:<9} | {:>10} {:>10} | {:>10} {:>10} | {:>10}",
        "App", "ECPT", "ECPT+THP", "ME-HPT", "MEHPT+THP", "reduction"
    );
    let _ = writeln!(out, "{}", "-".repeat(72));
    let mut reductions = Vec::new();
    let mut reductions_thp = Vec::new();
    let mut geo: Vec<Vec<f64>> = vec![Vec::new(); 4];
    for app in App::all() {
        let (Some(ecpt), Some(ecpt_thp), Some(mehpt), Some(mehpt_thp)) = (
            r.metrics(app, PtKind::Ecpt, false, FULL),
            r.metrics(app, PtKind::Ecpt, true, FULL),
            r.metrics(app, PtKind::MeHpt, false, FULL),
            r.metrics(app, PtKind::MeHpt, true, FULL),
        ) else {
            let _ = writeln!(out, "{:<9} (cells missing or failed)", app.name());
            continue;
        };
        let red = 1.0 - mehpt.pt_max_contiguous as f64 / ecpt.pt_max_contiguous.max(1) as f64;
        let red_thp =
            1.0 - mehpt_thp.pt_max_contiguous as f64 / ecpt_thp.pt_max_contiguous.max(1) as f64;
        reductions.push(red);
        reductions_thp.push(red_thp);
        for (g, v) in geo.iter_mut().zip([
            ecpt.pt_max_contiguous,
            ecpt_thp.pt_max_contiguous,
            mehpt.pt_max_contiguous,
            mehpt_thp.pt_max_contiguous,
        ]) {
            g.push(v as f64);
        }
        let _ = writeln!(
            out,
            "{:<9} | {:>10} {:>10} | {:>10} {:>10} | {:>9.0}%",
            app.name(),
            fmt_bytes(ecpt.pt_max_contiguous),
            fmt_bytes(ecpt_thp.pt_max_contiguous),
            fmt_bytes(mehpt.pt_max_contiguous),
            fmt_bytes(mehpt_thp.pt_max_contiguous),
            red * 100.0
        );
    }
    let _ = writeln!(out, "{}", "-".repeat(72));
    if !reductions.is_empty() {
        let avg = reductions.iter().sum::<f64>() / reductions.len() as f64;
        let avg_thp = reductions_thp.iter().sum::<f64>() / reductions_thp.len() as f64;
        let _ = writeln!(
            out,
            "Per-app mean reduction:     {:.0}% (no THP), {:.0}% (THP)",
            avg * 100.0,
            avg_thp * 100.0
        );
        let g = |i: usize| geomean(&geo[i]);
        let _ = writeln!(
            out,
            "GeoMean contiguity: ECPT {:.1}MB -> ME-HPT {:.2}MB ({:.0}% reduction, no THP)",
            g(0) / (1 << 20) as f64,
            g(2) / (1 << 20) as f64,
            (1.0 - g(2) / g(0).max(1.0)) * 100.0
        );
        let _ = writeln!(
            out,
            "            with THP: ECPT {:.1}MB -> ME-HPT {:.2}MB ({:.0}% reduction)",
            g(1) / (1 << 20) as f64,
            g(3) / (1 << 20) as f64,
            (1.0 - g(3) / g(1).max(1.0)) * 100.0
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Paper: 92% (no THP) and 84% (THP) contiguity reduction;"
    );
    let _ = writeln!(out, "GUPS/SysBench drop from 64MB to 1MB.");
}

fn render_fig9(r: &LabReport, out: &mut String) {
    let _ = writeln!(
        out,
        "{:<9} | {:>7} {:>7} {:>7} | {:>9} {:>9} {:>9}",
        "App", "Radix", "ECPT", "ME-HPT", "RadixTHP", "ECPT+THP", "MEHPT+THP"
    );
    let _ = writeln!(out, "{}", "-".repeat(72));
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 6];
    let mut vs_ecpt = Vec::new();
    let mut vs_ecpt_thp = Vec::new();
    let configs = [
        (PtKind::Radix, false),
        (PtKind::Ecpt, false),
        (PtKind::MeHpt, false),
        (PtKind::Radix, true),
        (PtKind::Ecpt, true),
        (PtKind::MeHpt, true),
    ];
    for app in App::all() {
        let Some(base) = r.metrics(app, PtKind::Radix, false, FULL) else {
            let _ = writeln!(out, "{:<9} (baseline missing or failed)", app.name());
            continue;
        };
        let mut speeds = Vec::new();
        let mut note = String::new();
        for (i, (kind, thp)) in configs.iter().enumerate() {
            let Some(cell) = r.cell(app, *kind, *thp, FULL) else {
                note = format!("  [{:?} thp={} missing]", kind, thp);
                speeds.push(0.0);
                continue;
            };
            if let Some(msg) = &cell.error {
                note = format!("  [{:?} thp={}: {msg}]", kind, thp);
            }
            let s = cell.metrics.as_ref().map_or(0.0, |m| m.speedup_over(base));
            cols[i].push(s);
            speeds.push(s);
        }
        let _ = writeln!(
            out,
            "{:<9} | {:>7.2} {:>7.2} {:>7.2} | {:>9.2} {:>9.2} {:>9.2}{}",
            app.name(),
            speeds[0],
            speeds[1],
            speeds[2],
            speeds[3],
            speeds[4],
            speeds[5],
            note
        );
        if speeds[1] > 0.0 && speeds[4] > 0.0 {
            vs_ecpt.push(speeds[2] / speeds[1]);
            vs_ecpt_thp.push(speeds[5] / speeds[4]);
        }
    }
    let _ = writeln!(out, "{}", "-".repeat(72));
    let _ = writeln!(
        out,
        "{:<9} | {:>7.2} {:>7.2} {:>7.2} | {:>9.2} {:>9.2} {:>9.2}",
        "GeoMean",
        geomean(&cols[0]),
        geomean(&cols[1]),
        geomean(&cols[2]),
        geomean(&cols[3]),
        geomean(&cols[4]),
        geomean(&cols[5]),
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "ME-HPT over ECPT: {:.2}x (no THP), {:.2}x (THP)   [paper: 1.09x / 1.06x]",
        geomean(&vs_ecpt),
        geomean(&vs_ecpt_thp)
    );
    let _ = writeln!(
        out,
        "ME-HPT over Radix(no THP): {:.2}x; ME-HPT+THP: {:.2}x   [paper: 1.23x / 1.28x]",
        geomean(&cols[2]),
        geomean(&cols[5])
    );
}

fn render_fig10(r: &LabReport, out: &mut String) {
    fn row(r: &LabReport, app: App, thp: bool) -> Option<(f64, f64, f64, f64)> {
        let ecpt = r
            .metrics(app, PtKind::Ecpt, thp, Variant::Full)?
            .pt_peak_bytes as f64;
        let full = r
            .metrics(app, PtKind::MeHpt, thp, Variant::Full)?
            .pt_peak_bytes as f64;
        let no_inplace = r
            .metrics(app, PtKind::MeHpt, thp, Variant::NoInPlace)?
            .pt_peak_bytes as f64;
        let no_perway = r
            .metrics(app, PtKind::MeHpt, thp, Variant::NoPerWay)?
            .pt_peak_bytes as f64;
        let reduction = (ecpt - full).max(0.0);
        let d_inplace = (no_inplace - full).max(0.0);
        let d_perway = (no_perway - full).max(0.0);
        let denom = (d_inplace + d_perway).max(1.0);
        let inplace_share = d_inplace / denom;
        Some((
            reduction / ecpt.max(1.0),
            reduction / (1u64 << 20) as f64,
            inplace_share,
            1.0 - inplace_share,
        ))
    }
    let _ = writeln!(
        out,
        "{:<9} | {:>7} {:>8} {:>9} {:>8} | {:>7} {:>8} {:>9} {:>8}",
        "App", "red%", "abs(MB)", "inplace%", "perway%", "redTHP%", "absTHP", "inplace%", "perway%"
    );
    let _ = writeln!(out, "{}", "-".repeat(88));
    let mut reds = Vec::new();
    let mut reds_thp = Vec::new();
    let mut in_shares = Vec::new();
    for app in App::all() {
        let (Some((red, mb, ip, pw)), Some((red_t, mb_t, ip_t, pw_t))) =
            (row(r, app, false), row(r, app, true))
        else {
            let _ = writeln!(out, "{:<9} (cells missing or failed)", app.name());
            continue;
        };
        reds.push(red);
        reds_thp.push(red_t);
        in_shares.push(ip);
        let _ = writeln!(
            out,
            "{:<9} | {:>6.0}% {:>8.1} {:>8.0}% {:>7.0}% | {:>6.0}% {:>8.1} {:>8.0}% {:>7.0}%",
            app.name(),
            red * 100.0,
            mb,
            ip * 100.0,
            pw * 100.0,
            red_t * 100.0,
            mb_t,
            ip_t * 100.0,
            pw_t * 100.0,
        );
    }
    let _ = writeln!(out, "{}", "-".repeat(88));
    if !reds.is_empty() {
        let _ = writeln!(
            out,
            "Mean reduction: {:.0}% (no THP), {:.0}% (THP); mean in-place share {:.0}%",
            100.0 * reds.iter().sum::<f64>() / reds.len() as f64,
            100.0 * reds_thp.iter().sum::<f64>() / reds_thp.len() as f64,
            100.0 * in_shares.iter().sum::<f64>() / in_shares.len() as f64,
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Paper: 43%/41% savings; in-place is 75-80% of it, per-way 20-25%."
    );
}

fn fmt_ways(v: &[u64]) -> String {
    if v.is_empty() {
        return "0/0/0".to_string();
    }
    v.iter().map(u64::to_string).collect::<Vec<_>>().join("/")
}

fn render_fig11(r: &LabReport, out: &mut String) {
    let _ = writeln!(
        out,
        "{:<9} | {:>14} {:>14} | {:>14} {:>14}",
        "App", "4KB ways", "4KB ways THP", "2MB ways", "2MB ways THP"
    );
    let _ = writeln!(out, "{}", "-".repeat(74));
    let mut sums = [0.0f64; 3];
    let mut n = 0;
    for app in App::all() {
        let (Some(plain), Some(thp)) = (
            r.metrics(app, PtKind::MeHpt, false, FULL),
            r.metrics(app, PtKind::MeHpt, true, FULL),
        ) else {
            let _ = writeln!(out, "{:<9} (cells missing or failed)", app.name());
            continue;
        };
        let _ = writeln!(
            out,
            "{:<9} | {:>14} {:>14} | {:>14} {:>14}",
            app.name(),
            fmt_ways(&plain.upsizes_per_way_4k),
            fmt_ways(&thp.upsizes_per_way_4k),
            fmt_ways(&plain.upsizes_per_way_2m),
            fmt_ways(&thp.upsizes_per_way_2m),
        );
        if plain.upsizes_per_way_4k.len() == 3 {
            for (s, &u) in sums.iter_mut().zip(&plain.upsizes_per_way_4k) {
                *s += u as f64;
            }
            n += 1;
        }
    }
    let _ = writeln!(out, "{}", "-".repeat(74));
    if n > 0 {
        let _ = writeln!(
            out,
            "Average upsizes per way (no THP): {:.1} / {:.1} / {:.1}",
            sums[0] / n as f64,
            sums[1] / n as f64,
            sums[2] / n as f64
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Paper: ways upsized 10.6/10.5/9.9 times on average (no THP);"
    );
    let _ = writeln!(
        out,
        "GUPS/SysBench peak at 13 per way and never upsize their 4KB"
    );
    let _ = writeln!(
        out,
        "tables under THP (5 upsizes per way in the 2MB tables instead)."
    );
}

fn render_fig12(r: &LabReport, out: &mut String) {
    fn ways(v: &[u64]) -> String {
        if v.is_empty() {
            // The table was never created: it retains the notional initial
            // 8KB way (the paper plots "8KB" for GUPS/SysBench under THP).
            return "8KB*".to_string();
        }
        v.iter()
            .map(|&b| fmt_bytes(b))
            .collect::<Vec<_>>()
            .join(" / ")
    }
    let _ = writeln!(
        out,
        "{:<9} | {:>26} | {:>26}",
        "App", "ways (no THP)", "ways (THP)"
    );
    let _ = writeln!(out, "{}", "-".repeat(70));
    let mut unequal = 0;
    let mut rows = 0;
    for app in App::all() {
        let (Some(plain), Some(thp)) = (
            r.metrics(app, PtKind::MeHpt, false, FULL),
            r.metrics(app, PtKind::MeHpt, true, FULL),
        ) else {
            let _ = writeln!(out, "{:<9} (cells missing or failed)", app.name());
            continue;
        };
        rows += 1;
        if plain
            .way_sizes_4k
            .iter()
            .any(|&s| s != *plain.way_sizes_4k.first().unwrap_or(&0))
        {
            unequal += 1;
        }
        let _ = writeln!(
            out,
            "{:<9} | {:>26} | {:>26}",
            app.name(),
            ways(&plain.way_sizes_4k),
            ways(&thp.way_sizes_4k),
        );
    }
    let _ = writeln!(out, "{}", "-".repeat(70));
    let _ = writeln!(
        out,
        "Applications with unequal way sizes (no THP): {unequal} of {rows}"
    );
    let _ = writeln!(
        out,
        "(* = table never instantiated; retains the initial 8KB way)"
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Paper: GUPS/SysBench reach 64MB per way without THP and stay at"
    );
    let _ = writeln!(
        out,
        "the initial 8KB with THP; not all ways are equal — per-way"
    );
    let _ = writeln!(out, "resizing at work.");
}

fn render_fig13(r: &LabReport, out: &mut String) {
    let _ = writeln!(out, "{:<9} | {:>8} {:>8}", "App", "no THP", "THP");
    let _ = writeln!(out, "{}", "-".repeat(32));
    let mut vals = Vec::new();
    for app in App::all() {
        let (Some(plain), Some(thp)) = (
            r.metrics(app, PtKind::MeHpt, false, FULL),
            r.metrics(app, PtKind::MeHpt, true, FULL),
        ) else {
            let _ = writeln!(out, "{:<9} (cells missing or failed)", app.name());
            continue;
        };
        let fmt = |f: f64, ups: &[u64]| {
            if ups.iter().sum::<u64>() == 0 {
                "-".to_string()
            } else {
                format!("{f:.2}")
            }
        };
        if plain.upsizes_per_way_4k.iter().sum::<u64>() > 0 {
            vals.push(plain.moved_fraction_4k);
        }
        let _ = writeln!(
            out,
            "{:<9} | {:>8} {:>8}",
            app.name(),
            fmt(plain.moved_fraction_4k, &plain.upsizes_per_way_4k),
            fmt(thp.moved_fraction_4k, &thp.upsizes_per_way_4k),
        );
    }
    let _ = writeln!(out, "{}", "-".repeat(32));
    let avg = vals.iter().sum::<f64>() / vals.len().max(1) as f64;
    let _ = writeln!(out, "Average moved fraction (no THP): {avg:.2}");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Paper: close to the expected 0.5 for every application (out-of-"
    );
    let _ = writeln!(
        out,
        "place baselines move 1.0 of the entries). Chunk-size switches"
    );
    let _ = writeln!(
        out,
        "(at most one per run) are out-of-place and pull the mean above 0.5."
    );
}

fn render_fig14(r: &LabReport, out: &mut String) {
    // The L2P lives in the MMU, so the OS saves and restores its live
    // entries on every context switch (Sec. V-C); the last column is that
    // cost for the no-THP run.
    let _ = writeln!(
        out,
        "{:<9} | {:>8} {:>8} | {:>10}",
        "App", "no THP", "THP", "switch cyc"
    );
    let _ = writeln!(out, "{}", "-".repeat(45));
    let mut total = 0u64;
    let mut n = 0u64;
    let mut switch_total = 0u64;
    for app in App::all() {
        let (Some(plain), Some(thp)) = (
            r.metrics(app, PtKind::MeHpt, false, FULL),
            r.metrics(app, PtKind::MeHpt, true, FULL),
        ) else {
            let _ = writeln!(out, "{:<9} (cells missing or failed)", app.name());
            continue;
        };
        total += plain.l2p_entries_used + thp.l2p_entries_used;
        n += 2;
        let switch = L2pTable::save_restore_cycles(plain.l2p_entries_used);
        switch_total += switch;
        let _ = writeln!(
            out,
            "{:<9} | {:>8} {:>8} | {:>10}",
            app.name(),
            plain.l2p_entries_used,
            thp.l2p_entries_used,
            switch
        );
    }
    let _ = writeln!(out, "{}", "-".repeat(45));
    let _ = writeln!(
        out,
        "Average entries used: {:.1} of 288",
        total as f64 / n.max(1) as f64
    );
    let full = L2pTable::save_restore_cycles(288);
    let _ = writeln!(
        out,
        "L2P save+restore per context switch (no THP): {:.0} cycles on average;",
        switch_total as f64 / (n / 2).max(1) as f64
    );
    let _ = writeln!(
        out,
        "a full 288-entry save would be {full} ({:.2}% of a 1ms slice at 2GHz).",
        100.0 * full as f64 / 2e6
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Paper: between 11 (TC) and 195 (MUMmer); 52.5 on average; GUPS and"
    );
    let _ = writeln!(
        out,
        "SysBench use 192 (all 64 stolen-capacity entries of the three 4KB"
    );
    let _ = writeln!(
        out,
        "subtables). Sec. V-C: the L2P save/restore overhead is \"modest\"."
    );
}

fn render_fig15(r: &LabReport, out: &mut String) {
    fn avg_way_phys(r: &LabReport, nodes: u64, variant: Variant) -> f64 {
        let mut total = 0.0;
        let mut ways = 0usize;
        for app in App::graph_apps() {
            let Some(m) = r
                .cell_at(app, PtKind::MeHpt, false, variant, nodes)
                .and_then(|c| c.metrics.as_ref())
            else {
                continue;
            };
            if m.way_phys_4k.is_empty() {
                // never instantiated: one smallest chunk per way
                let chunk = variant.config().chunk_policy.first() as f64;
                total += 3.0 * chunk;
                ways += 3;
            } else {
                total += m.way_phys_4k.iter().sum::<u64>() as f64;
                ways += m.way_phys_4k.len();
            }
        }
        total / ways.max(1) as f64
    }
    let _ = writeln!(
        out,
        "{:<14} | {:>16} {:>16}",
        "Graph nodes", "ME-HPT 1MB", "ME-HPT 1MB+8KB"
    );
    let _ = writeln!(out, "{}", "-".repeat(52));
    for nodes in [1_000u64, 10_000, 100_000] {
        let fixed = avg_way_phys(r, nodes, Variant::Fixed1Mb);
        let ladder = avg_way_phys(r, nodes, Variant::Full);
        let _ = writeln!(
            out,
            "{:<14} | {:>14.0}KB {:>14.0}KB",
            nodes,
            fixed / 1024.0,
            ladder / 1024.0
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Paper: ~16KB and ~128KB ways for 1K/10K nodes with the 8KB+1MB"
    );
    let _ = writeln!(
        out,
        "ladder, while the 1MB-only design burns a full 1MB per way;"
    );
    let _ = writeln!(out, "at 100K nodes both need about 1MB and converge.");
}

fn render_fig16(r: &LabReport, out: &mut String) {
    let mut hist: Vec<u64> = Vec::new();
    for app in App::all() {
        let Some(m) = r.metrics(app, PtKind::MeHpt, false, FULL) else {
            continue;
        };
        if hist.len() < m.kicks_histogram.len() {
            hist.resize(m.kicks_histogram.len(), 0);
        }
        for (dst, &src) in hist.iter_mut().zip(&m.kicks_histogram) {
            *dst += src;
        }
    }
    let total: u64 = hist.iter().sum();
    let _ = writeln!(out, "{:<14} {:>12} {:>10}", "re-insertions", "events", "P");
    let _ = writeln!(out, "{}", "-".repeat(38));
    let mut mean = 0.0;
    for (n, &count) in hist.iter().enumerate().take(12) {
        let p = count as f64 / total.max(1) as f64;
        mean += n as f64 * p;
        let bar = "#".repeat((p * 50.0).round() as usize);
        let _ = writeln!(out, "{:<14} {:>12} {:>9.3} {}", n, count, p, bar);
    }
    let tail: u64 = hist.iter().skip(12).sum();
    if tail > 0 {
        let _ = writeln!(
            out,
            "{:<14} {:>12} {:>9.3}",
            "12+",
            tail,
            tail as f64 / total.max(1) as f64
        );
    }
    mean += hist
        .iter()
        .enumerate()
        .skip(12)
        .map(|(n, &c)| n as f64 * c as f64 / total.max(1) as f64)
        .sum::<f64>();
    let _ = writeln!(out, "{}", "-".repeat(38));
    let _ = writeln!(
        out,
        "P(0 re-insertions) = {:.2}, mean = {:.2}",
        hist.first().copied().unwrap_or(0) as f64 / total.max(1) as f64,
        mean
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Paper: no re-insertion needed with probability 0.64; 0.7"
    );
    let _ = writeln!(out, "re-insertions per insertion or rehash on average.");
}

fn render_ablation(r: &LabReport, out: &mut String) {
    let rows = std::iter::once(("ECPT baseline", PtKind::Ecpt, FULL))
        .chain(ABLATION_VARIANTS.map(|(label, v)| (label, PtKind::MeHpt, v)));
    for app in ABLATION_APPS {
        let _ = writeln!(out, "\n--- {} (no THP) ---", app.name());
        let _ = writeln!(
            out,
            "{:<22} | {:>10} {:>10} {:>10} {:>8}",
            "variant", "peak PT", "contig", "cycles(G)", "switches"
        );
        let _ = writeln!(out, "{}", "-".repeat(70));
        for (label, kind, variant) in rows.clone() {
            let Some(m) = r.metrics(app, kind, false, variant) else {
                let _ = writeln!(out, "{label:<22} | (cell missing or failed)");
                continue;
            };
            let switches = match kind {
                PtKind::MeHpt => m.chunk_switches.to_string(),
                _ => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "{:<22} | {:>10} {:>10} {:>10.2} {:>8}",
                label,
                fmt_bytes(m.pt_peak_bytes),
                fmt_bytes(m.pt_max_contiguous),
                m.total_cycles as f64 / 1e9,
                switches
            );
        }
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Paper's Section VII-D: without the two size-reducing techniques,"
    );
    let _ = writeln!(
        out,
        "GUPS/SysBench would need 288 L2P entries (> the 192 available for"
    );
    let _ = writeln!(
        out,
        "one page size), forcing 8MB chunks; with them, 1MB chunks suffice."
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Tuning;
    use crate::report::{CellMetrics, CellResult, RepResult};

    #[test]
    fn preset_names_round_trip() {
        for p in PRESETS {
            assert_eq!(Preset::parse(p.name()), Some(p));
        }
        assert_eq!(Preset::parse("nope"), None);
    }

    #[test]
    fn grids_have_the_expected_cell_counts() {
        let t = Tuning::quick();
        assert_eq!(Preset::Table1.grid().expand(&t).len(), 44);
        assert_eq!(Preset::Table2.grid().expand(&t).len(), 0);
        // 3 apps × 2 kinds × 10 FMFI points.
        assert_eq!(Preset::Fig7.grid().expand(&t).len(), 60);
        assert_eq!(Preset::Fig8.grid().expand(&t).len(), 44);
        assert_eq!(Preset::Fig9.grid().expand(&t).len(), 66);
        // ECPT collapses to one variant: (1 + 3) × 11 apps × 2 thp.
        assert_eq!(Preset::Fig10.grid().expand(&t).len(), 88);
        assert_eq!(Preset::Fig11.grid().expand(&t).len(), 22);
        // 8 graph apps × 2 variants × 3 graph sizes.
        assert_eq!(Preset::Fig15.grid().expand(&t).len(), 48);
        assert_eq!(Preset::Fig16.grid().expand(&t).len(), 11);
    }

    #[test]
    fn ablation_grid_is_three_apps_by_ecpt_and_five_mehpt_variants() {
        let cells = Preset::Ablation.grid().expand(&Tuning::quick());
        let mut expected = Vec::new();
        for app in ["GUPS", "BFS", "MUMmer"] {
            expected.push(format!("{app}-ecpt-nothp-full-n1000000-f70"));
            for v in ["full", "noinplace", "noperway", "neither", "fixed1mb"] {
                expected.push(format!("{app}-mehpt-nothp-{v}-n1000000-f70"));
            }
        }
        let ids: Vec<String> = cells.iter().map(|c| c.id()).collect();
        assert_eq!(ids, expected);
    }

    fn synthetic_metrics(kind: PtKind) -> CellMetrics {
        CellMetrics {
            accesses: 1000,
            total_cycles: 2_500_000_000,
            base_cycles: 1000,
            translation_cycles: 2000,
            fault_cycles: 300,
            alloc_cycles: 200,
            os_pt_cycles: 100,
            faults: 42,
            pages_4k: 512,
            pages_2m: 2,
            tlb_miss_rate: 0.125,
            walks: 125,
            mean_walk_accesses: 1.5,
            mean_walk_cycles: 33.25,
            pt_final_bytes: 1 << 20,
            pt_peak_bytes: 3 << 20,
            pt_max_contiguous: 1 << 20,
            way_sizes_4k: vec![16384, 16384, 8192],
            way_phys_4k: vec![16384, 8192, 8192],
            upsizes_per_way_4k: vec![1, 1, 0],
            upsizes_per_way_2m: vec![],
            moved_fraction_4k: 0.5,
            kicks_histogram: vec![900, 90, 10],
            l2p_entries_used: if kind == PtKind::MeHpt { 192 } else { 0 },
            chunk_switches: 1,
            data_bytes_nominal: 1 << 30,
        }
    }

    /// A report holding every cell of `preset`, each ok with
    /// [`synthetic_metrics`].
    fn synthetic_report(preset: Preset) -> LabReport {
        let cells = preset
            .grid()
            .expand(&Tuning::quick())
            .into_iter()
            .map(|spec| {
                let rep = RepResult {
                    replicate: 0,
                    seed: spec.seed,
                    status: CellStatus::Ok,
                    metrics: Some(synthetic_metrics(spec.kind)),
                    error: None,
                    wall_millis: 0,
                    attempts: vec![],
                };
                CellResult::single(spec, rep)
            })
            .collect();
        LabReport {
            preset: preset.name().into(),
            scale: 0.005,
            base_seed: 0x5eed,
            seeds: 1,
            retries: 0,
            timeout_secs: None,
            fault: None,
            cells,
        }
    }

    #[test]
    fn table2_renders_without_any_cells() {
        let report = LabReport {
            preset: "table2".into(),
            scale: 1.0,
            base_seed: 0x5eed,
            seeds: 1,
            retries: 0,
            timeout_secs: None,
            fault: None,
            cells: vec![],
        };
        let s = Preset::Table2.render(&report);
        assert!(s.contains("Map space"));
        assert!(s.contains("8KB"));
    }

    #[test]
    fn every_preset_renders_with_and_without_its_cells() {
        let empty = LabReport {
            preset: "x".into(),
            scale: 1.0,
            base_seed: 0,
            seeds: 1,
            retries: 0,
            timeout_secs: None,
            fault: None,
            cells: vec![],
        };
        for p in PRESETS {
            let s = p.render(&empty);
            assert!(!s.is_empty());
            let s = p.render(&synthetic_report(p));
            assert!(!s.contains("missing or failed"), "{}:\n{s}", p.name());
        }

        let fig14 = Preset::Fig14.render(&synthetic_report(Preset::Fig14));
        // 192 entries: 792 bytes = 99 words, saved and restored at 4
        // cycles per word.
        assert!(fig14.contains("switch cyc"), "{fig14}");
        assert!(
            fig14.contains("GUPS      |      192      192 |        792"),
            "{fig14}"
        );
        assert!(fig14.contains("792 cycles on average"), "{fig14}");
        assert!(
            fig14.contains("full 288-entry save would be 1192"),
            "{fig14}"
        );

        let ablation = Preset::Ablation.render(&synthetic_report(Preset::Ablation));
        for app in ABLATION_APPS {
            assert!(ablation.contains(&format!("--- {} (no THP) ---", app.name())));
        }
        assert!(
            ablation.contains("ECPT baseline          |        3MB        1MB       2.50        -"),
            "{ablation}"
        );
        assert!(
            ablation.contains("  1MB-only chunks      |        3MB        1MB       2.50        1"),
            "{ablation}"
        );
    }
}
