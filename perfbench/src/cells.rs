//! The benchmark's workloads and the simulator cells each one runs.

use std::collections::HashSet;

use mehpt_lab::{CellSpec, Variant};
use mehpt_sim::{PtKind, SimConfig};
use mehpt_workloads::{App, Workload, WorkloadCfg};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bench {
    /// GUPS and MUMmer with THP, full traces, under every design.
    Translate,
    /// BFS without THP, capped at its CSR load phase, under every design.
    Populate,
}

impl Bench {
    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Bench> {
        match name {
            "translate" => Some(Bench::Translate),
            "populate" => Some(Bench::Populate),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Bench::Translate => "translate",
            Bench::Populate => "populate",
        }
    }

    /// The workload scale its cells run at (1.0 = the paper-calibrated
    /// footprint): a pass takes one to a few seconds on a 2-core host.
    pub fn scale(self) -> f64 {
        match self {
            Bench::Translate => 0.1,
            Bench::Populate => 0.3,
        }
    }
}

/// One simulation: a trace and the configuration it runs under.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Stable name, `<app>-<design>-<thp|nothp>`.
    pub id: String,
    /// The application the trace comes from.
    pub app: App,
    /// Its workload parameters.
    pub wcfg: WorkloadCfg,
    /// The simulator configuration.
    pub cfg: SimConfig,
}

impl Cell {
    /// Builds the cell's workload (`App::build`).
    pub fn workload(&self) -> Workload {
        self.app.build(&self.wcfg)
    }

    /// The cell as a lab grid cell, for driving it through the lab engine
    /// (which derives the trace seed from the cell seed its own way).
    pub fn spec(&self) -> CellSpec {
        CellSpec {
            app: self.app,
            kind: self.cfg.kind,
            thp: self.cfg.thp,
            variant: Variant::Full,
            fragmentation: self.cfg.fragmentation,
            graph_nodes: self.wcfg.graph_nodes,
            scale: self.wcfg.scale,
            mem_bytes: self.cfg.mem_bytes,
            seed: self.cfg.seed,
            max_accesses: self.cfg.max_accesses,
        }
    }
}

const KINDS: [PtKind; 3] = [PtKind::Radix, PtKind::Ecpt, PtKind::MeHpt];

/// The cells of `bench` under `seed`, in run order.
pub fn cells(bench: Bench, seed: u64) -> Vec<Cell> {
    match bench {
        Bench::Translate => [App::Gups, App::Mummer]
            .into_iter()
            .flat_map(|app| KINDS.map(|kind| app_cell(app, kind, true, bench.scale(), seed)))
            .collect(),
        Bench::Populate => KINDS
            .into_iter()
            .map(|kind| {
                let mut cell = app_cell(App::Bfs, kind, false, bench.scale(), seed);
                cell.cfg.max_accesses = Some(load_pages(&cell.workload()));
                cell
            })
            .collect(),
    }
}

fn app_cell(app: App, kind: PtKind, thp: bool, scale: f64, seed: u64) -> Cell {
    let mut cfg = SimConfig::paper(kind, thp);
    cfg.seed = seed;
    Cell {
        id: format!(
            "{}-{}-{}",
            app.name(),
            match kind {
                PtKind::Radix => "radix",
                PtKind::Ecpt => "ecpt",
                PtKind::MeHpt => "mehpt",
            },
            if thp { "thp" } else { "nothp" }
        ),
        app,
        wcfg: WorkloadCfg {
            scale,
            seed,
            ..WorkloadCfg::default()
        },
        cfg,
    }
}

/// Accesses before the trace first revisits a 4KB page: the length of a
/// graph workload's CSR load phase, where every access is a first touch.
fn load_pages(workload: &Workload) -> u64 {
    let mut seen = HashSet::new();
    workload
        .clone()
        .take_while(|va| seen.insert(va.0 >> 12))
        .count() as u64
}
