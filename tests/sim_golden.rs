//! Golden pin of the simulator's output.
//!
//! Host-speed work on the translation hot path (hashing, walks, caches,
//! page-number sets) must not move a single simulated number. This test
//! runs GUPS, BFS and MUMmer under every page-table design with THP off
//! and on, at a small scale on a fragmented 2 GB machine, and compares a
//! digest of each full `SimReport` with the value pinned here.
//!
//! The ME-HPT ablation variants (the four `mehpt_lab::grid::Variant`s
//! other than the full design) are pinned on GUPS and BFS, and ECPT and
//! ME-HPT are pinned on GUPS at FMFI 0.99, where ECPT's way doubling cannot
//! find contiguous memory and the run aborts.
//!
//! A change that is *meant* to alter simulated results also bumps
//! `mehpt::sim::MODEL_REVISION`; re-pin with the digests this test prints
//! on failure.

use mehpt::lab::grid::Variant;
use mehpt::sim::{PtKind, SimConfig, SimReport, Simulator, MODEL_REVISION};
use mehpt::types::GIB;
use mehpt::workloads::{App, WorkloadCfg};

/// `(app, design, THP, digest)` at scale 0.01, 2 GB, FMFI 0.7.
const GOLDEN: [(App, PtKind, bool, u64); 18] = [
    (App::Gups, PtKind::Radix, false, 0x71060f2a826f1cae),
    (App::Gups, PtKind::Radix, true, 0x754957f539b2ce4a),
    (App::Gups, PtKind::Ecpt, false, 0x5b2a69f14460e1ff),
    (App::Gups, PtKind::Ecpt, true, 0xbe5b46c8cfc0bb78),
    (App::Gups, PtKind::MeHpt, false, 0x48f28d6eb749f568),
    (App::Gups, PtKind::MeHpt, true, 0x85f76bd0d854f2fe),
    (App::Bfs, PtKind::Radix, false, 0x3bd09dc60aea68e4),
    (App::Bfs, PtKind::Radix, true, 0xcda68bca4f446f91),
    (App::Bfs, PtKind::Ecpt, false, 0xe160e7d08a9307ee),
    (App::Bfs, PtKind::Ecpt, true, 0xb5f472b97f07afb9),
    (App::Bfs, PtKind::MeHpt, false, 0x6444c217536c6e83),
    (App::Bfs, PtKind::MeHpt, true, 0xd39b99f612ebc06a),
    (App::Mummer, PtKind::Radix, false, 0x6bfdbe65945dd583),
    (App::Mummer, PtKind::Radix, true, 0xf46cd06deb39c5e9),
    (App::Mummer, PtKind::Ecpt, false, 0x09f9f5cefabe90fd),
    (App::Mummer, PtKind::Ecpt, true, 0x198140561caa3775),
    (App::Mummer, PtKind::MeHpt, false, 0xbdeb6b5c85c98653),
    (App::Mummer, PtKind::MeHpt, true, 0x5f5445143cdf8ac9),
];

/// `(app, ME-HPT variant, THP, digest)` at scale 0.01, 2 GB, FMFI 0.7.
const GOLDEN_VARIANTS: [(App, Variant, bool, u64); 16] = [
    (App::Gups, Variant::NoInPlace, false, 0x4116275ca0c9c4c2),
    (App::Gups, Variant::NoInPlace, true, 0x85f76bd0d854f2fe),
    (App::Gups, Variant::NoPerWay, false, 0x3f3cf5abbe7fc8a5),
    (App::Gups, Variant::NoPerWay, true, 0x85f76bd0d854f2fe),
    (App::Gups, Variant::Neither, false, 0xa9a16084def6e73d),
    (App::Gups, Variant::Neither, true, 0x85f76bd0d854f2fe),
    (App::Gups, Variant::Fixed1Mb, false, 0xbcd12144e766e243),
    (App::Gups, Variant::Fixed1Mb, true, 0x901ed38ec8852e75),
    (App::Bfs, Variant::NoInPlace, false, 0xe9ff7098998dfb64),
    (App::Bfs, Variant::NoInPlace, true, 0xb47c07187f8f75f7),
    (App::Bfs, Variant::NoPerWay, false, 0xa2bf688b604abb8d),
    (App::Bfs, Variant::NoPerWay, true, 0xc755c551a9570c6e),
    (App::Bfs, Variant::Neither, false, 0x32d9b9b5859074fe),
    (App::Bfs, Variant::Neither, true, 0x9ac67cc641f2008d),
    (App::Bfs, Variant::Fixed1Mb, false, 0x5859a1d083832642),
    (App::Bfs, Variant::Fixed1Mb, true, 0xe6f2b73a14820b55),
];

/// `(design, digest)` for GUPS at scale 0.1, 2 GB, FMFI 0.99, THP off:
/// ECPT aborts there, ME-HPT completes.
const GOLDEN_HOSTILE: [(PtKind, u64); 2] = [
    (PtKind::Ecpt, 0x0a26c62b38a04a89),
    (PtKind::MeHpt, 0x0948f382bf5e6885),
];

/// The model revision the digests were taken at.
const GOLDEN_REVISION: u32 = 1;

fn run(app: App, kind: PtKind, thp: bool) -> SimReport {
    run_cfg(app, 0.01, SimConfig::paper(kind, thp))
}

fn run_cfg(app: App, scale: f64, mut cfg: SimConfig) -> SimReport {
    let workload = app.build(&WorkloadCfg {
        scale,
        ..WorkloadCfg::default()
    });
    cfg.mem_bytes = 2 * GIB;
    Simulator::run(workload, cfg)
}

/// FNV-1a over the report's `Debug` rendering, which prints every field
/// (floats in their shortest round-trip form).
fn digest(report: &SimReport) -> u64 {
    format!("{report:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

#[test]
fn simulated_reports_match_the_golden_digests() {
    assert_eq!(
        MODEL_REVISION, GOLDEN_REVISION,
        "the model revision moved: re-pin the digests below"
    );
    let mut drift = Vec::new();
    for (app, kind, thp, expected) in GOLDEN {
        let got = digest(&run(app, kind, thp));
        if got != expected {
            drift.push(format!(
                "({app:?}, PtKind::{kind:?}, {thp}, {got:#018x}) expected {expected:#018x}"
            ));
        }
    }
    assert!(
        drift.is_empty(),
        "simulated output drifted:\n{}",
        drift.join("\n")
    );
}

#[test]
fn mehpt_ablation_reports_match_the_golden_digests() {
    assert_eq!(MODEL_REVISION, GOLDEN_REVISION);
    let mut drift = Vec::new();
    for (app, variant, thp, expected) in GOLDEN_VARIANTS {
        let mut cfg = SimConfig::paper(PtKind::MeHpt, thp);
        cfg.mehpt = variant.config();
        let got = digest(&run_cfg(app, 0.01, cfg));
        if got != expected {
            drift.push(format!(
                "({app:?}, Variant::{variant:?}, {thp}, {got:#018x}) expected {expected:#018x}"
            ));
        }
    }
    assert!(
        drift.is_empty(),
        "simulated output drifted:\n{}",
        drift.join("\n")
    );
}

#[test]
fn hostile_fragmentation_reports_match_the_golden_digests() {
    assert_eq!(MODEL_REVISION, GOLDEN_REVISION);
    let mut drift = Vec::new();
    for (kind, expected) in GOLDEN_HOSTILE {
        let mut cfg = SimConfig::paper(kind, false);
        cfg.fragmentation = 0.99;
        let report = run_cfg(App::Gups, 0.1, cfg);
        assert_eq!(report.aborted.is_some(), kind == PtKind::Ecpt, "{report:?}");
        let got = digest(&report);
        if got != expected {
            drift.push(format!(
                "(PtKind::{kind:?}, {got:#018x}) expected {expected:#018x}"
            ));
        }
    }
    assert!(
        drift.is_empty(),
        "simulated output drifted:\n{}",
        drift.join("\n")
    );
}
