//! Golden pin of the simulator's output.
//!
//! Host-speed work on the translation hot path (hashing, walks, caches,
//! page-number sets) must not move a single simulated number. This test
//! runs GUPS, BFS and MUMmer under every page-table design with THP off
//! and on, at a small scale on a fragmented 2 GB machine, and compares a
//! digest of each full `SimReport` with the value pinned here.
//!
//! A change that is *meant* to alter simulated results also bumps
//! `mehpt::sim::MODEL_REVISION`; re-pin with the digests this test prints
//! on failure.

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

/// The model revision the digests were taken at.
const GOLDEN_REVISION: u32 = 1;

fn run(app: App, kind: PtKind, thp: bool) -> SimReport {
    let workload = app.build(&WorkloadCfg {
        scale: 0.01,
        ..WorkloadCfg::default()
    });
    let mut cfg = SimConfig::paper(kind, thp);
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
