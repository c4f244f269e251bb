//! Correctness of simulated outputs: a per-cell digest of the simulated
//! statistics, and the expected digests stored with the benchmark.

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;

use mehpt_sim::{SimReport, MODEL_REVISION};

use crate::cells::Bench;

/// The seed whose digests are stored in `expected_digests.txt`.
pub const DEFAULT_SEED: u64 = 1;

const EXPECTED: &str = include_str!("../expected_digests.txt");

/// The deterministic simulated statistics of one cell: everything the
/// digest covers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Outcome {
    pub accesses: u64,
    pub total_cycles: u64,
    pub base_cycles: u64,
    pub translation_cycles: u64,
    pub fault_cycles: u64,
    pub alloc_cycles: u64,
    pub os_pt_cycles: u64,
    pub faults: u64,
    pub pages_4k: u64,
    pub pages_2m: u64,
    pub walks: u64,
    pub pt_final_bytes: u64,
    pub pt_peak_bytes: u64,
    pub pt_max_contiguous: u64,
    pub way_sizes_4k: Vec<u64>,
    pub way_phys_4k: Vec<u64>,
    pub kicks_histogram: Vec<u64>,
    pub aborted: Option<String>,
}

impl Outcome {
    /// The statistics of a `Simulator::run` report.
    pub fn from_report(r: &SimReport) -> Outcome {
        Outcome {
            accesses: r.accesses,
            total_cycles: r.total_cycles,
            base_cycles: r.base_cycles,
            translation_cycles: r.translation_cycles,
            fault_cycles: r.fault_cycles,
            alloc_cycles: r.alloc_cycles,
            os_pt_cycles: r.os_pt_cycles,
            faults: r.faults,
            pages_4k: r.pages_4k,
            pages_2m: r.pages_2m,
            walks: r.walks,
            pt_final_bytes: r.pt_final_bytes,
            pt_peak_bytes: r.pt_peak_bytes,
            pt_max_contiguous: r.pt_max_contiguous,
            way_sizes_4k: r.way_sizes_4k.clone(),
            way_phys_4k: r.way_phys_4k.clone(),
            kicks_histogram: r.kicks_histogram.clone(),
            aborted: r.aborted.clone(),
        }
    }

    /// Whether the cycle components add up to the total.
    pub fn components_sum(&self) -> bool {
        self.base_cycles
            + self.translation_cycles
            + self.fault_cycles
            + self.alloc_cycles
            + self.os_pt_cycles
            == self.total_cycles
    }

    /// Simulated cycles per access.
    pub fn cycles_per_access(&self) -> f64 {
        self.total_cycles as f64 / self.accesses.max(1) as f64
    }

    /// FNV-1a over every field, each list length-prefixed.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for x in [
            self.accesses,
            self.total_cycles,
            self.base_cycles,
            self.translation_cycles,
            self.fault_cycles,
            self.alloc_cycles,
            self.os_pt_cycles,
            self.faults,
            self.pages_4k,
            self.pages_2m,
            self.walks,
            self.pt_final_bytes,
            self.pt_peak_bytes,
            self.pt_max_contiguous,
        ] {
            eat(&x.to_le_bytes());
        }
        for list in [&self.way_sizes_4k, &self.way_phys_4k, &self.kicks_histogram] {
            eat(&(list.len() as u64).to_le_bytes());
            for x in list {
                eat(&x.to_le_bytes());
            }
        }
        match &self.aborted {
            None => eat(&[0]),
            Some(reason) => {
                eat(&[1]);
                eat(reason.as_bytes());
            }
        }
        h
    }
}

/// Expected digests of `bench` at [`DEFAULT_SEED`] under the current
/// `MODEL_REVISION`, keyed by cell id. Empty when none are stored.
pub fn expected(bench: Bench) -> BTreeMap<String, u64> {
    parse_expected(EXPECTED)
        .into_iter()
        .filter(|(rev, b, _, _)| *rev == MODEL_REVISION && b == bench.name())
        .map(|(_, _, id, d)| (id, d))
        .collect()
}

fn parse_expected(text: &str) -> Vec<(u32, String, String, u64)> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            let [rev, bench, id, digest] = f[..] else {
                return None;
            };
            Some((
                rev.parse().ok()?,
                bench.to_string(),
                id.to_string(),
                u64::from_str_radix(digest.trim_start_matches("0x"), 16).ok()?,
            ))
        })
        .collect()
}

/// Rewrites the stored digests of `bench` under the current
/// `MODEL_REVISION` with `digests`, keeping every other entry.
pub fn bless(bench: Bench, digests: &[(String, u64)]) -> io::Result<PathBuf> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("expected_digests.txt");
    let current = std::fs::read_to_string(&path).unwrap_or_default();
    let mut out = String::from(
        "# Expected per-cell digests of the simulated statistics at seed 1.\n\
         # Regenerate with: python3 perfbench/run.py --workload W --bless\n\
         # model_revision workload cell digest\n",
    );
    for (rev, b, id, d) in parse_expected(&current) {
        if rev != MODEL_REVISION || b != bench.name() {
            out.push_str(&format!("{rev} {b} {id} {d:#018x}\n"));
        }
    }
    for (id, d) in digests {
        out.push_str(&format!(
            "{MODEL_REVISION} {} {id} {d:#018x}\n",
            bench.name()
        ));
    }
    std::fs::write(&path, out)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_covers_every_field() {
        let base = Outcome {
            accesses: 10,
            total_cycles: 100,
            base_cycles: 100,
            way_sizes_4k: vec![1, 2],
            ..Outcome::default()
        };
        assert!(base.components_sum());
        let mut moved = base.clone();
        moved.way_sizes_4k = vec![1, 2, 0];
        assert_ne!(base.digest(), moved.digest());
        let mut aborted = base.clone();
        aborted.aborted = Some(String::new());
        assert_ne!(base.digest(), aborted.digest());
    }

    #[test]
    fn expected_file_parses() {
        let parsed =
            parse_expected("# c\n1 translate GUPS-radix-thp 0x00000000000000ff\nbad line\n");
        assert_eq!(
            parsed,
            vec![(1, "translate".into(), "GUPS-radix-thp".into(), 255)]
        );
    }
}
