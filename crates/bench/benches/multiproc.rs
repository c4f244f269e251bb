//! Extension: multiprogrammed pressure. Section IV-C warns that "with
//! multiple processes running in the machine, each with one HPT per page
//! size, there may potentially be several HPT resizings occurring
//! concurrently, consuming substantial memory". Four graph-analytics
//! processes share one core and one physical memory; the combined
//! page-table peak and the machine-wide contiguity requirement are
//! compared across designs.
//!
//! Runs at a fixed 0.25 scale.

use mehpt_sim::{run_multi, PtKind, SimConfig};
use mehpt_types::ByteSize;
use mehpt_workloads::{App, WorkloadCfg};

fn main() {
    bench::announce(
        "Extension: four concurrent processes share the machine",
        "Section IV-C's multiprogrammed-resizing argument",
    );
    let apps = [App::Bfs, App::Pr, App::Cc, App::Sssp];
    println!(
        "{:<8} | {:>14} {:>12} {:>12} {:>10}",
        "design", "combined peak", "contiguity", "cycles(G)", "switches"
    );
    println!("{}", "-".repeat(64));
    for kind in [PtKind::Radix, PtKind::Ecpt, PtKind::MeHpt] {
        let workloads = apps
            .iter()
            .map(|&a| {
                a.build(&WorkloadCfg {
                    scale: 0.25,
                    ..WorkloadCfg::default()
                })
            })
            .collect();
        let r = run_multi(workloads, SimConfig::paper(kind, false));
        let aborted = r.processes.iter().filter(|p| p.aborted.is_some()).count();
        println!(
            "{:<8} | {:>14} {:>12} {:>12.2} {:>10}{}",
            kind.label(),
            ByteSize(r.peak_pt_bytes).to_string(),
            ByteSize(r.max_contiguous).to_string(),
            r.total_cycles() as f64 / 1e9,
            r.switches,
            if aborted > 0 {
                format!("   [{aborted} processes aborted]")
            } else {
                String::new()
            }
        );
    }
    println!();
    println!("Concurrent resizings multiply the ECPT old+new overhead across");
    println!("processes; ME-HPT's in-place chunked ways keep both the combined");
    println!("footprint and the contiguity requirement small.");
}
