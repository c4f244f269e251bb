//! Section III's motivating measurement: cycles to allocate and zero a
//! contiguous chunk as a function of chunk size and fragmentation, and the
//! allocation-failure cliff above 0.7 FMFI.
//!
//! Both views are printed: the calibrated cost model (the cycles the
//! simulator charges) and the *behavioural* result of asking the simulated
//! buddy allocator + fragmenter + compactor for the chunk.

use mehpt_lab::fmt::fmt_bytes;
use mehpt_mem::{AllocCostModel, AllocTag, Fragmenter, PhysMem};
use mehpt_types::rng::Xoshiro256;
use mehpt_types::{GIB, KIB, MIB};

fn main() {
    bench::announce(
        "Allocation cost vs chunk size and fragmentation",
        "Section III (the 4K/5K/750K/13M/120M-cycle measurements)",
    );
    let sizes = [4 * KIB, 8 * KIB, MIB, 8 * MIB, 64 * MIB];
    let fmfis = [0.0, 0.3, 0.5, 0.7, 0.8, 0.9];
    let model = AllocCostModel::paper_calibrated();

    println!("Calibrated model (cycles to allocate + zero):");
    print!("{:<10}", "Chunk");
    for f in fmfis {
        print!("{:>14}", format!("FMFI {f:.1}"));
    }
    println!();
    println!("{}", "-".repeat(10 + 14 * fmfis.len()));
    for size in sizes {
        print!("{:<10}", fmt_bytes(size));
        for f in fmfis {
            print!("{:>14}", group(model.cycles(size, f)));
        }
        println!();
    }

    println!();
    println!("Behaviour on a 4GB simulated machine (allocation outcome):");
    print!("{:<10}", "Chunk");
    for f in fmfis {
        print!("{:>14}", format!("FMFI {f:.1}"));
    }
    println!();
    println!("{}", "-".repeat(10 + 14 * fmfis.len()));
    for size in sizes {
        print!("{:<10}", fmt_bytes(size));
        for f in fmfis {
            let mut mem = PhysMem::new(4 * GIB);
            let mut rng = Xoshiro256::seed_from_u64(7);
            Fragmenter::fragment(&mut mem, f, &mut rng);
            let outcome = match mem.alloc(size, AllocTag::PageTable) {
                Ok(_) if mem.stats().compactions > 0 => "ok (compact)",
                Ok(_) => "ok",
                Err(_) => "FAILS",
            };
            print!("{:>14}", outcome);
        }
        println!();
    }
    println!();
    println!("Paper: at 0.7 FMFI and 2GHz, 4KB/8KB/1MB/8MB/64MB take");
    println!("4K/5K/750K/13M/120M cycles; above 0.7 FMFI the 64MB allocation");
    println!("fails and the ECPT runs cannot finish.");
}

fn group(cycles: u64) -> String {
    if cycles >= 1_000_000 {
        format!("{:.1}M", cycles as f64 / 1e6)
    } else if cycles >= 1_000 {
        format!("{:.1}K", cycles as f64 / 1e3)
    } else {
        cycles.to_string()
    }
}
