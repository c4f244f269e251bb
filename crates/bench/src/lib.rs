//! Experiments outside the `mehpt-lab` presets. Each `[[bench]]` target
//! drives page tables, allocators or several processes directly rather
//! than running grid cells: `alloc_cost` (Sec. III), `levelhash`
//! (Sec. IX), `radix5` (the la57 motivation), `multiproc` (Sec. IV-C)
//! and `micro` (host-side operation latency). Run one with
//! `cargo bench -p bench --bench <name>`. The paper's tables, figures and
//! the technique ablation are `mehpt-lab` presets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Prints the banner for one experiment.
pub fn announce(title: &str, paper_ref: &str) {
    println!();
    println!("================================================================");
    println!("{title}");
    println!("  (reproduces {paper_ref})");
    println!("================================================================");
}
