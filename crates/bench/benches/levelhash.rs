//! Section IX's comparison with Level Hashing (Zuo et al., OSDI'18): the
//! only other hashing scheme with a form of in-place resizing. Level
//! hashing trades more probes per lookup (up to 4) for fewer entry moves
//! per resize (~1/3); ME-HPT's in-place cuckoo resizing keeps W (=3)
//! parallel probes and moves ~1/2.

use mehpt_hash::{Config, ElasticCuckooTable, LevelHashTable, ResizeMode, WaySizing};

fn main() {
    bench::announce(
        "In-place elastic cuckoo hashing vs Level Hashing",
        "Section IX (4 probes & 1/3 moved vs 3 probes & 1/2 moved)",
    );
    const N: u64 = 400_000;

    // Elastic cuckoo, in-place, per-way (the ME-HPT hashing core).
    let mut cuckoo = ElasticCuckooTable::new(Config {
        resize_mode: ResizeMode::InPlace,
        sizing: WaySizing::PerWay,
        ..Config::default()
    });
    for i in 0..N {
        cuckoo.insert(i, i);
    }
    for i in 0..N {
        assert_eq!(cuckoo.get(&i), Some(&i));
    }
    let cuckoo_moved = cuckoo.stats().mean_upsize_moved_fraction();
    let cuckoo_peak = cuckoo.stats().peak_bytes;

    // Level hashing.
    let mut level: LevelHashTable<u64, u64> = LevelHashTable::new(64, 9);
    for i in 0..N {
        level.insert(i, i);
    }
    for i in 0..N {
        assert_eq!(level.get(&i), Some(&i));
    }
    let level_stats = level.stats().clone();

    println!(
        "{:<28} {:>16} {:>16}",
        "metric", "in-place cuckoo", "level hashing"
    );
    println!("{}", "-".repeat(62));
    println!(
        "{:<28} {:>16} {:>16.2}",
        "probes per lookup",
        "3 (parallel)",
        level_stats.probes_per_lookup()
    );
    println!(
        "{:<28} {:>16.2} {:>16.2}",
        "entries moved per resize",
        cuckoo_moved,
        level_stats.moved_fraction()
    );
    println!(
        "{:<28} {:>16} {:>16}",
        "peak memory",
        mehpt_lab::fmt::fmt_bytes(cuckoo_peak),
        mehpt_lab::fmt::fmt_bytes(level.memory_bytes())
    );
    println!(
        "{:<28} {:>16.3} {:>16}",
        "mean cuckoo re-insertions",
        cuckoo.stats().mean_kicks(),
        "-"
    );
    println!();
    println!("Paper: level hashing needs 4 memory accesses per lookup but moves");
    println!("only 1/3 of entries per resize; ME-HPT's in-place resizing moves");
    println!("~1/2 with no extra references per lookup, and the old table");
    println!("becomes part of the new one (no deallocation-driven fragmentation).");
}
