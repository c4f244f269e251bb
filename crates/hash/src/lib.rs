//! Elastic cuckoo hashing — the generic algorithmic core of ME-HPT.
//!
//! Section VIII of the paper points out that the four ME-HPT techniques
//! "are generically applicable to many of today's hash table designs and use
//! cases, beyond HPTs": set-associative directories, memory indices and
//! key-value stores. This crate holds the one implementation of the
//! algorithm and its generic instantiation:
//!
//! * [`CuckooEngine`] — a W-way cuckoo hash table that resizes gradually
//!   while serving operations (Elastic Cuckoo Hashing, the ECPT
//!   substrate): rehash-pointer lookups, cuckoo placement, weighted
//!   insert-way choice, threshold and kick-limit resizes that are
//!   **out-of-place** (the ECPT baseline) or the paper's **in-place**
//!   resizing, **all-way** or the paper's **per-way** ([`Policy`]),
//!   migration, chunk-size switches and the structural invariants. It is
//!   generic over the [`Entry`] it stores and over the [`WayBacking`] its
//!   ways' chunks come from. The page tables instantiate it: the ECPT
//!   baseline and ME-HPT (`mehpt_ecpt::HptTable`) store clustered
//!   translation entries keyed by their tag in physical-memory chunks,
//!   contiguous or registered in ME-HPT's L2P table.
//! * [`ElasticCuckooTable`] — the engine storing `(K, V)` pairs keyed by
//!   `K`, with its ways on the heap (ECPT's one-chunk-per-way layout, which
//!   never fails), configured by [`ResizeMode`] and [`WaySizing`].
//! * [`HashFamily`] — the per-way CRC-based hash functions (Table III: CRC,
//!   2-cycle latency), decorrelated with a nonlinear finalizer.
//! * [`LevelHashTable`] — a faithful-enough Level Hashing implementation
//!   (Zuo et al., OSDI'18), the only other hashing scheme with a form of
//!   in-place resizing, used by the Section IX comparison benchmark.
//!
//! The property tests of [`ElasticCuckooTable`] check the engine's
//! invariants after every operation, in every combination of the resize
//! techniques.
//!
//! # Examples
//!
//! ```
//! use mehpt_hash::{Config, ElasticCuckooTable, ResizeMode, WaySizing};
//!
//! let config = Config {
//!     resize_mode: ResizeMode::InPlace,
//!     sizing: WaySizing::PerWay,
//!     ..Config::default()
//! };
//! let mut table = ElasticCuckooTable::new(config);
//! for i in 0..10_000u64 {
//!     table.insert(i, i * 2);
//! }
//! assert_eq!(table.get(&4321), Some(&8642));
//! assert_eq!(table.len(), 10_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod crc;
mod engine;
mod level;
mod stats;
mod table;

pub use config::{Config, ConfigError, ResizeMode, WaySizing};
pub use crc::{crc64, Crc64Hasher, HashFamily};
pub use engine::{chunks_for, CuckooEngine, Entry, InsertReport, Policy, WayBacking};
pub use level::{LevelHashTable, LevelStats};
pub use stats::{ResizeEvent, ResizeKind, TableStats};
pub use table::ElasticCuckooTable;
