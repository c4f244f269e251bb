//! Elastic Cuckoo Page Tables (ECPT) and the one elastic-cuckoo page-table
//! engine that the ECPT baseline and ME-HPT share.
//!
//! This crate reproduces the design of Skarlatos et al. (ASPLOS'20), which
//! the paper uses as its baseline (Section II-B, Table III), and holds the
//! machinery ME-HPT (`mehpt_core`) builds on:
//!
//! * [`HptTable`] — the elastic cuckoo table for one page size: the
//!   `mehpt_hash::CuckooEngine` storing **clustered entries** (one 64-byte
//!   entry holds the translations of 8 contiguous pages, Yaniv & Tsafrir's
//!   page-table-entry clustering, keyed by `VPN >> 3`) in physical-memory
//!   chunks, with **gradual resizing** through per-way rehash pointers:
//!   upsizes above 0.6 occupancy, downsizes below 0.2, entries migrated as
//!   inserts arrive. [`MeHptConfig`]'s `in_place` and `per_way` switches
//!   choose in-place or out-of-place, per-way or all-way resizing;
//! * [`WayMemory`] — where a way's chunks come from. ECPT keeps each way in
//!   **one contiguous physical-memory chunk** — the memory-contiguity
//!   problem ME-HPT solves: a way can grow to 64MB, and on a fragmented
//!   machine that allocation is slow or impossible. ME-HPT registers
//!   chunks from its size ladder ([`ChunkSizePolicy`]) in its L2P table;
//! * [`Hpt`] — a process's table per page size plus the **Cuckoo Walk
//!   Tables** (per-region page-size masks); [`Ecpt`] is the contiguous,
//!   out-of-place, all-way instantiation;
//! * **Cuckoo Walk Caches** (in [`EcptWalker`]) that tell the hardware
//!   walker which page size's table to probe, keeping a walk at one
//!   (parallel) memory access in the common case.
//!
//! # Examples
//!
//! ```
//! use mehpt_ecpt::Ecpt;
//! use mehpt_mem::PhysMem;
//! use mehpt_types::{PageSize, Ppn, VirtAddr, MIB};
//!
//! let mut mem = PhysMem::new(64 * MIB);
//! let mut ecpt = Ecpt::new(&mut mem)?;
//! let va = VirtAddr::new(0x7000_2000);
//! ecpt.map(va.vpn(PageSize::Base4K), PageSize::Base4K, Ppn(99), &mut mem)?;
//! assert_eq!(ecpt.translate(va), Some((Ppn(99), PageSize::Base4K)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod cwt;
mod engine;
mod entry;
mod process;
mod view;
mod walker;

pub use config::{ChunkSizePolicy, MeHptConfig};
pub use cwt::CwtSet;
pub use engine::{HptTable, WayMemory};
pub use entry::{ClusterEntry, CLUSTER_PTES};
pub use mehpt_hash::{InsertReport, TableStats};
pub use process::{Ecpt, Hpt, SeedFn};
pub use view::HptView;
pub use walker::{EcptWalker, EcptWalkerConfig, HptWalkResult};
