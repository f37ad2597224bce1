//! # lsm
//!
//! A mini LSM-tree storage engine reproducing the tutorial's §3.1
//! case studies with **simulated I/O accounting** (the paper's claims
//! are about I/O counts, not device latency — see DESIGN.md):
//!
//! - pluggable per-run point filters ([`FilterKind`]): Bloom, XOR,
//!   ribbon, quotient, cuckoo — immutable runs make static filters
//!   applicable, the tutorial's §2.7 observation;
//! - [`FprAllocation::Monkey`]: exponentially tightened FPRs for
//!   smaller levels (Dayan et al.), dropping lookup cost from
//!   `O(ε·lg N)` to `O(ε)` I/Os;
//! - [`IndexMode::GlobalMaplet`]: one Chucky/SlimDB-style maplet
//!   mapping keys to runs instead of per-run filters;
//! - [`RangeFilterKind::Grafite`]: per-run range filters that prove
//!   range emptiness without I/O.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cascade;
pub mod io;
pub mod join;
pub mod policy;
pub mod run;
pub mod tree;

use telemetry::StaticCounter;

/// Simulated block reads across every [`IoCounter`] in the process.
pub static LSM_IO_READS: StaticCounter = StaticCounter::new(
    "bb_lsm_io_reads_total",
    "Simulated block reads across all LSM I/O counters.",
);

/// Simulated block writes across every [`IoCounter`] in the process.
pub static LSM_IO_WRITES: StaticCounter = StaticCounter::new(
    "bb_lsm_io_writes_total",
    "Simulated block writes across all LSM I/O counters.",
);

/// Eagerly register this crate's metric families so they render in
/// the exposition even before any traffic touches them.
pub fn register_metrics() {
    LSM_IO_READS.register();
    LSM_IO_WRITES.register();
}

pub use cascade::CascadeFilter;
pub use io::IoCounter;
pub use join::{bloom_join, filtered_join, JoinStats};
pub use policy::{FilterKind, FprAllocation};
pub use run::{RangeFilterKind, SortedRun, BLOCK_ENTRIES};
pub use tree::{CompactionPolicy, GlobalRangeConfig, IndexMode, LsmConfig, LsmTree, TOMBSTONE};
