//! # compacting
//!
//! A **filter LSM**: the RocksDB shape applied to the filters
//! themselves (tutorial §3.1, ROADMAP item 2). Mutable filters pay
//! 11–13 bits/key at ε = 2⁻⁸ because they must accept inserts;
//! static binary fuse filters reach ~8.6–9.0 bits/key but cannot.
//! [`CompactingFilter`] gets both: a wait-free
//! [`bloom::AtomicBlockedBloomFilter`] *front* (the memtable) absorbs
//! inserts, and a background compaction thread drains sealed fronts
//! into immutable [`xorf::BinaryFuseFilter`] *tiers* — so steady-state
//! read-mostly memory converges to the static filter's footprint
//! while writes stay wait-free.
//!
//! Tier rotation uses an epoch-swap scheme: every structural change
//! builds a fresh immutable [`state`](CompactingFilter) and publishes
//! it with a single `Arc` store under a write lock whose critical
//! section is `O(tiers)` pointer copies — never a hash, never a
//! build — so lookups never block on compaction (DESIGN.md, "Filter
//! LSM"). Tier merge budgets reuse `crates/lsm`'s policy machinery
//! ([`lsm::FprAllocation`] for per-tier FPR, [`lsm::CompactionPolicy`]
//! for the merge shape).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod filter;

use telemetry::{StaticCounter, StaticGauge, StaticHistogram};

pub use filter::{
    CompactingConfig, CompactingFilter, CompactingStats, MAX_FRONT_CAPACITY, MIN_EPS,
};

/// Fronts sealed (each seal hands one immutable memtable to the
/// compactor).
pub static SEALS: StaticCounter = StaticCounter::new(
    "bb_compacting_seals_total",
    "Memtable fronts sealed for background compaction.",
);

/// Background compactions completed (each installs one rebuilt fuse
/// tier).
pub static COMPACTIONS: StaticCounter = StaticCounter::new(
    "bb_compacting_compactions_total",
    "Background tier compactions completed.",
);

/// Compactions abandoned because the fuse build exhausted its seed
/// budget (the sealed fronts stay queryable and are retried with the
/// next compaction's epoch seed).
pub static FAILED_COMPACTIONS: StaticCounter = StaticCounter::new(
    "bb_compacting_failed_compactions_total",
    "Background compactions abandoned by fuse construction failure.",
);

/// Static fuse tiers currently live across all compacting filters.
pub static TIERS: StaticGauge = StaticGauge::new(
    "bb_compacting_tiers",
    "Static fuse tiers currently live across all compacting filters.",
);

/// Wall-clock nanoseconds per background compaction (drain + sort +
/// fuse build + epoch swap).
pub static COMPACTION_NS: StaticHistogram = StaticHistogram::new(
    "bb_compacting_compaction_ns",
    "Wall-clock nanoseconds per background tier compaction.",
);

/// Eagerly register this crate's metric families so they render in
/// the exposition even before any traffic touches them.
pub fn register_metrics() {
    SEALS.register();
    COMPACTIONS.register();
    FAILED_COMPACTIONS.register();
    TIERS.register();
    COMPACTION_NS.register();
}
