//! # quotient
//!
//! The quotient-filter family (tutorial §2.1, §2.6):
//!
//! - [`SlotTable`] — the shared Robin-Hood quotienting table
//!   (occupieds / runends / in-use metadata, 3 bits per slot).
//! - [`QuotientFilter`] — dynamic membership filter with deletes and
//!   §2.2 doubling expansion.
//! - [`CountingQuotientFilter`] — the CQF: multiset counting with
//!   variable-length counters, asymptotically optimal counter space,
//!   robust to highly skewed distributions.
//!
//! The quotient maplet (§2.4) lives in the `maplet` crate and the
//! adaptive quotient filter (§2.3) in the `adaptive` crate; both
//! reuse [`SlotTable`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod concurrent;
pub mod cqf;
pub mod qf;
pub mod table;
pub mod vqf;

use telemetry::{StaticCounter, StaticHistogram};

/// Cluster length (in slots) touched by CQF run edits — long
/// clusters are the CQF's slow path (tutorial §2.6). Sampled 1-in-8
/// on the hot path: the distribution shape is the diagnostic, and
/// sampling keeps insert overhead well under the E22 budget.
pub static CQF_CLUSTER_LEN: StaticHistogram = StaticHistogram::new(
    "bb_cqf_cluster_length",
    "Cluster length in slots touched by CQF run edits (1-in-8 sampled).",
);

/// CQF doubling expansions performed.
pub static CQF_EXPANSIONS: StaticCounter = StaticCounter::new(
    "bb_cqf_expansions_total",
    "CQF doubling expansions performed.",
);

/// CQF run edits rejected because a cluster spilled past the table's
/// physical padding.
pub static CQF_CLUSTER_SPILLS: StaticCounter = StaticCounter::new(
    "bb_cqf_cluster_spills_total",
    "CQF run edits rejected by a cluster spilling past table padding.",
);

/// Wall-time of each CQF doubling expansion, in nanoseconds.
pub static CQF_EXPAND_DURATION: StaticHistogram = StaticHistogram::new(
    "bb_cqf_expand_duration_ns",
    "Wall-time of each CQF doubling expansion in nanoseconds.",
);

/// Eagerly register this crate's metric families so they render in
/// the exposition even before any traffic touches them.
pub fn register_metrics() {
    CQF_CLUSTER_LEN.register();
    CQF_EXPANSIONS.register();
    CQF_CLUSTER_SPILLS.register();
    CQF_EXPAND_DURATION.register();
}

pub use concurrent::ConcurrentQuotientFilter;
pub use cqf::CountingQuotientFilter;
pub use qf::QuotientFilter;
pub use table::{Run, SlotTable};
pub use vqf::VectorQuotientFilter;
