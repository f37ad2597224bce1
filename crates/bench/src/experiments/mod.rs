//! Experiment implementations, one per quantitative claim in the
//! tutorial (see DESIGN.md's experiment index). `crate::harness`
//! lists them by id and holds the measurement code they share.

pub mod adaptive_exp;
pub mod apps;
pub mod batched;
pub mod bloofi_exp;
pub mod compacting_exp;
pub mod concurrency;
pub mod counting;
pub mod evented_exp;
pub mod expansion;
pub mod maplets;
pub mod range;
pub mod service_exp;
pub mod simd;
pub mod space_fpr;
pub mod telemetry_exp;
pub mod trace_exp;
pub mod two_choice_exp;
