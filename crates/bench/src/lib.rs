//! Experiment harness regenerating the tutorial's quantitative
//! claims. Each `eN` module prints the paper's claim and the measured
//! values side by side; `EXPERIMENTS.md` records a full run.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod harness;

pub use experiments::*;

/// Format a bits-per-key measurement with its ratio to the
/// information-theoretic bound `lg(1/eps)`.
pub fn bpk_row(name: &str, bits_per_key: f64, eps: f64) -> String {
    let bound = (1.0 / eps).log2();
    format!(
        "{name:<22} {bits_per_key:>8.2} bits/key   {:>5.3}x of n*lg(1/eps)",
        bits_per_key / bound
    )
}

/// Measure empirical FPR of a predicate over probes.
pub fn measure_fpr(probes: &[u64], contains: impl Fn(u64) -> bool) -> f64 {
    let fp = probes.iter().filter(|&&k| contains(k)).count();
    fp as f64 / probes.len() as f64
}
