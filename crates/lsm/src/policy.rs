//! Per-run filter policies: which point filter guards each run and
//! how false-positive budget is allocated across levels.

use filter_core::{fp_bits_for, Filter, InsertFilter};

/// The point-filter family guarding each run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FilterKind {
    /// No filters: every lookup probes every overlapping run.
    None,
    /// Classic Bloom filter (the LSM default the tutorial describes).
    Bloom,
    /// Static XOR filter (valid because runs are immutable — the
    /// tutorial's point that *any* static filter applies here).
    Xor,
    /// Static ribbon filter (space-premium option, as in RocksDB).
    Ribbon,
    /// Dynamic quotient filter (overkill for immutable runs; included
    /// for the comparison).
    Quotient,
    /// Cuckoo filter.
    Cuckoo,
}

/// How FPR is allocated across levels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FprAllocation {
    /// Same `eps` for every run (the traditional design).
    Uniform(f64),
    /// Monkey (Dayan et al., SIGMOD 2017): exponentially *smaller*
    /// FPR for smaller (lower) levels, so the sum of FPRs converges
    /// and point-lookup cost drops from `O(ε·lg N)` to `O(ε)` I/Os.
    /// The parameter is the FPR of the largest level; level `i`
    /// (counting up from the largest) gets `eps · ratio^-i`.
    Monkey {
        /// FPR assigned to the largest (bottom) level.
        base_eps: f64,
        /// Per-level tightening factor (usually the size ratio).
        ratio: f64,
    },
}

impl FprAllocation {
    /// The FPR for a run of `run_len` entries in a tree currently
    /// holding `total_len` entries.
    ///
    /// Monkey's optimum sets `eps_i ∝ n_i` (smaller runs get
    /// exponentially smaller FPRs as levels shrink by the size
    /// ratio). Deriving it from the run's *size* rather than its
    /// level position keeps the allocation stable as the tree grows —
    /// a run built early never carries a stale budget. `ratio` only
    /// caps how far below `base_eps` tiny runs may go.
    pub fn eps_for_run(&self, run_len: usize, total_len: usize) -> f64 {
        match *self {
            FprAllocation::Uniform(e) => e,
            FprAllocation::Monkey { base_eps, ratio } => {
                let frac = run_len as f64 / total_len.max(1) as f64;
                let floor = base_eps / ratio.powi(12);
                (base_eps * frac).clamp(floor.max(1e-9), base_eps)
            }
        }
    }
}

/// A built run filter (static families are constructed from the run's
/// key set; dynamic families are filled by insertion).
pub fn build_filter(kind: FilterKind, keys: &[u64], eps: f64) -> Option<Box<dyn Filter>> {
    let n = keys.len().max(1);
    match kind {
        FilterKind::None => None,
        FilterKind::Bloom => {
            let mut f = bloom::BloomFilter::new(n, eps);
            for &k in keys {
                f.insert(k).expect("bloom insert");
            }
            Some(Box::new(f))
        }
        FilterKind::Xor => {
            let bits = fp_bits_for(eps);
            Some(Box::new(
                xorf::XorFilter::build(keys, bits).expect("xor build"),
            ))
        }
        FilterKind::Ribbon => {
            let bits = fp_bits_for(eps);
            Some(Box::new(
                ribbon::RibbonFilter::build(keys, bits).expect("ribbon build"),
            ))
        }
        FilterKind::Quotient => {
            let mut f = quotient::QuotientFilter::for_capacity(n, eps);
            for &k in keys {
                f.insert(k).expect("qf insert");
            }
            Some(Box::new(f))
        }
        FilterKind::Cuckoo => {
            let bits = (fp_bits_for(eps) + 3).min(32); // 2b/2^f correction
            let mut f = cuckoo::CuckooFilter::new(n, bits);
            for &k in keys {
                f.insert(k).expect("cuckoo insert");
            }
            Some(Box::new(f))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monkey_tightens_small_runs() {
        let m = FprAllocation::Monkey {
            base_eps: 0.02,
            ratio: 4.0,
        };
        // The largest run gets the base budget.
        assert!((m.eps_for_run(1000, 1000) - 0.02).abs() < 1e-12);
        // A run 4x smaller gets a 4x tighter budget.
        assert!((m.eps_for_run(250, 1000) - 0.005).abs() < 1e-12);
        assert!(m.eps_for_run(10, 1000) < m.eps_for_run(100, 1000));
        // Uniform ignores size.
        assert_eq!(FprAllocation::Uniform(0.01).eps_for_run(1, 1000), 0.01);
    }

    #[test]
    fn all_kinds_build_and_filter() {
        let keys = workloads::unique_keys(260, 2_000);
        for kind in [
            FilterKind::Bloom,
            FilterKind::Xor,
            FilterKind::Ribbon,
            FilterKind::Quotient,
            FilterKind::Cuckoo,
        ] {
            let f = build_filter(kind, &keys, 0.01).expect("filter built");
            assert!(keys.iter().all(|&k| f.contains(k)), "{kind:?} lost a key");
        }
        assert!(build_filter(FilterKind::None, &keys, 0.01).is_none());
    }
}
