//! The filter trait hierarchy, mirroring the tutorial's taxonomy (§2).
//!
//! All traits operate on `u64` keys. Applications with richer key types
//! (strings, byte slices, k-mers) first map keys to 64 bits through
//! [`crate::hash::Hasher`]; each filter then applies its own seeded
//! hash internally, so the composition stays uniform. The traits are
//! dyn-compatible on purpose: the LSM engine in `crates/lsm` selects
//! filter implementations at runtime via `Box<dyn ...>`.
//!
//! Taxonomy mapping:
//! - *static* filters implement [`Filter`] and are built by a
//!   crate-specific constructor from a complete key set (XOR, ribbon).
//! - *semi-dynamic* filters additionally implement [`InsertFilter`]
//!   (Bloom, prefix filter).
//! - *dynamic* filters implement [`DynamicFilter`] (quotient, cuckoo).
//! - further capabilities are the orthogonal extensions the tutorial
//!   catalogues: [`CountingFilter`] (§2.6), [`Maplet`] (§2.4),
//!   [`RangeFilter`] (§2.5), [`Expandable`] (§2.2),
//!   [`AdaptiveFilter`] (§2.3).

use std::fmt;

/// Errors surfaced by filter mutation paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FilterError {
    /// The structure reached its configured capacity (or load limit)
    /// and the implementation does not auto-expand.
    CapacityExceeded,
    /// Static construction failed after the allowed number of seed
    /// retries (e.g. XOR peeling or ribbon elimination found no
    /// solution).
    ConstructionFailed {
        /// Number of distinct hash seeds tried before giving up.
        attempts: u32,
    },
    /// Cuckoo kicking exceeded the eviction limit.
    EvictionLimit,
    /// The filter cannot expand further (e.g. a doubling quotient
    /// filter ran out of fingerprint bits).
    ExpansionExhausted,
    /// An operation requiring an item's presence did not find it.
    NotFound,
}

impl fmt::Display for FilterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FilterError::CapacityExceeded => write!(f, "filter capacity exceeded"),
            FilterError::ConstructionFailed { attempts } => {
                write!(f, "static construction failed after {attempts} attempts")
            }
            FilterError::EvictionLimit => write!(f, "cuckoo eviction limit reached"),
            FilterError::ExpansionExhausted => write!(f, "filter cannot expand further"),
            FilterError::NotFound => write!(f, "item not found"),
        }
    }
}

impl std::error::Error for FilterError {}

/// Result alias for filter operations.
pub type Result<T> = std::result::Result<T, FilterError>;

/// An approximate-membership query structure (AMQ).
///
/// `contains` never returns `false` for a key that is represented
/// (no false negatives); it may return `true` for an absent key with
/// probability ≈ the configured false-positive rate ε.
pub trait Filter {
    /// May the set contain `key`? False positives allowed, false
    /// negatives not.
    fn contains(&self, key: u64) -> bool;

    /// Number of keys currently represented (for multisets: number of
    /// distinct keys).
    fn len(&self) -> usize;

    /// True if no keys are represented.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total heap bytes used by the structure.
    fn size_in_bytes(&self) -> usize;

    /// Space efficiency in bits per represented key.
    fn bits_per_key(&self) -> f64 {
        if self.len() == 0 {
            0.0
        } else {
            self.size_in_bytes() as f64 * 8.0 / self.len() as f64
        }
    }
}

/// A semi-dynamic filter: supports insertions but not deletions
/// (tutorial §2: Bloom, prefix filter).
pub trait InsertFilter: Filter {
    /// Insert `key`. Idempotent for plain membership filters.
    fn insert(&mut self, key: u64) -> Result<()>;

    /// Hint the cache line(s) a later `insert(key)` will touch toward
    /// L1. Batched insert paths call this for a group of keys before
    /// inserting them in order, so the misses overlap (the write-side
    /// half of the hash → prefetch → resolve pipeline in
    /// [`crate::batch`]). A hint only: it changes no state, and the
    /// default does nothing.
    fn prefetch_insert(&self, _key: u64) {}
}

/// A fully dynamic filter: insertions and deletions (tutorial §2:
/// quotient, cuckoo).
pub trait DynamicFilter: InsertFilter {
    /// Remove one occurrence of `key`. Returns `Ok(true)` if a
    /// matching fingerprint was removed. Deleting a never-inserted key
    /// is unsafe for filter semantics (it may evict another key's
    /// fingerprint); implementations return `Ok(false)` or
    /// `Err(NotFound)` when no fingerprint matches.
    fn remove(&mut self, key: u64) -> Result<bool>;
}

/// A counting filter represents a multiset (tutorial §2.6).
///
/// Queries return an estimate that is never *less* than the true count
/// (one-sided error): with probability ≥ 1 − δ the true count is
/// returned.
pub trait CountingFilter: Filter {
    /// Insert `count` occurrences of `key`.
    fn insert_count(&mut self, key: u64, count: u64) -> Result<()>;

    /// Upper-bounding estimate of `key`'s multiplicity.
    fn count(&self, key: u64) -> u64;

    /// Remove `count` occurrences. Removing more than inserted is a
    /// semantic error analogous to deleting absent keys.
    fn remove_count(&mut self, key: u64, count: u64) -> Result<()>;
}

/// A key→value filter (tutorial §2.4).
///
/// `get` returns the value(s) associated with the key's fingerprint:
/// for a present key the true value is always among them (plus
/// possibly a few aliases — the *positive result size*, PRS); for an
/// absent key any returned values are noise (*negative result size*,
/// NRS ≈ ε for fingerprint maplets).
pub trait Maplet {
    /// Associate `value` with `key`.
    fn insert(&mut self, key: u64, value: u64) -> Result<()>;

    /// Append all candidate values for `key` to `out`; returns the
    /// number appended.
    fn get(&self, key: u64, out: &mut Vec<u64>) -> usize;

    /// Number of key→value pairs stored.
    fn len(&self) -> usize;

    /// True if no pairs are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total heap bytes used.
    fn size_in_bytes(&self) -> usize;
}

/// An ε-approximate range-emptiness structure (tutorial §2.5).
///
/// Keys are unsigned 64-bit integers under their natural order.
pub trait RangeFilter {
    /// May the set intersect `[lo, hi]` (inclusive)? False positives
    /// allowed, false negatives not.
    fn may_contain_range(&self, lo: u64, hi: u64) -> bool;

    /// Point-query convenience (`[key, key]`).
    fn may_contain(&self, key: u64) -> bool {
        self.may_contain_range(key, key)
    }

    /// Number of keys represented.
    fn len(&self) -> usize;

    /// True when built over zero keys.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total heap bytes used.
    fn size_in_bytes(&self) -> usize;
}

/// A filter whose capacity can grow after construction (tutorial §2.2).
pub trait Expandable {
    /// Grow capacity (typically doubling). Implementations differ in
    /// what expansion costs: plain quotient filters sacrifice a
    /// fingerprint bit, InfiniFilter keeps FPR stable.
    fn expand(&mut self) -> Result<()>;

    /// How many expansions have occurred.
    fn expansions(&self) -> u32;

    /// Current slot capacity.
    fn capacity(&self) -> usize;
}

/// A filter that fixes false positives as they are discovered
/// (tutorial §2.3).
///
/// The caller (a dictionary holding ground truth, e.g. the on-disk
/// store) detects that `contains(key)` returned a false positive and
/// reports it; the filter then updates its representation so the same
/// key (with high probability) no longer false-positives.
pub trait AdaptiveFilter: Filter {
    /// Report that `key` produced a false positive. Must not introduce
    /// false negatives for genuinely present keys.
    fn adapt(&mut self, key: u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        assert_eq!(
            FilterError::ConstructionFailed { attempts: 3 }.to_string(),
            "static construction failed after 3 attempts"
        );
        assert!(FilterError::CapacityExceeded
            .to_string()
            .contains("capacity"));
    }

    // A trivial exact-set "filter" proving the traits are implementable
    // and dyn-compatible.
    struct ExactSet(std::collections::BTreeSet<u64>);

    impl Filter for ExactSet {
        fn contains(&self, key: u64) -> bool {
            self.0.contains(&key)
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn size_in_bytes(&self) -> usize {
            self.0.len() * 8
        }
    }

    impl InsertFilter for ExactSet {
        fn insert(&mut self, key: u64) -> Result<()> {
            self.0.insert(key);
            Ok(())
        }
    }

    impl DynamicFilter for ExactSet {
        fn remove(&mut self, key: u64) -> Result<bool> {
            Ok(self.0.remove(&key))
        }
    }

    #[test]
    fn traits_are_dyn_compatible() {
        let mut f: Box<dyn DynamicFilter> = Box::new(ExactSet(Default::default()));
        f.insert(7).unwrap();
        assert!(f.contains(7));
        assert!(!f.contains(8));
        assert_eq!(f.bits_per_key(), 64.0);
        assert!(f.remove(7).unwrap());
        assert!(f.is_empty());
    }
}
