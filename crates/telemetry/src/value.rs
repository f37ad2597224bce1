//! Instance metric value types: never switched off, never registered.
//!
//! These are plain data holders — each server's counter set
//! (`ServerMetrics`) embeds them directly, so they keep counting even
//! while the runtime switch (`set_enabled(false)`) silences the
//! registry. The static *handles* in the crate root wrap these values
//! with names and lazy registration.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

/// Number of histogram buckets. Bucket 0 holds exactly-zero samples;
/// bucket `i` (`1 ≤ i ≤ 39`) holds `2^(i-1) ≤ v < 2^i`; the last
/// bucket (index 40) absorbs everything `≥ 2^39` (~9.2 minutes in
/// nanoseconds) and renders as the `+Inf` bucket.
pub const HISTOGRAM_BUCKETS: usize = 41;

/// A monotone counter: one relaxed `fetch_add` per bump.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Fresh counter at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value (racing snapshot).
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed gauge: goes up and down.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Fresh gauge at zero.
    pub const fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Add `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value (racing snapshot).
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket power-of-two histogram with wait-free recording and
/// an explicit zero bucket.
///
/// Values are dimensionless `u64`s — latency recorders feed
/// nanoseconds, the cuckoo kick-chain recorder feeds chain lengths.
/// `record`/`observe` is two relaxed `fetch_add`s (bucket + sum).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Fresh all-zero histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            sum: AtomicU64::new(0),
        }
    }

    /// Record one duration as nanoseconds.
    #[inline]
    pub fn record(&self, latency: Duration) {
        self.observe(latency.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Record one raw value.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Bucket index for a value: 0 only for an exactly-zero sample
    /// (a zero-duration measurement must not alias the 1 ns bucket),
    /// then one bucket per power of two.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Largest value bucket `i` can hold, or `None` for the absorbing
    /// last bucket (rendered as `+Inf`).
    pub fn bucket_upper_bound(i: usize) -> Option<u64> {
        match i {
            0 => Some(0),
            _ if i < HISTOGRAM_BUCKETS - 1 => Some((1u64 << i) - 1),
            _ => None,
        }
    }

    /// Racing snapshot of the bucket counts and sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// An owned copy of a histogram's bucket counts (renderable by
/// [`crate::expo`], mergeable across histograms).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    sum: u64,
}

impl HistogramSnapshot {
    /// Per-bucket counts (indexed as [`Histogram::bucket_of`]).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Upper-bound estimate of the `q`-quantile (`q` in `[0, 1]`): the
    /// inclusive upper edge of the bucket holding the `q`-th sample.
    /// Returns 0 for an empty histogram; samples in the absorbing last
    /// bucket report `2^40` ("beyond the last finite bound").
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Histogram::bucket_upper_bound(i).unwrap_or(1 << (HISTOGRAM_BUCKETS - 1));
            }
        }
        1 << (HISTOGRAM_BUCKETS - 1)
    }

    /// Merge another snapshot into this one (bucketwise sum) — used by
    /// the load generator to combine per-thread client histograms.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum += other.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        g.add(5);
        g.add(-7);
        assert_eq!(g.get(), -2);
        g.set(9);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn zero_gets_its_own_bucket() {
        // The satellite-1 regression: a zero-duration sample used to
        // share bucket 0 with 1 ns. Pin every boundary.
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of((1 << 39) - 1), 39);
        assert_eq!(Histogram::bucket_of(1 << 39), 40);
        assert_eq!(Histogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        let h = Histogram::new();
        h.record(Duration::ZERO);
        h.observe(1);
        let snap = h.snapshot();
        assert_eq!(snap.counts()[0], 1);
        assert_eq!(snap.counts()[1], 1);
        assert_eq!(snap.sum(), 1);
        assert_eq!(snap.quantile_ns(0.25), 0);
    }

    #[test]
    fn bucket_bounds_cover_their_ranges() {
        for i in 0..HISTOGRAM_BUCKETS - 1 {
            let hi = Histogram::bucket_upper_bound(i).unwrap();
            assert_eq!(Histogram::bucket_of(hi), i, "upper bound of {i}");
            assert_eq!(Histogram::bucket_of(hi + 1), i + 1, "next after {i}");
        }
        assert_eq!(Histogram::bucket_upper_bound(HISTOGRAM_BUCKETS - 1), None);
    }

    #[test]
    fn quantiles_are_upper_bounds() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(Duration::from_nanos(1_000));
        }
        for _ in 0..10 {
            h.record(Duration::from_nanos(1_000_000));
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 100);
        let p50 = snap.quantile_ns(0.50);
        let p99 = snap.quantile_ns(0.99);
        assert!((1_000..2_048).contains(&p50), "p50 {p50}");
        assert!((1_000_000..2_097_152).contains(&p99), "p99 {p99}");
        assert!(snap.quantile_ns(0.0) > 0);
        assert_eq!(HistogramSnapshot::default().quantile_ns(0.99), 0);
        // All-zero samples quantile to the zero bucket's edge.
        let z = Histogram::new();
        z.record(Duration::ZERO);
        assert_eq!(z.snapshot().quantile_ns(0.99), 0);
    }

    #[test]
    fn merge_sums_buckets_and_sum() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.observe(100);
        b.observe(100);
        b.observe(50_000);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count(), 3);
        assert_eq!(m.sum(), 50_200);
    }
}
