//! Latency percentiles from the ledger's own samples.
//!
//! A log-linear histogram: exact below 128 ns, then 128 linear
//! sub-buckets per power of two, so a bucket is at most 1/128 (0.78%)
//! of its value wide. Memory is fixed (~58 KiB), so a faster commit
//! that answers more requests does not grow the process's peak RSS.
//! Quantiles interpolate linearly inside the bucket, so two runs that
//! land in the same bucket still report the digits they measured.

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = SUB * (64 - SUB_BITS as usize + 1);

pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let sub = (v >> (e - SUB_BITS)) as usize & (SUB - 1);
    (e - SUB_BITS + 1) as usize * SUB + sub
}

/// `[lower, upper)` of bucket `i`.
fn bucket_range(i: usize) -> (f64, f64) {
    if i < SUB {
        return (i as f64, i as f64 + 1.0);
    }
    let e = (i / SUB) as u32 + SUB_BITS - 1;
    let width = (1u64 << (e - SUB_BITS)) as f64;
    let lower = (1u64 << e) as f64 + (i % SUB) as f64 * width;
    (lower, lower + width)
}

impl Hist {
    pub fn record_ns(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.n += 1;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// The `q`-quantile in nanoseconds (0 when empty).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.n as f64).max(1.0);
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 >= rank {
                let (lo, hi) = bucket_range(i);
                let frac = ((rank - below as f64 - 0.5) / c as f64).clamp(0.0, 1.0);
                return lo + (hi - lo) * frac;
            }
            below += c;
        }
        bucket_range(BUCKETS - 1).1
    }

    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile_ns(q) / 1e3
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range_within_one_percent() {
        for v in [
            0u64,
            1,
            127,
            128,
            129,
            255,
            256,
            1000,
            23_456,
            1 << 40,
            u64::MAX,
        ] {
            let (lo, hi) = bucket_range(bucket_of(v));
            assert!(lo <= v as f64 && (v as f64) < hi || v == u64::MAX, "{v}");
            assert!(v < 128 || (hi - lo) / lo <= 1.0 / 128.0 + 1e-12, "{v}");
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_track_exact_order_statistics() {
        let mut h = Hist::default();
        for v in 1..=100_000u64 {
            h.record_ns(v * 10);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = q * 1_000_000.0;
            let got = h.quantile_ns(q);
            assert!((got - exact).abs() / exact < 0.01, "q{q}: {got} vs {exact}");
        }
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
