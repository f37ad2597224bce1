//! Empirical false-positive-rate regression tests.
//!
//! Every filter family is built at a fixed seed over a fixed
//! workload, so the measured FPR is a deterministic number — these
//! tests pin it within 1.5× of the configured epsilon, catching
//! regressions in hashing, sizing arithmetic, or probe layout that
//! unit tests (which check membership, not rates) would miss.
//!
//! The 1.5× budget is intentionally tighter than the 2–2.5× sanity
//! bounds in the per-crate unit tests: with 200k probes the binomial
//! noise at ε = 1% is ±~7% relative, so 1.5× only passes when the
//! achieved rate is genuinely near the configured target.

use beyond_bloom::core::{Filter, InsertFilter};
use beyond_bloom::workloads::{disjoint_keys, unique_keys};

const N: usize = 100_000;
const PROBES: usize = 200_000;

/// Measured FPR of `contains` over `PROBES` never-inserted keys.
fn measured_fpr(probes: &[u64], contains: impl Fn(u64) -> bool) -> f64 {
    probes.iter().filter(|&&k| contains(k)).count() as f64 / probes.len() as f64
}

/// Assert `fpr <= 1.5 × eps`, and that the filter is not trivially
/// over-sized (an FPR of ~0 at ε = 1% usually means sizing is wrong
/// in the other direction — or membership is broken and everything
/// returns false, which the no-false-negative check catches).
fn assert_fpr_near(name: &str, fpr: f64, eps: f64) {
    assert!(fpr <= 1.5 * eps, "{name}: measured FPR {fpr} > 1.5×{eps}");
    assert!(
        fpr >= eps / 100.0,
        "{name}: measured FPR {fpr} implausibly far below {eps}"
    );
}

#[test]
fn plain_bloom_fpr() {
    let eps = 0.01;
    let keys = unique_keys(1000, N);
    let probes = disjoint_keys(1001, PROBES, &keys);
    let mut f = beyond_bloom::bloom::BloomFilter::with_seed(N, eps, 7);
    for &k in &keys {
        f.insert(k).unwrap();
    }
    assert!(keys.iter().all(|&k| f.contains(k)));
    assert_fpr_near("bloom", measured_fpr(&probes, |k| f.contains(k)), eps);
}

#[test]
fn blocked_bloom_fpr() {
    let eps = 0.01;
    let keys = unique_keys(1002, N);
    let probes = disjoint_keys(1003, PROBES, &keys);
    let mut f = beyond_bloom::bloom::BlockedBloomFilter::with_seed(N, eps, 7);
    for &k in &keys {
        f.insert(k).unwrap();
    }
    assert!(keys.iter().all(|&k| f.contains(k)));
    assert_fpr_near(
        "blocked-bloom",
        measured_fpr(&probes, |k| f.contains(k)),
        eps,
    );
}

#[test]
fn atomic_blocked_bloom_fpr() {
    let eps = 0.01;
    let keys = unique_keys(1004, N);
    let probes = disjoint_keys(1005, PROBES, &keys);
    let f = beyond_bloom::bloom::AtomicBlockedBloomFilter::with_seed(N, eps, 7);
    f.insert_batch(&keys);
    assert!(keys.iter().all(|&k| f.contains(k)));
    assert_fpr_near(
        "atomic-blocked",
        measured_fpr(&probes, |k| f.contains(k)),
        eps,
    );
}

#[test]
fn two_choice_bloom_fpr() {
    // Two-choice placement plus ~2 extra bits/key keeps the register
    // -blocked layout (fixed k=8) inside the same 1.5×ε budget.
    let eps = 0.01;
    let keys = unique_keys(1020, N);
    let probes = disjoint_keys(1021, PROBES, &keys);
    let mut f = beyond_bloom::bloom::TwoChoiceRegisterBloomFilter::with_seed(N, eps, 7);
    for &k in &keys {
        f.insert(k).unwrap();
    }
    assert!(keys.iter().all(|&k| f.contains(k)));
    assert_fpr_near("two-choice", measured_fpr(&probes, |k| f.contains(k)), eps);
}

#[test]
fn cuckoo_fpr() {
    // Configured rate at the achieved load: 2·b·2^-fp_bits·load.
    let keys = unique_keys(1006, N);
    let probes = disjoint_keys(1007, PROBES, &keys);
    let mut f = beyond_bloom::cuckoo::CuckooFilter::with_params(N, 12, 4, 7);
    for &k in &keys {
        f.insert(k).unwrap();
    }
    assert!(keys.iter().all(|&k| f.contains(k)));
    let eps = f.expected_fpr();
    assert_fpr_near("cuckoo", measured_fpr(&probes, |k| f.contains(k)), eps);
}

#[test]
fn quotient_fpr() {
    // QF false positives are fingerprint collisions: ε ≈ load·2^-r.
    let (q, r) = (17u32, 10u32);
    let keys = unique_keys(1008, N);
    let probes = disjoint_keys(1009, PROBES, &keys);
    let mut f = beyond_bloom::quotient::QuotientFilter::with_seed(q, r, 7);
    for &k in &keys {
        f.insert(k).unwrap();
    }
    assert!(keys.iter().all(|&k| f.contains(k)));
    let load = N as f64 / (1u64 << q) as f64;
    let eps = load * 0.5f64.powi(r as i32);
    assert_fpr_near("quotient", measured_fpr(&probes, |k| f.contains(k)), eps);
}

#[test]
fn xor_fpr() {
    // Static filter: ε = 2^-fp_bits exactly by construction.
    let fp_bits = 10u32;
    let keys = unique_keys(1010, N);
    let probes = disjoint_keys(1011, PROBES, &keys);
    let f = beyond_bloom::xorf::XorFilter::build_with_seed(&keys, fp_bits, 7).unwrap();
    assert!(keys.iter().all(|&k| f.contains(k)));
    let eps = 0.5f64.powi(fp_bits as i32);
    assert_fpr_near("xor", measured_fpr(&probes, |k| f.contains(k)), eps);
}

#[test]
fn fuse3_fpr() {
    // Static filter: ε = 2^-fp_bits exactly by construction.
    let fp_bits = 8u32;
    let keys = unique_keys(1014, N);
    let probes = disjoint_keys(1015, PROBES, &keys);
    let f = beyond_bloom::xorf::BinaryFuseFilter::build_with_seed(
        &keys,
        beyond_bloom::xorf::FuseArity::Three,
        fp_bits,
        7,
    )
    .unwrap();
    assert!(keys.iter().all(|&k| f.contains(k)));
    let eps = 0.5f64.powi(fp_bits as i32);
    assert_fpr_near("fuse3", measured_fpr(&probes, |k| f.contains(k)), eps);
}

#[test]
fn fuse4_fpr() {
    let fp_bits = 8u32;
    let keys = unique_keys(1016, N);
    let probes = disjoint_keys(1017, PROBES, &keys);
    let f = beyond_bloom::xorf::BinaryFuseFilter::build_with_seed(
        &keys,
        beyond_bloom::xorf::FuseArity::Four,
        fp_bits,
        7,
    )
    .unwrap();
    assert!(keys.iter().all(|&k| f.contains(k)));
    let eps = 0.5f64.powi(fp_bits as i32);
    assert_fpr_near("fuse4", measured_fpr(&probes, |k| f.contains(k)), eps);
}

#[test]
fn compacting_fpr_after_full_compaction() {
    // Post-compaction the keys live in one fuse tier (ε = 2^-8) plus
    // an empty front Bloom that contributes nothing.
    let eps = 1.0 / 256.0;
    let keys = unique_keys(1018, N);
    let probes = disjoint_keys(1019, PROBES, &keys);
    let f = beyond_bloom::compacting::CompactingFilter::new(
        beyond_bloom::compacting::CompactingConfig::new(4096, eps, 7),
    );
    for &k in &keys {
        f.insert(k);
    }
    f.compact_all();
    assert!(keys.iter().all(|&k| f.contains(k)));
    assert_fpr_near("compacting", measured_fpr(&probes, |k| f.contains(k)), eps);
}

#[test]
fn sharded_bloom_fpr_matches_unsharded_budget() {
    // Sharding must not change the rate: each shard is a Bloom filter
    // sized for its share of the keys at the same ε.
    let eps = 0.01;
    let keys = unique_keys(1012, N);
    let probes = disjoint_keys(1013, PROBES, &keys);
    let shard_bits = 4u32;
    let per_shard = N >> shard_bits;
    let f = beyond_bloom::concurrent::Sharded::new(shard_bits, |i| {
        beyond_bloom::bloom::BloomFilter::with_seed(per_shard + per_shard / 8, eps, 7 ^ i as u64)
    });
    f.insert_batch(&keys).unwrap();
    assert!(keys.iter().all(|&k| f.contains(k)));
    assert_fpr_near(
        "sharded-bloom",
        measured_fpr(&probes, |k| f.contains(k)),
        eps,
    );
}

#[test]
fn sharded_cqf_fpr() {
    // The served sharded CQF, through its batch paths: 16 shards of
    // 2^12 slots with 8-bit remainders hold 50k keys.
    let eps = 1.0 / 256.0;
    let keys = unique_keys(310, 50_000);
    let probes = disjoint_keys(311, 50_000, &keys);
    let f = beyond_bloom::service::build_sharded_cqf(50_000, eps, 4, 0x51ab);
    f.insert_batch(&keys).unwrap();
    assert!(f.contains_batch(&keys).iter().all(|&b| b));
    // len() counts distinct fingerprints; a few dozen keys share one.
    assert!((49_500..=50_000).contains(&f.len()), "len {}", f.len());
    assert_fpr_near("sharded-cqf", measured_fpr(&probes, |k| f.contains(k)), eps);
}
