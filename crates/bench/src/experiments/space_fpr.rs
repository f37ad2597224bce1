//! E1 (space formulas), E2 (FPR meets ε), E3 (throughput profile).

use crate::harness::{header, mops};
use crate::measure_fpr;
use filter_core::{Filter, InsertFilter};
use std::time::Instant;
use workloads::{disjoint_keys, unique_keys};

// 0.95 · 2^20: the quotient/cuckoo tables round capacity up to a
// power of two, so sizing n at 95% of 2^20 slots measures them at
// their design load instead of double-provisioned.
const N: usize = 996_000;

/// Build every point filter for `n` keys at `eps`; return
/// `(name, bits/key, measured FPR, insert Mops, query Mops)` rows.
fn build_all(keys: &[u64], probes: &[u64], eps: f64) -> Vec<(&'static str, f64, f64, f64, f64)> {
    let n = keys.len();
    let mut rows = Vec::new();

    // Bloom
    {
        let mut f = bloom::BloomFilter::new(n, eps);
        let t0 = Instant::now();
        for &k in keys {
            f.insert(k).unwrap();
        }
        let ti = t0.elapsed();
        let t0 = Instant::now();
        let fpr = measure_fpr(probes, |k| f.contains(k));
        let tq = t0.elapsed();
        rows.push((
            "bloom",
            f.bits_per_key(),
            fpr,
            mops(n, ti),
            mops(probes.len(), tq),
        ));
    }
    // Blocked Bloom
    {
        let mut f = bloom::BlockedBloomFilter::new(n, eps);
        let t0 = Instant::now();
        for &k in keys {
            f.insert(k).unwrap();
        }
        let ti = t0.elapsed();
        let t0 = Instant::now();
        let fpr = measure_fpr(probes, |k| f.contains(k));
        let tq = t0.elapsed();
        rows.push((
            "blocked-bloom",
            f.bits_per_key(),
            fpr,
            mops(n, ti),
            mops(probes.len(), tq),
        ));
    }
    // Quotient
    {
        let mut f = quotient::QuotientFilter::for_capacity(n, eps);
        let t0 = Instant::now();
        for &k in keys {
            f.insert(k).unwrap();
        }
        let ti = t0.elapsed();
        let t0 = Instant::now();
        let fpr = measure_fpr(probes, |k| f.contains(k));
        let tq = t0.elapsed();
        rows.push((
            "quotient",
            f.bits_per_key(),
            fpr,
            mops(n, ti),
            mops(probes.len(), tq),
        ));
    }
    // Vector quotient (fixed 8-bit remainders; reported at eps 2^-8)
    if (eps - 2f64.powi(-8)).abs() < 1e-12 {
        let mut f = quotient::VectorQuotientFilter::new(n);
        let t0 = Instant::now();
        for &k in keys {
            f.insert(k).unwrap();
        }
        let ti = t0.elapsed();
        let t0 = Instant::now();
        let fpr = measure_fpr(probes, |k| f.contains(k));
        let tq = t0.elapsed();
        rows.push((
            "vector-quotient",
            f.bits_per_key(),
            fpr,
            mops(n, ti),
            mops(probes.len(), tq),
        ));
    }
    // Cuckoo
    {
        let bits = ((1.0 / eps).log2().ceil() as u32 + 3).min(32);
        let mut f = cuckoo::CuckooFilter::new(n, bits);
        let t0 = Instant::now();
        for &k in keys {
            f.insert(k).unwrap();
        }
        let ti = t0.elapsed();
        let t0 = Instant::now();
        let fpr = measure_fpr(probes, |k| f.contains(k));
        let tq = t0.elapsed();
        rows.push((
            "cuckoo",
            f.bits_per_key(),
            fpr,
            mops(n, ti),
            mops(probes.len(), tq),
        ));
    }
    // Morton (fixed 8-bit fingerprints; reported at eps 2^-8)
    if (eps - 2f64.powi(-8)).abs() < 1e-12 {
        let mut f = cuckoo::MortonFilter::new(n);
        let t0 = Instant::now();
        for &k in keys {
            f.insert(k).unwrap();
        }
        let ti = t0.elapsed();
        let t0 = Instant::now();
        let fpr = measure_fpr(probes, |k| f.contains(k));
        let tq = t0.elapsed();
        rows.push((
            "morton",
            f.bits_per_key(),
            fpr,
            mops(n, ti),
            mops(probes.len(), tq),
        ));
    }
    // Prefix
    {
        let bits = ((1.0 / eps).log2().ceil() as u32 + 5).min(32);
        let mut f = prefix_filter::PrefixFilter::new(n, bits);
        let t0 = Instant::now();
        for &k in keys {
            f.insert(k).unwrap();
        }
        let ti = t0.elapsed();
        let t0 = Instant::now();
        let fpr = measure_fpr(probes, |k| f.contains(k));
        let tq = t0.elapsed();
        rows.push((
            "prefix",
            f.bits_per_key(),
            fpr,
            mops(n, ti),
            mops(probes.len(), tq),
        ));
    }
    // XOR (static)
    {
        let bits = ((1.0 / eps).log2().ceil() as u32).clamp(2, 32);
        let t0 = Instant::now();
        let f = xorf::XorFilter::build(keys, bits).unwrap();
        let ti = t0.elapsed();
        let t0 = Instant::now();
        let fpr = measure_fpr(probes, |k| f.contains(k));
        let tq = t0.elapsed();
        rows.push((
            "xor (static)",
            f.bits_per_key(),
            fpr,
            mops(n, ti),
            mops(probes.len(), tq),
        ));
    }
    // Ribbon (static)
    {
        let bits = ((1.0 / eps).log2().ceil() as u32).clamp(2, 32);
        let t0 = Instant::now();
        let f = ribbon::RibbonFilter::build(keys, bits).unwrap();
        let ti = t0.elapsed();
        let t0 = Instant::now();
        let fpr = measure_fpr(probes, |k| f.contains(k));
        let tq = t0.elapsed();
        rows.push((
            "ribbon (static)",
            f.bits_per_key(),
            fpr,
            mops(n, ti),
            mops(probes.len(), tq),
        ));
    }
    rows
}

/// E1: space per filter vs the formulas of §2/§2.7.
pub fn e1_space() -> bool {
    header(
        "E1: space vs formulas (n = 1M)",
        "Bloom 1.44*n*lg(1/e); QF n*lg(1/e)+c*n; CF n*lg(1/e)+3n; \
         XOR 1.23*n*lg(1/e); ribbon ~1.05x (sharded standard ribbon)",
    );
    let keys = unique_keys(1, N);
    let probes = disjoint_keys(2, 100_000, &keys);
    for eps_pow in [8, 16] {
        let eps = 2f64.powi(-eps_pow);
        let bound = eps_pow as f64;
        println!("eps = 2^-{eps_pow} (bound = {bound} bits/key):");
        for (name, bpk, _, _, _) in build_all(&keys, &probes, eps) {
            println!(
                "  {name:<16} {bpk:>7.2} bits/key  ({:>5.3}x bound)",
                bpk / bound
            );
        }
    }
    true
}

/// E2: measured FPR meets the configured ε.
pub fn e2_fpr() -> bool {
    header(
        "E2: measured FPR vs configured eps (n = 1M, 100k probes)",
        "a filter for eps returns absent with prob >= 1-eps for non-members",
    );
    let keys = unique_keys(3, N);
    let probes = disjoint_keys(4, 100_000, &keys);
    for eps_pow in [8, 12] {
        let eps = 2f64.powi(-eps_pow);
        println!("eps = 2^-{eps_pow} = {eps:.6}:");
        for (name, _, fpr, _, _) in build_all(&keys, &probes, eps) {
            let ok = if fpr <= 3.0 * eps { "ok" } else { "HIGH" };
            println!("  {name:<16} measured {fpr:.6}  [{ok}]");
        }
    }
    true
}

/// E3: insert/query throughput; ribbon queries slower than the fast
/// fingerprint filters (§2.7).
pub fn e3_throughput() -> bool {
    header(
        "E3: throughput (n = 1M)",
        "ribbon query slower than fast competing filters; \
         fingerprint filters competitive with Bloom",
    );
    let keys = unique_keys(5, N);
    let probes = disjoint_keys(6, 100_000, &keys);
    println!(
        "{:<16} {:>12} {:>12}",
        "filter", "insert Mops", "query Mops"
    );
    let rows = build_all(&keys, &probes, 2f64.powi(-8));
    let mut ribbon_q = 0.0;
    let mut best_other = 0.0f64;
    for (name, _, _, ins, qry) in &rows {
        println!("{name:<16} {ins:>12.2} {qry:>12.2}");
        if *name == "ribbon (static)" {
            ribbon_q = *qry;
        } else {
            best_other = best_other.max(*qry);
        }
    }
    println!(
        "ribbon query vs fastest competitor: {:.2}x slower",
        best_other / ribbon_q.max(1e-9)
    );
    true
}
