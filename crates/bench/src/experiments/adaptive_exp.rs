//! E7 (adaptive filters under adversarial queries), E12 (stacked
//! filters on hot negatives).

use crate::harness::header;
use filter_core::{AdaptiveFilter, Filter, InsertFilter};
use workloads::zipf::{rank_to_key, Zipf};
use workloads::{disjoint_keys, unique_keys};

/// E7: adversarial replay of discovered false positives.
pub fn e7_adaptive() -> bool {
    header(
        "E7: adaptivity under adversarial replay (n = 100k, r = 8)",
        "an adaptive filter sees O(eps*n) false positives on ANY \
         n-query negative sequence, even adversarial replay; a \
         traditional filter repeats the same FP forever",
    );
    let keys = unique_keys(20, 100_000);
    let neg = disjoint_keys(21, 10_000, &keys);
    const REPLAYS: usize = 100;

    // Traditional quotient filter: no adaptation.
    let mut qf = quotient::QuotientFilter::for_capacity(100_000, 1.0 / 256.0);
    for &k in &keys {
        qf.insert(k).unwrap();
    }
    let mut qf_fps = 0u64;
    for &k in &neg {
        for _ in 0..REPLAYS {
            if qf.contains(k) {
                qf_fps += 1;
            }
        }
    }

    // Adaptive quotient filter.
    let mut aqf = adaptive::AdaptiveQuotientFilter::new(17, 8);
    for &k in &keys {
        aqf.insert(k).unwrap();
    }
    let mut aqf_fps = 0u64;
    for &k in &neg {
        for _ in 0..REPLAYS {
            if aqf.contains(k) {
                aqf_fps += 1;
                aqf.adapt(k);
            }
        }
    }

    // Adaptive cuckoo filter.
    let mut acf = cuckoo::AdaptiveCuckooFilter::new(120_000, 8);
    for &k in &keys {
        acf.insert(k).unwrap();
    }
    let mut acf_fps = 0u64;
    for &k in &neg {
        for _ in 0..REPLAYS {
            if acf.contains(k) {
                acf_fps += 1;
                acf.adapt(k);
            }
        }
    }

    let total = (neg.len() * REPLAYS) as f64;
    println!("adversarial stream: 10k distinct negatives x {REPLAYS} replays");
    println!("{:<26} {:>12} {:>12}", "filter", "false pos", "fp rate");
    println!(
        "{:<26} {:>12} {:>12.6}",
        "quotient (traditional)",
        qf_fps,
        qf_fps as f64 / total
    );
    println!(
        "{:<26} {:>12} {:>12.6}",
        "adaptive quotient",
        aqf_fps,
        aqf_fps as f64 / total
    );
    println!(
        "{:<26} {:>12} {:>12.6}",
        "adaptive cuckoo",
        acf_fps,
        acf_fps as f64 / total
    );

    // Zipfian negative stream (the Bender et al. analysis setting).
    let z = Zipf::new(50_000, 1.1);
    let mut rng = workloads::rng(22);
    let mut aqf2 = adaptive::AdaptiveQuotientFilter::new(17, 8);
    let mut qf2 = quotient::QuotientFilter::for_capacity(100_000, 1.0 / 256.0);
    for &k in &keys {
        aqf2.insert(k).unwrap();
        qf2.insert(k).unwrap();
    }
    let key_set: std::collections::HashSet<u64> = keys.iter().copied().collect();
    let mut a_fp = 0u64;
    let mut q_fp = 0u64;
    for _ in 0..1_000_000 {
        let k = rank_to_key(z.sample(&mut rng), 0xbee) | 1 << 63; // disjoint-ish
        if !key_set.contains(&k) {
            if qf2.contains(k) {
                q_fp += 1;
            }
            if aqf2.contains(k) {
                a_fp += 1;
                aqf2.adapt(k);
            }
        }
    }
    println!("zipfian 1M-query negative stream (s=1.1):");
    println!("  traditional QF fps: {q_fp}; adaptive QF fps: {a_fp}");
    true
}

/// E12: stacked filters exponentially reduce the FPR of frequently
/// queried negatives.
pub fn e12_stacked() -> bool {
    header(
        "E12: stacked filters (n = 100k positives, 20k hot negatives)",
        "inserting frequently queried non-existing keys into a \
         hierarchy of filters exponentially decreases their FPR",
    );
    let pos = unique_keys(23, 100_000);
    let hot = disjoint_keys(24, 20_000, &pos);
    let mut exclude = pos.clone();
    exclude.extend_from_slice(&hot);
    let cold = disjoint_keys(25, 50_000, &exclude);

    let mut plain = bloom::BloomFilter::new(100_000, 0.05);
    for &k in &pos {
        plain.insert(k).unwrap();
    }
    let plain_hot = crate::measure_fpr(&hot, |k| plain.contains(k));
    let plain_cold = crate::measure_fpr(&cold, |k| plain.contains(k));

    println!(
        "{:<22} {:>12} {:>12} {:>12}",
        "filter", "hot-neg fpr", "cold fpr", "bits/key"
    );
    println!(
        "{:<22} {:>12.5} {:>12.5} {:>12.2}",
        "plain bloom",
        plain_hot,
        plain_cold,
        plain.bits_per_key()
    );
    for depth in [3usize, 5] {
        let f = stacked::StackedFilter::build(&pos, &hot, depth, 0.05);
        let hot_fpr = crate::measure_fpr(&hot, |k| f.contains(k));
        let cold_fpr = crate::measure_fpr(&cold, |k| f.contains(k));
        println!(
            "{:<22} {:>12.5} {:>12.5} {:>12.2}",
            format!("stacked depth={depth}"),
            hot_fpr,
            cold_fpr,
            f.size_in_bytes() as f64 * 8.0 / pos.len() as f64
        );
    }
    true
}
