//! E9: counting filters on skewed multisets (§2.6).

use crate::harness::header;
use filter_core::{CountingFilter, Filter};
use std::collections::HashMap;
use workloads::zipf::{rank_to_key, Zipf};

/// E9: CQF vs CBF vs spectral vs d-left on Zipfian multisets.
pub fn e9_counting() -> bool {
    header(
        "E9: counting on skew (Zipf draws over 100k distinct keys)",
        "CQF: asymptotically optimal counter space, handles skew; \
         spectral < CBF via variable counters; CBF saturates and \
         undercounts after deletes; counts never under-reported on \
         insert-only workloads",
    );
    for (s, draws) in [(0.99, 2_000_000usize), (1.5, 2_000_000)] {
        let z = Zipf::new(100_000, s);
        let mut rng = workloads::rng(40);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let stream: Vec<u64> = (0..draws)
            .map(|_| {
                let k = rank_to_key(z.sample(&mut rng), 0xf00d);
                *truth.entry(k).or_insert(0) += 1;
                k
            })
            .collect();
        let distinct = truth.len();
        let max_count = *truth.values().max().unwrap();
        println!("zipf s={s}: {draws} draws, {distinct} distinct, max count {max_count}");

        // CQF
        let mut cqf = quotient::CountingQuotientFilter::for_capacity(distinct * 3, 1.0 / 256.0);
        cqf.set_auto_expand(true);
        for &k in &stream {
            cqf.insert_count(k, 1).unwrap();
        }
        // CBF sized to hold max_count without saturating: needs
        // ceil(lg(max_count)) counter bits in EVERY slot.
        let cbits = (64 - (max_count.max(1)).leading_zeros()).clamp(4, 32);
        let mut cbf = bloom::CountingBloomFilter::new(distinct, 1.0 / 256.0, cbits);
        for &k in &stream {
            cbf.insert_count(k, 1).unwrap();
        }
        // Spectral with 3-bit base counters.
        let mut sp = bloom::SpectralBloomFilter::new(distinct, 1.0 / 256.0, 3);
        for &k in &stream {
            sp.insert_count(k, 1).unwrap();
        }
        // d-left (8-bit saturating counters: reports are clamped).
        let mut dl = bloom::DLeftCountingFilter::new(distinct * 2, 4);
        for &k in &stream {
            dl.insert_count(k, 1).unwrap();
        }

        let check = |name: &str, count: &dyn Fn(u64) -> u64, bytes: usize| {
            let mut under = 0usize;
            let mut over = 0usize;
            for (&k, &t) in &truth {
                let got = count(k);
                if got < t.min(255) {
                    // (255 cap accounts for d-left's saturating u8)
                    under += 1;
                } else if got > t {
                    over += 1;
                }
            }
            println!(
                "  {:<18} {:>8.1} bits/key  undercounts: {:<6} overcounts: {} / {}",
                name,
                bytes as f64 * 8.0 / distinct as f64,
                under,
                over,
                distinct
            );
        };
        check("cqf", &|k| cqf.count(k), cqf.size_in_bytes());
        check(
            &format!("cbf ({cbits}-bit ctrs)"),
            &|k| cbf.count(k),
            cbf.size_in_bytes(),
        );
        check("spectral", &|k| sp.count(k), sp.size_in_bytes());
        check("d-left", &|k| dl.count(k), dl.size_in_bytes());
    }

    // Saturation demo: a 4-bit CBF undercounts hot keys.
    println!("CBF saturation: 4-bit counters under a hot key (count 1000):");
    let mut small = bloom::CountingBloomFilter::new(1_000, 0.01, 4);
    small.insert_count(77, 1000).unwrap();
    println!(
        "  reported count = {} (true 1000); saturation events = {}",
        small.count(77),
        small.saturations()
    );
    true
}
