//! Thread-scaled k-mer-style counting — the tutorial's §1 feature 6
//! ("scale with the number of threads"): a sharded concurrent
//! counting quotient filter ingesting a skewed multiset from several
//! threads at once. The filter is the sharded CQF the filter service
//! serves, built by `service::build_sharded_cqf`.
//!
//! ```text
//! cargo run --release --example concurrent_counting
//! ```

use beyond_bloom::service::build_sharded_cqf;
use beyond_bloom::workloads::zipf::{rank_to_key, Zipf};
use std::time::Instant;

const DRAWS: usize = 2_000_000;
const DISTINCT: u64 = 200_000;
const EPS: f64 = 1.0 / 256.0;
const SHARD_BITS: u32 = 6;
const SEED: u64 = 7;

fn main() {
    // One shared skewed stream, pre-generated so every run ingests
    // the same multiset.
    let zipf = Zipf::new(DISTINCT, 1.1);
    let mut rng = beyond_bloom::workloads::rng(1);
    let stream: Vec<u64> = (0..DRAWS)
        .map(|_| rank_to_key(zipf.sample(&mut rng), 7))
        .collect();

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "ingesting {DRAWS} Zipf(1.1) draws over {DISTINCT} keys \
         ({cores} core(s) available — speedup is bounded by this)\n"
    );
    println!("{:>8} {:>12} {:>10}", "threads", "Mops", "speedup");
    let mut base = 0.0f64;
    for threads in [1usize, 2, 4, 8] {
        let f = build_sharded_cqf(DISTINCT * 2, EPS, SHARD_BITS, SEED);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for chunk in stream.chunks(DRAWS / threads) {
                let f = &f;
                s.spawn(move || {
                    for &k in chunk {
                        f.insert(k).expect("insert");
                    }
                });
            }
        });
        let mops = DRAWS as f64 / t0.elapsed().as_secs_f64() / 1e6;
        if threads == 1 {
            base = mops;
        }
        println!("{threads:>8} {mops:>12.2} {:>9.2}x", mops / base);
    }

    // Verify counts against the exact multiset.
    let f = build_sharded_cqf(DISTINCT * 2, EPS, SHARD_BITS, SEED);
    let mut truth = std::collections::HashMap::new();
    for &k in &stream {
        f.insert(k).unwrap();
        *truth.entry(k).or_insert(0u64) += 1;
    }
    let undercounts = truth.iter().filter(|(&k, &c)| f.count(k) < c).count();
    let hottest = truth.values().max().unwrap();
    println!(
        "\ncorrectness: 0 undercounts expected, saw {undercounts}; hottest key count {hottest}"
    );
}
