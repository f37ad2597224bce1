//! E18: multi-thread scaling of the concurrent filter layer.
//!
//! The tutorial lists thread scalability among the features a future
//! filter must provide (§1, feature 6) and sketches the two standard
//! mechanisms: partition the structure behind fine-grained locks, or
//! make the mutation itself atomic. This experiment measures both —
//! the sharded CQF the server serves (`service::build_sharded_cqf`,
//! per-shard mutexes) and the wait-free `AtomicBlockedBloomFilter`
//! (`fetch_or` inserts) — against a global-lock CQF baseline (the
//! same builder with one shard), reporting aggregate insert and query
//! throughput per thread count.
//!
//! Caveat printed with the results: speedup over the 1-thread row
//! requires hardware parallelism. On a single-core host the expected
//! result is flat scaling (no speedup, and no collapse either); the
//! sharded-vs-global-lock gap under contention is still visible.

use crate::harness::{header, mops};
use bloom::AtomicBlockedBloomFilter;
use service::build_sharded_cqf;
use std::time::Instant;
use workloads::{disjoint_keys, unique_keys};

const N: usize = 400_000;
const THREADS: [usize; 3] = [1, 2, 4];
const EPS: f64 = 1.0 / 256.0;
const SEED: u64 = 1800;

/// Run `insert` then `query` split over `threads` scoped threads;
/// return (insert Mops, query Mops).
fn run_threads<F: Sync>(
    threads: usize,
    keys: &[u64],
    probes: &[u64],
    filter: &F,
    insert: impl Fn(&F, &[u64]) + Send + Sync + Copy,
    query: impl Fn(&F, &[u64]) -> usize + Send + Sync + Copy,
) -> (f64, f64) {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for chunk in keys.chunks(keys.len().div_ceil(threads)) {
            s.spawn(move || insert(filter, chunk));
        }
    });
    let ti = t0.elapsed();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for chunk in probes.chunks(probes.len().div_ceil(threads)) {
            s.spawn(move || std::hint::black_box(query(filter, chunk)));
        }
    });
    let tq = t0.elapsed();
    (mops(keys.len(), ti), mops(probes.len(), tq))
}

/// Print one structure's scaling table; returns the per-thread-count
/// aggregate (insert+query) Mops for the summary.
fn scaling_table<F: Sync>(
    name: &str,
    keys: &[u64],
    probes: &[u64],
    mut build: impl FnMut() -> F,
    insert: impl Fn(&F, &[u64]) + Send + Sync + Copy,
    query: impl Fn(&F, &[u64]) -> usize + Send + Sync + Copy,
) -> Vec<f64> {
    println!("{name}");
    println!("  threads   insert Mops   query Mops   aggregate   speedup");
    let mut aggregates = Vec::new();
    for &t in &THREADS {
        let f = build();
        let (ins, qry) = run_threads(t, keys, probes, &f, insert, query);
        let agg = 2.0 * ins * qry / (ins + qry); // harmonic mean: equal op counts
        aggregates.push(agg);
        println!(
            "  {t:>7}   {ins:>11.2}   {qry:>10.2}   {agg:>9.2}   {:>6.2}x",
            agg / aggregates[0]
        );
    }
    aggregates
}

/// E18: ops/sec versus thread count for the concurrent filters.
pub fn e18_threads() -> bool {
    header(
        "E18 — thread scaling: sharded CQF and atomic blocked Bloom",
        "partitioned and lock-free filters scale across threads (§1 feature 6)",
    );
    println!("speedup > 1x requires more than one core\n");

    let keys = unique_keys(1800, N);
    let probes = disjoint_keys(1801, N, &keys);

    scaling_table(
        "global-lock CQF (Sharded, 1 shard) — contention baseline",
        &keys,
        &probes,
        || build_sharded_cqf(N as u64, EPS, 0, SEED),
        |f, chunk| {
            for &k in chunk {
                f.insert(k).unwrap();
            }
        },
        |f, chunk| chunk.iter().filter(|&&k| f.contains(k)).count(),
    );
    println!();
    scaling_table(
        "sharded CQF (Sharded, 64 shards, per-shard mutex)",
        &keys,
        &probes,
        || build_sharded_cqf(N as u64, EPS, 6, SEED),
        |f, chunk| {
            for &k in chunk {
                f.insert(k).unwrap();
            }
        },
        |f, chunk| chunk.iter().filter(|&&k| f.contains(k)).count(),
    );
    println!();
    scaling_table(
        "sharded CQF, batch API (one lock per shard per batch)",
        &keys,
        &probes,
        || build_sharded_cqf(N as u64, EPS, 6, SEED),
        |f, chunk| f.insert_batch(chunk).unwrap(),
        |f, chunk| f.contains_batch(chunk).iter().filter(|&&b| b).count(),
    );
    println!();
    scaling_table(
        "atomic blocked Bloom (wait-free fetch_or)",
        &keys,
        &probes,
        || AtomicBlockedBloomFilter::new(N, EPS),
        |f, chunk| f.insert_batch(chunk),
        |f, chunk| chunk.iter().filter(|&&k| f.contains(k)).count(),
    );
    true
}
