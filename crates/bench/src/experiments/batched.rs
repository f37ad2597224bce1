//! E20: batched probe kernels vs scalar lookup loops.
//!
//! Every point-filter family ships a `BatchedFilter::contains_chunk`
//! kernel that hoists hashing, issues software prefetches for the
//! whole chunk, then resolves from (hopefully) warm lines. This
//! experiment measures what that buys: scalar pointwise `contains`
//! against `contains_many` at batch widths 1/8/32/256, on a
//! cache-resident table and on a DRAM-resident one where the probe
//! stream is miss-dominated and memory-level parallelism matters.
//!
//! The write path gets the same treatment: for every backend the
//! service serves, built with the service's own `build_*`
//! constructors, pointwise `insert` against `insert_batch` in batches
//! of 64 keys, on the DRAM-resident size.
//!
//! Both tables use the paired protocol ([`harness::paired_rounds`]),
//! and every ratio is the median of per-round ratios, so host drift
//! between passes cancels instead of landing on one side.
//!
//! The gate is an anti-pessimization gate, not a speedup guarantee
//! (shared CI boxes are too noisy to assert the win itself): the best
//! batched probe width is at least 0.9× scalar for every family, and
//! batched insert at least 0.9× pointwise for every served backend.

use crate::harness::{self, header, median, mops};
use filter_core::{BatchedFilter, InsertFilter};
use service::{
    build_atomic_bloom, build_compacting, build_sharded_cqf, build_sharded_cuckoo,
    build_sharded_register_bloom, build_sharded_two_choice,
};
use workloads::unique_keys;

/// Batch widths handed to `contains_many`; 32 equals `PROBE_CHUNK`.
const WIDTHS: [usize; 4] = [1, 8, 32, 256];

/// Keys per `insert_batch` call in the insert table.
const INSERT_BATCH: usize = 64;

/// Capacity of every filter in the insert table: past L2 for every
/// backend, so an insert's line is a miss the batched path can overlap.
const INSERT_CAPACITY: usize = 1 << 22;

/// Paired rounds per table row (odd: a median is one round's).
const ROUNDS: usize = 5;

struct FamilyResult {
    name: &'static str,
    scalar_mops: f64,
    width_mops: [f64; 4],
    /// Median per-round best-width / scalar ratio.
    ratio: f64,
}

/// Time scalar and batched probes over `probes`, each pass repeated
/// until at least `target_ops` lookups have been issued. Mode 0 is
/// the scalar loop, mode `1 + i` batch width `WIDTHS[i]`.
fn bench_family<F: BatchedFilter>(
    name: &'static str,
    f: &F,
    probes: &[u64],
    target_ops: usize,
) -> FamilyResult {
    let reps = (target_ops / probes.len()).max(1);
    let mut out = vec![false; probes.len()];
    let rounds = harness::paired_rounds::<5>(ROUNDS, |mode| {
        harness::time(|| {
            if mode == 0 {
                let mut hits = 0usize;
                for _ in 0..reps {
                    for &k in probes {
                        hits += f.contains(k) as usize;
                    }
                }
                hits
            } else {
                let w = WIDTHS[mode - 1];
                for _ in 0..reps {
                    for (kc, oc) in probes.chunks(w).zip(out.chunks_mut(w)) {
                        f.contains_many(kc, oc);
                    }
                }
                std::hint::black_box(&out);
                0
            }
        })
    });
    let rounds: Vec<[f64; 5]> = rounds
        .iter()
        .map(|r| r.map(|t| mops(reps * probes.len(), t)))
        .collect();
    FamilyResult {
        name,
        scalar_mops: median(rounds.iter().map(|r| r[0])),
        width_mops: std::array::from_fn(|i| median(rounds.iter().map(|r| r[i + 1]))),
        ratio: median(
            rounds
                .iter()
                .map(|r| r[1..].iter().cloned().fold(0.0, f64::max) / r[0]),
        ),
    }
}

/// Time inserting `keys` into fresh filters key by key (mode 0) and
/// in batches of [`INSERT_BATCH`] (mode 1) with
/// [`harness::paired_rounds`].
/// Building and dropping (which joins a compacting filter's worker)
/// are untimed. Returns the median pointwise Mops, the median batched
/// Mops and the median per-round batched/pointwise ratio.
fn bench_insert<F>(
    build: impl Fn() -> F,
    insert: impl Fn(&F, u64),
    insert_batch: impl Fn(&F, &[u64]),
    keys: &[u64],
) -> (f64, f64, f64) {
    let rounds = harness::paired_rounds::<2>(ROUNDS, |mode| {
        let f = build();
        let t = harness::time(|| {
            if mode == 1 {
                keys.chunks(INSERT_BATCH).for_each(|b| insert_batch(&f, b));
            } else {
                keys.iter().for_each(|&k| insert(&f, k));
            }
        });
        drop(f);
        t
    });
    let rounds: Vec<[f64; 2]> = rounds
        .iter()
        .map(|r| r.map(|t| mops(keys.len(), t)))
        .collect();
    (
        median(rounds.iter().map(|r| r[0])),
        median(rounds.iter().map(|r| r[1])),
        median(rounds.iter().map(|r| r[1] / r[0])),
    )
}

/// The insert table: pointwise vs batch-64 inserts of `n` keys into
/// every served backend, built as the service builds it at
/// [`INSERT_CAPACITY`]. Returns whether every backend's median paired
/// ratio kept batched at least 0.9× pointwise.
fn insert_table(n: usize) -> bool {
    const EPS: f64 = 0.01;
    const SHARD_BITS: u32 = 4;
    const SEED: u64 = 0xe20;
    let cap = INSERT_CAPACITY as u64;
    let keys = unique_keys(2_022, n);
    let rows = [
        (
            "atomic-bloom",
            bench_insert(
                || build_atomic_bloom(cap, EPS, SEED),
                |f, k| f.insert(k),
                |f, b| f.insert_batch(b),
                &keys,
            ),
        ),
        (
            "sharded-cuckoo",
            bench_insert(
                || build_sharded_cuckoo(cap, EPS, SHARD_BITS, SEED),
                |f, k| f.insert(k).unwrap(),
                |f, b| f.insert_batch(b).unwrap(),
                &keys,
            ),
        ),
        (
            "sharded-cqf",
            bench_insert(
                || build_sharded_cqf(cap, EPS, SHARD_BITS, SEED),
                |f, k| f.insert(k).unwrap(),
                |f, b| f.insert_batch(b).unwrap(),
                &keys,
            ),
        ),
        (
            "register-bloom",
            bench_insert(
                || build_sharded_register_bloom(cap, EPS, SHARD_BITS, SEED),
                |f, k| f.insert(k).unwrap(),
                |f, b| f.insert_batch(b).unwrap(),
                &keys,
            ),
        ),
        (
            "compacting",
            bench_insert(
                || build_compacting(cap, EPS, SEED),
                |f, k| f.insert(k),
                |f, b| f.insert_batch(b),
                &keys,
            ),
        ),
        (
            "two-choice-bloom",
            bench_insert(
                || build_sharded_two_choice(cap, EPS, SHARD_BITS, SEED),
                |f, k| f.insert(k).unwrap(),
                |f, b| f.insert_batch(b).unwrap(),
                &keys,
            ),
        ),
    ];
    println!(
        "\ninserts, served backends at capacity {INSERT_CAPACITY}, {n} keys per pass, \
         batch {INSERT_BATCH}, median of {ROUNDS} paired rounds, Mops:"
    );
    println!(
        "{:<18} {:>9} {:>9} {:>16}",
        "backend", "pointwise", "batched", "batched/pointwise"
    );
    let mut pass = true;
    for (name, (point, batched, ratio)) in rows {
        println!("{name:<18} {point:>9.2} {batched:>9.2} {ratio:>15.2}x");
        pass &= ratio >= 0.9;
    }
    pass
}

/// E20: scalar vs batched lookup and insert throughput per family.
pub fn e20_batched() -> bool {
    header(
        "E20 — batched probe kernels (scalar vs contains_many)",
        "hash-hoisted, prefetch-pipelined batch probes overlap cache \
         misses; the win grows with table size (DRAM-resident) and \
         batch width, and batched is never slower than scalar",
    );
    let target_ops = harness::target_ops();
    let mut all_pass = true;

    for size in harness::size_ladder() {
        let n = size.keys;
        let keys = unique_keys(2_020, n);
        let probes = harness::half_hit_probes(&keys, size.probes, 2_021);

        let mut results = Vec::new();
        {
            let mut f = bloom::BloomFilter::new(n, 0.01);
            for &k in &keys {
                f.insert(k).unwrap();
            }
            results.push(bench_family("bloom", &f, &probes, target_ops));
        }
        {
            let mut f = bloom::BlockedBloomFilter::new(n, 0.01);
            for &k in &keys {
                f.insert(k).unwrap();
            }
            results.push(bench_family("blocked-bloom", &f, &probes, target_ops));
        }
        {
            let f = bloom::AtomicBlockedBloomFilter::new(n, 0.01);
            f.insert_batch(&keys);
            results.push(bench_family("atomic-blocked", &f, &probes, target_ops));
        }
        {
            let mut f = cuckoo::CuckooFilter::new(n, 12);
            for &k in &keys {
                f.insert(k).unwrap();
            }
            results.push(bench_family("cuckoo", &f, &probes, target_ops));
        }
        {
            let mut f = quotient::CountingQuotientFilter::for_capacity(n, 0.01);
            for &k in &keys {
                f.insert(k).unwrap();
            }
            results.push(bench_family("cqf", &f, &probes, target_ops));
        }
        {
            let f = xorf::XorFilter::build(&keys, 8).unwrap();
            results.push(bench_family("xor", &f, &probes, target_ops));
        }

        println!(
            "\n{}-resident, n = {n} keys, {} probes (50% hits), \
             median of {ROUNDS} paired rounds, Mops:",
            size.label,
            probes.len()
        );
        println!(
            "{:<16} {:>8} {:>8} {:>8} {:>8} {:>8} {:>12}",
            "family", "scalar", "w=1", "w=8", "w=32", "w=256", "best/scalar"
        );
        for r in &results {
            println!(
                "{:<16} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>11.2}x",
                r.name,
                r.scalar_mops,
                r.width_mops[0],
                r.width_mops[1],
                r.width_mops[2],
                r.width_mops[3],
                r.ratio
            );
            if r.ratio < 0.9 {
                all_pass = false;
            }
        }
    }

    all_pass &= insert_table(if harness::quick() { 1 << 19 } else { 1 << 21 });

    harness::gate(
        "e20",
        "best batched width >= 0.9x scalar for every family, \
         batched insert >= 0.9x pointwise for every served backend",
        all_pass,
    )
}
