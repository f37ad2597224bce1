//! Criterion micro-benchmarks for the batched probe kernels: scalar
//! `contains` loops against `contains_many` per filter family (the
//! E20 companion; `cargo bench -p bench --bench probes`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use filter_core::{BatchedFilter, Filter, InsertFilter};

const N: usize = 100_000;

fn bench_probes(c: &mut Criterion) {
    let keys = workloads::unique_keys(11, N);
    let probes = bench::harness::half_hit_probes(&keys, N, 12);

    let mut bloomf = bloom::BloomFilter::new(N, 0.01);
    let mut blocked = bloom::BlockedBloomFilter::new(N, 0.01);
    let atomic = bloom::AtomicBlockedBloomFilter::new(N, 0.01);
    let mut cf = cuckoo::CuckooFilter::new(N, 12);
    let mut cqf = quotient::CountingQuotientFilter::for_capacity(N, 0.01);
    for &k in &keys {
        bloomf.insert(k).unwrap();
        blocked.insert(k).unwrap();
        cf.insert(k).unwrap();
        cqf.insert(k).unwrap();
    }
    atomic.insert_batch(&keys);
    let xf = xorf::XorFilter::build(&keys, 8).unwrap();

    let mut g = c.benchmark_group("probe_100k_mixed");
    g.sample_size(20);
    macro_rules! pair {
        ($name:literal, $f:expr) => {
            g.bench_function(concat!($name, "/scalar"), |b| {
                b.iter(|| {
                    let mut hits = 0usize;
                    for &k in &probes {
                        hits += $f.contains(black_box(k)) as usize;
                    }
                    hits
                })
            });
            g.bench_function(concat!($name, "/batched"), |b| {
                let mut out = vec![false; probes.len()];
                b.iter(|| {
                    $f.contains_many(black_box(&probes), &mut out);
                    out.iter().filter(|&&h| h).count()
                })
            });
        };
    }
    pair!("bloom", bloomf);
    pair!("blocked_bloom", blocked);
    pair!("atomic_blocked", atomic);
    pair!("cuckoo", cf);
    pair!("cqf", cqf);
    pair!("xor", xf);
    g.finish();
}

criterion_group!(benches, bench_probes);
criterion_main!(benches);
