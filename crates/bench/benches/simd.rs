//! Criterion micro-benchmarks for the SIMD probe engine kernels:
//! each primitive at every dispatch tier the host supports, via the
//! level-explicit `*_at` entry points (no global state mutated; the
//! E21 companion; `cargo bench -p bench --bench simd`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use filter_core::simd;

const N: usize = 4096;

fn bench_simd(c: &mut Criterion) {
    let keys = workloads::unique_keys(31, N);
    let hashes: Vec<u32> = keys.iter().map(|&k| (k >> 16) as u32).collect();
    let pairs: Vec<(u64, u64)> = keys
        .iter()
        .map(|&k| (k.wrapping_mul(0x9e37_79b9_7f4a_7c15), k | 1))
        .collect();
    // Half-full blocks so covered() sees both outcomes.
    let blocks256: Vec<[u64; 4]> = hashes
        .iter()
        .map(|&h| {
            let mut b = [0u64; 4];
            simd::or_into_256(&mut b, &simd::block_mask_256(h));
            simd::or_into_256(&mut b, &simd::block_mask_256(h.rotate_left(13)));
            b
        })
        .collect();
    let blocks512: Vec<[u64; 8]> = pairs
        .iter()
        .map(|&(h1, h2)| {
            let mut b = simd::block_mask_512(h1, h2, 8);
            let m = simd::block_mask_512(h2, h1, 8);
            for (w, &x) in b.iter_mut().zip(&m) {
                *w |= x;
            }
            b
        })
        .collect();
    let words: Vec<u64> = keys.iter().map(|&k| k | 1).collect();

    let mut g = c.benchmark_group("simd_kernels_4k");
    for level in simd::usable_levels() {
        g.bench_function(format!("block_mask_256/{}", level.name()), |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for &h in &hashes {
                    acc ^= simd::block_mask_256_at(level, black_box(h))[0];
                }
                acc
            })
        });
        g.bench_function(format!("covered_256/{}", level.name()), |b| {
            b.iter(|| {
                let mut hits = 0usize;
                for (blk, &h) in blocks256.iter().zip(&hashes) {
                    let m = simd::block_mask_256_at(level, black_box(h));
                    hits += simd::covered_256_at(level, blk, &m) as usize;
                }
                hits
            })
        });
        g.bench_function(format!("covered_512/{}", level.name()), |b| {
            b.iter(|| {
                let mut hits = 0usize;
                for (blk, &(h1, h2)) in blocks512.iter().zip(&pairs) {
                    let m = simd::block_mask_512(black_box(h1), black_box(h2), 8);
                    hits += simd::covered_512_at(level, blk, &m) as usize;
                }
                hits
            })
        });
        g.bench_function(format!("select_word/{}", level.name()), |b| {
            b.iter(|| {
                let mut acc = 0u32;
                for &w in &words {
                    let k = w.count_ones() / 2;
                    acc =
                        acc.wrapping_add(simd::select_word_at(level, black_box(w), k).unwrap_or(0));
                }
                acc
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_simd);
criterion_main!(benches);
