//! Cross-dispatch equivalence for the SIMD probe engine.
//!
//! The module's load-bearing invariant is that every dispatch tier —
//! portable SWAR, NEON, SSE2, AVX2, AVX-512 (and PDEP vs Gog–Petri
//! select) — is bit-identical on every input, so runtime dispatch
//! can never change a filter's answers, only its speed. These tests
//! hammer the level-explicit `*_at` entry points with 10k+ random
//! inputs per primitive across every tier the host supports
//! (`usable_levels` skips undetected tiers gracefully), and pin the
//! `BEYOND_BLOOM_FORCE_LEVEL` / `force_level` knobs the CI
//! `simd-matrix` job and the E21/E25 harnesses rely on.

use beyond_bloom::core::simd::{self, SimdLevel};
use beyond_bloom::core::{BatchedFilter, Filter, InsertFilter};

/// Deterministic 64-bit stream (splitmix64) — no RNG dependency.
fn stream(mut seed: u64) -> impl Iterator<Item = u64> {
    std::iter::repeat_with(move || {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    })
}

/// Every tier that genuinely executes on this machine, ascending —
/// tiers the hardware lacks (e.g. AVX-512 on an older x86, NEON on
/// x86 at all) are skipped rather than failed.
fn levels() -> Vec<SimdLevel> {
    let l = simd::usable_levels();
    assert_eq!(l[0], SimdLevel::Swar, "SWAR is always usable");
    l
}

#[test]
fn block_mask_256_identical_across_levels() {
    let levels = levels();
    for h in stream(101).take(10_000) {
        let h = h as u32;
        let want = simd::block_mask_256_at(SimdLevel::Swar, h);
        for &l in &levels[1..] {
            assert_eq!(simd::block_mask_256_at(l, h), want, "h {h:#x} at {l:?}");
        }
    }
}

#[test]
fn covered_256_identical_across_levels() {
    let levels = levels();
    let mut it = stream(202);
    for _ in 0..10_000 {
        let h = it.next().unwrap() as u32;
        // Blocks at several densities: empty, sparse, dense, full.
        let fill = it.next().unwrap();
        let mut block = [0u64; 4];
        match fill % 4 {
            0 => {}
            1 => simd::or_into_256(&mut block, &simd::block_mask_256(h)),
            2 => {
                for w in &mut block {
                    *w = it.next().unwrap();
                }
            }
            _ => block = [u64::MAX; 4],
        }
        let mask = simd::block_mask_256(it.next().unwrap() as u32);
        let want_cov = simd::covered_256_at(SimdLevel::Swar, &block, &mask);
        for &l in &levels[1..] {
            assert_eq!(simd::covered_256_at(l, &block, &mask), want_cov, "at {l:?}");
        }
        // The two-choice pair probe must agree with the OR of two
        // single-block probes, at every tier. A sibling block built
        // from an unrelated mask makes roughly half the pairs differ
        // between halves.
        let sibling = simd::block_mask_256(it.next().unwrap() as u32);
        for pair in [[block, sibling], [sibling, block], [block, block]] {
            let want = simd::covered_256_at(SimdLevel::Swar, &pair[0], &mask)
                | simd::covered_256_at(SimdLevel::Swar, &pair[1], &mask);
            for &l in &levels {
                assert_eq!(simd::covered_pair_256_at(l, &pair, &mask), want, "at {l:?}");
            }
        }
    }
}

#[test]
fn covered_512_identical_across_levels() {
    let levels = levels();
    let mut it = stream(303);
    for _ in 0..10_000 {
        let (h1, h2) = (it.next().unwrap(), it.next().unwrap());
        let k = (h1 % 16) as u32 + 1;
        let mask = simd::block_mask_512(h1, h2, k);
        let mut block = mask; // covered case
        if h2 & 1 == 0 {
            // Knock one bit out so roughly half the cases are misses.
            let w = (h2 >> 1) as usize % 8;
            if mask[w] != 0 {
                block[w] &= mask[w] - 1;
            }
        }
        let want = simd::covered_512_at(SimdLevel::Swar, &block, &mask);
        for &l in &levels[1..] {
            assert_eq!(simd::covered_512_at(l, &block, &mask), want, "at {l:?}");
        }
    }
}

#[test]
fn block_mask_512_identical_across_levels() {
    let levels = levels();
    let mut it = stream(808);
    for _ in 0..10_000 {
        let (h1, h2) = (it.next().unwrap(), it.next().unwrap());
        let k = (h1 % 16) as u32 + 1;
        let want_mask = simd::block_mask_512_at(SimdLevel::Swar, h1, h2, k);
        for &l in &levels[1..] {
            assert_eq!(
                simd::block_mask_512_at(l, h1, h2, k),
                want_mask,
                "mask h1 {h1:#x} h2 {h2:#x} k {k} at {l:?}"
            );
        }
    }
}

#[test]
fn select_word_identical_across_levels_and_total() {
    let levels = levels();
    for w in stream(404).take(10_000) {
        for k in 0..=w.count_ones() {
            // k == count_ones probes the out-of-range None contract.
            let want = simd::select_word_at(SimdLevel::Swar, w, k);
            for &l in &levels[1..] {
                assert_eq!(
                    simd::select_word_at(l, w, k),
                    want,
                    "w {w:#x} k {k} at {l:?}"
                );
            }
        }
    }
    for l in levels {
        assert_eq!(simd::select_word_at(l, 0, 0), None);
        assert_eq!(simd::select_word_at(l, u64::MAX, 63), Some(63));
        assert_eq!(simd::select_word_at(l, u64::MAX, 64), None);
    }
}

#[test]
fn select0_u128_identical_across_levels() {
    let levels = levels();
    let mut it = stream(505);
    for _ in 0..10_000 {
        let x = (it.next().unwrap() as u128) << 64 | it.next().unwrap() as u128;
        let zeros = 128 - x.count_ones();
        for k in [0, zeros / 2, zeros.saturating_sub(1), zeros, zeros + 1] {
            let want = simd::select0_u128_at(SimdLevel::Swar, x, k);
            for &l in &levels[1..] {
                assert_eq!(
                    simd::select0_u128_at(l, x, k),
                    want,
                    "x {x:#x} k {k} at {l:?}"
                );
            }
        }
    }
    for l in levels {
        assert_eq!(simd::select0_u128_at(l, u128::MAX, 0), None);
        assert_eq!(simd::select0_u128_at(l, u64::MAX as u128, 0), Some(64));
    }
}

/// End-to-end: a filter built once answers identically while the
/// global dispatch level is forced through every tier. Exercises the
/// same `force_level` knob the E21 harness uses.
#[test]
fn filters_answer_identically_under_forced_levels() {
    let keys: Vec<u64> = stream(606).take(4_000).collect();
    let probes: Vec<u64> = stream(707).take(10_000).collect();

    let mut blocked = beyond_bloom::bloom::BlockedBloomFilter::with_seed(4_000, 0.01, 3);
    let mut register = beyond_bloom::bloom::RegisterBlockedBloomFilter::with_seed(4_000, 0.01, 3);
    let atomic = beyond_bloom::bloom::AtomicBlockedBloomFilter::with_seed(4_000, 0.01, 3);
    let mut two_choice =
        beyond_bloom::bloom::TwoChoiceRegisterBloomFilter::with_seed(4_000, 0.01, 3);
    for &k in &keys {
        blocked.insert(k).unwrap();
        register.insert(k).unwrap();
        atomic.insert(k);
        two_choice.insert(k).unwrap();
    }

    let reference: Vec<(bool, bool, bool, bool)> = {
        simd::force_level(Some(SimdLevel::Swar));
        let r = probes
            .iter()
            .map(|&p| {
                (
                    blocked.contains(p),
                    register.contains(p),
                    atomic.contains(p),
                    two_choice.contains(p),
                )
            })
            .collect();
        simd::force_level(None);
        r
    };

    let mut out = vec![false; probes.len()];
    for l in levels() {
        simd::force_level(Some(l));
        for (i, &p) in probes.iter().enumerate() {
            assert_eq!(blocked.contains(p), reference[i].0, "blocked at {l:?}");
            assert_eq!(register.contains(p), reference[i].1, "register at {l:?}");
            assert_eq!(atomic.contains(p), reference[i].2, "atomic at {l:?}");
            assert_eq!(
                two_choice.contains(p),
                reference[i].3,
                "two-choice at {l:?}"
            );
        }
        // Batched paths too (they hoist the level once per chunk).
        register.contains_many(&probes, &mut out);
        for (i, &o) in out.iter().enumerate() {
            assert_eq!(o, reference[i].1, "register batched at {l:?}");
        }
        two_choice.contains_many(&probes, &mut out);
        for (i, &o) in out.iter().enumerate() {
            assert_eq!(o, reference[i].3, "two-choice batched at {l:?}");
        }
        simd::force_level(None);
    }
}

/// `force_level` requests above the hardware tier clamp down instead
/// of dispatching into unsupported instructions.
#[test]
fn force_level_clamps_to_detected() {
    for l in [SimdLevel::Avx2, SimdLevel::Avx512] {
        simd::force_level(Some(l));
        assert!(simd::active_level() <= simd::detected_level());
        simd::force_level(None);
    }
}
