//! E21: SIMD probe engine — dispatch tiers head to head.
//!
//! Every probe primitive in `filter_core::simd` ships bit-identical
//! implementations per dispatch tier: portable SWAR over `u64` lanes,
//! NEON, SSE2, AVX2 (with BMI2 `PDEP` for in-word select) and
//! AVX-512. This experiment forces each tier the host runs
//! ([`simd::usable_levels`]) in turn ([`filter_core::simd::force_level`])
//! and measures end-to-end batched lookup throughput for the filters
//! whose hot path runs through the engine — the 512-bit blocked
//! Bloom, the 256-bit register-blocked Bloom, and the CQF (whose
//! lookup leans on rank/select) — plus the raw in-word select
//! kernel, on a cache-resident and a DRAM-resident table. Every cell
//! is the best of three timed passes after a warm-up.
//!
//! The gate: the register-blocked filter at the top tier is at least
//! 1.0× (quick) / 1.3× (full) the DRAM-resident throughput of the
//! 512-bit blocked Bloom pinned to SWAR — the paper-facing claim that
//! one mask compare per op beats eight dependent probes. The gated
//! ratio comes from its own paired measurement of those two cells
//! ([`harness::paired_contains_ratio`]), not from the table.

use crate::harness::{self, header};
use filter_core::simd::{self, SimdLevel};
use filter_core::InsertFilter;
use workloads::unique_keys;

/// Raw in-word select throughput: one select per nonzero word, rank
/// pinned to the middle set bit so every call does real work.
fn bench_select(level: SimdLevel, words: &[u64], target_ops: usize) -> f64 {
    let reps = (target_ops / words.len()).max(1);
    let mut acc = 0u32;
    let t = harness::best_of(3, || {
        for _ in 0..reps {
            for &w in words {
                let k = w.count_ones() / 2;
                acc = acc.wrapping_add(simd::select_word_at(level, w, k).unwrap_or(0));
            }
        }
    });
    std::hint::black_box(acc);
    harness::mops(reps * words.len(), t)
}

/// E21: every usable dispatch tier across engine-backed families.
pub fn e21_simd() -> bool {
    header(
        "E21 — SIMD probe engine (dispatch tiers head to head)",
        "one vectorised mask compare per lookup beats a dependent \
         per-probe walk; the register-blocked (256-bit) layout beats \
         the 512-bit blocked Bloom once the compare is a single \
         instruction, and all tiers agree bit for bit",
    );
    let levels = simd::usable_levels();
    let target_ops = harness::target_ops();
    let gate_ratio = if harness::quick() { 1.0 } else { 1.3 };
    let mut dram_ratio = 0.0;

    for size in harness::size_ladder() {
        let n = size.keys;
        let keys = unique_keys(2_121, n);
        let probes = harness::half_hit_probes(&keys, size.probes, 2_122);

        let mut blocked = bloom::BlockedBloomFilter::new(n, 0.01);
        let mut register = bloom::RegisterBlockedBloomFilter::new(n, 0.01);
        let mut cqf = quotient::CountingQuotientFilter::for_capacity(n, 0.01);
        for &k in &keys {
            blocked.insert(k).unwrap();
            register.insert(k).unwrap();
            cqf.insert(k).unwrap();
        }

        // rows: (family, per-tier Mops)
        let mut rows: Vec<(&str, Vec<f64>)> = vec![
            ("blocked-bloom", Vec::new()),
            ("register-bloom", Vec::new()),
            ("cqf", Vec::new()),
        ];
        for &level in &levels {
            simd::force_level(Some(level));
            let tier = [
                harness::contains_many_mops(&blocked, &probes, target_ops),
                harness::contains_many_mops(&register, &probes, target_ops),
                harness::contains_many_mops(&cqf, &probes, target_ops),
            ];
            for (row, m) in rows.iter_mut().zip(tier) {
                row.1.push(m);
            }
        }
        simd::force_level(None);

        println!(
            "\n{}-resident, n = {n} keys, {} probes (50% hits), Mops:",
            size.label,
            probes.len()
        );
        print!("{:<16}", "family");
        for l in &levels {
            print!(" {:>8}", l.name());
        }
        println!(" {:>10}", "top/swar");
        for (name, tiers) in &rows {
            print!("{name:<16}");
            for m in tiers {
                print!(" {m:>8.1}");
            }
            println!(" {:>9.2}x", tiers.last().unwrap() / tiers[0]);
        }

        // Cross-layout comparison at this size: the 256-bit filter at
        // the best tier against the 512-bit filter pinned to SWAR,
        // the two cells timed in interleaved rounds.
        let top = *levels.last().unwrap();
        let ratio = harness::paired_contains_ratio(
            (&blocked, SimdLevel::Swar),
            (&register, top),
            &probes,
            target_ops,
        );
        println!(
            "register-bloom@{} / blocked-bloom@swar (paired): {ratio:.2}x",
            top.name()
        );
        if size.label == "dram" {
            dram_ratio = ratio;
        }
    }

    // Raw in-word select: Gog–Petri SWAR vs PDEP (select dispatches
    // on the same tier knob; any vector tier with BMI2 takes PDEP).
    let words: Vec<u64> = unique_keys(2_123, 1 << 14)
        .into_iter()
        .map(|k| k | 1) // nonzero so every select succeeds
        .collect();
    println!("\nin-word select (mid-rank, {} words), Mops:", words.len());
    for &level in &levels {
        println!(
            "  select_word@{:<6} {:>8.1}",
            level.name(),
            bench_select(level, &words, target_ops)
        );
    }

    harness::gate(
        "e21",
        &format!("register-bloom@top >= {gate_ratio}x blocked-bloom@swar, dram"),
        dram_ratio >= gate_ratio,
    )
}
