//! E25: two-choice register-blocked Bloom — FPR parity at +2
//! bits/key with zero throughput regression.
//!
//! The register-blocked layout (E21) buys its single-compare lookup
//! with a fixed k = 8 and one block per key, so unlucky blocks
//! overfill and the achieved FPR trails the theoretical ε. The
//! two-choice variant derives a second candidate block from an
//! independent mix of the same hoisted hash and inserts into
//! whichever block ends up less occupied; lookups OR two branch-free
//! probes. This experiment measures both filters head to head across
//! every usable dispatch tier and gates the paper-facing claim: with
//! ~2 extra bits/key the two-choice filter matches or beats the
//! one-choice FPR, and its batched lookup throughput stays within 5%
//! of the register-Bloom E21 baseline (rerun in-process, the two
//! top-tier cells timed in interleaved rounds so both numbers come
//! from the same machine state).
//!
//! Besides the human-readable table, the run writes `BENCH_E25.json`
//! (see EXPERIMENTS.md for the schema): per size × family × tier
//! throughput plus FPR and bits/key, machine-readable for trend
//! tracking.

use crate::harness::{self, header};
use crate::measure_fpr;
use filter_core::simd;
use filter_core::{Filter, InsertFilter};
use workloads::{disjoint_keys, unique_keys};

/// One family's results at one size.
struct FamilyRow {
    family: &'static str,
    bits_per_key: f64,
    fpr: f64,
    /// (tier name, Mops) per usable tier, ascending.
    tiers: Vec<(&'static str, f64)>,
}

/// E25: two-choice vs one-choice register Bloom across all tiers.
pub fn e25_two_choice() -> bool {
    header(
        "E25 — two-choice register Bloom (FPR parity, no slowdown)",
        "an emptier-of-two-blocks placement rescues the register \
         layout's FPR loss for ~2 extra bits/key, and the second \
         prefetched probe costs <5% of batched lookup throughput",
    );
    let levels = simd::usable_levels();
    let target_ops = harness::target_ops();
    let n_fpr_probes = if harness::quick() { 1 << 17 } else { 1 << 20 };
    let eps = 0.01;

    let mut gate_pass = true;
    let mut json_sizes = Vec::new();

    for size in harness::size_ladder() {
        let n = size.keys;
        let keys = unique_keys(2_521, n);
        let probes = harness::half_hit_probes(&keys, size.probes, 2_522);
        let fpr_probes = disjoint_keys(2_523, n_fpr_probes, &keys);

        let mut register = bloom::RegisterBlockedBloomFilter::new(n, eps);
        let mut two_choice = bloom::TwoChoiceRegisterBloomFilter::new(n, eps);
        for &k in &keys {
            register.insert(k).unwrap();
            two_choice.insert(k).unwrap();
        }

        // Every tier answers bit-identically, so one FPR measurement
        // covers them all.
        let mut rows = [
            FamilyRow {
                family: "register-bloom",
                bits_per_key: register.size_in_bytes() as f64 * 8.0 / n as f64,
                fpr: measure_fpr(&fpr_probes, |k| register.contains(k)),
                tiers: Vec::new(),
            },
            FamilyRow {
                family: "two-choice-bloom",
                bits_per_key: two_choice.size_in_bytes() as f64 * 8.0 / n as f64,
                fpr: measure_fpr(&fpr_probes, |k| two_choice.contains(k)),
                tiers: Vec::new(),
            },
        ];
        for &level in &levels {
            simd::force_level(Some(level));
            let tier = [
                harness::contains_many_mops(&register, &probes, target_ops),
                harness::contains_many_mops(&two_choice, &probes, target_ops),
            ];
            for (row, m) in rows.iter_mut().zip(tier) {
                row.tiers.push((level.name(), m));
            }
        }
        simd::force_level(None);

        println!(
            "\n{}-resident, n = {n} keys, {} probes (50% hits), Mops:",
            size.label,
            probes.len()
        );
        print!("{:<18} {:>9} {:>9}", "family", "bits/key", "fpr");
        for l in &levels {
            print!(" {:>8}", l.name());
        }
        println!();
        for row in &rows {
            print!(
                "{:<18} {:>9.2} {:>9.5}",
                row.family, row.bits_per_key, row.fpr
            );
            for (_, m) in &row.tiers {
                print!(" {m:>8.1}");
            }
            println!();
        }

        let extra_bits = rows[1].bits_per_key - rows[0].bits_per_key;
        // The gated ratio: both cells at the top tier, timed in
        // interleaved rounds.
        let top = *levels.last().unwrap();
        let ratio = harness::paired_contains_ratio(
            (&register, top),
            (&two_choice, top),
            &probes,
            target_ops,
        );
        println!(
            "extra bits/key: {extra_bits:.2}; fpr {:.5} vs {:.5}; \
             two-choice@{} / register@{} (paired): {ratio:.2}x",
            rows[1].fpr,
            rows[0].fpr,
            top.name(),
            top.name(),
        );
        // Gates: FPR parity at every size; throughput on the
        // DRAM-resident table (the cache case is noise-bound and E21
        // already gates the layout itself).
        if rows[1].fpr > rows[0].fpr {
            println!("  !! two-choice FPR above one-choice FPR");
            gate_pass = false;
        }
        if size.label == "dram" && ratio < 0.95 {
            println!("  !! two-choice throughput below 0.95x register baseline");
            gate_pass = false;
        }

        json_sizes.push(format!(
            "{{\"label\":\"{}\",\"n_keys\":{n},\"families\":[{}]}}",
            size.label,
            rows.iter()
                .map(|r| {
                    let tiers = r
                        .tiers
                        .iter()
                        .map(|(name, m)| format!(
                            "{{\"level\":\"{name}\",\"mops\":{m:.3},\"ops_per_sec\":{:.0}}}",
                            m * 1e6
                        ))
                        .collect::<Vec<_>>()
                        .join(",");
                    format!(
                        "{{\"family\":\"{}\",\"bits_per_key\":{:.3},\"fpr\":{:.6},\"tiers\":[{tiers}]}}",
                        r.family, r.bits_per_key, r.fpr
                    )
                })
                .collect::<Vec<_>>()
                .join(",")
        ));
    }

    harness::write_json(
        "e25",
        &format!("\"eps\":{eps},\"sizes\":[{}]", json_sizes.join(",")),
        gate_pass,
    );
    harness::gate(
        "e25",
        "fpr(two-choice) <= fpr(register) at every size, \
         and two-choice@top >= 0.95x register@top, dram",
        gate_pass,
    )
}
