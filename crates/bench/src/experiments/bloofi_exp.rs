//! E26: Bloofi filter index — multi-tenant lookup vs the flat
//! registry scan.
//!
//! A multi-tenant filter server answering "which filters contain this
//! key?" (MULTI_CONTAINS) can either probe all N registered filters
//! per key, or scan the Flat-Bloofi matrix: 256-bit register-Bloom
//! summaries stored bit-sliced, so one word AND tests 64 tenants.
//! This experiment registers N small tenant filters through the real
//! [`service`] engine (tracked columns, exactly as wire CREATE +
//! INSERT maintain them), then measures `Engine::multi_contains`
//! (index) against `Engine::multi_contains_flat` (scan) across a
//! selectivity sweep: keys present in no filter, exactly one filter,
//! and a 16-tenant hot set. The paper-facing gate: at the largest N
//! the index answers absent and single-tenant keys at least 20x
//! faster per key than the flat scan.
//!
//! Besides the human-readable table, the run writes `BENCH_E26.json`
//! (see EXPERIMENTS.md for the schema): per tenant-count × probe-set
//! per-key latencies and ratios, machine-readable for trend tracking.

use crate::harness::{self, header};
use service::{build_atomic_bloom, ServedFilter, ServerConfig};

/// Keys inserted into every tenant filter.
const KEYS_PER_FILTER: usize = 16;
/// Tenants sharing the "many" hot-key set.
const SHARED_FANIN: usize = 16;

/// The j-th key of tenant `i` — disjoint across tenants and from
/// both probe-only ranges below (the filters hash keys, so the
/// structure costs nothing).
fn tenant_key(i: usize, j: usize) -> u64 {
    ((i as u64) << 32) | j as u64
}

/// E26: Bloofi index vs flat scan across tenant counts.
pub fn e26_bloofi() -> bool {
    header(
        "E26 — Bloofi index (bit-sliced MULTI_CONTAINS vs flat scan)",
        "bit-sliced register-Bloom summaries answer \
         which-filters-contain-key with one word AND per 64 tenants, \
         >=20x faster per key than scanning every registered filter",
    );
    let quick = harness::quick();
    println!(
        "engine index geometry: {} blocks/summary ({} bytes per tenant)",
        bloofi::BLOCKS,
        bloofi::BLOCKS * 32
    );

    let tenant_counts: &[usize] = if quick {
        &[512, 4_096]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let n_probes = if quick { 512 } else { 1_024 };

    let mut gate_pass = true;
    let mut json_sizes = Vec::new();

    for &n in tenant_counts {
        let engine = service::engine::Engine::new(ServerConfig::default());
        let shared: Vec<u64> = (0..KEYS_PER_FILTER)
            .map(|j| (1u64 << 61) | j as u64)
            .collect();
        for i in 0..n {
            let mut keys: Vec<u64> = (0..KEYS_PER_FILTER).map(|j| tenant_key(i, j)).collect();
            if i < SHARED_FANIN {
                keys.extend(&shared);
            }
            let f = build_atomic_bloom(2 * KEYS_PER_FILTER as u64, 0.01, i as u64);
            for &k in &keys {
                f.insert(k);
            }
            assert!(engine.register_tracked(
                &format!("tenant-{i:06}"),
                ServedFilter::Bloom(f),
                &keys
            ));
        }
        let index_mib = engine.index_size_in_bytes() as f64 / (1 << 20) as f64;

        // Selectivity sweep: keys in no filter (pure index
        // rejection), exactly one filter, and the 16-tenant hot set.
        let absent: Vec<u64> = (0..n_probes).map(|j| (1u64 << 60) | j as u64).collect();
        let one: Vec<u64> = (0..n_probes)
            .map(|j| tenant_key(j * 31 % n, j % KEYS_PER_FILTER))
            .collect();
        let many: Vec<u64> = (0..n_probes).map(|j| shared[j % shared.len()]).collect();

        // Spot-check semantics before trusting the timings: a
        // single-tenant key names its tenant, a hot key names all
        // sharers, and the index never exceeds the flat answer.
        let lists = engine.multi_contains(&one[..8]);
        for (j, names) in lists.iter().enumerate() {
            let tenant = format!("tenant-{:06}", j * 31 % n);
            assert!(names.contains(&tenant), "false negative on {tenant}");
        }
        assert_eq!(engine.multi_contains(&many[..1])[0].len(), SHARED_FANIN);
        for (indexed, flat) in engine
            .multi_contains(&absent[..8])
            .iter()
            .zip(engine.multi_contains_flat(&absent[..8]))
        {
            assert!(indexed.iter().all(|t| flat.contains(t)));
        }

        println!(
            "\nN = {n} tenants, {KEYS_PER_FILTER} keys each: index \
             {index_mib:.1} MiB; per-key latency over {n_probes} probes:"
        );
        println!(
            "{:<10} {:>14} {:>14} {:>9}",
            "probe set", "index ns/key", "flat ns/key", "speedup"
        );
        // The flat scan is O(N) per key, so cap its probe count at
        // the larger tenant counts — per-key cost is what the ratio
        // needs, and 1k probes x 100k filters would dominate the run.
        let flat_probes = if n >= 50_000 { 128 } else { n_probes };
        let mut json_sets = Vec::new();
        let mut top_gate_ratio = f64::INFINITY;
        for (label, probes) in [("absent", &absent), ("one", &one), ("many", &many)] {
            // Best of several passes: the gate compares a ratio, so
            // scheduler noise on either side would flap it.
            let index = harness::best_of(3, || engine.multi_contains(probes));
            let index_ns = index.as_nanos() as f64 / probes.len() as f64;
            let flat = harness::best_of(if n >= 50_000 { 2 } else { 3 }, || {
                engine.multi_contains_flat(&probes[..flat_probes])
            });
            let flat_ns = flat.as_nanos() as f64 / flat_probes as f64;
            let ratio = flat_ns / index_ns;
            println!("{label:<10} {index_ns:>14.0} {flat_ns:>14.0} {ratio:>8.1}x");
            if label != "many" {
                top_gate_ratio = top_gate_ratio.min(ratio);
            }
            json_sets.push(format!(
                "{{\"set\":\"{label}\",\"index_ns_per_key\":{index_ns:.1},\
                 \"flat_ns_per_key\":{flat_ns:.1},\"ratio\":{ratio:.2}}}"
            ));
        }
        // Gate on the largest tenant count: absent and single-tenant
        // probes (the multi-tenant routing cases the index exists for)
        // must each clear 20x. The hot set is reported, not gated —
        // its cost is dominated by the 16 mandatory filter confirms.
        if n == *tenant_counts.last().unwrap() && top_gate_ratio < 20.0 {
            println!("  !! index below 20x flat scan at N = {n}");
            gate_pass = false;
        }

        json_sizes.push(format!(
            "{{\"n_filters\":{n},\"index_mib\":{index_mib:.2},\"sets\":[{}]}}",
            json_sets.join(",")
        ));
    }

    harness::write_json(
        "e26",
        &format!(
            "\"blocks\":{},\"keys_per_filter\":{KEYS_PER_FILTER},\
             \"shared_fanin\":{SHARED_FANIN},\"sizes\":[{}]",
            bloofi::BLOCKS,
            json_sizes.join(",")
        ),
        gate_pass,
    );
    harness::gate(
        "e26",
        "index >= 20x flat scan per key on absent and single-tenant \
         probes at the largest N",
        gate_pass,
    )
}
