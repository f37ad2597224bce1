//! E23: the compacting filter LSM vs a mutable-only baseline.
//!
//! The tutorial's §3.1 space argument for filter LSMs: a mutable
//! filter must reserve slack for future inserts (a blocked Bloom at
//! ε = 2⁻⁸ runs ~12.9 bits/key), while a static binary fuse filter
//! spends ~8.6–9.0. A compacting filter keeps writes mutable in a
//! small memtable front and holds the bulk of the keys in static fuse
//! tiers, so steady-state space converges toward the static figure.
//!
//! Measured here, same key set for both sides:
//! - **bits/key**: `CompactingFilter` after a full compaction
//!   (front Bloom + fuse tiers) vs a mutable-only
//!   `AtomicBlockedBloomFilter` sized for the same capacity;
//! - **probe throughput**: batched `contains` over a 50/50
//!   positive/negative mix;
//! - **lookup availability**: a reader thread storms batched lookups
//!   *while* a full background compaction rebuilds the tier set; the
//!   epoch-swap design promises the reader keeps completing batches
//!   (a blocking design would stall it for the entire fuse build).
//!
//! The gate: compacted space ≤ 9.5 bits/key, baseline ≥ 11
//! bits/key, reader progress during compaction, and no false
//! negatives.

use crate::harness::{self, header, mops};
use compacting::{CompactingConfig, CompactingFilter};
use filter_core::{BatchedFilter, Filter};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use workloads::{disjoint_keys, unique_keys};

/// Steady-state gate for the compacting filter (bits/key at ε = 2⁻⁸
/// after full compaction; fuse tier ~8.6–9.0 + ~0.4 for the front).
const MAX_COMPACTED_BPK: f64 = 9.5;
/// The mutable-only baseline must cost at least this much, or the
/// comparison is vacuous.
const MIN_BASELINE_BPK: f64 = 11.0;
/// Batches the storming reader must complete while the full
/// compaction is in flight (a blocking design completes ~0).
const MIN_BATCHES_DURING_COMPACTION: u64 = 50;

/// E23: compacting filter space and availability vs mutable-only.
pub fn e23_compacting() -> bool {
    header(
        "E23 — compacting filter LSM vs mutable-only Bloom",
        "draining a mutable front into static fuse tiers reaches \
         static-filter space (≤ 9.5 bits/key at ε = 2⁻⁸ vs ≥ 11 \
         mutable-only) while background compaction never blocks \
         lookups",
    );
    let n: usize = if harness::quick() { 200_000 } else { 1_000_000 };
    let eps = 1.0 / 256.0;
    let keys = unique_keys(2_323, n);
    let neg = disjoint_keys(2_324, n, &keys);

    // The compacting side: front sized at n/32 so steady-state space
    // is dominated by the static tiers (the front adds ~0.4 bits/key).
    let cfg = CompactingConfig::new((n / 32).max(1024), eps, 42);
    let lsm = CompactingFilter::new(cfg);
    let insert_secs = harness::time(|| keys.iter().for_each(|&k| lsm.insert(k))).as_secs_f64();
    let compact_secs = harness::time(|| lsm.compact_all()).as_secs_f64();
    let lsm_bpk = lsm.size_in_bytes() as f64 * 8.0 / n as f64;

    // The mutable-only baseline, sized for the same capacity.
    let base = bloom::AtomicBlockedBloomFilter::with_seed(n, eps, 42);
    for &k in &keys {
        base.insert(k);
    }
    let base_bpk = base.size_in_bytes() as f64 * 8.0 / n as f64;

    // Probe throughput: batched contains over a 50/50 mix.
    let mut probes = Vec::with_capacity(n);
    for (a, b) in keys.iter().zip(&neg) {
        probes.push(*a);
        probes.push(*b);
    }
    probes.truncate(n);
    let mut out = vec![false; probes.len()];
    let throughput = |f: &dyn BatchedFilter, out: &mut Vec<bool>| {
        mops(
            probes.len(),
            harness::time(|| f.contains_many(&probes, out)),
        )
    };
    let lsm_mops = throughput(&lsm, &mut out);
    let no_fn = keys.iter().all(|&k| lsm.contains(k));
    let base_mops = throughput(&base, &mut out);

    // Availability: a reader storms batched lookups while we force a
    // second full compaction (double the key count, collapse all
    // tiers). Count batches completed strictly during the rebuild.
    let more = disjoint_keys(2_325, n / 2, &keys);
    for &k in &more {
        lsm.insert(k);
    }
    let stop = AtomicBool::new(false);
    let batches = AtomicU64::new(0);
    let max_stall_ns = AtomicU64::new(0);
    let recompact_secs = std::thread::scope(|s| {
        s.spawn(|| {
            let chunk = &probes[..4096.min(probes.len())];
            let mut out = vec![false; chunk.len()];
            while !stop.load(Ordering::Relaxed) {
                let ns = harness::time(|| lsm.contains_many(chunk, &mut out)).as_nanos() as u64;
                max_stall_ns.fetch_max(ns, Ordering::Relaxed);
                batches.fetch_add(1, Ordering::Relaxed);
            }
        });
        let secs = harness::time(|| lsm.compact_all()).as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        secs
    });
    let batches = batches.load(Ordering::Relaxed);
    let max_stall_ms = max_stall_ns.load(Ordering::Relaxed) as f64 / 1e6;
    let stats = lsm.stats();

    println!("\nn = {n}, eps = 2^-8:");
    println!(
        "{:<22} {:>10} {:>12} {:>12}",
        "side", "bits/key", "probe Mops", ""
    );
    println!(
        "{:<22} {:>10.2} {:>12.1}   ({} tiers, {} compactions)",
        "compacting (post)", lsm_bpk, lsm_mops, stats.tiers, stats.compactions
    );
    println!(
        "{:<22} {:>10.2} {:>12.1}",
        "atomic-bloom (mutable)", base_bpk, base_mops
    );
    println!(
        "insert {:.2}s, first compaction {:.2}s; recompaction of {} keys \
         took {:.2}s with {} reader batches in flight (max batch stall \
         {:.2} ms)",
        insert_secs,
        compact_secs,
        n + n / 2,
        recompact_secs,
        batches,
        max_stall_ms,
    );

    let space_ok = lsm_bpk <= MAX_COMPACTED_BPK && base_bpk >= MIN_BASELINE_BPK;
    let live_ok = batches >= MIN_BATCHES_DURING_COMPACTION;
    let all_pass = space_ok && live_ok && no_fn;
    if !no_fn {
        println!("FALSE NEGATIVE detected after compaction!");
    }
    harness::gate(
        "e23",
        &format!(
            "compacted ≤ {MAX_COMPACTED_BPK} bits/key, baseline ≥ \
             {MIN_BASELINE_BPK}, ≥ {MIN_BATCHES_DURING_COMPACTION} reader \
             batches during compaction, no false negatives"
        ),
        all_pass,
    )
}
