//! E22: telemetry instrumentation overhead.
//!
//! The telemetry layer promises that instrumentation on filter hot
//! paths is cheap enough to leave on in production: a handful of
//! `Relaxed` atomic adds per operation, each behind a runtime
//! kill-switch branch. This experiment quantifies "cheap" on the same
//! probe/insert paths E20 measures, comparing throughput with the
//! kill switch on vs off **in one binary** — so both sides run
//! identical machine code and differ only in whether the atomic
//! updates execute.
//!
//! Methodology: each workload runs the paired protocol
//! ([`harness::Paired`]) over (enabled, disabled) passes. Each round
//! yields one paired ratio `t_on / t_off`; the reported overhead is
//! the *median* ratio, which shrugs off rounds a shared box
//! perturbed. Throughputs are printed from the per-mode minimum. The
//! gate: overhead under 3% for every workload.
//!
//! The instrumented hot paths exercised:
//! - cuckoo insert (kick-chain-length histogram observe per insert),
//! - CQF insert (cluster-length histogram observe per shifted run),
//! - `Sharded` batched probes (per-shard padded op counter per lock).

use crate::harness::{self, header, mops, Paired};
use filter_core::InsertFilter;
use workloads::unique_keys;

/// Max tolerated slowdown from live instrumentation (fraction).
const MAX_OVERHEAD: f64 = 0.03;

/// Time `pass` with the switch on (mode 0) and off (mode 1). `pass`
/// must do the same work every call (fresh state each pass) and
/// return a value to black-box.
fn bench_case(
    name: &'static str,
    rounds: usize,
    ops: usize,
    mut pass: impl FnMut() -> u64,
) -> (&'static str, Paired) {
    let paired = Paired::measure(rounds, ops, |mode| {
        telemetry::set_enabled(mode == 0);
        harness::time(&mut pass)
    });
    telemetry::set_enabled(true);
    (name, paired)
}

/// E22: throughput with the telemetry kill switch on vs off.
pub fn e22_telemetry() -> bool {
    header(
        "E22 — telemetry instrumentation overhead (kill switch on vs off)",
        "structured instrumentation on filter hot paths (histogram \
         observes, per-shard op counters) costs under 3% throughput, \
         so it can stay enabled in production",
    );
    let quick = harness::quick();
    let (n, rounds) = if quick { (1 << 15, 25) } else { (1 << 17, 9) };
    // Inner repetitions stretch each timed pass to tens of
    // milliseconds so min-of-rounds converges despite scheduler
    // noise; insert passes rebuild the filter every repetition (the
    // rebuild is allocation-only, identical in both modes).
    let (ins_reps, probe_reps) = if quick { (6, 16) } else { (3, 8) };
    let keys = unique_keys(2_222, n);
    let fill = (n as f64 * 0.8) as usize;

    let mut results = Vec::new();

    // Cuckoo insert: every successful insert observes the kick-chain
    // histogram; the 80%-load tail also walks real eviction chains.
    results.push(bench_case("cuckoo-insert", rounds, fill * ins_reps, || {
        let mut acc = 0u64;
        for _ in 0..ins_reps {
            let mut f = cuckoo::CuckooFilter::new(n, 12);
            for &k in &keys[..fill] {
                acc = acc.wrapping_add(f.insert(k).is_ok() as u64);
            }
        }
        acc
    }));

    // CQF insert: every run shift observes the cluster-length
    // histogram inside `modify_run`.
    results.push(bench_case("cqf-insert", rounds, fill * ins_reps, || {
        let mut acc = 0u64;
        for _ in 0..ins_reps {
            let mut f = quotient::CountingQuotientFilter::for_capacity(n, 0.01);
            for &k in &keys[..fill] {
                acc = acc.wrapping_add(f.insert(k).is_ok() as u64);
            }
        }
        acc
    }));

    // Sharded batched probes — the E20 shape and the path the service
    // drives: each `contains_batch` locks every non-empty shard once,
    // bumping its padded op counter, so the bump amortizes over the
    // batch width. (Pointwise `contains` pays it per probe: a plain
    // load+store under the shard lock, ~1 ns on a cache-resident
    // lookup.)
    {
        let f = concurrent::Sharded::new(3, |_| bloom::AtomicBlockedBloomFilter::new(n / 8, 0.01));
        f.insert_batch(&keys).unwrap();
        results.push(bench_case("sharded-batch", rounds, n * probe_reps, || {
            let mut acc = 0u64;
            for _ in 0..probe_reps {
                for chunk in keys.chunks(256) {
                    for hit in f.contains_batch(chunk) {
                        acc = acc.wrapping_add(hit as u64);
                    }
                }
            }
            acc
        }));
    }

    println!(
        "\nn = {n}, {rounds} paired rounds (Mops from per-mode min, \
         overhead = median paired ratio):"
    );
    println!(
        "{:<18} {:>10} {:>10} {:>10}",
        "workload", "on", "off", "overhead"
    );
    let mut all_pass = true;
    for (name, r) in &results {
        let ov = r.median_ratio - 1.0;
        println!(
            "{name:<18} {:>10.2} {:>10.2} {:>9.2}%",
            mops(r.ops, r.min[0]),
            mops(r.ops, r.min[1]),
            ov * 100.0
        );
        all_pass &= ov < MAX_OVERHEAD;
    }

    harness::gate(
        "e22",
        &format!("overhead < {:.1}% for every workload", MAX_OVERHEAD * 100.0),
        all_pass,
    )
}
