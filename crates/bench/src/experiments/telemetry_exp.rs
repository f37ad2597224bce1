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
//! Methodology: each workload runs `ROUNDS` interleaved
//! (enabled, disabled) pass pairs, alternating which mode goes first
//! so within-round drift cancels. Each round yields one paired ratio
//! `t_on / t_off`; the reported overhead is the *median* ratio, which
//! shrugs off rounds a shared box perturbed. Throughputs are printed
//! from the per-mode minimum.
//!
//! The instrumented hot paths exercised:
//! - cuckoo insert (kick-chain-length histogram observe per insert),
//! - CQF insert (cluster-length histogram observe per shifted run),
//! - `Sharded` batched probes (per-shard padded op counter per lock).
//!
//! Env knobs (for the CI perf-smoke job):
//! - `E22_QUICK=1` shrinks sizes and rounds to finish in seconds.
//! - `E22_ASSERT=1` prints an `e22 gate: PASS`/`FAIL` line asserting
//!   overhead stays under 3% for every workload.

use super::header;
use filter_core::InsertFilter;
use std::time::{Duration, Instant};
use workloads::unique_keys;

/// Max tolerated slowdown from live instrumentation (fraction).
const MAX_OVERHEAD: f64 = 0.03;

struct CaseResult {
    name: &'static str,
    ops: usize,
    on_min: Duration,
    off_min: Duration,
    /// Median over rounds of the paired `t_on / t_off` ratio.
    median_ratio: f64,
}

impl CaseResult {
    fn overhead(&self) -> f64 {
        self.median_ratio - 1.0
    }
    fn mops(&self, t: Duration) -> f64 {
        self.ops as f64 / t.as_secs_f64() / 1e6
    }
}

/// Run `pass` once per mode per round, alternating which mode goes
/// first, and take the median paired `t_on / t_off` ratio. `pass`
/// must do the same work every call (fresh state each pass) and
/// return a value to black-box.
fn bench_case(
    name: &'static str,
    rounds: usize,
    ops: usize,
    mut pass: impl FnMut() -> u64,
) -> CaseResult {
    let mut timed = |on: bool| {
        telemetry::set_enabled(on);
        let t0 = Instant::now();
        std::hint::black_box(pass());
        t0.elapsed()
    };
    // One warmup pass per mode to fault in allocations and caches.
    timed(true);
    timed(false);

    let mut on_min = Duration::MAX;
    let mut off_min = Duration::MAX;
    let mut ratios = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let (t_on, t_off) = if r % 2 == 0 {
            let a = timed(true);
            let b = timed(false);
            (a, b)
        } else {
            let b = timed(false);
            let a = timed(true);
            (a, b)
        };
        on_min = on_min.min(t_on);
        off_min = off_min.min(t_off);
        ratios.push(t_on.as_secs_f64() / t_off.as_secs_f64());
    }
    telemetry::set_enabled(true);
    ratios.sort_by(f64::total_cmp);
    let median_ratio = if rounds % 2 == 1 {
        ratios[rounds / 2]
    } else {
        (ratios[rounds / 2 - 1] + ratios[rounds / 2]) / 2.0
    };
    CaseResult {
        name,
        ops,
        on_min,
        off_min,
        median_ratio,
    }
}

/// E22: throughput with the telemetry kill switch on vs off.
pub fn e22_telemetry() -> bool {
    header(
        "E22 — telemetry instrumentation overhead (kill switch on vs off)",
        "structured instrumentation on filter hot paths (histogram \
         observes, per-shard op counters) costs under 3% throughput, \
         so it can stay enabled in production",
    );
    let quick = std::env::var_os("E22_QUICK").is_some();
    let assert_gate = std::env::var_os("E22_ASSERT").is_some();
    let (n, rounds) = if quick { (1 << 15, 7) } else { (1 << 17, 9) };
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
    for r in &results {
        let ov = r.overhead();
        println!(
            "{:<18} {:>10.2} {:>10.2} {:>9.2}%",
            r.name,
            r.mops(r.on_min),
            r.mops(r.off_min),
            ov * 100.0
        );
        if ov >= MAX_OVERHEAD {
            all_pass = false;
        }
    }

    if assert_gate {
        println!(
            "\ne22 gate (overhead < {:.1}% for every workload): {}",
            MAX_OVERHEAD * 100.0,
            if all_pass { "PASS" } else { "FAIL" }
        );
    }
    true
}
