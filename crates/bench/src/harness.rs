//! The measurement code every experiment shares: the quick switch,
//! the header, the timers, the paired-rounds protocol, the probe
//! streams, the gate reporter, the `BENCH_*.json` writer and the
//! table of experiment ids.
//!
//! One switch bounds a run: with `EXPERIMENTS_QUICK` set (to any
//! value) the gated experiments shrink sizes, rounds and pass lengths
//! to finish in seconds. Every gate prints one
//! `<id> gate (<rule>): PASS|FAIL` line on every run, and each
//! experiment returns the verdict of its gates, so [`run`] (and the
//! binary's exit status) reports a failed gate.

use crate::experiments::*;
use filter_core::simd::{force_level, SimdLevel};
use filter_core::BatchedFilter;
use std::time::{Duration, Instant};
use workloads::disjoint_keys;

/// An experiment's entry point: prints its tables and returns
/// `false` when a gate it ran failed.
type Experiment = fn() -> bool;

/// Every experiment as (id, alias, entry point), in run order.
/// [`run`], `all` and [`usage`] read this table.
const EXPERIMENTS: [(&str, &str, Experiment); 27] = [
    ("e1", "e1-space", space_fpr::e1_space),
    ("e2", "e2-fpr", space_fpr::e2_fpr),
    ("e3", "e3-throughput", space_fpr::e3_throughput),
    ("e4", "e4-qf-expand", expansion::e4_qf_expand),
    ("e5", "e5-chain", expansion::e5_chain),
    ("e6", "e6-infini", expansion::e6_infini),
    ("e7", "e7-adaptive", adaptive_exp::e7_adaptive),
    ("e8", "e8-maplet", maplets::e8_maplet),
    ("e9", "e9-counting", counting::e9_counting),
    ("e10", "e10-range", range::e10_range),
    ("e11", "e11-lsm", apps::e11_lsm),
    ("e12", "e12-stacked", adaptive_exp::e12_stacked),
    ("e13", "e13-bio", apps::e13_bio),
    ("e14", "e14-urls", apps::e14_urls),
    ("e15", "e15-compaction", apps::e15_compaction),
    ("e16", "e16-cascade", apps::e16_cascade),
    ("e17", "e17-join", apps::e17_join),
    ("e18", "e18-threads", concurrency::e18_threads),
    ("e19", "e19-service", service_exp::e19_service),
    ("e20", "e20-batched", batched::e20_batched),
    ("e21", "e21-simd", simd::e21_simd),
    ("e22", "e22-telemetry", telemetry_exp::e22_telemetry),
    ("e23", "e23-compacting", compacting_exp::e23_compacting),
    ("e24", "e24-evented", evented_exp::e24_evented),
    ("e25", "e25-two-choice", two_choice_exp::e25_two_choice),
    ("e26", "e26-bloofi", bloofi_exp::e26_bloofi),
    ("e27", "e27-trace", trace_exp::e27_trace),
];

/// The table entry named by an id (`e10`) or alias (`e10-range`).
fn find(id: &str) -> Option<&'static (&'static str, &'static str, Experiment)> {
    EXPERIMENTS
        .iter()
        .find(|(short, alias, _)| id == *short || id == *alias)
}

/// Run one experiment by id or alias, or every experiment for
/// `all`. `None` when the id is unknown, otherwise whether every gate
/// that ran passed.
pub fn run(id: &str) -> Option<bool> {
    if id != "all" {
        return find(id).map(|(_, _, run)| run());
    }
    let mut pass = true;
    for (_, _, run) in EXPERIMENTS {
        pass &= run();
        println!();
    }
    Some(pass)
}

/// The binary's usage line.
pub fn usage() -> String {
    let aliases: Vec<&str> = EXPERIMENTS.iter().map(|&(_, alias, _)| alias).collect();
    format!(
        "usage: experiments <id> | all | serve evented, where <id> is e1..e{} or one of: {}; \
         set {QUICK_VAR}=1 for a bounded run",
        EXPERIMENTS.len(),
        aliases.join(" ")
    )
}

/// The environment variable that bounds a run.
const QUICK_VAR: &str = "EXPERIMENTS_QUICK";

/// Whether this is a bounded run (`EXPERIMENTS_QUICK` is set).
pub fn quick() -> bool {
    std::env::var_os(QUICK_VAR).is_some()
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Print an experiment header: its title, the paper's claim, and the
/// host every number below it was measured on (core count and active
/// SIMD tier).
pub fn header(id: &str, claim: &str) {
    println!("==================================================================");
    println!("{id}");
    println!("paper claim: {claim}");
    println!(
        "host: {} cores, simd tier {}{}",
        cores(),
        filter_core::simd::active_level().name(),
        if quick() { " (quick run)" } else { "" }
    );
    println!("------------------------------------------------------------------");
}

/// Print `<id> gate (<rule>): PASS|FAIL` and return `pass`, the
/// verdict the experiment hands back to [`run`].
pub fn gate(id: &str, rule: &str, pass: bool) -> bool {
    println!(
        "\n{id} gate ({rule}): {}",
        if pass { "PASS" } else { "FAIL" }
    );
    pass
}

/// Write `BENCH_<ID>.json`: one object holding the experiment id, the
/// run's shape (quick or full, core count, active SIMD tier), the
/// experiment's own `fields` (comma-separated JSON members) and the
/// gate verdict.
pub fn write_json(id: &str, fields: &str, gate_pass: bool) {
    let path = format!("BENCH_{}.json", id.to_uppercase());
    let json = format!(
        "{{\"experiment\":\"{id}\",\"quick\":{},\"cores\":{},\"simd_level\":\"{}\",\
         {fields},\"gate_pass\":{gate_pass}}}\n",
        quick(),
        cores(),
        filter_core::simd::active_level().name()
    );
    match std::fs::write(&path, json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }
}

/// Millions of operations per second.
pub fn mops(ops: usize, t: Duration) -> f64 {
    ops as f64 / t.as_secs_f64() / 1e6
}

/// Median of `values`: the middle one for an odd count, the mean of
/// the middle two for an even count.
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Wall time of one call of `f`; its result is black-boxed (and
/// dropped) inside the timed region.
pub fn time<T>(f: impl FnOnce() -> T) -> Duration {
    let t0 = Instant::now();
    std::hint::black_box(f());
    t0.elapsed()
}

/// Shortest of `runs` timed calls of `f`, after one untimed warm-up
/// call. Interference only ever slows a call down, so the best call
/// is the closest to the intrinsic cost.
pub fn best_of<T>(runs: usize, mut f: impl FnMut() -> T) -> Duration {
    std::hint::black_box(f());
    (0..runs).map(|_| time(&mut f)).min().unwrap_or_default()
}

/// The paired protocol for small deltas between `M` modes: one
/// untimed warm-up pass per mode, then `rounds` rounds that each run
/// one pass of every mode, in reverse order on odd rounds, so host
/// drift between passes cancels in per-round ratios. `pass(mode)`
/// runs one pass and returns the time it measured (which may leave
/// out its own setup); the result holds one row of pass times per
/// round, indexed by mode.
pub fn paired_rounds<const M: usize>(
    rounds: usize,
    mut pass: impl FnMut(usize) -> Duration,
) -> Vec<[Duration; M]> {
    for mode in 0..M {
        pass(mode);
    }
    (0..rounds)
        .map(|r| {
            let mut row = [Duration::ZERO; M];
            for i in 0..M {
                let mode = if r % 2 == 0 { i } else { M - 1 - i };
                row[mode] = pass(mode);
            }
            row
        })
        .collect()
}

/// Two modes measured with [`paired_rounds`], mode 0 against mode 1.
pub struct Paired {
    /// Operations one pass performs.
    pub ops: usize,
    /// Each mode's fastest pass.
    pub min: [Duration; 2],
    /// Median over rounds of the per-round `t0 / t1` ratio.
    pub median_ratio: f64,
}

impl Paired {
    /// Run `rounds` paired rounds of `pass(mode)`, each pass doing
    /// `ops` operations, and summarise them.
    pub fn measure(rounds: usize, ops: usize, pass: impl FnMut(usize) -> Duration) -> Paired {
        let rows = paired_rounds::<2>(rounds, pass);
        Paired {
            ops,
            min: [0, 1].map(|m| rows.iter().map(|r| r[m]).min().unwrap_or_default()),
            median_ratio: median(rows.iter().map(|r| r[0].as_secs_f64() / r[1].as_secs_f64())),
        }
    }

    /// Ratio of the two modes' fastest passes, `t0 / t1`.
    pub fn min_ratio(&self) -> f64 {
        self.min[0].as_secs_f64() / self.min[1].as_secs_f64()
    }
}

/// One rung of the cache/DRAM size ladder.
pub struct Size {
    /// `cache` or `dram`.
    pub label: &'static str,
    /// Keys inserted into the table.
    pub keys: usize,
    /// Length of the probe stream.
    pub probes: usize,
}

/// The ladder the probe-throughput experiments sweep: a table that
/// fits in L2/L3, and one that dwarfs the last-level cache so random
/// probes are memory-bound.
pub fn size_ladder() -> [Size; 2] {
    let (cache, dram) = if quick() {
        (1 << 15, 1 << 19)
    } else {
        (1 << 16, 1 << 22)
    };
    [
        Size {
            label: "cache",
            keys: cache,
            probes: cache / 2,
        },
        Size {
            label: "dram",
            keys: dram,
            probes: 1 << 18,
        },
    ]
}

/// Lookups each throughput cell on the ladder issues per timed pass.
pub fn target_ops() -> usize {
    if quick() {
        1 << 19
    } else {
        1 << 22
    }
}

/// `n` probes alternating members of `keys` with keys drawn from
/// `seed` that are absent from `keys`: both outcomes walk the same
/// index and prefetch path, so neither early exit is favoured.
pub fn half_hit_probes(keys: &[u64], n: usize, seed: u64) -> Vec<u64> {
    let misses = disjoint_keys(seed, n / 2, keys);
    (0..n)
        .map(|i| {
            if i % 2 == 0 {
                keys[(i / 2) % keys.len()]
            } else {
                misses[(i / 2) % misses.len()]
            }
        })
        .collect()
}

/// Batched lookup throughput of `f` at the SIMD tier in force, in
/// Mops: each timed pass repeats `contains_many` over `probes` until
/// about `target_ops` lookups have been issued, best of three passes
/// (the gates compare two such numbers within a few percent of each
/// other, so single-pass noise would flap them).
pub fn contains_many_mops<F: BatchedFilter>(f: &F, probes: &[u64], target_ops: usize) -> f64 {
    let reps = (target_ops / probes.len()).max(1);
    let mut out = vec![false; probes.len()];
    let t = best_of(3, || {
        for _ in 0..reps {
            f.contains_many(probes, &mut out);
        }
    });
    std::hint::black_box(&out);
    mops(reps * probes.len(), t)
}

/// Batched lookup throughput of cell `b` over cell `a`, each cell a
/// filter probed at a forced SIMD tier, from one [`Paired`]
/// measurement: every pass forces its cell's tier, rounds alternate
/// which cell runs first, and each cell keeps its fastest of three
/// passes (as [`contains_many_mops`] does), so a slow spell of the
/// host lands on both cells rather than on whichever ran later.
pub fn paired_contains_ratio<A: BatchedFilter, B: BatchedFilter>(
    a: (&A, SimdLevel),
    b: (&B, SimdLevel),
    probes: &[u64],
    target_ops: usize,
) -> f64 {
    let reps = (target_ops / probes.len()).max(1);
    let mut out = vec![false; probes.len()];
    let paired = Paired::measure(3, reps * probes.len(), |cell| {
        force_level(Some(if cell == 0 { a.1 } else { b.1 }));
        time(|| {
            for _ in 0..reps {
                if cell == 0 {
                    a.0.contains_many(probes, &mut out);
                } else {
                    b.0.contains_many(probes, &mut out);
                }
            }
        })
    });
    force_level(None);
    std::hint::black_box(&out);
    paired.min_ratio()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn paired_rounds_reverse_mode_order_on_odd_rounds() {
        let mut order = Vec::new();
        let rounds = paired_rounds::<3>(3, |mode| {
            order.push(mode);
            Duration::from_nanos(mode as u64 + 1)
        });
        // One warm-up pass per mode, then rounds 0, 1 (reversed), 2.
        assert_eq!(order, [0, 1, 2, 0, 1, 2, 2, 1, 0, 0, 1, 2]);
        assert_eq!(rounds.len(), 3);
        for row in &rounds {
            assert_eq!(
                row.map(|d| d.as_nanos()),
                [1, 2, 3],
                "rows are indexed by mode"
            );
        }
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median([4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median([7.0]), 7.0);
    }

    #[test]
    fn best_of_runs_exactly_one_untimed_warm_up() {
        let calls = Cell::new(0);
        let best = best_of(3, || {
            calls.set(calls.get() + 1);
            // Only timed calls are slow, so a timed warm-up would
            // have been the best.
            if calls.get() > 1 {
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        assert_eq!(calls.get(), 4);
        assert!(
            best >= Duration::from_millis(2),
            "the warm-up was timed: {best:?}"
        );
    }

    #[test]
    fn gate_returns_its_verdict() {
        assert!(gate("test", "always", true));
        assert!(!gate("test", "never", false));
    }

    #[test]
    fn every_table_id_and_alias_resolves_and_unknown_ids_do_not() {
        for (i, &(short, alias, _)) in EXPERIMENTS.iter().enumerate() {
            assert_eq!(short, format!("e{}", i + 1));
            assert!(alias.starts_with(&format!("{short}-")), "{alias}");
            for id in [short, alias] {
                assert_eq!(find(id).map(|e| e.0), Some(short), "{id}");
            }
            assert!(usage().contains(alias), "usage omits {alias}");
        }
        for unknown in ["", "e0", "e28", "e10-rang", "E10", "all", "serve"] {
            assert!(find(unknown).is_none(), "{unknown:?} resolved");
        }
    }
}
