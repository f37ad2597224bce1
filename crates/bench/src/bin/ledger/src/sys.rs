//! Process counters read from procfs, and the run's provenance stamp.

use std::process::Command;
use std::time::{Duration, Instant};

fn proc_field(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set (VmHWM) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// User + system CPU time of every thread of this process, living or
/// exited, in nanoseconds (`/proc/self/stat` fields 14 and 15, in
/// USER_HZ = 100 ticks per second).
pub fn cpu_ns() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // The command name (field 2) may contain spaces; fields after
    // its closing parenthesis are space-separated, starting at field 3.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0;
    };
    let f: Vec<u64> = rest
        .split_whitespace()
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    (f.get(11).unwrap_or(&0) + f.get(12).unwrap_or(&0)) * 10_000_000
}

/// Voluntary plus involuntary context switches summed over the
/// threads alive now.
pub fn ctx_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .map(|t| {
            let status = format!("{}/status", t.path().display());
            proc_field(&status, "voluntary_ctxt_switches:").unwrap_or(0)
                + proc_field(&status, "nonvoluntary_ctxt_switches:").unwrap_or(0)
        })
        .sum()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The checked-out commit, or `unknown` outside a git checkout. Looks
/// only at `./.git`, never at parent directories.
pub fn commit() -> String {
    Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The unit of [`HostSpeed`]: nanoseconds [`reference_ns`] takes at
/// slowdown 1. Any constant would do, since two commits are compared on
/// the same host; this one is about the fastest a 2-vCPU AVX-512 VM ran
/// the loop, so scaled values read close to raw ones in a fast regime.
const REFERENCE_NOMINAL_NS: f64 = 3.0e6;

/// A fixed piece of arithmetic that belongs to the benchmark, not to
/// the code under test, timed in nanoseconds.
fn reference_ns() -> u64 {
    let t = Instant::now();
    let mut rng = crate::plan::Rng::new(1);
    let mut x = 0u64;
    for _ in 0..2_000_000 {
        x ^= rng.next_u64();
    }
    std::hint::black_box(x);
    t.elapsed().as_nanos() as u64
}

/// CPU time every thread of this process except the calling one has
/// run, in nanoseconds (`se.sum_exec_runtime`, in milliseconds with
/// nanosecond digits, of `/proc/self/task/*/sched`).
fn others_cpu_ns() -> Option<u64> {
    // Without this file a missing one below would read as idle.
    std::fs::metadata("/proc/thread-self/sched").ok()?;
    let me = std::fs::read_link("/proc/thread-self").ok()?;
    let me = me.file_name()?;
    let mut sum = 0.0;
    for t in std::fs::read_dir("/proc/self/task").ok()?.flatten() {
        if t.file_name() == me {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(t.path().join("sched")) else {
            continue; // the thread exited
        };
        let ms: f64 = text
            .lines()
            .find_map(|l| l.strip_prefix("se.sum_exec_runtime"))?
            .trim_start_matches([' ', ':'])
            .trim()
            .parse()
            .ok()?;
        sum += ms;
    }
    Some((sum * 1e6) as u64)
}

/// Wait until no other thread of this process runs for more than 5% of
/// a 5 ms interval (background compactions done, event loops blocked);
/// false if that does not happen within `patience`.
pub fn wait_quiet(patience: Duration) -> bool {
    const INTERVAL: Duration = Duration::from_millis(5);
    let t = Instant::now();
    loop {
        let Some(before) = others_cpu_ns() else {
            return false;
        };
        std::thread::sleep(INTERVAL);
        let Some(after) = others_cpu_ns() else {
            return false;
        };
        if after.saturating_sub(before) < INTERVAL.as_nanos() as u64 / 20 {
            return true;
        }
        if t.elapsed() >= patience {
            return false;
        }
    }
}

/// How much slower than nominal the host runs: the reference loop
/// timed on two threads at once (the load uses both cores), divided by
/// [`REFERENCE_NOMINAL_NS`].
///
/// Shared virtual machines drift between speed regimes that last from
/// seconds to minutes, moving every timing by up to ~1.6x. Times divided
/// by the slowdown (and rates multiplied) are what the ledger gates on,
/// so a regime change between two runs is not read as a code change.
///
/// The loop is timed only while every other thread of the process is
/// idle, so no work of the code under test (a background compaction, a
/// spinning event loop) shares the cores with it. When the process does
/// not go quiet within a few intervals the last reading stands.
pub struct HostSpeed {
    last: f64,
    /// Readings taken, and readings skipped because the process was busy.
    pub taken: u32,
    pub skipped: u32,
}

impl HostSpeed {
    /// The first reading, before any server starts. Panics if procfs
    /// does not show per-thread run times.
    pub fn new() -> HostSpeed {
        let mut h = HostSpeed {
            last: 0.0,
            taken: 0,
            skipped: 0,
        };
        assert!(
            h.try_read(Duration::from_secs(5)),
            "no idle moment to time the reference loop in (needs /proc/self/task/*/sched)"
        );
        h
    }

    fn try_read(&mut self, patience: Duration) -> bool {
        if !wait_quiet(patience) {
            self.skipped += 1;
            return false;
        }
        let other = std::thread::spawn(reference_ns);
        let mine = reference_ns();
        let other = other.join().expect("reference thread");
        self.last = (mine + other) as f64 / 2.0 / REFERENCE_NOMINAL_NS;
        self.taken += 1;
        true
    }

    /// A fresh reading if the process goes quiet within 20 ms, else
    /// the last one.
    pub fn read(&mut self) -> f64 {
        self.try_read(Duration::from_millis(20));
        self.last
    }
}
