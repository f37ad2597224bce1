//! Performance ledger: one command that runs the filter service's four
//! benchmark workloads over loopback TCP, checks every answer, and
//! prints each end-to-end metric by name and unit — or, traced, the
//! per-layer breakdown of the same requests. See README.md.
//!
//! ```text
//! ledger [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Without `--workload` every workload runs, each in a fresh child
//! process of this binary. The last line of a single-workload run is
//! the JSON result.

mod drive;
mod hist;
mod layers;
mod plan;
mod run;
mod sys;

use plan::{Plan, Scale, Workload};
use std::process::{Command, ExitCode};
use std::time::Duration;

const USAGE: &str =
    "usage: ledger [--workload point-lookup|bulk-probe|ingest-mixed|tenant-fanout] \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 20,
        traced: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds takes an integer")?;
                if a.seconds == 0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// Run every workload, each in its own child process, so allocator
/// state and peak RSS are per workload.
fn run_all(a: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    for w in Workload::ALL {
        let status = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.traced { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Where a traced run writes its Chrome JSON: under the cargo target
/// directory, inside the checkout.
fn trace_path(w: Workload, seed: u64) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    std::path::Path::new(&dir)
        .join("ledger")
        .join(format!("trace-{}-seed{seed}.json", w.name()))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = a.workload else {
        return run_all(&a);
    };
    let plan = Plan::new(w, a.seed, Scale::FULL);
    let out = run::run(&plan, Duration::from_secs(a.seconds), a.traced);
    println!("# ledger {}", out.stamp);
    for m in &out.metrics {
        println!("{:<40} {:>16.6} {:<8} {}", m.name, m.value, m.unit, m.note);
    }
    if let Some(chrome) = &out.chrome {
        let path = trace_path(w, a.seed);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, chrome));
        match written {
            Ok(()) => println!("# chrome trace: {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    if !out.correct {
        eprintln!(
            "ledger: {} of {} requests failed or missed a held key",
            out.failed, out.attempted
        );
    }
    println!("{}", out.json());
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod smoke {
    use super::*;
    use telemetry::trace::json::{self, Json};

    const BENCHMARK: &str = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../../../../BENCHMARK.json"
    ));

    /// `(name, unit)` of every metric BENCHMARK.json declares in `section`.
    fn declared(bench: &Json, section: &str) -> Vec<(String, String)> {
        bench
            .get(section)
            .and_then(Json::items)
            .expect("metric section")
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Json::as_str).expect("name and unit");
                (s("name").to_string(), s("unit").to_string())
            })
            .collect()
    }

    #[test]
    fn every_workload_prints_every_declared_metric() {
        let bench = json::parse(BENCHMARK).expect("BENCHMARK.json parses");
        let names: Vec<&str> = bench
            .get("workloads")
            .and_then(Json::items)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        assert_eq!(names, Workload::ALL.map(Workload::name));
        for w in Workload::ALL {
            let plan = Plan::new(w, 7, Scale::TINY);
            for (traced, section) in [(false, "end_to_end"), (true, "per_layer")] {
                let out = run::run(&plan, Duration::from_millis(400), traced);
                let ctx = format!("{} traced={traced}", w.name());
                assert!(out.correct, "{ctx}: {}", out.stamp);
                assert!(out.attempted > 0 && out.failed == 0, "{ctx}");
                let line = json::parse(&out.json()).expect("result line is JSON");
                let Json::Obj(fields) = &line else {
                    panic!("{ctx}: result is not an object")
                };
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{ctx}");
                let Some(Json::Obj(metrics)) = line.get("metrics") else {
                    panic!("{ctx}: no metrics object")
                };
                let want = declared(&bench, section);
                assert_eq!(
                    metrics.len(),
                    want.len(),
                    "{ctx}: exactly the declared metrics"
                );
                for (name, unit) in &want {
                    let m = line.get("metrics").and_then(|ms| ms.get(name));
                    let m = m.unwrap_or_else(|| panic!("{ctx}: {name} missing"));
                    assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
                    let v = m
                        .get("value")
                        .and_then(Json::as_f64)
                        .expect("numeric value");
                    assert!(v.is_finite(), "{ctx}: {name} = {v}");
                    if !traced && name != "fpr" {
                        assert!(v > 0.0, "{ctx}: {name} = {v}");
                    }
                }
                if traced {
                    let chrome = json::parse(out.chrome.as_deref().expect("chrome trace"))
                        .expect("chrome trace is JSON");
                    let events = chrome
                        .get("traceEvents")
                        .and_then(Json::items)
                        .expect("traceEvents");
                    assert!(!events.is_empty(), "{ctx}: no spans kept");
                    for e in events {
                        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
                        assert!(e.get("name").and_then(Json::as_str).is_some());
                        assert!(e.get("dur").and_then(Json::as_f64).is_some());
                    }
                    let share = out
                        .metrics
                        .iter()
                        .find(|m| m.name == "trace.attributed_share")
                        .expect("attributed share")
                        .value;
                    assert!(share <= 1.0, "{ctx}: attributed share {share}");
                }
            }
        }
    }
}
