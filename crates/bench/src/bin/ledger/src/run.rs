//! One run of one workload: set-up, the quality pass, the timed
//! phases, and the metrics they yield.

use crate::drive::{run_conn, Conn, ConnOut, Control, Tally, MEASURE, PAUSE, STOP, TRACED, WARMUP};
use crate::hist::{median, Hist};
use crate::plan::{key, Plan, Workload, ALL_BACKENDS};
use crate::sys;
use service::{
    ClusterClient, EventedFilterServer, FilterClient, FilterRow, Request, Response, ServerConfig,
};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Sample counts and inputs, printed beside the value.
    pub note: String,
}

pub struct Outcome {
    pub stamp: String,
    pub metrics: Vec<Metric>,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Chrome `trace_event` JSON of the sampled requests (traced runs).
    pub chrome: Option<String>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The served filters' space and accuracy after the load. The
/// read-only workloads do not change them, and ingest-mixed always
/// sends its whole script, so they are a function of the seed and the
/// code, not of how fast the run went.
pub struct Quality {
    pub bits_per_key: f64,
    pub fpr: f64,
    pub absent_probes: u64,
    /// Per backend, in `ALL_BACKENDS` order: (bits per key, fpr);
    /// zeros for a backend the workload does not serve.
    pub by_backend: [(f64, f64); 6],
}

/// Counters read at a phase boundary.
pub struct Snap {
    pub at: Instant,
    pub cpu_ns: u64,
    pub ctx_switches: u64,
    /// METRICS exposition (traced runs only).
    pub metrics: String,
    /// Payload bytes in + out, and responses, summed over servers.
    pub bytes: u64,
    pub responses: u64,
}

fn snap(servers: &[EventedFilterServer], traced: bool) -> Snap {
    let mut s = Snap {
        at: Instant::now(),
        cpu_ns: sys::cpu_ns(),
        ctx_switches: sys::ctx_switches(),
        metrics: if traced {
            servers[0].metrics_text()
        } else {
            String::new()
        },
        bytes: 0,
        responses: 0,
    };
    for srv in servers {
        let m = srv.metrics();
        s.bytes += m.bytes_in.get() + m.bytes_out.get();
        s.responses += m.responses_sent.get();
    }
    s
}

/// Every server's configuration. The frame limit admits the prebuilt
/// compacting filter of bulk-probe.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        max_frame: 1 << 26,
        ..ServerConfig::default()
    }
}

struct Live {
    servers: Vec<EventedFilterServer>,
    conns: Vec<Conn>,
}

/// Bind the servers, CREATE every filter and preload it. Returns the
/// live system and the seconds this took.
fn setup(plan: &Plan) -> (Live, f64) {
    let t0 = Instant::now();
    let nodes = if plan.workload == Workload::TenantFanout {
        2
    } else {
        1
    };
    let servers: Vec<EventedFilterServer> = (0..nodes)
        .map(|_| EventedFilterServer::bind("127.0.0.1:0", server_config()).expect("bind server"))
        .collect();
    let addrs: Vec<_> = servers.iter().map(|s| s.local_addr()).collect();
    let mut conns: Vec<Conn> = if nodes == 2 {
        vec![Conn::Cluster(ClusterClient::new(addrs).expect("cluster"))]
    } else {
        (0..plan.connections())
            .map(|_| Conn::Direct(FilterClient::connect(addrs[0]).expect("connect")))
            .collect()
    };
    for f in &plan.filters {
        f.for_each_setup_request(|req| match conns[0].call(&req) {
            Ok(Response::Ok) => {}
            other => panic!("set-up of {} failed: {other:?}", f.name),
        });
    }
    (Live { servers, conns }, t0.elapsed().as_secs_f64())
}

/// Stop the servers, then close the clients. The other order makes
/// an evented server spin on each hung-up socket until it stops.
fn teardown(live: Live) {
    for s in live.servers {
        s.shutdown();
    }
    drop(live.conns);
}

fn quality(plan: &Plan, conn: &mut Conn) -> Quality {
    // Let the compactions the load started finish first.
    sys::wait_quiet(Duration::from_secs(60));
    let rows: Vec<FilterRow> = match conn {
        Conn::Direct(c) => c.stats().expect("STATS").filters,
        Conn::Cluster(c) => c
            .stats_all()
            .expect("STATS")
            .into_values()
            .flat_map(|s| s.filters)
            .collect(),
    };
    let bi = |b| ALL_BACKENDS.iter().position(|&x| x == b).expect("backend");
    let mut bytes = [0u64; 6];
    let mut len = [0u64; 6];
    for r in &rows {
        bytes[bi(r.backend)] += r.size_in_bytes;
        len[bi(r.backend)] += r.len;
    }
    // Absent probes answered present, and probes made, per backend.
    let mut hits = [0u64; 6];
    let mut probes = [0u64; 6];
    let n = plan.fpr_probes_per_filter();
    for f in &plan.filters {
        let mut i = 0;
        while i < n {
            let hi = (i + 4096).min(n);
            let req = Request::Contains {
                name: f.name.clone(),
                keys: (i..hi).map(|j| key(plan.absent_salt, j)).collect(),
            };
            let Ok(Response::Bools(b)) = conn.call(&req) else {
                panic!("false-positive pass: CONTAINS on {} failed", f.name);
            };
            hits[bi(f.backend)] += b.iter().filter(|&&x| x).count() as u64;
            probes[bi(f.backend)] += b.len() as u64;
            i = hi;
        }
    }
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let mut by_backend = [(0.0, 0.0); 6];
    for i in 0..6 {
        by_backend[i] = (ratio(bytes[i] * 8, len[i]), ratio(hits[i], probes[i]));
    }
    Quality {
        bits_per_key: ratio(bytes.iter().sum::<u64>() * 8, len.iter().sum()),
        fpr: ratio(hits.iter().sum(), probes.iter().sum()),
        absent_probes: probes.iter().sum(),
        by_backend,
    }
}

fn metric(name: &str, unit: &'static str, value: f64, note: String) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
        note,
    }
}

/// Measured-window slice length.
const SLICE: Duration = Duration::from_millis(500);
/// How often a slice checks whether a script has ended; a slice cut
/// shorter than half of [`SLICE`] is not used.
const SCRIPT_POLL: Duration = Duration::from_millis(5);

/// Poll `done` every millisecond until it holds.
fn wait_for(done: impl Fn() -> bool) {
    while !done() {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Run `plan` once: a `window` of closed-loop load (for ingest-mixed,
/// its script), or with `traced` an untraced and a traced half-window
/// and the per-layer breakdown.
pub fn run(plan: &Plan, window: Duration, traced: bool) -> Outcome {
    let mut speed = sys::HostSpeed::new();
    let first_slowdown = speed.read();
    let (live, first_setup) = setup(plan);
    let Live { servers, conns } = live;
    let addrs: Vec<_> = servers.iter().map(|s| s.local_addr()).collect();
    let poll = servers[0].poll_backend().name();
    let script = if traced {
        None
    } else {
        plan.script_inserts(window)
    };
    let slices = (window.as_secs_f64() / SLICE.as_secs_f64())
        .round()
        .max(1.0) as usize;
    let ctl = Control::default();
    let n_conns = conns.len();
    // Measured slices: (start, end, host slowdown read just before).
    let mut marks = Vec::new();
    let (mut outs, snaps): (Vec<ConnOut>, Vec<Snap>) = std::thread::scope(|sc| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                let ctl = &ctl;
                let traffic = plan.traffic(i, script);
                sc.spawn(move || run_conn(plan, i, c, traffic, ctl))
            })
            .collect();
        let set_phase = |ph: u8| {
            ctl.phase.store(ph, Ordering::Release);
            handles.iter().for_each(|h| h.thread().unpark());
        };
        let finished = || ctl.finished.load(Ordering::Acquire);
        // Drivers start in WARMUP.
        let mut snaps = vec![snap(&servers, traced)];
        if script.is_some() {
            wait_for(|| ctl.warmed.load(Ordering::Acquire) == n_conns);
        } else {
            std::thread::sleep(plan.scale.warmup);
        }
        if traced {
            for ph in [MEASURE, TRACED] {
                snaps.push(snap(&servers, traced));
                set_phase(ph);
                std::thread::sleep(window / 2);
            }
        } else {
            // Fixed-length slices, each after a host-speed reading with
            // the drivers parked, until the window ends or a script does.
            for k in 0.. {
                if script.map_or(k == slices, |_| finished() > 0) {
                    break;
                }
                set_phase(PAUSE);
                wait_for(|| ctl.parked.load(Ordering::Acquire) + finished() == n_conns);
                let s = speed.read();
                ctl.slice.store(k, Ordering::Relaxed);
                set_phase(MEASURE);
                let t = Instant::now();
                while t.elapsed() < SLICE && finished() == 0 {
                    std::thread::sleep(SLICE.saturating_sub(t.elapsed()).min(SCRIPT_POLL));
                }
                marks.push((t, Instant::now(), s));
            }
            // The rest of a script is sent untimed.
            set_phase(WARMUP);
            wait_for(|| script.is_none() || finished() == n_conns);
        }
        snaps.push(snap(&servers, traced));
        set_phase(STOP);
        let outs = handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect();
        (outs, snaps)
    });
    let quality = quality(plan, &mut outs[0].conn);
    // After the load and the compactions it started.
    let peak_rss = sys::peak_rss_mib();

    let mut measured = Tally::default();
    let mut traced_tally = Tally::default();
    for o in &outs {
        measured.merge(&o.measured);
        traced_tally.merge(&o.traced.tally);
    }
    let attempted = measured.requests + traced_tally.requests;
    let failed = measured.failed + traced_tally.failed;
    let false_negatives = measured.false_negatives + traced_tally.false_negatives;

    let (metrics, chrome) = if traced {
        let (mut m, traces) = crate::layers::per_layer(plan, &mut outs, &snaps, &quality, &addrs);
        m.push(metric(
            "host.slowdown",
            "ratio",
            first_slowdown,
            String::new(),
        ));
        (m, Some(telemetry::trace::chrome_trace_json(&traces)))
    } else {
        (Vec::new(), None)
    };
    let mut slices = Vec::new();
    let mut live_conns = Vec::new();
    let mut wires = Vec::new();
    for o in outs {
        slices.push(o.slices);
        live_conns.push(o.conn);
        wires.push(o.wires);
    }
    teardown(Live {
        servers,
        conns: live_conns,
    });
    drop(wires);

    let metrics = if traced {
        metrics
    } else {
        // Set-up and slice times are scaled by the host slowdown read
        // just before them (see `sys::HostSpeed`); raw medians are
        // printed beside the scaled ones.
        let mut setups = vec![(first_setup, first_slowdown)];
        for _ in 1..plan.scale.setup_reps {
            let s = speed.read();
            let (live, secs) = setup(plan);
            teardown(live);
            setups.push((secs, s));
        }
        // Only the last slice can be cut short, by the end of a script.
        if marks.len() > 1 && marks.last().is_some_and(|m| m.1 - m.0 < SLICE / 2) {
            marks.pop();
        }
        let mut rate = (Vec::new(), Vec::new());
        let mut p50 = (Vec::new(), Vec::new());
        let mut p99 = (Vec::new(), Vec::new());
        for (k, &(t0, t1, s)) in marks.iter().enumerate() {
            let mut keys = 0;
            let mut hist = Hist::default();
            for sl in slices.iter().filter_map(|c| c.get(k)) {
                keys += sl.keys;
                hist.merge(&sl.hist);
            }
            let r = keys as f64 / t1.duration_since(t0).as_secs_f64();
            rate.0.push(r * s);
            rate.1.push(r);
            p50.0.push(hist.quantile_us(0.5) / s);
            p50.1.push(hist.quantile_us(0.5));
            p99.0.push(hist.quantile_us(0.99) / s);
            p99.1.push(hist.quantile_us(0.99));
        }
        let slowdowns: Vec<f64> = marks.iter().map(|m| m.2).collect();
        let secs: f64 = marks
            .iter()
            .map(|m| m.1.duration_since(m.0).as_secs_f64())
            .sum();
        let per_slice = |raw: &[f64]| {
            format!(
                "median of {} slices (raw {:.6}, host slowdown {:.3}); n={}",
                raw.len(),
                median(raw),
                median(&slowdowns),
                measured.all.count()
            )
        };
        let fmt_setups: Vec<String> = setups.iter().map(|s| format!("{:.3}", s.0)).collect();
        let scaled: Vec<f64> = setups.iter().map(|&(t, s)| t / s).collect();
        vec![
            metric(
                "setup_s",
                "s",
                median(&scaled),
                format!("median of {} (raw {})", setups.len(), fmt_setups.join(" ")),
            ),
            metric(
                "keys_per_s",
                "keys/s",
                median(&rate.0),
                format!(
                    "{}; {} keys in {secs:.3} s",
                    per_slice(&rate.1),
                    measured.keys
                ),
            ),
            metric("p50_us", "us", median(&p50.0), per_slice(&p50.1)),
            metric("p99_us", "us", median(&p99.0), per_slice(&p99.1)),
            metric(
                "fpr",
                "fraction",
                quality.fpr,
                format!("absent probes={}", quality.absent_probes),
            ),
            metric("bits_per_key", "bits", quality.bits_per_key, String::new()),
            metric("peak_rss_mib", "MiB", peak_rss, String::new()),
        ]
    };
    Outcome {
        stamp: format!(
            "workload={} seed={} window_s={} warmup_s={} script_inserts={} setup_reps={} \
             traced={} host_readings={}+{}skipped nproc={} simd={} poll={} commit={} \
             false_negatives={false_negatives}",
            plan.workload.name(),
            plan.seed,
            window.as_secs_f64(),
            plan.scale.warmup.as_secs_f64(),
            script.map_or("none".to_string(), |n| (n * n_conns as u64).to_string()),
            plan.scale.setup_reps,
            traced,
            speed.taken,
            speed.skipped,
            sys::nproc(),
            filter_core::simd::active_level().name(),
            poll,
            sys::commit(),
        ),
        metrics,
        correct: failed == 0 && false_negatives == 0,
        attempted,
        failed,
        chrome,
    }
}
