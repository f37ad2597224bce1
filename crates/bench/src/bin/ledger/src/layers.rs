//! The traced run's per-layer breakdown.
//!
//! Client-side times come from the traced requests themselves.
//! Server-side times come from replaying every sampled payload
//! in-process: on a replica `Engine` built by feeding
//! `engine::dispatch` the identical set-up payloads, and on standalone
//! filters built with the same `build_*` constructors, seeds and keys
//! as the served ones. Filter-internal counters are METRICS deltas
//! across the traced phase. Nothing here reaches inside the service.

use crate::drive::{epoch_us, span, Conn, ConnOut, Sample, TracedOut, SPAN_BITS};
use crate::plan::{key, request_keys, Op, Plan, Workload, ALL_BACKENDS, EPS};
use crate::run::{Metric, Quality, Snap};
use filter_core::BatchedFilter;
use service::engine::{dispatch, Engine};
use service::{
    build_atomic_bloom, build_compacting, build_sharded_cqf, build_sharded_cuckoo,
    build_sharded_register_bloom, build_sharded_two_choice, Backend, Request, Response,
    ServedFilter,
};
use std::time::Instant;
use telemetry::expo::{self, Exposition};
use telemetry::trace::Trace;

fn div(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn backend_index(b: Backend) -> usize {
    ALL_BACKENDS
        .iter()
        .position(|&x| x == b)
        .expect("served backend")
}

/// A standalone filter built exactly as the server builds `spec`.
fn mirror(plan: &Plan, f: usize) -> ServedFilter {
    let s = &plan.filters[f];
    if !s.blob.is_empty() {
        return ServedFilter::Compacting(s.build_prebuilt());
    }
    let (cap, sb, seed) = (s.capacity, s.shard_bits, s.seed);
    let m = match s.backend {
        Backend::AtomicBloom => ServedFilter::Bloom(build_atomic_bloom(cap, EPS, seed)),
        Backend::ShardedCuckoo => ServedFilter::Cuckoo(build_sharded_cuckoo(cap, EPS, sb, seed)),
        Backend::ShardedCqf => ServedFilter::Cqf(build_sharded_cqf(cap, EPS, sb, seed)),
        Backend::RegisterBloom => {
            ServedFilter::RegisterBloom(build_sharded_register_bloom(cap, EPS, sb, seed))
        }
        Backend::Compacting => ServedFilter::Compacting(build_compacting(cap, EPS, seed)),
        Backend::TwoChoiceBloom => {
            ServedFilter::TwoChoice(build_sharded_two_choice(cap, EPS, sb, seed))
        }
    };
    for r in &s.preload {
        let keys: Vec<u64> = r.keys().collect();
        kernel_insert(&m, &keys);
    }
    m
}

/// The backend call the engine makes for a CONTAINS.
fn kernel_contains(f: &ServedFilter, keys: &[u64]) -> Vec<bool> {
    match f {
        ServedFilter::Bloom(b) => b.contains_batch(keys),
        ServedFilter::Cuckoo(c) => c.contains_batch(keys),
        ServedFilter::Cqf(q) => q.contains_batch(keys),
        ServedFilter::RegisterBloom(r) => r.contains_batch(keys),
        ServedFilter::Compacting(c) => c.contains_batch(keys),
        ServedFilter::TwoChoice(t) => t.contains_batch(keys),
    }
}

/// The backend call the engine makes for an INSERT.
fn kernel_insert(f: &ServedFilter, keys: &[u64]) {
    let res = match f {
        ServedFilter::Bloom(b) => {
            b.insert_batch(keys);
            Ok(())
        }
        ServedFilter::Cuckoo(c) => c.insert_batch(keys),
        ServedFilter::Cqf(q) => q.insert_batch(keys),
        ServedFilter::RegisterBloom(r) => r.insert_batch(keys),
        ServedFilter::Compacting(c) => {
            keys.iter().for_each(|&k| c.insert(k));
            Ok(())
        }
        ServedFilter::TwoChoice(t) => t.insert_batch(keys),
    };
    res.expect("standalone insert");
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_nanos() as u64)
}

/// Server-side sums over the replayed samples (nanoseconds).
#[derive(Default)]
struct Replay {
    requests: u64,
    decode: u64,
    dispatch: u64,
    encode: u64,
    /// Dispatch minus decode minus backend work, all requests / INSERT only.
    engine_self: i64,
    insert_self: (i64, u64),
    /// Per backend: (contains ns, keys, insert ns, keys).
    kernel: [(u64, u64, u64, u64); 6],
    multi: (u64, u64),
    name_alloc: u64,
}

struct Replicas {
    engines: Vec<Engine>,
    /// Node each filter lives on.
    node: Vec<usize>,
    /// Standalone copy of each filter the kernels are timed on.
    mirrors: Vec<Option<ServedFilter>>,
}

impl Replicas {
    fn build(plan: &Plan, outs: &[ConnOut], nodes: &[std::net::SocketAddr]) -> Replicas {
        let engines: Vec<Engine> = nodes
            .iter()
            .map(|_| Engine::new(crate::run::server_config()))
            .collect();
        let node: Vec<usize> = plan
            .filters
            .iter()
            .map(|f| match &outs[0].conn {
                Conn::Cluster(c) => {
                    let owner = c.owner_addr(&f.name);
                    nodes
                        .iter()
                        .position(|&a| a == owner)
                        .expect("owner is a node")
                }
                Conn::Direct(_) => 0,
            })
            .collect();
        for (i, f) in plan.filters.iter().enumerate() {
            f.for_each_setup_request(|req| {
                let (resp, _) = dispatch(&engines[node[i]], &req.encode());
                assert_eq!(resp, Response::Ok, "replica set-up of {}", f.name);
            });
        }
        // tenant-fanout times the kernels on one tenant per backend;
        // the others mirror every served filter.
        let mirrored = match plan.workload {
            Workload::TenantFanout => ALL_BACKENDS.len() - 1,
            _ => plan.filters.len(),
        };
        let mirrors: Vec<Option<ServedFilter>> = (0..plan.filters.len())
            .map(|f| (f < mirrored).then(|| mirror(plan, f)))
            .collect();
        // ingest-mixed: bring replica and mirrors up to the keys the
        // served tenants held when the window closed.
        for out in outs {
            for (f, held) in out.traffic.held() {
                let spec = &plan.filters[f];
                let salt = spec.preload[0].salt;
                let mut i = spec.preload[0].hi;
                while i < held {
                    let hi = (i + 4096).min(held);
                    let keys: Vec<u64> = (i..hi).map(|j| key(salt, j)).collect();
                    if let Some(m) = &mirrors[f] {
                        kernel_insert(m, &keys);
                    }
                    let req = Request::Insert {
                        name: spec.name.clone(),
                        keys,
                    };
                    let (resp, _) = dispatch(&engines[node[f]], &req.encode());
                    assert_eq!(resp, Response::Ok, "replica catch-up of {}", spec.name);
                    i = hi;
                }
            }
        }
        // Background compactions started by the set-up or the catch-up
        // would share the cores with the single-threaded replay.
        crate::sys::wait_quiet(std::time::Duration::from_secs(10));
        Replicas {
            engines,
            node,
            mirrors,
        }
    }

    /// Time one sample's server-side work once.
    fn replay_once(&self, s: &Sample) -> Once {
        let payload = s.req.encode();
        let keys = request_keys(&s.req);
        let nodes: Vec<usize> = match s.op {
            Op::MultiContains => (0..self.engines.len()).collect(),
            _ => vec![self.node[s.target]],
        };
        let mut o = Once::default();
        for &n in &nodes {
            let t0 = epoch_us();
            let (req, d) = timed(|| Request::decode(&payload));
            assert!(matches!(req, Ok(Ok(_))), "sample decodes");
            o.spans.push(("replay:proto_decode", t0, d));
            let t1 = epoch_us();
            let ((resp, _), dp) = timed(|| dispatch(&self.engines[n], &payload));
            o.spans.push(("replay:dispatch", t1, dp));
            let t2 = epoch_us();
            let (bytes, e) = timed(|| resp.encode());
            std::hint::black_box(bytes);
            o.spans.push(("replay:proto_encode", t2, e));
            o.t[DEC] += d;
            o.t[DISP] += dp;
            o.t[ENC] += e;
            if s.op == Op::MultiContains {
                let t3 = epoch_us();
                let (lists, m) = timed(|| self.engines[n].multi_contains(keys));
                o.spans.push(("replay:multi_contains", t3, m));
                o.t[KERN] += m;
                let (copy, a) = timed(|| lists.clone());
                std::hint::black_box(copy);
                o.t[ALLOC] += a;
            }
        }
        // The backend kernels: the addressed filter's mirror, or for
        // MULTI_CONTAINS (whose confirmations probe single tenants)
        // one tenant of each backend.
        let mirrors: Vec<&ServedFilter> = match s.op {
            Op::MultiContains => self.mirrors.iter().flatten().collect(),
            _ => vec![self.mirrors[s.target].as_ref().expect("mirrored target")],
        };
        for m in mirrors {
            let t3 = epoch_us();
            let k = if s.op == Op::Insert {
                timed(|| kernel_insert(m, keys)).1
            } else {
                let (hits, k) = timed(|| kernel_contains(m, keys));
                std::hint::black_box(hits);
                k
            };
            if s.op != Op::MultiContains {
                o.spans.push(("replay:kernel", t3, k));
                o.t[KERN] += k;
            }
            o.kernels.push((backend_index(m.backend()), k));
        }
        o
    }

    /// Replay one sample — read-only requests [`REPLAYS`] times,
    /// keeping the median of each part, INSERTs once — and add it to
    /// `r`. Returns the spans of the last replay.
    fn replay(&self, s: &Sample, r: &mut Replay) -> Vec<(&'static str, u64, u64)> {
        let reps = if s.op == Op::Insert { 1 } else { REPLAYS };
        let runs: Vec<Once> = (0..reps).map(|_| self.replay_once(s)).collect();
        let med = |f: &dyn Fn(&Once) -> u64| {
            let mut v: Vec<u64> = runs.iter().map(f).collect();
            v.sort_unstable();
            v[v.len() / 2]
        };
        let t: Vec<u64> = (0..PARTS).map(|i| med(&|o| o.t[i])).collect();
        let keys = request_keys(&s.req).len() as u64;
        for (j, &(b, _)) in runs[0].kernels.iter().enumerate() {
            let k = med(&|o| o.kernels[j].1);
            let slot = &mut r.kernel[b];
            if s.op == Op::Insert {
                slot.2 += k;
                slot.3 += keys;
            } else {
                slot.0 += k;
                slot.1 += keys;
            }
        }
        let self_ns = t[DISP] as i64 - t[DEC] as i64 - t[KERN] as i64;
        if s.op == Op::Insert {
            r.insert_self.0 += self_ns;
            r.insert_self.1 += 1;
        }
        if s.op == Op::MultiContains {
            r.multi.0 += t[KERN];
            r.multi.1 += keys * self.engines.len() as u64;
            r.name_alloc += t[ALLOC];
        }
        r.requests += 1;
        r.decode += t[DEC];
        r.dispatch += t[DISP];
        r.encode += t[ENC];
        r.engine_self += self_ns;
        runs.into_iter().last().expect("one replay").spans
    }
}

/// Read-only samples are replayed this many times; the median of
/// each part counts, so one preemption or cold miss does not.
const REPLAYS: usize = 5;
const DEC: usize = 0;
const DISP: usize = 1;
const ENC: usize = 2;
/// Backend work inside dispatch: the kernel call, or
/// `Engine::multi_contains`.
const KERN: usize = 3;
/// Copying MULTI_CONTAINS name lists: one allocation per matched name.
const ALLOC: usize = 4;
const PARTS: usize = 5;

/// One replay of one sample (nanoseconds).
#[derive(Default)]
struct Once {
    t: [u64; PARTS],
    /// (backend index, kernel ns) per mirror probed.
    kernels: Vec<(usize, u64)>,
    spans: Vec<(&'static str, u64, u64)>,
}

struct Delta<'a> {
    before: &'a Exposition,
    after: &'a Exposition,
}

impl Delta<'_> {
    fn d(&self, name: &str) -> f64 {
        self.after.value(name).unwrap_or(0.0) - self.before.value(name).unwrap_or(0.0)
    }

    fn mean(&self, hist: &str) -> f64 {
        div(
            self.d(&format!("{hist}_sum")),
            self.d(&format!("{hist}_count")),
        )
    }

    fn now(&self, name: &str) -> f64 {
        self.after.value(name).unwrap_or(0.0)
    }
}

/// Compute every per-layer metric; also returns the sampled traces,
/// with their replay spans added, for the Chrome JSON.
pub fn per_layer(
    plan: &Plan,
    outs: &mut [ConnOut],
    snaps: &[Snap],
    quality: &Quality,
    nodes: &[std::net::SocketAddr],
) -> (Vec<Metric>, Vec<Trace>) {
    // snaps: [warm-up start, untraced start, traced start, stop].
    let (untraced, traced_s) = (&snaps[1..3], &snaps[2..4]);
    let mut tr = TracedOut::default();
    let mut measured = crate::drive::Tally::default();
    let mut traces = Vec::new();
    let mut samples = Vec::new();
    for o in outs.iter_mut() {
        let t = std::mem::take(&mut o.traced);
        measured.merge(&o.measured);
        tr.tally.merge(&t.tally);
        tr.encode_ns += t.encode_ns;
        tr.round_trip_ns += t.round_trip_ns;
        tr.decode_ns += t.decode_ns;
        for g in 0..2 {
            tr.split[g].0 += t.split[g].0;
            tr.split[g].1 += t.split[g].1;
        }
        tr.cluster.0 += t.cluster.0;
        tr.cluster.1 += t.cluster.1;
        tr.cluster.2 += t.cluster.2;
        let base = traces.len();
        traces.extend(t.traces);
        samples.extend(t.samples.into_iter().map(|mut s| {
            s.trace += base;
            s
        }));
    }
    // The replica is caught up to each tenant's final key count, which
    // includes every sampled INSERT's keys: replay INSERTs with fresh
    // keys past that count, so they time first inserts, not duplicates.
    let mut fresh = vec![0u64; plan.filters.len()];
    for o in outs.iter() {
        for (f, held) in o.traffic.held() {
            fresh[f] = held;
        }
    }
    for s in samples.iter_mut() {
        if let Request::Insert { keys, .. } = &mut s.req {
            let salt = plan.filters[s.target].preload[0].salt;
            for k in keys.iter_mut() {
                *k = key(salt, fresh[s.target]);
                fresh[s.target] += 1;
            }
        }
    }
    let replicas = Replicas::build(plan, outs, nodes);
    let mut r = Replay::default();
    for s in &samples {
        let spans = replicas.replay(s, &mut r);
        let t = &mut traces[s.trace];
        let rt_span = t.spans[1].span_id;
        let tid = t.spans[0].tid;
        for (k, (name, start, ns)) in spans.into_iter().enumerate() {
            let id = (t.trace_id << SPAN_BITS) + 4 + k as u64;
            t.spans
                .push(span(t.trace_id, id, rt_span, name, start, ns, tid));
        }
    }

    let n = tr.tally.requests as f64;
    let per_req = |ns: u64| div(ns as f64, n);
    let rt_us = per_req(tr.round_trip_ns) / 1e3;
    let server_ns = div((r.dispatch + r.encode) as f64, r.requests as f64);
    let client_ns = per_req(tr.encode_ns) + per_req(tr.decode_ns);
    let secs = |s: &[Snap]| s[1].at.duration_since(s[0].at).as_secs_f64();
    let (u_secs, t_secs) = (secs(untraced), secs(traced_s));
    let before = expo::parse(&traced_s[0].metrics).expect("METRICS parses");
    let after = expo::parse(&traced_s[1].metrics).expect("METRICS parses");
    let m = Delta {
        before: &before,
        after: &after,
    };
    let reps = r.requests as f64;
    let mut out = Vec::new();
    let mut put = |name: &str, unit: &'static str, value: f64, note: &str| {
        out.push(Metric {
            name: name.to_string(),
            unit,
            value,
            note: note.to_string(),
        });
    };
    put("client.encode_ns", "ns", per_req(tr.encode_ns), "");
    put("client.decode_ns", "ns", per_req(tr.decode_ns), "");
    put(
        "client.round_trip_us",
        "us",
        rt_us,
        &format!("n={}", tr.tally.requests),
    );
    put("evented.self_us", "us", rt_us - server_ns / 1e3, "");
    put(
        "evented.bytes_per_req",
        "bytes",
        div(
            (traced_s[1].bytes - traced_s[0].bytes) as f64,
            (traced_s[1].responses - traced_s[0].responses) as f64,
        ),
        "",
    );
    let g = |i: usize| div(tr.split[i].0 as f64, tr.split[i].1 as f64);
    put(
        "evented.two_write_penalty_us",
        "us",
        (g(0) - g(1)) / 1e3,
        &format!("n={}+{}", tr.split[0].1, tr.split[1].1),
    );
    put(
        "proto.decode_ns",
        "ns",
        div(r.decode as f64, reps),
        &format!("replayed={}", r.requests),
    );
    put("proto.encode_ns", "ns", div(r.encode as f64, reps), "");
    put("engine.dispatch_ns", "ns", div(r.dispatch as f64, reps), "");
    put("engine.self_ns", "ns", div(r.engine_self as f64, reps), "");
    put(
        "engine.insert_self_ns",
        "ns",
        div(r.insert_self.0 as f64, r.insert_self.1 as f64),
        &format!("n={}", r.insert_self.1),
    );
    put(
        "engine.multi_contains_ns_per_key",
        "ns",
        div(r.multi.0 as f64, r.multi.1 as f64),
        "",
    );
    put(
        "engine.name_alloc_ns_per_key",
        "ns",
        div(r.name_alloc as f64, r.multi.1 as f64),
        "",
    );
    for (i, b) in ALL_BACKENDS.iter().enumerate() {
        let (cn, ck, inn, ik) = r.kernel[i];
        let name = b.name();
        put(
            &format!("kernel.{name}.contains_ns_per_key"),
            "ns",
            div(cn as f64, ck as f64),
            "",
        );
        put(
            &format!("kernel.{name}.insert_ns_per_key"),
            "ns",
            div(inn as f64, ik as f64),
            "",
        );
        let (bits, fpr) = quality.by_backend[i];
        put(&format!("kernel.{name}.fpr"), "fraction", fpr, "");
        put(&format!("kernel.{name}.bits_per_key"), "bits", bits, "");
    }
    put(
        "cuckoo.kick_chain_mean",
        "count",
        m.mean("bb_cuckoo_kick_chain_length"),
        "",
    );
    put(
        "cuckoo.insert_failures",
        "count",
        m.d("bb_cuckoo_insert_failures_total"),
        "",
    );
    put(
        "quotient.cluster_length_mean",
        "slots",
        m.mean("bb_cqf_cluster_length"),
        "",
    );
    put(
        "quotient.expansions",
        "count",
        m.d("bb_cqf_expansions_total"),
        "",
    );
    put(
        "compacting.seals",
        "count",
        m.d("bb_compacting_seals_total"),
        "",
    );
    put(
        "compacting.compactions",
        "count",
        m.d("bb_compacting_compactions_total"),
        "",
    );
    put(
        "compacting.busy_ms",
        "ms",
        m.d("bb_compacting_compaction_ns_sum") / 1e6,
        "",
    );
    put(
        "compacting.tiers",
        "count",
        m.now("bb_compacting_tiers"),
        "",
    );
    put("bloofi.depth", "levels", m.now("bb_bloofi_depth"), "");
    put("bloofi.nodes", "count", m.now("bb_bloofi_nodes"), "");
    put(
        "bloofi.descent_width_mean",
        "probes",
        m.mean("bb_bloofi_descent_width"),
        "",
    );
    put(
        "bloofi.useful_ratio",
        "fraction",
        div(tr.tally.names as f64, m.d("bb_bloofi_descent_width_sum")),
        "",
    );
    put(
        "cluster.self_us",
        "us",
        div(
            tr.cluster.0 as f64 - tr.cluster.1 as f64,
            tr.cluster.2 as f64,
        ) / 1e3,
        &format!("n={}", tr.cluster.2),
    );
    put(
        "process.cpu_ns_per_key",
        "ns",
        div(
            (untraced[1].cpu_ns - untraced[0].cpu_ns) as f64,
            measured.keys as f64,
        ),
        "",
    );
    put(
        "process.ctx_switches_per_req",
        "count",
        div(
            untraced[1].ctx_switches as f64 - untraced[0].ctx_switches as f64,
            measured.requests as f64,
        ),
        "",
    );
    let untraced_rate = div(measured.keys as f64, u_secs);
    let traced_rate = div(tr.tally.keys as f64, t_secs);
    put(
        "trace.overhead",
        "fraction",
        1.0 - div(traced_rate, untraced_rate),
        "",
    );
    put(
        "trace.attributed_share",
        "fraction",
        div(client_ns + server_ns, client_ns + rt_us * 1e3),
        "",
    );
    for (op, h) in [
        ("contains", &measured.contains),
        ("insert", &measured.insert),
        ("multi_contains", &measured.multi),
    ] {
        for (q, tag) in [(0.5, "p50"), (0.99, "p99")] {
            put(
                &format!("latency.{op}_{tag}_us"),
                "us",
                h.quantile_us(q),
                &format!("n={}", h.count()),
            );
        }
    }
    (out, traces)
}
