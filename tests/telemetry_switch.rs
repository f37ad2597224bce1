//! The telemetry layer's one off switch, `telemetry::set_enabled`.
//!
//! With the switch off nothing records: static handles, span timers,
//! the trace recorder, and a server's trace store. Every filter
//! answer, wire response and METRICS family stays the same, and the
//! slow log names no trace that TRACES will not return. Switched back
//! on, everything records again. The switch is process-global, so
//! these tests live in a test binary of their own and serialize on
//! one lock, and each turns the switch back on when it ends, even by
//! panic.

use beyond_bloom::service::engine::{dispatch, Engine};
use beyond_bloom::service::proto::{write_frame_traced, FrameEvent, FrameReader};
use beyond_bloom::service::{
    Backend, EventedFilterServer, FilterClient, Request, Response, ServerConfig, DEFAULT_MAX_FRAME,
};
use beyond_bloom::telemetry::trace::{self, SpanHandoff, TraceContext, FLAG_FORCED};
use beyond_bloom::telemetry::{self, expo, StaticCounter, StaticGauge, StaticHistogram};
use beyond_bloom::workloads::{disjoint_keys, unique_keys};
use std::collections::BTreeSet;
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

static SWITCH_LOCK: Mutex<()> = Mutex::new(());

/// Holds this file's lock on the switch and turns the switch back on
/// when dropped, so a failed test cannot leave the next one switched
/// off.
struct Switch {
    _held: MutexGuard<'static, ()>,
}

impl Switch {
    fn lock() -> Switch {
        let held = SWITCH_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        telemetry::set_enabled(true);
        Switch { _held: held }
    }

    fn set(&self, on: bool) {
        telemetry::set_enabled(on);
    }
}

impl Drop for Switch {
    fn drop(&mut self) {
        telemetry::set_enabled(true);
    }
}

fn bind() -> EventedFilterServer {
    bind_with(ServerConfig::default())
}

fn bind_with(config: ServerConfig) -> EventedFilterServer {
    let config = ServerConfig {
        read_timeout: Duration::from_millis(10),
        ..config
    };
    EventedFilterServer::bind("127.0.0.1:0", config).expect("bind ephemeral")
}

static COUNTER: StaticCounter =
    StaticCounter::new("bb_test_switch_counter_total", "Switch test counter.");
static GAUGE: StaticGauge = StaticGauge::new("bb_test_switch_gauge", "Switch test gauge.");
static HIST: StaticHistogram =
    StaticHistogram::new("bb_test_switch_hist_ns", "Switch test histogram.");

/// Touch each static handle and one span timer once.
fn touch_handles() {
    COUNTER.inc();
    GAUGE.add(1);
    HIST.observe(10);
    HIST.record(Duration::from_nanos(20));
    drop(HIST.span());
}

/// Counter, gauge and histogram count so far.
fn readings() -> (u64, i64, u64) {
    (COUNTER.get(), GAUGE.get(), HIST.get().count())
}

#[test]
fn switched_off_handles_spans_and_events_record_nothing() {
    let switch = Switch::lock();
    let before = readings();
    switch.set(false);
    touch_handles();
    assert_eq!(readings(), before, "a switched-off handle or span recorded");

    switch.set(true);
    touch_handles();
    assert_eq!(
        readings(),
        (before.0 + 1, before.1 + 1, before.2 + 3),
        "switched back on, the handles and the span record again"
    );
}

/// One forced request with a child span. Returns the guard's trace id
/// and the child's handoff.
fn traced_request() -> (u64, Option<SpanHandoff>) {
    let req = trace::begin_forced("test:request");
    let trace_id = req.trace_id();
    let handoff = {
        let _child = trace::span("test:child");
        trace::handoff()
    };
    req.finish(Duration::ZERO, false, false);
    (trace_id, handoff)
}

#[test]
fn switched_off_tracer_records_nothing() {
    let switch = Switch::lock();
    trace::store().take(0);
    let parked = SpanHandoff {
        trace_id: 0x5717_c400_0000_0001,
        span_id: 7,
    };
    switch.set(false);
    let (trace_id, handoff) = traced_request();
    assert_eq!(trace_id, 0, "a switched-off guard has no trace id");
    assert_eq!(
        handoff, None,
        "a switched-off request has no span to hand off"
    );
    trace::record_linked(parked, "test:linked", Duration::from_micros(3), 0, 0);
    assert!(
        trace::store().is_empty(),
        "a switched-off trace was promoted"
    );
    assert!(
        trace::store().peek_spans(parked.trace_id).is_empty(),
        "a switched-off linked span was stored"
    );

    switch.set(true);
    let (trace_id, handoff) = traced_request();
    assert_ne!(trace_id, 0);
    let handoff = handoff.expect("a recording request hands off its span");
    trace::record_linked(handoff, "test:linked", Duration::from_micros(3), 0, 0);
    let names: BTreeSet<String> = trace::store()
        .peek_spans(trace_id)
        .iter()
        .map(|s| s.name.to_string())
        .collect();
    assert_eq!(
        names,
        BTreeSet::from(["test:request", "test:child", "test:linked"].map(String::from)),
        "switched back on, the root, its child and the linked span record"
    );
    trace::store().take(0);
}

#[test]
fn switched_off_server_answers_forced_traces_but_keeps_none() {
    let switch = Switch::lock();
    let server = bind();
    let mut c = FilterClient::connect(server.local_addr()).expect("connect");
    c.create("sw", Backend::AtomicBloom, 1_000, 0.01, 0, 1)
        .unwrap();
    c.insert("sw", &[1, 2, 3]).unwrap();
    // A switched-off client thread attaches no context, so the forced
    // context goes on the wire by hand.
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect raw");
    let mut answers = FrameReader::new(raw.try_clone().expect("clone"), DEFAULT_MAX_FRAME);
    let mut probe = |trace_id: u64| {
        let ctx = TraceContext {
            trace_id,
            span_id: 1,
            flags: FLAG_FORCED,
        };
        let req = Request::Contains {
            name: "sw".to_string(),
            keys: vec![1, 2, 3],
        };
        write_frame_traced(&mut raw, &req.encode(), Some(&ctx)).expect("send");
        match answers.read_frame().expect("forced-traced CONTAINS") {
            FrameEvent::Frame(payload, _) => Response::decode(&payload).expect("decode"),
            FrameEvent::Closed => panic!("the server closed the connection"),
        }
    };
    let (off_id, on_id) = (0x5717_c400_0000_0002, 0x5717_c400_0000_0003);
    switch.set(false);
    let off_answer = probe(off_id);
    switch.set(true);
    let on_answer = probe(on_id);
    assert_eq!(off_answer, Response::Bools(vec![true; 3]));
    assert_eq!(on_answer, off_answer);

    // A server stores a request's trace before it answers, so both
    // answers above mean every trace they will ever store is stored.
    let seen: Vec<u64> = c
        .traces(0)
        .expect("TRACES")
        .iter()
        .map(|t| t.trace_id)
        .collect();
    assert!(
        seen.contains(&on_id),
        "the switched-on forced trace never reached TRACES"
    );
    assert!(
        !seen.contains(&off_id),
        "TRACES returned the switched-off request's trace"
    );
    drop((c, raw, answers));
    server.shutdown();
}

/// A `# slow` line names a trace only when TRACES can return it. At
/// threshold zero every request is slow; the switched-off CONTAINS
/// store no trace, so their lines carry no `trace_id=`, while the
/// switched-on CONTAINS names the trace TRACES returns. Every line
/// names the request's backend and batch size.
#[test]
fn slow_log_names_only_traces_that_traces_returns() {
    let switch = Switch::lock();
    let server = bind_with(ServerConfig {
        slow_request_threshold: Duration::ZERO,
        ..ServerConfig::default()
    });
    let mut c = FilterClient::connect(server.local_addr()).expect("connect");
    c.create("sw-slow", Backend::AtomicBloom, 1_000, 0.01, 0, 1)
        .unwrap();
    switch.set(false);
    for _ in 0..5 {
        c.contains("sw-slow", &[1, 2, 3]).unwrap();
    }
    switch.set(true);
    c.contains("sw-slow", &[1, 2, 3]).unwrap();
    // Each trace is promoted before its response is written, so the
    // answers above mean every trace they will ever store is stored.
    let returned: BTreeSet<u64> = c
        .traces(0)
        .expect("TRACES")
        .iter()
        .map(|t| t.trace_id)
        .collect();

    let text = server.metrics_text();
    let contains: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("# slow ") && l.contains(" op=CONTAINS "))
        .collect();
    assert_eq!(contains.len(), 6, "one slow line per CONTAINS:\n{text}");
    for line in &contains {
        assert!(
            line.contains(" backend=atomic-bloom batch=3 "),
            "a slow line lost its request's backend or batch: {line}"
        );
    }
    for line in &contains[..5] {
        assert!(
            !line.contains("trace_id="),
            "a switched-off slow line names a trace TRACES never returns: {line}"
        );
    }
    let named = contains[5]
        .split_once(" trace_id=")
        .map(|(_, id)| u64::from_str_radix(id, 16).expect("hex trace id"))
        .expect("the switched-on slow line names its trace");
    assert!(
        returned.contains(&named),
        "TRACES did not return the trace {named:016x} the slow log names"
    );
    drop(c);
    server.shutdown();
}

/// CREATE one filter of every backend, then INSERT, CONTAINS, COUNT,
/// DELETE and SNAPSHOT each, one MULTI_CONTAINS over all six, and
/// FORGET each. 600 keys stay inside the compacting backend's
/// 1024-key memtable, so no background compaction makes an answer
/// depend on timing. COUNT and DELETE are refused by the backends
/// that lack them, and the refusals are compared too.
fn script() -> Vec<Request> {
    let keys = unique_keys(0x5717_0001, 600);
    let absent = disjoint_keys(0x5717_0002, 300, &keys);
    let probes: Vec<u64> = keys[..300].iter().chain(&absent).copied().collect();
    let backends = [
        (Backend::AtomicBloom, 0),
        (Backend::ShardedCuckoo, 2),
        (Backend::ShardedCqf, 2),
        (Backend::RegisterBloom, 2),
        (Backend::TwoChoiceBloom, 2),
        (Backend::Compacting, 0),
    ];
    let names: Vec<String> = (0..backends.len()).map(|i| format!("sw-{i}")).collect();
    let mut out = Vec::new();
    for ((backend, shard_bits), name) in backends.into_iter().zip(&names) {
        out.push(Request::Create {
            name: name.clone(),
            backend,
            capacity: 10_000,
            eps: 0.01,
            shard_bits,
            seed: 0x5717,
            blob: Vec::new(),
        });
    }
    for name in names.iter().cloned() {
        out.push(Request::Insert {
            name: name.clone(),
            keys: keys.clone(),
        });
        out.push(Request::Contains {
            name: name.clone(),
            keys: probes.clone(),
        });
        out.push(Request::Count {
            name: name.clone(),
            keys: probes.clone(),
        });
        out.push(Request::Delete {
            name: name.clone(),
            keys: keys[..100].to_vec(),
        });
        out.push(Request::Snapshot { name });
    }
    out.push(Request::MultiContains { keys: probes });
    for name in names {
        out.push(Request::Forget { name });
    }
    out
}

#[test]
fn dispatch_answers_the_same_with_the_switch_off_and_on() {
    let switch = Switch::lock();
    let requests = script();
    let payloads: Vec<Vec<u8>> = requests.iter().map(Request::encode).collect();
    let run = |on: bool| {
        switch.set(on);
        let engine = Engine::new(ServerConfig::default());
        let answers: Vec<Vec<u8>> = payloads
            .iter()
            .map(|p| dispatch(&engine, p).0.encode())
            .collect();
        answers
    };
    let off = run(false);
    let on = run(true);
    assert_eq!(off.len(), payloads.len());
    for (i, (off, on)) in off.iter().zip(&on).enumerate() {
        assert_eq!(off, on, "response #{i} changed with the switch");
    }
    // Every CREATE and every INSERT succeeded, so the other answers
    // came from live filters.
    let ok = Response::Ok.encode();
    for (i, (req, answer)) in requests.iter().zip(&on).enumerate() {
        if matches!(req, Request::Create { .. } | Request::Insert { .. }) {
            assert_eq!(*answer, ok, "request #{i} was refused");
        }
    }
}

#[test]
fn metrics_lists_the_same_families_with_the_switch_off_and_on() {
    let switch = Switch::lock();
    // Bound while switched off: eager registration does not depend on
    // the switch.
    switch.set(false);
    let server = bind();
    let mut c = FilterClient::connect(server.local_addr()).expect("connect");
    c.create("sw-m", Backend::ShardedCqf, 10_000, 0.01, 2, 9)
        .unwrap();
    c.insert("sw-m", &unique_keys(0x5717_0003, 500)).unwrap();
    let scrape = |c: &mut FilterClient| {
        let text = c.metrics_text().expect("METRICS");
        let expo = expo::parse(&text)
            .unwrap_or_else(|e| panic!("METRICS failed validation: {e}\n---\n{text}"));
        let families: BTreeSet<String> = expo.family_names().map(str::to_string).collect();
        let tier = expo.value("bb_simd_level").expect("bb_simd_level");
        (families, tier)
    };
    let (off, off_tier) = scrape(&mut c);
    switch.set(true);
    let (on, on_tier) = scrape(&mut c);
    assert_eq!(off, on, "METRICS families changed with the switch");
    for fam in [
        "bb_cqf_cluster_length",
        "bb_multi_contains_requests_total",
        "bb_traces_dropped_total",
        "bb_server_request_latency_ns",
        "bb_bloofi_tenants",
    ] {
        assert!(on.contains(fam), "missing family {fam}");
    }
    let tier = f64::from(beyond_bloom::core::simd::active_level().code());
    assert_eq!((off_tier, on_tier), (tier, tier), "bb_simd_level");
    drop(c);
    server.shutdown();
}
