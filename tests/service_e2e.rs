//! End-to-end tests for the filter service: a real server on an
//! ephemeral loopback port, real TCP clients, and the hostile
//! scenarios the wire layer must survive (mid-frame disconnect,
//! adversarial length prefix, short trace context, racing shutdown).
//! The CI workflow also runs this file in `--release` so socket timing
//! and codegen match production.

use beyond_bloom::core::InsertFilter;
use beyond_bloom::core::{BatchedFilter, Filter};
use beyond_bloom::cuckoo::CuckooFilter;
use beyond_bloom::quotient::CountingQuotientFilter;
use beyond_bloom::service::engine::{dispatch, Engine};
use beyond_bloom::service::proto::{write_frame, FrameEvent, FrameReader, FLAG_TRACE};
use beyond_bloom::service::{
    build_atomic_bloom, build_sharded_cqf, build_sharded_cuckoo, build_sharded_register_bloom,
    build_sharded_two_choice, Backend, ClientError, ClusterClient, ErrorCode, EventedFilterServer,
    FilterClient, Request, Response, ServerConfig, ServerMetrics, DEFAULT_MAX_FRAME,
};
use beyond_bloom::telemetry::trace;
use beyond_bloom::workloads::{disjoint_keys, unique_keys, zipf_keys};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

fn test_config() -> ServerConfig {
    ServerConfig {
        read_timeout: Duration::from_millis(10),
        ..ServerConfig::default()
    }
}

fn start() -> (EventedFilterServer, std::net::SocketAddr) {
    let server = EventedFilterServer::bind("127.0.0.1:0", test_config()).expect("bind ephemeral");
    let addr = server.local_addr();
    (server, addr)
}

/// `bb_multi_contains_names_total` is process-wide, so every test that
/// runs MULTI_CONTAINS (over the wire or through `dispatch`) holds this
/// lock: the METRICS test can then check that its own request moved
/// the counter by exactly the names it returned.
static MULTI_CONTAINS_SERIAL: Mutex<()> = Mutex::new(());

fn serial_multi_contains() -> MutexGuard<'static, ()> {
    MULTI_CONTAINS_SERIAL
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

/// Poll the server's counters until `pred` holds or the deadline
/// passes. Counter updates race the client's view of its own
/// connection teardown, so robustness assertions poll rather than
/// sleep.
fn wait_for_metrics(
    server: &EventedFilterServer,
    pred: impl Fn(&ServerMetrics) -> bool,
) -> &ServerMetrics {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !pred(server.metrics()) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    server.metrics()
}

// ---------------------------------------------------------------
// Fixed-seed regression: batch CONTAINS over the wire must be
// bit-identical to the in-process oracle built by the same
// (capacity, eps, shard_bits, seed) recipe the server uses.
// ---------------------------------------------------------------

#[test]
fn wire_contains_matches_in_process_oracle() {
    const CAP: u64 = 50_000;
    const EPS: f64 = 1.0 / 128.0;
    const SEED: u64 = 0x05ee_de19;
    let keys = unique_keys(7_001, CAP as usize / 2);
    let probes = disjoint_keys(7_002, 20_000, &keys);
    let all: Vec<u64> = keys.iter().chain(&probes).copied().collect();

    let (server, addr) = start();
    let mut c = FilterClient::connect(addr).unwrap();

    // Oracles: the same builders the server's CREATE path calls.
    let bloom = build_atomic_bloom(CAP, EPS, SEED);
    bloom.insert_batch(&keys);
    let cuckoo = build_sharded_cuckoo(CAP, EPS, 3, SEED);
    cuckoo.insert_batch(&keys).unwrap();
    let cqf = build_sharded_cqf(CAP, EPS, 3, SEED);
    cqf.insert_batch(&keys).unwrap();
    let regbloom = build_sharded_register_bloom(CAP, EPS, 3, SEED);
    regbloom.insert_batch(&keys).unwrap();
    let twochoice = build_sharded_two_choice(CAP, EPS, 3, SEED);
    twochoice.insert_batch(&keys).unwrap();

    c.create("b", Backend::AtomicBloom, CAP, EPS, 3, SEED)
        .unwrap();
    c.create("c", Backend::ShardedCuckoo, CAP, EPS, 3, SEED)
        .unwrap();
    c.create("q", Backend::ShardedCqf, CAP, EPS, 3, SEED)
        .unwrap();
    c.create("r", Backend::RegisterBloom, CAP, EPS, 3, SEED)
        .unwrap();
    c.create("t", Backend::TwoChoiceBloom, CAP, EPS, 3, SEED)
        .unwrap();
    for chunk in keys.chunks(4096) {
        c.insert("b", chunk).unwrap();
        c.insert("c", chunk).unwrap();
        c.insert("q", chunk).unwrap();
        c.insert("r", chunk).unwrap();
        c.insert("t", chunk).unwrap();
    }

    for chunk in all.chunks(1013) {
        assert_eq!(c.contains("b", chunk).unwrap(), bloom.contains_batch(chunk));
        assert_eq!(
            c.contains("c", chunk).unwrap(),
            cuckoo.contains_batch(chunk)
        );
        assert_eq!(c.contains("q", chunk).unwrap(), cqf.contains_batch(chunk));
        assert_eq!(
            c.contains("r", chunk).unwrap(),
            regbloom.contains_batch(chunk)
        );
        assert_eq!(
            c.contains("t", chunk).unwrap(),
            twochoice.contains_batch(chunk)
        );
    }
    // Counting parity on a skewed multiset (CQF only).
    let dupes = zipf_keys(7_003, 1_000, 1.2, 0x5a17, 5_000);
    for chunk in dupes.chunks(512) {
        c.insert("q", chunk).unwrap();
        cqf.insert_batch(chunk).unwrap();
    }
    let hot: Vec<u64> = dupes.iter().take(500).copied().collect();
    assert_eq!(c.count("q", &hot).unwrap(), cqf.count_batch(&hot));

    drop(c);
    server.shutdown();
}

// ---------------------------------------------------------------
// Full CRUD across backends, including pre-built blob CREATE.
// ---------------------------------------------------------------

#[test]
fn crud_and_stats_roundtrip() {
    let (server, addr) = start();
    let mut c = FilterClient::connect(addr).unwrap();
    let keys = unique_keys(7_100, 10_000);

    c.create("cf", Backend::ShardedCuckoo, 20_000, 0.01, 2, 9)
        .unwrap();
    c.insert("cf", &keys).unwrap();
    assert!(c.contains("cf", &keys).unwrap().iter().all(|&b| b));
    let removed = c.delete("cf", &keys[..100]).unwrap();
    assert!(removed.iter().all(|&b| b), "all present keys must remove");

    c.create("qf", Backend::ShardedCqf, 20_000, 0.01, 2, 9)
        .unwrap();
    c.insert("qf", &keys[..1_000]).unwrap();
    c.insert("qf", &keys[..1_000]).unwrap(); // duplicates count
    let counts = c.count("qf", &keys[..1_000]).unwrap();
    assert!(
        counts.iter().all(|&n| n >= 2),
        "CQF counts never undercount"
    );
    let removed = c.delete("qf", &keys[..1_000]).unwrap();
    assert!(removed.iter().all(|&b| b));

    // Pre-built blobs: build + fill in-process, ship, query remotely.
    let mut built = CuckooFilter::new(5_000, 12);
    for &k in &keys[..4_000] {
        built.insert(k).unwrap();
    }
    c.create_prebuilt("shipped-cf", Backend::ShardedCuckoo, built.to_bytes())
        .unwrap();
    let oracle: Vec<bool> = keys[..4_000].iter().map(|&k| built.contains(k)).collect();
    assert_eq!(c.contains("shipped-cf", &keys[..4_000]).unwrap(), oracle);

    let mut built = CountingQuotientFilter::for_capacity(5_000, 0.01);
    for &k in &keys[..3_000] {
        built.insert(k).unwrap();
    }
    c.create_prebuilt("shipped-qf", Backend::ShardedCqf, built.to_bytes())
        .unwrap();
    assert!(c
        .contains("shipped-qf", &keys[..3_000])
        .unwrap()
        .iter()
        .all(|&b| b));

    let mut built = beyond_bloom::bloom::RegisterBlockedBloomFilter::with_seed(5_000, 0.01, 21);
    for &k in &keys[..2_000] {
        built.insert(k).unwrap();
    }
    c.create_prebuilt("shipped-rb", Backend::RegisterBloom, built.to_bytes())
        .unwrap();
    let oracle: Vec<bool> = keys[..4_000].iter().map(|&k| built.contains(k)).collect();
    assert_eq!(c.contains("shipped-rb", &keys[..4_000]).unwrap(), oracle);
    // Membership-only backend: COUNT and DELETE are clean errors.
    for e in [
        c.count("shipped-rb", &keys[..4]).unwrap_err(),
        c.delete("shipped-rb", &keys[..4]).unwrap_err(),
    ] {
        assert!(matches!(
            e,
            ClientError::Remote {
                code: ErrorCode::Unsupported,
                ..
            }
        ));
    }

    let mut built = beyond_bloom::bloom::TwoChoiceRegisterBloomFilter::with_seed(5_000, 0.01, 22);
    for &k in &keys[..2_000] {
        built.insert(k).unwrap();
    }
    c.create_prebuilt("shipped-tc", Backend::TwoChoiceBloom, built.to_bytes())
        .unwrap();
    let oracle: Vec<bool> = keys[..4_000].iter().map(|&k| built.contains(k)).collect();
    assert_eq!(c.contains("shipped-tc", &keys[..4_000]).unwrap(), oracle);

    let stats = c.stats().unwrap();
    assert_eq!(stats.filters.len(), 6, "registry lists every instance");
    assert!(stats.filters.iter().any(|f| f.name == "shipped-cf"));
    let m = server.metrics();
    assert!(m.keys_processed.get() > 0);
    // Every INSERT/CONTAINS above shipped multi-key requests, so all of
    // that traffic went through the batched probe kernels — but DELETE
    // and COUNT keys are counted in keys_processed only.
    assert!(m.batched_ops.get() > 0);
    assert!(m.batched_ops.get() <= m.keys_processed.get());
    assert!(m.request_latency.snapshot().count() > 0);

    drop(c);
    server.shutdown();
}

// ---------------------------------------------------------------
// The compacting backend over the wire: CREATE/INSERT/CONTAINS
// parity with the in-process builder, blob-CREATE of a mid-lifecycle
// snapshot, and clean Unsupported errors for COUNT/DELETE.
// ---------------------------------------------------------------

#[test]
fn compacting_backend_over_the_wire() {
    const CAP: u64 = 40_000;
    const EPS: f64 = 1.0 / 256.0;
    const SEED: u64 = 0xc0a7;
    let keys = unique_keys(7_300, CAP as usize / 2);
    let probes = disjoint_keys(7_301, 20_000, &keys);
    let all: Vec<u64> = keys.iter().chain(&probes).copied().collect();

    let (server, addr) = start();
    let mut c = FilterClient::connect(addr).unwrap();

    // Oracle: the same builder the server's CREATE path calls.
    let oracle = beyond_bloom::service::build_compacting(CAP, EPS, SEED);
    for &k in &keys {
        oracle.insert(k);
    }

    c.create("lsm", Backend::Compacting, CAP, EPS, 0, SEED)
        .unwrap();
    for chunk in keys.chunks(4096) {
        c.insert("lsm", chunk).unwrap();
    }
    // No-false-negative parity with the oracle for every inserted
    // key. (Exact false-positive parity is NOT expected: background
    // compaction timing decides which sealed fronts have merged into
    // tiers at query time, and different tier partitions hash
    // negatives differently.)
    assert!(oracle.contains_batch(&keys).iter().all(|&b| b));
    for chunk in keys.chunks(1013) {
        assert!(c.contains("lsm", chunk).unwrap().iter().all(|&b| b));
    }
    // Negative probes stay near the configured budget even with the
    // layered front + tiers each contributing their share.
    let fp: usize = probes
        .chunks(1013)
        .map(|chunk| {
            c.contains("lsm", chunk)
                .unwrap()
                .iter()
                .filter(|&&b| b)
                .count()
        })
        .sum();
    let fpr = fp as f64 / probes.len() as f64;
    assert!(fpr < 10.0 * EPS, "wire FPR {fpr} implausibly high");

    // Mutability-only ops are clean errors, not panics.
    for e in [
        c.count("lsm", &keys[..4]).unwrap_err(),
        c.delete("lsm", &keys[..4]).unwrap_err(),
    ] {
        assert!(matches!(
            e,
            ClientError::Remote {
                code: ErrorCode::Unsupported,
                ..
            }
        ));
    }

    // Blob CREATE: snapshot the oracle mid-lifecycle (insert more so
    // the front and sealed queue are non-empty), ship it, and query.
    let more = disjoint_keys(7_302, 5_000, &all);
    for &k in &more {
        oracle.insert(k);
    }
    c.create_prebuilt("shipped-lsm", Backend::Compacting, oracle.to_bytes())
        .unwrap();
    let shipped_probe: Vec<u64> = keys.iter().chain(&more).copied().collect();
    assert!(c
        .contains("shipped-lsm", &shipped_probe)
        .unwrap()
        .iter()
        .all(|&b| b));
    // And the restored instance keeps accepting inserts.
    let extra = disjoint_keys(7_303, 1_000, &shipped_probe);
    c.insert("shipped-lsm", &extra).unwrap();
    assert!(c
        .contains("shipped-lsm", &extra)
        .unwrap()
        .iter()
        .all(|&b| b));

    // Garbage blobs are a Filter error, not a crash.
    match c.create_prebuilt("bad-lsm", Backend::Compacting, vec![0xde, 0xad, 0xbe]) {
        Err(ClientError::Remote {
            code: ErrorCode::Filter,
            ..
        }) => {}
        other => panic!("expected Filter error, got {other:?}"),
    }

    // STATS reports the backend by name with a sane key count.
    let stats = c.stats().unwrap();
    let row = stats
        .filters
        .iter()
        .find(|f| f.name == "lsm")
        .expect("registry row");
    assert_eq!(row.backend, Backend::Compacting);
    assert_eq!(row.backend.name(), "compacting");
    assert_eq!(row.len, keys.len() as u64);
    assert!(row.size_in_bytes > 0);

    drop(c);
    server.shutdown();
}

// ---------------------------------------------------------------
// Error paths are responses, not panics or hangs.
// ---------------------------------------------------------------

#[test]
fn error_codes_are_precise() {
    let (server, addr) = start();
    let mut c = FilterClient::connect(addr).unwrap();

    let remote_code = |r: Result<_, ClientError>| match r {
        Err(ClientError::Remote { code, .. }) => code,
        other => panic!("expected remote error, got {other:?}"),
    };

    assert_eq!(
        remote_code(c.insert("ghost", &[1]).map(|_| ())),
        ErrorCode::NoSuchFilter
    );
    c.create("a", Backend::AtomicBloom, 1_000, 0.01, 0, 1)
        .unwrap();
    assert_eq!(
        remote_code(
            c.create("a", Backend::AtomicBloom, 1_000, 0.01, 0, 1)
                .map(|_| ())
        ),
        ErrorCode::FilterExists
    );
    assert_eq!(
        remote_code(c.count("a", &[1]).map(|_| ())),
        ErrorCode::Unsupported
    );
    assert_eq!(
        remote_code(c.delete("a", &[1]).map(|_| ())),
        ErrorCode::Unsupported
    );
    // Atomic-bloom blobs ARE supported (snapshot migration relies on
    // them), so garbage is a decode failure, not Unsupported.
    assert_eq!(
        remote_code(
            c.create_prebuilt("blob-bloom", Backend::AtomicBloom, vec![1, 2, 3])
                .map(|_| ())
        ),
        ErrorCode::Filter
    );
    assert_eq!(
        remote_code(
            c.create_prebuilt("bad-blob", Backend::ShardedCuckoo, vec![0xde, 0xad])
                .map(|_| ())
        ),
        ErrorCode::Filter
    );
    assert_eq!(
        remote_code(
            c.create("bad name", Backend::AtomicBloom, 1_000, 0.01, 0, 1)
                .map(|_| ())
        ),
        ErrorCode::BadName
    );
    assert_eq!(
        remote_code(
            c.create("big", Backend::AtomicBloom, u64::MAX, 0.01, 0, 1)
                .map(|_| ())
        ),
        ErrorCode::Filter
    );
    // A tiny eps at the largest admitted capacity would ask for
    // ~54 GB; the eps floor refuses it.
    assert_eq!(
        remote_code(
            c.create("tiny-eps", Backend::AtomicBloom, 1 << 28, 1e-300, 0, 1)
                .map(|_| ())
        ),
        ErrorCode::Filter
    );

    // The connection is still perfectly usable after every error.
    c.insert("a", &[42]).unwrap();
    assert!(c.contains("a", &[42]).unwrap()[0]);

    drop(c);
    server.shutdown();
}

// ---------------------------------------------------------------
// Robustness: a peer dying mid-frame or shipping an absurd length
// prefix must not wedge or crash a loop; the server keeps accepting
// and its counters record the event.
// ---------------------------------------------------------------

#[test]
fn mid_frame_disconnect_does_not_wedge_server() {
    let (server, addr) = start();
    let mut c = FilterClient::connect(addr).unwrap();
    c.create("t", Backend::AtomicBloom, 1_000, 0.01, 0, 1)
        .unwrap();

    // Announce a 1 KiB frame, send 10 bytes, vanish.
    {
        let mut rude = TcpStream::connect(addr).unwrap();
        rude.write_all(&1024u32.to_le_bytes()).unwrap();
        rude.write_all(&[0xab; 10]).unwrap();
    } // dropped: RST/EOF mid-frame

    // The rude client's connection is reaped and the server still
    // answers on both old and new connections.
    let m = wait_for_metrics(&server, |m| m.disconnects_mid_frame.get() >= 1);
    assert!(
        m.disconnects_mid_frame.get() >= 1,
        "the server must count the mid-frame disconnect"
    );
    let mut fresh = FilterClient::connect(addr).unwrap();
    fresh.insert("t", &[7]).unwrap();
    assert!(c.contains("t", &[7]).unwrap()[0]);

    drop((c, fresh));
    server.shutdown();
}

#[test]
fn oversized_length_prefix_is_refused_and_counted() {
    let (server, addr) = start();
    let mut c = FilterClient::connect(addr).unwrap();
    c.create("t", Backend::AtomicBloom, 1_000, 0.01, 0, 1)
        .unwrap();

    // A length prefix far past the frame limit: the server must
    // refuse before allocating, answer with BadFrame, and close.
    let mut rude = TcpStream::connect(addr).unwrap();
    rude.write_all(&u32::MAX.to_le_bytes()).unwrap();
    let mut reader = beyond_bloom::service::proto::FrameReader::new(
        rude.try_clone().unwrap(),
        beyond_bloom::service::DEFAULT_MAX_FRAME,
    );
    match reader.read_frame() {
        Ok(beyond_bloom::service::proto::FrameEvent::Frame(payload, _)) => {
            match beyond_bloom::service::Response::decode(&payload).unwrap() {
                beyond_bloom::service::Response::Error { code, .. } => {
                    assert_eq!(code, ErrorCode::BadFrame)
                }
                other => panic!("expected error response, got {other:?}"),
            }
        }
        other => panic!("expected a response frame before close, got {other:?}"),
    }
    drop((reader, rude));

    let m = wait_for_metrics(&server, |m| m.protocol_errors.get() >= 1);
    assert!(m.protocol_errors.get() >= 1);
    // And the server is still fully operational.
    c.insert("t", &[9]).unwrap();
    assert!(c.contains("t", &[9]).unwrap()[0]);

    drop(c);
    server.shutdown();
}

#[test]
fn malformed_payload_gets_error_response_and_connection_survives() {
    let (server, addr) = start();
    let mut c = FilterClient::connect(addr).unwrap();
    // A well-framed but garbage payload: BadFrame response, same
    // connection keeps working (framing is still in sync). The next
    // read returns the error response to the garbage frame...
    beyond_bloom::service::proto::write_frame(c.stream(), &[0u8; 16]).unwrap();
    match c.call(&beyond_bloom::service::Request::Stats).unwrap() {
        beyond_bloom::service::Response::Error { code, .. } => {
            assert_eq!(code, ErrorCode::BadFrame)
        }
        other => panic!("expected BadFrame error, got {other:?}"),
    }
    // ...and the stream is back in lockstep: the pending STATS answer.
    match c.call(&beyond_bloom::service::Request::Stats).unwrap() {
        beyond_bloom::service::Response::Stats(_) => {
            assert!(server.metrics().protocol_errors.get() >= 1)
        }
        other => panic!("expected stats, got {other:?}"),
    }
    drop(c);
    server.shutdown();
}

#[test]
fn short_trace_context_is_refused_then_closed() {
    let (server, addr) = start();
    let base = server.metrics().protocol_errors.get();

    // A traced frame announces a 16-byte trace context up front; a
    // 5-byte body cannot hold one. One BadFrame answer, then close.
    let mut rude = RawConn::connect(addr);
    let mut wire = (FLAG_TRACE | 5).to_le_bytes().to_vec();
    wire.extend_from_slice(&[0x7e; 5]);
    rude.stream.write_all(&wire).unwrap();
    match Response::decode(&rude.recv()).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadFrame),
        other => panic!("expected BadFrame, got {other:?}"),
    }
    match rude.reader.read_frame() {
        Ok(FrameEvent::Closed) | Err(_) => {}
        Ok(FrameEvent::Frame(..)) => panic!("a second response after the refusal"),
    }
    // The error was counted before its answer was queued.
    assert_eq!(server.metrics().protocol_errors.get(), base + 1);

    drop(rude);
    server.shutdown();
}

#[test]
fn cleanly_closed_connections_are_reaped() {
    let (server, addr) = start();
    let open_now = || server.metrics().open_connections.get();
    let base = open_now();

    // EOF on a frame boundary with nothing queued: the server must
    // close its end, not keep servicing a level-triggered EOF forever.
    // An answered request proves the server adopted the connection.
    let mut brief = FilterClient::connect(addr).unwrap();
    brief.stats().unwrap();
    assert_eq!(open_now(), base + 1);
    drop(brief);

    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let open = open_now();
        if open == base {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "{open} connections still open 2 s after a clean close (baseline {base})"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}

// ---------------------------------------------------------------
// Graceful shutdown drains in-flight work and joins every thread.
// ---------------------------------------------------------------

#[test]
fn shutdown_drains_in_flight_requests() {
    let (server, addr) = start();
    let mut c = FilterClient::connect(addr).unwrap();
    c.create("t", Backend::ShardedCuckoo, 100_000, 0.01, 2, 3)
        .unwrap();
    let keys = unique_keys(7_200, 50_000);

    // Fire a large insert from another thread, then shut down while
    // it is (likely) in flight: the request must either complete with
    // Ok or observe an orderly close — never a hang or a panic. The
    // connection is opened here, before the shutdown can start.
    let mut busy = FilterClient::connect(addr).unwrap();
    let handle = std::thread::spawn(move || busy.insert("t", &keys));
    std::thread::sleep(Duration::from_millis(5));
    server.shutdown(); // joins every loop; must not deadlock
    match handle.join().expect("client thread must not panic") {
        Ok(()) | Err(ClientError::ServerClosed) | Err(ClientError::Io(_)) => {}
        Err(e) => panic!("unexpected drain outcome: {e}"),
    }
    // After shutdown the port no longer serves the protocol: either
    // the connect fails outright or the connection yields no response.
    match FilterClient::connect(addr) {
        Err(_) => {}
        Ok(mut late) => {
            assert!(
                late.stats().is_err(),
                "server must not answer after shutdown"
            )
        }
    }
    drop(c);
}

#[test]
fn metrics_exposition_is_valid_and_spans_layers() {
    // The METRICS opcode must return parseable Prometheus text with
    // families from every instrumented layer: bloom, cuckoo,
    // quotient, concurrent, and the service itself. A zero
    // slow-request threshold makes every request slow, so the
    // slow-request log is guaranteed non-empty.
    let server = EventedFilterServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            read_timeout: Duration::from_millis(10),
            slow_request_threshold: Duration::ZERO,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral");
    let addr = server.local_addr();
    let mut c = FilterClient::connect(addr).unwrap();
    c.create("mx-cuckoo", Backend::ShardedCuckoo, 20_000, 0.01, 3, 11)
        .unwrap();
    c.create("mx-cqf", Backend::ShardedCqf, 20_000, 0.01, 3, 12)
        .unwrap();
    c.create("mx-bloom", Backend::AtomicBloom, 20_000, 0.01, 0, 13)
        .unwrap();
    let keys = unique_keys(910, 5_000);
    c.insert("mx-cuckoo", &keys).unwrap();
    c.insert("mx-cqf", &keys).unwrap();
    c.insert("mx-bloom", &keys).unwrap();
    let _ = c.contains("mx-cuckoo", &keys).unwrap();
    let _ = c.count("mx-cqf", &keys[..100]).unwrap();

    let text = c.metrics_text().unwrap();
    let expo = beyond_bloom::telemetry::expo::parse(&text)
        .unwrap_or_else(|e| panic!("exposition failed validation: {e}\n---\n{text}"));

    // Acceptance: >= 10 distinct families spanning all five layers.
    assert!(
        expo.family_count() >= 10,
        "only {} families:\n{}",
        expo.family_count(),
        expo.family_names().collect::<Vec<_>>().join("\n")
    );
    // Filter-layer families (registered eagerly at bind).
    for fam in [
        "bb_bloom_scalable_expansions_total",      // bloom
        "bb_cuckoo_kick_chain_length",             // cuckoo
        "bb_cqf_cluster_length",                   // quotient
        "bb_sharded_lock_poison_recoveries_total", // concurrent
        "bb_multi_contains_requests_total",        // service
    ] {
        assert!(expo.has_family(fam), "missing family {fam}:\n{text}");
    }
    assert!(expo.value("bb_server_request_latency_ns_count").unwrap() > 0.0);
    // The sharded inserts exercised per-shard op accounting.
    assert!(expo.labeled_sum("bb_filter_shard_ops_total", "mx-cuckoo") > 0.0);
    // Server families.
    for fam in [
        "bb_server_frames_received_total",
        "bb_server_keys_processed_total",
        "bb_server_request_latency_ns",
        "bb_server_accept_errors_total",
        "bb_server_open_connections",
        "bb_server_pipelined_depth",
        "bb_filter_keys",
        "bb_filter_size_bytes",
        "bb_filter_inventory_truncated",
        "bb_bloofi_tenants",
        "bb_bloofi_saturated_tenants",
    ] {
        assert!(expo.has_family(fam), "missing family {fam}");
    }
    assert!(expo.has_family("bb_bloofi_candidates"));
    // Three filters fit comfortably under the inventory series cap.
    assert_eq!(expo.value("bb_filter_inventory_truncated").unwrap(), 0.0);
    // The index tracks every registered filter; none is saturated.
    assert_eq!(expo.value("bb_bloofi_tenants").unwrap(), 3.0);
    assert_eq!(expo.value("bb_bloofi_saturated_tenants").unwrap(), 0.0);
    // A scripted MULTI_CONTAINS moves the names counter by exactly the
    // names it returned: 100 keys held by all three filters, and 100
    // absent keys that only a confirmed false positive names.
    assert!(expo.has_family("bb_multi_contains_names_total"));
    let names_total = |c: &mut FilterClient| {
        let text = c.metrics_text().unwrap();
        let expo = beyond_bloom::telemetry::expo::parse(&text).expect("exposition");
        expo.value("bb_multi_contains_names_total").unwrap()
    };
    let mut probes = keys[..100].to_vec();
    probes.extend(unique_keys(912, 100));
    let _serial = serial_multi_contains();
    let before = names_total(&mut c);
    let lists = c.multi_contains(&probes).unwrap();
    let returned: usize = lists.iter().map(Vec::len).sum();
    assert!(returned >= 300, "every held key names its three filters");
    assert_eq!(names_total(&mut c) - before, returned as f64);
    // A blob-CREATE has keys the index cannot enumerate, so it raises
    // the saturated gauge; its FORGET lowers it again.
    let saturated = |c: &mut FilterClient| {
        let text = c.metrics_text().unwrap();
        let expo = beyond_bloom::telemetry::expo::parse(&text).expect("exposition");
        expo.value("bb_bloofi_saturated_tenants").unwrap()
    };
    let blob = match c.snapshot("mx-bloom").unwrap() {
        (Backend::AtomicBloom, bytes) => bytes,
        other => panic!("unexpected snapshot {other:?}"),
    };
    c.create_prebuilt("mx-shipped", Backend::AtomicBloom, blob)
        .unwrap();
    assert_eq!(saturated(&mut c), 1.0);
    c.forget("mx-shipped").unwrap();
    assert_eq!(saturated(&mut c), 0.0);
    // The SIMD tier info gauge is exported at registry init and
    // matches the level the dispatcher actually resolved.
    assert_eq!(
        expo.value("bb_simd_level").unwrap(),
        beyond_bloom::core::simd::active_level().code() as f64,
        "bb_simd_level must report the active dispatch tier"
    );
    // Our own connection is open while METRICS renders, and every
    // serviced frame raises the pipelining watermark to at least 1.
    assert!(expo.value("bb_server_open_connections").unwrap() >= 1.0);
    assert!(expo.value("bb_server_pipelined_depth").unwrap() >= 1.0);
    assert_eq!(expo.value("bb_server_accept_errors_total").unwrap(), 0.0);
    assert!(expo.value("bb_server_keys_processed_total").unwrap() >= 15_000.0);
    // Approximate: CQF key counts can undercount by fingerprint
    // collisions merging distinct keys.
    assert!(expo.labeled_sum("bb_filter_keys", "mx-cqf") >= 4_950.0);
    // Zero threshold: every request is slow, so the slow counter
    // moved and the log rendered entries (the slow log is engine
    // state, not telemetry, so the runtime switch does not gate it).
    assert!(expo.value("bb_server_slow_requests_total").unwrap() > 0.0);
    assert!(
        text.lines().any(|l| l.starts_with("# slow ")),
        "no slow-request log lines:\n{text}"
    );
    // Slow entries carry decoded opcode context and the client's
    // peer address (every entry here came over a real TCP socket).
    assert!(text.contains("op=INSERT") || text.contains("op=CREATE"));
    assert!(
        text.lines()
            .filter(|l| l.starts_with("# slow "))
            .all(|l| l.contains(" peer=127.0.0.1:")),
        "slow lines must carry the TCP peer:\n{text}"
    );

    // Overwrite accounting: the bounded logs export how much they
    // have discarded. Drive the 256-entry slow log past capacity
    // (every request is slow at threshold zero), then check its drop
    // counter moved.
    for fam in ["bb_slow_log_dropped", "bb_traces_dropped_total"] {
        assert!(expo.has_family(fam), "missing drop counter {fam}");
    }
    assert_eq!(expo.value("bb_slow_log_dropped").unwrap(), 0.0);
    let probe = [1u64];
    for _ in 0..300 {
        let _ = c.contains("mx-bloom", &probe).unwrap();
    }
    let text = c.metrics_text().unwrap();
    let expo = beyond_bloom::telemetry::expo::parse(&text).expect("post-wrap exposition");
    assert!(
        expo.value("bb_slow_log_dropped").unwrap() > 0.0,
        "slow log wrapped >300 entries past its 256 cap:\n{text}"
    );

    // METRICS is the one read path for the server's counters, so each
    // `bb_server_*` family must equal the field it renders. Every
    // request above has been answered, and a request is fully counted
    // before its answer is written, so nothing moves between the
    // in-process render and the reads.
    let text = server.metrics_text();
    let expo = beyond_bloom::telemetry::expo::parse(&text).expect("in-process exposition");
    let m = server.metrics();
    for (fam, counter) in [
        ("bb_server_connections_opened_total", &m.connections_opened),
        ("bb_server_connections_closed_total", &m.connections_closed),
        ("bb_server_frames_received_total", &m.frames_received),
        ("bb_server_responses_sent_total", &m.responses_sent),
        ("bb_server_protocol_errors_total", &m.protocol_errors),
        (
            "bb_server_disconnects_mid_frame_total",
            &m.disconnects_mid_frame,
        ),
        ("bb_server_error_responses_total", &m.error_responses),
        ("bb_server_keys_processed_total", &m.keys_processed),
        ("bb_server_batched_ops_total", &m.batched_ops),
        ("bb_server_bytes_in_total", &m.bytes_in),
        ("bb_server_bytes_out_total", &m.bytes_out),
        ("bb_server_accept_errors_total", &m.accept_errors),
    ] {
        assert_eq!(expo.value(fam), Some(counter.get() as f64), "{fam}");
    }
    for (fam, gauge) in [
        ("bb_server_open_connections", &m.open_connections),
        ("bb_server_pipelined_depth", &m.pipelined_depth),
    ] {
        assert_eq!(expo.value(fam), Some(gauge.get() as f64), "{fam}");
    }
    assert_eq!(
        expo.value("bb_server_request_latency_ns_count"),
        Some(m.request_latency.snapshot().count() as f64)
    );
    // The slow counter is the number of slow-log entries ever
    // emitted: those still listed plus those overwritten by wrap. At
    // threshold zero that is every frame served.
    let listed = text.lines().filter(|l| l.starts_with("# slow ")).count() as f64;
    let slow = expo.value("bb_server_slow_requests_total");
    assert_eq!(
        slow,
        Some(listed + expo.value("bb_slow_log_dropped").unwrap())
    );
    assert_eq!(slow, Some(m.frames_received.get() as f64));
    drop(c);
    server.shutdown();

    // A fresh server (fresh registry): spot-check the server families
    // again, then push the inventory past its series cap.
    let server = EventedFilterServer::bind("127.0.0.1:0", test_config()).expect("bind fresh");
    let mut c = FilterClient::connect(server.local_addr()).unwrap();
    c.create("mx-ev", Backend::AtomicBloom, 10_000, 0.01, 0, 14)
        .unwrap();
    c.insert("mx-ev", &unique_keys(911, 1_000)).unwrap();
    // Push the registry past the inventory series cap: the per-filter
    // gauges stop at 64 series and the overflow is reported, not
    // silently dropped.
    for i in 0..70 {
        c.create(
            &format!("mx-cap-{i:03}"),
            Backend::AtomicBloom,
            64,
            0.01,
            0,
            i,
        )
        .unwrap();
    }
    let text = c.metrics_text().unwrap();
    let expo = beyond_bloom::telemetry::expo::parse(&text)
        .unwrap_or_else(|e| panic!("second exposition failed validation: {e}\n---\n{text}"));
    for fam in [
        "bb_server_frames_received_total",
        "bb_server_accept_errors_total",
        "bb_server_open_connections",
        "bb_server_pipelined_depth",
    ] {
        assert!(expo.has_family(fam), "missing family {fam}");
    }
    assert!(expo.value("bb_server_open_connections").unwrap() >= 1.0);
    assert_eq!(
        expo.value("bb_simd_level").unwrap(),
        beyond_bloom::core::simd::active_level().code() as f64,
        "every server must export the SIMD tier gauge"
    );
    // 71 registered filters, 64-series inventory cap: exactly 7
    // omitted, and the gauge says so.
    assert_eq!(
        expo.value("bb_filter_inventory_truncated").unwrap(),
        7.0,
        "inventory truncation gauge must count omitted filters"
    );
    assert_eq!(
        text.matches("bb_filter_keys{").count(),
        64,
        "per-filter inventory must stop at the series cap"
    );
    drop(c);
    server.shutdown();
}

// ===============================================================
// Wire-vs-dispatch equivalence: one scripted CRUD + batch +
// adversarial sequence over the wire must answer every well-framed
// payload with exactly the bytes `engine::dispatch` returns on a
// fresh engine fed the same payloads in order, and must move every
// deterministic counter by exactly what those payloads account for.
// ===============================================================

/// A raw frame-level connection: lets the script control exactly
/// what bytes hit the wire, capture exactly what comes back, and log
/// every well-framed payload it sent.
struct RawConn {
    stream: TcpStream,
    reader: FrameReader<TcpStream>,
    sent: Vec<Vec<u8>>,
}

impl RawConn {
    fn connect(addr: SocketAddr) -> RawConn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        let reader = FrameReader::new(stream.try_clone().unwrap(), DEFAULT_MAX_FRAME);
        RawConn {
            stream,
            reader,
            sent: Vec::new(),
        }
    }

    /// Frame every payload, write them all in one burst, and log them.
    fn send_payloads(&mut self, payloads: Vec<Vec<u8>>) {
        let mut wire = Vec::new();
        for p in &payloads {
            write_frame(&mut wire, p).expect("frame");
        }
        self.stream.write_all(&wire).expect("send frames");
        self.sent.extend(payloads);
    }

    fn recv(&mut self) -> Vec<u8> {
        match self.reader.read_frame().expect("read frame") {
            FrameEvent::Frame(payload, _) => payload,
            FrameEvent::Closed => panic!("server closed mid-script"),
        }
    }

    fn call(&mut self, req: &Request) -> Vec<u8> {
        self.send_payloads(vec![req.encode()]);
        self.recv()
    }
}

fn create_req(name: &str, backend: Backend, shard_bits: u32) -> Request {
    Request::Create {
        name: name.to_string(),
        backend,
        capacity: 10_000,
        eps: 1.0 / 128.0,
        shard_bits,
        seed: 0x5eed,
        blob: Vec::new(),
    }
}

fn blob_req(name: &str, backend: Backend, blob: Vec<u8>) -> Request {
    Request::Create {
        name: name.to_string(),
        backend,
        capacity: 0,
        eps: 0.0,
        shard_bits: 0,
        seed: 0,
        blob,
    }
}

/// The counters a scripted workload moves deterministically.
/// Latency, slow-request, and connection-lifecycle counters are
/// excluded: they depend on timing, not on what was served.
fn deterministic_counters(m: &ServerMetrics) -> [u64; 8] {
    [
        m.frames_received.get(),
        m.responses_sent.get(),
        m.protocol_errors.get(),
        m.error_responses.get(),
        m.keys_processed.get(),
        m.batched_ops.get(),
        m.bytes_in.get(),
        m.bytes_out.get(),
    ]
}

/// What one scripted run sent and saw.
struct ScriptRun {
    /// Every well-framed payload, in send order (one connection).
    sent: Vec<Vec<u8>>,
    /// The response to each, in the same order.
    responses: Vec<Vec<u8>>,
    /// The answer to an absurd length prefix on its own connection.
    oversized: Vec<u8>,
    /// Deterministic-counter delta over the script.
    delta: [u64; 8],
}

/// Run the scripted workload against a server. Counters are read
/// in-process, so the script's own frames are the only traffic.
fn equivalence_script(server: &EventedFilterServer) -> ScriptRun {
    let addr = server.local_addr();
    let counters = server.metrics();

    // Adversarial prologue: a peer that announces a frame, sends a
    // fragment, and vanishes. Detection is asynchronous, so it runs
    // before the baseline snapshot and is asserted as an absolute.
    {
        let mut rude = TcpStream::connect(addr).unwrap();
        rude.write_all(&512u32.to_le_bytes()).unwrap();
        rude.write_all(&[0x5a; 8]).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while counters.disconnects_mid_frame.get() < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        counters.disconnects_mid_frame.get(),
        1,
        "exactly one rude peer"
    );
    let base = deterministic_counters(counters);

    let keys = unique_keys(0xe2_4001, 4_000);
    let probes = disjoint_keys(0xe2_4002, 2_000, &keys);
    let all: Vec<u64> = keys.iter().chain(&probes).copied().collect();

    let mut out: Vec<Vec<u8>> = Vec::new();
    let mut c = RawConn::connect(addr);

    // CREATE one instance of every backend family.
    for (name, backend, bits) in [
        ("eq-b", Backend::AtomicBloom, 0),
        ("eq-c", Backend::ShardedCuckoo, 2),
        ("eq-q", Backend::ShardedCqf, 2),
        ("eq-r", Backend::RegisterBloom, 2),
        ("eq-t", Backend::TwoChoiceBloom, 2),
        ("eq-l", Backend::Compacting, 0),
    ] {
        let p = c.call(&create_req(name, backend, bits));
        out.push(p);
    }

    // Pipelined burst: 24 INSERT frames written back-to-back before
    // any response is read, drained as pipelined work. In-order
    // responses are part of the wire contract.
    let mut burst = Vec::new();
    for name in ["eq-b", "eq-c", "eq-q", "eq-r", "eq-t", "eq-l"] {
        for chunk in keys.chunks(1_000) {
            burst.push(
                Request::Insert {
                    name: name.to_string(),
                    keys: chunk.to_vec(),
                }
                .encode(),
            );
        }
    }
    c.send_payloads(burst);
    for _ in 0..24 {
        out.push(c.recv());
    }

    // Batched reads across every backend. The compacting backend is
    // probed with inserted keys only: its negative-probe answers
    // depend on background compaction timing and are the one part of
    // the state space that is deliberately not bit-stable.
    for name in ["eq-b", "eq-c", "eq-q", "eq-r", "eq-t"] {
        out.push(c.call(&Request::Contains {
            name: name.to_string(),
            keys: all.clone(),
        }));
    }
    out.push(c.call(&Request::Contains {
        name: "eq-l".to_string(),
        keys: keys.clone(),
    }));
    // MULTI_CONTAINS over inserted keys: every key was inserted into
    // all six filters, so the per-key name lists are exact and
    // bit-stable. Negative probes are excluded — a compacting-backend
    // false positive would depend on background compaction timing.
    out.push(c.call(&Request::MultiContains {
        keys: keys[..500].to_vec(),
    }));
    out.push(c.call(&Request::Count {
        name: "eq-q".to_string(),
        keys: keys[..500].to_vec(),
    }));
    out.push(c.call(&Request::Delete {
        name: "eq-c".to_string(),
        keys: keys[..500].to_vec(),
    }));

    // Error paths: every code the dispatcher can produce.
    out.push(c.call(&Request::Insert {
        name: "ghost".to_string(),
        keys: vec![1],
    }));
    out.push(c.call(&create_req("eq-b", Backend::AtomicBloom, 0)));
    out.push(c.call(&Request::Count {
        name: "eq-b".to_string(),
        keys: vec![1],
    }));
    out.push(c.call(&create_req("bad name", Backend::AtomicBloom, 0)));
    out.push(c.call(&blob_req(
        "eq-bad",
        Backend::ShardedCuckoo,
        vec![0xde, 0xad],
    )));
    out.push(c.call(&blob_req("eq-bad2", Backend::AtomicBloom, vec![1, 2, 3])));

    // Snapshot round-trip over the wire: SNAPSHOT → blob-CREATE →
    // identical answers under the new name.
    let blob_b = c.call(&Request::Snapshot {
        name: "eq-b".to_string(),
    });
    let blob_c = c.call(&Request::Snapshot {
        name: "eq-c".to_string(),
    });
    let unpack = |payload: &[u8], want: Backend| match Response::decode(payload).unwrap() {
        Response::Blob { backend, bytes } => {
            assert_eq!(backend, want);
            bytes
        }
        other => panic!("expected blob, got {other:?}"),
    };
    let (bloom_bytes, cuckoo_bytes) = (
        unpack(&blob_b, Backend::AtomicBloom),
        unpack(&blob_c, Backend::ShardedCuckoo),
    );
    out.push(blob_b);
    out.push(blob_c);
    out.push(c.call(&blob_req("eq-b2", Backend::AtomicBloom, bloom_bytes)));
    out.push(c.call(&blob_req("eq-c2", Backend::ShardedCuckoo, cuckoo_bytes)));
    for name in ["eq-b2", "eq-c2"] {
        out.push(c.call(&Request::Contains {
            name: name.to_string(),
            keys: all.clone(),
        }));
    }
    out.push(c.call(&Request::Forget {
        name: "eq-c".to_string(),
    }));
    let gone = c.call(&Request::Contains {
        name: "eq-c".to_string(),
        keys: vec![1],
    });
    match Response::decode(&gone).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::NoSuchFilter),
        other => panic!("expected NoSuchFilter, got {other:?}"),
    }
    out.push(gone);

    // A well-framed garbage payload: BadFrame answer, framing stays
    // in sync, connection survives.
    c.send_payloads(vec![vec![0u8; 16]]);
    out.push(c.recv());
    out.push(c.call(&Request::Contains {
        name: "eq-b".to_string(),
        keys: keys[..10].to_vec(),
    }));
    let sent = std::mem::take(&mut c.sent);
    drop(c);

    // An absurd length prefix on its own connection: answered with
    // BadFrame, counted, then closed. Reading the answer makes the
    // counting synchronous.
    let mut rude = RawConn::connect(addr);
    rude.stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
    let oversized = rude.recv();
    drop(rude);

    assert_eq!(counters.disconnects_mid_frame.get(), 1);
    let finals = deterministic_counters(counters);
    let mut delta = [0u64; 8];
    for i in 0..8 {
        delta[i] = finals[i] - base[i];
    }
    ScriptRun {
        sent,
        responses: out,
        oversized,
        delta,
    }
}

#[test]
fn wire_responses_match_in_process_dispatch() {
    let _serial = serial_multi_contains();
    let server = EventedFilterServer::bind("127.0.0.1:0", test_config()).expect("bind");
    let run = equivalence_script(&server);
    server.shutdown();

    // The oracle: a fresh engine fed the same payloads in order.
    let oracle = Engine::new(test_config());
    let expected: Vec<Vec<u8>> = run
        .sent
        .iter()
        .map(|p| dispatch(&oracle, p).0.encode())
        .collect();
    assert_eq!(run.responses.len(), expected.len(), "response count");
    for (i, (wire, want)) in run.responses.iter().zip(&expected).enumerate() {
        assert_eq!(wire, want, "response #{i} diverged from dispatch");
    }
    match Response::decode(&run.oversized).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadFrame),
        other => panic!("expected BadFrame for the oversized prefix, got {other:?}"),
    }

    // Counters: the transport counts frames, responses and bytes; the
    // engine counts keys and decode failures. The oversized prefix
    // adds one protocol error and one error response of its own.
    let o = oracle.metrics();
    let len = |v: &[Vec<u8>]| v.iter().map(|p| p.len() as u64).sum::<u64>();
    let errors = expected
        .iter()
        .filter(|r| matches!(Response::decode(r), Ok(Response::Error { .. })))
        .count() as u64;
    let want = [
        run.sent.len() as u64,
        run.sent.len() as u64 + 1,
        o.protocol_errors.get() + 1,
        errors + 1,
        o.keys_processed.get(),
        o.batched_ops.get(),
        len(&run.sent),
        len(&expected) + run.oversized.len() as u64,
    ];
    assert_eq!(
        run.delta, want,
        "deterministic counter delta diverged from dispatch \
         [frames, responses, proto_errs, err_responses, keys, batched, bytes_in, bytes_out]"
    );
}

// ===============================================================
// Slow-loris hardening: a peer dribbling a valid frame one byte at a
// time across many read timeouts is served; a peer that stalls past
// the idle deadline is evicted.
// ===============================================================

#[test]
fn byte_dribbled_frame_survives_read_timeouts() {
    let server = EventedFilterServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            read_timeout: Duration::from_millis(5),
            idle_timeout: Some(Duration::from_secs(10)),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut c = RawConn::connect(server.local_addr());
    let payload = Request::Stats.encode();
    let mut wire = Vec::new();
    wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    wire.extend_from_slice(&payload);
    // Each byte lands several read-timeout periods after the last:
    // the server sees WouldBlock over and over mid-frame and must
    // keep waiting, because bytes ARE arriving before the idle
    // deadline.
    for &b in &wire {
        c.stream.write_all(&[b]).unwrap();
        std::thread::sleep(Duration::from_millis(15));
    }
    match Response::decode(&c.recv()).unwrap() {
        Response::Stats(_) => assert!(server.metrics().frames_received.get() >= 1),
        other => panic!("expected stats answer to dribbled frame, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn idle_deadline_evicts_stalled_connections() {
    let server = EventedFilterServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            read_timeout: Duration::from_millis(5),
            idle_timeout: Some(Duration::from_millis(60)),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled.write_all(&[0x01, 0x02]).unwrap(); // partial prefix, then silence
    stalled
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut byte = [0u8; 1];
    // The server must close us: EOF or reset, never a response (we
    // never completed a frame) and never a 5s hang.
    let t0 = Instant::now();
    match stalled.read(&mut byte) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("server answered {n} bytes to an incomplete frame"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(4),
        "idle eviction did not happen before the read timeout"
    );
    // The server is still accepting and serving after eviction.
    let mut fresh = FilterClient::connect(addr).unwrap();
    assert!(fresh.stats().is_ok());
    server.shutdown();
}

// ===============================================================
// Cluster mode: consistent-hash routing across live servers, node
// add with shard migration, and node removal — the filter keeps
// answering correctly throughout.
// ===============================================================

#[test]
fn cluster_routes_and_migrates_across_live_servers() {
    let bind = |label: &str| {
        EventedFilterServer::bind("127.0.0.1:0", test_config())
            .unwrap_or_else(|e| panic!("bind {label}: {e}"))
    };
    let node_a = bind("a");
    let node_b = bind("b");
    let (addr_a, addr_b) = (node_a.local_addr(), node_b.local_addr());

    let mut cluster = ClusterClient::new(vec![addr_a, addr_b]).expect("cluster");

    // 24 filters across three backend families, each with its own
    // keyset. Ephemeral ports randomize the ring layout per run, so
    // assertions are about totals and invariants, not placements.
    let backends = [
        Backend::AtomicBloom,
        Backend::ShardedCuckoo,
        Backend::ShardedCqf,
    ];
    let mut keysets: Vec<(String, Vec<u64>)> = Vec::new();
    for i in 0..24 {
        let name = format!("shard-{i:02}");
        let keys = unique_keys(9_000 + i, 300);
        cluster
            .create(&name, backends[i as usize % 3], 5_000, 0.01, 1, 7 + i)
            .unwrap();
        cluster.insert(&name, &keys).unwrap();
        keysets.push((name, keys));
    }
    let verify_all = |cluster: &mut ClusterClient, keysets: &[(String, Vec<u64>)]| {
        for (name, keys) in keysets {
            assert!(
                cluster.contains(name, keys).unwrap().iter().all(|&b| b),
                "{name} lost keys"
            );
        }
    };
    verify_all(&mut cluster, &keysets);
    let all_stats = cluster.stats_all().unwrap();
    let total: usize = all_stats.values().map(|s| s.filters.len()).sum();
    assert_eq!(
        total,
        24,
        "every filter lives on exactly one node; layout: {:?}",
        all_stats
            .iter()
            .map(|(a, s)| (
                *a,
                s.filters.iter().map(|f| f.name.clone()).collect::<Vec<_>>()
            ))
            .collect::<Vec<_>>()
    );

    // Grow the cluster: only the arcs now owned by the new node move,
    // every migration lands on it, and nothing is lost.
    let node_c = bind("c");
    let addr_c = node_c.local_addr();
    let report = cluster.add_node(addr_c).expect("add node");
    assert_eq!(report.moved.len() + report.retained, 24);
    for m in &report.moved {
        assert_eq!(m.to, addr_c, "adds may only move filters TO the new node");
        assert_eq!(
            cluster.owner_addr(&m.name),
            addr_c,
            "moved filter must be owned by the new node"
        );
    }
    verify_all(&mut cluster, &keysets);
    // The migrated filters genuinely live on the new node (and were
    // forgotten at the source): the node's own registry lists them.
    let mut direct_c = FilterClient::connect(addr_c).unwrap();
    let on_c = direct_c.stats().unwrap();
    for m in &report.moved {
        assert!(
            on_c.filters.iter().any(|f| f.name == m.name),
            "{} not found on the new node",
            m.name
        );
    }
    let total: usize = cluster
        .stats_all()
        .unwrap()
        .values()
        .map(|s| s.filters.len())
        .sum();
    assert_eq!(total, 24, "migration must move, not copy");

    // Shrink the cluster: everything the departing node held is
    // re-homed, and the cluster still serves every filter.
    let report = cluster.remove_node(addr_a).expect("remove node");
    for m in &report.moved {
        assert_eq!(m.from, addr_a, "removes only move filters OFF the leaver");
    }
    assert_eq!(cluster.node_addrs(), vec![addr_b, addr_c]);
    verify_all(&mut cluster, &keysets);

    drop((cluster, direct_c));
    node_a.shutdown();
    node_b.shutdown();
    node_c.shutdown();
}

/// The cluster's MULTI_CONTAINS is the union of its nodes' own
/// answers: three live nodes, two filters of every backend, and a
/// same-name copy of one of them registered directly on a second
/// node, which the merge must name once.
#[test]
fn cluster_multi_contains_is_the_union_of_node_answers() {
    let _serial = serial_multi_contains();
    let nodes: Vec<EventedFilterServer> = (0..3)
        .map(|_| EventedFilterServer::bind("127.0.0.1:0", test_config()).expect("bind"))
        .collect();
    let addrs: Vec<SocketAddr> = nodes.iter().map(|n| n.local_addr()).collect();
    let mut cluster = ClusterClient::new(addrs.clone()).expect("cluster");
    // 200 keys stay inside the compacting filter's 1,024-key front, so
    // no background compaction moves its false positives between the
    // cluster's answer and the nodes' own.
    let mut filters: Vec<(String, Vec<u64>)> = Vec::new();
    for (i, &backend) in Backend::ALL.iter().cycle().take(12).enumerate() {
        let name = format!("union-{i:02}-{}", backend.name());
        cluster
            .create(&name, backend, 8_192, 0.01, 1, 60 + i as u64)
            .unwrap();
        let keys = unique_keys(970 + i as u64, 200);
        cluster.insert(&name, &keys).unwrap();
        filters.push((name, keys));
    }
    let replicated = filters[0].0.clone();
    let owner = cluster.owner_addr(&replicated);
    let (backend, blob) = FilterClient::connect(owner)
        .unwrap()
        .snapshot(&replicated)
        .unwrap();
    let second = *addrs.iter().find(|&&a| a != owner).unwrap();
    FilterClient::connect(second)
        .unwrap()
        .create_prebuilt(&replicated, backend, blob)
        .unwrap();

    let mut probes: Vec<u64> = filters.iter().flat_map(|(_, keys)| keys.clone()).collect();
    probes.extend(unique_keys(990, 500));
    let got = cluster
        .multi_contains(&probes)
        .expect("cluster MULTI_CONTAINS");
    let mut want: Vec<Vec<String>> = vec![Vec::new(); probes.len()];
    for &addr in &addrs {
        let own = FilterClient::connect(addr)
            .unwrap()
            .multi_contains(&probes)
            .unwrap();
        for (w, names) in want.iter_mut().zip(own) {
            w.extend(names);
        }
    }
    for w in &mut want {
        w.sort_unstable();
        w.dedup();
    }
    assert_eq!(
        got, want,
        "cluster answer = sorted, deduplicated node union"
    );
    let mut at = 0;
    for (name, keys) in &filters {
        for (key, names) in keys.iter().zip(&got[at..at + keys.len()]) {
            assert!(
                names.contains(name),
                "{name} holds {key:#x} but was not named"
            );
        }
        at += keys.len();
    }
    for names in &got {
        assert!(names.iter().filter(|n| **n == replicated).count() <= 1);
    }
    for names in &got[..filters[0].1.len()] {
        assert_eq!(names.iter().filter(|n| **n == replicated).count(), 1);
    }
    drop(cluster);
    for node in nodes {
        node.shutdown();
    }
}

/// A two-node cluster whose first node (in `ClusterClient::new` order)
/// fails a MULTI_CONTAINS: it refuses the frame (`max_frame` below the
/// request) or it has been shut down. The fan-out must return Err, and
/// must not leave the second node's reply unread: a CONTAINS routed to
/// the second node afterwards gets that filter's own Bools.
fn assert_no_stale_reply_after(first_config: ServerConfig, shut_down_first: bool) {
    let _serial = serial_multi_contains();
    let first = EventedFilterServer::bind("127.0.0.1:0", first_config).expect("bind first");
    let second = EventedFilterServer::bind("127.0.0.1:0", test_config()).expect("bind second");
    let mut cluster =
        ClusterClient::new(vec![first.local_addr(), second.local_addr()]).expect("cluster");
    let name = (0..)
        .map(|i| format!("solo-{i}"))
        .find(|n| cluster.owner_addr(n) == second.local_addr())
        .unwrap();
    cluster
        .create(&name, Backend::AtomicBloom, 10_000, 0.01, 0, 5)
        .unwrap();
    let keys = unique_keys(960, 256);
    cluster.insert(&name, &keys[..128]).unwrap();
    // Both connections are open and in step before the fault.
    assert_eq!(cluster.multi_contains(&keys[..4]).unwrap().len(), 4);
    let first = if shut_down_first {
        first.shutdown();
        None
    } else {
        Some(first)
    };
    assert!(
        cluster.multi_contains(&keys).is_err(),
        "the first node's failure must fail the fan-out"
    );
    let own = FilterClient::connect(second.local_addr())
        .unwrap()
        .contains(&name, &keys)
        .unwrap();
    assert_eq!(
        cluster
            .contains(&name, &keys)
            .expect("routed CONTAINS after the failed fan-out"),
        own
    );
    drop(cluster);
    if let Some(first) = first {
        first.shutdown();
    }
    second.shutdown();
}

#[test]
fn failed_fan_out_leaves_no_stale_reply_when_a_node_refuses_the_frame() {
    // 256 keys need a ~2 KiB frame; the first node takes at most 512
    // bytes, answers BadFrame and closes.
    let small = ServerConfig {
        max_frame: 512,
        ..test_config()
    };
    assert_no_stale_reply_after(small, false);
}

#[test]
fn failed_fan_out_leaves_no_stale_reply_when_a_node_is_down() {
    assert_no_stale_reply_after(test_config(), true);
}

// ===============================================================
// Distributed tracing: one traced probe at the cluster client must
// assemble into a single cross-process trace spanning client
// routing, both servers, engine dispatch, the Bloofi
// scan — and, when the traced insert seals a memtable, a span
// linked to the background compaction that drains it.
// ===============================================================

/// Validate Chrome `trace_event` JSON: an object with a
/// `traceEvents` array of well-formed events, every complete event
/// tagged with our trace id, and (when a linked span exists) a
/// flow-arrow `s`/`f` pair.
fn check_chrome_json(json_text: &str, trace_id: u64, expect_flow: bool) {
    use beyond_bloom::telemetry::trace::json::{self, Json};
    let doc = json::parse(json_text)
        .unwrap_or_else(|e| panic!("chrome JSON failed to parse: {e}\n---\n{json_text}"));
    let events = doc
        .get("traceEvents")
        .and_then(Json::items)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "no trace events rendered");
    let (mut complete, mut starts, mut finishes) = (0, 0, 0);
    for ev in events {
        let ph = match ev.get("ph") {
            Some(Json::Str(s)) => s.as_str(),
            other => panic!("event missing ph: {other:?}"),
        };
        for field in ["name", "ts", "pid", "tid"] {
            assert!(ev.get(field).is_some(), "event missing {field}");
        }
        match ph {
            "X" => {
                complete += 1;
                assert!(ev.get("dur").is_some(), "complete event missing dur");
                let args = ev.get("args").expect("complete event args");
                match args.get("trace_id") {
                    Some(Json::Str(s)) => {
                        assert_eq!(s, &format!("{trace_id:016x}"), "foreign trace id")
                    }
                    other => panic!("args.trace_id missing: {other:?}"),
                }
            }
            "s" => starts += 1,
            "f" => finishes += 1,
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert!(complete >= 6, "only {complete} complete events");
    if expect_flow {
        assert!(
            starts >= 1 && finishes >= 1,
            "linked span must render a flow pair (s={starts}, f={finishes})"
        );
    }
}

#[test]
fn trace_route_assembles_one_cross_process_trace() {
    let _serial = serial_multi_contains();
    let node_a = EventedFilterServer::bind("127.0.0.1:0", test_config()).expect("bind a");
    let node_b = EventedFilterServer::bind("127.0.0.1:0", test_config()).expect("bind b");
    let (addr_a, addr_b) = (node_a.local_addr(), node_b.local_addr());
    let mut cluster = ClusterClient::new(vec![addr_a, addr_b]).expect("cluster");

    // A few plain filters so the Bloofi scan has tenants to test,
    // plus a compacting filter primed one key short of a seal: its
    // memtable holds 1/16 of capacity floored at 1024 keys, so 1023
    // inserts leave the traced insert to tip it over.
    for i in 0..6u64 {
        let name = format!("tr-{i}");
        cluster
            .create(&name, Backend::AtomicBloom, 5_000, 0.01, 0, 40 + i)
            .unwrap();
        cluster.insert(&name, &unique_keys(7_700 + i, 200)).unwrap();
    }
    cluster
        .create("tr-lsm", Backend::Compacting, 2_000, 0.01, 0, 99)
        .unwrap();
    cluster
        .insert("tr-lsm", &unique_keys(7_790, 1_023))
        .unwrap();

    // ---- Phase 1: a plain traced probe assembles end to end, and
    // collecting it leaves every other trace where it was. ----
    let store = trace::store();
    let bystander = {
        let root = trace::begin_forced("test:bystander");
        let trace_id = root.trace_id();
        root.finish(Duration::ZERO, false, false);
        trace_id
    };
    let trace = cluster.trace_route(0xfee1_600d).expect("trace_route");
    assert_ne!(trace.trace_id, 0);
    assert!(
        !store.peek_spans(bystander).is_empty(),
        "collecting one trace drained another"
    );
    assert_eq!(store.take(bystander).len(), 1);
    assert!(
        trace.spans.len() >= 6,
        "expected >= 6 spans, got {}: {:?}",
        trace.spans.len(),
        trace
            .spans
            .iter()
            .map(|s| s.name.clone())
            .collect::<Vec<_>>()
    );
    assert!(trace.spans.iter().all(|s| s.trace_id == trace.trace_id));
    // Exactly one root (the forced cluster-client span).
    let roots: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.parent_id == 0 && s.link_id == 0)
        .collect();
    assert_eq!(roots.len(), 1, "one root span, got {roots:?}");
    assert_eq!(roots[0].name, "cluster:trace_route");
    // Every edge resolves inside the trace: parents for the in-band
    // tree, links for background handoffs.
    let ids: std::collections::HashSet<u64> = trace.spans.iter().map(|s| s.span_id).collect();
    for s in &trace.spans {
        if s.parent_id != 0 {
            assert!(ids.contains(&s.parent_id), "dangling parent on {s:?}");
        }
        if s.link_id != 0 {
            assert!(ids.contains(&s.link_id), "dangling link on {s:?}");
        }
    }
    let count = |name: &str| trace.spans.iter().filter(|s| s.name == name).count();
    // One server-side request span per node, each parented onto the
    // client's root (the cross-process edge the wire context exists
    // for).
    assert_eq!(count("server:request"), 2);
    for s in trace.spans.iter().filter(|s| s.name == "server:request") {
        assert_eq!(
            s.parent_id, roots[0].span_id,
            "server span must parent onto the client root: {s:?}"
        );
    }
    // Engine and index layers reported under each server request.
    assert_eq!(count("engine:multi_contains"), 2);
    assert!(count("bloofi:scan") >= 2, "scan span per node");
    let scan = trace
        .spans
        .iter()
        .find(|s| s.name == "bloofi:scan" && s.b > 0)
        .expect("a non-trivial scan (words counted)");
    assert!(scan.a >= 1, "scan records tenants");

    // ---- Phase 2: any cluster call under a forced root is traced on
    // every node it reaches; an insert that seals links the
    // background compaction into the same trace. ----
    let root = trace::begin_forced("test:insert_and_probe");
    let trace_id = root.trace_id();
    assert_ne!(trace_id, 0);
    cluster
        .insert("tr-lsm", &[0x5ea1_ab1e])
        .expect("traced insert");
    cluster
        .multi_contains(&[0x5ea1_ab1e])
        .expect("traced probe");
    root.finish(Duration::ZERO, false, false);
    // All servers run in-process, so the shared trace store lets the
    // test wait (without draining) for the compactor's linked span
    // before collection drains the trace.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !store
        .peek_spans(trace_id)
        .iter()
        .any(|s| s.name == "compacting:compact")
    {
        assert!(
            Instant::now() < deadline,
            "compaction span never linked; spans so far: {:?}",
            store.peek_spans(trace_id)
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let trace2 = cluster.collect_trace(trace_id).expect("collect");
    assert_ne!(
        trace2.trace_id, trace.trace_id,
        "fresh trace id per request"
    );
    assert_eq!(
        trace2
            .spans
            .iter()
            .filter(|s| s.name == "server:request")
            .count(),
        3,
        "the INSERT on its owner and the MULTI_CONTAINS on both nodes"
    );
    let ids2: std::collections::HashSet<u64> = trace2.spans.iter().map(|s| s.span_id).collect();
    let compact = trace2
        .spans
        .iter()
        .find(|s| s.name == "compacting:compact")
        .expect("linked compaction span");
    assert_eq!(compact.parent_id, 0, "background span links, not parents");
    assert!(
        ids2.contains(&compact.link_id),
        "compaction must link back to the sealing request's span"
    );
    assert!(compact.b >= 1, "compaction annotates resulting tier count");
    assert!(
        trace2.spans.iter().any(|s| s.name == "engine:insert"),
        "the traced INSERT recorded its engine span"
    );

    // ---- Phase 3: the merged trace renders as Chrome trace_event
    // JSON (loadable in about:tracing / Perfetto). ----
    let json_text = trace::chrome_trace_json(std::slice::from_ref(&trace2));
    check_chrome_json(&json_text, trace2.trace_id, true);

    drop(cluster);
    node_a.shutdown();
    node_b.shutdown();
}
