//! E19: filter-as-a-service — wire throughput and latency vs batch
//! size.
//!
//! The tutorial frames feature-rich filters as infrastructure for
//! systems (storage engines, caches, networks) that often consume a
//! filter across a process boundary. Once a network hop is involved,
//! the dominant cost is no longer the filter probe (~100 ns) but the
//! round trip (~10-100 µs even on loopback), and the batch size of a
//! request becomes the lever that amortises it — the same
//! batch-lookup framing the xor-filter line of work uses for cache
//! misses, applied to RTTs.
//!
//! This experiment starts an in-process [`service::EventedFilterServer`] on
//! an ephemeral loopback port, creates one instance of each backend,
//! preloads Zipf-distributed keys, and drives closed-loop CONTAINS
//! traffic from client threads at batch sizes 1/16/256, reporting
//! requests/s, keys/s, and client-observed p50/p99 request latency.
//!
//! Caveats printed with the results: on a single-core host the server
//! and clients time-share, so absolute numbers understate a real
//! deployment; and the p50/p99 columns are upper bounds from
//! power-of-two histogram buckets (the service's own metrics
//! resolution). The *shape* — keys/s rising roughly linearly with
//! batch size while per-request latency grows far slower — is the
//! claim under test.

use super::header;
use service::{
    Backend, EventedFilterServer, FilterClient, HistogramSnapshot, LatencyHistogram, ServerConfig,
};
use std::time::{Duration, Instant};
use workloads::{rank_to_key, zipf_keys};

const CAPACITY: u64 = 200_000;
const EPS: f64 = 1.0 / 256.0;
const SEED: u64 = 0xe19;
const ZIPF_S: f64 = 1.1;
const THREADS: usize = 2;
const BATCHES: [usize; 3] = [1, 16, 256];
const MEASURE: Duration = Duration::from_millis(400);

/// Closed-loop CONTAINS from `THREADS` clients; returns (requests,
/// keys, merged latency histogram).
fn drive(addr: std::net::SocketAddr, name: &str, batch: usize) -> (u64, u64, HistogramSnapshot) {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                s.spawn(move || {
                    let mut client = FilterClient::connect(addr).expect("connect");
                    // Per-thread deterministic Zipfian query stream,
                    // long enough that wraparound reuse is harmless.
                    let stream = zipf_keys(9_000 + t as u64, CAPACITY, ZIPF_S, SEED, 1 << 14);
                    let hist = LatencyHistogram::new();
                    let (mut reqs, mut keys, mut pos) = (0u64, 0u64, 0usize);
                    let t0 = Instant::now();
                    while t0.elapsed() < MEASURE {
                        if pos + batch > stream.len() {
                            pos = 0;
                        }
                        let chunk = &stream[pos..pos + batch];
                        pos += batch;
                        let q0 = Instant::now();
                        let got = client.contains(name, chunk).expect("contains");
                        hist.record(q0.elapsed());
                        std::hint::black_box(got);
                        reqs += 1;
                        keys += batch as u64;
                    }
                    (reqs, keys, hist.snapshot())
                })
            })
            .collect();
        let mut total = (0u64, 0u64, HistogramSnapshot::default());
        for h in handles {
            let (r, k, snap) = h.join().expect("client thread");
            total.0 += r;
            total.1 += k;
            total.2.merge(&snap);
        }
        total
    })
}

/// E19: ops/s and p50/p99 versus request batch size over the wire.
pub fn e19_service() -> bool {
    header(
        "E19 — filter service: throughput and latency vs batch size",
        "batching amortises the network round trip that dominates remote filter queries",
    );
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "hardware parallelism: {cores} ({THREADS} client threads + one server loop per core \
         time-share the cores; absolute numbers understate a real deployment)"
    );
    println!("latency columns are power-of-two-bucket upper bounds (service metrics resolution)\n");

    let server = EventedFilterServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr();

    let mut setup = FilterClient::connect(addr).expect("connect");
    let backends = [
        ("bloom", Backend::AtomicBloom),
        ("cuckoo", Backend::ShardedCuckoo),
        ("cqf", Backend::ShardedCqf),
    ];
    // Preload the hot half of the key universe (Zipf rank ↔ key via
    // the same salt the query streams use): distinct inserts — the
    // cuckoo backend, like any fingerprint filter, treats duplicate
    // inserts as new occupancy — with most query mass landing on
    // present keys.
    let preload: Vec<u64> = (1..=CAPACITY / 2).map(|r| rank_to_key(r, SEED)).collect();
    for (name, backend) in backends {
        setup
            .create(name, backend, CAPACITY, EPS, 4, SEED)
            .expect("create");
        for chunk in preload.chunks(4096) {
            setup.insert(name, chunk).expect("preload");
        }
    }

    for (name, backend) in backends {
        println!("{name} ({})", backend.name());
        println!("  batch   requests/s      keys/s   p50 (us)   p99 (us)");
        for batch in BATCHES {
            let (reqs, keys, hist) = drive(addr, name, batch);
            let secs = MEASURE.as_secs_f64();
            println!(
                "  {batch:>5}   {:>10.0}   {:>9.0}   {:>8.1}   {:>8.1}",
                reqs as f64 / secs,
                keys as f64 / secs,
                hist.quantile_ns(0.50) as f64 / 1e3,
                hist.quantile_ns(0.99) as f64 / 1e3,
            );
        }
        println!();
    }

    // The server runs in this process, so its counters are read in
    // place; every client has had its last answer, so they are final.
    let m = server.metrics();
    println!(
        "server totals: {} frames, {} keys, {} protocol errors, served p99 {:.1} us",
        m.frames_received.get(),
        m.keys_processed.get(),
        m.protocol_errors.get(),
        m.request_latency.snapshot().quantile_ns(0.99) as f64 / 1e3,
    );
    drop(setup);
    server.shutdown();
    true
}
