//! Live filter dashboard: drive the filter service with a skewed
//! workload while a scrape loop periodically fetches the METRICS
//! frame (Prometheus text), parses it with `telemetry::expo`, and
//! renders a plain-text dashboard — the minimum viable Grafana.
//!
//! The point being demonstrated: everything on screen comes out of
//! one wire opcode. Request rates and latency quantiles from the
//! server families, kick-chain and cluster-length behaviour from the
//! filter-crate families, per-shard load skew from the inventory
//! gauges, and the slow-request log from the trailing comment lines.
//!
//! ```text
//! cargo run --release --example filter_dashboard
//! ```

use beyond_bloom::service::{Backend, EventedFilterServer, FilterClient, ServerConfig};
use beyond_bloom::telemetry::expo::{self, Exposition};
use beyond_bloom::workloads::zipf::{rank_to_key, Zipf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TICKS: usize = 6;
const SCRAPE_EVERY: Duration = Duration::from_millis(400);
const DISTINCT: u64 = 200_000;
const BATCH: usize = 1024;

/// One dashboard frame rendered from a parsed exposition.
fn render(tick: usize, dt: f64, prev_keys: f64, expo: &Exposition, text: &str) -> f64 {
    let keys = expo.value("bb_server_keys_processed_total").unwrap_or(0.0);
    let reqs = expo.value("bb_server_frames_received_total").unwrap_or(0.0);
    let p50 = expo
        .histogram_quantile("bb_server_request_latency_ns", 0.50)
        .unwrap_or(0.0);
    let p99 = expo
        .histogram_quantile("bb_server_request_latency_ns", 0.99)
        .unwrap_or(0.0);
    let kick_p99 = expo
        .histogram_quantile("bb_cuckoo_kick_chain_length", 0.99)
        .unwrap_or(0.0);
    let cqf_expands = expo.value("bb_cqf_expansions_total").unwrap_or(0.0);
    let slow = expo.value("bb_server_slow_requests_total").unwrap_or(0.0);

    println!(
        "tick {tick}  |  {:>8.0} keys/s  {:>6.0} reqs total  \
         lat p50≤{:>6.1}us p99≤{:>7.1}us  |  kick-chain p99≤{:>3.0}  \
         cqf expansions {:>2.0}  slow reqs {:>3.0}",
        (keys - prev_keys) / dt,
        reqs,
        p50 / 1e3,
        p99 / 1e3,
        kick_p99,
        cqf_expands,
        slow,
    );

    // Per-shard load skew for the hottest filter: Zipf keys hash to
    // shards uniformly, so ops stay balanced even when keys are not.
    let hot: Vec<&expo::Family> = expo
        .family("bb_filter_shard_ops_total")
        .into_iter()
        .collect();
    for fam in hot {
        let mut ops: Vec<(&str, f64)> = fam
            .samples
            .iter()
            .filter(|s| s.labels.contains("hot"))
            .map(|s| (s.labels.as_str(), s.value))
            .collect();
        if ops.is_empty() {
            continue;
        }
        ops.sort_by(|a, b| b.1.total_cmp(&a.1));
        let total: f64 = ops.iter().map(|(_, v)| v).sum();
        let spark: String = ops
            .iter()
            .map(|(_, v)| {
                let frac = v / total.max(1.0);
                match (frac * 24.0) as u32 {
                    0 => '.',
                    1..=2 => ':',
                    3..=4 => '|',
                    _ => '#',
                }
            })
            .collect();
        println!("        shard ops ('hot', busiest→idlest): [{spark}]");
    }

    // The slow-request log rides along as comment lines.
    for line in text.lines().filter(|l| l.starts_with("# slow ")).take(2) {
        println!("        {line}");
    }
    keys
}

fn main() {
    // A 200us threshold on loopback batches yields a sparse, real
    // slow log rather than an empty or saturated one.
    let server = EventedFilterServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            slow_request_threshold: Duration::from_micros(200),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    println!("filter service on {addr}; scraping METRICS every {SCRAPE_EVERY:?}\n");

    let mut admin = FilterClient::connect(addr).expect("connect");
    admin
        .create("hot", Backend::ShardedCuckoo, 300_000, 0.01, 3, 7)
        .expect("create hot");
    admin
        .create("cold", Backend::ShardedCqf, 100_000, 0.01, 3, 8)
        .expect("create cold");

    // Load generator: a unique insert stream (a cuckoo filter holds
    // only a few copies of any one fingerprint, so duplicate-heavy
    // inserts would hit its eviction limit) probed by Zipf(1.1)
    // membership queries skewed toward the earliest-inserted ranks —
    // mostly hits, warming with time. A trickle of fresh keys feeds
    // the auto-expanding CQF past its initial capacity.
    let stop = Arc::new(AtomicBool::new(false));
    let loader = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut c = FilterClient::connect(addr).expect("loader connect");
            let zipf = Zipf::new(DISTINCT, 1.1);
            let mut rng = beyond_bloom::workloads::rng(99);
            let mut next_rank = 0u64;
            let mut cold_key = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if next_rank < DISTINCT {
                    let fresh: Vec<u64> = (0..BATCH as u64)
                        .map(|i| rank_to_key(next_rank + i + 1, 3))
                        .collect();
                    next_rank += BATCH as u64;
                    c.insert("hot", &fresh).expect("insert hot");
                }
                let probes: Vec<u64> = (0..BATCH)
                    .map(|_| rank_to_key(zipf.sample(&mut rng), 3))
                    .collect();
                let _ = c.contains("hot", &probes).expect("contains hot");
                let trickle: Vec<u64> = (0..BATCH / 4)
                    .map(|_| {
                        cold_key += 1;
                        cold_key
                    })
                    .collect();
                c.insert("cold", &trickle).expect("insert cold");
            }
        })
    };

    let mut prev_keys = 0.0;
    let mut last = Instant::now();
    for tick in 1..=TICKS {
        std::thread::sleep(SCRAPE_EVERY);
        let text = admin.metrics_text().expect("metrics");
        let parsed = expo::parse(&text).expect("valid exposition");
        let dt = last.elapsed().as_secs_f64();
        last = Instant::now();
        prev_keys = render(tick, dt, prev_keys, &parsed, &text);
    }

    stop.store(true, Ordering::Relaxed);
    loader.join().expect("loader");
    drop(admin);
    server.shutdown();
    println!("\nserver drained and shut down cleanly");
}
