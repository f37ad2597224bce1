//! Filter-as-a-service quickstart: start a server on an ephemeral
//! loopback port, create a Bloom instance over the wire, load it with
//! a malicious-URL blocklist from the `workloads::urls` generator,
//! query a mixed stream, read back the server's filter inventory
//! (STATS), and read its counters in place.
//!
//! ```text
//! cargo run --release --example filter_service
//! ```

use beyond_bloom::core::hash::hash_bytes;
use beyond_bloom::service::{Backend, EventedFilterServer, FilterClient, ServerConfig};
use beyond_bloom::workloads::urls::UrlWorkload;

/// URLs are strings; the wire protocol carries `u64` keys, so client
/// and server agree on a keying hash applied before the filter ever
/// sees the data (the usual deployment split).
fn url_key(url: &str) -> u64 {
    hash_bytes(0xb10c_11f7, url.as_bytes())
}

fn main() {
    let server = EventedFilterServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    println!("filter server listening on {addr}");

    let w = UrlWorkload::generate(42, 20_000, 500, 5_000);
    let mut client = FilterClient::connect(addr).expect("connect");

    client
        .create("blocklist", Backend::AtomicBloom, 20_000, 0.001, 0, 42)
        .expect("create");
    let blocklist: Vec<u64> = w.malicious.iter().map(|u| url_key(u)).collect();
    for chunk in blocklist.chunks(4096) {
        client.insert("blocklist", chunk).expect("insert");
    }
    println!("loaded {} malicious URLs into 'blocklist'", blocklist.len());

    let stream = w.query_stream(43, 50_000, 0.7);
    let keys: Vec<u64> = stream.iter().map(|(u, _)| url_key(u)).collect();
    let mut blocked = 0usize;
    let mut false_positives = 0usize;
    for (batch, truth) in keys.chunks(1024).zip(stream.chunks(1024)) {
        let verdicts = client.contains("blocklist", batch).expect("contains");
        for (hit, (_, is_malicious)) in verdicts.iter().zip(truth) {
            blocked += *hit as usize;
            false_positives += (*hit && !is_malicious) as usize;
        }
    }
    println!(
        "queried {} URLs in batches of 1024: {blocked} blocked, \
         {false_positives} false positives (target eps 0.001)",
        stream.len()
    );

    let stats = client.stats().expect("stats");
    println!("\nSTATS from the server:");
    for f in &stats.filters {
        println!(
            "  {} [{}]  ~{} keys, {} bytes",
            f.name,
            f.backend.name(),
            f.len,
            f.size_in_bytes
        );
    }
    // The server runs in this process, so its counters (the
    // `bb_server_*` METRICS families) are read in place.
    let m = server.metrics();
    println!(
        "  {} frames in, {} responses out, {} keys processed",
        m.frames_received.get(),
        m.responses_sent.get(),
        m.keys_processed.get()
    );
    let latency = m.request_latency.snapshot();
    println!(
        "  server-side request latency: p50 ≤ {:.1} us, p99 ≤ {:.1} us",
        latency.quantile_ns(0.50) as f64 / 1e3,
        latency.quantile_ns(0.99) as f64 / 1e3
    );

    drop(client);
    server.shutdown();
    println!("\nserver drained and shut down cleanly");
}
