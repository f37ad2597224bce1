//! Distributed-trace viewer: trace one routed request across a
//! two-node cluster and emit the assembled cross-process trace as
//! Chrome `trace_event` JSON — open the file in `about:tracing` or
//! https://ui.perfetto.dev to see the client's root span and each
//! node's request, dispatch and engine spans on one timeline.
//!
//! ```text
//! cargo run --release --example trace_viewer > trace.json
//! ```

use beyond_bloom::service::{Backend, ClusterClient, EventedFilterServer, ServerConfig};
use beyond_bloom::telemetry::trace::chrome_trace_json;
use beyond_bloom::workloads::unique_keys;

fn main() {
    // Two in-process nodes; nothing here depends on the transport —
    // the trace context rides the frame header either way.
    let node_a = EventedFilterServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind a");
    let node_b = EventedFilterServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind b");
    let mut cluster =
        ClusterClient::new(vec![node_a.local_addr(), node_b.local_addr()]).expect("cluster");

    // A few tenants so the traced MULTI_CONTAINS has a registry (and
    // a Bloofi index) to scan on every node.
    let keys = unique_keys(42, 10_000);
    for i in 0..4 {
        let name = format!("tenant-{i}");
        cluster
            .create(&name, Backend::ShardedCuckoo, 50_000, 0.01, 2, 7 + i)
            .expect("create");
        cluster.insert(&name, &keys).expect("insert");
    }

    // Trace one routed request: the client opens a forced root span
    // around an ordinary cluster-wide MULTI_CONTAINS, every frame it
    // sends carries the trace context, each server records its
    // dispatch and engine spans under that context, and `trace_route`
    // drains this one trace from the local and per-node stores and
    // merges it into one cross-process trace.
    let trace = cluster.trace_route(keys[0]).expect("trace_route");
    eprintln!(
        "assembled trace {:#018x}: {} spans across {} processes/threads",
        trace.trace_id,
        trace.spans.len(),
        {
            let mut tids: Vec<_> = trace.spans.iter().map(|s| (s.pid, s.tid)).collect();
            tids.sort_unstable();
            tids.dedup();
            tids.len()
        }
    );
    for s in &trace.spans {
        eprintln!(
            "  {:<26} span={:#010x} parent={:#010x} {:>7}us",
            s.name, s.span_id, s.parent_id, s.dur_us
        );
    }

    // Chrome trace_event JSON on stdout; redirect to a file and load
    // it in a trace viewer.
    println!("{}", chrome_trace_json(&[trace]));
}
