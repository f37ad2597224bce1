//! Cluster quickstart: three event-driven filter servers, a
//! consistent-hash cluster client routing named filters across them,
//! a live node join with shard migration, a node leaving with its
//! filters re-homed, and a cluster-wide MULTI_CONTAINS.
//!
//! ```text
//! cargo run --release --example cluster_quickstart
//! ```

use beyond_bloom::service::{
    Backend, ClusterClient, EventedFilterServer, FilterClient, ServerConfig,
};
use beyond_bloom::workloads::unique_keys;

fn main() {
    // Two nodes to start. The evented server multiplexes every
    // connection over one readiness loop (epoll on linux, a portable
    // poll fallback elsewhere).
    let node_a = EventedFilterServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind a");
    let node_b = EventedFilterServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind b");
    println!(
        "cluster nodes: {} {}",
        node_a.local_addr(),
        node_b.local_addr()
    );

    // The cluster client owns the ring: each filter name hashes to an
    // arc, the arc's owner serves every request for that name.
    let mut cluster =
        ClusterClient::new(vec![node_a.local_addr(), node_b.local_addr()]).expect("cluster");
    for i in 0..8 {
        let name = format!("tenant-{i}");
        cluster
            .create(&name, Backend::ShardedCuckoo, 50_000, 0.01, 2, 7 + i)
            .expect("create");
        cluster
            .insert(&name, &unique_keys(100 + i, 10_000))
            .expect("insert");
        println!("{name:>9} -> {}", cluster.owner_addr(&name));
    }

    // A third node joins: only the filters whose hash arcs now belong
    // to it are migrated (snapshot -> blob-CREATE -> forget); the
    // rest are not even re-read.
    let node_c = EventedFilterServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind c");
    let report = cluster.add_node(node_c.local_addr()).expect("add node");
    println!(
        "\nnode {} joined: {} filters migrated, {} untouched",
        node_c.local_addr(),
        report.moved.len(),
        report.retained
    );
    for m in &report.moved {
        println!("  {} moved {} -> {}", m.name, m.from, m.to);
    }

    // Every filter still answers through the ring after migration.
    let keys = unique_keys(100, 10_000);
    let hits = cluster
        .contains("tenant-0", &keys)
        .expect("contains")
        .iter()
        .filter(|&&b| b)
        .count();
    println!(
        "\ntenant-0 after rebalance: {hits}/{} keys answered present",
        keys.len()
    );

    // The first node leaves: everything it held moves to the ring's
    // remaining owners before it drops out, so it is left empty.
    let leaver = node_a.local_addr();
    let report = cluster.remove_node(leaver).expect("remove node");
    println!(
        "\nnode {leaver} left: {} filters migrated off it",
        report.moved.len()
    );
    for m in &report.moved {
        println!("  {} moved {} -> {}", m.name, m.from, m.to);
    }
    let mut direct = FilterClient::connect(leaver).expect("connect leaver");
    let left_behind = direct.stats().expect("stats").filters.len();
    assert_eq!(left_behind, 0, "a departed node keeps no filter");
    let hits = cluster
        .contains("tenant-0", &keys)
        .expect("contains")
        .iter()
        .filter(|&&b| b)
        .count();
    println!(
        "tenant-0 after the leave: {hits}/{} keys answered present",
        keys.len()
    );

    // Which tenants hold these keys? MULTI_CONTAINS asks every node at
    // once and merges their answers; each tenant lives on one node, so
    // tenant-0 is listed once.
    let lists = cluster.multi_contains(&keys[..4]).expect("multi_contains");
    println!("\ncluster-wide MULTI_CONTAINS:");
    for (key, names) in keys.iter().zip(&lists) {
        println!("  {key:#018x} -> {}", names.join(", "));
        let listed = names.iter().filter(|n| *n == "tenant-0").count();
        assert_eq!(listed, 1, "tenant-0 must be listed exactly once");
    }

    drop((cluster, direct));
    node_a.shutdown();
    node_b.shutdown();
    node_c.shutdown();
    println!("\nall nodes drained");
}
