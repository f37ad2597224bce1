//! E24: event-driven server core — throughput and tail latency vs
//! connection count, and consistent-hash cluster scaling vs process
//! count.
//!
//! The tutorial's deployment story (filters consumed across a process
//! boundary) meets the classic C10K question here: a thread-per-
//! connection server spends its budget on stacks and context switches
//! as connections grow, while the readiness-loop server multiplexes
//! every connection over one loop per core and drains pipelined
//! frames in bursts, so its throughput should hold as C grows:
//!
//! 1. **Connections sweep** — closed-loop CONTAINS traffic over C
//!    concurrent connections (one outstanding request each,
//!    multiplexed by a small driver pool), C ∈ {16, 256, 1024}.
//!    Reports requests/s, keys/s, and client-observed p99 per tier,
//!    and checks that the server drains cleanly after each.
//! 2. **Cluster sweep** — N separate server *processes* (spawned from
//!    this binary's `serve` mode), N ∈ {1, 2, 4}, fronted by
//!    [`service::ClusterClient`] consistent-hash routing over 16
//!    named filters; closed-loop batched CONTAINS reports keys/s and
//!    p99 per process count.
//!
//! Environment:
//! - `E24_QUICK=1` caps the tiers (C ∈ {8, 32}, N ∈ {1, 2}) and
//!   shrinks the preload so the experiment finishes in seconds.
//! - `E24_ASSERT=1` prints an `e24 gate: PASS`/`FAIL` line asserting
//!   clean drains at every tier and keys/s at the highest connection
//!   tier at least 0.5× the lowest tier's.
//!
//! Caveat printed with the results: client drivers and servers
//! time-share the same cores, so absolute numbers understate a real
//! deployment; the *shape* across tiers is the claim under test.

use super::header;
use service::proto::{write_frame, FrameEvent, FrameReader, Request};
use service::{
    Backend, ClusterClient, EventedFilterServer, FilterClient, HistogramSnapshot, LatencyHistogram,
    ServerConfig, DEFAULT_MAX_FRAME,
};
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use workloads::unique_keys;

const EPS: f64 = 1.0 / 256.0;
const SEED: u64 = 0xe24;
const BATCH: usize = 64;
const DRIVER_THREADS: usize = 2;

fn quick() -> bool {
    std::env::var_os("E24_QUICK").is_some()
}

fn measure_window() -> Duration {
    if quick() {
        Duration::from_millis(150)
    } else {
        Duration::from_millis(400)
    }
}

/// One multiplexed connection: a raw stream plus its frame reader and
/// the send timestamp of the in-flight request.
struct Mux {
    stream: TcpStream,
    reader: FrameReader<TcpStream>,
    sent_at: Instant,
}

fn mux_connect(addr: SocketAddr) -> Mux {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let reader = FrameReader::new(stream.try_clone().expect("clone"), DEFAULT_MAX_FRAME);
    Mux {
        stream,
        reader,
        sent_at: Instant::now(),
    }
}

/// Closed-loop CONTAINS over `conns` concurrent connections (one
/// outstanding request each), multiplexed across a small driver pool:
/// each round sends on every connection, then reaps every response in
/// order. Returns (requests, keys, merged latency histogram).
fn drive(
    addr: SocketAddr,
    name: &str,
    conns: usize,
    keys: &[u64],
) -> (u64, u64, HistogramSnapshot) {
    let window = measure_window();
    let threads = DRIVER_THREADS.min(conns);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                // Split the connections across drivers; remainders go
                // to the earlier threads.
                let mine = conns / threads + usize::from(t < conns % threads);
                s.spawn(move || {
                    let mut muxes: Vec<Mux> = (0..mine).map(|_| mux_connect(addr)).collect();
                    let hist = LatencyHistogram::new();
                    let (mut reqs, mut nkeys, mut pos) = (0u64, 0u64, t * 131);
                    let t0 = Instant::now();
                    while t0.elapsed() < window {
                        for m in &mut muxes {
                            if pos + BATCH > keys.len() {
                                pos = 0;
                            }
                            let req = Request::Contains {
                                name: name.to_string(),
                                keys: keys[pos..pos + BATCH].to_vec(),
                            };
                            pos += BATCH;
                            m.sent_at = Instant::now();
                            write_frame(&mut m.stream, &req.encode()).expect("send");
                        }
                        for m in &mut muxes {
                            match m.reader.read_frame().expect("read") {
                                FrameEvent::Frame(p, _) => {
                                    hist.record(m.sent_at.elapsed());
                                    std::hint::black_box(p);
                                }
                                FrameEvent::Closed => panic!("server closed mid-drive"),
                            }
                        }
                        reqs += muxes.len() as u64;
                        nkeys += (muxes.len() * BATCH) as u64;
                    }
                    (reqs, nkeys, hist.snapshot())
                })
            })
            .collect();
        let mut total = (0u64, 0u64, HistogramSnapshot::default());
        for h in handles {
            let (r, k, snap) = h.join().expect("driver thread");
            total.0 += r;
            total.1 += k;
            total.2.merge(&snap);
        }
        total
    })
}

fn preload(addr: SocketAddr, name: &str, capacity: u64, keys: &[u64]) {
    let mut c = FilterClient::connect(addr).expect("connect");
    c.create(name, Backend::AtomicBloom, capacity, EPS, 0, SEED)
        .expect("create");
    for chunk in keys.chunks(4096) {
        c.insert(name, chunk).expect("preload");
    }
}

/// After `shutdown()` returns, the port must no longer serve the
/// protocol: a clean drain leaves nothing half-answered.
fn assert_drained(addr: SocketAddr) -> bool {
    match FilterClient::connect(addr) {
        Err(_) => true,
        Ok(mut late) => late.stats().is_err(),
    }
}

/// Spawn `experiments serve evented` as a separate OS process and
/// return (child, addr). The child binds an ephemeral port, prints
/// `ADDR <addr>`, and serves until its stdin reaches EOF.
fn spawn_server_process() -> (std::process::Child, SocketAddr) {
    use std::io::BufRead;
    let exe = std::env::current_exe().expect("current exe");
    let mut child = std::process::Command::new(exe)
        .args(["serve", "evented"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn server process");
    let stdout = child.stdout.take().expect("child stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("child exited before announcing address")
            .expect("read child stdout");
        if let Some(rest) = line.strip_prefix("ADDR ") {
            break rest.trim().parse().expect("parse child address");
        }
    };
    (child, addr)
}

fn stop_server_process(mut child: std::process::Child) {
    drop(child.stdin.take()); // EOF on stdin: the child's drain signal
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match child.try_wait() {
            Ok(Some(_)) => return,
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return;
            }
        }
    }
}

/// `experiments serve evented`: run one filter server on an
/// ephemeral loopback port until stdin reaches EOF. This is how E24's
/// cluster sweep gets genuinely separate server processes.
pub fn serve_child(kind: &str) -> bool {
    if kind != "evented" {
        return false;
    }
    let config = ServerConfig {
        read_timeout: Duration::from_millis(10),
        ..ServerConfig::default()
    };
    let server = EventedFilterServer::bind("127.0.0.1:0", config).expect("bind");
    println!("ADDR {}", server.local_addr());
    std::io::stdout().flush().expect("flush");
    let mut sink = String::new();
    let _ = std::io::Read::read_to_string(&mut std::io::stdin(), &mut sink);
    server.shutdown();
    true
}

/// E24: server throughput under many connections, and cluster
/// throughput vs process count.
pub fn e24_evented() -> bool {
    header(
        "E24 — event-driven server core: throughput vs connections, cluster vs processes",
        "readiness loops hold throughput as connections grow; consistent hashing spreads \
         named filters across server processes",
    );
    let assert_gate = std::env::var_os("E24_ASSERT").is_some();
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "hardware parallelism: {cores} (drivers and servers time-share; absolute numbers \
         understate a real deployment — the shape across tiers is the claim)\n"
    );

    let capacity: u64 = if quick() { 40_000 } else { 200_000 };
    let universe = unique_keys(SEED, capacity as usize / 2);
    let conn_tiers: &[usize] = if quick() { &[8, 32] } else { &[16, 256, 1024] };

    // ---- connections sweep -------------------------------------
    println!("connections sweep (closed-loop CONTAINS, batch {BATCH}, one in-flight/conn)");
    println!("  conns     requests/s        keys/s   p99 (us)");
    // (connections, keys/s) per tier.
    let mut tiers: Vec<(usize, f64)> = Vec::new();
    let mut drains_clean = true;
    for &conns in conn_tiers {
        let config = ServerConfig {
            read_timeout: Duration::from_millis(10),
            ..ServerConfig::default()
        };
        let server = EventedFilterServer::bind("127.0.0.1:0", config).expect("bind");
        let addr = server.local_addr();
        preload(addr, "e24", capacity, &universe);
        let (reqs, keys, hist) = drive(addr, "e24", conns, &universe);
        let secs = measure_window().as_secs_f64();
        let keys_s = keys as f64 / secs;
        println!(
            "  {conns:>5}   {:>12.0}   {:>11.0}   {:>8.1}",
            reqs as f64 / secs,
            keys_s,
            hist.quantile_ns(0.99) as f64 / 1e3,
        );
        server.shutdown();
        drains_clean &= assert_drained(addr);
        tiers.push((conns, keys_s));
    }
    let (low, top) = (tiers[0], tiers[tiers.len() - 1]);
    let ratio = top.1 / low.1.max(1.0);
    println!(
        "\n  C={} vs C={}: {ratio:.2}x keys/s; clean drains: {}\n",
        top.0,
        low.0,
        if drains_clean { "yes" } else { "NO" }
    );

    // ---- cluster sweep (separate server processes) -------------
    let node_tiers: &[usize] = if quick() { &[1, 2] } else { &[1, 2, 4] };
    let n_filters = 16usize;
    let filter_cap: u64 = if quick() { 10_000 } else { 40_000 };
    let shard_keys = unique_keys(SEED ^ 0xc1, filter_cap as usize / 4);
    println!(
        "cluster sweep ({n_filters} filters consistent-hashed across N evented server \
         processes, batch {BATCH})"
    );
    println!("  procs        keys/s   p99 (us)");
    for &nodes in node_tiers {
        let children: Vec<(std::process::Child, SocketAddr)> =
            (0..nodes).map(|_| spawn_server_process()).collect();
        let addrs: Vec<SocketAddr> = children.iter().map(|(_, a)| *a).collect();
        let mut cluster = ClusterClient::new(addrs.clone()).expect("cluster");
        let names: Vec<String> = (0..n_filters).map(|i| format!("e24-s{i:02}")).collect();
        for (i, name) in names.iter().enumerate() {
            cluster
                .create(
                    name,
                    Backend::AtomicBloom,
                    filter_cap,
                    EPS,
                    0,
                    SEED + i as u64,
                )
                .expect("cluster create");
            for chunk in shard_keys.chunks(4096) {
                cluster.insert(name, chunk).expect("cluster preload");
            }
        }
        let window = measure_window();
        let (keys_total, hist) = std::thread::scope(|s| {
            let handles: Vec<_> = (0..DRIVER_THREADS)
                .map(|t| {
                    let addrs = addrs.clone();
                    let names = &names;
                    let shard_keys = &shard_keys;
                    s.spawn(move || {
                        let mut cluster = ClusterClient::new(addrs).expect("driver cluster");
                        let hist = LatencyHistogram::new();
                        let (mut keys, mut pos, mut f) = (0u64, t * 977, t);
                        let t0 = Instant::now();
                        while t0.elapsed() < window {
                            if pos + BATCH > shard_keys.len() {
                                pos = 0;
                            }
                            let chunk = &shard_keys[pos..pos + BATCH];
                            pos += BATCH;
                            f = (f + 1) % names.len();
                            let q0 = Instant::now();
                            let got = cluster.contains(&names[f], chunk).expect("contains");
                            hist.record(q0.elapsed());
                            std::hint::black_box(got);
                            keys += BATCH as u64;
                        }
                        (keys, hist.snapshot())
                    })
                })
                .collect();
            let mut total = (0u64, HistogramSnapshot::default());
            for h in handles {
                let (k, snap) = h.join().expect("cluster driver");
                total.0 += k;
                total.1.merge(&snap);
            }
            total
        });
        println!(
            "  {nodes:>5}   {:>11.0}   {:>8.1}",
            keys_total as f64 / window.as_secs_f64(),
            hist.quantile_ns(0.99) as f64 / 1e3,
        );
        drop(cluster);
        for (child, _) in children {
            stop_server_process(child);
        }
    }

    if assert_gate {
        let pass = ratio >= 0.5 && drains_clean;
        println!(
            "\ne24 gate (keys/s at C={} ≥ 0.5x C={}, clean drains at every tier): {}",
            top.0,
            low.0,
            if pass { "PASS" } else { "FAIL" }
        );
    }
    true
}
