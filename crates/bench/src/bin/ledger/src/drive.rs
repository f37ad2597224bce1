//! Closed-loop load: each connection sends its next request only after
//! the previous answer arrived and was checked.

use crate::hist::Hist;
use crate::plan::{Op, Pending, Plan, Traffic};
use service::proto::{write_frame, FrameEvent, FrameReader};
use service::{ClusterClient, FilterClient, Request, Response, DEFAULT_MAX_FRAME};
use std::borrow::Cow;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::time::{Instant, SystemTime};
use telemetry::trace::{SpanRecord, Trace};

pub const WARMUP: u8 = 0;
pub const MEASURE: u8 = 1;
pub const TRACED: u8 = 2;
pub const STOP: u8 = 3;
/// Drivers idle (between requests) while the machine's speed is read.
pub const PAUSE: u8 = 4;

/// Every 251st traced request keeps its spans and is replayed
/// server-side in-process. Prime, so the sample does not alias with
/// the rotation over six filters or twelve tenants.
pub const SAMPLE_EVERY: u64 = 251;
/// Every 64th traced request writes its frame the way `write_frame`
/// does (length, then payload: two writes); the request 32 later
/// writes both in one buffer. The gap between the two groups' round
/// trips is the cost of the second write.
const SPLIT_EVERY: u64 = 64;
/// Every 16th traced tenant-fanout request is also sent through
/// `ClusterClient`, to time the cluster layer's own work.
const CLUSTER_EVERY: u64 = 16;
/// Span `k` of trace `id` gets span id `id << SPAN_BITS | k`: the
/// request's own spans are `k` 0..=3, replay spans follow.
pub const SPAN_BITS: u32 = 8;

/// What the coordinator tells the load threads: the phase, and which slice
/// of the measured window it is in; and what they tell it back.
#[derive(Default)]
pub struct Control {
    pub phase: AtomicU8,
    pub slice: AtomicUsize,
    /// Drivers currently idling in [`PAUSE`].
    pub parked: AtomicUsize,
    /// Drivers past their script's untimed first part.
    pub warmed: AtomicUsize,
    /// Drivers whose script is done.
    pub finished: AtomicUsize,
}

/// Sleep while the phase satisfies `holds`. The coordinator unparks
/// the drivers whenever it changes the phase.
fn idle_while(ctl: &Control, holds: impl Fn(u8) -> bool) {
    while holds(ctl.phase.load(Ordering::Acquire)) {
        std::thread::park_timeout(std::time::Duration::from_millis(1));
    }
}

/// Keys answered and latencies in one slice of the measured window.
#[derive(Default)]
pub struct Slice {
    pub keys: u64,
    pub hist: Hist,
}

/// One load connection: a single server, or the cluster.
pub enum Conn {
    Direct(FilterClient),
    Cluster(ClusterClient),
}

impl Conn {
    /// Send `req` and wait for its answer.
    pub fn call(&mut self, req: &Request) -> Result<Response, String> {
        match self {
            Conn::Direct(c) => c.call(req).map_err(|e| e.to_string()),
            Conn::Cluster(c) => {
                let res = match req {
                    Request::Create {
                        name,
                        backend,
                        capacity,
                        eps,
                        shard_bits,
                        seed,
                        ..
                    } => c
                        .create(name, *backend, *capacity, *eps, *shard_bits, *seed)
                        .map(|()| Response::Ok),
                    Request::Insert { name, keys } => c.insert(name, keys).map(|()| Response::Ok),
                    Request::Contains { name, keys } => c.contains(name, keys).map(Response::Bools),
                    Request::MultiContains { keys } => {
                        c.multi_contains(keys).map(Response::NameLists)
                    }
                    _ => return Err("request kind not routed by the cluster".to_string()),
                };
                res.map_err(|e| e.to_string())
            }
        }
    }
}

/// Outcomes of the requests sent in one phase.
#[derive(Default)]
pub struct Tally {
    pub requests: u64,
    /// Requests that errored, got the wrong kind of answer, or missed a
    /// held key.
    pub failed: u64,
    /// Held keys answered absent, and owning tenants left out of a
    /// MULTI_CONTAINS answer.
    pub false_negatives: u64,
    pub keys: u64,
    /// Names returned by MULTI_CONTAINS.
    pub names: u64,
    pub all: Hist,
    pub contains: Hist,
    pub insert: Hist,
    pub multi: Hist,
}

impl Tally {
    /// Check `resp` against what `p` must get and record it.
    pub fn record(&mut self, plan: &Plan, p: &Pending, resp: &Result<Response, String>, ns: u64) {
        let misses = match (p.op, resp) {
            (Op::Contains, Ok(Response::Bools(b))) if b.len() == p.held.len() => {
                Some(p.held.iter().zip(b).filter(|&(&h, &a)| h && !a).count())
            }
            (Op::Insert, Ok(Response::Ok)) => Some(0),
            (Op::MultiContains, Ok(Response::NameLists(lists)))
                if lists.len() == p.owners.len() =>
            {
                self.names += lists.iter().map(|l| l.len() as u64).sum::<u64>();
                Some(
                    p.owners
                        .iter()
                        .zip(lists)
                        .map(|(owners, names)| {
                            owners
                                .iter()
                                .filter(|&&t| names.binary_search(&plan.filters[t].name).is_err())
                                .count()
                        })
                        .sum(),
                )
            }
            _ => None,
        };
        self.requests += 1;
        self.keys += p.keys().len() as u64;
        self.false_negatives += misses.unwrap_or(0) as u64;
        if misses != Some(0) {
            self.failed += 1;
        }
        self.all.record_ns(ns);
        match p.op {
            Op::Contains => &mut self.contains,
            Op::Insert => &mut self.insert,
            Op::MultiContains => &mut self.multi,
        }
        .record_ns(ns);
    }

    pub fn merge(&mut self, o: &Tally) {
        self.requests += o.requests;
        self.failed += o.failed;
        self.false_negatives += o.false_negatives;
        self.keys += o.keys;
        self.names += o.names;
        self.all.merge(&o.all);
        self.contains.merge(&o.contains);
        self.insert.merge(&o.insert);
        self.multi.merge(&o.multi);
    }
}

/// A traced request kept for replay and for the Chrome trace.
pub struct Sample {
    pub req: Request,
    pub op: Op,
    pub target: usize,
    /// Index of its trace in `TracedOut::traces`.
    pub trace: usize,
}

/// What the traced phase measured on one connection (per-request
/// sums in nanoseconds).
#[derive(Default)]
pub struct TracedOut {
    pub tally: Tally,
    pub encode_ns: u64,
    pub round_trip_ns: u64,
    pub decode_ns: u64,
    /// Round trips of the two-write (index 0) and one-write (index 1)
    /// groups: (sum ns, count).
    pub split: [(u64, u64); 2],
    /// `ClusterClient::multi_contains` against the per-node calls it
    /// wraps, on the same keys: (cluster ns, per-node ns, count).
    pub cluster: (u64, u64, u64),
    pub samples: Vec<Sample>,
    pub traces: Vec<Trace>,
}

/// One connection's results, handed back with its connection and
/// traffic state.
pub struct ConnOut<'p> {
    pub conn: Conn,
    /// The traced path's sockets, kept open until the servers stop.
    pub wires: Vec<Wire>,
    pub traffic: Traffic<'p>,
    pub measured: Tally,
    pub slices: Vec<Slice>,
    pub traced: TracedOut,
}

/// Raw per-node sockets the traced path speaks the protocol on.
pub struct Wire {
    stream: TcpStream,
    reader: FrameReader<TcpStream>,
}

impl Wire {
    fn new(stream: TcpStream) -> Wire {
        let reader = FrameReader::new(stream.try_clone().expect("clone socket"), DEFAULT_MAX_FRAME);
        Wire { stream, reader }
    }

    fn connect(addr: SocketAddr) -> Wire {
        let stream = TcpStream::connect(addr).expect("connect traced socket");
        stream.set_nodelay(true).expect("nodelay");
        Wire::new(stream)
    }

    /// Write `payload` as one frame — as `write_frame` does, or in a
    /// single write — and wait for the answer frame.
    fn round_trip(&mut self, payload: &[u8], one_write: bool) -> Result<Vec<u8>, String> {
        let sent = if one_write {
            let mut buf = Vec::with_capacity(4 + payload.len());
            buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            buf.extend_from_slice(payload);
            self.stream.write_all(&buf)
        } else {
            write_frame(&mut self.stream, payload)
        };
        sent.map_err(|e| e.to_string())?;
        match self.reader.read_frame() {
            Ok(FrameEvent::Frame(p, _)) => Ok(p),
            Ok(FrameEvent::Closed) => Err("server closed".to_string()),
            Err(e) => Err(e.to_string()),
        }
    }
}

pub fn epoch_us() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_micros() as u64)
}

pub fn span(
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    name: impl Into<Cow<'static, str>>,
    start_us: u64,
    dur_ns: u64,
    tid: u64,
) -> SpanRecord {
    SpanRecord {
        trace_id,
        span_id,
        parent_id,
        link_id: 0,
        name: name.into(),
        start_us,
        dur_us: dur_ns / 1000,
        pid: std::process::id(),
        tid,
        a: 0,
        b: 0,
    }
}

pub fn op_name(op: Op) -> &'static str {
    match op {
        Op::Contains => "CONTAINS",
        Op::Insert => "INSERT",
        Op::MultiContains => "MULTI_CONTAINS",
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Drive one connection until the phase reaches [`STOP`].
pub fn run_conn<'p>(
    plan: &'p Plan,
    idx: usize,
    mut conn: Conn,
    mut traffic: Traffic<'p>,
    ctl: &Control,
) -> ConnOut<'p> {
    let mut measured = Tally::default();
    let mut slices: Vec<Slice> = Vec::new();
    let mut traced = TracedOut::default();
    let mut wires: Vec<Wire> = Vec::new();
    let mut n_traced = 0u64;
    let mut warmed = false;
    loop {
        let ph = ctl.phase.load(Ordering::Acquire);
        if ph == STOP {
            break;
        }
        if ph == PAUSE {
            ctl.parked.fetch_add(1, Ordering::AcqRel);
            idle_while(ctl, |p| p == PAUSE);
            ctl.parked.fetch_sub(1, Ordering::AcqRel);
            continue;
        }
        if !warmed && traffic.warmed() {
            warmed = true;
            ctl.warmed.fetch_add(1, Ordering::AcqRel);
        }
        let Some(p) = traffic.next() else {
            ctl.finished.fetch_add(1, Ordering::AcqRel);
            idle_while(ctl, |p| p != STOP);
            break;
        };
        if ph != TRACED {
            let t0 = Instant::now();
            let resp = conn.call(&p.req);
            let ns = ns_since(t0);
            if matches!(resp, Ok(Response::Ok)) {
                traffic.committed(&p);
            }
            if ph == MEASURE {
                measured.record(plan, &p, &resp, ns);
                let k = ctl.slice.load(Ordering::Relaxed);
                if slices.len() <= k {
                    slices.resize_with(k + 1, Slice::default);
                }
                slices[k].keys += p.keys().len() as u64;
                slices[k].hist.record_ns(ns);
            }
            continue;
        }
        if wires.is_empty() {
            wires = match &mut conn {
                Conn::Direct(c) => vec![Wire::new(c.stream().try_clone().expect("clone socket"))],
                Conn::Cluster(c) => c.node_addrs().into_iter().map(Wire::connect).collect(),
            };
        }
        let i = n_traced;
        n_traced += 1;
        let one_write = i % SPLIT_EVERY == SPLIT_EVERY / 2;
        let wall0 = epoch_us();
        let t0 = Instant::now();
        let (mut enc, mut rt, mut dec) = (0u64, 0u64, 0u64);
        let mut answers = Vec::with_capacity(wires.len());
        for w in &mut wires {
            // Like `FilterClient`, each node's call encodes its own frame.
            let t = Instant::now();
            let payload = p.req.encode();
            enc += ns_since(t);
            let t = Instant::now();
            let frame = w.round_trip(&payload, one_write);
            rt += ns_since(t);
            let t = Instant::now();
            answers.push(frame.and_then(|f| Response::decode(&f).map_err(|e| e.to_string())));
            dec += ns_since(t);
        }
        let resp = if answers.len() == 1 {
            answers.pop().expect("one answer")
        } else {
            merge_name_lists(answers)
        };
        let total = ns_since(t0);
        if matches!(resp, Ok(Response::Ok)) {
            traffic.committed(&p);
        }
        traced.tally.record(plan, &p, &resp, total);
        traced.encode_ns += enc;
        traced.round_trip_ns += rt;
        traced.decode_ns += dec;
        if i.is_multiple_of(SPLIT_EVERY) || one_write {
            let g = &mut traced.split[usize::from(one_write)];
            g.0 += rt;
            g.1 += 1;
        }
        if let Conn::Cluster(c) = &mut conn {
            if i.is_multiple_of(CLUSTER_EVERY) {
                let t = Instant::now();
                let _ = c.multi_contains(p.keys());
                traced.cluster.0 += ns_since(t);
                traced.cluster.1 += enc + rt + dec;
                traced.cluster.2 += 1;
            }
        }
        if i.is_multiple_of(SAMPLE_EVERY) {
            let tid = idx as u64 + 1;
            let id = (tid << 40) | (i / SAMPLE_EVERY + 1);
            let base = id << SPAN_BITS;
            let us = |ns: u64| ns / 1000;
            traced.traces.push(Trace {
                trace_id: id,
                spans: vec![
                    span(id, base + 1, base, "client:encode", wall0, enc, tid),
                    span(
                        id,
                        base + 2,
                        base,
                        "wire:round_trip",
                        wall0 + us(enc),
                        rt,
                        tid,
                    ),
                    span(
                        id,
                        base + 3,
                        base,
                        "client:decode",
                        wall0 + us(enc + rt),
                        dec,
                        tid,
                    ),
                    span(
                        id,
                        base,
                        0,
                        format!("{}:{}", plan.workload.name(), op_name(p.op)),
                        wall0,
                        total,
                        tid,
                    ),
                ],
            });
            traced.samples.push(Sample {
                op: p.op,
                target: p.target,
                trace: traced.traces.len() - 1,
                req: p.req,
            });
        }
    }
    ConnOut {
        conn,
        wires,
        traffic,
        measured,
        slices,
        traced,
    }
}

/// The cluster client's merge: concatenate each node's per-key name
/// lists, then sort and deduplicate.
fn merge_name_lists(answers: Vec<Result<Response, String>>) -> Result<Response, String> {
    let mut merged: Vec<Vec<String>> = Vec::new();
    for a in answers {
        match a? {
            Response::NameLists(lists) => {
                merged.resize(lists.len().max(merged.len()), Vec::new());
                for (m, names) in merged.iter_mut().zip(lists) {
                    m.extend(names);
                }
            }
            other => return Ok(other),
        }
    }
    for m in &mut merged {
        m.sort_unstable();
        m.dedup();
    }
    Ok(Response::NameLists(merged))
}
