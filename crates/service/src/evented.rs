//! The filter server: every connection served from nonblocking
//! readiness loops ([`eventloop::Poller`] — raw-syscall epoll on
//! x86_64 Linux, the scan fallback elsewhere), one loop per core.
//!
//! # Loops and handoff
//!
//! [`EventedFilterServer::bind`] starts `available_parallelism()`
//! loop threads (one where `std::os::unix` is missing). Loop 0 owns
//! the nonblocking listener; it accepts and deals connections out
//! round-robin, itself included. Handing a connection to loop k
//! pushes the stream onto k's inbox and writes one byte to k's waker,
//! a socket pair whose read end k watches under the reserved token 0.
//! From then on the connection belongs to k alone: every loop owns
//! its own poller, connection slab, idle sweep and shutdown drain, and
//! the loops share nothing but the `Arc<Engine>`, whose registry and
//! counters are already safe for concurrent dispatch. One loop per
//! core keeps every core serving while each idle connection still
//! costs a slab slot and a few KB of buffers, not a blocked thread.
//!
//! # Pipelining
//!
//! Each connection reads into its [`FrameDecoder`] and dispatches
//! **every** frame a read completes, encoding the responses in request
//! order into a per-connection outbound buffer — many in-flight frames
//! per socket, responses strictly ordered, and no per-frame allocation
//! or copy on either side of dispatch.
//!
//! # Drain
//!
//! Every payload funnels through `engine::dispatch`, so a response is
//! byte-equal to what `dispatch` returns for the same payload
//! (`tests/service_e2e.rs` asserts exactly this). Shutdown stops
//! accepting, finishes writing responses already queued, and closes;
//! buffered but undispatched frames and connections still waiting in
//! an inbox are dropped.
//!
//! # Safety
//!
//! This module is pure safe code (`service` forbids unsafe); all fd
//! handling lives behind `eventloop`'s audited syscall island. Reading
//! stops at the first short read: bytes that land later still wake the
//! loop, because epoll is level-triggered and the scan fallback reports
//! every connection on each wait. Spurious readiness costs one
//! `WouldBlock` read, which is why `BEYOND_BLOOM_FORCE_POLL=1` runs the
//! full e2e suite unchanged.

use crate::engine::{dispatch, err, render_metrics, Engine, ServerConfig};
use crate::metrics::ServerMetrics;
use crate::proto::{encode_frame, ErrorCode, FrameDecoder, Response};
use eventloop::{net, os_fd, BackendKind, Event, Interest, Poller, Token};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

#[cfg(unix)]
use std::os::unix::net::UnixStream as Waker;
// Never constructed: without unix sockets there is one loop and so no
// handoff; the alias only keeps the shared code compiling.
#[cfg(not(unix))]
use std::net::TcpStream as Waker;

/// Token 0 is the loop's own source (the listener on loop 0, the
/// waker elsewhere); connection n lives at token n + 1.
const SOURCE: Token = Token(0);

/// Per-connection state: the socket plus rolling I/O buffers.
struct Conn {
    stream: TcpStream,
    /// Peer address, cached at accept for the slow-request log.
    peer: Option<SocketAddr>,
    /// Inbound bytes, cut into frames.
    frames: FrameDecoder,
    /// Responses serialized and not yet fully written. `osent` is the
    /// flushed prefix.
    obuf: Vec<u8>,
    osent: usize,
    /// Whether the poller currently watches this fd for writability.
    want_write: bool,
    /// Close once `obuf` drains (protocol error or peer EOF).
    close_after_flush: bool,
    /// Last time a complete frame arrived (idle-deadline clock:
    /// frames, not bytes, count as progress).
    last_frame: Instant,
}

/// A running filter server: one engine, one listener, one readiness
/// loop per core. Dropping the handle without calling
/// [`shutdown`](Self::shutdown) detaches the loops (they keep serving
/// until the process exits).
pub struct EventedFilterServer {
    engine: Arc<Engine>,
    addr: SocketAddr,
    backend: BackendKind,
    loops: Vec<JoinHandle<()>>,
}

impl EventedFilterServer {
    /// Bind `addr` (port 0 for ephemeral) and start one loop thread
    /// per core.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        net::set_reuseaddr(&listener)?;
        listener.set_nonblocking(true)?;
        crate::engine::register_all_layers();
        let engine = Arc::new(Engine::new(config));
        let poller = Poller::new()?;
        let backend = poller.kind();
        // Build every poller and handoff before spawning anything, so
        // a failure returns an error instead of stranding threads.
        let mut peers = Vec::new();
        let mut workers = Vec::new();
        for _ in 1..loop_count() {
            let (tx, rx) = waker_pair()?;
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            let inbox = Arc::new(Mutex::new(Vec::new()));
            peers.push(Handoff {
                inbox: Arc::clone(&inbox),
                waker: tx,
            });
            workers.push((Poller::new()?, Role::Worker(Handoff { inbox, waker: rx })));
        }
        let acceptor = Role::Acceptor {
            listener,
            peers,
            next: 0,
        };
        let loops = std::iter::once((poller, acceptor))
            .chain(workers)
            .enumerate()
            .map(|(i, (poller, role))| {
                let engine = Arc::clone(&engine);
                std::thread::Builder::new()
                    .name(format!("filter-loop-{i}"))
                    .spawn(move || event_loop(&engine, poller, role))
                    .expect("spawn loop thread")
            })
            .collect();
        Ok(EventedFilterServer {
            engine,
            addr: local,
            backend,
            loops,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Which readiness backend the loops run on (epoll or the
    /// portable scan fallback).
    pub fn poll_backend(&self) -> BackendKind {
        self.backend
    }

    /// This server's counters (the `bb_server_*` METRICS families),
    /// read in place.
    pub fn metrics(&self) -> &crate::metrics::ServerMetrics {
        self.engine.metrics()
    }

    /// Render the METRICS exposition in-process.
    pub fn metrics_text(&self) -> String {
        render_metrics(&self.engine)
    }

    /// Stop accepting, flush queued responses, close every
    /// connection, join every loop thread. Each loop observes the
    /// flag within one readiness-wait tick, so no wake-up is needed.
    pub fn shutdown(mut self) {
        self.engine.stop.store(true, Ordering::Relaxed);
        for h in self.loops.drain(..) {
            let _ = h.join();
        }
    }
}

/// How many loops [`EventedFilterServer::bind`] starts: one per core,
/// or one where there are no unix sockets to build a waker from.
fn loop_count() -> usize {
    if cfg!(unix) {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        1
    }
}

#[cfg(unix)]
fn waker_pair() -> io::Result<(Waker, Waker)> {
    Waker::pair()
}

#[cfg(not(unix))]
fn waker_pair() -> io::Result<(Waker, Waker)> {
    unreachable!("one loop, no handoff")
}

/// One end of the channel that carries accepted connections from
/// loop 0 to another loop: the shared inbox, plus the waker's write
/// end (loop 0's side) or read end (the receiving loop's side).
struct Handoff {
    inbox: Arc<Mutex<Vec<TcpStream>>>,
    waker: Waker,
}

impl Handoff {
    fn send(&self, stream: TcpStream) {
        self.inbox
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(stream);
        // A full waker buffer (WouldBlock) already holds an unread
        // wake, so the byte may be dropped.
        let _ = (&self.waker).write(&[1]);
    }

    /// Drain the waker, then take the inbox. Draining first means a
    /// stream pushed after the take left its byte behind for the next
    /// wake, so no handoff is ever missed.
    fn recv(&self) -> Vec<TcpStream> {
        let mut buf = [0u8; 64];
        while matches!((&self.waker).read(&mut buf), Ok(n) if n > 0) {}
        std::mem::take(&mut *self.inbox.lock().unwrap_or_else(|p| p.into_inner()))
    }
}

/// What a loop watches besides its own connections.
enum Role {
    /// Loop 0: the listener, plus a handoff to every other loop.
    Acceptor {
        listener: TcpListener,
        peers: Vec<Handoff>,
        /// Round-robin cursor over every loop, this one included.
        next: usize,
    },
    /// Every other loop: the inbox loop 0 fills.
    Worker(Handoff),
}

/// One loop's poller and connection slab.
struct Loop {
    poller: Poller,
    conns: Vec<Option<Conn>>,
    free: VecDeque<usize>,
}

impl Loop {
    /// Register an accepted, nonblocking stream and start serving it.
    fn adopt(&mut self, engine: &Engine, stream: TcpStream) {
        let idx = self.free.pop_front().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        if self
            .poller
            .register(os_fd(&stream), Token(idx + 1), Interest::READABLE)
            .is_err()
        {
            engine.metrics.accept_errors.inc();
            self.free.push_back(idx);
            return;
        }
        engine.metrics.connections_opened.inc();
        engine.metrics.open_connections.add(1);
        let peer = stream.peer_addr().ok();
        self.conns[idx] = Some(Conn {
            stream,
            peer,
            frames: FrameDecoder::new(engine.config.max_frame),
            obuf: Vec::new(),
            osent: 0,
            want_write: false,
            close_after_flush: false,
            last_frame: Instant::now(),
        });
    }

    fn close(&mut self, engine: &Engine, idx: usize) {
        if let Some(conn) = self.conns[idx].take() {
            let _ = self.poller.deregister(os_fd(&conn.stream), Token(idx + 1));
            drop(conn);
            engine.metrics.connections_closed.inc();
            engine.metrics.open_connections.add(-1);
            self.free.push_back(idx);
        }
    }
}

fn event_loop(engine: &Engine, poller: Poller, mut role: Role) {
    let mut lp = Loop {
        poller,
        conns: Vec::new(),
        free: VecDeque::new(),
    };
    let mut events: Vec<Event> = Vec::new();
    let source = match &role {
        Role::Acceptor { listener, .. } => os_fd(listener),
        Role::Worker(mailbox) => os_fd(&mailbox.waker),
    };
    if lp
        .poller
        .register(source, SOURCE, Interest::READABLE)
        .is_err()
    {
        return;
    }
    let tick = engine.config.read_timeout;
    let mut last_sweep = Instant::now();
    loop {
        if engine.stopping() {
            break;
        }
        if lp.poller.wait(&mut events, Some(tick)).is_err() {
            break;
        }
        for ev in &events {
            if ev.token == SOURCE {
                match &mut role {
                    Role::Acceptor {
                        listener,
                        peers,
                        next,
                    } => accept_ready(engine, listener, peers, next, &mut lp),
                    Role::Worker(mailbox) => {
                        for stream in mailbox.recv() {
                            lp.adopt(engine, stream);
                        }
                    }
                }
                continue;
            }
            let idx = ev.token.0 - 1;
            // A slot freed earlier in this same batch can leave a
            // stale event behind; with level-triggered readiness,
            // skipping or spuriously servicing a reused slot are both
            // harmless.
            let mut closed = false;
            if let Some(Some(conn)) = lp.conns.get_mut(idx) {
                if ev.readable || ev.hangup {
                    closed = conn_readable(engine, conn);
                }
                // A pending close must reach the flush step even with
                // nothing queued: a clean EOF stays readable forever.
                if !closed && (ev.writable || !conn.obuf.is_empty() || conn.close_after_flush) {
                    closed = conn_flush(conn, &mut lp.poller, ev.token);
                }
            }
            if closed {
                lp.close(engine, idx);
            }
        }
        // Idle sweep, once a tick: close connections that completed no
        // frame for too long. Dribbled bytes don't reset the clock —
        // only whole frames do (slow-loris backstop).
        let idle = engine.config.idle_timeout;
        if let Some(idle) = idle.filter(|_| last_sweep.elapsed() >= tick) {
            last_sweep = Instant::now();
            for idx in 0..lp.conns.len() {
                if lp.conns[idx]
                    .as_ref()
                    .is_some_and(|c| last_sweep.duration_since(c.last_frame) >= idle)
                {
                    lp.close(engine, idx);
                }
            }
        }
    }
    // Drain: stop accepting (loop exited), finish writing whatever is
    // already queued with a bounded blocking flush, close everything.
    // Connections still in the inbox were never adopted or counted.
    lp.poller.deregister(source, SOURCE).ok();
    drop(role);
    for idx in 0..lp.conns.len() {
        if let Some(conn) = &mut lp.conns[idx] {
            if conn.osent < conn.obuf.len() {
                // Bounded blocking flush (bytes/counters were already
                // accounted at queue time).
                let _ = conn.stream.set_nonblocking(false);
                let _ = conn
                    .stream
                    .set_write_timeout(Some(tick.max(std::time::Duration::from_millis(100))));
                let pending = std::mem::take(&mut conn.obuf);
                let _ = conn.stream.write_all(&pending[conn.osent..]);
                conn.osent = 0;
            }
        }
        lp.close(engine, idx);
    }
}

/// Accept until `WouldBlock`, dealing each new socket to the next
/// loop in round-robin order.
fn accept_ready(
    engine: &Engine,
    listener: &TcpListener,
    peers: &[Handoff],
    next: &mut usize,
    lp: &mut Loop,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if engine.stopping() {
                    drop(stream);
                    return;
                }
                if stream.set_nonblocking(true).is_err() {
                    engine.metrics.accept_errors.inc();
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let target = *next % (peers.len() + 1);
                *next = next.wrapping_add(1);
                if target == 0 {
                    lp.adopt(engine, stream);
                } else {
                    peers[target - 1].send(stream);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                engine.metrics.accept_errors.inc();
                return;
            }
        }
    }
}

/// Read into the decoder and dispatch every frame each read
/// completes, until a short read, EOF or `WouldBlock`. Returns `true`
/// when the connection should be closed immediately.
fn conn_readable(engine: &Engine, conn: &mut Conn) -> bool {
    // Frames served this wakeup: the pipelining depth.
    let mut depth = 0;
    let close_now = loop {
        let spare = conn.frames.spare();
        let room = spare.len();
        match conn.stream.read(spare) {
            // EOF with a partial frame buffered: the peer vanished
            // mid-frame.
            Ok(0) if conn.frames.buffered() > 0 && !conn.close_after_flush => {
                engine.metrics.disconnects_mid_frame.inc();
                break true;
            }
            // EOF on a frame boundary: deliver queued responses, then
            // close.
            Ok(0) => {
                conn.close_after_flush = true;
                break false;
            }
            Ok(n) => {
                conn.frames.filled(n);
                depth += serve_frames(engine, conn);
                if n < room || conn.close_after_flush {
                    break false;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break false,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break true,
        }
    };
    engine.metrics.raise_pipelined_depth(depth);
    close_now
}

/// Dispatch every complete buffered frame in arrival order and queue
/// the responses; returns how many frames were served.
fn serve_frames(engine: &Engine, conn: &mut Conn) -> i64 {
    let m = &engine.metrics;
    let mut served = 0;
    // Drain contract: once stopping, dispatch nothing more; the
    // shutdown path flushes what is already queued.
    while !conn.close_after_flush && !engine.stopping() {
        let frame = match conn.frames.next_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            Err(e) => {
                // Answer with the reason, then close — the unread body
                // defeats resync.
                m.protocol_errors.inc();
                queue_response(m, &mut conn.obuf, &err(ErrorCode::BadFrame, e.to_string()));
                conn.close_after_flush = true;
                break;
            }
        };
        // bytes_in counts the payload after the trace context is
        // stripped: the bytes `dispatch` sees.
        m.frames_received.inc();
        m.bytes_in.add(frame.payload.len() as u64);
        let t0 = Instant::now();
        let req_trace = telemetry::trace::begin("server:request", frame.ctx);
        let (resp, info) = dispatch(engine, frame.payload);
        let error = matches!(resp, Response::Error { .. });
        queue_response(m, &mut conn.obuf, &resp);
        let dt = t0.elapsed();
        let slow = dt >= engine.config.slow_request_threshold;
        // Only a slow request reads (and, for an unsampled one,
        // mints) its trace id — the fast path stays free of id work.
        engine.record_request(
            dt,
            info,
            conn.peer,
            if slow { req_trace.trace_id() } else { 0 },
        );
        req_trace.finish(dt, slow, error);
        conn.last_frame = t0;
        served += 1;
    }
    served
}

/// Encode a response as a frame at the end of the connection's
/// outbound buffer and count it as sent (queueing into the
/// kernel-bound buffer is this transport's "written": a peer that has
/// read its answer sees it counted in the `bb_server_*` METRICS
/// families).
fn queue_response(m: &ServerMetrics, obuf: &mut Vec<u8>, resp: &Response) {
    if matches!(resp, Response::Error { .. }) {
        m.error_responses.inc();
    }
    let payload = encode_frame(obuf, None, |out| resp.encode_into(out));
    m.responses_sent.inc();
    m.bytes_out.add(payload as u64);
}

/// Write pending output until done or `WouldBlock`, managing the
/// writable-interest registration. Returns `true` when the connection
/// should close (flush finished after a close was requested, or the
/// write errored).
fn conn_flush(conn: &mut Conn, poller: &mut Poller, token: Token) -> bool {
    while conn.osent < conn.obuf.len() {
        match conn.stream.write(&conn.obuf[conn.osent..]) {
            Ok(0) => return true,
            Ok(n) => conn.osent += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
    if conn.osent == conn.obuf.len() {
        conn.obuf.clear();
        conn.osent = 0;
        if conn.want_write {
            conn.want_write = false;
            let _ = poller.modify(os_fd(&conn.stream), token, Interest::READABLE);
        }
        return conn.close_after_flush;
    }
    // Output still pending: make sure the poller wakes us to finish.
    if !conn.want_write {
        conn.want_write = true;
        let _ = poller.modify(os_fd(&conn.stream), token, Interest::BOTH);
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::FilterClient;
    use crate::proto::{Backend, FrameEvent, FrameReader};
    use std::time::Duration;

    fn quick_config() -> ServerConfig {
        ServerConfig {
            read_timeout: Duration::from_millis(10),
            ..ServerConfig::default()
        }
    }

    #[test]
    fn serve_create_insert_query_shutdown() {
        let server = EventedFilterServer::bind("127.0.0.1:0", quick_config()).unwrap();
        let mut c = FilterClient::connect(server.local_addr()).unwrap();
        c.create("t", Backend::AtomicBloom, 10_000, 0.01, 0, 7)
            .unwrap();
        c.insert("t", &[1, 2, 3]).unwrap();
        let got = c.contains("t", &[1, 2, 3, 999_999]).unwrap();
        assert_eq!(&got[..3], &[true, true, true]);
        assert_eq!(c.stats().unwrap().filters.len(), 1);
        // The STATS answer was queued after its frame was counted.
        assert!(server.metrics().frames_received.get() >= 4);
        assert_eq!(server.metrics().open_connections.get(), 1);
        drop(c);
        server.shutdown();
    }

    #[test]
    fn every_loop_serves_the_same_registry() {
        let server = EventedFilterServer::bind("127.0.0.1:0", quick_config()).unwrap();
        let addr = server.local_addr();
        // Two laps of the round-robin: every loop adopts at least two
        // connections, and each sees every other loop's writes.
        let n = 2 * loop_count();
        let mut clients: Vec<FilterClient> = (0..n)
            .map(|_| FilterClient::connect(addr).unwrap())
            .collect();
        clients[0]
            .create("shared", Backend::AtomicBloom, 1_000, 0.01, 0, 7)
            .unwrap();
        for (i, c) in clients.iter_mut().enumerate() {
            c.insert("shared", &[i as u64]).unwrap();
        }
        let all: Vec<u64> = (0..n as u64).collect();
        for c in &mut clients {
            assert!(c.contains("shared", &all).unwrap().iter().all(|&b| b));
        }
        assert_eq!(server.metrics().open_connections.get(), n as i64);
        drop(clients);
        server.shutdown();
    }

    #[test]
    fn pipelined_frames_answered_in_order() {
        use crate::proto::{write_frame, Request};
        let server = EventedFilterServer::bind("127.0.0.1:0", quick_config()).unwrap();
        let mut c = FilterClient::connect(server.local_addr()).unwrap();
        c.create("p", Backend::ShardedCqf, 10_000, 0.01, 2, 7)
            .unwrap();
        drop(c);
        // Raw pipelining: many request frames in one burst, no reads
        // in between, then collect the responses in order. TCP may
        // deliver a burst in pieces under load (one frame per
        // readable event keeps the watermark at 1), so retry until a
        // burst lands in one drain — one attempt almost always does.
        let mut attempts = 0;
        while server.metrics().pipelined_depth.get() <= 1 {
            attempts += 1;
            assert!(attempts <= 20, "no burst ever drained as a pipeline");
            let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
            let n = 32;
            let mut wire = Vec::new();
            for i in 0..n {
                let req = Request::Insert {
                    name: "p".into(),
                    keys: vec![i, i + 1_000],
                };
                write_frame(&mut wire, &req.encode()).unwrap();
            }
            let probe = Request::Count {
                name: "p".into(),
                keys: (0..n).collect(),
            };
            write_frame(&mut wire, &probe.encode()).unwrap();
            stream.write_all(&wire).unwrap();
            let mut frames =
                FrameReader::new(stream.try_clone().unwrap(), crate::proto::DEFAULT_MAX_FRAME);
            for _ in 0..n {
                match frames.read_frame().unwrap() {
                    FrameEvent::Frame(p, _) => {
                        assert_eq!(Response::decode(&p).unwrap(), Response::Ok)
                    }
                    FrameEvent::Closed => panic!("closed early"),
                }
            }
            match frames.read_frame().unwrap() {
                FrameEvent::Frame(p, _) => match Response::decode(&p).unwrap() {
                    Response::Counts(c) => assert!(c.iter().all(|&v| v >= 1)),
                    other => panic!("wanted Counts, got {other:?}"),
                },
                FrameEvent::Closed => panic!("closed early"),
            }
        }
        assert!(server.metrics().pipelined_depth.get() > 1);
        server.shutdown();
    }

    #[test]
    fn oversized_prefix_answered_then_closed() {
        let server = EventedFilterServer::bind("127.0.0.1:0", quick_config()).unwrap();
        let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
        stream.write_all(&[0u8; 64]).unwrap();
        let mut frames =
            FrameReader::new(stream.try_clone().unwrap(), crate::proto::DEFAULT_MAX_FRAME);
        match frames.read_frame().unwrap() {
            FrameEvent::Frame(p, _) => match Response::decode(&p).unwrap() {
                Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadFrame),
                other => panic!("wanted Error, got {other:?}"),
            },
            FrameEvent::Closed => panic!("closed without answering"),
        }
        // Then the server closes.
        assert!(matches!(
            frames.read_frame(),
            Ok(FrameEvent::Closed) | Err(_)
        ));
        server.shutdown();
    }
}
