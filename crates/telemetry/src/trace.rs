//! Dependency-free distributed tracing.
//!
//! Spans carry `(trace_id, span_id, parent_id)`; a request's context
//! travels on the wire as an optional 17-byte [`TraceContext`] frame
//! extension (see the service's `proto` module for the flag bit).
//! Capture is **tail-based with a cheap head**: a request that is
//! forced, carries a wire context, or hits the 1-in-[`HEAD_SAMPLE`]
//! head-sample records every span into a per-thread buffer; any
//! other request gets a lazy guard that costs a few branches — no
//! clock reads, no ids, no allocation — and still tail-captures by
//! materializing a single root span if the request ends slow or in
//! an error. Only slow, errored, head-sampled, or forced traces are
//! promoted to the bounded global [`TraceStore`]. A client call made
//! under an active trace carries [`current_context`] on its frame, so
//! each callee records its part under the same trace id. Background
//! work started by a request (tier compaction) joins the trace
//! through a span-link handoff ([`handoff`] / [`record_linked`]): the
//! worker's span keeps `parent_id = 0` but points at the requesting
//! span via `link_id`.
//!
//! Completed traces render as Chrome `trace_event` JSON
//! ([`chrome_trace_json`]) loadable in `about:tracing` or Perfetto;
//! [`json`] holds the minimal parser tests use to schema-check that
//! output.
//!
//! Like the rest of the crate, the recording half honours the runtime
//! switch: while `set_enabled(false)` is in effect, [`begin_forced`],
//! a context-carrying or head-sampled [`begin`] and [`record_linked`]
//! record nothing (their guards are inert and report trace id 0), and
//! a lazy guard never tail-promotes. The wire types, store, and
//! renderers do not change, so a switched-off server still parses
//! traced frames; it just records nothing.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::Mutex;

/// Promote the trace regardless of latency. [`current_context`] sets
/// it when the caller's own trace will be stored, so every callee
/// stores its part too.
pub const FLAG_FORCED: u8 = 1;

/// The trace context a frame can carry: the caller's trace id and
/// span id (which becomes the callee root span's parent), plus flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Identifies the whole distributed trace.
    pub trace_id: u64,
    /// The calling span; the receiver's root span parents onto it.
    pub span_id: u64,
    /// Bit 0 ([`FLAG_FORCED`]): promote regardless of tail criteria.
    pub flags: u8,
}

impl TraceContext {
    /// Encoded size on the wire: two u64 LE words plus one flag byte.
    pub const WIRE_LEN: usize = 17;

    /// Serialize little-endian.
    pub fn encode(&self) -> [u8; Self::WIRE_LEN] {
        let mut out = [0u8; Self::WIRE_LEN];
        out[..8].copy_from_slice(&self.trace_id.to_le_bytes());
        out[8..16].copy_from_slice(&self.span_id.to_le_bytes());
        out[16] = self.flags;
        out
    }

    /// Deserialize; `None` when fewer than [`Self::WIRE_LEN`] bytes.
    pub fn decode(bytes: &[u8]) -> Option<TraceContext> {
        if bytes.len() < Self::WIRE_LEN {
            return None;
        }
        Some(TraceContext {
            trace_id: u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")),
            span_id: u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")),
            flags: bytes[16],
        })
    }

    /// Is [`FLAG_FORCED`] set?
    pub fn forced(&self) -> bool {
        self.flags & FLAG_FORCED != 0
    }
}

/// A captured pointer to a live span, handed to background work so it
/// can link its own spans back to the request that queued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanHandoff {
    /// The trace the requesting span belongs to.
    pub trace_id: u64,
    /// The requesting span.
    pub span_id: u64,
}

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// This span.
    pub span_id: u64,
    /// Enclosing span (0 for a root).
    pub parent_id: u64,
    /// Span-link target (0 for none): set on background-work spans to
    /// the request span that queued the work.
    pub link_id: u64,
    /// Span name (static for hot-path spans, owned when decoded off
    /// the wire or formatted per peer).
    pub name: Cow<'static, str>,
    /// Start, microseconds since the UNIX epoch (cross-process
    /// comparable on one machine).
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Recording process.
    pub pid: u32,
    /// Recording thread (process-local ordinal, not an OS tid).
    pub tid: u64,
    /// Span-specific annotation (e.g. Bloofi tenants scanned).
    pub a: u64,
    /// Span-specific annotation (e.g. Bloofi words scanned).
    pub b: u64,
}

/// A completed (promoted) trace: every span captured for one
/// `trace_id` on one process, plus any linked background spans.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The id every span in `spans` shares.
    pub trace_id: u64,
    /// Spans in recording order (children before their root).
    pub spans: Vec<SpanRecord>,
}

/// Promoted traces the store holds before dropping the oldest.
const MAX_TRACES: usize = 128;
/// Background spans waiting for their trace to be promoted/fetched.
const MAX_ORPHANS: usize = 256;
/// Spans one request may record before the rest are counted dropped.
const MAX_REQUEST_SPANS: usize = 128;

/// Traces evicted from the bounded store (oldest-first) before being
/// fetched.
pub static TRACES_DROPPED: crate::StaticCounter = crate::StaticCounter::new(
    "bb_traces_dropped_total",
    "Promoted traces evicted from the bounded trace store before being fetched.",
);

/// Spans discarded because a request buffer or the orphan-link pool
/// hit its bound.
pub static TRACE_SPANS_DROPPED: crate::StaticCounter = crate::StaticCounter::new(
    "bb_trace_spans_dropped_total",
    "Spans dropped by per-request buffer or orphan-pool bounds.",
);

/// Eagerly register this module's metric families.
pub fn register_metrics() {
    TRACES_DROPPED.register();
    TRACE_SPANS_DROPPED.register();
}

/// 1-in-N head-sampling rate for fresh (context-less) traces: one
/// such request in every `HEAD_SAMPLE` per thread records fully and
/// is promoted regardless of latency. Tail criteria (slow, error,
/// forced) apply to every request.
pub const HEAD_SAMPLE: u64 = 256;

#[derive(Default)]
struct StoreInner {
    traces: VecDeque<Trace>,
    orphans: VecDeque<SpanRecord>,
}

/// The bounded global store of promoted traces. Holds at most
/// `MAX_TRACES` traces (oldest dropped, counted in
/// `bb_traces_dropped_total`) plus a small pool of linked background
/// spans whose trace has not been promoted yet.
pub struct TraceStore {
    inner: Mutex<StoreInner>,
}

impl TraceStore {
    const fn new() -> Self {
        TraceStore {
            inner: Mutex::new(StoreInner {
                traces: VecDeque::new(),
                orphans: VecDeque::new(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, StoreInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Add a completed trace, folding in any waiting linked spans;
    /// evicts the oldest trace (counted) when full.
    pub fn promote(&self, mut trace: Trace) {
        let mut g = self.lock();
        if !g.orphans.is_empty() {
            let mut keep = VecDeque::with_capacity(g.orphans.len());
            for s in g.orphans.drain(..) {
                if s.trace_id == trace.trace_id {
                    trace.spans.push(s);
                } else {
                    keep.push_back(s);
                }
            }
            g.orphans = keep;
        }
        g.traces.push_back(trace);
        while g.traces.len() > MAX_TRACES {
            g.traces.pop_front();
            TRACES_DROPPED.inc();
        }
    }

    /// Attach a background span to its trace if already promoted,
    /// else park it in the bounded orphan pool.
    pub fn append_span(&self, span: SpanRecord) {
        let mut g = self.lock();
        if let Some(t) = g.traces.iter_mut().find(|t| t.trace_id == span.trace_id) {
            t.spans.push(span);
            return;
        }
        g.orphans.push_back(span);
        while g.orphans.len() > MAX_ORPHANS {
            g.orphans.pop_front();
            TRACE_SPANS_DROPPED.inc();
        }
    }

    /// Clone every span held for `trace_id` — promoted traces and
    /// parked orphans alike — without draining anything. Callers
    /// waiting on an asynchronous linked span (background compaction)
    /// poll this before the draining [`TraceStore::take`].
    pub fn peek_spans(&self, trace_id: u64) -> Vec<SpanRecord> {
        let g = self.lock();
        let mut out = Vec::new();
        for t in &g.traces {
            if t.trace_id == trace_id {
                out.extend(t.spans.iter().cloned());
            }
        }
        out.extend(g.orphans.iter().filter(|s| s.trace_id == trace_id).cloned());
        out
    }

    /// Drain the completed traces with `trace_id`, or every trace
    /// when it is 0 (a minted id never is), oldest first, folding in
    /// their parked orphan spans. Other traces stay. This is what
    /// `OP_TRACES` serves.
    pub fn take(&self, trace_id: u64) -> Vec<Trace> {
        let mut g = self.lock();
        let (mut traces, kept): (Vec<Trace>, Vec<Trace>) = std::mem::take(&mut g.traces)
            .into_iter()
            .partition(|t| trace_id == 0 || t.trace_id == trace_id);
        g.traces = kept.into();
        let mut keep = VecDeque::with_capacity(g.orphans.len());
        for s in g.orphans.drain(..) {
            if let Some(t) = traces.iter_mut().find(|t| t.trace_id == s.trace_id) {
                t.spans.push(s);
            } else {
                keep.push_back(s);
            }
        }
        g.orphans = keep;
        traces
    }

    /// Completed traces currently held.
    pub fn len(&self) -> usize {
        self.lock().traces.len()
    }

    /// True when no completed traces are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

static STORE: TraceStore = TraceStore::new();

/// The process-wide trace store.
pub fn store() -> &'static TraceStore {
    &STORE
}

fn json_escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Render traces as Chrome `trace_event` JSON (the "JSON object
/// format": a `traceEvents` array of `ph:"X"` complete events, plus
/// `s`/`f` flow events for span links). Load the output in
/// `about:tracing` or <https://ui.perfetto.dev>.
pub fn chrome_trace_json(traces: &[Trace]) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut push_event = |s: &str| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push_str(s);
    };
    for t in traces {
        for s in &t.spans {
            let mut name = String::new();
            json_escape_into(&s.name, &mut name);
            push_event(&format!(
                "{{\"name\":\"{name}\",\"cat\":\"bb\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{},\"tid\":{},\"args\":{{\"trace_id\":\"{:016x}\",\
                 \"span_id\":\"{:016x}\",\"parent_id\":\"{:016x}\",\"link_id\":\"{:016x}\",\
                 \"a\":{},\"b\":{}}}}}",
                s.start_us,
                s.dur_us,
                s.pid,
                s.tid,
                s.trace_id,
                s.span_id,
                s.parent_id,
                s.link_id,
                s.a,
                s.b
            ));
            if s.link_id != 0 {
                // Flow arrow from the linked (requesting) span to this
                // background span; anchor the start at the source span
                // when it is in the same trace.
                let src = t.spans.iter().find(|p| p.span_id == s.link_id);
                let (sts, spid, stid) = src
                    .map(|p| (p.start_us + p.dur_us, p.pid, p.tid))
                    .unwrap_or((s.start_us, s.pid, s.tid));
                push_event(&format!(
                    "{{\"name\":\"handoff\",\"cat\":\"bb\",\"ph\":\"s\",\"id\":\"{:016x}\",\
                     \"ts\":{sts},\"pid\":{spid},\"tid\":{stid}}}",
                    s.link_id
                ));
                push_event(&format!(
                    "{{\"name\":\"handoff\",\"cat\":\"bb\",\"ph\":\"f\",\"bp\":\"e\",\
                     \"id\":\"{:016x}\",\"ts\":{},\"pid\":{},\"tid\":{}}}",
                    s.link_id, s.start_us, s.pid, s.tid
                ));
            }
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

pub mod json {
    //! A minimal recursive-descent JSON parser, just enough for tests
    //! (and the trace-viewer example) to schema-check
    //! [`chrome_trace_json`](super::chrome_trace_json) output without
    //! external dependencies. Numbers parse to `f64`.

    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any number (always f64).
        Num(f64),
        /// A string, unescaped.
        Str(String),
        /// An array.
        Arr(Vec<Json>),
        /// An object, fields in document order.
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        /// Object field by key (first occurrence).
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The array items, if this is an array.
        pub fn items(&self) -> Option<&[Json]> {
            match self {
                Json::Arr(v) => Some(v),
                _ => None,
            }
        }

        /// The string value, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Json::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The numeric value, if this is a number.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Json::Num(n) => Some(*n),
                _ => None,
            }
        }
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        at: usize,
    }

    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(format!("trailing bytes at {}", p.at));
        }
        Ok(v)
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while self
                .bytes
                .get(self.at)
                .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
            {
                self.at += 1;
            }
        }

        fn peek(&mut self) -> Result<u8, String> {
            self.skip_ws();
            self.bytes
                .get(self.at)
                .copied()
                .ok_or_else(|| "unexpected end of input".to_string())
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek()? == b {
                self.at += 1;
                Ok(())
            } else {
                Err(format!("expected {:?} at {}", b as char, self.at))
            }
        }

        fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
            if self.bytes[self.at..].starts_with(word.as_bytes()) {
                self.at += word.len();
                Ok(v)
            } else {
                Err(format!("bad literal at {}", self.at))
            }
        }

        fn value(&mut self) -> Result<Json, String> {
            match self.peek()? {
                b'{' => self.object(),
                b'[' => self.array(),
                b'"' => Ok(Json::Str(self.string()?)),
                b't' => self.lit("true", Json::Bool(true)),
                b'f' => self.lit("false", Json::Bool(false)),
                b'n' => self.lit("null", Json::Null),
                b'-' | b'0'..=b'9' => self.number(),
                c => Err(format!("unexpected {:?} at {}", c as char, self.at)),
            }
        }

        fn object(&mut self) -> Result<Json, String> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            if self.peek()? == b'}' {
                self.at += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.expect(b':')?;
                fields.push((key, self.value()?));
                match self.peek()? {
                    b',' => self.at += 1,
                    b'}' => {
                        self.at += 1;
                        return Ok(Json::Obj(fields));
                    }
                    c => return Err(format!("expected ',' or '}}', got {:?}", c as char)),
                }
            }
        }

        fn array(&mut self) -> Result<Json, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            if self.peek()? == b']' {
                self.at += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(self.value()?);
                match self.peek()? {
                    b',' => self.at += 1,
                    b']' => {
                        self.at += 1;
                        return Ok(Json::Arr(items));
                    }
                    c => return Err(format!("expected ',' or ']', got {:?}", c as char)),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            if self.bytes.get(self.at) != Some(&b'"') {
                return Err(format!("expected string at {}", self.at));
            }
            self.at += 1;
            let mut out = String::new();
            loop {
                let b = *self
                    .bytes
                    .get(self.at)
                    .ok_or("unterminated string".to_string())?;
                self.at += 1;
                match b {
                    b'"' => return Ok(out),
                    b'\\' => {
                        let esc = *self
                            .bytes
                            .get(self.at)
                            .ok_or("unterminated escape".to_string())?;
                        self.at += 1;
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'b' => out.push('\u{8}'),
                            b'f' => out.push('\u{c}'),
                            b'u' => {
                                let hex = self
                                    .bytes
                                    .get(self.at..self.at + 4)
                                    .ok_or("short \\u escape".to_string())?;
                                let hex =
                                    std::str::from_utf8(hex).map_err(|_| "bad \\u".to_string())?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| "bad \\u".to_string())?;
                                self.at += 4;
                                // Surrogates would need pairing; the
                                // renderer never emits them.
                                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            }
                            _ => return Err(format!("bad escape at {}", self.at)),
                        }
                    }
                    _ => {
                        // Re-sync to char boundaries for multi-byte
                        // UTF-8 sequences.
                        let start = self.at - 1;
                        let mut end = self.at;
                        while end < self.bytes.len() && self.bytes[end] & 0xc0 == 0x80 {
                            end += 1;
                        }
                        let s = std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| "invalid utf-8 in string".to_string())?;
                        out.push_str(s);
                        self.at = end;
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Json, String> {
            let start = self.at;
            while self
                .bytes
                .get(self.at)
                .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
            {
                self.at += 1;
            }
            std::str::from_utf8(&self.bytes[start..self.at])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("bad number at {start}"))
        }
    }
}

mod record {
    //! The live recording half: per-thread span buffers, id
    //! generation, guards, and the promotion decision.

    use super::{
        store, SpanHandoff, SpanRecord, Trace, TraceContext, FLAG_FORCED, HEAD_SAMPLE,
        MAX_REQUEST_SPANS, TRACE_SPANS_DROPPED,
    };
    use std::borrow::Cow;
    use std::cell::{Cell, RefCell};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::LazyLock;
    use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

    // Per-thread countdown for the 1/N head-sample. A thread's first
    // request is sampled, then every Nth after that — per-thread
    // rather than global so the hot path is a cell decrement instead
    // of a contended `fetch_add` plus a runtime modulo.
    thread_local! {
        static HEAD_LEFT: Cell<u64> = const { Cell::new(0) };
    }

    #[inline(always)]
    fn head_sampled() -> bool {
        HEAD_LEFT.with(|c| {
            let left = c.get();
            if left <= 1 {
                c.set(HEAD_SAMPLE);
                true
            } else {
                c.set(left - 1);
                false
            }
        })
    }

    fn mix64(mut x: u64) -> u64 {
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Per-process id seed: wall clock at first use mixed with the
    /// pid, so two server processes started together still mint
    /// disjoint id streams.
    static ID_SEED: LazyLock<u64> = LazyLock::new(|| {
        let t = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or_default()
            .as_nanos() as u64;
        t ^ ((std::process::id() as u64) << 32) | 1
    });

    static NEXT_ID: AtomicU64 = AtomicU64::new(1);

    fn next_id() -> u64 {
        let id = mix64(ID_SEED.wrapping_add(NEXT_ID.fetch_add(1, Ordering::Relaxed)));
        if id == 0 {
            1
        } else {
            id
        }
    }

    // Wall-clock anchor taken once: span timestamps derive from the
    // monotonic clock relative to this base, so opening a span costs
    // one `Instant::now` instead of a monotonic read plus a wall read
    // (the two stay comparable across processes on one machine to
    // within the anchor error, which is all the trace viewer needs).
    static EPOCH_BASE: LazyLock<(Instant, u64)> = LazyLock::new(|| {
        let wall = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or_default()
            .as_micros()
            .min(u64::MAX as u128) as u64;
        (Instant::now(), wall)
    });

    /// Microseconds since the UNIX epoch for a monotonic instant.
    fn epoch_from(at: Instant) -> u64 {
        let (base, wall) = *EPOCH_BASE;
        wall.saturating_add(
            at.saturating_duration_since(base)
                .as_micros()
                .min(u64::MAX as u128) as u64,
        )
    }

    fn epoch_us() -> u64 {
        epoch_from(Instant::now())
    }

    static NEXT_TID: AtomicU64 = AtomicU64::new(1);

    thread_local! {
        static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        static ACTIVE: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
    }

    fn tid() -> u64 {
        TID.with(|t| *t)
    }

    struct ActiveTrace {
        trace_id: u64,
        /// The innermost open span: parent for new children.
        current: u64,
        /// Promote regardless of tail criteria (forced/head-sampled).
        promote: bool,
        spans: Vec<SpanRecord>,
        dropped: u64,
    }

    impl ActiveTrace {
        fn push(&mut self, span: SpanRecord) {
            if self.spans.len() < MAX_REQUEST_SPANS {
                self.spans.push(span);
            } else {
                self.dropped += 1;
            }
        }
    }

    /// Guard for one traced request; obtained from [`begin`] or
    /// [`begin_forced`], closed with [`RequestGuard::finish`] (or
    /// discarded unpromoted on plain drop).
    pub struct RequestGuard {
        inner: Option<Inner>,
    }

    enum Inner {
        Root {
            name: Cow<'static, str>,
            span_id: u64,
            parent_id: u64,
            start: Instant,
        },
        /// A fresh trace that missed the head-sample: nothing is
        /// recorded and no thread state is armed, so child spans are
        /// inert and the guard costs a few branches. If the request
        /// still ends slow or in an error, `finish` materializes a
        /// single root span after the fact (tail capture). The id is
        /// minted lazily on the first `trace_id()` call so the slow
        /// log and the captured trace share one. Holds no heap state
        /// (`&'static str` name) so the fast close can `mem::forget`
        /// the guard.
        Lazy {
            name: &'static str,
            trace_id: Cell<u64>,
        },
    }

    /// Start a request. A wire context, the forced flag, or the
    /// 1-in-[`HEAD_SAMPLE`] head-sample turn on full span recording
    /// (with a context the request joins the caller's trace, root span
    /// parented on the caller's span); any other request gets a lazy
    /// guard that records nothing unless it ends slow or errored. Returns an
    /// inert guard while the kill switch is off, and in place of a
    /// recording guard while a trace is already active on this thread
    /// (a lazy one deliberately skips even that check).
    #[inline(always)]
    pub fn begin(name: &'static str, ctx: Option<TraceContext>) -> RequestGuard {
        if ctx.is_none() && !head_sampled() {
            // The common case: nothing to record unless the request
            // turns out slow — branches and register writes only
            // (this path is what holds the E27 <3% budget). The kill
            // switch is deliberately not consulted here; a lazy guard
            // records nothing, and its tail-promotion re-checks
            // `enabled()` at close.
            return RequestGuard {
                inner: Some(Inner::Lazy {
                    name,
                    trace_id: Cell::new(0),
                }),
            };
        }
        if !crate::enabled() {
            return RequestGuard { inner: None };
        }
        begin_record(Cow::Borrowed(name), ctx, false)
    }

    /// Start a fresh root trace that records fully and will be
    /// promoted unconditionally. Client calls made under it carry its
    /// context with [`FLAG_FORCED`], so every node they reach stores
    /// its part (`ClusterClient::trace_route` is one such root).
    pub fn begin_forced(name: &'static str) -> RequestGuard {
        if !crate::enabled() {
            return RequestGuard { inner: None };
        }
        begin_record(Cow::Borrowed(name), None, true)
    }

    /// Recording-path continuation of [`begin`] / [`begin_forced`]:
    /// kept out of line so the sampled-out fast path stays small
    /// enough to inline into the transports' frame loops.
    fn begin_record(
        name: Cow<'static, str>,
        ctx: Option<TraceContext>,
        force: bool,
    ) -> RequestGuard {
        if ACTIVE.with(|a| a.borrow().is_some()) {
            return RequestGuard { inner: None };
        }
        let (trace_id, parent_id, promote) = match ctx {
            Some(c) => (c.trace_id.max(1), c.span_id, force || c.forced()),
            None => (next_id(), 0, true),
        };
        let span_id = next_id();
        ACTIVE.with(|a| {
            *a.borrow_mut() = Some(ActiveTrace {
                trace_id,
                current: span_id,
                promote,
                spans: Vec::with_capacity(4),
                dropped: 0,
            })
        });
        RequestGuard {
            inner: Some(Inner::Root {
                name,
                span_id,
                parent_id,
                start: Instant::now(),
            }),
        }
    }

    /// Build the one-span trace a lazy guard promotes when its
    /// request turns out slow or errored: timestamps are reconstructed
    /// at close from the caller-measured duration (the servers pass
    /// the same elapsed time the slow log records).
    fn lazy_trace(name: Cow<'static, str>, trace_id: u64, dur: Duration) -> Trace {
        let dur_us = dur.as_micros().min(u64::MAX as u128) as u64;
        Trace {
            trace_id,
            spans: vec![SpanRecord {
                trace_id,
                span_id: next_id(),
                parent_id: 0,
                link_id: 0,
                name,
                start_us: epoch_us().saturating_sub(dur_us),
                dur_us,
                pid: std::process::id(),
                tid: tid(),
                a: 0,
                b: 0,
            }],
        }
    }

    /// Close a recording root: record its span, clear the thread
    /// state, and return the buffered trace plus the promote flag.
    fn close_recording(
        name: Cow<'static, str>,
        span_id: u64,
        parent_id: u64,
        start: Instant,
    ) -> Option<(Trace, bool)> {
        let mut st = ACTIVE.with(|a| a.borrow_mut().take())?;
        st.push(SpanRecord {
            trace_id: st.trace_id,
            span_id,
            parent_id,
            link_id: 0,
            name,
            start_us: epoch_from(start),
            dur_us: start.elapsed().as_micros().min(u64::MAX as u128) as u64,
            pid: std::process::id(),
            tid: tid(),
            a: 0,
            b: 0,
        });
        if st.dropped > 0 {
            TRACE_SPANS_DROPPED.add(st.dropped);
        }
        let promote = st.promote;
        Some((
            Trace {
                trace_id: st.trace_id,
                spans: st.spans,
            },
            promote,
        ))
    }

    impl RequestGuard {
        /// The trace id this request records under (0 when inert). A
        /// lazy guard mints its id on the first call, so a slow-log
        /// line and the tail-captured trace share one; while the
        /// switch is off it answers 0, because its close will store
        /// no trace under any id.
        pub fn trace_id(&self) -> u64 {
            match &self.inner {
                Some(Inner::Root { .. }) => ACTIVE
                    .with(|a| a.borrow().as_ref().map(|t| t.trace_id))
                    .unwrap_or(0),
                Some(Inner::Lazy { .. }) if !crate::enabled() => 0,
                Some(Inner::Lazy { trace_id, .. }) => {
                    if trace_id.get() == 0 {
                        trace_id.set(next_id());
                    }
                    trace_id.get()
                }
                None => 0,
            }
        }

        /// Out of line: only sampled, slow, or errored requests get
        /// here, so the inlined `finish` fast path stays small.
        #[inline(never)]
        fn close(&mut self, dur: Duration, slow: bool, error: bool) {
            match self.inner.take() {
                Some(Inner::Root {
                    name,
                    span_id,
                    parent_id,
                    start,
                }) => {
                    if let Some((trace, promote)) = close_recording(name, span_id, parent_id, start)
                    {
                        if promote || slow || error {
                            store().promote(trace);
                        }
                    }
                }
                Some(Inner::Lazy { name, trace_id }) if (slow || error) && crate::enabled() => {
                    let id = if trace_id.get() != 0 {
                        trace_id.get()
                    } else {
                        next_id()
                    };
                    store().promote(lazy_trace(Cow::Borrowed(name), id, dur));
                }
                // A fast/clean Lazy is discarded; None is inert.
                _ => {}
            }
        }

        /// Close the request: promote the trace to the global store
        /// iff it ended slow, errored, was head-sampled, or carried
        /// the forced flag. `dur` is the caller-measured request
        /// duration, from which a lazy guard promoted by tail criteria
        /// reconstructs its root span's timing; the servers pass the
        /// same elapsed time their slow log records.
        #[inline(always)]
        pub fn finish(mut self, dur: Duration, slow: bool, error: bool) {
            if !slow && !error && matches!(self.inner, Some(Inner::Lazy { .. })) {
                // Nothing recorded, nothing to promote; a lazy guard
                // owns no heap or thread state, so skip its drop glue.
                std::mem::forget(self);
                return;
            }
            self.close(dur, slow, error);
        }
    }

    impl Drop for RequestGuard {
        fn drop(&mut self) {
            // finish() not called (error path / disconnect): discard
            // the thread's buffer without promoting.
            if matches!(self.inner, Some(Inner::Root { .. })) {
                self.inner = None;
                ACTIVE.with(|a| a.borrow_mut().take());
            }
        }
    }

    /// Open a child span under the thread's active trace. Inert (and
    /// free apart from one thread-local check) when no trace is
    /// active.
    pub fn span(name: impl Into<Cow<'static, str>>) -> SpanGuard {
        let ids = ACTIVE.with(|a| {
            let mut b = a.borrow_mut();
            let st = b.as_mut()?;
            let span_id = next_id();
            let parent_id = st.current;
            st.current = span_id;
            Some((st.trace_id, span_id, parent_id))
        });
        let Some((trace_id, span_id, parent_id)) = ids else {
            return SpanGuard { inner: None };
        };
        SpanGuard {
            inner: Some(SpanInner {
                trace_id,
                span_id,
                parent_id,
                name: name.into(),
                start: Instant::now(),
                a: Cell::new(0),
                b: Cell::new(0),
            }),
        }
    }

    struct SpanInner {
        trace_id: u64,
        span_id: u64,
        parent_id: u64,
        name: Cow<'static, str>,
        start: Instant,
        a: Cell<u64>,
        b: Cell<u64>,
    }

    /// A child span; records itself into the per-thread buffer on
    /// drop and restores its parent as the thread's current span.
    pub struct SpanGuard {
        inner: Option<SpanInner>,
    }

    impl SpanGuard {
        /// Attach two annotation words (shown in the trace viewer's
        /// `args`; e.g. Bloofi tenants and words scanned).
        pub fn annotate(&self, a: u64, b: u64) {
            if let Some(s) = &self.inner {
                s.a.set(a);
                s.b.set(b);
            }
        }
    }

    impl Drop for SpanGuard {
        fn drop(&mut self) {
            let Some(s) = self.inner.take() else {
                return;
            };
            ACTIVE.with(|a| {
                let mut b = a.borrow_mut();
                let Some(st) = b.as_mut() else {
                    return;
                };
                st.current = s.parent_id;
                st.push(SpanRecord {
                    trace_id: s.trace_id,
                    span_id: s.span_id,
                    parent_id: s.parent_id,
                    link_id: 0,
                    name: s.name,
                    start_us: epoch_from(s.start),
                    dur_us: s.start.elapsed().as_micros().min(u64::MAX as u128) as u64,
                    pid: std::process::id(),
                    tid: tid(),
                    a: s.a.get(),
                    b: s.b.get(),
                });
            });
        }
    }

    /// The thread's active trace context with the current span as the
    /// parent — what a client attaches to every outgoing frame. Carries
    /// [`FLAG_FORCED`] when the active trace will be stored (forced,
    /// head-sampled, or joined from a forced caller), so each callee
    /// stores its part too. `None` when no trace is active.
    pub fn current_context() -> Option<TraceContext> {
        ACTIVE.with(|a| {
            a.borrow().as_ref().map(|st| TraceContext {
                trace_id: st.trace_id,
                span_id: st.current,
                flags: if st.promote { FLAG_FORCED } else { 0 },
            })
        })
    }

    /// The thread's active trace id (0 when none).
    pub fn current_trace_id() -> u64 {
        ACTIVE.with(|a| a.borrow().as_ref().map_or(0, |st| st.trace_id))
    }

    /// Capture a link to the current span for background work queued
    /// by this request (`None` when no trace is active).
    pub fn handoff() -> Option<SpanHandoff> {
        ACTIVE.with(|a| {
            a.borrow().as_ref().map(|st| SpanHandoff {
                trace_id: st.trace_id,
                span_id: st.current,
            })
        })
    }

    /// Record a background span linked to `h` (worker side of the
    /// handoff): the span joins `h`'s trace with `link_id` pointing
    /// at the requesting span, landing in the global store directly.
    pub fn record_linked(h: SpanHandoff, name: &'static str, dur: Duration, a: u64, b: u64) {
        if !crate::enabled() || h.trace_id == 0 {
            return;
        }
        let dur_us = dur.as_micros().min(u64::MAX as u128) as u64;
        store().append_span(SpanRecord {
            trace_id: h.trace_id,
            span_id: next_id(),
            parent_id: 0,
            link_id: h.span_id,
            name: Cow::Borrowed(name),
            start_us: epoch_us().saturating_sub(dur_us),
            dur_us,
            pid: std::process::id(),
            tid: tid(),
            a,
            b,
        });
    }
}

pub use record::{
    begin, begin_forced, current_context, current_trace_id, handoff, record_linked, span,
    RequestGuard, SpanGuard,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_roundtrips_on_the_wire() {
        let ctx = TraceContext {
            trace_id: 0xdead_beef_cafe_f00d,
            span_id: 42,
            flags: FLAG_FORCED,
        };
        let bytes = ctx.encode();
        assert_eq!(bytes.len(), TraceContext::WIRE_LEN);
        assert_eq!(TraceContext::decode(&bytes), Some(ctx));
        assert_eq!(TraceContext::decode(&bytes[..16]), None);
    }

    #[test]
    fn chrome_json_is_parseable_and_escapes_names() {
        let traces = vec![Trace {
            trace_id: 7,
            spans: vec![
                SpanRecord {
                    trace_id: 7,
                    span_id: 1,
                    parent_id: 0,
                    link_id: 0,
                    name: "weird \"name\"\\with\nnewline".into(),
                    start_us: 1000,
                    dur_us: 50,
                    pid: 1,
                    tid: 1,
                    a: 3,
                    b: 9,
                },
                SpanRecord {
                    trace_id: 7,
                    span_id: 2,
                    parent_id: 0,
                    link_id: 1,
                    name: "compact".into(),
                    start_us: 1100,
                    dur_us: 10,
                    pid: 1,
                    tid: 2,
                    a: 0,
                    b: 0,
                },
            ],
        }];
        let text = chrome_trace_json(&traces);
        let doc = json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.items()).unwrap();
        // 2 complete events + s/f flow pair for the link.
        assert_eq!(events.len(), 4);
        let complete: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .collect();
        assert_eq!(complete.len(), 2);
        assert_eq!(
            complete[0].get("name").and_then(|n| n.as_str()),
            Some("weird \"name\"\\with\nnewline")
        );
        for e in &complete {
            assert!(e.get("dur").and_then(|d| d.as_f64()).is_some());
            let args = e.get("args").unwrap();
            let tid = args.get("trace_id").and_then(|t| t.as_str()).unwrap();
            assert!(u64::from_str_radix(tid, 16).is_ok());
        }
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(|p| p.as_str()) == Some("s")));
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(|p| p.as_str()) == Some("f")));
    }

    #[test]
    fn json_parser_rejects_garbage() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2"] {
            assert!(json::parse(bad).is_err(), "accepted {bad:?}");
        }
        assert_eq!(
            json::parse("[1, -2.5e3, \"\\u0041\"]").unwrap(),
            json::Json::Arr(vec![
                json::Json::Num(1.0),
                json::Json::Num(-2500.0),
                json::Json::Str("A".into())
            ])
        );
    }

    mod live {
        use super::super::*;
        use std::time::Duration;

        // The kill switch and the global trace store are
        // process-wide; serialize with every other test that touches
        // them (see live.rs).
        fn guard() -> std::sync::MutexGuard<'static, ()> {
            crate::live::TEST_SWITCH_LOCK.lock().unwrap()
        }

        #[test]
        fn forced_trace_records_spans_and_promotes() {
            let _g = guard();
            let req = begin_forced("test:root");
            let trace_id = req.trace_id();
            assert_ne!(trace_id, 0);
            {
                let sp = span("child");
                sp.annotate(5, 7);
                let _inner = span("grandchild");
            }
            assert_eq!(current_trace_id(), trace_id);
            req.finish(Duration::ZERO, false, false);
            assert_eq!(current_trace_id(), 0, "thread state cleared");
            let traces = store().take(trace_id);
            let t = traces
                .iter()
                .find(|t| t.trace_id == trace_id)
                .expect("forced trace promoted");
            assert_eq!(t.spans.len(), 3);
            let root = t.spans.iter().find(|s| s.name == "test:root").unwrap();
            let child = t.spans.iter().find(|s| s.name == "child").unwrap();
            let grand = t.spans.iter().find(|s| s.name == "grandchild").unwrap();
            assert_eq!(root.parent_id, 0);
            assert_eq!(child.parent_id, root.span_id);
            assert_eq!(grand.parent_id, child.span_id);
            assert_eq!((child.a, child.b), (5, 7));
        }

        /// The first `begin` guard that missed the head-sample: a
        /// sampled guard arms the thread's trace, a lazy one does not.
        fn lazy_begin(name: &'static str) -> RequestGuard {
            loop {
                let req = begin(name, None);
                if current_trace_id() == 0 {
                    return req;
                }
                req.finish(Duration::ZERO, false, false);
            }
        }

        #[test]
        fn unsampled_fast_clean_trace_is_discarded() {
            let _g = guard();
            let req = lazy_begin("test:quiet");
            let trace_id = req.trace_id();
            req.finish(Duration::ZERO, false, false);
            assert!(
                store().take(trace_id).is_empty(),
                "fast clean unsampled trace must not be promoted"
            );
        }

        #[test]
        fn slow_or_error_traces_are_promoted() {
            let _g = guard();
            let slow = lazy_begin("test:slow");
            let slow_id = slow.trace_id();
            slow.finish(Duration::from_micros(40), true, false);
            let err = lazy_begin("test:err");
            let err_id = err.trace_id();
            err.finish(Duration::ZERO, false, true);
            let slow_trace = store().take(slow_id);
            assert_eq!(slow_trace.len(), 1);
            assert_eq!(slow_trace[0].spans[0].dur_us, 40, "root timed from `dur`");
            assert_eq!(store().take(err_id).len(), 1);
        }

        #[test]
        fn wire_context_is_adopted() {
            let _g = guard();
            let ctx = TraceContext {
                trace_id: 0x1234_5678_9abc_def0,
                span_id: 99,
                flags: FLAG_FORCED,
            };
            let req = begin("test:server", Some(ctx));
            assert_eq!(req.trace_id(), ctx.trace_id);
            let attached = current_context().unwrap();
            assert_eq!(attached.trace_id, ctx.trace_id);
            assert_ne!(attached.span_id, 99, "current span is the server root");
            assert!(attached.forced(), "a stored trace forwards the forced flag");
            assert_eq!(
                begin_forced("test:nested").trace_id(),
                0,
                "a recording guard under an active trace is inert"
            );
            req.finish(Duration::ZERO, false, false);
            assert_eq!(current_context(), None);
            let traces = store().take(ctx.trace_id);
            let t = traces
                .iter()
                .find(|t| t.trace_id == ctx.trace_id)
                .expect("forced context promotes");
            assert_eq!(t.spans[0].parent_id, 99, "root parents onto caller span");
        }

        #[test]
        fn handoff_links_background_span_into_trace() {
            let _g = guard();
            let req = begin_forced("test:insert");
            let trace_id = req.trace_id();
            let h = {
                let _sp = span("seal");
                handoff().expect("active trace")
            };
            assert_eq!(h.trace_id, trace_id);
            req.finish(Duration::ZERO, false, false);
            // Worker side, after the request completed.
            record_linked(h, "compact", Duration::from_micros(123), 1, 2);
            let traces = store().take(trace_id);
            let t = traces.iter().find(|t| t.trace_id == trace_id).unwrap();
            let linked = t.spans.iter().find(|s| s.name == "compact").unwrap();
            assert_eq!(linked.link_id, h.span_id);
            assert_eq!(linked.dur_us, 123);
        }

        #[test]
        fn orphan_background_span_waits_for_promotion() {
            let _g = guard();
            let h = SpanHandoff {
                trace_id: 0xfeed_0001,
                span_id: 77,
            };
            record_linked(h, "early-compact", Duration::from_micros(5), 0, 0);
            // Not promoted yet: take() leaves the orphan parked.
            assert!(store().take(h.trace_id).is_empty());
            let bystander = h.trace_id + 1;
            for trace_id in [bystander, h.trace_id] {
                store().promote(Trace {
                    trace_id,
                    spans: Vec::new(),
                });
            }
            let traces = store().take(h.trace_id);
            assert_eq!(traces.len(), 1, "only the named trace drains");
            assert!(traces[0].spans.iter().any(|s| s.name == "early-compact"));
            assert_eq!(store().take(bystander).len(), 1, "the other trace stays");
        }

        #[test]
        fn store_is_bounded_and_counts_drops() {
            let _g = guard();
            let before = TRACES_DROPPED.get();
            store().take(0);
            for i in 0..(super::MAX_TRACES as u64 + 10) {
                store().promote(Trace {
                    trace_id: 0x5000_0000 + i,
                    spans: Vec::new(),
                });
            }
            assert_eq!(store().len(), super::MAX_TRACES);
            assert!(TRACES_DROPPED.get() >= before + 10);
            store().take(0);
        }
    }
}
