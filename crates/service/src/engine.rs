//! The filter-serving core behind the transport.
//!
//! [`Engine`] owns everything that is *not* a socket: the filter
//! table, the per-server metrics set, the slow-request log, the
//! shutdown flag, and the request dispatcher. The server
//! ([`crate::evented::EventedFilterServer`]) is a thin transport over
//! one `Engine`, shared by all of its loop threads: every payload
//! funnels through the public [`dispatch`], so a wire response is
//! byte-equal to what `dispatch` returns for the same payload (the e2e
//! suite asserts this bit-for-bit).
//!
//! The filter table is the Bloofi index itself, behind one `RwLock`:
//! each slot carries its filter's `Arc<ServedFilter>` beside the name,
//! so a name lookup and a MULTI_CONTAINS candidate both lead straight
//! to the filter. Request handling clones the `Arc` and releases the
//! lock before touching the filter — concurrency across requests to
//! one filter is then governed by the filter's own synchronisation
//! (wait-free atomics for the Bloom backend, per-shard mutexes for
//! the sharded backends), exactly as measured in E14/E15.

use crate::metrics::{FilterRow, ServerMetrics, StatsReport};
use crate::proto::{
    Backend, ErrorCode, HeaderError, Request, Response, DEFAULT_MAX_FRAME, PROTO_VERSION,
};
use bloofi::BloofiIndex;
use bloom::{AtomicBlockedBloomFilter, RegisterBlockedBloomFilter, TwoChoiceRegisterBloomFilter};
use compacting::{CompactingConfig, CompactingFilter};
use concurrent::{Sharded, MAX_SHARD_BITS};
use cuckoo::CuckooFilter;
use filter_core::{BatchedFilter, ByteReader, ByteWriter, Filter, FilterError, SerialError};
use quotient::CountingQuotientFilter;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, SystemTime};
use telemetry::expo::{FamilyKind, TextRenderer};
use telemetry::StaticCounter;

/// MULTI_CONTAINS requests served (each fans one key batch across
/// the whole registry through the Bloofi index).
pub static MULTI_CONTAINS_REQUESTS: StaticCounter = StaticCounter::new(
    "bb_multi_contains_requests_total",
    "MULTI_CONTAINS requests served.",
);

/// Keys looked up across the registry by MULTI_CONTAINS requests.
pub static MULTI_CONTAINS_KEYS: StaticCounter = StaticCounter::new(
    "bb_multi_contains_keys_total",
    "Keys looked up across the registry by MULTI_CONTAINS.",
);

/// Names MULTI_CONTAINS returned, each a Bloofi candidate its own
/// filter confirmed. Over `bb_bloofi_candidates_sum` (the candidates
/// the same lookups proposed) it is the index's useful ratio.
pub static MULTI_CONTAINS_NAMES: StaticCounter = StaticCounter::new(
    "bb_multi_contains_names_total",
    "Filter names MULTI_CONTAINS returned after confirming Bloofi candidates.",
);

/// Eagerly register this crate's metric families so they render in
/// the exposition even before any traffic touches them.
pub fn register_metrics() {
    MULTI_CONTAINS_REQUESTS.register();
    MULTI_CONTAINS_KEYS.register();
    MULTI_CONTAINS_NAMES.register();
}

/// Register every layer's metric families (filter crates + this one)
/// so the first scrape renders them all, traffic or not. The server
/// calls this from `bind`.
pub(crate) fn register_all_layers() {
    bloom::register_metrics();
    cuckoo::register_metrics();
    quotient::register_metrics();
    concurrent::register_metrics();
    compacting::register_metrics();
    bloofi::register_metrics();
    telemetry::trace::register_metrics();
    register_metrics();
}

/// Tuning knobs of [`crate::evented::EventedFilterServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Per-connection frame payload limit; larger length prefixes are
    /// refused before allocation.
    pub max_frame: u32,
    /// Readiness-wait tick: the cadence at which each loop polls the
    /// shutdown flag and sweeps idle connections.
    pub read_timeout: Duration,
    /// Largest `capacity` a CREATE may request (bounds server memory
    /// taken by one request). Filter size is linear in capacity and
    /// grows with `log(1/eps)`, and CREATE's `eps` is floored at
    /// [`compacting::MIN_EPS`], so at the default 2²⁸ one CREATE
    /// allocates at most ~2.3 GB: 2.32 GB for the sharded CQF, 0.24
    /// to 2.15 GB for the other backends.
    pub max_capacity: u64,
    /// Requests slower than this land in the slow-request log, whose
    /// length is `bb_server_slow_requests_total`. METRICS renders the
    /// log as `# slow ...` comment lines with opcode/backend/batch
    /// context.
    pub slow_request_threshold: Duration,
    /// Close a connection that has not delivered a complete frame for
    /// this long (`None` disables the deadline). Dribbling bytes of a
    /// frame still counts as progress only when a frame completes —
    /// this is the slow-loris backstop, not a per-read timeout.
    pub idle_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_frame: DEFAULT_MAX_FRAME,
            read_timeout: Duration::from_millis(50),
            max_capacity: 1 << 28,
            slow_request_threshold: Duration::from_millis(10),
            idle_timeout: None,
        }
    }
}

/// A filter instance the server can host.
///
/// The six backends cover the tutorial's concurrency spectrum: a
/// wait-free atomic blocked Bloom (insert/contains only), a sharded
/// cuckoo filter (adds deletion), a sharded counting quotient filter
/// (adds multiplicity counts), the SIMD register-blocked Bloom
/// (insert/contains at one mask compare per key), the compacting
/// filter LSM (insert/contains at static-filter space, background
/// compaction into fuse tiers), and the two-choice register-blocked
/// Bloom (emptier-block placement for one-choice FPR at ~2 extra
/// bits/key).
pub enum ServedFilter {
    /// Wait-free insert/contains; no deletion, no counts.
    Bloom(AtomicBlockedBloomFilter),
    /// Deletable membership via sharded cuckoo.
    Cuckoo(Sharded<CuckooFilter>),
    /// Counting + deletable via sharded CQF.
    Cqf(Sharded<CountingQuotientFilter>),
    /// Sharded register-blocked Bloom: insert/contains through the
    /// vectorised probe engine; no deletion, no counts.
    RegisterBloom(Sharded<RegisterBlockedBloomFilter>),
    /// Compacting filter LSM: wait-free insert/contains, background
    /// compaction into static fuse tiers; no deletion, no counts.
    Compacting(CompactingFilter),
    /// Sharded two-choice register-blocked Bloom: insert places into
    /// the emptier of two candidate blocks, contains ORs two probes;
    /// no deletion, no counts.
    TwoChoice(Sharded<TwoChoiceRegisterBloomFilter>),
}

impl ServedFilter {
    /// Which wire-protocol backend tag this instance answers to.
    pub fn backend(&self) -> Backend {
        match self {
            ServedFilter::Bloom(_) => Backend::AtomicBloom,
            ServedFilter::Cuckoo(_) => Backend::ShardedCuckoo,
            ServedFilter::Cqf(_) => Backend::ShardedCqf,
            ServedFilter::RegisterBloom(_) => Backend::RegisterBloom,
            ServedFilter::Compacting(_) => Backend::Compacting,
            ServedFilter::TwoChoice(_) => Backend::TwoChoiceBloom,
        }
    }

    /// Single-key membership, whatever the backend — the
    /// MULTI_CONTAINS candidate-confirmation probe.
    pub fn contains_one(&self, key: u64) -> bool {
        match self {
            ServedFilter::Bloom(f) => f.contains(key),
            ServedFilter::Cuckoo(f) => f.contains(key),
            ServedFilter::Cqf(f) => f.contains(key),
            ServedFilter::RegisterBloom(f) => f.contains(key),
            ServedFilter::Compacting(f) => f.contains(key),
            ServedFilter::TwoChoice(f) => f.contains(key),
        }
    }

    fn len(&self) -> usize {
        match self {
            ServedFilter::Bloom(f) => f.len(),
            ServedFilter::Cuckoo(f) => f.len(),
            ServedFilter::Cqf(f) => f.len(),
            ServedFilter::RegisterBloom(f) => f.len(),
            ServedFilter::Compacting(f) => f.len(),
            ServedFilter::TwoChoice(f) => f.len(),
        }
    }

    fn size_in_bytes(&self) -> usize {
        match self {
            ServedFilter::Bloom(f) => f.size_in_bytes(),
            ServedFilter::Cuckoo(f) => f.size_in_bytes(),
            ServedFilter::Cqf(f) => f.size_in_bytes(),
            ServedFilter::RegisterBloom(f) => f.size_in_bytes(),
            ServedFilter::Compacting(f) => f.size_in_bytes(),
            ServedFilter::TwoChoice(f) => f.size_in_bytes(),
        }
    }

    /// Per-shard operation counts for the sharded backends (`None`
    /// for the unsharded atomic Bloom). METRICS renders these as
    /// `bb_filter_shard_ops_total{name,shard}` so skewed key streams
    /// show up as skewed shard loads.
    pub fn shard_ops(&self) -> Option<Vec<u64>> {
        match self {
            ServedFilter::Bloom(_) => None,
            ServedFilter::Cuckoo(f) => Some(f.shard_ops()),
            ServedFilter::Cqf(f) => Some(f.shard_ops()),
            ServedFilter::RegisterBloom(f) => Some(f.shard_ops()),
            ServedFilter::Compacting(_) => None,
            ServedFilter::TwoChoice(f) => Some(f.shard_ops()),
        }
    }

    /// Serialize into a portable blob a blob-CREATE on any node can
    /// rebuild: raw `to_bytes` for the unsharded backends, the
    /// multi-shard envelope for the sharded ones (preserving shard
    /// structure and per-shard seeds across migration).
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        match self {
            ServedFilter::Bloom(f) => f.to_bytes(),
            ServedFilter::Cuckoo(f) => encode_shard_envelope(&f.for_each_shard(|s| s.to_bytes())),
            ServedFilter::Cqf(f) => encode_shard_envelope(&f.for_each_shard(|s| s.to_bytes())),
            ServedFilter::RegisterBloom(f) => {
                encode_shard_envelope(&f.for_each_shard(|s| s.to_bytes()))
            }
            ServedFilter::Compacting(f) => f.to_bytes(),
            ServedFilter::TwoChoice(f) => {
                encode_shard_envelope(&f.for_each_shard(|s| s.to_bytes()))
            }
        }
    }
}

/// Magic prefix of the multi-shard snapshot envelope. Chosen to
/// collide with none of the per-filter serialization magics, so
/// blob-CREATE can sniff envelope vs raw single-filter blob.
pub(crate) const SHARD_ENVELOPE_MAGIC: u32 = 0x5AED_B10C;

/// `magic | u32 shard count | count × length-prefixed shard blobs`.
fn encode_shard_envelope(shards: &[Vec<u8>]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(SHARD_ENVELOPE_MAGIC);
    w.put_u32(shards.len() as u32);
    for blob in shards {
        w.put_bytes(blob);
    }
    w.into_bytes()
}

/// Split an envelope back into per-shard blobs. `None` when the bytes
/// do not start with the envelope magic (caller falls back to the raw
/// single-filter path); `Some(Err)` when the envelope itself is
/// malformed.
fn decode_shard_envelope(bytes: &[u8]) -> Option<Result<Vec<Vec<u8>>, SerialError>> {
    if bytes.len() < 4 || bytes[..4] != SHARD_ENVELOPE_MAGIC.to_le_bytes() {
        return None;
    }
    Some((|| {
        let mut r = ByteReader::new(bytes);
        r.take_u32()?; // magic, checked above
        let n = r.take_u32()? as usize;
        if n == 0 || !n.is_power_of_two() || n > 1 << MAX_SHARD_BITS {
            return Err(SerialError::Corrupt("envelope shard count"));
        }
        let mut shards = Vec::with_capacity(n);
        for _ in 0..n {
            shards.push(r.take_bytes()?);
        }
        if r.remaining() != 0 {
            return Err(SerialError::Corrupt("trailing bytes after envelope"));
        }
        Ok(shards)
    })())
}

/// Per-request context carried from dispatch to the slow-request log.
/// Opaque outside the crate; benches that drive [`dispatch`] directly
/// simply discard it.
#[derive(Clone, Copy, Default)]
pub struct ReqInfo {
    /// Request opcode (named by `proto::op_name`), or 0 when the
    /// payload failed decoding.
    op: u8,
    /// Backend the request resolved to, when it named a filter.
    backend: Option<Backend>,
    /// Keys carried by the request (batch size).
    batch: u32,
}

impl ReqInfo {
    /// Pack into one `u64` for a slow-log entry:
    /// `op << 56 | (backend_tag + 1) << 48 | batch` (backend 0 means
    /// "none").
    fn packed(self) -> u64 {
        let be = self.backend.map_or(0, |b| b.to_u32() as u64 + 1);
        (self.op as u64) << 56 | be << 48 | self.batch as u64
    }

    /// Inverse of [`ReqInfo::packed`], for rendering the slow log.
    fn unpack(b: u64) -> (u8, &'static str, u32) {
        let op = (b >> 56) as u8;
        let backend = match ((b >> 48) & 0xff) as u32 {
            0 => "-",
            tag => Backend::from_u32(tag - 1).map_or("-", |b| b.name()),
        };
        (op, backend, b as u32)
    }
}

/// One entry of the slow-request log.
pub(crate) struct SlowEntry {
    /// Monotone sequence number (total slow requests ever logged).
    pub seq: u64,
    /// Wall-clock microseconds since the UNIX epoch.
    pub t_us: u64,
    /// Service time in nanoseconds.
    pub latency_ns: u64,
    /// Packed opcode/backend/batch context ([`ReqInfo::packed`]).
    pub packed: u64,
    /// The requesting peer, when the transport knows it.
    pub peer: Option<SocketAddr>,
    /// Trace the request belonged to (0 when untraced).
    pub trace_id: u64,
}

/// Bounded newest-first slow-request log. Entries carry the peer
/// address and trace id, overwrites on wrap are counted (`dropped`),
/// and `emitted` is the server's slow-request count.
pub(crate) struct SlowLog {
    cap: usize,
    emitted: AtomicU64,
    entries: Mutex<VecDeque<SlowEntry>>,
}

impl SlowLog {
    fn new(cap: usize) -> SlowLog {
        SlowLog {
            cap: cap.max(1),
            emitted: AtomicU64::new(0),
            entries: Mutex::new(VecDeque::new()),
        }
    }

    fn emit(&self, latency_ns: u64, packed: u64, peer: Option<SocketAddr>, trace_id: u64) {
        let seq = self.emitted.fetch_add(1, Ordering::Relaxed);
        let t_us = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_micros().min(u64::MAX as u128) as u64)
            .unwrap_or(0);
        let mut g = self.entries.lock().unwrap_or_else(|p| p.into_inner());
        if g.len() == self.cap {
            g.pop_front();
        }
        g.push_back(SlowEntry {
            seq,
            t_us,
            latency_ns,
            packed,
            peer,
            trace_id,
        });
    }

    /// Oldest-to-newest copy of the retained entries.
    pub(crate) fn snapshot(&self) -> Vec<SlowEntry> {
        let g = self.entries.lock().unwrap_or_else(|p| p.into_inner());
        g.iter()
            .map(|e| SlowEntry {
                seq: e.seq,
                t_us: e.t_us,
                latency_ns: e.latency_ns,
                packed: e.packed,
                peer: e.peer,
                trace_id: e.trace_id,
            })
            .collect()
    }

    /// Entries ever logged.
    pub(crate) fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::Relaxed)
    }

    /// Entries overwritten by wrap (0 until the log fills).
    pub(crate) fn dropped(&self) -> u64 {
        self.emitted().saturating_sub(self.cap as u64)
    }
}

/// Cuckoo fingerprint width hitting a target FPR: the filter's false
/// positive rate is ≈ `2b / 2^f` with `b = 4` slots per bucket, so
/// `f = ceil(log2(8 / eps))`, clamped to the implementation's 2..=32.
pub fn cuckoo_fp_bits(eps: f64) -> u32 {
    ((8.0 / eps).log2().ceil() as u32).clamp(2, 32)
}

/// Build the Bloom backend exactly as the server does for a CREATE
/// with these parameters — tests use this to construct a bit-identical
/// in-process oracle.
pub fn build_atomic_bloom(capacity: u64, eps: f64, seed: u64) -> AtomicBlockedBloomFilter {
    AtomicBlockedBloomFilter::with_seed(capacity as usize, eps, seed)
}

/// Build the sharded-cuckoo backend exactly as the server does
/// (per-shard seeds derived from `seed` so shards stay decorrelated
/// but the whole construction is reproducible).
pub fn build_sharded_cuckoo(
    capacity: u64,
    eps: f64,
    shard_bits: u32,
    seed: u64,
) -> Sharded<CuckooFilter> {
    let per_shard = ((capacity as usize) >> shard_bits).max(64);
    let fp_bits = cuckoo_fp_bits(eps);
    Sharded::new(shard_bits, |i| {
        CuckooFilter::with_params(
            per_shard,
            fp_bits,
            cuckoo::filter::BUCKET_SIZE,
            seed ^ (0xcc00 + i as u64),
        )
    })
}

/// Build the sharded-CQF backend exactly as the server does. Shards
/// auto-expand, so a CREATE capacity is a sizing hint rather than a
/// hard limit (matching the CQF's own `for_capacity` contract).
pub fn build_sharded_cqf(
    capacity: u64,
    eps: f64,
    shard_bits: u32,
    seed: u64,
) -> Sharded<CountingQuotientFilter> {
    let per_shard = ((capacity as usize) >> shard_bits).max(64);
    let slots = (per_shard as f64 / quotient::qf::DEFAULT_MAX_LOAD).ceil() as usize;
    let q = slots.next_power_of_two().trailing_zeros().max(4);
    let r = ((1.0 / eps).log2().ceil() as u32).clamp(2, 60.min(64 - q));
    Sharded::new(shard_bits, |i| {
        let mut f = CountingQuotientFilter::with_seed(q, r, seed ^ (0xc0f0 + i as u64));
        f.set_auto_expand(true);
        f
    })
}

/// Build the register-blocked Bloom backend exactly as the server
/// does (per-shard seeds derived from `seed`, matching the other
/// sharded builders so tests can construct bit-identical oracles).
pub fn build_sharded_register_bloom(
    capacity: u64,
    eps: f64,
    shard_bits: u32,
    seed: u64,
) -> Sharded<RegisterBlockedBloomFilter> {
    let per_shard = ((capacity as usize) >> shard_bits).max(64);
    Sharded::new(shard_bits, |i| {
        RegisterBlockedBloomFilter::with_seed(per_shard, eps, seed ^ (0x4b10 + i as u64))
    })
}

/// Build the two-choice register-blocked Bloom backend exactly as
/// the server does (per-shard seeds derived from `seed`, matching the
/// other sharded builders so tests can construct bit-identical
/// oracles).
pub fn build_sharded_two_choice(
    capacity: u64,
    eps: f64,
    shard_bits: u32,
    seed: u64,
) -> Sharded<TwoChoiceRegisterBloomFilter> {
    let per_shard = ((capacity as usize) >> shard_bits).max(64);
    Sharded::new(shard_bits, |i| {
        TwoChoiceRegisterBloomFilter::with_seed(per_shard, eps, seed ^ (0x2c10 + i as u64))
    })
}

/// Build the compacting backend exactly as the server does for a
/// CREATE with these parameters. The memtable front holds 1/16th of
/// the stated capacity (floored at 1024 keys) so steady-state space
/// is dominated by the static fuse tiers, not the mutable front.
pub fn build_compacting(capacity: u64, eps: f64, seed: u64) -> CompactingFilter {
    let front = ((capacity as usize) / 16).max(1024);
    CompactingFilter::new(CompactingConfig::new(front, eps, seed))
}

/// Everything a filter server is apart from its sockets: filter
/// table, metrics, slow-request log, shutdown flag, config,
/// dispatcher. Each running server owns one.
pub struct Engine {
    /// The filter table: every served filter by name, each in a
    /// Bloofi slot whose payload is the filter. MULTI_CONTAINS scans
    /// the bit-sliced matrix instead of probing every filter and
    /// confirms a candidate through its slot. Key inserts hit the
    /// index *before* the filter, so the index is always a superset
    /// of filter contents — never a false negative.
    pub(crate) filters: RwLock<BloofiIndex<Arc<ServedFilter>>>,
    pub(crate) metrics: ServerMetrics,
    /// Slow-request log: newest 256 requests over the threshold, with
    /// packed opcode/backend/batch context (see [`ReqInfo::packed`]),
    /// the peer address, and the trace id when the request was traced.
    pub(crate) slowlog: SlowLog,
    pub(crate) stop: AtomicBool,
    pub(crate) config: ServerConfig,
}

impl Engine {
    /// Fresh engine with an empty filter table.
    pub fn new(config: ServerConfig) -> Engine {
        Engine {
            filters: RwLock::new(BloofiIndex::new()),
            metrics: ServerMetrics::new(),
            slowlog: SlowLog::new(256),
            stop: AtomicBool::new(false),
            config,
        }
    }

    /// Has shutdown been requested?
    pub(crate) fn stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// The per-server counters (the `bb_server_*` METRICS families).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// Install a filter directly, bypassing the wire CREATE. Returns
    /// `false` when the name is already taken. The filter arrived
    /// pre-built, so its key set is unknown: it is indexed saturated
    /// (conservative — always a candidate, never a false negative).
    pub fn register(&self, name: &str, filter: ServedFilter) -> bool {
        let mut filters = write_lock(&self.filters);
        filters.add_filter(name, Arc::new(filter)) && filters.saturate_filter(name)
    }

    /// Install a filter directly *with* its key inventory: the index
    /// gets an exact column instead of a saturated one, so
    /// MULTI_CONTAINS can prune this filter. The caller warrants that
    /// `keys` is exactly the set inserted into `filter` — missing
    /// keys would surface as index false negatives. Returns `false`
    /// when the name is already taken.
    pub fn register_tracked(&self, name: &str, filter: ServedFilter, keys: &[u64]) -> bool {
        let mut filters = write_lock(&self.filters);
        filters.add_filter(name, Arc::new(filter)) && filters.insert_keys(name, keys).is_some()
    }

    /// Heap bytes of the Bloofi index (experiment E26 reports it).
    pub fn index_size_in_bytes(&self) -> usize {
        read_lock(&self.filters).size_in_bytes()
    }

    /// Which registered filters (probably) contain each key — the
    /// MULTI_CONTAINS core. Candidates come from a Bloofi matrix scan
    /// per key (8 rows of ⌈N/64⌉ words, in 32-key chunks), then each
    /// candidate slot's own filter confirms it: no false negatives
    /// (the index covers every inserted key), and false positives
    /// only where a candidate filter itself false-positives. The
    /// answer is a subset of the flat scan's — a filter
    /// false-positive the index never proposed is (correctly) never
    /// reported. Per-key lists are sorted. One read lock covers the
    /// scan and every confirmation, so a slot cannot be freed and
    /// reused between the two.
    pub fn multi_contains(&self, keys: &[u64]) -> Vec<Vec<String>> {
        let filters = {
            let _lock_sp = telemetry::trace::span("engine:lock");
            read_lock(&self.filters)
        };
        let mut out = Vec::with_capacity(keys.len());
        let mut candidates = Vec::new();
        let mut returned = 0;
        for chunk in keys.chunks(filter_core::PROBE_CHUNK) {
            filters.multi_contains_chunk(chunk, &mut candidates);
            for (&key, slots) in chunk.iter().zip(&candidates) {
                let mut names: Vec<String> = slots
                    .iter()
                    .map(|&slot| filters.tenant(slot))
                    .filter(|(_, f)| f.contains_one(key))
                    .map(|(name, _)| name.to_string())
                    .collect();
                names.sort_unstable();
                returned += names.len();
                out.push(names);
            }
        }
        MULTI_CONTAINS_NAMES.add(returned as u64);
        out
    }

    /// The flat-registry answer to the same question: probe every
    /// filter for every key. This is the oracle MULTI_CONTAINS is
    /// measured against (experiment E26) and must stay semantically
    /// identical to [`multi_contains`](Self::multi_contains).
    pub fn multi_contains_flat(&self, keys: &[u64]) -> Vec<Vec<String>> {
        let filters = read_lock(&self.filters);
        keys.iter()
            .map(|&key| {
                filters
                    .iter()
                    .filter(|(_, f)| f.contains_one(key))
                    .map(|(name, _)| name.to_string())
                    .collect()
            })
            .collect()
    }

    /// Account one fully-served request: the latency histogram, and
    /// the slow-request log (whose length is the slow counter). The
    /// server calls this after the response is queued, passing the
    /// request guard's trace id — minted on demand for slow requests,
    /// 0 when no trace will be stored — so the slow-log line and the
    /// tail-captured trace share an id. Public for the same reason as
    /// [`dispatch`]: the E27 bench harness drives the exact per-frame
    /// accounting path in-process, without sockets.
    pub fn record_request(
        &self,
        dt: Duration,
        info: ReqInfo,
        peer: Option<SocketAddr>,
        trace_id: u64,
    ) {
        self.metrics.request_latency.record(dt);
        if dt >= self.config.slow_request_threshold {
            self.slowlog.emit(
                dt.as_nanos().min(u64::MAX as u128) as u64,
                info.packed(),
                peer,
                trace_id,
            );
        }
    }
}

pub(crate) fn read_lock<T>(l: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|p| p.into_inner())
}

pub(crate) fn write_lock<T>(l: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|p| p.into_inner())
}

pub(crate) fn err(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error {
        code,
        message: message.into(),
    }
}

fn filter_err(e: FilterError) -> Response {
    err(ErrorCode::Filter, e.to_string())
}

/// Decode one frame payload and execute it against the registry.
/// Returns the response plus the request context the slow-request log
/// records. Public so the bench harness (E27) can drive the exact
/// server dispatch path in-process, without sockets.
pub fn dispatch(engine: &Engine, payload: &[u8]) -> (Response, ReqInfo) {
    // A payload that fails decoding is answered and logged as opcode 0.
    let refuse = |code, message: String| {
        engine.metrics.protocol_errors.inc();
        (err(code, message), ReqInfo::default())
    };
    let req = match Request::decode(payload) {
        Ok(Ok(req)) => req,
        Ok(Err(op)) => return refuse(ErrorCode::UnknownOpcode, format!("unknown opcode {op}")),
        Err(HeaderError::Version(v)) => {
            let message = format!("version {v}, this server speaks {PROTO_VERSION}");
            return refuse(ErrorCode::UnsupportedVersion, message);
        }
        Err(HeaderError::Serial(e)) => {
            return refuse(ErrorCode::BadFrame, format!("malformed payload: {e}"))
        }
    };
    let op = req.opcode() as u8;
    let (resp, backend, batch) = match req {
        Request::Create {
            name,
            backend,
            capacity,
            eps,
            shard_bits,
            seed,
            blob,
        } => (
            handle_create(
                engine, &name, backend, capacity, eps, shard_bits, seed, &blob,
            ),
            Some(backend),
            0,
        ),
        Request::Insert { name, keys } => {
            let (resp, backend) = handle_insert(engine, &name, &keys);
            (resp, backend, keys.len())
        }
        Request::Contains { name, keys } => {
            let (resp, backend) = handle_contains(engine, &name, &keys);
            (resp, backend, keys.len())
        }
        Request::Count { name, keys } => {
            let (resp, backend) = handle_count(engine, &name, &keys);
            (resp, backend, keys.len())
        }
        Request::Delete { name, keys } => {
            let (resp, backend) = handle_delete(engine, &name, &keys);
            (resp, backend, keys.len())
        }
        Request::Stats => (handle_stats(engine), None, 0),
        Request::Metrics => (Response::Text(render_metrics(engine)), None, 0),
        Request::Snapshot { name } => {
            let (resp, backend) = handle_snapshot(engine, &name);
            (resp, backend, 0)
        }
        Request::Forget { name } => (handle_forget(engine, &name), None, 0),
        Request::MultiContains { keys } => (handle_multi_contains(engine, &keys), None, keys.len()),
        Request::Traces { trace_id } => (
            Response::Traces(telemetry::trace::store().take(trace_id)),
            None,
            0,
        ),
    };
    let info = ReqInfo {
        op,
        backend,
        batch: batch as u32,
    };
    (resp, info)
}

fn no_such_filter(name: &str) -> Response {
    err(ErrorCode::NoSuchFilter, format!("no filter named '{name}'"))
}

// `Response` is as large as its Stats variant; error responses here
// are always the small Error variant and are immediately serialised,
// so boxing would only add an allocation to the hot error path.
#[allow(clippy::result_large_err)]
fn lookup(engine: &Engine, name: &str) -> Result<Arc<ServedFilter>, Response> {
    // The span covers lock acquisition + the name lookup; the filter
    // call itself runs after the lock is released.
    let _sp = telemetry::trace::span("engine:lock");
    read_lock(&engine.filters)
        .get(name)
        .cloned()
        .ok_or_else(|| no_such_filter(name))
}

#[allow(clippy::too_many_arguments)]
fn handle_create(
    engine: &Engine,
    name: &str,
    backend: Backend,
    capacity: u64,
    eps: f64,
    shard_bits: u32,
    seed: u64,
    blob: &[u8],
) -> Response {
    if !name.chars().all(|c| c.is_ascii_graphic()) {
        return err(
            ErrorCode::BadName,
            "filter names must be printable ASCII without spaces",
        );
    }
    // Fast-path duplicate check without building anything.
    if read_lock(&engine.filters).get(name).is_some() {
        return err(ErrorCode::FilterExists, format!("'{name}' already exists"));
    }
    let filter = if blob.is_empty() {
        if capacity == 0 || capacity > engine.config.max_capacity {
            return err(
                ErrorCode::Filter,
                format!(
                    "capacity {capacity} outside 1..={}",
                    engine.config.max_capacity
                ),
            );
        }
        if !(compacting::MIN_EPS..=0.5).contains(&eps) {
            return err(
                ErrorCode::Filter,
                format!("eps {eps} outside [{}, 0.5]", compacting::MIN_EPS),
            );
        }
        if shard_bits > MAX_SHARD_BITS {
            return err(
                ErrorCode::Filter,
                format!("shard_bits {shard_bits} > {MAX_SHARD_BITS}"),
            );
        }
        match backend {
            Backend::AtomicBloom => ServedFilter::Bloom(build_atomic_bloom(capacity, eps, seed)),
            Backend::ShardedCuckoo => {
                ServedFilter::Cuckoo(build_sharded_cuckoo(capacity, eps, shard_bits, seed))
            }
            Backend::ShardedCqf => {
                ServedFilter::Cqf(build_sharded_cqf(capacity, eps, shard_bits, seed))
            }
            Backend::RegisterBloom => ServedFilter::RegisterBloom(build_sharded_register_bloom(
                capacity, eps, shard_bits, seed,
            )),
            Backend::Compacting => ServedFilter::Compacting(build_compacting(capacity, eps, seed)),
            Backend::TwoChoiceBloom => {
                ServedFilter::TwoChoice(build_sharded_two_choice(capacity, eps, shard_bits, seed))
            }
        }
    } else {
        // A pre-built filter shipped over the wire; `from_bytes` does
        // the structural validation (untrusted input). Sharded
        // backends also accept the multi-shard envelope SNAPSHOT
        // produces, rebuilding the original shard structure.
        match build_from_blob(backend, blob) {
            Ok(f) => f,
            Err(resp) => return resp,
        }
    };
    // Re-check under the write lock: a racing CREATE may have won.
    let mut filters = write_lock(&engine.filters);
    if !filters.add_filter(name, Arc::new(filter)) {
        return err(ErrorCode::FilterExists, format!("'{name}' already exists"));
    }
    // A blob arrived pre-populated with keys we cannot enumerate, so
    // it is saturated; a parameter build starts empty and accumulates
    // from wire INSERTs.
    if !blob.is_empty() {
        filters.saturate_filter(name);
    }
    Response::Ok
}

/// Rebuild a [`ServedFilter`] from an untrusted blob: the inverse of
/// [`ServedFilter::snapshot_bytes`], also accepting a raw single
/// `to_bytes` image for the sharded backends (pre-envelope clients).
#[allow(clippy::result_large_err)]
fn build_from_blob(backend: Backend, blob: &[u8]) -> Result<ServedFilter, Response> {
    fn shards_from<F>(
        backend_name: &str,
        blob: &[u8],
        from: impl Fn(&[u8]) -> Result<F, SerialError>,
    ) -> Result<Sharded<F>, Response> {
        match decode_shard_envelope(blob) {
            Some(Ok(shard_blobs)) => {
                let mut shards = Vec::with_capacity(shard_blobs.len());
                for sb in &shard_blobs {
                    shards.push(from(sb).map_err(|e| {
                        err(
                            ErrorCode::Filter,
                            format!("bad {backend_name} shard blob: {e}"),
                        )
                    })?);
                }
                Ok(Sharded::from_shards(shards))
            }
            Some(Err(e)) => Err(err(
                ErrorCode::Filter,
                format!("bad {backend_name} envelope: {e}"),
            )),
            None => from(blob)
                .map(|f| Sharded::from_shards(vec![f]))
                .map_err(|e| err(ErrorCode::Filter, format!("bad {backend_name} blob: {e}"))),
        }
    }
    Ok(match backend {
        Backend::AtomicBloom => match AtomicBlockedBloomFilter::from_bytes(blob) {
            Ok(f) => ServedFilter::Bloom(f),
            Err(e) => {
                return Err(err(
                    ErrorCode::Filter,
                    format!("bad atomic-bloom blob: {e}"),
                ))
            }
        },
        Backend::ShardedCuckoo => {
            ServedFilter::Cuckoo(shards_from("cuckoo", blob, CuckooFilter::from_bytes)?)
        }
        Backend::ShardedCqf => ServedFilter::Cqf(shards_from(
            "cqf",
            blob,
            CountingQuotientFilter::from_bytes,
        )?),
        Backend::RegisterBloom => ServedFilter::RegisterBloom(shards_from(
            "register-bloom",
            blob,
            RegisterBlockedBloomFilter::from_bytes,
        )?),
        Backend::Compacting => match CompactingFilter::from_bytes(blob) {
            Ok(f) => ServedFilter::Compacting(f),
            Err(e) => return Err(err(ErrorCode::Filter, format!("bad compacting blob: {e}"))),
        },
        Backend::TwoChoiceBloom => ServedFilter::TwoChoice(shards_from(
            "two-choice-bloom",
            blob,
            TwoChoiceRegisterBloomFilter::from_bytes,
        )?),
    })
}

fn handle_insert(engine: &Engine, name: &str, keys: &[u64]) -> (Response, Option<Backend>) {
    // Index first, filter second: a concurrent MULTI_CONTAINS then
    // sees the index as a superset of every filter's contents, so a
    // candidate miss is equivalent to linearising before this insert
    // — never a false negative. (A failed filter insert below leaves
    // harmless extra index bits.) One name lookup finds the column
    // and the filter, under one read lock.
    let filters = {
        let _sp = telemetry::trace::span("engine:lock");
        read_lock(&engine.filters)
    };
    let Some(f) = filters.insert_keys(name, keys).map(Arc::clone) else {
        return (no_such_filter(name), None);
    };
    drop(filters);
    let backend = Some(f.backend());
    engine.metrics.keys_processed.add(keys.len() as u64);
    if keys.len() > 1 {
        engine.metrics.batched_ops.add(keys.len() as u64);
    }
    let sp = telemetry::trace::span("engine:insert");
    sp.annotate(keys.len() as u64, 0);
    let resp = match &*f {
        ServedFilter::Bloom(b) => {
            b.insert_batch(keys);
            Response::Ok
        }
        ServedFilter::Cuckoo(c) => match c.insert_batch(keys) {
            Ok(()) => Response::Ok,
            Err(e) => filter_err(e),
        },
        ServedFilter::Cqf(q) => match q.insert_batch(keys) {
            Ok(()) => Response::Ok,
            Err(e) => filter_err(e),
        },
        ServedFilter::RegisterBloom(r) => match r.insert_batch(keys) {
            Ok(()) => Response::Ok,
            Err(e) => filter_err(e),
        },
        ServedFilter::Compacting(f) => {
            f.insert_batch(keys);
            Response::Ok
        }
        ServedFilter::TwoChoice(t) => match t.insert_batch(keys) {
            Ok(()) => Response::Ok,
            Err(e) => filter_err(e),
        },
    };
    (resp, backend)
}

fn handle_contains(engine: &Engine, name: &str, keys: &[u64]) -> (Response, Option<Backend>) {
    let f = match lookup(engine, name) {
        Ok(f) => f,
        Err(resp) => return (resp, None),
    };
    let backend = Some(f.backend());
    engine.metrics.keys_processed.add(keys.len() as u64);
    if keys.len() > 1 {
        engine.metrics.batched_ops.add(keys.len() as u64);
    }
    let sp = telemetry::trace::span("engine:probe");
    sp.annotate(keys.len() as u64, 0);
    let resp = Response::Bools(match &*f {
        ServedFilter::Bloom(b) => b.contains_batch(keys),
        ServedFilter::Cuckoo(c) => c.contains_batch(keys),
        ServedFilter::Cqf(q) => q.contains_batch(keys),
        ServedFilter::RegisterBloom(r) => r.contains_batch(keys),
        ServedFilter::Compacting(f) => f.contains_batch(keys),
        ServedFilter::TwoChoice(t) => t.contains_batch(keys),
    });
    (resp, backend)
}

fn handle_count(engine: &Engine, name: &str, keys: &[u64]) -> (Response, Option<Backend>) {
    let f = match lookup(engine, name) {
        Ok(f) => f,
        Err(resp) => return (resp, None),
    };
    let backend = Some(f.backend());
    let resp = match &*f {
        ServedFilter::Cqf(q) => {
            engine.metrics.keys_processed.add(keys.len() as u64);
            Response::Counts(q.count_batch(keys))
        }
        other => err(
            ErrorCode::Unsupported,
            format!("{} does not support COUNT", other.backend().name()),
        ),
    };
    (resp, backend)
}

fn handle_delete(engine: &Engine, name: &str, keys: &[u64]) -> (Response, Option<Backend>) {
    let f = match lookup(engine, name) {
        Ok(f) => f,
        Err(resp) => return (resp, None),
    };
    let backend = Some(f.backend());
    let resp = match &*f {
        ServedFilter::Cuckoo(c) => {
            engine.metrics.keys_processed.add(keys.len() as u64);
            match c.remove_batch(keys) {
                Ok(hits) => Response::Bools(hits),
                Err(e) => filter_err(e),
            }
        }
        ServedFilter::Cqf(q) => {
            engine.metrics.keys_processed.add(keys.len() as u64);
            // Remove one occurrence per listed key; a missing key
            // (`FilterError::NotFound`) is a per-key `false`, not a
            // request failure.
            let hits = keys.iter().map(|&k| q.remove_count(k, 1).is_ok()).collect();
            Response::Bools(hits)
        }
        other => err(
            ErrorCode::Unsupported,
            format!("{} does not support DELETE", other.backend().name()),
        ),
    };
    (resp, backend)
}

fn handle_snapshot(engine: &Engine, name: &str) -> (Response, Option<Backend>) {
    let f = match lookup(engine, name) {
        Ok(f) => f,
        Err(resp) => return (resp, None),
    };
    let backend = f.backend();
    (
        Response::Blob {
            backend,
            bytes: f.snapshot_bytes(),
        },
        Some(backend),
    )
}

fn handle_forget(engine: &Engine, name: &str) -> Response {
    // The filter is dropped after the write lock is released.
    let Some(_filter) = write_lock(&engine.filters).remove_filter(name) else {
        return no_such_filter(name);
    };
    Response::Ok
}

fn handle_multi_contains(engine: &Engine, keys: &[u64]) -> Response {
    MULTI_CONTAINS_REQUESTS.inc();
    MULTI_CONTAINS_KEYS.add(keys.len() as u64);
    engine.metrics.keys_processed.add(keys.len() as u64);
    if keys.len() > 1 {
        engine.metrics.batched_ops.add(keys.len() as u64);
    }
    let sp = telemetry::trace::span("engine:multi_contains");
    sp.annotate(keys.len() as u64, 0);
    Response::NameLists(engine.multi_contains(keys))
}

/// Most shards a single filter may render as per-shard series (a
/// 4096-shard filter would otherwise dominate the scrape).
const MAX_SHARD_SERIES: usize = 64;

/// Most filters the per-filter inventory gauges render as labelled
/// series — a 100k-tenant registry must not turn a METRICS scrape
/// into a megabyte document. The overflow count is exposed as the
/// `bb_filter_inventory_truncated` gauge so the cap is observable,
/// not silent.
const MAX_INVENTORY_SERIES: usize = 64;

/// Assemble the full METRICS exposition: every registered telemetry
/// family (filter-layer instrumentation), this server's request
/// counters and latency histogram, connection gauges, the filter
/// inventory as labelled gauges, per-shard op counts, and the
/// slow-request log rendered as `# slow ...` comment lines
/// (free-standing comments are legal Prometheus text).
pub(crate) fn render_metrics(engine: &Engine) -> String {
    let mut out = telemetry::render_registry();
    let mut r = TextRenderer::new();
    engine.metrics.render(&mut r, engine.slowlog.emitted());

    // The index gauges describe this server's index, so they render
    // from it (a process-wide gauge would mix the indexes of servers
    // sharing a process).
    let filters = read_lock(&engine.filters);
    r.gauge(
        "bb_bloofi_tenants",
        "Filters indexed by this server's Bloofi index.",
        filters.len() as i64,
    );
    r.gauge(
        "bb_bloofi_saturated_tenants",
        "Indexed filters whose key set is unknown (blob-created or migrated): \
         MULTI_CONTAINS candidates for every key.",
        filters.saturated_len() as i64,
    );
    // Read at scrape time: a static gauge set at bind would stay 0
    // if the telemetry switch was off then.
    r.gauge(
        "bb_simd_level",
        "Active SIMD dispatch tier (1=swar, 2=sse2, 3=avx2, 4=avx512, 5=neon).",
        i64::from(filter_core::simd::active_level().code()),
    );

    // Inventory: one labelled series per registered filter, plus
    // per-shard op counts for the sharded backends.
    r.header(
        "bb_filter_keys",
        "Distinct keys represented per served filter.",
        FamilyKind::Gauge,
    );
    for (name, f) in filters.iter().take(MAX_INVENTORY_SERIES) {
        r.sample(
            "bb_filter_keys",
            &[("name", name), ("backend", f.backend().name())],
            f.len() as f64,
        );
    }
    r.header(
        "bb_filter_size_bytes",
        "Heap bytes per served filter.",
        FamilyKind::Gauge,
    );
    for (name, f) in filters.iter().take(MAX_INVENTORY_SERIES) {
        r.sample(
            "bb_filter_size_bytes",
            &[("name", name), ("backend", f.backend().name())],
            f.size_in_bytes() as f64,
        );
    }
    // The cap above is load-bearing, so make it observable: how many
    // registered filters the inventory gauges omitted (0 when all
    // fit).
    r.gauge(
        "bb_filter_inventory_truncated",
        "Registered filters omitted from the per-filter inventory gauges by the series cap.",
        filters.len().saturating_sub(MAX_INVENTORY_SERIES) as i64,
    );
    r.header(
        "bb_filter_shard_ops_total",
        "Operations routed to each shard of a sharded filter.",
        FamilyKind::Counter,
    );
    for (name, f) in filters.iter().take(MAX_INVENTORY_SERIES) {
        let Some(ops) = f.shard_ops() else { continue };
        if ops.len() > MAX_SHARD_SERIES {
            continue;
        }
        for (i, &n) in ops.iter().enumerate() {
            let shard = i.to_string();
            r.sample(
                "bb_filter_shard_ops_total",
                &[("name", name), ("shard", &shard)],
                n as f64,
            );
        }
    }
    drop(filters);

    // Overwrite accounting for the bounded slow log: how many entries
    // it has discarded since start (0 until wrap).
    r.counter(
        "bb_slow_log_dropped",
        "Slow-request log entries overwritten by wrap.",
        engine.slowlog.dropped(),
    );

    // Slow-request log, newest last. Comment lines parse as legal
    // exposition text; scrapers that only want families skip them.
    for ev in engine.slowlog.snapshot() {
        let (op, backend, batch) = ReqInfo::unpack(ev.packed);
        let peer = ev.peer.map_or_else(|| "-".to_string(), |p| p.to_string());
        let mut line = format!(
            "slow seq={} t_us={} op={} backend={} batch={} latency_ns={} peer={}",
            ev.seq,
            ev.t_us,
            crate::proto::op_name(u32::from(op)),
            backend,
            batch,
            ev.latency_ns,
            peer,
        );
        if ev.trace_id != 0 {
            line.push_str(&format!(" trace_id={:016x}", ev.trace_id));
        }
        r.comment(&line);
    }
    out.push_str(&r.finish());
    out
}

fn handle_stats(engine: &Engine) -> Response {
    let filters = read_lock(&engine.filters)
        .iter()
        .map(|(name, f)| FilterRow {
            name: name.to_string(),
            backend: f.backend(),
            len: f.len() as u64,
            size_in_bytes: f.size_in_bytes() as u64,
        })
        .collect();
    Response::Stats(StatsReport { filters })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_envelope_roundtrips() {
        let shards: Vec<Vec<u8>> = vec![vec![1, 2, 3], vec![], vec![0xff; 100], vec![7]];
        let env = encode_shard_envelope(&shards);
        let back = decode_shard_envelope(&env).unwrap().unwrap();
        assert_eq!(back, shards);
        // Non-envelope bytes are not misdetected.
        assert!(decode_shard_envelope(b"raw filter bytes").is_none());
        assert!(decode_shard_envelope(&[]).is_none());
        // Truncated envelopes error rather than panic.
        for cut in 4..env.len() {
            assert!(decode_shard_envelope(&env[..cut]).unwrap().is_err());
        }
        // A corrupt shard count errors.
        let mut bad = env.clone();
        bad[4..8].copy_from_slice(&3u32.to_le_bytes()); // not a power of two
        assert!(decode_shard_envelope(&bad).unwrap().is_err());
    }

    #[test]
    fn snapshot_roundtrips_preserve_answers_for_every_backend() {
        let keys: Vec<u64> = (0..2_000).map(|i| i * 2 + 1).collect();
        let probes: Vec<u64> = (0..4_000).collect();
        let engine = Engine::new(ServerConfig::default());
        let builds: Vec<(&str, ServedFilter)> = vec![
            (
                "ab",
                ServedFilter::Bloom(build_atomic_bloom(4_096, 0.01, 7)),
            ),
            (
                "ck",
                ServedFilter::Cuckoo(build_sharded_cuckoo(4_096, 0.01, 2, 7)),
            ),
            (
                "qf",
                ServedFilter::Cqf(build_sharded_cqf(4_096, 0.01, 2, 7)),
            ),
            (
                "rb",
                ServedFilter::RegisterBloom(build_sharded_register_bloom(4_096, 0.01, 2, 7)),
            ),
            (
                "cp",
                ServedFilter::Compacting(build_compacting(16_384, 0.01, 7)),
            ),
            (
                "tc",
                ServedFilter::TwoChoice(build_sharded_two_choice(4_096, 0.01, 2, 7)),
            ),
        ];
        for (name, f) in builds {
            engine.register(name, f);
            let (resp, _) = dispatch(
                &engine,
                &Request::Insert {
                    name: name.into(),
                    keys: keys.clone(),
                }
                .encode(),
            );
            assert!(matches!(resp, Response::Ok), "{name}: {resp:?}");
            // Quiesce the compacting backend before snapshotting:
            // background compaction would otherwise race the
            // snapshot/query pair below — the blob freezes the
            // point-in-time shape while the original keeps
            // compacting, and the two shapes disagree on false
            // positives.
            if let ServedFilter::Compacting(c) = &*lookup(&engine, name).unwrap() {
                c.compact_all();
            }
            let (resp, _) = dispatch(&engine, &Request::Snapshot { name: name.into() }.encode());
            let Response::Blob { backend, bytes } = resp else {
                panic!("{name}: wanted Blob, got {resp:?}");
            };
            // Rebuild under a new name from the blob and compare
            // every probe answer bit-for-bit.
            let rebuilt = format!("{name}2");
            let (resp, _) = dispatch(
                &engine,
                &Request::Create {
                    name: rebuilt.clone(),
                    backend,
                    capacity: 0,
                    eps: 0.0,
                    shard_bits: 0,
                    seed: 0,
                    blob: bytes,
                }
                .encode(),
            );
            assert!(matches!(resp, Response::Ok), "{name}: {resp:?}");
            let ask = |n: &str| {
                let (resp, _) = dispatch(
                    &engine,
                    &Request::Contains {
                        name: n.into(),
                        keys: probes.clone(),
                    }
                    .encode(),
                );
                match resp {
                    Response::Bools(b) => b,
                    other => panic!("wanted Bools, got {other:?}"),
                }
            };
            assert_eq!(ask(name), ask(&rebuilt), "{name}: snapshot changed answers");
        }
        // FORGET removes, second FORGET reports NoSuchFilter.
        let (resp, _) = dispatch(&engine, &Request::Forget { name: "ab2".into() }.encode());
        assert!(matches!(resp, Response::Ok));
        let (resp, _) = dispatch(&engine, &Request::Forget { name: "ab2".into() }.encode());
        assert!(matches!(
            resp,
            Response::Error {
                code: ErrorCode::NoSuchFilter,
                ..
            }
        ));
    }

    /// The index answer must be a subset of the flat scan (every
    /// match is confirmed by that filter, so any extra flat-scan
    /// entry is a pure filter false-positive the index pruned) and
    /// sorted per key.
    fn assert_tree_within_flat(tree: &[Vec<String>], flat: &[Vec<String>]) {
        assert_eq!(tree.len(), flat.len());
        for (t, f) in tree.iter().zip(flat) {
            assert!(t.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
            for name in t {
                assert!(
                    f.contains(name),
                    "tree match '{name}' missing from flat scan"
                );
            }
        }
    }

    #[test]
    fn multi_contains_matches_flat_scan_and_survives_forget() {
        let engine = Engine::new(ServerConfig::default());
        let backends = [
            Backend::AtomicBloom,
            Backend::ShardedCuckoo,
            Backend::ShardedCqf,
            Backend::RegisterBloom,
            Backend::Compacting,
            Backend::TwoChoiceBloom,
        ];
        for (i, &backend) in backends.iter().enumerate() {
            let name = format!("mc-{}", backend.name());
            let (resp, _) = dispatch(
                &engine,
                &Request::Create {
                    name: name.clone(),
                    backend,
                    capacity: 4_096,
                    eps: 0.01,
                    shard_bits: 2,
                    seed: 11,
                    blob: vec![],
                }
                .encode(),
            );
            assert_eq!(resp, Response::Ok);
            let keys: Vec<u64> = (0..64).map(|j| (i as u64) * 100_000 + j).collect();
            let (resp, _) = dispatch(&engine, &Request::Insert { name, keys }.encode());
            assert_eq!(resp, Response::Ok);
        }
        let probes: Vec<u64> = (0..600_000).step_by(997).collect();
        let (resp, info) = dispatch(
            &engine,
            &Request::MultiContains {
                keys: probes.clone(),
            }
            .encode(),
        );
        assert_eq!(info.op, 10);
        assert_eq!(info.batch, probes.len() as u32);
        let Response::NameLists(lists) = resp else {
            panic!("wanted NameLists, got {resp:?}")
        };
        // The tree prunes filter false-positives the index never
        // proposed (a strict improvement over the flat scan), so the
        // oracle relation is subset + zero false negatives, not
        // equality.
        assert_tree_within_flat(&lists, &engine.multi_contains_flat(&probes));
        // Every inserted key names its own filter (no false negative).
        for (i, &backend) in backends.iter().enumerate() {
            let name = format!("mc-{}", backend.name());
            let keys: Vec<u64> = (0..64).map(|j| (i as u64) * 100_000 + j).collect();
            for names in engine.multi_contains(&keys) {
                assert!(names.contains(&name), "false negative in {name}");
            }
        }
        let (resp, _) = dispatch(
            &engine,
            &Request::MultiContains {
                keys: vec![0, 100_001, 500_063],
            }
            .encode(),
        );
        let Response::NameLists(lists) = resp else {
            panic!("wanted NameLists")
        };
        assert!(lists[0].contains(&"mc-atomic-bloom".to_string()));
        assert!(lists[1].contains(&"mc-sharded-cuckoo".to_string()));
        assert!(lists[2].contains(&"mc-two-choice-bloom".to_string()));
        // Forget drops the filter from the answers too.
        let (resp, _) = dispatch(
            &engine,
            &Request::Forget {
                name: "mc-atomic-bloom".into(),
            }
            .encode(),
        );
        assert_eq!(resp, Response::Ok);
        assert!(read_lock(&engine.filters).get("mc-atomic-bloom").is_none());
        let after = engine.multi_contains(&probes);
        assert_tree_within_flat(&after, &engine.multi_contains_flat(&probes));
        assert!(after
            .iter()
            .all(|l| !l.contains(&"mc-atomic-bloom".to_string())));
        // Surviving filters still resolve their inserted keys.
        assert!(engine.multi_contains(&[100_001])[0].contains(&"mc-sharded-cuckoo".to_string()));
    }

    #[test]
    fn blob_created_filters_are_saturated() {
        let engine = Engine::new(ServerConfig::default());
        // Ship a pre-built filter as a blob: the server cannot
        // enumerate its keys, so the index must treat it as
        // match-anything and let the filter itself confirm.
        let pre = build_atomic_bloom(1_024, 0.01, 3);
        for k in 500..600u64 {
            pre.insert(k);
        }
        let blob = pre.to_bytes();
        let (resp, _) = dispatch(
            &engine,
            &Request::Create {
                name: "shipped".into(),
                backend: Backend::AtomicBloom,
                capacity: 0,
                eps: 0.0,
                shard_bits: 0,
                seed: 0,
                blob,
            }
            .encode(),
        );
        assert_eq!(resp, Response::Ok);
        // Direct registration has unknown keys too.
        let direct = build_atomic_bloom(1_024, 0.01, 5);
        direct.insert(42);
        assert!(engine.register("direct", ServedFilter::Bloom(direct)));
        let probes: Vec<u64> = (0..1_000).collect();
        assert_eq!(
            engine.multi_contains(&probes),
            engine.multi_contains_flat(&probes)
        );
        assert!(engine.multi_contains(&[550])[0].contains(&"shipped".to_string()));
        assert!(engine.multi_contains(&[42])[0].contains(&"direct".to_string()));
    }
}
