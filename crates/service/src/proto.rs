//! The versioned, length-prefixed binary wire protocol.
//!
//! Every message on the wire is a *frame*:
//!
//! ```text
//! +-------------------+----------------------------+-----------------+
//! | u32 LE length     | trace context (17 bytes,   | payload         |
//! | bit 31: traced    | only when bit 31 is set)   |                 |
//! +-------------------+----------------------------+-----------------+
//! ```
//!
//! The length counts the context and the payload. Client and server
//! build frames with [`encode_frame`] and parse them with
//! [`FrameDecoder`]; no other code knows this layout.
//!
//! Every payload begins with the same 12-byte header, encoded by
//! `filter_core::serial`'s little-endian codec:
//!
//! ```text
//! u32 magic (0xBBF117AA) | u32 version (2) | u32 opcode | body...
//! ```
//!
//! Requests carry a filter name (length-prefixed UTF-8, ≤ 255 bytes)
//! and a batch of `u64` keys; batching is the unit of amortisation —
//! one frame, one registry lookup, one shard-grouped filter call for
//! any number of keys (the xor-filter paper's batch-lookup framing).
//! Membership answers come back bit-packed, 64 per word.
//!
//! Malformed payloads are rejected through the same
//! [`SerialError`]-checked decoding the persistence layer uses: a
//! truncated or corrupt frame can produce an error response, never a
//! panic or an over-read. Frame *lengths* are bounded before any
//! allocation happens (see [`FrameDecoder`]), so an adversarial length
//! prefix cannot balloon memory.

use filter_core::{ByteReader, ByteWriter, SerialError};
use std::borrow::Cow;
use std::io::{self, Read, Write};
use telemetry::trace::{SpanRecord, Trace, TraceContext};

/// Frame-payload magic: "BB" + F117 ("filter") + version-independent
/// tag byte.
pub const PROTO_MAGIC: u32 = 0xBBF1_17AA;
/// Current protocol version. Bump on any incompatible frame change;
/// servers reject other versions with [`ErrorCode::UnsupportedVersion`].
/// Version 2: the STATS answer is the filter inventory alone.
/// Version 3: TRACES names the trace it drains and always answers
/// with [`Response::Traces`].
pub const PROTO_VERSION: u32 = 3;
/// Default upper bound on a frame payload (8 MiB ≈ one million keys
/// per batch); both sides refuse larger length prefixes outright.
pub const DEFAULT_MAX_FRAME: u32 = 8 * 1024 * 1024;
/// Frame-length-word flag bit: when set, the counted body begins with
/// a 17-byte [`TraceContext`] before the payload proper. Untraced
/// frames never set it, so they stay byte-identical to the pre-trace
/// wire format; the bit sits far above any sane `max_frame`, so an
/// old peer that doesn't mask it simply rejects the frame as
/// oversized instead of misparsing it.
pub const FLAG_TRACE: u32 = 1 << 31;
/// Longest accepted filter name in bytes.
pub const MAX_NAME_LEN: usize = 255;

/// Which filter implementation backs a served instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Wait-free `bloom::AtomicBlockedBloomFilter` (insert/contains).
    AtomicBloom,
    /// `Sharded<cuckoo::CuckooFilter>` (insert/contains/delete).
    ShardedCuckoo,
    /// `Sharded<quotient::CountingQuotientFilter>`
    /// (insert/contains/count/delete).
    ShardedCqf,
    /// `Sharded<bloom::RegisterBlockedBloomFilter>` — the SIMD
    /// register-blocked backend (insert/contains).
    RegisterBloom,
    /// `compacting::CompactingFilter` — Bloom memtable front with
    /// background compaction into static fuse tiers
    /// (insert/contains).
    Compacting,
    /// `Sharded<bloom::TwoChoiceRegisterBloomFilter>` — the
    /// two-choice register-blocked backend (insert/contains).
    TwoChoiceBloom,
}

impl Backend {
    /// The wire tag (CREATE, SNAPSHOT blobs, STATS rows, slow log).
    pub(crate) fn to_u32(self) -> u32 {
        match self {
            Backend::AtomicBloom => 0,
            Backend::ShardedCuckoo => 1,
            Backend::ShardedCqf => 2,
            Backend::RegisterBloom => 3,
            Backend::Compacting => 4,
            Backend::TwoChoiceBloom => 5,
        }
    }

    /// Inverse of [`Backend::to_u32`].
    pub(crate) fn from_u32(v: u32) -> Result<Self, SerialError> {
        match v {
            0 => Ok(Backend::AtomicBloom),
            1 => Ok(Backend::ShardedCuckoo),
            2 => Ok(Backend::ShardedCqf),
            3 => Ok(Backend::RegisterBloom),
            4 => Ok(Backend::Compacting),
            5 => Ok(Backend::TwoChoiceBloom),
            _ => Err(SerialError::Corrupt("unknown backend")),
        }
    }

    /// Human-readable backend name (STATS output, slow log).
    pub fn name(&self) -> &'static str {
        match self {
            Backend::AtomicBloom => "atomic-bloom",
            Backend::ShardedCuckoo => "sharded-cuckoo",
            Backend::ShardedCqf => "sharded-cqf",
            Backend::RegisterBloom => "register-bloom",
            Backend::Compacting => "compacting",
            Backend::TwoChoiceBloom => "two-choice-bloom",
        }
    }
}

/// Machine-readable error classes carried by error responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The payload failed structural decoding.
    BadFrame,
    /// The header version is not [`PROTO_VERSION`].
    UnsupportedVersion,
    /// The header opcode is not a known request.
    UnknownOpcode,
    /// No filter registered under the given name.
    NoSuchFilter,
    /// CREATE of a name that is already registered.
    FilterExists,
    /// The filter's mutation path reported an error (capacity,
    /// eviction limit, not-found underflow...).
    Filter,
    /// The operation is not supported by this backend (e.g. COUNT on
    /// a plain membership filter).
    Unsupported,
    /// The filter name is empty, too long, or not UTF-8.
    BadName,
}

impl ErrorCode {
    fn to_u32(self) -> u32 {
        match self {
            ErrorCode::BadFrame => 1,
            ErrorCode::UnsupportedVersion => 2,
            ErrorCode::UnknownOpcode => 3,
            ErrorCode::NoSuchFilter => 4,
            ErrorCode::FilterExists => 5,
            ErrorCode::Filter => 6,
            ErrorCode::Unsupported => 7,
            ErrorCode::BadName => 8,
        }
    }

    fn from_u32(v: u32) -> Result<Self, SerialError> {
        Ok(match v {
            1 => ErrorCode::BadFrame,
            2 => ErrorCode::UnsupportedVersion,
            3 => ErrorCode::UnknownOpcode,
            4 => ErrorCode::NoSuchFilter,
            5 => ErrorCode::FilterExists,
            6 => ErrorCode::Filter,
            7 => ErrorCode::Unsupported,
            8 => ErrorCode::BadName,
            _ => return Err(SerialError::Corrupt("unknown error code")),
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

// Request opcodes (low range).
const OP_CREATE: u32 = 1;
const OP_INSERT: u32 = 2;
const OP_CONTAINS: u32 = 3;
const OP_COUNT: u32 = 4;
const OP_DELETE: u32 = 5;
const OP_STATS: u32 = 6;
const OP_METRICS: u32 = 7;
const OP_SNAPSHOT: u32 = 8;
const OP_FORGET: u32 = 9;
const OP_MULTI_CONTAINS: u32 = 10;
const OP_TRACES: u32 = 11;

/// Name of a request opcode, as the slow log prints it; `BAD` for
/// anything else, such as the 0 logged for an undecodable payload.
pub(crate) fn op_name(op: u32) -> &'static str {
    match op {
        OP_CREATE => "CREATE",
        OP_INSERT => "INSERT",
        OP_CONTAINS => "CONTAINS",
        OP_COUNT => "COUNT",
        OP_DELETE => "DELETE",
        OP_STATS => "STATS",
        OP_METRICS => "METRICS",
        OP_SNAPSHOT => "SNAPSHOT",
        OP_FORGET => "FORGET",
        OP_MULTI_CONTAINS => "MULTI_CONTAINS",
        OP_TRACES => "TRACES",
        _ => "BAD",
    }
}

// Response opcodes (high range).
const OP_OK: u32 = 128;
const OP_BOOLS: u32 = 129;
const OP_COUNTS: u32 = 130;
const OP_STATS_REPORT: u32 = 131;
const OP_ERROR: u32 = 132;
const OP_TEXT: u32 = 133;
const OP_BLOB: u32 = 134;
const OP_NAME_LISTS: u32 = 135;
const OP_TRACES_REPORT: u32 = 136;

/// A client request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Register a new named filter. With an empty `blob` the server
    /// builds from `(capacity, eps, shard_bits, seed)`; a non-empty
    /// blob ships a pre-built filter (`CuckooFilter::to_bytes` /
    /// `CountingQuotientFilter::to_bytes`) and the sizing parameters
    /// are ignored.
    Create {
        /// Registry key for the new instance.
        name: String,
        /// Implementation family.
        backend: Backend,
        /// Expected number of distinct keys.
        capacity: u64,
        /// Target false-positive rate.
        eps: f64,
        /// log2 of the shard count (ignored by the atomic Bloom
        /// backend, which is wait-free and unsharded).
        shard_bits: u32,
        /// Hash seed; the same seed rebuilds a bit-identical filter
        /// in-process (the parity-test oracle).
        seed: u64,
        /// Optional serialized pre-built filter.
        blob: Vec<u8>,
    },
    /// Insert a batch of keys.
    Insert {
        /// Target filter.
        name: String,
        /// Keys to insert.
        keys: Vec<u64>,
    },
    /// Batched membership query; answered by [`Response::Bools`].
    Contains {
        /// Target filter.
        name: String,
        /// Keys to probe.
        keys: Vec<u64>,
    },
    /// Batched multiplicity query; answered by [`Response::Counts`].
    Count {
        /// Target filter.
        name: String,
        /// Keys to count.
        keys: Vec<u64>,
    },
    /// Batched removal; answered by [`Response::Bools`] (whether each
    /// key matched a stored fingerprint).
    Delete {
        /// Target filter.
        name: String,
        /// Keys to remove.
        keys: Vec<u64>,
    },
    /// The filter inventory; answered by [`Response::Stats`].
    Stats,
    /// Prometheus-text metric exposition (every registered telemetry
    /// family, server request counters, the filter inventory as
    /// labelled gauges, and the slow-request log); answered by
    /// [`Response::Text`].
    Metrics,
    /// Serialize a registered filter into a portable blob; answered
    /// by [`Response::Blob`]. Pairs with blob-CREATE on another node
    /// to ship a filter across the cluster (migration).
    Snapshot {
        /// Filter to serialize.
        name: String,
    },
    /// Unregister a filter and drop its memory. The inverse of
    /// CREATE; used by the cluster client after a snapshot has been
    /// re-homed on its new owner.
    Forget {
        /// Filter to unregister.
        name: String,
    },
    /// "Which filters contain each of these keys?" — the multi-tenant
    /// query, answered across the whole registry through the Bloofi
    /// index in O(d·log N) summary probes per key instead of a flat
    /// scan; answered by [`Response::NameLists`].
    MultiContains {
        /// Keys to look up across every registered filter.
        keys: Vec<u64>,
    },
    /// Drain the completed traces with one id from the server's
    /// store, leaving the others; answered by [`Response::Traces`].
    Traces {
        /// The trace to drain; 0 drains every trace (a minted trace
        /// id is never 0).
        trace_id: u64,
    },
}

/// A server response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request succeeded with nothing to return.
    Ok,
    /// Per-key boolean answers, aligned with the request's keys.
    Bools(Vec<bool>),
    /// Per-key multiplicity answers, aligned with the request's keys.
    Counts(Vec<u64>),
    /// The filter inventory (the STATS answer).
    Stats(crate::metrics::StatsReport),
    /// A UTF-8 text document (the METRICS exposition).
    Text(String),
    /// A serialized filter (the SNAPSHOT answer): the backend tag the
    /// blob rebuilds into, and the bytes blob-CREATE accepts.
    Blob {
        /// Backend family the blob encodes.
        backend: Backend,
        /// Serialized filter (single `to_bytes` image or the
        /// multi-shard envelope for sharded backends).
        bytes: Vec<u8>,
    },
    /// The request failed.
    Error {
        /// Machine-readable class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Per-key lists of matching filter names, aligned with the
    /// request's keys (the MULTI_CONTAINS answer); each list is
    /// sorted and duplicate-free.
    NameLists(Vec<Vec<String>>),
    /// Completed traces drained from the server's store (the TRACES
    /// answer).
    Traces(Vec<Trace>),
}

fn put_header(w: &mut ByteWriter, opcode: u32) {
    w.put_u32(PROTO_MAGIC);
    w.put_u32(PROTO_VERSION);
    w.put_u32(opcode);
}

/// Strip and validate the 12-byte header, returning the opcode.
fn take_header(r: &mut ByteReader<'_>) -> Result<u32, HeaderError> {
    if r.take_u32().map_err(HeaderError::Serial)? != PROTO_MAGIC {
        return Err(HeaderError::Serial(SerialError::Corrupt("frame magic")));
    }
    let version = r.take_u32().map_err(HeaderError::Serial)?;
    if version != PROTO_VERSION {
        return Err(HeaderError::Version(version));
    }
    r.take_u32().map_err(HeaderError::Serial)
}

/// Why a frame header was rejected. Version mismatches are split from
/// structural corruption so the server can answer with the precise
/// error code.
#[derive(Debug)]
pub enum HeaderError {
    /// Magic or field decoding failed.
    Serial(SerialError),
    /// Well-formed header for a version this peer does not speak.
    Version(u32),
}

fn put_name(w: &mut ByteWriter, name: &str) {
    w.put_bytes(name.as_bytes());
}

fn take_name(r: &mut ByteReader<'_>) -> Result<String, SerialError> {
    let bytes = r.take_bytes()?;
    if bytes.is_empty() || bytes.len() > MAX_NAME_LEN {
        return Err(SerialError::Corrupt("filter name length"));
    }
    String::from_utf8(bytes).map_err(|_| SerialError::Corrupt("filter name not utf-8"))
}

/// Bit-pack bools 64 per word (little-endian bit order).
fn put_bools(w: &mut ByteWriter, bools: &[bool]) {
    w.put_u64(bools.len() as u64);
    let mut word = 0u64;
    for (i, &b) in bools.iter().enumerate() {
        if b {
            word |= 1 << (i % 64);
        }
        if i % 64 == 63 {
            w.put_u64(word);
            word = 0;
        }
    }
    if !bools.len().is_multiple_of(64) {
        w.put_u64(word);
    }
}

fn take_bools(r: &mut ByteReader<'_>) -> Result<Vec<bool>, SerialError> {
    let n = r.take_u64()? as usize;
    let words = n.div_ceil(64);
    if words * 8 > r.remaining() {
        return Err(SerialError::Truncated);
    }
    let mut out = Vec::with_capacity(n);
    for wi in 0..words {
        let word = r.take_u64()?;
        let bits = (n - wi * 64).min(64);
        for b in 0..bits {
            out.push(word >> b & 1 == 1);
        }
    }
    Ok(out)
}

impl Request {
    /// The request's wire opcode.
    pub(crate) fn opcode(&self) -> u32 {
        match self {
            Request::Create { .. } => OP_CREATE,
            Request::Insert { .. } => OP_INSERT,
            Request::Contains { .. } => OP_CONTAINS,
            Request::Count { .. } => OP_COUNT,
            Request::Delete { .. } => OP_DELETE,
            Request::Stats => OP_STATS,
            Request::Metrics => OP_METRICS,
            Request::Snapshot { .. } => OP_SNAPSHOT,
            Request::Forget { .. } => OP_FORGET,
            Request::MultiContains { .. } => OP_MULTI_CONTAINS,
            Request::Traces { .. } => OP_TRACES,
        }
    }

    /// Encode into a frame payload (header + body, no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Append the frame payload (header + body, no length prefix) to
    /// `out`; [`encode_frame`] wraps it in a frame in place.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = ByteWriter::with_buffer(std::mem::take(out));
        put_header(&mut w, self.opcode());
        match self {
            Request::Create {
                name,
                backend,
                capacity,
                eps,
                shard_bits,
                seed,
                blob,
            } => {
                put_name(&mut w, name);
                w.put_u32(backend.to_u32());
                w.put_u64(*capacity);
                w.put_f64(*eps);
                w.put_u32(*shard_bits);
                w.put_u64(*seed);
                w.put_bytes(blob);
            }
            Request::Insert { name, keys }
            | Request::Contains { name, keys }
            | Request::Count { name, keys }
            | Request::Delete { name, keys } => {
                put_name(&mut w, name);
                w.put_u64_slice(keys);
            }
            Request::Stats | Request::Metrics => {}
            Request::Snapshot { name } | Request::Forget { name } => put_name(&mut w, name),
            Request::MultiContains { keys } => w.put_u64_slice(keys),
            Request::Traces { trace_id } => w.put_u64(*trace_id),
        }
        *out = w.into_bytes();
    }

    /// Decode a frame payload. Distinguishes version mismatch from
    /// structural corruption (the server answers each with its own
    /// error code); an unknown opcode is reported as the inner `Err`
    /// carrying the offending opcode.
    pub fn decode(payload: &[u8]) -> Result<Result<Request, u32>, HeaderError> {
        let mut r = ByteReader::new(payload);
        let opcode = take_header(&mut r)?;
        let req = (|| -> Result<Result<Request, u32>, SerialError> {
            Ok(Ok(match opcode {
                OP_CREATE => Request::Create {
                    name: take_name(&mut r)?,
                    backend: Backend::from_u32(r.take_u32()?)?,
                    capacity: r.take_u64()?,
                    eps: r.take_f64()?,
                    shard_bits: r.take_u32()?,
                    seed: r.take_u64()?,
                    blob: r.take_bytes()?,
                },
                OP_INSERT => Request::Insert {
                    name: take_name(&mut r)?,
                    keys: r.take_u64_vec()?,
                },
                OP_CONTAINS => Request::Contains {
                    name: take_name(&mut r)?,
                    keys: r.take_u64_vec()?,
                },
                OP_COUNT => Request::Count {
                    name: take_name(&mut r)?,
                    keys: r.take_u64_vec()?,
                },
                OP_DELETE => Request::Delete {
                    name: take_name(&mut r)?,
                    keys: r.take_u64_vec()?,
                },
                OP_STATS => Request::Stats,
                OP_METRICS => Request::Metrics,
                OP_SNAPSHOT => Request::Snapshot {
                    name: take_name(&mut r)?,
                },
                OP_FORGET => Request::Forget {
                    name: take_name(&mut r)?,
                },
                OP_MULTI_CONTAINS => Request::MultiContains {
                    keys: r.take_u64_vec()?,
                },
                OP_TRACES => Request::Traces {
                    trace_id: r.take_u64()?,
                },
                other => return Ok(Err(other)),
            }))
        })()
        .map_err(HeaderError::Serial)?;
        if let Ok(ref _req) = req {
            if r.remaining() != 0 {
                return Err(HeaderError::Serial(SerialError::Corrupt(
                    "trailing bytes after request",
                )));
            }
        }
        Ok(req)
    }
}

impl Response {
    /// Encode into a frame payload (header + body, no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Append the frame payload (header + body, no length prefix) to
    /// `out`; [`encode_frame`] wraps it in a frame in place.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = ByteWriter::with_buffer(std::mem::take(out));
        match self {
            Response::Ok => put_header(&mut w, OP_OK),
            Response::Bools(bools) => {
                put_header(&mut w, OP_BOOLS);
                put_bools(&mut w, bools);
            }
            Response::Counts(counts) => {
                put_header(&mut w, OP_COUNTS);
                w.put_u64_slice(counts);
            }
            Response::Stats(report) => {
                put_header(&mut w, OP_STATS_REPORT);
                report.serialize(&mut w);
            }
            Response::Error { code, message } => {
                put_header(&mut w, OP_ERROR);
                w.put_u32(code.to_u32());
                w.put_bytes(message.as_bytes());
            }
            Response::Text(text) => {
                put_header(&mut w, OP_TEXT);
                w.put_bytes(text.as_bytes());
            }
            Response::Blob { backend, bytes } => {
                put_header(&mut w, OP_BLOB);
                w.put_u32(backend.to_u32());
                w.put_bytes(bytes);
            }
            Response::NameLists(lists) => {
                put_header(&mut w, OP_NAME_LISTS);
                w.put_u64(lists.len() as u64);
                for names in lists {
                    w.put_u32(names.len() as u32);
                    for name in names {
                        put_name(&mut w, name);
                    }
                }
            }
            Response::Traces(traces) => {
                put_header(&mut w, OP_TRACES_REPORT);
                w.put_u64(traces.len() as u64);
                for t in traces {
                    w.put_u64(t.trace_id);
                    w.put_u32(t.spans.len() as u32);
                    for s in &t.spans {
                        put_span(&mut w, s);
                    }
                }
            }
        }
        *out = w.into_bytes();
    }

    /// Decode a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Response, SerialError> {
        let mut r = ByteReader::new(payload);
        let opcode = match take_header(&mut r) {
            Ok(op) => op,
            Err(HeaderError::Serial(e)) => return Err(e),
            Err(HeaderError::Version(_)) => return Err(SerialError::Corrupt("frame version")),
        };
        Ok(match opcode {
            OP_OK => Response::Ok,
            OP_BOOLS => Response::Bools(take_bools(&mut r)?),
            OP_COUNTS => Response::Counts(r.take_u64_vec()?),
            OP_STATS_REPORT => Response::Stats(crate::metrics::StatsReport::deserialize(&mut r)?),
            OP_ERROR => Response::Error {
                code: ErrorCode::from_u32(r.take_u32()?)?,
                message: String::from_utf8(r.take_bytes()?)
                    .map_err(|_| SerialError::Corrupt("error message not utf-8"))?,
            },
            OP_TEXT => Response::Text(
                String::from_utf8(r.take_bytes()?)
                    .map_err(|_| SerialError::Corrupt("text body not utf-8"))?,
            ),
            OP_BLOB => Response::Blob {
                backend: Backend::from_u32(r.take_u32()?)?,
                bytes: r.take_bytes()?,
            },
            OP_NAME_LISTS => {
                let n = r.take_u64()? as usize;
                // Every key costs at least the u32 list length on the
                // wire, so an honest count can't exceed the bytes left.
                if n > r.remaining() / 4 {
                    return Err(SerialError::Truncated);
                }
                let mut lists = Vec::with_capacity(n);
                for _ in 0..n {
                    let m = r.take_u32()? as usize;
                    // Each name costs at least its u32 length prefix.
                    if m > r.remaining() / 4 {
                        return Err(SerialError::Truncated);
                    }
                    let mut names = Vec::with_capacity(m);
                    for _ in 0..m {
                        names.push(take_name(&mut r)?);
                    }
                    lists.push(names);
                }
                Response::NameLists(lists)
            }
            OP_TRACES_REPORT => {
                let n = r.take_u64()? as usize;
                // Each trace costs at least its u64 id + u32 count.
                if n > r.remaining() / 12 {
                    return Err(SerialError::Truncated);
                }
                let mut traces = Vec::with_capacity(n);
                for _ in 0..n {
                    let trace_id = r.take_u64()?;
                    let m = r.take_u32()? as usize;
                    // Each span costs at least its fixed fields.
                    if m > r.remaining() / SPAN_WIRE_MIN {
                        return Err(SerialError::Truncated);
                    }
                    let mut spans = Vec::with_capacity(m);
                    for _ in 0..m {
                        spans.push(take_span(&mut r)?);
                    }
                    traces.push(Trace { trace_id, spans });
                }
                Response::Traces(traces)
            }
            _ => return Err(SerialError::Corrupt("unknown response opcode")),
        })
    }
}

/// Minimum wire cost of one span: nine u64 fields, one u32 pid, and
/// the name's u32 length prefix.
const SPAN_WIRE_MIN: usize = 9 * 8 + 4 + 4;

fn put_span(w: &mut ByteWriter, s: &SpanRecord) {
    w.put_u64(s.trace_id);
    w.put_u64(s.span_id);
    w.put_u64(s.parent_id);
    w.put_u64(s.link_id);
    w.put_bytes(s.name.as_bytes());
    w.put_u64(s.start_us);
    w.put_u64(s.dur_us);
    w.put_u32(s.pid);
    w.put_u64(s.tid);
    w.put_u64(s.a);
    w.put_u64(s.b);
}

fn take_span(r: &mut ByteReader<'_>) -> Result<SpanRecord, SerialError> {
    let trace_id = r.take_u64()?;
    let span_id = r.take_u64()?;
    let parent_id = r.take_u64()?;
    let link_id = r.take_u64()?;
    let name = String::from_utf8(r.take_bytes()?)
        .map_err(|_| SerialError::Corrupt("span name not utf-8"))?;
    Ok(SpanRecord {
        trace_id,
        span_id,
        parent_id,
        link_id,
        name: Cow::Owned(name),
        start_us: r.take_u64()?,
        dur_us: r.take_u64()?,
        pid: r.take_u32()?,
        tid: r.take_u64()?,
        a: r.take_u64()?,
        b: r.take_u64()?,
    })
}

/// Bytes in a frame's length word.
const LEN_WORD: usize = 4;

/// The smallest read a [`FrameDecoder`] offers: room for a burst of
/// pipelined frames, or a batch of ~2,000 keys, in one `read`.
const MIN_SPARE: usize = 16 * 1024;

/// Append one frame to `out`: the length word, the trace context when
/// `ctx` is set, then the payload `encode` appends. The length word is
/// patched in once the payload is written, so the frame is built in
/// place, with no payload buffer of its own, and can leave in one
/// `write`. Returns the payload's length.
pub fn encode_frame(
    out: &mut Vec<u8>,
    ctx: Option<&TraceContext>,
    encode: impl FnOnce(&mut Vec<u8>),
) -> usize {
    let at = out.len();
    out.extend_from_slice(&[0; LEN_WORD]);
    if let Some(c) = ctx {
        out.extend_from_slice(&c.encode());
    }
    let payload_at = out.len();
    encode(out);
    let word = (out.len() - at - LEN_WORD) as u32 | ctx.map_or(0, |_| FLAG_TRACE);
    out[at..at + LEN_WORD].copy_from_slice(&word.to_le_bytes());
    out.len() - payload_at
}

/// Write one untraced frame in a single `write`.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    write_frame_traced(w, payload, None)
}

/// Write one frame, optionally carrying a trace context, in a single
/// `write`. With `ctx: None` the bytes produced are identical to
/// [`write_frame`] — an untraced request adds zero wire bytes. With
/// `Some`, the length word gets [`FLAG_TRACE`] and the counted body is
/// the 17-byte context followed by the payload.
pub fn write_frame_traced(
    w: &mut impl Write,
    payload: &[u8],
    ctx: Option<&TraceContext>,
) -> io::Result<()> {
    let mut frame = Vec::with_capacity(LEN_WORD + TraceContext::WIRE_LEN + payload.len());
    encode_frame(&mut frame, ctx, |out| out.extend_from_slice(payload));
    w.write_all(&frame)?;
    w.flush()
}

/// One frame cut from a [`FrameDecoder`]'s buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Frame<'a> {
    /// The payload, with the trace context already stripped.
    pub payload: &'a [u8],
    /// The trace context the frame carried, if any.
    pub ctx: Option<TraceContext>,
}

/// Why a [`FrameDecoder`] refused a length word. The announced body
/// stays unread, so the stream cannot be resynchronised: every later
/// call reports the same error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameDecodeError {
    /// The length word announces more than the decoder's `max_frame`:
    /// the announced length (trace flag masked off), then the limit.
    Oversized(u32, u32),
    /// A traced frame's body is shorter than its 17-byte trace context.
    ShortTraceContext,
}

impl std::fmt::Display for FrameDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Oversized(len, max) => write!(f, "frame length {len} exceeds limit {max}"),
            Self::ShortTraceContext => write!(f, "traced frame shorter than its trace context"),
        }
    }
}

impl std::error::Error for FrameDecodeError {}

/// The frame grammar without I/O: read bytes into
/// [`spare`](Self::spare), count them with [`filled`](Self::filled),
/// then take complete frames, borrowed from the buffer, from
/// [`next_frame`](Self::next_frame). A length word is checked before
/// anything is reserved for its body, and toward a long frame the
/// buffer at most doubles per read: memory follows the bytes a peer
/// has sent, not the length it claims.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// `buf[start..end]` is received and not yet returned as a frame;
    /// `buf[end..]` is the spare space.
    start: usize,
    end: usize,
    max_frame: u32,
}

impl FrameDecoder {
    /// An empty decoder refusing bodies longer than `max_frame`.
    pub fn new(max_frame: u32) -> FrameDecoder {
        FrameDecoder {
            buf: Vec::new(),
            start: 0,
            end: 0,
            max_frame,
        }
    }

    /// The next frame's body length and trace flag, once its length
    /// word is buffered.
    fn head(&self) -> Result<Option<(usize, bool)>, FrameDecodeError> {
        let Some(word) = self.buf[self.start..self.end].first_chunk::<LEN_WORD>() else {
            return Ok(None);
        };
        let word = u32::from_le_bytes(*word);
        // Mask the flag before the size check: a traced frame must not
        // look oversized, nor an untraced oversized one look traced.
        let traced = word & FLAG_TRACE != 0;
        let len = word & !FLAG_TRACE;
        if len > self.max_frame {
            return Err(FrameDecodeError::Oversized(len, self.max_frame));
        }
        if traced && (len as usize) < TraceContext::WIRE_LEN {
            return Err(FrameDecodeError::ShortTraceContext);
        }
        Ok(Some((len as usize, traced)))
    }

    /// Space to read into: at least 16 KiB, and more while a longer
    /// frame is arriving — up to the rest of that frame, but never more
    /// than is already held. What is held moves to the front when it
    /// is empty or the tail runs short.
    pub fn spare(&mut self) -> &mut [u8] {
        let held = self.end - self.start;
        let missing = match self.head() {
            Ok(Some((len, _))) => (LEN_WORD + len).saturating_sub(held),
            _ => 0,
        };
        let want = missing.min(held).max(MIN_SPARE);
        if held == 0 || self.buf.len() - self.end < want {
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, held);
            if self.buf.len() < held + want {
                self.buf.resize(held + want, 0);
            }
        }
        &mut self.buf[self.end..]
    }

    /// Count `n` bytes just read into the front of
    /// [`spare`](Self::spare).
    pub fn filled(&mut self, n: usize) {
        assert!(n <= self.buf.len() - self.end, "filled past the spare");
        self.end += n;
    }

    /// Bytes received and not yet returned in a frame: a partial frame
    /// when the stream ends here.
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Cut the next complete frame, or `Ok(None)` until one is fully
    /// buffered.
    pub fn next_frame(&mut self) -> Result<Option<Frame<'_>>, FrameDecodeError> {
        let body = self.start + LEN_WORD;
        let Some((len, traced)) = self.head()?.filter(|&(len, _)| body + len <= self.end) else {
            return Ok(None);
        };
        self.start = body + len;
        let ctx_len = if traced { TraceContext::WIRE_LEN } else { 0 };
        let (ctx, payload) = self.buf[body..self.start].split_at(ctx_len);
        let ctx = TraceContext::decode(ctx);
        Ok(Some(Frame { payload, ctx }))
    }
}

/// A frame arrived, or the peer closed cleanly between frames.
#[derive(Debug)]
pub enum FrameEvent {
    /// A complete payload, plus the trace context the frame carried
    /// (already stripped from the payload), if any.
    Frame(Vec<u8>, Option<TraceContext>),
    /// EOF on a frame boundary: an orderly close.
    Closed,
}

/// Why [`FrameReader::read_frame`] failed.
#[derive(Debug)]
pub enum FrameError {
    /// The read timed out mid-wait; partial progress is retained and
    /// the call can simply be retried.
    Timeout,
    /// The decoder refused a length word. Nothing was reserved for
    /// its body.
    Refused(FrameDecodeError),
    /// EOF in the middle of a frame: the peer disconnected mid-write.
    Disconnected,
    /// Any other transport error.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Timeout => write!(f, "read timed out"),
            FrameError::Refused(e) => write!(f, "{e}"),
            FrameError::Disconnected => write!(f, "peer disconnected mid-frame"),
            FrameError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A blocking [`FrameDecoder`] pump over a byte stream.
///
/// Progress is buffered across calls: a timeout mid-frame returns
/// [`FrameError::Timeout`] without losing the bytes already read, so
/// a caller can use short read timeouts as a polling tick without
/// corrupting the stream position.
pub struct FrameReader<R> {
    inner: R,
    frames: FrameDecoder,
}

impl<R: Read> FrameReader<R> {
    /// Wrap a byte stream; frames larger than `max_frame` are refused
    /// before their body is read.
    pub fn new(inner: R, max_frame: u32) -> Self {
        FrameReader {
            inner,
            frames: FrameDecoder::new(max_frame),
        }
    }

    /// The wrapped stream (a client writes its requests to the stream
    /// it reads answers from).
    pub(crate) fn get_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    /// Read until one full frame, then hand it to `f` borrowed from
    /// the buffer; `Ok(None)` on EOF between frames.
    pub(crate) fn read_with<T>(
        &mut self,
        f: impl FnOnce(Frame<'_>) -> T,
    ) -> Result<Option<T>, FrameError> {
        loop {
            if let Some(frame) = self.frames.next_frame().map_err(FrameError::Refused)? {
                return Ok(Some(f(frame)));
            }
            match self.inner.read(self.frames.spare()) {
                Ok(0) if self.frames.buffered() == 0 => return Ok(None),
                Ok(0) => return Err(FrameError::Disconnected),
                Ok(n) => self.frames.filled(n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(classify(e)),
            }
        }
    }

    /// Read until one full frame, clean EOF, timeout, or error.
    pub fn read_frame(&mut self) -> Result<FrameEvent, FrameError> {
        let frame = self.read_with(|f| FrameEvent::Frame(f.payload.to_vec(), f.ctx))?;
        Ok(frame.unwrap_or(FrameEvent::Closed))
    }
}

fn classify(e: io::Error) -> FrameError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => FrameError::Timeout,
        io::ErrorKind::UnexpectedEof => FrameError::Disconnected,
        _ => FrameError::Io(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let bytes = req.encode();
        let back = Request::decode(&bytes).unwrap().unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_request(Request::Create {
            name: "urls".into(),
            backend: Backend::ShardedCqf,
            capacity: 1_000_000,
            eps: 1.0 / 256.0,
            shard_bits: 4,
            seed: 0xfeed,
            blob: vec![1, 2, 3],
        });
        roundtrip_request(Request::Insert {
            name: "f".into(),
            keys: vec![1, 2, 3],
        });
        roundtrip_request(Request::Contains {
            name: "f".into(),
            keys: (0..1000).collect(),
        });
        roundtrip_request(Request::Count {
            name: "f".into(),
            keys: vec![],
        });
        roundtrip_request(Request::Delete {
            name: "f".into(),
            keys: vec![u64::MAX],
        });
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Metrics);
        roundtrip_request(Request::Snapshot { name: "f".into() });
        roundtrip_request(Request::Forget { name: "f".into() });
        roundtrip_request(Request::MultiContains {
            keys: vec![0, 42, u64::MAX],
        });
        roundtrip_request(Request::MultiContains { keys: vec![] });
        roundtrip_request(Request::Traces { trace_id: 0 });
        roundtrip_request(Request::Traces {
            trace_id: 0x5eed_7ace,
        });
    }

    #[test]
    fn response_roundtrips() {
        for n in [0usize, 1, 63, 64, 65, 300] {
            let bools: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            let bytes = Response::Bools(bools.clone()).encode();
            assert_eq!(Response::decode(&bytes).unwrap(), Response::Bools(bools));
        }
        let resp = Response::Counts(vec![0, 1, u64::MAX]);
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        let resp = Response::Error {
            code: ErrorCode::NoSuchFilter,
            message: "no filter named 'x'".into(),
        };
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        assert_eq!(
            Response::decode(&Response::Ok.encode()).unwrap(),
            Response::Ok
        );
        let resp = Response::Text("# HELP x y\n# TYPE x counter\nx 1\n".into());
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        let resp = Response::Blob {
            backend: Backend::Compacting,
            bytes: vec![0xde, 0xad, 0xbe, 0xef],
        };
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        let resp = Response::NameLists(vec![
            vec!["a".into(), "bb".into()],
            vec![],
            vec!["zz".into()],
        ]);
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        let resp = Response::NameLists(vec![]);
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        // A truncated name-lists body is rejected, not panicking —
        // including an honest-looking but oversized key count.
        let good = Response::NameLists(vec![vec!["abc".into()]; 3]).encode();
        for cut in 12..good.len() {
            assert!(Response::decode(&good[..cut]).is_err());
        }
        let mut bad = good.clone();
        bad[12] = 0xff;
        assert!(Response::decode(&bad).is_err());
        // Non-UTF-8 text bodies are rejected, not lossily decoded.
        let mut bad = Response::Text("abc".into()).encode();
        let n = bad.len();
        bad[n - 1] = 0xff;
        assert!(Response::decode(&bad).is_err());
    }

    #[test]
    fn malformed_payloads_rejected_not_panicking() {
        let good = Request::Contains {
            name: "f".into(),
            keys: vec![1, 2, 3],
        }
        .encode();
        for cut in 0..good.len() {
            assert!(matches!(
                Request::decode(&good[..cut]),
                Err(HeaderError::Serial(_)) | Ok(Err(_))
            ));
        }
        // Wrong magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(matches!(Request::decode(&bad), Err(HeaderError::Serial(_))));
        // Future version.
        let mut bad = good.clone();
        bad[4] = 9;
        assert!(matches!(
            Request::decode(&bad),
            Err(HeaderError::Version(9))
        ));
        // Unknown opcode is reported, not conflated with corruption.
        let mut bad = good.clone();
        bad[8] = 99;
        assert!(matches!(Request::decode(&bad), Ok(Err(99))));
        // Trailing garbage.
        let mut bad = good;
        bad.push(0);
        assert!(matches!(Request::decode(&bad), Err(HeaderError::Serial(_))));
    }

    #[test]
    fn name_limits_enforced() {
        let long = "x".repeat(MAX_NAME_LEN + 1);
        let bytes = Request::Insert {
            name: long,
            keys: vec![],
        }
        .encode();
        assert!(matches!(
            Request::decode(&bytes),
            Err(HeaderError::Serial(_))
        ));
        let empty = Request::Insert {
            name: String::new(),
            keys: vec![],
        }
        .encode();
        assert!(matches!(
            Request::decode(&empty),
            Err(HeaderError::Serial(_))
        ));
    }

    #[test]
    fn traces_response_roundtrips_and_rejects_truncation() {
        let span = |i: u64| SpanRecord {
            trace_id: 7,
            span_id: i,
            parent_id: i.saturating_sub(1),
            link_id: if i == 3 { 99 } else { 0 },
            name: format!("span-{i}").into(),
            start_us: 1_000_000 + i,
            dur_us: 10 * i,
            pid: 4242,
            tid: i,
            a: i * 2,
            b: i * 3,
        };
        let resp = Response::Traces(vec![
            Trace {
                trace_id: 7,
                spans: vec![span(1), span(2), span(3)],
            },
            Trace {
                trace_id: 8,
                spans: vec![],
            },
        ]);
        let bytes = resp.encode();
        assert_eq!(Response::decode(&bytes).unwrap(), resp);
        let empty = Response::Traces(vec![]);
        assert_eq!(Response::decode(&empty.encode()).unwrap(), empty);
        // Truncations are rejected, never panicking.
        for cut in 12..bytes.len() {
            assert!(Response::decode(&bytes[..cut]).is_err());
        }
        // A lying span count (u32 after the 12-byte header, the u64
        // trace count, and the first trace id) trips the bounds check.
        let mut bad = bytes.clone();
        bad[28] = 0xff;
        assert!(Response::decode(&bad).is_err());
    }
}
