//! A blocking client for the filter service.
//!
//! One [`FilterClient`] owns one TCP connection and speaks strict
//! request/response: every call writes a frame, then blocks until the
//! matching response frame arrives. One request is outstanding per
//! connection — batching inside a frame is the protocol's
//! amortisation mechanism, and a closed-loop load generator simply
//! runs one client per thread. The cluster client overlaps *nodes*:
//! it sends one request on each node's connection before reading any
//! reply, but never puts two requests on one connection.
//!
//! Every frame carries the calling thread's active trace context
//! ([`telemetry::trace::current_context`]), so a call made under a
//! trace joins it on the server; with no active trace the frame is
//! untraced and byte-identical to one from a thread that never traces.

use crate::metrics::StatsReport;
use crate::proto::{
    encode_frame, Backend, ErrorCode, FrameError, FrameReader, Request, Response, DEFAULT_MAX_FRAME,
};
use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};
use telemetry::trace::Trace;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure (connect, write, or read).
    Io(io::Error),
    /// The server closed the connection instead of responding.
    ServerClosed,
    /// The response frame failed to decode.
    Protocol(filter_core::SerialError),
    /// The server answered with an error response.
    Remote {
        /// Machine-readable class.
        code: ErrorCode,
        /// Human-readable detail from the server.
        message: String,
    },
    /// The server answered with a well-formed response of the wrong
    /// kind for this request (a server bug, not a transport fault).
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::ServerClosed => write!(f, "server closed the connection"),
            ClientError::Protocol(e) => write!(f, "bad response frame: {e}"),
            ClientError::Remote { code, message } => write!(f, "server error {code}: {message}"),
            ClientError::Unexpected(what) => write!(f, "unexpected response kind: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A blocking connection to a [`crate::evented::EventedFilterServer`].
pub struct FilterClient {
    /// The connection, read through the frame decoder.
    frames: FrameReader<TcpStream>,
    /// Reused buffer: each request frame is built here, then sent in one `write`.
    out: Vec<u8>,
}

impl FilterClient {
    /// Connect, refusing response frames larger than
    /// [`DEFAULT_MAX_FRAME`].
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<FilterClient> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(FilterClient {
            frames: FrameReader::new(stream, DEFAULT_MAX_FRAME),
            out: Vec::new(),
        })
    }

    /// Send one request and block for its response.
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.send(req)?;
        self.recv()
    }

    /// Write one request frame, carrying the thread's trace context
    /// if a trace is active, in one `write`, without waiting for the
    /// response. The caller must [`recv`](Self::recv) it before the
    /// next `send`: one request is outstanding per connection.
    pub(crate) fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        let ctx = telemetry::trace::current_context();
        self.out.clear();
        encode_frame(&mut self.out, ctx.as_ref(), |out| req.encode_into(out));
        self.frames.get_mut().write_all(&self.out)?;
        Ok(())
    }

    /// Block for the response to the request [`send`](Self::send)
    /// wrote.
    pub(crate) fn recv(&mut self) -> Result<Response, ClientError> {
        loop {
            match self.frames.read_with(|f| Response::decode(f.payload)) {
                Ok(Some(resp)) => return resp.map_err(ClientError::Protocol),
                Ok(None) | Err(FrameError::Disconnected) => return Err(ClientError::ServerClosed),
                // The client socket has no read timeout by default,
                // but tolerate one if the caller configured it.
                Err(FrameError::Timeout) => continue,
                Err(FrameError::Refused(_)) => {
                    return Err(ClientError::Protocol(filter_core::SerialError::Corrupt(
                        "response frame length refused",
                    )))
                }
                Err(FrameError::Io(e)) => return Err(ClientError::Io(e)),
            }
        }
    }

    fn expect_ok(resp: Response) -> Result<(), ClientError> {
        match resp {
            Response::Ok => Ok(()),
            Response::Error { code, message } => Err(ClientError::Remote { code, message }),
            _ => Err(ClientError::Unexpected("wanted Ok")),
        }
    }

    fn expect_bools(resp: Response) -> Result<Vec<bool>, ClientError> {
        match resp {
            Response::Bools(b) => Ok(b),
            Response::Error { code, message } => Err(ClientError::Remote { code, message }),
            _ => Err(ClientError::Unexpected("wanted Bools")),
        }
    }

    pub(crate) fn expect_name_lists(resp: Response) -> Result<Vec<Vec<String>>, ClientError> {
        match resp {
            Response::NameLists(lists) => Ok(lists),
            Response::Error { code, message } => Err(ClientError::Remote { code, message }),
            _ => Err(ClientError::Unexpected("wanted NameLists")),
        }
    }

    pub(crate) fn expect_stats(resp: Response) -> Result<StatsReport, ClientError> {
        match resp {
            Response::Stats(s) => Ok(s),
            Response::Error { code, message } => Err(ClientError::Remote { code, message }),
            _ => Err(ClientError::Unexpected("wanted Stats")),
        }
    }

    pub(crate) fn expect_traces(resp: Response) -> Result<Vec<Trace>, ClientError> {
        match resp {
            Response::Traces(t) => Ok(t),
            Response::Error { code, message } => Err(ClientError::Remote { code, message }),
            _ => Err(ClientError::Unexpected("wanted Traces")),
        }
    }

    /// CREATE a server-built filter.
    pub fn create(
        &mut self,
        name: &str,
        backend: Backend,
        capacity: u64,
        eps: f64,
        shard_bits: u32,
        seed: u64,
    ) -> Result<(), ClientError> {
        let resp = self.call(&Request::Create {
            name: name.to_string(),
            backend,
            capacity,
            eps,
            shard_bits,
            seed,
            blob: Vec::new(),
        })?;
        Self::expect_ok(resp)
    }

    /// CREATE from a pre-built serialized filter
    /// (`CuckooFilter::to_bytes` / `CountingQuotientFilter::to_bytes`).
    pub fn create_prebuilt(
        &mut self,
        name: &str,
        backend: Backend,
        blob: Vec<u8>,
    ) -> Result<(), ClientError> {
        let resp = self.call(&Request::Create {
            name: name.to_string(),
            backend,
            capacity: 0,
            eps: 0.0,
            shard_bits: 0,
            seed: 0,
            blob,
        })?;
        Self::expect_ok(resp)
    }

    /// INSERT a batch of keys.
    pub fn insert(&mut self, name: &str, keys: &[u64]) -> Result<(), ClientError> {
        let resp = self.call(&Request::Insert {
            name: name.to_string(),
            keys: keys.to_vec(),
        })?;
        Self::expect_ok(resp)
    }

    /// Batched CONTAINS; `out[i]` answers `keys[i]`.
    pub fn contains(&mut self, name: &str, keys: &[u64]) -> Result<Vec<bool>, ClientError> {
        let resp = self.call(&Request::Contains {
            name: name.to_string(),
            keys: keys.to_vec(),
        })?;
        Self::expect_bools(resp)
    }

    /// Batched MULTI_CONTAINS: which filters (across the whole
    /// registry, via the server's Bloofi index) contain each key?
    /// `out[i]` is the sorted list of matching filter names for
    /// `keys[i]`.
    pub fn multi_contains(&mut self, keys: &[u64]) -> Result<Vec<Vec<String>>, ClientError> {
        let resp = self.call(&Request::MultiContains {
            keys: keys.to_vec(),
        })?;
        Self::expect_name_lists(resp)
    }

    /// Batched COUNT (CQF backend only); `out[i]` answers `keys[i]`.
    pub fn count(&mut self, name: &str, keys: &[u64]) -> Result<Vec<u64>, ClientError> {
        let resp = self.call(&Request::Count {
            name: name.to_string(),
            keys: keys.to_vec(),
        })?;
        match resp {
            Response::Counts(c) => Ok(c),
            Response::Error { code, message } => Err(ClientError::Remote { code, message }),
            _ => Err(ClientError::Unexpected("wanted Counts")),
        }
    }

    /// Batched DELETE; `out[i]` reports whether `keys[i]` matched.
    pub fn delete(&mut self, name: &str, keys: &[u64]) -> Result<Vec<bool>, ClientError> {
        let resp = self.call(&Request::Delete {
            name: name.to_string(),
            keys: keys.to_vec(),
        })?;
        Self::expect_bools(resp)
    }

    /// Fetch the server's filter inventory (its counters are METRICS
    /// families: see [`FilterClient::metrics_text`]).
    pub fn stats(&mut self) -> Result<StatsReport, ClientError> {
        let resp = self.call(&Request::Stats)?;
        Self::expect_stats(resp)
    }

    /// Fetch the Prometheus-text metric exposition (the METRICS
    /// opcode): every telemetry family, server request counters, the
    /// filter inventory, and the slow-request log.
    pub fn metrics_text(&mut self) -> Result<String, ClientError> {
        let resp = self.call(&Request::Metrics)?;
        match resp {
            Response::Text(t) => Ok(t),
            Response::Error { code, message } => Err(ClientError::Remote { code, message }),
            _ => Err(ClientError::Unexpected("wanted Text")),
        }
    }

    /// SNAPSHOT: serialize a served filter into a portable blob. The
    /// returned `(backend, bytes)` pair feeds
    /// [`FilterClient::create_prebuilt`] on another server — the
    /// cluster layer's migration primitive.
    pub fn snapshot(&mut self, name: &str) -> Result<(Backend, Vec<u8>), ClientError> {
        let resp = self.call(&Request::Snapshot {
            name: name.to_string(),
        })?;
        match resp {
            Response::Blob { backend, bytes } => Ok((backend, bytes)),
            Response::Error { code, message } => Err(ClientError::Remote { code, message }),
            _ => Err(ClientError::Unexpected("wanted Blob")),
        }
    }

    /// FORGET: unregister a filter and drop its memory (the inverse
    /// of CREATE; used after a snapshot has been re-homed).
    pub fn forget(&mut self, name: &str) -> Result<(), ClientError> {
        let resp = self.call(&Request::Forget {
            name: name.to_string(),
        })?;
        Self::expect_ok(resp)
    }

    /// TRACES: drain the server's completed traces with `trace_id`
    /// (0: every trace) as structured spans; the server keeps the
    /// others. [`crate::cluster::ClusterClient::collect_trace`] merges
    /// one trace's spans across nodes into one cross-process trace,
    /// and `telemetry::trace::chrome_trace_json` renders traces for a
    /// trace viewer.
    pub fn traces(&mut self, trace_id: u64) -> Result<Vec<Trace>, ClientError> {
        let resp = self.call(&Request::Traces { trace_id })?;
        Self::expect_traces(resp)
    }

    /// The underlying stream (tests use this to simulate abrupt
    /// disconnects and raw writes).
    pub fn stream(&mut self) -> &mut TcpStream {
        self.frames.get_mut()
    }
}
