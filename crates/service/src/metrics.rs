//! Each server's own counters and request-latency histogram, and the
//! STATS filter inventory.
//!
//! The container builds offline, so there is no prometheus client to
//! lean on; the value types live in the `telemetry` crate and are
//! shared with the filter-layer instrumentation — monotonic `Relaxed`
//! counters (each is an independent statistic; cross-counter reads
//! tolerate the same benign racing as `Sharded::len`) and a
//! fixed-bucket power-of-two latency histogram with an explicit
//! bucket for exactly-zero samples (a sub-resolution duration must
//! not alias the 1 ns bucket). Quantiles are reconstructed from
//! bucket boundaries, so a reported p99 is an upper bound within one
//! power of two — the honest resolution for a histogram this cheap.
//!
//! One read path per signal: METRICS renders the counters as the
//! `bb_server_*` families (`ServerMetrics::render`), and STATS
//! carries only the filter inventory ([`StatsReport`]). This module
//! owns the whole counter set, so a new server counter is a field on
//! [`ServerMetrics`] plus its row in `render`.

use filter_core::{ByteReader, ByteWriter, SerialError};
use telemetry::expo::TextRenderer;

pub use telemetry::{Counter, Gauge, HistogramSnapshot, HISTOGRAM_BUCKETS};

/// The latency histogram type (shared with the telemetry layer).
pub type LatencyHistogram = telemetry::Histogram;

/// The server-side counter set. All counters are monotone and
/// `Relaxed`; reading several is a consistent-enough racing read.
/// These are *instance* values (not static registry handles) so every
/// server in a process gets its own set — the METRICS renderer folds
/// them into the exposition per server. A server in the same process
/// reads them directly (`EventedFilterServer::metrics`).
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Connections accepted.
    pub connections_opened: Counter,
    /// Connections fully torn down.
    pub connections_closed: Counter,
    /// Complete frames received (well-formed or not).
    pub frames_received: Counter,
    /// Response frames written.
    pub responses_sent: Counter,
    /// Malformed payloads, bad versions, unknown opcodes, and
    /// oversized length prefixes.
    pub protocol_errors: Counter,
    /// Peers that vanished in the middle of a frame.
    pub disconnects_mid_frame: Counter,
    /// Requests answered with an error response (includes protocol
    /// errors that could still be answered).
    pub error_responses: Counter,
    /// Keys processed across INSERT/CONTAINS/COUNT/DELETE batches.
    pub keys_processed: Counter,
    /// Keys that arrived in multi-key INSERT/CONTAINS requests and so
    /// were served by the batched probe kernels rather than the scalar
    /// path — `batched_ops / keys_processed` is the fraction of
    /// traffic amortizing hash-hoisted, prefetched lookups.
    pub batched_ops: Counter,
    /// Payload bytes read.
    pub bytes_in: Counter,
    /// Payload bytes written.
    pub bytes_out: Counter,
    /// `accept(2)` calls that returned a real error (not
    /// `WouldBlock`): fd exhaustion, aborted handshakes.
    pub accept_errors: Counter,
    /// Connections currently open (accepted and not yet torn down).
    pub open_connections: Gauge,
    /// High-watermark of complete frames dispatched from one
    /// connection in a single readiness drain — the observed
    /// pipelining depth: how deep clients actually pipeline.
    pub pipelined_depth: Gauge,
    /// Server-side request service time (decode → response written).
    pub request_latency: LatencyHistogram,
}

impl ServerMetrics {
    /// Fresh all-zero metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Render the `bb_server_*` families into a METRICS exposition.
    /// `slow_requests` is the slow-request log's count of entries ever
    /// logged: the log is the one record of a slow request.
    pub(crate) fn render(&self, r: &mut TextRenderer, slow_requests: u64) {
        for (name, help, v) in [
            (
                "bb_server_connections_opened_total",
                "Connections accepted.",
                self.connections_opened.get(),
            ),
            (
                "bb_server_connections_closed_total",
                "Connections fully torn down.",
                self.connections_closed.get(),
            ),
            (
                "bb_server_frames_received_total",
                "Complete frames received.",
                self.frames_received.get(),
            ),
            (
                "bb_server_responses_sent_total",
                "Response frames written.",
                self.responses_sent.get(),
            ),
            (
                "bb_server_protocol_errors_total",
                "Malformed payloads, bad versions, unknown opcodes, oversized frames.",
                self.protocol_errors.get(),
            ),
            (
                "bb_server_disconnects_mid_frame_total",
                "Peers that vanished in the middle of a frame.",
                self.disconnects_mid_frame.get(),
            ),
            (
                "bb_server_error_responses_total",
                "Requests answered with an error response.",
                self.error_responses.get(),
            ),
            (
                "bb_server_keys_processed_total",
                "Keys processed across INSERT/CONTAINS/COUNT/DELETE batches.",
                self.keys_processed.get(),
            ),
            (
                "bb_server_batched_ops_total",
                "Keys served through the batched probe kernels.",
                self.batched_ops.get(),
            ),
            (
                "bb_server_bytes_in_total",
                "Payload bytes read.",
                self.bytes_in.get(),
            ),
            (
                "bb_server_bytes_out_total",
                "Payload bytes written.",
                self.bytes_out.get(),
            ),
            (
                "bb_server_slow_requests_total",
                "Requests slower than the slow-request threshold.",
                slow_requests,
            ),
            (
                "bb_server_accept_errors_total",
                "accept(2) calls that returned a real error.",
                self.accept_errors.get(),
            ),
        ] {
            r.counter(name, help, v);
        }
        r.gauge(
            "bb_server_open_connections",
            "Connections currently open on this server.",
            self.open_connections.get(),
        );
        r.gauge(
            "bb_server_pipelined_depth",
            "Deepest single-drain pipelining observed on any connection.",
            self.pipelined_depth.get(),
        );
        r.histogram(
            "bb_server_request_latency_ns",
            "Server-side request service time (decode to response written).",
            &self.request_latency.snapshot(),
        );
    }

    /// Raise a watermark gauge to at least `v`. Racing updates can
    /// settle slightly low under contention; a watermark read as a
    /// lower bound tolerates that.
    pub fn raise_pipelined_depth(&self, v: i64) {
        if v > self.pipelined_depth.get() {
            self.pipelined_depth.set(v);
        }
    }
}

/// One served filter's row in the STATS inventory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterRow {
    /// Registry name.
    pub name: String,
    /// Backend family.
    pub backend: crate::proto::Backend,
    /// Distinct keys represented (racing snapshot).
    pub len: u64,
    /// Heap bytes.
    pub size_in_bytes: u64,
}

/// The STATS response body: the filter inventory. The server's
/// counters are METRICS families, not part of STATS.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsReport {
    /// One row per registered filter, in name order.
    pub filters: Vec<FilterRow>,
}

impl StatsReport {
    /// Serialize into a STATS frame body.
    pub fn serialize(&self, w: &mut ByteWriter) {
        w.put_u64(self.filters.len() as u64);
        for row in &self.filters {
            w.put_bytes(row.name.as_bytes());
            w.put_u32(row.backend.to_u32());
            w.put_u64(row.len);
            w.put_u64(row.size_in_bytes);
        }
    }

    /// Deserialize from a STATS frame body.
    pub fn deserialize(r: &mut ByteReader<'_>) -> Result<Self, SerialError> {
        let n = r.take_u64()? as usize;
        if n > 1 << 20 {
            return Err(SerialError::Corrupt("stats filter count"));
        }
        let mut filters = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let name = String::from_utf8(r.take_bytes()?)
                .map_err(|_| SerialError::Corrupt("stats name not utf-8"))?;
            filters.push(FilterRow {
                name,
                backend: crate::proto::Backend::from_u32(r.take_u32()?)?,
                len: r.take_u64()?,
                size_in_bytes: r.take_u64()?,
            });
        }
        Ok(StatsReport { filters })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelined_depth_is_a_watermark() {
        let m = ServerMetrics::new();
        m.raise_pipelined_depth(7);
        m.raise_pipelined_depth(2); // lower values don't regress it
        assert_eq!(m.pipelined_depth.get(), 7);
    }

    #[test]
    fn stats_report_roundtrip() {
        let report = StatsReport {
            filters: vec![
                FilterRow {
                    name: "urls".into(),
                    backend: crate::proto::Backend::AtomicBloom,
                    len: 1_000,
                    size_in_bytes: 2_048,
                },
                FilterRow {
                    name: "kmers".into(),
                    backend: crate::proto::Backend::ShardedCqf,
                    len: 7,
                    size_in_bytes: 64,
                },
            ],
        };
        let mut w = ByteWriter::new();
        report.serialize(&mut w);
        let bytes = w.into_bytes();
        let back = StatsReport::deserialize(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(back, report);
        // Truncations error cleanly.
        for cut in 0..bytes.len() {
            assert!(StatsReport::deserialize(&mut ByteReader::new(&bytes[..cut])).is_err());
        }
    }
}
