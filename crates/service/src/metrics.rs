//! In-tree observability: the server's counter set and latency
//! histogram, exposed over the STATS frame.
//!
//! The container builds offline, so there is no prometheus client to
//! lean on; the value types now live in the `telemetry` crate and are
//! shared with the filter-layer instrumentation — monotonic `Relaxed`
//! counters (each is an independent statistic; cross-counter
//! snapshots tolerate the same benign racing as `Sharded::len`) and a
//! fixed-bucket power-of-two latency histogram with an explicit
//! bucket for exactly-zero samples (a sub-resolution duration must
//! not alias the 1 ns bucket). Quantiles are reconstructed from
//! bucket boundaries, so a reported p99 is an upper bound within one
//! power of two — the honest resolution for a histogram this cheap.
//!
//! The same counters also feed the Prometheus-text METRICS exposition
//! (see `engine::render_metrics`); STATS remains the compact binary
//! path for programmatic clients.

use filter_core::{ByteReader, ByteWriter, SerialError};

pub use telemetry::{Counter, Gauge, HistogramSnapshot, HISTOGRAM_BUCKETS};

/// The latency histogram type (shared with the telemetry layer).
pub type LatencyHistogram = telemetry::Histogram;

/// Serialize a histogram snapshot for the STATS frame
/// (length-prefixed bucket counts, then the running sum).
pub fn serialize_histogram(snap: &HistogramSnapshot, w: &mut ByteWriter) {
    w.put_u64_slice(snap.counts());
    w.put_u64(snap.sum());
}

/// Deserialize a histogram snapshot from a STATS frame.
pub fn deserialize_histogram(r: &mut ByteReader<'_>) -> Result<HistogramSnapshot, SerialError> {
    let counts = r.take_u64_vec()?;
    if counts.len() > HISTOGRAM_BUCKETS {
        return Err(SerialError::Corrupt("histogram bucket count"));
    }
    let sum = r.take_u64()?;
    Ok(HistogramSnapshot::from_parts(counts, sum))
}

/// The server-side counter set. All counters are monotone and
/// `Relaxed`; a snapshot is a consistent-enough racing read. These are
/// *instance* values (not static registry handles) so every server in
/// a process gets its own set — the METRICS renderer folds them into
/// the exposition per server.
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
    /// Requests whose service time exceeded the server's slow-request
    /// threshold (each also lands in the slow-request log).
    pub slow_requests: Counter,
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

    /// Snapshot every counter plus the latency histogram.
    pub fn snapshot(&self) -> CountersSnapshot {
        CountersSnapshot {
            connections_opened: self.connections_opened.get(),
            connections_closed: self.connections_closed.get(),
            frames_received: self.frames_received.get(),
            responses_sent: self.responses_sent.get(),
            protocol_errors: self.protocol_errors.get(),
            disconnects_mid_frame: self.disconnects_mid_frame.get(),
            error_responses: self.error_responses.get(),
            keys_processed: self.keys_processed.get(),
            batched_ops: self.batched_ops.get(),
            bytes_in: self.bytes_in.get(),
            bytes_out: self.bytes_out.get(),
            slow_requests: self.slow_requests.get(),
            accept_errors: self.accept_errors.get(),
            open_connections: self.open_connections.get(),
            pipelined_depth: self.pipelined_depth.get(),
            request_latency: self.request_latency.snapshot(),
        }
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

/// An owned, serializable copy of [`ServerMetrics`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CountersSnapshot {
    /// Connections accepted.
    pub connections_opened: u64,
    /// Connections fully torn down.
    pub connections_closed: u64,
    /// Complete frames received.
    pub frames_received: u64,
    /// Response frames written.
    pub responses_sent: u64,
    /// Protocol-level failures (malformed, oversized, bad version).
    pub protocol_errors: u64,
    /// Peers that vanished mid-frame.
    pub disconnects_mid_frame: u64,
    /// Error responses sent.
    pub error_responses: u64,
    /// Keys processed across all batch operations.
    pub keys_processed: u64,
    /// Keys served through the batched probe kernels (multi-key
    /// INSERT/CONTAINS requests).
    pub batched_ops: u64,
    /// Payload bytes read.
    pub bytes_in: u64,
    /// Payload bytes written.
    pub bytes_out: u64,
    /// Requests slower than the slow-request threshold.
    pub slow_requests: u64,
    /// Failed `accept(2)` calls.
    pub accept_errors: u64,
    /// Connections open at snapshot time.
    pub open_connections: i64,
    /// Deepest single-drain pipelining observed on any connection.
    pub pipelined_depth: i64,
    /// Server-side service-time histogram.
    pub request_latency: HistogramSnapshot,
}

impl CountersSnapshot {
    fn serialize(&self, w: &mut ByteWriter) {
        for v in [
            self.connections_opened,
            self.connections_closed,
            self.frames_received,
            self.responses_sent,
            self.protocol_errors,
            self.disconnects_mid_frame,
            self.error_responses,
            self.keys_processed,
            self.batched_ops,
            self.bytes_in,
            self.bytes_out,
            self.slow_requests,
        ] {
            w.put_u64(v);
        }
        serialize_histogram(&self.request_latency, w);
        // Appended after the histogram so the field block above keeps
        // its original offsets (wire-compatible extension).
        w.put_u64(self.accept_errors);
        w.put_u64(self.open_connections as u64);
        w.put_u64(self.pipelined_depth as u64);
    }

    fn deserialize(r: &mut ByteReader<'_>) -> Result<Self, SerialError> {
        Ok(CountersSnapshot {
            connections_opened: r.take_u64()?,
            connections_closed: r.take_u64()?,
            frames_received: r.take_u64()?,
            responses_sent: r.take_u64()?,
            protocol_errors: r.take_u64()?,
            disconnects_mid_frame: r.take_u64()?,
            error_responses: r.take_u64()?,
            keys_processed: r.take_u64()?,
            batched_ops: r.take_u64()?,
            bytes_in: r.take_u64()?,
            bytes_out: r.take_u64()?,
            slow_requests: r.take_u64()?,
            request_latency: deserialize_histogram(r)?,
            accept_errors: r.take_u64()?,
            open_connections: r.take_u64()? as i64,
            pipelined_depth: r.take_u64()? as i64,
        })
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

/// The full STATS response body: counters plus filter inventory.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsReport {
    /// Server-wide counters and latency.
    pub counters: CountersSnapshot,
    /// One row per registered filter, in name order.
    pub filters: Vec<FilterRow>,
}

impl StatsReport {
    /// Serialize into a STATS frame body.
    pub fn serialize(&self, w: &mut ByteWriter) {
        self.counters.serialize(w);
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
        let counters = CountersSnapshot::deserialize(r)?;
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
        Ok(StatsReport { counters, filters })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn bucket_selection_has_explicit_zero_bucket() {
        // Regression: 0 ns and 1 ns used to share a bucket, so a
        // timer whose resolution rounded a fast request down to zero
        // silently inflated the 1 ns bin. Pin the boundaries.
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 1);
        assert_eq!(LatencyHistogram::bucket_of(2), 2);
        assert_eq!(LatencyHistogram::bucket_of(3), 2);
        assert_eq!(LatencyHistogram::bucket_of(4), 3);
        assert_eq!(LatencyHistogram::bucket_of(1024), 11);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        let h = LatencyHistogram::new();
        h.record(Duration::ZERO);
        h.record(Duration::from_nanos(1));
        let snap = h.snapshot();
        assert_eq!(snap.counts()[0], 1);
        assert_eq!(snap.counts()[1], 1);
        assert_eq!(snap.quantile_ns(0.25), 0);
    }

    #[test]
    fn quantiles_are_upper_bounds() {
        let h = LatencyHistogram::new();
        // 90 samples at ~1us, 10 at ~1ms.
        for _ in 0..90 {
            h.record(Duration::from_nanos(1_000));
        }
        for _ in 0..10 {
            h.record(Duration::from_nanos(1_000_000));
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 100);
        let p50 = snap.quantile_ns(0.50);
        let p99 = snap.quantile_ns(0.99);
        assert!((1_000..4_096).contains(&p50), "p50 {p50}");
        assert!((1_000_000..4_194_304).contains(&p99), "p99 {p99}");
        assert!(snap.quantile_ns(0.0) > 0);
        assert_eq!(HistogramSnapshot::default().quantile_ns(0.99), 0);
    }

    #[test]
    fn merge_sums_buckets() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        a.record(Duration::from_nanos(100));
        b.record(Duration::from_nanos(100));
        b.record(Duration::from_micros(50));
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count(), 3);
    }

    #[test]
    fn stats_report_roundtrip() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_micros(3));
        let m = ServerMetrics::new();
        m.connections_opened.add(5);
        m.frames_received.add(100);
        m.keys_processed.add(4096);
        m.batched_ops.add(4000);
        m.slow_requests.inc();
        m.accept_errors.inc();
        m.open_connections.add(3);
        m.raise_pipelined_depth(7);
        m.raise_pipelined_depth(2); // watermark: lower values don't regress it
        let report = StatsReport {
            counters: CountersSnapshot {
                request_latency: h.snapshot(),
                ..m.snapshot()
            },
            filters: vec![FilterRow {
                name: "urls".into(),
                backend: crate::proto::Backend::AtomicBloom,
                len: 1_000,
                size_in_bytes: 2_048,
            }],
        };
        let mut w = ByteWriter::new();
        report.serialize(&mut w);
        let bytes = w.into_bytes();
        let back = StatsReport::deserialize(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.counters.slow_requests, 1);
        assert_eq!(back.counters.accept_errors, 1);
        assert_eq!(back.counters.open_connections, 3);
        assert_eq!(back.counters.pipelined_depth, 7);
        assert_eq!(back.counters.request_latency.sum(), 3_000);
        // Truncations error cleanly.
        for cut in 0..bytes.len() {
            assert!(StatsReport::deserialize(&mut ByteReader::new(&bytes[..cut])).is_err());
        }
    }
}
