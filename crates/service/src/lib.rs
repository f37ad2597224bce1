//! # service
//!
//! A production-shaped network layer over the workspace's filters: the
//! tutorial's feature-rich filters (concurrent Bloom, deletable
//! cuckoo, counting quotient) served as named instances behind a
//! versioned binary wire protocol — the deployment shape in which
//! systems like caches, routers, and storage engines actually consume
//! a filter when it cannot live in the querying process.
//!
//! Three design constraints shape everything here:
//!
//! 1. **Offline-buildable.** The workspace builds without crates.io,
//!    so the stack is `std::net` plus an in-tree epoll readiness loop
//!    (one per core): no async runtime, no serde,
//!    no prometheus client. Serialization reuses
//!    `filter_core::serial`, and observability is the in-tree
//!    `telemetry` crate (atomic counters + fixed-bucket latency
//!    histograms) exposed as a Prometheus-text METRICS frame carrying
//!    every registered family, this server's counters, the filter
//!    inventory, and the slow-request log. STATS lists the filters.
//! 2. **Batching as the unit of amortisation.** A frame carries a
//!    whole batch of keys; the server answers a batch CONTAINS with
//!    one registry lookup and one shard-grouped filter call
//!    (`Sharded::contains_batch`), and membership answers return
//!    bit-packed. Per-key network cost is what the batch-size sweep in
//!    experiment E19 measures.
//! 3. **Hostile-input hygiene.** Frame lengths are bounded before
//!    allocation, payloads decode through checked [`SerialError`]
//!    paths, and a peer that disconnects mid-frame or ships an absurd
//!    length prefix costs the server one counter increment and a
//!    closed socket — never a panic, a wedge, or an over-read.
//!
//! [`SerialError`]: filter_core::SerialError
//!
//! Module map: [`proto`] (framing + request/response codec),
//! [`engine`] (registry + dispatch core behind the transport),
//! [`evented`] (the server: one readiness loop per core, pipelining,
//! graceful shutdown),
//! [`cluster`] (consistent-hash routing + snapshot migration),
//! [`client`] (blocking request/response client), [`metrics`]
//! (the server's counters, the STATS inventory).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod cluster;
pub mod engine;
pub mod evented;
pub mod metrics;
pub mod proto;

pub use client::{ClientError, FilterClient};
pub use cluster::{ClusterClient, ClusterError, HashRing, MigrationReport};
pub use engine::{
    build_atomic_bloom, build_compacting, build_sharded_cqf, build_sharded_cuckoo,
    build_sharded_register_bloom, build_sharded_two_choice, cuckoo_fp_bits, register_metrics,
    ServedFilter, ServerConfig,
};
pub use evented::EventedFilterServer;
pub use metrics::{FilterRow, HistogramSnapshot, LatencyHistogram, ServerMetrics, StatsReport};
pub use proto::{Backend, ErrorCode, Request, Response, DEFAULT_MAX_FRAME, PROTO_VERSION};
