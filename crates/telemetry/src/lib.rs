//! In-tree observability layer: metric values, static registry
//! handles, a lock-free structured event ring, and Prometheus-style
//! text exposition — with zero external dependencies.
//!
//! # Layers
//!
//! - [`Counter`] / [`Gauge`] / [`Histogram`]: instance value types,
//!   never switched off, because the service embeds them in its
//!   wire-visible STATS report.
//! - [`StaticCounter`] / [`StaticGauge`] / [`StaticHistogram`]:
//!   named `static` handles that lazily self-register into a global
//!   registry on first touch. [`render_registry`] walks the registry
//!   and renders every family as Prometheus text (v0.0.4).
//! - [`EventRing`] / [`emit`] / [`events`]: a fixed-size seqlock-style
//!   ring for structured events (expansions, cuckoo kick chains, CQF
//!   cluster spills, shard-poison recoveries, slow requests). Writers
//!   are wait-free; readers skip torn slots.
//! - [`StaticHistogram::span`]: a drop-timer that records elapsed
//!   nanoseconds into a histogram, reading the clock only when the
//!   layer is enabled.
//! - [`expo`]: the text renderer plus a strict parser/validator used
//!   by tests and the dashboard example.
//! - [`trace`]: dependency-free distributed tracing — spans with
//!   `(trace_id, span_id, parent_id)`, a 17-byte wire context,
//!   tail-based promotion into a bounded store, span-link handoffs to
//!   background work, and a Chrome `trace_event` JSON renderer.
//!
//! # Turning it off
//!
//! One runtime switch: [`set_enabled`]`(false)` makes every static
//! handle, span timer, and global [`emit`] a single relaxed load
//! followed by a branch-not-taken, and the [`trace`] recorder records
//! nothing until the switch is back on. Instance value types are
//! *not* gated (the service's STATS path must keep counting). Filter
//! behaviour is identical either way: instrumentation observes, never
//! decides.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod events;
mod live;
mod value;

pub mod expo;
pub mod trace;

pub use events::{Event, EventKind};
pub use live::{
    emit, enabled, events, render_registry, set_enabled, EventRing, Span, StaticCounter,
    StaticGauge, StaticHistogram,
};
pub use value::{Counter, Gauge, Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS};
