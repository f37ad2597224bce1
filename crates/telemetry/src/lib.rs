//! In-tree observability layer: metric values, static registry
//! handles, Prometheus-style text exposition, and distributed
//! tracing — with zero external dependencies.
//!
//! # Layers
//!
//! - [`Counter`] / [`Gauge`] / [`Histogram`]: instance value types,
//!   never switched off, because the service embeds them in each
//!   server's counter set, which METRICS renders whatever the switch.
//! - [`StaticCounter`] / [`StaticGauge`] / [`StaticHistogram`]:
//!   named `static` handles that lazily self-register into a global
//!   registry on first touch. [`render_registry`] walks the registry
//!   and renders every family as Prometheus text (v0.0.4).
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
//! handle and span timer a single relaxed load followed by a
//! branch-not-taken, and the [`trace`] recorder records nothing until
//! the switch is back on. Instance value types are *not* gated (a
//! server's own counters keep counting). Filter behaviour is identical
//! either way: instrumentation observes, never decides.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod live;
mod value;

pub mod expo;
pub mod trace;

pub use live::{
    enabled, render_registry, set_enabled, Span, StaticCounter, StaticGauge, StaticHistogram,
};
pub use value::{Counter, Gauge, Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS};
