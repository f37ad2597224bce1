//! The instrumentation layer behind the runtime switch.
//!
//! Static handles wrap an instance value with a name and a
//! `Once`-guarded lazy registration into the process-wide registry, so
//! a metric is declared where it is used and appears in the exposition
//! the moment it is first touched — or eagerly, via each crate's
//! `register_metrics()`, so families with zero traffic still render.

use crate::expo::TextRenderer;
use crate::value::{Counter, Gauge, Histogram};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, Once};
use std::time::{Duration, Instant};

/// Runtime kill switch. Static-handle updates, span timers and the
/// trace recorder check this; instance values do not.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Flip the runtime kill switch (the E22 overhead experiment measures
/// on-vs-off within one binary). On by default.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Current state of the runtime kill switch.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

enum AnyMetric {
    Counter(&'static StaticCounter),
    Gauge(&'static StaticGauge),
    Histogram(&'static StaticHistogram),
}

impl AnyMetric {
    fn name(&self) -> &'static str {
        match self {
            AnyMetric::Counter(c) => c.name,
            AnyMetric::Gauge(g) => g.name,
            AnyMetric::Histogram(h) => h.name,
        }
    }
}

static REGISTRY: Mutex<Vec<AnyMetric>> = Mutex::new(Vec::new());

fn registry_push(m: AnyMetric) {
    REGISTRY.lock().unwrap_or_else(|p| p.into_inner()).push(m);
}

/// Render every registered metric as Prometheus text, families sorted
/// by name.
pub fn render_registry() -> String {
    let reg = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    let mut items: Vec<&AnyMetric> = reg.iter().collect();
    items.sort_by_key(|m| m.name());
    let mut r = TextRenderer::new();
    for m in items {
        match m {
            AnyMetric::Counter(c) => r.counter(c.name, c.help, c.get()),
            AnyMetric::Gauge(g) => r.gauge(g.name, g.help, g.get()),
            AnyMetric::Histogram(h) => r.histogram(h.name, h.help, &h.get()),
        }
    }
    r.finish()
}

/// A named, registry-backed monotone counter for `static` declarations.
pub struct StaticCounter {
    name: &'static str,
    help: &'static str,
    value: Counter,
    once: Once,
}

impl StaticCounter {
    /// Declare (does not register until first use or `register`).
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        StaticCounter {
            name,
            help,
            value: Counter::new(),
            once: Once::new(),
        }
    }

    /// Ensure this metric appears in the exposition even at zero.
    pub fn register(&'static self) {
        self.once
            .call_once(|| registry_push(AnyMetric::Counter(self)));
    }

    /// Add one (no-op while disabled).
    #[inline]
    pub fn inc(&'static self) {
        self.add(1);
    }

    /// Add `n` (no-op while disabled).
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !enabled() {
            return;
        }
        self.register();
        self.value.add(n);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.get()
    }
}

/// A named, registry-backed gauge for `static` declarations.
pub struct StaticGauge {
    name: &'static str,
    help: &'static str,
    value: Gauge,
    once: Once,
}

impl StaticGauge {
    /// Declare (does not register until first use or `register`).
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        StaticGauge {
            name,
            help,
            value: Gauge::new(),
            once: Once::new(),
        }
    }

    /// Ensure this metric appears in the exposition even at zero.
    pub fn register(&'static self) {
        self.once
            .call_once(|| registry_push(AnyMetric::Gauge(self)));
    }

    /// Add `delta`, which may be negative (no-op while disabled).
    #[inline]
    pub fn add(&'static self, delta: i64) {
        if !enabled() {
            return;
        }
        self.register();
        self.value.add(delta);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.get()
    }
}

/// A named, registry-backed histogram for `static` declarations.
pub struct StaticHistogram {
    name: &'static str,
    help: &'static str,
    value: Histogram,
    once: Once,
}

impl StaticHistogram {
    /// Declare (does not register until first use or `register`).
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        StaticHistogram {
            name,
            help,
            value: Histogram::new(),
            once: Once::new(),
        }
    }

    /// Ensure this metric appears in the exposition even when empty.
    pub fn register(&'static self) {
        self.once
            .call_once(|| registry_push(AnyMetric::Histogram(self)));
    }

    /// Record a raw value (no-op while disabled).
    #[inline]
    pub fn observe(&'static self, v: u64) {
        if !enabled() {
            return;
        }
        self.register();
        self.value.observe(v);
    }

    /// Record a duration in nanoseconds (no-op while disabled).
    #[inline]
    pub fn record(&'static self, d: Duration) {
        self.observe(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Start a span whose drop records its elapsed nanoseconds here.
    /// Returns an inert span while disabled (no clock read).
    pub fn span(&'static self) -> Span {
        Span {
            target: enabled().then(|| (self, Instant::now())),
        }
    }

    /// Snapshot of the recorded distribution.
    pub fn get(&self) -> crate::value::HistogramSnapshot {
        self.value.snapshot()
    }
}

/// A drop-timer: records elapsed wall time into its histogram when it
/// goes out of scope. Obtained from [`StaticHistogram::span`].
pub struct Span {
    target: Option<(&'static StaticHistogram, Instant)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((h, t0)) = self.target.take() {
            h.record(t0.elapsed());
        }
    }
}

/// The kill switch (and the global trace store) are process-global;
/// tests across this crate that read or write them serialize here so
/// the parallel test harness cannot interleave a disabled window (or
/// a store drain) into another test's updates.
#[cfg(test)]
pub(crate) static TEST_SWITCH_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    static TEST_COUNTER: StaticCounter =
        StaticCounter::new("bb_test_live_counter_total", "Test counter.");
    static TEST_HIST: StaticHistogram =
        StaticHistogram::new("bb_test_live_hist", "Test histogram.");
    static TEST_GAUGE: StaticGauge = StaticGauge::new("bb_test_live_gauge", "Test gauge.");

    use super::TEST_SWITCH_LOCK as SWITCH_LOCK;

    #[test]
    fn handles_register_on_first_touch_and_render() {
        let _g = SWITCH_LOCK.lock().unwrap();
        TEST_COUNTER.add(3);
        TEST_HIST.observe(100);
        TEST_GAUGE.add(-2);
        let text = render_registry();
        let expo = crate::expo::parse(&text).unwrap();
        assert!(expo.value("bb_test_live_counter_total").unwrap() >= 3.0);
        assert!(expo.has_family("bb_test_live_hist"));
        assert!(expo.has_family("bb_test_live_gauge"));
    }

    #[test]
    fn kill_switch_stops_static_updates() {
        static SWITCHED: StaticCounter = StaticCounter::new("bb_test_switch_total", "Switch test.");
        let _g = SWITCH_LOCK.lock().unwrap();
        SWITCHED.inc();
        let before = SWITCHED.get();
        set_enabled(false);
        SWITCHED.inc();
        assert_eq!(SWITCHED.get(), before);
        set_enabled(true);
        SWITCHED.inc();
        assert_eq!(SWITCHED.get(), before + 1);
    }

    #[test]
    fn span_records_into_histogram() {
        static SPANNED: StaticHistogram = StaticHistogram::new("bb_test_span_hist", "Span test.");
        let _g = SWITCH_LOCK.lock().unwrap();
        {
            let _s = SPANNED.span();
            std::hint::black_box(0);
        }
        assert_eq!(SPANNED.get().count(), 1);
    }
}
