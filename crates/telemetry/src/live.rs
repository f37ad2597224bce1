//! The instrumentation layer behind the runtime switch.
//!
//! Static handles wrap an instance value with a name and a
//! `Once`-guarded lazy registration into the process-wide registry, so
//! a metric is declared where it is used and appears in the exposition
//! the moment it is first touched — or eagerly, via each crate's
//! `register_metrics()`, so families with zero traffic still render.

use crate::events::{Event, EventKind};
use crate::expo::TextRenderer;
use crate::value::{Counter, Gauge, Histogram};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{LazyLock, Mutex, Once};
use std::time::{Duration, Instant};

/// Runtime kill switch. Static-handle updates, event emission, span
/// timers and the trace recorder check this; instance values do not.
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

/// Process start reference for event timestamps.
static START: LazyLock<Instant> = LazyLock::new(Instant::now);

fn now_us() -> u64 {
    START.elapsed().as_micros().min(u64::MAX as u128) as u64
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

struct Slot {
    seq: AtomicU64,
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
    t_us: AtomicU64,
}

impl Slot {
    const fn empty() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
            t_us: AtomicU64::new(0),
        }
    }
}

/// A lock-free fixed-size ring of structured events.
///
/// Writers claim a monotone ticket with one `fetch_add`, write the
/// payload fields, then publish the ticket into the slot's `seq` with
/// `Release`. Readers `Acquire`-load `seq`, copy the fields, and
/// re-check `seq`; a slot overwritten mid-read fails the re-check and
/// is skipped. Two writers that wrap the ring onto the same slot
/// simultaneously can interleave field writes — the re-check catches
/// the common case (ticket changed) but a reader can in principle
/// observe a blend; events are diagnostics, so the structure trades
/// that sliver of accuracy for never blocking a filter operation.
pub struct EventRing {
    slots: Box<[Slot]>,
    head: AtomicU64,
}

impl EventRing {
    /// Ring with `capacity` slots (rounded up to a power of two).
    /// Oldest events are overwritten once the ring is full.
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        EventRing {
            slots: (0..cap).map(|_| Slot::empty()).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Record one event (lock-free; overwrites the oldest slot when
    /// full). Not gated on [`enabled`] — callers that want the kill
    /// switch check it (the global [`emit`] does).
    pub fn emit(&self, kind: EventKind, a: u64, b: u64) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket as usize) & (self.slots.len() - 1)];
        slot.kind.store(kind as u64, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.t_us.store(now_us(), Ordering::Relaxed);
        // Publish: seq = ticket + 1 so 0 means "never written".
        slot.seq.store(ticket + 1, Ordering::Release);
    }

    /// Total events ever emitted (including overwritten ones).
    pub fn emitted(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Events silently overwritten by ring wrap-around: everything
    /// emitted beyond the newest `capacity()` events is gone.
    pub fn dropped(&self) -> u64 {
        self.emitted().saturating_sub(self.capacity() as u64)
    }

    /// Copy out the currently held events, oldest first. Torn slots
    /// (overwritten while being read) are skipped.
    pub fn snapshot(&self) -> Vec<Event> {
        let mut out: Vec<Event> = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == 0 {
                continue;
            }
            let ev = Event {
                seq,
                t_us: slot.t_us.load(Ordering::Relaxed),
                kind: EventKind::from_u64(slot.kind.load(Ordering::Relaxed)),
                a: slot.a.load(Ordering::Relaxed),
                b: slot.b.load(Ordering::Relaxed),
            };
            if slot.seq.load(Ordering::Acquire) == seq {
                out.push(ev);
            }
        }
        out.sort_by_key(|e| e.seq);
        out
    }
}

/// The process-wide event ring (1024 slots).
static GLOBAL_EVENTS: LazyLock<EventRing> = LazyLock::new(|| EventRing::new(1024));

/// The process-wide event ring that filter-layer instrumentation
/// emits into.
pub fn events() -> &'static EventRing {
    &GLOBAL_EVENTS
}

/// Emit into the global ring (no-op while disabled).
#[inline]
pub fn emit(kind: EventKind, a: u64, b: u64) {
    if enabled() {
        GLOBAL_EVENTS.emit(kind, a, b);
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

    #[test]
    fn ring_keeps_newest_and_orders_by_seq() {
        let ring = EventRing::new(4);
        for i in 0..10u64 {
            ring.emit(EventKind::Expansion, i, 0);
        }
        let events = ring.snapshot();
        assert_eq!(events.len(), 4);
        let a: Vec<u64> = events.iter().map(|e| e.a).collect();
        assert_eq!(a, vec![6, 7, 8, 9]);
        assert_eq!(ring.emitted(), 10);
        assert_eq!(ring.dropped(), 6, "wrap drops are counted");
        assert!(events.iter().all(|e| e.kind == EventKind::Expansion));
    }

    #[test]
    fn dropped_is_zero_until_the_ring_wraps() {
        let ring = EventRing::new(8);
        for i in 0..8u64 {
            ring.emit(EventKind::Other, i, 0);
            assert_eq!(ring.dropped(), 0);
        }
        ring.emit(EventKind::Other, 8, 0);
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn ring_survives_concurrent_writers() {
        let ring = EventRing::new(64);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let ring = &ring;
                s.spawn(move || {
                    for i in 0..1000 {
                        ring.emit(EventKind::CuckooKickChain, t, i);
                    }
                });
            }
        });
        assert_eq!(ring.emitted(), 4000);
        let events = ring.snapshot();
        assert!(!events.is_empty() && events.len() <= 64);
        // Published events are well-formed, in seq order.
        for w in events.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
    }
}
