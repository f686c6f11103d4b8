//! # cm-telemetry — sim-time tracing, metrics and a flight recorder
//!
//! The paper's QoS architecture works because every layer *observes*: the
//! transport's QoS maintenance monitors per-VC throughput/jitter/loss
//! against the negotiated flow spec (§4.1.2), and the LLO/HLO orchestration
//! loop regulates streams from harvested sync measurements (§5–6). This
//! crate gives those observations one home:
//!
//! - a **flight recorder** ([`Telemetry`]): a bounded ring buffer of
//!   structured span/instant events stamped with *simulated* time (never
//!   wall clock, so traces are byte-deterministic for a fixed seed);
//! - a **metrics registry**: counters, gauges and log-bucketed
//!   [`Histogram`]s with percentile readout;
//! - two **exporters**: JSONL ([`Telemetry::export_jsonl`]) and Chrome
//!   `trace_event` format ([`Telemetry::export_chrome_trace`]) openable in
//!   Perfetto / `chrome://tracing`.
//!
//! A [`Telemetry`] handle is a cheap clone (one `Rc`); the engine owns one
//! and every layer caches a clone. Disabled telemetry costs a single
//! `Cell<bool>` read per call site — field formatting happens only behind
//! the [`Telemetry::enabled`] fast path, because event builders take
//! closures that never run while disabled.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod export;
mod merge;
mod metrics;

pub use merge::merge_jsonl;
pub use metrics::Histogram;

use cm_core::time::{SimDuration, SimTime};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

/// Which layer of the stack emitted an event. Becomes the Chrome trace
/// "thread" so each layer gets its own track in Perfetto.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// The network substrate: links, routing, reservations, the engine.
    Netsim,
    /// The transport entity: per-VC QoS monitoring, credits, error control.
    Transport,
    /// LLO/HLO orchestration and clock sync.
    Orchestration,
    /// Rooms, peers and room-wide control fan-out.
    Session,
    /// Applications and experiment harnesses.
    App,
}

impl Layer {
    /// Stable lower-case name, used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Netsim => "netsim",
            Layer::Transport => "transport",
            Layer::Orchestration => "orchestration",
            Layer::Session => "session",
            Layer::App => "app",
        }
    }

    /// Chrome trace "thread id" of this layer (stable, 1-based).
    pub fn tid(self) -> u32 {
        match self {
            Layer::Netsim => 1,
            Layer::Transport => 2,
            Layer::Orchestration => 3,
            Layer::Session => 4,
            Layer::App => 5,
        }
    }
}

/// A typed event field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Static string (no allocation).
    Str(&'static str),
    /// Owned string (built only when telemetry is enabled).
    Text(String),
    /// Boolean.
    Bool(bool),
}

/// One recorded event: an instant (`dur == None`) or a completed span.
#[derive(Debug, Clone)]
pub struct Event {
    /// Simulated time the event happened (span start for spans).
    pub at: SimTime,
    /// Emitting layer.
    pub layer: Layer,
    /// Event name, `layer.noun.verb` style (see DESIGN.md taxonomy).
    pub name: &'static str,
    /// Span length; `None` for instant events.
    pub dur: Option<SimDuration>,
    /// Typed key–value fields, in emission order.
    pub fields: Vec<(&'static str, Value)>,
}

/// Builds an event's field list inside an emission closure.
pub struct FieldSink {
    fields: Vec<(&'static str, Value)>,
}

impl FieldSink {
    /// Append an unsigned integer field.
    pub fn u64(&mut self, key: &'static str, v: u64) -> &mut Self {
        self.fields.push((key, Value::U64(v)));
        self
    }

    /// Append a signed integer field.
    pub fn i64(&mut self, key: &'static str, v: i64) -> &mut Self {
        self.fields.push((key, Value::I64(v)));
        self
    }

    /// Append a floating-point field.
    pub fn f64(&mut self, key: &'static str, v: f64) -> &mut Self {
        self.fields.push((key, Value::F64(v)));
        self
    }

    /// Append a static-string field.
    pub fn str(&mut self, key: &'static str, v: &'static str) -> &mut Self {
        self.fields.push((key, Value::Str(v)));
        self
    }

    /// Append an owned-string field (the string is only built when
    /// telemetry is enabled, since the closure doesn't run otherwise).
    pub fn text(&mut self, key: &'static str, v: String) -> &mut Self {
        self.fields.push((key, Value::Text(v)));
        self
    }

    /// Append a boolean field.
    pub fn bool(&mut self, key: &'static str, v: bool) -> &mut Self {
        self.fields.push((key, Value::Bool(v)));
        self
    }
}

struct Inner {
    enabled: Cell<bool>,
    /// Ring-buffer capacity; the oldest events are dropped beyond it.
    capacity: Cell<usize>,
    /// Events dropped to ring-buffer overflow.
    overflow: Cell<u64>,
    events: RefCell<VecDeque<Event>>,
    counters: RefCell<BTreeMap<String, u64>>,
    gauges: RefCell<BTreeMap<String, f64>>,
    histograms: RefCell<BTreeMap<String, Histogram>>,
}

/// Default flight-recorder capacity when enabling without an explicit one.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// Cheap-clone handle to one flight recorder + metrics registry.
///
/// Every clone shares the same buffers. The handle always exists (the
/// engine creates one disabled); [`Telemetry::enable`] flips recording on
/// for every holder at once.
#[derive(Clone)]
pub struct Telemetry {
    inner: Rc<Inner>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::disabled()
    }
}

impl Telemetry {
    fn with_enabled(enabled: bool, capacity: usize) -> Telemetry {
        Telemetry {
            inner: Rc::new(Inner {
                enabled: Cell::new(enabled),
                capacity: Cell::new(capacity),
                overflow: Cell::new(0),
                events: RefCell::new(VecDeque::new()),
                counters: RefCell::new(BTreeMap::new()),
                gauges: RefCell::new(BTreeMap::new()),
                histograms: RefCell::new(BTreeMap::new()),
            }),
        }
    }

    /// An inert recorder: every emission is a single branch.
    pub fn disabled() -> Telemetry {
        Telemetry::with_enabled(false, DEFAULT_CAPACITY)
    }

    /// A recorder capturing up to `capacity` events (oldest dropped first).
    pub fn recording(capacity: usize) -> Telemetry {
        assert!(capacity > 0, "flight recorder needs capacity");
        Telemetry::with_enabled(true, capacity)
    }

    /// Turn recording on (for every holder of a clone of this handle).
    pub fn enable(&self, capacity: usize) {
        assert!(capacity > 0, "flight recorder needs capacity");
        self.inner.capacity.set(capacity);
        self.inner.enabled.set(true);
    }

    /// Turn recording off. Recorded events and metrics are kept.
    pub fn disable(&self) {
        self.inner.enabled.set(false);
    }

    /// The fast path every emission site checks first.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.enabled.get()
    }

    fn push_event(&self, ev: Event) {
        let mut events = self.inner.events.borrow_mut();
        // More than one eviction when `enable` lowered the capacity below
        // the current ring length.
        while events.len() >= self.inner.capacity.get() {
            events.pop_front();
            self.inner.overflow.set(self.inner.overflow.get() + 1);
        }
        events.push_back(ev);
    }

    /// Record an instant event. `fields` runs only when enabled, so the
    /// call site pays one branch while disabled.
    #[inline]
    pub fn instant(
        &self,
        at: SimTime,
        layer: Layer,
        name: &'static str,
        fields: impl FnOnce(&mut FieldSink),
    ) {
        if !self.enabled() {
            return;
        }
        let mut sink = FieldSink { fields: Vec::new() };
        fields(&mut sink);
        self.push_event(Event {
            at,
            layer,
            name,
            dur: None,
            fields: sink.fields,
        });
    }

    /// Record a completed span `[start, start + dur]`.
    #[inline]
    pub fn span(
        &self,
        start: SimTime,
        dur: SimDuration,
        layer: Layer,
        name: &'static str,
        fields: impl FnOnce(&mut FieldSink),
    ) {
        if !self.enabled() {
            return;
        }
        let mut sink = FieldSink { fields: Vec::new() };
        fields(&mut sink);
        self.push_event(Event {
            at: start,
            layer,
            name,
            dur: Some(dur),
            fields: sink.fields,
        });
    }

    /// Add `n` to a named counter.
    #[inline]
    pub fn count(&self, name: &str, n: u64) {
        if !self.enabled() {
            return;
        }
        let mut counters = self.inner.counters.borrow_mut();
        match counters.get_mut(name) {
            Some(c) => *c += n,
            None => {
                counters.insert(name.to_string(), n);
            }
        }
    }

    /// Set a named gauge to its latest value.
    #[inline]
    pub fn gauge(&self, name: &str, v: f64) {
        if !self.enabled() {
            return;
        }
        let mut gauges = self.inner.gauges.borrow_mut();
        match gauges.get_mut(name) {
            Some(g) => *g = v,
            None => {
                gauges.insert(name.to_string(), v);
            }
        }
    }

    /// Record one sample into a named log-bucketed histogram.
    #[inline]
    pub fn record(&self, name: &str, v: u64) {
        if !self.enabled() {
            return;
        }
        let mut hists = self.inner.histograms.borrow_mut();
        match hists.get_mut(name) {
            Some(h) => h.record(v),
            None => {
                let mut h = Histogram::new();
                h.record(v);
                hists.insert(name.to_string(), h);
            }
        }
    }

    /// Record a duration sample, in microseconds.
    #[inline]
    pub fn record_duration(&self, name: &str, d: SimDuration) {
        self.record(name, d.as_micros());
    }

    /// Snapshot of the recorded events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.inner.events.borrow().iter().cloned().collect()
    }

    /// Number of recorded events currently held.
    pub fn event_count(&self) -> usize {
        self.inner.events.borrow().len()
    }

    /// Events dropped because the ring buffer was full.
    pub fn overflow(&self) -> u64 {
        self.inner.overflow.get()
    }

    /// Read a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.counters.borrow().get(name).copied().unwrap_or(0)
    }

    /// Read a gauge's latest value.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.inner.gauges.borrow().get(name).copied()
    }

    /// Clone of a named histogram, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.inner.histograms.borrow().get(name).cloned()
    }

    /// Names of all histograms, in registry (sorted) order.
    pub fn histogram_names(&self) -> Vec<String> {
        self.inner.histograms.borrow().keys().cloned().collect()
    }

    /// Drop all recorded events and metrics (capacity and enablement keep).
    pub fn clear(&self) {
        self.inner.events.borrow_mut().clear();
        self.inner.overflow.set(0);
        self.inner.counters.borrow_mut().clear();
        self.inner.gauges.borrow_mut().clear();
        self.inner.histograms.borrow_mut().clear();
    }

    /// Export events then metrics as JSON Lines (see [`export`] docs).
    pub fn export_jsonl(&self) -> String {
        export::jsonl(self)
    }

    /// Export the event buffer as a Chrome `trace_event` JSON array.
    pub fn export_chrome_trace(&self) -> String {
        export::chrome_trace(self)
    }

    pub(crate) fn counters_snapshot(&self) -> Vec<(String, u64)> {
        self.inner
            .counters
            .borrow()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    pub(crate) fn gauges_snapshot(&self) -> Vec<(String, f64)> {
        self.inner
            .gauges
            .borrow()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    pub(crate) fn histograms_snapshot(&self) -> Vec<(String, Histogram)> {
        self.inner
            .histograms
            .borrow()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn disabled_records_nothing() {
        let tel = Telemetry::disabled();
        tel.instant(t(1), Layer::Netsim, "x", |e| {
            e.u64("n", 1);
        });
        tel.count("c", 3);
        tel.gauge("g", 1.0);
        tel.record("h", 10);
        assert_eq!(tel.event_count(), 0);
        assert_eq!(tel.counter("c"), 0);
        assert_eq!(tel.gauge_value("g"), None);
        assert!(tel.histogram("h").is_none());
    }

    #[test]
    fn disabled_never_runs_field_closure() {
        let tel = Telemetry::disabled();
        tel.instant(t(0), Layer::App, "x", |_| {
            panic!("field closure must not run while disabled")
        });
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let tel = Telemetry::recording(3);
        for i in 0..5u64 {
            tel.instant(t(i), Layer::App, "e", |e| {
                e.u64("i", i);
            });
        }
        let evs = tel.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(tel.overflow(), 2);
        assert_eq!(evs[0].fields[0].1, Value::U64(2));
        assert_eq!(evs[2].fields[0].1, Value::U64(4));
    }

    #[test]
    fn lowering_the_capacity_shrinks_the_ring() {
        let tel = Telemetry::recording(8);
        for i in 0..8u64 {
            tel.instant(t(i), Layer::App, "e", |_| {});
        }
        tel.enable(3);
        tel.instant(t(8), Layer::App, "e", |_| {});
        assert_eq!(tel.event_count(), 3);
        assert_eq!(tel.overflow(), 6);
        assert_eq!(tel.events()[0].at, t(6));
    }

    #[test]
    fn clones_share_state_and_enable_late() {
        let tel = Telemetry::disabled();
        let layer_copy = tel.clone();
        layer_copy.instant(t(0), Layer::App, "early", |_| {});
        tel.enable(16);
        layer_copy.instant(t(1), Layer::App, "late", |_| {});
        assert_eq!(tel.event_count(), 1);
        assert_eq!(tel.events()[0].name, "late");
    }

    #[test]
    fn counters_and_gauges() {
        let tel = Telemetry::recording(8);
        tel.count("pkts", 2);
        tel.count("pkts", 3);
        tel.gauge("offset", -4.5);
        tel.gauge("offset", 2.0);
        assert_eq!(tel.counter("pkts"), 5);
        assert_eq!(tel.gauge_value("offset"), Some(2.0));
    }

    #[test]
    fn span_keeps_duration() {
        let tel = Telemetry::recording(8);
        tel.span(
            t(10),
            SimDuration::from_micros(5),
            Layer::Netsim,
            "s",
            |e| {
                e.str("k", "v");
            },
        );
        let evs = tel.events();
        assert_eq!(evs[0].dur, Some(SimDuration::from_micros(5)));
    }
}
