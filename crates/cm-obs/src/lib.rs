//! # cm-obs — causal OSDU tracing, budget attribution, contract audit
//!
//! The paper's premise is that continuous-media streams carry *negotiated*
//! QoS contracts the transport and orchestrator must maintain (§3.2, §4.1.2).
//! Flat telemetry events can say *that* an OSDU was late; they cannot say
//! which layer spent its budget. This crate closes that gap with three
//! pieces, all deterministic in simulated time:
//!
//! 1. **Causal spans** ([`Obs`]): a trace is minted when an OSDU enters a
//!    VC's send buffer and closed when the sink application reads it.
//!    Along the way each stage stamps a typed segment — pacing wait,
//!    credit stall, network queueing, propagation, repair, mirror relay,
//!    playout hold ([`SegClass`]) — so the closed span decomposes the
//!    whole origin→playout budget with no residual.
//! 2. **Attribution aggregator**: closed spans fold into per-VC (and,
//!    via labels, per-room) breakdowns — p50/p99/max per segment class —
//!    and every deadline miss is classified by its dominant-cause segment.
//! 3. **Contract auditor**: each VC's negotiated deadline and loss budget
//!    are evaluated over tumbling sim-time windows; a window whose miss
//!    fraction exceeds the contracted budget emits a typed
//!    [`ContractBreach`] with a burn rate (observed/allowed).
//!
//! An [`Obs`] handle is a cheap `Rc` clone, created disabled; every hook
//! in the hot path costs one `Cell<bool>` read until [`Obs::enable`] is
//! called — the same budget discipline as `cm-telemetry`.
//!
//! Identity is deliberately light: a trace is keyed `(stream, seq)` where
//! `stream` is the raw `VcId` and `seq` the OSDU sequence number; the
//! per-receiver leg adds the sink node. Nothing rides on the OSDU itself —
//! packets carry an optional 20-byte tag (`netsim` side) and everything
//! else lives in this registry, so the wire format and `Osdu` equality are
//! untouched.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod report;

pub use report::{render_report, ObsZoneReport, SegStats, StreamReport};

use cm_core::hash::FastMap;
use cm_telemetry::Histogram;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

/// The typed segment classes a span decomposes into, in budget order
/// (source side first, sink side last).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SegClass {
    /// Waiting in the send buffer for the pacing clock (rate-based
    /// protocol: one OSDU per period, §3.7).
    Pacing,
    /// Waiting in the send buffer because the receiver window/credit ran
    /// out (§4.2 flow control).
    CreditStall,
    /// Waiting in link output queues along the path.
    Queueing,
    /// Transmission + propagation time on the wire (incl. jitter).
    Propagation,
    /// Loss-recovery time: retransmission delay plus resequencing holds
    /// behind a repaired hole.
    Repair,
    /// Upstream time of a cross-zone mirrored OSDU: home-zone delivery,
    /// relay capture and the wide-area envelope hop.
    MirrorRelay,
    /// Sitting reassembled in the sink buffer until the application read.
    PlayoutHold,
}

impl SegClass {
    /// All classes, budget order. Index in this array is the class's
    /// stable id throughout this crate.
    pub const ALL: [SegClass; 7] = [
        SegClass::Pacing,
        SegClass::CreditStall,
        SegClass::Queueing,
        SegClass::Propagation,
        SegClass::Repair,
        SegClass::MirrorRelay,
        SegClass::PlayoutHold,
    ];

    /// Stable lower-case slug, used in reports and event fields.
    pub fn slug(self) -> &'static str {
        match self {
            SegClass::Pacing => "pacing",
            SegClass::CreditStall => "credit_stall",
            SegClass::Queueing => "queueing",
            SegClass::Propagation => "propagation",
            SegClass::Repair => "repair",
            SegClass::MirrorRelay => "mirror_relay",
            SegClass::PlayoutHold => "playout_hold",
        }
    }
}

/// One audited contract-window violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContractBreach {
    /// Start of the tumbling window (µs, absolute sim time).
    pub window_start_us: u64,
    /// Spans closed inside the window.
    pub spans: u64,
    /// Deadline misses inside the window.
    pub misses: u64,
    /// Burn rate ×100: observed miss rate over the contracted budget
    /// (`200` = burning the budget twice as fast as allowed).
    pub burn_x100: u64,
}

/// Source-side half of an open trace.
struct SourceRec {
    /// Local origin: when the OSDU entered this VC's send buffer.
    origin_us: u64,
    /// End-to-end origin: equals `origin_us` except for mirrored spans,
    /// where it is the home-zone write time carried across the wide area.
    e2e_origin_us: u64,
    /// Upstream time for mirrored spans: home origin → this zone's
    /// re-publish (home residency + relay capture + wide-area hop).
    mirror_relay_us: u64,
    /// Stream's cumulative credit-stall time when the span was minted.
    stall_at_mint_us: u64,
    /// First fresh transmission time; `None` until the OSDU leaves the
    /// send buffer.
    first_tx_us: Option<u64>,
    /// Send-buffer wait attributed to the pacing clock.
    pacing_us: u64,
    /// Send-buffer wait attributed to exhausted credit.
    credit_us: u64,
    /// At least one receiver leg closed against this record. Kept because
    /// a group span closes once per member: the record must outlive the
    /// first close, but its retirement is then bookkeeping, not loss.
    closed_once: bool,
}

/// Per-receiver half of an open trace.
struct ArrivalRec {
    /// When the final fragment completed reassembly at this sink.
    arrived_us: u64,
    /// Sum of link queue waits along the completing fragment's path.
    queued_us: u64,
    /// When the completing fragment's transmission left the source.
    sent_at_us: u64,
    /// When the OSDU entered the sink buffer (differs from `arrived_us`
    /// only when it was stashed behind a hole awaiting repair).
    delivered_us: u64,
}

/// Per-stream state: label, contract, aggregates and the audit window.
struct StreamObs {
    /// Explicit label; the `"vc{id}"` default is built at report time.
    label: Option<String>,
    deadline_us: u64,
    allowed_miss_ppm: u64,
    stall_cum_us: u64,
    pending_relay: Option<(u64, u64)>,
    underruns: u64,
    net_drops: u64,
    seg_hist: [Histogram; 7],
    seg_sum_us: [u64; 7],
    total_hist: Histogram,
    total_sum_us: u64,
    spans: u64,
    misses: u64,
    miss_causes: [u64; 7],
    win_start_us: Option<u64>,
    win_spans: u64,
    win_misses: u64,
    breaches: Vec<ContractBreach>,
    breach_count: u64,
}

impl StreamObs {
    fn new() -> StreamObs {
        StreamObs {
            label: None,
            deadline_us: 0,
            allowed_miss_ppm: 0,
            stall_cum_us: 0,
            pending_relay: None,
            underruns: 0,
            net_drops: 0,
            seg_hist: Default::default(),
            seg_sum_us: [0; 7],
            total_hist: Histogram::new(),
            total_sum_us: 0,
            spans: 0,
            misses: 0,
            miss_causes: [0; 7],
            win_start_us: None,
            win_spans: 0,
            win_misses: 0,
            breaches: Vec::new(),
            breach_count: 0,
        }
    }

    /// Fold the audit window(s) up to `now`, emitting breaches for any
    /// closed window whose miss fraction exceeds the contracted budget.
    fn roll_window(&mut self, now_us: u64, window_us: u64, breach_cap: usize) {
        let Some(start) = self.win_start_us else {
            self.win_start_us = Some(now_us - now_us % window_us);
            return;
        };
        if now_us < start + window_us {
            return;
        }
        if let Some(miss_ppm) = (self.win_misses * 1_000_000).checked_div(self.win_spans) {
            if self.win_misses > 0 && miss_ppm > self.allowed_miss_ppm {
                self.breach_count += 1;
                if self.breaches.len() < breach_cap {
                    self.breaches.push(ContractBreach {
                        window_start_us: start,
                        spans: self.win_spans,
                        misses: self.win_misses,
                        burn_x100: miss_ppm * 100 / self.allowed_miss_ppm.max(1),
                    });
                }
            }
        }
        self.win_spans = 0;
        self.win_misses = 0;
        // Jump straight to the window containing `now` — empty windows
        // cannot breach, so nothing is lost by skipping them.
        self.win_start_us = Some(now_us - now_us % window_us);
    }
}

/// The registries are hashed: they are hit several times per OSDU and
/// hold up to `open_cap` entries, so a hit must not cost more as history
/// grows. Nothing iterates them in an order that shows — retirement order
/// lives in the two `*_order` queues, and `finish_report` sorts streams.
struct Inner {
    enabled: Cell<bool>,
    window_us: Cell<u64>,
    open_cap: Cell<usize>,
    streams: RefCell<FastMap<u64, StreamObs>>,
    open: RefCell<FastMap<(u64, u64), SourceRec>>,
    open_order: RefCell<VecDeque<(u64, u64)>>,
    arrivals: RefCell<FastMap<(u64, u64, u64), ArrivalRec>>,
    arrivals_order: RefCell<VecDeque<(u64, u64, u64)>>,
    abandoned: Cell<u64>,
}

/// Default contract-audit window: one second of simulated time.
pub const DEFAULT_WINDOW_US: u64 = 1_000_000;

/// Default bound on concurrently-open trace records. Oldest-first
/// retirement keeps memory flat under churn; retired spans are counted,
/// never silently lost.
pub const DEFAULT_OPEN_CAP: usize = 65_536;

/// Breach records kept verbatim per stream (the count is exact beyond it).
const BREACH_CAP: usize = 64;

/// Cheap-clone handle to one tracing + audit registry.
///
/// The engine-facing layers each cache a clone; `enable` flips every
/// holder at once, exactly like `cm-telemetry::Telemetry`.
#[derive(Clone)]
pub struct Obs {
    inner: Rc<Inner>,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::disabled()
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.enabled())
            .finish_non_exhaustive()
    }
}

impl Obs {
    /// An inert registry: every hook is a single branch.
    pub fn disabled() -> Obs {
        Obs {
            inner: Rc::new(Inner {
                enabled: Cell::new(false),
                window_us: Cell::new(DEFAULT_WINDOW_US),
                open_cap: Cell::new(DEFAULT_OPEN_CAP),
                streams: RefCell::default(),
                open: RefCell::default(),
                open_order: RefCell::new(VecDeque::new()),
                arrivals: RefCell::default(),
                arrivals_order: RefCell::new(VecDeque::new()),
                abandoned: Cell::new(0),
            }),
        }
    }

    /// Turn tracing on for every holder of a clone of this handle.
    pub fn enable(&self) {
        self.inner.enabled.set(true);
    }

    /// Turn tracing off (recorded aggregates are kept).
    pub fn disable(&self) {
        self.inner.enabled.set(false);
    }

    /// The fast path every hook checks first.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.enabled.get()
    }

    /// Override the contract-audit window length (µs).
    pub fn set_window_us(&self, window_us: u64) {
        assert!(window_us > 0, "audit window must be positive");
        self.inner.window_us.set(window_us);
    }

    fn stream_mut<R>(&self, stream: u64, f: impl FnOnce(&mut StreamObs) -> R) -> R {
        let mut streams = self.inner.streams.borrow_mut();
        f(streams.entry(stream).or_insert_with(StreamObs::new))
    }

    /// Record the negotiated contract for a stream: the end-to-end delay
    /// bound, and the loss budget doubled as the deadline-miss budget —
    /// a late CM OSDU is as lost as a dropped one.
    pub fn set_contract(&self, stream: u64, deadline_us: u64, allowed_miss_ppm: u64) {
        if !self.enabled() {
            return;
        }
        self.stream_mut(stream, |s| {
            s.deadline_us = deadline_us;
            s.allowed_miss_ppm = allowed_miss_ppm;
        });
    }

    /// Attach a human-readable label (room/stream path, media kind…).
    pub fn label(&self, stream: u64, label: &str) {
        if !self.enabled() {
            return;
        }
        self.stream_mut(stream, |s| s.label = Some(label.to_string()));
    }

    /// Mint a trace: the OSDU entered the stream's send buffer at `now`.
    pub fn mint(&self, stream: u64, seq: u64, now_us: u64) {
        if !self.enabled() {
            return;
        }
        let (e2e_origin_us, mirror_relay_us, stall_at_mint_us) = self.stream_mut(stream, |s| {
            let (origin, relay) = match s.pending_relay.take() {
                // The whole upstream leg — home-zone residency, relay
                // capture and the wide-area hop — is one segment here;
                // the home zone's own span carries its fine breakdown.
                Some((origin, _relayed_at)) => (origin, now_us.saturating_sub(origin)),
                None => (now_us, 0),
            };
            (origin, relay, s.stall_cum_us)
        });
        let mut open = self.inner.open.borrow_mut();
        let mut order = self.inner.open_order.borrow_mut();
        // Oldest-first retirement keeps the registry bounded under churn
        // (a closed VC's unread tail never closes its spans). Retiring a
        // record that already closed at least once is plain bookkeeping.
        while open.len() >= self.inner.open_cap.get() {
            let Some(k) = order.pop_front() else { break };
            if let Some(r) = open.remove(&k) {
                if !r.closed_once {
                    self.inner.abandoned.set(self.inner.abandoned.get() + 1);
                }
            }
        }
        order.push_back((stream, seq));
        open.insert(
            (stream, seq),
            SourceRec {
                origin_us: now_us,
                e2e_origin_us,
                mirror_relay_us,
                stall_at_mint_us,
                first_tx_us: None,
                pacing_us: 0,
                credit_us: 0,
                closed_once: false,
            },
        );
    }

    /// Stage relay provenance for the *next* mint on `stream`: the guest
    /// zone's re-publish consumes it so the mirrored span keeps the home
    /// origin and charges the whole upstream leg to
    /// [`SegClass::MirrorRelay`]. `relayed_at_us` (when the home relay
    /// captured the OSDU) is carried for provenance; the segment itself
    /// is measured origin → re-publish.
    pub fn stage_relay(&self, stream: u64, origin_us: u64, relayed_at_us: u64) {
        if !self.enabled() {
            return;
        }
        self.stream_mut(stream, |s| {
            s.pending_relay = Some((origin_us, relayed_at_us));
        });
    }

    /// Clear staged relay provenance (the re-publish was dropped).
    pub fn unstage_relay(&self, stream: u64) {
        if !self.enabled() {
            return;
        }
        self.stream_mut(stream, |s| s.pending_relay = None);
    }

    /// The stream's producer resumed after a credit stall of `dur_us`.
    pub fn stalled(&self, stream: u64, dur_us: u64) {
        if !self.enabled() {
            return;
        }
        self.stream_mut(stream, |s| s.stall_cum_us += dur_us);
    }

    /// First fresh transmission of `(stream, seq)`: splits the
    /// send-buffer wait into pacing vs credit stall. Idempotent — later
    /// fragments and retransmissions leave the record untouched.
    pub fn transmitted(&self, stream: u64, seq: u64, now_us: u64) {
        if !self.enabled() {
            return;
        }
        let stall_now = self.stream_mut(stream, |s| s.stall_cum_us);
        let mut open = self.inner.open.borrow_mut();
        let Some(rec) = open.get_mut(&(stream, seq)) else {
            return;
        };
        if rec.first_tx_us.is_some() {
            return;
        }
        let wait = now_us.saturating_sub(rec.origin_us);
        let credit = stall_now.saturating_sub(rec.stall_at_mint_us).min(wait);
        rec.first_tx_us = Some(now_us);
        rec.credit_us = credit;
        rec.pacing_us = wait - credit;
    }

    /// The final fragment completed reassembly at sink `node`:
    /// `queued_us` is the link-queue wait the completing packet
    /// accumulated, `sent_at_us` when its transmission left the source.
    pub fn arrived(
        &self,
        stream: u64,
        seq: u64,
        node: u64,
        now_us: u64,
        queued_us: u64,
        sent_at_us: u64,
    ) {
        if !self.enabled() {
            return;
        }
        if !self.inner.open.borrow().contains_key(&(stream, seq)) {
            return;
        }
        let mut arrivals = self.inner.arrivals.borrow_mut();
        // First completion wins: a late duplicate (crossing retransmit)
        // must not overwrite the true arrival time.
        if arrivals.contains_key(&(stream, seq, node)) {
            return;
        }
        let mut order = self.inner.arrivals_order.borrow_mut();
        while arrivals.len() >= self.inner.open_cap.get() {
            let Some(k) = order.pop_front() else { break };
            if arrivals.remove(&k).is_some() {
                self.inner.abandoned.set(self.inner.abandoned.get() + 1);
            }
        }
        order.push_back((stream, seq, node));
        arrivals.insert(
            (stream, seq, node),
            ArrivalRec {
                arrived_us: now_us,
                queued_us,
                sent_at_us,
                delivered_us: now_us,
            },
        );
    }

    /// The OSDU entered sink `node`'s receive buffer (later than arrival
    /// only when it waited, stashed, behind a hole under repair).
    pub fn sink_delivered(&self, stream: u64, seq: u64, node: u64, now_us: u64) {
        if !self.enabled() {
            return;
        }
        if let Some(rec) = self
            .inner
            .arrivals
            .borrow_mut()
            .get_mut(&(stream, seq, node))
        {
            rec.delivered_us = now_us;
        }
    }

    /// The sink application read the OSDU: close this receiver's span,
    /// decompose the budget and feed the aggregator + auditor.
    pub fn closed(&self, stream: u64, seq: u64, node: u64, now_us: u64) {
        if !self.enabled() {
            return;
        }
        let Some(arr) = self
            .inner
            .arrivals
            .borrow_mut()
            .remove(&(stream, seq, node))
        else {
            return;
        };
        let (pacing, credit, first_tx, e2e_origin, mirror_relay) = {
            let mut open = self.inner.open.borrow_mut();
            let Some(src) = open.get_mut(&(stream, seq)) else {
                return;
            };
            let Some(first_tx) = src.first_tx_us else {
                return;
            };
            src.closed_once = true;
            (
                src.pacing_us,
                src.credit_us,
                first_tx,
                src.e2e_origin_us,
                src.mirror_relay_us,
            )
        };
        // Budget decomposition. Each piece is the time between two
        // stamped instants, so for a single-zone span they sum exactly
        // to origin→close; mirrored spans add the upstream leg.
        let repair = arr.sent_at_us.saturating_sub(first_tx)
            + arr.delivered_us.saturating_sub(arr.arrived_us);
        let flight = arr.arrived_us.saturating_sub(arr.sent_at_us);
        let queueing = arr.queued_us.min(flight);
        let propagation = flight - queueing;
        let playout = now_us.saturating_sub(arr.delivered_us);
        let total = now_us.saturating_sub(e2e_origin);
        let segs = [
            pacing,
            credit,
            queueing,
            propagation,
            repair,
            mirror_relay,
            playout,
        ];
        let window_us = self.inner.window_us.get();
        self.stream_mut(stream, |s| {
            for (i, &v) in segs.iter().enumerate() {
                s.seg_hist[i].record(v);
                s.seg_sum_us[i] += v;
            }
            s.total_hist.record(total);
            s.total_sum_us += total;
            s.spans += 1;
            s.roll_window(now_us, window_us, BREACH_CAP);
            s.win_spans += 1;
            if s.deadline_us > 0 && total > s.deadline_us {
                s.misses += 1;
                s.win_misses += 1;
                // Dominant cause: the largest segment, ties to the
                // earlier (source-side) class.
                let mut dom = 0;
                for (i, &v) in segs.iter().enumerate() {
                    if v > segs[dom] {
                        dom = i;
                    }
                }
                s.miss_causes[dom] += 1;
            }
        });
    }

    /// A traced packet was dropped in the network (fault, queue overflow,
    /// corruption discard). Repair may still deliver the OSDU; this only
    /// feeds the per-stream drop count.
    pub fn net_drop(&self, stream: u64) {
        if !self.enabled() {
            return;
        }
        self.stream_mut(stream, |s| s.net_drops += 1);
    }

    /// A playout device tick found no unit ready on `stream`.
    pub fn underrun(&self, stream: u64) {
        if !self.enabled() {
            return;
        }
        self.stream_mut(stream, |s| s.underruns += 1);
    }

    /// Spans retired unclosed because the open-trace registry hit its cap.
    pub fn abandoned(&self) -> u64 {
        self.inner.abandoned.get()
    }

    /// Flush the audit windows at end of run and snapshot everything into
    /// a plain (thread-safe) report for `zone`.
    pub fn finish_report(&self, zone: u32, now_us: u64, telemetry_overflow: u64) -> ObsZoneReport {
        let window_us = self.inner.window_us.get();
        let mut streams_out = Vec::new();
        let mut spans = 0u64;
        let mut misses = 0u64;
        let mut breaches_total = 0u64;
        {
            let mut streams = self.inner.streams.borrow_mut();
            for (&id, s) in streams.iter_mut() {
                // Close the final partial window: a breach in the last
                // second of a run is still a breach.
                s.roll_window(now_us.saturating_add(window_us), window_us, BREACH_CAP);
                if s.spans == 0 && s.breach_count == 0 && s.underruns == 0 && s.net_drops == 0 {
                    continue;
                }
                spans += s.spans;
                misses += s.misses;
                breaches_total += s.breach_count;
                streams_out.push(StreamReport {
                    stream: id,
                    label: s.label.clone().unwrap_or_else(|| format!("vc{id}")),
                    deadline_us: s.deadline_us,
                    allowed_miss_ppm: s.allowed_miss_ppm,
                    spans: s.spans,
                    misses: s.misses,
                    miss_causes: s.miss_causes,
                    segs: std::array::from_fn(|i| {
                        SegStats::from_hist(&s.seg_hist[i], s.seg_sum_us[i])
                    }),
                    total: SegStats::from_hist(&s.total_hist, s.total_sum_us),
                    breach_count: s.breach_count,
                    breaches: s.breaches.clone(),
                    underruns: s.underruns,
                    net_drops: s.net_drops,
                });
            }
        }
        // The registry is hashed; the report is in stream-id order.
        streams_out.sort_unstable_by_key(|s| s.stream);
        ObsZoneReport {
            zone,
            spans,
            misses,
            breaches_total,
            open_spans: self
                .inner
                .open
                .borrow()
                .values()
                .filter(|r| !r.closed_once)
                .count() as u64,
            abandoned: self.inner.abandoned.get(),
            telemetry_overflow,
            streams: streams_out,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs() -> Obs {
        let o = Obs::disabled();
        o.enable();
        o
    }

    /// Drive one span through the full pipeline with explicit timings.
    fn one_span(o: &Obs, stream: u64, seq: u64) {
        o.mint(stream, seq, 1_000);
        o.transmitted(stream, seq, 1_400); // 400 pacing
        o.arrived(stream, seq, 9, 2_600, 200, 1_400); // 200 queue, 1000 prop
        o.sink_delivered(stream, seq, 9, 2_600);
        o.closed(stream, seq, 9, 3_000); // 400 playout
    }

    #[test]
    fn disabled_is_inert() {
        let o = Obs::disabled();
        o.mint(1, 0, 10);
        o.transmitted(1, 0, 20);
        o.arrived(1, 0, 9, 30, 0, 20);
        o.closed(1, 0, 9, 40);
        let r = o.finish_report(0, 100, 0);
        assert_eq!(r.spans, 0);
        assert!(r.streams.is_empty());
    }

    #[test]
    fn span_decomposes_budget_exactly() {
        let o = obs();
        one_span(&o, 7, 0);
        let r = o.finish_report(0, 10_000, 0);
        assert_eq!(r.spans, 1);
        let s = &r.streams[0];
        assert_eq!(s.stream, 7);
        let sums: Vec<u64> = s.segs.iter().map(|g| g.sum_us).collect();
        // pacing, credit, queueing, propagation, repair, relay, playout
        assert_eq!(sums, vec![400, 0, 200, 1000, 0, 0, 400]);
        assert_eq!(s.total.sum_us, 2_000);
        assert_eq!(sums.iter().sum::<u64>(), s.total.sum_us);
    }

    #[test]
    fn credit_stall_splits_send_wait() {
        let o = obs();
        o.mint(3, 0, 0);
        o.stalled(3, 600);
        o.transmitted(3, 0, 1_000); // 1000 wait: 600 credit, 400 pacing
        o.arrived(3, 0, 1, 1_500, 0, 1_000);
        o.closed(3, 0, 1, 1_500);
        let r = o.finish_report(0, 2_000, 0);
        let s = &r.streams[0];
        assert_eq!(s.segs[0].sum_us, 400);
        assert_eq!(s.segs[1].sum_us, 600);
    }

    #[test]
    fn retransmission_charges_repair() {
        let o = obs();
        o.mint(5, 0, 0);
        o.transmitted(5, 0, 100);
        // The delivering transmission left 40_000 later (a retransmit):
        // that gap plus a 2_000 stash hold is the repair budget.
        o.arrived(5, 0, 2, 42_000, 0, 40_100);
        o.sink_delivered(5, 0, 2, 44_000);
        o.closed(5, 0, 2, 44_000);
        let s = o.finish_report(0, 50_000, 0);
        assert_eq!(s.streams[0].segs[4].sum_us, 40_000 + 2_000);
    }

    #[test]
    fn relayed_span_keeps_home_origin() {
        let o = obs();
        o.stage_relay(9, 100, 20_100); // home origin 100, relayed at 20_100
        o.mint(9, 0, 25_000);
        o.transmitted(9, 0, 25_000);
        o.arrived(9, 0, 4, 26_000, 0, 25_000);
        o.closed(9, 0, 4, 26_000);
        let s = o.finish_report(0, 30_000, 0);
        let st = &s.streams[0];
        assert_eq!(
            st.segs[5].sum_us,
            25_000 - 100,
            "mirror_relay covers the whole upstream leg"
        );
        assert_eq!(st.total.sum_us, 26_000 - 100, "e2e total from home origin");
    }

    #[test]
    fn deadline_miss_gets_dominant_cause() {
        let o = obs();
        o.set_contract(1, 1_000, 0);
        o.mint(1, 0, 0);
        o.transmitted(1, 0, 100);
        o.arrived(1, 0, 2, 2_000, 1_500, 100); // queueing dominates
        o.closed(1, 0, 2, 2_100);
        let r = o.finish_report(0, 5_000, 0);
        let s = &r.streams[0];
        assert_eq!(s.misses, 1);
        assert_eq!(s.miss_causes[2], 1, "queueing is the dominant cause");
        assert_eq!(s.miss_causes.iter().sum::<u64>(), s.misses);
    }

    #[test]
    fn auditor_breaches_on_burn() {
        let o = obs();
        o.set_contract(1, 500, 100_000); // 10% miss budget
        for seq in 0..10 {
            o.mint(1, seq, seq * 10);
            o.transmitted(1, seq, seq * 10 + 1);
            o.arrived(1, seq, 2, seq * 10 + 2, 0, seq * 10 + 1);
            // Half the spans blow the 500 µs deadline.
            let close = if seq % 2 == 0 {
                seq * 10 + 3
            } else {
                seq * 10 + 900
            };
            o.closed(1, seq, 2, close);
        }
        let r = o.finish_report(0, 2_000_000, 0);
        let s = &r.streams[0];
        assert_eq!(s.misses, 5);
        assert_eq!(s.breach_count, 1, "one breached window");
        let b = s.breaches[0];
        assert_eq!(b.spans, 10);
        assert_eq!(b.misses, 5);
        // 500_000 ppm observed over a 100_000 ppm budget = 5× burn.
        assert_eq!(b.burn_x100, 500);
    }

    #[test]
    fn clean_stream_never_breaches() {
        let o = obs();
        o.set_contract(1, 10_000, 0); // zero miss budget, generous deadline
        for seq in 0..50 {
            let t = seq * 5_000;
            o.mint(1, seq, t);
            o.transmitted(1, seq, t + 10);
            o.arrived(1, seq, 2, t + 500, 0, t + 10);
            o.closed(1, seq, 2, t + 600);
        }
        let r = o.finish_report(0, 300_000, 0);
        assert_eq!(r.misses, 0);
        assert_eq!(r.breaches_total, 0);
    }

    #[test]
    fn open_cap_retires_oldest() {
        let o = obs();
        o.inner.open_cap.set(4);
        for seq in 0..6 {
            o.mint(1, seq, seq);
        }
        assert_eq!(o.abandoned(), 2);
        let open = o.inner.open.borrow();
        assert!(!open.contains_key(&(1, 0)));
        assert!(open.contains_key(&(1, 5)));
    }

    #[test]
    fn report_is_deterministic() {
        let run = || {
            let o = obs();
            o.label(1, "room:r1/main");
            o.set_contract(1, 1_000, 1_000);
            for seq in 0..20 {
                one_span(&o, 1, seq);
            }
            render_report(&[o.finish_report(0, 1_000_000, 3)])
        };
        assert_eq!(run(), run());
    }
}
