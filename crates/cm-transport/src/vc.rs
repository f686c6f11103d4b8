//! Per-VC connection state held by a transport entity.
//!
//! Every VC is simplex (§3.1): one end holds a [`SourceEnd`] (send buffer +
//! pacing/window engine), the other a [`SinkEnd`] (receive buffer +
//! reassembly engine + QoS monitor). The same node may of course hold both
//! ends of *different* VCs.

use crate::buffer::BufferHandle;
use crate::monitor::QosMonitor;
use crate::rate::RateClock;
use crate::receiver::SinkEngine;
use crate::tpdu::DataTpdu;
use crate::window::{GoBackNReceiver, GoBackNSender};
use cm_core::address::{AddressTriple, NetAddr, Tsap, VcId};
use cm_core::osdu::Osdu;
use cm_core::qos::{QosParams, QosRequirement};
use cm_core::service_class::ServiceClass;
use cm_core::time::{Rate, SimDuration, SimTime};
use netsim::PeriodicTimer;
use std::collections::VecDeque;

/// Which end of the simplex VC this entity holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcRole {
    /// The data-producing end.
    Source,
    /// The data-consuming end.
    Sink,
}

/// Source-end state.
pub struct SourceEnd {
    /// Shared circular buffer the application writes into (§3.7).
    pub send_buf: BufferHandle,
    /// Pacing clock (rate-based profile).
    pub clock: RateClock,
    /// Window engine (window-based profile).
    pub gbn: Option<GoBackNSender>,
    /// Fragments of a partially-transmitted OSDU awaiting window room.
    pub pending_frags: VecDeque<DataTpdu>,
    /// Next OSDU sequence number to assign at `write_osdu`.
    pub next_write_seq: u64,
    /// Sequence slots consumed (transmitted or intentionally dropped) —
    /// the sender side of the cumulative credit scheme.
    pub charged: u64,
    /// Latest cumulative freed count reported by the receiver.
    pub freed_remote: u64,
    /// Receive-buffer capacity granted at connect.
    pub recv_capacity: u64,
    /// OSDUs intentionally discarded at the source (orchestration
    /// compensation, §6.3.1.1) — lifetime count.
    pub dropped: u64,
    /// OSDUs transmitted (lifetime).
    pub sent: u64,
    /// Recently sent OSDUs kept for selective retransmission.
    pub retrans_cache: VecDeque<Osdu>,
    /// Maximum entries in `retrans_cache`.
    pub retrans_cache_cap: usize,
    /// Pacing-tick timer; each re-arm implicitly drops the previous
    /// deadline (one boxed closure while the VC is live). Attached after
    /// the entry is inserted so the closure can capture the slab handle;
    /// dropped with the entry at teardown, which frees the engine's timer
    /// slot.
    pub tick_timer: Option<PeriodicTimer>,
    /// Window RTO timer (same attach/teardown lifecycle as `tick_timer`).
    pub rto_timer: Option<PeriodicTimer>,
    /// Parked as consumer on the send buffer (application slow).
    pub waiting_buffer: bool,
    /// Stalled on exhausted receiver credit.
    pub stalled_credit: bool,
    /// When the current credit stall began (telemetry: stall duration).
    pub stalled_at: Option<SimTime>,
    /// Consecutive RTO firings without window progress — the window
    /// profile's path-failure detector (self-healing, DESIGN.md §9).
    pub rto_strikes: u32,
    /// Interval-stats snapshot of `dropped` at last harvest.
    pub dropped_snap: u64,
}

/// What the credit gate in front of a fresh send let through.
pub(crate) enum Pull {
    /// Out of receiver credit; `new` marks the transition into the stall.
    Stalled {
        /// The stall began with this pull.
        new: bool,
    },
    /// Credit allows, but the application has written nothing.
    Empty,
    /// The next OSDU, taken off the send buffer.
    Osdu(Osdu),
}

impl SourceEnd {
    /// A source end pacing at `rate` from local instant `start`, with
    /// `slots` of send buffer, the receiver's granted `recv_capacity`, and
    /// a retransmission cache of `cache_cap` OSDUs. Timers attach later,
    /// once the entry has a slab handle to capture.
    pub(crate) fn new(
        slots: usize,
        rate: Rate,
        start: SimTime,
        gbn: Option<GoBackNSender>,
        recv_capacity: u64,
        cache_cap: usize,
    ) -> SourceEnd {
        let mut clock = RateClock::new(rate);
        clock.start(start);
        SourceEnd {
            send_buf: BufferHandle::new(slots),
            clock,
            gbn,
            pending_frags: VecDeque::new(),
            next_write_seq: 0,
            charged: 0,
            freed_remote: 0,
            recv_capacity,
            dropped: 0,
            sent: 0,
            retrans_cache: VecDeque::new(),
            retrans_cache_cap: cache_cap,
            tick_timer: None,
            rto_timer: None,
            waiting_buffer: false,
            stalled_credit: false,
            stalled_at: None,
            rto_strikes: 0,
            dropped_snap: 0,
        }
    }

    /// The credit gate and buffer pop every fresh send goes through, at
    /// the pacing tick and in the window pump alike. Out of credit, the
    /// source is marked stalled (`stalled_at` stamps a new stall).
    pub(crate) fn pull(&mut self, now: SimTime) -> Pull {
        if !self.has_credit() {
            let new = !self.stalled_credit;
            if new {
                self.stalled_at = Some(now);
            }
            self.stalled_credit = true;
            return Pull::Stalled { new };
        }
        match self.send_buf.try_pop(now) {
            Some(osdu) => Pull::Osdu(osdu),
            None => Pull::Empty,
        }
    }

    /// Charge one fresh transmission of `osdu` against the receiver's
    /// credit, caching it for NACK repair when the class corrects.
    pub(crate) fn charge(&mut self, osdu: &Osdu, cache: bool) {
        self.charged += 1;
        self.sent += 1;
        if cache {
            self.retrans_cache.push_back(osdu.clone());
            while self.retrans_cache.len() > self.retrans_cache_cap {
                self.retrans_cache.pop_front();
            }
        }
    }

    /// OSDUs charged against receiver buffer slots but not yet freed.
    pub fn in_flight(&self) -> u64 {
        self.charged.saturating_sub(self.freed_remote)
    }

    /// Whether another OSDU may be charged without overrunning the
    /// receiver's buffer.
    pub fn has_credit(&self) -> bool {
        self.in_flight() < self.recv_capacity
    }
}

/// Sink-end state.
pub struct SinkEnd {
    /// Shared circular buffer the application reads from (§3.7); the
    /// delivery gate on it implements `Orch.Prime` (§6.2).
    pub recv_buf: BufferHandle,
    /// Reassembly/ordering/error-control engine.
    pub engine: SinkEngine,
    /// Window-profile receiver state.
    pub gbn_recv: Option<GoBackNReceiver>,
    /// OSDUs popped by the application (lifetime).
    pub app_popped: u64,
    /// Last cumulative freed total advertised to the sender.
    pub last_freed_sent: u64,
    /// QoS monitor (absent for best-effort VCs).
    pub monitor: Option<QosMonitor>,
    /// Monitor period timer (absent for best-effort VCs).
    pub monitor_timer: Option<PeriodicTimer>,
    /// In-order OSDUs waiting for receive-buffer space.
    pub pending_delivery: VecDeque<Osdu>,
    /// Producer side (protocol) parked on a full receive buffer.
    pub producer_parked: bool,
    /// Interval-stats snapshot of the engine's lifetime loss counter.
    pub lost_snap: u64,
    /// Interval-stats snapshot of the engine's lifetime delivery counter.
    pub delivered_snap: u64,
}

impl SinkEnd {
    /// Cumulative freed slots: application pops + holes/drops resolved
    /// inside the engine.
    pub fn freed_total(&self) -> u64 {
        self.app_popped + self.engine.internal_freed
    }

    /// The cumulative freed total to advertise, if credit is due: when it
    /// grew past the last advertisement, or unconditionally when `force`d
    /// (a credit probe asks again for a report the dead path may have
    /// eaten). Records the advertisement as sent.
    pub(crate) fn credit_due(&mut self, force: bool) -> Option<u64> {
        let freed = self.freed_total();
        if !force && freed <= self.last_freed_sent {
            return None;
        }
        self.last_freed_sent = self.last_freed_sent.max(freed);
        Some(freed)
    }
}

/// The end a new [`Vc`] holds.
pub(crate) enum VcEnd {
    /// The sending end.
    Source(SourceEnd),
    /// The receiving end.
    Sink(SinkEnd),
}

/// One open VC endpoint. An entity holds a `Vc` from the moment the
/// handshake completes until release: connects in progress live in the
/// entity's pending maps, and a released VC is removed outright, so
/// "in the table" *means* open.
pub struct Vc {
    /// Connection id (allocated by the initiating entity).
    pub id: VcId,
    /// The full address triple.
    pub triple: AddressTriple,
    /// Protocol profile + error-control class.
    pub class: ServiceClass,
    /// The requirement as contracted (tolerance, rate, max OSDU size).
    pub requirement: QosRequirement,
    /// The negotiated QoS in force.
    pub contract: QosParams,
    /// Which end this is.
    pub role: VcRole,
    /// The opposite end's node.
    pub peer_node: NetAddr,
    /// The local user's TSAP (for indications).
    pub local_tsap: Tsap,
    /// Source-end machinery (when `role == Source`).
    pub source: Option<SourceEnd>,
    /// Sink-end machinery (when `role == Sink`).
    pub sink: Option<SinkEnd>,
    /// Group state when this is the sending end of a 1:N group VC: the
    /// multicast group id plus the per-receiver book-keeping (credit,
    /// contracts). `None` on ordinary point-to-point VCs and on the sink
    /// ends of group VCs.
    pub group: Option<crate::group::GroupEnd>,
    /// Tolerance received in a `RenegotiateRequest`, awaiting the local
    /// user's `T-Renegotiate.response`.
    pub pending_reneg: Option<cm_core::qos::QosTolerance>,
}

impl Vc {
    /// An open endpoint of `triple`. The end decides the role, and with it
    /// the peer node and the local TSAP; group state starts empty.
    pub(crate) fn new(
        id: VcId,
        triple: AddressTriple,
        class: ServiceClass,
        requirement: QosRequirement,
        contract: QosParams,
        end: VcEnd,
    ) -> Vc {
        let (role, peer_node, local_tsap, source, sink) = match end {
            VcEnd::Source(s) => (
                VcRole::Source,
                triple.destination.node,
                triple.source.tsap,
                Some(s),
                None,
            ),
            VcEnd::Sink(k) => (
                VcRole::Sink,
                triple.source.node,
                triple.destination.tsap,
                None,
                Some(k),
            ),
        };
        Vc {
            id,
            triple,
            class,
            requirement,
            contract,
            role,
            peer_node,
            local_tsap,
            source,
            sink,
            group: None,
            pending_reneg: None,
        }
    }
}

/// Interval statistics harvested from one end of a VC, feeding
/// `Orch.Regulate.indication` (§6.3.1.2): the blocking times of application
/// and protocol threads plus progress/drop counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EndStats {
    /// Time the application thread spent blocked on the shared buffer.
    pub app_blocked: SimDuration,
    /// Time the protocol thread spent blocked on the shared buffer.
    pub proto_blocked: SimDuration,
    /// Source: OSDU sequence charged so far. Sink: OSDUs accounted for at
    /// the application delivery point (units popped by the application
    /// plus units resolved without delivery — drops and unrepairable
    /// losses), i.e. the media position actually reached.
    pub seq_progress: u64,
    /// OSDUs intentionally dropped this interval (source only).
    pub dropped: u64,
    /// OSDUs lost this interval (sink only).
    pub lost: u64,
    /// OSDUs the application consumed in total (sink only).
    pub app_popped: u64,
}
