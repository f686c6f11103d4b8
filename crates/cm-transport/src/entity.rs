//! The per-node transport entity: connection management, data path and
//! demultiplexing.
//!
//! One [`TransportEntity`] runs on every end-system, registered as the
//! node's packet handler. It implements the full service of §4:
//!
//! - three-party connection establishment and release (§3.5, §4.1.1,
//!   figures 2–3), with end-to-end QoS negotiation and ST-II-style
//!   resource reservation;
//! - QoS monitoring with `T-QoS.indication` (§4.1.2) and in-place QoS
//!   renegotiation (§4.1.3);
//! - the rate-based data path (paced transmission, credit backpressure,
//!   per-class error control) and the window-based baseline;
//! - the orchestration-facing hooks (§5–6): per-VC control channel, receive
//!   gating, source-side drops, rate retuning and blocking-time harvest.
//!
//! **Re-entrancy discipline.** The entity's state sits in one `RefCell`.
//! Nothing that can call back into the entity runs while that borrow is
//! held: user/tap callbacks are dispatched as engine events at the current
//! instant, and buffer wakers are engine-scheduling trampolines.

use crate::buffer::{BufferHandle, PushOutcome};
use crate::monitor::QosMonitor;
use crate::rate::RateClock;
use crate::receiver::{SinkAction, SinkEngine};
use crate::service::{EgressTap, EntityConfig, TransportService, TransportUser, VcTap};
use crate::tpdu::{fragment_sizes, ControlMsg, DataTpdu, QosReport, CONTROL_WIRE_SIZE};
use crate::vc::{EndStats, SinkEnd, SourceEnd, Vc, VcRole};
use crate::window::{GoBackNReceiver, GoBackNSender};
use cm_core::address::{AddressTriple, NetAddr, TransportAddr, Tsap, VcId};
use cm_core::error::{DisconnectReason, ServiceError};
use cm_core::osdu::{Osdu, Payload};
use cm_core::qos::{GuaranteeMode, QosParams, QosRequirement, QosTolerance};
use cm_core::service_class::{ProtocolProfile, ServiceClass};
use cm_core::slab::{Slab, SlabHandle};
use cm_core::time::SimTime;
use cm_core::FastMap;
use cm_telemetry::{Layer, Telemetry};
use netsim::{Network, NodeHandler, Packet};
use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

/// What travels inside simulated packets between transport entities.
pub(crate) enum WirePdu {
    /// Rate-profile data fragment.
    Data(DataTpdu),
    /// Window-profile data fragment with its window sequence number.
    WindowData { wseq: u64, tpdu: DataTpdu },
    /// Everything else.
    Control(ControlMsg),
}

/// Destination-side record of a connect awaiting the local user's response.
struct PendingDst {
    triple: AddressTriple,
    class: ServiceClass,
    requirement: QosRequirement,
    agreed: QosParams,
    capacity: u32,
    /// Set when the pending connect is a group-VC invitation: the backing
    /// multicast group, answered with `GroupConnectResponse`.
    group: Option<netsim::GroupId>,
    /// Group invitations only: first OSDU sequence this receiver is owed.
    start_seq: u64,
}

/// Source-side record of a connect in progress.
struct PendingSrc {
    triple: AddressTriple,
    class: ServiceClass,
    requirement: QosRequirement,
    /// Awaiting the local source user's T-Connect.response (remote connect
    /// leg 1) rather than the destination's answer.
    awaiting_user: bool,
}

/// Initiator-side record of a remote connect (initiator ∉ {source, dest}).
struct PendingRemote {
    triple: AddressTriple,
}

/// Everything the entity holds for one VC endpoint, in one slab slot:
/// the connection state plus the orchestration tap and self-healing
/// state that used to live in sibling maps keyed by the same id. One
/// slot, one cache line neighbourhood, one lookup.
pub(crate) struct VcEntry {
    pub(crate) vc: Vc,
    /// The orchestration tap, when registered.
    pub(crate) tap: Option<Rc<dyn VcTap>>,
    /// The source-side egress tap, when registered (fires synchronously
    /// inside `write_osdu`).
    pub(crate) egress: Option<Rc<dyn EgressTap>>,
    /// Self-healing state (probe timer + lifetime counters).
    pub(crate) heal: Option<crate::heal::HealState>,
}

/// Slab-indexed store of the *open* VC endpoints. The id→handle map is
/// consulted once per event at the demultiplex point (packet arrival,
/// service call); timers and hot loops then address the slab directly
/// through generation-tagged handles. Release removes the entry, so a
/// handle or id that outlives its VC resolves to `None`. The map-keyed
/// accessors keep the cold call sites unchanged.
pub(crate) struct VcTable {
    slots: Slab<VcEntry>,
    by_id: FastMap<VcId, SlabHandle>,
}

impl VcTable {
    fn new() -> VcTable {
        VcTable {
            slots: Slab::new(),
            by_id: FastMap::default(),
        }
    }

    /// Resolve an id to its slab handle (the once-per-event lookup).
    pub(crate) fn resolve(&self, vc: VcId) -> Option<SlabHandle> {
        self.by_id.get(&vc).copied()
    }

    /// The full entry behind a handle.
    pub(crate) fn at(&self, h: SlabHandle) -> Option<&VcEntry> {
        self.slots.get(h)
    }

    /// Mutable entry behind a handle.
    pub(crate) fn at_mut(&mut self, h: SlabHandle) -> Option<&mut VcEntry> {
        self.slots.get_mut(h)
    }

    pub(crate) fn get(&self, vc: &VcId) -> Option<&Vc> {
        self.resolve(*vc)
            .and_then(|h| self.slots.get(h))
            .map(|e| &e.vc)
    }

    pub(crate) fn get_mut(&mut self, vc: &VcId) -> Option<&mut Vc> {
        let h = self.resolve(*vc)?;
        self.slots.get_mut(h).map(|e| &mut e.vc)
    }

    /// Insert a fresh VC endpoint (tap and heal start empty). Ids are
    /// wire-global and never reused, so a duplicate insert replaces the
    /// whole entry.
    pub(crate) fn insert(&mut self, vc: VcId, v: Vc) -> SlabHandle {
        self.remove(vc);
        let h = self.slots.insert(VcEntry {
            vc: v,
            tap: None,
            egress: None,
            heal: None,
        });
        self.by_id.insert(vc, h);
        h
    }

    /// Release `vc`'s endpoint: the slot returns to the free list with
    /// its generation bumped. Dropping the returned entry cancels the
    /// VC's timers and drops its buffers, taps and healing state.
    fn remove(&mut self, vc: VcId) -> Option<VcEntry> {
        let h = self.by_id.remove(&vc)?;
        self.slots.remove(h)
    }

    /// Open endpoints held.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn tap(&self, vc: &VcId) -> Option<Rc<dyn VcTap>> {
        self.resolve(*vc)
            .and_then(|h| self.slots.get(h))
            .and_then(|e| e.tap.clone())
    }

    pub(crate) fn set_tap(&mut self, vc: VcId, tap: Rc<dyn VcTap>) -> bool {
        match self.resolve(vc).and_then(|h| self.slots.get_mut(h)) {
            Some(e) => {
                e.tap = Some(tap);
                true
            }
            None => false,
        }
    }

    pub(crate) fn clear_tap(&mut self, vc: &VcId) {
        if let Some(e) = self.resolve(*vc).and_then(|h| self.slots.get_mut(h)) {
            e.tap = None;
        }
    }

    pub(crate) fn set_egress(&mut self, vc: VcId, tap: Rc<dyn EgressTap>) -> bool {
        match self.resolve(vc).and_then(|h| self.slots.get_mut(h)) {
            Some(e) => {
                e.egress = Some(tap);
                true
            }
            None => false,
        }
    }

    pub(crate) fn clear_egress(&mut self, vc: &VcId) {
        if let Some(e) = self.resolve(*vc).and_then(|h| self.slots.get_mut(h)) {
            e.egress = None;
        }
    }

    pub(crate) fn heal(&self, vc: &VcId) -> Option<&crate::heal::HealState> {
        self.resolve(*vc)
            .and_then(|h| self.slots.get(h))
            .and_then(|e| e.heal.as_ref())
    }

    pub(crate) fn heal_mut(&mut self, vc: &VcId) -> Option<&mut crate::heal::HealState> {
        let h = self.resolve(*vc)?;
        self.slots.get_mut(h).and_then(|e| e.heal.as_mut())
    }

    pub(crate) fn has_heal(&self, vc: &VcId) -> bool {
        self.heal(vc).is_some()
    }

    pub(crate) fn set_heal(&mut self, vc: VcId, hs: crate::heal::HealState) {
        if let Some(e) = self.resolve(vc).and_then(|h| self.slots.get_mut(h)) {
            e.heal = Some(hs);
        }
    }
}

pub(crate) struct State {
    pub(crate) users: FastMap<Tsap, Rc<dyn TransportUser>>,
    pub(crate) vcs: VcTable,
    pending_dst: FastMap<VcId, PendingDst>,
    pending_src: FastMap<VcId, PendingSrc>,
    pending_remote: FastMap<VcId, PendingRemote>,
    /// Remote-connect triples remembered at the initiator for later
    /// remote release.
    pub(crate) initiated: FastMap<VcId, AddressTriple>,
    next_vc: u64,
}

/// The transport entity of one node.
pub struct TransportEntity {
    pub(crate) node: NetAddr,
    pub(crate) net: Network,
    pub(crate) config: EntityConfig,
    /// Cached clone of the engine-wide flight recorder.
    pub(crate) tel: Telemetry,
    /// Cached clone of the causal-tracing registry (from the config).
    pub(crate) obs: cm_obs::Obs,
    pub(crate) state: RefCell<State>,
}

/// The node handler: an `Rc` wrapper so event closures can hold the entity
/// strongly.
pub(crate) struct EntityRef(pub(crate) Rc<TransportEntity>);

impl NodeHandler for EntityRef {
    fn on_packet(&self, _net: &Network, _at: NetAddr, pkt: Packet) {
        TransportEntity::handle_packet(&self.0, pkt);
    }
}

impl TransportEntity {
    /// Create an entity for `node`, register it as the node's handler, and
    /// return its service interface.
    pub fn install(net: &Network, node: NetAddr, config: EntityConfig) -> TransportService {
        let entity = Rc::new(TransportEntity {
            node,
            net: net.clone(),
            obs: config.obs.clone(),
            config,
            tel: net.engine().telemetry().clone(),
            state: RefCell::new(State {
                users: FastMap::default(),
                vcs: VcTable::new(),
                pending_dst: FastMap::default(),
                pending_src: FastMap::default(),
                pending_remote: FastMap::default(),
                initiated: FastMap::default(),
                next_vc: 0,
            }),
        });
        net.set_handler(node, Rc::new(EntityRef(entity.clone())));
        TransportService::new(entity)
    }

    /// The causal-tracing registry this entity stamps spans into.
    pub(crate) fn obs(&self) -> &cm_obs::Obs {
        &self.obs
    }

    pub(crate) fn now(&self) -> SimTime {
        self.net.engine().now()
    }

    /// This node's local clock reading. The rate-based pacing clock runs
    /// on *local* time: real protocol engines pace off their own crystal,
    /// which is exactly the clock-rate discrepancy the orchestrator exists
    /// to correct (§3.6).
    pub(crate) fn local_now(&self) -> SimTime {
        self.net.local_time(self.node)
    }

    /// Convert a node-local instant to global engine time for scheduling.
    fn local_to_global(&self, local: SimTime) -> SimTime {
        self.net.clock(self.node).global_of(local)
    }

    pub(crate) fn alloc_vc(&self) -> VcId {
        let mut st = self.state.borrow_mut();
        st.next_vc += 1;
        VcId(((self.node.0 as u64 + 1) << 40) | st.next_vc)
    }

    pub(crate) fn send_control(&self, to: NetAddr, msg: ControlMsg) {
        let pkt = Packet::control(
            self.node,
            to,
            CONTROL_WIRE_SIZE,
            self.now(),
            WirePdu::Control(msg),
        );
        self.net.send(self.node, pkt);
    }

    /// Source-side feedback that must reach every receiving end: unicast
    /// to the peer on an ordinary VC, multicast over the group's control
    /// channel on a group VC.
    pub(crate) fn send_source_feedback(&self, vc: VcId, msg: ControlMsg) {
        let target = {
            let st = self.state.borrow();
            st.vcs
                .get(&vc)
                .map(|v| (v.group.as_ref().map(|ge| ge.group), v.peer_node))
        };
        match target {
            Some((Some(g), _)) => {
                let pkt = Packet::group(
                    self.node,
                    g,
                    Some(vc),
                    netsim::PacketClass::Control,
                    CONTROL_WIRE_SIZE,
                    self.now(),
                    WirePdu::Control(msg),
                );
                self.net.send_to_group(g, pkt);
            }
            Some((None, peer)) => self.send_control(peer, msg),
            None => {}
        }
    }

    /// Dispatch a user callback as an event at the current instant.
    pub(crate) fn to_user(
        self: &Rc<Self>,
        tsap: Tsap,
        f: impl FnOnce(&TransportService, &Rc<dyn TransportUser>) + 'static,
    ) {
        let user = self.state.borrow().users.get(&tsap).cloned();
        if let Some(user) = user {
            self.dispatch_user(user, f);
        }
    }

    /// Schedule a callback on an already-resolved user (the fused paths
    /// clone the user while they still hold the state borrow — scheduling
    /// itself never touches entity state).
    fn dispatch_user(
        self: &Rc<Self>,
        user: Rc<dyn TransportUser>,
        f: impl FnOnce(&TransportService, &Rc<dyn TransportUser>) + 'static,
    ) {
        let me = self.clone();
        self.net
            .engine()
            .schedule_in(cm_core::time::SimDuration::ZERO, move |_| {
                let svc = TransportService::new(me.clone());
                f(&svc, &user);
            });
    }

    /// Dispatch a tap callback as an event at the current instant.
    fn to_tap(self: &Rc<Self>, vc: VcId, f: impl FnOnce(&Rc<dyn VcTap>) + 'static) {
        let tap = self.state.borrow().vcs.tap(&vc);
        if let Some(tap) = tap {
            self.dispatch_tap(tap, f);
        }
    }

    /// Schedule an already-resolved tap callback (the fused delivery path
    /// clones the tap while it still holds the state borrow).
    fn dispatch_tap(&self, tap: Rc<dyn VcTap>, f: impl FnOnce(&Rc<dyn VcTap>) + 'static) {
        self.net
            .engine()
            .schedule_in(cm_core::time::SimDuration::ZERO, move |_| f(&tap));
    }

    // ------------------------------------------------------------------
    // Service requests (called through TransportService)
    // ------------------------------------------------------------------

    /// `T-Connect.request` (table 1). Must be called at the initiator node.
    pub(crate) fn t_connect_request(
        self: &Rc<Self>,
        triple: AddressTriple,
        class: ServiceClass,
        requirement: QosRequirement,
    ) -> Result<VcId, ServiceError> {
        if triple.initiator.node != self.node {
            return Err(ServiceError::BadArgument(
                "T-Connect.request must be issued at the initiator node",
            ));
        }
        if !requirement.tolerance.is_well_formed() {
            return Err(ServiceError::BadArgument(
                "preferred QoS weaker than worst-acceptable",
            ));
        }
        let vc = self.alloc_vc();
        if triple.is_conventional() {
            // The initiator is the source: go straight to leg 2.
            self.state.borrow_mut().pending_src.insert(
                vc,
                PendingSrc {
                    triple,
                    class,
                    requirement,
                    awaiting_user: false,
                },
            );
            self.send_control(
                triple.destination.node,
                ControlMsg::ConnectRequest {
                    vc,
                    triple,
                    class,
                    qos: requirement,
                },
            );
        } else {
            // Remote connect (§3.5): ask the source entity to raise the
            // indication at the source user.
            self.state
                .borrow_mut()
                .pending_remote
                .insert(vc, PendingRemote { triple });
            self.state.borrow_mut().initiated.insert(vc, triple);
            self.send_control(
                triple.source.node,
                ControlMsg::RemoteConnectRequest {
                    vc,
                    triple,
                    class,
                    qos: requirement,
                },
            );
        }
        Ok(vc)
    }

    /// `T-Connect.response` / rejection via `T-Disconnect.request` during
    /// connect (table 1, fig. 3).
    pub(crate) fn t_connect_response(
        self: &Rc<Self>,
        vc: VcId,
        accept: bool,
    ) -> Result<(), ServiceError> {
        // Destination answering its indication?
        let dst = self.state.borrow_mut().pending_dst.remove(&vc);
        if let Some(p) = dst {
            // Group invitation: answer the sender with the group handshake
            // (reservations live on the shared tree, keyed by the group).
            if p.group.is_some() {
                let member = TransportAddr {
                    node: self.node,
                    tsap: p.triple.destination.tsap,
                };
                if accept {
                    self.open_sink(vc, &p);
                    self.send_control(
                        p.triple.source.node,
                        ControlMsg::GroupConnectResponse {
                            vc,
                            member,
                            result: Ok((p.agreed, p.capacity)),
                        },
                    );
                } else {
                    self.send_control(
                        p.triple.source.node,
                        ControlMsg::GroupConnectResponse {
                            vc,
                            member,
                            result: Err(DisconnectReason::UserRejected),
                        },
                    );
                }
                return Ok(());
            }
            if accept {
                self.open_sink(vc, &p);
                self.send_control(
                    p.triple.source.node,
                    ControlMsg::ConnectResponse {
                        vc,
                        result: Ok((p.agreed, p.capacity)),
                    },
                );
            } else {
                self.net.release_reservation(vc);
                self.send_control(
                    p.triple.source.node,
                    ControlMsg::ConnectResponse {
                        vc,
                        result: Err(DisconnectReason::UserRejected),
                    },
                );
            }
            return Ok(());
        }
        // Source user answering a remote-connect indication?
        let go = {
            let mut st = self.state.borrow_mut();
            match st.pending_src.get_mut(&vc) {
                Some(p) if p.awaiting_user => {
                    p.awaiting_user = false;
                    Some((p.triple, p.class, p.requirement))
                }
                _ => None,
            }
        };
        if let Some((triple, class, requirement)) = go {
            if accept {
                self.send_control(
                    triple.destination.node,
                    ControlMsg::ConnectRequest {
                        vc,
                        triple,
                        class,
                        qos: requirement,
                    },
                );
            } else {
                self.state.borrow_mut().pending_src.remove(&vc);
                self.send_control(
                    triple.initiator.node,
                    ControlMsg::RemoteConnectReply {
                        vc,
                        result: Err(DisconnectReason::UserRejected),
                    },
                );
            }
            return Ok(());
        }
        Err(ServiceError::UnknownVc)
    }

    /// `T-Disconnect.request` (table 1). Valid at either endpoint or at the
    /// remote initiator.
    pub(crate) fn t_disconnect_request(
        self: &Rc<Self>,
        vc: VcId,
        reason: DisconnectReason,
    ) -> Result<(), ServiceError> {
        // Endpoint with live state: tear down and tell the peer (and the
        // remote initiator, if any — §3.5: responses go to both).
        let info = {
            let st = self.state.borrow();
            st.vcs.get(&vc).map(|v| (v.peer_node, v.triple))
        };
        if let Some((peer, triple)) = info {
            self.teardown_local(vc, reason.clone(), false);
            self.send_control(
                peer,
                ControlMsg::Disconnect {
                    vc,
                    reason: reason.clone(),
                    notify: None,
                },
            );
            if triple.initiator.node != self.node
                && triple.initiator != triple.source
                && triple.initiator != triple.destination
            {
                self.send_control(
                    triple.initiator.node,
                    ControlMsg::Disconnect {
                        vc,
                        reason,
                        notify: None,
                    },
                );
            }
            return Ok(());
        }
        // Remote initiator: relay the release request to the source, whose
        // user receives the indication and performs the actual release
        // (§4.1.1 "remotely released").
        let triple = self.state.borrow().initiated.get(&vc).copied();
        if let Some(triple) = triple {
            self.send_control(
                triple.source.node,
                ControlMsg::Disconnect {
                    vc,
                    reason,
                    notify: Some(triple.initiator),
                },
            );
            return Ok(());
        }
        Err(ServiceError::UnknownVc)
    }

    /// `T-Renegotiate.request` (table 3), issued at either endpoint.
    pub(crate) fn t_renegotiate_request(
        self: &Rc<Self>,
        vc: VcId,
        new_tolerance: QosTolerance,
    ) -> Result<(), ServiceError> {
        if !new_tolerance.is_well_formed() {
            return Err(ServiceError::BadArgument(
                "preferred QoS weaker than worst-acceptable",
            ));
        }
        let peer = {
            let st = self.state.borrow();
            st.vcs.get(&vc).ok_or(ServiceError::UnknownVc)?.peer_node
        };
        self.send_control(peer, ControlMsg::RenegotiateRequest { vc, new_tolerance });
        Ok(())
    }

    /// `T-Renegotiate.response` (table 3): the peer user's verdict. On
    /// acceptance the entity renegotiates resources and, if that succeeds,
    /// applies the new contract at both ends.
    pub(crate) fn t_renegotiate_response(
        self: &Rc<Self>,
        vc: VcId,
        accept: bool,
    ) -> Result<(), ServiceError> {
        let (peer, triple) = {
            let st = self.state.borrow();
            let v = st.vcs.get(&vc).ok_or(ServiceError::UnknownVc)?;
            (v.peer_node, v.triple)
        };
        if !accept {
            self.send_control(
                peer,
                ControlMsg::RenegotiateResponse {
                    vc,
                    result: Err(DisconnectReason::RenegotiationRefused),
                },
            );
            return Ok(());
        }
        let pending = {
            let mut st = self.state.borrow_mut();
            let v = st.vcs.get_mut(&vc).ok_or(ServiceError::UnknownVc)?;
            v.pending_renegotiation().take()
        };
        let new_tolerance = match pending {
            Some(t) => t,
            None => return Err(ServiceError::WrongState("no renegotiation pending")),
        };
        let result = self.apply_renegotiation(vc, triple, new_tolerance);
        match &result {
            Ok(qos) => {
                self.send_control(
                    peer,
                    ControlMsg::RenegotiateResponse {
                        vc,
                        result: Ok(*qos),
                    },
                );
            }
            Err(reason) => {
                self.send_control(
                    peer,
                    ControlMsg::RenegotiateResponse {
                        vc,
                        result: Err(reason.clone()),
                    },
                );
            }
        }
        Ok(())
    }

    /// Negotiate the new tolerance against the path and the reservation
    /// ledger; on success the local contract is replaced in place —
    /// protocol state, buffers and sequence numbers survive (§4.1.3).
    fn apply_renegotiation(
        self: &Rc<Self>,
        vc: VcId,
        triple: AddressTriple,
        new_tolerance: QosTolerance,
    ) -> Result<QosParams, DisconnectReason> {
        let src = triple.source.node;
        let dst = triple.destination.node;
        let mut achievable = self
            .net
            .path_qos(src, dst, self.config.mtu)
            .ok_or(DisconnectReason::Unreachable)?;
        // Capacity available = unreserved + what this VC already holds.
        let held = {
            let st = self.state.borrow();
            st.vcs.get(&vc).map(|v| v.contract.throughput)
        }
        .unwrap_or(cm_core::time::Bandwidth::ZERO);
        if let Some(avail) = self.net.available_bandwidth(src, dst) {
            achievable.throughput = (avail + held).min(achievable.throughput);
        }
        let agreed = new_tolerance
            .negotiate(&achievable)
            .map_err(|_| DisconnectReason::RenegotiationRefused)?;
        self.net
            .renegotiate_reservation(vc, agreed.throughput)
            .map_err(|_| DisconnectReason::RenegotiationRefused)?;
        let mut st = self.state.borrow_mut();
        if let Some(v) = st.vcs.get_mut(&vc) {
            v.contract = agreed;
            v.requirement.tolerance = new_tolerance;
        }
        Ok(agreed)
    }

    // ------------------------------------------------------------------
    // VC endpoint construction
    // ------------------------------------------------------------------

    pub(crate) fn buffer_slots(&self, requirement: &QosRequirement) -> usize {
        if let Some(n) = self.config.buffer_slots_override {
            return n;
        }
        // Half a second of media, clamped to [4, 64] slots.
        let per_half_s = requirement
            .osdu_rate
            .units_in(cm_core::time::SimDuration::from_millis(500));
        (per_half_s as usize).clamp(4, 64)
    }

    /// Attach the pacing-tick and RTO timers to the source end behind
    /// `h`. One engine slot and one boxed closure each for the life of
    /// the VC; the closures capture the generation-tagged slab handle,
    /// so every fire addresses the entry directly (no id lookup) and a
    /// fire after teardown or slot reuse is a silent no-op. Called after
    /// the entry is inserted — creating a timer consumes no event
    /// sequence number, so the attach order never shifts the schedule.
    pub(crate) fn attach_source_timers(self: &Rc<Self>, h: SlabHandle) {
        let weak = Rc::downgrade(self);
        let tick = netsim::PeriodicTimer::new(self.net.engine(), move |_| {
            if let Some(me) = weak.upgrade() {
                me.source_tick_h(h);
            }
        });
        let weak = Rc::downgrade(self);
        let rto = netsim::PeriodicTimer::new(self.net.engine(), move |_| {
            if let Some(me) = weak.upgrade() {
                me.rto_fire_h(h);
            }
        });
        let mut st = self.state.borrow_mut();
        if let Some(s) = st.vcs.at_mut(h).and_then(|e| e.vc.source.as_mut()) {
            s.tick_timer = Some(tick);
            s.rto_timer = Some(rto);
        }
    }

    fn open_sink(self: &Rc<Self>, vc: VcId, p: &PendingDst) {
        let slots = p.capacity as usize;
        let monitor = (p.requirement.guarantee != GuaranteeMode::BestEffort)
            .then(|| QosMonitor::new(self.config.monitor_period, self.now()));
        let mut sink = SinkEnd {
            recv_buf: BufferHandle::new(slots),
            engine: SinkEngine::new(p.class.error_control),
            gbn_recv: (p.class.profile == ProtocolProfile::WindowBased).then(GoBackNReceiver::new),
            app_popped: 0,
            last_freed_sent: 0,
            monitor,
            monitor_timer: None,
            pending_delivery: std::collections::VecDeque::new(),
            producer_parked: false,
            lost_snap: 0,
            delivered_snap: 0,
        };
        // Mid-stream group join: the stream position starts at the
        // invitation point, not zero.
        if p.start_seq > 0 {
            sink.engine.start_at(p.start_seq);
        }
        let v = Vc {
            id: vc,
            triple: p.triple,
            class: p.class,
            requirement: p.requirement,
            contract: p.agreed,
            role: VcRole::Sink,
            peer_node: p.triple.source.node,
            local_tsap: p.triple.destination.tsap,
            source: None,
            sink: Some(sink),
            group: None,
            pending_reneg: None,
        };
        let monitored = v.sink.as_ref().is_some_and(|k| k.monitor.is_some());
        let h = self.state.borrow_mut().vcs.insert(vc, v);
        if monitored {
            let weak = Rc::downgrade(self);
            let timer = netsim::PeriodicTimer::new(self.net.engine(), move |_| {
                if let Some(me) = weak.upgrade() {
                    me.monitor_fire_h(h);
                }
            });
            {
                let mut st = self.state.borrow_mut();
                if let Some(k) = st.vcs.at_mut(h).and_then(|e| e.vc.sink.as_mut()) {
                    k.monitor_timer = Some(timer);
                }
            }
            self.schedule_monitor_h(h);
        }
    }

    fn open_source(
        self: &Rc<Self>,
        vc: VcId,
        p: &PendingSrc,
        agreed: QosParams,
        recv_capacity: u32,
    ) {
        let slots = self.buffer_slots(&p.requirement);
        let mut clock = RateClock::new(p.requirement.osdu_rate);
        clock.start(self.local_now());
        let source = SourceEnd {
            send_buf: BufferHandle::new(slots),
            clock,
            gbn: (p.class.profile == ProtocolProfile::WindowBased)
                .then(|| GoBackNSender::new(self.config.window_size, self.config.rto)),
            pending_frags: std::collections::VecDeque::new(),
            next_write_seq: 0,
            charged: 0,
            freed_remote: 0,
            recv_capacity: recv_capacity as u64,
            dropped: 0,
            sent: 0,
            retrans_cache: std::collections::VecDeque::new(),
            retrans_cache_cap: (recv_capacity as usize) * 4,
            tick_timer: None,
            rto_timer: None,
            waiting_buffer: false,
            stalled_credit: false,
            stalled_at: None,
            rto_strikes: 0,
            dropped_snap: 0,
        };
        let v = Vc {
            id: vc,
            triple: p.triple,
            class: p.class,
            requirement: p.requirement,
            contract: agreed,
            role: VcRole::Source,
            peer_node: p.triple.destination.node,
            local_tsap: p.triple.source.tsap,
            source: Some(source),
            sink: None,
            group: None,
            pending_reneg: None,
        };
        // Register the negotiated contract with the auditor: the delay
        // bound is the end-to-end deadline, and the loss budget doubles as
        // the deadline-miss budget (a late CM OSDU is as lost as a dropped
        // one).
        if self.obs.enabled() {
            self.obs.set_contract(
                vc.0,
                agreed.delay.as_micros(),
                agreed.packet_error_rate.as_ppb() / 1_000,
            );
        }
        let h = self.state.borrow_mut().vcs.insert(vc, v);
        self.attach_source_timers(h);
        // Arm the pacing/pump machinery; it will park on the empty buffer.
        match p.class.profile {
            ProtocolProfile::RateBasedCm => self.ensure_tick_h(h, self.now()),
            ProtocolProfile::WindowBased => self.pump_window(vc),
            ProtocolProfile::Datagram => {}
        }
    }

    /// Release the local end of `vc`. The entry leaves the table: its
    /// timers are cancelled and its buffers, taps and healing state
    /// dropped with it, and every handle still held by a timer closure,
    /// a parked waker or a late message resolves to `None` from here on.
    pub(crate) fn teardown_local(
        self: &Rc<Self>,
        vc: VcId,
        reason: DisconnectReason,
        indicate: bool,
    ) {
        let closed = {
            let mut st = self.state.borrow_mut();
            // At a remote initiator the release notice retires the record
            // kept for remote release.
            st.initiated.remove(&vc);
            st.vcs.remove(vc)
        };
        self.net.release_reservation(vc);
        if let (true, Some(e)) = (indicate, closed) {
            self.to_user(e.vc.local_tsap, move |svc, u| {
                u.t_disconnect_indication(svc, vc, reason)
            });
        }
    }

    // ------------------------------------------------------------------
    // Packet handling
    // ------------------------------------------------------------------

    fn handle_packet(self: &Rc<Self>, pkt: Packet) {
        // Take the payload out (avoid double-Rc clones of big TPDUs).
        let corrupted = pkt.corrupted;
        let from = pkt.src;
        // Link-queue wait the packet accumulated along its path (zero
        // unless tracing stamped it at the source).
        let queued_us = pkt.trace.map_or(0, |t| t.queued_us);
        if let Some(pdu) = pkt.payload_as::<WirePdu>() {
            match pdu {
                WirePdu::Data(tpdu) => self.on_data(tpdu.clone(), corrupted, queued_us),
                WirePdu::WindowData { wseq, tpdu } => {
                    self.on_window_data(*wseq, tpdu.clone(), corrupted, queued_us)
                }
                WirePdu::Control(msg) => self.on_control(from, msg.clone()),
            }
        }
    }

    /// `from` is the originating node — group VCs demultiplex per-receiver
    /// feedback (credit, nacks, QoS reports, releases) on it.
    pub(crate) fn on_control(self: &Rc<Self>, from: NetAddr, msg: ControlMsg) {
        match msg {
            ControlMsg::RemoteConnectRequest {
                vc,
                triple,
                class,
                qos,
            } => {
                // Leg 1 arrival at the source entity: indication to the
                // source user (fig. 3).
                let bound = self.state.borrow().users.contains_key(&triple.source.tsap);
                if !bound {
                    self.send_control(
                        triple.initiator.node,
                        ControlMsg::RemoteConnectReply {
                            vc,
                            result: Err(DisconnectReason::NoSuchTsap),
                        },
                    );
                    return;
                }
                self.state.borrow_mut().pending_src.insert(
                    vc,
                    PendingSrc {
                        triple,
                        class,
                        requirement: qos,
                        awaiting_user: true,
                    },
                );
                self.to_user(triple.source.tsap, move |svc, u| {
                    u.t_connect_indication(svc, vc, triple, class, qos)
                });
            }
            ControlMsg::ConnectRequest {
                vc,
                triple,
                class,
                qos,
            } => self.on_connect_request(vc, triple, class, qos),
            ControlMsg::ConnectResponse { vc, result } => self.on_connect_response(vc, result),
            ControlMsg::RemoteConnectReply { vc, result } => {
                let p = self.state.borrow_mut().pending_remote.remove(&vc);
                if let Some(p) = p {
                    let tsap = p.triple.initiator.tsap;
                    match result {
                        Ok(qos) => {
                            self.to_user(tsap, move |svc, u| u.t_connect_confirm(svc, vc, Ok(qos)))
                        }
                        Err(reason) => {
                            self.state.borrow_mut().initiated.remove(&vc);
                            self.to_user(tsap, move |svc, u| {
                                u.t_connect_confirm(svc, vc, Err(reason))
                            })
                        }
                    }
                }
            }
            ControlMsg::GroupConnectRequest {
                vc,
                group,
                triple,
                class,
                requirement,
                agreed,
                start_seq,
            } => self.on_group_connect_request(
                vc,
                group,
                triple,
                class,
                requirement,
                agreed,
                start_seq,
            ),
            ControlMsg::GroupConnectResponse { vc, member, result } => {
                self.on_group_connect_response(vc, member, result)
            }
            ControlMsg::Disconnect { vc, reason, notify } => {
                // At a group sender a release from a member means that
                // member leaves — the group VC itself stays up.
                let group_sender = {
                    let st = self.state.borrow();
                    st.vcs.get(&vc).is_some_and(|v| v.group.is_some())
                };
                if group_sender {
                    self.group_member_left(vc, from, reason);
                    return;
                }
                if notify.is_some() {
                    // Remote release request: indication only; the user
                    // decides whether to actually release (§4.1.1). A VC
                    // already released is not indicated again.
                    let tsap = {
                        let st = self.state.borrow();
                        st.vcs.get(&vc).map(|v| v.local_tsap)
                    };
                    if let Some(tsap) = tsap {
                        self.to_user(tsap, move |svc, u| {
                            u.t_disconnect_indication(svc, vc, reason)
                        });
                    }
                } else {
                    self.teardown_local(vc, reason, true);
                }
            }
            ControlMsg::RenegotiateRequest { vc, new_tolerance } => {
                let tsap = {
                    let mut st = self.state.borrow_mut();
                    match st.vcs.get_mut(&vc) {
                        Some(v) => {
                            *v.pending_renegotiation() = Some(new_tolerance);
                            Some(v.local_tsap)
                        }
                        None => None,
                    }
                };
                if let Some(tsap) = tsap {
                    self.to_user(tsap, move |svc, u| {
                        u.t_renegotiate_indication(svc, vc, new_tolerance)
                    });
                }
            }
            ControlMsg::RenegotiateResponse { vc, result } => {
                let tsap = {
                    let st = self.state.borrow();
                    st.vcs.get(&vc).map(|v| v.local_tsap)
                };
                let Some(tsap) = tsap else { return };
                match result {
                    Ok(qos) => {
                        {
                            let mut st = self.state.borrow_mut();
                            // A group sender's contract is derived
                            // from its members (`recompute_group`), never
                            // set from the wire.
                            if let Some(v) = st.vcs.get_mut(&vc).filter(|v| v.group.is_none()) {
                                v.contract = qos;
                            }
                        }
                        self.to_user(tsap, move |svc, u| u.t_renegotiate_confirm(svc, vc, qos));
                    }
                    Err(reason) => {
                        // §4.1.3: refusal arrives as T-Disconnect.indication
                        // but the existing VC is *not* torn down.
                        self.to_user(tsap, move |svc, u| {
                            u.t_disconnect_indication(svc, vc, reason)
                        });
                    }
                }
            }
            ControlMsg::Credit { vc, freed_total } => self.on_credit(from, vc, freed_total),
            ControlMsg::CreditProbe { vc } => self.force_send_credit(vc),
            ControlMsg::Dropped { vc, seqs } => {
                let now = self.now();
                let actions = {
                    let mut st = self.state.borrow_mut();
                    match st.vcs.get_mut(&vc).and_then(|v| v.sink.as_mut()) {
                        Some(k) => k.engine.on_drop_notice(&seqs, now),
                        None => return,
                    }
                };
                self.apply_sink_actions(vc, actions, None);
            }
            ControlMsg::Nack { vc, seqs } => self.on_nack(from, vc, seqs),
            ControlMsg::Ack { vc, upto } => self.on_ack(vc, upto),
            ControlMsg::QosReportMsg(report) => {
                // A whole monitoring period at zero throughput with the
                // contract violated is starvation — the path under this VC
                // is suspect (self-healing, DESIGN.md §9).
                if report.measured.throughput.as_bps() == 0 && !report.violations.is_empty() {
                    self.heal_kick(report.vc, crate::heal::HealReason::Starved);
                }
                let info = {
                    let st = self.state.borrow();
                    st.vcs
                        .get(&report.vc)
                        .map(|v| (v.local_tsap, v.group.is_some()))
                };
                if let Some((tsap, is_group)) = info {
                    if is_group {
                        // Per-receiver monitoring: attribute the report to
                        // the member that measured it.
                        let vc = report.vc;
                        self.to_user(tsap, move |svc, u| {
                            u.t_group_qos_indication(svc, vc, from, report)
                        });
                    } else {
                        self.to_user(tsap, move |svc, u| u.t_qos_indication(svc, report));
                    }
                }
            }
            ControlMsg::UserControl { vc, payload } => {
                self.to_tap(vc, move |tap| tap.on_control(vc, payload));
            }
            ControlMsg::Datagram {
                to_tsap,
                from,
                payload,
                wire_size: _,
            } => {
                self.to_user(to_tsap, move |svc, u| {
                    u.t_datagram_indication(svc, from, payload)
                });
            }
        }
    }

    /// Connectionless send to a TSAP (control-class priority).
    pub(crate) fn send_datagram(
        self: &Rc<Self>,
        from_tsap: Tsap,
        to: cm_core::address::TransportAddr,
        payload: Rc<dyn Any>,
        wire_size: usize,
    ) {
        let msg = ControlMsg::Datagram {
            to_tsap: to.tsap,
            from: cm_core::address::TransportAddr {
                node: self.node,
                tsap: from_tsap,
            },
            payload,
            wire_size,
        };
        let pkt = Packet::control(
            self.node,
            to.node,
            CONTROL_WIRE_SIZE + wire_size,
            self.now(),
            WirePdu::Control(msg),
        );
        self.net.send(self.node, pkt);
    }

    fn on_connect_request(
        self: &Rc<Self>,
        vc: VcId,
        triple: AddressTriple,
        class: ServiceClass,
        qos: QosRequirement,
    ) {
        let reply_to = triple.source.node;
        let reject = |reason: DisconnectReason| {
            if self.tel.enabled() {
                self.tel.count("vc.connect.reject", 1);
                self.tel
                    .instant(self.now(), Layer::Transport, "vc.connect.reject", |e| {
                        e.u64("vc", vc.0).str("reason", reason.kind());
                    });
            }
            self.send_control(
                reply_to,
                ControlMsg::ConnectResponse {
                    vc,
                    result: Err(reason),
                },
            );
        };
        if !self
            .state
            .borrow()
            .users
            .contains_key(&triple.destination.tsap)
        {
            reject(DisconnectReason::NoSuchTsap);
            return;
        }
        // End-to-end QoS negotiation against what the path can offer
        // (§3.2: full option negotiation at connect time).
        let src = triple.source.node;
        let dst = triple.destination.node;
        let Some(mut achievable) = self.net.path_qos(src, dst, self.config.mtu) else {
            reject(DisconnectReason::Unreachable);
            return;
        };
        if qos.guarantee != GuaranteeMode::BestEffort {
            if let Some(avail) = self.net.available_bandwidth(src, dst) {
                achievable.throughput = achievable.throughput.min(avail);
            }
        }
        let agreed = match qos.tolerance.negotiate(&achievable) {
            Ok(a) => a,
            Err(violations) => {
                reject(DisconnectReason::from_violations(&violations));
                return;
            }
        };
        if qos.guarantee != GuaranteeMode::BestEffort {
            match self.net.reserve_path(vc, src, dst, agreed.throughput) {
                Some(Ok(())) => {}
                Some(Err(_)) => {
                    reject(DisconnectReason::AdmissionDenied);
                    return;
                }
                None => {
                    reject(DisconnectReason::Unreachable);
                    return;
                }
            }
        }
        let capacity = self.buffer_slots(&qos) as u32;
        if self.tel.enabled() {
            self.tel.count("vc.connect.admit", 1);
            self.tel
                .instant(self.now(), Layer::Transport, "vc.connect.admit", |e| {
                    e.u64("vc", vc.0)
                        .u64("agreed_bps", agreed.throughput.as_bps())
                        .u64("agreed_delay_us", agreed.delay.as_micros());
                });
        }
        self.state.borrow_mut().pending_dst.insert(
            vc,
            PendingDst {
                triple,
                class,
                requirement: qos,
                agreed,
                capacity,
                group: None,
                start_seq: 0,
            },
        );
        self.to_user(triple.destination.tsap, move |svc, u| {
            u.t_connect_indication(svc, vc, triple, class, qos)
        });
    }

    /// A group-VC invitation arrived at a prospective receiver. QoS and
    /// reservation were settled at the sender against this member's
    /// branch; here only the local user's consent and buffer capacity are
    /// needed (answered through the ordinary `t_connect_response`).
    #[allow(clippy::too_many_arguments)]
    fn on_group_connect_request(
        self: &Rc<Self>,
        vc: VcId,
        group: netsim::GroupId,
        triple: AddressTriple,
        class: ServiceClass,
        requirement: QosRequirement,
        agreed: QosParams,
        start_seq: u64,
    ) {
        if !self
            .state
            .borrow()
            .users
            .contains_key(&triple.destination.tsap)
        {
            self.send_control(
                triple.source.node,
                ControlMsg::GroupConnectResponse {
                    vc,
                    member: triple.destination,
                    result: Err(DisconnectReason::NoSuchTsap),
                },
            );
            return;
        }
        let capacity = self.buffer_slots(&requirement) as u32;
        self.state.borrow_mut().pending_dst.insert(
            vc,
            PendingDst {
                triple,
                class,
                requirement,
                agreed,
                capacity,
                group: Some(group),
                start_seq,
            },
        );
        self.to_user(triple.destination.tsap, move |svc, u| {
            u.t_connect_indication(svc, vc, triple, class, requirement)
        });
    }

    fn on_connect_response(
        self: &Rc<Self>,
        vc: VcId,
        result: Result<(QosParams, u32), DisconnectReason>,
    ) {
        let p = self.state.borrow_mut().pending_src.remove(&vc);
        let Some(p) = p else { return };
        let remote = !p.triple.is_conventional();
        match result {
            Ok((agreed, capacity)) => {
                self.open_source(vc, &p, agreed, capacity);
                // Confirm to the source user...
                let src_tsap = p.triple.source.tsap;
                self.to_user(src_tsap, move |svc, u| {
                    u.t_connect_confirm(svc, vc, Ok(agreed))
                });
                // ...and to the remote initiator (§3.5: responses to both).
                if remote {
                    self.send_control(
                        p.triple.initiator.node,
                        ControlMsg::RemoteConnectReply {
                            vc,
                            result: Ok(agreed),
                        },
                    );
                }
            }
            Err(reason) => {
                let src_tsap = p.triple.source.tsap;
                if remote {
                    let r = reason.clone();
                    self.to_user(src_tsap, move |svc, u| {
                        u.t_disconnect_indication(svc, vc, r)
                    });
                    self.send_control(
                        p.triple.initiator.node,
                        ControlMsg::RemoteConnectReply {
                            vc,
                            result: Err(reason),
                        },
                    );
                } else {
                    self.to_user(src_tsap, move |svc, u| {
                        u.t_connect_confirm(svc, vc, Err(reason))
                    });
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Rate-based data path
    // ------------------------------------------------------------------

    /// (Re)schedule the pacing tick for `vc` at its next due instant.
    pub(crate) fn ensure_tick_now(self: &Rc<Self>, vc: VcId) {
        let Some(h) = self.state.borrow().vcs.resolve(vc) else {
            return;
        };
        self.ensure_tick_h(h, self.now());
    }

    /// As [`Self::ensure_tick_now`], by slab handle, with an explicit
    /// earliest firing time. The early-wake re-arm passes `now + 1 µs`:
    /// the local↔global clock conversions truncate to whole microseconds,
    /// so a "due" instant can map back onto the current instant and a
    /// same-time re-arm would spin forever without advancing virtual time.
    fn ensure_tick_h(self: &Rc<Self>, h: SlabHandle, floor: SimTime) {
        let st = self.state.borrow();
        let Some(s) = st.vcs.at(h).and_then(|e| e.vc.source.as_ref()) else {
            return;
        };
        let Some(at_local) = s.clock.next_due() else {
            return;
        };
        let at = self.local_to_global(at_local).max(floor);
        if let Some(t) = &s.tick_timer {
            t.arm_at(at);
        }
    }

    /// Id-keyed wrapper for the cold callers (group recompute, resume).
    pub(crate) fn source_tick(self: &Rc<Self>, vc: VcId) {
        let Some(h) = self.state.borrow().vcs.resolve(vc) else {
            return;
        };
        self.source_tick_h(h);
    }

    /// One pacing-tick of the rate-based source behind `h` — the hottest
    /// periodic path in the stack. The timer closure hands us the slab
    /// handle, so the whole tick runs without a single id lookup.
    pub(crate) fn source_tick_h(self: &Rc<Self>, h: SlabHandle) {
        let now = self.now();
        let local = self.local_now();
        enum Next {
            Idle,
            ParkOnBuffer,
            Send(Osdu),
        }
        let mut stalled_vc = None;
        let next = {
            let mut st = self.state.borrow_mut();
            let Some(e) = st.vcs.at_mut(h) else { return };
            let vc = e.vc.id;
            let s = e.vc.source.as_mut().expect("source end on tick");
            match s.clock.next_due() {
                None => Next::Idle, // paused
                // 1 us tolerance: local->global->local conversion truncates,
                // so an exactly-due tick can read as infinitesimally early —
                // without the slack it would re-arm at the same instant
                // forever.
                Some(due) if due > local + cm_core::time::SimDuration::from_micros(1) => {
                    // Early wake (stale event survived a reschedule):
                    // fall through to re-arm below.
                    Next::Idle
                }
                Some(_) => {
                    if !s.has_credit() {
                        if !s.stalled_credit {
                            s.stalled_at = Some(now);
                            self.trace_stall(vc, now);
                            stalled_vc = Some(vc);
                        }
                        s.stalled_credit = true;
                        Next::Idle
                    } else {
                        match s.send_buf.try_pop(now) {
                            Some(osdu) => Next::Send(osdu),
                            None => Next::ParkOnBuffer,
                        }
                    }
                }
            }
        };
        if let Some(vc) = stalled_vc {
            // Arm the self-healing probe: a stall that outlives the
            // patience window gets its infrastructure checked.
            self.heal_on_stall(vc);
        }
        match next {
            Next::Idle => {
                // Re-arm if running and due in the future.
                let due = {
                    let st = self.state.borrow();
                    st.vcs
                        .at(h)
                        .and_then(|e| e.vc.source.as_ref())
                        .and_then(|s| s.clock.next_due())
                };
                if let Some(due) = due {
                    if due > local + cm_core::time::SimDuration::from_micros(1) {
                        // Strictly future: see ensure_tick_h.
                        self.ensure_tick_h(h, now + cm_core::time::SimDuration::from_micros(1));
                    }
                }
            }
            Next::ParkOnBuffer => {
                // Protocol blocked: application slow producing (§6.3.1.2).
                let (buf, already) = {
                    let mut st = self.state.borrow_mut();
                    let s = st
                        .vcs
                        .at_mut(h)
                        .and_then(|e| e.vc.source.as_mut())
                        .expect("source end");
                    let already = s.waiting_buffer;
                    s.waiting_buffer = true;
                    (s.send_buf.clone(), already)
                };
                if !already {
                    let me = self.clone();
                    buf.park_consumer(now, move || {
                        // Trampoline: never re-enter synchronously.
                        let me2 = me.clone();
                        me.net
                            .engine()
                            .schedule_in(cm_core::time::SimDuration::ZERO, move |_| {
                                {
                                    let mut st = me2.state.borrow_mut();
                                    if let Some(s) =
                                        st.vcs.at_mut(h).and_then(|e| e.vc.source.as_mut())
                                    {
                                        s.waiting_buffer = false;
                                    }
                                }
                                me2.source_tick_h(h);
                            });
                    });
                }
            }
            Next::Send(osdu) => {
                self.transmit_osdu_h(h, osdu, false, None);
                // Consume the pacing slot and re-arm in the same borrow —
                // the old per-call path re-borrowed (and re-looked-up the
                // id) three times for this one step.
                let mut st = self.state.borrow_mut();
                if let Some(s) = st.vcs.at_mut(h).and_then(|e| e.vc.source.as_mut()) {
                    s.clock.consume_slot();
                    // Never burst more than a couple of units of
                    // backlog after a stall — rate-based senders pace.
                    s.clock.limit_backlog(local, 2);
                    if let Some(at_local) = s.clock.next_due() {
                        let at = self.local_to_global(at_local).max(now);
                        if let Some(t) = &s.tick_timer {
                            t.arm_at(at);
                        }
                    }
                }
            }
        }
    }

    /// Id-keyed wrapper for the cold callers (nack resends, heal unstick).
    pub(crate) fn transmit_osdu(
        self: &Rc<Self>,
        vc: VcId,
        osdu: Osdu,
        is_retrans: bool,
        explicit_to: Option<NetAddr>,
    ) {
        let Some(h) = self.state.borrow().vcs.resolve(vc) else {
            return;
        };
        self.transmit_osdu_h(h, osdu, is_retrans, explicit_to);
    }

    /// Fragment and transmit one OSDU (fresh or retransmission). Fresh
    /// sends on a group VC fan out over the shared tree; `explicit_to`
    /// overrides the destination for per-receiver unicast retransmission.
    pub(crate) fn transmit_osdu_h(
        self: &Rc<Self>,
        h: SlabHandle,
        osdu: Osdu,
        is_retrans: bool,
        explicit_to: Option<NetAddr>,
    ) {
        enum Dest {
            Unicast(NetAddr),
            Group(netsim::GroupId),
        }
        let now = self.now();
        let (vc, dest, seq, sizes) = {
            let mut st = self.state.borrow_mut();
            let Some(e) = st.vcs.at_mut(h) else { return };
            let v = &mut e.vc;
            let vc = v.id;
            let dest = match explicit_to {
                Some(node) => Dest::Unicast(node),
                None => match &v.group {
                    Some(ge) => Dest::Group(ge.group),
                    None => Dest::Unicast(v.peer_node),
                },
            };
            let seq = osdu.seq();
            let sizes = fragment_sizes(osdu.wire_size(), self.config.mtu);
            let corrects = v.class.error_control.corrects();
            let s = v.source.as_mut().expect("source end");
            if !is_retrans {
                s.charged += 1;
                s.sent += 1;
                if corrects {
                    s.retrans_cache.push_back(osdu.clone());
                    while s.retrans_cache.len() > s.retrans_cache_cap {
                        s.retrans_cache.pop_front();
                    }
                }
            }
            (vc, dest, seq, sizes)
        };
        // First fresh transmission closes the send-buffer wait; every
        // fragment (fresh or retransmitted) carries the trace tag so the
        // completing copy's queue wait reaches the sink attribution.
        let tracing = self.obs.enabled();
        if tracing && !is_retrans {
            self.obs.transmitted(vc.0, seq, now.as_micros());
        }
        // Branch on the destination once, not per fragment: the fragment
        // loop below is the hottest transport send path, feeding netsim's
        // zero-allocation flight events.
        let count = sizes.len() as u32;
        let make_tpdu = |i: usize, bytes: usize| {
            let last = i as u32 + 1 == count;
            DataTpdu {
                vc,
                osdu_seq: seq,
                frag_index: i as u32,
                frag_count: count,
                frag_bytes: bytes,
                opdu: osdu.opdu,
                payload: last.then(|| osdu.payload.clone()),
                osdu_sent_at: now,
            }
        };
        match dest {
            Dest::Unicast(node) => {
                for (i, &bytes) in sizes.iter().enumerate() {
                    let tpdu = make_tpdu(i, bytes);
                    let wire = tpdu.wire_size();
                    let mut pkt = Packet::data(self.node, node, vc, wire, now, WirePdu::Data(tpdu));
                    if tracing {
                        pkt.trace = Some(netsim::PacketTrace {
                            stream: vc.0,
                            seq,
                            queued_us: 0,
                        });
                    }
                    self.net.send(self.node, pkt);
                }
            }
            Dest::Group(g) => {
                for (i, &bytes) in sizes.iter().enumerate() {
                    let tpdu = make_tpdu(i, bytes);
                    let wire = tpdu.wire_size();
                    let mut pkt = Packet::group(
                        self.node,
                        g,
                        Some(vc),
                        netsim::PacketClass::Data,
                        wire,
                        now,
                        WirePdu::Data(tpdu),
                    );
                    if tracing {
                        pkt.trace = Some(netsim::PacketTrace {
                            stream: vc.0,
                            seq,
                            queued_us: 0,
                        });
                    }
                    self.net.send_to_group(g, pkt);
                }
            }
        }
    }

    fn on_credit(self: &Rc<Self>, from: NetAddr, vc: VcId, freed_total: u64) {
        let Some(h) = self.state.borrow().vcs.resolve(vc) else {
            return;
        };
        enum Act {
            Group,
            Nothing,
            Resume(ProtocolProfile),
        }
        let act = {
            let mut st = self.state.borrow_mut();
            let Some(e) = st.vcs.at_mut(h) else { return };
            if e.vc.group.is_some() {
                Act::Group
            } else {
                let profile = e.vc.class.profile;
                match e.vc.source.as_mut() {
                    None => Act::Nothing,
                    Some(s) => {
                        s.freed_remote = s.freed_remote.max(freed_total);
                        if s.stalled_credit && s.has_credit() {
                            s.stalled_credit = false;
                            if let Some(since) = s.stalled_at.take() {
                                self.trace_resume(vc, since);
                            }
                            Act::Resume(profile)
                        } else {
                            Act::Nothing
                        }
                    }
                }
            }
        };
        match act {
            Act::Group => self.on_group_credit(vc, from, freed_total),
            Act::Nothing => {}
            Act::Resume(ProtocolProfile::RateBasedCm) => self.source_tick_h(h),
            Act::Resume(ProtocolProfile::WindowBased) => self.pump_window(vc),
            Act::Resume(ProtocolProfile::Datagram) => {}
        }
    }

    /// Per-receiver error control: retransmissions (and give-up notices
    /// for cache-evicted sequences) go *unicast* to the requesting node,
    /// so one lossy receiver never triggers a resend to the whole group.
    fn on_nack(self: &Rc<Self>, from: NetAddr, vc: VcId, seqs: Vec<u64>) {
        let mut to_resend = Vec::new();
        let mut gone = Vec::new();
        {
            let st = self.state.borrow();
            let Some(s) = st.vcs.get(&vc).and_then(|v| v.source.as_ref()) else {
                return;
            };
            for seq in seqs {
                match s.retrans_cache.iter().find(|o| o.seq() == seq) {
                    Some(o) => to_resend.push(o.clone()),
                    None => gone.push(seq),
                }
            }
        }
        // Each nacked sequence is a traced unit the network lost (or
        // corrupted) on the way to `from`.
        if self.obs.enabled() {
            for _ in 0..to_resend.len() + gone.len() {
                self.obs.net_drop(vc.0);
            }
        }
        for osdu in to_resend {
            self.transmit_osdu(vc, osdu, true, Some(from));
        }
        if !gone.is_empty() {
            // Evicted from the cache: give up so the receiver can move on.
            self.send_control(from, ControlMsg::Dropped { vc, seqs: gone });
        }
    }

    // ------------------------------------------------------------------
    // Window-based data path
    // ------------------------------------------------------------------

    /// Transmit as much as window + credit allow (window profile).
    pub(crate) fn pump_window(self: &Rc<Self>, vc: VcId) {
        let now = self.now();
        loop {
            enum Step {
                SendFrag(u64, DataTpdu),
                NeedOsdu,
                Done,
            }
            let step = {
                let mut st = self.state.borrow_mut();
                let Some(v) = st.vcs.get_mut(&vc) else { return };
                let s = v.source.as_mut().expect("source end");
                let gbn = s.gbn.as_mut().expect("window sender");
                if !gbn.can_send() {
                    Step::Done
                } else if let Some(tpdu) = s.pending_frags.pop_front() {
                    let wseq = gbn.on_send(tpdu.clone(), now);
                    Step::SendFrag(wseq, tpdu)
                } else {
                    Step::NeedOsdu
                }
            };
            match step {
                Step::Done => break,
                Step::SendFrag(wseq, tpdu) => {
                    self.send_window_frag(vc, wseq, tpdu);
                }
                Step::NeedOsdu => {
                    // Pull the next OSDU, fragment it into pending_frags.
                    enum Pull {
                        Got,
                        Park,
                        Stall,
                    }
                    let mut newly_stalled = false;
                    let pull = {
                        let mut st = self.state.borrow_mut();
                        let Some(v) = st.vcs.get_mut(&vc) else { return };
                        let mtu = self.config.mtu;
                        let s = v.source.as_mut().expect("source end");
                        if !s.has_credit() {
                            if !s.stalled_credit {
                                s.stalled_at = Some(now);
                                self.trace_stall(vc, now);
                                newly_stalled = true;
                            }
                            s.stalled_credit = true;
                            Pull::Stall
                        } else {
                            match s.send_buf.try_pop(now) {
                                None => Pull::Park,
                                Some(osdu) => {
                                    let seq = osdu.seq();
                                    let sizes = fragment_sizes(osdu.wire_size(), mtu);
                                    let count = sizes.len() as u32;
                                    for (i, bytes) in sizes.iter().enumerate() {
                                        let last = i as u32 + 1 == count;
                                        s.pending_frags.push_back(DataTpdu {
                                            vc,
                                            osdu_seq: seq,
                                            frag_index: i as u32,
                                            frag_count: count,
                                            frag_bytes: *bytes,
                                            opdu: osdu.opdu,
                                            payload: last.then(|| osdu.payload.clone()),
                                            osdu_sent_at: now,
                                        });
                                    }
                                    s.charged += 1;
                                    s.sent += 1;
                                    // The OSDU left the send buffer: close
                                    // its pacing/credit wait.
                                    self.obs.transmitted(vc.0, seq, now.as_micros());
                                    Pull::Got
                                }
                            }
                        }
                    };
                    match pull {
                        Pull::Got => continue,
                        Pull::Stall => {
                            if newly_stalled {
                                self.heal_on_stall(vc);
                            }
                            break;
                        }
                        Pull::Park => {
                            let (buf, already) = {
                                let mut st = self.state.borrow_mut();
                                let s = st
                                    .vcs
                                    .get_mut(&vc)
                                    .and_then(|v| v.source.as_mut())
                                    .expect("source end");
                                let already = s.waiting_buffer;
                                s.waiting_buffer = true;
                                (s.send_buf.clone(), already)
                            };
                            if !already {
                                let me = self.clone();
                                buf.park_consumer(now, move || {
                                    let me2 = me.clone();
                                    me.net.engine().schedule_in(
                                        cm_core::time::SimDuration::ZERO,
                                        move |_| {
                                            {
                                                let mut st = me2.state.borrow_mut();
                                                if let Some(s) = st
                                                    .vcs
                                                    .get_mut(&vc)
                                                    .and_then(|v| v.source.as_mut())
                                                {
                                                    s.waiting_buffer = false;
                                                }
                                            }
                                            me2.pump_window(vc);
                                        },
                                    );
                                });
                            }
                            break;
                        }
                    }
                }
            }
        }
        self.arm_rto(vc);
    }

    fn send_window_frag(self: &Rc<Self>, vc: VcId, wseq: u64, tpdu: DataTpdu) {
        let peer = {
            let st = self.state.borrow();
            match st.vcs.get(&vc) {
                Some(v) => v.peer_node,
                None => return,
            }
        };
        let wire = tpdu.wire_size();
        let now = self.now();
        let seq = tpdu.osdu_seq;
        let mut pkt = Packet::data(
            self.node,
            peer,
            vc,
            wire,
            now,
            WirePdu::WindowData { wseq, tpdu },
        );
        if self.obs.enabled() {
            pkt.trace = Some(netsim::PacketTrace {
                stream: vc.0,
                seq,
                queued_us: 0,
            });
        }
        self.net.send(self.node, pkt);
    }

    fn arm_rto(self: &Rc<Self>, vc: VcId) {
        let at = {
            let st = self.state.borrow();
            st.vcs
                .get(&vc)
                .and_then(|v| v.source.as_ref())
                .and_then(|s| s.gbn.as_ref())
                .and_then(|g| g.timeout_at())
        };
        let st = self.state.borrow();
        if let Some(t) = st
            .vcs
            .get(&vc)
            .and_then(|v| v.source.as_ref())
            .and_then(|s| s.rto_timer.as_ref())
        {
            match at {
                Some(at) => t.arm_at(at.max(self.now())),
                None => t.disarm(),
            }
        }
    }

    /// A source newly stalled on exhausted receiver credit.
    fn trace_stall(&self, vc: VcId, now: SimTime) {
        if !self.tel.enabled() {
            return;
        }
        self.tel.count("vc.credit.stall", 1);
        self.tel
            .instant(now, Layer::Transport, "vc.credit.stall", |e| {
                e.u64("vc", vc.0);
            });
    }

    /// Credit returned; the stall that began at `since` is over.
    fn trace_resume(&self, vc: VcId, since: SimTime) {
        if self.obs.enabled() {
            let dur = self.now().saturating_since(since);
            self.obs.stalled(vc.0, dur.as_micros());
        }
        if !self.tel.enabled() {
            return;
        }
        let now = self.now();
        let dur = now.saturating_since(since);
        self.tel.record_duration("vc.credit.stall_us", dur);
        self.tel
            .span(since, dur, Layer::Transport, "vc.credit.stalled", |e| {
                e.u64("vc", vc.0);
            });
    }

    pub(crate) fn rto_fire_h(self: &Rc<Self>, h: SlabHandle) {
        let now = self.now();
        let (vc, resend, strikes) = {
            let mut st = self.state.borrow_mut();
            let Some(e) = st.vcs.at_mut(h) else { return };
            let v = &mut e.vc;
            let vc = v.id;
            let s = v.source.as_mut().expect("source end");
            let gbn = s.gbn.as_mut().expect("window sender");
            // wseqs of cached entries are base..next, in order.
            let resend = gbn.check_timeout(now).map(|tpdus| (tpdus, gbn.base()));
            // A timeout that actually retransmitted is a strike; enough of
            // them in a row and the path itself is suspect (DESIGN.md §9).
            let strikes = match &resend {
                Some((tpdus, _)) if !tpdus.is_empty() => {
                    s.rto_strikes += 1;
                    s.rto_strikes
                }
                _ => 0,
            };
            (vc, resend, strikes)
        };
        if strikes == self.config.heal_rto_patience {
            self.heal_kick(vc, crate::heal::HealReason::Rto);
        }
        if let Some((tpdus, base)) = resend {
            if self.tel.enabled() && !tpdus.is_empty() {
                self.tel.count("vc.rto", 1);
                self.tel.instant(now, Layer::Transport, "vc.rto", |e| {
                    e.u64("vc", vc.0)
                        .u64("base", base)
                        .u64("resent", tpdus.len() as u64);
                });
            }
            for (i, tpdu) in tpdus.into_iter().enumerate() {
                self.send_window_frag(vc, base + i as u64, tpdu);
            }
        }
        self.arm_rto(vc);
    }

    fn on_ack(self: &Rc<Self>, vc: VcId, upto: u64) {
        let now = self.now();
        let slid = {
            let mut st = self.state.borrow_mut();
            let Some(s) = st.vcs.get_mut(&vc).and_then(|v| v.source.as_mut()) else {
                return;
            };
            let slid = match s.gbn.as_mut() {
                Some(g) => g.on_ack(upto, now),
                None => false,
            };
            if slid {
                // Window progress: the path works, clear the strikes.
                s.rto_strikes = 0;
            }
            slid
        };
        if slid {
            self.pump_window(vc);
        } else {
            self.arm_rto(vc);
        }
    }

    fn on_window_data(self: &Rc<Self>, wseq: u64, tpdu: DataTpdu, corrupted: bool, queued_us: u64) {
        let vc = tpdu.vc;
        let Some(h) = self.state.borrow().vcs.resolve(vc) else {
            return;
        };
        let now = self.now();
        let (accept, ack, peer) = {
            let mut st = self.state.borrow_mut();
            let Some(e) = st.vcs.at_mut(h) else { return };
            let peer = e.vc.peer_node;
            let Some(k) = e.vc.sink.as_mut() else { return };
            let g = k.gbn_recv.as_mut().expect("window receiver");
            if corrupted {
                // A damaged TPDU is treated as lost: dup-ack.
                g.discarded += 1;
                (false, g.expected(), peer)
            } else {
                let (a, ack) = g.on_tpdu_seq(wseq);
                (a, ack, peer)
            }
        };
        self.send_control(peer, ControlMsg::Ack { vc, upto: ack });
        if accept {
            self.feed_sink_h(h, tpdu, false, now, queued_us);
        }
    }

    // ------------------------------------------------------------------
    // Sink-side common path
    // ------------------------------------------------------------------

    pub(crate) fn on_data(self: &Rc<Self>, tpdu: DataTpdu, corrupted: bool, queued_us: u64) {
        // The one id→handle lookup of the receive path; everything below
        // addresses the slab entry directly.
        let Some(h) = self.state.borrow().vcs.resolve(tpdu.vc) else {
            return;
        };
        let now = self.now();
        self.feed_sink_h(h, tpdu, corrupted, now, queued_us);
    }

    /// Receive-path core: reassembly, monitor accounting, and the whole
    /// same-tick delivery batch (buffer pushes, tap dispatches, NACKs,
    /// loss indications, credit) under ONE state borrow. The per-action
    /// path used to re-borrow and re-look-up the id 3–4 times per OSDU.
    fn feed_sink_h(
        self: &Rc<Self>,
        h: SlabHandle,
        tpdu: DataTpdu,
        corrupted: bool,
        now: SimTime,
        queued_us: u64,
    ) {
        let final_frag = tpdu.frag_index + 1 == tpdu.frag_count;
        let delay = now.saturating_since(tpdu.osdu_sent_at);
        let wire_total = tpdu.frag_bytes; // summed via monitor per fragment
        let mut guard = self.state.borrow_mut();
        let st = &mut *guard;
        let Some(e) = st.vcs.at_mut(h) else { return };
        let Some(k) = e.vc.sink.as_mut() else { return };
        let lost_before = k.engine.lost;
        let corrupted_before = k.engine.corrupted;
        let delivered_before = k.engine.delivered;
        let actions = k.engine.on_tpdu(&tpdu, corrupted, now);
        if let Some(m) = &mut k.monitor {
            m.on_lost(k.engine.lost - lost_before);
            for _ in 0..(k.engine.corrupted - corrupted_before) {
                m.on_corrupted();
            }
            // Count a completed OSDU's delay once, at its final frag.
            if final_frag && k.engine.delivered > delivered_before {
                m.on_delivered(wire_total, delay);
            } else if final_frag {
                // Completed into the stash (reliable reorder) still
                // counts as received for throughput purposes.
                let stashed = k.engine.delivered == delivered_before
                    && k.engine.lost == lost_before
                    && k.engine.corrupted == corrupted_before;
                if stashed {
                    m.on_delivered(wire_total, delay);
                }
            }
        }
        if self.obs.enabled() && final_frag {
            // A final fragment that completed reassembly — straight into
            // delivery, or stashed behind a hole under repair. (A frag
            // counted lost/corrupted completed nothing.)
            let completed = k.engine.delivered > delivered_before
                || (k.engine.delivered == delivered_before
                    && k.engine.lost == lost_before
                    && k.engine.corrupted == corrupted_before);
            if completed {
                self.obs.arrived(
                    tpdu.vc.0,
                    tpdu.osdu_seq,
                    self.node.0 as u64,
                    now.as_micros(),
                    queued_us,
                    tpdu.osdu_sent_at.as_micros(),
                );
            }
        }
        self.sink_actions_locked(st, h, actions, now);
    }

    /// Id-keyed wrapper: run sink-engine actions + credit refresh (the
    /// `Dropped` control path resolves here).
    fn apply_sink_actions(
        self: &Rc<Self>,
        vc: VcId,
        actions: Vec<SinkAction>,
        now: Option<SimTime>,
    ) {
        let Some(h) = self.state.borrow().vcs.resolve(vc) else {
            return;
        };
        let now = now.unwrap_or_else(|| self.now());
        let mut guard = self.state.borrow_mut();
        self.sink_actions_locked(&mut guard, h, actions, now);
    }

    /// Process a batch of sink-engine actions and the follow-on credit
    /// refresh against the entry behind `h`, under the caller's state
    /// borrow. Every externally visible effect — tap/user callbacks
    /// (zero-delay engine events), NACK and credit control sends, the
    /// producer park — is issued inline in exactly the order the old
    /// per-action path produced it; none of them touch entity state
    /// synchronously, so issuing them under the borrow is safe and the
    /// event schedule (and with it the telemetry byte stream) is
    /// unchanged.
    fn sink_actions_locked(
        self: &Rc<Self>,
        st: &mut State,
        h: SlabHandle,
        actions: Vec<SinkAction>,
        now: SimTime,
    ) {
        let Some(e) = st.vcs.at_mut(h) else { return };
        let vc = e.vc.id;
        let peer = e.vc.peer_node;
        let tsap = e.vc.local_tsap;
        let tap = e.tap.clone();
        let Some(k) = e.vc.sink.as_mut() else { return };
        let mut park: Option<BufferHandle> = None;
        for action in actions {
            match action {
                SinkAction::Deliver(osdu) => {
                    let opdu = osdu.opdu;
                    // The engine released the OSDU (ending any stash-behind-
                    // a-hole wait): stamp it delivered for attribution.
                    self.obs
                        .sink_delivered(vc.0, osdu.seq(), self.node.0 as u64, now.as_micros());
                    let pushed = if !k.pending_delivery.is_empty() {
                        k.pending_delivery.push_back(osdu);
                        false
                    } else {
                        match k.recv_buf.try_push(now, osdu) {
                            PushOutcome::Pushed { .. } => true,
                            PushOutcome::Full(osdu) => {
                                k.pending_delivery.push_back(osdu);
                                false
                            }
                        }
                    };
                    if pushed {
                        if let Some(tap) = tap.clone() {
                            self.dispatch_tap(tap, move |tap| tap.on_osdu_arrived(vc, opdu));
                        }
                    } else if !k.producer_parked {
                        k.producer_parked = true;
                        park = Some(k.recv_buf.clone());
                    }
                }
                SinkAction::SendNack(seqs) => {
                    self.send_control(peer, ControlMsg::Nack { vc, seqs });
                }
                SinkAction::IndicateLoss(seq) => {
                    if let Some(user) = st.users.get(&tsap).cloned() {
                        self.dispatch_user(user, move |svc, u| u.t_error_indication(svc, vc, seq));
                    }
                    if let Some(tap) = tap.clone() {
                        self.dispatch_tap(tap, move |tap| tap.on_loss_indicated(vc, seq));
                    }
                }
            }
        }
        let freed = k.freed_total();
        if freed > k.last_freed_sent {
            k.last_freed_sent = freed;
            self.send_control(
                peer,
                ControlMsg::Credit {
                    vc,
                    freed_total: freed,
                },
            );
        }
        if let Some(buf) = park {
            self.park_sink_producer_h(h, buf, now);
        }
    }

    /// Park the protocol producer on a full receive buffer; the wake
    /// trampolines through the engine into a pending-delivery drain.
    /// Registration consumes no event sequence, so parking at the end of
    /// a batch instead of mid-loop leaves the schedule untouched.
    fn park_sink_producer_h(self: &Rc<Self>, h: SlabHandle, buf: BufferHandle, now: SimTime) {
        let me = self.clone();
        buf.park_producer(now, move || {
            let me2 = me.clone();
            me.net
                .engine()
                .schedule_in(cm_core::time::SimDuration::ZERO, move |_| {
                    me2.drain_pending_delivery_h(h)
                });
        });
    }

    fn drain_pending_delivery_h(self: &Rc<Self>, h: SlabHandle) {
        let now = self.now();
        let mut guard = self.state.borrow_mut();
        let st = &mut *guard;
        self.drain_pending_locked(st, h, now);
    }

    /// Move stalled pending deliveries into freed receive-buffer slots,
    /// dispatch their taps, and send any credit delta — one borrow for
    /// the whole drain (the loop used to take three per OSDU).
    fn drain_pending_locked(self: &Rc<Self>, st: &mut State, h: SlabHandle, now: SimTime) {
        let Some(e) = st.vcs.at_mut(h) else { return };
        let vc = e.vc.id;
        let peer = e.vc.peer_node;
        let tap = e.tap.clone();
        let Some(k) = e.vc.sink.as_mut() else { return };
        let mut park: Option<BufferHandle> = None;
        k.producer_parked = false;
        while let Some(osdu) = k.pending_delivery.pop_front() {
            let opdu = osdu.opdu;
            match k.recv_buf.try_push(now, osdu) {
                PushOutcome::Pushed { .. } => {
                    if let Some(tap) = tap.clone() {
                        self.dispatch_tap(tap, move |tap| tap.on_osdu_arrived(vc, opdu));
                    }
                }
                PushOutcome::Full(osdu) => {
                    k.pending_delivery.push_front(osdu);
                    k.producer_parked = true;
                    park = Some(k.recv_buf.clone());
                    break;
                }
            }
        }
        let freed = k.freed_total();
        if freed > k.last_freed_sent {
            k.last_freed_sent = freed;
            self.send_control(
                peer,
                ControlMsg::Credit {
                    vc,
                    freed_total: freed,
                },
            );
        }
        if let Some(buf) = park {
            self.park_sink_producer_h(h, buf, now);
        }
    }

    /// Advertise newly freed receive slots to the sender.
    pub(crate) fn maybe_send_credit(self: &Rc<Self>, vc: VcId) {
        let msg = {
            let mut st = self.state.borrow_mut();
            let Some(v) = st.vcs.get_mut(&vc) else { return };
            let peer = v.peer_node;
            let Some(k) = v.sink.as_mut() else { return };
            let freed = k.freed_total();
            if freed > k.last_freed_sent {
                k.last_freed_sent = freed;
                Some((peer, freed))
            } else {
                None
            }
        };
        if let Some((peer, freed)) = msg {
            self.send_control(
                peer,
                ControlMsg::Credit {
                    vc,
                    freed_total: freed,
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // QoS monitoring
    // ------------------------------------------------------------------

    fn schedule_monitor_h(self: &Rc<Self>, h: SlabHandle) {
        let st = self.state.borrow();
        let Some(k) = st.vcs.at(h).and_then(|e| e.vc.sink.as_ref()) else {
            return;
        };
        let Some(at) = k.monitor.as_ref().map(|m| m.period_end()) else {
            return;
        };
        if let Some(t) = &k.monitor_timer {
            t.arm_at(at);
        }
    }

    fn monitor_fire_h(self: &Rc<Self>, h: SlabHandle) {
        let now = self.now();
        let report = {
            let mut st = self.state.borrow_mut();
            let Some(e) = st.vcs.at_mut(h) else { return };
            let v = &mut e.vc;
            let vc = v.id;
            let contract = v.contract;
            let peer = v.peer_node;
            let tsap = v.local_tsap;
            let Some(k) = v.sink.as_mut() else { return };
            let Some(m) = &mut k.monitor else { return };
            let period = m.period();
            let measured = m.end_period(now);
            let violations = measured.violations_of(&contract);
            if self.tel.enabled() {
                // Every monitor period leaves one sample event (§4.1.2 QoS
                // maintenance observes continuously, not only on violation).
                self.tel.record("vc.jitter_us", measured.jitter.as_micros());
                self.tel
                    .record("vc.throughput_bps", measured.throughput.as_bps());
                self.tel
                    .instant(now, Layer::Transport, "vc.qos.sample", |e| {
                        e.u64("vc", vc.0)
                            .u64("throughput_bps", measured.throughput.as_bps())
                            .u64("contract_bps", contract.throughput.as_bps())
                            .u64("delay_us", measured.delay.as_micros())
                            .u64("jitter_us", measured.jitter.as_micros())
                            .f64("loss", measured.packet_error_rate.as_prob())
                            .u64("violations", violations.len() as u64);
                    });
                if !violations.is_empty() {
                    self.tel.count("vc.qos.violation", violations.len() as u64);
                }
            }
            if violations.is_empty() {
                None
            } else {
                Some((
                    QosReport {
                        vc,
                        contracted: contract,
                        measured,
                        sample_period: period,
                        violations,
                    },
                    peer,
                    tsap,
                ))
            }
        };
        if let Some((report, peer, tsap)) = report {
            // Indicate locally (sink user)...
            let r2 = report.clone();
            self.to_user(tsap, move |svc, u| u.t_qos_indication(svc, r2));
            // ...and report to the source end (§4.1.2's initiator/source
            // notification).
            self.send_control(peer, ControlMsg::QosReportMsg(report));
        }
        self.schedule_monitor_h(h);
    }

    // ------------------------------------------------------------------
    // Application data interface + orchestration hooks (via service)
    // ------------------------------------------------------------------

    /// Application-side OSDU write: assigns the next sequence number
    /// (OPDU numbering starts at zero from first use of the connection,
    /// §5) and pushes into the send buffer.
    pub(crate) fn write_osdu(
        self: &Rc<Self>,
        vc: VcId,
        payload: Payload,
        event: Option<u64>,
    ) -> Result<bool, ServiceError> {
        let now = self.now();
        let mut st = self.state.borrow_mut();
        let h = st.vcs.resolve(vc).ok_or(ServiceError::UnknownVc)?;
        let e = st.vcs.at_mut(h).ok_or(ServiceError::UnknownVc)?;
        let egress = e.egress.clone();
        let v = &mut e.vc;
        if v.role != VcRole::Source {
            return Err(ServiceError::WrongState("write on sink end"));
        }
        if payload.len() > v.requirement.max_osdu_size {
            return Err(ServiceError::BadArgument("OSDU exceeds max_osdu_size"));
        }
        let s = v.source.as_mut().expect("source end");
        // Assign the sequence number only if there is room (a refused
        // write must not burn a seq).
        if s.send_buf.is_full() {
            return Ok(false);
        }
        let seq = s.next_write_seq;
        let mut osdu = Osdu::new(seq, payload);
        osdu.opdu.event = event;
        // Clone for the egress tap only when one is registered (payloads
        // are tag+len synthetics or refcounted bytes — cheap either way).
        let echo = egress.is_some().then(|| osdu.clone());
        match s.send_buf.try_push(now, osdu) {
            PushOutcome::Pushed { .. } => {
                s.next_write_seq += 1;
                // Mint the causal span: the budget clock starts when the
                // OSDU enters the send buffer.
                self.obs.mint(vc.0, seq, now.as_micros());
                // Egress tap fires after the state borrow is released so
                // it may call back into the service.
                drop(st);
                if let (Some(tap), Some(osdu)) = (egress, echo) {
                    tap.on_osdu_written(vc, &osdu, now.as_micros());
                }
                Ok(true)
            }
            PushOutcome::Full(_) => Ok(false),
        }
    }

    /// Application-side OSDU read from the receive buffer (respects the
    /// orchestration gate). Sends credit for the freed slot.
    pub(crate) fn read_osdu(self: &Rc<Self>, vc: VcId) -> Result<Option<Osdu>, ServiceError> {
        let Some(h) = self.state.borrow().vcs.resolve(vc) else {
            return Err(ServiceError::UnknownVc);
        };
        let now = self.now();
        let mut guard = self.state.borrow_mut();
        let st = &mut *guard;
        let Some(e) = st.vcs.at_mut(h) else {
            return Err(ServiceError::UnknownVc);
        };
        if e.vc.role != VcRole::Sink {
            return Err(ServiceError::WrongState("read on source end"));
        }
        let peer = e.vc.peer_node;
        let k = e.vc.sink.as_mut().expect("sink end");
        let osdu = match k.recv_buf.try_pop(now) {
            Some(o) => {
                k.app_popped += 1;
                // The span ends where the paper's service does: at the
                // sink application's read.
                self.obs
                    .closed(vc.0, o.seq(), self.node.0 as u64, now.as_micros());
                Some(o)
            }
            None => None,
        };
        if osdu.is_some() {
            // Credit for the freed slot, then resume any stalled pending
            // deliveries — one borrow for the pop + credit + drain batch.
            let freed = k.freed_total();
            if freed > k.last_freed_sent {
                k.last_freed_sent = freed;
                self.send_control(
                    peer,
                    ControlMsg::Credit {
                        vc,
                        freed_total: freed,
                    },
                );
            }
            self.drain_pending_locked(st, h, now);
        }
        Ok(osdu)
    }

    /// Harvest this end's interval statistics (blocking times mapped to
    /// application/protocol according to the end's role, §6.3.1.2).
    pub(crate) fn take_end_stats(self: &Rc<Self>, vc: VcId) -> Result<EndStats, ServiceError> {
        let now = self.now();
        let mut st = self.state.borrow_mut();
        let v = st.vcs.get_mut(&vc).ok_or(ServiceError::UnknownVc)?;
        match v.role {
            VcRole::Source => {
                let s = v.source.as_mut().expect("source end");
                let b = s.send_buf.take_stats(now);
                let dropped = s.dropped - s.dropped_snap;
                s.dropped_snap = s.dropped;
                Ok(EndStats {
                    // At the source the application *produces* (blocked on
                    // full buffer) and the protocol *consumes* (blocked on
                    // empty buffer).
                    app_blocked: b.producer_blocked,
                    proto_blocked: b.consumer_blocked,
                    seq_progress: s.charged,
                    dropped,
                    lost: 0,
                    app_popped: 0,
                })
            }
            VcRole::Sink => {
                let k = v.sink.as_mut().expect("sink end");
                let b = k.recv_buf.take_stats(now);
                let lost = k.engine.lost - k.lost_snap;
                k.lost_snap = k.engine.lost;
                Ok(EndStats {
                    // At the sink the protocol produces, the app consumes.
                    // Flow control stalls the *sender* before the local
                    // producer ever parks, so the honest "protocol blocked"
                    // figure is the time the receive buffer sat full.
                    app_blocked: b.consumer_blocked,
                    proto_blocked: b.full_time.max(b.producer_blocked),
                    // Table 6's OSDU# is what was *delivered to the sink
                    // application thread* — buffered-but-unread units do
                    // not count.
                    seq_progress: k.app_popped + k.engine.internal_freed,
                    dropped: 0,
                    lost,
                    app_popped: k.app_popped,
                })
            }
        }
    }
}

impl TransportEntity {
    // ------------------------------------------------------------------
    // TSAP binding and orchestration hooks
    // ------------------------------------------------------------------

    /// Attach a user to a TSAP.
    pub(crate) fn bind(&self, tsap: Tsap, user: Rc<dyn TransportUser>) -> Result<(), ServiceError> {
        let mut st = self.state.borrow_mut();
        if st.users.contains_key(&tsap) {
            return Err(ServiceError::TsapBusy);
        }
        st.users.insert(tsap, user);
        Ok(())
    }

    /// Detach the user from a TSAP.
    pub(crate) fn unbind(&self, tsap: Tsap) -> Result<(), ServiceError> {
        self.state
            .borrow_mut()
            .users
            .remove(&tsap)
            .map(|_| ())
            .ok_or(ServiceError::TsapUnbound)
    }

    /// Register the orchestration tap for a VC.
    pub(crate) fn register_tap(&self, vc: VcId, tap: Rc<dyn VcTap>) -> Result<(), ServiceError> {
        let mut st = self.state.borrow_mut();
        if !st.vcs.set_tap(vc, tap) {
            return Err(ServiceError::UnknownVc);
        }
        Ok(())
    }

    /// Remove the orchestration tap for a VC.
    pub(crate) fn clear_tap(&self, vc: VcId) {
        self.state.borrow_mut().vcs.clear_tap(&vc);
    }

    /// Register the source-side egress tap for a VC.
    pub(crate) fn set_egress_tap(
        &self,
        vc: VcId,
        tap: Rc<dyn EgressTap>,
    ) -> Result<(), ServiceError> {
        let mut st = self.state.borrow_mut();
        if !st.vcs.set_egress(vc, tap) {
            return Err(ServiceError::UnknownVc);
        }
        Ok(())
    }

    /// Remove the egress tap for a VC.
    pub(crate) fn clear_egress_tap(&self, vc: VcId) {
        self.state.borrow_mut().vcs.clear_egress(&vc);
    }

    /// Send an opaque control payload to the VC's peer LLO (§5's OPDU
    /// channel).
    pub(crate) fn send_vc_control(
        self: &Rc<Self>,
        vc: VcId,
        payload: Rc<dyn Any>,
    ) -> Result<(), ServiceError> {
        if self.state.borrow().vcs.resolve(vc).is_none() {
            return Err(ServiceError::UnknownVc);
        }
        // On a group VC this fans the OPDU out to every member over the
        // shared tree — the session layer's room-wide control channel.
        self.send_source_feedback(vc, ControlMsg::UserControl { vc, payload });
        Ok(())
    }

    /// Freeze the source's transmission instantly (Orch.Stop, §6.2.3).
    pub(crate) fn pause_source(self: &Rc<Self>, vc: VcId) -> Result<(), ServiceError> {
        let mut st = self.state.borrow_mut();
        let s = st
            .vcs
            .get_mut(&vc)
            .and_then(|v| v.source.as_mut())
            .ok_or(ServiceError::UnknownVc)?;
        s.clock.pause();
        if let Some(t) = &s.tick_timer {
            t.disarm();
        }
        Ok(())
    }

    /// Resume a paused source (Orch.Start, §6.2.2).
    pub(crate) fn resume_source(self: &Rc<Self>, vc: VcId) -> Result<(), ServiceError> {
        let now = self.local_now();
        {
            let mut st = self.state.borrow_mut();
            let s = st
                .vcs
                .get_mut(&vc)
                .and_then(|v| v.source.as_mut())
                .ok_or(ServiceError::UnknownVc)?;
            s.clock.resume(now);
        }
        self.ensure_tick_now(vc);
        Ok(())
    }

    /// Retune the source's pacing rate to `base × num/den` (the LLO's
    /// fine-grained regulation, §6.3.1).
    pub(crate) fn set_rate_factor(
        self: &Rc<Self>,
        vc: VcId,
        num: u64,
        den: u64,
    ) -> Result<(), ServiceError> {
        if num == 0 || den == 0 {
            return Err(ServiceError::BadArgument("zero rate factor"));
        }
        let now = self.local_now();
        {
            let mut st = self.state.borrow_mut();
            let s = st
                .vcs
                .get_mut(&vc)
                .and_then(|v| v.source.as_mut())
                .ok_or(ServiceError::UnknownVc)?;
            s.clock.set_factor(num, den, now);
        }
        self.ensure_tick_now(vc);
        Ok(())
    }

    /// Discard the oldest unsent OSDU at the source "by incrementing the
    /// source shared buffer pointer" (§6.3.1.1). The receiver is notified
    /// so the gap is not treated as loss. Returns whether anything was
    /// dropped.
    pub(crate) fn source_drop_one(self: &Rc<Self>, vc: VcId) -> Result<bool, ServiceError> {
        let now = self.now();
        let dropped = {
            let mut st = self.state.borrow_mut();
            let v = st.vcs.get_mut(&vc).ok_or(ServiceError::UnknownVc)?;
            let s = v
                .source
                .as_mut()
                .ok_or(ServiceError::WrongState("drop on sink end"))?;
            match s.send_buf.try_pop(now) {
                Some(osdu) => {
                    s.charged += 1;
                    s.dropped += 1;
                    Some(osdu.seq())
                }
                None => None,
            }
        };
        match dropped {
            Some(seq) => {
                self.send_source_feedback(
                    vc,
                    ControlMsg::Dropped {
                        vc,
                        seqs: vec![seq],
                    },
                );
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Open or close the receive-delivery gate (Orch.Prime holds data in
    /// the buffers without releasing it, §6.2.1).
    pub(crate) fn set_recv_gate(
        self: &Rc<Self>,
        vc: VcId,
        gated: bool,
    ) -> Result<(), ServiceError> {
        let now = self.now();
        let st = self.state.borrow();
        let k = st
            .vcs
            .get(&vc)
            .and_then(|v| v.sink.as_ref())
            .ok_or(ServiceError::UnknownVc)?;
        k.recv_buf.set_gated(now, gated);
        Ok(())
    }

    /// Flush this end's buffer (stop + seek, §6.2.1). At the source the
    /// flushed OSDUs are declared dropped so the receiver does not count
    /// them lost; at the sink the freed slots are credited back.
    pub(crate) fn flush_local(self: &Rc<Self>, vc: VcId) -> Result<usize, ServiceError> {
        let now = self.now();
        enum Which {
            Src { first: u64, n: usize },
            Snk { n: usize },
        }
        let which = {
            let mut st = self.state.borrow_mut();
            let v = st.vcs.get_mut(&vc).ok_or(ServiceError::UnknownVc)?;
            match v.role {
                VcRole::Source => {
                    let s = v.source.as_mut().expect("source end");
                    let n = s.send_buf.flush(now);
                    // FIFO + sequential assignment ⇒ the flushed units were
                    // exactly seqs charged..charged+n.
                    let first = s.charged;
                    s.charged += n as u64;
                    s.dropped += n as u64;
                    Which::Src { first, n }
                }
                VcRole::Sink => {
                    let k = v.sink.as_mut().expect("sink end");
                    let n = k.recv_buf.flush(now) + k.pending_delivery.len();
                    k.pending_delivery.clear();
                    // Freed without application delivery.
                    k.app_popped += n as u64;
                    Which::Snk { n }
                }
            }
        };
        match which {
            Which::Src { first, n } => {
                if n > 0 {
                    let seqs: Vec<u64> = (first..first + n as u64).collect();
                    self.send_source_feedback(vc, ControlMsg::Dropped { vc, seqs });
                }
                Ok(n)
            }
            Which::Snk { n } => {
                self.maybe_send_credit(vc);
                Ok(n)
            }
        }
    }
}

impl Vc {
    /// Slot for a tolerance received in a `RenegotiateRequest`, awaiting
    /// the local user's response.
    pub(crate) fn pending_renegotiation(&mut self) -> &mut Option<QosTolerance> {
        &mut self.pending_reneg
    }
}
