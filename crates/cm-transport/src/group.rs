//! Sender-side state and operations for 1:N group VCs.
//!
//! The paper's CM multicast "is a simple 1:N topology" (§3.1): one source
//! end drives a set of receivers over a network-layer multicast group. The
//! sending entity holds a single [`crate::vc::Vc`] in the `Source` role
//! whose [`GroupEnd`] carries the per-receiver book-keeping; each receiver
//! holds an ordinary sink end under the *same* `VcId`, so the whole data
//! path, buffering, monitoring and orchestration machinery is reused
//! unchanged.
//!
//! Heterogeneous receivers (§3.2): each joining member negotiates the
//! sender's tolerance against *its own branch* of the shared tree. A member
//! whose branch cannot meet the worst-acceptable level is denied with a
//! typed reason — without disturbing admitted receivers. Admitted members
//! may hold weaker contracts than the preferred level; the sender degrades
//! its pacing to the slowest acceptable contract in force and restores it
//! when the constraining member leaves.
//!
//! Per-receiver error control (§3.4): retransmission requests are answered
//! with a *unicast* resend to the requesting member only, so one lossy
//! branch never re-multicasts to the whole group. Credit is likewise
//! tracked per receiver; the sender paces against the slowest member.

use crate::entity::TransportEntity;
use crate::tpdu::ControlMsg;
use crate::vc::{SourceEnd, Vc, VcRole};
use cm_core::address::{AddressTriple, NetAddr, TransportAddr, Tsap, VcId};
use cm_core::error::{DisconnectReason, ServiceError};
use cm_core::qos::{GuaranteeMode, QosParams, QosRequirement};
use cm_core::service_class::{ProtocolProfile, ServiceClass};
use cm_core::time::{Bandwidth, SimTime};
use netsim::GroupId;
use std::collections::BTreeMap;
use std::rc::Rc;

/// One admitted receiver of a group VC, as seen by the sender.
pub struct GroupReceiver {
    /// The member's transport address.
    pub addr: TransportAddr,
    /// The per-receiver contract negotiated against this member's branch.
    pub contract: QosParams,
    /// The member's receive-buffer capacity (its initial credit).
    pub capacity: u64,
    /// Cumulative freed count last reported by this member.
    pub freed: u64,
    /// The sender's charged count when this member joined — its stream
    /// origin; credit is measured relative to it.
    pub base_charged: u64,
}

/// A member invited but not yet confirmed.
pub(crate) struct PendingReceiver {
    pub(crate) addr: TransportAddr,
    pub(crate) base_charged: u64,
}

/// Sender-side group state attached to the source [`Vc`].
///
/// Owns the membership maps *and* the aggregate the sender paces
/// against, so neither can change without the other: every membership
/// change goes through a method here that re-derives the aggregate, and a
/// credit report maintains it in O(1). The third part of the aggregate —
/// the contract in force — is the fold over the members' contracts that
/// `recompute_group` stores in `Vc::contract`.
pub struct GroupEnd {
    /// The network-layer multicast group carrying the data path.
    pub group: GroupId,
    /// Admitted receivers, in deterministic (node) order.
    receivers: BTreeMap<NetAddr, GroupReceiver>,
    /// Invited members awaiting their `GroupConnectResponse`.
    pending: BTreeMap<NetAddr, PendingReceiver>,
    /// Credit floor: the smallest `base_charged + freed` over `receivers`.
    floor: u64,
    /// How many receivers sit exactly on `floor` (zero only when there
    /// are none). Counting ties is what makes a report O(1): every member
    /// starts a round on the floor, and only the last one to move off it
    /// pays for a rescan.
    at_floor: usize,
    /// Smallest member capacity (`u64::MAX` with no receivers).
    min_capacity: u64,
    /// Full passes over `receivers` made to re-derive the floor (tests
    /// bound them against report counts).
    #[cfg(any(test, debug_assertions))]
    pub(crate) rescans: u64,
}

impl GroupEnd {
    fn new(group: GroupId) -> GroupEnd {
        GroupEnd {
            group,
            receivers: BTreeMap::new(),
            pending: BTreeMap::new(),
            floor: 0,
            at_floor: 0,
            min_capacity: u64::MAX,
            #[cfg(any(test, debug_assertions))]
            rescans: 0,
        }
    }

    /// Admitted receivers, in deterministic (node) order.
    pub fn receivers(&self) -> impl Iterator<Item = &GroupReceiver> {
        self.receivers.values()
    }

    /// Every member node, admitted or still invited.
    pub(crate) fn members(&self) -> impl Iterator<Item = NetAddr> + '_ {
        self.receivers.keys().chain(self.pending.keys()).copied()
    }

    /// Whether `node` is admitted or invited.
    pub(crate) fn is_member(&self, node: NetAddr) -> bool {
        self.receivers.contains_key(&node) || self.pending.contains_key(&node)
    }

    /// Record an invitation sent to `to` at stream position `base_charged`.
    pub(crate) fn invite(&mut self, to: TransportAddr, base_charged: u64) {
        self.pending.insert(
            to.node,
            PendingReceiver {
                addr: to,
                base_charged,
            },
        );
    }

    /// Withdraw the invitation of `node`, if one is outstanding.
    pub(crate) fn take_pending(&mut self, node: NetAddr) -> Option<PendingReceiver> {
        self.pending.remove(&node)
    }

    /// Admit an invited member with its negotiated contract and capacity.
    pub(crate) fn admit(&mut self, invited: PendingReceiver, contract: QosParams, capacity: u64) {
        self.receivers.insert(
            invited.addr.node,
            GroupReceiver {
                addr: invited.addr,
                contract,
                capacity,
                freed: 0,
                base_charged: invited.base_charged,
            },
        );
        self.rescan();
    }

    /// Drop `node` from the group, admitted or invited; its address if it
    /// was either.
    pub(crate) fn remove(&mut self, node: NetAddr) -> Option<TransportAddr> {
        if let Some(r) = self.receivers.remove(&node) {
            self.rescan();
            return Some(r.addr);
        }
        self.pending.remove(&node).map(|p| p.addr)
    }

    /// A credit report from `from`: `false` if it is not an admitted
    /// member. Stale and duplicate totals change nothing. No pass over
    /// the receivers unless the last member on the floor just left it.
    fn credit(&mut self, from: NetAddr, freed_total: u64) -> bool {
        let Some(r) = self.receivers.get_mut(&from) else {
            return false;
        };
        if freed_total > r.freed {
            let was_on_floor = r.base_charged + r.freed == self.floor;
            r.freed = freed_total;
            if was_on_floor {
                self.at_floor -= 1;
                if self.at_floor == 0 {
                    self.rescan();
                }
            }
        }
        true
    }

    /// The one full derivation of floor, tie count and smallest capacity.
    fn rescan(&mut self) {
        #[cfg(any(test, debug_assertions))]
        {
            self.rescans += 1;
        }
        (self.floor, self.at_floor, self.min_capacity) = self.derive_credit();
    }

    /// `(floor, members on it, smallest capacity)` from scratch.
    fn derive_credit(&self) -> (u64, usize, u64) {
        let (mut floor, mut at_floor, mut min_capacity) = (0, 0, u64::MAX);
        for r in self.receivers.values() {
            let line = r.base_charged + r.freed;
            if at_floor == 0 || line < floor {
                (floor, at_floor) = (line, 1);
            } else if line == floor {
                at_floor += 1;
            }
            min_capacity = min_capacity.min(r.capacity);
        }
        (floor, at_floor, min_capacity)
    }

    /// The slowest member's window — `(cumulative freed, capacity)`,
    /// conservative on both — or `None` with no receivers.
    fn credit_line(&self) -> Option<(u64, u64)> {
        (self.at_floor > 0).then_some((self.floor, self.min_capacity))
    }

    /// `preferred` weakened to every member's contract: the slowest
    /// acceptable level in force (§3.2).
    fn contract(&self, preferred: QosParams) -> QosParams {
        self.receivers
            .values()
            .fold(preferred, |acc, r| acc.weaken_to(&r.contract))
    }
}

impl TransportEntity {
    /// Open the sending end of a group VC at `tsap`: creates the
    /// network-layer group (reserving the worst-acceptable throughput per
    /// tree branch as members join) and arms the source machinery. The VC
    /// starts with no receivers; data written before any member joins is
    /// paced out normally and simply fans out to nobody.
    pub(crate) fn t_group_open(
        self: &Rc<Self>,
        tsap: Tsap,
        class: ServiceClass,
        requirement: QosRequirement,
    ) -> Result<VcId, ServiceError> {
        if !requirement.tolerance.is_well_formed() {
            return Err(ServiceError::BadArgument(
                "preferred QoS weaker than worst-acceptable",
            ));
        }
        if class.profile != ProtocolProfile::RateBasedCm {
            return Err(ServiceError::BadArgument(
                "group VCs support the rate-based CM profile only",
            ));
        }
        if !self.state.borrow().users.contains_key(&tsap) {
            return Err(ServiceError::TsapUnbound);
        }
        let vc = self.alloc_vc();
        let reserve = if requirement.guarantee == GuaranteeMode::BestEffort {
            Bandwidth::ZERO
        } else {
            requirement.tolerance.worst.throughput
        };
        let group = self.net.create_group(self.node, reserve);
        let me = TransportAddr {
            node: self.node,
            tsap,
        };
        let slots = self.buffer_slots(&requirement);
        let mut clock = crate::rate::RateClock::new(requirement.osdu_rate);
        clock.start(self.local_now());
        let source = SourceEnd {
            send_buf: crate::buffer::BufferHandle::new(slots),
            clock,
            gbn: None,
            pending_frags: std::collections::VecDeque::new(),
            next_write_seq: 0,
            charged: 0,
            freed_remote: 0,
            // No receivers yet: credit never gates; recomputed per join.
            recv_capacity: u64::MAX,
            dropped: 0,
            sent: 0,
            retrans_cache: std::collections::VecDeque::new(),
            retrans_cache_cap: slots * 4,
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
            triple: AddressTriple {
                initiator: me,
                source: me,
                destination: me,
            },
            class,
            requirement,
            contract: requirement.tolerance.preferred,
            role: VcRole::Source,
            peer_node: self.node,
            local_tsap: tsap,
            source: Some(source),
            sink: None,
            group: Some(GroupEnd::new(group)),
            pending_reneg: None,
        };
        let h = self.state.borrow_mut().vcs.insert(vc, v);
        self.attach_source_timers(h);
        // The empty group's derivation: registers the preferred contract
        // with the auditor and arms the first tick.
        self.recompute_group(vc);
        Ok(vc)
    }

    /// Invite `to` into group VC `vc`. Synchronous errors cover only
    /// misuse; admission outcomes — branch QoS below the acceptable floor,
    /// reservation denial, unreachable member, the member's own refusal —
    /// arrive through `t_group_join_confirm` with a typed reason, leaving
    /// admitted receivers untouched.
    pub(crate) fn t_group_add_receiver(
        self: &Rc<Self>,
        vc: VcId,
        to: TransportAddr,
    ) -> Result<(), ServiceError> {
        let (group, class, requirement, local_tsap, start_seq) = {
            let st = self.state.borrow();
            let v = st.vcs.get(&vc).ok_or(ServiceError::UnknownVc)?;
            let ge = v
                .group
                .as_ref()
                .ok_or(ServiceError::WrongState("not a group VC"))?;
            if to.node == self.node {
                return Err(ServiceError::BadArgument(
                    "the sending node cannot be a group receiver",
                ));
            }
            if ge.is_member(to.node) {
                return Err(ServiceError::WrongState("node already in the group"));
            }
            let s = v.source.as_ref().expect("group source end");
            (ge.group, v.class, v.requirement, v.local_tsap, s.charged)
        };
        let deny = |reason: DisconnectReason| {
            self.to_user(local_tsap, move |svc, u| {
                u.t_group_join_confirm(svc, vc, to, Err(reason))
            });
        };
        // Per-receiver negotiation against this member's branch of the
        // shared tree (§3.2 heterogeneous tolerance levels).
        let Some(achievable) = self.net.group_path_qos(group, to.node, self.config.mtu) else {
            deny(DisconnectReason::Unreachable);
            return Ok(());
        };
        let agreed = match requirement.tolerance.negotiate(&achievable) {
            Ok(a) => a,
            Err(violations) => {
                deny(DisconnectReason::from_violations(&violations));
                return Ok(());
            }
        };
        // Graft the branch: reserves only the links the new member adds.
        match self.net.group_join(group, to.node) {
            None => {
                deny(DisconnectReason::Unreachable);
                return Ok(());
            }
            Some(Err(_)) => {
                deny(DisconnectReason::AdmissionDenied);
                return Ok(());
            }
            Some(Ok(())) => {}
        }
        {
            let mut st = self.state.borrow_mut();
            if let Some(ge) = st.vcs.get_mut(&vc).and_then(|v| v.group.as_mut()) {
                ge.invite(to, start_seq);
            }
        }
        let me = TransportAddr {
            node: self.node,
            tsap: local_tsap,
        };
        self.send_control(
            to.node,
            ControlMsg::GroupConnectRequest {
                vc,
                group,
                triple: AddressTriple {
                    initiator: me,
                    source: me,
                    destination: to,
                },
                class,
                requirement,
                agreed,
                start_seq,
            },
        );
        Ok(())
    }

    /// The invited member's answer arrived at the sender.
    pub(crate) fn on_group_connect_response(
        self: &Rc<Self>,
        vc: VcId,
        member: TransportAddr,
        result: Result<(QosParams, u32), DisconnectReason>,
    ) {
        let (group, local_tsap) = {
            let mut st = self.state.borrow_mut();
            let Some(v) = st.vcs.get_mut(&vc) else { return };
            let tsap = v.local_tsap;
            let Some(ge) = v.group.as_mut() else { return };
            let Some(invited) = ge.take_pending(member.node) else {
                return;
            };
            if let Ok((agreed, capacity)) = result {
                ge.admit(invited, agreed, capacity as u64);
            }
            (ge.group, tsap)
        };
        match result {
            Ok((agreed, _)) => {
                self.recompute_group(vc);
                self.to_user(local_tsap, move |svc, u| {
                    u.t_group_join_confirm(svc, vc, member, Ok(agreed))
                });
            }
            Err(reason) => {
                // Roll the branch reservation back.
                self.net.group_leave(group, member.node);
                self.to_user(local_tsap, move |svc, u| {
                    u.t_group_join_confirm(svc, vc, member, Err(reason))
                });
            }
        }
    }

    /// A member released its end (receiver-initiated leave): prune its
    /// branch, restore the group contract, tell the sending user.
    pub(crate) fn group_member_left(
        self: &Rc<Self>,
        vc: VcId,
        member: NetAddr,
        reason: DisconnectReason,
    ) {
        let (gone, group, local_tsap) = {
            let mut st = self.state.borrow_mut();
            let Some(v) = st.vcs.get_mut(&vc) else { return };
            let tsap = v.local_tsap;
            let Some(ge) = v.group.as_mut() else { return };
            (ge.remove(member), ge.group, tsap)
        };
        let Some(addr) = gone else { return };
        self.net.group_leave(group, member);
        self.recompute_group(vc);
        self.to_user(local_tsap, move |svc, u| {
            u.t_group_leave_indication(svc, vc, addr, reason)
        });
    }

    /// Sender-initiated removal of a member.
    pub(crate) fn t_group_remove_receiver(
        self: &Rc<Self>,
        vc: VcId,
        member: NetAddr,
    ) -> Result<(), ServiceError> {
        let group = {
            let mut st = self.state.borrow_mut();
            let v = st.vcs.get_mut(&vc).ok_or(ServiceError::UnknownVc)?;
            let ge = v
                .group
                .as_mut()
                .ok_or(ServiceError::WrongState("not a group VC"))?;
            ge.remove(member)
                .ok_or(ServiceError::BadArgument("node is not a group member"))?;
            ge.group
        };
        self.send_control(
            member,
            ControlMsg::Disconnect {
                vc,
                reason: DisconnectReason::UserRelease,
                notify: None,
            },
        );
        self.net.group_leave(group, member);
        self.recompute_group(vc);
        Ok(())
    }

    /// Close the whole group VC: release every member, the shared-tree
    /// reservations and the local source end.
    pub(crate) fn t_group_close(self: &Rc<Self>, vc: VcId) -> Result<(), ServiceError> {
        let (group, members) = {
            let st = self.state.borrow();
            let v = st.vcs.get(&vc).ok_or(ServiceError::UnknownVc)?;
            let ge = v
                .group
                .as_ref()
                .ok_or(ServiceError::WrongState("not a group VC"))?;
            (ge.group, ge.members().collect::<Vec<_>>())
        };
        for m in members {
            self.send_control(
                m,
                ControlMsg::Disconnect {
                    vc,
                    reason: DisconnectReason::UserRelease,
                    notify: None,
                },
            );
        }
        self.net.group_release(group);
        self.teardown_local(vc, DisconnectReason::UserRelease, false);
        Ok(())
    }

    /// A per-receiver credit report arrived: update the member and the
    /// group aggregate — O(1) in the group size — then run the same tail a
    /// full derivation ends in. The tail is not skipped when the report
    /// changed nothing: `set_factor` rebases the pacing clock and the
    /// re-arm takes a fresh sequence number, so both are part of the
    /// same-instant firing order.
    pub(crate) fn on_group_credit(self: &Rc<Self>, vc: VcId, from: NetAddr, freed_total: u64) {
        let local = self.local_now();
        let resume = {
            let mut st = self.state.borrow_mut();
            let Some(v) = st.vcs.get_mut(&vc) else { return };
            let Some(ge) = v.group.as_mut() else { return };
            if !ge.credit(from, freed_total) {
                return;
            }
            debug_assert_eq!((ge.floor, ge.at_floor, ge.min_capacity), ge.derive_credit());
            debug_assert_eq!(v.contract, ge.contract(v.requirement.tolerance.preferred));
            apply_aggregate(v, local)
        };
        self.resume_or_rearm(vc, resume);
    }

    /// The one full derivation of the group-wide contract, called exactly
    /// where membership — and with it some member's contract — changes
    /// (open, join confirm, member left, remove receiver, heal prune):
    ///
    /// - contract = the preferred level weakened to every member's
    ///   contract (the slowest acceptable level in force, §3.2);
    /// - credit = the slowest member's window (conservative: smallest
    ///   capacity, smallest cumulative freed), kept by [`GroupEnd`];
    /// - pacing = base rate × contracted/preferred throughput.
    pub(crate) fn recompute_group(self: &Rc<Self>, vc: VcId) {
        let local = self.local_now();
        let resume = {
            let mut st = self.state.borrow_mut();
            let Some(v) = st.vcs.get_mut(&vc) else { return };
            let Some(ge) = v.group.as_ref() else { return };
            let contract = ge.contract(v.requirement.tolerance.preferred);
            v.contract = contract;
            // The audited deadline follows the contract in force: joins
            // may weaken it, leaves restore it.
            if self.obs.enabled() {
                self.obs.set_contract(
                    vc.0,
                    contract.delay.as_micros(),
                    contract.packet_error_rate.as_ppb() / 1_000,
                );
            }
            apply_aggregate(v, local)
        };
        self.resume_or_rearm(vc, resume);
    }

    fn resume_or_rearm(self: &Rc<Self>, vc: VcId, resume: bool) {
        if resume {
            self.source_tick(vc);
        } else {
            self.ensure_tick_now(vc);
        }
    }
}

/// Push the group aggregate into the source end — the credit line and the
/// pacing factor of the contract in force. Returns whether a credit stall
/// just cleared (the caller then ticks instead of re-arming).
fn apply_aggregate(v: &mut Vc, local: SimTime) -> bool {
    let credit = v.group.as_ref().and_then(GroupEnd::credit_line);
    let s = v.source.as_mut().expect("group source end");
    match credit {
        Some((freed, cap)) => {
            s.freed_remote = freed;
            s.recv_capacity = cap;
        }
        None => {
            s.freed_remote = s.charged;
            s.recv_capacity = u64::MAX;
        }
    }
    let num = v.contract.throughput.as_bps();
    let den = v.requirement.tolerance.preferred.throughput.as_bps();
    if num > 0 && den > 0 {
        s.clock.set_factor(num.min(den), den, local);
    } else {
        s.clock.set_factor(1, 1, local);
    }
    let resume = s.stalled_credit && s.has_credit();
    if resume {
        s.stalled_credit = false;
    }
    resume
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_core::qos::ErrorRate;
    use cm_core::time::SimDuration;
    use proptest::prelude::*;

    /// Member nodes are drawn from `0..NODES`; reports also come from the
    /// two ids above, which never join.
    const NODES: u64 = 6;

    fn addr(node: u64) -> TransportAddr {
        TransportAddr {
            node: NetAddr(node as u32),
            tsap: Tsap(2),
        }
    }

    /// Level 0 is the preferred contract; higher levels are weaker on
    /// throughput and delay, and odd levels also on loss — so the fold is
    /// not decided by one member alone.
    fn level(l: u64) -> QosParams {
        QosParams {
            throughput: Bandwidth::kbps(1_000 - 100 * l),
            delay: SimDuration::from_millis(10 * (l + 1)),
            jitter: SimDuration::from_millis(5),
            packet_error_rate: ErrorRate::from_prob(0.01 * (1 + l % 2) as f64),
            bit_error_rate: ErrorRate::ZERO,
        }
    }

    /// The aggregate from scratch, written without `derive_credit`.
    fn brute_credit(ge: &GroupEnd) -> (Option<(u64, u64)>, usize) {
        let lines: Vec<u64> = ge.receivers().map(|r| r.base_charged + r.freed).collect();
        let floor = lines.iter().copied().min();
        let line = floor.map(|f| {
            let cap = ge.receivers().map(|r| r.capacity).min().expect("non-empty");
            (f, cap)
        });
        let ties = lines.iter().filter(|&&l| Some(l) == floor).count();
        (line, ties)
    }

    fn brute_contract(ge: &GroupEnd) -> QosParams {
        let mut c = level(0);
        for r in ge.receivers() {
            c = c.weaken_to(&r.contract);
        }
        c
    }

    proptest! {
        /// One `GroupEnd` under random interleavings of the four
        /// membership paths and credit reports — advancing, duplicate,
        /// stale, and from non-members. After every step the maintained
        /// floor, tie count and smallest capacity equal a brute-force
        /// fold, and after every membership change so does the contract
        /// `recompute_group` would store.
        #[test]
        fn group_aggregate_matches_brute_force(
            ops in proptest::collection::vec((0u8..10, 0u64..NODES + 2, any::<u64>()), 1..200)
        ) {
            let mut ge = GroupEnd::new(GroupId(1));
            let mut charged = 0u64;
            let mut contract = level(0);
            for (kind, node, x) in ops {
                let n = NetAddr(node as u32);
                let mut membership_changed = true;
                match kind {
                    // Invitation only: the member stays pending.
                    0 if node < NODES && !ge.is_member(n) => ge.invite(addr(node), charged),
                    // Join confirm (inviting first if need be).
                    1 | 2 if node < NODES && !ge.receivers.contains_key(&n) => {
                        if !ge.is_member(n) {
                            ge.invite(addr(node), charged);
                        }
                        let invited = ge.take_pending(n).expect("just invited");
                        ge.admit(invited, level(x % 4), 1 + x % 8);
                    }
                    // Refused join: the invitation is withdrawn.
                    3 => drop(ge.take_pending(n)),
                    // Member left / remove receiver: one node, admitted
                    // or pending.
                    4 => drop(ge.remove(n)),
                    // Heal prune: several members lost in one probe, one
                    // contract derivation after the last.
                    5 => {
                        for k in 0..1 + x % 3 {
                            ge.remove(NetAddr(((node + k) % NODES) as u32));
                            prop_assert_eq!(ge.credit_line(), brute_credit(&ge).0);
                        }
                    }
                    // A credit report; the sender has charged on since.
                    _ => {
                        membership_changed = false;
                        charged += x % 3;
                        let known = ge.receivers.get(&n).map(|r| r.freed);
                        let total = match (known, x % 4) {
                            (Some(f), 0) => f,                  // duplicate
                            (Some(f), 1) => (x >> 8) % (f + 1), // stale
                            (Some(f), _) => f + (x >> 8) % 3,   // 0..2 ahead
                            (None, _) => x >> 8,                // non-member
                        };
                        prop_assert_eq!(ge.credit(n, total), known.is_some());
                        if let Some(f) = known {
                            prop_assert_eq!(ge.receivers[&n].freed, f.max(total));
                        }
                    }
                }
                if membership_changed {
                    contract = ge.contract(level(0));
                }
                let (line, ties) = brute_credit(&ge);
                prop_assert_eq!(ge.credit_line(), line);
                prop_assert_eq!(ge.at_floor, ties);
                prop_assert_eq!(contract, brute_contract(&ge));
            }
        }
    }

    #[test]
    fn a_round_of_reports_rescans_once() {
        let mut ge = GroupEnd::new(GroupId(1));
        for node in 0..64 {
            ge.invite(addr(node), 0);
            let invited = ge.take_pending(NetAddr(node as u32)).expect("invited");
            ge.admit(invited, level(0), 8);
        }
        let joined = ge.rescans;
        for round in 1..=10u64 {
            for node in 0..64 {
                // Every member but the last to report leaves the floor
                // where it is; the credit line moves once per round.
                assert_eq!(ge.credit_line(), Some((round - 1, 8)));
                assert!(ge.credit(NetAddr(node), round));
            }
            assert_eq!(ge.credit_line(), Some((round, 8)));
        }
        assert_eq!(ge.rescans - joined, 10);
    }
}
