//! Transport-layer self-healing (DESIGN.md §9).
//!
//! A CM connection rides on state in the network — a route and, for
//! guaranteed VCs, a bandwidth reservation — that faults can destroy out
//! from under it: links flap, nodes crash, partitions form, reservations
//! get revoked by management action. The transport entity detects the
//! resulting symptoms at the *source* end (the end that owns the pacing
//! machinery and the reservation) and runs a bounded repair loop:
//!
//! | signal (detection)                       | reason    |
//! |------------------------------------------|-----------|
//! | credit stall persisting past patience    | `Stall`   |
//! | N consecutive RTOs without progress      | `Rto`     |
//! | zero-throughput QoS report w/ violations | `Starved` |
//! | out-of-band revocation indication        | `Revoked` |
//!
//! Each signal arms a per-VC probe timer. When it fires the probe checks
//! the infrastructure: is there a live route to the peer, and is the
//! reservation intact (held, and charging only live links)? Broken
//! infrastructure is repaired — release + re-admit on the current route
//! for unicast VCs, [`netsim::Network::group_refresh`] for multicast
//! trees (detour grafts, unreachable-member pruning, revoked-reservation
//! re-admission). Repairs that fail (no route yet, admission denied) back
//! off exponentially up to a cap; after `heal_max_attempts` consecutive
//! failures the VC is torn down with `DisconnectReason::Unreachable` so
//! the layers above see a typed member loss instead of a silent wedge.
//!
//! **Unsticking.** Repairing the path is not enough for the rate profile:
//! OSDUs lost in flight are never freed by the sink, so the source's
//! credit view stays exhausted forever. Once the infrastructure is sound
//! again the probe *unsticks* the source — retransmits the cached suffix
//! of unacknowledged OSDUs, declares the uncached prefix `Dropped` (the
//! sink frees those slots without counting them lost twice), and sends a
//! [`ControlMsg::CreditProbe`] so the sink re-advertises its cumulative
//! freed total even if its last `Credit` message died on the dead path.
//! The window profile needs none of this: go-back-N retransmission is
//! self-healing once the route is back.
//!
//! A plain credit stall is *normal backpressure* (a slow application),
//! not a fault — and so is the zero-throughput QoS report it produces.
//! Corrective actions therefore require the episode to have *observed*
//! broken infrastructure on some probe; a triggering signal alone ends
//! quietly when every probe finds the path healthy, leaving fault-free
//! runs untouched. (The price: a fault that both begins and fully heals
//! between two probes, taking the sink's last `Credit` report with it,
//! is not detected — bounded by `heal_patience`.)

use crate::entity::TransportEntity;
use crate::service::EntityConfig;
use crate::tpdu::ControlMsg;
use cm_core::address::{NetAddr, VcId};
use cm_core::error::DisconnectReason;
use cm_core::osdu::Osdu;
use cm_core::qos::GuaranteeMode;
use cm_core::slab::SlabHandle;
use cm_core::time::{Bandwidth, SimDuration, SimTime};
use cm_telemetry::Layer;
use netsim::{GroupId, PeriodicTimer};
use std::rc::Rc;

/// Why a healing episode was opened (telemetry + evidence weighting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealReason {
    /// Credit stall persisted past the patience window.
    Stall,
    /// Consecutive RTO firings without window progress.
    Rto,
    /// The sink reported a monitoring period with zero throughput and
    /// contract violations.
    Starved,
    /// The network (or a chaos controller) revoked the reservation.
    Revoked,
}

impl HealReason {
    fn kind(self) -> &'static str {
        match self {
            HealReason::Stall => "stall",
            HealReason::Rto => "rto",
            HealReason::Starved => "starved",
            HealReason::Revoked => "revoked",
        }
    }
}

/// Per-VC healing state. Lives in the VC's slab entry for the life of
/// the VC (episodes come and go; the lifetime counters persist).
pub(crate) struct HealState {
    /// Probe timer (holds a `Weak` back-reference; cancelled when the
    /// entry is released).
    timer: PeriodicTimer,
    /// An episode is open: the timer is armed or a probe is imminent.
    active: bool,
    /// The signal that opened the current episode.
    reason: HealReason,
    /// The episode has observed actual broken infrastructure on some
    /// probe. Gate for the corrective actions that would be wrong during
    /// ordinary backpressure (see module doc) — a triggering signal alone
    /// is never enough: a zero-throughput report or a stall also occurs
    /// when the application simply stops reading.
    saw_fault: bool,
    /// When the current episode's signal was first raised — recovery time
    /// is measured from here.
    since: SimTime,
    /// Probe attempts in the current episode (bounds the repair loop).
    tries: u32,
    /// Next re-arm delay after a failed attempt.
    backoff: cm_core::time::SimDuration,
    /// Lifetime repair attempts (probes that took action).
    attempts: u64,
    /// Lifetime successful repairs.
    repairs: u64,
}

impl HealState {
    /// Healing state around `timer`, no episode open yet.
    fn new(timer: PeriodicTimer, reason: HealReason, now: SimTime, patience: SimDuration) -> Self {
        HealState {
            timer,
            active: false,
            reason,
            saw_fault: false,
            since: now,
            tries: 0,
            backoff: patience,
            attempts: 0,
            repairs: 0,
        }
    }

    /// Open an episode for `reason` unless one is running: the first
    /// probe fires after `patience`.
    fn open(&mut self, reason: HealReason, now: SimTime, patience: SimDuration) {
        if self.active {
            return;
        }
        self.active = true;
        self.reason = reason;
        self.saw_fault = false;
        self.since = now;
        self.tries = 0;
        self.backoff = patience;
        self.timer.arm_at(now + patience);
    }

    /// Spend one try of the episode and schedule the next probe: after a
    /// `failed` repair attempt with exponential backoff up to the cap,
    /// otherwise (a repair that left the source stalled) at patience
    /// cadence. Once the try budget is spent the episode closes instead
    /// and the answer is `true`: give up — so a truly dead path or sink
    /// still converges.
    fn retry(&mut self, now: SimTime, failed: bool, cfg: &EntityConfig) -> bool {
        if failed {
            self.attempts += 1;
        }
        self.tries += 1;
        if self.tries >= cfg.heal_max_attempts {
            self.active = false;
            return true;
        }
        if failed {
            self.timer.arm_at(now + self.backoff);
            self.backoff = self.backoff.saturating_mul(2).min(cfg.heal_backoff_cap);
        } else {
            self.timer.arm_at(now + cfg.heal_patience);
        }
        false
    }

    /// Close the episode: the signal cleared (or was never a fault).
    fn close(&mut self) {
        self.active = false;
        self.timer.disarm();
    }
}

impl TransportEntity {
    // ------------------------------------------------------------------
    // Detection entry points
    // ------------------------------------------------------------------

    /// Open (or reinforce) a healing episode for the VC behind `h`. No-op
    /// unless it is an open source end — repair is the sender's job.
    pub(crate) fn heal_kick(self: &Rc<Self>, h: SlabHandle, reason: HealReason) {
        let now = self.now();
        let patience = self.config.heal_patience;
        let mut st = self.state.borrow_mut();
        let Some(e) = st.vcs.at_mut(h).filter(|e| e.vc.source.is_some()) else {
            return;
        };
        let hs = e.heal.get_or_insert_with(|| {
            let weak = Rc::downgrade(self);
            let timer = PeriodicTimer::new(self.net.engine(), move |_| {
                if let Some(me) = weak.upgrade() {
                    me.heal_fire(h);
                }
            });
            HealState::new(timer, reason, now, patience)
        });
        hs.open(reason, now, patience);
    }

    /// Lifetime `(attempts, repairs)` counters for `vc`'s healing state.
    pub(crate) fn heal_stats(&self, vc: VcId) -> (u64, u64) {
        let st = self.state.borrow();
        let h = st.vcs.resolve(vc);
        h.and_then(|h| st.vcs.at(h)?.heal.as_ref())
            .map(|hs| (hs.attempts, hs.repairs))
            .unwrap_or((0, 0))
    }

    // ------------------------------------------------------------------
    // The probe
    // ------------------------------------------------------------------

    fn heal_fire(self: &Rc<Self>, h: SlabHandle) {
        let now = self.now();
        let node_up = self.net.is_node_up(self.node);
        enum Probe {
            Unicast {
                vc: VcId,
                peer: NetAddr,
                reserved: Option<Bandwidth>,
            },
            Group(GroupId),
        }
        let (probe, stalled) = {
            let st = self.state.borrow();
            // The probe timer lives in the entry: a released VC never
            // gets here, and only source ends are ever kicked.
            let Some(e) = st.vcs.at(h) else { return };
            if !node_up {
                // A crashed node must not diagnose (and tear down!) its
                // own VCs; hold the episode until the node itself is back.
                if let Some(hs) = e.heal.as_ref().filter(|hs| hs.active) {
                    hs.timer.arm_at(now + self.config.heal_backoff_cap);
                }
                return;
            }
            let v = &e.vc;
            let Some(s) = v.source.as_ref() else { return };
            let probe = match &v.group {
                Some(ge) => Probe::Group(ge.group),
                None => Probe::Unicast {
                    vc: v.id,
                    peer: v.peer_node,
                    reserved: (v.requirement.guarantee != GuaranteeMode::BestEffort)
                        .then_some(v.contract.throughput),
                },
            };
            (probe, s.stalled_credit)
        };
        match probe {
            Probe::Unicast { vc, peer, reserved } => {
                self.probe_unicast(h, vc, peer, reserved, stalled, now)
            }
            Probe::Group(group) => self.probe_group(h, group, stalled, now),
        }
    }

    /// Probe + repair a point-to-point source end (the reroute path);
    /// `reserved` is the throughput a guaranteed VC holds on its path.
    fn probe_unicast(
        self: &Rc<Self>,
        h: SlabHandle,
        vc: VcId,
        peer: NetAddr,
        reserved: Option<Bandwidth>,
        stalled: bool,
        now: SimTime,
    ) {
        let route_ok = self.net.route(self.node, peer).is_some();
        let resv = reserved.and_then(|_| self.net.reservation_intact(vc));
        let resv_broken = reserved.is_some() && !matches!(resv, Some(true));
        if !route_ok || resv_broken {
            self.heal_note_fault(h);
        }
        if !route_ok {
            return self.heal_retry(h, now, true);
        }
        if let (true, Some(bandwidth)) = (resv_broken, reserved) {
            if resv == Some(false) {
                // Held, but charging a dead link: move it to the detour.
                self.net.release_reservation(vc);
            }
            if !matches!(
                self.net.reserve_path(vc, self.node, peer, bandwidth),
                Some(Ok(()))
            ) {
                return self.heal_retry(h, now, true);
            }
        }
        self.heal_settle(h, now, stalled, resv_broken.then_some("vc.reroute"), |_| {});
    }

    /// Probe + repair a group source end (the regraft path).
    fn probe_group(self: &Rc<Self>, h: SlabHandle, group: GroupId, stalled: bool, now: SimTime) {
        let refresh = match self.net.group_refresh(group) {
            Err(_) => {
                // A detour branch exists but was denied admission — the
                // tree cannot be healed yet.
                self.heal_note_fault(h);
                return self.heal_retry(h, now, true);
            }
            Ok(r) => r,
        };
        let (added, removed) = (refresh.links_added, refresh.links_removed);
        let acted = added > 0 || removed > 0 || !refresh.unreachable.is_empty();
        if acted {
            self.heal_note_fault(h);
        }
        // Members with no live path any more left the tree: prune their
        // sender-side state and surface a typed leave.
        let lost = refresh.unreachable.len();
        for member in refresh.unreachable {
            let (vc, gone, tsap) = {
                let mut st = self.state.borrow_mut();
                let Some(v) = st.vcs.at_mut(h).map(|e| &mut e.vc) else {
                    return;
                };
                let (vc, tsap) = (v.id, v.local_tsap);
                let Some(ge) = v.group.as_mut() else { return };
                (vc, ge.remove(member), tsap)
            };
            if let Some(addr) = gone {
                self.to_user(tsap, move |svc, u| {
                    u.t_group_leave_indication(svc, vc, addr, DisconnectReason::Unreachable)
                });
            }
        }
        if lost > 0 {
            // Credit floor and pacing re-derive from the surviving set.
            self.recompute_group(h);
        }
        let regraft = acted.then_some("mcast.regraft");
        self.heal_settle(h, now, stalled, regraft, |vc| {
            if self.tel.enabled() {
                self.tel
                    .instant(now, Layer::Transport, "mcast.regraft.detail", |e| {
                        e.u64("vc", vc)
                            .u64("group", group.0 as u64)
                            .u64("links_added", added as u64)
                            .u64("links_removed", removed as u64)
                            .u64("members_lost", lost as u64);
                    });
            }
        });
    }

    // ------------------------------------------------------------------
    // Episode bookkeeping
    // ------------------------------------------------------------------

    /// The tail every probe ends in once the network side is dealt with.
    /// A stalled source is unstuck when this probe repaired the path
    /// (`repair` names the headline event) or the episode saw a fault
    /// earlier — a plain stall is backpressure, not a wedge — and a window
    /// source's strike counter restarts on the same evidence. A repair of
    /// the path or of the wedge is counted, `detail` adding to a path
    /// repair's event. A stall that persists after a fault re-probes;
    /// anything else ends the episode.
    fn heal_settle(
        self: &Rc<Self>,
        h: SlabHandle,
        now: SimTime,
        stalled: bool,
        repair: Option<&'static str>,
        detail: impl FnOnce(u64),
    ) {
        let acted = repair.is_some();
        let (vc, saw_fault) = {
            let mut st = self.state.borrow_mut();
            let Some(e) = st.vcs.at_mut(h) else { return };
            let saw_fault = e.heal.as_ref().is_some_and(|hs| hs.saw_fault);
            if acted || saw_fault {
                // Nudge the window machinery: go-back-N's own
                // retransmission drives recovery over the repaired path.
                if let Some(s) = e.vc.source.as_mut().filter(|s| s.gbn.is_some()) {
                    s.rto_strikes = 0;
                }
            }
            (e.vc.id, saw_fault)
        };
        let unstuck = stalled && (acted || saw_fault) && self.unstick_source(h);
        if acted || unstuck {
            self.heal_repaired(h, now, repair);
            if acted {
                detail(vc.0);
            }
        }
        let still_stalled = {
            let st = self.state.borrow();
            let s = st.vcs.at(h).and_then(|e| e.vc.source.as_ref());
            s.is_some_and(|s| s.stalled_credit)
        };
        if still_stalled && saw_fault {
            self.heal_retry(h, now, false);
        } else {
            self.heal_end(h);
        }
    }

    /// The probe observed broken infrastructure: from here on the episode
    /// may take corrective actions that would be wrong for plain
    /// backpressure.
    fn heal_note_fault(&self, h: SlabHandle) {
        let mut st = self.state.borrow_mut();
        if let Some(hs) = st.vcs.at_mut(h).and_then(|e| e.heal.as_mut()) {
            hs.saw_fault = true;
        }
    }

    /// Schedule the episode's next probe (see [`HealState::retry`]), or
    /// give up: the path never came back, so surface it as a typed
    /// disconnect instead of a silent forever-wedge.
    fn heal_retry(self: &Rc<Self>, h: SlabHandle, now: SimTime, failed: bool) {
        let give_up = {
            let mut st = self.state.borrow_mut();
            let Some(e) = st.vcs.at_mut(h) else { return };
            let Some(hs) = e.heal.as_mut() else { return };
            hs.retry(now, failed, &self.config).then_some(e.vc.id)
        };
        let Some(vc) = give_up else { return };
        if self.tel.enabled() {
            self.tel.count("vc.heal.giveup", 1);
            self.tel
                .instant(now, Layer::Transport, "vc.heal.giveup", |e| {
                    e.u64("vc", vc.0);
                });
        }
        self.teardown_local(vc, DisconnectReason::Unreachable, true);
    }

    /// A probe repaired something. `event` names the headline telemetry
    /// event (`vc.reroute` / `mcast.regraft`) when the repair touched
    /// network state; a bare unstick counts but stays quiet.
    fn heal_repaired(&self, h: SlabHandle, now: SimTime, event: Option<&'static str>) {
        let (vc, reason, since, tries) = {
            let mut st = self.state.borrow_mut();
            let Some(e) = st.vcs.at_mut(h) else { return };
            let Some(hs) = e.heal.as_mut() else { return };
            hs.attempts += 1;
            hs.repairs += 1;
            (e.vc.id, hs.reason, hs.since, hs.tries)
        };
        if !self.tel.enabled() {
            return;
        }
        let dur = now.saturating_since(since);
        self.tel.record_duration("vc.heal.repair_us", dur);
        if let Some(name) = event {
            self.tel.count(name, 1);
            self.tel.instant(now, Layer::Transport, name, |e| {
                e.u64("vc", vc.0)
                    .str("reason", reason.kind())
                    .u64("tries", tries as u64)
                    .u64("repair_us", dur.as_micros());
            });
        }
    }

    /// Close the episode and let the RTO strike detector re-arm from zero.
    fn heal_end(&self, h: SlabHandle) {
        let mut st = self.state.borrow_mut();
        let Some(e) = st.vcs.at_mut(h) else { return };
        if let Some(hs) = e.heal.as_mut() {
            hs.close();
        }
        if let Some(s) = e.vc.source.as_mut() {
            s.rto_strikes = 0;
        }
    }

    // ------------------------------------------------------------------
    // Repair actions
    // ------------------------------------------------------------------

    /// Clear a credit wedge on a rate-profile source whose in-flight
    /// OSDUs died with the old path: retransmit the cached suffix,
    /// declare the uncached prefix dropped, and ask the sink to
    /// re-advertise its cumulative credit. Every step is idempotent at
    /// the sink (duplicate data, repeated drop notices and repeated
    /// credit reports are all absorbed), so repeated unsticks are safe.
    /// Returns whether anything was sent.
    fn unstick_source(&self, h: SlabHandle) -> bool {
        let (vc, resend, dropped) = {
            let st = self.state.borrow();
            let Some(e) = st.vcs.at(h) else { return false };
            let Some(s) = e.vc.source.as_ref() else {
                return false;
            };
            // The window profile recovers through go-back-N itself.
            if !s.stalled_credit || s.gbn.is_some() {
                return false;
            }
            let resend: Vec<Osdu> = s
                .retrans_cache
                .iter()
                .filter(|o| o.seq() >= s.freed_remote)
                .cloned()
                .collect();
            // FIFO cache with ascending seqs: everything below the first
            // cached survivor is unrecoverable — declare it dropped so the
            // sink frees the slots instead of waiting forever.
            let cover_from = resend.first().map(|o| o.seq()).unwrap_or(s.charged);
            let dropped: Vec<u64> = (s.freed_remote..cover_from).collect();
            (e.vc.id, resend, dropped)
        };
        for osdu in resend {
            self.transmit_osdu(h, osdu, true, None);
        }
        if !dropped.is_empty() {
            self.send_source_feedback(h, ControlMsg::Dropped { vc, seqs: dropped });
        }
        self.send_source_feedback(h, ControlMsg::CreditProbe { vc });
        if self.tel.enabled() {
            self.tel.count("vc.heal.unstick", 1);
        }
        true
    }
}
