//! Sharded city executor: one zone per engine, zones joined by
//! wide-area envelopes under the `cm-cluster` barrier protocol.
//!
//! Each zone is a full private stack — engine, star network
//! (hub, `nodes_per_zone` leaves, and a relay leaf when there are other
//! zones — see `ZonePlan::leaves_per_zone`), platform, session —
//! replaying its slice of a [`ZonePlan`]. Cross-zone rooms keep their
//! real room in the home zone; an egress tap on the published VC
//! captures each OSDU at its write call and forwards it as [`CityWire`]
//! envelopes, **one per guest zone per OSDU**, and each guest zone
//! re-publishes it into a local mirror room. Inter-zone bytes are
//! therefore flat in membership: the tap fans out per zone, the mirror
//! fans out per member. Capturing at the source (rather than joining a
//! relay *member* that rides the full local packet path once per OSDU)
//! keeps the sharding tax flat: a cross-zone stream costs the home zone
//! zero extra engine events beyond the envelopes themselves.
//!
//! Determinism: the logical partition is part of the workload
//! (`CityConfig::zones`), never of the execution, so the same seeded
//! config produces byte-identical per-zone telemetry — and a
//! byte-identical [`merge_jsonl`] stream — for any worker-thread count.
//!
//! The flat city ([`crate::city_run`]) is this executor's one-zone case:
//! zone 0 of a `zones: 1` plan, drained on the calling thread. There is
//! one replay interpreter, so the two worlds cannot drift apart.

use crate::city_run::CityStats;
use cm_cluster::{run_cluster, ClusterConfig, Envelope, LookaheadMatrix, ZoneWorker};
use cm_core::address::{NetAddr, VcId};
use cm_core::media::MediaProfile;
use cm_core::osdu::{Osdu, Payload};
use cm_core::qos::{GuaranteeMode, QosRequirement};
use cm_core::rng::DetRng;
use cm_core::service_class::ServiceClass;
use cm_core::time::{Bandwidth, SimDuration, SimTime};
use cm_core::FastMap;
use cm_obs::{Obs, ObsZoneReport};
use cm_platform::Platform;
use cm_session::{PeerId, Room, RoomMember, Session};
use cm_telemetry::merge_jsonl;
use cm_testkit::{CityConfig, CityEvent, CityMedia, CitySchedule, CityWire, ZoneEvent, ZonePlan};
use cm_transport::{EgressTap, EntityConfig, TransportService};
use netsim::{Engine, LinkParams, Network, NodeClock};
use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::sync::Arc;

/// What one zone reports after the cluster drains.
#[derive(Debug, Clone)]
pub struct ZoneCityReport {
    /// Zone id.
    pub zone: u32,
    /// The zone-local counters (joins, deliveries, engine events…).
    pub stats: CityStats,
    /// Mirror rooms opened here (guest side of cross-zone rooms).
    pub mirrors_opened: u64,
    /// Mirror streams published here on `MirrorPublish` arrival.
    pub mirror_publishes: u64,
    /// Envelopes sent to other zones (stream control + media).
    pub wan_out_msgs: u64,
    /// Media payload bytes sent to other zones — the flat-in-membership
    /// quantity.
    pub wan_out_bytes: u64,
    /// Media envelopes that arrived for an already-closed mirror or hit
    /// a full mirror send buffer and were dropped (wide-area ingress is
    /// drop-on-full, never parked).
    pub wan_dropped: u64,
    /// Peak concurrently-open rooms in this zone (mirrors included).
    pub rooms_active_peak: u64,
    /// This zone's JSONL telemetry export, when telemetry was enabled.
    pub telemetry_jsonl: Option<String>,
    /// This zone's causal-trace attribution + audit report, when tracing
    /// was enabled (it rides with telemetry).
    pub obs_report: Option<ObsZoneReport>,
}

/// Aggregated result of a sharded city run.
#[derive(Debug, Clone)]
pub struct ClusterCityStats {
    /// Counters summed across zones; `sim_ms` takes the max final clock
    /// (zones stop on their own last window, so an idle-tailed zone may
    /// finish logically earlier) and `events_executed` the total.
    pub agg: CityStats,
    /// Per-zone reports, zone-id order.
    pub per_zone: Vec<ZoneCityReport>,
    /// Worker threads used.
    pub workers: usize,
    /// Barrier rounds executed.
    pub rounds: u64,
    /// Whole-run wall clock, µs.
    pub wall_us: u64,
    /// Per-worker busy time, µs.
    pub worker_busy_us: Vec<u64>,
    /// Per-worker synchronization time (slot spins + barrier waits), µs.
    pub worker_sync_us: Vec<u64>,
    /// Σ over rounds of the busiest worker — the parallel floor on an
    /// unconstrained host (see `ClusterReport::critical_path_us`).
    pub critical_path_us: u64,
    /// Cross-zone envelopes carried by the runner.
    pub envelopes_routed: u64,
    /// Envelope buffer growth events across the whole run — the
    /// allocation traffic the reused per-round `Vec`s avoid.
    pub envelope_allocs: u64,
    /// Total cross-zone envelopes.
    pub wan_msgs: u64,
    /// Total cross-zone media payload bytes.
    pub wan_bytes: u64,
    /// Deterministic merged telemetry (all zones, `"zone"`-tagged),
    /// when telemetry was enabled.
    pub merged_jsonl: Option<String>,
}

/// A no-op member for the guest-side relay publisher (its deliveries
/// are re-publications, not member deliveries — don't count them).
struct RelayDown;
impl RoomMember for RelayDown {}

/// A room member that only counts what reaches it.
#[derive(Default)]
struct CountingMember {
    osdus: Cell<u64>,
    bytes: Cell<u64>,
}

impl RoomMember for CountingMember {
    fn on_media(&self, _room: &str, _stream: &str, osdu: Osdu) {
        self.osdus.set(self.osdus.get() + 1);
        self.bytes.set(self.bytes.get() + osdu.payload.len() as u64);
    }
}

struct ZRt {
    zone: u32,
    plan: Arc<ZonePlan>,
    engine: Engine,
    session: Session,
    /// Leaf nodes; index `plan.relay_node()` is the relay leaf.
    nodes: Vec<NetAddr>,
    member: Rc<CountingMember>,
    /// Per-zone causal-trace registry, shared with every transport
    /// entity in the zone (enabled alongside telemetry).
    obs: Obs,
    rooms: RefCell<FastMap<u32, Room>>,
    peers: RefCell<FastMap<(u32, u32), PeerId>>,
    /// Guest-side mirror stream handles, live once `MirrorPublish`
    /// arrived and until the mirror closes.
    mirror_streams: RefCell<FastMap<u32, (TransportService, VcId)>>,
    /// Guest-side relay publisher peer per mirror room.
    mirror_peers: RefCell<FastMap<u32, PeerId>>,
    /// Cross-zone envelopes staged for the next barrier drain.
    outbound: RefCell<Vec<Envelope<CityWire>>>,
    /// Wide-area ingress queue: envelopes accepted by `inject` but not
    /// yet delivered, a min-heap on (deliver time, arrival order).
    /// `run_until_us` advances the engine to each delivery instant and
    /// calls the handler inline, sparing the engine one heap event per
    /// envelope — at city scale those events alone are ~3% of the flat
    /// city's entire event count, pure sharding tax.
    wan_in: RefCell<BinaryHeap<Reverse<WanItem>>>,
    /// Arrival counter feeding [`WanItem::seq`].
    wan_seq: Cell<u64>,
    /// Home-side cross rooms with a stream in flight, keyed by room:
    /// inserted when the `Publish` event executes (every wide-area
    /// message is causally downstream of one), removed when the tap
    /// has forwarded the stream's last scheduled OSDU or the room
    /// closes. Each entry lower-bounds the room's next possible
    /// emission by the *write schedule* — paced writes land at
    /// publish + 100 ms + k·interval, and the tap emits exactly at the
    /// write call — so a zone full of idle-gap text streams still
    /// stretches its window to the next write instead of collapsing to
    /// the next deadline.
    hot: RefCell<FastMap<u32, HotStream>>,
    /// Sorted static times (µs) after which this zone could start
    /// emitting again: cross-room publishes
    /// ([`ZonePlan::emission_enables_us`]).
    enables_us: Vec<u64>,
    /// First entry of `enables_us` not yet behind the zone clock.
    enable_idx: Cell<usize>,
    rooms_opened: Cell<u64>,
    mirrors_opened: Cell<u64>,
    mirror_publishes: Cell<u64>,
    joins_ok: Cell<u64>,
    joins_denied: Cell<u64>,
    published: Cell<u64>,
    osdus_written: Cell<u64>,
    bytes_written: Cell<u64>,
    wan_out_msgs: Cell<u64>,
    wan_out_bytes: Cell<u64>,
    wan_dropped: Cell<u64>,
    rooms_active: Cell<u64>,
    rooms_active_peak: Cell<u64>,
}

/// One in-flight cross-zone stream's emission bound. The schedule fixes
/// the publisher's write times exactly, and the egress tap emits at the
/// write call itself, so `next_write_us` — the next unwritten OSDU's
/// *scheduled* write time — is an exact lower bound on the room's next
/// wide-area emission: a parked producer (full send buffer) only pushes
/// real writes later than scheduled, never earlier.
struct HotStream {
    /// Scheduled write time of the next OSDU the tap has not forwarded
    /// yet: publish + 100 ms + k·interval.
    next_write_us: u64,
    /// The stream's OSDU pacing interval.
    interval_us: u64,
    /// Scheduled OSDUs the tap has not forwarded yet.
    left: u32,
}

/// One wide-area envelope waiting for its delivery instant. Envelopes
/// are injected in deterministic merge order (the runner's routing is
/// worker-count-invariant), so ordering by (deliver time, arrival seq)
/// replays exactly the order engine-scheduled delivery events would
/// have fired in.
struct WanItem {
    deliver_at_us: u64,
    seq: u64,
    body: CityWire,
}

impl PartialEq for WanItem {
    fn eq(&self, other: &Self) -> bool {
        (self.deliver_at_us, self.seq) == (other.deliver_at_us, other.seq)
    }
}
impl Eq for WanItem {}
impl PartialOrd for WanItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for WanItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at_us, self.seq).cmp(&(other.deliver_at_us, other.seq))
    }
}

/// Home-side egress tap for one cross-zone stream: every accepted write
/// on the published VC becomes one wide-area envelope per guest zone,
/// captured synchronously inside the write call. The v0 design joined a
/// relay *member* on a dedicated leaf instead, which cost the home zone
/// a full local packet round-trip plus delivery event per OSDU — pure
/// sharding tax, since the flat city does none of that work. The tap
/// emits at the source for zero extra engine events, and because the
/// envelope leaves at the write instant, the [`HotStream`] bound is
/// exact rather than conservative.
struct ZoneEgress {
    rt: Rc<ZRt>,
    room: u32,
}

impl EgressTap for ZoneEgress {
    fn on_osdu_written(&self, _vc: VcId, osdu: &Osdu, now_us: u64) {
        let rt = &self.rt;
        // Causal provenance: capture *is* the write, so the origin and
        // relay timestamps coincide; guest-side spans charge the whole
        // wide-area hop to `mirror_relay` from here.
        let (origin_us, relayed_at_us) = if rt.obs.enabled() {
            (now_us, now_us)
        } else {
            (0, 0)
        };
        rt.send_to_guests(
            self.room,
            CityWire::Media {
                room: self.room,
                tag: osdu.payload.tag().unwrap_or(0),
                len: osdu.payload.len() as u32,
                origin_us,
                relayed_at_us,
            },
        );
        // One more OSDU out: the next emission cannot precede the next
        // scheduled write. After the last scheduled OSDU the stream is
        // provably silent — retire it from the emission bound entirely.
        let mut hot = rt.hot.borrow_mut();
        if let Some(h) = hot.get_mut(&self.room) {
            h.left = h.left.saturating_sub(1);
            if h.left == 0 {
                hot.remove(&self.room);
            } else {
                h.next_write_us += h.interval_us;
            }
        }
    }
}

impl ZRt {
    fn room_opened(&self) {
        let now = self.rooms_active.get() + 1;
        self.rooms_active.set(now);
        self.rooms_active_peak
            .set(self.rooms_active_peak.get().max(now));
    }

    fn room_closed(&self) {
        self.rooms_active
            .set(self.rooms_active.get().saturating_sub(1));
    }

    /// Stage one envelope to every guest zone of `room`.
    fn send_to_guests(&self, room: u32, body: CityWire) {
        let deliver_at = self.engine.now().as_micros() + self.plan.wan_latency_ms.max(1) * 1_000;
        let mut out = self.outbound.borrow_mut();
        for &g in self.plan.guests(room) {
            out.push(Envelope::to(g, deliver_at, body));
            self.wan_out_msgs.set(self.wan_out_msgs.get() + 1);
            if let CityWire::Media { len, .. } = body {
                self.wan_out_bytes
                    .set(self.wan_out_bytes.get() + len as u64);
            }
        }
    }

    /// A cross-zone envelope fired at its delivery time.
    fn on_wire(self: &Rc<Self>, wire: CityWire) {
        match wire {
            CityWire::MirrorPublish { room, media } => self.mirror_publish(room, media),
            CityWire::Media {
                room,
                tag,
                len,
                origin_us,
                relayed_at_us,
            } => self.mirror_write(room, tag, len as usize, origin_us, relayed_at_us),
        }
    }

    /// Guest side: home published — open the mirror stream.
    fn mirror_publish(self: &Rc<Self>, room: u32, media: CityMedia) {
        let Some(r) = self.rooms.borrow().get(&room).cloned() else {
            self.wan_dropped.set(self.wan_dropped.get() + 1);
            return;
        };
        let Some(&peer) = self.mirror_peers.borrow().get(&room) else {
            self.wan_dropped.set(self.wan_dropped.get() + 1);
            return;
        };
        let profile = profile_of(media);
        let req = QosRequirement {
            tolerance: profile.tolerance(50),
            guarantee: GuaranteeMode::BestEffort,
            osdu_rate: profile.osdu_rate,
            max_osdu_size: profile.max_osdu_size,
        };
        let Ok(vc) = r.publish(peer, "main", ServiceClass::cm_default(), req) else {
            self.wan_dropped.set(self.wan_dropped.get() + 1);
            return;
        };
        self.mirror_publishes.set(self.mirror_publishes.get() + 1);
        if let Some(svc) = r.stream_service("main") {
            self.mirror_streams.borrow_mut().insert(room, (svc, vc));
        }
    }

    /// Guest side: one wide-area OSDU — re-emit it into the mirror.
    /// Drop-on-full: the wide area never parks a producer.
    fn mirror_write(&self, room: u32, tag: u64, len: usize, origin_us: u64, relayed_at_us: u64) {
        let handle = self.mirror_streams.borrow().get(&room).cloned();
        let Some((svc, vc)) = handle else {
            self.wan_dropped.set(self.wan_dropped.get() + 1);
            return;
        };
        // The mirror OSDU inherits the home-zone write time as its causal
        // origin; everything from the relay capture to the guest-side
        // mint lands in the `mirror_relay` segment.
        let traced = self.obs.enabled() && origin_us != 0;
        if traced {
            self.obs.stage_relay(vc.0, origin_us, relayed_at_us);
        }
        match svc.write_osdu(vc, Payload::synthetic(tag, len), None) {
            Ok(true) => {
                self.osdus_written.set(self.osdus_written.get() + 1);
                self.bytes_written
                    .set(self.bytes_written.get() + len as u64);
            }
            Ok(false) | Err(_) => {
                if traced {
                    self.obs.unstage_relay(vc.0);
                }
                self.wan_dropped.set(self.wan_dropped.get() + 1);
            }
        }
    }
}

/// Schedule the batch of zone events starting at `idx` (all sharing one
/// fire time); each batch arms the next, so the timer wheel only ever
/// holds one schedule cursor.
fn arm_batch(engine: &Engine, rt: Rc<ZRt>, idx: usize) {
    let events = &rt.plan.per_zone[rt.zone as usize].events;
    let Some(first) = events.get(idx) else {
        return;
    };
    let now_ms = engine.now().as_micros() / 1_000;
    let delay = SimDuration::from_millis(first.at_ms().saturating_sub(now_ms));
    engine.schedule_in(delay, move |eng| {
        let events = &rt.plan.per_zone[rt.zone as usize].events;
        let at = events[idx].at_ms();
        let mut i = idx;
        while let Some(&ev) = events.get(i) {
            if ev.at_ms() != at {
                break;
            }
            execute(eng, &rt, ev);
            i += 1;
        }
        arm_batch(eng, rt.clone(), i);
    });
}

fn execute(engine: &Engine, rt: &Rc<ZRt>, ev: ZoneEvent) {
    match ev {
        ZoneEvent::City(ev) => execute_city(engine, rt, ev),
        ZoneEvent::RelayJoin { .. } => {
            // v0 joined a forwarding relay member here. Zone egress is
            // now captured at the write call itself (an [`EgressTap`]
            // registered when `Publish` executes), so nothing joins:
            // the plan still emits the event — and the home room still
            // carries the spare capacity slot — so schedule shapes stay
            // stable across the redesign.
        }
        ZoneEvent::MirrorOpen { room, capacity, .. } => {
            let relay_node = rt.nodes[rt.plan.relay_node() as usize];
            let r = rt
                .session
                .create_room(&format!("r{room}"), relay_node, capacity as usize);
            rt.rooms.borrow_mut().insert(room, r.clone());
            rt.mirrors_opened.set(rt.mirrors_opened.get() + 1);
            rt.room_opened();
            // The relay publisher joins immediately so the mirror can
            // publish the moment `MirrorPublish` crosses the wide area.
            let rt2 = rt.clone();
            r.join(relay_node, "relay", Rc::new(RelayDown), move |res| {
                if let Ok(id) = res {
                    rt2.mirror_peers.borrow_mut().insert(room, id);
                }
            });
        }
        ZoneEvent::MirrorClose { room, .. } => {
            let Some(r) = rt.rooms.borrow_mut().remove(&room) else {
                return;
            };
            rt.mirror_streams.borrow_mut().remove(&room);
            rt.mirror_peers.borrow_mut().remove(&room);
            rt.room_closed();
            let mut roster = r.peers();
            roster.reverse();
            for (id, _, _) in roster {
                r.leave(id);
            }
        }
    }
}

fn execute_city(engine: &Engine, rt: &Rc<ZRt>, ev: CityEvent) {
    match ev {
        CityEvent::RoomOpen {
            room,
            host,
            members,
            ..
        } => {
            let r = rt.session.create_room(
                &format!("r{room}"),
                rt.nodes[host as usize],
                members as usize,
            );
            rt.rooms.borrow_mut().insert(room, r);
            rt.rooms_opened.set(rt.rooms_opened.get() + 1);
            rt.room_opened();
        }
        CityEvent::Join {
            room, member, node, ..
        } => {
            let Some(r) = rt.rooms.borrow().get(&room).cloned() else {
                return;
            };
            let rt2 = rt.clone();
            r.join(
                rt.nodes[node as usize],
                &format!("m{member}"),
                rt.member.clone(),
                move |res| match res {
                    Ok(id) => {
                        rt2.peers.borrow_mut().insert((room, member), id);
                        rt2.joins_ok.set(rt2.joins_ok.get() + 1);
                    }
                    Err(_) => rt2.joins_denied.set(rt2.joins_denied.get() + 1),
                },
            );
        }
        CityEvent::Publish {
            room,
            media,
            writes,
            ..
        } => {
            let Some(r) = rt.rooms.borrow().get(&room).cloned() else {
                return;
            };
            let Some(&publisher) = rt.peers.borrow().get(&(room, 0)) else {
                return;
            };
            let profile = profile_of(media);
            let req = QosRequirement {
                tolerance: profile.tolerance(50),
                guarantee: GuaranteeMode::BestEffort,
                osdu_rate: profile.osdu_rate,
                max_osdu_size: profile.max_osdu_size,
            };
            let Ok(vc) = r.publish(publisher, "main", ServiceClass::cm_default(), req) else {
                return;
            };
            rt.published.set(rt.published.get() + 1);
            let Some(svc) = r.stream_service("main") else {
                return;
            };
            if !rt.plan.guests(room).is_empty() {
                // Announce the stream to every guest zone within the
                // `Publish` execution itself — the enabling event the
                // emission bound is anchored to — and capture the
                // stream at its source: an egress tap on the published
                // VC forwards each OSDU at its write call. The room
                // turns hot at this very tick, so the bound stays
                // honest across republishes; with the announcement
                // already out, the bound starts directly at the paced
                // write schedule (publish + 100 ms + k·interval).
                rt.send_to_guests(room, CityWire::MirrorPublish { room, media });
                rt.hot.borrow_mut().insert(
                    room,
                    HotStream {
                        next_write_us: engine.now().as_micros() + 100_000,
                        interval_us: profile.osdu_rate.interval().as_micros(),
                        left: writes,
                    },
                );
                let tap = Rc::new(ZoneEgress {
                    rt: rt.clone(),
                    room,
                });
                svc.set_egress_tap(vc, tap)
                    .expect("publish just opened this VC");
            }
            let size = profile.nominal_osdu_size;
            let every = profile.osdu_rate.interval();
            let rt2 = rt.clone();
            // Give the graft handshake a beat before the first write, then
            // produce at the media rate — the contracted pace; writing
            // faster than the negotiated rate backlogs the send buffer
            // and blows the stream's own deadline (the auditor flags it).
            engine.schedule_in(SimDuration::from_millis(100), move |_| {
                paced_writes(&rt2, svc, vc, room, 0, writes, size, every);
            });
        }
        CityEvent::Leave { room, member, .. } => {
            let Some(id) = rt.peers.borrow_mut().remove(&(room, member)) else {
                return;
            };
            let Some(r) = rt.rooms.borrow().get(&room).cloned() else {
                return;
            };
            r.leave(id);
        }
        CityEvent::RoomClose { room, .. } => {
            let Some(r) = rt.rooms.borrow_mut().remove(&room) else {
                return;
            };
            rt.hot.borrow_mut().remove(&room);
            rt.room_closed();
            // Listeners first, the publisher (and its stream) last.
            let mut roster = r.peers();
            roster.reverse();
            for (id, _, _) in roster {
                r.leave(id);
            }
        }
    }
}

fn profile_of(media: CityMedia) -> MediaProfile {
    match media {
        CityMedia::AudioTelephone => MediaProfile::audio_telephone(),
        CityMedia::TextCaptions => MediaProfile::text_captions(),
        CityMedia::VideoMono => MediaProfile::video_mono(),
    }
}

/// Write one OSDU every `every` of simulated time (the media rate) until
/// `total` are out, parking on the send buffer when it is full. Stops
/// silently if the VC dies under us (the room closed before the writes
/// finished).
#[allow(clippy::too_many_arguments)]
fn paced_writes(
    rt: &Rc<ZRt>,
    svc: TransportService,
    vc: VcId,
    room: u32,
    done: u32,
    total: u32,
    size: usize,
    every: SimDuration,
) {
    if done >= total {
        return;
    }
    let tag = ((room as u64) << 32) | done as u64;
    match svc.write_osdu(vc, Payload::synthetic(tag, size), None) {
        Ok(true) => {
            rt.osdus_written.set(rt.osdus_written.get() + 1);
            rt.bytes_written.set(rt.bytes_written.get() + size as u64);
            let engine = svc.network().engine().clone();
            let rt2 = rt.clone();
            engine.schedule_in(every, move |_| {
                paced_writes(&rt2, svc, vc, room, done + 1, total, size, every);
            });
        }
        Ok(false) => {
            let Ok(buf) = svc.send_handle(vc) else {
                return;
            };
            let now = svc.now();
            let engine = svc.network().engine().clone();
            let rt2 = rt.clone();
            let svc2 = svc.clone();
            buf.park_producer(now, move || {
                engine.schedule_in(SimDuration::ZERO, move |_| {
                    paced_writes(&rt2, svc2, vc, room, done, total, size, every);
                });
            });
        }
        Err(_) => {}
    }
}

/// One zone's stack, driven by the cluster runner — or, for the flat
/// city, drained directly on the calling thread.
pub struct ZoneCityWorker {
    engine: Engine,
    platform: Platform,
    rt: Rc<ZRt>,
}

impl ZoneCityWorker {
    /// Build zone `zone`'s world and arm its schedule. Runs on the
    /// thread that will own the zone.
    pub fn build(
        cfg: &CityConfig,
        plan: Arc<ZonePlan>,
        zone: u32,
        telemetry_capacity: Option<usize>,
    ) -> ZoneCityWorker {
        let engine = Engine::new();
        if let Some(cap) = telemetry_capacity {
            engine.telemetry().enable(cap);
        }
        let net = Network::new(engine.clone());
        // Per-zone link rng: deterministic per (seed, zone), independent
        // of worker count.
        let mut rng = DetRng::from_seed(cfg.seed ^ 0x5ca1_ab1e ^ ((zone as u64) << 48));
        let hub = net.add_node(NodeClock::perfect());
        let link = LinkParams::clean(Bandwidth::mbps(100), SimDuration::from_millis(1));
        let nodes: Vec<NetAddr> = (0..plan.leaves_per_zone())
            .map(|_| {
                let n = net.add_node(NodeClock::perfect());
                net.add_duplex(hub, n, link.clone(), &mut rng);
                n
            })
            .collect();
        let platform = Platform::new(net);
        // Causal tracing rides with telemetry: both are observation-only
        // and the pair keeps zone shards byte-comparable.
        let obs = Obs::disabled();
        if telemetry_capacity.is_some() {
            obs.enable();
        }
        let entity_cfg = EntityConfig {
            buffer_slots_override: Some(4),
            obs: obs.clone(),
            ..EntityConfig::default()
        };
        platform.install_node_with(hub, entity_cfg.clone());
        for &n in &nodes {
            platform.install_node_with(n, entity_cfg.clone());
        }
        let session = Session::new(&platform);
        let enables_us = plan.emission_enables_us(zone);
        let rt = Rc::new(ZRt {
            zone,
            plan,
            engine: engine.clone(),
            session,
            nodes,
            member: Rc::new(CountingMember::default()),
            obs,
            rooms: RefCell::new(FastMap::default()),
            peers: RefCell::new(FastMap::default()),
            mirror_streams: RefCell::new(FastMap::default()),
            mirror_peers: RefCell::new(FastMap::default()),
            outbound: RefCell::new(Vec::new()),
            wan_in: RefCell::new(BinaryHeap::new()),
            wan_seq: Cell::new(0),
            hot: RefCell::new(FastMap::default()),
            enables_us,
            enable_idx: Cell::new(0),
            rooms_opened: Cell::new(0),
            mirrors_opened: Cell::new(0),
            mirror_publishes: Cell::new(0),
            joins_ok: Cell::new(0),
            joins_denied: Cell::new(0),
            published: Cell::new(0),
            osdus_written: Cell::new(0),
            bytes_written: Cell::new(0),
            wan_out_msgs: Cell::new(0),
            wan_out_bytes: Cell::new(0),
            wan_dropped: Cell::new(0),
            rooms_active: Cell::new(0),
            rooms_active_peak: Cell::new(0),
        });
        arm_batch(&engine, rt.clone(), 0);
        ZoneCityWorker {
            engine,
            platform,
            rt,
        }
    }

    /// The zone-local counters as they stand.
    fn stats(&self) -> CityStats {
        let rt = &self.rt;
        CityStats {
            rooms_opened: rt.rooms_opened.get(),
            joins_ok: rt.joins_ok.get(),
            joins_denied: rt.joins_denied.get(),
            published: rt.published.get(),
            osdus_written: rt.osdus_written.get(),
            bytes_written: rt.bytes_written.get(),
            osdus_delivered: rt.member.osdus.get(),
            bytes_delivered: rt.member.bytes.get(),
            events_executed: self.engine.executed(),
            sim_ms: self.engine.now().as_micros() / 1_000,
        }
    }

    /// Run a zone nothing else can reach — the flat city's only zone —
    /// until its engine drains, and hand back the drained world.
    pub(crate) fn drain(self) -> (CityStats, Platform, Obs) {
        self.engine.run();
        (self.stats(), self.platform, self.rt.obs.clone())
    }

    /// Deliver every queued wide-area envelope due at exactly `t_us`
    /// (the engine clock must already be there), in arrival order.
    fn deliver_wan_at(&self, t_us: u64) {
        loop {
            let item = {
                let mut q = self.rt.wan_in.borrow_mut();
                match q.peek() {
                    Some(Reverse(w)) if w.deliver_at_us == t_us => q.pop().map(|Reverse(w)| w),
                    _ => None,
                }
            };
            match item {
                Some(w) => self.rt.on_wire(w.body),
                None => return,
            }
        }
    }
}

impl ZoneWorker for ZoneCityWorker {
    type Msg = CityWire;
    type Report = ZoneCityReport;

    fn inject(&mut self, env: Envelope<CityWire>) {
        debug_assert!(
            env.deliver_at_us >= self.engine.now().as_micros(),
            "wide-area envelope injected into the past: deliver_at={} clock={}",
            env.deliver_at_us,
            self.engine.now().as_micros()
        );
        let seq = self.rt.wan_seq.get();
        self.rt.wan_seq.set(seq + 1);
        self.rt.wan_in.borrow_mut().push(Reverse(WanItem {
            deliver_at_us: env.deliver_at_us,
            seq,
            body: env.body,
        }));
    }

    fn next_deadline_us(&mut self) -> Option<u64> {
        let local = self.engine.next_deadline().map(|t| t.as_micros());
        let wan = self
            .rt
            .wan_in
            .borrow()
            .peek()
            .map(|Reverse(w)| w.deliver_at_us);
        [local, wan].into_iter().flatten().min()
    }

    fn next_emission_us(&mut self) -> Option<u64> {
        // No pending events → nothing ever emits: forwarding an OSDU is
        // itself an engine event, and injected envelopes only feed
        // guest-side mirrors, which never send back.
        let t = self.engine.next_deadline()?.as_micros();
        // Enables strictly below the next pending deadline have already
        // executed (the schedule chain keeps its next batch armed, so an
        // unexecuted enable implies a pending event at or before it) and
        // turned their rooms hot. The cursor only advances, so this is
        // amortized O(1) per round.
        let mut i = self.rt.enable_idx.get();
        while self.rt.enables_us.get(i).is_some_and(|&e| e < t) {
            i += 1;
        }
        self.rt.enable_idx.set(i);
        let next_enable = self.rt.enables_us.get(i).copied();
        // In-flight streams: the earliest unforwarded write. Hot rooms
        // are few (streams are short next to room lifetimes), so a
        // linear min is cheap.
        let hot_min = self.rt.hot.borrow().values().map(|h| h.next_write_us).min();
        // An OSDU already written but still in flight can make the raw
        // bound trail the clock; no emission can precede the next
        // engine event, so clamping up to the deadline stays sound.
        [hot_min, next_enable]
            .into_iter()
            .flatten()
            .min()
            .map(|e| e.max(t))
    }

    fn run_until_us(&mut self, deadline_us: u64) {
        // Interleave the engine with the wide-area ingress queue: run
        // local events up to each delivery instant, then hand the due
        // envelopes straight to their handlers (engine clock already on
        // the instant, zero-delay follow-ups picked up by the next
        // pass). Same-instant ordering is local-events-first, then
        // envelopes in arrival order — deterministic for any worker
        // count.
        loop {
            let next_wan = self
                .rt
                .wan_in
                .borrow()
                .peek()
                .map(|Reverse(w)| w.deliver_at_us);
            match next_wan {
                Some(t) if t <= deadline_us => {
                    self.engine.run_until(SimTime::from_micros(t));
                    self.deliver_wan_at(t);
                }
                _ => {
                    self.engine.run_until(SimTime::from_micros(deadline_us));
                    return;
                }
            }
        }
    }

    fn run_to_drain_us(&mut self) {
        // Same interleave as `run_until_us`, with the next delivery
        // instant as the rolling deadline. `Engine::run` leaves the
        // clock on the last executed event instead of poisoning it with
        // a synthetic `u64::MAX` deadline.
        loop {
            let next_wan = self
                .rt
                .wan_in
                .borrow()
                .peek()
                .map(|Reverse(w)| w.deliver_at_us);
            match next_wan {
                Some(t) => {
                    self.engine.run_until(SimTime::from_micros(t));
                    self.deliver_wan_at(t);
                }
                None => {
                    self.engine.run();
                    return;
                }
            }
        }
    }

    fn drain_outbound(&mut self, out: &mut Vec<Envelope<CityWire>>) {
        out.append(&mut self.rt.outbound.borrow_mut());
    }

    fn finish(self) -> ZoneCityReport {
        let rt = &self.rt;
        let stats = self.stats();
        let tel = self.engine.telemetry();
        let telemetry_jsonl = tel.enabled().then(|| tel.export_jsonl());
        let obs_report = rt.obs.enabled().then(|| {
            rt.obs
                .finish_report(rt.zone, self.engine.now().as_micros(), tel.overflow())
        });
        ZoneCityReport {
            zone: rt.zone,
            stats,
            mirrors_opened: rt.mirrors_opened.get(),
            mirror_publishes: rt.mirror_publishes.get(),
            wan_out_msgs: rt.wan_out_msgs.get(),
            wan_out_bytes: rt.wan_out_bytes.get(),
            wan_dropped: rt.wan_dropped.get(),
            rooms_active_peak: rt.rooms_active_peak.get(),
            telemetry_jsonl,
            obs_report,
        }
    }
}

/// Run the whole city as a zone-sharded cluster over `workers` threads.
///
/// The logical partition comes from `cfg.zones` (fixed per workload);
/// `workers` only chooses how many OS threads carry those zones, so
/// results — including merged telemetry bytes — are identical for any
/// value of it.
pub fn run_city_cluster(
    cfg: &CityConfig,
    workers: usize,
    telemetry_capacity: Option<usize>,
) -> ClusterCityStats {
    let schedule = CitySchedule::generate(cfg);
    run_city_cluster_schedule(cfg, &schedule, workers, telemetry_capacity)
}

/// As [`run_city_cluster`], but reusing a pre-generated schedule.
pub fn run_city_cluster_schedule(
    cfg: &CityConfig,
    schedule: &CitySchedule,
    workers: usize,
    telemetry_capacity: Option<usize>,
) -> ClusterCityStats {
    let plan = Arc::new(ZonePlan::partition(cfg, schedule));
    let wan_us = plan.wan_latency_ms.max(1) * 1_000;
    // Envelopes only flow home → guest, so the lookahead matrix has an
    // edge exactly where some room's home zone fans out to a guest zone;
    // every other pair is provably silent and never constrains a window.
    let mut matrix = LookaheadMatrix::disconnected(plan.zones as usize);
    for (home, guest) in plan.wan_edges() {
        matrix.set(home, guest, wan_us);
    }
    let cluster_cfg = ClusterConfig {
        workers,
        max_rounds: 50_000_000,
        matrix,
    };
    let builders: Vec<_> = (0..plan.zones)
        .map(|z| {
            let plan = plan.clone();
            let cfg = cfg.clone();
            move || ZoneCityWorker::build(&cfg, plan, z, telemetry_capacity)
        })
        .collect();
    let report = run_cluster(builders, &cluster_cfg);

    let mut agg = CityStats::default();
    let mut wan_msgs = 0u64;
    let mut wan_bytes = 0u64;
    for r in &report.reports {
        let s = &r.stats;
        agg.rooms_opened += s.rooms_opened;
        agg.joins_ok += s.joins_ok;
        agg.joins_denied += s.joins_denied;
        agg.published += s.published;
        agg.osdus_written += s.osdus_written;
        agg.bytes_written += s.bytes_written;
        agg.osdus_delivered += s.osdus_delivered;
        agg.bytes_delivered += s.bytes_delivered;
        agg.events_executed += s.events_executed;
        agg.sim_ms = agg.sim_ms.max(s.sim_ms);
        wan_msgs += r.wan_out_msgs;
        wan_bytes += r.wan_out_bytes;
    }
    let merged_jsonl = telemetry_capacity.map(|_| {
        let shards: Vec<(u32, String)> = report
            .reports
            .iter()
            .map(|r| (r.zone, r.telemetry_jsonl.clone().unwrap_or_default()))
            .collect();
        merge_jsonl(&shards)
    });
    ClusterCityStats {
        agg,
        per_zone: report.reports,
        workers: report.workers,
        rounds: report.rounds,
        wall_us: report.wall_us,
        worker_busy_us: report.worker_busy_us,
        worker_sync_us: report.worker_sync_us,
        critical_path_us: report.critical_path_us,
        envelopes_routed: report.envelopes_routed,
        envelope_allocs: report.envelope_allocs,
        wan_msgs,
        wan_bytes,
        merged_jsonl,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CityConfig {
        CityConfig {
            rooms: 12,
            arrival_window_ms: 8_000,
            ..CityConfig::smoke(7)
        }
    }

    #[test]
    fn smoke_cluster_runs_and_delivers() {
        let stats = run_city_cluster(&small(), 2, None);
        assert_eq!(stats.agg.rooms_opened, 12);
        assert_eq!(stats.agg.joins_denied, 0);
        assert!(stats.agg.published >= 1);
        assert!(stats.agg.osdus_delivered > 0, "local deliveries");
        // smoke() forces cross-zone rooms, so the wide area carried media.
        assert!(stats.wan_msgs > 0, "cross-zone envelopes flowed");
        assert!(stats.wan_bytes > 0);
        let mirrors: u64 = stats.per_zone.iter().map(|z| z.mirrors_opened).sum();
        assert!(mirrors > 0, "guest zones opened mirror rooms");
        let mirror_pubs: u64 = stats.per_zone.iter().map(|z| z.mirror_publishes).sum();
        assert!(mirror_pubs > 0, "mirrors republished the home stream");
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let one = run_city_cluster(&small(), 1, Some(1 << 14));
        let four = run_city_cluster(&small(), 4, Some(1 << 14));
        assert_eq!(one.agg.sim_ms, four.agg.sim_ms, "final sim time");
        assert_eq!(one.agg.osdus_delivered, four.agg.osdus_delivered);
        assert_eq!(one.agg.events_executed, four.agg.events_executed);
        assert_eq!(one.wan_msgs, four.wan_msgs);
        assert_eq!(one.wan_bytes, four.wan_bytes);
        assert_eq!(
            one.merged_jsonl, four.merged_jsonl,
            "merged telemetry must be byte-identical across worker counts"
        );
        // And the two runs really did use different thread counts.
        assert_eq!(one.workers, 1);
        assert_eq!(four.workers, 4);
    }
}
