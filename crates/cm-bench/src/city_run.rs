//! Replays a [`cm_testkit::CitySchedule`] against a live platform — the
//! execution half of the city-scale scenario (the pure generator lives in
//! cm-testkit so it stays engine-free and hashable).
//!
//! The world is a star: one switch node in the middle, `cfg.nodes` leaf
//! nodes around it, clean 100 Mbit/s 1 ms links. Every leaf carries a
//! transport entity with a small fixed buffer (scale runs are dominated
//! by membership churn, not per-stream buffering). Rooms, members and
//! streams then come and go exactly as the schedule dictates; the run
//! ends when the engine drains.

use cm_core::address::NetAddr;
use cm_core::media::MediaProfile;
use cm_core::osdu::{Osdu, Payload};
use cm_core::qos::{GuaranteeMode, QosRequirement};
use cm_core::rng::DetRng;
use cm_core::service_class::ServiceClass;
use cm_core::time::{Bandwidth, SimDuration};
use cm_core::FastMap;
use cm_platform::Platform;
use cm_session::{PeerId, Room, RoomMember, Session};
use cm_testkit::{CityConfig, CityEvent, CityMedia, CitySchedule};
use cm_transport::EntityConfig;
use netsim::{Engine, LinkParams, Network, NodeClock};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Counters collected over one city run.
#[derive(Debug, Clone, Default)]
pub struct CityStats {
    /// Rooms opened.
    pub rooms_opened: u64,
    /// Joins confirmed by admission.
    pub joins_ok: u64,
    /// Joins denied (capacity/QoS) — expected to be zero on clean runs.
    pub joins_denied: u64,
    /// Streams successfully published.
    pub published: u64,
    /// OSDUs written by publishers.
    pub osdus_written: u64,
    /// Bytes written by publishers.
    pub bytes_written: u64,
    /// OSDUs delivered to member handlers.
    pub osdus_delivered: u64,
    /// Bytes delivered to member handlers.
    pub bytes_delivered: u64,
    /// Engine events executed over the whole run.
    pub events_executed: u64,
    /// Final simulated time, in milliseconds.
    pub sim_ms: u64,
}

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

struct Rt {
    session: Session,
    nodes: Vec<NetAddr>,
    schedule: CitySchedule,
    member: Rc<CountingMember>,
    rooms: RefCell<FastMap<u32, Room>>,
    peers: RefCell<FastMap<(u32, u32), PeerId>>,
    rooms_opened: Cell<u64>,
    joins_ok: Cell<u64>,
    joins_denied: Cell<u64>,
    published: Cell<u64>,
    osdus_written: Cell<u64>,
    bytes_written: Cell<u64>,
}

/// Build the star world and replay the schedule to completion.
///
/// `telemetry_capacity` — when `Some(n)`, telemetry is enabled with that
/// event capacity before anything is scheduled (gauges and counters are
/// then live for the whole run).
pub fn run_city(cfg: &CityConfig, telemetry_capacity: Option<usize>) -> CityStats {
    let schedule = CitySchedule::generate(cfg);
    run_city_schedule(cfg, schedule, telemetry_capacity).0
}

/// As [`run_city`], but takes a pre-generated schedule and also returns
/// the engine and the causal-trace registry (so callers can export
/// telemetry and the attribution report after the run). Tracing rides
/// with telemetry: enabled iff `telemetry_capacity` is `Some`.
pub fn run_city_schedule(
    cfg: &CityConfig,
    schedule: CitySchedule,
    telemetry_capacity: Option<usize>,
) -> (CityStats, Engine, cm_obs::Obs) {
    let (stats, platform, obs) = run_city_world(cfg, schedule, telemetry_capacity);
    (stats, platform.engine().clone(), obs)
}

/// As [`run_city_schedule`], but hands back the whole drained world —
/// every node of `platform.network()` carries an entity — so a caller can
/// check what the replay left behind.
pub fn run_city_world(
    cfg: &CityConfig,
    schedule: CitySchedule,
    telemetry_capacity: Option<usize>,
) -> (CityStats, Platform, cm_obs::Obs) {
    let engine = Engine::new();
    let obs = cm_obs::Obs::disabled();
    if let Some(cap) = telemetry_capacity {
        engine.telemetry().enable(cap);
        obs.enable();
    }
    let net = Network::new(engine.clone());
    let mut rng = DetRng::from_seed(cfg.seed ^ 0x5ca1_ab1e);
    let hub = net.add_node(NodeClock::perfect());
    let link = LinkParams::clean(Bandwidth::mbps(100), SimDuration::from_millis(1));
    let nodes: Vec<NetAddr> = (0..cfg.nodes)
        .map(|_| {
            let n = net.add_node(NodeClock::perfect());
            net.add_duplex(hub, n, link.clone(), &mut rng);
            n
        })
        .collect();
    let platform = Platform::new(net);
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
    let rt = Rc::new(Rt {
        session,
        nodes,
        schedule,
        member: Rc::new(CountingMember::default()),
        rooms: RefCell::new(FastMap::default()),
        peers: RefCell::new(FastMap::default()),
        rooms_opened: Cell::new(0),
        joins_ok: Cell::new(0),
        joins_denied: Cell::new(0),
        published: Cell::new(0),
        osdus_written: Cell::new(0),
        bytes_written: Cell::new(0),
    });
    arm_batch(&engine, rt.clone(), 0);
    engine.run();
    let stats = CityStats {
        rooms_opened: rt.rooms_opened.get(),
        joins_ok: rt.joins_ok.get(),
        joins_denied: rt.joins_denied.get(),
        published: rt.published.get(),
        osdus_written: rt.osdus_written.get(),
        bytes_written: rt.bytes_written.get(),
        osdus_delivered: rt.member.osdus.get(),
        bytes_delivered: rt.member.bytes.get(),
        events_executed: engine.executed(),
        sim_ms: engine.now().as_micros() / 1_000,
    };
    (stats, platform, obs)
}

/// Schedule the batch of events starting at `idx` (all sharing one fire
/// time); each batch arms the next, so the timer wheel only ever holds
/// one schedule cursor.
fn arm_batch(engine: &Engine, rt: Rc<Rt>, idx: usize) {
    let Some(first) = rt.schedule.events.get(idx) else {
        return;
    };
    let now_ms = engine.now().as_micros() / 1_000;
    let delay = SimDuration::from_millis(first.at_ms().saturating_sub(now_ms));
    engine.schedule_in(delay, move |eng| {
        let at = rt.schedule.events[idx].at_ms();
        let mut i = idx;
        while let Some(&ev) = rt.schedule.events.get(i) {
            if ev.at_ms() != at {
                break;
            }
            execute(eng, &rt, ev);
            i += 1;
        }
        arm_batch(eng, rt.clone(), i);
    });
}

fn execute(engine: &Engine, rt: &Rc<Rt>, ev: CityEvent) {
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
            // Listeners first, the publisher (and its stream) last.
            let mut roster = r.peers();
            roster.reverse();
            for (id, _, _) in roster {
                r.leave(id);
            }
        }
    }
}

pub(crate) fn profile_of(media: CityMedia) -> MediaProfile {
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
    rt: &Rc<Rt>,
    svc: cm_transport::TransportService,
    vc: cm_core::address::VcId,
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
