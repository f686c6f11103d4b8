//! Chaos-in-a-room: the ISSUE acceptance scenario. One room takes a
//! seeded storm — a member node crash, a link flap and a partition — and
//! the stack heals itself at every layer: transient faults shorter than
//! the healer's patience never churn reservations, the roster stays
//! intact, media resumes on every branch, and once the last fault heals
//! there is not a single further QoS violation. Determinism is asserted
//! at the byte level: the same seed replays to identical telemetry, and
//! a zero-fault chaos scheduler is invisible in both delivery order and
//! the telemetry stream.

use cm_chaos::{ChaosScheduler, FaultClass};
use cm_core::address::NetAddr;
use cm_core::media::MediaProfile;
use cm_core::osdu::Payload;
use cm_core::rng::DetRng;
use cm_core::service_class::ServiceClass;
use cm_core::time::{Bandwidth, SimDuration, SimTime};
use cm_platform::Platform;
use cm_session::{HealthEvent, JoinDenied, PeerId, Room, RoomMember, Session};
use cm_telemetry::Value;
use cm_testkit::{world_leftovers, FaultPlan};
use cm_transport::EntityConfig;
use netsim::{Engine, LinkParams, Network, NodeClock};
use std::cell::RefCell;
use std::rc::Rc;

/// Records media delivery and health callbacks.
#[derive(Default)]
struct Rec {
    media: RefCell<Vec<u64>>,
    left: RefCell<Vec<PeerId>>,
    health: RefCell<Vec<HealthEvent>>,
}

impl Rec {
    fn new() -> Rc<Rec> {
        Rc::new(Rec::default())
    }

    fn lost(&self) -> usize {
        self.health
            .borrow()
            .iter()
            .filter(|e| matches!(e, HealthEvent::MemberLost { .. }))
            .count()
    }
}

impl RoomMember for Rec {
    fn on_media(&self, _room: &str, _stream: &str, osdu: cm_core::osdu::Osdu) {
        self.media.borrow_mut().push(osdu.seq());
    }
    fn on_peer_left(&self, _room: &str, peer: PeerId, _name: &str) {
        self.left.borrow_mut().push(peer);
    }
    fn on_health(&self, _room: &str, event: &HealthEvent) {
        self.health.borrow_mut().push(event.clone());
    }
}

struct World {
    net: Network,
    platform: Platform,
    session: Session,
    nodes: Vec<NetAddr>,
}

/// Entity tuning for chaos runs: monitor periods short enough to observe
/// violations inside the test horizon, and a healer patient enough that a
/// sub-400 ms transient never churns reservations (DESIGN.md §9).
fn chaos_config() -> EntityConfig {
    EntityConfig {
        monitor_period: SimDuration::from_millis(200),
        heal_patience: SimDuration::from_millis(400),
        ..EntityConfig::default()
    }
}

fn clean() -> LinkParams {
    LinkParams::clean(Bandwidth::mbps(10), SimDuration::from_millis(1))
}

/// Star: node 0 (publisher) — node 1 (hub) — nodes 2.. (members), built
/// from `seed` so a replay is bit-for-bit the same world.
fn star(members: usize, seed: u64, config: EntityConfig) -> World {
    let net = Network::new(Engine::new());
    net.engine()
        .telemetry()
        .enable(cm_telemetry::DEFAULT_CAPACITY);
    let mut rng = DetRng::from_seed(seed);
    let nodes: Vec<NetAddr> = (0..members + 2)
        .map(|_| net.add_node(NodeClock::perfect()))
        .collect();
    net.add_duplex(nodes[0], nodes[1], clean(), &mut rng);
    for &m in &nodes[2..] {
        net.add_duplex(nodes[1], m, clean(), &mut rng);
    }
    let platform = Platform::new(net.clone());
    for &n in &nodes {
        platform.install_node_with(n, config.clone());
    }
    let session = Session::new(&platform);
    World {
        net,
        platform,
        session,
        nodes,
    }
}

/// A lab room: teacher at node 0 publishes "lesson", `n` students join
/// from nodes 2.., and the teacher starts writing continuously.
fn lab(n: usize, seed: u64) -> (World, Room, Vec<PeerId>, Vec<Rc<Rec>>, Rc<Rec>) {
    let w = star(n, seed, chaos_config());
    let room = w.session.create_room("lab", w.nodes[0], 8);
    let teacher = Rec::new();
    let t_slot: Rc<RefCell<Option<Result<PeerId, JoinDenied>>>> = Rc::new(RefCell::new(None));
    let ts = t_slot.clone();
    room.join(w.nodes[0], "teacher", teacher.clone(), move |r| {
        *ts.borrow_mut() = Some(r);
    });
    w.net.engine().run_for(SimDuration::from_millis(10));
    t_slot.borrow().clone().unwrap().expect("teacher join");
    let mut ids = Vec::new();
    let mut recs = Vec::new();
    for i in 0..n {
        let rec = Rec::new();
        let slot: Rc<RefCell<Option<Result<PeerId, JoinDenied>>>> = Rc::new(RefCell::new(None));
        let s = slot.clone();
        room.join(
            w.nodes[2 + i],
            &format!("student{i}"),
            rec.clone(),
            move |r| {
                *s.borrow_mut() = Some(r);
            },
        );
        w.net.engine().run_for(SimDuration::from_millis(10));
        ids.push(slot.borrow().clone().unwrap().expect("student join"));
        recs.push(rec);
    }
    let tid = room.peers()[0].0;
    room.publish(
        tid,
        "lesson",
        ServiceClass::cm_default(),
        MediaProfile::audio_telephone().requirement(),
    )
    .expect("publish");
    w.net.engine().run_for(SimDuration::from_millis(50));
    let vc = room.stream_vc("lesson").expect("vc");
    let svc = room.stream_service("lesson").expect("svc");
    drive_writer(svc, vc, u64::MAX);
    (w, room, ids, recs, teacher)
}

/// Continuously writes OSDUs as fast as the send buffer allows.
fn drive_writer(svc: cm_transport::TransportService, vc: cm_core::address::VcId, total: u64) {
    fn step(
        svc: cm_transport::TransportService,
        vc: cm_core::address::VcId,
        total: u64,
        written: u64,
    ) {
        let mut written = written;
        loop {
            if written >= total {
                return;
            }
            match svc.write_osdu(vc, Payload::synthetic(written, 80), None) {
                Ok(true) => written += 1,
                Ok(false) => {
                    let Ok(buf) = svc.send_handle(vc) else { return };
                    let now = svc.now();
                    let svc2 = svc.clone();
                    let engine = svc.network().engine().clone();
                    buf.park_producer(now, move || {
                        engine.schedule_in(SimDuration::ZERO, move |_| {
                            step(svc2, vc, total, written)
                        });
                    });
                    return;
                }
                Err(_) => return,
            }
        }
    }
    step(svc, vc, total, 0);
}

fn u64_field(fields: &[(&'static str, Value)], key: &str) -> Option<u64> {
    fields.iter().find_map(|(k, v)| match v {
        Value::U64(n) if *k == key => Some(*n),
        _ => None,
    })
}

// ---------------------------------------------------------------------
// The acceptance scenario
// ---------------------------------------------------------------------

/// Node crash + link flap + partition hit one room; every fault is a
/// transient shorter than the healer's patience, so the stack rides it
/// out: no eviction, every branch resumes, and after the last heal the
/// QoS monitors never report another violation.
#[test]
fn seeded_chaos_storm_recovers_clean() {
    let (w, room, _ids, recs, teacher) = lab(3, 41);
    let hub = w.nodes[1];

    let chaos = ChaosScheduler::new(&w.net);
    FaultPlan::new()
        .at_ms(1_000)
        .link_flap(hub, w.nodes[2])
        .down_ms(60)
        .up_ms(60)
        .cycles(3)
        .at_ms(1_200)
        .partition(&[w.nodes[3]])
        .for_ms(300)
        .at_ms(1_500)
        .node_crash(w.nodes[4])
        .for_ms(300)
        .schedule(&chaos);

    w.net.engine().run_until(SimTime::from_secs(7));
    let counts: Vec<usize> = recs.iter().map(|r| r.media.borrow().len()).collect();
    w.net.engine().run_until(SimTime::from_secs(8));

    // Every injected fault healed, inside the storm window.
    let events = w.net.engine().telemetry().events();
    let injects = events.iter().filter(|e| e.name == "chaos.inject").count();
    assert_eq!(
        injects,
        chaos.history().iter().filter(|r| !r.heal).count(),
        "every injection leaves a telemetry instant"
    );
    assert!(injects >= 4, "flap links + partition + crash all injected");
    let last_heal = events
        .iter()
        .filter(|e| e.name == "chaos.heal")
        .map(|e| e.at)
        .max()
        .expect("the storm must heal");
    assert!(
        last_heal <= SimTime::from_millis(2_000),
        "storm over by 2 s, was {last_heal:?}"
    );

    // Zero post-repair QoS violations: give the monitors one settle
    // window (a period straddling the fault still reports it), then
    // demand every later sample is clean.
    let settle = last_heal + SimDuration::from_secs(1);
    let dirty: Vec<_> = events
        .iter()
        .filter(|e| {
            e.name == "vc.qos.sample"
                && e.at > settle
                && u64_field(&e.fields, "violations").unwrap_or(0) > 0
        })
        .map(|e| (e.at, e.fields.clone()))
        .collect();
    assert!(dirty.is_empty(), "post-repair QoS violations: {dirty:?}");
    assert!(
        events.iter().any(|e| e.name == "vc.qos.sample"),
        "monitors must have sampled at all"
    );

    // The room rode the storm out: nobody evicted, nothing degraded by
    // the end, and every branch (including the crashed-and-recovered
    // node) keeps receiving.
    assert_eq!(room.peers().len(), 4, "transients must not evict");
    assert_eq!(teacher.lost(), 0);
    assert_eq!(teacher.left.borrow().len(), 0);
    assert_eq!(room.degraded_branches(), Vec::<(String, PeerId)>::new());
    for (i, rec) in recs.iter().enumerate() {
        assert!(
            rec.media.borrow().len() > counts[i],
            "student{i} stalled after repair ({} OSDUs)",
            counts[i]
        );
        assert_eq!(rec.lost(), 0, "student{i} saw a phantom eviction");
    }

    // Teardown frees the world: once everyone has left (listeners first,
    // the publisher and its stream last) the storm has left nothing
    // behind — no VC state on any node, no reservation, no armed timer.
    for (id, _, _) in room.peers().into_iter().rev() {
        room.leave(id);
    }
    w.net.engine().run_for(SimDuration::from_secs(2));
    let services = w.nodes.iter().map(|&n| w.platform.service(n));
    assert_eq!(world_leftovers(&w.net, services), Vec::<String>::new());
}

// ---------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------

/// One seeded random storm over the room, returning the full telemetry
/// stream and each student's delivery order.
fn random_storm(seed: u64) -> (String, Vec<Vec<u64>>) {
    let (w, _room, _ids, recs, _teacher) = lab(3, 7);
    let chaos = ChaosScheduler::new(&w.net);
    let links: Vec<_> = (0..w.net.link_count() as u32).map(netsim::LinkId).collect();
    chaos.schedule_random(
        seed,
        SimDuration::from_secs(3),
        SimDuration::from_millis(400),
        SimDuration::from_millis(120),
        &[
            FaultClass::NodeCrash,
            FaultClass::LinkDown,
            FaultClass::LinkFlap,
        ],
        &w.nodes[2..],
        &links,
    );
    w.net.engine().run_until(SimTime::from_secs(5));
    let jsonl = w.net.engine().telemetry().export_jsonl();
    let orders = recs.iter().map(|r| r.media.borrow().clone()).collect();
    (jsonl, orders)
}

/// Same seed ⇒ the same storm ⇒ byte-identical telemetry and identical
/// delivery order on every branch.
#[test]
fn same_seed_replays_byte_identical() {
    let (jsonl_a, order_a) = random_storm(1992);
    let (jsonl_b, order_b) = random_storm(1992);
    assert!(!jsonl_a.is_empty());
    assert_eq!(order_a, order_b, "delivery order must replay exactly");
    assert_eq!(jsonl_a, jsonl_b, "telemetry must replay byte-identical");

    let (jsonl_c, _) = random_storm(4711);
    assert_ne!(jsonl_a, jsonl_c, "a different seed is a different storm");
}

/// A chaos scheduler with nothing scheduled is invisible: the run is
/// byte-identical — delivery order and telemetry — to a run without
/// cm-chaos linked at all.
#[test]
fn zero_fault_chaos_is_invisible() {
    fn quiet(with_chaos: bool) -> (String, Vec<Vec<u64>>) {
        let (w, _room, _ids, recs, _teacher) = lab(2, 13);
        let _chaos = with_chaos.then(|| ChaosScheduler::new(&w.net));
        w.net.engine().run_until(SimTime::from_secs(3));
        let jsonl = w.net.engine().telemetry().export_jsonl();
        let orders = recs.iter().map(|r| r.media.borrow().clone()).collect();
        (jsonl, orders)
    }

    let (jsonl_plain, order_plain) = quiet(false);
    let (jsonl_chaos, order_chaos) = quiet(true);
    assert!(!order_plain[0].is_empty(), "media must have flowed");
    assert_eq!(
        order_plain, order_chaos,
        "zero faults must not touch delivery"
    );
    assert_eq!(
        jsonl_plain, jsonl_chaos,
        "zero faults must not touch telemetry"
    );
}
