//! `fanout_media` and `chaos_heal`: a benchmark-driven world of rooms on a
//! star — four publishers, a set of receiver nodes that each join every
//! room, two rooms streaming telephone audio (80 B, 50/s: smallest OSDU,
//! per-OSDU cost) and two streaming mono video (8 kB, 25/s: fragmentation,
//! per-byte cost).
//!
//! All load is generated in sim time, open loop on the media clock: OSDU
//! `k` of a stream is written when it is due (`t0 + k * period`), and its
//! latency at each receiver is timed from that due instant, so a stalled
//! writer charges its stall to the OSDUs it delayed.
//!
//! `chaos_heal` is the same world built dual-homed (every node also has a
//! link to a backup hub) with the healer's patience and monitor period of
//! `chaos_room_e2e`, run under a seeded storm of self-healing faults.

use super::{render_and_export, report_program_tracing};
use crate::catalogue::Workload;
use crate::sample::{Phases, Report, SampleSpec};
use crate::spans;
use crate::stats::{highest_supported_percentile, percentile_sorted, percentile_supported};
use cm_chaos::{ChaosRecord, ChaosScheduler, Fault, FaultClass};
use cm_core::address::{NetAddr, VcId};
use cm_core::media::MediaProfile;
use cm_core::osdu::{Osdu, Payload};
use cm_core::rng::DetRng;
use cm_core::service_class::ServiceClass;
use cm_core::time::{Bandwidth, SimDuration, SimTime};
use cm_platform::Platform;
use cm_session::{HealthEvent, JoinDenied, PeerId, Room, RoomMember, Session};
use cm_transport::{EntityConfig, TransportService};
use netsim::{Engine, LinkId, LinkParams, Network, NodeClock};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Rooms in the world; even rooms carry audio, odd rooms video.
const ROOMS: usize = 4;

/// Sizes of one run.
struct Shape {
    receivers: usize,
    stream_secs: u64,
    /// Faults to inject; 0 = no chaos, a single-homed star.
    faults: usize,
}

impl Shape {
    fn of(spec: &SampleSpec) -> Shape {
        match (spec.workload, spec.smoke) {
            (Workload::FanoutMedia, false) => Shape {
                receivers: 64,
                stream_secs: 60,
                faults: 0,
            },
            (Workload::FanoutMedia, true) => Shape {
                receivers: 8,
                stream_secs: 5,
                faults: 0,
            },
            // A planned fault and the quiet after it take 4.5 s on average,
            // so 120 of them fit ten minutes with most of a minute to
            // spare. The history counts each flap cycle as a fault: about
            // 155 are injected, fifteen beyond the 90th percentile.
            (_, false) => Shape {
                receivers: 16,
                stream_secs: 600,
                faults: 120,
            },
            (_, true) => Shape {
                receivers: 8,
                stream_secs: 90,
                faults: 12,
            },
        }
    }
}

/// No fault is injected in the last seconds of the stream, so every one
/// has time to heal and every stream to show that it resumed.
const QUIET_TAIL: SimDuration = SimDuration::from_secs(10);
/// Sim time the engine runs past the last write to deliver what is in
/// flight.
const DRAIN: SimDuration = SimDuration::from_secs(2);

/// When OSDU `k` of a stream is due.
struct MediaClock {
    t0: Cell<SimTime>,
    period: SimDuration,
}

impl MediaClock {
    fn due(&self, k: u64) -> SimTime {
        self.t0.get() + self.period.saturating_mul(k)
    }
}

/// One receiver's view of one room's stream.
struct Listener {
    engine: Engine,
    clock: Rc<MediaClock>,
    deadline: SimDuration,
    next_tag: Cell<u64>,
    received: Cell<u64>,
    /// Missing, duplicate or out-of-order deliveries.
    disorder: Cell<u64>,
    late: Cell<u64>,
    latencies_us: RefCell<Vec<u32>>,
    last_arrival: Cell<Option<SimTime>>,
    /// Delivery gaps longer than two periods, as (last arrival, next).
    gaps: RefCell<Vec<(SimTime, SimTime)>>,
}

impl RoomMember for Listener {
    fn on_media(&self, _room: &str, _stream: &str, osdu: Osdu) {
        let _g = spans::enter("cm-session.on_media");
        let now = self.engine.now();
        let tag = osdu.payload.tag().unwrap_or(u64::MAX);
        let latency = now.saturating_since(self.clock.due(tag));
        self.latencies_us
            .borrow_mut()
            .push(latency.as_micros().min(u64::from(u32::MAX)) as u32);
        if latency > self.deadline {
            self.late.set(self.late.get() + 1);
        }
        let expected = self.next_tag.get();
        if tag != expected {
            let skipped = tag.saturating_sub(expected).max(1);
            self.disorder.set(self.disorder.get() + skipped);
        }
        self.next_tag
            .set(self.next_tag.get().max(tag.saturating_add(1)));
        self.received.set(self.received.get() + 1);
        if let Some(last) = self.last_arrival.replace(Some(now)) {
            if now.saturating_since(last) > self.clock.period.saturating_mul(2) {
                self.gaps.borrow_mut().push((last, now));
            }
        }
    }
}

/// The publisher's seat in a room: hears the room's health events once
/// (every member is told; counting at one seat counts each event once).
#[derive(Default)]
struct Host {
    degraded: Cell<u64>,
    recovered: Cell<u64>,
    member_lost: Cell<u64>,
}

impl RoomMember for Host {
    fn on_health(&self, _room: &str, event: &HealthEvent) {
        let _g = spans::enter("cm-session.on_health");
        let slot = match event {
            HealthEvent::Degraded { .. } => &self.degraded,
            HealthEvent::Recovered { .. } => &self.recovered,
            HealthEvent::MemberLost { .. } => &self.member_lost,
        };
        slot.set(slot.get() + 1);
    }
}

/// Writes one stream open loop on its media clock.
struct Writer {
    svc: TransportService,
    vc: VcId,
    clock: Rc<MediaClock>,
    size: usize,
    total: u64,
    next: Cell<u64>,
    calls: Cell<u64>,
    backpressured: Cell<u64>,
    errors: Cell<u64>,
}

impl Writer {
    /// Write every OSDU that is due, then wait for the next due instant —
    /// or, when the send buffer is full, for the buffer to wake us. One
    /// continuation is outstanding at a time, so the producer is never
    /// parked twice.
    fn pump(self: &Rc<Self>) {
        let engine = self.svc.network().engine().clone();
        loop {
            let k = self.next.get();
            if k >= self.total {
                return;
            }
            let due = self.clock.due(k);
            if engine.now() < due {
                let me = self.clone();
                engine.schedule_at(due, move |_| {
                    let _g = spans::enter("bench.writer.due");
                    me.pump();
                });
                return;
            }
            self.calls.set(self.calls.get() + 1);
            let wrote = spans::within("cm-transport.write_osdu", || {
                self.svc
                    .write_osdu(self.vc, Payload::synthetic(k, self.size), None)
            });
            match wrote {
                Ok(true) => self.next.set(k + 1),
                Ok(false) => {
                    self.backpressured.set(self.backpressured.get() + 1);
                    let Ok(buf) = self.svc.send_handle(self.vc) else {
                        self.errors.set(self.errors.get() + 1);
                        return;
                    };
                    let me = self.clone();
                    buf.park_producer(engine.now(), move || {
                        engine.schedule_in(SimDuration::ZERO, move |_| {
                            let _g = spans::enter("bench.writer.wake");
                            me.pump();
                        });
                    });
                    return;
                }
                Err(_) => {
                    self.errors.set(self.errors.get() + 1);
                    return;
                }
            }
        }
    }
}

/// A join's outcome once its callback has run: the peer and the sim time
/// the admission took, in µs.
type Verdict = Rc<RefCell<Option<Result<(PeerId, u64), JoinDenied>>>>;

struct RoomRig {
    room: Room,
    host: Rc<Host>,
    listeners: Vec<Rc<Listener>>,
    peers: Vec<PeerId>,
    writer: Rc<Writer>,
    clock: Rc<MediaClock>,
    /// The delay bound the stream was published with.
    deadline: SimDuration,
}

struct World {
    net: Network,
    engine: Engine,
    obs: cm_obs::Obs,
    /// Rooms hold only a weak reference to their session.
    _session: Session,
    receivers: Vec<NetAddr>,
    /// Both directions of every leaf's link to the primary hub: the links
    /// that carry traffic while nothing is broken.
    primary_links: Vec<LinkId>,
    rooms: Vec<RoomRig>,
    join_sim_us: Vec<u64>,
    joins_denied: u64,
}

fn run_engine_for(engine: &Engine, d: SimDuration) {
    spans::within("netsim.Engine.run_for", || engine.run_for(d));
}

fn build_world(spec: &SampleSpec, shape: &Shape, rep: &mut Report) -> World {
    let chaos = shape.faults > 0;
    let engine = Engine::new();
    let obs = cm_obs::Obs::disabled();
    if spec.traced {
        engine.telemetry().enable(cm_telemetry::DEFAULT_CAPACITY);
        obs.enable();
    }
    let net = Network::new(engine.clone());
    let mut rng = DetRng::from_seed(spec.seed);

    // Star (dual-homed under chaos). Leaf propagation is drawn per node
    // from the seed: 0.5–1.5 ms.
    let hub = net.add_node(NodeClock::perfect());
    let backup = chaos.then(|| net.add_node(NodeClock::perfect()));
    let leaf = |rng: &mut DetRng| {
        let n = net.add_node(NodeClock::perfect());
        let prop = SimDuration::from_micros(rng.range_inclusive(500, 1_500));
        let link = LinkParams::clean(Bandwidth::mbps(100), prop);
        // Primary first: routing prefers the first-added link, so the
        // backup homing only carries traffic after a failure.
        net.add_duplex(n, hub, link.clone(), rng);
        if let Some(bk) = backup {
            net.add_duplex(n, bk, link, rng);
        }
        n
    };
    let publishers: Vec<NetAddr> = (0..ROOMS).map(|_| leaf(&mut rng)).collect();
    let receivers: Vec<NetAddr> = (0..shape.receivers).map(|_| leaf(&mut rng)).collect();
    let primary_links: Vec<LinkId> = publishers
        .iter()
        .chain(&receivers)
        .flat_map(|&n| [net.links_between(n, hub), net.links_between(hub, n)])
        .flatten()
        .collect();

    let config = if chaos {
        // As chaos_room_e2e: monitors fast enough to see violations, a
        // healer patient enough that a sub-400 ms transient never churns
        // reservations.
        EntityConfig {
            monitor_period: SimDuration::from_millis(200),
            heal_patience: SimDuration::from_millis(400),
            obs: obs.clone(),
            ..EntityConfig::default()
        }
    } else {
        EntityConfig {
            obs: obs.clone(),
            ..EntityConfig::default()
        }
    };
    let platform = spans::within("cm-platform.install", || {
        let platform = Platform::new(net.clone());
        for &n in std::iter::once(&hub)
            .chain(backup.iter())
            .chain(&publishers)
            .chain(&receivers)
        {
            platform.install_node_with(n, config.clone());
        }
        platform
    });
    let session = Session::new(&platform);

    // Rooms: publisher joins, publishes, then every receiver joins — so a
    // join is QoS admission plus a graft onto a live tree.
    let mut rooms = Vec::new();
    let mut joins_denied = 0u64;
    for (i, &publisher) in publishers.iter().enumerate() {
        let profile = if i % 2 == 0 {
            MediaProfile::audio_telephone()
        } else {
            MediaProfile::video_mono()
        };
        let name = format!("room{i}");
        let room = spans::within("cm-session.create_room", || {
            session.create_room(&name, publisher, shape.receivers + 1)
        });
        let host = Rc::new(Host::default());
        let seat: Rc<RefCell<Option<Result<PeerId, JoinDenied>>>> = Rc::new(RefCell::new(None));
        let seat2 = seat.clone();
        spans::within("cm-session.Room.join", || {
            room.join(publisher, "publisher", host.clone(), move |r| {
                let _g = spans::enter("bench.join_done");
                *seat2.borrow_mut() = Some(r);
            });
        });
        run_engine_for(&engine, SimDuration::from_millis(10));
        let publisher_id = match seat.borrow_mut().take() {
            Some(Ok(id)) => id,
            other => panic!("{name}: publisher join failed: {other:?}"),
        };
        let vc = spans::within("cm-session.Room.publish", || {
            room.publish(
                publisher_id,
                "main",
                ServiceClass::cm_default(),
                profile.requirement(),
            )
        })
        .unwrap_or_else(|e| panic!("{name}: publish failed: {e:?}"));
        let svc = room
            .stream_service("main")
            .expect("published stream has a service");
        let period = profile.osdu_rate.interval();
        let clock = Rc::new(MediaClock {
            t0: Cell::new(SimTime::ZERO),
            period,
        });
        let total = shape.stream_secs * 1_000_000 / period.as_micros();
        let writer = Rc::new(Writer {
            svc,
            vc,
            clock: clock.clone(),
            size: profile.nominal_osdu_size,
            total,
            next: Cell::new(0),
            calls: Cell::new(0),
            backpressured: Cell::new(0),
            errors: Cell::new(0),
        });
        rooms.push(RoomRig {
            room,
            host,
            listeners: Vec::new(),
            peers: Vec::new(),
            writer,
            clock,
            deadline: profile.delay_bound,
        });
    }

    // Receivers join every room, one node at a time; the join's sim
    // latency runs from the call to the admission callback.
    let mut join_sim_us = Vec::new();
    for (r, &node) in receivers.iter().enumerate() {
        let verdicts: Vec<Verdict> = (0..ROOMS).map(|_| Rc::new(RefCell::new(None))).collect();
        for (rig, verdict) in rooms.iter_mut().zip(&verdicts) {
            let listener = Rc::new(Listener {
                engine: engine.clone(),
                clock: rig.clock.clone(),
                deadline: rig.deadline,
                next_tag: Cell::new(0),
                received: Cell::new(0),
                disorder: Cell::new(0),
                late: Cell::new(0),
                latencies_us: RefCell::new(Vec::new()),
                last_arrival: Cell::new(None),
                gaps: RefCell::new(Vec::new()),
            });
            rig.listeners.push(listener.clone());
            let called = engine.now();
            let verdict = verdict.clone();
            let eng = engine.clone();
            spans::within("cm-session.Room.join", || {
                rig.room
                    .join(node, &format!("rx{r}"), listener, move |res| {
                        let _g = spans::enter("bench.join_done");
                        let took = eng.now().saturating_since(called).as_micros();
                        *verdict.borrow_mut() = Some(res.map(|id| (id, took)));
                    });
            });
        }
        // Admission is a few link round trips; give it 10 ms, and up to a
        // second before declaring it lost.
        let mut waited = 0;
        loop {
            run_engine_for(&engine, SimDuration::from_millis(10));
            waited += 10;
            let pending = verdicts.iter().any(|v| v.borrow().is_none());
            if !pending || waited >= 1_000 {
                break;
            }
        }
        for (rig, verdict) in rooms.iter_mut().zip(&verdicts) {
            match verdict.borrow_mut().take() {
                Some(Ok((id, took))) => {
                    rig.peers.push(id);
                    join_sim_us.push(took);
                }
                _ => joins_denied += 1,
            }
        }
    }
    // Let the last grafts settle before the stream starts.
    run_engine_for(&engine, SimDuration::from_millis(500));
    for (i, rig) in rooms.iter().enumerate() {
        let grafted = rig
            .writer
            .svc
            .group_receivers(rig.writer.vc)
            .map_or(0, |m| m.len());
        rep.check(
            &format!("room{i}: every receiver grafted"),
            grafted == shape.receivers,
            format!("group_receivers={grafted} receivers={}", shape.receivers),
        );
    }
    World {
        net,
        engine,
        obs,
        _session: session,
        receivers,
        primary_links,
        rooms,
        join_sim_us,
        joins_denied,
    }
}

pub fn run(spec: &SampleSpec, phases: &mut Phases, rep: &mut Report) {
    let shape = Shape::of(spec);
    let stream = SimDuration::from_secs(shape.stream_secs);

    let (world, chaos) = phases.setup(|| {
        let world = build_world(spec, &shape, rep);
        let chaos = (shape.faults > 0).then(|| {
            let chaos = ChaosScheduler::new(&world.net);
            plan_storm(spec.seed, &shape, &world, &chaos);
            chaos
        });
        (world, chaos)
    });

    // Timed region: first write → everything written and delivered.
    let mut phase_rng = DetRng::from_seed(spec.seed ^ 0x9e37_79b9_7f4a_7c15);
    let events_before = world.engine.executed();
    let started = world.engine.now();
    phases.timed(|| {
        for rig in &world.rooms {
            // Streams start out of phase with each other, within a period.
            let phase = phase_rng.range_inclusive(0, rig.clock.period.as_micros() - 1);
            rig.clock.t0.set(started + SimDuration::from_micros(phase));
            rig.writer.pump();
        }
        let end = started + stream + DRAIN;
        spans::within("netsim.Engine.run_until", || world.engine.run_until(end));
    });
    let events = world.engine.executed() - events_before;
    let ended = world.engine.now();
    let wall_s = phases.wall_s();

    phases.collect(|| {
        collect(spec, &shape, &world, chaos.as_ref(), ended, rep);
        rep.set("netsim.engine.events", events as f64);
        rep.set(
            "netsim.engine.ns_per_event",
            wall_s * 1e9 / events.max(1) as f64,
        );

        // Everyone leaves: the prune half of the membership path.
        for rig in &world.rooms {
            for &peer in &rig.peers {
                spans::within("cm-session.Room.leave", || rig.room.leave(peer));
            }
        }
        run_engine_for(&world.engine, SimDuration::from_secs(1));
        let stragglers: usize = world.rooms.iter().map(|r| r.room.peers().len() - 1).sum();
        rep.check(
            "every receiver left",
            stragglers == 0,
            format!("peers_still_in_rooms={stragglers}"),
        );

        if spec.traced {
            let tel = world.engine.telemetry();
            let zone = world
                .obs
                .finish_report(0, world.engine.now().as_micros(), tel.overflow());
            let counters = report_program_tracing(rep, std::slice::from_ref(&zone), &[tel]);
            if chaos.is_some() {
                rep.set(
                    "cm-transport.heal.repair_ms_p50",
                    counters.heal_repair_ms_p50(),
                );
            }
            render_and_export(rep, std::slice::from_ref(&zone), &[tel]);
        }
    });
    // See city.rs: the world is left for process exit to reclaim.
    std::mem::forget(world);
}

fn collect(
    spec: &SampleSpec,
    shape: &Shape,
    world: &World,
    chaos: Option<&ChaosScheduler>,
    ended: SimTime,
    rep: &mut Report,
) {
    let listeners = || world.rooms.iter().flat_map(|r| r.listeners.iter());

    // Latency over every delivery, from the due instant.
    let mut latencies: Vec<u64> = Vec::new();
    for l in listeners() {
        latencies.extend(l.latencies_us.borrow().iter().map(|&v| u64::from(v)));
    }
    latencies.sort_unstable();
    if !latencies.is_empty() {
        rep.set(
            "osdu_latency_p50_ms",
            percentile_sorted(&latencies, 50.0) as f64 / 1e3,
        );
        rep.set(
            "osdu_latency_p99_ms",
            percentile_sorted(&latencies, 99.0) as f64 / 1e3,
        );
    }
    rep.note("latency_samples", latencies.len());
    rep.check(
        "enough deliveries for p99",
        highest_supported_percentile(latencies.len()).is_some_and(|p| p >= 99.0)
            && (spec.smoke || latencies.len() >= 100_000),
        format!("latency_samples={}", latencies.len()),
    );

    let due: u64 = world
        .rooms
        .iter()
        .map(|r| r.writer.total * r.listeners.len() as u64)
        .sum();
    let received: u64 = listeners().map(|l| l.received.get()).sum();
    let late: u64 = listeners().map(|l| l.late.get()).sum();
    let disorder: u64 = listeners().map(|l| l.disorder.get()).sum();
    let never = due.saturating_sub(received);
    rep.set(
        "deadline_miss_ratio",
        (late + never) as f64 / due.max(1) as f64,
    );
    rep.note(
        "deadline_misses",
        format!("{}/{due} (late={late} never={never})", late + never),
    );
    rep.set("cm-session.on_media.calls", received as f64);

    let calls: u64 = world.rooms.iter().map(|r| r.writer.calls.get()).sum();
    let backpressured: u64 = world
        .rooms
        .iter()
        .map(|r| r.writer.backpressured.get())
        .sum();
    let written: u64 = world.rooms.iter().map(|r| r.writer.next.get()).sum();
    let scheduled: u64 = world.rooms.iter().map(|r| r.writer.total).sum();
    let write_errors: u64 = world.rooms.iter().map(|r| r.writer.errors.get()).sum();
    rep.set("cm-transport.write_osdu.calls", calls as f64);
    rep.set(
        "cm-transport.write_osdu.backpressure_ratio",
        backpressured as f64 / calls.max(1) as f64,
    );
    // Under chaos a parked writer may legitimately end the run behind its
    // schedule; what it did not write counts as never arrived above.
    rep.check(
        "every OSDU written",
        write_errors == 0 && (chaos.is_some() || written == scheduled),
        format!("written={written} scheduled={scheduled} write_errors={write_errors}"),
    );

    let mut joins = world.join_sim_us.clone();
    joins.sort_unstable();
    rep.set(
        "cm-session.join.calls",
        (joins.len() as u64 + world.joins_denied + ROOMS as u64) as f64,
    );
    if !joins.is_empty() {
        rep.set(
            "cm-session.join.sim_ms_p50",
            percentile_sorted(&joins, 50.0) as f64 / 1e3,
        );
        rep.set(
            "cm-session.join.sim_ms_p99",
            percentile_sorted(&joins, 99.0) as f64 / 1e3,
        );
    }
    rep.check(
        "joins_denied == 0",
        world.joins_denied == 0,
        format!("joins_denied={}", world.joins_denied),
    );

    let host = |f: fn(&Host) -> u64| world.rooms.iter().map(|r| f(&r.host)).sum::<u64>();
    let member_lost = host(|h| h.member_lost.get());
    rep.set(
        "cm-session.health.degraded",
        host(|h| h.degraded.get()) as f64,
    );
    rep.set(
        "cm-session.health.recovered",
        host(|h| h.recovered.get()) as f64,
    );
    rep.set("cm-session.health.member_lost", member_lost as f64);

    match chaos {
        None => {
            // Clean network: every receiver sees every OSDU once, in order.
            rep.check(
                "every receiver sees every seq exactly once, in order",
                disorder == 0 && never == 0,
                format!("missing_duplicate_or_reordered={disorder} never_arrived={never}"),
            );
            rep.ops(due, disorder.max(never));
        }
        Some(chaos) => {
            chaos_outcome(shape, world, &chaos.history(), ended, member_lost, rep);
        }
    }
}

/// How long a transient lasts, in ms: shorter than the ~340 ms a source
/// takes to run out of credit, so the stack rides it out unrepaired.
const TRANSIENT_MS: (u64, u64) = (50, 250);
/// How long a link stays down, in ms: long enough that the healer's first
/// probe (credit stall + 400 ms patience, under 900 ms after the cut) still
/// finds the link down and regrafts over the backup hub.
const OUTAGE_MS: (u64, u64) = (1_200, 2_500);
/// The down and up phases of a flap, in ms; a down phase is an outage.
const FLAP_DOWN_MS: (u64, u64) = (1_200, 2_000);
const FLAP_UP_MS: (u64, u64) = (300, 800);
/// Quiet between the end of one fault and the next injection, in ms.
const QUIET_MS: (u64, u64) = (2_000, 4_000);

/// Draw the storm from the seed and hand it to the scheduler: one fault
/// at a time, each healed and followed by 2–4 quiet seconds before the
/// next, in two acts.
///
/// Act one (three faults in five) is transients: partitions and
/// member-node crashes of 50–250 ms, which the stack must ride out. Act
/// two is link faults on the links in use (a leaf's primary homing, either
/// direction): down 1.2–2.5 s, or flapping with down phases as long; they
/// outlast the healer's 400 ms patience and are repaired by reroute/regraft
/// over the backup hub.
///
/// Both the order and the durations are forced by the program as it
/// stands, and a workload must be one on which no operation fails:
///
/// * After a link repair the stream keeps the delay it accumulated (the VC
///   paces at the media rate, so a backlog never drains) and its
///   starved-QoS reports keep repair probes firing; a member that is
///   unreachable — even for 50 ms — at the instant a probe fires is evicted
///   for good. Transients after link faults would lose members on most
///   seeds, so they come first.
/// * An outage of 0.35–0.9 s wedges its stream for good: the source runs
///   out of credit on OSDUs the dead link swallowed, but the link is back
///   before the first probe fires, the probe finds nothing broken and never
///   unsticks the source (the gap `heal.rs` documents as "bounded by
///   `heal_patience`"). No fault here lasts that long without lasting longer.
fn plan_storm(seed: u64, shape: &Shape, world: &World, chaos: &ChaosScheduler) {
    let mut rng = DetRng::from_seed(seed ^ 0xc4a0_5bad_f00d_cafe);
    let ms = |rng: &mut DetRng, (lo, hi): (u64, u64)| {
        SimDuration::from_millis(rng.range_inclusive(lo, hi))
    };
    let links = &world.primary_links;
    let start = world.engine.now();
    let last = SimDuration::from_secs(shape.stream_secs).saturating_sub(QUIET_TAIL);
    let mut at = ms(&mut rng, QUIET_MS);
    let transients = shape.faults * 3 / 5;
    for i in 0..shape.faults {
        let pick_link =
            |rng: &mut DetRng| links[rng.range_inclusive(0, links.len() as u64 - 1) as usize];
        let pick_receiver = |rng: &mut DetRng| {
            world.receivers[rng.range_inclusive(0, world.receivers.len() as u64 - 1) as usize]
        };
        let (fault, lasts) = match rng.range_inclusive(0, 1) + if i < transients { 2 } else { 0 } {
            0 => {
                let down = ms(&mut rng, OUTAGE_MS);
                (
                    Fault::LinkDown {
                        link: pick_link(&mut rng),
                        down_for: Some(down),
                    },
                    down,
                )
            }
            1 => {
                let (down, up) = (ms(&mut rng, FLAP_DOWN_MS), ms(&mut rng, FLAP_UP_MS));
                let cycles = rng.range_inclusive(2, 3) as u32;
                (
                    Fault::LinkFlap {
                        link: pick_link(&mut rng),
                        down_for: down,
                        up_for: up,
                        cycles,
                    },
                    (down + up).saturating_mul(u64::from(cycles)),
                )
            }
            2 => {
                let heal = ms(&mut rng, TRANSIENT_MS);
                let k = rng.range_inclusive(1, world.receivers.len() as u64 / 2) as usize;
                let first = rng.range_inclusive(0, (world.receivers.len() - k) as u64) as usize;
                (
                    Fault::Partition {
                        side: world.receivers[first..first + k].to_vec(),
                        heal_after: Some(heal),
                    },
                    heal,
                )
            }
            _ => {
                let down = ms(&mut rng, TRANSIENT_MS);
                (
                    Fault::NodeCrash {
                        node: pick_receiver(&mut rng),
                        down_for: Some(down),
                    },
                    down,
                )
            }
        };
        if at + lasts > last {
            break;
        }
        chaos.inject_at(start + at, fault);
        at = at + lasts + ms(&mut rng, QUIET_MS);
    }
}

/// Per injected fault, the longest delivery gap any receiver saw while
/// the fault was in force, minus the stream period.
fn chaos_outcome(
    shape: &Shape,
    world: &World,
    history: &[ChaosRecord],
    ended: SimTime,
    member_lost: u64,
    rep: &mut Report,
) {
    // The history names no victim, so an injection is paired with the
    // next heal of its class, first in first out.
    let mut faults: Vec<(SimTime, Option<SimTime>)> = Vec::new();
    let mut open: Vec<(FaultClass, usize)> = Vec::new();
    for rec in history {
        if !rec.heal {
            open.push((rec.class, faults.len()));
            faults.push((rec.at, None));
        } else if let Some(pos) = open.iter().position(|&(class, _)| class == rec.class) {
            faults[open.remove(pos).1].1 = Some(rec.at);
        }
    }
    let healed = faults.iter().filter(|f| f.1.is_some()).count();
    let faults: Vec<(SimTime, SimTime)> = faults
        .into_iter()
        .map(|(at, heal)| (at, heal.unwrap_or(ended)))
        .collect();
    rep.set("cm-chaos.injected", faults.len() as f64);
    rep.set("cm-chaos.healed", healed as f64);

    let mut outages_us: Vec<u64> = vec![0; faults.len()];
    let mut never_resumed = vec![false; faults.len()];
    for rig in &world.rooms {
        let period = rig.clock.period;
        let last_due = rig.clock.due(rig.writer.total - 1);
        for l in &rig.listeners {
            let mut gaps = l.gaps.borrow().clone();
            // A stream silent from its last arrival to the end of its
            // schedule never resumed.
            let tail = l.last_arrival.get().unwrap_or(rig.clock.t0.get());
            let dead = last_due.saturating_since(tail) > period.saturating_mul(2);
            if dead {
                gaps.push((tail, ended));
            }
            for (gi, &(from, to)) in gaps.iter().enumerate() {
                let len = to.saturating_since(from).saturating_sub(period).as_micros();
                for (fi, &(inject, heal)) in faults.iter().enumerate() {
                    if from <= heal && to >= inject {
                        outages_us[fi] = outages_us[fi].max(len);
                        if dead && gi + 1 == gaps.len() {
                            never_resumed[fi] = true;
                        }
                    }
                }
            }
        }
    }
    let stuck = never_resumed.iter().filter(|&&s| s).count() as u64;
    outages_us.sort_unstable();
    if !outages_us.is_empty() {
        rep.set(
            "outage_p50_ms",
            percentile_sorted(&outages_us, 50.0) as f64 / 1e3,
        );
        rep.set(
            "outage_p90_ms",
            percentile_sorted(&outages_us, 90.0) as f64 / 1e3,
        );
    }
    rep.check(
        "enough faults for p90",
        faults.len() >= shape.faults
            && (shape.faults < 100 || percentile_supported(faults.len(), 90.0)),
        format!("faults={} planned={}", faults.len(), shape.faults),
    );
    rep.ops(faults.len() as u64, stuck + member_lost);

    let links_down = (0..world.net.link_count() as u32)
        .filter(|&l| !world.net.is_link_up(LinkId(l)))
        .count();
    let nodes_down = (0..world.net.node_count() as u32)
        .filter(|&n| !world.net.is_node_up(NetAddr(n)))
        .count();
    rep.check(
        "network fully healed",
        links_down == 0 && nodes_down == 0 && healed == faults.len(),
        format!(
            "links_down={links_down} nodes_down={nodes_down} healed={healed} injected={}",
            faults.len()
        ),
    );
    let roster_short: usize = world
        .rooms
        .iter()
        .map(|r| (shape.receivers + 1).saturating_sub(r.room.peers().len()))
        .sum();
    let degraded: usize = world
        .rooms
        .iter()
        .map(|r| r.room.degraded_branches().len())
        .sum();
    rep.check(
        "roster intact",
        roster_short == 0 && member_lost == 0,
        format!(
            "peers_missing={roster_short} member_lost={member_lost} degraded_branches={degraded}"
        ),
    );
    rep.check(
        "every stream resumed",
        stuck == 0,
        format!("faults_whose_stream_never_resumed={stuck}"),
    );
}
