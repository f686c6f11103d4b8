//! Golden hashes of the transport entity's observable surface.
//!
//! Seven fixed-seed scenarios run with the flight recorder and the causal
//! tracer on, each exercising one family of transport decisions: rate-based
//! NACK repair, go-back-N with retransmission timeouts, group credit
//! stalls and member leave, renegotiation accept/refuse, and the three
//! self-healing outcomes on the dual-homed testbed (reroute, regraft with
//! a lost member, give-up). Per scenario the test pins the FNV-1a of
//!
//! - the telemetry JSONL export (every event, in emission order, with its
//!   simulated timestamp — so any moved engine event, send or timer shows);
//! - the sink-side delivery log, one `(vc, seq, at_us)` line per OSDU read;
//! - the rendered `cm-obs/v1` attribution report.
//!
//! A refactor of the transport entity must leave all three unchanged: they
//! are the noise-free guard that the effect order is the same.
//!
//! Run: `cargo test --release -p cm-integration-tests --test transport_golden`.
//! On a mismatch the test prints the new hashes in the same table form.

use cm_chaos::ChaosScheduler;
use cm_core::address::{AddressTriple, NetAddr, TransportAddr, Tsap, VcId};
use cm_core::error::DisconnectReason;
use cm_core::hash::fnv1a64;
use cm_core::media::MediaProfile;
use cm_core::osdu::Payload;
use cm_core::qos::{ErrorRate, QosParams, QosRequirement, QosTolerance};
use cm_core::rng::DetRng;
use cm_core::service_class::{ErrorControlClass, ProtocolProfile, ServiceClass};
use cm_core::time::{Bandwidth, SimDuration};
use cm_obs::{render_report, Obs};
use cm_testkit::FaultPlan;
use cm_transport::{EntityConfig, TransportService, TransportUser};
use netsim::{Engine, LinkParams, Network, NodeClock, TestbedConfig};
use std::cell::{Cell, RefCell};
use std::fmt::Write;
use std::rc::Rc;

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

/// One line per OSDU a sink application read: `(vc, seq, at_us)`.
type DeliveryLog = Rc<RefCell<Vec<(u64, u64, u64)>>>;

/// Accepts every connect; answers renegotiations with `accept_reneg`;
/// records the indications the scenarios assert on.
struct GoldUser {
    accept_reneg: Cell<bool>,
    disconnects: RefCell<Vec<(VcId, DisconnectReason)>>,
    leaves: RefCell<Vec<(NetAddr, DisconnectReason)>>,
    reneg_confirms: Cell<u32>,
}

impl GoldUser {
    fn new() -> Rc<GoldUser> {
        Rc::new(GoldUser {
            accept_reneg: Cell::new(true),
            disconnects: RefCell::new(Vec::new()),
            leaves: RefCell::new(Vec::new()),
            reneg_confirms: Cell::new(0),
        })
    }
}

impl TransportUser for GoldUser {
    fn t_connect_indication(
        &self,
        svc: &TransportService,
        vc: VcId,
        _triple: AddressTriple,
        _class: ServiceClass,
        _qos: QosRequirement,
    ) {
        svc.t_connect_response(vc, true).expect("accept");
    }

    fn t_disconnect_indication(&self, _svc: &TransportService, vc: VcId, reason: DisconnectReason) {
        self.disconnects.borrow_mut().push((vc, reason));
    }

    fn t_renegotiate_indication(&self, svc: &TransportService, vc: VcId, _tol: QosTolerance) {
        svc.t_renegotiate_response(vc, self.accept_reneg.get())
            .expect("renegotiation response");
    }

    fn t_renegotiate_confirm(&self, _svc: &TransportService, _vc: VcId, _qos: QosParams) {
        self.reneg_confirms.set(self.reneg_confirms.get() + 1);
    }

    fn t_group_leave_indication(
        &self,
        _svc: &TransportService,
        _vc: VcId,
        member: TransportAddr,
        reason: DisconnectReason,
    ) {
        self.leaves.borrow_mut().push((member.node, reason));
    }
}

/// A traced world: telemetry recorder and cm-obs registry shared by every
/// entity installed through [`Traced::install`].
struct Traced {
    net: Network,
    obs: Obs,
    log: DeliveryLog,
}

impl Traced {
    fn new(net: Network) -> Traced {
        net.engine()
            .telemetry()
            .enable(cm_telemetry::DEFAULT_CAPACITY);
        let obs = Obs::disabled();
        obs.enable();
        Traced {
            net,
            obs,
            log: Rc::new(RefCell::new(Vec::new())),
        }
    }

    fn config(&self) -> EntityConfig {
        EntityConfig {
            obs: self.obs.clone(),
            ..EntityConfig::default()
        }
    }

    fn install(&self, node: NetAddr, tsap: u16) -> (TransportService, Rc<GoldUser>) {
        let svc = TransportService::install(&self.net, node, self.config());
        let user = GoldUser::new();
        svc.bind(Tsap(tsap), user.clone()).expect("bind");
        (svc, user)
    }

    fn run_ms(&self, ms: u64) {
        self.net.engine().run_for(SimDuration::from_millis(ms));
    }

    fn counter(&self, name: &str) -> u64 {
        self.net.engine().telemetry().counter(name)
    }

    /// `(telemetry, delivery log, attribution report)` hashes.
    fn hashes(&self) -> [u64; 3] {
        let tel = self.net.engine().telemetry();
        assert_eq!(tel.overflow(), 0, "the whole trace is hashed");
        let jsonl = tel.export_jsonl();
        let mut log = String::new();
        for (vc, seq, at) in self.log.borrow().iter() {
            let _ = writeln!(log, "{vc} {seq} {at}");
        }
        let now = self.net.engine().now().as_micros();
        let report = render_report(&[self.obs.finish_report(0, now, tel.overflow())]);
        [
            fnv1a64(jsonl.as_bytes()),
            fnv1a64(log.as_bytes()),
            fnv1a64(report.as_bytes()),
        ]
    }
}

fn taddr(node: NetAddr, tsap: u16) -> TransportAddr {
    TransportAddr {
        node,
        tsap: Tsap(tsap),
    }
}

/// Writes `total` OSDUs of `size` bytes as fast as the send buffer allows.
fn drive_writer(svc: TransportService, vc: VcId, total: u64, size: usize) {
    fn step(svc: TransportService, vc: VcId, written: u64, total: u64, size: usize) {
        let mut written = written;
        while written < total {
            match svc.write_osdu(vc, Payload::synthetic(written, size), None) {
                Ok(true) => written += 1,
                Ok(false) => {
                    let Ok(buf) = svc.send_handle(vc) else { return };
                    let now = svc.now();
                    let engine = svc.network().engine().clone();
                    buf.park_producer(now, move || {
                        engine.schedule_in(SimDuration::ZERO, move |_| {
                            step(svc, vc, written, total, size)
                        });
                    });
                    return;
                }
                Err(_) => return,
            }
        }
    }
    step(svc, vc, 0, total, size);
}

/// Reads eagerly into `log` until the VC closes.
fn drive_reader(svc: TransportService, vc: VcId, log: DeliveryLog) {
    loop {
        match svc.read_osdu(vc) {
            Ok(Some(osdu)) => log
                .borrow_mut()
                .push((vc.0, osdu.seq(), svc.now().as_micros())),
            Ok(None) => {
                let Ok(buf) = svc.recv_handle(vc) else { return };
                let now = svc.now();
                let engine = svc.network().engine().clone();
                buf.park_consumer(now, move || {
                    engine.schedule_in(SimDuration::ZERO, move |_| drive_reader(svc, vc, log));
                });
                return;
            }
            Err(_) => return,
        }
    }
}

/// Reads one OSDU every `every` until the VC closes: a slow application
/// whose full receive buffer stalls the sender on credit.
fn slow_reader(svc: TransportService, vc: VcId, every: SimDuration, log: DeliveryLog) {
    match svc.read_osdu(vc) {
        Ok(Some(osdu)) => log
            .borrow_mut()
            .push((vc.0, osdu.seq(), svc.now().as_micros())),
        Ok(None) => {}
        Err(_) => return,
    }
    let engine = svc.network().engine().clone();
    engine.schedule_in(every, move |_| slow_reader(svc, vc, every, log));
}

/// Telephone audio that tolerates the lossy links below.
fn lossy_telephone_req() -> QosRequirement {
    let mut req = MediaProfile::audio_telephone().requirement();
    req.tolerance.preferred.packet_error_rate = ErrorRate::from_prob(0.10);
    req.tolerance.worst.packet_error_rate = ErrorRate::from_prob(0.20);
    req
}

fn lossy_link() -> LinkParams {
    let mut p = LinkParams::clean(Bandwidth::mbps(10), SimDuration::from_millis(5));
    p.loss = ErrorRate::from_prob(0.05);
    p
}

/// Two nodes over one link, an entity on each (tsap 1 at `a`, 2 at `b`),
/// and a VC `a → b` of `class`, open after the handshake.
fn two_node_vc(
    params: LinkParams,
    seed: u64,
    class: ServiceClass,
    req: QosRequirement,
) -> (Traced, [TransportService; 2], [Rc<GoldUser>; 2], VcId) {
    let (net, a, b) = netsim::two_node(Engine::new(), params, seed);
    let w = Traced::new(net);
    let (svc_a, user_a) = w.install(a, 1);
    let (svc_b, user_b) = w.install(b, 2);
    let vc = svc_a
        .t_connect_request(
            AddressTriple::conventional(taddr(a, 1), taddr(b, 2)),
            class,
            req,
        )
        .expect("connect request");
    w.run_ms(100);
    assert!(svc_a.is_open(vc), "VC must open");
    (w, [svc_a, svc_b], [user_a, user_b], vc)
}

// ---------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------

/// Rate-based unicast over a 5 %-loss link with detect+correct: NACKs,
/// unicast retransmissions from the cache, credit flow.
fn rate_unicast_nack() -> [u64; 3] {
    let (w, svc, _, vc) = two_node_vc(
        lossy_link(),
        11,
        ServiceClass::reliable_cm(),
        lossy_telephone_req(),
    );
    drive_writer(svc[0].clone(), vc, 300, 80);
    drive_reader(svc[1].clone(), vc, w.log.clone());
    w.run_ms(10_000);
    // A lost tail OSDU has no successor to reveal the gap; everything
    // before it is repaired.
    assert!(w.log.borrow().len() >= 295, "losses repaired by NACK");
    assert!(w.counter("net.pkt.drop") > 0, "the link must lose packets");
    w.hashes()
}

/// Window-based VC over the lossy link: go-back-N, duplicate acks and
/// retransmission timeouts (the profile no benchmark workload runs).
fn window_rto() -> [u64; 3] {
    let class = ServiceClass {
        profile: ProtocolProfile::WindowBased,
        error_control: ErrorControlClass::DetectCorrect,
    };
    let (w, svc, _, vc) = two_node_vc(lossy_link(), 12, class, lossy_telephone_req());
    drive_writer(svc[0].clone(), vc, 200, 80);
    drive_reader(svc[1].clone(), vc, w.log.clone());
    w.run_ms(20_000);
    assert_eq!(w.log.borrow().len(), 200, "window stream completes");
    assert!(w.counter("vc.rto") > 0, "the loss must fire an RTO");
    w.hashes()
}

/// A group VC to three receivers behind a hub, one of them reading one
/// OSDU per 100 ms: the group credit floor stalls and resumes the sender.
/// A fast member then leaves, and the stream runs on to the end.
fn group_slow_reader_leave() -> [u64; 3] {
    let net = Network::new(Engine::new());
    let mut rng = DetRng::from_seed(13);
    let p = LinkParams::clean(Bandwidth::mbps(10), SimDuration::from_millis(2));
    let root = net.add_node(NodeClock::perfect());
    let hub = net.add_node(NodeClock::perfect());
    net.add_duplex(root, hub, p.clone(), &mut rng);
    let members: Vec<NetAddr> = (0..3)
        .map(|_| {
            let m = net.add_node(NodeClock::perfect());
            net.add_duplex(hub, m, p.clone(), &mut rng);
            m
        })
        .collect();
    let w = Traced::new(net);
    let (svc_root, user_root) = w.install(root, 1);
    let svcs: Vec<TransportService> = members.iter().map(|&m| w.install(m, 2).0).collect();
    let req = MediaProfile::audio_telephone().requirement();
    let vc = svc_root
        .t_group_open(Tsap(1), ServiceClass::cm_default(), req)
        .expect("group open");
    for &m in &members {
        svc_root
            .t_group_add_receiver(vc, taddr(m, 2))
            .expect("invite");
    }
    w.run_ms(100);
    assert_eq!(svc_root.group_receivers(vc).expect("group").len(), 3);
    drive_writer(svc_root.clone(), vc, 400, 80);
    drive_reader(svcs[0].clone(), vc, w.log.clone());
    drive_reader(svcs[1].clone(), vc, w.log.clone());
    slow_reader(
        svcs[2].clone(),
        vc,
        SimDuration::from_millis(100),
        w.log.clone(),
    );
    w.run_ms(3_000);
    svcs[0].t_disconnect_request(vc).expect("member leaves");
    w.run_ms(40_000);
    assert!(w.counter("vc.credit.stall") > 0, "the slow member stalls");
    assert_eq!(
        user_root.leaves.borrow().as_slice(),
        &[(members[0], DisconnectReason::UserRelease)]
    );
    w.hashes()
}

/// One accepted renegotiation (upgrade to CD-audio bandwidth) mid-stream,
/// then one the sink user refuses while the request is pending.
fn renegotiate_accept_refuse() -> [u64; 3] {
    let (w, svc, user, vc) = two_node_vc(
        LinkParams::clean(Bandwidth::mbps(10), SimDuration::from_millis(1)),
        14,
        ServiceClass::cm_default(),
        MediaProfile::audio_telephone().requirement(),
    );
    drive_writer(svc[0].clone(), vc, 150, 80);
    drive_reader(svc[1].clone(), vc, w.log.clone());
    w.run_ms(1_000);
    svc[0]
        .t_renegotiate_request(vc, MediaProfile::audio_cd().tolerance(75))
        .expect("renegotiate");
    w.run_ms(1_000);
    user[1].accept_reneg.set(false);
    svc[0]
        .t_renegotiate_request(vc, MediaProfile::audio_telephone().tolerance(50))
        .expect("renegotiate");
    w.run_ms(3_000);
    assert_eq!(user[0].reneg_confirms.get(), 1);
    assert_eq!(
        user[0].disconnects.borrow().as_slice(),
        &[(vc, DisconnectReason::RenegotiationRefused)]
    );
    w.hashes()
}

/// The dual-homed testbed (every node on a primary and a backup switch)
/// with an entity on each workstation (tsap 2) and the server (tsap 1).
struct Resilient {
    w: Traced,
    switch: NetAddr,
    server: NetAddr,
    ws: Vec<NetAddr>,
    svc_server: TransportService,
    user_server: Rc<GoldUser>,
    svc_ws: Vec<TransportService>,
}

fn resilient(seed: u64) -> Resilient {
    let tb = TestbedConfig {
        seed,
        ..TestbedConfig::lancaster()
    }
    .build_resilient(Engine::new());
    let w = Traced::new(tb.net.clone());
    let server = tb.servers[0];
    let (svc_server, user_server) = w.install(server, 1);
    let svc_ws = tb.workstations.iter().map(|&n| w.install(n, 2).0).collect();
    Resilient {
        w,
        switch: tb.switch,
        server,
        ws: tb.workstations,
        svc_server,
        user_server,
        svc_ws,
    }
}

impl Resilient {
    /// A reliable telephone VC server → workstation `i`, streaming.
    fn stream_to(&self, i: usize, total: u64) -> VcId {
        let vc = self
            .svc_server
            .t_connect_request(
                AddressTriple::conventional(taddr(self.server, 1), taddr(self.ws[i], 2)),
                ServiceClass::reliable_cm(),
                MediaProfile::audio_telephone().requirement(),
            )
            .expect("connect request");
        self.w.run_ms(50);
        assert!(self.svc_server.is_open(vc), "VC must open");
        drive_writer(self.svc_server.clone(), vc, total, 80);
        drive_reader(self.svc_ws[i].clone(), vc, self.w.log.clone());
        vc
    }
}

/// Permanent `link_down` on the server's primary access link mid-stream:
/// the probe moves the reservation onto the backup switch and unsticks
/// the stream.
fn resilient_reroute() -> [u64; 3] {
    let r = resilient(21);
    let vc = r.stream_to(0, 300);
    let chaos = ChaosScheduler::new(&r.w.net);
    FaultPlan::new()
        .at_ms(1_000)
        .link_down(r.server, r.switch)
        .schedule(&chaos);
    r.w.run_ms(20_000);
    assert!(r.w.counter("vc.reroute") >= 1, "reroute happened");
    assert_eq!(r.svc_server.heal_stats(vc).1, r.w.counter("vc.reroute"));
    assert_eq!(r.w.log.borrow().last().map(|l| l.1), Some(299));
    r.w.hashes()
}

/// A group VC from the server to all three workstations; one workstation
/// is partitioned off for good. The regraft prunes it with a typed leave
/// and the two survivors stream on.
fn resilient_regraft_lost_member() -> [u64; 3] {
    let r = resilient(22);
    let vc = r
        .svc_server
        .t_group_open(
            Tsap(1),
            ServiceClass::cm_default(),
            MediaProfile::audio_telephone().requirement(),
        )
        .expect("group open");
    for &m in &r.ws {
        r.svc_server
            .t_group_add_receiver(vc, taddr(m, 2))
            .expect("invite");
    }
    r.w.run_ms(100);
    drive_writer(r.svc_server.clone(), vc, 300, 80);
    for svc in &r.svc_ws {
        drive_reader(svc.clone(), vc, r.w.log.clone());
    }
    let chaos = ChaosScheduler::new(&r.w.net);
    FaultPlan::new()
        .at_ms(1_000)
        .partition(&[r.ws[2]])
        .schedule(&chaos);
    r.w.run_ms(20_000);
    assert!(r.w.counter("mcast.regraft") >= 1, "regraft happened");
    assert_eq!(
        r.user_server.leaves.borrow().as_slice(),
        &[(r.ws[2], DisconnectReason::Unreachable)]
    );
    let finished = r.w.log.borrow().iter().filter(|l| l.1 == 299).count();
    assert_eq!(finished, 2, "both surviving members reach the end");
    r.w.hashes()
}

/// The sink workstation crashes for good mid-stream: every probe finds no
/// route, the backoff runs out, and the source gives up with a typed
/// `Unreachable` disconnect.
fn resilient_giveup() -> [u64; 3] {
    let r = resilient(23);
    let vc = r.stream_to(1, 300);
    let chaos = ChaosScheduler::new(&r.w.net);
    FaultPlan::new()
        .at_ms(1_000)
        .node_crash(r.ws[1])
        .schedule(&chaos);
    r.w.run_ms(30_000);
    assert_eq!(r.w.counter("vc.heal.giveup"), 1);
    assert_eq!(
        r.user_server.disconnects.borrow().as_slice(),
        &[(vc, DisconnectReason::Unreachable)]
    );
    assert!(!r.svc_server.is_open(vc));
    r.w.hashes()
}

// ---------------------------------------------------------------------
// The golden table
// ---------------------------------------------------------------------

type Scenario = fn() -> [u64; 3];

/// `(name, scenario, [telemetry, delivery log, obs report])`.
const GOLDEN: &[(&str, Scenario, [u64; 3])] = &[
    (
        "rate_unicast_nack",
        rate_unicast_nack,
        [0xa1d8f36ed326719c, 0xec93bfdd0a3c0462, 0x43173293558a1fc6],
    ),
    (
        "window_rto",
        window_rto,
        [0xb4d8aa8325783225, 0x2ac689c73f57865e, 0x04448b7c513f7b03],
    ),
    (
        "group_slow_reader_leave",
        group_slow_reader_leave,
        [0xb20a97b343809163, 0x5bdfd8118d8edb6c, 0xcc7aefc348b0a986],
    ),
    (
        "renegotiate_accept_refuse",
        renegotiate_accept_refuse,
        [0x52d8c664afc055f4, 0xef9ddeebeffa89ec, 0x5d37d41e9e9de318],
    ),
    (
        "resilient_reroute",
        resilient_reroute,
        [0xc7aa379e64463109, 0xde9d78901c212bca, 0x295eadf7c9f52247],
    ),
    (
        "resilient_regraft_lost_member",
        resilient_regraft_lost_member,
        [0x7c0b4bfa1c4438f7, 0xd41bad76001dcd5b, 0xb332b1b95ed2b743],
    ),
    (
        "resilient_giveup",
        resilient_giveup,
        [0x9f6ea6e1f3290e33, 0xe124e2e07ae6e1ee, 0xd50de22d4670a8f3],
    ),
];

#[test]
fn transport_surface_matches_golden_hashes() {
    let mut table = String::new();
    let mut mismatched = Vec::new();
    for &(name, scenario, want) in GOLDEN {
        let got = scenario();
        let _ = writeln!(
            table,
            "    (\"{name}\", {name}, [{:#018x}, {:#018x}, {:#018x}]),",
            got[0], got[1], got[2]
        );
        if got != want {
            mismatched.push(name);
        }
    }
    assert!(
        mismatched.is_empty(),
        "transport surface moved in {mismatched:?}; hashes now:\n{table}"
    );
}

/// The scenarios are deterministic: a second run hashes the same.
#[test]
fn golden_scenarios_replay_identically() {
    assert_eq!(rate_unicast_nack(), rate_unicast_nack());
    assert_eq!(
        resilient_regraft_lost_member(),
        resilient_regraft_lost_member()
    );
}
