//! End-to-end tests of 1:N group VCs: shared-tree delivery (each OSDU on
//! the source's first-hop link exactly once), heterogeneous-receiver
//! admission and degradation (§3.2), per-receiver error control (§3.4),
//! branch-scoped reservation release, mid-stream joins and group teardown.

use cm_core::address::{AddressTriple, NetAddr, TransportAddr, Tsap, VcId};
use cm_core::error::{DisconnectReason, ServiceError};
use cm_core::media::MediaProfile;
use cm_core::osdu::Payload;
use cm_core::qos::{ErrorRate, QosParams, QosRequirement, QosTolerance};
use cm_core::rng::DetRng;
use cm_core::service_class::{ErrorControlClass, ProtocolProfile, ServiceClass};
use cm_core::time::{Bandwidth, SimDuration, SimTime};
use cm_transport::{EntityConfig, TransportService, TransportUser};
use netsim::{Engine, LinkParams, Network, NodeClock};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

#[derive(Debug)]
#[allow(dead_code)] // payloads read through Debug in failure messages
enum Ev {
    ConnectInd(VcId),
    Disconnect(VcId, DisconnectReason),
    JoinConfirm(VcId, NetAddr, Result<QosParams, DisconnectReason>),
    LeaveInd(VcId, NetAddr, DisconnectReason),
    GroupQos(VcId, NetAddr),
    ErrorInd(VcId, u64),
}

struct GroupUser {
    events: RefCell<Vec<Ev>>,
    accept_connect: Cell<bool>,
}

impl GroupUser {
    fn new() -> Rc<GroupUser> {
        Rc::new(GroupUser {
            events: RefCell::new(Vec::new()),
            accept_connect: Cell::new(true),
        })
    }

    fn join_confirms(&self) -> Vec<(NetAddr, Result<QosParams, DisconnectReason>)> {
        self.events
            .borrow()
            .iter()
            .filter_map(|e| match e {
                Ev::JoinConfirm(_, m, r) => Some((*m, r.clone())),
                _ => None,
            })
            .collect()
    }

    fn error_inds(&self) -> usize {
        self.events
            .borrow()
            .iter()
            .filter(|e| matches!(e, Ev::ErrorInd(..)))
            .count()
    }
}

impl TransportUser for GroupUser {
    fn t_connect_indication(
        &self,
        svc: &TransportService,
        vc: VcId,
        _triple: AddressTriple,
        _class: ServiceClass,
        _qos: QosRequirement,
    ) {
        self.events.borrow_mut().push(Ev::ConnectInd(vc));
        svc.t_connect_response(vc, self.accept_connect.get())
            .expect("respond");
    }

    fn t_disconnect_indication(&self, _svc: &TransportService, vc: VcId, reason: DisconnectReason) {
        self.events.borrow_mut().push(Ev::Disconnect(vc, reason));
    }

    fn t_error_indication(&self, _svc: &TransportService, vc: VcId, seq: u64) {
        self.events.borrow_mut().push(Ev::ErrorInd(vc, seq));
    }

    fn t_group_join_confirm(
        &self,
        _svc: &TransportService,
        vc: VcId,
        member: TransportAddr,
        result: Result<QosParams, DisconnectReason>,
    ) {
        self.events
            .borrow_mut()
            .push(Ev::JoinConfirm(vc, member.node, result));
    }

    fn t_group_leave_indication(
        &self,
        _svc: &TransportService,
        vc: VcId,
        member: TransportAddr,
        reason: DisconnectReason,
    ) {
        self.events
            .borrow_mut()
            .push(Ev::LeaveInd(vc, member.node, reason));
    }

    fn t_group_qos_indication(
        &self,
        _svc: &TransportService,
        vc: VcId,
        member: NetAddr,
        _report: cm_transport::QosReport,
    ) {
        self.events.borrow_mut().push(Ev::GroupQos(vc, member));
    }
}

struct GroupWorld {
    net: Network,
    svcs: Vec<TransportService>,
    users: Vec<Rc<GroupUser>>,
    nodes: Vec<NetAddr>,
}

impl GroupWorld {
    fn addr(&self, i: usize) -> TransportAddr {
        TransportAddr {
            node: self.nodes[i],
            tsap: Tsap(if i == 0 { 1 } else { 2 }),
        }
    }

    fn run_ms(&self, ms: u64) {
        self.net.engine().run_for(SimDuration::from_millis(ms));
    }
}

fn clean() -> LinkParams {
    LinkParams::clean(Bandwidth::mbps(10), SimDuration::from_millis(1))
}

/// Star: node 0 (sender) — node 1 (hub) — nodes 2.. (receivers), one
/// receiver per entry in `branches` giving that branch's hub→receiver
/// params (the reverse direction is always clean, so feedback is lossless).
fn star(branches: &[LinkParams]) -> GroupWorld {
    let net = Network::new(Engine::new());
    let mut rng = DetRng::from_seed(11);
    let n = branches.len() + 2;
    let nodes: Vec<NetAddr> = (0..n).map(|_| net.add_node(NodeClock::perfect())).collect();
    net.add_duplex(nodes[0], nodes[1], clean(), &mut rng);
    for (i, p) in branches.iter().enumerate() {
        let r = nodes[2 + i];
        net.add_link(nodes[1], r, p.clone(), rng.fork(&format!("fwd{i}")));
        net.add_link(r, nodes[1], clean(), rng.fork(&format!("rev{i}")));
    }
    finish(net, nodes)
}

/// Chain: node 0 (sender) — node 1 — node 2 — …, clean links throughout.
fn chain(n: usize) -> GroupWorld {
    let net = Network::new(Engine::new());
    let mut rng = DetRng::from_seed(11);
    let nodes: Vec<NetAddr> = (0..n).map(|_| net.add_node(NodeClock::perfect())).collect();
    for w in nodes.windows(2) {
        net.add_duplex(w[0], w[1], clean(), &mut rng);
    }
    finish(net, nodes)
}

fn finish(net: Network, nodes: Vec<NetAddr>) -> GroupWorld {
    let mut svcs = Vec::new();
    let mut users = Vec::new();
    for (i, &node) in nodes.iter().enumerate() {
        let svc = TransportService::install(&net, node, EntityConfig::default());
        let user = GroupUser::new();
        svc.bind(Tsap(if i == 0 { 1 } else { 2 }), user.clone())
            .expect("bind");
        svcs.push(svc);
        users.push(user);
    }
    GroupWorld {
        net,
        svcs,
        users,
        nodes,
    }
}

fn telephone_req() -> QosRequirement {
    MediaProfile::audio_telephone().requirement()
}

/// Telephone audio that tolerates a lossy path (negotiation would
/// correctly refuse the 5%-loss branch otherwise).
fn lossy_telephone_req() -> QosRequirement {
    let mut req = telephone_req();
    req.tolerance.preferred.packet_error_rate = ErrorRate::from_prob(0.10);
    req.tolerance.worst.packet_error_rate = ErrorRate::from_prob(0.20);
    req
}

/// A requirement whose throughput tolerance spans 2 Mb/s (preferred) down
/// to 1 Mb/s (worst-acceptable), with slack everywhere else — so link
/// capacity alone decides admission and degradation.
fn spanning_req() -> QosRequirement {
    let mut req = telephone_req();
    req.tolerance.preferred.throughput = Bandwidth::kbps(2_000);
    req.tolerance.preferred.delay = SimDuration::from_millis(500);
    req.tolerance.preferred.jitter = SimDuration::from_millis(50);
    req.tolerance.worst.throughput = Bandwidth::kbps(1_000);
    req.tolerance.worst.delay = SimDuration::from_secs(1);
    req.tolerance.worst.jitter = SimDuration::from_millis(100);
    req
}

/// Writes `total` OSDUs of `size` bytes as fast as the send buffer allows.
fn drive_writer(svc: TransportService, vc: VcId, total: u64, size: usize) {
    let written = Rc::new(Cell::new(0u64));
    fn step(svc: TransportService, vc: VcId, total: u64, size: usize, written: Rc<Cell<u64>>) {
        loop {
            if written.get() >= total {
                return;
            }
            match svc.write_osdu(vc, Payload::synthetic(written.get(), size), None) {
                Ok(true) => written.set(written.get() + 1),
                Ok(false) => {
                    let buf = svc.send_handle(vc).expect("send handle");
                    let now = svc.now();
                    let svc2 = svc.clone();
                    let engine = svc.network().engine().clone();
                    buf.park_producer(now, move || {
                        let svc3 = svc2.clone();
                        let w = written.clone();
                        engine.schedule_in(SimDuration::ZERO, move |_| {
                            step(svc3, vc, total, size, w)
                        });
                    });
                    return;
                }
                Err(_) => return,
            }
        }
    }
    step(svc, vc, total, size, written);
}

/// Eagerly reads OSDUs, recording `(time, seq)`.
fn drive_reader(svc: TransportService, vc: VcId) -> Rc<RefCell<Vec<(SimTime, u64)>>> {
    let got = Rc::new(RefCell::new(Vec::new()));
    fn step(svc: TransportService, vc: VcId, got: Rc<RefCell<Vec<(SimTime, u64)>>>) {
        loop {
            match svc.read_osdu(vc) {
                Ok(Some(osdu)) => got.borrow_mut().push((svc.now(), osdu.seq())),
                Ok(None) => {
                    let buf = match svc.recv_handle(vc) {
                        Ok(b) => b,
                        Err(_) => return,
                    };
                    let now = svc.now();
                    let svc2 = svc.clone();
                    let engine = svc.network().engine().clone();
                    let g = got.clone();
                    buf.park_consumer(now, move || {
                        let svc3 = svc2.clone();
                        let engine2 = engine.clone();
                        engine2.schedule_in(SimDuration::ZERO, move |_| step(svc3, vc, g));
                    });
                    return;
                }
                Err(_) => return,
            }
        }
    }
    let g = got.clone();
    step(svc, vc, g);
    got
}

fn seqs_of(got: &Rc<RefCell<Vec<(SimTime, u64)>>>) -> Vec<u64> {
    got.borrow().iter().map(|&(_, s)| s).collect()
}

/// Open a group VC at the sender and admit receivers `2..2+n`.
fn open_group(w: &GroupWorld, class: ServiceClass, req: QosRequirement, n: usize) -> VcId {
    let vc = w.svcs[0].t_group_open(Tsap(1), class, req).expect("open");
    for i in 0..n {
        w.svcs[0]
            .t_group_add_receiver(vc, w.addr(2 + i))
            .expect("invite");
        w.run_ms(20);
    }
    assert_eq!(
        w.svcs[0].group_receivers(vc).expect("receivers").len(),
        n,
        "not all receivers admitted: {:?}",
        w.users[0].join_confirms()
    );
    vc
}

// ---------------------------------------------------------------------
// Delivery over the shared tree
// ---------------------------------------------------------------------

#[test]
fn group_vc_delivers_to_all_while_first_hop_carries_stream_once() {
    let w = star(&[clean(), clean(), clean()]);
    let vc = open_group(&w, ServiceClass::cm_default(), telephone_req(), 3);
    // All handshake traffic is done: every first-hop packet from here on
    // is the data stream itself.
    let first_hop = w.net.route(w.nodes[0], w.nodes[1]).unwrap()[0];
    let base = w.net.link_counters(first_hop).submitted;
    drive_writer(w.svcs[0].clone(), vc, 100, 80);
    let got: Vec<_> = (0..3)
        .map(|i| drive_reader(w.svcs[2 + i].clone(), vc))
        .collect();
    w.run_ms(4_000);
    for (i, g) in got.iter().enumerate() {
        assert_eq!(
            seqs_of(g),
            (0..100).collect::<Vec<_>>(),
            "receiver {i} stream diverges"
        );
    }
    // 1:N but the source link carried each OSDU exactly once.
    assert_eq!(w.net.link_counters(first_hop).submitted - base, 100);
    // One shared-tree reservation, not one per receiver.
    assert_eq!(w.net.reservation_count(), 1);
}

#[test]
fn midstream_join_starts_at_the_join_point() {
    let w = star(&[clean(), clean()]);
    let vc = open_group(&w, ServiceClass::reliable_cm(), telephone_req(), 1);
    drive_writer(w.svcs[0].clone(), vc, 150, 80);
    let early = drive_reader(w.svcs[2].clone(), vc);
    w.run_ms(1_000); // ~50 OSDUs into the stream
    w.svcs[0]
        .t_group_add_receiver(vc, w.addr(3))
        .expect("late invite");
    w.run_ms(50);
    let late = drive_reader(w.svcs[3].clone(), vc);
    w.run_ms(4_000);
    // The early receiver saw everything.
    assert_eq!(seqs_of(&early), (0..150).collect::<Vec<_>>());
    // The late receiver saw a contiguous suffix starting near its join
    // point — and none of the pre-join stream counted as loss.
    let late_seqs = seqs_of(&late);
    let first = *late_seqs.first().expect("late receiver got data");
    assert!(
        (40..=60).contains(&first),
        "late join should start near seq 50, started at {first}"
    );
    assert_eq!(late_seqs, (first..150).collect::<Vec<_>>());
    assert_eq!(w.users[3].error_inds(), 0, "pre-join stream counted lost");
}

// ---------------------------------------------------------------------
// Heterogeneous receivers (§3.2)
// ---------------------------------------------------------------------

#[test]
fn heterogeneous_receivers_degrade_sender_and_weak_branch_is_denied() {
    // Branch capacities: 10 Mb/s (full), 1.5 Mb/s (below the 2 Mb/s
    // preference, above the 1 Mb/s floor), 0.5 Mb/s (below the floor).
    let fast = clean();
    let medium = LinkParams::clean(Bandwidth::kbps(1_500), SimDuration::from_millis(1));
    let skinny = LinkParams::clean(Bandwidth::kbps(500), SimDuration::from_millis(1));
    let w = star(&[fast, medium, skinny]);
    let vc = open_group(&w, ServiceClass::cm_default(), spanning_req(), 1);
    // The full-capacity member holds the preferred contract.
    assert_eq!(
        w.svcs[0].contract(vc).unwrap().throughput,
        Bandwidth::kbps(2_000)
    );
    // The medium member is admitted at its branch's level and the group
    // contract degrades to the slowest acceptable level in force.
    w.svcs[0]
        .t_group_add_receiver(vc, w.addr(3))
        .expect("medium");
    w.run_ms(20);
    assert_eq!(w.svcs[0].group_receivers(vc).unwrap().len(), 2);
    assert_eq!(
        w.svcs[0].contract(vc).unwrap().throughput,
        Bandwidth::kbps(1_500)
    );
    // The skinny member is denied with a typed reason…
    w.svcs[0]
        .t_group_add_receiver(vc, w.addr(4))
        .expect("skinny");
    w.run_ms(20);
    let confirms = w.users[0].join_confirms();
    let denied = confirms.iter().find(|(m, _)| *m == w.nodes[4]).unwrap();
    assert!(
        matches!(denied.1, Err(DisconnectReason::QosUnattainable(_))),
        "expected QosUnattainable, got {:?}",
        denied.1
    );
    // …without disturbing the admitted receivers: membership is intact
    // and the stream still reaches them.
    assert_eq!(w.svcs[0].group_receivers(vc).unwrap().len(), 2);
    drive_writer(w.svcs[0].clone(), vc, 50, 80);
    let got_fast = drive_reader(w.svcs[2].clone(), vc);
    let got_medium = drive_reader(w.svcs[3].clone(), vc);
    w.run_ms(3_000);
    assert_eq!(seqs_of(&got_fast), (0..50).collect::<Vec<_>>());
    assert_eq!(seqs_of(&got_medium), (0..50).collect::<Vec<_>>());
    // Removing the constraining member restores the preferred level.
    w.svcs[0]
        .t_group_remove_receiver(vc, w.nodes[3])
        .expect("remove");
    w.run_ms(20);
    assert_eq!(
        w.svcs[0].contract(vc).unwrap().throughput,
        Bandwidth::kbps(2_000)
    );
}

// ---------------------------------------------------------------------
// Per-receiver error control (§3.4)
// ---------------------------------------------------------------------

#[test]
fn lossy_branch_is_repaired_unicast_without_touching_clean_branch() {
    let mut lossy = clean();
    lossy.loss = ErrorRate::from_prob(0.05);
    let w = star(&[clean(), lossy]);
    let vc = open_group(&w, ServiceClass::reliable_cm(), lossy_telephone_req(), 2);
    let clean_branch = w.net.route(w.nodes[1], w.nodes[2]).unwrap()[0];
    let base = w.net.link_counters(clean_branch).submitted;
    drive_writer(w.svcs[0].clone(), vc, 200, 80);
    let got_clean = drive_reader(w.svcs[2].clone(), vc);
    let got_lossy = drive_reader(w.svcs[3].clone(), vc);
    w.run_ms(8_000);
    // The lossy member was fully repaired (selective, per-receiver)…
    assert_eq!(seqs_of(&got_lossy), (0..200).collect::<Vec<_>>());
    assert_eq!(seqs_of(&got_clean), (0..200).collect::<Vec<_>>());
    // …and not one retransmission crossed the clean member's branch.
    assert_eq!(
        w.net.link_counters(clean_branch).submitted - base,
        200,
        "retransmissions leaked onto the clean branch"
    );
    // The repairs really happened: the lossy branch carried extra copies.
    let lossy_branch = w.net.route(w.nodes[1], w.nodes[3]).unwrap()[0];
    assert!(w.net.link_counters(lossy_branch).submitted > 200 + base);
}

// ---------------------------------------------------------------------
// Branch-scoped reservations
// ---------------------------------------------------------------------

#[test]
fn leave_releases_only_that_branch() {
    // Chain 0 — 1 — 2 with receivers at both 1 and 2: node 2's branch is
    // the extra hop 1→2.
    let w = chain(3);
    let vc = w.svcs[0]
        .t_group_open(Tsap(1), ServiceClass::cm_default(), spanning_req())
        .expect("open");
    for i in 1..=2 {
        w.svcs[0]
            .t_group_add_receiver(
                vc,
                TransportAddr {
                    node: w.nodes[i],
                    tsap: Tsap(2),
                },
            )
            .expect("invite");
        w.run_ms(20);
    }
    let l01 = w.net.route(w.nodes[0], w.nodes[1]).unwrap()[0];
    let l12 = w.net.route(w.nodes[1], w.nodes[2]).unwrap()[0];
    let worst = Bandwidth::kbps(1_000);
    assert_eq!(w.net.reserved_on(l01), worst);
    assert_eq!(w.net.reserved_on(l12), worst);
    // The far member leaves on its own: only its branch is released.
    w.svcs[2].t_disconnect_request(vc).expect("leave");
    w.run_ms(20);
    assert_eq!(w.net.reserved_on(l12), Bandwidth::ZERO, "branch not freed");
    assert_eq!(w.net.reserved_on(l01), worst, "shared link must stay");
    assert!(w.users[0]
        .events
        .borrow()
        .iter()
        .any(|e| matches!(e, Ev::LeaveInd(v, m, _) if *v == vc && *m == w.nodes[2])));
    // The remaining member still receives.
    drive_writer(w.svcs[0].clone(), vc, 30, 80);
    let got = drive_reader(w.svcs[1].clone(), vc);
    w.run_ms(2_000);
    assert_eq!(seqs_of(&got), (0..30).collect::<Vec<_>>());
}

#[test]
fn group_close_disconnects_members_and_releases_everything() {
    let w = star(&[clean(), clean()]);
    let vc = open_group(&w, ServiceClass::cm_default(), telephone_req(), 2);
    assert_eq!(w.net.reservation_count(), 1);
    w.svcs[0].t_group_close(vc).expect("close");
    w.run_ms(50);
    assert!(!w.svcs[0].is_open(vc));
    assert_eq!(w.net.reservation_count(), 0);
    for i in 2..=3 {
        assert!(
            w.users[i]
                .events
                .borrow()
                .iter()
                .any(|e| matches!(e, Ev::Disconnect(v, _) if *v == vc)),
            "member {i} missed the disconnect"
        );
        assert!(!w.svcs[i].is_open(vc));
    }
}

// ---------------------------------------------------------------------
// Group control channel + misuse
// ---------------------------------------------------------------------

#[test]
fn group_control_channel_fans_out_to_all_members() {
    struct Tap {
        got: RefCell<Vec<String>>,
    }
    impl cm_transport::VcTap for Tap {
        fn on_control(&self, _vc: VcId, payload: Rc<dyn std::any::Any>) {
            if let Some(s) = payload.downcast_ref::<String>() {
                self.got.borrow_mut().push(s.clone());
            }
        }
    }
    let w = star(&[clean(), clean()]);
    let vc = open_group(&w, ServiceClass::cm_default(), telephone_req(), 2);
    let taps: Vec<Rc<Tap>> = (0..2)
        .map(|i| {
            let t = Rc::new(Tap {
                got: RefCell::new(Vec::new()),
            });
            w.svcs[2 + i].register_tap(vc, t.clone()).expect("tap");
            t
        })
        .collect();
    w.svcs[0]
        .send_vc_control(vc, Rc::new("orchestrate!".to_string()))
        .expect("control");
    w.run_ms(50);
    for t in &taps {
        assert_eq!(*t.got.borrow(), vec!["orchestrate!".to_string()]);
    }
}

#[test]
fn group_misuse_is_rejected_synchronously() {
    let w = star(&[clean()]);
    // Group VCs are rate-based only.
    let window = ServiceClass {
        profile: ProtocolProfile::WindowBased,
        error_control: ErrorControlClass::DetectCorrect,
    };
    assert!(matches!(
        w.svcs[0].t_group_open(Tsap(1), window, telephone_req()),
        Err(ServiceError::BadArgument(_))
    ));
    // A malformed tolerance (preferred weaker than worst) is refused.
    let mut bad = telephone_req();
    bad.tolerance = QosTolerance {
        preferred: bad.tolerance.worst,
        worst: bad.tolerance.preferred,
    };
    assert!(matches!(
        w.svcs[0].t_group_open(Tsap(1), ServiceClass::cm_default(), bad),
        Err(ServiceError::BadArgument(_))
    ));
    let vc = open_group(&w, ServiceClass::cm_default(), telephone_req(), 1);
    // The sending node cannot receive its own group.
    assert!(matches!(
        w.svcs[0].t_group_add_receiver(vc, w.addr(0)),
        Err(ServiceError::BadArgument(_))
    ));
    // Double-admission is refused.
    assert!(matches!(
        w.svcs[0].t_group_add_receiver(vc, w.addr(2)),
        Err(ServiceError::WrongState(_))
    ));
    // Removing a non-member is refused.
    assert!(matches!(
        w.svcs[0].t_group_remove_receiver(vc, w.nodes[1]),
        Err(ServiceError::BadArgument(_))
    ));
}

// ---------------------------------------------------------------------
// Feedback cost
// ---------------------------------------------------------------------

/// 64 receivers, 200 OSDUs written one per round: after each round the
/// sender's credit line is the slowest member's, and the whole stream
/// costs one full pass over the receivers per round — not one per
/// report. (The probe exists in debug builds only.)
#[cfg(debug_assertions)]
#[test]
fn credit_reports_cost_one_rescan_per_round_not_one_per_report() {
    const RECEIVERS: usize = 64;
    const ROUNDS: u64 = 200;
    let w = star(&vec![clean(); RECEIVERS]);
    let vc = open_group(&w, ServiceClass::cm_default(), telephone_req(), RECEIVERS);
    let readers: Vec<_> = (0..RECEIVERS)
        .map(|i| drive_reader(w.svcs[2 + i].clone(), vc))
        .collect();
    let (_, joined) = w.svcs[0].group_credit_probe(vc).expect("group source end");
    for round in 1..=ROUNDS {
        assert!(w.svcs[0]
            .write_osdu(vc, Payload::synthetic(round, 80), None)
            .expect("write"));
        w.run_ms(40);
        let slowest = (0..RECEIVERS)
            .map(|i| w.svcs[2 + i].sink_delivery_point(vc).expect("sink end"))
            .min()
            .expect("receivers");
        let (freed_remote, _) = w.svcs[0].group_credit_probe(vc).expect("probe");
        assert_eq!(slowest, round, "a member fell behind in round {round}");
        assert_eq!(freed_remote, slowest, "credit line after round {round}");
    }
    assert!(readers.iter().all(|g| g.borrow().len() as u64 == ROUNDS));
    let (_, rescans) = w.svcs[0].group_credit_probe(vc).expect("probe");
    let reports = RECEIVERS as u64 * ROUNDS;
    assert!(
        rescans - joined <= reports / 32,
        "{} full rescans for {reports} credit reports",
        rescans - joined
    );
}
