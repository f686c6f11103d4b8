//! End-to-end tests of the transport service over the simulated network:
//! connection management (conventional and remote, §3.5/fig. 3), QoS
//! negotiation and admission control, data transfer on both protocol
//! profiles, error-control classes, credit backpressure, monitoring and
//! renegotiation.

use cm_core::address::{AddressTriple, TransportAddr, Tsap, VcId};
use cm_core::error::{DisconnectReason, ServiceError};
use cm_core::media::MediaProfile;
use cm_core::osdu::Payload;
use cm_core::qos::{ErrorRate, QosParams, QosRequirement, QosTolerance};
use cm_core::service_class::{ErrorControlClass, ProtocolProfile, ServiceClass};
use cm_core::time::{Bandwidth, SimDuration, SimTime};
use cm_transport::{EntityConfig, QosReport, TransportService, TransportUser};
use netsim::{two_node, Engine, JitterModel, LinkParams, Network, NodeClock};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

// ---------------------------------------------------------------------
// Test harness
// ---------------------------------------------------------------------

#[derive(Debug)]
#[allow(dead_code)] // payload fields are read through Debug in failures
enum Ev {
    ConnectInd(VcId),
    Confirm(VcId, Result<QosParams, DisconnectReason>),
    Disconnect(VcId, DisconnectReason),
    Qos(QosReport),
    RenegInd(VcId),
    RenegConfirm(VcId, QosParams),
    ErrorInd(VcId, u64),
}

struct TestUser {
    events: RefCell<Vec<Ev>>,
    accept_connect: Cell<bool>,
    accept_reneg: Cell<bool>,
}

impl TestUser {
    fn new() -> Rc<TestUser> {
        Rc::new(TestUser {
            events: RefCell::new(Vec::new()),
            accept_connect: Cell::new(true),
            accept_reneg: Cell::new(true),
        })
    }

    fn confirms(&self) -> Vec<(VcId, bool)> {
        self.events
            .borrow()
            .iter()
            .filter_map(|e| match e {
                Ev::Confirm(vc, r) => Some((*vc, r.is_ok())),
                _ => None,
            })
            .collect()
    }

    fn count_connect_inds(&self) -> usize {
        self.events
            .borrow()
            .iter()
            .filter(|e| matches!(e, Ev::ConnectInd(_)))
            .count()
    }
}

impl TransportUser for TestUser {
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

    fn t_connect_confirm(
        &self,
        _svc: &TransportService,
        vc: VcId,
        result: Result<QosParams, DisconnectReason>,
    ) {
        self.events.borrow_mut().push(Ev::Confirm(vc, result));
    }

    fn t_disconnect_indication(&self, _svc: &TransportService, vc: VcId, reason: DisconnectReason) {
        self.events.borrow_mut().push(Ev::Disconnect(vc, reason));
    }

    fn t_qos_indication(&self, _svc: &TransportService, report: QosReport) {
        self.events.borrow_mut().push(Ev::Qos(report));
    }

    fn t_renegotiate_indication(
        &self,
        svc: &TransportService,
        vc: VcId,
        _new_tolerance: QosTolerance,
    ) {
        self.events.borrow_mut().push(Ev::RenegInd(vc));
        svc.t_renegotiate_response(vc, self.accept_reneg.get())
            .expect("reneg respond");
    }

    fn t_renegotiate_confirm(&self, _svc: &TransportService, vc: VcId, qos: QosParams) {
        self.events.borrow_mut().push(Ev::RenegConfirm(vc, qos));
    }

    fn t_error_indication(&self, _svc: &TransportService, vc: VcId, seq: u64) {
        self.events.borrow_mut().push(Ev::ErrorInd(vc, seq));
    }
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

struct World {
    net: Network,
    svc_a: TransportService,
    svc_b: TransportService,
    user_a: Rc<TestUser>,
    user_b: Rc<TestUser>,
    addr_a: TransportAddr,
    addr_b: TransportAddr,
}

fn world(params: LinkParams) -> World {
    let (net, a, b) = two_node(Engine::new(), params, 42);
    let svc_a = TransportService::install(&net, a, EntityConfig::default());
    let svc_b = TransportService::install(&net, b, EntityConfig::default());
    let user_a = TestUser::new();
    let user_b = TestUser::new();
    svc_a.bind(Tsap(1), user_a.clone()).expect("bind a");
    svc_b.bind(Tsap(2), user_b.clone()).expect("bind b");
    World {
        net,
        svc_a,
        svc_b,
        user_a,
        user_b,
        addr_a: TransportAddr {
            node: a,
            tsap: Tsap(1),
        },
        addr_b: TransportAddr {
            node: b,
            tsap: Tsap(2),
        },
    }
}

fn clean_params() -> LinkParams {
    LinkParams::clean(Bandwidth::mbps(10), SimDuration::from_millis(1))
}

fn telephone_req() -> QosRequirement {
    MediaProfile::audio_telephone().requirement()
}

/// Telephone-audio requirement that tolerates a lossy path (the loss
/// experiments would otherwise be refused at negotiation, correctly).
fn lossy_telephone_req() -> QosRequirement {
    let mut req = MediaProfile::audio_telephone().requirement();
    req.tolerance.preferred.packet_error_rate = ErrorRate::from_prob(0.10);
    req.tolerance.worst.packet_error_rate = ErrorRate::from_prob(0.20);
    req
}

// ---------------------------------------------------------------------
// Connection management
// ---------------------------------------------------------------------

#[test]
fn conventional_connect_confirms_with_agreed_qos() {
    let w = world(clean_params());
    let triple = AddressTriple::conventional(w.addr_a, w.addr_b);
    let vc = w
        .svc_a
        .t_connect_request(triple, ServiceClass::cm_default(), telephone_req())
        .expect("request");
    w.net.engine().run_for(SimDuration::from_millis(100));
    // Destination saw the indication, source got a successful confirm.
    assert_eq!(w.user_b.count_connect_inds(), 1);
    assert_eq!(w.user_a.confirms(), vec![(vc, true)]);
    assert!(w.svc_a.is_open(vc));
    assert!(w.svc_b.is_open(vc));
    // Contract never exceeds the preference.
    let contract = w.svc_a.contract(vc).expect("contract");
    assert!(telephone_req().tolerance.preferred.satisfies(&contract));
    // Resources were reserved for the contract.
    assert_eq!(w.net.reservation_count(), 1);
}

#[test]
fn connect_rejected_by_user() {
    let w = world(clean_params());
    w.user_b.accept_connect.set(false);
    let triple = AddressTriple::conventional(w.addr_a, w.addr_b);
    let vc = w
        .svc_a
        .t_connect_request(triple, ServiceClass::cm_default(), telephone_req())
        .expect("request");
    w.net.engine().run_for(SimDuration::from_millis(100));
    assert_eq!(w.user_a.confirms(), vec![(vc, false)]);
    assert!(!w.svc_a.is_open(vc));
    // Rejection released any reservation.
    assert_eq!(w.net.reservation_count(), 0);
}

#[test]
fn connect_to_unbound_tsap_fails() {
    let w = world(clean_params());
    let triple = AddressTriple::conventional(
        w.addr_a,
        TransportAddr {
            node: w.addr_b.node,
            tsap: Tsap(99),
        },
    );
    let _vc = w
        .svc_a
        .t_connect_request(triple, ServiceClass::cm_default(), telephone_req())
        .expect("request");
    w.net.engine().run_for(SimDuration::from_millis(100));
    let confirms = w.user_a.confirms();
    assert_eq!(confirms.len(), 1);
    assert!(!confirms[0].1);
}

#[test]
fn qos_negotiation_rejects_impossible_demand() {
    // Ask for 100 Mb/s over a 10 Mb/s link with no slack.
    let w = world(clean_params());
    let mut req = telephone_req();
    let mut p = req.tolerance.preferred;
    p.throughput = Bandwidth::mbps(100);
    req.tolerance = QosTolerance::exactly(p);
    let triple = AddressTriple::conventional(w.addr_a, w.addr_b);
    w.svc_a
        .t_connect_request(triple, ServiceClass::cm_default(), req)
        .expect("request");
    w.net.engine().run_for(SimDuration::from_millis(100));
    let events = w.user_a.events.borrow();
    let ok = events.iter().any(|e| {
        matches!(e, Ev::Confirm(_, Err(DisconnectReason::QosUnattainable(nums))) if nums.contains(&1))
    });
    assert!(ok, "expected QoS-unattainable rejection, got {events:?}");
}

#[test]
fn admission_control_denies_when_reserved_out() {
    let w = world(clean_params());
    // First VC takes 8 Mb/s of the 10 Mb/s link.
    let mut req1 = telephone_req();
    let mut p = req1.tolerance.preferred;
    p.throughput = Bandwidth::mbps(8);
    req1.tolerance = QosTolerance::exactly(p);
    let triple = AddressTriple::conventional(w.addr_a, w.addr_b);
    w.svc_a
        .t_connect_request(triple, ServiceClass::cm_default(), req1)
        .expect("request 1");
    w.net.engine().run_for(SimDuration::from_millis(50));
    assert_eq!(w.net.reservation_count(), 1);
    // Second VC wants 5 Mb/s with a 4 Mb/s floor → negotiation succeeds
    // at ~2 Mb/s? No: available is 2 Mb/s < floor 4 Mb/s → rejected.
    let mut req2 = telephone_req();
    let mut pref = req2.tolerance.preferred;
    pref.throughput = Bandwidth::mbps(5);
    let mut worst = pref;
    worst.throughput = Bandwidth::mbps(4);
    req2.tolerance = QosTolerance {
        preferred: pref,
        worst,
    };
    w.svc_a
        .t_connect_request(triple, ServiceClass::cm_default(), req2)
        .expect("request 2");
    w.net.engine().run_for(SimDuration::from_millis(50));
    let confirms = w.user_a.confirms();
    assert_eq!(confirms.len(), 2);
    assert!(!confirms[1].1, "second connect should be refused");
}

/// Three fully meshed nodes for remote connects (§3.5): the source user
/// on `a`, the sink user on `b`, the initiator on `c`. Returns the
/// services and users in that order plus the matching triple.
fn three_party() -> (
    Network,
    [TransportService; 3],
    [Rc<TestUser>; 3],
    AddressTriple,
) {
    let net = Network::new(Engine::new());
    let mut rng = cm_core::rng::DetRng::from_seed(7);
    let nodes = [(); 3].map(|_| net.add_node(NodeClock::perfect()));
    let [a, b, c] = nodes;
    let p = clean_params();
    net.add_duplex(a, b, p.clone(), &mut rng);
    net.add_duplex(b, c, p.clone(), &mut rng);
    net.add_duplex(a, c, p, &mut rng);
    let svcs = nodes.map(|n| TransportService::install(&net, n, EntityConfig::default()));
    let users = [(); 3].map(|_| TestUser::new());
    let addrs: Vec<TransportAddr> = (0..3)
        .map(|i| {
            let tsap = Tsap(i as u16 + 1);
            svcs[i].bind(tsap, users[i].clone()).expect("bind");
            TransportAddr {
                node: nodes[i],
                tsap,
            }
        })
        .collect();
    let triple = AddressTriple::remote(addrs[2], addrs[0], addrs[1]);
    (net, svcs, users, triple)
}

#[test]
fn remote_connect_follows_figure_3() {
    let (net, [svc_a, svc_b, svc_c], [ua, ub, uc], triple) = three_party();
    let vc = svc_c
        .t_connect_request(triple, ServiceClass::cm_default(), telephone_req())
        .expect("remote request");
    net.engine().run_for(SimDuration::from_millis(100));

    // Fig. 3: source gets T-Connect.indication and (after accepting)
    // T-Connect.confirm; destination gets the indication; the initiator
    // gets the final confirm.
    assert_eq!(ua.count_connect_inds(), 1, "source indication");
    assert_eq!(ub.count_connect_inds(), 1, "destination indication");
    assert_eq!(ua.confirms(), vec![(vc, true)], "source confirm");
    assert_eq!(uc.confirms(), vec![(vc, true)], "initiator confirm");
    assert!(svc_a.is_open(vc));
    assert!(svc_b.is_open(vc));
    let _ = svc_b;
}

#[test]
fn remote_connect_rejected_by_source_user() {
    let (net, [_svc_a, _svc_b, svc_c], [ua, _ub, uc], triple) = three_party();
    ua.accept_connect.set(false);
    let vc = svc_c
        .t_connect_request(triple, ServiceClass::cm_default(), telephone_req())
        .expect("remote request");
    net.engine().run_for(SimDuration::from_millis(100));
    assert_eq!(uc.confirms(), vec![(vc, false)]);
}

#[test]
fn disconnect_indicates_at_peer_and_releases_resources() {
    let w = world(clean_params());
    let triple = AddressTriple::conventional(w.addr_a, w.addr_b);
    let vc = w
        .svc_a
        .t_connect_request(triple, ServiceClass::cm_default(), telephone_req())
        .expect("request");
    w.net.engine().run_for(SimDuration::from_millis(50));
    assert!(w.svc_a.is_open(vc));
    w.svc_a.t_disconnect_request(vc).expect("disconnect");
    w.net.engine().run_for(SimDuration::from_millis(50));
    assert!(!w.svc_a.is_open(vc));
    assert!(!w.svc_b.is_open(vc));
    assert_eq!(w.net.reservation_count(), 0);
    assert!(w
        .user_b
        .events
        .borrow()
        .iter()
        .any(|e| matches!(e, Ev::Disconnect(v, _) if *v == vc)));
}

#[test]
fn release_reclaims_the_vc_at_both_ends_and_the_remote_initiator() {
    // T-Disconnect hands everything back (§4.1.1): once the release has
    // propagated, no party holds state for the VC any more.
    let (net, svcs, users, triple) = three_party();
    let before = svcs.each_ref().map(|s| s.live_vcs());
    let vc = svcs[2]
        .t_connect_request(triple, ServiceClass::cm_default(), telephone_req())
        .expect("remote request");
    net.engine().run_for(SimDuration::from_millis(100));
    let open = svcs.each_ref().map(|s| s.live_vcs());
    assert_eq!(open, before.map(|n| n + 1), "source, sink, initiator");
    drive_writer(svcs[0].clone(), vc, 20, 80);
    net.engine().run_for(SimDuration::from_millis(200));

    svcs[1].t_disconnect_request(vc).expect("sink releases");
    net.engine().run_for(SimDuration::from_millis(100));
    assert_eq!(svcs.each_ref().map(|s| s.live_vcs()), before);
    assert_eq!(net.reservation_count(), 0);
    // The released id is unknown everywhere — to the initiator too.
    for s in &svcs {
        assert!(!s.is_open(vc));
        assert_eq!(
            s.t_disconnect_request(vc),
            Err(cm_core::error::ServiceError::UnknownVc)
        );
    }
    assert!(users[0]
        .events
        .borrow()
        .iter()
        .any(|e| matches!(e, Ev::Disconnect(v, _) if *v == vc)));
    // Nothing of the VC is left running: timers died with the entries.
    net.engine().run_for(SimDuration::from_secs(1));
    assert_eq!(net.engine().pending(), 0);
}

// ---------------------------------------------------------------------
// Data transfer
// ---------------------------------------------------------------------

fn open_vc(w: &World, class: ServiceClass, req: QosRequirement) -> VcId {
    let triple = AddressTriple::conventional(w.addr_a, w.addr_b);
    let vc = w
        .svc_a
        .t_connect_request(triple, class, req)
        .expect("request");
    w.net.engine().run_for(SimDuration::from_millis(50));
    assert!(w.svc_a.is_open(vc), "VC failed to open");
    vc
}

#[test]
fn osdus_flow_in_order_at_the_contracted_rate() {
    let w = world(clean_params());
    let vc = open_vc(&w, ServiceClass::cm_default(), telephone_req());
    drive_writer(w.svc_a.clone(), vc, 150, 80);
    let got = drive_reader(w.svc_b.clone(), vc);
    w.net.engine().run_for(SimDuration::from_secs(5));
    let got = got.borrow();
    assert_eq!(got.len(), 150);
    let seqs: Vec<u64> = got.iter().map(|&(_, s)| s).collect();
    assert_eq!(seqs, (0..150).collect::<Vec<_>>());
    // Pacing: 50/s ⇒ successive OSDUs ~20 ms apart after startup.
    let gaps: Vec<u64> = got
        .windows(2)
        .map(|w| (w[1].0 - w[0].0).as_micros())
        .collect();
    let avg = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
    assert!((avg - 20_000.0).abs() < 2_000.0, "avg gap {avg}us");
}

#[test]
fn large_osdus_are_fragmented_and_reassembled() {
    let w = world(clean_params());
    let video = MediaProfile::video_mono().requirement(); // 8 KB > MTU
    let vc = open_vc(&w, ServiceClass::cm_default(), video);
    drive_writer(w.svc_a.clone(), vc, 50, 10_000);
    let got = drive_reader(w.svc_b.clone(), vc);
    w.net.engine().run_for(SimDuration::from_secs(5));
    assert_eq!(got.borrow().len(), 50);
}

#[test]
fn detect_only_class_reports_losses_and_keeps_flowing() {
    let mut params = clean_params();
    params.loss = ErrorRate::from_prob(0.05);
    let w = world(params);
    let vc = open_vc(&w, ServiceClass::cm_default(), lossy_telephone_req());
    drive_writer(w.svc_a.clone(), vc, 500, 80);
    let got = drive_reader(w.svc_b.clone(), vc);
    w.net.engine().run_for(SimDuration::from_secs(15));
    let got = got.borrow();
    // Some loss happened, was indicated, and the stream kept in order.
    assert!(got.len() < 500, "expected losses, delivered {}", got.len());
    assert!(got.len() > 400, "too much loss: {}", got.len());
    let seqs: Vec<u64> = got.iter().map(|&(_, s)| s).collect();
    let mut sorted = seqs.clone();
    sorted.sort_unstable();
    assert_eq!(seqs, sorted, "delivery out of order");
    let err_inds = w
        .user_b
        .events
        .borrow()
        .iter()
        .filter(|e| matches!(e, Ev::ErrorInd(v, _) if *v == vc))
        .count();
    assert_eq!(err_inds as u64, 500 - got.len() as u64);
}

#[test]
fn detect_correct_class_repairs_all_losses() {
    let mut params = clean_params();
    params.loss = ErrorRate::from_prob(0.05);
    let w = world(params);
    let vc = open_vc(&w, ServiceClass::reliable_cm(), lossy_telephone_req());
    drive_writer(w.svc_a.clone(), vc, 300, 80);
    let got = drive_reader(w.svc_b.clone(), vc);
    w.net.engine().run_for(SimDuration::from_secs(15));
    let got = got.borrow();
    assert_eq!(got.len(), 300, "reliable class must deliver everything");
    let seqs: Vec<u64> = got.iter().map(|&(_, s)| s).collect();
    assert_eq!(seqs, (0..300).collect::<Vec<_>>());
}

#[test]
fn window_profile_delivers_in_order() {
    let w = world(clean_params());
    let class = ServiceClass {
        profile: ProtocolProfile::WindowBased,
        error_control: ErrorControlClass::DetectCorrect,
    };
    let vc = open_vc(&w, class, telephone_req());
    drive_writer(w.svc_a.clone(), vc, 200, 80);
    let got = drive_reader(w.svc_b.clone(), vc);
    w.net.engine().run_for(SimDuration::from_secs(10));
    let got = got.borrow();
    assert_eq!(got.len(), 200);
    let seqs: Vec<u64> = got.iter().map(|&(_, s)| s).collect();
    assert_eq!(seqs, (0..200).collect::<Vec<_>>());
}

#[test]
fn window_profile_survives_loss_via_retransmission() {
    let mut params = clean_params();
    params.loss = ErrorRate::from_prob(0.03);
    let w = world(params);
    let class = ServiceClass {
        profile: ProtocolProfile::WindowBased,
        error_control: ErrorControlClass::DetectCorrect,
    };
    let vc = open_vc(&w, class, lossy_telephone_req());
    drive_writer(w.svc_a.clone(), vc, 200, 80);
    let got = drive_reader(w.svc_b.clone(), vc);
    w.net.engine().run_for(SimDuration::from_secs(30));
    assert_eq!(got.borrow().len(), 200);
}

#[test]
fn credit_backpressure_stalls_sender_until_reader_drains() {
    let w = world(clean_params());
    let vc = open_vc(&w, ServiceClass::cm_default(), telephone_req());
    drive_writer(w.svc_a.clone(), vc, 500, 80);
    // No reader: the sink buffer fills, credits run out, the source stalls.
    w.net.engine().run_for(SimDuration::from_secs(10));
    let recv = w.svc_b.recv_handle(vc).expect("recv handle");
    assert!(recv.is_full(), "receive buffer should be full");
    let (pushed_before, _) = recv.totals();
    w.net.engine().run_for(SimDuration::from_secs(2));
    let (pushed_after, _) = recv.totals();
    assert_eq!(pushed_before, pushed_after, "sender must be stalled");
    // Start reading: flow resumes and everything arrives.
    let got = drive_reader(w.svc_b.clone(), vc);
    w.net.engine().run_for(SimDuration::from_secs(15));
    assert_eq!(got.borrow().len(), 500);
}

#[test]
fn oversized_osdu_rejected() {
    let w = world(clean_params());
    let vc = open_vc(&w, ServiceClass::cm_default(), telephone_req());
    let err = w
        .svc_a
        .write_osdu(vc, Payload::synthetic(0, 10_000), None)
        .unwrap_err();
    assert!(matches!(err, cm_core::error::ServiceError::BadArgument(_)));
}

#[test]
fn source_flush_declares_drops_not_losses() {
    let w = world(clean_params());
    let vc = open_vc(&w, ServiceClass::cm_default(), telephone_req());
    // Pause the source so everything stays buffered, then write and flush.
    w.svc_a.pause_source(vc).expect("pause");
    for i in 0..5u64 {
        assert!(w
            .svc_a
            .write_osdu(vc, Payload::synthetic(i, 80), None)
            .unwrap());
    }
    let flushed = w.svc_a.flush_local(vc).expect("flush");
    assert_eq!(flushed, 5);
    // Write five more and resume: receiver sees seqs 5..10 with no loss.
    for i in 5..10u64 {
        assert!(w
            .svc_a
            .write_osdu(vc, Payload::synthetic(i, 80), None)
            .unwrap());
    }
    w.svc_a.resume_source(vc).expect("resume");
    let got = drive_reader(w.svc_b.clone(), vc);
    w.net.engine().run_for(SimDuration::from_secs(2));
    let seqs: Vec<u64> = got.borrow().iter().map(|&(_, s)| s).collect();
    assert_eq!(seqs, (5..10).collect::<Vec<_>>());
    let err_inds = w
        .user_b
        .events
        .borrow()
        .iter()
        .filter(|e| matches!(e, Ev::ErrorInd(..)))
        .count();
    assert_eq!(err_inds, 0, "flushed OSDUs must not count as losses");
}

// ---------------------------------------------------------------------
// Monitoring & renegotiation
// ---------------------------------------------------------------------

#[test]
fn qos_violation_raises_indication_at_both_ends() {
    // Jittery, lossy link + tight tolerance contract.
    let mut params = clean_params();
    params.loss = ErrorRate::from_prob(0.10);
    let w = world(params);
    // Telephone audio tolerates only 0.1% loss at preferred; the link loses
    // 10%. Negotiation still succeeds (path loss estimate is in the offer —
    // so widen the requested tolerance to get the VC up, then watch the
    // monitor catch the violation against the *contract*).
    let mut req = telephone_req();
    // Accept the link's estimated loss at connect time...
    req.tolerance.worst.packet_error_rate = ErrorRate::from_prob(0.2);
    req.tolerance.preferred.packet_error_rate = ErrorRate::from_prob(0.001);
    let vc = open_vc(&w, ServiceClass::cm_default(), req);
    // The contract's loss bound is the preferred 0.1% (offer was weaker?
    // no: agreed = weaker(preferred, offer) → the offered ~10% becomes the
    // contract). To force a violation we renegotiate the contract downward
    // is impossible — instead drive enough traffic that jitter/loss exceed
    // the agreed levels via queueing: simpler and robust: check that when
    // measured loss exceeds contracted loss an indication fires by using a
    // contract from a clean-path estimate. Here the offer already includes
    // loss, so instead verify the monitor machinery via throughput: stop
    // writing and the measured throughput (0) violates the contracted
    // floor.
    drive_writer(w.svc_a.clone(), vc, 50, 80); // ~1 s of audio then silence
    let _got = drive_reader(w.svc_b.clone(), vc);
    w.net.engine().run_for(SimDuration::from_secs(5));
    let sink_qos = w
        .user_b
        .events
        .borrow()
        .iter()
        .filter(|e| matches!(e, Ev::Qos(r) if r.vc == vc))
        .count();
    let src_qos = w
        .user_a
        .events
        .borrow()
        .iter()
        .filter(|e| matches!(e, Ev::Qos(r) if r.vc == vc))
        .count();
    assert!(sink_qos > 0, "sink user must see T-QoS.indication");
    assert!(src_qos > 0, "source user must see the relayed report");
}

#[test]
fn renegotiation_upgrades_contract_in_place() {
    let w = world(clean_params());
    let vc = open_vc(&w, ServiceClass::cm_default(), telephone_req());
    let before = w.svc_a.contract(vc).expect("contract");
    // Upgrade: telephone → CD audio bandwidth.
    let cd = MediaProfile::audio_cd();
    w.svc_a
        .t_renegotiate_request(vc, cd.tolerance(75))
        .expect("reneg request");
    w.net.engine().run_for(SimDuration::from_millis(100));
    let after = w.svc_a.contract(vc).expect("contract");
    assert!(after.throughput > before.throughput);
    assert!(w.svc_a.is_open(vc), "VC must stay open");
    assert!(w
        .user_a
        .events
        .borrow()
        .iter()
        .any(|e| matches!(e, Ev::RenegConfirm(v, _) if *v == vc)));
    assert!(w
        .user_b
        .events
        .borrow()
        .iter()
        .any(|e| matches!(e, Ev::RenegInd(v) if *v == vc)));
    // The reservation tracked the upgrade.
    assert_eq!(w.net.reservation_count(), 1);
}

#[test]
fn refused_renegotiation_leaves_vc_open() {
    let w = world(clean_params());
    w.user_b.accept_reneg.set(false);
    let vc = open_vc(&w, ServiceClass::cm_default(), telephone_req());
    let before = w.svc_a.contract(vc).expect("contract");
    w.svc_a
        .t_renegotiate_request(vc, MediaProfile::audio_cd().tolerance(75))
        .expect("reneg request");
    w.net.engine().run_for(SimDuration::from_millis(100));
    // §4.1.3: refusal arrives as T-Disconnect.indication but the VC is NOT
    // torn down and the old contract stands.
    assert!(w.svc_a.is_open(vc));
    assert_eq!(w.svc_a.contract(vc).expect("contract"), before);
    assert!(w.user_a.events.borrow().iter().any(|e| matches!(
        e,
        Ev::Disconnect(v, DisconnectReason::RenegotiationRefused) if *v == vc
    )));
}

/// A refusal answers the pending request: a later acceptance has nothing
/// left to apply, so it errs and neither end's contract moves.
#[test]
fn refused_renegotiation_cannot_be_accepted_afterwards() {
    let w = world(clean_params());
    w.user_b.accept_reneg.set(false);
    let vc = open_vc(&w, ServiceClass::cm_default(), telephone_req());
    let before = (w.svc_a.contract(vc), w.svc_b.contract(vc));
    w.svc_a
        .t_renegotiate_request(vc, MediaProfile::audio_cd().tolerance(75))
        .expect("reneg request");
    w.net.engine().run_for(SimDuration::from_millis(100));
    assert_eq!(
        w.svc_b.t_renegotiate_response(vc, true),
        Err(ServiceError::WrongState("no renegotiation pending"))
    );
    w.net.engine().run_for(SimDuration::from_millis(100));
    assert_eq!((w.svc_a.contract(vc), w.svc_b.contract(vc)), before);
    let events = w.user_a.events.borrow();
    assert!(!events.iter().any(|e| matches!(e, Ev::RenegConfirm(..))));
    let refusals = events
        .iter()
        .filter(|e| matches!(e, Ev::Disconnect(_, DisconnectReason::RenegotiationRefused)))
        .count();
    assert_eq!(refusals, 1, "the peer hears the one refusal only");
}

/// With no request pending there is nothing to refuse: the call errs and
/// the peer sees no spurious `RenegotiationRefused` indication.
#[test]
fn refusing_with_nothing_pending_sends_nothing() {
    let w = world(clean_params());
    let vc = open_vc(&w, ServiceClass::cm_default(), telephone_req());
    assert_eq!(
        w.svc_b.t_renegotiate_response(vc, false),
        Err(ServiceError::WrongState("no renegotiation pending"))
    );
    w.net.engine().run_for(SimDuration::from_millis(100));
    assert!(w.svc_a.is_open(vc));
    assert!(!w
        .user_a
        .events
        .borrow()
        .iter()
        .any(|e| matches!(e, Ev::Disconnect(..))));
}

#[test]
fn impossible_renegotiation_refused_by_provider() {
    let w = world(clean_params());
    let vc = open_vc(&w, ServiceClass::cm_default(), telephone_req());
    // Ask for 100 Mb/s on the 10 Mb/s link.
    let mut tol = MediaProfile::audio_cd().tolerance(100);
    tol.preferred.throughput = Bandwidth::mbps(100);
    tol.worst.throughput = Bandwidth::mbps(50);
    w.svc_a.t_renegotiate_request(vc, tol).expect("request");
    w.net.engine().run_for(SimDuration::from_millis(100));
    assert!(w.svc_a.is_open(vc));
    assert!(w.user_a.events.borrow().iter().any(|e| matches!(
        e,
        Ev::Disconnect(v, DisconnectReason::RenegotiationRefused) if *v == vc
    )));
}

// ---------------------------------------------------------------------
// Orchestration hooks
// ---------------------------------------------------------------------

#[test]
fn recv_gate_holds_delivery_until_opened() {
    let w = world(clean_params());
    let vc = open_vc(&w, ServiceClass::cm_default(), telephone_req());
    w.svc_b.set_recv_gate(vc, true).expect("gate");
    drive_writer(w.svc_a.clone(), vc, 30, 80);
    let got = drive_reader(w.svc_b.clone(), vc);
    w.net.engine().run_for(SimDuration::from_secs(2));
    assert_eq!(got.borrow().len(), 0, "gated buffer must not deliver");
    let recv = w.svc_b.recv_handle(vc).expect("handle");
    assert!(!recv.is_empty(), "data must accumulate behind the gate");
    w.svc_b.set_recv_gate(vc, false).expect("ungate");
    w.net.engine().run_for(SimDuration::from_secs(2));
    assert_eq!(got.borrow().len(), 30);
}

#[test]
fn rate_factor_slows_delivery() {
    let w = world(clean_params());
    let vc = open_vc(&w, ServiceClass::cm_default(), telephone_req());
    w.svc_a.set_rate_factor(vc, 1, 2).expect("factor"); // half speed
    drive_writer(w.svc_a.clone(), vc, 100, 80);
    let got = drive_reader(w.svc_b.clone(), vc);
    // At 25/s, 100 OSDUs take ~4 s; at full rate ~2 s.
    w.net.engine().run_for(SimDuration::from_millis(2_500));
    let at_half = got.borrow().len();
    assert!(at_half < 70, "half-rate delivered {at_half} too fast");
    w.net.engine().run_for(SimDuration::from_secs(3));
    assert_eq!(got.borrow().len(), 100);
}

#[test]
fn source_drop_skips_without_receiver_loss() {
    let w = world(clean_params());
    let vc = open_vc(&w, ServiceClass::cm_default(), telephone_req());
    w.svc_a.pause_source(vc).expect("pause");
    for i in 0..10u64 {
        assert!(w
            .svc_a
            .write_osdu(vc, Payload::synthetic(i, 80), None)
            .unwrap());
    }
    // Drop the two oldest buffered OSDUs (seqs 0 and 1).
    assert!(w.svc_a.source_drop_one(vc).expect("drop"));
    assert!(w.svc_a.source_drop_one(vc).expect("drop"));
    w.svc_a.resume_source(vc).expect("resume");
    let got = drive_reader(w.svc_b.clone(), vc);
    w.net.engine().run_for(SimDuration::from_secs(2));
    let seqs: Vec<u64> = got.borrow().iter().map(|&(_, s)| s).collect();
    assert_eq!(seqs, (2..10).collect::<Vec<_>>());
    let stats = w.svc_a.take_end_stats(vc).expect("stats");
    assert_eq!(stats.dropped, 2);
}

#[test]
fn blocking_stats_attribute_slow_consumer_to_sink_app() {
    let w = world(clean_params());
    let vc = open_vc(&w, ServiceClass::cm_default(), telephone_req());
    drive_writer(w.svc_a.clone(), vc, 1000, 80);
    // Nobody reads at the sink for 5 s.
    w.net.engine().run_for(SimDuration::from_secs(5));
    let sink = w.svc_b.take_end_stats(vc).expect("sink stats");
    // The sink protocol (producer into the recv buffer) blocked heavily.
    assert!(
        sink.proto_blocked > SimDuration::from_secs(2),
        "sink proto blocked only {}",
        sink.proto_blocked
    );
    // And at the source the application eventually blocked on the full
    // send buffer (protocol stalled on credit).
    let src = w.svc_a.take_end_stats(vc).expect("src stats");
    assert!(
        src.app_blocked > SimDuration::from_secs(2),
        "src app blocked only {}",
        src.app_blocked
    );
}

#[test]
fn osdu_events_reach_the_tap() {
    use cm_core::osdu::Opdu;
    struct Tap {
        seen: RefCell<Vec<Opdu>>,
    }
    impl cm_transport::VcTap for Tap {
        fn on_osdu_arrived(&self, _vc: VcId, opdu: Opdu) {
            self.seen.borrow_mut().push(opdu);
        }
    }
    let w = world(clean_params());
    let vc = open_vc(&w, ServiceClass::cm_default(), telephone_req());
    let tap = Rc::new(Tap {
        seen: RefCell::new(Vec::new()),
    });
    w.svc_b.register_tap(vc, tap.clone()).expect("tap");
    // Mark OSDU 3 with an event bit pattern (§6.3.4).
    for i in 0..5u64 {
        let ev = (i == 3).then_some(0xBEEF);
        assert!(w
            .svc_a
            .write_osdu(vc, Payload::synthetic(i, 80), ev)
            .unwrap());
    }
    let _got = drive_reader(w.svc_b.clone(), vc);
    w.net.engine().run_for(SimDuration::from_secs(1));
    let seen = tap.seen.borrow();
    assert_eq!(seen.len(), 5);
    assert_eq!(seen[3].event, Some(0xBEEF));
    assert!(seen.iter().enumerate().all(|(i, o)| o.seq == i as u64));
}

#[test]
fn control_channel_carries_user_payloads() {
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
    let w = world(clean_params());
    let vc = open_vc(&w, ServiceClass::cm_default(), telephone_req());
    let tap = Rc::new(Tap {
        got: RefCell::new(Vec::new()),
    });
    w.svc_b.register_tap(vc, tap.clone()).expect("tap");
    w.svc_a
        .send_vc_control(vc, Rc::new("orchestrate!".to_string()))
        .expect("control");
    w.net.engine().run_for(SimDuration::from_millis(50));
    assert_eq!(*tap.got.borrow(), vec!["orchestrate!".to_string()]);
}

#[test]
fn datagrams_deliver_to_tsap() {
    struct DgUser {
        got: RefCell<Vec<(TransportAddr, u32)>>,
    }
    impl TransportUser for DgUser {
        fn t_datagram_indication(
            &self,
            _svc: &TransportService,
            from: TransportAddr,
            payload: Rc<dyn std::any::Any>,
        ) {
            if let Some(v) = payload.downcast_ref::<u32>() {
                self.got.borrow_mut().push((from, *v));
            }
        }
    }
    let w = world(clean_params());
    let dg = Rc::new(DgUser {
        got: RefCell::new(Vec::new()),
    });
    w.svc_b.bind(Tsap(9), dg.clone()).expect("bind");
    w.svc_a.send_datagram(
        Tsap(1),
        TransportAddr {
            node: w.addr_b.node,
            tsap: Tsap(9),
        },
        Rc::new(77u32),
        16,
    );
    w.net.engine().run_for(SimDuration::from_millis(50));
    let got = dg.got.borrow();
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].1, 77);
    assert_eq!(got[0].0, w.addr_a);
}

#[test]
fn deterministic_replay_same_seed_same_outcome() {
    let run = || {
        let mut params = clean_params();
        params.loss = ErrorRate::from_prob(0.05);
        params.jitter = JitterModel::Uniform(SimDuration::from_millis(3));
        let w = world(params);
        let vc = open_vc(&w, ServiceClass::cm_default(), lossy_telephone_req());
        drive_writer(w.svc_a.clone(), vc, 300, 80);
        let got = drive_reader(w.svc_b.clone(), vc);
        w.net.engine().run_for(SimDuration::from_secs(10));
        let v: Vec<(u64, u64)> = got
            .borrow()
            .iter()
            .map(|&(t, s)| (t.as_micros(), s))
            .collect();
        v
    };
    assert_eq!(run(), run());
}

#[test]
fn rate_pacing_used_rate_not_bandwidth() {
    // A rate contract at 50/s on an enormous link must still pace at 50/s
    // (rate-based flow control transmits on schedule, not in bursts).
    let w = world(LinkParams::clean(
        Bandwidth::mbps(1000),
        SimDuration::from_micros(100),
    ));
    let vc = open_vc(&w, ServiceClass::cm_default(), telephone_req());
    drive_writer(w.svc_a.clone(), vc, 100, 80);
    let got = drive_reader(w.svc_b.clone(), vc);
    w.net.engine().run_for(SimDuration::from_millis(500));
    // After 500 ms at 50/s roughly 25 OSDUs (± buffering) have arrived —
    // *not* all 100.
    let n = got.borrow().len();
    assert!((20..=40).contains(&n), "delivered {n} after 500 ms");
}
