//! Property tests for the data-TPDU wire codec and the VC state machine
//! under adversarial input.
//!
//! The codec properties establish that [`TpduHeader::decode`] is total:
//! arbitrary bytes, truncated prefixes and single-byte corruption all map
//! to typed [`TpduParseError`]s (or a demonstrably different header) —
//! never a panic. The state-machine properties then storm a live entity
//! with structurally well-formed but semantically adversarial control
//! messages and data fragments — unknown VCs, replayed credits, bogus
//! acks, reordered feedback — and require the entity to keep serving its
//! open connection, and to stay silent about a connection it has released.

use cm_core::address::{AddressTriple, NetAddr, TransportAddr, Tsap, VcId};
use cm_core::error::DisconnectReason;
use cm_core::media::MediaProfile;
use cm_core::osdu::{Opdu, Payload};
use cm_core::qos::{QosParams, QosRequirement, QosViolation};
use cm_core::service_class::ServiceClass;
use cm_core::time::{Bandwidth, SimDuration, SimTime};
use cm_transport::tpdu::{ControlMsg, DataTpdu, TPDU_HEADER};
use cm_transport::{
    EntityConfig, QosReport, TpduHeader, TpduParseError, TransportService, TransportUser,
};
use netsim::{two_node, Engine, LinkParams};
use proptest::prelude::*;
use std::rc::Rc;

// ---------------------------------------------------------------------
// Codec properties
// ---------------------------------------------------------------------

/// A structurally valid header: index < count, payload within bounds,
/// final flag consistent.
fn header_strategy() -> impl Strategy<Value = TpduHeader> {
    (
        any::<u64>(),
        any::<u64>(),
        1u32..=64,
        0u64..64,
        0u16..=(cm_transport::wire::MAX_FRAG_PAYLOAD as u16),
    )
        .prop_map(|(vc, seq, count, index_draw, bytes)| {
            let index = (index_draw % count as u64) as u32;
            TpduHeader {
                vc: VcId(vc),
                osdu_seq: seq,
                frag_index: index,
                frag_count: count,
                frag_bytes: bytes,
                last: index + 1 == count,
            }
        })
}

proptest! {
    #[test]
    fn header_roundtrips(h in header_strategy()) {
        prop_assert_eq!(TpduHeader::decode(&h.encode()), Ok(h));
    }

    #[test]
    fn decode_is_total_over_arbitrary_bytes(buf in collection::vec(any::<u8>(), 0..=48)) {
        // Either outcome is fine; what is not fine is a panic.
        let _ = TpduHeader::decode(&buf);
        let _ = TpduHeader::decode_datagram(&buf);
    }

    #[test]
    fn truncated_prefix_is_typed(h in header_strategy(), cut in 0usize..TPDU_HEADER) {
        let bytes = h.encode();
        prop_assert_eq!(
            TpduHeader::decode(&bytes[..cut]),
            Err(TpduParseError::Truncated { got: cut, needed: TPDU_HEADER })
        );
    }

    #[test]
    fn corruption_never_yields_the_same_header(
        h in header_strategy(),
        at in 0usize..TPDU_HEADER,
        bit in 0u8..8,
    ) {
        let mut bytes = h.encode();
        bytes[at] ^= 1 << bit;
        // A flipped bit is either caught by a typed error (checksum,
        // magic, version, structural validation) or — if the checksum
        // field itself absorbed the flip legally — produces a header
        // observably different from the original. Silent acceptance of
        // the original header would mean undetected corruption.
        match TpduHeader::decode(&bytes) {
            Err(_) => {}
            Ok(decoded) => prop_assert_ne!(decoded, h),
        }
    }

    #[test]
    fn datagram_length_mismatch_is_typed(h in header_strategy(), extra in 1usize..16) {
        let mut buf = h.encode().to_vec();
        buf.extend(std::iter::repeat_n(0u8, h.frag_bytes as usize + extra));
        let r = TpduHeader::decode_datagram(&buf);
        prop_assert_eq!(
            r,
            Err(TpduParseError::LengthMismatch {
                declared: h.frag_bytes as usize,
                actual: h.frag_bytes as usize + extra,
            })
        );
    }
}

// ---------------------------------------------------------------------
// State-machine properties
// ---------------------------------------------------------------------

struct QuietUser;

impl TransportUser for QuietUser {
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

    fn t_connect_confirm(
        &self,
        _svc: &TransportService,
        _vc: VcId,
        _result: Result<QosParams, DisconnectReason>,
    ) {
    }
}

struct StormWorld {
    net: netsim::Network,
    svc_a: TransportService,
    svc_b: TransportService,
    peer_a: NetAddr,
    peer_b: NetAddr,
    vc: VcId,
}

/// Two nodes with an open telephone-audio VC a→b, mid-stream.
fn storm_world() -> StormWorld {
    let params = LinkParams::clean(Bandwidth::mbps(10), SimDuration::from_millis(1));
    let (net, a, b) = two_node(Engine::new(), params, 42);
    let svc_a = TransportService::install(&net, a, EntityConfig::default());
    let svc_b = TransportService::install(&net, b, EntityConfig::default());
    svc_a.bind(Tsap(1), Rc::new(QuietUser)).expect("bind a");
    svc_b.bind(Tsap(2), Rc::new(QuietUser)).expect("bind b");
    let triple = AddressTriple::conventional(
        TransportAddr {
            node: a,
            tsap: Tsap(1),
        },
        TransportAddr {
            node: b,
            tsap: Tsap(2),
        },
    );
    let vc = svc_a
        .t_connect_request(
            triple,
            ServiceClass::reliable_cm(),
            MediaProfile::audio_telephone().requirement(),
        )
        .expect("request");
    net.engine().run_for(SimDuration::from_millis(50));
    assert!(svc_a.is_open(vc), "fixture VC must open");
    for i in 0..20 {
        svc_a
            .write_osdu(vc, Payload::synthetic(i, 80), None)
            .expect("write");
    }
    net.engine().run_for(SimDuration::from_millis(200));
    StormWorld {
        net,
        svc_a,
        svc_b,
        peer_a: a,
        peer_b: b,
        vc,
    }
}

/// Number of message shapes [`storm_msg`] draws from.
const STORM_KINDS: u8 = 17;

/// Map a generated op onto a control message: every variant that
/// addresses an existing VC, success and failure arms alike. (The three
/// connect *requests* open a connection under whatever id they carry, and
/// a datagram addresses a TSAP — neither speaks to an existing VC.)
/// `x`/`y` supply the adversarial numeric payloads; the VC alternates
/// between the fixture's and an arbitrary (usually unknown) id.
fn storm_msg(kind: u8, vc: VcId, x: u64, y: u64) -> ControlMsg {
    let qos = MediaProfile::audio_telephone()
        .requirement()
        .tolerance
        .preferred;
    let member = TransportAddr {
        node: NetAddr((x % 2) as u32),
        tsap: Tsap(2),
    };
    match kind {
        0 => ControlMsg::Credit { vc, freed_total: x },
        1 => ControlMsg::CreditProbe { vc },
        2 => ControlMsg::Ack { vc, upto: x },
        3 => ControlMsg::Nack {
            vc,
            seqs: vec![x % 64, y % 64],
        },
        4 => ControlMsg::Dropped {
            vc,
            seqs: vec![x % 64, x % 64 + 1],
        },
        5 => ControlMsg::ConnectResponse {
            vc,
            result: Err(DisconnectReason::UserRejected),
        },
        6 => ControlMsg::RenegotiateResponse {
            vc,
            result: Err(DisconnectReason::RenegotiationRefused),
        },
        7 => ControlMsg::RemoteConnectReply {
            vc,
            result: Err(DisconnectReason::NoSuchTsap),
        },
        8 => ControlMsg::ConnectResponse {
            vc,
            result: Ok((qos, (x % 64) as u32)),
        },
        9 => ControlMsg::RenegotiateResponse {
            vc,
            result: Ok(qos),
        },
        10 => ControlMsg::RenegotiateRequest {
            vc,
            new_tolerance: MediaProfile::audio_telephone().requirement().tolerance,
        },
        11 => ControlMsg::GroupConnectResponse {
            vc,
            member,
            result: Ok((qos, (x % 64) as u32)),
        },
        12 => ControlMsg::Disconnect {
            vc,
            reason: DisconnectReason::UserRelease,
            notify: None,
        },
        13 => ControlMsg::Disconnect {
            vc,
            reason: DisconnectReason::UserRelease,
            notify: Some(member),
        },
        14 => ControlMsg::QosReportMsg(QosReport {
            vc,
            contracted: qos,
            // Zero throughput with a violation is the starvation signal
            // that kicks the healing path.
            measured: QosParams {
                throughput: Bandwidth::ZERO,
                ..qos
            },
            sample_period: SimDuration::from_millis(100),
            violations: vec![QosViolation::Throughput {
                contracted: qos.throughput,
                measured: Bandwidth::ZERO,
            }],
        }),
        15 => ControlMsg::UserControl {
            vc,
            payload: Rc::new(y),
        },
        _ => ControlMsg::RemoteConnectReply {
            vc,
            result: Ok(qos),
        },
    }
}

proptest! {
    /// Random control traffic — replayed, reordered, addressed to open
    /// and unknown VCs alike, from both directions — never panics the
    /// entities, and the engine keeps draining to quiescence.
    #[test]
    fn control_storm_never_panics(
        ops in collection::vec((0..STORM_KINDS, any::<u64>(), any::<u64>(), any::<bool>(), any::<bool>()), 1..40),
    ) {
        let w = storm_world();
        for (kind, x, y, at_source, known_vc) in ops {
            let vc = if known_vc { w.vc } else { VcId(x | 0x8000_0000_0000_0000) };
            let msg = storm_msg(kind, vc, x, y);
            if at_source {
                w.svc_a.inject_control(w.peer_b, msg);
            } else {
                w.svc_b.inject_control(w.peer_a, msg);
            }
            w.net.engine().run_for(SimDuration::from_millis(5));
        }
        w.net.engine().run_for(SimDuration::from_secs(2));
        // The entity survived: it can still open a fresh VC end to end.
        let triple = AddressTriple::conventional(
            TransportAddr { node: w.peer_a, tsap: Tsap(1) },
            TransportAddr { node: w.peer_b, tsap: Tsap(2) },
        );
        let fresh = w.svc_a.t_connect_request(
            triple,
            ServiceClass::cm_default(),
            MediaProfile::audio_telephone().requirement(),
        );
        prop_assert!(fresh.is_ok(), "entity wedged: {:?}", fresh.err());
        let fresh = fresh.unwrap();
        w.net.engine().run_for(SimDuration::from_millis(50));
        prop_assert!(w.svc_a.is_open(fresh), "fresh VC failed to open after storm");
    }

    /// Structurally valid but semantically adversarial data fragments —
    /// wrong VCs, stale and far-future sequence numbers, duplicated and
    /// corrupted fragments — never panic the receiving entity.
    #[test]
    fn data_storm_never_panics(
        ops in collection::vec((any::<u64>(), 1u32..4, any::<u64>(), any::<bool>(), any::<bool>()), 1..40),
    ) {
        let w = storm_world();
        for (seq, frag_count, vc_draw, known_vc, corrupted) in ops {
            let vc = if known_vc { w.vc } else { VcId(vc_draw | 0x8000_0000_0000_0000) };
            for frag_index in 0..frag_count {
                let last = frag_index + 1 == frag_count;
                let tpdu = DataTpdu {
                    vc,
                    osdu_seq: seq % 128,
                    frag_index,
                    frag_count,
                    frag_bytes: 80,
                    opdu: Opdu::default(),
                    payload: last.then(|| Payload::synthetic(seq % 128, 80)),
                    osdu_sent_at: SimTime::ZERO,
                };
                w.svc_b.inject_data(tpdu, corrupted);
            }
            w.net.engine().run_for(SimDuration::from_millis(5));
        }
        w.net.engine().run_for(SimDuration::from_secs(2));
        prop_assert!(w.svc_a.is_open(w.vc) || !w.svc_a.is_open(w.vc)); // reached quiescence
    }

    /// A released VC is gone at both ends: any control message or data
    /// fragment still addressed to its id is absorbed in silence. Replies
    /// travel as packets and indications are dispatched as engine events,
    /// so "the idle engine stays idle" covers both — and timers too.
    #[test]
    fn released_vc_ignores_late_traffic(
        ops in collection::vec((0..=STORM_KINDS, any::<u64>(), any::<u64>(), any::<bool>(), any::<bool>()), 1..40),
    ) {
        let w = storm_world();
        w.svc_a.t_disconnect_request(w.vc).expect("release");
        w.net.engine().run_for(SimDuration::from_secs(1));
        prop_assert_eq!((w.svc_a.live_vcs(), w.svc_b.live_vcs()), (0, 0));
        prop_assert_eq!(w.net.engine().pending(), 0, "world not quiescent after release");
        for (kind, x, y, at_source, corrupted) in ops {
            let (svc, from) = if at_source { (&w.svc_a, w.peer_b) } else { (&w.svc_b, w.peer_a) };
            if kind == STORM_KINDS {
                svc.inject_data(
                    DataTpdu {
                        vc: w.vc,
                        osdu_seq: x % 128,
                        frag_index: 0,
                        frag_count: 1,
                        frag_bytes: 80,
                        opdu: Opdu::default(),
                        payload: Some(Payload::synthetic(x % 128, 80)),
                        osdu_sent_at: SimTime::ZERO,
                    },
                    corrupted,
                );
            } else {
                svc.inject_control(from, storm_msg(kind, w.vc, x, y));
            }
            prop_assert_eq!(w.net.engine().pending(), 0, "kind {} raised a reply or indication", kind);
            prop_assert_eq!((w.svc_a.live_vcs(), w.svc_b.live_vcs()), (0, 0));
        }
    }
}
