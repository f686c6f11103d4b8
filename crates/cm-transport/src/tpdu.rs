//! Transport PDUs: the data TPDUs carried on media VCs and the control
//! messages carried on the per-connection control channel.
//!
//! OSDUs larger than the network MTU are segmented into fragments; OSDU
//! boundaries are preserved end-to-end (§3.7). All connection-management
//! exchanges (tables 1–3) and per-VC protocol feedback (credits, acks,
//! retransmission requests, QoS reports) travel as [`ControlMsg`]s on the
//! control channel, which links serve with strict priority — the simulated
//! form of the "special internal control VC associated with each transport
//! connection" (§5).

use cm_core::address::{AddressTriple, TransportAddr, VcId};
use cm_core::error::DisconnectReason;
use cm_core::osdu::{Opdu, Osdu, Payload};
use cm_core::qos::{QosParams, QosRequirement, QosTolerance, QosViolation};
use cm_core::service_class::ServiceClass;
use cm_core::time::{SimDuration, SimTime};
use std::rc::Rc;

/// Default network MTU in bytes (payload + TPDU header must fit).
pub const DEFAULT_MTU: usize = 4096;

/// Bytes of header on every data TPDU.
pub const TPDU_HEADER: usize = 32;

/// Bytes charged for a control message on the wire.
pub const CONTROL_WIRE_SIZE: usize = 64;

/// One fragment of an OSDU travelling on a data VC.
#[derive(Debug, Clone)]
pub struct DataTpdu {
    /// The VC this fragment belongs to.
    pub vc: VcId,
    /// OSDU sequence number (from the OPDU).
    pub osdu_seq: u64,
    /// Fragment index within the OSDU, 0-based.
    pub frag_index: u32,
    /// Total fragments in the OSDU.
    pub frag_count: u32,
    /// Payload bytes carried by this fragment (excludes header).
    pub frag_bytes: usize,
    /// The OPDU, carried on every fragment so the receiver can account for
    /// partially-received OSDUs.
    pub opdu: Opdu,
    /// The complete payload, carried on the final fragment only (typed
    /// simulation stand-in for reassembly).
    pub payload: Option<Payload>,
    /// When the *first* fragment of this OSDU left the source protocol —
    /// the receiver measures end-to-end OSDU delay against this.
    pub osdu_sent_at: SimTime,
}

impl DataTpdu {
    /// Wire size of this fragment.
    pub fn wire_size(&self) -> usize {
        self.frag_bytes + TPDU_HEADER
    }

    /// Segment `osdu` into its fragments on `vc` under `mtu`, every one
    /// stamped as sent at `sent_at`; the final fragment carries the
    /// payload.
    pub(crate) fn fragments(
        vc: VcId,
        osdu: &Osdu,
        mtu: usize,
        sent_at: SimTime,
    ) -> impl Iterator<Item = DataTpdu> + '_ {
        let sizes = fragment_sizes(osdu.wire_size(), mtu);
        let count = sizes.len() as u32;
        sizes
            .into_iter()
            .enumerate()
            .map(move |(i, bytes)| DataTpdu {
                vc,
                osdu_seq: osdu.seq(),
                frag_index: i as u32,
                frag_count: count,
                frag_bytes: bytes,
                opdu: osdu.opdu,
                payload: (i as u32 + 1 == count).then(|| osdu.payload.clone()),
                osdu_sent_at: sent_at,
            })
    }
}

/// Split an OSDU of `wire_bytes` total bytes into fragment payload sizes
/// under `mtu` (each fragment then gains [`TPDU_HEADER`]).
pub fn fragment_sizes(wire_bytes: usize, mtu: usize) -> Vec<usize> {
    let room = mtu
        .checked_sub(TPDU_HEADER)
        .expect("MTU smaller than TPDU header");
    assert!(room > 0, "MTU leaves no payload room");
    if wire_bytes == 0 {
        return vec![0];
    }
    let full = wire_bytes / room;
    let rem = wire_bytes % room;
    let mut v = vec![room; full];
    if rem > 0 {
        v.push(rem);
    }
    v
}

/// A QoS degradation report (table 2) — carried in `T-QoS.indication` and
/// in the control-channel report from sink to source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QosReport {
    /// The VC measured.
    pub vc: VcId,
    /// The contracted settings at the time of measurement.
    pub contracted: QosParams,
    /// What the monitor measured over the sample period.
    pub measured: QosParams,
    /// The sample period the measurement covers.
    pub sample_period: SimDuration,
    /// Which tolerances degraded (the table-2 "error number"s, via
    /// [`QosViolation::error_number`]).
    pub violations: Vec<QosViolation>,
}

/// Control messages exchanged between transport entities.
#[derive(Debug, Clone)]
pub enum ControlMsg {
    /// Leg 1 of a remote connect (§3.5): initiator → source entity, asking
    /// the source to raise `T-Connect.indication` at its local user.
    RemoteConnectRequest {
        /// The VC id allocated by the initiator.
        vc: VcId,
        /// Full address triple.
        triple: AddressTriple,
        /// Selected protocol/class.
        class: ServiceClass,
        /// Proposed QoS.
        qos: QosRequirement,
    },
    /// Leg 2 / conventional connect: source entity → destination entity.
    ConnectRequest {
        /// VC id (carried end-to-end).
        vc: VcId,
        /// Full address triple.
        triple: AddressTriple,
        /// Selected protocol/class.
        class: ServiceClass,
        /// Proposed QoS.
        qos: QosRequirement,
    },
    /// Destination → source: accept (with the fully negotiated QoS and the
    /// receiver's initial buffer credit) or reject.
    ConnectResponse {
        /// VC id.
        vc: VcId,
        /// Agreed QoS and initial credit, or the rejection reason.
        result: Result<(QosParams, u32), DisconnectReason>,
    },
    /// Source entity → initiator entity (remote connect only): final
    /// outcome, relayed so the initiator gets its `T-Connect.confirm`.
    RemoteConnectReply {
        /// VC id.
        vc: VcId,
        /// Agreed QoS or rejection reason.
        result: Result<QosParams, DisconnectReason>,
    },
    /// Group-VC invitation: sender entity → prospective receiver entity.
    /// The per-receiver QoS was already negotiated against the member's
    /// branch of the shared tree and the branch admitted to the
    /// reservation ledger before this is sent.
    GroupConnectRequest {
        /// VC id (shared by the sender end and every receiver end).
        vc: VcId,
        /// The network-layer multicast group backing the VC.
        group: netsim::GroupId,
        /// Address triple: initiator = source = the sending end.
        triple: AddressTriple,
        /// Protocol/error-control class (rate-based only for groups).
        class: ServiceClass,
        /// The sender's original requirement (buffer sizing, monitoring).
        requirement: QosRequirement,
        /// The per-receiver contract negotiated against this member's
        /// branch.
        agreed: QosParams,
        /// First OSDU sequence number this receiver is owed — the group
        /// stream position at invitation time.
        start_seq: u64,
    },
    /// Prospective receiver → sender: accept (echoing the contract plus
    /// the receiver's initial buffer credit) or reject.
    GroupConnectResponse {
        /// VC id.
        vc: VcId,
        /// The answering member.
        member: TransportAddr,
        /// Contract and initial credit, or the rejection reason.
        result: Result<(QosParams, u32), DisconnectReason>,
    },
    /// Release request travelling to a VC endpoint (§4.1.1): on arrival the
    /// entity raises `T-Disconnect.indication` and tears down.
    Disconnect {
        /// VC id.
        vc: VcId,
        /// Why.
        reason: DisconnectReason,
        /// Initiator to notify of completion (remote release, §3.5).
        notify: Option<TransportAddr>,
    },
    /// QoS renegotiation request (table 3), initiator side → peer.
    RenegotiateRequest {
        /// VC id.
        vc: VcId,
        /// The new tolerance levels sought.
        new_tolerance: QosTolerance,
    },
    /// Peer's answer: the new agreed QoS, or refusal (the VC stays up).
    RenegotiateResponse {
        /// VC id.
        vc: VcId,
        /// New agreed QoS or the refusal reason.
        result: Result<QosParams, DisconnectReason>,
    },
    /// Receiver → sender: cumulative count of receive-buffer slots freed
    /// since the connection opened (application pops + unrepairable holes +
    /// declared drops). Credit-based backpressure gives the rate-based flow
    /// control the "rapid adaptation" that Orch.Stop and Orch.Prime rely on
    /// (§6.2.3/§6.3.1); carrying the *cumulative* total makes the scheme
    /// robust to lost credit messages.
    Credit {
        /// VC id.
        vc: VcId,
        /// Total slots freed since the connection opened.
        freed_total: u64,
    },
    /// Sender → receiver: the source intentionally discarded these OSDUs
    /// (orchestration catch-up, §6.3.1.1). The receiver skips them without
    /// counting loss or requesting retransmission, and frees their credit.
    Dropped {
        /// VC id.
        vc: VcId,
        /// The discarded sequence numbers.
        seqs: Vec<u64>,
    },
    /// Sender → receiver: re-advertise your cumulative freed total
    /// unconditionally. Sent only by the self-healing path after a
    /// suspected outage — if the last `Credit` message died on a downed
    /// element, the sender's credit view is stale and the ordinary
    /// delta-gated advertisement would never repeat it (DESIGN.md §9).
    CreditProbe {
        /// VC id.
        vc: VcId,
    },
    /// Receiver → sender: selective retransmission request for the listed
    /// OSDU sequence numbers (error-control classes with correction).
    Nack {
        /// VC id.
        vc: VcId,
        /// Damaged or missing OSDUs to resend.
        seqs: Vec<u64>,
    },
    /// Window protocol only — cumulative acknowledgement: all TPDU
    /// sequence numbers `< upto` received.
    Ack {
        /// VC id.
        vc: VcId,
        /// One past the highest in-order TPDU received.
        upto: u64,
    },
    /// Sink monitor → source: periodic QoS measurement (degradations raise
    /// `T-QoS.indication` at both ends, §4.1.2).
    QosReportMsg(QosReport),
    /// Opaque user control payload — the orchestration service's OPDUs ride
    /// the control channel through this (§5).
    UserControl {
        /// VC the control data is associated with.
        vc: VcId,
        /// Typed payload for the peer's control-channel tap.
        payload: Rc<dyn std::any::Any>,
    },
    /// Connectionless datagram to a TSAP (the "datagram services" of the
    /// standard protocol matrix, §4) — used by the platform's RPC and by
    /// orchestration sessions without a per-VC channel.
    Datagram {
        /// Destination TSAP on the receiving node.
        to_tsap: cm_core::address::Tsap,
        /// Reply address of the sender.
        from: TransportAddr,
        /// Typed payload.
        payload: Rc<dyn std::any::Any>,
        /// Wire size charged for the payload.
        wire_size: usize,
    },
}

impl ControlMsg {
    /// The VC a message belongs to, if any.
    pub fn vc(&self) -> Option<VcId> {
        match self {
            ControlMsg::RemoteConnectRequest { vc, .. }
            | ControlMsg::ConnectRequest { vc, .. }
            | ControlMsg::ConnectResponse { vc, .. }
            | ControlMsg::GroupConnectRequest { vc, .. }
            | ControlMsg::GroupConnectResponse { vc, .. }
            | ControlMsg::RemoteConnectReply { vc, .. }
            | ControlMsg::Disconnect { vc, .. }
            | ControlMsg::RenegotiateRequest { vc, .. }
            | ControlMsg::RenegotiateResponse { vc, .. }
            | ControlMsg::Credit { vc, .. }
            | ControlMsg::CreditProbe { vc }
            | ControlMsg::Dropped { vc, .. }
            | ControlMsg::Nack { vc, .. }
            | ControlMsg::Ack { vc, .. }
            | ControlMsg::UserControl { vc, .. } => Some(*vc),
            ControlMsg::QosReportMsg(r) => Some(r.vc),
            ControlMsg::Datagram { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragment_sizes_cover_exactly() {
        let room = DEFAULT_MTU - TPDU_HEADER;
        assert_eq!(fragment_sizes(0, DEFAULT_MTU), vec![0]);
        assert_eq!(fragment_sizes(1, DEFAULT_MTU), vec![1]);
        assert_eq!(fragment_sizes(room, DEFAULT_MTU), vec![room]);
        assert_eq!(fragment_sizes(room + 1, DEFAULT_MTU), vec![room, 1]);
        let sizes = fragment_sizes(100_000, DEFAULT_MTU);
        assert_eq!(sizes.iter().sum::<usize>(), 100_000);
        assert!(sizes.iter().all(|&s| s <= room));
        // Only the last fragment may be short.
        assert!(sizes[..sizes.len() - 1].iter().all(|&s| s == room));
    }

    #[test]
    #[should_panic(expected = "MTU")]
    fn mtu_must_exceed_header() {
        fragment_sizes(10, TPDU_HEADER);
    }

    #[test]
    fn control_msg_vc_extraction() {
        let m = ControlMsg::Credit {
            vc: VcId(7),
            freed_total: 3,
        };
        assert_eq!(m.vc(), Some(VcId(7)));
        let m = ControlMsg::QosReportMsg(QosReport {
            vc: VcId(9),
            contracted: QosParams::weakest(),
            measured: QosParams::weakest(),
            sample_period: SimDuration::from_secs(1),
            violations: vec![],
        });
        assert_eq!(m.vc(), Some(VcId(9)));
    }

    #[test]
    fn tpdu_wire_size_includes_header() {
        let t = DataTpdu {
            vc: VcId(1),
            osdu_seq: 0,
            frag_index: 0,
            frag_count: 1,
            frag_bytes: 100,
            opdu: Opdu::default(),
            payload: None,
            osdu_sent_at: SimTime::ZERO,
        };
        assert_eq!(t.wire_size(), 132);
    }
}
