//! Differential pin of the packet transit path.
//!
//! The typed-flight rewrite (engine `Stored::Flight` events instead of
//! per-hop boxed closures, O(1) link occupancy, leaf-move multicast
//! delivery) must be behaviour-invisible: same-seed runs produce the same
//! deliveries in the same order with the same timing, corruption flags and
//! counters, and the telemetry JSONL is byte-identical.
//!
//! The goldens below were captured from the pre-flight closure-based path
//! (commit a8aae7b) on the fixed scenario in `scenario()`; the scenario
//! deliberately mixes everything the transit path can do — multi-hop
//! unicast over lossy/jittery links, queue contention and overflow,
//! control-class priority, local loopback sends, and multicast with
//! mid-flight membership churn (leaf and interior members).

use cm_core::address::{NetAddr, VcId};
use cm_core::hash::fnv1a64;
use cm_core::rng::DetRng;
use cm_core::time::{Bandwidth, SimDuration, SimTime};
use netsim::{Engine, JitterModel, LinkParams, Network, NodeClock, Packet, PacketClass};
use std::cell::RefCell;
use std::rc::Rc;

/// Records every delivery as one formatted line.
struct Recorder {
    log: RefCell<String>,
}

impl netsim::NodeHandler for Recorder {
    fn on_packet(&self, net: &Network, at: NetAddr, pkt: Packet) {
        use std::fmt::Write;
        let tag = pkt.payload_as::<u64>().copied().unwrap_or(u64::MAX);
        writeln!(
            self.log.borrow_mut(),
            "{} node={} src={} dst={} vc={:?} class={:?} size={} mg={:?} corrupt={} sent={} tag={}",
            net.engine().now(),
            at.0,
            pkt.src.0,
            pkt.dst.0,
            pkt.vc,
            pkt.class,
            pkt.wire_size,
            pkt.mgroup.map(|g| g.0),
            pkt.corrupted,
            pkt.sent_at,
            tag,
        )
        .unwrap();
    }
}

/// The fixed-seed scenario. Returns (delivery log, telemetry JSONL,
/// network counters as a formatted line).
fn scenario() -> (String, String, String) {
    let net = Network::new(Engine::new());
    let tel = net.engine().telemetry().clone();
    tel.enable(cm_telemetry_capacity());

    let mut rng = DetRng::from_seed(4242);
    // Topology: a line a-b-c-d with a lossy/jittery middle link, plus a
    // hub h off b serving three leaves l0..l2 for multicast.
    let a = net.add_node(NodeClock::perfect());
    let b = net.add_node(NodeClock::perfect());
    let c = net.add_node(NodeClock::perfect());
    let d = net.add_node(NodeClock::perfect());
    let h = net.add_node(NodeClock::perfect());
    let leaves = [
        net.add_node(NodeClock::perfect()),
        net.add_node(NodeClock::perfect()),
        net.add_node(NodeClock::perfect()),
    ];
    let clean = LinkParams::clean(Bandwidth::mbps(10), SimDuration::from_millis(1));
    let dirty = LinkParams {
        jitter: JitterModel::Uniform(SimDuration::from_micros(700)),
        loss: cm_core::qos::ErrorRate::from_prob(0.05),
        bit_error: cm_core::qos::ErrorRate::from_prob(0.03),
        ..clean.clone()
    };
    let tight = LinkParams {
        queue_capacity: 4_000,
        ..LinkParams::clean(Bandwidth::mbps(2), SimDuration::from_millis(1))
    };
    net.add_duplex(a, b, clean.clone(), &mut rng);
    net.add_duplex(b, c, dirty, &mut rng);
    net.add_duplex(c, d, tight, &mut rng);
    net.add_duplex(b, h, clean.clone(), &mut rng);
    for &l in &leaves {
        net.add_duplex(h, l, clean.clone(), &mut rng);
    }

    let rec = Rc::new(Recorder {
        log: RefCell::new(String::new()),
    });
    for &n in [a, b, c, d, h].iter().chain(leaves.iter()) {
        net.set_handler(n, rec.clone());
    }

    // Multicast group rooted at a; all three leaves plus interior node h
    // (a member that also forwards) join.
    let g = net.create_group(a, Bandwidth::mbps(1));
    net.group_join(g, h).unwrap().unwrap();
    for &l in &leaves {
        net.group_join(g, l).unwrap().unwrap();
    }

    let e = net.engine().clone();
    // Unicast data a→d across the lossy middle and the tight tail: enough
    // packets to overflow the c→d queue.
    for i in 0..60u64 {
        let net2 = net.clone();
        let at = SimTime::from_micros(i * 150);
        e.schedule_at(at, move |_| {
            net2.send(a, Packet::data(a, d, VcId(9), 1000, at, i));
        });
    }
    // Control traffic rides the priority channel d→a.
    for i in 0..10u64 {
        let net2 = net.clone();
        let at = SimTime::from_micros(i * 400);
        e.schedule_at(at, move |_| {
            net2.send(d, Packet::control(d, a, 200, at, 1000 + i));
        });
    }
    // Local loopback on b.
    for i in 0..5u64 {
        let net2 = net.clone();
        let at = SimTime::from_micros(i * 900);
        e.schedule_at(at, move |_| {
            net2.send(b, Packet::control(b, b, 64, at, 2000 + i));
        });
    }
    // Multicast sends with mid-flight churn: l2 leaves and rejoins while
    // packets are on the tree.
    for i in 0..40u64 {
        let net2 = net.clone();
        let at = SimTime::from_micros(i * 320);
        e.schedule_at(at, move |_| {
            net2.send_to_group(
                g,
                Packet::group(a, g, Some(VcId(77)), PacketClass::Data, 800, at, 3000 + i),
            );
            if i == 10 {
                net2.group_leave(g, NetAddr(7)); // l2
            }
            if i == 25 {
                net2.group_join(g, NetAddr(7)).unwrap().unwrap();
            }
        });
    }
    e.run();

    let counters = format!("{:?}", net.counters());
    let log = rec.log.borrow().clone();
    (log, tel.export_jsonl(), counters)
}

fn cm_telemetry_capacity() -> usize {
    // Large enough that the ring never wraps for this scenario: the JSONL
    // is the complete trace, not a suffix.
    1 << 16
}

/// Pinned digests of the pre-rewrite behaviour. If an intentional
/// behaviour change ever invalidates these, re-derive them with
/// `cargo test -p netsim --test packet_differential -- --nocapture`
/// (the failing assertion prints the observed values).
const GOLDEN_DELIVERY_FNV: u64 = 0xca52ffd0d643abc0;
// Re-pinned when the `engine.events_drained` counter was added to the
// run-loop drain span: the counter appears in the JSONL export (the
// delivery log and network counters were unchanged — event order and
// packet behaviour did not drift).
const GOLDEN_JSONL_FNV: u64 = 0x7671455452d1c81e;
// `node_down`/`link_down` were appended to `NetworkCounters` by the fault
// API; a zero-fault run must keep them at zero.
const GOLDEN_COUNTERS: &str = "NetworkCounters { delivered: 180, no_handler: 0, no_route: 0, \
     queue_overflow: 38, link_loss: 2, node_down: 0, link_down: 0 }";

#[test]
fn same_seed_delivery_order_and_telemetry_are_pinned() {
    let (log, jsonl, counters) = scenario();
    let (log2, jsonl2, counters2) = scenario();
    // Run-to-run determinism first: any failure here is noise, not drift.
    assert_eq!(log, log2, "delivery log not deterministic across runs");
    assert_eq!(jsonl, jsonl2, "telemetry JSONL not deterministic");
    assert_eq!(counters, counters2);

    let log_fnv = fnv1a64(log.as_bytes());
    let jsonl_fnv = fnv1a64(jsonl.as_bytes());
    assert!(
        log_fnv == GOLDEN_DELIVERY_FNV
            && jsonl_fnv == GOLDEN_JSONL_FNV
            && counters == GOLDEN_COUNTERS,
        "packet path behaviour drifted from the pre-flight golden:\n\
         delivery fnv = {log_fnv:#018x} (golden {GOLDEN_DELIVERY_FNV:#018x})\n\
         jsonl fnv    = {jsonl_fnv:#018x} (golden {GOLDEN_JSONL_FNV:#018x})\n\
         counters     = {counters}\n\
         golden       = {GOLDEN_COUNTERS}\n\
         first lines of delivery log:\n{}",
        log.lines().take(10).collect::<Vec<_>>().join("\n"),
    );
}
