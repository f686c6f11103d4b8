//! Property tests on the adaptive-window runner: randomized per-pair
//! lookahead matrices and emission schedules, checked for worker-count
//! invariance (merged report FNV identical for 1/2/4 workers), exact
//! delivery times (an envelope never fires before — or anywhere but at —
//! its `deliver_time`), and a closed-form oracle (the emissions are
//! static, so every zone's fire times and deliveries are known before
//! the run, and the round count is bounded by the events fired).

use cm_cluster::{run_cluster, ClusterConfig, Envelope, LookaheadMatrix, ZoneWorker};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One directed cross-zone edge of a generated topology.
#[derive(Debug, Clone, Copy)]
struct Edge {
    src: u32,
    dst: u32,
    latency_us: u64,
}

/// One scheduled cross-zone emission: at local time `at_us`, `src`
/// sends an envelope along edge (`src`, `dst`).
#[derive(Debug, Clone, Copy)]
struct Emission {
    src: u32,
    dst: u32,
    at_us: u64,
}

/// A randomized cluster workload.
#[derive(Debug, Clone)]
struct Workload {
    zones: u32,
    edges: Vec<Edge>,
    /// Per-zone local (non-emitting) event times.
    locals: Vec<Vec<u64>>,
    emissions: Vec<Emission>,
}

impl Workload {
    fn matrix(&self) -> LookaheadMatrix {
        let mut m = LookaheadMatrix::disconnected(self.zones as usize);
        for e in &self.edges {
            m.set(e.src, e.dst, e.latency_us);
        }
        m
    }

    fn latency(&self, src: u32, dst: u32) -> u64 {
        self.edges
            .iter()
            .find(|e| e.src == src && e.dst == dst)
            .map(|e| e.latency_us)
            .expect("emissions only ride declared edges")
    }

    /// What zone `z` must fire, in order: its locals, its own emissions
    /// (each one a local event of its sender) and, at `at + latency`,
    /// every emission addressed to it.
    fn expected_fired(&self, z: u32) -> Vec<u64> {
        let mut fired = self.locals[z as usize].clone();
        fired.extend(
            self.emissions
                .iter()
                .filter(|e| e.src == z)
                .map(|e| e.at_us),
        );
        fired.extend(self.expected_deliveries(z));
        fired.sort_unstable();
        fired
    }

    /// The delivery times of every emission addressed to zone `z`, sorted.
    fn expected_deliveries(&self, z: u32) -> Vec<u64> {
        let mut d: Vec<u64> = self
            .emissions
            .iter()
            .filter(|e| e.dst == z)
            .map(|e| e.at_us + self.latency(e.src, e.dst))
            .collect();
        d.sort_unstable();
        d
    }
}

/// A toy zone replaying its slice of a [`Workload`]: local events and
/// emission events, each emission riding its declared edge.
struct PropZone {
    pending: BinaryHeap<Reverse<u64>>,
    /// Remaining emissions, sorted by fire time.
    emissions: Vec<(u64, u32, u64)>,
    clock: u64,
    outbound: Vec<Envelope<u64>>,
    injected: Vec<(u64, u64)>,
    fired: Vec<u64>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct PropReport {
    /// (deliver_at, zone clock at injection) per injected envelope.
    injected: Vec<(u64, u64)>,
    /// Times every event fired at, in execution order.
    fired: Vec<u64>,
}

impl ZoneWorker for PropZone {
    type Msg = u64;
    type Report = PropReport;

    fn inject(&mut self, env: Envelope<u64>) {
        self.injected.push((env.deliver_at_us, self.clock));
        self.pending.push(Reverse(env.deliver_at_us));
    }

    fn next_deadline_us(&mut self) -> Option<u64> {
        self.pending.peek().map(|Reverse(t)| *t)
    }

    fn next_emission_us(&mut self) -> Option<u64> {
        self.emissions.first().map(|&(t, _, _)| t)
    }

    fn run_until_us(&mut self, deadline_us: u64) {
        while let Some(&Reverse(t)) = self.pending.peek() {
            if t > deadline_us {
                break;
            }
            self.pending.pop();
            self.clock = t;
            self.fired.push(t);
            while let Some(&(et, dst, lat)) = self.emissions.first() {
                if et != t {
                    break;
                }
                self.emissions.remove(0);
                self.outbound.push(Envelope::to(dst, t + lat, t));
            }
        }
        if deadline_us != u64::MAX {
            self.clock = deadline_us;
        }
    }

    fn drain_outbound(&mut self, out: &mut Vec<Envelope<u64>>) {
        out.append(&mut self.outbound);
    }

    fn finish(self) -> PropReport {
        PropReport {
            injected: self.injected,
            fired: self.fired,
        }
    }
}

fn builders(w: &Workload) -> Vec<Box<dyn FnOnce() -> PropZone + Send>> {
    (0..w.zones)
        .map(|zone| {
            let locals = w.locals[zone as usize].clone();
            let mut emissions: Vec<(u64, u32, u64)> = w
                .emissions
                .iter()
                .filter(|e| e.src == zone)
                .map(|e| (e.at_us, e.dst, w.latency(e.src, e.dst)))
                .collect();
            emissions.sort_unstable();
            Box::new(move || {
                let mut pending: BinaryHeap<Reverse<u64>> =
                    locals.into_iter().map(Reverse).collect();
                for &(t, _, _) in &emissions {
                    pending.push(Reverse(t));
                }
                PropZone {
                    pending,
                    emissions,
                    clock: 0,
                    outbound: Vec::new(),
                    injected: Vec::new(),
                    fired: Vec::new(),
                }
            }) as Box<dyn FnOnce() -> PropZone + Send>
        })
        .collect()
}

fn run(w: &Workload, workers: usize) -> (Vec<PropReport>, u64) {
    let cfg = ClusterConfig {
        workers,
        max_rounds: 100_000,
        matrix: w.matrix(),
    };
    let report = run_cluster(builders(w), &cfg);
    (report.reports, report.rounds)
}

/// FNV-1a over a canonical rendering of the merged reports — the same
/// fingerprint style the bench differentials use.
fn fnv64(reports: &[PropReport]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
    };
    for (z, r) in reports.iter().enumerate() {
        eat(z as u64);
        eat(r.fired.len() as u64);
        for &t in &r.fired {
            eat(t);
        }
        eat(r.injected.len() as u64);
        for &(d, c) in &r.injected {
            eat(d);
            eat(c);
        }
    }
    h
}

/// Generated topology + schedule: 2–4 zones, each ordered pair carrying
/// an edge with probability ~1/2 (latencies 1–200 µs), sparse local
/// events, and emissions riding random declared edges. Raw material is
/// generated at the 4-zone maximum and trimmed to the drawn zone count.
fn workload() -> impl Strategy<Value = Workload> {
    (
        2u32..=4,
        collection::vec((any::<bool>(), 1u64..=200), 12),
        collection::vec(collection::vec(0u64..10_000, 0..6), 4),
        collection::vec((0u64..10_000, 0usize..64), 0..12),
    )
        .prop_map(|(zones, edge_material, mut locals, raw_emissions)| {
            let pairs: Vec<(u32, u32)> = (0..zones)
                .flat_map(|s| (0..zones).filter(move |&d| d != s).map(move |d| (s, d)))
                .collect();
            let edges: Vec<Edge> = pairs
                .iter()
                .zip(&edge_material)
                .filter_map(|(&(src, dst), &(keep, latency_us))| {
                    keep.then_some(Edge {
                        src,
                        dst,
                        latency_us,
                    })
                })
                .collect();
            locals.truncate(zones as usize);
            // Emissions can only ride declared edges; with none, the
            // zones just drain silently.
            let emissions = raw_emissions
                .into_iter()
                .filter_map(|(at_us, pick)| {
                    if edges.is_empty() {
                        return None;
                    }
                    let e = edges[pick % edges.len()];
                    Some(Emission {
                        src: e.src,
                        dst: e.dst,
                        at_us,
                    })
                })
                .collect();
            Workload {
                zones,
                edges,
                locals,
                emissions,
            }
        })
}

proptest! {
    /// The merged outcome — every fire time, every delivery — is
    /// identical for 1, 2, and 4 workers.
    #[test]
    fn worker_count_is_invisible(w in workload()) {
        let (one, _) = run(&w, 1);
        let base = fnv64(&one);
        for workers in [2usize, 4] {
            let (many, _) = run(&w, workers);
            prop_assert_eq!(fnv64(&many), base, "FNV diverged at workers={}", workers);
            prop_assert_eq!(&many, &one, "reports diverged at workers={}", workers);
        }
    }

    /// Adaptive windows never deliver an envelope before its
    /// `deliver_time` — and it fires at exactly that instant.
    #[test]
    fn deliveries_are_never_early(w in workload()) {
        let (reports, _) = run(&w, 2);
        for r in &reports {
            for &(deliver_at, clock_at_injection) in &r.injected {
                prop_assert!(
                    clock_at_injection <= deliver_at,
                    "envelope injected into the receiver's past: deliver_at={} clock={}",
                    deliver_at,
                    clock_at_injection
                );
                prop_assert!(
                    r.fired.contains(&deliver_at),
                    "envelope never fired at its delivery time {}",
                    deliver_at
                );
            }
        }
    }

    /// Every zone fires exactly its closed-form schedule and receives
    /// exactly the emissions addressed to it, and the run is live: each
    /// round but the last executes at least one event.
    #[test]
    fn runs_match_the_closed_form_oracle(w in workload()) {
        let (reports, rounds) = run(&w, 1);
        for (z, r) in reports.iter().enumerate() {
            let z = z as u32;
            prop_assert_eq!(&r.fired, &w.expected_fired(z), "zone {} fired", z);
            // Injection *call order* is a round-partition artifact (one
            // wide window can hand over several rounds' worth), so
            // compare deliveries as a multiset.
            let mut delivered: Vec<u64> = r.injected.iter().map(|&(d, _)| d).collect();
            delivered.sort_unstable();
            prop_assert_eq!(delivered, w.expected_deliveries(z), "zone {} deliveries", z);
        }
        let fired: usize = reports.iter().map(|r| r.fired.len()).sum();
        prop_assert!(
            rounds <= fired as u64 + 1,
            "{} rounds for {} fired events: some round made no progress",
            rounds,
            fired
        );
    }
}
