//! Differential test: the timer-wheel engine must produce byte-identical
//! firing order to a reference binary-heap scheduler (the pre-wheel
//! implementation) under random schedule / cancel / periodic-arm /
//! run_until / step sequences, including back-to-back `run_until` windows
//! (the shape a barrier-synchronised zone runner and the benchmark's
//! `run_for` loops drive the engine with).
//!
//! The reference keeps the old semantics exactly: a max-heap on inverted
//! `(at, seq)` plus a tombstone set for cancellations. Equivalence is
//! checked on the full `(fire_time, tag)` log and on the clock.

use cm_core::time::SimDuration;
use netsim::{Engine, EventId, PeriodicTimer};
use proptest::prelude::*;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::rc::Rc;

/// The pre-wheel scheduler, reduced to what ordering depends on.
struct RefEngine {
    now: u64,
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    next_seq: u64,
    cancelled: HashSet<u64>,
    /// Seqs scheduled, not yet fired, not cancelled — the live count the
    /// new engine's `pending()` must agree with.
    live: HashSet<u64>,
    fired: Vec<(u64, u32)>,
}

impl RefEngine {
    fn new() -> RefEngine {
        RefEngine {
            now: 0,
            heap: BinaryHeap::new(),
            next_seq: 0,
            cancelled: HashSet::new(),
            live: HashSet::new(),
            fired: Vec::new(),
        }
    }

    fn schedule(&mut self, at: u64, tag: u32) -> u64 {
        assert!(at >= self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((at, seq, tag)));
        self.live.insert(seq);
        seq
    }

    fn cancel(&mut self, seq: u64) {
        // Cancelling an already-fired (or already-cancelled) event is a
        // no-op, matching the real engine's stale-generation check.
        if self.live.remove(&seq) {
            self.cancelled.insert(seq);
        }
    }

    fn step(&mut self) -> bool {
        while let Some(Reverse((at, seq, tag))) = self.heap.pop() {
            if self.cancelled.remove(&seq) {
                continue;
            }
            self.live.remove(&seq);
            self.now = at;
            self.fired.push((at, tag));
            return true;
        }
        false
    }

    fn run(&mut self) {
        while self.step() {}
    }

    fn run_until(&mut self, deadline: u64) {
        while let Some(&Reverse((at, seq, _))) = self.heap.peek() {
            if self.cancelled.contains(&seq) {
                self.heap.pop();
                self.cancelled.remove(&seq);
                continue;
            }
            if at > deadline {
                break;
            }
            self.step();
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Deadline of the earliest live event.
    fn next_deadline(&self) -> Option<u64> {
        self.heap
            .iter()
            .filter(|Reverse((_, seq, _))| self.live.contains(seq))
            .map(|Reverse((at, _, _))| *at)
            .min()
    }
}

const TIMERS: usize = 4;
/// Offset spreads chosen to exercise every wheel level and the overflow
/// heap (the wheel spans 2^36 µs).
const SPREADS: [u64; 5] = [100, 10_000, 100_000_000, 1 << 37, 1 << 40];

#[derive(Debug, Clone, Copy)]
enum Op {
    Schedule(u64),
    Cancel(u64),
    ArmTimer(usize, u64),
    DisarmTimer(usize),
    RunUntil(u64),
    /// `count` consecutive `run_until` windows of `width` µs each.
    Windows(u64, u64),
    Step,
}

fn decode(kind: u8, a: u64, b: u64) -> Op {
    let spread = SPREADS[(b >> 32) as usize % SPREADS.len()];
    match kind {
        0..=2 => Op::Schedule(a % spread),
        3 => Op::Cancel(a),
        4 => Op::ArmTimer(a as usize % TIMERS, b % spread),
        5 => Op::DisarmTimer(a as usize % TIMERS),
        6 => Op::RunUntil(a % spread),
        7 => Op::Windows(1 + a % 6, 1 + b % spread.min(100_000)),
        _ => Op::Step,
    }
}

proptest! {
    #[test]
    fn wheel_matches_reference_heap(
        raw in proptest::collection::vec((0u8..9, any::<u64>(), any::<u64>()), 1..120)
    ) {
        let engine = Engine::new();
        let fired: Rc<RefCell<Vec<(u64, u32)>>> = Rc::new(RefCell::new(Vec::new()));
        let timers: Vec<PeriodicTimer> = (0..TIMERS)
            .map(|k| {
                let f = fired.clone();
                PeriodicTimer::new(&engine, move |e| {
                    f.borrow_mut().push((e.now().as_micros(), 1000 + k as u32));
                })
            })
            .collect();
        // Reference timer slots: the seq of the currently-armed shot.
        let mut ref_timers: [Option<u64>; TIMERS] = [None; TIMERS];

        let mut reference = RefEngine::new();
        let mut ids: Vec<(EventId, u64)> = Vec::new(); // (real id, ref seq)

        for (i, &(kind, a, b)) in raw.iter().enumerate() {
            let tag = i as u32;
            match decode(kind, a, b) {
                Op::Schedule(offset) => {
                    let at = engine.now() + SimDuration::from_micros(offset);
                    let f = fired.clone();
                    let id = engine.schedule_at(at, move |e| {
                        f.borrow_mut().push((e.now().as_micros(), tag));
                    });
                    let seq = reference.schedule(at.as_micros(), tag);
                    ids.push((id, seq));
                }
                Op::Cancel(pick) => {
                    if !ids.is_empty() {
                        let (id, seq) = ids[pick as usize % ids.len()];
                        engine.cancel(id);
                        reference.cancel(seq);
                    }
                }
                Op::ArmTimer(k, offset) => {
                    let at = engine.now() + SimDuration::from_micros(offset);
                    timers[k].arm_at(at);
                    if let Some(seq) = ref_timers[k].take() {
                        reference.cancel(seq);
                    }
                    ref_timers[k] = Some(reference.schedule(at.as_micros(), 1000 + k as u32));
                }
                Op::DisarmTimer(k) => {
                    timers[k].disarm();
                    if let Some(seq) = ref_timers[k].take() {
                        reference.cancel(seq);
                    }
                }
                Op::RunUntil(offset) => {
                    let deadline = engine.now() + SimDuration::from_micros(offset);
                    engine.run_until(deadline);
                    reference.run_until(deadline.as_micros());
                    prop_assert_eq!(engine.now().as_micros(), reference.now);
                }
                Op::Windows(count, width) => {
                    for _ in 0..count {
                        let deadline = engine.now() + SimDuration::from_micros(width);
                        engine.run_until(deadline);
                        reference.run_until(deadline.as_micros());
                        prop_assert_eq!(engine.now().as_micros(), reference.now);
                        prop_assert_eq!(engine.pending(), reference.live.len());
                        prop_assert_eq!(&*fired.borrow(), &reference.fired);
                        // Whatever a window leaves pending lies beyond it.
                        let next = engine.next_deadline().map(|t| t.as_micros());
                        prop_assert_eq!(next, reference.next_deadline());
                        prop_assert!(next.is_none_or(|t| t > reference.now));
                    }
                }
                Op::Step => {
                    let stepped = engine.step();
                    prop_assert_eq!(stepped, reference.step());
                }
            }
            prop_assert_eq!(engine.pending(), reference.live.len());
        }

        engine.run();
        reference.run();
        prop_assert_eq!(engine.now().as_micros(), reference.now);
        prop_assert_eq!(&*fired.borrow(), &reference.fired);
        prop_assert_eq!(engine.pending(), 0);
    }
}
