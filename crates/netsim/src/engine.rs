//! The discrete-event core.
//!
//! Everything in the reproduction — link transmissions, protocol timers,
//! application threads, orchestration intervals — runs as events scheduled
//! on one [`Engine`]. The engine is single-threaded and deterministic:
//! events fire in `(time, sequence)` order, where sequence is the order of
//! scheduling, so two events at the same instant run in FIFO order and every
//! simulation is exactly repeatable.
//!
//! Control-plane events are boxed closures ([`Engine::schedule_at`]); the
//! packet data plane instead schedules typed
//! [`PacketFlight`] events
//! ([`Engine::schedule_flight`]) kept in pooled cells referenced from the
//! slab and handed to the network's registered dispatcher — steady-state
//! forwarding allocates nothing per hop, and slab slots stay pointer-sized.
//! Both kinds share one sequence space, so replacing a
//! closure with a flight at the same call site preserves firing order
//! exactly.
//!
//! The engine is a cheaply clonable handle (`Rc` inside): components keep a
//! clone and schedule events without needing a mutable reference to a
//! central world object, which is what keeps the crates above loosely
//! coupled (the smoltcp lesson: explicit `poll`-style time, no hidden
//! runtime).
//!
//! # Scheduler internals
//!
//! Events live in a slab of reusable slots addressed by a hierarchical timer
//! wheel (`LEVELS` levels of `SLOTS` slots, each level covering 64× the
//! span of the one below — level 0 resolves single microseconds, the top
//! level ~19 simulated hours). Events beyond the wheel span wait in a small
//! overflow heap and migrate into the wheel as the cursor approaches.
//!
//! [`EventId`]s carry a generation tag alongside the slot index, so `cancel`
//! is an O(1) slot invalidation: a stale id (already fired, already
//! cancelled, or slot since reused) simply no-ops. Cancelled events leave no
//! tombstones — their bucket keys are dropped lazily when the containing
//! slot drains — and [`Engine::pending`] counts exactly the live events.
//!
//! Determinism argument: every event placed at (or cascaded down to) its
//! deadline lands in a level-0 bucket, and a level-0 bucket is drained only
//! when the cursor equals that exact instant, at which point its live keys
//! are sorted by sequence number before firing. Same-instant FIFO order
//! therefore never depends on *how* an event reached level 0 (direct
//! placement, cascade, or overflow migration). A differential proptest in
//! `tests/engine_differential.rs` checks firing order against a reference
//! binary-heap scheduler.

use crate::packet::PacketFlight;
use cm_core::time::{SimDuration, SimTime};
use cm_telemetry::{Layer, Telemetry};
use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::rc::Rc;

/// Bits of the deadline consumed per wheel level.
const LEVEL_BITS: u32 = 6;
/// Slots per wheel level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Number of wheel levels; deadlines within `2^(LEVEL_BITS*LEVELS)` µs of
/// the cursor (~19.1 simulated hours) live in the wheel, the rest overflow.
const LEVELS: usize = 6;
/// Total deadline bits the wheel can resolve.
const WHEEL_BITS: u32 = LEVEL_BITS * LEVELS as u32;

/// Identifies a scheduled event so it can be cancelled.
///
/// Packs a slab index and a generation tag; ids from fired or cancelled
/// events go stale (the slot's generation advances) so a late [`Engine::cancel`]
/// can never hit an unrelated event that reused the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

impl EventId {
    fn pack(idx: u32, gen: u32) -> EventId {
        EventId(((gen as u64) << 32) | idx as u64)
    }
    fn unpack(self) -> (u32, u32) {
        (self.0 as u32, (self.0 >> 32) as u32)
    }
}

type Action = Box<dyn FnOnce(&Engine)>;
type RepeatAction = Box<dyn FnMut(&Engine)>;
type FlightDispatch = Rc<dyn Fn(&Engine, FlightCell)>;
/// Heap cell for one in-transit packet. The box is recycled through
/// `Core::flight_pool` (emptied on delivery or drop, refilled on the next
/// injection), so steady-state flights allocate nothing while slab slots
/// stay pointer-sized — a `PacketFlight` inline would more than double
/// every `Slot` and drag the whole wheel's cache footprint with it. The
/// cell travels through the dispatcher and back into `schedule_flight_cell`
/// whole: a relayed packet is never copied out of its box between hops.
pub(crate) type FlightCell = Box<Option<PacketFlight>>;

/// What a slab slot currently holds.
enum Stored {
    /// Free slot (on the free list) or a one-shot whose action was taken.
    Vacant,
    /// A one-shot event.
    Once(Action),
    /// A packet in transit, in a pooled cell: no per-hop allocation, no
    /// captured handles. Fired through the engine's registered flight
    /// dispatcher.
    Flight(FlightCell),
    /// A periodic timer's action, at rest.
    Repeat(RepeatAction),
    /// A periodic timer's action, moved out while it runs. If the slot is
    /// released mid-fire (handle dropped inside its own callback) the
    /// generation advances and the put-back drops the action instead.
    RepeatTaken,
}

struct Slot {
    /// Bumped on every release; pending `EventId`s and bucket keys from a
    /// prior life of the slot no longer match.
    gen: u32,
    /// Whether the slot currently has a pending deadline in the wheel.
    scheduled: bool,
    /// Absolute deadline in µs (valid while `scheduled`).
    at: u64,
    /// Sequence number of the *current* arming. Bucket keys snapshot the
    /// seq they were placed with; a key whose seq no longer matches is
    /// stale (cancelled or re-armed) and is dropped when its bucket drains.
    seq: u64,
    /// Auto-rearm period for `PeriodicTimer::arm_every`, in µs.
    period: Option<u64>,
    stored: Stored,
}

/// A bucket entry: slot index plus the seq it was scheduled under.
#[derive(Clone, Copy)]
struct Key {
    idx: u32,
    seq: u64,
}

struct Level {
    /// Bitmap of non-empty buckets.
    occupied: u64,
    buckets: Vec<Vec<Key>>,
}

struct Core {
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Live (scheduled, not cancelled) event count.
    live: usize,
    /// The wheel cursor: deadlines below it have been drained. Invariant:
    /// while `live > 0`, `elapsed <=` the earliest live deadline. When
    /// `live == 0` the cursor may drift past stale buckets and is rewound
    /// on the next arm.
    elapsed: u64,
    levels: Vec<Level>,
    /// Keys whose deadline equals `elapsed`, in firing (seq) order.
    ready: VecDeque<Key>,
    /// Events beyond the wheel span, ordered by `(at, seq)`.
    overflow: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Free pool of flight cells: emptied boxes come back on fire or cancel
    /// and are refilled by the next `schedule_flight`. Lives inside `Core`
    /// so pool traffic rides the borrow the scheduler already holds.
    /// High-water bounded by the peak number of concurrent in-flight
    /// packets, exactly like the slab itself.
    flight_pool: Vec<FlightCell>,
}

impl Core {
    fn new() -> Core {
        Core {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            elapsed: 0,
            levels: (0..LEVELS)
                .map(|_| Level {
                    occupied: 0,
                    buckets: (0..SLOTS).map(|_| Vec::new()).collect(),
                })
                .collect(),
            ready: VecDeque::new(),
            overflow: BinaryHeap::new(),
            flight_pool: Vec::new(),
        }
    }

    fn alloc(&mut self) -> u32 {
        if let Some(idx) = self.free.pop() {
            idx
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(Slot {
                gen: 0,
                scheduled: false,
                at: 0,
                seq: 0,
                period: None,
                stored: Stored::Vacant,
            });
            idx
        }
    }

    /// Return a slot to the free list, advancing its generation so every
    /// outstanding id and bucket key for it goes stale. The caller must
    /// have unscheduled it first.
    fn release(&mut self, idx: u32) {
        let slot = &mut self.slots[idx as usize];
        debug_assert!(!slot.scheduled);
        slot.stored = Stored::Vacant;
        slot.period = None;
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(idx);
    }

    /// Drop a slot's pending deadline, if any. Its bucket key stays behind
    /// and is discarded when the bucket drains.
    fn unschedule(&mut self, idx: u32) {
        let slot = &mut self.slots[idx as usize];
        if slot.scheduled {
            slot.scheduled = false;
            self.live -= 1;
        }
    }

    fn key_live(&self, key: Key) -> bool {
        let slot = &self.slots[key.idx as usize];
        slot.scheduled && slot.seq == key.seq
    }

    /// Give a slot a new deadline under a fresh seq (any previous deadline
    /// is implicitly dropped). `now` is the engine clock, a lower bound on
    /// every future deadline.
    fn arm(&mut self, idx: u32, at: u64, seq: u64, now: u64) {
        self.unschedule(idx);
        if self.live == 0 {
            // No live deadline constrains the cursor, which may have
            // drifted past `now` while chasing stale buckets; pull it back
            // to the clock (not just to `at`) so that later arms at
            // earlier-but-still-future deadlines stay reachable too.
            self.elapsed = self.elapsed.min(now);
        } else if at < self.elapsed {
            // The cursor is parked on the earliest *previously known*
            // deadline (a `peek_due` with no firing leaves it there) and
            // this arm undercuts it — legal for externally injected
            // events, e.g. a cross-shard delivery at a barrier tick below
            // this shard's own next deadline. Re-seat everything.
            self.rewind(at);
        }
        let slot = &mut self.slots[idx as usize];
        slot.at = at;
        slot.seq = seq;
        slot.scheduled = true;
        self.live += 1;
        self.place(Key { idx, seq }, at);
    }

    /// Pull the cursor back to `to` (`<= elapsed`), re-seating every
    /// pending key relative to the new position. Bucket placement is
    /// cursor-relative (`at ^ elapsed` picks the level), so a plain
    /// cursor write would leave keys in buckets the scan would either
    /// miss (slot below the new cursor position) or drain at the wrong
    /// instant (level-0 keys from a later rotation fire unconditionally).
    /// Cost is O(pending); the shard runner hits this at most once per
    /// barrier round, on the first injection below the peeked cursor.
    fn rewind(&mut self, to: u64) {
        debug_assert!(to <= self.elapsed);
        let mut keys: Vec<Key> = self.ready.drain(..).collect();
        for level in &mut self.levels {
            let mut occ = level.occupied;
            level.occupied = 0;
            while occ != 0 {
                let slot = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                keys.append(&mut level.buckets[slot]);
            }
        }
        self.elapsed = to;
        for key in keys {
            // Live deadlines are all >= the old cursor > `to` (the wheel
            // invariant), so re-placing never lands below the new cursor.
            if self.key_live(key) {
                let at = self.slots[key.idx as usize].at;
                self.place(key, at);
            }
        }
    }

    /// Insert a key at the wheel position (or overflow heap) for deadline
    /// `at`. Deadlines at the cursor itself go in their level-0 bucket so
    /// that *every* path to firing funnels through the seq-sorted drain.
    fn place(&mut self, key: Key, at: u64) {
        debug_assert!(at >= self.elapsed);
        let masked = at ^ self.elapsed;
        if masked >> WHEEL_BITS != 0 {
            self.overflow.push(Reverse((at, key.seq, key.idx)));
            return;
        }
        let level = if masked < SLOTS as u64 {
            0
        } else {
            ((63 - masked.leading_zeros()) / LEVEL_BITS) as usize
        };
        let slot = ((at >> (LEVEL_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.levels[level].buckets[slot].push(key);
        self.levels[level].occupied |= 1 << slot;
    }

    /// Empty one bucket: level 0 feeds the ready queue in seq order (all
    /// live keys there share deadline == `elapsed`); higher levels cascade
    /// live keys down. Stale keys are discarded here — this is where
    /// cancelled events actually leave the structure.
    fn drain(&mut self, level: usize, slot: usize) {
        self.levels[level].occupied &= !(1u64 << slot);
        // Single-key bucket fast path: paced traffic lands one deadline per
        // microsecond slot, where the retain + sort + write-back round-trip
        // below is pure overhead. Behaviour is identical (a one-element sort
        // is a no-op and `retain` is the same liveness check).
        if self.levels[level].buckets[slot].len() == 1 {
            let k = self.levels[level].buckets[slot].pop().expect("len checked");
            if self.key_live(k) {
                if level == 0 {
                    self.ready.push_back(k);
                } else {
                    let at = self.slots[k.idx as usize].at;
                    self.place(k, at);
                }
            }
            return;
        }
        let mut keys = std::mem::take(&mut self.levels[level].buckets[slot]);
        if level == 0 {
            keys.retain(|k| self.key_live(*k));
            keys.sort_unstable_by_key(|k| k.seq);
            self.ready.extend(keys.iter().copied());
        } else {
            for &k in &keys {
                if self.key_live(k) {
                    let at = self.slots[k.idx as usize].at;
                    self.place(k, at);
                }
            }
        }
        keys.clear();
        self.levels[level].buckets[slot] = keys; // keep the allocation
    }

    /// Advance the cursor to the next live deadline `<= limit` and leave its
    /// key at the front of the ready queue (without removing it). Returns
    /// `None` when no live event is due by `limit`; the cursor never
    /// advances past the first deadline beyond `limit`.
    fn peek_due(&mut self, limit: u64) -> Option<Key> {
        loop {
            // 1. Overflow events now within the wheel span re-enter the
            //    wheel (must precede the ready scan so a migrated event
            //    can still win the seq-sort against same-instant peers).
            while let Some(&Reverse((at, seq, idx))) = self.overflow.peek() {
                let key = Key { idx, seq };
                if !self.key_live(key) {
                    self.overflow.pop();
                    continue;
                }
                if (at ^ self.elapsed) >> WHEEL_BITS != 0 {
                    break;
                }
                self.overflow.pop();
                self.place(key, at);
            }
            // 2. Ready keys fire at `elapsed`.
            while let Some(&key) = self.ready.front() {
                if self.key_live(key) {
                    if self.slots[key.idx as usize].at > limit {
                        return None;
                    }
                    return Some(key);
                }
                self.ready.pop_front();
            }
            // 3. Advance to the earliest occupied slot and drain it. The
            //    first non-empty level always holds the earliest candidate:
            //    live keys on level L+1 lie in later L+1-windows than
            //    everything on level L.
            let mut advanced = false;
            for level in 0..LEVELS {
                let shift = LEVEL_BITS * level as u32;
                let cursor = (self.elapsed >> shift) & (SLOTS as u64 - 1);
                let occ = self.levels[level].occupied & (!0u64 << cursor);
                if occ == 0 {
                    continue;
                }
                let slot = occ.trailing_zeros() as usize;
                let next_shift = shift + LEVEL_BITS;
                let base = (self.elapsed >> next_shift) << next_shift;
                // The deadline this slot represents in the current
                // rotation; stale keys can make it sit below the cursor,
                // in which case draining is a pure cleanup.
                let t = (base | ((slot as u64) << shift)).max(self.elapsed);
                if t > limit {
                    return None;
                }
                self.elapsed = t;
                self.drain(level, slot);
                advanced = true;
                break;
            }
            if advanced {
                continue;
            }
            // 4. Wheel empty: jump the cursor to the overflow head (live —
            //    dead heads were popped in step 1).
            match self.overflow.peek() {
                Some(&Reverse((at, seq, idx))) => {
                    if at > limit {
                        return None;
                    }
                    self.overflow.pop();
                    self.elapsed = at;
                    self.place(Key { idx, seq }, at);
                }
                None => return None,
            }
        }
    }

    /// Remove and return the next due key (deadline `<= limit`), if any.
    fn pop_due(&mut self, limit: u64) -> Option<Key> {
        let key = self.peek_due(limit)?;
        self.ready.pop_front();
        let slot = &mut self.slots[key.idx as usize];
        slot.scheduled = false;
        self.live -= 1;
        Some(key)
    }
}

/// What `step` extracted for the firing event.
enum Fired {
    Once(Action),
    /// The cell still holds its flight: it goes to the dispatcher whole,
    /// so the packet rides through this enum as one pointer instead of by
    /// value — and the network can relay the same cell onward untouched.
    Flight(FlightCell),
    Repeat(RepeatAction, u32),
}

struct EngineInner {
    now: Cell<SimTime>,
    core: RefCell<Core>,
    next_seq: Cell<u64>,
    executed: Cell<u64>,
    /// Hard stop against runaway event loops in tests; `u64::MAX` = off.
    event_limit: Cell<u64>,
    /// Same-instant storm guard: (instant, events executed at it).
    same_instant: Cell<(SimTime, u64)>,
    /// Receiver for fired [`PacketFlight`] events, registered once by the
    /// network bound to this engine. Outside the hot `step` borrow so the
    /// dispatcher can schedule freely.
    flight_dispatch: RefCell<Option<FlightDispatch>>,
    /// Flight recorder shared by every layer; disabled until someone calls
    /// `telemetry().enable(..)`. The hot `step` path never touches it —
    /// only the run-loop tails emit drain spans.
    telemetry: Telemetry,
}

/// A deterministic discrete-event scheduler handle.
///
/// Clones share the same underlying queue and clock.
#[derive(Clone)]
pub struct Engine {
    inner: Rc<EngineInner>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// A fresh engine at time zero with an empty queue.
    pub fn new() -> Engine {
        Engine {
            inner: Rc::new(EngineInner {
                now: Cell::new(SimTime::ZERO),
                core: RefCell::new(Core::new()),
                next_seq: Cell::new(0),
                executed: Cell::new(0),
                event_limit: Cell::new(u64::MAX),
                same_instant: Cell::new((SimTime::ZERO, 0)),
                flight_dispatch: RefCell::new(None),
                telemetry: Telemetry::disabled(),
            }),
        }
    }

    /// The engine-wide flight recorder. Created disabled; enabling it here
    /// turns on recording for every layer that cached a clone.
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.telemetry
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.inner.now.get()
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.inner.executed.get()
    }

    /// Number of live pending events (cancelled events don't count).
    pub fn pending(&self) -> usize {
        self.inner.core.borrow().live
    }

    /// Cap the total number of events the run loops will execute; exceeding
    /// it panics. Tests use this to catch scheduling loops.
    pub fn set_event_limit(&self, limit: u64) {
        self.inner.event_limit.set(limit);
    }

    fn next_seq(&self) -> u64 {
        let seq = self.inner.next_seq.get();
        self.inner.next_seq.set(seq + 1);
        seq
    }

    /// Schedule `action` to run at absolute time `at`.
    ///
    /// `at` must not lie in the past. Returns an id usable with
    /// [`Engine::cancel`].
    pub fn schedule_at(&self, at: SimTime, action: impl FnOnce(&Engine) + 'static) -> EventId {
        assert!(
            at >= self.now(),
            "cannot schedule into the past: {at} < {}",
            self.now()
        );
        let seq = self.next_seq();
        let mut core = self.inner.core.borrow_mut();
        let idx = core.alloc();
        let slot = &mut core.slots[idx as usize];
        let gen = slot.gen;
        slot.stored = Stored::Once(Box::new(action));
        let now = self.now().as_micros();
        core.arm(idx, at.as_micros(), seq, now);
        EventId::pack(idx, gen)
    }

    /// Schedule `action` to run after `delay`.
    pub fn schedule_in(
        &self,
        delay: SimDuration,
        action: impl FnOnce(&Engine) + 'static,
    ) -> EventId {
        self.schedule_at(self.now() + delay, action)
    }

    /// Register the receiver for [`PacketFlight`] events. One engine drives
    /// one network: registering twice panics rather than silently rerouting
    /// the first network's in-flight packets.
    pub fn set_flight_dispatch(&self, dispatch: impl Fn(&Engine, PacketFlight) + 'static) {
        self.set_flight_dispatch_cells(move |engine, mut cell| {
            let flight = cell.take().expect("fired flight cell is full");
            engine.recycle_flight_cell(cell);
            dispatch(engine, flight);
        });
    }

    /// Cell-level dispatcher registration: the receiver gets the pooled box
    /// itself and may hand it straight back to
    /// [`Engine::schedule_flight_cell`] — the relay fast path that never
    /// copies the packet out of its cell.
    pub(crate) fn set_flight_dispatch_cells(
        &self,
        dispatch: impl Fn(&Engine, FlightCell) + 'static,
    ) {
        let mut slot = self.inner.flight_dispatch.borrow_mut();
        assert!(
            slot.is_none(),
            "flight dispatcher already registered: one Network per Engine"
        );
        *slot = Some(Rc::new(dispatch));
    }

    /// Pop an empty flight cell from the pool (or mint one — only before
    /// the pool has warmed up to the peak in-flight count).
    pub(crate) fn take_flight_cell(&self) -> FlightCell {
        self.inner
            .core
            .borrow_mut()
            .flight_pool
            .pop()
            .unwrap_or_else(|| Box::new(None))
    }

    /// Return a cell to the pool, dropping any packet still inside.
    pub(crate) fn recycle_flight_cell(&self, mut cell: FlightCell) {
        *cell = None;
        self.inner.core.borrow_mut().flight_pool.push(cell);
    }

    /// Schedule a packet flight to land at absolute time `at` — the
    /// zero-allocation counterpart of [`Engine::schedule_at`] for the
    /// packet data plane. The flight goes into a pooled cell in a reused
    /// slab slot; firing hands it to the dispatcher registered with
    /// [`Engine::set_flight_dispatch`] (a flight fired with no dispatcher
    /// registered is dropped). Ordering is identical to a closure scheduled
    /// at the same point: one sequence number, same `(time, seq)` rules.
    pub fn schedule_flight(&self, at: SimTime, flight: PacketFlight) -> EventId {
        let mut cell = self.take_flight_cell();
        *cell = Some(flight);
        self.schedule_flight_cell(at, cell)
    }

    /// Schedule a packet flight to land after `delay`.
    pub fn schedule_flight_in(&self, delay: SimDuration, flight: PacketFlight) -> EventId {
        self.schedule_flight(self.now() + delay, flight)
    }

    /// [`Engine::schedule_flight`] for a flight already in its cell — the
    /// relay path: the packet stays in the same heap cell from injection to
    /// delivery, only its routing fields are rewritten per hop.
    pub(crate) fn schedule_flight_cell(&self, at: SimTime, cell: FlightCell) -> EventId {
        debug_assert!(cell.is_some(), "scheduling an empty flight cell");
        assert!(
            at >= self.now(),
            "cannot schedule into the past: {at} < {}",
            self.now()
        );
        let seq = self.next_seq();
        let mut core = self.inner.core.borrow_mut();
        let idx = core.alloc();
        let slot = &mut core.slots[idx as usize];
        let gen = slot.gen;
        slot.stored = Stored::Flight(cell);
        let now = self.now().as_micros();
        core.arm(idx, at.as_micros(), seq, now);
        EventId::pack(idx, gen)
    }

    /// Number of slab slots currently backing the scheduler (allocated
    /// high-water mark, free or occupied). Steady-state traffic must reuse
    /// slots rather than grow this — the observable for the no-allocation
    /// guarantee on the packet fast path.
    pub fn slab_slots(&self) -> usize {
        self.inner.core.borrow().slots.len()
    }

    /// Cancel a pending event in O(1). Cancelling an already-fired or
    /// already-cancelled event is a no-op (the id has gone stale).
    pub fn cancel(&self, id: EventId) {
        let (idx, gen) = id.unpack();
        let mut core = self.inner.core.borrow_mut();
        let Some(slot) = core.slots.get_mut(idx as usize) else {
            return;
        };
        if slot.gen != gen || !matches!(slot.stored, Stored::Once(_) | Stored::Flight(_)) {
            return;
        }
        if let Stored::Flight(mut cell) = std::mem::replace(&mut slot.stored, Stored::Vacant) {
            // Drop the cancelled packet but keep its cell for reuse.
            *cell = None;
            core.flight_pool.push(cell);
        }
        core.unschedule(idx);
        core.release(idx);
    }

    /// Advance the clock to a firing event's deadline and run the
    /// bookkeeping guards.
    fn tick_clock(&self, at: SimTime) {
        debug_assert!(at >= self.now());
        self.inner.now.set(at);
        let n = self.inner.executed.get() + 1;
        self.inner.executed.set(n);
        assert!(
            n <= self.inner.event_limit.get(),
            "event limit exceeded at {} ({} events executed)",
            self.now(),
            n
        );
        // Same-instant storm guard: a zero-delay event cycle would freeze
        // virtual time while burning real time — fail loudly instead of
        // hanging.
        let (prev, count) = self.inner.same_instant.get();
        if prev == at {
            assert!(
                count < 5_000_000,
                "same-instant event storm at {prev}: >5M events without time advancing"
            );
            self.inner.same_instant.set((prev, count + 1));
        } else {
            self.inner.same_instant.set((at, 1));
        }
    }

    /// Execute the next pending event, if any. Returns `false` when the
    /// queue is empty.
    pub fn step(&self) -> bool {
        self.step_due(u64::MAX)
    }

    /// Execute the next pending event if its deadline is `<= limit` (µs):
    /// one scheduler visit decides "is anything due" and extracts it.
    /// Returns `false` — with the cursor no further than the first deadline
    /// beyond `limit` — when nothing is.
    fn step_due(&self, limit: u64) -> bool {
        // Extract without holding the borrow across the action call:
        // actions schedule and cancel freely.
        let (key, at, fired) = {
            let mut core = self.inner.core.borrow_mut();
            let Some(key) = core.pop_due(limit) else {
                return false;
            };
            let slot = &mut core.slots[key.idx as usize];
            let at = slot.at;
            let gen = slot.gen;
            match std::mem::replace(&mut slot.stored, Stored::RepeatTaken) {
                Stored::Once(action) => {
                    slot.stored = Stored::Vacant;
                    // Free before firing: the slot is reusable during the
                    // callback, and a cancel of this id after the fire is a
                    // stale-generation no-op.
                    core.release(key.idx);
                    (key, at, Fired::Once(action))
                }
                Stored::Flight(cell) => {
                    slot.stored = Stored::Vacant;
                    core.release(key.idx);
                    (key, at, Fired::Flight(cell))
                }
                Stored::Repeat(action) => (key, at, Fired::Repeat(action, gen)),
                Stored::Vacant | Stored::RepeatTaken => {
                    unreachable!("live key points at an empty slot")
                }
            }
        };
        self.tick_clock(SimTime::from_micros(at));
        match fired {
            Fired::Once(action) => action(self),
            Fired::Flight(cell) => {
                // Call through the borrow — no per-fire `Rc` traffic. The
                // dispatcher is registered once before the run, so nothing
                // re-borrows this slot mid-dispatch. A missing dispatcher
                // drops the flight (its network is gone).
                if let Some(dispatch) = &*self.inner.flight_dispatch.borrow() {
                    dispatch(self, cell);
                }
            }
            Fired::Repeat(mut action, gen) => {
                action(self);
                // Put the action back unless the timer's handle was dropped
                // (or the slot reused) during its own callback.
                let mut core = self.inner.core.borrow_mut();
                let slot = &mut core.slots[key.idx as usize];
                if slot.gen == gen && matches!(slot.stored, Stored::RepeatTaken) {
                    slot.stored = Stored::Repeat(action);
                    if let (Some(period), false) = (slot.period, slot.scheduled) {
                        // `arm_every` auto-rearm; an explicit arm from the
                        // callback takes precedence.
                        let seq = self.next_seq();
                        core.arm(key.idx, at.saturating_add(period), seq, at);
                    }
                }
            }
        }
        true
    }

    /// Run until the queue drains.
    pub fn run(&self) {
        let (start, before) = (self.now(), self.executed());
        while self.step() {}
        self.drain_span(start, before);
    }

    /// Run all events scheduled strictly before or at `deadline`, then set
    /// the clock to `deadline` (even if the queue drained earlier), leaving
    /// later events pending.
    pub fn run_until(&self, deadline: SimTime) {
        let (start, before) = (self.now(), self.executed());
        let limit = deadline.as_micros();
        while self.step_due(limit) {}
        self.drain_span(start, before);
        if self.now() < deadline {
            self.inner.now.set(deadline);
        }
    }

    /// The deadline of the earliest live pending event, if any — the
    /// shard-local bound a conservative parallel runner needs to compute
    /// the next global barrier tick (`min` over shards, plus lookahead).
    ///
    /// Peeking advances the internal wheel cursor up to the returned
    /// deadline (never past it, and never past the clock when the queue is
    /// empty), exactly as [`Engine::run_until`] would on its way there.
    /// Scheduling *below* a peeked cursor afterwards is still legal — the
    /// wheel rewinds and re-seats its pending keys — which is exactly
    /// what a sharded runner does when the global barrier tick (minimum
    /// over all shards, plus lookahead) undercuts this shard's own next
    /// deadline and a cross-shard delivery is injected there.
    pub fn next_deadline(&self) -> Option<SimTime> {
        let mut core = self.inner.core.borrow_mut();
        let key = core.peek_due(u64::MAX)?;
        Some(SimTime::from_micros(core.slots[key.idx as usize].at))
    }

    /// Record one `engine.drain` span covering a run-loop invocation. Kept
    /// out of `step` so the per-event hot path stays uninstrumented.
    fn drain_span(&self, start: SimTime, executed_before: u64) {
        let tel = &self.inner.telemetry;
        if !tel.enabled() {
            return;
        }
        let events = self.executed() - executed_before;
        if events == 0 {
            return;
        }
        // Throughput counter for scale runs: one add per drain, so the
        // per-event hot path stays untouched.
        tel.count("engine.events_drained", events);
        tel.span(
            start,
            self.now() - start,
            Layer::Netsim,
            "engine.drain",
            |e| {
                e.u64("events", events);
            },
        );
    }

    /// Run for `span` of simulated time from now.
    pub fn run_for(&self, span: SimDuration) {
        let deadline = self.now() + span;
        self.run_until(deadline);
    }
}

/// A reusable timer: one slab slot, one boxed callback, armed and re-armed
/// any number of times without re-boxing the closure per tick.
///
/// This is the primitive behind every steady-state repeat tick in the stack
/// (media-source pacing, retransmission timeouts, QoS monitor periods,
/// orchestration intervals). Re-arming implicitly drops the previous
/// deadline in O(1); dropping the handle frees the slot and stales any
/// in-flight deadline, even from inside the timer's own callback.
pub struct PeriodicTimer {
    engine: Engine,
    idx: u32,
    gen: u32,
}

impl PeriodicTimer {
    /// Allocate a timer slot holding `action`. The timer starts disarmed
    /// and consumes no sequence number until first armed, so creating
    /// timers does not perturb event ordering.
    pub fn new(engine: &Engine, action: impl FnMut(&Engine) + 'static) -> PeriodicTimer {
        let mut core = engine.inner.core.borrow_mut();
        let idx = core.alloc();
        let slot = &mut core.slots[idx as usize];
        let gen = slot.gen;
        slot.stored = Stored::Repeat(Box::new(action));
        PeriodicTimer {
            engine: engine.clone(),
            idx,
            gen,
        }
    }

    /// Arm (or re-arm) the timer to fire once at absolute time `at`.
    pub fn arm_at(&self, at: SimTime) {
        self.arm_inner(at, None);
    }

    /// Arm (or re-arm) the timer to fire once after `delay`.
    pub fn arm_in(&self, delay: SimDuration) {
        self.arm_inner(self.engine.now() + delay, None);
    }

    /// Arm the timer to fire at `first` and then every `period` after each
    /// firing, until [`PeriodicTimer::disarm`]. The latest arm call defines
    /// the mode: an `arm_at`/`arm_in` (including from inside the callback,
    /// where it takes precedence over the auto-rearm) makes the timer
    /// one-shot again.
    pub fn arm_every(&self, first: SimTime, period: SimDuration) {
        self.arm_inner(first, Some(period.as_micros()));
    }

    fn arm_inner(&self, at: SimTime, period: Option<u64>) {
        assert!(
            at >= self.engine.now(),
            "cannot schedule into the past: {at} < {}",
            self.engine.now()
        );
        let seq = self.engine.next_seq();
        let mut core = self.engine.inner.core.borrow_mut();
        debug_assert_eq!(
            core.slots[self.idx as usize].gen, self.gen,
            "periodic timer slot reused while the handle is alive"
        );
        core.slots[self.idx as usize].period = period;
        let now = self.engine.now().as_micros();
        core.arm(self.idx, at.as_micros(), seq, now);
    }

    /// Drop the pending deadline (and any auto-rearm period) in O(1).
    /// Disarming an unarmed timer is a no-op; the callback is retained for
    /// the next arm.
    pub fn disarm(&self) {
        let mut core = self.engine.inner.core.borrow_mut();
        core.slots[self.idx as usize].period = None;
        core.unschedule(self.idx);
    }

    /// Whether the timer currently has a pending deadline.
    pub fn is_armed(&self) -> bool {
        self.engine.inner.core.borrow().slots[self.idx as usize].scheduled
    }
}

impl Drop for PeriodicTimer {
    fn drop(&mut self) {
        let mut core = self.engine.inner.core.borrow_mut();
        // Safe even mid-fire: the generation bump makes the post-callback
        // put-back drop the action instead of resurrecting the slot.
        core.unschedule(self.idx);
        core.release(self.idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_fire_in_time_order() {
        let e = Engine::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for (t, tag) in [(30u64, 'c'), (10, 'a'), (20, 'b')] {
            let log = log.clone();
            e.schedule_at(SimTime::from_micros(t), move |_| log.borrow_mut().push(tag));
        }
        e.run();
        assert_eq!(*log.borrow(), vec!['a', 'b', 'c']);
        assert_eq!(e.now(), SimTime::from_micros(30));
        assert_eq!(e.executed(), 3);
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let e = Engine::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for tag in 0..10 {
            let log = log.clone();
            e.schedule_at(SimTime::from_micros(5), move |_| log.borrow_mut().push(tag));
        }
        e.run();
        assert_eq!(*log.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn actions_can_schedule_more_events() {
        let e = Engine::new();
        let count = Rc::new(Cell::new(0u32));
        fn tick(e: &Engine, count: Rc<Cell<u32>>) {
            let n = count.get() + 1;
            count.set(n);
            if n < 5 {
                let c = count.clone();
                e.schedule_in(SimDuration::from_millis(1), move |e| tick(e, c));
            }
        }
        let c = count.clone();
        e.schedule_at(SimTime::ZERO, move |e| tick(e, c));
        e.run();
        assert_eq!(count.get(), 5);
        assert_eq!(e.now(), SimTime::from_millis(4));
    }

    #[test]
    fn cancel_prevents_execution() {
        let e = Engine::new();
        let fired = Rc::new(Cell::new(false));
        let f = fired.clone();
        let id = e.schedule_in(SimDuration::from_millis(1), move |_| f.set(true));
        e.cancel(id);
        e.run();
        assert!(!fired.get());
        // Double-cancel and cancel-after-run are harmless.
        e.cancel(id);
    }

    #[test]
    fn run_until_leaves_later_events_and_advances_clock() {
        let e = Engine::new();
        let fired = Rc::new(Cell::new(0));
        for t in [1u64, 2, 3, 10] {
            let f = fired.clone();
            e.schedule_at(SimTime::from_secs(t), move |_| {
                f.set(f.get() + 1);
            });
        }
        e.run_until(SimTime::from_secs(5));
        assert_eq!(fired.get(), 3);
        assert_eq!(e.now(), SimTime::from_secs(5));
        assert_eq!(e.pending(), 1);
        e.run();
        assert_eq!(fired.get(), 4);
    }

    #[test]
    fn run_until_with_cancelled_head() {
        let e = Engine::new();
        let fired = Rc::new(Cell::new(false));
        let id = e.schedule_at(SimTime::from_secs(1), |_| {});
        let f = fired.clone();
        e.schedule_at(SimTime::from_secs(2), move |_| f.set(true));
        e.cancel(id);
        e.run_until(SimTime::from_secs(3));
        assert!(fired.get());
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn run_until_boundary_fires_at_limit_and_parks_the_cursor_there() {
        let e = Engine::new();
        let limit = SimTime::from_millis(5);
        let after = limit + SimDuration::from_micros(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        let head = e.schedule_at(SimTime::from_millis(1), |_| panic!("cancelled head fired"));
        for (tag, at) in [("at_limit", limit), ("after", after)] {
            let l = log.clone();
            e.schedule_at(at, move |_| l.borrow_mut().push(tag));
        }
        e.cancel(head);
        e.run_until(limit);
        assert_eq!(*log.borrow(), ["at_limit"]);
        assert_eq!(e.now(), limit);
        // The single visit that found nothing due stopped at `limit`, so an
        // injection there lands at or ahead of the cursor: no rewind.
        assert!(e.inner.core.borrow().elapsed <= limit.as_micros());
        let l = log.clone();
        e.schedule_at(limit, move |_| l.borrow_mut().push("injected"));
        e.run_until(limit);
        assert_eq!(*log.borrow(), ["at_limit", "injected"]);
        assert_eq!(e.pending(), 1);
        assert_eq!(e.next_deadline(), Some(after));
        e.run();
        assert_eq!(*log.borrow(), ["at_limit", "injected", "after"]);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_the_past_panics() {
        let e = Engine::new();
        e.schedule_at(SimTime::from_secs(1), |_| {});
        e.run();
        e.schedule_at(SimTime::from_millis(1), |_| {});
    }

    #[test]
    #[should_panic(expected = "event limit")]
    fn event_limit_catches_runaway() {
        let e = Engine::new();
        e.set_event_limit(100);
        fn forever(e: &Engine) {
            e.schedule_in(SimDuration::from_micros(1), forever);
        }
        e.schedule_at(SimTime::ZERO, forever);
        e.run();
    }

    #[test]
    fn run_for_is_relative() {
        let e = Engine::new();
        e.schedule_at(SimTime::from_secs(1), |_| {});
        e.run();
        e.run_for(SimDuration::from_secs(2));
        assert_eq!(e.now(), SimTime::from_secs(3));
    }

    #[test]
    fn pending_counts_only_live_events() {
        let e = Engine::new();
        let a = e.schedule_at(SimTime::from_secs(1), |_| {});
        let _b = e.schedule_at(SimTime::from_secs(2), |_| {});
        assert_eq!(e.pending(), 2);
        e.cancel(a);
        assert_eq!(e.pending(), 1);
        e.run();
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn stale_id_after_slot_reuse_is_a_no_op() {
        let e = Engine::new();
        let first = e.schedule_at(SimTime::from_micros(1), |_| {});
        e.run(); // fires; the slot goes back on the free list
        let fired = Rc::new(Cell::new(false));
        let f = fired.clone();
        // Reuses the same slot under a new generation.
        let _second = e.schedule_at(SimTime::from_micros(2), move |_| f.set(true));
        e.cancel(first); // stale: must not touch the new occupant
        e.run();
        assert!(fired.get());
    }

    #[test]
    fn cancel_after_fire_then_reschedule_many_times() {
        // The tombstone-leak regression: cancelling after the fire used to
        // leave an entry behind forever. Now it is a pure no-op and slots
        // recycle; `pending` stays exact throughout.
        let e = Engine::new();
        for i in 0..1000u64 {
            let id = e.schedule_at(SimTime::from_micros(i), |_| {});
            e.run_until(SimTime::from_micros(i));
            e.cancel(id); // already fired
            assert_eq!(e.pending(), 0);
        }
        assert_eq!(e.executed(), 1000);
    }

    #[test]
    fn far_future_events_cross_the_wheel_span() {
        // 2^36 µs ≈ 19.1h is the wheel span; go far past it, mixed with
        // near events, and check total order.
        let e = Engine::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let days = 3 * 24 * 3600; // seconds
        for (t, tag) in [
            (SimTime::from_secs(days), 'z'),
            (SimTime::from_micros(5), 'a'),
            (SimTime::from_secs(days), 'y'), // same far instant, FIFO after 'z'
            (SimTime::from_secs(100_000), 'm'),
        ] {
            let log = log.clone();
            e.schedule_at(t, move |_| log.borrow_mut().push(tag));
        }
        e.run();
        assert_eq!(*log.borrow(), vec!['a', 'm', 'z', 'y']);
        assert_eq!(e.now(), SimTime::from_secs(days));
    }

    #[test]
    fn run_until_partway_through_far_future() {
        let e = Engine::new();
        let fired = Rc::new(Cell::new(0u32));
        for secs in [1u64, 100_000, 200_000] {
            let f = fired.clone();
            e.schedule_at(SimTime::from_secs(secs), move |_| f.set(f.get() + 1));
        }
        e.run_until(SimTime::from_secs(150_000));
        assert_eq!(fired.get(), 2);
        assert_eq!(e.pending(), 1);
        e.run();
        assert_eq!(fired.get(), 3);
    }

    #[test]
    fn periodic_timer_fires_on_each_arm() {
        let e = Engine::new();
        let count = Rc::new(Cell::new(0u32));
        let c = count.clone();
        let t = PeriodicTimer::new(&e, move |_| c.set(c.get() + 1));
        assert!(!t.is_armed());
        t.arm_at(SimTime::from_micros(10));
        assert!(t.is_armed());
        e.run();
        assert_eq!(count.get(), 1);
        assert!(!t.is_armed());
        t.arm_in(SimDuration::from_micros(5));
        e.run();
        assert_eq!(count.get(), 2);
        assert_eq!(e.now(), SimTime::from_micros(15));
    }

    #[test]
    fn periodic_timer_rearm_replaces_pending_deadline() {
        let e = Engine::new();
        let count = Rc::new(Cell::new(0u32));
        let c = count.clone();
        let t = PeriodicTimer::new(&e, move |_| c.set(c.get() + 1));
        t.arm_at(SimTime::from_micros(10));
        t.arm_at(SimTime::from_micros(50)); // pushes the deadline out
        e.run();
        assert_eq!(count.get(), 1);
        assert_eq!(e.now(), SimTime::from_micros(50));
    }

    #[test]
    fn periodic_timer_disarm_and_drop() {
        let e = Engine::new();
        let count = Rc::new(Cell::new(0u32));
        let c = count.clone();
        let t = PeriodicTimer::new(&e, move |_| c.set(c.get() + 1));
        t.arm_at(SimTime::from_micros(10));
        t.disarm();
        assert_eq!(e.pending(), 0);
        e.run();
        assert_eq!(count.get(), 0);
        t.arm_at(SimTime::from_micros(20));
        drop(t); // dropping the handle stales the pending deadline
        e.run();
        assert_eq!(count.get(), 0);
    }

    #[test]
    fn periodic_timer_arm_every_repeats_until_disarm() {
        let e = Engine::new();
        let count = Rc::new(Cell::new(0u32));
        let c = count.clone();
        let t = PeriodicTimer::new(&e, move |_| c.set(c.get() + 1));
        t.arm_every(SimTime::from_micros(10), SimDuration::from_micros(10));
        e.run_until(SimTime::from_micros(55));
        assert_eq!(count.get(), 5); // fired at 10, 20, 30, 40, 50
        assert!(t.is_armed());
        t.disarm();
        e.run_until(SimTime::from_micros(100));
        assert_eq!(count.get(), 5);
    }

    #[test]
    fn periodic_timer_callback_rearm_overrides_auto_rearm() {
        let e = Engine::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let timer: Rc<RefCell<Option<PeriodicTimer>>> = Rc::new(RefCell::new(None));
        let l = log.clone();
        let th = timer.clone();
        let t = PeriodicTimer::new(&e, move |e| {
            l.borrow_mut().push(e.now().as_micros());
            if e.now().as_micros() < 30 {
                // Explicit re-arm with a different cadence than the period.
                th.borrow()
                    .as_ref()
                    .unwrap()
                    .arm_in(SimDuration::from_micros(7));
            }
        });
        t.arm_every(SimTime::from_micros(10), SimDuration::from_micros(100));
        *timer.borrow_mut() = Some(t);
        e.run_until(SimTime::from_micros(40));
        assert_eq!(*log.borrow(), vec![10, 17, 24, 31]);
        // The one-shot re-arms cleared the auto-period (the latest arm call
        // defines the mode), so after 31 the timer stays quiet.
        e.run_until(SimTime::from_micros(200));
        assert_eq!(*log.borrow(), vec![10, 17, 24, 31]);
        assert!(!timer.borrow().as_ref().unwrap().is_armed());
    }

    #[test]
    fn periodic_timer_dropped_inside_own_callback() {
        let e = Engine::new();
        let holder: Rc<RefCell<Option<PeriodicTimer>>> = Rc::new(RefCell::new(None));
        let count = Rc::new(Cell::new(0u32));
        let h = holder.clone();
        let c = count.clone();
        let t = PeriodicTimer::new(&e, move |_| {
            c.set(c.get() + 1);
            *h.borrow_mut() = None; // drop ourselves mid-fire
        });
        t.arm_every(SimTime::from_micros(10), SimDuration::from_micros(10));
        *holder.borrow_mut() = Some(t);
        e.run_until(SimTime::from_micros(100));
        assert_eq!(count.get(), 1); // no auto-rearm after self-drop
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn same_instant_mixed_sources_fire_in_seq_order() {
        // Events reaching time t by different routes (direct schedule,
        // schedule-from-callback, periodic arm) still honor global FIFO.
        let e = Engine::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        let timer = {
            let l = log.clone();
            PeriodicTimer::new(&e, move |_| l.borrow_mut().push("timer"))
        };
        e.schedule_at(SimTime::from_micros(10), move |e| {
            l.borrow_mut().push("first");
            let l2 = l.clone();
            e.schedule_at(SimTime::from_micros(10), move |_| {
                l2.borrow_mut().push("nested");
            });
        });
        timer.arm_at(SimTime::from_micros(10));
        let l3 = log.clone();
        e.schedule_at(SimTime::from_micros(10), move |_| {
            l3.borrow_mut().push("last")
        });
        e.run();
        assert_eq!(*log.borrow(), vec!["first", "timer", "last", "nested"]);
    }

    #[test]
    fn next_deadline_peeks_without_firing() {
        let e = Engine::new();
        assert_eq!(e.next_deadline(), None);
        let fired = Rc::new(Cell::new(false));
        let f = fired.clone();
        e.schedule_at(SimTime::from_millis(5), move |_| f.set(true));
        e.schedule_at(SimTime::from_millis(9), |_| {});
        assert_eq!(e.next_deadline(), Some(SimTime::from_millis(5)));
        assert!(!fired.get());
        assert_eq!(e.pending(), 2);
        // Peeking repeatedly is stable, and running still fires everything.
        assert_eq!(e.next_deadline(), Some(SimTime::from_millis(5)));
        e.run();
        assert!(fired.get());
        assert_eq!(e.next_deadline(), None);
    }

    #[test]
    fn next_deadline_skips_cancelled_and_allows_barrier_cycle() {
        // The conservative-runner cycle: peek, run_until the window, then
        // schedule (inject) at-or-after the window end; repeat.
        let e = Engine::new();
        let id = e.schedule_at(SimTime::from_millis(1), |_| {});
        e.schedule_at(SimTime::from_millis(4), |_| {});
        e.cancel(id);
        assert_eq!(e.next_deadline(), Some(SimTime::from_millis(4)));
        e.run_until(SimTime::from_millis(6));
        assert_eq!(e.now(), SimTime::from_millis(6));
        // Inject exactly at the window end (a message whose deliver time
        // lands on the barrier tick) and at a later instant.
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        e.schedule_at(SimTime::from_millis(6), move |e| {
            l.borrow_mut().push(e.now().as_micros())
        });
        let l2 = log.clone();
        e.schedule_at(SimTime::from_millis(8), move |e| {
            l2.borrow_mut().push(e.now().as_micros())
        });
        assert_eq!(e.next_deadline(), Some(SimTime::from_millis(6)));
        e.run_until(SimTime::from_millis(8));
        assert_eq!(*log.borrow(), vec![6_000, 8_000]);
    }

    #[test]
    fn arming_below_a_peeked_cursor_rewinds_the_wheel() {
        // A shard whose own next deadline is far away peeks it (parking
        // the cursor there), then receives a cross-shard injection at a
        // much earlier barrier tick. The wheel must rewind and fire both
        // in order.
        let e = Engine::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for at_ms in [5_000u64, 90_000] {
            let l = log.clone();
            e.schedule_at(SimTime::from_millis(at_ms), move |e| {
                l.borrow_mut().push(e.now().as_micros())
            });
        }
        assert_eq!(e.next_deadline(), Some(SimTime::from_millis(5_000)));
        // Injections below the peeked cursor, across wheel levels: one
        // close to it, one at the very next tick.
        for at_ms in [4_999u64, 1] {
            let l = log.clone();
            e.schedule_at(SimTime::from_millis(at_ms), move |e| {
                l.borrow_mut().push(e.now().as_micros())
            });
        }
        assert_eq!(e.next_deadline(), Some(SimTime::from_millis(1)));
        e.run();
        assert_eq!(*log.borrow(), vec![1_000, 4_999_000, 5_000_000, 90_000_000]);
    }

    #[test]
    fn rewound_cursor_after_stale_drain() {
        // Cancel everything so the cursor chases stale buckets past `now`,
        // then schedule again at an earlier-than-cursor deadline.
        let e = Engine::new();
        let id = e.schedule_at(SimTime::from_secs(100), |_| {});
        e.run_until(SimTime::from_secs(1));
        e.cancel(id);
        assert!(!e.step()); // drains stale state, may advance the cursor
        let fired = Rc::new(Cell::new(false));
        let f = fired.clone();
        e.schedule_at(SimTime::from_secs(2), move |_| f.set(true));
        e.run();
        assert!(fired.get());
        assert_eq!(e.now(), SimTime::from_secs(2));
    }
}
