//! City-scale scenario generator (ROADMAP item 2).
//!
//! Produces a *seeded, fully precomputed* schedule of room arrivals,
//! member churn and media publishes: a pure function of [`CityConfig`],
//! independent of the engine, so the schedule can be hashed and compared
//! byte-for-byte before anything runs. The executor that replays a
//! schedule against a live platform lives in `cm-bench` (`city_run`,
//! `city_zone`), keeping this crate free of session/platform
//! dependencies.
//!
//! The workload shape follows the paper's pitch of many concurrent
//! continuous-media sessions: rooms open at uniform times across an
//! arrival window, live for a bounded random lifetime, carry one
//! published stream with a media profile drawn from a weighted mix, and
//! lose a configurable fraction of members early (churn) before the room
//! closes and the remainder leave.

use cm_core::DetRng;

/// Media profile selector carried in the schedule (resolved to a
/// `MediaProfile` by the executor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CityMedia {
    /// 32 Kbit/s telephone voice — the bulk of a city's rooms.
    AudioTelephone,
    /// Caption-rate text, the lightest profile.
    TextCaptions,
    /// 25 f/s monochrome video, the heaviest profile in the mix.
    VideoMono,
}

impl CityMedia {
    /// Stable wire code used in the canonical schedule encoding.
    pub fn code(self) -> u8 {
        match self {
            CityMedia::AudioTelephone => 0,
            CityMedia::TextCaptions => 1,
            CityMedia::VideoMono => 2,
        }
    }
}

/// One scheduled action, timestamped in simulated milliseconds.
///
/// `room` and `member` are dense indices (`0..rooms`, `0..members`);
/// `node` is an index into the platform node vector. Members of one room
/// always sit on distinct nodes (the session layer admits one peer per
/// node per room), but nodes are reused freely across rooms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CityEvent {
    /// Create the room (capacity `members`) hosted at `host`.
    RoomOpen {
        /// Fire time, ms of simulated time.
        at_ms: u64,
        /// Dense room index.
        room: u32,
        /// Node index hosting the room's registry agent.
        host: u32,
        /// Member count the room was sized for.
        members: u32,
    },
    /// Member `member` of `room` joins from `node`.
    Join {
        /// Fire time, ms of simulated time.
        at_ms: u64,
        /// Dense room index.
        room: u32,
        /// Dense member index within the room.
        member: u32,
        /// Node index the member joins from.
        node: u32,
    },
    /// Member 0 publishes the room's stream and writes `writes` OSDUs.
    Publish {
        /// Fire time, ms of simulated time.
        at_ms: u64,
        /// Dense room index.
        room: u32,
        /// Media profile of the published stream.
        media: CityMedia,
        /// OSDUs the publisher writes into the stream.
        writes: u32,
    },
    /// Early (churn) departure of one member.
    Leave {
        /// Fire time, ms of simulated time.
        at_ms: u64,
        /// Dense room index.
        room: u32,
        /// Dense member index within the room.
        member: u32,
    },
    /// End of the room's lifetime: every remaining member leaves.
    RoomClose {
        /// Fire time, ms of simulated time.
        at_ms: u64,
        /// Dense room index.
        room: u32,
    },
}

impl CityEvent {
    /// The event's fire time in simulated milliseconds.
    pub fn at_ms(&self) -> u64 {
        match *self {
            CityEvent::RoomOpen { at_ms, .. }
            | CityEvent::Join { at_ms, .. }
            | CityEvent::Publish { at_ms, .. }
            | CityEvent::Leave { at_ms, .. }
            | CityEvent::RoomClose { at_ms, .. } => at_ms,
        }
    }

    /// Canonical fixed-width encoding: `[kind, at_ms, room, a, b]`.
    fn encode_into(&self, out: &mut Vec<u8>) {
        let (kind, at_ms, room, a, b) = match *self {
            CityEvent::RoomOpen {
                at_ms,
                room,
                host,
                members,
            } => (0u8, at_ms, room, host, members),
            CityEvent::Join {
                at_ms,
                room,
                member,
                node,
            } => (1, at_ms, room, member, node),
            CityEvent::Publish {
                at_ms,
                room,
                media,
                writes,
            } => (2, at_ms, room, media.code() as u32, writes),
            CityEvent::Leave {
                at_ms,
                room,
                member,
            } => (3, at_ms, room, member, 0),
            CityEvent::RoomClose { at_ms, room } => (4, at_ms, room, 0, 0),
        };
        out.push(kind);
        out.extend_from_slice(&at_ms.to_le_bytes());
        out.extend_from_slice(&room.to_le_bytes());
        out.extend_from_slice(&a.to_le_bytes());
        out.extend_from_slice(&b.to_le_bytes());
    }

    /// Sort rank so same-tick events replay in a stable, causally sound
    /// order (opens before joins before publishes before departures).
    fn rank(&self) -> (u64, u8, u32, u32) {
        match *self {
            CityEvent::RoomOpen { at_ms, room, .. } => (at_ms, 0, room, 0),
            CityEvent::Join {
                at_ms,
                room,
                member,
                ..
            } => (at_ms, 1, room, member),
            CityEvent::Publish { at_ms, room, .. } => (at_ms, 2, room, 0),
            CityEvent::Leave {
                at_ms,
                room,
                member,
            } => (at_ms, 3, room, member),
            CityEvent::RoomClose { at_ms, room } => (at_ms, 4, room, 0),
        }
    }
}

/// Relative weights of the media mix (need not sum to anything).
#[derive(Debug, Clone, Copy)]
pub struct MediaMix {
    /// Weight of telephone-quality audio rooms.
    pub audio: u32,
    /// Weight of caption-text rooms.
    pub text: u32,
    /// Weight of monochrome-video rooms.
    pub video: u32,
}

/// Everything the generator needs; the schedule is a pure function of
/// this value.
#[derive(Debug, Clone)]
pub struct CityConfig {
    /// Master seed; every distribution below forks from it by label.
    pub seed: u64,
    /// Platform nodes available (members of one room need distinct nodes,
    /// so `members_max` is capped to this).
    pub nodes: u32,
    /// Rooms opened over the whole run.
    pub rooms: u32,
    /// Room open times are uniform in `[0, arrival_window_ms)`.
    pub arrival_window_ms: u64,
    /// Inclusive per-room member-count range.
    pub members_min: u32,
    /// Inclusive per-room member-count range.
    pub members_max: u32,
    /// Inclusive per-room lifetime range (open → close), ms.
    pub lifetime_min_ms: u64,
    /// Inclusive per-room lifetime range (open → close), ms.
    pub lifetime_max_ms: u64,
    /// Percent (0–100) of non-publisher members that leave early.
    pub churn_percent: u32,
    /// OSDUs the publisher writes into each room's stream.
    pub writes_per_stream: u32,
    /// Weighted media mix across rooms.
    pub mix: MediaMix,
    /// Logical zones the city is partitioned into (see
    /// [`ZonePlan`](crate::zone::ZonePlan)). Part of the workload, not
    /// of the execution: the partition is fixed per config so a sharded
    /// run is comparable — byte-identical, in fact — across worker
    /// counts. `1` is the flat city: one zone, no mirrors.
    pub zones: u32,
    /// Percent (0–100) of rooms whose members span multiple zones.
    pub cross_zone_percent: u32,
    /// One-way latency of every inter-zone (wide-area) link, ms. Also
    /// the conservative lookahead of the sharded runner.
    pub wan_latency_ms: u64,
}

impl CityConfig {
    /// Small config for CI smoke runs: ~50 rooms on 16 nodes.
    pub fn smoke(seed: u64) -> CityConfig {
        CityConfig {
            seed,
            nodes: 16,
            rooms: 50,
            arrival_window_ms: 20_000,
            members_min: 3,
            members_max: 8,
            lifetime_min_ms: 5_000,
            lifetime_max_ms: 15_000,
            churn_percent: 20,
            writes_per_stream: 6,
            mix: MediaMix {
                audio: 6,
                text: 3,
                video: 1,
            },
            zones: 4,
            cross_zone_percent: 30,
            wan_latency_ms: 50,
        }
    }

    /// The headline city: 10k rooms / ≥100k member slots on 256 nodes.
    pub fn city_10k(seed: u64) -> CityConfig {
        CityConfig {
            seed,
            nodes: 256,
            rooms: 10_000,
            arrival_window_ms: 600_000,
            members_min: 6,
            members_max: 16,
            lifetime_min_ms: 30_000,
            lifetime_max_ms: 120_000,
            churn_percent: 25,
            writes_per_stream: 24,
            mix: MediaMix {
                audio: 6,
                text: 3,
                video: 1,
            },
            zones: 8,
            cross_zone_percent: 20,
            wan_latency_ms: 50,
        }
    }
}

/// A generated schedule: the event list plus summary counts.
#[derive(Debug, Clone)]
pub struct CitySchedule {
    /// Events in replay order (time, then stable same-tick rank).
    pub events: Vec<CityEvent>,
    /// Total member slots scheduled (count of `Join` events).
    pub member_slots: u64,
    /// Total OSDUs scheduled for writing across all publishes.
    pub writes: u64,
    /// Horizon: latest event time plus the longest room lifetime slack.
    pub horizon_ms: u64,
}

impl CitySchedule {
    /// Generate the schedule for `cfg` — pure and deterministic: the same
    /// config yields a byte-identical event list.
    pub fn generate(cfg: &CityConfig) -> CitySchedule {
        assert!(cfg.nodes >= 2, "need at least two nodes");
        assert!(cfg.members_min >= 1, "rooms need at least a publisher");
        assert!(cfg.members_min <= cfg.members_max, "member range empty");
        assert!(
            cfg.lifetime_min_ms <= cfg.lifetime_max_ms,
            "lifetime range empty"
        );
        let members_cap = cfg.members_max.min(cfg.nodes);
        let mut root = DetRng::from_seed(cfg.seed);
        let mut events = Vec::new();
        let mut member_slots = 0u64;
        let mut writes = 0u64;
        let mut horizon = 0u64;
        let mix_total = (cfg.mix.audio + cfg.mix.text + cfg.mix.video).max(1) as u64;
        for room in 0..cfg.rooms {
            let mut rng = root.fork(&format!("room{room}"));
            let open = rng.range_inclusive(0, cfg.arrival_window_ms.saturating_sub(1));
            let lifetime = rng.range_inclusive(cfg.lifetime_min_ms, cfg.lifetime_max_ms);
            let close = open + lifetime;
            let members = rng
                .range_inclusive(cfg.members_min.min(members_cap) as u64, members_cap as u64)
                as u32;
            let node_base = rng.range_inclusive(0, cfg.nodes as u64 - 1) as u32;
            let node_of = |m: u32| (node_base + m) % cfg.nodes;
            let draw = rng.range_inclusive(0, mix_total - 1);
            let media = if draw < cfg.mix.audio as u64 {
                CityMedia::AudioTelephone
            } else if draw < (cfg.mix.audio + cfg.mix.text) as u64 {
                CityMedia::TextCaptions
            } else {
                CityMedia::VideoMono
            };
            events.push(CityEvent::RoomOpen {
                at_ms: open,
                room,
                host: node_of(0),
                members,
            });
            // The publisher joins as soon as the room exists; its publish
            // follows once the capacity-only admission has settled.
            events.push(CityEvent::Join {
                at_ms: open,
                room,
                member: 0,
                node: node_of(0),
            });
            member_slots += 1;
            events.push(CityEvent::Publish {
                at_ms: open + 50,
                room,
                media,
                writes: cfg.writes_per_stream,
            });
            writes += cfg.writes_per_stream as u64;
            // Listeners trickle in over the first half of the lifetime.
            let join_hi = open + 100 + lifetime / 2;
            for m in 1..members {
                let join_at = rng.range_inclusive(open + 100, join_hi);
                events.push(CityEvent::Join {
                    at_ms: join_at,
                    room,
                    member: m,
                    node: node_of(m),
                });
                member_slots += 1;
                if rng.range_inclusive(0, 99) < cfg.churn_percent as u64 {
                    let leave_at = rng.range_inclusive(join_at + 200, close.max(join_at + 201) - 1);
                    events.push(CityEvent::Leave {
                        at_ms: leave_at,
                        room,
                        member: m,
                    });
                }
            }
            events.push(CityEvent::RoomClose { at_ms: close, room });
            horizon = horizon.max(close);
        }
        events.sort_by_key(|e| e.rank());
        CitySchedule {
            events,
            member_slots,
            writes,
            // Generous drain slack so in-flight teardowns complete.
            horizon_ms: horizon + 5_000,
        }
    }

    /// Canonical byte encoding of the whole schedule (fixed-width records
    /// in replay order).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.events.len() * 21);
        for e in &self.events {
            e.encode_into(&mut out);
        }
        out
    }

    /// FNV-1a over [`CitySchedule::encode`] — the determinism fingerprint
    /// pinned by the seeded-determinism property test.
    pub fn fnv(&self) -> u64 {
        cm_core::hash::fnv1a64(&self.encode())
    }
}
