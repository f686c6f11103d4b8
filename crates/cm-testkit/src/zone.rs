//! Zone partitioner: overlay a multi-zone split on a generated city.
//!
//! The city schedule stays exactly what [`CitySchedule::generate`]
//! produces — the partitioner is a *pure overlay* computed from hashes
//! of `(seed, room)`, deliberately touching no RNG stream, so adding
//! zones never perturbs the flat schedule (its FNV fingerprint is
//! unchanged). Each room gets a *home* zone; a configured fraction of
//! rooms with enough members also get up to two *guest* zones whose
//! members join a local **mirror** of the room instead of crossing the
//! wide area one by one:
//!
//! ```text
//!   home zone                      guest zone
//!   ┌───────────────┐   1 envelope ┌────────────────┐
//!   │ room ── relay ─┼─────────────┼→ relay ── mirror│
//!   │  ↑members↑     │  per OSDU   │        ↑members↑│
//!   └───────────────┘              └────────────────┘
//! ```
//!
//! A published OSDU crosses each inter-zone link **once** (the home
//! relay fans it out per guest *zone*, not per guest member) and the
//! guest relay re-publishes it locally — the paper's orchestration
//! argument, and the reason inter-zone byte counts stay flat as rooms
//! grow members.
//!
//! Node indices are remapped into per-zone worlds of
//! [`ZonePlan::nodes_per_zone`] regular leaves plus one dedicated relay
//! leaf (index `nodes_per_zone`), so relays never collide with members
//! on the one-peer-per-node admission rule.
//!
//! With one zone the overlay is the identity: no room crosses, no relay
//! leaf is needed, and the plan is the flat schedule verbatim — which is
//! how the flat city runs ([`ZonePlan::one_zone`]).

use crate::city::{CityConfig, CityEvent, CityMedia, CitySchedule};

/// Cross-zone wire messages for the sharded city — the `Send` payload
/// carried by `cm-cluster` envelopes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CityWire {
    /// Home published the room's stream: guest relays open their mirror
    /// stream with the same media profile.
    MirrorPublish {
        /// Dense room index.
        room: u32,
        /// Media profile of the mirrored stream.
        media: CityMedia,
    },
    /// One OSDU crossing the wide area (once per guest zone, whatever
    /// the member count): the guest relay re-emits a synthetic payload
    /// of the same tag and length into the mirror stream.
    Media {
        /// Dense room index.
        room: u32,
        /// Payload tag (`room << 32 | osdu index`), preserved so guest
        /// deliveries are attributable.
        tag: u64,
        /// Payload length in bytes.
        len: u32,
        /// Causal provenance: home-zone write time of the OSDU, µs (zero
        /// when tracing is off).
        origin_us: u64,
        /// Causal provenance: when the home relay captured and forwarded
        /// the OSDU, µs (zero when tracing is off).
        relayed_at_us: u64,
    },
}

/// One zone-local scheduled action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZoneEvent {
    /// A flat city event with its node index remapped to this zone's
    /// world. `RoomOpen` capacities are adjusted for the relay slot and
    /// count only this zone's members.
    City(CityEvent),
    /// Home side of a cross-zone room: the relay subscriber joins (from
    /// the relay leaf) so it can forward the stream to guest zones.
    RelayJoin {
        /// Fire time, ms of simulated time.
        at_ms: u64,
        /// Dense room index.
        room: u32,
    },
    /// Guest side: open the local mirror room (capacity = this zone's
    /// guest members + the relay publisher).
    MirrorOpen {
        /// Fire time, ms of simulated time.
        at_ms: u64,
        /// Dense room index.
        room: u32,
        /// Mirror capacity: guest members here + 1 relay publisher.
        capacity: u32,
    },
    /// Guest side: the home room closed; tear the mirror down.
    MirrorClose {
        /// Fire time, ms of simulated time.
        at_ms: u64,
        /// Dense room index.
        room: u32,
    },
}

impl ZoneEvent {
    /// The event's fire time in simulated milliseconds.
    pub fn at_ms(&self) -> u64 {
        match *self {
            ZoneEvent::City(ev) => ev.at_ms(),
            ZoneEvent::RelayJoin { at_ms, .. }
            | ZoneEvent::MirrorOpen { at_ms, .. }
            | ZoneEvent::MirrorClose { at_ms, .. } => at_ms,
        }
    }
}

/// Where one room's members live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoneRoomInfo {
    /// Zone hosting the real room (and its publisher).
    pub home: u32,
    /// Guest zones (0–2 entries, distinct from `home`); empty for
    /// zone-local rooms.
    pub guests: Vec<u32>,
    /// The room's node base from the flat schedule (recoverable as the
    /// `RoomOpen` host).
    pub node_base: u32,
    /// Member count from the flat schedule.
    pub members: u32,
}

impl ZoneRoomInfo {
    /// Which zone member `m` of this room lives in: the publisher stays
    /// home, other members round-robin across home + guests.
    pub fn member_zone(&self, m: u32) -> u32 {
        if m == 0 || self.guests.is_empty() {
            return self.home;
        }
        let fold = 1 + self.guests.len() as u32;
        match m % fold {
            0 => self.home,
            k => self.guests[(k - 1) as usize],
        }
    }

    /// Members of this room living in `zone`.
    pub fn members_in(&self, zone: u32) -> u32 {
        (0..self.members)
            .filter(|&m| self.member_zone(m) == zone)
            .count() as u32
    }
}

/// Per-zone slice of the partitioned schedule.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ZoneSchedule {
    /// Events in replay order (inherited from the flat schedule's
    /// sort, with relay/mirror events pinned to their room-open and
    /// room-close ticks).
    pub events: Vec<ZoneEvent>,
    /// `Join` events in this zone (mirror joins included).
    pub member_slots: u64,
}

/// The partitioned city: one schedule per zone plus the room placement
/// table the executor needs to route envelopes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZonePlan {
    /// Zone count (≥ 1).
    pub zones: u32,
    /// Regular leaves per zone; the relay leaf, when there is one (see
    /// [`leaves_per_zone`](Self::leaves_per_zone)), is index
    /// `nodes_per_zone`.
    pub nodes_per_zone: u32,
    /// One-way inter-zone latency, ms (the runner's lookahead).
    pub wan_latency_ms: u64,
    /// Per-zone schedules, indexed by zone id.
    pub per_zone: Vec<ZoneSchedule>,
    /// Placement of every room, indexed by dense room id — empty in a
    /// one-zone plan, where every room is home and nothing is placed
    /// (look guests up with [`guests`](Self::guests)).
    pub rooms: Vec<ZoneRoomInfo>,
    /// Rooms that span zones.
    pub cross_rooms: u32,
}

/// SplitMix64 — the standard 64-bit finalizer; pure, no stream state.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Regular leaves per zone: an even share of the city's nodes, but never
/// fewer than one room's members (they need distinct nodes) — with one
/// zone, exactly the flat city's `cfg.nodes`.
fn nodes_per_zone(cfg: &CityConfig, zones: u32) -> u32 {
    let members_cap = cfg.members_max.min(cfg.nodes);
    (cfg.nodes / zones).max(members_cap).max(2)
}

impl ZonePlan {
    /// Overlay `cfg.zones` zones on an already-generated schedule.
    ///
    /// Pure and deterministic: the zone of a room is a hash of
    /// `(seed, room)`, never an RNG draw, so the flat schedule's bytes
    /// (and fingerprint) are untouched by partitioning and the same
    /// config always yields the same plan.
    pub fn partition(cfg: &CityConfig, schedule: &CitySchedule) -> ZonePlan {
        let zones = cfg.zones.max(1);
        if zones == 1 {
            return ZonePlan::one_zone(cfg, schedule.clone());
        }
        let nodes_per_zone = nodes_per_zone(cfg, zones);
        let mut per_zone = vec![ZoneSchedule::default(); zones as usize];
        let mut rooms: Vec<Option<ZoneRoomInfo>> = Vec::new();
        let mut cross_rooms = 0u32;

        let info_of = |rooms: &Vec<Option<ZoneRoomInfo>>, room: u32| -> ZoneRoomInfo {
            rooms
                .get(room as usize)
                .and_then(Clone::clone)
                .expect("schedule replays RoomOpen before other room events")
        };

        for &ev in &schedule.events {
            match ev {
                CityEvent::RoomOpen {
                    at_ms,
                    room,
                    host,
                    members,
                } => {
                    let home = (splitmix(cfg.seed ^ ((room as u64) << 1)) % zones as u64) as u32;
                    let wants_cross = zones > 1
                        && members >= 3
                        && splitmix(cfg.seed ^ ((room as u64) << 1 | 1)) % 100
                            < cfg.cross_zone_percent as u64;
                    let guests: Vec<u32> = if wants_cross {
                        (1..=2u32)
                            .map(|k| (home + k) % zones)
                            .filter(|&g| g != home)
                            .take(zones.saturating_sub(1).min(2) as usize)
                            .collect()
                    } else {
                        Vec::new()
                    };
                    let info = ZoneRoomInfo {
                        home,
                        guests,
                        node_base: host,
                        members,
                    };
                    if !info.guests.is_empty() {
                        cross_rooms += 1;
                    }
                    let home_members = info.members_in(home);
                    let relay_slot = u32::from(!info.guests.is_empty());
                    per_zone[home as usize]
                        .events
                        .push(ZoneEvent::City(CityEvent::RoomOpen {
                            at_ms,
                            room,
                            host: host % nodes_per_zone,
                            members: home_members + relay_slot,
                        }));
                    if relay_slot == 1 {
                        per_zone[home as usize]
                            .events
                            .push(ZoneEvent::RelayJoin { at_ms, room });
                    }
                    for &g in &info.guests {
                        per_zone[g as usize].events.push(ZoneEvent::MirrorOpen {
                            at_ms,
                            room,
                            capacity: info.members_in(g) + 1,
                        });
                    }
                    if rooms.len() <= room as usize {
                        rooms.resize(room as usize + 1, None);
                    }
                    rooms[room as usize] = Some(info);
                }
                CityEvent::Join {
                    at_ms,
                    room,
                    member,
                    ..
                } => {
                    let info = info_of(&rooms, room);
                    let zone = info.member_zone(member);
                    let node = (info.node_base + member) % nodes_per_zone;
                    let zs = &mut per_zone[zone as usize];
                    zs.events.push(ZoneEvent::City(CityEvent::Join {
                        at_ms,
                        room,
                        member,
                        node,
                    }));
                    zs.member_slots += 1;
                }
                CityEvent::Publish { room, .. } => {
                    // The publisher is always home.
                    let info = info_of(&rooms, room);
                    per_zone[info.home as usize]
                        .events
                        .push(ZoneEvent::City(ev));
                }
                CityEvent::Leave {
                    at_ms,
                    room,
                    member,
                } => {
                    let info = info_of(&rooms, room);
                    let zone = info.member_zone(member);
                    per_zone[zone as usize]
                        .events
                        .push(ZoneEvent::City(CityEvent::Leave {
                            at_ms,
                            room,
                            member,
                        }));
                }
                CityEvent::RoomClose { at_ms, room } => {
                    let info = info_of(&rooms, room);
                    per_zone[info.home as usize]
                        .events
                        .push(ZoneEvent::City(ev));
                    for &g in &info.guests {
                        per_zone[g as usize]
                            .events
                            .push(ZoneEvent::MirrorClose { at_ms, room });
                    }
                }
            }
        }

        ZonePlan {
            zones,
            nodes_per_zone,
            wan_latency_ms: cfg.wan_latency_ms.max(1),
            per_zone,
            rooms: rooms.into_iter().map(Option::unwrap).collect(),
            cross_rooms,
        }
    }

    /// [`partition`](Self::partition) under `zones: 1` — the flat city
    /// as a zone plan — built in the schedule's own event buffer. With
    /// one zone every room is home and nothing crosses: no relay leaf,
    /// no relay or mirror events, nothing to place (`rooms` stays
    /// empty), and the zone world is the flat star, so each flat event
    /// is its own zone event. The events are the same size, so the
    /// collect reuses the allocation rather than holding a second copy
    /// of the city (or freeing the first mid-run): the replay's heap is
    /// the flat city's, allocation for allocation.
    pub fn one_zone(cfg: &CityConfig, schedule: CitySchedule) -> ZonePlan {
        ZonePlan {
            zones: 1,
            nodes_per_zone: nodes_per_zone(cfg, 1),
            wan_latency_ms: cfg.wan_latency_ms.max(1),
            per_zone: vec![ZoneSchedule {
                member_slots: schedule.member_slots,
                events: schedule.events.into_iter().map(ZoneEvent::City).collect(),
            }],
            rooms: Vec::new(),
            cross_rooms: 0,
        }
    }

    /// Leaves in every zone world: the regular ones, plus the relay leaf
    /// when there are other zones to mirror rooms from. A one-zone world
    /// is exactly the flat city's star.
    pub fn leaves_per_zone(&self) -> u32 {
        self.nodes_per_zone + u32::from(self.zones > 1)
    }

    /// Guest zones of `room`: empty for a zone-local room, and for every
    /// room of a one-zone plan.
    pub fn guests(&self, room: u32) -> &[u32] {
        self.rooms.get(room as usize).map_or(&[], |r| &r.guests)
    }

    /// The relay leaf's node index in every zone world.
    pub fn relay_node(&self) -> u32 {
        self.nodes_per_zone
    }

    /// Every ordered zone pair that actually exchanges traffic —
    /// `(home, guest)` for each cross-zone room, deduplicated. Traffic
    /// is strictly home → guest (guests never send back), so this is
    /// the complete edge set of the wide-area lookahead matrix.
    pub fn wan_edges(&self) -> Vec<(u32, u32)> {
        let mut edges: Vec<(u32, u32)> = self
            .rooms
            .iter()
            .flat_map(|r| r.guests.iter().map(move |&g| (r.home, g)))
            .collect();
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    /// Sorted times (µs of simulated time) of `zone`'s
    /// *emission-enabling* events: the static schedule points after
    /// which the zone could start forwarding cross-zone traffic it
    /// could not forward before. Every wide-area message — the stream
    /// announcement and each forwarded OSDU — is causally downstream of
    /// a cross-zone room's `Publish` execution (the relay join chain
    /// itself exchanges nothing over the WAN; mirror rooms are opened
    /// by the guest zone's own schedule), so the enabling events are
    /// exactly the cross-zone rooms' `Publish`es. A relay that joins
    /// *after* a publish replays the announcement on join completion,
    /// but that too is bounded: the room turns hot at the publish tick
    /// and stays hot until the relay has forwarded the stream's last
    /// scheduled OSDU, which cannot happen before the join completes.
    /// Between the last forwarded stream draining and the next enabling
    /// event, the zone provably cannot emit — the window stretch the
    /// adaptive runner feeds on.
    pub fn emission_enables_us(&self, zone: u32) -> Vec<u64> {
        self.per_zone[zone as usize]
            .events
            .iter()
            .filter_map(|ev| match *ev {
                ZoneEvent::City(CityEvent::Publish { at_ms, room, .. })
                    if !self.guests(room).is_empty() =>
                {
                    Some(at_ms * 1_000)
                }
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan_for(mut cfg: CityConfig) -> (CityConfig, CitySchedule, ZonePlan) {
        cfg.rooms = cfg.rooms.min(200);
        let schedule = CitySchedule::generate(&cfg);
        let plan = ZonePlan::partition(&cfg, &schedule);
        (cfg, schedule, plan)
    }

    #[test]
    fn partition_is_deterministic_and_leaves_schedule_alone() {
        let cfg = CityConfig::smoke(7);
        let schedule = CitySchedule::generate(&cfg);
        let fnv_before = schedule.fnv();
        let a = ZonePlan::partition(&cfg, &schedule);
        let b = ZonePlan::partition(&cfg, &schedule);
        assert_eq!(a, b);
        assert_eq!(schedule.fnv(), fnv_before);
    }

    #[test]
    fn single_zone_plan_is_the_flat_schedule() {
        let mut cfg = CityConfig::smoke(11);
        cfg.zones = 1;
        let (cfg, schedule, plan) = plan_for(cfg);
        assert_eq!(plan.per_zone.len(), 1);
        assert_eq!(plan.cross_rooms, 0);
        // With one zone the node world is the flat world, so every
        // event round-trips unchanged, in order, and nothing is added.
        assert_eq!(plan.nodes_per_zone, cfg.nodes);
        assert_eq!(plan.leaves_per_zone(), cfg.nodes, "no relay leaf");
        let flat: Vec<ZoneEvent> = schedule
            .events
            .iter()
            .map(|&e| ZoneEvent::City(e))
            .collect();
        assert_eq!(plan.per_zone[0].events, flat);
        assert!(plan.per_zone[0]
            .events
            .iter()
            .all(|ev| matches!(ev, ZoneEvent::City(_))));
        assert_eq!(plan.per_zone[0].member_slots, schedule.member_slots);
        assert!((0..cfg.rooms).all(|room| plan.guests(room).is_empty()));
        assert!(plan.rooms.is_empty(), "one zone places nothing");
        assert!(plan.wan_edges().is_empty());
        assert!(plan.emission_enables_us(0).is_empty());
    }

    #[test]
    fn one_zone_reuses_the_schedule_buffer() {
        // Same-size events, so the flat buffer is taken over, not copied;
        // and the config's four zones are ignored.
        let cfg = CityConfig::smoke(7);
        let schedule = CitySchedule::generate(&cfg);
        let flat = schedule.events.clone();
        let buffer = schedule.events.as_ptr() as usize;
        let plan = ZonePlan::one_zone(&cfg, schedule);
        assert_eq!(plan.zones, 1);
        assert_eq!(plan.per_zone[0].events.as_ptr() as usize, buffer);
        let expected: Vec<ZoneEvent> = flat.into_iter().map(ZoneEvent::City).collect();
        assert_eq!(plan.per_zone[0].events, expected);
    }

    #[test]
    fn wan_edges_cover_exactly_the_guest_pairs() {
        let (_, _, plan) = plan_for(CityConfig::smoke(7));
        let edges = plan.wan_edges();
        assert!(!edges.is_empty(), "smoke config spans zones");
        // Sorted, deduplicated, never self-directed, and each edge is
        // backed by at least one room.
        let mut sorted = edges.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(edges, sorted);
        for &(h, g) in &edges {
            assert_ne!(h, g);
            assert!(plan
                .rooms
                .iter()
                .any(|r| r.home == h && r.guests.contains(&g)));
        }
        // And every room's placement is covered by the edge list.
        for r in &plan.rooms {
            for &g in &r.guests {
                assert!(edges.contains(&(r.home, g)));
            }
        }
    }

    #[test]
    fn emission_enables_are_sorted_and_match_cross_room_events() {
        let (cfg, _, plan) = plan_for(CityConfig::smoke(7));
        let mut total = 0usize;
        for z in 0..cfg.zones {
            let enables = plan.emission_enables_us(z);
            assert!(enables.windows(2).all(|w| w[0] <= w[1]), "sorted");
            total += enables.len();
            // Each enable is a cross-zone room's Publish tick.
            for &t in &enables {
                let ms = t / 1_000;
                assert!(plan.per_zone[z as usize].events.iter().any(|ev| {
                    ev.at_ms() == ms
                        && matches!(
                            ev,
                            ZoneEvent::City(CityEvent::Publish { room, .. })
                                if !plan.rooms[*room as usize].guests.is_empty()
                        )
                }));
            }
        }
        assert!(total > 0, "cross rooms must produce enabling events");
    }

    #[test]
    fn every_member_lands_in_exactly_one_zone() {
        let (cfg, schedule, plan) = plan_for(CityConfig::smoke(3));
        let scheduled_joins = schedule
            .events
            .iter()
            .filter(|e| matches!(e, CityEvent::Join { .. }))
            .count() as u64;
        let zone_joins: u64 = plan.per_zone.iter().map(|z| z.member_slots).sum();
        assert_eq!(zone_joins, scheduled_joins);
        assert!(plan.cross_rooms > 0, "smoke config should span zones");
        assert!(cfg.zones > 1);
    }

    #[test]
    fn cross_room_shape_and_capacities_hold() {
        let (_, _, plan) = plan_for(CityConfig::smoke(5));
        for (room, info) in plan.rooms.iter().enumerate() {
            assert!(info.guests.len() <= 2);
            assert!(!info.guests.contains(&info.home));
            assert_eq!(info.member_zone(0), info.home, "publisher stays home");
            // Every zone's member counts sum back to the room size.
            let total: u32 = (0..plan.zones).map(|z| info.members_in(z)).sum();
            assert_eq!(total, info.members, "room {room}");
            // Guests are never empty zones: the relay would idle.
            for &g in &info.guests {
                assert!(info.members_in(g) >= 1, "room {room} guest zone {g}");
            }
        }
        // Mirror capacities match guest membership + relay publisher.
        for (z, zs) in plan.per_zone.iter().enumerate() {
            for ev in &zs.events {
                if let ZoneEvent::MirrorOpen { room, capacity, .. } = *ev {
                    let info = &plan.rooms[room as usize];
                    assert!(info.guests.contains(&(z as u32)));
                    assert_eq!(capacity, info.members_in(z as u32) + 1);
                }
            }
        }
    }

    #[test]
    fn node_indices_stay_inside_the_zone_world() {
        let (_, _, plan) = plan_for(CityConfig::city_10k(1));
        for zs in &plan.per_zone {
            for ev in &zs.events {
                match *ev {
                    ZoneEvent::City(CityEvent::RoomOpen { host, .. }) => {
                        assert!(host < plan.nodes_per_zone);
                    }
                    ZoneEvent::City(CityEvent::Join { node, .. }) => {
                        assert!(node < plan.nodes_per_zone);
                    }
                    _ => {}
                }
            }
        }
    }
}
