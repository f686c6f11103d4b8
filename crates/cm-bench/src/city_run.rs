//! Replays a [`cm_testkit::CitySchedule`] against a live platform — the
//! execution half of the city-scale scenario (the pure generator lives in
//! cm-testkit so it stays engine-free and hashable).
//!
//! The world is a star: one switch node in the middle, `cfg.nodes` leaf
//! nodes around it, clean 100 Mbit/s 1 ms links. Every leaf carries a
//! transport entity with a small fixed buffer (scale runs are dominated
//! by membership churn, not per-stream buffering). Rooms, members and
//! streams then come and go exactly as the schedule dictates; the run
//! ends when the engine drains.
//!
//! The flat city is the one-zone case of the zone executor
//! ([`crate::city_zone`]): zone 0 of [`ZonePlan::one_zone`], built by
//! [`ZoneCityWorker::build`] and drained on the calling thread.

use crate::city_zone::ZoneCityWorker;
use cm_platform::Platform;
use cm_testkit::{CityConfig, CitySchedule, ZonePlan};
use netsim::Engine;
use std::sync::Arc;

/// Counters collected over one city run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CityStats {
    /// Rooms opened.
    pub rooms_opened: u64,
    /// Joins confirmed by admission.
    pub joins_ok: u64,
    /// Joins denied (capacity/QoS) — expected to be zero on clean runs.
    pub joins_denied: u64,
    /// Streams successfully published.
    pub published: u64,
    /// OSDUs written by publishers.
    pub osdus_written: u64,
    /// Bytes written by publishers.
    pub bytes_written: u64,
    /// OSDUs delivered to member handlers.
    pub osdus_delivered: u64,
    /// Bytes delivered to member handlers.
    pub bytes_delivered: u64,
    /// Engine events executed over the whole run.
    pub events_executed: u64,
    /// Final simulated time, in milliseconds.
    pub sim_ms: u64,
}

/// Build the star world and replay the schedule to completion.
///
/// `telemetry_capacity` — when `Some(n)`, telemetry is enabled with that
/// event capacity before anything is scheduled (gauges and counters are
/// then live for the whole run).
pub fn run_city(cfg: &CityConfig, telemetry_capacity: Option<usize>) -> CityStats {
    let schedule = CitySchedule::generate(cfg);
    run_city_schedule(cfg, schedule, telemetry_capacity).0
}

/// As [`run_city`], but takes a pre-generated schedule and also returns
/// the engine and the causal-trace registry (so callers can export
/// telemetry and the attribution report after the run). Tracing rides
/// with telemetry: enabled iff `telemetry_capacity` is `Some`.
pub fn run_city_schedule(
    cfg: &CityConfig,
    schedule: CitySchedule,
    telemetry_capacity: Option<usize>,
) -> (CityStats, Engine, cm_obs::Obs) {
    let (stats, platform, obs) = run_city_world(cfg, schedule, telemetry_capacity);
    (stats, platform.engine().clone(), obs)
}

/// As [`run_city_schedule`], but hands back the whole drained world —
/// every node of `platform.network()` carries an entity — so a caller can
/// check what the replay left behind.
pub fn run_city_world(
    cfg: &CityConfig,
    schedule: CitySchedule,
    telemetry_capacity: Option<usize>,
) -> (CityStats, Platform, cm_obs::Obs) {
    let plan = Arc::new(ZonePlan::one_zone(cfg, schedule));
    ZoneCityWorker::build(cfg, plan, 0, telemetry_capacity).drain()
}
