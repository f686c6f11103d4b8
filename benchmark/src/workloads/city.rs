//! `city_flat`, `city_sharded`, `city_traced`: one seeded city schedule
//! replayed by cm-bench's two executors. From outside, a replay is one
//! call; what the city tells us per layer is what its counters say.

use super::{render_and_export, report_obs, report_program_tracing};
use crate::catalogue::Workload;
use crate::sample::{Phases, Report, SampleSpec};
use crate::spans;
use cm_bench::city_run::{run_city_schedule, CityStats};
use cm_bench::city_zone::run_city_cluster_schedule;
use cm_obs::ObsZoneReport;
use cm_testkit::{CityConfig, CitySchedule, ZonePlan};
use std::time::Instant;

/// Worker threads of the sharded replay: one per core of the 2-core
/// reference host. The logical partition (8 zones) is part of the city
/// config, so results do not depend on this.
pub const SHARDED_WORKERS: usize = 2;

pub fn run(spec: &SampleSpec, phases: &mut Phases, rep: &mut Report) {
    let cfg = if spec.smoke {
        CityConfig::smoke(spec.seed)
    } else {
        CityConfig::city_10k(spec.seed)
    };
    // city_traced is the program's tracing used for real; a traced sample
    // of the other two turns it on to read the program's counters.
    let program_traced = spec.traced || spec.workload == Workload::CityTraced;
    let capacity = program_traced.then_some(cm_telemetry::DEFAULT_CAPACITY);

    let schedule = phases.setup(|| {
        let t = Instant::now();
        let schedule = spans::within("cm-testkit.CitySchedule.generate", || {
            CitySchedule::generate(&cfg)
        });
        rep.set("cm-testkit.schedule_gen_s", t.elapsed().as_secs_f64());
        rep.set("cm-testkit.schedule_events", schedule.events.len() as f64);
        rep.note("schedule_fnv", format!("{:#018x}", schedule.fnv()));
        if spec.traced && spec.workload == Workload::CitySharded {
            // The executor partitions again inside the replay call; this
            // extra call exists only to time the partition by itself.
            let t = Instant::now();
            let plan = spans::within("cm-testkit.ZonePlan.partition", || {
                ZonePlan::partition(&cfg, &schedule)
            });
            rep.set("cm-testkit.zone_partition_s", t.elapsed().as_secs_f64());
            std::hint::black_box(plan);
        }
        schedule
    });
    let joins_scheduled = schedule.member_slots;

    let (stats, wan_dropped) = match spec.workload {
        Workload::CitySharded => sharded(spec, &cfg, &schedule, capacity, phases, rep),
        _ => (flat(spec, &cfg, schedule, capacity, phases, rep), 0),
    };

    let wall_s = phases.wall_s();
    phases.collect(|| {
        rep.set("netsim.engine.events", stats.events_executed as f64);
        rep.set(
            "netsim.engine.ns_per_event",
            wall_s * 1e9 / stats.events_executed.max(1) as f64,
        );
        rep.set("cm-transport.write_osdu.calls", stats.osdus_written as f64);
        rep.set(
            "cm-session.join.calls",
            (stats.joins_ok + stats.joins_denied) as f64,
        );
        rep.set("cm-session.on_media.calls", stats.osdus_delivered as f64);
        rep.note("sim_ms", stats.sim_ms);
        rep.note("joins_ok", stats.joins_ok);

        let rooms = u64::from(cfg.rooms);
        rep.check(
            "joins_denied == 0",
            stats.joins_denied == 0,
            format!("joins_denied={}", stats.joins_denied),
        );
        rep.check(
            "rooms_opened == cfg.rooms",
            stats.rooms_opened == rooms,
            format!("rooms_opened={} cfg.rooms={rooms}", stats.rooms_opened),
        );
        rep.check(
            "published == cfg.rooms",
            stats.published == rooms,
            format!("published={} cfg.rooms={rooms}", stats.published),
        );
        rep.ops(
            joins_scheduled + rooms + stats.osdus_written,
            stats.joins_denied + rooms.saturating_sub(stats.published) + wan_dropped,
        );
    });
}

fn flat(
    spec: &SampleSpec,
    cfg: &CityConfig,
    schedule: CitySchedule,
    capacity: Option<usize>,
    phases: &mut Phases,
    rep: &mut Report,
) -> CityStats {
    // What the program's tracing yields once the replay is over: the
    // attribution report, rendered, and the event export.
    let finish = |engine: &netsim::Engine, obs: &cm_obs::Obs, rep: &mut Report| {
        let tel = engine.telemetry();
        let zone = obs.finish_report(0, engine.now().as_micros(), tel.overflow());
        render_and_export(rep, std::slice::from_ref(&zone), &[tel]);
        zone
    };

    let (stats, engine, obs, zone) = phases.timed(|| {
        let t = Instant::now();
        let (stats, engine, obs) = spans::within("cm-bench.run_city_schedule", || {
            run_city_schedule(cfg, schedule, capacity)
        });
        rep.set("cm-bench.city_run.replay_s", t.elapsed().as_secs_f64());
        // city_traced pays for the report and the export inside the timed
        // region: that is the feature's whole cost.
        let zone = (spec.workload == Workload::CityTraced).then(|| finish(&engine, &obs, rep));
        (stats, engine, obs, zone)
    });

    if capacity.is_some() {
        phases.collect(|| {
            let zone = zone.unwrap_or_else(|| finish(&engine, &obs, rep));
            report_program_tracing(rep, std::slice::from_ref(&zone), &[engine.telemetry()]);
            traced_city_checks(spec, rep, std::slice::from_ref(&zone));
        });
    }
    // The world is never freed (a known Rc cycle); a sample is a whole
    // process, so it is simply left for the exit to reclaim.
    std::mem::forget((engine, obs));
    stats
}

fn sharded(
    spec: &SampleSpec,
    cfg: &CityConfig,
    schedule: &CitySchedule,
    capacity: Option<usize>,
    phases: &mut Phases,
    rep: &mut Report,
) -> (CityStats, u64) {
    let c = phases.timed(|| {
        let t = Instant::now();
        let c = spans::within("cm-bench.run_city_cluster_schedule", || {
            run_city_cluster_schedule(cfg, schedule, SHARDED_WORKERS, capacity)
        });
        rep.set("cm-bench.city_zone.replay_s", t.elapsed().as_secs_f64());
        c
    });
    let busy_us: u64 = c.worker_busy_us.iter().sum();
    let sync_us: u64 = c.worker_sync_us.iter().sum();
    let wan_dropped: u64 = c.per_zone.iter().map(|z| z.wan_dropped).sum();
    rep.set("cm-cluster.rounds", c.rounds as f64);
    rep.set("cm-cluster.busy_s", busy_us as f64 / 1e6);
    rep.set("cm-cluster.sync_s", sync_us as f64 / 1e6);
    rep.set(
        "cm-cluster.sync_share",
        sync_us as f64 / (busy_us + sync_us).max(1) as f64,
    );
    rep.set(
        "cm-cluster.critical_path_s",
        c.critical_path_us as f64 / 1e6,
    );
    rep.set(
        "cm-cluster.speedup_bound",
        busy_us as f64 / c.critical_path_us.max(1) as f64,
    );
    rep.set("cm-cluster.wan_msgs", c.wan_msgs as f64);
    rep.set("cm-cluster.wan_bytes", c.wan_bytes as f64);
    rep.set("cm-cluster.wan_dropped", wan_dropped as f64);
    rep.set("cm-cluster.envelope_allocs", c.envelope_allocs as f64);
    rep.note("workers", c.workers);
    rep.note("zones", c.per_zone.len());

    // The zone engines live and die inside the executor; of the program's
    // tracing only the per-zone attribution reports come back.
    let zones: Vec<ObsZoneReport> = c
        .per_zone
        .iter()
        .filter_map(|z| z.obs_report.clone())
        .collect();
    if !zones.is_empty() {
        report_obs(rep, &zones);
        rep.set(
            "cm-telemetry.overflow",
            zones.iter().map(|z| z.telemetry_overflow).sum::<u64>() as f64,
        );
        traced_city_checks(spec, rep, &zones);
    }
    (c.agg, wan_dropped)
}

fn traced_city_checks(spec: &SampleSpec, rep: &mut Report, zones: &[ObsZoneReport]) {
    let spans: u64 = zones.iter().map(|z| z.spans).sum();
    let misses: u64 = zones.iter().map(|z| z.misses).sum();
    let breaches: u64 = zones.iter().map(|z| z.breaches_total).sum();
    if spec.workload == Workload::CityTraced {
        // End-to-end numbers never come from a traced sample, and only
        // city_traced runs the program's tracing untraced.
        rep.set("deadline_miss_ratio", misses as f64 / spans.max(1) as f64);
    }
    rep.note("deadline_misses", format!("{misses}/{spans}"));
    rep.check(
        "breaches_total == 0",
        breaches == 0,
        format!("breaches_total={breaches}"),
    );
}
