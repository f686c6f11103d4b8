//! City replay from the command line: generate a seeded city schedule
//! (10k rooms / 100k+ member slots of arrivals, churn and publishes),
//! replay it against the full stack, flat or zone-sharded, and report
//! what it did. Timing numbers belong to the whole-stack benchmark
//! (`benchmark/`); this binary is for inspecting one run and for the
//! deterministic CI gates.
//!
//! - default: the `city_10k` workload, flat (one engine).
//! - `--zones Z`: the zone-sharded executor on `Z` worker threads over
//!   the workload's fixed logical partition (`CityConfig::zones`;
//!   override with `--city-zones`). Results are byte-identical for
//!   every `Z` — only wall time changes — and with `--city-zones 1`
//!   they are the flat run's.
//! - `--smoke`: the ~50-room config, run twice with the same seed; the
//!   two runs must agree on every counter, the telemetry bytes and the
//!   attribution report (deterministic completion, for CI).
//! - `--metrics`: print `key=value` lines on stdout, deterministic ones
//!   first, wall time last.
//! - `--telemetry-jsonl <path>`: dump the JSONL telemetry export — the
//!   flat engine's, or the deterministic merged cluster stream.
//! - `--report <path>`: write the causal attribution + contract-audit
//!   report JSON (`cm-obs/v1`), deterministic for a fixed seed and
//!   identical across worker counts.
//!
//! `--seed`, `--rooms`, `--nodes`, `--writes`, `--churn` and `--wan-ms`
//! override the workload shape (`--wan-ms` sets the inter-zone envelope
//! latency — an easy way to provoke contract breaches on cross-zone
//! mirrors). Telemetry and causal tracing are on for smoke runs and
//! whenever an export or a report is asked for. Every flag is validated
//! before any schedule is generated.

use cm_bench::city_run::{run_city_schedule, CityStats};
use cm_bench::city_zone::{run_city_cluster_schedule, ClusterCityStats};
use cm_core::hash::fnv1a64;
use cm_obs::{render_report, ObsZoneReport};
use cm_testkit::{CityConfig, CitySchedule};
use std::time::Instant;

const USAGE: &str =
    "usage: room_scale [--smoke] [--metrics] [--telemetry-jsonl PATH] [--report PATH] \
[--seed N] [--rooms N] [--nodes N] [--writes N] [--churn PCT] [--zones N] [--city-zones N] \
[--wan-ms N]";

/// Telemetry capacity of a traced replay.
const TRACE_CAPACITY: usize = 1 << 20;

fn fail(msg: &str) -> ! {
    eprintln!("room_scale: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// One replay, flat or sharded, reduced to what this binary reports.
struct Replay {
    stats: CityStats,
    /// The telemetry export (merged across zones), when traced.
    jsonl: Option<String>,
    /// Per-zone attribution reports, empty when untraced.
    zones: Vec<ObsZoneReport>,
    /// The rendered `cm-obs/v1` report, when traced.
    report: Option<String>,
    /// Round and wide-area counters of a sharded replay.
    cluster: Option<ClusterCityStats>,
    wall_us: u64,
}

fn replay(
    cfg: &CityConfig,
    schedule: &CitySchedule,
    workers: Option<usize>,
    traced: bool,
) -> Replay {
    let capacity = traced.then_some(TRACE_CAPACITY);
    let mut run = match workers {
        None => {
            let schedule = schedule.clone();
            let start = Instant::now();
            let (stats, engine, obs) = run_city_schedule(cfg, schedule, capacity);
            let wall_us = start.elapsed().as_micros() as u64;
            let tel = engine.telemetry();
            let zone =
                traced.then(|| obs.finish_report(0, engine.now().as_micros(), tel.overflow()));
            Replay {
                stats,
                jsonl: traced.then(|| tel.export_jsonl()),
                zones: zone.into_iter().collect(),
                report: None,
                cluster: None,
                wall_us,
            }
        }
        Some(workers) => {
            let start = Instant::now();
            let mut c = run_city_cluster_schedule(cfg, schedule, workers, capacity);
            let wall_us = start.elapsed().as_micros() as u64;
            Replay {
                stats: c.agg.clone(),
                jsonl: c.merged_jsonl.take(),
                zones: c
                    .per_zone
                    .iter()
                    .filter_map(|z| z.obs_report.clone())
                    .collect(),
                report: None,
                cluster: Some(c),
                wall_us,
            }
        }
    };
    run.report = (!run.zones.is_empty()).then(|| render_report(&run.zones));
    run
}

fn write(path: &str, contents: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("wrote {path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut metrics = false;
    let mut telemetry_jsonl: Option<String> = None;
    let mut report_path: Option<String> = None;
    let mut seed = 7u64;
    let mut rooms: Option<u32> = None;
    let mut nodes: Option<u32> = None;
    let mut writes: Option<u32> = None;
    let mut churn: Option<u32> = None;
    let mut zones: Option<usize> = None;
    let mut city_zones: Option<u32> = None;
    let mut wan_ms: Option<u64> = None;
    let mut i = 0;
    let take = |i: &mut usize, flag: &str| -> String {
        *i += 1;
        args.get(*i)
            .cloned()
            .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
    };
    fn num<T: std::str::FromStr>(v: &str, what: &str) -> T {
        v.parse()
            .unwrap_or_else(|_| fail(&format!("{what}: not a valid number: {v:?}")))
    }
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--smoke" => smoke = true,
            "--metrics" => metrics = true,
            "--telemetry-jsonl" => telemetry_jsonl = Some(take(&mut i, flag)),
            "--report" => report_path = Some(take(&mut i, flag)),
            "--seed" => seed = num(&take(&mut i, flag), flag),
            "--rooms" => rooms = Some(num(&take(&mut i, flag), flag)),
            "--nodes" => nodes = Some(num(&take(&mut i, flag), flag)),
            "--writes" => writes = Some(num(&take(&mut i, flag), flag)),
            "--churn" => churn = Some(num(&take(&mut i, flag), flag)),
            "--zones" => zones = Some(num(&take(&mut i, flag), flag)),
            "--city-zones" => city_zones = Some(num(&take(&mut i, flag), flag)),
            "--wan-ms" => wan_ms = Some(num(&take(&mut i, flag), flag)),
            other => fail(&format!("unknown arg: {other}")),
        }
        i += 1;
    }

    // No silent clamping: a flag outside its domain is an error.
    let mut cfg = if smoke {
        CityConfig::smoke(seed)
    } else {
        CityConfig::city_10k(seed)
    };
    if let Some(r) = rooms {
        if r == 0 {
            fail("--rooms must be >= 1");
        }
        cfg.rooms = r;
    }
    if let Some(n) = nodes {
        if n < cfg.members_max {
            fail(&format!(
                "--nodes {n} is below members_max {} (one room's members need distinct nodes)",
                cfg.members_max
            ));
        }
        cfg.nodes = n;
    }
    if let Some(w) = writes {
        cfg.writes_per_stream = w;
    }
    if let Some(c) = churn {
        if c > 100 {
            fail(&format!("--churn {c} is a percentage (0-100)"));
        }
        cfg.churn_percent = c;
    }
    if let Some(z) = city_zones {
        if z == 0 {
            fail("--city-zones must be >= 1");
        }
        cfg.zones = z;
    }
    if let Some(w) = wan_ms {
        if w == 0 {
            fail("--wan-ms must be >= 1");
        }
        cfg.wan_latency_ms = w;
    }
    if zones == Some(0) {
        fail("--zones must be >= 1");
    }
    if [&telemetry_jsonl, &report_path]
        .into_iter()
        .any(|p| p.as_deref() == Some(""))
    {
        fail("--telemetry-jsonl and --report need a non-empty path");
    }
    let traced = smoke || telemetry_jsonl.is_some() || report_path.is_some();

    let schedule = CitySchedule::generate(&cfg);
    eprintln!(
        "room_scale: {} rooms, {} member slots, {} events, schedule fnv {:#018x}",
        cfg.rooms,
        schedule.member_slots,
        schedule.events.len(),
        schedule.fnv()
    );

    let run = replay(&cfg, &schedule, zones, traced);
    if smoke {
        let again = replay(&cfg, &schedule, zones, traced);
        assert_eq!(run.stats, again.stats, "smoke runs diverged: counters");
        assert!(run.jsonl == again.jsonl, "smoke runs diverged: telemetry");
        assert!(run.report == again.report, "smoke runs diverged: report");
        eprintln!(
            "smoke: deterministic ({} events, telemetry and report identical)",
            run.stats.events_executed
        );
    }
    let s = &run.stats;
    assert_eq!(s.joins_denied, 0, "city workload must admit everyone");
    eprintln!(
        "{}: {} rooms, {} joins, {} OSDUs delivered, {} events, {} sim-ms in {} ms",
        zones.map_or("flat".to_string(), |z| format!("{z} worker(s)")),
        s.rooms_opened,
        s.joins_ok,
        s.osdus_delivered,
        s.events_executed,
        s.sim_ms,
        run.wall_us / 1_000
    );

    if let (Some(path), Some(jsonl)) = (&telemetry_jsonl, &run.jsonl) {
        write(path, jsonl);
    }
    if let (Some(path), Some(report)) = (&report_path, &run.report) {
        write(path, report);
    }

    if metrics {
        // Deterministic lines first (the CI differentials compare them
        // across worker counts and against the flat run), timing last.
        println!("events={}", s.events_executed);
        println!("member_slots={}", s.joins_ok);
        println!("sim_ms={}", s.sim_ms);
        if let Some(c) = &run.cluster {
            println!("rounds={}", c.rounds);
            println!("wan_msgs={}", c.wan_msgs);
            println!("wan_bytes={}", c.wan_bytes);
        }
        if let Some(jsonl) = &run.jsonl {
            println!("telemetry_fnv={:#018x}", fnv1a64(jsonl.as_bytes()));
        }
        if let Some(report) = &run.report {
            println!("report_fnv={:#018x}", fnv1a64(report.as_bytes()));
            let total = |f: fn(&ObsZoneReport) -> u64| run.zones.iter().map(f).sum::<u64>();
            println!("breaches={}", total(|z| z.breaches_total));
            println!("telemetry_overflow={}", total(|z| z.telemetry_overflow));
        }
        if let Some(c) = &run.cluster {
            println!("workers={}", c.workers);
        }
        println!("wall_us={}", run.wall_us);
    }
}
