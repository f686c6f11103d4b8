//! City-scale headline bench: replays a seeded 10k-room / 100k+-member
//! schedule of room arrivals, member churn and media publishes against
//! the full stack and reports sustained wall-clock throughput —
//! engine events/sec and simulated media bytes/sec.
//!
//! Modes:
//!
//! - default: run the `city_10k` workload once, flat (one engine), and
//!   write the measured numbers to `BENCH_scale.json` (or the `--out`
//!   path). Only this plain run owns the committed artifact: with
//!   `--smoke`, `--metrics` or `--runs` nothing is written unless
//!   `--out` names a path.
//! - `--zones Z`: run the zone-sharded cluster executor with `Z` worker
//!   threads over the workload's fixed logical partition
//!   (`CityConfig::zones`; override with `--city-zones`). Results are
//!   byte-identical for every `Z` — only wall time changes.
//! - `--threads T`: cap the OS threads the cluster may use (default:
//!   no extra cap beyond `Z`).
//! - `--protocol classic|adaptive`: the cluster round protocol for a
//!   `--zones` run — fixed-lookahead two-barrier classic, or the
//!   default adaptive-window single-barrier engine. Results are
//!   byte-identical either way; rounds and wall time differ.
//! - `--scaling LIST`: comma-separated worker counts (e.g. `1,2,4,8`);
//!   runs the flat baseline, a classic one-worker reference, and each
//!   count interleaved min-of-N, prints the scaling table and writes
//!   the curve (with `overhead_vs_flat_percent` and
//!   `rounds_reduction`) to the `--out` JSON. Every point runs in a
//!   fresh child process (the bench re-executes itself) so one
//!   measurement's heap cannot skew the next — world teardown
//!   currently leaks the run's arena, see ROADMAP.
//! - `--smoke`: a ~50-room config run twice with the same seed; the two
//!   runs must agree event-for-event (deterministic completion is
//!   asserted, for CI). With `--zones` the assertion covers the merged
//!   cluster telemetry byte-for-byte.
//! - `--metrics`: additionally print `key=value` lines to stdout, one
//!   per measure, for the interleaved A/B harness (and the CI
//!   zones-differential check) to harvest.
//! - `--telemetry-jsonl <path>`: run with telemetry enabled and dump the
//!   full JSONL export — the flat engine's, or the deterministic merged
//!   cluster stream when `--zones` is given.
//! - `--report <path>`: write the causal attribution + contract-audit
//!   report JSON (`cm-obs/v1`). Tracing rides with telemetry; when the
//!   measured run was untraced (non-smoke flat / cluster runs) a
//!   dedicated traced run produces the report so the timing numbers stay
//!   untraced. The report bytes are deterministic for a fixed seed and
//!   identical across worker counts.
//!
//! `--rooms`, `--nodes`, `--seed`, `--runs`, `--wan-ms` override the
//! workload shape (`--wan-ms` sets the inter-zone envelope latency — an
//! easy way to provoke contract breaches on cross-zone mirrors);
//! `--runs N` takes the best (min wall time) of N runs, for the
//! interleaved min-of-N methodology from BENCH_netsim.json.
//!
//! Timed regions replay a pre-generated schedule; schedule generation
//! never counts against a measurement, flat or sharded.
//!
//! All flags are validated up front; the bench fails fast with a usage
//! line before any schedule is generated or printed.

use cm_bench::city_run::{run_city_schedule, CityStats};
use cm_bench::city_zone::{run_city_cluster_mode, run_city_cluster_schedule, ClusterCityStats};
use cm_cluster::RoundMode;
use cm_core::hash::fnv1a64;
use cm_obs::{render_report, ObsZoneReport};
use cm_testkit::{CityConfig, CitySchedule};
use std::time::Instant;

const USAGE: &str =
    "usage: room_scale [--smoke] [--metrics] [--out PATH] [--telemetry-jsonl PATH] \
[--report PATH] [--seed N] [--rooms N] [--nodes N] [--runs N] [--writes N] [--churn PCT] \
[--zones N] [--protocol classic|adaptive] [--threads N] [--city-zones N] [--wan-ms N] \
[--scaling N,N,...]";

fn fail(msg: &str) -> ! {
    eprintln!("room_scale: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

struct Measured {
    stats: CityStats,
    wall_ms: u64,
    wall_us: u64,
    events_per_sec: f64,
    bytes_per_sec: f64,
}

/// Flat run timed on a pre-generated schedule — the apples-to-apples
/// baseline for the sharding-overhead figure. Schedule generation (and
/// the clone) stay outside the timed region, mirroring what the cluster
/// path excludes.
fn measure_flat_schedule(cfg: &CityConfig, schedule: &CitySchedule) -> Measured {
    let schedule = schedule.clone();
    let start = Instant::now();
    let (stats, _engine, _obs) = run_city_schedule(cfg, schedule, None);
    let wall = start.elapsed();
    let secs = wall.as_secs_f64().max(1e-9);
    Measured {
        events_per_sec: stats.events_executed as f64 / secs,
        bytes_per_sec: (stats.bytes_written + stats.bytes_delivered) as f64 / secs,
        wall_ms: wall.as_millis() as u64,
        wall_us: wall.as_micros() as u64,
        stats,
    }
}

/// Min-of-N: keep the run with the smallest wall time.
fn measure_best(cfg: &CityConfig, schedule: &CitySchedule, runs: u32) -> Measured {
    let mut best = measure_flat_schedule(cfg, schedule);
    for _ in 1..runs {
        let m = measure_flat_schedule(cfg, schedule);
        if m.wall_ms < best.wall_ms {
            best = m;
        }
    }
    best
}

struct ClusterMeasured {
    stats: ClusterCityStats,
    wall_ms: u64,
    wall_us: u64,
    events_per_sec: f64,
    bytes_per_sec: f64,
}

fn measure_cluster_mode(
    cfg: &CityConfig,
    schedule: &CitySchedule,
    workers: usize,
    telemetry: Option<usize>,
    mode: RoundMode,
) -> ClusterMeasured {
    let start = Instant::now();
    let stats = run_city_cluster_mode(cfg, schedule, workers, telemetry, mode);
    let wall = start.elapsed();
    let secs = wall.as_secs_f64().max(1e-9);
    ClusterMeasured {
        events_per_sec: stats.agg.events_executed as f64 / secs,
        bytes_per_sec: (stats.agg.bytes_written + stats.agg.bytes_delivered) as f64 / secs,
        wall_ms: wall.as_millis() as u64,
        wall_us: wall.as_micros() as u64,
        stats,
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Render the attribution + audit report from a cluster run's per-zone
/// trace reports; `None` when the run was untraced.
fn obs_report_json(c: &ClusterCityStats) -> Option<String> {
    let reports: Vec<ObsZoneReport> = c
        .per_zone
        .iter()
        .filter_map(|z| z.obs_report.clone())
        .collect();
    (!reports.is_empty()).then(|| render_report(&reports))
}

fn write_report(path: &str, json: &str) {
    std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("wrote {path}");
}

/// Write a result artifact — or nothing, when the run has no output path
/// (smoke and A/B runs without `--out`).
fn write_out(path: Option<&str>, json: &str) {
    if let Some(path) = path {
        write_report(path, json);
    }
}

/// Per-zone metrics table (satellite: zone-labelled engine/room gauges
/// rolled up in the bench summary).
fn print_zone_table(c: &ClusterCityStats) {
    eprintln!(
        "{:>4} {:>10} {:>6} {:>10} {:>7} {:>9} {:>8} {:>8} {:>12} {:>12} {:>8} {:>7} {:>6} {:>7} {:>8}",
        "zone",
        "events",
        "rooms",
        "rooms_pk",
        "mirrors",
        "joins",
        "osdu_in",
        "wan_out",
        "wan_bytes",
        "deliv_bytes",
        "dropped",
        "spans",
        "miss",
        "breach",
        "tel_drop"
    );
    for z in &c.per_zone {
        let o = z.obs_report.as_ref();
        eprintln!(
            "{:>4} {:>10} {:>6} {:>10} {:>7} {:>9} {:>8} {:>8} {:>12} {:>12} {:>8} {:>7} {:>6} {:>7} {:>8}",
            z.zone,
            z.stats.events_executed,
            z.stats.rooms_opened,
            z.rooms_active_peak,
            z.mirrors_opened,
            z.stats.joins_ok,
            z.stats.osdus_delivered,
            z.wan_out_msgs,
            z.wan_out_bytes,
            z.stats.bytes_delivered,
            z.wan_dropped,
            o.map_or(0, |r| r.spans),
            o.map_or(0, |r| r.misses),
            o.map_or(0, |r| r.breaches_total),
            o.map_or(0, |r| r.telemetry_overflow)
        );
    }
    let peak: u64 = c.per_zone.iter().map(|z| z.rooms_active_peak).sum();
    let mirrors: u64 = c.per_zone.iter().map(|z| z.mirrors_opened).sum();
    let dropped: u64 = c.per_zone.iter().map(|z| z.wan_dropped).sum();
    let obs = |f: fn(&ObsZoneReport) -> u64| -> u64 {
        c.per_zone
            .iter()
            .filter_map(|z| z.obs_report.as_ref())
            .map(f)
            .sum()
    };
    eprintln!(
        "{:>4} {:>10} {:>6} {:>10} {:>7} {:>9} {:>8} {:>8} {:>12} {:>12} {:>8} {:>7} {:>6} {:>7} {:>8}",
        "all",
        c.agg.events_executed,
        c.agg.rooms_opened,
        peak,
        mirrors,
        c.agg.joins_ok,
        c.agg.osdus_delivered,
        c.wan_msgs,
        c.wan_bytes,
        c.agg.bytes_delivered,
        dropped,
        obs(|r| r.spans),
        obs(|r| r.misses),
        obs(|r| r.breaches_total),
        obs(|r| r.telemetry_overflow)
    );
}

fn config_json(cfg: &CityConfig) -> String {
    format!(
        "  \"config\": {{\n    \"seed\": {},\n    \"nodes\": {},\n    \"rooms\": {},\n    \"members_min\": {},\n    \"members_max\": {},\n    \"arrival_window_ms\": {},\n    \"churn_percent\": {},\n    \"writes_per_stream\": {},\n    \"zones\": {},\n    \"cross_zone_percent\": {},\n    \"wan_latency_ms\": {}\n  }}",
        cfg.seed,
        cfg.nodes,
        cfg.rooms,
        cfg.members_min,
        cfg.members_max,
        cfg.arrival_window_ms,
        cfg.churn_percent,
        cfg.writes_per_stream,
        cfg.zones,
        cfg.cross_zone_percent,
        cfg.wan_latency_ms,
    )
}

fn write_json(
    path: Option<&str>,
    cfg: &CityConfig,
    m: &Measured,
    deterministic: Option<bool>,
    extra: &str,
    notes: &str,
) {
    let s = &m.stats;
    let det = match deterministic {
        Some(b) => format!("\n  \"deterministic\": {b},"),
        None => String::new(),
    };
    let json = format!(
        "{{\n  \"bench\": \"cm-bench/src/bin/room_scale.rs\",\n  \"workload\": \"room-churn city\",\n  \"notes\": \"{}\",{}\n{},{}\n  \"results\": {{\n    \"rooms_opened\": {},\n    \"member_slots_joined\": {},\n    \"joins_denied\": {},\n    \"streams_published\": {},\n    \"osdus_written\": {},\n    \"bytes_written\": {},\n    \"osdus_delivered\": {},\n    \"bytes_delivered\": {},\n    \"engine_events\": {},\n    \"sim_ms\": {},\n    \"wall_ms\": {},\n    \"events_per_sec\": {:.0},\n    \"bytes_per_sec\": {:.0}\n  }}\n}}\n",
        json_escape(notes),
        det,
        config_json(cfg),
        extra,
        s.rooms_opened,
        s.joins_ok,
        s.joins_denied,
        s.published,
        s.osdus_written,
        s.bytes_written,
        s.osdus_delivered,
        s.bytes_delivered,
        s.events_executed,
        s.sim_ms,
        m.wall_ms,
        m.events_per_sec,
        m.bytes_per_sec,
    );
    write_out(path, &json);
}

/// One measured scaling point, harvested from a child process's
/// `--metrics` stdout. Cluster-only fields stay zero on flat points.
#[derive(Default, Clone)]
struct Point {
    wall_ms: u64,
    wall_us: u64,
    events: u64,
    events_per_sec: f64,
    rounds: u64,
    busy_us_total: u64,
    sync_us_total: u64,
    critical_path_us: u64,
    envelopes_routed: u64,
    envelope_allocs: u64,
    wan_msgs: u64,
    wan_bytes: u64,
}

fn point_from(stdout: &str) -> Point {
    let mut p = Point::default();
    let mut saw_wall = false;
    for line in stdout.lines() {
        let Some((k, v)) = line.split_once('=') else {
            continue;
        };
        let n: u64 = v.parse().unwrap_or(0);
        match k {
            "wall_ms" => {
                p.wall_ms = n;
                saw_wall = true;
            }
            "wall_us" => p.wall_us = n,
            "events" => p.events = n,
            "events_per_sec" => p.events_per_sec = v.parse().unwrap_or(0.0),
            "rounds" => p.rounds = n,
            "busy_us_total" => p.busy_us_total = n,
            "sync_us_total" => p.sync_us_total = n,
            "critical_path_us" => p.critical_path_us = n,
            "envelopes_routed" => p.envelopes_routed = n,
            "envelope_allocs" => p.envelope_allocs = n,
            "wan_msgs" => p.wan_msgs = n,
            "wan_bytes" => p.wan_bytes = n,
            _ => {}
        }
    }
    if !saw_wall {
        fail("child bench printed no wall_ms metric — stdout format drifted");
    }
    p
}

/// Run one scaling point in a fresh child process (this bench re-executes
/// itself) and harvest its `--metrics` lines. Process isolation keeps one
/// measurement's heap from skewing the next: world teardown currently
/// leaks the run's arena (see ROADMAP), so in-process interleaving
/// degrades 2-3x over a pass.
fn bench_child(workload: &[String], extra: &[&str]) -> Point {
    let exe = std::env::current_exe()
        .unwrap_or_else(|e| fail(&format!("cannot locate own binary for child runs: {e}")));
    let output = std::process::Command::new(&exe)
        .args(workload)
        .args(extra)
        .args(["--metrics", "--runs", "1"])
        .stderr(std::process::Stdio::null())
        .output()
        .unwrap_or_else(|e| fail(&format!("spawn child bench: {e}")));
    if !output.status.success() {
        fail(&format!(
            "child bench ({}) exited with {}",
            if extra.is_empty() {
                "flat".to_string()
            } else {
                extra.join(" ")
            },
            output.status
        ));
    }
    point_from(&String::from_utf8_lossy(&output.stdout))
}

#[allow(clippy::too_many_arguments)]
fn write_scaling_json(
    path: Option<&str>,
    cfg: &CityConfig,
    baseline: &Point,
    curve: &[(usize, Point)],
    runs: u32,
    cores: usize,
    overhead_vs_flat_percent: f64,
    classic_w1: &Point,
    adaptive_rounds_w1: u64,
    rounds_reduction: f64,
    notes: &str,
) {
    let entries: Vec<String> = curve
        .iter()
        .map(|(w, p)| {
            let speedup = baseline.wall_us as f64 / (p.wall_us.max(1)) as f64;
            format!(
                "    {{\n      \"workers\": {},\n      \"zones\": {},\n      \"rounds\": {},\n      \"measured_wall_ms\": {},\n      \"events_per_sec\": {:.0},\n      \"measured_speedup_vs_flat\": {:.3},\n      \"busy_us_total\": {},\n      \"sync_us_total\": {},\n      \"critical_path_us\": {},\n      \"parallel_speedup_bound\": {:.3},\n      \"envelopes_routed\": {},\n      \"envelope_allocs\": {},\n      \"wan_msgs\": {},\n      \"wan_bytes\": {}\n    }}",
                w,
                cfg.zones,
                p.rounds,
                p.wall_ms,
                p.events_per_sec,
                speedup,
                p.busy_us_total,
                p.sync_us_total,
                p.critical_path_us,
                // Busy-time Amdahl bound: total shard work / critical path —
                // the speedup this worker count reaches once each worker has
                // its own core (independent of this host's core count).
                p.busy_us_total as f64 / (p.critical_path_us.max(1)) as f64,
                p.envelopes_routed,
                p.envelope_allocs,
                p.wan_msgs,
                p.wan_bytes,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"cm-bench/src/bin/room_scale.rs\",\n  \"workload\": \"room-churn city, zone-sharded\",\n  \"notes\": \"{}\",\n{},\n  \"methodology\": \"interleaved min-of-{} per point on a {}-core host; every point runs in a fresh child process and replays the identical pre-generated schedule (flat baseline included)\",\n  \"flat_baseline\": {{\n    \"wall_ms\": {},\n    \"events_per_sec\": {:.0},\n    \"engine_events\": {}\n  }},\n  \"overhead_vs_flat_percent\": {:.2},\n  \"rounds_reduction\": {{\n    \"classic_rounds_w1\": {},\n    \"classic_busy_us_w1\": {},\n    \"adaptive_rounds_w1\": {},\n    \"factor\": {:.2}\n  }},\n  \"scaling\": [\n{}\n  ]\n}}\n",
        json_escape(notes),
        config_json(cfg),
        runs,
        cores,
        baseline.wall_ms,
        baseline.events_per_sec,
        baseline.events,
        overhead_vs_flat_percent,
        classic_w1.rounds,
        classic_w1.busy_us_total,
        adaptive_rounds_w1,
        rounds_reduction,
        entries.join(",\n"),
    );
    write_out(path, &json);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut metrics = false;
    let mut out: Option<String> = None;
    let mut telemetry_jsonl: Option<String> = None;
    let mut report: Option<String> = None;
    let mut seed = 7u64;
    let mut rooms: Option<u32> = None;
    let mut nodes: Option<u32> = None;
    let mut runs = 1u32;
    let mut writes: Option<u32> = None;
    let mut churn: Option<u32> = None;
    let mut zones: Option<usize> = None;
    let mut protocol: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut city_zones: Option<u32> = None;
    let mut wan_ms: Option<u64> = None;
    let mut scaling: Option<Vec<usize>> = None;
    let mut i = 0;
    let take = |args: &[String], i: &mut usize, flag: &str| -> String {
        *i += 1;
        match args.get(*i) {
            Some(v) => v.clone(),
            None => fail(&format!("{flag} needs a value")),
        }
    };
    fn num<T: std::str::FromStr>(v: &str, what: &str) -> T {
        v.parse()
            .unwrap_or_else(|_| fail(&format!("{what}: not a valid number: {v:?}")))
    }
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--metrics" => metrics = true,
            "--out" => out = Some(take(&args, &mut i, "--out")),
            "--telemetry-jsonl" => telemetry_jsonl = Some(take(&args, &mut i, "--telemetry-jsonl")),
            "--report" => report = Some(take(&args, &mut i, "--report")),
            "--seed" => seed = num(&take(&args, &mut i, "--seed"), "--seed"),
            "--rooms" => rooms = Some(num(&take(&args, &mut i, "--rooms"), "--rooms")),
            "--nodes" => nodes = Some(num(&take(&args, &mut i, "--nodes"), "--nodes")),
            "--runs" => runs = num(&take(&args, &mut i, "--runs"), "--runs"),
            "--writes" => writes = Some(num(&take(&args, &mut i, "--writes"), "--writes")),
            "--churn" => churn = Some(num(&take(&args, &mut i, "--churn"), "--churn")),
            "--zones" => zones = Some(num(&take(&args, &mut i, "--zones"), "--zones")),
            "--protocol" => protocol = Some(take(&args, &mut i, "--protocol")),
            "--threads" => threads = Some(num(&take(&args, &mut i, "--threads"), "--threads")),
            "--city-zones" => {
                city_zones = Some(num(&take(&args, &mut i, "--city-zones"), "--city-zones"))
            }
            "--wan-ms" => wan_ms = Some(num(&take(&args, &mut i, "--wan-ms"), "--wan-ms")),
            "--scaling" => {
                let list = take(&args, &mut i, "--scaling");
                let parsed: Vec<usize> = list
                    .split(',')
                    .map(|p| num(p.trim(), "--scaling entry"))
                    .collect();
                scaling = Some(parsed);
            }
            other => fail(&format!("unknown arg: {other}")),
        }
        i += 1;
    }

    // The committed city_10k artifact belongs to the plain default run; a
    // smoke run or an A/B invocation writes only where `--out` says.
    let ab = metrics || args.iter().any(|a| a == "--runs");
    let out = out.or_else(|| (!smoke && !ab).then(|| "BENCH_scale.json".to_string()));
    let out = out.as_deref();

    // Validate everything up front — fail fast, before any schedule work
    // or output. No silent clamping: a flag outside its domain is an
    // error, not a guess.
    let mut cfg = if smoke {
        CityConfig::smoke(seed)
    } else {
        CityConfig::city_10k(seed)
    };
    if runs == 0 {
        fail("--runs must be >= 1");
    }
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
    if threads == Some(0) {
        fail("--threads must be >= 1");
    }
    if threads.is_some() && zones.is_none() && scaling.is_none() {
        fail("--threads only applies to cluster runs (--zones or --scaling)");
    }
    if protocol.is_some() && zones.is_none() {
        fail("--protocol only applies to --zones runs (--scaling measures both itself)");
    }
    let mode = match protocol.as_deref() {
        None | Some("adaptive") => RoundMode::Adaptive,
        Some("classic") => RoundMode::Classic,
        Some(p) => fail(&format!(
            "--protocol must be classic or adaptive, got {p:?}"
        )),
    };
    if let Some(list) = &scaling {
        if list.is_empty() || list.contains(&0) {
            fail("--scaling needs a comma-separated list of worker counts >= 1");
        }
        if zones.is_some() {
            fail("--zones and --scaling are mutually exclusive");
        }
    }
    if let Some(p) = &report {
        if p.is_empty() {
            fail("--report needs a non-empty path");
        }
        if scaling.is_some() {
            fail("--report does not apply to --scaling runs");
        }
    }
    let cap = threads.unwrap_or(usize::MAX);

    if let Some(path) = &telemetry_jsonl {
        // Telemetry run: fixed capacity, export everything after the run.
        // Tracing rides with telemetry, so `--report` comes for free here.
        let schedule = CitySchedule::generate(&cfg);
        let (export, report_json) = match zones {
            Some(z) => {
                let c = run_city_cluster_schedule(&cfg, &schedule, z.min(cap), Some(1 << 20));
                let r = obs_report_json(&c);
                (c.merged_jsonl.expect("telemetry was enabled"), r)
            }
            None => {
                let (_stats, engine, obs) = run_city_schedule(&cfg, schedule, Some(1 << 20));
                let tel = engine.telemetry();
                let zr = obs.finish_report(0, engine.now().as_micros(), tel.overflow());
                (tel.export_jsonl(), Some(render_report(&[zr])))
            }
        };
        std::fs::write(path, export).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {path}");
        if let (Some(rp), Some(json)) = (&report, &report_json) {
            write_report(rp, json);
        }
        return;
    }

    let schedule = CitySchedule::generate(&cfg);
    eprintln!(
        "room_scale: {} rooms, {} member slots, {} events, schedule fnv {:#018x}",
        cfg.rooms,
        schedule.member_slots,
        schedule.events.len(),
        schedule.fnv()
    );

    if let Some(list) = scaling {
        // Reconstruct the workload flags so every child process builds the
        // identical CityConfig (and thus the identical schedule) we just
        // fingerprinted above.
        let mut workload: Vec<String> = Vec::new();
        if smoke {
            workload.push("--smoke".into());
        }
        workload.push("--seed".into());
        workload.push(seed.to_string());
        let opts: [(&str, Option<String>); 6] = [
            ("--rooms", rooms.map(|v| v.to_string())),
            ("--nodes", nodes.map(|v| v.to_string())),
            ("--writes", writes.map(|v| v.to_string())),
            ("--churn", churn.map(|v| v.to_string())),
            ("--city-zones", city_zones.map(|v| v.to_string())),
            ("--wan-ms", wan_ms.map(|v| v.to_string())),
        ];
        for (flag, v) in opts {
            if let Some(v) = v {
                workload.push(flag.into());
                workload.push(v);
            }
        }
        run_scaling(&cfg, &workload, &list, cap, runs, metrics, out);
        return;
    }

    if let Some(z) = zones {
        run_cluster_mode(
            &cfg,
            &schedule,
            z.min(cap),
            mode,
            runs,
            smoke,
            metrics,
            out,
            report.as_deref(),
        );
        return;
    }

    let (m, deterministic) = if smoke {
        // Determinism assertion: two identical runs must agree exactly.
        let a = measure_flat_schedule(&cfg, &schedule);
        let b = measure_flat_schedule(&cfg, &schedule);
        assert_eq!(
            a.stats.events_executed, b.stats.events_executed,
            "smoke runs diverged: engine event counts differ"
        );
        assert_eq!(
            a.stats.joins_ok, b.stats.joins_ok,
            "smoke runs diverged: joins"
        );
        assert_eq!(
            a.stats.osdus_delivered, b.stats.osdus_delivered,
            "smoke runs diverged: deliveries"
        );
        assert_eq!(
            a.stats.sim_ms, b.stats.sim_ms,
            "smoke runs diverged: sim time"
        );
        eprintln!(
            "smoke: deterministic ({} events both runs)",
            a.stats.events_executed
        );
        (if b.wall_ms < a.wall_ms { b } else { a }, Some(true))
    } else {
        (measure_best(&cfg, &schedule, runs), None)
    };

    assert_eq!(m.stats.joins_denied, 0, "city workload must admit everyone");

    // The report needs a traced run; the measured runs above stay
    // untraced so the timing numbers are the headline ones.
    let report_json = report.as_deref().map(|_| {
        let (_s, engine, obs) = run_city_schedule(&cfg, schedule.clone(), Some(1 << 20));
        let tel = engine.telemetry();
        let zr = obs.finish_report(0, engine.now().as_micros(), tel.overflow());
        render_report(&[zr])
    });

    if metrics {
        println!("events={}", m.stats.events_executed);
        println!("member_slots={}", m.stats.joins_ok);
        println!("sim_ms={}", m.stats.sim_ms);
        if let Some(r) = &report_json {
            println!("report_fnv={:#018x}", fnv1a64(r.as_bytes()));
        }
        println!("wall_ms={}", m.wall_ms);
        println!("wall_us={}", m.wall_us);
        println!("events_per_sec={:.0}", m.events_per_sec);
        println!("bytes_per_sec={:.0}", m.bytes_per_sec);
    }

    if let (Some(path), Some(json)) = (&report, &report_json) {
        write_report(path, json);
    }

    let notes = if smoke {
        "CI smoke config (~50 rooms); deterministic completion asserted by running the same seed twice and comparing event counts, admissions, deliveries and final sim time.".to_string()
    } else {
        format!(
            "Headline city workload: {} rooms / {} member slots over a {}-node star, best (min wall time) of {} run(s). Sustained events/sec = engine events executed / wall seconds; bytes/sec = media bytes written+delivered / wall seconds. See notes in this bench for the interleaved A/B methodology.",
            cfg.rooms, m.stats.joins_ok, cfg.nodes, runs
        )
    };
    write_json(out, &cfg, &m, deterministic, "", &notes);
}

/// `--zones Z`: one cluster point, with the per-zone rollup table.
#[allow(clippy::too_many_arguments)]
fn run_cluster_mode(
    cfg: &CityConfig,
    schedule: &CitySchedule,
    workers: usize,
    mode: RoundMode,
    runs: u32,
    smoke: bool,
    metrics: bool,
    out: Option<&str>,
    report: Option<&str>,
) {
    let (m, deterministic) = if smoke {
        // Smoke determinism covers the merged telemetry byte-for-byte,
        // and the rendered attribution report likewise.
        let a = measure_cluster_mode(cfg, schedule, workers, Some(1 << 18), mode);
        let b = measure_cluster_mode(cfg, schedule, workers, Some(1 << 18), mode);
        assert_eq!(
            a.stats.merged_jsonl, b.stats.merged_jsonl,
            "smoke cluster runs diverged: merged telemetry differs"
        );
        assert_eq!(
            obs_report_json(&a.stats),
            obs_report_json(&b.stats),
            "smoke cluster runs diverged: attribution report differs"
        );
        assert_eq!(
            a.stats.agg.sim_ms, b.stats.agg.sim_ms,
            "smoke cluster runs diverged: sim time"
        );
        eprintln!(
            "smoke: deterministic cluster run ({} events, {} rounds, merged telemetry identical)",
            a.stats.agg.events_executed, a.stats.rounds
        );
        (if b.wall_ms < a.wall_ms { b } else { a }, Some(true))
    } else {
        let mut best = measure_cluster_mode(cfg, schedule, workers, None, mode);
        for _ in 1..runs {
            let m = measure_cluster_mode(cfg, schedule, workers, None, mode);
            if m.wall_ms < best.wall_ms {
                best = m;
            }
        }
        (best, None)
    };
    let c = &m.stats;
    assert_eq!(c.agg.joins_denied, 0, "city workload must admit everyone");
    print_zone_table(c);

    // Smoke runs carry trace reports already; untraced timing runs do a
    // dedicated traced pass only when the report was asked for.
    let mut report_json = obs_report_json(c);
    if report_json.is_none() && report.is_some() {
        let traced = run_city_cluster_schedule(cfg, schedule, workers, Some(1 << 20));
        report_json = obs_report_json(&traced);
    }
    if let (Some(path), Some(json)) = (report, &report_json) {
        write_report(path, json);
    }

    if metrics {
        // Deterministic lines first (the CI zones-differential compares
        // them across worker counts), timing lines after.
        println!("events={}", c.agg.events_executed);
        println!("member_slots={}", c.agg.joins_ok);
        println!("sim_ms={}", c.agg.sim_ms);
        println!("rounds={}", c.rounds);
        println!("wan_msgs={}", c.wan_msgs);
        println!("wan_bytes={}", c.wan_bytes);
        if let Some(jsonl) = &c.merged_jsonl {
            println!("telemetry_fnv={:#018x}", fnv1a64(jsonl.as_bytes()));
        }
        if let Some(r) = &report_json {
            println!("report_fnv={:#018x}", fnv1a64(r.as_bytes()));
        }
        let traced: Vec<&ObsZoneReport> = c
            .per_zone
            .iter()
            .filter_map(|z| z.obs_report.as_ref())
            .collect();
        if !traced.is_empty() {
            println!(
                "breaches={}",
                traced.iter().map(|r| r.breaches_total).sum::<u64>()
            );
            println!(
                "telemetry_overflow={}",
                traced.iter().map(|r| r.telemetry_overflow).sum::<u64>()
            );
        }
        println!("workers={}", c.workers);
        println!("wall_ms={}", m.wall_ms);
        println!("wall_us={}", m.wall_us);
        println!("events_per_sec={:.0}", m.events_per_sec);
        println!("bytes_per_sec={:.0}", m.bytes_per_sec);
        println!("busy_us_total={}", c.worker_busy_us.iter().sum::<u64>());
        println!("critical_path_us={}", c.critical_path_us);
        println!("sync_us_total={}", c.worker_sync_us.iter().sum::<u64>());
        println!("envelopes_routed={}", c.envelopes_routed);
        println!("envelope_allocs={}", c.envelope_allocs);
    }

    let per_zone: Vec<String> = c
        .per_zone
        .iter()
        .map(|z| {
            let o = z.obs_report.as_ref();
            format!(
                "    {{\"zone\": {}, \"events\": {}, \"rooms_opened\": {}, \"rooms_active_peak\": {}, \"mirrors\": {}, \"joins\": {}, \"osdus_delivered\": {}, \"wan_out_msgs\": {}, \"wan_out_bytes\": {}, \"wan_dropped\": {}, \"spans\": {}, \"misses\": {}, \"breaches\": {}, \"telemetry_overflow\": {}}}",
                z.zone,
                z.stats.events_executed,
                z.stats.rooms_opened,
                z.rooms_active_peak,
                z.mirrors_opened,
                z.stats.joins_ok,
                z.stats.osdus_delivered,
                z.wan_out_msgs,
                z.wan_out_bytes,
                z.wan_dropped,
                o.map_or(0, |r| r.spans),
                o.map_or(0, |r| r.misses),
                o.map_or(0, |r| r.breaches_total),
                o.map_or(0, |r| r.telemetry_overflow)
            )
        })
        .collect();
    let extra = format!(
        "\n  \"cluster\": {{\n    \"workers\": {},\n    \"zones\": {},\n    \"rounds\": {},\n    \"wan_msgs\": {},\n    \"wan_bytes\": {},\n    \"busy_us_total\": {},\n    \"critical_path_us\": {},\n    \"sync_us_total\": {},\n    \"envelopes_routed\": {},\n    \"envelope_allocs\": {},\n    \"per_zone\": [\n{}\n    ]\n  }},",
        c.workers,
        c.per_zone.len(),
        c.rounds,
        c.wan_msgs,
        c.wan_bytes,
        c.worker_busy_us.iter().sum::<u64>(),
        c.critical_path_us,
        c.worker_sync_us.iter().sum::<u64>(),
        c.envelopes_routed,
        c.envelope_allocs,
        per_zone.join(",\n"),
    );
    let flat = Measured {
        stats: c.agg.clone(),
        wall_ms: m.wall_ms,
        wall_us: m.wall_us,
        events_per_sec: m.events_per_sec,
        bytes_per_sec: m.bytes_per_sec,
    };
    let notes = format!(
        "Zone-sharded city run: {} logical zones on {} worker thread(s), conservative barrier ticks with {} ms wide-area lookahead. Counters are summed across zones; per-zone rows in the cluster block.",
        c.per_zone.len(),
        c.workers,
        cfg.wan_latency_ms
    );
    write_json(out, cfg, &flat, deterministic, &extra, &notes);
}

/// `--scaling`: flat baseline and each worker count, interleaved min-of-N,
/// every point in a fresh child process.
///
/// The flat baseline replays the *identical pre-generated schedule* the
/// cluster points use (schedule generation excluded on both sides), so
/// `overhead_vs_flat_percent` — sharded one-worker busy time over flat
/// wall time, minus one — is an apples-to-apples sharding tax. A
/// classic-protocol one-worker point rides along each pass to report
/// `rounds_reduction` (classic barrier rounds / adaptive rounds).
fn run_scaling(
    cfg: &CityConfig,
    workload: &[String],
    list: &[usize],
    cap: usize,
    runs: u32,
    metrics: bool,
    out: Option<&str>,
) {
    let mut baseline: Option<Point> = None;
    let mut classic_w1: Option<Point> = None;
    let mut extra_w1: Option<Point> = None;
    let need_extra_w1 = !list.contains(&1);
    let mut curve: Vec<(usize, Option<Point>)> = list.iter().map(|&w| (w, None)).collect();
    let keep_min = |best: &mut Option<Point>, p: Point| {
        if best.as_ref().is_none_or(|b| p.wall_us < b.wall_us) {
            *best = Some(p);
        }
    };
    for run in 0..runs {
        eprintln!(
            "scaling: interleaved pass {}/{} (each point in a fresh process)",
            run + 1,
            runs
        );
        let p = bench_child(workload, &[]);
        eprintln!("  flat: {} ms", p.wall_ms);
        keep_min(&mut baseline, p);
        let p = bench_child(workload, &["--zones", "1", "--protocol", "classic"]);
        eprintln!("  classic w1: {} ms ({} rounds)", p.wall_ms, p.rounds);
        keep_min(&mut classic_w1, p);
        if need_extra_w1 {
            let p = bench_child(workload, &["--zones", "1"]);
            eprintln!("  adaptive w1: {} ms ({} rounds)", p.wall_ms, p.rounds);
            keep_min(&mut extra_w1, p);
        }
        for (w, best) in curve.iter_mut() {
            let z = (*w).min(cap).to_string();
            let p = bench_child(workload, &["--zones", &z]);
            eprintln!("  adaptive w{w}: {} ms ({} rounds)", p.wall_ms, p.rounds);
            keep_min(best, p);
        }
    }
    let baseline = baseline.expect("runs >= 1");
    let classic_w1 = classic_w1.expect("runs >= 1");
    let curve: Vec<(usize, Point)> = curve
        .into_iter()
        .map(|(w, p)| (w, p.expect("runs >= 1")))
        .collect();
    let adaptive_w1 = curve
        .iter()
        .find(|(w, _)| *w == 1)
        .map(|(_, p)| p)
        .or(extra_w1.as_ref())
        .expect("an adaptive one-worker point is always measured");

    let overhead_vs_flat_percent =
        (adaptive_w1.busy_us_total as f64 / baseline.wall_us.max(1) as f64 - 1.0) * 100.0;
    let rounds_reduction = classic_w1.rounds as f64 / adaptive_w1.rounds.max(1) as f64;

    eprintln!(
        "{:>8} {:>9} {:>9} {:>7} {:>12} {:>10} {:>17} {:>14}",
        "workers",
        "wall_ms",
        "speedup",
        "rounds",
        "busy_us",
        "sync_us",
        "critical_path_us",
        "parallel_bound"
    );
    eprintln!(
        "{:>8} {:>9} {:>9.3} {:>7} {:>12} {:>10} {:>17} {:>14}",
        "flat", baseline.wall_ms, 1.0, "-", "-", "-", "-", "-"
    );
    for (w, p) in &curve {
        eprintln!(
            "{:>8} {:>9} {:>9.3} {:>7} {:>12} {:>10} {:>17} {:>14.3}",
            w,
            p.wall_ms,
            baseline.wall_us as f64 / p.wall_us.max(1) as f64,
            p.rounds,
            p.busy_us_total,
            p.sync_us_total,
            p.critical_path_us,
            p.busy_us_total as f64 / p.critical_path_us.max(1) as f64,
        );
    }
    eprintln!(
        "sharding tax (w1 busy vs flat wall): {overhead_vs_flat_percent:+.1}%; \
barrier rounds: classic {} -> adaptive {} ({rounds_reduction:.1}x)",
        classic_w1.rounds, adaptive_w1.rounds
    );

    if metrics {
        println!("flat_wall_ms={}", baseline.wall_ms);
        println!("overhead_vs_flat_percent={overhead_vs_flat_percent:.2}");
        println!("classic_rounds_w1={}", classic_w1.rounds);
        println!("adaptive_rounds_w1={}", adaptive_w1.rounds);
        println!("rounds_reduction={rounds_reduction:.2}");
        for (w, p) in &curve {
            println!("wall_ms_w{w}={}", p.wall_ms);
            println!("rounds_w{w}={}", p.rounds);
            println!("busy_us_w{w}={}", p.busy_us_total);
            println!("sync_us_w{w}={}", p.sync_us_total);
            println!("critical_path_us_w{w}={}", p.critical_path_us);
        }
    }

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let notes = format!(
        "Scaling curve: flat single-engine baseline vs the zone-sharded cluster at each worker count, interleaved min-of-{} on a {}-core host, all points replaying the identical pre-generated schedule, each point measured in a fresh child process so one run's heap cannot skew the next. wall_ms/speedup_vs_flat are measured wall clock; parallel_speedup_bound = total shard busy time / critical path (the per-round max over workers, summed) — the speedup the same run reaches once every worker has its own core. On a {}-core host measured speedup saturates at the core count; the bound is the hardware-independent number. overhead_vs_flat_percent = (one-worker busy time / flat wall time - 1) * 100, the residual sharding tax under adaptive windows; rounds_reduction compares classic fixed-lookahead barrier rounds to adaptive rounds on the same one-worker run.",
        runs, cores, cores
    );
    write_scaling_json(
        out,
        cfg,
        &baseline,
        &curve,
        runs,
        cores,
        overhead_vs_flat_percent,
        &classic_w1,
        adaptive_w1.rounds,
        rounds_reduction,
        &notes,
    );
}
