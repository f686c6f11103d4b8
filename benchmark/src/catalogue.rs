//! The fixed names: six workloads, ten end-to-end metrics and the
//! per-layer metrics. Later issues cite these names; `BENCHMARK.json` and
//! `README.md` repeat them and a unit test keeps all three in step.

use std::fmt;

/// One set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    CityFlat,
    CitySharded,
    CityTraced,
    FanoutMedia,
    FilmSync,
    ChaosHeal,
}

use Workload::*;

impl Workload {
    pub const ALL: [Workload; 6] = [
        CityFlat,
        CitySharded,
        CityTraced,
        FanoutMedia,
        FilmSync,
        ChaosHeal,
    ];

    pub fn name(self) -> &'static str {
        match self {
            CityFlat => "city_flat",
            CitySharded => "city_sharded",
            CityTraced => "city_traced",
            FanoutMedia => "fanout_media",
            FilmSync => "film_sync",
            ChaosHeal => "chaos_heal",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload was chosen (one line, also in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            CityFlat => "10k-room city replayed on one engine: control-plane churn (join, admission, graft/prune), media light",
            CitySharded => "the same city on 8 zones / 2 worker threads: cm-cluster rounds, sync wait and cross-zone mirrors",
            CityTraced => "city_flat with telemetry and cm-obs on, then report render and JSONL export: the cost of always-on tracing",
            FanoutMedia => "4 rooms x 64 receivers streaming audio and video for 60 sim-s: data-plane steady state, membership idle",
            FilmSync => "8 drifting audio+video films under lip-sync orchestration for 30 sim-min: orchestration over unicast VCs",
            ChaosHeal => "the fan-out world dual-homed under >= 120 seeded faults in 10 sim-min: the repair path",
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which clock a metric is read from. Host metrics are medians over
/// samples; sim metrics and counts must repeat exactly across samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Base {
    /// Wall clock or memory of the machine running the simulator.
    Host,
    /// The simulated service's own clock.
    Sim,
    /// A count of work done.
    Count,
}

impl Base {
    pub fn name(self) -> &'static str {
        match self {
            Base::Host => "host",
            Base::Sim => "sim",
            Base::Count => "count",
        }
    }
}

/// How far an end-to-end metric's median may worsen before the change
/// counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Share of the first median.
    Rel(f64),
    /// Absolute increase (for ratios whose healthy value is zero).
    Abs(f64),
}

impl Bound {
    /// Whether `second` is within the bound of `first` (lower is better
    /// for every end-to-end metric).
    pub fn holds(self, first: f64, second: f64) -> bool {
        match self {
            Bound::Rel(r) => second <= first * (1.0 + r),
            Bound::Abs(a) => second <= first + a,
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::Rel(r) => write!(f, "+{}%", (r * 1000.0).round() / 10.0),
            Bound::Abs(a) => write!(f, "+{a} abs"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    EndToEnd(Bound),
    PerLayer,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub base: Base,
    pub better: Better,
    pub kind: Kind,
    /// Workloads the metric is defined on.
    pub on: &'static [Workload],
    /// Read from the program's telemetry or the benchmark's spans, so only
    /// a traced sample has it (or `city_traced`, whose program tracing is
    /// the workload).
    pub traced_only: bool,
}

impl Metric {
    pub fn applies_to(&self, w: Workload) -> bool {
        self.on.contains(&w)
    }

    pub fn end_to_end_bound(&self) -> Option<Bound> {
        match self.kind {
            Kind::EndToEnd(b) => Some(b),
            Kind::PerLayer => None,
        }
    }
}

const EVERY: &[Workload] = &Workload::ALL;
const CITY: &[Workload] = &[CityFlat, CitySharded, CityTraced];
const DRIVEN: &[Workload] = &[FanoutMedia, FilmSync, ChaosHeal];
const ROOMS: &[Workload] = &[FanoutMedia, ChaosHeal];
const OBS: &[Workload] = &[CityTraced, FanoutMedia, FilmSync, ChaosHeal];
/// Where the program's own counters can be read back after a traced
/// sample: everywhere but the sharded city, whose zone engines live and
/// die inside the executor.
const COUNTERS: &[Workload] = &[CityFlat, CityTraced, FanoutMedia, FilmSync, ChaosHeal];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    base: Base,
    bound: Bound,
    on: &'static [Workload],
) -> Metric {
    Metric {
        name,
        unit,
        base,
        better: Better::Lower,
        kind: Kind::EndToEnd(bound),
        on,
        traced_only: false,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    base: Base,
    better: Better,
    on: &'static [Workload],
) -> Metric {
    Metric {
        name,
        unit,
        base,
        better,
        kind: Kind::PerLayer,
        on,
        traced_only: false,
    }
}

const fn traced(
    name: &'static str,
    unit: &'static str,
    base: Base,
    better: Better,
    on: &'static [Workload],
) -> Metric {
    Metric {
        name,
        unit,
        base,
        better,
        kind: Kind::PerLayer,
        on,
        traced_only: true,
    }
}

use Base::{Count, Host, Sim};
use Better::{Higher, Lower};

/// Every metric the benchmark prints, end-to-end first.
pub const METRICS: &[Metric] = &[
    // ---- end to end -------------------------------------------------
    e2e("wall_s", "s", Host, Bound::Rel(0.08), EVERY),
    e2e("setup_s", "s", Host, Bound::Rel(0.10), EVERY),
    e2e("peak_rss_mb", "MB", Host, Bound::Rel(0.09), EVERY),
    e2e("osdu_latency_p50_ms", "ms", Sim, Bound::Rel(0.01), DRIVEN),
    e2e("osdu_latency_p99_ms", "ms", Sim, Bound::Rel(0.01), DRIVEN),
    e2e("deadline_miss_ratio", "ratio", Sim, Bound::Abs(0.001), OBS),
    e2e("skew_p99_ms", "ms", Sim, Bound::Rel(0.01), &[FilmSync]),
    e2e("outage_p50_ms", "ms", Sim, Bound::Rel(0.01), &[ChaosHeal]),
    e2e("outage_p90_ms", "ms", Sim, Bound::Rel(0.01), &[ChaosHeal]),
    e2e("failed_ops_ratio", "ratio", Count, Bound::Abs(0.001), EVERY),
    // ---- netsim -----------------------------------------------------
    layer("netsim.engine.events", "count", Count, Lower, EVERY),
    layer("netsim.engine.ns_per_event", "ns", Host, Lower, EVERY),
    traced("netsim.engine.drain_self_s", "s", Host, Lower, DRIVEN),
    traced("netsim.net.delivered", "count", Count, Higher, COUNTERS),
    traced("netsim.net.dropped", "count", Count, Lower, COUNTERS),
    traced("netsim.net.pkt_latency_p99_us", "us", Sim, Lower, COUNTERS),
    // ---- cm-transport -----------------------------------------------
    layer(
        "cm-transport.write_osdu.calls",
        "count",
        Count,
        Lower,
        &[CityFlat, CitySharded, CityTraced, FanoutMedia, ChaosHeal],
    ),
    traced("cm-transport.write_osdu.self_s", "s", Host, Lower, ROOMS),
    layer(
        "cm-transport.write_osdu.backpressure_ratio",
        "ratio",
        Count,
        Lower,
        ROOMS,
    ),
    traced(
        "cm-transport.connect.calls",
        "count",
        Count,
        Lower,
        COUNTERS,
    ),
    layer(
        "cm-transport.connect.sim_ms_p50",
        "ms",
        Sim,
        Lower,
        &[FilmSync],
    ),
    traced(
        "cm-transport.credit_stalls",
        "count",
        Count,
        Lower,
        COUNTERS,
    ),
    traced("cm-transport.credit_stall_ms", "ms", Sim, Lower, COUNTERS),
    traced("cm-transport.rto", "count", Count, Lower, COUNTERS),
    traced(
        "cm-transport.qos_violations",
        "count",
        Count,
        Lower,
        COUNTERS,
    ),
    traced("cm-transport.admits", "count", Count, Higher, COUNTERS),
    traced("cm-transport.rejects", "count", Count, Lower, COUNTERS),
    traced("cm-transport.heal.repairs", "count", Count, Lower, COUNTERS),
    traced("cm-transport.heal.giveups", "count", Count, Lower, COUNTERS),
    traced(
        "cm-transport.heal.repair_ms_p50",
        "ms",
        Sim,
        Lower,
        &[ChaosHeal],
    ),
    // ---- cm-session -------------------------------------------------
    layer("cm-session.join.calls", "count", Count, Lower, EVERY),
    traced("cm-session.join.self_s", "s", Host, Lower, ROOMS),
    layer("cm-session.join.sim_ms_p50", "ms", Sim, Lower, ROOMS),
    layer("cm-session.join.sim_ms_p99", "ms", Sim, Lower, ROOMS),
    traced("cm-session.publish.self_s", "s", Host, Lower, ROOMS),
    traced("cm-session.leave.self_s", "s", Host, Lower, ROOMS),
    layer("cm-session.on_media.calls", "count", Count, Higher, EVERY),
    traced("cm-session.on_media.self_s", "s", Host, Lower, ROOMS),
    layer("cm-session.health.degraded", "count", Count, Lower, DRIVEN),
    layer("cm-session.health.recovered", "count", Count, Lower, DRIVEN),
    layer(
        "cm-session.health.member_lost",
        "count",
        Count,
        Lower,
        DRIVEN,
    ),
    // ---- cm-orchestration -------------------------------------------
    traced(
        "cm-orchestration.orchestrate.self_s",
        "s",
        Host,
        Lower,
        &[FilmSync],
    ),
    layer(
        "cm-orchestration.start_sim_ms",
        "ms",
        Sim,
        Lower,
        &[FilmSync],
    ),
    layer(
        "cm-orchestration.regulate.count",
        "count",
        Count,
        Lower,
        &[FilmSync],
    ),
    traced(
        "cm-orchestration.harvest.count",
        "count",
        Count,
        Lower,
        COUNTERS,
    ),
    traced("cm-orchestration.hlo_miss", "count", Count, Lower, COUNTERS),
    traced(
        "cm-orchestration.hlo_escalate",
        "count",
        Count,
        Lower,
        COUNTERS,
    ),
    traced("cm-orchestration.reelect", "count", Count, Lower, COUNTERS),
    // ---- cm-media ---------------------------------------------------
    layer("cm-media.produced", "count", Count, Higher, &[FilmSync]),
    layer("cm-media.presented", "count", Count, Higher, &[FilmSync]),
    // ---- cm-platform ------------------------------------------------
    traced("cm-platform.install.self_s", "s", Host, Lower, ROOMS),
    // ---- cm-cluster (city_sharded only) -----------------------------
    layer("cm-cluster.rounds", "count", Count, Lower, &[CitySharded]),
    layer("cm-cluster.busy_s", "s", Host, Lower, &[CitySharded]),
    layer("cm-cluster.sync_s", "s", Host, Lower, &[CitySharded]),
    layer(
        "cm-cluster.sync_share",
        "ratio",
        Host,
        Lower,
        &[CitySharded],
    ),
    layer(
        "cm-cluster.critical_path_s",
        "s",
        Host,
        Lower,
        &[CitySharded],
    ),
    layer(
        "cm-cluster.speedup_bound",
        "ratio",
        Host,
        Higher,
        &[CitySharded],
    ),
    layer("cm-cluster.wan_msgs", "count", Count, Lower, &[CitySharded]),
    layer("cm-cluster.wan_bytes", "B", Count, Lower, &[CitySharded]),
    layer(
        "cm-cluster.wan_dropped",
        "count",
        Count,
        Lower,
        &[CitySharded],
    ),
    // Buffer growth depends on how the two workers interleave: a count, but
    // not one that repeats, so it is aggregated like a host metric.
    layer(
        "cm-cluster.envelope_allocs",
        "count",
        Host,
        Lower,
        &[CitySharded],
    ),
    // ---- cm-telemetry / cm-obs --------------------------------------
    traced("cm-telemetry.events", "count", Count, Lower, COUNTERS),
    traced("cm-telemetry.overflow", "count", Count, Lower, EVERY),
    traced("cm-telemetry.export_s", "s", Host, Lower, COUNTERS),
    traced("cm-obs.spans", "count", Count, Higher, EVERY),
    traced("cm-obs.open_spans", "count", Count, Lower, EVERY),
    traced("cm-obs.render_s", "s", Host, Lower, COUNTERS),
    traced("cm-obs.overhead_pct", "%", Host, Lower, &[CityTraced]),
    traced("cm-obs.seg.pacing.share", "ratio", Sim, Lower, EVERY),
    traced("cm-obs.seg.credit_stall.share", "ratio", Sim, Lower, EVERY),
    traced("cm-obs.seg.queueing.share", "ratio", Sim, Lower, EVERY),
    traced("cm-obs.seg.propagation.share", "ratio", Sim, Lower, EVERY),
    traced("cm-obs.seg.repair.share", "ratio", Sim, Lower, EVERY),
    traced("cm-obs.seg.mirror_relay.share", "ratio", Sim, Lower, EVERY),
    traced("cm-obs.seg.playout_hold.share", "ratio", Sim, Lower, EVERY),
    // ---- cm-testkit -------------------------------------------------
    layer("cm-testkit.schedule_gen_s", "s", Host, Lower, CITY),
    traced(
        "cm-testkit.zone_partition_s",
        "s",
        Host,
        Lower,
        &[CitySharded],
    ),
    layer("cm-testkit.schedule_events", "count", Count, Lower, CITY),
    // ---- cm-chaos ---------------------------------------------------
    layer("cm-chaos.injected", "count", Count, Higher, &[ChaosHeal]),
    layer("cm-chaos.healed", "count", Count, Higher, &[ChaosHeal]),
    // ---- cm-bench ---------------------------------------------------
    layer(
        "cm-bench.city_run.replay_s",
        "s",
        Host,
        Lower,
        &[CityFlat, CityTraced],
    ),
    layer(
        "cm-bench.city_zone.replay_s",
        "s",
        Host,
        Lower,
        &[CitySharded],
    ),
    // ---- the benchmark itself ---------------------------------------
    traced("bench.span_overhead_pct", "%", Host, Lower, EVERY),
];

pub fn metric(name: &str) -> Option<&'static Metric> {
    METRICS.iter().find(|m| m.name == name)
}
