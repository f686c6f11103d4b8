//! The six workloads. Each module builds its inputs from the seed, runs
//! the program through public functions only, checks its outputs and
//! fills in a [`Report`].

pub mod city;
pub mod film;
pub mod rooms;

use crate::catalogue::Workload;
use crate::sample::{Phases, Report, SampleSpec};
use crate::spans;
use cm_obs::{render_report, ObsZoneReport, SegClass};
use cm_telemetry::Telemetry;
use std::time::Instant;

/// Run the sample `spec` describes.
pub fn run(spec: &SampleSpec, phases: &mut Phases, rep: &mut Report) {
    match spec.workload {
        Workload::CityFlat | Workload::CitySharded | Workload::CityTraced => {
            city::run(spec, phases, rep)
        }
        Workload::FanoutMedia | Workload::ChaosHeal => rooms::run(spec, phases, rep),
        Workload::FilmSync => film::run(spec, phases, rep),
    }
}

/// 64-bit FNV-1a, for printing fingerprints of reports.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The program's own counters, read after a traced sample. A workload
/// with several engines (one per film) adds each engine's telemetry.
#[derive(Default)]
pub struct ProgramCounters {
    events: u64,
    overflow: u64,
    delivered: u64,
    dropped: u64,
    pkt_latency_p99_us: u64,
    admits: u64,
    rejects: u64,
    credit_stalls: u64,
    credit_stall_us: f64,
    rto: u64,
    qos_violations: u64,
    heal_repairs: u64,
    heal_giveups: u64,
    heal_repair_p50_us: u64,
    harvests: u64,
    hlo_miss: u64,
    hlo_escalate: u64,
    reelect: u64,
}

impl ProgramCounters {
    fn add(&mut self, tel: &Telemetry) {
        self.events += tel.event_count() as u64;
        self.overflow += tel.overflow();
        self.delivered += tel.counter("net.pkt.delivered");
        self.dropped += tel.counter("net.pkt.drop");
        // Histograms cannot be merged from outside; across engines the
        // worst engine's percentile is reported.
        let p = |name: &str, p: f64| tel.histogram(name).map_or(0, |h| h.percentile(p));
        self.pkt_latency_p99_us = self.pkt_latency_p99_us.max(p("net.pkt.latency_us", 99.0));
        self.admits += tel.counter("vc.connect.admit");
        self.rejects += tel.counter("vc.connect.reject");
        self.credit_stalls += tel.counter("vc.credit.stall");
        self.credit_stall_us += tel
            .histogram("vc.credit.stall_us")
            .map_or(0.0, |h| h.mean() * h.count() as f64);
        self.rto += tel.counter("vc.rto");
        self.qos_violations += tel.counter("vc.qos.violation");
        self.heal_repairs += tel.histogram("vc.heal.repair_us").map_or(0, |h| h.count());
        self.heal_giveups += tel.counter("vc.heal.giveup");
        self.heal_repair_p50_us = self.heal_repair_p50_us.max(p("vc.heal.repair_us", 50.0));
        // `llo.harvest` is an instant, not a counter: it is counted from
        // the event ring, so it saturates once the ring overflows.
        self.harvests += tel
            .events()
            .iter()
            .filter(|e| e.name == "llo.harvest")
            .count() as u64;
        self.hlo_miss += tel.counter("hlo.miss");
        self.hlo_escalate += tel.counter("hlo.escalate");
        self.reelect += tel.counter("hlo.reelect");
    }

    fn report(&self, rep: &mut Report) {
        rep.set("cm-telemetry.events", self.events as f64);
        rep.set("cm-telemetry.overflow", self.overflow as f64);
        rep.set("netsim.net.delivered", self.delivered as f64);
        rep.set("netsim.net.dropped", self.dropped as f64);
        rep.set(
            "netsim.net.pkt_latency_p99_us",
            self.pkt_latency_p99_us as f64,
        );
        rep.set(
            "cm-transport.connect.calls",
            (self.admits + self.rejects) as f64,
        );
        rep.set("cm-transport.admits", self.admits as f64);
        rep.set("cm-transport.rejects", self.rejects as f64);
        rep.set("cm-transport.credit_stalls", self.credit_stalls as f64);
        rep.set("cm-transport.credit_stall_ms", self.credit_stall_us / 1e3);
        rep.set("cm-transport.rto", self.rto as f64);
        rep.set("cm-transport.qos_violations", self.qos_violations as f64);
        rep.set("cm-transport.heal.repairs", self.heal_repairs as f64);
        rep.set("cm-transport.heal.giveups", self.heal_giveups as f64);
        rep.set("cm-orchestration.harvest.count", self.harvests as f64);
        rep.set("cm-orchestration.hlo_miss", self.hlo_miss as f64);
        rep.set("cm-orchestration.hlo_escalate", self.hlo_escalate as f64);
        rep.set("cm-orchestration.reelect", self.reelect as f64);
    }

    pub fn heal_repair_ms_p50(&self) -> f64 {
        self.heal_repair_p50_us as f64 / 1e3
    }
}

/// What a traced sample reads back from the program's own tracing: its
/// counters (summed over `engines`) and the cm-obs attribution.
pub fn report_program_tracing(
    rep: &mut Report,
    zones: &[ObsZoneReport],
    engines: &[&Telemetry],
) -> ProgramCounters {
    let mut counters = ProgramCounters::default();
    for tel in engines {
        counters.add(tel);
    }
    counters.report(rep);
    report_obs(rep, zones);
    counters
}

/// Render the attribution report and export every engine's events, each
/// timed: what using the program's tracing costs once the run is over.
pub fn render_and_export(rep: &mut Report, zones: &[ObsZoneReport], engines: &[&Telemetry]) {
    let t = Instant::now();
    let report = spans::within("cm-obs.render_report", || render_report(zones));
    rep.set("cm-obs.render_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let exported: usize = spans::within("cm-telemetry.export_jsonl", || {
        engines.iter().map(|tel| tel.export_jsonl().len()).sum()
    });
    rep.set("cm-telemetry.export_s", t.elapsed().as_secs_f64());
    rep.note("report_fnv", format!("{:#018x}", fnv64(report.as_bytes())));
    rep.note("export_bytes", exported);
}

/// cm-obs totals and the share of all attributed OSDU time each segment
/// class owns, summed over `zones`.
pub fn report_obs(rep: &mut Report, zones: &[ObsZoneReport]) {
    let spans: u64 = zones.iter().map(|z| z.spans).sum();
    let open: u64 = zones.iter().map(|z| z.open_spans).sum();
    rep.set("cm-obs.spans", spans as f64);
    rep.set("cm-obs.open_spans", open as f64);
    let streams = || zones.iter().flat_map(|z| z.streams.iter());
    let total_us: u64 = streams().map(|s| s.total.sum_us).sum();
    for (i, class) in SegClass::ALL.iter().enumerate() {
        let class_us: u64 = streams().map(|s| s.segs[i].sum_us).sum();
        let share = if total_us == 0 {
            0.0
        } else {
            class_us as f64 / total_us as f64
        };
        rep.set(&format!("cm-obs.seg.{}.share", class.slug()), share);
    }
}
