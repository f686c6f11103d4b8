//! The parent side: starts sample processes strictly one at a time,
//! aggregates their reports and prints the result.
//!
//! A fresh process per sample is required, not a convenience: the city
//! world is never freed (a known Rc cycle), so a second replay in one
//! process runs against a fragmented 250 MB heap and takes nearly twice as
//! long as the first.

use crate::catalogue::{self, Base, Metric, Workload};
use crate::json::Json;
use crate::sample::{Report, SampleSpec};
use crate::stats;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Warm-up samples discarded before a workload's samples are taken.
pub const WARMUPS: usize = 1;
/// Samples per workload in `run`.
pub const SAMPLES: usize = 7;

/// Run one sample in a child process and parse the line it prints.
pub fn spawn(spec: &SampleSpec) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("sample")
        .arg(spec.workload.name())
        .arg("--seed")
        .arg(spec.seed.to_string());
    if spec.traced {
        cmd.arg("--traced");
    }
    if spec.smoke {
        cmd.arg("--smoke");
    }
    if let Some(path) = &spec.trace_file {
        cmd.arg("--trace-file").arg(path);
    }
    // The parent blocks here: nothing of ours runs beside the sample.
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start sample {}: {e}", spec.workload))?;
    if !out.status.success() {
        return Err(format!(
            "sample {} seed {} exited with {}",
            spec.workload, spec.seed, out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("sample {} printed nothing", spec.workload))?;
    Report::from_json_line(line).map_err(|e| format!("sample {}: {e}", spec.workload))
}

/// How many samples to take.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Exactly this many.
    Samples(usize),
    /// As many as start within this many seconds, at least three.
    Seconds(f64),
}

/// One metric over a workload's samples.
#[derive(Debug, Clone)]
pub struct Aggregated {
    pub metric: &'static Metric,
    /// Median of the samples (host metrics) or the repeated value.
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Aggregated {
    /// A value that is not a median: one reading, or one that repeated
    /// exactly in `n` samples.
    fn single(metric: &'static Metric, value: f64, n: usize) -> Aggregated {
        Aggregated {
            metric,
            value,
            q1: value,
            q3: value,
            n,
        }
    }
}

/// A workload's result: untraced samples aggregated, plus (optionally)
/// the per-layer metrics only a traced sample can read.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    pub workload: Workload,
    pub metrics: Vec<Aggregated>,
    /// Failed output checks and non-repeating counts, one line each.
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub info: Vec<(String, String)>,
}

impl WorkloadResult {
    pub fn get(&self, name: &str) -> Option<&Aggregated> {
        self.metrics.iter().find(|m| m.metric.name == name)
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let metric = catalogue::metric(name).unwrap_or_else(|| panic!("unknown metric {name}"));
        let agg = Aggregated::single(metric, value, 1);
        match self.metrics.iter_mut().find(|m| m.metric.name == name) {
            Some(slot) => *slot = agg,
            None => {
                self.metrics.push(agg);
                self.sort();
            }
        }
    }

    /// Catalogue order: end-to-end first, then layer by layer.
    fn sort(&mut self) {
        let rank = |m: &Aggregated| {
            catalogue::METRICS
                .iter()
                .position(|c| c.name == m.metric.name)
        };
        self.metrics.sort_by_key(rank);
    }
}

/// Take `budget` untraced samples of `workload` after the warm-up and
/// aggregate them. Host-time metrics become medians with quartiles;
/// sim-time metrics and counts must be identical in every sample.
pub fn measure(
    workload: Workload,
    seed: u64,
    smoke: bool,
    warmups: usize,
    budget: Budget,
) -> Result<WorkloadResult, String> {
    let spec = SampleSpec {
        workload,
        seed,
        traced: false,
        smoke,
        trace_file: None,
    };
    for _ in 0..warmups {
        spawn(&spec)?;
    }
    let started = Instant::now();
    let mut reports = Vec::new();
    loop {
        let enough = match budget {
            Budget::Samples(n) => reports.len() >= n,
            Budget::Seconds(s) => reports.len() >= 3 && started.elapsed().as_secs_f64() >= s,
        };
        if enough {
            break;
        }
        reports.push(spawn(&spec)?);
    }
    Ok(aggregate(workload, &reports))
}

fn aggregate(workload: Workload, reports: &[Report]) -> WorkloadResult {
    let first = &reports[0];
    let mut result = WorkloadResult {
        workload,
        metrics: Vec::new(),
        failures: Vec::new(),
        attempted: first.attempted,
        failed: first.failed,
        info: first.info.clone(),
    };
    for (name, _) in &first.metrics {
        let Some(metric) = catalogue::metric(name) else {
            result
                .failures
                .push(format!("sample printed unknown metric {name}"));
            continue;
        };
        let values: Vec<f64> = reports.iter().filter_map(|r| r.get(name)).collect();
        if values.len() != reports.len() {
            result
                .failures
                .push(format!("{name}: missing from some samples"));
        }
        if metric.base == Base::Host {
            let (q1, value, q3) = stats::quartiles(&values);
            result.metrics.push(Aggregated {
                metric,
                value,
                q1,
                q3,
                n: values.len(),
            });
        } else {
            if values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
                result.failures.push(format!(
                    "{name}: {} metric differs between samples of one seed: {values:?}",
                    metric.base.name()
                ));
            }
            result
                .metrics
                .push(Aggregated::single(metric, values[0], values.len()));
        }
    }
    for (i, r) in reports.iter().enumerate() {
        for c in r.checks.iter().filter(|c| !c.ok) {
            let line = format!("check failed: {} ({})", c.name, c.detail);
            if !result.failures.contains(&line) {
                result.failures.push(line);
            }
        }
        if (r.attempted, r.failed) != (first.attempted, first.failed) {
            result.failures.push(format!(
                "attempted/failed differ between samples: {}/{} vs {}/{} (sample {i})",
                r.failed, r.attempted, first.failed, first.attempted
            ));
        }
        // Fingerprints (schedule, report) must repeat too.
        for (k, v) in r.info.iter().filter(|(k, _)| k.ends_with("_fnv")) {
            if first.info.iter().any(|(fk, fv)| fk == k && fv != v) {
                result
                    .failures
                    .push(format!("{k} differs between samples: {v}"));
            }
        }
    }
    result.sort();
    result
}

/// Run the traced sample of `result`'s workload and fold in the metrics
/// only it can read. `base_wall_s` is the untraced wall time the span
/// overhead is measured against.
pub fn add_traced(
    result: &mut WorkloadResult,
    seed: u64,
    smoke: bool,
    base_wall_s: f64,
    trace_file: Option<String>,
) -> Result<(), String> {
    let spec = SampleSpec {
        workload: result.workload,
        seed,
        traced: true,
        smoke,
        trace_file,
    };
    let traced = spawn(&spec)?;
    for (name, value) in &traced.metrics {
        let Some(metric) = catalogue::metric(name) else {
            result
                .failures
                .push(format!("traced sample printed unknown metric {name}"));
            continue;
        };
        match result.get(name) {
            None => result.set(name, *value),
            // Counts and sim times must not depend on whether the
            // benchmark's spans or the program's tracing are on.
            Some(untraced) if metric.base != Base::Host && !metric.traced_only => {
                if untraced.value.to_bits() != value.to_bits() {
                    result.failures.push(format!(
                        "{name}: traced sample reads {value}, untraced samples read {}",
                        untraced.value
                    ));
                }
            }
            Some(_) => {}
        }
    }
    if let Some(wall) = traced.get("wall_s") {
        result.set(
            "bench.span_overhead_pct",
            (wall / base_wall_s - 1.0) * 100.0,
        );
    }
    for c in traced.checks.iter().filter(|c| !c.ok) {
        result.failures.push(format!(
            "check failed in traced sample: {} ({})",
            c.name, c.detail
        ));
    }
    for (k, v) in traced.info {
        if !result.info.iter().any(|(rk, _)| *rk == k) {
            result.info.push((k, v));
        }
    }
    Ok(())
}

/// A whole run: every workload, in catalogue order.
pub struct RunResult {
    pub seed: u64,
    pub smoke: bool,
    pub workloads: Vec<WorkloadResult>,
}

impl RunResult {
    pub fn ok(&self) -> bool {
        self.workloads.iter().all(|w| w.failures.is_empty())
    }

    pub fn workload(&self, w: Workload) -> Option<&WorkloadResult> {
        self.workloads.iter().find(|r| r.workload == w)
    }
}

/// Every workload: `warmups` discarded samples, `samples` untraced ones,
/// then the traced sample (which writes its trace into `trace_dir`, if
/// given). `run` is 1 + 7, `smoke` and `trace` are 0 + 1.
pub fn run_all(
    seed: u64,
    smoke: bool,
    warmups: usize,
    samples: usize,
    trace_dir: Option<&str>,
) -> Result<RunResult, String> {
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        eprintln!("[{w}] {samples} sample(s) after {warmups} warm-up, then 1 traced");
        let mut result = measure(w, seed, smoke, warmups, Budget::Samples(samples))?;
        let base = result.get("wall_s").map_or(f64::NAN, |m| m.value);
        let trace_file = trace_dir.map(|d| format!("{d}/{w}.trace.json"));
        add_traced(&mut result, seed, smoke, base, trace_file)?;
        workloads.push(result);
    }
    let mut run = RunResult {
        seed,
        smoke,
        workloads,
    };
    tracing_overhead(&mut run);
    Ok(run)
}

/// `cm-obs.overhead_pct`: what always-on tracing costs the city, from the
/// untraced samples of `city_traced` and `city_flat`.
fn tracing_overhead(run: &mut RunResult) {
    let wall = |w| {
        run.workload(w)
            .and_then(|r| r.get("wall_s"))
            .map(|m| m.value)
    };
    if let (Some(flat), Some(traced)) = (wall(Workload::CityFlat), wall(Workload::CityTraced)) {
        if let Some(r) = run
            .workloads
            .iter_mut()
            .find(|r| r.workload == Workload::CityTraced)
        {
            r.set("cm-obs.overhead_pct", (traced / flat - 1.0) * 100.0);
        }
    }
}

// ---- printing ---------------------------------------------------------

fn print_metric(m: &Aggregated) {
    let spread = if m.n > 1 && m.metric.base == Base::Host {
        format!("  q1 {:.6} q3 {:.6} n={}", m.q1, m.q3, m.n)
    } else if m.n > 1 {
        format!("  identical in n={}", m.n)
    } else {
        String::new()
    };
    let bound = m
        .metric
        .end_to_end_bound()
        .map_or(String::new(), |b| format!("  bound {b}"));
    println!(
        "  {:<46} {:>16} {:<6} [{}, {} is better]{}{}",
        m.metric.name,
        format_value(m.value),
        m.metric.unit,
        m.metric.base.name(),
        m.metric.better.name(),
        spread,
        bound
    );
}

fn format_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

/// Print every metric of every workload by name, with unit and time base.
pub fn print_run(run: &RunResult) {
    println!(
        "cm-benchmark seed {}{}  host cores {}  samples: fresh process each, host metrics are medians",
        run.seed,
        if run.smoke { " (smoke)" } else { "" },
        host_cores()
    );
    for w in &run.workloads {
        println!("\n== {} — {}", w.workload, w.workload.why());
        println!(" end to end");
        for m in w
            .metrics
            .iter()
            .filter(|m| m.metric.end_to_end_bound().is_some())
        {
            print_metric(m);
        }
        println!(
            "  {:<46} {}",
            "failed / attempted operations",
            stats::ratio_with_base(w.failed, w.attempted)
        );
        println!(" per layer");
        for m in w
            .metrics
            .iter()
            .filter(|m| m.metric.end_to_end_bound().is_none())
        {
            print_metric(m);
        }
        for (k, v) in &w.info {
            println!("  info {k} = {v}");
        }
        for f in &w.failures {
            println!("  FAILED {f}");
        }
    }
    println!(
        "\n{}",
        if run.ok() {
            "all output checks passed"
        } else {
            "OUTPUT CHECKS FAILED"
        }
    );
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The machine-readable form of a run (the committed baseline).
pub fn run_to_json(run: &RunResult) -> Json {
    Json::obj([
        ("format", Json::str("cm-benchmark/v1")),
        ("seed", Json::Num(run.seed as f64)),
        ("host_cores", Json::Num(host_cores() as f64)),
        ("warmups_per_workload", Json::Num(WARMUPS as f64)),
        (
            "workloads",
            Json::Obj(
                run.workloads
                    .iter()
                    .map(|w| {
                        (
                            w.workload.name().to_string(),
                            Json::obj([
                                ("attempted", Json::Num(w.attempted as f64)),
                                ("failed", Json::Num(w.failed as f64)),
                                (
                                    "metrics",
                                    Json::Obj(
                                        w.metrics
                                            .iter()
                                            .map(|m| {
                                                (
                                                    m.metric.name.to_string(),
                                                    Json::obj([
                                                        ("value", Json::Num(m.value)),
                                                        ("unit", Json::str(m.metric.unit)),
                                                        ("base", Json::str(m.metric.base.name())),
                                                        ("q1", Json::Num(m.q1)),
                                                        ("q3", Json::Num(m.q3)),
                                                        ("n", Json::Num(m.n as f64)),
                                                    ]),
                                                )
                                            })
                                            .collect(),
                                    ),
                                ),
                                (
                                    "info",
                                    Json::Obj(
                                        w.info
                                            .iter()
                                            .map(|(k, v)| (k.clone(), Json::str(v)))
                                            .collect(),
                                    ),
                                ),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

// ---- check-repeat -----------------------------------------------------

/// Compare two runs of the same code: every end-to-end metric of the
/// second within its bound of the first, every count and sim-time metric
/// equal. Prints the observed difference next to each bound; returns the
/// violations.
pub fn compare_runs(first: &RunResult, second: &RunResult) -> Vec<String> {
    let mut violations = Vec::new();
    for a in &first.workloads {
        let Some(b) = second.workload(a.workload) else {
            violations.push(format!("{}: missing from second run", a.workload));
            continue;
        };
        println!("\n== {}", a.workload);
        for ma in &a.metrics {
            let name = ma.metric.name;
            let Some(mb) = b.get(name) else {
                violations.push(format!("{}: {name} missing from second run", a.workload));
                continue;
            };
            if let Some(bound) = ma.metric.end_to_end_bound() {
                let diff = if ma.value == 0.0 {
                    mb.value - ma.value
                } else {
                    mb.value / ma.value - 1.0
                };
                let ok = bound.holds(ma.value, mb.value);
                println!(
                    "  {:<28} first {:>14} second {:>14}  diff {:+.4}{}  in-run spread {:.4}  bound {}  {}",
                    name,
                    format_value(ma.value),
                    format_value(mb.value),
                    diff,
                    if ma.value == 0.0 { " abs" } else { "" },
                    (ma.q3 - ma.q1) / ma.value.abs().max(f64::MIN_POSITIVE),
                    bound,
                    if ok { "ok" } else { "EXCEEDED" }
                );
                if !ok {
                    violations.push(format!(
                        "{}: {name} worsened from {} to {} (bound {bound})",
                        a.workload, ma.value, mb.value
                    ));
                }
            }
            if ma.metric.base != Base::Host && ma.value.to_bits() != mb.value.to_bits() {
                violations.push(format!(
                    "{}: {} metric {name} differs: {} vs {}",
                    a.workload,
                    ma.metric.base.name(),
                    ma.value,
                    mb.value
                ));
            }
        }
    }
    violations
}
