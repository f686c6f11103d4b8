//! The whole-stack benchmark: six workloads, end-to-end and per-layer
//! metrics, every layer measured from outside through public functions.
//! README.md has the tables and the method.

mod catalogue;
mod json;
mod runner;
mod sample;
mod spans;
mod stats;
mod workloads;

use catalogue::Workload;
use json::Json;
use runner::Budget;
use sample::{Phases, Report, SampleSpec};
use std::time::Instant;

const USAGE: &str = "\
usage: cm-benchmark <command> [--seed N]

  run [--seed N] [--out FILE]   every workload: 1 warm-up + 7 samples + 1 traced sample;
                                prints every metric, fails on any output check
  trace [--seed N]              one traced sample per workload; writes benchmark/out/<workload>.trace.json
  check-repeat [--seed N]       run twice; fails unless the second agrees with the first
  smoke [--seed N]              same code paths on tiny inputs, 1 sample each
  sample <workload> --seed N [--traced] [--smoke] [--trace-file P]
                                one sample in this process; prints one JSON line
  --workload W --seed N --seconds S --trace 0|1
                                the PR driver's protocol (see BENCHMARK.json)

The default seed is 7; seed 11 is held out for claims.";

/// The end-to-end metrics `BENCHMARK.json` lists: those every workload
/// has and that are never zero. The other seven of the catalogue's ten are
/// zero or undefined on some workload, which that file's format cannot
/// say, so the driver receives them with the per-layer metrics.
const DRIVER_END_TO_END: [&str; 3] = ["wall_s", "setup_s", "peak_rss_mb"];

/// Where `trace` writes: `out/` beside this package's manifest.
fn trace_dir() -> String {
    format!("{}/out", env!("CARGO_MANIFEST_DIR"))
}

fn main() {
    let epoch = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match dispatch(epoch, &args) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(msg) => {
            eprintln!("cm-benchmark: {msg}");
            2
        }
    };
    std::process::exit(code);
}

/// Flags after the command, as (name, value) pairs; bare flags get "".
fn flags(args: &[String], bare: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !a.starts_with("--") {
            return Err(format!("unexpected argument {a}\n{USAGE}"));
        }
        if bare.contains(&a.as_str()) {
            out.push((a.clone(), String::new()));
        } else {
            let v = it
                .next()
                .ok_or_else(|| format!("{a} needs a value\n{USAGE}"))?;
            out.push((a.clone(), v.clone()));
        }
    }
    Ok(out)
}

fn take<T: std::str::FromStr>(flags: &[(String, String)], name: &str) -> Result<Option<T>, String> {
    match flags.iter().find(|(k, _)| k == name) {
        None => Ok(None),
        Some((_, v)) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("bad value for {name}: {v}")),
    }
}

/// `--seed N`, 7 when absent.
fn seed(flags: &[(String, String)]) -> Result<u64, String> {
    Ok(take(flags, "--seed")?.unwrap_or(7))
}

fn reject_unknown(flags: &[(String, String)], known: &[&str]) -> Result<(), String> {
    match flags.iter().find(|(k, _)| !known.contains(&k.as_str())) {
        Some((k, _)) => Err(format!("unknown flag {k}\n{USAGE}")),
        None => Ok(()),
    }
}

/// `Ok(true)`: done and correct; `Ok(false)`: ran, but an output check or
/// a bound failed.
fn dispatch(epoch: Instant, args: &[String]) -> Result<bool, String> {
    let Some(command) = args.first() else {
        return Err(USAGE.to_string());
    };
    match command.as_str() {
        "sample" => {
            let name = args.get(1).ok_or(USAGE)?;
            let workload =
                Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
            let f = flags(&args[2..], &["--traced", "--smoke"])?;
            reject_unknown(&f, &["--seed", "--traced", "--smoke", "--trace-file"])?;
            let spec = SampleSpec {
                workload,
                seed: seed(&f)?,
                traced: f.iter().any(|(k, _)| k == "--traced"),
                smoke: f.iter().any(|(k, _)| k == "--smoke"),
                trace_file: take(&f, "--trace-file")?,
            };
            run_sample(epoch, &spec)
        }
        "run" => {
            let f = flags(&args[1..], &[])?;
            reject_unknown(&f, &["--seed", "--out"])?;
            let run = runner::run_all(seed(&f)?, false, runner::WARMUPS, runner::SAMPLES, None)?;
            runner::print_run(&run);
            if let Some(path) = take::<String>(&f, "--out")? {
                std::fs::write(&path, runner::run_to_json(&run).render_pretty())
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                eprintln!("wrote {path}");
            }
            Ok(run.ok())
        }
        "smoke" => {
            // Smoke numbers describe nothing; they are never written out.
            let f = flags(&args[1..], &[])?;
            reject_unknown(&f, &["--seed"])?;
            let run = runner::run_all(seed(&f)?, true, 0, 1, None)?;
            runner::print_run(&run);
            Ok(run.ok())
        }
        "trace" => {
            let f = flags(&args[1..], &[])?;
            reject_unknown(&f, &["--seed"])?;
            let dir = trace_dir();
            std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
            let run = runner::run_all(seed(&f)?, false, 0, 1, Some(&dir))?;
            runner::print_run(&run);
            eprintln!("traces written to {dir}/<workload>.trace.json");
            Ok(run.ok())
        }
        "check-repeat" => {
            let f = flags(&args[1..], &[])?;
            reject_unknown(&f, &["--seed"])?;
            let twice =
                || runner::run_all(seed(&f)?, false, runner::WARMUPS, runner::SAMPLES, None);
            let (first, second) = (twice()?, twice()?);
            runner::print_run(&second);
            let violations = runner::compare_runs(&first, &second);
            for v in &violations {
                println!("REPEAT FAILED {v}");
            }
            println!(
                "\ncheck-repeat: {}",
                if violations.is_empty() {
                    "second run agrees with the first"
                } else {
                    "runs disagree"
                }
            );
            Ok(first.ok() && second.ok() && violations.is_empty())
        }
        flag if flag.starts_with("--") => {
            let f = flags(args, &[])?;
            reject_unknown(&f, &["--workload", "--seed", "--seconds", "--trace"])?;
            let name: String = take(&f, "--workload")?.ok_or("--workload is required")?;
            let workload =
                Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name}"))?;
            let seed = take(&f, "--seed")?.ok_or("--seed is required")?;
            let seconds: f64 = take(&f, "--seconds")?.ok_or("--seconds is required")?;
            let trace: u8 = take(&f, "--trace")?.ok_or("--trace is required")?;
            driver(workload, seed, seconds, trace != 0)
        }
        other => Err(format!("unknown command {other}\n{USAGE}")),
    }
}

/// The PR driver's protocol: one workload, one JSON object on the last
/// line of stdout.
fn driver(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<bool, String> {
    let result = if trace {
        let mut result = runner::measure(workload, seed, false, 0, Budget::Samples(1))?;
        let base = result.get("wall_s").map_or(f64::NAN, |m| m.value);
        runner::add_traced(&mut result, seed, false, base, None)?;
        if workload == Workload::CityTraced {
            let flat = runner::measure(Workload::CityFlat, seed, false, 0, Budget::Samples(1))?;
            if let Some(flat_wall) = flat.get("wall_s") {
                result.set(
                    "cm-obs.overhead_pct",
                    (base / flat_wall.value - 1.0) * 100.0,
                );
            }
        }
        result
    } else {
        runner::measure(
            workload,
            seed,
            false,
            runner::WARMUPS,
            Budget::Seconds(seconds),
        )?
    };
    for f in &result.failures {
        eprintln!("cm-benchmark: {workload}: {f}");
    }
    println!("{}", driver_line(&result, trace).render());
    Ok(true)
}

/// What the driver reads: with `trace` off every end-to-end metric of
/// `BENCHMARK.json`, with it on every per-layer one. A metric that does
/// not apply to the workload reads zero.
fn driver_line(result: &runner::WorkloadResult, trace: bool) -> Json {
    let listed = |m: &&catalogue::Metric| DRIVER_END_TO_END.contains(&m.name) != trace;
    let metrics = catalogue::METRICS.iter().filter(listed).map(|m| {
        let value = result.get(m.name).map_or(0.0, |a| a.value);
        let value = if value.is_finite() { value } else { 0.0 };
        (
            m.name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(result.failures.is_empty())),
        ("attempted", Json::Num(result.attempted.max(1) as f64)),
        ("failed", Json::Num(result.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// Per-layer self times read from the benchmark's own spans: metric,
/// phase the spans must lie in (`None` = anywhere), span names.
const SPAN_SELF_TIMES: &[(&str, Option<&str>, &[&str])] = &[
    (
        "netsim.engine.drain_self_s",
        Some("timed"),
        &["netsim.Engine.run_until", "netsim.Engine.run_for"],
    ),
    (
        "cm-transport.write_osdu.self_s",
        None,
        &["cm-transport.write_osdu"],
    ),
    ("cm-session.join.self_s", None, &["cm-session.Room.join"]),
    (
        "cm-session.publish.self_s",
        None,
        &["cm-session.Room.publish"],
    ),
    ("cm-session.leave.self_s", None, &["cm-session.Room.leave"]),
    ("cm-session.on_media.self_s", None, &["cm-session.on_media"]),
    (
        "cm-orchestration.orchestrate.self_s",
        None,
        &["cm-orchestration.orchestrate_and_start"],
    ),
    ("cm-platform.install.self_s", None, &["cm-platform.install"]),
];

/// Run one sample in this process: the workload, then the numbers the
/// harness itself owns (phases, memory, span self times).
fn take_sample(epoch: Instant, spec: &SampleSpec) -> (Report, spans::Recording) {
    if spec.traced {
        spans::enable(epoch);
    }
    let mut phases = Phases::new(epoch);
    let mut rep = Report::default();
    workloads::run(spec, &mut phases, &mut rep);
    rep.set("wall_s", phases.wall_s());
    rep.set("setup_s", phases.setup_s());
    rep.set("peak_rss_mb", sample::peak_rss_mb());

    let process_s = epoch.elapsed().as_secs_f64();
    let rec = spans::finish();
    if spec.traced {
        for &(metric, phase, names) in SPAN_SELF_TIMES {
            let applies = catalogue::metric(metric).is_some_and(|m| m.applies_to(spec.workload));
            if applies {
                let self_ns: u64 = names.iter().map(|n| rec.totals_of(phase, n).self_ns).sum();
                rep.set(metric, self_ns as f64 / 1e9);
            }
        }
        // The three phases must account for the sample's process time.
        let covered_s: f64 = ["setup", "timed", "collect"]
            .iter()
            .map(|p| rec.totals_of(None, p).total_ns as f64 / 1e9)
            .sum();
        rep.note("process_s", process_s);
        rep.note("span_coverage", covered_s / process_s);
        rep.check(
            "phase spans cover the sample's process time within 2%",
            covered_s / process_s >= 0.98,
            format!("covered_s={covered_s} process_s={process_s}"),
        );
    }
    (rep, rec)
}

/// The child side: one sample, one JSON line.
fn run_sample(epoch: Instant, spec: &SampleSpec) -> Result<bool, String> {
    let (rep, rec) = take_sample(epoch, spec);
    if let Some(path) = &spec.trace_file {
        let file = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
        let mut out = std::io::BufWriter::new(file);
        let id = format!("{}/{}", spec.workload, spec.seed);
        rec.write_chrome_trace(&mut out, &id)
            .and_then(|()| std::io::Write::flush(&mut out))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    println!("{}", rep.to_json().render());
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalogue::{Base, Metric};
    use std::collections::BTreeSet;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses")
    }

    fn names(doc: &Json, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|e| {
                e.get("name")
                    .and_then(Json::as_str)
                    .expect("entry has a name")
                    .to_string()
            })
            .collect()
    }

    /// Metrics the parent derives from two samples rather than reading
    /// from one.
    const DERIVED: [&str; 2] = ["bench.span_overhead_pct", "cm-obs.overhead_pct"];

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        for m in catalogue::METRICS {
            assert!(stats::valid_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit of {}: {}",
                m.name,
                m.unit
            );
            assert!(!m.on.is_empty(), "{} applies to no workload", m.name);
        }
        for w in Workload::ALL {
            assert!(stats::valid_name(w.name()));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        let end_to_end = catalogue::METRICS
            .iter()
            .filter(|m| m.end_to_end_bound().is_some())
            .count();
        assert_eq!(end_to_end, 10, "the issue fixes ten end-to-end metrics");
    }

    #[test]
    fn benchmark_json_and_catalogue_name_the_same_things() {
        let doc = manifest();
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names(&doc, "workloads"), workloads);
        for (entry, w) in doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(Workload::ALL)
        {
            assert_eq!(entry.get("why").and_then(Json::as_str), Some(w.why()));
        }
        assert_eq!(names(&doc, "end_to_end"), DRIVER_END_TO_END);
        let layered: Vec<&str> = catalogue::METRICS
            .iter()
            .map(|m| m.name)
            .filter(|n| !DRIVER_END_TO_END.contains(n))
            .collect();
        assert_eq!(names(&doc, "per_layer"), layered);

        let check = |entry: &Json, m: &Metric| {
            assert_eq!(
                entry.get("unit").and_then(Json::as_str),
                Some(m.unit),
                "{}",
                m.name
            );
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(m.better.name()),
                "{}",
                m.name
            );
        };
        for entry in doc.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let m = catalogue::metric(entry.get("name").and_then(Json::as_str).unwrap()).unwrap();
            check(entry, m);
            assert_eq!(m.base, Base::Host);
            let bound = entry.get("bound").and_then(Json::as_f64).unwrap();
            assert_eq!(
                m.end_to_end_bound(),
                Some(catalogue::Bound::Rel(bound)),
                "{}",
                m.name
            );
            assert!(bound <= 0.25);
        }
        for entry in doc.get("per_layer").and_then(Json::as_arr).unwrap() {
            check(
                entry,
                catalogue::metric(entry.get("name").and_then(Json::as_str).unwrap()).unwrap(),
            );
        }
        assert_eq!(
            doc.get("paths").and_then(Json::as_arr).map(|p| p.len()),
            Some(1),
            "the benchmark lives in one directory"
        );
    }

    #[test]
    fn driver_lines_carry_exactly_the_listed_metrics() {
        let doc = manifest();
        let empty = runner::WorkloadResult {
            workload: Workload::CityFlat,
            metrics: Vec::new(),
            failures: Vec::new(),
            attempted: 0,
            failed: 0,
            info: Vec::new(),
        };
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let line = driver_line(&empty, trace);
            let printed: Vec<String> = line
                .get("metrics")
                .and_then(Json::as_obj)
                .unwrap()
                .iter()
                .map(|(k, _)| k.clone())
                .collect();
            assert_eq!(printed, names(&doc, key));
            assert_eq!(line.get("attempted").and_then(Json::as_f64), Some(1.0));
            assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        }
    }

    /// `run` prints what samples report, so: on tiny inputs, every
    /// workload's untraced and traced samples together report exactly the
    /// catalogue's metrics for that workload — no name missing, none
    /// unknown, none on a workload the catalogue does not list.
    #[test]
    fn samples_report_exactly_the_catalogue_metrics_of_their_workload() {
        let mut wrong = Vec::new();
        for workload in Workload::ALL {
            let mut reported = BTreeSet::new();
            for traced in [false, true] {
                let spec = SampleSpec {
                    workload,
                    seed: 7,
                    traced,
                    smoke: true,
                    trace_file: None,
                };
                let (rep, _) = take_sample(Instant::now(), &spec);
                for c in rep
                    .checks
                    .iter()
                    .filter(|c| !c.ok && !c.name.starts_with("phase spans"))
                {
                    wrong.push(format!(
                        "{workload}: check failed: {} ({})",
                        c.name, c.detail
                    ));
                }
                for (name, value) in &rep.metrics {
                    match catalogue::metric(name) {
                        None => wrong.push(format!("{workload}: unknown metric {name}")),
                        Some(m) if !m.applies_to(workload) => {
                            wrong.push(format!("{workload}: reports {name}, not listed for it"))
                        }
                        Some(m) if m.traced_only && !traced && workload != Workload::CityTraced => {
                            wrong.push(format!(
                                "{workload}: untraced sample reports traced-only {name}"
                            ))
                        }
                        Some(_) if !value.is_finite() => {
                            wrong.push(format!("{workload}: {name} = {value}"))
                        }
                        Some(_) => {}
                    }
                    reported.insert(name.clone());
                }
            }
            for m in catalogue::METRICS
                .iter()
                .filter(|m| m.applies_to(workload) && !DERIVED.contains(&m.name))
            {
                if !reported.contains(m.name) {
                    wrong.push(format!(
                        "{workload}: {} is listed for it but no sample reports it",
                        m.name
                    ));
                }
            }
        }
        assert!(wrong.is_empty(), "{}", wrong.join("\n"));
    }
}
