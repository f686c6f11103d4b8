//! One sample: one workload run once in a fresh process, reported as one
//! JSON line. The parent (`runner`) starts samples strictly one at a time
//! and aggregates their lines.

use crate::catalogue::{self, Workload};
use crate::json::{self, Json};
use crate::spans;
use std::time::Instant;

/// What a sample process is asked to do.
#[derive(Debug, Clone)]
pub struct SampleSpec {
    pub workload: Workload,
    pub seed: u64,
    /// Benchmark spans on, program telemetry and cm-obs on.
    pub traced: bool,
    /// Same code paths on inputs small enough to finish in seconds.
    pub smoke: bool,
    /// Where a traced sample writes its Chrome trace, if anywhere.
    pub trace_file: Option<String>,
}

/// One output check; a failed one fails the whole command.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// What a sample reports back.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    pub metrics: Vec<(String, f64)>,
    pub checks: Vec<Check>,
    /// Operations attempted / failed (the base of `failed_ops_ratio`).
    pub attempted: u64,
    pub failed: u64,
    /// Fingerprints and sizes worth printing but not metrics.
    pub info: Vec<(String, String)>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(catalogue::metric(name).is_some(), "unknown metric {name}");
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|m| m.1)
    }

    /// Record an output check, naming the offending counter in `detail`.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// `failed / attempted` with both counts kept in the report.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted = attempted;
        self.failed = failed;
        let ratio = if attempted == 0 {
            0.0
        } else {
            failed as f64 / attempted as f64
        };
        self.set("failed_ops_ratio", ratio);
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(n, v)| (n.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            (
                "checks",
                Json::Arr(
                    self.checks
                        .iter()
                        .map(|c| {
                            Json::obj([
                                ("name", Json::str(&c.name)),
                                ("ok", Json::Bool(c.ok)),
                                ("detail", Json::str(&c.detail)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "info",
                Json::Obj(
                    self.info
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::str(v)))
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json_line(line: &str) -> Result<Report, String> {
        let doc = json::parse(line)?;
        let field = |k: &str| {
            doc.get(k)
                .ok_or_else(|| format!("sample line lacks \"{k}\""))
        };
        let mut rep = Report::default();
        for (name, v) in field("metrics")?
            .as_obj()
            .ok_or("metrics is not an object")?
        {
            // A non-finite value was written as null; keep it visible.
            rep.metrics
                .push((name.clone(), v.as_f64().unwrap_or(f64::NAN)));
        }
        for c in field("checks")?.as_arr().ok_or("checks is not an array")? {
            rep.checks.push(Check {
                name: c
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
                ok: c.get("ok").and_then(Json::as_bool).unwrap_or(false),
                detail: c
                    .get("detail")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
            });
        }
        rep.attempted = field("attempted")?
            .as_f64()
            .ok_or("attempted is not a number")? as u64;
        rep.failed = field("failed")?.as_f64().ok_or("failed is not a number")? as u64;
        for (k, v) in field("info")?.as_obj().ok_or("info is not an object")? {
            rep.info
                .push((k.clone(), v.as_str().unwrap_or_default().to_string()));
        }
        Ok(rep)
    }
}

/// Splits a sample's process time into set-up, the timed region and
/// result collection, and opens the matching top-level spans.
pub struct Phases {
    epoch: Instant,
    setup_s: f64,
    wall_s: f64,
}

impl Phases {
    pub fn new(epoch: Instant) -> Phases {
        Phases {
            epoch,
            setup_s: 0.0,
            wall_s: 0.0,
        }
    }

    /// Everything before the timed region: input generation, world
    /// build, joins, stream establishment.
    pub fn setup<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let out = spans::within("setup", f);
        self.setup_s = self.epoch.elapsed().as_secs_f64();
        out
    }

    /// The timed region: `wall_s` is its duration and nothing else.
    pub fn timed<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = spans::within("timed", f);
        self.wall_s += start.elapsed().as_secs_f64();
        out
    }

    /// Reading logs and computing the sample's numbers.
    pub fn collect<T>(&mut self, f: impl FnOnce() -> T) -> T {
        spans::within("collect", f)
    }

    pub fn wall_s(&self) -> f64 {
        self.wall_s
    }

    pub fn setup_s(&self) -> f64 {
        self.setup_s
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where
/// `/proc/self/status` is unreadable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_survives_its_json_line() {
        let mut rep = Report::default();
        rep.set("wall_s", 1.8512345678);
        rep.set("netsim.engine.events", 3_170_000.0);
        rep.check("joins_denied == 0", true, "joins_denied=0");
        rep.check("published == rooms", false, "published=9 rooms=10");
        rep.ops(1000, 1);
        rep.note("schedule_fnv", "0x0123456789abcdef");
        let line = rep.to_json().render();
        assert!(!line.contains('\n'));
        assert_eq!(Report::from_json_line(&line).unwrap(), rep);
    }

    #[test]
    fn set_overwrites() {
        let mut rep = Report::default();
        rep.set("wall_s", 1.0);
        rep.set("wall_s", 2.0);
        assert_eq!(rep.metrics.len(), 1);
        assert_eq!(rep.get("wall_s"), Some(2.0));
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
