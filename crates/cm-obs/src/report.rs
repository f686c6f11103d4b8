//! Deterministic attribution + audit report.
//!
//! A zone-sharded run produces one [`ObsZoneReport`] per zone (each
//! engine has its own [`Obs`](crate::Obs)); [`render_report`] folds them
//! into one JSON artifact: per-zone per-stream budget breakdowns, then a
//! cross-zone per-room rollup keyed by label. Everything is integers and
//! the ordering is `(zone, stream)` / sorted labels, so the bytes are
//! identical for any worker count and any shard arrival order — the
//! property the zones differential pins.

use crate::{ContractBreach, SegClass};
use cm_telemetry::{json_str, Histogram};
use std::collections::BTreeMap;
use std::fmt::Write;

/// Summary statistics of one segment class (or the span total), µs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegStats {
    /// Samples recorded.
    pub count: u64,
    /// Median (log-bucket upper bound).
    pub p50_us: u64,
    /// 99th percentile (log-bucket upper bound).
    pub p99_us: u64,
    /// Largest sample.
    pub max_us: u64,
    /// Exact sum over all samples.
    pub sum_us: u64,
}

impl SegStats {
    pub(crate) fn from_hist(h: &Histogram, sum_us: u64) -> SegStats {
        SegStats {
            count: h.count(),
            p50_us: h.percentile(50.0),
            p99_us: h.percentile(99.0),
            max_us: h.max().unwrap_or(0),
            sum_us,
        }
    }
}

/// One stream's (VC's) closed-span aggregates and audit outcome.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Raw VC id.
    pub stream: u64,
    /// Label attached at publish (room/stream path) or `vc<id>`.
    pub label: String,
    /// Contracted end-to-end deadline, µs (0 = uncontracted).
    pub deadline_us: u64,
    /// Contracted deadline-miss budget, ppm.
    pub allowed_miss_ppm: u64,
    /// Spans closed.
    pub spans: u64,
    /// Deadline misses.
    pub misses: u64,
    /// Misses by dominant cause, [`SegClass::ALL`] order.
    pub miss_causes: [u64; 7],
    /// Per-segment-class statistics, [`SegClass::ALL`] order.
    pub segs: [SegStats; 7],
    /// Span total (origin→playout) statistics.
    pub total: SegStats,
    /// Audit windows breached (exact, beyond the recorded cap).
    pub breach_count: u64,
    /// First breached windows, verbatim.
    pub breaches: Vec<ContractBreach>,
    /// Playout-device ticks that found no unit.
    pub underruns: u64,
    /// Traced packets dropped in the network for this stream.
    pub net_drops: u64,
}

/// Everything one zone's [`Obs`](crate::Obs) observed, as plain data
/// (safe to carry across worker threads).
#[derive(Debug, Clone)]
pub struct ObsZoneReport {
    /// Zone id (0 for a flat run).
    pub zone: u32,
    /// Spans closed in this zone.
    pub spans: u64,
    /// Deadline misses in this zone.
    pub misses: u64,
    /// Contract-window breaches in this zone.
    pub breaches_total: u64,
    /// Traces still open at end of run.
    pub open_spans: u64,
    /// Traces retired unclosed by the registry cap.
    pub abandoned: u64,
    /// Flight-recorder events dropped to ring overflow in this zone.
    pub telemetry_overflow: u64,
    /// Per-stream breakdowns, stream-id order.
    pub streams: Vec<StreamReport>,
}

fn seg_json(out: &mut String, s: &SegStats) {
    let _ = write!(
        out,
        "{{\"count\": {}, \"p50_us\": {}, \"p99_us\": {}, \"max_us\": {}, \"sum_us\": {}}}",
        s.count, s.p50_us, s.p99_us, s.max_us, s.sum_us
    );
}

fn causes_json(out: &mut String, causes: &[u64; 7]) {
    out.push('{');
    let mut first = true;
    for (i, c) in SegClass::ALL.iter().enumerate() {
        if causes[i] == 0 {
            continue;
        }
        if !first {
            out.push_str(", ");
        }
        first = false;
        let _ = write!(out, "\"{}\": {}", c.slug(), causes[i]);
    }
    out.push('}');
}

/// The dominant cause over a cause-count array: the largest count, ties
/// to the earlier (source-side) class; `"none"` when there are no misses.
fn dominant(causes: &[u64; 7]) -> &'static str {
    let mut dom = 0;
    for i in 1..7 {
        if causes[i] > causes[dom] {
            dom = i;
        }
    }
    if causes[dom] == 0 {
        "none"
    } else {
        SegClass::ALL[dom].slug()
    }
}

/// Render per-zone reports into the deterministic JSON artifact.
///
/// Shards may arrive in any order; they are sorted by zone id, and the
/// room rollup merges streams across zones by label.
pub fn render_report(zones: &[ObsZoneReport]) -> String {
    let mut zones: Vec<&ObsZoneReport> = zones.iter().collect();
    zones.sort_by_key(|z| z.zone);

    let mut spans = 0u64;
    let mut misses = 0u64;
    let mut breaches = 0u64;
    let mut open = 0u64;
    let mut abandoned = 0u64;
    let mut overflow = 0u64;
    // label -> (spans, misses, causes, underruns)
    let mut rooms: BTreeMap<&str, (u64, u64, [u64; 7], u64)> = BTreeMap::new();
    for z in &zones {
        spans += z.spans;
        misses += z.misses;
        breaches += z.breaches_total;
        open += z.open_spans;
        abandoned += z.abandoned;
        overflow += z.telemetry_overflow;
        for s in &z.streams {
            let e = rooms.entry(s.label.as_str()).or_insert((0, 0, [0; 7], 0));
            e.0 += s.spans;
            e.1 += s.misses;
            for i in 0..7 {
                e.2[i] += s.miss_causes[i];
            }
            e.3 += s.underruns;
        }
    }

    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"cm-obs/v1\",\n");
    let _ = writeln!(
        out,
        "  \"totals\": {{\"spans\": {spans}, \"misses\": {misses}, \"breaches_total\": {breaches}, \"open_spans\": {open}, \"abandoned\": {abandoned}, \"telemetry_overflow\": {overflow}}},"
    );

    out.push_str("  \"zones\": [\n");
    for (zi, z) in zones.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"zone\": {}, \"spans\": {}, \"misses\": {}, \"breaches_total\": {}, \"open_spans\": {}, \"abandoned\": {}, \"telemetry_overflow\": {}, \"streams\": [",
            z.zone, z.spans, z.misses, z.breaches_total, z.open_spans, z.abandoned, z.telemetry_overflow
        );
        for (si, s) in z.streams.iter().enumerate() {
            out.push_str("\n      {");
            let _ = write!(out, "\"stream\": {}, \"label\": ", s.stream);
            json_str(&mut out, &s.label);
            let _ = write!(
                out,
                ", \"deadline_us\": {}, \"allowed_miss_ppm\": {}, \"spans\": {}, \"misses\": {}, \"dominant_cause\": \"{}\", \"miss_causes\": ",
                s.deadline_us,
                s.allowed_miss_ppm,
                s.spans,
                s.misses,
                dominant(&s.miss_causes),
            );
            causes_json(&mut out, &s.miss_causes);
            let _ = write!(
                out,
                ", \"underruns\": {}, \"net_drops\": {}, \"total\": ",
                s.underruns, s.net_drops
            );
            seg_json(&mut out, &s.total);
            out.push_str(", \"segments\": {");
            for (i, c) in SegClass::ALL.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{}\": ", c.slug());
                seg_json(&mut out, &s.segs[i]);
            }
            let _ = write!(
                out,
                "}}, \"breach_count\": {}, \"breaches\": [",
                s.breach_count
            );
            for (bi, b) in s.breaches.iter().enumerate() {
                if bi > 0 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "{{\"window_start_us\": {}, \"spans\": {}, \"misses\": {}, \"burn_x100\": {}}}",
                    b.window_start_us, b.spans, b.misses, b.burn_x100
                );
            }
            out.push_str("]}");
            if si + 1 < z.streams.len() {
                out.push(',');
            }
        }
        if z.streams.is_empty() {
            out.push_str("]}");
        } else {
            out.push_str("\n    ]}");
        }
        if zi + 1 < zones.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ],\n");

    out.push_str("  \"rooms\": [\n");
    let n = rooms.len();
    for (i, (label, (spans, misses, causes, underruns))) in rooms.iter().enumerate() {
        out.push_str("    {\"label\": ");
        json_str(&mut out, label);
        let _ = write!(
            out,
            ", \"spans\": {}, \"misses\": {}, \"dominant_cause\": \"{}\", \"underruns\": {}, \"miss_causes\": ",
            spans,
            misses,
            dominant(causes),
            underruns
        );
        causes_json(&mut out, causes);
        out.push('}');
        if i + 1 < n {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(label: &str, spans: u64, misses: u64, cause: usize) -> StreamReport {
        let mut miss_causes = [0; 7];
        miss_causes[cause] = misses;
        StreamReport {
            stream: 1,
            label: label.to_string(),
            deadline_us: 1_000,
            allowed_miss_ppm: 0,
            spans,
            misses,
            miss_causes,
            segs: [SegStats {
                count: spans,
                p50_us: 1,
                p99_us: 2,
                max_us: 3,
                sum_us: 4,
            }; 7],
            total: SegStats {
                count: spans,
                p50_us: 1,
                p99_us: 2,
                max_us: 3,
                sum_us: 4,
            },
            breach_count: 0,
            breaches: Vec::new(),
            underruns: 0,
            net_drops: 0,
        }
    }

    fn zone(z: u32, s: Vec<StreamReport>) -> ObsZoneReport {
        ObsZoneReport {
            zone: z,
            spans: s.iter().map(|x| x.spans).sum(),
            misses: s.iter().map(|x| x.misses).sum(),
            breaches_total: 0,
            open_spans: 0,
            abandoned: 0,
            telemetry_overflow: 0,
            streams: s,
        }
    }

    /// User-supplied room names reach the labels: control characters are
    /// escaped, so the report stays valid JSON.
    #[test]
    fn labels_with_control_characters_are_escaped() {
        let label = "room:a\n\t\u{1}/main";
        let out = render_report(&[zone(0, vec![stream(label, 1, 0, 0)])]);
        let escaped = "\"label\": \"room:a\\n\\t\\u0001/main\"";
        assert_eq!(
            out.matches(escaped).count(),
            2,
            "stream row and room rollup"
        );
        assert!(!out.contains(label));
    }

    #[test]
    fn render_is_shard_order_independent() {
        let a = zone(0, vec![stream("room:r1/main", 10, 1, 3)]);
        let b = zone(1, vec![stream("room:r1/main", 5, 0, 0)]);
        let fwd = render_report(&[a.clone(), b.clone()]);
        let rev = render_report(&[b, a]);
        assert_eq!(fwd, rev);
    }

    #[test]
    fn rooms_merge_across_zones_by_label() {
        let a = zone(0, vec![stream("room:r1/main", 10, 2, 3)]);
        let b = zone(1, vec![stream("room:r1/main", 5, 1, 3)]);
        let json = render_report(&[a, b]);
        assert!(json.contains(
            "{\"label\": \"room:r1/main\", \"spans\": 15, \"misses\": 3, \"dominant_cause\": \"propagation\""
        ));
    }

    #[test]
    fn dominant_cause_none_without_misses() {
        let json = render_report(&[zone(0, vec![stream("s", 4, 0, 0)])]);
        assert!(json.contains("\"dominant_cause\": \"none\""));
    }

    #[test]
    fn totals_roll_up() {
        let mut z = zone(2, vec![stream("s", 7, 1, 4)]);
        z.telemetry_overflow = 9;
        z.abandoned = 2;
        let json = render_report(&[z]);
        assert!(json.contains(
            "\"totals\": {\"spans\": 7, \"misses\": 1, \"breaches_total\": 0, \"open_spans\": 0, \"abandoned\": 2, \"telemetry_overflow\": 9}"
        ));
        assert!(json.contains("\"dominant_cause\": \"repair\""));
    }
}
