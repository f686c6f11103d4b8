//! Trace exporters: JSON Lines and Chrome `trace_event`.
//!
//! Both are hand-rolled (the build has no serde) and byte-deterministic:
//! events export in ring-buffer (emission) order, metrics in sorted-name
//! order, and every timestamp is simulated time in microseconds — two
//! same-seed runs produce identical bytes.
//!
//! The Chrome format is the JSON-array flavour understood by Perfetto and
//! `chrome://tracing`: instants as `"ph":"i"`, spans as complete
//! (`"ph":"X"`) events, one "thread" per [`Layer`](crate::Layer).

use crate::{Event, Telemetry, Value};
use std::fmt::Write;

/// Append `s` to `out` as a JSON string literal, quotes included:
/// `"` and `\` are backslash-escaped, `\n`, `\r` and `\t` take their
/// short forms, and every other control character below U+0020 becomes a
/// `\u00XX` escape — so any label is valid JSON.
pub fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
        // `Display` omits the point for integral floats; keep the value a
        // JSON number either way (5 is as valid as 5.0), nothing to fix.
    } else {
        out.push_str("null");
    }
}

fn json_value(out: &mut String, v: &Value) {
    match v {
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(x) => json_f64(out, *x),
        Value::Str(s) => json_str(out, s),
        Value::Text(s) => json_str(out, s),
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
    }
}

fn json_fields(out: &mut String, fields: &[(&'static str, Value)]) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_str(out, k);
        out.push(':');
        json_value(out, v);
    }
    out.push('}');
}

fn jsonl_event(out: &mut String, ev: &Event) {
    let _ = write!(
        out,
        "{{\"type\":\"event\",\"ts\":{},\"layer\":\"{}\",\"name\":",
        ev.at.as_micros(),
        ev.layer.name()
    );
    json_str(out, ev.name);
    if let Some(d) = ev.dur {
        let _ = write!(out, ",\"dur\":{}", d.as_micros());
    }
    out.push_str(",\"fields\":");
    json_fields(out, &ev.fields);
    out.push_str("}\n");
}

/// Events (emission order) then counters, gauges and histogram summaries
/// (sorted by name), one JSON object per line.
pub(crate) fn jsonl(tel: &Telemetry) -> String {
    let mut out = String::new();
    for ev in tel.events() {
        jsonl_event(&mut out, &ev);
    }
    for (name, v) in tel.counters_snapshot() {
        out.push_str("{\"type\":\"counter\",\"name\":");
        json_str(&mut out, &name);
        let _ = writeln!(out, ",\"value\":{v}}}");
    }
    for (name, v) in tel.gauges_snapshot() {
        out.push_str("{\"type\":\"gauge\",\"name\":");
        json_str(&mut out, &name);
        out.push_str(",\"value\":");
        json_f64(&mut out, v);
        out.push_str("}\n");
    }
    for (name, h) in tel.histograms_snapshot() {
        out.push_str("{\"type\":\"histogram\",\"name\":");
        json_str(&mut out, &name);
        let _ = write!(out, ",\"count\":{}", h.count());
        out.push_str(",\"mean\":");
        json_f64(&mut out, h.mean());
        if let (Some(min), Some(max)) = (h.min(), h.max()) {
            let _ = write!(out, ",\"min\":{min},\"max\":{max}");
        }
        for (label, p) in [("p50", 50.0), ("p90", 90.0), ("p99", 99.0)] {
            if let Some((lo, hi)) = h.percentile_bounds(p) {
                let _ = write!(out, ",\"{label}\":[{lo},{hi}]");
            }
        }
        out.push_str("}\n");
    }
    if tel.overflow() > 0 {
        let _ = writeln!(
            out,
            "{{\"type\":\"overflow\",\"dropped\":{}}}",
            tel.overflow()
        );
    }
    out
}

/// Chrome `trace_event` JSON array (Perfetto / `chrome://tracing`).
pub(crate) fn chrome_trace(tel: &Telemetry) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    let sep = |out: &mut String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
    };
    // Name the process and one "thread" per layer so Perfetto shows
    // readable tracks.
    sep(&mut out, &mut first);
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"cm-stack (sim time)\"}}",
    );
    for layer in [
        crate::Layer::Netsim,
        crate::Layer::Transport,
        crate::Layer::Orchestration,
        crate::Layer::Session,
        crate::Layer::App,
    ] {
        sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
             \"args\":{{\"name\":\"{}\"}}}}",
            layer.tid(),
            layer.name()
        );
    }
    for ev in tel.events() {
        sep(&mut out, &mut first);
        out.push_str("{\"name\":");
        json_str(&mut out, ev.name);
        match ev.dur {
            Some(d) => {
                let _ = write!(
                    out,
                    ",\"ph\":\"X\",\"ts\":{},\"dur\":{}",
                    ev.at.as_micros(),
                    d.as_micros()
                );
            }
            None => {
                let _ = write!(
                    out,
                    ",\"ph\":\"i\",\"ts\":{},\"s\":\"t\"",
                    ev.at.as_micros()
                );
            }
        }
        let _ = write!(out, ",\"pid\":1,\"tid\":{},\"args\":", ev.layer.tid());
        json_fields(&mut out, &ev.fields);
        out.push('}');
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use crate::{Layer, Telemetry};
    use cm_core::time::{SimDuration, SimTime};

    fn sample() -> Telemetry {
        let tel = Telemetry::recording(16);
        tel.instant(
            SimTime::from_micros(5),
            Layer::Netsim,
            "net.pkt.drop",
            |e| {
                e.u64("link", 3).str("reason", "loss");
            },
        );
        tel.span(
            SimTime::from_micros(10),
            SimDuration::from_micros(7),
            Layer::Session,
            "room.join",
            |e| {
                e.text("room", "lab \"1\"".to_string()).bool("ok", true);
            },
        );
        tel.count("net.delivered", 2);
        tel.gauge("clock.offset_us/1", -12.5);
        tel.record("vc.jitter_us", 42);
        tel
    }

    #[test]
    fn jsonl_deterministic_and_escaped() {
        let a = sample().export_jsonl();
        let b = sample().export_jsonl();
        assert_eq!(a, b);
        assert!(a.contains("\"name\":\"net.pkt.drop\""));
        assert!(a.contains("lab \\\"1\\\""));
        assert!(a.contains("\"type\":\"counter\""));
        assert!(a.contains("\"type\":\"gauge\""));
        assert!(a.contains("\"type\":\"histogram\""));
        // One JSON object per line.
        for line in a.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn chrome_trace_shape() {
        let t = sample().export_chrome_trace();
        assert!(t.starts_with("[\n"));
        assert!(t.trim_end().ends_with(']'));
        assert!(t.contains("\"ph\":\"M\""));
        assert!(t.contains("\"ph\":\"i\""));
        assert!(t.contains("\"ph\":\"X\""));
        assert!(t.contains("\"tid\":4")); // session track
        assert_eq!(sample().export_chrome_trace(), t);
    }
}
