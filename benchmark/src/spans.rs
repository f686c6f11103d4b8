//! The benchmark's own spans: one around every call it makes into a layer
//! and every callback a layer makes into it. Off unless a traced sample
//! turns them on; kept in memory and written out when the sample ends.
//!
//! Totals (calls, total time, self time) are kept for every span, by name
//! and top-level phase.
//! Individual records are kept for the trace file only up to
//! [`MAX_RECORDS`], so a ten-minute fan-out run still loads in a viewer;
//! the file says how many were left out.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Individual span records kept per sample (top-level phases and their
/// direct children are always kept).
pub const MAX_RECORDS: usize = 200_000;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span, times in ns since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing recorded span.
    pub parent: Option<u32>,
}

/// Totals per (top-level phase, name) over every span, recorded or not.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub calls: u64,
    pub total_ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
}

struct Frame {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    record: u32,
}

struct Recorder {
    epoch: Instant,
    stack: Vec<Frame>,
    records: Vec<SpanRec>,
    dropped: u64,
    totals: BTreeMap<(&'static str, &'static str), SpanTotals>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Turn span recording on for this thread; `epoch` is time zero.
pub fn enable(epoch: Instant) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch,
            stack: Vec::new(),
            records: Vec::new(),
            dropped: 0,
            totals: BTreeMap::new(),
        });
    });
}

/// Closes its span when dropped.
#[must_use = "a span ends when its guard is dropped"]
pub struct Guard {
    live: bool,
}

/// Open a span named `name`; a no-op unless [`enable`] was called.
pub fn enter(name: &'static str) -> Guard {
    let live = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else {
            return false;
        };
        let start_ns = rec.epoch.elapsed().as_nanos() as u64;
        let parent = rec
            .stack
            .iter()
            .rev()
            .map(|f| f.record)
            .find(|&i| i != NO_PARENT);
        let record = if rec.stack.len() < 2 || rec.records.len() < MAX_RECORDS {
            rec.records.push(SpanRec {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
            });
            (rec.records.len() - 1) as u32
        } else {
            rec.dropped += 1;
            NO_PARENT
        };
        rec.stack.push(Frame {
            name,
            start_ns,
            child_ns: 0,
            record,
        });
        true
    });
    Guard { live }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let Some(rec) = r.as_mut() else {
                return;
            };
            let Some(frame) = rec.stack.pop() else {
                return;
            };
            let end_ns = rec.epoch.elapsed().as_nanos() as u64;
            let dur = end_ns - frame.start_ns;
            if frame.record != NO_PARENT {
                rec.records[frame.record as usize].end_ns = end_ns;
            }
            if let Some(parent) = rec.stack.last_mut() {
                parent.child_ns += dur;
            }
            // A top-level span is its own phase.
            let phase = rec.stack.first().map_or(frame.name, |f| f.name);
            let t = rec.totals.entry((phase, frame.name)).or_default();
            t.calls += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(frame.child_ns);
        });
    }
}

/// Run `f` inside a span.
pub fn within<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _g = enter(name);
    f()
}

/// Everything a traced sample recorded.
pub struct Recording {
    pub records: Vec<SpanRec>,
    pub dropped: u64,
    pub totals: BTreeMap<(&'static str, &'static str), SpanTotals>,
}

impl Recording {
    /// Totals of the spans called `name`, in `phase` only or in all.
    pub fn totals_of(&self, phase: Option<&str>, name: &str) -> SpanTotals {
        let mut sum = SpanTotals::default();
        for ((p, n), t) in &self.totals {
            if *n == name && phase.is_none_or(|want| want == *p) {
                sum.calls += t.calls;
                sum.total_ns += t.total_ns;
                sum.self_ns += t.self_ns;
            }
        }
        sum
    }

    /// Write the records as a Chrome `trace_event` file (`ph: "X"`
    /// complete events; `args` carry span id, parent id and sample id).
    pub fn write_chrome_trace(&self, out: &mut impl Write, sample_id: &str) -> io::Result<()> {
        writeln!(out, "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"sample\":\"{sample_id}\",\"spans_not_recorded\":{}}},\"traceEvents\":[", self.dropped)?;
        for (i, s) in self.records.iter().enumerate() {
            let sep = if i + 1 == self.records.len() { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"sample\":\"{sample_id}\"}}}}{sep}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            )?;
        }
        writeln!(out, "]}}")
    }
}

/// Stop recording and hand back what was recorded (empty when spans were
/// never enabled).
pub fn finish() -> Recording {
    RECORDER.with(|r| match r.borrow_mut().take() {
        Some(rec) => Recording {
            records: rec.records,
            dropped: rec.dropped,
            totals: rec.totals,
        },
        None => Recording {
            records: Vec::new(),
            dropped: 0,
            totals: BTreeMap::new(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::time::Duration;

    fn busy(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _ = finish();
        within("x", || ());
        assert!(finish().totals.is_empty());
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        enable(Instant::now());
        within("outer", || {
            busy(Duration::from_millis(4));
            within("inner", || busy(Duration::from_millis(6)));
            within("inner", || busy(Duration::from_millis(6)));
        });
        let rec = finish();
        let outer = rec.totals_of(None, "outer");
        let inner = rec.totals_of(Some("outer"), "inner");
        assert_eq!(rec.totals_of(Some("elsewhere"), "inner").calls, 0);
        assert_eq!((outer.calls, inner.calls), (1, 2));
        assert_eq!(inner.total_ns, inner.self_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(outer.self_ns >= 4_000_000 && outer.self_ns < outer.total_ns);
        // Parent links: both inners point at the outer record.
        assert_eq!(rec.records[0].parent, None);
        assert_eq!(rec.records[1].parent, Some(0));
        assert_eq!(rec.records[2].parent, Some(0));
    }

    #[test]
    fn records_are_capped_but_totals_are_not() {
        enable(Instant::now());
        within("phase", || {
            within("loop", || {
                for _ in 0..MAX_RECORDS + 10 {
                    within("leaf", || ());
                }
            });
        });
        within("late-phase", || ());
        let rec = finish();
        assert_eq!(rec.totals_of(None, "leaf").calls as usize, MAX_RECORDS + 10);
        assert_eq!(rec.records.len(), MAX_RECORDS + 1);
        assert_eq!(rec.dropped, 12);
        assert_eq!(rec.records.last().map(|s| s.name), Some("late-phase"));
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        enable(Instant::now());
        within("a", || within("b", || ()));
        let rec = finish();
        let mut buf = Vec::new();
        rec.write_chrome_trace(&mut buf, "city_flat/7").unwrap();
        let doc = json::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("name").and_then(|n| n.as_str()), Some("b"));
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(|p| p.as_f64()), Some(0.0));
    }
}
