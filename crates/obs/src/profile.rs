//! The collected result of a recording session, and its two renderings:
//! Chrome trace-event JSON and a human per-phase table.

use crate::counters::counters_snapshot;
use crate::phase::Phase;

/// One recorded span occurrence.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// What the span measured.
    pub phase: Phase,
    /// Recording thread (dense ids starting at 1).
    pub tid: u64,
    /// Start, nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// One free argument slot (request id, states visited, ...).
    pub arg: u64,
}

/// Exact per-phase aggregate (kept beside the ring, so it is complete
/// even when the ring overflowed and dropped individual events).
#[derive(Clone, Copy, Debug)]
pub struct PhaseSummary {
    /// The phase.
    pub phase: Phase,
    /// Spans recorded.
    pub count: u64,
    /// Total wall time, nanoseconds (children included).
    pub total_ns: u64,
    /// Self time, nanoseconds (children's time subtracted).
    pub self_ns: u64,
}

/// Everything a recording session collected.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Individual span events, per-thread ring order (a flight dump
    /// sorts them by start).
    pub events: Vec<TraceEvent>,
    /// `(tid, thread name)` for every thread that recorded.
    pub threads: Vec<(u64, String)>,
    /// Per-phase aggregates, nonzero phases only.
    pub phases: Vec<PhaseSummary>,
    /// Events lost to ring wrap, or outside a flight dump's window (the
    /// aggregates still count them).
    pub dropped: u64,
}

/// Nanoseconds as a microsecond decimal literal (Chrome's `ts`/`dur`
/// unit) without going through floats: `1234` ns → `1.234`.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

impl Profile {
    /// Renders the profile as a Chrome trace-event JSON object: complete
    /// (`"ph":"X"`) events plus thread-name metadata in `traceEvents`,
    /// and the full counter registry snapshot under `otherData` —
    /// loadable in `chrome://tracing` or Perfetto as-is.
    pub fn to_chrome_json(&self) -> String {
        self.to_chrome_json_with_extra("")
    }

    /// [`to_chrome_json`](Profile::to_chrome_json) with extra raw-JSON
    /// members spliced into `otherData` — `extra` must be empty or a
    /// string of `,"key":value` members (the flight recorder uses this
    /// for the dump reason and the recent-log snapshot).
    pub fn to_chrome_json_with_extra(&self, extra: &str) -> String {
        let mut out = String::with_capacity(128 + extra.len() + self.events.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for (tid, name) in &self.threads {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\""
            ));
            crate::log::escape_into(&mut out, name);
            out.push_str("\"}}");
        }
        for e in &self.events {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\
                 \"args\":{{\"arg\":{}}}}}",
                e.phase.name(),
                e.tid,
                us(e.start_ns),
                us(e.dur_ns),
                e.arg
            ));
        }
        out.push_str("],\"otherData\":{\"dropped_events\":");
        out.push_str(&self.dropped.to_string());
        for (name, value) in counters_snapshot() {
            out.push_str(&format!(",\"{name}\":{value}"));
        }
        out.push_str(extra);
        out.push_str("}}");
        out
    }

    /// Renders the per-phase aggregate table, heaviest self-time first.
    pub fn render_summary(&self) -> String {
        let mut rows = self.phases.clone();
        rows.sort_by_key(|r| std::cmp::Reverse(r.self_ns));
        let mut out = String::new();
        out.push_str(&format!(
            "{:<18} {:>10} {:>12} {:>12} {:>10}\n",
            "phase", "count", "total ms", "self ms", "mean µs"
        ));
        for r in &rows {
            out.push_str(&format!(
                "{:<18} {:>10} {:>12.3} {:>12.3} {:>10.1}\n",
                r.phase.name(),
                r.count,
                r.total_ns as f64 / 1e6,
                r.self_ns as f64 / 1e6,
                if r.count == 0 {
                    0.0
                } else {
                    r.total_ns as f64 / 1e3 / r.count as f64
                },
            ));
        }
        if self.dropped > 0 {
            out.push_str(&format!(
                "({} events lost to ring wrap; aggregates above are exact)\n",
                self.dropped
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_json_shape_and_summary() {
        let p = Profile {
            events: vec![TraceEvent {
                phase: Phase::Parse,
                tid: 1,
                start_ns: 1_234,
                dur_ns: 5_678,
                arg: 7,
            }],
            threads: vec![(1, "main".into())],
            phases: vec![PhaseSummary {
                phase: Phase::Parse,
                count: 1,
                total_ns: 5_678,
                self_ns: 5_678,
            }],
            dropped: 0,
        };
        let json = p.to_chrome_json();
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"name\":\"parse\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1.234"));
        assert!(json.contains("\"dur\":5.678"));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"dropped_events\":0"));
        let summary = p.render_summary();
        assert!(summary.contains("parse"));
    }
}
