//! The collected result of a recording session, and its two renderings:
//! Chrome trace-event JSON and a human per-phase table.

use crate::counters::counters_json;
use crate::json::Json;
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

impl Profile {
    /// The profile as a Chrome trace-event JSON object: complete
    /// (`"ph":"X"`) events, with `ts`/`dur` in microseconds, plus
    /// thread-name metadata in `traceEvents`, and the dropped-event
    /// count and the full counter registry under `otherData` — loadable
    /// in `chrome://tracing` or Perfetto once rendered.
    pub fn to_chrome_json(&self) -> Json {
        let us = |ns: u64| Json::Num(ns as f64 / 1e3);
        let threads = self.threads.iter().map(|(tid, name)| {
            Json::obj([
                ("name", Json::Str("thread_name".into())),
                ("ph", Json::Str("M".into())),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(*tid as i64)),
                ("args", Json::obj([("name", Json::Str(name.clone()))])),
            ])
        });
        let spans = self.events.iter().map(|e| {
            Json::obj([
                ("name", Json::Str(e.phase.name().into())),
                ("ph", Json::Str("X".into())),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(e.tid as i64)),
                ("ts", us(e.start_ns)),
                ("dur", us(e.dur_ns)),
                ("args", Json::obj([("arg", Json::Int(e.arg as i64))])),
            ])
        });
        let other = std::iter::once(("dropped_events".to_string(), Json::Int(self.dropped as i64)))
            .chain(counters_json())
            .collect();
        Json::obj([
            ("displayTimeUnit", Json::Str("ms".into())),
            ("traceEvents", Json::Arr(threads.chain(spans).collect())),
            ("otherData", Json::Obj(other)),
        ])
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
        let json = p.to_chrome_json().render();
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
