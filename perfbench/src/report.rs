//! Metric names, units, and the result line.
//!
//! The names here are the ones `BENCHMARK.json` declares; a test keeps
//! the two lists equal.

use std::collections::BTreeMap;

/// End-to-end metrics (untraced runs), as (name, unit).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs), as (name, unit).
pub const PER_LAYER: [(&str, &str); 62] = [
    ("lang.parse_us", "us"),
    ("lang.calls", "count"),
    ("lang.busy_s", "s"),
    ("lang.self_share", "ratio"),
    ("engine.explore_ms", "ms"),
    ("engine.busy_s", "s"),
    ("engine.calls", "count"),
    ("engine.states", "count"),
    ("engine.states_per_s", "1/s"),
    ("engine.fingerprint_calls", "count"),
    ("engine.dedup_ratio", "ratio"),
    ("engine.digest_hit_ratio", "ratio"),
    ("engine.frontier_high_water", "count"),
    ("engine.self_share", "ratio"),
    ("axiomatic.enumerate_ms", "ms"),
    ("axiomatic.busy_s", "s"),
    ("axiomatic.probes", "count"),
    ("axiomatic.self_share", "ratio"),
    ("dpor.global_ms", "ms"),
    ("dpor.busy_s", "s"),
    ("dpor.calls", "count"),
    ("dpor.branches", "count"),
    ("dpor.sleep_blocked", "count"),
    ("dpor.backtrack_points", "count"),
    ("dpor.pruning_ratio", "ratio"),
    ("dpor.self_share", "ratio"),
    ("trace.record_ms", "ms"),
    ("trace.busy_s", "s"),
    ("trace.calls", "count"),
    ("trace.traces", "count"),
    ("trace.traces_per_s", "1/s"),
    ("trace.bytes_per_trace", "B"),
    ("trace.budget_trips", "count"),
    ("trace.wasted_s", "s"),
    ("trace.self_share", "ratio"),
    ("race.replay_ms", "ms"),
    ("race.live_ms", "ms"),
    ("race.busy_s", "s"),
    ("race.events_replayed", "count"),
    ("race.events_live", "count"),
    ("race.self_share", "ratio"),
    ("localdrf.replay_ms", "ms"),
    ("localdrf.busy_s", "s"),
    ("localdrf.self_share", "ratio"),
    ("store.key_us", "us"),
    ("store.lookup_us", "us"),
    ("store.disk_load_us", "us"),
    ("store.persist_us", "us"),
    ("store.entry_bytes", "B"),
    ("store.hit_ratio", "ratio"),
    ("store.disk_errors", "count"),
    ("store.self_share", "ratio"),
    ("service.call_us", "us"),
    ("server.overhead_us", "us"),
    ("server.overhead_share", "ratio"),
    ("server.queue_high_water", "count"),
    ("server.p50_us.parse", "us"),
    ("server.p50_us.check", "us"),
    ("server.p50_us.check-global", "us"),
    ("server.p50_us.check-races", "us"),
    ("server.p50_us.check-localdrf", "us"),
    ("obs.trace_overhead_ratio", "ratio"),
];

/// A set of measured values, keyed by metric name.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records `name` (which must be declared in [`END_TO_END`] or
    /// [`PER_LAYER`]). Non-finite values (a ratio over nothing) are
    /// recorded as 0, and so is -0 (an empty float sum).
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric `{name}` is not declared in the benchmark's metric lists"
        );
        self.values
            .insert(name, if value.is_finite() { value + 0.0 } else { 0.0 });
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The result line: `correct`, `attempted`, `failed`, and every
    /// metric of `declared` with its value and unit.
    ///
    /// # Panics
    ///
    /// If a declared metric was never recorded.
    pub fn result_line(&self, declared: &[(&str, &str)], attempted: u64, failed: u64) -> String {
        let body: Vec<String> = declared
            .iter()
            .map(|(name, unit)| {
                let value = self
                    .get(name)
                    .unwrap_or_else(|| panic!("metric `{name}` was not measured"));
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            body.join(", ")
        )
    }
}

/// The unit of a declared metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}
