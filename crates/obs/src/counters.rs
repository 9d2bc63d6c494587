//! The always-on counter registry: fixed slots, relaxed atomics, zero
//! allocation. This generalizes what used to be ad-hoc globals scattered
//! through the engine (`machine::SEMANTICS_PROBES`, the pmap digest
//! hit/miss pair) into one table every layer shares.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::json::Json;

/// A registry slot. Additive counters unless noted; `*HighWater` /
/// `InternerOccupancy` are monotone gauges updated with [`counter_max`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum Counter {
    /// Transition-semantics steps (the zero-probe suites' witness).
    SemanticsProbes = 0,
    /// Pmap content-digest memo hits.
    DigestHits,
    /// Pmap content-digest recomputations.
    DigestMisses,
    /// Units of the timed exploration walks: DFS states and DPOR
    /// extensions, the work [`Counter::ExploreNanos`] times. Recorded
    /// trace rows and replayed extensions are not counted here; a
    /// request's meter counts every unit.
    ExploreVisits,
    /// Fresh canonical states interned.
    StatesInterned,
    /// Monotone gauge: largest interner table seen.
    InternerOccupancy,
    /// Monotone gauge: deepest worklist/frontier seen.
    FrontierHighWater,
    /// Wall-clock nanoseconds spent inside engine explore calls
    /// (always-on: two clock reads per call, not per visit).
    ExploreNanos,
    /// `canonical_fingerprint` invocations.
    FingerprintCalls,
    /// Transitions enumerated by the DPOR engine.
    DporBranches,
    /// DPOR extensions pruned because every enabled thread slept.
    DporSleepBlocked,
    /// Backtrack points added by the source-DPOR race analysis.
    DporBacktrackPoints,
    /// Race-detector events consumed on live (semantics-driven) walks.
    RaceEventsLive,
    /// Race-detector events consumed replaying a recorded trace tree.
    RaceEventsReplayed,
    /// Profiling-session span events lost to ring wrap (added when the
    /// session is collected).
    SpansDropped,
    /// Structured log lines emitted (post rate limiting).
    LogLines,
    /// Log lines suppressed by the per-target rate limiter.
    LogRateLimited,
    /// Flight-recorder snapshots dumped to disk.
    FlightDumps,
    /// Nodes of the axiomatic search: thread alternatives tried.
    AxiomaticNodes,
    /// Consistent executions the axiomatic search found.
    AxiomaticConsistent,
}

/// Number of registry slots.
pub const COUNTER_COUNT: usize = 20;

const NAMES: [&str; COUNTER_COUNT] = [
    "semantics_probes",
    "digest_hits",
    "digest_misses",
    "explore_visits",
    "states_interned",
    "interner_occupancy",
    "frontier_high_water",
    "explore_nanos",
    "fingerprint_calls",
    "dpor_branches",
    "dpor_sleep_blocked",
    "dpor_backtrack_points",
    "race_events_live",
    "race_events_replayed",
    "spans_dropped",
    "log_lines",
    "log_rate_limited",
    "flight_dumps",
    "axiomatic_nodes",
    "axiomatic_consistent",
];

static REGISTRY: [AtomicU64; COUNTER_COUNT] = [const { AtomicU64::new(0) }; COUNTER_COUNT];

impl Counter {
    /// The counter's stable snake_case name (JSON / Prometheus key).
    pub const fn name(self) -> &'static str {
        NAMES[self as usize]
    }
}

/// Adds `n` to a counter. Relaxed; safe from any thread.
#[inline]
pub fn counter_add(c: Counter, n: u64) {
    REGISTRY[c as usize].fetch_add(n, Ordering::Relaxed);
}

/// Raises a monotone gauge to at least `v`.
#[inline]
pub fn counter_max(c: Counter, v: u64) {
    REGISTRY[c as usize].fetch_max(v, Ordering::Relaxed);
}

/// Current value of a counter.
#[inline]
pub fn counter_get(c: Counter) -> u64 {
    REGISTRY[c as usize].load(Ordering::Relaxed)
}

/// All counters as `(name, value)` pairs, in slot order.
pub fn counters_snapshot() -> Vec<(&'static str, u64)> {
    NAMES
        .iter()
        .zip(&REGISTRY)
        .map(|(n, v)| (*n, v.load(Ordering::Relaxed)))
        .collect()
}

/// The members of the counter object, one integer per counter in slot
/// order: the base of every Chrome trace's `otherData` and of the
/// server's `engine` gauges.
pub fn counters_json() -> Vec<(String, Json)> {
    counters_snapshot()
        .into_iter()
        .map(|(name, v)| (name.to_string(), Json::Int(v as i64)))
        .collect()
}

/// Zeroes every slot. For tests and benchmark lanes that want absolute
/// (rather than delta) readings; production callers diff snapshots.
pub fn counters_reset() {
    for slot in &REGISTRY {
        slot.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_add_max_and_snapshot() {
        let before = counter_get(Counter::DigestHits);
        counter_add(Counter::DigestHits, 3);
        assert_eq!(counter_get(Counter::DigestHits), before + 3);
        counter_max(Counter::FrontierHighWater, 10);
        counter_max(Counter::FrontierHighWater, 4);
        assert!(counter_get(Counter::FrontierHighWater) >= 10);
        let snap = counters_snapshot();
        assert_eq!(snap.len(), COUNTER_COUNT);
        assert!(snap.iter().any(|(n, _)| *n == "digest_hits"));
    }
}
