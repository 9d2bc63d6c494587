//! Live and replayed race detection: the two ways the check service runs
//! the streaming [`RaceDetector`] over a program's trace tree.
//!
//! The detector itself — Definition 8's happens-before kept with vector
//! clocks, the partner rule, deduplication, prune-on-race and the
//! witness cap — lives in [`bdrst_core::hb`], where it is the same
//! detector [`bdrst_core::localdrf::sc_race_freedom`] stops at its first
//! witness. This module drives it:
//!
//! * **live** ([`detect_races`]) — riding [`TraceEngine::explore`]'s
//!   depth-first walk;
//! * **offline** ([`detect_races_replayed`]) — over a recorded
//!   [`TraceGraph`]: verdicts consume labels only, so a replayed
//!   detection runs **zero** transition-semantics steps (the
//!   probe-counting suites assert this). The detector opts in to
//!   memoized replay, so it judges each (row, happens-before summary)
//!   once rather than once per trace.
//!
//! The detector is one [`bdrst_core::engine::TraceVisitor`], and both
//! entry points run one shared body that differs only in the walk.
//! Each entry point puts its own span and event counter on the
//! observability stack, so race work is attributed to the lane that did
//! it. The counters and span arguments count the extensions the detector
//! actually judged. [`RaceReport::events`] counts the judged extensions
//! of the unfolded tree, on both lanes, so a live and a replayed report
//! are equal; on a replay it exceeds the `RaceEventsReplayed` work by
//! the extensions the memo skipped. The shrinker runs the detector over
//! one fixed label sequence ([`RaceDetector::run_linear`]).

use bdrst_core::engine::{EngineConfig, EngineError, ExploreStats, TraceEngine, TraceGraph};
use bdrst_core::hb::{DetectorConfig, RaceDetector, RaceReport};
use bdrst_core::loc::LocSet;
use bdrst_core::machine::{Expr, Machine};
use bdrst_obs::{Counter, Phase};

/// The body [`detect_races`] and [`detect_races_replayed`] share: runs
/// the detector through `walk` under the lane's span, and charges the
/// extensions it judged to the lane's counter.
fn detect_with(
    locs: &LocSet,
    config: DetectorConfig,
    (phase, counter): (Phase, Counter),
    walk: impl FnOnce(&mut RaceDetector<'_>) -> Result<ExploreStats, EngineError>,
) -> Result<RaceReport, EngineError> {
    let mut span = bdrst_obs::span(phase);
    let mut d = RaceDetector::new(locs, config);
    let stats = walk(&mut d)?;
    bdrst_obs::counter_add(counter, d.events());
    span.set_arg(d.events());
    // Every extension of the unfolded tree is judged, once or through a
    // replay's memo: the live walk's count.
    let mut report = d.into_report(stats);
    report.events = stats.visited as u64;
    Ok(report)
}

/// Live detection: walks every (by default SC) trace of `m0` with the
/// trace engine, streaming each into the detector.
///
/// # Errors
///
/// [`EngineError`] on budget exhaustion or a corrupted machine.
pub fn detect_races<E: Expr>(
    locs: &LocSet,
    m0: Machine<E>,
    engine: EngineConfig,
    config: DetectorConfig,
) -> Result<RaceReport, EngineError> {
    detect_with(
        locs,
        config,
        (Phase::RaceLive, Counter::RaceEventsLive),
        |d| TraceEngine::new(engine).explore(locs, m0, d),
    )
}

/// Offline detection over a recorded [`TraceGraph`]: identical
/// witnesses, statistics and `events` to [`detect_races`] (the replay
/// reproduces the live walk's order and filter) with **zero**
/// transition-semantics steps.
///
/// # Errors
///
/// [`EngineError::BudgetExceeded`] when the detector would judge more
/// than `engine.max_traces` extensions. The memo's skips are free, so
/// this can succeed under a budget the live walk exceeds.
pub fn detect_races_replayed(
    locs: &LocSet,
    graph: &TraceGraph,
    engine: EngineConfig,
    config: DetectorConfig,
) -> Result<RaceReport, EngineError> {
    detect_with(
        locs,
        config,
        (Phase::RaceReplay, Counter::RaceEventsReplayed),
        |d| graph.replay(engine, d),
    )
}
