//! The model's deterministic counts over the litmus corpus, pinned
//! exactly: DFS states, complete traces under full enumeration and under
//! DPOR, race-detector events, and the axiomatic search's nodes and
//! consistent executions. A change to the semantics, the dedup, the
//! reduction or the search that moves one of them fails here.
//!
//! Several of the counts are deltas of the process-wide `bdrst_obs`
//! counters, and the span recorder is process-wide too, so this binary
//! holds a single test: a sibling test would move the counters under it.

use bdrst_core::engine::{
    canonical_fingerprint, dpor_reachable_terminals, full_complete_traces, Control, Dedup,
    Dependence, EngineConfig, StateId, WorklistEngine,
};
use bdrst_core::machine::Machine;
use bdrst_lang::{Program, ThreadState};
use bdrst_obs::{counter_get, Counter, Recorder};
use bdrst_race::{detect_races, DetectorConfig};

/// The canonical fingerprints of the states a DFS under `dedup` visits,
/// per program, in visit order.
fn dfs_states(programs: &[&Program], dedup: Dedup) -> Vec<Vec<u64>> {
    let engine = WorklistEngine::with_dedup(EngineConfig::default(), dedup);
    programs
        .iter()
        .map(|p| {
            let mut states = Vec::new();
            engine
                .explore(
                    &p.locs,
                    p.initial_machine(),
                    &mut |m: &Machine<ThreadState>, _: StateId| {
                        states.push(canonical_fingerprint(&p.locs, m).unwrap());
                        Control::Continue
                    },
                )
                .expect("corpus programs fit the default budget");
            states
        })
        .collect()
}

#[test]
fn corpus_counts_are_pinned() {
    let tests = bdrst_litmus::all_tests();
    let programs: Vec<Program> = tests
        .iter()
        .map(|t| Program::parse(t.source).unwrap())
        .collect();
    let cfg = EngineConfig::default();

    // The DFS lane sweeps the narrow corpus: the `Wide*` stress programs
    // are left out, as in the allocation bound of `allocations.rs`.
    let narrow: Vec<&Program> = tests
        .iter()
        .zip(&programs)
        .filter(|(t, _)| !t.name.starts_with("Wide"))
        .map(|(_, p)| p)
        .collect();
    let before = counter_get(Counter::ExploreVisits);
    let plain = dfs_states(&narrow, Dedup::FingerprintFirst);
    let visited: usize = plain.iter().map(Vec::len).sum();
    assert_eq!(visited, 586, "DFS states over the narrow corpus");
    assert_eq!(
        counter_get(Counter::ExploreVisits) - before,
        visited as u64,
        "the explore_visits gauge must agree with the engine's own count"
    );

    assert_eq!(
        dfs_states(&narrow, Dedup::FullState),
        plain,
        "full-state dedup visited other states"
    );

    // Recording spans must not change what the walk visits.
    Recorder::install();
    let recorded = dfs_states(&narrow, Dedup::FingerprintFirst);
    let profile = Recorder::stop_and_collect();
    assert!(!profile.events.is_empty(), "the recorder saw no spans");
    assert_eq!(
        recorded, plain,
        "installing the span recorder changed the explored state set"
    );

    let full: usize = programs
        .iter()
        .map(|p| full_complete_traces(&p.locs, p.initial_machine(), cfg).unwrap())
        .sum();
    let dpor: usize = programs
        .iter()
        .map(|p| {
            dpor_reachable_terminals(&p.locs, p.initial_machine(), cfg, Dependence::Observational)
                .unwrap()
                .1
                .complete_traces
        })
        .sum();
    assert_eq!(full, 2277, "complete traces under full enumeration");
    assert_eq!(dpor, 141, "complete traces under DPOR");

    let before = counter_get(Counter::RaceEventsLive);
    let (mut events, mut racy) = (0u64, 0usize);
    for p in &programs {
        let report =
            detect_races(&p.locs, p.initial_machine(), cfg, DetectorConfig::default()).unwrap();
        events += report.events;
        racy += usize::from(report.racy());
    }
    assert_eq!(events, 1602, "race events of live detection");
    assert_eq!(counter_get(Counter::RaceEventsLive) - before, events);
    assert_eq!(racy, 15, "racy corpus programs");

    let (nodes, consistent) = (
        counter_get(Counter::AxiomaticNodes),
        counter_get(Counter::AxiomaticConsistent),
    );
    for p in &programs {
        bdrst_axiomatic::axiomatic_outcomes(p, Default::default()).unwrap();
    }
    // 176: the search's prefix check cuts inconsistent thread-alternative
    // prefixes, so two alternatives of later threads are never tried
    // (178 without it).
    assert_eq!(
        counter_get(Counter::AxiomaticNodes) - nodes,
        176,
        "axiomatic search nodes"
    );
    assert_eq!(
        counter_get(Counter::AxiomaticConsistent) - consistent,
        104,
        "consistent executions"
    );
}
