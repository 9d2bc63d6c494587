//! Property suite for the exploration engines: random programs are
//! generated through the vendored proptest stub and every engine — the
//! sequential DFS walk, the sequential state-graph recorder and DPOR —
//! must agree on the terminal outcome set, the recorder must record
//! exactly the canonical states the walk visits, and the recorded trace
//! tree must replay to the live soundness verdict.

use proptest::prelude::*;

mod common;
use common::small_program;

use bdrst::axiomatic::{check_soundness, generate, GenLimits};
use bdrst::core::engine::{
    Control, Dedup, EngineConfig, StateId, Strategy as EngineStrategy, TraceEngine, WorklistEngine,
};
use bdrst::core::machine::Machine;
use bdrst::lang::{Program, ThreadState};

/// Number of canonical states the sequential walk visits on `p`'s state
/// space.
fn visited_count(p: &Program, engine: &WorklistEngine) -> usize {
    let mut n = 0usize;
    engine
        .explore(
            &p.locs,
            p.initial_machine(),
            &mut |_: &Machine<ThreadState>, _: StateId| {
                n += 1;
                Control::Continue
            },
        )
        .expect("exploration fits budget");
    n
}

const ALL_STRATEGIES: [EngineStrategy; 2] = [EngineStrategy::Dfs, EngineStrategy::Dpor];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The state-graph recorder records exactly the states the
    /// sequential visitor walk visits.
    #[test]
    fn engines_agree_on_visited_state_counts(p in small_program()) {
        let dfs = visited_count(&p, &WorklistEngine::new(EngineConfig::default()));
        let (graph, stats) = p
            .state_graph(EngineConfig::default())
            .expect("exploration fits budget");
        prop_assert_eq!(graph.len(), dfs, "recorded states diverge on\n{}", p);
        prop_assert_eq!(stats.visited, dfs, "visited counts diverge on\n{}", p);
    }

    /// Every engine produces the identical terminal outcome set.
    #[test]
    fn engines_agree_on_outcome_sets(p in small_program()) {
        let dfs = p
            .outcomes_with(EngineConfig::default(), EngineStrategy::Dfs)
            .expect("exploration fits budget")
            .0
            .set()
            .clone();
        for strategy in ALL_STRATEGIES {
            let got = p
                .outcomes_with(EngineConfig::default(), strategy)
                .expect("exploration fits budget")
                .0
                .set()
                .clone();
            prop_assert_eq!(&got, &dfs, "outcomes diverge under {:?} on\n{}", strategy, p);
        }
    }

    /// Fingerprint-first dedup visits exactly the same canonical state
    /// set (witnessed by count — the interner admits each state once)
    /// and terminal outcome set as full-`CanonState` dedup, on ≥128
    /// random programs. The forced-collision variant of this property
    /// (truncated fingerprints) runs as a unit suite inside
    /// `bdrst-core`, where the test-only mask is reachable.
    #[test]
    fn fingerprint_dedup_matches_full_state_dedup(p in small_program()) {
        let fp = WorklistEngine::with_dedup(EngineConfig::default(), Dedup::FingerprintFirst);
        let full = WorklistEngine::with_dedup(EngineConfig::default(), Dedup::FullState);
        prop_assert_eq!(
            visited_count(&p, &fp),
            visited_count(&p, &full),
            "dedup modes diverge on\n{}", p
        );
        let o_fp = p.outcomes_with(EngineConfig::default(), EngineStrategy::Dfs)
            .expect("fits budget").0.set().clone();
        // FullState outcomes via the explicit reference engine.
        let mut terms = std::collections::BTreeSet::new();
        full.explore(&p.locs, p.initial_machine(), &mut |m: &Machine<ThreadState>, _: StateId| {
            if m.is_terminal() {
                terms.insert(p.observe(m));
            }
            Control::Continue
        }).expect("fits budget");
        prop_assert_eq!(&o_fp, &terms, "outcome sets diverge on\n{}", p);
    }

    /// The recorded trace tree replays the soundness scan to the exact
    /// sequential count, and the cached state graph reproduces the
    /// outcome set — on random programs, not just the corpus.
    #[test]
    fn recorded_graphs_replay_to_sequential_verdicts(p in small_program()) {
        let live = check_soundness(&p, EngineConfig::default()).expect("theorem 15 holds");
        let (graph, _) = TraceEngine::new(EngineConfig::default())
            .record(&p.locs, p.initial_machine())
            .expect("fits budget");
        let replayed = bdrst::axiomatic::check_soundness_replayed(
            &p, &graph, EngineConfig::default())
            .expect("theorem 15 holds on replay");
        prop_assert_eq!(live, replayed, "soundness replay diverges on\n{}", p);

        let (sgraph, _) = p.state_graph(EngineConfig::default()).expect("fits budget");
        let cached = p.outcomes_from_graph(&sgraph).set().clone();
        let live_outcomes = p.outcomes(EngineConfig::default())
            .expect("fits budget").set().clone();
        prop_assert_eq!(&cached, &live_outcomes, "graph outcomes diverge on\n{}", p);
    }

    /// `axiomatic::generate` on random programs: generation succeeds on
    /// the straight-line fragment and the candidate count is the
    /// per-thread alternative product — on the same generated programs
    /// the engine properties above run on.
    #[test]
    fn generated_event_graphs_consistent_with_engines(p in small_program()) {
        let g = generate(&p, GenLimits::default()).expect("straight-line programs converge");
        let product: usize = g.per_thread.iter().map(Vec::len).product();
        prop_assert_eq!(g.candidate_count(), product);
        prop_assert!(g.per_thread.iter().all(|alts| !alts.is_empty()));
    }
}
