//! The partial-order-reduction acceptance gate: on every corpus program
//! with more than one thread, the DPOR lane must explore *strictly fewer*
//! complete traces than the full enumeration while reproducing the exact
//! outcome set, and the reduced SC race scan (`sc_race_freedom_reduced`,
//! the race detector over the reduced tree) must reproduce the full
//! walk's race polarity. Random programs extend the corpus sweep through
//! the vendored proptest stub.

use proptest::prelude::*;

mod common;
use common::small_program;

use bdrst::core::engine::{
    dpor_reachable_terminals, full_complete_traces, Dependence, EngineConfig,
    Strategy as EngineStrategy,
};
use bdrst::core::loc::LocKind;
use bdrst::core::localdrf::{
    check_global_drf, check_local_drf, sc_race_freedom, sc_race_freedom_reduced, DrfStatus,
};
use bdrst::core::trace::LocPredicate;
use bdrst::lang::Program;
use bdrst::litmus::all_tests;
use bdrst::race::{detect_races_program, DetectorConfig};
use std::collections::BTreeSet;

/// Outcome set of `p` through the full DFS engine.
fn full_outcomes(p: &Program) -> BTreeSet<bdrst::lang::Observation> {
    p.outcomes_with(EngineConfig::default(), EngineStrategy::Dfs)
        .expect("exploration fits budget")
        .0
        .set()
        .clone()
}

/// Outcome set of `p` through the reduced lane.
fn dpor_outcomes(p: &Program) -> BTreeSet<bdrst::lang::Observation> {
    p.outcomes_with(EngineConfig::default(), EngineStrategy::Dpor)
        .expect("reduced exploration fits budget")
        .0
        .set()
        .clone()
}

#[test]
fn corpus_dpor_prunes_every_multithreaded_program() {
    for t in all_tests() {
        let p = Program::parse(t.source).expect("corpus programs parse");
        let full = full_complete_traces(&p.locs, p.initial_machine(), EngineConfig::default())
            .expect("full enumeration fits budget");
        let (_, stats) = dpor_reachable_terminals(
            &p.locs,
            p.initial_machine(),
            EngineConfig::default(),
            Dependence::Observational,
        )
        .expect("reduced exploration fits budget");
        if p.threads.len() > 1 {
            assert!(
                stats.complete_traces < full,
                "{}: DPOR explored {} complete traces, full enumeration {}",
                t.name,
                stats.complete_traces,
                full
            );
        } else {
            // Single-threaded programs have exactly one schedule; the
            // reduction has nothing to prune and must not lose traces.
            assert_eq!(stats.complete_traces, full, "{}", t.name);
        }
    }
}

#[test]
fn corpus_dpor_outcome_sets_match_full_enumeration() {
    for t in all_tests() {
        let p = Program::parse(t.source).expect("corpus programs parse");
        assert_eq!(
            dpor_outcomes(&p),
            full_outcomes(&p),
            "outcome sets diverge on {}",
            t.name
        );
    }
}

/// `L` = every nonatomic location: the instance Theorem 14's proof uses.
fn all_nonatomics(p: &Program) -> LocPredicate {
    p.locs
        .iter()
        .filter(|&l| p.locs.kind(l) == LocKind::Nonatomic)
        .collect()
}

#[test]
fn corpus_reduced_checkers_match_full_verdicts() {
    for t in all_tests() {
        let p = Program::parse(t.source).expect("corpus programs parse");
        let cfg = EngineConfig::default();

        // SC race freedom: polarity must match (witnesses may differ —
        // the reduced walk races first on a different representative).
        let full = sc_race_freedom(&p.locs, p.initial_machine(), cfg).unwrap();
        let reduced = sc_race_freedom_reduced(&p.locs, p.initial_machine(), cfg).unwrap();
        assert_eq!(
            matches!(full, DrfStatus::Racy(_)),
            matches!(reduced, DrfStatus::Racy(_)),
            "sc_race_freedom polarity diverges on {}",
            t.name
        );

        // Theorem 14 holds (for the paper semantics) with the same
        // classification as the reduced scan.
        let full_g = check_global_drf(&p.locs, p.initial_machine(), cfg).unwrap();
        assert_eq!(
            matches!(full_g, DrfStatus::Racy(_)),
            matches!(reduced, DrfStatus::Racy(_)),
            "global DRF classification diverges on {}",
            t.name
        );

        // Theorem 13 from the initial state, L = all nonatomics.
        let l = all_nonatomics(&p);
        assert!(
            check_local_drf(&p.locs, p.initial_machine(), &l, cfg).is_ok(),
            "local DRF fails on {}",
            t.name
        );
    }
}

/// The reduced race scan is the race detector over the reduced tree: its
/// polarity must match full-tree detection, and its witness must be a
/// real race.
#[test]
fn corpus_reduced_race_detection_matches_full_polarity() {
    for t in all_tests() {
        let p = Program::parse(t.source).expect("corpus programs parse");
        let full = detect_races_program(&p, EngineConfig::default(), DetectorConfig::default())
            .expect("full detection fits budget");
        let reduced =
            sc_race_freedom_reduced(&p.locs, p.initial_machine(), EngineConfig::default())
                .expect("reduced detection fits budget");
        match reduced {
            DrfStatus::Racy(w) => {
                assert!(full.racy(), "{}: only the reduced scan races", t.name);
                assert!(w.validate(&p.locs), "{}: invalid witness {w:?}", t.name);
            }
            DrfStatus::RaceFree => {
                assert!(!full.racy(), "{}: only the full scan races", t.name)
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The reduced lane reproduces the full outcome set on ≥128 random
    /// programs.
    #[test]
    fn dpor_outcomes_match_full_on_random_programs(p in small_program()) {
        prop_assert_eq!(
            dpor_outcomes(&p),
            full_outcomes(&p),
            "outcome sets diverge on\n{}", p
        );
    }

    /// The reduced race scan reproduces the full checker's and the full
    /// detector's polarity on ≥128 random programs.
    #[test]
    fn reduced_checkers_match_full_on_random_programs(p in small_program()) {
        let cfg = EngineConfig::default();
        let full = sc_race_freedom(&p.locs, p.initial_machine(), cfg).unwrap();
        let reduced = sc_race_freedom_reduced(&p.locs, p.initial_machine(), cfg).unwrap();
        prop_assert_eq!(
            matches!(full, DrfStatus::Racy(_)),
            matches!(reduced, DrfStatus::Racy(_)),
            "sc_race_freedom polarity diverges on\n{}", p
        );
        let full_r =
            detect_races_program(&p, cfg, DetectorConfig::default()).unwrap();
        prop_assert_eq!(
            full_r.racy(),
            matches!(reduced, DrfStatus::Racy(_)),
            "race polarity diverges on\n{}", p
        );
    }

    /// The reduction never *adds* traces: reduced complete-trace counts
    /// are bounded by the full enumeration on every random program.
    #[test]
    fn dpor_never_explores_more_traces(p in small_program()) {
        let full = full_complete_traces(&p.locs, p.initial_machine(), EngineConfig::default())
            .expect("full enumeration fits budget");
        let (_, stats) = dpor_reachable_terminals(
            &p.locs,
            p.initial_machine(),
            EngineConfig::default(),
            Dependence::Observational,
        )
        .expect("reduced exploration fits budget");
        prop_assert!(
            stats.complete_traces <= full,
            "DPOR explored {} > full {} on\n{}", stats.complete_traces, full, p
        );
    }
}
