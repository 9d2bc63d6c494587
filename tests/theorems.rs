//! Cross-crate verification of the paper's theorems over the litmus
//! corpus: equivalence of the two semantics (Thms 15/16), the hb
//! decomposition and alternative consistency (Thms 17/18), local DRF
//! (Thm 13) and global DRF (Thm 14).

use bdrst::axiomatic::{check_equivalence, check_soundness, for_each_candidate, EnumLimits};
use bdrst::core::engine::EngineConfig;
use bdrst::core::localdrf::{check_global_drf, check_local_drf};
use bdrst::core::trace::LocPredicate;
use bdrst::lang::Program;
use bdrst::litmus::all_tests;

/// Corpus tests small enough for full bidirectional checking.
fn corpus_programs() -> Vec<(&'static str, Program)> {
    all_tests()
        .into_iter()
        .filter(|t| t.name != "IRIW+na" && t.name != "IRIW+at") // 4 threads: heavier
        .map(|t| (t.name, Program::parse(t.source).unwrap()))
        .collect()
}

#[test]
fn theorems_15_16_outcome_equivalence_across_corpus() {
    for (name, p) in corpus_programs() {
        let rep = check_equivalence(&p, EngineConfig::default(), EnumLimits::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            rep.holds(),
            "{name}: operational {:?} != axiomatic {:?}",
            rep.missing_in_axiomatic(),
            rep.extra_in_axiomatic()
        );
    }
}

#[test]
fn theorem_15_every_trace_induces_consistent_execution() {
    for (name, p) in corpus_programs() {
        let checked =
            check_soundness(&p, EngineConfig::default()).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(checked > 0, "{name}: no traces checked");
    }
}

#[test]
fn theorems_17_18_on_every_candidate_execution() {
    for (name, p) in corpus_programs() {
        let mut candidates = 0usize;
        for_each_candidate(&p, EnumLimits::default(), |pe| {
            candidates += 1;
            assert!(pe.exec.theorem17_holds(), "{name}: hb decomposition failed");
            assert_eq!(
                pe.exec.is_consistent(),
                pe.exec.is_consistent_alt(),
                "{name}: Theorem 18 characterisation disagrees"
            );
        })
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(candidates > 0, "{name}: no candidates enumerated");
    }
}

#[test]
fn theorem_13_local_drf_from_initial_states() {
    for (name, p) in corpus_programs() {
        // §5's rule of thumb: L = all nonatomic locations; initial states
        // are always L-stable.
        let l: LocPredicate = p.locs.nonatomic().collect();
        check_local_drf(&p.locs, p.initial_machine(), &l, EngineConfig::default())
            .unwrap_or_else(|e| panic!("{name}: local DRF violated: {e}"));
    }
}

#[test]
fn theorem_13_singleton_location_sets() {
    // Local DRF must hold for every singleton L too (bounding in space).
    for (name, p) in corpus_programs() {
        for loc in p.locs.nonatomic() {
            let l: LocPredicate = [loc].into_iter().collect();
            check_local_drf(&p.locs, p.initial_machine(), &l, EngineConfig::default())
                .unwrap_or_else(|e| panic!("{name}/{loc}: {e}"));
        }
    }
}

#[test]
fn theorem_14_global_drf_across_corpus() {
    for (name, p) in corpus_programs() {
        check_global_drf(&p.locs, p.initial_machine(), EngineConfig::default())
            .unwrap_or_else(|e| panic!("{name}: global DRF theorem violated: {e}"));
    }
}
