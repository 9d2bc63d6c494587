//! The benchmark's inputs: reproducible from the seed, and each family's
//! known answer actually holds.

use std::collections::BTreeSet;
use std::sync::Arc;

use bdrst_core::engine::{EngineConfig, Strategy};
use bdrst_core::localdrf::{check_local_drf, sc_race_freedom, sc_race_freedom_reduced, DrfStatus};
use bdrst_core::trace::LocPredicate;
use bdrst_lang::Program;
use bdrst_perfbench::families::{small_program, Family, Rng};
use bdrst_perfbench::workload::{
    cold_cycle, warm_pool, WarmStream, Workload, EXPLORE_CYCLE, RACES_CYCLE,
};
use bdrst_race::{detect_races_program, DetectorConfig};

fn smallest_families() -> Vec<Family> {
    let mut seen = BTreeSet::new();
    EXPLORE_CYCLE
        .iter()
        .chain(RACES_CYCLE.iter())
        .map(|s| s.family.smallest())
        .filter(|f| seen.insert(f.label()))
        .collect()
}

fn sources(workload: Workload, seed: u64) -> Vec<String> {
    (0..3)
        .flat_map(|c| cold_cycle(workload, seed, c))
        .flatten()
        .map(|r| format!("{:?} {:?}\n{}", r.cmd, r.max_traces, r.prog.source))
        .collect()
}

#[test]
fn the_same_seed_gives_byte_identical_sources() {
    for w in [Workload::ExploreCold, Workload::RacesCold] {
        assert_eq!(sources(w, 7), sources(w, 7), "{}", w.name());
        assert_ne!(sources(w, 7), sources(w, 8), "{}", w.name());
    }
    let pool = |seed| -> Vec<String> { warm_pool(seed).iter().map(|p| p.source.clone()).collect() };
    assert_eq!(pool(3), pool(3));
    assert_ne!(pool(3), pool(4));
    let fresh = |seed| -> Vec<String> {
        let mut stream = WarmStream::new(Arc::new(warm_pool(seed)), seed, 1);
        (0..200)
            .map(|i| stream.next_request(f64::from(i) * 0.01))
            .map(|r| format!("{:?}\n{}", r.cmd, r.prog.source))
            .collect()
    };
    assert_eq!(fresh(3), fresh(3));
}

#[test]
fn known_answers_hold_at_the_smallest_size() {
    let config = EngineConfig::default();
    for family in smallest_families() {
        let label = family.label();
        let answer = family.answer();
        let program = Program::parse(&family.source(&mut Rng::new(11)))
            .unwrap_or_else(|e| panic!("{label}: {e}"));

        // DFS and work-stealing visit the same canonical states, and the
        // operational outcomes equal the axiomatic ones.
        let (dfs, dfs_stats) = program.state_graph_with(config, Strategy::Dfs).unwrap();
        let (_, ws_stats) = program
            .state_graph_with(config, Strategy::WorkStealing)
            .unwrap();
        assert_eq!(dfs_stats.visited, ws_stats.visited, "{label}: state counts");
        let op = program.outcomes_from_graph(&dfs).set().clone();
        let ax = bdrst_axiomatic::axiomatic_outcomes(&program, Default::default()).unwrap();
        assert_eq!(op == ax, answer.models_agree, "{label}: op ≡ ax");

        // DPOR and the full enumeration agree on race polarity, and so
        // does the detector the server's `check-races` uses.
        let full = sc_race_freedom(&program.locs, program.initial_machine(), config).unwrap();
        let reduced =
            sc_race_freedom_reduced(&program.locs, program.initial_machine(), config).unwrap();
        let free = |s: &DrfStatus| matches!(s, DrfStatus::RaceFree);
        assert_eq!(free(&full), free(&reduced), "{label}: DPOR ≡ full");
        assert_eq!(free(&full), answer.racefree, "{label}: race freedom");
        let report = detect_races_program(&program, config, DetectorConfig::default()).unwrap();
        assert_eq!(report.racy(), answer.racy, "{label}: detector");

        // Local DRF over every nonatomic location.
        let mut l = LocPredicate::default();
        for loc in program.locs.nonatomic() {
            l.insert(loc);
        }
        let holds = check_local_drf(&program.locs, program.initial_machine(), &l, config).is_ok();
        assert_eq!(holds, answer.holds, "{label}: local DRF");
    }
}

#[test]
fn small_programs_parse_and_markers_make_them_distinct() {
    let mut seen = BTreeSet::new();
    for marker in 0..50 {
        let source = small_program(&mut Rng::new(5), 100 + marker);
        let program = Program::parse(&source).unwrap_or_else(|e| panic!("{e}\n{source}"));
        assert_eq!(program.threads.len(), 2);
        assert!(seen.insert(program.to_source()), "duplicate program");
    }
}
