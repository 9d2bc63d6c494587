//! Local-DRF differential suite: the production `check-localdrf` lane
//! replays Theorem 13 over a recorded trace graph
//! (`check_local_drf_replayed`); the live walk (`check_local_drf`) is
//! its oracle. On the whole litmus corpus and on 128 generated
//! programs, with `L` = every nonatomic location and each singleton,
//! both must return the same verdict and statistics, and the replay must
//! not probe the transition semantics at all.
//!
//! The probe counter is process-global, so this file deliberately holds
//! a **single** test — sibling tests in the same binary would race it.
//! The generated programs are therefore drawn by hand from the shared
//! generator instead of through `proptest!`.

use proptest::prelude::*;

mod common;
use common::small_program;

use bdrst::core::engine::{EngineConfig, TraceEngine};
use bdrst::core::localdrf::{check_local_drf, check_local_drf_replayed};
use bdrst::core::machine::semantics_probes;
use bdrst::core::trace::LocPredicate;
use bdrst::lang::Program;
use bdrst::litmus::all_tests;

fn check_program(name: &str, p: &Program) {
    let cfg = EngineConfig::default();
    let nonatomics: Vec<_> = p.locs.nonatomic().collect();
    let mut l_sets: Vec<LocPredicate> = vec![nonatomics.iter().copied().collect()];
    l_sets.extend(nonatomics.iter().map(|&l| LocPredicate::from([l])));
    let (graph, _) = TraceEngine::new(cfg)
        .record(&p.locs, p.initial_machine())
        .unwrap_or_else(|e| panic!("{name}: recording failed: {e}"));
    for l in &l_sets {
        let live = check_local_drf(&p.locs, p.initial_machine(), l, cfg);
        let before = semantics_probes();
        let replayed = check_local_drf_replayed(&p.locs, &graph, l, cfg);
        assert_eq!(
            semantics_probes(),
            before,
            "{name}: replay probed the semantics"
        );
        assert_eq!(live, replayed, "{name}: L = {l:?}");
        assert!(live.is_ok(), "{name}: Theorem 13 fails for L = {l:?}");
    }
}

#[test]
fn replayed_local_drf_matches_live_without_semantics() {
    for t in all_tests() {
        check_program(t.name, &Program::parse(t.source).unwrap());
    }
    let programs = small_program();
    let mut rng = proptest::TestRng::new(0x10ca_1d2f);
    for _ in 0..128 {
        let p = programs.generate(&mut rng);
        check_program(&format!("generated\n{p}"), &p);
    }
}
