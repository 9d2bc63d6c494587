//! The paper's concrete claims, end to end: §2's examples behave
//! sequentially under the model, and the anomalies of C++/Java are
//! reproduced as hardware/optimiser artefacts the model rules out.

use bdrst::core::engine::EngineConfig;
use bdrst::hw::{hw_outcomes, Target, NAIVE};
use bdrst::lang::Program;
use bdrst::litmus::{all_tests, run_test, RunConfig};
use bdrst::opt::validate_in_context;

#[test]
fn whole_corpus_matches_model_verdicts() {
    for t in all_tests() {
        let rep = run_test(t, RunConfig::default()).unwrap();
        assert!(rep.passes(), "{}: {:?}", t.name, rep);
    }
}

#[test]
fn example1_cpp_rematerialisation_is_caught() {
    // The §2.1 miscompilation: b = a + 10 rematerialised as b = c. The
    // transformed thread is observably wrong in the racing context.
    let p = Program::parse(
        "nonatomic a b c;
         thread P0 { t = a + 10; c = t; b = t; }
         thread P1 { c = 1; }",
    )
    .unwrap();
    let orig = p.threads[0].body.clone();
    // Miscompiled: spill t to c, rematerialise from c: b = c.
    let bad = Program::parse(
        "nonatomic a b c;
         thread P0 { t = a + 10; c = t; b = c; }
         thread P1 { c = 1; }",
    )
    .unwrap()
    .threads[0]
        .body
        .clone();
    let ctx = vec![p.threads[1].body.clone()];
    let rep = validate_in_context(&p.locs, &orig, &bad, &ctx, EngineConfig::default()).unwrap();
    assert!(
        !rep.refines(),
        "rematerialisation from a raced location must be observable (b = 1 appears)"
    );
}

#[test]
fn example3_future_race_visible_on_naive_arm_only() {
    // §2.2 Example 3: model forbids out ≠ 42; the naive ARM mapping allows
    // it (the hardware reorders the read past the publishing store).
    let p = Program::parse(
        "nonatomic x g out;
         thread P0 { x = 42; out = x; g = 1; }
         thread P1 { r = g; if (r == 1) { x = 7; } }",
    )
    .unwrap();
    let model = p.outcomes(EngineConfig::default()).unwrap();
    assert!(model.all(|o| o.mem_named("out") == Some(42)));
    let naive = hw_outcomes(&p, Target::Arm(NAIVE), Default::default()).unwrap();
    let out = p.locs.by_name("out").unwrap();
    assert!(
        naive
            .iter()
            .any(|o| o.memory(out) != Some(bdrst::core::Val(42))),
        "naive ARM must exhibit the future-race anomaly"
    );
}

#[test]
fn example2_reads_agree_once_race_is_past() {
    let p = Program::parse(
        "nonatomic a b c; atomic flag;
         thread P0 { a = 1; flag = 1; }
         thread P1 { a = 2; f = flag; b = a; c = a; }",
    )
    .unwrap();
    let outcomes = p.outcomes(EngineConfig::default()).unwrap();
    // f = 1 ⇒ b = c (the race is in the past); f = 0 may split them.
    assert!(outcomes
        .all(|o| { o.reg_named("P1", "f") != Some(1) || o.mem_named("b") == o.mem_named("c") }));
    assert!(outcomes
        .any(|o| { o.reg_named("P1", "f") == Some(0) && o.mem_named("b") != o.mem_named("c") }));
}
