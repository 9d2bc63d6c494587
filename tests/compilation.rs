//! Theorems 19/20 across the corpus, plus the negative results: the naive
//! ARM mapping admits load buffering and the bare-stlr mapping admits the
//! §9.2 outcome.

use bdrst::axiomatic::{axiomatic_outcomes, EnumLimits};
use bdrst::hw::{check_compilation, hw_outcomes, Target, BAL, FBS, NAIVE, SRA, STLR_SC};
use bdrst::lang::Program;
use bdrst::litmus::all_tests;

fn corpus() -> Vec<(&'static str, Program)> {
    all_tests()
        .into_iter()
        .map(|t| (t.name, Program::parse(t.source).unwrap()))
        .collect()
}

#[test]
fn theorem_19_x86_sound_across_corpus() {
    for (name, p) in corpus() {
        let v = check_compilation(&p, Target::X86, EnumLimits::default()).unwrap();
        assert!(v.is_sound(), "{name}: x86 compilation unsound");
    }
}

#[test]
fn theorem_20_arm_sound_across_corpus() {
    for scheme in [BAL, FBS, SRA] {
        for (name, p) in corpus() {
            let v = check_compilation(&p, Target::Arm(scheme), EnumLimits::default()).unwrap();
            assert!(
                v.is_sound(),
                "{name}: ARM compilation unsound under {scheme:?}"
            );
        }
    }
}

#[test]
fn naive_mapping_fails_exactly_on_load_buffering() {
    let lb = Program::parse(
        "nonatomic a b;
         thread P0 { r0 = a; b = 1; }
         thread P1 { r1 = b; a = 1; }",
    )
    .unwrap();
    let v = check_compilation(&lb, Target::Arm(NAIVE), EnumLimits::default()).unwrap();
    assert!(!v.is_sound());
}

#[test]
fn stlr_mapping_fails_on_sec92() {
    let p = Program::parse(
        "nonatomic b; atomic A;
         thread P0 { x = b; A = 1; }
         thread P1 { A = 2; b = 1; }",
    )
    .unwrap();
    let v = check_compilation(&p, Target::Arm(STLR_SC), EnumLimits::default()).unwrap();
    assert!(!v.is_sound());
    // The exchange-based schemes are fine on the same program.
    for scheme in [BAL, FBS] {
        let v = check_compilation(&p, Target::Arm(scheme), EnumLimits::default()).unwrap();
        assert!(v.is_sound());
    }
}

#[test]
fn hardware_outcomes_subset_of_model_for_sound_schemes() {
    for (name, p) in corpus() {
        let sw = axiomatic_outcomes(&p, EnumLimits::default()).unwrap();
        for (tname, t) in [("x86", Target::X86), ("bal", Target::Arm(BAL))] {
            let hw = hw_outcomes(&p, t, EnumLimits::default()).unwrap();
            assert!(
                hw.is_subset(&sw),
                "{name}/{tname}: hardware exhibits model-forbidden outcomes"
            );
        }
    }
}
