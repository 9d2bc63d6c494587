//! Criterion benches for the model checkers: litmus exploration, axiomatic
//! enumeration, equivalence and compilation-soundness checking. These
//! measure the harness that regenerates the paper's qualitative results.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bdrst_axiomatic::{axiomatic_outcomes, check_equivalence, EnumLimits};
use bdrst_core::engine::EngineConfig;
use bdrst_core::localdrf::check_local_drf;
use bdrst_core::trace::LocPredicate;
use bdrst_hw::{check_compilation, Target, BAL};
use bdrst_lang::Program;
use bdrst_litmus::corpus;

fn mp() -> Program {
    Program::parse(corpus::MP.source).unwrap()
}

fn bench_operational(c: &mut Criterion) {
    let p = mp();
    c.bench_function("operational_outcomes_mp", |b| {
        b.iter(|| black_box(p.outcomes(EngineConfig::default()).unwrap().len()))
    });
}

fn bench_axiomatic(c: &mut Criterion) {
    let p = mp();
    c.bench_function("axiomatic_outcomes_mp", |b| {
        b.iter(|| black_box(axiomatic_outcomes(&p, EnumLimits::default()).unwrap().len()))
    });
}

fn bench_equivalence(c: &mut Criterion) {
    let p = mp();
    c.bench_function("equivalence_mp_thm15_16", |b| {
        b.iter(|| {
            let rep =
                check_equivalence(&p, EngineConfig::default(), EnumLimits::default()).unwrap();
            assert!(rep.holds());
        })
    });
}

fn bench_local_drf(c: &mut Criterion) {
    let p = Program::parse(corpus::SB.source).unwrap();
    let l: LocPredicate = p.locs.nonatomic().collect();
    c.bench_function("local_drf_thm13_sb", |b| {
        b.iter(|| {
            check_local_drf(&p.locs, p.initial_machine(), &l, EngineConfig::default()).unwrap()
        })
    });
}

fn bench_compile(c: &mut Criterion) {
    let p = Program::parse(corpus::LB.source).unwrap();
    c.bench_function("soundness_thm20_lb_bal", |b| {
        b.iter(|| {
            let v = check_compilation(&p, Target::Arm(BAL), EnumLimits::default()).unwrap();
            assert!(v.is_sound());
        })
    });
}

criterion_group!(
    name = checkers;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3));
    targets =
    bench_operational,
    bench_axiomatic,
    bench_equivalence,
    bench_local_drf,
    bench_compile
);
criterion_main!(checkers);
