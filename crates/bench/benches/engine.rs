//! Criterion benches for the exploration engine: sequential vs per-test
//! parallel corpus sweeps (the multi-test workload the engine refactor
//! targets), and per-strategy single-test exploration probes.
//!
//! `cargo bench --bench engine`. The committed baseline lives in
//! `baselines/engine_baseline.json` (regenerate with the
//! `engine_baseline` binary) so later PRs have a perf trajectory.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bdrst_core::engine::{
    canonical_fingerprint, canonicalize, Control, Dedup, EngineConfig, StateId, Strategy,
    WorklistEngine,
};
use bdrst_core::machine::Machine;
use bdrst_lang::{Program, ThreadState};
use bdrst_litmus::corpus;
use bdrst_litmus::runner::{corpus_passes, run_corpus, run_corpus_sharded, RunConfig};

fn bench_corpus_sequential(c: &mut Criterion) {
    c.bench_function("corpus_sweep_sequential", |b| {
        b.iter(|| {
            let entries = run_corpus(RunConfig::default());
            assert!(corpus_passes(&entries));
            black_box(entries.len())
        })
    });
}

/// The corpus spread test by test over `parallel_map`, each test on
/// sequential DFS.
fn bench_corpus_per_test_dfs(c: &mut Criterion) {
    c.bench_function("corpus_sweep_per_test_dfs", |b| {
        b.iter(|| {
            let entries = run_corpus_sharded(RunConfig::default(), 0);
            assert!(corpus_passes(&entries));
            black_box(entries.len())
        })
    });
}

fn bench_single_test_strategies(c: &mut Criterion) {
    // IRIW (4 threads) has the largest state space in the corpus: the
    // most interesting single-test probe for engine comparisons. The DFS
    // probe times the sequential visitor walk; the work-stealing probe
    // times the pool's state-graph recorder plus reading the outcomes
    // off the graph, which is what `outcomes_with(WorkStealing)` runs.
    let p = Program::parse(corpus::IRIW_AT.source).unwrap();
    for (name, strategy) in [
        ("explore_iriw_dfs", Strategy::Dfs),
        ("explore_iriw_worksteal", Strategy::WorkStealing),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| {
                black_box(
                    p.outcomes_with(EngineConfig::default(), strategy)
                        .unwrap()
                        .0
                        .len(),
                )
            })
        });
    }
}

fn bench_canonicalize_vs_fingerprint(c: &mut Criterion) {
    // Every reachable machine of IRIW, identified two ways: building the
    // full canonical state vs streaming the zero-allocation fingerprint.
    let p = Program::parse(corpus::IRIW_AT.source).unwrap();
    let mut machines: Vec<Machine<ThreadState>> = Vec::new();
    WorklistEngine::new(EngineConfig::default())
        .explore(
            &p.locs,
            p.initial_machine(),
            &mut |m: &Machine<ThreadState>, _: StateId| {
                machines.push(m.clone());
                Control::Continue
            },
        )
        .unwrap();
    c.bench_function("canonicalize_iriw_states", |b| {
        b.iter(|| {
            for m in &machines {
                black_box(canonicalize(&p.locs, m).unwrap());
            }
        })
    });
    c.bench_function("fingerprint_iriw_states", |b| {
        b.iter(|| {
            for m in &machines {
                black_box(canonical_fingerprint(&p.locs, m).unwrap());
            }
        })
    });
}

fn bench_dedup_lanes(c: &mut Criterion) {
    // The sequential DFS corpus explore under each dedup mode: the
    // fingerprint-first lane is the engine default, the full-state lane
    // the seed-equivalent reference.
    let programs: Vec<Program> = corpus::all_tests()
        .iter()
        .map(|t| Program::parse(t.source).unwrap())
        .collect();
    for (name, dedup) in [
        ("corpus_dfs_fingerprint_dedup", Dedup::FingerprintFirst),
        ("corpus_dfs_fullstate_dedup", Dedup::FullState),
    ] {
        let engine = WorklistEngine::with_dedup(EngineConfig::default(), dedup);
        c.bench_function(name, |b| {
            b.iter(|| {
                let mut visited = 0usize;
                for p in &programs {
                    engine
                        .explore(
                            &p.locs,
                            p.initial_machine(),
                            &mut |_: &Machine<ThreadState>, _: StateId| {
                                visited += 1;
                                Control::Continue
                            },
                        )
                        .unwrap();
                }
                black_box(visited)
            })
        });
    }
}

criterion_group!(
    name = engine;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(5));
    targets = bench_corpus_sequential, bench_corpus_per_test_dfs, bench_single_test_strategies,
        bench_canonicalize_vs_fingerprint, bench_dedup_lanes
);
criterion_main!(engine);
