//! The pruned axiomatic search against the unpruned enumeration.
//!
//! `consistent_executions` cuts infeasible thread-alternative choices,
//! builds events only for accessed locations and offers only rf/co
//! choices that respect `po`. None of that may change an answer: on the
//! litmus corpus, on generated programs and on small copies of the
//! benchmark's program families, it must find the same observations and
//! the same number of consistent executions as the sequential unpruned
//! oracle `consistent_executions_streaming`.

use std::collections::BTreeSet;

use proptest::prelude::*;

mod common;
use common::{mp_chain, names, small_program, Src};

use bdrst::axiomatic::{
    consistent_executions, consistent_executions_streaming, for_each_candidate, generate,
    EnumError, EnumLimits, ProgramExecution,
};
use bdrst::lang::{Observation, Program};
use bdrst::litmus::all_tests;

/// Observations and execution count of one enumeration.
fn summary(execs: &[ProgramExecution]) -> (BTreeSet<Observation>, usize) {
    (
        execs.iter().map(ProgramExecution::observation).collect(),
        execs.len(),
    )
}

/// Asserts the search and the oracle agree on `p`; `name` labels failures.
fn assert_pruned_matches_oracle(name: &str, p: &Program) {
    let pruned = consistent_executions(p, EnumLimits::default())
        .unwrap_or_else(|e| panic!("{name}: search failed: {e}"));
    let oracle = consistent_executions_streaming(p, EnumLimits::default())
        .unwrap_or_else(|e| panic!("{name}: oracle failed: {e}"));
    let (pruned_obs, pruned_n) = summary(&pruned);
    let (oracle_obs, oracle_n) = summary(&oracle);
    assert_eq!(pruned_obs, oracle_obs, "{name}: observation sets diverge");
    assert_eq!(pruned_n, oracle_n, "{name}: execution counts diverge");
}

#[test]
fn corpus_pruned_matches_streaming() {
    for t in all_tests() {
        assert_pruned_matches_oracle(t.name, &Program::parse(t.source).unwrap());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn generated_pruned_matches_streaming(p in small_program()) {
        assert_pruned_matches_oracle("generated", &p);
    }
}

// ---------- small copies of the benchmark's program families ----------

/// A chain over `threads` payload slots scattered among `padding`
/// declared locations that nothing else touches.
fn wide(threads: usize, padding: usize) -> String {
    let mut s = Src::default();
    s.decl("nonatomic", &names("w", padding));
    let data: Vec<String> = (0..threads)
        .map(|i| format!("w{}", (i * padding) / threads + 1))
        .collect();
    s.chain(&data);
    s.0
}

fn sb_at(threads: usize, writes: usize) -> String {
    let mut s = Src::default();
    s.decl("atomic", &names("A", threads));
    for i in 0..threads {
        let mut body: Vec<String> = (0..writes).map(|w| format!("A{i} = {};", w + 1)).collect();
        body.push(format!("r0 = A{};", (i + 1) % threads));
        s.thread(i, &body);
    }
    s.0
}

fn iriw_at(writers: usize) -> String {
    let mut s = Src::default();
    s.decl("atomic", &names("A", writers));
    for i in 0..writers {
        s.thread(i, &[format!("A{i} = {};", i + 1)]);
    }
    let read = |i: usize| format!("r{i} = A{i};");
    s.thread(writers, &(0..writers).map(read).collect::<Vec<_>>());
    s.thread(
        writers + 1,
        &(0..writers).rev().map(read).collect::<Vec<_>>(),
    );
    s.0
}

fn indep(threads: usize, writes: usize) -> String {
    let mut s = Src::default();
    s.decl("nonatomic", &names("x", threads));
    for i in 0..threads {
        let body: Vec<String> = (0..writes).map(|w| format!("x{i} = {};", w + 1)).collect();
        s.thread(i, &body);
    }
    s.0
}

fn mp(payload: usize, readers: usize) -> String {
    let mut s = Src::default();
    s.decl("nonatomic", &names("d", payload));
    s.decl("atomic", &["f".to_string()]);
    let mut writer: Vec<String> = (0..payload).map(|j| format!("d{j} = {};", j + 1)).collect();
    writer.push("f = 1;".to_string());
    s.thread(0, &writer);
    for t in 1..=readers {
        let mut body = vec!["r0 = f;".to_string()];
        body.extend((0..payload).map(|j| format!("r{} = d{j};", j + 1)));
        s.thread(t, &body);
    }
    s.0
}

#[test]
fn benchmark_shapes_pruned_matches_streaming() {
    for (name, src) in [
        ("mp-chain-5", mp_chain(5)),
        ("wide-4of16", wide(4, 16)),
        ("sb-at-3x3", sb_at(3, 3)),
        ("sb-at-3x2", sb_at(3, 2)),
        ("iriw-at-3", iriw_at(3)),
        ("indep-4x2", indep(4, 2)),
        ("mp-2x2", mp(2, 2)),
    ] {
        let p = Program::parse(&src).unwrap_or_else(|e| panic!("{name}: {e}\n{src}"));
        assert_pruned_matches_oracle(name, &p);
    }
}

// ---------- the budget ----------

#[test]
fn budget_counts_search_nodes() {
    // Store buffering: every alternative's read value is written by the
    // other thread, so the search cuts nothing. It tries a0 alternatives
    // for P0 and a0 * a1 for P1, and each combination has exactly one
    // rf/co candidate. The unpruned oracle spends one unit per candidate
    // only.
    let p = Program::parse(
        "nonatomic a b;
         thread P0 { a = 1; r0 = b; }
         thread P1 { b = 1; r1 = a; }",
    )
    .unwrap();
    let alts: Vec<usize> = generate(&p, Default::default())
        .unwrap()
        .per_thread
        .iter()
        .map(Vec::len)
        .collect();
    let nodes = alts[0] + alts[0] * alts[1];
    let candidates = alts[0] * alts[1];
    let with = |max_candidates| EnumLimits {
        max_candidates,
        ..EnumLimits::default()
    };
    assert_eq!(
        consistent_executions(&p, with(nodes - 1)),
        Err(EnumError::TooManyCandidates),
        "a budget below the node count must trip the search"
    );
    assert!(consistent_executions_streaming(&p, with(candidates)).is_ok());
    assert_eq!(
        consistent_executions(&p, with(nodes + candidates - 1)),
        Err(EnumError::TooManyCandidates)
    );
    assert_eq!(
        consistent_executions(&p, with(nodes + candidates))
            .unwrap()
            .len(),
        candidates
    );
}

// ---------- the consistency predicate ----------

#[test]
fn is_consistent_equals_the_three_axioms_on_corpus_candidates() {
    // `is_consistent` shares one `hb` and one `fr` between the axioms;
    // the per-axiom methods build their own.
    for t in all_tests() {
        let p = Program::parse(t.source).unwrap();
        for_each_candidate(&p, EnumLimits::default(), |pe| {
            let e = &pe.exec;
            assert_eq!(
                e.is_consistent(),
                e.causality_holds() && e.coww_holds() && e.cowr_holds(),
                "{}: is_consistent disagrees with its axioms on\n{e}",
                t.name
            );
        })
        .unwrap_or_else(|e| panic!("{}: {e}", t.name));
    }
}
