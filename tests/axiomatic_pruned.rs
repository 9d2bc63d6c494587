//! The pruned axiomatic search against the unpruned enumeration, and the
//! consistency kernel against the paper's axioms.
//!
//! `consistent_executions` cuts infeasible and inconsistent
//! thread-alternative prefixes, builds events only for accessed locations
//! and offers only rf/co choices that respect `po`. None of that may
//! change an answer: on the litmus corpus, on generated programs and on
//! small copies of the benchmark's program families, it must find the
//! same observations and the same number of consistent executions as the
//! sequential unpruned oracle `consistent_executions_streaming`.
//!
//! `CandidateExecution::is_consistent` decides the axioms in linear
//! passes; on every candidate of the same programs it must agree with the
//! paper-literal axioms and with Theorem 18's characterisation.

use std::collections::BTreeSet;

use proptest::prelude::*;

mod common;
use common::{mp_chain, names, small_program, three_thread_program, Src};

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

    #[test]
    fn generated_three_threads_pruned_matches_streaming(p in three_thread_program()) {
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

/// Small copies of the benchmark's program families.
fn benchmark_shapes() -> Vec<(&'static str, Program)> {
    [
        ("mp-chain-5", mp_chain(5)),
        ("wide-4of16", wide(4, 16)),
        ("sb-at-3x3", sb_at(3, 3)),
        ("sb-at-3x2", sb_at(3, 2)),
        ("iriw-at-3", iriw_at(3)),
        ("indep-4x2", indep(4, 2)),
        ("mp-2x2", mp(2, 2)),
    ]
    .into_iter()
    .map(|(name, src)| {
        let p = Program::parse(&src).unwrap_or_else(|e| panic!("{name}: {e}\n{src}"));
        (name, p)
    })
    .collect()
}

#[test]
fn benchmark_shapes_pruned_matches_streaming() {
    for (name, p) in benchmark_shapes() {
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

#[test]
fn budget_counts_prefix_candidates() {
    // Message passing from P0 to P1, and six more threads that read `a`.
    // P1's four alternatives are each checked as a prefix with P0, and
    // the one that reads f = 1 and a = 0 is cut. Each later reader reads
    // a location an earlier thread writes, so its prefixes are checked
    // too, and none is cut. Every prefix has one candidate, and so has
    // every complete choice.
    let p = Program::parse(
        "nonatomic a; atomic f;
         thread P0 { a = 1; f = 1; }
         thread P1 { r0 = f; r1 = a; }
         thread P2 { r0 = a; }
         thread P3 { r0 = a; }
         thread P4 { r0 = a; }
         thread P5 { r0 = a; }
         thread P6 { r0 = a; }
         thread P7 { r0 = a; }",
    )
    .unwrap();
    let alts: Vec<usize> = generate(&p, Default::default())
        .unwrap()
        .per_thread
        .iter()
        .map(Vec::len)
        .collect();
    assert_eq!(alts, [1, 4, 2, 2, 2, 2, 2, 2]);
    // Nodes: 1 + 4 at depths 1 and 2, then 3 * (2 + 4 + ... + 64) under
    // the three prefixes kept. Prefix candidates: 4 at depth 2, then
    // 3 * (2 + 4 + ... + 32) at depths 3 to 7; the complete choices at
    // depth 8 are not checked as prefixes. Complete candidates: 3 * 64.
    let (nodes, prefix_candidates, candidates) = (5 + 3 * 126, 4 + 3 * 62, 3 * 64);
    let with = |max_candidates| EnumLimits {
        max_candidates,
        ..EnumLimits::default()
    };
    // The breadth-first phase stops at depth 7 with 96 subtrees, which go
    // to the worker pool; the debit does not depend on how they are
    // shared out.
    let total = nodes + prefix_candidates + candidates;
    for _ in 0..3 {
        assert_eq!(
            consistent_executions(&p, with(total - 1)),
            Err(EnumError::TooManyCandidates),
            "prefix candidates are debited"
        );
        assert_eq!(
            consistent_executions(&p, with(total)).unwrap().len(),
            candidates
        );
    }
}

// ---------- the consistency kernel ----------

/// Asserts that on every candidate of `p`, consistent or not,
/// `is_consistent` agrees with the three axioms checked one by one and
/// with Theorem 18's characterisation.
fn assert_kernel_matches_axioms(name: &str, p: &Program) {
    for_each_candidate(p, EnumLimits::default(), |pe| {
        let e = &pe.exec;
        let consistent = e.is_consistent();
        assert_eq!(
            consistent,
            e.causality_holds() && e.coww_holds() && e.cowr_holds(),
            "{name}: is_consistent disagrees with the axioms on\n{e}"
        );
        assert_eq!(
            consistent,
            e.is_consistent_alt(),
            "{name}: is_consistent disagrees with Theorem 18 on\n{e}"
        );
    })
    .unwrap_or_else(|e| panic!("{name}: {e}"));
}

#[test]
fn is_consistent_equals_the_three_axioms_on_corpus_candidates() {
    for t in all_tests() {
        assert_kernel_matches_axioms(t.name, &Program::parse(t.source).unwrap());
    }
}

#[test]
fn kernel_matches_axioms_on_benchmark_shapes() {
    for (name, p) in benchmark_shapes() {
        assert_kernel_matches_axioms(name, &p);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn generated_kernel_matches_axioms(p in small_program()) {
        assert_kernel_matches_axioms("generated", &p);
    }
}
