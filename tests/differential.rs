//! Cross-semantics differential suite: for the full litmus corpus *and*
//! ≥ 100 randomly generated programs, the operational final-state set
//! (every engine strategy) must equal the axiomatic consistent-execution
//! final-state set (the unpruned streaming oracle *and* the pruned,
//! sharded search) — four independently computed sets, one answer.
//!
//! This is the harness the parallel decompositions are locked down by:
//! checker verdicts and outcome sets are exactly the kind of output that
//! silently diverges under parallel decomposition or pruning, so every
//! such path is compared against its sequential oracle on every program.

use std::collections::BTreeSet;

use proptest::prelude::*;

mod common;
use common::small_program;

use bdrst::axiomatic::{
    consistent_executions, consistent_executions_streaming, EnumLimits, ProgramExecution,
};
use bdrst::core::engine::{EngineConfig, Strategy as EngineStrategy};
use bdrst::lang::{Observation, Program};
use bdrst::litmus::all_tests;

/// The operational outcome set under one engine strategy.
fn operational(p: &Program, strategy: EngineStrategy) -> BTreeSet<Observation> {
    p.outcomes_with(EngineConfig::default(), strategy)
        .expect("operational exploration fits budget")
        .0
        .set()
        .clone()
}

/// The axiomatic outcome set via the pruned search.
fn axiomatic_pruned(p: &Program) -> BTreeSet<Observation> {
    consistent_executions(p, EnumLimits::default())
        .expect("axiomatic enumeration fits budget")
        .iter()
        .map(ProgramExecution::observation)
        .collect()
}

/// The axiomatic outcome set via the unpruned sequential odometer.
fn axiomatic_streaming(p: &Program) -> BTreeSet<Observation> {
    consistent_executions_streaming(p, EnumLimits::default())
        .expect("axiomatic enumeration fits budget")
        .iter()
        .map(ProgramExecution::observation)
        .collect()
}

/// Asserts all four outcome sets of `p` coincide; `name` labels failures.
fn assert_all_agree(name: &str, p: &Program) {
    let op_seq = operational(p, EngineStrategy::Dfs);
    let op_ws = operational(p, EngineStrategy::WorkStealing);
    assert_eq!(
        op_seq, op_ws,
        "{name}: operational DFS vs work-stealing diverge"
    );
    let ax_stream = axiomatic_streaming(p);
    let ax_pruned = axiomatic_pruned(p);
    assert_eq!(
        ax_stream, ax_pruned,
        "{name}: axiomatic streaming vs pruned diverge"
    );
    assert_eq!(
        op_seq, ax_stream,
        "{name}: operational vs axiomatic outcome sets diverge"
    );
}

#[test]
fn corpus_operational_equals_axiomatic_sequential_and_sharded() {
    for t in all_tests() {
        let p = Program::parse(t.source).unwrap();
        assert_all_agree(t.name, &p);
    }
}

#[test]
fn corpus_axiomatic_execution_counts_match() {
    // Pruning drops only inconsistent candidates and sharding splits
    // the search tree: the number of consistent executions (not just
    // distinct observations) must be preserved.
    for t in all_tests() {
        let p = Program::parse(t.source).unwrap();
        let pruned = consistent_executions(&p, EnumLimits::default())
            .unwrap_or_else(|e| panic!("{}: {e}", t.name));
        let streamed = consistent_executions_streaming(&p, EnumLimits::default())
            .unwrap_or_else(|e| panic!("{}: {e}", t.name));
        assert_eq!(
            pruned.len(),
            streamed.len(),
            "{}: consistent execution counts diverge",
            t.name
        );
    }
}

// ---------- generated programs ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// ≥ 100 generated programs: operational (sequential and
    /// work-stealing) == axiomatic (streaming and pruned).
    #[test]
    fn generated_operational_equals_axiomatic_sequential_and_sharded(p in small_program()) {
        assert_all_agree("generated", &p);
    }
}
