//! Cross-semantics differential suite: for the full litmus corpus *and*
//! ≥ 100 randomly generated programs, the operational final-state set
//! (every engine strategy) must equal the axiomatic consistent-execution
//! final-state set (sequential streaming *and* odometer-sharded) — four
//! independently computed sets, one answer.
//!
//! This is the harness the parallel decompositions are locked down by:
//! checker verdicts and outcome sets are exactly the kind of output that
//! silently diverges under parallel decomposition, so every sharded path
//! is compared against its sequential oracle on every program.

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
        .set()
        .clone()
}

/// The axiomatic outcome set via the sharded enumeration.
fn axiomatic_sharded(p: &Program) -> BTreeSet<Observation> {
    consistent_executions(p, EnumLimits::default())
        .expect("axiomatic enumeration fits budget")
        .iter()
        .map(ProgramExecution::observation)
        .collect()
}

/// The axiomatic outcome set via the fully sequential streaming odometer.
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
    let ax_shard = axiomatic_sharded(p);
    assert_eq!(
        ax_stream, ax_shard,
        "{name}: axiomatic streaming vs sharded diverge"
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
    // Sharding the odometer partitions the candidate space: the number
    // of consistent executions (not just distinct observations) must be
    // preserved shard-for-shard.
    for t in all_tests() {
        let p = Program::parse(t.source).unwrap();
        let sharded = consistent_executions(&p, EnumLimits::default())
            .unwrap_or_else(|e| panic!("{}: {e}", t.name));
        let streamed = consistent_executions_streaming(&p, EnumLimits::default())
            .unwrap_or_else(|e| panic!("{}: {e}", t.name));
        assert_eq!(
            sharded.len(),
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
    /// work-stealing) == axiomatic (streaming and sharded).
    #[test]
    fn generated_operational_equals_axiomatic_sequential_and_sharded(p in small_program()) {
        assert_all_agree("generated", &p);
    }
}
