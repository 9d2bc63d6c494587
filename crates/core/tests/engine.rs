//! Integration tests for the exploration engine: budget exhaustion,
//! DFS/work-stealing agreement on the message-passing and store-buffering
//! shapes, and determinism of canonical hashing.

use std::collections::BTreeSet;

use bdrst_core::engine::{
    canonicalize, Control, EngineConfig, EngineError, Explorer, Hashed, StateId, Strategy,
    WorkStealingEngine, WorklistEngine,
};
use bdrst_core::explore::reachable_terminals_with;
use bdrst_core::loc::{Loc, LocKind, LocSet, Val};
use bdrst_core::machine::{Machine, RecordedExpr, StepLabel};

fn locs_abf() -> (LocSet, Loc, Loc, Loc) {
    let mut l = LocSet::new();
    let a = l.fresh("a", LocKind::Nonatomic);
    let b = l.fresh("b", LocKind::Nonatomic);
    let f = l.fresh("F", LocKind::Atomic);
    (l, a, b, f)
}

/// MP: P0: a = 1; F = 1    P1: r0 = F; r1 = a.
fn message_passing(locs: &LocSet, a: Loc, f: Loc) -> Machine<RecordedExpr> {
    let p0 = RecordedExpr::new(vec![
        StepLabel::Write(a, Val(1)),
        StepLabel::Write(f, Val(1)),
    ]);
    let p1 = RecordedExpr::new(vec![StepLabel::Read(f), StepLabel::Read(a)]);
    Machine::initial(locs, [p0, p1])
}

/// SB: P0: a = 1; r0 = b    P1: b = 1; r1 = a.
fn store_buffering(locs: &LocSet, a: Loc, b: Loc) -> Machine<RecordedExpr> {
    let p0 = RecordedExpr::new(vec![StepLabel::Write(a, Val(1)), StepLabel::Read(b)]);
    let p1 = RecordedExpr::new(vec![StepLabel::Write(b, Val(1)), StepLabel::Read(a)]);
    Machine::initial(locs, [p0, p1])
}

/// The canonical terminal outcome set under one strategy.
fn outcomes(locs: &LocSet, m0: Machine<RecordedExpr>, strategy: Strategy) -> BTreeSet<Vec<i64>> {
    reachable_terminals_with(locs, m0, EngineConfig::default(), strategy)
        .unwrap()
        .iter()
        .map(|m| {
            m.threads
                .iter()
                .flat_map(|t| t.expr.reads.iter().map(|v| v.0))
                .collect()
        })
        .collect()
}

#[test]
fn strategies_agree_on_message_passing() {
    let (locs, a, _b, f) = locs_abf();
    let dfs = outcomes(&locs, message_passing(&locs, a, f), Strategy::Dfs);
    let ws = outcomes(&locs, message_passing(&locs, a, f), Strategy::WorkStealing);
    assert_eq!(dfs, ws);
    // The MP guarantee itself: flag read 1 implies payload read 1.
    assert!(!dfs.contains(&vec![1, 0]));
    assert!(dfs.contains(&vec![1, 1]));
}

#[test]
fn strategies_agree_on_store_buffering() {
    let (locs, a, b, _f) = locs_abf();
    let dfs = outcomes(&locs, store_buffering(&locs, a, b), Strategy::Dfs);
    let ws = outcomes(&locs, store_buffering(&locs, a, b), Strategy::WorkStealing);
    assert_eq!(dfs, ws);
    // SB is racy: all four read combinations appear.
    assert_eq!(dfs.len(), 4);
}

#[test]
fn strategies_agree_on_visited_state_counts() {
    // Not just terminals: the engines must visit the *same* canonical
    // state set, so the visited counts coincide.
    let (locs, a, _b, f) = locs_abf();
    let count = |e: &dyn Explorer<RecordedExpr>| {
        let mut n = 0usize;
        e.explore(
            &locs,
            message_passing(&locs, a, f),
            &mut |_: &Machine<RecordedExpr>, _: StateId| {
                n += 1;
                Control::Continue
            },
        )
        .unwrap();
        n
    };
    let cfg = EngineConfig::default();
    let dfs = count(&WorklistEngine::new(cfg));
    let ws2 = count(&WorkStealingEngine::with_threads(cfg, 2));
    let ws8 = count(&WorkStealingEngine::with_threads(cfg, 8));
    assert_eq!(dfs, ws2);
    assert_eq!(dfs, ws8);
}

#[test]
fn budget_exhaustion_is_uniform_across_engines() {
    let (locs, a, _, _) = locs_abf();
    let mk = || RecordedExpr::new(vec![StepLabel::Write(a, Val(1)); 6]);
    let m0 = Machine::initial(&locs, [mk(), mk(), mk()]);
    let tiny = EngineConfig {
        max_states: 10,
        max_traces: 10,
    };
    for strategy in [Strategy::Dfs, Strategy::WorkStealing] {
        let r = reachable_terminals_with(&locs, m0.clone(), tiny, strategy);
        match r {
            Err(EngineError::BudgetExceeded { visited }) => {
                assert!(visited > tiny.max_states, "{strategy:?}: visited={visited}")
            }
            other => panic!("{strategy:?}: expected budget error, got {other:?}"),
        }
    }
}

#[test]
fn canonical_hashing_is_deterministic() {
    // Build the same logical machine twice, independently, and compare
    // the one-shot hashes the interner stores. DefaultHasher with default
    // keys is deterministic across processes within a toolchain, so
    // equality of independently computed hashes is the per-run witness.
    let (locs, a, _b, f) = locs_abf();
    let h1 = Hashed::new(canonicalize(&locs, &message_passing(&locs, a, f)).unwrap());
    let h2 = Hashed::new(canonicalize(&locs, &message_passing(&locs, a, f)).unwrap());
    assert_eq!(h1.hash64(), h2.hash64());
    assert_eq!(h1, h2);

    // And through an actual run: explore MP twice, collecting canonical
    // hashes of every visited state; the multisets must coincide.
    let hashes = |m0: Machine<RecordedExpr>| {
        let mut hs: Vec<u64> = Vec::new();
        WorklistEngine::new(EngineConfig::default())
            .explore(&locs, m0, &mut |m: &Machine<RecordedExpr>, _: StateId| {
                hs.push(Hashed::new(canonicalize(&locs, m).unwrap()).hash64());
                Control::Continue
            })
            .unwrap();
        hs.sort_unstable();
        hs
    };
    assert_eq!(
        hashes(message_passing(&locs, a, f)),
        hashes(message_passing(&locs, a, f))
    );
}
