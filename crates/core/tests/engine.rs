//! Integration tests for the exploration engine: budget exhaustion,
//! agreement of the sequential walk and the work-stealing graph recorder
//! on the message-passing and store-buffering shapes, and determinism of
//! canonical hashing.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

use bdrst_core::engine::{
    canonicalize, CanonState, Control, EngineConfig, EngineError, StateId, Strategy,
    WorkStealingEngine, WorklistEngine,
};
use bdrst_core::explore::reachable_terminals;
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

/// The read values of one terminal state, thread by thread.
fn reads<'a>(exprs: impl Iterator<Item = &'a RecordedExpr>) -> Vec<i64> {
    exprs.flat_map(|e| e.reads.iter().map(|v| v.0)).collect()
}

/// The canonical terminal outcome set under one strategy: the sequential
/// visitor walk for `Dfs`, the terminal states of the work-stealing
/// graph recorder (four workers) for `WorkStealing`.
fn outcomes(locs: &LocSet, m0: Machine<RecordedExpr>, strategy: Strategy) -> BTreeSet<Vec<i64>> {
    let cfg = EngineConfig::default();
    match strategy {
        Strategy::WorkStealing => {
            let (graph, _) = WorkStealingEngine::with_threads(cfg, 4)
                .explore_graph(locs, m0)
                .unwrap();
            graph
                .terminal_ids()
                .map(|id| reads(graph.state(id).thread_exprs()))
                .collect()
        }
        _ => reachable_terminals(locs, m0, cfg)
            .unwrap()
            .iter()
            .map(|m| reads(m.threads.iter().map(|t| &t.expr)))
            .collect(),
    }
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
    let cfg = EngineConfig::default();
    let mut dfs = 0usize;
    WorklistEngine::new(cfg)
        .explore(
            &locs,
            message_passing(&locs, a, f),
            &mut |_: &Machine<RecordedExpr>, _: StateId| {
                dfs += 1;
                Control::Continue
            },
        )
        .unwrap();
    for threads in [2, 8] {
        let (graph, stats) = WorkStealingEngine::with_threads(cfg, threads)
            .explore_graph(&locs, message_passing(&locs, a, f))
            .unwrap();
        assert_eq!(graph.len(), dfs, "{threads} workers");
        assert_eq!(stats.visited, dfs, "{threads} workers");
    }
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
    let runs = [
        (
            "dfs",
            reachable_terminals(&locs, m0.clone(), tiny).map(drop),
        ),
        (
            "work-stealing",
            WorkStealingEngine::with_threads(tiny, 4)
                .explore_graph(&locs, m0)
                .map(drop),
        ),
    ];
    for (engine, r) in runs {
        match r {
            Err(EngineError::BudgetExceeded { visited }) => {
                assert!(visited > tiny.max_states, "{engine}: visited={visited}")
            }
            other => panic!("{engine}: expected budget error, got {other:?}"),
        }
    }
}

/// The full-state interning hash: `DefaultHasher` with its default keys.
fn canon_hash(c: &CanonState<RecordedExpr>) -> u64 {
    let mut h = DefaultHasher::new();
    c.hash(&mut h);
    h.finish()
}

#[test]
fn canonical_hashing_is_deterministic() {
    // Build the same logical machine twice, independently, and compare
    // the hashes the full-state interner probes by. DefaultHasher with
    // default keys is deterministic across processes within a toolchain,
    // so equality of independently computed hashes is the per-run
    // witness.
    let (locs, a, _b, f) = locs_abf();
    let c1 = canonicalize(&locs, &message_passing(&locs, a, f)).unwrap();
    let c2 = canonicalize(&locs, &message_passing(&locs, a, f)).unwrap();
    assert_eq!(canon_hash(&c1), canon_hash(&c2));
    assert_eq!(c1, c2);

    // And through an actual run: explore MP twice, collecting canonical
    // hashes of every visited state; the multisets must coincide.
    let hashes = |m0: Machine<RecordedExpr>| {
        let mut hs: Vec<u64> = Vec::new();
        WorklistEngine::new(EngineConfig::default())
            .explore(&locs, m0, &mut |m: &Machine<RecordedExpr>, _: StateId| {
                hs.push(canon_hash(&canonicalize(&locs, m).unwrap()));
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
