//! Sequential engines: the iterative state-space worklist, the iterative
//! depth-first trace enumerator ([`TraceEngine::explore`]) and the
//! trace recorder ([`TraceEngine::record`]).
//!
//! [`TraceEngine::record`] records the full trace tree into a
//! [`TraceGraph`], memoized by exact machine: a depth-first walk that
//! closes one row per distinct machine, in post-order, and points every
//! later path to that machine at the closed row. Each walk's trace
//! budget counts the work it does: the live walk its extensions, the
//! recorder its rows.
//!
//! No walk here recurses — each carries an explicit stack — so exploration
//! depth is bounded by heap, not by the thread's call stack.
//!
//! State dedup is fingerprint-first by default ([`Dedup`]): a popped
//! machine is identified by its streaming
//! [`crate::engine::canonical_fingerprint`], and the full
//! [`crate::engine::CanonState`] is only built on first visit (or on a
//! verified fingerprint collision).
//! [`Dedup::FullState`] keeps the build-then-hash path as the reference
//! the dedup and forced-collision suites compare against.

use std::collections::HashMap;

use crate::engine::{
    canonicalize, intern_canonical, timed_walk, Budget, Control, Dedup, EngineConfig, EngineError,
    ExploreStats, StateGraph, StateId, StateInterner, StateVisitor, Step, TraceGraph, TraceVisitor,
};
use crate::loc::LocSet;
use crate::machine::{Expr, Machine, Transition, TransitionLabel};
use crate::trace::TraceLabels;

/// The sequential state-space engine: a depth-first worklist (an
/// explicit stack of machines, identical discovery order to a recursive
/// explorer), deduplicated through a [`StateInterner`] at pop time. It
/// visits exactly the same canonical state set under either [`Dedup`]
/// mode.
#[derive(Clone, Copy, Debug)]
pub struct WorklistEngine {
    /// Budgets.
    pub config: EngineConfig,
    /// Fingerprint-first (default) or full-state reference dedup.
    pub dedup: Dedup,
}

impl WorklistEngine {
    /// An engine with the given budgets (fingerprint dedup).
    pub fn new(config: EngineConfig) -> WorklistEngine {
        WorklistEngine::with_dedup(config, Dedup::default())
    }

    /// An engine with an explicit [`Dedup`] mode.
    pub fn with_dedup(config: EngineConfig, dedup: Dedup) -> WorklistEngine {
        WorklistEngine { config, dedup }
    }

    /// Identifies `m` in the interner under the engine's [`Dedup`] mode.
    fn intern<E: Expr>(
        dedup: Dedup,
        interner: &mut StateInterner<crate::engine::CanonState<E>>,
        locs: &LocSet,
        m: &Machine<E>,
    ) -> Result<(StateId, bool), EngineError> {
        match dedup {
            Dedup::FingerprintFirst => intern_canonical(interner, locs, m),
            Dedup::FullState => Ok(interner.intern(canonicalize(locs, m)?)),
        }
    }

    /// Explores the state space from `m0`, driving `visitor`: it is
    /// invoked exactly once per canonical state reachable from `m0`
    /// (unless pruned or stopped), and the *set* of visited canonical
    /// states is the one every recorder interns — only the visit order
    /// may differ.
    ///
    /// # Errors
    ///
    /// [`EngineError::BudgetExceeded`] if the state budget is exhausted;
    /// [`EngineError::CorruptFrontier`] if a reached machine fails to
    /// canonicalize.
    pub fn explore<E: Expr>(
        &self,
        locs: &LocSet,
        m0: Machine<E>,
        visitor: &mut dyn StateVisitor<E>,
    ) -> Result<ExploreStats, EngineError> {
        timed_walk(
            || self.explore_inner(locs, m0, visitor),
            |stats| stats.visited,
        )
    }

    fn explore_inner<E: Expr>(
        &self,
        locs: &LocSet,
        m0: Machine<E>,
        visitor: &mut dyn StateVisitor<E>,
    ) -> Result<ExploreStats, EngineError> {
        let mut interner: StateInterner<crate::engine::CanonState<E>> = StateInterner::new();
        // `Vec::new` + `push` grows straight to the small-vector
        // capacity; `vec![m0]` would reallocate on the first successor.
        let mut worklist: Vec<Machine<E>> = Vec::new();
        worklist.push(m0);
        let mut stats = ExploreStats::default();
        let mut budget = Budget::new(self.config.max_states);
        while let Some(m) = worklist.pop() {
            let (id, fresh) = Self::intern(self.dedup, &mut interner, locs, &m)?;
            if !fresh {
                continue;
            }
            budget.charge()?;
            stats.visited += 1;
            bdrst_obs::counter_add(bdrst_obs::Counter::StatesVisited, 1);
            bdrst_obs::counter_max(bdrst_obs::Counter::FrontierHighWater, worklist.len() as u64);
            match visitor.visit(&m, id) {
                Control::Stop => return Ok(stats),
                Control::Prune => continue,
                Control::Continue => {}
            }
            for t in m.transitions(locs) {
                stats.transitions += 1;
                worklist.push(t.target);
            }
        }
        Ok(stats)
    }

    /// Fully explores the state space from `m0` (no visitor, no pruning),
    /// recording the interned successor graph: per dense [`StateId`], its
    /// successor ids — one entry per transition — and terminal flag, with
    /// the canonical states retained for replay. Dedup here claims
    /// successors at *expansion* time (the worklist holds only fresh
    /// states), so the visited canonical state set is identical to
    /// [`WorklistEngine::explore`]'s while every edge endpoint has a
    /// known id.
    ///
    /// # Errors
    ///
    /// As [`WorklistEngine::explore`]: budget exhaustion or a corrupted
    /// machine.
    pub fn explore_graph<E: Expr>(
        &self,
        locs: &LocSet,
        m0: Machine<E>,
    ) -> Result<(StateGraph<E>, ExploreStats), EngineError> {
        timed_walk(
            || self.explore_graph_inner(locs, m0),
            |(_, stats)| stats.visited,
        )
    }

    fn explore_graph_inner<E: Expr>(
        &self,
        locs: &LocSet,
        m0: Machine<E>,
    ) -> Result<(StateGraph<E>, ExploreStats), EngineError> {
        let mut interner: StateInterner<crate::engine::CanonState<E>> = StateInterner::new();
        let mut edges: Vec<(StateId, StateId)> = Vec::new();
        let mut terminal: Vec<bool> = Vec::new();
        let mut stats = ExploreStats::default();
        // Meters the visits only: the interner check below trips first,
        // since every visited state was interned before it.
        let mut budget = Budget::new(self.config.max_states);

        let (id0, _) = Self::intern(self.dedup, &mut interner, locs, &m0)?;
        terminal.push(false);
        let mut worklist: Vec<(StateId, Machine<E>)> = Vec::new();
        worklist.push((id0, m0));
        while let Some((id, m)) = worklist.pop() {
            budget.charge()?;
            stats.visited += 1;
            bdrst_obs::counter_add(bdrst_obs::Counter::StatesVisited, 1);
            bdrst_obs::counter_max(bdrst_obs::Counter::FrontierHighWater, worklist.len() as u64);
            let transitions = m.transitions(locs);
            terminal[id.index()] = transitions.is_empty();
            for t in transitions {
                stats.transitions += 1;
                let (succ, fresh) = Self::intern(self.dedup, &mut interner, locs, &t.target)?;
                edges.push((id, succ));
                if fresh {
                    terminal.push(false);
                    worklist.push((succ, t.target));
                }
            }
            if interner.len() > self.config.max_states {
                return Err(EngineError::budget(interner.len()));
            }
        }
        Ok((
            StateGraph::from_parts(interner.into_states(), &edges, terminal),
            stats,
        ))
    }
}

/// One open node of the recording walk: its machine (the memo key once
/// its row closes), the transitions not yet taken, its row of enabled
/// labels, and the rows of the children taken so far.
struct RecFrame<E> {
    machine: Machine<E>,
    rest: std::vec::IntoIter<Transition<E>>,
    labels: Vec<TransitionLabel>,
    rows: Vec<u32>,
}

impl<E: Expr> RecFrame<E> {
    fn open(locs: &LocSet, machine: Machine<E>) -> RecFrame<E> {
        let ts = machine.transitions(locs);
        RecFrame {
            labels: ts.iter().map(|t| t.label).collect(),
            rows: Vec::with_capacity(ts.len()),
            rest: ts.into_iter(),
            machine,
        }
    }
}

/// The iterative depth-first trace enumerator.
///
/// Enumerates every trace prefix from the initial machine (every prefix of
/// a trace is itself a trace, Definition 5), honouring the visitor's
/// `step_filter` and [`Control`] verdicts. Replaces the old recursive
/// `dfs` helper with an explicit frame stack.
#[derive(Clone, Copy, Debug)]
pub struct TraceEngine {
    /// Budgets (`max_traces` bounds the extensions a live walk makes and
    /// the rows a recording holds).
    pub config: EngineConfig,
}

impl TraceEngine {
    /// An engine with the given budgets.
    pub fn new(config: EngineConfig) -> TraceEngine {
        TraceEngine { config }
    }

    /// Walks every trace from `m0` in depth-first order, driving `visitor`.
    /// Each extension's reached machine has its transitions computed
    /// before the visit, to show the visitor the labels they carry; on
    /// [`Control::Continue`] they become the next frame.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BudgetExceeded`] after `config.max_traces`
    /// extensions.
    pub fn explore<E: Expr>(
        &self,
        locs: &LocSet,
        m0: Machine<E>,
        visitor: &mut dyn TraceVisitor,
    ) -> Result<ExploreStats, EngineError> {
        let _span = bdrst_obs::span(bdrst_obs::Phase::TraceWalk);
        let mut stats = ExploreStats::default();
        let mut budget = Budget::new(self.config.max_traces);
        let mut trace = TraceLabels::new();
        let mut enabled: Vec<TransitionLabel> = Vec::new();
        // Each frame is the untaken rest of the transitions enabled at one
        // node of the walk.
        let mut frames = vec![m0.transitions(locs).into_iter()];
        while let Some(frame) = frames.last_mut() {
            let Some(t) = frame.next() else {
                // Subtree exhausted: pop the frame, and the label that led
                // into it (the root frame has no such label).
                frames.pop();
                if !frames.is_empty() {
                    trace.pop();
                }
                continue;
            };
            stats.transitions += 1;
            if !visitor.step_filter(&t.label) {
                continue;
            }
            budget.charge()?;
            stats.visited += 1;
            trace.push(t.label);
            let next = t.target.transitions(locs);
            enabled.clear();
            enabled.extend(next.iter().map(|n| n.label));
            let step = Step {
                label: t.label,
                enabled: &enabled,
                terminal: enabled.is_empty(),
            };
            match visitor.visit(&trace, step) {
                Control::Stop => break,
                Control::Prune => {
                    trace.pop();
                }
                Control::Continue => frames.push(next.into_iter()),
            }
        }
        Ok(stats)
    }

    /// Records the complete trace tree from `m0` — unfiltered and
    /// unpruned, bounded by `config.max_traces` — as a [`TraceGraph`]
    /// replayable under any number of predicates without re-running the
    /// transition semantics. Each recorded row carries the labels enabled
    /// at its machine, which is everything the label-level checkers
    /// consume.
    ///
    /// [`Machine::transitions`] is a pure function of the machine, so two
    /// nodes holding equal machines have identical subtrees: the walk
    /// memoizes rows by exact machine (timestamps and frontiers included,
    /// never the canonical form) and every path that reaches a machine
    /// points at its one row. The budget counts rows — the distinct
    /// machines whose transitions the walk computes — and the returned
    /// statistics are the tree's extension count, [`TraceGraph::len`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BudgetExceeded`] when the tree has more
    /// than `config.max_traces` distinct machines, or when it unfolds to
    /// more extensions than a `usize` counts, which no replay's
    /// statistics could hold (reported as `visited: usize::MAX`).
    pub fn record<E: Expr>(
        &self,
        locs: &LocSet,
        m0: Machine<E>,
    ) -> Result<(TraceGraph, ExploreStats), EngineError> {
        // One charge per row, the root's first.
        let mut budget = Budget::new(self.config.max_traces);
        budget.charge()?;
        // The store's only interior mutability is its memoized content
        // digest, which neither `Hash` nor `Eq` reads.
        #[allow(clippy::mutable_key_type)]
        let mut memo: HashMap<Machine<E>, u32> = HashMap::new();
        let mut labels: Vec<TransitionLabel> = Vec::new();
        let mut children: Vec<u32> = Vec::new();
        let mut child_offsets: Vec<u32> = vec![0];
        let mut stack = vec![RecFrame::open(locs, m0)];
        loop {
            let frame = stack.last_mut().expect("the root closes last");
            if let Some(t) = frame.rest.next() {
                match memo.get(&t.target) {
                    Some(&row) => frame.rows.push(row),
                    None => {
                        budget.charge()?;
                        stack.push(RecFrame::open(locs, t.target));
                    }
                }
                continue;
            }
            let done = stack.pop().expect("the frame just inspected");
            let row = (child_offsets.len() - 1) as u32;
            labels.extend(done.labels);
            children.extend(done.rows);
            child_offsets.push(children.len() as u32);
            let Some(parent) = stack.last_mut() else {
                break;
            };
            parent.rows.push(row);
            memo.insert(done.machine, row);
        }
        let graph = TraceGraph::from_rows(labels, child_offsets, children)
            .map_err(|_| EngineError::budget(usize::MAX))?;
        let extensions = graph.len();
        Ok((
            graph,
            ExploreStats {
                visited: extensions,
                transitions: extensions,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StateId;
    use crate::loc::{Loc, LocKind, Val};
    use crate::machine::{RecordedExpr, StepLabel};
    use std::collections::BTreeSet;

    fn locs_ab() -> (LocSet, Loc, Loc) {
        let mut l = LocSet::new();
        let a = l.fresh("a", LocKind::Nonatomic);
        let b = l.fresh("b", LocKind::Nonatomic);
        (l, a, b)
    }

    fn sb_machine(locs: &LocSet, a: Loc, b: Loc) -> Machine<RecordedExpr> {
        let p0 = RecordedExpr::new(vec![StepLabel::Write(a, Val(1)), StepLabel::Read(b)]);
        let p1 = RecordedExpr::new(vec![StepLabel::Write(b, Val(1)), StepLabel::Read(a)]);
        Machine::initial(locs, [p0, p1])
    }

    fn terminal_reads(
        engine: &WorklistEngine,
        locs: &LocSet,
        m0: Machine<RecordedExpr>,
    ) -> BTreeSet<Vec<i64>> {
        let mut outcomes = BTreeSet::new();
        engine
            .explore(locs, m0, &mut |m: &Machine<RecordedExpr>, _id: StateId| {
                if m.is_terminal() {
                    outcomes.insert(
                        m.threads
                            .iter()
                            .flat_map(|t| t.expr.reads.iter().map(|v| v.0))
                            .collect(),
                    );
                }
                Control::Continue
            })
            .unwrap();
        outcomes
    }

    #[test]
    fn dedup_modes_agree() {
        let (locs, a, b) = locs_ab();
        let fp = WorklistEngine::with_dedup(EngineConfig::default(), Dedup::FingerprintFirst);
        let full = WorklistEngine::with_dedup(EngineConfig::default(), Dedup::FullState);
        assert_eq!(
            terminal_reads(&fp, &locs, sb_machine(&locs, a, b)),
            terminal_reads(&full, &locs, sb_machine(&locs, a, b))
        );
    }

    #[test]
    fn forced_collisions_do_not_change_dedup() {
        // Truncate fingerprints to 4 bits: nearly everything collides, and
        // the verified-equality path must keep the visited set exact.
        let _guard = crate::engine::canon::collisions::force(4);
        let (locs, a, b) = locs_ab();
        let fp = WorklistEngine::with_dedup(EngineConfig::default(), Dedup::FingerprintFirst);
        let full = WorklistEngine::with_dedup(EngineConfig::default(), Dedup::FullState);
        let mut count_fp = 0usize;
        fp.explore(
            &locs,
            sb_machine(&locs, a, b),
            &mut |_: &Machine<RecordedExpr>, _: StateId| {
                count_fp += 1;
                Control::Continue
            },
        )
        .unwrap();
        let mut count_full = 0usize;
        full.explore(
            &locs,
            sb_machine(&locs, a, b),
            &mut |_: &Machine<RecordedExpr>, _: StateId| {
                count_full += 1;
                Control::Continue
            },
        )
        .unwrap();
        assert_eq!(count_fp, count_full);
    }

    /// Tiny deterministic generator (xorshift64*) for the in-crate random
    /// program suite — the integration proptest suites cover the litmus
    /// language; this one covers [`RecordedExpr`] with forced fingerprint
    /// collisions, which only a unit test can switch on.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0.wrapping_mul(0x2545f4914f6cdd1d)
        }
    }

    #[test]
    fn fingerprint_dedup_matches_full_dedup_on_random_programs_with_collisions() {
        // 8-bit fingerprints over ≥128 random two-thread programs: the
        // collision-verification path runs constantly, and the visited
        // state count and terminal outcome set must match full-state
        // dedup on every program.
        let _guard = crate::engine::canon::collisions::force(8);
        let mut locs = LocSet::new();
        let a = locs.fresh("a", LocKind::Nonatomic);
        let b = locs.fresh("b", LocKind::Nonatomic);
        let f = locs.fresh("F", LocKind::Atomic);
        let pool = [a, b, f];
        let mut rng = Rng(0x5eed_cafe_f00d_1234);
        for case in 0..128 {
            let thread = |rng: &mut Rng| {
                let len = 1 + (rng.next() % 4) as usize;
                RecordedExpr::new(
                    (0..len)
                        .map(|_| {
                            let l = pool[(rng.next() % 3) as usize];
                            if rng.next().is_multiple_of(2) {
                                StepLabel::Read(l)
                            } else {
                                StepLabel::Write(l, Val((rng.next() % 2 + 1) as i64))
                            }
                        })
                        .collect(),
                )
            };
            let prog = [thread(&mut rng), thread(&mut rng)];
            let m0 = Machine::initial(&locs, prog);
            let run = |dedup: Dedup| {
                let engine = WorklistEngine::with_dedup(EngineConfig::default(), dedup);
                let mut visited = 0usize;
                let mut outcomes: BTreeSet<Vec<i64>> = BTreeSet::new();
                engine
                    .explore(
                        &locs,
                        m0.clone(),
                        &mut |m: &Machine<RecordedExpr>, _: StateId| {
                            visited += 1;
                            if m.is_terminal() {
                                outcomes.insert(
                                    m.threads
                                        .iter()
                                        .flat_map(|t| t.expr.reads.iter().map(|v| v.0))
                                        .collect(),
                                );
                            }
                            Control::Continue
                        },
                    )
                    .unwrap();
                (visited, outcomes)
            };
            let fp = run(Dedup::FingerprintFirst);
            let full = run(Dedup::FullState);
            assert_eq!(fp, full, "dedup modes diverge on case {case}");
        }
    }

    #[test]
    fn state_ids_are_dense_and_unique() {
        let (locs, a, b) = locs_ab();
        let engine = WorklistEngine::new(EngineConfig::default());
        let mut ids = Vec::new();
        engine
            .explore(
                &locs,
                sb_machine(&locs, a, b),
                &mut |_m: &Machine<RecordedExpr>, id: StateId| {
                    ids.push(id);
                    Control::Continue
                },
            )
            .unwrap();
        let unique: BTreeSet<_> = ids.iter().copied().collect();
        assert_eq!(unique.len(), ids.len());
        assert_eq!(ids.iter().map(|i| i.index()).max().unwrap(), ids.len() - 1);
    }

    #[test]
    fn prune_stops_expansion_but_not_exploration() {
        let (locs, a, _) = locs_ab();
        let p0 = RecordedExpr::new(vec![StepLabel::Write(a, Val(1)); 3]);
        let m0 = Machine::initial(&locs, [p0]);
        // Prune everything: only the initial state is visited.
        let engine = WorklistEngine::new(EngineConfig::default());
        let mut seen = 0;
        engine
            .explore(
                &locs,
                m0,
                &mut |_m: &Machine<RecordedExpr>, _id: StateId| {
                    seen += 1;
                    Control::Prune
                },
            )
            .unwrap();
        assert_eq!(seen, 1);
    }

    #[test]
    fn explore_graph_visits_same_state_set() {
        let (locs, a, b) = locs_ab();
        let engine = WorklistEngine::new(EngineConfig::default());
        let mut live = 0usize;
        engine
            .explore(
                &locs,
                sb_machine(&locs, a, b),
                &mut |_: &Machine<RecordedExpr>, _: StateId| {
                    live += 1;
                    Control::Continue
                },
            )
            .unwrap();
        let (graph, stats) = engine
            .explore_graph(&locs, sb_machine(&locs, a, b))
            .unwrap();
        assert_eq!(graph.len(), live);
        assert_eq!(stats.visited, live);
    }

    #[test]
    fn explore_graph_budget_is_enforced() {
        let (locs, a, _) = locs_ab();
        let mk = || RecordedExpr::new(vec![StepLabel::Write(a, Val(1)); 6]);
        let m0 = Machine::initial(&locs, [mk(), mk(), mk()]);
        let tiny = EngineConfig {
            max_states: 10,
            max_traces: 10,
        };
        let engine = WorklistEngine::new(tiny);
        assert!(matches!(
            engine.explore_graph(&locs, m0),
            Err(EngineError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn trace_engine_matches_recursive_interleaving_count() {
        let (locs, a, b) = locs_ab();
        let p0 = RecordedExpr::new(vec![StepLabel::Write(a, Val(1))]);
        let p1 = RecordedExpr::new(vec![StepLabel::Write(b, Val(1))]);
        let m0 = Machine::initial(&locs, [p0, p1]);
        struct Count {
            complete: usize,
        }
        impl TraceVisitor for Count {
            fn visit(&mut self, trace: &TraceLabels, step: Step<'_>) -> Control {
                if trace.len() == 2 && step.terminal {
                    self.complete += 1;
                }
                Control::Continue
            }
        }
        let mut v = Count { complete: 0 };
        TraceEngine::new(EngineConfig::default())
            .explore(&locs, m0, &mut v)
            .unwrap();
        assert_eq!(v.complete, 2);
    }

    #[test]
    fn trace_engine_budget_and_stop() {
        let (locs, a, _) = locs_ab();
        let mk = || RecordedExpr::new(vec![StepLabel::Write(a, Val(1)); 6]);
        let m0 = Machine::initial(&locs, [mk(), mk(), mk()]);
        struct Go;
        impl TraceVisitor for Go {
            fn visit(&mut self, _: &TraceLabels, _: Step<'_>) -> Control {
                Control::Continue
            }
        }
        let tiny = EngineConfig {
            max_states: 10,
            max_traces: 10,
        };
        let r = TraceEngine::new(tiny).explore(&locs, m0.clone(), &mut Go);
        assert!(matches!(r, Err(EngineError::BudgetExceeded { .. })));

        struct StopNow(usize);
        impl TraceVisitor for StopNow {
            fn visit(&mut self, _: &TraceLabels, _: Step<'_>) -> Control {
                self.0 += 1;
                Control::Stop
            }
        }
        let mut v = StopNow(0);
        TraceEngine::new(EngineConfig::default())
            .explore(&locs, m0, &mut v)
            .unwrap();
        assert_eq!(v.0, 1);
    }
}
