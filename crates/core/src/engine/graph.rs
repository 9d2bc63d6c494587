//! The interned successor graph and the recorded trace tree: explore
//! once, re-check new predicates without re-running the semantics.
//!
//! Exploration cost in this codebase is dominated by the transition
//! semantics — every [`crate::machine::Machine::transitions`] call clones
//! machines, and every reached machine is canonicalized. Both structures
//! in this module cache the part of that work that checkers actually
//! consume, so a second (third, …) predicate over the same program pays
//! none of it:
//!
//! * [`StateGraph`] — the deduplicated canonical state space as a compact
//!   CSR table: per dense [`StateId`], its successor ids and terminal
//!   flag, plus the id-ordered [`CanonState`]s handed over by the
//!   interner. Recorded by `WorklistEngine::explore_graph`. State
//!   predicates (terminal outcome extraction, reachability counts)
//!   re-check in a linear scan over [`StateGraph::terminal_ids`] and
//!   [`StateGraph::successors`].
//! * [`TraceGraph`] — the *trace tree* of the program, recorded once,
//!   unfiltered and unpruned, by `TraceEngine::record`, and stored as a
//!   DAG of exact machines. The semantics is a pure function of the
//!   machine, so every node holding one machine roots the same subtree;
//!   the graph keeps one CSR row per distinct machine, and every path
//!   that reaches the machine points at that row. A row lists the
//!   machine's children and their labels, and because the recording is
//!   unfiltered those labels are exactly the ones enabled at it.
//!   Trace-dependent checkers (data races, happens-before, L-stability,
//!   Theorem 15 soundness) consume exactly label sequences and
//!   enabled-label sets, so [`TraceGraph::replay`] — which walks the
//!   DAG as the tree it unfolds to — can drive any [`ReplayVisitor`],
//!   with its own step filter, pruning, stopping and budget, and produce
//!   verdicts identical to a live [`crate::engine::TraceEngine`] walk.
//!   Because the recording is unfiltered it is a supertree of every
//!   filtered walk; replaying a filter simply skips the subtrees the live
//!   walk would never have entered. A visitor whose decisions below an
//!   extension depend only on the reached row and a summary of its path
//!   opts in to memoization ([`ReplayVisitor::summary`]), and the replay
//!   then walks each (row, summary) pair once instead of once per path;
//!   its trace budget counts those walks, not the paths.
//!
//! A note on why *state*-graph paths cannot replace the trace graph for
//! race checking: the state graph merges machines by canonical form,
//! which renames timestamps, so the transition labels along a state-graph
//! path mix timestamps from different representative machines —
//! happens-before over such a path is not the happens-before of any real
//! trace. The trace graph shares a row only between *exactly* equal
//! machines, whose subtrees carry identical labels, so every path through
//! it spells a real trace; the state graph serves the state predicates.
//! Both are budget-bounded by the recording engine's
//! [`crate::engine::EngineConfig`].

use std::collections::HashMap;

use crate::engine::{CanonState, Control, EngineConfig, EngineError, ExploreStats, StateId};
use crate::loc::LocSet;
use crate::machine::TransitionLabel;
use crate::trace::TraceLabels;
use crate::wire::{Codec, Reader, WireError};

/// The explored state space as a compact successor table (CSR) over the
/// interner's dense ids, with the canonical states retained for
/// re-checking.
#[derive(Debug)]
pub struct StateGraph<E> {
    /// Canonical states, indexed by [`StateId`].
    states: Vec<CanonState<E>>,
    /// CSR row offsets: successors of `i` live at
    /// `succs[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    /// Concatenated successor ids (one entry per transition, so duplicate
    /// targets — several transitions reaching one canonical state — are
    /// kept, mirroring the branching structure).
    succs: Vec<StateId>,
    /// Per-state terminal flag (no enabled transition).
    terminal: Vec<bool>,
}

impl<E> StateGraph<E> {
    /// Assembles the CSR from the interner's id-ordered states, the
    /// recorded `(from, to)` edges, and the per-id terminal flags.
    pub(crate) fn from_parts(
        states: Vec<CanonState<E>>,
        edges: &[(StateId, StateId)],
        terminal: Vec<bool>,
    ) -> StateGraph<E> {
        debug_assert_eq!(states.len(), terminal.len());
        let n = states.len();
        let mut counts = vec![0u32; n];
        for (from, _) in edges {
            counts[from.index()] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for c in &counts {
            acc += c;
            offsets.push(acc);
        }
        let mut next: Vec<u32> = offsets[..n].to_vec();
        let mut succs = vec![StateId(0); edges.len()];
        for (from, to) in edges {
            let slot = next[from.index()];
            succs[slot as usize] = *to;
            next[from.index()] += 1;
        }
        StateGraph {
            states,
            offsets,
            succs,
            terminal,
        }
    }

    /// Number of canonical states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True for the graph of an empty exploration.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Total number of recorded transitions (CSR entries).
    pub fn edge_count(&self) -> usize {
        self.succs.len()
    }

    /// The canonical state with the given id.
    pub fn state(&self, id: StateId) -> &CanonState<E> {
        &self.states[id.index()]
    }

    /// The successor ids of `id`, one entry per transition.
    pub fn successors(&self, id: StateId) -> &[StateId] {
        let lo = self.offsets[id.index()] as usize;
        let hi = self.offsets[id.index() + 1] as usize;
        &self.succs[lo..hi]
    }

    /// True iff `id` has no enabled transition.
    pub fn is_terminal(&self, id: StateId) -> bool {
        self.terminal[id.index()]
    }

    /// The ids of all terminal states, in id order.
    pub fn terminal_ids(&self) -> impl Iterator<Item = StateId> + '_ {
        self.terminal
            .iter()
            .enumerate()
            .filter(|(_, t)| **t)
            .map(|(i, _)| StateId(i as u32))
    }

    /// Serializes the graph ([`crate::wire`]): states, CSR offsets,
    /// successor ids, terminal flags, in that order. `E` must itself be
    /// wire-codable (the litmus language's thread states are). Nothing
    /// decodes these bytes: the result store keeps no state graph, and
    /// the benchmark's ledger encodes a graph only to size it.
    pub fn encode(&self, out: &mut Vec<u8>)
    where
        E: Codec,
    {
        self.states.encode(out);
        self.offsets.encode(out);
        self.succs.encode(out);
        self.terminal.encode(out);
    }
}

/// What a [`ReplayVisitor`] sees at one replayed trace extension: the
/// extension's label, the labels enabled at the reached machine, and
/// whether that machine is terminal.
#[derive(Clone, Copy, Debug)]
pub struct ReplayStep<'g> {
    /// The label of the transition just (re)taken.
    pub label: TransitionLabel,
    /// The labels of every transition enabled at the reached machine.
    pub enabled: &'g [TransitionLabel],
    /// True iff the reached machine has no enabled transition.
    pub terminal: bool,
}

/// A trace visitor over a recorded [`TraceGraph`]: the label-level
/// counterpart of [`crate::engine::TraceVisitor`]. The race detector
/// ([`crate::hb::RaceDetector`]) and the local-DRF checker consume only
/// labels, so each implements both traits over shared logic.
pub trait ReplayVisitor {
    /// Whether this label may extend the current trace (mirrors
    /// [`crate::engine::TraceVisitor::step_filter`]).
    fn step_filter(&mut self, _label: &TransitionLabel) -> bool {
        true
    }

    /// Inspects one replayed extension; `trace` ends with `step.label`.
    fn visit(&mut self, trace: &TraceLabels, step: ReplayStep<'_>) -> Control;

    /// Opts in to memoized replay. Called after [`ReplayVisitor::visit`]
    /// returned [`Control::Continue`] on an extension that reaches a row
    /// with more than one incoming edge and a subtree large enough to be
    /// worth a key. A visitor whose filter, visits and verdicts below
    /// the extension depend only on that row and on a summary of its own
    /// state appends the summary to `key` and returns `true`. The replay
    /// then skips the row under any later trace with an equal summary
    /// (see [`TraceGraph::replay`]).
    ///
    /// The summary must be exact, not a hash: a visitor that opts in
    /// promises that a skipped subtree would have replayed as the first
    /// one did, found nothing new, and not stopped. The race detector
    /// and the local-DRF checker opt in with
    /// [`crate::hb::HbState::summary`]. The default opts out, so the
    /// replay shows the visitor every extension of the unfolded tree, as
    /// visitors that count or collect per trace (Theorem 15 soundness)
    /// need.
    fn summary(&mut self, _trace: &TraceLabels, _key: &mut Vec<u64>) -> bool {
        false
    }
}

/// The complete trace tree of a program, recorded once (unfiltered,
/// unpruned, budget-bounded) as a DAG of its distinct machines and
/// replayable under any number of predicates.
///
/// The graph is one CSR table with a row per distinct machine, in
/// post-order: every child row precedes its parent, and the initial
/// machine's row is the last. `labels[j]` is the label of the transition
/// that leads to row `children[j]`; several entries may point at one row
/// (every path to one machine shares its row). Because a recording is
/// unfiltered, row `r`'s slice of `labels` is exactly the set of labels
/// enabled at its machine. Rows keep sibling order, so a replay — which
/// unfolds the DAG into the tree as it walks — takes extensions in
/// exactly the order a live [`crate::engine::TraceEngine`] walk would.
#[derive(Debug)]
pub struct TraceGraph {
    /// One label per child entry, in CSR row order.
    labels: Vec<TransitionLabel>,
    /// CSR row offsets over `rows() + 1` entries; row `r` spans
    /// `child_offsets[r]..child_offsets[r + 1]` of `labels` and
    /// `children`.
    child_offsets: Vec<u32>,
    /// `children[j]` is the row that `labels[j]` leads to.
    children: Vec<u32>,
    /// The number of trace extensions the DAG unfolds to.
    len: usize,
    /// Per row: whether a memoized replay keys it (see [`memo_rows`]).
    memo: Vec<bool>,
}

impl TraceGraph {
    /// Assembles the graph from post-order CSR rows whose offsets span
    /// at least one row and the whole children column; fails as
    /// [`unfolded`] does.
    pub(crate) fn from_rows(
        labels: Vec<TransitionLabel>,
        child_offsets: Vec<u32>,
        children: Vec<u32>,
    ) -> Result<TraceGraph, WireError> {
        let below = unfolded(&child_offsets, &children)?;
        Ok(TraceGraph {
            len: *below.last().expect("at least one row"),
            memo: memo_rows(&below, &children),
            labels,
            child_offsets,
            children,
        })
    }

    /// Number of recorded trace extensions: the nodes of the unfolded
    /// tree, not the rows of the DAG.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the initial machine is terminal (no trace extends it).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of rows: the distinct machines recorded, the initial one
    /// included.
    pub fn rows(&self) -> usize {
        self.child_offsets.len() - 1
    }

    /// The labels enabled at the initial machine.
    pub fn root_enabled(&self) -> &[TransitionLabel] {
        &self.labels[self.row(self.rows() - 1)]
    }

    /// The span of `labels` and `children` that row `r` covers.
    fn row(&self, r: usize) -> std::ops::Range<usize> {
        self.child_offsets[r] as usize..self.child_offsets[r + 1] as usize
    }

    /// Serializes the trace graph for the content-addressed result store
    /// ([`crate::wire`]): the labels, the CSR row offsets and the
    /// children column, in that order.
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.labels.encode(out);
        self.child_offsets.encode(out);
        self.children.encode(out);
    }

    /// Decodes a graph previously written by [`TraceGraph::encode`] for a
    /// program of `threads` threads over `locs`, re-validating every
    /// structural invariant `TraceEngine::record` guarantees — a
    /// corrupted entry must become a [`WireError`], never a graph that
    /// panics, loops, or replays differently from the recording.
    ///
    /// # Errors
    ///
    /// Any [`WireError`]; in particular [`WireError::Invalid`] when a
    /// label names a thread or location the program does not have, the
    /// label and children columns differ in length, the offsets are not
    /// monotone over at least one row, a child row does not precede its
    /// parent (the only way to encode a cycle), or the unfolded tree has
    /// more extensions than a `usize` counts.
    pub fn decode(
        r: &mut Reader<'_>,
        locs: &LocSet,
        threads: usize,
    ) -> Result<TraceGraph, WireError> {
        let labels: Vec<TransitionLabel> = Vec::decode(r)?;
        let child_offsets: Vec<u32> = Vec::decode(r)?;
        let children: Vec<u32> = Vec::decode(r)?;
        if labels.iter().any(|l| {
            l.thread.index() >= threads || l.action.is_some_and(|a| a.loc.index() >= locs.len())
        }) {
            return Err(WireError::Invalid("label outside the program"));
        }
        if labels.len() != children.len() {
            return Err(WireError::Invalid("one label per child entry"));
        }
        if child_offsets.len() < 2
            || child_offsets[0] != 0
            || child_offsets.windows(2).any(|w| w[0] > w[1])
            || child_offsets[child_offsets.len() - 1] as usize != children.len()
        {
            return Err(WireError::Invalid("trace CSR offsets"));
        }
        TraceGraph::from_rows(labels, child_offsets, children)
    }

    /// Replays the recorded graph under `visitor`, reproducing the exact
    /// depth-first order, filtering, pruning and stopping of a live
    /// [`crate::engine::TraceEngine::explore`] walk — without invoking
    /// the transition semantics at all. Verdicts are therefore identical
    /// to the live walk's for any visitor whose decisions depend only on
    /// labels (every checker in [`crate::localdrf`] and the Theorem 15
    /// soundness scan qualify).
    ///
    /// A visitor that opts out of [`ReplayVisitor::summary`] is shown the
    /// whole unfolded tree. For one that opts in, the replay keys each
    /// shared row it enters (one with several incoming edges and a
    /// subtree worth a key) by (row, summary), and skips a row it has
    /// already finished under an equal key. This is exact: the DAG is
    /// acyclic and the walk depth-first, so the first visit finishes
    /// before an equal one starts, and by the visitor's promise the
    /// skipped subtree would have replayed as the first did, without a
    /// stop. A skip adds the first visit's `visited` and `transitions`
    /// to the statistics, so they stay those of the unfolded walk.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BudgetExceeded`] when the visitor would be
    /// shown more than `config.max_traces` extensions. The budget counts
    /// the work the replay does: an unfolded replay trips exactly where
    /// the live walk does, and a skip costs nothing, so a memoized
    /// replay can answer under a budget its unfolded tree exceeds.
    pub fn replay<V: ReplayVisitor>(
        &self,
        config: EngineConfig,
        visitor: &mut V,
    ) -> Result<ExploreStats, EngineError> {
        let mut stats = ExploreStats::default();
        let mut budget = config.max_traces;
        let mut trace = TraceLabels::new();
        // Finished (row, summary) keys, with the statistics their
        // subtrees added.
        let mut done: HashMap<Vec<u64>, ExploreStats> = HashMap::new();
        let mut key = Vec::new();
        let mut frames = vec![Frame {
            rest: self.row(self.rows() - 1),
            memo: None,
        }];
        while let Some(frame) = frames.last_mut() {
            let Some(j) = frame.rest.next() else {
                let frame = frames.pop().expect("a frame to finish");
                if let Some((key, entry)) = frame.memo {
                    let added = ExploreStats {
                        visited: stats.visited - entry.visited,
                        transitions: stats.transitions - entry.transitions,
                    };
                    if done.is_empty() {
                        // Most keyed rows are keyed once: size the map
                        // for them up front rather than rehash it.
                        done.reserve(self.rows());
                    }
                    done.insert(key, added);
                }
                if !frames.is_empty() {
                    trace.pop();
                }
                continue;
            };
            stats.transitions += 1;
            let label = self.labels[j];
            if !visitor.step_filter(&label) {
                continue;
            }
            if budget == 0 {
                return Err(EngineError::budget(config.max_traces + 1));
            }
            budget -= 1;
            stats.visited += 1;
            trace.push(label);
            let child = self.children[j] as usize;
            let row = self.row(child);
            let enabled = &self.labels[row.clone()];
            let step = ReplayStep {
                label,
                enabled,
                terminal: enabled.is_empty(),
            };
            match visitor.visit(&trace, step) {
                Control::Stop => return Ok(stats),
                Control::Prune => {
                    trace.pop();
                }
                Control::Continue => {
                    let memoized = self.memo[child] && {
                        key.clear();
                        key.push(child as u64);
                        visitor.summary(&trace, &mut key)
                    };
                    if !memoized {
                        frames.push(Frame {
                            rest: row,
                            memo: None,
                        });
                    } else if let Some(added) = done.get(key.as_slice()) {
                        stats.visited += added.visited;
                        stats.transitions += added.transitions;
                        trace.pop();
                    } else {
                        frames.push(Frame {
                            rest: row,
                            memo: Some((key.clone(), stats)),
                        });
                    }
                }
            }
        }
        Ok(stats)
    }
}

/// One row of a [`TraceGraph::replay`] in progress: the rest of its
/// child entries and, for a memoized row, its (row, summary) key and the
/// statistics at entry.
struct Frame {
    rest: std::ops::Range<usize>,
    memo: Option<(Vec<u64>, ExploreStats)>,
}

/// Per row: whether a memoized replay keys it. Only a row that more than
/// one child entry points at can be reached twice within one visit of
/// its parents, and only one whose subtree unfolds to at least
/// [`MEMO_MIN_SUBTREE`] extensions saves more than its key costs.
fn memo_rows(below: &[usize], children: &[u32]) -> Vec<bool> {
    let mut parents = vec![0u8; below.len()];
    for &c in children {
        let n = &mut parents[c as usize];
        *n = n.saturating_add(1);
    }
    parents
        .iter()
        .zip(below)
        .map(|(&n, &b)| n > 1 && b >= MEMO_MIN_SUBTREE)
        .collect()
}

/// The smallest subtree, in extensions, worth a memo key. A key costs
/// about as much as replaying ten extensions; below this size the corpus
/// replays faster unkeyed, and no benchmark family slows down.
const MEMO_MIN_SUBTREE: usize = 16;

/// The number of extensions each row of a post-order CSR DAG over at
/// least one row unfolds to: the sum over its children of one plus
/// theirs. The last row's count is the whole tree's.
///
/// # Errors
///
/// [`WireError::Invalid`] when a child row does not precede its parent
/// (the only way to encode a cycle) or a count does not fit a `usize`.
fn unfolded(child_offsets: &[u32], children: &[u32]) -> Result<Vec<usize>, WireError> {
    let mut below: Vec<usize> = Vec::with_capacity(child_offsets.len() - 1);
    for w in child_offsets.windows(2) {
        let mut n = 0usize;
        for &c in &children[w[0] as usize..w[1] as usize] {
            let child = below
                .get(c as usize)
                .ok_or(WireError::Invalid("child row does not precede its parent"))?;
            n = n
                .checked_add(*child)
                .and_then(|n| n.checked_add(1))
                .ok_or(WireError::Invalid("trace count overflows"))?;
        }
        below.push(n);
    }
    Ok(below)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{TraceEngine, TraceVisitor, WorklistEngine};
    use crate::loc::{Loc, LocKind, LocSet, Val};
    use crate::machine::{Machine, RecordedExpr, StepLabel, ThreadId, Transition};

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

    #[test]
    fn state_graph_matches_live_exploration() {
        let (locs, a, b) = locs_ab();
        let engine = WorklistEngine::new(EngineConfig::default());
        let (graph, stats) = engine
            .explore_graph(&locs, sb_machine(&locs, a, b))
            .unwrap();
        assert_eq!(graph.len(), stats.visited);
        assert_eq!(graph.edge_count(), stats.transitions);
        // Every non-terminal state has successors; terminals have none.
        for i in 0..graph.len() {
            let id = StateId(i as u32);
            assert_eq!(graph.is_terminal(id), graph.successors(id).is_empty());
        }
        assert!(graph.terminal_ids().count() > 0);
    }

    /// Counts complete interleavings of length `len` — usable both live
    /// and replayed.
    struct CountComplete {
        len: usize,
        complete: usize,
    }

    impl TraceVisitor<RecordedExpr> for CountComplete {
        fn visit(&mut self, trace: &TraceLabels, t: &Transition<RecordedExpr>) -> Control {
            if trace.len() == self.len && t.target.is_terminal() {
                self.complete += 1;
            }
            Control::Continue
        }
    }

    impl ReplayVisitor for CountComplete {
        fn visit(&mut self, trace: &TraceLabels, step: ReplayStep<'_>) -> Control {
            if trace.len() == self.len && step.terminal {
                self.complete += 1;
            }
            Control::Continue
        }
    }

    #[test]
    fn trace_graph_replay_matches_live_walk() {
        let (locs, a, b) = locs_ab();
        let m0 = sb_machine(&locs, a, b);
        let engine = TraceEngine::new(EngineConfig::default());
        let mut live = CountComplete {
            len: 4,
            complete: 0,
        };
        let live_stats = engine.explore(&locs, m0.clone(), &mut live).unwrap();

        let (graph, rec_stats) = engine.record(&locs, m0).unwrap();
        assert_eq!(rec_stats.visited, live_stats.visited);
        let mut replayed = CountComplete {
            len: 4,
            complete: 0,
        };
        let rep_stats = graph
            .replay(EngineConfig::default(), &mut replayed)
            .unwrap();
        assert_eq!(live.complete, replayed.complete);
        assert_eq!(live_stats.visited, rep_stats.visited);
        assert_eq!(live_stats.transitions, rep_stats.transitions);
    }

    #[test]
    fn trace_graph_replay_budget_matches_live() {
        let (locs, a, b) = locs_ab();
        let m0 = sb_machine(&locs, a, b);
        let total = TraceEngine::new(EngineConfig::default())
            .record(&locs, m0.clone())
            .unwrap()
            .1
            .visited;
        let tight = EngineConfig {
            max_states: usize::MAX,
            max_traces: total - 1,
        };
        struct Go;
        impl TraceVisitor<RecordedExpr> for Go {
            fn visit(&mut self, _: &TraceLabels, _: &Transition<RecordedExpr>) -> Control {
                Control::Continue
            }
        }
        impl ReplayVisitor for Go {
            fn visit(&mut self, _: &TraceLabels, _: ReplayStep<'_>) -> Control {
                Control::Continue
            }
        }
        let live = TraceEngine::new(tight).explore(&locs, m0.clone(), &mut Go);
        let (graph, _) = TraceEngine::new(EngineConfig::default())
            .record(&locs, m0.clone())
            .unwrap();
        let replayed = graph.replay(tight, &mut Go);
        assert_eq!(live.unwrap_err(), replayed.unwrap_err());
        // Recording counts rows: it fits a budget of its row count and
        // trips one short of it.
        let rows = |max_traces| EngineConfig {
            max_states: usize::MAX,
            max_traces,
        };
        let n = graph.rows();
        assert!(n < total);
        let (exact, _) = TraceEngine::new(rows(n)).record(&locs, m0.clone()).unwrap();
        assert_eq!(exact.len(), total);
        assert_eq!(
            TraceEngine::new(rows(n - 1)).record(&locs, m0).unwrap_err(),
            EngineError::budget(n)
        );
    }

    #[test]
    fn trace_graph_round_trips_through_the_wire() {
        let (locs, a, b) = locs_ab();
        let (graph, _) = TraceEngine::new(EngineConfig::default())
            .record(&locs, sb_machine(&locs, a, b))
            .unwrap();
        let mut bytes = Vec::new();
        graph.encode(&mut bytes);
        let decoded = TraceGraph::decode(&mut crate::wire::Reader::new(&bytes), &locs, 2).unwrap();
        assert_eq!(decoded.len(), graph.len());
        assert_eq!(decoded.root_enabled(), graph.root_enabled());
        // Rows are shared: fewer labels than extensions. The root's row
        // lists the two first steps, and the encoding holds the labels,
        // offsets and children only.
        assert!(graph.labels.len() < graph.len());
        assert!(graph.rows() < graph.len());
        assert_eq!(decoded.rows(), graph.rows());
        assert_eq!(graph.root_enabled().len(), 2);
        assert_eq!(decoded.labels, graph.labels);
        assert_eq!(decoded.child_offsets, graph.child_offsets);
        assert_eq!(decoded.children, graph.children);
        // The decoded tree replays identically to the original.
        let mut live = CountComplete {
            len: 4,
            complete: 0,
        };
        graph.replay(EngineConfig::default(), &mut live).unwrap();
        let mut replayed = CountComplete {
            len: 4,
            complete: 0,
        };
        let stats = decoded
            .replay(EngineConfig::default(), &mut replayed)
            .unwrap();
        assert_eq!(live.complete, replayed.complete);
        assert!(stats.visited > 0);
        // And re-encodes to the same bytes (canonical encoding).
        let mut again = Vec::new();
        decoded.encode(&mut again);
        assert_eq!(bytes, again);
    }

    #[test]
    fn corrupted_trace_graph_bytes_are_rejected() {
        let (locs, a, b) = locs_ab();
        let (graph, _) = TraceEngine::new(EngineConfig::default())
            .record(&locs, sb_machine(&locs, a, b))
            .unwrap();
        let mut bytes = Vec::new();
        graph.encode(&mut bytes);
        // Truncation anywhere must be an error, never a panic.
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                TraceGraph::decode(&mut crate::wire::Reader::new(&bytes[..cut]), &locs, 2).is_err(),
                "truncation at {cut} decoded"
            );
        }
        // Well-formed columns that break the DAG's invariants: one label
        // too few or too many for the children, offsets for a different
        // number of rows or for none, a row that is its own child (a
        // cycle), and a row pointing at a later one.
        let columns = |labels: &[TransitionLabel], offsets: &[u32], children: &[u32]| {
            let mut out = Vec::new();
            labels.to_vec().encode(&mut out);
            offsets.to_vec().encode(&mut out);
            children.to_vec().encode(&mut out);
            TraceGraph::decode(&mut crate::wire::Reader::new(&out), &locs, 2)
        };
        let (labels, offsets, children) = (&graph.labels, &graph.child_offsets, &graph.children);
        assert_eq!(
            columns(labels, offsets, children).unwrap().len(),
            graph.len()
        );
        let n = labels.len();
        let extra: Vec<TransitionLabel> = labels.iter().chain(&labels[..1]).copied().collect();
        assert_eq!(
            columns(&labels[..n - 1], offsets, children).unwrap_err(),
            WireError::Invalid("one label per child entry")
        );
        assert_eq!(
            columns(&extra, offsets, children).unwrap_err(),
            WireError::Invalid("one label per child entry")
        );
        assert_eq!(
            columns(labels, &offsets[..offsets.len() - 1], children).unwrap_err(),
            WireError::Invalid("trace CSR offsets")
        );
        assert_eq!(
            columns(&[], &[0], &[]).unwrap_err(),
            WireError::Invalid("trace CSR offsets")
        );
        let label = labels[0];
        // A label naming a thread or a location the program lacks.
        let mut stray = labels.clone();
        stray[0].thread = ThreadId(2);
        assert_eq!(
            columns(&stray, offsets, children).unwrap_err(),
            WireError::Invalid("label outside the program")
        );
        let mut stray = labels.clone();
        let access = stray.iter_mut().find_map(|l| l.action.as_mut()).unwrap();
        access.loc = Loc(2);
        assert_eq!(
            columns(&stray, offsets, children).unwrap_err(),
            WireError::Invalid("label outside the program")
        );
        assert_eq!(
            columns(&[label], &[0, 1], &[0]).unwrap_err(),
            WireError::Invalid("child row does not precede its parent")
        );
        assert_eq!(
            columns(&[label], &[0, 1, 1], &[1]).unwrap_err(),
            WireError::Invalid("child row does not precede its parent")
        );
        // 70 rows, each after the first with two children at the row
        // before: 2^70 - 2 traces, more than a u64 counts.
        let rows = 70u32;
        let offsets: Vec<u32> = std::iter::once(0).chain((0..rows).map(|r| 2 * r)).collect();
        let children: Vec<u32> = (1..rows).flat_map(|r| [r - 1, r - 1]).collect();
        let labels = vec![label; children.len()];
        assert_eq!(
            columns(&labels, &offsets, &children).unwrap_err(),
            WireError::Invalid("trace count overflows")
        );
        // The same ladder at 60 rows fits and counts exactly.
        let fits = columns(&labels[..118], &offsets[..61], &children[..118]).unwrap();
        assert_eq!(fits.rows(), 60);
        assert_eq!(fits.len(), (1usize << 60) - 2);
        // Flipping any single byte must either fail to decode or decode
        // to a graph whose replay still terminates with the recorded
        // structural invariants intact (walk a few positions).
        for i in (0..bytes.len()).step_by(5) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x41;
            if let Ok(g) = TraceGraph::decode(&mut crate::wire::Reader::new(&bad), &locs, 2) {
                struct Go;
                impl ReplayVisitor for Go {
                    fn visit(&mut self, _: &TraceLabels, _: ReplayStep<'_>) -> Control {
                        Control::Continue
                    }
                }
                let stats = g.replay(EngineConfig::default(), &mut Go).unwrap();
                assert_eq!(stats.visited, g.len(), "replay lost nodes after flip {i}");
            }
        }
    }

    /// Counts the extensions it is shown; opts in to memoization with an
    /// empty summary when `memo` is set (its visits depend on nothing).
    struct CountVisits {
        memo: bool,
        seen: usize,
    }

    impl ReplayVisitor for CountVisits {
        fn visit(&mut self, _: &TraceLabels, _: ReplayStep<'_>) -> Control {
            self.seen += 1;
            Control::Continue
        }

        fn summary(&mut self, _: &TraceLabels, _: &mut Vec<u64>) -> bool {
            self.memo
        }
    }

    #[test]
    fn memoized_replay_skips_shared_rows_and_charges_their_counts() {
        let (locs, a, b) = locs_ab();
        let thread = |l| RecordedExpr::new(vec![StepLabel::Write(l, Val(1)), StepLabel::Read(l)]);
        let m0 = Machine::initial(&locs, [thread(a), thread(b), thread(a)]);
        let (graph, _) = TraceEngine::new(EngineConfig::default())
            .record(&locs, m0)
            .unwrap();
        let replay = |memo, config| {
            let mut v = CountVisits { memo, seen: 0 };
            graph.replay(config, &mut v).map(|stats| (stats, v.seen))
        };
        let (unfolded, seen) = replay(false, EngineConfig::default()).unwrap();
        assert_eq!((unfolded.visited, seen), (graph.len(), graph.len()));
        let (memoized, seen) = replay(true, EngineConfig::default()).unwrap();
        assert_eq!(memoized, unfolded);
        assert!(seen < graph.len(), "{seen} of {} visited", graph.len());
        // The budget counts the extensions a replay shows: the memoized
        // replay fits `seen` and the unfolded one the whole tree, each
        // with the unfolded statistics, and each trips one short.
        for max_traces in 0..=graph.len() {
            let tight = EngineConfig {
                max_states: usize::MAX,
                max_traces,
            };
            let expected = |shown| {
                if max_traces >= shown {
                    Ok(unfolded)
                } else {
                    Err(EngineError::budget(max_traces + 1))
                }
            };
            let stats = |r: Result<(ExploreStats, usize), EngineError>| r.map(|(s, _)| s);
            assert_eq!(stats(replay(true, tight)), expected(seen));
            assert_eq!(stats(replay(false, tight)), expected(graph.len()));
        }
    }

    #[test]
    fn trace_graph_replay_honours_filters_and_pruning() {
        let (locs, a, b) = locs_ab();
        let m0 = sb_machine(&locs, a, b);
        // Filter: thread 0 only. Live and replayed walks must agree.
        struct OnlyP0 {
            seen: usize,
        }
        impl TraceVisitor<RecordedExpr> for OnlyP0 {
            fn step_filter(&mut self, t: &Transition<RecordedExpr>) -> bool {
                t.label.thread.index() == 0
            }
            fn visit(&mut self, _: &TraceLabels, _: &Transition<RecordedExpr>) -> Control {
                self.seen += 1;
                Control::Continue
            }
        }
        impl ReplayVisitor for OnlyP0 {
            fn step_filter(&mut self, label: &TransitionLabel) -> bool {
                label.thread.index() == 0
            }
            fn visit(&mut self, _: &TraceLabels, _: ReplayStep<'_>) -> Control {
                self.seen += 1;
                Control::Continue
            }
        }
        let mut live = OnlyP0 { seen: 0 };
        TraceEngine::new(EngineConfig::default())
            .explore(&locs, m0.clone(), &mut live)
            .unwrap();
        let (graph, _) = TraceEngine::new(EngineConfig::default())
            .record(&locs, m0)
            .unwrap();
        let mut replayed = OnlyP0 { seen: 0 };
        graph
            .replay(EngineConfig::default(), &mut replayed)
            .unwrap();
        assert_eq!(live.seen, replayed.seen);
        assert!(live.seen > 0);
    }
}
