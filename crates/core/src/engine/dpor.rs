//! Dynamic partial-order reduction: source-DPOR backtracking with
//! per-node sleep sets over the trace tree.
//!
//! The full trace enumeration ([`crate::engine::TraceEngine`]) walks every
//! interleaving the budget allows, although most of them differ only in
//! the order of *independent* transitions — steps on different threads
//! that commute without changing any label or any reachable final state.
//! [`DporEngine`] explores one representative per Mazurkiewicz class
//! instead:
//!
//! * **Backtrack sets** (the source-DPOR half): each node starts with a
//!   single thread to explore. When an executed transition `e` is found
//!   dependent on an earlier cross-thread transition `d`, the thread of
//!   `e` is added to the backtrack set of the node `d` was executed from
//!   (or every thread enabled there, when `e`'s thread is not), so the
//!   reversal of the race is scheduled. Dependence is computed from
//!   [`TransitionLabel`] data alone: same thread, or same location with
//!   at least one write ([`dependent`]).
//! * **Sleep sets**: a thread fully explored at a node is put to sleep
//!   for its siblings and stays asleep down the sibling subtrees while
//!   every transition it could take commutes with what executes; a node
//!   whose every enabled thread sleeps is a pruned leaf — every maximal
//!   trace through it is equivalent to one already explored.
//!
//! Within a chosen thread, *data* nondeterminism (one read, many readable
//! history entries) is never pruned: all of the thread's transitions are
//! explored, exactly like the full walk.
//!
//! # Dependence modes
//!
//! [`Dependence::Conservative`] treats every same-location pair with at
//! least one write as dependent. Commuting transitions that are
//! independent in this sense permutes a trace without changing any label
//! (weak flags included), its happens-before relation, or its data races,
//! so *label-predicate* checkers — the race detector of [`crate::hb`]
//! and the checkers in [`crate::localdrf`] — keep their verdicts under
//! this mode. [`crate::localdrf::sc_race_freedom_reduced`] uses it.
//!
//! [`Dependence::Observational`] additionally treats a nonatomic read and
//! a nonatomic write to the same location as independent when the read
//! does not observe that exact write (their history timestamps differ):
//! the read commutes with the write (histories only grow, and an occupied
//! timestamp is never a write gap), reaching the same final state. This
//! prunes coherence-shaped programs (`CoRR`) that the conservative mode
//! cannot, but reordering can flip a *weak* flag (reading the latest
//! value before, rather than after, a newer write arrives), so this mode
//! is only sound for properties of final states — outcome enumeration
//! and trace counting. It is the [`crate::engine::Strategy::Dpor`]
//! outcome lane.
//!
//! # What the visitor sees
//!
//! [`DporEngine::explore`] drives the same [`TraceVisitor`] the full
//! walk and the graph replay drive: one `visit` per executed extension,
//! depth-first, with the same budget discipline as the full walk
//! (`max_traces` executed extensions, then
//! [`EngineError::BudgetExceeded`]). The visitor only sees the explored
//! subset of prefixes, so it must check a property that is invariant
//! across the equivalence classes of the chosen [`Dependence`] mode.
//! `step_filter` sees a label only, so it is label-determined by type:
//! transitions are filtered once per node, not once per visit position.
//!
//! # Example
//!
//! ```
//! use bdrst_core::engine::dpor::{full_complete_traces, DporEngine};
//! use bdrst_core::engine::{Control, EngineConfig, Step, TraceVisitor};
//! use bdrst_core::loc::{LocKind, LocSet, Val};
//! use bdrst_core::machine::{Machine, RecordedExpr, StepLabel};
//! use bdrst_core::trace::TraceLabels;
//!
//! let mut locs = LocSet::new();
//! let a = locs.fresh("a", LocKind::Nonatomic);
//! let b = locs.fresh("b", LocKind::Nonatomic);
//! // Two independent writes: both interleavings reach the same state.
//! let p0 = RecordedExpr::new(vec![StepLabel::Write(a, Val(1))]);
//! let p1 = RecordedExpr::new(vec![StepLabel::Write(b, Val(1))]);
//! let m0 = Machine::initial(&locs, [p0, p1]);
//!
//! struct Go;
//! impl TraceVisitor for Go {
//!     fn visit(&mut self, _: &TraceLabels, _: Step<'_>) -> Control {
//!         Control::Continue
//!     }
//! }
//! let stats = DporEngine::new(EngineConfig::default())
//!     .explore(&locs, m0.clone(), &mut Go)?;
//! let full = full_complete_traces(&locs, m0, EngineConfig::default())?;
//! assert_eq!(stats.complete_traces, 1); // one representative
//! assert_eq!(full, 2); // of two equivalent interleavings
//! # Ok::<(), bdrst_core::engine::EngineError>(())
//! ```

use std::collections::BTreeSet;

use crate::engine::{
    intern_canonical, Budget, CanonState, Control, EngineConfig, EngineError, StateInterner, Step,
    TraceVisitor,
};
use crate::loc::LocSet;
use crate::machine::{Expr, Machine, ThreadId, Transition, TransitionLabel};
use crate::trace::TraceLabels;

/// Which pairs of transitions the reduction treats as dependent (may not
/// commute). See the module docs for the soundness contract of each mode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dependence {
    /// Same location with at least one write. Preserves every label along
    /// a trace (weak flags included), happens-before, and data races —
    /// sound for the trace-predicate checkers.
    Conservative,
    /// As `Conservative`, but a nonatomic read and write to the same
    /// location are independent when the read observes a *different*
    /// timestamp. Preserves reachable final states only — sound for
    /// outcome enumeration and trace counting, not for weak-flag
    /// predicates.
    Observational,
}

/// The conservative dependence relation on transition labels: same
/// thread, or accesses to the same location with at least one write
/// (atomic locations included — an atomic write changes the published
/// frontier, so it commutes with neither reads nor writes of that
/// location). Silent transitions are independent of everything
/// cross-thread; so are two reads of the same location.
pub fn dependent(l1: &TransitionLabel, l2: &TransitionLabel) -> bool {
    if l1.thread == l2.thread {
        return true;
    }
    match (l1.action, l2.action) {
        (Some(a1), Some(a2)) => a1.loc == a2.loc && (a1.action.is_write() || a2.action.is_write()),
        _ => false,
    }
}

/// [`dependent`] refined by the chosen mode: under
/// [`Dependence::Observational`], a nonatomic read/write pair on the same
/// location is independent when the read observes a different timestamp
/// than the write creates (both carry their history timestamp in the
/// label; atomic operations carry none and stay dependent). This is the
/// *commutation* relation — two adjacent executed transitions may be
/// swapped without changing either label or the final state — used for
/// the happens-after chains of the backtrack computation.
fn mode_dependent(mode: Dependence, l1: &TransitionLabel, l2: &TransitionLabel) -> bool {
    if !dependent(l1, l2) {
        return false;
    }
    if l1.thread == l2.thread || mode == Dependence::Conservative {
        return true;
    }
    match (l1.action, l2.action) {
        (Some(a1), Some(a2)) if a1.action.is_write() != a2.action.is_write() => {
            match (l1.timestamp, l2.timestamp) {
                (Some(t1), Some(t2)) => t1 == t2,
                _ => true,
            }
        }
        _ => true,
    }
}

/// Whether the ordered pair `d` (earlier) / `e` (later) is a race whose
/// reversal must be scheduled. This is *asymmetric*: commutation of
/// executed events is not the whole story, because a write also creates
/// branches.
///
/// * write/write (or any atomic pair with a write): a race — order
///   changes the final state (or the acquired frontier).
/// * earlier read, later write: always a race. The write adds a readable
///   history entry, so the read executed *after* the write has branches
///   the read-first subtree can never produce.
/// * earlier nonatomic write, later nonatomic read: under
///   [`Dependence::Observational`], never a race. Every entry the read
///   could observe before the write exists after it too, so each
///   read-first trace commutes (timestamps necessarily differ) into a
///   write-first one the explored subtree already covers. Conservative
///   mode keeps the pair racing.
fn is_race(mode: Dependence, d: &TransitionLabel, e: &TransitionLabel) -> bool {
    if d.thread == e.thread {
        return false;
    }
    let (Some(ad), Some(ae)) = (d.action, e.action) else {
        return false;
    };
    if ad.loc != ae.loc {
        return false;
    }
    match (ad.action.is_write(), ae.action.is_write()) {
        (false, false) => false,
        (true, true) | (false, true) => true,
        (true, false) => {
            mode == Dependence::Conservative || d.timestamp.is_none() || e.timestamp.is_none()
        }
    }
}

/// Whether a sleeping thread's potential transition `branch` stays asleep
/// across the executed cross-thread transition `e`.
///
/// Sleeping is kept exactly when `branch`'s set of transitions is
/// unchanged by `e` and each commutes with it:
///
/// * different locations, silent steps, and read/read pairs always keep
///   sleeping;
/// * a sleeping *reader* wakes on any same-location write — the write
///   adds a readable history entry, so the reader gains a branch that was
///   never explored;
/// * a sleeping *writer* over a same-location nonatomic read keeps
///   sleeping under [`Dependence::Observational`]: reads leave the
///   history (and hence the writer's gap set) untouched, and an occupied
///   read timestamp can never equal a write gap, so the pending writes
///   commute with the read. Conservative mode wakes (the pair is
///   dependent there);
/// * write/write pairs and atomic same-location pairs with a write wake.
fn keeps_sleeping(mode: Dependence, branch: &TransitionLabel, e: &TransitionLabel) -> bool {
    let (Some(b), Some(a)) = (branch.action, e.action) else {
        return true; // a silent step on either side commutes with anything
    };
    if b.loc != a.loc {
        return true;
    }
    match (b.action.is_write(), a.action.is_write()) {
        (false, false) => true,
        // The executed write adds a readable entry: new branch, wake.
        (false, true) => false,
        // Pending writes commute with a nonatomic read (which carries a
        // timestamp); atomic reads (no timestamp) merge the location's
        // frontier and stay dependent.
        (true, false) => mode == Dependence::Observational && e.timestamp.is_some(),
        (true, true) => false,
    }
}

/// Statistics of a finished reduced exploration.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DporStats {
    /// Trace extensions executed (the analogue of
    /// [`crate::engine::ExploreStats::visited`] in trace mode).
    pub visited: usize,
    /// Transitions enumerated at nodes (before sleep pruning decides
    /// whether their thread runs).
    pub transitions: usize,
    /// Complete (maximal) traces reached — extensions whose target is
    /// terminal. The pruning ratio is this against
    /// [`full_complete_traces`].
    pub complete_traces: usize,
    /// Prefixes abandoned because every enabled thread was asleep: each
    /// is a subtree whose maximal traces were all equivalent to explored
    /// ones.
    pub sleep_blocked: usize,
}

/// One thread's enabled transitions at a node. Labels are snapshotted so
/// sleep retention can consult them after the transitions are consumed.
struct Group<E> {
    thread: ThreadId,
    labels: Vec<TransitionLabel>,
    transitions: Vec<Option<Transition<E>>>,
}

/// One suspended node of the reduced walk.
struct Node<E> {
    groups: Vec<Group<E>>,
    /// Threads scheduled for exploration at this node.
    backtrack: BTreeSet<ThreadId>,
    /// Threads fully explored at this node.
    done: BTreeSet<ThreadId>,
    /// Threads whose exploration here would only reproduce an explored
    /// equivalence class. Grows as siblings finish.
    sleep: BTreeSet<ThreadId>,
    /// `(group, next branch)` of the thread currently being explored.
    current: Option<(usize, usize)>,
}

/// The reduced depth-first trace enumerator. See the module docs.
#[derive(Clone, Copy, Debug)]
pub struct DporEngine {
    /// Budgets (`max_traces` bounds executed extensions, as in the full
    /// walk).
    pub config: EngineConfig,
    /// The dependence relation driving backtracking and sleep retention.
    pub dependence: Dependence,
}

impl DporEngine {
    /// The outcome-lane engine: observational dependence.
    pub fn new(config: EngineConfig) -> DporEngine {
        DporEngine {
            config,
            dependence: Dependence::Observational,
        }
    }

    /// An engine with an explicit [`Dependence`] mode (the reduced SC
    /// race scan uses [`Dependence::Conservative`]).
    pub fn with_dependence(config: EngineConfig, dependence: Dependence) -> DporEngine {
        DporEngine { config, dependence }
    }

    /// Builds the node whose machine has the enabled `transitions`,
    /// inheriting `sleep` from the incoming edge.
    ///
    /// Every enabled successor is materialised up front and parked in its
    /// group until the schedule (or a backtrack) reaches it — cheap
    /// because sibling targets structurally share the parent's store:
    /// each is at most one O(log n) path copy into the persistent radix
    /// map ([`crate::pmap`]), every off-path subtree pointer-identical
    /// across the whole frontier, however long the sleep sets keep it
    /// parked.
    fn node<E: Expr>(
        transitions: Vec<Transition<E>>,
        sleep: BTreeSet<ThreadId>,
        visitor: &mut dyn TraceVisitor,
        stats: &mut DporStats,
    ) -> Node<E> {
        let mut groups: Vec<Group<E>> = Vec::new();
        for t in transitions {
            stats.transitions += 1;
            bdrst_obs::counter_add(bdrst_obs::Counter::DporBranches, 1);
            if !visitor.step_filter(&t.label) {
                continue;
            }
            if groups.last().is_none_or(|g| g.thread != t.label.thread) {
                groups.push(Group {
                    thread: t.label.thread,
                    labels: Vec::new(),
                    transitions: Vec::new(),
                });
            }
            let g = groups.last_mut().expect("group just ensured");
            g.labels.push(t.label);
            g.transitions.push(Some(t));
        }
        let mut backtrack = BTreeSet::new();
        if let Some(g) = groups.iter().find(|g| !sleep.contains(&g.thread)) {
            backtrack.insert(g.thread);
        } else if !groups.is_empty() {
            stats.sleep_blocked += 1;
            bdrst_obs::counter_add(bdrst_obs::Counter::DporSleepBlocked, 1);
        }
        Node {
            groups,
            backtrack,
            done: BTreeSet::new(),
            sleep,
            current: None,
        }
    }

    /// Walks a reduced set of traces from `m0` in depth-first order,
    /// driving `visitor` through one representative per equivalence class
    /// of maximal traces (plus the sleep-blocked prefixes the sleep sets
    /// abandon early).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BudgetExceeded`] after `config.max_traces`
    /// executed extensions, with the same reported count as the full
    /// walk.
    pub fn explore<E: Expr>(
        &self,
        locs: &LocSet,
        m0: Machine<E>,
        visitor: &mut dyn TraceVisitor,
    ) -> Result<DporStats, EngineError> {
        crate::engine::timed_walk(
            || self.walk(locs, m0, visitor, &mut |_| Ok(())),
            |stats| stats.visited,
        )
    }

    /// The walk behind [`DporEngine::explore`]. Each reached terminal
    /// machine is handed to `terminal` before the visit; an error it
    /// returns ends the walk.
    fn walk<E: Expr>(
        &self,
        locs: &LocSet,
        m0: Machine<E>,
        visitor: &mut dyn TraceVisitor,
        terminal: &mut dyn FnMut(Machine<E>) -> Result<(), EngineError>,
    ) -> Result<DporStats, EngineError> {
        let mut stats = DporStats::default();
        let mut budget = Budget::new(self.config.max_traces);
        let mut trace = TraceLabels::new();
        let mut enabled: Vec<TransitionLabel> = Vec::new();
        let mut stack = vec![Self::node(
            m0.transitions(locs),
            BTreeSet::new(),
            visitor,
            &mut stats,
        )];
        loop {
            let depth = stack.len() - 1;
            let top = stack.last_mut().expect("loop keeps the stack non-empty");
            let Some((gi, bi)) = top.current else {
                // Pick the next scheduled thread; none left means the
                // node is exhausted (or sleep-blocked).
                let pick = top.groups.iter().position(|g| {
                    top.backtrack.contains(&g.thread)
                        && !top.done.contains(&g.thread)
                        && !top.sleep.contains(&g.thread)
                });
                match pick {
                    Some(gi) => top.current = Some((gi, 0)),
                    None => {
                        stack.pop();
                        if stack.is_empty() {
                            return Ok(stats);
                        }
                        trace.pop();
                    }
                }
                continue;
            };
            if bi >= top.groups[gi].transitions.len() {
                // Every branch (and its subtree) of this thread explored:
                // siblings may let it sleep.
                let finished = top.groups[gi].thread;
                top.done.insert(finished);
                top.sleep.insert(finished);
                top.current = None;
                continue;
            }
            top.current = Some((gi, bi + 1));
            let t = top.groups[gi].transitions[bi]
                .take()
                .expect("transition consumed once");
            budget.charge()?;
            stats.visited += 1;
            bdrst_obs::counter_add(bdrst_obs::Counter::StatesVisited, 1);
            let e = t.label;
            // Source-DPOR backtracking: for every *direct* race `d ⋖ e`
            // (cross-thread, dependent, with no intermediate
            // happens-after chain joining them), schedule a thread that
            // can begin the reversing sequence `notdep(d)·e` at the node
            // `d` was executed from. Just `e`'s thread is not enough:
            // when `e` happens-after an intermediate event of another
            // thread, only that thread's event — a happens-before-minimal
            // ("initial") event of the sequence — reproduces the race
            // from `pre(d)`.
            let bt_span = bdrst_obs::span(bdrst_obs::Phase::DporBacktrack);
            let mut backtrack_added: u64 = 0;
            for j in (0..depth).rev() {
                let d = trace.labels()[j];
                if !is_race(self.dependence, &d, &e) {
                    continue;
                }
                // Events of the window strictly between `d` and `e` that
                // happen-after `d` (dependence-path-connected to it).
                let window = &trace.labels()[j + 1..depth];
                let mut after = vec![false; window.len()];
                for (i, w) in window.iter().enumerate() {
                    after[i] = mode_dependent(self.dependence, &d, w)
                        || window[..i]
                            .iter()
                            .enumerate()
                            .any(|(m, u)| after[m] && mode_dependent(self.dependence, u, w));
                }
                // A derived race — `e` already happens-after `d` through
                // an intermediate — reverses through its constituent
                // direct races instead.
                if window
                    .iter()
                    .enumerate()
                    .any(|(i, w)| after[i] && mode_dependent(self.dependence, w, &e))
                {
                    continue;
                }
                // Initials of `notdep(d)·e`: threads whose first event of
                // the sequence depends on nothing earlier in it.
                let mut initials: BTreeSet<ThreadId> = BTreeSet::new();
                let notdep = || window.iter().enumerate().filter(|(i, _)| !after[*i]);
                for (i, w) in notdep() {
                    if notdep()
                        .take_while(|(m, _)| *m < i)
                        .all(|(_, u)| !mode_dependent(self.dependence, u, w))
                    {
                        initials.insert(w.thread);
                    }
                }
                if notdep().all(|(_, u)| !mode_dependent(self.dependence, u, &e)) {
                    initials.insert(e.thread);
                }
                let pre = &mut stack[j];
                if initials.iter().any(|q| pre.backtrack.contains(q)) {
                    continue; // some initial is already scheduled
                }
                let enabled_initials: Vec<ThreadId> = pre
                    .groups
                    .iter()
                    .map(|g| g.thread)
                    .filter(|q| initials.contains(q))
                    .collect();
                let before = pre.backtrack.len();
                if enabled_initials.is_empty() {
                    // No initial runnable at `pre(d)` (filtered away):
                    // fall back to scheduling everything enabled.
                    let all: Vec<ThreadId> = pre.groups.iter().map(|g| g.thread).collect();
                    pre.backtrack.extend(all);
                } else {
                    pre.backtrack.extend(enabled_initials);
                }
                backtrack_added += (pre.backtrack.len() - before) as u64;
            }
            bdrst_obs::counter_add(bdrst_obs::Counter::DporBacktrackPoints, backtrack_added);
            drop(bt_span);
            trace.push(e);
            let next = t.target.transitions(locs);
            enabled.clear();
            enabled.extend(next.iter().map(|n| n.label));
            if next.is_empty() {
                stats.complete_traces += 1;
                terminal(t.target)?;
            }
            let step = Step {
                label: e,
                enabled: &enabled,
                terminal: next.is_empty(),
            };
            match visitor.visit(&trace, step) {
                Control::Stop => return Ok(stats),
                Control::Prune => {
                    trace.pop();
                }
                Control::Continue => {
                    let parent = stack.last().expect("top still on the stack");
                    let child_sleep: BTreeSet<ThreadId> = parent
                        .sleep
                        .iter()
                        .copied()
                        .filter(|q| {
                            parent
                                .groups
                                .iter()
                                .find(|g| g.thread == *q)
                                .is_none_or(|g| {
                                    g.labels
                                        .iter()
                                        .all(|b| keeps_sleeping(self.dependence, b, &e))
                                })
                        })
                        .collect();
                    let child = Self::node(next, child_sleep, visitor, &mut stats);
                    stack.push(child);
                }
            }
        }
    }
}

/// Counts the complete (maximal) traces of the *full* enumeration from
/// `m0` — the unreduced reference for pruning ratios.
///
/// # Errors
///
/// As [`crate::engine::TraceEngine::explore`].
pub fn full_complete_traces<E: Expr>(
    locs: &LocSet,
    m0: Machine<E>,
    config: EngineConfig,
) -> Result<usize, EngineError> {
    struct Count(usize);
    impl TraceVisitor for Count {
        fn visit(&mut self, _: &TraceLabels, step: Step<'_>) -> Control {
            if step.terminal {
                self.0 += 1;
            }
            Control::Continue
        }
    }
    let mut v = Count(0);
    crate::engine::TraceEngine::new(config).explore(locs, m0, &mut v)?;
    Ok(v.0)
}

/// Terminal machines reachable from `m0` under the reduced exploration,
/// deduplicated canonically — the [`crate::engine::Strategy::Dpor`]
/// outcome lane. Returns the reduction statistics alongside.
///
/// # Errors
///
/// As [`DporEngine::explore`], plus [`EngineError::CorruptFrontier`] if a
/// terminal fails to canonicalize.
pub fn dpor_reachable_terminals<E: Expr>(
    locs: &LocSet,
    m0: Machine<E>,
    config: EngineConfig,
    dependence: Dependence,
) -> Result<(Vec<Machine<E>>, DporStats), EngineError> {
    struct Go;
    impl TraceVisitor for Go {
        fn visit(&mut self, _: &TraceLabels, _: Step<'_>) -> Control {
            Control::Continue
        }
    }
    let mut interner: StateInterner<CanonState<E>> = StateInterner::new();
    let mut terminals = Vec::new();
    let mut collect = |m: Machine<E>| {
        if intern_canonical(&mut interner, locs, &m)?.1 {
            terminals.push(m);
        }
        Ok(())
    };
    let engine = DporEngine::with_dependence(config, dependence);
    let stats = crate::engine::timed_walk(
        || engine.walk(locs, m0.clone(), &mut Go, &mut collect),
        |stats| stats.visited,
    )?;
    if m0.is_terminal() {
        terminals.push(m0);
    }
    Ok((terminals, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, StateId, WorklistEngine};
    use crate::loc::{Loc, LocKind, Val};
    use crate::machine::{RecordedExpr, StepLabel};
    use std::collections::BTreeSet;

    struct Go;
    impl TraceVisitor for Go {
        fn visit(&mut self, _: &TraceLabels, _: Step<'_>) -> Control {
            Control::Continue
        }
    }

    fn locs_ab() -> (LocSet, Loc, Loc) {
        let mut l = LocSet::new();
        let a = l.fresh("a", LocKind::Nonatomic);
        let b = l.fresh("b", LocKind::Nonatomic);
        (l, a, b)
    }

    /// Terminal read observations of the full state-space exploration.
    fn full_outcomes(locs: &LocSet, m0: Machine<RecordedExpr>) -> BTreeSet<Vec<i64>> {
        let mut out = BTreeSet::new();
        WorklistEngine::new(EngineConfig::default())
            .explore(locs, m0, &mut |m: &Machine<RecordedExpr>, _: StateId| {
                if m.is_terminal() {
                    out.insert(reads(m));
                }
                Control::Continue
            })
            .unwrap();
        out
    }

    fn reads(m: &Machine<RecordedExpr>) -> Vec<i64> {
        m.threads
            .iter()
            .flat_map(|t| t.expr.reads.iter().map(|v| v.0))
            .collect()
    }

    fn dpor_outcomes(
        locs: &LocSet,
        m0: Machine<RecordedExpr>,
        dependence: Dependence,
    ) -> (BTreeSet<Vec<i64>>, DporStats) {
        let (terms, stats) =
            dpor_reachable_terminals(locs, m0, EngineConfig::default(), dependence).unwrap();
        (terms.iter().map(reads).collect(), stats)
    }

    #[test]
    fn dependence_relation_on_labels() {
        let mut locs = LocSet::new();
        let a = locs.fresh("a", LocKind::Nonatomic);
        let f = locs.fresh("F", LocKind::Atomic);
        let m0 = Machine::initial(
            &locs,
            [
                RecordedExpr::new(vec![StepLabel::Write(a, Val(1))]),
                RecordedExpr::new(vec![StepLabel::Read(a)]),
                RecordedExpr::new(vec![StepLabel::Read(f)]),
                RecordedExpr::new(vec![StepLabel::Silent]),
            ],
        );
        let ts = m0.transitions(&locs);
        let label = |tid: u32| {
            ts.iter()
                .find(|t| t.label.thread == ThreadId(tid))
                .unwrap()
                .label
        };
        let (w, r, rf, s) = (label(0), label(1), label(2), label(3));
        assert!(dependent(&w, &r), "same-loc write/read");
        assert!(dependent(&w, &w), "same thread");
        assert!(!dependent(&w, &rf), "different locations");
        assert!(!dependent(&r, &rf), "reads of different locations");
        assert!(!dependent(&s, &w), "silent commutes with everything");
        assert!(!dependent(&rf, &rf.clone()) || rf.thread == rf.thread);
    }

    #[test]
    fn independent_writes_explore_one_representative() {
        let (locs, a, b) = locs_ab();
        let p0 = RecordedExpr::new(vec![StepLabel::Write(a, Val(1))]);
        let p1 = RecordedExpr::new(vec![StepLabel::Write(b, Val(1))]);
        let m0 = Machine::initial(&locs, [p0, p1]);
        let full = full_complete_traces(&locs, m0.clone(), EngineConfig::default()).unwrap();
        assert_eq!(full, 2);
        for dep in [Dependence::Conservative, Dependence::Observational] {
            let mut go = Go;
            let stats = DporEngine::with_dependence(EngineConfig::default(), dep)
                .explore(&locs, m0.clone(), &mut go)
                .unwrap();
            // One thread never even gets scheduled: no race, no
            // backtrack point, no second interleaving.
            assert_eq!(stats.complete_traces, 1, "{dep:?}");
            assert_eq!(stats.visited, 2, "{dep:?}");
        }
    }

    #[test]
    fn store_buffering_prunes_and_preserves_outcomes() {
        let (locs, a, b) = locs_ab();
        let mk = || {
            let p0 = RecordedExpr::new(vec![StepLabel::Write(a, Val(1)), StepLabel::Read(b)]);
            let p1 = RecordedExpr::new(vec![StepLabel::Write(b, Val(1)), StepLabel::Read(a)]);
            Machine::initial(&locs, [p0, p1])
        };
        let full_traces = full_complete_traces(&locs, mk(), EngineConfig::default()).unwrap();
        let reference = full_outcomes(&locs, mk());
        assert_eq!(reference.len(), 4); // SB is racy: all four outcomes
        for dep in [Dependence::Conservative, Dependence::Observational] {
            let (outcomes, stats) = dpor_outcomes(&locs, mk(), dep);
            assert_eq!(outcomes, reference, "{dep:?}");
            assert!(
                stats.complete_traces < full_traces,
                "{dep:?}: {} !< {full_traces}",
                stats.complete_traces
            );
        }
    }

    /// CoRR — one writer, one double reader, a single location — is the
    /// program only the observational mode can prune: every cross-thread
    /// pair shares the location, but a read observing timestamp 0 commutes
    /// with the pending write.
    #[test]
    fn corr_prunes_only_under_observational_dependence() {
        let mut locs = LocSet::new();
        let a = locs.fresh("a", LocKind::Nonatomic);
        let mk = || {
            let p0 = RecordedExpr::new(vec![StepLabel::Write(a, Val(1))]);
            let p1 = RecordedExpr::new(vec![StepLabel::Read(a), StepLabel::Read(a)]);
            Machine::initial(&locs, [p0, p1])
        };
        let full_traces = full_complete_traces(&locs, mk(), EngineConfig::default()).unwrap();
        assert_eq!(full_traces, 7); // 4 (write first) + 2 + 1
        let reference = full_outcomes(&locs, mk());

        let (obs_outcomes, obs) = dpor_outcomes(&locs, mk(), Dependence::Observational);
        assert_eq!(obs_outcomes, reference);
        assert_eq!(obs.complete_traces, 4, "only write-first orders remain");
        // The write-first subtree alone: its write, then 2 × 2 read
        // branches — the read-first orders are never even scheduled (a
        // pending write over an already-readable entry is no race).
        assert_eq!(obs.visited, 7);

        // The conservative mode keeps the read/write pairs dependent and
        // explores the full seven.
        let (con_outcomes, con) = dpor_outcomes(&locs, mk(), Dependence::Conservative);
        assert_eq!(con_outcomes, reference);
        assert_eq!(con.complete_traces, full_traces);
    }

    #[test]
    fn atomic_reads_commute() {
        let mut locs = LocSet::new();
        let f = locs.fresh("F", LocKind::Atomic);
        let p0 = RecordedExpr::new(vec![StepLabel::Read(f)]);
        let p1 = RecordedExpr::new(vec![StepLabel::Read(f)]);
        let m0 = Machine::initial(&locs, [p0, p1]);
        let full = full_complete_traces(&locs, m0.clone(), EngineConfig::default()).unwrap();
        assert_eq!(full, 2);
        let mut go = Go;
        let stats = DporEngine::new(EngineConfig::default())
            .explore(&locs, m0, &mut go)
            .unwrap();
        assert_eq!(stats.complete_traces, 1);
    }

    #[test]
    fn budget_trips_mid_backtrack() {
        // Establish the reduced walk's exact extension count, then rerun
        // with one less: the walk must die with the same budget error the
        // full engine reports, partway through its backtracking.
        let (locs, a, b) = locs_ab();
        let mk = || {
            let p0 = RecordedExpr::new(vec![StepLabel::Write(a, Val(1)), StepLabel::Read(b)]);
            let p1 = RecordedExpr::new(vec![StepLabel::Write(b, Val(1)), StepLabel::Read(a)]);
            Machine::initial(&locs, [p0, p1])
        };
        let mut go = Go;
        let stats = DporEngine::new(EngineConfig::default())
            .explore(&locs, mk(), &mut go)
            .unwrap();
        assert!(stats.visited > 2);
        let tight = EngineConfig {
            max_states: usize::MAX,
            max_traces: stats.visited - 1,
        };
        let mut go = Go;
        let r = DporEngine::new(tight).explore(&locs, mk(), &mut go);
        assert_eq!(r.unwrap_err(), EngineError::budget(stats.visited));

        // An exact budget succeeds.
        let exact = EngineConfig {
            max_states: usize::MAX,
            max_traces: stats.visited,
        };
        let mut go = Go;
        assert!(DporEngine::new(exact).explore(&locs, mk(), &mut go).is_ok());
    }

    #[test]
    fn stop_aborts_immediately() {
        let (locs, a, b) = locs_ab();
        let p0 = RecordedExpr::new(vec![StepLabel::Write(a, Val(1)); 3]);
        let p1 = RecordedExpr::new(vec![StepLabel::Write(b, Val(1)); 3]);
        let m0 = Machine::initial(&locs, [p0, p1]);
        struct StopNow(usize);
        impl TraceVisitor for StopNow {
            fn visit(&mut self, _: &TraceLabels, _: Step<'_>) -> Control {
                self.0 += 1;
                Control::Stop
            }
        }
        let mut v = StopNow(0);
        DporEngine::new(EngineConfig::default())
            .explore(&locs, m0, &mut v)
            .unwrap();
        assert_eq!(v.0, 1);
    }

    #[test]
    fn step_filter_is_honoured() {
        // Filter out thread 1 entirely: the walk degenerates to thread
        // 0's three writes, one maximal trace.
        let (locs, a, b) = locs_ab();
        let p0 = RecordedExpr::new(vec![StepLabel::Write(a, Val(1)); 3]);
        let p1 = RecordedExpr::new(vec![StepLabel::Write(b, Val(1)); 3]);
        let m0 = Machine::initial(&locs, [p0, p1]);
        struct OnlyThreadZero(usize);
        impl TraceVisitor for OnlyThreadZero {
            fn step_filter(&mut self, label: &TransitionLabel) -> bool {
                label.thread == ThreadId(0)
            }
            fn visit(&mut self, _: &TraceLabels, _: Step<'_>) -> Control {
                self.0 += 1;
                Control::Continue
            }
        }
        let mut v = OnlyThreadZero(0);
        let stats = DporEngine::new(EngineConfig::default())
            .explore(&locs, m0, &mut v)
            .unwrap();
        assert_eq!(v.0, 3);
        assert_eq!(stats.visited, 3);
        // Thread 1 never runs, so no "complete" (terminal) trace exists.
        assert_eq!(stats.complete_traces, 0);
    }

    #[test]
    fn prune_abandons_the_subtree() {
        let (locs, a, b) = locs_ab();
        let p0 = RecordedExpr::new(vec![StepLabel::Write(a, Val(1)); 2]);
        let p1 = RecordedExpr::new(vec![StepLabel::Write(b, Val(1)); 2]);
        let m0 = Machine::initial(&locs, [p0, p1]);
        struct PruneAll(usize);
        impl TraceVisitor for PruneAll {
            fn visit(&mut self, _: &TraceLabels, _: Step<'_>) -> Control {
                self.0 += 1;
                Control::Prune
            }
        }
        let mut v = PruneAll(0);
        DporEngine::new(EngineConfig::default())
            .explore(&locs, m0, &mut v)
            .unwrap();
        // Only the root's scheduled thread runs: one extension, pruned.
        assert_eq!(v.0, 1);
    }

    #[test]
    fn terminal_initial_machine_yields_itself() {
        let (locs, _, _) = locs_ab();
        let m0: Machine<RecordedExpr> = Machine::initial(&locs, []);
        let (terms, stats) = dpor_reachable_terminals(
            &locs,
            m0,
            EngineConfig::default(),
            Dependence::Observational,
        )
        .unwrap();
        assert_eq!(terms.len(), 1);
        assert_eq!(stats.visited, 0);
    }
}
