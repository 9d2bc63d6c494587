//! Deque-based work-stealing: the persistent worker pool behind
//! [`WorkStealingEngine`] and [`crate::engine::parallel_map`].
//!
//! It is the one parallel state engine. A level-synchronous engine would
//! pay a full thread barrier per BFS level, and litmus-scale state spaces
//! have shallow, narrow levels, so that barrier would dominate. The
//! work-stealing engine instead keeps one pool of workers alive for the
//! whole exploration:
//!
//! * each worker owns a deque ([`StealDeques`], riding the lock-free
//!   [`ChaseLev`] deque) of machines awaiting expansion, pushed and
//!   popped LIFO at the owner end (depth-first locality: the hottest
//!   subtree stays in cache);
//! * an idle worker steals from the *top* of a victim's deque — the
//!   oldest entry roots the largest unexplored subtree, so one steal
//!   buys the most work per synchronisation — with no lock anywhere on
//!   the steal path;
//! * newly reached states are admitted through the claim-exactly-once
//!   [`SharedInterner`], probed **fingerprint-first**
//!   ([`crate::engine::canonical_fingerprint`]): a re-visit costs zero
//!   allocation, and the full canonical state is built only on first
//!   claim (or verified fingerprint collision), exactly as in the
//!   sequential engines;
//! * the caller's [`StateVisitor`] — which is `&mut` and need not be
//!   `Send` — runs on the coordinating thread, fed by a channel of
//!   freshly claimed states; admitted states return to the pool through
//!   one coordinator-owned lock-free [`ChaseLev`] *injector* (the
//!   coordinator is its single bottom-end owner, workers steal from the
//!   top), so every idle worker sees every admitted state immediately —
//!   no state can stall behind one worker's backoff. A state is never
//!   expanded before the visitor admits it, so
//!   [`Control::Prune`]/[`Control::Stop`] steer the search exactly as
//!   they do sequentially.
//!
//! Termination uses a single `pending` counter covering every state that
//! is queued, being expanded, or awaiting its visitor verdict: when it
//! reaches zero the space is exhausted. Budget and corruption errors are
//! recorded first-error-wins and surfaced as the same [`EngineError`]
//! values the sequential engines produce.
//!
//! [`WorkStealingEngine::explore_graph`] runs the same pool without a
//! visitor (full exploration, nothing to admit or prune): workers push
//! fresh claims straight onto their own deques and record, per expanded
//! [`StateId`], its successor ids and terminal flag — the raw material of
//! the [`crate::engine::StateGraph`].
//!
//! # Thread-count knobs
//!
//! Every parallel entry point in this crate resolves its worker count
//! through [`engine_threads`]: an explicit nonzero count is used as
//! given; `0` (the "all cores" default) consults the
//! `BDRST_ENGINE_THREADS` environment variable before falling back to
//! [`std::thread::available_parallelism`]. CI runs the whole test suite
//! once with `BDRST_ENGINE_THREADS=1` (forcing every defaulted pool to a
//! single worker) and once unset, so both paths stay exercised.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::Duration;

use crate::engine::deque::{ChaseLev, Steal};
use crate::engine::{
    claim_canonical, CanonState, Control, EngineConfig, EngineError, ExploreStats, Explorer,
    SharedInterner, StateGraph, StateId, StateVisitor, WorklistEngine,
};
use crate::loc::LocSet;
use crate::machine::{Expr, Machine};

/// Resolves a requested worker count: nonzero counts are taken verbatim,
/// `0` means "all available" — first the `BDRST_ENGINE_THREADS`
/// environment variable (if set to a positive integer), then
/// [`std::thread::available_parallelism`].
pub fn engine_threads(requested: usize) -> usize {
    if requested != 0 {
        return requested;
    }
    if let Ok(s) = std::env::var("BDRST_ENGINE_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

/// One lock-free [`ChaseLev`] deque per worker, with LIFO owner access
/// and FIFO stealing.
///
/// The owner protocol: `push(w, _)`/`pop(w)` belong to worker `w`'s
/// owner thread (they serialize through the deque's uncontended owner
/// latch, so even misuse cannot corrupt the structure); `steal`/`take`
/// may be called from anywhere and never block on the owner.
pub struct StealDeques<T> {
    queues: Vec<ChaseLev<T>>,
}

impl<T> StealDeques<T> {
    /// Empty deques for `workers` workers.
    pub fn new(workers: usize) -> StealDeques<T> {
        StealDeques {
            queues: (0..workers).map(|_| ChaseLev::new()).collect(),
        }
    }

    /// Number of worker deques.
    pub fn workers(&self) -> usize {
        self.queues.len()
    }

    /// Pushes `item` onto `worker`'s deque (owner side).
    pub fn push(&self, worker: usize, item: T) {
        self.queues[worker].push(item);
    }

    /// Pops from `worker`'s own deque (LIFO: depth-first locality).
    pub fn pop(&self, worker: usize) -> Option<T> {
        self.queues[worker].pop()
    }

    /// Steals from the top of some other worker's deque (FIFO: the
    /// oldest entry roots the largest subtree). Victims are scanned
    /// round-robin starting after the thief; a lost CAS race retries the
    /// same victim.
    pub fn steal(&self, thief: usize) -> Option<T> {
        let n = self.queues.len();
        for k in 1..n {
            let victim = (thief + k) % n;
            loop {
                match self.queues[victim].steal() {
                    Steal::Success(item) => return Some(item),
                    Steal::Retry => continue,
                    Steal::Empty => break,
                }
            }
        }
        None
    }

    /// Owner pop, falling back to stealing.
    pub fn take(&self, worker: usize) -> Option<T> {
        self.pop(worker).or_else(|| self.steal(worker))
    }
}

/// Records the first error any worker hits; later errors are dropped.
struct FirstError {
    slot: Mutex<Option<EngineError>>,
}

impl FirstError {
    fn new() -> FirstError {
        FirstError {
            slot: Mutex::new(None),
        }
    }

    fn record(&self, e: EngineError) {
        let mut slot = self.slot.lock().expect("error slot poisoned");
        slot.get_or_insert(e);
    }

    fn into_inner(self) -> Option<EngineError> {
        self.slot.into_inner().expect("error slot poisoned")
    }
}

/// Brief-yield-then-sleep backoff for a worker that found no work: when
/// the coordinator's visitor is the bottleneck the deques stay empty for
/// long stretches and spinning would burn cores.
pub(crate) fn idle_backoff(idle_spins: &mut u32) {
    if *idle_spins < 64 {
        *idle_spins += 1;
        std::thread::yield_now();
    } else {
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// The work-stealing state-space engine: a persistent pool of workers
/// expanding machines from per-worker lock-free deques, no per-level
/// barrier.
///
/// Deep explorations scale because a worker never waits for a level to
/// drain — it either pops its own deque or steals. The visitor runs on
/// the coordinating (calling) thread and admits every state before it is
/// expanded, so pruning and stopping behave exactly as in the sequential
/// engines; the visited canonical state *set* is identical across all
/// engines (claim-exactly-once interning), only the visit order differs.
#[derive(Clone, Copy, Debug)]
pub struct WorkStealingEngine {
    /// Budgets.
    pub config: EngineConfig,
    /// Worker thread count; 0 means all available cores (see
    /// [`engine_threads`]).
    pub threads: usize,
}

impl WorkStealingEngine {
    /// An engine using every available core.
    pub fn new(config: EngineConfig) -> WorkStealingEngine {
        WorkStealingEngine { config, threads: 0 }
    }

    /// An engine with an explicit worker count.
    pub fn with_threads(config: EngineConfig, threads: usize) -> WorkStealingEngine {
        WorkStealingEngine { config, threads }
    }

    /// Fully explores the state space from `m0` across the pool (no
    /// visitor, no pruning), recording the interned successor graph:
    /// workers push fresh claims straight onto their own deques, and
    /// each expansion logs its successor ids (every endpoint has a known
    /// id thanks to claim-or-lookup interning) and terminal flag. The
    /// resulting [`StateGraph`] is identical in content to
    /// [`WorklistEngine::explore_graph`]'s, up to id permutation from
    /// the claiming race.
    ///
    /// # Errors
    ///
    /// As [`Explorer::explore`]: budget exhaustion or a corrupted
    /// machine.
    pub fn explore_graph<E: Expr + Send + Sync>(
        &self,
        locs: &LocSet,
        m0: Machine<E>,
    ) -> Result<(StateGraph<E>, ExploreStats), EngineError> {
        let workers = engine_threads(self.threads);
        if workers <= 1 {
            return WorklistEngine::new(self.config).explore_graph(locs, m0);
        }
        let mut span = bdrst_obs::span(bdrst_obs::Phase::Explore);
        let started = std::time::Instant::now();

        let interner: SharedInterner<CanonState<E>> = SharedInterner::new();
        let (id0, _) = claim_canonical(&interner, locs, &m0)?;
        let deques: StealDeques<(StateId, Machine<E>)> = StealDeques::new(workers);
        deques.push(0, (id0, m0));
        let pending = AtomicUsize::new(1);
        let stop = AtomicBool::new(false);
        let transitions = AtomicUsize::new(0);
        let failure = FirstError::new();
        let max_states = self.config.max_states;

        // Per-worker recordings, merged after the scope joins.
        type Recording = (Vec<(StateId, StateId)>, Vec<(StateId, bool)>);
        let recordings: Vec<Recording> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let (deques, pending, stop, transitions, failure, interner) =
                        (&deques, &pending, &stop, &transitions, &failure, &interner);
                    scope.spawn(move || {
                        let mut edges: Vec<(StateId, StateId)> = Vec::new();
                        let mut terminals: Vec<(StateId, bool)> = Vec::new();
                        let mut idle_spins = 0u32;
                        while !stop.load(Ordering::Acquire) {
                            let Some((id, m)) = deques.take(w) else {
                                if pending.load(Ordering::Acquire) == 0 {
                                    break;
                                }
                                idle_backoff(&mut idle_spins);
                                continue;
                            };
                            idle_spins = 0;
                            bdrst_obs::counter_add(bdrst_obs::Counter::StatesVisited, 1);
                            bdrst_obs::progress_tick(interner.len() as u64, max_states as u64);
                            let ts = m.transitions(locs);
                            terminals.push((id, ts.is_empty()));
                            let mut err = None;
                            for t in ts {
                                transitions.fetch_add(1, Ordering::Relaxed);
                                match claim_canonical(interner, locs, &t.target) {
                                    Ok((succ, fresh)) => {
                                        edges.push((id, succ));
                                        if fresh {
                                            let depth = pending.fetch_add(1, Ordering::AcqRel) + 1;
                                            bdrst_obs::counter_max(
                                                bdrst_obs::Counter::FrontierHighWater,
                                                depth as u64,
                                            );
                                            deques.push(w, (succ, t.target));
                                        }
                                    }
                                    Err(e) => {
                                        err = Some(e);
                                        break;
                                    }
                                }
                            }
                            if err.is_none() && interner.len() > max_states {
                                err = Some(EngineError::budget(interner.len()));
                            }
                            if let Some(e) = err {
                                failure.record(e);
                                stop.store(true, Ordering::Release);
                                break;
                            }
                            pending.fetch_sub(1, Ordering::AcqRel);
                        }
                        (edges, terminals)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });

        if let Some(e) = failure.into_inner() {
            return Err(e);
        }
        let mut edges = Vec::new();
        let mut terminal = vec![false; interner.len()];
        for (worker_edges, worker_terminals) in recordings {
            edges.extend(worker_edges);
            for (id, t) in worker_terminals {
                terminal[id.index()] = t;
            }
        }
        let stats = ExploreStats {
            visited: interner.len(),
            transitions: transitions.load(Ordering::Relaxed),
        };
        bdrst_obs::counter_add(
            bdrst_obs::Counter::ExploreNanos,
            started.elapsed().as_nanos() as u64,
        );
        span.set_arg(stats.visited as u64);
        Ok((
            StateGraph::from_parts(interner.into_states(), &edges, terminal),
            stats,
        ))
    }
}

/// A batch of freshly claimed states travelling worker → coordinator.
type Claimed<E> = Vec<(StateId, Machine<E>)>;

impl<E: Expr + Send + Sync> Explorer<E> for WorkStealingEngine {
    fn explore(
        &self,
        locs: &LocSet,
        m0: Machine<E>,
        visitor: &mut dyn StateVisitor<E>,
    ) -> Result<ExploreStats, EngineError> {
        let workers = engine_threads(self.threads);
        if workers <= 1 {
            // One worker degenerates to a sequential walk; the
            // depth-first worklist engine produces the identical state
            // set and error surface without the channel machinery.
            return WorklistEngine::new(self.config).explore(locs, m0, visitor);
        }
        let mut span = bdrst_obs::span(bdrst_obs::Phase::Explore);
        let started = std::time::Instant::now();

        let interner: SharedInterner<CanonState<E>> = SharedInterner::new();
        let mut stats = ExploreStats::default();
        let (id, _) = claim_canonical(&interner, locs, &m0)?;
        stats.visited += 1;
        bdrst_obs::counter_add(bdrst_obs::Counter::StatesVisited, 1);
        match visitor.visit(&m0, id) {
            Control::Stop | Control::Prune => return Ok(stats),
            Control::Continue => {}
        }

        // Admitted machines return to the pool through one lock-free
        // injector: the coordinating thread is its single bottom-end
        // owner (only it pushes), every worker steals from the top, so
        // each admitted state is visible to the whole pool immediately.
        let injector: ChaseLev<Machine<E>> = ChaseLev::new();
        injector.push(m0);
        // `pending` counts states that are queued for expansion (in the
        // injector), being expanded, or sitting in the channel awaiting
        // their visitor verdict. Zero means the whole space has been
        // processed.
        let pending = AtomicUsize::new(1);
        let stop = AtomicBool::new(false);
        let transitions = AtomicUsize::new(0);
        let failure = FirstError::new();
        let max_states = self.config.max_states;

        let (tx, rx) = mpsc::channel::<Claimed<E>>();
        let mut visitor_stopped = false;
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let (injector, pending, stop, transitions, failure, interner) = (
                    &injector,
                    &pending,
                    &stop,
                    &transitions,
                    &failure,
                    &interner,
                );
                scope.spawn(move || {
                    let mut idle_spins = 0u32;
                    while !stop.load(Ordering::Acquire) {
                        let m = match injector.steal() {
                            Steal::Success(m) => m,
                            // Lost a race: another worker took it.
                            Steal::Retry => continue,
                            Steal::Empty => {
                                if pending.load(Ordering::Acquire) == 0 {
                                    break;
                                }
                                idle_backoff(&mut idle_spins);
                                continue;
                            }
                        };
                        idle_spins = 0;
                        let mut claimed: Claimed<E> = Vec::new();
                        let mut err = None;
                        for t in m.transitions(locs) {
                            transitions.fetch_add(1, Ordering::Relaxed);
                            match claim_canonical(interner, locs, &t.target) {
                                Ok((id, fresh)) => {
                                    if fresh {
                                        claimed.push((id, t.target));
                                    }
                                }
                                Err(e) => {
                                    err = Some(e);
                                    break;
                                }
                            }
                        }
                        if err.is_none() && interner.len() > max_states {
                            err = Some(EngineError::budget(interner.len()));
                        }
                        if let Some(e) = err {
                            failure.record(e);
                            stop.store(true, Ordering::Release);
                            break;
                        }
                        if !claimed.is_empty() {
                            let depth =
                                pending.fetch_add(claimed.len(), Ordering::AcqRel) + claimed.len();
                            bdrst_obs::counter_max(
                                bdrst_obs::Counter::FrontierHighWater,
                                depth as u64,
                            );
                            // The coordinator only hangs up after `stop`;
                            // a failed send means shutdown is under way.
                            let _ = tx.send(claimed);
                        }
                        pending.fetch_sub(1, Ordering::AcqRel);
                    }
                });
            }
            drop(tx); // workers hold the remaining senders

            // Coordinator: admit states through the visitor and feed the
            // survivors back to the pool through the injector (this
            // thread is the injector's only owner, so the push below is
            // the single-owner Chase–Lev bottom operation).
            'coordinate: loop {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                match rx.recv_timeout(Duration::from_millis(1)) {
                    Ok(batch) => {
                        for (id, m) in batch {
                            stats.visited += 1;
                            bdrst_obs::counter_add(bdrst_obs::Counter::StatesVisited, 1);
                            bdrst_obs::progress_tick(stats.visited as u64, max_states as u64);
                            match visitor.visit(&m, id) {
                                Control::Continue => {
                                    injector.push(m);
                                }
                                Control::Prune => {
                                    pending.fetch_sub(1, Ordering::AcqRel);
                                }
                                Control::Stop => {
                                    visitor_stopped = true;
                                    stop.store(true, Ordering::Release);
                                    break 'coordinate;
                                }
                            }
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        if pending.load(Ordering::Acquire) == 0 {
                            break;
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            }
            stop.store(true, Ordering::Release);
        });

        match failure.into_inner() {
            // Corruption is never masked by verdicts.
            Some(e @ EngineError::CorruptFrontier { .. }) => return Err(e),
            // A visitor Stop is a definitive verdict, so a budget trip an
            // in-flight worker recorded concurrently does not override
            // it. Whether the stop or the budget lands first in this
            // regime is search-order dependent (different orders intern
            // different state prefixes, and the budget check precedes
            // each visit); this engine resolves the race
            // deterministically in favour of the verdict.
            Some(e) if !visitor_stopped => return Err(e),
            _ => {}
        }
        stats.transitions = transitions.load(Ordering::Relaxed);
        bdrst_obs::counter_add(
            bdrst_obs::Counter::ExploreNanos,
            started.elapsed().as_nanos() as u64,
        );
        span.set_arg(stats.visited as u64);
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loc::{Loc, LocKind, Val};
    use crate::machine::{RecordedExpr, StepLabel};
    use std::collections::BTreeSet;

    fn locs_abf() -> (LocSet, Loc, Loc, Loc) {
        let mut l = LocSet::new();
        let a = l.fresh("a", LocKind::Nonatomic);
        let b = l.fresh("b", LocKind::Nonatomic);
        let f = l.fresh("F", LocKind::Atomic);
        (l, a, b, f)
    }

    fn mp_machine(locs: &LocSet, a: Loc, f: Loc) -> Machine<RecordedExpr> {
        let p0 = RecordedExpr::new(vec![
            StepLabel::Write(a, Val(1)),
            StepLabel::Write(f, Val(1)),
        ]);
        let p1 = RecordedExpr::new(vec![StepLabel::Read(f), StepLabel::Read(a)]);
        Machine::initial(locs, [p0, p1])
    }

    fn outcome_set(
        engine: &dyn Explorer<RecordedExpr>,
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
    fn deques_lifo_owner_fifo_thief() {
        let d: StealDeques<u32> = StealDeques::new(2);
        d.push(0, 1);
        d.push(0, 2);
        d.push(0, 3);
        // Thief takes the oldest item, owner the newest.
        assert_eq!(d.steal(1), Some(1));
        assert_eq!(d.pop(0), Some(3));
        assert_eq!(d.take(1), Some(2)); // own deque empty → steal
        assert_eq!(d.take(0), None);
    }

    /// One worker (the depth-first worklist fallback) and a real pool
    /// both match the sequential engine.
    #[test]
    fn worksteal_matches_sequential_on_message_passing() {
        let (locs, a, _b, f) = locs_abf();
        let seq = WorklistEngine::new(EngineConfig::default());
        let s = outcome_set(&seq, &locs, mp_machine(&locs, a, f));
        for threads in [1, 4] {
            let ws = WorkStealingEngine::with_threads(EngineConfig::default(), threads);
            let w = outcome_set(&ws, &locs, mp_machine(&locs, a, f));
            assert_eq!(s, w, "{threads} worker(s)");
            assert!(!w.contains(&vec![1, 0]));
        }
    }

    #[test]
    fn worksteal_single_thread_delegates() {
        let (locs, a, _b, f) = locs_abf();
        let ws1 = WorkStealingEngine::with_threads(EngineConfig::default(), 1);
        let ws4 = WorkStealingEngine::with_threads(EngineConfig::default(), 4);
        assert_eq!(
            outcome_set(&ws1, &locs, mp_machine(&locs, a, f)),
            outcome_set(&ws4, &locs, mp_machine(&locs, a, f))
        );
    }

    #[test]
    fn worksteal_budget_is_enforced() {
        let (locs, a, _, _) = locs_abf();
        let mk = || RecordedExpr::new(vec![StepLabel::Write(a, Val(1)); 6]);
        let m0 = Machine::initial(&locs, [mk(), mk(), mk()]);
        let tiny = EngineConfig {
            max_states: 10,
            max_traces: 10,
        };
        let ws = WorkStealingEngine::with_threads(tiny, 4);
        let r = ws.explore(&locs, m0, &mut |_: &Machine<RecordedExpr>, _: StateId| {
            Control::Continue
        });
        assert!(matches!(r, Err(EngineError::BudgetExceeded { .. })));
    }

    #[test]
    fn worksteal_prune_and_stop() {
        let (locs, a, _, _) = locs_abf();
        let p0 = RecordedExpr::new(vec![StepLabel::Write(a, Val(1)); 3]);
        let m0 = Machine::initial(&locs, [p0]);
        let ws = WorkStealingEngine::with_threads(EngineConfig::default(), 4);
        let mut seen = 0usize;
        ws.explore(
            &locs,
            m0.clone(),
            &mut |_: &Machine<RecordedExpr>, _: StateId| {
                seen += 1;
                Control::Prune
            },
        )
        .unwrap();
        assert_eq!(seen, 1); // initial state only: everything else pruned

        let mut stopped_after = 0usize;
        ws.explore(&locs, m0, &mut |_: &Machine<RecordedExpr>, _: StateId| {
            stopped_after += 1;
            Control::Stop
        })
        .unwrap();
        assert_eq!(stopped_after, 1);
    }

    /// One worker (the depth-first worklist fallback) and a real pool
    /// both record the sequential engine's graph.
    #[test]
    fn worksteal_graph_matches_sequential_graph() {
        let (locs, a, _b, f) = locs_abf();
        let m0 = mp_machine(&locs, a, f);
        let (seq_graph, seq_stats) = WorklistEngine::new(EngineConfig::default())
            .explore_graph(&locs, m0.clone())
            .unwrap();
        for threads in [1, 4] {
            let ws = WorkStealingEngine::with_threads(EngineConfig::default(), threads);
            let (ws_graph, ws_stats) = ws.explore_graph(&locs, m0.clone()).unwrap();
            assert_eq!(seq_graph.len(), ws_graph.len(), "{threads} worker(s)");
            assert_eq!(seq_graph.edge_count(), ws_graph.edge_count());
            assert_eq!(seq_stats.visited, ws_stats.visited);
            assert_eq!(seq_stats.transitions, ws_stats.transitions);
            assert_eq!(
                seq_graph.terminal_ids().count(),
                ws_graph.terminal_ids().count()
            );
        }
    }

    #[test]
    fn worksteal_graph_budget_is_enforced() {
        let (locs, a, _, _) = locs_abf();
        let mk = || RecordedExpr::new(vec![StepLabel::Write(a, Val(1)); 6]);
        let m0 = Machine::initial(&locs, [mk(), mk(), mk()]);
        let tiny = EngineConfig {
            max_states: 10,
            max_traces: 10,
        };
        let ws = WorkStealingEngine::with_threads(tiny, 4);
        assert!(matches!(
            ws.explore_graph(&locs, m0),
            Err(EngineError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn engine_threads_resolution() {
        assert_eq!(engine_threads(3), 3);
        assert!(engine_threads(0) >= 1);
    }
}
