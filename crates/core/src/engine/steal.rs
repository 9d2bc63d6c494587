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
//! * each expansion records its successor ids (every endpoint has a
//!   known id thanks to claim-or-lookup interning) and terminal flag —
//!   the raw material of the [`crate::engine::StateGraph`] that
//!   [`WorkStealingEngine::explore_graph`] returns.
//!
//! Termination uses a single `pending` counter covering every state that
//! is queued or being expanded: when it reaches zero the space is
//! exhausted. Budget and corruption errors are recorded first-error-wins
//! and surfaced as the same [`EngineError`] values the sequential
//! engines produce.
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
use std::sync::Mutex;
use std::time::Duration;

use crate::engine::deque::{ChaseLev, Steal};
use crate::engine::{
    claim_canonical, timed_walk, CanonState, EngineConfig, EngineError, ExploreStats,
    SharedInterner, StateGraph, StateId, WorklistEngine,
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

/// Brief-yield-then-sleep backoff for a worker that found no work: on a
/// narrow stretch of the search one worker holds the whole frontier, the
/// other deques stay empty, and spinning would burn cores.
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
/// drain — it either pops its own deque or steals. Its one walk,
/// [`WorkStealingEngine::explore_graph`], records the full successor
/// graph; the visited canonical state *set* is identical to the
/// sequential engine's (claim-exactly-once interning), only the id order
/// differs.
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
    /// As [`WorklistEngine::explore`]: budget exhaustion or a corrupted
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
        timed_walk(
            || self.explore_graph_inner(workers, locs, m0),
            |(_, stats)| stats.visited,
        )
    }

    fn explore_graph_inner<E: Expr + Send + Sync>(
        &self,
        workers: usize,
        locs: &LocSet,
        m0: Machine<E>,
    ) -> Result<(StateGraph<E>, ExploreStats), EngineError> {
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
        Ok((
            StateGraph::from_parts(interner.into_states(), &edges, terminal),
            stats,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loc::{Loc, LocKind, Val};
    use crate::machine::{RecordedExpr, StepLabel};

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
