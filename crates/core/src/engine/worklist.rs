//! Sequential engines: the iterative state-space worklist and the
//! iterative depth-first trace enumerator — plus the sharded trace walk
//! ([`TraceEngine::explore_sharded`]) that forks the enumeration across
//! the work-stealing pool, re-forking below the root when the root
//! frontier alone cannot feed it.
//!
//! [`TraceEngine::record`] records the full trace tree into a
//! [`TraceGraph`]. It walks depth-first on the calling thread; once the
//! walk has recorded `SPLIT_AFTER` nodes it continues on the
//! work-stealing pool. Whenever a worker is idle, a busy walk hands the
//! last unrecorded child of its shallowest open node — the largest
//! subtree it still owes — to the pool. Each walk writes a private run
//! of nodes in preorder (per node, its row of enabled labels and the
//! row's width), and reaching a handed subtree ends the current run, so
//! every run is one contiguous range of node ids and CSR rows. The join
//! appends the runs in preorder, freeing each as it goes, and the trace
//! budget is drawn in blocks and trips at exactly the same count as a
//! sequential recording — the graph is byte-identical at any worker
//! count.
//!
//! Neither engine recurses — both carry explicit stacks — so exploration
//! depth is bounded by heap, not by the thread's call stack, and the DFS /
//! BFS choice is a one-line worklist-discipline swap.
//!
//! State dedup is fingerprint-first by default ([`Dedup`]): a popped
//! machine is identified by its zero-allocation streaming
//! [`canonical_fingerprint`], and the full [`crate::engine::CanonState`]
//! is only built on first visit (or on a verified fingerprint collision).
//! [`Dedup::FullState`] keeps the old build-then-hash path alive as the
//! reference the property suites compare against.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::engine::steal::idle_backoff;
use crate::engine::{
    canonicalize, engine_threads, intern_canonical, parallel_map_with, Control, Dedup,
    EngineConfig, EngineError, ExploreStats, Explorer, MergeableVisitor, SearchOrder, StateGraph,
    StateId, StateInterner, StateVisitor, StealDeques, TraceGraph, TraceVisitor,
};
use crate::loc::LocSet;
use crate::machine::{Expr, Machine, Transition, TransitionLabel};
use crate::trace::TraceLabels;

/// The sequential state-space engine: an explicit worklist of machines,
/// deduplicated through a [`StateInterner`] at pop time.
///
/// [`SearchOrder::Dfs`] treats the worklist as a stack (identical
/// discovery order to the legacy recursive explorer); [`SearchOrder::Bfs`]
/// treats it as a queue. Both visit exactly the same canonical state set,
/// under either [`Dedup`] mode.
#[derive(Clone, Copy, Debug)]
pub struct WorklistEngine {
    /// Budgets.
    pub config: EngineConfig,
    /// Stack or queue discipline.
    pub order: SearchOrder,
    /// Fingerprint-first (default) or full-state reference dedup.
    pub dedup: Dedup,
}

impl WorklistEngine {
    /// An engine with the given budgets and search order (fingerprint
    /// dedup).
    pub fn new(config: EngineConfig, order: SearchOrder) -> WorklistEngine {
        WorklistEngine {
            config,
            order,
            dedup: Dedup::default(),
        }
    }

    /// An engine with an explicit [`Dedup`] mode.
    pub fn with_dedup(config: EngineConfig, order: SearchOrder, dedup: Dedup) -> WorklistEngine {
        WorklistEngine {
            config,
            order,
            dedup,
        }
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

    /// Fully explores the state space from `m0` (no visitor, no pruning),
    /// recording the interned successor graph: per dense [`StateId`], its
    /// successor ids — one entry per transition — and terminal flag, with
    /// the canonical states retained for replay. Dedup here claims
    /// successors at *expansion* time (the worklist holds only fresh
    /// states), so the visited canonical state set is identical to
    /// [`Explorer::explore`]'s while every edge endpoint has a known id.
    ///
    /// # Errors
    ///
    /// As [`Explorer::explore`]: budget exhaustion or a corrupted machine.
    pub fn explore_graph<E: Expr>(
        &self,
        locs: &LocSet,
        m0: Machine<E>,
    ) -> Result<(StateGraph<E>, ExploreStats), EngineError> {
        let mut span = bdrst_obs::span(bdrst_obs::Phase::Explore);
        let started = std::time::Instant::now();
        let mut interner: StateInterner<crate::engine::CanonState<E>> = StateInterner::new();
        let mut edges: Vec<(StateId, StateId)> = Vec::new();
        let mut terminal: Vec<bool> = Vec::new();
        let mut stats = ExploreStats::default();

        let (id0, _) = Self::intern(self.dedup, &mut interner, locs, &m0)?;
        terminal.push(false);
        let mut worklist: VecDeque<(StateId, Machine<E>)> = VecDeque::new();
        worklist.push_back((id0, m0));
        while let Some((id, m)) = match self.order {
            SearchOrder::Dfs => worklist.pop_back(),
            SearchOrder::Bfs => worklist.pop_front(),
        } {
            stats.visited += 1;
            bdrst_obs::counter_add(bdrst_obs::Counter::StatesVisited, 1);
            bdrst_obs::counter_max(bdrst_obs::Counter::FrontierHighWater, worklist.len() as u64);
            bdrst_obs::progress_tick(stats.visited as u64, self.config.max_states as u64);
            let transitions = m.transitions(locs);
            terminal[id.index()] = transitions.is_empty();
            for t in transitions {
                stats.transitions += 1;
                let (succ, fresh) = Self::intern(self.dedup, &mut interner, locs, &t.target)?;
                edges.push((id, succ));
                if fresh {
                    terminal.push(false);
                    worklist.push_back((succ, t.target));
                }
            }
            if interner.len() > self.config.max_states {
                return Err(EngineError::budget(interner.len()));
            }
        }
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

impl<E: Expr> Explorer<E> for WorklistEngine {
    fn explore(
        &self,
        locs: &LocSet,
        m0: Machine<E>,
        visitor: &mut dyn StateVisitor<E>,
    ) -> Result<ExploreStats, EngineError> {
        let mut span = bdrst_obs::span(bdrst_obs::Phase::Explore);
        let started = std::time::Instant::now();
        let mut interner: StateInterner<crate::engine::CanonState<E>> = StateInterner::new();
        let mut worklist: VecDeque<Machine<E>> = VecDeque::new();
        worklist.push_back(m0);
        let mut stats = ExploreStats::default();
        let finish = |stats: ExploreStats, span: &mut bdrst_obs::SpanGuard| {
            bdrst_obs::counter_add(
                bdrst_obs::Counter::ExploreNanos,
                started.elapsed().as_nanos() as u64,
            );
            span.set_arg(stats.visited as u64);
            stats
        };
        while let Some(m) = match self.order {
            SearchOrder::Dfs => worklist.pop_back(),
            SearchOrder::Bfs => worklist.pop_front(),
        } {
            let (id, fresh) = Self::intern(self.dedup, &mut interner, locs, &m)?;
            if !fresh {
                continue;
            }
            if interner.len() > self.config.max_states {
                return Err(EngineError::budget(interner.len()));
            }
            stats.visited += 1;
            bdrst_obs::counter_add(bdrst_obs::Counter::StatesVisited, 1);
            bdrst_obs::counter_max(bdrst_obs::Counter::FrontierHighWater, worklist.len() as u64);
            bdrst_obs::progress_tick(stats.visited as u64, self.config.max_states as u64);
            match visitor.visit(&m, id) {
                Control::Stop => return Ok(finish(stats, &mut span)),
                Control::Prune => continue,
                Control::Continue => {}
            }
            for t in m.transitions(locs) {
                stats.transitions += 1;
                worklist.push_back(t.target);
            }
        }
        Ok(finish(stats, &mut span))
    }
}

/// One suspended node of the iterative trace walk: the transitions enabled
/// at a machine (each consumed at most once), and how many have been
/// processed.
struct Frame<E> {
    transitions: Vec<Option<Transition<E>>>,
    next: usize,
}

impl<E: Expr> Frame<E> {
    fn at(m: &Machine<E>, locs: &LocSet) -> Frame<E> {
        Frame {
            transitions: m.transitions(locs).into_iter().map(Some).collect(),
            next: 0,
        }
    }

    /// A root frame restricted to a single transition — the fork point of
    /// one shard of [`TraceEngine::explore_sharded`].
    fn single(t: Transition<E>) -> Frame<E> {
        Frame {
            transitions: vec![Some(t)],
            next: 0,
        }
    }
}

/// How one (sub)walk of the trace tree ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum WalkEnd {
    /// Every trace in the subtree was enumerated (or pruned).
    Exhausted,
    /// The visitor returned [`Control::Stop`].
    Stopped,
}

/// The iterative depth-first walk shared by the sequential and sharded
/// trace enumerations. `trace` seeds the label stack (empty for a
/// root-anchored walk, the fork prefix for a deep shard); `budget` holds
/// the *remaining* extension budget — a plain counter for a sequential
/// walk and shared across shards for a sharded one, so splitting the work
/// never splits the budget.
fn walk_traces<E: Expr>(
    locs: &LocSet,
    mut frames: Vec<Frame<E>>,
    mut trace: TraceLabels,
    visitor: &mut dyn TraceVisitor<E>,
    budget: &AtomicUsize,
    max_traces: usize,
    stats: &mut ExploreStats,
) -> Result<WalkEnd, EngineError> {
    let _span = bdrst_obs::span(bdrst_obs::Phase::TraceWalk);
    let base_depth = trace.len();
    while let Some(frame) = frames.last_mut() {
        if frame.next >= frame.transitions.len() {
            // Subtree exhausted: pop the frame, and the label that led
            // into it (the root frame has no such label).
            frames.pop();
            if trace.len() > base_depth {
                trace.pop();
            }
            continue;
        }
        let i = frame.next;
        frame.next += 1;
        stats.transitions += 1;
        let t = frame.transitions[i]
            .take()
            .expect("transition consumed once");
        if !visitor.step_filter(&t) {
            continue;
        }
        if budget
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
            .is_err()
        {
            // The budget counts down from `max_traces`; exhaustion means
            // the whole enumeration (across every shard) attempted its
            // (max_traces + 1)-th extension — the same count the
            // sequential engine reports.
            return Err(EngineError::budget(max_traces + 1));
        }
        stats.visited += 1;
        trace.push(t.label);
        match visitor.visit(&trace, &t) {
            Control::Stop => return Ok(WalkEnd::Stopped),
            Control::Prune => {
                trace.pop();
            }
            Control::Continue => {
                frames.push(Frame::at(&t.target, locs));
            }
        }
    }
    Ok(WalkEnd::Exhausted)
}

/// A recording stays on the calling thread until its walk has recorded
/// this many nodes. A smaller tree records in about two milliseconds,
/// and a split costs tens of microseconds to start the pool — so corpus-
/// size trees stay sequential, and only trees that outgrow this split.
const SPLIT_AFTER: usize = 2048;

/// Recording workers draw the trace budget in allowances of at most this
/// many extensions, so the shared budget is locked once per block rather
/// than once per node.
const BUDGET_BLOCK: usize = 256;

/// A run of recorded nodes that is contiguous in the final preorder: per
/// node, its row of enabled labels and that row's width (its child
/// count). Appending runs in preorder is all the join does.
#[derive(Default)]
struct Run {
    labels: Vec<TransitionLabel>,
    widths: Vec<u32>,
}

/// One piece of a subtree's recording, in preorder: a run of nodes, or a
/// child subtree handed to the pool (recorded into its own task slot).
enum Piece {
    Run(Run),
    Handed(usize),
}

/// One node of a recording walk whose children are not all recorded:
/// the transitions still to take, and the task slots of the children
/// handed to the pool. Those are taken from the back of `rest`, so they
/// follow it in sibling order; `handed` lists them last sibling first.
struct RecFrame<E> {
    rest: std::vec::IntoIter<Transition<E>>,
    handed: Vec<usize>,
}

impl<E> RecFrame<E> {
    fn new(ts: Vec<Transition<E>>) -> RecFrame<E> {
        RecFrame {
            rest: ts.into_iter(),
            handed: Vec::new(),
        }
    }
}

/// Extensions a walker may record before drawing on the shared budget.
struct Allowance {
    left: usize,
    /// Whether `left` was granted by the pool (and so counts as
    /// outstanding there until spent or returned).
    granted: bool,
}

/// How a walk ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Walked {
    /// The subtree is recorded.
    Done,
    /// A sequential walk reached its split threshold.
    Split,
    /// The trace budget is spent.
    Tripped,
}

/// The depth-first recording of one subtree: the root walk, or a subtree
/// a worker took from the pool.
struct Walker<E> {
    stack: Vec<RecFrame<E>>,
    run: Run,
    pieces: Vec<Piece>,
    allowance: Allowance,
}

impl<E: Expr> Walker<E> {
    /// A walk over the subtrees of `ts`, with `budget` extensions of its
    /// own.
    fn new(ts: Vec<Transition<E>>, budget: usize) -> Walker<E> {
        Walker {
            stack: vec![RecFrame::new(ts)],
            run: Run::default(),
            pieces: Vec::new(),
            allowance: Allowance {
                left: budget,
                granted: false,
            },
        }
    }

    fn close_run(&mut self) {
        if !self.run.widths.is_empty() {
            self.pieces.push(Piece::Run(std::mem::take(&mut self.run)));
        }
    }

    /// Records depth-first until the subtree is done, the budget trips,
    /// or — with no pool — `split_after` nodes are in the current run.
    fn walk(
        &mut self,
        locs: &LocSet,
        pool: Option<(&Pool<E>, usize)>,
        split_after: usize,
    ) -> Walked {
        while let Some(frame) = self.stack.last_mut() {
            let Some(t) = frame.rest.next() else {
                let handed = std::mem::take(&mut frame.handed);
                self.stack.pop();
                if !handed.is_empty() {
                    // The handed subtrees come next in preorder.
                    self.close_run();
                    self.pieces
                        .extend(handed.into_iter().rev().map(Piece::Handed));
                }
                continue;
            };
            if self.allowance.left == 0
                && !pool.is_some_and(|(pool, _)| pool.refill(&mut self.allowance))
            {
                return Walked::Tripped;
            }
            self.allowance.left -= 1;
            let ts = t.target.transitions(locs);
            self.run.labels.extend(ts.iter().map(|c| c.label));
            self.run.widths.push(ts.len() as u32);
            self.stack.push(RecFrame::new(ts));
            match pool {
                Some((pool, worker)) if pool.hungry() => self.hand_off(pool, worker),
                Some(_) => {}
                None if self.run.widths.len() >= split_after => return Walked::Split,
                None => {}
            }
        }
        self.close_run();
        Walked::Done
    }

    /// Hands the last unrecorded child of the shallowest frame that has
    /// any — the largest subtree this walk still owes, and the one it
    /// would reach last — to the pool. Taking it from the back keeps the
    /// walk's current run going as far as possible.
    fn hand_off(&mut self, pool: &Pool<E>, worker: usize) {
        let Some(frame) = self.stack.iter_mut().find(|f| f.rest.len() > 0) else {
            return;
        };
        let t = frame.rest.next_back().expect("the frame has a child left");
        let slot = pool.slots.fetch_add(1, Ordering::Relaxed);
        frame.handed.push(slot);
        pool.pending.fetch_add(1, Ordering::AcqRel);
        pool.queued.fetch_add(1, Ordering::AcqRel);
        pool.deques.push(worker, (slot, t));
    }
}

/// The trace budget of a parallel recording, handed out in allowances.
///
/// A walker that needs an extension when `free` is empty trips the
/// budget only if no allowance is `outstanding`: then every granted
/// extension was spent and this one would exceed `max_traces`. Otherwise
/// it waits until the holders spend theirs (and trip) or return the rest
/// — so the trip is exact at any worker count.
struct Budget {
    free: usize,
    outstanding: usize,
}

/// The shared state of a recording split across the pool.
struct Pool<E> {
    /// Handed subtrees, with their task slots.
    deques: StealDeques<(usize, Transition<E>)>,
    budget: Mutex<Budget>,
    /// Task slots allocated so far (slot 0 is the root walk).
    slots: AtomicUsize,
    /// Tasks not yet finished, the root walk included.
    pending: AtomicUsize,
    /// Handed tasks no worker has taken yet.
    queued: AtomicUsize,
    /// Workers looking for a task.
    idle: AtomicUsize,
    /// Set when the budget trips: every worker stops.
    tripped: AtomicBool,
}

impl<E> Pool<E> {
    /// More workers are looking for work than tasks are queued.
    fn hungry(&self) -> bool {
        self.idle.load(Ordering::Relaxed) > self.queued.load(Ordering::Relaxed)
    }

    /// Grants `allowance` a fresh block of the budget (its previous one
    /// is spent); false once the budget has tripped.
    fn refill(&self, allowance: &mut Allowance) -> bool {
        let mut spins = 0;
        loop {
            {
                let mut budget = self.budget.lock().expect("budget lock poisoned");
                if std::mem::take(&mut allowance.granted) {
                    budget.outstanding -= 1;
                }
                if budget.free > 0 {
                    allowance.left = budget.free.min(BUDGET_BLOCK);
                    budget.free -= allowance.left;
                    budget.outstanding += 1;
                    allowance.granted = true;
                    return true;
                }
                if budget.outstanding == 0 {
                    self.tripped.store(true, Ordering::Release);
                    return false;
                }
            }
            if self.tripped.load(Ordering::Acquire) {
                return false;
            }
            idle_backoff(&mut spins);
        }
    }

    /// Returns the unspent rest of `allowance` to the pool.
    fn release(&self, allowance: &mut Allowance) {
        if std::mem::take(&mut allowance.granted) {
            let mut budget = self.budget.lock().expect("budget lock poisoned");
            budget.free += std::mem::take(&mut allowance.left);
            budget.outstanding -= 1;
        }
    }
}

/// One recording worker: finishes `root` (the root walk, on the calling
/// thread), then records subtrees from the pool until every task is done
/// or the budget trips. Returns each finished task's pieces by slot.
fn record_worker<E: Expr>(
    pool: &Pool<E>,
    locs: &LocSet,
    worker: usize,
    root: Option<Walker<E>>,
) -> Vec<(usize, Vec<Piece>)> {
    let mut done = Vec::new();
    let mut next = root.map(|walker| (0, walker));
    let mut idle = false;
    let mut spins = 0;
    loop {
        if let Some((slot, mut walker)) = next.take() {
            let walked = walker.walk(locs, Some((pool, worker)), usize::MAX);
            pool.release(&mut walker.allowance);
            if walked == Walked::Tripped {
                break;
            }
            done.push((slot, walker.pieces));
            pool.pending.fetch_sub(1, Ordering::AcqRel);
            continue;
        }
        if pool.tripped.load(Ordering::Acquire) {
            break;
        }
        match pool.deques.take(worker) {
            Some((slot, t)) => {
                pool.queued.fetch_sub(1, Ordering::AcqRel);
                if std::mem::take(&mut idle) {
                    pool.idle.fetch_sub(1, Ordering::AcqRel);
                }
                spins = 0;
                next = Some((slot, Walker::new(vec![t], 0)));
            }
            None => {
                if !std::mem::replace(&mut idle, true) {
                    pool.idle.fetch_add(1, Ordering::AcqRel);
                }
                if pool.pending.load(Ordering::Acquire) == 0 {
                    break;
                }
                idle_backoff(&mut spins);
            }
        }
    }
    done
}

/// Continues the root walk on `workers` workers, the calling thread
/// among them: the rest of the walk's budget becomes the pool's, and
/// subtrees are handed out whenever a worker is idle. Returns every
/// task's pieces by slot, or `None` if the budget tripped.
fn record_on_pool<E: Expr + Send + Sync>(
    locs: &LocSet,
    mut root: Walker<E>,
    workers: usize,
) -> Option<Vec<Option<Vec<Piece>>>> {
    let pool = Pool {
        deques: StealDeques::new(workers),
        budget: Mutex::new(Budget {
            free: std::mem::take(&mut root.allowance.left),
            outstanding: 0,
        }),
        slots: AtomicUsize::new(1),
        pending: AtomicUsize::new(1),
        queued: AtomicUsize::new(0),
        idle: AtomicUsize::new(0),
        tripped: AtomicBool::new(false),
    };
    let done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers)
            .map(|w| {
                let pool = &pool;
                scope.spawn(move || record_worker(pool, locs, w, None))
            })
            .collect();
        let mut done = record_worker(&pool, locs, 0, Some(root));
        for h in helpers {
            done.extend(h.join().expect("recording worker panicked"));
        }
        done
    });
    if pool.tripped.into_inner() {
        return None;
    }
    let mut slots: Vec<Option<Vec<Piece>>> = std::iter::repeat_with(|| None)
        .take(pool.slots.into_inner())
        .collect();
    for (slot, pieces) in done {
        slots[slot] = Some(pieces);
    }
    Some(slots)
}

/// Concatenates the recorded runs in depth-first preorder, starting from
/// the root walk (slot 0) and descending into each handed subtree where
/// it was handed, then appends the root's row. Each run is one
/// contiguous range of nodes and rows, so joining is appending; a run is
/// freed as soon as it is copied (the first is kept as the destination).
fn join(
    mut slots: Vec<Option<Vec<Piece>>>,
    root_labels: Vec<TransitionLabel>,
) -> (Vec<TransitionLabel>, Vec<u32>) {
    let nodes: usize = slots
        .iter()
        .flatten()
        .flatten()
        .map(|p| match p {
            Piece::Run(run) => run.widths.len(),
            Piece::Handed(_) => 0,
        })
        .sum();
    let mut labels: Vec<TransitionLabel> = Vec::new();
    let mut widths: Vec<u32> = Vec::new();
    let mut stack = vec![slots[0].take().expect("the root walk").into_iter()];
    while let Some(top) = stack.last_mut() {
        match top.next() {
            None => {
                stack.pop();
            }
            Some(Piece::Run(run)) if widths.is_empty() => {
                (labels, widths) = (run.labels, run.widths);
                labels.reserve_exact(nodes - labels.len());
                widths.reserve_exact(nodes - widths.len());
            }
            Some(Piece::Run(run)) => {
                labels.extend_from_slice(&run.labels);
                widths.extend_from_slice(&run.widths);
            }
            Some(Piece::Handed(slot)) => {
                let pieces = slots[slot]
                    .take()
                    .expect("every handed subtree is recorded");
                stack.push(pieces.into_iter());
            }
        }
    }
    labels.extend(root_labels);
    (labels, widths)
}

/// Trunk expansion stops after this many levels even if the fork frontier
/// is still narrower than the pool: a frontier that fails to widen within
/// a few levels is chain-shaped, and serialising more of it in the trunk
/// would cost more than the parallelism it buys.
const MAX_FORK_DEPTH: usize = 16;

/// The iterative depth-first trace enumerator.
///
/// Enumerates every trace prefix from the initial machine (every prefix of
/// a trace is itself a trace, Definition 5), honouring the visitor's
/// `step_filter` and [`Control`] verdicts. Replaces the old recursive
/// `dfs` helper with an explicit frame stack.
#[derive(Clone, Copy, Debug)]
pub struct TraceEngine {
    /// Budgets (`max_traces` bounds the number of extensions made).
    pub config: EngineConfig,
}

impl TraceEngine {
    /// An engine with the given budgets.
    pub fn new(config: EngineConfig) -> TraceEngine {
        TraceEngine { config }
    }

    /// Walks every trace from `m0` in depth-first order, driving `visitor`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BudgetExceeded`] after `config.max_traces`
    /// extensions.
    pub fn explore<E: Expr>(
        &self,
        locs: &LocSet,
        m0: Machine<E>,
        visitor: &mut dyn TraceVisitor<E>,
    ) -> Result<ExploreStats, EngineError> {
        let mut stats = ExploreStats::default();
        let budget = AtomicUsize::new(self.config.max_traces);
        walk_traces(
            locs,
            vec![Frame::at(&m0, locs)],
            TraceLabels::new(),
            visitor,
            &budget,
            self.config.max_traces,
            &mut stats,
        )?;
        Ok(stats)
    }

    /// Records the complete trace tree from `m0` — unfiltered and
    /// unpruned, bounded by `config.max_traces` — as a [`TraceGraph`]
    /// replayable under any number of predicates without re-running the
    /// transition semantics. Each recorded node carries the labels
    /// enabled at its target (its children's labels), which is
    /// everything the label-level checkers consume.
    ///
    /// The walk starts on the calling thread. A tree that outgrows
    /// `SPLIT_AFTER` nodes is split into subtrees recorded on the
    /// work-stealing pool ([`engine_threads`]`(0)` workers); the
    /// resulting graph is identical whatever the worker count.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BudgetExceeded`] if the full tree exceeds
    /// `config.max_traces` extensions. (A *filtered* live walk can fit a
    /// budget the full tree exceeds; recording trades that slack for
    /// replayability.)
    pub fn record<E: Expr + Send + Sync>(
        &self,
        locs: &LocSet,
        m0: Machine<E>,
    ) -> Result<(TraceGraph, ExploreStats), EngineError> {
        self.record_with(locs, m0, engine_threads(0), SPLIT_AFTER)
    }

    /// [`TraceEngine::record`] with an explicit worker count, splitting
    /// once the calling thread's walk has recorded `split_after` nodes
    /// (`SPLIT_AFTER` in production). Tests lower the threshold so that
    /// small trees exercise the parallel path too.
    ///
    /// # Errors
    ///
    /// As [`TraceEngine::record`].
    #[doc(hidden)]
    pub fn record_with<E: Expr + Send + Sync>(
        &self,
        locs: &LocSet,
        m0: Machine<E>,
        workers: usize,
        split_after: usize,
    ) -> Result<(TraceGraph, ExploreStats), EngineError> {
        let budget_error = EngineError::budget(self.config.max_traces + 1);
        let root_ts = m0.transitions(locs);
        let root_labels: Vec<TransitionLabel> = root_ts.iter().map(|t| t.label).collect();
        let mut root = Walker::new(root_ts, self.config.max_traces);
        let split_after = if workers > 1 { split_after } else { usize::MAX };
        let slots = match root.walk(locs, None, split_after) {
            Walked::Done => vec![Some(root.pieces)],
            Walked::Tripped => return Err(budget_error),
            Walked::Split => record_on_pool(locs, root, workers).ok_or(budget_error)?,
        };
        let (labels, widths) = join(slots, root_labels);
        let graph = TraceGraph::from_preorder(labels, widths);
        let n = graph.len();
        Ok((
            graph,
            ExploreStats {
                visited: n,
                transitions: n,
            },
        ))
    }

    /// Walks every trace from `m0`, sharded across the work-stealing pool.
    ///
    /// Trace subtrees share no state, so any *frontier* of the tree is an
    /// exact partition: by default each transition enabled at the root
    /// starts an independent label stack explored with its own visitor
    /// from `make_visitor`. When the root frontier is narrower than the
    /// worker pool, the walk first expands a *trunk* — breadth-first, on
    /// the calling thread, driven by a dedicated trunk visitor — until
    /// the fork frontier is at least as wide as the pool (or stops
    /// widening); the fork points then shard as usual, each seeded with
    /// its prefix labels. Every trace prefix is still visited exactly
    /// once, by exactly one visitor.
    ///
    /// The trace budget is a single atomic counter shared by the trunk
    /// and every shard — splitting the work never splits the budget, so
    /// for visitors that run to exhaustion a sharded walk errs out if and
    /// only if the total number of extensions exceeds
    /// `config.max_traces`, exactly like [`TraceEngine::explore`]. The
    /// combined statistics and every visitor (the trunk visitor first,
    /// then the shard visitors in fork order — root-transition order when
    /// no trunk was needed) are returned for verdict merging;
    /// [`TraceEngine::explore_sharded_merged`] folds them for
    /// [`MergeableVisitor`]s.
    ///
    /// One shard returning [`Control::Stop`] does not interrupt its
    /// siblings (they run to completion), and a stopped visitor's verdict
    /// takes precedence over a concurrent budget trip in another shard;
    /// a *trunk* stop ends the walk before the shards launch (its verdict
    /// is already in hand). When a *stopping* visitor meets a budget
    /// close to the space it would explore, which of the two lands first
    /// is search-order dependent even sequentially (DFS and BFS intern
    /// different prefixes); this engine resolves that race
    /// deterministically in favour of the verdict.
    ///
    /// `threads == 0` means all cores (honouring `BDRST_ENGINE_THREADS`).
    ///
    /// # Errors
    ///
    /// [`EngineError::BudgetExceeded`] if the walk jointly exceeds
    /// `config.max_traces` extensions and no visitor stopped;
    /// [`EngineError::CorruptFrontier`] if any shard reaches a corrupted
    /// machine.
    pub fn explore_sharded<E, V, F>(
        &self,
        locs: &LocSet,
        m0: Machine<E>,
        threads: usize,
        make_visitor: F,
    ) -> Result<(ExploreStats, Vec<V>), EngineError>
    where
        E: Expr + Send + Sync,
        V: TraceVisitor<E> + Send,
        F: Fn() -> V + Sync,
    {
        let workers = crate::engine::engine_threads(threads);
        let budget = AtomicUsize::new(self.config.max_traces);
        let max_traces = self.config.max_traces;
        let mut stats = ExploreStats::default();

        // The fork frontier: each entry is one unvisited transition plus
        // the (already visited) prefix leading to it.
        let mut forks: Vec<(TraceLabels, Transition<E>)> = m0
            .transitions(locs)
            .into_iter()
            .map(|t| (TraceLabels::new(), t))
            .collect();

        let mut trunk = make_visitor();
        let mut trunk_stopped = false;
        let mut budget_error = None;
        let mut depth = 0;
        while workers > 1
            && !forks.is_empty()
            && forks.len() < workers
            && depth < MAX_FORK_DEPTH
            && !trunk_stopped
            && budget_error.is_none()
        {
            depth += 1;
            let level = std::mem::take(&mut forks);
            'level: for (prefix, t) in level {
                stats.transitions += 1;
                if !trunk.step_filter(&t) {
                    continue;
                }
                if budget
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
                    .is_err()
                {
                    budget_error = Some(EngineError::budget(max_traces + 1));
                    break 'level;
                }
                stats.visited += 1;
                let mut trace = prefix;
                trace.push(t.label);
                match trunk.visit(&trace, &t) {
                    Control::Stop => {
                        trunk_stopped = true;
                        break 'level;
                    }
                    Control::Prune => {}
                    Control::Continue => {
                        for child in t.target.transitions(locs) {
                            forks.push((trace.clone(), child));
                        }
                    }
                }
            }
        }

        let shards: Vec<(V, ExploreStats, Result<WalkEnd, EngineError>)> =
            if trunk_stopped || budget_error.is_some() {
                Vec::new()
            } else {
                parallel_map_with(&forks, threads, |(prefix, t)| {
                    let mut visitor = make_visitor();
                    let mut stats = ExploreStats::default();
                    let end = walk_traces(
                        locs,
                        vec![Frame::single(t.clone())],
                        prefix.clone(),
                        &mut visitor,
                        &budget,
                        max_traces,
                        &mut stats,
                    );
                    (visitor, stats, end)
                })
            };

        let mut visitors = Vec::with_capacity(shards.len() + 1);
        visitors.push(trunk);
        let mut stopped = trunk_stopped;
        for (visitor, shard_stats, end) in shards {
            stats.visited += shard_stats.visited;
            stats.transitions += shard_stats.transitions;
            match end {
                Ok(WalkEnd::Stopped) => stopped = true,
                Ok(WalkEnd::Exhausted) => {}
                Err(e @ EngineError::BudgetExceeded { .. }) => {
                    budget_error.get_or_insert(e);
                }
                // Corruption is never masked by verdicts or budgets.
                Err(e @ EngineError::CorruptFrontier { .. }) => return Err(e),
            }
            visitors.push(visitor);
        }
        match budget_error {
            Some(e) if !stopped => Err(e),
            _ => Ok((stats, visitors)),
        }
    }

    /// [`TraceEngine::explore_sharded`] for visitors whose verdicts merge:
    /// folds every per-subtree visitor (trunk first, then fork order) into
    /// one through [`MergeableVisitor::merge`], so checkers need no
    /// per-call verdict plumbing.
    ///
    /// # Errors
    ///
    /// As [`TraceEngine::explore_sharded`].
    pub fn explore_sharded_merged<E, V, F>(
        &self,
        locs: &LocSet,
        m0: Machine<E>,
        threads: usize,
        make_visitor: F,
    ) -> Result<(ExploreStats, V), EngineError>
    where
        E: Expr + Send + Sync,
        V: TraceVisitor<E> + MergeableVisitor + Send,
        F: Fn() -> V + Sync,
    {
        let (stats, visitors) = self.explore_sharded(locs, m0, threads, make_visitor)?;
        let mut it = visitors.into_iter();
        let mut merged = it.next().expect("the trunk visitor is always present");
        for v in it {
            merged.merge(v);
        }
        Ok((stats, merged))
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
    fn dfs_and_bfs_agree_on_store_buffering() {
        let (locs, a, b) = locs_ab();
        let dfs = WorklistEngine::new(EngineConfig::default(), SearchOrder::Dfs);
        let bfs = WorklistEngine::new(EngineConfig::default(), SearchOrder::Bfs);
        let d = terminal_reads(&dfs, &locs, sb_machine(&locs, a, b));
        let f = terminal_reads(&bfs, &locs, sb_machine(&locs, a, b));
        assert_eq!(d, f);
        assert_eq!(d.len(), 4); // SB is racy: all four outcomes
    }

    #[test]
    fn dedup_modes_agree() {
        let (locs, a, b) = locs_ab();
        for order in [SearchOrder::Dfs, SearchOrder::Bfs] {
            let fp =
                WorklistEngine::with_dedup(EngineConfig::default(), order, Dedup::FingerprintFirst);
            let full = WorklistEngine::with_dedup(EngineConfig::default(), order, Dedup::FullState);
            assert_eq!(
                terminal_reads(&fp, &locs, sb_machine(&locs, a, b)),
                terminal_reads(&full, &locs, sb_machine(&locs, a, b))
            );
        }
    }

    #[test]
    fn forced_collisions_do_not_change_dedup() {
        // Truncate fingerprints to 4 bits: nearly everything collides, and
        // the verified-equality path must keep the visited set exact.
        let _guard = crate::engine::canon::collisions::force(4);
        let (locs, a, b) = locs_ab();
        let fp = WorklistEngine::with_dedup(
            EngineConfig::default(),
            SearchOrder::Dfs,
            Dedup::FingerprintFirst,
        );
        let full =
            WorklistEngine::with_dedup(EngineConfig::default(), SearchOrder::Dfs, Dedup::FullState);
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
                let engine =
                    WorklistEngine::with_dedup(EngineConfig::default(), SearchOrder::Dfs, dedup);
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
        let engine = WorklistEngine::new(EngineConfig::default(), SearchOrder::Bfs);
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
        let engine = WorklistEngine::new(EngineConfig::default(), SearchOrder::Dfs);
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
        let engine = WorklistEngine::new(EngineConfig::default(), SearchOrder::Dfs);
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
        let engine = WorklistEngine::new(tiny, SearchOrder::Dfs);
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
        impl TraceVisitor<RecordedExpr> for Count {
            fn visit(&mut self, trace: &TraceLabels, t: &Transition<RecordedExpr>) -> Control {
                if trace.len() == 2 && t.target.is_terminal() {
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

    /// Counts complete interleavings; used by the sharded agreement tests.
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

    impl MergeableVisitor for CountComplete {
        fn merge(&mut self, other: Self) {
            self.complete += other.complete;
        }
    }

    #[test]
    fn sharded_trace_walk_matches_sequential() {
        let (locs, a, b) = locs_ab();
        let m0 = sb_machine(&locs, a, b);
        let mut seq = CountComplete {
            len: 4,
            complete: 0,
        };
        let seq_stats = TraceEngine::new(EngineConfig::default())
            .explore(&locs, m0.clone(), &mut seq)
            .unwrap();
        // workers (4) exceed the root frontier (2): the walk re-forks
        // below the root, and the totals must still match exactly.
        let (shard_stats, visitors) = TraceEngine::new(EngineConfig::default())
            .explore_sharded(&locs, m0.clone(), 4, || CountComplete {
                len: 4,
                complete: 0,
            })
            .unwrap();
        let sharded: usize = visitors.iter().map(|v| v.complete).sum();
        assert_eq!(seq.complete, sharded);
        assert_eq!(seq_stats.visited, shard_stats.visited);
        assert_eq!(seq_stats.transitions, shard_stats.transitions);
        assert!(
            visitors.len() > 3,
            "root frontier (2) should have re-forked for 4 workers"
        );

        // The merged variant folds the same verdict.
        let (merged_stats, merged) = TraceEngine::new(EngineConfig::default())
            .explore_sharded_merged(&locs, m0, 4, || CountComplete {
                len: 4,
                complete: 0,
            })
            .unwrap();
        assert_eq!(merged.complete, seq.complete);
        assert_eq!(merged_stats.visited, seq_stats.visited);
    }

    #[test]
    fn sharded_budget_is_shared_not_split() {
        // A budget big enough for any single shard but not for the whole
        // tree must still trip — the shards share one atomic counter.
        let (locs, a, b) = locs_ab();
        let m0 = sb_machine(&locs, a, b);
        #[derive(Debug)]
        struct Go;
        impl TraceVisitor<RecordedExpr> for Go {
            fn visit(&mut self, _: &TraceLabels, _: &Transition<RecordedExpr>) -> Control {
                Control::Continue
            }
        }
        let total = TraceEngine::new(EngineConfig::default())
            .explore(&locs, m0.clone(), &mut Go)
            .unwrap()
            .visited;
        let tight = EngineConfig {
            max_states: usize::MAX,
            max_traces: total - 1,
        };
        let seq = TraceEngine::new(tight).explore(&locs, m0.clone(), &mut Go);
        let sharded = TraceEngine::new(tight).explore_sharded(&locs, m0.clone(), 4, || Go);
        assert_eq!(seq.unwrap_err(), EngineError::budget(total));
        assert_eq!(sharded.unwrap_err(), EngineError::budget(total));

        // With exactly enough budget, both succeed with identical stats.
        let exact = EngineConfig {
            max_states: usize::MAX,
            max_traces: total,
        };
        let seq_ok = TraceEngine::new(exact)
            .explore(&locs, m0.clone(), &mut Go)
            .unwrap();
        let (shard_ok, _) = TraceEngine::new(exact)
            .explore_sharded(&locs, m0, 4, || Go)
            .unwrap();
        assert_eq!(seq_ok.visited, shard_ok.visited);
    }

    #[test]
    fn sharded_stop_takes_precedence_over_budget() {
        let (locs, a, _) = locs_ab();
        let mk = || RecordedExpr::new(vec![StepLabel::Write(a, Val(1)); 4]);
        let m0 = Machine::initial(&locs, [mk(), mk()]);
        // Stops on the very first extension it sees; every shard stops
        // immediately, so exhaustion is impossible even with budget 2.
        struct StopNow;
        impl TraceVisitor<RecordedExpr> for StopNow {
            fn visit(&mut self, _: &TraceLabels, _: &Transition<RecordedExpr>) -> Control {
                Control::Stop
            }
        }
        let tiny = EngineConfig {
            max_states: 10,
            max_traces: 2,
        };
        let (stats, visitors) = TraceEngine::new(tiny)
            .explore_sharded(&locs, m0, 2, || StopNow)
            .unwrap();
        // The root frontier (2) matches the worker count (2): no trunk
        // expansion, one shard per root transition plus the idle trunk
        // visitor.
        assert_eq!(visitors.len(), 3);
        assert_eq!(stats.visited, 2); // each shard visited exactly one
    }

    #[test]
    fn deep_sharding_narrow_root_matches_sequential() {
        // A single thread: the root frontier has exactly one transition,
        // the worst case for root-only forking. The trunk must re-fork
        // and still visit every prefix exactly once.
        let (locs, a, b) = locs_ab();
        let p0 = RecordedExpr::new(vec![
            StepLabel::Write(a, Val(1)),
            StepLabel::Write(b, Val(1)),
            StepLabel::Read(a),
            StepLabel::Read(b),
        ]);
        let p1 = RecordedExpr::new(vec![StepLabel::Write(a, Val(2))]);
        let m0 = Machine::initial(&locs, [p0, p1]);
        let mut seq = CountComplete {
            len: 5,
            complete: 0,
        };
        let seq_stats = TraceEngine::new(EngineConfig::default())
            .explore(&locs, m0.clone(), &mut seq)
            .unwrap();
        let (shard_stats, merged) = TraceEngine::new(EngineConfig::default())
            .explore_sharded_merged(&locs, m0, 8, || CountComplete {
                len: 5,
                complete: 0,
            })
            .unwrap();
        assert_eq!(seq.complete, merged.complete);
        assert_eq!(seq_stats.visited, shard_stats.visited);
        assert_eq!(seq_stats.transitions, shard_stats.transitions);
    }

    #[test]
    fn trace_engine_budget_and_stop() {
        let (locs, a, _) = locs_ab();
        let mk = || RecordedExpr::new(vec![StepLabel::Write(a, Val(1)); 6]);
        let m0 = Machine::initial(&locs, [mk(), mk(), mk()]);
        struct Go;
        impl TraceVisitor<RecordedExpr> for Go {
            fn visit(&mut self, _: &TraceLabels, _: &Transition<RecordedExpr>) -> Control {
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
        impl TraceVisitor<RecordedExpr> for StopNow {
            fn visit(&mut self, _: &TraceLabels, _: &Transition<RecordedExpr>) -> Control {
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
