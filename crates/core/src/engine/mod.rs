//! The pluggable exploration engine.
//!
//! Every workload in this repository — litmus sweeps, the DRF theorem
//! checkers, optimizer validation, and the operational/axiomatic
//! equivalence checks — bottoms out in exhaustive exploration of the
//! operational semantics. This module is the shared substrate for all of
//! them, replacing the ad-hoc recursive search that used to live in
//! [`crate::explore`]:
//!
//! * **[`WorklistEngine`]** ([`worklist`]) — the sequential engine: an
//!   iterative depth-first worklist (an explicit stack, no recursion).
//!   [`WorklistEngine::explore`] hands every *canonical* state (up to
//!   timestamp renaming) to a [`StateVisitor`] exactly once and lets it
//!   steer with [`Control`]; [`WorklistEngine::explore_graph`] records
//!   the successor graph instead.
//! * **[`DporEngine`]** ([`dpor`]) — dynamic partial-order reduction:
//!   one representative trace per equivalence class of maximal traces.
//!   [`dpor_reachable_terminals`] enumerates outcomes with it, which is
//!   how the check service answers `check`.
//! * **[`TraceEngine`]** ([`worklist`]) — iterative depth-first trace
//!   enumeration for the trace-dependent checkers (data races and
//!   happens-before are properties of traces, not states);
//!   [`TraceEngine::explore`] drives a [`TraceVisitor`] on the calling
//!   thread, and [`TraceEngine::record`] records the full tree for
//!   replay: a sequential depth-first walk memoized by exact machine.
//! * **[`StateInterner`]** ([`intern`]) — state dedup is
//!   **fingerprint-first** ([`canonical_fingerprint`] streams the
//!   canonical form into a hasher without building it; a re-visit
//!   allocates only its rank table, and verified equality on collision
//!   keeps outcomes bit-identical — [`Dedup`] selects the full-state
//!   reference path). States live in a dense id-indexed table behind
//!   `u32` [`StateId`]s.
//! * **[`StateGraph`] / [`TraceGraph`]** ([`graph`]) — the worklist
//!   engine records the interned successor graph (CSR of successor ids
//!   and terminal flags), and [`TraceEngine::record`] records the full
//!   trace tree as a DAG with one row per distinct machine, which
//!   replays new predicates ([`ReplayVisitor`]) without re-running the
//!   transition semantics.
//! * **[`EngineError`]** — the structured error surface: budget
//!   exhaustion and corrupted-frontier detection (formerly a panic in
//!   `canonicalize`).
//!
//! Every walk runs on its calling thread. The one parallel helper,
//! [`parallel_map`] ([`parallel`]), shards whole work items — litmus
//! tests, simulator workloads, axiomatic subtrees — across a scoped pool.
//!
//! [`crate::explore`] keeps the terminal-state helper
//! (`reachable_terminals`) as a thin wrapper over the sequential engine.
//!
//! # Strategy selection and thread knobs
//!
//! Callers pick an engine through [`Strategy`] (threaded through
//! `Program::outcomes_with`, `Program::state_graph_with` and the litmus
//! runner's `RunConfig`):
//!
//! | Strategy | Engine | When to prefer it |
//! |---|---|---|
//! | [`Strategy::Dfs`] | [`WorklistEngine`] (stack) | default; the reference walk |
//! | [`Strategy::Dpor`] | [`DporEngine`] | outcome enumeration over one trace per equivalence class, no state graph held; the check service's default |
//! | [`Strategy::WorkStealing`] | [`WorklistEngine`] (stack) | never: a leftover name for `Dfs` (see its doc) |
//!
//! [`parallel_map`] resolves its worker count through
//! [`engine_threads`]: an explicit nonzero count wins, `0` ("all
//! cores") honours the `BDRST_ENGINE_THREADS` environment variable
//! before falling back to [`std::thread::available_parallelism`]. DFS
//! and DPOR reach the same outcome set and surface the same
//! [`EngineError`]s — the differential and property suites under
//! `tests/` enforce this across the litmus corpus and randomly generated
//! programs.
//!
//! # Example: canonical states and outcomes
//!
//! ```
//! use bdrst_core::engine::{dpor_reachable_terminals, Control, Dependence, EngineConfig,
//!                          StateId, WorklistEngine};
//! use bdrst_core::loc::{LocKind, LocSet, Val};
//! use bdrst_core::machine::{Machine, RecordedExpr, StepLabel};
//!
//! let mut locs = LocSet::new();
//! let a = locs.fresh("a", LocKind::Nonatomic);
//! let p0 = RecordedExpr::new(vec![StepLabel::Write(a, Val(1))]);
//! let p1 = RecordedExpr::new(vec![StepLabel::Write(a, Val(2))]);
//! let m0 = Machine::initial(&locs, [p0, p1]);
//!
//! let mut count = 0usize;
//! let mut terminals = 0usize;
//! let engine = WorklistEngine::new(EngineConfig::default());
//! engine.explore(&locs, m0.clone(), &mut |m: &Machine<RecordedExpr>, _id: StateId| {
//!     count += 1;
//!     terminals += usize::from(m.is_terminal());
//!     Control::Continue
//! })?;
//! assert_eq!(count, engine.explore_graph(&locs, m0.clone())?.0.len());
//!
//! let (dpor, _) =
//!     dpor_reachable_terminals(&locs, m0, EngineConfig::default(), Dependence::Observational)?;
//! assert_eq!(terminals, dpor.len());
//! # Ok::<(), bdrst_core::engine::EngineError>(())
//! ```

pub mod canon;
pub mod dpor;
pub mod graph;
pub mod intern;
pub mod parallel;
pub mod worklist;

use std::fmt;

use crate::loc::{Loc, LocSet};
use crate::machine::{Expr, Machine, Transition};
use crate::timestamp::Timestamp;
use crate::trace::TraceLabels;

use canon::RankTable;
pub use canon::{canon_matches, canonical_fingerprint, canonicalize, CanonState};
pub use dpor::{dpor_reachable_terminals, full_complete_traces, Dependence, DporEngine, DporStats};
pub use graph::{ReplayStep, ReplayVisitor, StateGraph, TraceGraph};
pub use intern::{StateId, StateInterner};
pub use parallel::{engine_threads, parallel_map, parallel_map_with};
pub use worklist::{TraceEngine, WorklistEngine};

/// How the sequential worklist engine identifies states for dedup.
///
/// Both modes visit exactly the same canonical state set — the property
/// suites explore under both and compare — they differ only in what the
/// hot path allocates:
///
/// * [`Dedup::FingerprintFirst`] (default): a popped machine is hashed by
///   the streaming [`canonical_fingerprint`]; the full [`CanonState`] is
///   built only on first visit (or on a verified fingerprint collision).
///   Re-visits — the common case — allocate only the machine's rank
///   table.
/// * [`Dedup::FullState`]: the original build-then-hash path, kept as the
///   reference implementation and allocation baseline.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Dedup {
    /// Probe by streaming fingerprint; build canonical states on first
    /// visit only.
    #[default]
    FingerprintFirst,
    /// Build and hash the full canonical state on every probe.
    FullState,
}

/// Fingerprint-first identification of a machine against a
/// single-threaded interner: the zero-copy dedup hot path shared by the
/// sequential engines. One rank table per probe serves the fingerprint,
/// the collision check and the build; a re-visit allocates only that
/// table, and the full [`CanonState`] is built only on first visit or
/// verified collision.
///
/// # Errors
///
/// [`EngineError::CorruptFrontier`] exactly when [`canonicalize`] would
/// fail on `m`.
pub fn intern_canonical<E: Expr>(
    interner: &mut StateInterner<CanonState<E>>,
    locs: &LocSet,
    m: &Machine<E>,
) -> Result<(StateId, bool), EngineError> {
    let table = RankTable::new(locs, m);
    let fp = table.fingerprint()?;
    let _span = bdrst_obs::span(bdrst_obs::Phase::InternClaim);
    let (id, fresh) = interner.intern_with(
        fp,
        |c| table.matches(c),
        // A successful fingerprint walks every frontier, so
        // canonicalization cannot fail afterwards.
        || {
            table
                .canonicalize()
                .expect("fingerprinted machines canonicalize")
        },
    );
    if fresh {
        bdrst_obs::counter_add(bdrst_obs::Counter::StatesInterned, 1);
        bdrst_obs::counter_max(bdrst_obs::Counter::InternerOccupancy, interner.len() as u64);
    }
    Ok((id, fresh))
}

/// Runs one state walk under an `Explore` span and charges its wall time
/// to `ExploreNanos` on every exit, a budget trip or corruption included:
/// the walk has already counted its visited states by then, and the
/// states-per-second gauge divides one counter by the other. The span is
/// tagged with the visited count when the walk finishes.
pub(crate) fn timed_walk<T>(
    walk: impl FnOnce() -> Result<T, EngineError>,
    visited: impl FnOnce(&T) -> usize,
) -> Result<T, EngineError> {
    let mut span = bdrst_obs::span(bdrst_obs::Phase::Explore);
    let started = std::time::Instant::now();
    let result = walk();
    bdrst_obs::counter_add(
        bdrst_obs::Counter::ExploreNanos,
        started.elapsed().as_nanos() as u64,
    );
    if let Ok(done) = &result {
        span.set_arg(visited(done) as u64);
    }
    result
}

/// Budgets for exploration. The defaults are generous for litmus-scale
/// programs while guaranteeing termination on accidental state explosions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EngineConfig {
    /// Maximum number of distinct canonical states to visit — or, for
    /// outcome enumeration under [`Strategy::Dpor`]
    /// (`Program::outcomes_with`, the check service's default), of trace
    /// extensions to execute.
    pub max_states: usize,
    /// Maximum number of trace prefixes to enumerate in trace mode.
    pub max_traces: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            max_states: 1_000_000,
            max_traces: 10_000_000,
        }
    }
}

/// Statistics of a finished exploration.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ExploreStats {
    /// Distinct canonical states visited (state mode) or trace prefixes
    /// enumerated (trace mode).
    pub visited: usize,
    /// Transitions examined.
    pub transitions: usize,
}

/// The structured error surface of the engine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineError {
    /// The exploration exceeded its [`EngineConfig`] budget.
    BudgetExceeded {
        /// The number of states or traces visited before giving up.
        visited: usize,
    },
    /// Canonicalization found a frontier timestamp that is absent from the
    /// owning location's history: the machine state is corrupted (this is
    /// unreachable from the paper's rules; it indicates a broken semantics
    /// variant or a caller-constructed machine).
    CorruptFrontier {
        /// The nonatomic location whose history lacks the timestamp.
        loc: Loc,
        /// The dangling frontier timestamp.
        timestamp: Timestamp,
    },
}

impl EngineError {
    /// Convenience constructor for budget exhaustion.
    pub fn budget(visited: usize) -> EngineError {
        EngineError::BudgetExceeded { visited }
    }

    /// True if this error is budget exhaustion (as opposed to corruption).
    pub fn is_budget(&self) -> bool {
        matches!(self, EngineError::BudgetExceeded { .. })
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::BudgetExceeded { visited } => {
                write!(f, "exploration budget exceeded after {visited} items")
            }
            EngineError::CorruptFrontier { loc, timestamp } => {
                write!(
                    f,
                    "corrupt frontier: timestamp {timestamp} for {loc} is not in its history"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// What a visitor asks the engine to do after seeing a state or trace
/// extension.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Control {
    /// Keep going (expand this state / extend this trace).
    Continue,
    /// Do not expand this state (or extend this trace), but keep exploring
    /// the rest of the space.
    Prune,
    /// Abort the whole exploration. The engine returns `Ok` with the
    /// statistics gathered so far.
    Stop,
}

/// Which engine to run. This is the user-facing strategy knob threaded
/// through the litmus runner and `Program::outcomes_with`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Strategy {
    /// Sequential depth-first worklist.
    #[default]
    Dfs,
    /// A leftover name for [`Strategy::Dfs`]: every dispatch runs the
    /// sequential walk, and no code in this workspace constructs it. Its
    /// only user is the benchmark's `perfbench/tests/families.rs`, whose
    /// "DFS and work-stealing visit the same canonical states" check now
    /// compares the sequential recorder with itself. The benchmark change
    /// that drops that check deletes this variant (ROADMAP item 1).
    WorkStealing,
    /// Dynamic partial-order reduction ([`DporEngine`]): one
    /// representative per Mazurkiewicz class of maximal traces, under the
    /// observational [`Dependence`]. Outcome enumeration
    /// (`Program::outcomes_with`, [`dpor_reachable_terminals`]) explores
    /// strictly fewer traces on programs with commuting transitions;
    /// `Program::outcomes_with` charges its executed extensions to
    /// [`EngineConfig::max_states`].
    /// A reduced walk cannot record the full successor graph, so
    /// `Program::state_graph_with` records it with [`Strategy::Dfs`]'s
    /// engine instead.
    Dpor,
}

/// A state-space visitor: called exactly once per distinct canonical
/// state, including the initial state.
///
/// Closures of type `FnMut(&Machine<E>, StateId) -> Control` implement
/// this trait, so simple callers need no adapter struct.
pub trait StateVisitor<E: Expr> {
    /// Inspects one newly discovered canonical state.
    fn visit(&mut self, machine: &Machine<E>, id: StateId) -> Control;
}

impl<E: Expr, F: FnMut(&Machine<E>, StateId) -> Control> StateVisitor<E> for F {
    fn visit(&mut self, machine: &Machine<E>, id: StateId) -> Control {
        self(machine, id)
    }
}

/// A trace visitor: called once per trace prefix, in depth-first order.
///
/// `step_filter` selects which transitions may be taken at all (e.g. only
/// L-sequential ones); `visit` then sees each taken extension with the
/// full label stack.
pub trait TraceVisitor<E: Expr> {
    /// Whether this transition may extend the current trace.
    fn step_filter(&mut self, _transition: &Transition<E>) -> bool {
        true
    }

    /// Inspects one trace extension; `trace` ends with `transition`'s
    /// label.
    fn visit(&mut self, trace: &TraceLabels, transition: &Transition<E>) -> Control;
}
