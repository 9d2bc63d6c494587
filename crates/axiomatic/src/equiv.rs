//! Relating the operational and axiomatic semantics (§6.1).
//!
//! * [`execution_of_trace`] implements the mapping `|Σ|` from operational
//!   traces to candidate executions, with `rfΣ` and `coΣ` recovered from
//!   the trace's timestamps (nonatomics) and trace order (atomics).
//! * [`check_soundness`] verifies Theorem 15 on a program: every trace's
//!   induced execution is consistent. Its visitor reads labels only, so
//!   it is one [`TraceVisitor`], and [`check_soundness_replayed`] runs
//!   the same visitor and body over a recorded [`TraceGraph`].
//! * [`check_equivalence`] verifies the observable content of Theorems 15
//!   and 16 together: the operational and axiomatic semantics produce
//!   exactly the same outcome sets.

use std::collections::BTreeSet;
use std::fmt;

use bdrst_core::engine::{
    Control, EngineConfig, EngineError, ExploreStats, Step, TraceEngine, TraceGraph, TraceVisitor,
};
use bdrst_core::loc::{Action, LocKind, LocSet};
use bdrst_core::machine::TransitionLabel;
use bdrst_core::relation::Relation;
use bdrst_core::timestamp::Timestamp;
use bdrst_core::trace::TraceLabels;
use bdrst_lang::{Observation, Program};

use crate::enumerate::{axiomatic_outcomes, EnumError, EnumLimits};
use crate::exec::{CandidateExecution, EventSet};

/// Builds the candidate execution `(|Σ|, poΣ, rfΣ, coΣ)` induced by the
/// memory transitions of a trace.
///
/// * `rfΣ` on a nonatomic location matches a read to the unique write with
///   the same timestamp (or the initial write at timestamp 0);
/// * `rfΣ` on an atomic location matches a read to the most recent write in
///   trace order (or the initial write);
/// * `coΣ` orders nonatomic writes by timestamp — which may disagree with
///   trace order — and atomic writes by trace order.
///
/// # Panics
///
/// Panics if the labels are not a well-formed trace of the given locations
/// (e.g. a nonatomic read whose timestamp matches no write).
pub fn execution_of_trace(locs: &LocSet, labels: &[TransitionLabel]) -> CandidateExecution {
    // Group memory operations by thread, remembering trace positions.
    let mem: Vec<&TransitionLabel> = labels.iter().filter(|l| l.action.is_some()).collect();
    let max_thread = mem
        .iter()
        .map(|l| l.thread.index())
        .max()
        .map_or(0, |m| m + 1);
    let mut per_thread: Vec<Vec<(bdrst_core::loc::Loc, Action)>> = vec![Vec::new(); max_thread];
    // trace (memory) position -> event index
    let mut event_of: Vec<usize> = Vec::with_capacity(mem.len());
    let nlocs = locs.len();
    // First pass: count per-thread offsets.
    let mut counts = vec![0usize; max_thread];
    for l in &mem {
        counts[l.thread.index()] += 1;
    }
    let mut starts = vec![0usize; max_thread];
    let mut acc = nlocs;
    for (t, c) in counts.iter().enumerate() {
        starts[t] = acc;
        acc += c;
    }
    let mut next = vec![0usize; max_thread];
    for l in &mem {
        let t = l.thread.index();
        let a = l.action.expect("memory label");
        per_thread[t].push((a.loc, a.action));
        event_of.push(starts[t] + next[t]);
        next[t] += 1;
    }

    let base = EventSet::new(locs.clone(), per_thread);
    let n = base.len();
    let mut rf = Relation::new(n);
    let mut co = Relation::new(n);

    for l in locs.iter() {
        let init_ev = l.index();
        match locs.kind(l) {
            LocKind::Nonatomic => {
                // Writes with their timestamps.
                let mut writes: Vec<(Timestamp, usize)> = mem
                    .iter()
                    .enumerate()
                    .filter_map(|(pos, t)| {
                        let a = t.action.unwrap();
                        (a.loc == l && a.action.is_write())
                            .then(|| (t.timestamp.expect("NA write has timestamp"), event_of[pos]))
                    })
                    .collect();
                writes.sort();
                // co: initial first, then by timestamp.
                for (x, (_, a)) in writes.iter().enumerate() {
                    co.insert(init_ev, *a);
                    for (_, b) in &writes[x + 1..] {
                        co.insert(*a, *b);
                    }
                }
                // rf: match read timestamps against write timestamps.
                for (pos, t) in mem.iter().enumerate() {
                    let a = t.action.unwrap();
                    if a.loc != l || !a.action.is_read() {
                        continue;
                    }
                    let ts = t.timestamp.expect("NA read has timestamp");
                    let src = if ts == Timestamp::ZERO {
                        init_ev
                    } else {
                        writes
                            .iter()
                            .find(|(wt, _)| *wt == ts)
                            .unwrap_or_else(|| panic!("no write at timestamp {ts}"))
                            .1
                    };
                    rf.insert(src, event_of[pos]);
                }
            }
            LocKind::Atomic => {
                // co: trace order of writes; rf: latest write before read.
                let mut last_write = init_ev;
                let mut writes_so_far: Vec<usize> = vec![init_ev];
                for (pos, t) in mem.iter().enumerate() {
                    let a = t.action.unwrap();
                    if a.loc != l {
                        continue;
                    }
                    match a.action {
                        Action::Write(_) => {
                            let ev = event_of[pos];
                            for &w in &writes_so_far {
                                co.insert(w, ev);
                            }
                            writes_so_far.push(ev);
                            last_write = ev;
                        }
                        Action::Read(_) => {
                            rf.insert(last_write, event_of[pos]);
                        }
                    }
                }
            }
        }
    }
    CandidateExecution { base, rf, co }
}

/// A Theorem 15 violation: a trace whose induced execution is ill-formed or
/// inconsistent.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SoundnessViolation {
    /// The offending trace's labels.
    pub trace: Vec<TransitionLabel>,
    /// Why the induced execution is not consistent.
    pub reason: String,
}

impl fmt::Display for SoundnessViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "theorem 15 violated ({}); trace has {} steps",
            self.reason,
            self.trace.len()
        )
    }
}

/// Outcome of [`check_soundness`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SoundnessError {
    /// A counterexample was found (impossible for the paper's semantics).
    Violation(Box<SoundnessViolation>),
    /// The exploration engine failed (budget exhaustion or corruption).
    Engine(EngineError),
}

impl fmt::Display for SoundnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SoundnessError::Violation(v) => write!(f, "{v}"),
            SoundnessError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SoundnessError {}

/// Visitor for Theorem 15: maps every trace prefix through `|Σ|` and
/// checks the induced execution is well-formed and consistent. The check
/// consumes only the trace's labels, so the one visitor drives live walks
/// and recorded-tree replays alike.
struct SoundnessVisitor<'a> {
    locs: &'a LocSet,
    checked: usize,
    violation: Option<SoundnessViolation>,
}

impl TraceVisitor for SoundnessVisitor<'_> {
    fn visit(&mut self, trace: &TraceLabels, _step: Step<'_>) -> Control {
        self.checked += 1;
        let exec = execution_of_trace(self.locs, trace.labels());
        let reason = match exec.validate() {
            Err(e) => Some(format!("ill-formed: {e}")),
            Ok(()) => (!exec.is_consistent()).then(|| "inconsistent".to_string()),
        };
        if let Some(reason) = reason {
            self.violation = Some(SoundnessViolation {
                trace: trace.labels().to_vec(),
                reason,
            });
            return Control::Stop;
        }
        Control::Continue
    }
}

/// The body [`check_soundness`] and [`check_soundness_replayed`] share:
/// checks every trace prefix `walk` shows the visitor and returns how
/// many it checked.
fn soundness_with(
    locs: &LocSet,
    walk: impl FnOnce(&mut SoundnessVisitor<'_>) -> Result<ExploreStats, EngineError>,
) -> Result<usize, SoundnessError> {
    let mut visitor = SoundnessVisitor {
        locs,
        checked: 0,
        violation: None,
    };
    walk(&mut visitor).map_err(SoundnessError::Engine)?;
    match visitor.violation {
        Some(v) => Err(SoundnessError::Violation(Box::new(v))),
        None => Ok(visitor.checked),
    }
}

/// Verifies Theorem 15 on `program`: the induced execution of every trace
/// prefix is a consistent execution. Returns the number of trace prefixes
/// checked.
///
/// # Errors
///
/// Returns [`SoundnessError::Violation`] with the first bad trace, or
/// [`SoundnessError::Engine`] on exhaustion.
pub fn check_soundness(program: &Program, config: EngineConfig) -> Result<usize, SoundnessError> {
    soundness_with(&program.locs, |v| {
        TraceEngine::new(config).explore(&program.locs, program.initial_machine(), v)
    })
}

/// [`check_soundness`] over a recorded [`TraceGraph`] of the program's
/// initial machine ([`TraceEngine::record`]): Theorem 15 is re-verified
/// against the cached tree — the `|Σ|` mapping consumes only transition
/// labels — without re-running the operational semantics. One recording
/// can serve this check *and* every checker in `bdrst_core::localdrf`.
///
/// # Errors
///
/// As [`check_soundness`] (replay mirrors the live budget).
pub fn check_soundness_replayed(
    program: &Program,
    graph: &TraceGraph,
    config: EngineConfig,
) -> Result<usize, SoundnessError> {
    soundness_with(&program.locs, |v| graph.replay(config, v))
}

/// The two outcome sets compared by [`check_equivalence`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EquivalenceReport {
    /// Outcomes of the operational semantics (exhaustive exploration).
    pub operational: BTreeSet<Observation>,
    /// Outcomes of the axiomatic semantics (consistent executions).
    pub axiomatic: BTreeSet<Observation>,
}

impl EquivalenceReport {
    /// True iff the outcome sets coincide (Theorems 15 + 16, observably).
    pub fn holds(&self) -> bool {
        self.operational == self.axiomatic
    }

    /// Operational outcomes the axiomatic semantics misses (Theorem 15
    /// failures).
    pub fn missing_in_axiomatic(&self) -> Vec<&Observation> {
        self.operational.difference(&self.axiomatic).collect()
    }

    /// Axiomatic outcomes the operational semantics cannot produce
    /// (Theorem 16 failures).
    pub fn extra_in_axiomatic(&self) -> Vec<&Observation> {
        self.axiomatic.difference(&self.operational).collect()
    }
}

/// Errors of [`check_equivalence`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EquivalenceError {
    /// Operational exploration failed in the engine.
    Operational(EngineError),
    /// Axiomatic enumeration failed.
    Axiomatic(EnumError),
}

impl fmt::Display for EquivalenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EquivalenceError::Operational(e) => write!(f, "operational: {e}"),
            EquivalenceError::Axiomatic(e) => write!(f, "axiomatic: {e}"),
        }
    }
}

impl std::error::Error for EquivalenceError {}

/// Computes both outcome sets of a program and reports whether they agree —
/// the observable content of Theorems 15 and 16.
///
/// # Errors
///
/// Returns [`EquivalenceError`] if either side's exploration fails.
pub fn check_equivalence(
    program: &Program,
    config: EngineConfig,
    limits: EnumLimits,
) -> Result<EquivalenceReport, EquivalenceError> {
    let operational = program
        .outcomes(config)
        .map_err(EquivalenceError::Operational)?
        .set()
        .clone();
    let axiomatic = axiomatic_outcomes(program, limits).map_err(EquivalenceError::Axiomatic)?;
    Ok(EquivalenceReport {
        operational,
        axiomatic,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn equiv(src: &str) -> EquivalenceReport {
        let p = Program::parse(src).unwrap();
        check_equivalence(&p, EngineConfig::default(), EnumLimits::default()).unwrap()
    }

    #[test]
    fn soundness_on_message_passing() {
        let p = Program::parse(
            "nonatomic a; atomic f;
             thread P0 { a = 1; f = 1; }
             thread P1 { r0 = f; r1 = a; }",
        )
        .unwrap();
        let checked = check_soundness(&p, EngineConfig::default()).unwrap();
        // MP has 6 interleavings of 4 memory operations plus read
        // nondeterminism: 24 distinct trace prefixes in all.
        assert_eq!(checked, 24);
    }

    #[test]
    fn replayed_soundness_matches_live_count() {
        let p = Program::parse(
            "nonatomic a; atomic f;
             thread P0 { a = 1; f = 1; }
             thread P1 { r0 = f; r1 = a; }",
        )
        .unwrap();
        let live = check_soundness(&p, EngineConfig::default()).unwrap();
        let (graph, _) = TraceEngine::new(EngineConfig::default())
            .record(&p.locs, p.initial_machine())
            .unwrap();
        let replayed = check_soundness_replayed(&p, &graph, EngineConfig::default()).unwrap();
        assert_eq!(live, replayed);
        assert_eq!(live, 24);
    }

    #[test]
    fn equivalence_store_buffering() {
        let r = equiv(
            "nonatomic a b;
             thread P0 { a = 1; r0 = b; }
             thread P1 { b = 1; r1 = a; }",
        );
        assert!(r.holds(), "op {:?} ax {:?}", r.operational, r.axiomatic);
    }

    #[test]
    fn equivalence_message_passing() {
        let r = equiv(
            "nonatomic a; atomic f;
             thread P0 { a = 1; f = 1; }
             thread P1 { r0 = f; r1 = a; }",
        );
        assert!(r.holds());
    }

    #[test]
    fn equivalence_coherence() {
        let r = equiv(
            "nonatomic a;
             thread P0 { a = 1; a = 2; }
             thread P1 { r0 = a; r1 = a; }",
        );
        assert!(
            r.holds(),
            "missing {:?} extra {:?}",
            r.missing_in_axiomatic(),
            r.extra_in_axiomatic()
        );
    }

    #[test]
    fn execution_of_empty_trace_is_initial_graph() {
        let p = Program::parse("nonatomic a; thread P0 { a = 1; }").unwrap();
        let e = execution_of_trace(&p.locs, &[]);
        assert_eq!(e.base.len(), 1); // just IWa
        assert!(e.is_consistent());
    }
}
