//! L-stability, the local DRF theorem (Theorem 13) and the derived global
//! DRF theorem (Theorem 14), as executable checkers.
//!
//! * [`is_l_stable_for_prefix`] — Definition 12: `M` is L-stable if no
//!   trace through `M` has a data race between a transition before `M` and
//!   an L-sequential transition after it.
//! * [`check_local_drf`] — Theorem 13: from an L-stable `M`, after any
//!   L-sequential transition sequence, either every enabled transition is
//!   L-sequential, or some enabled *non-weak* transition on a location in
//!   `L` races with one of the transitions taken since `M`.
//! * [`check_global_drf`] — Theorem 14: if every sequentially consistent
//!   trace of a program is race-free, then every trace of the program is
//!   sequentially consistent.
//!
//! These checkers exhaustively verify the theorems on bounded state spaces;
//! they are used by the test suite across the whole litmus corpus, and by
//! the failure-injection tests, which check that deliberately broken
//! semantics (e.g. non-synchronising atomics) are caught.
//!
//! Each checker is one [`TraceVisitor`] implementation over labels only,
//! so the same visitor drives the live [`crate::engine::TraceEngine`]
//! walk, the [`DporEngine`] walk and a [`TraceGraph`] replay, and the
//! engines' budget and error surface ([`EngineError`]) apply uniformly.
//! Where a checker has a live and a replayed entry point, both run one
//! shared body and differ only in the walk. Every race question is
//! answered by the incremental happens-before of [`crate::hb`]: the
//! visitors push each step onto an [`HbState`] and query the enabled (or
//! just-taken) label, and [`sc_race_freedom`] is the race detector
//! stopped at its first witness.
//!
//! Two lanes have production callers beyond the live walk:
//! [`sc_race_freedom_reduced`] walks the partial-order-reduced trace tree
//! ([`DporEngine`] under [`Dependence::Conservative`]), whose
//! commutations preserve labels, happens-before and data races, so it
//! classifies programs exactly as the full walk does; and
//! [`check_local_drf_replayed`] re-checks Theorem 13 over a recorded
//! [`TraceGraph`] ([`TraceEngine::record`]) without running the
//! transition semantics, once per (row, happens-before summary) rather
//! than once per trace ([`TraceVisitor::summary`]).

use crate::engine::{
    Control, Dependence, DporEngine, EngineConfig, EngineError, ExploreStats, Step, TraceEngine,
    TraceGraph, TraceVisitor,
};
use crate::hb::{AccessTable, DetectorConfig, HbState, RaceDetector, RaceWitness};
use crate::loc::LocSet;
use crate::machine::{Expr, Machine, TransitionLabel};
use crate::trace::{is_l_sequential, LocPredicate, TraceLabels};

/// A counterexample to Theorem 13 found by [`check_local_drf`]: an
/// L-sequential suffix after which a non-L-sequential transition is enabled
/// yet no racing non-weak transition on `L` exists.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LocalDrfViolation {
    /// The L-sequential transitions taken since the checked state.
    pub suffix: Vec<TransitionLabel>,
    /// The enabled transition that is not L-sequential.
    pub offending: TransitionLabel,
}

impl std::fmt::Display for LocalDrfViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "local DRF violated after L-sequential suffix:")?;
        for t in &self.suffix {
            writeln!(f, "  {t}")?;
        }
        write!(
            f,
            "offending non-L-sequential transition: {}",
            self.offending
        )
    }
}

/// The outcome of a DRF-style check that can also fail inside the engine
/// (budget exhaustion or state corruption).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CheckError<V> {
    /// The property was violated, with a witness.
    Violation(V),
    /// The exploration engine failed before a verdict.
    Engine(EngineError),
}

impl<V: std::fmt::Debug> std::fmt::Display for CheckError<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::Violation(v) => write!(f, "property violated: {v:?}"),
            CheckError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl<V: std::fmt::Debug> std::error::Error for CheckError<V> {}

impl<V> From<EngineError> for CheckError<V> {
    fn from(e: EngineError) -> CheckError<V> {
        CheckError::Engine(e)
    }
}

/// Visitor for Definition 12: explores L-sequential suffixes and reports a
/// race between any suffix transition and any prefix transition. The
/// prefix is pushed once; its access table is snapshotted at the boundary
/// and every suffix step is queried against that snapshot.
struct LStabilityVisitor<'a> {
    hb: HbState<'a>,
    /// The prefix length.
    base: usize,
    /// The prefix's accesses, as they stood at the prefix boundary.
    prefix: AccessTable,
    l_set: &'a LocPredicate,
    stable: bool,
}

impl TraceVisitor for LStabilityVisitor<'_> {
    fn step_filter(&mut self, label: &TransitionLabel) -> bool {
        is_l_sequential(label, self.l_set)
    }

    fn visit(&mut self, suffix: &TraceLabels, step: Step<'_>) -> Control {
        self.hb.truncate(self.base + suffix.len() - 1);
        if self.hb.race_in(&self.prefix, &step.label).is_some() {
            self.stable = false;
            return Control::Stop;
        }
        self.hb.push(&step.label);
        Control::Continue
    }
}

/// Checks Definition 12 for the state reached by `prefix_machine` via the
/// transitions `prefix`: explores every L-sequential suffix and reports
/// whether any suffix transition races with any prefix transition.
///
/// (Definition 12 quantifies over *all* traces through `M`; callers that
/// need full generality enumerate prefixes reaching `M` and invoke this per
/// prefix. For the paper's reasoning patterns — "no concurrent accesses to
/// `L` before the fragment" — the given-prefix form is the one used.)
///
/// # Errors
///
/// Returns [`EngineError`] if the suffix exploration exceeds the budget.
pub fn is_l_stable_for_prefix<E: Expr>(
    locs: &LocSet,
    prefix: &[TransitionLabel],
    prefix_machine: Machine<E>,
    l_set: &LocPredicate,
    config: EngineConfig,
) -> Result<bool, EngineError> {
    let mut hb = HbState::new(locs);
    for l in prefix {
        hb.push(l);
    }
    let mut v = LStabilityVisitor {
        base: prefix.len(),
        prefix: hb.accesses().clone(),
        hb,
        l_set,
        stable: true,
    };
    TraceEngine::new(config).explore(locs, prefix_machine, &mut v)?;
    Ok(v.stable)
}

/// Visitor for Theorem 13: walks L-sequential suffixes, checking the
/// theorem's conclusion at every reached state. The conclusion consumes
/// only the *labels* of the transitions enabled at the reached state.
struct LocalDrfVisitor<'a> {
    /// The suffix taken since the checked state, brought up to date only
    /// where a race query is needed.
    hb: HbState<'a>,
    /// How many of `hb`'s labels still lead the current suffix. A
    /// depth-first walk keeps all but the last label of the previous
    /// trace at every visit.
    synced: usize,
    l_set: &'a LocPredicate,
    violation: Option<LocalDrfViolation>,
}

impl<'a> LocalDrfVisitor<'a> {
    fn new(locs: &'a LocSet, l_set: &'a LocPredicate) -> LocalDrfVisitor<'a> {
        LocalDrfVisitor {
            hb: HbState::new(locs),
            synced: 0,
            l_set,
            violation: None,
        }
    }

    /// Brings `hb` up to the whole of `suffix`.
    fn sync(&mut self, suffix: &TraceLabels) {
        self.hb.truncate(self.synced);
        for l in &suffix.labels()[self.synced..] {
            self.hb.push(l);
        }
        self.synced = suffix.len();
    }

    /// Checks the theorem's conclusion at the state reached via `suffix`,
    /// whose enabled transitions carry the labels `enabled`.
    fn check_state(
        &mut self,
        suffix: &TraceLabels,
        enabled: &[TransitionLabel],
    ) -> Option<LocalDrfViolation> {
        // First disjunct: every enabled transition is L-sequential.
        let offending = *enabled.iter().find(|l| !is_l_sequential(l, self.l_set))?;
        // Second disjunct: a non-weak transition on L racing with a Ti.
        self.sync(suffix);
        let mut on_l = enabled
            .iter()
            .filter(|l| !l.weak && l.action.is_some_and(|a| self.l_set.contains(&a.loc)));
        if on_l.any(|l| self.hb.race(l).is_some()) {
            return None;
        }
        Some(LocalDrfViolation {
            suffix: suffix.labels().to_vec(),
            offending,
        })
    }
}

impl TraceVisitor for LocalDrfVisitor<'_> {
    fn step_filter(&mut self, label: &TransitionLabel) -> bool {
        is_l_sequential(label, self.l_set)
    }

    fn visit(&mut self, suffix: &TraceLabels, step: Step<'_>) -> Control {
        self.synced = self.synced.min(suffix.len() - 1);
        if let Some(v) = self.check_state(suffix, step.enabled) {
            self.violation = Some(v);
            return Control::Stop;
        }
        Control::Continue
    }

    /// The filter and every later check depend only on the row and the
    /// suffix's [`HbState::summary`], and any violation stops the walk.
    /// `hb` syncs lazily, so it is brought up to the whole suffix first.
    fn summary(&mut self, suffix: &TraceLabels, key: &mut Vec<u64>) -> bool {
        self.sync(suffix);
        self.hb.summary(key);
        true
    }
}

/// The body [`check_local_drf`] and [`check_local_drf_replayed`] share:
/// checks the empty suffix against the labels `root` enabled at the
/// checked state, then every L-sequential suffix that `walk` shows the
/// visitor.
fn local_drf_with(
    locs: &LocSet,
    l_set: &LocPredicate,
    root: &[TransitionLabel],
    walk: impl FnOnce(&mut LocalDrfVisitor<'_>) -> Result<ExploreStats, EngineError>,
) -> Result<ExploreStats, CheckError<LocalDrfViolation>> {
    let mut visitor = LocalDrfVisitor::new(locs, l_set);
    // The empty suffix (the checked state itself) must also satisfy the
    // theorem.
    if let Some(v) = visitor.check_state(&TraceLabels::new(), root) {
        return Err(CheckError::Violation(v));
    }
    let stats = walk(&mut visitor)?;
    match visitor.violation {
        Some(v) => Err(CheckError::Violation(v)),
        None => Ok(stats),
    }
}

/// Checks Theorem 13 from the machine state `m`, assumed L-stable.
///
/// Explores every L-sequential transition sequence from `m` (within
/// budget). At each reached state, if some enabled transition is *not*
/// L-sequential, verifies the theorem's guarantee: an enabled non-weak
/// transition on a location in `L` exists that has a data race with one of
/// the suffix transitions. Returns statistics on success.
///
/// # Errors
///
/// * [`CheckError::Violation`] with a [`LocalDrfViolation`] witness if the
///   theorem fails (impossible for the paper semantics; reachable with the
///   failure-injection semantics).
/// * [`CheckError::Engine`] if exploration exceeds the budget.
pub fn check_local_drf<E: Expr>(
    locs: &LocSet,
    m: Machine<E>,
    l_set: &LocPredicate,
    config: EngineConfig,
) -> Result<ExploreStats, CheckError<LocalDrfViolation>> {
    let root: Vec<TransitionLabel> = m.transitions(locs).iter().map(|t| t.label).collect();
    local_drf_with(locs, l_set, &root, |v| {
        TraceEngine::new(config).explore(locs, m, v)
    })
}

/// [`check_local_drf`] over a recorded [`TraceGraph`] of the checked
/// machine: Theorem 13 is re-verified — for any `l_set` — against the
/// cached graph, without re-running the transition semantics. The
/// recorded per-row enabled labels supply both the theorem's "every
/// enabled transition is L-sequential" disjunct and its racing-witness
/// search. The replay is memoized: every check below a recorded row
/// depends only on the row and the suffix's [`HbState::summary`], so a
/// row already checked under an equal summary is skipped, and the
/// statistics still count the unfolded tree.
///
/// # Errors
///
/// As [`check_local_drf`], except that the trace budget counts only the
/// extensions the replay checks, not the ones the memo skips.
pub fn check_local_drf_replayed(
    locs: &LocSet,
    graph: &TraceGraph,
    l_set: &LocPredicate,
    config: EngineConfig,
) -> Result<ExploreStats, CheckError<LocalDrfViolation>> {
    local_drf_with(locs, l_set, graph.root_enabled(), |v| {
        graph.replay(config, v)
    })
}

/// Classification of a program by [`sc_race_freedom`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DrfStatus {
    /// Every sequentially consistent trace is race-free.
    RaceFree,
    /// Some sequentially consistent trace has a race: the race detector's
    /// first witness.
    Racy(RaceWitness),
}

/// The detector run behind [`sc_race_freedom`]: sequentially consistent
/// traces only, stopping at the first race.
const FIRST_SC_RACE: DetectorConfig = DetectorConfig { max_witnesses: 1 };

impl DrfStatus {
    fn of(detector: RaceDetector<'_>) -> DrfStatus {
        match detector
            .into_report(ExploreStats::default())
            .witnesses
            .pop()
        {
            Some(w) => DrfStatus::Racy(w),
            None => DrfStatus::RaceFree,
        }
    }
}

/// Determines whether the program starting at `m0` is data-race-free in the
/// sense of Theorem 14's hypothesis: all sequentially consistent traces
/// contain no data races. Runs the race detector over the SC traces and
/// stops at its first witness.
///
/// # Errors
///
/// Returns [`EngineError`] on budget exhaustion.
pub fn sc_race_freedom<E: Expr>(
    locs: &LocSet,
    m0: Machine<E>,
    config: EngineConfig,
) -> Result<DrfStatus, EngineError> {
    let mut d = RaceDetector::new(locs, FIRST_SC_RACE);
    TraceEngine::new(config).explore(locs, m0, &mut d)?;
    Ok(DrfStatus::of(d))
}

/// [`sc_race_freedom`] over the partial-order-reduced SC trace tree
/// ([`DporEngine`], [`Dependence::Conservative`]): classifies the
/// program from one representative trace per equivalence class.
///
/// The classification matches [`sc_race_freedom`] exactly: conservative
/// commutations preserve labels and happens-before, so a race in any SC
/// trace appears in its explored representative too. The *witness* may
/// differ (a different representative races first), so differential
/// checks compare the [`DrfStatus`] polarity, not the witness.
///
/// # Errors
///
/// As [`sc_race_freedom`].
pub fn sc_race_freedom_reduced<E: Expr>(
    locs: &LocSet,
    m0: Machine<E>,
    config: EngineConfig,
) -> Result<DrfStatus, EngineError> {
    let mut d = RaceDetector::new(locs, FIRST_SC_RACE);
    DporEngine::with_dependence(config, Dependence::Conservative).explore(locs, m0, &mut d)?;
    Ok(DrfStatus::of(d))
}

/// Visitor that stops at the first trace containing a weak transition.
struct WeakTraceVisitor {
    witness: Option<TransitionLabel>,
}

impl TraceVisitor for WeakTraceVisitor {
    fn visit(&mut self, _trace: &TraceLabels, step: Step<'_>) -> Control {
        if step.label.weak {
            self.witness = Some(step.label);
            return Control::Stop;
        }
        Control::Continue
    }
}

/// A counterexample to Theorem 14: the program is data-race-free under
/// sequential consistency, yet admits a non-SC trace.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GlobalDrfViolation {
    /// The weak transition that should have been impossible.
    pub weak_transition: TransitionLabel,
}

/// Checks Theorem 14 on the program starting at `m0`: if the program is
/// data-race-free (per [`sc_race_freedom`]), verifies that all traces are
/// sequentially consistent. Racy programs satisfy the theorem vacuously.
///
/// # Errors
///
/// * [`CheckError::Violation`] if the theorem fails (never, for the paper
///   semantics).
/// * [`CheckError::Engine`] on budget exhaustion.
pub fn check_global_drf<E: Expr>(
    locs: &LocSet,
    m0: Machine<E>,
    config: EngineConfig,
) -> Result<DrfStatus, CheckError<GlobalDrfViolation>> {
    let status = sc_race_freedom(locs, m0.clone(), config)?;
    if let DrfStatus::RaceFree = status {
        let mut v = WeakTraceVisitor { witness: None };
        TraceEngine::new(config).explore(locs, m0, &mut v)?;
        if let Some(weak_transition) = v.witness {
            return Err(CheckError::Violation(GlobalDrfViolation {
                weak_transition,
            }));
        }
    }
    Ok(status)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loc::{Loc, LocKind, Val};
    use crate::machine::{RecordedExpr, StepLabel};

    fn cfg() -> EngineConfig {
        EngineConfig::default()
    }

    fn locs_abf() -> (LocSet, Loc, Loc, Loc) {
        let mut l = LocSet::new();
        let a = l.fresh("a", LocKind::Nonatomic);
        let b = l.fresh("b", LocKind::Nonatomic);
        let f = l.fresh("F", LocKind::Atomic);
        (l, a, b, f)
    }

    #[test]
    fn drf_program_is_globally_sc() {
        // Message passing through an atomic is data-race-free... only if
        // the reader's access to `a` is conditional on the flag. A reader
        // that accesses `a` unconditionally races. Here: both threads write
        // disjoint locations with atomic flag sync — race-free.
        let (locs, a, _b, f) = locs_abf();
        let p0 = RecordedExpr::new(vec![
            StepLabel::Write(a, Val(1)),
            StepLabel::Write(f, Val(1)),
        ]);
        let p1 = RecordedExpr::new(vec![StepLabel::Read(f)]);
        let m0 = Machine::initial(&locs, [p0, p1]);
        let status = check_global_drf(&locs, m0, cfg()).unwrap();
        assert_eq!(status, DrfStatus::RaceFree);
    }

    #[test]
    fn racy_program_detected() {
        let (locs, a, _, _) = locs_abf();
        let p0 = RecordedExpr::new(vec![StepLabel::Write(a, Val(1))]);
        let p1 = RecordedExpr::new(vec![StepLabel::Write(a, Val(2))]);
        let m0 = Machine::initial(&locs, [p0, p1]);
        match sc_race_freedom(&locs, m0, cfg()).unwrap() {
            DrfStatus::Racy(w) => {
                assert!(w.first < w.second);
                assert!(w.validate(&locs));
            }
            DrfStatus::RaceFree => panic!("expected a race"),
        }
    }

    #[test]
    fn theorem13_holds_from_initial_state() {
        // Initial states are trivially L-stable; the theorem must hold for
        // any L. Use the SB shape, L = {a}.
        let (locs, a, b, _) = locs_abf();
        let p0 = RecordedExpr::new(vec![StepLabel::Write(a, Val(1)), StepLabel::Read(b)]);
        let p1 = RecordedExpr::new(vec![StepLabel::Write(b, Val(1)), StepLabel::Read(a)]);
        let m0 = Machine::initial(&locs, [p0, p1]);
        let l: LocPredicate = [a].into_iter().collect();
        check_local_drf(&locs, m0, &l, cfg()).unwrap();
    }

    #[test]
    fn theorem13_holds_all_locations() {
        // L = all nonatomic locations: local DRF specialises to the global
        // guarantee (Theorem 14's proof uses exactly this instance).
        let (locs, a, b, f) = locs_abf();
        let p0 = RecordedExpr::new(vec![
            StepLabel::Write(a, Val(1)),
            StepLabel::Write(f, Val(1)),
            StepLabel::Read(b),
        ]);
        let p1 = RecordedExpr::new(vec![
            StepLabel::Read(f),
            StepLabel::Write(b, Val(1)),
            StepLabel::Read(a),
        ]);
        let m0 = Machine::initial(&locs, [p0, p1]);
        let l: LocPredicate = [a, b].into_iter().collect();
        check_local_drf(&locs, m0, &l, cfg()).unwrap();
    }

    #[test]
    fn initial_state_is_l_stable() {
        let (locs, a, _, _) = locs_abf();
        let p0 = RecordedExpr::new(vec![StepLabel::Write(a, Val(1))]);
        let p1 = RecordedExpr::new(vec![StepLabel::Write(a, Val(2))]);
        let m0 = Machine::initial(&locs, [p0, p1]);
        let l: LocPredicate = [a].into_iter().collect();
        // Empty prefix: nothing to race with.
        assert!(is_l_stable_for_prefix(&locs, &[], m0, &l, cfg()).unwrap());
    }

    #[test]
    fn mid_race_state_is_not_l_stable() {
        // After P0's write to `a` (the prefix), P1's conflicting write is
        // still to come: the state is not {a}-stable.
        let (locs, a, _, _) = locs_abf();
        let p0 = RecordedExpr::new(vec![StepLabel::Write(a, Val(1))]);
        let p1 = RecordedExpr::new(vec![StepLabel::Write(a, Val(2))]);
        let m0 = Machine::initial(&locs, [p0, p1]);
        // Take P0's write.
        let t = m0
            .transitions(&locs)
            .into_iter()
            .find(|t| t.label.thread.index() == 0)
            .unwrap();
        let l: LocPredicate = [a].into_iter().collect();
        let stable = is_l_stable_for_prefix(&locs, &[t.label], t.target, &l, cfg()).unwrap();
        assert!(!stable);
    }

    /// An [`Expr`] wrapper that counts every transition-semantics probe
    /// (`steps()` calls): the instrument behind the no-re-execution
    /// guarantee of [`check_local_drf_replayed`].
    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    struct CountedExpr(RecordedExpr);

    static STEP_PROBES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

    impl crate::machine::Expr for CountedExpr {
        fn steps(&self) -> crate::machine::Steps {
            STEP_PROBES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.0.steps()
        }

        fn apply_step(&self, index: usize, read_value: Val) -> CountedExpr {
            CountedExpr(self.0.apply_step(index, read_value))
        }
    }

    #[test]
    fn replayed_checkers_match_live_without_semantics() {
        let (locs, a, b, f) = locs_abf();
        // One racy and one race-free program.
        let progs: Vec<Vec<RecordedExpr>> = vec![
            vec![
                RecordedExpr::new(vec![StepLabel::Write(a, Val(1)), StepLabel::Read(a)]),
                RecordedExpr::new(vec![StepLabel::Write(a, Val(2))]),
            ],
            vec![
                RecordedExpr::new(vec![
                    StepLabel::Write(a, Val(1)),
                    StepLabel::Write(f, Val(1)),
                    StepLabel::Read(b),
                ]),
                RecordedExpr::new(vec![
                    StepLabel::Read(f),
                    StepLabel::Write(b, Val(1)),
                    StepLabel::Read(a),
                ]),
            ],
        ];
        let l: LocPredicate = [a, b].into_iter().collect();
        for prog in progs {
            let counted = Machine::initial(&locs, prog.iter().cloned().map(CountedExpr));
            let plain = Machine::initial(&locs, prog);
            let live = check_local_drf(&locs, plain, &l, cfg());

            // Record once — this is the only place the semantics runs.
            let (graph, _) = TraceEngine::new(cfg()).record(&locs, counted).unwrap();
            let before = STEP_PROBES.load(std::sync::atomic::Ordering::Relaxed);
            let replayed = check_local_drf_replayed(&locs, &graph, &l, cfg());
            let after = STEP_PROBES.load(std::sync::atomic::Ordering::Relaxed);
            assert_eq!(before, after, "replay invoked the transition semantics");
            assert_eq!(live, replayed);
        }
    }

    /// A visitor for `L = {a}` that has walked `suffix`, each step with
    /// only L-sequential transitions enabled.
    fn visitor_after<'a>(
        locs: &'a LocSet,
        l: &'a LocPredicate,
        suffix: &[TransitionLabel],
    ) -> (LocalDrfVisitor<'a>, TraceLabels) {
        let mut v = LocalDrfVisitor::new(locs, l);
        let mut trace = TraceLabels::new();
        for s in suffix {
            trace.push(*s);
            let step = Step {
                label: *s,
                enabled: &[],
                terminal: true,
            };
            assert_eq!(v.visit(&trace, step), Control::Continue);
        }
        (v, trace)
    }

    fn label(thread: u32, loc: Loc, action: crate::loc::Action, weak: bool) -> TransitionLabel {
        TransitionLabel {
            thread: crate::machine::ThreadId(thread),
            action: Some(crate::loc::LabeledAction { loc, action }),
            timestamp: None,
            weak,
        }
    }

    /// Theorem 13's conclusion at one state, label by label: a weak read
    /// of `a` is enabled after P0 wrote `a`, so the state needs an enabled
    /// non-weak access to `a` that races with the suffix.
    #[test]
    fn theorem13_conclusion_needs_a_racing_non_weak_l_access() {
        use crate::loc::Action::{Read, Write};
        let (locs, a, b, f) = locs_abf();
        let l: LocPredicate = [a].into_iter().collect();
        let p0_writes_a = label(0, a, Write(Val(1)), false);
        let weak_read_a = label(1, a, Read(Val(0)), true);

        // No racing non-weak L access: the state violates the theorem.
        let (mut v, suffix) = visitor_after(&locs, &l, &[p0_writes_a]);
        let no_witness = [
            weak_read_a,
            label(1, b, Read(Val(0)), false), // not on L
            label(0, a, Read(Val(1)), false), // on L, but ordered after the write
        ];
        let violation = v
            .check_state(&suffix, &no_witness)
            .expect("no racing L access is enabled");
        assert_eq!(violation.offending, weak_read_a);
        assert_eq!(violation.suffix, vec![p0_writes_a]);

        // A racing non-weak read of `a` by P1 is the theorem's witness.
        let racing = [weak_read_a, label(1, a, Read(Val(1)), false)];
        assert_eq!(v.check_state(&suffix, &racing), None);

        // Once P1 has acquired P0's release, its read no longer races.
        let (mut v, suffix) = visitor_after(
            &locs,
            &l,
            &[
                p0_writes_a,
                label(0, f, Write(Val(1)), false),
                label(1, f, Read(Val(1)), false),
            ],
        );
        assert!(v.check_state(&suffix, &racing).is_some());

        // Every enabled transition L-sequential: nothing to check.
        let (mut v, suffix) = visitor_after(&locs, &l, &[p0_writes_a]);
        let l_sequential = [label(1, b, Read(Val(0)), true)]; // weak outside L
        assert_eq!(v.check_state(&suffix, &l_sequential), None);
    }

    #[test]
    fn l_stability_sees_prefix_races_only() {
        // P0 writes `a`; P1 writes `b`, then `a`, unsynchronised.
        let (locs, a, b, _) = locs_abf();
        let p0 = RecordedExpr::new(vec![StepLabel::Write(a, Val(1))]);
        let p1 = RecordedExpr::new(vec![
            StepLabel::Write(b, Val(1)),
            StepLabel::Write(a, Val(2)),
        ]);
        let m0 = Machine::initial(&locs, [p0, p1]);
        let first_of = |thread: usize| {
            m0.transitions(&locs)
                .into_iter()
                .find(|t| t.label.thread.index() == thread)
                .unwrap()
        };
        let on_a: LocPredicate = [a].into_iter().collect();
        // After P0's write, P1's write of `a` races with the prefix.
        let t = first_of(0);
        assert!(!is_l_stable_for_prefix(&locs, &[t.label], t.target, &on_a, cfg()).unwrap());
        // After P1's write of `b`, the two writes of `a` race only with
        // each other, inside the suffix: the state is {a}-stable.
        let t = first_of(1);
        assert!(is_l_stable_for_prefix(&locs, &[t.label], t.target, &on_a, cfg()).unwrap());
    }

    /// Memo ≡ unmemoized replay for Theorem 13: forwards the filter and
    /// the visits, counting the visits, and forwards
    /// [`TraceVisitor::summary`] only when `memo` is set — otherwise the
    /// replay walks the whole unfolded tree.
    struct Shown<'v> {
        inner: &'v mut dyn TraceVisitor,
        memo: bool,
        seen: usize,
    }

    impl TraceVisitor for Shown<'_> {
        fn step_filter(&mut self, label: &TransitionLabel) -> bool {
            self.inner.step_filter(label)
        }

        fn visit(&mut self, trace: &TraceLabels, step: Step<'_>) -> Control {
            self.seen += 1;
            self.inner.visit(trace, step)
        }

        fn summary(&mut self, trace: &TraceLabels, key: &mut Vec<u64>) -> bool {
            self.memo && self.inner.summary(trace, key)
        }
    }

    /// [`check_local_drf_replayed`] with the visitor wrapped in
    /// [`Shown`], and the number of extensions the replay showed it.
    fn local_drf_shown(
        locs: &LocSet,
        graph: &TraceGraph,
        l_set: &LocPredicate,
        config: EngineConfig,
        memo: bool,
    ) -> (Result<ExploreStats, CheckError<LocalDrfViolation>>, usize) {
        let mut seen = 0;
        let verdict = local_drf_with(locs, l_set, graph.root_enabled(), |inner| {
            let mut shown = Shown {
                inner,
                memo,
                seen: 0,
            };
            let replayed = graph.replay(config, &mut shown);
            seen = shown.seen;
            replayed
        });
        (verdict, seen)
    }

    /// The memoized and the unfolded local-DRF replay agree on `graph`
    /// for `l_set`. On a tree of at most `sweep` extensions, every trace
    /// budget up to the tree's size trips each replay exactly when it is
    /// below the extensions that replay shows, and leaves its verdict
    /// unchanged otherwise.
    fn memo_matches_unfolded(
        name: &str,
        locs: &LocSet,
        graph: &TraceGraph,
        l_set: &LocPredicate,
        sweep: usize,
    ) {
        let memo = check_local_drf_replayed(locs, graph, l_set, cfg());
        let (counted, shown) = local_drf_shown(locs, graph, l_set, cfg(), true);
        assert_eq!(counted, memo, "{name}: L = {l_set:?}");
        let (unfolded, unfolded_shown) = local_drf_shown(locs, graph, l_set, cfg(), false);
        assert_eq!(memo, unfolded, "{name}: L = {l_set:?}");
        if graph.len() <= sweep {
            for max_traces in 0..=graph.len() {
                let tight = EngineConfig {
                    max_states: usize::MAX,
                    max_traces,
                };
                let expected = |shown| {
                    if max_traces >= shown {
                        memo.clone()
                    } else {
                        Err(CheckError::Engine(EngineError::budget(max_traces + 1)))
                    }
                };
                assert_eq!(
                    check_local_drf_replayed(locs, graph, l_set, tight),
                    expected(shown),
                    "{name}: L = {l_set:?}, max_traces = {max_traces}, memoized"
                );
                assert_eq!(
                    local_drf_shown(locs, graph, l_set, tight, false).0,
                    expected(unfolded_shown),
                    "{name}: L = {l_set:?}, max_traces = {max_traces}, unfolded"
                );
            }
        }
    }

    /// One thread's code for the memo differential: straight-line
    /// accesses, and a guard that reads a flag and then, in a silent
    /// step, ends the thread unless it read the expected value (the
    /// guarded message-passing hop).
    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    struct Code {
        ops: Vec<Op>,
        pc: usize,
        /// The value the last read returned.
        last: Val,
    }

    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    enum Op {
        Read(Loc),
        Write(Loc, Val),
        /// Continue only if the last read returned this value.
        Branch(Val),
    }

    impl Expr for Code {
        fn steps(&self) -> crate::machine::Steps {
            crate::machine::Steps::one(match self.ops.get(self.pc) {
                None => return crate::machine::Steps::none(),
                Some(Op::Read(l)) => StepLabel::Read(*l),
                Some(Op::Write(l, v)) => StepLabel::Write(*l, *v),
                Some(Op::Branch(_)) => StepLabel::Silent,
            })
        }

        fn apply_step(&self, _index: usize, read_value: Val) -> Code {
            let mut next = self.clone();
            next.pc += 1;
            match self.ops[self.pc] {
                Op::Read(_) => next.last = read_value,
                Op::Branch(expected) if self.last != expected => next.pc = self.ops.len(),
                _ => {}
            }
            next
        }
    }

    /// Checks memo ≡ unfolded for `L` = every nonatomic location and
    /// each singleton, on the recorded tree of `threads` over `locs`.
    fn memo_matches_unfolded_on(name: &str, locs: &LocSet, threads: Vec<Vec<Op>>, sweep: usize) {
        let m0 = Machine::initial(
            locs,
            threads.into_iter().map(|ops| Code {
                ops,
                pc: 0,
                last: Val(0),
            }),
        );
        let (graph, _) = TraceEngine::new(cfg()).record(locs, m0).unwrap();
        let nonatomics: Vec<Loc> = locs.nonatomic().collect();
        let mut l_sets: Vec<LocPredicate> = vec![nonatomics.iter().copied().collect()];
        l_sets.extend(nonatomics.iter().map(|&l| LocPredicate::from([l])));
        for l in &l_sets {
            memo_matches_unfolded(name, locs, &graph, l, sweep);
        }
    }

    /// The benchmark's families, rebuilt at the sizes it replays (each
    /// unfolds to as many extensions as the benchmark's program): store
    /// buffering over nonatomics (`sb-N`) and atomics (`sb-at-Nx1`),
    /// unguarded message passing (`mp-2x2`) and the guarded
    /// message-passing chain (`mp-chain-N`).
    fn perfbench_shapes() -> Vec<(String, LocSet, Vec<Vec<Op>>)> {
        let mut shapes = Vec::new();
        for (name, n, kind) in [
            ("sb-4", 4, LocKind::Nonatomic),
            ("sb-5", 5, LocKind::Nonatomic),
            ("sb-at-4x1", 4, LocKind::Atomic),
            ("sb-at-5x1", 5, LocKind::Atomic),
        ] {
            let mut locs = LocSet::new();
            let x: Vec<Loc> = (0..n).map(|i| locs.fresh(format!("x{i}"), kind)).collect();
            let threads = (0..n)
                .map(|i| vec![Op::Write(x[i], Val(1 + i as i64)), Op::Read(x[(i + 1) % n])])
                .collect();
            shapes.push((name.to_string(), locs, threads));
        }
        let mut locs = LocSet::new();
        let d: Vec<Loc> = (0..2)
            .map(|j| locs.fresh(format!("d{j}"), LocKind::Nonatomic))
            .collect();
        let f = locs.fresh("f", LocKind::Atomic);
        let mut threads = vec![vec![
            Op::Write(d[0], Val(1)),
            Op::Write(d[1], Val(2)),
            Op::Write(f, Val(1)),
        ]];
        threads.extend((0..2).map(|_| vec![Op::Read(f), Op::Read(d[0]), Op::Read(d[1])]));
        shapes.push(("mp-2x2".to_string(), locs, threads));
        for n in [4, 5] {
            let mut locs = LocSet::new();
            let d: Vec<Loc> = (0..n)
                .map(|i| locs.fresh(format!("d{i}"), LocKind::Nonatomic))
                .collect();
            let f: Vec<Loc> = (0..n - 1)
                .map(|i| locs.fresh(format!("f{i}"), LocKind::Atomic))
                .collect();
            let mut threads = vec![vec![Op::Write(d[0], Val(1)), Op::Write(f[0], Val(1))]];
            for i in 1..n {
                let mut hop = vec![Op::Read(f[i - 1]), Op::Branch(Val(1)), Op::Read(d[i - 1])];
                if i + 1 < n {
                    hop.extend([Op::Write(d[i], Val(1 + i as i64)), Op::Write(f[i], Val(1))]);
                }
                threads.push(hop);
            }
            shapes.push((format!("mp-chain-{n}"), locs, threads));
        }
        shapes
    }

    #[test]
    fn memoized_local_drf_replay_matches_unfolded_on_perfbench_shapes() {
        for (name, locs, threads) in perfbench_shapes() {
            memo_matches_unfolded_on(&name, &locs, threads, 0);
        }
    }

    #[test]
    fn memoized_local_drf_replay_matches_unfolded_on_generated_programs() {
        // xorshift64*: 128 programs of two or three threads with one to
        // three operations each over nonatomic `a`, `b` and atomic `F`.
        let mut state = 0x5eed_1dc0_ffee_u64;
        let mut below = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
        };
        let (locs, a, b, f) = locs_abf();
        let on = [a, b, f];
        for case in 0..128 {
            let threads: Vec<Vec<Op>> = (0..2 + below(2))
                .map(|_| {
                    (0..1 + below(3))
                        .map(|_| {
                            let loc = on[below(3) as usize];
                            let val = Val(1 + below(2) as i64);
                            match below(3) {
                                0 => Op::Read(loc),
                                1 => Op::Write(loc, val),
                                _ => Op::Branch(val),
                            }
                        })
                        .collect()
                })
                .collect();
            memo_matches_unfolded_on(&format!("case {case}: {threads:?}"), &locs, threads, 400);
        }
    }

    /// A trace graph from rows in post-order, each given as its child
    /// entries (label, child row). Rows 0 to 16 come first: a terminal
    /// row and a chain of 16 writes of `tail` by thread 4 above it, so
    /// row 16 unfolds to 16 extensions, enough to be worth a memo key.
    fn dag_over_tail(tail: Loc, rows: &[&[(TransitionLabel, u32)]]) -> TraceGraph {
        let mut offsets = vec![0u32];
        let (mut labels, mut children) = (Vec::new(), Vec::new());
        let chain = (0..16).map(|r| {
            [(
                label(4, tail, crate::loc::Action::Write(Val(r + 1)), false),
                r as u32,
            )]
        });
        let chain: Vec<[(TransitionLabel, u32); 1]> = chain.collect();
        let all = std::iter::once(&[][..])
            .chain(chain.iter().map(|r| &r[..]))
            .chain(rows.iter().copied());
        for row in all {
            labels.extend(row.iter().map(|&(l, _)| l));
            children.extend(row.iter().map(|&(_, c)| c));
            offsets.push(labels.len() as u32);
        }
        TraceGraph::from_rows(labels, offsets, children).unwrap()
    }

    /// Crafted graphs around a shared row, two of them with a Theorem 13
    /// violation. The memoized replay must report the unfolded one's
    /// verdict under every budget.
    #[test]
    fn memoized_replay_matches_unfolded_on_crafted_graphs() {
        use crate::loc::Action::{Read, Write};
        let mut locs = LocSet::new();
        let [a, b, c, d] = ["a", "b", "c", "d"].map(|n| locs.fresh(n, LocKind::Nonatomic));
        let f = locs.fresh("F", LocKind::Atomic);
        let l: LocPredicate = [a].into_iter().collect();
        let p0_writes_a = label(0, a, Write(Val(1)), false);
        let p2_writes_b = label(2, b, Write(Val(1)), false);
        let p3_writes_c = label(3, c, Write(Val(1)), false);
        let violation = |graph: &TraceGraph, suffix: Vec<TransitionLabel>| {
            match check_local_drf_replayed(&locs, graph, &l, cfg()) {
                Err(CheckError::Violation(v)) => assert_eq!(v.suffix, suffix),
                other => panic!("expected the violation, got {other:?}"),
            }
            memo_matches_unfolded("crafted", &locs, graph, &l, usize::MAX);
        };
        // Row 16 is the shared row over the tail of writes to `d`.
        const SHARED: u32 = 16;

        // The violation comes after a skip: both orders of two
        // independent writes reach the shared row with equal summaries,
        // so the second is skipped. The root's last branch then violates
        // the theorem: P1 may read `a` weakly, and the only enabled
        // non-weak access to `a` is P0's own read, ordered after its
        // write.
        let graph = dag_over_tail(
            d,
            &[
                &[(p3_writes_c, SHARED)],
                &[(p2_writes_b, SHARED)],
                &[
                    (label(1, a, Read(Val(0)), true), 0),
                    (label(0, a, Read(Val(1)), false), 0),
                ],
                &[(p2_writes_b, 17), (p3_writes_c, 18), (p0_writes_a, 19)],
            ],
        );
        violation(&graph, vec![p0_writes_a]);

        // Without the violating branch the skip ends the walk: a budget
        // one short of the tree must trip on it.
        let graph = dag_over_tail(
            d,
            &[
                &[(p3_writes_c, SHARED)],
                &[(p2_writes_b, SHARED)],
                &[(p2_writes_b, 17), (p3_writes_c, 18)],
            ],
        );
        memo_matches_unfolded("crafted", &locs, &graph, &l, usize::MAX);

        // The violation lies below a shared row reached twice with
        // different happens-before: after P0's write alone P1's read of
        // `a` races, but after P0 releases F and P1 acquires it, it does
        // not. A key without the summary would skip the second visit.
        let (p0_releases, p1_acquires) = (
            label(0, f, Write(Val(1)), false),
            label(1, f, Read(Val(1)), false),
        );
        let p3_writes_d = label(3, d, Write(Val(2)), false);
        let graph = dag_over_tail(
            c,
            &[
                // 17: P1 may read `a`, weakly or not.
                &[
                    (label(1, a, Read(Val(0)), true), 0),
                    (label(1, a, Read(Val(1)), false), 0),
                ],
                // 18: the shared row, over the tail and row 17.
                &[
                    (label(3, d, Write(Val(1)), false), SHARED),
                    (p3_writes_d, 17),
                ],
                &[(p1_acquires, 18)],
                &[(p2_writes_b, 18), (p0_releases, 19)],
                &[(p0_writes_a, 20)],
            ],
        );
        violation(
            &graph,
            vec![p0_writes_a, p0_releases, p1_acquires, p3_writes_d],
        );
    }

    #[test]
    fn engine_error_converts_into_check_error() {
        let (locs, a, _, _) = locs_abf();
        let mk = || RecordedExpr::new(vec![StepLabel::Write(a, Val(1)); 6]);
        let m0 = Machine::initial(&locs, [mk(), mk(), mk()]);
        let tiny = EngineConfig {
            max_states: 4,
            max_traces: 4,
        };
        let l: LocPredicate = [a].into_iter().collect();
        // The trip is exact: the (max_traces + 1)-th extension fails.
        match check_local_drf(&locs, m0, &l, tiny) {
            Err(CheckError::Engine(e)) => assert_eq!(e, EngineError::budget(tiny.max_traces + 1)),
            other => panic!("expected budget error, got {other:?}"),
        }
    }
}
