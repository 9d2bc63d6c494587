//! Machine configurations and the small-step relation (Fig. 1a/1b).
//!
//! A machine `M = ⟨S, P⟩` pairs a store with a program: a finite map from
//! thread identifiers to `(frontier, expression)` pairs. The semantics of
//! memory does not fix the form of expressions; this module captures the
//! required interface as the [`Expr`] trait (whose read transitions must
//! satisfy Proposition 4: a read accepts any value).

use std::fmt;
use std::hash::Hash;

use crate::frontier::Frontier;
use crate::loc::{LabeledAction, Loc, LocSet, Val};
use crate::memop::{perform_read, perform_write, StoreDelta};
use crate::store::Store;
use crate::timestamp::Timestamp;

/// A thread identifier `i`: index into the machine's thread vector.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ThreadId(pub u32);

impl ThreadId {
    /// The thread's raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// The label of one enabled expression step.
///
/// For [`StepLabel::Read`] the value is *not* part of the label: per
/// Proposition 4 the expression must accept whatever value memory supplies,
/// via [`Expr::apply_step`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum StepLabel {
    /// A silent step `e —ϵ→ e′`: no memory access.
    #[default]
    Silent,
    /// A read step `e —ℓ:read x→ e_x` for every value `x`.
    Read(Loc),
    /// A write step `e —ℓ:write x→ e′`.
    Write(Loc, Val),
}

/// How many step labels [`Steps`] holds before spilling to the heap.
/// Every expression language in this repository exposes at most one
/// enabled step per thread, so the inline buffer is already generous.
const STEPS_INLINE: usize = 4;

/// The enabled steps of an expression: a small inline buffer that spills
/// to a `Vec` only past four entries.
///
/// `Expr::steps` sits on the hottest loop of every engine — once per
/// thread per expansion — and used to allocate a `Vec` on each call.
/// Returning `Steps` keeps the common case (zero or one label)
/// allocation-free; the counting-allocator test
/// `crates/bench/tests/allocations.rs` asserts it stays that way.
#[derive(Clone, Debug, Default)]
pub struct Steps {
    /// Number of inline labels (meaningless once `spill` is non-empty).
    len: u8,
    inline: [StepLabel; STEPS_INLINE],
    /// Once spilled, holds *all* labels (inline buffer abandoned).
    spill: Vec<StepLabel>,
}

impl Steps {
    /// No enabled steps (a terminated or stuck thread).
    pub fn none() -> Steps {
        Steps::default()
    }

    /// Exactly one enabled step.
    pub fn one(label: StepLabel) -> Steps {
        let mut s = Steps::default();
        s.push(label);
        s
    }

    /// Appends a label, spilling to the heap past the inline capacity.
    pub fn push(&mut self, label: StepLabel) {
        if !self.spill.is_empty() {
            self.spill.push(label);
        } else if (self.len as usize) < STEPS_INLINE {
            self.inline[self.len as usize] = label;
            self.len += 1;
        } else {
            self.spill = self.inline.to_vec();
            self.spill.push(label);
        }
    }

    /// The enabled labels as a slice.
    pub fn as_slice(&self) -> &[StepLabel] {
        if self.spill.is_empty() {
            &self.inline[..self.len as usize]
        } else {
            &self.spill
        }
    }

    /// Number of enabled steps.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when no step is enabled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over the labels by value ([`StepLabel`] is `Copy`).
    pub fn iter(&self) -> impl Iterator<Item = StepLabel> + '_ {
        self.as_slice().iter().copied()
    }
}

impl PartialEq for Steps {
    fn eq(&self, other: &Steps) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Steps {}

impl FromIterator<StepLabel> for Steps {
    fn from_iter<I: IntoIterator<Item = StepLabel>>(iter: I) -> Steps {
        let mut s = Steps::default();
        for label in iter {
            s.push(label);
        }
        s
    }
}

impl From<Vec<StepLabel>> for Steps {
    fn from(labels: Vec<StepLabel>) -> Steps {
        labels.into_iter().collect()
    }
}

/// By-value iterator over [`Steps`] (labels are `Copy`).
pub struct StepsIter {
    steps: Steps,
    pos: usize,
}

impl Iterator for StepsIter {
    type Item = StepLabel;

    fn next(&mut self) -> Option<StepLabel> {
        let out = self.steps.as_slice().get(self.pos).copied();
        self.pos += out.is_some() as usize;
        out
    }
}

impl IntoIterator for Steps {
    type Item = StepLabel;
    type IntoIter = StepsIter;

    fn into_iter(self) -> StepsIter {
        StepsIter {
            steps: self,
            pos: 0,
        }
    }
}

/// Counts every probe of the transition semantics — [`Expr::steps`]
/// enumerations made by [`Machine::transitions`], and equivalent direct
/// per-thread step walks (the axiomatic generator). The replay/cache test
/// suites read it to prove that warm paths (graph replays, cache hits)
/// never re-run the semantics: record the counter, run the warm path,
/// assert it did not move. A single relaxed increment per expansion is
/// noise next to the expansion itself.
///
/// The count lives in the shared [`bdrst_obs`] counter registry (slot
/// [`bdrst_obs::Counter::SemanticsProbes`]) rather than a private
/// static, so profiles and server gauges see the same number the test
/// suites assert on.
pub fn record_semantics_probe() {
    bdrst_obs::counter_add(bdrst_obs::Counter::SemanticsProbes, 1);
}

/// Total transition-semantics probes made by this process so far.
pub fn semantics_probes() -> u64 {
    bdrst_obs::counter_get(bdrst_obs::Counter::SemanticsProbes)
}

/// The expression language interface required by the memory semantics.
///
/// Implementations enumerate their enabled steps with [`Expr::steps`] and
/// produce the successor expression with [`Expr::apply_step`]. Proposition 4
/// ("read transitions are not picky about the value being read") must hold:
/// `apply_step` must succeed for a `Read` step with *any* value.
///
/// # Examples
///
/// See [`bdrst-lang`'s `ThreadState`](https://docs.rs/bdrst-lang) for the
/// litmus-language implementation, or [`RecordedExpr`] in this module for a
/// trivial straight-line one.
pub trait Expr: Clone + Eq + Hash + fmt::Debug {
    /// All enabled steps of this expression.
    ///
    /// An empty [`Steps`] means the thread is terminated (or stuck).
    fn steps(&self) -> Steps;

    /// True iff at least one step is enabled. The default enumerates
    /// [`Expr::steps`]; implementations should override it with a cheaper
    /// check (e.g. "is the continuation empty") so `Machine::is_terminal`
    /// never enumerates steps a subsequent `transitions` call will
    /// enumerate again.
    fn has_step(&self) -> bool {
        !self.steps().is_empty()
    }

    /// The successor expression after taking `steps()[index]`.
    ///
    /// For `Read` steps, `read_value` is the value memory supplied; for
    /// `Silent` and `Write` steps it is ignored (pass anything).
    ///
    /// # Panics
    ///
    /// May panic if `index` is out of range of [`Expr::steps`].
    fn apply_step(&self, index: usize, read_value: Val) -> Self;
}

/// The per-thread component of a program: `i ↦ (F, e)`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ThreadState<E> {
    /// The thread's frontier.
    pub frontier: Frontier,
    /// The thread's current expression.
    pub expr: E,
}

/// A machine configuration `M = ⟨S, P⟩`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Machine<E> {
    /// The shared store.
    pub store: Store,
    /// The threads (thread `i` is `threads[i]`).
    pub threads: Vec<ThreadState<E>>,
}

/// The record of one machine transition, as needed by traces: which thread
/// stepped, what memory action (if any) it performed, and the metadata used
/// by the weak-transition and happens-before machinery.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TransitionLabel {
    /// The thread that stepped.
    pub thread: ThreadId,
    /// The memory action, or `None` for rule Silent.
    pub action: Option<LabeledAction>,
    /// The nonatomic history timestamp read or written, if applicable.
    pub timestamp: Option<Timestamp>,
    /// Whether the transition is weak (Definition 6).
    pub weak: bool,
}

impl crate::wire::Codec for ThreadId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }

    fn decode(r: &mut crate::wire::Reader<'_>) -> Result<ThreadId, crate::wire::WireError> {
        Ok(ThreadId(u32::decode(r)?))
    }
}

impl crate::wire::Codec for TransitionLabel {
    fn encode(&self, out: &mut Vec<u8>) {
        self.thread.encode(out);
        self.action.encode(out);
        self.timestamp.encode(out);
        self.weak.encode(out);
    }

    fn decode(r: &mut crate::wire::Reader<'_>) -> Result<TransitionLabel, crate::wire::WireError> {
        Ok(TransitionLabel {
            thread: ThreadId::decode(r)?,
            action: Option::decode(r)?,
            timestamp: Option::decode(r)?,
            weak: bool::decode(r)?,
        })
    }
}

impl fmt::Display for TransitionLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.action {
            None => write!(f, "{}: ϵ", self.thread),
            Some(a) => {
                write!(f, "{}: {}", self.thread, a)?;
                if self.weak {
                    write!(f, " (weak)")?;
                }
                Ok(())
            }
        }
    }
}

/// One enabled machine transition: its label and the successor machine.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Transition<E> {
    /// The transition's observable label.
    pub label: TransitionLabel,
    /// The machine after the transition.
    pub target: Machine<E>,
}

impl<E: Expr> Machine<E> {
    /// The initial machine `M₀` for the given thread expressions (§3.1):
    /// initial store, and every thread at the initial frontier.
    pub fn initial(locs: &LocSet, exprs: impl IntoIterator<Item = E>) -> Machine<E> {
        let f0 = Frontier::initial(locs);
        Machine {
            store: Store::initial(locs),
            threads: exprs
                .into_iter()
                .map(|e| ThreadState {
                    frontier: f0.clone(),
                    expr: e,
                })
                .collect(),
        }
    }

    /// The number of threads.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// True if no thread has an enabled step. Uses [`Expr::has_step`], so
    /// checking terminality before (or after) a `transitions` call does
    /// not enumerate every thread's steps a second time.
    pub fn is_terminal(&self) -> bool {
        !self.threads.iter().any(|t| t.expr.has_step())
    }

    /// The successor machine of one transition: `delta` is applied to a
    /// persistent clone of the shared store (`None` = unchanged — the
    /// clone is then a pure `Arc` bump), and thread `ti` gets the new
    /// frontier and expression. Building the target directly — instead
    /// of cloning the whole machine and overwriting the changed parts —
    /// keeps the per-transition allocation cost to exactly what the
    /// successor needs: read and silent successors share the parent
    /// store outright, and a write successor pays one O(log n)
    /// root-to-leaf path copy in the store's radix map
    /// ([`crate::pmap`]), leaving every off-path subtree — and its
    /// memoized fingerprint digests — shared with the parent and all
    /// sibling branches.
    fn target(
        &self,
        ti: usize,
        delta: Option<StoreDelta>,
        frontier: Frontier,
        expr: E,
    ) -> Machine<E> {
        let mut store = self.store.clone();
        if let Some(d) = delta {
            store.update(d.loc, d.contents);
        }
        let mut acting = Some(ThreadState { frontier, expr });
        Machine {
            store,
            threads: self
                .threads
                .iter()
                .enumerate()
                .map(|(j, t)| {
                    if j == ti {
                        acting.take().expect("exactly one acting thread")
                    } else {
                        t.clone()
                    }
                })
                .collect(),
        }
    }

    /// Enumerates every enabled machine transition (rules Silent and
    /// Memory, Fig. 1b), including every nondeterministic memory outcome.
    pub fn transitions(&self, locs: &LocSet) -> Vec<Transition<E>> {
        record_semantics_probe();
        let mut out = Vec::new();
        for (ti, thread) in self.threads.iter().enumerate() {
            let tid = ThreadId(ti as u32);
            for (si, step) in thread.expr.steps().into_iter().enumerate() {
                match step {
                    StepLabel::Silent => {
                        let expr = thread.expr.apply_step(si, Val::INIT);
                        out.push(Transition {
                            label: TransitionLabel {
                                thread: tid,
                                action: None,
                                timestamp: None,
                                weak: false,
                            },
                            target: self.target(ti, None, thread.frontier.clone(), expr),
                        });
                    }
                    StepLabel::Read(loc) => {
                        for r in perform_read(locs, &self.store, &thread.frontier, loc) {
                            let expr = thread.expr.apply_step(si, r.label.action.value());
                            out.push(Transition {
                                label: TransitionLabel {
                                    thread: tid,
                                    action: Some(r.label),
                                    timestamp: r.timestamp,
                                    weak: r.weak,
                                },
                                target: self.target(ti, r.delta, r.frontier, expr),
                            });
                        }
                    }
                    StepLabel::Write(loc, x) => {
                        for w in perform_write(locs, &self.store, &thread.frontier, loc, x) {
                            let expr = thread.expr.apply_step(si, Val::INIT);
                            out.push(Transition {
                                label: TransitionLabel {
                                    thread: tid,
                                    action: Some(w.label),
                                    timestamp: w.timestamp,
                                    weak: w.weak,
                                },
                                target: self.target(ti, w.delta, w.frontier, expr),
                            });
                        }
                    }
                }
            }
        }
        out
    }
}

/// A minimal [`Expr`] for tests and documentation: a fixed list of labelled
/// steps executed in order, recording values read.
///
/// # Examples
///
/// ```
/// use bdrst_core::loc::{LocSet, LocKind, Val};
/// use bdrst_core::machine::{Machine, RecordedExpr, StepLabel, Expr};
///
/// let mut locs = LocSet::new();
/// let a = locs.fresh("a", LocKind::Nonatomic);
/// let writer = RecordedExpr::new(vec![StepLabel::Write(a, Val(1))]);
/// let reader = RecordedExpr::new(vec![StepLabel::Read(a)]);
/// let m = Machine::initial(&locs, [writer, reader]);
/// assert_eq!(m.transitions(&locs).len(), 2); // write (1 gap) + read (init)
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct RecordedExpr {
    program: Vec<StepLabelOwned>,
    pc: usize,
    /// Values observed by the read steps executed so far.
    pub reads: Vec<Val>,
}

// StepLabel is Copy and non-hashable only because of Val? All fields are
// hashable; we store an owned mirror to derive Hash for the whole expr.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum StepLabelOwned {
    Silent,
    Read(Loc),
    Write(Loc, Val),
}

impl From<StepLabel> for StepLabelOwned {
    fn from(s: StepLabel) -> StepLabelOwned {
        match s {
            StepLabel::Silent => StepLabelOwned::Silent,
            StepLabel::Read(l) => StepLabelOwned::Read(l),
            StepLabel::Write(l, v) => StepLabelOwned::Write(l, v),
        }
    }
}

impl RecordedExpr {
    /// A straight-line program over the given steps.
    pub fn new(steps: Vec<StepLabel>) -> RecordedExpr {
        RecordedExpr {
            program: steps.into_iter().map(StepLabelOwned::from).collect(),
            pc: 0,
            reads: Vec::new(),
        }
    }
}

impl crate::wire::Codec for StepLabelOwned {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            StepLabelOwned::Silent => out.push(0),
            StepLabelOwned::Read(l) => {
                out.push(1);
                l.encode(out);
            }
            StepLabelOwned::Write(l, v) => {
                out.push(2);
                l.encode(out);
                v.encode(out);
            }
        }
    }

    fn decode(r: &mut crate::wire::Reader<'_>) -> Result<StepLabelOwned, crate::wire::WireError> {
        match u8::decode(r)? {
            0 => Ok(StepLabelOwned::Silent),
            1 => Ok(StepLabelOwned::Read(Loc::decode(r)?)),
            2 => Ok(StepLabelOwned::Write(Loc::decode(r)?, Val::decode(r)?)),
            tag => Err(crate::wire::WireError::BadTag {
                what: "StepLabel",
                tag,
            }),
        }
    }
}

impl crate::wire::Codec for RecordedExpr {
    fn encode(&self, out: &mut Vec<u8>) {
        self.program.encode(out);
        self.pc.encode(out);
        self.reads.encode(out);
    }

    fn decode(r: &mut crate::wire::Reader<'_>) -> Result<RecordedExpr, crate::wire::WireError> {
        Ok(RecordedExpr {
            program: Vec::decode(r)?,
            pc: usize::decode(r)?,
            reads: Vec::decode(r)?,
        })
    }
}

impl Expr for RecordedExpr {
    fn steps(&self) -> Steps {
        match self.program.get(self.pc) {
            None => Steps::none(),
            Some(StepLabelOwned::Silent) => Steps::one(StepLabel::Silent),
            Some(StepLabelOwned::Read(l)) => Steps::one(StepLabel::Read(*l)),
            Some(StepLabelOwned::Write(l, v)) => Steps::one(StepLabel::Write(*l, *v)),
        }
    }

    fn has_step(&self) -> bool {
        self.pc < self.program.len()
    }

    fn apply_step(&self, index: usize, read_value: Val) -> RecordedExpr {
        assert_eq!(index, 0, "straight-line programs have one enabled step");
        let mut next = self.clone();
        if matches!(self.program[self.pc], StepLabelOwned::Read(_)) {
            next.reads.push(read_value);
        }
        next.pc += 1;
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loc::{Action, LocKind};

    fn locs2() -> (LocSet, Loc, Loc) {
        let mut locs = LocSet::new();
        let a = locs.fresh("a", LocKind::Nonatomic);
        let f = locs.fresh("F", LocKind::Atomic);
        (locs, a, f)
    }

    #[test]
    fn initial_machine_is_not_terminal() {
        let (locs, a, _) = locs2();
        let m = Machine::initial(&locs, [RecordedExpr::new(vec![StepLabel::Read(a)])]);
        assert!(!m.is_terminal());
        assert_eq!(m.thread_count(), 1);
    }

    #[test]
    fn empty_program_is_terminal() {
        let (locs, _, _) = locs2();
        let m = Machine::initial(&locs, [RecordedExpr::new(vec![])]);
        assert!(m.is_terminal());
        assert!(m.transitions(&locs).is_empty());
    }

    #[test]
    fn read_of_initial_value() {
        let (locs, a, _) = locs2();
        let m = Machine::initial(&locs, [RecordedExpr::new(vec![StepLabel::Read(a)])]);
        let ts = m.transitions(&locs);
        assert_eq!(ts.len(), 1);
        let l = ts[0].label;
        assert_eq!(l.thread, ThreadId(0));
        assert_eq!(l.action.unwrap().action, Action::Read(Val::INIT));
        assert!(!l.weak);
        assert!(ts[0].target.is_terminal());
        assert_eq!(ts[0].target.threads[0].expr.reads, vec![Val::INIT]);
    }

    #[test]
    fn message_passing_via_atomic() {
        // P0: a = 1; F = 1        P1: r0 = F; r1 = a
        // If P1 reads F == 1 then it must read a == 1.
        let (locs, a, f) = locs2();
        let p0 = RecordedExpr::new(vec![
            StepLabel::Write(a, Val(1)),
            StepLabel::Write(f, Val(1)),
        ]);
        let p1 = RecordedExpr::new(vec![StepLabel::Read(f), StepLabel::Read(a)]);
        let m0 = Machine::initial(&locs, [p0, p1]);

        // Exhaustive DFS collecting terminal read pairs.
        let mut terminals = Vec::new();
        let mut stack = vec![m0];
        while let Some(m) = stack.pop() {
            if m.is_terminal() {
                terminals.push(m.threads[1].expr.reads.clone());
                continue;
            }
            for t in m.transitions(&locs) {
                stack.push(t.target);
            }
        }
        // flag=1 ⇒ a=1: the outcome [1, 0] must be absent.
        assert!(terminals.contains(&vec![Val(1), Val(1)]));
        assert!(terminals.contains(&vec![Val(0), Val(0)]));
        assert!(terminals.contains(&vec![Val(0), Val(1)]));
        assert!(!terminals.contains(&vec![Val(1), Val(0)]), "MP violation");
    }

    #[test]
    fn transition_label_display() {
        let l = TransitionLabel {
            thread: ThreadId(1),
            action: None,
            timestamp: None,
            weak: false,
        };
        assert_eq!(format!("{l}"), "P1: ϵ");
    }

    #[test]
    fn steps_inline_and_spill_agree() {
        let labels: Vec<StepLabel> = (0..7).map(|i| StepLabel::Write(Loc(i), Val(1))).collect();
        for n in 0..labels.len() {
            let s: Steps = labels[..n].iter().copied().collect();
            assert_eq!(s.len(), n);
            assert_eq!(s.is_empty(), n == 0);
            assert_eq!(s.as_slice(), &labels[..n]);
            assert_eq!(s.iter().collect::<Vec<_>>(), labels[..n].to_vec());
            assert_eq!(s.clone().into_iter().collect::<Vec<_>>(), labels[..n]);
            assert_eq!(s, Steps::from(labels[..n].to_vec()));
        }
        assert_eq!(Steps::one(labels[0]).as_slice(), &labels[..1]);
        assert!(Steps::none().is_empty());
    }

    #[test]
    fn has_step_agrees_with_steps() {
        let (locs, a, _) = locs2();
        let e = RecordedExpr::new(vec![StepLabel::Read(a)]);
        assert!(e.has_step());
        assert!(!e.steps().is_empty());
        let m = Machine::initial(&locs, [e]);
        let done = &m.transitions(&locs)[0].target.threads[0].expr;
        assert!(!done.has_step());
        assert!(done.steps().is_empty());
    }

    #[test]
    fn transitions_bump_the_semantics_probe_counter() {
        let (locs, a, _) = locs2();
        let m = Machine::initial(&locs, [RecordedExpr::new(vec![StepLabel::Read(a)])]);
        let before = semantics_probes();
        let _ = m.transitions(&locs);
        assert!(semantics_probes() > before);
    }

    #[test]
    fn timestamp_renamed_machines_share_a_fingerprint_but_not_equality() {
        // One write of 1 to `a`, at timestamp 1 in one machine and 1/2 in
        // the other, with the thread's frontier on it: canonically the
        // same machine, exactly two different ones.
        use crate::history::History;
        use crate::store::LocContents;
        use std::collections::hash_map::DefaultHasher;
        use std::hash::Hasher;
        let (locs, a, _) = locs2();
        let at = |t: Timestamp| {
            let mut m = Machine::initial(&locs, [RecordedExpr::new(vec![StepLabel::Read(a)])]);
            let mut h = History::initial(Val::INIT);
            h.insert(t, Val(1));
            m.store.update(a, LocContents::Nonatomic(h));
            m.threads[0].frontier.advance(a, t);
            m
        };
        let one = Timestamp::ZERO.succ();
        let (m1, m2) = (at(one), at(Timestamp::ZERO.midpoint(one)));
        assert_eq!(
            crate::engine::canonical_fingerprint(&locs, &m1).unwrap(),
            crate::engine::canonical_fingerprint(&locs, &m2).unwrap()
        );
        assert_ne!(m1, m2, "an exact memo must not merge renamed machines");
        let exact = |m: &Machine<RecordedExpr>| {
            let mut h = DefaultHasher::new();
            m.hash(&mut h);
            h.finish()
        };
        assert_ne!(exact(&m1), exact(&m2));
        assert_eq!(exact(&m1), exact(&at(one)));
    }
}
