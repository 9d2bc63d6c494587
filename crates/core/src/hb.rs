//! One incremental happens-before (Definition 8) for every race checker.
//!
//! [`HbState`] keeps the happens-before of a growing trace with vector
//! clocks instead of the O(n²) closure of
//! [`TraceLabels::happens_before`]: every thread `t` carries a clock
//! `C_t`; every event of `t` gets the *epoch* `C_t[t]` and then ticks
//! it; an atomic write releases (joins `C_t` into the location's release
//! clock) and every atomic access acquires (joins the release clock into
//! the accessor's). An access recorded at epoch `c` by thread `u`
//! happens-before thread `t`'s current point iff `c < C_t[u]` — the
//! strict test is exact because a release publishes the *post-tick*
//! clock, so synchronising with an event always advances the acquirer
//! past that event's epoch.
//!
//! Races (Definition 10) are answered by one query on a label that has
//! *not yet been pushed*, against an [`AccessTable`]: the last read and
//! the last write of every (nonatomic location, thread) pair. Earlier
//! same-thread accesses happen-before the last one, so the per-thread
//! entries decide "races with some earlier access" exactly. The table
//! keeps one write *per thread*, not FastTrack's single last write,
//! because the local-DRF and L-stability suffixes may already race, and
//! a single last write is wrong there. A snapshot of the table taken at
//! a prefix boundary answers "races with some prefix access" exactly.
//!
//! Backtracking walks rewind the state through an undo stack
//! ([`HbState::truncate`]) and re-synchronise on trace length alone.
//!
//! [`HbState::summary`] writes out everything later queries depend on:
//! the clocks, the release clocks, and per location the accesses in
//! trace order as (thread, kind, epoch), without trace indices. Two
//! paths to one recorded machine with equal summaries have identical
//! race verdicts below it, so a [`crate::engine::TraceGraph`] replay
//! keys its memo by (row, summary) for the visitors built on this state.
//!
//! On top of the state sit the streaming [`RaceDetector`] — one
//! [`TraceVisitor`] for the live walk, the DPOR walk and the
//! [`crate::engine::TraceGraph`] replay, and also run over one fixed
//! label sequence — and its
//! [`RaceWitness`]. [`TraceLabels::happens_before`] and
//! [`TraceLabels::data_races`] stay as the Definition 8 reference that
//! [`RaceWitness::validate`] and the tests check against.

use std::collections::BTreeSet;

use crate::engine::{Control, ExploreStats, Step, TraceVisitor};
use crate::loc::{Action, Loc, LocKind, LocSet};
use crate::machine::{ThreadId, TransitionLabel};
use crate::trace::{conflicting, TraceLabels};

/// A vector clock: per-thread event counters, grown on demand (absent
/// entries read as zero).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct VectorClock {
    entries: Vec<u64>,
}

impl VectorClock {
    /// The all-zero clock.
    pub fn new() -> VectorClock {
        VectorClock::default()
    }

    /// The entry for `t` (zero if never advanced).
    pub fn get(&self, t: ThreadId) -> u64 {
        self.entries.get(t.index()).copied().unwrap_or(0)
    }

    /// Advances `t`'s entry by one and returns the *pre-tick* value — the
    /// epoch of the event being applied.
    pub fn tick(&mut self, t: ThreadId) -> u64 {
        if self.entries.len() <= t.index() {
            self.entries.resize(t.index() + 1, 0);
        }
        let c = self.entries[t.index()];
        self.entries[t.index()] = c + 1;
        c
    }

    /// Appends the clock to `out` as its length without trailing zero
    /// entries, then those entries: equal clocks append equal words.
    fn summary(&self, out: &mut Vec<u64>) {
        let len = self
            .entries
            .iter()
            .rposition(|&e| e != 0)
            .map_or(0, |i| i + 1);
        out.push(len as u64);
        out.extend_from_slice(&self.entries[..len]);
    }

    /// Undoes one [`VectorClock::tick`] of `t`.
    pub fn untick(&mut self, t: ThreadId) {
        self.entries[t.index()] -= 1;
    }

    /// Pointwise maximum: `self ⊔= other`.
    pub fn join(&mut self, other: &VectorClock) {
        self.join_logged(other, |_, _| {});
    }

    /// [`VectorClock::join`], reporting each raised entry's index and
    /// previous value.
    fn join_logged(&mut self, other: &VectorClock, mut log: impl FnMut(usize, u64)) {
        if self.entries.len() < other.entries.len() {
            self.entries.resize(other.entries.len(), 0);
        }
        for (i, (mine, theirs)) in self.entries.iter_mut().zip(&other.entries).enumerate() {
            if *theirs > *mine {
                log(i, *mine);
                *mine = *theirs;
            }
        }
    }

    /// True iff an event with epoch `c` by thread `u` happens-before the
    /// point this clock describes (see the module docs for why the test
    /// is strict).
    pub fn dominates(&self, u: ThreadId, c: u64) -> bool {
        c < self.get(u)
    }
}

/// One recorded memory access of the current trace: who, at which epoch,
/// at which trace index. The epoch orders it against later clocks; the
/// index anchors a witness's time window.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Access {
    /// The accessing thread.
    pub thread: ThreadId,
    /// The access's epoch (`C_t[t]` at the event).
    pub epoch: u64,
    /// The access's index in the trace.
    pub index: usize,
}

/// The last read and the last write of every (nonatomic location,
/// thread) pair of a trace. Cloning one at a prefix boundary gives the
/// snapshot [`HbState::race_in`] checks suffix steps against.
#[derive(Clone, Debug)]
pub struct AccessTable {
    /// `last[loc][thread]`: that thread's last read and last write of
    /// `loc`, in that order.
    last: Vec<Vec<[Option<Access>; 2]>>,
}

impl AccessTable {
    fn slot_mut(&mut self, loc: Loc, t: ThreadId, write: bool) -> &mut Option<Access> {
        let row = &mut self.last[loc.index()];
        if row.len() <= t.index() {
            row.resize(t.index() + 1, [None; 2]);
        }
        &mut row[t.index()][usize::from(write)]
    }

    fn row(&self, loc: Loc) -> &[[Option<Access>; 2]] {
        &self.last[loc.index()]
    }
}

/// What one pushed event overwrote — enough to rewind it. Nonatomic
/// accesses and silent steps only tick the acting thread's clock; atomic
/// accesses join clocks and log every entry they raise on the shared
/// trail, so a rewind needs no saved copy of a clock.
#[derive(Clone, Copy, Debug)]
enum Undo {
    Tick(ThreadId),
    Access {
        thread: ThreadId,
        loc: Loc,
        write: bool,
        prev: Option<Access>,
    },
    /// The trail length before the event.
    Atomic(usize),
}

/// A clock of the state: a thread's, or an atomic location's release
/// clock.
#[derive(Clone, Copy, Debug)]
enum ClockId {
    Thread(ThreadId),
    Release(Loc),
}

/// One clock entry an atomic event raised, with its previous value.
#[derive(Clone, Copy, Debug)]
struct Raised {
    clock: ClockId,
    entry: usize,
    old: u64,
}

/// Definition 8's happens-before over a trace built one label at a time
/// (see the module docs).
#[derive(Debug)]
pub struct HbState<'a> {
    locs: &'a LocSet,
    clocks: Vec<VectorClock>,
    releases: Vec<VectorClock>,
    accesses: AccessTable,
    undo: Vec<Undo>,
    trail: Vec<Raised>,
}

impl<'a> HbState<'a> {
    /// The state of the empty trace over `locs`.
    pub fn new(locs: &'a LocSet) -> HbState<'a> {
        HbState {
            locs,
            clocks: Vec::new(),
            releases: vec![VectorClock::new(); locs.len()],
            accesses: AccessTable {
                last: vec![Vec::new(); locs.len()],
            },
            undo: Vec::new(),
            trail: Vec::new(),
        }
    }

    /// The number of labels pushed (the trace length).
    pub fn len(&self) -> usize {
        self.undo.len()
    }

    /// True if no label has been pushed.
    pub fn is_empty(&self) -> bool {
        self.undo.is_empty()
    }

    /// The access table of the current trace.
    pub fn accesses(&self) -> &AccessTable {
        &self.accesses
    }

    /// Appends one transition to the trace.
    pub fn push(&mut self, label: &TransitionLabel) {
        let t = label.thread;
        if self.clocks.len() <= t.index() {
            self.clocks.resize(t.index() + 1, VectorClock::new());
        }
        let index = self.undo.len();
        let clock = &mut self.clocks[t.index()];
        let undo = match label.action {
            None => {
                clock.tick(t);
                Undo::Tick(t)
            }
            Some(la) => match self.locs.kind(la.loc) {
                LocKind::Atomic => {
                    let mark = self.trail.len();
                    let trail = &mut self.trail;
                    let release = &mut self.releases[la.loc.index()];
                    clock.join_logged(release, |entry, old| {
                        trail.push(Raised {
                            clock: ClockId::Thread(t),
                            entry,
                            old,
                        })
                    });
                    let old = clock.tick(t);
                    trail.push(Raised {
                        clock: ClockId::Thread(t),
                        entry: t.index(),
                        old,
                    });
                    if la.action.is_write() {
                        release.join_logged(clock, |entry, old| {
                            trail.push(Raised {
                                clock: ClockId::Release(la.loc),
                                entry,
                                old,
                            })
                        });
                    }
                    Undo::Atomic(mark)
                }
                LocKind::Nonatomic => {
                    let epoch = clock.tick(t);
                    let write = la.action.is_write();
                    let prev = self.accesses.slot_mut(la.loc, t, write).replace(Access {
                        thread: t,
                        epoch,
                        index,
                    });
                    Undo::Access {
                        thread: t,
                        loc: la.loc,
                        write,
                        prev,
                    }
                }
            },
        };
        self.undo.push(undo);
    }

    /// Rewinds the trace to its first `len` labels.
    pub fn truncate(&mut self, len: usize) {
        while self.undo.len() > len {
            match self.undo.pop().expect("non-empty undo stack") {
                Undo::Tick(t) => self.clocks[t.index()].untick(t),
                Undo::Access {
                    thread,
                    loc,
                    write,
                    prev,
                } => {
                    self.clocks[thread.index()].untick(thread);
                    *self.accesses.slot_mut(loc, thread, write) = prev;
                }
                Undo::Atomic(mark) => {
                    for r in self.trail.drain(mark..).rev() {
                        let clock = match r.clock {
                            ClockId::Thread(t) => &mut self.clocks[t.index()],
                            ClockId::Release(loc) => &mut self.releases[loc.index()],
                        };
                        clock.entries[r.entry] = r.old;
                    }
                }
            }
        }
    }

    /// Appends to `out` a summary that decides every later push and
    /// query: the thread clocks (without trailing all-zero ones), each
    /// atomic location's release clock, and each nonatomic location's
    /// access table row — its accesses as (thread, kind, epoch) and
    /// their order in the trace, but not their trace indices. Two traces
    /// with equal summaries answer every query on every common extension
    /// alike, up to the shift of witness indices, so a replay may skip
    /// the second (see [`TraceVisitor::summary`]).
    ///
    /// The access order must stay in the summary, not only the epochs:
    /// [`HbState::detector_partner`] picks the earliest unordered access
    /// by index, and two reads of a location unordered by happens-before
    /// can come in either order.
    pub fn summary(&self, out: &mut Vec<u64>) {
        let threads = self
            .clocks
            .iter()
            .rposition(|c| c.entries.iter().any(|&e| e != 0))
            .map_or(0, |i| i + 1);
        out.push(threads as u64);
        for clock in &self.clocks[..threads] {
            clock.summary(out);
        }
        for loc in self.locs.iter() {
            if self.locs.kind(loc) == LocKind::Atomic {
                self.releases[loc.index()].summary(out);
                continue;
            }
            // Each access as (thread and kind, epoch, rank in the row by
            // trace index): a row holds at most two accesses per thread,
            // so ranking by counting beats sorting.
            let row = self.accesses.row(loc);
            let count = out.len();
            out.push(0);
            for (t, slot) in row.iter().enumerate() {
                for (write, a) in slot.iter().enumerate() {
                    let Some(a) = a else { continue };
                    let rank = row
                        .iter()
                        .flatten()
                        .flatten()
                        .filter(|b| b.index < a.index)
                        .count();
                    out.extend([(t as u64) << 1 | write as u64, a.epoch, rank as u64]);
                    out[count] += 1;
                }
            }
        }
    }

    /// Definition 10 for `label`, which has not been pushed: the earliest
    /// access of `table` (the current [`HbState::accesses`] or a snapshot
    /// of an earlier prefix) that `label` conflicts with and that does
    /// not happen-before it. `None` for silent and atomic labels.
    pub fn race_in(&self, table: &AccessTable, label: &TransitionLabel) -> Option<Access> {
        let (loc, write) = self.nonatomic_access(label)?;
        let row = table.row(loc);
        let writes = row.iter().filter_map(|slot| slot[1]);
        let reads = row.iter().filter_map(|slot| slot[0]).filter(|_| write);
        self.earliest_unordered(label.thread, writes.chain(reads))
    }

    /// [`HbState::race_in`] against the current trace: does `label` race
    /// with some earlier access?
    pub fn race(&self, label: &TransitionLabel) -> Option<Access> {
        self.race_in(&self.accesses, label)
    }

    /// The [`RaceDetector`]'s partner rule for `label`, which has not
    /// been pushed: among the location's highest-index write and (for a
    /// write) each thread's last read, the earliest one that does not
    /// happen-before `label`. On a race-free trace it is `Some` exactly
    /// when [`HbState::race`] is.
    pub fn detector_partner(&self, label: &TransitionLabel) -> Option<Access> {
        let (loc, write) = self.nonatomic_access(label)?;
        let row = self.accesses.row(loc);
        let last_write = row
            .iter()
            .filter_map(|slot| slot[1])
            .max_by_key(|a| a.index);
        let reads = row.iter().filter_map(|slot| slot[0]).filter(|_| write);
        self.earliest_unordered(label.thread, last_write.into_iter().chain(reads))
    }

    fn nonatomic_access(&self, label: &TransitionLabel) -> Option<(Loc, bool)> {
        let la = label.action?;
        (self.locs.kind(la.loc) == LocKind::Nonatomic).then(|| (la.loc, la.action.is_write()))
    }

    fn earliest_unordered(
        &self,
        t: ThreadId,
        candidates: impl Iterator<Item = Access>,
    ) -> Option<Access> {
        let clock = self.clocks.get(t.index());
        candidates
            .filter(|a| !clock.is_some_and(|c| c.dominates(a.thread, a.epoch)))
            .min_by_key(|a| a.index)
    }
}

/// A data race observed on one explored trace, with its space and time
/// bounds.
///
/// The paper's headline theorem confines the effect of a data race to a
/// bounded set of locations (space) and a bounded window of execution
/// (time). A witness makes both concrete on one trace: the two
/// conflicting accesses, the trace-index window between them (the *time*
/// bound), and the set of locations any transition in that window
/// touches (the *space* bound — the locations whose contents the race
/// can possibly affect on this execution).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RaceWitness {
    /// The trace prefix ending at the second racing access.
    pub trace: Vec<TransitionLabel>,
    /// Index of the first racing access in `trace`.
    pub first: usize,
    /// Index of the second racing access (always `trace.len() - 1`).
    pub second: usize,
    /// The raced nonatomic location.
    pub loc: Loc,
    /// The racing threads, in `(first, second)` order.
    pub threads: (ThreadId, ThreadId),
    /// The racing actions, in `(first, second)` order.
    pub actions: (Action, Action),
    /// The space bound: every location touched by a transition in the
    /// window `[first, second]` (always contains [`RaceWitness::loc`]).
    pub space: BTreeSet<Loc>,
}

impl RaceWitness {
    /// Builds a witness from a trace and the indices of the racing pair,
    /// deriving the space set from the window.
    ///
    /// # Panics
    ///
    /// Panics if the indices do not name conflicting memory transitions.
    pub fn from_pair(trace: &[TransitionLabel], first: usize, second: usize) -> RaceWitness {
        let fa = trace[first].action.expect("racing access has an action");
        let sa = trace[second].action.expect("racing access has an action");
        assert_eq!(fa.loc, sa.loc, "racing accesses share a location");
        let space = trace[first..=second]
            .iter()
            .filter_map(|l| l.action.map(|a| a.loc))
            .collect();
        RaceWitness {
            trace: trace[..=second].to_vec(),
            first,
            second,
            loc: fa.loc,
            threads: (trace[first].thread, trace[second].thread),
            actions: (fa.action, sa.action),
            space,
        }
    }

    /// The time bound: the execution window as trace indices, inclusive
    /// on both ends (both endpoints are the racing accesses).
    pub fn window(&self) -> (usize, usize) {
        (self.first, self.second)
    }

    /// The time bound's width: number of transitions from the first
    /// racing access to the second, inclusive.
    pub fn time_bound(&self) -> usize {
        self.second - self.first + 1
    }

    /// The space bound: locations touched inside the window.
    pub fn space_bound(&self) -> &BTreeSet<Loc> {
        &self.space
    }

    /// Re-checks the witness against the O(n²) reference semantics
    /// ([`crate::trace`]): the pair must be conflicting (Definition 9)
    /// and unordered by happens-before (Definition 10). The clock algebra
    /// is exact, but every consumer that *reports* a witness can afford
    /// this check — the detector, the tests and the shrinker call it on
    /// every witness they surface. A malformed witness (an empty trace,
    /// or indices that do not end it) is `false`, never a panic.
    pub fn validate(&self, locs: &LocSet) -> bool {
        if self.trace.len().checked_sub(1) != Some(self.second) || self.first >= self.second {
            return false;
        }
        let hb = TraceLabels::from_labels(self.trace.clone()).happens_before(locs);
        conflicting(&self.trace[self.first], &self.trace[self.second], locs)
            && !hb.contains(self.first, self.second)
    }

    /// Human rendering: the racing pair with named locations, the
    /// bounds, and the windowed trace fragment.
    pub fn render(&self, locs: &LocSet) -> String {
        let mut out = String::new();
        let name = locs.name(self.loc);
        out.push_str(&format!(
            "race on `{name}`: {} {} at index {} vs {} {} at index {}\n",
            self.threads.0, self.actions.0, self.first, self.threads.1, self.actions.1, self.second,
        ));
        let spaces: Vec<&str> = self.space.iter().map(|l| locs.name(*l)).collect();
        out.push_str(&format!(
            "  time bound: {} transitions (window [{}, {}] of a {}-step trace)\n",
            self.time_bound(),
            self.first,
            self.second,
            self.trace.len(),
        ));
        out.push_str(&format!("  space bound: {{{}}}\n", spaces.join(", ")));
        for (i, l) in self.trace.iter().enumerate() {
            let marker = if i == self.first || i == self.second {
                "*"
            } else if i > self.first {
                "|"
            } else {
                " "
            };
            out.push_str(&format!("  {marker} [{i}] {l}\n"));
        }
        out
    }
}

/// Detector knobs. The detector always explores only sequentially
/// consistent traces (it drops weak transitions), the quantifier of the
/// DRF theorems.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DetectorConfig {
    /// Stop exploring once this many distinct witnesses (deduplicated by
    /// location, thread pair and access kinds) have been collected.
    pub max_witnesses: usize,
}

impl Default for DetectorConfig {
    fn default() -> DetectorConfig {
        DetectorConfig { max_witnesses: 16 }
    }
}

/// The result of one detection run.
#[derive(Clone, Debug, Default)]
pub struct RaceReport {
    /// Distinct witnesses, in discovery (depth-first) order.
    pub witnesses: Vec<RaceWitness>,
    /// Extensions judged: every extension of the explored trace tree
    /// (its throughput denominator). The replayed lane sets it to the
    /// unfolded tree's count, skipped extensions included, so it equals
    /// the live walk's.
    pub events: u64,
    /// The driving exploration's statistics.
    pub stats: ExploreStats,
}

impl RaceReport {
    /// True iff at least one race was observed.
    pub fn racy(&self) -> bool {
        !self.witnesses.is_empty()
    }
}

/// The streaming race detector: flags every trace extension whose last
/// transition races with an earlier one, reports it as a validated
/// [`RaceWitness`] (deduplicated by location, thread pair and access
/// kinds) and prunes the racy branch — every sibling branch is still
/// explored in full. Its partner is [`HbState::detector_partner`].
///
/// It is one [`TraceVisitor`], so it drives a live
/// [`crate::engine::TraceEngine`] or [`crate::engine::DporEngine`] walk
/// and a [`crate::engine::TraceGraph`] replay (zero transition-semantics
/// steps) alike; it also runs over one fixed label sequence
/// ([`RaceDetector::run_linear`]). Take the result with
/// [`RaceDetector::into_report`].
pub struct RaceDetector<'a> {
    hb: HbState<'a>,
    config: DetectorConfig,
    events: u64,
    witnesses: Vec<RaceWitness>,
    seen: BTreeSet<(Loc, ThreadId, ThreadId, bool, bool)>,
}

impl<'a> RaceDetector<'a> {
    /// A fresh detector over the given location table.
    pub fn new(locs: &'a LocSet, config: DetectorConfig) -> RaceDetector<'a> {
        RaceDetector {
            hb: HbState::new(locs),
            config,
            events: 0,
            witnesses: Vec::new(),
            seen: BTreeSet::new(),
        }
    }

    /// Extensions judged so far: on a memoized replay, the work done,
    /// not counting the extensions the memo skipped.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Finishes a run: the collected witnesses plus the driving
    /// exploration's statistics.
    pub fn into_report(self, stats: ExploreStats) -> RaceReport {
        RaceReport {
            witnesses: self.witnesses,
            events: self.events,
            stats,
        }
    }

    /// Applies the extension whose label stack is `trace` (the new event
    /// is the last label), after rewinding to the common prefix, and
    /// returns the engine control verdict.
    fn observe(&mut self, trace: &TraceLabels) -> Control {
        self.hb.truncate(trace.len() - 1);
        debug_assert_eq!(self.hb.len(), trace.len() - 1);
        self.events += 1;
        let label = *trace.labels().last().expect("non-empty trace");
        let partner = self.hb.detector_partner(&label);
        self.hb.push(&label);
        let Some(partner) = partner else {
            return Control::Continue;
        };
        // A racy extension: report (deduplicated) and prune.
        let w = RaceWitness::from_pair(trace.labels(), partner.index, trace.len() - 1);
        let key = (
            w.loc,
            w.threads.0,
            w.threads.1,
            w.actions.0.is_write(),
            w.actions.1.is_write(),
        );
        if self.seen.insert(key) {
            // Every *surfaced* witness is re-checked against the O(n²)
            // reference happens-before, release builds included — a
            // clock-algebra bug must be a loud invariant failure, never
            // a fabricated race report. Bounded by `max_witnesses`, so
            // the quadratic check never touches the hot path.
            assert!(w.validate(self.hb.locs), "clock race not a reference race");
            self.witnesses.push(w);
        }
        if self.witnesses.len() >= self.config.max_witnesses {
            return Control::Stop;
        }
        Control::Prune
    }

    /// Runs the detector over one fixed label sequence (no branching),
    /// skipping its weak transitions, and returns the first witness if
    /// the trace races. Used by the shrinker's candidate checks.
    pub fn run_linear(locs: &LocSet, labels: &[TransitionLabel]) -> Option<RaceWitness> {
        let mut d = RaceDetector::new(locs, DetectorConfig { max_witnesses: 1 });
        let mut trace = TraceLabels::new();
        for l in labels.iter().filter(|l| !l.weak) {
            trace.push(*l);
            if let Control::Stop = d.observe(&trace) {
                break;
            }
        }
        d.witnesses.pop()
    }
}

impl TraceVisitor for RaceDetector<'_> {
    fn step_filter(&mut self, label: &TransitionLabel) -> bool {
        !label.weak
    }

    fn visit(&mut self, trace: &TraceLabels, _step: Step<'_>) -> Control {
        self.observe(trace)
    }

    /// Below an extension, the detector's prunes and witness keys depend
    /// only on the row and [`HbState::summary`]. A later equal visit
    /// finds only keys the first one already inserted, so it adds no
    /// witness and cannot reach the witness cap.
    fn summary(&mut self, trace: &TraceLabels, key: &mut Vec<u64>) -> bool {
        debug_assert_eq!(self.hb.len(), trace.len());
        self.hb.summary(key);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loc::{LabeledAction, Val};

    #[test]
    fn tick_returns_pre_tick_epoch() {
        let mut c = VectorClock::new();
        let t = ThreadId(2);
        assert_eq!(c.tick(t), 0);
        assert_eq!(c.tick(t), 1);
        assert_eq!(c.get(t), 2);
        c.untick(t);
        assert_eq!(c.get(t), 1);
        assert_eq!(c.get(ThreadId(0)), 0);
    }

    #[test]
    fn join_is_pointwise_max() {
        let (t0, t1) = (ThreadId(0), ThreadId(1));
        let mut a = VectorClock::new();
        a.tick(t0);
        a.tick(t0);
        let mut b = VectorClock::new();
        b.tick(t1);
        a.join(&b);
        assert_eq!(a.get(t0), 2);
        assert_eq!(a.get(t1), 1);
    }

    #[test]
    fn dominates_is_strict() {
        let t = ThreadId(0);
        let mut c = VectorClock::new();
        // Nothing happened: epoch 0 is NOT ordered before the start.
        assert!(!c.dominates(t, 0));
        c.tick(t);
        assert!(c.dominates(t, 0));
        assert!(!c.dominates(t, 1));
    }

    fn lbl(thread: u32, loc: Loc, action: Action) -> TransitionLabel {
        TransitionLabel {
            thread: ThreadId(thread),
            action: Some(LabeledAction { loc, action }),
            timestamp: None,
            weak: false,
        }
    }

    #[test]
    fn bounds_and_validation() {
        let mut locs = LocSet::new();
        let a = locs.fresh("a", LocKind::Nonatomic);
        let b = locs.fresh("b", LocKind::Nonatomic);
        let trace = vec![
            lbl(0, a, Action::Write(Val(1))),
            lbl(0, b, Action::Write(Val(1))),
            lbl(1, a, Action::Read(Val(1))),
        ];
        let w = RaceWitness::from_pair(&trace, 0, 2);
        assert_eq!(w.window(), (0, 2));
        assert_eq!(w.time_bound(), 3);
        assert_eq!(
            w.space_bound().iter().copied().collect::<Vec<_>>(),
            vec![a, b]
        );
        assert!(w.validate(&locs));
        let rendered = w.render(&locs);
        assert!(rendered.contains("race on `a`"), "{rendered}");
        assert!(rendered.contains("space bound: {a, b}"), "{rendered}");

        // A happens-before-ordered pair must not validate.
        let same_thread = vec![
            lbl(0, a, Action::Write(Val(1))),
            lbl(0, a, Action::Write(Val(2))),
        ];
        let ordered = RaceWitness::from_pair(&same_thread, 0, 1);
        assert!(!ordered.validate(&locs));
    }

    #[test]
    fn malformed_witness_is_invalid_not_a_panic() {
        let mut locs = LocSet::new();
        let a = locs.fresh("a", LocKind::Nonatomic);
        let trace = vec![
            lbl(0, a, Action::Write(Val(1))),
            lbl(1, a, Action::Write(Val(2))),
        ];
        let mut w = RaceWitness::from_pair(&trace, 0, 1);
        assert!(w.validate(&locs));
        w.trace.clear();
        assert!(!w.validate(&locs));
        w.trace = trace;
        w.second = 5;
        assert!(!w.validate(&locs));
    }

    #[test]
    fn per_thread_writes_keep_races_exact_after_a_race() {
        // P0 and P1 both write `a` unsynchronised (a race), then P1
        // releases F, and P2 acquires it and writes `a`. P2 is ordered
        // after P1's write but not after P0's: a single last write (P1's)
        // would miss that race.
        let mut locs = LocSet::new();
        let a = locs.fresh("a", LocKind::Nonatomic);
        let f = locs.fresh("F", LocKind::Atomic);
        let mut hb = HbState::new(&locs);
        for l in [
            lbl(0, a, Action::Write(Val(1))),
            lbl(1, a, Action::Write(Val(2))),
            lbl(1, f, Action::Write(Val(1))),
            lbl(2, f, Action::Read(Val(1))),
        ] {
            hb.push(&l);
        }
        let p2_write = lbl(2, a, Action::Write(Val(3)));
        assert_eq!(hb.race(&p2_write).map(|r| r.index), Some(0));
        // The detector rule only looks at the highest-index write.
        assert_eq!(hb.detector_partner(&p2_write), None);

        // A snapshot at a prefix boundary answers for that prefix only.
        hb.truncate(0);
        let empty = hb.accesses().clone();
        hb.push(&lbl(0, a, Action::Write(Val(1))));
        let p1_write = lbl(1, a, Action::Write(Val(2)));
        assert_eq!(hb.race(&p1_write).map(|r| r.index), Some(0));
        assert_eq!(hb.race_in(&empty, &p1_write), None);
    }
}
