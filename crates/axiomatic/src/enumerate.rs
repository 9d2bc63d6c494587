//! Enumerating the consistent executions of a program (§6), and reading
//! outcomes off them.
//!
//! [`consistent_executions`] is a pruned backtracking search, in the
//! style of herd and GenMC (Alglave et al., "Herding cats", TOPLAS 2014;
//! Kokologiannakis et al., PLDI 2019). It has four rules:
//!
//! * **Thread alternatives** are chosen thread by thread. A partial
//!   choice is cut as soon as one of its reads returns a value that is
//!   neither the initial value nor written by a chosen alternative or by
//!   some alternative of a thread not yet chosen.
//! * **Inconsistent prefixes** are cut too. A choice for threads `0..k`,
//!   short of the last thread, is checked as a sub-execution: a read
//!   whose (location, value) pair some alternative of a thread `k..`
//!   writes is left *open*, with no rf edge; every other read takes its
//!   source among the chosen threads' writes and the initial writes,
//!   under the rf rule below; co ranges over the po-respecting
//!   interleavings of the chosen threads' writes. If none of these
//!   *prefix candidates* is consistent, the choice is cut. Prefix
//!   candidates are internal: they are not §6 candidates, since open
//!   reads have no source.
//! * **Events** are built only for the locations the chosen alternatives
//!   access. [`ProgramExecution::observation`] reports the initial value
//!   for every other declared location.
//! * **rf and co** choices respect `po`. A co order never reverses two
//!   same-thread writes (CoWW). A read never reads from a po-later write,
//!   from a same-thread write that a po-between write overwrote, or from
//!   the initial write once its own thread has written the location
//!   (Causality and CoWR).
//!
//! Each rule drops only candidates that have no source for some read or
//! break an axiom, and every complete candidate left still goes through
//! [`CandidateExecution::is_consistent`]. So the search finds the
//! consistent executions of the unpruned enumeration, one for one, less
//! the initial writes of locations nothing accesses: the same
//! observations and the same count.
//!
//! The prefix cut is sound because the axioms are monotone. Take a
//! consistent candidate that the rules above leave under a prefix, and
//! restrict it to the prefix's events: keep the rf edges of the reads
//! that are not open and the co edges among the prefix's writes. A read
//! that is not open reads a pair no later thread writes, so its source
//! is in the prefix or initial; the rf and co rules hold of the
//! restriction as they held of the candidate; so the restriction is one
//! of the prefix candidates. Each of its relations (`po`, `rf`, `co`, `hbinit`,
//! and so `fr = rf⁻¹;co`, their atomic parts and `hb`) is a subset of the
//! same relation in the candidate. Causality (acyclic), CoWW and CoWR
//! (irreflexive compositions) hold of every subset of relations they
//! hold of, so the restriction is consistent. A prefix with no
//! consistent prefix candidate therefore has no consistent completion.
//! The check is skipped where it cannot fail (see
//! `AltSearch::cannot_cut`), and a complete choice is not checked as a
//! prefix, since its own candidates are.
//!
//! The top of the search tree is expanded breadth-first until it has
//! enough subtrees to feed the core engine's
//! [`parallel_map_with`], and each subtree is finished depth-first on a
//! worker (a frontier of few subtrees, or of complete choices, stays on
//! the calling thread). The
//! budget, [`EnumLimits::max_candidates`], is one shared
//! atomic counter debited once per search node and once per candidate
//! built, prefix candidates included. The total debit does not depend
//! on how the work is spread, so [`EnumError::TooManyCandidates`]
//! surfaces exactly when a sequential search would surface it.
//!
//! The unpruned enumeration stays, sequential: every combination of
//! thread alternatives, every rf and co choice, events for every
//! declared location. [`consistent_executions_streaming`] is the oracle
//! the differential suites compare the search against;
//! [`for_each_candidate`] feeds the hardware-soundness checkers, which
//! need the inconsistent candidates too.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};

use bdrst_core::engine::parallel_map_with;
use bdrst_core::loc::{Action, Loc, LocSet, Val};
use bdrst_core::relation::Relation;
use bdrst_lang::{Observation, Program};
use bdrst_obs::{counter_add, Counter, Phase};

use crate::event::Event;
use crate::exec::{CandidateExecution, EventSet};
use crate::generate::{generate, GenError, GenLimits, ThreadAlternative};

/// Limits for execution enumeration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EnumLimits {
    /// Generation limits (free-read alternatives, domain fixpoint).
    pub gen: GenLimits,
    /// The enumeration budget. [`consistent_executions`] spends one unit
    /// per search node (a thread alternative tried at some depth) and one
    /// per candidate execution built, prefix candidates included; the
    /// unpruned enumerations, which do not search, spend one per
    /// candidate.
    pub max_candidates: usize,
}

impl Default for EnumLimits {
    fn default() -> EnumLimits {
        EnumLimits {
            gen: GenLimits::default(),
            max_candidates: 10_000_000,
        }
    }
}

/// Errors of execution enumeration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EnumError {
    /// Event-graph generation failed.
    Gen(GenError),
    /// The enumeration spent [`EnumLimits::max_candidates`]: search nodes
    /// plus candidates built for [`consistent_executions`], candidates
    /// for the unpruned enumerations.
    TooManyCandidates,
}

impl fmt::Display for EnumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnumError::Gen(g) => write!(f, "{g}"),
            EnumError::TooManyCandidates => write!(f, "too many candidate executions"),
        }
    }
}

impl std::error::Error for EnumError {}

impl From<GenError> for EnumError {
    fn from(g: GenError) -> EnumError {
        EnumError::Gen(g)
    }
}

/// A consistent execution together with the final register file of every
/// thread (recorded during generation), from which outcomes are read off.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ProgramExecution {
    /// The consistent candidate execution.
    pub exec: CandidateExecution,
    /// Final registers, indexed `[thread][reg]`.
    pub final_regs: Vec<Vec<Val>>,
}

impl ProgramExecution {
    /// The observation of this execution: final registers plus the
    /// co-maximal write value per location. A location without events
    /// (the search builds none for locations nothing accesses) keeps its
    /// initial value.
    pub fn observation(&self) -> Observation {
        let base = &self.exec.base;
        let memory = base
            .locs
            .iter()
            .map(|l| {
                let ws = base.writes_to(l);
                ws.iter()
                    .copied()
                    .find(|&w| ws.iter().all(|&x| x == w || self.exec.co.contains(x, w)))
                    .map_or(Val::INIT, |w| base.events[w].value())
            })
            .collect();
        Observation {
            regs: self.final_regs.clone(),
            memory,
        }
    }
}

/// Enumerates every *candidate* execution of `program` (well-formed rf/co
/// choices over every generated event graph), consistent or not, invoking
/// `visit` on each. The hardware-soundness checkers use this to test the
/// compilation theorems on inconsistent candidates too.
///
/// # Errors
///
/// Returns [`EnumError`] on generation failure or combinatorial blow-up.
pub fn for_each_candidate(
    program: &Program,
    limits: EnumLimits,
    mut visit: impl FnMut(&ProgramExecution),
) -> Result<(), EnumError> {
    let generated = generate(program, limits.gen)?;
    let budget = AtomicUsize::new(limits.max_candidates);
    stream_candidates(
        program,
        &generated.per_thread,
        &mut |pe| {
            visit(pe);
            ControlFlow::Continue(())
        },
        &budget,
    )
}

/// Streams every alternative combination through the unpruned odometer,
/// invoking `visit` per candidate — the sequential backend shared by
/// [`for_each_candidate`] and [`consistent_executions_streaming`].
fn stream_candidates(
    program: &Program,
    per_thread: &[Vec<ThreadAlternative>],
    visit: &mut impl FnMut(&ProgramExecution) -> ControlFlow<()>,
    budget: &AtomicUsize,
) -> Result<(), EnumError> {
    let mut choice = vec![0usize; per_thread.len()];
    loop {
        let alts: Vec<&ThreadAlternative> = choice
            .iter()
            .zip(per_thread)
            .map(|(&c, alts)| &alts[c])
            .collect();
        if let Some(e) = AltEnumeration::new(&program.locs, &alts, Rules::Unpruned) {
            e.run(visit, budget)?;
        }
        if !advance(&mut choice, |i| per_thread[i].len()) {
            return Ok(());
        }
    }
}

/// The search expands its tree breadth-first until the frontier holds at
/// least this many subtrees, then hands them to the worker pool.
const SHARD_TARGET: usize = 64;

/// A frontier smaller than this is finished on the calling thread, and
/// so is a frontier of complete choices, whose subtrees are single rf/co
/// odometers of a few microseconds each. Timed alone on a 2-core host,
/// every benchmark family took longer on two workers than on one, and
/// every one of them ends its breadth-first phase at complete choices:
/// from 0.07 to 0.11 ms on sb-4 (16 subtrees), from 0.47 to 0.57 ms on
/// sb-at-6x1 (64) and from 1.5 to 1.7 ms on iriw-at-4 (256). Searches
/// whose frontier stops short of the last thread gained: sb-at-5x2 (81
/// subtrees) went from 3.4 to 2.1 ms, mp-2x3 (200) from 2.2 to 1.4 ms and
/// sb-at-8x1 (64) from 3.8 to 2.7 ms. A program with few combinations and
/// a large rf/co space runs on one thread; the rf/co level is not split.
const MIN_SHARDS: usize = 32;

/// Enumerates every *consistent* execution of `program` by the pruned
/// search described in the [module docs](self), spread over the core
/// engine's [`parallel_map_with`]. Its executions have initial
/// writes only for accessed locations; otherwise they, and their count,
/// equal those of [`consistent_executions_streaming`] (the `Vec` order
/// may differ).
///
/// # Errors
///
/// Returns [`EnumError`] on generation failure or when the search spends
/// its budget.
pub fn consistent_executions(
    program: &Program,
    limits: EnumLimits,
) -> Result<Vec<ProgramExecution>, EnumError> {
    let generated = generate(program, limits.gen)?;
    let search = AltSearch::new(&program.locs, &generated.per_thread);
    let budget = AtomicUsize::new(limits.max_candidates);
    let mut frontier: Vec<Vec<usize>> = vec![Vec::new()];
    let mut depth = 0;
    while depth < generated.per_thread.len() && frontier.len() < SHARD_TARGET {
        let mut next = Vec::new();
        for prefix in &frontier {
            for a in search.children(prefix, &budget)? {
                let mut child = prefix.clone();
                child.push(a);
                next.push(child);
            }
        }
        frontier = next;
        depth += 1;
    }
    let complete = depth == generated.per_thread.len();
    let workers = if complete || frontier.len() < MIN_SHARDS {
        1
    } else {
        0
    };
    let shards = parallel_map_with(&frontier, workers, |prefix| -> Result<_, EnumError> {
        let mut found = Vec::new();
        search.descend(&mut prefix.clone(), &budget, &mut |choice| {
            let alts = search.alternatives(choice);
            match AltEnumeration::new(&program.locs, &alts, Rules::Pruned(&|_| false)) {
                None => Ok(()),
                Some(e) => e.run(&mut keep_consistent(&mut found), &budget).map(drop),
            }
        })?;
        Ok(found)
    });
    let mut out = Vec::new();
    for shard in shards {
        out.extend(shard?);
    }
    counter_add(Counter::AxiomaticConsistent, out.len() as u64);
    Ok(out)
}

/// The fully sequential, unpruned enumeration of every consistent
/// execution: one thread, one odometer, combinations in odometer order.
/// This is the oracle the differential suites compare
/// [`consistent_executions`] against.
///
/// # Errors
///
/// Returns [`EnumError`] on generation failure or when the candidates
/// exceed the budget.
pub fn consistent_executions_streaming(
    program: &Program,
    limits: EnumLimits,
) -> Result<Vec<ProgramExecution>, EnumError> {
    let generated = generate(program, limits.gen)?;
    let budget = AtomicUsize::new(limits.max_candidates);
    let mut out = Vec::new();
    stream_candidates(
        program,
        &generated.per_thread,
        &mut keep_consistent(&mut out),
        &budget,
    )?;
    Ok(out)
}

/// A candidate visitor that keeps a copy of each consistent candidate.
fn keep_consistent(
    out: &mut Vec<ProgramExecution>,
) -> impl FnMut(&ProgramExecution) -> ControlFlow<()> + '_ {
    |pe| {
        if pe.exec.is_consistent() {
            out.push(pe.clone());
        }
        ControlFlow::Continue(())
    }
}

/// Takes one unit of the shared budget. Saturating: the counter never
/// wraps below zero, even when several shards exhaust it at once.
fn debit(budget: &AtomicUsize) -> Result<(), EnumError> {
    budget
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
        .map(|_| ())
        .map_err(|_| EnumError::TooManyCandidates)
}

/// A bit set: of (location, value) pair ids, or of location indices.
type BitSet = Vec<u64>;

fn bit_set(words: usize, ids: impl IntoIterator<Item = usize>) -> BitSet {
    let mut set = vec![0; words];
    for id in ids {
        set[id / 64] |= 1 << (id % 64);
    }
    set
}

fn has(set: &[u64], id: usize) -> bool {
    set[id / 64] & (1 << (id % 64)) != 0
}

fn union_into(into: &mut BitSet, other: &BitSet) {
    for (a, b) in into.iter_mut().zip(other) {
        *a |= b;
    }
}

/// What the search needs to know of one thread alternative. Pairs are
/// the dense ids of the (location, value) pairs some alternative writes.
struct AltFacts {
    /// The pairs it writes.
    writes: BitSet,
    reads: Vec<ReadFacts>,
    /// The locations it accesses, and those it writes.
    accessed: BitSet,
    written: BitSet,
    /// The pairs whose last write here is followed by a write of another
    /// value to the same location.
    overwritten: BitSet,
}

/// What the search needs to know of one read of an alternative.
struct ReadFacts {
    loc: Loc,
    /// Whether it reads the initial value.
    initial: bool,
    /// Its pair, if some alternative writes it.
    pair: Option<usize>,
    /// Whether its value is that of its local source: the last po-earlier
    /// write to its location, or else the initial write.
    local: bool,
}

impl AltFacts {
    fn new(alt: &ThreadAlternative, ids: &HashMap<(Loc, Val), usize>, locs: usize) -> AltFacts {
        let pair_words = ids.len().div_ceil(64);
        // The value of the last write to each location so far.
        let mut last: HashMap<Loc, Val> = HashMap::new();
        let mut reads = Vec::new();
        for &(l, a) in &alt.actions {
            match a {
                Action::Read(v) => reads.push(ReadFacts {
                    loc: l,
                    initial: v == Val::INIT,
                    pair: ids.get(&(l, v)).copied(),
                    local: v == last.get(&l).copied().unwrap_or(Val::INIT),
                }),
                Action::Write(v) => {
                    last.insert(l, v);
                }
            }
        }
        let writes = bit_set(
            pair_words,
            alt.actions.iter().filter_map(|&(l, a)| match a {
                Action::Write(v) => Some(ids[&(l, v)]),
                Action::Read(_) => None,
            }),
        );
        // A pair's last write is followed by another write to its
        // location iff the location's last write is of another pair.
        let finals = bit_set(pair_words, last.iter().map(|(&l, &v)| ids[&(l, v)]));
        let overwritten = writes.iter().zip(&finals).map(|(w, f)| w & !f).collect();
        let locations = |writes_only: bool| {
            bit_set(
                locs.div_ceil(64),
                alt.actions
                    .iter()
                    .filter(|(_, a)| !writes_only || a.is_write())
                    .map(|(l, _)| l.index()),
            )
        };
        AltFacts {
            writes,
            reads,
            accessed: locations(false),
            written: locations(true),
            overwritten,
        }
    }
}

/// The thread-alternative search tree. A node at depth `k` fixes the
/// alternatives of threads `0..k`; a leaf fixes them all. The (location,
/// value) pairs that some alternative writes are numbered densely, so
/// the feasibility cut works on bit sets.
struct AltSearch<'a> {
    locs: &'a LocSet,
    per_thread: &'a [Vec<ThreadAlternative>],
    /// The id of every pair some alternative writes.
    ids: HashMap<(Loc, Val), usize>,
    /// Per thread and alternative: its facts.
    facts: Vec<Vec<AltFacts>>,
    /// `writable_from[k]`: the pairs some alternative of a thread `k..`
    /// writes.
    writable_from: Vec<BitSet>,
}

impl<'a> AltSearch<'a> {
    fn new(locs: &'a LocSet, per_thread: &'a [Vec<ThreadAlternative>]) -> AltSearch<'a> {
        let mut ids: HashMap<(Loc, Val), usize> = HashMap::new();
        for (l, a) in per_thread.iter().flatten().flat_map(|alt| &alt.actions) {
            if let Action::Write(v) = a {
                let next = ids.len();
                ids.entry((*l, *v)).or_insert(next);
            }
        }
        let facts: Vec<Vec<AltFacts>> = per_thread
            .iter()
            .map(|alts| {
                alts.iter()
                    .map(|alt| AltFacts::new(alt, &ids, locs.len()))
                    .collect()
            })
            .collect();
        let mut writable_from = vec![vec![0; ids.len().div_ceil(64)]; per_thread.len() + 1];
        for t in (0..per_thread.len()).rev() {
            let mut later = writable_from[t + 1].clone();
            for f in &facts[t] {
                union_into(&mut later, &f.writes);
            }
            writable_from[t] = later;
        }
        AltSearch {
            locs,
            per_thread,
            ids,
            facts,
            writable_from,
        }
    }

    /// The chosen alternatives of `choice`.
    fn alternatives(&self, choice: &[usize]) -> Vec<&'a ThreadAlternative> {
        choice
            .iter()
            .zip(self.per_thread)
            .map(|(&c, alts)| &alts[c])
            .collect()
    }

    /// The alternatives of the next thread that keep `prefix` feasible
    /// and consistent. Every alternative tried is one search node: it is
    /// debited from `budget` and counted in [`Counter::AxiomaticNodes`].
    fn children(&self, prefix: &[usize], budget: &AtomicUsize) -> Result<Vec<usize>, EnumError> {
        let thread = prefix.len();
        let mut kept = Vec::new();
        for a in 0..self.per_thread[thread].len() {
            debit(budget)?;
            counter_add(Counter::AxiomaticNodes, 1);
            if self.feasible(prefix, a) && self.prefix_consistent(prefix, a, budget)? {
                kept.push(a);
            }
        }
        Ok(kept)
    }

    /// False if some read of `prefix` extended by alternative `a` of the
    /// next thread returns a value that is not the initial value and that
    /// neither a chosen alternative nor any alternative of a later thread
    /// writes.
    fn feasible(&self, prefix: &[usize], a: usize) -> bool {
        let chosen: Vec<(usize, usize)> = prefix.iter().copied().chain([a]).enumerate().collect();
        let mut available = self.writable_from[chosen.len()].clone();
        for &(t, i) in &chosen {
            union_into(&mut available, &self.facts[t][i].writes);
        }
        chosen
            .iter()
            .flat_map(|&(t, i)| &self.facts[t][i].reads)
            .all(|r| r.initial || r.pair.is_some_and(|id| has(&available, id)))
    }

    /// False if no prefix candidate of `prefix` extended by alternative
    /// `a` of the next thread is consistent (see the module docs). Each
    /// prefix candidate built is debited from `budget`. A complete choice
    /// is not checked here, since its own candidates are, and neither is
    /// an extension that [`AltSearch::cannot_cut`] clears.
    fn prefix_consistent(
        &self,
        prefix: &[usize],
        a: usize,
        budget: &AtomicUsize,
    ) -> Result<bool, EnumError> {
        let mut choice = prefix.to_vec();
        choice.push(a);
        if choice.len() == self.per_thread.len() {
            return Ok(true);
        }
        if self.cannot_cut(prefix, a) {
            debug_assert_eq!(
                self.some_prefix_candidate_consistent(&choice, &AtomicUsize::new(usize::MAX)),
                Ok(true),
                "a cleared prefix check fails on {choice:?}"
            );
            return Ok(true);
        }
        self.some_prefix_candidate_consistent(&choice, budget)
    }

    /// Builds the prefix candidates of `choice` until one is consistent.
    fn some_prefix_candidate_consistent(
        &self,
        choice: &[usize],
        budget: &AtomicUsize,
    ) -> Result<bool, EnumError> {
        let later = &self.writable_from[choice.len()];
        let open = |e: &Event| {
            self.ids
                .get(&(e.loc, e.value()))
                .is_some_and(|&id| has(later, id))
        };
        let Some(e) =
            AltEnumeration::new(self.locs, &self.alternatives(choice), Rules::Pruned(&open))
        else {
            return Ok(false);
        };
        e.run(
            &mut |pe| {
                if pe.exec.is_consistent() {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
            budget,
        )
    }

    /// True if the prefix check of `prefix` extended by alternative `a`
    /// of the next thread `t` cannot fail, given that the check of
    /// `prefix` passed or was cleared. That holds when `t` accesses no
    /// location an earlier thread writes, every read of `t` that gets an
    /// rf edge can read its local source, every earlier read that the
    /// choice of `t` closes can read a write of `t`, and the edges
    /// between `t` and the earlier threads then all point one way: rf
    /// from `t` to the reads it closes, or fr from earlier reads to the
    /// writes of `t`. Take a consistent prefix candidate of `prefix` and
    /// add `t`: each read of `t` reads its local source, and each earlier
    /// read it closes reads the last write of its pair in `t`. No earlier
    /// thread writes where `t` does, so co gains no edge between the
    /// two. The result is a prefix candidate with no cycle across the
    /// two parts and no `hb` path that leaves one part and returns, so
    /// it is consistent.
    fn cannot_cut(&self, prefix: &[usize], a: usize) -> bool {
        let chosen = prefix.len() + 1;
        let new = &self.facts[chosen - 1][a];
        let (was_open, open) = (&self.writable_from[chosen - 1], &self.writable_from[chosen]);
        let own_reads_local = new
            .reads
            .iter()
            .all(|r| r.local || r.pair.is_some_and(|id| has(open, id)));
        let earlier: Vec<&AltFacts> = prefix
            .iter()
            .enumerate()
            .map(|(t, &i)| &self.facts[t][i])
            .collect();
        let disjoint = earlier.iter().all(|f| {
            f.written
                .iter()
                .zip(&new.accessed)
                .all(|(w, acc)| w & acc == 0)
        });
        if !own_reads_local || !disjoint {
            return false;
        }
        // `rf_out`: an rf edge from `t` to an earlier read; `fr_in`: an fr
        // edge from an earlier read to a write of `t`.
        let (mut rf_out, mut fr_in) = (false, false);
        for r in earlier.iter().flat_map(|f| &f.reads) {
            match r.pair.filter(|&id| has(was_open, id)) {
                // Closed before `t`: it reads the initial write, which
                // every write of `t` to its location follows in co.
                None => fr_in |= has(&new.written, r.loc.index()),
                Some(id) if has(open, id) => {}
                Some(id) => {
                    if !has(&new.writes, id) {
                        return false;
                    }
                    rf_out = true;
                    fr_in |= has(&new.overwritten, id);
                }
            }
        }
        !(rf_out && fr_in)
    }

    /// Finishes the subtree under `prefix` depth-first, calling `leaf` on
    /// every complete choice.
    fn descend(
        &self,
        prefix: &mut Vec<usize>,
        budget: &AtomicUsize,
        leaf: &mut impl FnMut(&[usize]) -> Result<(), EnumError>,
    ) -> Result<(), EnumError> {
        if prefix.len() == self.per_thread.len() {
            return leaf(prefix);
        }
        for a in self.children(prefix, budget)? {
            prefix.push(a);
            self.descend(prefix, budget, leaf)?;
            prefix.pop();
        }
        Ok(())
    }
}

/// Which rf and co choices [`AltEnumeration::new`] offers.
#[derive(Clone, Copy)]
enum Rules<'a> {
    /// Every same-location choice, over events for every declared
    /// location.
    Unpruned,
    /// Choices that respect `po` (see the module docs), over events for
    /// the accessed locations only. The reads the predicate marks open
    /// get no rf edge: their sub-candidates are prefix candidates, not
    /// §6 candidates.
    Pruned(&'a dyn Fn(&Event) -> bool),
}

/// The rf/co candidates of one thread-alternative combination: the base
/// event set, the rf source candidates per read, the co orders per
/// location and the final register files. The odometer over them turns
/// in [`AltEnumeration::run`].
struct AltEnumeration {
    base: EventSet,
    final_regs: Vec<Vec<Val>>,
    /// The reads that get an rf edge: all of them, except the open reads
    /// of a prefix candidate.
    reads: Vec<usize>,
    rf_choices: Vec<Vec<usize>>,
    /// Per location with an initial write: that write and the orders of
    /// the location's other writes, which all follow it in co.
    co_choices: Vec<(usize, Vec<Vec<usize>>)>,
}

impl AltEnumeration {
    /// Builds the candidates of one combination under `rules`; `None` if
    /// some read that is not open has no source (the combination
    /// contributes no candidates).
    fn new(locs: &LocSet, alts: &[&ThreadAlternative], rules: Rules) -> Option<AltEnumeration> {
        let per_thread = alts.iter().map(|a| a.actions.clone()).collect();
        let (base, pruned) = match rules {
            Rules::Unpruned => (EventSet::new(locs.clone(), per_thread), false),
            Rules::Pruned(_) => (EventSet::accessed(locs.clone(), per_thread), true),
        };
        let ev = &base.events;

        // rf candidates per read: same-location same-value writes.
        let reads: Vec<usize> = match rules {
            Rules::Unpruned => base.reads(),
            Rules::Pruned(open) => base.indices(|e| e.is_read() && !open(e)),
        };
        let mut rf_choices: Vec<Vec<usize>> = Vec::with_capacity(reads.len());
        for &r in &reads {
            let local = pruned.then(|| local_source(&base, r));
            let sources: Vec<usize> = base
                .writes_to(ev[r].loc)
                .into_iter()
                .filter(|&w| ev[w].value() == ev[r].value())
                .filter(|&w| match local {
                    // A read of its own thread's writes, or of the
                    // initial write, may only see the latest one.
                    Some(l) if ev[w].is_init() || ev[w].thread() == ev[r].thread() => w == l,
                    _ => true,
                })
                .collect();
            if sources.is_empty() {
                return None;
            }
            rf_choices.push(sources);
        }

        // co candidates per location: orders of the non-initial writes,
        // with the initial write first (any other placement violates
        // CoWW, since initial writes happen-before everything). Pruned,
        // only orders that keep each thread's writes in po order.
        let co_choices = ev
            .iter()
            .enumerate()
            .take_while(|(_, e)| e.is_init())
            .map(|(init, e)| {
                let ws: Vec<usize> = base
                    .writes_to(e.loc)
                    .into_iter()
                    .filter(|&w| w != init)
                    .collect();
                let orders = if pruned {
                    let chains: Vec<Vec<usize>> = ws
                        .chunk_by(|&a, &b| ev[a].thread() == ev[b].thread())
                        .map(<[usize]>::to_vec)
                        .collect();
                    interleavings(&chains)
                } else {
                    permutations(&ws)
                };
                (init, orders)
            })
            .collect();
        Some(AltEnumeration {
            final_regs: alts.iter().map(|a| a.final_regs.clone()).collect(),
            base,
            reads,
            rf_choices,
            co_choices,
        })
    }

    /// Turns the rf/co odometer, invoking `visit` per candidate until it
    /// breaks, and debiting the shared `budget` once per candidate. The
    /// candidates share one event set; a visitor that keeps one clones
    /// it. Returns whether `visit` broke.
    fn run(
        self,
        visit: &mut impl FnMut(&ProgramExecution) -> ControlFlow<()>,
        budget: &AtomicUsize,
    ) -> Result<bool, EnumError> {
        let n = self.base.len();
        let mut pe = ProgramExecution {
            exec: CandidateExecution {
                base: self.base,
                rf: Relation::new(n),
                co: Relation::new(n),
            },
            final_regs: self.final_regs,
        };
        let mut rf_idx = vec![0usize; self.rf_choices.len()];
        loop {
            let mut co_idx = vec![0usize; self.co_choices.len()];
            loop {
                debit(budget)?;
                let mut rf = Relation::new(n);
                for (k, &r) in self.reads.iter().enumerate() {
                    rf.insert(self.rf_choices[k][rf_idx[k]], r);
                }
                let mut co = Relation::new(n);
                for ((init, orders), &i) in self.co_choices.iter().zip(&co_idx) {
                    let order = &orders[i];
                    for (x, &a) in order.iter().enumerate() {
                        co.insert(*init, a);
                        for &b in &order[x + 1..] {
                            co.insert(a, b);
                        }
                    }
                }
                pe.exec.rf = rf;
                pe.exec.co = co;
                // A prefix candidate leaves its open reads without a source.
                debug_assert!(
                    self.reads.len() < pe.exec.base.reads().len() || pe.exec.validate().is_ok(),
                    "{:?}",
                    pe.exec.validate()
                );
                if visit(&pe).is_break() {
                    return Ok(true);
                }

                if !advance(&mut co_idx, |i| self.co_choices[i].1.len()) {
                    break;
                }
            }
            if !advance(&mut rf_idx, |i| self.rf_choices[i].len()) {
                return Ok(false);
            }
        }
    }
}

/// The write a read `r` sees without communication: the last po-earlier
/// write of its own thread to its location, or, if there is none, the
/// location's initial write.
fn local_source(base: &EventSet, r: usize) -> usize {
    let er = base.events[r];
    (0..r)
        .rev()
        .map_while(|i| (base.events[i].thread() == er.thread()).then_some(i))
        .find(|&i| base.events[i].is_write() && base.events[i].loc == er.loc)
        .or_else(|| {
            base.events
                .iter()
                .position(|e| e.is_init() && e.loc == er.loc)
        })
        .expect("an accessed location has an initial write")
}

/// Odometer increment; returns false when the odometer wraps to all-zero.
fn advance(idx: &mut [usize], len_of: impl Fn(usize) -> usize) -> bool {
    for (i, slot) in idx.iter_mut().enumerate() {
        *slot += 1;
        if *slot < len_of(i) {
            return true;
        }
        *slot = 0;
    }
    false
}

/// Every merge of `chains` that keeps each chain's order.
fn interleavings(chains: &[Vec<usize>]) -> Vec<Vec<usize>> {
    fn extend(
        chains: &[Vec<usize>],
        next: &mut [usize],
        order: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        let mut done = true;
        for c in 0..chains.len() {
            if let Some(&w) = chains[c].get(next[c]) {
                done = false;
                order.push(w);
                next[c] += 1;
                extend(chains, next, order, out);
                next[c] -= 1;
                order.pop();
            }
        }
        if done {
            out.push(order.clone());
        }
    }
    let mut out = Vec::new();
    extend(
        chains,
        &mut vec![0; chains.len()],
        &mut Vec::new(),
        &mut out,
    );
    out
}

/// All permutations of a slice (n! of them; litmus write counts are tiny).
fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
    let singletons: Vec<Vec<usize>> = items.iter().map(|&w| vec![w]).collect();
    interleavings(&singletons)
}

/// The observation set of a program under the axiomatic semantics.
///
/// # Errors
///
/// Returns [`EnumError`] on generation failure or blow-up.
pub fn axiomatic_outcomes(
    program: &Program,
    limits: EnumLimits,
) -> Result<BTreeSet<Observation>, EnumError> {
    let mut span = bdrst_obs::span(Phase::Axiomatic);
    let execs = consistent_executions(program, limits)?;
    span.set_arg(execs.len() as u64);
    Ok(execs.iter().map(ProgramExecution::observation).collect())
}

/// Convenience: true if some consistent execution's observation satisfies
/// the predicate (used pervasively by the litmus runner).
///
/// # Errors
///
/// Returns [`EnumError`] on generation failure or blow-up.
pub fn observable(
    program: &Program,
    limits: EnumLimits,
    mut pred: impl FnMut(&Observation) -> bool,
) -> Result<bool, EnumError> {
    Ok(axiomatic_outcomes(program, limits)?.iter().any(&mut pred))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdrst_core::loc::LocKind;

    fn outcomes(src: &str) -> BTreeSet<Observation> {
        let p = Program::parse(src).unwrap();
        axiomatic_outcomes(&p, EnumLimits::default()).unwrap()
    }

    fn reg(p: &Program, o: &Observation, thread: &str, r: &str) -> i64 {
        let ti = p.thread_by_name(thread).unwrap();
        let ri = p.threads[ti].reg_by_name(r).unwrap();
        o.reg(ti, ri).unwrap().0
    }

    #[test]
    fn store_buffering_allows_all_four() {
        let src = "nonatomic a b;
             thread P0 { a = 1; r0 = b; }
             thread P1 { b = 1; r1 = a; }";
        let p = Program::parse(src).unwrap();
        let os = outcomes(src);
        let pairs: BTreeSet<(i64, i64)> = os
            .iter()
            .map(|o| (reg(&p, o, "P0", "r0"), reg(&p, o, "P1", "r1")))
            .collect();
        assert_eq!(pairs.len(), 4);
    }

    #[test]
    fn message_passing_forbidden_outcome_absent() {
        let src = "nonatomic a; atomic f;
             thread P0 { a = 1; f = 1; }
             thread P1 { r0 = f; r1 = a; }";
        let p = Program::parse(src).unwrap();
        let os = outcomes(src);
        assert!(os
            .iter()
            .all(|o| !(reg(&p, o, "P1", "r0") == 1 && reg(&p, o, "P1", "r1") == 0)));
        // But the other three outcomes exist.
        assert!(os.len() >= 3);
    }

    #[test]
    fn load_buffering_forbidden() {
        // LB: r0 = a; b = 1 || r1 = b; a = 1 — the model bans load
        // buffering (poRW is preserved), so r0 = r1 = 1 is impossible.
        let src = "nonatomic a b;
             thread P0 { r0 = a; b = 1; }
             thread P1 { r1 = b; a = 1; }";
        let p = Program::parse(src).unwrap();
        let os = outcomes(src);
        assert!(os
            .iter()
            .all(|o| !(reg(&p, o, "P0", "r0") == 1 && reg(&p, o, "P1", "r1") == 1)));
    }

    #[test]
    fn coherence_single_thread() {
        // a = 1; a = 2; r = a must read 2.
        let src = "nonatomic a; thread P0 { a = 1; a = 2; r0 = a; }";
        let p = Program::parse(src).unwrap();
        let os = outcomes(src);
        assert_eq!(os.len(), 1);
        assert!(os.iter().all(|o| reg(&p, o, "P0", "r0") == 2));
    }

    #[test]
    fn final_memory_is_co_maximal() {
        let src = "nonatomic a; thread P0 { a = 1; } thread P1 { a = 2; }";
        let p = Program::parse(src).unwrap();
        let a = p.locs.by_name("a").unwrap();
        assert_eq!(p.locs.kind(a), LocKind::Nonatomic);
        let finals: BTreeSet<i64> = outcomes(src)
            .iter()
            .map(|o| o.memory(a).unwrap().0)
            .collect();
        assert_eq!(finals, [1, 2].into_iter().collect());
    }

    #[test]
    fn sharded_enumeration_matches_streaming() {
        // The pruned search against the unpruned oracle.
        for src in [
            "nonatomic a b;
             thread P0 { a = 1; r0 = b; }
             thread P1 { b = 1; r1 = a; }",
            "nonatomic a; atomic f;
             thread P0 { a = 1; f = 1; }
             thread P1 { r0 = f; r1 = a; }",
            "nonatomic a; thread P0 { a = 1; } thread P1 { a = 2; }",
            "nonatomic a; thread P0 { a = 1; a = 2; r0 = a; }",
        ] {
            let p = Program::parse(src).unwrap();
            let sharded: BTreeSet<Observation> = consistent_executions(&p, EnumLimits::default())
                .unwrap()
                .iter()
                .map(ProgramExecution::observation)
                .collect();
            let streaming: BTreeSet<Observation> =
                consistent_executions_streaming(&p, EnumLimits::default())
                    .unwrap()
                    .iter()
                    .map(ProgramExecution::observation)
                    .collect();
            assert_eq!(sharded, streaming, "diverged on {src}");
            // Not just observations: the execution count must also match
            // (no consistent candidate pruned or found twice).
            assert_eq!(
                consistent_executions(&p, EnumLimits::default())
                    .unwrap()
                    .len(),
                consistent_executions_streaming(&p, EnumLimits::default())
                    .unwrap()
                    .len(),
                "execution counts diverged on {src}"
            );
        }
    }

    #[test]
    fn sharded_budget_matches_streaming_budget() {
        // A budget below the candidate count must trip both paths — the
        // sharded enumeration shares one counter, it never splits it.
        let src = "nonatomic a b;
             thread P0 { a = 1; r0 = b; }
             thread P1 { b = 1; r1 = a; }";
        let p = Program::parse(src).unwrap();
        let tight = EnumLimits {
            max_candidates: 3,
            ..EnumLimits::default()
        };
        assert_eq!(
            consistent_executions_streaming(&p, tight),
            Err(EnumError::TooManyCandidates)
        );
        assert_eq!(
            consistent_executions(&p, tight),
            Err(EnumError::TooManyCandidates)
        );
    }

    #[test]
    fn permutations_count() {
        assert_eq!(permutations(&[]).len(), 1);
        assert_eq!(permutations(&[1]).len(), 1);
        assert_eq!(permutations(&[1, 2, 3]).len(), 6);
    }
}
