//! Candidate and consistent executions (§6), the happens-before
//! decomposition (Theorem 17) and the alternative consistency
//! characterisation (Theorem 18).

use std::fmt;

use bdrst_core::loc::{Action, Loc, LocKind, LocSet};
use bdrst_core::machine::ThreadId;
use bdrst_core::relation::Relation;

use crate::event::{Event, EventId};

/// An event set with its program order: the `G` of the paper together with
/// the structural `po` relation. Initial writes come first, in location
/// order (built by [`EventSet::new`], they occupy indices
/// `0..locs.len()`); thread events follow in thread order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EventSet {
    /// The declared locations (fixes atomic vs nonatomic).
    pub locs: LocSet,
    /// All events; `events[i]` has index `i` in every relation.
    pub events: Vec<Event>,
    /// Program order: `(i₁,n₁) po (i₂,n₂)` iff `i₁ = i₂ ∧ n₁ < n₂`.
    pub po: Relation,
}

impl EventSet {
    /// Builds the event set for per-thread action sequences, adding the
    /// initial write `IWℓ` for every declared location (the `G₀` of §6).
    pub fn new(locs: LocSet, per_thread: Vec<Vec<(Loc, Action)>>) -> EventSet {
        let inits: Vec<Loc> = locs.iter().collect();
        EventSet::with_initial_writes(locs, &inits, per_thread)
    }

    /// Like [`EventSet::new`], but with initial writes only for the
    /// locations some action accesses. A location no event touches has
    /// no communication, so leaving out its initial write changes no
    /// axiom's verdict.
    pub(crate) fn accessed(locs: LocSet, per_thread: Vec<Vec<(Loc, Action)>>) -> EventSet {
        let mut accessed = vec![false; locs.len()];
        for &(l, _) in per_thread.iter().flatten() {
            accessed[l.index()] = true;
        }
        let inits: Vec<Loc> = locs.iter().filter(|l| accessed[l.index()]).collect();
        EventSet::with_initial_writes(locs, &inits, per_thread)
    }

    fn with_initial_writes(
        locs: LocSet,
        inits: &[Loc],
        per_thread: Vec<Vec<(Loc, Action)>>,
    ) -> EventSet {
        let mut events: Vec<Event> = inits.iter().copied().map(Event::initial).collect();
        let mut thread_indices: Vec<Vec<usize>> = Vec::new();
        for (ti, actions) in per_thread.into_iter().enumerate() {
            let mut indices = Vec::new();
            for (n, (loc, action)) in actions.into_iter().enumerate() {
                indices.push(events.len());
                events.push(Event {
                    id: EventId::Thread(ThreadId(ti as u32), n as u32),
                    loc,
                    action,
                });
            }
            thread_indices.push(indices);
        }
        let mut po = Relation::new(events.len());
        for indices in &thread_indices {
            for (a, &ea) in indices.iter().enumerate() {
                for &eb in &indices[a + 1..] {
                    po.insert(ea, eb);
                }
            }
        }
        EventSet { locs, events, po }
    }

    /// Number of events (including initial writes).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if there are no events at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Indices of all read events.
    pub fn reads(&self) -> Vec<usize> {
        self.indices(|e| e.is_read())
    }

    /// Indices of all write events (including initial writes).
    pub fn writes(&self) -> Vec<usize> {
        self.indices(|e| e.is_write())
    }

    /// Indices of write events to `loc` (including its initial write).
    pub fn writes_to(&self, loc: Loc) -> Vec<usize> {
        self.indices(|e| e.is_write() && e.loc == loc)
    }

    /// Indices of events satisfying a predicate.
    pub fn indices(&self, mut pred: impl FnMut(&Event) -> bool) -> Vec<usize> {
        self.events
            .iter()
            .enumerate()
            .filter_map(|(i, e)| pred(e).then_some(i))
            .collect()
    }

    /// True if the event at `i` is on an atomic location.
    pub fn is_atomic(&self, i: usize) -> bool {
        self.locs.kind(self.events[i].loc) == LocKind::Atomic
    }
}

/// A candidate execution `(G, po, rf, co)` (§6).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CandidateExecution {
    /// The event set and program order.
    pub base: EventSet,
    /// Reads-from: relates each write to the reads that observe it.
    pub rf: Relation,
    /// Coherence: per-location strict total order on writes.
    pub co: Relation,
}

/// A well-formedness violation of a candidate execution.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WellformednessError(pub String);

impl fmt::Display for WellformednessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ill-formed candidate execution: {}", self.0)
    }
}

impl std::error::Error for WellformednessError {}

impl CandidateExecution {
    /// Checks the candidate-execution conditions of §6 (rf well-typed and
    /// functional on reads; co a per-location strict total order on writes).
    ///
    /// # Errors
    ///
    /// Describes the first violated condition.
    pub fn validate(&self) -> Result<(), WellformednessError> {
        let ev = &self.base.events;
        let err = |m: String| Err(WellformednessError(m));
        for (w, r) in self.rf.iter() {
            if !ev[w].is_write() || !ev[r].is_read() {
                return err(format!(
                    "rf must relate writes to reads: {} rf {}",
                    ev[w], ev[r]
                ));
            }
            if ev[w].loc != ev[r].loc || ev[w].value() != ev[r].value() {
                return err(format!("rf endpoints disagree: {} rf {}", ev[w], ev[r]));
            }
        }
        for r in self.base.reads() {
            let sources = (0..ev.len()).filter(|w| self.rf.contains(*w, r)).count();
            if sources != 1 {
                return err(format!(
                    "read {} has {} rf-sources (need 1)",
                    ev[r], sources
                ));
            }
        }
        for (a, b) in self.co.iter() {
            if !ev[a].is_write() || !ev[b].is_write() || ev[a].loc != ev[b].loc {
                return err(format!(
                    "co must relate same-location writes: {} co {}",
                    ev[a], ev[b]
                ));
            }
        }
        if !self.co.is_irreflexive() {
            return err("co is not irreflexive".to_string());
        }
        for l in self.base.locs.iter() {
            let ws = self.base.writes_to(l);
            for (x, &a) in ws.iter().enumerate() {
                for &b in &ws[x + 1..] {
                    let ab = self.co.contains(a, b);
                    let ba = self.co.contains(b, a);
                    if ab == ba {
                        return err(format!(
                            "co not total/antisymmetric on {}: {} vs {}",
                            self.base.locs.name(l),
                            ev[a],
                            ev[b]
                        ));
                    }
                }
            }
        }
        // co must be transitive to be a strict total order.
        let n = self.base.len();
        let co_tc = self.co.transitive_closure();
        for a in 0..n {
            for b in 0..n {
                if co_tc.contains(a, b) && !self.co.contains(a, b) {
                    return err("co is not transitive".to_string());
                }
            }
        }
        Ok(())
    }

    fn restrict_atomic(&self, r: &Relation) -> Relation {
        r.filter(|a, _| self.base.is_atomic(a))
    }

    /// From-reads: `E₁ fr E₂` iff some `E′` has `E′ rf E₁` and `E′ co E₂`.
    pub fn fr(&self) -> Relation {
        let mut fr = Relation::new(self.base.len());
        for (w, r) in self.rf.iter() {
            fr.union_row(r, self.co.row(w));
        }
        fr
    }

    /// `fr` restricted to atomic locations.
    pub fn frat(&self) -> Relation {
        self.restrict_atomic(&self.fr())
    }

    /// `rf` restricted to atomic locations.
    pub fn rfat(&self) -> Relation {
        self.restrict_atomic(&self.rf)
    }

    /// `co` restricted to atomic locations.
    pub fn coat(&self) -> Relation {
        self.restrict_atomic(&self.co)
    }

    /// `hbinit`: initial writes happen-before every non-initial event.
    pub fn hbinit(&self) -> Relation {
        let n = self.base.len();
        let mut r = Relation::new(n);
        for (i, ei) in self.base.events.iter().enumerate() {
            if !ei.is_init() {
                continue;
            }
            for (j, ej) in self.base.events.iter().enumerate() {
                if !ej.is_init() {
                    r.insert(i, j);
                }
            }
        }
        r
    }

    /// The happens-before relation `hb` of §6: the smallest transitive
    /// relation including initial-write edges, `po`, and same-atomic-location
    /// `co`/`rf` edges.
    pub fn hb(&self) -> Relation {
        self.hbinit()
            .union(&self.base.po)
            .union(&self.rfat())
            .union(&self.coat())
            .transitive_closure()
    }

    /// Causality: no cycles in `hb ∪ rf ∪ frat`.
    pub fn causality_holds(&self) -> bool {
        self.hb().union(&self.rf).union(&self.frat()).is_acyclic()
    }

    /// CoWW: no `E₁ hb E₂` with `E₂ co E₁`.
    pub fn coww_holds(&self) -> bool {
        self.hb().compose(&self.co).is_irreflexive()
    }

    /// CoWR: no `E₁ hb E₂` with `E₂ fr E₁`.
    pub fn cowr_holds(&self) -> bool {
        self.hb().compose(&self.fr()).is_irreflexive()
    }

    /// A consistent execution satisfies Causality, CoWW and CoWR (§6).
    ///
    /// The three axioms are checked in linear passes over bit rows, with
    /// no cubic closure; [`causality_holds`](Self::causality_holds),
    /// [`coww_holds`](Self::coww_holds) and
    /// [`cowr_holds`](Self::cowr_holds) are its paper-literal oracle.
    ///
    /// * The edges of `hb`, `hbinit ∪ po ∪ rfat ∪ coat`, with `rf` and
    ///   `frat` added, form the Causality graph. `hb` is the transitive
    ///   closure of its edges, so the graph has a cycle iff
    ///   `hb ∪ rf ∪ frat` has one: Causality holds iff the graph has a
    ///   topological order.
    /// * That order is also one of the `hb` edges, so `hb` closes in one
    ///   pass along it in reverse.
    /// * CoWW and CoWR are then tested edge by edge: no `b co a` and no
    ///   `b fr a` with `a hb b`.
    ///
    /// It also accepts an `rf` that leaves some reads without a source,
    /// as the prefix check of
    /// [`consistent_executions`](crate::consistent_executions) needs.
    pub fn is_consistent(&self) -> bool {
        let fr = self.fr();
        let mut hb_edges = self.hbinit().union(&self.base.po);
        for a in (0..self.base.len()).filter(|&a| self.base.is_atomic(a)) {
            hb_edges.union_row(a, self.rf.row(a));
            hb_edges.union_row(a, self.co.row(a));
        }
        let mut causality = hb_edges.union(&self.rf);
        for r in (0..self.base.len()).filter(|&r| self.base.is_atomic(r)) {
            causality.union_row(r, fr.row(r));
        }
        let Some(order) = causality.topological_order() else {
            return false;
        };
        let hb = hb_edges.transitive_closure_along(&order);
        let no_hb_against = |r: &Relation| r.iter().all(|(b, a)| !hb.contains(a, b));
        no_hb_against(&self.co) && no_hb_against(&fr)
    }

    // ---- §7: program-order subrelations and the alternative axioms ----

    /// `poat−`: `po` edges whose *first* event is atomic (read or write).
    pub fn po_at_fst(&self) -> Relation {
        self.base.po.filter(|a, _| self.base.is_atomic(a))
    }

    /// `po−at`: `po` edges whose *second* event is atomic (read or
    /// write). Where `hbcom` composes it with `coeat ∪ rfeat`, only its
    /// edges to writes matter; Theorem 18's Causality needs the edges to
    /// atomic reads too, or a nonatomic read that sees a write could be
    /// followed by an atomic read of a value that write's atomic
    /// predecessor overwrote.
    pub fn po_at_snd(&self) -> Relation {
        self.base.po.filter(|_, b| self.base.is_atomic(b))
    }

    /// `poat−at`: first and second event atomic.
    pub fn po_at_both(&self) -> Relation {
        self.po_at_fst().intersect(&self.po_at_snd())
    }

    /// `poRW`: `po` edges from a read to a (not necessarily same-location)
    /// write — the load-to-store ordering the model refuses to relax.
    pub fn po_rw(&self) -> Relation {
        self.base
            .po
            .filter(|a, b| self.base.events[a].is_read() && self.base.events[b].is_write())
    }

    /// `pocon`: `po` edges between same-location accesses, at least one a
    /// write.
    pub fn po_con(&self) -> Relation {
        self.base.po.filter(|a, b| {
            let (ea, eb) = (&self.base.events[a], &self.base.events[b]);
            ea.loc == eb.loc && (ea.is_write() || eb.is_write())
        })
    }

    /// Internal part of a communication relation: `R ∩ po`.
    pub fn internal(&self, r: &Relation) -> Relation {
        r.intersect(&self.base.po)
    }

    /// External part of a communication relation: `R \ po`.
    pub fn external(&self, r: &Relation) -> Relation {
        r.minus(&self.base.po)
    }

    /// `rfe`: external reads-from.
    pub fn rfe(&self) -> Relation {
        self.external(&self.rf)
    }

    /// `rfeat`: external reads-from on atomics.
    pub fn rfeat(&self) -> Relation {
        self.external(&self.rfat())
    }

    /// `coeat`: external coherence on atomics.
    pub fn coeat(&self) -> Relation {
        self.external(&self.coat())
    }

    /// `freat`: external from-reads on atomics.
    pub fn freat(&self) -> Relation {
        self.external(&self.frat())
    }

    /// `hbcom`: happens-before through atomic communication:
    /// `po−at?; ((coeat ∪ rfeat); poat−at?)*; (coeat ∪ rfeat); poat−?`.
    ///
    /// The po-segments are optional (`R?`): Theorem 17's proof relies on
    /// `rfeat ∪ coeat ⊆ hbcom`, and consecutive communications without an
    /// intervening po step (`co;rf` on one atomic location) are also in
    /// `hb`, so the middle po steps are optional too.
    pub fn hbcom(&self) -> Relation {
        let com = self.coeat().union(&self.rfeat());
        // (poat−at?; com)* then prefixed by one com: com-chains with
        // optional po-to-atomic-write hops between communications.
        let mid = self.po_at_both().reflexive().compose(&com);
        let chain = com.compose(&mid.reflexive_transitive_closure());
        self.po_at_snd()
            .reflexive()
            .compose(&chain)
            .compose(&self.po_at_fst().reflexive())
    }

    /// Theorem 17: `hb = hbinit ∪ hbcom ∪ po`.
    pub fn theorem17_holds(&self) -> bool {
        let lhs = self.hb();
        let rhs = self.hbinit().union(&self.hbcom()).union(&self.base.po);
        lhs == rhs
    }

    /// Theorem 18's Causality condition:
    /// `acyclic(hbcom ∪ poat− ∪ po−at ∪ poRW ∪ rfe ∪ freat)`.
    pub fn causality_alt_holds(&self) -> bool {
        self.hbcom()
            .union(&self.po_at_fst())
            .union(&self.po_at_snd())
            .union(&self.po_rw())
            .union(&self.rfe())
            .union(&self.freat())
            .is_acyclic()
    }

    /// Theorem 18's Coherence condition:
    /// `irreflexive((hbinit ∪ hbcom ∪ pocon); (fr ∪ co))`.
    pub fn coherence_alt_holds(&self) -> bool {
        self.hbinit()
            .union(&self.hbcom())
            .union(&self.po_con())
            .compose(&self.fr().union(&self.co))
            .is_irreflexive()
    }

    /// Theorem 18: the alternative consistency characterisation.
    pub fn is_consistent_alt(&self) -> bool {
        self.causality_alt_holds() && self.coherence_alt_holds()
    }
}

impl fmt::Display for CandidateExecution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "events:")?;
        for (i, e) in self.base.events.iter().enumerate() {
            writeln!(f, "  [{i}] {e}")?;
        }
        writeln!(f, "rf: {}", self.rf)?;
        write!(f, "co: {}", self.co)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdrst_core::loc::Val;

    /// SB-shaped fixture: nonatomic a, b; P0: Wa1; Rb?  P1: Wb1; Ra?
    fn sb(read_b: i64, read_a: i64) -> CandidateExecution {
        let mut locs = LocSet::new();
        let a = locs.fresh("a", LocKind::Nonatomic);
        let b = locs.fresh("b", LocKind::Nonatomic);
        let base = EventSet::new(
            locs,
            vec![
                vec![(a, Action::Write(Val(1))), (b, Action::Read(Val(read_b)))],
                vec![(b, Action::Write(Val(1))), (a, Action::Read(Val(read_a)))],
            ],
        );
        // Events: 0=IWa, 1=IWb, 2=Wa1, 3=Rb, 4=Wb1, 5=Ra
        let mut rf = Relation::new(base.len());
        rf.insert(if read_b == 1 { 4 } else { 1 }, 3);
        rf.insert(if read_a == 1 { 2 } else { 0 }, 5);
        let co = Relation::from_edges(base.len(), [(0, 2), (1, 4)]);
        CandidateExecution { base, rf, co }
    }

    #[test]
    fn sb_all_outcomes_consistent() {
        // Without atomics there is nothing forcing SC: all four SB results
        // are consistent (data races are *bounded*, not forbidden).
        for (rb, ra) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            let e = sb(rb, ra);
            e.validate().unwrap();
            assert!(e.is_consistent(), "SB({rb},{ra}) should be consistent");
            assert!(e.theorem17_holds());
            assert_eq!(e.is_consistent(), e.is_consistent_alt());
        }
    }

    #[test]
    fn rf_must_match_values() {
        let mut e = sb(1, 1);
        // Point the read of b at the initial write (value 0 ≠ 1).
        e.rf = Relation::from_edges(e.base.len(), [(1, 3), (2, 5)]);
        assert!(e.validate().is_err());
    }

    #[test]
    fn every_read_needs_exactly_one_source() {
        let mut e = sb(1, 1);
        e.rf.remove(4, 3);
        assert!(e.validate().is_err());
        e.rf.insert(4, 3);
        e.rf.insert(1, 3); // second source (wrong value anyway)
        assert!(e.validate().is_err());
    }

    #[test]
    fn co_must_be_total_per_location() {
        let mut e = sb(1, 1);
        e.co = Relation::new(e.base.len()); // empty: IWa vs Wa1 unordered
        assert!(e.validate().is_err());
    }

    #[test]
    fn coww_rejects_po_contradicting_co() {
        // One thread writes a=1 then a=2; co ordering 2 before 1 violates
        // CoWW.
        let mut locs = LocSet::new();
        let a = locs.fresh("a", LocKind::Nonatomic);
        let base = EventSet::new(
            locs,
            vec![vec![(a, Action::Write(Val(1))), (a, Action::Write(Val(2)))]],
        );
        // Events: 0=IWa, 1=Wa1, 2=Wa2
        let rf = Relation::new(base.len());
        let bad_co = Relation::from_edges(base.len(), [(0, 1), (0, 2), (2, 1)]);
        let e = CandidateExecution {
            base: base.clone(),
            rf: rf.clone(),
            co: bad_co,
        };
        e.validate().unwrap();
        assert!(!e.coww_holds());
        assert!(!e.is_consistent());
        assert!(!e.is_consistent_alt());
        let good_co = Relation::from_edges(base.len(), [(0, 1), (0, 2), (1, 2)]);
        let e = CandidateExecution {
            base,
            rf,
            co: good_co,
        };
        assert!(e.is_consistent());
    }

    #[test]
    fn cowr_rejects_reading_overwritten_value() {
        // P0: a=1; a=2; r=a reading 1 is CoWR-inconsistent.
        let mut locs = LocSet::new();
        let a = locs.fresh("a", LocKind::Nonatomic);
        let base = EventSet::new(
            locs,
            vec![vec![
                (a, Action::Write(Val(1))),
                (a, Action::Write(Val(2))),
                (a, Action::Read(Val(1))),
            ]],
        );
        // Events: 0=IWa, 1=Wa1, 2=Wa2, 3=Ra1
        let rf = Relation::from_edges(base.len(), [(1, 3)]);
        let co = Relation::from_edges(base.len(), [(0, 1), (0, 2), (1, 2)]);
        let e = CandidateExecution { base, rf, co };
        e.validate().unwrap();
        assert!(!e.cowr_holds());
        assert!(!e.is_consistent());
        assert!(!e.is_consistent_alt());
    }

    #[test]
    fn message_passing_via_atomic_forbidden_outcome() {
        // MP with atomic flag: reading flag=1 then a=0 must be inconsistent.
        let mut locs = LocSet::new();
        let a = locs.fresh("a", LocKind::Nonatomic);
        let f = locs.fresh("F", LocKind::Atomic);
        let base = EventSet::new(
            locs,
            vec![
                vec![(a, Action::Write(Val(1))), (f, Action::Write(Val(1)))],
                vec![(f, Action::Read(Val(1))), (a, Action::Read(Val(0)))],
            ],
        );
        // Events: 0=IWa, 1=IWF, 2=Wa1, 3=WF1, 4=RF1, 5=Ra0
        let rf = Relation::from_edges(base.len(), [(3, 4), (0, 5)]);
        let co = Relation::from_edges(base.len(), [(0, 2), (1, 3)]);
        let e = CandidateExecution { base, rf, co };
        e.validate().unwrap();
        // Ra0 fr Wa1 (reads IWa overwritten by Wa1), and Wa1 hb Ra0 via the
        // atomic chain — CoWR rejects.
        assert!(!e.cowr_holds());
        assert!(!e.is_consistent());
        assert!(!e.is_consistent_alt());
        assert!(e.theorem17_holds());
    }

    #[test]
    fn hbcom_captures_release_acquire_chains() {
        let mut locs = LocSet::new();
        let a = locs.fresh("a", LocKind::Nonatomic);
        let f = locs.fresh("F", LocKind::Atomic);
        let base = EventSet::new(
            locs,
            vec![
                vec![(a, Action::Write(Val(1))), (f, Action::Write(Val(1)))],
                vec![(f, Action::Read(Val(1))), (a, Action::Read(Val(1)))],
            ],
        );
        let rf = Relation::from_edges(base.len(), [(3, 4), (2, 5)]);
        let co = Relation::from_edges(base.len(), [(0, 2), (1, 3)]);
        let e = CandidateExecution { base, rf, co };
        let hbcom = e.hbcom();
        // Wa1 (2) —po−at→ WF1 (3) —rfeat→ RF1 (4) —poat−→ Ra1 (5)
        assert!(hbcom.contains(2, 5));
        assert!(e.is_consistent());
        assert!(e.theorem17_holds());
        assert_eq!(e.is_consistent(), e.is_consistent_alt());
    }
}
