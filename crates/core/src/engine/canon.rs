//! Canonical (timestamp-renamed) machine forms and their zero-copy
//! fingerprints.
//!
//! Two machines that differ only in the rational representatives of their
//! timestamps are observationally identical: every run from either reaches
//! the same outcomes. The engine therefore deduplicates machines by a
//! *canonical form* in which each location's timestamps are replaced by
//! their rank within the owning history.
//!
//! Building a [`CanonState`] materializes fresh `Vec`s for the store,
//! every frontier, and every thread — wasted work when the state has
//! already been visited, which on the engines' hot path is the common
//! case. [`canonical_fingerprint`] therefore streams the exact same
//! canonical content straight into a 64-bit hasher, and [`canon_matches`]
//! compares a machine against an already-built `CanonState` without
//! building one. Together they let the interners probe by fingerprint
//! first and only build the full canonical form on first visit (or on a
//! genuine fingerprint collision, where the verified equality keeps dedup
//! outcomes bit-identical to full-state dedup).
//!
//! All three rank frontier entries against one *rank table* per machine:
//! each location's contents are looked up in the store once, and each
//! nonatomic history records whether it starts at timestamp 0, so an
//! entry at 0 — most entries of most frontiers — ranks 0 without scanning
//! the history. The interners build the table once per probe and share it
//! between the fingerprint, the collision check and the first-visit
//! build, at the cost of one small allocation per probe.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use crate::engine::EngineError;
use crate::frontier::Frontier;
use crate::history::History;
use crate::loc::{Loc, LocKind, LocSet, Val};
use crate::machine::{Expr, Machine};
use crate::timestamp::Timestamp;

/// The canonical (timestamp-renamed) form of a location's contents.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum CanonLoc {
    /// Nonatomic: history values in timestamp order.
    Na(Vec<Val>),
    /// Atomic: current value plus the location frontier as per-location ranks.
    At(Val, Vec<u32>),
}

/// A machine up to timestamp renaming; hashable for dedup.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct CanonState<E> {
    store: Vec<CanonLoc>,
    threads: Vec<(Vec<u32>, E)>,
}

impl<E> CanonState<E> {
    /// The canonical thread expressions, in thread order.
    pub fn thread_exprs(&self) -> impl Iterator<Item = &E> + '_ {
        self.threads.iter().map(|(_, e)| e)
    }

    /// The number of threads.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// The coherence-latest value of every location, in location order:
    /// the last history entry for nonatomics (histories are stored in
    /// timestamp order), the current value for atomics. This is exactly
    /// what outcome extraction needs, so terminal observations can be
    /// re-derived from a recorded state graph without the machines.
    pub fn latest_values(&self) -> impl Iterator<Item = Val> + '_ {
        self.store.iter().map(|c| match c {
            CanonLoc::Na(vals) => *vals.last().expect("reachable histories are nonempty"),
            CanonLoc::At(v, _) => *v,
        })
    }
}

/// One location's contents, resolved once per machine.
enum Row<'m> {
    /// A nonatomic history, and whether its first write is at timestamp 0
    /// (so a frontier entry at 0 ranks 0 without a scan).
    Na { hist: &'m History, zero_first: bool },
    /// An atomic location's frontier and value.
    At(&'m Frontier, Val),
}

/// A machine's rank table: every location's contents, looked up once,
/// against which every frontier entry of the machine is ranked. A frontier
/// entry's rank is the position of its timestamp within the owning history
/// (atomic locations rank 0, mirroring the canonical form).
///
/// The dedup probes build one table and share it between the fingerprint,
/// the collision check and the first-visit canonicalization, instead of a
/// store lookup per (frontier, location) pair in each.
pub(crate) struct RankTable<'m, E> {
    m: &'m Machine<E>,
    rows: Vec<Row<'m>>,
}

impl<'m, E: Expr> RankTable<'m, E> {
    /// Resolves every location of `m` declared in `locs`.
    pub(crate) fn new(locs: &LocSet, m: &'m Machine<E>) -> RankTable<'m, E> {
        let rows = locs
            .iter()
            .map(|l| {
                let c = m.store.contents(l);
                match locs.kind(l) {
                    LocKind::Nonatomic => {
                        let hist = c.history();
                        let zero_first = hist.timestamps().next() == Some(Timestamp::ZERO);
                        Row::Na { hist, zero_first }
                    }
                    LocKind::Atomic => {
                        let (f, v) = c.atomic();
                        Row::At(f, v)
                    }
                }
            })
            .collect();
        RankTable { m, rows }
    }

    /// The rank of frontier `f`'s entry for location `i`.
    fn rank(&self, i: usize, f: &Frontier) -> Result<u32, EngineError> {
        match self.rows[i] {
            Row::Na { hist, zero_first } => {
                let loc = Loc(i as u32);
                let t = f.get(loc);
                if zero_first && t == Timestamp::ZERO {
                    return Ok(0);
                }
                match hist.rank_of(t) {
                    Some(rank) => Ok(rank as u32),
                    None => Err(EngineError::CorruptFrontier { loc, timestamp: t }),
                }
            }
            Row::At(..) => Ok(0),
        }
    }

    fn ranks(&self, f: &Frontier) -> Result<Vec<u32>, EngineError> {
        (0..self.rows.len()).map(|i| self.rank(i, f)).collect()
    }

    /// Streams a frontier's ranks into `h`.
    fn hash_ranks<H: Hasher>(&self, f: &Frontier, h: &mut H) -> Result<(), EngineError> {
        for i in 0..self.rows.len() {
            h.write_u32(self.rank(i, f)?);
        }
        Ok(())
    }

    /// Compares a frontier's ranks against a stored rank vector.
    fn ranks_match(&self, f: &Frontier, ranks: &[u32]) -> bool {
        ranks.len() == self.rows.len()
            && ranks
                .iter()
                .enumerate()
                .all(|(i, r)| self.rank(i, f) == Ok(*r))
    }

    /// See [`canonicalize`].
    pub(crate) fn canonicalize(&self) -> Result<CanonState<E>, EngineError> {
        let store = self
            .rows
            .iter()
            .map(|row| match *row {
                Row::Na { hist, .. } => Ok(CanonLoc::Na(hist.iter().map(|(_, v)| v).collect())),
                Row::At(f, v) => Ok(CanonLoc::At(v, self.ranks(f)?)),
            })
            .collect::<Result<_, EngineError>>()?;
        let threads = self
            .m
            .threads
            .iter()
            .map(|t| Ok((self.ranks(&t.frontier)?, t.expr.clone())))
            .collect::<Result<_, EngineError>>()?;
        Ok(CanonState { store, threads })
    }

    /// See [`canonical_fingerprint`].
    pub(crate) fn fingerprint(&self) -> Result<u64, EngineError> {
        bdrst_obs::counter_add(bdrst_obs::Counter::FingerprintCalls, 1);
        let _span = bdrst_obs::span(bdrst_obs::Phase::Fingerprint);
        let mut h = DefaultHasher::new();
        h.write_u64(self.m.store.content_digest());
        for row in &self.rows {
            if let Row::At(f, _) = *row {
                self.hash_ranks(f, &mut h)?;
            }
        }
        h.write_usize(self.m.threads.len());
        for t in &self.m.threads {
            self.hash_ranks(&t.frontier, &mut h)?;
            t.expr.hash(&mut h);
        }
        let fp = h.finish();
        #[cfg(test)]
        let fp = fp & collisions::mask();
        Ok(fp)
    }

    /// See [`canon_matches`].
    pub(crate) fn matches(&self, canon: &CanonState<E>) -> bool {
        if canon.store.len() != self.rows.len() || canon.threads.len() != self.m.threads.len() {
            return false;
        }
        let store_matches = self.rows.iter().zip(&canon.store).all(|pair| match pair {
            (Row::Na { hist, .. }, CanonLoc::Na(vals)) => {
                hist.len() == vals.len() && hist.iter().map(|(_, v)| v).eq(vals.iter().copied())
            }
            (Row::At(f, v), CanonLoc::At(cv, ranks)) => v == cv && self.ranks_match(f, ranks),
            _ => false,
        });
        store_matches
            && self
                .m
                .threads
                .iter()
                .zip(&canon.threads)
                .all(|(t, (ranks, expr))| t.expr == *expr && self.ranks_match(&t.frontier, ranks))
    }
}

/// Computes the canonical form of a machine: all timestamps are replaced by
/// their rank within the owning location's history.
///
/// # Errors
///
/// Returns [`EngineError::CorruptFrontier`] if some frontier references a
/// timestamp absent from the owning location's history — impossible for
/// machines produced by the paper's rules, but reachable from broken
/// semantics variants or hand-built machines.
pub fn canonicalize<E: Expr>(locs: &LocSet, m: &Machine<E>) -> Result<CanonState<E>, EngineError> {
    RankTable::new(locs, m).canonicalize()
}

/// Test-only fingerprint truncation, used to force collisions: correctness
/// must not depend on fingerprints being collision-free, and the forced
/// collision suite proves it. The mask is per thread, so it truncates only
/// the forcing test's own walks: a walk on another test thread that saw
/// the mask change midway would file one state under two fingerprints and
/// count it twice.
#[cfg(test)]
pub(crate) mod collisions {
    use std::cell::Cell;

    thread_local! {
        static MASK: Cell<u64> = const { Cell::new(u64::MAX) };
    }

    pub(crate) fn mask() -> u64 {
        MASK.with(Cell::get)
    }

    /// Truncates every fingerprint this thread computes to `bits` low
    /// bits until the guard drops.
    pub(crate) fn force(bits: u32) -> Guard {
        MASK.with(|m| m.set((1u64 << bits) - 1));
        Guard
    }

    pub(crate) struct Guard;

    impl Drop for Guard {
        fn drop(&mut self) {
            MASK.with(|m| m.set(u64::MAX));
        }
    }
}

/// The 64-bit fingerprint of a machine's canonical form — *incremental*:
/// the store's canonical-local half (history value sequences, atomic
/// values) enters as one recombined [`crate::store::Store::content_digest`]
/// word, answered from the pmap's memoized subtree digests — after a
/// one-location update only the O(log n) copied path is rehashed, not
/// every location. Only the genuinely non-local canonical content — the
/// per-location *ranks* of atomic and thread frontiers, which depend on
/// other locations' histories — is still streamed per visited state. Those
/// ranks come from one table per machine that resolves each location's
/// contents once, and a frontier entry at timestamp 0 ranks 0 without a
/// scan whenever its history starts at 0. Thread expressions enter through
/// their own `Hash`, which for litmus threads is a memoized O(1) digest.
///
/// The fingerprint is a pure function of the [`CanonState`] content
/// (canonically equal machines always collide; unequal machines collide
/// with probability ~2⁻⁶⁴), and it is deterministic across processes,
/// as hashing a built state with [`DefaultHasher`]'s default keys is. It
/// is **not** the same value as hashing the built `CanonState`; the two
/// hash spaces are independent.
///
/// # Errors
///
/// Returns [`EngineError::CorruptFrontier`] exactly when [`canonicalize`]
/// would: a successful fingerprint guarantees the machine canonicalizes.
pub fn canonical_fingerprint<E: Expr>(locs: &LocSet, m: &Machine<E>) -> Result<u64, EngineError> {
    RankTable::new(locs, m).fingerprint()
}

/// True iff `m`'s canonical form equals `canon`, decided by streaming
/// comparison — no `CanonState` is built. This is the collision check of
/// fingerprint-first dedup: `canon_matches(locs, m, c)` agrees exactly
/// with `canonicalize(locs, m)? == *c` (a machine that fails to
/// canonicalize matches nothing).
pub fn canon_matches<E: Expr>(locs: &LocSet, m: &Machine<E>, canon: &CanonState<E>) -> bool {
    RankTable::new(locs, m).matches(canon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::History;
    use crate::machine::{RecordedExpr, StepLabel};
    use crate::store::LocContents;
    use crate::timestamp::{Ratio, Timestamp};

    #[test]
    fn corrupt_frontier_is_an_error_not_a_panic() {
        let mut locs = LocSet::new();
        let a = locs.fresh("a", LocKind::Nonatomic);
        let f = locs.fresh("F", LocKind::Atomic);
        let _ = f;
        let p = RecordedExpr::new(vec![StepLabel::Read(a)]);
        let mut m = Machine::initial(&locs, [p]);
        // Corrupt thread 0's frontier: point it at a timestamp that is not
        // in a's history.
        let bogus = Timestamp(Ratio::from_integer(99));
        m.threads[0].frontier.advance(a, bogus);
        match canonicalize(&locs, &m) {
            Err(EngineError::CorruptFrontier { loc, timestamp }) => {
                assert_eq!(loc, a);
                assert_eq!(timestamp, bogus);
            }
            other => panic!("expected CorruptFrontier, got {other:?}"),
        }
    }

    #[test]
    fn frontier_at_zero_of_a_history_without_zero_is_corrupt() {
        // The rank shortcut (an entry at 0 ranks 0) applies only when the
        // history starts at 0. Here a's history is just a write at 1, and
        // the thread's frontier still sits at 0.
        let mut locs = LocSet::new();
        let a = locs.fresh("a", LocKind::Nonatomic);
        let p = RecordedExpr::new(vec![StepLabel::Read(a)]);
        let one = Timestamp(Ratio::from_integer(1));
        let mut m = Machine::initial(&locs, [p]);
        let mut h = History::new();
        h.insert(one, Val(5));
        m.store.update(a, LocContents::Nonatomic(h));
        let want = EngineError::CorruptFrontier {
            loc: a,
            timestamp: Timestamp::ZERO,
        };
        assert_eq!(canonicalize(&locs, &m).unwrap_err(), want);
        assert_eq!(canonical_fingerprint(&locs, &m).unwrap_err(), want);
        // The same machine with the frontier on the write is valid, and its
        // canonical form ranks a at 0: the corrupt machine must not match it.
        let mut valid = m.clone();
        valid.threads[0].frontier.advance(a, one);
        let canon = canonicalize(&locs, &valid).unwrap();
        assert!(canon_matches(&locs, &valid, &canon));
        assert!(!canon_matches(&locs, &m, &canon));
    }

    #[test]
    fn corrupt_atomic_frontier_detected() {
        let mut locs = LocSet::new();
        let a = locs.fresh("a", LocKind::Nonatomic);
        let f = locs.fresh("F", LocKind::Atomic);
        let p = RecordedExpr::new(vec![StepLabel::Read(a)]);
        let mut m = Machine::initial(&locs, [p]);
        // Corrupt the atomic location's frontier instead of a thread's.
        let bogus = Timestamp(Ratio::from_integer(7));
        let (fr, v) = m.store.atomic(f);
        let mut fr = fr.clone();
        fr.advance(a, bogus);
        m.store.update(
            f,
            LocContents::Atomic {
                frontier: fr,
                value: v,
            },
        );
        assert!(matches!(
            canonicalize(&locs, &m),
            Err(EngineError::CorruptFrontier { loc, .. }) if loc == a
        ));
    }

    #[test]
    fn canonical_form_ignores_timestamp_representatives() {
        let mut locs = LocSet::new();
        let a = locs.fresh("a", LocKind::Nonatomic);
        let p = RecordedExpr::new(vec![]);
        let mk = |ts: &[i64]| {
            let mut m = Machine::initial(&locs, [p.clone()]);
            let mut h = History::initial(Val(0));
            for (i, t) in ts.iter().enumerate() {
                h.insert(Timestamp(Ratio::from_integer(*t)), Val(i as i64 + 1));
            }
            m.store.update(a, LocContents::Nonatomic(h));
            m
        };
        // Same value sequence at different rationals: same canonical form.
        let c1 = canonicalize(&locs, &mk(&[1, 2])).unwrap();
        let c2 = canonicalize(&locs, &mk(&[3, 50])).unwrap();
        assert_eq!(c1, c2);
    }

    /// A small machine zoo reaching distinct canonical states: useful for
    /// fingerprint agreement checks.
    fn zoo() -> (LocSet, Vec<Machine<RecordedExpr>>) {
        let mut locs = LocSet::new();
        let a = locs.fresh("a", LocKind::Nonatomic);
        let f = locs.fresh("F", LocKind::Atomic);
        let p0 = RecordedExpr::new(vec![
            StepLabel::Write(a, Val(1)),
            StepLabel::Write(f, Val(1)),
        ]);
        let p1 = RecordedExpr::new(vec![StepLabel::Read(f), StepLabel::Read(a)]);
        let m0 = Machine::initial(&locs, [p0, p1]);
        let mut all = vec![m0.clone()];
        let mut stack = vec![m0];
        while let Some(m) = stack.pop() {
            for t in m.transitions(&locs) {
                all.push(t.target.clone());
                stack.push(t.target);
            }
        }
        (locs, all)
    }

    #[test]
    fn fingerprint_agrees_with_canonical_equality() {
        // Equal canonical forms ⇒ equal fingerprints, and (on this space)
        // distinct canonical forms get distinct fingerprints; canon_matches
        // agrees with built-form equality in both directions.
        let (locs, machines) = zoo();
        for m1 in &machines {
            let c1 = canonicalize(&locs, m1).unwrap();
            let f1 = canonical_fingerprint(&locs, m1).unwrap();
            for m2 in &machines {
                let c2 = canonicalize(&locs, m2).unwrap();
                let f2 = canonical_fingerprint(&locs, m2).unwrap();
                assert_eq!(c1 == c2, f1 == f2, "fingerprint disagrees with equality");
                assert_eq!(c1 == c2, canon_matches(&locs, m1, &c2));
            }
        }
    }

    #[test]
    fn fingerprint_ignores_timestamp_representatives() {
        let mut locs = LocSet::new();
        let a = locs.fresh("a", LocKind::Nonatomic);
        let p = RecordedExpr::new(vec![]);
        let mk = |ts: &[i64]| {
            let mut m = Machine::initial(&locs, [p.clone()]);
            let mut h = History::initial(Val(0));
            for (i, t) in ts.iter().enumerate() {
                h.insert(Timestamp(Ratio::from_integer(*t)), Val(i as i64 + 1));
            }
            m.store.update(a, LocContents::Nonatomic(h));
            m
        };
        assert_eq!(
            canonical_fingerprint(&locs, &mk(&[1, 2])).unwrap(),
            canonical_fingerprint(&locs, &mk(&[3, 50])).unwrap()
        );
        // Different value order: different fingerprint.
        let mut m_swapped = Machine::initial(&locs, [p.clone()]);
        let mut h = History::initial(Val(0));
        h.insert(Timestamp(Ratio::from_integer(1)), Val(2));
        h.insert(Timestamp(Ratio::from_integer(2)), Val(1));
        m_swapped.store.update(a, LocContents::Nonatomic(h));
        assert_ne!(
            canonical_fingerprint(&locs, &mk(&[1, 2])).unwrap(),
            canonical_fingerprint(&locs, &m_swapped).unwrap()
        );
    }

    #[test]
    fn fingerprint_detects_corrupt_frontier() {
        let mut locs = LocSet::new();
        let a = locs.fresh("a", LocKind::Nonatomic);
        let p = RecordedExpr::new(vec![StepLabel::Read(a)]);
        let mut m = Machine::initial(&locs, [p]);
        let bogus = Timestamp(Ratio::from_integer(99));
        m.threads[0].frontier.advance(a, bogus);
        assert!(matches!(
            canonical_fingerprint(&locs, &m),
            Err(EngineError::CorruptFrontier { loc, .. }) if loc == a
        ));
    }

    #[test]
    fn latest_values_match_store() {
        let (locs, machines) = zoo();
        for m in &machines {
            let c = canonicalize(&locs, m).unwrap();
            let got: Vec<Val> = c.latest_values().collect();
            let want: Vec<Val> = locs
                .iter()
                .map(|l| match locs.kind(l) {
                    LocKind::Nonatomic => m.store.history(l).latest().1,
                    LocKind::Atomic => m.store.atomic(l).1,
                })
                .collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn forced_collisions_keep_matching_exact() {
        // With 2-bit fingerprints nearly everything collides; canon_matches
        // must still separate distinct states.
        let _guard = collisions::force(2);
        let (locs, machines) = zoo();
        for m1 in &machines {
            let f1 = canonical_fingerprint(&locs, m1).unwrap();
            assert!(f1 < 4, "mask not applied");
            let c1 = canonicalize(&locs, m1).unwrap();
            for m2 in &machines {
                let c2 = canonicalize(&locs, m2).unwrap();
                assert_eq!(c1 == c2, canon_matches(&locs, m1, &c2));
            }
        }
    }
}
