//! Canonical-state interning: fingerprint-first dedup, dense `u32` ids,
//! and id-indexed canonical state storage.
//!
//! Interning probes by the 64-bit
//! [`canonical fingerprint`](crate::engine::canonical_fingerprint), which
//! streams the canonical content into a hasher without building the full
//! canonical state (fresh `Vec`s for the store, every frontier, and every
//! thread):
//!
//! * **re-visit (hot path)**: fingerprint → bucket → verified streaming
//!   equality against the stored state ([`crate::engine::canon_matches`]) —
//!   one small rank-table allocation, nothing else;
//! * **first visit**: fingerprint → empty bucket → build the full
//!   [`crate::engine::CanonState`] once and store it against the next
//!   dense [`StateId`];
//! * **fingerprint collision**: the bucket holds every state with that
//!   fingerprint and equality is always verified, so dedup outcomes are
//!   bit-identical to full-state dedup (the forced-collision suite pins
//!   this down by truncating fingerprints to a few bits).
//!
//! Because states are stored in a dense id-indexed table, the interner
//! doubles as the state store of the
//! [successor graph](crate::engine::StateGraph): `into_states` hands the
//! id-ordered canonical states to the graph builder without copying.
//!
//! [`StateInterner`] is single-threaded: every state walk that dedups
//! canonical states runs on one thread, and ids are issued in discovery
//! order.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A dense identifier for an interned canonical state, assigned in
/// discovery order starting from 0.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub u32);

impl StateId {
    /// The id as an index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// The ids sharing one fingerprint. Collisions are ~2⁻⁶⁴, so the vector
/// almost always holds exactly one id; it exists for correctness, not
/// capacity.
type Bucket = Vec<StateId>;

/// Single-threaded interner: fingerprint-keyed buckets over an id-indexed
/// canonical state table.
#[derive(Default)]
pub struct StateInterner<T> {
    buckets: HashMap<u64, Bucket>,
    states: Vec<T>,
}

impl<T> StateInterner<T> {
    /// An empty interner.
    pub fn new() -> StateInterner<T> {
        StateInterner {
            buckets: HashMap::new(),
            states: Vec::new(),
        }
    }

    /// The id already stored under `fingerprint` that `matches`, if any.
    fn probe(&self, fingerprint: u64, mut matches: impl FnMut(&T) -> bool) -> Option<StateId> {
        self.buckets
            .get(&fingerprint)?
            .iter()
            .copied()
            .find(|id| matches(&self.states[id.index()]))
    }

    /// Admits `value` under `fingerprint` with the next dense id.
    fn admit(&mut self, fingerprint: u64, value: T) -> StateId {
        let id = StateId(self.states.len() as u32);
        self.buckets.entry(fingerprint).or_default().push(id);
        self.states.push(value);
        id
    }

    /// Fingerprint-first interning, the zero-copy hot path: probes the
    /// `fingerprint` bucket, comparing candidates with `matches` (a
    /// streaming equality check that must agree with `T`'s `Eq` on the
    /// value `build` would produce). Only when no stored state matches is
    /// `build` invoked and its result admitted under the next dense id.
    ///
    /// Returns the id and whether the value was freshly admitted.
    pub fn intern_with(
        &mut self,
        fingerprint: u64,
        matches: impl FnMut(&T) -> bool,
        build: impl FnOnce() -> T,
    ) -> (StateId, bool) {
        match self.probe(fingerprint, matches) {
            Some(id) => (id, false),
            None => (self.admit(fingerprint, build()), true),
        }
    }

    /// The interned state with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this interner.
    pub fn state(&self, id: StateId) -> &T {
        &self.states[id.index()]
    }

    /// Consumes the interner, returning the id-ordered states (the state
    /// table of a [`crate::engine::StateGraph`]).
    pub fn into_states(self) -> Vec<T> {
        self.states
    }

    /// Number of distinct states admitted.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }
}

impl<T: Hash + Eq> StateInterner<T> {
    /// Interns a fully built `value`: returns its id and whether it was
    /// freshly admitted. This is the full-state reference path (used by
    /// [`crate::engine::Dedup::FullState`] and the differential suites);
    /// the engines' hot path is [`StateInterner::intern_with`].
    pub fn intern(&mut self, value: T) -> (StateId, bool) {
        let fp = full_state_hash(&value);
        match self.probe(fp, |t| *t == value) {
            Some(id) => (id, false),
            None => (self.admit(fp, value), true),
        }
    }
}

/// The fingerprint [`StateInterner::intern`] files a full state under:
/// `DefaultHasher` with its default keys, so equal values built
/// independently hash alike.
fn full_state_hash<T: Hash>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn intern_is_idempotent() {
        let mut i = StateInterner::new();
        let (a, fresh_a) = i.intern("alpha");
        let (b, fresh_b) = i.intern("beta");
        let (a2, fresh_a2) = i.intern("alpha");
        assert!(fresh_a && fresh_b && !fresh_a2);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.len(), 2);
        assert_eq!(i.state(a), &"alpha");
        assert_eq!(i.into_states(), vec!["alpha", "beta"]);
    }

    #[test]
    fn intern_with_probes_before_building() {
        let mut i = StateInterner::new();
        let builds = Cell::new(0);
        let mut go = |fp: u64, v: u32| {
            i.intern_with(
                fp,
                |t| *t == v,
                || {
                    builds.set(builds.get() + 1);
                    v
                },
            )
        };
        let (a, f1) = go(7, 10);
        let (a2, f2) = go(7, 10); // re-visit: no build
        let (b, f3) = go(7, 20); // forced collision: verified, new id
        let (b2, f4) = go(7, 20);
        assert!(f1 && !f2 && f3 && !f4);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(b, b2);
        assert_eq!(builds.get(), 2);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn hashed_hash_is_deterministic_across_constructions() {
        let a = (1u32, vec![2u8, 3]);
        let b = (1u32, vec![2u8, 3]);
        assert_eq!(full_state_hash(&a), full_state_hash(&b));
        // The second construction is a re-visit of the first.
        let mut i = StateInterner::new();
        assert_eq!(i.intern(a), (StateId(0), true));
        assert_eq!(i.intern(b), (StateId(0), false));
    }
}
