//! Stores: the shared-memory component of a machine configuration.
//!
//! `S ≜ a ↦ H ⊎ A ↦ (F, x)` (§3, Fig. 1a): nonatomic locations map to
//! histories, atomic locations map to a frontier/value pair.
//!
//! # Representation
//!
//! The store is a persistent radix map ([`crate::pmap`]) over the dense
//! location indexes of the declaring [`LocSet`]: [`Store::clone`] is one
//! refcount bump, [`Store::update`] is an O(log n) path copy, and every
//! subtree off the written path is *the same allocation* in the parent,
//! the child, and every sibling branch of an exploration — aliased stores
//! can never observe each other's writes, and a DFS/DPOR tree over a
//! program with hundreds of locations shares all unwritten histories
//! structurally instead of copying an O(locations) spine per write.
//!
//! The map also memoizes per-subtree content digests, which is what makes
//! [`crate::engine::canonical_fingerprint`] incremental: see
//! [`Store::content_digest`].
//!
//! # Wire format
//!
//! [`Store`] and [`LocContents`] implement [`Codec`] (tagged contents in
//! location order — the encoding is independent of the tree shape), new
//! in wire format [`crate::wire::SEMANTICS_VERSION`] 5. Decoding is total:
//! kind-tag or layout corruption surfaces as a [`WireError`], and
//! [`Store::validate_kinds`] rechecks a decoded store against the
//! declaring [`LocSet`] so a poisoned cache entry falls back to recompute
//! instead of panicking the server (see [`LocContents::try_history`]).

use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::frontier::Frontier;
use crate::history::History;
use crate::loc::{Loc, LocKind, LocSet, Val};
use crate::pmap::{ContentDigest, PMap};
use crate::wire::{Codec, Reader, WireError};

/// The contents of a single location in a [`Store`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum LocContents {
    /// A nonatomic location's timestamped write history.
    Nonatomic(History),
    /// An atomic location's frontier and current value.
    Atomic {
        /// The frontier published at this location.
        frontier: Frontier,
        /// The location's (single, coherent) current value.
        value: Val,
    },
}

impl LocContents {
    /// The history of a nonatomic location, or `None` for an atomic one.
    ///
    /// The semantics only ever asks a location for the shape its
    /// [`LocKind`] declares, so in-engine code uses the panicking
    /// [`LocContents::history`]; this total variant is for callers
    /// handling *untrusted* stores — anything decoded from the wire —
    /// where a kind mismatch must surface as an error, never a panic.
    pub fn try_history(&self) -> Option<&History> {
        match self {
            LocContents::Nonatomic(h) => Some(h),
            LocContents::Atomic { .. } => None,
        }
    }

    /// The `(frontier, value)` pair of an atomic location, or `None` for
    /// a nonatomic one. See [`LocContents::try_history`] for when to
    /// prefer this over the panicking accessor.
    pub fn try_atomic(&self) -> Option<(&Frontier, Val)> {
        match self {
            LocContents::Atomic { frontier, value } => Some((frontier, *value)),
            LocContents::Nonatomic(_) => None,
        }
    }

    /// The history of a nonatomic location.
    ///
    /// # Panics
    ///
    /// Panics if the location is atomic. Reserved for stores whose kinds
    /// are trusted (built by the semantics, or decoded and then checked
    /// with [`Store::validate_kinds`]).
    pub fn history(&self) -> &History {
        match self.try_history() {
            Some(h) => h,
            None => panic!("atomic location has no history"),
        }
    }

    /// The `(frontier, value)` pair of an atomic location.
    ///
    /// # Panics
    ///
    /// Panics if the location is nonatomic; see [`LocContents::history`]
    /// for the trust contract.
    pub fn atomic(&self) -> (&Frontier, Val) {
        match self.try_atomic() {
            Some(p) => p,
            None => panic!("nonatomic location has no atomic pair"),
        }
    }
}

impl ContentDigest for LocContents {
    /// Digest of the location's *canonical-local* content: the value
    /// sequence (in timestamp order) for a history, the current value for
    /// an atomic. Timestamps are excluded because the canonical form
    /// quotients them out; an atomic's frontier is excluded because its
    /// canonical form (per-location *ranks*) depends on other locations'
    /// histories, so it cannot be a per-location memo —
    /// [`crate::engine::canonical_fingerprint`] streams those ranks
    /// separately on top of the store digest.
    fn content_digest(&self) -> u64 {
        let mut h = DefaultHasher::new();
        match self {
            LocContents::Nonatomic(hist) => {
                h.write_u8(0);
                h.write_usize(hist.len());
                for (_, v) in hist.iter() {
                    h.write_i64(v.0);
                }
            }
            LocContents::Atomic { value, .. } => {
                h.write_u8(1);
                h.write_i64(value.0);
            }
        }
        h.finish()
    }
}

impl Codec for LocContents {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            LocContents::Nonatomic(h) => {
                out.push(0);
                h.encode(out);
            }
            LocContents::Atomic { frontier, value } => {
                out.push(1);
                frontier.encode(out);
                value.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<LocContents, WireError> {
        match u8::decode(r)? {
            0 => {
                let h = History::decode(r)?;
                // Reachable stores always contain the initial write; an
                // empty decoded history would panic `latest()` downstream.
                if h.is_empty() {
                    return Err(WireError::Invalid("empty nonatomic history"));
                }
                Ok(LocContents::Nonatomic(h))
            }
            1 => Ok(LocContents::Atomic {
                frontier: Frontier::decode(r)?,
                value: Val::decode(r)?,
            }),
            tag => Err(WireError::BadTag {
                what: "LocContents",
                tag,
            }),
        }
    }
}

/// A store `S`: per-location contents for every declared location.
///
/// Persistent: the contents live in a [`PMap`], so [`Store::clone`] is a
/// reference-count bump (successor machines that leave memory untouched
/// share the parent store outright) and [`Store::update`] pays one
/// O(log n) path copy — the replaced slot plus `log₈ n` small interior
/// nodes — while every other location keeps sharing its allocation with
/// the aliased stores. Branches of an exploration therefore alias freely
/// and can never observe each other's writes.
///
/// # Examples
///
/// ```
/// use bdrst_core::loc::{LocSet, LocKind, Val};
/// use bdrst_core::store::Store;
/// use bdrst_core::timestamp::Timestamp;
///
/// let mut locs = LocSet::new();
/// let a = locs.fresh("a", LocKind::Nonatomic);
/// let store = Store::initial(&locs);
/// assert_eq!(store.history(a).latest(), (Timestamp::ZERO, Val::INIT));
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Store {
    contents: PMap<LocContents>,
}

impl Store {
    /// The initial store `M₀`'s memory: every nonatomic location holds the
    /// single initial write `0 ↦ v₀`; every atomic location holds
    /// `(F₀, v₀)` (§3.1).
    pub fn initial(locs: &LocSet) -> Store {
        let f0 = Frontier::initial(locs);
        Store {
            contents: locs
                .iter()
                .map(|l| match locs.kind(l) {
                    LocKind::Nonatomic => LocContents::Nonatomic(History::initial(Val::INIT)),
                    LocKind::Atomic => LocContents::Atomic {
                        frontier: f0.clone(),
                        value: Val::INIT,
                    },
                })
                .collect(),
        }
    }

    /// The contents of `loc`.
    ///
    /// # Panics
    ///
    /// Panics if `loc` is out of range.
    pub fn contents(&self, loc: Loc) -> &LocContents {
        self.contents
            .get(loc.0)
            .unwrap_or_else(|| panic!("location {loc} out of range"))
    }

    /// True iff `self` and `other` share the same root allocation (a
    /// `clone` that no `update` has diverged yet). Used by tests to pin
    /// down the sharing behaviour; semantics code never needs it.
    pub fn ptr_eq(&self, other: &Store) -> bool {
        self.contents.ptr_eq(&other.contents)
    }

    /// The history of nonatomic `loc`.
    ///
    /// # Panics
    ///
    /// Panics if `loc` is atomic or out of range.
    pub fn history(&self, loc: Loc) -> &History {
        self.contents(loc).history()
    }

    /// The `(frontier, value)` pair of atomic `loc`.
    ///
    /// # Panics
    ///
    /// Panics if `loc` is nonatomic or out of range.
    pub fn atomic(&self, loc: Loc) -> (&Frontier, Val) {
        self.contents(loc).atomic()
    }

    /// Replaces the contents of `loc` (the `S[ℓ ↦ C′]` of rule Memory).
    ///
    /// An O(log n) path copy: the new leaf plus the interior nodes on the
    /// root-to-leaf path are freshly allocated; every off-path subtree —
    /// all other locations — keeps sharing its allocation (and its
    /// memoized content digest) with every alias of the pre-update store.
    pub fn update(&mut self, loc: Loc, contents: LocContents) {
        self.contents.update(loc.0, contents);
    }

    /// The 64-bit digest of the store's canonical-local content (see
    /// [`LocContents::content_digest`] for what that covers), recombined
    /// from the pmap's memoized per-subtree digests: after an `update`,
    /// only the O(log n) copied path is rehashed, not every location.
    /// This is the store half of [`crate::engine::canonical_fingerprint`].
    pub fn content_digest(&self) -> u64 {
        self.contents.content_digest()
    }

    /// Checks a *decoded* store against the declaring [`LocSet`]: the
    /// location count must match and every slot must hold the shape its
    /// declared kind demands (including frontier width for atomics).
    /// A store that passes satisfies the panicking accessors' trust
    /// contract; a store that fails must be discarded (the cache layer
    /// falls back to recompute).
    ///
    /// # Errors
    ///
    /// [`WireError::Invalid`] naming the violated invariant.
    pub fn validate_kinds(&self, locs: &LocSet) -> Result<(), WireError> {
        if self.len() != locs.len() {
            return Err(WireError::Invalid("store/locset length mismatch"));
        }
        for (l, c) in self.iter() {
            match (locs.kind(l), c) {
                (LocKind::Nonatomic, LocContents::Nonatomic(_)) => {}
                (LocKind::Atomic, LocContents::Atomic { frontier, .. }) => {
                    if frontier.len() != locs.len() {
                        return Err(WireError::Invalid("atomic frontier width mismatch"));
                    }
                }
                _ => return Err(WireError::Invalid("location kind mismatch")),
            }
        }
        Ok(())
    }

    /// A structurally fresh copy sharing nothing with `self` — the cost
    /// profile `Store::clone` had before the copy-on-write refactor.
    /// A test reference: the copy-on-write leak property test snapshots
    /// stores with it. Exploration code should always use the cheap
    /// `clone`.
    pub fn deep_clone(&self) -> Store {
        Store {
            contents: self.contents.iter().cloned().collect(),
        }
    }

    /// Number of locations.
    pub fn len(&self) -> usize {
        self.contents.len()
    }

    /// True if there are no locations.
    pub fn is_empty(&self) -> bool {
        self.contents.is_empty()
    }

    /// Iterates over `(loc, contents)` pairs in location order.
    pub fn iter(&self) -> impl Iterator<Item = (Loc, &LocContents)> + '_ {
        self.contents
            .iter()
            .enumerate()
            .map(|(i, c)| (Loc(i as u32), c))
    }
}

/// Exact: contents in location order, timestamps and frontiers
/// included, so it agrees with the content equality of the map — equal
/// stores hash equally however their trees were built.
impl Hash for Store {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.len().hash(state);
        for (_, c) in self.iter() {
            c.hash(state);
        }
    }
}

impl Codec for Store {
    /// Contents in location order, independent of the tree shape: two
    /// equal stores encode identically however they were built.
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for (_, c) in self.iter() {
            c.encode(out);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Store, WireError> {
        let n = r.length(1)?;
        let mut contents = Vec::with_capacity(n);
        for _ in 0..n {
            contents.push(LocContents::decode(r)?);
        }
        Ok(Store {
            contents: contents.into_iter().collect(),
        })
    }
}

impl fmt::Display for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "store {{")?;
        for (l, c) in self.iter() {
            match c {
                LocContents::Nonatomic(h) => writeln!(f, "  {l} ↦ {h}")?,
                LocContents::Atomic { value, .. } => writeln!(f, "  {l} ↦ (F, {value})")?,
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timestamp::Timestamp;

    #[test]
    fn initial_store_layout() {
        let mut locs = LocSet::new();
        let a = locs.fresh("a", LocKind::Nonatomic);
        let f = locs.fresh("F", LocKind::Atomic);
        let s = Store::initial(&locs);
        assert_eq!(s.len(), 2);
        assert_eq!(s.history(a).latest(), (Timestamp::ZERO, Val::INIT));
        let (fr, v) = s.atomic(f);
        assert_eq!(v, Val::INIT);
        assert_eq!(fr.get(a), Timestamp::ZERO);
    }

    #[test]
    #[should_panic(expected = "no history")]
    fn history_of_atomic_panics() {
        let mut locs = LocSet::new();
        let f = locs.fresh("F", LocKind::Atomic);
        Store::initial(&locs).history(f);
    }

    #[test]
    #[should_panic(expected = "no atomic pair")]
    fn atomic_of_nonatomic_panics() {
        let mut locs = LocSet::new();
        let a = locs.fresh("a", LocKind::Nonatomic);
        Store::initial(&locs).atomic(a);
    }

    #[test]
    fn try_accessors_are_total() {
        let mut locs = LocSet::new();
        let a = locs.fresh("a", LocKind::Nonatomic);
        let f = locs.fresh("F", LocKind::Atomic);
        let s = Store::initial(&locs);
        assert!(s.contents(a).try_history().is_some());
        assert!(s.contents(a).try_atomic().is_none());
        assert!(s.contents(f).try_history().is_none());
        assert!(s.contents(f).try_atomic().is_some());
    }

    #[test]
    fn update_replaces_contents() {
        let mut locs = LocSet::new();
        let a = locs.fresh("a", LocKind::Nonatomic);
        let mut s = Store::initial(&locs);
        let mut h = History::initial(Val::INIT);
        h.insert(Timestamp::ZERO.succ(), Val(5));
        s.update(a, LocContents::Nonatomic(h));
        assert_eq!(s.history(a).latest().1, Val(5));
    }

    #[test]
    fn clone_shares_until_update_diverges() {
        let mut locs = LocSet::new();
        let a = locs.fresh("a", LocKind::Nonatomic);
        let b = locs.fresh("b", LocKind::Nonatomic);
        let parent = Store::initial(&locs);
        let mut child = parent.clone();
        assert!(parent.ptr_eq(&child), "a clone is a pure Arc bump");
        let mut h = History::initial(Val::INIT);
        h.insert(Timestamp::ZERO.succ(), Val(7));
        child.update(a, LocContents::Nonatomic(h));
        // The write diverged the child; the parent is untouched.
        assert!(!parent.ptr_eq(&child));
        assert_eq!(parent.history(a).latest(), (Timestamp::ZERO, Val::INIT));
        assert_eq!(child.history(a).latest().1, Val(7));
        // Untouched slots still share their contents allocation.
        assert!(std::ptr::eq(parent.contents(b), child.contents(b)));
    }

    #[test]
    fn wide_stores_share_every_offpath_slot() {
        // 100 locations: three pmap levels. An update to one location must
        // leave the other 99 slots pointer-identical to the parent's.
        let mut locs = LocSet::new();
        let all: Vec<Loc> = (0..100)
            .map(|i| locs.fresh(format!("w{i}"), LocKind::Nonatomic))
            .collect();
        let parent = Store::initial(&locs);
        let mut child = parent.clone();
        let mut h = History::initial(Val::INIT);
        h.insert(Timestamp::ZERO.succ(), Val(1));
        child.update(all[57], LocContents::Nonatomic(h));
        for &l in &all {
            if l == all[57] {
                assert!(!std::ptr::eq(parent.contents(l), child.contents(l)));
            } else {
                assert!(std::ptr::eq(parent.contents(l), child.contents(l)));
            }
        }
    }

    #[test]
    fn deep_clone_shares_nothing() {
        let mut locs = LocSet::new();
        let a = locs.fresh("a", LocKind::Nonatomic);
        let s = Store::initial(&locs);
        let d = s.deep_clone();
        assert_eq!(s, d);
        assert!(!s.ptr_eq(&d));
        assert!(!std::ptr::eq(s.contents(a), d.contents(a)));
    }

    fn exact_hash(s: &Store) -> u64 {
        let mut h = DefaultHasher::new();
        s.hash(&mut h);
        h.finish()
    }

    #[test]
    fn content_equal_stores_hash_equal_however_built() {
        // 40 locations: a multi-level map, so the two update orders below
        // copy different paths and end in different allocations.
        let mut locs = LocSet::new();
        let ls: Vec<Loc> = (0..40)
            .map(|i| locs.fresh(format!("x{i}"), LocKind::Nonatomic))
            .collect();
        let write = |v: i64| {
            let mut h = History::initial(Val::INIT);
            h.insert(Timestamp::ZERO.succ(), Val(v));
            LocContents::Nonatomic(h)
        };
        let mut s1 = Store::initial(&locs);
        s1.update(ls[3], write(1));
        s1.update(ls[37], write(2));
        let mut s2 = Store::initial(&locs);
        s2.update(ls[37], write(9));
        s2.update(ls[3], write(1));
        s2.update(ls[37], write(2));
        assert!(!s1.ptr_eq(&s2));
        assert!(!std::ptr::eq(s1.contents(ls[3]), s2.contents(ls[3])));
        assert_eq!(s1, s2);
        assert_eq!(exact_hash(&s1), exact_hash(&s2));
        assert_eq!(exact_hash(&s1), exact_hash(&s1.deep_clone()));
        // A different timestamp for the same value is a different store.
        let mut h = History::initial(Val::INIT);
        h.insert(Timestamp::ZERO.succ().succ(), Val(1));
        let mut s3 = s1.clone();
        s3.update(ls[3], LocContents::Nonatomic(h));
        assert_ne!(s1, s3);
        assert_ne!(exact_hash(&s1), exact_hash(&s3));
    }

    #[test]
    fn content_digest_tracks_canonical_local_content() {
        let mut locs = LocSet::new();
        let a = locs.fresh("a", LocKind::Nonatomic);
        let f = locs.fresh("F", LocKind::Atomic);
        let s0 = Store::initial(&locs);
        let d0 = s0.content_digest();
        assert_eq!(d0, Store::initial(&locs).content_digest());
        // A new write changes the digest.
        let mut s1 = s0.clone();
        let mut h = History::initial(Val::INIT);
        h.insert(Timestamp::ZERO.succ(), Val(3));
        s1.update(a, LocContents::Nonatomic(h));
        assert_ne!(d0, s1.content_digest());
        // Same value sequence at a different timestamp: same digest (the
        // canonical form quotients timestamps out).
        let mut s2 = s0.clone();
        let mut h = History::initial(Val::INIT);
        h.insert(Timestamp::ZERO.succ().succ(), Val(3));
        s2.update(a, LocContents::Nonatomic(h));
        assert_eq!(s1.content_digest(), s2.content_digest());
        // An atomic frontier change alone does NOT change the digest —
        // frontier ranks are non-local and are streamed by the
        // fingerprint, not memoized per location.
        let mut s3 = s1.clone();
        let (fr, v) = s3.atomic(f);
        let mut fr = fr.clone();
        fr.join_assign(&{
            let mut g = Frontier::initial(&locs);
            g.advance(a, Timestamp::ZERO.succ());
            g
        });
        s3.update(
            f,
            LocContents::Atomic {
                frontier: fr,
                value: v,
            },
        );
        assert_eq!(s1.content_digest(), s3.content_digest());
        // But the atomic *value* is covered.
        let (fr, _) = s3.atomic(f);
        let fr = fr.clone();
        s3.update(
            f,
            LocContents::Atomic {
                frontier: fr,
                value: Val(9),
            },
        );
        assert_ne!(s1.content_digest(), s3.content_digest());
    }

    fn two_kind_store() -> (LocSet, Store) {
        let mut locs = LocSet::new();
        let a = locs.fresh("a", LocKind::Nonatomic);
        let _f = locs.fresh("F", LocKind::Atomic);
        let mut s = Store::initial(&locs);
        let mut h = History::initial(Val::INIT);
        h.insert(Timestamp::ZERO.succ(), Val(5));
        h.insert(Timestamp::ZERO.succ().succ(), Val(-2));
        s.update(a, LocContents::Nonatomic(h));
        (locs, s)
    }

    #[test]
    fn store_round_trips() {
        let (locs, s) = two_kind_store();
        let mut buf = Vec::new();
        s.encode(&mut buf);
        let mut r = Reader::new(&buf);
        let d = Store::decode(&mut r).unwrap();
        assert!(r.is_done());
        assert_eq!(d, s);
        assert_eq!(d.content_digest(), s.content_digest());
        d.validate_kinds(&locs).unwrap();
    }

    #[test]
    fn kind_flip_is_an_error_never_a_panic() {
        // Flip the kind tag byte of the first location: the bytes now
        // describe a frontier/value pair where a history is declared. The
        // decoder either rejects the bytes outright or yields a store that
        // validate_kinds refuses — both are WireErrors a cache layer turns
        // into recompute; neither path can reach a panicking accessor.
        let (locs, s) = two_kind_store();
        let mut buf = Vec::new();
        s.encode(&mut buf);
        // Byte 0..8 is the length prefix; byte 8 is loc 0's kind tag.
        assert_eq!(buf[8], 0);
        buf[8] = 1;
        match Store::decode(&mut Reader::new(&buf)) {
            Err(_) => {}
            Ok(d) => {
                assert!(d.validate_kinds(&locs).is_err());
            }
        }
    }

    #[test]
    fn truncation_and_garbage_are_errors() {
        let (_, s) = two_kind_store();
        let mut buf = Vec::new();
        s.encode(&mut buf);
        for cut in 0..buf.len() {
            assert!(
                Store::decode(&mut Reader::new(&buf[..cut])).is_err(),
                "truncation at {cut} decoded"
            );
        }
        // A bad LocContents tag is rejected by name.
        let mut bad = buf.clone();
        bad[8] = 7;
        assert!(matches!(
            Store::decode(&mut Reader::new(&bad)),
            Err(WireError::BadTag {
                what: "LocContents",
                ..
            })
        ));
    }

    #[test]
    fn validate_kinds_rejects_shape_mismatches() {
        let (locs, s) = two_kind_store();
        // Wrong length.
        let short = Store {
            contents: s.iter().take(1).map(|(_, c)| c.clone()).collect(),
        };
        assert!(short.validate_kinds(&locs).is_err());
        // Swapped kinds.
        let mut reversed: Vec<LocContents> = s.iter().map(|(_, c)| c.clone()).collect();
        reversed.reverse();
        let swapped = Store {
            contents: reversed.into_iter().collect(),
        };
        assert!(swapped.validate_kinds(&locs).is_err());
        // Narrow frontier on the atomic slot.
        let mut narrow = s.clone();
        narrow.update(
            Loc(1),
            LocContents::Atomic {
                frontier: Frontier::default(),
                value: Val::INIT,
            },
        );
        assert!(narrow.validate_kinds(&locs).is_err());
    }
}
