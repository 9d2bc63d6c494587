//! A persistent fixed-arity radix map over dense `u32` keys, with
//! per-node memoized content digests.
//!
//! This is the spine of [`crate::store::Store`]. The exploration engines
//! fork a store at every nondeterministic step, so the map is built for
//! exactly that access pattern:
//!
//! * **`clone` is a refcount bump** — the root is a single [`Arc`]-backed
//!   entry, so aliasing a map costs one atomic increment.
//! * **`update` is an O(log n) path copy** — only the nodes on the path
//!   from the root to the written leaf are reallocated (one `Arc<[Entry]>`
//!   per level plus the fresh leaf). Everything off the path — every
//!   sibling subtree — keeps pointing at the *same* allocations as the
//!   parent map, so sibling branches of a DFS/DPOR tree structurally share
//!   all unwritten locations. The fanout is [`FANOUT`] = 8: small enough
//!   that a path copy touches few pointers, large enough that a
//!   256-location store is only three levels deep.
//! * **digests are memoized per entry** — every entry (leaf or interior
//!   node) carries a lazily computed 64-bit digest of its subtree's
//!   *content* (via the [`ContentDigest`] impl of the value type). A path
//!   copy clears the digests on the copied path only; the untouched
//!   sibling entries keep their memoized digests, because `Entry::clone`
//!   carries the cached value along with the pointer. Recombining a root
//!   digest after an update therefore rehashes O(fanout · depth) cached
//!   words instead of re-streaming every value in the map — this is what
//!   makes `canonical_fingerprint` incremental (see
//!   [`crate::engine::canonical_fingerprint`]).
//!
//! Keys are *dense* indexes `0..len`: the map is created at a fixed size
//! ([`PMap::from_values`]) and [`PMap::update`] replaces existing slots —
//! it never inserts or removes. (Stores are sized by the program's
//! declared [`crate::loc::LocSet`] and only ever rewrite one location per
//! memory rule.) That makes the tree shape a pure function of `len`, so
//! two maps with equal length and equal contents are structurally
//! identical, iteration is in ascending key order, and no hashing of keys
//! is needed — the "H" of HAMT without the hash, because dense keys are
//! already perfect.
//!
//! Digest memoization is observable through the `digest_hits` and
//! `digest_misses` counters of [`bdrst_obs`], which `metrics` and
//! `--profile` report as the digest hit rate.

use std::fmt;
use std::sync::{Arc, OnceLock};

/// Bits of key consumed per tree level.
const BITS: u32 = 3;

/// Children per interior node (`1 << BITS`).
pub const FANOUT: usize = 1 << BITS;

/// A 64-bit digest of a value's *canonical content*, combined into
/// per-subtree digests by [`PMap::content_digest`].
///
/// Implementations must be pure functions of the value's content and
/// deterministic across processes (use
/// [`std::collections::hash_map::DefaultHasher`] with its default keys,
/// like the rest of the engine's hashing). Equal content must produce
/// equal digests; distinct content should differ with probability
/// ~2⁻⁶⁴ — collisions are tolerated by every consumer (the interners
/// verify equality behind fingerprints).
pub trait ContentDigest {
    /// The value's canonical content digest.
    fn content_digest(&self) -> u64;
}

/// What an entry points at: a value, or an interior node of entries.
enum Kind<V> {
    Leaf(Arc<V>),
    Node(Arc<[Entry<V>]>),
}

impl<V> Clone for Kind<V> {
    fn clone(&self) -> Kind<V> {
        match self {
            Kind::Leaf(v) => Kind::Leaf(Arc::clone(v)),
            Kind::Node(c) => Kind::Node(Arc::clone(c)),
        }
    }
}

/// One slot of an interior node (or the root): the subtree pointer plus
/// its memoized content digest. Cloning an entry clones the *cached
/// digest along with the pointer* — the content behind the pointer cannot
/// change (persistence), so the memo stays valid across any number of
/// path copies that keep the subtree shared.
struct Entry<V> {
    kind: Kind<V>,
    digest: OnceLock<u64>,
}

impl<V> Entry<V> {
    fn leaf(v: Arc<V>) -> Entry<V> {
        Entry {
            kind: Kind::Leaf(v),
            digest: OnceLock::new(),
        }
    }

    fn node(children: Arc<[Entry<V>]>) -> Entry<V> {
        Entry {
            kind: Kind::Node(children),
            digest: OnceLock::new(),
        }
    }
}

impl<V> Clone for Entry<V> {
    fn clone(&self) -> Entry<V> {
        Entry {
            kind: self.kind.clone(),
            digest: self.digest.clone(),
        }
    }
}

/// A persistent radix map from dense `u32` keys to `V`. See the module
/// docs for the cost model.
///
/// # Examples
///
/// ```
/// use bdrst_core::pmap::PMap;
///
/// let mut m: PMap<i64> = (0..100).collect();
/// let snapshot = m.clone(); // refcount bump
/// m.update(42, -1); // O(log n) path copy
/// assert_eq!(*m.get(42).unwrap(), -1);
/// assert_eq!(*snapshot.get(42).unwrap(), 42); // snapshot unaffected
/// ```
pub struct PMap<V> {
    root: Option<Entry<V>>,
    len: usize,
    /// Interior-node levels above the leaves (0 ⇔ the root is a leaf).
    height: u32,
}

impl<V> Clone for PMap<V> {
    fn clone(&self) -> PMap<V> {
        PMap {
            root: self.root.clone(),
            len: self.len,
            height: self.height,
        }
    }
}

impl<V> PMap<V> {
    /// An empty map.
    pub fn new() -> PMap<V> {
        PMap {
            root: None,
            len: 0,
            height: 0,
        }
    }

    /// Builds a map of the values in key order (`values[i]` keyed by `i`).
    pub fn from_values<I: IntoIterator<Item = V>>(values: I) -> PMap<V> {
        let mut level: Vec<Entry<V>> = values
            .into_iter()
            .map(|v| Entry::leaf(Arc::new(v)))
            .collect();
        let len = level.len();
        if len == 0 {
            return PMap::new();
        }
        let mut height = 0;
        while level.len() > 1 {
            level = level
                .chunks(FANOUT)
                .map(|c| Entry::node(c.iter().cloned().collect()))
                .collect();
            height += 1;
        }
        PMap {
            root: level.pop(),
            len,
            height,
        }
    }

    /// Number of keys (fixed at construction).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for the zero-key map.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value at `key`, or `None` when `key >= len`.
    pub fn get(&self, key: u32) -> Option<&V> {
        if key as usize >= self.len {
            return None;
        }
        let mut entry = self.root.as_ref()?;
        let mut key = key;
        let mut h = self.height;
        loop {
            match &entry.kind {
                Kind::Leaf(v) => return Some(&**v),
                Kind::Node(children) => {
                    let shift = BITS * (h - 1);
                    entry = &children[(key >> shift) as usize];
                    key &= (1u32 << shift) - 1;
                    h -= 1;
                }
            }
        }
    }

    /// Replaces the value at `key` by path copy: the entries from the root
    /// to the leaf are freshly allocated (digests unset), every sibling
    /// entry is cloned — pointer and memoized digest — so the off-path
    /// subtrees stay shared with every alias of the pre-update map.
    ///
    /// # Panics
    ///
    /// Panics if `key >= len`: the map never grows.
    pub fn update(&mut self, key: u32, value: V) {
        assert!((key as usize) < self.len, "pmap key {key} out of range");
        let root = self.root.as_ref().expect("nonempty map has a root");
        self.root = Some(Self::update_entry(root, key, self.height, Arc::new(value)));
    }

    fn update_entry(entry: &Entry<V>, key: u32, h: u32, value: Arc<V>) -> Entry<V> {
        if h == 0 {
            return Entry::leaf(value);
        }
        let Kind::Node(children) = &entry.kind else {
            unreachable!("interior levels hold nodes");
        };
        let shift = BITS * (h - 1);
        let idx = (key >> shift) as usize;
        let mut replaced = Some(Self::update_entry(
            &children[idx],
            key & ((1u32 << shift) - 1),
            h - 1,
            value,
        ));
        // A single exact-size allocation for the copied level: sibling
        // entries are cloned (Arc bump + digest memo), the one on-path
        // slot takes the freshly built child.
        let copied: Arc<[Entry<V>]> = children
            .iter()
            .enumerate()
            .map(|(i, e)| {
                if i == idx {
                    replaced.take().expect("one slot replaced")
                } else {
                    e.clone()
                }
            })
            .collect();
        Entry::node(copied)
    }

    /// True iff both maps share the same root allocation: a `clone` no
    /// `update` has diverged yet. (Structural equality of shared subtrees
    /// below a diverged root is checked per-slot by callers via
    /// [`std::ptr::eq`] on [`PMap::get`] references.)
    pub fn ptr_eq(&self, other: &PMap<V>) -> bool {
        match (&self.root, &other.root) {
            (None, None) => true,
            (Some(a), Some(b)) => match (&a.kind, &b.kind) {
                (Kind::Leaf(x), Kind::Leaf(y)) => Arc::ptr_eq(x, y),
                (Kind::Node(x), Kind::Node(y)) => Arc::ptr_eq(x, y),
                _ => false,
            },
            _ => false,
        }
    }

    /// Iterates the values in ascending key order.
    pub fn iter(&self) -> Iter<'_, V> {
        let mut it = Iter {
            stack: Vec::new(),
            root_leaf: None,
        };
        match &self.root {
            None => {}
            Some(Entry {
                kind: Kind::Leaf(v),
                ..
            }) => it.root_leaf = Some(&**v),
            Some(Entry {
                kind: Kind::Node(children),
                ..
            }) => it.stack.push(children.iter()),
        }
        it
    }
}

impl<V> Default for PMap<V> {
    fn default() -> PMap<V> {
        PMap::new()
    }
}

impl<V> FromIterator<V> for PMap<V> {
    fn from_iter<I: IntoIterator<Item = V>>(iter: I) -> PMap<V> {
        PMap::from_values(iter)
    }
}

impl<V: ContentDigest> PMap<V> {
    /// The digest of the whole map's content: a deterministic 64-bit hash
    /// of `(len, per-key content digests)`, recombined from the memoized
    /// per-subtree digests. After an `update`, only the O(log n) fresh
    /// path entries (and their O(fanout · depth) cached sibling words)
    /// are rehashed; shared subtrees answer from their memo.
    pub fn content_digest(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::Hasher;
        let mut h = DefaultHasher::new();
        h.write_usize(self.len);
        if let Some(root) = &self.root {
            h.write_u64(Self::entry_digest(root));
        }
        h.finish()
    }

    fn entry_digest(e: &Entry<V>) -> u64 {
        if let Some(d) = e.digest.get() {
            bdrst_obs::counter_add(bdrst_obs::Counter::DigestHits, 1);
            return *d;
        }
        bdrst_obs::counter_add(bdrst_obs::Counter::DigestMisses, 1);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::Hasher;
        let mut h = DefaultHasher::new();
        match &e.kind {
            Kind::Leaf(v) => {
                h.write_u8(0);
                h.write_u64(v.content_digest());
            }
            Kind::Node(children) => {
                h.write_u8(1);
                h.write_usize(children.len());
                for c in children.iter() {
                    h.write_u64(Self::entry_digest(c));
                }
            }
        }
        let d = h.finish();
        *e.digest.get_or_init(|| d)
    }
}

fn entry_eq<V: PartialEq>(a: &Entry<V>, b: &Entry<V>) -> bool {
    match (&a.kind, &b.kind) {
        (Kind::Leaf(x), Kind::Leaf(y)) => Arc::ptr_eq(x, y) || **x == **y,
        (Kind::Node(x), Kind::Node(y)) => {
            Arc::ptr_eq(x, y)
                || (x.len() == y.len() && x.iter().zip(y.iter()).all(|(a, b)| entry_eq(a, b)))
        }
        // Equal-length maps are structurally identical (shape is a pure
        // function of len), so mixed kinds can only mean unequal maps.
        _ => false,
    }
}

impl<V: PartialEq> PartialEq for PMap<V> {
    fn eq(&self, other: &PMap<V>) -> bool {
        self.len == other.len
            && match (&self.root, &other.root) {
                (None, None) => true,
                (Some(a), Some(b)) => entry_eq(a, b),
                _ => false,
            }
    }
}

impl<V: Eq> Eq for PMap<V> {}

impl<V: fmt::Debug> fmt::Debug for PMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Ascending-key iterator over a [`PMap`]'s values.
pub struct Iter<'a, V> {
    stack: Vec<std::slice::Iter<'a, Entry<V>>>,
    root_leaf: Option<&'a V>,
}

impl<'a, V> Iterator for Iter<'a, V> {
    type Item = &'a V;

    fn next(&mut self) -> Option<&'a V> {
        if let Some(v) = self.root_leaf.take() {
            return Some(v);
        }
        loop {
            let it = self.stack.last_mut()?;
            match it.next() {
                None => {
                    self.stack.pop();
                }
                Some(e) => match &e.kind {
                    Kind::Leaf(v) => return Some(&**v),
                    Kind::Node(children) => self.stack.push(children.iter()),
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ContentDigest for i64 {
        fn content_digest(&self) -> u64 {
            use std::collections::hash_map::DefaultHasher;
            use std::hash::Hasher;
            let mut h = DefaultHasher::new();
            h.write_i64(*self);
            h.finish()
        }
    }

    fn build(n: usize) -> PMap<i64> {
        (0..n as i64).collect()
    }

    #[test]
    fn get_reads_back_every_size() {
        for n in [0usize, 1, 2, 7, 8, 9, 63, 64, 65, 256, 300] {
            let m = build(n);
            assert_eq!(m.len(), n);
            assert_eq!(m.is_empty(), n == 0);
            for k in 0..n {
                assert_eq!(m.get(k as u32), Some(&(k as i64)), "n={n} k={k}");
            }
            assert_eq!(m.get(n as u32), None);
        }
    }

    #[test]
    fn iter_is_ascending_key_order() {
        for n in [0usize, 1, 5, 8, 9, 64, 65, 200] {
            let m = build(n);
            let got: Vec<i64> = m.iter().copied().collect();
            let want: Vec<i64> = (0..n as i64).collect();
            assert_eq!(got, want, "n={n}");
        }
    }

    #[test]
    fn update_is_persistent() {
        for n in [1usize, 8, 9, 64, 65, 256] {
            let base = build(n);
            for k in [0usize, n / 2, n - 1] {
                let mut m = base.clone();
                assert!(m.ptr_eq(&base));
                m.update(k as u32, -7);
                assert!(!m.ptr_eq(&base));
                assert_eq!(m.get(k as u32), Some(&-7));
                assert_eq!(base.get(k as u32), Some(&(k as i64)), "base mutated");
                for j in 0..n {
                    if j != k {
                        assert_eq!(m.get(j as u32), Some(&(j as i64)));
                        // Off-path values share the very allocation.
                        assert!(std::ptr::eq(
                            m.get(j as u32).unwrap(),
                            base.get(j as u32).unwrap()
                        ));
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn update_never_grows() {
        let mut m = build(4);
        m.update(4, 0);
    }

    #[test]
    fn equality_is_structural() {
        let a = build(70);
        let mut b = build(70);
        assert_eq!(a, b);
        b.update(69, -1);
        assert_ne!(a, b);
        b.update(69, 69);
        assert_eq!(a, b);
        assert_ne!(build(8), build(9));
    }

    #[test]
    fn content_digest_is_content_addressed() {
        // Equal content ⇒ equal digest, however the maps were built.
        let a = build(100);
        let mut b = build(100);
        b.update(3, -5);
        b.update(90, -6);
        b.update(3, 3);
        b.update(90, 90);
        assert_eq!(a.content_digest(), b.content_digest());
        // Distinct content ⇒ distinct digest (w.h.p.; deterministic here).
        b.update(50, -1);
        assert_ne!(a.content_digest(), b.content_digest());
        // Length is part of the digest.
        assert_ne!(build(8).content_digest(), build(9).content_digest());
    }

    #[test]
    fn digests_are_memoized_across_path_copies() {
        // (Asserted structurally, not via the digest counters — they
        // are process-global and other tests bump them concurrently.)
        let a = build(256);
        let d1 = a.content_digest();
        assert_eq!(a.content_digest(), d1);
        assert!(
            a.root.as_ref().unwrap().digest.get().is_some(),
            "root digest not memoized"
        );
        let mut b = a.clone();
        b.update(17, -1);
        // The copied path has fresh (unset) memos; every off-path sibling
        // kept the digest it computed under `a`.
        let root = b.root.as_ref().unwrap();
        assert!(root.digest.get().is_none(), "path copy kept a stale memo");
        let Kind::Node(children) = &root.kind else {
            panic!("256 keys must not be a root leaf");
        };
        // 256 leaves → height 3, root fanout 4; key 17 routes to child 0.
        assert_eq!(children.len(), 4);
        assert!(children[0].digest.get().is_none());
        for c in &children[1..] {
            assert!(c.digest.get().is_some(), "off-path memo dropped");
        }
        assert_ne!(b.content_digest(), d1);
    }

    #[test]
    fn clone_then_divergent_updates_do_not_interfere() {
        let base = build(64);
        let mut left = base.clone();
        let mut right = base.clone();
        left.update(10, -10);
        right.update(50, -50);
        assert_eq!(left.get(50), Some(&50));
        assert_eq!(right.get(10), Some(&10));
        // Siblings share the subtrees neither wrote: the slot 30 leaf is
        // one allocation reachable from base, left, and right.
        assert!(std::ptr::eq(left.get(30).unwrap(), right.get(30).unwrap()));
    }
}
