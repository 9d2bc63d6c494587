//! Finite binary relations as bit-matrices, with the relational algebra
//! used throughout the paper (§6–§7): union, composition `R₁;R₂`,
//! transpose `R⁻¹`, reflexive closure `R?`, transitive closure `R⁺`,
//! acyclicity and irreflexivity checks, and topological order.

use std::fmt;

/// A binary relation over `{0, …, n-1}`, stored as a dense bit-matrix.
///
/// # Examples
///
/// ```
/// use bdrst_core::relation::Relation;
///
/// let mut r = Relation::new(3);
/// r.insert(0, 1);
/// r.insert(1, 2);
/// let tc = r.transitive_closure();
/// assert!(tc.contains(0, 2));
/// assert!(r.is_acyclic());
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Relation {
    n: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl Relation {
    /// The empty relation over `n` elements.
    pub fn new(n: usize) -> Relation {
        let words_per_row = n.div_ceil(64).max(1);
        Relation {
            n,
            words_per_row,
            bits: vec![0; n * words_per_row],
        }
    }

    /// The identity relation over `n` elements.
    pub fn identity(n: usize) -> Relation {
        let mut r = Relation::new(n);
        for i in 0..n {
            r.insert(i, i);
        }
        r
    }

    /// Builds a relation from edge pairs.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= n`.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Relation {
        let mut r = Relation::new(n);
        for (a, b) in edges {
            r.insert(a, b);
        }
        r
    }

    /// The number of elements of the carrier set.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Adds the pair `(a, b)`.
    ///
    /// # Panics
    ///
    /// Panics if `a >= n` or `b >= n`.
    pub fn insert(&mut self, a: usize, b: usize) {
        assert!(a < self.n && b < self.n, "relation index out of range");
        self.bits[a * self.words_per_row + b / 64] |= 1u64 << (b % 64);
    }

    /// Removes the pair `(a, b)` if present.
    pub fn remove(&mut self, a: usize, b: usize) {
        if a < self.n && b < self.n {
            self.bits[a * self.words_per_row + b / 64] &= !(1u64 << (b % 64));
        }
    }

    /// True iff `(a, b)` is in the relation.
    pub fn contains(&self, a: usize, b: usize) -> bool {
        a < self.n
            && b < self.n
            && self.bits[a * self.words_per_row + b / 64] & (1u64 << (b % 64)) != 0
    }

    /// The bit row of `a`: bit `b % 64` of word `b / 64` is set iff
    /// `(a, b)` is in the relation.
    ///
    /// # Panics
    ///
    /// Panics if `a >= n`.
    pub fn row(&self, a: usize) -> &[u64] {
        assert!(a < self.n, "relation index out of range");
        &self.bits[a * self.words_per_row..(a + 1) * self.words_per_row]
    }

    /// Adds `(a, b)` for every `b` set in `row`, a bit row laid out as
    /// [`Relation::row`] returns it. Bits at `n` and beyond are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `a >= n` or `row` has a different length than a row of
    /// this relation.
    pub fn union_row(&mut self, a: usize, row: &[u64]) {
        assert!(a < self.n, "relation index out of range");
        assert_eq!(row.len(), self.words_per_row, "row of a different width");
        let (n, start) = (self.n, a * self.words_per_row);
        let words = &mut self.bits[start..start + self.words_per_row];
        for (w, &v) in words.iter_mut().zip(row) {
            *w |= v;
        }
        if n % 64 != 0 {
            words[words.len() - 1] &= (1u64 << (n % 64)) - 1;
        }
    }

    /// The `b` with `(a, b)` in the relation, in increasing order.
    ///
    /// # Panics
    ///
    /// Panics if `a >= n`.
    pub fn successors(&self, a: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(a).iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    w * 64 + bit
                })
            })
        })
    }

    /// Iterates over all pairs in the relation.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |a| self.successors(a).map(move |b| (a, b)))
    }

    /// The number of pairs in the relation.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if the relation has no pairs.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|w| *w == 0)
    }

    /// Union `R₁ ∪ R₂`.
    ///
    /// # Panics
    ///
    /// Panics if the carrier sizes differ.
    pub fn union(&self, other: &Relation) -> Relation {
        assert_eq!(self.n, other.n, "union of relations over different sets");
        let mut r = self.clone();
        for (w, o) in r.bits.iter_mut().zip(&other.bits) {
            *w |= o;
        }
        r
    }

    /// Intersection `R₁ ∩ R₂`.
    ///
    /// # Panics
    ///
    /// Panics if the carrier sizes differ.
    pub fn intersect(&self, other: &Relation) -> Relation {
        assert_eq!(self.n, other.n, "intersection over different sets");
        let mut r = self.clone();
        for (w, o) in r.bits.iter_mut().zip(&other.bits) {
            *w &= o;
        }
        r
    }

    /// Difference `R₁ \ R₂`.
    ///
    /// # Panics
    ///
    /// Panics if the carrier sizes differ.
    pub fn minus(&self, other: &Relation) -> Relation {
        assert_eq!(self.n, other.n, "difference over different sets");
        let mut r = self.clone();
        for (w, o) in r.bits.iter_mut().zip(&other.bits) {
            *w &= !o;
        }
        r
    }

    /// Relational composition `R₁ ; R₂`: `a (R₁;R₂) c` iff ∃b. `a R₁ b R₂ c`.
    ///
    /// # Panics
    ///
    /// Panics if the carrier sizes differ.
    pub fn compose(&self, other: &Relation) -> Relation {
        assert_eq!(self.n, other.n, "composition over different sets");
        let mut r = Relation::new(self.n);
        for (a, b) in self.iter() {
            r.union_row(a, other.row(b));
        }
        r
    }

    /// Transpose `R⁻¹`.
    pub fn transpose(&self) -> Relation {
        let mut r = Relation::new(self.n);
        for (a, b) in self.iter() {
            r.insert(b, a);
        }
        r
    }

    /// Reflexive closure `R? = R ∪ 1`.
    pub fn reflexive(&self) -> Relation {
        self.union(&Relation::identity(self.n))
    }

    /// Transitive closure `R⁺` (Floyd–Warshall over bit-rows).
    pub fn transitive_closure(&self) -> Relation {
        let mut r = self.clone();
        for k in 0..self.n {
            let (rk, word, bit) = (k * self.words_per_row, k / 64, 1u64 << (k % 64));
            for a in 0..self.n {
                let ra = a * self.words_per_row;
                if r.bits[ra + word] & bit != 0 {
                    for w in 0..self.words_per_row {
                        r.bits[ra + w] |= r.bits[rk + w];
                    }
                }
            }
        }
        r
    }

    /// A topological order of the relation viewed as a graph (Kahn's
    /// algorithm): every `a` comes before every `b` with `(a, b)` in the
    /// relation. `None` iff the relation has a cycle.
    pub fn topological_order(&self) -> Option<Vec<usize>> {
        let mut indegree = vec![0usize; self.n];
        for (_, b) in self.iter() {
            indegree[b] += 1;
        }
        // `order` doubles as the queue: its unread tail is the elements
        // whose predecessors are all placed.
        let mut order: Vec<usize> = (0..self.n).filter(|&a| indegree[a] == 0).collect();
        let mut next = 0;
        while let Some(&a) = order.get(next) {
            next += 1;
            for b in self.successors(a) {
                indegree[b] -= 1;
                if indegree[b] == 0 {
                    order.push(b);
                }
            }
        }
        (order.len() == self.n).then_some(order)
    }

    /// Transitive closure `R⁺` of an acyclic relation, given a
    /// [topological order](Relation::topological_order) of it (or of any
    /// relation that includes it): one pass over the order in reverse,
    /// each row the union of its successors and their finished rows.
    ///
    /// # Panics
    ///
    /// Panics if `order` does not list `0..n`; debug builds also check
    /// that it is topological.
    pub fn transitive_closure_along(&self, order: &[usize]) -> Relation {
        assert_eq!(order.len(), self.n, "order must list every element");
        if cfg!(debug_assertions) {
            let mut position = vec![usize::MAX; self.n];
            for (i, &a) in order.iter().enumerate() {
                position[a] = i;
            }
            assert!(
                self.iter().all(|(a, b)| position[a] < position[b]),
                "order is not topological"
            );
        }
        let mut r = Relation::new(self.n);
        for &a in order.iter().rev() {
            for b in self.successors(a) {
                r.insert(a, b);
                let (ra, rb) = (a * self.words_per_row, b * self.words_per_row);
                for w in 0..self.words_per_row {
                    r.bits[ra + w] |= r.bits[rb + w];
                }
            }
        }
        r
    }

    /// Reflexive-transitive closure `R*`.
    pub fn reflexive_transitive_closure(&self) -> Relation {
        self.transitive_closure().reflexive()
    }

    /// True iff the relation contains no pair `(a, a)`.
    pub fn is_irreflexive(&self) -> bool {
        (0..self.n).all(|a| !self.contains(a, a))
    }

    /// True iff the relation's transitive closure is irreflexive, i.e. the
    /// relation (viewed as a graph) has no cycles.
    pub fn is_acyclic(&self) -> bool {
        self.topological_order().is_some()
    }

    /// Restricts the relation to pairs satisfying `keep`.
    pub fn filter(&self, mut keep: impl FnMut(usize, usize) -> bool) -> Relation {
        let mut r = Relation::new(self.n);
        for (a, b) in self.iter() {
            if keep(a, b) {
                r.insert(a, b);
            }
        }
        r
    }

    /// True iff `self ⊆ other`.
    pub fn is_subset(&self, other: &Relation) -> bool {
        assert_eq!(self.n, other.n, "subset over different sets");
        self.bits.iter().zip(&other.bits).all(|(w, o)| w & !o == 0)
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (a, b)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}→{b}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut r = Relation::new(4);
        assert!(r.is_empty());
        r.insert(1, 3);
        assert!(r.contains(1, 3));
        assert!(!r.contains(3, 1));
        assert_eq!(r.len(), 1);
        r.remove(1, 3);
        assert!(r.is_empty());
    }

    #[test]
    fn composition() {
        let r1 = Relation::from_edges(4, [(0, 1), (1, 2)]);
        let r2 = Relation::from_edges(4, [(1, 3), (2, 0)]);
        let c = r1.compose(&r2);
        assert!(c.contains(0, 3)); // 0 →r1 1 →r2 3
        assert!(c.contains(1, 0)); // 1 →r1 2 →r2 0
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn transitive_closure_chains() {
        let r = Relation::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
        let tc = r.transitive_closure();
        assert!(tc.contains(0, 4));
        assert!(!tc.contains(4, 0));
        assert!(r.is_acyclic());
    }

    #[test]
    fn cycles_detected() {
        let r = Relation::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        assert!(!r.is_acyclic());
        assert!(r.is_irreflexive()); // no self-loop before closure
        assert!(!r.transitive_closure().is_irreflexive());
    }

    #[test]
    fn set_operations() {
        let r1 = Relation::from_edges(3, [(0, 1), (1, 2)]);
        let r2 = Relation::from_edges(3, [(1, 2), (2, 0)]);
        assert_eq!(r1.union(&r2).len(), 3);
        assert_eq!(r1.intersect(&r2).len(), 1);
        assert_eq!(r1.minus(&r2).len(), 1);
        assert!(r1.intersect(&r2).is_subset(&r1));
        assert!(r1.is_subset(&r1.union(&r2)));
    }

    #[test]
    fn transpose_and_reflexive() {
        let r = Relation::from_edges(3, [(0, 2)]);
        assert!(r.transpose().contains(2, 0));
        let refl = r.reflexive();
        assert!(refl.contains(1, 1) && refl.contains(0, 2));
    }

    #[test]
    fn composition_identity_law() {
        // R1?;R2 = (R1;R2) ∪ R2 (§7 notation note).
        let r1 = Relation::from_edges(4, [(0, 1)]);
        let r2 = Relation::from_edges(4, [(1, 2), (3, 0)]);
        let lhs = r1.reflexive().compose(&r2);
        let rhs = r1.compose(&r2).union(&r2);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn large_carrier_multiword_rows() {
        let n = 130;
        let mut r = Relation::new(n);
        for i in 0..n - 1 {
            r.insert(i, i + 1);
        }
        let tc = r.transitive_closure();
        assert!(tc.contains(0, n - 1));
        assert!(r.is_acyclic());
        assert_eq!(r.len(), n - 1);
    }

    /// A relation over `n` elements: forward edges along a shuffled order
    /// with probability `1/sparsity`, plus `back` edges against it, which
    /// usually (not always) close a cycle.
    fn random_relation(seed: &mut u64, n: usize, sparsity: u64, back: usize) -> Relation {
        let mut next = move |below: u64| {
            // SplitMix64.
            *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = *seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % below
        };
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, next(i as u64 + 1) as usize);
        }
        let mut r = Relation::new(n);
        for i in 0..n {
            for j in i + 1..n {
                if next(sparsity) == 0 {
                    r.insert(order[i], order[j]);
                }
            }
        }
        for _ in 0..if n > 0 { back } else { 0 } {
            let (i, j) = (next(n as u64) as usize, next(n as u64) as usize);
            r.insert(order[i.max(j)], order[i.min(j)]);
        }
        r
    }

    #[test]
    fn topological_order_agrees_with_closure_up_to_multiword_rows() {
        let mut seed = 7;
        let (mut acyclic, mut cyclic) = (0, 0);
        for n in [0, 1, 2, 5, 17, 63, 64, 65, 100, 130] {
            for sparsity in [2, 8, 40] {
                for back in [0, 1, 3] {
                    let r = random_relation(&mut seed, n, sparsity, back);
                    let closure = r.transitive_closure();
                    assert_eq!(r.is_acyclic(), closure.is_irreflexive(), "n = {n}\n{r}");
                    match r.topological_order() {
                        Some(order) => {
                            acyclic += 1;
                            assert_eq!(r.transitive_closure_along(&order), closure);
                        }
                        None => cyclic += 1,
                    }
                }
            }
        }
        assert!(
            acyclic > 30 && cyclic > 30,
            "{acyclic} acyclic, {cyclic} cyclic"
        );
    }
}
