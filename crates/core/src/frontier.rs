//! Thread and atomic-location frontiers.
//!
//! A frontier `F` maps nonatomic locations to timestamps (§3). Each thread's
//! frontier records, per location, the latest write *known* to the thread;
//! more recent writes may exist but are not guaranteed visible. Atomic
//! locations also carry a frontier, which is how nonatomic knowledge is
//! published between threads (Read-AT / Write-AT merge frontiers).

use std::fmt;
use std::sync::Arc;

use crate::loc::{Loc, LocSet};
use crate::timestamp::Timestamp;

/// A map from (nonatomic) locations to timestamps, ordered pointwise.
///
/// Internally sized by the total number of declared locations; entries for
/// atomic locations exist but are never consulted by the semantics. The
/// entries are shared and copied on write, so the machine's successors
/// clone the frontiers of the threads that did not move for a refcount
/// bump.
///
/// # Examples
///
/// ```
/// use bdrst_core::frontier::Frontier;
/// use bdrst_core::loc::{LocSet, LocKind};
/// use bdrst_core::timestamp::Timestamp;
///
/// let mut locs = LocSet::new();
/// let a = locs.fresh("a", LocKind::Nonatomic);
/// let mut f = Frontier::initial(&locs);
/// assert_eq!(f.get(a), Timestamp::ZERO);
/// f.advance(a, Timestamp::ZERO.succ());
/// assert!(f.get(a) > Timestamp::ZERO);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Frontier {
    at: Arc<[Timestamp]>,
}

impl Frontier {
    /// The initial frontier `F₀`, mapping every location to timestamp 0.
    pub fn initial(locs: &LocSet) -> Frontier {
        Frontier {
            at: vec![Timestamp::ZERO; locs.len()].into(),
        }
    }

    /// The timestamp this frontier records for `loc`.
    ///
    /// # Panics
    ///
    /// Panics if `loc` is out of range for the declaring [`LocSet`].
    pub fn get(&self, loc: Loc) -> Timestamp {
        self.at[loc.index()]
    }

    /// Sets the frontier entry for `loc` to `t` (`F[a ↦ t]`).
    ///
    /// # Panics
    ///
    /// Panics if `t` is not ahead of the current entry: the semantics only
    /// ever moves frontiers forward (Write-NA requires `F(a) < t`).
    pub fn advance(&mut self, loc: Loc, t: Timestamp) {
        assert!(
            t > self.at[loc.index()],
            "frontier for {loc} moved backwards ({} -> {t})",
            self.at[loc.index()]
        );
        Arc::make_mut(&mut self.at)[loc.index()] = t;
    }

    /// The join `F₁ ⊔ F₂`: pointwise later timestamp.
    pub fn join(&self, other: &Frontier) -> Frontier {
        let mut out = self.clone();
        out.join_assign(other);
        out
    }

    /// Merges `other` into `self` in place (`self ← self ⊔ other`). When
    /// one side already dominates, the result shares its entries.
    pub fn join_assign(&mut self, other: &Frontier) {
        debug_assert_eq!(self.at.len(), other.at.len());
        if other.le(self) {
            return;
        }
        if self.le(other) {
            *self = other.clone();
            return;
        }
        for (x, y) in Arc::make_mut(&mut self.at).iter_mut().zip(other.at.iter()) {
            if *y > *x {
                *x = *y;
            }
        }
    }

    /// Pointwise order: true iff `self(a) ≤ other(a)` for every location.
    pub fn le(&self, other: &Frontier) -> bool {
        self.at.iter().zip(other.at.iter()).all(|(x, y)| x <= y)
    }

    /// Iterates over `(loc, timestamp)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (Loc, Timestamp)> + '_ {
        self.at.iter().enumerate().map(|(i, t)| (Loc(i as u32), *t))
    }

    /// Number of location entries (equals the declaring set's size).
    pub fn len(&self) -> usize {
        self.at.len()
    }

    /// True if there are no locations at all.
    pub fn is_empty(&self) -> bool {
        self.at.is_empty()
    }
}

impl fmt::Debug for Frontier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.at.iter().enumerate().map(|(i, t)| (Loc(i as u32), t)))
            .finish()
    }
}

impl fmt::Display for Frontier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, (l, t)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{l}@{t}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loc::LocKind;
    use crate::timestamp::Ratio;

    fn ts(n: i64) -> Timestamp {
        Timestamp(Ratio::from_integer(n))
    }

    fn two_locs() -> (LocSet, Loc, Loc) {
        let mut locs = LocSet::new();
        let a = locs.fresh("a", LocKind::Nonatomic);
        let b = locs.fresh("b", LocKind::Nonatomic);
        (locs, a, b)
    }

    #[test]
    fn initial_maps_everything_to_zero() {
        let (locs, a, b) = two_locs();
        let f = Frontier::initial(&locs);
        assert_eq!(f.get(a), Timestamp::ZERO);
        assert_eq!(f.get(b), Timestamp::ZERO);
    }

    #[test]
    fn join_is_pointwise_max() {
        let (locs, a, b) = two_locs();
        let mut f1 = Frontier::initial(&locs);
        let mut f2 = Frontier::initial(&locs);
        f1.advance(a, ts(3));
        f2.advance(b, ts(5));
        let j = f1.join(&f2);
        assert_eq!(j.get(a), ts(3));
        assert_eq!(j.get(b), ts(5));
        // Join is commutative and idempotent.
        assert_eq!(j, f2.join(&f1));
        assert_eq!(j, j.join(&j));
    }

    #[test]
    fn join_assign_matches_join() {
        let (locs, a, b) = two_locs();
        let mut f1 = Frontier::initial(&locs);
        let mut f2 = Frontier::initial(&locs);
        f1.advance(a, ts(3));
        f2.advance(a, ts(1));
        f2.advance(b, ts(2));
        let expected = f1.join(&f2);
        f1.join_assign(&f2);
        assert_eq!(f1, expected);
    }

    #[test]
    fn pointwise_order() {
        let (locs, a, _) = two_locs();
        let f0 = Frontier::initial(&locs);
        let mut f1 = f0.clone();
        f1.advance(a, ts(1));
        assert!(f0.le(&f1));
        assert!(!f1.le(&f0));
        assert!(f0.le(&f0));
    }

    #[test]
    #[should_panic(expected = "moved backwards")]
    fn advance_must_move_forward() {
        let (locs, a, _) = two_locs();
        let mut f = Frontier::initial(&locs);
        f.advance(a, ts(2));
        f.advance(a, ts(1));
    }
}
