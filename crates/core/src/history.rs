//! Per-location write histories.
//!
//! A history `H` is a finite map from timestamps to values (§3). Every
//! nonatomic location's store entry is a history; the entry with the largest
//! timestamp is "the latest write", and reads that do not witness it are
//! *weak* (Definition 6).

use std::collections::BTreeMap;
use std::fmt;

use crate::loc::Val;
use crate::timestamp::Timestamp;

/// A finite map `t ↦ x` from timestamps to values, recording every write
/// ever made to one nonatomic location.
///
/// # Examples
///
/// ```
/// use bdrst_core::history::History;
/// use bdrst_core::loc::Val;
/// use bdrst_core::timestamp::Timestamp;
///
/// let mut h = History::initial(Val(0));
/// let t1 = Timestamp::ZERO.succ();
/// h.insert(t1, Val(42));
/// assert_eq!(h.latest(), (t1, Val(42)));
/// assert_eq!(h.get(Timestamp::ZERO), Some(Val(0)));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct History {
    writes: BTreeMap<Timestamp, Val>,
}

impl History {
    /// An empty history. Most callers want [`History::initial`]: the paper's
    /// initial state gives every location a write of `v₀` at timestamp 0.
    pub fn new() -> History {
        History::default()
    }

    /// The initial-state history: a single write of `v0` at timestamp 0.
    pub fn initial(v0: Val) -> History {
        let mut h = History::new();
        h.insert(Timestamp::ZERO, v0);
        h
    }

    /// Records the write `t ↦ x`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is already present: Write-NA requires `t ∉ dom(H)`.
    pub fn insert(&mut self, t: Timestamp, x: Val) {
        let prev = self.writes.insert(t, x);
        assert!(prev.is_none(), "timestamp {t} already in history");
    }

    /// The value written at `t`, if `t ∈ dom(H)`.
    pub fn get(&self, t: Timestamp) -> Option<Val> {
        self.writes.get(&t).copied()
    }

    /// True if `t ∈ dom(H)`.
    pub fn contains(&self, t: Timestamp) -> bool {
        self.writes.contains_key(&t)
    }

    /// The number of writes recorded.
    pub fn len(&self) -> usize {
        self.writes.len()
    }

    /// True if the history is empty (never the case for reachable stores).
    pub fn is_empty(&self) -> bool {
        self.writes.is_empty()
    }

    /// The entry with the largest timestamp: "the latest write".
    ///
    /// # Panics
    ///
    /// Panics on an empty history; reachable stores always contain the
    /// initial write.
    pub fn latest(&self) -> (Timestamp, Val) {
        let (t, v) = self.writes.iter().next_back().expect("empty history");
        (*t, *v)
    }

    /// All entries with timestamp `>= at`, in increasing timestamp order.
    /// These are exactly the entries Read-NA allows a thread with frontier
    /// `F(a) = at` to read.
    pub fn readable_from(&self, at: Timestamp) -> impl Iterator<Item = (Timestamp, Val)> + '_ {
        self.writes.range(at..).map(|(t, v)| (*t, *v))
    }

    /// Iterates over all `(t, x)` entries in increasing timestamp order.
    pub fn iter(&self) -> impl Iterator<Item = (Timestamp, Val)> + '_ {
        self.writes.iter().map(|(t, v)| (*t, *v))
    }

    /// The timestamps of all writes, in increasing order.
    pub fn timestamps(&self) -> impl Iterator<Item = Timestamp> + '_ {
        self.writes.keys().copied()
    }

    /// The rank of timestamp `t` among the history's timestamps (0-based),
    /// used for canonical state hashing in the explorer.
    pub fn rank_of(&self, t: Timestamp) -> Option<usize> {
        self.timestamps().position(|u| u == t)
    }

    /// Fresh-timestamp candidates for a writer whose frontier is `at`,
    /// one per *gap* of the existing history (see DESIGN.md).
    ///
    /// Write-NA allows any fresh `t > F(a)`. Two candidate timestamps are
    /// observationally equivalent iff the same set of existing entries lies
    /// below each, so it suffices to enumerate one representative per gap:
    /// between each adjacent pair of existing timestamps above `at`, and
    /// after the maximum. The returned list is in increasing order and
    /// always nonempty.
    pub fn write_gaps(&self, at: Timestamp) -> Vec<Timestamp> {
        let above: Vec<Timestamp> = self.timestamps().filter(|t| *t > at).collect();
        let mut out = Vec::with_capacity(above.len() + 1);
        let mut lower = at;
        for upper in &above {
            out.push(lower.midpoint(*upper));
            lower = *upper;
        }
        // After the maximum (or directly after `at` when nothing is above).
        out.push(lower.succ());
        out
    }
}

impl fmt::Debug for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.writes.iter()).finish()
    }
}

impl fmt::Display for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (t, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}↦{v}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<(Timestamp, Val)> for History {
    fn from_iter<I: IntoIterator<Item = (Timestamp, Val)>>(iter: I) -> History {
        let mut h = History::new();
        for (t, v) in iter {
            h.insert(t, v);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(n: i64) -> Timestamp {
        Timestamp(crate::timestamp::Ratio::from_integer(n))
    }

    #[test]
    fn initial_history_has_v0_at_zero() {
        let h = History::initial(Val(9));
        assert_eq!(h.latest(), (Timestamp::ZERO, Val(9)));
        assert_eq!(h.len(), 1);
    }

    #[test]
    #[should_panic(expected = "already in history")]
    fn duplicate_timestamp_panics() {
        let mut h = History::initial(Val(0));
        h.insert(Timestamp::ZERO, Val(1));
    }

    #[test]
    fn readable_from_respects_frontier() {
        let mut h = History::initial(Val(0));
        h.insert(ts(1), Val(1));
        h.insert(ts(2), Val(2));
        let all: Vec<_> = h.readable_from(Timestamp::ZERO).collect();
        assert_eq!(all.len(), 3);
        let late: Vec<_> = h.readable_from(ts(2)).collect();
        assert_eq!(late, vec![(ts(2), Val(2))]);
    }

    #[test]
    fn write_gaps_enumerates_every_interval() {
        let mut h = History::initial(Val(0));
        h.insert(ts(1), Val(1));
        h.insert(ts(2), Val(2));
        // Frontier at 0: gaps are (0,1), (1,2), (2,∞) — three choices.
        let gaps = h.write_gaps(Timestamp::ZERO);
        assert_eq!(gaps.len(), 3);
        assert!(gaps[0] > Timestamp::ZERO && gaps[0] < ts(1));
        assert!(gaps[1] > ts(1) && gaps[1] < ts(2));
        assert!(gaps[2] > ts(2));
        // Frontier at the max: only "after the end" remains.
        let gaps = h.write_gaps(ts(2));
        assert_eq!(gaps.len(), 1);
        assert!(gaps[0] > ts(2));
    }

    #[test]
    fn write_gaps_are_fresh() {
        let mut h = History::initial(Val(0));
        h.insert(ts(3), Val(1));
        for g in h.write_gaps(Timestamp::ZERO) {
            assert!(!h.contains(g));
        }
    }

    #[test]
    fn rank_of_orders_by_timestamp() {
        let mut h = History::initial(Val(0));
        h.insert(ts(5), Val(1));
        h.insert(ts(2), Val(2));
        assert_eq!(h.rank_of(Timestamp::ZERO), Some(0));
        assert_eq!(h.rank_of(ts(2)), Some(1));
        assert_eq!(h.rank_of(ts(5)), Some(2));
        assert_eq!(h.rank_of(ts(7)), None);
    }

    #[test]
    fn display_renders_entries() {
        let mut h = History::initial(Val(0));
        h.insert(ts(1), Val(4));
        assert_eq!(format!("{h}"), "{t0↦0, t1↦4}");
    }
}
