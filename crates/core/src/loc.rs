//! Locations, values and memory actions.
//!
//! Memory consists of locations `ℓ ∈ L`, divided into *atomic* locations
//! `A, B, …` and *nonatomic* locations `a, b, …` (§3). Programs interact
//! with memory by performing actions `ϕ`: `write x` and `read x`.

use std::fmt;
use std::sync::Arc;

use crate::wire::Codec;

/// The kind of a memory location: atomic locations synchronise threads by
/// carrying a frontier; nonatomic locations carry a timestamped history.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum LocKind {
    /// A nonatomic location `a, b, …`: maps to a history of writes.
    Nonatomic,
    /// An atomic location `A, B, …`: maps to a `(frontier, value)` pair.
    Atomic,
}

impl fmt::Display for LocKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LocKind::Nonatomic => write!(f, "nonatomic"),
            LocKind::Atomic => write!(f, "atomic"),
        }
    }
}

/// A memory location identifier: an index into a [`LocSet`].
///
/// # Examples
///
/// ```
/// use bdrst_core::loc::{LocSet, LocKind};
///
/// let mut locs = LocSet::new();
/// let a = locs.fresh("a", LocKind::Nonatomic);
/// let flag = locs.fresh("FLAG", LocKind::Atomic);
/// assert_eq!(locs.kind(a), LocKind::Nonatomic);
/// assert_eq!(locs.name(flag), "FLAG");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Loc(pub u32);

impl Loc {
    /// The location's raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ℓ{}", self.0)
    }
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ℓ{}", self.0)
    }
}

/// The declaration table for a program's locations: names and kinds.
///
/// All machinery in this crate (stores, frontiers, the explorer) is sized by
/// the number of declared locations. Clones share the table, so cloning
/// costs no allocation however many locations are declared.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LocSet {
    names: Arc<Vec<String>>,
    kinds: Arc<Vec<LocKind>>,
}

impl LocSet {
    /// Creates an empty location set.
    pub fn new() -> LocSet {
        LocSet::default()
    }

    /// Declares a fresh location with the given name and kind.
    pub fn fresh(&mut self, name: impl Into<String>, kind: LocKind) -> Loc {
        let id = Loc(self.names.len() as u32);
        Arc::make_mut(&mut self.names).push(name.into());
        Arc::make_mut(&mut self.kinds).push(kind);
        id
    }

    /// Number of declared locations.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no locations are declared.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The kind of `loc`.
    ///
    /// # Panics
    ///
    /// Panics if `loc` was not declared in this set.
    pub fn kind(&self, loc: Loc) -> LocKind {
        self.kinds[loc.index()]
    }

    /// The name of `loc`.
    ///
    /// # Panics
    ///
    /// Panics if `loc` was not declared in this set.
    pub fn name(&self, loc: Loc) -> &str {
        &self.names[loc.index()]
    }

    /// Looks a location up by name.
    pub fn by_name(&self, name: &str) -> Option<Loc> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| Loc(i as u32))
    }

    /// Iterates over all declared locations.
    pub fn iter(&self) -> impl Iterator<Item = Loc> + '_ {
        (0..self.names.len() as u32).map(Loc)
    }

    /// Iterates over the nonatomic locations.
    pub fn nonatomic(&self) -> impl Iterator<Item = Loc> + '_ {
        self.iter().filter(|l| self.kind(*l) == LocKind::Nonatomic)
    }

    /// Iterates over the atomic locations.
    pub fn atomic(&self) -> impl Iterator<Item = Loc> + '_ {
        self.iter().filter(|l| self.kind(*l) == LocKind::Atomic)
    }
}

/// A machine value `x, y ∈ V`.
///
/// The paper leaves values abstract; we use 64-bit integers, with
/// [`Val::INIT`] playing the role of the arbitrary initial value `v₀`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Val(pub i64);

impl Val {
    /// The initial value `v₀` stored in every location at program start.
    pub const INIT: Val = Val(0);
}

impl fmt::Debug for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<i64> for Val {
    fn from(v: i64) -> Val {
        Val(v)
    }
}

/// A memory action `ϕ`: either `read x` (reading resulted in `x`) or
/// `write x`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Action {
    /// `read x`: a read that observed the value `x`.
    Read(Val),
    /// `write x`: a write of the value `x`.
    Write(Val),
}

impl Action {
    /// The value read or written.
    pub fn value(self) -> Val {
        match self {
            Action::Read(v) | Action::Write(v) => v,
        }
    }

    /// True for `read` actions.
    pub fn is_read(self) -> bool {
        matches!(self, Action::Read(_))
    }

    /// True for `write` actions.
    pub fn is_write(self) -> bool {
        matches!(self, Action::Write(_))
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Read(v) => write!(f, "read {v}"),
            Action::Write(v) => write!(f, "write {v}"),
        }
    }
}

/// A located action `ℓ : ϕ` — the label of a memory transition.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LabeledAction {
    /// The location acted upon.
    pub loc: Loc,
    /// The action performed.
    pub action: Action,
}

impl fmt::Display for LabeledAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.loc, self.action)
    }
}

impl Codec for Action {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Action::Read(v) => {
                out.push(0);
                v.encode(out);
            }
            Action::Write(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }

    fn decode(r: &mut crate::wire::Reader<'_>) -> Result<Action, crate::wire::WireError> {
        match u8::decode(r)? {
            0 => Ok(Action::Read(Val::decode(r)?)),
            1 => Ok(Action::Write(Val::decode(r)?)),
            tag => Err(crate::wire::WireError::BadTag {
                what: "Action",
                tag,
            }),
        }
    }
}

impl Codec for LabeledAction {
    fn encode(&self, out: &mut Vec<u8>) {
        self.loc.encode(out);
        self.action.encode(out);
    }

    fn decode(r: &mut crate::wire::Reader<'_>) -> Result<LabeledAction, crate::wire::WireError> {
        Ok(LabeledAction {
            loc: Loc::decode(r)?,
            action: Action::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locset_declares_and_looks_up() {
        let mut locs = LocSet::new();
        let a = locs.fresh("a", LocKind::Nonatomic);
        let b = locs.fresh("b", LocKind::Nonatomic);
        let f = locs.fresh("flag", LocKind::Atomic);
        assert_eq!(locs.len(), 3);
        assert_eq!(locs.by_name("b"), Some(b));
        assert_eq!(locs.by_name("zzz"), None);
        assert_eq!(locs.kind(f), LocKind::Atomic);
        assert_eq!(locs.nonatomic().collect::<Vec<_>>(), vec![a, b]);
        assert_eq!(locs.atomic().collect::<Vec<_>>(), vec![f]);
    }

    #[test]
    fn action_accessors() {
        assert!(Action::Read(Val(3)).is_read());
        assert!(Action::Write(Val(3)).is_write());
        assert_eq!(Action::Read(Val(3)).value(), Val(3));
        assert_eq!(Action::Write(Val(4)).value(), Val(4));
    }

    #[test]
    fn display() {
        let mut locs = LocSet::new();
        let a = locs.fresh("a", LocKind::Nonatomic);
        let la = LabeledAction {
            loc: a,
            action: Action::Write(Val(7)),
        };
        assert_eq!(format!("{la}"), "ℓ0: write 7");
    }
}
