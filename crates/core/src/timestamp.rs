//! Dense rational timestamps.
//!
//! Following the paper (§3, after Kang et al.), timestamps are rational
//! numbers: totally ordered but *dense*, so that a fresh timestamp can be
//! placed strictly between any two existing ones. This is what lets
//! [`Write-NA`](crate::memop) insert a write into the middle of a history
//! when the writing thread's frontier is behind other threads' writes.
//!
//! We implement exact rational arithmetic (no floats anywhere in the
//! semantics) with `i64` numerator/denominator, normalised so that
//! equal rationals have equal representations, and comparison by `i128`
//! cross-multiplication so intermediate products cannot overflow.

use std::cmp::Ordering;
use std::fmt;

use crate::wire::{Codec, Reader, WireError};

/// An exact rational number `num / den` with `den > 0`, stored in lowest
/// terms.
///
/// # Examples
///
/// ```
/// use bdrst_core::timestamp::Ratio;
///
/// let half = Ratio::new(1, 2);
/// let third = Ratio::new(1, 3);
/// assert!(third < half);
/// let mid = third.midpoint(half);
/// assert!(third < mid && mid < half);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ratio {
    num: i64,
    den: i64,
}

fn gcd(mut a: i64, mut b: i64) -> i64 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Ratio {
    /// The rational zero.
    pub const ZERO: Ratio = Ratio { num: 0, den: 1 };
    /// The rational one.
    pub const ONE: Ratio = Ratio { num: 1, den: 1 };

    /// Creates the rational `num / den` in lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: i64, den: i64) -> Ratio {
        assert!(den != 0, "rational with zero denominator");
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd(num, den).max(1);
        Ratio {
            num: sign * (num / g),
            den: (den / g).abs(),
        }
    }

    /// Creates the rational `n / 1`.
    pub fn from_integer(n: i64) -> Ratio {
        Ratio { num: n, den: 1 }
    }

    /// Exact midpoint `(self + other) / 2`; strictly between distinct inputs.
    pub fn midpoint(self, other: Ratio) -> Ratio {
        // (a/b + c/d)/2 = (ad + cb) / 2bd, computed in i128 then reduced.
        let n = (self.num as i128) * (other.den as i128) + (other.num as i128) * (self.den as i128);
        let d = 2i128 * (self.den as i128) * (other.den as i128);
        Ratio::from_i128(n, d)
    }

    /// The rational plus one: convenient for "any timestamp after the max".
    pub fn succ(self) -> Ratio {
        Ratio {
            num: self.num + self.den,
            den: self.den,
        }
    }

    fn from_i128(num: i128, den: i128) -> Ratio {
        fn gcd128(mut a: i128, mut b: i128) -> i128 {
            a = a.abs();
            b = b.abs();
            while b != 0 {
                let t = a % b;
                a = b;
                b = t;
            }
            a
        }
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd128(num, den).max(1);
        let num = sign * (num / g);
        let den = (den / g).abs();
        assert!(
            num <= i64::MAX as i128 && num >= i64::MIN as i128 && den <= i64::MAX as i128,
            "rational overflow after reduction"
        );
        Ratio {
            num: num as i64,
            den: den as i64,
        }
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Ratio) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Ratio) -> Ordering {
        // a/b ? c/d  <=>  ad ? cb   (b, d > 0)
        let lhs = (self.num as i128) * (other.den as i128);
        let rhs = (other.num as i128) * (self.den as i128);
        lhs.cmp(&rhs)
    }
}

impl fmt::Debug for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Default for Ratio {
    fn default() -> Ratio {
        Ratio::ZERO
    }
}

impl From<i64> for Ratio {
    fn from(n: i64) -> Ratio {
        Ratio::from_integer(n)
    }
}

impl Codec for Ratio {
    fn encode(&self, out: &mut Vec<u8>) {
        self.num.encode(out);
        self.den.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Ratio, WireError> {
        // Decode-side gcd over unsigned magnitudes: the signed `gcd`
        // above calls `abs()`, which overflows (panics in debug) on
        // i64::MIN — and corrupt wire input must become a `WireError`,
        // never a panic. `unsigned_abs` is total.
        fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
            while b != 0 {
                let t = a % b;
                a = b;
                b = t;
            }
            a
        }
        let num = i64::decode(r)?;
        let den = i64::decode(r)?;
        // Encodings are canonical: positive denominator, lowest terms.
        // Anything else is corruption, not an alternate spelling.
        if den <= 0 || gcd_u64(num.unsigned_abs(), den.unsigned_abs()) != 1 {
            return Err(WireError::Invalid("non-canonical ratio"));
        }
        Ok(Ratio { num, den })
    }
}

/// A timestamp `t ∈ Q` attached to a write in a location's history.
///
/// Timestamps are totally ordered and dense ([`Timestamp::midpoint`]);
/// the initial write of every location has [`Timestamp::ZERO`].
///
/// # Examples
///
/// ```
/// use bdrst_core::timestamp::Timestamp;
///
/// let t0 = Timestamp::ZERO;
/// let t1 = t0.succ();
/// let mid = t0.midpoint(t1);
/// assert!(t0 < mid && mid < t1);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub Ratio);

impl Timestamp {
    /// The timestamp of initial writes.
    pub const ZERO: Timestamp = Timestamp(Ratio::ZERO);

    /// A timestamp strictly between `self` and `other`.
    pub fn midpoint(self, other: Timestamp) -> Timestamp {
        Timestamp(self.0.midpoint(other.0))
    }

    /// A timestamp strictly greater than `self`.
    pub fn succ(self) -> Timestamp {
        Timestamp(self.0.succ())
    }
}

impl Codec for Timestamp {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Timestamp, WireError> {
        Ok(Timestamp(Ratio::decode(r)?))
    }
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_codec_round_trips_and_rejects_corruption() {
        // Extreme magnitudes round-trip (i64::MIN has no signed abs).
        for r in [
            Ratio::ZERO,
            Ratio::new(1, 2),
            Ratio::from_integer(i64::MIN),
            Ratio::new(-3, 7),
        ] {
            let mut buf = Vec::new();
            r.encode(&mut buf);
            assert_eq!(Ratio::decode(&mut Reader::new(&buf)).unwrap(), r);
        }
        // Non-canonical encodings are errors, never panics: zero or
        // negative denominators, non-lowest terms, and the i64::MIN
        // numerator with a shared factor (the signed-abs overflow case).
        for (num, den) in [(1i64, 0i64), (1, -2), (2, 4), (i64::MIN, 2)] {
            let mut buf = Vec::new();
            num.encode(&mut buf);
            den.encode(&mut buf);
            assert!(
                Ratio::decode(&mut Reader::new(&buf)).is_err(),
                "{num}/{den} decoded"
            );
        }
    }

    #[test]
    fn normalisation() {
        assert_eq!(Ratio::new(2, 4), Ratio::new(1, 2));
        assert_eq!(Ratio::new(-2, -4), Ratio::new(1, 2));
        assert_eq!(Ratio::new(2, -4), Ratio::new(-1, 2));
        assert_eq!(Ratio::new(0, 5), Ratio::ZERO);
    }

    #[test]
    fn ordering() {
        assert!(Ratio::new(1, 3) < Ratio::new(1, 2));
        assert!(Ratio::new(-1, 2) < Ratio::ZERO);
        assert!(Ratio::new(7, 2) > Ratio::from_integer(3));
        assert_eq!(Ratio::new(3, 6).cmp(&Ratio::new(1, 2)), Ordering::Equal);
    }

    #[test]
    fn midpoint_is_strictly_between() {
        let a = Ratio::new(1, 3);
        let b = Ratio::new(2, 3);
        let m = a.midpoint(b);
        assert!(a < m && m < b);
        assert_eq!(m, Ratio::new(1, 2));
    }

    #[test]
    fn midpoint_of_equal_is_same() {
        let a = Ratio::new(5, 7);
        assert_eq!(a.midpoint(a), a);
    }

    #[test]
    fn succ_is_greater() {
        let a = Ratio::new(5, 7);
        assert!(a.succ() > a);
        assert_eq!(Ratio::ZERO.succ(), Ratio::ONE);
    }

    #[test]
    fn timestamp_zero_is_minimum_of_initials() {
        let t = Timestamp::ZERO;
        assert!(t.succ() > t);
        assert!(t.midpoint(t.succ()) > t);
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", Ratio::new(1, 2)), "1/2");
        assert_eq!(format!("{}", Ratio::from_integer(4)), "4");
        assert_eq!(format!("{}", Timestamp::ZERO), "t0");
    }

    #[test]
    fn large_values_no_overflow() {
        let a = Ratio::new(i64::MAX / 2, 3);
        let b = Ratio::new(i64::MAX / 2 - 1, 3);
        assert!(b < a);
        let m = b.midpoint(a);
        assert!(b < m && m < a);
    }
}
