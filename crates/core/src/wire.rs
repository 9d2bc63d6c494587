//! A hand-rolled, std-only versioned binary codec for the content-addressed
//! result store.
//!
//! The service layer persists checker results — outcome sets, verdicts,
//! recorded trace trees — keyed by program fingerprint; no machine state
//! is persisted. Nothing in this repository may pull serde (the build
//! image has no crates.io), so this module provides the minimal substrate
//! those codecs share:
//!
//! * [`Codec`] — encode into a byte vector / decode from a bounds-checked
//!   [`Reader`]. Implementations exist for the primitive scalars, `String`,
//!   `Vec<T>`, `Option<T>`, and the core model types ([`Val`], [`Loc`],
//!   [`crate::engine::StateId`]); richer types implement it next to their
//!   definitions (timestamps, actions and transition labels, whose
//!   vectors make up [`crate::engine::TraceGraph`]'s bytes, and
//!   `bdrst-lang`'s observations).
//! * [`WireError`] — the decode error surface. Every decode failure is an
//!   *error value*, never a panic and never garbage: a corrupt or
//!   truncated cache entry must make the store fall back to recompute,
//!   not to a wrong verdict.
//! * [`checksum`] — a 64-bit payload digest ([`DefaultHasher`] with its
//!   default keys, deterministic across processes — the same property the
//!   interner relies on), written after every persisted payload and
//!   verified before any field of it is trusted.
//!
//! All integers are little-endian fixed-width; lengths are `u64` and are
//! validated against the bytes actually remaining before any allocation,
//! so a flipped length byte cannot OOM the decoder.

use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::Hasher;

use crate::loc::{Loc, Val};

/// The semantics/config version tag of this build. Any change to the
/// operational semantics, the canonical form, or the meaning of recorded
/// artifacts must bump this; persisted cache entries carry it and are
/// rejected (recomputed) on mismatch.
///
/// Version 5: persistent-pmap stores — the canonical fingerprint is now
/// recombined from memoized [`crate::store::Store`] digests, which
/// changes fingerprint *values* (not their semantics) — cache entries
/// keyed under version 4 must recompute.
pub const SEMANTICS_VERSION: u32 = 5;

/// A decode failure: the bytes do not describe a well-formed value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireError {
    /// The input ended before the value did.
    Truncated,
    /// A tag byte had no meaning for the type being decoded.
    BadTag {
        /// The type whose decoder rejected the tag.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A length prefix exceeds the bytes remaining (or `usize`).
    BadLength,
    /// A structural invariant of the decoded value failed (e.g. a CSR
    /// offset table that is not monotone).
    Invalid(&'static str),
    /// The payload checksum did not match.
    Checksum,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated input"),
            WireError::BadTag { what, tag } => write!(f, "bad tag {tag} for {what}"),
            WireError::BadLength => write!(f, "length prefix exceeds input"),
            WireError::Invalid(what) => write!(f, "structural invariant violated: {what}"),
            WireError::Checksum => write!(f, "checksum mismatch"),
        }
    }
}

impl std::error::Error for WireError {}

/// A bounds-checked cursor over bytes being decoded.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over the whole buffer.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    /// Consumes exactly `n` bytes.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Decodes a length prefix and validates it against the bytes left:
    /// every encoded element occupies at least `min_elem_size` bytes, so a
    /// corrupt length cannot drive a huge allocation.
    ///
    /// # Errors
    ///
    /// [`WireError::BadLength`] when the claimed length cannot fit.
    pub fn length(&mut self, min_elem_size: usize) -> Result<usize, WireError> {
        let n = u64::decode(self)?;
        let n: usize = n.try_into().map_err(|_| WireError::BadLength)?;
        if n.checked_mul(min_elem_size.max(1))
            .is_none_or(|bytes| bytes > self.remaining())
        {
            return Err(WireError::BadLength);
        }
        Ok(n)
    }
}

/// Binary encode/decode for one type. See the module docs.
pub trait Codec: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value from the reader.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] describing why the bytes are not a valid value.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

macro_rules! scalar_codec {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn decode(r: &mut Reader<'_>) -> Result<$t, WireError> {
                let bytes = r.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("sized take")))
            }
        }
    )*};
}

scalar_codec!(u8, u16, u32, u64, i64);

impl Codec for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<usize, WireError> {
        u64::decode(r)?.try_into().map_err(|_| WireError::BadLength)
    }
}

impl Codec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }

    fn decode(r: &mut Reader<'_>) -> Result<bool, WireError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { what: "bool", tag }),
        }
    }
}

impl Codec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        out.extend_from_slice(self.as_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Result<String, WireError> {
        let n = r.length(1)?;
        let bytes = r.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Invalid("utf-8 string"))
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for item in self {
            item.encode(out);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Vec<T>, WireError> {
        let n = r.length(1)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Option<T>, WireError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::BadTag {
                what: "Option",
                tag,
            }),
        }
    }
}

impl Codec for Val {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Val, WireError> {
        Ok(Val(i64::decode(r)?))
    }
}

impl Codec for Loc {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Loc, WireError> {
        Ok(Loc(u32::decode(r)?))
    }
}

impl Codec for crate::engine::StateId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<crate::engine::StateId, WireError> {
        Ok(crate::engine::StateId(u32::decode(r)?))
    }
}

/// The 64-bit digest of a payload: [`DefaultHasher`] over the raw bytes,
/// deterministic across processes and runs.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Codec + PartialEq + fmt::Debug>(v: T) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut r = Reader::new(&buf);
        assert_eq!(T::decode(&mut r).unwrap(), v);
        assert!(r.is_done(), "decoder left {} bytes", r.remaining());
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(u16::MAX);
        round_trip(0xdead_beefu32);
        round_trip(u64::MAX);
        round_trip(i64::MIN);
        round_trip(usize::MAX as u64);
        round_trip(true);
        round_trip(false);
    }

    #[test]
    fn compounds_round_trip() {
        round_trip(String::from("nonatomic a; thread P0 { a = 1; }"));
        round_trip(String::new());
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip(Some(vec![Val(1), Val(-7)]));
        round_trip(None::<u32>);
        round_trip(Loc(3));
        round_trip(crate::engine::StateId(17));
    }

    #[test]
    fn truncation_is_an_error() {
        let mut buf = Vec::new();
        0xffff_ffffu32.encode(&mut buf);
        let mut r = Reader::new(&buf[..3]);
        assert_eq!(u32::decode(&mut r), Err(WireError::Truncated));
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        // A Vec claiming u64::MAX elements over a 9-byte buffer must fail
        // with BadLength, not attempt the allocation.
        let mut buf = Vec::new();
        u64::MAX.encode(&mut buf);
        buf.push(1);
        let mut r = Reader::new(&buf);
        assert_eq!(Vec::<u64>::decode(&mut r), Err(WireError::BadLength));
    }

    #[test]
    fn bad_tags_are_rejected() {
        let buf = [7u8];
        assert!(matches!(
            bool::decode(&mut Reader::new(&buf)),
            Err(WireError::BadTag { what: "bool", .. })
        ));
        assert!(matches!(
            Option::<u8>::decode(&mut Reader::new(&buf)),
            Err(WireError::BadTag { what: "Option", .. })
        ));
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut buf = Vec::new();
        2usize.encode(&mut buf);
        buf.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(
            String::decode(&mut Reader::new(&buf)),
            Err(WireError::Invalid("utf-8 string"))
        );
    }

    #[test]
    fn checksum_is_deterministic_and_content_sensitive() {
        let a = checksum(b"abc");
        assert_eq!(a, checksum(b"abc"));
        assert_ne!(a, checksum(b"abd"));
    }
}
