//! The binary serialization layer: [`Encode`]/[`Decode`] for the
//! primitives and `cloud-sim` vocabulary every persisted record is
//! built from.
//!
//! Wire conventions (see [`crate::frame`] for the envelope and the
//! format version):
//!
//! * `u32`, `u64` and `usize` are **canonical unsigned LEB128
//!   varints** (format version 3): seven value bits per byte, least
//!   significant group first, the high bit set on every byte but the
//!   last — one byte below 2^7, at most 5 for a `u32` and 10 for a
//!   `u64`. Most persisted integers are small (counters, slab indices,
//!   collection lengths, a study's timestamps below 2^21, prices in
//!   micro-dollars), and with `SimTime`, `Price` and every length
//!   riding on these impls a probe record shrinks from ~40 bytes to
//!   ~28 and a sparse epoch cell from 32 to ~5. There is **one
//!   encoding per value**: the decoder refuses an overlong form (a
//!   trailing all-zero group), a byte past the type's longest form and
//!   value bits past the type's width with [`DecodeError::Invalid`],
//!   and input that ends inside a varint with [`DecodeError::Eof`];
//! * `u8` stays one raw byte (tags, zone indices), and `f64` stays the
//!   8 little-endian bytes of its IEEE bit pattern (`to_bits`), so
//!   round-trips are bit-exact including NaN payloads — a float's
//!   significant bits sit in its *high* bytes, so a varint would cost
//!   9–10 bytes, not fewer;
//! * enums are a one-byte tag followed by the variant's fields. Each
//!   enum states its tag table **once**, in an
//!   [`enum_codec!`](crate::enum_codec) invocation: a variant missing
//!   from it, or a tag listed twice, breaks the build instead of
//!   silently skipping persistence. The `cloud-sim` enums that publish
//!   `ALL`/`index()` go through `index_codec!`: the tag is the
//!   variant's position in `ALL`, decided in `cloud_sim::ids` alone;
//! * a plain record is its fields in the order
//!   [`record_codec!`](crate::record_codec) lists them, nothing between.
//!   **That list is the wire order**, not the declaration order;
//!   reordering, adding or dropping an entry — like renumbering a tag —
//!   is a format change and needs a [`crate::frame::FORMAT_VERSION`]
//!   bump (`spotlight-core`'s `tests/golden/format4_records.hex` fails
//!   on an accidental one);
//! * `Option<T>` is a presence byte then the value; `Vec<T>` (like any
//!   slice) is a `usize` count then the elements; a `HashMap<K, V>` or
//!   `BTreeMap<K, V>` is a `usize` count then the `(key, value)` pairs
//!   in the map's own iteration order — key order for a `BTreeMap`, the
//!   one to use where the hasher is seeded per process.
//!
//! What stays hand-written is the code that *checks* something: the
//! primitives, the containers' length guards, `Az` (its constructor
//! panics past zone `z`), `InstanceType` (private fields, built through
//! its constructor), `spotlight-core`'s `EpochSeries` (strict epoch
//! order) and its checkpoint-stripe read (interval positions inside the
//! slab, binary-searched lists in order).
//!
//! Decoding is total: malformed input yields a [`DecodeError`], never a
//! panic, even though in practice every payload handed to `decode` has
//! already passed its frame CRC.

use cloud_sim::ids::{Az, Family, InstanceType, MarketId, Platform, Region, Size};
use cloud_sim::price::Price;
use cloud_sim::time::SimTime;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{BuildHasher, Hash};

/// A value that can serialize itself onto a byte buffer.
pub trait Encode {
    /// Appends the wire form of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Convenience: the wire form as a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }
}

/// A value that can deserialize itself from a [`Reader`].
pub trait Decode: Sized {
    /// Reads one value off the front of `r`.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated input or an invalid
    /// tag/length.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;

    /// Decodes a value that must consume the whole buffer.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if decoding fails or bytes are left
    /// over.
    fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        r.expect_empty()?;
        Ok(v)
    }
}

/// Why a decode failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the value did.
    Eof,
    /// A tag, length, or field value was out of range.
    Invalid(&'static str),
    /// Bytes were left over after a whole-buffer decode.
    TrailingBytes(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Eof => write!(f, "unexpected end of input"),
            DecodeError::Invalid(what) => write!(f, "invalid {what}"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A cursor over a byte slice being decoded.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Takes the next `n` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Eof`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Eof);
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Asserts the reader is exhausted.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::TrailingBytes`] otherwise.
    pub fn expect_empty(&self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes(self.remaining()))
        }
    }
}

impl Encode for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
}

impl Decode for u8 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        // Half of a record's fields are tag bytes: one bounds check,
        // no sub-slice (measured ~10 % of a `ProbeRecord` decode).
        let byte = *r.bytes.get(r.pos).ok_or(DecodeError::Eof)?;
        r.pos += 1;
        Ok(byte)
    }
}

/// Appends `v` as a canonical LEB128 varint (see the module docs).
#[inline]
fn put_varint(out: &mut Vec<u8>, v: u64) {
    // The lengths nearly every field has, each as one fixed-size
    // append: counters and lengths (1 byte), slab indices and epochs
    // (2), a study's timestamps and sub-$2 prices in micro-dollars (3).
    if v < 1 << 7 {
        out.push(v as u8);
    } else if v < 1 << 14 {
        out.extend_from_slice(&[v as u8 | 0x80, (v >> 7) as u8]);
    } else if v < 1 << 21 {
        out.extend_from_slice(&[v as u8 | 0x80, (v >> 7) as u8 | 0x80, (v >> 14) as u8]);
    } else {
        put_long_varint(out, v);
    }
}

/// The four-to-ten-byte arm of [`put_varint`], staged on the stack so
/// the buffer grows once, not per byte.
fn put_long_varint(out: &mut Vec<u8>, mut v: u64) {
    let mut buf = [0u8; 10];
    let mut n = 0;
    while v >= 0x80 {
        buf[n] = v as u8 | 0x80;
        v >>= 7;
        n += 1;
    }
    buf[n] = v as u8;
    out.extend_from_slice(&buf[..=n]);
}

/// Reads one canonical varint of a type `bits` wide.
#[inline]
fn take_varint(r: &mut Reader<'_>, bits: u32) -> Result<u64, DecodeError> {
    let rest = &r.bytes[r.pos..];
    match rest.first() {
        // The one-byte form — counters, lengths, small indices —
        // without entering the loop.
        Some(&byte) if byte < 0x80 => {
            r.pos += 1;
            Ok(u64::from(byte))
        }
        Some(_) => take_long_varint(r, rest, bits),
        None => Err(DecodeError::Eof),
    }
}

/// The multi-byte arm of [`take_varint`]; `rest[0]` has its high bit
/// set.
fn take_long_varint(r: &mut Reader<'_>, rest: &[u8], bits: u32) -> Result<u64, DecodeError> {
    let mut value = u64::from(rest[0] & 0x7f);
    let mut shift = 7;
    for (i, &byte) in rest.iter().enumerate().skip(1) {
        if shift >= bits {
            return Err(DecodeError::Invalid("varint longer than its type"));
        }
        let group = u64::from(byte & 0x7f);
        if bits - shift < 7 && group >> (bits - shift) != 0 {
            return Err(DecodeError::Invalid("varint wider than its type"));
        }
        value |= group << shift;
        if byte < 0x80 {
            if byte == 0 {
                return Err(DecodeError::Invalid("overlong varint"));
            }
            r.pos += i + 1;
            return Ok(value);
        }
        shift += 7;
    }
    Err(DecodeError::Eof)
}

macro_rules! varint_codec {
    ($($t:ty),+) => {
        $(
            impl Encode for $t {
                #[inline]
                fn encode(&self, out: &mut Vec<u8>) {
                    put_varint(out, *self as u64);
                }
            }
            impl Decode for $t {
                #[inline]
                fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                    // Lossless: `take_varint` refused bits past the width.
                    take_varint(r, <$t>::BITS).map(|v| v as $t)
                }
            }
        )+
    };
}
varint_codec!(u32, u64, usize);

impl Encode for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
}

impl Decode for f64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let raw = r.take(8)?;
        Ok(f64::from_bits(u64::from_le_bytes(
            raw.try_into().expect("sized take"),
        )))
    }
}

impl Encode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Invalid("bool byte")),
        }
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(DecodeError::Invalid("option tag")),
        }
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for item in self {
            item.encode(out);
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_slice().encode(out);
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = usize::decode(r)?;
        // Guard against nonsense lengths: each element costs at least
        // one byte on the wire.
        if len > r.remaining() {
            return Err(DecodeError::Invalid("vec length"));
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<K: Encode, V: Encode, S> Encode for HashMap<K, V, S> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }
}

impl<K, V, S> Decode for HashMap<K, V, S>
where
    K: Decode + Eq + Hash,
    V: Decode,
    S: BuildHasher + Default,
{
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = usize::decode(r)?;
        if len > r.remaining() {
            return Err(DecodeError::Invalid("map length"));
        }
        let mut map = HashMap::with_capacity_and_hasher(len, S::default());
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            map.insert(k, v);
        }
        Ok(map)
    }
}

impl<K: Encode, V: Encode> Encode for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }
}

/// Reads what either map wrote: pairs in any order.
impl<K: Decode + Ord, V: Decode> Decode for BTreeMap<K, V> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Vec::decode(r)?.into_iter().collect())
    }
}

/// `Encode` + `Decode` for a plain record from **one** field list: the
/// fields go out, and come back, in the order listed — the wire order
/// (module docs). Encode destructures `let Type { … } = self`, so a
/// field missing from the list does not compile; decode builds the
/// struct literal from the same list.
#[macro_export]
macro_rules! record_codec {
    ($($ty:ident { $($field:ident),+ $(,)? })+) => {
        $(
            impl $crate::Encode for $ty {
                fn encode(&self, out: &mut Vec<u8>) {
                    let $ty { $($field),+ } = self;
                    $($crate::Encode::encode($field, out);)+
                }
            }
            impl $crate::Decode for $ty {
                fn decode(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::DecodeError> {
                    Ok($ty { $($field: $crate::Decode::decode(r)?),+ })
                }
            }
        )+
    };
}

/// `Encode` + `Decode` for an enum from **one** tag table,
/// `tag => Unit`, `tag => Tuple(a, …)` or `tag => Struct { a, … }`: a
/// one-byte tag, then the variant's fields in the order listed. Encode
/// is an exhaustive `match` with no wildcard, so a variant missing
/// from the table does not compile; decode reads the table the other
/// way, refuses an unlisted tag as `Invalid($what)`, and a tag listed
/// twice is an unreachable arm — denied, so it does not compile either.
#[macro_export]
macro_rules! enum_codec {
    ($ty:ident, $what:literal {
        $($tag:literal => $variant:ident $(($($t:ident),+))? $({ $($s:ident),+ })?),+ $(,)?
    }) => {
        impl $crate::Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$variant $(($($t),+))? $({ $($s),+ })? => {
                        out.push($tag);
                        $($($crate::Encode::encode($t, out);)+)?
                        $($($crate::Encode::encode($s, out);)+)?
                    })+
                }
            }
        }
        impl $crate::Decode for $ty {
            #[deny(unreachable_patterns)]
            fn decode(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::DecodeError> {
                match <u8 as $crate::Decode>::decode(r)? {
                    $($tag => {
                        $($(let $t = $crate::Decode::decode(r)?;)+)?
                        $($(let $s = $crate::Decode::decode(r)?;)+)?
                        Ok($ty::$variant $(($($t),+))? $({ $($s),+ })?)
                    })+
                    _ => Err($crate::DecodeError::Invalid($what)),
                }
            }
        }
    };
}

// ---------------------------------------------------------------------
// cloud-sim vocabulary
// ---------------------------------------------------------------------

impl Encode for SimTime {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_secs().encode(out);
    }
}

impl Decode for SimTime {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(SimTime::from_secs(u64::decode(r)?))
    }
}

impl Encode for Price {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_micros().encode(out);
    }
}

impl Decode for Price {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Price::from_micros(u64::decode(r)?))
    }
}

/// `Encode` + `Decode` for the vocabulary enums that publish
/// `ALL`/`index()`: the tag is the variant's position in `ALL`, so
/// `cloud_sim::ids` alone decides it (`ALL` is checked dense under
/// `index` in the tests below).
macro_rules! index_codec {
    ($($ty:ident, $what:literal);+ $(;)?) => {
        $(
            impl Encode for $ty {
                fn encode(&self, out: &mut Vec<u8>) {
                    out.push(self.index() as u8);
                }
            }
            impl Decode for $ty {
                fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                    let tag = u8::decode(r)? as usize;
                    $ty::ALL.get(tag).copied().ok_or(DecodeError::Invalid($what))
                }
            }
        )+
    };
}
index_codec! {
    Region, "region tag";
    Family, "family tag";
    Size, "size tag";
    Platform, "platform tag";
}

impl Encode for Az {
    fn encode(&self, out: &mut Vec<u8>) {
        self.region().encode(out);
        out.push(self.zone_index());
    }
}

impl Decode for Az {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let region = Region::decode(r)?;
        let index = u8::decode(r)?;
        if index >= 26 {
            // `Az::new` panics past `z`; decode must stay total.
            return Err(DecodeError::Invalid("az index"));
        }
        Ok(Az::new(region, index))
    }
}

impl Encode for InstanceType {
    fn encode(&self, out: &mut Vec<u8>) {
        self.family().encode(out);
        self.size().encode(out);
    }
}

impl Decode for InstanceType {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(InstanceType::new(Family::decode(r)?, Size::decode(r)?))
    }
}

record_codec! { MarketId { az, instance_type, platform } }

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(T::from_bytes(&bytes).expect("decode"), v);
    }

    fn market() -> MarketId {
        MarketId {
            az: Az::new(Region::EuWest1, 2),
            instance_type: "d2.2xlarge".parse().unwrap(),
            platform: Platform::LinuxUnix,
        }
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(u64::MAX);
        round_trip(1.5f64);
        round_trip(f64::NAN.to_bits()); // NaN itself is != NaN
        assert!(f64::from_bytes(&f64::NAN.to_bytes()).unwrap().is_nan());
        round_trip(true);
        round_trip(Some(42u32));
        round_trip(None::<u32>);
        round_trip(vec![1u32, 2, 3]);
        round_trip((7u8, 9u64));
        assert_eq!([4u64, 5][..].to_bytes(), vec![4u64, 5].to_bytes());
    }

    #[test]
    fn cloud_sim_ids_round_trip() {
        for region in Region::ALL {
            round_trip(region);
        }
        for family in Family::ALL {
            round_trip(family);
        }
        for size in Size::ALL {
            round_trip(size);
        }
        for platform in Platform::ALL {
            round_trip(platform);
        }
        round_trip(Az::new(Region::UsWest2, 25));
        round_trip(market());
        round_trip(SimTime::from_secs(86_400));
        round_trip(Price::from_dollars(0.1234));
    }

    #[test]
    fn decode_is_total_on_garbage() {
        // Ends inside a varint (every byte promises another)...
        assert_eq!(u64::from_bytes(&[0x81, 0x82, 0x83]), Err(DecodeError::Eof));
        assert_eq!(u64::from_bytes(&[]), Err(DecodeError::Eof));
        assert_eq!(f64::from_bytes(&[1, 2, 3]), Err(DecodeError::Eof));
        // ...and the same three bytes without the promise are one
        // one-byte integer and two bytes nobody asked for.
        assert_eq!(
            u64::from_bytes(&[1, 2, 3]),
            Err(DecodeError::TrailingBytes(2))
        );
        assert!(matches!(
            Region::from_bytes(&[200]),
            Err(DecodeError::Invalid(_))
        ));
        assert!(matches!(
            Az::from_bytes(&[0, 26]),
            Err(DecodeError::Invalid(_))
        ));
        assert!(matches!(
            bool::from_bytes(&[7]),
            Err(DecodeError::Invalid(_))
        ));
        // Length prefix far past the buffer must not allocate wildly.
        let mut bogus = Vec::new();
        u32::MAX.encode(&mut bogus);
        assert!(Vec::<u64>::from_bytes(&bogus).is_err());
        assert_eq!(u8::from_bytes(&[1, 9]), Err(DecodeError::TrailingBytes(1)));
    }

    /// Bytes of the canonical varint of `v`: one per started group of
    /// seven significant bits, one for zero.
    fn varint_len(v: u64) -> usize {
        (64 - v.leading_zeros()).div_ceil(7).max(1) as usize
    }

    #[test]
    fn varint_lengths_are_pinned_at_the_boundaries() {
        assert_eq!(0u64.to_bytes(), [0x00]);
        assert_eq!(127u64.to_bytes(), [0x7f]);
        assert_eq!(128u64.to_bytes(), [0x80, 0x01]);
        assert_eq!(300u32.to_bytes(), [0xac, 0x02]);
        // `2^(7k) - 1` is the largest value of k bytes, `2^(7k)` the
        // smallest of k + 1 — for every integer type it fits.
        for k in 1..=9usize {
            for (v, len) in [((1u64 << (7 * k)) - 1, k), (1u64 << (7 * k), k + 1)] {
                assert_eq!(v.to_bytes().len(), len, "{v} as u64");
                assert_eq!(varint_len(v), len);
                round_trip(v);
                assert_eq!((v as usize).to_bytes(), v.to_bytes());
                round_trip(v as usize);
                if let Ok(small) = u32::try_from(v) {
                    assert_eq!(small.to_bytes(), v.to_bytes());
                    round_trip(small);
                }
            }
        }
        assert_eq!(u32::MAX.to_bytes(), [0xff, 0xff, 0xff, 0xff, 0x0f]);
        assert_eq!(u64::MAX.to_bytes().len(), 10);
        assert_eq!(u64::MAX.to_bytes()[9], 0x01);
        assert_eq!(usize::MAX.to_bytes().len(), varint_len(usize::MAX as u64));
        round_trip(u32::MAX);
        round_trip(u64::MAX);
        round_trip(usize::MAX);
    }

    #[test]
    fn non_canonical_varints_are_refused() {
        let invalid = |r: Result<u64, DecodeError>| matches!(r, Err(DecodeError::Invalid(_)));
        // Overlong: a trailing all-zero group says nothing.
        assert!(invalid(u64::from_bytes(&[0x80, 0x00])));
        assert!(invalid(u64::from_bytes(&[0xff, 0x80, 0x00])));
        assert_eq!(u64::from_bytes(&[0xff, 0x80, 0x01]), Ok(0x407f));
        // Over-wide: a u32's fifth byte carries four bits, a u64's
        // tenth carries one.
        assert_eq!(
            u32::from_bytes(&[0xff, 0xff, 0xff, 0xff, 0x0f]),
            Ok(u32::MAX)
        );
        assert!(matches!(
            u32::from_bytes(&[0xff, 0xff, 0xff, 0xff, 0x10]),
            Err(DecodeError::Invalid(_))
        ));
        let mut widest = [0xff; 10];
        widest[9] = 0x01;
        assert_eq!(u64::from_bytes(&widest), Ok(u64::MAX));
        widest[9] = 0x02;
        assert!(invalid(u64::from_bytes(&widest)));
        // Too long: a sixth byte of a u32, an eleventh of a u64.
        assert!(matches!(
            u32::from_bytes(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x01]),
            Err(DecodeError::Invalid(_))
        ));
        let mut eleven = [0x80; 11];
        eleven[10] = 0x01;
        assert!(invalid(u64::from_bytes(&eleven)));
        assert!(matches!(
            usize::from_bytes(&eleven),
            Err(DecodeError::Invalid(_))
        ));
        // Truncated is `Eof`, whatever the type.
        assert_eq!(u32::from_bytes(&[0x80]), Err(DecodeError::Eof));
        assert_eq!(u64::from_bytes(&[0xff; 9]), Err(DecodeError::Eof));
        assert_eq!(usize::from_bytes(&[0xff, 0xff]), Err(DecodeError::Eof));
    }

    proptest! {
        // Every length of varint (a uniform u64 is nearly always ten
        // bytes, so the draw is shifted down by a drawn amount).
        #[test]
        fn varints_round_trip_at_every_length(raw in any::<u64>(), shift in 0u32..64) {
            let v = raw >> shift;
            let bytes = v.to_bytes();
            prop_assert_eq!(bytes.len(), varint_len(v));
            prop_assert_eq!(u64::from_bytes(&bytes), Ok(v));
            prop_assert_eq!(usize::from_bytes(&bytes), Ok(v as usize));
            match u32::try_from(v) {
                Ok(small) => {
                    prop_assert_eq!(&small.to_bytes(), &bytes);
                    prop_assert_eq!(u32::from_bytes(&bytes), Ok(small));
                }
                Err(_) => prop_assert!(matches!(
                    u32::from_bytes(&bytes),
                    Err(DecodeError::Invalid(_))
                )),
            }
            for cut in 0..bytes.len() {
                prop_assert_eq!(u64::from_bytes(&bytes[..cut]), Err(DecodeError::Eof));
            }
            // The same value with one more (empty) group is refused.
            let mut padded = bytes;
            *padded.last_mut().expect("at least one byte") |= 0x80;
            padded.push(0);
            prop_assert!(matches!(
                u64::from_bytes(&padded),
                Err(DecodeError::Invalid(_))
            ));
        }

        // Arbitrary bytes never panic a decoder, and whatever decodes
        // is the one encoding of its value.
        #[test]
        fn integer_decoders_are_total_and_canonical(
            bytes in proptest::collection::vec(any::<u8>(), 0..14),
        ) {
            fn check<T: Encode + Decode>(bytes: &[u8]) -> bool {
                let mut r = Reader::new(bytes);
                match T::decode(&mut r) {
                    Ok(v) => v.to_bytes() == bytes[..bytes.len() - r.remaining()],
                    Err(_) => true,
                }
            }
            prop_assert!(check::<u8>(&bytes));
            prop_assert!(check::<u32>(&bytes));
            prop_assert!(check::<u64>(&bytes));
            prop_assert!(check::<usize>(&bytes));
            prop_assert!(check::<Vec<u32>>(&bytes));
            prop_assert!(check::<Option<u64>>(&bytes));
            prop_assert!(check::<MarketId>(&bytes));
            prop_assert!(check::<Size>(&bytes));
        }
    }

    #[test]
    fn region_all_is_dense_under_index() {
        for (i, region) in Region::ALL.iter().enumerate() {
            assert_eq!(region.index(), i);
        }
        for (i, family) in Family::ALL.iter().enumerate() {
            assert_eq!(family.index(), i);
        }
        for (i, size) in Size::ALL.iter().enumerate() {
            assert_eq!(size.index(), i);
        }
        for (i, platform) in Platform::ALL.iter().enumerate() {
            assert_eq!(platform.index(), i);
        }
    }
}
