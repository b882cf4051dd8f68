//! The binary serialization layer: [`Encode`]/[`Decode`] for the
//! primitives and `cloud-sim` vocabulary every persisted record is
//! built from.
//!
//! Wire conventions (see [`crate::frame`] for the envelope and the
//! format version):
//!
//! * integers are little-endian fixed width; `usize` lengths travel as
//!   `u32` (a single record never holds 4 billion elements);
//! * `f64` travels as its IEEE bit pattern (`to_bits`), so round-trips
//!   are bit-exact including NaN payloads;
//! * enums are a one-byte tag followed by the variant's fields. Tags
//!   are assigned by **exhaustive `match`es** — adding a variant
//!   upstream breaks this crate's build instead of silently skipping
//!   persistence;
//! * `Option<T>` is a presence byte then the value; `Vec<T>` (like any
//!   slice) is a `u32` count then the elements.
//!
//! Decoding is total: malformed input yields a [`DecodeError`], never a
//! panic, even though in practice every payload handed to `decode` has
//! already passed its frame CRC.

use cloud_sim::ids::{Az, Family, InstanceType, MarketId, Platform, Region, Size};
use cloud_sim::price::Price;
use cloud_sim::time::SimTime;
use std::fmt;

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

macro_rules! int_codec {
    ($($t:ty),+) => {
        $(
            impl Encode for $t {
                fn encode(&self, out: &mut Vec<u8>) {
                    out.extend_from_slice(&self.to_le_bytes());
                }
            }
            impl Decode for $t {
                fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                    let raw = r.take(std::mem::size_of::<$t>())?;
                    Ok(<$t>::from_le_bytes(raw.try_into().expect("sized take")))
                }
            }
        )+
    };
}
int_codec!(u8, u32, u64);

impl Encode for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        u32::try_from(*self)
            .expect("collection length fits u32")
            .encode(out);
    }
}

impl Decode for usize {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(u32::decode(r)? as usize)
    }
}

impl Encode for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
}

impl Decode for f64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(f64::from_bits(u64::decode(r)?))
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

impl Encode for Region {
    fn encode(&self, out: &mut Vec<u8>) {
        // `Region::index` is an exhaustive match in cloud-sim and
        // `ALL` is checked dense below, so the tag is stable.
        out.push(self.index() as u8);
    }
}

impl Decode for Region {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let tag = u8::decode(r)? as usize;
        Region::ALL
            .get(tag)
            .copied()
            .ok_or(DecodeError::Invalid("region tag"))
    }
}

impl Encode for Family {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.index() as u8);
    }
}

impl Decode for Family {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let tag = u8::decode(r)? as usize;
        Family::ALL
            .get(tag)
            .copied()
            .ok_or(DecodeError::Invalid("family tag"))
    }
}

/// The canonical wire order of [`Size`] variants. `Size` exposes no
/// `ALL`/`index` upstream, so the tag table lives here; the match in
/// [`size_tag`] is exhaustive, so a new size breaks this build.
const SIZE_ALL: [Size; 9] = [
    Size::Micro,
    Size::Small,
    Size::Medium,
    Size::Large,
    Size::Xlarge,
    Size::X2,
    Size::X4,
    Size::X8,
    Size::X10,
];

fn size_tag(size: Size) -> u8 {
    match size {
        Size::Micro => 0,
        Size::Small => 1,
        Size::Medium => 2,
        Size::Large => 3,
        Size::Xlarge => 4,
        Size::X2 => 5,
        Size::X4 => 6,
        Size::X8 => 7,
        Size::X10 => 8,
    }
}

impl Encode for Size {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(size_tag(*self));
    }
}

impl Decode for Size {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let tag = u8::decode(r)? as usize;
        SIZE_ALL
            .get(tag)
            .copied()
            .ok_or(DecodeError::Invalid("size tag"))
    }
}

impl Encode for Platform {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.index() as u8);
    }
}

impl Decode for Platform {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let tag = u8::decode(r)? as usize;
        Platform::ALL
            .get(tag)
            .copied()
            .ok_or(DecodeError::Invalid("platform tag"))
    }
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

impl Encode for MarketId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.az.encode(out);
        self.instance_type.encode(out);
        self.platform.encode(out);
    }
}

impl Decode for MarketId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(MarketId {
            az: Az::decode(r)?,
            instance_type: InstanceType::decode(r)?,
            platform: Platform::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        for size in SIZE_ALL {
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
        assert_eq!(u64::from_bytes(&[1, 2, 3]), Err(DecodeError::Eof));
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

    #[test]
    fn region_all_is_dense_under_index() {
        for (i, region) in Region::ALL.iter().enumerate() {
            assert_eq!(region.index(), i);
        }
        for (i, family) in Family::ALL.iter().enumerate() {
            assert_eq!(family.index(), i);
        }
        for (i, platform) in Platform::ALL.iter().enumerate() {
            assert_eq!(platform.index(), i);
        }
    }
}
