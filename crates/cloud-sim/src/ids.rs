//! Identifiers for the entities in the simulated cloud.
//!
//! The identifier vocabulary mirrors EC2's: a [`Region`] contains
//! [`Az`]s (availability zones); an [`InstanceType`] is a [`Family`]
//! plus a [`Size`]; a *spot market* ([`MarketId`]) is the combination of
//! an availability zone, an instance type, and a [`Platform`] (product
//! description). Capacity is pooled per `(Az, Family)` — a [`PoolId`] —
//! following the shared-pool model of the paper's Figure 2.2.
//!
//! # Examples
//!
//! ```
//! use cloud_sim::ids::{InstanceType, Region};
//!
//! let ty: InstanceType = "c3.2xlarge".parse()?;
//! assert_eq!(ty.family().name(), "c3");
//! assert_eq!(ty.units(), 8);
//! let region: Region = "us-east-1".parse()?;
//! assert_eq!(region.name(), "us-east-1");
//! # Ok::<(), cloud_sim::ids::ParseIdError>(())
//! ```

use std::fmt;
use std::str::FromStr;

/// Error returned when parsing a region, size, or instance type fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseIdError {
    kind: &'static str,
    input: String,
}

impl ParseIdError {
    fn new(kind: &'static str, input: &str) -> Self {
        ParseIdError {
            kind,
            input: input.to_owned(),
        }
    }
}

impl fmt::Display for ParseIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown {} `{}`", self.kind, self.input)
    }
}

impl std::error::Error for ParseIdError {}

/// A vocabulary's wire names, listed once: the `const fn` that names a
/// variant and the `FromStr` that is a `match` on the same strings, so
/// the two cannot disagree and parsing is not a search.
macro_rules! names {
    ($ty:ident, $kind:literal, $(#[$doc:meta])* $getter:ident: $($variant:ident => $name:literal,)+) => {
        impl $ty {
            $(#[$doc])*
            pub const fn $getter(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)+
                }
            }
        }

        impl FromStr for $ty {
            type Err = ParseIdError;

            fn from_str(s: &str) -> Result<Self, Self::Err> {
                match s {
                    $($name => Ok($ty::$variant),)+
                    _ => Err(ParseIdError::new($kind, s)),
                }
            }
        }
    };
}

/// A geographical region of the cloud.
///
/// The nine regions match EC2's footprint at the time of the SpotLight
/// study (Chapter 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Region {
    /// N. Virginia — EC2's largest and best-provisioned region.
    UsEast1,
    /// N. California.
    UsWest1,
    /// Oregon.
    UsWest2,
    /// Ireland.
    EuWest1,
    /// Frankfurt.
    EuCentral1,
    /// Tokyo.
    ApNortheast1,
    /// Singapore — under-provisioned in the paper's data.
    ApSoutheast1,
    /// Sydney — under-provisioned in the paper's data.
    ApSoutheast2,
    /// São Paulo — the most under-provisioned region in the paper's data.
    SaEast1,
}

impl Region {
    /// All nine regions, in canonical order.
    pub const ALL: [Region; 9] = [
        Region::UsEast1,
        Region::UsWest1,
        Region::UsWest2,
        Region::EuWest1,
        Region::EuCentral1,
        Region::ApNortheast1,
        Region::ApSoutheast1,
        Region::ApSoutheast2,
        Region::SaEast1,
    ];

    /// A dense index in `0..9`, usable for array-backed per-region state.
    pub const fn index(self) -> usize {
        match self {
            Region::UsEast1 => 0,
            Region::UsWest1 => 1,
            Region::UsWest2 => 2,
            Region::EuWest1 => 3,
            Region::EuCentral1 => 4,
            Region::ApNortheast1 => 5,
            Region::ApSoutheast1 => 6,
            Region::ApSoutheast2 => 7,
            Region::SaEast1 => 8,
        }
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

names! { Region, "region",
    /// The canonical lowercase region name, e.g. `"us-east-1"`.
    name:
    UsEast1 => "us-east-1",
    UsWest1 => "us-west-1",
    UsWest2 => "us-west-2",
    EuWest1 => "eu-west-1",
    EuCentral1 => "eu-central-1",
    ApNortheast1 => "ap-northeast-1",
    ApSoutheast1 => "ap-southeast-1",
    ApSoutheast2 => "ap-southeast-2",
    SaEast1 => "sa-east-1",
}

/// An availability zone: a region plus a zone letter (`a`, `b`, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Az {
    region: Region,
    index: u8,
}

impl Az {
    /// Creates the `index`-th zone of `region` (0 = `a`, 1 = `b`, …).
    ///
    /// # Panics
    ///
    /// Panics if `index >= 26` (zone letters run `a..=z`).
    pub fn new(region: Region, index: u8) -> Self {
        assert!(index < 26, "availability zone index out of range: {index}");
        Az { region, index }
    }

    /// The region this zone belongs to.
    pub const fn region(self) -> Region {
        self.region
    }

    /// The zero-based zone index within its region.
    pub const fn zone_index(self) -> u8 {
        self.index
    }

    /// The zone letter, `'a'` for index 0 and so on.
    pub const fn letter(self) -> char {
        (b'a' + self.index) as char
    }
}

impl fmt::Display for Az {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.region.name(), self.letter())
    }
}

impl FromStr for Az {
    type Err = ParseIdError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseIdError::new("availability zone", s);
        let Some((&letter, region)) = s.as_bytes().split_last() else {
            return Err(err());
        };
        if !letter.is_ascii_lowercase() {
            return Err(err());
        }
        // The letter is one ASCII byte, so the cut is a char boundary
        // whatever precedes it.
        let region: Region = s[..region.len()].parse().map_err(|_| err())?;
        Ok(Az::new(region, letter - b'a'))
    }
}

/// An instance family: types sharing a hardware platform and a name
/// prefix (`m3.*`, `c4.*`, …).
///
/// The paper defines a family as "server types with the same prefix"
/// (§3.2.1) and assumes members of a family share one physical pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Family {
    /// Burstable previous generation.
    T1,
    /// Burstable general purpose.
    T2,
    /// General purpose, first generation.
    M1,
    /// Memory optimized, previous generation.
    M2,
    /// General purpose, third generation.
    M3,
    /// General purpose, fourth generation.
    M4,
    /// Compute optimized, first generation.
    C1,
    /// Compute optimized, third generation.
    C3,
    /// Compute optimized, fourth generation.
    C4,
    /// Memory optimized, third generation.
    R3,
    /// Dense storage.
    D2,
    /// GPU.
    G2,
    /// Storage optimized (IOPS).
    I2,
    /// High storage density, previous generation.
    Hs1,
    /// High I/O, previous generation.
    Hi1,
    /// Cluster compute.
    Cc2,
    /// High-memory cluster.
    Cr1,
    /// Cluster GPU.
    Cg1,
}

impl Family {
    /// All families, in canonical order.
    pub const ALL: [Family; 18] = [
        Family::T1,
        Family::T2,
        Family::M1,
        Family::M2,
        Family::M3,
        Family::M4,
        Family::C1,
        Family::C3,
        Family::C4,
        Family::R3,
        Family::D2,
        Family::G2,
        Family::I2,
        Family::Hs1,
        Family::Hi1,
        Family::Cc2,
        Family::Cr1,
        Family::Cg1,
    ];

    /// A dense index usable for array-backed per-family state.
    pub fn index(self) -> usize {
        Family::ALL
            .iter()
            .position(|f| *f == self)
            .expect("family in ALL")
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

names! { Family, "instance family",
    /// The lowercase family prefix, e.g. `"c3"`.
    name:
    T1 => "t1",
    T2 => "t2",
    M1 => "m1",
    M2 => "m2",
    M3 => "m3",
    M4 => "m4",
    C1 => "c1",
    C3 => "c3",
    C4 => "c4",
    R3 => "r3",
    D2 => "d2",
    G2 => "g2",
    I2 => "i2",
    Hs1 => "hs1",
    Hi1 => "hi1",
    Cc2 => "cc2",
    Cr1 => "cr1",
    Cg1 => "cg1",
}

/// An instance size within a family.
///
/// Sizes within a family differ by powers of two in capacity (§3.2.1),
/// which is what makes bin-packing them onto one physical pool simple and
/// what [`Size::units`] encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Size {
    /// `.micro`
    Micro,
    /// `.small`
    Small,
    /// `.medium`
    Medium,
    /// `.large`
    Large,
    /// `.xlarge`
    Xlarge,
    /// `.2xlarge`
    X2,
    /// `.4xlarge`
    X4,
    /// `.8xlarge`
    X8,
    /// `.10xlarge`
    X10,
}

impl Size {
    /// All sizes, in canonical order.
    pub const ALL: [Size; 9] = [
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

    /// A dense index in `0..9`: the size's position in [`Size::ALL`].
    pub const fn index(self) -> usize {
        match self {
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

    /// Normalized capacity units consumed by one instance of this size.
    ///
    /// One unit is roughly one "small" worth of hardware; sizes double:
    /// `large` = 2, `xlarge` = 4, …, `8xlarge` = 32.
    pub const fn units(self) -> u32 {
        match self {
            Size::Micro => 1,
            Size::Small => 1,
            Size::Medium => 1,
            Size::Large => 2,
            Size::Xlarge => 4,
            Size::X2 => 8,
            Size::X4 => 16,
            Size::X8 => 32,
            Size::X10 => 40,
        }
    }
}

impl fmt::Display for Size {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.suffix())
    }
}

names! { Size, "instance size",
    /// The size suffix, e.g. `"2xlarge"`.
    suffix:
    Micro => "micro",
    Small => "small",
    Medium => "medium",
    Large => "large",
    Xlarge => "xlarge",
    X2 => "2xlarge",
    X4 => "4xlarge",
    X8 => "8xlarge",
    X10 => "10xlarge",
}

/// An instance type: a family plus a size, e.g. `c3.2xlarge`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceType {
    family: Family,
    size: Size,
}

impl InstanceType {
    /// Creates an instance type from its family and size.
    pub const fn new(family: Family, size: Size) -> Self {
        InstanceType { family, size }
    }

    /// The family prefix of the type.
    pub const fn family(self) -> Family {
        self.family
    }

    /// The size of the type.
    pub const fn size(self) -> Size {
        self.size
    }

    /// Normalized capacity units one instance of this type occupies in
    /// its family pool.
    pub const fn units(self) -> u32 {
        self.size.units()
    }
}

impl fmt::Display for InstanceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.family, self.size)
    }
}

impl FromStr for InstanceType {
    type Err = ParseIdError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (fam, size) = s
            .split_once('.')
            .ok_or_else(|| ParseIdError::new("instance type", s))?;
        Ok(InstanceType::new(
            fam.parse()
                .map_err(|_| ParseIdError::new("instance type", s))?,
            size.parse()
                .map_err(|_| ParseIdError::new("instance type", s))?,
        ))
    }
}

/// A product platform / product description, e.g. `Linux/UNIX`.
///
/// Each platform of each instance type in each availability zone is a
/// distinct spot market with its own price (Chapter 2), but all platforms
/// share the same physical pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Platform {
    /// `Linux/UNIX` (EC2-Classic).
    LinuxUnix,
    /// `Linux/UNIX (Amazon VPC)`.
    LinuxUnixVpc,
    /// `Windows`.
    Windows,
    /// `SUSE Linux`.
    SuseLinux,
}

impl Platform {
    /// All platforms, in canonical order.
    pub const ALL: [Platform; 4] = [
        Platform::LinuxUnix,
        Platform::LinuxUnixVpc,
        Platform::Windows,
        Platform::SuseLinux,
    ];

    /// The product-description string EC2 uses for this platform.
    pub const fn description(self) -> &'static str {
        match self {
            Platform::LinuxUnix => "Linux/UNIX",
            Platform::LinuxUnixVpc => "Linux/UNIX (Amazon VPC)",
            Platform::Windows => "Windows",
            Platform::SuseLinux => "SUSE Linux",
        }
    }

    /// A dense index usable for array-backed per-platform state.
    pub fn index(self) -> usize {
        Platform::ALL
            .iter()
            .position(|p| *p == self)
            .expect("platform in ALL")
    }

    /// The multiplicative markup over the base (Linux/UNIX) on-demand
    /// price for this platform's license/overhead.
    pub const fn price_markup(self) -> f64 {
        match self {
            Platform::LinuxUnix => 1.0,
            Platform::LinuxUnixVpc => 1.0,
            Platform::Windows => 1.35,
            Platform::SuseLinux => 1.10,
        }
    }
}

impl fmt::Display for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.description())
    }
}

/// A capacity pool identifier: one physical pool per family per zone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PoolId {
    /// The availability zone hosting the pool.
    pub az: Az,
    /// The hardware family the pool serves.
    pub family: Family,
}

impl fmt::Display for PoolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.az, self.family)
    }
}

/// A market identifier: one spot (and on-demand) market per availability
/// zone × instance type × platform, the unit SpotLight monitors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MarketId {
    /// The availability zone.
    pub az: Az,
    /// The instance type.
    pub instance_type: InstanceType,
    /// The product platform.
    pub platform: Platform,
}

impl MarketId {
    /// The capacity pool backing this market.
    pub const fn pool(self) -> PoolId {
        PoolId {
            az: self.az,
            family: self.instance_type.family(),
        }
    }

    /// The region containing this market.
    pub const fn region(self) -> Region {
        self.az.region()
    }

    /// The market for the same type and platform in a different zone.
    pub const fn with_az(self, az: Az) -> MarketId {
        MarketId { az, ..self }
    }

    /// The market for a different type in the same zone and platform.
    pub const fn with_type(self, instance_type: InstanceType) -> MarketId {
        MarketId {
            instance_type,
            ..self
        }
    }
}

impl fmt::Display for MarketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/{}", self.az, self.instance_type, self.platform)
    }
}

/// Unique identifier of a launched instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId(pub u64);

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i-{:08x}", self.0)
    }
}

/// Unique identifier of a spot instance request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpotRequestId(pub u64);

impl fmt::Display for SpotRequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sir-{:08x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_roundtrip() {
        for r in Region::ALL {
            assert_eq!(r.name().parse::<Region>().unwrap(), r);
        }
        assert!("mars-north-1".parse::<Region>().is_err());
    }

    /// Every name the vocabulary can print parses back to what printed
    /// it, and a near-miss is refused with the text it always was (the
    /// HTTP tier's 400 bodies quote these).
    #[test]
    fn every_name_round_trips_and_near_misses_keep_their_errors() {
        fn check<T>(all: &[T], name_of: impl Fn(&T) -> String, kind: &str)
        where
            T: FromStr<Err = ParseIdError> + PartialEq + fmt::Debug,
        {
            let names: Vec<String> = all.iter().map(name_of).collect();
            for (value, name) in all.iter().zip(&names) {
                assert_eq!(name.parse::<T>().as_ref(), Ok(value), "{name}");
                let misses = [
                    name.to_uppercase(),
                    format!("{name}x"),
                    format!(" {name}"),
                    name[..name.len() - 1].to_owned(),
                ];
                for miss in misses.iter().filter(|miss| !names.contains(miss)) {
                    let error = miss.parse::<T>().expect_err(miss);
                    assert_eq!(error.to_string(), format!("unknown {kind} `{miss}`"));
                }
            }
            let error = "".parse::<T>().expect_err("empty");
            assert_eq!(error.to_string(), format!("unknown {kind} ``"));
        }
        let catalog = crate::catalog::Catalog::standard();
        check(&Region::ALL, |r| r.name().to_owned(), "region");
        check(&Family::ALL, |f| f.name().to_owned(), "instance family");
        check(&Size::ALL, |z| z.suffix().to_owned(), "instance size");
        check(
            catalog.instance_types(),
            ToString::to_string,
            "instance type",
        );
        check(catalog.azs(), ToString::to_string, "availability zone");
    }

    #[test]
    fn region_indices_dense() {
        for (i, r) in Region::ALL.into_iter().enumerate() {
            assert_eq!(r.index(), i);
        }
    }

    #[test]
    fn az_display_and_parse() {
        let az = Az::new(Region::UsEast1, 3);
        assert_eq!(az.to_string(), "us-east-1d");
        assert_eq!("us-east-1d".parse::<Az>().unwrap(), az);
        assert!("us-east-1".parse::<Az>().is_err());
        assert!("us-east-1D".parse::<Az>().is_err());
        assert!("".parse::<Az>().is_err());
        assert!("a".parse::<Az>().is_err());
        // A multi-byte last character must be an error, not a slice
        // panic inside the character.
        assert!("us-east-1\u{e9}".parse::<Az>().is_err());
    }

    #[test]
    fn instance_type_roundtrip() {
        let ty: InstanceType = "c3.2xlarge".parse().unwrap();
        assert_eq!(ty.family(), Family::C3);
        assert_eq!(ty.size(), Size::X2);
        assert_eq!(ty.to_string(), "c3.2xlarge");
        assert!("c3".parse::<InstanceType>().is_err());
        assert!("zz.9xlarge".parse::<InstanceType>().is_err());
    }

    #[test]
    fn sizes_double() {
        assert_eq!(Size::Large.units() * 2, Size::Xlarge.units());
        assert_eq!(Size::Xlarge.units() * 2, Size::X2.units());
        assert_eq!(Size::X2.units() * 2, Size::X4.units());
        assert_eq!(Size::X4.units() * 2, Size::X8.units());
    }

    #[test]
    fn market_id_relations() {
        let az = Az::new(Region::UsEast1, 4);
        let m = MarketId {
            az,
            instance_type: "d2.2xlarge".parse().unwrap(),
            platform: Platform::Windows,
        };
        assert_eq!(m.pool().family, Family::D2);
        assert_eq!(m.region(), Region::UsEast1);
        let other_az = Az::new(Region::UsEast1, 0);
        assert_eq!(m.with_az(other_az).az, other_az);
        assert_eq!(m.to_string(), "us-east-1e/d2.2xlarge/Windows");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn az_index_out_of_range_panics() {
        let _ = Az::new(Region::UsEast1, 26);
    }
}
