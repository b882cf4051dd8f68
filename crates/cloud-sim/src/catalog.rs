//! The cloud's offering: regions, zones, instance types, platforms, and
//! on-demand prices.
//!
//! The standard catalog reproduces EC2's footprint at the time of the
//! SpotLight study: 53 instance types, 9 regions, 26 availability zones,
//! and 4 product platforms, for roughly five thousand distinct spot
//! markets and well over a thousand on-demand markets (Chapters 1 and 4
//! of the paper). Tests and examples can build arbitrarily small catalogs
//! with [`CatalogBuilder`].
//!
//! # Examples
//!
//! ```
//! use cloud_sim::catalog::Catalog;
//! use cloud_sim::ids::{Platform, Region};
//!
//! let catalog = Catalog::standard();
//! assert_eq!(catalog.azs().len(), 26);
//! assert!(catalog.markets().len() > 4500);
//! let ty = "c3.2xlarge".parse()?;
//! let od = catalog.od_price_region(Region::UsEast1, ty, Platform::LinuxUnix);
//! assert_eq!(od.as_dollars(), 0.42);
//! # Ok::<(), cloud_sim::ids::ParseIdError>(())
//! ```

use crate::ids::{Az, Family, InstanceType, MarketId, Platform, PoolId, Region, Size};
use crate::price::Price;
use std::collections::{BTreeMap, BTreeSet};

/// Base (us-east-1, Linux/UNIX) hourly on-demand prices in dollars for
/// all 53 instance types of the standard catalog.
const BASE_PRICES: &[(Family, Size, f64)] = &[
    (Family::T1, Size::Micro, 0.020),
    (Family::T2, Size::Micro, 0.013),
    (Family::T2, Size::Small, 0.026),
    (Family::T2, Size::Medium, 0.052),
    (Family::T2, Size::Large, 0.104),
    (Family::M1, Size::Small, 0.044),
    (Family::M1, Size::Medium, 0.087),
    (Family::M1, Size::Large, 0.175),
    (Family::M1, Size::Xlarge, 0.350),
    (Family::M2, Size::Xlarge, 0.245),
    (Family::M2, Size::X2, 0.490),
    (Family::M2, Size::X4, 0.980),
    (Family::M3, Size::Medium, 0.067),
    (Family::M3, Size::Large, 0.133),
    (Family::M3, Size::Xlarge, 0.266),
    (Family::M3, Size::X2, 0.532),
    (Family::M4, Size::Large, 0.126),
    (Family::M4, Size::Xlarge, 0.252),
    (Family::M4, Size::X2, 0.504),
    (Family::M4, Size::X4, 1.008),
    (Family::M4, Size::X10, 2.520),
    (Family::C1, Size::Medium, 0.130),
    (Family::C1, Size::Xlarge, 0.520),
    (Family::C3, Size::Large, 0.105),
    (Family::C3, Size::Xlarge, 0.210),
    (Family::C3, Size::X2, 0.420),
    (Family::C3, Size::X4, 0.840),
    (Family::C3, Size::X8, 1.680),
    (Family::C4, Size::Large, 0.105),
    (Family::C4, Size::Xlarge, 0.209),
    (Family::C4, Size::X2, 0.419),
    (Family::C4, Size::X4, 0.838),
    (Family::C4, Size::X8, 1.675),
    (Family::R3, Size::Large, 0.166),
    (Family::R3, Size::Xlarge, 0.333),
    (Family::R3, Size::X2, 0.665),
    (Family::R3, Size::X4, 1.330),
    (Family::R3, Size::X8, 2.660),
    (Family::D2, Size::Xlarge, 0.690),
    (Family::D2, Size::X2, 1.380),
    (Family::D2, Size::X4, 2.760),
    (Family::D2, Size::X8, 5.520),
    (Family::G2, Size::X2, 0.650),
    (Family::G2, Size::X8, 2.600),
    (Family::I2, Size::Xlarge, 0.853),
    (Family::I2, Size::X2, 1.705),
    (Family::I2, Size::X4, 3.410),
    (Family::I2, Size::X8, 6.820),
    (Family::Hs1, Size::X8, 4.600),
    (Family::Hi1, Size::X4, 3.100),
    (Family::Cc2, Size::X8, 2.000),
    (Family::Cr1, Size::X8, 3.500),
    (Family::Cg1, Size::X4, 2.100),
];

/// Number of availability zones per region in the standard catalog
/// (sums to 26, matching the paper).
const AZ_COUNTS: &[(Region, u8)] = &[
    (Region::UsEast1, 5),
    (Region::UsWest1, 3),
    (Region::UsWest2, 3),
    (Region::EuWest1, 3),
    (Region::EuCentral1, 2),
    (Region::ApNortheast1, 3),
    (Region::ApSoutheast1, 2),
    (Region::ApSoutheast2, 3),
    (Region::SaEast1, 2),
];

/// Per-region multiplier over the base on-demand price.
const REGION_MULTIPLIERS: &[(Region, f64)] = &[
    (Region::UsEast1, 1.00),
    (Region::UsWest1, 1.12),
    (Region::UsWest2, 1.00),
    (Region::EuWest1, 1.06),
    (Region::EuCentral1, 1.14),
    (Region::ApNortheast1, 1.21),
    (Region::ApSoutheast1, 1.17),
    (Region::ApSoutheast2, 1.19),
    (Region::SaEast1, 1.35),
];

/// Families not offered in a region (smaller/newer regions lack some
/// hardware generations, which is part of why their pools are tighter).
const REGION_EXCLUSIONS: &[(Region, &[Family])] = &[
    (
        Region::SaEast1,
        &[
            Family::G2,
            Family::Hs1,
            Family::Hi1,
            Family::Cc2,
            Family::Cr1,
            Family::Cg1,
        ],
    ),
    (
        Region::EuCentral1,
        &[
            Family::T1,
            Family::M1,
            Family::M2,
            Family::C1,
            Family::Hs1,
            Family::Hi1,
            Family::Cc2,
            Family::Cr1,
            Family::Cg1,
        ],
    ),
    (
        Region::ApSoutheast2,
        &[Family::Cc2, Family::Cr1, Family::Cg1, Family::Hi1],
    ),
];

/// An immutable description of everything the cloud offers.
///
/// The catalog fixes the set of zones, instance types, platforms, and
/// on-demand prices; the dynamic state (pools, prices, instances) lives in
/// [`crate::cloud::Cloud`].
#[derive(Debug, Clone)]
pub struct Catalog {
    azs: Vec<Az>,
    types: Vec<InstanceType>,
    platforms: Vec<Platform>,
    base_prices: BTreeMap<InstanceType, Price>,
    region_multiplier: BTreeMap<Region, f64>,
    excluded: BTreeSet<(Region, Family)>,
    markets: Vec<MarketId>,
    pools: Vec<PoolId>,
}

impl Catalog {
    /// The full EC2-scale catalog used by the paper's three-month study.
    pub fn standard() -> Catalog {
        let mut b = CatalogBuilder::new();
        for &(region, n) in AZ_COUNTS {
            b.region(region, n);
        }
        for &(region, mult) in REGION_MULTIPLIERS {
            b.region_multiplier(region, mult);
        }
        for &(family, size, dollars) in BASE_PRICES {
            b.instance_type(
                InstanceType::new(family, size),
                Price::from_dollars(dollars),
            );
        }
        for &(region, families) in REGION_EXCLUSIONS {
            for &f in families {
                b.exclude(region, f);
            }
        }
        for p in Platform::ALL {
            b.platform(p);
        }
        b.build()
    }

    /// A small two-region catalog for tests and examples: 2 regions,
    /// 4 zones, 2 families × up to 3 sizes, Linux only (~14 markets).
    pub fn testbed() -> Catalog {
        let mut b = CatalogBuilder::new();
        b.region(Region::UsEast1, 2);
        b.region(Region::SaEast1, 2);
        b.region_multiplier(Region::SaEast1, 1.35);
        b.instance_type("c3.large".parse().unwrap(), Price::from_dollars(0.105));
        b.instance_type("c3.xlarge".parse().unwrap(), Price::from_dollars(0.21));
        b.instance_type("c3.2xlarge".parse().unwrap(), Price::from_dollars(0.42));
        b.instance_type("d2.2xlarge".parse().unwrap(), Price::from_dollars(1.38));
        b.exclude(Region::SaEast1, Family::D2);
        b.platform(Platform::LinuxUnix);
        b.build()
    }

    /// All availability zones, ordered by region then zone letter.
    pub fn azs(&self) -> &[Az] {
        &self.azs
    }

    /// The zones of one region.
    fn azs_in(&self, region: Region) -> impl Iterator<Item = Az> + '_ {
        self.azs
            .iter()
            .copied()
            .filter(move |az| az.region() == region)
    }

    /// The regions present in this catalog, in canonical order.
    pub fn regions(&self) -> Vec<Region> {
        let mut seen = BTreeSet::new();
        self.azs.iter().for_each(|az| {
            seen.insert(az.region());
        });
        seen.into_iter().collect()
    }

    /// All platforms offered.
    pub fn platforms(&self) -> &[Platform] {
        &self.platforms
    }

    /// The sizes offered within one family, ascending.
    fn family_types(&self, family: Family) -> Vec<InstanceType> {
        self.types
            .iter()
            .copied()
            .filter(|t| t.family() == family)
            .collect()
    }

    /// Whether a family is offered in a region.
    fn family_available(&self, region: Region, family: Family) -> bool {
        !self.excluded.contains(&(region, family))
    }

    /// Whether a specific market exists in the catalog.
    pub fn market_exists(&self, market: MarketId) -> bool {
        self.azs.contains(&market.az)
            && self.types.contains(&market.instance_type)
            && self.platforms.contains(&market.platform)
            && self.family_available(market.region(), market.instance_type.family())
    }

    /// The hourly on-demand price for a type/platform in a region.
    ///
    /// # Panics
    ///
    /// Panics if the type is not in the catalog.
    pub fn od_price_region(
        &self,
        region: Region,
        instance_type: InstanceType,
        platform: Platform,
    ) -> Price {
        let base = *self
            .base_prices
            .get(&instance_type)
            .unwrap_or_else(|| panic!("instance type {instance_type} not in catalog"));
        let mult = self.region_multiplier.get(&region).copied().unwrap_or(1.0);
        base.scale(mult * platform.price_markup())
    }

    /// The hourly on-demand price governing one market.
    pub fn od_price(&self, market: MarketId) -> Price {
        self.od_price_region(market.region(), market.instance_type, market.platform)
    }

    /// The bid cap for a spot market: 10× the on-demand price
    /// (the limit EC2 introduced after the $1000/hour incident, §2.1.3).
    pub fn bid_cap(&self, market: MarketId) -> Price {
        self.od_price(market).scale(10.0)
    }

    /// Every spot market (zone × type × platform) in the catalog.
    pub fn markets(&self) -> &[MarketId] {
        &self.markets
    }

    /// Every capacity pool (zone × family) in the catalog.
    pub fn pools(&self) -> &[PoolId] {
        &self.pools
    }

    /// The markets backed by one capacity pool.
    pub fn markets_in_pool(&self, pool: PoolId) -> impl Iterator<Item = MarketId> + '_ {
        self.markets
            .iter()
            .copied()
            .filter(move |m| m.pool() == pool)
    }

    /// The markets in the same family and zone as `market` (other sizes,
    /// same platform) — the "related markets within family" of §3.2.1.
    pub fn family_siblings(&self, market: MarketId) -> Vec<MarketId> {
        self.family_types(market.instance_type.family())
            .into_iter()
            .filter(|t| *t != market.instance_type)
            .map(|t| market.with_type(t))
            .collect()
    }

    /// The markets for the same type and platform in the region's other
    /// zones — the "related markets across availability zones" of §3.2.2.
    pub fn az_siblings(&self, market: MarketId) -> Vec<MarketId> {
        self.azs_in(market.region())
            .filter(|az| *az != market.az)
            .map(|az| market.with_az(az))
            .collect()
    }

    /// Total normalized capacity units demanded by one of every market's
    /// instance type; handy for sizing pools.
    pub fn pool_member_units(&self, pool: PoolId) -> u64 {
        self.markets_in_pool(pool)
            .map(|m| u64::from(m.instance_type.units()))
            .sum()
    }
}

/// Builder for custom catalogs (small testbeds, ablations).
///
/// # Examples
///
/// ```
/// use cloud_sim::catalog::CatalogBuilder;
/// use cloud_sim::ids::{Platform, Region};
/// use cloud_sim::price::Price;
///
/// let mut b = CatalogBuilder::new();
/// b.region(Region::UsEast1, 2)
///     .instance_type("m3.large".parse()?, Price::from_dollars(0.133))
///     .platform(Platform::LinuxUnix);
/// let catalog = b.build();
/// assert_eq!(catalog.markets().len(), 2);
/// # Ok::<(), cloud_sim::ids::ParseIdError>(())
/// ```
#[derive(Debug, Default)]
pub struct CatalogBuilder {
    az_counts: BTreeMap<Region, u8>,
    types: BTreeMap<InstanceType, Price>,
    platforms: BTreeSet<Platform>,
    region_multiplier: BTreeMap<Region, f64>,
    excluded: BTreeSet<(Region, Family)>,
}

impl CatalogBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        CatalogBuilder::default()
    }

    /// Adds a region with `az_count` availability zones.
    ///
    /// # Panics
    ///
    /// Panics if `az_count` is zero or exceeds 26.
    pub fn region(&mut self, region: Region, az_count: u8) -> &mut Self {
        assert!(
            (1..=26).contains(&az_count),
            "az_count must be in 1..=26, got {az_count}"
        );
        self.az_counts.insert(region, az_count);
        self
    }

    /// Sets the regional price multiplier (defaults to 1.0).
    fn region_multiplier(&mut self, region: Region, multiplier: f64) -> &mut Self {
        assert!(
            multiplier.is_finite() && multiplier > 0.0,
            "multiplier must be positive, got {multiplier}"
        );
        self.region_multiplier.insert(region, multiplier);
        self
    }

    /// Adds an instance type with its base Linux on-demand price.
    pub fn instance_type(&mut self, ty: InstanceType, base_price: Price) -> &mut Self {
        assert!(!base_price.is_zero(), "on-demand price must be non-zero");
        self.types.insert(ty, base_price);
        self
    }

    /// Adds a product platform (at least one is required).
    pub fn platform(&mut self, platform: Platform) -> &mut Self {
        self.platforms.insert(platform);
        self
    }

    /// Marks a family as not offered in a region.
    pub fn exclude(&mut self, region: Region, family: Family) -> &mut Self {
        self.excluded.insert((region, family));
        self
    }

    /// Builds the immutable catalog.
    ///
    /// # Panics
    ///
    /// Panics if no region, no instance type, or no platform was added.
    pub fn build(&self) -> Catalog {
        assert!(
            !self.az_counts.is_empty(),
            "catalog needs at least one region"
        );
        assert!(
            !self.types.is_empty(),
            "catalog needs at least one instance type"
        );
        assert!(
            !self.platforms.is_empty(),
            "catalog needs at least one platform"
        );

        let mut azs = Vec::new();
        for region in Region::ALL {
            if let Some(&n) = self.az_counts.get(&region) {
                for i in 0..n {
                    azs.push(Az::new(region, i));
                }
            }
        }

        let mut types: Vec<InstanceType> = self.types.keys().copied().collect();
        types.sort();
        let platforms: Vec<Platform> = Platform::ALL
            .into_iter()
            .filter(|p| self.platforms.contains(p))
            .collect();

        let mut markets = Vec::new();
        let mut pools = BTreeSet::new();
        for &az in &azs {
            for &ty in &types {
                if self.excluded.contains(&(az.region(), ty.family())) {
                    continue;
                }
                pools.insert(PoolId {
                    az,
                    family: ty.family(),
                });
                for &platform in &platforms {
                    markets.push(MarketId {
                        az,
                        instance_type: ty,
                        platform,
                    });
                }
            }
        }

        Catalog {
            azs,
            types,
            platforms,
            base_prices: self.types.clone(),
            region_multiplier: self.region_multiplier.clone(),
            excluded: self.excluded.clone(),
            markets,
            pools: pools.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_catalog_scale_matches_paper() {
        let c = Catalog::standard();
        assert_eq!(c.types.len(), 53, "paper: 53 instance types");
        assert_eq!(c.azs().len(), 26, "paper: 26 availability zones");
        assert_eq!(c.regions().len(), 9, "paper: 9 regions");
        assert!(
            c.markets().len() > 4500,
            "paper: ~4500 spot markets, got {}",
            c.markets().len()
        );
    }

    #[test]
    fn prices_scale_by_region_and_platform() {
        let c = Catalog::standard();
        let ty: InstanceType = "c3.2xlarge".parse().unwrap();
        let east = c.od_price_region(Region::UsEast1, ty, Platform::LinuxUnix);
        let sa = c.od_price_region(Region::SaEast1, ty, Platform::LinuxUnix);
        let win = c.od_price_region(Region::UsEast1, ty, Platform::Windows);
        assert_eq!(east, Price::from_dollars(0.42));
        assert!(sa > east);
        assert!(win > east);
    }

    #[test]
    fn bid_cap_is_ten_times_od() {
        let c = Catalog::standard();
        let m = c.markets()[0];
        assert_eq!(c.bid_cap(m), c.od_price(m).scale(10.0));
    }

    #[test]
    fn exclusions_remove_markets() {
        let c = Catalog::standard();
        assert!(!c.family_available(Region::SaEast1, Family::G2));
        assert!(c.family_available(Region::SaEast1, Family::D2));
        assert!(c.family_available(Region::ApSoutheast2, Family::G2));
        assert!(c
            .markets()
            .iter()
            .all(|m| c.family_available(m.region(), m.instance_type.family())));
    }

    #[test]
    fn family_and_az_siblings() {
        let c = Catalog::standard();
        let m = MarketId {
            az: Az::new(Region::UsEast1, 3),
            instance_type: "c3.2xlarge".parse().unwrap(),
            platform: Platform::LinuxUnix,
        };
        let fam = c.family_siblings(m);
        assert_eq!(fam.len(), 4); // c3.large, xlarge, 4xlarge, 8xlarge
        assert!(fam.iter().all(|s| s.az == m.az && s.platform == m.platform));
        let azs = c.az_siblings(m);
        assert_eq!(azs.len(), 4); // us-east-1 has 5 zones
        assert!(azs.iter().all(|s| s.instance_type == m.instance_type));
    }

    #[test]
    fn markets_in_pool_share_family_and_az() {
        let c = Catalog::standard();
        let pool = c.pools()[0];
        for m in c.markets_in_pool(pool) {
            assert_eq!(m.pool(), pool);
        }
    }

    #[test]
    fn case_study_markets_exist() {
        // Fig 6.1/6.2 use d2.2xlarge/d2.8xlarge (us-east-1e, Windows and
        // Linux) and g2.8xlarge in ap-southeast-2.
        let c = Catalog::standard();
        let us_east_1e = Az::new(Region::UsEast1, 4);
        for (ty, platform) in [
            ("d2.2xlarge", Platform::Windows),
            ("d2.8xlarge", Platform::Windows),
            ("d2.2xlarge", Platform::LinuxUnix),
            ("d2.8xlarge", Platform::LinuxUnix),
        ] {
            assert!(c.market_exists(MarketId {
                az: us_east_1e,
                instance_type: ty.parse().unwrap(),
                platform,
            }));
        }
        for idx in [0, 1] {
            assert!(c.market_exists(MarketId {
                az: Az::new(Region::ApSoutheast2, idx),
                instance_type: "g2.8xlarge".parse().unwrap(),
                platform: Platform::LinuxUnix,
            }));
        }
    }

    #[test]
    fn testbed_is_small() {
        let c = Catalog::testbed();
        assert!(c.markets().len() < 20);
        assert_eq!(c.regions().len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one region")]
    fn empty_builder_panics() {
        let _ = CatalogBuilder::new().build();
    }
}
