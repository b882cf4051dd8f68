//! The shared three-month study: one full-scale SpotLight deployment
//! whose probe database powers every Chapter 5 and Chapter 6 figure.

use cloud_sim::catalog::Catalog;
use cloud_sim::cloud::Cloud;
use cloud_sim::config::SimConfig;
use cloud_sim::engine::Engine;
use cloud_sim::ids::{Az, MarketId, Platform, Region};
use cloud_sim::time::{SimDuration, SimTime};
use spotlight_core::policy::{PolicyConfig, SpotCheckConfig, SpotLightConfig};
use spotlight_core::spotlight::SpotLight;
use spotlight_core::store::{shared_store, SharedStore};

/// Parameters of the study run.
#[derive(Debug, Clone, Copy)]
pub struct StudyConfig {
    /// Days of simulated deployment (the paper ran three months).
    pub days: u64,
    /// Simulation seed.
    pub seed: u64,
    /// Spike trigger threshold (the paper deployed `T = 1×` od).
    pub threshold: f64,
    /// Sub-threshold sampling for the low Figure-5.4 buckets.
    pub subthreshold_sampling: f64,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            days: 21,
            seed: 42,
            threshold: 1.0,
            subthreshold_sampling: 0.02,
        }
    }
}

/// The completed study: the cloud (for traces and the catalog) and
/// SpotLight's probe database.
pub struct Study {
    /// The simulated cloud after the run.
    pub cloud: Cloud,
    /// SpotLight's database.
    pub store: SharedStore,
    /// Measurement span start.
    pub start: SimTime,
    /// Measurement span end.
    pub end: SimTime,
}

fn az(region: Region, idx: u8) -> Az {
    Az::new(region, idx)
}

fn market(region: Region, az_idx: u8, ty: &str, platform: Platform) -> MarketId {
    MarketId {
        az: az(region, az_idx),
        instance_type: ty.parse().unwrap_or_else(|e| {
            panic!("figure catalog names instance type {ty:?}, which does not parse: {e}")
        }),
        platform,
    }
}

/// The volatile c3 market of Figures 2.1, 5.1a and 5.3
/// (c3.2xlarge, us-east-1d, Linux/UNIX).
pub fn c3_2x_us_east_1d() -> MarketId {
    market(Region::UsEast1, 3, "c3.2xlarge", Platform::LinuxUnix)
}

/// The c3.* family members of Figure 5.1(a) in us-east-1d.
pub fn fig_5_1a_markets() -> Vec<MarketId> {
    ["c3.2xlarge", "c3.4xlarge", "c3.8xlarge"]
        .iter()
        .map(|ty| market(Region::UsEast1, 3, ty, Platform::LinuxUnix))
        .collect()
}

/// c3.2xlarge across us-east-1a/b/d (Figure 5.1(b)).
pub fn fig_5_1b_markets() -> Vec<MarketId> {
    [0u8, 1, 3]
        .iter()
        .map(|&i| market(Region::UsEast1, i, "c3.2xlarge", Platform::LinuxUnix))
        .collect()
}

/// The BidSpread market of Figure 5.2 (c3.8xlarge, us-east-1e).
pub fn fig_5_2_market() -> MarketId {
    market(Region::UsEast1, 4, "c3.8xlarge", Platform::LinuxUnix)
}

/// The six case-study markets of Figures 6.1 and 6.2, with their
/// paper labels.
pub fn case_study_markets() -> Vec<(&'static str, MarketId)> {
    vec![
        (
            "d2.2x/Win/use1e",
            market(Region::UsEast1, 4, "d2.2xlarge", Platform::Windows),
        ),
        (
            "d2.8x/Win/use1e",
            market(Region::UsEast1, 4, "d2.8xlarge", Platform::Windows),
        ),
        (
            "d2.2x/Lin/use1e",
            market(Region::UsEast1, 4, "d2.2xlarge", Platform::LinuxUnix),
        ),
        (
            "d2.8x/Lin/use1e",
            market(Region::UsEast1, 4, "d2.8xlarge", Platform::LinuxUnix),
        ),
        (
            "g2.8x/Lin/aps2a",
            market(Region::ApSoutheast2, 0, "g2.8xlarge", Platform::LinuxUnix),
        ),
        (
            "g2.8x/Lin/aps2b",
            market(Region::ApSoutheast2, 1, "g2.8xlarge", Platform::LinuxUnix),
        ),
    ]
}

/// Every market the study watches (full price history recording).
fn watched_markets() -> Vec<MarketId> {
    let mut v = fig_5_1a_markets();
    v.extend(fig_5_1b_markets());
    v.push(fig_5_2_market());
    v.extend(case_study_markets().into_iter().map(|(_, m)| m));
    v.sort();
    v.dedup();
    v
}

/// Runs the full study: the standard catalog, one simulated day of
/// warm-up, then `days` of SpotLight deployment with spike probing,
/// family/zone fan-out, cross-verification, periodic spot checking,
/// BidSpread on the Figure 5.2 market, and revocation watches on the
/// case-study markets.
pub fn run_study(cfg: &StudyConfig) -> Study {
    let sim = SimConfig::paper(cfg.seed);
    let warmup_ticks = (SimDuration::days(1).as_secs() / sim.tick.as_secs()) as u32;
    let mut cloud = Cloud::new(Catalog::standard(), sim);
    for m in watched_markets() {
        cloud.watch_market(m);
    }
    cloud.warmup(warmup_ticks);
    let start = cloud.now();
    let end = start + SimDuration::days(cfg.days);

    let spotlight_cfg = SpotLightConfig {
        policy: PolicyConfig {
            spike_threshold: cfg.threshold,
            subthreshold_sampling: cfg.subthreshold_sampling,
            market_cooldown: SimDuration::from_secs(1800),
            ..PolicyConfig::default()
        },
        spot_check: Some(SpotCheckConfig {
            interval: SimDuration::from_secs(600),
            batch_size: 64,
        }),
        bidspread_markets: vec![fig_5_2_market()],
        bidspread_interval: SimDuration::hours(2),
        revocation_watch: case_study_markets().into_iter().map(|(_, m)| m).collect(),
        revocation_hold_max: SimDuration::hours(6),
        seed: cfg.seed ^ 0x5f07,
        ..SpotLightConfig::default()
    };

    let store = shared_store();
    let mut engine = Engine::with_cloud(cloud);
    engine.add_agent(Box::new(SpotLight::new(spotlight_cfg, store.clone())));
    engine.run_until(end);
    let (cloud, _) = engine.into_parts();

    Study {
        cloud,
        store,
        start,
        end,
    }
}
