//! # spotlight-core
//!
//! SpotLight: an information service for the cloud — the reproduction of
//! Ouyang, *SpotLight: An Information Service for the Cloud* (UMass
//! Amherst, 2016 / ICDCS 2016), built on the [`cloud_sim`] substrate.
//!
//! Cloud platforms do not expose whether a server request will succeed.
//! SpotLight learns that by *actively probing*: each probe is a real
//! request for an on-demand or spot server, and the market-based policy
//! decides when and where to probe by watching spot prices — a spike
//! above the on-demand price loosely signals that the shared capacity
//! pool behind the market is squeezed (the paper's Figure 2.2 model).
//!
//! The crate provides:
//!
//! * [`spotlight::SpotLight`] — the probing service, runnable as a
//!   deterministic engine agent (and in a concurrent live deployment via
//!   [`manager`]);
//! * [`policy`] / [`budget`] — the §3 probing policy and §3.4 cost
//!   control, including threshold calibration;
//! * [`bidspread`] — the intrinsic-bid search (§5.1.2);
//! * [`store`] — the probe database;
//! * [`query`] — the application-facing query interface (Chapter 3);
//! * [`analysis`] — the Chapter 5 analyses behind Figures 5.4–5.12.
//!
//! ## Quick start
//!
//! ```
//! use cloud_sim::{Catalog, Engine, SimConfig, SimDuration, SimTime};
//! use spotlight_core::policy::SpotLightConfig;
//! use spotlight_core::probe::ProbeKind;
//! use spotlight_core::query::SpotLightQuery;
//! use spotlight_core::spotlight::SpotLight;
//! use spotlight_core::store::shared_store;
//!
//! // A deterministic testbed cloud with SpotLight watching it.
//! let mut engine = Engine::new(Catalog::testbed(), SimConfig::paper(7));
//! let store = shared_store();
//! engine.add_agent(Box::new(SpotLight::new(
//!     SpotLightConfig::default(),
//!     store.clone(),
//! )));
//! let end = SimTime::ZERO + SimDuration::days(1);
//! engine.run_until(end);
//!
//! // Ask the information service what it learned (a consistent
//! // capture of the store; it holds no lock).
//! let db = store.read();
//! let query = SpotLightQuery::new(&db, SimTime::ZERO, end);
//! for market in engine.cloud().catalog().markets() {
//!     let stats = query.availability(*market, ProbeKind::OnDemand);
//!     assert!(stats.availability() <= 1.0);
//! }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod bidspread;
pub mod budget;
mod durability;
pub mod durable;
pub mod json;
pub mod manager;
pub mod policy;
pub mod probe;
pub mod query;
mod shared;
pub mod snapshot;
pub mod spotlight;
pub mod stats;
pub mod store;
pub mod sync;

pub use durable::{DurabilityMode, DurabilityStats, DurableOptions, FsyncPolicy, RecoveryInfo};
pub use json::ToJson;
pub use manager::{LiveReport, ResilienceConfig};
pub use policy::{PolicyConfig, SpotLightConfig};
pub use probe::{ProbeKind, ProbeOutcome, ProbeRecord, ProbeTrigger};
pub use query::{Freshness, SpotLightQuery};
pub use snapshot::{SnapshotHub, SnapshotReader, StoreSnapshot};
pub use spotlight::SpotLight;
pub use store::{DataStore, RegionHealth, SharedStore, StoreRead};

/// The anchor the unit tests' made-up instants are offsets from: a
/// test's one clock read. Product code takes the time from its caller.
#[cfg(test)]
pub(crate) fn test_epoch() -> std::time::Instant {
    std::time::Instant::now()
}
