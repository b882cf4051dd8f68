//! `spotlight-serve`: the overload-safe HTTP query service over the
//! SpotLight store.
//!
//! The paper's information service answers availability, spike-rate,
//! bid-spread, and advisor queries for many tenants at once; this
//! crate is that serving layer, built std-only (no async runtime) so
//! the robustness properties are auditable:
//!
//! 1. **Admission** ([`admission`]) — a single acceptor thread admits
//!    a connection only while a permit (connection gauge) and a slot
//!    in the bounded dispatch queue are both available. Everything
//!    else is shed with a canned `503 + Retry-After` from a dedicated
//!    shedder thread whose own queue is bounded too; beyond that,
//!    sockets are dropped unanswered. No queue in the accept path
//!    grows without bound, so overload degrades throughput for the
//!    excess — never latency for the admitted.
//! 2. **Parse** ([`parser`]) — an incremental, allocation-free
//!    HTTP/1.1 head parser with hard caps (request line, header
//!    bytes/count, body) and a total header deadline enforced by the
//!    server clock; slow-loris clients get `408`, oversized input
//!    `413`/`414`/`431`, and malformed bytes `400` — never a panic.
//! 3. **Route** ([`router`]) — query endpoints answer from immutable
//!    [`spotlight_core::StoreSnapshot`]s published by ingest through a
//!    [`spotlight_core::SnapshotHub`]; the worker's cached `Arc` makes
//!    the hot path one atomic generation check. Health surfaces reach
//!    the live store through a `Weak` handle only.
//! 4. **Respond** ([`server`]) — a fixed worker pool serves
//!    keep-alive connections with pipelining (all buffered requests
//!    answered in one write). Each connection runs under
//!    `catch_unwind`; a handler panic burns that connection, bumps a
//!    counter, and releases its permit via RAII — the acceptor never
//!    wedges.
//! 5. **Drain** ([`server::Server::drain`]) — stop accepting, flip
//!    `/readyz` to `503`, finish in-flight work (or abandon it at the
//!    deadline), and hand the last strong store reference back to the
//!    caller so [`spotlight_core::DataStore::close`] yields a
//!    zero-replay restart.
//!
//! [`client`] is the matching blocking client used by the end-to-end
//! benchmark and the tests.
//!
//! # `spotlightd`: the service as one process
//!
//! The crate's binary (`src/bin/spotlightd.rs`) assembles the layers
//! above around a durable store and the live deployment
//! ([`spotlight_core::manager::LiveDriver`]) over [`live_world`]:
//!
//! ```text
//! spotlightd --dir <path> [--addr <host:port>] [--days <n>]
//! ```
//!
//! - `--dir` is created when it holds no store and recovered otherwise;
//!   `--addr` defaults to `127.0.0.1:0` (the bound address is printed).
//! - Between two steps of the driver it republishes the served snapshot
//!   every simulated hour, and checkpoints and compacts (raw records
//!   older than a day) every simulated day. These are constants, not
//!   flags.
//! - The driver is not paced. `--days` (default 21, at most 3650) bounds
//!   the simulated run, after which the final snapshot stays served;
//!   `--days 0` serves the store as recovered.
//! - Closing stdin stops it: the driver stops between two steps, the
//!   server drains, the driver finishes, and the store closes cleanly.
//!   A restart on the same directory therefore replays nothing, and its
//!   clock starts at or after its newest recovered record.
//!
//! stdout carries `listening <addr>`, the recovery report (JSON) on a
//! restart, and one JSON exit report; diagnostics go to stderr.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod parser;
mod readbuf;
pub mod router;
pub mod server;

pub use admission::{ServerStats, StatsSnapshot};
pub use client::{Client, Response};
pub use parser::Limits;
pub use router::{market_param, parse_market, ServiceState};
pub use server::{DrainReport, Server, ServerConfig};

use cloud_sim::catalog::Catalog;
use cloud_sim::cloud::Cloud;
use cloud_sim::config::SimConfig;
use cloud_sim::time::{SimDuration, SimTime};
use spotlight_core::manager::{LiveDriver, ResilienceConfig};
use spotlight_core::policy::PolicyConfig;
use spotlight_core::store::SharedStore;

/// The world `spotlightd` runs, recording into `store`: the paper's
/// standard catalog under `SimConfig::paper(42)`, warmed up for whole
/// simulated days — one, or as many as it takes to reach `after` (a
/// restart passes its newest recovered record, so its clock never runs
/// behind its store) — with region managers applying the default
/// [`PolicyConfig`] and [`ResilienceConfig`]. Returns the driver and the
/// simulated time its first step starts from.
///
/// One definition for the binary and for any in-process twin of it:
/// from empty stores, both record the same per-market histories.
pub fn live_world(store: SharedStore, after: SimTime) -> (LiveDriver, SimTime) {
    let mut cloud = Cloud::new(Catalog::standard(), SimConfig::paper(42));
    let day = SimDuration::days(1).as_secs();
    let ticks_per_day = (day / cloud.config().tick.as_secs()) as u32;
    for _ in 0..after.as_secs().div_ceil(day).max(1) {
        cloud.warmup(ticks_per_day);
    }
    let start = cloud.now();
    let driver = LiveDriver::new(
        cloud,
        store,
        &PolicyConfig::default(),
        &ResilienceConfig::default(),
    );
    (driver, start)
}
