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
//! [`Service`] assembles the layers above around a durable store and
//! the live deployment ([`LiveDriver`]) on the paper's standard catalog
//! (seed 42, the default policy and resilience). Between two ticks of
//! the region managers it republishes every simulated hour
//! ([`PUBLISH_EVERY`]), and checkpoints and compacts every simulated day
//! ([`MAINTAIN_EVERY`]). A `Service` opened with no address is the
//! in-process twin of a served one. The crate's binary,
//! `src/bin/spotlightd.rs`, is a `Service` behind a stdin watch:
//!
//! ```text
//! spotlightd --dir <path> [--addr <host:port>] [--days <n>]
//! ```
//!
//! `--addr` defaults to `127.0.0.1:0` (the bound address is printed).
//! The driver is not paced: `--days` (default 21, at most 3650) bounds
//! the simulated run, after which the final snapshot stays served;
//! `--days 0` serves the store as recovered. Closing stdin stops it
//! between two steps. stdout carries `listening <addr>`, the recovery
//! report (JSON) on a restart, and the [`ExitReport`] (JSON);
//! diagnostics go to stderr, as do the four lines of each simulated day's
//! maintenance at its second `<t>`: `spotlight-serve: checkpoint <t>`,
//! `checkpointed <t>` (or the checkpoint's error), `compact <t>` and
//! `compacted <t>`. `checkpointed <t>` is the one durability promise:
//! every record collected at or before `<t>` is on disk and survives a
//! kill (`tests/spotlightd.rs` holds a SIGKILLed `spotlightd` to it).

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
use spotlight_core::json::{self, key};
use spotlight_core::manager::LiveDriver;
use spotlight_core::{DataStore, DurabilityStats, DurableOptions, LiveReport, PolicyConfig};
use spotlight_core::{RecoveryInfo, ResilienceConfig, SharedStore, SnapshotHub, ToJson};
use std::{io, net::SocketAddr, path::Path, sync::Arc, time::Duration};

/// Simulated seconds between two republishes of the served snapshot.
pub const PUBLISH_EVERY: u64 = 3_600;
/// Simulated seconds between two checkpoint-and-compact rounds; the
/// compaction spills raw records older than one such period.
pub const MAINTAIN_EVERY: u64 = 86_400;
/// How long a stop waits for in-flight connections before abandoning them.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

/// The information service: a durable store, the live region managers
/// recording into it, the [`SnapshotHub`] queries read, and, given an
/// address, a [`Server`] answering them.
pub struct Service {
    store: SharedStore,
    driver: LiveDriver,
    hub: Arc<SnapshotHub>,
    server: Option<Server>,
    now: SimTime,
}

/// What [`Service::stop`] reports.
#[derive(Debug)]
pub struct ExitReport {
    /// The region managers' run.
    pub live: LiveReport,
    /// The server's drain; `None` for a service with no address.
    pub drain: Option<DrainReport>,
    /// The store's counters at the stop, before its close.
    pub durability: DurabilityStats,
}

impl Service {
    /// Creates the store at `dir`, or recovers the one there (and returns
    /// its [`RecoveryInfo`]); warms the world up for whole simulated days,
    /// one or as many as reach the newest recovered record (so `as_of`
    /// never goes backwards); publishes; and listens at `addr`, if given.
    ///
    /// # Errors
    ///
    /// What creating, recovering or binding fails with.
    pub fn open(dir: &Path, addr: Option<&str>) -> io::Result<(Service, Option<RecoveryInfo>)> {
        let (store, recovery) = match DataStore::create_durable(dir, DurableOptions::default()) {
            Ok(store) => (store, None),
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                let (store, info) = DataStore::recover_with_report(dir, DurableOptions::default())?;
                (store, Some(info))
            }
            Err(e) => return Err(e),
        };
        let newest = store.read().probes().map(|p| p.at.as_secs()).max();
        let mut cloud = Cloud::new(Catalog::standard(), SimConfig::paper(42));
        let day = SimDuration::days(1).as_secs();
        for _ in 0..newest.unwrap_or(0).div_ceil(day).max(1) {
            cloud.warmup((day / cloud.config().tick.as_secs()) as u32);
        }
        let (now, store) = (cloud.now(), Arc::new(store));
        let (policy, resilience) = (PolicyConfig::default(), ResilienceConfig::default());
        let driver = LiveDriver::new(cloud, Arc::clone(&store), &policy, &resilience);
        let hub = Arc::new(SnapshotHub::new(store.snapshot(now)));
        let server = addr
            .map(|addr| Server::start(addr, &store, Arc::clone(&hub), ServerConfig::default()))
            .transpose()?;
        let service = Service {
            store,
            driver,
            hub,
            server,
            now,
        };
        Ok((service, recovery))
    }

    /// One tick of the region managers, then the republish on the simulated
    /// clock's whole hours and the checkpoint and compaction on its whole
    /// days (the world starts on one), each announced on stderr (crate
    /// docs, "`spotlightd`"); returns the time collected through. A failed
    /// checkpoint goes to stderr and [`DurabilityStats`].
    pub fn step(&mut self) -> SimTime {
        self.now = self.driver.step();
        let (store, secs) = (&self.store, self.now.as_secs());
        if secs % PUBLISH_EVERY == 0 {
            self.hub.republish(store, self.now);
        }
        if secs % MAINTAIN_EVERY == 0 {
            eprintln!("spotlight-serve: checkpoint {secs}");
            match store.checkpoint() {
                Ok(()) => eprintln!("spotlight-serve: checkpointed {secs}"),
                Err(e) => eprintln!("spotlight-serve: checkpoint at {}: {e}", self.now),
            }
            eprintln!("spotlight-serve: compact {secs}");
            store.compact(SimTime::from_secs(secs.saturating_sub(MAINTAIN_EVERY)));
            eprintln!("spotlight-serve: compacted {secs}");
        }
        self.now
    }

    /// The simulated time collected through (the world's start at first).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The store the region managers record into.
    pub fn store(&self) -> &SharedStore {
        &self.store
    }

    /// The hub the service publishes to.
    pub fn hub(&self) -> &Arc<SnapshotHub> {
        &self.hub
    }

    /// The address the server listens on, if the service has one.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.server.as_ref().map(Server::local_addr)
    }

    /// Drains the server (for up to 10 s), finishes the driver and closes
    /// the store: a restart replays nothing.
    ///
    /// # Errors
    ///
    /// The close's, or one when a connection the drain abandoned still
    /// holds the store.
    pub fn stop(self) -> io::Result<ExitReport> {
        let drain = self.server.map(|server| server.drain(DRAIN_DEADLINE));
        let (_, live) = self.driver.finish();
        let durability = self.store.durability_stats().expect("a durable store");
        let store = Arc::into_inner(self.store).ok_or_else(|| {
            io::Error::other("a connection abandoned by the drain still holds the store")
        })?;
        store.close()?;
        Ok(ExitReport {
            live,
            drain,
            durability,
        })
    }
}

impl ToJson for ExitReport {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            o.value(key!("live"), &self.live);
            match &self.drain {
                Some(drain) => o.object(key!("drain"), |o| {
                    o.bool(key!("forced"), drain.forced);
                    o.value(key!("stats"), &drain.stats);
                }),
                None => o.null(key!("drain")),
            }
            o.value(key!("durability"), &self.durability);
        });
    }
}
