//! Set-up: assembles the service the paper describes out of the
//! program's public functions — a seeded, compacted store published
//! through a snapshot hub and served over HTTP; the durable-ingest
//! cycle's streams with the digest of their in-memory twin; a crash
//! image with its twin's digest; and a warmed-up engine-mode study.
//! Everything here is fixed work for a given workload and seed, and all
//! of it is what `setup_s` times.

use crate::gen::{Gen, Markets, Op, Rng, STUDY_DT_MS};
use crate::host::Cpus;
use crate::oracle::{self, Digest};
use crate::trace;
use cloud_sim::catalog::Catalog;
use cloud_sim::cloud::Cloud;
use cloud_sim::config::SimConfig;
use cloud_sim::engine::Engine;
use cloud_sim::ids::{Az, MarketId, Platform, Region};
use cloud_sim::time::{SimDuration, SimTime};
use spotlight_core::policy::{PolicyConfig, SpotCheckConfig, SpotLightConfig};
use spotlight_core::snapshot::SnapshotHub;
use spotlight_core::spotlight::SpotLight;
use spotlight_core::store::{shared_store, DataStore, SharedStore};
use spotlight_core::{DurableOptions, ProbeKind};
use spotlight_serve::client::Client;
use spotlight_serve::router::market_param;
use spotlight_serve::server::{Server, ServerConfig};
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

pub const DAY: u64 = 86_400;
/// Simulated span the served store is seeded over, and the raw-record
/// horizon it is compacted to.
const SERVED_DAYS: u64 = 15;
const SERVED_HORIZON_DAYS: u64 = 7;
/// Raw-record horizon the ingest store and the crash image are
/// compacted to, simulated seconds: a 50k-probe window is 0.8 simulated
/// days at the study's density, so a cycle spills records from its
/// second window on.
pub const INGEST_HORIZON_SECS: u64 = DAY;
/// Windows one durable store takes before it is closed, recovered,
/// checked and replaced by a fresh one. Every cycle is the same ops, so
/// what is counted at its end (bytes on disk, WAL bytes, fsyncs) is the
/// same in every cycle of every run of one seed.
pub const INGEST_CYCLE_WINDOWS: usize = 4;

/// The fixed-work sizes that make one workload: every workload runs
/// every phase, at the scale and under the conditions given here.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Probes seeded into the served store (spikes come with them).
    pub served_probes: u64,
    /// Whether the served store is durable and a paced writer ingests
    /// into it, republishing every 200 ms, while queries run.
    pub live: bool,
    /// Probes per durable-ingest window (four windows to a cycle).
    pub ingest_window_probes: u64,
    /// Probes under the crash image's checkpoint / in its WAL tail.
    pub image_checkpoint_probes: u64,
    pub image_tail_probes: u64,
    /// Simulated seconds per timed study window.
    pub study_window_secs: u64,
}

impl Scale {
    /// Simulated days in one study window.
    pub fn study_days(&self) -> f64 {
        self.study_window_secs as f64 / DAY as f64
    }
}

/// Socket/server settings shared by every server the bench starts:
/// one drainer, one keep-alive connection, no per-connection request
/// cap, and timeouts long enough that an idle connection survives the
/// phases that do not use it.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 1,
        queue_depth: 16,
        max_connections: 16,
        read_timeout: Duration::from_secs(120),
        write_timeout: Duration::from_secs(5),
        header_deadline: Duration::from_secs(5),
        max_requests_per_conn: u64::MAX,
        ..ServerConfig::default()
    }
}

pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);
/// Point requests that warm the connection, the drainer and the
/// snapshot's pages before the first timed one.
const WARM_UP_REQUESTS: usize = 40_000;

/// Request paths, built once so the timed loops only index.
#[derive(Debug)]
pub struct Paths {
    /// `[market][kind]` with kind 0 = od, 1 = spot.
    pub availability: Vec<[String; 2]>,
    pub freshness: Vec<[String; 2]>,
    pub fallbacks: Vec<String>,
}

pub const KINDS: [ProbeKind; 2] = [ProbeKind::OnDemand, ProbeKind::Spot];
const KIND_NAMES: [&str; 2] = ["od", "spot"];

impl Paths {
    /// The point mix: 70 % availability, 30 % freshness; market (never
    /// the sentinel) and contract kind drawn uniformly.
    pub fn point(&self, rng: &mut Rng) -> &str {
        let r = rng.next_u64();
        let m = 1 + (r >> 16) as usize % (self.availability.len() - 1);
        let table = if (r >> 1) % 10 < 7 {
            &self.availability
        } else {
            &self.freshness
        };
        &table[m][(r & 1) as usize]
    }

    fn new(markets: &Markets) -> Paths {
        let per_kind = |route: &str, m: MarketId| -> [String; 2] {
            KIND_NAMES.map(|k| format!("/v1/{route}?market={}&kind={k}", market_param(m)))
        };
        Paths {
            availability: markets
                .ids
                .iter()
                .map(|&m| per_kind("availability", m))
                .collect(),
            freshness: markets
                .ids
                .iter()
                .map(|&m| per_kind("freshness", m))
                .collect(),
            fallbacks: markets
                .ids
                .iter()
                .map(|&m| format!("/v1/advisor/fallbacks?market={}&n=5", market_param(m)))
                .collect(),
        }
    }
}

/// The durable-ingest phase: two market-partitioned streams at the
/// reference study's density, pushed window by window into one durable
/// store that is compacted and checkpointed after each; after
/// [`INGEST_CYCLE_WINDOWS`] windows the store must equal the in-memory
/// twin, and the cycle starts over on a fresh store.
pub struct Ingest {
    pub dir: PathBuf,
    /// The streams at the start of a cycle.
    start: [Gen; 2],
    /// The same streams, as far as the current cycle has got.
    gens: [Gen; 2],
    /// The next window's ops, one buffer per writer thread.
    pub bufs: [Vec<Op>; 2],
    /// The current cycle's store and the windows it has taken.
    pub store: Option<DataStore>,
    pub windows_done: usize,
    /// Probes in the store.
    pub probes: u64,
    /// What the store must equal at the end of a cycle.
    pub twin: Digest,
}

impl Ingest {
    /// Fills the writers' buffers with the next window's ops; returns
    /// the window's probes and its compaction point.
    pub fn next_window(&mut self, window_probes: u64) -> (u64, SimTime) {
        let before: u64 = self.gens.iter().map(|g| g.probes).sum();
        for (gen, buf) in self.gens.iter_mut().zip(self.bufs.iter_mut()) {
            buf.clear();
            gen.fill(buf, window_probes / 2);
        }
        let probes = self.gens.iter().map(|g| g.probes).sum::<u64>() - before;
        let now = self.gens[0].now_secs();
        (
            probes,
            SimTime::from_secs(now.saturating_sub(INGEST_HORIZON_SECS)),
        )
    }

    /// Rewinds the streams to the start of a cycle.
    pub fn rewind(&mut self) {
        self.gens = self.start.clone();
        self.windows_done = 0;
        self.probes = 0;
    }
}

/// A crash image: a directory with a checkpoint and a WAL tail but no
/// clean-shutdown marker, plus the digest of an in-memory twin fed the
/// same ops.
pub struct CrashImage {
    pub dir: PathBuf,
    pub twin: Digest,
    pub tail_ops: u64,
    pub as_of: SimTime,
}

/// The engine-mode study, configured as `repro`'s `run_study`, at the
/// start of its deployment. Every round's window starts from this very
/// state: the study is rebuilt (untimed) before each.
pub struct Study {
    pub engine: Engine,
    pub store: SharedStore,
    pub now: SimTime,
}

pub struct World {
    pub scale: Scale,
    pub seed: u64,
    pub markets: Arc<Markets>,
    pub work: PathBuf,
    pub paths: Paths,
    /// Draws the request mix.
    pub rng: Rng,

    pub served: SharedStore,
    pub hub: Arc<SnapshotHub>,
    pub server: Option<Server>,
    pub addr: SocketAddr,
    pub client: Option<Client>,
    /// The publisher's clock: the newest `as_of` handed to `republish`.
    pub as_of: Arc<AtomicU64>,
    /// Continues the served store's op stream (the live writer's input).
    pub served_gen: Option<Gen>,
    /// Timestamp of the next freshness sentinel.
    pub sentinel_secs: u64,

    pub ingest: Ingest,
    pub image: CrashImage,
    pub study: Study,
}

/// Copies the files of the flat directory `from` into `to`.
pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

fn build_served(
    scale: &Scale,
    seed: u64,
    markets: &Arc<Markets>,
    work: &Path,
) -> io::Result<(DataStore, Gen)> {
    let store = if scale.live {
        DataStore::create_durable(&work.join("served"), DurableOptions::default())?
    } else {
        DataStore::new()
    };
    let dt_ms = SERVED_DAYS * DAY * 1000 / scale.served_probes;
    let mut gen = Gen::new(markets, seed, 0, 1, 0, dt_ms);
    let mut ops = Vec::new();
    let mut left = scale.served_probes;
    while left > 0 {
        let chunk = left.min(100_000);
        ops.clear();
        gen.fill(&mut ops, chunk);
        for op in &ops {
            op.apply(&store);
        }
        left -= chunk;
    }
    store.compact(SimTime::from_secs(
        (SERVED_DAYS - SERVED_HORIZON_DAYS) * DAY,
    ));
    if scale.live {
        store.checkpoint()?;
    }
    Ok((store, gen))
}

fn build_ingest(scale: &Scale, seed: u64, markets: &Arc<Markets>, work: &Path) -> Ingest {
    // Two streams at half the rate each: together they advance
    // simulated time at the study's density.
    let start = [0, 1].map(|part| Gen::new(markets, seed ^ 0x1e57, part, 2, 0, 2 * STUDY_DT_MS));
    let mut ingest = Ingest {
        dir: work.join("ingest"),
        gens: start.clone(),
        start,
        bufs: [Vec::new(), Vec::new()],
        store: None,
        windows_done: 0,
        probes: 0,
        twin: oracle::digest(&DataStore::new(), markets),
    };
    let twin = DataStore::new();
    for _ in 0..INGEST_CYCLE_WINDOWS {
        let (_, horizon) = ingest.next_window(scale.ingest_window_probes);
        for op in ingest.bufs.iter().flatten() {
            op.apply(&twin);
        }
        twin.compact(horizon);
    }
    ingest.twin = oracle::digest(&twin, markets);
    ingest.rewind();
    ingest
}

fn build_image(
    scale: &Scale,
    seed: u64,
    markets: &Arc<Markets>,
    work: &Path,
) -> io::Result<CrashImage> {
    let src = work.join("image-src");
    let dir = work.join("image");
    let store = DataStore::create_durable(&src, DurableOptions::default())?;
    let twin = DataStore::new();
    let mut gen = Gen::new(markets, seed ^ 0x1a9e, 0, 1, 0, STUDY_DT_MS);
    let mut ops = Vec::new();
    gen.fill(&mut ops, scale.image_checkpoint_probes);
    for op in &ops {
        op.apply(&store);
        op.apply(&twin);
    }
    let horizon = SimTime::from_secs(gen.now_secs().saturating_sub(INGEST_HORIZON_SECS));
    store.compact(horizon);
    twin.compact(horizon);
    store.checkpoint()?;
    ops.clear();
    gen.fill(&mut ops, scale.image_tail_probes);
    for op in &ops {
        op.apply(&store);
        op.apply(&twin);
    }
    store.flush()?;
    // Copied while the store is still open: the copy has the flushed
    // tail and no clean-shutdown marker — what a crash leaves behind.
    copy_dir(&src, &dir)?;
    drop(store);
    std::fs::remove_dir_all(&src)?;
    Ok(CrashImage {
        dir,
        twin: oracle::digest(&twin, markets),
        tail_ops: ops.len() as u64,
        as_of: SimTime::from_secs(gen.now_secs() + 1),
    })
}

fn market(region: Region, az: u8, ty: &str, platform: Platform) -> MarketId {
    MarketId {
        az: Az::new(region, az),
        instance_type: ty.parse().expect("catalog instance type"),
        platform,
    }
}

/// The study exactly as `repro`'s `run_study` configures it (watched
/// markets, BidSpread market and revocation watches included), run
/// through the one-day cloud warm-up.
pub fn build_study(seed: u64) -> Study {
    use Platform::{LinuxUnix, Windows};
    use Region::{ApSoutheast2, UsEast1};
    let sim = SimConfig::paper(seed);
    let warmup_ticks = (DAY / sim.tick.as_secs()) as u32;
    let mut cloud = Cloud::new(Catalog::standard(), sim);
    let bidspread = market(UsEast1, 4, "c3.8xlarge", LinuxUnix);
    let case_studies = [
        market(UsEast1, 4, "d2.2xlarge", Windows),
        market(UsEast1, 4, "d2.8xlarge", Windows),
        market(UsEast1, 4, "d2.2xlarge", LinuxUnix),
        market(UsEast1, 4, "d2.8xlarge", LinuxUnix),
        market(ApSoutheast2, 0, "g2.8xlarge", LinuxUnix),
        market(ApSoutheast2, 1, "g2.8xlarge", LinuxUnix),
    ];
    let mut watched = vec![
        market(UsEast1, 3, "c3.2xlarge", LinuxUnix),
        market(UsEast1, 3, "c3.4xlarge", LinuxUnix),
        market(UsEast1, 3, "c3.8xlarge", LinuxUnix),
        market(UsEast1, 0, "c3.2xlarge", LinuxUnix),
        market(UsEast1, 1, "c3.2xlarge", LinuxUnix),
        bidspread,
    ];
    watched.extend(case_studies);
    for m in watched {
        cloud.watch_market(m);
    }
    cloud.warmup(warmup_ticks);
    let start = cloud.now();
    let config = SpotLightConfig {
        policy: PolicyConfig {
            spike_threshold: 1.0,
            subthreshold_sampling: 0.02,
            market_cooldown: SimDuration::from_secs(1800),
            ..PolicyConfig::default()
        },
        spot_check: Some(SpotCheckConfig {
            interval: SimDuration::from_secs(600),
            batch_size: 64,
        }),
        bidspread_markets: vec![bidspread],
        bidspread_interval: SimDuration::hours(2),
        revocation_watch: case_studies.to_vec(),
        revocation_hold_max: SimDuration::hours(6),
        seed: seed ^ 0x5f07,
        ..SpotLightConfig::default()
    };
    let store = shared_store();
    let mut engine = Engine::with_cloud(cloud);
    engine.add_agent(Box::new(SpotLight::new(config, store.clone())));
    Study {
        engine,
        store,
        now: start,
    }
}

impl World {
    /// Builds everything and brings the service to the point where
    /// the first timed operation can start: server answering, client
    /// connected, caches and the connection warmed by a fixed number of
    /// requests.
    pub fn setup(scale: Scale, seed: u64, work: &Path, cpus: &Cpus) -> io::Result<World> {
        let _ = std::fs::remove_dir_all(work);
        std::fs::create_dir_all(work)?;
        let markets = Markets::standard();
        let paths = Paths::new(&markets);

        let (served, served_gen) = build_served(&scale, seed, &markets, work)?;
        let served: SharedStore = Arc::new(served);
        let as_of_secs = SERVED_DAYS * DAY;
        let hub = Arc::new(SnapshotHub::new(
            served.snapshot(SimTime::from_secs(as_of_secs)),
        ));
        let server = Server::start("127.0.0.1:0", &served, Arc::clone(&hub), server_config())?;
        // The drainer holds a pool thread for as long as the bench's
        // connection is open; the publisher needs one beside it.
        spotlight_pool::WorkerPool::global().reserve(2);
        let addr = server.local_addr();
        let client = Client::connect(addr, CLIENT_TIMEOUT)?;

        let ingest = build_ingest(&scale, seed, &markets, work);
        let image = build_image(&scale, seed, &markets, work)?;
        let study = build_study(seed);

        let mut world = World {
            scale,
            seed,
            markets,
            work: work.to_path_buf(),
            paths,
            rng: Rng::new(seed ^ 0x9e7),
            served,
            hub,
            server: Some(server),
            addr,
            client: Some(client),
            as_of: Arc::new(AtomicU64::new(as_of_secs)),
            served_gen: Some(served_gen),
            sentinel_secs: as_of_secs + 1,
            ingest,
            image,
            study,
        };
        // Client-driven, so on one CPU like the query phases.
        cpus.confine(0);
        let warmed = world.warm_up();
        cpus.release();
        warmed?;
        Ok(world)
    }

    fn warm_up(&mut self) -> io::Result<()> {
        let World {
            client, paths, rng, ..
        } = self;
        let client = client.as_mut().expect("client lives until teardown");
        for _ in 0..WARM_UP_REQUESTS {
            client.get(paths.point(rng))?;
        }
        for path in ["/v1/advisor/top?n=10", "/v1/spike-rates"] {
            client.get(path)?;
        }
        Ok(())
    }

    /// A uniformly drawn market that the generator feeds (never the
    /// sentinel).
    pub fn draw_market(&mut self) -> usize {
        1 + self.rng.below(self.markets.ids.len() - 1)
    }

    pub fn bump_as_of(&self, secs: u64) -> SimTime {
        SimTime::from_secs(self.as_of.fetch_max(secs, Ordering::SeqCst).max(secs))
    }

    /// Stops the server, closes the stores and removes the work
    /// directory. Returns the server's final counters.
    pub fn teardown(mut self) -> io::Result<spotlight_serve::StatsSnapshot> {
        self.client = None;
        let report = self
            .server
            .take()
            .expect("server runs until teardown")
            .drain(Duration::from_secs(5));
        if report.forced {
            return Err(io::Error::other("server did not drain"));
        }
        // A cycle the run ended in the middle of.
        if let Some(store) = self.ingest.store.take() {
            store.close()?;
        }
        let World {
            served, work, hub, ..
        } = self;
        drop(hub);
        // Pool tasks may still hold a clone for a moment after their
        // republish returned.
        let mut served = served;
        let store = loop {
            match Arc::try_unwrap(served) {
                Ok(store) => break store,
                Err(shared) => {
                    served = shared;
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        };
        trace::span("durable.close", trace::ROOT, 0, |_| store.close())?;
        std::fs::remove_dir_all(&work)?;
        Ok(report.stats)
    }
}
