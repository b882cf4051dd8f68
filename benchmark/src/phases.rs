//! The timed phases. Each function runs one window of one phase and
//! returns that window's measurement; `main` interleaves them round by
//! round. Layers are measured from outside: every call into a layer's
//! public function is wrapped in a span (a no-op unless tracing is on).
//!
//! Every workload runs every phase; what a workload changes is the
//! scale and the conditions (`world::Scale`).

use crate::gen::{Op, SENTINEL};
use crate::oracle;
use crate::trace::{self, ROOT};
use crate::world::{
    build_study, copy_dir, server_config, World, CLIENT_TIMEOUT, INGEST_CYCLE_WINDOWS, KINDS,
};
use cloud_sim::ids::{MarketId, Region};
use cloud_sim::price::Price;
use cloud_sim::time::{SimDuration, SimTime};
use spotlight_core::query::SpotLightQuery;
use spotlight_core::snapshot::SnapshotHub;
use spotlight_core::store::{DataStore, SharedStore};
use spotlight_core::{DurableOptions, ProbeKind, ProbeOutcome, ProbeRecord, ProbeTrigger};
use spotlight_pool::WorkerPool;
use spotlight_serve::client::Client;
use spotlight_serve::server::Server;
use std::collections::HashMap;
use std::hint::black_box;
use std::io::{self, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests in flight per batch in the throughput phase.
pub const POINT_DEPTH: u64 = 32;
/// A sentinel not visible after this long is a failed operation.
const SENTINEL_TIMEOUT: Duration = Duration::from_secs(2);
/// Pause between two sentinel polls (the measurement's resolution).
const SENTINEL_POLL: Duration = Duration::from_micros(250);
/// Simulated seconds per timed segment of a study window: one tick of
/// `SimConfig::paper`.
pub const STUDY_SEGMENT_SECS: u64 = 300;
/// One in this many requests (or ingest ops) is individually timed
/// while tracing.
const SAMPLE_EVERY: u64 = 64;

/// Operations attempted and failed, and oracle mismatches (which are
/// also counted as failed).
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub oracle_failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.oracle_failed += 1;
        }
    }
}

/// Per-op samples only the traced pass collects.
#[derive(Debug, Default)]
pub struct Samples {
    pub durable_record_ns: Vec<f64>,
    pub recover_tail_ms: Vec<f64>,
    pub replayed_ops: u64,
}

/// Closed loop at pipeline depth 32 for `window`, each batch of 32
/// requests sent in one write; pushes the requests per second of every
/// `slice` of the window.
pub fn qps_window(
    world: &mut World,
    window: Duration,
    slice: Duration,
    slices_per_s: &mut Vec<f64>,
    tally: &mut Tally,
) -> io::Result<()> {
    let World {
        client, paths, rng, ..
    } = world;
    let client = client.as_mut().expect("client lives until teardown");
    let mut batch = String::new();
    let started = Instant::now();
    let mut done = 0u64;
    let (mut slice_started, mut slice_done) = (started, 0u64);
    while started.elapsed() < window {
        let sampled = trace::enabled() && (done / POINT_DEPTH).is_multiple_of(SAMPLE_EVERY);
        let span = if sampled {
            trace::begin("serve.batch32", ROOT, trace::new_op())
        } else {
            ROOT
        };
        batch.clear();
        for _ in 0..POINT_DEPTH {
            batch.push_str("GET ");
            batch.push_str(paths.point(rng));
            batch.push_str(" HTTP/1.1\r\nHost: spotlight\r\n\r\n");
        }
        client.stream().write_all(batch.as_bytes())?;
        for _ in 0..POINT_DEPTH {
            if client.read_response()?.status != 200 {
                tally.failed += 1;
            }
        }
        trace::end(span);
        done += POINT_DEPTH;
        let slice_secs = slice_started.elapsed();
        if slice_secs >= slice {
            slices_per_s.push((done - slice_done) as f64 / slice_secs.as_secs_f64());
            (slice_started, slice_done) = (Instant::now(), done);
        }
    }
    tally.attempted += done;
    Ok(())
}

/// The same mix at depth 1 for `window`; pushes send→full-response
/// latencies in microseconds.
pub fn point_latency_window(
    world: &mut World,
    window: Duration,
    samples_us: &mut Vec<f64>,
    tally: &mut Tally,
) -> io::Result<()> {
    let World {
        client, paths, rng, ..
    } = world;
    let client = client.as_mut().expect("client lives until teardown");
    let started = Instant::now();
    let mut done = 0u64;
    while started.elapsed() < window {
        let path = paths.point(rng);
        let span = if trace::enabled() && done.is_multiple_of(SAMPLE_EVERY) {
            trace::begin("serve.request", ROOT, trace::new_op())
        } else {
            ROOT
        };
        let sent = Instant::now();
        let status = client.get(path)?.status;
        samples_us.push(sent.elapsed().as_nanos() as f64 / 1e3);
        trace::end(span);
        if status != 200 {
            tally.failed += 1;
        }
        done += 1;
    }
    tally.attempted += done;
    Ok(())
}

/// Round-robin over the three all-market advisor questions for
/// `window`; pushes latencies in milliseconds.
pub fn advisor_window(
    world: &mut World,
    window: Duration,
    samples_ms: &mut Vec<f64>,
    tally: &mut Tally,
) -> io::Result<()> {
    let started = Instant::now();
    let mut done = 0usize;
    // Whole trios only: a reading is one request of each question.
    while started.elapsed() < window || !done.is_multiple_of(3) {
        let m = world.draw_market();
        let World { client, paths, .. } = world;
        let client = client.as_mut().expect("client lives until teardown");
        let (name, path) = match done % 3 {
            0 => ("serve.advisor_top", "/v1/advisor/top?n=10"),
            1 => ("serve.spike_rates", "/v1/spike-rates"),
            _ => ("serve.fallbacks", paths.fallbacks[m].as_str()),
        };
        let span = trace::begin(name, ROOT, trace::new_op());
        let sent = Instant::now();
        let status = client.get(path)?.status;
        samples_ms.push(sent.elapsed().as_nanos() as f64 / 1e6);
        trace::end(span);
        if status != 200 {
            tally.failed += 1;
        }
        done += 1;
    }
    tally.attempted += done as u64;
    Ok(())
}

/// The first unsigned integer after `"key":` in a JSON body.
pub fn json_u64(body: &str, key: &str) -> Option<u64> {
    let at = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &body[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Probe→queryable: records `count` sentinels one after another, each
/// followed by a republish on the shared pool, and polls
/// `/v1/freshness` until the sentinel's time shows. Pushes wall
/// milliseconds from just before `record_probe` to the first response
/// that reflects it.
pub fn fresh_window(
    world: &mut World,
    count: usize,
    samples_ms: &mut Vec<f64>,
    tally: &mut Tally,
) -> io::Result<()> {
    let pool = WorkerPool::global();
    let market = world.markets.ids[SENTINEL];
    for _ in 0..count {
        let at = world.sentinel_secs;
        world.sentinel_secs += 1;
        let op = trace::new_op();
        let span = trace::begin("fresh.sentinel", ROOT, op);
        let started = Instant::now();
        trace::span("store.record_probe", span, op, |_| {
            world.served.record_probe(ProbeRecord {
                at: SimTime::from_secs(at),
                market,
                kind: ProbeKind::OnDemand,
                trigger: ProbeTrigger::Periodic,
                outcome: ProbeOutcome::Fulfilled,
                spot_ratio: 1.0,
                bid: None,
                cost: Price::ZERO,
            })
        });
        let as_of = world.bump_as_of(at);
        let (store, hub) = (Arc::clone(&world.served), Arc::clone(&world.hub));
        pool.spawn(move || {
            trace::span("snapshot.republish", span, op, |_| {
                hub.republish(&store, as_of)
            });
        })
        .map_err(|_| io::Error::other("worker pool shut down"))?;
        let visible = loop {
            let path = world.paths.freshness[SENTINEL][0].as_str();
            let client = world.client.as_mut().expect("client lives until teardown");
            let body = client.get(path)?.body;
            if json_u64(&body, "last_informative_secs").is_some_and(|seen| seen >= at) {
                break true;
            }
            if started.elapsed() > SENTINEL_TIMEOUT {
                break false;
            }
            std::thread::sleep(SENTINEL_POLL);
        };
        samples_ms.push(started.elapsed().as_nanos() as f64 / 1e6);
        trace::end(span);
        tally.attempted += 1;
        if !visible {
            tally.failed += 1;
        }
    }
    Ok(())
}

/// What one durable-ingest window measured.
#[derive(Debug, Clone, Copy)]
pub struct IngestWindow {
    pub probes_per_s: f64,
    /// Set by the window that ends a cycle.
    pub cycle: Option<IngestCycle>,
}

/// What the end of an ingest cycle measured: counts over the whole
/// cycle, and the closing and recoveries of its store.
#[derive(Debug, Clone, Copy)]
pub struct IngestCycle {
    /// Directory bytes per probe after the last window's compaction
    /// and checkpoint.
    pub disk_bytes_per_probe: f64,
    pub wal_bytes_per_probe: f64,
    pub fsyncs_per_kprobe: f64,
    pub checkpoint_bytes: f64,
    pub close_ms: f64,
    pub recover_clean_ms: f64,
    pub recover_checkpoint_ms: f64,
    pub io_errors: u64,
}

/// Runs `f` inside a span and pushes its wall seconds.
fn segment<R>(
    secs: &mut Vec<f64>,
    name: &'static str,
    parent: u32,
    op: u64,
    f: impl FnOnce() -> R,
) -> R {
    let started = Instant::now();
    let out = trace::span(name, parent, op, |_| f());
    secs.push(started.elapsed().as_secs_f64());
    out
}

fn apply_batch(store: &DataStore, ops: &[Op], sampled_ns: Option<&mut Vec<f64>>) {
    match sampled_ns {
        None => {
            for op in ops {
                op.apply(store);
            }
        }
        Some(out) => {
            for (i, op) in ops.iter().enumerate() {
                if (i as u64).is_multiple_of(SAMPLE_EVERY) && matches!(op, Op::Probe(_)) {
                    let started = Instant::now();
                    op.apply(store);
                    out.push(started.elapsed().as_nanos() as f64);
                } else {
                    op.apply(store);
                }
            }
        }
    }
}

/// Two market-partitioned writer threads push the window's probes and
/// spikes into the cycle's durable store, then the window's maintenance
/// runs: flush, compact to the horizon, checkpoint. That much is timed.
/// The window that ends a cycle then closes the store and recovers it
/// twice — after the clean shutdown, then from checkpoint plus empty
/// tail — comparing each recovered store with the cycle's in-memory
/// twin.
pub fn ingest_window(
    world: &mut World,
    samples: &mut Samples,
    tally: &mut Tally,
) -> io::Result<IngestWindow> {
    let window_probes = world.scale.ingest_window_probes;
    let markets = Arc::clone(&world.markets);
    let ingest = &mut world.ingest;
    let store = match ingest.store.take() {
        Some(store) => store,
        None => DataStore::create_durable(&ingest.dir, DurableOptions::default())?,
    };
    let (probes, horizon) = ingest.next_window(window_probes);
    let traced = trace::enabled();
    let op = trace::new_op();

    let started = Instant::now();
    let span = trace::begin("ingest.window", ROOT, op);
    let sampled: Vec<Vec<f64>> = std::thread::scope(|s| {
        let store = &store;
        let handles: Vec<_> = ingest
            .bufs
            .iter()
            .map(|buf| {
                s.spawn(move || {
                    let mut ns = Vec::new();
                    trace::span("store.record_batch", span, op, |_| {
                        apply_batch(store, buf, traced.then_some(&mut ns));
                    });
                    ns
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("writer thread"))
            .collect()
    });
    trace::span("durable.flush", span, op, |_| store.flush())?;
    trace::span("store.compact", span, op, |_| store.compact(horizon));
    trace::span("durable.checkpoint", span, op, |_| store.checkpoint())?;
    trace::end(span);
    let wall = started.elapsed().as_secs_f64();

    tally.attempted += ingest.bufs.iter().map(|b| b.len() as u64).sum::<u64>();
    samples
        .durable_record_ns
        .extend(sampled.into_iter().flatten());
    ingest.windows_done += 1;
    ingest.probes += probes;
    if ingest.windows_done < INGEST_CYCLE_WINDOWS {
        ingest.store = Some(store);
        return Ok(IngestWindow {
            probes_per_s: probes as f64 / wall,
            cycle: None,
        });
    }

    let cycle_probes = ingest.probes as f64;
    let stats = store.durability_stats().expect("durable store");
    let disk = store.disk_bytes().unwrap_or(0);
    tally.failed += stats.ops_dropped + stats.io_errors;
    let closing = Instant::now();
    trace::span("durable.close", ROOT, op, |_| store.close())?;
    let close_ms = closing.elapsed().as_nanos() as f64 / 1e6;
    let checkpoint_bytes = std::fs::metadata(ingest.dir.join("checkpoint"))?.len() as f64;
    let mut recover = |clean: bool| -> io::Result<f64> {
        let started = Instant::now();
        let (recovered, info) =
            DataStore::recover_with_report(&ingest.dir, DurableOptions::default())?;
        let ms = started.elapsed().as_nanos() as f64 / 1e6;
        tally.check(
            info.from_clean_shutdown == clean
                && info.replayed_ops == 0
                && oracle::digest(&recovered, &markets) == ingest.twin,
        );
        Ok(ms)
    };
    // The first recovery consumes the clean-shutdown marker, so the
    // second loads the checkpoint and scans the (empty) tail.
    let (recover_clean_ms, recover_checkpoint_ms) = (recover(true)?, recover(false)?);
    std::fs::remove_dir_all(&ingest.dir)?;
    ingest.rewind();
    Ok(IngestWindow {
        probes_per_s: probes as f64 / wall,
        cycle: Some(IngestCycle {
            disk_bytes_per_probe: disk as f64 / cycle_probes,
            wal_bytes_per_probe: stats.appended_bytes as f64 / cycle_probes,
            fsyncs_per_kprobe: stats.fsyncs as f64 * 1e3 / cycle_probes,
            checkpoint_bytes,
            close_ms,
            recover_clean_ms,
            recover_checkpoint_ms,
            io_errors: stats.io_errors,
        }),
    })
}

/// Restart-to-ready on a fresh copy of the crash image. Returns the
/// seconds of its three segments: recovery; snapshot capture; server
/// start, connect and the first HTTP 200. The recovered store is then
/// compared with the image's twin.
pub fn restart_once(
    world: &mut World,
    samples: &mut Samples,
    tally: &mut Tally,
) -> io::Result<Vec<f64>> {
    let dir = world.work.join("restart");
    copy_dir(&world.image.dir, &dir)?;
    let market = world.draw_market();
    let path = world.paths.availability[market][0].as_str();
    let op = trace::new_op();

    let mut secs = Vec::new();
    let span = trace::begin("restart", ROOT, op);
    let (store, info) = segment(&mut secs, "durable.recover", span, op, || {
        DataStore::recover_with_report(&dir, DurableOptions::default())
    })?;
    let store: SharedStore = Arc::new(store);
    let snapshot = segment(&mut secs, "snapshot.capture", span, op, || {
        store.snapshot(world.image.as_of)
    });
    let (server, client, status) = segment(&mut secs, "serve.first_request", span, op, || {
        let hub = Arc::new(SnapshotHub::new(snapshot));
        let server = Server::start("127.0.0.1:0", &store, hub, server_config())?;
        let mut client = Client::connect(server.local_addr(), CLIENT_TIMEOUT)?;
        let status = client.get(path)?.status;
        io::Result::Ok((server, client, status))
    })?;
    trace::end(span);

    tally.attempted += 1;
    if status != 200 {
        tally.failed += 1;
    }
    tally.check(
        info.replayed_ops == world.image.tail_ops
            && info.checkpoint_loaded
            && !info.from_clean_shutdown,
    );
    tally.check(oracle::digest(&store, &world.markets) == world.image.twin);
    samples.recover_tail_ms.push(secs[0] * 1e3);
    samples.replayed_ops = info.replayed_ops;

    drop(client);
    if server.drain(Duration::from_secs(5)).forced {
        return Err(io::Error::other("restart server did not drain"));
    }
    drop(store);
    std::fs::remove_dir_all(&dir)?;
    Ok(secs)
}

/// `(probes, spikes, intervals, total cost in micro-dollars)` of a
/// study's store.
pub type Checksum = (u64, u64, u64, u64);

/// One window of the engine-mode study, from the start of its
/// deployment; returns the wall seconds of each of its ticks, the
/// probes the window recorded and the store's checksum after it —
/// identical for every window of one seed, in this run and any other. The study is then
/// rebuilt (untimed), so the next round simulates the very same window.
pub fn study_window(world: &mut World) -> (Vec<f64>, u64, Checksum) {
    let study = &mut world.study;
    let probes_before = study.store.len();
    let segments = world.scale.study_window_secs / STUDY_SEGMENT_SECS;
    let mut segment_secs = Vec::with_capacity(segments as usize);
    for i in 1..=segments {
        let end = study.now + SimDuration::from_secs(STUDY_SEGMENT_SECS * i);
        let started = Instant::now();
        trace::span("sim.run_until", ROOT, trace::new_op(), |_| {
            study.engine.run_until(end)
        });
        segment_secs.push(started.elapsed().as_secs_f64());
    }
    let read = study.store.read();
    let checksum = (
        read.len() as u64,
        read.spikes().count() as u64,
        read.intervals().count() as u64,
        read.total_cost().as_micros(),
    );
    let probes = (read.len() - probes_before) as u64;
    drop(read);
    world.study = build_study(world.seed);
    (segment_secs, probes, checksum)
}

/// One pass of the paper's analysis kernels through `SpotLightQuery`
/// over the served store's live read view (`store.read()`, every
/// stripe's read lock held — the path `repro` analyses run on);
/// returns milliseconds. The served store is the generator's, so the
/// pass costs the same for every seed and in every round.
pub fn analysis_pass(world: &mut World) -> f64 {
    let op = trace::new_op();
    let started = Instant::now();
    let span = trace::begin("analysis.pass", ROOT, op);
    let read = world.served.read();
    let end = SimTime::from_secs(world.as_of.load(std::sync::atomic::Ordering::SeqCst));
    let q = SpotLightQuery::new(&read, SimTime::ZERO, end);
    trace::span("query.spike_rates", span, op, |_| {
        black_box(q.spike_rates(&[1.25, 1.5, 2.0, 5.0], SimDuration::days(1)));
    });
    trace::span("query.unavailability_durations", span, op, |_| {
        let mut durations = Vec::new();
        for kind in KINDS {
            q.unavailability_durations_into(kind, &mut durations);
            black_box(durations.len());
        }
    });
    let mut candidates: Vec<MarketId> = read.probed_markets().collect();
    candidates.sort_unstable();
    trace::span("query.conditional_unavailability", span, op, |_| {
        for pair in candidates.windows(2) {
            black_box(q.conditional_unavailability(pair[0], pair[1], SimDuration::from_secs(900)));
        }
    });
    trace::span("query.top_markets", span, op, |_| {
        black_box(q.top_available_markets(&candidates, None, 1, 10));
    });
    trace::span("query.rejections_by_region", span, op, |_| {
        let mut by_region: HashMap<Region, u64> = HashMap::new();
        q.rejection_counts_by_region_into(&mut by_region);
        black_box(by_region.len());
    });
    trace::end(span);
    started.elapsed().as_nanos() as f64 / 1e6
}
