//! Per-layer measurements of the traced pass: direct timings of each
//! layer's public functions on the very inputs the workload used
//! (generated ops, request paths, the served store), taken from
//! outside. Span-derived numbers (self times, boundary counts) are
//! folded in by `main`.

use crate::gen::{Gen, Op, STUDY_DT_MS};
use crate::live::Pacer;
use crate::stats::{median, proc_status_bytes, quantile};
use crate::world::{World, CLIENT_TIMEOUT, KINDS};
use cloud_sim::catalog::Catalog;
use cloud_sim::cloud::Cloud;
use cloud_sim::config::SimConfig;
use cloud_sim::time::{SimDuration, SimTime};
use spotlight_core::query::SpotLightQuery;
use spotlight_core::snapshot::SnapshotReader;
use spotlight_core::store::{DataStore, StoreRead};
use spotlight_core::ProbeRecord;
use spotlight_persist::{crc, frame, Decode, Encode, Reader};
use spotlight_pool::WorkerPool;
use spotlight_serve::client::Client;
use spotlight_serve::parser::{self, Limits, Parsed};
use spotlight_serve::router::{route, ServiceState};
use spotlight_serve::server::write_response;
use spotlight_serve::ServerStats;
use std::hint::black_box;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub type Metric = (&'static str, f64, &'static str);

fn ns_each(started: Instant, n: usize) -> f64 {
    started.elapsed().as_nanos() as f64 / n.max(1) as f64
}

fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_nanos() as f64 / 1e6
}

/// `Cloud::tick` on the standard catalog at a fixed thread setting:
/// (median tick microseconds, events drained per tick).
fn tick(seed: u64, threads: usize) -> (f64, f64) {
    let mut config = SimConfig::paper(seed);
    config.threads = threads;
    let mut cloud = Cloud::new(Catalog::standard(), config);
    cloud.warmup(12);
    let mut events = Vec::new();
    let mut drained = 0usize;
    let mut us = Vec::new();
    for _ in 0..48 {
        let started = Instant::now();
        cloud.tick();
        us.push(started.elapsed().as_nanos() as f64 / 1e3);
        events.clear();
        cloud.drain_events_into(&mut events);
        drained += events.len();
    }
    (median(&us), drained as f64 / us.len() as f64)
}

fn sim(world: &World, out: &mut Vec<Metric>) {
    let (t1, _) = tick(world.seed, 1);
    let (auto, events) = tick(world.seed, 0);
    out.push(("sim.tick_t1_us", t1, "us"));
    out.push(("sim.tick_auto_us", auto, "us"));
    out.push(("sim.events_per_tick", events, "count"));
}

/// In-memory ingest cost per call, alone and with two threads.
fn store(world: &World, out: &mut Vec<Metric>) {
    let mut gen = Gen::new(&world.markets, world.seed ^ 0x57, 0, 1, 0, STUDY_DT_MS);
    let mut ops = Vec::new();
    gen.fill(&mut ops, 200_000);
    let (probes, spikes): (Vec<Op>, Vec<Op>) =
        ops.iter().partition(|op| matches!(op, Op::Probe(_)));
    for (name, ops) in [
        ("store.record_probe_ns", &probes),
        ("store.record_spike_ns", &spikes),
    ] {
        let store = DataStore::new();
        let started = Instant::now();
        for op in ops {
            op.apply(&store);
        }
        out.push((name, ns_each(started, ops.len()), "ns"));
    }

    let streams: Vec<Vec<Op>> = [0, 1]
        .map(|part| {
            let mut gen = Gen::new(&world.markets, world.seed ^ 0x57, part, 2, 0, STUDY_DT_MS);
            let mut ops = Vec::new();
            gen.fill(&mut ops, 100_000);
            ops
        })
        .into();
    let store = DataStore::new();
    let started = Instant::now();
    std::thread::scope(|s| {
        for ops in &streams {
            let store = &store;
            s.spawn(move || {
                for op in ops {
                    op.apply(store);
                }
            });
        }
    });
    out.push((
        "store.record_contended_ns",
        ns_each(started, streams[0].len()),
        "ns",
    ));
    out.push((
        "store.resident_bytes_per_probe",
        world.served.resident_bytes() as f64 / world.served.len() as f64,
        "B",
    ));
}

/// `ProbeRecord` codec, CRC and frame scan over the generated records.
fn persist(world: &World, out: &mut Vec<Metric>) {
    let mut gen = Gen::new(&world.markets, world.seed ^ 0xc0dec, 0, 1, 0, STUDY_DT_MS);
    let mut ops = Vec::new();
    gen.fill(&mut ops, 50_000);
    let records: Vec<ProbeRecord> = ops
        .iter()
        .filter_map(|op| match op {
            Op::Probe(p) => Some(*p),
            Op::Spike(_) => None,
        })
        .collect();
    let mut bytes = Vec::new();
    let started = Instant::now();
    for record in &records {
        record.encode(&mut bytes);
    }
    out.push(("codec.encode_ns", ns_each(started, records.len()), "ns"));
    let mut reader = Reader::new(&bytes);
    let started = Instant::now();
    for _ in 0..records.len() {
        black_box(ProbeRecord::decode(&mut reader).expect("own encoding decodes"));
    }
    out.push(("codec.decode_ns", ns_each(started, records.len()), "ns"));

    let block = &bytes[..32 * 1024];
    let started = Instant::now();
    for _ in 0..4_000 {
        black_box(crc::crc32(black_box(block)));
    }
    let gb = 4_000.0 * block.len() as f64 / 1e9;
    out.push(("crc.gb_per_s", gb / started.elapsed().as_secs_f64(), "GB/s"));

    let mut framed = Vec::new();
    for (seq, record) in records.iter().enumerate() {
        frame::write_frame(&mut framed, seq as u64, &record.to_bytes());
    }
    let started = Instant::now();
    let scanned = frame::scan(&framed);
    let secs = started.elapsed().as_secs_f64();
    assert_eq!(scanned.frames.len(), records.len(), "scan sees every frame");
    out.push((
        "frame.scan_mb_per_s",
        framed.len() as f64 / 1e6 / secs,
        "MB/s",
    ));
}

/// Snapshot capture/publish/reload on the served store, alone and
/// beside a paced writer; returns that writer's lag samples.
fn snapshot(world: &mut World, out: &mut Vec<Metric>) -> Vec<f64> {
    let as_of = SimTime::from_secs(world.as_of.load(Ordering::SeqCst));
    let mut reader = SnapshotReader::new(&world.hub);
    let (mut capture_ms, mut publish_us, mut reload_ns, mut step) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..5 {
        let rss = proc_status_bytes("VmRSS");
        let started = Instant::now();
        let snapshot = world.served.snapshot(as_of);
        capture_ms.push(ms_since(started));
        step.push(proc_status_bytes("VmRSS").saturating_sub(rss) as f64);
        let started = Instant::now();
        world.hub.publish(snapshot);
        publish_us.push(started.elapsed().as_nanos() as f64 / 1e3);
        let started = Instant::now();
        black_box(reader.current(&world.hub).as_of());
        reload_ns.push(started.elapsed().as_nanos() as f64);
    }
    out.push(("snapshot.capture_ms", median(&capture_ms), "ms"));
    out.push(("snapshot.publish_us", median(&publish_us), "us"));
    out.push(("snapshot.reader_reload_ns", median(&reload_ns), "ns"));
    out.push(("snapshot.bytes", quantile(&step, 1.0), "B"));

    let mut gen = world.served_gen.take().expect("the served stream is idle");
    let stop = AtomicBool::new(false);
    let store = &world.served;
    let (live_ms, (lag_ms, stall_us)) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let (mut lag_ms, mut stall_us, mut ops) = (Vec::new(), Vec::new(), Vec::new());
            let mut pacer = Pacer::start();
            // Relaxed: a plain stop flag, nothing is published with it.
            while !stop.load(Ordering::Relaxed) {
                if let Some((pending, late_ms)) = pacer.pending() {
                    lag_ms.push(late_ms);
                    let before = gen.probes;
                    ops.clear();
                    gen.fill(&mut ops, pending);
                    for op in &ops {
                        let sent = Instant::now();
                        op.apply(store);
                        stall_us.push(sent.elapsed().as_nanos() as f64 / 1e3);
                    }
                    pacer.ingested(gen.probes - before);
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            (lag_ms, stall_us)
        });
        let mut live_ms = Vec::new();
        for _ in 0..5 {
            std::thread::sleep(Duration::from_millis(100));
            let started = Instant::now();
            black_box(store.snapshot(as_of).len());
            live_ms.push(ms_since(started));
        }
        stop.store(true, Ordering::Relaxed);
        (live_ms, writer.join().expect("paced writer"))
    });
    out.push(("snapshot.capture_live_ms", median(&live_ms), "ms"));
    out.push((
        "snapshot.ingest_stall_p99_us",
        quantile(&stall_us, 0.99),
        "us",
    ));
    lag_ms
}

/// One sweep of the query surface over a read view: per-call costs of
/// the two point queries (ns) and the three all-market scans (us).
fn query_sweep(world: &mut World, read: &StoreRead<'_>, end: SimTime) -> [f64; 5] {
    let q = SpotLightQuery::new(read, SimTime::ZERO, end);
    let picks: Vec<usize> = (0..20_000).map(|_| world.draw_market()).collect();
    let ids = &world.markets.ids;
    let started = Instant::now();
    for &m in &picks {
        black_box(q.availability(ids[m], KINDS[m % 2]));
    }
    let availability = ns_each(started, picks.len());
    let started = Instant::now();
    for &m in &picks {
        black_box(q.freshness(ids[m], KINDS[m % 2]));
    }
    let freshness = ns_each(started, picks.len());

    let mut candidates: Vec<_> = read.probed_markets().collect();
    candidates.sort_unstable();
    let reps = 5;
    let started = Instant::now();
    for _ in 0..reps {
        black_box(q.spike_rates(&[1.25, 1.5, 2.0, 5.0], SimDuration::days(1)));
    }
    let spike_rates = ns_each(started, reps) / 1e3;
    let started = Instant::now();
    for _ in 0..reps {
        black_box(q.top_available_markets(&candidates, None, 1, 10));
    }
    let top = ns_each(started, reps) / 1e3;
    let started = Instant::now();
    for &m in &picks[..reps] {
        black_box(q.uncorrelated_fallbacks(ids[m], &candidates, SimDuration::from_secs(900), 5));
    }
    let fallbacks = ns_each(started, reps) / 1e3;
    [availability, freshness, spike_rates, top, fallbacks]
}

fn query(world: &mut World, out: &mut Vec<Metric>) {
    let snapshot = world.hub.load();
    let end = snapshot.as_of();
    let over_snapshot = query_sweep(world, &snapshot.read(), end);
    let served = Arc::clone(&world.served);
    let over_live = query_sweep(world, &served.read(), end);
    for (name, value, unit) in [
        ("query.availability_ns", over_snapshot[0], "ns"),
        ("query.freshness_ns", over_snapshot[1], "ns"),
        ("query.spike_rates_us", over_snapshot[2], "us"),
        ("query.top_markets_us", over_snapshot[3], "us"),
        ("query.fallbacks_us", over_snapshot[4], "us"),
    ] {
        out.push((name, value, unit));
    }
    out.push((
        "query.live_view_ratio",
        over_live.iter().sum::<f64>() / over_snapshot.iter().sum::<f64>(),
        "ratio",
    ));
}

/// Parser, router and response writer on the workload's own request
/// bytes; returns the per-request nanoseconds the three add up to.
fn serve(world: &mut World, out: &mut Vec<Metric>) -> io::Result<f64> {
    let requests: Vec<Vec<u8>> = (0..20_000)
        .map(|_| {
            let path = world.paths.point(&mut world.rng);
            format!("GET {path} HTTP/1.1\r\nHost: spotlight\r\n\r\n").into_bytes()
        })
        .collect();
    let limits = Limits::default();
    let started = Instant::now();
    for request in &requests {
        black_box(parser::parse(request, &limits));
    }
    let parse_ns = ns_each(started, requests.len());

    let state = ServiceState {
        hub: Arc::clone(&world.hub),
        store: Arc::downgrade(&world.served),
        stats: Arc::new(ServerStats::default()),
        draining: Arc::new(AtomicBool::new(false)),
        retry_after_secs: 1,
    };
    let mut reader = SnapshotReader::new(&world.hub);
    let mut bodies = Vec::with_capacity(requests.len());
    let started = Instant::now();
    for request in &requests {
        let Parsed::Complete { request, .. } = parser::parse(request, &limits) else {
            return Err(io::Error::other("own request did not parse"));
        };
        bodies.push(route(request.path, request.query, &state, &mut reader).body);
    }
    let route_ns = ns_each(started, requests.len()) - parse_ns;

    let mut wire = Vec::with_capacity(4096);
    let started = Instant::now();
    for body in &bodies {
        wire.clear();
        write_response(&mut wire, 200, body, false, false, None);
        black_box(wire.len());
    }
    let write_ns = ns_each(started, bodies.len());

    let market = world.draw_market();
    let fallbacks = world.paths.fallbacks[market].clone();
    let advisor = [
        ("/v1/advisor/top", "n=10"),
        ("/v1/spike-rates", ""),
        fallbacks.split_once('?').expect("path has a query"),
    ];
    let started = Instant::now();
    for (path, query) in advisor {
        black_box(route(path, query, &state, &mut reader).status);
    }
    out.push(("serve.parse_ns", parse_ns, "ns"));
    out.push(("serve.route_point_ns", route_ns, "ns"));
    out.push((
        "serve.route_advisor_us",
        ns_each(started, advisor.len()) / 1e3,
        "us",
    ));
    out.push(("serve.write_response_ns", write_ns, "ns"));

    // The one drainer serves one connection at a time: give up the
    // bench's connection while fresh ones are timed.
    world.client = None;
    let mut setup_us = Vec::new();
    for _ in 0..20 {
        let path = world.paths.point(&mut world.rng);
        let started = Instant::now();
        let mut client = Client::connect(world.addr, CLIENT_TIMEOUT)?;
        black_box(client.get(path)?.status);
        setup_us.push(started.elapsed().as_nanos() as f64 / 1e3);
    }
    world.client = Some(Client::connect(world.addr, CLIENT_TIMEOUT)?);
    out.push(("serve.conn_setup_us", median(&setup_us), "us"));
    Ok(parse_ns + route_ns + write_ns)
}

fn pool(out: &mut Vec<Metric>) {
    let pool = WorkerPool::global();
    let mut us = Vec::new();
    for _ in 0..2_000 {
        let started = Instant::now();
        pool.scope(|s| {
            s.spawn(|| {
                black_box(1);
            });
            s.spawn(|| {
                black_box(2);
            });
        });
        us.push(started.elapsed().as_nanos() as f64 / 1e3);
    }
    out.push(("pool.dispatch_us", median(&us), "us"));
}

/// What `main` needs back besides the metrics themselves.
pub struct Measured {
    pub metrics: Vec<Metric>,
    /// Lateness of the paced writer that ran beside the captures.
    pub pace_lag_ms: Vec<f64>,
    /// parse + route + write per point request, nanoseconds.
    pub point_handler_ns: f64,
}

pub fn measure(world: &mut World) -> io::Result<Measured> {
    let mut metrics = Vec::new();
    sim(world, &mut metrics);
    store(world, &mut metrics);
    persist(world, &mut metrics);
    let pace_lag_ms = snapshot(world, &mut metrics);
    query(world, &mut metrics);
    let point_handler_ns = serve(world, &mut metrics)?;
    pool(&mut metrics);
    Ok(Measured {
        metrics,
        pace_lag_ms,
        point_handler_ns,
    })
}
