//! Load generator for the HTTP query service: capacity, overload, and
//! drain, reported as one JSON line for `scripts/bench_snapshot.sh`.
//!
//! Three phases:
//!
//! 1. **Capacity** — a month-scale (1M-record) store is snapshotted
//!    and served; pipelined keep-alive clients drive availability
//!    queries closed-loop and report qps, p50, and p99.
//! 2. **Overload** — a deliberately constrained server (one worker,
//!    tiny dispatch queue) is measured closed-loop with short-lived
//!    connections, then offered paced open-loop load at 1×, 2×, and 4×
//!    that capacity. The excess must be *shed* (`503 + Retry-After`),
//!    not queued: accepted-request p99 at 2× must stay within 5× the
//!    1× p99, with zero 5xx responses from handlers and zero panics.
//! 3. **Drain** — graceful shutdown must join every thread without
//!    hitting the deadline.
//!
//! `--check` turns the report into a gate (non-zero exit on violation)
//! for `scripts/bench_check.sh`. `LOADGEN_MIN_QPS` overrides the
//! capacity floor (default 100_000).

use cloud_sim::time::SimTime;
use spotlight_bench::synthetic_store_spaced;
use spotlight_core::snapshot::SnapshotHub;
use spotlight_core::store::SharedStore;
use spotlight_serve::client::Client;
use spotlight_serve::server::{Server, ServerConfig};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Records in the capacity-phase store (~one simulated month at 3 s
/// spacing).
const RECORDS: u64 = 1_000_000;
const SPACING: u64 = 3;
/// Requests pipelined per batch in the capacity phase.
const PIPELINE: usize = 64;
/// Closed-loop client threads in the capacity phase.
const CAPACITY_CLIENTS: usize = 2;
/// Paced client threads in the overload phases.
const OVERLOAD_CLIENTS: usize = 4;

const QUERY_PATHS: [&str; 4] = [
    "/v1/availability?market=us-east-1a/c3.large/linux&kind=od",
    "/v1/availability?market=us-east-1b/c3.xlarge/linux&kind=od",
    "/v1/availability?market=us-east-1c/c3.2xlarge/linux&kind=od",
    "/v1/availability?market=us-east-1a/m3.large/linux&kind=spot",
];

fn percentile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx]
}

struct PhaseReport {
    mult: u64,
    offered_qps: f64,
    accepted_qps: f64,
    accepted: u64,
    shed_503: u64,
    errors: u64,
    p50_us: u64,
    p99_us: u64,
}

/// Closed-loop pipelined capacity measurement over keep-alive
/// connections.
fn capacity_phase(addr: SocketAddr, window: Duration) -> (f64, u64, u64) {
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for t in 0..CAPACITY_CLIENTS {
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut client =
                Client::connect(addr, Duration::from_secs(2)).expect("connect capacity client");
            let mut latencies_us: Vec<u64> = Vec::with_capacity(1 << 18);
            let mut done = 0u64;
            let path = QUERY_PATHS[t % QUERY_PATHS.len()];
            while !stop.load(Ordering::Relaxed) {
                let t0 = Instant::now();
                client
                    .send_gets(std::iter::repeat_n(path, PIPELINE))
                    .expect("pipelined send");
                for _ in 0..PIPELINE {
                    let resp = client.read_response().expect("pipelined response");
                    assert_eq!(resp.status, 200, "capacity query failed: {}", resp.body);
                    latencies_us.push(t0.elapsed().as_micros() as u64);
                }
                done += PIPELINE as u64;
            }
            (done, latencies_us)
        }));
    }
    let started = Instant::now();
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    let mut total = 0u64;
    let mut latencies: Vec<u64> = Vec::new();
    for h in handles {
        let (done, lats) = h.join().expect("capacity client");
        total += done;
        latencies.extend(lats);
    }
    let elapsed = started.elapsed().as_secs_f64();
    latencies.sort_unstable();
    (
        total as f64 / elapsed,
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.99),
    )
}

/// One short-lived connection round-trip, classified.
enum Attempt {
    Accepted(u64),
    Shed,
    Error,
}

fn one_shot(addr: SocketAddr, path: &str) -> Attempt {
    let t0 = Instant::now();
    let Ok(mut client) = Client::connect(addr, Duration::from_millis(500)) else {
        return Attempt::Error;
    };
    match client.get(path) {
        Ok(resp) if resp.status == 200 => Attempt::Accepted(t0.elapsed().as_micros() as u64),
        Ok(resp) if resp.status == 503 => {
            // Shed responses must carry the backoff hint.
            assert!(
                resp.header("retry-after").is_some(),
                "503 without Retry-After"
            );
            Attempt::Shed
        }
        Ok(_) | Err(_) => Attempt::Error,
    }
}

/// Closed-loop short-lived-connection capacity of the constrained
/// server — the 1× reference rate for the paced phases.
fn constrained_capacity(addr: SocketAddr, window: Duration) -> f64 {
    let stop = Arc::new(AtomicBool::new(false));
    let count = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for _ in 0..2 {
        let stop = Arc::clone(&stop);
        let count = Arc::clone(&count);
        handles.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if let Attempt::Accepted(_) = one_shot(addr, QUERY_PATHS[0]) {
                    count.fetch_add(1, Ordering::Relaxed);
                }
            }
        }));
    }
    let started = Instant::now();
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().expect("constrained client");
    }
    count.load(Ordering::Relaxed) as f64 / started.elapsed().as_secs_f64()
}

/// Offers `target_qps` of short-lived connections for `window`,
/// classifying every attempt. Client concurrency scales with the
/// multiple: each attempt blocks for roughly one service time, so a
/// fixed thread pool could never offer more than 1× — the extra
/// threads are what turns "2× offered" into real concurrent demand.
fn paced_phase(addr: SocketAddr, mult: u64, target_qps: f64, window: Duration) -> PhaseReport {
    let threads = OVERLOAD_CLIENTS * mult as usize;
    let per_thread = target_qps / threads as f64;
    let interval = Duration::from_secs_f64(1.0 / per_thread.max(1.0));
    let mut handles = Vec::new();
    for _ in 0..threads {
        handles.push(std::thread::spawn(move || {
            let deadline = Instant::now() + window;
            let mut next = Instant::now();
            let mut offered = 0u64;
            let mut shed = 0u64;
            let mut errors = 0u64;
            let mut latencies_us = Vec::new();
            loop {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                if now < next {
                    std::thread::sleep(next - now);
                }
                offered += 1;
                match one_shot(addr, QUERY_PATHS[(offered % 4) as usize]) {
                    Attempt::Accepted(us) => latencies_us.push(us),
                    Attempt::Shed => shed += 1,
                    Attempt::Error => errors += 1,
                }
                next += interval;
                // A blocked thread re-syncs instead of bursting to
                // catch up (open-loop pacing, not a retry storm).
                if Instant::now() > next + Duration::from_millis(250) {
                    next = Instant::now();
                }
            }
            (offered, shed, errors, latencies_us)
        }));
    }
    let started = Instant::now();
    let mut offered = 0u64;
    let mut shed = 0u64;
    let mut errors = 0u64;
    let mut latencies: Vec<u64> = Vec::new();
    for h in handles {
        let (o, s, e, lats) = h.join().expect("paced client");
        offered += o;
        shed += s;
        errors += e;
        latencies.extend(lats);
    }
    let elapsed = started.elapsed().as_secs_f64();
    latencies.sort_unstable();
    PhaseReport {
        mult,
        offered_qps: offered as f64 / elapsed,
        accepted_qps: latencies.len() as f64 / elapsed,
        accepted: latencies.len() as u64,
        shed_503: shed,
        errors,
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check = args.iter().any(|a| a == "--check");
    let records = args
        .iter()
        .position(|a| a == "--records")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(RECORDS);
    let window_ms: u64 = args
        .iter()
        .position(|a| a == "--window-ms")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000);
    let window = Duration::from_millis(window_ms);
    let overload_window = Duration::from_millis(window_ms.max(500));

    eprintln!("loadgen: seeding {records} records...");
    let store: SharedStore = Arc::new(synthetic_store_spaced(records, SPACING));
    let as_of = SimTime::from_secs(records * SPACING);
    let hub = Arc::new(SnapshotHub::new(store.snapshot(as_of)));

    // ---- phase 1: capacity over snapshots, pipelined keep-alive ----
    let capacity_config = ServerConfig {
        workers: 2,
        queue_depth: 256,
        max_connections: 256,
        max_requests_per_conn: u64::MAX,
        read_timeout: Duration::from_secs(2),
        write_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", &store, Arc::clone(&hub), capacity_config)
        .expect("start capacity server");
    let addr = server.local_addr();
    eprintln!("loadgen: capacity phase ({window_ms} ms closed-loop)...");
    let (capacity_qps, cap_p50_us, cap_p99_us) = capacity_phase(addr, window);
    let cap_stats = server.stats();
    let report = server.drain(Duration::from_secs(5));
    assert!(!report.forced, "capacity server failed to drain");

    // ---- phase 2: overload against a constrained server ----
    let constrained_config = ServerConfig {
        workers: 1,
        queue_depth: 2,
        max_connections: 4,
        read_timeout: Duration::from_millis(250),
        write_timeout: Duration::from_millis(250),
        header_deadline: Duration::from_millis(500),
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", &store, Arc::clone(&hub), constrained_config)
        .expect("start constrained server");
    let addr = server.local_addr();
    eprintln!("loadgen: measuring constrained capacity...");
    let constrained_qps = constrained_capacity(addr, Duration::from_millis(window_ms.max(500)));
    let mut phases = Vec::new();
    for mult in [1u64, 2, 4] {
        eprintln!("loadgen: offered load at {mult}x ({constrained_qps:.0} qps base)...");
        phases.push(paced_phase(
            addr,
            mult,
            constrained_qps * mult as f64,
            overload_window,
        ));
    }
    let overload_stats = server.stats();
    let report = server.drain(Duration::from_secs(5));
    assert!(!report.forced, "constrained server failed to drain");

    let panics = cap_stats.panics + overload_stats.panics;
    let responses_5xx = cap_stats.responses_5xx + overload_stats.responses_5xx;

    let mut out = String::new();
    out.push_str(&format!(
        "{{\"bench\":\"http_loadgen\",\"records\":{records},\
         \"capacity_qps\":{capacity_qps:.0},\
         \"capacity_p50_us\":{cap_p50_us},\"capacity_p99_us\":{cap_p99_us},\
         \"constrained_qps\":{constrained_qps:.0},\"overload\":["
    ));
    for (i, p) in phases.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"mult\":{},\"offered_qps\":{:.0},\"accepted_qps\":{:.0},\
             \"accepted\":{},\"shed_503\":{},\"errors\":{},\
             \"p50_us\":{},\"p99_us\":{}}}",
            p.mult,
            p.offered_qps,
            p.accepted_qps,
            p.accepted,
            p.shed_503,
            p.errors,
            p.p50_us,
            p.p99_us
        ));
    }
    out.push_str(&format!(
        "],\"shed_total\":{},\"responses_5xx\":{responses_5xx},\"panics\":{panics}}}",
        overload_stats.shed
    ));
    println!("{out}");

    if check {
        let min_qps: f64 = std::env::var("LOADGEN_MIN_QPS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(100_000.0);
        let mut failures = Vec::new();
        if capacity_qps < min_qps {
            failures.push(format!(
                "capacity {capacity_qps:.0} qps below the {min_qps:.0} floor"
            ));
        }
        let p1 = &phases[0];
        let p2 = &phases[1];
        if p2.shed_503 == 0 {
            failures.push("no load was shed at 2x offered load".into());
        }
        // Floor the 1x baseline at 200 us so a lucky sub-100 us p99
        // doesn't turn measurement noise into a failure.
        let p99_budget = 5 * p1.p99_us.max(200);
        if p2.p99_us > p99_budget {
            failures.push(format!(
                "2x accepted p99 {} us exceeds 5x the 1x p99 ({} us budget)",
                p2.p99_us, p99_budget
            ));
        }
        if responses_5xx > 0 {
            failures.push(format!("{responses_5xx} handler 5xx responses"));
        }
        if panics > 0 {
            failures.push(format!("{panics} worker panics"));
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("loadgen check FAILED: {f}");
            }
            std::process::exit(1);
        }
        eprintln!("loadgen check: ok");
    }
}
