//! End-to-end smoke test of the HTTP query service against a durable
//! store: concurrent clients, hostile clients (slow-loris, oversized,
//! malformed), a republish whose all-market answers must move as the
//! in-process reference's do, and a mid-flight graceful drain that must
//! leave the store closed cleanly (zero-replay restart).
//!
//! Run via `scripts/http_smoke.sh` (part of the verify path). Exits
//! non-zero on the first violated invariant; prints one `ok <what>`
//! line per section.

use cloud_sim::ids::{Az, MarketId, Platform, Region};
use cloud_sim::price::Price;
use cloud_sim::time::{SimDuration, SimTime};
use spotlight_core::durable::{DurableOptions, FsyncPolicy};
use spotlight_core::json;
use spotlight_core::probe::{ProbeKind, ProbeOutcome, ProbeRecord, ProbeTrigger};
use spotlight_core::query::SpotLightQuery;
use spotlight_core::snapshot::{SnapshotHub, StoreSnapshot, MAX_SPIKE_THRESHOLDS};
use spotlight_core::store::{DataStore, SharedStore, SpikeEvent};
use spotlight_persist::tempdir::TempDir;
use spotlight_serve::client::Client;
use spotlight_serve::parser::Limits;
use spotlight_serve::router::{market_param, parse_market};
use spotlight_serve::server::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Probes fed into the durable store (~42 simulated hours at 3 s)
/// before the server starts, and those fed before the republish — not
/// a whole number of the 1,000-record cycles spike ratios repeat in, so
/// that spike *rates* move too.
const RECORDS: u64 = 50_000;
const LATER_RECORDS: u64 = 5_300;
const SPACING: u64 = 3;
/// Well-behaved concurrent clients and requests each.
const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 200;

const PATHS: [&str; 8] = [
    "/v1/availability?market=us-east-1a/c3.large/linux&kind=od",
    "/v1/availability?market=us-east-1b/c3.xlarge/linux&kind=spot",
    "/v1/freshness?market=us-east-1a/c3.large/linux",
    "/v1/spike-rates?thresholds=1.25,2,5&window_secs=3600",
    "/v1/bid-spread?market=us-east-1a/c3.large/linux",
    "/v1/advisor/top?region=us-east-1&n=5",
    "/v1/advisor/fallbacks?market=us-east-1a/c3.large/linux&n=3",
    "/healthz",
];

fn ok(what: &str) {
    println!("ok {what}");
}

/// Feeds the deterministic probes numbered `records`, each with its
/// spike, over a dozen us-east-1 markets (the ones [`PATHS`] asks
/// about): time-ordered, [`SPACING`] seconds apart, with a mix of kinds
/// and outcomes.
fn feed_synthetic(store: &DataStore, records: std::ops::Range<u64>) {
    let types = ["c3.large", "c3.xlarge", "c3.2xlarge", "m3.large"]
        .map(|name| name.parse().expect("instance type"));
    for i in records {
        let market = MarketId {
            az: Az::new(Region::UsEast1, (i % 3) as u8),
            instance_type: types[(i % 4) as usize],
            platform: Platform::LinuxUnix,
        };
        let at = SimTime::from_secs(i * SPACING);
        let ratio = 0.2 + ((i * 7919) % 1000) as f64 / 100.0;
        let spot = i % 5 == 0;
        store.record_spike(SpikeEvent {
            market,
            at,
            ratio,
            probed: true,
        });
        store.record_probe(ProbeRecord {
            at,
            market,
            kind: if spot {
                ProbeKind::Spot
            } else {
                ProbeKind::OnDemand
            },
            trigger: if spot {
                ProbeTrigger::Periodic
            } else {
                ProbeTrigger::PriceSpike { ratio }
            },
            outcome: match (i % 17 == 0, spot) {
                (false, _) => ProbeOutcome::Fulfilled,
                (true, true) => ProbeOutcome::CapacityNotAvailable,
                (true, false) => ProbeOutcome::InsufficientCapacity,
            },
            spot_ratio: ratio.min(1.2),
            bid: None,
            cost: Price::ZERO,
        });
    }
}

/// What the reference path — `SpotLightQuery` over `observed_markets()`,
/// which reads none of a snapshot's derived state — answers the three
/// all-market questions of [`PATHS`] with on `snapshot`, and a fourth:
/// every fallback of the first observed market with on-demand
/// rejections, an answer that runs past the uncorrelated candidates into
/// the correlated ones. As (path, the JSON array each response body
/// must contain).
fn reference_answers(snapshot: &StoreSnapshot) -> [(String, String); 4] {
    let read = snapshot.read();
    let q = SpotLightQuery::new(&read, SimTime::ZERO, snapshot.as_of());
    let observed = q.observed_markets();
    let window = SimDuration::from_secs(900);
    let fallbacks = |origin, n| {
        let mut answer = String::new();
        json::array(&mut answer, |a| {
            for market in q.uncorrelated_fallbacks(origin, &observed, window, n) {
                a.str(&market_param(market));
            }
        });
        answer
    };
    let rejected = *(observed.iter())
        .find(|&&m| !read.rejection_times(m, ProbeKind::OnDemand).is_empty())
        .expect("a market with on-demand rejections");
    assert!(
        (observed.iter()).any(|&c| q.conditional_unavailability(rejected, c, window) > Some(0.0)),
        "{rejected} must have correlated candidates"
    );
    let (mut spike_rates, mut top) = (String::new(), String::new());
    json::array(&mut spike_rates, |a| {
        for rate in q.spike_rates(&[1.25, 2.0, 5.0], SimDuration::from_secs(3600)) {
            a.object(|o| {
                o.f64("threshold", rate.threshold);
                o.f64("spikes_per_window", rate.spikes_per_window);
            });
        }
    });
    json::array(&mut top, |a| {
        for (market, stats) in q.top_available_markets(&observed, Some(Region::UsEast1), 1, 5) {
            a.object(|o| {
                o.str("market", &market_param(market));
                o.value("availability", &stats);
            });
        }
    });
    let origin = parse_market("us-east-1a/c3.large/linux").expect("market");
    let every = observed.len() + 1;
    [
        (PATHS[3].to_string(), spike_rates),
        (PATHS[5].to_string(), top),
        (PATHS[6].to_string(), fallbacks(origin, 3)),
        (
            format!(
                "/v1/advisor/fallbacks?market={}&n={every}",
                market_param(rejected)
            ),
            fallbacks(rejected, every),
        ),
    ]
}

/// Asks the server the four questions and holds each body to the
/// reference's answer on `snapshot`, the generation now published.
fn assert_reference_answers(client: &mut Client, snapshot: &StoreSnapshot) -> [String; 4] {
    reference_answers(snapshot).map(|(path, answer)| {
        let resp = client.get(&path).expect("request");
        assert!(
            resp.status == 200 && resp.body.contains(&answer),
            "GET {path} as of {}: {} {}\nreference: {answer}",
            snapshot.as_of(),
            resp.status,
            resp.body
        );
        answer
    })
}

/// Raw request → (status, closed). Accepts early close as status 0.
fn raw_roundtrip(addr: SocketAddr, bytes: &[u8]) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect raw");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    stream.write_all(bytes).expect("write raw request");
    let mut response = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                response.extend_from_slice(&chunk[..n]);
                if response.windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
        }
    }
    let head = String::from_utf8_lossy(&response);
    head.split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn main() {
    let tmp = TempDir::new("http-smoke");
    let dir = tmp.path().join("store");

    // ---- seed a durable store and publish a snapshot ----
    let store = DataStore::create_durable(
        &dir,
        DurableOptions {
            fsync: FsyncPolicy::Never,
            queue_capacity: 65_536,
            ..DurableOptions::default()
        },
    )
    .expect("create durable store");
    feed_synthetic(&store, 0..RECORDS);
    store.flush().expect("flush");
    let store: SharedStore = Arc::new(store);
    let as_of = SimTime::from_secs(RECORDS * SPACING);
    let hub = Arc::new(SnapshotHub::new(store.snapshot(as_of)));
    ok("seeded durable store");

    let config = ServerConfig {
        workers: 3,
        queue_depth: 64,
        max_connections: 64,
        read_timeout: Duration::from_millis(200),
        write_timeout: Duration::from_millis(500),
        header_deadline: Duration::from_millis(600),
        limits: Limits::default(),
        ..ServerConfig::default()
    };
    let header_deadline = config.header_deadline;
    let server =
        Server::start("127.0.0.1:0", &store, Arc::clone(&hub), config).expect("start server");
    let addr = server.local_addr();

    // ---- readiness up front ----
    let mut client = Client::connect(addr, Duration::from_secs(2)).expect("connect");
    let resp = client.get("/readyz").expect("readyz");
    assert_eq!(resp.status, 200, "readyz before drain: {}", resp.body);
    assert!(resp.body.contains("\"ready\":true"), "{}", resp.body);
    let resp = client.get("/healthz").expect("healthz");
    assert!(
        resp.body.contains("\"available\":true"),
        "healthz must see the live store: {}",
        resp.body
    );
    ok("healthz/readyz surface the live store");

    // ---- concurrent well-behaved clients over every endpoint ----
    let mut handles = Vec::new();
    for t in 0..CLIENTS {
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr, Duration::from_secs(5)).expect("connect");
            for i in 0..REQUESTS_PER_CLIENT {
                let path = PATHS[(t + i) % PATHS.len()];
                let resp = client.get(path).expect("request");
                assert_eq!(
                    resp.status, 200,
                    "GET {path} -> {} {}",
                    resp.status, resp.body
                );
                assert!(
                    resp.body.starts_with('{'),
                    "GET {path}: non-JSON body {}",
                    resp.body
                );
            }
        }));
    }

    // ---- hostile clients, concurrently with the load above ----
    // Malformed / unsupported / oversized each get the right status.
    assert_eq!(raw_roundtrip(addr, b"GARBAGE\r\n\r\n"), 400, "malformed");
    assert_eq!(
        raw_roundtrip(addr, b"POST /v1/availability HTTP/1.1\r\n\r\n"),
        405,
        "method not allowed"
    );
    assert_eq!(
        raw_roundtrip(addr, b"GET / HTTP/2.0\r\n\r\n"),
        505,
        "version not supported"
    );
    let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(4096));
    assert_eq!(
        raw_roundtrip(addr, long_line.as_bytes()),
        414,
        "uri too long"
    );
    let big_headers = format!(
        "GET /healthz HTTP/1.1\r\n{}\r\n",
        "X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n".repeat(300)
    );
    assert_eq!(
        raw_roundtrip(addr, big_headers.as_bytes()),
        431,
        "headers too large"
    );
    let oversized_body = "GET /healthz HTTP/1.1\r\nContent-Length: 999999\r\n\r\n";
    assert_eq!(
        raw_roundtrip(addr, oversized_body.as_bytes()),
        413,
        "body too large"
    );
    assert_eq!(
        raw_roundtrip(addr, b"GET /no/such/route HTTP/1.1\r\n\r\n"),
        404,
        "unknown route"
    );
    assert_eq!(
        raw_roundtrip(addr, b"GET /v1/availability?market=bogus HTTP/1.1\r\n\r\n"),
        400,
        "bad market parameter"
    );
    let endless_window = b"GET /v1/advisor/fallbacks?market=us-east-1c/c3.large/linux&\
        window_secs=18446744073709551615 HTTP/1.1\r\n\r\n";
    assert_eq!(raw_roundtrip(addr, endless_window), 200, "endless window");
    let signed_length = b"GET /healthz HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello";
    assert_eq!(raw_roundtrip(addr, signed_length), 400, "signed length");
    // A threshold list is bounded, and lists of distinct thresholds at
    // the bound — each a sweep, together more than a snapshot memoises —
    // are still answered.
    let thresholds = |from: usize, len: usize| {
        let list: Vec<String> = (from..from + len).map(|i| format!("{}.5", i)).collect();
        format!("/v1/spike-rates?thresholds={}", list.join(","))
    };
    let resp = client
        .get(&thresholds(0, MAX_SPIKE_THRESHOLDS + 1))
        .expect("over the bound");
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("at most 32"), "{}", resp.body);
    for flood in 0..3 {
        let path = thresholds(flood * MAX_SPIKE_THRESHOLDS, MAX_SPIKE_THRESHOLDS);
        let resp = client.get(&path).expect("at the bound");
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(
            resp.body.matches("\"threshold\":").count(),
            MAX_SPIKE_THRESHOLDS
        );
    }
    ok("hostile inputs answered with the right statuses");

    // Slow-loris: dribble a header forever; the deadline must cut it
    // off with 408 well before it completes.
    let loris = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect loris");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let started = Instant::now();
        let _ = stream.write_all(b"GET /healthz HTT");
        // Keep dribbling until the server gives up on us.
        loop {
            std::thread::sleep(Duration::from_millis(50));
            if stream.write_all(b"P").is_err() {
                break; // server already closed
            }
            let mut chunk = [0u8; 512];
            let _ = stream.set_read_timeout(Some(Duration::from_millis(10)));
            match stream.read(&mut chunk) {
                Ok(n) if n > 0 => {
                    let head = String::from_utf8_lossy(&chunk[..n]).to_string();
                    assert!(
                        head.starts_with("HTTP/1.1 408"),
                        "slow-loris got {head:?}, wanted 408"
                    );
                    return started.elapsed();
                }
                Ok(_) => break, // clean close
                Err(_) => {}    // still waiting
            }
            assert!(
                started.elapsed() < Duration::from_secs(8),
                "slow-loris connection neither answered nor closed"
            );
        }
        started.elapsed()
    });
    let loris_lived = loris.join().expect("slow-loris thread");
    assert!(
        loris_lived >= header_deadline / 2,
        "slow-loris cut off suspiciously early ({loris_lived:?})"
    );
    ok("slow-loris cut off by the header deadline");

    for h in handles {
        h.join().expect("well-behaved client");
    }
    ok("concurrent clients all served");

    // ---- republish: derived state must not outlive its generation ----
    // (The first connection has idled past the server's read timeout.)
    let mut client = Client::connect(addr, Duration::from_secs(2)).expect("connect");
    let before = assert_reference_answers(&mut client, &hub.load());
    feed_synthetic(&store, RECORDS..RECORDS + LATER_RECORDS);
    hub.republish(
        &store,
        SimTime::from_secs((RECORDS + LATER_RECORDS) * SPACING),
    );
    let after = assert_reference_answers(&mut client, &hub.load());
    assert!(
        before[0] != after[0] && before[1] != after[1],
        "the later records must move the reference, or a stale answer passes: {after:?}"
    );
    ok("all-market answers follow the republished generation as the reference does");

    // ---- mid-flight drain: in-flight requests finish, then close ----
    let inflight = std::thread::spawn(move || {
        let mut served = 0u32;
        let mut client = Client::connect(addr, Duration::from_secs(5)).expect("connect");
        loop {
            match client.get("/v1/spike-rates") {
                Ok(resp) if resp.status == 200 => served += 1,
                Ok(resp) => {
                    // Drain rejection must advertise backoff.
                    assert_eq!(resp.status, 503, "{}", resp.body);
                    assert!(resp.header("retry-after").is_some());
                    break;
                }
                Err(_) => break, // server closed the connection
            }
        }
        served
    });
    // One hostile straggler mid-drain: drain must not wait for it
    // beyond the header deadline.
    let mut straggler = TcpStream::connect(addr).expect("connect straggler");
    straggler
        .write_all(b"GET /healthz HT")
        .expect("partial head");
    std::thread::sleep(Duration::from_millis(50));

    let report = server.drain(Duration::from_secs(10));
    assert!(!report.forced, "drain hit the deadline: {:?}", report.stats);
    assert_eq!(
        report.stats.responses_5xx, 0,
        "handler 5xx: {:?}",
        report.stats
    );
    assert_eq!(report.stats.panics, 0, "worker panics: {:?}", report.stats);
    let served = inflight.join().expect("in-flight client");
    assert!(served > 0, "in-flight client never got an answer");
    drop(straggler);

    // New connections must now be refused outright.
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "listener still accepting after drain"
    );
    ok("graceful drain finished in-flight work and stopped the listener");

    // ---- zero-replay restart: drain left us the last strong Arc ----
    let store = Arc::try_unwrap(store).expect("server must not retain the store");
    store.close().expect("clean close");
    let (reopened, info) =
        DataStore::recover_with_report(&dir, DurableOptions::default()).expect("recover");
    assert_eq!(info.replayed_ops, 0, "clean shutdown must not replay");
    assert!(info.from_clean_shutdown, "close marker missing");
    let records = (RECORDS + LATER_RECORDS) as usize;
    assert_eq!(reopened.len(), records, "records lost");
    ok("drained store closed cleanly: zero-replay restart");

    println!("http_smoke: all sections passed");
}
