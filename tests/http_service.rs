//! Property and fault-matrix tests for the HTTP service layer
//! (crates/serve): the parser must never panic on arbitrary bytes,
//! malformed input must map to 4xx-family rejects (never a successful
//! parse), permit accounting must stay balanced under any
//! acquire/release interleaving, and the server must enforce its
//! deadline and size caps with the documented status codes.

use cloud_sim::ids::{Az, MarketId, Platform, Region};
use cloud_sim::price::Price;
use cloud_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;
use spotlight_core::json;
use spotlight_core::probe::{ProbeKind, ProbeOutcome, ProbeRecord, ProbeTrigger};
use spotlight_core::query::SpotLightQuery;
use spotlight_core::snapshot::{SnapshotHub, SnapshotReader, StoreSnapshot};
use spotlight_core::store::{DataStore, SharedStore};
use spotlight_core::{DurableOptions, FsyncPolicy};
use spotlight_persist::tempdir::TempDir;
use spotlight_persist::DiskIo;
use spotlight_serve::admission::{Permit, ServerStats, StatsSnapshot};
use spotlight_serve::client::Client;
use spotlight_serve::parser::{parse, Limits, Parsed};
use spotlight_serve::router::{market_param, route, ServiceState};
use spotlight_serve::server::{Server, ServerConfig};
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------- parser

proptest! {
    // Raw fuzz: any byte soup, any (sane) limits — parse must return,
    // not panic, and a Complete must consume within the buffer.
    #[test]
    fn parser_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..600),
        max_line in 8usize..128,
        max_head in 16usize..256,
        max_body in 0usize..64,
    ) {
        let limits = Limits {
            max_request_line: max_line,
            max_header_bytes: max_head,
            max_headers: 4,
            max_body,
        };
        match parse(&bytes, &limits) {
            Parsed::Complete { consumed, .. } => {
                prop_assert!(consumed <= bytes.len());
                prop_assert!(consumed > 0);
            }
            Parsed::Partial | Parsed::Reject(_) => {}
        }
    }

    // Structured fuzz: a valid request corrupted by random byte
    // writes. Exercises the deep header paths that pure byte soup
    // rarely reaches. Same invariants.
    #[test]
    fn parser_never_panics_on_corrupted_requests(
        writes in proptest::collection::vec((0usize..96, any::<u8>()), 0..12),
    ) {
        let mut bytes = b"GET /v1/availability?market=a/b/c HTTP/1.1\r\n\
                          Host: spot\r\nConnection: keep-alive\r\n\
                          Content-Length: 3\r\n\r\nabc"
            .to_vec();
        for (at, b) in writes {
            let at = at % bytes.len();
            bytes[at] = b;
        }
        match parse(&bytes, &Limits::default()) {
            Parsed::Complete { consumed, .. } => {
                prop_assert!(consumed <= bytes.len());
                prop_assert!(consumed > 0);
            }
            Parsed::Partial | Parsed::Reject(_) => {}
        }
    }

    // A head whose request line opens with garbage can reject or wait
    // for more bytes, but must never parse as a request.
    #[test]
    fn malformed_request_lines_never_complete(
        junk in proptest::collection::vec(1u8..255, 1..40),
    ) {
        // Force a non-method first byte so the line cannot be valid.
        let mut bytes = vec![b'@'];
        bytes.extend_from_slice(&junk);
        bytes.extend_from_slice(b" / HTTP/1.1\r\n\r\n");
        match parse(&bytes, &Limits::default()) {
            Parsed::Complete { .. } => prop_assert!(false, "garbage parsed as a request"),
            Parsed::Partial => {}
            Parsed::Reject(reject) => {
                let status = reject.status();
                prop_assert!(
                    (400..=431).contains(&status) || status == 501 || status == 505,
                    "unexpected reject status {status}"
                );
            }
        }
    }

    // Permit accounting: any interleaving of acquires and releases
    // keeps the gauge within the cap and ends exactly at the held
    // count — no slot is ever leaked or double-freed.
    #[test]
    fn permit_accounting_stays_balanced(
        ops in proptest::collection::vec((any::<bool>(), 0usize..8), 1..60),
        cap in 1u64..6,
    ) {
        let stats = Arc::new(ServerStats::default());
        let mut held: Vec<Permit> = Vec::new();
        for (acquire, pick) in ops {
            if acquire {
                if let Some(permit) = Permit::try_acquire(&stats, cap) {
                    held.push(permit);
                }
                prop_assert!(held.len() as u64 <= cap);
            } else if !held.is_empty() {
                held.swap_remove(pick % held.len());
            }
            let gauge = stats.open_connections.load(Ordering::Relaxed);
            prop_assert_eq!(gauge, held.len() as u64);
        }
        drop(held);
        prop_assert_eq!(stats.open_connections.load(Ordering::Relaxed), 0);
    }
}

// ------------------------------------------------------- server matrix

fn start_server(config: ServerConfig) -> (Server, SharedStore) {
    let store: SharedStore = Arc::new(DataStore::new());
    let hub = Arc::new(SnapshotHub::new(
        store.snapshot(cloud_sim::time::SimTime::ZERO),
    ));
    let server = Server::start("127.0.0.1:0", &store, hub, config).expect("start server");
    (server, store)
}

/// Writes `request` raw and returns the response status (0 when the
/// server closed without answering).
fn raw_status(server: &Server, request: &[u8]) -> u16 {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    stream.write_all(request).expect("write");
    let mut buf = Vec::new();
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
        }
    }
    String::from_utf8_lossy(&buf)
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn finish(server: Server) -> StatsSnapshot {
    let report = server.drain(Duration::from_secs(5));
    assert!(!report.forced, "drain deadline hit: {:?}", report.stats);
    assert_eq!(
        report.stats.panics, 0,
        "worker panicked: {:?}",
        report.stats
    );
    assert_eq!(
        report.stats.responses_5xx, 0,
        "handler 5xx: {:?}",
        report.stats
    );
    report.stats
}

#[test]
fn header_deadline_expiry_times_out_with_408() {
    let header_deadline = Duration::from_millis(150);
    let (server, _store) = start_server(ServerConfig {
        read_timeout: Duration::from_millis(50),
        header_deadline,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    // A partial head that never completes must be answered 408 by the
    // server's clock, not held forever.
    let status = raw_status(&server, b"GET /healthz HTT");
    assert_eq!(status, 408);

    // Nor may a head that keeps growing: a byte every 50 ms never lets
    // the connection idle, and the deadline still counts from its first
    // byte.
    let mut loris = TcpStream::connect(addr).expect("connect");
    let _ = loris.set_read_timeout(Some(Duration::from_millis(10)));
    let started = Instant::now();
    loris.write_all(b"GET /healthz HTT").expect("head");
    let mut chunk = [0u8; 512];
    let head = loop {
        std::thread::sleep(Duration::from_millis(50));
        match loris.read(&mut chunk) {
            Ok(n) => break String::from_utf8_lossy(&chunk[..n]).into_owned(),
            Err(_) => loris.write_all(b"P").expect("dribble"),
        }
        assert!(started.elapsed() < Duration::from_secs(5), "no answer");
    };
    let lived = started.elapsed();
    assert!(head.starts_with("HTTP/1.1 408"), "a dribbler got {head:?}");
    assert!(lived >= header_deadline / 2, "cut off at {lived:?}");

    // A half-sent head must not hold a drain past the header deadline,
    // and a drained server accepts no connection.
    let admitted = server.stats().admitted;
    let mut straggler = TcpStream::connect(addr).expect("connect");
    straggler.write_all(b"GET /healthz HT").expect("head");
    while server.stats().admitted == admitted {
        std::thread::yield_now();
    }
    finish(server);
    let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err();
    assert!(refused, "listener still accepting after the drain");
}

/// A drain that runs out of time gives up on the stragglers: a head
/// that stays half-sent past the deadline makes `drain` return
/// `forced`, and the thread still serving it holds no strong store
/// reference, so the caller's `Arc` is the last one and the store can
/// still be closed.
#[test]
fn a_drain_past_its_deadline_is_forced_and_leaves_the_store_to_the_caller() {
    let (server, store) = start_server(ServerConfig {
        read_timeout: Duration::from_secs(30),
        header_deadline: Duration::from_secs(30),
        ..ServerConfig::default()
    });
    let mut straggler = TcpStream::connect(server.local_addr()).expect("connect");
    straggler.write_all(b"GET /healthz HT").expect("head");
    while server.stats().admitted == 0 {
        std::thread::yield_now();
    }
    let report = server.drain(Duration::from_millis(50));
    assert!(
        report.forced,
        "drain waited out the straggler: {:?}",
        report.stats
    );
    assert_eq!(
        Arc::strong_count(&store),
        1,
        "the server kept the store alive"
    );
    drop(straggler);
}

#[test]
fn request_line_over_cap_is_414() {
    let (server, _store) = start_server(ServerConfig {
        limits: Limits {
            max_request_line: 64,
            ..Limits::default()
        },
        ..ServerConfig::default()
    });
    let request = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(200));
    assert_eq!(raw_status(&server, request.as_bytes()), 414);
    finish(server);
}

#[test]
fn headers_over_cap_are_431() {
    let (server, _store) = start_server(ServerConfig {
        limits: Limits {
            max_header_bytes: 256,
            ..Limits::default()
        },
        ..ServerConfig::default()
    });
    let request = format!(
        "GET /healthz HTTP/1.1\r\n{}\r\n",
        "X-Pad: aaaaaaaaaaaaaaaa\r\n".repeat(32)
    );
    assert_eq!(raw_status(&server, request.as_bytes()), 431);
    finish(server);
}

#[test]
fn declared_body_over_cap_is_413() {
    let (server, _store) = start_server(ServerConfig::default());
    let status = raw_status(
        &server,
        b"GET /healthz HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n",
    );
    assert_eq!(status, 413);
    finish(server);
}

#[test]
fn malformed_bytes_get_400_and_unknown_routes_404() {
    let (server, _store) = start_server(ServerConfig::default());
    assert_eq!(raw_status(&server, b"@@@@\r\n\r\n"), 400);
    assert_eq!(raw_status(&server, b"GET /nope HTTP/1.1\r\n\r\n"), 404);
    assert_eq!(
        raw_status(&server, b"GET /v1/availability?market=zzz HTTP/1.1\r\n\r\n"),
        400
    );
    finish(server);
}

/// `1*DIGIT` means digits: a sign that `str::parse` would wave through
/// is a 400, in the framing header (where a front end that reads `+5`
/// as 5 and a back end that does not disagree on where the next
/// request starts) and in the API's integer parameters alike.
#[test]
fn signed_integers_are_400_in_content_length_and_parameters() {
    let (server, _store) = start_server(ServerConfig::default());
    for head in [
        "GET /healthz HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello",
        "GET /healthz HTTP/1.1\r\nContent-Length: -0\r\n\r\n",
        "GET /healthz HTTP/1.1\r\nContent-Length: 5, 5\r\n\r\nhello",
        "GET /v1/advisor/top?end_secs=9&n=%2B5 HTTP/1.1\r\n\r\n",
        "GET /v1/advisor/top?end_secs=9&n=-5 HTTP/1.1\r\n\r\n",
        "GET /v1/spike-rates?end_secs=9&window_secs=%2B3600 HTTP/1.1\r\n\r\n",
    ] {
        assert_eq!(raw_status(&server, head.as_bytes()), 400, "{head:?}");
    }
    // The unsigned spellings of the same requests are served (the
    // store is empty, hence the explicit span).
    for head in [
        "GET /healthz HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello",
        "GET /v1/advisor/top?end_secs=9&n=5 HTTP/1.1\r\n\r\n",
        "GET /v1/advisor/top?end_secs=9&n=%35 HTTP/1.1\r\n\r\n",
        "GET /v1/spike-rates?end_secs=9&window_secs=3600 HTTP/1.1\r\n\r\n",
    ] {
        assert_eq!(raw_status(&server, head.as_bytes()), 200, "{head:?}");
    }
    finish(server);
}

/// `thresholds` is bounded: each entry is a sweep of every spike
/// bucket (and, if new, a slot in the snapshot's memo), and only the
/// URI cap stood in the way of a few thousand of them.
#[test]
fn spike_rate_threshold_lists_are_bounded() {
    let (server, _store) = start_server(ServerConfig::default());
    let request = |thresholds: usize| {
        let list: Vec<String> = (0..thresholds).map(|i| format!("{i}.5")).collect();
        let list = list.join(",");
        format!("GET /v1/spike-rates?end_secs=9&thresholds={list} HTTP/1.1\r\n\r\n")
    };
    assert_eq!(raw_status(&server, request(32).as_bytes()), 200);
    assert_eq!(raw_status(&server, request(33).as_bytes()), 400);
    finish(server);
}

/// `window_secs` is a client's to choose and is added to a detection
/// time: the largest one must saturate — not overflow (a panic in
/// checked builds; in release a window that ends before it starts, so
/// that every candidate silently reads "uncorrelated") — and so answer
/// what a window as long as the store's whole span answers.
#[test]
fn a_fallback_window_past_the_end_of_time_saturates() {
    let store: SharedStore = Arc::new(DataStore::new());
    let market = |zone: u8, ty: &str| MarketId {
        az: Az::new(Region::UsEast1, zone),
        instance_type: ty.parse().expect("type"),
        platform: Platform::LinuxUnix,
    };
    let origin = market(2, "c3.large");
    // The origin is rejected at 1,000 s and 5,000 s; three candidates
    // in other pools are rejected never, once long after both, and
    // once right after the first — so a short window ranks the second
    // before the third and a long one the third before the second.
    let rejected_at: [(MarketId, &[u64]); 4] = [
        (origin, &[1_000, 5_000]),
        (market(0, "m3.large"), &[]),
        (market(1, "r3.large"), &[9_000]),
        (market(0, "c4.large"), &[1_010]),
    ];
    for (m, rejections) in rejected_at {
        for at in (0..100u64)
            .map(|i| i * 100)
            .chain(rejections.iter().copied())
        {
            store.record_probe(ProbeRecord {
                at: SimTime::from_secs(at),
                market: m,
                kind: ProbeKind::OnDemand,
                trigger: ProbeTrigger::Periodic,
                outcome: if rejections.contains(&at) {
                    ProbeOutcome::InsufficientCapacity
                } else {
                    ProbeOutcome::Fulfilled
                },
                spot_ratio: 1.0,
                bid: None,
                cost: Price::ZERO,
            });
        }
    }
    const SPAN: u64 = 10_000;
    let state = ServiceState {
        hub: Arc::new(SnapshotHub::new(store.snapshot(SimTime::from_secs(SPAN)))),
        store: Arc::downgrade(&store),
        stats: Arc::new(ServerStats::default()),
        draining: Arc::new(AtomicBool::new(false)),
        retry_after_secs: 1,
    };
    let mut reader = SnapshotReader::new(&state.hub);
    let mut fallbacks = |window: u64| {
        let query = format!("market={}&window_secs={window}&n=3", market_param(origin));
        let outcome = route("/v1/advisor/fallbacks", &query, &state, &mut reader);
        assert_eq!(outcome.status, 200, "window {window}: {}", outcome.body);
        let (_, list) = outcome
            .body
            .split_once("\"fallbacks\":")
            .expect("fallbacks");
        list.to_owned()
    };
    let whole_span = fallbacks(SPAN);
    assert_eq!(fallbacks(u64::MAX), whole_span);
    assert_eq!(fallbacks(u64::MAX - 999), whole_span);
    // And the window does decide the ranking here: the guard above is
    // not comparing two constant answers.
    assert_ne!(fallbacks(60), whole_span);
}

// ---------------------------------------------------- overload shedding

/// Both refusal causes end the same way on the wire: a connection the
/// server cannot take is answered by the acceptor — unasked, before any
/// request — with the canned `503`, the configured `Retry-After` and
/// `Connection: close`, counted in `shed` and never as a handler 5xx.
/// Nothing here sleeps for ordering: `hold`'s completed response proves
/// the only connection thread is parked on it, and the listener's
/// accept queue is FIFO, so each later connection meets exactly the
/// state the earlier ones left.
#[test]
fn overload_is_shed_with_503_and_permits_are_released() {
    const WAIT: Duration = Duration::from_secs(10);
    // An idle keep-alive connection must outlive the test.
    let base = ServerConfig {
        workers: 1,
        read_timeout: Duration::from_secs(60),
        retry_after_secs: 7,
        ..ServerConfig::default()
    };
    let queue_full = ServerConfig {
        queue_depth: 1,
        ..base.clone()
    };
    let no_permit = ServerConfig {
        max_connections: 1,
        ..base
    };
    // (cause, config, connections that fit behind the held one)
    for (cause, config, queued) in [("queue full", queue_full, 1), ("no permit", no_permit, 0)] {
        let (server, _store) = start_server(config);
        let addr = server.local_addr();
        let connect = || Client::connect(addr, WAIT).expect("connect");

        let mut hold = connect();
        assert_eq!(hold.get("/healthz").expect("held request").status, 200);
        let mut waiting: Vec<Client> = (0..queued).map(|_| connect()).collect();

        let refused = connect().read_response().expect("refusal");
        assert_eq!(refused.status, 503, "{cause}: {}", refused.body);
        assert_eq!(refused.header("retry-after"), Some("7"), "{cause}");
        assert_eq!(refused.header("connection"), Some("close"), "{cause}");
        let stats = server.stats();
        assert_eq!(stats.admitted, 1 + queued as u64, "{cause}: {stats:?}");
        assert_eq!(stats.open_connections, stats.admitted, "{cause}: {stats:?}");

        // The held connection closes: its thread moves on to whatever
        // was queued, and every permit comes back.
        drop(hold);
        for client in &mut waiting {
            let resp = client.get("/healthz").expect("queued connection");
            assert_eq!(resp.status, 200, "{cause}: {}", resp.body);
        }
        drop(waiting);
        let deadline = Instant::now() + WAIT;
        while server.stats().open_connections > 0 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(server.stats().open_connections, 0, "{cause}: permit leaked");
        assert_eq!(
            connect().get("/healthz").expect("after release").status,
            200,
            "{cause}: a released permit must admit the next connection"
        );
        // The acceptor counts `shed` after its refusal write; drain
        // joins the acceptor, so the count is final there.
        let stats = finish(server);
        assert_eq!(
            (stats.shed, stats.shed_dropped),
            (1, 0),
            "{cause}: {stats:?}"
        );
        assert_eq!(stats.open_connections, 0, "{cause}: {stats:?}");
    }
}

// --------------------------------------------- health under a stalled disk

/// A disk whose writes block while the gate is closed — the stall that
/// turns the WAL's bounded queue into backpressure on ingest.
#[derive(Debug)]
struct StalledDisk {
    closed: Mutex<bool>,
    opened: Condvar,
    /// Signalled each time a write finds the gate closed.
    stalled: Mutex<mpsc::Sender<()>>,
}

impl StalledDisk {
    fn set_closed(&self, closed: bool) {
        *self.closed.lock().unwrap() = closed;
        self.opened.notify_all();
    }
}

impl DiskIo for StalledDisk {
    fn write_all(&self, file: &mut File, bytes: &[u8]) -> io::Result<()> {
        let mut closed = self.closed.lock().unwrap();
        if *closed {
            let _ = self.stalled.lock().unwrap().send(());
        }
        while *closed {
            closed = self.opened.wait(closed).unwrap();
        }
        file.write_all(bytes)
    }

    fn sync_data(&self, file: &File) -> io::Result<()> {
        file.sync_data()
    }
}

/// `/healthz` and `/readyz` are what a load balancer polls while the
/// service is in trouble, so they must not need a stripe lock: here the
/// disk stalls, the WAL queue fills, and an ingest writer sits inside
/// its stripe's write lock — both endpoints still answer.
#[test]
fn health_endpoints_answer_while_a_writer_holds_a_stripe_lock() {
    let probe = |at: u64| ProbeRecord {
        at: SimTime::from_secs(at),
        market: MarketId {
            az: Az::new(Region::UsEast1, 0),
            instance_type: "c3.large".parse().expect("type"),
            platform: Platform::LinuxUnix,
        },
        kind: ProbeKind::OnDemand,
        trigger: ProbeTrigger::Periodic,
        outcome: ProbeOutcome::Fulfilled,
        spot_ratio: 0.3,
        bid: None,
        cost: Price::ZERO,
    };
    let (stalled_tx, stalled_rx) = mpsc::channel();
    let disk = Arc::new(StalledDisk {
        closed: Mutex::new(false),
        opened: Condvar::new(),
        stalled: Mutex::new(stalled_tx),
    });
    let tmp = TempDir::new("health-stalled-disk");
    let store: SharedStore = Arc::new(
        DataStore::create_durable(
            &tmp.path().join("store"),
            DurableOptions {
                // Every append goes straight to a one-slot queue.
                fsync: FsyncPolicy::Always,
                queue_capacity: 1,
                io: Some(Arc::clone(&disk) as Arc<dyn DiskIo>),
            },
        )
        .expect("durable store"),
    );
    store.mark_region_degraded(Region::EuWest1, SimTime::from_secs(1));
    let state = ServiceState {
        hub: Arc::new(SnapshotHub::new(store.snapshot(SimTime::ZERO))),
        store: Arc::downgrade(&store),
        stats: Arc::new(ServerStats::default()),
        draining: Arc::new(AtomicBool::new(false)),
        retry_after_secs: 1,
    };
    // The writer must be idle before the gate closes, or it stalls on
    // the region mark and the count below is off by one.
    store.flush().expect("flush");
    disk.set_closed(true);

    let go = Barrier::new(2);
    let (answer_tx, answer_rx) = mpsc::channel();
    std::thread::scope(|scope| {
        let ingest = scope.spawn(|| {
            // The WAL writer takes this frame and stalls writing it …
            store.record_probe(probe(10));
            go.wait();
            // … this one fills the queue's only slot …
            store.record_probe(probe(20));
            // … and this one blocks in the send, inside the stripe lock.
            store.record_probe(probe(30));
        });
        stalled_rx.recv().expect("writer reached the stalled disk");
        go.wait();
        // `len` is bumped inside the stripe's critical section, before
        // the append: at 3 the third writer holds the lock for good.
        // (The deadline only keeps a WAL whose queueing changed from
        // hanging the test; it then fails on `writer_in_lock` below.)
        let deadline = Instant::now() + Duration::from_secs(10);
        while store.len() < 3 && Instant::now() < deadline {
            std::thread::yield_now();
        }

        let poller = scope.spawn(|| {
            let mut reader = SnapshotReader::new(&state.hub);
            for path in ["/healthz", "/readyz"] {
                answer_tx
                    .send(route(path, "", &state, &mut reader))
                    .expect("send");
            }
        });
        let answers: Vec<_> = (0..2)
            .map_while(|_| answer_rx.recv_timeout(Duration::from_secs(10)).ok())
            .collect();
        let writer_in_lock = store.len() == 3 && !ingest.is_finished();
        // Release everything before asserting, so a failure reports
        // instead of hanging the scope's join.
        disk.set_closed(false);
        ingest.join().expect("ingest");
        poller.join().expect("poller");

        assert_eq!(
            answers.len(),
            2,
            "a health endpoint waited on a stripe lock"
        );
        for outcome in &answers {
            assert_eq!(outcome.status, 200, "{}", outcome.body);
            assert!(
                outcome.body.contains(r#""degraded_regions":["eu-west-1"]"#),
                "{}",
                outcome.body
            );
        }
        assert!(writer_in_lock, "the writer never sat in its stripe lock");
    });
}

// ------------------------------------- derived state under republish

/// One all-market question, as its query string and as the body the
/// reference path — `SpotLightQuery` over `observed_markets()`, which
/// reads none of the snapshot's derived state — answers it with.
enum Ask {
    Top(Option<Region>, u64, usize),
    Fallbacks(MarketId, u64, usize),
    Spikes(Vec<f64>),
}

impl Ask {
    fn route(&self, state: &ServiceState, reader: &mut SnapshotReader) -> String {
        let (path, query) = match self {
            Ask::Top(region, min_probes, n) => {
                let region = region.map_or(String::new(), |r| format!("&region={}", r.name()));
                (
                    "/v1/advisor/top",
                    format!("n={n}&min_probes={min_probes}{region}"),
                )
            }
            Ask::Fallbacks(market, window, n) => {
                let market = market_param(*market);
                (
                    "/v1/advisor/fallbacks",
                    format!("market={market}&window_secs={window}&n={n}"),
                )
            }
            Ask::Spikes(thresholds) => {
                let list: Vec<String> = thresholds.iter().map(f64::to_string).collect();
                ("/v1/spike-rates", format!("thresholds={}", list.join(",")))
            }
        };
        let outcome = route(path, &query, state, reader);
        assert_eq!(outcome.status, 200, "{path}?{query}: {}", outcome.body);
        outcome.body
    }

    fn reference(&self, snapshot: &StoreSnapshot) -> String {
        let read = snapshot.read();
        let (as_of, end) = (
            snapshot.as_of(),
            snapshot.as_of().max(SimTime::from_secs(1)),
        );
        let q = SpotLightQuery::new(&read, SimTime::ZERO, end);
        let observed = q.observed_markets();
        let mut body = String::new();
        json::object(&mut body, |o| match self {
            Ask::Top(region, min_probes, n) => {
                o.u64("start_secs", 0);
                o.u64("end_secs", as_of.as_secs());
                o.u64("candidates", observed.len() as u64);
                o.array("markets", |a| {
                    for (market, stats) in
                        q.top_available_markets(&observed, *region, *min_probes, *n)
                    {
                        a.object(|o| {
                            o.str("market", &market_param(market));
                            o.value("availability", &stats);
                        });
                    }
                });
            }
            Ask::Fallbacks(market, window, n) => {
                o.str("market", &market_param(*market));
                o.u64("window_secs", *window);
                let window = SimDuration::from_secs(*window);
                o.array("fallbacks", |a| {
                    for fallback in q.uncorrelated_fallbacks(*market, &observed, window, *n) {
                        a.str(&market_param(fallback));
                    }
                });
                o.u64("as_of_secs", as_of.as_secs());
            }
            Ask::Spikes(thresholds) => {
                o.u64("window_secs", 86_400);
                o.u64("start_secs", 0);
                o.u64("end_secs", as_of.as_secs());
                o.array("rates", |a| {
                    for rate in q.spike_rates(thresholds, SimDuration::days(1)) {
                        a.object(|o| {
                            o.f64("threshold", rate.threshold);
                            o.f64("spikes_per_window", rate.spikes_per_window);
                        });
                    }
                });
            }
        });
        body
    }
}

/// The first unsigned integer after `"key":` in `body`.
fn json_u64(body: &str, key: &str) -> u64 {
    let rest = body.split(&format!("\"{key}\":")).nth(1).expect(key);
    let digits = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..digits].parse().expect(key)
}

/// Every round the publisher publishes a generation nobody has asked
/// yet, four request threads are let onto it at once — racing to derive
/// its table and spike counts — and the publisher goes on ingesting and
/// publishes the next one among their requests. Whichever generation
/// answered, the body must be the reference's for the snapshot whose
/// `as_of` it names: derived state never outlives, mixes or precedes
/// its generation.
#[test]
fn all_market_answers_match_the_reference_at_their_as_of_under_republish() {
    const ROUNDS: u64 = 10;
    const THREADS: usize = 4;
    let markets: Vec<MarketId> = [Region::UsEast1, Region::EuWest1]
        .into_iter()
        .flat_map(|region| (0..3).map(move |zone| Az::new(region, zone)))
        .flat_map(|az| {
            ["c3.large", "c3.xlarge", "m3.large", "r3.large"].map(|ty| MarketId {
                az,
                instance_type: ty.parse().expect("type"),
                platform: Platform::LinuxUnix,
            })
        })
        .collect();
    let store: SharedStore = Arc::new(DataStore::new());
    // 60 probes and spikes per step; rejections cluster so that
    // fallbacks have correlations to rank.
    let feed = |step: u64| {
        for i in step * 60..(step + 1) * 60 {
            let market = markets[(i * 7 % markets.len() as u64) as usize];
            let at = SimTime::from_secs(i * 20);
            store.record_spike(spotlight_core::store::SpikeEvent {
                market,
                at,
                ratio: (i * 37 % 90) as f64 / 10.0,
                probed: true,
            });
            store.record_probe(ProbeRecord {
                at,
                market,
                kind: if i % 11 == 0 {
                    ProbeKind::Spot
                } else {
                    ProbeKind::OnDemand
                },
                trigger: ProbeTrigger::Periodic,
                outcome: match i % 9 {
                    0 | 1 => ProbeOutcome::InsufficientCapacity,
                    _ => ProbeOutcome::Fulfilled,
                },
                spot_ratio: 1.0,
                bid: None,
                cost: Price::ZERO,
            });
        }
    };
    // A step spans 1,200 s: every publish names a distinct `as_of`.
    let as_of = |generation: u64| SimTime::from_secs(generation * 600);
    feed(0);
    let state = ServiceState {
        hub: Arc::new(SnapshotHub::new(store.snapshot(as_of(1)))),
        store: Arc::downgrade(&store),
        stats: Arc::new(ServerStats::default()),
        draining: Arc::new(AtomicBool::new(false)),
        retry_after_secs: 1,
    };
    let asks = |thread: usize, round: u64| {
        let pick = thread + round as usize;
        let mut asks = vec![
            Ask::Top(
                [None, Some(Region::UsEast1), Some(Region::EuWest1)][pick % 3],
                round % 3,
                5,
            ),
            Ask::Fallbacks(markets[pick * 5 % markets.len()], 900, 4),
            Ask::Spikes(vec![1.25, 2.0, 5.0, pick as f64 / 2.0]),
        ];
        // Each thread opens a generation with a different question.
        asks.rotate_left(thread % 3);
        asks
    };

    let gate = Barrier::new(THREADS + 1);
    let mut published = vec![state.hub.load()];
    let answered: Vec<(usize, u64, usize, String)> = std::thread::scope(|scope| {
        let requesters: Vec<_> = (0..THREADS)
            .map(|thread| {
                let (state, gate, asks) = (&state, &gate, &asks);
                scope.spawn(move || {
                    let mut reader = SnapshotReader::new(&state.hub);
                    let mut answered = Vec::new();
                    for round in 0..ROUNDS {
                        gate.wait(); // the round before is over
                        gate.wait(); // a generation nobody has asked is up
                        for (i, ask) in asks(thread, round).iter().enumerate() {
                            answered.push((thread, round, i, ask.route(state, &mut reader)));
                        }
                    }
                    answered
                })
            })
            .collect();
        for round in 0..ROUNDS {
            gate.wait();
            for generation in [2 * round + 2, 2 * round + 3] {
                feed(generation);
                state.hub.republish(&store, as_of(generation));
                published.push(state.hub.load());
                if generation % 2 == 0 {
                    gate.wait(); // … and the second lands among the requests
                }
            }
        }
        let joined = requesters.into_iter().map(|t| t.join().expect("requester"));
        joined.flatten().collect()
    });

    assert_eq!(answered.len(), THREADS * ROUNDS as usize * 3);
    let mut generations_answering = std::collections::BTreeSet::new();
    for (thread, round, i, body) in answered {
        let ask = &asks(thread, round)[i];
        let key = if matches!(ask, Ask::Fallbacks(..)) {
            "as_of_secs"
        } else {
            "end_secs"
        };
        let named = SimTime::from_secs(json_u64(&body, key));
        let snapshot = published
            .iter()
            .find(|s| s.as_of() == named)
            .unwrap_or_else(|| panic!("no generation was published as of {named}: {body}"));
        assert_eq!(
            body,
            ask.reference(snapshot),
            "thread {thread} round {round} ask {i}"
        );
        generations_answering.insert(named);
    }
    // The generation put up before each gate answered at least the
    // first request of that round.
    assert!(
        generations_answering.len() >= ROUNDS as usize,
        "{generations_answering:?}"
    );
}
