//! Property and fault-matrix tests for the HTTP service layer
//! (crates/serve): the parser must never panic on arbitrary bytes,
//! malformed input must map to 4xx-family rejects (never a successful
//! parse), permit accounting must stay balanced under any
//! acquire/release interleaving, and the server must enforce its
//! deadline and size caps with the documented status codes.

use cloud_sim::ids::{Az, MarketId, Platform, Region};
use cloud_sim::price::Price;
use cloud_sim::time::SimTime;
use proptest::prelude::*;
use spotlight_core::probe::{ProbeKind, ProbeOutcome, ProbeRecord, ProbeTrigger};
use spotlight_core::snapshot::{SnapshotHub, SnapshotReader};
use spotlight_core::store::{DataStore, SharedStore};
use spotlight_core::{DurableOptions, FsyncPolicy};
use spotlight_persist::tempdir::TempDir;
use spotlight_persist::DiskIo;
use spotlight_serve::admission::{Permit, ServerStats, StatsSnapshot};
use spotlight_serve::client::Client;
use spotlight_serve::parser::{parse, Limits, Parsed};
use spotlight_serve::router::{route, ServiceState};
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
    let (server, _store) = start_server(ServerConfig {
        read_timeout: Duration::from_millis(50),
        header_deadline: Duration::from_millis(150),
        ..ServerConfig::default()
    });
    // A partial head that never completes must be answered 408 by the
    // server's clock, not held forever.
    let status = raw_status(&server, b"GET /healthz HTT");
    assert_eq!(status, 408);
    finish(server);
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

// ---------------------------------------------------- overload shedding

/// Both refusal causes end the same way on the wire: a connection the
/// server cannot take is answered by the shedder — unasked, before any
/// request — with the canned `503`, the configured `Retry-After` and
/// `Connection: close`, counted in `shed` and never as a handler 5xx.
/// Nothing here sleeps for ordering: `hold`'s completed response proves
/// the only drainer is parked on it, and the listener's accept queue is
/// FIFO, so each later connection meets exactly the state the earlier
/// ones left.
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

        // The held connection closes: the drainer moves on to whatever
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
        // `shed` is bumped after the socket is handed to the shedder, so
        // it is read once drain has joined both threads.
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
                ..DurableOptions::default()
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
