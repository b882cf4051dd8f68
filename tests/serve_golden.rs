//! Byte-identity of the serving tier against PR 12's encoder.
//!
//! `tests/golden/serve_pr12.txt` holds, for a seeded store, every
//! route's status, body and framed wire response — each 400 message,
//! HEAD, `Connection: close`, `Retry-After` — and the raw response
//! streams a live server gives a matrix of well-formed, pipelined and
//! hostile byte sequences. The file was written by this same test at
//! the PR 12 commit (`SERVE_GOLDEN_WRITE=1 cargo test --test
//! serve_golden`), so any byte the allocation-free request path changes
//! shows up here as a diff against the old `format!`-based one.

use cloud_sim::ids::{Az, MarketId, Platform, Region};
use cloud_sim::price::Price;
use cloud_sim::time::SimTime;
use spotlight_core::probe::{ProbeKind, ProbeOutcome, ProbeRecord, ProbeTrigger};
use spotlight_core::snapshot::{SnapshotHub, SnapshotReader};
use spotlight_core::store::{DataStore, IntrinsicBidRecord, SharedStore, SpikeEvent};
use spotlight_serve::parser::Limits;
use spotlight_serve::router::{route, ServiceState};
use spotlight_serve::server::{write_response, Server, ServerConfig};
use spotlight_serve::ServerStats;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const DAY: u64 = 86_400;
const AS_OF: u64 = 3 * DAY;

fn markets() -> Vec<MarketId> {
    let mut out = Vec::new();
    for (region, zones) in [
        (Region::UsEast1, 3u8),
        (Region::SaEast1, 2),
        (Region::EuWest1, 2),
        (Region::ApSoutheast2, 1),
    ] {
        for zone in 0..zones {
            for (ty, platform) in [
                ("c3.large", Platform::LinuxUnix),
                ("m3.xlarge", Platform::LinuxUnixVpc),
                ("r3.8xlarge", Platform::Windows),
                ("hs1.10xlarge", Platform::SuseLinux),
                ("t1.micro", Platform::LinuxUnix),
            ] {
                out.push(MarketId {
                    az: Az::new(region, zone),
                    instance_type: ty.parse().expect("catalog type"),
                    platform,
                });
            }
        }
    }
    out
}

/// A three-day store with uneven availability (so fractions are not
/// all `0.0`), all three probe kinds, spikes, intrinsic bids and one
/// degraded region — from a fixed LCG, so every run builds the same one.
fn seeded_store() -> DataStore {
    let store = DataStore::new();
    let markets = markets();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x >> 33
    };
    for i in 0..6_000u64 {
        let at = SimTime::from_secs(i * (AS_OF - 600) / 6_000);
        let market = markets[(next() % markets.len() as u64) as usize];
        let kind = match next() % 10 {
            0 | 1 => ProbeKind::Spot,
            2 => ProbeKind::InterruptionNotice,
            _ => ProbeKind::OnDemand,
        };
        // Markets differ in how often they reject, São Paulo most.
        let reject_per_16 = if market.region() == Region::SaEast1 {
            6
        } else {
            market.az.zone_index() as u64
        };
        let outcome = if next() % 16 < reject_per_16 {
            ProbeOutcome::InsufficientCapacity
        } else if next() % 40 == 0 {
            ProbeOutcome::ApiLimited
        } else {
            ProbeOutcome::Fulfilled
        };
        let ratio = 0.5 + (next() % 700) as f64 / 100.0;
        store.record_spike(SpikeEvent {
            market,
            at,
            ratio,
            probed: true,
        });
        store.record_probe(ProbeRecord {
            at,
            market,
            kind,
            trigger: ProbeTrigger::PriceSpike { ratio },
            outcome,
            spot_ratio: ratio.min(1.2),
            bid: None,
            cost: Price::from_micros(next() % 5_000),
        });
    }
    for (i, &market) in markets.iter().take(3).enumerate() {
        for j in 0..4u64 {
            store.record_intrinsic_bid(IntrinsicBidRecord {
                market,
                at: SimTime::from_secs(DAY + j * 7_200 + i as u64),
                published: Price::from_micros(if j == 2 { 0 } else { 31_000 + 700 * j }),
                intrinsic: Price::from_micros(42_000 + 1_300 * j + i as u64),
                attempts: 2 + (j as u32 % 3),
            });
        }
    }
    store.mark_region_degraded(Region::SaEast1, SimTime::from_secs(2 * DAY + 17));
    store
}

fn state_over(store: &SharedStore, hub: &Arc<SnapshotHub>) -> ServiceState {
    ServiceState {
        hub: Arc::clone(hub),
        store: Arc::downgrade(store),
        stats: Arc::new(ServerStats::default()),
        draining: Arc::new(AtomicBool::new(false)),
        retry_after_secs: 7,
    }
}

/// `(path, query)` of every request the direct matrix routes.
fn direct_requests() -> Vec<(&'static str, &'static str)> {
    let mut out = vec![
        ("/healthz", ""),
        ("/readyz", ""),
        ("/statz", ""),
        ("/nope", ""),
        ("/v1/availability/", "market=us-east-1a/c3.large/linux"),
        ("/", ""),
    ];
    let point = [
        "market=us-east-1a/c3.large/linux",
        "market=us-east-1c/c3.large/linux&kind=od",
        "market=sa-east-1b/m3.xlarge/linux-vpc&kind=spot",
        "market=sa-east-1a/r3.8xlarge/windows&kind=notice",
        "market=eu-west-1b/hs1.10xlarge/suse&kind=on-demand",
        "market=ap-southeast-2a/t1.micro/linux&kind=interruption",
        "market=us-west-2a/c3.large/linux",
        "market=us-east-1b%2Fc3.large%2Flinux&kind=od",
        "market=us-east-1b%2fm3.xlarge%2flinux-vpc",
        "kind=spot&kind=od&market=us-east-1a/c3.large/linux&market=nope",
        "&&market=us-east-1a/c3.large/linux&&kind&",
        "market=us-east-1a/c3.large/linux&kind=",
        "market=us-east-1a/c3.large/linux&kind=od+",
        "market=us-east-1a/c3.large/linux&kind=%6Fd",
        "market=us-east-1a/c3.large/linux&kind=weekly",
        "market=us-east-1a/c3.large/linux&start_secs=3600&end_secs=90000",
        "market=sa-east-1a/c3.large/linux&start_secs=86400",
        "market=sa-east-1a/c3.large/linux&end_secs=100000",
        "market=us-east-1a/c3.large/linux&start_secs=10&end_secs=10",
        "market=us-east-1a/c3.large/linux&start_secs=ten",
        "market=us-east-1a/c3.large/linux&end_secs=-1",
        "market=us-east-1a/c3.large/linux&end_secs=18446744073709551616",
        "market=us-east-1a/c3.large/linux&start_secs=%31%30&end_secs=1+0",
        "market=us-east-1a/c3.large/linux&n=bad%GG&region=trunc%2",
        "",
        "market=",
        "market",
        "market=zzz",
        "market=us-east-1a/c3.large",
        "market=us-east-1a/c3.large/linux/extra",
        "market=us-east-1a//linux",
        "market=mars-north-1a/c3.large/linux",
        "market=us-east-1A/c3.large/linux",
        "market=us-east-1/c3.large/linux",
        "market=a/c3.large/linux",
        "market=/c3.large/linux",
        "market=us-east-1a/c3/linux",
        "market=us-east-1a/zz.large/linux",
        "market=us-east-1a/c3.huge/linux",
        "market=us-east-1a/c3.large/os2",
        "market=us-east-1a/c3.large/Linux",
        "market=us-east-1a/c3.large/linux%2Fextra",
        "market=bad%GG",
        "market=trunc%2",
        "market=trunc%",
        "market=%FF%FE/c3.large/linux",
        "market=us+east-1a/c3.large/linux",
        "market=us-east-1a/c3.large/linux\"quote",
        "market=us-east-1a/c3.large/linux%0A%09%01",
    ];
    for query in point {
        out.push(("/v1/availability", query));
        out.push(("/v1/freshness", query));
    }
    for query in [
        "",
        "thresholds=1.5,3",
        "thresholds=2&window_secs=3600&start_secs=86400",
        "thresholds=1e-7,1e21,0.1,100",
        "thresholds=1.5,+3+",
        "thresholds=1.5%2C2.5",
        "thresholds=abc",
        "thresholds=",
        "thresholds=1,,2",
        "thresholds=inf",
        "thresholds=NaN",
        "thresholds=bad%GG",
        "window_secs=0",
        "window_secs=x",
        "start_secs=5&end_secs=4",
    ] {
        out.push(("/v1/spike-rates", query));
    }
    for query in [
        "market=us-east-1a/c3.large/linux",
        "market=us-east-1a/m3.xlarge/linux-vpc",
        "market=us-east-1a/r3.8xlarge/windows",
        "market=eu-west-1a/c3.large/linux",
        "market=nope",
        "",
    ] {
        out.push(("/v1/bid-spread", query));
    }
    for query in [
        "",
        "n=10",
        "n=3&region=sa-east-1",
        "region=eu-west-1&min_probes=60",
        "region=us-west-1",
        "region=mars",
        "region=us%2Deast%2D1&n=2",
        "min_probes=1000000",
        "n=0",
        "n=18446744073709551615",
        "n=x",
        "min_probes=-3",
        "start_secs=86400&end_secs=172800&n=4",
        "start_secs=9&end_secs=9",
    ] {
        out.push(("/v1/advisor/top", query));
    }
    for query in [
        "market=us-east-1a/c3.large/linux",
        "market=sa-east-1a/c3.large/linux&n=3",
        "market=sa-east-1b/r3.8xlarge/windows&n=50&window_secs=3600",
        "market=us-west-2a/c3.large/linux&n=2",
        "market=us-east-1a/c3.large/linux&n=0",
        "market=us-east-1a/c3.large/linux&window_secs=0",
        "market=us-east-1a/c3.large/linux&n=many",
        "n=3",
    ] {
        out.push(("/v1/advisor/fallbacks", query));
    }
    out
}

fn record(golden: &mut String, label: &str, bytes: &[u8]) {
    writeln!(golden, "{label}\t{:?}", String::from_utf8_lossy(bytes)).expect("write to String");
}

/// Routes each request and records status, `Retry-After`, body and
/// the framed response; every eighth request (and every refusal with a
/// `Retry-After`) is also framed as a HEAD answer and as a closing one.
fn direct_matrix(
    golden: &mut String,
    tag: &str,
    requests: &[(&str, &str)],
    state: &ServiceState,
    hub: &SnapshotHub,
) {
    let mut reader = SnapshotReader::new(hub);
    let mut wire = Vec::new();
    for (i, (path, query)) in requests.iter().enumerate() {
        let outcome = route(path, query, state, &mut reader);
        let label = format!("{tag} {path}?{query}");
        record(
            golden,
            &format!("{label} -> {} {:?}", outcome.status, outcome.retry_after),
            outcome.body.as_bytes(),
        );
        let every_framing = i % 8 == 0 || outcome.retry_after.is_some();
        for (head_only, close) in [(false, false), (true, false), (false, true)] {
            if (head_only || close) && !every_framing {
                continue;
            }
            wire.clear();
            write_response(
                &mut wire,
                outcome.status,
                &outcome.body,
                head_only,
                close,
                outcome.retry_after,
            );
            record(
                golden,
                &format!("{label} wire head_only={head_only} close={close}"),
                &wire,
            );
        }
    }
}

/// The requests whose answer depends on the store being drained,
/// unseeded or closed.
const STATE_REQUESTS: [(&str, &str); 8] = [
    ("/healthz", ""),
    ("/readyz", ""),
    ("/statz", ""),
    ("/v1/availability", "market=us-east-1a/c3.large/linux"),
    (
        "/v1/freshness",
        "market=us-east-1a/c3.large/linux&kind=spot",
    ),
    ("/v1/spike-rates", ""),
    ("/v1/advisor/top", ""),
    ("/v1/advisor/fallbacks", "market=us-east-1a/c3.large/linux"),
];

/// Sends `request` raw and returns everything the server answers until
/// it closes the connection.
fn raw_exchange(server: &Server, request: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    // A refusal may close the socket before the last byte is written.
    let _ = stream.write_all(request);
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    response
}

fn live_requests() -> Vec<(&'static str, Vec<u8>)> {
    let get = |target: &str, extra: &str| {
        format!("GET {target} HTTP/1.1\r\nHost: spotlight\r\n{extra}\r\n").into_bytes()
    };
    let close = "Connection: close\r\n";
    let mut pipelined = Vec::new();
    pipelined.extend(get("/v1/freshness?market=us-east-1a/c3.large/linux", ""));
    pipelined.extend(get("/v1/availability?market=zzz", ""));
    pipelined.extend(get("/healthz", ""));
    pipelined.extend(get(
        "/v1/availability?market=sa-east-1a%2Fc3.large%2Flinux&kind=spot",
        close,
    ));
    pipelined.extend(get("/never-answered", ""));
    let mut past_cap = Vec::new();
    for _ in 0..5 {
        past_cap.extend(get("/v1/freshness?market=eu-west-1a/t1.micro/linux", ""));
    }
    let mut many_headers = b"GET /healthz HTTP/1.1\r\n".to_vec();
    for i in 0..70 {
        many_headers.extend_from_slice(format!("X-{i}: v\r\n").as_bytes());
    }
    many_headers.extend_from_slice(b"\r\n");
    vec![
        ("get close", get("/v1/availability?market=us-east-1b/c3.large/linux", close)),
        ("healthz close", get("/healthz", close)),
        ("readyz close", get("/readyz", close)),
        ("404 close", get("/nope", close)),
        ("pipelined", pipelined),
        ("request cap", past_cap),
        (
            "head",
            b"HEAD /v1/availability?market=us-east-1a/c3.large/linux HTTP/1.1\r\nConnection: close\r\n\r\n"
                .to_vec(),
        ),
        ("http10", b"GET /v1/spike-rates HTTP/1.0\r\n\r\n".to_vec()),
        ("bare lf", b"GET /nope HTTP/1.0\n\n".to_vec()),
        (
            "body",
            b"GET /readyz HTTP/1.1\r\nContent-Length: 4\r\nConnection: close\r\n\r\nabcd".to_vec(),
        ),
        ("garbage", b"@@@@\r\n\r\n".to_vec()),
        ("no version", b"GET /\r\n\r\n".to_vec()),
        ("relative target", b"GET x HTTP/1.1\r\n\r\n".to_vec()),
        ("post", b"POST /healthz HTTP/1.1\r\n\r\n".to_vec()),
        ("brew", b"BREW /healthz HTTP/1.1\r\n\r\n".to_vec()),
        ("http2", b"GET /healthz HTTP/2\r\n\r\n".to_vec()),
        ("bad version", b"GET /healthz FTP/1.1\r\n\r\n".to_vec()),
        (
            "chunked",
            b"GET /healthz HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec(),
        ),
        (
            "length word",
            b"GET /healthz HTTP/1.1\r\nContent-Length: zero\r\n\r\n".to_vec(),
        ),
        (
            "length conflict",
            b"GET /healthz HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n".to_vec(),
        ),
        (
            "body over cap",
            b"GET /healthz HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n".to_vec(),
        ),
        ("no colon", b"GET /healthz HTTP/1.1\r\nHost\r\n\r\n".to_vec()),
        ("folded header", b"GET /healthz HTTP/1.1\r\n Host: a\r\n\r\n".to_vec()),
        ("non-utf8 head", b"GET /healthz HTTP/1.1\r\nX: \xff\r\n\r\n".to_vec()),
        (
            "line over cap",
            format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(400)).into_bytes(),
        ),
        (
            "head over cap",
            format!(
                "GET /healthz HTTP/1.1\r\n{}\r\n",
                "X-Pad: aaaaaaaaaaaaaaaa\r\n".repeat(60)
            )
            .into_bytes(),
        ),
        ("too many headers", many_headers),
        ("slow head", b"GET /healthz HTT".to_vec()),
    ]
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/serve_pr12.txt")
}

#[test]
fn every_response_matches_the_pr12_bytes() {
    let store: SharedStore = Arc::new(seeded_store());
    let hub = Arc::new(SnapshotHub::new(store.snapshot(SimTime::from_secs(AS_OF))));
    let mut golden = String::new();

    // Every route, directly: seeded store, in-memory and healthy.
    let state = state_over(&store, &hub);
    for (counter, value) in [
        (&state.stats.accepted, 12_345_678_901u64),
        (&state.stats.requests, u64::MAX),
        (&state.stats.responses_2xx, 7),
        (&state.stats.bytes_out, 1 << 40),
    ] {
        counter.store(value, Ordering::Relaxed);
    }
    direct_matrix(&mut golden, "seeded", &direct_requests(), &state, &hub);

    // Draining flips /readyz (503 + Retry-After) and /healthz's flag.
    state.draining.store(true, Ordering::Relaxed);
    direct_matrix(&mut golden, "draining", &STATE_REQUESTS, &state, &hub);

    // An unseeded store (as_of 0) answers the default-span 400s, and a
    // closed one the store-less health bodies.
    let empty: SharedStore = Arc::new(DataStore::new());
    let empty_hub = Arc::new(SnapshotHub::new(empty.snapshot(SimTime::ZERO)));
    let empty_state = state_over(&empty, &empty_hub);
    direct_matrix(
        &mut golden,
        "empty",
        &STATE_REQUESTS,
        &empty_state,
        &empty_hub,
    );
    drop(empty);
    direct_matrix(
        &mut golden,
        "closed",
        &STATE_REQUESTS,
        &empty_state,
        &empty_hub,
    );

    // The wire: one live server, one connection per case, every byte
    // the server sends until it closes.
    let server = Server::start(
        "127.0.0.1:0",
        &store,
        Arc::clone(&hub),
        ServerConfig {
            read_timeout: Duration::from_millis(50),
            header_deadline: Duration::from_millis(200),
            max_requests_per_conn: 4,
            retry_after_secs: 3,
            // Small caps keep every over-cap request within one segment,
            // so the refusal never races unread bytes into a reset.
            limits: Limits {
                max_request_line: 256,
                max_header_bytes: 1024,
                ..Limits::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    for (label, request) in live_requests() {
        record(
            &mut golden,
            &format!("live {label}"),
            &raw_exchange(&server, &request),
        );
    }
    // With the store gone, /readyz refuses with the configured backoff.
    drop(store);
    record(
        &mut golden,
        "live readyz store closed",
        &raw_exchange(
            &server,
            b"GET /readyz HTTP/1.1\r\nConnection: close\r\n\r\n",
        ),
    );
    let report = server.drain(Duration::from_secs(5));
    assert!(!report.forced, "drain deadline hit: {:?}", report.stats);
    assert_eq!(report.stats.panics, 0, "{:?}", report.stats);

    let path = golden_path();
    if std::env::var_os("SERVE_GOLDEN_WRITE").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, &golden).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("read tests/golden/serve_pr12.txt");
    for (line, (got, want)) in golden.lines().zip(expected.lines()).enumerate() {
        assert_eq!(got, want, "golden line {} differs", line + 1);
    }
    assert_eq!(
        golden.lines().count(),
        expected.lines().count(),
        "golden line count"
    );
}
