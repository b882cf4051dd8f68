//! Byte-level checks of the allocation-free request path that need no
//! golden file: the rewritten `core::json` scalar writers against a
//! copy of the `format!`/`to_string` implementation they replaced, and
//! the connection loop's cursor/compaction under arbitrary chunkings
//! of a pipelined request stream.

use cloud_sim::ids::{Az, MarketId, Platform, Region};
use cloud_sim::price::Price;
use cloud_sim::time::SimTime;
use proptest::prelude::*;
use spotlight_core::json;
use spotlight_core::probe::{ProbeKind, ProbeOutcome, ProbeRecord, ProbeTrigger};
use spotlight_core::snapshot::SnapshotHub;
use spotlight_core::store::{DataStore, SharedStore};
use spotlight_serve::server::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

// ------------------------------------------------------------ json oracle

/// PR 12's scalar encoders, verbatim: the reference the stack-itoa,
/// `fmt::Write` and escape-scan writers must match byte for byte.
mod legacy {
    pub fn write_str(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str("\\u");
                    let code = c as u32;
                    for shift in [12u32, 8, 4, 0] {
                        let digit = (code >> shift) & 0xf;
                        out.push(char::from_digit(digit, 16).expect("hex digit"));
                    }
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    pub fn write_f64(out: &mut String, v: f64) {
        if v.is_finite() {
            let start = out.len();
            out.push_str(&format!("{v}"));
            if !out[start..].contains(['.', 'e', 'E']) {
                out.push_str(".0");
            }
        } else {
            out.push_str("null");
        }
    }

    pub fn quoted(s: &str) -> String {
        let mut out = String::new();
        write_str(&mut out, s);
        out
    }

    pub fn float(v: f64) -> String {
        let mut out = String::new();
        write_f64(&mut out, v);
        out
    }
}

fn encoded(f: impl FnOnce(&mut json::Object<'_>)) -> String {
    let mut out = String::new();
    json::object(&mut out, f);
    out
}

fn check_u64(v: u64) {
    assert_eq!(encoded(|o| o.u64("v", v)), format!("{{\"v\":{v}}}"));
    assert_eq!(
        encoded(|o| o.opt_u64("v", Some(v))),
        format!("{{\"v\":{v}}}")
    );
    let mut arr = String::new();
    json::array(&mut arr, |a| {
        a.u64(v);
        a.u64(v);
    });
    assert_eq!(arr, format!("[{v},{v}]"));
    assert_eq!(json::decimal(v, &mut [0; 20]), v.to_string().as_bytes());
}

fn check_i64(v: i64) {
    assert_eq!(encoded(|o| o.i64("v", v)), format!("{{\"v\":{v}}}"));
}

fn check_f64(v: f64) {
    let want = legacy::float(v);
    assert_eq!(
        encoded(|o| o.f64("v", v)),
        format!("{{\"v\":{want}}}"),
        "{v:e}"
    );
    let mut arr = String::new();
    json::array(&mut arr, |a| a.f64(v));
    assert_eq!(arr, format!("[{want}]"), "{v:e}");
}

fn check_str(s: &str) {
    let want = legacy::quoted(s);
    // As a value, as a key, as an array element, and split in parts.
    assert_eq!(encoded(|o| o.str("k", s)), format!("{{\"k\":{want}}}"));
    assert_eq!(encoded(|o| o.u64(s, 1)), format!("{{{want}:1}}"));
    assert_eq!(
        encoded(|o| o.opt_str("k", Some(s))),
        format!("{{\"k\":{want}}}")
    );
    let mut arr = String::new();
    json::array(&mut arr, |a| a.str(s));
    assert_eq!(arr, format!("[{want}]"));
    let mut direct = String::new();
    json::write_str(&mut direct, s);
    assert_eq!(direct, want);
    let cut = s
        .char_indices()
        .map(|(i, _)| i)
        .nth(s.chars().count() / 2)
        .unwrap_or(0);
    let parts = [&s[..cut], "", &s[cut..]];
    assert_eq!(
        encoded(|o| o.str_parts("k", &parts)),
        format!("{{\"k\":{want}}}")
    );
    let mut arr = String::new();
    json::array(&mut arr, |a| a.str_parts(&parts));
    assert_eq!(arr, format!("[{want}]"));
}

#[test]
fn scalar_edge_cases_match_the_legacy_encoder() {
    let mut power = 1u64;
    loop {
        for v in [power - 1, power, power + 1] {
            check_u64(v);
            check_i64(v as i64);
            check_i64((v as i64).wrapping_neg());
        }
        match power.checked_mul(10) {
            Some(next) => power = next,
            None => break,
        }
    }
    for v in [0, u64::MAX, u64::MAX - 1, u64::from(u32::MAX), 1 << 53] {
        check_u64(v);
    }
    for v in [i64::MIN, i64::MIN + 1, -1, 0, i64::MAX] {
        check_i64(v);
    }
    for v in [
        0.0,
        -0.0,
        1.0,
        -1.0,
        2.0,
        0.25,
        0.1 + 0.2,
        1.0 / 3.0,
        1e-7,
        -1e-7,
        1e21,
        1e22,
        1e15,
        1e15 - 1.0,
        1e15 + 2.0,
        -1e15,
        1e16,
        9_007_199_254_740_992.0,
        9_007_199_254_740_993.0,
        123_456_789.0,
        0.999_999_999_999_999_9,
        5e-324,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 3.0,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ] {
        check_f64(v);
    }
    for s in [
        "",
        "plain",
        "us-east-1a/c3.large/linux",
        "a\"b\\c\nd\re\tf",
        "\u{0}\u{1}\u{8}\u{b}\u{c}\u{e}\u{1f}\u{20}\u{7f}\u{80}",
        "\"",
        "\\",
        "\\\"\\",
        "S\u{e3}o Paulo \u{2014} \u{1f600} \u{10ffff}",
        "trailing\n",
        "\nleading",
    ] {
        check_str(s);
    }
}

fn any_char() -> impl Strategy<Value = char> {
    prop_oneof![0u32..0x30, 0u32..0x80, 0u32..0x2500, 0x1_f600u32..0x1_f650]
        .prop_map(|code| char::from_u32(code).expect("below the surrogates or above them"))
}

proptest! {
    #[test]
    fn integers_match_the_legacy_encoder(
        v in any::<u64>(),
        shift in 0u32..64,
        digits in 1u32..21,
    ) {
        check_u64(v);
        check_u64(v >> shift);
        check_i64(v as i64);
        check_i64((v >> shift) as i64);
        check_i64(((v >> shift) as i64).wrapping_neg());
        // Every digit count, on both sides of where the pair walk
        // changes its number of steps and its leading pair's width:
        // the smallest and largest values of `digits` digits (0 and 9
        // for one digit, `u64::MAX` for twenty), one of them at random,
        // and their negatives down to `i64::MIN`.
        let lowest = if digits == 1 { 0 } else { 10u64.pow(digits - 1) };
        let highest = 10u64.checked_pow(digits).map_or(u64::MAX, |next| next - 1);
        for value in [lowest, highest, lowest + v % (highest - lowest + 1)] {
            check_u64(value);
            check_i64(value as i64);
            check_i64((value as i64).wrapping_neg());
            check_i64((value.min(1 << 63) as i64).wrapping_neg());
        }
    }

    #[test]
    fn floats_match_the_legacy_encoder(
        bits in any::<u64>(),
        whole in -10_000_000_000_000_000i64..10_000_000_000_000_000,
        fraction in -1.0e6f64..1.0e6,
        exponent in 0u32..40,
    ) {
        // Any bit pattern: NaNs, infinities, subnormals, huge values.
        check_f64(f64::from_bits(bits));
        // Whole numbers on both sides of the `.0` fast path's limit.
        check_f64(whole as f64);
        check_f64(fraction);
        check_f64(fraction.trunc());
        check_f64(fraction / 10f64.powi(exponent as i32));
        check_f64(fraction * 10f64.powi(exponent as i32));
    }

    #[test]
    fn strings_match_the_legacy_encoder(
        chars in proptest::collection::vec(any_char(), 0..48),
    ) {
        let s: String = chars.into_iter().collect();
        check_str(&s);
    }
}

// ------------------------------------------------------------ pipelining

fn market(zone: u8, ty: &str, platform: Platform) -> MarketId {
    MarketId {
        az: Az::new(Region::UsEast1, zone),
        instance_type: ty.parse().expect("catalog type"),
        platform,
    }
}

fn served_store() -> DataStore {
    let store = DataStore::new();
    let markets = [
        market(0, "c3.large", Platform::LinuxUnix),
        market(1, "c3.large", Platform::LinuxUnix),
        market(2, "m3.xlarge", Platform::LinuxUnixVpc),
        market(0, "r3.8xlarge", Platform::Windows),
    ];
    for i in 0..400u64 {
        let m = markets[(i % 4) as usize];
        store.record_probe(ProbeRecord {
            at: SimTime::from_secs(i * 90),
            market: m,
            kind: if i % 7 == 0 {
                ProbeKind::Spot
            } else {
                ProbeKind::OnDemand
            },
            trigger: ProbeTrigger::Periodic,
            outcome: if i % 5 == 0 {
                ProbeOutcome::InsufficientCapacity
            } else {
                ProbeOutcome::Fulfilled
            },
            spot_ratio: 1.0,
            bid: None,
            cost: Price::ZERO,
        });
    }
    store
}

/// One request of the mixed stream: its bytes and whether the answer
/// carries no body (HEAD).
struct Req {
    bytes: Vec<u8>,
    head_only: bool,
}

/// 64 requests — every route, percent-encoded markets, `+`, duplicate
/// and empty parameters, refusals, HEAD, a request body — each padded
/// so the whole batch (~14 KB) is larger than the server's 8 KiB read
/// buffer and some head straddles its end. The last one closes.
fn mixed_requests() -> Vec<Req> {
    let targets = [
        "/v1/availability?market=us-east-1a/c3.large/linux&kind=od",
        "/v1/availability?market=us-east-1a%2Fc3.large%2Flinux",
        "/v1/freshness?market=us-east-1b%2fc3.large%2flinux&kind=spot",
        "/v1/availability?market=us-east-1c/m3.xlarge/linux-vpc&start_secs=3600&end_secs=30000",
        "/v1/availability?kind=spot&kind=od&market=us-east-1a/r3.8xlarge/windows&market=nope",
        "/v1/freshness?&&market=us-east-1a/c3.large/linux&&kind&",
        "/v1/availability?market=us-east-1a/c3.large/linux&kind=od+",
        "/v1/availability?market=us+east-1a/c3.large/linux",
        "/v1/availability?market=us-east-1a/c3.large/linux&kind=",
        "/v1/availability?market=bad%GG",
        "/v1/freshness?market=trunc%2",
        "/v1/availability?market=%FF/c3.large/linux",
        "/v1/availability?market=us-east-1a/c3.large/linux/extra",
        "/v1/availability",
        "/v1/spike-rates?thresholds=1.5%2C3&window_secs=3600",
        "/v1/bid-spread?market=us-east-1a/c3.large/linux",
        "/v1/advisor/top?n=3",
        "/v1/advisor/fallbacks?market=us-east-1a/c3.large/linux&n=2",
        "/healthz",
        "/readyz",
        "/nope",
    ];
    let mut out = Vec::new();
    for i in 0..64usize {
        let target = targets[i % targets.len()];
        let head_only = i % 9 == 4;
        let method = if head_only { "HEAD" } else { "GET" };
        let pad = "p".repeat(60 + (i * 37) % 120);
        let mut bytes =
            format!("{method} {target} HTTP/1.1\r\nHost: spotlight\r\nX-Pad: {pad}\r\n")
                .into_bytes();
        if i % 11 == 3 {
            bytes.extend_from_slice(b"Content-Length: 5\r\n");
        }
        if i == 63 {
            bytes.extend_from_slice(b"Connection: close\r\n");
        }
        bytes.extend_from_slice(b"\r\n");
        if i % 11 == 3 {
            bytes.extend_from_slice(b"hello");
        }
        out.push(Req { bytes, head_only });
    }
    out
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream.set_nodelay(true).expect("nodelay");
    stream
}

/// Serves `req` alone on a fresh connection and returns the raw bytes
/// of its one response.
fn serve_alone(addr: SocketAddr, req: &Req) -> Vec<u8> {
    let mut stream = connect(addr);
    stream.write_all(&req.bytes).expect("write");
    let mut response = Vec::new();
    let mut byte = [0u8; 1];
    while !response.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).expect("response head");
        response.push(byte[0]);
    }
    if !req.head_only {
        let head = String::from_utf8_lossy(&response).into_owned();
        let length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("content-length")
            .parse()
            .expect("length");
        let at = response.len();
        response.resize(at + length, 0);
        stream.read_exact(&mut response[at..]).expect("body");
    }
    response
}

/// Sends `batch` cut into the given chunk sizes (cycled) and returns
/// everything the server answers until it closes.
fn serve_chunked(addr: SocketAddr, batch: &[u8], chunk_sizes: &[usize]) -> Vec<u8> {
    let mut stream = connect(addr);
    let mut reading = stream.try_clone().expect("clone stream");
    let reader = std::thread::spawn(move || {
        let mut response = Vec::new();
        let _ = reading.read_to_end(&mut response);
        response
    });
    let mut rest = batch;
    for &size in chunk_sizes.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (chunk, tail) = rest.split_at(size.min(rest.len()));
        stream.write_all(chunk).expect("write chunk");
        rest = tail;
    }
    reader.join().expect("reader thread")
}

#[test]
fn pipelined_stream_is_chunking_invariant() {
    let store: SharedStore = Arc::new(served_store());
    let hub = Arc::new(SnapshotHub::new(store.snapshot(SimTime::from_secs(36_000))));
    let server = Server::start(
        "127.0.0.1:0",
        &store,
        hub,
        ServerConfig {
            read_timeout: Duration::from_secs(5),
            header_deadline: Duration::from_secs(10),
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let addr = server.local_addr();

    let requests = mixed_requests();
    let batch: Vec<u8> = requests.iter().flat_map(|r| r.bytes.clone()).collect();
    assert!(
        batch.len() > 8192,
        "the batch must overflow the read buffer"
    );
    let expected: Vec<u8> = requests.iter().flat_map(|r| serve_alone(addr, r)).collect();
    assert_eq!(
        expected.windows(9).filter(|w| w == b"HTTP/1.1 ").count(),
        requests.len()
    );

    let mut plans: Vec<Vec<usize>> = vec![
        vec![batch.len()],
        vec![1],
        vec![8192, 1],
        vec![8191],
        vec![4096, 4097],
        vec![7, 300, 1, 1, 2000],
    ];
    let mut x = 0x5eed_u64;
    for _ in 0..10 {
        let plan = (0..1 + x % 9)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                1 + (x >> 33) as usize % 700
            })
            .collect();
        plans.push(plan);
    }
    for plan in &plans {
        let got = serve_chunked(addr, &batch, plan);
        assert!(
            got == expected,
            "chunk sizes {plan:?}: the response stream differs from one-per-connection serving \
             ({} vs {} bytes)",
            got.len(),
            expected.len()
        );
    }

    let report = server.drain(Duration::from_secs(5));
    assert!(!report.forced, "drain deadline hit: {:?}", report.stats);
    assert_eq!(report.stats.panics, 0, "{:?}", report.stats);
    assert_eq!(report.stats.responses_5xx, 0, "{:?}", report.stats);
}
