//! `spotlightd`, the service as one process, run the way an operator
//! runs it: one simulated day on a fresh directory while clients query
//! it, a stop by closing stdin, and a restart on the same directory.
//!
//! Its answers are held to an in-process twin, the same [`Service`]
//! opened with no address on a directory of its own: the closed loop of
//! the paper's chapter 6, where a derivative cloud asks the service for
//! fallback markets, must get what the reference scan
//! (`SpotLightQuery::uncorrelated_fallbacks`, which reads none of a
//! snapshot's derived state) answers at the response's `as_of_secs`,
//! mid-run and after the run.

use cloud_sim::ids::MarketId;
use cloud_sim::time::{SimDuration, SimTime};
use spotlight_core::json;
use spotlight_core::probe::ProbeKind;
use spotlight_core::query::SpotLightQuery;
use spotlight_core::snapshot::SnapshotReader;
use spotlight_persist::tempdir::TempDir;
use spotlight_serve::client::Client;
use spotlight_serve::router::{market_param, route, ServiceState};
use spotlight_serve::Service;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// As many fallbacks as there are candidates: the answer runs past the
/// uncorrelated markets into the correlated ones.
const EVERY: usize = 100_000;

/// The next line a daemon printed.
fn next_line(lines: &mpsc::Receiver<String>) -> String {
    (lines.recv_timeout(Duration::from_secs(60))).expect("a line on stdout")
}

/// Asserts that `text` contains each space-separated part of `parts`.
fn assert_contains(text: &str, parts: &str) {
    for part in parts.split(' ') {
        assert!(text.contains(part), "{part} not in {text}");
    }
}

/// The first unsigned integer after `"key":` in `body`.
fn json_u64(body: &str, key: &str) -> u64 {
    let rest = body.split(&format!("\"{key}\":")).nth(1).expect(key);
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    rest[..digits].parse().expect(key)
}

/// What the in-process twin, a [`Service`] with no address, answers over
/// one day: the first market with on-demand rejections at one of its
/// hourly publications; from that publication on, per `as_of` second, the
/// JSON array of its fallbacks; and the `/v1/availability` body of that
/// market at the day's end.
struct Twin {
    origin: MarketId,
    fallbacks: BTreeMap<u64, String>,
    availability: String,
    end: SimTime,
}

fn twin() -> Twin {
    let tmp = TempDir::new("spotlightd-twin");
    let (mut service, _) = Service::open(&tmp.path().join("store"), None).expect("open the twin");
    let end = service.now() + SimDuration::days(1);
    let (mut origin, mut fallbacks) = (None, BTreeMap::new());
    while service.now() < end {
        let now = service.step();
        let published = service.hub().load();
        if published.as_of() != now {
            continue;
        }
        let read = published.read();
        let q = SpotLightQuery::new(&read, SimTime::ZERO, now);
        let observed = q.observed_markets();
        let rejected = |m: &&MarketId| !read.rejection_times(**m, ProbeKind::OnDemand).is_empty();
        if origin.is_none() {
            origin = observed.iter().find(rejected).copied();
        }
        let Some(origin) = origin else { continue };
        let window = SimDuration::from_secs(900);
        let mut answer = String::new();
        json::array(&mut answer, |a| {
            for market in q.uncorrelated_fallbacks(origin, &observed, window, EVERY) {
                a.str(&market_param(market));
            }
        });
        fallbacks.insert(now.as_secs(), answer);
    }
    let origin = origin.expect("a market with on-demand rejections");
    let state = ServiceState {
        hub: Arc::clone(service.hub()),
        store: Arc::downgrade(service.store()),
        stats: Arc::default(),
        draining: Arc::default(),
        retry_after_secs: 1,
    };
    let (query, mut reader) = (
        format!("market={}&kind=od", market_param(origin)),
        SnapshotReader::new(&state.hub),
    );
    let availability = route("/v1/availability", &query, &state, &mut reader);
    assert_eq!(availability.status, 200, "{}", availability.body);
    service.stop().expect("stop the twin");
    Twin {
        origin,
        fallbacks,
        availability: availability.body,
        end,
    }
}

/// A running `spotlightd` (its stderr goes to the test's) and its
/// stdout, line by line.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    lines: mpsc::Receiver<String>,
}

impl Daemon {
    fn spawn(dir: &Path, days: u64) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_spotlightd"))
            .arg("--dir")
            .arg(dir)
            .args(["--days", &days.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn spotlightd");
        let stdout = BufReader::new(child.stdout.take().expect("stdout"));
        let (tx, lines) = mpsc::channel();
        std::thread::spawn(move || {
            for line in stdout.lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        let listening = next_line(&lines);
        let addr = listening.strip_prefix("listening ").expect(&listening);
        let addr = addr.parse().expect("bound address");
        Daemon { child, addr, lines }
    }

    fn client(&self) -> Client {
        Client::connect(self.addr, Duration::from_secs(10)).expect("connect")
    }

    /// Closes stdin and returns the exit report once the process exited 0.
    fn stop(&mut self) -> String {
        drop(self.child.stdin.take());
        let status = self.child.wait().expect("wait");
        assert!(status.success(), "spotlightd exited with {status}");
        self.lines.iter().last().expect("an exit report")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn spotlightd_collects_serves_stops_and_restarts() {
    let twin = twin();
    let end = twin.end.as_secs();
    let origin = market_param(twin.origin);
    let tmp = TempDir::new("spotlightd");
    let dir = tmp.path().join("store");

    // ---- one day of collection, queried while the driver runs ----
    let mut daemon = Daemon::spawn(&dir, 1);
    let availability = format!("/v1/availability?market={origin}&kind=od");
    let every_route = format!(
        "/healthz {availability} /v1/freshness?market={origin} /v1/spike-rates /readyz /statz \
         /v1/bid-spread?market={origin} /v1/advisor/top /v1/advisor/fallbacks?market={origin}"
    );
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let (mut client, paths) = (daemon.client(), every_route.clone());
            std::thread::spawn(move || {
                let mut first_as_of = None;
                for path in paths.split(' ').cycle().take(3 * 9) {
                    let resp = client.get(path).expect("request");
                    assert_eq!(resp.status, 200, "GET {path}: {}", resp.body);
                    assert!(resp.body.starts_with('{'), "GET {path}: {}", resp.body);
                    first_as_of.get_or_insert_with(|| json_u64(&resp.body, "as_of_secs"));
                }
                first_as_of.expect("a /healthz answer")
            })
        })
        .collect();
    let mut client = daemon.client();
    let (mut mid_run, polling) = (false, Instant::now());
    let path = format!("/v1/advisor/fallbacks?market={origin}&n={EVERY}");
    loop {
        assert!(polling.elapsed() < Duration::from_secs(120), "no end");
        let resp = client.get(&path).expect("fallbacks");
        assert_eq!(resp.status, 200, "{}", resp.body);
        let as_of = json_u64(&resp.body, "as_of_secs");
        if let Some(answer) = twin.fallbacks.get(&as_of) {
            let answer = format!("\"fallbacks\":{answer}");
            assert!(resp.body.contains(&answer), "{}\ntwin: {answer}", resp.body);
            mid_run |= as_of < end;
        }
        if as_of == end {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(mid_run, "no answer between the first rejection and the end");
    let resp = client.get(&availability).expect("availability");
    assert_eq!(resp.body, twin.availability, "/v1/availability");
    for handle in clients {
        let first_as_of = handle.join().expect("keep-alive client");
        assert!(first_as_of < end, "a client started after the run ended");
    }

    // ---- stop by closing stdin while a client loops ----
    let (first_answer, answered) = mpsc::channel();
    let mut client = daemon.client();
    let looping = std::thread::spawn(move || {
        let mut served = 0;
        // Until the drain answers 503 or closes the connection.
        while let Ok(resp) = client.get("/v1/spike-rates") {
            if resp.status != 200 {
                let backoff = resp.header("retry-after").is_some();
                assert!(resp.status == 503 && backoff, "{}", resp.body);
                break;
            }
            served += 1;
            let _ = first_answer.send(());
        }
        served
    });
    answered.recv().expect("the looping client got a 200");
    let report = daemon.stop();
    assert!(looping.join().expect("looping client") > 0);
    let clean = r#""forced":false "responses_5xx":0 "panics":0 "worker_panics":0"#;
    assert_contains(&report, &format!(r#"{clean} "durability_lost_secs":null"#));
    let probes = json_u64(&report, "probes");

    // ---- restart on the same directory: nothing to replay ----
    let mut daemon = Daemon::spawn(&dir, 0);
    let recovery = next_line(&daemon.lines);
    assert_contains(&recovery, r#""replayed_ops":0 "from_clean_shutdown":true"#);
    let health = daemon.client().get("/healthz").expect("healthz").body;
    assert_eq!(json_u64(&health, "probes"), probes, "{health}");
    assert!(json_u64(&health, "as_of_secs") >= end, "{health}");
    let report = daemon.stop();
    assert_contains(&report, r#""ticks":0"#);
}
