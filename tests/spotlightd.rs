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
//!
//! `spotlightd_survives_kill_9` (`scripts/torture_smoke.sh`) kills it
//! mid-append, mid-checkpoint and mid-compact, and holds what recovers
//! to an uninterrupted in-process run of the same world.

use cloud_sim::ids::{MarketId, Region};
use cloud_sim::rng::SimRng;
use cloud_sim::time::{SimDuration, SimTime};
use spotlight_core::json;
use spotlight_core::query::SpotLightQuery;
use spotlight_core::snapshot::SnapshotReader;
use spotlight_core::{DataStore, DurableOptions, ProbeKind, ProbeRecord, RecoveryInfo, StoreRead};
use spotlight_persist::tempdir::TempDir;
use spotlight_persist::LogDir;
use spotlight_serve::client::Client;
use spotlight_serve::router::{market_param, route, ServiceState};
use spotlight_serve::{Service, MAINTAIN_EVERY};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
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

/// The lines written to `pipe`, each once it is whole: a line a kill
/// tore is never sent.
fn lines_of(pipe: impl Read + Send + 'static) -> mpsc::Receiver<String> {
    let (tx, lines) = mpsc::channel();
    std::thread::spawn(move || {
        let (mut pipe, mut line) = (BufReader::new(pipe), String::new());
        while pipe.read_line(&mut line).is_ok() && line.ends_with('\n') {
            let _ = tx.send(line.trim_end().to_string());
            line.clear();
        }
    });
    lines
}

/// A running `spotlightd` and its stdout and stderr, line by line.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    lines: mpsc::Receiver<String>,
    errors: mpsc::Receiver<String>,
}

impl Daemon {
    fn spawn(dir: &Path, days: u64) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_spotlightd"))
            .arg("--dir")
            .arg(dir)
            .args(["--days", &days.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn spotlightd");
        let lines = lines_of(child.stdout.take().expect("stdout"));
        let errors = lines_of(child.stderr.take().expect("stderr"));
        let listening = next_line(&lines);
        let addr = listening.strip_prefix("listening ").expect(&listening);
        let addr = addr.parse().expect("bound address");
        Daemon {
            child,
            addr,
            lines,
            errors,
        }
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
    let statz = client.get("/statz").expect("statz").body;
    assert_contains(&statz, r#""durability_mode":"durable" "regions":{"#);
    for region in Region::ALL {
        assert_contains(&statz, &format!(r#""{}":{{"degraded":"#, region.name()));
    }
    let resp = client.get(&availability).expect("availability");
    assert_eq!(resp.body, twin.availability, "/v1/availability");
    let queries = format!(
        "{availability} /v1/freshness?market={origin} /v1/bid-spread?market={origin} \
         /v1/advisor/fallbacks?market={origin} /v1/advisor/top /v1/spike-rates"
    );
    let answers: Vec<_> = queries
        .split(' ')
        .map(|path| client.get(path).expect(path))
        .collect();
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
    let clean = r#""forced":false "responses_5xx":0 "panics":0 "durability_lost_secs":null"#;
    assert_contains(&report, clean);
    let calm = report.matches(r#""worker_panics":0"#).count();
    assert_eq!(
        calm,
        Region::ALL.len(),
        "a region's manager panicked: {report}"
    );
    let probes = json_u64(&report, "probes");

    // ---- restart on the same directory: nothing to replay, same answers ----
    let mut daemon = Daemon::spawn(&dir, 0);
    let recovery = next_line(&daemon.lines);
    let clean = r#""replayed_ops":0 "from_clean_shutdown":true "checkpoint_loaded":true"#;
    assert_contains(&recovery, clean);
    let mut client = daemon.client();
    let health = client.get("/healthz").expect("healthz").body;
    assert_eq!(json_u64(&health, "probes"), probes, "{health}");
    assert!(json_u64(&health, "as_of_secs") >= end, "{health}");
    for (path, before) in queries.split(' ').zip(answers) {
        let after = client.get(path).expect(path);
        assert_eq!((after.status, after.body), (200, before.body), "GET {path}");
    }
    let report = daemon.stop();
    assert_contains(&report, r#""ticks":0"#);
}

/// Simulated days a daemon that is to be killed collects for; it
/// checkpoints and compacts at the end of each.
const KILL_DAYS: u64 = 3;
/// The kill schedule's seed.
const KILL_SEED: u64 = 0xF0C5;
// Kills at least in each phase (by what the daemon printed before it
// died) and with a request in flight; kills at least; rounds at most.
const MIN_EACH: usize = 4;
const MIN_KILLS: usize = 21;
const MAX_ROUNDS: usize = 60;
/// The kinds a `spotlightd` world probes with.
const KINDS: [ProbeKind; 2] = [ProbeKind::OnDemand, ProbeKind::Spot];

/// An uninterrupted run of a killed daemon's world, in process: each
/// market's records in recording order; per maintenance second `<t>`,
/// how many records of each market and how many suppressed probes were
/// collected through it (the last `<t>` is the horizon); and the wall
/// time its steps took.
struct History {
    records: BTreeMap<MarketId, Vec<ProbeRecord>>,
    through: BTreeMap<u64, (BTreeMap<MarketId, usize>, u64)>,
    collection: Duration,
}

fn history() -> History {
    let tmp = TempDir::new("spotlightd-history");
    let (mut service, _) = Service::open(&tmp.path().join("store"), None).expect("open the twin");
    let end = service.now() + SimDuration::days(KILL_DAYS);
    let (mut records, mut through) = (BTreeMap::<_, Vec<_>>::new(), BTreeMap::new());
    let mut collection = Duration::ZERO;
    while service.now() < end {
        let started = Instant::now();
        let now = service.step();
        collection += started.elapsed();
        let store = service.store();
        for probe in store.read().probes().filter(|p| p.at == now) {
            records.entry(probe.market).or_default().push(*probe);
        }
        if now.as_secs() % MAINTAIN_EVERY == 0 {
            let counts = records.iter().map(|(m, r)| (*m, r.len())).collect();
            through.insert(now.as_secs(), (counts, store.suppressed_probes()));
        }
    }
    let store = service.store();
    let recorded: usize = records.values().map(Vec::len).sum();
    assert_eq!(recorded, store.len(), "a probe not stamped with its step");
    // What survived of a market is then read off its informative counters.
    let counted = |p: &ProbeRecord| p.outcome.is_informative() && KINDS.contains(&p.kind);
    assert!(records.values().flatten().all(counted), "a probe uncounted");
    service.stop().expect("stop the twin");
    History {
        records,
        through,
        collection,
    }
}

/// Holds a recovered store to the history: each market kept a prefix of
/// its records, one that reaches every record collected through `acked`,
/// and the store equals a fresh one fed those prefixes. Returns their
/// lengths.
fn verify_prefixes(store: &DataStore, history: &History, acked: Option<u64>) -> Vec<usize> {
    let (read, fresh) = (store.read(), DataStore::new());
    let mut resident = BTreeMap::<_, Vec<_>>::new();
    for probe in read.probes() {
        resident.entry(probe.market).or_default().push(*probe);
    }
    let (through, suppressed) =
        acked.map_or_else(Default::default, |t| history.through[&t].clone());
    let mut prefixes = Vec::new();
    for (market, records) in &history.records {
        let kept = KINDS.map(|k| read.probe_stats(*market, k).informative as usize);
        let (kept, acked) = (kept.iter().sum(), through.get(market).copied().unwrap_or(0));
        assert!(acked <= kept && kept <= records.len(), "{market:?}: {kept}");
        let tail = resident.remove(market).unwrap_or_default();
        assert!(
            records[..kept].ends_with(&tail),
            "{market:?}: other records"
        );
        for &probe in &records[..kept] {
            fresh.record_probe(probe);
        }
        prefixes.push(kept);
    }
    assert!(resident.is_empty(), "records of unprobed markets");
    assert_eq!(store.len(), fresh.len());
    assert_eq!(store.total_cost(), fresh.total_cost());
    let fresh_read = fresh.read();
    for (m, k) in history.records.keys().flat_map(|m| KINDS.map(|k| (*m, k))) {
        let stats = |r: &StoreRead| (r.probe_stats(m, k), r.is_unavailable(m, k));
        assert_eq!(stats(&read), stats(&fresh_read), "{m:?} {k:?}");
    }
    let horizon = history.through.values().last().map_or(0, |(_, n)| *n);
    let got = store.suppressed_probes();
    assert!(suppressed <= got && got <= horizon, "{got} suppressed");
    prefixes
}

/// Recovers a killed daemon's directory twice, holds both recoveries to
/// the history and to each other, and returns the report and the
/// recovered probe count.
fn verify_kill(dir: &Path, history: &History, acked: Option<u64>) -> (RecoveryInfo, usize) {
    let recover = || {
        let (store, info) = DataStore::recover_with_report(dir, DurableOptions::default())
            .expect("recover a killed directory");
        (info, store.len(), verify_prefixes(&store, history, acked))
    };
    let ((info, probes, prefixes), again) = (recover(), recover());
    assert_eq!((info, probes, prefixes), again, "recoveries diverged");
    assert!(!info.from_clean_shutdown, "a kill is never clean");
    (info, probes)
}

/// Where a kill lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Append,
    Checkpoint,
    Compact,
}

/// What a daemon printed about its maintenance: the phase of each begin
/// line, the phase one opened and no end line closed, and the `<t>` of
/// the last `checkpointed <t>`.
#[derive(Default)]
struct Said {
    begun: Vec<Phase>,
    open: Option<Phase>,
    acked: Option<u64>,
}

impl Said {
    fn read(&mut self, line: &str) {
        // A failed checkpoint's line has more words and changes nothing.
        let words: Vec<_> = line.split(' ').collect();
        let ["spotlight-serve:", word, t] = words[..] else {
            return;
        };
        let phase = match word {
            "checkpointed" => return (self.acked, self.open) = (t.parse().ok(), None),
            "compacted" => return self.open = None,
            "checkpoint" => Phase::Checkpoint,
            _ => Phase::Compact,
        };
        self.begun.push(phase);
        self.open = Some(phase);
    }

    fn begun(&self, phase: Phase) -> usize {
        self.begun.iter().filter(|&&p| p == phase).count()
    }
}

/// What a kill is aimed at: a moment of the collection (or its last
/// compaction, if that comes first), or the `n`th begin line of a phase.
#[derive(Debug, Clone, Copy)]
enum Aim {
    After(Duration),
    Nth(Phase, usize),
}

impl Aim {
    fn due(self, said: &Said, elapsed: Duration) -> bool {
        match self {
            Aim::After(delay) => {
                elapsed >= delay || said.begun(Phase::Compact) == KILL_DAYS as usize
            }
            Aim::Nth(phase, n) => said.begun(phase) == n,
        }
    }
}

/// How one kill went.
struct Kill {
    phase: Phase,
    in_flight: bool,
    checkpoint_loaded: bool,
}

/// Runs `spotlightd` on a fresh directory while a client loops on a
/// query, kills it with SIGKILL where `aim` says, verifies what recovers,
/// and restarts it there.
fn kill_round(history: &History, aim: Aim) -> Kill {
    let tmp = TempDir::new("spotlightd-kill");
    let dir = tmp.path().join("store");
    let mut daemon = Daemon::spawn(&dir, KILL_DAYS);
    let (started, busy) = (Instant::now(), Arc::new(AtomicBool::new(false)));
    let (mut client, flag) = (daemon.client(), Arc::clone(&busy));
    let looping = std::thread::spawn(move || {
        let mut statuses = Vec::new();
        loop {
            flag.store(true, Ordering::SeqCst);
            let Ok(resp) = client.get("/v1/spike-rates") else {
                return statuses;
            };
            flag.store(false, Ordering::SeqCst);
            statuses.push(resp.status);
        }
    });
    let mut said = Said::default();
    while !aim.due(&said, started.elapsed()) {
        match daemon.errors.recv_timeout(Duration::from_millis(1)) {
            Ok(line) => said.read(&line),
            Err(RecvTimeoutError::Timeout) => assert!(started.elapsed() < Duration::from_secs(60)),
            Err(RecvTimeoutError::Disconnected) => panic!("spotlightd died before the kill"),
        }
    }
    let in_flight = busy.load(Ordering::SeqCst);
    daemon.child.kill().expect("SIGKILL");
    daemon.child.wait().expect("reap spotlightd");
    // The phase is what the pipe held when the kill landed, not the aim.
    daemon.errors.iter().for_each(|line| said.read(&line));
    let statuses = looping.join().expect("looping client");
    assert!(statuses.iter().all(|&status| status == 200), "{statuses:?}");

    let (info, probes) = verify_kill(&dir, history, said.acked);
    let mut restarted = Daemon::spawn(&dir, 0);
    let health = restarted.client().get("/healthz").expect("healthz").body;
    assert_eq!(json_u64(&health, "probes"), probes as u64, "{health}");
    restarted.stop();
    Kill {
        phase: said.open.unwrap_or(Phase::Append),
        in_flight,
        checkpoint_loaded: info.checkpoint_loaded,
    }
}

#[test]
#[ignore = "kills spotlightd 21+ times; scripts/torture_smoke.sh runs it in release"]
fn spotlightd_survives_kill_9() {
    let history = history();
    let (mut rng, mut kills) = (SimRng::seed_from(KILL_SEED), Vec::<Kill>::new());
    let phases = [Phase::Checkpoint, Phase::Compact, Phase::Append];
    loop {
        let tally = phases.map(|p| kills.iter().filter(|k| k.phase == p).count());
        let in_flight = kills.iter().filter(|k| k.in_flight).count();
        let loaded = kills.iter().filter(|k| k.checkpoint_loaded).count();
        let [checkpoint, compact, append] = tally;
        let summary = format!(
            "{} kills: append {append}, checkpoint {checkpoint}, compact {compact}; \
             {in_flight} with a request in flight; {loaded} loaded a checkpoint",
            kills.len()
        );
        let fewest = [checkpoint, compact, append, in_flight].into_iter().min();
        if kills.len() >= MIN_KILLS
            && fewest >= Some(MIN_EACH)
            && (1..kills.len()).contains(&loaded)
        {
            // libtest captures the print macros; the smoke shows this line.
            return writeln!(io::stderr(), "spotlightd survived {summary}").expect("stderr");
        }
        assert!(kills.len() < MAX_ROUNDS, "quotas unmet: {summary}");
        let furthest = (0..phases.len()).min_by_key(|&i| tally[i]);
        let aim = match phases[furthest.unwrap_or(0)] {
            Phase::Append => Aim::After(history.collection.mul_f64(rng.uniform())),
            phase => Aim::Nth(phase, rng.uniform_usize(1, KILL_DAYS as usize + 1)),
        };
        let kill = kill_round(&history, aim);
        println!("round {}: {aim:?}, killed in {:?}", kills.len(), kill.phase);
        kills.push(kill);
    }
}

/// Format 5 compresses every checkpoint section. On what the service
/// itself writes — two simulated days, each ending in a checkpoint and
/// a compaction — the checkpoint file takes at most 0.6× the bytes of
/// the sections it holds, and no compaction left a file behind.
#[test]
fn service_checkpoint_is_compressed() {
    let tmp = TempDir::new("spotlightd-compressed");
    let dir = tmp.path().join("store");
    let (mut service, _) = Service::open(&dir, None).expect("open");
    let end = service.now() + SimDuration::days(2);
    while service.now() < end {
        service.step();
    }
    service.stop().expect("stop");
    let log = LogDir::open(&dir).expect("open the directory");
    let checkpoint = log.read_checkpoint().expect("read").expect("a checkpoint");
    let raw: usize = checkpoint
        .sections()
        .map(|s| s.expect("a section").len())
        .sum();
    let on_disk = std::fs::metadata(dir.join("checkpoint"))
        .expect("checkpoint")
        .len() as usize;
    let ratio = on_disk as f64 / raw as f64;
    assert!(
        ratio <= 0.6,
        "{on_disk} B on disk for {raw} B of sections: {ratio:.3}"
    );
    let names = std::fs::read_dir(&dir).expect("read dir");
    let names: Vec<String> = names
        .map(|entry| {
            entry
                .expect("entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    assert!(
        !names.iter().any(|name| name.starts_with("spill-")),
        "{names:?}"
    );
}
