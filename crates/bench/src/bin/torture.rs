//! Kill-9 crash-torture harness for the durable probe store.
//!
//! The parent forks a real child process (this same binary) that
//! ingests a deterministic probe stream into a durable store, acking a
//! watermark after every `flush()` — an acked op index is *provably on
//! disk*. The parent then `SIGKILL`s the child at a scheduled point:
//!
//! * **append** — a random delay, landing between WAL writes;
//! * **checkpoint** — the instant the child announces a checkpoint,
//!   landing inside the rotate/capture/write/prune protocol;
//! * **spill** — the instant the child announces a compaction, landing
//!   inside the spill-then-drop protocol.
//!
//! Phase accounting is honest: the child brackets each checkpoint and
//! compaction with `phase <name>-begin` / `phase <name>-end` lines, and
//! a round is credited to the phase whose `begin` had no matching `end`
//! when the pipe went silent — not to the phase the parent *aimed* for.
//! The run loops until every phase took at least [`MIN_PER_PHASE`] real
//! kills and the total reaches [`MIN_TOTAL`].
//!
//! After each kill the parent recovers the directory and verifies:
//!
//! 1. every op at or before the last acked watermark survived (per
//!    market: the store's running counters cover the acked prefix);
//! 2. the survivors are exactly a per-market prefix of the generated
//!    stream: an in-memory twin store fed the same prefix must match
//!    the recovered store bit-for-bit on every counter and interval
//!    (`len`, `total_cost`, per-market `ProbeStats`, unavailability);
//! 3. recovery is deterministic: recovering the same directory twice
//!    yields identical state.
//!
//! Finally two clean-shutdown rounds assert that `close()` leaves a
//! marker that lets recovery skip the tail scan entirely
//! (`replayed_ops == 0`).
//!
//! Run via `scripts/torture_smoke.sh` (part of the verify path).

use cloud_sim::ids::{Az, MarketId, Platform, Region};
use cloud_sim::price::Price;
use cloud_sim::rng::SimRng;
use cloud_sim::time::SimTime;
use spotlight_core::durable::{DurableOptions, RecoveryInfo};
use spotlight_core::probe::{ProbeKind, ProbeOutcome, ProbeRecord, ProbeTrigger};
use spotlight_core::store::DataStore;
use spotlight_persist::tempdir::TempDir;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

/// Markets the child spreads its stream across.
const MARKETS: u8 = 6;
/// Cost of every probe (so `total_cost` is a pure function of `len`).
const COST_MICROS: u64 = 100_000;
/// Child: flush + ack cadence during the torture window.
const ACK_EVERY: u64 = 400;
/// Child: checkpoint cadence (ops) during the torture window.
const CKPT_EVERY: u64 = 1_500;
/// Child: compaction cadence (ops) during the torture window.
const COMPACT_EVERY: u64 = 3_500;
/// Child: ops ingested before the torture window opens, so checkpoints
/// have real state to serialize (wider kill windows).
const BULK_OPS: u64 = 20_000;
/// Child: a suppressed-probe record rides along every Nth op.
const SUPPRESS_EVERY: u64 = 97;
/// Ops a clean-shutdown child ingests before `close()`.
const CLEAN_OPS: u64 = 5_000;
/// Every phase must absorb at least this many kills...
const MIN_PER_PHASE: u64 = 4;
/// ...and the total at least this many.
const MIN_TOTAL: u64 = 21;
/// Hard cap on kill rounds before the harness gives up.
const MAX_ROUNDS: u64 = 120;

fn market(i: u8) -> MarketId {
    MarketId {
        az: Az::new(Region::UsEast1, i),
        instance_type: "c3.large".parse().expect("instance type"),
        platform: Platform::LinuxUnix,
    }
}

/// The deterministic op stream: both the child (to record) and the
/// parent (to verify) derive it from the round seed alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Op {
    market_idx: u8,
    rejected: bool,
}

fn op_for(seed: u64, i: u64) -> Op {
    let mix = (i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    Op {
        market_idx: ((mix >> 32) % u64::from(MARKETS)) as u8,
        rejected: mix.is_multiple_of(3),
    }
}

fn probe_for(seed: u64, i: u64) -> ProbeRecord {
    let op = op_for(seed, i);
    ProbeRecord {
        at: SimTime::from_secs(i + 1),
        market: market(op.market_idx),
        kind: ProbeKind::OnDemand,
        trigger: ProbeTrigger::Periodic,
        outcome: if op.rejected {
            ProbeOutcome::InsufficientCapacity
        } else {
            ProbeOutcome::Fulfilled
        },
        spot_ratio: 2.0,
        bid: None,
        cost: Price::from_micros(COST_MICROS),
    }
}

// ---------------------------------------------------------------------
// Child: durable ingest until SIGKILL (or a clean close).
// ---------------------------------------------------------------------

fn run_child(dir: &Path, seed: u64, clean: bool) {
    let store = DataStore::create_durable(dir, DurableOptions::default()).expect("create store");
    let mut i = 0u64;
    loop {
        store.record_probe(probe_for(seed, i));
        let done = i + 1;
        if done.is_multiple_of(SUPPRESS_EVERY) {
            store.record_suppressed();
        }
        if clean && done == CLEAN_OPS {
            store.close().expect("close");
            println!("closed");
            return;
        }
        if done.is_multiple_of(ACK_EVERY) {
            store.flush().expect("flush");
            // Everything at or before `i` is on disk from here on.
            println!("acked {i}");
        }
        if done > BULK_OPS {
            if done.is_multiple_of(CKPT_EVERY) {
                println!("phase checkpoint-begin");
                store.checkpoint().expect("checkpoint");
                println!("phase checkpoint-end");
            }
            if done.is_multiple_of(COMPACT_EVERY) {
                println!("phase compact-begin");
                store.compact(SimTime::from_secs(done.saturating_sub(2_000)));
                println!("phase compact-end");
            }
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------
// Parent: kill scheduling, output accounting, recovery verification.
// ---------------------------------------------------------------------

/// What the parent aims the kill at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KillPlan {
    /// Kill after this delay once the torture window is open.
    AfterDelay(Duration),
    /// Kill the moment a `checkpoint-begin` marker arrives.
    OnCheckpointBegin,
    /// Kill the moment a `compact-begin` marker arrives.
    OnCompactBegin,
}

/// Which phase the child actually died in (honest accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Phase {
    Append,
    Checkpoint,
    Compact,
}

/// Everything the child said before dying, digested.
#[derive(Debug, Default)]
struct ChildLog {
    /// Highest acked op index, if any ack arrived.
    acked: Option<u64>,
    /// The phase open (begin without end) when the output stopped.
    open_phase: Option<Phase>,
    /// Whether any compaction *completed* before death.
    saw_marker: bool,
}

impl ChildLog {
    fn ingest_line(&mut self, line: &str) {
        if let Some(rest) = line.strip_prefix("acked ") {
            // A torn final line (killed mid-write) parses as garbage;
            // ignore it — the previous ack stands.
            if let Ok(i) = rest.trim().parse::<u64>() {
                self.acked = Some(i);
            }
        } else if let Some(rest) = line.strip_prefix("phase ") {
            self.saw_marker = true;
            match rest.trim() {
                "checkpoint-begin" => self.open_phase = Some(Phase::Checkpoint),
                "compact-begin" => self.open_phase = Some(Phase::Compact),
                "checkpoint-end" | "compact-end" => self.open_phase = None,
                _ => {}
            }
        }
    }

    fn death_phase(&self) -> Phase {
        self.open_phase.unwrap_or(Phase::Append)
    }
}

/// Spawns a child and a thread pumping its stdout lines to a channel.
fn spawn_child(dir: &Path, seed: u64, clean: bool) -> (Child, Receiver<String>) {
    let exe = std::env::current_exe().expect("current exe");
    let mode = if clean { "--child-clean" } else { "--child" };
    let mut child = Command::new(exe)
        .arg(mode)
        .arg(dir)
        .arg(seed.to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn child");
    let stdout = child.stdout.take().expect("piped stdout");
    let (tx, rx) = channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    (child, rx)
}

/// One kill round: spawn, kill per plan, digest output, verify.
fn kill_round(round: u64, seed: u64, plan: KillPlan) -> Phase {
    let tmp = TempDir::new(&format!("torture-{round}"));
    let dir = tmp.path().join("store");
    let (mut child, rx) = spawn_child(&dir, seed, false);
    let mut log = ChildLog::default();

    // Phase 1: wait for the torture window (first ack past the bulk).
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(line) => {
                log.ingest_line(&line);
                if log.acked.is_some_and(|i| i + 1 >= BULK_OPS) {
                    break;
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                assert!(Instant::now() < deadline, "child never reached the bulk");
            }
            Err(RecvTimeoutError::Disconnected) => panic!("child died before the kill"),
        }
    }

    // Phase 2: kill per plan.
    let kill_deadline = Instant::now() + Duration::from_secs(30);
    let due = |log: &ChildLog, elapsed: Duration| match plan {
        KillPlan::AfterDelay(d) => elapsed >= d,
        KillPlan::OnCheckpointBegin => log.open_phase == Some(Phase::Checkpoint),
        KillPlan::OnCompactBegin => log.open_phase == Some(Phase::Compact),
    };
    let started = Instant::now();
    loop {
        if due(&log, started.elapsed()) || Instant::now() >= kill_deadline {
            child.kill().expect("SIGKILL");
            break;
        }
        match rx.recv_timeout(Duration::from_millis(1)) {
            Ok(line) => log.ingest_line(&line),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => panic!("child died before the kill"),
        }
    }
    child.wait().expect("reap child");
    // Drain whatever made it into the pipe before the kill landed: the
    // death phase is judged on the complete output, not on the aim.
    while let Ok(line) = rx.recv() {
        log.ingest_line(&line);
    }

    verify_crash_recovery(&dir, seed, &log);
    log.death_phase()
}

/// Recovers a killed child's directory and holds it to the contract.
fn verify_crash_recovery(dir: &Path, seed: u64, log: &ChildLog) {
    let (store, info) =
        DataStore::recover_with_report(dir, DurableOptions::default()).expect("recover");
    verify_against_stream(&store, seed, log.acked);

    // Recovery is deterministic: a second pass over the same directory
    // must reconstruct identical state (the first pass consumed no
    // clean marker — there was none — and appended nothing).
    drop(store);
    let (again, info2) =
        DataStore::recover_with_report(dir, DurableOptions::default()).expect("recover twice");
    assert_eq!(info, info2, "recovery reports diverged");
    assert!(!info.from_clean_shutdown, "a SIGKILL is never clean");
    verify_against_stream(&again, seed, log.acked);
}

/// The core contract: the recovered store equals an in-memory twin fed
/// the exact per-market prefixes that survived, and those prefixes
/// cover the acked watermark.
fn verify_against_stream(store: &DataStore, seed: u64, acked: Option<u64>) {
    let survived = store.len() as u64;

    // Per-market survivor counts, from the running counters (these are
    // compaction-invariant, so this holds even when the child died
    // mid-spill). All generated probes are informative.
    let read = store.read();
    let per_market: Vec<u64> = (0..MARKETS)
        .map(|m| read.probe_stats(market(m), ProbeKind::OnDemand).informative)
        .collect();
    assert_eq!(
        per_market.iter().sum::<u64>(),
        survived,
        "per-market counters must partition the survivors"
    );

    // Watermark: every op at or before the ack is covered.
    let acked_ops = acked.map_or(0, |w| w + 1);
    let mut acked_per_market = vec![0u64; MARKETS as usize];
    let mut acked_suppressed = 0u64;
    for i in 0..acked_ops {
        acked_per_market[op_for(seed, i).market_idx as usize] += 1;
        if (i + 1) % SUPPRESS_EVERY == 0 {
            acked_suppressed += 1;
        }
    }
    for (m, (&got, &need)) in per_market.iter().zip(&acked_per_market).enumerate() {
        assert!(
            got >= need,
            "market {m}: acked {need} ops but only {got} survived"
        );
    }
    assert!(
        store.suppressed_probes() >= acked_suppressed,
        "acked suppressed records lost"
    );
    assert_eq!(
        store.total_cost(),
        Price::from_micros(COST_MICROS * survived),
        "total cost must be a pure function of the survivor count"
    );

    // Twin: replay the generated stream, keeping exactly the surviving
    // per-market prefixes, and demand bit-identical state.
    let twin = DataStore::new();
    let mut remaining: Vec<u64> = per_market.clone();
    let mut left = survived;
    let mut i = 0u64;
    while left > 0 {
        let m = op_for(seed, i).market_idx as usize;
        if remaining[m] > 0 {
            remaining[m] -= 1;
            left -= 1;
            twin.record_probe(probe_for(seed, i));
        }
        i += 1;
        assert!(
            i < acked_ops + 10_000_000,
            "twin replay ran away: survivors are not a per-market prefix"
        );
    }
    assert_eq!(twin.len() as u64, survived);
    assert_eq!(twin.total_cost(), store.total_cost());
    let twin_read = twin.read();
    for m in 0..MARKETS {
        let mkt = market(m);
        assert_eq!(
            read.probe_stats(mkt, ProbeKind::OnDemand),
            twin_read.probe_stats(mkt, ProbeKind::OnDemand),
            "market {m}: probe stats diverge from the generated stream"
        );
        assert_eq!(
            read.is_unavailable(mkt, ProbeKind::OnDemand),
            twin_read.is_unavailable(mkt, ProbeKind::OnDemand),
            "market {m}: unavailability state diverges"
        );
    }
}

/// A clean-shutdown round: the child `close()`s, recovery must skip the
/// tail scan entirely and see every op.
fn clean_round(round: u64, seed: u64) {
    let tmp = TempDir::new(&format!("torture-clean-{round}"));
    let dir = tmp.path().join("store");
    let (mut child, rx) = spawn_child(&dir, seed, true);
    let mut closed = false;
    while let Ok(line) = rx.recv() {
        if line.trim() == "closed" {
            closed = true;
        }
    }
    let status = child.wait().expect("reap child");
    assert!(status.success(), "clean child failed: {status}");
    assert!(closed, "clean child never announced the close");

    let (store, info) =
        DataStore::recover_with_report(&dir, DurableOptions::default()).expect("recover clean");
    assert_eq!(
        info,
        RecoveryInfo {
            replayed_ops: 0,
            from_clean_shutdown: true,
            checkpoint_loaded: true,
        },
        "clean restart must skip the tail scan"
    );
    assert_eq!(store.len() as u64, CLEAN_OPS);
    verify_against_stream(&store, seed, Some(CLEAN_OPS - 1));
}

fn run_parent(base_seed: u64) {
    let mut counts: std::collections::HashMap<Phase, u64> = std::collections::HashMap::new();
    let mut rng = SimRng::seed_from(base_seed ^ 0x7021_7021);
    let mut round = 0u64;
    let quotas_met = |c: &std::collections::HashMap<Phase, u64>| {
        let total: u64 = c.values().sum();
        total >= MIN_TOTAL
            && [Phase::Append, Phase::Checkpoint, Phase::Compact]
                .iter()
                .all(|p| c.get(p).copied().unwrap_or(0) >= MIN_PER_PHASE)
    };
    while !quotas_met(&counts) {
        assert!(
            round < MAX_ROUNDS,
            "phase quotas not met after {MAX_ROUNDS} rounds: {counts:?}"
        );
        // Aim at whatever phase is furthest from its quota; append aims
        // use a random delay so kills land at varied stream positions.
        let want = [Phase::Checkpoint, Phase::Compact, Phase::Append]
            .into_iter()
            .min_by_key(|p| counts.get(p).copied().unwrap_or(0))
            .expect("nonempty");
        let plan = match want {
            Phase::Append => {
                KillPlan::AfterDelay(Duration::from_millis(rng.uniform_usize(5, 150) as u64))
            }
            Phase::Checkpoint => KillPlan::OnCheckpointBegin,
            Phase::Compact => KillPlan::OnCompactBegin,
        };
        let seed = base_seed.wrapping_add(round).wrapping_mul(0x9E37_79B9) | 1;
        let died_in = kill_round(round, seed, plan);
        *counts.entry(died_in).or_insert(0) += 1;
        let total: u64 = counts.values().sum();
        println!(
            "round {round}: aimed {want:?}, died in {died_in:?} \
             (append {}, checkpoint {}, compact {}, total {total})",
            counts.get(&Phase::Append).copied().unwrap_or(0),
            counts.get(&Phase::Checkpoint).copied().unwrap_or(0),
            counts.get(&Phase::Compact).copied().unwrap_or(0),
        );
        round += 1;
    }
    for clean in 0..2u64 {
        clean_round(clean, base_seed.wrapping_add(1000 + clean));
        println!("clean round {clean}: zero-replay restart verified");
    }
    let total: u64 = counts.values().sum();
    println!("torture complete: {total} kills verified across {counts:?}, 2 clean shutdowns");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some(mode @ ("--child" | "--child-clean")) => {
            let dir = Path::new(args.get(2).expect("child needs a directory"));
            let seed: u64 = args
                .get(3)
                .expect("child needs a seed")
                .parse()
                .expect("seed must be a u64");
            run_child(dir, seed, mode == "--child-clean");
        }
        Some(seed) => run_parent(seed.parse().expect("seed must be a u64")),
        None => run_parent(0xF0C5),
    }
}
