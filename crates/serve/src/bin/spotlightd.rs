//! `spotlightd`: the SpotLight information service as one process —
//! continuous collection by the live region managers and HTTP queries
//! over one durable store (crate docs, "`spotlightd`: the service as one
//! process").
//!
//! ```text
//! spotlightd --dir <path> [--addr <host:port>] [--days <n>]
//! ```
//!
//! Closing stdin is how it is stopped: Ctrl-D in a terminal, or the end
//! of whatever feeds it (`sleep 600 | spotlightd ...` serves for ten
//! minutes). With stdin already closed it stops at once.

use cloud_sim::time::{SimDuration, SimTime};
use spotlight_core::durable::{DurableOptions, RecoveryInfo};
use spotlight_core::json::{self, key, ToJson};
use spotlight_core::snapshot::SnapshotHub;
use spotlight_core::store::{DataStore, SharedStore};
use spotlight_serve::server::{Server, ServerConfig};
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: spotlightd --dir <path> [--addr <host:port>] [--days <n>]";

/// Simulated seconds between two republishes of the served snapshot.
const PUBLISH_EVERY: u64 = 3_600;
/// Simulated seconds between two checkpoint-and-compact rounds; the
/// compaction spills raw records older than one such period.
const MAINTAIN_EVERY: u64 = 86_400;
/// How long a stop waits for in-flight connections before abandoning
/// them (`Server::drain`).
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

#[derive(Debug)]
struct Args {
    dir: PathBuf,
    addr: String,
    /// Simulated days the driver runs. Without pacing this is what
    /// bounds how far the simulated clock runs ahead.
    days: u64,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut dir, mut addr, mut days) = (None, "127.0.0.1:0".to_string(), 21);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--dir" => dir = Some(PathBuf::from(value)),
            "--addr" => addr = value,
            "--days" => days = value.parse().map_err(|e| format!("--days: {e}"))?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if days > 3650 {
        return Err(format!(
            "--days {days} is over a decade of simulated deployment; the paper ran ~90"
        ));
    }
    let dir = dir.ok_or("--dir is required")?;
    Ok(Args { dir, addr, days })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("spotlightd: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("spotlightd: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Creates the store at `dir`, or recovers the one already there.
fn open(dir: &Path) -> io::Result<(DataStore, Option<RecoveryInfo>)> {
    match DataStore::create_durable(dir, DurableOptions::default()) {
        Ok(store) => Ok((store, None)),
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
            let (store, info) = DataStore::recover_with_report(dir, DurableOptions::default())?;
            Ok((store, Some(info)))
        }
        Err(e) => Err(e),
    }
}

fn run(args: &Args) -> io::Result<()> {
    let (store, recovery) = open(&args.dir)?;
    let newest = (store.read().probes().map(|p| p.at).max()).unwrap_or(SimTime::ZERO);
    let store: SharedStore = Arc::new(store);
    let (mut driver, start) = spotlight_serve::live_world(Arc::clone(&store), newest);
    let hub = Arc::new(SnapshotHub::new(store.snapshot(start)));
    let server = Server::start(
        &args.addr,
        &store,
        Arc::clone(&hub),
        ServerConfig::default(),
    )?;
    println!("listening {}", server.local_addr());
    if let Some(info) = recovery {
        println!("{}", info.to_json());
    }

    // Finishes when stdin reaches end of file (or fails): the stop.
    let stdin = std::thread::spawn(|| io::copy(&mut io::stdin().lock(), &mut io::sink()));
    let end = start + SimDuration::days(args.days);
    let mut now = start;
    while now < end && !stdin.is_finished() {
        now = driver.step();
        let elapsed = now.saturating_since(start).as_secs();
        if elapsed % PUBLISH_EVERY == 0 {
            hub.republish(&store, now);
        }
        if elapsed % MAINTAIN_EVERY == 0 {
            if let Err(e) = store.checkpoint() {
                eprintln!("spotlightd: checkpoint at {now}: {e}");
            }
            store.compact(SimTime::from_secs(
                now.as_secs().saturating_sub(MAINTAIN_EVERY),
            ));
        }
    }
    if !stdin.is_finished() {
        eprintln!("spotlightd: ran to {now}; serving until stdin closes");
    }
    if let Ok(Err(e)) = stdin.join() {
        eprintln!("spotlightd: reading stdin: {e}; stopping");
    }

    let drain = server.drain(DRAIN_DEADLINE);
    let (_, live) = driver.finish();
    let durability = store.durability_stats();
    let store = Arc::into_inner(store).ok_or_else(|| {
        io::Error::other("a connection abandoned by the drain still holds the store")
    })?;
    store.close()?;

    let mut report = String::new();
    json::object(&mut report, |o| {
        o.value(key!("live"), &live);
        o.object(key!("drain"), |o| {
            o.bool(key!("forced"), drain.forced);
            o.value(key!("stats"), &drain.stats);
        });
        match &durability {
            Some(stats) => o.value(key!("durability"), stats),
            None => o.null(key!("durability")),
        }
    });
    println!("{report}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn flags_parse_with_defaults_and_bounds() {
        let args = parse(&["--dir", "d"]).expect("dir alone");
        assert_eq!((args.addr.as_str(), args.days), ("127.0.0.1:0", 21));
        let args = parse(&["--days", "0", "--addr", "[::1]:80", "--dir", "d"]).expect("all three");
        assert_eq!((args.addr.as_str(), args.days), ("[::1]:80", 0));
        assert!(parse(&[]).unwrap_err().contains("--dir"));
        assert!(parse(&["--dir", "d", "--seed", "7"])
            .unwrap_err()
            .contains("unknown flag --seed"));
        assert!(parse(&["--dir"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--dir", "d", "--days", "3651"]).is_err());
        assert!(parse(&["--dir", "d", "--days", "-1"]).is_err());
    }
}
