//! `spotlightd`: the SpotLight information service as one process, a
//! [`spotlight_serve::Service`] run until stdin closes (crate docs,
//! "`spotlightd`: the service as one process").
//!
//! ```text
//! spotlightd --dir <path> [--addr <host:port>] [--days <n>]
//! ```
//!
//! Closing stdin is how it is stopped: Ctrl-D in a terminal, or the end
//! of whatever feeds it (`sleep 600 | spotlightd ...` serves for ten
//! minutes). With stdin already closed it stops at once.

use cloud_sim::time::SimDuration;
use spotlight_core::json::ToJson;
use spotlight_serve::Service;
use std::io;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: spotlightd --dir <path> [--addr <host:port>] [--days <n>]";

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
    let result = parse_args(std::env::args().skip(1))
        .map_err(|e| format!("{e}\n{USAGE}"))
        .and_then(|args| run(&args).map_err(|e| e.to_string()));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("spotlightd: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> io::Result<()> {
    let (mut service, recovery) = Service::open(&args.dir, Some(&args.addr))?;
    let addr = service.local_addr().expect("opened with an address");
    let recovery = recovery.map(|info| format!("\n{}", info.to_json()));
    println!("listening {addr}{}", recovery.unwrap_or_default());

    // Finishes when stdin reaches end of file (or fails): the stop.
    let stdin = std::thread::spawn(|| io::copy(&mut io::stdin().lock(), &mut io::sink()));
    let end = service.now() + SimDuration::days(args.days);
    while service.now() < end && !stdin.is_finished() {
        service.step();
    }
    if !stdin.is_finished() {
        eprintln!("spotlightd: ran to {end}; serving until stdin closes");
    }
    if let Ok(Err(e)) = stdin.join() {
        eprintln!("spotlightd: reading stdin: {e}; stopping");
    }
    println!("{}", service.stop()?);
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
