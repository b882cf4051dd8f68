//! `spotlight-e2e`: the end-to-end and per-layer benchmark of the
//! assembled SpotLight service. One process runs one workload:
//!
//! ```text
//! spotlight-e2e --workload W --seed N --seconds S --trace 0|1
//! ```
//!
//! Set-up builds the whole service (timed as `setup_s`); then phases
//! are interleaved round by round — point throughput, point latency,
//! advisor scans, probe→queryable freshness, durable ingest with its
//! maintenance, restart-to-ready, the engine-mode study, the analysis
//! kernels — for as long as `--seconds` lasts. The first round is
//! warm-up. The wall-time end-to-end metrics are named `*_best`: each
//! is the best of the short readings its phase's windows are cut into
//! (see `timings`); their medians over all readings are per-layer
//! metrics. With `--trace 1` every other round records spans and the
//! per-layer metrics are printed instead.
//! The last line of standard output is the result as one JSON object.

mod gen;
mod host;
mod layers;
mod live;
mod oracle;
mod phases;
mod stats;
mod trace;
mod world;

use live::LiveWriter;
use phases::{Samples, Tally};
use stats::{median, quantile};
use std::io;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use world::{Scale, World};

/// The four workloads. Each runs every phase; the scale says where the
/// weight lies and under which conditions the service is queried.
const WORKLOADS: [(&str, Scale); 4] = [
    (
        "serve_static",
        Scale {
            served_probes: 500_000,
            live: false,
            ingest_window_probes: 50_000,
            image_checkpoint_probes: 100_000,
            image_tail_probes: 50_000,
            study_window_secs: 86_400,
        },
    ),
    (
        "ingest_durable",
        Scale {
            served_probes: 250_000,
            live: false,
            ingest_window_probes: 100_000,
            image_checkpoint_probes: 200_000,
            image_tail_probes: 100_000,
            study_window_secs: 86_400,
        },
    ),
    (
        "live_mixed",
        Scale {
            served_probes: 500_000,
            live: true,
            ingest_window_probes: 50_000,
            image_checkpoint_probes: 100_000,
            image_tail_probes: 50_000,
            study_window_secs: 86_400,
        },
    ),
    (
        "study_sim",
        Scale {
            served_probes: 250_000,
            live: false,
            ingest_window_probes: 50_000,
            image_checkpoint_probes: 100_000,
            image_tail_probes: 50_000,
            study_window_secs: 172_800,
        },
    ),
];

/// Length of one window of each query phase; a round has three of
/// each, spread over the round.
const QPS_WINDOW: Duration = Duration::from_millis(170);
const POINT_WINDOW: Duration = Duration::from_millis(35);
const ADVISOR_WINDOW: Duration = Duration::from_millis(70);
/// Slice of a throughput window that gives one reading — unless a live
/// writer republishes beside the queries: then a reading is one of its
/// publish periods, so that each holds one snapshot capture.
const QPS_SLICE: Duration = Duration::from_millis(10);
/// Requests per reading of the depth-1 latency (its median), long
/// enough to hold the request mix.
const POINT_READING: usize = 128;
/// Sentinels per freshness window; each is one reading.
const SENTINELS_PER_WINDOW: usize = 9;
/// Analysis passes per round.
const ANALYSIS_PASSES: usize = 3;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Rounds every run completes whatever `--seconds` says: the warm-up
/// round and three measured ones, which is also one ingest cycle.
const MIN_ROUNDS: usize = world::INGEST_CYCLE_WINDOWS;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    results_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 7,
        seconds: 22.0,
        trace: false,
        work_dir: PathBuf::from("benchmark/target/work"),
        results_dir: PathBuf::from("benchmark/results"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? != "0",
            "--work-dir" => args.work_dir = PathBuf::from(value()?),
            "--results-dir" => args.results_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Everything one round measured.
#[derive(Default)]
struct Round {
    traced: bool,
    /// The host probes read just before and just after the round.
    host: [host::Reading; 2],
    /// Requests per second of every slice of the throughput window.
    qps: Vec<f64>,
    point_us: Vec<f64>,
    advisor_ms: Vec<f64>,
    fresh_ms: Vec<f64>,
    ingest: Option<phases::IngestWindow>,
    restart_segment_secs: Vec<f64>,
    study_segment_secs: Vec<f64>,
    study_probes: u64,
    analysis_ms: Vec<f64>,
}

/// What the rounds of one run share.
struct Run {
    world: World,
    cpus: host::Cpus,
    /// Query slots so far; picks the CPU the next one runs on.
    slots: usize,
    host: host::Host,
    /// The study's checksum after the first window; same seed, same
    /// bits: every later window must match it.
    checksum: Option<phases::Checksum>,
    live: Option<LiveWriter>,
    samples: Samples,
    tally: Tally,
    /// Oracle checks whose serving snapshot was already gone.
    unverifiable: u64,
}

impl Run {
    /// One window of every phase, bracketed by two host readings.
    fn round(&mut self, traced: bool) -> io::Result<Round> {
        let Run {
            world,
            cpus,
            slots,
            host,
            checksum,
            live,
            samples,
            tally,
            unverifiable,
        } = self;
        let before = host.read();
        let mut round = Round {
            traced,
            host: [before, before],
            ..Round::default()
        };
        let set_mode = |mode| {
            if let Some(live) = live.as_ref() {
                live.set_mode(mode);
            }
        };
        trace::set_enabled(traced);

        // The client-driven phases, three times a round, some way apart
        // and each time confined to another CPU (see `host::Cpus`).
        let mut query_slot = |world: &mut World, round: &mut Round, tally: &mut Tally| {
            cpus.confine(*slots);
            *slots += 1;
            set_mode(live::INGEST_AND_PUBLISH);
            // With a live writer the window is one publish period (and
            // the batch that completes it), so that it is one reading.
            let (window, slice) = if live.is_some() {
                (live::PUBLISH_EVERY, live::PUBLISH_EVERY)
            } else {
                (QPS_WINDOW, QPS_SLICE)
            };
            let requests_before = tally.attempted;
            phases::qps_window(world, window, slice, &mut round.qps, tally)?;
            phases::point_latency_window(world, POINT_WINDOW, &mut round.point_us, tally)?;
            phases::advisor_window(world, ADVISOR_WINDOW, &mut round.advisor_ms, tally)?;
            // One body in a thousand is checked against the oracle, here
            // rather than inside the timed windows.
            let requests = tally.attempted - requests_before;
            for i in 0..requests.div_ceil(1000) as usize {
                let which = if i < 3 {
                    2 + i
                } else {
                    usize::from(i % 10 >= 7)
                };
                match oracle::check_response(world, which)? {
                    oracle::Verdict::Match => tally.check(true),
                    oracle::Verdict::Mismatch => tally.check(false),
                    oracle::Verdict::Unverifiable => *unverifiable += 1,
                }
            }
            set_mode(live::PAUSED);
            cpus.release();
            io::Result::Ok(())
        };

        query_slot(world, &mut round, tally)?;
        set_mode(live::INGEST);
        phases::fresh_window(world, SENTINELS_PER_WINDOW, &mut round.fresh_ms, tally)?;
        set_mode(live::PAUSED);
        round.ingest = Some(phases::ingest_window(world, samples, tally)?);
        query_slot(world, &mut round, tally)?;
        round.restart_segment_secs = phases::restart_once(world, samples, tally)?;
        query_slot(world, &mut round, tally)?;
        let window_checksum;
        (
            round.study_segment_secs,
            round.study_probes,
            window_checksum,
        ) = phases::study_window(world);
        tally.check(*checksum.get_or_insert(window_checksum) == window_checksum);
        for _ in 0..ANALYSIS_PASSES {
            round.analysis_ms.push(phases::analysis_pass(world));
        }

        round.host[1] = host.read();
        trace::set_enabled(false);
        eprintln!(
            "round: mem {:.1}/{:.1} ns spin {:.2}/{:.2} ms qps {:.0} p50 {:.1} us advisor {:.2} ms fresh {:.1} ms ingest {:.0}/s restart {:.3} s study {:.2} d/s analysis {:.2} ms{}",
            round.host[0].mem_ns,
            round.host[1].mem_ns,
            round.host[0].spin_ns / 1e6,
            round.host[1].spin_ns / 1e6,
            median(&round.qps),
            median(&round.point_us),
            median(&round.advisor_ms),
            median(&round.fresh_ms),
            round.ingest.map_or(0.0, |w| w.probes_per_s),
            round.restart_segment_secs.iter().sum::<f64>(),
            world.scale.study_days() / round.study_segment_secs.iter().sum::<f64>(),
            median(&round.analysis_ms),
            if traced { " (traced)" } else { "" },
        );
        Ok(round)
    }
}

/// One wall-time figure, estimated two ways from the same readings.
#[derive(Clone, Copy)]
struct Estimate {
    /// The best reading: what a `*_best` metric reports.
    best: f64,
    /// The median over everything measured: a per-layer metric.
    p50: f64,
}

/// What a set of rounds timed.
struct Timings {
    point_qps: Estimate,
    point_us: Estimate,
    advisor_ms: Estimate,
    fresh_ms: Estimate,
    study_days_per_s: Estimate,
    ingest_probes_per_s: f64,
    restart_ready_s: f64,
    analysis_p50_ms: f64,
}

fn pooled<'a>(rounds: &[&'a Round], of: impl Fn(&'a Round) -> &'a Vec<f64>) -> Vec<f64> {
    rounds.iter().flat_map(|r| of(r).iter().copied()).collect()
}

fn per_round(rounds: &[&Round], of: impl Fn(&Round) -> f64) -> Vec<f64> {
    rounds.iter().map(|r| of(r)).collect()
}

/// How rounds combine into numbers. The host slows the process down
/// for milliseconds to minutes at a time, by up to half, and only ever
/// down; a run's median moves with the share of its readings that were
/// slowed, which on this host is anything from none to most. So every
/// query phase is cut into readings as short as still hold the phase's
/// whole mix — 10 ms of pipelined requests, the median of 128 requests
/// at depth 1, one of each advisor question, one sentinel — and the
/// gated figure is the **best reading**, named so. The medians over all
/// slices and all samples are reported beside them as per-layer
/// metrics, where a change that slows only some operations shows.
/// Freshness and the study are per-layer both ways: a sentinel is one
/// snapshot capture and the study one tick over every market, both
/// memory-bound, and this host's memory speed holds a level for
/// minutes, so not even their best readings repeat from run to run.
/// The study's window is the same work in every round, so its best
/// counts each tick at its fastest round.
fn timings(rounds: &[&Round], study_days: f64) -> Timings {
    let lowest = |values: &[f64]| quantile(values, 0.0);
    let highest = |values: &[f64]| quantile(values, 1.0);
    let qps = pooled(rounds, |r| &r.qps);
    let point_us = pooled(rounds, |r| &r.point_us);
    let point_readings: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.point_us.chunks_exact(POINT_READING).map(median))
        .collect();
    let advisor_ms = pooled(rounds, |r| &r.advisor_ms);
    let advisor_readings: Vec<f64> = rounds
        .iter()
        .flat_map(|r| {
            r.advisor_ms
                .chunks_exact(3)
                .map(|c| c.iter().sum::<f64>() / 3.0)
        })
        .collect();
    let fresh_ms = pooled(rounds, |r| &r.fresh_ms);
    let study_secs = |r: &Round| r.study_segment_secs.iter().sum::<f64>();
    let fastest_segments: f64 = (0..rounds[0].study_segment_secs.len())
        .map(|i| lowest(&per_round(rounds, |r| r.study_segment_secs[i])))
        .sum();
    Timings {
        point_qps: Estimate {
            best: highest(&qps),
            p50: median(&qps),
        },
        point_us: Estimate {
            best: lowest(&point_readings),
            p50: median(&point_us),
        },
        advisor_ms: Estimate {
            best: lowest(&advisor_readings),
            p50: median(&advisor_ms),
        },
        fresh_ms: Estimate {
            best: lowest(&fresh_ms),
            p50: median(&fresh_ms),
        },
        study_days_per_s: Estimate {
            best: study_days / fastest_segments,
            p50: study_days / median(&per_round(rounds, study_secs)),
        },
        ingest_probes_per_s: median(&per_round(rounds, |r| {
            r.ingest.expect("every round ingests").probes_per_s
        })),
        restart_ready_s: median(&per_round(rounds, |r| {
            r.restart_segment_secs.iter().sum::<f64>()
        })),
        analysis_p50_ms: median(&pooled(rounds, |r| &r.analysis_ms)),
    }
}

fn median_self_ms(name: &str) -> f64 {
    median(&trace::self_times_ns(name)) / 1e6
}

fn run(args: &Args) -> io::Result<bool> {
    // The probes' 64 MB are the bench's, not the program's set-up.
    let host = host::Host::new();
    let cpus = host::Cpus::detect();
    let process_started = Instant::now();
    let Some(&(name, scale)) = WORKLOADS.iter().find(|(n, _)| *n == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        return Err(io::Error::other(format!(
            "--workload must be one of {names:?}"
        )));
    };
    let work = args.work_dir.join(format!("{name}-{}", std::process::id()));
    eprintln!(
        "spotlight-e2e: workload {name} seed {} seconds {} trace {} (fsync policy: {:?}, cpus: {})",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        spotlight_core::DurableOptions::default().fsync,
        cpus.count(),
    );

    // ---- set-up: several times when it is the thing measured ----
    let mut setup_s = Vec::new();
    let mut world = None;
    for i in 0..if args.trace { 1 } else { SETUPS } {
        if let Some(previous) = world.take() {
            World::teardown(previous)?;
        }
        let started = if i == 0 {
            process_started
        } else {
            Instant::now()
        };
        world = Some(World::setup(scale, args.seed, &work, &cpus)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut world = world.expect("at least one set-up");
    eprintln!("set-ups: {setup_s:.3?} s");

    // ---- rounds ----
    let live = scale.live.then(|| {
        LiveWriter::start(
            world.served.clone(),
            world.hub.clone(),
            world.as_of.clone(),
            world.served_gen.take().expect("set-up leaves the stream"),
        )
    });
    let mut run = Run {
        world,
        cpus,
        slots: 0,
        host,
        checksum: None,
        live,
        samples: Samples::default(),
        tally: Tally::default(),
        unverifiable: 0,
    };
    let mut rounds: Vec<Round> = Vec::new();
    // The traced pass keeps part of its time for the direct per-layer
    // measurements that follow the rounds.
    let budget = args.seconds * if args.trace { 0.6 } else { 1.0 };
    let deadline = Instant::now() + Duration::from_secs_f64(budget);
    let mut round_secs: Vec<f64> = Vec::new();
    // Rounds for as long as another one fits `--seconds`.
    while rounds.len() < MIN_ROUNDS
        || Instant::now() + Duration::from_secs_f64(median(&round_secs)) < deadline
    {
        // Traced and untraced rounds alternate (after the untraced
        // warm-up round), so their difference is the tracing overhead.
        let traced = args.trace && rounds.len() % 2 == 1;
        let started = Instant::now();
        rounds.push(run.round(traced)?);
        round_secs.push(started.elapsed().as_secs_f64());
    }
    let Run {
        mut world,
        cpus,
        host,
        checksum,
        live,
        samples,
        mut tally,
        unverifiable,
        ..
    } = run;
    let live_report = live.map(|live| {
        let (report, gen) = live.stop();
        world.served_gen = Some(gen);
        report
    });
    if let Some(report) = &live_report {
        tally.attempted += report.ingested_ops;
        tally.failed += report.late_probes;
        if (report.ingested_probes as f64) < 0.99 * report.offered_probes as f64 {
            tally.failed += report.offered_probes - report.ingested_probes;
        }
        let dropped = world.served.durability_stats().map_or(0, |s| s.ops_dropped);
        tally.failed += dropped;
    }
    let peak_rss_mb = stats::proc_status_bytes("VmHWM") as f64 / 1e6;

    // ---- when traced, the direct layer measurements ----
    let layer = if args.trace {
        Some(layers::measure(&mut world)?)
    } else {
        None
    };
    let server = world.teardown()?;
    tally.failed += server.shed + server.responses_5xx;

    // ---- metrics ----
    // The first round is warm-up.
    let measured: Vec<&Round> = rounds.iter().skip(1).collect();
    let noisy_rounds = measured
        .iter()
        .filter(|r| r.host.iter().any(|reading| host.disturbed(reading)))
        .count();
    let study_days = scale.study_days();
    let timed = timings(&measured, study_days);
    // What a cycle counts does not depend on speed: the warm-up
    // round's window is part of its cycle like any other.
    let cycles: Vec<phases::IngestCycle> = rounds
        .iter()
        .filter_map(|r| r.ingest.and_then(|w| w.cycle))
        .collect();
    let cycle_median =
        |of: fn(&phases::IngestCycle) -> f64| median(&cycles.iter().map(of).collect::<Vec<_>>());
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if let Some(layer) = layer {
        let untraced: Vec<&Round> = measured.iter().copied().filter(|r| !r.traced).collect();
        let traced: Vec<&Round> = measured.iter().copied().filter(|r| r.traced).collect();
        // The workload's own headline number, median traced round
        // against median untraced round.
        let headline = |r: &Round| match name {
            "ingest_durable" => r.ingest.map_or(0.0, |w| w.probes_per_s),
            "study_sim" => study_days / r.study_segment_secs.iter().sum::<f64>(),
            _ => median(&r.qps),
        };
        let overhead_pct = (1.0
            - median(&per_round(&traced, headline)) / median(&per_round(&untraced, headline)))
            * 100.0;
        let tick_auto_us = layer
            .metrics
            .iter()
            .find(|m| m.0 == "sim.tick_auto_us")
            .map_or(0.0, |m| m.1);
        let run_until_ms = median_self_ms("sim.run_until");
        let pace_lag = live_report
            .as_ref()
            .map_or(&layer.pace_lag_ms, |report| &report.lag_ms);
        metrics.extend(layer.metrics.iter().copied());
        metrics.extend([
            (
                "probe.agent_share",
                1.0 - tick_auto_us / 1e3 / run_until_ms,
                "ratio",
            ),
            (
                "probe.probes_per_sim_day",
                rounds[0].study_probes as f64 * 86_400.0 / scale.study_window_secs as f64,
                "count",
            ),
            ("store.compact_ms", median_self_ms("store.compact"), "ms"),
            (
                "durable.record_probe_ns",
                median(&samples.durable_record_ns),
                "ns",
            ),
            (
                "durable.record_p99_us",
                quantile(&samples.durable_record_ns, 0.99) / 1e3,
                "us",
            ),
            ("durable.flush_ms", median_self_ms("durable.flush"), "ms"),
            (
                "durable.checkpoint_ms",
                median_self_ms("durable.checkpoint"),
                "ms",
            ),
            (
                "durable.ingest_probes_per_s",
                timed.ingest_probes_per_s,
                "1/s",
            ),
            (
                "durable.checkpoint_bytes",
                cycle_median(|c| c.checkpoint_bytes),
                "B",
            ),
            ("durable.close_ms", cycle_median(|c| c.close_ms), "ms"),
            ("durable.restart_ready_s", timed.restart_ready_s, "s"),
            (
                "durable.recover_tail_ms",
                median(&samples.recover_tail_ms),
                "ms",
            ),
            (
                "durable.recover_checkpoint_ms",
                cycle_median(|c| c.recover_checkpoint_ms),
                "ms",
            ),
            (
                "durable.recover_clean_ms",
                cycle_median(|c| c.recover_clean_ms),
                "ms",
            ),
            ("durable.replayed_ops", samples.replayed_ops as f64, "count"),
            (
                "wal.bytes_per_probe",
                cycle_median(|c| c.wal_bytes_per_probe),
                "B",
            ),
            (
                "wal.fsyncs_per_kprobe",
                cycle_median(|c| c.fsyncs_per_kprobe),
                "count",
            ),
            (
                "wal.io_errors",
                cycles.iter().map(|c| c.io_errors).sum::<u64>() as f64,
                "count",
            ),
            (
                "snapshot.republish_ms",
                median_self_ms("snapshot.republish"),
                "ms",
            ),
            ("snapshot.fresh_best_ms", timed.fresh_ms.best, "ms"),
            ("snapshot.fresh_p50_ms", timed.fresh_ms.p50, "ms"),
            (
                "sim.study_days_per_s_best",
                timed.study_days_per_s.best,
                "1/s",
            ),
            (
                "sim.study_days_per_s_p50",
                timed.study_days_per_s.p50,
                "1/s",
            ),
            ("query.analysis_p50_ms", timed.analysis_p50_ms, "ms"),
            ("serve.point_qps_p50", timed.point_qps.p50, "1/s"),
            ("serve.point_p50_us", timed.point_us.p50, "us"),
            ("serve.advisor_p50_ms", timed.advisor_ms.p50, "ms"),
            (
                "serve.socket_residual_us",
                timed.point_us.p50 - layer.point_handler_ns / 1e3,
                "us",
            ),
            (
                "serve.point_p99_us",
                quantile(&pooled(&measured, |r| &r.point_us), 0.99),
                "us",
            ),
            (
                "serve.advisor_p99_ms",
                quantile(&pooled(&measured, |r| &r.advisor_ms), 0.99),
                "ms",
            ),
            ("serve.shed_503", server.shed as f64, "count"),
            ("ingest.pace_lag_p50_ms", median(pace_lag), "ms"),
            ("host.cpus", f64::from(cpus.count()), "count"),
            ("host.spin_ns", host.typical().spin_ns, "ns"),
            ("host.mem_ns", host.typical().mem_ns, "ns"),
            ("host.noisy_rounds", noisy_rounds as f64, "count"),
            ("trace.overhead_pct", overhead_pct, "%"),
        ]);
        let path = args.results_dir.join(format!("trace-{name}.json"));
        let spans = trace::write_json(&path)?;
        eprintln!("spotlight-e2e: {spans} spans written to {}", path.display());
    } else {
        metrics.extend([
            ("setup_s", median(&setup_s), "s"),
            ("point_qps_best", timed.point_qps.best, "1/s"),
            ("point_p50_us_best", timed.point_us.best, "us"),
            ("advisor_ms_best", timed.advisor_ms.best, "ms"),
            (
                "disk_bytes_per_probe",
                cycle_median(|c| c.disk_bytes_per_probe),
                "B",
            ),
            ("peak_rss_mb", peak_rss_mb, "MB"),
        ]);
    }

    // ---- report ----
    let correct = tally.oracle_failed == 0;
    println!("workload {name} seed {}", args.seed);
    println!(
        "rounds {} measured {} disturbed {noisy_rounds}",
        rounds.len(),
        measured.len()
    );
    let checksum = checksum.expect("at least one round ran");
    println!(
        "study_checksum probes={} spikes={} intervals={} cost_micros={}",
        checksum.0, checksum.1, checksum.2, checksum.3
    );
    println!(
        "operations attempted={} failed={} oracle_failed={} oracle_unverifiable={unverifiable}",
        tally.attempted, tally.failed, tally.oracle_failed
    );
    if let Some(report) = &live_report {
        println!(
            "live_writer offered_probes={} ingested_probes={} late_probes={} publishes={} lag_p50_ms={:.3} lag_max_ms={:.1}",
            report.offered_probes,
            report.ingested_probes,
            report.late_probes,
            report.publishes,
            median(&report.lag_ms),
            quantile(&report.lag_ms, 1.0)
        );
    }
    for (metric, value, unit) in &metrics {
        println!("{metric:<32} {value:>16.4} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(metric, value, unit)| {
            format!("\"{metric}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("spotlight-e2e: {message}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("spotlight-e2e: an output check failed");
            ExitCode::from(1)
        }
        Err(err) => {
            eprintln!("spotlight-e2e: {err}");
            ExitCode::from(2)
        }
    }
}
