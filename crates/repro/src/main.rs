//! `repro` — regenerates every table and figure of the SpotLight paper.
//!
//! ```text
//! repro <target> [--days N] [--seed S] [--threshold T] [--out DIR]
//!
//! targets:
//!   all         run the study once and print every figure and table
//!   table-2-1   contract trade-offs
//!   fig-2-1     spot vs on-demand price trace
//!   fig-3-1     on-demand state machine (DOT)
//!   fig-3-2     spot request state machine (DOT)
//!   fig-5-1a    family price inversion        fig-5-1b  cross-zone prices
//!   fig-5-2     intrinsic bid price           fig-5-3   least price to hold
//!   fig-5-4     P(unavailable) vs spike       fig-5-5   rejections per region
//!   fig-5-6     per-region P(unavailable)     fig-5-7   trigger attribution
//!   fig-5-8     cross-zone correlation        fig-5-9   duration CDF
//!   fig-5-10    spot capacity-not-available   fig-5-11  CNA distribution
//!   fig-5-12    od/spot cross unavailability
//!   fig-6-1     SpotCheck availability        fig-6-2   SpotOn running time
//! ```
//!
//! Every run is fully deterministic in `--seed`. Absolute numbers depend
//! on the simulated demand model; the *shapes* are the reproduction
//! target (see EXPERIMENTS.md).

mod case_studies;
mod experiment;
mod figures;
mod output;
mod tables;
mod traces;

use experiment::{run_study, Study, StudyConfig};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    target: String,
    config: StudyConfig,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let target = args.next().ok_or("missing target; try `repro all`")?;
    let mut config = StudyConfig::default();
    let mut out = PathBuf::from("results");
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--days" => config.days = value()?.parse().map_err(|e| format!("--days: {e}"))?,
            "--seed" => config.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--threshold" => {
                config.threshold = value()?.parse().map_err(|e| format!("--threshold: {e}"))?
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !config.threshold.is_finite() || config.threshold < 0.0 {
        return Err(format!(
            "--threshold {} must be a finite non-negative spike ratio (the paper deployed 1.0)",
            config.threshold
        ));
    }
    if config.days > 3650 {
        return Err(format!(
            "--days {} is over a decade of simulated deployment; the paper ran ~90",
            config.days
        ));
    }
    Ok(Args {
        target,
        config,
        out,
    })
}

fn with_study(args: &Args, f: impl FnOnce(&Study, &std::path::Path)) {
    eprintln!(
        "running study: {} days, seed {}, threshold {}x od (standard catalog, \
         {} markets)...",
        args.config.days,
        args.config.seed,
        args.config.threshold,
        cloud_sim::catalog::Catalog::standard().markets().len(),
    );
    let t0 = std::time::Instant::now();
    let study = run_study(&args.config);
    {
        // One read snapshot for the whole summary.
        let db = study.store.read();
        eprintln!(
            "study done in {:.1}s: {} probes, {} spikes, {} intervals, cost {}",
            t0.elapsed().as_secs_f64(),
            db.len(),
            db.spikes().count(),
            db.intervals().count(),
            db.total_cost(),
        );
        // `--days 0` yields an empty span, which the query interface
        // rejects — skip the summary rather than crash.
        if study.end > study.start {
            let query = spotlight_core::query::SpotLightQuery::new(&db, study.start, study.end);
            let mut outages = Vec::new();
            query.unavailability_durations_into(
                spotlight_core::probe::ProbeKind::OnDemand,
                &mut outages,
            );
            let mut by_region: Vec<_> = query.rejection_counts_by_region().into_iter().collect();
            // Region order, then a stable sort: count ties stay in it.
            by_region.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
            eprintln!(
                "  {} closed od outages; busiest rejection regions: {}",
                outages.len(),
                by_region
                    .iter()
                    .take(3)
                    .map(|(r, n)| format!("{} ({n})", r.name()))
                    .collect::<Vec<_>>()
                    .join(", "),
            );
        }
    }
    f(&study, &args.out);
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: repro <target> [--days N] [--seed S] [--threshold T] [--out DIR]");
            return ExitCode::FAILURE;
        }
    };

    match args.target.as_str() {
        "fig-3-1" => tables::fig_3_1(),
        "fig-3-2" => tables::fig_3_2(),
        "all" => with_study(&args, |study, out| {
            tables::table_2_1(study, out);
            tables::fig_3_1();
            tables::fig_3_2();
            traces::fig_2_1(study, out);
            traces::fig_5_1a(study, out);
            traces::fig_5_1b(study, out);
            traces::fig_5_2(study, out);
            traces::fig_5_3(study, out);
            figures::fig_5_4(study, out);
            figures::fig_5_5(study, out);
            figures::fig_5_6(study, out);
            figures::fig_5_7(study, out);
            figures::fig_5_8(study, out);
            figures::fig_5_9(study, out);
            figures::fig_5_10(study, out);
            figures::fig_5_11(study, out);
            figures::fig_5_12(study, out);
            case_studies::fig_6_1(study, out);
            case_studies::fig_6_2(study, out);
        }),
        "table-2-1" => with_study(&args, tables::table_2_1),
        "fig-2-1" => with_study(&args, traces::fig_2_1),
        "fig-5-1a" => with_study(&args, traces::fig_5_1a),
        "fig-5-1b" => with_study(&args, traces::fig_5_1b),
        "fig-5-2" => with_study(&args, traces::fig_5_2),
        "fig-5-3" => with_study(&args, traces::fig_5_3),
        "fig-5-4" => with_study(&args, figures::fig_5_4),
        "fig-5-5" => with_study(&args, figures::fig_5_5),
        "fig-5-6" => with_study(&args, figures::fig_5_6),
        "fig-5-7" => with_study(&args, figures::fig_5_7),
        "fig-5-8" => with_study(&args, figures::fig_5_8),
        "fig-5-9" => with_study(&args, figures::fig_5_9),
        "fig-5-10" => with_study(&args, figures::fig_5_10),
        "fig-5-11" => with_study(&args, figures::fig_5_11),
        "fig-5-12" => with_study(&args, figures::fig_5_12),
        "fig-6-1" => with_study(&args, case_studies::fig_6_1),
        "fig-6-2" => with_study(&args, case_studies::fig_6_2),
        other => {
            eprintln!("error: unknown target `{other}` (try `repro all`)");
            return ExitCode::FAILURE;
        }
    }
    if output::csv_errors() {
        eprintln!("error: some CSV outputs failed to write (see above)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
