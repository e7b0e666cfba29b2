//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <figures-serial|figures-par|serve-mix> --seed N --seconds S --trace 0|1
//! perfbench record      rewrite the golden manifests under perfbench/golden
//! ```
//!
//! Run it through `bash perfbench/run.sh`, which builds this program and the
//! `fairness-serve` daemon from the checkout first. Each run prints every
//! metric by name and unit, then, as the last line of stdout, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set; with `--trace 1` the
//! run records spans around its calls into the program and reports the
//! per-layer set instead. `perfbench/README.md` documents every name.

mod figures;
mod observe;
mod probes;
mod record;
mod report;
mod serve_mix;
mod stats;
mod trace;
mod util;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

pub const WORKLOADS: [&str; 3] = ["figures-serial", "figures-par", "serve-mix"];

/// Everything a workload needs to know about its run.
#[derive(Debug)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    /// This executable (the figures workloads re-run it as their child).
    pub exe: PathBuf,
    /// The run's scratch directory, emptied at start.
    pub work: PathBuf,
}

fn usage() -> &'static str {
    "usage: perfbench --workload <figures-serial|figures-par|serve-mix> --seed N --seconds S --trace 0|1\n\
     \x20      perfbench record"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("figures-child") => return figures::child_main(&args[1..]),
        Some("record") => return record::main(),
        _ => {}
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    for pair in args.chunks(2) {
        match pair {
            [flag, value] if flag == "--workload" => workload = Some(value.clone()),
            [flag, value] if flag == "--seed" => seed = value.parse::<u64>().ok(),
            [flag, value] if flag == "--seconds" => seconds = value.parse::<u64>().ok(),
            [flag, value] if flag == "--trace" => {
                traced = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => {
                eprintln!("{}", usage());
                return ExitCode::FAILURE;
            }
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced)) =
        (workload, seed, seconds, traced)
    else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    if !WORKLOADS.contains(&workload.as_str()) || seconds == 0 {
        eprintln!("unknown workload or zero seconds\n{}", usage());
        return ExitCode::FAILURE;
    }
    match run(workload, seed, seconds, traced) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(workload: String, seed: u64, seconds: u64, traced: bool) -> std::io::Result<()> {
    let ctx = Ctx {
        exe: std::env::current_exe()?,
        work: PathBuf::from(".bench_work").join(&workload),
        workload,
        seed,
        seconds,
    };
    let tracer = Tracer::new(traced);
    let mut report = Report::default();
    let workload_s = run_workload(&ctx, &mut report, &tracer)?;
    let names = if traced {
        probes::run(&ctx, &mut report, &tracer, workload_s);
        tracer.write(&ctx.work.join("trace.jsonl"))?;
        probes::per_layer_names()
    } else {
        report::END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    };
    report.print(&names);
    Ok(())
}

/// Runs the workload in an emptied work directory; returns its seconds.
fn run_workload(ctx: &Ctx, report: &mut Report, tracer: &Tracer) -> std::io::Result<f64> {
    if ctx.work.exists() {
        std::fs::remove_dir_all(&ctx.work)?;
    }
    std::fs::create_dir_all(&ctx.work)?;
    let started = Instant::now();
    match ctx.workload.as_str() {
        "figures-serial" => figures::run(ctx, 1, report, tracer)?,
        "figures-par" => {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            figures::run(ctx, cores, report, tracer)?;
        }
        _ => serve_mix::run(ctx, report, tracer)?,
    }
    Ok(started.elapsed().as_secs_f64())
}
