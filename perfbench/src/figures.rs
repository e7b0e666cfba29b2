//! The `figures-*` workloads: every registered `repro` target at
//! `--quick` scale through `SweepService::run_targets`, cold (no disk
//! cache, fresh output directory), in a child process observed from
//! outside.
//!
//! The parent spawns the child, times it until `SweepService::new` has
//! returned (set-up), and tells it to run every target twice on the same
//! service, reading back one line per target: a cold pass, then a warm
//! one whose ensembles come from the in-memory sweep cache. Each pass
//! must write exactly the CSV bytes recorded in `golden/`.

use crate::observe::{Observer, Usage};
use crate::report::Report;
use crate::stats::{hd_quantile, median};
use crate::trace::Tracer;
use crate::util::{digest_csvs, parse_manifest, Reaped};
use crate::Ctx;
use fairness_bench::experiments::{registry, SweepService};
use fairness_bench::ReproOptions;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// The master seed `repro` uses by default, and one held out from tuning.
pub const MASTER_SEEDS: [u64; 2] = [0x5168_3D02, 0x2021_0620];

/// Golden CSV digests, recorded at the commit that introduced the
/// benchmark (`perfbench record`), one manifest per master seed.
const GOLDEN: [&str; 2] = [
    include_str!("../golden/figures-51683d02.sha256"),
    include_str!("../golden/figures-20210620.sha256"),
];

/// Child starts timed per run, half before and half after the work so a
/// drift in the host's speed during the run reaches both halves.
const SETUP_SAMPLES: usize = 24;

/// Even seeds run at `repro`'s default master seed, odd ones at the
/// held-out one.
pub fn master_seed(seed: u64) -> (u64, &'static str) {
    let i = (seed % 2) as usize;
    (MASTER_SEEDS[i], GOLDEN[i])
}

/// What the child reports back for one pass over the targets.
#[derive(Debug, Default)]
struct Pass {
    targets: Vec<(String, f64, bool)>,
    cache: [u64; 3],
}

pub fn run(ctx: &Ctx, jobs: usize, report: &mut Report, tracer: &Tracer) -> std::io::Result<()> {
    let (master, golden) = master_seed(ctx.seed);
    let out = ctx.work.join("out");
    std::fs::create_dir_all(&out)?;
    let mut setups = Vec::with_capacity(SETUP_SAMPLES + 1);
    let sample_setups = |setups: &mut Vec<f64>, n: usize| -> std::io::Result<()> {
        for _ in 0..n {
            let (mut child, ready) = spawn_child(ctx, master, jobs, &out, tracer)?;
            setups.push(ready);
            send(&mut child, "quit")?;
            if !child.wait_within(Duration::from_secs(30)) {
                return Err(std::io::Error::other("a set-up child did not exit cleanly"));
            }
        }
        Ok(())
    };
    sample_setups(&mut setups, SETUP_SAMPLES / 2)?;

    let (mut child, ready) = spawn_child(ctx, master, jobs, &out, tracer)?;
    setups.push(ready);
    let mut lines = BufReader::new(child.0.stdout.take().expect("child stdout is piped"));
    let observer = Observer::start(child.0.id());
    let observed = Instant::now();
    // Cold: every ensemble is simulated. Warm: the same service runs every
    // target again and its in-memory sweep cache answers the ensembles.
    // Both passes must write the golden bytes.
    let (cold, cold_s) = timed_pass(&mut child, &mut lines, "cold", tracer)?;
    check_pass(report, golden, &cold, &digest_csvs(&out)?);
    std::fs::remove_dir_all(&out)?;
    std::fs::create_dir_all(&out)?;
    let (warm, warm_s) = timed_pass(&mut child, &mut lines, "warm", tracer)?;
    check_pass(report, golden, &warm, &digest_csvs(&out)?);
    let observed_s = observed.elapsed().as_secs_f64();
    let usage = observer.finish();
    drop(child.0.stdin.take());
    report.check(child.wait_within(Duration::from_secs(30)), || {
        "the figures child did not exit cleanly".into()
    });
    sample_setups(&mut setups, SETUP_SAMPLES - SETUP_SAMPLES / 2)?;

    // Each target run is one job: fresh in the cold pass, a replay in the
    // warm one.
    let ms = |pass: &Pass| -> Vec<f64> { pass.targets.iter().map(|t| t.1 * 1e3).collect() };
    let (fresh, replay) = (ms(&cold), ms(&warm));
    report.set("wall_s", cold_s, "s");
    report.set("setup_s", median(&setups), "s");
    report.set("peak_rss_mib", usage.peak_rss_mib, "MiB");
    report.set("fresh_p50_ms", hd_quantile(&fresh, 0.5), "ms");
    report.set("fresh_p90_ms", hd_quantile(&fresh, 0.9), "ms");
    report.set("replay_p50_ms", hd_quantile(&replay, 0.5), "ms");
    report.set("replay_p90_ms", hd_quantile(&replay, 0.9), "ms");
    report.set(
        "jobs_per_s",
        (fresh.len() + replay.len()) as f64 / (cold_s + warm_s),
        "1/s",
    );
    report.note(format!(
        "figures: {} targets, --quick, jobs = {jobs}, master seed {master:#x}, disk cache off; \
         cold pass {cold_s:.3} s, warm pass {warm_s:.3} s; set-up median of {} starts",
        cold.targets.len(),
        setups.len()
    ));
    for (label, samples) in [("fresh (cold)", &fresh), ("replay (warm)", &replay)] {
        report.note(format!(
            "figures: {label} target runs: {} samples, too few for a tail with ten samples beyond p90",
            samples.len()
        ));
    }
    for (name, seconds, _) in &cold.targets {
        report.set(&format!("target.{name}.s"), *seconds, "s");
    }
    let [hits, misses, disk_hits] = warm.cache;
    layer_counters(report, &usage, observed_s, hits, misses, disk_hits);
    Ok(())
}

/// Tells the child to run every target once and reads back the pass;
/// returns it with its wall seconds.
fn timed_pass(
    child: &mut Reaped,
    lines: &mut impl BufRead,
    label: &str,
    tracer: &Tracer,
) -> std::io::Result<(Pass, f64)> {
    let open = tracer.start();
    let started = Instant::now();
    send(child, "go")?;
    let pass = read_pass(lines)?;
    let wall_s = started.elapsed().as_secs_f64();
    let id = tracer.finish(
        open,
        &format!("bench.service:run_targets ({label})"),
        0,
        1,
        pass.targets.len() as u64,
    );
    if tracer.enabled() {
        // Per-target spans, placed from the child's own timings.
        let mut end = started;
        for (name, seconds, _) in &pass.targets {
            let start = end;
            end = start + Duration::from_secs_f64(*seconds);
            tracer.record(&format!("bench.schedule:{name}"), id, 1, start, end, 1);
        }
    }
    Ok((pass, wall_s))
}

/// Sets the counters every workload reports from its worker process and
/// its sweep cache.
pub fn layer_counters(
    report: &mut Report,
    usage: &Usage,
    wall_s: f64,
    hits: u64,
    misses: u64,
    disk_hits: u64,
) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.set("sched.cpu_s", usage.cpu_s, "s");
    report.set(
        "sched.cpu_util",
        usage.cpu_s / (wall_s * cores as f64),
        "ratio",
    );
    report.set("sched.threads_max", usage.threads_max as f64, "count");
    report.set("cache.hits", hits as f64, "count");
    report.set("cache.misses", misses as f64, "count");
    report.set("cache.disk_hits", disk_hits as f64, "count");
    report.set(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
}

/// Every target must succeed, every golden file must be present with
/// its recorded digest, and no other CSV may appear.
fn check_pass(report: &mut Report, golden: &str, pass: &Pass, digests: &BTreeMap<String, String>) {
    for (name, _, ok) in &pass.targets {
        report.check(*ok, || format!("target {name} returned an error"));
    }
    report.check(pass.targets.len() == registry().len(), || {
        format!(
            "{} of {} targets reported",
            pass.targets.len(),
            registry().len()
        )
    });
    let expected = parse_manifest(golden);
    for (file, digest) in &expected {
        report.check(digests.get(file) == Some(digest), || {
            format!("{file} is missing or differs from the golden digest")
        });
    }
    for file in digests.keys().filter(|f| !expected.contains_key(*f)) {
        report.check(false, || format!("unexpected output {file}"));
    }
}

/// Starts a child and returns it with the seconds until it reported the
/// service ready.
fn spawn_child(
    ctx: &Ctx,
    master: u64,
    jobs: usize,
    out: &Path,
    tracer: &Tracer,
) -> std::io::Result<(Reaped, f64)> {
    let open = tracer.start();
    let started = Instant::now();
    let mut child = Reaped(
        Command::new(&ctx.exe)
            .arg("figures-child")
            .arg(master.to_string())
            .arg(jobs.to_string())
            .arg(out)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?,
    );
    let stdout = child.0.stdout.as_mut().expect("child stdout is piped");
    // Read byte by byte so nothing past the greeting is buffered here.
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    while line.last() != Some(&b'\n') {
        if stdout.read(&mut byte)? == 0 {
            return Err(std::io::Error::other(
                "the figures child exited before it was ready",
            ));
        }
        line.push(byte[0]);
    }
    let ready = started.elapsed().as_secs_f64();
    tracer.finish(open, "bench.service:SweepService::new", 0, 0, 1);
    if line != b"ready\n" {
        return Err(std::io::Error::other(
            "the figures child sent an unexpected greeting",
        ));
    }
    Ok((child, ready))
}

fn send(child: &mut Reaped, command: &str) -> std::io::Result<()> {
    let stdin = child.0.stdin.as_mut().expect("child stdin is piped");
    writeln!(stdin, "{command}")?;
    stdin.flush()
}

fn read_pass(lines: &mut impl BufRead) -> std::io::Result<Pass> {
    let mut pass = Pass::default();
    let mut line = String::new();
    loop {
        line.clear();
        if lines.read_line(&mut line)? == 0 {
            return Err(std::io::Error::other("the figures child exited mid-pass"));
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["target", name, seconds, ok] => pass.targets.push((
                (*name).to_owned(),
                seconds.parse().unwrap_or(f64::NAN),
                *ok == "ok",
            )),
            ["cache", hits, misses, disk] => {
                pass.cache = [hits, misses, disk].map(|v| v.parse().unwrap_or(0));
            }
            ["done"] => return Ok(pass),
            _ => {
                return Err(std::io::Error::other(format!(
                    "unexpected line from the figures child: {line:?}"
                )))
            }
        }
    }
}

/// The child process: builds the service, reports ready, runs every
/// target on each `go`, and exits when its stdin closes or on any other
/// line.
pub fn child_main(args: &[String]) -> ExitCode {
    let [master, jobs, out] = args else {
        eprintln!("usage: perfbench figures-child <master seed> <jobs> <out dir>");
        return ExitCode::FAILURE;
    };
    let (Ok(master), Ok(jobs)) = (master.parse::<u64>(), jobs.parse::<usize>()) else {
        eprintln!("figures-child: the seed and jobs must be numbers");
        return ExitCode::FAILURE;
    };
    let opts = ReproOptions {
        seed: master,
        jobs,
        results_dir: PathBuf::from(out),
        disk_cache: false,
        ..ReproOptions::quick()
    };
    // The same wiring as the `repro` binary.
    fairness_stats::mc::set_global_threads(opts.jobs);
    let service = SweepService::new(opts);
    let stdout = std::io::stdout();
    let say = |text: &str| {
        let mut lock = stdout.lock();
        let _ = writeln!(lock, "{text}");
        let _ = lock.flush();
    };
    say("ready");
    // Every `go` runs every target once on the same service, so a second
    // pass finds its ensembles in the sweep cache. Any other line, or the
    // end of stdin, ends the child.
    let mut command = String::new();
    while std::io::stdin().read_line(&mut command).is_ok() && command.trim() == "go" {
        for outcome in service.run_targets(registry()) {
            let ok = if outcome.report.is_ok() {
                "ok"
            } else {
                "error"
            };
            say(&format!("target {} {} {ok}", outcome.name, outcome.seconds));
        }
        let cache = service.cache();
        say(&format!(
            "cache {} {} {}",
            cache.hits(),
            cache.misses(),
            cache.disk_hits()
        ));
        say("done");
        command.clear();
    }
    ExitCode::SUCCESS
}
