//! `perfbench record`: regenerates the golden manifests under
//! `perfbench/golden/` from the current checkout. Run it only on the
//! commit whose outputs are the reference; the benchmark then fails any
//! later commit whose CSV bytes differ.

use crate::figures::MASTER_SEEDS;
use crate::util::{digest_csvs, render_manifest};
use fairness_bench::experiments::{registry, SweepService};
use fairness_bench::ReproOptions;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

pub fn main() -> ExitCode {
    match record(
        Path::new("perfbench/golden"),
        Path::new(".bench_work/record"),
    ) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench record: {e}");
            ExitCode::FAILURE
        }
    }
}

fn fresh_dir(dir: PathBuf) -> std::io::Result<PathBuf> {
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn record(golden: &Path, scratch: &Path) -> std::io::Result<()> {
    // The figures run at `jobs = 1`, as the benchmark's child does.
    fairness_stats::mc::set_global_threads(1);
    for master in MASTER_SEEDS {
        let out = fresh_dir(scratch.join(format!("figures-{master:08x}")))?;
        let service = SweepService::new(ReproOptions {
            seed: master,
            jobs: 1,
            results_dir: out.clone(),
            disk_cache: false,
            ..ReproOptions::quick()
        });
        for outcome in service.run_targets(registry()) {
            outcome.report?;
        }
        let manifest = render_manifest(&digest_csvs(&out)?);
        std::fs::write(
            golden.join(format!("figures-{master:08x}.sha256")),
            manifest,
        )?;
        eprintln!("recorded figures at master seed {master:#x}");
    }

    // The daemon's settings: `--quick --jobs 2`, the default master seed.
    fairness_stats::mc::set_global_threads(2);
    let out = fresh_dir(scratch.join("serve-universe"))?;
    let service = SweepService::new(ReproOptions {
        jobs: 2,
        results_dir: out.clone(),
        disk_cache: false,
        ..ReproOptions::quick()
    });
    let text: String = crate::serve_mix::universe()
        .into_iter()
        .map(|s| s.text)
        .collect();
    let specs = fairness_core::scenario::text::parse_scenarios(&text)
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    service
        .run_report(&specs)
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    let manifest = render_manifest(&digest_csvs(&out)?);
    std::fs::write(golden.join("serve-universe.sha256"), manifest)?;
    eprintln!("recorded {} universe scenarios", specs.len());
    Ok(())
}
