//! The traced run's per-layer probes: each calls one layer's public
//! function on the configurations the workloads run, inside a span whose
//! work count (steps, draws, trials) turns its duration into a rate.
//! Probes run after the workload, so they never perturb its timings.

use crate::report::Report;
use crate::stats::{median, median_ci95};
use crate::trace::Tracer;
use crate::Ctx;
use chain_sim::{run_experiment, ExperimentConfig, HashBuilder, ProtocolKind};
use fairness_core::adversary::SelfishMining;
use fairness_core::game::MiningGame;
use fairness_core::ledger::{AggregatedTailGame, TailKernel};
use fairness_core::mdp::fork::ForkMdp;
use fairness_core::mdp::solver::ValueIteration;
use fairness_core::miner::{paper_multi_miner, two_miner};
use fairness_core::protocol::IncentiveProtocol;
use fairness_core::protocols::{CPos, FslPos, MlPos, Pow, SlPos};
use fairness_core::registry::construct;
use fairness_core::scenario::text::parse_scenarios;
use fairness_core::scenario::ProtocolSpec;
use fairness_stats::rng::Xoshiro256StarStar;
use fairness_stats::sampling::FenwickSampler;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Steps per engine span: the order of the figures' horizons.
const STEPS: u64 = 2048;
const DRAWS: u64 = 4096;
const ENGINE_BUDGET: Duration = Duration::from_millis(300);
const KERNEL_BUDGET: Duration = Duration::from_millis(150);
/// The paper's default attacker share and reward, as in the figures.
const A: f64 = 0.2;
const W: f64 = 0.01;
/// The `optimal` target's (α, γ) grid; depth follows `--quick`.
const MDP_ALPHAS: [f64; 8] = [0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45];
const MDP_GAMMAS: [f64; 3] = [0.0, 0.5, 1.0];
const TARGETS: [&str; 13] = [
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "table1",
    "scale",
    "ablations",
    "extensions",
    "adversarial",
    "redistribution",
    "optimal",
];

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn per_layer_names() -> Vec<(String, String)> {
    let mut names: Vec<(String, &str)> = [
        "engine.sl-pos.m2",
        "engine.sl-pos.m10",
        "engine.ml-pos.m10",
        "engine.c-pos.m10",
        "engine.pow.m10",
        "engine.fsl-pos.m2",
        "engine.sl-pos-boxed.m2",
    ]
    .iter()
    .map(|e| (format!("{e}.ns_per_step"), "ns"))
    .collect();
    for (name, unit) in [
        ("engine.sl-pos-boxed.m2.ratio", "ratio"),
        ("engine.sl-pos-boxed.m2.ratio_lo", "ratio"),
        ("engine.sl-pos-boxed.m2.ratio_hi", "ratio"),
        ("sampler.fenwick.m10.ns_per_draw", "ns"),
        ("sampler.fenwick.m40.ns_per_draw", "ns"),
        ("ledger.tail.ns_per_step", "ns"),
        ("mdp.solve_ms", "ms"),
        ("mdp.sweeps", "count"),
        ("mdp.rounds", "count"),
        ("chain.hash_trial_ns", "ns"),
        ("chain.system_run_ms", "ms"),
        ("chain.ticks", "count"),
        ("scenario.parse_us", "us"),
        ("registry.construct_us", "us"),
        ("cache.hits", "count"),
        ("cache.misses", "count"),
        ("cache.disk_hits", "count"),
        ("cache.hit_ratio", "ratio"),
        ("spill.bytes", "bytes"),
        ("spill.entries", "count"),
    ] {
        names.push((name.to_owned(), unit));
    }
    names.extend(TARGETS.iter().map(|t| (format!("target.{t}.s"), "s")));
    for (name, unit) in [
        ("sched.cpu_s", "s"),
        ("sched.cpu_util", "ratio"),
        ("sched.threads_max", "count"),
        ("service.queue_wait_ms", "ms"),
        ("service.run_ms", "ms"),
        ("service.deduped", "count"),
        ("http.first_event_ms", "ms"),
        ("trace.wall_s", "s"),
        ("trace.overhead_pct", "%"),
    ] {
        names.push((name.to_owned(), unit));
    }
    names.into_iter().map(|(n, u)| (n, u.to_owned())).collect()
}

/// Runs every probe and sets the per-layer metrics the workload itself
/// did not produce.
pub fn run(ctx: &Ctx, report: &mut Report, tracer: &Tracer, workload_s: f64) {
    report.set("trace.wall_s", workload_s, "s");
    // The wall time tracing adds: the spans the workload recorded times the
    // measured cost of recording one. A difference against untraced runs
    // would mostly measure the host's drift between the runs.
    let spans = tracer.len();
    let overhead_pct = spans as f64 * span_cost_s() / workload_s * 100.0;
    report.note(format!(
        "trace: {spans} spans recorded; overhead estimated from their measured recording cost"
    ));
    report.set("trace.overhead_pct", overhead_pct, "%");
    let mut rng = Xoshiro256StarStar::new(ctx.seed);
    engines(report, tracer, &mut rng);
    kernels(report, tracer, &mut rng);
    mdp(report, tracer);
    chain(report, tracer, &mut rng);
    scenarios(ctx, report, tracer);
}

/// Seconds to open and close one span, on a tracer of its own.
fn span_cost_s() -> f64 {
    const N: u32 = 10_000;
    let scratch = Tracer::new(true);
    let started = Instant::now();
    for _ in 0..N {
        let open = scratch.start();
        scratch.finish(open, "serve.http:POST /v1/scenarios", 0, 0, 1);
    }
    started.elapsed().as_secs_f64() / f64::from(N)
}

/// Median nanoseconds per unit of work over every span named `name`.
fn rate(tracer: &Tracer, name: &str) -> f64 {
    let per_unit: Vec<f64> = tracer
        .named(name)
        .iter()
        .map(|s| s.nanos() as f64 / s.work.max(1) as f64)
        .collect();
    median(&per_unit)
}

fn game_span<P: IncentiveProtocol + Clone>(
    tracer: &Tracer,
    name: &str,
    protocol: &P,
    shares: &[f64],
    rng: &mut Xoshiro256StarStar,
) -> f64 {
    let mut game = MiningGame::new(protocol.clone(), shares);
    let open = tracer.start();
    let started = Instant::now();
    game.run(STEPS, rng);
    let nanos = started.elapsed().as_nanos() as f64;
    tracer.finish(open, name, 0, 0, STEPS);
    black_box(game.steps());
    nanos
}

fn engine<P: IncentiveProtocol + Clone>(
    tracer: &Tracer,
    name: &str,
    protocol: &P,
    shares: &[f64],
    rng: &mut Xoshiro256StarStar,
) {
    let started = Instant::now();
    while started.elapsed() < ENGINE_BUDGET {
        game_span(tracer, name, protocol, shares, rng);
    }
}

fn engines(report: &mut Report, tracer: &Tracer, rng: &mut Xoshiro256StarStar) {
    let two = two_miner(A);
    let ten = paper_multi_miner(10, A);
    engine(tracer, "engine.sl-pos.m10", &SlPos::new(W), &ten, rng);
    engine(tracer, "engine.ml-pos.m10", &MlPos::new(W), &ten, rng);
    engine(tracer, "engine.c-pos.m10", &CPos::new(W, 0.1, 1), &ten, rng);
    engine(tracer, "engine.pow.m10", &Pow::new(&ten, W), &ten, rng);
    engine(tracer, "engine.fsl-pos.m2", &FslPos::new(W), &two, rng);

    // The registry's type-erased SL-PoS against the concrete type, in
    // alternating pairs so drift in the host's speed hits both alike.
    let boxed = construct(&ProtocolSpec::new("sl-pos").with("w", W), &two)
        .expect("the registry constructs sl-pos");
    let concrete = SlPos::new(W);
    let mut ratios = Vec::new();
    let started = Instant::now();
    while started.elapsed() < ENGINE_BUDGET * 2 {
        let c = game_span(tracer, "engine.sl-pos.m2", &concrete, &two, rng);
        let b = game_span(tracer, "engine.sl-pos-boxed.m2", &boxed, &two, rng);
        ratios.push(b / c);
    }
    for name in [
        "engine.sl-pos.m2",
        "engine.sl-pos.m10",
        "engine.ml-pos.m10",
        "engine.c-pos.m10",
        "engine.pow.m10",
        "engine.fsl-pos.m2",
        "engine.sl-pos-boxed.m2",
    ] {
        report.set(&format!("{name}.ns_per_step"), rate(tracer, name), "ns");
    }
    let (lo, hi) = median_ci95(&ratios);
    report.set("engine.sl-pos-boxed.m2.ratio", median(&ratios), "ratio");
    report.set("engine.sl-pos-boxed.m2.ratio_lo", lo, "ratio");
    report.set("engine.sl-pos-boxed.m2.ratio_hi", hi, "ratio");
    report.note(format!(
        "engines: boxed / concrete SL-PoS m=2 time per step, median of {} paired samples {:.4}, \
         95% interval [{lo:.4}, {hi:.4}]",
        ratios.len(),
        median(&ratios)
    ));
}

fn kernels(report: &mut Report, tracer: &Tracer, rng: &mut Xoshiro256StarStar) {
    for m in [10usize, 40] {
        let name = format!("sampler.fenwick.m{m}");
        let sampler = FenwickSampler::new(&paper_multi_miner(m, A));
        let started = Instant::now();
        while started.elapsed() < KERNEL_BUDGET {
            let open = tracer.start();
            let mut acc = 0usize;
            for _ in 0..DRAWS {
                acc = acc.wrapping_add(sampler.sample(rng));
            }
            tracer.finish(open, &name, 0, 0, DRAWS);
            black_box(acc);
        }
        report.set(&format!("{name}.ns_per_draw"), rate(tracer, &name), "ns");
    }

    // The `scale` target's folded tail at its largest miner count.
    let started = Instant::now();
    while started.elapsed() < KERNEL_BUDGET {
        let mut game = AggregatedTailGame::new(TailKernel::SlPosRace, A, 999_999, W);
        let open = tracer.start();
        game.run(STEPS, rng);
        tracer.finish(open, "ledger.tail", 0, 0, STEPS);
        black_box(game.lambda_a());
    }
    report.set("ledger.tail.ns_per_step", rate(tracer, "ledger.tail"), "ns");

    let prev = HashBuilder::new("bench-prev").u64(1).finish();
    let pubkey = HashBuilder::new("bench-pk").u64(2).finish();
    let midstate = HashBuilder::new("pow-trial")
        .hash(&prev)
        .hash(&pubkey)
        .midstate();
    let mut nonce = 0u64;
    let started = Instant::now();
    while started.elapsed() < KERNEL_BUDGET {
        let open = tracer.start();
        for _ in 0..DRAWS {
            nonce = nonce.wrapping_add(1);
            black_box(midstate.finish_u64(nonce));
        }
        tracer.finish(open, "chain.hash_trial", 0, 0, DRAWS);
    }
    report.set(
        "chain.hash_trial_ns",
        rate(tracer, "chain.hash_trial"),
        "ns",
    );
}

/// Builds and solves the fork MDP on the `optimal` target's grid, the way
/// `solve_optimal` does but without its process-wide cache.
fn mdp(report: &mut Report, tracer: &Tracer) {
    let depth =
        fairness_bench::experiments::mdp_depth(fairness_bench::ReproOptions::quick().repetitions);
    let (mut nanos, mut rounds, mut sweeps) = (0u64, 0u64, 0u64);
    for gamma in MDP_GAMMAS {
        for alpha in MDP_ALPHAS {
            let open = tracer.start();
            let started = Instant::now();
            let mdp = ForkMdp::new(alpha, gamma, depth);
            let baseline = mdp.evaluate(&mdp.induced_policy(&SelfishMining::new(gamma)));
            let (_, value, r, _) =
                mdp.optimize(baseline.revenue.max(alpha.min(1.0 - f64::EPSILON)));
            nanos += started.elapsed().as_nanos() as u64;
            tracer.finish(open, "core.mdp:solve", 0, 0, u64::from(r));
            rounds += u64::from(r);
            // Sweeps of one inner solve at the optimum: the work per
            // Dinkelbach round, which `optimize` does not report.
            let mut v = Vec::new();
            sweeps += u64::from(
                ValueIteration::default()
                    .solve(mdp.mdp(), [1.0, -value.revenue], &mut v)
                    .sweeps,
            );
        }
    }
    report.set("mdp.solve_ms", nanos as f64 / 1e6, "ms");
    report.set("mdp.rounds", rounds as f64, "count");
    report.set("mdp.sweeps", sweeps as f64, "count");
    report.note(format!(
        "mdp: {} grid points at depth {depth}, solved without the solve cache",
        MDP_ALPHAS.len() * MDP_GAMMAS.len()
    ));
}

/// Runs the three hash-level overlays of Figure 2 (a = 0.2, w = 0.01,
/// 1500 blocks) a few times; reports the median time of one set.
fn chain(report: &mut Report, tracer: &Tracer, rng: &mut Xoshiro256StarStar) {
    const ROUNDS: usize = 5;
    let mut sets = Vec::with_capacity(ROUNDS);
    let mut ticks = 0;
    for round in 0..ROUNDS {
        let mut nanos = 0u128;
        for kind in [ProtocolKind::Pow, ProtocolKind::MlPos, ProtocolKind::SlPos] {
            let config = ExperimentConfig::two_miner(kind, A, W, 1500);
            let open = tracer.start();
            let started = Instant::now();
            let outcome = run_experiment(&config, rng);
            nanos += started.elapsed().as_nanos();
            tracer.finish(
                open,
                "chain_sim:run_experiment",
                0,
                round as u64,
                outcome.total_ticks,
            );
            if round == 0 {
                ticks += outcome.total_ticks;
            }
        }
        sets.push(nanos as f64 / 1e6);
    }
    report.set("chain.system_run_ms", median(&sets), "ms");
    report.set("chain.ticks", ticks as f64, "count");
}

/// Parses the seed's serve-mix batches and constructs their protocols.
fn scenarios(ctx: &Ctx, report: &mut Report, tracer: &Tracer) {
    let universe = crate::serve_mix::universe();
    let mut rng = crate::util::SplitMix::new(ctx.seed);
    let (mut parse, mut build) = (Vec::new(), Vec::new());
    for _ in 0..200 {
        let k = 1 + rng.below(3);
        let text: String = (0..k)
            .map(|_| universe[rng.below(universe.len())].text.as_str())
            .collect();
        let open = tracer.start();
        let started = Instant::now();
        let specs = parse_scenarios(&text).expect("generated scenarios parse");
        parse.push(started.elapsed().as_secs_f64() * 1e6);
        tracer.finish(
            open,
            "core.scenario:parse_scenarios",
            0,
            0,
            text.len() as u64,
        );
        let open = tracer.start();
        let started = Instant::now();
        for spec in &specs {
            black_box(
                construct(&spec.protocol, &spec.initial_shares())
                    .expect("generated protocols construct"),
            );
        }
        build.push(started.elapsed().as_secs_f64() * 1e6);
        tracer.finish(open, "core.registry:construct", 0, 0, specs.len() as u64);
    }
    report.set("scenario.parse_us", median(&parse), "us");
    report.set("registry.construct_us", median(&build), "us");
}
