//! Criterion benchmarks: the simulation hot paths this workspace's
//! wall-clock lives in — per-step game stepping for every base protocol,
//! weighted sampling (Fenwick vs linear scan), sha256 nonce grinding
//! (midstate vs full rebuild), and whole SL-PoS ensembles on the SIMD lane
//! kernel vs one repetition at a time.
//!
//! CI runs these in smoke mode (one pass each) so the benches cannot rot;
//! locally, `cargo bench --bench hotpath` prints ns/iter per target.

use chain_sim::{Hash256, HashBuilder};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fairness_core::game::MiningGame;
use fairness_core::miner::{paper_multi_miner, sample_categorical, two_miner};
use fairness_core::prelude::*;
use fairness_core::registry::{construct, BoxedProtocol};
use fairness_core::scenario::ProtocolSpec;
use fairness_stats::rng::Xoshiro256StarStar;
use fairness_stats::sampling::FenwickSampler;

/// Steps a game `iters_per_call` times per bench iteration, so the
/// per-iteration figure reads as nanoseconds per `iters_per_call` steps.
fn bench_game<P: fairness_core::protocol::IncentiveProtocol + Clone + 'static>(
    c: &mut Criterion,
    name: &str,
    protocol: P,
    shares: &[f64],
) {
    let mut group = c.benchmark_group("step");
    let mut game = MiningGame::new(protocol, shares);
    let mut rng = Xoshiro256StarStar::new(7);
    game.run(64, &mut rng); // warm scratch pools
    group.bench_function(BenchmarkId::new(name, shares.len()), |b| {
        b.iter(|| {
            game.run(64, &mut rng);
            black_box(game.steps())
        });
    });
    group.finish();
}

fn bench_steps(c: &mut Criterion) {
    let two = two_miner(0.2);
    let ten = paper_multi_miner(10, 0.2);
    bench_game(c, "sl-pos", SlPos::new(0.01), &two);
    bench_game(c, "sl-pos", SlPos::new(0.01), &ten);
    bench_game(c, "ml-pos", MlPos::new(0.01), &two);
    bench_game(c, "ml-pos", MlPos::new(0.01), &ten);
    bench_game(c, "fsl-pos", FslPos::new(0.01), &two);
    bench_game(c, "pow", Pow::new(&ten, 0.01), &ten);
    bench_game(c, "neo", Neo::new(&ten, 0.01), &ten);
    bench_game(c, "c-pos", CPos::new(0.01, 0.1, 1), &ten);
    // The two step kernels behind `fairness-serve`'s fresh jobs: a
    // single-shard C-PoS epoch and the selfish-mining adapter over PoW.
    bench_game(c, "c-pos", CPos::new(0.01, 0.1, 1), &two);
    bench_game(
        c,
        "selfish-mining-pow",
        Adversary::new(Pow::new(&two, 0.01), SelfishMining::new(0.5)),
        &two,
    );
    bench_game(c, "algorand", Algorand::new(0.1), &ten);
    bench_game(c, "eos", Eos::new(0.01, 0.1), &ten);
    // The registry path every figure actually takes: a type-erased box
    // around the hottest protocol. The inline fast path should keep this
    // within noise of the concrete version above.
    let boxed: BoxedProtocol =
        construct(&ProtocolSpec::new("sl-pos").with("w", 0.01), &two).expect("constructs");
    bench_game(c, "sl-pos-boxed", boxed, &two);
}

fn bench_layers(c: &mut Criterion) {
    let mut group = c.benchmark_group("layers");
    let stakes = vec![0.2f64, 0.8];
    let mut rng = Xoshiro256StarStar::new(3);
    group.bench_function("sample_winner_x64", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for _ in 0..64 {
                acc += SlPos::sample_winner(black_box(&stakes), &mut rng);
            }
            black_box(acc)
        });
    });
    let mut rng3 = Xoshiro256StarStar::new(3);
    let mut st3 = [0.2f64, 0.8];
    let mut earned3 = [0.0f64, 0.0];
    let mut out3 = fairness_core::protocol::StepOutcome::new();
    let sl = SlPos::new(0.01);
    group.bench_function("step_into_plus_apply_x64", |b| {
        use fairness_core::protocol::{IncentiveProtocol, StepRewardsView};
        b.iter(|| {
            for _ in 0..64 {
                sl.step_into(&st3, 0, &mut rng3, &mut out3);
                if let StepRewardsView::Winner(w) = out3.view() {
                    earned3[w] += 0.01;
                    st3[w] += 0.01;
                }
            }
            black_box(st3[0])
        });
    });
    let mut rng4 = Xoshiro256StarStar::new(3);
    let mut st4 = [0.2f64, 0.8];
    let mut earned4 = [0.0f64, 0.0];
    group.bench_function("sample_winner_feedback_x64", |b| {
        b.iter(|| {
            for _ in 0..64 {
                let w = SlPos::sample_winner(&st4, &mut rng4);
                earned4[w] += 0.01;
                st4[w] += 0.01;
            }
            black_box(st4[0])
        });
    });
    let mut rng2 = Xoshiro256StarStar::new(3);
    let mut st = [0.2f64, 0.8];
    group.bench_function("raw_core_x64", |b| {
        b.iter(|| {
            for _ in 0..64 {
                let ta = rng2.next_f64() / st[0];
                let tb = rng2.next_f64() / st[1];
                let w = usize::from(tb < ta);
                st[w] += 0.01;
            }
            black_box(st[0])
        });
    });
    group.finish();
}

/// Repetition-steps per `ensemble` iteration: 64 repetitions (a whole
/// number of lane blocks at every width) of 15 625 blocks each, so the
/// printed ns/iter divided by 10⁶ reads as ns/step/rep.
const ENSEMBLE_REP_STEPS: u64 = 1_000_000;

/// One serial SL-PoS ensemble per iteration, on every lane kernel this
/// CPU runs and on the per-repetition path (which, at m = 2, is the fused
/// two-miner kernel).
fn bench_ensembles(c: &mut Criterion) {
    use fairness_core::montecarlo::{run_ensemble_with_width, LaneWidth};
    fairness_stats::mc::set_global_threads(1);
    let mut group = c.benchmark_group("ensemble");
    group.throughput(Throughput::Elements(ENSEMBLE_REP_STEPS));
    let reps = 64;
    let steps = ENSEMBLE_REP_STEPS / reps as u64;
    for m in [2usize, 10] {
        let config = EnsembleConfig {
            initial_shares: paper_multi_miner(m, 0.2),
            checkpoints: vec![steps],
            repetitions: reps,
            seed: 7,
            eps_delta: EpsilonDelta::default(),
            withholding: None,
        };
        for width in LaneWidth::supported() {
            let path = match width {
                LaneWidth::PerRepetition => "sl-pos-per-rep",
                LaneWidth::Avx2 => "sl-pos-lanes-avx2",
                LaneWidth::Avx512 => "sl-pos-lanes-avx512",
            };
            group.bench_function(BenchmarkId::new(path, m), |b| {
                b.iter(|| black_box(run_ensemble_with_width(&SlPos::new(0.01), &config, width)));
            });
        }
    }
    group.finish();
    fairness_stats::mc::set_global_threads(0);
}

fn bench_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("sample");
    for m in [2usize, 10, 40] {
        let weights: Vec<f64> = (0..m).map(|i| 1.0 + (i % 7) as f64).collect();
        let sampler = FenwickSampler::new(&weights);
        let mut rng = Xoshiro256StarStar::new(11);
        group.bench_with_input(BenchmarkId::new("fenwick", m), &m, |b, _| {
            b.iter(|| black_box(sampler.sample(&mut rng)));
        });
        let mut rng = Xoshiro256StarStar::new(11);
        group.bench_with_input(BenchmarkId::new("linear", m), &m, |b, _| {
            b.iter(|| black_box(sample_categorical(black_box(&weights), &mut rng)));
        });
    }
    group.finish();
}

fn bench_grind(c: &mut Criterion) {
    let mut group = c.benchmark_group("grind");
    let prev = HashBuilder::new("bench-prev").u64(1).finish();
    let pubkey = HashBuilder::new("bench-pk").u64(2).finish();
    group.bench_function("trial_full_rebuild", |b| {
        let mut nonce = 0u64;
        b.iter(|| {
            nonce = nonce.wrapping_add(1);
            black_box(full_trial(&prev, &pubkey, nonce))
        });
    });
    group.bench_function("trial_midstate", |b| {
        let midstate = HashBuilder::new("pow-trial")
            .hash(&prev)
            .hash(&pubkey)
            .midstate();
        let mut nonce = 0u64;
        b.iter(|| {
            nonce = nonce.wrapping_add(1);
            black_box(midstate.finish_u64(nonce))
        });
    });
    group.finish();
}

fn full_trial(prev: &Hash256, pubkey: &Hash256, nonce: u64) -> Hash256 {
    HashBuilder::new("pow-trial")
        .hash(prev)
        .hash(pubkey)
        .u64(nonce)
        .finish()
}

criterion_group!(
    benches,
    bench_steps,
    bench_layers,
    bench_ensembles,
    bench_sampling,
    bench_grind
);
criterion_main!(benches);
