//! Monte-Carlo ensembles over mining games.
//!
//! Reproduces the paper's experimental pipeline (Section 5.1): repeat each
//! game 10,000 times (simulation) from independent seeds, then per
//! checkpoint report the sample mean (orange line), the 5th/95th
//! percentiles (blue band) and the unfair probability
//! `Pr[λ_A ∉ [(1−ε)a, (1+ε)a]]` (Figures 3 and 5), plus the convergence
//! time to `(ε, δ)`-fairness (Table 1).

use crate::fairness::{unfair_probability, EpsilonDelta};
use crate::game::MiningGame;
use crate::protocol::IncentiveProtocol;
use crate::withholding::WithholdingSchedule;
use fairness_stats::mc::{run_monte_carlo, run_monte_carlo_lanes, McConfig};
use fairness_stats::summary::FiveNumber;
use serde::{Deserialize, Serialize};

mod lanes;

pub use lanes::LaneWidth;

/// Band statistics at one checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BandPoint {
    /// The checkpoint (number of blocks/epochs).
    pub n: u64,
    /// Sample mean of `λ_A`.
    pub mean: f64,
    /// 5th percentile.
    pub p05: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Empirical unfair probability under the configured `(ε, δ)`.
    pub unfair_probability: f64,
}

/// Summary of a Monte-Carlo ensemble.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnsembleSummary {
    /// Protocol name.
    pub protocol: String,
    /// Miner A's initial share.
    pub share: f64,
    /// Number of repetitions.
    pub repetitions: usize,
    /// Band statistics per checkpoint.
    pub points: Vec<BandPoint>,
}

impl EnsembleSummary {
    /// The band point at the final checkpoint.
    ///
    /// # Panics
    /// Panics if the summary has no checkpoints.
    #[must_use]
    pub fn final_point(&self) -> BandPoint {
        *self.points.last().expect("non-empty summary")
    }

    /// First checkpoint at which the unfair probability drops to ≤ δ *and
    /// stays there* for all later checkpoints — the paper's convergence
    /// time ("Cvg. Time" in Table 1). `None` means fairness was never
    /// durably reached ("Never").
    #[must_use]
    pub fn convergence_time(&self, eps_delta: EpsilonDelta) -> Option<u64> {
        let mut candidate: Option<u64> = None;
        for p in &self.points {
            if p.unfair_probability <= eps_delta.delta {
                candidate.get_or_insert(p.n);
            } else {
                candidate = None;
            }
        }
        candidate
    }
}

/// Configuration of an ensemble run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnsembleConfig {
    /// Initial shares (miner 0 is the tracked miner A).
    pub initial_shares: Vec<f64>,
    /// Checkpoints at which statistics are recorded (strictly ascending).
    pub checkpoints: Vec<u64>,
    /// Number of repetitions (the paper uses 10,000 for simulations).
    pub repetitions: usize,
    /// Master seed.
    pub seed: u64,
    /// `(ε, δ)` used for unfair-probability evaluation.
    pub eps_delta: EpsilonDelta,
    /// Optional reward-withholding schedule.
    pub withholding: Option<WithholdingSchedule>,
}

impl EnsembleConfig {
    /// Paper-style configuration: two miners `a / 1−a`, ten linear
    /// checkpoints to `horizon`, default `(ε, δ) = (0.1, 0.1)`.
    #[must_use]
    pub fn paper_default(a: f64, horizon: u64, repetitions: usize, seed: u64) -> Self {
        Self {
            initial_shares: crate::miner::two_miner(a),
            checkpoints: crate::trajectory::linear_checkpoints(horizon, 10),
            repetitions,
            seed,
            eps_delta: EpsilonDelta::default(),
            withholding: None,
        }
    }
}

/// Runs the ensemble: `repetitions` independent games of `protocol`,
/// summarized per checkpoint.
///
/// Repetition `i` draws from its own stream (`SeedSequence::child_rng(i)`
/// of the master seed) and repetitions run in parallel, so results are
/// reproducible regardless of thread count. One of two paths runs them,
/// with identical output bytes:
///
/// * **Lanes** — when the protocol is a bare SL-PoS race
///   ([`IncentiveProtocol::slpos_core_reward`] is `Some`), there is no
///   withholding, and at least two miners all hold positive shares,
///   repetitions run [`LaneWidth::detected`]`().lanes()` at a time in one
///   SIMD kernel (16 on AVX-512, 8 on AVX2).
/// * **Per repetition** — everything else (and every ensemble on a CPU
///   without AVX2) clones the protocol into one [`MiningGame`] per
///   repetition.
///
/// # Panics
/// Panics on invalid configuration (no repetitions, bad checkpoints or
/// shares).
#[must_use]
pub fn run_ensemble<P>(protocol: &P, config: &EnsembleConfig) -> EnsembleSummary
where
    P: IncentiveProtocol + Clone,
{
    run_ensemble_with_width(protocol, config, LaneWidth::detected())
}

/// [`run_ensemble`] with the SL-PoS kernel width chosen by the caller
/// instead of by the CPU probe — for benchmarks and for the tests that
/// pin every width to the same bytes. Ensembles that do not qualify for
/// the lane path ignore `width`.
///
/// # Panics
/// Panics like [`run_ensemble`], and if the lane path is taken with a
/// width this CPU does not support.
#[must_use]
pub fn run_ensemble_with_width<P>(
    protocol: &P,
    config: &EnsembleConfig,
    width: LaneWidth,
) -> EnsembleSummary
where
    P: IncentiveProtocol + Clone,
{
    run_ensemble_on(protocol, config, width, 0)
}

/// [`run_ensemble_with_width`] on `threads` workers (`0` = the process
/// default).
fn run_ensemble_on<P>(
    protocol: &P,
    config: &EnsembleConfig,
    width: LaneWidth,
    threads: usize,
) -> EnsembleSummary
where
    P: IncentiveProtocol + Clone,
{
    assert!(config.repetitions > 0, "need at least one repetition");
    assert!(
        !config.checkpoints.is_empty(),
        "need at least one checkpoint"
    );
    let mc = McConfig::new(config.repetitions, config.seed).with_threads(threads);
    let trajectories = match slpos_lane_setup(protocol, config, width) {
        Some((stakes, reward)) => {
            assert!(
                config.checkpoints.windows(2).all(|w| w[0] < w[1]),
                "checkpoints must be strictly ascending"
            );
            run_monte_carlo_lanes(mc, width.lanes(), |_first, rngs, out| {
                lanes::run_block(width, &stakes, reward, &config.checkpoints, rngs, out);
            })
        }
        None => run_monte_carlo(mc, |_idx, rng| {
            let mut game = MiningGame::new(protocol.clone(), &config.initial_shares);
            if let Some(schedule) = config.withholding {
                game = game.with_withholding(schedule);
            }
            game.run_with_checkpoints(&config.checkpoints, rng).values
        }),
    };
    summarize(&protocol.label(), config, &trajectories)
}

/// The normalized stakes and block reward of an ensemble that takes the
/// SL-PoS lane path at `width`, or `None` if it must run per repetition.
fn slpos_lane_setup<P: IncentiveProtocol>(
    protocol: &P,
    config: &EnsembleConfig,
    width: LaneWidth,
) -> Option<(Vec<f64>, f64)> {
    if width == LaneWidth::PerRepetition || config.withholding.is_some() {
        return None;
    }
    let reward = protocol.slpos_core_reward()?;
    debug_assert_eq!(reward, protocol.reward_per_step());
    let stakes = crate::miner::normalize_shares(&config.initial_shares);
    (stakes.len() >= 2 && stakes.iter().all(|&s| s > 0.0)).then_some((stakes, reward))
}

/// Runs the ensemble tracking **every** miner, returning one summary per
/// miner (each evaluated against that miner's own initial share).
///
/// Costs the same simulation work as [`run_ensemble`]; only the recorded
/// statistics multiply.
///
/// # Panics
/// Panics on invalid configuration.
#[must_use]
pub fn run_ensemble_multi<P>(protocol: &P, config: &EnsembleConfig) -> Vec<EnsembleSummary>
where
    P: IncentiveProtocol + Clone,
{
    assert!(config.repetitions > 0, "need at least one repetition");
    assert!(
        !config.checkpoints.is_empty(),
        "need at least one checkpoint"
    );
    let m = config.initial_shares.len();
    let mut trajectories = run_monte_carlo(
        McConfig::new(config.repetitions, config.seed),
        |_idx, rng| {
            let mut game = MiningGame::new(protocol.clone(), &config.initial_shares);
            if let Some(schedule) = config.withholding {
                game = game.with_withholding(schedule);
            }
            game.run_with_checkpoints_all(&config.checkpoints, rng)
                .into_iter()
                .map(|t| t.values)
                .collect::<Vec<_>>()
        },
    );
    let shares = crate::miner::normalize_shares(&config.initial_shares);
    let label = protocol.label();
    let mut column = vec![0.0f64; trajectories.len()];
    (0..m)
        .map(|i| {
            // Move each repetition's miner-i trajectory out of the shared
            // buffer instead of deep-cloning it — every [rep][miner] cell
            // is consumed exactly once.
            let per_rep: Vec<Vec<f64>> = trajectories
                .iter_mut()
                .map(|reps| std::mem::take(&mut reps[i]))
                .collect();
            let mut cfg = config.clone();
            // Evaluate miner i against her own share.
            cfg.initial_shares = {
                let mut s = shares.clone();
                s.swap(0, i);
                s
            };
            let mut summary = summarize_with_scratch(&label, &cfg, &per_rep, &mut column);
            summary.share = shares[i];
            summary
        })
        .collect()
}

/// Builds an [`EnsembleSummary`] from raw per-repetition λ-trajectories
/// (also used by the chain-sim experiment harness, whose trajectories come
/// from hash-level networks rather than closed-form games).
///
/// # Panics
/// Panics if trajectories are empty or have inconsistent lengths.
#[must_use]
pub fn summarize(
    protocol_name: &str,
    config: &EnsembleConfig,
    trajectories: &[Vec<f64>],
) -> EnsembleSummary {
    let mut column = Vec::new();
    summarize_with_scratch(protocol_name, config, trajectories, &mut column)
}

/// [`summarize`] with a caller-provided column scratch buffer, so
/// summarizing many miners (or many ensembles) reuses one allocation —
/// the per-checkpoint scatter already reuses the buffer within a call.
fn summarize_with_scratch(
    protocol_name: &str,
    config: &EnsembleConfig,
    trajectories: &[Vec<f64>],
    column: &mut Vec<f64>,
) -> EnsembleSummary {
    assert!(!trajectories.is_empty(), "no trajectories to summarize");
    let k = config.checkpoints.len();
    assert!(
        trajectories.iter().all(|t| t.len() == k),
        "trajectory length mismatch"
    );
    let a = config.initial_shares[0];
    let mut points = Vec::with_capacity(k);
    column.clear();
    column.resize(trajectories.len(), 0.0);
    for (ci, &n) in config.checkpoints.iter().enumerate() {
        for (ri, t) in trajectories.iter().enumerate() {
            column[ri] = t[ci];
        }
        let summary = FiveNumber::from_samples(column);
        points.push(BandPoint {
            n,
            mean: summary.mean,
            p05: summary.p05,
            p95: summary.p95,
            unfair_probability: unfair_probability(column, a, config.eps_delta),
        });
    }
    EnsembleSummary {
        protocol: protocol_name.to_owned(),
        share: a,
        repetitions: trajectories.len(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::{CPos, MlPos, Pow, SlPos};
    use crate::withholding::WithholdingSchedule;

    #[test]
    fn pow_band_contracts_and_converges() {
        let config = EnsembleConfig {
            checkpoints: vec![50, 200, 1000, 3000],
            ..EnsembleConfig::paper_default(0.2, 3000, 2000, 42)
        };
        let summary = run_ensemble(&Pow::new(&[0.2, 0.8], 0.01), &config);
        // Expectational fairness at every checkpoint.
        for p in &summary.points {
            assert!((p.mean - 0.2).abs() < 0.01, "n={}: mean {}", p.n, p.mean);
        }
        // Band shrinks monotonically (up to noise).
        let first = &summary.points[0];
        let last = summary.final_point();
        assert!(last.p95 - last.p05 < first.p95 - first.p05);
        // Robust fairness reached by n=3000 (theory: ~1100 empirically).
        assert!(last.unfair_probability < 0.1, "{}", last.unfair_probability);
        let cvg = summary.convergence_time(EpsilonDelta::default());
        assert!(cvg.is_some_and(|n| n <= 3000), "{cvg:?}");
    }

    #[test]
    fn mlpos_plateaus_above_delta() {
        // Figure 3(b): with w=0.01 the unfair probability converges to a
        // constant above δ=0.1 — robust fairness never achieved.
        let config = EnsembleConfig {
            checkpoints: vec![500, 2000, 5000],
            ..EnsembleConfig::paper_default(0.2, 5000, 2000, 43)
        };
        let summary = run_ensemble(&MlPos::new(0.01), &config);
        let last = summary.final_point();
        assert!((last.mean - 0.2).abs() < 0.01, "mean {}", last.mean);
        assert!(
            last.unfair_probability > 0.1,
            "ML-PoS should stay unfair: {}",
            last.unfair_probability
        );
        assert_eq!(summary.convergence_time(EpsilonDelta::default()), None);
    }

    #[test]
    fn slpos_mean_decays_and_unfairness_saturates() {
        let config = EnsembleConfig {
            checkpoints: vec![1000, 5000, 20000],
            ..EnsembleConfig::paper_default(0.2, 20000, 400, 44)
        };
        let summary = run_ensemble(&SlPos::new(0.01), &config);
        let last = summary.final_point();
        assert!(last.mean < 0.05, "SL-PoS mean should decay: {}", last.mean);
        assert!(
            last.unfair_probability > 0.95,
            "{}",
            last.unfair_probability
        );
    }

    #[test]
    fn cpos_converges_fast() {
        let config = EnsembleConfig {
            checkpoints: vec![50, 150, 500],
            ..EnsembleConfig::paper_default(0.2, 500, 2000, 45)
        };
        let summary = run_ensemble(&CPos::paper_default(), &config);
        let last = summary.final_point();
        assert!((last.mean - 0.2).abs() < 0.005, "mean {}", last.mean);
        assert!(last.unfair_probability < 0.1, "{}", last.unfair_probability);
        let cvg = summary.convergence_time(EpsilonDelta::default());
        assert!(cvg.is_some_and(|n| n <= 500), "{cvg:?}");
    }

    #[test]
    fn multi_miner_ensemble_consistent() {
        let shares = vec![0.2, 0.3, 0.5];
        let config = EnsembleConfig {
            initial_shares: shares.clone(),
            checkpoints: vec![100, 400],
            repetitions: 800,
            seed: 46,
            eps_delta: EpsilonDelta::default(),
            withholding: None,
        };
        let summaries = run_ensemble_multi(&MlPos::new(0.01), &config);
        assert_eq!(summaries.len(), 3);
        // Means per checkpoint sum to 1 and match the shares.
        for ci in 0..2 {
            let total: f64 = summaries.iter().map(|s| s.points[ci].mean).sum();
            assert!((total - 1.0).abs() < 1e-9, "{total}");
        }
        for (s, &a) in summaries.iter().zip(&shares) {
            assert_eq!(s.share, a);
            assert!(
                (s.final_point().mean - a).abs() < 0.02,
                "{}",
                s.final_point().mean
            );
        }
        // Miner 0's summary agrees with the single-miner path on the same
        // seed.
        let single = run_ensemble(&MlPos::new(0.01), &config);
        assert_eq!(summaries[0].points, single.points);
    }

    #[test]
    fn ensembles_reproducible() {
        let config = EnsembleConfig {
            checkpoints: vec![100],
            ..EnsembleConfig::paper_default(0.3, 100, 50, 7)
        };
        let a = run_ensemble(&MlPos::new(0.01), &config);
        let b = run_ensemble(&MlPos::new(0.01), &config);
        assert_eq!(a, b);
    }

    #[test]
    fn convergence_requires_staying_fair() {
        // A summary that dips under δ then rises again must not "converge"
        // at the dip.
        let mk = |unfair: &[f64]| EnsembleSummary {
            protocol: "x".into(),
            share: 0.2,
            repetitions: 1,
            points: unfair
                .iter()
                .enumerate()
                .map(|(i, &u)| BandPoint {
                    n: (i as u64 + 1) * 100,
                    mean: 0.2,
                    p05: 0.1,
                    p95: 0.3,
                    unfair_probability: u,
                })
                .collect(),
        };
        let ed = EpsilonDelta::default();
        assert_eq!(mk(&[0.5, 0.05, 0.5, 0.05]).convergence_time(ed), Some(400));
        assert_eq!(mk(&[0.5, 0.05, 0.04]).convergence_time(ed), Some(200));
        assert_eq!(mk(&[0.5, 0.2]).convergence_time(ed), None);
    }

    /// Runs `config` under SL-PoS at every supported width and thread
    /// count, requiring the per-repetition summary byte for byte.
    fn assert_lanes_match(protocol: &(impl IncentiveProtocol + Clone), config: &EnsembleConfig) {
        let reference = run_ensemble_with_width(protocol, config, LaneWidth::PerRepetition);
        for width in LaneWidth::supported() {
            for threads in [1, 2, 3] {
                let got = run_ensemble_on(protocol, config, width, threads);
                assert_eq!(
                    got,
                    reference,
                    "{width:?}, {threads} threads, m = {}, reps = {}",
                    config.initial_shares.len(),
                    config.repetitions
                );
            }
        }
    }

    #[test]
    fn slpos_lane_path_is_bit_identical_to_per_repetition() {
        for m in 2..=12 {
            let config = EnsembleConfig {
                initial_shares: crate::miner::paper_multi_miner(m, 0.2),
                // Checkpoint 0, gaps of one, and a long final stretch.
                checkpoints: vec![0, 1, 2, 3, 50, 51, 400 + 37 * m as u64],
                repetitions: 3 + 5 * m,
                seed: 0x51a9 + m as u64,
                eps_delta: EpsilonDelta::default(),
                withholding: None,
            };
            assert_lanes_match(&SlPos::new(0.01), &config);
        }
    }

    #[test]
    fn slpos_lane_path_handles_any_repetition_count() {
        // Fewer repetitions than lanes, exactly a block, and one past.
        for reps in [1, 2, 3, 4, 5, 7, 8, 9, 17] {
            let config = EnsembleConfig {
                initial_shares: vec![0.3, 0.5, 0.2],
                checkpoints: vec![1, 100, 2000],
                repetitions: reps,
                seed: 900 + reps as u64,
                eps_delta: EpsilonDelta::default(),
                withholding: None,
            };
            assert_lanes_match(&SlPos::new(0.02), &config);
        }
    }

    #[test]
    fn slpos_lane_path_matches_through_the_registry_box() {
        // The scenario runner hands ensembles a type-erased protocol; the
        // hook must survive the box and give the same bytes.
        let shares = crate::miner::paper_multi_miner(5, 0.2);
        let boxed = crate::registry::construct(
            &crate::scenario::ProtocolSpec::new("sl-pos").with("w", 0.01),
            &shares,
        )
        .expect("constructs");
        let config = EnsembleConfig {
            initial_shares: shares,
            checkpoints: vec![10, 1000],
            repetitions: 21,
            seed: 5,
            eps_delta: EpsilonDelta::default(),
            withholding: None,
        };
        assert_lanes_match(&boxed, &config);
        assert_eq!(
            run_ensemble(&boxed, &config),
            run_ensemble(&SlPos::new(0.01), &config)
        );
    }

    #[test]
    fn non_qualifying_ensembles_stay_per_repetition() {
        let widest = LaneWidth::detected();
        let sl = SlPos::new(0.01);
        let base = EnsembleConfig {
            checkpoints: vec![5, 200],
            ..EnsembleConfig::paper_default(0.2, 200, 9, 3)
        };
        let zero_share = EnsembleConfig {
            initial_shares: vec![0.0, 0.4, 0.6],
            ..base.clone()
        };
        let withheld = EnsembleConfig {
            withholding: Some(WithholdingSchedule::every(10)),
            ..base.clone()
        };
        let single = EnsembleConfig {
            initial_shares: vec![1.0],
            ..base.clone()
        };
        for config in [&zero_share, &withheld, &single] {
            assert_eq!(slpos_lane_setup(&sl, config, widest), None);
        }
        // Adapters do not forward the hook: cash-out over SL-PoS keeps
        // stepping its own (different) law per repetition.
        let cash_out = crate::strategies::CashOut::new(sl, 0, 0.2);
        assert_eq!(slpos_lane_setup(&cash_out, &base, widest), None);
        assert_eq!(slpos_lane_setup(&MlPos::new(0.01), &base, widest), None);
        // Forcing a width never changes what those ensembles produce.
        for config in [&zero_share, &withheld, &single, &base] {
            assert_eq!(
                run_ensemble_with_width(&cash_out, config, widest),
                run_ensemble_with_width(&cash_out, config, LaneWidth::PerRepetition)
            );
        }
        let qualifies = slpos_lane_setup(&sl, &base, widest).is_some();
        assert_eq!(qualifies, widest != LaneWidth::PerRepetition);
    }

    #[test]
    #[should_panic(expected = "at least one repetition")]
    fn zero_reps_rejected() {
        let config = EnsembleConfig {
            repetitions: 0,
            ..EnsembleConfig::paper_default(0.2, 100, 1, 1)
        };
        let _ = run_ensemble(&MlPos::new(0.01), &config);
    }
}
