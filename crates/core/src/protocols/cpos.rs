//! C-PoS incentive model (Section 2.4, Ethereum 2.0 style).
//!
//! Each epoch: `X ~ Bin(P, s_i/Σs)` of the `P` shard proposers belong to
//! miner `i`, earning `w·X_i/P`; attesters earn the inflation reward
//! `v·s_i/Σs` deterministically. Expectationally fair (Theorem 3.5) and
//! robustly fair when `w²(1/n + w + v)/((w+v)²·P) ≤ 2a²ε²/ln(2/δ)`
//! (Theorem 4.10) — the inflation reward and the sharding both shrink the
//! proposer-lottery variance.

use super::{assert_positive_reward, total_stake};
use crate::protocol::{IncentiveProtocol, StepOutcome, StepRewards};
use fairness_stats::dist::Multinomial;
use fairness_stats::rng::Xoshiro256StarStar;

/// Compound Proof-of-Stake.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CPos {
    /// Proposer reward per epoch (`w`).
    proposer_reward: f64,
    /// Inflation/attester reward per epoch (`v`).
    inflation_reward: f64,
    /// Shards per epoch (`P`).
    shards: u32,
}

impl CPos {
    /// Creates a C-PoS game.
    ///
    /// # Panics
    /// Panics unless `w > 0`, `v ≥ 0` and `shards ≥ 1`.
    #[must_use]
    pub fn new(proposer_reward: f64, inflation_reward: f64, shards: u32) -> Self {
        assert_positive_reward(proposer_reward);
        assert!(
            inflation_reward.is_finite() && inflation_reward >= 0.0,
            "inflation reward must be non-negative, got {inflation_reward}"
        );
        assert!(shards >= 1, "C-PoS needs at least one shard");
        Self {
            proposer_reward,
            inflation_reward,
            shards,
        }
    }

    /// Ethereum 2.0-like defaults relative to a unit initial circulation:
    /// the paper's Figure 2(d) setting `w = 0.01, v = 0.1, P = 32`.
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(0.01, 0.1, 32)
    }

    /// The proposer reward `w`.
    #[must_use]
    pub fn proposer_reward(&self) -> f64 {
        self.proposer_reward
    }

    /// The inflation reward `v`.
    #[must_use]
    pub fn inflation_reward(&self) -> f64 {
        self.inflation_reward
    }

    /// Shard count `P`.
    #[must_use]
    pub fn shards(&self) -> u32 {
        self.shards
    }
}

impl IncentiveProtocol for CPos {
    fn name(&self) -> &'static str {
        "C-PoS"
    }

    fn reward_per_step(&self) -> f64 {
        self.proposer_reward + self.inflation_reward
    }

    fn params(&self) -> Vec<f64> {
        vec![
            self.proposer_reward,
            self.inflation_reward,
            f64::from(self.shards),
        ]
    }

    /// The reference epoch: every intermediate in its own allocation and
    /// the lottery through [`Multinomial::sample`]. The hot path,
    /// [`step_into`](IncentiveProtocol::step_into), must match it bit for
    /// bit.
    fn step(&self, stakes: &[f64], _step: u64, rng: &mut Xoshiro256StarStar) -> StepRewards {
        let total = total_stake(stakes);
        let probs: Vec<f64> = stakes.iter().map(|&s| s / total).collect();
        // Proposer lottery: X ~ Multinomial(P, probs).
        let counts = if probs.len() == 1 {
            vec![u64::from(self.shards)]
        } else {
            Multinomial::new(u64::from(self.shards), probs.clone()).sample(rng)
        };
        let per_shard = self.proposer_reward / f64::from(self.shards);
        StepRewards::Split(
            counts
                .iter()
                .zip(&probs)
                .map(|(&x, &p)| x as f64 * per_shard + self.inflation_reward * p)
                .collect(),
        )
    }

    /// One epoch written straight into the outcome's split slots, which
    /// double as the lottery's probability table: no scratch vectors at
    /// `P = 1` and one pooled count vector otherwise. Same arithmetic and
    /// RNG stream as [`step`](IncentiveProtocol::step): shares `s_i/Σs`,
    /// renormalized by their own sum as [`Multinomial`] does, then each
    /// trial walks one uniform down the categories.
    fn step_into(
        &self,
        stakes: &[f64],
        _step: u64,
        rng: &mut Xoshiro256StarStar,
        out: &mut StepOutcome,
    ) {
        let total: f64 = stakes.iter().sum();
        debug_assert!(total.is_finite() && total > 0.0);
        let m = stakes.len();
        let shards = f64::from(self.shards);
        let per_shard = self.proposer_reward / shards;
        let inflation = self.inflation_reward;
        if m == 1 {
            out.split_slots(1)[0] = shards * per_shard + inflation * (stakes[0] / total);
            return;
        }
        let mut counts = if self.shards == 1 {
            Vec::new()
        } else {
            out.take_u64()
        };
        let slots = out.split_slots(m);
        let mut norm = 0.0;
        for (slot, &s) in slots.iter_mut().zip(stakes) {
            *slot = s / total;
            norm += *slot;
        }
        for slot in slots.iter_mut() {
            *slot /= norm;
        }
        if self.shards == 1 {
            let winner = proposer(slots, rng);
            for (i, (slot, &s)) in slots.iter_mut().zip(stakes).enumerate() {
                let x = if i == winner { 1.0 } else { 0.0 };
                *slot = x * per_shard + inflation * (s / total);
            }
        } else {
            counts.resize(m, 0);
            for _ in 0..self.shards {
                counts[proposer(slots, rng)] += 1;
            }
            for ((slot, &x), &s) in slots.iter_mut().zip(&counts).zip(stakes) {
                *slot = x as f64 * per_shard + inflation * (s / total);
            }
            out.give_u64(counts);
        }
    }
}

/// One proposer draw over normalized probabilities — the trial loop of
/// [`Multinomial::sample`], uniform for uniform.
#[inline]
fn proposer(probs: &[f64], rng: &mut Xoshiro256StarStar) -> usize {
    let mut u = rng.next_f64();
    for (i, &p) in probs.iter().enumerate() {
        if u < p {
            return i;
        }
        u -= p;
    }
    probs.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_sums_to_step_reward() {
        let cpos = CPos::paper_default();
        let mut rng = Xoshiro256StarStar::new(1);
        let stakes = vec![0.2, 0.3, 0.5];
        for i in 0..100 {
            let StepRewards::Split(r) = cpos.step(&stakes, i, &mut rng) else {
                panic!("C-PoS must split");
            };
            let total: f64 = r.iter().sum();
            assert!((total - 0.11).abs() < 1e-12, "{total}");
        }
    }

    #[test]
    fn mean_reward_proportional_to_stake() {
        let cpos = CPos::paper_default();
        let mut rng = Xoshiro256StarStar::new(2);
        let stakes = vec![0.2, 0.8];
        let n = 50_000;
        let mut sum0 = 0.0;
        for i in 0..n {
            let StepRewards::Split(r) = cpos.step(&stakes, i, &mut rng) else {
                unreachable!()
            };
            sum0 += r[0];
        }
        let mean = sum0 / n as f64;
        let expect = 0.2 * 0.11;
        assert!((mean - expect).abs() < 0.0005, "{mean} vs {expect}");
    }

    #[test]
    fn inflation_part_is_deterministic() {
        // With w→0 the split is exactly proportional.
        let cpos = CPos::new(1e-12, 0.1, 32);
        let mut rng = Xoshiro256StarStar::new(3);
        let stakes = vec![0.2, 0.8];
        let StepRewards::Split(r) = cpos.step(&stakes, 0, &mut rng) else {
            unreachable!()
        };
        assert!((r[0] - 0.02).abs() < 1e-10, "{}", r[0]);
        assert!((r[1] - 0.08).abs() < 1e-10, "{}", r[1]);
    }

    #[test]
    fn variance_shrinks_with_more_shards() {
        let few = CPos::new(0.01, 0.0, 1);
        let many = CPos::new(0.01, 0.0, 64);
        let stakes = vec![0.2, 0.8];
        let var = |cp: &CPos, seed: u64| {
            let mut rng = Xoshiro256StarStar::new(seed);
            let n = 20_000;
            let mut w = fairness_stats::summary::Welford::new();
            for i in 0..n {
                let StepRewards::Split(r) = cp.step(&stakes, i, &mut rng) else {
                    unreachable!()
                };
                w.push(r[0]);
            }
            w.variance()
        };
        let v_few = var(&few, 4);
        let v_many = var(&many, 5);
        assert!(
            v_many < v_few / 10.0,
            "64 shards should slash variance: {v_many} vs {v_few}"
        );
    }

    #[test]
    fn degenerates_to_mlpos_form_when_v0_p1() {
        // Theorem 4.10 note: v=0, P=1 reduces to an ML-PoS-like winner take
        // all per epoch.
        let cpos = CPos::new(0.01, 0.0, 1);
        let mut rng = Xoshiro256StarStar::new(6);
        let stakes = vec![0.2, 0.8];
        let StepRewards::Split(r) = cpos.step(&stakes, 0, &mut rng) else {
            unreachable!()
        };
        // Exactly one miner holds the whole reward.
        let nonzero: Vec<&f64> = r.iter().filter(|&&x| x > 0.0).collect();
        assert_eq!(nonzero.len(), 1);
        assert!((*nonzero[0] - 0.01).abs() < 1e-15);
    }

    #[test]
    fn step_into_is_bit_identical_to_multinomial_step() {
        // The hot path must reproduce the allocating `Multinomial::sample`
        // reference bit for bit and leave the RNG stream where it does.
        use crate::protocol::{StepOutcome, StepRewardsView};
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for m in [1usize, 2, 3, 8, 10] {
            for shards in [1u32, 32] {
                let cpos = CPos::new(0.01, 0.1, shards);
                // Uneven shares, one of them tiny, compounding as they go.
                let mut stakes: Vec<f64> = (0..m).map(|i| 0.1 + i as f64 / 7.0).collect();
                stakes[0] = 1e-9;
                let mut reference = Xoshiro256StarStar::new(1000 + m as u64);
                let mut hot = reference.clone();
                let mut out = StepOutcome::new();
                for step in 0..5_000 {
                    let StepRewards::Split(want) = cpos.step(&stakes, step, &mut reference) else {
                        unreachable!()
                    };
                    cpos.step_into(&stakes, step, &mut hot, &mut out);
                    let StepRewardsView::Split(got) = out.view() else {
                        panic!("C-PoS must split")
                    };
                    assert_eq!(bits(&want), bits(got), "m={m} P={shards} step {step}");
                    for (s, r) in stakes.iter_mut().zip(&want) {
                        *s += r;
                    }
                }
                assert_eq!(reference.next(), hot.next(), "m={m} P={shards}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn rejects_zero_shards() {
        let _ = CPos::new(0.01, 0.1, 0);
    }
}
