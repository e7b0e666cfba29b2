//! Deterministic parallel Monte-Carlo execution.
//!
//! The paper runs each configuration 10,000 times (simulation) or 500 times
//! (real systems) and reports ensemble statistics. This runner distributes
//! repetitions over threads while keeping results *bit-deterministic*: the
//! seed of repetition `i` depends only on the master seed and `i`, never on
//! scheduling, and results are returned in repetition order.

use crate::rng::{SeedSequence, Xoshiro256StarStar};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide default worker budget for [`run_monte_carlo`]; `0` means
/// "one thread per available core".
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide default thread count used by [`McConfig`]s whose
/// `threads` field is `0` (the default). `0` restores "one per core".
///
/// Harnesses wire their `--jobs N` flag here once at startup so that every
/// ensemble in the process shares one worker budget. Thread count never
/// affects results — only wall-clock time — so this is safe to change
/// between runs.
pub fn set_global_threads(threads: usize) {
    GLOBAL_THREADS.store(threads, Ordering::Relaxed);
}

/// The current process-wide default thread count (`0` = one per core).
#[must_use]
pub fn global_threads() -> usize {
    GLOBAL_THREADS.load(Ordering::Relaxed)
}

/// Configuration for a Monte-Carlo ensemble.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McConfig {
    /// Number of independent repetitions.
    pub repetitions: usize,
    /// Master seed; repetition `i` uses `SeedSequence::new(seed).child(i)`.
    pub seed: u64,
    /// Worker threads; `0` defers to [`set_global_threads`], which in turn
    /// defaults to one thread per available core.
    pub threads: usize,
}

impl McConfig {
    /// Creates a configuration with automatic thread count.
    #[must_use]
    pub fn new(repetitions: usize, seed: u64) -> Self {
        Self {
            repetitions,
            seed,
            threads: 0,
        }
    }

    /// Overrides the thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        let global = global_threads();
        if global > 0 {
            return global;
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }
}

/// Runs `f(rep_index, rng)` for every repetition, in parallel, returning the
/// results in repetition order.
///
/// Repetitions are distributed over workers by an atomic-index
/// *work-stealing* loop: each worker repeatedly claims the next unclaimed
/// batch of indices, so uneven per-repetition costs (e.g. Table 1's mixed
/// horizons) no longer leave workers idle the way static chunking did.
/// Determinism is unaffected — the seed of repetition `i` depends only on
/// the master seed and `i`, and results are reassembled in repetition
/// order, so output is bit-identical for every thread count.
///
/// `f` must be deterministic given its inputs for the ensemble to be
/// reproducible (the provided RNG is independently seeded per repetition).
pub fn run_monte_carlo<T, F>(config: McConfig, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut Xoshiro256StarStar) -> T + Sync,
{
    run_monte_carlo_lanes(config, 1, |first, rngs, out| {
        out.push(f(first, &mut rngs[0]));
    })
}

/// [`run_monte_carlo`] over lane-aligned blocks: `f(first, rngs, out)`
/// receives the seeded streams of repetitions `first..first + rngs.len()`
/// (`lanes` of them, fewer only in the final block) and must push exactly
/// one result per stream, in order, onto `out`.
///
/// This lets a kernel step several repetitions in lockstep (one per SIMD
/// lane) while keeping the scheduling of [`run_monte_carlo`]: blocks are
/// claimed by the same work-stealing loop, every repetition keeps its own
/// `SeedSequence` stream, and results come back in repetition order, so
/// output is identical for every thread count and every `lanes`.
///
/// # Panics
/// Panics if `lanes` is zero, or if `f` pushes the wrong number of
/// results.
pub fn run_monte_carlo_lanes<T, F>(config: McConfig, lanes: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut [Xoshiro256StarStar], &mut Vec<T>) + Sync,
{
    assert!(lanes > 0, "need at least one lane per block");
    let reps = config.repetitions;
    if reps == 0 {
        return Vec::new();
    }
    let seq = SeedSequence::new(config.seed);
    let blocks = reps.div_ceil(lanes);
    let threads = config.effective_threads().clamp(1, blocks);
    // Runs the block starting at repetition `start`, appending its results.
    let run_block = |start: usize, rngs: &mut Vec<Xoshiro256StarStar>, out: &mut Vec<T>| {
        rngs.clear();
        rngs.extend((start..(start + lanes).min(reps)).map(|i| seq.child_rng(i as u64)));
        let before = out.len();
        f(start, rngs, out);
        assert_eq!(out.len() - before, rngs.len(), "one result per repetition");
    };

    if threads == 1 {
        let mut out = Vec::with_capacity(reps);
        let mut rngs = Vec::with_capacity(lanes);
        for start in (0..reps).step_by(lanes) {
            run_block(start, &mut rngs, &mut out);
        }
        return out;
    }

    // Small batches amortize the atomic increment without recreating static
    // chunking's tail imbalance; a batch is a whole number of blocks.
    let batch = (blocks / (threads * 8)).clamp(1, (64 / lanes).max(1)) * lanes;
    let next = AtomicUsize::new(0);
    let worker = |out: &mut Vec<(usize, T)>| {
        let mut rngs = Vec::with_capacity(lanes);
        let mut block = Vec::with_capacity(lanes);
        loop {
            let claimed = next.fetch_add(batch, Ordering::Relaxed);
            if claimed >= reps {
                break;
            }
            for start in (claimed..(claimed + batch).min(reps)).step_by(lanes) {
                run_block(start, &mut rngs, &mut block);
                out.extend(block.drain(..).enumerate().map(|(k, v)| (start + k, v)));
            }
        }
    };

    let mut collected: Vec<(usize, T)> = Vec::with_capacity(reps);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    worker(&mut out);
                    out
                })
            })
            .collect();
        worker(&mut collected);
        for h in handles {
            collected.extend(h.join().expect("Monte-Carlo worker panicked"));
        }
    });

    collected.sort_unstable_by_key(|(idx, _)| *idx);
    debug_assert_eq!(collected.len(), reps);
    collected.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn deterministic_across_thread_counts() {
        let run = |threads: usize| -> Vec<f64> {
            run_monte_carlo(McConfig::new(64, 42).with_threads(threads), |_i, rng| {
                rng.gen::<f64>()
            })
        };
        let one = run(1);
        let four = run(4);
        let seven = run(7);
        assert_eq!(one, four);
        assert_eq!(one, seven);
    }

    #[test]
    fn results_in_repetition_order() {
        let out = run_monte_carlo(McConfig::new(100, 1).with_threads(3), |i, _rng| i);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn zero_repetitions() {
        let out: Vec<u8> = run_monte_carlo(McConfig::new(0, 1), |_, _| 0u8);
        assert!(out.is_empty());
    }

    #[test]
    fn repetitions_fewer_than_threads() {
        let out = run_monte_carlo(McConfig::new(2, 9).with_threads(16), |i, _| i * 10);
        assert_eq!(out, vec![0, 10]);
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let a = run_monte_carlo(McConfig::new(8, 1), |_i, rng| rng.gen::<u64>());
        let b = run_monte_carlo(McConfig::new(8, 2), |_i, rng| rng.gen::<u64>());
        assert_ne!(a, b);
    }

    #[test]
    fn per_repetition_streams_are_independent() {
        // Same repetition index, same value; different index, different value.
        let out = run_monte_carlo(McConfig::new(4, 5), |_i, rng| rng.gen::<u64>());
        let again = run_monte_carlo(McConfig::new(4, 5), |_i, rng| rng.gen::<u64>());
        assert_eq!(out, again);
        assert_ne!(out[0], out[1]);
    }

    #[test]
    fn uneven_work_items_complete_and_stay_ordered() {
        // Work-stealing must cover every index exactly once even when item
        // costs differ by orders of magnitude.
        let out = run_monte_carlo(McConfig::new(97, 11).with_threads(5), |i, rng| {
            let spins = if i % 13 == 0 { 20_000 } else { 10 };
            let mut acc = 0u64;
            for _ in 0..spins {
                acc = acc.wrapping_add(rng.gen::<u64>() >> 60);
            }
            (i, acc.min(1))
        });
        assert_eq!(out.len(), 97);
        for (k, (i, _)) in out.iter().enumerate() {
            assert_eq!(k, *i);
        }
    }

    #[test]
    fn lane_blocks_hand_out_each_repetitions_own_stream() {
        for reps in [1, 2, 7, 8, 9, 100] {
            let reference = run_monte_carlo(McConfig::new(reps, 31), |i, rng| (i, rng.next()));
            for lanes in [1, 3, 8, 16] {
                for threads in [1, 2, 3, 5] {
                    let config = McConfig::new(reps, 31).with_threads(threads);
                    let got = run_monte_carlo_lanes(config, lanes, |first, rngs, out| {
                        assert!(!rngs.is_empty() && rngs.len() <= lanes);
                        assert_eq!(first % lanes, 0, "blocks are lane-aligned");
                        for (k, rng) in rngs.iter_mut().enumerate() {
                            out.push((first + k, rng.next()));
                        }
                    });
                    assert_eq!(
                        got, reference,
                        "{reps} reps, {lanes} lanes, {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one result per repetition")]
    fn lane_blocks_must_return_one_result_per_stream() {
        let _ = run_monte_carlo_lanes(McConfig::new(5, 1).with_threads(1), 4, |_, _, out| {
            out.push(0u8);
        });
    }

    #[test]
    fn global_thread_budget_does_not_change_results() {
        let run = || run_monte_carlo(McConfig::new(48, 21), |_i, rng| rng.gen::<u64>());
        let auto = run();
        set_global_threads(1);
        let serial = run();
        set_global_threads(3);
        let three = run();
        set_global_threads(0);
        assert_eq!(auto, serial);
        assert_eq!(auto, three);
    }

    #[test]
    fn ensemble_mean_of_uniform_is_half() {
        let out = run_monte_carlo(McConfig::new(20_000, 3), |_i, rng| rng.gen::<f64>());
        let mean: f64 = out.iter().sum::<f64>() / out.len() as f64;
        assert!((mean - 0.5).abs() < 0.01, "{mean}");
    }
}
