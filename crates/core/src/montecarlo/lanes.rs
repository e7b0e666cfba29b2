//! Lane-batched SL-PoS ensembles: `K` repetitions of one bare SL-PoS game
//! stepped in lockstep, one per SIMD lane.
//!
//! A single SL-PoS step is a serial chain — `m` draws from one xoshiro
//! stream, `m` divisions by the current stakes, a first-index argmin, and
//! a `+w` on the winner that feeds the next step's divisors — so one
//! repetition leaves the vector units idle and waits on RNG and division
//! latency. Every repetition already owns an independent stream, so the
//! kernel here vectorizes *across* repetitions instead: lane `l` runs
//! repetition `first + l` with exactly the draws and floating-point
//! operations of [`MiningGame::run_with_checkpoints`], which makes every
//! output bit-identical to the per-repetition path:
//!
//! * the lanes' streams are the repetitions' own streams
//!   ([`XoshiroLanes`] is a layout, not a different generator), and
//!   `next_f64` converts the same 53 bits exactly;
//! * IEEE division is correctly rounded in every lane, so `u / s` is the
//!   same double as the scalar quotient;
//! * the strict-`<` first-index argmin becomes a compare and two blends;
//! * the winner's stake and (for miner 0) earnings grow by `+w`, every
//!   other entry by `+0.0`, which leaves a non-negative double unchanged.
//!
//! The generic body is compiled behind `#[target_feature]` wrappers and
//! chosen by a runtime probe, cached once per process: `K = 16` on
//! AVX-512, `K = 8` on AVX2, two vector registers per operation, so one
//! register's division and RNG latency overlaps the other's work (one
//! register per operation measured about a third slower at two miners).
//! Other hosts keep the per-repetition path.
//!
//! [`MiningGame::run_with_checkpoints`]: crate::game::MiningGame::run_with_checkpoints

// Off x86-64 only the per-repetition path exists.
#![cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]

use fairness_stats::rng::{Xoshiro256StarStar, XoshiroLanes};

/// Which stepping kernel an SL-PoS ensemble runs on (see
/// [`run_ensemble`](super::run_ensemble)).
///
/// Every width produces the same bytes; they differ only in speed and in
/// which CPUs can run them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LaneWidth {
    /// One repetition at a time through [`MiningGame`](crate::game::MiningGame).
    PerRepetition,
    /// Eight repetitions per step on AVX2.
    Avx2,
    /// Sixteen repetitions per step on AVX-512 (F and DQ).
    Avx512,
}

impl LaneWidth {
    /// Repetitions stepped together.
    #[must_use]
    pub fn lanes(self) -> usize {
        match self {
            Self::PerRepetition => 1,
            Self::Avx2 => 8,
            Self::Avx512 => 16,
        }
    }

    /// The widest kernel this CPU runs, probed once per process.
    #[must_use]
    pub fn detected() -> Self {
        probe::detected()
    }

    /// Every width this CPU runs, narrowest first.
    #[must_use]
    pub fn supported() -> Vec<Self> {
        [Self::PerRepetition, Self::Avx2, Self::Avx512]
            .into_iter()
            .filter(|w| w.lanes() <= Self::detected().lanes())
            .collect()
    }
}

/// Runs the repetitions whose streams are `rngs` (at most `width.lanes()`
/// of them) from `stakes` (normalized, all positive, at least two), and
/// pushes each repetition's λ-trajectory of miner 0 onto `out`, in order.
///
/// # Panics
/// Panics if `width` is [`LaneWidth::PerRepetition`] or not supported by
/// this CPU, or if `rngs` holds more streams than the width has lanes.
pub(super) fn run_block(
    width: LaneWidth,
    stakes: &[f64],
    reward: f64,
    checkpoints: &[u64],
    rngs: &[Xoshiro256StarStar],
    out: &mut Vec<Vec<f64>>,
) {
    assert!(
        width.lanes() <= LaneWidth::detected().lanes(),
        "{width:?} kernel is not supported on this CPU"
    );
    match width {
        LaneWidth::PerRepetition => panic!("the per-repetition path has no lane kernel"),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the assertion above checked the CPU features.
        LaneWidth::Avx2 => unsafe { probe::run_avx2(stakes, reward, checkpoints, rngs, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        LaneWidth::Avx512 => unsafe { probe::run_avx512(stakes, reward, checkpoints, rngs, out) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("only the per-repetition path is detected off x86-64"),
    }
}

/// The lane kernel: `K` repetitions, miner-0 λ at every checkpoint.
///
/// `advance` is [`advance`] compiled for the width's target features;
/// the checkpoint bookkeeping around it (allocation, λ) stays out of the
/// stepping loop, which therefore makes no calls and keeps the lanes'
/// RNG state in vector registers. Lanes past `rngs.len()` repeat the last
/// stream and are discarded; a vector instruction costs the same with or
/// without them.
#[inline(always)]
fn kernel<const K: usize>(
    advance: impl Fn(u64, &mut [[f64; K]], &mut [f64; K], f64, &mut XoshiroLanes<K>),
    stakes: &[f64],
    w: f64,
    checkpoints: &[u64],
    rngs: &[Xoshiro256StarStar],
    out: &mut Vec<Vec<f64>>,
) {
    let n = rngs.len();
    assert!((1..=K).contains(&n), "{n} streams for {K} lanes");
    let mut rng = XoshiroLanes::<K>::new(&std::array::from_fn(|l| rngs[l.min(n - 1)].clone()));
    let mut stake: Vec<[f64; K]> = stakes.iter().map(|&s| [s; K]).collect();
    let mut earned0 = [0.0f64; K];
    let first = out.len();
    out.extend((0..n).map(|_| Vec::with_capacity(checkpoints.len())));
    let mut steps = 0u64;
    for &cp in checkpoints {
        advance(cp - steps, &mut stake, &mut earned0, w, &mut rng);
        steps = cp;
        // `MiningGame::lambda(0)`, lane by lane.
        let issued = cp as f64 * w;
        for (l, traj) in out[first..].iter_mut().enumerate() {
            traj.push(if issued == 0.0 {
                0.0
            } else {
                (earned0[l] / issued).clamp(0.0, 1.0)
            });
        }
    }
}

/// How a kernel instantiation draws one uniform per lane.
trait Draw<const K: usize> {
    /// [`XoshiroLanes::next_f64`], or an equal draw in intrinsics.
    ///
    /// # Safety
    /// The CPU must support the implementation's target features.
    unsafe fn next_f64(rng: &mut XoshiroLanes<K>) -> [f64; K];
}

/// Runs `n` SL-PoS steps in every lane: per step, the `U_i / s_i` race
/// with miner 0 seeding the best time and later miners winning only on a
/// strictly smaller one, then `+w` to the winner's stake and, for miner
/// 0, earnings.
///
/// The `+w` of one step is applied to each miner's stake just before the
/// next step divides by it, so every stake row is loaded and stored once
/// per step; the last step's credit is applied on return.
///
/// # Safety
/// The CPU must support the target features `D` draws with.
#[inline(always)]
unsafe fn advance<const K: usize, D: Draw<K>>(
    n: u64,
    stake: &mut [[f64; K]],
    earned0: &mut [f64; K],
    w: f64,
    rng: &mut XoshiroLanes<K>,
) {
    let mut r = rng.clone();
    let mut e0 = *earned0;
    // No miner index matches: the first step credits nothing.
    let mut winner = [u64::MAX; K];
    for _ in 0..n {
        // SAFETY: guaranteed by the caller.
        winner = unsafe { step::<K, D>(stake, &mut e0, &winner, w, &mut r) };
    }
    for (i, s) in stake.iter_mut().enumerate() {
        credit(s, &winner, i, w);
    }
    credit(&mut e0, &winner, 0, w);
    *earned0 = e0;
    *rng = r;
}

/// One step in every lane: credits the previous step's `winner`, runs the
/// race and returns this step's winners.
///
/// # Safety
/// As [`advance`].
#[inline(always)]
unsafe fn step<const K: usize, D: Draw<K>>(
    stake: &mut [[f64; K]],
    e0: &mut [f64; K],
    winner: &[u64; K],
    w: f64,
    r: &mut XoshiroLanes<K>,
) -> [u64; K] {
    let Some((s0, rest)) = stake.split_first_mut() else {
        unreachable!("at least two miners")
    };
    credit(s0, winner, 0, w);
    credit(e0, winner, 0, w);
    // SAFETY: guaranteed by the caller.
    let u = unsafe { D::next_f64(r) };
    let mut best_t: [f64; K] = std::array::from_fn(|l| u[l] / s0[l]);
    let mut best_i = [0u64; K];
    for (i, s) in rest.iter_mut().enumerate() {
        credit(s, winner, i + 1, w);
        // SAFETY: guaranteed by the caller.
        let u = unsafe { D::next_f64(r) };
        for l in 0..K {
            let t = u[l] / s[l];
            let wins = t < best_t[l];
            best_t[l] = if wins { t } else { best_t[l] };
            best_i[l] = if wins { (i + 1) as u64 } else { best_i[l] };
        }
    }
    best_i
}

/// `+w` where `winner` is miner `i`, `+0.0` elsewhere.
#[inline(always)]
fn credit<const K: usize>(x: &mut [f64; K], winner: &[u64; K], i: usize, w: f64) {
    for l in 0..K {
        x[l] += if winner[l] == i as u64 { w } else { 0.0 };
    }
}

#[cfg(target_arch = "x86_64")]
mod probe {
    use super::{advance, kernel, Draw, LaneWidth, Xoshiro256StarStar, XoshiroLanes};
    use std::sync::OnceLock;

    pub(super) fn detected() -> LaneWidth {
        static DETECTED: OnceLock<LaneWidth> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            if std::is_x86_feature_detected!("avx512f") && std::is_x86_feature_detected!("avx512dq")
            {
                LaneWidth::Avx512
            } else if std::is_x86_feature_detected!("avx2") {
                LaneWidth::Avx2
            } else {
                LaneWidth::PerRepetition
            }
        })
    }

    /// The portable lane draw, which the compiler vectorizes well under
    /// AVX-512: it has a 64-bit rotate and an exact `u64 → f64` convert.
    struct Portable;

    impl<const K: usize> Draw<K> for Portable {
        #[inline(always)]
        unsafe fn next_f64(rng: &mut XoshiroLanes<K>) -> [f64; K] {
            rng.next_f64()
        }
    }

    /// The lane draw in AVX2 intrinsics.
    struct Avx2Draw;

    impl<const K: usize> Draw<K> for Avx2Draw {
        #[inline(always)]
        unsafe fn next_f64(rng: &mut XoshiroLanes<K>) -> [f64; K] {
            // SAFETY: the caller guarantees AVX2; every K used is a
            // multiple of 4.
            unsafe { rng.next_f64_avx2() }
        }
    }

    /// # Safety
    /// The CPU must support AVX2.
    pub(super) unsafe fn run_avx2(
        stakes: &[f64],
        w: f64,
        checkpoints: &[u64],
        rngs: &[Xoshiro256StarStar],
        out: &mut Vec<Vec<f64>>,
    ) {
        #[target_feature(enable = "avx2")]
        fn advance_avx2(
            n: u64,
            s: &mut [[f64; 8]],
            e: &mut [f64; 8],
            w: f64,
            r: &mut XoshiroLanes<8>,
        ) {
            // SAFETY: this function only runs with AVX2 enabled.
            unsafe { advance::<8, Avx2Draw>(n, s, e, w, r) }
        }
        // SAFETY: the caller checked the CPU features.
        kernel(
            |n, s, e, w, r| unsafe { advance_avx2(n, s, e, w, r) },
            stakes,
            w,
            checkpoints,
            rngs,
            out,
        );
    }

    /// # Safety
    /// The CPU must support AVX-512 F and DQ.
    pub(super) unsafe fn run_avx512(
        stakes: &[f64],
        w: f64,
        checkpoints: &[u64],
        rngs: &[Xoshiro256StarStar],
        out: &mut Vec<Vec<f64>>,
    ) {
        #[target_feature(enable = "avx512f,avx512dq")]
        fn advance_avx512(
            n: u64,
            s: &mut [[f64; 16]],
            e: &mut [f64; 16],
            w: f64,
            r: &mut XoshiroLanes<16>,
        ) {
            // SAFETY: the portable draw needs no target feature.
            unsafe { advance::<16, Portable>(n, s, e, w, r) }
        }
        // SAFETY: the caller checked the CPU features.
        kernel(
            |n, s, e, w, r| unsafe { advance_avx512(n, s, e, w, r) },
            stakes,
            w,
            checkpoints,
            rngs,
            out,
        );
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod probe {
    use super::LaneWidth;

    pub(super) fn detected() -> LaneWidth {
        LaneWidth::PerRepetition
    }
}
