//! Deterministic pseudo-random number generation.
//!
//! Two generators are provided:
//!
//! * [`SplitMix64`] — a tiny, fast generator used mainly for *seeding* and
//!   for deriving independent per-repetition seeds in Monte-Carlo ensembles
//!   (its output function is a strong 64-bit mixer, so sequential seeds map
//!   to well-separated states);
//! * [`Xoshiro256StarStar`] — the workhorse generator for simulation, with a
//!   256-bit state and a period of 2²⁵⁶ − 1.
//!
//! Both implement [`rand::RngCore`] and [`rand::SeedableRng`] so they compose
//! with the rest of the `rand` ecosystem, and both are fully deterministic:
//! a fixed seed reproduces a figure bit-for-bit.

use rand::{RngCore, SeedableRng};

/// SplitMix64 generator (Steele, Lea & Flood 2014).
///
/// Primarily used as a seed expander: every call advances an internal
/// counter by a fixed odd constant and returns a strongly mixed output, so
/// even consecutive integer seeds yield statistically independent streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator whose first outputs are determined by `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit output.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl RngCore for SplitMix64 {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.next()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        fill_bytes_via_u64(self, dest);
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl SeedableRng for SplitMix64 {
    type Seed = [u8; 8];

    fn from_seed(seed: Self::Seed) -> Self {
        Self::new(u64::from_le_bytes(seed))
    }

    fn seed_from_u64(state: u64) -> Self {
        Self::new(state)
    }
}

/// 2⁻⁵³: scales the top 53 bits of an output word into `[0, 1)`.
const F64_UNIT: f64 = 1.0 / (1u64 << 53) as f64;

/// xoshiro256** 1.0 (Blackman & Vigna 2018).
///
/// 256-bit state, period 2²⁵⁶ − 1, excellent statistical quality for
/// simulation workloads. The all-zero state is invalid and is avoided during
/// seeding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Creates a generator from a 64-bit seed, expanding it with
    /// [`SplitMix64`] as recommended by the xoshiro authors.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [sm.next(), sm.next(), sm.next(), sm.next()];
        if s == [0, 0, 0, 0] {
            // Statistically unreachable, but the all-zero state is a fixed
            // point of the transition function, so guard anyway.
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Self { s }
    }

    /// Returns the next 64-bit output.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`, using the top 53
    /// bits of one output word.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 * F64_UNIT
    }

    /// Equivalent of 2¹²⁸ calls to [`next`](Self::next); used to derive
    /// non-overlapping subsequences from one seed.
    pub fn jump(&mut self) {
        const JUMP: [u64; 4] = [
            0x180E_C6D3_3CFD_0ABA,
            0xD5A6_1266_F0C9_392C,
            0xA958_2618_E03F_C9AA,
            0x39AB_DC45_29B1_661C,
        ];
        let mut s = [0u64; 4];
        for j in JUMP {
            for b in 0..64 {
                if (j & (1u64 << b)) != 0 {
                    s[0] ^= self.s[0];
                    s[1] ^= self.s[1];
                    s[2] ^= self.s[2];
                    s[3] ^= self.s[3];
                }
                self.next();
            }
        }
        self.s = s;
    }
}

/// `K` independent [`Xoshiro256StarStar`] streams stepped in lockstep, one
/// per lane.
///
/// The state is stored lane-major per state word (`[[u64; K]; 4]`), so
/// every update is a plain lane-wise loop that the compiler turns into
/// vector instructions when the caller is compiled for a wide enough
/// target feature (or, under AVX2, written in intrinsics:
/// [`next_f64_avx2`](Self::next_f64_avx2)). Lane `l` produces exactly the
/// words of the stream it was built from: this is a data layout, not a
/// different generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XoshiroLanes<const K: usize> {
    s: [[u64; K]; 4],
}

impl<const K: usize> XoshiroLanes<K> {
    /// Gathers `K` streams into lanes; lane `l` continues `streams[l]`.
    #[must_use]
    pub fn new(streams: &[Xoshiro256StarStar; K]) -> Self {
        Self {
            s: std::array::from_fn(|word| std::array::from_fn(|l| streams[l].s[word])),
        }
    }

    /// Advances every lane once; lane `l` of the result is what
    /// [`Xoshiro256StarStar::next`] returns for that lane's stream.
    #[inline(always)]
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> [u64; K] {
        let [s0, s1, s2, s3] = &mut self.s;
        let mut out = [0u64; K];
        for l in 0..K {
            out[l] = s1[l].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s1[l] << 17;
            s2[l] ^= s0[l];
            s3[l] ^= s1[l];
            s1[l] ^= s2[l];
            s0[l] ^= s3[l];
            s2[l] ^= t;
            s3[l] = s3[l].rotate_left(45);
        }
        out
    }

    /// Lane-wise [`Xoshiro256StarStar::next_f64`], bit-equal per lane.
    ///
    /// The `u64 → f64` cast of a 53-bit value is exact; under AVX-512 DQ
    /// it is one instruction per eight lanes.
    #[inline(always)]
    pub fn next_f64(&mut self) -> [f64; K] {
        let words = self.next();
        std::array::from_fn(|l| (words[l] >> 11) as f64 * F64_UNIT)
    }

    /// [`next_f64`](Self::next_f64) with the state update written in AVX2
    /// intrinsics, four lanes per register; same output, lane for lane.
    ///
    /// The portable loop vectorizes well under AVX-512, which has a
    /// 64-bit rotate; under AVX2 the compiler's cost model keeps the
    /// multiply-and-rotate of xoshiro's output in scalar registers, which
    /// makes a lane kernel slower than one repetition at a time.
    ///
    /// # Safety
    /// The CPU must support AVX2. `K` must be a multiple of 4.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn next_f64_avx2(&mut self) -> [f64; K] {
        use std::arch::x86_64::{
            __m256i, _mm256_add_epi64, _mm256_loadu_si256, _mm256_or_si256, _mm256_slli_epi64,
            _mm256_srli_epi64, _mm256_storeu_si256, _mm256_xor_si256,
        };
        debug_assert_eq!(K % 4, 0);
        let mut words = [0u64; K];
        for c in (0..K).step_by(4) {
            let ptr = |w: &mut [u64; K]| w[c..].as_mut_ptr().cast::<__m256i>();
            let [p0, p1, p2, p3] = self.s.each_mut().map(ptr);
            // SAFETY: each pointer addresses four in-bounds words.
            let (s0, s1, s2, s3) = unsafe {
                (
                    _mm256_loadu_si256(p0),
                    _mm256_loadu_si256(p1),
                    _mm256_loadu_si256(p2),
                    _mm256_loadu_si256(p3),
                )
            };
            // rotl(s1 * 5, 7) * 9, with x * (2^k + 1) as (x << k) + x.
            let x = _mm256_add_epi64(_mm256_slli_epi64::<2>(s1), s1);
            let x = _mm256_or_si256(_mm256_slli_epi64::<7>(x), _mm256_srli_epi64::<57>(x));
            let out = _mm256_add_epi64(_mm256_slli_epi64::<3>(x), x);
            let t = _mm256_slli_epi64::<17>(s1);
            let s2 = _mm256_xor_si256(s2, s0);
            let s3 = _mm256_xor_si256(s3, s1);
            let s1 = _mm256_xor_si256(s1, s2);
            let s0 = _mm256_xor_si256(s0, s3);
            let s2 = _mm256_xor_si256(s2, t);
            let s3 = _mm256_or_si256(_mm256_slli_epi64::<45>(s3), _mm256_srli_epi64::<19>(s3));
            // SAFETY: as above, and `words[c..c + 4]` is in bounds.
            unsafe {
                _mm256_storeu_si256(p0, s0);
                _mm256_storeu_si256(p1, s1);
                _mm256_storeu_si256(p2, s2);
                _mm256_storeu_si256(p3, s3);
                _mm256_storeu_si256(words[c..].as_mut_ptr().cast(), out);
            }
        }
        std::array::from_fn(|l| u53_to_f64(words[l] >> 11) * F64_UNIT)
    }
}

/// Converts an integer below 2⁵³ to `f64` exactly, as two exact halves.
///
/// The high 21 bits are placed in the mantissa of 2⁸⁴ and the low 32 bits
/// in the mantissa of 2⁵², so both halves are exact doubles; subtracting
/// `2⁸⁴ + 2⁵²` and adding them back is exact because every intermediate is
/// an integer below 2⁵³ or a multiple of 2³² in the 2⁸⁴ binade. The result
/// equals `x as f64`, but it needs only integer bit operations and `f64`
/// add/subtract, which vectorize on every x86-64 level (the `u64 → f64`
/// cast has no AVX2 instruction).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn u53_to_f64(x: u64) -> f64 {
    debug_assert!(x < 1 << 53);
    const HI_EXP: u64 = 0x4530_0000_0000_0000; // 2⁸⁴
    const LO_EXP: u64 = 0x4330_0000_0000_0000; // 2⁵²
    const BIAS: u64 = 0x4530_0000_0010_0000; // 2⁸⁴ + 2⁵²
    let hi = f64::from_bits((x >> 32) | HI_EXP) - f64::from_bits(BIAS);
    let lo = f64::from_bits((x & 0xFFFF_FFFF) | LO_EXP);
    hi + lo
}

impl RngCore for Xoshiro256StarStar {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.next()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        fill_bytes_via_u64(self, dest);
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl SeedableRng for Xoshiro256StarStar {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut s = [0u64; 4];
        for (i, word) in s.iter_mut().enumerate() {
            let mut bytes = [0u8; 8];
            bytes.copy_from_slice(&seed[i * 8..(i + 1) * 8]);
            *word = u64::from_le_bytes(bytes);
        }
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Self { s }
    }

    fn seed_from_u64(state: u64) -> Self {
        Self::new(state)
    }
}

fn fill_bytes_via_u64<R: RngCore>(rng: &mut R, dest: &mut [u8]) {
    let mut chunks = dest.chunks_exact_mut(8);
    for chunk in &mut chunks {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    let rem = chunks.into_remainder();
    if !rem.is_empty() {
        let bytes = rng.next_u64().to_le_bytes();
        rem.copy_from_slice(&bytes[..rem.len()]);
    }
}

/// Derives independent child seeds from a master seed.
///
/// Used by the Monte-Carlo runner so that repetition `i` always receives the
/// same seed regardless of thread count or scheduling, keeping every
/// experiment bit-reproducible.
#[derive(Debug, Clone)]
pub struct SeedSequence {
    master: u64,
}

impl SeedSequence {
    /// Creates a sequence rooted at `master`.
    #[must_use]
    pub fn new(master: u64) -> Self {
        Self { master }
    }

    /// Returns the seed for child stream `index`.
    ///
    /// Children are derived by running SplitMix64 forward from a mixed
    /// combination of the master seed and the index, so nearby indices give
    /// unrelated streams.
    #[must_use]
    pub fn child(&self, index: u64) -> u64 {
        let mut sm = SplitMix64::new(self.master ^ index.wrapping_mul(0xA24B_AED4_963E_E407));
        // Burn one output so that index 0 with master 0 is not the raw mixer
        // of zero.
        sm.next();
        sm.next()
    }

    /// Returns a ready-to-use [`Xoshiro256StarStar`] for child `index`.
    #[must_use]
    pub fn child_rng(&self, index: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::new(self.child(index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 1234567 from the public-domain C
        // implementation by Sebastiano Vigna.
        let mut rng = SplitMix64::new(1234567);
        let expect = [
            6_457_827_717_110_365_317u64,
            3_203_168_211_198_807_973,
            9_817_491_932_198_370_423,
            4_593_380_528_125_082_431,
            16_408_922_859_458_223_821,
        ];
        for e in expect {
            assert_eq!(rng.next(), e);
        }
    }

    #[test]
    fn xoshiro_deterministic_and_distinct() {
        let mut a = Xoshiro256StarStar::new(42);
        let mut b = Xoshiro256StarStar::new(42);
        let mut c = Xoshiro256StarStar::new(43);
        let xs: Vec<u64> = (0..16).map(|_| a.next()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.next()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Xoshiro256StarStar::new(7);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x), "{x} outside [0,1)");
        }
    }

    #[test]
    fn next_f64_mean_near_half() {
        let mut rng = Xoshiro256StarStar::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
    }

    /// Lane `l` of a `K`-lane generator must replay seed `l`'s scalar
    /// stream word for word (`draw_lanes` and `draw_scalar` pick the
    /// output: raw words or their `f64` bits).
    fn assert_lanes_follow_scalar<const K: usize>(
        draw_lanes: impl Fn(&mut XoshiroLanes<K>) -> [u64; K],
        draw_scalar: impl Fn(&mut Xoshiro256StarStar) -> u64,
    ) {
        let mut scalar: [Xoshiro256StarStar; K] =
            std::array::from_fn(|l| Xoshiro256StarStar::new(1000 + l as u64));
        let mut lanes = XoshiroLanes::new(&scalar);
        for _ in 0..2_000 {
            let got = draw_lanes(&mut lanes);
            for (l, rng) in scalar.iter_mut().enumerate() {
                assert_eq!(got[l], draw_scalar(rng), "lane {l} of {K}");
            }
        }
        for (l, rng) in scalar.iter().enumerate() {
            let state: [u64; 4] = std::array::from_fn(|word| lanes.s[word][l]);
            assert_eq!(state, rng.s, "state of lane {l} of {K}");
        }
    }

    #[test]
    fn xoshiro_lanes_match_scalar_streams() {
        fn check<const K: usize>() {
            assert_lanes_follow_scalar::<K>(|r| r.next(), |r| r.next());
            assert_lanes_follow_scalar::<K>(
                |r| r.next_f64().map(f64::to_bits),
                |r| r.next_f64().to_bits(),
            );
        }
        check::<1>();
        check::<4>();
        check::<8>();
        check::<16>();
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn xoshiro_lanes_avx2_draw_matches_scalar_streams() {
        fn check<const K: usize>() {
            assert_lanes_follow_scalar::<K>(
                // SAFETY: AVX2 is checked below; K is a multiple of 4.
                |r| unsafe { r.next_f64_avx2() }.map(f64::to_bits),
                |r| r.next_f64().to_bits(),
            );
        }
        if !std::is_x86_feature_detected!("avx2") {
            return;
        }
        check::<4>();
        check::<8>();
        check::<16>();
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn split_conversion_is_exact_at_the_edges() {
        let top = (1u64 << 53) - 1;
        let mut words = vec![
            0,
            1,
            (1 << 32) - 1,
            1 << 32,
            (1 << 32) + 1,
            1 << 52,
            top - 1,
            top,
        ];
        let mut rng = Xoshiro256StarStar::new(17);
        words.extend((0..10_000).map(|_| rng.next() >> 11));
        for x in words {
            assert_eq!(u53_to_f64(x).to_bits(), (x as f64).to_bits(), "{x:#x}");
        }
        assert_eq!(u53_to_f64(0).to_bits(), 0.0f64.to_bits(), "+0.0, not -0.0");
        assert_eq!(
            u53_to_f64(top) * F64_UNIT,
            1.0 - F64_UNIT,
            "largest uniform"
        );
    }

    #[test]
    fn jump_produces_disjoint_stream() {
        let mut a = Xoshiro256StarStar::new(5);
        let mut b = a.clone();
        b.jump();
        let xs: Vec<u64> = (0..8).map(|_| a.next()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn seed_sequence_children_are_stable_and_distinct() {
        let seq = SeedSequence::new(99);
        let s0 = seq.child(0);
        let s1 = seq.child(1);
        assert_eq!(s0, SeedSequence::new(99).child(0));
        assert_ne!(s0, s1);
        // Nearby indices should differ in many bits, not just a few.
        assert!((s0 ^ s1).count_ones() > 10);
    }

    #[test]
    fn rng_core_integration_with_rand() {
        let mut rng = Xoshiro256StarStar::new(3);
        let x: f64 = rng.gen();
        assert!((0.0..1.0).contains(&x));
        let y: u32 = rng.gen_range(0..10);
        assert!(y < 10);
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = SplitMix64::new(1);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn seedable_from_seed_roundtrip() {
        let a = Xoshiro256StarStar::from_seed([7u8; 32]);
        let b = Xoshiro256StarStar::from_seed([7u8; 32]);
        assert_eq!(a, b);
        let z = Xoshiro256StarStar::from_seed([0u8; 32]);
        // All-zero seed must be patched to a nonzero state.
        assert_ne!(z.s, [0, 0, 0, 0]);
    }
}
