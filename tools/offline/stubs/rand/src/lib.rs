//! Offline stand-in for `rand` 0.8 for the ROOT workspace's tests and
//! benches: `benchmark/shims/rand` (which `tools/offline/ws.sh` overwrites
//! with this file in its scratch copy, because the `rand_chacha` shim
//! path-depends on it) with `gen_range` widened to the integer and float
//! types the test fixtures draw, plus `gen_bool`. The `u32` / `usize`
//! samplers are the shim's own, so library code draws the same stream.
//!
//! Covers `Rng::{gen, gen_range, gen_bool}`, `SeedableRng::{from_seed,
//! seed_from_u64}` and `seq::SliceRandom::{shuffle, choose}`.
//!
//! The sampling rules follow rand 0.8's published algorithms (PCG32 seed
//! expansion, widening-multiply integer ranges with a rejection zone,
//! 53-/24-bit mantissa floats, end-to-start Fisher–Yates), so a seeded
//! stream drives k-means and HNSW level draws the way the real crate
//! would. The benchmark itself never draws from this shim: its inputs come
//! from its own generator.

/// Source of raw random words.
pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// A generator constructible from a fixed-size seed.
pub trait SeedableRng: Sized {
    type Seed: Sized + Default + AsMut<[u8]>;

    fn from_seed(seed: Self::Seed) -> Self;

    /// Expand a `u64` into a full seed with PCG32, as rand_core does.
    fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6364136223846793005;
        const INC: u64 = 11634580027462260723;
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            let word = xorshifted.rotate_right(rot).to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// Types `Rng::gen` can produce (rand's `Standard` distribution).
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        rng.next_u32()
    }
}
impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}
impl Standard for usize {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> usize {
        rng.next_u64() as usize
    }
}
impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 random mantissa bits.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}
impl Standard for f32 {
    /// Uniform in `[0, 1)` with 24 random mantissa bits.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges `Rng::gen_range` accepts.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Types with a uniform sampler. One generic pair of `SampleRange` impls
/// sits on top of it (as in rand itself): per-type range impls would leave
/// `gen_range(-0.5..0.5)` unable to infer its float type.
pub trait SampleUniform: Sized {
    fn sample_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
    fn sample_exclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_exclusive(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (low, high) = self.into_inner();
        T::sample_inclusive(low, high, rng)
    }
}

macro_rules! int_range {
    ($t:ty, $unsigned:ty, $large:ty, $wide:ty) => {
        impl SampleUniform for $t {
            fn sample_inclusive<R: RngCore + ?Sized>(low: $t, high: $t, rng: &mut R) -> $t {
                assert!(low <= high, "gen_range: empty range");
                let range = high.wrapping_sub(low).wrapping_add(1) as $unsigned as $large;
                if range == 0 {
                    return <$large as Standard>::sample(rng) as $t;
                }
                let zone = (range << range.leading_zeros()).wrapping_sub(1);
                loop {
                    let v = <$large as Standard>::sample(rng);
                    let m = (v as $wide) * (range as $wide);
                    let (hi, lo) = ((m >> <$large>::BITS) as $large, m as $large);
                    if lo <= zone {
                        return low.wrapping_add(hi as $t);
                    }
                }
            }
            fn sample_exclusive<R: RngCore + ?Sized>(low: $t, high: $t, rng: &mut R) -> $t {
                assert!(low < high, "gen_range: empty range");
                Self::sample_inclusive(low, high - 1, rng)
            }
        }
    };
}
int_range!(u8, u8, u32, u64);
int_range!(u16, u16, u32, u64);
int_range!(u32, u32, u32, u64);
int_range!(i32, u32, u32, u64);
int_range!(u64, u64, u64, u128);
int_range!(i64, u64, u64, u128);
int_range!(usize, usize, u64, u128);

macro_rules! float_range {
    ($t:ty, $next:ident, $discard:expr, $one_bits:expr) => {
        impl SampleUniform for $t {
            fn sample_inclusive<R: RngCore + ?Sized>(low: $t, high: $t, rng: &mut R) -> $t {
                assert!(low <= high, "gen_range: empty range");
                // A value in [1, 2) from the mantissa bits, as rand does.
                let value1_2 = <$t>::from_bits((rng.$next() >> $discard) | $one_bits);
                (value1_2 - 1.0) * (high - low) + low
            }
            fn sample_exclusive<R: RngCore + ?Sized>(low: $t, high: $t, rng: &mut R) -> $t {
                assert!(low < high, "gen_range: empty range");
                let scale = high - low;
                loop {
                    let value1_2 = <$t>::from_bits((rng.$next() >> $discard) | $one_bits);
                    let res = value1_2 * scale + (low - scale);
                    if res < high {
                        return res;
                    }
                }
            }
        }
    };
}
float_range!(f32, next_u32, 9, 0x3f80_0000u32);
float_range!(f64, next_u64, 12, 0x3ff0_0000_0000_0000u64);

/// User-facing sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p` (rand's Bernoulli: one 64-bit draw).
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p outside [0, 1]");
        p >= 1.0 || self.next_u64() < (p * (1u64 << 63) as f64 * 2.0) as u64
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod seq {
    //! Slice helpers.
    use super::Rng;

    fn gen_index<R: Rng + ?Sized>(rng: &mut R, ubound: usize) -> usize {
        if ubound <= u32::MAX as usize {
            rng.gen_range(0..ubound as u32) as usize
        } else {
            rng.gen_range(0..ubound)
        }
    }

    pub trait SliceRandom {
        type Item;
        /// Uniform in-place permutation (Fisher–Yates from the end).
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
        /// One uniformly chosen element, `None` when empty.
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, gen_index(rng, i + 1));
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[gen_index(rng, self.len())])
            }
        }
    }
}
