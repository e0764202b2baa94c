//! Minimal, deterministic, offline stand-in for the `rand` crate.
//!
//! The build environment has no network access, so this crate vendors the
//! API subset the workspace uses:
//!
//! * [`Rng`] — `gen`, `gen_range`, `gen_bool`
//! * [`SeedableRng`] — `seed_from_u64`
//! * [`rngs::StdRng`] — xoshiro256++ seeded via SplitMix64
//! * [`seq::SliceRandom`] — `shuffle`, `choose`
//!
//! plus one item upstream does not have: [`rngs::Lockstep`], `N` `StdRng`
//! streams stepped side by side. `StdRng` is its one-stream case, so the
//! generator is written once. The campaign engine's noise pass draws a
//! full block's per-word streams with it where that is faster.
//!
//! Streams are deterministic for a given seed and stable across runs and
//! platforms, which is exactly what the test suites rely on. The generator
//! is *not* cryptographically secure — it only drives simulations and
//! sampling in tests and benchmarks.

pub mod rngs;
pub mod seq;

/// Core entropy source: everything derives from `next_u64`.
pub trait RngCore {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniformly random bits (upper half of a 64-bit draw).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Seedable generators (only the `u64` entry point is provided).
pub trait SeedableRng: Sized {
    /// Constructs the generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types drawable uniformly from an `RngCore` (the `Standard` distribution).
pub trait SampleStandard: Sized {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl SampleStandard for u64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl SampleStandard for u32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl SampleStandard for u16 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 48) as u16
    }
}

impl SampleStandard for u8 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}

impl SampleStandard for usize {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl SampleStandard for i64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as i64
    }
}

impl SampleStandard for i32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32() as i32
    }
}

impl SampleStandard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl SampleStandard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl SampleStandard for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Ranges drawable via [`Rng::gen_range`].
pub trait SampleRange<T> {
    fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range called with empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range called with empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let v = (rng.next_u64() as u128) % span;
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range called with empty range");
        self.start + f64::sample_standard(rng) * (self.end - self.start)
    }
}

impl SampleRange<f32> for core::ops::Range<f32> {
    fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "gen_range called with empty range");
        self.start + f32::sample_standard(rng) * (self.end - self.start)
    }
}

impl SampleRange<f64> for core::ops::RangeInclusive<f64> {
    fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "gen_range called with empty range");
        lo + f64::sample_standard(rng) * (hi - lo)
    }
}

impl SampleRange<f32> for core::ops::RangeInclusive<f32> {
    fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> f32 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "gen_range called with empty range");
        lo + f32::sample_standard(rng) * (hi - lo)
    }
}

/// User-facing random-value methods, blanket-implemented for every
/// [`RngCore`] (mirrors `rand::Rng`).
pub trait Rng: RngCore {
    /// A value drawn from the standard (uniform) distribution.
    fn gen<T: SampleStandard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// A value uniform over `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_one(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}
