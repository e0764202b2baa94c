//! Concrete generators.

use crate::{RngCore, SeedableRng};

/// Deterministic xoshiro256++ generator (the stand-in for `rand::rngs::StdRng`):
/// one stream, the `N = 1` case of [`Lockstep`].
///
/// Seeded from a single `u64` via SplitMix64, matching the reference
/// recommendation for initializing xoshiro state.
pub type StdRng = Lockstep<1>;

/// `N` independent xoshiro256++ streams stepped side by side.
///
/// Not part of the upstream API. Stream `k` of a `Lockstep<N>` is an
/// ordinary [`StdRng`], gathered by [`Lockstep::from_streams`], so `N`
/// lockstep draws are exactly one draw from each of the `N` generators.
/// The state is stored word-major (`s[i][k]` is state word `i` of stream
/// `k`), so one step is the same shifts, rotates and XORs over `N`
/// adjacent `u64`s, which a vector unit runs as one instruction each.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Lockstep<const N: usize> {
    s: [[u64; N]; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl<const N: usize> Lockstep<N> {
    /// Gathers `N` streams, each at its current position, to step as one.
    pub fn from_streams(streams: [StdRng; N]) -> Self {
        Lockstep {
            s: std::array::from_fn(|i| std::array::from_fn(|k| streams[k].s[i][0])),
        }
    }

    /// Splits the lockstep back into its `N` streams, each at its current
    /// position: the inverse of [`Lockstep::from_streams`].
    pub fn into_streams(self) -> [StdRng; N] {
        std::array::from_fn(|k| Lockstep {
            s: std::array::from_fn(|i| [self.s[i][k]]),
        })
    }

    /// The next draw of every stream: element `k` is stream `k`'s
    /// `next_u64`. `#[inline(always)]` so a caller compiled for a wider
    /// instruction set steps the streams with its own vector ops.
    #[inline(always)]
    pub fn next_u64s(&mut self) -> [u64; N] {
        let [s0, s1, s2, s3] = &mut self.s;
        let mut out = [0; N];
        for k in 0..N {
            out[k] = s0[k]
                .wrapping_add(s3[k])
                .rotate_left(23)
                .wrapping_add(s0[k]);
            let t = s1[k] << 17;
            s2[k] ^= s0[k];
            s3[k] ^= s1[k];
            s1[k] ^= s2[k];
            s0[k] ^= s3[k];
            s2[k] ^= t;
            s3[k] = s3[k].rotate_left(45);
        }
        out
    }
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        Lockstep {
            s: std::array::from_fn(|_| [splitmix64(&mut sm)]),
        }
    }
}

impl RngCore for StdRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let [x] = self.next_u64s();
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    #[test]
    fn deterministic_for_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// The first outputs of the reference xoshiro256++ (`s = [1, 2, 3, 4]`),
    /// so the lockstep rewrite of the step is checked against the
    /// published algorithm, not only against itself.
    #[test]
    fn matches_the_reference_xoshiro256pp() {
        let mut r = Lockstep {
            s: [[1], [2], [3], [4]],
        };
        let got: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            got,
            [
                41_943_041,
                58_720_359,
                3_588_806_011_781_223,
                3_591_011_842_654_386
            ]
        );
    }

    /// `N` lockstep streams draw exactly what `N` independently seeded
    /// generators draw, and end where they end.
    #[test]
    fn lockstep_is_independent_streams() {
        fn check<const N: usize>() {
            let seeds: [u64; N] = std::array::from_fn(|k| 0x5eed_0000 + 977 * k as u64);
            let mut solo = seeds.map(StdRng::seed_from_u64);
            let mut lock = Lockstep::from_streams(seeds.map(StdRng::seed_from_u64));
            for step in 0..10_000 {
                let want: [u64; N] = std::array::from_fn(|k| solo[k].next_u64());
                assert_eq!(lock.next_u64s(), want, "N = {N}, step {step}");
            }
            assert_eq!(
                lock,
                Lockstep::from_streams(solo.clone()),
                "N = {N}: positions"
            );
            assert_eq!(lock.into_streams(), solo, "N = {N}: split back");
        }
        check::<1>();
        check::<2>();
        check::<3>();
        check::<4>();
        check::<8>();
    }

    #[test]
    fn seeds_decorrelate() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn unit_interval_bounds() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: f64 = r.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = StdRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let v = r.gen_range(3usize..17);
            assert!((3..17).contains(&v));
            let w = r.gen_range(-5i32..5);
            assert!((-5..5).contains(&w));
        }
    }

    #[test]
    fn bool_is_roughly_fair() {
        let mut r = StdRng::seed_from_u64(11);
        let ones = (0..10_000).filter(|_| r.gen::<bool>()).count();
        assert!((4000..6000).contains(&ones), "ones = {ones}");
    }
}
