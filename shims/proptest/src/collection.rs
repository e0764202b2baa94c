//! Collection strategies (mirrors `proptest::collection`).

use rand::rngs::StdRng;
use rand::Rng;

use crate::strategy::Strategy;

/// Length specifications accepted by [`vec()`]: an exact `usize`, `lo..hi`,
/// or `lo..=hi`.
pub trait SizeRange {
    /// Inclusive lower bound and exclusive upper bound.
    fn bounds(&self) -> (usize, usize);
}

impl SizeRange for usize {
    fn bounds(&self) -> (usize, usize) {
        (*self, *self + 1)
    }
}

impl SizeRange for core::ops::Range<usize> {
    fn bounds(&self) -> (usize, usize) {
        (self.start, self.end)
    }
}

impl SizeRange for core::ops::RangeInclusive<usize> {
    fn bounds(&self) -> (usize, usize) {
        (*self.start(), *self.end() + 1)
    }
}

/// Strategy producing `Vec`s of values drawn from `elem`.
pub struct VecStrategy<S> {
    elem: S,
    lo: usize,
    hi: usize,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
        let len = if self.lo + 1 >= self.hi {
            self.lo
        } else {
            rng.gen_range(self.lo..self.hi)
        };
        (0..len).map(|_| self.elem.generate(rng)).collect()
    }
}

/// `vec(strategy, len)` — a vector of `len` (or a length drawn from a
/// range) elements.
pub fn vec<S: Strategy>(elem: S, size: impl SizeRange) -> VecStrategy<S> {
    let (lo, hi) = size.bounds();
    assert!(hi > lo, "empty size range for collection::vec");
    VecStrategy { elem, lo, hi }
}
