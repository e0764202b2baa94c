//! One-pass streaming moments (Schneider–Moradi / Pébay update formulas).
//!
//! The naive TVLA implementation recomputes means and variances with two
//! passes over all traces (paper Eq. 2); this accumulator maintains the
//! first raw moment and the second-to-fourth central sums *incrementally*
//! (paper Eqs. 3–4 and their higher-order extension), so trace acquisition
//! and leakage assessment are a single streaming pass. Accumulators can be
//! merged, enabling batched or distributed acquisition.

use polaris_sim::campaign::WORD_LANES;
use polaris_sim::power::{Kernel, Pass};

/// Interleaved partial sums per word: independent add chains that map onto
/// vector registers.
const SUM_LANES: usize = 4;

/// Gates whose words [`StreamingMoments::extend_rows`] folds together, on
/// every build.
const GROUP: usize = 4;

/// Streaming accumulator for mean and 2nd–4th central moments.
///
/// ```
/// use polaris_tvla::StreamingMoments;
///
/// let mut m = StreamingMoments::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     m.push(x);
/// }
/// assert_eq!(m.count(), 8);
/// assert!((m.mean() - 5.0).abs() < 1e-12);
/// assert!((m.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StreamingMoments {
    n: u64,
    mean: f64,
    m2: f64,
    m3: f64,
    m4: f64,
}

impl StreamingMoments {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        StreamingMoments::default()
    }

    /// Adds one sample (paper Eq. 3: `M1' = M1 + Δ/n`).
    pub fn push(&mut self, x: f64) {
        let n1 = self.n;
        self.n += 1;
        let n = self.n as f64;
        let delta = x - self.mean;
        let delta_n = delta / n;
        let delta_n2 = delta_n * delta_n;
        let term1 = delta * delta_n * n1 as f64;
        self.mean += delta_n;
        self.m4 += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) + 6.0 * delta_n2 * self.m2
            - 4.0 * delta_n * self.m3;
        self.m3 += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * self.m2;
        self.m2 += term1;
    }

    /// Blocked batch update — the SoA hot path of the batch sinks.
    ///
    /// Cuts `xs` into [`WORD_LANES`]-sample words counted from the slice
    /// start and folds each in as one block: a two-pass summary of the word
    /// taken relative to the running mean, then one pairwise combination
    /// (see [`StreamingMoments::merge`]). That is one division chain per
    /// word instead of one per sample, and loops the compiler can vectorize.
    /// This is the one-gate case of the word fold; the per-gate Welch sink
    /// folds four gates' words side by side through the same code, each
    /// with this exact sequence of operations, so its bits are the bits of
    /// one call per gate.
    ///
    /// Every sum runs in a fixed order, so the result depends only on the
    /// samples and on where the words start: splitting a stream at any
    /// multiple of [`WORD_LANES`] across calls is bit-identical to one call.
    /// It is *not* bit-identical to sequential [`StreamingMoments::push`];
    /// the two agree to rounding, and the block form is at least as
    /// accurate on ill-conditioned (large-offset) streams.
    pub fn extend_batch(&mut self, xs: &[f64]) {
        for word in xs.chunks(WORD_LANES) {
            fold_words(std::array::from_mut(self), [word]);
        }
    }

    /// Extends `accs[g]` by row `g` of the gate-major matrix `rows`, rows
    /// of `lanes` samples each, in the host's build of the noise kernel's
    /// dispatch ([`Kernel::dispatch`]).
    ///
    /// Groups of [`GROUP`] gates fold their full words together, word by
    /// word; each gate then folds its partial trailing word, and gates
    /// past the last full group fold alone. Every gate's operations are
    /// exactly those of [`StreamingMoments::extend_batch`] on its row, so
    /// the result is bit-identical to one such call per gate.
    ///
    /// # Panics
    ///
    /// Panics unless `lanes >= 1` and `rows.len() == accs.len() * lanes`.
    pub(crate) fn extend_rows(accs: &mut [StreamingMoments], rows: &[f64], lanes: usize) {
        Kernel::detected().dispatch(ExtendRows { accs, rows, lanes });
    }

    /// Merges another accumulator into this one (parallel combination).
    pub fn merge(&mut self, other: &StreamingMoments) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        self.combine(other, other.mean - self.mean);
    }

    /// Pairwise combination of Chan et al. / Pébay with the mean difference
    /// `delta = other.mean − self.mean` supplied by the caller; both sides
    /// non-empty.
    #[inline(always)]
    fn combine(&mut self, other: &StreamingMoments, delta: f64) {
        let na = self.n as f64;
        let nb = other.n as f64;
        let n = na + nb;
        let delta2 = delta * delta;
        let delta3 = delta2 * delta;
        let delta4 = delta3 * delta;

        let m2 = self.m2 + other.m2 + delta2 * na * nb / n;
        let m3 = self.m3
            + other.m3
            + delta3 * na * nb * (na - nb) / (n * n)
            + 3.0 * delta * (na * other.m2 - nb * self.m2) / n;
        let m4 = self.m4
            + other.m4
            + delta4 * na * nb * (na * na - na * nb + nb * nb) / (n * n * n)
            + 6.0 * delta2 * (na * na * other.m2 + nb * nb * self.m2) / (n * n)
            + 4.0 * delta * (na * other.m3 - nb * self.m3) / n;

        self.mean += delta * nb / n;
        self.m2 = m2;
        self.m3 = m3;
        self.m4 = m4;
        self.n += other.n;
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The raw accumulator state `(n, mean, M2, M3, M4)` — the snapshot side
    /// of the distributed shard-state format. Together with
    /// [`StreamingMoments::from_raw_parts`] this round-trips the accumulator
    /// exactly (the floats are transported bit for bit), so a restored
    /// accumulator merges and reports identically to the original.
    pub fn raw_parts(&self) -> (u64, f64, f64, f64, f64) {
        (self.n, self.mean, self.m2, self.m3, self.m4)
    }

    /// Restores an accumulator from [`StreamingMoments::raw_parts`] state.
    pub fn from_raw_parts(n: u64, mean: f64, m2: f64, m3: f64, m4: f64) -> Self {
        StreamingMoments {
            n,
            mean,
            m2,
            m3,
            m4,
        }
    }

    /// Sample mean (first raw moment `M1`).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance `CM2 = M2 − M1²` (paper Eq. 4).
    pub fn population_variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Unbiased sample variance `s²` (used by the t-test).
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Third central moment `CM3`.
    pub fn central_moment3(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m3 / self.n as f64
        }
    }

    /// Fourth central moment `CM4` — needed for the variance of centered
    /// squares in second-order TVLA.
    pub fn central_moment4(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m4 / self.n as f64
        }
    }

    /// Skewness (standardized CM3).
    pub fn skewness(&self) -> f64 {
        let v = self.population_variance();
        if v <= 0.0 {
            0.0
        } else {
            self.central_moment3() / v.powf(1.5)
        }
    }

    /// Excess kurtosis (standardized CM4 − 3).
    pub fn kurtosis_excess(&self) -> f64 {
        let v = self.population_variance();
        if v <= 0.0 {
            0.0
        } else {
            self.central_moment4() / (v * v) - 3.0
        }
    }
}

/// Folds one word of each of `K` accumulators: `xs[k]` (`1..=WORD_LANES`
/// samples, all `K` words equally long) into `accs[k]`.
///
/// Each word is shifted by its accumulator's running mean (its first
/// sample when empty), so the word's mean offset keeps full precision
/// however large the stream's DC level; the second pass takes the central
/// sums about that offset, and the summary joins the accumulator with one
/// pairwise combination at the accumulator's own count.
///
/// Sample `i` of a word adds into lane `i % SUM_LANES` of that word's sums,
/// and the lanes reduce in a fixed pairwise order, so the result depends
/// only on the word's samples and their positions. The `K` words share
/// loops, not values: word `k` sees exactly the operations of a fold of it
/// alone, while the CPU overlaps the `K` independent add and divide chains.
/// Each loop runs gate by gate within a row of `SUM_LANES` samples, with
/// one array per sum; the compiler then keeps each gate's lanes in one
/// vector (two gates to a register on AVX-512), where other arrangements
/// measured up to twice as slow.
#[inline(always)]
fn fold_words<const K: usize>(accs: &mut [StreamingMoments; K], xs: [&[f64]; K]) {
    let len = xs[0].len();
    let full = len - len % SUM_LANES;
    let mut shift = [0.0; K];
    for k in 0..K {
        shift[k] = if accs[k].n == 0 {
            xs[k][0]
        } else {
            accs[k].mean
        };
    }
    let mut s1 = [[0.0; SUM_LANES]; K];
    for at in (0..full).step_by(SUM_LANES) {
        for k in 0..K {
            for l in 0..SUM_LANES {
                s1[k][l] += xs[k][at + l] - shift[k];
            }
        }
    }
    for k in 0..K {
        for l in 0..len - full {
            s1[k][l] += xs[k][full + l] - shift[k];
        }
    }
    let reduce = |[a0, a1, a2, a3]: [f64; SUM_LANES]| (a0 + a1) + (a2 + a3);
    let mut offset = [0.0; K];
    for k in 0..K {
        offset[k] = reduce(s1[k]) / len as f64;
    }
    let mut s2 = [[0.0; SUM_LANES]; K];
    let mut s3 = [[0.0; SUM_LANES]; K];
    let mut s4 = [[0.0; SUM_LANES]; K];
    for at in (0..full).step_by(SUM_LANES) {
        for k in 0..K {
            for l in 0..SUM_LANES {
                let d = (xs[k][at + l] - shift[k]) - offset[k];
                let d2 = d * d;
                s2[k][l] += d2;
                s3[k][l] += d2 * d;
                s4[k][l] += d2 * d2;
            }
        }
    }
    for k in 0..K {
        for l in 0..len - full {
            let d = (xs[k][full + l] - shift[k]) - offset[k];
            let d2 = d * d;
            s2[k][l] += d2;
            s3[k][l] += d2 * d;
            s4[k][l] += d2 * d2;
        }
    }
    for (k, acc) in accs.iter_mut().enumerate() {
        let word = StreamingMoments {
            n: len as u64,
            mean: shift[k] + offset[k],
            m2: reduce(s2[k]),
            m3: reduce(s3[k]),
            m4: reduce(s4[k]),
        };
        if acc.n == 0 {
            *acc = word;
        } else {
            acc.combine(&word, offset[k]);
        }
    }
}

/// [`StreamingMoments::extend_rows`] as a [`Pass`], so that each build of
/// the dispatch compiles its own copy of the fold.
struct ExtendRows<'a> {
    accs: &'a mut [StreamingMoments],
    rows: &'a [f64],
    lanes: usize,
}

impl Pass for ExtendRows<'_> {
    #[inline(always)]
    fn run(self) {
        let ExtendRows { accs, rows, lanes } = self;
        assert_eq!(rows.len(), accs.len() * lanes, "one row per accumulator");
        let full = lanes - lanes % WORD_LANES;
        let mut groups = accs.chunks_exact_mut(GROUP);
        let mut blocks = rows.chunks_exact(GROUP * lanes);
        for (group, block) in (&mut groups).zip(&mut blocks) {
            let group: &mut [StreamingMoments; GROUP] =
                group.try_into().expect("chunks_exact yields full groups");
            let row = |k: usize| &block[k * lanes..(k + 1) * lanes];
            for at in (0..full).step_by(WORD_LANES) {
                fold_words(group, std::array::from_fn(|k| &row(k)[at..at + WORD_LANES]));
            }
            if full < lanes {
                for (k, acc) in group.iter_mut().enumerate() {
                    fold_words(std::array::from_mut(acc), [&row(k)[full..]]);
                }
            }
        }
        let rest = blocks.remainder().chunks_exact(lanes);
        for (acc, row) in groups.into_remainder().iter_mut().zip(rest) {
            acc.extend_batch(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference two-pass implementation (paper Eq. 2 style).
    fn naive(xs: &[f64]) -> (f64, f64, f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let cm = |p: i32| xs.iter().map(|x| (x - mean).powi(p)).sum::<f64>() / n;
        (mean, cm(2), cm(3), cm(4))
    }

    fn pseudo_random(n: usize, seed: u64) -> Vec<f64> {
        // Small deterministic LCG so this module needs no rand dependency.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 10.0 - 5.0
            })
            .collect()
    }

    #[test]
    fn closed_form_small_vector() {
        // xs = [1,2,3,4]: mean 2.5, population variance 1.25, sample
        // variance 5/3, CM3 = 0 (symmetric), CM4 = (2·1.5⁴ + 2·0.5⁴)/4 =
        // 2.5625, excess kurtosis = 2.5625/1.25² − 3 = −1.36.
        let mut m = StreamingMoments::new();
        m.extend_batch(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.count(), 4);
        assert!((m.mean() - 2.5).abs() < 1e-15);
        assert!((m.population_variance() - 1.25).abs() < 1e-15);
        assert!((m.sample_variance() - 5.0 / 3.0).abs() < 1e-15);
        assert!(m.central_moment3().abs() < 1e-15);
        assert!((m.central_moment4() - 2.5625).abs() < 1e-15);
        assert!(m.skewness().abs() < 1e-15);
        assert!((m.kurtosis_excess() - (-1.36)).abs() < 1e-12);
    }

    #[test]
    fn closed_form_skewed_vector() {
        // xs = [1,1,1,5]: mean 2, CM2 = 3, CM3 = 6, skewness = 6/3^1.5 =
        // 2/√3.
        let mut m = StreamingMoments::new();
        m.extend_batch(&[1.0, 1.0, 1.0, 5.0]);
        assert!((m.mean() - 2.0).abs() < 1e-15);
        assert!((m.population_variance() - 3.0).abs() < 1e-15);
        assert!((m.central_moment3() - 6.0).abs() < 1e-12);
        assert!((m.skewness() - 2.0 / 3.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn constant_stream_is_degenerate() {
        let mut m = StreamingMoments::new();
        m.extend_batch(&[2.0; 5]);
        assert!((m.mean() - 2.0).abs() < 1e-15);
        assert_eq!(m.population_variance(), 0.0);
        assert_eq!(m.skewness(), 0.0);
        assert_eq!(m.kurtosis_excess(), 0.0);
    }

    #[test]
    fn single_push_incremental_mean() {
        // Pushing one value at a time keeps the running mean exact at every
        // step: after k pushes of [4,8,12,...] the mean is 2(k+1).
        let mut m = StreamingMoments::new();
        for k in 1..=10u64 {
            m.push(4.0 * k as f64);
            assert_eq!(m.count(), k);
            assert!((m.mean() - 2.0 * (k + 1) as f64).abs() < 1e-12);
        }
        // Population variance of 4·[1..10] is 16 · (100−1)/12 = 132.
        assert!((m.population_variance() - 132.0).abs() < 1e-9);
    }

    #[test]
    fn streaming_matches_two_pass() {
        let xs = pseudo_random(5000, 42);
        let mut m = StreamingMoments::new();
        m.extend_batch(&xs);
        let (mean, cm2, cm3, cm4) = naive(&xs);
        assert!((m.mean() - mean).abs() < 1e-9);
        assert!((m.population_variance() - cm2).abs() < 1e-9);
        assert!((m.central_moment3() - cm3).abs() < 1e-7);
        assert!((m.central_moment4() - cm4).abs() < 1e-6);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs = pseudo_random(3000, 7);
        let (a, b) = xs.split_at(1234);
        let mut ma = StreamingMoments::new();
        ma.extend_batch(a);
        let mut mb = StreamingMoments::new();
        mb.extend_batch(b);
        ma.merge(&mb);

        let mut all = StreamingMoments::new();
        all.extend_batch(&xs);

        assert_eq!(ma.count(), all.count());
        assert!((ma.mean() - all.mean()).abs() < 1e-10);
        assert!((ma.population_variance() - all.population_variance()).abs() < 1e-9);
        assert!((ma.central_moment4() - all.central_moment4()).abs() < 1e-6);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let xs = pseudo_random(100, 3);
        let mut m = StreamingMoments::new();
        m.extend_batch(&xs);
        let snapshot = m;
        m.merge(&StreamingMoments::new());
        assert_eq!(m, snapshot);

        let mut empty = StreamingMoments::new();
        empty.merge(&snapshot);
        assert_eq!(empty, snapshot);
    }

    #[test]
    fn constant_stream_has_zero_variance() {
        let mut m = StreamingMoments::new();
        for _ in 0..100 {
            m.push(3.25);
        }
        assert!((m.mean() - 3.25).abs() < 1e-12);
        assert!(m.population_variance().abs() < 1e-12);
        assert!(m.sample_variance().abs() < 1e-12);
    }

    #[test]
    fn sample_variance_uses_n_minus_one() {
        let mut m = StreamingMoments::new();
        m.extend_batch(&[1.0, 3.0]);
        assert!((m.sample_variance() - 2.0).abs() < 1e-12);
        assert!((m.population_variance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_counts() {
        let mut m = StreamingMoments::new();
        assert_eq!(m.count(), 0);
        assert_eq!(m.sample_variance(), 0.0);
        m.push(5.0);
        assert_eq!(m.sample_variance(), 0.0, "single sample: s² undefined → 0");
        assert_eq!(m.mean(), 5.0);
    }

    fn bits(m: &StreamingMoments) -> (u64, u64, u64, u64, u64) {
        let (n, m1, m2, m3, m4) = m.raw_parts();
        (n, m1.to_bits(), m2.to_bits(), m3.to_bits(), m4.to_bits())
    }

    #[test]
    fn extend_batch_is_split_invariant_at_word_boundaries() {
        // The engine feeds each population in word-aligned batches whose
        // width depends on the lane width; the sink state must not.
        let xs = pseudo_random(4096 + 37, 99);
        let mut whole = StreamingMoments::new();
        whole.extend_batch(&xs);
        for words in [1usize, 3, 4, 8, 63, 64] {
            let mut split = StreamingMoments::new();
            for batch in xs.chunks(words * WORD_LANES) {
                split.extend_batch(batch);
            }
            assert_eq!(bits(&split), bits(&whole), "{words}-word batches");
        }
    }

    /// Errors of `m`'s mean and central moments against the two-pass
    /// moments of `residuals = xs − offset` (exact differences, so they
    /// carry the same central moments), each relative to the scale of that
    /// moment.
    fn rel_errors(m: &StreamingMoments, offset: f64, residuals: &[f64]) -> [f64; 4] {
        let (mean, cm2, cm3, cm4) = naive(residuals);
        let sd = cm2.sqrt();
        [
            (m.mean() - offset - mean).abs() / sd,
            (m.population_variance() - cm2).abs() / cm2,
            (m.central_moment3() - cm3).abs() / (sd * cm2),
            (m.central_moment4() - cm4).abs() / cm4,
        ]
    }

    #[test]
    fn extend_batch_is_at_least_as_accurate_as_push() {
        // Power traces ride on a DC level: offset 1e6 with spread 0.35 is
        // the ill-conditioned case. Single-stream rounding errors are a
        // random walk, so compare the totals over several streams; totals
        // below 1e-13 are at the reference's own rounding and both pass.
        for (offset, sigma) in [(0.0, 1.0), (1e6, 0.35)] {
            let (mut batch, mut push) = ([0.0; 4], [0.0; 4]);
            for seed in 1..=8 {
                // pseudo_random is uniform on [-5, 5): standard deviation 10/√12.
                let scale = sigma * 12f64.sqrt() / 10.0;
                let xs: Vec<f64> = pseudo_random(20_000, seed)
                    .iter()
                    .map(|e| offset + scale * e)
                    .collect();
                let residuals: Vec<f64> = xs.iter().map(|x| x - offset).collect();
                let mut pushed = StreamingMoments::new();
                for &x in &xs {
                    pushed.push(x);
                }
                let mut batched = StreamingMoments::new();
                batched.extend_batch(&xs);
                let eb = rel_errors(&batched, offset, &residuals);
                let ep = rel_errors(&pushed, offset, &residuals);
                for k in 0..4 {
                    batch[k] += eb[k];
                    push[k] += ep[k];
                }
            }
            for k in 0..4 {
                assert!(
                    batch[k] <= push[k].max(1e-13),
                    "offset {offset}, moment {}: batch {batch:?} push {push:?}",
                    k + 1
                );
            }
        }
    }

    /// The grouped fold of a gate-major matrix writes, for every gate, the
    /// bits of one `extend_batch` call on that gate's row: in every build
    /// the host supports, for every gate count up to two full groups and a
    /// partial one, for rows of one sample, of a partial word, of whole
    /// words and of whole words and a partial one, into empty accumulators
    /// and into accumulators restored with unequal counts, on a stream at
    /// zero and at a 1e9 DC level.
    #[test]
    fn grouped_fold_is_per_gate_fold() {
        let kernels = Kernel::supported();
        assert_eq!(kernels.last(), Some(&Kernel::detected()));
        for kernel in kernels {
            for gates in 1..=2 * GROUP + 1 {
                for lanes in [1, 63, 64, 65, 256, 300] {
                    for dc in [0.0, 1e9] {
                        let rows: Vec<f64> = pseudo_random(gates * lanes, (gates * lanes) as u64)
                            .iter()
                            .map(|x| dc + x)
                            .collect();
                        let restored: Vec<StreamingMoments> = (0..gates)
                            .map(|g| {
                                let mut m = StreamingMoments::new();
                                m.extend_batch(&pseudo_random(1 + 37 * g, g as u64));
                                let (n, mean, m2, m3, m4) = m.raw_parts();
                                StreamingMoments::from_raw_parts(n, dc + mean, m2, m3, m4)
                            })
                            .collect();
                        for start in [vec![StreamingMoments::new(); gates], restored] {
                            let mut want = start.clone();
                            for (acc, row) in want.iter_mut().zip(rows.chunks_exact(lanes)) {
                                acc.extend_batch(row);
                            }
                            let mut got = start;
                            kernel.dispatch(ExtendRows {
                                accs: &mut got,
                                rows: &rows,
                                lanes,
                            });
                            for (g, (got, want)) in got.iter().zip(&want).enumerate() {
                                assert_eq!(
                                    bits(got),
                                    bits(want),
                                    "{kernel:?}: gate {g} of {gates}, {lanes} lanes, DC {dc}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn gaussianish_kurtosis_near_zero() {
        // Sum of 12 uniforms ≈ normal; excess kurtosis ≈ -0.1 (Irwin–Hall 12).
        let base = pseudo_random(120_000, 11);
        let xs: Vec<f64> = base.chunks(12).map(|c| c.iter().sum::<f64>()).collect();
        let mut m = StreamingMoments::new();
        m.extend_batch(&xs);
        assert!(
            m.kurtosis_excess().abs() < 0.2,
            "kurt {}",
            m.kurtosis_excess()
        );
        assert!(m.skewness().abs() < 0.1, "skew {}", m.skewness());
    }
}
