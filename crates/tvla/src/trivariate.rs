//! Trivariate (true third-order) TVLA — streaming co-moment engine.
//!
//! A 3-share masked implementation (ISW order 2, DOM) forces the adversary
//! to combine *three* probe points. The third-order test therefore
//! preprocesses each trace into the product of three class-centered
//! samples, `y = (e₁ − μ₁)(e₂ − μ₂)(e₃ − μ₃)`, followed by Welch's t-test
//! between the fixed and random classes (Schneider–Moradi, higher-order
//! univariate/multivariate ladder).
//!
//! # Streaming, mergeable trivariate co-moments
//!
//! [`TripleMoments`] is the three-variable sibling of
//! [`crate::bivariate::PairMoments`]: it maintains the central co-moments
//! `C_pqr = Σ (x − μx)^p (y − μy)^q (z − μz)^r` for every multi-index with
//! `p, q, r ≤ 2` and total degree ≥ 2 (23 sums), about the *running* means.
//! Where `PairMoments` spells out six hand-derived recurrences, the 23
//! trivariate ones come from one exact recentering identity: central
//! co-moments about a shifted mean are a binomial convolution of the
//! co-moments about the old mean,
//!
//! ```text
//! C'_α(side) = Σ_{β ≤ α} Π_i C(α_i, β_i) · (μ_side,i − μ'_i)^{α_i − β_i} · C_β(side)
//! ```
//!
//! with the virtual entries `C_000 = n` and `C_β = 0` for `|β| = 1` (central
//! first moments vanish). Merging two accumulators recenters both sides
//! about the combined mean and adds; pushing one sample is merging with a
//! singleton. The combination loop runs in one fixed order, so the result
//! is deterministic in floating point — any fixed sequence of pushes and
//! merges produces the same bits on every thread count and lane width,
//! which is what the campaign engine's shard-ordered fold relies on.
//!
//! `C₁₁₁` and `C₂₂₂` are exactly the sums the centered-triple-product t
//! needs (`mean = C₁₁₁/n`, `Σ (p − p̄)² = C₂₂₂ − C₁₁₁²/n`); the other 21
//! co-moments are carried because the recentering convolution consumes them
//! — dropping any would make the accumulator non-mergeable. A whole
//! third-order sweep thus runs single-pass in `O(gate-triples)` memory,
//! sharded and merged bit-identically like every other [`MergeableSink`]
//! (see [`TripleAccumulator`]).

use polaris_netlist::{GateId, Netlist};
use polaris_obs::NullRecorder;
use polaris_sim::campaign::{
    CampaignConfig, EnergyBatch, MergeableSink, Parallelism, Population, TraceSink,
};
use polaris_sim::fleet::FleetJob;
use polaris_sim::power::PowerModel;

use crate::bivariate::MultivariateError;
use crate::welch::WelchResult;

/// The 23 tracked multi-indices `(p, q, r)` with `p, q, r ≤ 2` and total
/// degree ≥ 2, in lexicographic order — the canonical iteration *and* wire
/// order of the accumulator.
const MOMENT_TRIPLES: [(usize, usize, usize); 23] = [
    (0, 0, 2),
    (0, 1, 1),
    (0, 1, 2),
    (0, 2, 0),
    (0, 2, 1),
    (0, 2, 2),
    (1, 0, 1),
    (1, 0, 2),
    (1, 1, 0),
    (1, 1, 1),
    (1, 1, 2),
    (1, 2, 0),
    (1, 2, 1),
    (1, 2, 2),
    (2, 0, 0),
    (2, 0, 1),
    (2, 0, 2),
    (2, 1, 0),
    (2, 1, 1),
    (2, 1, 2),
    (2, 2, 0),
    (2, 2, 1),
    (2, 2, 2),
];

/// Binomial coefficients `C(n, k)` for `n, k ≤ 2`.
const BINOM: [[f64; 3]; 3] = [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 2.0, 1.0]];

/// Flat index of multi-index `(p, q, r)` into a 27-entry co-moment table.
#[inline]
const fn idx(p: usize, q: usize, r: usize) -> usize {
    p * 9 + q * 3 + r
}

/// Number of `f64` words in [`TripleMoments::raw_parts`]: 3 means + 23
/// co-moments.
pub const TRIPLE_MOMENTS_RAW_LEN: usize = 26;

/// Streaming accumulator for trivariate central co-moments through degree
/// `(2, 2, 2)` — see the module docs for the recentering algebra. The
/// `c` table is indexed by `idx`; entries of total degree < 2 are
/// structurally zero (the mean lives in `mean`, degree-1 central moments
/// vanish identically).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TripleMoments {
    n: u64,
    mean: [f64; 3],
    c: [f64; 27],
}

/// Recentered combination of two sides' co-moment tables. `ca`/`cb` are the
/// 27-entry tables with the virtual count in slot 0 (`C_000 = n_side`);
/// `ga`/`gb` hold per-coordinate powers of each side's offset from the
/// combined mean, `g[coord][k] = (μ_side,coord − μ_comb,coord)^k`. One
/// fixed iteration order, so the fold is deterministic in floating point.
#[inline]
fn combine(ca: &[f64; 27], cb: &[f64; 27], ga: &[[f64; 3]; 3], gb: &[[f64; 3]; 3]) -> [f64; 27] {
    let mut out = [0.0f64; 27];
    for &(p, q, r) in &MOMENT_TRIPLES {
        let mut acc = 0.0;
        for bp in 0..=p {
            for bq in 0..=q {
                for br in 0..=r {
                    // Degree-1 central moments are structurally zero on
                    // both sides; the skip is data-independent, so every
                    // execution shape takes the same fp path.
                    if bp + bq + br == 1 {
                        continue;
                    }
                    let coeff = BINOM[p][bp] * BINOM[q][bq] * BINOM[r][br];
                    let wa = ga[0][p - bp] * ga[1][q - bq] * ga[2][r - br];
                    let wb = gb[0][p - bp] * gb[1][q - bq] * gb[2][r - br];
                    let k = idx(bp, bq, br);
                    acc += coeff * (wa * ca[k] + wb * cb[k]);
                }
            }
        }
        out[idx(p, q, r)] = acc;
    }
    out
}

impl TripleMoments {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        TripleMoments::default()
    }

    /// Adds one joint sample `(x, y, z)` — an exact merge with the
    /// singleton accumulator `{(x, y, z)}`, whose only non-zero co-moment
    /// is the virtual `C_000 = 1`.
    pub fn push(&mut self, x: f64, y: f64, z: f64) {
        let n1 = self.n as f64;
        self.n += 1;
        let n = self.n as f64;
        let sample = [x, y, z];
        let mut ga = [[0.0f64; 3]; 3];
        let mut gb = [[0.0f64; 3]; 3];
        for i in 0..3 {
            let delta = sample[i] - self.mean[i];
            let shift = delta / n;
            let a = -shift; // old mean − new mean
            let b = delta - shift; // sample − new mean
            ga[i] = [1.0, a, a * a];
            gb[i] = [1.0, b, b * b];
            self.mean[i] += shift;
        }
        let mut ca = self.c;
        ca[0] = n1;
        let mut cb = [0.0f64; 27];
        cb[0] = 1.0;
        self.c = combine(&ca, &cb, &ga, &gb);
    }

    /// Batch update: applies the exact [`TripleMoments::push`] recurrence to
    /// every `(xs[i], ys[i], zs[i])` sample in order on a local copy of the
    /// accumulator, written back once — the SoA entry point of
    /// [`TripleAccumulator::record_batch`]. Bit-for-bit identical to
    /// sequential `push` at any batch cut, so the lane width never affects
    /// results.
    ///
    /// # Panics
    ///
    /// Debug-asserts the three slices align; in release builds the shortest
    /// slice bounds the update.
    pub fn extend_batch(&mut self, xs: &[f64], ys: &[f64], zs: &[f64]) {
        debug_assert!(
            xs.len() == ys.len() && ys.len() == zs.len(),
            "joint sample slices must align"
        );
        let mut acc = *self;
        for ((&x, &y), &z) in xs.iter().zip(ys).zip(zs) {
            acc.push(x, y, z);
        }
        *self = acc;
    }

    /// Merges another accumulator into this one (parallel combination à la
    /// Chan/Pébay, generalized to three variables). Empty sides are
    /// identities: merging an empty `other` is a no-op, and merging into an
    /// empty `self` adopts `other` bit for bit — exactly the behavior the
    /// shard-ordered campaign fold requires when a shard only saw one
    /// population.
    pub fn merge(&mut self, other: &TripleMoments) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let na = self.n as f64;
        let nb = other.n as f64;
        let n = na + nb;
        let mut ga = [[0.0f64; 3]; 3];
        let mut gb = [[0.0f64; 3]; 3];
        for i in 0..3 {
            let delta = other.mean[i] - self.mean[i];
            let shift = delta * nb / n; // combined mean − self mean
            let a = -shift;
            let b = delta - shift; // other mean − combined mean
            ga[i] = [1.0, a, a * a];
            gb[i] = [1.0, b, b * b];
            self.mean[i] += shift;
        }
        let mut ca = self.c;
        ca[0] = na;
        let mut cb = other.c;
        cb[0] = nb;
        self.c = combine(&ca, &cb, &ga, &gb);
        self.n += other.n;
    }

    /// Number of joint samples seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The three coordinate means `(μx, μy, μz)`.
    pub fn means(&self) -> [f64; 3] {
        self.mean
    }

    /// Mean of the centered triple products, `C₁₁₁ / n` — the third-order
    /// analogue of a covariance.
    pub fn centered_product_mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.c[idx(1, 1, 1)] / self.n as f64
        }
    }

    /// Population variance of the centered triple products,
    /// `(C₂₂₂ − C₁₁₁²/n) / n` — the second ingredient of
    /// [`triple_welch_t`].
    pub fn centered_product_variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            let nf = self.n as f64;
            let m = self.c[idx(1, 1, 1)] / nf;
            self.c[idx(2, 2, 2)] / nf - m * m
        }
    }

    /// The raw accumulator state `(n, [μx, μy, μz, C_pqr...])` with the 23
    /// co-moments in `MOMENT_TRIPLES` order — the snapshot side of the
    /// distributed shard-state format. Together with
    /// [`TripleMoments::from_raw_parts`] this round-trips the accumulator
    /// exactly (floats transported bit for bit), so a restored accumulator
    /// merges and reports identically to the original.
    pub fn raw_parts(&self) -> (u64, [f64; TRIPLE_MOMENTS_RAW_LEN]) {
        let mut m = [0.0f64; TRIPLE_MOMENTS_RAW_LEN];
        m[..3].copy_from_slice(&self.mean);
        for (slot, &(p, q, r)) in MOMENT_TRIPLES.iter().enumerate() {
            m[3 + slot] = self.c[idx(p, q, r)];
        }
        (self.n, m)
    }

    /// Restores an accumulator from [`TripleMoments::raw_parts`] state.
    pub fn from_raw_parts(n: u64, m: [f64; TRIPLE_MOMENTS_RAW_LEN]) -> Self {
        let mut c = [0.0f64; 27];
        for (slot, &(p, q, r)) in MOMENT_TRIPLES.iter().enumerate() {
            c[idx(p, q, r)] = m[3 + slot];
        }
        TripleMoments {
            n,
            mean: [m[0], m[1], m[2]],
            c,
        }
    }
}

/// Centered-triple-product Welch t-test from two folded [`TripleMoments`]
/// (fixed class vs random class): the streaming equivalent of running
/// [`crate::welch::welch_t`] over the per-trace products
/// `(e₁ − μ₁)(e₂ − μ₂)(e₃ − μ₃)`.
///
/// Degenerate inputs (fewer than 2 joint samples on a side, or a
/// non-positive standard error) yield `t = 0, dof = 0`, matching
/// [`pair_welch_t`](crate::bivariate::pair_welch_t).
pub fn triple_welch_t(q0: &TripleMoments, q1: &TripleMoments) -> WelchResult {
    if q0.count() < 2 || q1.count() < 2 {
        return WelchResult { t: 0.0, dof: 0.0 };
    }
    let n0 = q0.count() as f64;
    let n1 = q1.count() as f64;
    // Unbiased sample variance of the centered triple products.
    let v0 = q0.centered_product_variance() * n0 / (n0 - 1.0);
    let v1 = q1.centered_product_variance() * n1 / (n1 - 1.0);
    let se2 = v0 / n0 + v1 / n1;
    if se2 <= 0.0 {
        return WelchResult { t: 0.0, dof: 0.0 };
    }
    let t = (q0.centered_product_mean() - q1.centered_product_mean()) / se2.sqrt();
    let denom = (v0 / n0).powi(2) / (n0 - 1.0) + (v1 / n1).powi(2) / (n1 - 1.0);
    let dof = if denom > 0.0 { se2 * se2 / denom } else { 0.0 };
    WelchResult { t, dof }
}

/// Streaming trivariate sink: one [`TripleMoments`] per (gate-triple,
/// class), `O(gate-triples)` memory regardless of trace count.
///
/// The accumulator is a [`MergeableSink`], so it rides every execution
/// strategy of the campaign engine unchanged —
/// [`FleetJob::run`] threads and fleet jobs via a sink factory, and
/// distributed shard states — with the usual guarantee: bit-identical
/// results at any thread count, lane width, or shard partitioning.
///
/// A default-constructed accumulator tracks no triples (the identity the
/// shard fold needs); [`TripleAccumulator::merge`] adopts the other side's
/// triple list when `self` is empty, mirroring the other sinks' lazy-shape
/// convention.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TripleAccumulator {
    /// Tracked gate triples as `(a, b, c)` gate indices.
    triples: Vec<(u32, u32, u32)>,
    fixed: Vec<TripleMoments>,
    random: Vec<TripleMoments>,
}

impl TripleAccumulator {
    /// An accumulator tracking the given gate triples (indices into the
    /// design's gate list).
    pub fn for_triples(triples: Vec<(u32, u32, u32)>) -> Self {
        let fixed = vec![TripleMoments::new(); triples.len()];
        let random = vec![TripleMoments::new(); triples.len()];
        TripleAccumulator {
            triples,
            fixed,
            random,
        }
    }

    /// Reassembles an accumulator from its parts (the restore side of the
    /// distributed shard-state format).
    ///
    /// # Panics
    ///
    /// Panics if the class vectors do not match the triple list's length.
    pub fn from_parts(
        triples: Vec<(u32, u32, u32)>,
        fixed: Vec<TripleMoments>,
        random: Vec<TripleMoments>,
    ) -> Self {
        assert_eq!(triples.len(), fixed.len(), "fixed moments shape mismatch");
        assert_eq!(triples.len(), random.len(), "random moments shape mismatch");
        TripleAccumulator {
            triples,
            fixed,
            random,
        }
    }

    /// The tracked gate triples, in recording order.
    pub fn triples(&self) -> &[(u32, u32, u32)] {
        &self.triples
    }

    /// Number of tracked triples.
    pub fn triple_count(&self) -> usize {
        self.triples.len()
    }

    /// The per-triple class accumulators, `(fixed, random)` — the snapshot
    /// side of the distributed shard-state format.
    pub fn class_moments(&self) -> (&[TripleMoments], &[TripleMoments]) {
        (&self.fixed, &self.random)
    }

    /// Centered-triple-product Welch t per tracked triple, in recording
    /// order.
    pub fn results(&self) -> Vec<(GateId, GateId, GateId, WelchResult)> {
        self.triples
            .iter()
            .zip(self.fixed.iter().zip(&self.random))
            .map(|(&(a, b, c), (f, r))| {
                (
                    GateId::new(a as usize),
                    GateId::new(b as usize),
                    GateId::new(c as usize),
                    triple_welch_t(f, r),
                )
            })
            .collect()
    }

    /// [`TripleAccumulator::results`] sorted by descending `|t|` (NaN last,
    /// via the total order on `f64`).
    pub fn sweep(&self) -> Vec<(GateId, GateId, GateId, WelchResult)> {
        let mut out = self.results();
        out.sort_by(|a, b| b.3.t.abs().total_cmp(&a.3.t.abs()));
        out
    }
}

impl TraceSink for TripleAccumulator {
    /// Folds one SoA energy batch: for every tracked triple the three
    /// gates' lane rows stream through [`TripleMoments::extend_batch`], so
    /// the hot path is three contiguous reads per triple with the
    /// accumulator state resident in a local.
    ///
    /// # Panics
    ///
    /// Panics if a tracked triple references a gate outside the batch —
    /// callers validate triple indices against the design before running a
    /// campaign (see [`assess_triples`]).
    fn record_batch(&mut self, pop: Population, batch: EnergyBatch<'_>) {
        let store = match pop {
            Population::Fixed => &mut self.fixed,
            Population::Random => &mut self.random,
        };
        for (m, &(a, b, c)) in store.iter_mut().zip(&self.triples) {
            m.extend_batch(
                batch.gate_lanes(a as usize),
                batch.gate_lanes(b as usize),
                batch.gate_lanes(c as usize),
            );
        }
    }
}

impl MergeableSink for TripleAccumulator {
    /// Pairwise co-moment combination per (triple, class); an empty side is
    /// the identity (a default-constructed accumulator adopts `other`).
    fn merge(&mut self, other: Self) {
        if other.triples.is_empty() {
            return;
        }
        if self.triples.is_empty() {
            *self = other;
            return;
        }
        debug_assert_eq!(self.triples, other.triples, "triple list mismatch in merge");
        for (d, s) in self.fixed.iter_mut().zip(&other.fixed) {
            d.merge(s);
        }
        for (d, s) in self.random.iter_mut().zip(&other.random) {
            d.merge(s);
        }
    }
}

/// Validates a triple list against a design's gate count and rejects
/// degenerate entries: any gate repeated within one triple, and duplicates
/// of an earlier triple in any order. Both the CLI and the distributed plan
/// verifier route through this one function, so coordinator and worker
/// agree on what a well-formed triple list is.
///
/// # Errors
///
/// Returns [`MultivariateError::GateOutOfRange`] for the first
/// out-of-design index, [`MultivariateError::RepeatedGate`] for the first
/// within-entry repeat, and [`MultivariateError::DuplicateEntry`] for the
/// first repeat of an earlier entry.
pub fn validate_triples(
    triples: &[(u32, u32, u32)],
    gates: usize,
) -> Result<(), MultivariateError> {
    let mut seen = std::collections::HashSet::with_capacity(triples.len());
    for (index, &(a, b, c)) in triples.iter().enumerate() {
        for g in [a as usize, b as usize, c as usize] {
            if g >= gates {
                return Err(MultivariateError::GateOutOfRange { gate: g, gates });
            }
        }
        if a == b || a == c {
            return Err(MultivariateError::RepeatedGate { gate: a as usize });
        }
        if b == c {
            return Err(MultivariateError::RepeatedGate { gate: b as usize });
        }
        let mut key = [a, b, c];
        key.sort_unstable();
        if !seen.insert(key) {
            return Err(MultivariateError::DuplicateEntry { index });
        }
    }
    Ok(())
}

/// All `i < j < k` triples among `gates`, as gate-index triples — the
/// triple list of an exhaustive third-order sweep over a gate subset.
/// Grows as `O(n³)`; sweep a shortlist (e.g. the leakiest cells), not a
/// whole ISCAS design.
pub fn all_triples(gates: &[GateId]) -> Vec<(u32, u32, u32)> {
    let n = gates.len();
    let mut triples = Vec::with_capacity(n * n.saturating_sub(1) * n.saturating_sub(2) / 6);
    for (i, &g1) in gates.iter().enumerate() {
        for (j, &g2) in gates.iter().enumerate().skip(i + 1) {
            for &g3 in &gates[j + 1..] {
                triples.push((g1.index() as u32, g2.index() as u32, g3.index() as u32));
            }
        }
    }
    triples
}

/// Runs a streaming trivariate sweep over `triples` as one parallel
/// campaign: single pass over the traces, `O(gate-triples)` memory, sorted
/// by descending `|t|`. Results are bit-identical at any thread count and
/// lane width.
///
/// # Errors
///
/// Any [`MultivariateError`] from [`validate_triples`];
/// [`MultivariateError::Sim`] if the design cannot be levelized.
pub fn assess_triples(
    netlist: &Netlist,
    model: &PowerModel,
    config: &CampaignConfig,
    parallelism: Parallelism,
    triples: &[(u32, u32, u32)],
) -> Result<Vec<(GateId, GateId, GateId, WelchResult)>, MultivariateError> {
    validate_triples(triples, netlist.gate_count())?;
    let outcome = FleetJob::new(netlist, model, config.clone())
        .with_sink_factory(|| TripleAccumulator::for_triples(triples.to_vec()))
        .run(parallelism, &NullRecorder)?;
    Ok(outcome.sink.sweep())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moments::StreamingMoments;
    use polaris_sim::campaign::TRACES_PER_SHARD;

    fn pseudo_random(n: usize, seed: u64) -> Vec<f64> {
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

    /// Reference two-pass co-moments about the final means, in
    /// [`MOMENT_TRIPLES`] order.
    fn naive(xs: &[f64], ys: &[f64], zs: &[f64]) -> ([f64; 3], [f64; 23]) {
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let mz = zs.iter().sum::<f64>() / n;
        let mut c = [0.0f64; 23];
        for (slot, &(p, q, r)) in MOMENT_TRIPLES.iter().enumerate() {
            c[slot] = xs
                .iter()
                .zip(ys)
                .zip(zs)
                .map(|((&x, &y), &z)| {
                    (x - mx).powi(p as i32) * (y - my).powi(q as i32) * (z - mz).powi(r as i32)
                })
                .sum::<f64>();
        }
        ([mx, my, mz], c)
    }

    fn assert_close(a: f64, b: f64, tol: f64, what: &str) {
        let scale = 1.0_f64.max(a.abs()).max(b.abs());
        assert!((a - b).abs() <= tol * scale, "{what}: {a} vs {b}");
    }

    #[test]
    fn closed_form_small_vector() {
        // xs = ys = zs = [1,2,3,4]: every co-moment collapses to the
        // univariate power sum Σ(x − 2.5)^|α|, so e.g. C₁₁₁ = Σ(x−2.5)³ = 0
        // (symmetric), C₂₂₀ = Σ(x−2.5)⁴ = 10.25, and
        // C₂₂₂ = Σ(x−2.5)⁶ = 2·(1.5⁶ + 0.5⁶) = 22.8125.
        let v = [1.0, 2.0, 3.0, 4.0];
        let mut m = TripleMoments::new();
        m.extend_batch(&v, &v, &v);
        assert_eq!(m.count(), 4);
        let (_, c) = m.raw_parts();
        for mean in m.means() {
            assert!((mean - 2.5).abs() < 1e-15);
        }
        let powers: Vec<f64> = (0..=6)
            .map(|k| v.iter().map(|x| (x - 2.5_f64).powi(k)).sum())
            .collect();
        for (slot, &(p, q, r)) in MOMENT_TRIPLES.iter().enumerate() {
            let want = powers[p + q + r];
            assert!(
                (c[3 + slot] - want).abs() < 1e-11,
                "C{p}{q}{r} = {} want {want}",
                c[3 + slot]
            );
        }
    }

    #[test]
    fn diagonal_matches_univariate_moments() {
        // On x = y = z the co-moments collapse onto univariate central
        // moments: every |α| = 2 entry is M2, |α| = 3 is M3, |α| = 4 is M4.
        let xs = pseudo_random(2000, 3);
        let mut tm = TripleMoments::new();
        let mut sm = StreamingMoments::new();
        for &x in &xs {
            tm.push(x, x, x);
            sm.push(x);
        }
        let (_, m1, m2, m3, m4) = sm.raw_parts();
        let (_, c) = tm.raw_parts();
        for mean in tm.means() {
            assert_close(mean, m1, 1e-12, "mean");
        }
        for (slot, &(p, q, r)) in MOMENT_TRIPLES.iter().enumerate() {
            let want = match p + q + r {
                2 => m2,
                3 => m3,
                4 => m4,
                _ => continue,
            };
            assert_close(c[3 + slot], want, 1e-8, "diagonal co-moment");
        }
    }

    #[test]
    fn streaming_matches_two_pass() {
        let xs = pseudo_random(5000, 42);
        let ys: Vec<f64> = pseudo_random(5000, 43)
            .iter()
            .zip(&xs)
            .map(|(a, b)| a + 0.3 * b)
            .collect();
        let zs: Vec<f64> = pseudo_random(5000, 44)
            .iter()
            .zip(&ys)
            .map(|(a, b)| a - 0.2 * b)
            .collect();
        let mut m = TripleMoments::new();
        m.extend_batch(&xs, &ys, &zs);
        let (means, c) = naive(&xs, &ys, &zs);
        let (_, got) = m.raw_parts();
        for (i, want) in means.iter().enumerate() {
            assert_close(got[i], *want, 1e-12, "mean");
        }
        for (i, want) in c.iter().enumerate() {
            assert_close(got[3 + i], *want, 1e-6, "co-moment");
        }
    }

    #[test]
    fn merge_matches_two_pass_at_any_split() {
        let xs = pseudo_random(3000, 7);
        let ys = pseudo_random(3000, 11);
        let zs = pseudo_random(3000, 13);
        let (_, c_all) = naive(&xs, &ys, &zs);
        for split in [1usize, 17, 256, 1500, 2999] {
            let mut a = TripleMoments::new();
            a.extend_batch(&xs[..split], &ys[..split], &zs[..split]);
            let mut b = TripleMoments::new();
            b.extend_batch(&xs[split..], &ys[split..], &zs[split..]);
            a.merge(&b);
            assert_eq!(a.count(), 3000);
            let (_, got) = a.raw_parts();
            for (i, want) in c_all.iter().enumerate() {
                assert_close(got[3 + i], *want, 1e-6, "merged co-moment");
            }
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut m = TripleMoments::new();
        m.extend_batch(
            &pseudo_random(100, 3),
            &pseudo_random(100, 4),
            &pseudo_random(100, 5),
        );
        let snapshot = m;
        m.merge(&TripleMoments::new());
        assert_eq!(m, snapshot);
        let mut empty = TripleMoments::new();
        empty.merge(&snapshot);
        assert_eq!(empty, snapshot);
    }

    #[test]
    fn extend_batch_is_bit_identical_to_sequential_push() {
        // Golden guarantee of the SoA entry point: the batch update must
        // reproduce sequential push exactly (all raw fields, to the bit) at
        // every split — including resuming on top of existing state.
        let xs = pseudo_random(4096, 99);
        let ys = pseudo_random(4096, 100);
        let zs = pseudo_random(4096, 101);
        let mut scalar = TripleMoments::new();
        for ((&x, &y), &z) in xs.iter().zip(&ys).zip(&zs) {
            scalar.push(x, y, z);
        }
        let (n_a, c_a) = scalar.raw_parts();
        for split in [0usize, 1, 63, 64, 65, 1000, 4096] {
            let mut blocked = TripleMoments::new();
            for ((&x, &y), &z) in xs[..split].iter().zip(&ys[..split]).zip(&zs[..split]) {
                blocked.push(x, y, z);
            }
            blocked.extend_batch(&xs[split..], &ys[split..], &zs[split..]);
            let (n_b, c_b) = blocked.raw_parts();
            assert_eq!(n_a, n_b, "split {split}");
            for (i, (a, b)) in c_a.iter().zip(&c_b).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "split {split} field {i}");
            }
        }
    }

    #[test]
    fn raw_parts_round_trip_exactly() {
        let mut m = TripleMoments::new();
        m.extend_batch(
            &pseudo_random(500, 1),
            &pseudo_random(500, 2),
            &pseudo_random(500, 3),
        );
        let (n, c) = m.raw_parts();
        let restored = TripleMoments::from_raw_parts(n, c);
        assert_eq!(m, restored);
    }

    #[test]
    fn triple_welch_t_matches_naive_centered_products() {
        // The co-moment t must agree (to fp tolerance) with literally
        // centering on the class means and running Welch over the triple
        // products.
        let f = [
            pseudo_random(800, 21),
            pseudo_random(800, 22),
            pseudo_random(800, 25),
        ];
        let r = [
            pseudo_random(900, 23)
                .iter()
                .map(|x| x + 0.2)
                .collect::<Vec<f64>>(),
            pseudo_random(900, 24),
            pseudo_random(900, 26),
        ];
        let center = |e: &[Vec<f64>]| -> Vec<f64> {
            let n = e[0].len() as f64;
            let m: Vec<f64> = e.iter().map(|v| v.iter().sum::<f64>() / n).collect();
            (0..e[0].len())
                .map(|i| (e[0][i] - m[0]) * (e[1][i] - m[1]) * (e[2][i] - m[2]))
                .collect()
        };
        let want = crate::welch::welch_t_slices(&center(&f), &center(&r));
        let mut qf = TripleMoments::new();
        qf.extend_batch(&f[0], &f[1], &f[2]);
        let mut qr = TripleMoments::new();
        qr.extend_batch(&r[0], &r[1], &r[2]);
        let got = triple_welch_t(&qf, &qr);
        assert_close(got.t, want.t, 1e-9, "t");
        assert_close(got.dof, want.dof, 1e-9, "dof");
    }

    #[test]
    fn triple_welch_t_degenerate_inputs() {
        let mut one = TripleMoments::new();
        one.push(1.0, 2.0, 3.0);
        let mut many = TripleMoments::new();
        many.extend_batch(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0], &[2.0, 1.0, 3.0]);
        assert_eq!(
            triple_welch_t(&one, &many),
            WelchResult { t: 0.0, dof: 0.0 }
        );
        // Constant products on both sides: se² = 0.
        let mut ca = TripleMoments::new();
        ca.extend_batch(&[2.0, 2.0, 2.0], &[5.0, 5.0, 5.0], &[1.0, 1.0, 1.0]);
        let mut cb = TripleMoments::new();
        cb.extend_batch(&[1.0, 1.0], &[4.0, 4.0], &[2.0, 2.0]);
        assert_eq!(triple_welch_t(&ca, &cb), WelchResult { t: 0.0, dof: 0.0 });
    }

    #[test]
    fn validation_rejects_degenerate_lists() {
        assert!(validate_triples(&[(0, 1, 2)], 3).is_ok());
        assert_eq!(
            validate_triples(&[(0, 1, 9)], 3).unwrap_err(),
            MultivariateError::GateOutOfRange { gate: 9, gates: 3 }
        );
        assert_eq!(
            validate_triples(&[(1, 1, 2)], 3).unwrap_err(),
            MultivariateError::RepeatedGate { gate: 1 }
        );
        assert_eq!(
            validate_triples(&[(0, 2, 2)], 3).unwrap_err(),
            MultivariateError::RepeatedGate { gate: 2 }
        );
        // Duplicates are order-insensitive.
        assert_eq!(
            validate_triples(&[(0, 1, 2), (2, 0, 1)], 3).unwrap_err(),
            MultivariateError::DuplicateEntry { index: 1 }
        );
        // Errors render.
        assert!(validate_triples(&[(1, 1, 2)], 3)
            .unwrap_err()
            .to_string()
            .contains("repeats"));
        assert!(validate_triples(&[(0, 1, 2), (2, 1, 0)], 3)
            .unwrap_err()
            .to_string()
            .contains("duplicates"));
    }

    #[test]
    fn all_triples_enumerates_ordered_combinations() {
        let gates: Vec<GateId> = (0..5).map(GateId::new).collect();
        let triples = all_triples(&gates);
        assert_eq!(triples.len(), 10); // C(5, 3)
        assert!(validate_triples(&triples, 5).is_ok());
        assert_eq!(triples[0], (0, 1, 2));
        assert_eq!(triples[9], (2, 3, 4));
        assert!(all_triples(&gates[..2]).is_empty());
    }

    #[test]
    fn sink_reproduces_direct_accumulation() {
        // A TripleAccumulator fed EnergyBatches must hold exactly the
        // moments of extending the triple rows directly.
        let gates = 4;
        let lanes = 4;
        let energies: Vec<f64> = pseudo_random(gates * lanes, 55);
        let batch = EnergyBatch::new(&energies, gates, lanes).unwrap();
        let track = [(0u32, 1u32, 2u32), (1, 2, 3)];
        let mut sink = TripleAccumulator::for_triples(track.to_vec());
        sink.record_batch(Population::Fixed, batch);
        sink.record_batch(Population::Random, batch);
        for (k, &(a, b, c)) in track.iter().enumerate() {
            let mut want = TripleMoments::new();
            want.extend_batch(
                batch.gate_lanes(a as usize),
                batch.gate_lanes(b as usize),
                batch.gate_lanes(c as usize),
            );
            let (fixed, random) = sink.class_moments();
            assert_eq!(fixed[k], want);
            assert_eq!(random[k], want);
        }
    }

    #[test]
    fn sink_merge_has_empty_identity() {
        let mut a = TripleAccumulator::for_triples(vec![(0, 1, 2)]);
        let e = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        a.record_batch(Population::Fixed, EnergyBatch::new(&e, 3, 2).unwrap());
        let snapshot = a.clone();
        a.merge(TripleAccumulator::default());
        assert_eq!(a, snapshot);
        let mut empty = TripleAccumulator::default();
        empty.merge(snapshot.clone());
        assert_eq!(empty, snapshot);
    }

    #[test]
    fn streaming_sweep_matches_dense_chunked_fold() {
        // assess_triples must equal folding densely collected samples
        // through the same computation DAG (shard-sized chunks, merged left
        // to right) bit for bit — the same contract the pair engine pins.
        let src = "
module m (a, y0, y1, y2);
  input a;
  mask_input m0, m1;
  output y0, y1, y2;
  xor g0 (t0, a, m0);
  xor g1 (y0, t0, m1);
  buf g2 (y1, m0);
  buf g3 (y2, m1);
endmodule";
        let n = polaris_netlist::parse_netlist(src).unwrap();
        let cfg = CampaignConfig::new(700, 700, 9).with_fixed_vector(vec![true]);
        let model = PowerModel::default().with_noise(0.05);
        let triples = all_triples(&n.cell_ids());
        let streaming = assess_triples(&n, &model, &cfg, Parallelism::new(4), &triples).unwrap();
        let samples = polaris_sim::campaign::collect_gate_samples(&n, &model, &cfg).unwrap();
        let fold = |xs: &[f64], ys: &[f64], zs: &[f64]| -> TripleMoments {
            let mut acc = TripleMoments::new();
            for ((cx, cy), cz) in xs
                .chunks(TRACES_PER_SHARD)
                .zip(ys.chunks(TRACES_PER_SHARD))
                .zip(zs.chunks(TRACES_PER_SHARD))
            {
                let mut m = TripleMoments::new();
                m.extend_batch(cx, cy, cz);
                acc.merge(&m);
            }
            acc
        };
        for &(a, b, c) in &triples {
            let (ga, gb, gc) = (
                GateId::new(a as usize),
                GateId::new(b as usize),
                GateId::new(c as usize),
            );
            let fixed = fold(samples.fixed(ga), samples.fixed(gb), samples.fixed(gc));
            let random = fold(samples.random(ga), samples.random(gb), samples.random(gc));
            let want = triple_welch_t(&fixed, &random);
            let (_, _, _, got) = streaming
                .iter()
                .find(|(x, y, z, _)| (*x, *y, *z) == (ga, gb, gc))
                .unwrap();
            assert_eq!(got.t.to_bits(), want.t.to_bits());
            assert_eq!(got.dof.to_bits(), want.dof.to_bits());
        }
    }

    #[test]
    fn three_share_design_leaks_only_at_third_order() {
        // The minimal 3-share sharing: y0 = a ⊕ m0 ⊕ m1, y1 = m0, y2 = m1.
        // Each share is uniform and any *two* are jointly independent of
        // `a`, so orders 1 and 2 pass on the share gates; only the triple
        // recombines the secret. This is the repo's first positive
        // higher-order detection.
        let src = "
module m (a, y0, y1, y2);
  input a;
  mask_input m0, m1;
  output y0, y1, y2;
  xor g0 (t0, a, m0);
  xor g1 (y0, t0, m1);
  buf g2 (y1, m0);
  buf g3 (y2, m1);
endmodule";
        let n = polaris_netlist::parse_netlist(src).unwrap();
        let cfg = CampaignConfig::new(3000, 3000, 7).with_fixed_vector(vec![true]);
        let model = PowerModel::default().with_noise(0.05);
        let cells = n.cell_ids();
        // The share gates: y0 (g1), y1 (g2), y2 (g3) — gate t0 is the
        // classic first-order-masked intermediate and is excluded, exactly
        // like a masked core's entry gates in the workspace tests.
        let shares = [cells[1], cells[2], cells[3]];
        let first = crate::assess(&n, &model, &cfg).unwrap();
        for &g in &shares {
            assert!(
                first.abs_t(g) < crate::TVLA_THRESHOLD,
                "share gate must be first-order clean: {:.2}",
                first.abs_t(g)
            );
        }
        let pairs = crate::all_pairs(&shares);
        for (a, b, r) in crate::assess_pairs(&n, &model, &cfg, Parallelism::new(2), &pairs).unwrap()
        {
            assert!(
                r.t.abs() < crate::TVLA_THRESHOLD,
                "share pair ({a:?}, {b:?}) must be second-order clean: |t| = {:.2}",
                r.t.abs()
            );
        }
        let sweep =
            assess_triples(&n, &model, &cfg, Parallelism::new(2), &all_triples(&shares)).unwrap();
        let (_, _, _, r) = &sweep[0];
        assert!(
            r.t.abs() > crate::TVLA_THRESHOLD,
            "share triple must fail trivariate TVLA: |t| = {:.2}",
            r.t.abs()
        );
    }
}
