//! Bivariate (true second-order) TVLA — streaming co-moment engine.
//!
//! A d-th-order masked implementation forces the adversary to *combine*
//! d + 1 probe points. The standard second-order test therefore combines
//! two sample points per trace: the preprocessed statistic is the product
//! of the two points' class-centered samples,
//! `y = (e₁ − μ₁)(e₂ − μ₂)`, followed by Welch's t-test between the fixed
//! and random classes (Schneider–Moradi §4.2).
//!
//! Against the crate's gate-level samples this combines two *gates'*
//! energies. A first-order (2-share) Trichina composite has gate pairs
//! whose joint toggle statistics are data-dependent — e.g. the remasked
//! product `(a·b) ⊕ z` together with any gate carrying `z` — while a
//! second-order (3-share) ISW composite requires three-way combinations and
//! passes every bivariate test (see the workspace integration tests).
//!
//! # Streaming, mergeable co-moments
//!
//! The naive formulation needs the class means before it can center, so it
//! buffers `O(traces)` samples per gate and makes two passes. [`PairMoments`]
//! instead maintains the bivariate *central co-moments*
//! `C_pq = Σ (x − μx)^p (y − μy)^q` through degree `(2, 2)` about the
//! running class means, with exact single-sample push and pairwise merge
//! recurrences (the bivariate extension of the Pébay updates in
//! [`crate::moments`]). Re-centering is built into the algebra: after any
//! sequence of pushes and merges the co-moments are exactly those about the
//! final mean, so the class mean never needs to be known up front. The
//! centered-product Welch t then falls out of the folded state —
//! `mean = C₁₁/n`, `Σ (p − p̄)² = C₂₂ − C₁₁²/n` — and a whole sweep runs in
//! `O(gate-pairs)` memory, single-pass, sharded and merged bit-identically
//! like every other [`MergeableSink`] (see [`PairAccumulator`]).
//!
//! The dense [`GateSamples`] entry points ([`bivariate_t`],
//! [`bivariate_sweep`]) are kept as the buffered-samples compatibility
//! surface, but they now fold the *same* co-moment computation DAG —
//! [`TRACES_PER_SHARD`]-trace chunks pushed in order, merged left to right —
//! so their t-values are bit-for-bit identical to the streaming engine's.

use polaris_netlist::{GateId, Netlist, NetlistError};
use polaris_obs::NullRecorder;
use polaris_sim::campaign::{
    CampaignConfig, EnergyBatch, GateSamples, MergeableSink, Parallelism, Population, TraceSink,
    TRACES_PER_SHARD,
};
use polaris_sim::fleet::FleetJob;
use polaris_sim::power::PowerModel;

use crate::welch::WelchResult;

/// Streaming accumulator for bivariate central co-moments through degree
/// `(2, 2)`: `n`, the two means, and `C_pq = Σ (x − μx)^p (y − μy)^q` for
/// `(p, q) ∈ {(2,0), (0,2), (1,1), (2,1), (1,2), (2,2)}`, all about the
/// running means.
///
/// `C₁₁` and `C₂₂` are exactly the sums the centered-product second-order
/// test needs ([`pair_welch_t`]); the odd co-moments `C₂₁`/`C₁₂` are carried
/// because the push/merge recurrences of `C₂₂` consume them — dropping them
/// would make the accumulator non-mergeable.
///
/// Like [`crate::moments::StreamingMoments`], the accumulator is exact in
/// infinite precision and deterministic in floating point: any fixed
/// sequence of pushes and merges produces the same bits on every thread
/// count and lane width, which is what the campaign engine's shard-ordered
/// fold relies on.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PairMoments {
    n: u64,
    mean_x: f64,
    mean_y: f64,
    c20: f64,
    c02: f64,
    c11: f64,
    c21: f64,
    c12: f64,
    c22: f64,
}

impl PairMoments {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        PairMoments::default()
    }

    /// Adds one joint sample `(x, y)`.
    ///
    /// Higher-degree co-moments are updated first so every recurrence reads
    /// the *previous* lower-degree state, mirroring
    /// [`crate::moments::StreamingMoments::push`] (to which this degenerates
    /// exactly on the diagonal `y = x`).
    pub fn push(&mut self, x: f64, y: f64) {
        let n1 = self.n;
        self.n += 1;
        let nf = self.n as f64;
        let n1f = n1 as f64;
        let delta_x = x - self.mean_x;
        let delta_y = y - self.mean_y;
        let dx = delta_x / nf;
        let dy = delta_y / nf;
        self.c22 += dx * dy * delta_x * delta_y * n1f * (n1f * n1f - n1f + 1.0) / nf
            + dy * dy * self.c20
            + dx * dx * self.c02
            + 4.0 * dx * dy * self.c11
            - 2.0 * dy * self.c21
            - 2.0 * dx * self.c12;
        self.c21 += dx * delta_x * dy * n1f * (n1f - 1.0) - dy * self.c20 - 2.0 * dx * self.c11;
        self.c12 += dy * delta_y * dx * n1f * (n1f - 1.0) - dx * self.c02 - 2.0 * dy * self.c11;
        self.c20 += delta_x * dx * n1f;
        self.c02 += delta_y * dy * n1f;
        self.c11 += delta_x * dy * n1f;
        self.mean_x += dx;
        self.mean_y += dy;
    }

    /// Blocked batch update: applies the exact [`PairMoments::push`]
    /// recurrence to every `(xs[i], ys[i])` sample in order, on
    /// register-resident accumulator state written back once — the SoA hot
    /// path of [`PairAccumulator::record_batch`]. Bit-for-bit identical to
    /// sequential `push` at any batch cut (the golden test pins this), so
    /// the lane width never affects results.
    ///
    /// # Panics
    ///
    /// Debug-asserts `xs.len() == ys.len()`; in release builds the shorter
    /// slice bounds the update.
    pub fn extend_batch(&mut self, xs: &[f64], ys: &[f64]) {
        debug_assert_eq!(xs.len(), ys.len(), "joint sample slices must align");
        let (mut n, mut mean_x, mut mean_y) = (self.n, self.mean_x, self.mean_y);
        let (mut c20, mut c02, mut c11) = (self.c20, self.c02, self.c11);
        let (mut c21, mut c12, mut c22) = (self.c21, self.c12, self.c22);
        for (&x, &y) in xs.iter().zip(ys) {
            let n1 = n;
            n += 1;
            let nf = n as f64;
            let n1f = n1 as f64;
            let delta_x = x - mean_x;
            let delta_y = y - mean_y;
            let dx = delta_x / nf;
            let dy = delta_y / nf;
            c22 += dx * dy * delta_x * delta_y * n1f * (n1f * n1f - n1f + 1.0) / nf
                + dy * dy * c20
                + dx * dx * c02
                + 4.0 * dx * dy * c11
                - 2.0 * dy * c21
                - 2.0 * dx * c12;
            c21 += dx * delta_x * dy * n1f * (n1f - 1.0) - dy * c20 - 2.0 * dx * c11;
            c12 += dy * delta_y * dx * n1f * (n1f - 1.0) - dx * c02 - 2.0 * dy * c11;
            c20 += delta_x * dx * n1f;
            c02 += delta_y * dy * n1f;
            c11 += delta_x * dy * n1f;
            mean_x += dx;
            mean_y += dy;
        }
        self.n = n;
        self.mean_x = mean_x;
        self.mean_y = mean_y;
        self.c20 = c20;
        self.c02 = c02;
        self.c11 = c11;
        self.c21 = c21;
        self.c12 = c12;
        self.c22 = c22;
    }

    /// Merges another accumulator into this one (parallel combination à la
    /// Chan/Pébay). Empty sides are identities: merging an empty `other` is
    /// a no-op, and merging into an empty `self` adopts `other` bit for bit
    /// — exactly the behavior the shard-ordered campaign fold requires when
    /// a shard only saw one population.
    pub fn merge(&mut self, other: &PairMoments) {
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
        let delta_x = other.mean_x - self.mean_x;
        let delta_y = other.mean_y - self.mean_y;
        // Mean shifts of the two sides toward the combined mean.
        let ax = delta_x * nb / n;
        let ay = delta_y * nb / n;
        let bx = delta_x * na / n;
        let by = delta_y * na / n;

        let c20 = self.c20 + other.c20 + delta_x * delta_x * na * nb / n;
        let c02 = self.c02 + other.c02 + delta_y * delta_y * na * nb / n;
        let c11 = self.c11 + other.c11 + delta_x * delta_y * na * nb / n;
        let c21 =
            self.c21 + other.c21 + delta_x * delta_x * delta_y * na * nb * (na - nb) / (n * n)
                - ay * self.c20
                + by * other.c20
                - 2.0 * ax * self.c11
                + 2.0 * bx * other.c11;
        let c12 =
            self.c12 + other.c12 + delta_x * delta_y * delta_y * na * nb * (na - nb) / (n * n)
                - ax * self.c02
                + bx * other.c02
                - 2.0 * ay * self.c11
                + 2.0 * by * other.c11;
        let c22 = self.c22
            + other.c22
            + delta_x * delta_x * delta_y * delta_y * na * nb * (na * na - na * nb + nb * nb)
                / (n * n * n)
            + ay * ay * self.c20
            + by * by * other.c20
            + ax * ax * self.c02
            + bx * bx * other.c02
            + 4.0 * (ax * ay * self.c11 + bx * by * other.c11)
            - 2.0 * ay * self.c21
            + 2.0 * by * other.c21
            - 2.0 * ax * self.c12
            + 2.0 * bx * other.c12;

        self.mean_x += ax;
        self.mean_y += ay;
        self.c20 = c20;
        self.c02 = c02;
        self.c11 = c11;
        self.c21 = c21;
        self.c12 = c12;
        self.c22 = c22;
        self.n += other.n;
    }

    /// Number of joint samples seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of the first coordinate.
    pub fn mean_x(&self) -> f64 {
        self.mean_x
    }

    /// Mean of the second coordinate.
    pub fn mean_y(&self) -> f64 {
        self.mean_y
    }

    /// Sample covariance numerator `C₁₁ / n` — the mean of the centered
    /// products, i.e. the population covariance.
    pub fn centered_product_mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.c11 / self.n as f64
        }
    }

    /// Population variance of the centered products
    /// `(C₂₂ − C₁₁²/n) / n` — the second ingredient of [`pair_welch_t`].
    pub fn centered_product_variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            let nf = self.n as f64;
            let m = self.c11 / nf;
            self.c22 / nf - m * m
        }
    }

    /// The raw accumulator state `(n, [mean_x, mean_y, C₂₀, C₀₂, C₁₁, C₂₁,
    /// C₁₂, C₂₂])` — the snapshot side of the distributed shard-state
    /// format. Together with [`PairMoments::from_raw_parts`] this
    /// round-trips the accumulator exactly (floats transported bit for
    /// bit), so a restored accumulator merges and reports identically to
    /// the original.
    pub fn raw_parts(&self) -> (u64, [f64; 8]) {
        (
            self.n,
            [
                self.mean_x,
                self.mean_y,
                self.c20,
                self.c02,
                self.c11,
                self.c21,
                self.c12,
                self.c22,
            ],
        )
    }

    /// Restores an accumulator from [`PairMoments::raw_parts`] state.
    pub fn from_raw_parts(n: u64, m: [f64; 8]) -> Self {
        PairMoments {
            n,
            mean_x: m[0],
            mean_y: m[1],
            c20: m[2],
            c02: m[3],
            c11: m[4],
            c21: m[5],
            c12: m[6],
            c22: m[7],
        }
    }
}

/// Centered-product Welch t-test from two folded [`PairMoments`] (fixed
/// class vs random class): the streaming equivalent of running
/// [`crate::welch::welch_t`] over the per-trace products
/// `(e₁ − μ₁)(e₂ − μ₂)`.
///
/// Degenerate inputs (fewer than 2 joint samples on a side, or a
/// non-positive standard error) yield `t = 0, dof = 0`, matching
/// [`crate::welch::welch_t`].
pub fn pair_welch_t(q0: &PairMoments, q1: &PairMoments) -> WelchResult {
    if q0.count() < 2 || q1.count() < 2 {
        return WelchResult { t: 0.0, dof: 0.0 };
    }
    let n0 = q0.count() as f64;
    let n1 = q1.count() as f64;
    // Unbiased sample variance of the centered products.
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

/// Why a multivariate (bivariate or trivariate) assessment rejected its
/// input.
///
/// These are *typed* errors rather than panics so hostile or mismatched
/// inputs (a gate index past the design, class buffers of unequal length, a
/// degenerate gate combination) surface as a distinct CLI exit code instead
/// of a crash — the same convention the distributed subsystem uses for
/// malformed shard files. The pair and triple engines share one error type
/// so both map to the same exit code.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MultivariateError {
    /// A requested gate index is outside the sampled design.
    GateOutOfRange {
        /// The offending gate index.
        gate: usize,
        /// Number of gates the samples (or netlist) cover.
        gates: usize,
    },
    /// The two gates' class buffers disagree on trace count, so no joint
    /// per-trace product exists.
    LengthMismatch {
        /// First gate of the pair.
        gate_a: usize,
        /// Second gate of the pair.
        gate_b: usize,
        /// Trace count of `gate_a`'s buffer.
        len_a: usize,
        /// Trace count of `gate_b`'s buffer.
        len_b: usize,
    },
    /// One entry names the same gate more than once (`A:A` or `A:B:A`) —
    /// the "joint" statistic would degenerate to a univariate power and the
    /// row would masquerade as a combination result.
    RepeatedGate {
        /// The gate index that repeats within the entry.
        gate: usize,
    },
    /// An entry duplicates an earlier one (in any order), which would burn
    /// an accumulator slot re-deriving the same statistic and emit the same
    /// row twice.
    DuplicateEntry {
        /// Position of the second occurrence in the requested list.
        index: usize,
    },
    /// The underlying simulation failed (unlevelizable design).
    Sim(NetlistError),
}

/// Pre-trivariate name for [`MultivariateError`], kept as an alias so
/// second-order callers keep compiling unchanged.
pub type BivariateError = MultivariateError;

impl std::fmt::Display for MultivariateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MultivariateError::GateOutOfRange { gate, gates } => {
                write!(f, "gate {gate} out of range: samples cover {gates} gates")
            }
            MultivariateError::LengthMismatch {
                gate_a,
                gate_b,
                len_a,
                len_b,
            } => write!(
                f,
                "gates {gate_a} and {gate_b} have mismatched class buffers \
                 ({len_a} vs {len_b} traces)"
            ),
            MultivariateError::RepeatedGate { gate } => write!(
                f,
                "gate {gate} repeats within one entry: a gate combined with \
                 itself carries no joint information"
            ),
            MultivariateError::DuplicateEntry { index } => write!(
                f,
                "entry {index} duplicates an earlier gate combination \
                 (order within an entry does not matter)"
            ),
            MultivariateError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl std::error::Error for MultivariateError {}

impl From<NetlistError> for MultivariateError {
    fn from(e: NetlistError) -> Self {
        MultivariateError::Sim(e)
    }
}

/// Streaming bivariate sink: one [`PairMoments`] per (gate-pair, class),
/// `O(gate-pairs)` memory regardless of trace count.
///
/// The accumulator is a [`MergeableSink`], so it rides every execution
/// strategy of the campaign engine unchanged — [`FleetJob::run`] threads and
/// fleet jobs via a sink factory, and distributed shard states —
/// with the usual guarantee: bit-identical results at any thread count,
/// lane width, or shard partitioning.
///
/// A default-constructed accumulator tracks no pairs (the identity the
/// shard fold needs); [`PairAccumulator::merge`] adopts the other side's
/// pair list when `self` is empty, mirroring the other sinks' lazy-shape
/// convention.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PairAccumulator {
    /// Tracked gate pairs as `(a, b)` gate indices.
    pairs: Vec<(u32, u32)>,
    fixed: Vec<PairMoments>,
    random: Vec<PairMoments>,
}

impl PairAccumulator {
    /// An accumulator tracking the given gate pairs (indices into the
    /// design's gate list).
    pub fn for_pairs(pairs: Vec<(u32, u32)>) -> Self {
        let fixed = vec![PairMoments::new(); pairs.len()];
        let random = vec![PairMoments::new(); pairs.len()];
        PairAccumulator {
            pairs,
            fixed,
            random,
        }
    }

    /// Reassembles an accumulator from its parts (the restore side of the
    /// distributed shard-state format).
    ///
    /// # Panics
    ///
    /// Panics if the class vectors do not match the pair list's length.
    pub fn from_parts(
        pairs: Vec<(u32, u32)>,
        fixed: Vec<PairMoments>,
        random: Vec<PairMoments>,
    ) -> Self {
        assert_eq!(pairs.len(), fixed.len(), "fixed moments shape mismatch");
        assert_eq!(pairs.len(), random.len(), "random moments shape mismatch");
        PairAccumulator {
            pairs,
            fixed,
            random,
        }
    }

    /// The tracked gate pairs, in recording order.
    pub fn pairs(&self) -> &[(u32, u32)] {
        &self.pairs
    }

    /// Number of tracked pairs.
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// The per-pair class accumulators, `(fixed, random)` — the snapshot
    /// side of the distributed shard-state format.
    pub fn class_moments(&self) -> (&[PairMoments], &[PairMoments]) {
        (&self.fixed, &self.random)
    }

    /// Centered-product Welch t per tracked pair, in recording order.
    pub fn results(&self) -> Vec<(GateId, GateId, WelchResult)> {
        self.pairs
            .iter()
            .zip(self.fixed.iter().zip(&self.random))
            .map(|(&(a, b), (f, r))| {
                (
                    GateId::new(a as usize),
                    GateId::new(b as usize),
                    pair_welch_t(f, r),
                )
            })
            .collect()
    }

    /// [`PairAccumulator::results`] sorted by descending `|t|` (NaN last,
    /// via the total order on `f64`).
    pub fn sweep(&self) -> Vec<(GateId, GateId, WelchResult)> {
        let mut out = self.results();
        sort_by_abs_t(&mut out);
        out
    }
}

/// Sorts pair results by descending `|t|` using [`f64::total_cmp`], so NaN
/// t-values order deterministically (last) instead of depending on the
/// comparison-failure fallback.
fn sort_by_abs_t(results: &mut [(GateId, GateId, WelchResult)]) {
    results.sort_by(|a, b| b.2.t.abs().total_cmp(&a.2.t.abs()));
}

impl TraceSink for PairAccumulator {
    /// Folds one SoA energy batch: for every tracked pair the two gates'
    /// lane rows stream through [`PairMoments::extend_batch`], so the hot
    /// path is two contiguous reads per pair with register-resident state.
    ///
    /// # Panics
    ///
    /// Panics if a tracked pair references a gate outside the batch —
    /// callers validate pair indices against the design before running a
    /// campaign (see [`assess_pairs`]).
    fn record_batch(&mut self, pop: Population, batch: EnergyBatch<'_>) {
        let store = match pop {
            Population::Fixed => &mut self.fixed,
            Population::Random => &mut self.random,
        };
        for (m, &(a, b)) in store.iter_mut().zip(&self.pairs) {
            m.extend_batch(batch.gate_lanes(a as usize), batch.gate_lanes(b as usize));
        }
    }
}

impl MergeableSink for PairAccumulator {
    /// Pairwise co-moment combination per (pair, class); an empty side is
    /// the identity (a default-constructed accumulator adopts `other`).
    fn merge(&mut self, other: Self) {
        if other.pairs.is_empty() {
            return;
        }
        if self.pairs.is_empty() {
            *self = other;
            return;
        }
        debug_assert_eq!(self.pairs, other.pairs, "pair list mismatch in merge");
        for (d, s) in self.fixed.iter_mut().zip(&other.fixed) {
            d.merge(s);
        }
        for (d, s) in self.random.iter_mut().zip(&other.random) {
            d.merge(s);
        }
    }
}

/// Validates a pair list against a design's gate count and rejects
/// degenerate entries: self-pairs (`A:A`) and duplicates of an earlier pair
/// in either orientation. Both the CLI and the distributed plan verifier
/// route through this one function, so coordinator and worker agree on what
/// a well-formed pair list is.
///
/// # Errors
///
/// Returns [`MultivariateError::GateOutOfRange`] for the first
/// out-of-design index, [`MultivariateError::RepeatedGate`] for the first
/// self-pair, and [`MultivariateError::DuplicateEntry`] for the first
/// repeat of an earlier entry.
pub fn validate_pairs(pairs: &[(u32, u32)], gates: usize) -> Result<(), MultivariateError> {
    let mut seen = std::collections::HashSet::with_capacity(pairs.len());
    for (index, &(a, b)) in pairs.iter().enumerate() {
        for g in [a as usize, b as usize] {
            if g >= gates {
                return Err(MultivariateError::GateOutOfRange { gate: g, gates });
            }
        }
        if a == b {
            return Err(MultivariateError::RepeatedGate { gate: a as usize });
        }
        if !seen.insert((a.min(b), a.max(b))) {
            return Err(MultivariateError::DuplicateEntry { index });
        }
    }
    Ok(())
}

/// All `i < j` pairs among `gates`, as gate-index pairs — the pair list of
/// an exhaustive sweep over a gate subset.
pub fn all_pairs(gates: &[GateId]) -> Vec<(u32, u32)> {
    let mut pairs = Vec::with_capacity(gates.len() * gates.len().saturating_sub(1) / 2);
    for (i, &g1) in gates.iter().enumerate() {
        for &g2 in &gates[i + 1..] {
            pairs.push((g1.index() as u32, g2.index() as u32));
        }
    }
    pairs
}

/// Runs a streaming bivariate sweep over `pairs` as one parallel campaign:
/// single pass over the traces, `O(gate-pairs)` memory, sorted by
/// descending `|t|`. Results are bit-identical at any thread count and lane
/// width, and equal to [`bivariate_sweep`] over dense samples of the same
/// campaign bit for bit.
///
/// # Errors
///
/// [`MultivariateError::GateOutOfRange`] if a pair references a gate outside
/// the design; [`MultivariateError::Sim`] if the design cannot be levelized.
pub fn assess_pairs(
    netlist: &Netlist,
    model: &PowerModel,
    config: &CampaignConfig,
    parallelism: Parallelism,
    pairs: &[(u32, u32)],
) -> Result<Vec<(GateId, GateId, WelchResult)>, BivariateError> {
    validate_pairs(pairs, netlist.gate_count())?;
    let outcome = FleetJob::new(netlist, model, config.clone())
        .with_sink_factory(|| PairAccumulator::for_pairs(pairs.to_vec()))
        .run(parallelism, &NullRecorder)?;
    Ok(outcome.sink.sweep())
}

/// Folds one gate pair's dense class buffers through the campaign engine's
/// exact computation DAG: [`TRACES_PER_SHARD`]-trace chunks accumulated in
/// trace order, merged left to right. This is what makes the dense
/// compatibility path bit-identical to the streaming sink — same samples,
/// same recurrences, same fold order.
fn class_pair_moments(xs: &[f64], ys: &[f64]) -> PairMoments {
    let mut acc = PairMoments::new();
    for (cx, cy) in xs.chunks(TRACES_PER_SHARD).zip(ys.chunks(TRACES_PER_SHARD)) {
        let mut m = PairMoments::new();
        m.extend_batch(cx, cy);
        acc.merge(&m);
    }
    acc
}

/// Bivariate second-order Welch t-test between the fixed and random classes
/// for the gate pair `(g1, g2)`, from dense samples.
///
/// Compatibility entry point for callers that already hold a
/// [`GateSamples`] matrix; computes the same co-moment fold as the
/// streaming engine (see [`PairAccumulator`]), so the result is bit-for-bit
/// identical to a streaming sweep of the same campaign.
///
/// # Errors
///
/// [`MultivariateError::GateOutOfRange`] if a gate is outside the samples;
/// [`MultivariateError::LengthMismatch`] if the two gates' class buffers
/// disagree on trace count.
pub fn bivariate_t(
    samples: &GateSamples,
    g1: GateId,
    g2: GateId,
) -> Result<WelchResult, BivariateError> {
    let gates = samples.gate_count();
    for g in [g1.index(), g2.index()] {
        if g >= gates {
            return Err(BivariateError::GateOutOfRange { gate: g, gates });
        }
    }
    for (e1, e2) in [
        (samples.fixed(g1), samples.fixed(g2)),
        (samples.random(g1), samples.random(g2)),
    ] {
        if e1.len() != e2.len() {
            return Err(BivariateError::LengthMismatch {
                gate_a: g1.index(),
                gate_b: g2.index(),
                len_a: e1.len(),
                len_b: e2.len(),
            });
        }
    }
    let fixed = class_pair_moments(samples.fixed(g1), samples.fixed(g2));
    let random = class_pair_moments(samples.random(g1), samples.random(g2));
    Ok(pair_welch_t(&fixed, &random))
}

/// Scans every pair among `gates` and returns `(g1, g2, result)` sorted by
/// descending `|t|` — the exhaustive bivariate sweep an evaluator runs on a
/// masked core. Dense compatibility wrapper over the co-moment engine; see
/// [`assess_pairs`] for the single-pass streaming equivalent.
///
/// # Errors
///
/// Propagates the first [`MultivariateError`] of any pair.
pub fn bivariate_sweep(
    samples: &GateSamples,
    gates: &[GateId],
) -> Result<Vec<(GateId, GateId, WelchResult)>, BivariateError> {
    let mut out = Vec::with_capacity(gates.len() * gates.len().saturating_sub(1) / 2);
    for (i, &g1) in gates.iter().enumerate() {
        for &g2 in &gates[i + 1..] {
            out.push((g1, g2, bivariate_t(samples, g1, g2)?));
        }
    }
    sort_by_abs_t(&mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moments::StreamingMoments;
    use polaris_sim::campaign::collect_gate_samples;

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

    /// Reference two-pass co-moments about the final means.
    fn naive(xs: &[f64], ys: &[f64]) -> (f64, f64, [f64; 6]) {
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let c = |p: i32, q: i32| {
            xs.iter()
                .zip(ys)
                .map(|(&x, &y)| (x - mx).powi(p) * (y - my).powi(q))
                .sum::<f64>()
        };
        (
            mx,
            my,
            [c(2, 0), c(0, 2), c(1, 1), c(2, 1), c(1, 2), c(2, 2)],
        )
    }

    fn assert_close(a: f64, b: f64, tol: f64, what: &str) {
        let scale = 1.0_f64.max(a.abs()).max(b.abs());
        assert!((a - b).abs() <= tol * scale, "{what}: {a} vs {b}");
    }

    #[test]
    fn closed_form_small_vector() {
        // xs = ys = [1,2,3,4]: C20 = C02 = C11 = 5, C21 = C12 = 0
        // (symmetric), C22 = Σ(x−2.5)⁴ = 2·(1.5⁴ + 0.5⁴) = 10.25.
        let mut m = PairMoments::new();
        m.extend_batch(&[1.0, 2.0, 3.0, 4.0], &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.count(), 4);
        let (_, c) = m.raw_parts();
        assert!((m.mean_x() - 2.5).abs() < 1e-15);
        assert!((m.mean_y() - 2.5).abs() < 1e-15);
        for (i, want) in [5.0, 5.0, 5.0, 0.0, 0.0, 10.25].iter().enumerate() {
            assert!((c[2 + i] - want).abs() < 1e-12, "C[{i}] = {}", c[2 + i]);
        }
        // Anti-correlated pair: C11 flips sign, C22 unchanged.
        let mut a = PairMoments::new();
        a.extend_batch(&[1.0, 2.0, 3.0, 4.0], &[4.0, 3.0, 2.0, 1.0]);
        let (_, ca) = a.raw_parts();
        assert!((ca[4] + 5.0).abs() < 1e-12, "C11 = {}", ca[4]);
        assert!((ca[7] - 10.25).abs() < 1e-12, "C22 = {}", ca[7]);
    }

    #[test]
    fn diagonal_matches_univariate_moments() {
        // On y = x the co-moments collapse onto the univariate central
        // moments: C20 = C02 = C11 = M2, C21 = C12 = M3, C22 = M4.
        let xs = pseudo_random(2000, 3);
        let mut pm = PairMoments::new();
        let mut sm = StreamingMoments::new();
        for &x in &xs {
            pm.push(x, x);
            sm.push(x);
        }
        let (_, m1, m2, m3, m4) = sm.raw_parts();
        let (_, c) = pm.raw_parts();
        assert_close(c[0], m1, 1e-12, "mean");
        for (i, m) in [m2, m2, m2, m3, m3, m4].iter().enumerate() {
            assert_close(c[2 + i], *m, 1e-9, "diagonal co-moment");
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
        let mut m = PairMoments::new();
        m.extend_batch(&xs, &ys);
        let (mx, my, c) = naive(&xs, &ys);
        assert_close(m.mean_x(), mx, 1e-12, "mean_x");
        assert_close(m.mean_y(), my, 1e-12, "mean_y");
        let (_, got) = m.raw_parts();
        for (i, want) in c.iter().enumerate() {
            assert_close(got[2 + i], *want, 1e-7, "co-moment");
        }
    }

    #[test]
    fn merge_matches_two_pass_at_any_split() {
        let xs = pseudo_random(3000, 7);
        let ys = pseudo_random(3000, 11);
        let (_, _, c_all) = naive(&xs, &ys);
        for split in [1usize, 17, 256, 1500, 2999] {
            let mut a = PairMoments::new();
            a.extend_batch(&xs[..split], &ys[..split]);
            let mut b = PairMoments::new();
            b.extend_batch(&xs[split..], &ys[split..]);
            a.merge(&b);
            assert_eq!(a.count(), 3000);
            let (_, got) = a.raw_parts();
            for (i, want) in c_all.iter().enumerate() {
                assert_close(got[2 + i], *want, 1e-7, "merged co-moment");
            }
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let xs = pseudo_random(100, 3);
        let ys = pseudo_random(100, 4);
        let mut m = PairMoments::new();
        m.extend_batch(&xs, &ys);
        let snapshot = m;
        m.merge(&PairMoments::new());
        assert_eq!(m, snapshot);
        let mut empty = PairMoments::new();
        empty.merge(&snapshot);
        assert_eq!(empty, snapshot);
    }

    #[test]
    fn extend_batch_is_bit_identical_to_sequential_push() {
        // Golden guarantee of the SoA hot path: the blocked update must
        // reproduce sequential push *exactly* (all nine raw fields, to the
        // bit) at every split — including resuming on top of scalar state.
        // This is what makes the lane width and batch cuts invisible.
        let xs = pseudo_random(4096, 99);
        let ys = pseudo_random(4096, 100);
        let mut scalar = PairMoments::new();
        for (&x, &y) in xs.iter().zip(&ys) {
            scalar.push(x, y);
        }
        let (n_a, c_a) = scalar.raw_parts();
        for split in [0usize, 1, 63, 64, 65, 1000, 4096] {
            let mut blocked = PairMoments::new();
            for (&x, &y) in xs[..split].iter().zip(&ys[..split]) {
                blocked.push(x, y);
            }
            blocked.extend_batch(&xs[split..], &ys[split..]);
            let (n_b, c_b) = blocked.raw_parts();
            assert_eq!(n_a, n_b, "split {split}");
            for (i, (a, b)) in c_a.iter().zip(&c_b).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "split {split} field {i}");
            }
        }
    }

    #[test]
    fn raw_parts_round_trip_exactly() {
        let mut m = PairMoments::new();
        m.extend_batch(&pseudo_random(500, 1), &pseudo_random(500, 2));
        let (n, c) = m.raw_parts();
        let restored = PairMoments::from_raw_parts(n, c);
        assert_eq!(m, restored);
    }

    #[test]
    fn pair_welch_t_matches_naive_centered_products() {
        // The co-moment t must agree (to fp tolerance) with literally
        // centering on the class means and running Welch over the products.
        let f1 = pseudo_random(800, 21);
        let f2 = pseudo_random(800, 22);
        let r1: Vec<f64> = pseudo_random(900, 23).iter().map(|x| x + 0.2).collect();
        let r2 = pseudo_random(900, 24);
        let center = |e1: &[f64], e2: &[f64]| -> Vec<f64> {
            let n = e1.len() as f64;
            let m1 = e1.iter().sum::<f64>() / n;
            let m2 = e2.iter().sum::<f64>() / n;
            e1.iter()
                .zip(e2)
                .map(|(&a, &b)| (a - m1) * (b - m2))
                .collect()
        };
        let want = crate::welch::welch_t_slices(&center(&f1, &f2), &center(&r1, &r2));
        let mut qf = PairMoments::new();
        qf.extend_batch(&f1, &f2);
        let mut qr = PairMoments::new();
        qr.extend_batch(&r1, &r2);
        let got = pair_welch_t(&qf, &qr);
        assert_close(got.t, want.t, 1e-9, "t");
        assert_close(got.dof, want.dof, 1e-9, "dof");
    }

    #[test]
    fn pair_welch_t_degenerate_inputs() {
        let mut one = PairMoments::new();
        one.push(1.0, 2.0);
        let mut many = PairMoments::new();
        many.extend_batch(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]);
        assert_eq!(pair_welch_t(&one, &many), WelchResult { t: 0.0, dof: 0.0 });
        // Constant products on both sides: se² = 0.
        let mut ca = PairMoments::new();
        ca.extend_batch(&[2.0, 2.0, 2.0], &[5.0, 5.0, 5.0]);
        let mut cb = PairMoments::new();
        cb.extend_batch(&[1.0, 1.0], &[4.0, 4.0]);
        assert_eq!(pair_welch_t(&ca, &cb), WelchResult { t: 0.0, dof: 0.0 });
    }

    #[test]
    fn dense_entry_points_reject_bad_input() {
        let samples = GateSamples::from_classes(
            vec![vec![1.0, 2.0], vec![1.0]],
            vec![vec![0.5, 0.5], vec![0.5, 0.5]],
        );
        let g = |i: usize| GateId::new(i);
        assert_eq!(
            bivariate_t(&samples, g(0), g(5)).unwrap_err(),
            BivariateError::GateOutOfRange { gate: 5, gates: 2 }
        );
        assert_eq!(
            bivariate_t(&samples, g(0), g(1)).unwrap_err(),
            BivariateError::LengthMismatch {
                gate_a: 0,
                gate_b: 1,
                len_a: 2,
                len_b: 1
            }
        );
        assert!(bivariate_sweep(&samples, &[g(0), g(1)]).is_err());
        assert!(validate_pairs(&[(0, 2)], 2).is_err());
        assert!(validate_pairs(&[(0, 1)], 2).is_ok());
        // Errors render.
        let e = BivariateError::GateOutOfRange { gate: 5, gates: 2 };
        assert!(e.to_string().contains("out of range"));
    }

    #[test]
    fn sink_reproduces_direct_accumulation() {
        // A PairAccumulator fed EnergyBatches must hold exactly the moments
        // of extending the pair rows directly.
        let gates = 3;
        let lanes = 4;
        let energies: Vec<f64> = pseudo_random(gates * lanes, 55);
        let batch = EnergyBatch::new(&energies, gates, lanes).unwrap();
        let mut sink = PairAccumulator::for_pairs(vec![(0, 2), (1, 2)]);
        sink.record_batch(Population::Fixed, batch);
        sink.record_batch(Population::Random, batch);
        for (k, &(a, b)) in [(0u32, 2u32), (1, 2)].iter().enumerate() {
            let mut want = PairMoments::new();
            want.extend_batch(batch.gate_lanes(a as usize), batch.gate_lanes(b as usize));
            let (fixed, random) = sink.class_moments();
            assert_eq!(fixed[k], want);
            assert_eq!(random[k], want);
        }
    }

    #[test]
    fn sink_merge_has_empty_identity() {
        let mut a = PairAccumulator::for_pairs(vec![(0, 1)]);
        let e = vec![1.0, 2.0, 3.0, 4.0];
        a.record_batch(Population::Fixed, EnergyBatch::new(&e, 2, 2).unwrap());
        let snapshot = a.clone();
        a.merge(PairAccumulator::default());
        assert_eq!(a, snapshot);
        let mut empty = PairAccumulator::default();
        empty.merge(snapshot.clone());
        assert_eq!(empty, snapshot);
    }

    #[test]
    fn independent_gates_show_no_bivariate_leakage() {
        // Two xors of independent fresh masks: no pair carries joint
        // data-dependence.
        let src = "
module m (a, b, m0, m1, y0, y1);
  input a, b;
  mask_input m0, m1;
  output y0, y1;
  xor g0 (y0, a, m0);
  xor g1 (y1, b, m1);
endmodule";
        let n = polaris_netlist::parse_netlist(src).unwrap();
        let cfg = CampaignConfig::new(3000, 3000, 5);
        let model = PowerModel::default().with_noise(0.05);
        let samples = collect_gate_samples(&n, &model, &cfg).unwrap();
        let cells = n.cell_ids();
        let r = bivariate_t(&samples, cells[0], cells[1]).unwrap();
        assert!(
            r.t.abs() < crate::TVLA_THRESHOLD,
            "independent masked gates must pass: |t| = {:.2}",
            r.t.abs()
        );
    }

    #[test]
    fn shared_mask_pair_leaks_bivariately() {
        // The classic 2nd-order situation: y0 = a ⊕ m, y1 = m. Neither gate
        // leaks first-order, but their joint statistics reveal `a`.
        let src = "
module m (a, m0, y0, y1);
  input a;
  mask_input m0;
  output y0, y1;
  xor g0 (y0, a, m0);
  buf g1 (y1, m0);
endmodule";
        let n = polaris_netlist::parse_netlist(src).unwrap();
        let cfg = CampaignConfig::new(4000, 4000, 7).with_fixed_vector(vec![true]);
        let model = PowerModel::default().with_noise(0.05);
        let samples = collect_gate_samples(&n, &model, &cfg).unwrap();
        let cells = n.cell_ids();
        // First order: both clean.
        let first = crate::assess(&n, &model, &cfg).unwrap();
        for &c in &cells {
            assert!(
                first.abs_t(c) < crate::TVLA_THRESHOLD,
                "gate should be first-order clean: {:.2}",
                first.abs_t(c)
            );
        }
        // Second order: the pair leaks — on the dense path…
        let r = bivariate_t(&samples, cells[0], cells[1]).unwrap();
        assert!(
            r.t.abs() > crate::TVLA_THRESHOLD,
            "shared-mask pair must fail bivariate TVLA: |t| = {:.2}",
            r.t.abs()
        );
        // …and bit-identically on the streaming path.
        let streaming = assess_pairs(
            &n,
            &model,
            &cfg,
            Parallelism::sequential(),
            &all_pairs(&cells),
        )
        .unwrap();
        let (_, _, sr) = streaming
            .iter()
            .find(|(a, b, _)| (*a, *b) == (cells[0], cells[1]))
            .unwrap();
        assert_eq!(sr.t.to_bits(), r.t.to_bits());
        assert_eq!(sr.dof.to_bits(), r.dof.to_bits());
    }

    #[test]
    fn sweep_orders_by_magnitude() {
        let src = "
module m (a, m0, y0, y1, y2);
  input a;
  mask_input m0;
  output y0, y1, y2;
  xor g0 (y0, a, m0);
  buf g1 (y1, m0);
  not g2 (y2, m0);
endmodule";
        let n = polaris_netlist::parse_netlist(src).unwrap();
        let cfg = CampaignConfig::new(1500, 1500, 7).with_fixed_vector(vec![true]);
        let model = PowerModel::default().with_noise(0.05);
        let samples = collect_gate_samples(&n, &model, &cfg).unwrap();
        let sweep = bivariate_sweep(&samples, &n.cell_ids()).unwrap();
        assert_eq!(sweep.len(), 3);
        for w in sweep.windows(2) {
            assert!(w[0].2.t.abs() >= w[1].2.t.abs());
        }
    }
}
