//! Higher-order (multivariate) TVLA — one streaming co-moment engine for
//! every order.
//!
//! A d-th-order masked implementation forces the adversary to *combine*
//! d + 1 probe points. The order-K test therefore preprocesses each trace
//! into the product of K class-centered samples,
//! `y = (e₁ − μ₁)(e₂ − μ₂)…(e_K − μ_K)`, and runs Welch's t-test between
//! the fixed and random classes (Schneider–Moradi §4.2). Against the
//! crate's gate-level samples the probe points are K gates' energies: a
//! first-order (2-share) Trichina composite has gate *pairs* whose joint
//! statistics are data-dependent, a second-order (3-share) ISW composite
//! passes every pair and fails only at gate *triples*.
//!
//! # Streaming, mergeable co-moments
//!
//! The naive formulation needs the class means before it can center, so it
//! buffers `O(traces)` samples per gate and makes two passes.
//! [`CoMoments<K>`] instead maintains the central co-moments
//! `C_α = Σ Π_i (x_i − μ_i)^{α_i}` about the *running* means for every
//! multi-index α with `α_i ≤ 2` and `|α| ≥ 2` — 6 sums for K = 2, 23 for
//! K = 3. The tracked α are kept in **lexicographic order**; that one order
//! is the kernel's iteration order, the layout of
//! [`CoMoments::raw_parts`] and the wire order of the distributed
//! shard-state format.
//!
//! Central co-moments about a shifted mean are a binomial convolution of
//! the co-moments about the old mean (the recentering identity):
//!
//! ```text
//! C'_α = Σ_{β ≤ α} Π_i C(α_i, β_i) · (μ_i − μ'_i)^{α_i − β_i} · C_β
//! ```
//!
//! with the virtual entries `C_0 = n` and `C_β = 0` for `|β| = 1` (central
//! first moments vanish). Merging two accumulators recenters both sides
//! about the combined mean and adds; pushing one sample is a merge with the
//! singleton whose only non-zero entry is `C_0 = 1`. The terms of the
//! convolution — output α, source β, coefficient `Π_i C(α_i, β_i)` and
//! per-coordinate exponent `α − β` — depend only on K, so they are tabulated
//! once per order at compile time, in lexicographic order of α and then β.
//! The kernel walks that table in that fixed order, so any fixed sequence of
//! pushes and merges produces the same bits on every thread count, lane
//! width and shard partitioning, which the campaign engine's shard-ordered
//! fold relies on.
//!
//! The t-test needs only two of the sums: `C_{1…1}` and `C_{2…2}`
//! (`mean = C_{1…1}/n`, `Σ (p − p̄)² = C_{2…2} − C_{1…1}²/n`). The others —
//! the odd co-moments such as `C₂₁` included — are carried because the
//! recentering of `C_{2…2}` consumes every `C_β` with `β ≤ (2, …, 2)`:
//! dropping any of them would make the accumulator non-mergeable. A whole
//! order-K sweep therefore runs single-pass in `O(gate-sets)` memory,
//! sharded and merged bit-identically like every other [`MergeableSink`]
//! (see [`CoMomentAccumulator`]).

use std::fmt;

use polaris_netlist::{GateId, Netlist, NetlistError};
use polaris_obs::NullRecorder;
use polaris_sim::campaign::{
    CampaignConfig, EnergyBatch, MergeableSink, Parallelism, Population, TraceSink,
};
use polaris_sim::fleet::FleetJob;
use polaris_sim::power::PowerModel;

use crate::welch::WelchResult;

/// Highest order the term tables are sized for.
const MAX_ORDER: usize = 3;
/// Exponent vectors `e ∈ {0, 1, 2}^K` at [`MAX_ORDER`].
const MAX_CELLS: usize = 27;
/// Recentering terms at [`MAX_ORDER`].
const MAX_TERMS: usize = 158;
/// Tracked co-moments at [`MAX_ORDER`].
const MAX_TRACKED: usize = tracked_len(MAX_ORDER);

/// Number of tracked co-moments of order `order`: every α in
/// `{0, 1, 2}^order` except the `1 + order` of degree below 2.
const fn tracked_len(order: usize) -> usize {
    3usize.pow(order as u32) - 1 - order
}

/// The co-moment order `K`: the number of probe points one sample combines.
pub struct Order<const K: usize>;

/// An order the engine is instantiated for: the storage of its tracked
/// co-moments and its recentering table.
pub trait SupportedOrder {
    /// One `f64` per tracked co-moment, in lexicographic order of α.
    type Terms: Copy + Default + fmt::Debug + PartialEq + Send + Sync + AsRef<[f64]> + AsMut<[f64]>;
    /// The recentering terms of this order.
    const TABLE: &'static TermTable;
}

impl SupportedOrder for Order<2> {
    type Terms = [f64; tracked_len(2)];
    const TABLE: &'static TermTable = &TermTable::build(2);
}

impl SupportedOrder for Order<3> {
    type Terms = [f64; tracked_len(3)];
    const TABLE: &'static TermTable = &TermTable::build(3);
}

/// One term of the recentering convolution of an output co-moment `C'_α`:
/// `coeff · (w_a[weight] · C_a[src] + w_b[weight] · C_b[src])`.
#[derive(Clone, Copy, Debug)]
struct Term {
    /// Source multi-index β: 0 for the virtual count `C_0 = n`, `s + 1` for
    /// tracked slot `s`.
    src: u8,
    /// Base-3 index (first coordinate most significant) of the exponent
    /// vector `α − β` into a side's weight table.
    weight: u8,
    /// `Π_i C(α_i, β_i)`.
    coeff: f64,
}

/// The recentering terms of one order (see the module docs), built at
/// compile time.
#[derive(Debug)]
pub struct TermTable {
    /// Tracked slot of `α = (1, …, 1)`.
    ones: usize,
    /// The terms of every tracked α in turn, each α's starting with the
    /// virtual count (β = 0).
    terms: [Term; MAX_TERMS],
    /// One past the last term of each tracked slot.
    ends: [u8; MAX_TRACKED],
}

/// Digit `i` (first coordinate most significant) of `cell` in base 3.
const fn digit(cell: usize, i: usize, order: usize) -> usize {
    cell / 3usize.pow((order - 1 - i) as u32) % 3
}

/// Total degree `|α|` of the multi-index encoded by `cell`.
const fn degree(cell: usize, order: usize) -> usize {
    let (mut sum, mut i) = (0, 0);
    while i < order {
        sum += digit(cell, i, order);
        i += 1;
    }
    sum
}

impl TermTable {
    const fn build(order: usize) -> Self {
        assert!(
            order >= 2 && order <= MAX_ORDER,
            "unsupported co-moment order"
        );
        let cells = 3usize.pow(order as u32);
        // Tracked slots, assigned in lexicographic (= base-3 counting) order.
        let mut slot = [u8::MAX; MAX_CELLS];
        let (mut tracked, mut ones, mut cell) = (0, 0, 0);
        while cell < cells {
            if degree(cell, order) >= 2 {
                if cell == (cells - 1) / 2 {
                    ones = tracked; // (1, …, 1) is the middle cell
                }
                slot[cell] = tracked as u8;
                tracked += 1;
            }
            cell += 1;
        }
        let blank = Term {
            src: 0,
            weight: 0,
            coeff: 0.0,
        };
        let mut terms = [blank; MAX_TERMS];
        let mut ends = [0u8; MAX_TRACKED];
        let (mut len, mut alpha) = (0, 0);
        while alpha < cells {
            if slot[alpha] != u8::MAX {
                // Every β ≤ α except the vanishing |β| = 1, in lexicographic
                // order.
                let mut beta = 0;
                while beta < cells {
                    let (mut below, mut coeff, mut weight, mut i) = (true, 1, 0, 0);
                    while i < order {
                        let (a, b) = (digit(alpha, i, order), digit(beta, i, order));
                        below &= b <= a;
                        coeff *= if a == 2 && b == 1 { 2 } else { 1 };
                        weight = weight * 3 + a.saturating_sub(b);
                        i += 1;
                    }
                    if below && degree(beta, order) != 1 {
                        terms[len] = Term {
                            src: if beta == 0 { 0 } else { slot[beta] + 1 },
                            weight: weight as u8,
                            coeff: coeff as f64,
                        };
                        len += 1;
                    }
                    beta += 1;
                }
                ends[slot[alpha] as usize] = len as u8;
            }
            alpha += 1;
        }
        TermTable { ones, terms, ends }
    }
}

/// A side's weight table: `w[e] = Π_i g[i][e_i]` for every exponent vector
/// `e` (base-3 index, first coordinate most significant), multiplied in
/// coordinate order. `g[i][k]` is the k-th power of the side's offset from
/// the combined mean in coordinate `i`.
#[inline]
fn weights<const K: usize>(g: &[[f64; 3]; K]) -> [f64; MAX_CELLS] {
    let mut w = [0.0; MAX_CELLS];
    w[0] = 1.0;
    let mut len = 1;
    for gi in g {
        // Expand in place from the top so every prefix is read before it is
        // overwritten.
        for j in (0..len).rev() {
            let prefix = w[j];
            for e in (0..3).rev() {
                w[j * 3 + e] = prefix * gi[e];
            }
        }
        len *= 3;
    }
    w
}

/// Streaming accumulator for the order-`K` central co-moments through
/// degree `(2, …, 2)` — see the module docs for the recentering algebra.
///
/// Like [`crate::moments::StreamingMoments`], the accumulator is exact in
/// infinite precision and deterministic in floating point: any fixed
/// sequence of pushes and merges produces the same bits on every thread
/// count and lane width.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CoMoments<const K: usize>
where
    Order<K>: SupportedOrder,
{
    n: u64,
    mean: [f64; K],
    c: <Order<K> as SupportedOrder>::Terms,
}

impl<const K: usize> Default for CoMoments<K>
where
    Order<K>: SupportedOrder,
{
    fn default() -> Self {
        CoMoments {
            n: 0,
            mean: [0.0; K],
            c: Default::default(),
        }
    }
}

impl<const K: usize> CoMoments<K>
where
    Order<K>: SupportedOrder,
{
    /// Number of `f64` words in [`CoMoments::raw_parts`]: K means, then the
    /// tracked co-moments.
    pub const RAW_LEN: usize = K + tracked_len(K);

    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one joint sample — an exact merge with the singleton
    /// accumulator `{sample}`, whose only non-zero co-moment is the virtual
    /// `C_0 = 1`.
    #[inline]
    pub fn push_sample(&mut self, sample: [f64; K]) {
        self.merge(&CoMoments {
            n: 1,
            mean: sample,
            c: Default::default(),
        });
    }

    /// Batch update: pushes the joint sample `(columns[0][i], …,
    /// columns[K−1][i])` for every `i` in order, on a local copy of the
    /// accumulator written back once — the SoA entry point of
    /// [`CoMomentAccumulator::record_batch`]. Bit-for-bit identical to
    /// sequential pushes at any batch cut, so the lane width never affects
    /// results.
    ///
    /// # Panics
    ///
    /// Debug-asserts the columns align; in release builds the shortest
    /// column bounds the update.
    pub fn extend_batch(&mut self, columns: [&[f64]; K]) {
        let len = columns.iter().map(|c| c.len()).min().unwrap_or(0);
        debug_assert!(
            columns.iter().all(|c| c.len() == len),
            "joint sample slices must align"
        );
        let mut acc = *self;
        for i in 0..len {
            acc.push_sample(columns.map(|c| c[i]));
        }
        *self = acc;
    }

    /// Merges another accumulator into this one (parallel combination à la
    /// Chan/Pébay, generalized to K variables). Empty sides are identities:
    /// merging an empty `other` is a no-op, and merging into an empty `self`
    /// adopts `other` bit for bit — exactly the behavior the shard-ordered
    /// campaign fold requires when a shard only saw one population.
    #[inline(always)]
    pub fn merge(&mut self, other: &Self) {
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
        let mut ga = [[0.0f64; 3]; K];
        let mut gb = [[0.0f64; 3]; K];
        for i in 0..K {
            let delta = other.mean[i] - self.mean[i];
            let shift = delta * nb / n; // combined mean − self mean
            let a = -shift;
            let b = delta - shift; // other mean − combined mean
            ga[i] = [1.0, a, a * a];
            gb[i] = [1.0, b, b * b];
            self.mean[i] += shift;
        }
        let (wa, wb) = (weights(&ga), weights(&gb));
        let table = <Order<K> as SupportedOrder>::TABLE;
        let (ca, cb) = (self.c.as_ref(), other.c.as_ref());
        let mut out = <Order<K> as SupportedOrder>::Terms::default();
        let mut start = 0;
        for (slot, &end) in out.as_mut().iter_mut().zip(&table.ends) {
            let mut acc = 0.0;
            for t in &table.terms[start..end as usize] {
                let (xa, xb) = match t.src as usize {
                    0 => (na, nb),
                    s => (ca[s - 1], cb[s - 1]),
                };
                let w = t.weight as usize;
                acc += t.coeff * (wa[w] * xa + wb[w] * xb);
            }
            *slot = acc;
            start = end as usize;
        }
        self.c = out;
        self.n += other.n;
    }

    /// Number of joint samples seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The coordinate means.
    pub fn means(&self) -> [f64; K] {
        self.mean
    }

    /// Mean of the centered products, `C_{1…1} / n` — for K = 2 the
    /// population covariance.
    pub fn centered_product_mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.c.as_ref()[<Order<K> as SupportedOrder>::TABLE.ones] / self.n as f64
        }
    }

    /// Population variance of the centered products,
    /// `(C_{2…2} − C_{1…1}²/n) / n` — the second ingredient of
    /// [`co_moment_welch_t`].
    pub fn centered_product_variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            let c = self.c.as_ref();
            let nf = self.n as f64;
            let m = self.centered_product_mean();
            // (2, …, 2) is the last multi-index in lexicographic order.
            c[c.len() - 1] / nf - m * m
        }
    }

    /// The raw accumulator state: `n`, then [`CoMoments::RAW_LEN`] words —
    /// the K means followed by the tracked co-moments in lexicographic
    /// order of α. The snapshot side of the distributed shard-state format:
    /// with [`CoMoments::from_raw_parts`] it round-trips the accumulator
    /// exactly (floats transported bit for bit).
    pub fn raw_parts(&self) -> (u64, Vec<f64>) {
        let mut words = Vec::with_capacity(Self::RAW_LEN);
        words.extend_from_slice(&self.mean);
        words.extend_from_slice(self.c.as_ref());
        (self.n, words)
    }

    /// Restores an accumulator from [`CoMoments::raw_parts`] state.
    ///
    /// # Panics
    ///
    /// Panics unless `words` holds exactly [`CoMoments::RAW_LEN`] values.
    pub fn from_raw_parts(n: u64, words: &[f64]) -> Self {
        assert_eq!(words.len(), Self::RAW_LEN, "raw co-moment state length");
        let mut m = Self {
            n,
            ..Self::default()
        };
        m.mean.copy_from_slice(&words[..K]);
        m.c.as_mut().copy_from_slice(&words[K..]);
        m
    }
}

/// Centered-product Welch t-test from two folded [`CoMoments`] (fixed class
/// vs random class): the streaming equivalent of running
/// [`crate::welch::welch_t`] over the per-trace products
/// `(e₁ − μ₁)…(e_K − μ_K)`.
///
/// Degenerate inputs (fewer than 2 joint samples on a side, or a
/// non-positive standard error) yield `t = 0, dof = 0`, matching
/// [`crate::welch::welch_t`].
pub fn co_moment_welch_t<const K: usize>(q0: &CoMoments<K>, q1: &CoMoments<K>) -> WelchResult
where
    Order<K>: SupportedOrder,
{
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

/// Why a multivariate assessment rejected its input.
///
/// These are *typed* errors rather than panics so hostile inputs (a gate
/// index past the design, a degenerate gate combination) surface as a
/// distinct CLI exit code instead of a crash — the same convention the
/// distributed subsystem uses for malformed shard files. Every order shares
/// this one error type, so every order maps to the same exit code.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MultivariateError {
    /// A requested gate index is outside the sampled design.
    GateOutOfRange {
        /// The offending gate index.
        gate: usize,
        /// Number of gates the netlist covers.
        gates: usize,
    },
    /// An entry names a number of gates other than the sweep's order.
    WrongArity {
        /// Position of the entry in the requested list.
        index: usize,
        /// Gates per entry the sweep combines.
        order: usize,
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

impl fmt::Display for MultivariateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MultivariateError::GateOutOfRange { gate, gates } => {
                write!(f, "gate {gate} out of range: samples cover {gates} gates")
            }
            MultivariateError::WrongArity { index, order } => {
                write!(f, "entry {index} does not name exactly {order} gates")
            }
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

/// What a gate set of `order` gates is called in flags, manifest keys and
/// messages: `pair`, `triple`.
pub fn set_noun(order: usize) -> &'static str {
    match order {
        2 => "pair",
        3 => "triple",
        _ => "gate set",
    }
}

/// Parses a gate-set list — comma-separated entries of `order`
/// colon-separated gate indices (`A:B,C:D` for pairs, `A:B:C` for
/// triples). The one parser behind `--pair-gates`, `--triple-gates` and the
/// plan-manifest keys of the same names.
///
/// # Errors
///
/// A message naming the first entry with the wrong number of fields or the
/// first index that is not a `u32`.
pub fn parse_gate_sets(spec: &str, order: usize) -> Result<Vec<Vec<u32>>, String> {
    spec.split(',')
        .map(|entry| {
            let fields: Vec<&str> = entry.split(':').collect();
            if fields.len() != order {
                let pattern: Vec<String> = ('A'..='Z').take(order).map(String::from).collect();
                return Err(format!(
                    "bad {} entry `{entry}` (expected {} gate indices)",
                    set_noun(order),
                    pattern.join(":")
                ));
            }
            fields
                .iter()
                .map(|v| v.parse().map_err(|_| format!("bad gate index `{v}`")))
                .collect()
        })
        .collect()
}

/// Validates a gate-set list against a design's gate count and rejects
/// degenerate entries: the wrong number of gates, a gate repeated within
/// one entry, and duplicates of an earlier entry in any order. The CLI and
/// the distributed plan verifier route every order through this one
/// function, so coordinator and worker agree on what a well-formed list is.
///
/// # Errors
///
/// The first [`MultivariateError::WrongArity`],
/// [`MultivariateError::GateOutOfRange`],
/// [`MultivariateError::RepeatedGate`] (the first gate, in entry order, that
/// appears again later in its entry) or
/// [`MultivariateError::DuplicateEntry`], checked entry by entry.
pub fn validate_gate_sets<S: AsRef<[u32]>>(
    order: usize,
    sets: &[S],
    gates: usize,
) -> Result<(), MultivariateError> {
    let mut seen = std::collections::HashSet::with_capacity(sets.len());
    for (index, set) in sets.iter().enumerate() {
        let set = set.as_ref();
        if set.len() != order {
            return Err(MultivariateError::WrongArity { index, order });
        }
        if let Some(&g) = set.iter().find(|&&g| g as usize >= gates) {
            return Err(MultivariateError::GateOutOfRange {
                gate: g as usize,
                gates,
            });
        }
        for (i, &g) in set.iter().enumerate() {
            if set[i + 1..].contains(&g) {
                return Err(MultivariateError::RepeatedGate { gate: g as usize });
            }
        }
        let mut key = set.to_vec();
        key.sort_unstable();
        if !seen.insert(key) {
            return Err(MultivariateError::DuplicateEntry { index });
        }
    }
    Ok(())
}

/// Every combination of `order` gates from `gates` (positions ascending,
/// in lexicographic order), as gate-index sets — the list of an exhaustive
/// sweep over a gate subset. Grows as `O(n^order)`; sweep a shortlist
/// (e.g. the leakiest cells), not a whole ISCAS design.
pub fn all_gate_sets(gates: &[GateId], order: usize) -> Vec<Vec<u32>> {
    let mut sets = Vec::new();
    if order == 0 || order > gates.len() {
        return sets;
    }
    let mut pick: Vec<usize> = (0..order).collect();
    loop {
        sets.push(pick.iter().map(|&p| gates[p].index() as u32).collect());
        // Advance the rightmost position that still has room.
        let Some(i) = (0..order)
            .rev()
            .find(|&i| pick[i] < gates.len() - order + i)
        else {
            return sets;
        };
        pick[i] += 1;
        for j in i + 1..order {
            pick[j] = pick[j - 1] + 1;
        }
    }
}

/// Streaming order-`K` sink: one [`CoMoments`] per (gate set, class),
/// `O(gate-sets)` memory regardless of trace count.
///
/// The accumulator is a [`MergeableSink`], so it rides every execution
/// strategy of the campaign engine unchanged — [`FleetJob::run`] threads and
/// fleet jobs via a sink factory, and distributed shard states — with the
/// usual guarantee: bit-identical results at any thread count, lane width,
/// or shard partitioning.
///
/// A default-constructed accumulator tracks no gate sets (the identity the
/// shard fold needs); [`MergeableSink::merge`] adopts the other side's list
/// when `self` is empty, mirroring the other sinks' lazy-shape convention.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CoMomentAccumulator<const K: usize>
where
    Order<K>: SupportedOrder,
{
    sets: Vec<[u32; K]>,
    fixed: Vec<CoMoments<K>>,
    random: Vec<CoMoments<K>>,
    /// The distinct gates of `sets`, ascending.
    tracked: Vec<u32>,
    /// The lane rows of `tracked`'s gates, in its order, for the block
    /// being recorded when one of its gate sets spans batches; held until
    /// the block's last tracked gate arrives, empty between blocks.
    stash: Vec<f64>,
}

/// The distinct gates of `sets`, ascending.
fn tracked_gates<const K: usize>(sets: &[[u32; K]]) -> Vec<u32> {
    let mut gates: Vec<u32> = sets.iter().flatten().copied().collect();
    gates.sort_unstable();
    gates.dedup();
    gates
}

impl<const K: usize> CoMomentAccumulator<K>
where
    Order<K>: SupportedOrder,
{
    /// An accumulator tracking the given gate sets (indices into the
    /// design's gate list).
    ///
    /// # Panics
    ///
    /// Panics if an entry does not name exactly `K` gates — run
    /// [`validate_gate_sets`] on untrusted lists first.
    pub fn new<S: AsRef<[u32]>>(sets: &[S]) -> Self {
        let sets: Vec<[u32; K]> = sets
            .iter()
            .map(|s| s.as_ref().try_into().expect("gate set of the sink's order"))
            .collect();
        let empty = vec![CoMoments::new(); sets.len()];
        CoMomentAccumulator {
            fixed: empty.clone(),
            random: empty,
            tracked: tracked_gates(&sets),
            stash: Vec::new(),
            sets,
        }
    }

    /// Reassembles an accumulator from its parts (the restore side of the
    /// distributed shard-state format).
    ///
    /// # Panics
    ///
    /// Panics if the class vectors do not match the gate-set list's length.
    pub fn from_parts(
        sets: Vec<[u32; K]>,
        fixed: Vec<CoMoments<K>>,
        random: Vec<CoMoments<K>>,
    ) -> Self {
        assert_eq!(sets.len(), fixed.len(), "fixed moments shape mismatch");
        assert_eq!(sets.len(), random.len(), "random moments shape mismatch");
        CoMomentAccumulator {
            tracked: tracked_gates(&sets),
            stash: Vec::new(),
            sets,
            fixed,
            random,
        }
    }

    /// The tracked gate sets, in recording order.
    pub fn gate_sets(&self) -> &[[u32; K]] {
        &self.sets
    }

    /// The per-set class accumulators, `(fixed, random)` — the snapshot
    /// side of the distributed shard-state format.
    pub fn class_moments(&self) -> (&[CoMoments<K>], &[CoMoments<K>]) {
        (&self.fixed, &self.random)
    }

    /// Centered-product Welch t per tracked gate set, in recording order.
    pub fn rows(&self) -> Vec<([GateId; K], WelchResult)> {
        self.sets
            .iter()
            .zip(self.fixed.iter().zip(&self.random))
            .map(|(set, (f, r))| {
                (
                    set.map(|g| GateId::new(g as usize)),
                    co_moment_welch_t(f, r),
                )
            })
            .collect()
    }

    /// [`CoMomentAccumulator::rows`] sorted by descending `|t|` (NaN last,
    /// via the total order on `f64`; ties keep recording order).
    pub fn sweep(&self) -> Vec<([GateId; K], WelchResult)> {
        let mut rows = self.rows();
        rows.sort_by(|a, b| b.1.t.abs().total_cmp(&a.1.t.abs()));
        rows
    }
}

impl<const K: usize> TraceSink for CoMomentAccumulator<K>
where
    Order<K>: SupportedOrder,
{
    /// Folds one SoA energy batch: for every tracked set the K gates' lane
    /// rows stream through [`CoMoments::extend_batch`], so the hot path is K
    /// contiguous reads per set with the accumulator state in a local.
    ///
    /// The engine emits a block in gate chunks (see the [`TraceSink`]
    /// contract), and one set's gates may lie in different chunks: the
    /// tracked rows are copied aside until the chunk holding the last of
    /// them arrives, and the block's sets are folded then. Every set sees
    /// the block's rows whole, so the state does not depend on the
    /// chunking.
    ///
    /// # Panics
    ///
    /// Panics if a tracked set names a gate outside the batch's design —
    /// callers validate indices against the design before running a
    /// campaign (see [`assess_gate_sets`]).
    fn record_batch(&mut self, pop: Population, batch: EnergyBatch<'_>) {
        let CoMomentAccumulator {
            sets,
            fixed,
            random,
            tracked,
            stash,
        } = self;
        let (Some(&lo), Some(&hi)) = (tracked.first(), tracked.last()) else {
            return;
        };
        let (lo, hi) = (lo as usize, hi as usize);
        assert!(
            hi < batch.design_gates(),
            "a gate set names gate {hi} of a {}-gate design",
            batch.design_gates()
        );
        let (first, lanes) = (batch.first_gate(), batch.lanes());
        let end = first + batch.gates();
        let store = match pop {
            Population::Fixed => fixed,
            Population::Random => random,
        };
        if first > hi || end <= lo {
            return;
        }
        stash.resize(tracked.len() * lanes, 0.0);
        let held = tracked.partition_point(|&g| (g as usize) < first)
            ..tracked.partition_point(|&g| (g as usize) < end);
        for i in held {
            stash[i * lanes..(i + 1) * lanes]
                .copy_from_slice(batch.gate_lanes(tracked[i] as usize - first));
        }
        if hi < end {
            let row = |g: u32| {
                let i = tracked.binary_search(&g).expect("a set's gate is tracked");
                &stash[i * lanes..(i + 1) * lanes]
            };
            for (m, set) in store.iter_mut().zip(sets.iter()) {
                m.extend_batch(set.map(row));
            }
            stash.clear();
        }
    }
}

impl<const K: usize> MergeableSink for CoMomentAccumulator<K>
where
    Order<K>: SupportedOrder,
{
    /// Co-moment combination per (gate set, class); an empty side is the
    /// identity (a default-constructed accumulator adopts `other`).
    fn merge(&mut self, other: Self) {
        if other.sets.is_empty() {
            return;
        }
        if self.sets.is_empty() {
            *self = other;
            return;
        }
        debug_assert_eq!(self.sets, other.sets, "gate-set list mismatch in merge");
        for (d, s) in self.fixed.iter_mut().zip(&other.fixed) {
            d.merge(s);
        }
        for (d, s) in self.random.iter_mut().zip(&other.random) {
            d.merge(s);
        }
    }
}

/// Runs a streaming order-`K` sweep over `sets` as one parallel campaign:
/// single pass over the traces, `O(gate-sets)` memory, sorted by descending
/// `|t|`. Results are bit-identical at any thread count and lane width.
///
/// # Errors
///
/// Any [`MultivariateError`] from [`validate_gate_sets`];
/// [`MultivariateError::Sim`] if the design cannot be levelized.
pub fn assess_gate_sets<const K: usize, S: AsRef<[u32]>>(
    netlist: &Netlist,
    model: &PowerModel,
    config: &CampaignConfig,
    parallelism: Parallelism,
    sets: &[S],
) -> Result<Vec<([GateId; K], WelchResult)>, MultivariateError>
where
    Order<K>: SupportedOrder,
{
    validate_gate_sets(K, sets, netlist.gate_count())?;
    let empty = CoMomentAccumulator::<K>::new(sets);
    let outcome = FleetJob::new(netlist, model, config.clone())
        .with_sink_factory(move || empty.clone())
        .run(parallelism, &NullRecorder)?;
    Ok(outcome.sink.sweep())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_tables_match_their_orders() {
        for (table, order, len) in [
            (<Order<2> as SupportedOrder>::TABLE, 2usize, 21usize),
            (<Order<3> as SupportedOrder>::TABLE, 3, MAX_TERMS),
        ] {
            let tracked = tracked_len(order);
            assert_eq!(table.ends[tracked - 1] as usize, len);
            // (1, …, 1) sits between the tracked multi-indices below and
            // above it in lexicographic order.
            let cells = 3usize.pow(order as u32);
            let below = (0..cells / 2).filter(|&c| degree(c, order) >= 2).count();
            assert_eq!(table.ones, below);
            // Each slot's terms start with the virtual count, and only there.
            let mut start = 0;
            for &end in &table.ends[..tracked] {
                let group = &table.terms[start..end as usize];
                assert!(group.len() >= 2, "count term plus at least C_α itself");
                assert_eq!(group[0].src, 0);
                assert!(group[1..].iter().all(|t| t.src != 0));
                start = end as usize;
            }
        }
    }

    #[test]
    fn per_tuple_state_does_not_grow() {
        // The O(gate-sets) memory claim: only the tracked co-moments are
        // stored, never a 3^K table.
        assert!(std::mem::size_of::<CoMoments<2>>() <= 72);
        assert!(std::mem::size_of::<CoMoments<3>>() <= 248);
    }

    #[test]
    fn parse_gate_sets_accepts_and_rejects() {
        assert_eq!(
            parse_gate_sets("0:1,7:8", 2).unwrap(),
            vec![vec![0, 1], vec![7, 8]]
        );
        assert!(parse_gate_sets("0:1:2", 2)
            .unwrap_err()
            .contains("bad pair entry `0:1:2` (expected A:B gate indices)"));
        assert!(parse_gate_sets("0:1", 3)
            .unwrap_err()
            .contains("expected A:B:C"));
        assert!(parse_gate_sets("0:x", 2).unwrap_err().contains("`x`"));
        assert!(parse_gate_sets("", 2).is_err());
    }

    #[test]
    fn validation_rejects_degenerate_lists() {
        assert!(validate_gate_sets(2, &[[0u32, 1]], 2).is_ok());
        assert_eq!(
            validate_gate_sets(2, &[[0u32, 2]], 2).unwrap_err(),
            MultivariateError::GateOutOfRange { gate: 2, gates: 2 }
        );
        assert_eq!(
            validate_gate_sets(3, &[vec![0u32, 1]], 3).unwrap_err(),
            MultivariateError::WrongArity { index: 0, order: 3 }
        );
        assert_eq!(
            validate_gate_sets(2, &[[1u32, 1]], 3).unwrap_err(),
            MultivariateError::RepeatedGate { gate: 1 }
        );
        assert_eq!(
            validate_gate_sets(2, &[[0u32, 2], [2, 0]], 3).unwrap_err(),
            MultivariateError::DuplicateEntry { index: 1 }
        );
        assert!(MultivariateError::WrongArity { index: 0, order: 3 }
            .to_string()
            .contains("exactly 3"));
    }

    #[test]
    fn all_gate_sets_enumerates_ordered_combinations() {
        let gates: Vec<GateId> = (0..5).map(GateId::new).collect();
        let pairs = all_gate_sets(&gates, 2);
        assert_eq!(pairs.len(), 10);
        assert_eq!(pairs[0], vec![0, 1]);
        assert_eq!(pairs[9], vec![3, 4]);
        assert_eq!(all_gate_sets(&gates, 5), vec![vec![0, 1, 2, 3, 4]]);
        assert!(all_gate_sets(&gates, 6).is_empty());
    }
}
