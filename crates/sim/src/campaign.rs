//! Trace campaigns: batched acquisition of per-gate power samples for the
//! two TVLA populations.
//!
//! A *trace* is one stimulus application: the design is first settled on a
//! base vector (all zeros), then driven with the trace's data vector while
//! toggles are counted (plus `cycles - 1` additional clock cycles for
//! sequential designs). Mask inputs receive fresh randomness at every
//! evaluation of every trace — for both populations — mirroring the on-chip
//! mask RNG of a protected implementation.
//!
//! # Sharded, deterministic parallel engine
//!
//! Every random stream of a campaign is *counter-derived*: the RNG of each
//! 64-lane trace word is seeded from `(master_seed, population, word_start,
//! stream)` rather than drawn from one sequential generator. A campaign is
//! therefore a pure function of its configuration — any contiguous trace
//! range can be recomputed in isolation, which is what makes the engine
//! embarrassingly parallel *and* bit-reproducible:
//!
//! * the trace space of each population is cut into a fixed grid of
//!   [`TRACES_PER_SHARD`]-trace shards (the grid depends only on the
//!   configuration, never on the worker count);
//! * the grid is walked in **rounds**: the engine interleaves the two
//!   populations' shards (F₀ R₀ F₁ R₁ …) and executes them
//!   `shards_per_round` at a time on `std::thread::scope` workers, each of
//!   which owns a private [`MergeableSink`];
//! * per-shard sinks are folded **in shard order**, as they arrive, by the
//!   campaign's [`RoundFolder`](crate::round::RoundFolder), so the result is
//!   bit-identical at any thread count (1, 2, 8, …).
//!
//! One value describes a campaign run — [`FleetJob`]: netlist, power model,
//! configuration, sink factory, stopping rule and round size — and
//! [`FleetJob::run`] drives it. The `run_campaign_*` functions here are
//! shorthands for the common shapes of that value.
//!
//! # Round checkpoints and early stopping
//!
//! After each round the folded accumulator is handed to a [`StoppingRule`]
//! (see [`run_campaign_adaptive`] and [`crate::round`]); a rule that detects
//! a converged verdict terminates the trace stream early. Because the interleaved walk consumes
//! each population's shards in ascending trace order, an early-stopped run
//! is *the exact prefix* of the full run: its sink is byte-identical to a
//! full campaign re-configured to the stopped trace counts, and — since the
//! rule only ever sees checkpoint-folded state — the stop round itself is
//! independent of the worker count. [`run_campaign_parallel`] is the
//! never-stopping special case of the same engine.
//!
//! # Lane width
//!
//! The simulator evaluates `W` 64-lane words per gate visit
//! (`W ∈ {1, 2, 4, 8}`, see [`Parallelism::with_lane_words`]); samples are
//! streamed to a [`TraceSink`] in batches of up to [`GATE_CHUNK`] gates ×
//! `W × 64` lanes, so leakage assessment runs in constant memory. Because
//! every random stream stays keyed per 64-lane *word* and each gate's
//! energies reach its sink in trace order at every width, the lane width —
//! like the thread count — **never affects results**: outcomes are
//! byte-identical for any `W`. [`GateSamples`] is the dense collector used
//! for small designs and figures.

use std::sync::atomic::{AtomicUsize, Ordering};

use polaris_netlist::{GateId, Netlist, NetlistError};
use polaris_obs::{NullRecorder, Payload, Phase, PhaseTimer, PopulationTag, Recorder};
use rand::rngs::{Lockstep, StdRng};
use rand::{Rng, SeedableRng};

use crate::fleet::FleetJob;
use crate::logic::{BlockBuffers, BlockState, Simulator};
use crate::power::{fill_words, lockstep_words, BitEnergy, CountEnergy, PowerModel};
pub use crate::round::{CampaignOutcome, CampaignStats, Checkpoint, NeverStop, StoppingRule};

/// Trace lanes per simulator word (one `u64` of lane bits).
pub const WORD_LANES: usize = 64;

/// Largest supported lane width `W` in words per simulation block.
pub const MAX_LANE_WORDS: usize = 8;

/// Default lane width of the engine, in words, on a host whose noise
/// kernel fills that many words in lockstep (see [`default_lane_words`]
/// and [`Parallelism::with_lane_words`]). One 8-word block covers 512
/// traces: two [`TRACES_PER_SHARD`]-trace shards of one population, next
/// to each other in its trace order, which the engine simulates and
/// noise-fills together while each keeps its own sink.
pub const DEFAULT_LANE_WORDS: usize = 8;

/// The lane width [`Parallelism::new`] and the command line start from on
/// this host: [`DEFAULT_LANE_WORDS`] where the noise kernel fills that many
/// words in lockstep (the AVX-512 build), else one shard per block,
/// `TRACES_PER_SHARD / WORD_LANES` = 4 words. Pairing shards only pays
/// through the lockstep fill; without it the wider block brings no gain.
/// Either width gives the same bits.
pub fn default_lane_words() -> usize {
    if lockstep_words().contains(&DEFAULT_LANE_WORDS) {
        DEFAULT_LANE_WORDS
    } else {
        TRACES_PER_SHARD / WORD_LANES
    }
}

/// Maximum lanes per [`TraceSink::record_batch`] call:
/// `MAX_LANE_WORDS × WORD_LANES`. Every batch carries between 1 and this
/// many lanes; the engine's actual batch size is `lane_words × 64`, capped
/// by the remaining traces of the sink's range.
pub const BATCH_LANES: usize = MAX_LANE_WORDS * WORD_LANES;

/// Gates per batch the engine emits: it fills and records a block's
/// energies [`GATE_CHUNK`] gates at a time, so its energy buffer holds one
/// chunk (256 KiB at 8 words), not the whole gates × lanes matrix.
pub const GATE_CHUNK: usize = 64;

/// Traces per shard of the parallel engine's fixed work grid. The grid is a
/// pure function of the campaign configuration, so results do not depend on
/// how many workers process it. A shard is the unit of folding: it has its
/// own sink at every lane width, also when the engine simulates it in one
/// 8-word block with the next shard of its population (see
/// [`DEFAULT_LANE_WORDS`]).
pub const TRACES_PER_SHARD: usize = 256;

/// Default shards per round of the checkpointed engine: 4 shards (2 per
/// population) between stopping-rule evaluations, i.e. a checkpoint every
/// `2 × TRACES_PER_SHARD` traces per class.
pub const DEFAULT_SHARDS_PER_ROUND: usize = 4;

/// Which TVLA population a batch of traces belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Population {
    /// The fixed-input class `Q0`.
    Fixed,
    /// The random-input (or second fixed, for fixed-vs-fixed) class `Q1`.
    Random,
}

impl Population {
    /// The trace-schema spelling of the population
    /// (see [`polaris_obs::PopulationTag`]).
    pub(crate) fn tag(self) -> PopulationTag {
        match self {
            Population::Fixed => PopulationTag::Fixed,
            Population::Random => PopulationTag::Random,
        }
    }
}

/// Timing model used when counting switching activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DelayModel {
    /// Zero-delay: one settled evaluation per cycle; each gate toggles at
    /// most once. Fast, glitch-free.
    #[default]
    Zero,
    /// Unit-delay: synchronous-relaxation settling; gates at reconvergent
    /// fanout glitch (multiple transitions per cycle), concentrating power
    /// — and leakage — in deep logic, as on real silicon.
    UnitDelay,
}

/// Worker-thread budget and SIMD lane width of the parallel campaign engine.
///
/// Neither knob ever affects results — shards, merge order, and every random
/// stream are fixed by the campaign configuration and keyed per 64-lane
/// word — so both are purely throughput knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Parallelism {
    threads: usize,
    lane_words: usize,
}

impl Parallelism {
    /// An explicit thread count; `0` means "all available cores". Lane width
    /// defaults to [`default_lane_words`].
    pub fn new(threads: usize) -> Self {
        Parallelism {
            threads,
            lane_words: default_lane_words(),
        }
    }

    /// Single-threaded execution (still runs the sharded engine, so results
    /// match every other thread count bit for bit).
    pub fn sequential() -> Self {
        Parallelism::new(1)
    }

    /// One worker per available core.
    pub fn auto() -> Self {
        Parallelism::new(0)
    }

    /// Sets the simulation lane width in 64-lane words: each gate visit
    /// evaluates `lane_words × 64` trace lanes. Outcomes are byte-identical
    /// at every supported width; wider blocks amortize per-batch overheads
    /// and give the autovectorizer straight-line multi-word loops.
    ///
    /// # Panics
    ///
    /// Panics unless `lane_words ∈ {1, 2, 4, 8}`.
    pub fn with_lane_words(mut self, lane_words: usize) -> Self {
        assert!(
            matches!(lane_words, 1 | 2 | 4 | 8),
            "lane width must be 1, 2, 4 or 8 words, got {lane_words}"
        );
        self.lane_words = lane_words;
        self
    }

    /// The resolved worker count (≥ 1).
    pub fn threads(self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.threads
        }
    }

    /// The simulation lane width in 64-lane words.
    pub fn lane_words(self) -> usize {
        self.lane_words
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::auto()
    }
}

/// Why an energy matrix was rejected by [`EnergyBatch::new`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchShapeError {
    /// `lanes == 0`: every batch carries at least one real trace lane.
    ZeroLanes,
    /// `lanes > BATCH_LANES`: wider than any supported simulation block.
    TooManyLanes {
        /// The offending lane count.
        lanes: usize,
    },
    /// `energies.len() != gates × lanes` (or the product overflows).
    LengthMismatch {
        /// `gates × lanes`.
        expected: usize,
        /// `energies.len()`.
        actual: usize,
    },
}

impl std::fmt::Display for BatchShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchShapeError::ZeroLanes => write!(f, "batch has zero lanes"),
            BatchShapeError::TooManyLanes { lanes } => {
                write!(f, "batch has {lanes} lanes, max {BATCH_LANES}")
            }
            BatchShapeError::LengthMismatch { expected, actual } => {
                write!(f, "energy matrix has {actual} entries, expected {expected}")
            }
        }
    }
}

impl std::error::Error for BatchShapeError {}

/// A shape-checked view of one batch's per-gate energy matrix: the
/// energies of the contiguous gate range `first_gate()..first_gate() +
/// gates()` of a design of `design_gates()` gates, in `lanes()` traces.
///
/// Constructing the view validates the batch invariants once —
/// `1 ≤ lanes ≤ BATCH_LANES` and `energies.len() == gates × lanes` — so
/// sinks can index by gate and lane without re-checking (the checks are
/// real, not `debug_assert`: a malformed batch is rejected in release
/// builds too).
#[derive(Clone, Copy, Debug)]
pub struct EnergyBatch<'a> {
    energies: &'a [f64],
    first_gate: usize,
    gates: usize,
    design_gates: usize,
    lanes: usize,
}

impl<'a> EnergyBatch<'a> {
    /// Validates and wraps an energy matrix where `energies[g * lanes + l]`
    /// is the sample of gate `g` in trace-lane `l`. The batch covers the
    /// whole design; see [`EnergyBatch::in_design`] for part of one.
    ///
    /// # Errors
    ///
    /// Returns a [`BatchShapeError`] describing the violated invariant.
    pub fn new(energies: &'a [f64], gates: usize, lanes: usize) -> Result<Self, BatchShapeError> {
        if lanes == 0 {
            return Err(BatchShapeError::ZeroLanes);
        }
        if lanes > BATCH_LANES {
            return Err(BatchShapeError::TooManyLanes { lanes });
        }
        let expected = gates.saturating_mul(lanes);
        if energies.len() != expected {
            return Err(BatchShapeError::LengthMismatch {
                expected,
                actual: energies.len(),
            });
        }
        Ok(EnergyBatch {
            energies,
            first_gate: 0,
            gates,
            design_gates: gates,
            lanes,
        })
    }

    /// The same matrix as the rows of gates `first_gate..` of a design of
    /// `design_gates` gates: row `g` is gate `first_gate + g`. Knowing the
    /// design's size, a sink can size its per-gate state once.
    ///
    /// # Panics
    ///
    /// Panics if the rows reach past the design's last gate.
    #[must_use]
    pub fn in_design(mut self, first_gate: usize, design_gates: usize) -> Self {
        assert!(
            first_gate + self.gates <= design_gates,
            "gates {first_gate}..{} outside a {design_gates}-gate design",
            first_gate + self.gates
        );
        self.first_gate = first_gate;
        self.design_gates = design_gates;
        self
    }

    /// The design index of the batch's first gate (row 0).
    pub fn first_gate(&self) -> usize {
        self.first_gate
    }

    /// The number of gates of the design the batch is part of.
    pub fn design_gates(&self) -> usize {
        self.design_gates
    }

    /// Number of gates covered by the batch.
    pub fn gates(&self) -> usize {
        self.gates
    }

    /// Number of trace lanes in the batch (`1..=BATCH_LANES`).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The `lanes` energy samples of the batch's row `g` — design gate
    /// `first_gate() + g` — one per trace in trace order.
    ///
    /// # Panics
    ///
    /// Panics if `g >= self.gates()`.
    pub fn gate_lanes(&self, g: usize) -> &'a [f64] {
        &self.energies[g * self.lanes..(g + 1) * self.lanes]
    }

    /// The full gate-major energy matrix.
    pub fn energies(&self) -> &'a [f64] {
        self.energies
    }
}

/// Receiver for streamed per-gate energy samples.
pub trait TraceSink {
    /// Records one shape-checked batch (see [`EnergyBatch`]):
    /// `batch.gate_lanes(g)[l]` is the energy sample of design gate
    /// `batch.first_gate() + g` in trace-lane `l`, of a design of
    /// `batch.design_gates()` gates.
    ///
    /// # Batch-shape contract
    ///
    /// `1 <= batch.lanes() <= BATCH_LANES`, where
    /// `BATCH_LANES = MAX_LANE_WORDS × 64`. A batch covers a contiguous gate
    /// range and a contiguous trace range. The engine cuts its sink's
    /// traces into *blocks* of up to `W × 64` lanes, in trace order, and
    /// emits each block as consecutive batches of at most [`GATE_CHUNK`]
    /// gates in ascending gate order that together cover every gate of the
    /// design; all batches of a block have its lane count, and they all
    /// arrive before the next block's first. So every gate's samples
    /// arrive in trace order, and a sink that counts traces counts the
    /// batches whose `first_gate()` is 0. Sinks must never assume a
    /// particular batch width or gate range — partial batches carry real
    /// samples, and the same trace range may arrive in different batch
    /// sizes at different lane widths while folding to byte-identical
    /// accumulator state.
    ///
    /// Every batch starts on a [`WORD_LANES`]-trace word boundary of its
    /// population. A sink may therefore accumulate word by word (cutting
    /// each lane row into 64-trace words from its start) and still fold to
    /// the same bits at every lane width; the engine asserts the alignment.
    fn record_batch(&mut self, pop: Population, batch: EnergyBatch<'_>);
}

/// A [`TraceSink`] whose partial results can be folded together — the worker
/// contract of the parallel engine.
///
/// Each worker owns a private sink per shard; the campaign's
/// [`RoundFolder`](crate::round::RoundFolder) merges the per-shard sinks
/// **in shard order**. `merge` must behave as
/// if `other`'s samples had been recorded directly after `self`'s (dense
/// collectors concatenate; statistical accumulators combine pairwise à la
/// Chan et al.).
pub trait MergeableSink: TraceSink + Send {
    /// Folds `other` (the samples of the *following* trace range) into
    /// `self`.
    fn merge(&mut self, other: Self);
}

/// Campaign parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignConfig {
    /// Number of traces in the fixed class.
    pub n_fixed: usize,
    /// Number of traces in the random class.
    pub n_random: usize,
    /// Master seed; every random stream (data, masks, noise, fixed vector)
    /// derives from it, so campaigns are reproducible.
    pub seed: u64,
    /// Clock cycles per trace (1 for combinational designs; sequential
    /// designs accumulate toggles over this many cycles).
    pub cycles: usize,
    /// Explicit fixed-class data vector; derived from `seed` when `None`.
    pub fixed_vector: Option<Vec<bool>>,
    /// When set, the second class also uses a fixed vector (fixed-vs-fixed
    /// TVLA) instead of per-trace random data.
    pub second_fixed_vector: Option<Vec<bool>>,
    /// Switching-activity timing model.
    pub delay_model: DelayModel,
}

impl CampaignConfig {
    /// Fixed-vs-random campaign with `n_fixed == n_random == n` traces.
    pub fn new(n_fixed: usize, n_random: usize, seed: u64) -> Self {
        CampaignConfig {
            n_fixed,
            n_random,
            seed,
            cycles: 1,
            fixed_vector: None,
            second_fixed_vector: None,
            delay_model: DelayModel::Zero,
        }
    }

    /// Sets the number of clock cycles per trace (sequential designs).
    ///
    /// # Panics
    ///
    /// Panics if `cycles == 0`.
    pub fn with_cycles(mut self, cycles: usize) -> Self {
        assert!(cycles >= 1, "at least one cycle per trace");
        self.cycles = cycles;
        self
    }

    /// Uses an explicit fixed-class vector.
    pub fn with_fixed_vector(mut self, v: Vec<bool>) -> Self {
        self.fixed_vector = Some(v);
        self
    }

    /// Switches to fixed-vs-fixed TVLA with the given second vector.
    pub fn fixed_vs_fixed(mut self, v: Vec<bool>) -> Self {
        self.second_fixed_vector = Some(v);
        self
    }

    /// Selects the unit-delay (glitch-aware) timing model.
    pub fn with_glitches(mut self) -> Self {
        self.delay_model = DelayModel::UnitDelay;
        self
    }

    /// The fixed-class vector this campaign will apply to a design with
    /// `n_data` data inputs: the explicit vector when set, otherwise the one
    /// derived from `seed`. Materializing it lets comparative flows re-seed
    /// the sampling streams of a follow-up campaign while *pinning* the
    /// fixed class (see `fixed_vector`), so before/after leakage numbers
    /// stay comparable.
    ///
    /// # Panics
    ///
    /// Panics if an explicit vector does not match `n_data`.
    pub fn resolve_fixed_vector(&self, n_data: usize) -> Vec<bool> {
        match &self.fixed_vector {
            Some(v) => {
                assert_eq!(v.len(), n_data, "fixed vector width mismatch");
                v.clone()
            }
            None => {
                let mut seed_rng = StdRng::seed_from_u64(self.seed);
                (0..n_data).map(|_| seed_rng.gen::<bool>()).collect()
            }
        }
    }
}

// --- Counter-derived random streams ---------------------------------------

/// Stream discriminators for the per-batch RNG derivation.
const STREAM_DATA: u64 = 0x4441_5441; // "DATA"
const STREAM_MASK: u64 = 0x4D41_534B; // "MASK"
const STREAM_NOISE: u64 = 0x4E4F_4953; // "NOIS"

/// One SplitMix64 output step — the workspace's shared counter-based stream
/// mixer (the `rand` shim seeds xoshiro state the same way).
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the RNG of one `(population, batch, stream)` coordinate from the
/// campaign master seed. Batches are keyed by their starting trace index, so
/// any shard decomposition reproduces the exact same draws.
fn batch_stream_rng(seed: u64, pop: Population, batch_start: u64, stream: u64) -> StdRng {
    let pop_tag: u64 = match pop {
        Population::Fixed => 0x0F1E,
        Population::Random => 0x7A4D,
    };
    let mut h = splitmix64(seed ^ 0x0050_4F4C_4152_4953); // "POLARIS"
    h = splitmix64(h ^ pop_tag);
    h = splitmix64(h ^ batch_start);
    h = splitmix64(h ^ stream);
    StdRng::seed_from_u64(h)
}

// --- Dense collector -------------------------------------------------------

/// Dense per-gate sample collector: `fixed[g]` / `random[g]` hold one energy
/// value per trace.
#[derive(Clone, Debug, Default)]
pub struct GateSamples {
    fixed: Vec<Vec<f64>>,
    random: Vec<Vec<f64>>,
}

impl GateSamples {
    /// A collector with every buffer preallocated to its final size
    /// (`gates × traces` is known up front from the campaign
    /// configuration), so recording never reallocates.
    pub fn with_capacity(gates: usize, n_fixed: usize, n_random: usize) -> Self {
        GateSamples {
            fixed: (0..gates).map(|_| Vec::with_capacity(n_fixed)).collect(),
            random: (0..gates).map(|_| Vec::with_capacity(n_random)).collect(),
        }
    }

    /// Number of gates covered.
    pub fn gate_count(&self) -> usize {
        self.fixed.len()
    }

    /// Fixed-class samples of one gate.
    pub fn fixed(&self, id: GateId) -> &[f64] {
        &self.fixed[id.index()]
    }

    /// Random-class samples of one gate.
    pub fn random(&self, id: GateId) -> &[f64] {
        &self.random[id.index()]
    }

    /// The per-gate class buffers, `(fixed, random)` — the snapshot side of
    /// the distributed shard-state format. The two sides may disagree on
    /// gate count: a one-population shard leaves the unseen class empty.
    pub fn classes(&self) -> (&[Vec<f64>], &[Vec<f64>]) {
        (&self.fixed, &self.random)
    }

    /// Decomposes the collector into its per-gate class buffers (owned
    /// variant of [`GateSamples::classes`]).
    pub fn into_classes(self) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        (self.fixed, self.random)
    }

    /// Reassembles a collector from per-gate class buffers (the restore
    /// side of [`GateSamples::into_classes`]).
    pub fn from_classes(fixed: Vec<Vec<f64>>, random: Vec<Vec<f64>>) -> Self {
        GateSamples { fixed, random }
    }
}

impl TraceSink for GateSamples {
    fn record_batch(&mut self, pop: Population, batch: EnergyBatch<'_>) {
        let (first, gates) = (batch.first_gate(), batch.gates());
        let store = match pop {
            Population::Fixed => &mut self.fixed,
            Population::Random => &mut self.random,
        };
        if store.len() < batch.design_gates() {
            store.resize(batch.design_gates(), Vec::new());
        }
        for (g, samples) in store[first..first + gates].iter_mut().enumerate() {
            samples.extend_from_slice(batch.gate_lanes(g));
        }
    }
}

fn merge_store(dst: &mut Vec<Vec<f64>>, src: Vec<Vec<f64>>) {
    if src.is_empty() {
        return;
    }
    if dst.iter().all(Vec::is_empty) {
        *dst = src;
        return;
    }
    debug_assert_eq!(dst.len(), src.len(), "gate count mismatch in merge");
    for (d, s) in dst.iter_mut().zip(src) {
        d.extend_from_slice(&s);
    }
}

impl MergeableSink for GateSamples {
    /// Concatenates `other`'s per-gate samples after `self`'s — exactly the
    /// trace order of a sequential run, so parallel dense collection is
    /// bit-identical to single-threaded collection.
    fn merge(&mut self, other: Self) {
        merge_store(&mut self.fixed, other.fixed);
        merge_store(&mut self.random, other.random);
    }
}

// --- The campaign engine ---------------------------------------------------

#[inline]
fn add_toggles(toggles: &mut [u32], diff: u64) {
    if diff != 0 {
        let mut d = diff;
        while d != 0 {
            let l = d.trailing_zeros() as usize;
            toggles[l] += 1;
            d &= d - 1;
        }
    }
}

/// One worker's buffers for the block engine.
///
/// A worker keeps one set for its whole run, across shards, rounds and
/// fleet jobs, and frees it when the run returns. Each range resizes the
/// set to its engine's design and lane width, so the allocations only grow
/// to the largest shape the worker has met. Nothing one range leaves behind
/// reaches the next: every block writes each word it reads earlier in that
/// block, and `zero_data`, which nothing writes, stays zero.
#[derive(Default)]
pub(crate) struct BlockScratch {
    /// The block state's allocations between ranges.
    state: BlockBuffers,
    /// Previous value words (gate-major, `W` per gate).
    prev: Vec<u64>,
    /// Per-lane toggle counters, `W × 64` per gate, sized and cleared by
    /// each block that counts toggles.
    toggles: Vec<u32>,
    /// Energies of the [`GATE_CHUNK`] gates being emitted: one gate-major
    /// matrix per [`Piece`] of the block, one after another.
    energies: Vec<f64>,
    /// Input-major data words (`W` per data input).
    data: Vec<u64>,
    /// All-zero data words for the base application.
    zero_data: Vec<u64>,
    /// Input-major mask words (`W` per mask input).
    masks: Vec<u64>,
}

impl BlockScratch {
    /// Sizes every buffer but the state and the toggle counters (which
    /// only blocks that count toggles size, as they clear them) for
    /// `engine` at `W` words. The energies take one chunk of gates, and
    /// never more capacity than the largest chunk met.
    fn fit<const W: usize>(&mut self, engine: &Engine<'_>) {
        let chunk = engine.gates.min(GATE_CHUNK) * W * WORD_LANES;
        self.prev.resize(engine.gates * W, 0);
        self.energies
            .reserve_exact(chunk.saturating_sub(self.energies.len()));
        self.energies.resize(chunk, 0.0);
        self.data.resize(engine.n_data * W, 0);
        self.zero_data.resize(engine.n_data * W, 0);
        self.masks.resize(engine.n_mask * W, 0);
    }
}

/// Wall time and phase split of one simulated shard, in nanoseconds.
pub(crate) struct ShardTiming {
    pub(crate) wall_ns: u64,
    pub(crate) rng_ns: u64,
    pub(crate) sim_ns: u64,
    pub(crate) power_ns: u64,
    pub(crate) acc_ns: u64,
}

impl ShardTiming {
    /// The [`Payload::ShardSpan`] of `shard`, grid entry `grid_index` of
    /// round `round`.
    pub(crate) fn span(&self, round: usize, grid_index: usize, shard: ShardSpec) -> Payload {
        Payload::ShardSpan {
            round: round as u64,
            grid_index: grid_index as u64,
            pop: shard.pop.tag(),
            start: shard.start as u64,
            count: shard.count as u64,
            wall_ns: self.wall_ns,
            rng_ns: self.rng_ns,
            sim_ns: self.sim_ns,
            power_ns: self.power_ns,
            acc_ns: self.acc_ns,
        }
    }

    /// Shares a unit's times among its shards in proportion to their trace
    /// `counts`. The last shard takes the rounding remainder, so each
    /// phase's shares add up to the unit's time.
    fn split(&self, counts: &[usize]) -> Vec<ShardTiming> {
        let whole = [
            self.wall_ns,
            self.rng_ns,
            self.sim_ns,
            self.power_ns,
            self.acc_ns,
        ];
        let total = counts.iter().sum::<usize>().max(1) as u128;
        let mut left = whole;
        counts
            .iter()
            .enumerate()
            .map(|(i, &count)| {
                let last = i + 1 == counts.len();
                let [wall_ns, rng_ns, sim_ns, power_ns, acc_ns] = std::array::from_fn(|f| {
                    let share = if last {
                        left[f]
                    } else {
                        (u128::from(whole[f]) * count as u128 / total) as u64
                    };
                    left[f] -= share;
                    share
                });
                ShardTiming {
                    wall_ns,
                    rng_ns,
                    sim_ns,
                    power_ns,
                    acc_ns,
                }
            })
            .collect()
    }
}

/// The part of a block that goes to one sink: the block's lanes
/// `lane0..lane0 + lanes`, which start on a word boundary.
#[derive(Clone, Copy, Debug, Default)]
struct Piece {
    sink: usize,
    lane0: usize,
    lanes: usize,
}

/// The pieces of the block of `lanes` traces that starts `done` traces into
/// a range whose consecutive sinks take `counts` traces each: one piece per
/// sink the block reaches, in trace order, in the first `len` entries.
fn block_pieces(counts: &[usize], done: usize, lanes: usize) -> ([Piece; MAX_LANE_WORDS], usize) {
    let mut pieces = [Piece::default(); MAX_LANE_WORDS];
    let (mut len, mut lo) = (0usize, 0usize);
    for (sink, &count) in counts.iter().enumerate() {
        let (a, b) = (lo.max(done), (lo + count).min(done + lanes));
        if a < b {
            pieces[len] = Piece {
                sink,
                lane0: a - done,
                lanes: b - a,
            };
            len += 1;
        }
        lo += count;
    }
    (pieces, len)
}

/// Where the power pass writes one chunk of gates of a block: row `i` of
/// the chunk (gate `gates.start + i`) has word `w` of the block at
/// `at[w] + i * stride[w]` of the energy buffer.
struct ChunkRows {
    gates: std::ops::Range<usize>,
    /// The block's lane count.
    lanes: usize,
    at: [usize; MAX_LANE_WORDS],
    stride: [usize; MAX_LANE_WORDS],
}

impl ChunkRows {
    /// The layout of `gates` for a block of `lanes` traces in `pieces`: each
    /// piece a gate-major matrix of its own lanes, one after another, so a
    /// sink's rows are contiguous.
    fn new(gates: std::ops::Range<usize>, lanes: usize, pieces: &[Piece]) -> Self {
        let n = gates.len();
        let (mut at, mut stride) = ([0; MAX_LANE_WORDS], [0; MAX_LANE_WORDS]);
        for p in pieces {
            for w in p.lane0 / WORD_LANES..(p.lane0 + p.lanes).div_ceil(WORD_LANES) {
                at[w] = n * p.lane0 + w * WORD_LANES - p.lane0;
                stride[w] = p.lanes;
            }
        }
        ChunkRows {
            gates,
            lanes,
            at,
            stride,
        }
    }

    /// The energy rows of `piece`, gate-major.
    fn piece(&self, piece: Piece) -> std::ops::Range<usize> {
        let n = self.gates.len();
        n * piece.lane0..n * (piece.lane0 + piece.lanes)
    }
}

/// Compiled per-campaign context shared (immutably) by all workers.
///
/// Crate-visible so the fleet scheduler (see [`crate::fleet`]) can compile
/// one engine per job and drive shard ranges from a shared worker pool.
pub(crate) struct Engine<'a> {
    sim: Simulator<'a>,
    config: &'a CampaignConfig,
    caps: Vec<f64>,
    sigma: f64,
    n_data: usize,
    n_mask: usize,
    gates: usize,
    /// Simulation block width in 64-lane words (1, 2, 4 or 8).
    lane_words: usize,
    /// Fixed-class data vector, broadcast to 64-lane words.
    fixed_words: Vec<u64>,
    /// Second fixed vector (fixed-vs-fixed mode), broadcast.
    second_fixed_words: Option<Vec<u64>>,
}

impl<'a> Engine<'a> {
    pub(crate) fn new(
        netlist: &'a Netlist,
        model: &PowerModel,
        config: &'a CampaignConfig,
        lane_words: usize,
    ) -> Result<Self, NetlistError> {
        assert!(
            matches!(lane_words, 1 | 2 | 4 | 8),
            "lane width must be 1, 2, 4 or 8 words, got {lane_words}"
        );
        let sim = Simulator::new(netlist)?;
        let n_data = netlist.data_inputs().len();
        let n_mask = netlist.mask_inputs().len();
        let gates = netlist.gate_count();

        let fixed_vec = config.resolve_fixed_vector(n_data);
        let broadcast =
            |v: &[bool]| -> Vec<u64> { v.iter().map(|&b| if b { !0u64 } else { 0 }).collect() };
        let second_fixed_words = config.second_fixed_vector.as_ref().map(|v| {
            assert_eq!(v.len(), n_data, "second fixed vector width mismatch");
            broadcast(v)
        });

        Ok(Engine {
            sim,
            config,
            caps: netlist.iter().map(|(_, g)| model.cap(g.kind())).collect(),
            sigma: model.noise_sigma(),
            n_data,
            n_mask,
            gates,
            lane_words,
            fixed_words: broadcast(&fixed_vec),
            second_fixed_words,
        })
    }

    /// Simulates the contiguous trace range `[start, start + count)` of one
    /// population into `sink`, in buffers of its own. `start` must be
    /// word-aligned (a multiple of 64) so the per-word stream grid — and
    /// hence every RNG draw — is independent of the sharding and of the
    /// lane width.
    pub(crate) fn run_range<S: TraceSink>(
        &self,
        pop: Population,
        start: usize,
        count: usize,
        sink: &mut S,
    ) {
        let mut timer = PhaseTimer::disabled();
        let mut scratch = BlockScratch::default();
        self.run_range_timed(
            pop,
            start,
            &[count],
            std::slice::from_mut(sink),
            &mut timer,
            &mut scratch,
        );
    }

    /// Simulates the shards of `unit` (see [`work_units`]) in the worker's
    /// `scratch`, each into a fresh sink from `factory`, and returns each
    /// shard's sink in the order of [`WorkUnit::shards`]. With `timed`,
    /// each also gets its share of the unit's wall time and rng/simulate/
    /// power/accumulate split, in proportion to its trace count.
    ///
    /// The shards of a unit are one contiguous trace range of their
    /// population, so the engine runs them as one range whose blocks may
    /// reach into both; every sink still receives exactly the batches of
    /// its own traces, and so ends in the state a run of its shard alone
    /// leaves.
    pub(crate) fn run_unit<S: TraceSink>(
        &self,
        unit: WorkUnit,
        factory: &dyn Fn() -> S,
        timed: bool,
        scratch: &mut BlockScratch,
    ) -> Vec<(S, Option<ShardTiming>)> {
        let shards: Vec<ShardSpec> = unit.shards().map(|(_, shard)| shard).collect();
        let counts: Vec<usize> = shards.iter().map(ShardSpec::count).collect();
        let contiguous = shards
            .windows(2)
            .all(|p| p[1].pop == p[0].pop && p[1].start == p[0].start + p[0].count);
        assert!(contiguous, "a unit's shards are adjacent: {shards:?}");
        let mut sinks: Vec<S> = shards.iter().map(|_| factory()).collect();
        let mut timer = PhaseTimer::new(timed);
        let t0 = timer.begin();
        self.run_range_timed(
            shards[0].pop,
            shards[0].start,
            &counts,
            &mut sinks,
            &mut timer,
            scratch,
        );
        let timings = t0.map(|t0| {
            ShardTiming {
                wall_ns: u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                rng_ns: timer.nanos(Phase::Rng),
                sim_ns: timer.nanos(Phase::Simulate),
                power_ns: timer.nanos(Phase::Power),
                acc_ns: timer.nanos(Phase::Accumulate),
            }
            .split(&counts)
        });
        let mut timings = timings.map(Vec::into_iter);
        sinks
            .into_iter()
            .map(|sink| (sink, timings.as_mut().and_then(Iterator::next)))
            .collect()
    }

    /// Simulates the contiguous trace range of one population that starts
    /// at `start` and whose consecutive parts of `counts` traces go to the
    /// matching `sinks`, with per-phase timing: rng/simulate/power/accumulate
    /// nanoseconds accumulate into `timer` (free when the timer is
    /// disabled). Timing is strictly observational — no RNG draw, batch
    /// boundary, or sink call depends on it, so traced and untraced runs
    /// are byte-identical.
    fn run_range_timed<S: TraceSink>(
        &self,
        pop: Population,
        start: usize,
        counts: &[usize],
        sinks: &mut [S],
        timer: &mut PhaseTimer,
        scratch: &mut BlockScratch,
    ) {
        match self.lane_words {
            1 => self.run_range_w::<S, 1>(pop, start, counts, sinks, timer, scratch),
            2 => self.run_range_w::<S, 2>(pop, start, counts, sinks, timer, scratch),
            4 => self.run_range_w::<S, 4>(pop, start, counts, sinks, timer, scratch),
            8 => self.run_range_w::<S, 8>(pop, start, counts, sinks, timer, scratch),
            w => unreachable!("lane width {w} rejected at construction"),
        }
    }

    fn run_range_w<S: TraceSink, const W: usize>(
        &self,
        pop: Population,
        start: usize,
        counts: &[usize],
        sinks: &mut [S],
        timer: &mut PhaseTimer,
        scratch: &mut BlockScratch,
    ) {
        // Sink bits depend on this: see the `TraceSink::record_batch` contract.
        assert_eq!(start % WORD_LANES, 0, "shards must be word-aligned");
        assert_eq!(counts.len(), sinks.len(), "one sink per part of the range");
        assert!(
            counts.iter().rev().skip(1).all(|c| c % WORD_LANES == 0),
            "sinks meet on word boundaries: {counts:?}"
        );
        scratch.fit::<W>(self);
        let mut st = self
            .sim
            .zero_block_in::<W>(std::mem::take(&mut scratch.state));
        let total: usize = counts.iter().sum();
        let mut done = 0usize;
        while done < total {
            let lanes = (total - done).min(W * WORD_LANES);
            let (pieces, len) = block_pieces(counts, done, lanes);
            let block = start + done..start + done + lanes;
            self.run_block::<S, W>(pop, block, &pieces[..len], &mut st, scratch, sinks, timer);
            done += lanes;
        }
        scratch.state = st.into_buffers();
    }

    /// Simulates one `W`-word block: the traces `block` of `pop`, at most
    /// `W × 64` of them, whose `pieces` go to their `sinks`.
    ///
    /// Cross-width identity: every random stream is keyed by the 64-lane
    /// *word* it feeds (`block_start + w × 64`), every lane is simulated on
    /// its own, and each gate's energies reach its sink in trace order — so
    /// a block is exactly the concatenation of the `W` single-word batches
    /// a `W = 1` engine would produce, and sinks fold to byte-identical
    /// state at every width and whichever shards share a block.
    #[allow(clippy::too_many_arguments)]
    fn run_block<S: TraceSink, const W: usize>(
        &self,
        pop: Population,
        block: std::ops::Range<usize>,
        pieces: &[Piece],
        st: &mut BlockState<W>,
        scratch: &mut BlockScratch,
        sinks: &mut [S],
        timer: &mut PhaseTimer,
    ) {
        let lanes = block.len();
        let (mut noise_rngs, single_cycle) =
            self.simulate_block::<W>(pop, block, st, scratch, timer);

        // Each chunk of gates is filled, then recorded while it is hot;
        // the noise streams carry on from chunk to chunk, so each stream
        // still draws for the gates in ascending order.
        for first in (0..self.gates).step_by(GATE_CHUNK) {
            let rows = ChunkRows::new(first..(first + GATE_CHUNK).min(self.gates), lanes, pieces);
            let t_power = timer.begin();
            self.emit_chunk(&rows, single_cycle, st.values(), &mut noise_rngs, scratch);
            timer.end(Phase::Power, t_power);
            let t_acc = timer.begin();
            for &piece in pieces {
                let energies = &scratch.energies[rows.piece(piece)];
                let batch = EnergyBatch::new(energies, rows.gates.len(), piece.lanes)
                    .expect("engine emits well-formed batches")
                    .in_design(first, self.gates);
                sinks[piece.sink].record_batch(pop, batch);
            }
            timer.end(Phase::Accumulate, t_acc);
        }
    }

    /// The sink-independent part of [`Engine::run_block`]: draws the
    /// block's data and masks, simulates it, and leaves its toggles for the
    /// power pass — the bits of `st.values() ^ scratch.prev` when the
    /// returned flag is set, else the counters in `scratch.toggles`.
    /// Returns the block's noise streams, one per word.
    ///
    /// Kept out of line and generic over the width alone, so it is compiled
    /// once per width rather than once per width and sink type: the
    /// binary, and the text pages a process maps, stay smaller.
    #[inline(never)]
    fn simulate_block<const W: usize>(
        &self,
        pop: Population,
        block: std::ops::Range<usize>,
        st: &mut BlockState<W>,
        scratch: &mut BlockScratch,
        timer: &mut PhaseTimer,
    ) -> ([StdRng; W], bool) {
        let (block_start, lanes) = (block.start as u64, block.len());
        debug_assert!(lanes >= 1 && lanes <= W * WORD_LANES, "lanes = {lanes}");
        let words = lanes.div_ceil(WORD_LANES);
        let seed = self.config.seed;
        let word_start = |w: usize| block_start + (w * WORD_LANES) as u64;

        // Per-word active lane masks: all words are full except possibly
        // the last. Lanes at and beyond `lanes` are masked out of data
        // generation and never read back, so a partial trailing block can
        // never leak garbage into a sink at any width.
        let mut lane_mask = [0u64; W];
        for (w, mask) in lane_mask.iter_mut().enumerate().take(words) {
            let lw = (lanes - w * WORD_LANES).min(WORD_LANES);
            *mask = if lw == WORD_LANES {
                !0
            } else {
                (1u64 << lw) - 1
            };
        }

        let mut mask_rngs: [StdRng; W] =
            std::array::from_fn(|w| batch_stream_rng(seed, pop, word_start(w), STREAM_MASK));
        let noise_rngs: [StdRng; W] =
            std::array::from_fn(|w| batch_stream_rng(seed, pop, word_start(w), STREAM_NOISE));
        let t_rng = timer.begin();
        let data = &mut scratch.data;
        match (pop, &self.second_fixed_words) {
            (Population::Fixed, _) => {
                for (i, &word) in self.fixed_words.iter().enumerate() {
                    data[i * W..i * W + W].fill(word);
                }
            }
            (Population::Random, Some(v2)) => {
                for (i, &word) in v2.iter().enumerate() {
                    data[i * W..i * W + W].fill(word);
                }
            }
            (Population::Random, None) => {
                let mut data_rngs: [StdRng; W] = std::array::from_fn(|w| {
                    batch_stream_rng(seed, pop, word_start(w), STREAM_DATA)
                });
                data.fill(0);
                for i in 0..self.n_data {
                    for (w, rng) in data_rngs.iter_mut().enumerate().take(words) {
                        data[i * W + w] = rng.gen::<u64>() & lane_mask[w];
                    }
                }
            }
        }

        st.reset();
        // Base application: settle on all-zero data with fresh masks;
        // toggles are not counted here.
        let base_mask = &mut scratch.masks;
        base_mask.fill(0);
        for i in 0..self.n_mask {
            for (w, rng) in mask_rngs.iter_mut().enumerate().take(words) {
                base_mask[i * W + w] = rng.gen::<u64>();
            }
        }
        timer.end(Phase::Rng, t_rng);
        let t_sim = timer.begin();
        self.sim.eval_block::<W>(st, &scratch.zero_data, base_mask);
        scratch.prev.copy_from_slice(st.values());
        timer.end(Phase::Simulate, t_sim);

        // `cycles == 1` zero-delay blocks (the combinational common case)
        // skip the per-lane toggle counters: each gate toggles at most once,
        // so the XOR against the base values *is* the toggle bit.
        let single_cycle = self.config.cycles == 1 && self.config.delay_model == DelayModel::Zero;
        if !single_cycle {
            scratch.toggles.clear();
            scratch.toggles.resize(self.gates * W * WORD_LANES, 0);
        }
        for cycle in 0..self.config.cycles {
            let t_rng = timer.begin();
            let masks = &mut scratch.masks;
            for i in 0..self.n_mask {
                for (w, rng) in mask_rngs.iter_mut().enumerate().take(words) {
                    masks[i * W + w] = rng.gen::<u64>();
                }
            }
            timer.end(Phase::Rng, t_rng);
            let t_sim = timer.begin();
            match self.config.delay_model {
                DelayModel::Zero => {
                    self.sim.eval_block::<W>(st, data, masks);
                    if !single_cycle {
                        for g in 0..self.gates {
                            for (w, &wmask) in lane_mask.iter().enumerate().take(words) {
                                let diff =
                                    (scratch.prev[g * W + w] ^ st.values()[g * W + w]) & wmask;
                                add_toggles(&mut scratch.toggles[(g * W + w) * WORD_LANES..], diff);
                            }
                        }
                    }
                }
                DelayModel::UnitDelay => {
                    // Every settling wave's transition counts (glitches).
                    let toggles = &mut scratch.toggles;
                    self.sim
                        .eval_unit_delay_block::<W>(st, data, masks, |g, diff| {
                            for w in 0..words {
                                add_toggles(
                                    &mut toggles[(g * W + w) * WORD_LANES..],
                                    diff[w] & lane_mask[w],
                                );
                            }
                        });
                }
            }
            if !single_cycle {
                // Multi-cycle zero-delay diffs need the previous cycle's
                // values; in single-cycle mode `prev` keeps the base values
                // so emission can read the toggle bits directly.
                scratch.prev.copy_from_slice(st.values());
            }
            if cycle + 1 < self.config.cycles {
                self.sim.clock_block::<W>(st);
            }
            timer.end(Phase::Simulate, t_sim);
        }
        (noise_rngs, single_cycle)
    }

    /// The power pass of one chunk of gates of a block: every gate's
    /// energies into its rows of `scratch.energies`, laid out as `rows`
    /// says, so each piece's rows are one gate-major matrix. Each word's
    /// noise comes from its own stream in `noise` (one per word of the
    /// block's width), fused with the gate's toggles (bits of
    /// `values ^ prev` when `single_cycle`, else the counters) straight
    /// into the row. Where the host's noise kernel runs lockstep fills
    /// faster ([`lockstep_words`]), runs of full words are drawn in
    /// lockstep: all 8 of a block of two full shards at the default width,
    /// though their rows belong to two sinks. The other words, a partial
    /// trailing word among them, run one at a time.
    ///
    /// Generic over neither the sink nor the width, so the noise kernels
    /// are compiled once, here, not once per crate that runs a campaign.
    fn emit_chunk(
        &self,
        rows: &ChunkRows,
        single_cycle: bool,
        values: &[u64],
        noise: &mut [StdRng],
        scratch: &mut BlockScratch,
    ) {
        let (full, words) = (rows.lanes / WORD_LANES, rows.lanes.div_ceil(WORD_LANES));
        let mut w = 0;
        while w < words {
            let run = lockstep_words()
                .iter()
                .copied()
                .find(|&n| w + n <= full)
                .unwrap_or(1);
            match run {
                8 => self.emit_words::<8>(w, rows, single_cycle, values, noise, scratch),
                4 => self.emit_words::<4>(w, rows, single_cycle, values, noise, scratch),
                1 => self.emit_words::<1>(w, rows, single_cycle, values, noise, scratch),
                n => unreachable!("no lockstep fill of {n} words"),
            }
            w += run;
        }
    }

    /// [`Engine::emit_chunk`] for words `w0..w0 + N`, whose `N` noise
    /// streams are drawn in lockstep and put back where the fill left them.
    /// The words are all full, or `N = 1`.
    fn emit_words<const N: usize>(
        &self,
        w0: usize,
        rows: &ChunkRows,
        single_cycle: bool,
        values: &[u64],
        noise: &mut [StdRng],
        scratch: &mut BlockScratch,
    ) {
        let lane_words = noise.len();
        let mut rngs = Lockstep::<N>::from_streams(std::array::from_fn(|k| noise[w0 + k].clone()));
        let lanes = (rows.lanes - w0 * WORD_LANES).min(WORD_LANES);
        let sigma = self.sigma;
        let energies = &mut scratch.energies[..rows.gates.len() * rows.lanes];
        for (i, g) in rows.gates.clone().enumerate() {
            let (cap, at) = (self.caps[g], g * lane_words + w0);
            let out = std::array::from_fn(|k| rows.at[w0 + k] + i * rows.stride[w0 + k]);
            if single_cycle {
                let synths: [BitEnergy; N] = std::array::from_fn(|k| BitEnergy {
                    cap,
                    sigma,
                    diff: values[at + k] ^ scratch.prev[at + k],
                });
                fill_words(&mut rngs, &synths, energies, out, lanes);
            } else {
                let synths: [CountEnergy<'_>; N] = std::array::from_fn(|k| {
                    let counts = &scratch.toggles[(at + k) * WORD_LANES..][..WORD_LANES];
                    CountEnergy {
                        cap,
                        sigma,
                        counts: counts.try_into().expect("a word holds 64 lane counters"),
                    }
                });
                fill_words(&mut rngs, &synths, energies, out, lanes);
            }
        }
        for (k, stream) in rngs.into_streams().into_iter().enumerate() {
            noise[w0 + k] = stream;
        }
    }
}

/// One entry of the fixed shard grid: a contiguous trace range of one
/// population.
///
/// Shard specs are pure functions of the campaign configuration (see
/// [`shard_grid`]); their position in the grid — the *grid index* — is the
/// canonical merge order every execution strategy (in-process workers,
/// distributed `polaris-dist` parts) must fold in to stay bit-identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    pop: Population,
    start: usize,
    count: usize,
}

impl ShardSpec {
    /// The TVLA population this shard's traces belong to.
    pub fn population(&self) -> Population {
        self.pop
    }

    /// First trace index (within the population) the shard covers.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Number of traces in the shard (≤ [`TRACES_PER_SHARD`]).
    pub fn count(&self) -> usize {
        self.count
    }
}

/// One population's [`TRACES_PER_SHARD`]-trace shard decomposition, in
/// ascending trace order.
fn population_shards(pop: Population, n: usize) -> Vec<ShardSpec> {
    let mut shards = Vec::new();
    let mut start = 0usize;
    while start < n {
        let count = (n - start).min(TRACES_PER_SHARD);
        shards.push(ShardSpec { pop, start, count });
        start += count;
    }
    shards
}

/// The campaign's fixed work decomposition, interleaved across populations
/// (F₀ R₀ F₁ R₁ …, trailing extras of the longer class last). A pure
/// function of the configuration — never of the worker count.
///
/// Interleaving keeps the two classes balanced at every round checkpoint —
/// what a sequential stopping rule needs — while each population's shards
/// are still consumed in ascending trace order. Because [`TraceSink`]
/// batches are keyed by population, every sink whose populations accumulate
/// independently (all the workspace's mergeable sinks do) folds to exactly
/// the same state as the class-ordered walk.
///
/// The grid is public so out-of-process executors (`polaris-dist`) can
/// partition it into contiguous plans; the vector's order defines the grid
/// indices [`run_shard_states`] and [`partition_shards`] speak in.
pub fn shard_grid(config: &CampaignConfig) -> Vec<ShardSpec> {
    let fixed = population_shards(Population::Fixed, config.n_fixed);
    let random = population_shards(Population::Random, config.n_random);
    let mut shards = Vec::with_capacity(fixed.len() + random.len());
    let mut f = fixed.into_iter();
    let mut r = random.into_iter();
    loop {
        match (f.next(), r.next()) {
            (None, None) => break,
            (a, b) => {
                shards.extend(a);
                shards.extend(b);
            }
        }
    }
    shards
}

/// One worker's job of work: a grid shard alone, or with its *partner*,
/// the next shard of its population in trace order — grid entries `4q`
/// and `4q + 2`, or `4q + 1` and `4q + 3`, while both classes have shards,
/// and neighbours among one class's trailing extras. The engine simulates
/// and noise-fills the two as one 8-word block (see
/// [`Engine::run_unit`]); each keeps its own sink, streams and words.
/// A unit carries its shards, so running it needs no grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct WorkUnit {
    first: (usize, ShardSpec),
    partner: Option<(usize, ShardSpec)>,
}

impl WorkUnit {
    /// The unit's shards with their grid indices, ascending.
    pub(crate) fn shards(self) -> impl Iterator<Item = (usize, ShardSpec)> {
        std::iter::once(self.first).chain(self.partner)
    }

    /// The unit's highest grid index.
    pub(crate) fn last(self) -> usize {
        self.partner.unwrap_or(self.first).0
    }

    /// Number of shards in the unit (1 or 2).
    pub(crate) fn len(self) -> usize {
        1 + usize::from(self.partner.is_some())
    }
}

/// The work units of the grid entries `range`, ordered by first index, for
/// `threads` workers at `lane_words`: each shard is paired with its partner
/// when one block of `lane_words` words reaches into the partner, and only
/// while the range holds at least two shards per worker, so short
/// adaptive rounds keep every worker busy. Otherwise every unit is one
/// shard. The units tile `range` whatever the pairing, so the fold order
/// and every shard state stay the same.
pub(crate) fn work_units(
    grid: &[ShardSpec],
    range: std::ops::Range<usize>,
    lane_words: usize,
    threads: usize,
) -> Vec<WorkUnit> {
    let pair = lane_words * WORD_LANES > TRACES_PER_SHARD && range.len() >= 2 * threads;
    let mut taken = vec![false; range.len()];
    let mut units = Vec::with_capacity(range.len());
    for i in range.clone() {
        if taken[i - range.start] {
            continue;
        }
        // The population's next shard is one or two entries on.
        let partner = if pair {
            (i + 1..range.end.min(i + 3)).find(|&j| grid[j].pop == grid[i].pop)
        } else {
            None
        };
        if let Some(j) = partner {
            taken[j - range.start] = true;
        }
        units.push(WorkUnit {
            first: (i, grid[i]),
            partner: partner.map(|j| (j, grid[j])),
        });
    }
    units
}

/// Partitions `n_shards` grid entries into `parts` contiguous ranges — the
/// shard-plan decomposition of a distributed campaign. The first
/// `n_shards % parts` ranges carry one extra shard; trailing ranges are
/// empty when there are more parts than shards. Concatenating the ranges in
/// order always reproduces `0..n_shards`, so folding per-part results in
/// part order (and per-shard results in grid order inside each part) is the
/// exact merge sequence of [`run_campaign_parallel`].
///
/// # Panics
///
/// Panics if `parts == 0`.
pub fn partition_shards(n_shards: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    assert!(parts >= 1, "at least one part");
    let base = n_shards / parts;
    let extra = n_shards % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut lo = 0usize;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        ranges.push(lo..lo + len);
        lo += len;
    }
    ranges
}

/// Executes the grid entries `shards` of a campaign into per-shard sinks:
/// [`FleetJob::run_shards`] on a plain job, without a recorder. Kept with
/// this signature for `perfbench/` until a benchmark PR moves it over.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] if the design cannot be
/// levelized.
///
/// # Panics
///
/// Panics if `shards` reaches past the end of the grid.
pub fn run_shard_states<S>(
    netlist: &Netlist,
    model: &PowerModel,
    config: &CampaignConfig,
    parallelism: Parallelism,
    shards: std::ops::Range<usize>,
) -> Result<Vec<S>, NetlistError>
where
    S: MergeableSink + Default,
{
    FleetJob::new(netlist, model, config.clone()).run_shards(parallelism, shards, &NullRecorder)
}

/// Folds per-shard (or per-part) states **in order** into one accumulator —
/// the canonical left fold shared by the in-process engine and the
/// distributed merge. Returns the default sink for an empty iterator.
pub fn fold_shard_states<S>(states: impl IntoIterator<Item = S>) -> S
where
    S: MergeableSink + Default,
{
    let mut acc: Option<S> = None;
    for s in states {
        match &mut acc {
            None => acc = Some(s),
            Some(a) => a.merge(s),
        }
    }
    acc.unwrap_or_default()
}

/// Runs `n_shards` independent work items across `parallelism` worker
/// threads and returns their results **in shard order** — the shared
/// deterministic scheduler of the campaign and fleet engines.
///
/// Workers pull shard indices from an atomic queue, so which thread runs a
/// shard is arbitrary, but the returned `Vec` is always ordered by shard
/// index: callers fold it left-to-right to get thread-count-invariant
/// results.
///
/// Each worker thread takes one element of `locals` for its whole run, and
/// `work` gets it with every shard index. At most `locals.len()` workers
/// run, and the inline path uses `locals[0]`. Passing the same `locals` to
/// several calls carries the state across them (the campaign engine's
/// block buffers).
///
/// # Panics
///
/// Panics if `locals` is empty; propagates worker panics.
pub(crate) fn run_sharded_with<T, L, F>(
    n_shards: usize,
    parallelism: Parallelism,
    locals: &mut [L],
    work: F,
) -> Vec<T>
where
    T: Send,
    L: Send,
    F: Fn(&mut L, usize) -> T + Sync,
{
    assert!(!locals.is_empty(), "at least one worker's state");
    let threads = parallelism.threads().min(n_shards.max(1)).min(locals.len());
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(n_shards, || None);

    // Inline fold path: `Parallelism::sequential()` and single-shard plans
    // must never pay for a scoped worker spawn — the work runs on the
    // calling thread (a regression test pins this via thread identity).
    if threads <= 1 || n_shards <= 1 {
        for (i, slot) in slots.iter_mut().enumerate() {
            *slot = Some(work(&mut locals[0], i));
        }
    } else {
        let next = AtomicUsize::new(0);
        let produced: Vec<(usize, T)> = std::thread::scope(|scope| {
            let work = &work;
            let next = &next;
            let workers: Vec<_> = locals[..threads]
                .iter_mut()
                .map(|state| {
                    scope.spawn(move || {
                        let mut local: Vec<(usize, T)> = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n_shards {
                                break;
                            }
                            local.push((i, work(state, i)));
                        }
                        local
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("shard worker panicked"))
                .collect()
        });
        for (i, result) in produced {
            slots[i] = Some(result);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every shard produces a result"))
        .collect()
}

/// Runs a campaign, streaming batches into `sink` in trace order (fixed
/// class first). Because every random stream is counter-derived, this
/// produces the exact same samples as [`run_campaign_parallel`] — the only
/// difference is that a custom, non-mergeable sink can be used.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] if the design cannot be
/// levelized.
pub fn run_campaign<S: TraceSink>(
    netlist: &Netlist,
    model: &PowerModel,
    config: &CampaignConfig,
    sink: &mut S,
) -> Result<(), NetlistError> {
    let engine = Engine::new(netlist, model, config, default_lane_words())?;
    engine.run_range(Population::Fixed, 0, config.n_fixed, sink);
    engine.run_range(Population::Random, 0, config.n_random, sink);
    Ok(())
}

// --- Round-checkpointed campaigns ------------------------------------------

/// Runs a campaign across `parallelism` worker threads, each owning a
/// private sink, and folds the per-shard sinks in shard order.
///
/// The result is **bit-identical at any thread count**: the shard grid and
/// the merge order are pure functions of `config`, and every shard's random
/// streams are counter-derived from `(seed, population, trace index)`.
/// This is the never-stopping case of the round-checkpointed engine (see
/// [`run_campaign_adaptive`]), executed as one round so no checkpoint work
/// is paid. Sinks whose empty state carries configuration run through
/// [`FleetJob::with_sink_factory`] and [`FleetJob::run`].
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] if the design cannot be
/// levelized.
pub fn run_campaign_parallel<S>(
    netlist: &Netlist,
    model: &PowerModel,
    config: &CampaignConfig,
    parallelism: Parallelism,
) -> Result<S, NetlistError>
where
    S: MergeableSink + Default,
{
    let job = FleetJob::new(netlist, model, config.clone());
    Ok(job.run(parallelism, &NullRecorder)?.sink)
}

/// Runs a campaign with round-checkpointed early stopping: after every
/// `shards_per_round` shards (see [`DEFAULT_SHARDS_PER_ROUND`]) the folded
/// accumulator is handed to `rule`, and the trace stream terminates once the
/// rule reports convergence.
///
/// `shards_per_round` also bounds per-round worker concurrency — the rule
/// must observe the folded round before the next one is scheduled, so at
/// most `shards_per_round` shards run at once, and a round pairs shards
/// into one block only when it holds at least two per worker. A thread
/// budget above `shards_per_round` buys nothing; raise the round size
/// instead (a configuration change, so the determinism contract is
/// unaffected — the stop round never depends on the thread count).
///
/// # Determinism contract
///
/// The early-stopped result is **byte-identical at any thread count** (the
/// rule only sees checkpoint-folded state, so the stop round is too), and
/// equals the *prefix* of a full non-adaptive run truncated at the same
/// round boundary: re-running [`run_campaign_parallel`] with the returned
/// `stats.fixed_traces`/`stats.random_traces` as the class budgets
/// reproduces the stopped sink bit for bit.
///
/// This is [`FleetJob::with_rule`] and [`FleetJob::run`] without a
/// recorder. Kept with this signature for `perfbench/` until a benchmark PR
/// moves it over.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] if the design cannot be
/// levelized.
pub fn run_campaign_adaptive<S, R>(
    netlist: &Netlist,
    model: &PowerModel,
    config: &CampaignConfig,
    parallelism: Parallelism,
    shards_per_round: usize,
    rule: &mut R,
) -> Result<CampaignOutcome<S>, NetlistError>
where
    S: MergeableSink + Default,
    R: StoppingRule<S>,
{
    FleetJob::new(netlist, model, config.clone())
        .with_rule(rule, shards_per_round)
        .run(parallelism, &NullRecorder)
}

/// [`run_campaign_adaptive`] reporting to `recorder` (see
/// [`FleetJob::run`] for the events). Kept with this signature for
/// `perfbench/` until a benchmark PR moves it over.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] if the design cannot be
/// levelized.
pub fn run_campaign_traced<S, R>(
    netlist: &Netlist,
    model: &PowerModel,
    config: &CampaignConfig,
    parallelism: Parallelism,
    shards_per_round: usize,
    rule: &mut R,
    recorder: &dyn Recorder,
) -> Result<CampaignOutcome<S>, NetlistError>
where
    S: MergeableSink + Default,
    R: StoppingRule<S>,
{
    FleetJob::new(netlist, model, config.clone())
        .with_rule(rule, shards_per_round)
        .run(parallelism, recorder)
}

/// Convenience wrapper collecting dense [`GateSamples`] (preallocated from
/// the campaign configuration, so recording never reallocates).
///
/// # Errors
///
/// Propagates [`run_campaign`] errors.
pub fn collect_gate_samples(
    netlist: &Netlist,
    model: &PowerModel,
    config: &CampaignConfig,
) -> Result<GateSamples, NetlistError> {
    let mut sink =
        GateSamples::with_capacity(netlist.gate_count(), config.n_fixed, config.n_random);
    run_campaign(netlist, model, config, &mut sink)?;
    Ok(sink)
}

/// Parallel variant of [`collect_gate_samples`]; bit-identical to the
/// sequential collection at any thread count.
///
/// # Errors
///
/// Propagates [`run_campaign_parallel`] errors.
pub fn collect_gate_samples_parallel(
    netlist: &Netlist,
    model: &PowerModel,
    config: &CampaignConfig,
    parallelism: Parallelism,
) -> Result<GateSamples, NetlistError> {
    run_campaign_parallel(netlist, model, config, parallelism)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_netlist::generators;

    fn mean(xs: &[f64]) -> f64 {
        xs.iter().sum::<f64>() / xs.len() as f64
    }

    fn var(xs: &[f64]) -> f64 {
        let m = mean(xs);
        xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
    }

    #[test]
    fn sample_counts_match_config() {
        let n = generators::iscas_c17();
        let cfg = CampaignConfig::new(100, 130, 1);
        let s = collect_gate_samples(&n, &PowerModel::default(), &cfg).unwrap();
        assert_eq!(s.gate_count(), n.gate_count());
        for id in n.ids() {
            assert_eq!(s.fixed(id).len(), 100);
            assert_eq!(s.random(id).len(), 130);
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let n = generators::iscas_c17();
        let cfg = CampaignConfig::new(64, 64, 9);
        let a = collect_gate_samples(&n, &PowerModel::default(), &cfg).unwrap();
        let b = collect_gate_samples(&n, &PowerModel::default(), &cfg).unwrap();
        for id in n.ids() {
            assert_eq!(a.fixed(id), b.fixed(id));
            assert_eq!(a.random(id), b.random(id));
        }
    }

    #[test]
    fn parallel_collection_is_bit_identical_to_sequential() {
        // The dense collector concatenates in trace order, so the parallel
        // engine must reproduce the sequential stream *exactly* — including
        // trailing partial batches and asymmetric class sizes.
        let n = generators::iscas_c17();
        let model = PowerModel::default();
        for (nf, nr) in [(100, 130), (65, 1), (TRACES_PER_SHARD + 7, 640)] {
            let cfg = CampaignConfig::new(nf, nr, 21);
            let seq = collect_gate_samples(&n, &model, &cfg).unwrap();
            for threads in [1, 2, 3, 8] {
                let par =
                    collect_gate_samples_parallel(&n, &model, &cfg, Parallelism::new(threads))
                        .unwrap();
                for id in n.ids() {
                    assert_eq!(seq.fixed(id), par.fixed(id), "threads={threads}");
                    assert_eq!(seq.random(id), par.random(id), "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn shard_grid_is_a_pure_function_of_the_config() {
        let cfg = CampaignConfig::new(TRACES_PER_SHARD * 2 + 5, 3, 1);
        let shards = shard_grid(&cfg);
        assert_eq!(shards.len(), 4, "3 fixed shards + 1 random shard");
        let covered: usize = shards
            .iter()
            .filter(|s| s.pop == Population::Fixed)
            .map(|s| s.count)
            .sum();
        assert_eq!(covered, cfg.n_fixed);
        assert!(shards
            .iter()
            .all(|s| s.start % WORD_LANES == 0 && s.count <= TRACES_PER_SHARD));
    }

    #[test]
    fn shard_grid_interleaves_populations_in_ascending_trace_order() {
        let cfg = CampaignConfig::new(TRACES_PER_SHARD * 3, TRACES_PER_SHARD + 1, 1);
        let shards = shard_grid(&cfg);
        // F0 R0 F1 R1 F2 — trailing fixed extras after the shorter class.
        let pops: Vec<Population> = shards.iter().map(|s| s.pop).collect();
        assert_eq!(
            pops,
            vec![
                Population::Fixed,
                Population::Random,
                Population::Fixed,
                Population::Random,
                Population::Fixed,
            ]
        );
        // Each population's shards appear in ascending trace order.
        for pop in [Population::Fixed, Population::Random] {
            let starts: Vec<usize> = shards
                .iter()
                .filter(|s| s.pop == pop)
                .map(|s| s.start)
                .collect();
            assert!(
                starts.windows(2).all(|w| w[0] < w[1]),
                "{pop:?}: {starts:?}"
            );
        }
    }

    #[test]
    fn partition_shards_tiles_the_grid_contiguously() {
        for (n, parts) in [(0, 1), (1, 1), (7, 3), (8, 2), (8, 16), (13, 5)] {
            let ranges = partition_shards(n, parts);
            assert_eq!(ranges.len(), parts);
            let mut next = 0usize;
            for r in &ranges {
                assert_eq!(r.start, next, "ranges must tile without gaps");
                assert!(r.end >= r.start);
                next = r.end;
            }
            assert_eq!(next, n, "ranges must cover the whole grid");
            let sizes: Vec<usize> = ranges.iter().map(ExactSizeIterator::len).collect();
            let (min, max) = (
                sizes.iter().min().copied().unwrap(),
                sizes.iter().max().copied().unwrap(),
            );
            assert!(max - min <= 1, "balanced partition: {sizes:?}");
        }
    }

    #[test]
    fn shard_states_fold_to_the_parallel_run_at_any_partitioning() {
        // Per-shard execution + canonical in-order fold must reproduce
        // run_campaign_parallel bit for bit regardless of how the grid is
        // cut into contiguous parts.
        let n = generators::iscas_c17();
        let model = PowerModel::default();
        let cfg = CampaignConfig::new(900, 1100, 17);
        let whole: GateSamples =
            run_campaign_parallel(&n, &model, &cfg, Parallelism::new(2)).unwrap();
        let n_shards = shard_grid(&cfg).len();
        for parts in [1usize, 2, 3, n_shards + 2] {
            let mut states: Vec<GateSamples> = Vec::new();
            for range in partition_shards(n_shards, parts) {
                states.extend(
                    run_shard_states::<GateSamples>(
                        &n,
                        &model,
                        &cfg,
                        Parallelism::sequential(),
                        range,
                    )
                    .unwrap(),
                );
            }
            assert_eq!(states.len(), n_shards);
            let folded = fold_shard_states(states);
            for id in n.ids() {
                assert_eq!(whole.fixed(id), folded.fixed(id), "parts = {parts}");
                assert_eq!(whole.random(id), folded.random(id), "parts = {parts}");
            }
        }
    }

    /// Test rule: stop unconditionally after a fixed number of rounds.
    struct StopAfter(usize);

    impl<S> StoppingRule<S> for StopAfter {
        fn should_stop(&mut self, c: &Checkpoint<'_, S>) -> bool {
            c.round >= self.0
        }
    }

    #[test]
    fn never_stop_rounds_match_single_round_fold() {
        // Checkpoint granularity is pure scheduling: folding in rounds of 2
        // shards produces the same merge sequence (and bytes) as one round.
        let n = generators::iscas_c17();
        let model = PowerModel::default();
        let cfg = CampaignConfig::new(1000, 900, 13);
        let whole: GateSamples =
            run_campaign_parallel(&n, &model, &cfg, Parallelism::new(2)).unwrap();
        let rounds: CampaignOutcome<GateSamples> =
            run_campaign_adaptive(&n, &model, &cfg, Parallelism::new(2), 2, &mut NeverStop)
                .unwrap();
        assert!(!rounds.stats.stopped_early);
        assert_eq!(rounds.stats.fixed_traces, 1000);
        assert_eq!(rounds.stats.random_traces, 900);
        for id in n.ids() {
            assert_eq!(whole.fixed(id), rounds.sink.fixed(id));
            assert_eq!(whole.random(id), rounds.sink.random(id));
        }
    }

    #[test]
    fn early_stop_is_the_exact_prefix_of_the_full_run() {
        let n = generators::iscas_c17();
        let model = PowerModel::default();
        let cfg = CampaignConfig::new(1200, 1200, 21);
        let stopped: CampaignOutcome<GateSamples> =
            run_campaign_adaptive(&n, &model, &cfg, Parallelism::new(3), 2, &mut StopAfter(2))
                .unwrap();
        assert!(stopped.stats.stopped_early);
        assert_eq!(stopped.stats.rounds, 2);
        // 2 rounds × 2 shards = F0 R0 F1 R1 → one full shard per class each.
        assert_eq!(stopped.stats.fixed_traces, 2 * TRACES_PER_SHARD);
        assert_eq!(stopped.stats.random_traces, 2 * TRACES_PER_SHARD);
        // The stopped sink equals the full run truncated at the boundary…
        let full = collect_gate_samples(&n, &model, &cfg).unwrap();
        for id in n.ids() {
            assert_eq!(
                stopped.sink.fixed(id),
                &full.fixed(id)[..stopped.stats.fixed_traces]
            );
            assert_eq!(
                stopped.sink.random(id),
                &full.random(id)[..stopped.stats.random_traces]
            );
        }
        // …and a campaign re-configured to the stopped budgets reproduces it.
        let prefix_cfg = CampaignConfig::new(
            stopped.stats.fixed_traces,
            stopped.stats.random_traces,
            cfg.seed,
        );
        let prefix = collect_gate_samples(&n, &model, &prefix_cfg).unwrap();
        for id in n.ids() {
            assert_eq!(stopped.sink.fixed(id), prefix.fixed(id));
            assert_eq!(stopped.sink.random(id), prefix.random(id));
        }
    }

    #[test]
    fn stopping_rule_sees_balanced_checkpoints() {
        struct Recorder(Vec<(usize, usize, usize)>);
        impl<S> StoppingRule<S> for Recorder {
            fn should_stop(&mut self, c: &Checkpoint<'_, S>) -> bool {
                self.0.push((c.round, c.fixed_traces, c.random_traces));
                assert!(c.information_fraction() > 0.0 && c.information_fraction() <= 1.0);
                false
            }
        }
        let n = generators::iscas_c17();
        let cfg = CampaignConfig::new(1024, 1024, 7);
        let mut rec = Recorder(Vec::new());
        let outcome: CampaignOutcome<WelchProbe> = run_campaign_adaptive(
            &n,
            &PowerModel::default(),
            &cfg,
            Parallelism::sequential(),
            2,
            &mut rec,
        )
        .unwrap();
        // 8 shards, 2 per round → 4 rounds; the last round has no checkpoint.
        assert_eq!(outcome.stats.rounds, 4);
        assert_eq!(rec.0, vec![(1, 256, 256), (2, 512, 512), (3, 768, 768)]);
    }

    /// Minimal mergeable sink for scheduler-focused tests.
    #[derive(Default)]
    struct WelchProbe {
        fixed: usize,
        random: usize,
    }

    impl TraceSink for WelchProbe {
        fn record_batch(&mut self, pop: Population, batch: EnergyBatch<'_>) {
            if batch.first_gate() > 0 {
                return;
            }
            match pop {
                Population::Fixed => self.fixed += batch.lanes(),
                Population::Random => self.random += batch.lanes(),
            }
        }
    }

    impl MergeableSink for WelchProbe {
        fn merge(&mut self, other: Self) {
            self.fixed += other.fixed;
            self.random += other.random;
        }
    }

    #[test]
    fn sequential_run_sharded_stays_on_the_calling_thread() {
        // Regression: neither `Parallelism::sequential()` nor a single-shard
        // plan may spawn a scoped worker — the inline fold path must run the
        // work on the calling thread.
        let caller = std::thread::current().id();
        let ids = run_sharded_with(6, Parallelism::sequential(), &mut [(); 8], |_, _| {
            std::thread::current().id()
        });
        assert!(ids.iter().all(|&id| id == caller), "sequential run spawned");
        let ids = run_sharded_with(1, Parallelism::new(8), &mut [(); 8], |_, _| {
            std::thread::current().id()
        });
        assert_eq!(ids, vec![caller], "single-shard run spawned");
        let empty = run_sharded_with(0, Parallelism::new(8), &mut [(); 8], |_, _| {
            std::thread::current().id()
        });
        assert!(empty.is_empty());
    }

    /// Sink that records the lane count of every block it receives.
    #[derive(Default)]
    struct LaneRecorder {
        batches: Vec<(Population, usize)>,
    }

    impl TraceSink for LaneRecorder {
        fn record_batch(&mut self, pop: Population, batch: EnergyBatch<'_>) {
            assert_eq!(batch.energies().len(), batch.gates() * batch.lanes());
            if batch.first_gate() == 0 {
                self.batches.push((pop, batch.lanes()));
            }
        }
    }

    fn lane_counts(netlist: &Netlist, cfg: &CampaignConfig, lane_words: usize) -> Vec<Vec<usize>> {
        let engine = Engine::new(netlist, &PowerModel::default(), cfg, lane_words).unwrap();
        let mut rec = LaneRecorder::default();
        engine.run_range(Population::Fixed, 0, cfg.n_fixed, &mut rec);
        engine.run_range(Population::Random, 0, cfg.n_random, &mut rec);
        [Population::Fixed, Population::Random]
            .iter()
            .map(|pop| {
                rec.batches
                    .iter()
                    .filter(|(p, _)| p == pop)
                    .map(|(_, l)| *l)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn trailing_partial_batch_reports_true_lane_count() {
        // The last batch of each class must report its real lane count, not
        // a padded block width — at every lane width.
        let n = generators::iscas_c17();
        let cfg = CampaignConfig::new(130, 65, 2);
        // W = 1: 130 = 64 + 64 + 2, 65 = 64 + 1.
        assert_eq!(lane_counts(&n, &cfg, 1), vec![vec![64, 64, 2], vec![64, 1]]);
        // W = 2: 130 = 128 + 2 (the 2-lane block has one partial word).
        assert_eq!(lane_counts(&n, &cfg, 2), vec![vec![128, 2], vec![65]]);
        // W = 4: both classes fit one block with a partial trailing word.
        assert_eq!(lane_counts(&n, &cfg, 4), vec![vec![130], vec![65]]);
        assert_eq!(lane_counts(&n, &cfg, 8), vec![vec![130], vec![65]]);
    }

    #[test]
    fn energy_batch_rejects_malformed_shapes() {
        let e = vec![0.0; 12];
        // 3 gates × 4 lanes: well-formed.
        let b = EnergyBatch::new(&e, 3, 4).unwrap();
        assert_eq!(b.gates(), 3);
        assert_eq!(b.lanes(), 4);
        assert_eq!(b.gate_lanes(2), &e[8..12]);
        // Zero lanes.
        assert_eq!(
            EnergyBatch::new(&e, 12, 0).unwrap_err(),
            BatchShapeError::ZeroLanes
        );
        // Wider than any simulation block.
        assert_eq!(
            EnergyBatch::new(&e, 1, BATCH_LANES + 1).unwrap_err(),
            BatchShapeError::TooManyLanes {
                lanes: BATCH_LANES + 1
            }
        );
        // Length mismatch — the bug class the old debug_assert let through
        // in release builds.
        assert_eq!(
            EnergyBatch::new(&e, 3, 5).unwrap_err(),
            BatchShapeError::LengthMismatch {
                expected: 15,
                actual: 12
            }
        );
        // Error values render.
        assert!(BatchShapeError::ZeroLanes.to_string().contains("zero"));
        assert!(EnergyBatch::new(&e, 3, 5)
            .unwrap_err()
            .to_string()
            .contains("expected 15"));
    }

    #[test]
    fn lane_width_is_byte_identical_on_dense_samples() {
        // The dense collector must receive the exact same per-gate sample
        // stream at every lane width — including trailing partial blocks
        // with partial words (masked-off lanes never leak garbage).
        let n = generators::iscas_c17();
        let model = PowerModel::default();
        for (nf, nr) in [(130, 65), (64, 64), (300, 257), (1, 513)] {
            let cfg = CampaignConfig::new(nf, nr, 23);
            let collect = |w: usize| {
                let engine = Engine::new(&n, &model, &cfg, w).unwrap();
                let mut s = GateSamples::with_capacity(n.gate_count(), nf, nr);
                engine.run_range(Population::Fixed, 0, nf, &mut s);
                engine.run_range(Population::Random, 0, nr, &mut s);
                s
            };
            let base = collect(1);
            for w in [2usize, 4, 8] {
                let wide = collect(w);
                for id in n.ids() {
                    assert_eq!(base.fixed(id), wide.fixed(id), "W={w} nf={nf} nr={nr}");
                    assert_eq!(base.random(id), wide.random(id), "W={w} nf={nf} nr={nr}");
                }
            }
        }
    }

    #[test]
    fn glitch_path_is_width_invariant() {
        // The unit-delay (glitch) and multi-cycle paths use the toggle
        // counters rather than the single-cycle fast path; both must be
        // width-invariant too. 1100 = 2 × 512 + 64 + 12 and 1030 = 2 × 512
        // + 6: full blocks (lockstep fills of `W` words, on hosts that run
        // them) and a partial trailing word at every width.
        let n = generators::multiplier(1, 4);
        let model = PowerModel::default();
        let cfg = CampaignConfig::new(1100, 1030, 31).with_glitches();
        let collect = |w: usize| {
            let engine = Engine::new(&n, &model, &cfg, w).unwrap();
            let mut s = GateSamples::default();
            engine.run_range(Population::Fixed, 0, cfg.n_fixed, &mut s);
            engine.run_range(Population::Random, 0, cfg.n_random, &mut s);
            s
        };
        let base = collect(1);
        for w in [2usize, 4, 8] {
            let wide = collect(w);
            for id in n.ids() {
                assert_eq!(base.fixed(id), wide.fixed(id), "W={w}");
                assert_eq!(base.random(id), wide.random(id), "W={w}");
            }
        }
    }

    #[test]
    fn multi_cycle_sequential_is_width_invariant() {
        // Full blocks and a partial trailing word at every width, as in
        // `glitch_path_is_width_invariant`.
        let m = generators::memctrl(1, 3);
        let model = PowerModel::default();
        let cfg = CampaignConfig::new(1030, 1100, 13).with_cycles(3);
        let collect = |w: usize| {
            let engine = Engine::new(&m, &model, &cfg, w).unwrap();
            let mut s = GateSamples::default();
            engine.run_range(Population::Fixed, 0, cfg.n_fixed, &mut s);
            engine.run_range(Population::Random, 0, cfg.n_random, &mut s);
            s
        };
        let base = collect(1);
        for w in [2usize, 4, 8] {
            let wide = collect(w);
            for id in m.ids() {
                assert_eq!(base.fixed(id), wide.fixed(id), "W={w}");
                assert_eq!(base.random(id), wide.random(id), "W={w}");
            }
        }
    }

    /// A dense collector's samples as bit patterns, class by class.
    fn sample_bits(s: &GateSamples) -> [Vec<Vec<u64>>; 2] {
        let (fixed, random) = s.classes();
        let bits = |c: &[Vec<f64>]| {
            c.iter()
                .map(|g| g.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        [bits(fixed), bits(random)]
    }

    /// One worker's scratch serves shards in any order and of any shape:
    /// every shard's samples equal a run in fresh buffers. The shards come
    /// in reverse grid order, so the partial ones (612 = 2 × 256 + 100,
    /// with a partial word) run before the full ones, and the designs
    /// alternate c432, c17, c432, so the buffers shrink and grow again;
    /// the lane width changes too. The single-cycle path reads toggle bits,
    /// the multi-cycle and glitch paths read toggle counters, which a
    /// reused scratch must clear for every block.
    #[test]
    fn reused_scratch_matches_fresh_scratch() {
        let c432 = generators::iscas_like("c432", 1, 5).unwrap();
        let c17 = generators::iscas_c17();
        let model = PowerModel::default();
        let base = CampaignConfig::new(612, 600, 41);
        for cfg in [
            base.clone(),
            base.clone().with_cycles(3),
            base.with_glitches(),
        ] {
            let grid = shard_grid(&cfg);
            assert!(grid.iter().any(|s| s.count() < TRACES_PER_SHARD));
            let mut scratch = BlockScratch::default();
            for lane_words in [4, 8, 1] {
                for netlist in [&c432, &c17, &c432] {
                    let engine = Engine::new(netlist, &model, &cfg, lane_words).unwrap();
                    for (i, &shard) in grid.iter().enumerate().rev() {
                        let unit = WorkUnit {
                            first: (i, shard),
                            partner: None,
                        };
                        let (reused, _) = engine
                            .run_unit(unit, &GateSamples::default, false, &mut scratch)
                            .pop()
                            .expect("one shard");
                        let mut fresh = GateSamples::default();
                        engine.run_range(shard.pop, shard.start, shard.count, &mut fresh);
                        assert!(
                            sample_bits(&reused) == sample_bits(&fresh),
                            "{} gates, W = {lane_words}, cycles {}, {:?}: {shard:?}",
                            netlist.gate_count(),
                            cfg.cycles,
                            cfg.delay_model
                        );
                    }
                }
            }
        }
    }

    /// A unit's times go to its shards in proportion to their trace counts,
    /// and every phase's shares add up to the unit's time.
    #[test]
    fn unit_timing_splits_by_trace_count() {
        let unit = ShardTiming {
            wall_ns: 3560,
            rng_ns: 7,
            sim_ns: 356,
            power_ns: 1001,
            acc_ns: 0,
        };
        let shards = unit.split(&[256, 100]);
        let phases = |t: &ShardTiming| [t.wall_ns, t.rng_ns, t.sim_ns, t.power_ns, t.acc_ns];
        assert_eq!(phases(&shards[0]), [2560, 5, 256, 719, 0]);
        assert_eq!(phases(&shards[1]), [1000, 2, 100, 282, 0]);
        let [alone] = &unit.split(&[37])[..] else {
            panic!("one shard, one share");
        };
        assert_eq!(phases(alone), phases(&unit));
    }

    /// The energy buffer holds one chunk of gates, not the whole
    /// gates × lanes matrix: on a design of more than 1000 gates, whatever
    /// the width and whether blocks pair shards, it never takes more than
    /// one chunk at the widest block.
    #[test]
    fn energy_buffer_never_outgrows_one_chunk() {
        let big = generators::iscas_like("c1908", 3, 7).unwrap();
        assert!(big.gate_count() > 1000, "{} gates", big.gate_count());
        let cfg = CampaignConfig::new(3 * TRACES_PER_SHARD + 40, 2 * TRACES_PER_SHARD, 5);
        let grid = shard_grid(&cfg);
        let mut scratch = BlockScratch::default();
        for lane_words in [1, 8, 2, 4, 8] {
            let engine = Engine::new(&big, &PowerModel::default(), &cfg, lane_words).unwrap();
            for unit in work_units(&grid, 0..grid.len(), lane_words, 1) {
                engine.run_unit(unit, &GateSamples::default, false, &mut scratch);
                let capacity = scratch.energies.capacity();
                assert!(
                    capacity <= GATE_CHUNK * MAX_LANE_WORDS * WORD_LANES,
                    "{capacity} energies at W = {lane_words}"
                );
            }
        }
    }

    /// Every word's noise stream carries its position from one gate chunk
    /// to the next: after a block, stream `w` has drawn two values per lane
    /// of its word for every gate, as one pass over all gates leaves it.
    /// The block is cut between two sinks and has a partial last word.
    #[test]
    fn noise_streams_carry_across_chunks() {
        let c432 = generators::iscas_like("c432", 1, 5).unwrap();
        let gates = c432.gate_count();
        assert!(gates > 2 * GATE_CHUNK, "{gates} gates");
        let cfg = CampaignConfig::new(0, 0, 3);
        let engine = Engine::new(&c432, &PowerModel::default(), &cfg, 8).unwrap();
        let mut scratch = BlockScratch::default();
        scratch.fit::<8>(&engine);
        let values = vec![0u64; gates * 8];
        let lanes = TRACES_PER_SHARD + 100;
        let (pieces, len) = block_pieces(&[TRACES_PER_SHARD, 100], 0, lanes);
        let mut noise: [StdRng; 8] = std::array::from_fn(|w| StdRng::seed_from_u64(w as u64));
        for first in (0..gates).step_by(GATE_CHUNK) {
            let rows = ChunkRows::new(
                first..(first + GATE_CHUNK).min(gates),
                lanes,
                &pieces[..len],
            );
            engine.emit_chunk(&rows, true, &values, &mut noise, &mut scratch);
        }
        for (w, stream) in noise.iter().enumerate() {
            let mut want = StdRng::seed_from_u64(w as u64);
            let word = lanes.saturating_sub(w * WORD_LANES).min(WORD_LANES);
            for _ in 0..2 * word * gates {
                want.gen::<u64>();
            }
            assert_eq!(*stream, want, "word {w}");
        }
    }

    #[test]
    fn fixed_population_has_low_variance_random_high() {
        // An unmasked gate's toggles are deterministic under the fixed class,
        // so its sample variance is just the noise floor; under random data
        // the logic itself varies. This is the physical leakage TVLA detects.
        let n = generators::iscas_c17();
        let cfg = CampaignConfig::new(400, 400, 5);
        let model = PowerModel::default().with_noise(0.05);
        let s = collect_gate_samples(&n, &model, &cfg).unwrap();
        // Look at an internal nand driven by data.
        let gate = n
            .iter()
            .find(|(_, g)| g.kind() == polaris_netlist::GateKind::Nand)
            .map(|(id, _)| id)
            .unwrap();
        let vf = var(s.fixed(gate));
        let vr = var(s.random(gate));
        assert!(
            vr > vf * 3.0,
            "random-class variance should dominate: fixed {vf}, random {vr}"
        );
    }

    #[test]
    fn fixed_vs_fixed_gives_two_deterministic_classes() {
        let n = generators::iscas_c17();
        let v1 = vec![true, false, true, false, true];
        let v2 = vec![false, true, false, true, false];
        let cfg = CampaignConfig::new(50, 50, 3)
            .with_fixed_vector(v1)
            .fixed_vs_fixed(v2);
        let model = PowerModel::default().with_noise(0.0);
        let s = collect_gate_samples(&n, &model, &cfg).unwrap();
        for id in n.ids() {
            assert!(var(s.fixed(id)) < 1e-12);
            assert!(var(s.random(id)) < 1e-12);
        }
    }

    #[test]
    fn zero_noise_fixed_class_is_constant() {
        let n = generators::iscas_c17();
        let cfg = CampaignConfig::new(80, 80, 11);
        let model = PowerModel::default().with_noise(0.0);
        let s = collect_gate_samples(&n, &model, &cfg).unwrap();
        for id in n.ids() {
            let f = s.fixed(id);
            assert!(f.iter().all(|&x| (x - f[0]).abs() < 1e-12));
        }
    }

    #[test]
    fn mask_inputs_randomize_both_populations() {
        // xor of data with a mask input: even the fixed class toggles
        // randomly, so the class means converge (no first-order leakage).
        let src = "
module m (a, m0, y);
  input a;
  mask_input m0;
  output y;
  xor g (y, a, m0);
endmodule";
        let n = polaris_netlist::parse_netlist(src).unwrap();
        let cfg = CampaignConfig::new(3000, 3000, 17);
        let model = PowerModel::default().with_noise(0.05);
        let s = collect_gate_samples(&n, &model, &cfg).unwrap();
        let xor_gate = n
            .iter()
            .find(|(_, g)| g.kind() == polaris_netlist::GateKind::Xor)
            .map(|(id, _)| id)
            .unwrap();
        let mf = mean(s.fixed(xor_gate));
        let mr = mean(s.random(xor_gate));
        assert!(
            (mf - mr).abs() < 0.1,
            "masked gate means should converge: fixed {mf}, random {mr}"
        );
        // And its fixed-class variance is now high (mask-driven toggling).
        assert!(var(s.fixed(xor_gate)) > 0.1);
    }

    #[test]
    fn sequential_design_accumulates_over_cycles() {
        let m = generators::memctrl(1, 3);
        let cfg1 = CampaignConfig::new(32, 32, 3).with_cycles(1);
        let cfg4 = CampaignConfig::new(32, 32, 3).with_cycles(4);
        let model = PowerModel::default().with_noise(0.0);
        let s1 = collect_gate_samples(&m, &model, &cfg1).unwrap();
        let s4 = collect_gate_samples(&m, &model, &cfg4).unwrap();
        let tot1: f64 = m.ids().map(|id| mean(s1.random(id))).sum();
        let tot4: f64 = m.ids().map(|id| mean(s4.random(id))).sum();
        assert!(tot4 > tot1, "more cycles, more switching: {tot4} vs {tot1}");
    }

    #[test]
    fn glitch_model_sees_static_hazards() {
        // g2 = a AND (NOT a) is statically 0 but glitches on a: 0 -> 1
        // under unit delay (a arrives before the inverter updates).
        let src = "
module h (a, y);
  input a;
  output y;
  not n1 (nb, a);
  and a1 (y, a, nb);
endmodule";
        let n = polaris_netlist::parse_netlist(src).unwrap();
        let model = PowerModel::default().with_noise(0.0);
        let and_gate = n
            .iter()
            .find(|(_, g)| g.kind() == polaris_netlist::GateKind::And)
            .map(|(id, _)| id)
            .unwrap();
        // Fixed vector all-ones: base application drives 0, stimulus drives 1.
        let mk = |glitch: bool| {
            let mut cfg = CampaignConfig::new(8, 8, 3).with_fixed_vector(vec![true]);
            if glitch {
                cfg = cfg.with_glitches();
            }
            collect_gate_samples(&n, &model, &cfg).unwrap()
        };
        let zero = mk(false);
        let unit = mk(true);
        // Zero-delay: the AND output stays 0 → zero energy.
        assert!(zero.fixed(and_gate).iter().all(|&e| e.abs() < 1e-12));
        // Unit-delay: the hazard costs two transitions worth of energy.
        assert!(unit.fixed(and_gate).iter().all(|&e| e > 1.0));
    }

    #[test]
    fn glitch_model_functionally_equivalent() {
        // Final settled outputs agree between the two delay models.
        let n = generators::sin(1, 5);
        let sim = Simulator::new(&n).unwrap();
        let data: Vec<u64> = (0..n.data_inputs().len())
            .map(|i| 0xABCD_EF01_2345_6789u64.rotate_left(i as u32))
            .collect();
        let mut st_zero = sim.zero_state();
        sim.eval(&mut st_zero, &data, &[]);
        let mut st_unit = sim.zero_state();
        sim.eval_unit_delay(&mut st_unit, &data, &[], |_, _| {});
        for (p, _) in n.outputs() {
            let _ = p;
        }
        for id in n.ids() {
            assert_eq!(st_zero.value(id), st_unit.value(id), "gate {id}");
        }
    }

    #[test]
    fn glitches_increase_energy_in_deep_logic() {
        let n = generators::multiplier(1, 5);
        let model = PowerModel::default().with_noise(0.0);
        let zero_cfg = CampaignConfig::new(0, 64, 9);
        let glitch_cfg = CampaignConfig::new(0, 64, 9).with_glitches();
        let z = collect_gate_samples(&n, &model, &zero_cfg).unwrap();
        let g = collect_gate_samples(&n, &model, &glitch_cfg).unwrap();
        let total =
            |s: &GateSamples| -> f64 { n.ids().map(|id| s.random(id).iter().sum::<f64>()).sum() };
        let tz = total(&z);
        let tg = total(&g);
        assert!(
            tg > tz * 1.2,
            "glitching should add energy in an array multiplier: {tg} vs {tz}"
        );
    }

    use crate::logic::Simulator;

    #[test]
    fn partial_batches_handled() {
        let n = generators::iscas_c17();
        let cfg = CampaignConfig::new(65, 1, 2);
        let s = collect_gate_samples(&n, &PowerModel::default(), &cfg).unwrap();
        assert_eq!(s.fixed(GateId::new(0)).len(), 65);
        assert_eq!(s.random(GateId::new(0)).len(), 1);
    }

    #[test]
    fn one_sided_campaign_merges_cleanly() {
        // n_fixed == 0: parallel merging must cope with sinks that only ever
        // saw one population.
        let n = generators::iscas_c17();
        let cfg = CampaignConfig::new(0, 300, 4);
        let s: GateSamples =
            run_campaign_parallel(&n, &PowerModel::default(), &cfg, Parallelism::new(4)).unwrap();
        assert_eq!(s.random(GateId::new(0)).len(), 300);
        assert!(s.fixed.iter().all(Vec::is_empty));
    }

    #[test]
    fn parallelism_resolution() {
        assert_eq!(Parallelism::sequential().threads(), 1);
        assert_eq!(Parallelism::new(3).threads(), 3);
        assert!(Parallelism::auto().threads() >= 1);
    }
}
