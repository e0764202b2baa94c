//! Gate-level logic simulation and power-trace acquisition.
//!
//! The simulator is *bit-parallel and multi-word*: every signal is held as
//! `W` consecutive `u64` words (`W ∈ {1, 2, 4, 8}` lane words, each word
//! carrying 64 independent trace lanes), so up to `W × 64 = 512` traces
//! advance per gate visit in straight-line word-parallel code the
//! autovectorizer can widen to SIMD registers. The lane width is a pure
//! throughput knob ([`Parallelism::with_lane_words`]): every random stream
//! stays keyed per 64-lane word, so campaign outcomes are **byte-identical
//! at every width** — same guarantee as the thread count. On top of the
//! logic core sits a switching-activity power model (per-cell capacitance ×
//! toggle count + Gaussian measurement noise) and [`campaign`] — the
//! fixed-vs-random / fixed-vs-fixed trace campaigns TVLA consumes.
//!
//! Mask inputs (see [`Netlist::mask_inputs`][polaris_netlist::Netlist::mask_inputs])
//! are re-randomized on **every trace for both populations**, which is what
//! models the fresh remasking randomness of a protected implementation: a
//! masked gate's switching is driven by the masks, decorrelating its power
//! from the data and collapsing the t-statistic.
//!
//! Campaigns are *sharded*: every random stream is counter-derived from
//! `(master_seed, population, trace index)`, so
//! [`campaign::run_campaign_parallel`] can split a campaign across worker
//! threads — each owning a private [`MergeableSink`] — and fold the shards
//! back deterministically. Results are bit-identical at any thread count.
//! The shard grid is walked in *rounds*: [`campaign::run_campaign_adaptive`]
//! evaluates a [`StoppingRule`] on the checkpoint-folded state after each
//! round and terminates the trace stream once the leakage verdict has
//! converged — an early-stopped run is the exact prefix of the full run.
//! That fold-and-checkpoint state machine is written once, as
//! [`RoundFolder`], and every driver — the in-process engine, the fleet
//! scheduler, the distributed coordinator — feeds it.
//! A campaign run is one value, a [`FleetJob`]: [`FleetJob::run`] runs it
//! alone, and whole *suites* of them schedule on one shared pool
//! ([`fleet::run_fleet`]): shards of different campaigns interleave on the
//! same workers while every job stays byte-identical to its standalone run.
//!
//! # Example
//!
//! ```
//! use polaris_netlist::generators;
//! use polaris_sim::{CampaignConfig, PowerModel, Simulator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = generators::iscas_c17();
//! let sim = Simulator::new(&design)?;
//! // Functional check: drive all-ones, read outputs.
//! let outs = sim.eval_bool(&[true; 5], &[])?;
//! assert_eq!(outs.len(), 2);
//!
//! // Power campaign: 128 fixed vs 128 random traces.
//! let cfg = CampaignConfig::new(128, 128, 0xC0FFEE);
//! let samples = polaris_sim::campaign::collect_gate_samples(
//!     &design,
//!     &PowerModel::default(),
//!     &cfg,
//! )?;
//! assert_eq!(samples.gate_count(), design.gate_count());
//! # Ok(())
//! # }
//! ```

pub mod campaign;
pub mod fleet;
pub mod logic;
pub mod power;
pub mod round;

pub use campaign::{
    collect_gate_samples, collect_gate_samples_parallel, fold_shard_states, partition_shards,
    run_campaign, run_campaign_adaptive, run_campaign_parallel, run_campaign_traced,
    run_shard_states, shard_grid, BatchShapeError, CampaignConfig, DelayModel, EnergyBatch,
    GateSamples, MergeableSink, Parallelism, Population, ShardSpec, TraceSink, BATCH_LANES,
    DEFAULT_LANE_WORDS, MAX_LANE_WORDS, WORD_LANES,
};
pub use fleet::{run_fleet, FleetJob};
pub use logic::{BlockState, SimState, Simulator};
pub use power::PowerModel;
pub use round::{
    CampaignOutcome, CampaignStats, Checkpoint, Ingest, NeverStop, RoundFolder, StoppingRule,
};
