//! Test Vector Leakage Assessment (TVLA).
//!
//! Implements the leakage-assessment substrate of the paper (§II-A):
//!
//! * [`welch`] — Welch's t-test with the Welch–Satterthwaite degrees of
//!   freedom (paper Eq. 1) and exact two-sided p-values via the regularized
//!   incomplete beta function.
//! * [`moments`] — the one-pass raw/central moment streaming of
//!   Schneider–Moradi (paper Eqs. 3–4), including accumulator merging, so
//!   trace acquisition never stores full trace matrices.
//! * [`gate_leakage`] — per-gate leakage maps: the `leak_estimate` primitive
//!   used by Algorithms 1–2 of the paper and by the VALIANT baseline,
//!   including the ±4.5 leaky-gate threshold and second-order (centered
//!   square) assessment.
//! * [`comoments`] — higher-order (bivariate, trivariate) TVLA: one
//!   streaming co-moment engine, [`CoMoments<K>`], for every order, with
//!   [`bivariate`] and [`trivariate`] as its order-2 and order-3 names.
//! * [`sequential`] — adaptive sequential stopping: an O'Brien–Fleming
//!   alpha-spending rule evaluated at the parallel engine's round
//!   checkpoints, terminating a campaign once every gate's verdict has
//!   converged ([`assess_adaptive`]).
//!
//! # Example
//!
//! ```
//! use polaris_netlist::generators;
//! use polaris_sim::{CampaignConfig, PowerModel};
//! use polaris_tvla::assess;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = generators::iscas_c17();
//! let cfg = CampaignConfig::new(500, 500, 7);
//! let leakage = assess(&design, &PowerModel::default(), &cfg)?;
//! // Unprotected data-driven logic shows first-order leakage.
//! assert!(leakage.max_abs_t() > polaris_tvla::TVLA_THRESHOLD);
//! # Ok(())
//! # }
//! ```

pub mod bivariate;
pub mod comoments;
pub mod gate_leakage;
pub mod moments;
pub mod sequential;
pub mod special;
pub mod trivariate;
pub mod welch;

pub use bivariate::{all_pairs, assess_pairs, PairAccumulator, PairMoments};
pub use comoments::{
    all_gate_sets, assess_gate_sets, co_moment_welch_t, parse_gate_sets, set_noun,
    validate_gate_sets, CoMomentAccumulator, CoMoments, MultivariateError, Order, SupportedOrder,
};
pub use gate_leakage::{
    assess, assess_order2, assess_order2_parallel, assess_parallel, ConvergenceSummary,
    GateLeakage, LeakageSummary, WelchAccumulator,
};
pub use moments::StreamingMoments;
pub use sequential::{
    adaptive_fleet_job, assess_adaptive, campaign_outcome_adaptive, AdaptiveAssessment,
    SequentialConfig, SequentialStopping,
};
pub use trivariate::{all_triples, assess_triples, TripleAccumulator, TripleMoments};
pub use welch::{welch_t, WelchResult};

/// The conventional TVLA distinguishability threshold on `|t|` (±4.5, giving
/// >99.999 % confidence for large sample sizes — paper §II-A).
pub const TVLA_THRESHOLD: f64 = 4.5;
