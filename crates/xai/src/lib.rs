//! Explainable-AI substrate: SHAP for tree ensembles.
//!
//! POLARIS interprets its trained masking model with SHAP (paper §IV-B,
//! Eq. 6) to produce waterfall explanations (Fig. 3) and distilled
//! human-readable masking rules (Table V). This crate implements:
//!
//! * [`mod@tree_shap`] — **exact interventional TreeSHAP**: per-leaf closed-form
//!   Shapley contributions against a background dataset, `O(leaves × depth)`
//!   per background sample, summed over the ensemble in margin space.
//! * [`exact`] — the `O(2^M)` brute-force Shapley oracle that validates
//!   TreeSHAP in tests.
//! * [`waterfall`] — text waterfall plots of one prediction's φ values.
//! * [`rules`] — SHAP-guided mining of conjunction rules ("as long as …
//!   → Select & Replace with masking gate").
//!
//! # Example
//!
//! ```
//! use polaris_ml::{Dataset, adaboost::AdaBoost, TreeEnsemble};
//! use polaris_xai::tree_shap::tree_shap;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut d = Dataset::new(vec!["a".into(), "b".into()]);
//! for i in 0..100u32 {
//!     let a = (i % 2) as f32;
//!     let b = ((i / 2) % 2) as f32;
//!     d.push(&[a, b], (a != b) as u8)?;
//! }
//! let model = AdaBoost::fit(&d, &Default::default())?;
//! let background: Vec<Vec<f32>> = (0..d.len()).map(|i| d.row(i).to_vec()).collect();
//! let explanation = tree_shap(&model, &background, &[1.0, 0.0]);
//! // Efficiency axiom: contributions sum from the base value to the margin.
//! let sum: f64 = explanation.values.iter().sum();
//! assert!((explanation.base_value + sum - model.margin(&[1.0, 0.0])).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

pub mod exact;
pub mod rules;
pub mod tree_shap;
pub mod waterfall;

pub use rules::{MaskAction, Rule, RuleCondition, RuleMiner, RuleSet};
pub use tree_shap::{tree_shap, ShapExplanation};
pub use waterfall::Waterfall;
