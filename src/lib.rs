//! Umbrella crate for the POLARIS reproduction workspace.
//!
//! This crate exists to host the workspace-level `examples/` and `tests/`
//! directories; it re-exports the member crates so examples and integration
//! tests can reach everything through one dependency.
//!
//! See the individual crates for the actual functionality:
//!
//! * [`polaris_netlist`] — gate-level netlist IR, parser, graph view, and
//!   benchmark generators.
//! * [`polaris_sim`] — levelized logic simulator and power-trace campaigns.
//! * [`polaris_tvla`] — Welch's t-test leakage assessment (TVLA).
//! * [`polaris_masking`] — Trichina/DOM masking transforms and the
//!   technology-library overhead model.
//! * [`polaris_ml`] — decision trees, random forests, AdaBoost, gradient
//!   boosting, and SMOTE.
//! * [`polaris_xai`] — TreeSHAP, waterfall rendering, and rule mining.
//! * [`polaris_valiant`] — the TVLA-driven VALIANT baseline flow.
//! * [`polaris`] — the POLARIS framework itself (Algorithms 1 and 2).

pub use polaris;
pub use polaris_dist;
pub use polaris_masking;
pub use polaris_ml;
pub use polaris_netlist;
pub use polaris_sim;
pub use polaris_tvla;
pub use polaris_valiant;
pub use polaris_xai;
