//! POLARIS configuration (the "parameterized tool" of the paper's
//! contribution list).

use polaris_masking::MaskingStyle;
use polaris_sim::Parallelism;

/// Which classifier POLARIS trains on the cognition dataset (Table III).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Random forest (paired with SMOTE oversampling).
    RandomForest,
    /// XGBoost-style gradient-boosted trees (weighted training).
    Xgboost,
    /// SAMME AdaBoost (weighted training) — the paper's best performer.
    #[default]
    Adaboost,
}

impl ModelKind {
    /// All kinds, in the paper's Table III column order.
    pub const ALL: [ModelKind; 3] = [
        ModelKind::RandomForest,
        ModelKind::Xgboost,
        ModelKind::Adaboost,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::RandomForest => "Random Forest",
            ModelKind::Xgboost => "XGBoost",
            ModelKind::Adaboost => "AdaBoost",
        }
    }
}

/// Full parameterization of the POLARIS pipeline.
///
/// Defaults follow the paper's §V-A experiment configuration scaled to the
/// generated benchmark sizes; [`PolarisConfig::paper_profile`] restores the
/// published values and [`PolarisConfig::fast_profile`] shrinks everything
/// for tests.
#[derive(Clone, Debug, PartialEq)]
pub struct PolarisConfig {
    /// Gates masked per cognition iteration (paper: `Msize = 200`).
    pub msize: usize,
    /// BFS locality — neighbors per feature vector (paper: `L = 7`).
    pub locality: usize,
    /// Maximum cognition iterations per design (paper: `itr = 100`).
    pub iterations: usize,
    /// Leakage-reduction ratio counted as a "good" mask (paper: `θr = 0.7`).
    pub theta_r: f64,
    /// Trace *budget* per TVLA class (paper: 10 000). Non-adaptive
    /// campaigns consume it fully; with [`PolarisConfig::adaptive`] the
    /// sequential stopping rule may terminate a campaign earlier.
    pub max_traces: usize,
    /// Early-stop campaigns once every gate's leakage verdict has converged
    /// (round-checkpointed sequential stopping; see
    /// [`polaris_tvla::sequential`]).
    pub adaptive: bool,
    /// Confidence level of the adaptive clean verdict: the per-gate
    /// false-clean budget `α = 1 − confidence` is alpha-spent across the
    /// campaign's checkpoints.
    pub confidence: f64,
    /// Clock cycles per trace for sequential designs.
    pub cycles: usize,
    /// Use the unit-delay glitch-aware switching model for every campaign
    /// (slower, physically richer; leakage concentrates in deep logic).
    pub glitch_model: bool,
    /// Classifier family.
    pub model: ModelKind,
    /// Boosting learning rate (paper: α = 0.01 for XGBoost/AdaBoost).
    pub learning_rate: f64,
    /// Boosting rounds / forest size.
    pub n_estimators: usize,
    /// Tree depth for the weak learners.
    pub max_depth: usize,
    /// Masked-gate family inserted by the transform.
    pub style: MaskingStyle,
    /// Background samples for SHAP explanations.
    pub shap_background: usize,
    /// Master seed.
    pub seed: u64,
    /// Worker threads for every trace campaign (0 = all available cores).
    /// Purely a throughput knob: the sharded campaign engine is
    /// bit-identical at any thread count.
    pub threads: usize,
}

impl Default for PolarisConfig {
    fn default() -> Self {
        PolarisConfig {
            msize: 40,
            locality: 7,
            iterations: 12,
            theta_r: 0.7,
            max_traces: 600,
            adaptive: false,
            confidence: 0.95,
            cycles: 1,
            glitch_model: false,
            model: ModelKind::Adaboost,
            learning_rate: 0.01,
            n_estimators: 80,
            max_depth: 3,
            style: MaskingStyle::Trichina,
            shap_background: 64,
            seed: 0,
            threads: 0,
        }
    }
}

impl PolarisConfig {
    /// The paper's published configuration (§V-A): `Msize = 200`, `L = 7`,
    /// `itr = 100`, `θr = 0.7`, 10 000 traces, α = 0.01.
    pub fn paper_profile(seed: u64) -> Self {
        PolarisConfig {
            msize: 200,
            iterations: 100,
            max_traces: 10_000,
            seed,
            ..Default::default()
        }
    }

    /// A laptop/test profile: small trace counts and few iterations, single
    /// campaign worker (tests already parallelize at the process level).
    pub fn fast_profile(seed: u64) -> Self {
        PolarisConfig {
            msize: 25,
            iterations: 4,
            max_traces: 200,
            n_estimators: 30,
            shap_background: 16,
            seed,
            threads: 1,
            ..Default::default()
        }
    }

    /// The campaign worker budget as a [`Parallelism`] value
    /// (`Parallelism::new` already treats 0 as "all cores").
    pub fn parallelism(&self) -> Parallelism {
        Parallelism::new(self.threads)
    }

    /// The sequential stopping rule parameters implied by
    /// [`PolarisConfig::confidence`] (only consulted when
    /// [`PolarisConfig::adaptive`] is set).
    pub fn sequential_config(&self) -> polaris_tvla::SequentialConfig {
        polaris_tvla::SequentialConfig::with_confidence(self.confidence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_paper_shape() {
        let c = PolarisConfig::default();
        assert_eq!(c.locality, 7);
        assert!((c.theta_r - 0.7).abs() < 1e-12);
        assert_eq!(c.model, ModelKind::Adaboost);
        assert!((c.learning_rate - 0.01).abs() < 1e-12);
    }

    #[test]
    fn paper_profile_restores_published_values() {
        let c = PolarisConfig::paper_profile(1);
        assert_eq!(c.msize, 200);
        assert_eq!(c.iterations, 100);
        assert_eq!(c.max_traces, 10_000);
    }

    #[test]
    fn adaptive_defaults_off_with_sane_confidence() {
        let c = PolarisConfig::default();
        assert!(!c.adaptive, "adaptive stopping is opt-in");
        let s = c.sequential_config();
        assert!((s.alpha - (1.0 - c.confidence)).abs() < 1e-12);
        assert_eq!(s.threshold, polaris_tvla::TVLA_THRESHOLD);
    }

    #[test]
    fn parallelism_resolves_auto_and_explicit() {
        let auto = PolarisConfig::default();
        assert_eq!(auto.threads, 0);
        assert!(auto.parallelism().threads() >= 1);
        let fixed = PolarisConfig {
            threads: 3,
            ..Default::default()
        };
        assert_eq!(fixed.parallelism().threads(), 3);
        assert_eq!(PolarisConfig::fast_profile(1).parallelism().threads(), 1);
    }

    #[test]
    fn model_kind_names() {
        assert_eq!(ModelKind::Adaboost.name(), "AdaBoost");
        assert_eq!(ModelKind::ALL.len(), 3);
    }
}
