//! The end-to-end POLARIS workflow: train once on small designs, protect
//! arbitrary unseen designs (the paper's transfer-learning setup, §V-A).

use polaris_ml::metrics::{roc_auc, Confusion};
use polaris_ml::{Classifier, Dataset};
use polaris_netlist::transform::decompose;
use polaris_netlist::Netlist;
use polaris_obs::{NullRecorder, Recorder};
use polaris_sim::{run_fleet, CampaignOutcome, FleetJob, PowerModel};
use polaris_tvla::WelchAccumulator;
use polaris_xai::{RuleMiner, RuleSet};

use crate::cognition::{generate_for_design, CognitionStats};
use crate::config::PolarisConfig;
use crate::explain::Explainer;
use crate::features::StructuralFeatureExtractor;
use crate::masking_flow::{
    baseline_job, baseline_outcomes_fleet, finish_mitigation, polaris_mask_with_baseline,
    prepare_mitigation, MitigationReport,
};
use crate::model::PolarisModel;
use crate::PolarisError;

/// Held-out validation quality of the cognition model (20 % stratified
/// split, measured before the final full-data fit).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ValidationMetrics {
    /// Fraction of correct hard predictions.
    pub accuracy: f64,
    /// Positive-class precision.
    pub precision: f64,
    /// Positive-class recall.
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
    /// Area under the ROC curve of the probability scores.
    pub auc: f64,
    /// Held-out samples evaluated.
    pub samples: usize,
}

/// How many gates Algorithm 2 masks on a target design.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MaskBudget {
    /// Fraction of the design's *leaky* gates (Table II's "X% Mask"); the
    /// leaky count comes from the report's baseline assessment.
    LeakyFraction(f64),
    /// Absolute number of gates.
    Count(usize),
    /// Fraction of all maskable cells.
    CellFraction(f64),
}

/// The POLARIS tool, configured but not yet trained.
#[derive(Clone, Debug)]
pub struct PolarisPipeline {
    config: PolarisConfig,
}

impl PolarisPipeline {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: PolarisConfig) -> Self {
        PolarisPipeline { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &PolarisConfig {
        &self.config
    }

    /// Stage 1 + 2 + XAI: generate cognition data on the training designs,
    /// train the configured model, and mine the SHAP rule set.
    ///
    /// # Errors
    ///
    /// Returns [`PolarisError::Pipeline`] for an empty training set and
    /// propagates cognition/training failures.
    pub fn train(
        &self,
        training_designs: &[Netlist],
        power: &PowerModel,
    ) -> Result<TrainedPolaris, PolarisError> {
        if training_designs.is_empty() {
            return Err(PolarisError::Pipeline("no training designs given".into()));
        }
        let extractor = StructuralFeatureExtractor::new(self.config.locality);
        let mut dataset = Dataset::new(extractor.feature_names());
        let mut stats = Vec::with_capacity(training_designs.len());
        for (i, design) in training_designs.iter().enumerate() {
            let (normalized, _) = decompose(design)?;
            let s = generate_for_design(
                &normalized,
                &self.config,
                power,
                &extractor,
                &mut dataset,
                self.config.seed.wrapping_add(i as u64 * 0x9E37),
            )?;
            stats.push((design.name().to_string(), s));
        }
        // Held-out validation: fit on 80 %, score on 20 %, then the final
        // model below is fit on everything.
        let validation = match dataset.stratified_split(0.2, self.config.seed ^ 0x5A11D) {
            Ok((train_part, test_part)) if !test_part.is_empty() => {
                match PolarisModel::train(&train_part, &self.config) {
                    Ok(holdout_model) => {
                        let y_true: Vec<u8> =
                            (0..test_part.len()).map(|i| test_part.label(i)).collect();
                        let scores: Vec<f64> = (0..test_part.len())
                            .map(|i| holdout_model.predict_proba(test_part.row(i)))
                            .collect();
                        let y_pred: Vec<u8> = scores.iter().map(|&p| u8::from(p >= 0.5)).collect();
                        let c = Confusion::from_predictions(&y_true, &y_pred);
                        ValidationMetrics {
                            accuracy: c.accuracy(),
                            precision: c.precision(),
                            recall: c.recall(),
                            f1: c.f1(),
                            auc: roc_auc(&y_true, &scores),
                            samples: test_part.len(),
                        }
                    }
                    Err(_) => ValidationMetrics::default(),
                }
            }
            _ => ValidationMetrics::default(),
        };

        let model = PolarisModel::train(&dataset, &self.config)?;
        let explainer = Explainer::new(&dataset, self.config.shap_background);
        // Adaptive rule miner: with small learning rates the model's
        // probabilities cluster near 0.5, so anchor the "confident" cutoff
        // at the observed 75th percentile rather than an absolute value.
        let mut probs: Vec<f64> = (0..dataset.len())
            .map(|i| polaris_ml::Classifier::predict_proba(&model, dataset.row(i)))
            .collect();
        probs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let p75 = probs[(probs.len() * 3) / 4].max(0.5 + 1e-6);
        let miner = RuleMiner {
            min_probability: p75.min(0.7),
            conditions_per_rule: 3,
            min_support: 3,
            max_rules: 5,
        };
        let mut rules = explainer.mine_rules(&model, &dataset, &miner);
        if rules.is_empty() {
            // Fall back to 2-condition rules before giving up.
            rules = explainer.mine_rules(
                &model,
                &dataset,
                &RuleMiner {
                    conditions_per_rule: 2,
                    min_probability: p75.min(0.7),
                    min_support: 2,
                    max_rules: 5,
                },
            );
        }
        Ok(TrainedPolaris {
            config: self.config.clone(),
            extractor,
            model,
            explainer,
            rules,
            dataset,
            cognition_stats: stats,
            validation,
        })
    }
}

/// A trained POLARIS instance, ready to protect designs.
#[derive(Clone, Debug)]
pub struct TrainedPolaris {
    config: PolarisConfig,
    extractor: StructuralFeatureExtractor,
    model: PolarisModel,
    explainer: Explainer,
    rules: RuleSet,
    dataset: Dataset,
    cognition_stats: Vec<(String, CognitionStats)>,
    validation: ValidationMetrics,
}

impl TrainedPolaris {
    /// Reassembles a trained instance from persisted parts (see
    /// [`crate::persist`]). `dataset` is typically the persisted background
    /// subset rather than the full cognition corpus.
    pub fn from_parts(
        config: PolarisConfig,
        model: PolarisModel,
        explainer: Explainer,
        rules: RuleSet,
        dataset: Dataset,
    ) -> Self {
        let extractor = StructuralFeatureExtractor::new(config.locality);
        TrainedPolaris {
            config,
            extractor,
            model,
            explainer,
            rules,
            dataset,
            cognition_stats: Vec::new(),
            validation: ValidationMetrics::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &PolarisConfig {
        &self.config
    }

    /// Overrides the campaign worker budget (e.g. from a CLI `--threads`
    /// flag). Purely a throughput knob: the sharded campaign engine is
    /// bit-identical at any thread count.
    pub fn set_threads(&mut self, threads: usize) {
        self.config.threads = threads;
    }

    /// Overrides the adaptive-stopping knobs (e.g. from CLI `--adaptive` /
    /// `--confidence` flags): assessment campaigns may then stop before the
    /// `max_traces` budget once every gate's verdict has converged.
    pub fn set_adaptive(&mut self, adaptive: bool, confidence: f64) {
        self.config.adaptive = adaptive;
        self.config.confidence = confidence;
    }

    /// Overrides the per-class trace budget of the reporting campaigns
    /// (e.g. from a CLI `--traces` flag).
    pub fn set_max_traces(&mut self, max_traces: usize) {
        self.config.max_traces = max_traces;
    }

    /// The trained classifier.
    pub fn model(&self) -> &PolarisModel {
        &self.model
    }

    /// The SHAP-mined masking rules (Table V).
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// The cognition dataset the model was trained on.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The structural feature extractor (shared between train and infer).
    pub fn extractor(&self) -> &StructuralFeatureExtractor {
        &self.extractor
    }

    /// SHAP explainer bound to the cognition background.
    pub fn explainer(&self) -> &Explainer {
        &self.explainer
    }

    /// Per-training-design cognition statistics.
    pub fn cognition_stats(&self) -> &[(String, CognitionStats)] {
        &self.cognition_stats
    }

    /// Held-out validation quality of the cognition model (all-zero when
    /// reconstructed from a persisted bundle).
    pub fn validation(&self) -> ValidationMetrics {
        self.validation
    }

    /// Protects one (possibly un-normalized) design: normalizes it, resolves
    /// the mask budget, and runs Algorithm 2 with model+rules scoring.
    /// [`TrainedPolaris::mask_design_traced`] without a recorder. Kept with
    /// this signature for `perfbench/` until a benchmark PR moves it over.
    ///
    /// # Errors
    ///
    /// Propagates netlist/masking/simulation failures.
    pub fn mask_design(
        &self,
        design: &Netlist,
        power: &PowerModel,
        budget: MaskBudget,
    ) -> Result<MitigationReport, PolarisError> {
        self.mask_design_traced(design, power, budget, &NullRecorder)
    }

    /// [`TrainedPolaris::mask_design`] reporting structured trace events to
    /// `recorder`: both reporting campaigns (baseline and after-masking)
    /// emit shard/fold spans, and in adaptive mode the baseline adds the
    /// checkpoint census and per-gate stopping audit trail. The report is
    /// byte-identical to the untraced run in every statistical field. Kept
    /// beside [`TrainedPolaris::mask_design`] until a benchmark PR moves
    /// `perfbench/` over to one recorder-taking call.
    ///
    /// # Errors
    ///
    /// Propagates netlist/masking/simulation failures.
    pub fn mask_design_traced(
        &self,
        design: &Netlist,
        power: &PowerModel,
        budget: MaskBudget,
        recorder: &dyn Recorder,
    ) -> Result<MitigationReport, PolarisError> {
        // One reporting baseline serves both the leaky-count budget
        // resolution and the mitigation report (a leaky *count* is a
        // verdict, not a magnitude — exactly what adaptive stopping
        // preserves). Running it here and handing it down keeps this path
        // bit-identical to mask_design_with_baseline for every budget kind
        // and spares LeakyFraction its former extra campaign.
        let (normalized, _) = decompose(design)?;
        let assess_start = std::time::Instant::now();
        let baseline = baseline_job(&normalized, &self.config, power)
            .run(self.config.parallelism(), recorder)?;
        let baseline_time_s = assess_start.elapsed().as_secs_f64();
        let msize = self.resolve_msize(&normalized, budget, || {
            Ok(baseline.sink.leakage().summarize(&normalized).leaky_cells)
        })?;
        let mut report = polaris_mask_with_baseline(
            &normalized,
            &self.model,
            Some(&self.rules),
            &self.extractor,
            &self.config,
            power,
            msize,
            baseline,
            recorder,
        )?;
        report.assessment_time_s += baseline_time_s;
        Ok(report)
    }

    /// [`TrainedPolaris::mask_design`] for a whole suite on one shared
    /// worker pool: every design's reporting baseline runs as a job of one
    /// fleet (adaptive stopping rules firing per job mid-fleet), the
    /// TVLA-free mitigation paths run back to back, and every masked
    /// design's after-campaign runs as a job of a second fleet. Small
    /// designs therefore stop serializing on their own per-campaign fold
    /// barriers — suite throughput scales with cores, not with the widest
    /// single design.
    ///
    /// Report `i` is byte-identical to `mask_design(&designs[i], …)` in
    /// every statistical field (leakage maps, summaries, scores, selected
    /// gates, trace counts). Only the wall-clock fields differ in meaning:
    /// the shared pool's time cannot be attributed per design, so each
    /// report's `assessment_time_s` carries an even share of the suite's
    /// two fleet phases.
    ///
    /// # Errors
    ///
    /// Propagates netlist/masking/simulation failures.
    pub fn mask_designs(
        &self,
        designs: &[Netlist],
        power: &PowerModel,
        budget: MaskBudget,
    ) -> Result<Vec<MitigationReport>, PolarisError> {
        let mut normalized = Vec::with_capacity(designs.len());
        for design in designs {
            normalized.push(decompose(design)?.0);
        }
        let fleet_start = std::time::Instant::now();
        let baselines = baseline_outcomes_fleet(&normalized, &self.config, power)?;
        let baseline_seconds = fleet_start.elapsed().as_secs_f64();

        let mut pendings = Vec::with_capacity(designs.len());
        for (norm, baseline) in normalized.iter().zip(baselines) {
            let msize = self.resolve_msize(norm, budget, || {
                Ok(baseline.sink.leakage().summarize(norm).leaky_cells)
            })?;
            pendings.push(prepare_mitigation(
                norm,
                &self.model,
                Some(&self.rules),
                &self.extractor,
                &self.config,
                msize,
                baseline,
            )?);
        }

        let fleet_start = std::time::Instant::now();
        let jobs: Vec<FleetJob<'_, WelchAccumulator>> = pendings
            .iter()
            .map(|p| FleetJob::new(p.masked_netlist(), power, p.after_campaign.clone()))
            .collect();
        let outcomes = run_fleet(jobs, self.config.parallelism(), &NullRecorder)?;
        let after_seconds = fleet_start.elapsed().as_secs_f64();

        let share = (baseline_seconds + after_seconds) / designs.len().max(1) as f64;
        Ok(normalized
            .iter()
            .zip(pendings.into_iter().zip(outcomes))
            .map(|(norm, (pending, outcome))| finish_mitigation(norm, pending, outcome.sink, share))
            .collect())
    }

    /// Resolves a [`MaskBudget`] into a gate count over the normalized
    /// design; `leaky_cells` supplies the leaky-count baseline only when a
    /// [`MaskBudget::LeakyFraction`] budget actually needs one. Shared by
    /// [`TrainedPolaris::mask_design`] (which runs a campaign for it) and
    /// [`TrainedPolaris::mask_design_with_baseline`] (which reads the
    /// supplied fold), so budget semantics cannot drift between the paths.
    fn resolve_msize<F>(
        &self,
        normalized: &Netlist,
        budget: MaskBudget,
        leaky_cells: F,
    ) -> Result<usize, PolarisError>
    where
        F: FnOnce() -> Result<usize, PolarisError>,
    {
        let maskable = normalized
            .cell_ids()
            .into_iter()
            .filter(|&id| normalized.gate(id).fanin().len() <= 2)
            .count();
        Ok(match budget {
            MaskBudget::Count(n) => n.min(maskable),
            MaskBudget::CellFraction(f) => ((maskable as f64) * f.clamp(0.0, 1.0)).round() as usize,
            MaskBudget::LeakyFraction(f) => {
                let leaky = leaky_cells()?;
                (((leaky as f64) * f.clamp(0.0, 1.0)).round() as usize).min(maskable)
            }
        })
    }

    /// [`TrainedPolaris::mask_design`] with the baseline assessment already
    /// done — consumes a pre-folded [`CampaignOutcome`] over
    /// [`crate::masking_flow::reporting_campaign`] of the *normalized*
    /// design (distributed coordinators fold it from worker shard states
    /// via `polaris_dist::merged_outcome`). The leaky-fraction budget is
    /// resolved against the supplied baseline, so no extra campaign runs
    /// before the mitigation path.
    ///
    /// # Errors
    ///
    /// Propagates netlist/masking/simulation failures.
    pub fn mask_design_with_baseline(
        &self,
        design: &Netlist,
        power: &PowerModel,
        budget: MaskBudget,
        baseline: CampaignOutcome<WelchAccumulator>,
    ) -> Result<MitigationReport, PolarisError> {
        let (normalized, _) = decompose(design)?;
        let msize = self.resolve_msize(&normalized, budget, || {
            Ok(baseline.sink.leakage().summarize(&normalized).leaky_cells)
        })?;
        polaris_mask_with_baseline(
            &normalized,
            &self.model,
            Some(&self.rules),
            &self.extractor,
            &self.config,
            power,
            msize,
            baseline,
            &NullRecorder,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_netlist::generators;

    fn tiny_pipeline() -> (TrainedPolaris, PowerModel) {
        let config = PolarisConfig {
            msize: 8,
            iterations: 4,
            max_traces: 200,
            n_estimators: 20,
            learning_rate: 0.5,
            // Seed pinned so the tiny cognition run yields a holdout with
            // both classes and AUC > 0.5; the suite is deterministic for a
            // fixed seed.
            ..PolarisConfig::fast_profile(5)
        };
        let power = PowerModel::default();
        // Two small training designs keep the test quick.
        let training = vec![
            generators::iscas_like("c432", 1, 5).unwrap(),
            generators::iscas_like("c499", 1, 6).unwrap(),
        ];
        let trained = PolarisPipeline::new(config)
            .train(&training, &power)
            .unwrap();
        (trained, power)
    }

    #[test]
    fn trains_and_produces_cognition_data() {
        let (trained, _) = tiny_pipeline();
        assert!(
            trained.dataset().len() > 20,
            "got {}",
            trained.dataset().len()
        );
        let (neg, pos) = trained.dataset().class_counts();
        assert!(neg > 0 && pos > 0, "classes: {neg}/{pos}");
        assert_eq!(trained.cognition_stats().len(), 2);
    }

    #[test]
    fn masks_unseen_design_and_reduces_leakage() {
        let (trained, power) = tiny_pipeline();
        let target = generators::iscas_c17();
        let report = trained
            .mask_design(&target, &power, MaskBudget::CellFraction(1.0))
            .unwrap();
        assert!(
            report.reduction_pct() > 20.0,
            "full masking should cut leakage substantially: {:.1}%",
            report.reduction_pct()
        );
        assert!(report.mitigation_time_s >= 0.0);
    }

    #[test]
    fn budget_variants_resolve_sanely() {
        let (trained, power) = tiny_pipeline();
        let target = generators::iscas_c17();
        let by_count = trained
            .mask_design(&target, &power, MaskBudget::Count(3))
            .unwrap();
        assert_eq!(by_count.masked_gates.len(), 3);

        let by_fraction = trained
            .mask_design(&target, &power, MaskBudget::CellFraction(0.5))
            .unwrap();
        assert_eq!(by_fraction.masked_gates.len(), 3); // 6 cells × 0.5

        let by_leaky = trained
            .mask_design(&target, &power, MaskBudget::LeakyFraction(0.5))
            .unwrap();
        assert!(by_leaky.masked_gates.len() <= 6);
    }

    #[test]
    fn larger_budget_reduces_more() {
        let (trained, power) = tiny_pipeline();
        let target = generators::des3(1, 42);
        let small = trained
            .mask_design(&target, &power, MaskBudget::CellFraction(0.1))
            .unwrap();
        let large = trained
            .mask_design(&target, &power, MaskBudget::CellFraction(0.9))
            .unwrap();
        assert!(
            large.reduction_pct() > small.reduction_pct(),
            "90% mask ({:.1}%) should beat 10% mask ({:.1}%)",
            large.reduction_pct(),
            small.reduction_pct()
        );
    }

    #[test]
    fn mask_designs_fleet_matches_solo_reports() {
        // The suite path schedules every campaign on one shared pool; every
        // statistical field of each report must still equal the solo
        // mask_design run (only wall-clock attribution may differ).
        let (trained, power) = tiny_pipeline();
        let targets = vec![generators::iscas_c17(), generators::des3(1, 42)];
        let budget = MaskBudget::LeakyFraction(0.5);
        let fleet = trained.mask_designs(&targets, &power, budget).unwrap();
        assert_eq!(fleet.len(), targets.len());
        for (target, report) in targets.iter().zip(&fleet) {
            let solo = trained.mask_design(target, &power, budget).unwrap();
            assert_eq!(report.masked_gates, solo.masked_gates);
            assert_eq!(report.scores, solo.scores);
            assert_eq!(report.before, solo.before);
            assert_eq!(report.after, solo.after);
            assert_eq!(report.after_grouped_abs_t, solo.after_grouped_abs_t);
            assert_eq!(report.campaign_fixed_traces, solo.campaign_fixed_traces);
            assert_eq!(report.campaign_random_traces, solo.campaign_random_traces);
            assert_eq!(report.stopped_early, solo.stopped_early);
            assert_eq!(report.before_map.abs_t_all(), solo.before_map.abs_t_all());
        }
    }

    #[test]
    fn validation_metrics_are_populated_and_sane() {
        let (trained, _) = tiny_pipeline();
        let v = trained.validation();
        assert!(v.samples > 0, "holdout split must be evaluated");
        assert!((0.0..=1.0).contains(&v.accuracy));
        assert!((0.0..=1.0).contains(&v.auc));
        assert!(
            v.auc > 0.5,
            "structural features should beat random ranking: AUC = {:.3}",
            v.auc
        );
    }

    #[test]
    fn empty_training_set_rejected() {
        let p = PolarisPipeline::new(PolarisConfig::fast_profile(1));
        assert!(matches!(
            p.train(&[], &PowerModel::default()),
            Err(PolarisError::Pipeline(_))
        ));
    }
}
