//! The paper pipeline's layer split, measured in the traced run of
//! `tvla-c1908`. Each operation trains on the six-design suite the way
//! `quickstart` does (msize 25, itr 3, 300 traces/class, one thread) and
//! protects des3 with every leaky gate masked, twice: through the pipeline's
//! own calls, then through the public stage calls, each stage in its span.
//! The stage rebuild must reproduce the pipeline's outputs exactly.
//!
//! `protect-des3` was a workload of its own and was dropped: on a shared
//! host its timings swung about twice as far from run to run as those of
//! `tvla-c1908` (see `README.md`).

use polaris::cognition::generate_for_design;
use polaris::explain::Explainer;
use polaris::masking_flow::{assess_grouped, baseline_outcome, rank_gates, reporting_campaign};
use polaris::pipeline::ValidationMetrics;
use polaris::{MaskBudget, MitigationReport, PolarisConfig, PolarisModel, PolarisPipeline};
use polaris::{StructuralFeatureExtractor, TrainedPolaris};
use polaris_masking::apply_masking;
use polaris_ml::metrics::{roc_auc, Confusion};
use polaris_ml::{Classifier, Dataset};
use polaris_netlist::transform::decompose;
use polaris_netlist::{generators, Netlist};
use polaris_sim::{CampaignConfig, Simulator};
use polaris_xai::{RuleMiner, RuleSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{via_bench, Ctx, Outcome};
use crate::stats::median;
use crate::trace::Tracer;

/// `--seconds` divided by this gives the operation count, at least five.
/// One operation takes about 2 s on the reference host.
const NOMINAL_OP_S: f64 = 10.0;
/// Random input vectors of the masked-equivalence check.
const EQUIVALENCE_VECTORS: usize = 64;

const OPS: u64 = 23;

fn config(ctx: &Ctx, seed: u64) -> PolarisConfig {
    if ctx.tiny {
        PolarisConfig {
            msize: 8,
            iterations: 2,
            max_traces: 100,
            n_estimators: 10,
            threads: 1,
            seed,
            ..PolarisConfig::default()
        }
    } else {
        PolarisConfig {
            msize: 25,
            iterations: 3,
            max_traces: 300,
            threads: 1,
            seed,
            ..PolarisConfig::default()
        }
    }
}

struct Designs {
    suite: Vec<Netlist>,
    target: Netlist,
}

/// The `quickstart` designs. They stay fixed across seeds: des3's leaky
/// count sets the masked design's size, so a seeded des3 would change the
/// amount of work, not just the inputs. The seed drives every campaign and
/// cognition draw instead.
fn designs() -> Designs {
    let suite = generators::training_suite(1, 7)
        .iter()
        .map(via_bench)
        .collect();
    Designs {
        suite,
        target: via_bench(&generators::des3(1, 99)),
    }
}

/// The masked design computes the same outputs as the normalized original
/// for random data and mask bits.
fn equivalent(original: &Netlist, report: &MitigationReport, seed: u64) -> bool {
    let Ok((normalized, _)) = decompose(original) else {
        return false;
    };
    let masked = &report.masked.netlist;
    let (Ok(sim_o), Ok(sim_m)) = (Simulator::new(&normalized), Simulator::new(masked)) else {
        return false;
    };
    let mut rng = StdRng::seed_from_u64(seed);
    (0..EQUIVALENCE_VECTORS).all(|_| {
        let data: Vec<bool> = (0..normalized.data_inputs().len())
            .map(|_| rng.gen())
            .collect();
        let masks: Vec<bool> = (0..masked.mask_inputs().len()).map(|_| rng.gen()).collect();
        let o = sim_o.eval_bool(&data, &[]);
        let m = sim_m.eval_bool(&data, &masks);
        o.is_ok() && o == m
    })
}

/// What the stage calls of [`train_stages`] produced; each part must equal
/// the pipeline's own.
struct Stages {
    dataset: Dataset,
    validation: ValidationMetrics,
    rules: RuleSet,
    campaigns: usize,
    traces: usize,
}

impl Stages {
    /// Names of the parts that differ from what `trained` holds. Rules and
    /// validation figures are compared by their `Debug` text, which prints
    /// every float exactly.
    fn mismatches(&self, trained: &TrainedPolaris) -> Vec<&'static str> {
        let mut bad = Vec::new();
        if self.dataset != *trained.dataset() {
            bad.push("dataset");
        }
        if format!("{:?}", self.validation) != format!("{:?}", trained.validation()) {
            bad.push("hold-out validation");
        }
        if format!("{:?}", self.rules.rules()) != format!("{:?}", trained.rules().rules()) {
            bad.push("mined rules");
        }
        bad
    }
}

/// The hold-out scores `PolarisPipeline::train` reports for model `m` on
/// `test`.
fn holdout(m: &PolarisModel, test: &Dataset) -> ValidationMetrics {
    let y_true: Vec<u8> = (0..test.len()).map(|i| test.label(i)).collect();
    let scores: Vec<f64> = (0..test.len())
        .map(|i| m.predict_proba(test.row(i)))
        .collect();
    let y_pred: Vec<u8> = scores.iter().map(|&p| u8::from(p >= 0.5)).collect();
    let c = Confusion::from_predictions(&y_true, &y_pred);
    ValidationMetrics {
        accuracy: c.accuracy(),
        precision: c.precision(),
        recall: c.recall(),
        f1: c.f1(),
        auc: roc_auc(&y_true, &scores),
        samples: test.len(),
    }
}

/// `PolarisPipeline::train` rebuilt from the public stage calls, each in its
/// own span.
fn train_stages(
    suite: &[Netlist],
    config: &PolarisConfig,
    model: &polaris_sim::PowerModel,
    t: &mut Tracer,
) -> Stages {
    let extractor = StructuralFeatureExtractor::new(config.locality);
    let mut dataset = Dataset::new(extractor.feature_names());
    let (mut campaigns, mut traces) = (0, 0);
    for (i, design) in suite.iter().enumerate() {
        let normalized = t
            .span("netlist.decompose", |_| decompose(design))
            .expect("suite designs normalize")
            .0;
        let stats = t
            .span("core.cognition", |_| {
                generate_for_design(
                    &normalized,
                    config,
                    model,
                    &extractor,
                    &mut dataset,
                    config.seed.wrapping_add(i as u64 * 0x9E37),
                )
            })
            .expect("cognition runs");
        campaigns += 1 + stats.iterations;
        traces += stats.traces_used;
    }
    let validation = t.span("ml.holdout_fit", |_| {
        match dataset.stratified_split(0.2, config.seed ^ 0x5A11D) {
            Ok((train, test)) if !test.is_empty() => PolarisModel::train(&train, config)
                .map_or_else(|_| ValidationMetrics::default(), |m| holdout(&m, &test)),
            _ => ValidationMetrics::default(),
        }
    });
    let fitted = t
        .span("ml.fit", |_| PolarisModel::train(&dataset, config))
        .expect("model fits");
    let rules = t.span("xai.rules", |_| {
        let explainer = Explainer::new(&dataset, config.shap_background);
        let mut probs: Vec<f64> = (0..dataset.len())
            .map(|i| fitted.predict_proba(dataset.row(i)))
            .collect();
        probs.sort_by(f64::total_cmp);
        let p75 = probs[(probs.len() * 3) / 4].max(0.5 + 1e-6);
        let miner = RuleMiner {
            min_probability: p75.min(0.7),
            conditions_per_rule: 3,
            min_support: 3,
            max_rules: 5,
        };
        let rules = explainer.mine_rules(&fitted, &dataset, &miner);
        if !rules.is_empty() {
            return rules;
        }
        let fallback = RuleMiner {
            conditions_per_rule: 2,
            min_support: 2,
            ..miner
        };
        explainer.mine_rules(&fitted, &dataset, &fallback)
    });
    Stages {
        dataset,
        validation,
        rules,
        campaigns,
        traces,
    }
}

/// `TrainedPolaris::mask_design` with every leaky gate masked, rebuilt from
/// the public stage calls. Returns the masked gate set and the gate growth.
fn protect_stages(
    trained: &TrainedPolaris,
    target: &Netlist,
    model: &polaris_sim::PowerModel,
    t: &mut Tracer,
) -> (Vec<polaris_netlist::GateId>, f64) {
    let config = trained.config();
    let normalized = t
        .span("netlist.decompose", |_| decompose(target))
        .expect("target normalizes")
        .0;
    let baseline = t
        .span("tvla.report", |_| {
            baseline_outcome(&normalized, config, model)
        })
        .expect("baseline runs");
    let leaky = baseline.sink.leakage().summarize(&normalized).leaky_cells;
    let ranked = t
        .span("core.rank", |_| {
            rank_gates(
                &normalized,
                trained.model(),
                Some(trained.rules()),
                trained.extractor(),
            )
        })
        .expect("ranking runs");
    let selected: Vec<_> = ranked.iter().take(leaky).map(|(id, _)| *id).collect();
    let masked = t
        .span("masking.apply", |_| {
            apply_masking(&normalized, &selected, config.style)
        })
        .expect("masking applies");
    let mut after: CampaignConfig = reporting_campaign(config);
    after.n_fixed = baseline.stats.fixed_traces;
    after.n_random = baseline.stats.random_traces;
    after.fixed_vector = Some(after.resolve_fixed_vector(normalized.data_inputs().len()));
    after.seed = after.seed.wrapping_add(1);
    t.span("tvla.report", |_| {
        assess_grouped(&normalized, &masked, model, &after, config.parallelism())
    })
    .expect("after campaign runs");
    let growth = masked.netlist.gate_count() as f64 / normalized.gate_count() as f64;
    (selected, growth)
}

/// Runs the pipeline operations inside `t` and records the pipeline's
/// per-layer metrics and correctness checks.
pub fn layers(ctx: &Ctx, out: &mut Outcome, t: &mut Tracer) {
    let model = polaris_sim::PowerModel::default();
    let d = designs();
    // Parts of the stage rebuild that differed from the pipeline's, so a
    // copy that drifts from the program fails the run instead of skewing
    // the per-layer split.
    let mut mismatches: Vec<&'static str> = Vec::new();
    let mut counts = (0, 0, 0.0);
    let mut first = None;
    for i in 0..ctx.ops(NOMINAL_OP_S) {
        let config = config(ctx, ctx.sub_seed(OPS, i));
        t.span("pipeline.op", |t| {
            let trained = t.span("pipeline.train", |_| {
                PolarisPipeline::new(config.clone()).train(&d.suite, &model)
            });
            let Ok(trained) = trained else {
                mismatches.push("pipeline train");
                return;
            };
            let report = t.span("pipeline.protect", |_| {
                trained.mask_design(&d.target, &model, MaskBudget::LeakyFraction(1.0))
            });
            let stages = t.span("stages.train", |t| {
                train_stages(&d.suite, &config, &model, t)
            });
            let (selected, growth) = t.span("stages.protect", |t| {
                protect_stages(&trained, &d.target, &model, t)
            });
            mismatches.extend(stages.mismatches(&trained));
            match report {
                Ok(r) if r.masked_gates == selected => {
                    first.get_or_insert(r);
                }
                _ => mismatches.push("masked gate set"),
            }
            counts = (stages.campaigns, stages.traces, growth);
        });
    }
    mismatches.sort_unstable();
    mismatches.dedup();
    out.check(
        mismatches.is_empty(),
        &format!(
            "the stage calls rebuild the pipeline's outputs (differing: {})",
            mismatches.join(", ")
        ),
    );
    if let Some(report) = &first {
        out.check(
            equivalent(&d.target, report, ctx.sub_seed(OPS, 0)),
            "masked des3 is output-equivalent to the normalized original",
        );
        out.check(
            report.after.leaky_cells <= report.before.leaky_cells,
            "masking does not raise the leaky count",
        );
    }
    out.layer("core.cognition_campaigns", counts.0 as f64, "count");
    out.layer("core.cognition_traces", counts.1 as f64, "count");
    out.layer("masking.gate_growth", counts.2, "ratio");
    let per_op = |root: &str, name: &str| median(&t.within(root, name));
    let train = median(&t.durations("pipeline.train"));
    let stage_sum: f64 = [
        "netlist.decompose",
        "core.cognition",
        "ml.holdout_fit",
        "ml.fit",
        "xai.rules",
    ]
    .iter()
    .map(|s| per_op("stages.train", s))
    .sum();
    out.layer("train_s", train, "s");
    out.layer("protect_s", median(&t.durations("pipeline.protect")), "s");
    out.layer(
        "core.cognition_s",
        per_op("stages.train", "core.cognition"),
        "s",
    );
    out.layer(
        "ml.holdout_fit_s",
        per_op("stages.train", "ml.holdout_fit"),
        "s",
    );
    out.layer("ml.fit_s", per_op("stages.train", "ml.fit"), "s");
    out.layer("xai.rules_s", per_op("stages.train", "xai.rules"), "s");
    out.layer(
        "netlist.decompose_s",
        per_op("stages.train", "netlist.decompose"),
        "s",
    );
    out.layer(
        "pipeline.unattributed_frac",
        1.0 - stage_sum / train,
        "frac",
    );
    out.layer("core.rank_s", per_op("stages.protect", "core.rank"), "s");
    out.layer(
        "masking.apply_s",
        per_op("stages.protect", "masking.apply"),
        "s",
    );
    out.layer(
        "tvla.report_s",
        per_op("stages.protect", "tvla.report"),
        "s",
    );
}
