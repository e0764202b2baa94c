//! POLARIS masking — paper Algorithm 2.
//!
//! Every gate of the target design is scored by the trained model (optionally
//! refined by the SHAP-mined rules), the scores are sorted descending, the
//! top `Msize` gates are replaced by masked composites, and the result is
//! assessed once for reporting. No TVLA runs inside the timed mitigation
//! path — that is the scalability claim of the paper.

use std::time::Instant;

use polaris_masking::{apply_masking, MaskedDesign};
use polaris_ml::Classifier;
use polaris_netlist::{GateId, GraphView, Netlist};
use polaris_obs::{NullRecorder, Recorder};
use polaris_sim::{
    run_campaign_parallel, run_fleet, CampaignConfig, CampaignOutcome, FleetJob, Parallelism,
    PowerModel,
};
use polaris_tvla::{adaptive_fleet_job, GateLeakage, LeakageSummary, WelchAccumulator};
use polaris_xai::RuleSet;

use crate::config::PolarisConfig;
use crate::features::StructuralFeatureExtractor;
use crate::model::PolarisModel;
use crate::PolarisError;

/// Outcome of protecting one design.
#[derive(Clone, Debug)]
pub struct MitigationReport {
    /// The masked design with origin bookkeeping.
    pub masked: MaskedDesign,
    /// Leakage summary of the unprotected design.
    pub before: LeakageSummary,
    /// Per-gate leakage of the unprotected design (for Fig.-4 style plots).
    pub before_map: GateLeakage,
    /// Leakage summary of the masked design, attributed to original cells.
    pub after: LeakageSummary,
    /// Per-gate leakage of the masked design attributed to original gates.
    pub after_grouped_abs_t: Vec<f64>,
    /// Gates selected for masking, highest score first.
    pub masked_gates: Vec<GateId>,
    /// Model score of every cell, indexed by gate id (0 for non-cells).
    pub scores: Vec<f64>,
    /// Seconds spent in the mitigation path (features + inference + sort +
    /// transform) — the Table II "Time (s)" entry for POLARIS.
    pub mitigation_time_s: f64,
    /// Seconds spent in the two reporting TVLA campaigns (not part of the
    /// mitigation path).
    pub assessment_time_s: f64,
    /// Fixed-class traces each reporting campaign actually consumed (equal
    /// to the configured budget unless adaptive stopping kicked in; the
    /// after-campaign is pinned to the before-campaign's counts so the
    /// before/after totals compare like for like).
    pub campaign_fixed_traces: usize,
    /// Random-class traces each reporting campaign actually consumed.
    pub campaign_random_traces: usize,
    /// Traces per class the configuration budgeted.
    pub campaign_budget_per_class: usize,
    /// True when the baseline assessment stopped before its budget.
    pub stopped_early: bool,
}

impl MitigationReport {
    /// Total leakage reduction percent (Table II semantics).
    pub fn reduction_pct(&self) -> f64 {
        self.after.reduction_pct_from(&self.before)
    }
}

/// Scores every maskable cell of `design` with the model (+ optional rule
/// adjustment); returns `(gate, score)` sorted descending — Algorithm 2
/// lines 4–8.
pub fn rank_gates(
    design: &Netlist,
    model: &PolarisModel,
    rules: Option<&RuleSet>,
    extractor: &StructuralFeatureExtractor,
) -> Result<Vec<(GateId, f64)>, PolarisError> {
    let view = GraphView::new(design);
    let levels = design.levels()?;
    let mut choices: Vec<(GateId, f64)> = Vec::new();
    for id in design.cell_ids() {
        if design.gate(id).fanin().len() > 2 {
            continue; // not maskable in normalized form
        }
        let x = extractor.extract(design, &view, &levels, id);
        let mut score = model.predict_proba(&x);
        if let Some(rs) = rules {
            score += rs.score_adjustment(&x, 0.15);
        }
        choices.push((id, score));
    }
    choices.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    Ok(choices)
}

/// The baseline reporting campaign of a configuration: the fixed-vs-random
/// budget [`polaris_mask`] assesses before masking. A distributed
/// coordinator plans exactly this campaign over the *normalized* design,
/// merges the worker parts, and hands the fold to
/// [`polaris_mask_with_baseline`] — skipping the in-process baseline run.
pub fn reporting_campaign(config: &PolarisConfig) -> CampaignConfig {
    let mut campaign =
        CampaignConfig::new(config.max_traces, config.max_traces, config.seed ^ 0xA55E55)
            .with_cycles(config.cycles);
    if config.glitch_model {
        campaign = campaign.with_glitches();
    }
    campaign
}

/// The baseline [`reporting_campaign`] of `config` over a *normalized*
/// design as a campaign job: in adaptive mode it carries the cells-scoped
/// sequential stopping rule, so the baseline stops once its verdict
/// converges. Running it yields exactly what [`polaris_mask_with_baseline`]
/// consumes. The distributed flow replaces this one campaign with a plan /
/// work / merge round (`polaris_dist::merged_outcome`); everything
/// downstream is shared.
pub fn baseline_job<'a>(
    design: &'a Netlist,
    config: &PolarisConfig,
    power: &'a PowerModel,
) -> FleetJob<'a, WelchAccumulator> {
    let campaign = reporting_campaign(config);
    if config.adaptive {
        adaptive_fleet_job(design, power, campaign, &config.sequential_config())
    } else {
        FleetJob::new(design, power, campaign)
    }
}

/// Runs [`baseline_job`] in-process without a recorder. Kept with this
/// signature for `perfbench/` until a benchmark PR moves it over.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn baseline_outcome(
    design: &Netlist,
    config: &PolarisConfig,
    power: &PowerModel,
) -> Result<CampaignOutcome<WelchAccumulator>, PolarisError> {
    baseline_outcome_traced(design, config, power, &NullRecorder)
}

/// Runs [`baseline_job`] in-process, reporting to `recorder`. Kept with
/// [`baseline_outcome`] until a benchmark PR moves `perfbench/` over.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn baseline_outcome_traced(
    design: &Netlist,
    config: &PolarisConfig,
    power: &PowerModel,
    recorder: &dyn Recorder,
) -> Result<CampaignOutcome<WelchAccumulator>, PolarisError> {
    Ok(baseline_job(design, config, power).run(config.parallelism(), recorder)?)
}

/// [`baseline_outcome`] for a whole suite: runs every *normalized* design's
/// reporting baseline as one job of a shared-pool fleet
/// ([`polaris_sim::run_fleet`]) instead of campaign-by-campaign, so small
/// designs no longer serialize on their own fold barriers. In adaptive mode
/// each job carries its own cells-scoped sequential stopping rule whose
/// checkpoints fire per job mid-fleet.
///
/// Outcome `i` is byte-identical to `baseline_outcome(&designs[i], …)` —
/// stop round and statistics included — so everything downstream
/// ([`polaris_mask_with_baseline`], budget resolution) is unaffected by the
/// scheduling change.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn baseline_outcomes_fleet(
    designs: &[Netlist],
    config: &PolarisConfig,
    power: &PowerModel,
) -> Result<Vec<CampaignOutcome<WelchAccumulator>>, PolarisError> {
    let jobs = designs
        .iter()
        .map(|design| baseline_job(design, config, power))
        .collect();
    Ok(run_fleet(jobs, config.parallelism(), &NullRecorder)?)
}

/// Runs Algorithm 2 on a normalized design, masking the `msize` top-ranked
/// gates, then assesses before/after leakage for reporting.
///
/// # Errors
///
/// Propagates netlist/masking/simulation failures.
pub fn polaris_mask(
    design: &Netlist,
    model: &PolarisModel,
    rules: Option<&RuleSet>,
    extractor: &StructuralFeatureExtractor,
    config: &PolarisConfig,
    power: &PowerModel,
    msize: usize,
) -> Result<MitigationReport, PolarisError> {
    // Reporting baseline (outside the mitigation path); its cost is
    // attributed to this report's assessment time.
    let assess_start = Instant::now();
    let baseline = baseline_job(design, config, power).run(config.parallelism(), &NullRecorder)?;
    let baseline_time_s = assess_start.elapsed().as_secs_f64();
    let mut report = polaris_mask_with_baseline(
        design,
        model,
        rules,
        extractor,
        config,
        power,
        msize,
        baseline,
        &NullRecorder,
    )?;
    report.assessment_time_s += baseline_time_s;
    Ok(report)
}

/// Everything [`polaris_mask_with_baseline`] computes *before* the
/// after-campaign runs: the consumed baseline, the timed mitigation path,
/// and the pinned after-campaign configuration. Splitting the report here
/// lets suite flows ([`crate::pipeline::TrainedPolaris::mask_designs`])
/// run every design's after-campaign as one fleet on a shared pool and
/// still assemble per-design reports identical to the solo path.
pub(crate) struct PendingMitigation {
    masked: MaskedDesign,
    before: LeakageSummary,
    before_map: GateLeakage,
    scores: Vec<f64>,
    selected: Vec<GateId>,
    mitigation_time_s: f64,
    assessment_time_s: f64,
    campaign_fixed_traces: usize,
    campaign_random_traces: usize,
    budget_per_class: usize,
    stopped_early: bool,
    /// The pinned-fixed-vector, re-seeded reporting campaign the masked
    /// design must be assessed with.
    pub(crate) after_campaign: CampaignConfig,
}

impl PendingMitigation {
    /// The masked design whose `after_campaign` still has to run.
    pub(crate) fn masked_netlist(&self) -> &Netlist {
        &self.masked.netlist
    }
}

/// Consumes the baseline and runs the (timed) TVLA-free mitigation path —
/// everything of [`polaris_mask_with_baseline`] except the after-campaign.
pub(crate) fn prepare_mitigation(
    design: &Netlist,
    model: &PolarisModel,
    rules: Option<&RuleSet>,
    extractor: &StructuralFeatureExtractor,
    config: &PolarisConfig,
    msize: usize,
    baseline: CampaignOutcome<WelchAccumulator>,
) -> Result<PendingMitigation, PolarisError> {
    let mut campaign = reporting_campaign(config);
    campaign.n_fixed = baseline.stats.fixed_traces;
    campaign.n_random = baseline.stats.random_traces;
    let stopped_early = baseline.stats.stopped_early;

    let assess_start = Instant::now();
    let before_map = baseline.sink.leakage();
    let before = before_map.summarize(design);
    let assessment_time_s = assess_start.elapsed().as_secs_f64();

    // Mitigation path (timed): rank → select → transform.
    let mitigation_start = Instant::now();
    let ranked = rank_gates(design, model, rules, extractor)?;
    let mut scores = vec![0.0f64; design.gate_count()];
    for (id, s) in &ranked {
        scores[id.index()] = *s;
    }
    let selected: Vec<GateId> = ranked.iter().take(msize).map(|(id, _)| *id).collect();
    let masked = apply_masking(design, &selected, config.style)?;
    let mitigation_time_s = mitigation_start.elapsed().as_secs_f64();

    // Reporting follow-up: re-seed the sampling streams but pin the fixed
    // class vector, so the before/after totals compare like for like.
    let mut after_campaign = campaign.clone();
    after_campaign.fixed_vector = Some(campaign.resolve_fixed_vector(design.data_inputs().len()));
    after_campaign.seed = campaign.seed.wrapping_add(1);

    Ok(PendingMitigation {
        masked,
        before,
        before_map,
        scores,
        selected,
        mitigation_time_s,
        assessment_time_s,
        campaign_fixed_traces: campaign.n_fixed,
        campaign_random_traces: campaign.n_random,
        budget_per_class: config.max_traces,
        stopped_early,
        after_campaign,
    })
}

/// Attributes the after-campaign's folded accumulator back to original
/// gates and assembles the final [`MitigationReport`]. `after_seconds` is
/// the wall clock the caller spent acquiring `after_acc`.
pub(crate) fn finish_mitigation(
    design: &Netlist,
    pending: PendingMitigation,
    after_acc: WelchAccumulator,
    after_seconds: f64,
) -> MitigationReport {
    let assess_start = Instant::now();
    let after_leakage = after_acc.leakage();
    let after_grouped_abs_t = grouped_abs_t(design, &pending.masked, &after_leakage);
    let after = summarize_grouped(design, &after_grouped_abs_t);
    let assessment_time_s =
        pending.assessment_time_s + after_seconds + assess_start.elapsed().as_secs_f64();

    MitigationReport {
        masked: pending.masked,
        before: pending.before,
        before_map: pending.before_map,
        after,
        after_grouped_abs_t,
        masked_gates: pending.selected,
        scores: pending.scores,
        mitigation_time_s: pending.mitigation_time_s,
        assessment_time_s,
        campaign_fixed_traces: pending.campaign_fixed_traces,
        campaign_random_traces: pending.campaign_random_traces,
        campaign_budget_per_class: pending.budget_per_class,
        stopped_early: pending.stopped_early,
    }
}

/// [`polaris_mask`] with the baseline assessment already done: consumes a
/// pre-folded [`CampaignOutcome`] over [`reporting_campaign`]`(config)` —
/// typically folded centrally from distributed shard states
/// (`polaris_dist::merged_outcome`), carried over from an earlier adaptive
/// run, or pulled out of a fleet ([`baseline_outcomes_fleet`]) — instead of
/// re-simulating the baseline in-process.
///
/// The outcome's [`polaris_sim::CampaignStats`] drive the after-campaign
/// exactly as in [`polaris_mask`]: the follow-up is pinned to the
/// baseline's consumed trace counts, so before/after √n-scaled |t| totals
/// compare like for like. `report.assessment_time_s` covers only the work
/// done here (the after-campaign); the caller owns the baseline's cost
/// accounting.
///
/// `recorder` gets the after-campaign's shard and fold spans, in the same
/// trace as the (caller-run) baseline. The report is byte-identical without
/// it in every statistical field.
///
/// # Errors
///
/// Propagates netlist/masking/simulation failures.
#[allow(clippy::too_many_arguments)] // mirrors polaris_mask + the baseline
pub fn polaris_mask_with_baseline(
    design: &Netlist,
    model: &PolarisModel,
    rules: Option<&RuleSet>,
    extractor: &StructuralFeatureExtractor,
    config: &PolarisConfig,
    power: &PowerModel,
    msize: usize,
    baseline: CampaignOutcome<WelchAccumulator>,
    recorder: &dyn Recorder,
) -> Result<MitigationReport, PolarisError> {
    let par = config.parallelism();
    let pending = prepare_mitigation(design, model, rules, extractor, config, msize, baseline)?;
    let assess_start = Instant::now();
    // One never-stopping round: byte-identical fold order to
    // `run_campaign_parallel`, with the engine's spans on top.
    let outcome = FleetJob::new(
        pending.masked_netlist(),
        power,
        pending.after_campaign.clone(),
    )
    .run(par, recorder)?;
    let after_seconds = assess_start.elapsed().as_secs_f64();
    Ok(finish_mitigation(
        design,
        pending,
        outcome.sink,
        after_seconds,
    ))
}

/// Assesses a masked design and attributes leakage back to the original
/// gates: returns the per-original-gate mean `|t|` and its cell summary.
/// This is the reporting primitive shared by the experiment harness.
///
/// The campaign runs on the sharded engine across `parallelism` workers;
/// results are bit-identical at any thread count.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn assess_grouped(
    original: &Netlist,
    masked: &MaskedDesign,
    power: &PowerModel,
    campaign: &CampaignConfig,
    parallelism: Parallelism,
) -> Result<(LeakageSummary, Vec<f64>), PolarisError> {
    let acc: WelchAccumulator =
        run_campaign_parallel(&masked.netlist, power, campaign, parallelism)?;
    let grouped = grouped_abs_t(original, masked, &acc.leakage());
    let summary = summarize_grouped(original, &grouped);
    Ok((summary, grouped))
}

/// [`assess_grouped`] for several masked variants of one design at once:
/// every variant's reporting campaign becomes a job of a shared-pool fleet,
/// so the variants' shards interleave on the same workers instead of each
/// variant serializing on its own fold barrier (the Table II harness
/// assesses three mask sizes per design this way). `campaigns[i]` is
/// variant `i`'s configuration — variants may re-seed independently.
///
/// Entry `i` is byte-identical to
/// `assess_grouped(original, &variants[i], power, &campaigns[i], …)`.
///
/// # Panics
///
/// Panics if `variants` and `campaigns` disagree on length.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn assess_grouped_fleet(
    original: &Netlist,
    variants: &[MaskedDesign],
    power: &PowerModel,
    campaigns: &[CampaignConfig],
    parallelism: Parallelism,
) -> Result<Vec<(LeakageSummary, Vec<f64>)>, PolarisError> {
    assert_eq!(
        variants.len(),
        campaigns.len(),
        "one campaign per masked variant"
    );
    let jobs: Vec<FleetJob<'_, WelchAccumulator>> = variants
        .iter()
        .zip(campaigns)
        .map(|(v, c)| FleetJob::new(&v.netlist, power, c.clone()))
        .collect();
    let outcomes = run_fleet(jobs, parallelism, &NullRecorder)?;
    Ok(variants
        .iter()
        .zip(outcomes)
        .map(|(masked, outcome)| {
            let grouped = grouped_abs_t(original, masked, &outcome.sink.leakage());
            let summary = summarize_grouped(original, &grouped);
            (summary, grouped)
        })
        .collect())
}

fn grouped_abs_t(original: &Netlist, masked: &MaskedDesign, leakage: &GateLeakage) -> Vec<f64> {
    let mut sum = vec![0.0f64; original.gate_count()];
    let mut count = vec![0usize; original.gate_count()];
    for (new_idx, origin) in masked.origin.iter().enumerate() {
        if let Some(orig) = origin {
            sum[orig.index()] += leakage.abs_t(GateId::new(new_idx));
            count[orig.index()] += 1;
        }
    }
    sum.iter()
        .zip(&count)
        .map(|(s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
        .collect()
}

fn summarize_grouped(original: &Netlist, grouped: &[f64]) -> LeakageSummary {
    let cells = original.cell_ids();
    let mut total = 0.0;
    let mut max: f64 = 0.0;
    let mut leaky = 0;
    for &id in &cells {
        let t = grouped[id.index()];
        total += t;
        max = max.max(t);
        if t > polaris_tvla::TVLA_THRESHOLD {
            leaky += 1;
        }
    }
    LeakageSummary {
        cells: cells.len(),
        mean_abs_t: if cells.is_empty() {
            0.0
        } else {
            total / cells.len() as f64
        },
        total_abs_t: total,
        max_abs_t: max,
        leaky_cells: leaky,
    }
}
