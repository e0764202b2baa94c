//! Cognition generation — paper Algorithm 1.
//!
//! POLARIS builds its own training data: on each (small) training design it
//! repeatedly masks a random batch of `Msize` gates, re-measures per-gate
//! leakage with TVLA, and labels each masked gate "good" (`1`) when its
//! leakage dropped by at least `θr`, pairing the label with the gate's
//! structural features from the *original* graph. This is the unsupervised
//! synthetic-data scheme that lets POLARIS sidestep the training-data
//! scarcity of DL-LA / Netlist-Whisperer-style approaches.

use polaris_masking::apply_masking;
use polaris_netlist::{GateId, GraphView, Netlist};
use polaris_obs::NullRecorder;
use polaris_sim::{run_fleet, CampaignConfig, FleetJob, PowerModel};
use polaris_tvla::{GateLeakage, WelchAccumulator};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::config::PolarisConfig;
use crate::features::StructuralFeatureExtractor;
use crate::PolarisError;

/// Per-gate `|t|` of the original design and of a masked variant, attributed
/// to original gate ids.
fn grouped_abs_t(
    original: &Netlist,
    masked: &polaris_masking::MaskedDesign,
    leakage: &GateLeakage,
) -> Vec<f64> {
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

/// Statistics of one cognition run, useful for ablations and logging.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CognitionStats {
    /// Masking experiments executed (TVLA campaigns beyond the baseline).
    pub iterations: usize,
    /// Labelled samples produced.
    pub samples: usize,
    /// Samples labelled "good" (1).
    pub positives: usize,
    /// Gates skipped because the unmasked design showed ~no leakage there.
    pub skipped_quiet: usize,
    /// Traces simulated across every campaign of this design (baseline +
    /// masking experiments, both classes).
    pub traces_used: usize,
    /// Traces a fully non-adaptive run would have simulated.
    pub traces_budget: usize,
    /// True when the adaptive baseline assessment stopped before its budget.
    pub baseline_stopped_early: bool,
}

/// Runs Algorithm 1 on one normalized design, appending labelled samples to
/// `dataset`.
///
/// # Errors
///
/// Propagates netlist/masking/simulation failures.
pub fn generate_for_design(
    design: &Netlist,
    config: &PolarisConfig,
    power: &PowerModel,
    extractor: &StructuralFeatureExtractor,
    dataset: &mut polaris_ml::Dataset,
    seed: u64,
) -> Result<CognitionStats, PolarisError> {
    let view = GraphView::new(design);
    let levels = design.levels()?;
    let mut campaign =
        CampaignConfig::new(config.max_traces, config.max_traces, seed).with_cycles(config.cycles);
    if config.glitch_model {
        campaign = campaign.with_glitches();
    }

    // Baseline leakage LG (Algorithm 1 line 2). Campaigns run on the
    // sharded parallel engine; the thread budget never affects the labels.
    // In adaptive mode the baseline stops once every gate's verdict has
    // converged, and the masking experiments below are pinned to the same
    // trace counts so each reduction ratio compares t-statistics at
    // matching sample sizes (|t| grows ~√n — mixing trace counts would
    // bias the labels).
    let mut stats = CognitionStats::default();
    let par = config.parallelism();
    let base_leakage = if config.adaptive {
        let a = polaris_tvla::assess_adaptive(
            design,
            power,
            &campaign,
            par,
            &config.sequential_config(),
            &NullRecorder,
        )?;
        campaign.n_fixed = a.stats.fixed_traces;
        campaign.n_random = a.stats.random_traces;
        stats.baseline_stopped_early = a.stats.stopped_early;
        a.leakage
    } else {
        polaris_tvla::assess_parallel(design, power, &campaign, par)?
    };
    stats.traces_used += campaign.n_fixed + campaign.n_random;
    stats.traces_budget += 2 * config.max_traces;

    // Maskable pool R (normalized designs: 1–2 input cells).
    let mut remaining: Vec<GateId> = design
        .cell_ids()
        .into_iter()
        .filter(|&id| design.gate(id).fanin().len() <= 2)
        .collect();

    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0617);
    let mut run = 0usize;

    // Algorithm 1 line 5: while Msize ≤ |R| and run ≤ itr. The batch
    // selections are a pure function of the rng — never of a campaign's
    // results — so all of them are drawn first and the variant campaigns
    // then run as fleets on a shared worker pool (shards of different
    // variants interleave instead of each campaign serializing on its own
    // fold barrier). Per-variant outcomes are byte-identical to
    // campaign-by-campaign runs, so the labels — and the trained model —
    // are unchanged by the scheduling.
    let mut experiments: Vec<(Vec<GateId>, CampaignConfig)> = Vec::new();
    while config.msize <= remaining.len() && run < config.iterations {
        // Random selection S ⊆ R (line 6), then R ← R − S (line 8).
        remaining.shuffle(&mut rng);
        let selected: Vec<GateId> = remaining.split_off(remaining.len() - config.msize);
        // Re-seed the sampling streams but pin the fixed class vector so the
        // reduction ratio compares the same two populations.
        let mut mod_campaign = campaign.clone();
        mod_campaign.fixed_vector = Some(campaign.resolve_fixed_vector(design.data_inputs().len()));
        mod_campaign.seed = seed.wrapping_add(run as u64 + 1);
        experiments.push((selected, mod_campaign));
        run += 1;
        stats.iterations = run;
    }

    // Dmod ← modify(S, D); Lmod ← leak_estimate(Dmod) (lines 7, 9), fleeted
    // in bounded batches: only one batch's masked-design clones and compiled
    // simulation engines are alive at a time (paper-scale runs have up to
    // `itr = 100` experiments), while each batch still keeps the whole pool
    // busy. Batching is pure scheduling — per-variant results are
    // byte-identical at any batch size.
    const VARIANTS_PER_FLEET: usize = 16;
    for batch in experiments.chunks(VARIANTS_PER_FLEET) {
        let masked_batch: Vec<polaris_masking::MaskedDesign> = batch
            .iter()
            .map(|(selected, _)| apply_masking(design, selected, config.style))
            .collect::<Result<_, _>>()?;
        let jobs: Vec<FleetJob<'_, WelchAccumulator>> = masked_batch
            .iter()
            .zip(batch)
            .map(|(masked, (_, mod_campaign))| {
                FleetJob::new(&masked.netlist, power, mod_campaign.clone())
            })
            .collect();
        let outcomes = run_fleet(jobs, par, &NullRecorder)?;

        for (((selected, mod_campaign), masked), outcome) in
            batch.iter().zip(&masked_batch).zip(outcomes)
        {
            stats.traces_used += mod_campaign.n_fixed + mod_campaign.n_random;
            stats.traces_budget += 2 * config.max_traces;
            let mod_abs_t = grouped_abs_t(design, masked, &outcome.sink.leakage());

            // Label every selected gate (lines 10–18).
            for &gate in selected {
                let before = base_leakage.abs_t(gate);
                if before < 0.5 {
                    // Gate was already quiet: reduction ratio is ill-defined.
                    stats.skipped_quiet += 1;
                    continue;
                }
                let after = mod_abs_t[gate.index()];
                let r_ratio = (before - after) / before;
                let label = u8::from(r_ratio >= config.theta_r);
                let x = extractor.extract(design, &view, &levels, gate);
                dataset.push(&x, label)?;
                stats.samples += 1;
                stats.positives += usize::from(label == 1);
            }
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolarisConfig;
    use polaris_ml::Dataset;
    use polaris_netlist::generators;
    use polaris_netlist::transform::decompose;

    fn run(config: &PolarisConfig) -> (Dataset, CognitionStats) {
        let (d, _) = decompose(&generators::iscas_c17()).unwrap();
        let fx = StructuralFeatureExtractor::new(config.locality);
        let mut data = Dataset::new(fx.feature_names());
        let stats =
            generate_for_design(&d, config, &PowerModel::default(), &fx, &mut data, 11).unwrap();
        (data, stats)
    }

    fn small_cfg() -> PolarisConfig {
        PolarisConfig {
            msize: 2,
            iterations: 3,
            max_traces: 250,
            ..PolarisConfig::fast_profile(1)
        }
    }

    #[test]
    fn produces_labelled_samples() {
        let (data, stats) = run(&small_cfg());
        assert!(stats.samples > 0);
        assert_eq!(data.len(), stats.samples);
        assert_eq!(stats.iterations, 3);
        assert_eq!(
            data.n_features(),
            StructuralFeatureExtractor::new(7).n_features()
        );
    }

    #[test]
    fn labels_respond_to_theta_r() {
        // θr = 0 labels every leakage-reducing mask "good"; θr close to 1
        // almost none. Positives must not increase with θr.
        let lenient = PolarisConfig {
            theta_r: 0.0,
            ..small_cfg()
        };
        let strict = PolarisConfig {
            theta_r: 0.999,
            ..small_cfg()
        };
        let (_, stats_lenient) = run(&lenient);
        let (_, stats_strict) = run(&strict);
        assert!(stats_lenient.positives >= stats_strict.positives);
        assert!(
            stats_lenient.positives > 0,
            "masking c17 gates reduces their leakage"
        );
    }

    #[test]
    fn respects_iteration_budget_and_pool() {
        // msize 4 on 6 maskable gates: only one batch fits; the pool rule
        // (Msize ≤ |R|) stops after it.
        let cfg = PolarisConfig {
            msize: 4,
            iterations: 10,
            ..small_cfg()
        };
        let (_, stats) = run(&cfg);
        assert_eq!(stats.iterations, 1);
    }

    #[test]
    fn deterministic() {
        let cfg = small_cfg();
        let (d1, s1) = run(&cfg);
        let (d2, s2) = run(&cfg);
        assert_eq!(s1, s2);
        assert_eq!(d1, d2);
    }

    #[test]
    fn tracks_trace_consumption() {
        let (_, stats) = run(&small_cfg());
        // Non-adaptive: every campaign consumes its full budget.
        assert_eq!(stats.traces_budget, 2 * 250 * (1 + stats.iterations));
        assert_eq!(stats.traces_used, stats.traces_budget);
        assert!(!stats.baseline_stopped_early);
    }

    #[test]
    fn adaptive_cognition_spends_at_most_the_budget_and_stays_deterministic() {
        let cfg = PolarisConfig {
            adaptive: true,
            max_traces: 2048,
            ..small_cfg()
        };
        let (d1, s1) = run(&cfg);
        let (d2, s2) = run(&cfg);
        assert_eq!(s1, s2, "adaptive cognition must be deterministic");
        assert_eq!(d1, d2);
        assert!(s1.samples > 0);
        assert!(s1.traces_used <= s1.traces_budget);
        // c17's baseline verdict converges well inside a 2048-trace budget.
        assert!(s1.baseline_stopped_early, "stats: {s1:?}");
        assert!(s1.traces_used < s1.traces_budget);
    }
}
