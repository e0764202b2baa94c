//! Determinism contract of the multi-design fleet scheduler (ISSUE 5
//! acceptance): every job of a fleet — whatever the mix, whatever the
//! worker count — is **byte-identical** to its standalone campaign run,
//! adaptive stop rounds included, and the fleet work queue never loses or
//! duplicates a shard.

use proptest::prelude::*;

use polaris::config::PolarisConfig;
use polaris::masking_flow::{baseline_outcome, baseline_outcomes_fleet};
use polaris::pipeline::{MaskBudget, PolarisPipeline};
use polaris_netlist::generators;
use polaris_netlist::transform::decompose;
use polaris_obs::NullRecorder;
use polaris_sim::campaign::{partition_shards, shard_grid, TRACES_PER_SHARD};
use polaris_sim::{
    run_campaign_parallel, run_fleet, CampaignConfig, FleetJob, GateSamples, NeverStop,
    Parallelism, PowerModel, RoundFolder,
};
use polaris_tvla::{
    adaptive_fleet_job, campaign_outcome_adaptive, SequentialConfig, WelchAccumulator,
};

/// The grid ranges a job's [`RoundFolder`] hands out, round by round, over
/// a campaign of exactly `n` shards whose states are ingested in order.
fn job_rounds(n: usize, spr: usize) -> Vec<std::ops::Range<usize>> {
    let config = CampaignConfig::new(
        n.div_ceil(2) * TRACES_PER_SHARD,
        n / 2 * TRACES_PER_SHARD,
        1,
    );
    let mut folder = RoundFolder::new(&config, spr, Box::new(NeverStop));
    let mut rounds = Vec::new();
    while !folder.round_range().is_empty() {
        let round = folder.round_range();
        for i in round.clone() {
            folder.ingest(i, GateSamples::default(), &NullRecorder);
        }
        rounds.push(round);
    }
    rounds
}

fn t_bits(design: &polaris_netlist::Netlist, acc: &WelchAccumulator) -> Vec<(u64, u64)> {
    let leakage = acc.leakage();
    design
        .ids()
        .map(|id| {
            let r = leakage.result(id);
            (r.t.to_bits(), r.dof.to_bits())
        })
        .collect()
}

/// Acceptance criterion: a heterogeneous 3-job fleet — fixed-vs-random,
/// fixed-vs-fixed, and one adaptive job — is byte-identical per job to the
/// standalone runs at 1, 2, and 8 threads, including the adaptive job's
/// stop round.
#[test]
fn heterogeneous_three_job_fleet_byte_identical_at_1_2_8_threads() {
    let c17 = generators::iscas_c17();
    let c432 = generators::iscas_like("c432", 1, 5).expect("known design");
    let model = PowerModel::default();

    // Job 0: plain fixed-vs-random on c432 (uneven classes, partial shards).
    let fvr_cfg = CampaignConfig::new(1200, 700, 17);
    // Job 1: fixed-vs-fixed on c17 with explicit vectors.
    let fvf_cfg = CampaignConfig::new(900, 900, 3)
        .with_fixed_vector(vec![true, false, true, false, true])
        .fixed_vs_fixed(vec![false, true, false, true, false]);
    // Job 2: adaptive on c17 — the seed-11 fixture proven to stop early.
    let adaptive_cfg = CampaignConfig::new(6000, 6000, 11);
    let seq = SequentialConfig::default();

    // Standalone references.
    let solo_fvr: WelchAccumulator =
        run_campaign_parallel(&c432, &model, &fvr_cfg, Parallelism::new(2)).expect("campaign");
    let solo_fvf: WelchAccumulator =
        run_campaign_parallel(&c17, &model, &fvf_cfg, Parallelism::new(2)).expect("campaign");
    let solo_adaptive = campaign_outcome_adaptive(
        &c17,
        &model,
        &adaptive_cfg,
        Parallelism::new(2),
        &seq,
        &NullRecorder,
    )
    .expect("campaign");
    assert!(
        solo_adaptive.stats.stopped_early,
        "the adaptive fixture must stop early: {:?}",
        solo_adaptive.stats
    );

    let ref_fvr = t_bits(&c432, &solo_fvr);
    let ref_fvf = t_bits(&c17, &solo_fvf);
    let ref_adaptive = t_bits(&c17, &solo_adaptive.sink);

    for threads in [1usize, 2, 8] {
        let jobs = vec![
            FleetJob::<WelchAccumulator>::new(&c432, &model, fvr_cfg.clone()),
            FleetJob::new(&c17, &model, fvf_cfg.clone()),
            adaptive_fleet_job(&c17, &model, adaptive_cfg.clone(), &seq),
        ];
        let outcomes = run_fleet(jobs, Parallelism::new(threads), &NullRecorder).expect("fleet");
        assert_eq!(outcomes.len(), 3);

        assert_eq!(
            t_bits(&c432, &outcomes[0].sink),
            ref_fvr,
            "fixed-vs-random job at {threads} threads"
        );
        assert_eq!(outcomes[0].stats.fixed_traces, 1200);
        assert_eq!(outcomes[0].stats.random_traces, 700);

        assert_eq!(
            t_bits(&c17, &outcomes[1].sink),
            ref_fvf,
            "fixed-vs-fixed job at {threads} threads"
        );

        assert_eq!(
            outcomes[2].stats, solo_adaptive.stats,
            "adaptive stop round at {threads} threads"
        );
        assert_eq!(
            t_bits(&c17, &outcomes[2].sink),
            ref_adaptive,
            "adaptive job at {threads} threads"
        );
    }
}

/// An adaptive fleet job that cannot converge consumes its full budget and
/// equals the non-adaptive standalone campaign — mid-fleet, at any pool
/// size.
#[test]
fn non_converging_adaptive_fleet_job_matches_full_campaign() {
    let src = "
module m (a, m0, y);
  input a;
  mask_input m0;
  output y;
  xor g (y, a, m0);
endmodule";
    let masked = polaris_netlist::parse_netlist(src).expect("valid netlist");
    let c17 = generators::iscas_c17();
    let model = PowerModel::default();
    let cfg = CampaignConfig::new(1500, 1500, 7);
    let seq = SequentialConfig {
        alpha: 1e-13,
        ..SequentialConfig::default()
    };
    let full: WelchAccumulator =
        run_campaign_parallel(&masked, &model, &cfg, Parallelism::new(2)).expect("campaign");
    let jobs = vec![
        adaptive_fleet_job(&masked, &model, cfg.clone(), &seq),
        FleetJob::<WelchAccumulator>::new(&c17, &model, CampaignConfig::new(400, 400, 2)),
    ];
    let outcomes = run_fleet(jobs, Parallelism::new(4), &NullRecorder).expect("fleet");
    assert!(!outcomes[0].stats.stopped_early);
    assert_eq!(outcomes[0].stats.fixed_traces, 1500);
    assert_eq!(t_bits(&masked, &outcomes[0].sink), t_bits(&masked, &full));
}

/// Satellite: a pre-folded baseline coming out of a fleet feeds
/// `mask_design_with_baseline` with bit-identical results to the solo
/// `mask_design` path (which folds its own baseline in-process).
#[test]
fn mask_with_fleet_baseline_matches_solo_mask_design() {
    let config = PolarisConfig {
        msize: 8,
        iterations: 3,
        max_traces: 250,
        n_estimators: 20,
        learning_rate: 0.5,
        adaptive: true,
        ..PolarisConfig::fast_profile(5)
    };
    let power = PowerModel::default();
    let training = vec![
        generators::iscas_like("c432", 1, 5).expect("known design"),
        generators::iscas_like("c499", 1, 6).expect("known design"),
    ];
    let trained = PolarisPipeline::new(config.clone())
        .train(&training, &power)
        .expect("training");

    let target = generators::iscas_c17();
    let (normalized, _) = decompose(&target).expect("valid design");

    // The fleet baseline must itself equal the solo baseline fold…
    let solo_baseline = baseline_outcome(&normalized, &config, &power).expect("baseline");
    let fleet_baselines =
        baseline_outcomes_fleet(std::slice::from_ref(&normalized), &config, &power)
            .expect("fleet baseline");
    assert_eq!(fleet_baselines.len(), 1);
    let fleet_baseline = fleet_baselines.into_iter().next().expect("one outcome");
    assert_eq!(fleet_baseline.stats, solo_baseline.stats);
    assert_eq!(
        t_bits(&normalized, &fleet_baseline.sink),
        t_bits(&normalized, &solo_baseline.sink)
    );

    // …and the reports built from each are identical in every statistical
    // field.
    let budget = MaskBudget::LeakyFraction(1.0);
    let solo = trained
        .mask_design(&target, &power, budget)
        .expect("solo mask");
    let via_fleet = trained
        .mask_design_with_baseline(&target, &power, budget, fleet_baseline)
        .expect("fleet-baseline mask");
    assert_eq!(via_fleet.masked_gates, solo.masked_gates);
    assert_eq!(via_fleet.scores, solo.scores);
    assert_eq!(via_fleet.before, solo.before);
    assert_eq!(via_fleet.after, solo.after);
    assert_eq!(via_fleet.after_grouped_abs_t, solo.after_grouped_abs_t);
    assert_eq!(via_fleet.campaign_fixed_traces, solo.campaign_fixed_traces);
    assert_eq!(
        via_fleet.campaign_random_traces,
        solo.campaign_random_traces
    );
    assert_eq!(via_fleet.stopped_early, solo.stopped_early);
    assert_eq!(
        via_fleet.before_map.abs_t_all(),
        solo.before_map.abs_t_all()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `partition_shards` round-trips for arbitrary grid/part counts: the
    /// ranges tile `0..n` contiguously (no lost or duplicated shards) and
    /// stay balanced to within one shard.
    #[test]
    fn partition_shards_roundtrips(n in 0usize..600, parts in 1usize..40) {
        let ranges = partition_shards(n, parts);
        prop_assert_eq!(ranges.len(), parts);
        let mut next = 0usize;
        for r in &ranges {
            prop_assert_eq!(r.start, next, "gap or overlap");
            prop_assert!(r.end >= r.start);
            next = r.end;
        }
        prop_assert_eq!(next, n, "must cover the whole grid");
        let sizes: Vec<usize> = ranges.iter().map(ExactSizeIterator::len).collect();
        let (min, max) = (
            *sizes.iter().min().expect("non-empty"),
            *sizes.iter().max().expect("non-empty"),
        );
        prop_assert!(max - min <= 1, "balanced: {:?}", sizes);
    }

    /// A job folder's round decomposition tiles every job grid contiguously
    /// at any checkpoint granularity — the fleet hands out exactly these
    /// ranges, so together with the in-order fold this is the no-loss/no-dup
    /// invariant of the scheduler's work accounting.
    #[test]
    fn job_rounds_tile_contiguously(n in 0usize..500, spr in 0usize..40) {
        let rounds = job_rounds(n, spr);
        let mut next = 0usize;
        for r in &rounds {
            prop_assert_eq!(r.start, next);
            prop_assert!(r.end > r.start && r.end - r.start <= spr.max(1));
            next = r.end;
        }
        prop_assert_eq!(next, n);
        // Consistent with the standalone driver's planned_rounds count.
        prop_assert_eq!(rounds.len(), n.div_ceil(spr.max(1)));
    }

    /// Arbitrary fleets of small campaigns fold in canonical order: every
    /// job's dense collection equals its standalone run sample for sample,
    /// at an arbitrary worker count.
    #[test]
    fn random_fleets_fold_canonically(
        sizes in proptest::collection::vec((0usize..500, 0usize..500), 1..4),
        threads in 1usize..6,
        spr in 1usize..6,
    ) {
        let c17 = generators::iscas_c17();
        let model = PowerModel::default();
        let configs: Vec<CampaignConfig> = sizes
            .iter()
            .enumerate()
            .map(|(i, &(nf, nr))| CampaignConfig::new(nf, nr, i as u64 * 31 + 7))
            .collect();
        let jobs: Vec<FleetJob<GateSamples>> = configs
            .iter()
            .enumerate()
            .map(|(i, cfg)| {
                let job = FleetJob::new(&c17, &model, cfg.clone());
                // Mix round granularities: even jobs checkpoint, odd run
                // as one round.
                if i % 2 == 0 {
                    job.with_rule(polaris_sim::NeverStop, spr)
                } else {
                    job
                }
            })
            .collect();
        let outcomes = run_fleet(jobs, Parallelism::new(threads), &NullRecorder).expect("fleet");
        for (cfg, outcome) in configs.iter().zip(outcomes) {
            let solo: GateSamples =
                run_campaign_parallel(&c17, &model, cfg, Parallelism::sequential())
                    .expect("campaign");
            for id in c17.ids() {
                prop_assert_eq!(outcome.sink.fixed(id), solo.fixed(id));
                prop_assert_eq!(outcome.sink.random(id), solo.random(id));
            }
            prop_assert_eq!(outcome.stats.fixed_traces, cfg.n_fixed);
            prop_assert_eq!(outcome.stats.random_traces, cfg.n_random);
            let n_shards = shard_grid(cfg).len();
            prop_assert!(outcome.stats.fixed_traces.div_ceil(TRACES_PER_SHARD)
                + outcome.stats.random_traces.div_ceil(TRACES_PER_SHARD) == n_shards);
        }
    }
}
