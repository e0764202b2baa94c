//! Determinism contract of the sharded parallel campaign engine (ISSUE 2
//! acceptance): sharded runs are **bit-identical at any thread count**, and
//! mergeable accumulators agree with their single-pass counterparts.
//!
//! ISSUE 3 extends the contract to adaptive sequential stopping: an
//! early-stopped run has the same stop round and byte-identical t-statistics
//! at 1/2/8 threads, and equals the truncated prefix of a full non-adaptive
//! run.

use proptest::prelude::*;

use polaris_netlist::generators;
use polaris_obs::NullRecorder;
use polaris_sim::campaign::{
    collect_gate_samples, collect_gate_samples_parallel, run_campaign, run_campaign_adaptive,
    run_campaign_parallel, CampaignOutcome, Checkpoint, StoppingRule, TRACES_PER_SHARD,
};
use polaris_sim::{CampaignConfig, GateSamples, Parallelism, PowerModel};
use polaris_tvla::cpa::{run_cpa_parallel, CorrelationAccumulator, CpaConfig};
use polaris_tvla::{
    assess_adaptive, assess_parallel, SequentialConfig, StreamingMoments, WelchAccumulator,
};

/// Acceptance criterion: a 10 000-trace fixed-vs-random campaign yields
/// byte-identical Welch t-statistics at 1, 2, and 8 threads.
#[test]
fn ten_k_trace_campaign_byte_identical_at_1_2_8_threads() {
    let design = generators::iscas_c17();
    let model = PowerModel::default();
    let cfg = CampaignConfig::new(10_000, 10_000, 42);

    let reference = assess_parallel(&design, &model, &cfg, Parallelism::new(1)).expect("campaign");
    let ref_bits: Vec<(u64, u64)> = design
        .ids()
        .map(|id| {
            let r = reference.result(id);
            (r.t.to_bits(), r.dof.to_bits())
        })
        .collect();
    // Sanity: the statistics are non-trivial at this trace count.
    assert!(reference.max_abs_t() > polaris_tvla::TVLA_THRESHOLD);

    for threads in [2, 8] {
        let leakage =
            assess_parallel(&design, &model, &cfg, Parallelism::new(threads)).expect("campaign");
        for (id, &(t_bits, dof_bits)) in design.ids().zip(&ref_bits) {
            let r = leakage.result(id);
            assert_eq!(
                r.t.to_bits(),
                t_bits,
                "gate {id}: t must be byte-identical at {threads} threads"
            );
            assert_eq!(
                r.dof.to_bits(),
                dof_bits,
                "gate {id}: dof at {threads} threads"
            );
        }
    }
}

/// The dense collector reproduces the sequential trace stream exactly —
/// sample for sample, bit for bit — at every shard/worker count.
#[test]
fn dense_collection_bit_identical_at_any_worker_count() {
    let design = generators::iscas_like("c432", 1, 5).expect("known design");
    let model = PowerModel::default();
    // Uneven class sizes and a trailing partial batch.
    let cfg = CampaignConfig::new(700, 333, 9);
    let sequential = collect_gate_samples(&design, &model, &cfg).expect("campaign");
    for threads in [1, 2, 4, 8] {
        let parallel =
            collect_gate_samples_parallel(&design, &model, &cfg, Parallelism::new(threads))
                .expect("campaign");
        for id in design.ids() {
            assert_eq!(
                sequential.fixed(id),
                parallel.fixed(id),
                "{threads} threads"
            );
            assert_eq!(
                sequential.random(id),
                parallel.random(id),
                "{threads} threads"
            );
        }
    }
}

/// CPA outcomes (per-guess correlations) are byte-identical at 1/2/4/8
/// worker threads.
#[test]
fn cpa_correlations_byte_identical_across_workers() {
    let design = generators::iscas_c17();
    let model = PowerModel::default().with_noise(0.2);
    let cfg = CpaConfig {
        traces: 1200,
        seed: 31,
        plaintext_bits: vec![0, 1, 2],
        key_bits: vec![3, 4],
        key_value: 2,
    };
    let predict = |pt: u32, guess: u32| f64::from((pt ^ guess).count_ones());
    let reference =
        run_cpa_parallel(&design, &model, &cfg, &predict, Parallelism::new(1)).expect("cpa");
    for threads in [2, 4, 8] {
        let outcome = run_cpa_parallel(&design, &model, &cfg, &predict, Parallelism::new(threads))
            .expect("cpa");
        assert_eq!(outcome.best_guess, reference.best_guess);
        for (a, b) in reference.correlations.iter().zip(&outcome.correlations) {
            assert_eq!(a.to_bits(), b.to_bits(), "{threads} threads");
        }
    }
}

/// The sharded Welch accumulation (per-shard accumulators merged pairwise)
/// agrees with one straight streaming pass to floating-point rounding.
#[test]
fn sharded_assessment_tracks_straight_streaming() {
    let design = generators::iscas_like("c880", 1, 3).expect("known design");
    let model = PowerModel::default();
    let cfg = CampaignConfig::new(1500, 1500, 17);
    let mut straight = WelchAccumulator::new();
    run_campaign(&design, &model, &cfg, &mut straight).expect("campaign");
    let straight = straight.leakage();
    let sharded: WelchAccumulator =
        run_campaign_parallel(&design, &model, &cfg, Parallelism::new(4)).expect("campaign");
    let sharded = sharded.leakage();
    for id in design.ids() {
        let a = straight.result(id).t;
        let b = sharded.result(id).t;
        assert!(
            (a - b).abs() <= 1e-9 * a.abs().max(1.0),
            "gate {id}: straight {a} vs sharded {b}"
        );
    }
}

/// The c17 adaptive configuration proven to stop early (seed 11 resolves
/// every gate by mid-budget; see the `bench campaign` adaptive smoke).
fn adaptive_case() -> (polaris_netlist::Netlist, CampaignConfig, SequentialConfig) {
    (
        generators::iscas_c17(),
        CampaignConfig::new(6000, 6000, 11),
        SequentialConfig::default(),
    )
}

/// Acceptance criterion: an early-stopped adaptive run reaches the same stop
/// round and byte-identical t-statistics at 1, 2, and 8 threads.
#[test]
fn adaptive_stop_deterministic_at_1_2_8_threads() {
    let (design, cfg, seq) = adaptive_case();
    let model = PowerModel::default();
    let reference = assess_adaptive(
        &design,
        &model,
        &cfg,
        Parallelism::new(1),
        &seq,
        &NullRecorder,
    )
    .expect("campaign");
    assert!(
        reference.stats.stopped_early,
        "the fixture must stop early: {:?}",
        reference.stats
    );
    for threads in [2, 8] {
        let run = assess_adaptive(
            &design,
            &model,
            &cfg,
            Parallelism::new(threads),
            &seq,
            &NullRecorder,
        )
        .expect("campaign");
        assert_eq!(
            run.stats, reference.stats,
            "stop round at {threads} threads"
        );
        for id in design.ids() {
            assert_eq!(
                run.leakage.result(id).t.to_bits(),
                reference.leakage.result(id).t.to_bits(),
                "gate {id}: t must be byte-identical at {threads} threads"
            );
            assert_eq!(
                run.leakage.result(id).dof.to_bits(),
                reference.leakage.result(id).dof.to_bits(),
                "gate {id}: dof at {threads} threads"
            );
        }
    }
}

/// Acceptance criterion: the early-stopped result equals the truncated
/// prefix of a full non-adaptive run — statistically (re-assessing at the
/// consumed trace counts is byte-identical) and sample-for-sample (the
/// stopped dense collection is a prefix of the full dense collection).
#[test]
fn adaptive_equals_truncated_prefix_of_full_run() {
    let (design, cfg, seq) = adaptive_case();
    let model = PowerModel::default();
    let stopped = assess_adaptive(
        &design,
        &model,
        &cfg,
        Parallelism::new(4),
        &seq,
        &NullRecorder,
    )
    .expect("campaign");
    assert!(stopped.stats.stopped_early);
    assert!(stopped.stats.traces_used() < cfg.n_fixed + cfg.n_random);

    // Statistic-level: a non-adaptive campaign at the consumed counts.
    let prefix_cfg = CampaignConfig::new(
        stopped.stats.fixed_traces,
        stopped.stats.random_traces,
        cfg.seed,
    );
    let prefix =
        assess_parallel(&design, &model, &prefix_cfg, Parallelism::new(2)).expect("campaign");
    for id in design.ids() {
        assert_eq!(
            stopped.leakage.result(id).t.to_bits(),
            prefix.result(id).t.to_bits(),
            "gate {id}"
        );
    }

    // Sample-level: rerun the round engine on a dense collector with a rule
    // that stops at the same round, and compare against the full stream.
    struct StopAtRound(usize);
    impl<S> StoppingRule<S> for StopAtRound {
        fn should_stop(&mut self, c: &Checkpoint<'_, S>) -> bool {
            c.round >= self.0
        }
    }
    let dense: CampaignOutcome<GateSamples> = run_campaign_adaptive(
        &design,
        &model,
        &cfg,
        Parallelism::new(8),
        seq.shards_per_round,
        &mut StopAtRound(stopped.stats.rounds),
    )
    .expect("campaign");
    assert_eq!(dense.stats, stopped.stats);
    let full = collect_gate_samples(&design, &model, &cfg).expect("campaign");
    for id in design.ids() {
        assert_eq!(
            dense.sink.fixed(id),
            &full.fixed(id)[..dense.stats.fixed_traces],
            "gate {id}: fixed prefix"
        );
        assert_eq!(
            dense.sink.random(id),
            &full.random(id)[..dense.stats.random_traces],
            "gate {id}: random prefix"
        );
    }
}

/// The stop decision is a pure function of the checkpoint-folded state, so
/// the unlucky seeds are deterministic too: a campaign that cannot converge
/// (alpha too tight) consumes its whole budget and matches the non-adaptive
/// engine bit for bit.
#[test]
fn non_converging_adaptive_run_matches_full_campaign() {
    // A masked xor is the quiet-cell case: leaky resolutions need no
    // margin, but a clean one does — and alpha this tight underflows every
    // look's spending, so the margins are infinite and the run must spend
    // its whole budget.
    let src = "
module m (a, m0, y);
  input a;
  mask_input m0;
  output y;
  xor g (y, a, m0);
endmodule";
    let design = polaris_netlist::parse_netlist(src).expect("valid netlist");
    let model = PowerModel::default();
    let cfg = CampaignConfig::new(1500, 1500, 7);
    let seq = SequentialConfig {
        alpha: 1e-13,
        ..SequentialConfig::default()
    };
    let adaptive = assess_adaptive(
        &design,
        &model,
        &cfg,
        Parallelism::new(4),
        &seq,
        &NullRecorder,
    )
    .expect("campaign");
    assert!(!adaptive.stats.stopped_early);
    let full = assess_parallel(&design, &model, &cfg, Parallelism::new(2)).expect("campaign");
    for id in design.ids() {
        assert_eq!(
            adaptive.leakage.result(id).t.to_bits(),
            full.result(id).t.to_bits()
        );
    }
}

/// Early stopping composes with the per-population shard layout: trace
/// counts at the stop boundary are whole shards of each class.
#[test]
fn adaptive_stop_lands_on_shard_boundaries() {
    let (design, cfg, seq) = adaptive_case();
    let a = assess_adaptive(
        &design,
        &PowerModel::default(),
        &cfg,
        Parallelism::sequential(),
        &seq,
        &NullRecorder,
    )
    .expect("campaign");
    assert_eq!(a.stats.fixed_traces % TRACES_PER_SHARD, 0);
    assert_eq!(a.stats.random_traces % TRACES_PER_SHARD, 0);
}

fn lcg_stream(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 20.0 - 10.0
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Merging moment accumulators over an arbitrary split of an arbitrary
    /// stream equals the single-pass accumulation.
    #[test]
    fn merged_moments_equal_single_pass(seed in any::<u64>(), len in 8usize..800, cut in 0usize..800) {
        let xs = lcg_stream(len, seed);
        let cut = cut % (len + 1);
        let mut left = StreamingMoments::new();
        left.extend_batch(&xs[..cut]);
        let mut right = StreamingMoments::new();
        right.extend_batch(&xs[cut..]);
        left.merge(&right);

        let mut whole = StreamingMoments::new();
        whole.extend_batch(&xs);

        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-9);
        prop_assert!((left.population_variance() - whole.population_variance()).abs() < 1e-8);
        prop_assert!((left.central_moment4() - whole.central_moment4()).abs() < 1e-5);
    }

    /// Merging correlation accumulators over an arbitrary split equals the
    /// single-pass accumulation (the CPA worker contract).
    #[test]
    fn merged_correlations_equal_single_pass(seed in any::<u64>(), len in 8usize..800, cut in 0usize..800) {
        let xs = lcg_stream(len, seed);
        let ys = lcg_stream(len, seed ^ 0xDEAD_BEEF);
        let cut = cut % (len + 1);
        let mut left = CorrelationAccumulator::new();
        let mut right = CorrelationAccumulator::new();
        let mut whole = CorrelationAccumulator::new();
        for i in 0..len {
            whole.push(xs[i], ys[i]);
            if i < cut {
                left.push(xs[i], ys[i]);
            } else {
                right.push(xs[i], ys[i]);
            }
        }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.pearson() - whole.pearson()).abs() < 1e-9);
    }

    /// Small random campaigns assessed at 1/2/4/8 worker threads are
    /// byte-identical to the single-worker run.
    #[test]
    fn random_campaigns_thread_invariant(seed in any::<u64>(), nf in 1usize..400, nr in 1usize..400) {
        let design = generators::iscas_c17();
        let model = PowerModel::default();
        let cfg = CampaignConfig::new(nf, nr, seed);
        let reference = assess_parallel(&design, &model, &cfg, Parallelism::new(1)).expect("campaign");
        for threads in [2usize, 4, 8] {
            let leakage = assess_parallel(&design, &model, &cfg, Parallelism::new(threads)).expect("campaign");
            for id in design.ids() {
                prop_assert_eq!(reference.result(id).t.to_bits(), leakage.result(id).t.to_bits());
            }
        }
    }
}
