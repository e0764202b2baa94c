//! Lane-width identity contract of the multi-word campaign engine (ISSUE 6
//! acceptance): every random stream is keyed per 64-lane word, so the lane
//! width `W ∈ {1, 2, 4, 8}` is a pure throughput knob — campaign outcomes
//! are **byte-identical at every width**, at every thread count, through
//! adaptive stopping, and through the distributed shard-state merge.

use polaris_netlist::generators;
use polaris_obs::NullRecorder;
use polaris_sim::campaign::{
    collect_gate_samples_parallel, fold_shard_states, run_shard_states, shard_grid,
};
use polaris_sim::{CampaignConfig, GateSamples, Parallelism, PowerModel};
use polaris_tvla::{assess_adaptive, assess_parallel, SequentialConfig, WelchAccumulator};

const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Welch t-statistics are byte-identical at every (lane width, thread
/// count) combination, including trace counts that leave partial batches
/// at every width.
#[test]
fn assessment_byte_identical_at_every_width_and_thread_count() {
    let design = generators::iscas_like("c432", 1, 5).expect("known design");
    let model = PowerModel::default();
    // 1300/700: neither class is a multiple of 512, 256, or 128 — every
    // width sees a trailing partial batch.
    let cfg = CampaignConfig::new(1300, 700, 23);

    let reference = assess_parallel(
        &design,
        &model,
        &cfg,
        Parallelism::new(1).with_lane_words(1),
    )
    .expect("campaign");

    for width in WIDTHS {
        for threads in [1, 2, 8] {
            let par = Parallelism::new(threads).with_lane_words(width);
            let leakage = assess_parallel(&design, &model, &cfg, par).expect("campaign");
            for id in design.ids() {
                let (a, b) = (reference.result(id), leakage.result(id));
                assert_eq!(
                    a.t.to_bits(),
                    b.t.to_bits(),
                    "gate {id}: t at width {width}, {threads} threads"
                );
                assert_eq!(
                    a.dof.to_bits(),
                    b.dof.to_bits(),
                    "gate {id}: dof at width {width}, {threads} threads"
                );
            }
        }
    }
}

/// The raw trace stream — every sample of every gate, in order — is
/// bit-identical at every lane width.
#[test]
fn dense_samples_byte_identical_at_every_width() {
    let design = generators::iscas_c17();
    let model = PowerModel::default();
    let cfg = CampaignConfig::new(700, 333, 9);
    let reference = collect_gate_samples_parallel(
        &design,
        &model,
        &cfg,
        Parallelism::new(1).with_lane_words(1),
    )
    .expect("campaign");
    for width in WIDTHS {
        for threads in [1, 2] {
            let par = Parallelism::new(threads).with_lane_words(width);
            let samples =
                collect_gate_samples_parallel(&design, &model, &cfg, par).expect("campaign");
            for id in design.ids() {
                assert_eq!(
                    reference.fixed(id),
                    samples.fixed(id),
                    "gate {id}: fixed at width {width}, {threads} threads"
                );
                assert_eq!(
                    reference.random(id),
                    samples.random(id),
                    "gate {id}: random at width {width}, {threads} threads"
                );
            }
        }
    }
}

/// Adaptive sequential stopping lands on the same stop round with the same
/// statistics at every lane width — an early-stopped run is the same exact
/// prefix no matter how wide the simulator batches.
#[test]
fn adaptive_stop_is_width_invariant() {
    let design = generators::iscas_c17();
    let model = PowerModel::default();
    let cfg = CampaignConfig::new(6000, 6000, 11);
    let seq = SequentialConfig::default();

    let reference = assess_adaptive(
        &design,
        &model,
        &cfg,
        Parallelism::new(1).with_lane_words(1),
        &seq,
        &NullRecorder,
    )
    .expect("campaign");
    assert!(
        reference.stats.stopped_early,
        "the fixture must stop early: {:?}",
        reference.stats
    );

    for width in [2, 4, 8] {
        for threads in [1, 8] {
            let par = Parallelism::new(threads).with_lane_words(width);
            let run =
                assess_adaptive(&design, &model, &cfg, par, &seq, &NullRecorder).expect("campaign");
            assert_eq!(
                run.stats, reference.stats,
                "stop stats at width {width}, {threads} threads"
            );
            for id in design.ids() {
                assert_eq!(
                    run.leakage.result(id).t.to_bits(),
                    reference.leakage.result(id).t.to_bits(),
                    "gate {id}: t at width {width}, {threads} threads"
                );
            }
        }
    }
}

/// The distributed path: shard states computed at different lane widths on
/// different "machines" (a 2-part split of the shard grid) fold into the
/// same central accumulator, byte for byte.
#[test]
fn two_part_distributed_merge_is_width_invariant() {
    let design = generators::iscas_c17();
    let model = PowerModel::default();
    let cfg = CampaignConfig::new(900, 900, 77);
    let n_shards = shard_grid(&cfg).len();
    assert!(n_shards >= 2, "fixture must span multiple shards");
    let cut = n_shards / 2;

    let fold = |w_left: usize, w_right: usize| -> WelchAccumulator {
        let left: Vec<WelchAccumulator> = run_shard_states(
            &design,
            &model,
            &cfg,
            Parallelism::new(1).with_lane_words(w_left),
            0..cut,
        )
        .expect("campaign");
        let right: Vec<WelchAccumulator> = run_shard_states(
            &design,
            &model,
            &cfg,
            Parallelism::new(2).with_lane_words(w_right),
            cut..n_shards,
        )
        .expect("campaign");
        fold_shard_states(left.into_iter().chain(right))
    };

    let reference = fold(1, 1).leakage();
    // Heterogeneous widths across the two halves: a fleet where machines
    // pick different SIMD widths still folds to the same bytes.
    for (w_left, w_right) in [(2, 2), (4, 4), (8, 8), (1, 8), (8, 2)] {
        let merged = fold(w_left, w_right).leakage();
        for id in design.ids() {
            assert_eq!(
                reference.result(id).t.to_bits(),
                merged.result(id).t.to_bits(),
                "gate {id}: widths ({w_left}, {w_right})"
            );
        }
    }

    // And the dense stream survives the same split.
    let dense = |w_left: usize, w_right: usize| -> GateSamples {
        let left: Vec<GateSamples> = run_shard_states(
            &design,
            &model,
            &cfg,
            Parallelism::new(1).with_lane_words(w_left),
            0..cut,
        )
        .expect("campaign");
        let right: Vec<GateSamples> = run_shard_states(
            &design,
            &model,
            &cfg,
            Parallelism::new(1).with_lane_words(w_right),
            cut..n_shards,
        )
        .expect("campaign");
        fold_shard_states(left.into_iter().chain(right))
    };
    let ref_samples = dense(1, 1);
    let wide = dense(8, 2);
    for id in design.ids() {
        assert_eq!(ref_samples.fixed(id), wide.fixed(id), "gate {id}: fixed");
        assert_eq!(ref_samples.random(id), wide.random(id), "gate {id}: random");
    }
}
