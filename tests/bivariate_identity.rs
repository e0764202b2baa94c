//! Byte-identity of the streaming bivariate engine across every execution
//! shape: the per-pair t statistics of one campaign must carry the *same
//! bits* whether the co-moments stream through 1, 2, or 8 worker threads,
//! 1- or 8-word SIMD lanes, a 2-worker distributed split, or a fleet job on
//! a shared pool. The engine's determinism story is a shared computation
//! DAG (fixed shard grid, canonical ascending fold) — these tests pin that
//! the bivariate sink joined it. An independent two-pass oracle (Welch's t
//! over the explicitly centered products) checks the values themselves.

use polaris_dist::{execute_part_traced_with, merge_parts};
use polaris_netlist::{generators, GateId, Netlist};
use polaris_obs::NullRecorder;
use polaris_sim::fleet::{run_fleet, FleetJob};
use polaris_sim::{CampaignConfig, Parallelism, PowerModel};
use polaris_tvla::welch::welch_t_slices;
use polaris_tvla::{all_gate_sets, PairAccumulator, WelchResult, TVLA_THRESHOLD};

fn design() -> Netlist {
    generators::iscas_c17()
}

fn campaign() -> CampaignConfig {
    // 600 + 600 traces span several 256-trace shards per class, so thread
    // counts, lane widths, and part splits all genuinely cut the grid.
    CampaignConfig::new(600, 600, 23)
}

fn pair_list(n: &Netlist) -> Vec<Vec<u32>> {
    all_gate_sets(&n.cell_ids(), 2)
}

/// The per-pair results of a streaming campaign at the given parallelism,
/// in pair-list order.
fn streaming_results(
    n: &Netlist,
    cfg: &CampaignConfig,
    par: Parallelism,
    pairs: &[Vec<u32>],
) -> Vec<WelchResult> {
    let acc = FleetJob::new(n, &PowerModel::default(), cfg.clone())
        .with_sink_factory(|| PairAccumulator::new(pairs))
        .run(par, &NullRecorder)
        .expect("campaign")
        .sink;
    acc.rows().into_iter().map(|(_, r)| r).collect()
}

/// The (t, dof) bit patterns of a streaming campaign at the given
/// parallelism, in pair-list order.
fn streaming_bits(
    n: &Netlist,
    cfg: &CampaignConfig,
    par: Parallelism,
    pairs: &[Vec<u32>],
) -> Vec<(u64, u64)> {
    bits(&streaming_results(n, cfg, par, pairs))
}

fn bits(results: &[WelchResult]) -> Vec<(u64, u64)> {
    results
        .iter()
        .map(|r| (r.t.to_bits(), r.dof.to_bits()))
        .collect()
}

#[test]
fn streaming_sweep_is_bit_identical_at_any_thread_count_and_lane_width() {
    let n = design();
    let cfg = campaign();
    let pairs = pair_list(&n);
    let reference = streaming_bits(&n, &cfg, Parallelism::sequential(), &pairs);
    assert!(!reference.is_empty());
    for threads in [1usize, 2, 8] {
        for lane_words in [1usize, 8] {
            let par = Parallelism::new(threads).with_lane_words(lane_words);
            assert_eq!(
                streaming_bits(&n, &cfg, par, &pairs),
                reference,
                "{threads} threads x {lane_words} lane words"
            );
        }
    }
}

/// Test-only oracle: store every trace, center each gate's class buffer on
/// its class mean, and run Welch's t-test over the explicit products
/// `(e₁ − μ₁)(e₂ − μ₂)`. Two passes and a different summation order than the
/// streaming co-moments, so the two agree to rounding, not to the bit.
#[test]
fn streaming_sweep_matches_the_centered_product_oracle() {
    let n = design();
    let cfg = campaign();
    let pairs = pair_list(&n);
    let streaming = streaming_results(&n, &cfg, Parallelism::new(4), &pairs);

    let samples = polaris_sim::campaign::collect_gate_samples_parallel(
        &n,
        &PowerModel::default(),
        &cfg,
        Parallelism::new(2),
    )
    .expect("campaign");
    let centered_products = |e1: &[f64], e2: &[f64]| -> Vec<f64> {
        let mean = |e: &[f64]| e.iter().sum::<f64>() / e.len() as f64;
        let (m1, m2) = (mean(e1), mean(e2));
        e1.iter()
            .zip(e2)
            .map(|(a, b)| (a - m1) * (b - m2))
            .collect()
    };
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
    let mut leaky = 0;
    for (pair, got) in pairs.iter().zip(&streaming) {
        let (g1, g2) = (GateId::new(pair[0] as usize), GateId::new(pair[1] as usize));
        let want = welch_t_slices(
            &centered_products(samples.fixed(g1), samples.fixed(g2)),
            &centered_products(samples.random(g1), samples.random(g2)),
        );
        assert!(close(got.t, want.t), "{pair:?}: t {} vs {}", got.t, want.t);
        assert!(
            close(got.dof, want.dof),
            "{pair:?}: dof {} vs {}",
            got.dof,
            want.dof
        );
        assert_eq!(
            got.is_leaky(TVLA_THRESHOLD),
            want.is_leaky(TVLA_THRESHOLD),
            "{pair:?}: verdict"
        );
        leaky += usize::from(got.is_leaky(TVLA_THRESHOLD));
    }
    // The oracle is only a check if both verdicts occur.
    assert!(
        leaky > 0 && leaky < pairs.len(),
        "{leaky} of {} leaky",
        pairs.len()
    );
}

#[test]
fn distributed_split_folds_bit_identically_at_any_partitioning() {
    let n = design();
    let cfg = campaign();
    let pairs = pair_list(&n);
    let model = PowerModel::default();
    let reference = streaming_bits(&n, &cfg, Parallelism::sequential(), &pairs);

    for parts in [1usize, 2, 3] {
        let files: Vec<Vec<u8>> = (0..parts)
            .map(|i| {
                execute_part_traced_with(
                    &n,
                    &model,
                    &cfg,
                    Parallelism::new(2),
                    i,
                    parts,
                    || PairAccumulator::new(&pairs),
                    &NullRecorder,
                )
                .expect("part executes")
            })
            .collect();
        let merged =
            merge_parts::<PairAccumulator>(files.iter().map(Vec::as_slice), None).expect("merges");
        let rows: Vec<WelchResult> = merged.state.rows().into_iter().map(|(_, r)| r).collect();
        assert_eq!(bits(&rows), reference, "{parts}-worker split");
    }
}

#[test]
fn fleet_pair_job_matches_its_standalone_run() {
    let n = design();
    let cfg = campaign();
    let pairs = pair_list(&n);
    let model = PowerModel::default();
    let reference = streaming_bits(&n, &cfg, Parallelism::sequential(), &pairs);

    // A pair job rides the fleet's sink-factory hook: same factory, same
    // grid, same canonical fold — mid-fleet scheduling must not change bits.
    for threads in [1usize, 3] {
        let filler_cfg = CampaignConfig::new(300, 300, 5);
        let job_pairs = pairs.clone();
        let jobs = vec![
            FleetJob::<PairAccumulator>::new(&n, &model, cfg.clone())
                .with_sink_factory(move || PairAccumulator::new(&job_pairs)),
            FleetJob::<PairAccumulator>::new(&n, &model, filler_cfg)
                .with_sink_factory(|| PairAccumulator::new(&[[0u32, 1]])),
        ];
        let outcomes = run_fleet(jobs, Parallelism::new(threads)).expect("fleet");
        let rows: Vec<WelchResult> = outcomes[0]
            .sink
            .rows()
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        assert_eq!(bits(&rows), reference, "{threads}-thread fleet");
    }
}
