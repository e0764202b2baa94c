//! Byte-identity of the streaming bivariate engine across every execution
//! shape: the per-pair t statistics of one campaign must carry the *same
//! bits* whether the co-moments stream through 1, 2, or 8 worker threads,
//! 1- or 8-word SIMD lanes, a dense two-pass sweep, a 2-worker distributed
//! split, or a fleet job on a shared pool. The engine's determinism story is
//! a shared computation DAG (fixed shard grid, canonical ascending fold) —
//! these tests pin that the bivariate sink joined it.

use polaris_dist::{execute_part_traced_with, merge_parts};
use polaris_netlist::{generators, GateId, Netlist};
use polaris_obs::NullRecorder;
use polaris_sim::fleet::{run_fleet, FleetJob};
use polaris_sim::{CampaignConfig, Parallelism, PowerModel};
use polaris_tvla::{all_pairs, bivariate_t, PairAccumulator};

fn design() -> Netlist {
    generators::iscas_c17()
}

fn campaign() -> CampaignConfig {
    // 600 + 600 traces span several 256-trace shards per class, so thread
    // counts, lane widths, and part splits all genuinely cut the grid.
    CampaignConfig::new(600, 600, 23)
}

fn pair_list(n: &Netlist) -> Vec<(u32, u32)> {
    all_pairs(&n.cell_ids())
}

/// The (t, dof) bit patterns of a streaming campaign at the given
/// parallelism, in pair-list order.
fn streaming_bits(
    n: &Netlist,
    cfg: &CampaignConfig,
    par: Parallelism,
    pairs: &[(u32, u32)],
) -> Vec<(u64, u64)> {
    let acc = FleetJob::new(n, &PowerModel::default(), cfg.clone())
        .with_sink_factory(|| PairAccumulator::for_pairs(pairs.to_vec()))
        .run(par, &NullRecorder)
        .expect("campaign")
        .sink;
    acc.results()
        .iter()
        .map(|(_, _, r)| (r.t.to_bits(), r.dof.to_bits()))
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

#[test]
fn streaming_sweep_matches_the_dense_two_pass_engine_bit_for_bit() {
    let n = design();
    let cfg = campaign();
    let pairs = pair_list(&n);
    let streaming = streaming_bits(&n, &cfg, Parallelism::new(4), &pairs);

    // Dense engine: every trace stored, then two passes per pair — chunked
    // through the same computation DAG, so the bits must agree exactly.
    let samples = polaris_sim::campaign::collect_gate_samples_parallel(
        &n,
        &PowerModel::default(),
        &cfg,
        Parallelism::new(2),
    )
    .expect("campaign");
    let dense: Vec<(u64, u64)> = pairs
        .iter()
        .map(|&(a, b)| {
            let r = bivariate_t(&samples, GateId::new(a as usize), GateId::new(b as usize))
                .expect("pairs in range");
            (r.t.to_bits(), r.dof.to_bits())
        })
        .collect();
    assert_eq!(streaming, dense);
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
                    || PairAccumulator::for_pairs(pairs.clone()),
                    &NullRecorder,
                )
                .expect("part executes")
            })
            .collect();
        let merged =
            merge_parts::<PairAccumulator>(files.iter().map(Vec::as_slice), None).expect("merges");
        let bits: Vec<(u64, u64)> = merged
            .state
            .results()
            .iter()
            .map(|(_, _, r)| (r.t.to_bits(), r.dof.to_bits()))
            .collect();
        assert_eq!(bits, reference, "{parts}-worker split");
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
                .with_sink_factory(move || PairAccumulator::for_pairs(job_pairs.clone())),
            FleetJob::<PairAccumulator>::new(&n, &model, filler_cfg)
                .with_sink_factory(|| PairAccumulator::for_pairs(vec![(0, 1)])),
        ];
        let outcomes = run_fleet(jobs, Parallelism::new(threads)).expect("fleet");
        let bits: Vec<(u64, u64)> = outcomes[0]
            .sink
            .results()
            .iter()
            .map(|(_, _, r)| (r.t.to_bits(), r.dof.to_bits()))
            .collect();
        assert_eq!(bits, reference, "{threads}-thread fleet");
    }
}
