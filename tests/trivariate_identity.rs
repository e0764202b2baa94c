//! Byte-identity of the streaming trivariate engine across every execution
//! shape: the per-triple t statistics of one campaign must carry the *same
//! bits* whether the co-moments stream through 1, 2, or 8 worker threads,
//! 1- or 8-word SIMD lanes, a multi-part distributed split, or a fleet job
//! on a shared pool. The engine's determinism story is a shared computation
//! DAG (fixed shard grid, canonical ascending fold) — these tests pin that
//! the trivariate sink joined it — plus the payoff the engine exists for: a
//! 3-share ISW masked AND is clean through order 2 and fails only the
//! third-order test.

use polaris_dist::{execute_job_part, merge_parts};
use polaris_masking::isw::{masked_and_order2, IswMasks};
use polaris_netlist::{generators, Netlist};
use polaris_obs::NullRecorder;
use polaris_sim::fleet::{run_fleet, FleetJob};
use polaris_sim::{CampaignConfig, Parallelism, PowerModel};
use polaris_tvla::{
    all_pairs, all_triples, assess_pairs, assess_triples, TripleAccumulator, TVLA_THRESHOLD,
};

fn design() -> Netlist {
    generators::iscas_c17()
}

fn campaign() -> CampaignConfig {
    // 600 + 600 traces span several 256-trace shards per class, so thread
    // counts, lane widths, and part splits all genuinely cut the grid.
    CampaignConfig::new(600, 600, 23)
}

fn triple_list(n: &Netlist) -> Vec<(u32, u32, u32)> {
    all_triples(&n.cell_ids())
}

/// The (t, dof) bit patterns of a streaming campaign at the given
/// parallelism, in triple-list order.
fn streaming_bits(
    n: &Netlist,
    cfg: &CampaignConfig,
    par: Parallelism,
    triples: &[(u32, u32, u32)],
) -> Vec<(u64, u64)> {
    let acc = FleetJob::new(n, &PowerModel::default(), cfg.clone())
        .with_sink_factory(|| TripleAccumulator::for_triples(triples.to_vec()))
        .run(par, &NullRecorder)
        .expect("campaign")
        .sink;
    acc.results()
        .iter()
        .map(|(_, _, _, r)| (r.t.to_bits(), r.dof.to_bits()))
        .collect()
}

#[test]
fn streaming_sweep_is_bit_identical_at_any_thread_count_and_lane_width() {
    let n = design();
    let cfg = campaign();
    let triples = triple_list(&n);
    let reference = streaming_bits(&n, &cfg, Parallelism::sequential(), &triples);
    assert!(!reference.is_empty());
    for threads in [1usize, 2, 8] {
        for lane_words in [1usize, 8] {
            let par = Parallelism::new(threads).with_lane_words(lane_words);
            assert_eq!(
                streaming_bits(&n, &cfg, par, &triples),
                reference,
                "{threads} threads x {lane_words} lane words"
            );
        }
    }
}

#[test]
fn distributed_split_folds_bit_identically_at_any_partitioning() {
    let n = design();
    let cfg = campaign();
    let triples = triple_list(&n);
    let model = PowerModel::default();
    let reference = streaming_bits(&n, &cfg, Parallelism::sequential(), &triples);

    let job = FleetJob::new(&n, &model, cfg.clone())
        .with_sink_factory(|| TripleAccumulator::for_triples(triples.clone()));
    for parts in [1usize, 2, 3] {
        let files: Vec<Vec<u8>> = (0..parts)
            .map(|i| {
                execute_job_part(&job, Parallelism::new(2), i, parts, &NullRecorder)
                    .expect("part executes")
            })
            .collect();
        let merged = merge_parts::<TripleAccumulator>(files.iter().map(Vec::as_slice), None)
            .expect("merges");
        let bits: Vec<(u64, u64)> = merged
            .state
            .results()
            .iter()
            .map(|(_, _, _, r)| (r.t.to_bits(), r.dof.to_bits()))
            .collect();
        assert_eq!(bits, reference, "{parts}-worker split");
    }
}

#[test]
fn fleet_triple_job_matches_its_standalone_run() {
    let n = design();
    let cfg = campaign();
    let triples = triple_list(&n);
    let model = PowerModel::default();
    let reference = streaming_bits(&n, &cfg, Parallelism::sequential(), &triples);

    // A triple job rides the fleet's sink-factory hook: same factory, same
    // grid, same canonical fold — mid-fleet scheduling must not change bits.
    for threads in [1usize, 3] {
        let filler_cfg = CampaignConfig::new(300, 300, 5);
        let job_triples = triples.clone();
        let jobs = vec![
            FleetJob::<TripleAccumulator>::new(&n, &model, cfg.clone())
                .with_sink_factory(move || TripleAccumulator::for_triples(job_triples.clone())),
            FleetJob::<TripleAccumulator>::new(&n, &model, filler_cfg)
                .with_sink_factory(|| TripleAccumulator::for_triples(vec![(0, 1, 2)])),
        ];
        let outcomes = run_fleet(jobs, Parallelism::new(threads), &NullRecorder).expect("fleet");
        let bits: Vec<(u64, u64)> = outcomes[0]
            .sink
            .results()
            .iter()
            .map(|(_, _, _, r)| (r.t.to_bits(), r.dof.to_bits()))
            .collect();
        assert_eq!(bits, reference, "{threads}-thread fleet");
    }
}

/// The payoff demo: a second-order ISW masked AND (3 shares) passes TVLA at
/// orders 1 and 2 on its output-share gates and fails only at order 3 —
/// the repo's first positive higher-order detection on a real composite.
#[test]
fn isw_masked_and_is_clean_through_order_two_and_leaks_at_order_three() {
    let mut n = Netlist::new("isw_and");
    let a = n.add_input("a");
    let b = n.add_input("b");
    let masks = IswMasks::allocate(&mut n, "g");
    let exp = masked_and_order2(&mut n, "g", a, b, masks);
    n.add_output("y", exp.output).expect("output binds");

    // Fixed class pins a = b = 1 (so a·b = 1); the random class re-draws
    // both inputs. Low noise keeps the campaign small while the per-order
    // margins stay wide.
    let cfg = CampaignConfig::new(4000, 4000, 7).with_fixed_vector(vec![true, true]);
    let model = PowerModel::default().with_noise(0.05);

    // The output shares c0 ⊕ c1 ⊕ c2 = a·b. Any single share is uniformly
    // masked and any two are jointly independent of the product; only the
    // triple recombines it. (The trailing r01/out gates are the crate's
    // boundary re-combination and intentionally excluded.)
    let share = |suffix: &str| {
        n.iter()
            .find(|(_, g)| g.name() == format!("g_{suffix}"))
            .map(|(id, _)| id)
            .expect("share gate present")
    };
    let shares = [share("c0"), share("c1"), share("c2")];

    let first = polaris_tvla::assess(&n, &model, &cfg).expect("first-order campaign");
    for &g in &shares {
        assert!(
            first.abs_t(g) < TVLA_THRESHOLD,
            "share gate {} must be first-order clean: |t| = {:.2}",
            n.gate(g).name(),
            first.abs_t(g)
        );
    }

    let pairs = all_pairs(&shares);
    for (g1, g2, r) in
        assess_pairs(&n, &model, &cfg, Parallelism::new(2), &pairs).expect("pair campaign")
    {
        assert!(
            r.t.abs() < TVLA_THRESHOLD,
            "share pair ({}, {}) must be second-order clean: |t| = {:.2}",
            n.gate(g1).name(),
            n.gate(g2).name(),
            r.t.abs()
        );
    }

    let sweep = assess_triples(&n, &model, &cfg, Parallelism::new(2), &all_triples(&shares))
        .expect("triple campaign");
    let (g1, g2, g3, r) = &sweep[0];
    assert!(
        r.t.abs() > TVLA_THRESHOLD,
        "share triple ({}, {}, {}) must fail trivariate TVLA: |t| = {:.2}",
        n.gate(*g1).name(),
        n.gate(*g2).name(),
        n.gate(*g3).name(),
        r.t.abs()
    );
}
