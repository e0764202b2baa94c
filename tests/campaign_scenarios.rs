//! Scenario breadth of the parallel campaign engine (ISSUE 3): fixed-vs-fixed
//! TVLA end-to-end through the sharded/round-checkpointed engine (previously
//! only fixed-vs-random had integration coverage), plus a bivariate-sweep
//! smoke test through the parallel streaming engine.

use polaris_netlist::generators;
use polaris_obs::NullRecorder;
use polaris_sim::{CampaignConfig, Parallelism, PowerModel};
use polaris_tvla::{
    all_pairs, assess_adaptive, assess_pairs, assess_parallel, SequentialConfig, TVLA_THRESHOLD,
};

fn c17_vectors() -> (Vec<bool>, Vec<bool>) {
    (
        vec![true, false, true, false, true],
        vec![false, true, true, true, false],
    )
}

/// Distinct fixed vectors drive distinct deterministic toggle patterns, so a
/// fixed-vs-fixed campaign flags the data-driven cells — through the same
/// parallel engine as fixed-vs-random, at every thread count.
#[test]
fn fixed_vs_fixed_detects_vector_dependent_leakage() {
    let design = generators::iscas_c17();
    let model = PowerModel::default();
    let (v1, v2) = c17_vectors();
    let cfg = CampaignConfig::new(1500, 1500, 5)
        .with_fixed_vector(v1)
        .fixed_vs_fixed(v2);
    let leakage = assess_parallel(&design, &model, &cfg, Parallelism::new(4)).expect("campaign");
    let s = leakage.summarize(&design);
    assert!(
        s.max_abs_t > TVLA_THRESHOLD,
        "distinct fixed classes must be distinguishable: max |t| = {}",
        s.max_abs_t
    );
    assert!(s.leaky_cells > 0);
}

/// Identical vectors in both classes give two statistically identical
/// populations: nothing may be flagged.
#[test]
fn fixed_vs_fixed_same_vector_is_silent() {
    let design = generators::iscas_c17();
    let model = PowerModel::default();
    let (v1, _) = c17_vectors();
    let cfg = CampaignConfig::new(1500, 1500, 5)
        .with_fixed_vector(v1.clone())
        .fixed_vs_fixed(v1);
    let leakage = assess_parallel(&design, &model, &cfg, Parallelism::new(2)).expect("campaign");
    assert!(
        leakage.max_abs_t() < TVLA_THRESHOLD,
        "identical classes must not be distinguishable: max |t| = {}",
        leakage.max_abs_t()
    );
}

/// Fixed-vs-fixed campaigns honor the engine's determinism contract:
/// byte-identical at 1/2/8 worker threads.
#[test]
fn fixed_vs_fixed_byte_identical_across_threads() {
    let design = generators::iscas_c17();
    let model = PowerModel::default();
    let (v1, v2) = c17_vectors();
    let cfg = CampaignConfig::new(900, 900, 13)
        .with_fixed_vector(v1)
        .fixed_vs_fixed(v2);
    let reference = assess_parallel(&design, &model, &cfg, Parallelism::new(1)).expect("campaign");
    for threads in [2, 8] {
        let run =
            assess_parallel(&design, &model, &cfg, Parallelism::new(threads)).expect("campaign");
        for id in design.ids() {
            assert_eq!(
                reference.result(id).t.to_bits(),
                run.result(id).t.to_bits(),
                "gate {id} at {threads} threads"
            );
        }
    }
}

/// Adaptive stopping runs on fixed-vs-fixed campaigns unchanged: both
/// deterministic classes resolve quickly, and the early-stopped verdict
/// matches the full run's.
#[test]
fn fixed_vs_fixed_supports_adaptive_stopping() {
    let design = generators::iscas_c17();
    let model = PowerModel::default();
    let (v1, v2) = c17_vectors();
    // Seed 11: every null gate falls inside the late-look margins, so the
    // run stops early (most seeds do; a few park a null gate in the
    // undecided band and legitimately spend the budget).
    let cfg = CampaignConfig::new(6000, 6000, 11)
        .with_fixed_vector(v1)
        .fixed_vs_fixed(v2);
    let a = assess_adaptive(
        &design,
        &model,
        &cfg,
        Parallelism::new(2),
        &SequentialConfig::default(),
        &NullRecorder,
    )
    .expect("campaign");
    let full = assess_parallel(&design, &model, &cfg, Parallelism::new(2)).expect("campaign");
    for id in design.ids() {
        assert_eq!(
            a.leakage.abs_t(id) > TVLA_THRESHOLD,
            full.abs_t(id) > TVLA_THRESHOLD,
            "verdict flip at gate {id}"
        );
    }
    assert!(
        a.stats.stopped_early,
        "two deterministic classes converge fast: {:?}",
        a.stats
    );
    assert!(a.stats.traces_used() < cfg.n_fixed + cfg.n_random);
}

/// Bivariate smoke on a small netlist: a parallel streaming second-order
/// sweep; the shared-mask pair leaks bivariately while first-order stays
/// silent, and the sweep is ordered by descending |t|.
#[test]
fn bivariate_sweep_smoke_on_small_netlist() {
    let src = "
module m (a, m0, y0, y1, y2);
  input a;
  mask_input m0;
  output y0, y1, y2;
  xor g0 (y0, a, m0);
  buf g1 (y1, m0);
  not g2 (y2, m0);
endmodule";
    let design = polaris_netlist::parse_netlist(src).unwrap();
    let model = PowerModel::default().with_noise(0.05);
    let cfg = CampaignConfig::new(3000, 3000, 7).with_fixed_vector(vec![true]);

    // First order: every cell is masked and silent.
    let first = assess_parallel(&design, &model, &cfg, Parallelism::new(4)).expect("campaign");
    for id in design.cell_ids() {
        assert!(
            first.abs_t(id) < TVLA_THRESHOLD,
            "cell {id} should be first-order clean: {:.2}",
            first.abs_t(id)
        );
    }

    // Second order via the parallel streaming sweep.
    let cells = design.cell_ids();
    let sweep = assess_pairs(
        &design,
        &model,
        &cfg,
        Parallelism::new(4),
        &all_pairs(&cells),
    )
    .expect("pairs in range");
    assert_eq!(sweep.len(), cells.len() * (cells.len() - 1) / 2);
    for w in sweep.windows(2) {
        assert!(w[0].2.t.abs() >= w[1].2.t.abs(), "sweep must be sorted");
    }
    // The xor shares its mask with the buf/not gates: the top pair fails.
    assert!(
        sweep[0].2.t.abs() > TVLA_THRESHOLD,
        "shared-mask pair must leak bivariately: |t2| = {:.2}",
        sweep[0].2.t.abs()
    );
}
