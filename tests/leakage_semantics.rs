//! Cross-crate leakage semantics: the physical story the whole reproduction
//! rests on — unprotected data-dependent logic fails TVLA, masked logic
//! passes — verified end to end through sim + tvla + masking.

use polaris_masking::{apply_masking, MaskingStyle};
use polaris_netlist::transform::decompose;
use polaris_netlist::{generators, GateId};
use polaris_sim::{CampaignConfig, Parallelism, PowerModel};
use polaris_tvla::{assess, WelchAccumulator, TVLA_THRESHOLD};

#[test]
fn unprotected_designs_fail_tvla() {
    let power = PowerModel::default();
    for name in ["des3", "sin", "voter"] {
        let design = generators::by_name(name, 1, 3).expect("known design");
        let cfg = CampaignConfig::new(400, 400, 5);
        let summary = assess(&design, &power, &cfg)
            .expect("assessment runs")
            .summarize(&design);
        assert!(
            summary.max_abs_t > TVLA_THRESHOLD,
            "{name}: unprotected max |t| = {:.2} should exceed 4.5",
            summary.max_abs_t
        );
        assert!(summary.leaky_cells > 0, "{name} shows no leaky gates");
    }
}

#[test]
fn full_masking_collapses_leakage() {
    let power = PowerModel::default();
    let (design, _) = decompose(&generators::iscas_c17()).expect("valid design");
    let cfg = CampaignConfig::new(1000, 1000, 9);
    let before = assess(&design, &power, &cfg)
        .expect("assessment")
        .summarize(&design);

    let masked = apply_masking(&design, &design.cell_ids(), MaskingStyle::Trichina)
        .expect("masking succeeds");
    // Grouped per-original-gate assessment.
    let mut acc = WelchAccumulator::new();
    polaris_sim::campaign::run_campaign(&masked.netlist, &power, &cfg, &mut acc)
        .expect("campaign runs");
    let leakage = acc.leakage();
    let grouped: Vec<f64> = design
        .cell_ids()
        .iter()
        .map(|&orig| {
            let gates = masked.gates_for(orig);
            gates.iter().map(|&g| leakage.abs_t(g)).sum::<f64>() / gates.len() as f64
        })
        .collect();
    let after_mean = grouped.iter().sum::<f64>() / grouped.len() as f64;
    assert!(
        after_mean < before.mean_abs_t * 0.6,
        "masking every cell should cut mean |t| substantially: {:.2} -> {after_mean:.2}",
        before.mean_abs_t
    );
}

#[test]
fn fixed_vs_fixed_distinguishes_chosen_plaintexts() {
    // Two fixed input classes with different Hamming weights are
    // distinguishable on an unprotected design (the paper's fixed-vs-fixed
    // TVLA mode).
    let design = generators::iscas_c17();
    let power = PowerModel::default();
    let n_inputs = design.data_inputs().len();
    let cfg = CampaignConfig::new(500, 500, 3)
        .with_fixed_vector(vec![false; n_inputs])
        .fixed_vs_fixed(vec![true; n_inputs]);
    let summary = assess(&design, &power, &cfg)
        .expect("assessment")
        .summarize(&design);
    assert!(
        summary.max_abs_t > TVLA_THRESHOLD,
        "fixed-vs-fixed should separate all-0 from all-1 inputs: {:.2}",
        summary.max_abs_t
    );
}

#[test]
fn streaming_assessment_matches_dense_samples() {
    // The WelchAccumulator (streaming) and a dense GateSamples collection
    // followed by slice-based Welch must agree exactly.
    let design = generators::iscas_c17();
    let power = PowerModel::default();
    let cfg = CampaignConfig::new(333, 277, 13);

    let streamed = assess(&design, &power, &cfg).expect("assessment");
    let dense =
        polaris_sim::campaign::collect_gate_samples(&design, &power, &cfg).expect("campaign");
    for id in design.ids() {
        let slice_result = polaris_tvla::welch::welch_t_slices(dense.fixed(id), dense.random(id));
        let stream_result = streamed.result(id);
        assert!(
            (slice_result.t - stream_result.t).abs() < 1e-9,
            "gate {id}: {} vs {}",
            slice_result.t,
            stream_result.t
        );
        assert!((slice_result.dof - stream_result.dof).abs() < 1e-6);
    }
}

#[test]
fn second_order_leakage_survives_first_order_masking() {
    // A single Trichina-masked AND is first-order secure but its centered
    // squares still carry information (2nd-order leakage) — the classic
    // limitation the DOM extension addresses with more shares.
    let mut n = polaris_netlist::Netlist::new("one_and");
    let a = n.add_input("a");
    let b = n.add_input("b");
    let g = n
        .add_gate(polaris_netlist::GateKind::And, "g", &[a, b])
        .expect("valid");
    n.add_output("y", g).expect("valid");
    let masked = apply_masking(&n, &[g], MaskingStyle::Trichina).expect("masking");

    let power = PowerModel::default().with_noise(0.05);
    let cfg = CampaignConfig::new(4000, 4000, 21);
    let first = polaris_tvla::assess(&masked.netlist, &power, &cfg).expect("assessment");
    let second = polaris_tvla::assess_order2(&masked.netlist, &power, &cfg).expect("assessment");

    // First-order: all composite gates below threshold except possibly the
    // boundary re-combination gate (which is deliberate, see masking docs).
    let composite = masked.gates_for(g);
    let boundary = *composite.last().expect("nonempty");
    for &cg in &composite {
        if cg == boundary {
            continue;
        }
        assert!(
            first.abs_t(cg) < TVLA_THRESHOLD,
            "gate {cg} leaks first-order: {:.2}",
            first.abs_t(cg)
        );
    }
    // Second-order: at least one composite gate is distinguishable.
    let max2 = composite
        .iter()
        .map(|&cg| second.abs_t(cg))
        .fold(0.0f64, f64::max);
    assert!(
        max2 > TVLA_THRESHOLD,
        "second-order stats should still see the masked AND: max |t2| = {max2:.2}"
    );
}

#[test]
fn isw_order2_defeats_bivariate_tvla_where_trichina_fails() {
    // Security ordering across the masking families on a single AND gate.
    // In the zero-delay energy model a gate's per-trace energy is a
    // Bernoulli toggle, so *univariate* statistics only see first-order
    // differences; the real second-order test is bivariate — the centered
    // product of two gates' samples (Schneider–Moradi). Expectations:
    //
    //   Trichina (2 shares): internal gates clean first-order, but some
    //   PAIR of internal gates leaks bivariately;
    //   ISW (3 shares): every internal pair is clean (three-way
    //   combination would be required).
    let mut n = polaris_netlist::Netlist::new("one_and");
    let a = n.add_input("a");
    let b = n.add_input("b");
    let g = n
        .add_gate(polaris_netlist::GateKind::And, "g", &[a, b])
        .expect("valid");
    n.add_output("y", g).expect("valid");

    let power = PowerModel::default().with_noise(0.05);
    // Pin the fixed class to a·b = 1 — the minority product value — so the
    // second-order statistic has maximal contrast against the random class.
    let cfg = CampaignConfig::new(6000, 6000, 33).with_fixed_vector(vec![true, true]);

    // The share-domain core = composite minus the entry sharing gates
    // (which touch the raw operands: 2 for Trichina's â/b̂, 4 for ISW's
    // a0/b0 chain) and the exit re-combination tail (1 for Trichina's
    // unmask XOR, 2 for ISW's r01 + out). Entry/exit gates are the
    // documented concession of the local mask/re-combine convention — the
    // raw operand wires exist in the surrounding netlist either way.
    let core = |masked: &polaris_masking::MaskedDesign,
                entry_cut: usize,
                exit_cut: usize|
     -> Vec<GateId> {
        let gates = masked.gates_for(g);
        gates[entry_cut..gates.len() - exit_cut].to_vec()
    };

    // Trichina: first-order clean internally, bivariate core pair leaks.
    let tri = apply_masking(&n, &[g], MaskingStyle::Trichina).expect("masking");
    let first = polaris_tvla::assess(&tri.netlist, &power, &cfg).expect("assessment");
    let tri_internal = core(&tri, 2, 1);
    for &cg in &tri_internal {
        assert!(
            first.abs_t(cg) < TVLA_THRESHOLD,
            "Trichina internal gate {cg} leaks first-order: {:.2}",
            first.abs_t(cg)
        );
    }
    let pairs = polaris_tvla::all_pairs(&tri_internal);
    let sweep = polaris_tvla::assess_pairs(&tri.netlist, &power, &cfg, Parallelism::new(2), &pairs)
        .expect("sweep");
    let worst_pair = sweep.first().expect("pairs exist");
    assert!(
        worst_pair.2.t.abs() > TVLA_THRESHOLD,
        "some Trichina pair must fail bivariate TVLA: max |t| = {:.2}",
        worst_pair.2.t.abs()
    );

    // ISW: every core pair clean bivariately.
    let isw = apply_masking(&n, &[g], MaskingStyle::IswOrder2).expect("masking");
    let first_isw = polaris_tvla::assess(&isw.netlist, &power, &cfg).expect("assessment");
    let isw_internal = core(&isw, 4, 2);
    for &cg in &isw_internal {
        assert!(
            first_isw.abs_t(cg) < TVLA_THRESHOLD,
            "ISW internal gate {cg} leaks first-order: {:.2}",
            first_isw.abs_t(cg)
        );
    }
    let pairs_isw = polaris_tvla::all_pairs(&isw_internal);
    let sweep_isw =
        polaris_tvla::assess_pairs(&isw.netlist, &power, &cfg, Parallelism::new(2), &pairs_isw)
            .expect("sweep");
    let worst_isw = sweep_isw.first().expect("pairs exist");
    assert!(
        worst_isw.2.t.abs() < TVLA_THRESHOLD,
        "no ISW pair may fail bivariate TVLA: max |t| = {:.2} (pair {} / {})",
        worst_isw.2.t.abs(),
        worst_isw.0,
        worst_isw.1
    );
}

#[test]
fn leaky_gate_ranking_is_stable_across_seeds() {
    // The *identity* of the leakiest gates is physical, not an artifact of
    // the campaign seed: top-quartile overlap across two seeds.
    let design = generators::des3(1, 3);
    let power = PowerModel::default();
    let top = |seed: u64| -> Vec<GateId> {
        let cfg = CampaignConfig::new(600, 600, seed);
        let l = assess(&design, &power, &cfg).expect("assessment");
        let mut cells: Vec<(GateId, f64)> = design
            .cell_ids()
            .into_iter()
            .map(|id| (id, l.abs_t(id)))
            .collect();
        cells.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        cells.truncate(cells.len() / 4);
        cells.into_iter().map(|(id, _)| id).collect()
    };
    let a = top(1);
    let b = top(2);
    let a_set: std::collections::HashSet<_> = a.iter().collect();
    let overlap = b.iter().filter(|id| a_set.contains(id)).count();
    assert!(
        overlap * 2 > b.len(),
        "top-quartile leaky gates should mostly agree across seeds: {overlap}/{}",
        b.len()
    );
}
