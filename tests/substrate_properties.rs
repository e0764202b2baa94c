//! Property tests over the substrate crates: simulator lane independence,
//! streaming-moment algebra, Welch symmetry, SHAP axioms, and format
//! round-trips.

use proptest::prelude::*;

use polaris_ml::adaboost::{AdaBoost, AdaBoostConfig};
use polaris_ml::{Classifier, Dataset, TreeEnsemble};
use polaris_netlist::{GateId, GateKind, Netlist};
use polaris_sim::Simulator;
use polaris_tvla::{welch_t, StreamingMoments};
use polaris_xai::tree_shap::tree_shap;

/// Random valid combinational netlist (shared with masking_properties, kept
/// local so each test file is self-contained).
fn arb_netlist(n_inputs: usize, max_gates: usize) -> impl Strategy<Value = Netlist> {
    let kinds = prop::sample::select(vec![
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Mux,
    ]);
    prop::collection::vec((kinds, any::<u64>()), 1..max_gates).prop_map(move |specs| {
        let mut n = Netlist::new("prop");
        let mut signals: Vec<GateId> = (0..n_inputs)
            .map(|i| n.add_input(format!("i{i}")))
            .collect();
        for (idx, (kind, pick)) in specs.into_iter().enumerate() {
            let arity = match kind {
                GateKind::Not => 1,
                GateKind::Mux => 3,
                _ => 2,
            };
            let fanin: Vec<GateId> = (0..arity)
                .map(|k| signals[((pick >> (8 * k)) as usize) % signals.len()])
                .collect();
            let g = n.add_gate(kind, format!("g{idx}"), &fanin).expect("valid");
            signals.push(g);
        }
        for (i, &s) in signals.iter().rev().take(3).enumerate() {
            n.add_output(format!("o{i}"), s).expect("valid");
        }
        n
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bit-parallel semantics: lane `l` of a 64-lane evaluation equals an
    /// independent single-lane evaluation of lane `l`'s inputs.
    #[test]
    fn simulator_lanes_are_independent(
        netlist in arb_netlist(6, 20),
        words in prop::collection::vec(any::<u64>(), 6),
        lane in 0usize..64,
    ) {
        let sim = Simulator::new(&netlist).expect("compiles");
        // Full-width evaluation.
        let mut wide = sim.zero_state();
        sim.eval(&mut wide, &words, &[]);
        // Single-lane evaluation of the same inputs.
        let lane_bits: Vec<u64> = words.iter().map(|w| (w >> lane) & 1).collect();
        let mut narrow = sim.zero_state();
        sim.eval(&mut narrow, &lane_bits, &[]);
        for (_, driver) in netlist.outputs() {
            prop_assert_eq!(
                (wide.value(*driver) >> lane) & 1,
                narrow.value(*driver) & 1
            );
        }
    }

    /// Zero-delay and unit-delay evaluation settle to identical values.
    #[test]
    fn delay_models_agree_on_settled_values(
        netlist in arb_netlist(5, 24),
        words in prop::collection::vec(any::<u64>(), 5),
    ) {
        let sim = Simulator::new(&netlist).expect("compiles");
        let mut zero = sim.zero_state();
        sim.eval(&mut zero, &words, &[]);
        let mut unit = sim.zero_state();
        sim.eval_unit_delay(&mut unit, &words, &[], |_, _| {});
        for id in netlist.ids() {
            prop_assert_eq!(zero.value(id), unit.value(id));
        }
    }

    /// Merging split streams equals one sequential stream, for any split.
    #[test]
    fn moments_merge_associative(
        xs in prop::collection::vec(-1e3f64..1e3, 2..300),
        split in any::<prop::sample::Index>(),
    ) {
        let cut = 1 + split.index(xs.len() - 1);
        let mut left = StreamingMoments::new();
        left.extend_batch(&xs[..cut]);
        let mut right = StreamingMoments::new();
        right.extend_batch(&xs[cut..]);
        left.merge(&right);

        let mut all = StreamingMoments::new();
        all.extend_batch(&xs);

        prop_assert_eq!(left.count(), all.count());
        prop_assert!((left.mean() - all.mean()).abs() < 1e-6);
        prop_assert!(
            (left.population_variance() - all.population_variance()).abs()
                < 1e-6 * (1.0 + all.population_variance())
        );
    }

    /// Welch's t is antisymmetric and its dof symmetric under swapping the
    /// populations.
    #[test]
    fn welch_swap_symmetry(
        a in prop::collection::vec(-50f64..50.0, 3..80),
        b in prop::collection::vec(-50f64..50.0, 3..80),
    ) {
        let mut ma = StreamingMoments::new();
        ma.extend_batch(&a);
        let mut mb = StreamingMoments::new();
        mb.extend_batch(&b);
        let fwd = welch_t(&ma, &mb);
        let rev = welch_t(&mb, &ma);
        prop_assert!((fwd.t + rev.t).abs() < 1e-9);
        prop_assert!((fwd.dof - rev.dof).abs() < 1e-6);
        // p-values are probabilities.
        prop_assert!((0.0..=1.0).contains(&fwd.p_value()));
    }

    /// SHAP efficiency axiom on arbitrary-ish trained models and inputs.
    #[test]
    fn shap_efficiency_axiom(
        seed in any::<u64>(),
        probe_bits in any::<u32>(),
    ) {
        // Deterministic dataset from the seed.
        let mut d = Dataset::new((0..5).map(|i| format!("f{i}")).collect());
        let mut state = seed | 1;
        for _ in 0..120 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let row: Vec<f32> = (0..5).map(|k| ((state >> (k * 7)) & 1) as f32).collect();
            let y = u8::from(row[0] != row[1]);
            d.push(&row, y).expect("width ok");
        }
        let (neg, pos) = d.class_counts();
        prop_assume!(neg > 0 && pos > 0);
        let model = AdaBoost::fit(
            &d,
            &AdaBoostConfig { n_estimators: 8, max_depth: 2, ..Default::default() },
        )
        .expect("trains");
        let background: Vec<Vec<f32>> = (0..16).map(|i| d.row(i * 3).to_vec()).collect();
        let x: Vec<f32> = (0..5).map(|k| ((probe_bits >> k) & 1) as f32).collect();
        let e = tree_shap(&model, &background, &x);
        prop_assert!(e.efficiency_gap().abs() < 1e-8, "gap {}", e.efficiency_gap());
        prop_assert!((e.fx - model.margin(&x)).abs() < 1e-12);
    }

    /// Model persistence round-trips arbitrary trained AdaBoost ensembles.
    #[test]
    fn model_persistence_roundtrip(seed in any::<u64>()) {
        let mut d = Dataset::new(vec!["a".into(), "b".into(), "c".into()]);
        let mut state = seed | 1;
        for _ in 0..80 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let row: Vec<f32> = (0..3).map(|k| ((state >> (k * 9)) & 1) as f32).collect();
            let y = u8::from((row[0] + row[1] + row[2]) >= 2.0);
            d.push(&row, y).expect("width ok");
        }
        let (neg, pos) = d.class_counts();
        prop_assume!(neg > 0 && pos > 0);
        let model = AdaBoost::fit(&d, &AdaBoostConfig::default()).expect("trains");
        let text = polaris_ml::persist::encode_ensemble(&model.to_data());
        let back = AdaBoost::from_data(
            polaris_ml::persist::decode_ensemble(
                &mut polaris_ml::persist::Lines::new(&text),
            )
            .expect("decodes"),
        )
        .expect("family matches");
        for i in 0..d.len() {
            prop_assert_eq!(model.predict_proba(d.row(i)), back.predict_proba(d.row(i)));
        }
    }

    /// `.bench` round-trip preserves structure for arbitrary netlists.
    #[test]
    fn bench_format_roundtrip(netlist in arb_netlist(4, 18)) {
        let text = polaris_netlist::write_bench(&netlist);
        let back = polaris_netlist::parse_bench(&text).expect("writer output parses");
        prop_assert_eq!(back.gate_count(), netlist.gate_count());
        prop_assert_eq!(back.stats().kind_histogram, netlist.stats().kind_histogram);
        prop_assert_eq!(back.outputs().len(), netlist.outputs().len());
    }
}
