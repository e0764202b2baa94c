//! Bivariate (true second-order) TVLA: the order-2 instance of the
//! [`crate::comoments`] engine, under the pair-shaped names the sweeps,
//! benches and tests use.
//!
//! The statistic combines two gates' energies per trace,
//! `y = (e₁ − μ₁)(e₂ − μ₂)`, and runs Welch's t-test between the fixed and
//! random classes. A first-order (2-share) Trichina composite has gate pairs
//! whose joint toggle statistics are data-dependent — e.g. the remasked
//! product `(a·b) ⊕ z` together with any gate carrying `z` — while a
//! second-order (3-share) ISW composite passes every bivariate test (see the
//! workspace integration tests).

use polaris_netlist::{GateId, Netlist};
use polaris_sim::campaign::{CampaignConfig, Parallelism};
use polaris_sim::power::PowerModel;

use crate::comoments::{
    all_gate_sets, assess_gate_sets, CoMomentAccumulator, CoMoments, MultivariateError,
};
use crate::welch::WelchResult;

/// Bivariate central co-moments: `n`, the two means, and
/// `C₀₂, C₁₁, C₁₂, C₂₀, C₂₁, C₂₂` (lexicographic order) about them.
pub type PairMoments = CoMoments<2>;

impl PairMoments {
    /// Adds one joint sample `(x, y)`.
    #[inline]
    pub fn push(&mut self, x: f64, y: f64) {
        self.push_sample([x, y]);
    }
}

/// Streaming bivariate sink: one [`PairMoments`] per (gate pair, class).
pub type PairAccumulator = CoMomentAccumulator<2>;

/// All `i < j` pairs among `gates`, as gate-index pairs — the pair list of
/// an exhaustive sweep over a gate subset.
pub fn all_pairs(gates: &[GateId]) -> Vec<(u32, u32)> {
    all_gate_sets(gates, 2)
        .into_iter()
        .map(|s| (s[0], s[1]))
        .collect()
}

/// Runs a streaming bivariate sweep over `pairs` as one parallel campaign,
/// sorted by descending `|t|` — [`assess_gate_sets`] at order 2.
///
/// # Errors
///
/// Any [`MultivariateError`] from [`crate::validate_gate_sets`];
/// [`MultivariateError::Sim`] if the design cannot be levelized.
pub fn assess_pairs(
    netlist: &Netlist,
    model: &PowerModel,
    config: &CampaignConfig,
    parallelism: Parallelism,
    pairs: &[(u32, u32)],
) -> Result<Vec<(GateId, GateId, WelchResult)>, MultivariateError> {
    let sets: Vec<[u32; 2]> = pairs.iter().map(|&p| p.into()).collect();
    let rows = assess_gate_sets::<2, _>(netlist, model, config, parallelism, &sets)?;
    Ok(rows.into_iter().map(|([a, b], r)| (a, b, r)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comoments::co_moment_welch_t;
    use crate::moments::StreamingMoments;
    use polaris_sim::campaign::{EnergyBatch, MergeableSink, Population, TraceSink};

    fn pseudo_random(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 10.0 - 5.0
            })
            .collect()
    }

    /// Reference two-pass co-moments about the final means, in
    /// lexicographic order `C02, C11, C12, C20, C21, C22`.
    fn naive(xs: &[f64], ys: &[f64]) -> (f64, f64, [f64; 6]) {
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let c = |p: i32, q: i32| {
            xs.iter()
                .zip(ys)
                .map(|(&x, &y)| (x - mx).powi(p) * (y - my).powi(q))
                .sum::<f64>()
        };
        (
            mx,
            my,
            [c(0, 2), c(1, 1), c(1, 2), c(2, 0), c(2, 1), c(2, 2)],
        )
    }

    fn assert_close(a: f64, b: f64, tol: f64, what: &str) {
        let scale = 1.0_f64.max(a.abs()).max(b.abs());
        assert!((a - b).abs() <= tol * scale, "{what}: {a} vs {b}");
    }

    #[test]
    fn closed_form_small_vector() {
        // xs = ys = [1,2,3,4]: C02 = C11 = C20 = 5, C12 = C21 = 0
        // (symmetric), C22 = Σ(x−2.5)⁴ = 2·(1.5⁴ + 0.5⁴) = 10.25.
        let v = [1.0, 2.0, 3.0, 4.0];
        let mut m = PairMoments::new();
        m.extend_batch([&v, &v]);
        assert_eq!(m.count(), 4);
        let (_, c) = m.raw_parts();
        assert_eq!(m.means(), [2.5, 2.5]);
        for (i, want) in [5.0, 5.0, 0.0, 5.0, 0.0, 10.25].iter().enumerate() {
            assert!((c[2 + i] - want).abs() < 1e-12, "C[{i}] = {}", c[2 + i]);
        }
        // Anti-correlated pair: C11 flips sign, C22 unchanged.
        let mut a = PairMoments::new();
        a.extend_batch([&v, &[4.0, 3.0, 2.0, 1.0]]);
        let (_, ca) = a.raw_parts();
        assert!((ca[3] + 5.0).abs() < 1e-12, "C11 = {}", ca[3]);
        assert!((ca[7] - 10.25).abs() < 1e-12, "C22 = {}", ca[7]);
    }

    #[test]
    fn diagonal_matches_univariate_moments() {
        // On y = x the co-moments collapse onto the univariate central
        // moments: C02 = C11 = C20 = M2, C12 = C21 = M3, C22 = M4.
        let xs = pseudo_random(2000, 3);
        let mut pm = PairMoments::new();
        let mut sm = StreamingMoments::new();
        for &x in &xs {
            pm.push(x, x);
            sm.push(x);
        }
        let (_, m1, m2, m3, m4) = sm.raw_parts();
        let (_, c) = pm.raw_parts();
        assert_close(c[0], m1, 1e-12, "mean");
        for (i, m) in [m2, m2, m3, m2, m3, m4].iter().enumerate() {
            assert_close(c[2 + i], *m, 1e-9, "diagonal co-moment");
        }
    }

    #[test]
    fn streaming_matches_two_pass() {
        let xs = pseudo_random(5000, 42);
        let ys: Vec<f64> = pseudo_random(5000, 43)
            .iter()
            .zip(&xs)
            .map(|(a, b)| a + 0.3 * b)
            .collect();
        let mut m = PairMoments::new();
        m.extend_batch([&xs, &ys]);
        let (mx, my, c) = naive(&xs, &ys);
        assert_close(m.means()[0], mx, 1e-12, "mean_x");
        assert_close(m.means()[1], my, 1e-12, "mean_y");
        let (_, got) = m.raw_parts();
        for (i, want) in c.iter().enumerate() {
            assert_close(got[2 + i], *want, 1e-7, "co-moment");
        }
    }

    #[test]
    fn merge_matches_two_pass_at_any_split() {
        let xs = pseudo_random(3000, 7);
        let ys = pseudo_random(3000, 11);
        let (_, _, c_all) = naive(&xs, &ys);
        for split in [1usize, 17, 256, 1500, 2999] {
            let mut a = PairMoments::new();
            a.extend_batch([&xs[..split], &ys[..split]]);
            let mut b = PairMoments::new();
            b.extend_batch([&xs[split..], &ys[split..]]);
            a.merge(&b);
            assert_eq!(a.count(), 3000);
            let (_, got) = a.raw_parts();
            for (i, want) in c_all.iter().enumerate() {
                assert_close(got[2 + i], *want, 1e-7, "merged co-moment");
            }
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut m = PairMoments::new();
        m.extend_batch([&pseudo_random(100, 3), &pseudo_random(100, 4)]);
        let snapshot = m;
        m.merge(&PairMoments::new());
        assert_eq!(m, snapshot);
        let mut empty = PairMoments::new();
        empty.merge(&snapshot);
        assert_eq!(empty, snapshot);
    }

    #[test]
    fn extend_batch_is_bit_identical_to_sequential_push() {
        // Golden guarantee of the SoA hot path: the blocked update must
        // reproduce sequential push *exactly* (all raw fields, to the bit)
        // at every split — including resuming on top of scalar state. This
        // is what makes the lane width and batch cuts invisible.
        let xs = pseudo_random(4096, 99);
        let ys = pseudo_random(4096, 100);
        let mut scalar = PairMoments::new();
        for (&x, &y) in xs.iter().zip(&ys) {
            scalar.push(x, y);
        }
        let (n_a, c_a) = scalar.raw_parts();
        for split in [0usize, 1, 63, 64, 65, 1000, 4096] {
            let mut blocked = PairMoments::new();
            for (&x, &y) in xs[..split].iter().zip(&ys[..split]) {
                blocked.push(x, y);
            }
            blocked.extend_batch([&xs[split..], &ys[split..]]);
            let (n_b, c_b) = blocked.raw_parts();
            assert_eq!(n_a, n_b, "split {split}");
            for (i, (a, b)) in c_a.iter().zip(&c_b).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "split {split} field {i}");
            }
        }
    }

    #[test]
    fn raw_parts_round_trip_exactly() {
        let mut m = PairMoments::new();
        m.extend_batch([&pseudo_random(500, 1), &pseudo_random(500, 2)]);
        let (n, c) = m.raw_parts();
        assert_eq!(c.len(), PairMoments::RAW_LEN);
        assert_eq!(m, PairMoments::from_raw_parts(n, &c));
    }

    #[test]
    fn pair_welch_t_matches_naive_centered_products() {
        // The co-moment t must agree (to fp tolerance) with literally
        // centering on the class means and running Welch over the products.
        let f1 = pseudo_random(800, 21);
        let f2 = pseudo_random(800, 22);
        let r1: Vec<f64> = pseudo_random(900, 23).iter().map(|x| x + 0.2).collect();
        let r2 = pseudo_random(900, 24);
        let center = |e1: &[f64], e2: &[f64]| -> Vec<f64> {
            let n = e1.len() as f64;
            let m1 = e1.iter().sum::<f64>() / n;
            let m2 = e2.iter().sum::<f64>() / n;
            e1.iter()
                .zip(e2)
                .map(|(&a, &b)| (a - m1) * (b - m2))
                .collect()
        };
        let want = crate::welch::welch_t_slices(&center(&f1, &f2), &center(&r1, &r2));
        let mut qf = PairMoments::new();
        qf.extend_batch([&f1, &f2]);
        let mut qr = PairMoments::new();
        qr.extend_batch([&r1, &r2]);
        let got = co_moment_welch_t(&qf, &qr);
        assert_close(got.t, want.t, 1e-9, "t");
        assert_close(got.dof, want.dof, 1e-9, "dof");
    }

    #[test]
    fn pair_welch_t_degenerate_inputs() {
        let mut one = PairMoments::new();
        one.push(1.0, 2.0);
        let mut many = PairMoments::new();
        many.extend_batch([&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]]);
        let zero = WelchResult { t: 0.0, dof: 0.0 };
        assert_eq!(co_moment_welch_t(&one, &many), zero);
        // Constant products on both sides: se² = 0.
        let mut ca = PairMoments::new();
        ca.extend_batch([&[2.0, 2.0, 2.0], &[5.0, 5.0, 5.0]]);
        let mut cb = PairMoments::new();
        cb.extend_batch([&[1.0, 1.0], &[4.0, 4.0]]);
        assert_eq!(co_moment_welch_t(&ca, &cb), zero);
    }

    #[test]
    fn sink_reproduces_direct_accumulation() {
        // A PairAccumulator fed EnergyBatches must hold exactly the moments
        // of extending the pair rows directly.
        let gates = 3;
        let lanes = 4;
        let energies: Vec<f64> = pseudo_random(gates * lanes, 55);
        let batch = EnergyBatch::new(&energies, gates, lanes).unwrap();
        let track = [[0u32, 2], [1, 2]];
        let mut sink = PairAccumulator::new(&track);
        sink.record_batch(Population::Fixed, batch);
        sink.record_batch(Population::Random, batch);
        for (k, set) in track.iter().enumerate() {
            let mut want = PairMoments::new();
            want.extend_batch(set.map(|g| batch.gate_lanes(g as usize)));
            let (fixed, random) = sink.class_moments();
            assert_eq!(fixed[k], want);
            assert_eq!(random[k], want);
        }
    }

    #[test]
    fn sink_merge_has_empty_identity() {
        let mut a = PairAccumulator::new(&[[0u32, 1]]);
        let e = vec![1.0, 2.0, 3.0, 4.0];
        a.record_batch(Population::Fixed, EnergyBatch::new(&e, 2, 2).unwrap());
        let snapshot = a.clone();
        MergeableSink::merge(&mut a, PairAccumulator::default());
        assert_eq!(a, snapshot);
        let mut empty = PairAccumulator::default();
        MergeableSink::merge(&mut empty, snapshot.clone());
        assert_eq!(empty, snapshot);
    }

    #[test]
    fn independent_gates_show_no_bivariate_leakage() {
        // Two xors of independent fresh masks: no pair carries joint
        // data-dependence.
        let src = "
module m (a, b, m0, m1, y0, y1);
  input a, b;
  mask_input m0, m1;
  output y0, y1;
  xor g0 (y0, a, m0);
  xor g1 (y1, b, m1);
endmodule";
        let n = polaris_netlist::parse_netlist(src).unwrap();
        let cfg = CampaignConfig::new(3000, 3000, 5);
        let model = PowerModel::default().with_noise(0.05);
        let pairs = all_pairs(&n.cell_ids());
        let sweep = assess_pairs(&n, &model, &cfg, Parallelism::sequential(), &pairs).unwrap();
        let (_, _, r) = sweep[0];
        assert!(
            r.t.abs() < crate::TVLA_THRESHOLD,
            "independent masked gates must pass: |t| = {:.2}",
            r.t.abs()
        );
    }

    #[test]
    fn shared_mask_pair_leaks_bivariately() {
        // The classic 2nd-order situation: y0 = a ⊕ m, y1 = m. Neither gate
        // leaks first-order, but their joint statistics reveal `a`.
        let src = "
module m (a, m0, y0, y1);
  input a;
  mask_input m0;
  output y0, y1;
  xor g0 (y0, a, m0);
  buf g1 (y1, m0);
endmodule";
        let n = polaris_netlist::parse_netlist(src).unwrap();
        let cfg = CampaignConfig::new(4000, 4000, 7).with_fixed_vector(vec![true]);
        let model = PowerModel::default().with_noise(0.05);
        let cells = n.cell_ids();
        // First order: both clean.
        let first = crate::assess(&n, &model, &cfg).unwrap();
        for &c in &cells {
            assert!(
                first.abs_t(c) < crate::TVLA_THRESHOLD,
                "gate should be first-order clean: {:.2}",
                first.abs_t(c)
            );
        }
        // Second order: the pair leaks.
        let pairs = all_pairs(&cells);
        let sweep = assess_pairs(&n, &model, &cfg, Parallelism::sequential(), &pairs).unwrap();
        let (_, _, r) = sweep[0];
        assert!(
            r.t.abs() > crate::TVLA_THRESHOLD,
            "shared-mask pair must fail bivariate TVLA: |t| = {:.2}",
            r.t.abs()
        );
    }

    #[test]
    fn sweep_orders_by_magnitude() {
        let src = "
module m (a, m0, y0, y1, y2);
  input a;
  mask_input m0;
  output y0, y1, y2;
  xor g0 (y0, a, m0);
  buf g1 (y1, m0);
  not g2 (y2, m0);
endmodule";
        let n = polaris_netlist::parse_netlist(src).unwrap();
        let cfg = CampaignConfig::new(1500, 1500, 7).with_fixed_vector(vec![true]);
        let model = PowerModel::default().with_noise(0.05);
        let pairs = all_pairs(&n.cell_ids());
        let sweep = assess_pairs(&n, &model, &cfg, Parallelism::new(2), &pairs).unwrap();
        assert_eq!(sweep.len(), 3);
        for w in sweep.windows(2) {
            assert!(w[0].2.t.abs() >= w[1].2.t.abs());
        }
    }
}
