//! Trivariate (true third-order) TVLA: the order-3 instance of the
//! [`crate::comoments`] engine, under the triple-shaped names the sweeps,
//! benches and tests use.
//!
//! A 3-share masked implementation (ISW order 2, DOM) forces the adversary
//! to combine *three* probe points: the statistic is the product of three
//! class-centered samples, `y = (e₁ − μ₁)(e₂ − μ₂)(e₃ − μ₃)`, followed by
//! Welch's t-test between the fixed and random classes.

use polaris_netlist::{GateId, Netlist};
use polaris_sim::campaign::{CampaignConfig, Parallelism};
use polaris_sim::power::PowerModel;

use crate::comoments::{
    all_gate_sets, assess_gate_sets, CoMomentAccumulator, CoMoments, MultivariateError,
};
use crate::welch::WelchResult;

/// Trivariate central co-moments: `n`, the three means, and the 23
/// co-moments `C_pqr` with `p, q, r ≤ 2` and `p + q + r ≥ 2`, in
/// lexicographic order.
pub type TripleMoments = CoMoments<3>;

impl TripleMoments {
    /// Adds one joint sample `(x, y, z)`.
    #[inline]
    pub fn push(&mut self, x: f64, y: f64, z: f64) {
        self.push_sample([x, y, z]);
    }
}

/// Streaming trivariate sink: one [`TripleMoments`] per (gate triple,
/// class).
pub type TripleAccumulator = CoMomentAccumulator<3>;

impl TripleAccumulator {
    /// An accumulator tracking the given gate triples (indices into the
    /// design's gate list).
    pub fn for_triples(triples: Vec<(u32, u32, u32)>) -> Self {
        let sets: Vec<[u32; 3]> = triples.into_iter().map(Into::into).collect();
        Self::new(&sets)
    }

    /// Centered-triple-product Welch t per tracked triple, in recording
    /// order.
    pub fn results(&self) -> Vec<(GateId, GateId, GateId, WelchResult)> {
        self.rows()
            .into_iter()
            .map(|([a, b, c], r)| (a, b, c, r))
            .collect()
    }
}

/// All `i < j < k` triples among `gates`, as gate-index triples — the
/// triple list of an exhaustive third-order sweep over a gate subset.
/// Grows as `O(n³)`; sweep a shortlist (e.g. the leakiest cells), not a
/// whole ISCAS design.
pub fn all_triples(gates: &[GateId]) -> Vec<(u32, u32, u32)> {
    all_gate_sets(gates, 3)
        .into_iter()
        .map(|s| (s[0], s[1], s[2]))
        .collect()
}

/// Runs a streaming trivariate sweep over `triples` as one parallel
/// campaign, sorted by descending `|t|` — [`assess_gate_sets`] at order 3.
///
/// # Errors
///
/// Any [`MultivariateError`] from [`crate::validate_gate_sets`];
/// [`MultivariateError::Sim`] if the design cannot be levelized.
pub fn assess_triples(
    netlist: &Netlist,
    model: &PowerModel,
    config: &CampaignConfig,
    parallelism: Parallelism,
    triples: &[(u32, u32, u32)],
) -> Result<Vec<(GateId, GateId, GateId, WelchResult)>, MultivariateError> {
    let sets: Vec<[u32; 3]> = triples.iter().map(|&t| t.into()).collect();
    let rows = assess_gate_sets::<3, _>(netlist, model, config, parallelism, &sets)?;
    Ok(rows
        .into_iter()
        .map(|([a, b, c], r)| (a, b, c, r))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comoments::{co_moment_welch_t, validate_gate_sets};
    use crate::moments::StreamingMoments;
    use polaris_sim::campaign::{
        EnergyBatch, MergeableSink, Population, TraceSink, TRACES_PER_SHARD,
    };

    /// The 23 tracked multi-indices `(p, q, r)` in lexicographic order.
    fn moment_triples() -> Vec<(usize, usize, usize)> {
        let all = (0..27).map(|c| (c / 9, c / 3 % 3, c % 3));
        all.filter(|(p, q, r)| p + q + r >= 2).collect()
    }

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
    /// lexicographic order.
    fn naive(xs: &[f64], ys: &[f64], zs: &[f64]) -> ([f64; 3], [f64; 23]) {
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let mz = zs.iter().sum::<f64>() / n;
        let mut c = [0.0f64; 23];
        for (slot, (p, q, r)) in moment_triples().into_iter().enumerate() {
            c[slot] = xs
                .iter()
                .zip(ys)
                .zip(zs)
                .map(|((&x, &y), &z)| {
                    (x - mx).powi(p as i32) * (y - my).powi(q as i32) * (z - mz).powi(r as i32)
                })
                .sum::<f64>();
        }
        ([mx, my, mz], c)
    }

    fn assert_close(a: f64, b: f64, tol: f64, what: &str) {
        let scale = 1.0_f64.max(a.abs()).max(b.abs());
        assert!((a - b).abs() <= tol * scale, "{what}: {a} vs {b}");
    }

    #[test]
    fn closed_form_small_vector() {
        // xs = ys = zs = [1,2,3,4]: every co-moment collapses to the
        // univariate power sum Σ(x − 2.5)^|α|, so e.g. C₁₁₁ = Σ(x−2.5)³ = 0
        // (symmetric), C₂₂₀ = Σ(x−2.5)⁴ = 10.25, and
        // C₂₂₂ = Σ(x−2.5)⁶ = 2·(1.5⁶ + 0.5⁶) = 22.8125.
        let v = [1.0, 2.0, 3.0, 4.0];
        let mut m = TripleMoments::new();
        m.extend_batch([&v, &v, &v]);
        assert_eq!(m.count(), 4);
        let (_, c) = m.raw_parts();
        for mean in m.means() {
            assert!((mean - 2.5).abs() < 1e-15);
        }
        let powers: Vec<f64> = (0..=6)
            .map(|k| v.iter().map(|x| (x - 2.5_f64).powi(k)).sum())
            .collect();
        for (slot, (p, q, r)) in moment_triples().into_iter().enumerate() {
            let want = powers[p + q + r];
            assert!(
                (c[3 + slot] - want).abs() < 1e-11,
                "C{p}{q}{r} = {} want {want}",
                c[3 + slot]
            );
        }
    }

    #[test]
    fn diagonal_matches_univariate_moments() {
        // On x = y = z the co-moments collapse onto univariate central
        // moments: every |α| = 2 entry is M2, |α| = 3 is M3, |α| = 4 is M4.
        let xs = pseudo_random(2000, 3);
        let mut tm = TripleMoments::new();
        let mut sm = StreamingMoments::new();
        for &x in &xs {
            tm.push(x, x, x);
            sm.push(x);
        }
        let (_, m1, m2, m3, m4) = sm.raw_parts();
        let (_, c) = tm.raw_parts();
        for mean in tm.means() {
            assert_close(mean, m1, 1e-12, "mean");
        }
        for (slot, (p, q, r)) in moment_triples().into_iter().enumerate() {
            let want = match p + q + r {
                2 => m2,
                3 => m3,
                4 => m4,
                _ => continue,
            };
            assert_close(c[3 + slot], want, 1e-8, "diagonal co-moment");
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
        let zs: Vec<f64> = pseudo_random(5000, 44)
            .iter()
            .zip(&ys)
            .map(|(a, b)| a - 0.2 * b)
            .collect();
        let mut m = TripleMoments::new();
        m.extend_batch([&xs, &ys, &zs]);
        let (means, c) = naive(&xs, &ys, &zs);
        let (_, got) = m.raw_parts();
        for (i, want) in means.iter().enumerate() {
            assert_close(got[i], *want, 1e-12, "mean");
        }
        for (i, want) in c.iter().enumerate() {
            assert_close(got[3 + i], *want, 1e-6, "co-moment");
        }
    }

    #[test]
    fn merge_matches_two_pass_at_any_split() {
        let xs = pseudo_random(3000, 7);
        let ys = pseudo_random(3000, 11);
        let zs = pseudo_random(3000, 13);
        let (_, c_all) = naive(&xs, &ys, &zs);
        for split in [1usize, 17, 256, 1500, 2999] {
            let mut a = TripleMoments::new();
            a.extend_batch([&xs[..split], &ys[..split], &zs[..split]]);
            let mut b = TripleMoments::new();
            b.extend_batch([&xs[split..], &ys[split..], &zs[split..]]);
            a.merge(&b);
            assert_eq!(a.count(), 3000);
            let (_, got) = a.raw_parts();
            for (i, want) in c_all.iter().enumerate() {
                assert_close(got[3 + i], *want, 1e-6, "merged co-moment");
            }
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut m = TripleMoments::new();
        m.extend_batch([
            &pseudo_random(100, 3),
            &pseudo_random(100, 4),
            &pseudo_random(100, 5),
        ]);
        let snapshot = m;
        m.merge(&TripleMoments::new());
        assert_eq!(m, snapshot);
        let mut empty = TripleMoments::new();
        empty.merge(&snapshot);
        assert_eq!(empty, snapshot);
    }

    #[test]
    fn extend_batch_is_bit_identical_to_sequential_push() {
        // Golden guarantee of the SoA entry point: the batch update must
        // reproduce sequential push exactly (all raw fields, to the bit) at
        // every split — including resuming on top of existing state.
        let xs = pseudo_random(4096, 99);
        let ys = pseudo_random(4096, 100);
        let zs = pseudo_random(4096, 101);
        let mut scalar = TripleMoments::new();
        for ((&x, &y), &z) in xs.iter().zip(&ys).zip(&zs) {
            scalar.push(x, y, z);
        }
        let (n_a, c_a) = scalar.raw_parts();
        for split in [0usize, 1, 63, 64, 65, 1000, 4096] {
            let mut blocked = TripleMoments::new();
            for ((&x, &y), &z) in xs[..split].iter().zip(&ys[..split]).zip(&zs[..split]) {
                blocked.push(x, y, z);
            }
            blocked.extend_batch([&xs[split..], &ys[split..], &zs[split..]]);
            let (n_b, c_b) = blocked.raw_parts();
            assert_eq!(n_a, n_b, "split {split}");
            for (i, (a, b)) in c_a.iter().zip(&c_b).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "split {split} field {i}");
            }
        }
    }

    /// Pins the absolute bits of the trivariate co-moment state after a fixed
    /// schedule of pushes and merges (uneven side sizes, large offsets from
    /// zero, an empty side, a singleton side). A kernel restructure must
    /// reproduce this digest exactly; a deliberate change of the arithmetic
    /// re-pins it and is recorded as such.
    #[test]
    fn push_merge_bits_are_pinned() {
        let fnv = |h: u64, word: u64| {
            word.to_le_bytes().iter().fold(h, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let xs = pseudo_random(600, 71);
        let ys = pseudo_random(600, 72);
        let zs = pseudo_random(600, 73);
        let mut sides = Vec::new();
        let mut start = 0;
        for (k, len) in [1usize, 37, 0, 128, 5, 256, 173].into_iter().enumerate() {
            let offset = [0.0, 1e2, -3.5, 42.0, -1e2, 7.25, 0.5][k];
            let mut m = TripleMoments::new();
            for i in start..start + len {
                m.push(xs[i] + offset, ys[i] - offset, zs[i] * 3.0 + offset);
            }
            start += len;
            sides.push(m);
        }
        // Fold pairwise in a fixed tree: ((0 1) (2 3)) ((4 5) 6).
        let mut left = sides[0];
        left.merge(&sides[1]);
        let mut mid = sides[2];
        mid.merge(&sides[3]);
        left.merge(&mid);
        let mut right = sides[4];
        right.merge(&sides[5]);
        right.merge(&sides[6]);
        left.merge(&right);
        left.push(1e2, -1e2, 0.0);
        let (n, words) = left.raw_parts();
        assert_eq!(n, 601);
        let digest = words
            .into_iter()
            .fold(fnv(0xcbf2_9ce4_8422_2325, n), |h, w| fnv(h, w.to_bits()));
        assert_eq!(digest, 0xf23c_e9ea_9648_661e, "digest {digest:#018x}");
    }

    #[test]
    fn raw_parts_round_trip_exactly() {
        let mut m = TripleMoments::new();
        m.extend_batch([
            &pseudo_random(500, 1),
            &pseudo_random(500, 2),
            &pseudo_random(500, 3),
        ]);
        let (n, c) = m.raw_parts();
        assert_eq!(c.len(), TripleMoments::RAW_LEN);
        let restored = TripleMoments::from_raw_parts(n, &c);
        assert_eq!(m, restored);
    }

    #[test]
    fn triple_welch_t_matches_naive_centered_products() {
        // The co-moment t must agree (to fp tolerance) with literally
        // centering on the class means and running Welch over the triple
        // products.
        let f = [
            pseudo_random(800, 21),
            pseudo_random(800, 22),
            pseudo_random(800, 25),
        ];
        let r = [
            pseudo_random(900, 23)
                .iter()
                .map(|x| x + 0.2)
                .collect::<Vec<f64>>(),
            pseudo_random(900, 24),
            pseudo_random(900, 26),
        ];
        let center = |e: &[Vec<f64>]| -> Vec<f64> {
            let n = e[0].len() as f64;
            let m: Vec<f64> = e.iter().map(|v| v.iter().sum::<f64>() / n).collect();
            (0..e[0].len())
                .map(|i| (e[0][i] - m[0]) * (e[1][i] - m[1]) * (e[2][i] - m[2]))
                .collect()
        };
        let want = crate::welch::welch_t_slices(&center(&f), &center(&r));
        let mut qf = TripleMoments::new();
        qf.extend_batch([&f[0], &f[1], &f[2]]);
        let mut qr = TripleMoments::new();
        qr.extend_batch([&r[0], &r[1], &r[2]]);
        let got = co_moment_welch_t(&qf, &qr);
        assert_close(got.t, want.t, 1e-9, "t");
        assert_close(got.dof, want.dof, 1e-9, "dof");
    }

    #[test]
    fn triple_welch_t_degenerate_inputs() {
        let mut one = TripleMoments::new();
        one.push(1.0, 2.0, 3.0);
        let mut many = TripleMoments::new();
        many.extend_batch([&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0], &[2.0, 1.0, 3.0]]);
        assert_eq!(
            co_moment_welch_t(&one, &many),
            WelchResult { t: 0.0, dof: 0.0 }
        );
        // Constant products on both sides: se² = 0.
        let mut ca = TripleMoments::new();
        ca.extend_batch([&[2.0, 2.0, 2.0], &[5.0, 5.0, 5.0], &[1.0, 1.0, 1.0]]);
        let mut cb = TripleMoments::new();
        cb.extend_batch([&[1.0, 1.0], &[4.0, 4.0], &[2.0, 2.0]]);
        assert_eq!(
            co_moment_welch_t(&ca, &cb),
            WelchResult { t: 0.0, dof: 0.0 }
        );
    }

    #[test]
    fn validation_rejects_degenerate_lists() {
        assert!(validate_gate_sets(3, &[[0u32, 1, 2]], 3).is_ok());
        assert_eq!(
            validate_gate_sets(3, &[[0u32, 1, 9]], 3).unwrap_err(),
            MultivariateError::GateOutOfRange { gate: 9, gates: 3 }
        );
        assert_eq!(
            validate_gate_sets(3, &[[1u32, 1, 2]], 3).unwrap_err(),
            MultivariateError::RepeatedGate { gate: 1 }
        );
        assert_eq!(
            validate_gate_sets(3, &[[0u32, 2, 2]], 3).unwrap_err(),
            MultivariateError::RepeatedGate { gate: 2 }
        );
        // Duplicates are order-insensitive.
        assert_eq!(
            validate_gate_sets(3, &[[0u32, 1, 2], [2, 0, 1]], 3).unwrap_err(),
            MultivariateError::DuplicateEntry { index: 1 }
        );
        // Errors render.
        assert!(validate_gate_sets(3, &[[1u32, 1, 2]], 3)
            .unwrap_err()
            .to_string()
            .contains("repeats"));
        assert!(validate_gate_sets(3, &[[0u32, 1, 2], [2, 1, 0]], 3)
            .unwrap_err()
            .to_string()
            .contains("duplicates"));
    }

    #[test]
    fn all_triples_enumerates_ordered_combinations() {
        let gates: Vec<GateId> = (0..5).map(GateId::new).collect();
        let triples = all_triples(&gates);
        assert_eq!(triples.len(), 10); // C(5, 3)
        assert!(validate_gate_sets(3, &all_gate_sets(&gates, 3), 5).is_ok());
        assert_eq!(triples[0], (0, 1, 2));
        assert_eq!(triples[9], (2, 3, 4));
        assert!(all_triples(&gates[..2]).is_empty());
    }

    #[test]
    fn sink_reproduces_direct_accumulation() {
        // A TripleAccumulator fed EnergyBatches must hold exactly the
        // moments of extending the triple rows directly.
        let gates = 4;
        let lanes = 4;
        let energies: Vec<f64> = pseudo_random(gates * lanes, 55);
        let batch = EnergyBatch::new(&energies, gates, lanes).unwrap();
        let track = [(0u32, 1u32, 2u32), (1, 2, 3)];
        let mut sink = TripleAccumulator::for_triples(track.to_vec());
        sink.record_batch(Population::Fixed, batch);
        sink.record_batch(Population::Random, batch);
        for (k, &(a, b, c)) in track.iter().enumerate() {
            let mut want = TripleMoments::new();
            want.extend_batch([a, b, c].map(|g| batch.gate_lanes(g as usize)));
            let (fixed, random) = sink.class_moments();
            assert_eq!(fixed[k], want);
            assert_eq!(random[k], want);
        }
    }

    #[test]
    fn sink_merge_has_empty_identity() {
        let mut a = TripleAccumulator::for_triples(vec![(0, 1, 2)]);
        let e = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        a.record_batch(Population::Fixed, EnergyBatch::new(&e, 3, 2).unwrap());
        let snapshot = a.clone();
        MergeableSink::merge(&mut a, TripleAccumulator::default());
        assert_eq!(a, snapshot);
        let mut empty = TripleAccumulator::default();
        MergeableSink::merge(&mut empty, snapshot.clone());
        assert_eq!(empty, snapshot);
    }

    #[test]
    fn streaming_sweep_matches_dense_chunked_fold() {
        // assess_triples must equal folding densely collected samples
        // through the same computation DAG (shard-sized chunks, merged left
        // to right) bit for bit — the same contract the pair engine pins.
        let src = "
module m (a, y0, y1, y2);
  input a;
  mask_input m0, m1;
  output y0, y1, y2;
  xor g0 (t0, a, m0);
  xor g1 (y0, t0, m1);
  buf g2 (y1, m0);
  buf g3 (y2, m1);
endmodule";
        let n = polaris_netlist::parse_netlist(src).unwrap();
        let cfg = CampaignConfig::new(700, 700, 9).with_fixed_vector(vec![true]);
        let model = PowerModel::default().with_noise(0.05);
        let triples = all_triples(&n.cell_ids());
        let streaming = assess_triples(&n, &model, &cfg, Parallelism::new(4), &triples).unwrap();
        let samples = polaris_sim::campaign::collect_gate_samples(&n, &model, &cfg).unwrap();
        let fold = |xs: &[f64], ys: &[f64], zs: &[f64]| -> TripleMoments {
            let mut acc = TripleMoments::new();
            for ((cx, cy), cz) in xs
                .chunks(TRACES_PER_SHARD)
                .zip(ys.chunks(TRACES_PER_SHARD))
                .zip(zs.chunks(TRACES_PER_SHARD))
            {
                let mut m = TripleMoments::new();
                m.extend_batch([cx, cy, cz]);
                acc.merge(&m);
            }
            acc
        };
        for &(a, b, c) in &triples {
            let (ga, gb, gc) = (
                GateId::new(a as usize),
                GateId::new(b as usize),
                GateId::new(c as usize),
            );
            let fixed = fold(samples.fixed(ga), samples.fixed(gb), samples.fixed(gc));
            let random = fold(samples.random(ga), samples.random(gb), samples.random(gc));
            let want = co_moment_welch_t(&fixed, &random);
            let (_, _, _, got) = streaming
                .iter()
                .find(|(x, y, z, _)| (*x, *y, *z) == (ga, gb, gc))
                .unwrap();
            assert_eq!(got.t.to_bits(), want.t.to_bits());
            assert_eq!(got.dof.to_bits(), want.dof.to_bits());
        }
    }

    #[test]
    fn three_share_design_leaks_only_at_third_order() {
        // The minimal 3-share sharing: y0 = a ⊕ m0 ⊕ m1, y1 = m0, y2 = m1.
        // Each share is uniform and any *two* are jointly independent of
        // `a`, so orders 1 and 2 pass on the share gates; only the triple
        // recombines the secret. This is the repo's first positive
        // higher-order detection.
        let src = "
module m (a, y0, y1, y2);
  input a;
  mask_input m0, m1;
  output y0, y1, y2;
  xor g0 (t0, a, m0);
  xor g1 (y0, t0, m1);
  buf g2 (y1, m0);
  buf g3 (y2, m1);
endmodule";
        let n = polaris_netlist::parse_netlist(src).unwrap();
        let cfg = CampaignConfig::new(3000, 3000, 7).with_fixed_vector(vec![true]);
        let model = PowerModel::default().with_noise(0.05);
        let cells = n.cell_ids();
        // The share gates: y0 (g1), y1 (g2), y2 (g3) — gate t0 is the
        // classic first-order-masked intermediate and is excluded, exactly
        // like a masked core's entry gates in the workspace tests.
        let shares = [cells[1], cells[2], cells[3]];
        let first = crate::assess(&n, &model, &cfg).unwrap();
        for &g in &shares {
            assert!(
                first.abs_t(g) < crate::TVLA_THRESHOLD,
                "share gate must be first-order clean: {:.2}",
                first.abs_t(g)
            );
        }
        let pairs = crate::all_pairs(&shares);
        for (a, b, r) in crate::assess_pairs(&n, &model, &cfg, Parallelism::new(2), &pairs).unwrap()
        {
            assert!(
                r.t.abs() < crate::TVLA_THRESHOLD,
                "share pair ({a:?}, {b:?}) must be second-order clean: |t| = {:.2}",
                r.t.abs()
            );
        }
        let sweep =
            assess_triples(&n, &model, &cfg, Parallelism::new(2), &all_triples(&shares)).unwrap();
        let (_, _, _, r) = &sweep[0];
        assert!(
            r.t.abs() > crate::TVLA_THRESHOLD,
            "share triple must fail trivariate TVLA: |t| = {:.2}",
            r.t.abs()
        );
    }
}
