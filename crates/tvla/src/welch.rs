//! Welch's unequal-variance t-test (paper Eq. 1).

use crate::moments::StreamingMoments;
use crate::special::student_t_two_sided_p;

/// Result of a Welch t-test between two sample populations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WelchResult {
    /// The t-statistic `((μ0 − μ1) / √(s0²/n0 + s1²/n1))`.
    pub t: f64,
    /// Welch–Satterthwaite degrees of freedom.
    pub dof: f64,
}

impl WelchResult {
    /// Two-sided p-value under the Student-t null distribution.
    ///
    /// Returns 1.0 when the degrees of freedom are degenerate (too few
    /// samples to test).
    pub fn p_value(&self) -> f64 {
        if self.dof <= 0.0 || !self.t.is_finite() {
            return 1.0;
        }
        student_t_two_sided_p(self.t, self.dof)
    }

    /// True if `|t|` exceeds the given threshold (TVLA uses 4.5).
    pub fn is_leaky(&self, threshold: f64) -> bool {
        self.t.abs() > threshold
    }

    /// Sequential-analysis resolution of this gate's verdict at a checkpoint
    /// with confidence margin `margin` (a z boundary from
    /// [`crate::special::sequential_boundary`]):
    ///
    /// * `Some(true)` — `|t|` exceeds `threshold`: the gate fails TVLA at
    ///   the current trace count (a crossing at any look is a valid leak
    ///   verdict, so no margin is required on this side);
    /// * `Some(false)` — the margin-wide confidence interval around `|t|`
    ///   lies entirely below `threshold` (`|t| + margin ≤ threshold`): the
    ///   gate is confidently clean at this look;
    /// * `None` — undecided; more traces are needed.
    pub fn resolution(&self, threshold: f64, margin: f64) -> Option<bool> {
        let abs_t = self.t.abs();
        if abs_t > threshold {
            Some(true)
        } else if abs_t + margin <= threshold {
            Some(false)
        } else {
            None
        }
    }
}

/// Computes Welch's t-statistic and degrees of freedom from two accumulated
/// populations (paper Eq. 1).
///
/// Degenerate inputs (fewer than 2 samples on a side, or both variances
/// zero) yield `t = 0, dof = 0` — "no evidence of leakage" rather than an
/// error, matching how leakage assessments treat dead gates.
pub fn welch_t(q0: &StreamingMoments, q1: &StreamingMoments) -> WelchResult {
    let n0 = q0.count() as f64;
    let n1 = q1.count() as f64;
    if q0.count() < 2 || q1.count() < 2 {
        return WelchResult { t: 0.0, dof: 0.0 };
    }
    let v0 = q0.sample_variance();
    let v1 = q1.sample_variance();
    let se2 = v0 / n0 + v1 / n1;
    if se2 <= 0.0 {
        return WelchResult { t: 0.0, dof: 0.0 };
    }
    let t = (q0.mean() - q1.mean()) / se2.sqrt();
    let denom = (v0 / n0).powi(2) / (n0 - 1.0) + (v1 / n1).powi(2) / (n1 - 1.0);
    let dof = if denom > 0.0 { se2 * se2 / denom } else { 0.0 };
    WelchResult { t, dof }
}

/// Welch's t-test directly over sample slices (convenience for tests and
/// small analyses; the streaming path is [`welch_t`]).
pub fn welch_t_slices(q0: &[f64], q1: &[f64]) -> WelchResult {
    let mut m0 = StreamingMoments::new();
    m0.extend_batch(q0);
    let mut m1 = StreamingMoments::new();
    m1.extend_batch(q1);
    welch_t(&m0, &m1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn textbook_welch_example() {
        // Classic example (NIST-style): two small samples.
        let a = [
            27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6, 23.1, 19.6, 19.0, 21.7,
            21.4,
        ];
        let b = [
            27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2, 21.9, 22.1, 22.9, 30.3,
            23.8,
        ];
        let r = welch_t_slices(&a, &b);
        // Independently computed (two-pass formulas):
        // t = -2.821665, dof = 27.81897, two-sided p = 0.0087177.
        assert!((r.t - (-2.8216651667585237)).abs() < 1e-9, "t = {}", r.t);
        assert!((r.dof - 27.818966038567552).abs() < 1e-6, "dof = {}", r.dof);
        let p = r.p_value();
        assert!((p - 0.008717728775).abs() < 1e-9, "p = {p}");
    }

    #[test]
    fn hand_computed_small_vectors() {
        // a = [1..5]: mean 3, s² = 2.5, n = 5  →  s²/n = 1/2
        // b = [2,4,6]: mean 4, s² = 4,  n = 3  →  s²/n = 4/3
        // se² = 1/2 + 4/3 = 11/6
        // t   = (3 − 4) / √(11/6)                       = −0.738548945875996
        // dof = (11/6)² / ((1/2)²/4 + (4/3)²/2)         =  3.532846715328467
        let r = welch_t_slices(&[1.0, 2.0, 3.0, 4.0, 5.0], &[2.0, 4.0, 6.0]);
        assert!((r.t - (-0.738548945875996)).abs() < 1e-12, "t = {}", r.t);
        assert!((r.dof - 3.532846715328467).abs() < 1e-12, "dof = {}", r.dof);
        assert!(!r.is_leaky(4.5));
    }

    #[test]
    fn hand_computed_equal_variance_case() {
        // a = [0,2], b = [10,12]: both s² = 2, n = 2 → se² = 2, t = −10/√2.
        // dof = 4 / (1 + 1) = 2 (Welch reduces to the pooled dof here).
        let r = welch_t_slices(&[0.0, 2.0], &[10.0, 12.0]);
        assert!(
            (r.t - (-10.0 / 2.0_f64.sqrt())).abs() < 1e-12,
            "t = {}",
            r.t
        );
        assert!((r.dof - 2.0).abs() < 1e-12, "dof = {}", r.dof);
        assert!(r.is_leaky(4.5));
    }

    #[test]
    fn identical_populations_give_zero_t() {
        let xs: Vec<f64> = (0..100).map(|i| (i % 7) as f64).collect();
        let r = welch_t_slices(&xs, &xs);
        assert!(r.t.abs() < 1e-12);
        assert!(!r.is_leaky(4.5));
    }

    #[test]
    fn shifted_population_detected() {
        let a: Vec<f64> = (0..2000).map(|i| (i % 10) as f64).collect();
        let b: Vec<f64> = a.iter().map(|x| x + 1.0).collect();
        let r = welch_t_slices(&a, &b);
        assert!(r.is_leaky(4.5), "t = {}", r.t);
        assert!(r.t < 0.0, "a < b means negative t");
        assert!(r.p_value() < 1e-5);
    }

    #[test]
    fn degenerate_inputs_do_not_blow_up() {
        assert_eq!(welch_t_slices(&[], &[1.0, 2.0]).t, 0.0);
        assert_eq!(welch_t_slices(&[1.0], &[1.0, 2.0]).t, 0.0);
        let constant = welch_t_slices(&[2.0, 2.0, 2.0], &[2.0, 2.0, 2.0]);
        assert_eq!(constant.t, 0.0);
        assert_eq!(constant.p_value(), 1.0);
    }

    #[test]
    fn dof_between_min_and_sum() {
        // Welch dof lies in [min(n0,n1)-1, n0+n1-2].
        let a: Vec<f64> = (0..30).map(|i| (i as f64).sin() * 3.0).collect();
        let b: Vec<f64> = (0..50).map(|i| (i as f64).cos() * 0.5 + 2.0).collect();
        let r = welch_t_slices(&a, &b);
        assert!(r.dof >= 29.0_f64.min(49.0) - 1.0);
        assert!(r.dof <= (30 + 50 - 2) as f64);
    }

    #[test]
    fn resolution_partitions_the_t_axis() {
        let mk = |t: f64| WelchResult { t, dof: 100.0 };
        // Above threshold: leaky regardless of margin.
        assert_eq!(mk(5.0).resolution(4.5, 2.0), Some(true));
        assert_eq!(mk(-6.0).resolution(4.5, f64::INFINITY), Some(true));
        // Confidently clean: |t| + margin within the threshold.
        assert_eq!(mk(1.0).resolution(4.5, 2.0), Some(false));
        assert_eq!(mk(-2.5).resolution(4.5, 2.0), Some(false));
        // Undecided band.
        assert_eq!(mk(3.0).resolution(4.5, 2.0), None);
        assert_eq!(mk(4.4).resolution(4.5, 0.5), None);
        // Infinite margin (underflowed spending) never resolves clean.
        assert_eq!(mk(0.0).resolution(4.5, f64::INFINITY), None);
    }

    #[test]
    fn symmetry_in_sign() {
        let a: Vec<f64> = (0..500).map(|i| (i % 13) as f64).collect();
        let b: Vec<f64> = (0..500).map(|i| (i % 13) as f64 + 0.5).collect();
        let r1 = welch_t_slices(&a, &b);
        let r2 = welch_t_slices(&b, &a);
        assert!((r1.t + r2.t).abs() < 1e-12);
        assert!((r1.dof - r2.dof).abs() < 1e-9);
    }
}
