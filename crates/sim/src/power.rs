//! Switching-activity power model.
//!
//! Dynamic power of a CMOS cell is `½ · C · V² · f · α`; at fixed voltage and
//! frequency the per-gate, per-cycle energy is proportional to the cell's
//! switched capacitance times its toggle activity. The model therefore
//! assigns each [`GateKind`] a relative capacitance weight and adds zero-mean
//! Gaussian measurement noise, the standard gate-level leakage-simulation
//! setup used by TVLA-based EDA flows (CASCADE, Karna, VALIANT).

use polaris_netlist::GateKind;
use rand::Rng;

/// Per-kind capacitance weights plus measurement-noise level.
#[derive(Clone, Debug, PartialEq)]
pub struct PowerModel {
    /// Relative switched capacitance per gate kind, indexed by
    /// [`GateKind::ordinal`].
    cap: [f64; GateKind::ALL.len()],
    /// Standard deviation of the additive Gaussian measurement noise applied
    /// to each per-gate energy sample.
    noise_sigma: f64,
}

impl PowerModel {
    /// Builds a model with explicit weights.
    ///
    /// # Panics
    ///
    /// Panics if any weight is negative or `noise_sigma < 0`.
    pub fn new(cap: [f64; GateKind::ALL.len()], noise_sigma: f64) -> Self {
        assert!(cap.iter().all(|&c| c >= 0.0), "negative capacitance");
        assert!(noise_sigma >= 0.0, "negative noise sigma");
        PowerModel { cap, noise_sigma }
    }

    /// Default 45 nm-flavoured relative weights: inverters cheapest, XOR-class
    /// and sequential cells the most capacitive.
    pub fn default_cmos() -> Self {
        let mut cap = [0.0; GateKind::ALL.len()];
        cap[GateKind::Input.ordinal()] = 0.0; // pads are outside the power rail
        cap[GateKind::Const0.ordinal()] = 0.0;
        cap[GateKind::Const1.ordinal()] = 0.0;
        cap[GateKind::Buf.ordinal()] = 0.9;
        cap[GateKind::Not.ordinal()] = 0.6;
        cap[GateKind::And.ordinal()] = 1.4;
        cap[GateKind::Or.ordinal()] = 1.4;
        cap[GateKind::Nand.ordinal()] = 1.0;
        cap[GateKind::Nor.ordinal()] = 1.1;
        cap[GateKind::Xor.ordinal()] = 2.1;
        cap[GateKind::Xnor.ordinal()] = 2.2;
        cap[GateKind::Mux.ordinal()] = 2.4;
        cap[GateKind::Dff.ordinal()] = 3.6;
        PowerModel {
            cap,
            noise_sigma: 0.35,
        }
    }

    /// Capacitance weight for a gate kind.
    pub fn cap(&self, kind: GateKind) -> f64 {
        self.cap[kind.ordinal()]
    }

    /// Measurement noise standard deviation.
    pub fn noise_sigma(&self) -> f64 {
        self.noise_sigma
    }

    /// Returns a copy with a different noise level.
    ///
    /// # Panics
    ///
    /// Panics if `sigma < 0`.
    pub fn with_noise(mut self, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "negative noise sigma");
        self.noise_sigma = sigma;
        self
    }

    /// Energy of `toggles` transitions on a cell of `kind`, before noise.
    pub fn energy(&self, kind: GateKind, toggles: u32) -> f64 {
        self.cap(kind) * f64::from(toggles)
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel::default_cmos()
    }
}

/// Draws one standard-normal sample via the Box–Muller transform.
///
/// `rand` offers only uniform sources offline, so the Gaussian is derived
/// here; two uniforms in `(0, 1]` map to one normal deviate.
pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by shifting the uniform into (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// `2^52`: adding it to a float in `[0, 2^52)` rounds to an integer held in
/// the low mantissa bits, and a `u64 < 2^52` OR-ed into its mantissa reads
/// back exactly as `2^52 + u64`. Both tricks replace int↔float conversions
/// with float ops the compiler can vectorize, and both are exact.
const TWO_52: f64 = 4_503_599_627_370_496.0;

/// Natural log for `x ∈ (0, 1]` as a branchless polynomial.
///
/// Exponent/mantissa split, mantissa reduced into `[√2/2, √2)`, then the
/// atanh series `ln m = 2t(1 + t²/3 + t⁴/5 + …)` on `t = (m−1)/(m+1)`
/// (7 terms, |t| < 0.1716 so the truncation error is below 4 × 10⁻¹⁴
/// relative). Every operation is an IEEE-754-exact add/mul/div or a bit
/// manipulation, so the result is bit-identical on every platform — the
/// property the campaign engine's cross-host determinism rests on, which
/// `libm`'s `ln` (allowed to differ by a ulp between implementations) does
/// not give.
#[inline]
fn ln_unit(x: f64) -> f64 {
    const LN2: f64 = std::f64::consts::LN_2;
    const SQRT2: f64 = std::f64::consts::SQRT_2;
    let bits = x.to_bits();
    // Biased exponent field as an exact float (`x > 0`: the sign bit is 0).
    let biased = f64::from_bits(TWO_52.to_bits() | (bits >> 52)) - TWO_52;
    let m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | 0x3ff0_0000_0000_0000);
    let big = m > SQRT2;
    let m = if big { 0.5 * m } else { m };
    let e = (biased - 1023.0) + if big { 1.0 } else { 0.0 };
    let t = (m - 1.0) / (m + 1.0);
    let s = t * t;
    let p = 1.0 / 13.0 + s * (1.0 / 15.0);
    let p = 1.0 / 11.0 + s * p;
    let p = 1.0 / 9.0 + s * p;
    let p = 1.0 / 7.0 + s * p;
    let p = 1.0 / 5.0 + s * p;
    let p = 1.0 / 3.0 + s * p;
    let p = 1.0 + s * p;
    e * LN2 + 2.0 * t * p
}

/// `cos(2πu)` for `u ∈ [0, 1)` as a branchless polynomial.
///
/// Quadrant reduction `k = ⌊4u + ½⌋` maps the argument onto
/// `[−π/4, π/4]`, where a degree-12 cosine / degree-11 sine Taylor
/// expansion is accurate to 7 × 10⁻¹² absolute; the quadrant selects
/// between the two and fixes the sign. IEEE-exact ops only (see
/// [`ln_unit`]), so bit-stable across platforms.
#[inline]
fn cos_tau(u: f64) -> f64 {
    const FRAC_PI_2: f64 = std::f64::consts::FRAC_PI_2;
    let x = 4.0 * u;
    // ⌊x + ½⌋ in float: round to nearest through 2^52, then step down
    // where that rounded up.
    let y = x + 0.5;
    let nearest = (y + TWO_52) - TWO_52;
    let k = if nearest > y { nearest - 1.0 } else { nearest };
    let r = x - k;
    let th = r * FRAC_PI_2;
    let z = th * th;
    let c = {
        let p = 1.0 / 479_001_600.0;
        let p = -(1.0 / 3_628_800.0) + z * p;
        let p = 1.0 / 40_320.0 + z * p;
        let p = -(1.0 / 720.0) + z * p;
        let p = 1.0 / 24.0 + z * p;
        let p = -0.5 + z * p;
        1.0 + z * p
    };
    let s = {
        let p = -(1.0 / 39_916_800.0);
        let p = 1.0 / 362_880.0 + z * p;
        let p = -(1.0 / 5_040.0) + z * p;
        let p = 1.0 / 120.0 + z * p;
        let p = -(1.0 / 6.0) + z * p;
        th * (1.0 + z * p)
    };
    // The quadrant's integer bits, read from the mantissa of `k + 2^52`.
    let q = (k + TWO_52).to_bits();
    let v = if q & 1 != 0 { s } else { c };
    f64::from_bits(v.to_bits() ^ ((((q + 1) >> 1) & 1) << 63))
}

/// Fills `out` with standard-normal samples via a batched, branchless
/// Box–Muller transform.
///
/// Consumes exactly `2 × out.len()` uniform draws from `rng`, two per
/// sample in output order — the same consumption pattern as calling
/// [`sample_standard_normal`] `out.len()` times, so RNG stream positions
/// are interchangeable between the scalar and batched paths. The math uses
/// the polynomial `ln_unit` / `cos_tau` kernels instead of `libm`, so
/// the *values* differ from the scalar path in the low bits but are
/// bit-identical across platforms and batch partitionings.
///
/// The uniforms are staged into word-sized stack buffers and the transform
/// runs as a second, RNG-free pass. Without the serial generator chain
/// threaded through it, and with no bounds checks or int↔float
/// conversions inside, the pure-float loop vectorizes. The staging is
/// invisible to the stream contract — draw order is unchanged.
pub fn fill_standard_normal<R: Rng + ?Sized>(rng: &mut R, out: &mut [f64]) {
    let mut u1 = [0.0f64; 64];
    let mut u2 = [0.0f64; 64];
    for chunk in out.chunks_mut(64) {
        for (a, b) in u1.iter_mut().zip(&mut u2).take(chunk.len()) {
            *a = 1.0 - rng.gen::<f64>();
            *b = rng.gen();
        }
        for ((o, &a), &b) in chunk.iter_mut().zip(&u1).zip(&u2) {
            *o = (-2.0 * ln_unit(a)).sqrt() * cos_tau(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn default_weights_are_sane() {
        let m = PowerModel::default();
        assert_eq!(m.cap(GateKind::Input), 0.0);
        assert!(m.cap(GateKind::Xor) > m.cap(GateKind::Nand));
        assert!(m.cap(GateKind::Dff) > m.cap(GateKind::Not));
        assert!(m.noise_sigma() > 0.0);
    }

    #[test]
    fn energy_scales_linearly_with_toggles() {
        let m = PowerModel::default();
        let e1 = m.energy(GateKind::Nand, 1);
        let e3 = m.energy(GateKind::Nand, 3);
        assert!((e3 - 3.0 * e1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "negative noise sigma")]
    fn negative_sigma_rejected() {
        let _ = PowerModel::default().with_noise(-1.0);
    }

    #[test]
    fn box_muller_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn box_muller_is_finite() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            assert!(sample_standard_normal(&mut rng).is_finite());
        }
    }

    #[test]
    fn ln_unit_tracks_libm() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..200_000 {
            let x = 1.0 - rng.gen::<f64>();
            let rel = (ln_unit(x) - x.ln()).abs() / x.ln().abs().max(1e-300);
            if x < 0.999 {
                assert!(rel < 1e-12, "ln({x}) rel err {rel}");
            }
        }
        // Smallest reachable uniform: u1 = 2^-53.
        let tiny = (2f64).powi(-53);
        let rel = ((ln_unit(tiny) - tiny.ln()) / tiny.ln()).abs();
        assert!(rel < 1e-13, "ln(2^-53) rel err {rel}");
        assert_eq!(ln_unit(1.0), 0.0);
    }

    #[test]
    fn cos_tau_tracks_libm() {
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..200_000 {
            let u = rng.gen::<f64>();
            let err = (cos_tau(u) - (std::f64::consts::TAU * u).cos()).abs();
            assert!(err < 1e-10, "cos(2pi*{u}) abs err {err}");
        }
        assert_eq!(cos_tau(0.0), 1.0);
        // Quadrant boundaries.
        assert!((cos_tau(0.25)).abs() < 1e-12);
        assert!((cos_tau(0.5) + 1.0).abs() < 1e-12);
        assert!((cos_tau(0.75)).abs() < 1e-12);
    }

    /// The batched fill consumes the RNG stream exactly like repeated
    /// scalar draws: same number of uniforms, two per sample in output
    /// order. The engine relies on this to keep per-word noise streams
    /// position-identical at every lane width.
    #[test]
    fn fill_consumes_rng_like_scalar_path() {
        let mut a = StdRng::seed_from_u64(99);
        let mut b = a.clone();
        let mut out = [0.0; 37];
        fill_standard_normal(&mut a, &mut out);
        for _ in 0..37 {
            let _ = sample_standard_normal(&mut b);
        }
        // Both rngs must now be at the same stream position.
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    /// Splitting one fill into arbitrary sub-fills over the same RNG gives
    /// bit-identical samples — partial trailing words cost nothing.
    #[test]
    fn fill_is_split_invariant() {
        let mut a = StdRng::seed_from_u64(5);
        let mut whole = [0.0; 64];
        fill_standard_normal(&mut a, &mut whole);
        let mut b = StdRng::seed_from_u64(5);
        let mut parts = [0.0; 64];
        let (head, rest) = parts.split_at_mut(17);
        let (mid, tail) = rest.split_at_mut(30);
        fill_standard_normal(&mut b, head);
        fill_standard_normal(&mut b, mid);
        fill_standard_normal(&mut b, tail);
        for (x, y) in whole.iter().zip(parts.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// FNV-1a-64 over the little-endian bit patterns of `xs`.
    fn fnv1a_bits(xs: &[f64]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in xs.iter().flat_map(|x| x.to_bits().to_le_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Pins the absolute noise bits: every campaign's energy samples, and so
    /// every committed verdict, depend on them. A restructured fill must
    /// reproduce these digests exactly; a deliberate change of noise values
    /// re-pins them and is recorded as such.
    #[test]
    fn fill_bits_are_pinned() {
        for (seed, len, want) in [
            (1u64, 1usize, 0x07fc_1016_0fe2_6386u64),
            (2, 37, 0x7327_f286_98f0_1aad),
            (3, 64, 0xf605_43af_f267_fb0b),
            (4, 4096, 0x2e17_4734_fad5_b828),
        ] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut out = vec![0.0; len];
            fill_standard_normal(&mut rng, &mut out);
            let got = fnv1a_bits(&out);
            assert_eq!(got, want, "seed {seed}, len {len}: digest {got:#018x}");
        }
    }

    #[test]
    fn fill_moments_are_standard_normal() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut buf = [0.0; 256];
        let n = 400_000usize;
        let (mut s1, mut s2, mut s4) = (0.0f64, 0.0f64, 0.0f64);
        for _ in 0..n / buf.len() {
            fill_standard_normal(&mut rng, &mut buf);
            for &v in &buf {
                assert!(v.is_finite());
                s1 += v;
                s2 += v * v;
                s4 += v * v * v * v;
            }
        }
        let nf = n as f64;
        let mean = s1 / nf;
        let var = s2 / nf;
        let kurt = s4 / nf / (var * var);
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
        assert!((kurt - 3.0).abs() < 0.1, "kurtosis {kurt}");
    }
}
