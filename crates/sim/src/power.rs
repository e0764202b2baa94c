//! Switching-activity power model.
//!
//! Dynamic power of a CMOS cell is `½ · C · V² · f · α`; at fixed voltage and
//! frequency the per-gate, per-cycle energy is proportional to the cell's
//! switched capacitance times its toggle activity. The model therefore
//! assigns each [`GateKind`] a relative capacitance weight and adds zero-mean
//! Gaussian measurement noise, the standard gate-level leakage-simulation
//! setup used by TVLA-based EDA flows (CASCADE, Karna, VALIANT).
//!
//! The noise is a Box–Muller pass, `√(−2 ln u₁) · cos(2π u₂)` per sample,
//! made of IEEE-754 ops alone so that every build gives the same bits. Its
//! per-sample math (`transform`) is an exact rewrite of that plain form
//! with about a third fewer float ops, each step exact for one reason:
//!
//! - `u₁ = (2 − m) − lo`: every multiple of `2⁻⁵³` in `(0, 1]` is a double.
//! - `ln`'s reduction on integer bits: a carry past √2's mantissa halves `m`
//!   and adds one to the exponent, and integers below `2⁵³` subtract exactly.
//! - `−2 ln` as `e · (−2 ln 2) + (−4t) · p`: scaling by a power of two
//!   commutes with rounding.
//! - `cos`'s quadrant and remainder from the draw's integer bits: `(4u + ½)
//!   · 2⁵¹` is the integer `(x >> 11) + 2⁵⁰`.
//! - one Horner chain picks cosine or sine coefficients per lane: a sine
//!   chain starts at its own leading term and ends times `θ`, a cosine
//!   chain's times 1.0.
//! - `cap · t` as a select of `cap` or `cap · 0.0`: the two products it can
//!   take, a `−0.0` weight's sign included.

use polaris_netlist::GateKind;
use rand::rngs::{Lockstep, StdRng};
use rand::Rng;

use crate::campaign::WORD_LANES;

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
/// here; two uniforms in `(0, 1]` map to one normal deviate. No campaign
/// path calls it: it is the scalar reference whose RNG stream consumption
/// the noise-kernel tests check [`fill_standard_normal`] against.
pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by shifting the uniform into (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// `2^52`: a `u64 < 2^52` OR-ed into its mantissa reads back exactly as
/// `2^52 + u64`, which replaces an int→float conversion with a float
/// subtraction the compiler can vectorize (AVX2 has no 64-bit integer
/// conversion).
const TWO_52: f64 = 4_503_599_627_370_496.0;

/// `2⁻⁵³`: the spacing of the uniforms `rng.gen::<f64>()` returns.
const UNIT: f64 = 1.0 / (1u64 << 53) as f64;

/// The significand field of an `f64`.
const MANTISSA: u64 = 0x000f_ffff_ffff_ffff;

/// `u₁ = 1 − (x >> 11) · 2⁻⁵³`: one minus the uniform in `[0, 1)` that
/// `rng.gen::<f64>()` makes of the draw `x`, so a value in `(0, 1]`.
///
/// The top 52 bits OR-ed into the mantissa of 1.0 read back as
/// `m = 1 + (x >> 12) · 2⁻⁵²`, and bit 11 is `lo`, `2⁻⁵³` or `+0.0`. Then
/// `u₁ = (2 − m) − lo`: both steps are exact because every multiple of
/// `2⁻⁵³` in `(0, 1]` is a double, so this is `1 − rng.gen::<f64>()` bit
/// for bit from two float ops instead of three.
#[inline(always)]
fn one_minus_unit(x: u64) -> f64 {
    let m = f64::from_bits(1.0f64.to_bits() | (x >> 12));
    let lo = f64::from_bits(((x >> 11) & 1).wrapping_neg() & UNIT.to_bits());
    (2.0 - m) - lo
}

/// `−2 ln x` for `x ∈ (0, 1]` as a branchless polynomial.
///
/// Exponent/mantissa split, mantissa reduced into `(√2/2, √2]`, then the
/// atanh series `ln m = 2t(1 + t²/3 + t⁴/5 + …)` on `t = (m−1)/(m+1)`
/// (8 terms, |t| < 0.1716 so the truncation error is below 4 × 10⁻¹⁴
/// relative). Every operation is an IEEE-754-exact add/mul/div or a bit
/// manipulation, so the result is bit-identical on every platform — the
/// property the campaign engine's cross-host determinism rests on, which
/// `libm`'s `ln` (allowed to differ by a ulp between implementations) does
/// not give. Each step is exact against the plain form
/// `−2 · (e · ln 2 + 2t · p(t²))`:
///
/// - adding `CARRY` to the bits carries into the exponent field exactly when
///   the mantissa exceeds √2's, which halves `m` and adds one to `e`;
/// - `e` is the exponent field read as `2⁵² + field` minus `2⁵² + 1023`, an
///   exact difference of integers;
/// - `u = (m − 1)/(−m/4 − ¼)` is `−4t`, signed zero included, and
///   `u² = 16t²`: the series runs in `u²` with each coefficient of `t²ᵏ`
///   divided by `16ᵏ`, and scaling by a power of two commutes with rounding;
/// - so the `−2 ·` is folded into `e · (−2 ln 2) + u · p`.
#[inline(always)]
fn neg_two_ln(x: f64) -> f64 {
    const NEG_TWO_LN2: f64 = -2.0 * std::f64::consts::LN_2;
    const CARRY: u64 = MANTISSA - (std::f64::consts::SQRT_2.to_bits() & MANTISSA);
    // `x > 0`: the sign bit is 0, and the carry stops in the exponent field.
    let ix = x.to_bits() + CARRY;
    let f = ix & MANTISSA;
    let m = f64::from_bits(f + (1.0f64.to_bits() - CARRY));
    let neg_quarter_m = f64::from_bits(f + ((-0.25f64).to_bits() - CARRY));
    let e = f64::from_bits(TWO_52.to_bits() | (ix >> 52)) - (TWO_52 + 1023.0);
    let u = (m - 1.0) / (neg_quarter_m - 0.25);
    let s = u * u;
    let p = (1.0 / 13.0) / 16_777_216.0 + s * ((1.0 / 15.0) / 268_435_456.0);
    let p = (1.0 / 11.0) / 1_048_576.0 + s * p;
    let p = (1.0 / 9.0) / 65_536.0 + s * p;
    let p = (1.0 / 7.0) / 4_096.0 + s * p;
    let p = (1.0 / 5.0) / 256.0 + s * p;
    let p = (1.0 / 3.0) / 16.0 + s * p;
    let p = 1.0 + s * p;
    e * NEG_TWO_LN2 + u * p
}

/// `cos(2πu)` for the uniform `u = (x >> 11) · 2⁻⁵³` of the draw `x`, as a
/// branchless polynomial.
///
/// Quadrant reduction `k = ⌊4u + ½⌋` maps the argument onto
/// `r ∈ [−½, ½)` quarter turns, where a degree-12 cosine / degree-11 sine
/// Taylor expansion in `θ = r · π/2` is accurate to 7 × 10⁻¹² absolute; the
/// quadrant's parity selects between the two and `k` fixes the sign.
/// IEEE-exact ops only (see [`neg_two_ln`]), so bit-stable across
/// platforms. Each step is exact against reducing `u` in float:
///
/// - `(4u + ½) · 2⁵¹` is the integer `(x >> 11) + 2⁵⁰`, so `k` is its bits
///   from 51 up and `r + ½` its low 51 bits `j` times `2⁻⁵¹`;
/// - `r = (1 + j · 2⁻⁵¹) − 1.5` is one exact subtraction;
/// - both series run in one Horner chain whose coefficients each lane picks
///   by `k`'s parity; a sine lane's chain starts one step late, at its own
///   leading coefficient, and ends times `θ` where a cosine lane's ends
///   times 1.0, which is exact.
#[inline(always)]
fn cos_tau(x: u64) -> f64 {
    const FRAC_PI_2: f64 = std::f64::consts::FRAC_PI_2;
    let y = (x >> 11) + (1 << 50);
    let k = y >> 51;
    let j = y & ((1 << 51) - 1);
    let r = f64::from_bits(1.0f64.to_bits() | (j << 1)) - 1.5;
    let th = r * FRAC_PI_2;
    let z = th * th;
    let sine = k & 1 != 0;
    let pick = |c: f64, s: f64| if sine { s } else { c };
    let p = pick(
        -(1.0 / 3_628_800.0) + z * (1.0 / 479_001_600.0),
        -(1.0 / 39_916_800.0),
    );
    let p = pick(1.0 / 40_320.0, 1.0 / 362_880.0) + z * p;
    let p = pick(-(1.0 / 720.0), -(1.0 / 5_040.0)) + z * p;
    let p = pick(1.0 / 24.0, 1.0 / 120.0) + z * p;
    let p = pick(-0.5, -(1.0 / 6.0)) + z * p;
    let v = (1.0 + z * p) * pick(1.0, th);
    f64::from_bits(v.to_bits() ^ ((((k + 1) >> 1) & 1) << 63))
}

/// What one word of standard-normal deviates `z` becomes: the deviates
/// themselves, or a gate's energies `cap · t + σ · z`.
pub(crate) trait Synth {
    /// The output of lane `l` (`l < 64`) from its deviate `z`.
    fn emit(&self, l: usize, z: f64) -> f64;
}

/// The deviates themselves ([`fill_standard_normal`]).
struct Deviates;

impl Synth for Deviates {
    #[inline(always)]
    fn emit(&self, _l: usize, z: f64) -> f64 {
        z
    }
}

/// Energies of a gate whose lane `l` toggled once iff bit `l` of `diff` is
/// set (single-cycle zero-delay).
pub(crate) struct BitEnergy {
    pub(crate) cap: f64,
    pub(crate) sigma: f64,
    pub(crate) diff: u64,
}

impl Synth for BitEnergy {
    #[inline(always)]
    fn emit(&self, l: usize, z: f64) -> f64 {
        // `cap · t` for the toggle `t` of 1.0 or 0.0, as a select: `cap · 1.0`
        // is `cap`, and `cap · 0.0` keeps the sign of a `−0.0` weight.
        let toggled = (self.diff >> l) & 1 != 0;
        let e = if toggled { self.cap } else { self.cap * 0.0 };
        e + self.sigma * z
    }
}

/// Energies of a gate from per-lane toggle counts (multi-cycle or
/// unit-delay).
pub(crate) struct CountEnergy<'a> {
    pub(crate) cap: f64,
    pub(crate) sigma: f64,
    pub(crate) counts: &'a [u32; WORD_LANES],
}

impl Synth for CountEnergy<'_> {
    #[inline(always)]
    fn emit(&self, l: usize, z: f64) -> f64 {
        self.cap * f64::from(self.counts[l]) + self.sigma * z
    }
}

/// One word's raw `u64` draws, one per lane.
type Draws = [u64; WORD_LANES];

/// The Box–Muller transform of one word, fed by raw draws.
///
/// Lane `l` converts its two draws exactly as `rng.gen::<f64>()` would,
/// shifts the first into `(0, 1]` to keep `ln` finite, and hands
/// `√(−2 ln u₁) · cos(2π u₂)` to `synth`. Only the first `out.len()` (at
/// most 64) lanes are written. `#[inline(always)]` so each `#[target_feature]`
/// build in [`kernel`] compiles its own copy of the whole pass.
///
/// The per-lane math is the plain form `√(−2 ln(1 − u₁)) · cos(2π u₂)`
/// rewritten exactly (see the module docs), so it keeps every bit: in the
/// AVX-512 build it takes 50 packed-double ops per eight lanes, selects
/// included, where the plain form took 71.
///
/// - [`one_minus_unit`]: `u₁ = 1 − u` from two exact subtractions, not three.
/// - [`neg_two_ln`]: reduction on integer bits, `−2` folded into exact
///   power-of-two scalings of the series.
/// - [`cos_tau`]: reduction on the draw's integer bits, and one Horner chain
///   whose coefficients each lane picks, not a cosine and a sine.
/// - [`BitEnergy`]: a select of `cap` or `cap · 0.0`, the products `cap · t`
///   can take, instead of the multiply.
#[inline(always)]
fn transform<S: Synth>(d1: &Draws, d2: &Draws, synth: &S, out: &mut [f64]) {
    let n = out.len().min(WORD_LANES);
    for l in 0..n {
        let z = neg_two_ln(one_minus_unit(d1[l])).sqrt() * cos_tau(d2[l]);
        out[l] = synth.emit(l, z);
    }
}

/// The noise math as it was before the exact rewrites in [`transform`]:
/// the oracles `power::tests::diet_matches_the_reference_bits` checks the
/// shipped math against, bit for bit.
#[cfg(test)]
mod reference {
    use super::{Draws, Synth, TWO_52, UNIT, WORD_LANES};

    /// The uniform in `[0, 1)` that `rng.gen::<f64>()` makes of the draw `x`,
    /// `(x >> 11) as f64 · 2⁻⁵³`, without an int→float conversion.
    ///
    /// The top 52 bits OR-ed into the mantissa of 1.0 read back as
    /// `1 + (x >> 12) · 2⁻⁵²`; subtracting 1.0 is exact. Bit 11 then adds
    /// `2⁻⁵³` or `+0.0`, also exactly, since every multiple of `2⁻⁵³` below 1
    /// is a double. So the result is the conversion's value bit for bit, built
    /// from shifts, masks and exact float adds that every vector ISA has; AVX2
    /// has no 64-bit integer conversion.
    #[inline(always)]
    pub(super) fn unit(x: u64) -> f64 {
        let hi = f64::from_bits(1.0f64.to_bits() | (x >> 12)) - 1.0;
        let lo = f64::from_bits(((x >> 11) & 1).wrapping_neg() & UNIT.to_bits());
        hi + lo
    }

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
    #[inline(always)]
    pub(super) fn ln_unit(x: f64) -> f64 {
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
    #[inline(always)]
    pub(super) fn cos_tau(u: f64) -> f64 {
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

    /// The Box–Muller transform of one word in the plain form
    /// `√(−2 ln(1 − unit(d₁))) · cos_tau(unit(d₂))`.
    #[inline(always)]
    pub(super) fn transform<S: Synth>(d1: &Draws, d2: &Draws, synth: &S, out: &mut [f64]) {
        let n = out.len().min(WORD_LANES);
        for l in 0..n {
            let u1 = 1.0 - unit(d1[l]);
            let u2 = unit(d2[l]);
            let z = (-2.0 * ln_unit(u1)).sqrt() * cos_tau(u2);
            out[l] = synth.emit(l, z);
        }
    }
}

/// The lockstep noise pass over `N` words of `lanes` lanes each (1 to 64),
/// word `k` written to `out[at[k]..at[k] + lanes]`.
///
/// The `N` streams are stepped together, two draws per lane, and each step
/// is stored whole, so the draws land lane-major: `raw[2l + j][k]` is draw
/// `j` of lane `l` of word `k`. A transpose then gathers each word's draws
/// into its own `d1`/`d2` arrays, and [`transform`] turns word `k` into
/// `synths[k]`'s output at `at[k]`. Stream `k` is consumed exactly as a
/// one-word fill of its word alone would consume it.
#[inline(always)]
fn lockstep_fill<S: Synth, const N: usize>(
    rngs: &mut Lockstep<N>,
    synths: &[S; N],
    out: &mut [f64],
    at: [usize; N],
    lanes: usize,
) {
    assert!(
        (1..=WORD_LANES).contains(&lanes),
        "words of 1 to {WORD_LANES} lanes, got {lanes}"
    );
    // The state is stepped in a local so it stays in registers: through
    // `rngs`, reached via the pass's fields, every step would go to memory.
    let mut gen = rngs.clone();
    let mut raw = [[0u64; N]; 2 * WORD_LANES];
    for step in &mut raw[..2 * lanes] {
        *step = gen.next_u64s();
    }
    *rngs = gen;
    let d1: [Draws; N] = std::array::from_fn(|k| std::array::from_fn(|l| raw[2 * l][k]));
    let d2: [Draws; N] = std::array::from_fn(|k| std::array::from_fn(|l| raw[2 * l + 1][k]));
    for k in 0..N {
        transform(&d1[k], &d2[k], &synths[k], &mut out[at[k]..at[k] + lanes]);
    }
}

/// Run-time choice among the builds of the noise pass and of any other
/// [`Pass`] (the Welch sink's word fold runs through it too).
mod kernel {
    use super::{lockstep_fill, Lockstep, Synth};
    #[cfg(test)]
    use super::{transform, Draws};
    use std::sync::OnceLock;

    /// One instruction-set build that this host can run: portable, AVX2,
    /// or AVX-512 (F/DQ/VL).
    ///
    /// The field is private to this module and the only constructor is
    /// [`Kernel::supported`], which returns an instruction-set build only
    /// after `is_x86_feature_detected!` confirmed every feature it enables.
    /// That is the invariant [`Kernel::dispatch`]'s `unsafe` call relies
    /// on.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct Kernel(Isa);

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Isa {
        Portable,
        #[cfg(target_arch = "x86_64")]
        Avx2,
        #[cfg(target_arch = "x86_64")]
        Avx512,
    }

    impl Isa {
        /// Whether this CPU has every feature the build enables.
        fn detected(self) -> bool {
            match self {
                Isa::Portable => true,
                #[cfg(target_arch = "x86_64")]
                Isa::Avx2 => is_x86_feature_detected!("avx2"),
                // `avx512f` implies `avx2`, `fma` and `f16c` in the
                // compiler's feature table, so those are checked too.
                #[cfg(target_arch = "x86_64")]
                Isa::Avx512 => {
                    is_x86_feature_detected!("avx512f")
                        && is_x86_feature_detected!("avx512dq")
                        && is_x86_feature_detected!("avx512vl")
                        && is_x86_feature_detected!("avx2")
                        && is_x86_feature_detected!("fma")
                        && is_x86_feature_detected!("f16c")
                }
            }
        }
    }

    /// A pass that each build compiles its own copy of: the noise fill
    /// here, the Welch sink's word fold in `polaris-tvla`. Implementations
    /// mark `run` `#[inline(always)]`, and everything it calls too, so the
    /// whole pass inlines into each `#[target_feature]` build; a call left
    /// out of line runs the baseline code.
    ///
    /// A pass must produce the same bits in every build. The builds only
    /// widen vectors; none contracts `a * b + c` into a fused multiply-add
    /// or reassociates a sum, so a pass made of plain IEEE-754 arithmetic in
    /// a fixed order keeps its bits.
    pub trait Pass {
        /// Runs the pass.
        fn run(self);
    }

    /// [`lockstep_fill`] as a [`Pass`].
    pub(super) struct Fill<'a, S, const N: usize> {
        pub(super) rngs: &'a mut Lockstep<N>,
        pub(super) synths: &'a [S; N],
        pub(super) out: &'a mut [f64],
        pub(super) at: [usize; N],
        pub(super) lanes: usize,
    }

    impl<S: Synth, const N: usize> Pass for Fill<'_, S, N> {
        #[inline(always)]
        fn run(self) {
            lockstep_fill(self.rngs, self.synths, self.out, self.at, self.lanes);
        }
    }

    /// [`transform`] alone on given draws, the cross-build test's pass.
    #[cfg(test)]
    struct Transform<'a, S> {
        d1: &'a Draws,
        d2: &'a Draws,
        synth: &'a S,
        out: &'a mut [f64],
    }

    #[cfg(test)]
    impl<S: Synth> Pass for Transform<'_, S> {
        #[inline(always)]
        fn run(self) {
            transform(self.d1, self.d2, self.synth, self.out);
        }
    }

    impl Kernel {
        /// Every build the host supports, in ascending preference; the
        /// portable build is always first.
        pub fn supported() -> Vec<Kernel> {
            [
                Isa::Portable,
                #[cfg(target_arch = "x86_64")]
                Isa::Avx2,
                #[cfg(target_arch = "x86_64")]
                Isa::Avx512,
            ]
            .into_iter()
            .filter(|isa| isa.detected())
            .map(Kernel)
            .collect()
        }

        /// The host's preferred build, detected once per process; there is
        /// no flag or environment variable for it.
        pub fn detected() -> Kernel {
            static BEST: OnceLock<Kernel> = OnceLock::new();
            *BEST.get_or_init(|| {
                *Kernel::supported()
                    .last()
                    .expect("the portable build is always supported")
            })
        }

        /// The word counts worth filling in lockstep on this build, widest
        /// first; every other count runs one word at a time.
        ///
        /// Only AVX-512 steps the streams as vectors, with native 64-bit
        /// rotates (`vprolq`), and only 4 or 8 of them fill its registers.
        /// Without vector rotates the compiler interleaves the streams as
        /// scalar code, which loses more than it gains: one word at a time,
        /// a word's serial draws overlap the previous word's transform.
        /// Measured on a 2-core AVX-512 Xeon VM (c1908, 40k traces per
        /// class): the AVX2 build's `power` phase took 11% longer in
        /// lockstep of 4, and the AVX-512 build's 11% less.
        pub(super) fn lockstep_words(self) -> &'static [usize] {
            match self.0 {
                #[cfg(target_arch = "x86_64")]
                Isa::Avx512 => &[8, 4],
                _ => &[],
            }
        }

        /// Runs this build of `pass`: the one entry point into the
        /// instruction-set builds. Two passes go through it: the fused
        /// noise and energy fill of this module, and `polaris-tvla`'s
        /// Welch word fold, which folds the words of four gates side by
        /// side in each `WelchAccumulator::record_batch` call. Each build
        /// gives a pass the same bits (see [`Pass`]); only the speed
        /// differs.
        #[cfg_attr(
            target_arch = "x86_64",
            expect(
                unsafe_code,
                reason = "calling a #[target_feature] build needs the detection \
                          `Kernel::supported` performed"
            )
        )]
        #[inline]
        pub fn dispatch<P: Pass>(self, pass: P) {
            match self.0 {
                Isa::Portable => run_portable(pass),
                // SAFETY: a `Kernel(Isa::Avx2)` exists only after
                // `Kernel::supported` detected `avx2` on this host.
                #[cfg(target_arch = "x86_64")]
                Isa::Avx2 => unsafe { run_avx2(pass) },
                // SAFETY: a `Kernel(Isa::Avx512)` exists only after
                // `Kernel::supported` detected every feature this build
                // enables, the implied ones included.
                #[cfg(target_arch = "x86_64")]
                Isa::Avx512 => unsafe { run_avx512(pass) },
            }
        }

        /// Runs this build of [`transform`] on given draws.
        #[cfg(test)]
        pub(super) fn run<S: Synth>(self, d1: &Draws, d2: &Draws, synth: &S, out: &mut [f64]) {
            self.dispatch(Transform { d1, d2, synth, out });
        }
    }

    /// `pass` compiled for the baseline target, out of line like the
    /// other builds so that callers do not each inline a copy of it.
    #[inline(never)]
    fn run_portable<P: Pass>(pass: P) {
        pass.run();
    }

    /// `pass` compiled for AVX2. `fma` is never enabled: a fused
    /// multiply-add rounds once where the portable build rounds twice.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn run_avx2<P: Pass>(pass: P) {
        pass.run();
    }

    /// `pass` compiled for AVX-512 (F/DQ/VL), which also gives the
    /// generator native 64-bit rotates. The implied `fma` goes unused: Rust
    /// emits a fused multiply-add only for an explicit `mul_add`, which the
    /// transform never calls.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    fn run_avx512<P: Pass>(pass: P) {
        pass.run();
    }
}

use kernel::Fill;
pub use kernel::{Kernel, Pass};

/// The word counts the host's build fills faster in lockstep than one word
/// at a time, widest first (possibly none).
pub(crate) fn lockstep_words() -> &'static [usize] {
    Kernel::detected().lockstep_words()
}

/// Draws one lockstep fill of noise: `N` words of `lanes` lanes each (1
/// to 64), word `k` from stream `k` of `rngs`, and writes `synths[k]`'s
/// output for each of word `k`'s lanes to `out[at[k]..at[k] + lanes]`.
///
/// The `N` streams are stepped side by side and each draws two `u64`s per
/// lane of its word, in lane order, so stream `k` ends exactly where a
/// one-word fill of word `k` from that stream alone would leave it, and
/// the output bits are the same. Draw, transpose and transform run as one
/// pass in the host's build (see [`fill_standard_normal`]). For a gate's
/// energies that pass writes the gate's rows directly, with no noise buffer
/// in between, and builds `cap · t + σ · z` with the same two roundings as
/// a fill followed by a separate synthesis. The words of one call may land
/// in the rows of different shards, so a campaign block of two shards
/// still fills all its words in one lockstep call. Where
/// [`lockstep_words`] allows, the engine fills a full block's `W` words of
/// one gate per call; other words, a partial trailing word, and
/// [`fill_standard_normal`] are the `N = 1` case.
///
/// # Panics
///
/// Panics unless `lanes` is 1 to 64 and every word lies inside `out`.
#[inline]
pub(crate) fn fill_words<S: Synth, const N: usize>(
    rngs: &mut Lockstep<N>,
    synths: &[S; N],
    out: &mut [f64],
    at: [usize; N],
    lanes: usize,
) {
    Kernel::detected().dispatch(Fill {
        rngs,
        synths,
        out,
        at,
        lanes,
    });
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
/// Each 64-sample word is the one-stream case of the campaign engine's
/// lockstep noise fill: the word's raw `u64` draws are staged on the stack,
/// then one RNG-free pass converts them and applies the transform. That
/// pass has no serial generator chain and no bounds checks, so it
/// vectorizes. On AVX-512 the engine steps a block's word streams side by
/// side instead, so its draws vectorize too. The whole fill, draws
/// included, is compiled three times: portable, AVX2, and AVX-512
/// (F/DQ/VL). The best
/// build the CPU supports is picked once per process with
/// `is_x86_feature_detected!`; there is no flag or environment variable for
/// it. The campaign engine's fused noise-and-energy pass runs through the
/// same builds, so the polynomial exists once.
///
/// Every build produces the same bits. Each is the same sequence of
/// IEEE-754 adds, multiplies, divides and square roots, each correctly
/// rounded whatever the vector width. A fused multiply-add would round
/// once where the sequence rounds twice, so `fma` is never enabled by name.
/// The compiler counts `fma` as implied by `avx512f`, but Rust never
/// contracts `a * b + c` into one on its own. A test compares every build
/// the host supports bit for bit. So workers on hosts with different
/// instruction sets still produce byte-identical campaign parts.
pub fn fill_standard_normal(rng: &mut StdRng, out: &mut [f64]) {
    for chunk in out.chunks_mut(WORD_LANES) {
        fill_words(rng, &[Deviates], chunk, [0], chunk.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

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

    /// `ln` as the shipped `−2 ln` gives it: halving is exact.
    fn ln_unit(x: f64) -> f64 {
        -0.5 * neg_two_ln(x)
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

    /// The shipped `cos_tau` takes the raw draw whose uniform is `u`.
    #[test]
    fn cos_tau_tracks_libm() {
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..200_000 {
            let x = rng.next_u64();
            let u = (x >> 11) as f64 * UNIT;
            let err = (cos_tau(x) - (std::f64::consts::TAU * u).cos()).abs();
            assert!(err < 1e-10, "cos(2pi*{u}) abs err {err}");
        }
        assert_eq!(cos_tau(0), 1.0);
        // Quadrant boundaries: u = 0.25, 0.5, 0.75.
        assert!((cos_tau(1 << 62)).abs() < 1e-12);
        assert!((cos_tau(1 << 63) + 1.0).abs() < 1e-12);
        assert!((cos_tau(3 << 62)).abs() < 1e-12);
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

    /// Raw draws covering the edges of the conversion and of `cos_tau`'s
    /// quadrant reduction: `0` and `u64::MAX` (the ends of `[0, 1)` and so
    /// `u₁ = 1` and `u₁ = 2⁻⁵³`), `1 << 11` (the smallest non-zero
    /// uniform), draws below it that convert to zero, and the quadrant
    /// boundaries `u = 0.25, 0.5, 0.75`.
    const EDGE_DRAWS: [u64; 8] = [
        0,
        u64::MAX,
        1 << 11,
        (1 << 11) - 1,
        1 << 62,
        1 << 63,
        3 << 62,
        0x0123_4567_89ab_cdef,
    ];

    /// Words of raw draws: every pair of edge draws once, then random ones.
    fn draw_words() -> Vec<(Draws, Draws)> {
        let mut words = Vec::new();
        let mut d1 = [0u64; WORD_LANES];
        let mut d2 = [0u64; WORD_LANES];
        for (l, (a, b)) in d1.iter_mut().zip(&mut d2).enumerate() {
            *a = EDGE_DRAWS[l / EDGE_DRAWS.len()];
            *b = EDGE_DRAWS[l % EDGE_DRAWS.len()];
        }
        words.push((d1, d2));
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..32 {
            let d1 = std::array::from_fn(|_| rng.next_u64());
            let d2 = std::array::from_fn(|_| rng.next_u64());
            words.push((d1, d2));
        }
        words
    }

    fn toggle_counts() -> [u32; WORD_LANES] {
        std::array::from_fn(|l| (l as u32 * 7) % 5)
    }

    /// The reference `unit` is `rng.gen::<f64>()`'s conversion, and the
    /// shipped `one_minus_unit` is one minus it, bit for bit, on the edge
    /// draws and on random ones.
    #[test]
    fn unit_is_the_gen_conversion() {
        let mut rng = StdRng::seed_from_u64(23);
        let random = (0..100_000).map(|_| rng.next_u64());
        for x in EDGE_DRAWS.into_iter().chain(random) {
            let want = (x >> 11) as f64 * UNIT;
            assert_eq!(
                reference::unit(x).to_bits(),
                want.to_bits(),
                "draw {x:#018x}"
            );
            let want = 1.0 - want;
            assert_eq!(
                one_minus_unit(x).to_bits(),
                want.to_bits(),
                "draw {x:#018x}"
            );
        }
    }

    /// Draw pairs gathered into words, each word checked once it is full:
    /// every build's shipped transform against the reference transform.
    struct DietCheck {
        kernels: Vec<Kernel>,
        d1: Draws,
        d2: Draws,
        lanes: usize,
        checked: usize,
    }

    impl DietCheck {
        fn push(&mut self, a: u64, b: u64) {
            self.d1[self.lanes] = a;
            self.d2[self.lanes] = b;
            self.lanes += 1;
            if self.lanes < WORD_LANES {
                return;
            }
            let mut want = [0.0f64; WORD_LANES];
            reference::transform(&self.d1, &self.d2, &Deviates, &mut want);
            for k in &self.kernels {
                let mut got = [0.0f64; WORD_LANES];
                k.run(&self.d1, &self.d2, &Deviates, &mut got);
                for l in 0..WORD_LANES {
                    assert_eq!(
                        got[l].to_bits(),
                        want[l].to_bits(),
                        "{k:?}: draws {:#018x}, {:#018x}",
                        self.d1[l],
                        self.d2[l]
                    );
                }
            }
            self.checked += WORD_LANES;
            self.lanes = 0;
        }
    }

    /// The shipped transform writes the reference transform's bits in every
    /// build the host supports: on every pair of edge draws, on ±5 000 ulps
    /// of `u₂` around each quadrant edge `(2i+1) << 61` and around 0, on
    /// `u₁` whose mantissas lie next to √2's at every exponent, and on 10⁷
    /// seeded random draws.
    #[test]
    fn diet_matches_the_reference_bits() {
        let mut check = DietCheck {
            kernels: Kernel::supported(),
            d1: [0; WORD_LANES],
            d2: [0; WORD_LANES],
            lanes: 0,
            checked: 0,
        };
        let mut rng = StdRng::seed_from_u64(31);
        for a in EDGE_DRAWS.into_iter().chain([0, u64::MAX]) {
            for b in EDGE_DRAWS.into_iter().chain([0, u64::MAX]) {
                check.push(a, b);
            }
        }
        // One ulp of `u₂` is `1 << 11` in the draw; the low bits are noise.
        for edge in [0u64, 1 << 61, 3 << 61, 5 << 61, 7 << 61] {
            for ulps in -5_000i64..=5_000 {
                let b = edge.wrapping_add_signed(ulps << 11) | (rng.next_u64() & 0x7ff);
                check.push(rng.next_u64(), b);
            }
        }
        // `u₁ = 2⁻ᵉ · (1 + f · 2⁻⁵²)` is reachable when its `e − 1` lowest
        // mantissa bits are clear, from the draw `(2⁵³ − u₁ · 2⁵³) << 11`.
        let sqrt2 = std::f64::consts::SQRT_2.to_bits() & MANTISSA;
        for e in 1..=52u64 {
            for steps in -64i64..=64 {
                let f = (sqrt2 >> (e - 1)).wrapping_add_signed(steps) << (e - 1);
                if f > MANTISSA {
                    continue;
                }
                let a = ((1u64 << 53) - (((1 << 52) | f) >> (e - 1))) << 11;
                let a = a | (rng.next_u64() & 0x7ff);
                let u1 = f64::from_bits(((1023 - e) << 52) | f);
                assert_eq!((1.0 - reference::unit(a)).to_bits(), u1.to_bits());
                check.push(a, rng.next_u64());
            }
        }
        let listed = check.checked + check.lanes;
        while check.checked < listed + 10_000_000 {
            check.push(rng.next_u64(), rng.next_u64());
        }
    }

    /// Every build of the transform the host supports — chosen by the same
    /// detection the engine uses — writes the portable build's exact bits,
    /// for the deviates and for both toggle sources, on full words and on a
    /// partial trailing word. A build that fused a multiply-add, or
    /// reassociated anything, fails here.
    #[test]
    fn every_kernel_matches_the_portable_bits() {
        let kernels = Kernel::supported();
        assert_eq!(kernels.last(), Some(&Kernel::detected()));
        let counts = toggle_counts();
        for (d1, d2) in draw_words() {
            for n in [WORD_LANES, 37, 1] {
                let mut want = [0.0f64; WORD_LANES];
                let mut got = [0.0f64; WORD_LANES];
                let check = |want: &[f64], got: &[f64], what: &str, k: Kernel| {
                    for (l, (w, g)) in want.iter().zip(got).enumerate() {
                        assert_eq!(w.to_bits(), g.to_bits(), "{k:?} {what} lane {l} of {n}");
                    }
                };
                for k in &kernels {
                    transform(&d1, &d2, &Deviates, &mut want[..n]);
                    k.run(&d1, &d2, &Deviates, &mut got[..n]);
                    check(&want[..n], &got[..n], "deviates", *k);
                    for (cap, sigma) in [
                        (2.1, 0.35),
                        (0.0, 1.0),
                        (3.6, 0.0),
                        (-0.0, 0.35),
                        (-0.0, 0.0),
                    ] {
                        let bits = BitEnergy {
                            cap,
                            sigma,
                            diff: 0xdead_beef_0123_4567,
                        };
                        transform(&d1, &d2, &bits, &mut want[..n]);
                        k.run(&d1, &d2, &bits, &mut got[..n]);
                        check(&want[..n], &got[..n], "bits", *k);
                        let counted = CountEnergy {
                            cap,
                            sigma,
                            counts: &counts,
                        };
                        transform(&d1, &d2, &counted, &mut want[..n]);
                        k.run(&d1, &d2, &counted, &mut got[..n]);
                        check(&want[..n], &got[..n], "counts", *k);
                    }
                }
            }
        }
    }

    /// The fused pass writes exactly `cap * t + σ * z` for the `z`
    /// [`fill_standard_normal`] draws from the same stream, for both toggle
    /// sources and on a partial trailing word, and leaves the stream at the
    /// same position.
    #[test]
    fn fused_energy_is_fill_then_synthesize() {
        let diff = 0x8000_0000_f0f0_1235u64;
        let counts = toggle_counts();
        let cases = [(2.2, 0.35), (-0.0, 0.35), (2.2, 0.0), (-0.0, 0.0)];
        for ((cap, sigma), n) in cases.into_iter().flat_map(|c| [(c, WORD_LANES), (c, 37)]) {
            for seed in 0..8u64 {
                let mut a = StdRng::seed_from_u64(seed);
                let mut b = a.clone();
                let mut z = [0.0f64; WORD_LANES];
                let mut from_bits = [0.0f64; WORD_LANES];
                let mut from_counts = [0.0f64; WORD_LANES];
                fill_standard_normal(&mut a, &mut z[..n]);
                fill_words(
                    &mut b,
                    &[BitEnergy { cap, sigma, diff }],
                    &mut from_bits,
                    [0],
                    n,
                );
                assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "stream position");
                let mut c = StdRng::seed_from_u64(seed);
                let counted = CountEnergy {
                    cap,
                    sigma,
                    counts: &counts,
                };
                fill_words(&mut c, &[counted], &mut from_counts, [0], n);
                for l in 0..n {
                    let t = f64::from(u8::from((diff >> l) & 1 == 1));
                    assert_eq!(from_bits[l].to_bits(), (cap * t + sigma * z[l]).to_bits());
                    let t = f64::from(counts[l]);
                    assert_eq!(from_counts[l].to_bits(), (cap * t + sigma * z[l]).to_bits());
                }
            }
        }
    }

    /// One word filled the way the engine filled it before the lockstep:
    /// the stream's draws staged serially, two per lane in lane order, then
    /// the portable transform.
    fn word_by_word<S: Synth>(rng: &mut StdRng, synth: &S, out: &mut [f64]) {
        let mut d1: Draws = [0; WORD_LANES];
        let mut d2: Draws = [0; WORD_LANES];
        for (a, b) in d1.iter_mut().zip(&mut d2).take(out.len()) {
            *a = rng.next_u64();
            *b = rng.next_u64();
        }
        transform(&d1, &d2, synth, out);
    }

    /// Every build's lockstep fill of `N` words writes the bits of `N`
    /// word-by-word fills, each from its own stream, and leaves every
    /// stream where those fills leave it — for the deviates and both toggle
    /// sources, on full words and on partial ones, over several fills in a
    /// row as the engine runs them gate after gate. Word `k` goes where
    /// `at[k]` says: here in reverse order.
    #[test]
    fn lockstep_fill_is_word_by_word_fill() {
        fn check<const N: usize>(kernel: Kernel) {
            let counts: [[u32; WORD_LANES]; N] =
                std::array::from_fn(|k| std::array::from_fn(|l| ((l * 7 + k * 3) % 5) as u32));
            for lanes in [WORD_LANES, 37, 1] {
                let seeds: [u64; N] = std::array::from_fn(|k| 1000 * lanes as u64 + k as u64);
                let mut lock = Lockstep::from_streams(seeds.map(StdRng::seed_from_u64));
                let mut solo = seeds.map(StdRng::seed_from_u64);
                let mut got = vec![0.0f64; N * lanes];
                let mut want = vec![0.0f64; N * lanes];
                let at: [usize; N] = std::array::from_fn(|k| (N - 1 - k) * lanes);
                let compare = |got: &[f64], want: &[f64], what: &str| {
                    for (i, (g, w)) in got.iter().zip(want).enumerate() {
                        assert_eq!(
                            g.to_bits(),
                            w.to_bits(),
                            "{kernel:?} N = {N} {what}: lane {} of word {}, {lanes} lanes",
                            i % lanes,
                            i / lanes
                        );
                    }
                };
                for (cap, sigma) in [(2.1, 0.35), (0.0, 1.0), (3.6, 0.0)] {
                    kernel.dispatch(Fill {
                        rngs: &mut lock,
                        synths: &std::array::from_fn(|_| Deviates),
                        out: &mut got,
                        at,
                        lanes,
                    });
                    for (rng, word) in solo.iter_mut().zip(want.chunks_exact_mut(lanes).rev()) {
                        word_by_word(rng, &Deviates, word);
                    }
                    compare(&got, &want, "deviates");

                    let bits: [BitEnergy; N] = std::array::from_fn(|k| BitEnergy {
                        cap,
                        sigma,
                        diff: 0xdead_beef_0123_4567u64.rotate_left(9 * k as u32),
                    });
                    kernel.dispatch(Fill {
                        rngs: &mut lock,
                        synths: &bits,
                        out: &mut got,
                        at,
                        lanes,
                    });
                    for ((rng, synth), word) in solo
                        .iter_mut()
                        .zip(&bits)
                        .zip(want.chunks_exact_mut(lanes).rev())
                    {
                        word_by_word(rng, synth, word);
                    }
                    compare(&got, &want, "bits");

                    let counted: [CountEnergy<'_>; N] = std::array::from_fn(|k| CountEnergy {
                        cap,
                        sigma,
                        counts: &counts[k],
                    });
                    kernel.dispatch(Fill {
                        rngs: &mut lock,
                        synths: &counted,
                        out: &mut got,
                        at,
                        lanes,
                    });
                    for ((rng, synth), word) in solo
                        .iter_mut()
                        .zip(&counted)
                        .zip(want.chunks_exact_mut(lanes).rev())
                    {
                        word_by_word(rng, synth, word);
                    }
                    compare(&got, &want, "counts");
                }
                assert_eq!(
                    lock,
                    Lockstep::from_streams(solo),
                    "{kernel:?} N = {N}: stream positions"
                );
            }
        }
        for kernel in Kernel::supported() {
            check::<1>(kernel);
            check::<2>(kernel);
            check::<4>(kernel);
            check::<8>(kernel);
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
