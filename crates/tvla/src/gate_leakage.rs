//! Per-gate leakage assessment — the `leak_estimate` primitive of the
//! paper's Algorithms 1 and 2.
//!
//! A [`WelchAccumulator`] implements [`TraceSink`], so it plugs straight into
//! [`polaris_sim::campaign::run_campaign`] and maintains one pair of
//! streaming-moment accumulators per gate. [`assess`] bundles the whole
//! pipeline: simulate a fixed-vs-random campaign and produce a
//! [`GateLeakage`] map of per-gate t-statistics (Fig. 4 of the paper plots
//! exactly this, with the ±4.5 threshold).

use polaris_netlist::{GateId, Netlist, NetlistError};
use polaris_sim::campaign::{
    run_campaign_parallel, CampaignConfig, EnergyBatch, MergeableSink, Parallelism, Population,
    TraceSink,
};
use polaris_sim::power::PowerModel;

use crate::moments::StreamingMoments;
use crate::welch::{welch_t, WelchResult};
use crate::TVLA_THRESHOLD;

/// Streaming per-gate Welch accumulator.
#[derive(Clone, Debug, Default)]
pub struct WelchAccumulator {
    fixed: Vec<StreamingMoments>,
    random: Vec<StreamingMoments>,
}

impl WelchAccumulator {
    /// Creates an accumulator sized lazily on the first batch.
    pub fn new() -> Self {
        WelchAccumulator::default()
    }

    /// Number of gates tracked so far.
    pub fn gate_count(&self) -> usize {
        self.fixed.len()
    }

    /// The per-gate moment accumulators of both classes, `(fixed, random)` —
    /// the snapshot side of the distributed shard-state format.
    pub fn classes(&self) -> (&[StreamingMoments], &[StreamingMoments]) {
        (&self.fixed, &self.random)
    }

    /// Restores an accumulator from per-gate class moments (the restore side
    /// of [`WelchAccumulator::classes`]).
    ///
    /// # Panics
    ///
    /// Panics if the class vectors disagree on the gate count.
    pub fn from_classes(fixed: Vec<StreamingMoments>, random: Vec<StreamingMoments>) -> Self {
        assert_eq!(fixed.len(), random.len(), "class gate counts must match");
        WelchAccumulator { fixed, random }
    }

    /// First-order leakage map (t-test on raw samples).
    pub fn leakage(&self) -> GateLeakage {
        let results = self
            .fixed
            .iter()
            .zip(&self.random)
            .map(|(f, r)| welch_t(f, r))
            .collect();
        GateLeakage { results }
    }

    /// Second-order leakage map: t-test on centered squares, computed from
    /// the streamed moments (`μ_y = CM2`, `s²_y = CM4 − CM2²`) without a
    /// second pass — the Schneider–Moradi higher-order trick.
    pub fn leakage_order2(&self) -> GateLeakage {
        let to_sq = |m: &StreamingMoments| {
            let mut sq = StreamingMomentsSummary {
                n: m.count(),
                mean: m.population_variance(),
                var: m.central_moment4() - m.population_variance().powi(2),
            };
            if sq.var < 0.0 {
                sq.var = 0.0;
            }
            sq
        };
        let results = self
            .fixed
            .iter()
            .zip(&self.random)
            .map(|(f, r)| welch_from_summary(to_sq(f), to_sq(r)))
            .collect();
        GateLeakage { results }
    }
}

/// Summary statistics for a preprocessed population.
#[derive(Clone, Copy, Debug)]
struct StreamingMomentsSummary {
    n: u64,
    mean: f64,
    var: f64,
}

fn welch_from_summary(a: StreamingMomentsSummary, b: StreamingMomentsSummary) -> WelchResult {
    if a.n < 2 || b.n < 2 {
        return WelchResult { t: 0.0, dof: 0.0 };
    }
    let n0 = a.n as f64;
    let n1 = b.n as f64;
    // Population→sample variance correction for the derived distribution.
    let v0 = a.var * n0 / (n0 - 1.0);
    let v1 = b.var * n1 / (n1 - 1.0);
    let se2 = v0 / n0 + v1 / n1;
    if se2 <= 0.0 {
        return WelchResult { t: 0.0, dof: 0.0 };
    }
    let t = (a.mean - b.mean) / se2.sqrt();
    let denom = (v0 / n0).powi(2) / (n0 - 1.0) + (v1 / n1).powi(2) / (n1 - 1.0);
    let dof = if denom > 0.0 { se2 * se2 / denom } else { 0.0 };
    WelchResult { t, dof }
}

impl TraceSink for WelchAccumulator {
    /// Consumes the batch as one structure-of-arrays pass: each gate's lane
    /// row feeds a blocked [`StreamingMoments::extend_batch`] update, one
    /// block per 64-trace word. Batches start on word boundaries (the
    /// [`TraceSink`] contract), so every width cuts the stream into the same
    /// words and the accumulator state is independent of the engine's lane
    /// width.
    fn record_batch(&mut self, pop: Population, batch: EnergyBatch<'_>) {
        let gates = batch.gates();
        if self.fixed.is_empty() {
            self.fixed.resize(gates, StreamingMoments::new());
            self.random.resize(gates, StreamingMoments::new());
        }
        let store = match pop {
            Population::Fixed => &mut self.fixed,
            Population::Random => &mut self.random,
        };
        for (g, acc) in store.iter_mut().enumerate().take(gates) {
            acc.extend_batch(batch.gate_lanes(g));
        }
    }
}

impl MergeableSink for WelchAccumulator {
    /// Folds another accumulator in via the pairwise moment combination of
    /// Chan et al. (see [`StreamingMoments::merge`]), gate by gate. Each
    /// campaign worker owns a private `WelchAccumulator`; the engine folds
    /// them in shard order so results are reproducible at any thread count.
    fn merge(&mut self, other: Self) {
        if other.fixed.is_empty() {
            return;
        }
        if self.fixed.is_empty() {
            *self = other;
            return;
        }
        debug_assert_eq!(self.fixed.len(), other.fixed.len(), "gate count mismatch");
        for (a, b) in self.fixed.iter_mut().zip(&other.fixed) {
            a.merge(b);
        }
        for (a, b) in self.random.iter_mut().zip(&other.random) {
            a.merge(b);
        }
    }
}

/// Per-gate t-test results for one design.
#[derive(Clone, Debug)]
pub struct GateLeakage {
    results: Vec<WelchResult>,
}

impl GateLeakage {
    /// Builds a map from raw per-gate results (mainly for tests).
    pub fn from_results(results: Vec<WelchResult>) -> Self {
        GateLeakage { results }
    }

    /// Number of gates assessed.
    pub fn gate_count(&self) -> usize {
        self.results.len()
    }

    /// t-test result of one gate.
    pub fn result(&self, id: GateId) -> WelchResult {
        self.results[id.index()]
    }

    /// `|t|` of one gate — the paper's per-gate "leakage value".
    pub fn abs_t(&self, id: GateId) -> f64 {
        self.results[id.index()].t.abs()
    }

    /// All `|t|` values, indexed by gate.
    pub fn abs_t_all(&self) -> Vec<f64> {
        self.results.iter().map(|r| r.t.abs()).collect()
    }

    /// Gates whose `|t|` exceeds `threshold` (±4.5 in the paper), sorted by
    /// descending `|t|` — the "leaky gates" both VALIANT and POLARIS target.
    pub fn leaky_gates(&self, threshold: f64) -> Vec<GateId> {
        let mut v: Vec<(GateId, f64)> = self
            .results
            .iter()
            .enumerate()
            .filter(|(_, r)| r.t.abs() > threshold)
            .map(|(i, r)| (GateId::new(i), r.t.abs()))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v.into_iter().map(|(id, _)| id).collect()
    }

    /// Largest `|t|` across all gates.
    pub fn max_abs_t(&self) -> f64 {
        self.results.iter().map(|r| r.t.abs()).fold(0.0, f64::max)
    }

    /// Sequential-convergence state of the whole map at a checkpoint with
    /// confidence margin `margin` (see [`WelchResult::resolution`]): counts
    /// of gates resolved leaky, resolved clean, and still undecided.
    pub fn convergence(&self, threshold: f64, margin: f64) -> ConvergenceSummary {
        self.convergence_of((0..self.results.len()).map(GateId::new), threshold, margin)
    }

    /// [`GateLeakage::convergence`] restricted to a subset of gates —
    /// typically the netlist's cells, so the stop decision is keyed to the
    /// same verdict [`GateLeakage::summarize`] reports (inputs, constants
    /// and flops carry no maskable leakage and should not hold a campaign
    /// open).
    pub fn convergence_of<I>(&self, gates: I, threshold: f64, margin: f64) -> ConvergenceSummary
    where
        I: IntoIterator<Item = GateId>,
    {
        let mut s = ConvergenceSummary::default();
        for id in gates {
            match self.results[id.index()].resolution(threshold, margin) {
                Some(true) => s.leaky += 1,
                Some(false) => s.clean += 1,
                None => s.unresolved += 1,
            }
        }
        s
    }

    /// Summary restricted to the netlist's combinational cells (inputs,
    /// constants and flops carry no maskable leakage).
    pub fn summarize(&self, netlist: &Netlist) -> LeakageSummary {
        let cells = netlist.cell_ids();
        let mut sum = 0.0;
        let mut max: f64 = 0.0;
        let mut leaky = 0;
        for &id in &cells {
            let a = self.abs_t(id);
            sum += a;
            max = max.max(a);
            if a > TVLA_THRESHOLD {
                leaky += 1;
            }
        }
        LeakageSummary {
            cells: cells.len(),
            mean_abs_t: if cells.is_empty() {
                0.0
            } else {
                sum / cells.len() as f64
            },
            total_abs_t: sum,
            max_abs_t: max,
            leaky_cells: leaky,
        }
    }
}

/// Per-checkpoint convergence census of a leakage map (sequential-stopping
/// state): every gate is either resolved (leaky / clean with confidence) or
/// still undecided at the current trace count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConvergenceSummary {
    /// Gates whose `|t|` exceeds the leak threshold.
    pub leaky: usize,
    /// Gates confidently below the threshold (`|t| + margin ≤ threshold`).
    pub clean: usize,
    /// Gates in the undecided band.
    pub unresolved: usize,
}

impl ConvergenceSummary {
    /// True when every gate's verdict is resolved — the stopping condition
    /// of the adaptive engine.
    pub fn is_converged(&self) -> bool {
        self.unresolved == 0
    }
}

/// Aggregate leakage over a design's cells.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LeakageSummary {
    /// Number of combinational cells assessed.
    pub cells: usize,
    /// Mean `|t|` per cell — Table II's "Leakage Value (Per Gate)".
    pub mean_abs_t: f64,
    /// Sum of `|t|` over cells — basis of "Total Leakage Reduction (%)".
    pub total_abs_t: f64,
    /// Peak `|t|`.
    pub max_abs_t: f64,
    /// Cells above the ±4.5 threshold.
    pub leaky_cells: usize,
}

impl LeakageSummary {
    /// Total leakage reduction percentage relative to `before`
    /// (Table II semantics: `1 − Σ|t|_after / Σ|t|_before`).
    pub fn reduction_pct_from(&self, before: &LeakageSummary) -> f64 {
        if before.total_abs_t <= 0.0 {
            0.0
        } else {
            (1.0 - self.total_abs_t / before.total_abs_t) * 100.0
        }
    }
}

/// Runs a fixed-vs-random campaign and returns the first-order per-gate
/// leakage map — the paper's `leak_estimate(D)`.
///
/// Single-threaded entry point of the sharded engine: bit-identical to
/// [`assess_parallel`] at any thread count.
///
/// # Errors
///
/// Propagates [`NetlistError`] from simulator compilation.
pub fn assess(
    netlist: &Netlist,
    model: &PowerModel,
    config: &CampaignConfig,
) -> Result<GateLeakage, NetlistError> {
    assess_parallel(netlist, model, config, Parallelism::sequential())
}

/// Runs the campaign across worker threads (each owning a private
/// [`WelchAccumulator`]) and folds the shards at the barrier. The thread
/// count is purely a throughput knob — the leakage map is bit-identical at
/// 1, 2, 8, … threads. A traced run builds the
/// [`FleetJob`](polaris_sim::FleetJob) itself and passes its recorder to
/// [`FleetJob::run`](polaris_sim::FleetJob::run). Kept with this signature for
/// `perfbench/` until a benchmark PR moves it over.
///
/// # Errors
///
/// Propagates [`NetlistError`] from simulator compilation.
pub fn assess_parallel(
    netlist: &Netlist,
    model: &PowerModel,
    config: &CampaignConfig,
    parallelism: Parallelism,
) -> Result<GateLeakage, NetlistError> {
    let acc: WelchAccumulator = run_campaign_parallel(netlist, model, config, parallelism)?;
    Ok(acc.leakage())
}

/// Second-order variant of [`assess`] (centered-square preprocessing).
///
/// # Errors
///
/// Propagates [`NetlistError`] from simulator compilation.
pub fn assess_order2(
    netlist: &Netlist,
    model: &PowerModel,
    config: &CampaignConfig,
) -> Result<GateLeakage, NetlistError> {
    assess_order2_parallel(netlist, model, config, Parallelism::sequential())
}

/// Parallel second-order assessment; same determinism guarantee as
/// [`assess_parallel`].
///
/// # Errors
///
/// Propagates [`NetlistError`] from simulator compilation.
pub fn assess_order2_parallel(
    netlist: &Netlist,
    model: &PowerModel,
    config: &CampaignConfig,
    parallelism: Parallelism,
) -> Result<GateLeakage, NetlistError> {
    let acc: WelchAccumulator = run_campaign_parallel(netlist, model, config, parallelism)?;
    Ok(acc.leakage_order2())
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_netlist::generators;

    fn c17_leakage(traces: usize, seed: u64) -> (polaris_netlist::Netlist, GateLeakage) {
        let n = generators::iscas_c17();
        let cfg = CampaignConfig::new(traces, traces, seed);
        let l = assess(&n, &PowerModel::default(), &cfg).unwrap();
        (n, l)
    }

    #[test]
    fn unprotected_design_leaks() {
        let (n, l) = c17_leakage(600, 3);
        let s = l.summarize(&n);
        assert!(s.max_abs_t > TVLA_THRESHOLD, "max |t| = {}", s.max_abs_t);
        assert!(s.leaky_cells > 0);
        assert!(s.mean_abs_t > 0.0);
    }

    #[test]
    fn inputs_are_not_cells_in_summary() {
        let (n, l) = c17_leakage(200, 3);
        let s = l.summarize(&n);
        assert_eq!(s.cells, 6, "c17 has exactly 6 nand cells");
        assert_eq!(l.gate_count(), n.gate_count());
    }

    #[test]
    fn leaky_gates_sorted_descending() {
        let (_n, l) = c17_leakage(600, 9);
        let leaky = l.leaky_gates(1.0);
        for w in leaky.windows(2) {
            assert!(l.abs_t(w[0]) >= l.abs_t(w[1]));
        }
    }

    #[test]
    fn masked_xor_does_not_leak_first_order() {
        // y = a XOR m where m is a fresh mask: no first-order leakage.
        let src = "
module m (a, m0, y);
  input a;
  mask_input m0;
  output y;
  xor g (y, a, m0);
endmodule";
        let n = polaris_netlist::parse_netlist(src).unwrap();
        let cfg = CampaignConfig::new(2000, 2000, 21);
        let l = assess(&n, &PowerModel::default(), &cfg).unwrap();
        let xor_gate = n
            .iter()
            .find(|(_, g)| g.kind() == polaris_netlist::GateKind::Xor)
            .map(|(id, _)| id)
            .unwrap();
        assert!(
            l.abs_t(xor_gate) < TVLA_THRESHOLD,
            "|t| = {} should be below threshold",
            l.abs_t(xor_gate)
        );
    }

    #[test]
    fn more_traces_increase_confidence() {
        let (n1, l1) = c17_leakage(100, 5);
        let (_, l2) = c17_leakage(1600, 5);
        let s1 = l1.summarize(&n1);
        let s2 = l2.summarize(&n1);
        assert!(
            s2.max_abs_t > s1.max_abs_t,
            "t grows ~√N: {} vs {}",
            s2.max_abs_t,
            s1.max_abs_t
        );
    }

    #[test]
    fn reduction_pct_semantics() {
        let before = LeakageSummary {
            cells: 10,
            mean_abs_t: 2.0,
            total_abs_t: 20.0,
            max_abs_t: 5.0,
            leaky_cells: 5,
        };
        let after = LeakageSummary {
            cells: 10,
            mean_abs_t: 1.0,
            total_abs_t: 10.0,
            max_abs_t: 2.0,
            leaky_cells: 1,
        };
        assert!((after.reduction_pct_from(&before) - 50.0).abs() < 1e-12);
    }

    #[test]
    fn order2_map_has_same_shape() {
        let n = generators::iscas_c17();
        let cfg = CampaignConfig::new(300, 300, 13);
        let l2 = assess_order2(&n, &PowerModel::default(), &cfg).unwrap();
        assert_eq!(l2.gate_count(), n.gate_count());
        // Second-order stats are finite and non-negative.
        for id in n.ids() {
            assert!(l2.abs_t(id).is_finite());
        }
    }

    #[test]
    fn assessment_deterministic_in_seed() {
        let (_, l1) = c17_leakage(300, 77);
        let (_, l2) = c17_leakage(300, 77);
        for i in 0..l1.gate_count() {
            let id = GateId::new(i);
            assert_eq!(l1.result(id), l2.result(id));
        }
    }

    #[test]
    fn parallel_assessment_bit_identical_across_thread_counts() {
        let n = generators::iscas_c17();
        let cfg = CampaignConfig::new(1000, 1000, 13);
        let model = PowerModel::default();
        let base = assess_parallel(&n, &model, &cfg, Parallelism::new(1)).unwrap();
        for threads in [2, 4, 8] {
            let l = assess_parallel(&n, &model, &cfg, Parallelism::new(threads)).unwrap();
            for id in n.ids() {
                assert_eq!(
                    base.result(id).t.to_bits(),
                    l.result(id).t.to_bits(),
                    "t must be byte-identical at {threads} threads (gate {id})"
                );
                assert_eq!(base.result(id).dof.to_bits(), l.result(id).dof.to_bits());
            }
        }
    }

    #[test]
    fn merged_accumulators_track_straight_streaming() {
        // The sharded engine folds per-shard accumulators with the pairwise
        // moment combination; a plain sequential stream into one accumulator
        // must agree to floating-point rounding.
        let n = generators::iscas_c17();
        let cfg = CampaignConfig::new(700, 700, 31);
        let model = PowerModel::default();
        let mut straight = WelchAccumulator::new();
        polaris_sim::campaign::run_campaign(&n, &model, &cfg, &mut straight).unwrap();
        let sharded = assess(&n, &model, &cfg).unwrap();
        for id in n.ids() {
            let a = straight.leakage().result(id).t;
            let b = sharded.result(id).t;
            assert!(
                (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                "gate {id}: straight {a} vs sharded {b}"
            );
        }
    }

    #[test]
    fn welch_accumulator_merge_handles_empty_sides() {
        let n = generators::iscas_c17();
        let cfg = CampaignConfig::new(100, 100, 3);
        let model = PowerModel::default();
        let mut full = WelchAccumulator::new();
        polaris_sim::campaign::run_campaign(&n, &model, &cfg, &mut full).unwrap();
        let reference = full.clone();

        // empty ← full adopts the full accumulator; full ← empty is a no-op.
        let mut empty = WelchAccumulator::new();
        empty.merge(full.clone());
        assert_eq!(empty.gate_count(), reference.gate_count());
        full.merge(WelchAccumulator::new());
        for id in n.ids() {
            assert_eq!(full.leakage().result(id), reference.leakage().result(id));
            assert_eq!(empty.leakage().result(id), reference.leakage().result(id));
        }
    }
}
