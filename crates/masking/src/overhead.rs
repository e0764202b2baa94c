//! Area / power / delay overhead analysis (Table IV of the paper).
//!
//! * **Area** — sum of cell areas from the [`CellLibrary`].
//! * **Delay** — static timing analysis: the longest register-to-register /
//!   port-to-port combinational path, using per-cell propagation delays.
//! * **Power** — dynamic power from *simulated* switching activity: a short
//!   random-stimulus campaign counts per-gate toggles, each weighted by the
//!   cell's energy-per-toggle. Masked composites therefore show their true
//!   cost: mask-driven gates toggle roughly every other cycle.

use polaris_netlist::{GateKind, Netlist, NetlistError};
use polaris_sim::{CampaignConfig, EnergyBatch, Population, TraceSink};

use crate::tech::CellLibrary;

/// Physical cost of a design.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Overhead {
    /// Total standard-cell area in µm².
    pub area_um2: f64,
    /// Estimated dynamic power in mW (at the implicit 1 GHz of one toggle
    /// set per ns: pJ/cycle ≡ mW).
    pub power_mw: f64,
    /// Critical-path delay in ns.
    pub delay_ns: f64,
}

impl Overhead {
    /// Ratio of each metric to a baseline (`x Original` in Table IV).
    pub fn ratio_to(&self, baseline: &Overhead) -> Overhead {
        let div = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        Overhead {
            area_um2: div(self.area_um2, baseline.area_um2),
            power_mw: div(self.power_mw, baseline.power_mw),
            delay_ns: div(self.delay_ns, baseline.delay_ns),
        }
    }
}

/// Counts average toggles per gate per trace under random stimulus.
#[derive(Default)]
struct ActivityProbe {
    /// Mean energy is unused; we only need mean toggle count per gate, which
    /// equals the mean of the (noise-free) energy samples divided by the
    /// per-gate cap — so the probe runs with a unit-cap, zero-noise model.
    sums: Vec<f64>,
    traces: usize,
}

impl TraceSink for ActivityProbe {
    /// Adds each gate's energies to its sum, and counts a block's traces
    /// once, with the batch that starts at gate 0.
    fn record_batch(&mut self, pop: Population, batch: EnergyBatch<'_>) {
        if pop != Population::Random {
            return;
        }
        let gates = batch.first_gate()..batch.first_gate() + batch.gates();
        if self.sums.len() < batch.design_gates() {
            self.sums.resize(batch.design_gates(), 0.0);
        }
        for (g, sum) in self.sums[gates].iter_mut().enumerate() {
            for &e in batch.gate_lanes(g) {
                *sum += e;
            }
        }
        if batch.first_gate() == 0 {
            self.traces += batch.lanes();
        }
    }
}

/// Computes the overhead of a design.
///
/// `activity_traces` random-stimulus traces estimate switching activity for
/// the power figure (64–256 is plenty; activity converges fast).
///
/// # Errors
///
/// Propagates [`NetlistError`] from simulation.
pub fn analyze_overhead(
    netlist: &Netlist,
    lib: &CellLibrary,
    activity_traces: usize,
    seed: u64,
) -> Result<Overhead, NetlistError> {
    let area_um2: f64 = netlist.iter().map(|(_, g)| lib.area_um2(g.kind())).sum();
    let delay_ns = critical_path_ns(netlist, lib)?;

    // Unit-cap, noise-free probe: sample mean per gate == mean toggles.
    let mut unit_caps = [1.0; GateKind::ALL.len()];
    unit_caps[GateKind::Input.ordinal()] = 1.0;
    let probe_model = polaris_sim::PowerModel::new(unit_caps, 0.0);
    let cfg = CampaignConfig::new(0, activity_traces.max(1), seed);
    let mut probe = ActivityProbe::default();
    polaris_sim::campaign::run_campaign(netlist, &probe_model, &cfg, &mut probe)?;
    let traces = probe.traces.max(1) as f64;
    let power_mw: f64 = netlist
        .iter()
        .map(|(id, g)| lib.energy_pj(g.kind()) * probe.sums[id.index()] / traces)
        .sum();

    Ok(Overhead {
        area_um2,
        power_mw,
        delay_ns,
    })
}

/// Longest combinational path delay: arrival-time propagation over the
/// levelized netlist, with flip-flop outputs and ports as path sources and
/// flip-flop inputs and ports as path endpoints.
///
/// # Errors
///
/// Propagates [`NetlistError::CombinationalCycle`].
pub fn critical_path_ns(netlist: &Netlist, lib: &CellLibrary) -> Result<f64, NetlistError> {
    let order = netlist.topo_order()?;
    let mut arrival = vec![0.0f64; netlist.gate_count()];
    let mut worst: f64 = 0.0;
    for id in order {
        let gate = netlist.gate(id);
        if gate.kind().is_sequential() || gate.kind().is_input() || gate.kind().is_const() {
            arrival[id.index()] = 0.0;
            continue;
        }
        let input_arrival = gate
            .fanin()
            .iter()
            .map(|f| arrival[f.index()])
            .fold(0.0, f64::max);
        let a = input_arrival + lib.delay_ns(gate.kind());
        arrival[id.index()] = a;
        worst = worst.max(a);
    }
    // Paths ending at flip-flop data pins.
    for (_, gate) in netlist.iter() {
        if gate.kind().is_sequential() {
            worst = worst.max(arrival[gate.fanin()[0].index()]);
        }
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::{apply_masking, MaskingStyle};
    use polaris_netlist::generators;
    use polaris_netlist::transform::decompose;

    #[test]
    fn chain_delay_adds_up() {
        // a -> NOT -> NOT -> y: delay = 2 × not.
        let src = "
module t (a, y);
  input a;
  output y;
  not n1 (w, a);
  not n2 (y, w);
endmodule";
        let n = polaris_netlist::parse_netlist(src).unwrap();
        let lib = CellLibrary::default();
        let d = critical_path_ns(&n, &lib).unwrap();
        assert!((d - 2.0 * lib.delay_ns(GateKind::Not)).abs() < 1e-12);
    }

    #[test]
    fn dff_cuts_timing_paths() {
        // NOT -> DFF -> NOT: critical path is one NOT, not two.
        let src = "
module t (a, y);
  input a;
  output y;
  not n1 (w, a);
  dff r (q, w);
  not n2 (y, q);
endmodule";
        let n = polaris_netlist::parse_netlist(src).unwrap();
        let lib = CellLibrary::default();
        let d = critical_path_ns(&n, &lib).unwrap();
        assert!((d - lib.delay_ns(GateKind::Not)).abs() < 1e-12);
    }

    #[test]
    fn area_is_sum_of_cells() {
        let n = generators::iscas_c17();
        let lib = CellLibrary::default();
        let o = analyze_overhead(&n, &lib, 32, 1).unwrap();
        assert!((o.area_um2 - 6.0 * lib.area_um2(GateKind::Nand)).abs() < 1e-9);
    }

    #[test]
    fn masking_increases_every_metric() {
        let (d, _) = decompose(&generators::iscas_c17()).unwrap();
        let lib = CellLibrary::default();
        let base = analyze_overhead(&d, &lib, 64, 3).unwrap();
        let masked = apply_masking(&d, &d.cell_ids(), MaskingStyle::Trichina).unwrap();
        let cost = analyze_overhead(&masked.netlist, &lib, 64, 3).unwrap();
        assert!(cost.area_um2 > base.area_um2 * 2.0);
        assert!(cost.power_mw > base.power_mw * 1.5);
        assert!(cost.delay_ns > base.delay_ns);
        let r = cost.ratio_to(&base);
        assert!(
            r.area_um2 > 2.0 && r.area_um2 < 20.0,
            "area ratio {}",
            r.area_um2
        );
    }

    #[test]
    fn partial_masking_costs_less_than_full() {
        let (d, _) = decompose(&generators::des3(1, 5)).unwrap();
        let lib = CellLibrary::default();
        let cells = d.cell_ids();
        let half: Vec<_> = cells.iter().step_by(2).copied().collect();
        let full = apply_masking(&d, &cells, MaskingStyle::Trichina).unwrap();
        let part = apply_masking(&d, &half, MaskingStyle::Trichina).unwrap();
        let of = analyze_overhead(&full.netlist, &lib, 32, 3).unwrap();
        let op = analyze_overhead(&part.netlist, &lib, 32, 3).unwrap();
        assert!(op.area_um2 < of.area_um2);
        assert!(op.power_mw < of.power_mw);
    }

    /// Pins the power figure's exact bits. The probe counts each block's
    /// traces once, so however the engine cuts a block into batches, the
    /// per-gate activity means and so the figure stay the same.
    #[test]
    fn power_bits_are_pinned() {
        let lib = CellLibrary::default();
        for (netlist, want) in [
            (generators::iscas_c17(), 0x3f90_bb6e_d677_707au64),
            (generators::des3(1, 5), 0x3ff6_41f2_12d7_731e),
        ] {
            let power = analyze_overhead(&netlist, &lib, 700, 7).unwrap().power_mw;
            assert_eq!(
                power.to_bits(),
                want,
                "{} gates: {power} mW ({:#018x})",
                netlist.gate_count(),
                power.to_bits()
            );
        }
    }

    #[test]
    fn ratio_handles_zero_baseline() {
        let z = Overhead::default();
        let r = z.ratio_to(&z);
        assert_eq!(r, Overhead::default());
    }
}
