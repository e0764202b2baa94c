//! The [`Netlist`] container and its structural invariants.

use std::collections::HashSet;
use std::error::Error;
use std::fmt;

use crate::gate::{Gate, GateId, GateKind};

/// Error raised when a netlist violates a structural invariant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetlistError {
    /// A gate references a fanin id that does not exist.
    DanglingFanin {
        /// The offending gate.
        gate: GateId,
        /// The missing driver id.
        fanin: GateId,
    },
    /// A gate has the wrong number of fanins for its kind.
    BadArity {
        /// The offending gate.
        gate: GateId,
        /// The gate's kind.
        kind: GateKind,
        /// Number of fanins found.
        found: usize,
    },
    /// The combinational part of the design contains a cycle.
    CombinationalCycle {
        /// A gate on the cycle.
        gate: GateId,
    },
    /// An output refers to a gate that does not exist.
    DanglingOutput {
        /// Output port name.
        port: String,
        /// The missing driver id.
        driver: GateId,
    },
    /// Two gates share an instance name.
    DuplicateName {
        /// The duplicated name.
        name: String,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::DanglingFanin { gate, fanin } => {
                write!(f, "gate {gate} references missing fanin {fanin}")
            }
            NetlistError::BadArity { gate, kind, found } => {
                write!(
                    f,
                    "gate {gate} of kind {kind} has invalid fanin count {found}"
                )
            }
            NetlistError::CombinationalCycle { gate } => {
                write!(f, "combinational cycle through gate {gate}")
            }
            NetlistError::DanglingOutput { port, driver } => {
                write!(f, "output port {port} references missing gate {driver}")
            }
            NetlistError::DuplicateName { name } => {
                write!(f, "duplicate instance name {name}")
            }
        }
    }
}

impl Error for NetlistError {}

/// Aggregate statistics over a netlist, used in reports.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetlistStats {
    /// Total gates including inputs/constants/flip-flops.
    pub total: usize,
    /// Combinational logic cells (maskable gates).
    pub cells: usize,
    /// Primary data inputs.
    pub data_inputs: usize,
    /// Mask randomness inputs.
    pub mask_inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// Flip-flops.
    pub flops: usize,
    /// Histogram over [`GateKind::ALL`] ordinals.
    pub kind_histogram: Vec<usize>,
}

/// A gate-level netlist: a DAG of [`Gate`]s (cycles are only allowed through
/// flip-flops), plus primary input/output bindings.
///
/// Inputs come in two flavours: *data* inputs (the functional interface) and
/// *mask* inputs (fresh-randomness ports added by masking transforms). Trace
/// campaigns re-randomize mask inputs on every trace for both TVLA
/// populations, which is what models the physical remasking of a protected
/// implementation.
///
/// # Example
///
/// ```
/// use polaris_netlist::{GateKind, Netlist};
/// # fn main() -> Result<(), polaris_netlist::NetlistError> {
/// let mut n = Netlist::new("half_adder");
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let s = n.add_gate(GateKind::Xor, "s", &[a, b])?;
/// let c = n.add_gate(GateKind::And, "c", &[a, b])?;
/// n.add_output("sum", s)?;
/// n.add_output("carry", c)?;
/// n.validate()?;
/// assert_eq!(n.stats().cells, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Netlist {
    name: String,
    gates: Vec<Gate>,
    data_inputs: Vec<GateId>,
    mask_inputs: Vec<GateId>,
    outputs: Vec<(String, GateId)>,
}

impl Netlist {
    /// Creates an empty netlist with the given design name.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            gates: Vec::new(),
            data_inputs: Vec::new(),
            mask_inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the design.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Adds a primary *data* input and returns its gate id.
    pub fn add_input(&mut self, name: impl Into<String>) -> GateId {
        let id = self.push_gate(Gate::new(GateKind::Input, name, Vec::new()));
        self.data_inputs.push(id);
        id
    }

    /// Adds a *mask randomness* input and returns its gate id.
    ///
    /// Mask inputs are re-randomized every trace by the simulator's trace
    /// campaigns, independent of the fixed/random TVLA classes.
    pub fn add_mask_input(&mut self, name: impl Into<String>) -> GateId {
        let id = self.push_gate(Gate::new(GateKind::Input, name, Vec::new()));
        self.mask_inputs.push(id);
        id
    }

    /// Adds a gate of `kind` driven by `fanin` and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BadArity`] if the fanin count is invalid for
    /// `kind`, or [`NetlistError::DanglingFanin`] if a driver id does not
    /// exist yet. (Feedback through flip-flops can be created with
    /// [`Netlist::add_dff_placeholder`] + [`Netlist::connect_dff`].)
    pub fn add_gate(
        &mut self,
        kind: GateKind,
        name: impl Into<String>,
        fanin: &[GateId],
    ) -> Result<GateId, NetlistError> {
        let (lo, hi) = kind.arity();
        if fanin.len() < lo || fanin.len() > hi {
            return Err(NetlistError::BadArity {
                gate: GateId::new(self.gates.len()),
                kind,
                found: fanin.len(),
            });
        }
        for &f in fanin {
            if f.index() >= self.gates.len() {
                return Err(NetlistError::DanglingFanin {
                    gate: GateId::new(self.gates.len()),
                    fanin: f,
                });
            }
        }
        Ok(self.push_gate(Gate::new(kind, name, fanin.to_vec())))
    }

    /// Adds a flip-flop whose data input will be connected later, enabling
    /// feedback loops. The placeholder drives itself until
    /// [`Netlist::connect_dff`] is called.
    pub fn add_dff_placeholder(&mut self, name: impl Into<String>) -> GateId {
        let id = GateId::new(self.gates.len());
        self.push_gate(Gate::new(GateKind::Dff, name, vec![id]));
        id
    }

    /// Connects the data input of a flip-flop created with
    /// [`Netlist::add_dff_placeholder`].
    ///
    /// # Panics
    ///
    /// Panics if `dff` is not a flip-flop or `d` does not exist.
    pub fn connect_dff(&mut self, dff: GateId, d: GateId) {
        assert!(d.index() < self.gates.len(), "dangling dff data input");
        let gate = &mut self.gates[dff.index()];
        assert_eq!(gate.kind(), GateKind::Dff, "connect_dff on non-dff gate");
        *gate = Gate::new(GateKind::Dff, gate.name().to_string(), vec![d]);
    }

    /// Reserves an id for a gate of `kind` whose fanin will be provided later
    /// via [`Netlist::replace_fanin`], so a gate can be referenced before its
    /// own fanin is known.
    ///
    /// Until connected, the placeholder has an empty fanin and will fail
    /// [`Netlist::validate`] for kinds whose minimum arity is nonzero.
    pub fn add_placeholder(&mut self, kind: GateKind, name: impl Into<String>) -> GateId {
        if kind == GateKind::Dff {
            return self.add_dff_placeholder(name);
        }
        self.push_gate(Gate::new(kind, name, Vec::new()))
    }

    /// Replaces the kind and fanin of an existing gate (typically a
    /// placeholder from [`Netlist::add_placeholder`]).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BadArity`] or [`NetlistError::DanglingFanin`]
    /// under the same rules as [`Netlist::add_gate`].
    pub fn replace_fanin(
        &mut self,
        id: GateId,
        kind: GateKind,
        fanin: &[GateId],
    ) -> Result<(), NetlistError> {
        let (lo, hi) = kind.arity();
        if fanin.len() < lo || fanin.len() > hi {
            return Err(NetlistError::BadArity {
                gate: id,
                kind,
                found: fanin.len(),
            });
        }
        for &f in fanin {
            if f.index() >= self.gates.len() {
                return Err(NetlistError::DanglingFanin { gate: id, fanin: f });
            }
        }
        let name = self.gates[id.index()].name().to_string();
        self.gates[id.index()] = Gate::new(kind, name, fanin.to_vec());
        Ok(())
    }

    /// Binds an output port to its driver gate.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DanglingOutput`] if `driver` does not exist.
    pub fn add_output(
        &mut self,
        port: impl Into<String>,
        driver: GateId,
    ) -> Result<(), NetlistError> {
        let port = port.into();
        if driver.index() >= self.gates.len() {
            return Err(NetlistError::DanglingOutput { port, driver });
        }
        self.outputs.push((port, driver));
        Ok(())
    }

    /// Appends `gate` unchecked: its fanin may name ids not pushed yet. The
    /// text readers resolve every name before they push, and validate after.
    pub(crate) fn push_gate(&mut self, gate: Gate) -> GateId {
        let id = GateId::new(self.gates.len());
        self.gates.push(gate);
        id
    }

    /// Reserves room for `additional` more gates.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.gates.reserve(additional);
    }

    /// Number of gates (including input/constant pseudo-gates).
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Access a gate by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Iterates over `(id, gate)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (GateId, &Gate)> {
        self.gates
            .iter()
            .enumerate()
            .map(|(i, g)| (GateId::new(i), g))
    }

    /// All gate ids in id order.
    pub fn ids(&self) -> impl Iterator<Item = GateId> + '_ {
        (0..self.gates.len()).map(GateId::new)
    }

    /// Primary data inputs in declaration order.
    pub fn data_inputs(&self) -> &[GateId] {
        &self.data_inputs
    }

    /// Mask randomness inputs in declaration order.
    pub fn mask_inputs(&self) -> &[GateId] {
        &self.mask_inputs
    }

    /// Output port bindings in declaration order.
    pub fn outputs(&self) -> &[(String, GateId)] {
        &self.outputs
    }

    /// Ids of all combinational logic cells (the maskable gates).
    pub fn cell_ids(&self) -> Vec<GateId> {
        self.iter()
            .filter(|(_, g)| g.kind().is_combinational_cell())
            .map(|(id, _)| id)
            .collect()
    }

    /// Builds the fanout adjacency: `fanouts[i]` lists every gate that reads
    /// gate `i`.
    pub fn fanouts(&self) -> Vec<Vec<GateId>> {
        let mut out = vec![Vec::new(); self.gates.len()];
        for (id, gate) in self.iter() {
            for &f in gate.fanin() {
                out[f.index()].push(id);
            }
        }
        out
    }

    /// Checks every structural invariant.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant: dangling fanins/outputs, arity
    /// violations, duplicate instance names, or a combinational cycle.
    pub fn validate(&self) -> Result<(), NetlistError> {
        let mut names: HashSet<&str> = HashSet::with_capacity(self.gates.len());
        for (id, gate) in self.iter() {
            let (lo, hi) = gate.kind().arity();
            let n = gate.fanin().len();
            if n < lo || n > hi {
                return Err(NetlistError::BadArity {
                    gate: id,
                    kind: gate.kind(),
                    found: n,
                });
            }
            for &f in gate.fanin() {
                if f.index() >= self.gates.len() {
                    return Err(NetlistError::DanglingFanin { gate: id, fanin: f });
                }
            }
            if !gate.name().is_empty() && !names.insert(gate.name()) {
                return Err(NetlistError::DuplicateName {
                    name: gate.name().to_string(),
                });
            }
        }
        for (port, driver) in &self.outputs {
            if driver.index() >= self.gates.len() {
                return Err(NetlistError::DanglingOutput {
                    port: port.clone(),
                    driver: *driver,
                });
            }
        }
        self.topo_order().map(|_| ())
    }

    /// Topological order of the *combinational* graph: inputs, constants and
    /// flip-flops are sources; a flip-flop's data input is consumed at the
    /// end of a cycle so it does not create a combinational edge.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if combinational feedback
    /// exists.
    pub fn topo_order(&self) -> Result<Vec<GateId>, NetlistError> {
        let n = self.gates.len();
        // Only combinational consumers count: a dff reads its fanin at the
        // clock edge, so it contributes no combinational edge. The edges sit
        // in one flat table, grouped by driver (`sinks[start[i]..start[i + 1]]`
        // are gate i's readers, in id order).
        let comb = |g: &Gate| !g.kind().is_sequential();
        let mut indegree = vec![0usize; n];
        let mut start = vec![0usize; n + 1];
        for gate in self.gates.iter().filter(|g| comb(g)) {
            for &f in gate.fanin() {
                start[f.index() + 1] += 1;
            }
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut fill = start.clone();
        let mut sinks = vec![GateId::new(0); start[n]];
        let mut queue: Vec<GateId> = Vec::with_capacity(n);
        for (id, gate) in self.iter() {
            if !comb(gate) || gate.fanin().is_empty() {
                queue.push(id);
                continue;
            }
            indegree[id.index()] = gate.fanin().len();
            for &f in gate.fanin() {
                sinks[fill[f.index()]] = id;
                fill[f.index()] += 1;
            }
        }
        let mut head = 0;
        while head < queue.len() {
            let id = queue[head];
            head += 1;
            let readers = start[id.index()]..start[id.index() + 1];
            for &sink in &sinks[readers] {
                indegree[sink.index()] -= 1;
                if indegree[sink.index()] == 0 {
                    queue.push(sink);
                }
            }
        }
        if queue.len() != n {
            let stuck = self
                .ids()
                .find(|id| comb(&self.gates[id.index()]) && indegree[id.index()] > 0)
                .expect("some gate must be stuck on a cycle");
            return Err(NetlistError::CombinationalCycle { gate: stuck });
        }
        Ok(queue)
    }

    /// Combinational depth (level) of every gate: inputs/constants/flops are
    /// level 0, every other gate is `1 + max(level of fanins)`.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError::CombinationalCycle`].
    pub fn levels(&self) -> Result<Vec<usize>, NetlistError> {
        let order = self.topo_order()?;
        let mut level = vec![0usize; self.gates.len()];
        for id in order {
            let gate = &self.gates[id.index()];
            if gate.kind().is_sequential() || gate.fanin().is_empty() {
                level[id.index()] = 0;
            } else {
                level[id.index()] = 1 + gate
                    .fanin()
                    .iter()
                    .map(|f| level[f.index()])
                    .max()
                    .unwrap_or(0);
            }
        }
        Ok(level)
    }

    /// True if the design contains no flip-flops.
    pub fn is_combinational(&self) -> bool {
        self.gates.iter().all(|g| !g.kind().is_sequential())
    }

    /// Computes aggregate statistics.
    pub fn stats(&self) -> NetlistStats {
        let mut hist = vec![0usize; GateKind::ALL.len()];
        let mut cells = 0;
        let mut flops = 0;
        for g in &self.gates {
            hist[g.kind().ordinal()] += 1;
            if g.kind().is_combinational_cell() {
                cells += 1;
            }
            if g.kind().is_sequential() {
                flops += 1;
            }
        }
        NetlistStats {
            total: self.gates.len(),
            cells,
            data_inputs: self.data_inputs.len(),
            mask_inputs: self.mask_inputs.len(),
            outputs: self.outputs.len(),
            flops,
            kind_histogram: hist,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn half_adder() -> Netlist {
        let mut n = Netlist::new("ha");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let s = n.add_gate(GateKind::Xor, "s", &[a, b]).unwrap();
        let c = n.add_gate(GateKind::And, "c", &[a, b]).unwrap();
        n.add_output("sum", s).unwrap();
        n.add_output("carry", c).unwrap();
        n
    }

    #[test]
    fn build_and_validate() {
        let n = half_adder();
        n.validate().unwrap();
        assert_eq!(n.gate_count(), 4);
        assert_eq!(n.stats().cells, 2);
        assert_eq!(n.stats().data_inputs, 2);
        assert_eq!(n.stats().outputs, 2);
    }

    #[test]
    fn arity_is_enforced_on_add() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let err = n.add_gate(GateKind::And, "g", &[a]).unwrap_err();
        assert!(matches!(err, NetlistError::BadArity { .. }));
    }

    #[test]
    fn dangling_fanin_rejected() {
        let mut n = Netlist::new("t");
        let err = n
            .add_gate(GateKind::Not, "g", &[GateId::new(5)])
            .unwrap_err();
        assert!(matches!(err, NetlistError::DanglingFanin { .. }));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut n = Netlist::new("t");
        let a = n.add_input("x");
        let _ = n.add_gate(GateKind::Not, "x", &[a]).unwrap();
        let err = n.validate().unwrap_err();
        assert!(matches!(err, NetlistError::DuplicateName { .. }));
    }

    #[test]
    fn topo_order_is_consistent() {
        let n = half_adder();
        let order = n.topo_order().unwrap();
        assert_eq!(order.len(), n.gate_count());
        let pos: Vec<usize> = {
            let mut p = vec![0; n.gate_count()];
            for (i, id) in order.iter().enumerate() {
                p[id.index()] = i;
            }
            p
        };
        for (id, g) in n.iter() {
            if g.kind().is_sequential() {
                continue;
            }
            for &f in g.fanin() {
                assert!(pos[f.index()] < pos[id.index()], "fanin after sink");
            }
        }
    }

    #[test]
    fn dff_breaks_cycles() {
        let mut n = Netlist::new("counter_bit");
        let q = n.add_dff_placeholder("q");
        let d = n.add_gate(GateKind::Not, "inv", &[q]).unwrap();
        n.connect_dff(q, d);
        n.add_output("out", q).unwrap();
        n.validate().unwrap();
        assert!(!n.is_combinational());
        assert_eq!(n.stats().flops, 1);
    }

    #[test]
    fn combinational_cycle_detected() {
        // Build a cycle by hand: g1 = not g2, g2 = not g1. We must bypass
        // add_gate's dangling check, so build via placeholder misuse is not
        // possible; instead we use two buffers and rewire through connect_dff
        // misuse — not allowed. Simplest: construct directly.
        let mut n = Netlist::new("cyc");
        let a = n.add_input("a");
        let g1 = n.add_gate(GateKind::And, "g1", &[a, a]).unwrap();
        let g2 = n.add_gate(GateKind::And, "g2", &[g1, a]).unwrap();
        // Manually create the cycle through internal representation.
        n.gates[g1.index()] = Gate::new(GateKind::And, "g1", vec![g2, a]);
        let err = n.validate().unwrap_err();
        assert!(matches!(err, NetlistError::CombinationalCycle { .. }));
    }

    #[test]
    fn levels_monotone_along_edges() {
        let n = half_adder();
        let levels = n.levels().unwrap();
        for (id, g) in n.iter() {
            if g.kind().is_sequential() {
                continue;
            }
            for &f in g.fanin() {
                assert!(levels[f.index()] < levels[id.index()]);
            }
        }
    }

    #[test]
    fn mask_inputs_tracked_separately() {
        let mut n = Netlist::new("m");
        let a = n.add_input("a");
        let m = n.add_mask_input("m0");
        let g = n.add_gate(GateKind::Xor, "g", &[a, m]).unwrap();
        n.add_output("y", g).unwrap();
        assert_eq!(n.data_inputs(), &[a]);
        assert_eq!(n.mask_inputs(), &[m]);
        assert_eq!(n.stats().mask_inputs, 1);
    }

    #[test]
    fn fanouts_are_inverse_of_fanins() {
        let n = half_adder();
        let fo = n.fanouts();
        for (id, g) in n.iter() {
            for &f in g.fanin() {
                assert!(fo[f.index()].contains(&id));
            }
        }
    }
}
