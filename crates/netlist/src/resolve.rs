//! Name resolution shared by the two text readers.
//!
//! Each reader ([`crate::bench_format`] and [`crate::parser`]) only scans:
//! it slices its source into a [`Design`] of borrowed names, one
//! [`RawGate`] per gate and one flat list of fanin names. [`Design::resolve`]
//! then builds the [`Netlist`] the same way for both formats:
//!
//! 1. every driver is bound to its id in one map, in id order: data inputs,
//!    mask inputs, then gates in source order (a gate's id is fixed by its
//!    position, so feedback through a flip-flop needs no placeholder);
//! 2. each gate is built once, with its fanin resolved, in id order;
//! 3. output ports are bound, and the structure is validated.
//!
//! The first fault in that order is the one reported. The map is std's
//! `HashMap` with its per-process random keys: a served submission's names
//! are untrusted, and an unkeyed hash would let them collide on purpose.

use std::collections::HashMap;
use std::ops::Range;

use crate::gate::{Gate, GateId, GateKind};
use crate::netlist::{Netlist, NetlistError};
use crate::parser::ParseError;

pub(crate) fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// The reader a [`Design`] came from, where the two formats' rules differ.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dialect {
    /// `.bench`: a signal is named by the gate that drives it.
    Bench,
    /// Structural Verilog: instances and wires have separate names, and a
    /// constant with inputs is an error of its own.
    Verilog,
}

impl Dialect {
    fn noun(self) -> &'static str {
        match self {
            Dialect::Bench => "signal",
            Dialect::Verilog => "wire",
        }
    }
}

/// One gate as its reader saw it.
pub(crate) struct RawGate<'a> {
    /// `None` for a `.bench` function no kind matches, reported when
    /// resolution reaches this gate.
    pub kind: Option<GateKind>,
    /// The function or keyword as written, for that report.
    pub func: &'a str,
    /// Instance name.
    pub name: &'a str,
    /// The signal this gate drives.
    pub out: &'a str,
    /// Fanin names, as a range of [`Design::pins`].
    pub ins: Range<usize>,
    /// 1-based source line.
    pub line: usize,
}

/// A scanned source: borrowed names and their lines, not yet resolved.
pub(crate) struct Design<'a> {
    pub name: &'a str,
    pub inputs: Vec<(&'a str, usize)>,
    pub mask_inputs: Vec<(&'a str, usize)>,
    pub outputs: Vec<(&'a str, usize)>,
    pub gates: Vec<RawGate<'a>>,
    /// Every gate's fanin names, back to back.
    pub pins: Vec<&'a str>,
}

impl<'a> Design<'a> {
    pub(crate) fn new(name: &'a str) -> Self {
        Design {
            name,
            inputs: Vec::new(),
            mask_inputs: Vec::new(),
            outputs: Vec::new(),
            gates: Vec::new(),
            pins: Vec::new(),
        }
    }

    /// Builds the netlist, or reports the first fault in resolution order.
    pub(crate) fn resolve(&self, dialect: Dialect) -> Result<Netlist, ParseError> {
        let noun = dialect.noun();
        let two_drivers =
            |sig: &str, line: usize| err(line, format!("{noun} `{sig}` has two drivers"));
        let total = self.inputs.len() + self.mask_inputs.len() + self.gates.len();
        let mut netlist = Netlist::new(self.name);
        netlist.reserve(total);
        let mut driver: HashMap<&str, GateId> = HashMap::with_capacity(total);
        for &(sig, line) in &self.inputs {
            let id = netlist.add_input(sig);
            if driver.insert(sig, id).is_some() {
                return Err(two_drivers(sig, line));
            }
        }
        for &(sig, line) in &self.mask_inputs {
            let id = netlist.add_mask_input(sig);
            if driver.insert(sig, id).is_some() {
                return Err(two_drivers(sig, line));
            }
        }
        let first = netlist.gate_count();
        for (k, g) in self.gates.iter().enumerate() {
            if g.kind.is_none() {
                let func = g.func.to_uppercase();
                return Err(err(g.line, format!("unknown function `{func}`")));
            }
            if driver.insert(g.out, GateId::new(first + k)).is_some() {
                return Err(two_drivers(g.out, g.line));
            }
        }

        for g in &self.gates {
            let kind = g.kind.expect("kinds checked above");
            let pins = &self.pins[g.ins.clone()];
            if dialect == Dialect::Verilog && kind.is_const() && !pins.is_empty() {
                return Err(err(g.line, "constants take no inputs"));
            }
            let fanin = pins
                .iter()
                .map(|sig| {
                    driver
                        .get(sig)
                        .copied()
                        .ok_or_else(|| err(g.line, format!("{noun} `{sig}` is never driven")))
                })
                .collect::<Result<Vec<GateId>, ParseError>>()?;
            let (lo, hi) = kind.arity();
            if fanin.len() < lo || fanin.len() > hi {
                let bad = NetlistError::BadArity {
                    gate: GateId::new(netlist.gate_count()),
                    kind,
                    found: fanin.len(),
                };
                return Err(err(g.line, bad.to_string()));
            }
            netlist.push_gate(Gate::new(kind, g.name, fanin));
        }

        for &(sig, line) in &self.outputs {
            let Some(&d) = driver.get(sig) else {
                return Err(err(line, format!("output `{sig}` is never driven")));
            };
            netlist
                .add_output(sig, d)
                .map_err(|e| err(line, e.to_string()))?;
        }
        netlist
            .validate()
            .map_err(|e| err(0, format!("invalid netlist: {e}")))?;
        Ok(netlist)
    }
}
