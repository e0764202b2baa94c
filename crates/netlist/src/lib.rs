//! Gate-level netlist infrastructure for the POLARIS reproduction.
//!
//! This crate provides the substrate every other crate builds on:
//!
//! * [`Netlist`] — an in-memory gate-level IR (gates, primary inputs/outputs,
//!   dedicated *mask* inputs used by the masking transforms).
//! * [`parser`] and [`bench_format`] — structural-Verilog-subset and ISCAS
//!   `.bench` readers and writers, so designs round-trip as text. Both
//!   readers only scan, and share one name resolver that builds each gate
//!   once.
//! * [`graph`] — adjacency, BFS locality (the `L`-neighborhood used by
//!   POLARIS structural features), levelization and depth queries.
//! * [`generators`] — deterministic synthetic benchmark generators standing in
//!   for the ISCAS-85 training suite and the EPFL / MIT-CEP evaluation suite
//!   used in the paper (see `DESIGN.md` for the substitution rationale).
//! * [`transform`] — generic netlist rewriting passes (n-ary gate
//!   decomposition, mux lowering, dead-gate sweep).
//!
//! # Example
//!
//! ```
//! use polaris_netlist::{GateKind, Netlist};
//!
//! # fn main() -> Result<(), polaris_netlist::NetlistError> {
//! let mut n = Netlist::new("toy");
//! let a = n.add_input("a");
//! let b = n.add_input("b");
//! let g = n.add_gate(GateKind::Nand, "g1", &[a, b])?;
//! n.add_output("y", g)?;
//! n.validate()?;
//! assert_eq!(n.gate_count(), 3);
//! # Ok(())
//! # }
//! ```

pub mod bench_format;
pub mod gate;
pub mod generators;
pub mod graph;
pub mod netlist;
pub mod parser;
mod resolve;
pub mod transform;

pub use bench_format::{parse_bench, write_bench};
pub use gate::{Gate, GateId, GateKind};
pub use graph::{GraphView, Locality};
pub use netlist::{Netlist, NetlistError, NetlistStats};
pub use parser::{parse_netlist, write_netlist, ParseError};
