//! Textual netlist format: a small structural-Verilog subset.
//!
//! The grammar (whitespace-insensitive, `//` line comments):
//!
//! ```text
//! module <name> ( <port> [, <port>]* ) ;
//!   input  a, b, c ;
//!   mask_input m0, m1 ;           // extension: mask randomness ports
//!   output y, z ;
//!   wire   w1, w2 ;               // optional, informational only
//!   <kind> <inst> ( <out> , <in>* ) ;
//!   ...
//! endmodule
//! ```
//!
//! `<kind>` is one of `buf not and or nand nor xor xnor mux dff const0
//! const1`. The first terminal of an instance is the driven wire; the rest
//! are inputs. `mux` pin order is `(out, sel, a, b)` computing
//! `out = sel ? a : b`; `dff` is `(q, d)` with an implicit global clock.
//!
//! [`parse_netlist`] only scans: a cursor slices the source into tokens on
//! demand, with no `String` per token, up to `endmodule`, so a syntax error
//! anywhere wins over a naming fault. The names then go to the resolver the
//! `.bench` reader shares (`resolve::Design::resolve`), which binds every
//! wire to its driver and builds each gate once, in id order: inputs, mask
//! inputs, then instances in source order.
//!
//! # Example
//!
//! ```
//! use polaris_netlist::{parse_netlist, write_netlist};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = "
//! module ha (a, b, s, c);
//!   input a, b;
//!   output s, c;
//!   xor x1 (s, a, b);
//!   and a1 (c, a, b);
//! endmodule";
//! let n = parse_netlist(src)?;
//! let text = write_netlist(&n);
//! let n2 = parse_netlist(&text)?;
//! // The writer adds one buffer per output port, otherwise structure is kept.
//! assert_eq!(n2.gate_count(), n.gate_count() + n.outputs().len());
//! assert_eq!(n2.outputs().len(), n.outputs().len());
//! # Ok(())
//! # }
//! ```

use std::error::Error;
use std::fmt;

use crate::gate::{GateId, GateKind};
use crate::netlist::Netlist;
use crate::resolve::{err, Design, Dialect, RawGate};

/// Error produced when parsing a textual netlist.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending token (0 when unknown).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

/// A token: a slice of the source and its 1-based line.
#[derive(Clone, Copy)]
struct Token<'a> {
    text: &'a str,
    line: usize,
}

/// Identifier characters: alphanumerics (Unicode), `_`, `$` and `.`.
fn is_word(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '$' || c == '.'
}

/// Slices the source into tokens on demand: runs of identifier characters,
/// and every other character that is not whitespace on its own. `//`
/// comments run to the end of their line.
struct Cursor<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    /// The character at `pos` and its length in bytes.
    fn peek(&self) -> Option<(char, usize)> {
        let b = *self.src.as_bytes().get(self.pos)?;
        if b.is_ascii() {
            return Some((char::from(b), 1));
        }
        let c = self.src[self.pos..].chars().next()?;
        Some((c, c.len_utf8()))
    }

    fn next(&mut self) -> Option<Token<'a>> {
        let bytes = self.src.as_bytes();
        loop {
            let (c, len) = self.peek()?;
            if c == '\n' {
                self.line += 1;
            } else if c == '/' && bytes.get(self.pos + 1) == Some(&b'/') {
                self.pos = bytes[self.pos..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(bytes.len(), |k| self.pos + k);
                continue;
            } else if is_word(c) {
                let start = self.pos;
                self.pos += len;
                while let Some((_, len)) = self.peek().filter(|&(c, _)| is_word(c)) {
                    self.pos += len;
                }
                return Some(Token {
                    text: &self.src[start..self.pos],
                    line: self.line,
                });
            } else if !c.is_whitespace() {
                let start = self.pos;
                self.pos += len;
                return Some(Token {
                    text: &self.src[start..self.pos],
                    line: self.line,
                });
            }
            self.pos += len;
        }
    }

    fn expect(&mut self, text: &str) -> Result<Token<'a>, ParseError> {
        match self.next() {
            Some(t) if t.text == text => Ok(t),
            Some(t) => Err(err(
                t.line,
                format!("expected `{text}`, found `{}`", t.text),
            )),
            None => Err(err(0, format!("expected `{text}`, found end of input"))),
        }
    }

    fn ident(&mut self) -> Result<Token<'a>, ParseError> {
        match self.next() {
            Some(t) if starts_ident(t.text) => Ok(t),
            Some(t) => Err(err(
                t.line,
                format!("expected identifier, found `{}`", t.text),
            )),
            None => Err(err(0, "expected identifier, found end of input")),
        }
    }

    /// Parses `name [, name]* ;` into `names`.
    fn name_list(&mut self, names: &mut Vec<(&'a str, usize)>) -> Result<(), ParseError> {
        let t = self.ident()?;
        names.push((t.text, t.line));
        loop {
            match self.next() {
                Some(t) if t.text == "," => {
                    let t = self.ident()?;
                    names.push((t.text, t.line));
                }
                Some(t) if t.text == ";" => return Ok(()),
                Some(t) => {
                    return Err(err(
                        t.line,
                        format!("expected `,` or `;`, found `{}`", t.text),
                    ))
                }
                None => return Err(err(0, "unterminated declaration")),
            }
        }
    }
}

fn starts_ident(text: &str) -> bool {
    text.chars()
        .next()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// Parses the textual format into a [`Netlist`].
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntactic or semantic
/// problem (unknown gate kind, undriven wire, duplicate driver, …). The
/// resulting netlist is additionally passed through
/// [`Netlist::validate`][crate::Netlist::validate].
pub fn parse_netlist(src: &str) -> Result<Netlist, ParseError> {
    let mut cur = Cursor {
        src,
        pos: 0,
        line: 1,
    };
    cur.expect("module")?;
    let mod_name = cur.ident()?;
    cur.expect("(")?;
    // Port list (names only; direction comes from the declarations below).
    loop {
        match cur.next() {
            Some(t) if t.text == ")" => break,
            Some(t) if t.text == "," => continue,
            Some(t) if starts_ident(t.text) => {}
            Some(t) => return Err(err(t.line, format!("unexpected `{}` in port list", t.text))),
            None => return Err(err(0, "unterminated port list")),
        }
    }
    cur.expect(";")?;

    let mut d = Design::new(mod_name.text);
    let mut wires = Vec::new();
    loop {
        let Some(tok) = cur.next() else {
            return Err(err(0, "missing `endmodule`"));
        };
        match tok.text {
            "endmodule" => break,
            "input" => cur.name_list(&mut d.inputs)?,
            "mask_input" => cur.name_list(&mut d.mask_inputs)?,
            "output" => cur.name_list(&mut d.outputs)?,
            "wire" => {
                // Informational; wires are inferred from use.
                wires.clear();
                cur.name_list(&mut wires)?;
            }
            kw => {
                let Some(kind) = GateKind::from_keyword(kw) else {
                    return Err(err(tok.line, format!("unknown gate kind `{kw}`")));
                };
                if kind == GateKind::Input {
                    return Err(err(tok.line, "`input` cannot be instantiated"));
                }
                let inst = cur.ident()?;
                cur.expect("(")?;
                let out = cur.ident()?;
                let first = d.pins.len();
                loop {
                    match cur.next() {
                        Some(t) if t.text == "," => d.pins.push(cur.ident()?.text),
                        Some(t) if t.text == ")" => break,
                        Some(t) => {
                            return Err(err(
                                t.line,
                                format!("expected `,` or `)`, found `{}`", t.text),
                            ))
                        }
                        None => return Err(err(0, "unterminated instance")),
                    }
                }
                cur.expect(";")?;
                d.gates.push(RawGate {
                    kind: Some(kind),
                    func: kw,
                    name: inst.text,
                    out: out.text,
                    ins: first..d.pins.len(),
                    line: tok.line,
                });
            }
        }
    }
    d.resolve(Dialect::Verilog)
}

/// Serializes a netlist back to the textual format accepted by
/// [`parse_netlist`].
///
/// Gate instance names are used as the driven wire names (`<name>` drives
/// wire `n_<id>` when the instance name is empty).
pub fn write_netlist(netlist: &Netlist) -> String {
    use std::fmt::Write as _;

    let mut wire_name: Vec<String> = Vec::with_capacity(netlist.gate_count());
    for (id, gate) in netlist.iter() {
        if gate.name().is_empty() {
            wire_name.push(format!("n_{}", id.index()));
        } else {
            wire_name.push(gate.name().to_string());
        }
    }

    let mut s = String::new();
    let mut ports: Vec<String> = Vec::new();
    for &i in netlist.data_inputs() {
        ports.push(wire_name[i.index()].clone());
    }
    for &i in netlist.mask_inputs() {
        ports.push(wire_name[i.index()].clone());
    }
    for (p, _) in netlist.outputs() {
        ports.push(format!("{p}_po"));
    }
    let _ = writeln!(s, "module {} ({});", netlist.name(), ports.join(", "));

    let fmt_list = |ids: &[GateId]| -> String {
        ids.iter()
            .map(|i| wire_name[i.index()].clone())
            .collect::<Vec<_>>()
            .join(", ")
    };
    if !netlist.data_inputs().is_empty() {
        let _ = writeln!(s, "  input {};", fmt_list(netlist.data_inputs()));
    }
    if !netlist.mask_inputs().is_empty() {
        let _ = writeln!(s, "  mask_input {};", fmt_list(netlist.mask_inputs()));
    }
    if !netlist.outputs().is_empty() {
        let outs: Vec<String> = netlist
            .outputs()
            .iter()
            .map(|(p, _)| format!("{p}_po"))
            .collect();
        let _ = writeln!(s, "  output {};", outs.join(", "));
    }
    for (id, gate) in netlist.iter() {
        if gate.kind().is_input() {
            continue;
        }
        let out = &wire_name[id.index()];
        if gate.fanin().is_empty() {
            let _ = writeln!(s, "  {} i_{} ({});", gate.kind().keyword(), id.index(), out);
        } else {
            let _ = writeln!(
                s,
                "  {} i_{} ({}, {});",
                gate.kind().keyword(),
                id.index(),
                out,
                fmt_list(gate.fanin())
            );
        }
    }
    // Output ports are emitted as buffers so the port wire has a driver.
    for (p, d) in netlist.outputs() {
        let _ = writeln!(s, "  buf o_{p} ({p}_po, {});", wire_name[d.index()]);
    }
    s.push_str("endmodule\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;

    const HA: &str = "
// half adder
module ha (a, b, s, c);
  input a, b;
  output s, c;
  wire w0;
  xor x1 (s, a, b);
  and a1 (c, a, b);
endmodule";

    #[test]
    fn parses_half_adder() {
        let n = parse_netlist(HA).unwrap();
        assert_eq!(n.name(), "ha");
        assert_eq!(n.gate_count(), 4);
        assert_eq!(n.outputs().len(), 2);
        assert_eq!(n.stats().cells, 2);
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let n = parse_netlist(HA).unwrap();
        let text = write_netlist(&n);
        let n2 = parse_netlist(&text).unwrap();
        // The writer adds one buf per output port.
        assert_eq!(n2.gate_count(), n.gate_count() + n.outputs().len());
        assert_eq!(n2.outputs().len(), n.outputs().len());
        assert_eq!(n2.data_inputs().len(), n.data_inputs().len());
    }

    #[test]
    fn mask_inputs_roundtrip() {
        let src = "
module m (a, m0, y);
  input a;
  mask_input m0;
  output y;
  xor g (y, a, m0);
endmodule";
        let n = parse_netlist(src).unwrap();
        assert_eq!(n.mask_inputs().len(), 1);
        let n2 = parse_netlist(&write_netlist(&n)).unwrap();
        assert_eq!(n2.mask_inputs().len(), 1);
    }

    #[test]
    fn dff_feedback_parses() {
        let src = "
module c (y);
  output y;
  dff r (q, d);
  not n1 (d, q);
  buf b1 (y, q);
endmodule";
        let n = parse_netlist(src).unwrap();
        assert!(!n.is_combinational());
        n.validate().unwrap();
    }

    #[test]
    fn unknown_kind_rejected() {
        let src = "module m (y); output y; frob g (y); endmodule";
        let e = parse_netlist(src).unwrap_err();
        assert!(e.message.contains("unknown gate kind"));
    }

    #[test]
    fn undriven_wire_rejected() {
        let src = "module m (y); output y; not g (y, nothere); endmodule";
        let e = parse_netlist(src).unwrap_err();
        assert!(e.message.contains("never driven"));
    }

    #[test]
    fn double_driver_rejected() {
        let src = "
module m (a, y);
  input a;
  output y;
  not g1 (y, a);
  buf g2 (y, a);
endmodule";
        let e = parse_netlist(src).unwrap_err();
        assert!(e.message.contains("two drivers"));
    }

    #[test]
    fn mux_and_const_parse() {
        let src = "
module m (s, a, y);
  input s, a;
  output y;
  const1 k (one);
  mux g (y, s, a, one);
endmodule";
        let n = parse_netlist(src).unwrap();
        let mux = n
            .iter()
            .find(|(_, g)| g.kind() == GateKind::Mux)
            .map(|(id, _)| id)
            .unwrap();
        assert_eq!(n.gate(mux).fanin().len(), 3);
    }

    #[test]
    fn error_reports_line_numbers() {
        let src = "module m (y);\n output y;\n frob g (y);\nendmodule";
        let e = parse_netlist(src).unwrap_err();
        assert_eq!(e.line, 3);
    }
}
