//! ISCAS `.bench` format support.
//!
//! The classic benchmark distribution format (ISCAS-85/89, used by ABC,
//! Atalanta, HOPE, …):
//!
//! ```text
//! # c17
//! INPUT(G1)
//! OUTPUT(G22)
//! G10 = NAND(G1, G3)
//! G22 = NAND(G10, G16)
//! G5  = DFF(G4)
//! ```
//!
//! Supported functions: `AND OR NAND NOR XOR XNOR NOT BUF BUFF DFF MUX
//! CONST0 CONST1`, plus the `MASK_INPUT(...)` extension mirroring the
//! structural-Verilog subset. Function names are matched after Unicode
//! upper-casing. Round-trips through [`write_bench`].
//!
//! [`parse_bench`] only scans: it slices each line into borrowed names and
//! hands them to the resolver both text readers share
//! (`resolve::Design::resolve`), which binds every signal to its driver and
//! builds each gate once, in id order: inputs, mask inputs, then gates in
//! file order. Every line is scanned before any name is resolved, so a
//! syntax error anywhere wins over a resolution error.

use crate::gate::{GateId, GateKind};
use crate::netlist::Netlist;
use crate::parser::ParseError;
use crate::resolve::{err, Design, Dialect, RawGate};

/// Parses `.bench` text into a [`Netlist`].
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line for unknown
/// functions, undriven signals, duplicate drivers or arity violations.
pub fn parse_bench(src: &str) -> Result<Netlist, ParseError> {
    let mut d = Design::new("bench");
    for (i, raw) in src.lines().enumerate() {
        let ln = i + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            // First comment conventionally names the circuit.
            if d.name == "bench" {
                if let Some(word) = comment.split_whitespace().next() {
                    d.name = word;
                }
            }
            continue;
        }
        if let Some(sig) = directive("INPUT", line) {
            d.inputs.push((sig, ln));
            continue;
        }
        if let Some(sig) = directive("MASK_INPUT", line) {
            d.mask_inputs.push((sig, ln));
            continue;
        }
        if let Some(sig) = directive("OUTPUT", line) {
            d.outputs.push((sig, ln));
            continue;
        }
        // `out = FUNC(in, in, ...)`
        let Some(eq) = find(line, b'=') else {
            return Err(err(ln, format!("unrecognized line `{line}`")));
        };
        let out = trim(&line[..eq]);
        let rhs = trim(&line[eq + 1..]);
        let Some(paren) = find(rhs, b'(') else {
            return Err(err(ln, "expected `FUNC(args)` on right-hand side"));
        };
        let func = trim(&rhs[..paren]);
        let Some(args) = rhs[paren + 1..].strip_suffix(')') else {
            return Err(err(ln, "missing closing parenthesis"));
        };
        let first = d.pins.len();
        for pin in args.split(',').map(trim) {
            if !pin.is_empty() {
                d.pins.push(pin);
            }
        }
        d.gates.push(RawGate {
            kind: function_kind(func),
            func,
            name: out,
            out,
            ins: first..d.pins.len(),
            line: ln,
        });
    }
    d.resolve(Dialect::Bench)
}

/// Byte offset of the first `byte` (ASCII, so never inside a wider char).
fn find(s: &str, byte: u8) -> Option<usize> {
    s.bytes().position(|b| b == byte)
}

/// `str::trim`, returning at once when both ends are ASCII and not blank.
fn trim(s: &str) -> &str {
    let solid = |b: &u8| b.is_ascii() && *b != b' ' && !(b'\t'..=b'\r').contains(b);
    let b = s.as_bytes();
    if b.first().is_some_and(solid) && b.last().is_some_and(solid) {
        s
    } else {
        s.trim()
    }
}

/// The signal of a `PREFIX(signal)` line.
fn directive<'a>(prefix: &str, line: &'a str) -> Option<&'a str> {
    let rest = line.strip_prefix(prefix)?.trim_start();
    rest.strip_prefix('(')?.strip_suffix(')').map(str::trim)
}

/// The kind of a function name, compared as `str::to_uppercase` folds it.
fn function_kind(func: &str) -> Option<GateKind> {
    if !func.is_ascii() {
        return upper_function_kind(&func.to_uppercase());
    }
    let mut buf = [0u8; 6];
    let upper = buf.get_mut(..func.len())?;
    upper.copy_from_slice(func.as_bytes());
    upper.make_ascii_uppercase();
    upper_function_kind(std::str::from_utf8(upper).ok()?)
}

fn upper_function_kind(func: &str) -> Option<GateKind> {
    Some(match func {
        "AND" => GateKind::And,
        "OR" => GateKind::Or,
        "NAND" => GateKind::Nand,
        "NOR" => GateKind::Nor,
        "XOR" => GateKind::Xor,
        "XNOR" => GateKind::Xnor,
        "NOT" | "INV" => GateKind::Not,
        "BUF" | "BUFF" => GateKind::Buf,
        "DFF" => GateKind::Dff,
        "MUX" => GateKind::Mux,
        "CONST0" => GateKind::Const0,
        "CONST1" => GateKind::Const1,
        _ => return None,
    })
}

/// Serializes a netlist to `.bench` text, parseable by [`parse_bench`].
pub fn write_bench(netlist: &Netlist) -> String {
    let mut s = String::with_capacity(16 * netlist.gate_count() + 64);
    let sig = |s: &mut String, id: GateId| push_signal(s, netlist, id);
    s.push_str("# ");
    s.push_str(netlist.name());
    s.push('\n');
    for (directive, ids) in [
        ("INPUT(", netlist.data_inputs()),
        ("MASK_INPUT(", netlist.mask_inputs()),
    ] {
        for &i in ids {
            s.push_str(directive);
            sig(&mut s, i);
            s.push_str(")\n");
        }
    }
    for (_, d) in netlist.outputs() {
        s.push_str("OUTPUT(");
        sig(&mut s, *d);
        s.push_str(")\n");
    }
    for (id, gate) in netlist.iter() {
        if gate.kind().is_input() {
            continue;
        }
        let func = match gate.kind() {
            GateKind::And => "AND",
            GateKind::Or => "OR",
            GateKind::Nand => "NAND",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
            GateKind::Not => "NOT",
            GateKind::Buf => "BUFF",
            GateKind::Dff => "DFF",
            GateKind::Mux => "MUX",
            GateKind::Const0 => "CONST0",
            GateKind::Const1 => "CONST1",
            GateKind::Input => unreachable!("inputs skipped"),
        };
        sig(&mut s, id);
        s.push_str(" = ");
        s.push_str(func);
        s.push('(');
        for (k, &f) in gate.fanin().iter().enumerate() {
            if k > 0 {
                s.push_str(", ");
            }
            sig(&mut s, f);
        }
        s.push_str(")\n");
    }
    s
}

/// Appends gate `id`'s signal name: its instance name, or `N<id>`.
fn push_signal(s: &mut String, netlist: &Netlist, id: GateId) {
    use std::fmt::Write as _;
    let name = netlist.gate(id).name();
    if name.is_empty() {
        let _ = write!(s, "N{}", id.index());
    } else {
        s.push_str(name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C17: &str = "
# c17
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
";

    #[test]
    fn parses_c17() {
        let n = parse_bench(C17).unwrap();
        assert_eq!(n.name(), "c17");
        assert_eq!(n.stats().cells, 6);
        assert_eq!(n.data_inputs().len(), 5);
        assert_eq!(n.outputs().len(), 2);
    }

    #[test]
    fn bench_matches_builtin_c17() {
        // Same functionality as the hand-built c17 generator.
        use polaris_sim_free_check::equivalent;
        let a = parse_bench(C17).unwrap();
        let b = crate::generators::iscas_c17();
        assert!(equivalent(&a, &b));
    }

    /// Tiny combinational equivalence check via exhaustive truth tables —
    /// test-local, no simulator dependency (netlist is below sim in the
    /// crate graph).
    mod polaris_sim_free_check {
        use crate::gate::GateKind;
        use crate::netlist::Netlist;

        fn eval(n: &Netlist, assignment: u32) -> Vec<bool> {
            let order = n.topo_order().unwrap();
            let mut v = vec![false; n.gate_count()];
            for (i, &id) in n.data_inputs().iter().enumerate() {
                v[id.index()] = assignment >> i & 1 == 1;
            }
            for id in order {
                let g = n.gate(id);
                let f = |k: usize| v[g.fanin()[k].index()];
                let all = || g.fanin().iter().map(|x| v[x.index()]);
                v[id.index()] = match g.kind() {
                    GateKind::Input => continue,
                    GateKind::Const0 => false,
                    GateKind::Const1 => true,
                    GateKind::Buf => f(0),
                    GateKind::Not => !f(0),
                    GateKind::And => all().all(|x| x),
                    GateKind::Or => all().any(|x| x),
                    GateKind::Nand => !all().all(|x| x),
                    GateKind::Nor => !all().any(|x| x),
                    GateKind::Xor => all().fold(false, |a, b| a ^ b),
                    GateKind::Xnor => !all().fold(false, |a, b| a ^ b),
                    GateKind::Mux => {
                        if f(0) {
                            f(1)
                        } else {
                            f(2)
                        }
                    }
                    GateKind::Dff => false,
                };
            }
            n.outputs().iter().map(|(_, d)| v[d.index()]).collect()
        }

        pub fn equivalent(a: &Netlist, b: &Netlist) -> bool {
            let k = a.data_inputs().len();
            if k != b.data_inputs().len() || k > 16 {
                return false;
            }
            (0..1u32 << k).all(|x| eval(a, x) == eval(b, x))
        }
    }

    #[test]
    fn roundtrip_through_write_bench() {
        let n = parse_bench(C17).unwrap();
        let text = write_bench(&n);
        let back = parse_bench(&text).unwrap();
        assert_eq!(n.stats().cells, back.stats().cells);
        assert_eq!(n.outputs().len(), back.outputs().len());
        assert!(polaris_sim_free_check::equivalent(&n, &back));
    }

    #[test]
    fn dff_feedback_supported() {
        let src = "
# counter
OUTPUT(Q)
Q = DFF(D)
D = NOT(Q)
";
        let n = parse_bench(src).unwrap();
        assert_eq!(n.stats().flops, 1);
        n.validate().unwrap();
    }

    #[test]
    fn mask_input_extension() {
        let src = "
INPUT(A)
MASK_INPUT(M)
OUTPUT(Y)
Y = XOR(A, M)
";
        let n = parse_bench(src).unwrap();
        assert_eq!(n.mask_inputs().len(), 1);
        let text = write_bench(&n);
        assert!(text.contains("MASK_INPUT(M)"));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let src = "INPUT(A)\nOUTPUT(Y)\nY = FROB(A)\n";
        let e = parse_bench(src).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("FROB"));

        let undriven = "OUTPUT(Y)\nY = NOT(NOPE)\n";
        let e = parse_bench(undriven).unwrap_err();
        assert!(e.message.contains("never driven"));

        let double = "INPUT(A)\nOUTPUT(Y)\nY = NOT(A)\nY = BUFF(A)\n";
        let e = parse_bench(double).unwrap_err();
        assert!(e.message.contains("two drivers"));
    }

    #[test]
    fn generated_designs_roundtrip() {
        let d = crate::generators::des3(1, 3);
        let text = write_bench(&d);
        let back = parse_bench(&text).unwrap();
        assert_eq!(d.gate_count(), back.gate_count());
        assert_eq!(d.stats().kind_histogram, back.stats().kind_histogram);
    }
}
