//! Hostile-input properties of design ingest: `parse_bench`,
//! `parse_netlist` and the service's `DesignFormat::parse` take any text —
//! arbitrary bytes (NUL, non-ASCII, CRLF), truncations and single-byte
//! mutations of valid sources — and answer `Ok` or a typed error, never a
//! panic. A reported line always lies within the source: `0..=lines`, where
//! 0 means the end of the input or the structural check.

use proptest::prelude::*;

use polaris_dist::{DesignFormat, DistError};
use polaris_netlist::{generators, parse_bench, parse_netlist, write_bench, write_netlist};

/// Pieces the generated sources are built from: both grammars' punctuation
/// and keywords, line ends of every kind, NUL, and non-ASCII letters, spaces
/// and case folds.
const PIECES: [&str; 40] = [
    "INPUT(",
    "OUTPUT(",
    "MASK_INPUT(",
    " = ",
    "AND(",
    "nand(",
    "BUFF(",
    "DFF(",
    "MUX(",
    "conſt0(",
    "ınv(",
    ")",
    "(",
    ",",
    ", ",
    "=",
    "#",
    "a",
    "b",
    "G1",
    "é",
    "\u{a0}",
    "\0",
    "\n",
    "\r\n",
    "\r",
    "module m (",
    "input ",
    "output ",
    "wire ",
    "mask_input ",
    "xor x (",
    "not n (",
    "const1 k (",
    ";",
    "endmodule",
    "//",
    "$",
    ".",
    "\u{1F600}",
];

/// A source stitched from [`PIECES`] and raw bytes, decoded lossily as a
/// file read from disk would be.
fn arb_source() -> impl Strategy<Value = String> {
    let piece = (
        any::<bool>(),
        prop::sample::select(PIECES.to_vec()),
        any::<u8>(),
    );
    prop::collection::vec(piece, 0..80).prop_map(|pieces| {
        let mut bytes = Vec::new();
        for (raw, text, byte) in pieces {
            if raw {
                bytes.push(byte);
            } else {
                bytes.extend_from_slice(text.as_bytes());
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

/// Valid sources of both formats: c17, and c432 as `.bench` and Verilog.
fn valid_sources() -> Vec<String> {
    let c432 = generators::iscas_like("c432", 1, 7).expect("known design");
    let c17 = generators::iscas_c17();
    vec![
        write_bench(&c17),
        write_netlist(&c17),
        write_bench(&c432),
        write_netlist(&c432),
    ]
}

/// Every reader gives `Ok` or an error whose line lies in the source.
fn check_readers(src: &str) -> Result<(), TestCaseError> {
    let lines = src.lines().count();
    for (reader, result) in [
        ("parse_bench", parse_bench(src)),
        ("parse_netlist", parse_netlist(src)),
    ] {
        if let Err(e) = result {
            prop_assert!(
                e.line <= lines,
                "{reader} reported line {} of {lines}: {}",
                e.line,
                e.message
            );
        }
    }
    for format in [DesignFormat::Bench, DesignFormat::Verilog] {
        match format.parse(src) {
            Ok(_) | Err(DistError::Malformed(_)) => {}
            Err(other) => prop_assert!(false, "untyped design error {other:?}"),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_text_is_accepted_or_refused(src in arb_source()) {
        check_readers(&src)?;
    }

    #[test]
    fn truncated_sources_are_accepted_or_refused(which in 0usize..4, cut in any::<u64>()) {
        let src = &valid_sources()[which];
        let mut at = (cut % (src.len() as u64 + 1)) as usize;
        while !src.is_char_boundary(at) {
            at -= 1;
        }
        check_readers(&src[..at])?;
    }

    #[test]
    fn mutated_sources_are_accepted_or_refused(
        which in 0usize..4,
        at in any::<u64>(),
        byte in prop::sample::select(b"\0\r\n ()=,;#/\\xZ\x80\xC3\xFF".to_vec()),
    ) {
        let mut bytes = valid_sources()[which].clone().into_bytes();
        let at = (at % bytes.len() as u64) as usize;
        bytes[at] = byte;
        check_readers(&String::from_utf8_lossy(&bytes))?;
    }

    /// CRLF line ends read exactly as LF ones do.
    #[test]
    fn crlf_sources_parse_as_lf(which in 0usize..4) {
        let src = &valid_sources()[which];
        let crlf = src.replace('\n', "\r\n");
        if which % 2 == 0 {
            prop_assert!(parse_bench(&crlf) == parse_bench(src));
        } else {
            prop_assert!(parse_netlist(&crlf) == parse_netlist(src));
        }
    }
}
