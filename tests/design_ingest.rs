//! Design-ingest pins: what the `.bench` and structural-Verilog readers and
//! writers produce, byte for byte and error for error.
//!
//! * Every generator output, and every committed design, reaches a fixed
//!   point after one trip through the `.bench` text: parsing the writer's
//!   output gives back the same `Netlist` (`==`: ids, kinds, names, fanin
//!   order, ports).
//! * Digests pin the writer bytes of both formats, and the campaign
//!   fingerprint, of each design as parsed from each format.
//! * Two corpora of malformed sources pin each [`ParseError`] exactly: its
//!   line and its message, including which fault wins on a source with two.

use polaris_dist::campaign_fingerprint;
use polaris_netlist::{
    generators, parse_bench, parse_netlist, write_bench, write_netlist, Netlist, ParseError,
};
use polaris_sim::{CampaignConfig, PowerModel};

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One design's digest: both writers' bytes, then its campaign fingerprint.
fn digest(n: &Netlist) -> u64 {
    let config = CampaignConfig::new(1_000, 1_000, 7);
    let h = fnv(FNV_OFFSET, write_bench(n).as_bytes());
    let h = fnv(h, write_netlist(n).as_bytes());
    fnv(
        h,
        &campaign_fingerprint(n, &PowerModel::default(), &config).to_le_bytes(),
    )
}

/// Every design the generators build, by label.
fn generated() -> Vec<(String, Netlist)> {
    let mut out = vec![("c17".to_string(), generators::iscas_c17())];
    for scale in [1, 2] {
        for n in generators::training_suite(scale, 7) {
            out.push((format!("{}x{scale}", n.name()), n));
        }
    }
    for n in generators::evaluation_suite(1, 7) {
        out.push((n.name().to_string(), n));
    }
    for seed in 1..=5 {
        let n = generators::iscas_like("c1908", 1, seed).expect("known design");
        out.push((format!("c1908s{seed}"), n));
    }
    out
}

fn committed(file: &str) -> Netlist {
    let path = format!("{}/designs/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("committed design exists");
    if file.ends_with(".bench") {
        parse_bench(&text).expect("design parses")
    } else {
        parse_netlist(&text).expect("design parses")
    }
}

const COMMITTED: [&str; 3] = ["c17.bench", "c432.bench", "shares3.v"];

#[test]
fn bench_text_is_a_fixed_point() {
    for (label, g) in generated() {
        let n = parse_bench(&write_bench(&g)).expect("writer output parses");
        assert_eq!(n.gate_count(), g.gate_count(), "{label}: every gate kept");
        let back = parse_bench(&write_bench(&n)).expect("writer output parses");
        assert!(back == n, "{label}: parse_bench(write_bench(n)) != n");
    }
    for file in ["c17.bench", "c432.bench"] {
        let n = committed(file);
        assert!(
            parse_bench(&write_bench(&n)).expect("writer output parses") == n,
            "{file}: parse_bench(write_bench(n)) != n"
        );
    }
    let v = committed("shares3.v");
    let n = parse_bench(&write_bench(&v)).expect("writer output parses");
    assert_eq!(n.gate_count(), v.gate_count());
    assert!(parse_bench(&write_bench(&n)).expect("writer output parses") == n);
}

/// `(label, digest of the design parsed from .bench, from Verilog)`.
const DIGESTS: [(&str, u64, u64); 29] = [
    ("c17", 0x45bb_5931_5005_7988, 0x5e0b_5cf3_077c_d0fa),
    ("c432x1", 0x5256_ccb7_2bab_bb5e, 0x245d_97f1_cdfb_2731),
    ("c499x1", 0x38f5_6604_1a87_9b03, 0xdfd6_cffc_5278_1ec5),
    ("c880x1", 0xd260_f3b6_8255_1434, 0x4473_d6a3_5b62_206a),
    ("c1355x1", 0xcace_3f1d_f188_5ba3, 0x169c_7c59_3f0e_36da),
    ("c1908x1", 0xafd7_5761_f13b_7053, 0x07b8_8a8b_446e_0235),
    ("c2670x1", 0xefa4_9a8c_425c_9ed4, 0x510d_fd76_19ab_12ed),
    ("c432x2", 0x81b6_9b13_6a07_08d0, 0x8d3d_7660_8c5a_8d48),
    ("c499x2", 0xeee7_f0c2_158c_4c74, 0x9557_c624_5c89_ed1d),
    ("c880x2", 0x1404_700e_bb83_38eb, 0x2bfa_1c48_fa19_1f53),
    ("c1355x2", 0xcdbf_88e7_cee9_ad22, 0x5b24_9f67_bb92_b730),
    ("c1908x2", 0xa051_a06f_e06a_5d5c, 0x22d3_1a29_0437_eca4),
    ("c2670x2", 0x8b0e_5ecc_ba24_298e, 0xdbb9_cce0_957e_7ac9),
    ("des3", 0x64c5_ff41_144e_2acf, 0xaf47_9271_a906_f587),
    ("arbiter", 0xb563_299c_e220_8e30, 0xd714_3070_73de_afa4),
    ("sin", 0x54e2_e260_944a_27fb, 0x3d49_49c2_473d_d13f),
    ("md5", 0x956d_0678_a894_74d2, 0x4ed6_a84d_f3ce_6450),
    ("voter", 0xd7e9_30ec_0c59_c9be, 0x551d_aa70_3824_b391),
    ("square", 0x86f7_71d2_68bf_c991, 0xe7ff_1aeb_9b1b_af7c),
    ("sqrt", 0xa87e_1673_90d2_0270, 0x1934_8197_2432_fa06),
    ("div", 0xed93_c558_240b_d515, 0x455c_b11f_11f7_8bf8),
    ("memctrl", 0xe0d2_b877_a26c_2b51, 0xb4b5_e328_d7cb_73db),
    ("multiplier", 0xa275_95c2_09c7_afeb, 0xf089_d7b6_a5a6_4b3b),
    ("log2", 0x2a3b_4595_f7d0_6a24, 0xcb41_78ad_07f2_34f1),
    ("c1908s1", 0x83db_c00d_3f97_daa7, 0x32fe_baa2_fdb0_f821),
    ("c1908s2", 0xe6d8_0a03_c255_dda8, 0x1e15_6f1b_24b7_b752),
    ("c1908s3", 0x5881_8600_6470_b0e6, 0xb5f7_96e4_b64d_5a0c),
    ("c1908s4", 0x5f43_1292_7218_7ef8, 0x0a70_8824_c6fd_a36e),
    ("c1908s5", 0x0f89_8952_a4a8_29c1, 0x1c88_0d70_0ae7_ddd5),
];

/// `(file, digest of the design as parsed)`.
const COMMITTED_DIGESTS: [(&str, u64); 3] = [
    ("c17.bench", 0x065d_01eb_cea5_6612),
    ("c432.bench", 0x5256_ccb7_2bab_bb5e),
    ("shares3.v", 0x9588_8795_b7ab_6881),
];

#[test]
fn writer_bytes_and_fingerprints_are_pinned() {
    let found: Vec<(String, u64, u64)> = generated()
        .into_iter()
        .map(|(label, g)| {
            let b = parse_bench(&write_bench(&g)).expect("writer output parses");
            let v = parse_netlist(&write_netlist(&g)).expect("writer output parses");
            (label, digest(&b), digest(&v))
        })
        .collect();
    let committed: Vec<(&str, u64)> = COMMITTED
        .iter()
        .map(|f| (*f, digest(&committed(f))))
        .collect();
    assert_eq!(found.len(), DIGESTS.len());
    for ((label, b, v), (want_label, want_b, want_v)) in found.iter().zip(DIGESTS) {
        assert_eq!(label, want_label);
        assert_eq!(
            (*b, *v),
            (want_b, want_v),
            "{label}: writer bytes or fingerprint moved"
        );
    }
    assert_eq!(committed, COMMITTED_DIGESTS.to_vec());
}

fn error_of(result: Result<Netlist, ParseError>) -> (usize, String) {
    let e = result.expect_err("malformed source is rejected");
    (e.line, e.message)
}

/// `(source, line, message)`. Each source breaks one rule; the last ones
/// break two or three, and their entry names the fault that is reported.
const BENCH_CORPUS: [(&str, usize, &str); 32] = [
    (
        "INPUT(A)\nOUTPUT(Y)\nY = FROB(A)\n",
        3,
        "unknown function `FROB`",
    ),
    ("INPUT(A)\ny = frob(A)\n", 2, "unknown function `FROB`"),
    ("INPUT(A)\ny = frøb(A)\n", 2, "unknown function `FRØB`"),
    ("INPUT(A)\nY = INPUT(A)\n", 2, "unknown function `INPUT`"),
    ("INPUT(A)\nfoo bar\n", 2, "unrecognized line `foo bar`"),
    ("INPUT(A\nOUTPUT(A)\n", 1, "unrecognized line `INPUT(A`"),
    (
        "INPUT(A)\nY = NOT A\n",
        2,
        "expected `FUNC(args)` on right-hand side",
    ),
    ("INPUT(A)\nY = NOT(A\n", 2, "missing closing parenthesis"),
    (
        "OUTPUT(Y)\nY = NOT(NOPE)\n",
        2,
        "signal `NOPE` is never driven",
    ),
    (
        "INPUT(A)\nOUTPUT(Y)\nY = NOT(A)\nY = BUFF(A)\n",
        4,
        "signal `Y` has two drivers",
    ),
    ("INPUT(A)\nINPUT(A)\n", 2, "signal `A` has two drivers"),
    ("INPUT(A)\nMASK_INPUT(A)\n", 2, "signal `A` has two drivers"),
    (
        "MASK_INPUT(M)\nMASK_INPUT(M)\n",
        2,
        "signal `M` has two drivers",
    ),
    ("INPUT(A)\nA = NOT(A)\n", 2, "signal `A` has two drivers"),
    ("INPUT(A)\nOUTPUT(Z)\n", 2, "output `Z` is never driven"),
    (
        "INPUT(A)\nY = AND(A)\n",
        2,
        "gate g1 of kind AND has invalid fanin count 1",
    ),
    (
        "INPUT(A)\nY = AND()\n",
        2,
        "gate g1 of kind AND has invalid fanin count 0",
    ),
    (
        "INPUT(A)\nINPUT(B)\nY = NOT(A, B)\n",
        3,
        "gate g2 of kind NOT has invalid fanin count 2",
    ),
    (
        "INPUT(A)\nINPUT(B)\nY = MUX(A, B)\n",
        3,
        "gate g2 of kind MUX has invalid fanin count 2",
    ),
    (
        "INPUT(A)\nK = CONST0(A)\n",
        2,
        "gate g1 of kind C0 has invalid fanin count 1",
    ),
    (
        "INPUT(A)\nQ = DFF()\n",
        2,
        "gate g1 of kind DFF has invalid fanin count 0",
    ),
    (
        "INPUT(A)\nX = AND(A, Y)\nY = AND(A, X)\n",
        0,
        "invalid netlist: combinational cycle through gate g1",
    ),
    ("INPUT(A)\r\nY = FROB(A)\r\n", 2, "unknown function `FROB`"),
    (
        "# c\n\nINPUT(A)\n\n  Y = NOT(B)  \n",
        5,
        "signal `B` is never driven",
    ),
    // Two or three faults: the scan of every line comes first, then the
    // drivers (inputs, mask inputs, gates in order), then each gate's fanin,
    // then the outputs, then the structural check.
    (
        "INPUT(A)\nY = FROB(A)\nZ = NOT(A)\nW = NOT(A)\nnonsense\n",
        5,
        "unrecognized line `nonsense`",
    ),
    (
        "INPUT(A)\nY = NOT(B)\nZ = NOT(A)\nZ = NOT(A)\n",
        4,
        "signal `Z` has two drivers",
    ),
    (
        "INPUT(A)\nY = NOT(A)\nY = FROB(A)\n",
        3,
        "unknown function `FROB`",
    ),
    (
        "INPUT(A)\nY = FROB(A)\nZ = NOT(A)\nZ = NOT(A)\n",
        2,
        "unknown function `FROB`",
    ),
    (
        "INPUT(A)\nY = AND(A)\nZ = NOT(B)\n",
        2,
        "gate g1 of kind AND has invalid fanin count 1",
    ),
    (
        "INPUT(A)\nOUTPUT(Q)\nY = NOT(B)\n",
        3,
        "signal `B` is never driven",
    ),
    (
        "INPUT(A)\nOUTPUT(Q)\nX = AND(A, Y)\nY = AND(A, X)\n",
        2,
        "output `Q` is never driven",
    ),
    (
        "MASK_INPUT(M)\nINPUT(A)\nMASK_INPUT(M)\nINPUT(A)\n",
        4,
        "signal `A` has two drivers",
    ),
];

/// `(source, line, message)`. Each source breaks one rule; the last ones
/// break two, and their entry names the fault that is reported. Line 0
/// means the end of the input or the structural check.
const VERILOG_CORPUS: [(&str, usize, &str); 33] = [
    ("", 0, "expected `module`, found end of input"),
    (
        "// only a comment\n",
        0,
        "expected `module`, found end of input",
    ),
    ("modul m (a);", 1, "expected `module`, found `modul`"),
    ("module (a);", 1, "expected identifier, found `(`"),
    ("module $m (a);", 1, "expected identifier, found `$m`"),
    ("module m a);", 1, "expected `(`, found `a`"),
    ("module m (a, #);", 1, "unexpected `#` in port list"),
    ("module m (a", 0, "unterminated port list"),
    (
        "module m (a)\nendmodule",
        2,
        "expected `;`, found `endmodule`",
    ),
    ("module m (a);\n input a", 0, "unterminated declaration"),
    (
        "module m (a);\n input a b;",
        2,
        "expected `,` or `;`, found `b`",
    ),
    (
        "module m (a);\n input a§;",
        2,
        "expected `,` or `;`, found `§`",
    ),
    (
        "module m (a);\n input a, ;",
        2,
        "expected identifier, found `;`",
    ),
    ("module m (a);\n input a;\n", 0, "missing `endmodule`"),
    (
        "module m (y);\n output y;\n frob g (y);\nendmodule",
        3,
        "unknown gate kind `frob`",
    ),
    (
        "module m (y);\n output y;\n AND g (y);\nendmodule",
        3,
        "unknown gate kind `AND`",
    ),
    (
        "module m (a, y);\n input a;\n and g (y a);\nendmodule",
        3,
        "expected `,` or `)`, found `a`",
    ),
    (
        "module m (a, y);\n input a;\n and g (y, a",
        0,
        "unterminated instance",
    ),
    (
        "module m (a, y);\n input a;\n not g (y, a)\nendmodule",
        4,
        "expected `;`, found `endmodule`",
    ),
    (
        "module m (a, y);\n input a;\n and (y, a, a);\nendmodule",
        3,
        "expected identifier, found `(`",
    ),
    (
        "module m (y);\n output y;\n not g (y, nothere);\nendmodule",
        3,
        "wire `nothere` is never driven",
    ),
    (
        "module m (a, y);\n input a;\n not g1 (y, a);\n buf g2 (y, a);\nendmodule",
        4,
        "wire `y` has two drivers",
    ),
    (
        "module m (a);\n input a, a;\nendmodule",
        2,
        "wire `a` has two drivers",
    ),
    (
        "module m (a, m);\n input a;\n mask_input m, a;\nendmodule",
        3,
        "wire `a` has two drivers",
    ),
    (
        "module m (a, y);\n input a;\n output y;\nendmodule",
        3,
        "output `y` is never driven",
    ),
    (
        "module m (a, k);\n input a;\n const1 g (k, a);\nendmodule",
        3,
        "constants take no inputs",
    ),
    (
        "module m (a, y);\n input a;\n and g (y, a);\nendmodule",
        3,
        "gate g1 of kind AND has invalid fanin count 1",
    ),
    (
        "module m (a, y, z);\n input a;\n not g (y, a);\n not g (z, a);\nendmodule",
        0,
        "invalid netlist: duplicate instance name g",
    ),
    (
        "module m (a, x, y);\n input a;\n and g1 (x, a, y);\n and g2 (y, a, x);\nendmodule",
        0,
        "invalid netlist: combinational cycle through gate g1",
    ),
    // Two faults: the token scan stops at the first syntax error, so
    // resolution faults before it are never reached; past the scan, drivers
    // come before fanins, and fanins before outputs.
    (
        "module m (y);\n output y;\n not g (y, nothere);\n frob h (z);\nendmodule",
        4,
        "unknown gate kind `frob`",
    ),
    (
        "module m (a, y);\n input a;\n not g1 (y, b);\n buf g2 (y, a);\nendmodule",
        4,
        "wire `y` has two drivers",
    ),
    (
        "module m (a, y, k);\n input a;\n not g (y, b);\n const0 c (k, a);\nendmodule",
        3,
        "wire `b` is never driven",
    ),
    (
        "module m (a, q);\n input a;\n output q;\n const0 c (k, a);\n not g (y, b);\nendmodule",
        4,
        "constants take no inputs",
    ),
];

#[test]
fn bench_errors_are_pinned() {
    for (src, line, message) in BENCH_CORPUS {
        assert_eq!(
            error_of(parse_bench(src)),
            (line, message.to_string()),
            "{src:?}"
        );
    }
}

#[test]
fn verilog_errors_are_pinned() {
    for (src, line, message) in VERILOG_CORPUS {
        assert_eq!(
            error_of(parse_netlist(src)),
            (line, message.to_string()),
            "{src:?}"
        );
    }
}

/// Sources at the edges of each grammar that parse, pinned by the `.bench`
/// text of what they parse to: Unicode case folding of function names,
/// blank pins, a directive with a space before its parenthesis, Unicode
/// identifiers and whitespace, CRLF line ends and trailing comments.
#[test]
fn edge_sources_are_pinned() {
    let bench = "#  quirks  and more\r\nINPUT (A)\nINPUT(x) = AND(a,b)\nOUTPUT(W)\n\
                 Y = ınv(A)\nK = conſt0()\nW = and(A,,Y , K)\n = BUF(A)\n";
    assert_eq!(
        write_bench(&parse_bench(bench).expect("parses")),
        "# quirks\nINPUT(A)\nINPUT(x) = AND(a,b)\nOUTPUT(W)\nY = NOT(A)\nK = CONST0()\n\
         W = AND(A, Y, K)\nN5 = BUFF(A)\n"
    );
    let verilog = "module m(é,\u{a0}y) ; // ports\r\n  input é ;\r\n  output y;\r\n\
                   wire w$1.x;\n  xor x.1 (w$1.x, é, é);  not n_2 (y,w$1.x) ;endmodule // done";
    assert_eq!(
        write_bench(&parse_netlist(verilog).expect("parses")),
        "# m\nINPUT(é)\nOUTPUT(n_2)\nx.1 = XOR(é, é)\nn_2 = NOT(x.1)\n"
    );
}
