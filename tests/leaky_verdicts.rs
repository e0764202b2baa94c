//! Verdict pins for the committed designs: the leaky-cell sets of
//! `designs/c17.bench` and `designs/c432.bench` at the CI budgets (seed 11,
//! 1500 and 6000 traces per class), and the first-order cleanliness of
//! `designs/shares3.v`.
//!
//! A kernel rewrite may change the low bits of every t-statistic, but the
//! verdicts `polaris-cli assess` reports on these designs must not move. A
//! change that moves one is a change of results, not of speed.

use polaris_netlist::{parse_bench, parse_netlist, Netlist};
use polaris_sim::{CampaignConfig, PowerModel};
use polaris_tvla::{assess, TVLA_THRESHOLD};

fn design(file: &str) -> Netlist {
    let path = format!("{}/designs/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("committed design exists");
    if file.ends_with(".bench") {
        parse_bench(&text).expect("design parses")
    } else {
        parse_netlist(&text).expect("design parses")
    }
}

/// Names of the gates `assess --csv` marks leaky, sorted.
fn leaky_names(netlist: &Netlist, traces: usize, seed: u64) -> Vec<String> {
    let cfg = CampaignConfig::new(traces, traces, seed);
    let leakage = assess(netlist, &PowerModel::default(), &cfg).expect("assessment runs");
    let mut names: Vec<String> = leakage
        .leaky_gates(TVLA_THRESHOLD)
        .into_iter()
        .map(|id| netlist.gate(id).name().to_string())
        .collect();
    names.sort();
    names
}

fn sorted(names: &str) -> Vec<String> {
    let mut v: Vec<String> = names.split_whitespace().map(str::to_string).collect();
    v.sort();
    v
}

const C17_LEAKY: &str = "G10 G11 G16 G19 G22 G23";

/// Leaky at both budgets.
const C432_LEAKY_CORE: &str = "en0 en1 en2 en3 en4 en5 en6 en7 en8 \
    arb_nb1 arb_g1 arb_b1 arb_nb2 arb_g2 arb_b2 arb_nb3 arb_g3 arb_b3 \
    arb_nb4 arb_g4 arb_b4 arb_nb5 arb_g5 arb_b5 arb_nb6 arb_b6 arb_nb7 arb_b7 \
    arb_nb8 arb_b8 any_p0 any_p1 any_p2 any_p3 any_p4 any_p5 any_p6 any_p7 \
    glue_c0 glue_c2 glue_c3 glue_c6 glue_c10 glue_c12 glue_c13 glue_c14 \
    glue_c15 glue_c19 glue_c20 glue_c21 glue_c22 glue_c23 glue_c24 glue_c27 \
    glue_c34 glue_c37 glue_c38 glue_c42 glue_c43 glue_c44 glue_c49 glue_c52 \
    glue_c54 glue_c58 glue_c61 glue_c62 glue_c63 glue_c65 glue_c66 glue_c67";

/// Weaker leaks that 6000 traces per class resolve and 1500 do not.
const C432_LEAKY_AT_6000: &str = "arb_g6 arb_g7 arb_g8 glue_c8 glue_c31 glue_c68 glue_c70 glue_c71";

#[test]
fn c17_leaky_cells_are_pinned() {
    let c17 = design("c17.bench");
    for traces in [1500, 6000] {
        assert_eq!(
            leaky_names(&c17, traces, 11),
            sorted(C17_LEAKY),
            "{traces}/class"
        );
    }
}

#[test]
fn c432_leaky_cells_are_pinned() {
    let c432 = design("c432.bench");
    assert_eq!(leaky_names(&c432, 1500, 11), sorted(C432_LEAKY_CORE));
    assert_eq!(
        leaky_names(&c432, 6000, 11),
        sorted(&format!("{C432_LEAKY_CORE} {C432_LEAKY_AT_6000}"))
    );
}

#[test]
fn shares3_stays_first_order_clean() {
    let shares3 = design("shares3.v");
    assert_eq!(leaky_names(&shares3, 4000, 7), Vec::<String>::new());
}
