//! Verdict pins for the committed designs: the leaky-cell sets of
//! `designs/c17.bench` and `designs/c432.bench` at the CI budgets (seed 11,
//! 1500 and 6000 traces per class), the first-order cleanliness of
//! `designs/shares3.v`, and the higher-order verdicts: the leaky pairs of
//! the c432 `assess --pairs 8` sweep and the leaky triples of the shares3
//! share gates. Beside the verdicts, two c432 campaigns pin the exact bits
//! of every gate's t-statistic and degrees of freedom.
//!
//! A kernel rewrite may change the low bits of every t-statistic, but the
//! verdicts `polaris-cli assess` reports on these designs must not move. A
//! change that moves one is a change of results, not of speed.

use polaris_netlist::{parse_bench, parse_netlist, GateId, Netlist};
use polaris_sim::{CampaignConfig, Parallelism, PowerModel};
use polaris_tvla::{all_pairs, all_triples, assess, assess_pairs, assess_triples, TVLA_THRESHOLD};

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

/// The `n` cells with the highest first-order `|t|`, the selection
/// `assess --pairs N` sweeps.
fn leakiest_cells(netlist: &Netlist, traces: usize, seed: u64, n: usize) -> Vec<GateId> {
    let cfg = CampaignConfig::new(traces, traces, seed);
    let leakage = assess(netlist, &PowerModel::default(), &cfg).expect("assessment runs");
    let mut cells: Vec<(GateId, f64)> = netlist
        .cell_ids()
        .into_iter()
        .map(|id| (id, leakage.abs_t(id)))
        .collect();
    cells.sort_by(|a, b| b.1.total_cmp(&a.1));
    cells.into_iter().take(n).map(|(id, _)| id).collect()
}

/// `A:B` gate-index keys of every pair of the 8 leakiest c432 cells that
/// fails second-order TVLA (seed 11, 6000 traces per class).
const C432_LEAKY_PAIRS: &str = "19:121 19:29 19:32 19:51 19:55 26:121 28:121 28:19 \
    28:29 28:32 28:51 28:55 29:121 29:32 29:55 32:121 32:55 51:121 51:29 51:32 51:55 55:121";

/// `A:B:C` gate-index keys of the shares3 triples over gates 3–6 that fail
/// third-order TVLA (seed 7, 4000 traces per class).
const SHARES3_LEAKY_TRIPLES: &str = "4:5:6";

#[test]
fn c432_leaky_pairs_are_pinned() {
    let c432 = design("c432.bench");
    let pairs = all_pairs(&leakiest_cells(&c432, 6000, 11, 8));
    assert_eq!(pairs.len(), 28);
    let cfg = CampaignConfig::new(6000, 6000, 11);
    let sweep = assess_pairs(
        &c432,
        &PowerModel::default(),
        &cfg,
        Parallelism::new(2),
        &pairs,
    )
    .expect("pair sweep runs");
    let mut leaky: Vec<String> = sweep
        .iter()
        .filter(|(_, _, r)| r.is_leaky(TVLA_THRESHOLD))
        .map(|(a, b, _)| format!("{}:{}", a.index(), b.index()))
        .collect();
    leaky.sort();
    assert_eq!(leaky, sorted(C432_LEAKY_PAIRS));
}

#[test]
fn shares3_leaky_triples_are_pinned() {
    let shares3 = design("shares3.v");
    let gates: Vec<GateId> = (3..=6).map(GateId::new).collect();
    let triples = all_triples(&gates);
    assert_eq!(triples.len(), 4);
    let cfg = CampaignConfig::new(4000, 4000, 7);
    let sweep = assess_triples(
        &shares3,
        &PowerModel::default(),
        &cfg,
        Parallelism::new(2),
        &triples,
    )
    .expect("triple sweep runs");
    let mut leaky: Vec<String> = sweep
        .iter()
        .filter(|(_, _, _, r)| r.is_leaky(TVLA_THRESHOLD))
        .map(|(a, b, c, _)| format!("{}:{}:{}", a.index(), b.index(), c.index()))
        .collect();
    leaky.sort();
    assert!(leaky.contains(&"4:5:6".to_string()), "{leaky:?}");
    assert_eq!(leaky, sorted(SHARES3_LEAKY_TRIPLES));
}

/// FNV-1a-64 over the little-endian bit patterns of every gate's `t` and
/// `dof`, in gate order.
fn fnv1a_t_dof(netlist: &Netlist, cfg: &CampaignConfig) -> u64 {
    let leakage = assess(netlist, &PowerModel::default(), cfg).expect("assessment runs");
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for id in (0..leakage.gate_count()).map(GateId::new) {
        let r = leakage.result(id);
        for b in [r.t, r.dof].iter().flat_map(|x| x.to_bits().to_le_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Pins the absolute bits of two whole campaigns, one per energy-synthesis
/// path: single-cycle zero-delay (toggle bit read from the value diff) and
/// unit-delay over two cycles (per-lane toggle counts). A faster noise or
/// synthesis kernel must reproduce these digests exactly; a deliberate
/// change of values re-pins them and is recorded as such.
#[test]
fn campaign_bits_are_pinned() {
    let c432 = design("c432.bench");
    for (label, cfg, want) in [
        (
            "zero-delay, 1 cycle",
            CampaignConfig::new(1500, 1500, 11),
            0x7f22_4302_8bed_4ad4u64,
        ),
        (
            "unit-delay, 2 cycles",
            CampaignConfig::new(1500, 1500, 11)
                .with_glitches()
                .with_cycles(2),
            0xca3f_cc4a_9578_0c12,
        ),
    ] {
        let got = fnv1a_t_dof(&c432, &cfg);
        assert_eq!(got, want, "{label}: digest {got:#018x}");
    }
}
