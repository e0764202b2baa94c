//! The masking-order hierarchy, measured: unprotected vs Trichina (1st
//! order) vs ISW (2nd order) on a keyed AND, under univariate and bivariate
//! TVLA.
//!
//! ```sh
//! cargo run --release --example higher_order_masking
//! ```

use polaris_masking::{apply_masking, MaskingStyle};
use polaris_netlist::{GateKind, Netlist};
use polaris_sim::{CampaignConfig, Parallelism, PowerModel};
use polaris_tvla::{all_pairs, assess_pairs, TVLA_THRESHOLD};

fn keyed_and() -> (Netlist, polaris_netlist::GateId) {
    let mut n = Netlist::new("keyed_and");
    let a = n.add_input("a");
    let b = n.add_input("b");
    let g = n.add_gate(GateKind::And, "g", &[a, b]).expect("valid");
    n.add_output("y", g).expect("valid");
    (n, g)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let power = PowerModel::default().with_noise(0.05);
    let cfg = CampaignConfig::new(6000, 6000, 33).with_fixed_vector(vec![true, true]);

    println!("target: y = a AND b   (fixed class pins a=b=1)");
    println!("{:-<72}", "");
    println!(
        "{:<22} {:>14} {:>16} {:>12}",
        "variant", "univariate |t|", "bivariate |t|", "mask bits"
    );

    // Unprotected.
    let (plain, g) = keyed_and();
    let uni = polaris_tvla::assess(&plain, &power, &cfg)?;
    println!(
        "{:<22} {:>14.2} {:>16} {:>12}",
        "unprotected",
        uni.abs_t(g),
        "—",
        0
    );

    // Trichina and ISW: report the worst *core* gate / pair (entry sharing
    // and exit re-combination gates excluded — see the masking crate docs).
    for (style, name, entry, exit) in [
        (
            MaskingStyle::Trichina,
            "Trichina (1st order)",
            2usize,
            1usize,
        ),
        (MaskingStyle::IswOrder2, "ISW (2nd order)", 4, 2),
    ] {
        let (plain, g) = keyed_and();
        let masked = apply_masking(&plain, &[g], style)?;
        let gates = masked.gates_for(g);
        let core = &gates[entry..gates.len() - exit];

        let uni = polaris_tvla::assess(&masked.netlist, &power, &cfg)?;
        let worst_uni = core.iter().map(|&c| uni.abs_t(c)).fold(0.0f64, f64::max);

        let pairs = all_pairs(core);
        let sweep = assess_pairs(&masked.netlist, &power, &cfg, Parallelism::new(0), &pairs)?;
        let worst_bi = sweep.first().map_or(0.0, |(_, _, r)| r.t.abs());

        println!(
            "{:<22} {:>14.2} {:>16.2} {:>12}",
            name, worst_uni, worst_bi, masked.added_mask_bits
        );
    }

    println!("{:-<72}", "");
    println!("threshold: |t| > {TVLA_THRESHOLD} = detectable leakage");
    println!(
        "\nreading: the unprotected gate fails univariate TVLA outright;\n\
         Trichina's core passes univariate but a gate *pair* still leaks\n\
         (bivariate/2nd-order attack); the 3-share ISW core defeats both,\n\
         at ~2.3x the cells and 2.3x the fresh randomness."
    );
    Ok(())
}
