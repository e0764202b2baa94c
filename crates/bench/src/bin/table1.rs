//! Table I — qualitative comparison of POLARIS with prior
//! evaluation/mitigation flows. Static content from the paper, printed in
//! the repo's table format so every table has a regenerating binary.

use polaris::report::TextTable;

fn main() {
    polaris_bench::parse_cli("none (the table is static)", |args| match args.first() {
        None => Ok(()),
        Some(arg) => Err(format!("table1 takes no flags, got `{arg}`")),
    });
    let mut t = TextTable::new(
        [
            "Approach",
            "Method",
            "Model Training",
            "Feature Set",
            "Mitigation",
            "Performance",
            "Platform",
        ]
        .map(String::from)
        .to_vec(),
    );
    let rows: [[&str; 7]; 6] = [
        ["CASCADE", "TVLA", "N/A", "N/A", "No", "Slow", "ASIC"],
        ["Karna", "TVLA", "N/A", "N/A", "Limited", "Slow", "ASIC"],
        ["VALIANT", "TVLA", "N/A", "N/A", "Yes", "Slow", "ASIC"],
        [
            "DL-LA",
            "DL",
            "high time; adversarial-attack prone; no XAI; no synthetic data",
            "Trace based",
            "No",
            "Slow",
            "ASIC/FPGA",
        ],
        [
            "Netlist Whisperer",
            "LLM",
            "high time; adversarial-attack prone; no XAI; no synthetic data",
            "ANF equations",
            "Yes",
            "Slow",
            "ASIC",
        ],
        [
            "POLARIS (this work)",
            "XAI",
            "low time; adversarially robust; explainable; synthetic data",
            "Structural",
            "Yes",
            "Fast",
            "ASIC/FPGA*",
        ],
    ];
    for r in rows {
        t.push_row(r.map(String::from).to_vec());
    }
    println!("Table I: POLARIS vs existing power side-channel solutions\n");
    println!("{}", t.render());
    println!("* extendable to FPGA flows by retraining on LUT-based netlists.");
}
