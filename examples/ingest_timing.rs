//! Times design ingest: generating c432 and c1908, writing and parsing each
//! in both text formats, and validating the parsed netlist. Prints the
//! median and quartiles of each step in µs.
//!
//! ```sh
//! cargo run --release --example ingest_timing [samples]
//! ```

use std::time::Instant;

use polaris_netlist::{generators, parse_bench, parse_netlist, write_bench, write_netlist};

/// Median and quartiles of `samples` timings of `step`, in µs. The value a
/// step returns is dropped outside the timed span.
fn time<T>(samples: usize, mut step: impl FnMut() -> T) -> [f64; 3] {
    let mut us: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            let out = step();
            let elapsed = t.elapsed().as_secs_f64() * 1e6;
            drop(std::hint::black_box(out));
            elapsed
        })
        .collect();
    us.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|q| us[((us.len() - 1) as f64 * q) as usize])
}

fn main() {
    let samples: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(400);
    println!("design step          median µs  [p25 .. p75]  ({samples} samples)");
    for name in ["c432", "c1908"] {
        let generate = || generators::iscas_like(name, 1, 1).expect("known design");
        let netlist = generate();
        let bench = write_bench(&netlist);
        let verilog = write_netlist(&netlist);
        let rows = [
            ("generate", time(samples, generate)),
            ("write .bench", time(samples, || write_bench(&netlist))),
            ("parse .bench", time(samples, || parse_bench(&bench))),
            ("write .v", time(samples, || write_netlist(&netlist))),
            ("parse .v", time(samples, || parse_netlist(&verilog))),
            ("validate", time(samples, || netlist.validate())),
            (
                "gen+write+parse",
                time(samples, || parse_bench(&write_bench(&generate()))),
            ),
        ];
        for (step, [p25, p50, p75]) in rows {
            println!("{name:6} {step:16} {p50:8.1}  [{p25:.1} .. {p75:.1}]");
        }
        println!(
            "{name:6} {} gates, {} B .bench, {} B .v",
            netlist.gate_count(),
            bench.len(),
            verilog.len()
        );
    }
}
