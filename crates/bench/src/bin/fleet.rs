//! Fleet-scheduler throughput bench: measures suite trace throughput when a
//! set of designs is assessed campaign-by-campaign (the pre-fleet serial
//! path, each campaign parallelized internally) versus as one shared-pool
//! fleet at several thread counts, verifies every fleet job stays
//! bit-identical to its standalone run, and emits `BENCH_fleet.json`.
//!
//! ```text
//! cargo run --release -p polaris-bench --bin fleet -- [flags]
//!
//! --quick        CI smoke profile (small designs, few traces)
//! --designs a,b  ISCAS-like designs of the suite   (default c432,c499,c880)
//! --scale N      generator scale factor            (default 1)
//! --traces N     traces per TVLA class per design  (default 12000)
//! --seed N       campaign master seed              (default 7)
//! --out PATH     output path                       (default BENCH_fleet.json)
//! ```

use std::time::Instant;

use polaris_netlist::{generators, Netlist};
use polaris_obs::NullRecorder;
use polaris_sim::{
    run_campaign_parallel, run_fleet, CampaignConfig, FleetJob, Parallelism, PowerModel,
};
use polaris_tvla::WelchAccumulator;

struct Args {
    quick: bool,
    designs: Vec<String>,
    scale: u32,
    traces: usize,
    seed: u64,
    out: String,
}

fn parse_args() -> Args {
    let mut a = Args {
        quick: false,
        designs: Vec::new(),
        scale: 1,
        traces: 12_000,
        seed: 7,
        out: "BENCH_fleet.json".to_string(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let mut traces_set = false;
    let mut designs_set = false;
    while i < argv.len() {
        let need = |i: usize| -> &str {
            argv.get(i + 1).map(String::as_str).unwrap_or_else(|| {
                eprintln!("missing value after {}", argv[i]);
                std::process::exit(2);
            })
        };
        match argv[i].as_str() {
            "--quick" => {
                a.quick = true;
                i += 1;
            }
            "--designs" => {
                a.designs = need(i).split(',').map(|s| s.trim().to_string()).collect();
                designs_set = true;
                i += 2;
            }
            "--scale" => {
                a.scale = need(i).parse().expect("--scale takes an integer");
                i += 2;
            }
            "--traces" => {
                a.traces = need(i).parse().expect("--traces takes an integer");
                traces_set = true;
                i += 2;
            }
            "--seed" => {
                a.seed = need(i).parse().expect("--seed takes an integer");
                i += 2;
            }
            "--out" => {
                a.out = need(i).to_string();
                i += 2;
            }
            "--help" | "-h" => {
                eprintln!(
                    "flags: --quick  --designs a,b,c  --scale N  --traces N  --seed N  --out PATH"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}; see --help");
                std::process::exit(2);
            }
        }
    }
    if a.quick && !traces_set {
        a.traces = 1_500;
    }
    if !designs_set {
        a.designs = if a.quick {
            vec!["c17".into(), "c432".into(), "c499".into()]
        } else {
            vec!["c432".into(), "c499".into(), "c880".into()]
        };
    }
    a
}

fn main() {
    let args = parse_args();
    let netlists: Vec<Netlist> = args
        .designs
        .iter()
        .map(|name| {
            generators::iscas_like(name, args.scale, args.seed).unwrap_or_else(|| {
                eprintln!("unknown ISCAS-like design `{name}`");
                std::process::exit(2);
            })
        })
        .collect();
    let model = PowerModel::default();
    let cfg = CampaignConfig::new(args.traces, args.traces, args.seed);
    let suite_traces = (args.traces * 2 * netlists.len()) as f64;
    let cores = Parallelism::auto().threads();

    eprintln!(
        "[fleet bench] suite {:?} (scale {}): {} traces/class/design, {} cores",
        args.designs, args.scale, args.traces, cores
    );

    // Serial reference: campaign by campaign, each on the full worker pool —
    // the pre-fleet suite path and the t-maps every fleet run must hit.
    let t0 = Instant::now();
    let mut reference_bits: Vec<Vec<u64>> = Vec::new();
    for netlist in &netlists {
        let acc: WelchAccumulator =
            run_campaign_parallel(netlist, &model, &cfg, Parallelism::auto())
                .expect("campaign runs");
        let leakage = acc.leakage();
        reference_bits.push(
            netlist
                .ids()
                .map(|id| leakage.result(id).t.to_bits())
                .collect(),
        );
    }
    let serial_seconds = t0.elapsed().as_secs_f64();
    let serial_tps = suite_traces / serial_seconds.max(1e-9);
    eprintln!(
        "  serial (campaign-by-campaign): {serial_seconds:.3}s  ({serial_tps:.0} traces/sec)"
    );

    let mut thread_counts = vec![1usize, 2];
    if cores > 2 {
        thread_counts.push(cores);
    }
    thread_counts.dedup();

    let mut rows: Vec<String> = Vec::new();
    let mut identical = true;
    let mut best_fleet_tps = f64::NAN;
    for &threads in &thread_counts {
        let jobs: Vec<FleetJob<'_, WelchAccumulator>> = netlists
            .iter()
            .map(|n| FleetJob::new(n, &model, cfg.clone()))
            .collect();
        let t0 = Instant::now();
        let outcomes =
            run_fleet(jobs, Parallelism::new(threads), &NullRecorder).expect("fleet runs");
        let seconds = t0.elapsed().as_secs_f64();
        let tps = suite_traces / seconds.max(1e-9);
        let mut run_identical = true;
        for ((netlist, outcome), bits) in netlists.iter().zip(&outcomes).zip(&reference_bits) {
            let leakage = outcome.sink.leakage();
            let got: Vec<u64> = netlist
                .ids()
                .map(|id| leakage.result(id).t.to_bits())
                .collect();
            run_identical &= got == *bits;
        }
        identical &= run_identical;
        best_fleet_tps = if best_fleet_tps.is_nan() {
            tps
        } else {
            best_fleet_tps.max(tps)
        };
        eprintln!(
            "  fleet {threads:>2} threads: {seconds:.3}s  ({tps:.0} traces/sec), \
             identical: {run_identical}"
        );
        rows.push(format!(
            "    {{\"threads\": {threads}, \"seconds\": {seconds:.4}, \
             \"traces_per_sec\": {tps:.1}, \"bit_identical\": {run_identical}}}"
        ));
    }

    // ≥ 1.0 means the fleet at least matches the serial suite path; on a
    // multi-core host with small designs it should exceed it (the recorded
    // host_parallelism explains a ≈ 1.0 artifact from a 1-core container).
    let fleet_vs_serial = best_fleet_tps / serial_tps;
    let designs_json: Vec<String> = args
        .designs
        .iter()
        .zip(&netlists)
        .map(|(name, n)| format!("{{\"name\": \"{name}\", \"gates\": {}}}", n.gate_count()))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"fleet\",\n  \"designs\": [{}],\n  \"scale\": {},\n  \
         \"traces_per_class\": {},\n  \"seed\": {},\n  \"quick\": {},\n  \
         \"available_parallelism\": {},\n  \"peak_rss_kb\": {},\n  \"suite_traces\": {},\n  \
         \"serial_seconds\": {:.4},\n  \"serial_traces_per_sec\": {:.1},\n  \
         \"fleet_runs\": [\n{}\n  ],\n  \"fleet_vs_serial\": {:.3},\n  \
         \"bit_identical\": {}\n}}\n",
        designs_json.join(", "),
        args.scale,
        args.traces,
        args.seed,
        args.quick,
        polaris_bench::host_parallelism(),
        polaris_bench::json_u64(polaris_bench::peak_rss_kb()),
        suite_traces as usize,
        serial_seconds,
        serial_tps,
        rows.join(",\n"),
        fleet_vs_serial,
        identical
    );
    polaris_bench::emit_bench_json("fleet bench", &args.out, &json).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });

    if !identical {
        eprintln!("ERROR: a fleet job diverged from its standalone campaign — the fleet must be bit-identical");
        std::process::exit(1);
    }
}
