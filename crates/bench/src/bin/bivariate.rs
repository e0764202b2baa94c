//! Second-order sweep throughput bench: the streaming bivariate co-moment
//! engine on an ISCAS-scale netlist, with peak-RSS tracking to demonstrate
//! the O(gate-pairs) memory bound, and emits `BENCH_bivariate.json`.
//!
//! The parity stage pins the engine against itself across execution shapes
//! that must not change bits: 1- vs 8-word SIMD lanes and a 2-part
//! distributed split folded back together, at a capped trace count
//! (`--parity-traces`). Any mismatch fails the bench.
//!
//! ```text
//! cargo run --release -p polaris-bench --bin bivariate -- [flags]
//!
//! --quick          CI smoke profile (few traces, few pairs)
//! --design NAME    ISCAS-like design to simulate          (default c880)
//! --traces N       traces per TVLA class, streaming arm   (default 1000000)
//! --parity-traces N traces per class for the parity arm   (default 20000)
//! --gates K        sweep all pairs of the first K cells; 0 = every cell
//!                  (default 32)
//! --seed N         campaign master seed                   (default 7)
//! --threads N      campaign worker threads, 0 = all cores (default 0)
//! --out PATH       output path                 (default BENCH_bivariate.json)
//! ```

use std::time::Instant;

use polaris_bench::{co_moment_parity, json_u64, peak_rss_kb, rss_mb};
use polaris_netlist::generators;
use polaris_obs::NullRecorder;
use polaris_sim::{CampaignConfig, FleetJob, Parallelism, PowerModel};
use polaris_tvla::{all_gate_sets, PairAccumulator};

struct Args {
    quick: bool,
    design: String,
    traces: usize,
    parity_traces: usize,
    gates: usize,
    seed: u64,
    threads: usize,
    out: String,
}

fn parse_args() -> Args {
    let mut a = Args {
        quick: false,
        design: "c880".to_string(),
        traces: 1_000_000,
        parity_traces: 20_000,
        gates: 32,
        seed: 7,
        threads: 0,
        out: "BENCH_bivariate.json".to_string(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let mut traces_set = false;
    let mut gates_set = false;
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
            "--design" => {
                a.design = need(i).to_string();
                i += 2;
            }
            "--traces" => {
                a.traces = need(i).parse().expect("--traces takes an integer");
                traces_set = true;
                i += 2;
            }
            "--parity-traces" => {
                a.parity_traces = need(i).parse().expect("--parity-traces takes an integer");
                i += 2;
            }
            "--gates" => {
                a.gates = need(i).parse().expect("--gates takes an integer");
                gates_set = true;
                i += 2;
            }
            "--seed" => {
                a.seed = need(i).parse().expect("--seed takes an integer");
                i += 2;
            }
            "--threads" => {
                a.threads = need(i).parse().expect("--threads takes an integer");
                i += 2;
            }
            "--out" => {
                a.out = need(i).to_string();
                i += 2;
            }
            "--help" | "-h" => {
                eprintln!(
                    "flags: --quick  --design NAME  --traces N  --parity-traces N  \
                     --gates K  --seed N  --threads N  --out PATH"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}; see --help");
                std::process::exit(2);
            }
        }
    }
    if a.quick {
        if !traces_set {
            a.traces = 4_000;
        }
        if !gates_set {
            a.gates = 12;
        }
    }
    a.parity_traces = a.parity_traces.min(a.traces);
    a
}

fn main() {
    let args = parse_args();
    let netlist = generators::iscas_like(&args.design, 1, args.seed).unwrap_or_else(|| {
        eprintln!("unknown ISCAS-like design `{}`", args.design);
        std::process::exit(2);
    });
    let model = PowerModel::default();
    let par = Parallelism::new(args.threads);

    let mut cells = netlist.cell_ids();
    if args.gates > 0 {
        cells.truncate(args.gates);
    }
    let pairs = all_gate_sets(&cells, 2);

    eprintln!(
        "[bivariate bench] {}: {} gates, {} of them swept = {} pairs, \
         {} traces/class streaming, {} traces/class parity, {} threads",
        args.design,
        netlist.gate_count(),
        cells.len(),
        pairs.len(),
        args.traces,
        args.parity_traces,
        par.threads()
    );

    // Throughput arm: the full trace budget through the streaming engine.
    let cfg = CampaignConfig::new(args.traces, args.traces, args.seed);
    let t0 = Instant::now();
    let full = FleetJob::new(&netlist, &model, cfg.clone())
        .with_sink_factory(|| PairAccumulator::new(&pairs))
        .run(par, &NullRecorder)
        .expect("campaign runs")
        .sink;
    let streaming_secs = t0.elapsed().as_secs_f64();
    let streaming_rss_kb = peak_rss_kb();
    let total_traces = (args.traces * 2) as f64;
    let updates_per_sec = pairs.len() as f64 * total_traces / streaming_secs.max(1e-9);
    let leaky = full
        .rows()
        .iter()
        .filter(|(_, r)| r.is_leaky(polaris_tvla::TVLA_THRESHOLD))
        .count();
    eprintln!(
        "  streaming {:>8} traces/class: {streaming_secs:.3}s  \
         ({updates_per_sec:.3e} pair-updates/sec, peak RSS {}, {leaky} leaky pairs)",
        args.traces,
        rss_mb(streaming_rss_kb)
    );

    // Parity arm: the same capped campaign through three execution shapes —
    // 1- and 8-word lanes, and a 2-part distributed split folded back — all
    // of which must carry identical bits.
    let cap_cfg = CampaignConfig::new(args.parity_traces, args.parity_traces, args.seed);
    let identical = co_moment_parity::<2>(&netlist, &model, &cap_cfg, args.threads, &pairs);
    eprintln!(
        "  parity    {:>8} traces/class: lanes 1 vs 8 and 2-part dist fold \
         (bit_identical: {identical})",
        args.parity_traces
    );

    let json = format!(
        "{{\n  \"bench\": \"bivariate\",\n  \"design\": \"{}\",\n  \"gates\": {},\n  \
         \"swept_gates\": {},\n  \"pairs\": {},\n  \"seed\": {},\n  \"threads\": {},\n  \
         \"quick\": {},\n  \"host_cores\": {},\n  \
         \"streaming\": {{\n    \"traces_per_class\": {},\n    \"seconds\": {:.4},\n    \
         \"pair_updates_per_sec\": {:.1},\n    \"peak_rss_kb\": {},\n    \"leaky_pairs\": {}\n  }},\n  \
         \"parity\": {{\n    \"traces_per_class\": {},\n    \"lane_words\": [1, 8],\n    \
         \"dist_parts\": 2\n  }},\n  \
         \"bit_identical\": {}\n}}\n",
        args.design,
        netlist.gate_count(),
        cells.len(),
        pairs.len(),
        args.seed,
        par.threads(),
        args.quick,
        polaris_bench::host_parallelism(),
        args.traces,
        streaming_secs,
        updates_per_sec,
        json_u64(streaming_rss_kb),
        leaky,
        args.parity_traces,
        identical
    );
    polaris_bench::emit_bench_json("bivariate bench", &args.out, &json).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });

    if !identical {
        eprintln!(
            "ERROR: lane-width or distributed-fold t statistics disagreed — the \
             engine must be bit-identical across execution shapes"
        );
        std::process::exit(1);
    }
}
