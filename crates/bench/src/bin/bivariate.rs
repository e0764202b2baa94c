//! Second-order sweep throughput bench: streaming co-moment engine vs the
//! dense two-pass path on an ISCAS-scale netlist, with peak-RSS tracking to
//! demonstrate the O(gate-pairs) memory bound, and emits
//! `BENCH_bivariate.json`.
//!
//! The streaming arm runs at the full trace budget in O(pairs) memory; the
//! dense arm materializes every per-gate trace sample, so it runs at a
//! capped trace count (`--dense-traces`) where its O(traces × gates) buffers
//! still fit. At the shared cap the two engines' t statistics are compared
//! bit-for-bit — any mismatch fails the bench.
//!
//! ```text
//! cargo run --release -p polaris-bench --bin bivariate -- [flags]
//!
//! --quick          CI smoke profile (few traces, few pairs)
//! --design NAME    ISCAS-like design to simulate          (default c880)
//! --traces N       traces per TVLA class, streaming arm   (default 1000000)
//! --dense-traces N traces per class for the dense arm cap (default 20000)
//! --gates K        sweep all pairs of the first K cells; 0 = every cell
//!                  (default 32)
//! --seed N         campaign master seed                   (default 7)
//! --threads N      campaign worker threads, 0 = all cores (default 0)
//! --out PATH       output path                 (default BENCH_bivariate.json)
//! ```

use std::time::Instant;

use polaris_bench::{json_u64, peak_rss_kb, rss_mb};
use polaris_netlist::generators;
use polaris_obs::NullRecorder;
use polaris_sim::campaign::collect_gate_samples_parallel;
use polaris_sim::{CampaignConfig, FleetJob, Parallelism, PowerModel};
use polaris_tvla::{all_pairs, bivariate_t, PairAccumulator};

struct Args {
    quick: bool,
    design: String,
    traces: usize,
    dense_traces: usize,
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
        dense_traces: 20_000,
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
            "--dense-traces" => {
                a.dense_traces = need(i).parse().expect("--dense-traces takes an integer");
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
                    "flags: --quick  --design NAME  --traces N  --dense-traces N  \
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
        a.dense_traces = a.dense_traces.min(a.traces);
    }
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
    let pairs = all_pairs(&cells);
    let dense_traces = args.dense_traces.min(args.traces);

    eprintln!(
        "[bivariate bench] {}: {} gates, {} of them swept = {} pairs, \
         {} traces/class streaming, {} traces/class dense, {} threads",
        args.design,
        netlist.gate_count(),
        cells.len(),
        pairs.len(),
        args.traces,
        dense_traces,
        par.threads()
    );

    let factory = || PairAccumulator::for_pairs(pairs.clone());

    // Streaming arm first: VmHWM is a process-wide high-water mark, so the
    // O(pairs) arm must set its reading before the O(traces) arm raises it.
    let cfg = CampaignConfig::new(args.traces, args.traces, args.seed);
    let t0 = Instant::now();
    let full = FleetJob::new(&netlist, &model, cfg.clone())
        .with_sink_factory(factory)
        .run(par, &NullRecorder)
        .expect("campaign runs")
        .sink;
    let streaming_secs = t0.elapsed().as_secs_f64();
    let streaming_rss_kb = peak_rss_kb();
    let total_traces = (args.traces * 2) as f64;
    let updates_per_sec = pairs.len() as f64 * total_traces / streaming_secs.max(1e-9);
    let leaky = full
        .results()
        .iter()
        .filter(|(_, _, r)| r.is_leaky(polaris_tvla::TVLA_THRESHOLD))
        .count();
    eprintln!(
        "  streaming {:>8} traces/class: {streaming_secs:.3}s  \
         ({updates_per_sec:.3e} pair-updates/sec, peak RSS {}, {leaky} leaky pairs)",
        args.traces,
        rss_mb(streaming_rss_kb)
    );

    // Parity stage at the dense cap: streaming re-run, then the dense
    // two-pass engine over materialized samples — bits must agree.
    let cap_cfg = CampaignConfig::new(dense_traces, dense_traces, args.seed);
    let t0 = Instant::now();
    let capped = FleetJob::new(&netlist, &model, cap_cfg.clone())
        .with_sink_factory(factory)
        .run(par, &NullRecorder)
        .expect("campaign runs")
        .sink;
    let streaming_cap_secs = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let samples = collect_gate_samples_parallel(&netlist, &model, &cap_cfg, par).expect("campaign");
    let dense: Vec<_> = pairs
        .iter()
        .map(|&(x, y)| {
            bivariate_t(
                &samples,
                polaris_netlist::GateId::new(x as usize),
                polaris_netlist::GateId::new(y as usize),
            )
            .expect("pairs in range")
        })
        .collect();
    let dense_secs = t0.elapsed().as_secs_f64();
    let dense_rss_kb = peak_rss_kb();
    drop(samples);

    let identical =
        capped.results().iter().zip(&dense).all(|((_, _, s), d)| {
            s.t.to_bits() == d.t.to_bits() && s.dof.to_bits() == d.dof.to_bits()
        });
    eprintln!(
        "  dense     {dense_traces:>8} traces/class: {dense_secs:.3}s \
         (vs {streaming_cap_secs:.3}s streaming, peak RSS {}, bit_identical: {identical})",
        rss_mb(dense_rss_kb)
    );

    let json = format!(
        "{{\n  \"bench\": \"bivariate\",\n  \"design\": \"{}\",\n  \"gates\": {},\n  \
         \"swept_gates\": {},\n  \"pairs\": {},\n  \"seed\": {},\n  \"threads\": {},\n  \
         \"quick\": {},\n  \"host_cores\": {},\n  \
         \"streaming\": {{\n    \"traces_per_class\": {},\n    \"seconds\": {:.4},\n    \
         \"pair_updates_per_sec\": {:.1},\n    \"peak_rss_kb\": {},\n    \"leaky_pairs\": {}\n  }},\n  \
         \"dense\": {{\n    \"traces_per_class\": {},\n    \"seconds\": {:.4},\n    \
         \"streaming_seconds_at_cap\": {:.4},\n    \"peak_rss_kb\": {}\n  }},\n  \
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
        dense_traces,
        dense_secs,
        streaming_cap_secs,
        json_u64(dense_rss_kb),
        identical
    );
    polaris_bench::emit_bench_json("bivariate bench", &args.out, &json).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });

    if !identical {
        eprintln!(
            "ERROR: streaming and dense t statistics disagreed — the engines must be bit-identical"
        );
        std::process::exit(1);
    }
}
