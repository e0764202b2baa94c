//! Campaign-engine throughput bench: measures trace-acquisition +
//! leakage-assessment throughput (traces/sec) of the sharded parallel
//! engine at several thread counts on an ISCAS-scale netlist, verifies the
//! runs are bit-identical, and emits `BENCH_campaign.json`.
//!
//! ```text
//! cargo run --release -p polaris-bench --bin campaign -- [flags]
//!
//! --quick        CI smoke profile (small design, few traces)
//! --design NAME  ISCAS-like design to simulate        (default c1908)
//! --scale N      generator scale factor               (default 1)
//! --traces N     traces per TVLA class                (default 20000)
//! --seed N       campaign master seed                 (default 7)
//! --lane-words W simulator words per gate visit, 1/2/4/8 (default 4)
//! --adaptive     also run the sequential-stopping engine and fail if its
//!                leak verdict diverges from the full run's
//! --confidence P adaptive clean-verdict confidence    (default 0.95)
//! --out PATH     output path                          (default BENCH_campaign.json)
//! --tmap PATH    also write the per-gate t-map as an exact-bits CSV —
//!                `cmp` two of these from different lane widths / thread
//!                counts to machine-check the bit-identity guarantee
//! ```

use std::time::Instant;

use polaris_netlist::generators;
use polaris_obs::NullRecorder;
use polaris_sim::{CampaignConfig, Parallelism, PowerModel};
use polaris_tvla::{assess_adaptive, assess_parallel, SequentialConfig, TVLA_THRESHOLD};

struct Args {
    quick: bool,
    design: String,
    scale: u32,
    traces: usize,
    seed: u64,
    lane_words: usize,
    adaptive: bool,
    confidence: f64,
    out: String,
    tmap: Option<String>,
}

fn parse_args() -> Args {
    let mut a = Args {
        quick: false,
        design: "c1908".to_string(),
        scale: 1,
        traces: 20_000,
        seed: 7,
        lane_words: polaris_sim::DEFAULT_LANE_WORDS,
        adaptive: false,
        confidence: 0.95,
        out: "BENCH_campaign.json".to_string(),
        tmap: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let mut traces_set = false;
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
            "--lane-words" => {
                a.lane_words = need(i).parse().expect("--lane-words takes an integer");
                assert!(
                    matches!(a.lane_words, 1 | 2 | 4 | 8),
                    "--lane-words must be 1, 2, 4 or 8, got {}",
                    a.lane_words
                );
                i += 2;
            }
            "--adaptive" => {
                a.adaptive = true;
                i += 1;
            }
            "--confidence" => {
                a.confidence = need(i).parse().expect("--confidence takes a float");
                assert!(
                    a.confidence > 0.0 && a.confidence < 1.0,
                    "--confidence must lie in (0, 1), got {}",
                    a.confidence
                );
                i += 2;
            }
            "--out" => {
                a.out = need(i).to_string();
                i += 2;
            }
            "--tmap" => {
                a.tmap = Some(need(i).to_string());
                i += 2;
            }
            "--help" | "-h" => {
                eprintln!(
                    "flags: --quick  --design NAME  --scale N  --traces N  --seed N  \
                     --lane-words W  --adaptive  --confidence P  --out PATH  --tmap PATH"
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
        a.traces = 2_000;
    }
    a
}

fn fmt_runs(runs: &[(usize, f64, f64)]) -> String {
    runs.iter()
        .map(|(threads, seconds, tps)| {
            format!(
                "    {{\"threads\": {threads}, \"seconds\": {seconds:.4}, \
                 \"traces_per_sec\": {tps:.1}}}"
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

fn main() {
    let args = parse_args();
    let netlist =
        generators::iscas_like(&args.design, args.scale, args.seed).unwrap_or_else(|| {
            eprintln!("unknown ISCAS-like design `{}`", args.design);
            std::process::exit(2);
        });
    let model = PowerModel::default();
    let cfg = CampaignConfig::new(args.traces, args.traces, args.seed);
    let total_traces = (args.traces * 2) as f64;

    let cores = Parallelism::auto().threads();
    let mut thread_counts = vec![1usize, 2, 4];
    if cores > 4 {
        thread_counts.push(cores);
    }
    thread_counts.retain(|&t| t <= cores.max(4));
    thread_counts.dedup();

    eprintln!(
        "[campaign bench] {} (scale {}): {} gates, {} traces/class, {} lane words, threads {:?}",
        args.design,
        args.scale,
        netlist.gate_count(),
        args.traces,
        args.lane_words,
        thread_counts
    );

    // (threads, seconds, traces/sec) per run, plus bit-identity tracking.
    let mut runs: Vec<(usize, f64, f64)> = Vec::new();
    let mut reference_bits: Option<Vec<u64>> = None;
    let mut reference_leakage: Option<polaris_tvla::GateLeakage> = None;
    let mut identical = true;
    for &threads in &thread_counts {
        let t0 = Instant::now();
        let par = Parallelism::new(threads).with_lane_words(args.lane_words);
        let leakage = assess_parallel(&netlist, &model, &cfg, par).expect("campaign runs");
        let seconds = t0.elapsed().as_secs_f64();
        let tps = total_traces / seconds.max(1e-9);
        let bits: Vec<u64> = netlist
            .ids()
            .map(|id| leakage.result(id).t.to_bits())
            .collect();
        match &reference_bits {
            None => {
                reference_bits = Some(bits);
                reference_leakage = Some(leakage);
            }
            Some(r) => identical &= *r == bits,
        }
        eprintln!("  {threads:>2} threads: {seconds:.3}s  ({tps:.0} traces/sec)");
        runs.push((threads, seconds, tps));
    }

    // Adaptive mode: run the sequential-stopping engine against the same
    // budget and cross-check its leak verdict against the full run's.
    let mut adaptive_json = String::new();
    let mut verdict_diverged = false;
    let mut adaptive_ran_full = false;
    if args.adaptive {
        let seq = SequentialConfig::with_confidence(args.confidence);
        let t0 = Instant::now();
        let par = Parallelism::auto().with_lane_words(args.lane_words);
        let a = assess_adaptive(&netlist, &model, &cfg, par, &seq, &NullRecorder)
            .expect("adaptive campaign runs");
        let seconds = t0.elapsed().as_secs_f64();
        let full = reference_leakage
            .as_ref()
            .expect("at least one full run preceded");
        let divergent = netlist
            .ids()
            .filter(|&id| {
                (a.leakage.abs_t(id) > TVLA_THRESHOLD) != (full.abs_t(id) > TVLA_THRESHOLD)
            })
            .count();
        verdict_diverged = divergent > 0;
        adaptive_ran_full = !a.stats.stopped_early;
        let leaky = a.leakage.summarize(&netlist).leaky_cells;
        eprintln!(
            "  adaptive: {seconds:.3}s, {} of {} traces ({:.1}% saved), \
             {} of {} rounds, {} leaky cells, {divergent} verdict divergences",
            a.stats.traces_used(),
            args.traces * 2,
            a.savings_fraction() * 100.0,
            a.stats.rounds,
            a.stats.planned_rounds,
            leaky
        );
        adaptive_json = format!(
            ",\n  \"adaptive\": {{\n    \"confidence\": {},\n    \
             \"traces_budget\": {},\n    \"traces_used\": {},\n    \
             \"fixed_traces\": {},\n    \"random_traces\": {},\n    \
             \"rounds\": {},\n    \"planned_rounds\": {},\n    \
             \"stopped_early\": {},\n    \"savings_pct\": {:.2},\n    \
             \"leaky_cells\": {},\n    \"verdict_matches_full\": {}\n  }}",
            args.confidence,
            args.traces * 2,
            a.stats.traces_used(),
            a.stats.fixed_traces,
            a.stats.random_traces,
            a.stats.rounds,
            a.stats.planned_rounds,
            a.stats.stopped_early,
            a.savings_fraction() * 100.0,
            leaky,
            !verdict_diverged
        );
    }

    // Exact-bits t-map: one line per gate, t-statistic as raw IEEE-754 bits.
    // Two of these files from runs that the engine guarantees bit-identical
    // (any lane width, any thread count) must compare equal with `cmp`.
    if let Some(path) = &args.tmap {
        let leakage = reference_leakage
            .as_ref()
            .expect("at least one full run preceded");
        let mut csv = String::from("gate,t_bits\n");
        for id in netlist.ids() {
            use std::fmt::Write as _;
            let _ = writeln!(
                csv,
                "{},{:016x}",
                id.index(),
                leakage.result(id).t.to_bits()
            );
        }
        std::fs::write(path, csv).unwrap_or_else(|e| {
            eprintln!("writing {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("  t-map written to {path}");
    }

    let tps_1 = runs
        .iter()
        .find(|(t, _, _)| *t == 1)
        .map(|(_, _, tps)| *tps)
        .unwrap_or(f64::NAN);
    let tps_4 = runs
        .iter()
        .find(|(t, _, _)| *t == 4)
        .map(|(_, _, tps)| *tps)
        .unwrap_or(f64::NAN);
    let speedup_4t = tps_4 / tps_1;

    // `host_cores` / `available_parallelism` contextualize the speedup: on
    // a 1-core host every thread count degenerates to the same wall-clock,
    // so a committed artifact with speedup ≈ 1.0 is self-explaining.
    let available_parallelism = polaris_bench::host_parallelism();
    let json = format!(
        "{{\n  \"bench\": \"campaign\",\n  \"design\": \"{}\",\n  \"scale\": {},\n  \
         \"gates\": {},\n  \"traces_per_class\": {},\n  \"seed\": {},\n  \"lane_words\": {},\n  \
         \"quick\": {},\n  \
         \"host_cores\": {},\n  \"available_parallelism\": {},\n  \"peak_rss_kb\": {},\n  \
         \"runs\": [\n{}\n  ],\n  \"speedup_4t\": {:.3},\n  \"bit_identical\": {}{}\n}}\n",
        args.design,
        args.scale,
        netlist.gate_count(),
        args.traces,
        args.seed,
        args.lane_words,
        args.quick,
        cores,
        available_parallelism,
        polaris_bench::json_u64(polaris_bench::peak_rss_kb()),
        fmt_runs(&runs),
        speedup_4t,
        identical,
        adaptive_json
    );
    polaris_bench::emit_bench_json("campaign bench", &args.out, &json).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });

    if !identical {
        eprintln!("ERROR: thread counts disagreed — the engine must be bit-identical");
        std::process::exit(1);
    }
    if verdict_diverged {
        eprintln!("ERROR: the adaptive run's leak verdict diverged from the full run's t-map");
        std::process::exit(1);
    }
    if args.adaptive && args.quick && adaptive_ran_full {
        eprintln!(
            "ERROR: adaptive smoke run consumed the whole budget — expected an early stop \
             on the leaky smoke design"
        );
        std::process::exit(1);
    }
    if !args.quick && speedup_4t.is_finite() && speedup_4t < 2.0 && cores >= 4 {
        eprintln!("WARNING: 4-thread speedup {speedup_4t:.2}x below the 2x target");
    }
}
