//! Third-order sweep throughput bench: the streaming trivariate co-moment
//! engine on an ISCAS-scale netlist, with peak-RSS tracking to demonstrate
//! the O(gate-triples) memory bound, and emits `BENCH_trivariate.json`.
//!
//! There is no dense trivariate cross-check engine (storing every trace for
//! a triple sweep is exactly the cost the streaming engine exists to avoid),
//! so the parity stage pins the engine against *itself* across execution
//! shapes that must not change bits: 1- vs 8-word SIMD lanes and a 2-part
//! distributed split folded back together. Any mismatch fails the bench.
//!
//! The payoff stage reruns the repo's higher-order demo: a second-order ISW
//! masked AND is clean at orders 1–2 on its output shares and fails only
//! the third-order test.
//!
//! ```text
//! cargo run --release -p polaris-bench --bin trivariate -- [flags]
//!
//! --quick          CI smoke profile (few traces, few triples)
//! --design NAME    ISCAS-like design to simulate          (default c880)
//! --traces N       traces per TVLA class, throughput arm  (default 100000)
//! --parity-traces N traces per class for the parity arm   (default 20000)
//! --gates K        sweep all triples of the first K cells; 0 = every cell
//!                  (default 12)
//! --seed N         campaign master seed                   (default 7)
//! --threads N      campaign worker threads, 0 = all cores (default 0)
//! --out PATH       output path                (default BENCH_trivariate.json)
//! ```

use std::time::Instant;

use polaris_bench::{co_moment_parity, json_u64, parse_cli, peak_rss_kb, rss_mb, SweepArgs};
use polaris_masking::isw::{masked_and_order2, IswMasks};
use polaris_netlist::{generators, Netlist};
use polaris_obs::NullRecorder;
use polaris_sim::{CampaignConfig, FleetJob, Parallelism, PowerModel};
use polaris_tvla::{
    all_gate_sets, all_pairs, all_triples, assess_pairs, assess_triples, TripleAccumulator,
    TVLA_THRESHOLD,
};

fn parse_args() -> SweepArgs {
    let defaults = SweepArgs {
        quick: false,
        design: "c880".to_string(),
        traces: 100_000,
        parity_traces: 20_000,
        gates: 12,
        seed: 7,
        threads: 0,
        out: "BENCH_trivariate.json".to_string(),
    };
    parse_cli(SweepArgs::USAGE, |args| {
        SweepArgs::parse(args, defaults, (2_000, 8))
    })
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
    let triples = all_gate_sets(&cells, 3);

    eprintln!(
        "[trivariate bench] {}: {} gates, {} of them swept = {} triples, \
         {} traces/class streaming, {} traces/class parity, {} threads",
        args.design,
        netlist.gate_count(),
        cells.len(),
        triples.len(),
        args.traces,
        args.parity_traces,
        par.threads()
    );

    // Throughput arm: the full trace budget through the streaming engine.
    let cfg = CampaignConfig::new(args.traces, args.traces, args.seed);
    let t0 = Instant::now();
    let full = FleetJob::new(&netlist, &model, cfg.clone())
        .with_sink_factory(|| TripleAccumulator::new(&triples))
        .run(par, &NullRecorder)
        .expect("campaign runs")
        .sink;
    let streaming_secs = t0.elapsed().as_secs_f64();
    let streaming_rss_kb = peak_rss_kb();
    let total_traces = (args.traces * 2) as f64;
    let updates_per_sec = triples.len() as f64 * total_traces / streaming_secs.max(1e-9);
    let leaky = full
        .rows()
        .iter()
        .filter(|(_, r)| r.is_leaky(TVLA_THRESHOLD))
        .count();
    eprintln!(
        "  streaming {:>8} traces/class: {streaming_secs:.3}s  \
         ({updates_per_sec:.3e} triple-updates/sec, peak RSS {}, {leaky} leaky triples)",
        args.traces,
        rss_mb(streaming_rss_kb)
    );

    // Parity arm: the same capped campaign through three execution shapes —
    // 1- and 8-word lanes, and a 2-part distributed split folded back — all
    // of which must carry identical bits.
    let cap_cfg = CampaignConfig::new(args.parity_traces, args.parity_traces, args.seed);
    let identical = co_moment_parity::<3>(&netlist, &model, &cap_cfg, args.threads, &triples);
    eprintln!(
        "  parity    {:>8} traces/class: lanes 1 vs 8 and 2-part dist fold \
         (bit_identical: {identical})",
        args.parity_traces
    );

    // Payoff arm: the 3-share ISW masked AND — clean through order 2 on its
    // output shares, detectable only at order 3.
    let mut isw = Netlist::new("isw_and");
    let in_a = isw.add_input("a");
    let in_b = isw.add_input("b");
    let masks = IswMasks::allocate(&mut isw, "g");
    let exp = masked_and_order2(&mut isw, "g", in_a, in_b, masks);
    isw.add_output("y", exp.output).expect("output binds");
    let share = |suffix: &str| {
        isw.iter()
            .find(|(_, g)| g.name() == format!("g_{suffix}"))
            .map(|(id, _)| id)
            .expect("share gate present")
    };
    let shares = [share("c0"), share("c1"), share("c2")];
    let isw_cfg = CampaignConfig::new(4_000, 4_000, args.seed).with_fixed_vector(vec![true, true]);
    let isw_model = PowerModel::default().with_noise(0.05);
    let t0 = Instant::now();
    let first = polaris_tvla::assess(&isw, &isw_model, &isw_cfg).expect("first-order campaign");
    let order1 = shares
        .iter()
        .map(|&g| first.abs_t(g))
        .fold(0.0f64, f64::max);
    let order2 = assess_pairs(&isw, &isw_model, &isw_cfg, par, &all_pairs(&shares))
        .expect("pair campaign")
        .iter()
        .map(|(_, _, r)| r.t.abs())
        .fold(0.0f64, f64::max);
    let order3 = assess_triples(&isw, &isw_model, &isw_cfg, par, &all_triples(&shares))
        .expect("triple campaign")[0]
        .3
        .t
        .abs();
    let payoff_secs = t0.elapsed().as_secs_f64();
    let detected = order1 < TVLA_THRESHOLD && order2 < TVLA_THRESHOLD && order3 > TVLA_THRESHOLD;
    eprintln!(
        "  payoff    ISW masked AND, 4000 traces/class: order-1 max |t| {order1:.2}, \
         order-2 max |t| {order2:.2}, order-3 |t| {order3:.2} ({payoff_secs:.3}s, \
         third_order_only: {detected})"
    );

    let json = format!(
        "{{\n  \"bench\": \"trivariate\",\n  \"design\": \"{}\",\n  \"gates\": {},\n  \
         \"swept_gates\": {},\n  \"triples\": {},\n  \"seed\": {},\n  \"threads\": {},\n  \
         \"quick\": {},\n  \"host_cores\": {},\n  \
         \"streaming\": {{\n    \"traces_per_class\": {},\n    \"seconds\": {:.4},\n    \
         \"triple_updates_per_sec\": {:.1},\n    \"peak_rss_kb\": {},\n    \"leaky_triples\": {}\n  }},\n  \
         \"parity\": {{\n    \"traces_per_class\": {},\n    \"lane_words\": [1, 8],\n    \
         \"dist_parts\": 2\n  }},\n  \
         \"isw_payoff\": {{\n    \"traces_per_class\": 4000,\n    \"seconds\": {:.4},\n    \
         \"order1_max_abs_t\": {:.3},\n    \"order2_max_abs_t\": {:.3},\n    \
         \"order3_abs_t\": {:.3},\n    \"third_order_only\": {}\n  }},\n  \
         \"bit_identical\": {}\n}}\n",
        args.design,
        netlist.gate_count(),
        cells.len(),
        triples.len(),
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
        payoff_secs,
        order1,
        order2,
        order3,
        detected,
        identical
    );
    polaris_bench::emit_bench_json("trivariate bench", &args.out, &json).unwrap_or_else(|e| {
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
    if !detected {
        eprintln!(
            "ERROR: the ISW masked AND must be clean at orders 1-2 and leaky at \
             order 3 — higher-order detection regressed"
        );
        std::process::exit(1);
    }
}
