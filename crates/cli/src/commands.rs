//! Command implementations for `polaris-cli`.

use polaris::config::{ModelKind, PolarisConfig};
use polaris::persist::{load_trained, save_trained};
use polaris::pipeline::{MaskBudget, PolarisPipeline, TrainedPolaris};
use polaris::report::{fmt_f, TextTable};
use polaris_masking::{analyze_overhead, CellLibrary};
use polaris_netlist::{
    generators, parse_bench, parse_netlist, write_bench, write_netlist, GateId, GraphView, Netlist,
};
use polaris_sim::{CampaignConfig, FleetJob, Parallelism, PowerModel};
use polaris_tvla::{
    all_gate_sets, assess_gate_sets, parse_gate_sets, set_noun, GateLeakage, MultivariateError,
    Order, SupportedOrder, WelchAccumulator, WelchResult, TVLA_THRESHOLD,
};

use crate::{read_file, write_file, CliError, Flags};

/// Loads a netlist, dispatching on extension: `.bench` uses the ISCAS
/// bench-format parser, everything else the structural-Verilog subset.
pub(crate) fn load_netlist(path: &str) -> Result<Netlist, String> {
    let text = read_file(path)?;
    if path.ends_with(".bench") {
        parse_bench(&text).map_err(|e| format!("{path}: {e}"))
    } else {
        parse_netlist(&text).map_err(|e| format!("{path}: {e}"))
    }
}

/// Serializes a netlist, dispatching on the output extension.
fn render_netlist(path: &str, netlist: &Netlist) -> String {
    if path.ends_with(".bench") {
        write_bench(netlist)
    } else {
        write_netlist(netlist)
    }
}

fn load_model(flags: &Flags) -> Result<TrainedPolaris, String> {
    let path = flags
        .get("model")
        .ok_or("missing --model <bundle> (create one with `polaris-cli train`)")?;
    let text = read_file(path)?;
    load_trained(&text).map_err(|e| format!("{path}: {e}"))
}

pub(crate) fn campaign_from(flags: &Flags, seed_default: u64) -> Result<CampaignConfig, String> {
    let traces: usize = flags.get_parsed("traces", 500)?;
    let seed: u64 = flags.get_parsed("seed", seed_default)?;
    let cycles: usize = flags.get_parsed("cycles", 1)?;
    let mut c = CampaignConfig::new(traces, traces, seed).with_cycles(cycles);
    if flags.has("glitch") {
        c = c.with_glitches();
    }
    Ok(c)
}

/// Parses `--threads N` (0 = all cores, the default) and `--lane-words W`
/// (1/2/4/8 simulator words per gate visit). Both are purely throughput
/// knobs — campaign results are bit-identical at any thread count and any
/// lane width.
pub(crate) fn parallelism_from(flags: &Flags) -> Result<Parallelism, String> {
    let lane_words: usize = flags.get_parsed("lane-words", polaris_sim::DEFAULT_LANE_WORDS)?;
    if !matches!(lane_words, 1 | 2 | 4 | 8) {
        return Err(format!(
            "--lane-words must be 1, 2, 4 or 8, got {lane_words}"
        ));
    }
    Ok(Parallelism::new(flags.get_parsed("threads", 0)?).with_lane_words(lane_words))
}

/// Parses `--confidence P` (the adaptive clean-verdict confidence level).
pub(crate) fn confidence_from(flags: &Flags) -> Result<f64, String> {
    let c: f64 = flags.get_parsed("confidence", 0.95)?;
    if c <= 0.0 || c >= 1.0 {
        return Err(format!("--confidence must lie in (0, 1), got {c}"));
    }
    Ok(c)
}

/// `polaris-cli train`
pub(crate) fn train(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["glitch", "adaptive", "help"])?;
    if flags.has("help") {
        println!(
            "train --out model.polaris [--scale N --traces N --seed N --threads N \
             --model adaboost|xgboost|random-forest --glitch --adaptive --confidence P]"
        );
        return Ok(());
    }
    let out = flags.get("out").ok_or("missing --out <file>")?;
    let scale: u32 = flags.get_parsed("scale", 1)?;
    let traces: usize = flags.get_parsed("traces", 300)?;
    let seed: u64 = flags.get_parsed("seed", 7)?;
    let threads: usize = flags.get_parsed("threads", 0)?;
    let model = match flags.get("model").unwrap_or("adaboost") {
        "adaboost" => ModelKind::Adaboost,
        "xgboost" => ModelKind::Xgboost,
        "random-forest" => ModelKind::RandomForest,
        other => return Err(format!("unknown model `{other}`")),
    };
    let config = PolarisConfig {
        msize: 30 * scale as usize,
        iterations: 8,
        max_traces: traces,
        adaptive: flags.has("adaptive"),
        confidence: confidence_from(&flags)?,
        model,
        glitch_model: flags.has("glitch"),
        seed,
        threads,
        ..Default::default()
    };
    eprintln!(
        "training {} on the generated ISCAS-85-like suite…",
        model.name()
    );
    let trained = PolarisPipeline::new(config)
        .train(
            &generators::training_suite(scale, seed),
            &PowerModel::default(),
        )
        .map_err(|e| e.to_string())?;
    let (bad, good) = trained.dataset().class_counts();
    eprintln!(
        "cognition dataset: {} samples ({good} good / {bad} bad)",
        good + bad
    );
    let v = trained.validation();
    eprintln!(
        "held-out validation: accuracy {:.3}, F1 {:.3}, AUC {:.3} ({} samples)",
        v.accuracy, v.f1, v.auc, v.samples
    );
    write_file(out, &save_trained(&trained))?;
    eprintln!("model bundle written to {out}");
    Ok(())
}

/// `polaris-cli stats`
pub(crate) fn stats(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["help"])?;
    if flags.has("help") {
        println!("stats <netlist.v>");
        return Ok(());
    }
    let netlist = load_netlist(flags.positional(0, "netlist path")?)?;
    let s = netlist.stats();
    println!("design:       {}", netlist.name());
    println!("gates total:  {}", s.total);
    println!("logic cells:  {}", s.cells);
    println!("data inputs:  {}", s.data_inputs);
    println!("mask inputs:  {}", s.mask_inputs);
    println!("outputs:      {}", s.outputs);
    println!("flip-flops:   {}", s.flops);
    let levels = netlist.levels().map_err(|e| e.to_string())?;
    println!(
        "logic depth:  {}",
        levels.iter().max().copied().unwrap_or(0)
    );
    let mut t = TextTable::new(vec!["kind".into(), "count".into()]);
    for kind in polaris_netlist::GateKind::ALL {
        let c = s.kind_histogram[kind.ordinal()];
        if c > 0 {
            t.push_row(vec![kind.mnemonic().to_string(), c.to_string()]);
        }
    }
    println!("\n{}", t.render());
    let lib = CellLibrary::default();
    let overhead = analyze_overhead(&netlist, &lib, 64, 1).map_err(|e| e.to_string())?;
    println!("area:  {:.1} um2", overhead.area_um2);
    println!("power: {:.3} mW (simulated activity)", overhead.power_mw);
    println!("delay: {:.3} ns (critical path)", overhead.delay_ns);
    Ok(())
}

/// `polaris-cli assess`
///
/// Exits 8 on a multivariate input error (a `--pair-gates`/`--triple-gates`
/// entry referencing a gate outside the design, repeating a gate within one
/// entry, or duplicating an entry) so scripts can tell a bad gate list from
/// a generic failure. Exits 2 when the top-N and explicit-list selectors of
/// the same order are both given.
pub(crate) fn assess(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(args, &["glitch", "adaptive", "help"])?;
    if flags.has("help") {
        println!(
            "assess <netlist.v> [--traces N --seed N --cycles N --threads N \
             --lane-words 1|2|4|8 --glitch] \
             [--adaptive --confidence P] [--csv out.csv]\n       \
             [--pairs N | --pair-gates A:B,C:D] [--pairs-csv out.csv]\n       \
             [--triples N | --triple-gates A:B:C,D:E:F] [--triples-csv out.csv]\n\n\
             --pairs N          bivariate sweep over all pairs of the N leakiest cells\n\
             --pair-gates L     bivariate sweep over an explicit gate-index pair list\n\
             --pairs-csv FILE   write the per-pair sweep as CSV (exit code 8 on a bad\n                    \
             pair list)\n\
             --triples N        trivariate sweep over all triples of the N leakiest cells\n\
             --triple-gates L   trivariate sweep over an explicit A:B:C gate-index list\n\
             --triples-csv FILE write the per-triple sweep as CSV (exit code 8 on a bad\n                    \
             triple list)\n\
             --trace-out FILE   record the campaign as a JSONL trace (shard spans,\n                    \
             round checkpoints, stopping audit; summarize it with\n                    \
             `polaris-cli trace summarize FILE`)"
        );
        return Ok(());
    }
    // Conflicting sweep selectors are a usage error (exit 2), matching the
    // missing-command convention: before this check `--pairs N` was silently
    // dropped whenever `--pair-gates` was also given.
    for noun in [set_noun(2), set_noun(3)] {
        if flags.get(&format!("{noun}s")).is_some() && flags.get(&format!("{noun}-gates")).is_some()
        {
            return Err(usage_err(&format!(
                "--{noun}s and --{noun}-gates are mutually exclusive (top-N sweep or \
                 explicit {noun} list, not both)"
            )));
        }
    }
    let netlist = load_netlist(flags.positional(0, "netlist path")?)?;
    let mut campaign = campaign_from(&flags, 7)?;
    let par = parallelism_from(&flags)?;
    let trace_out = crate::trace::TraceOut::from_flags(&flags);
    eprintln!(
        "running fixed-vs-random TVLA ({} traces/class{}, {} worker threads)…",
        campaign.n_fixed,
        if flags.has("adaptive") {
            " budget, adaptive stopping"
        } else {
            ""
        },
        par.threads()
    );
    let power = PowerModel::default();
    let leakage = if flags.has("adaptive") {
        let seq = polaris_tvla::SequentialConfig::with_confidence(confidence_from(&flags)?);
        let a = polaris_tvla::assess_adaptive(
            &netlist,
            &power,
            &campaign,
            par,
            &seq,
            trace_out.dyn_recorder(),
        )
        .map_err(|e| e.to_string())?;
        println!(
            "traces used:  {} fixed + {} random of {} budgeted ({:.1}% saved, \
             {} of {} rounds{})",
            a.stats.fixed_traces,
            a.stats.random_traces,
            a.budget_fixed + a.budget_random,
            a.savings_fraction() * 100.0,
            a.stats.rounds,
            a.stats.planned_rounds,
            if a.stats.stopped_early {
                ", stopped early"
            } else {
                ""
            }
        );
        // Pin any follow-up collection (e.g. --pairs) to the stop boundary.
        campaign.n_fixed = a.stats.fixed_traces;
        campaign.n_random = a.stats.random_traces;
        a.leakage
    } else {
        FleetJob::<WelchAccumulator>::new(&netlist, &power, campaign.clone())
            .run(par, trace_out.dyn_recorder())
            .map_err(|e| e.to_string())?
            .sink
            .leakage()
    };
    // The multivariate sweeps below run on separate engines the recorder
    // does not instrument — the trace covers the first-order campaign.
    trace_out.flush()?;
    let s = leakage.summarize(&netlist);
    println!("cells:        {}", s.cells);
    println!("mean |t|:     {:.3}", s.mean_abs_t);
    println!("max |t|:      {:.3}", s.max_abs_t);
    println!("leaky cells:  {} (|t| > {TVLA_THRESHOLD})", s.leaky_cells);
    println!(
        "verdict:      {}",
        if s.max_abs_t > TVLA_THRESHOLD {
            "LEAKY — first-order TVLA failure"
        } else {
            "no first-order leakage detected at this trace count"
        }
    );
    if let Some(csv) = flags.get("csv") {
        write_file(csv, &leakage_csv(&netlist, &leakage))?;
        eprintln!("per-gate results written to {csv}");
    }
    // Optional multivariate sweeps, one per order: `--pair-gates` /
    // `--triple-gates` name explicit gate-index sets, `--pairs N` /
    // `--triples N` sweep every set of the N leakiest cells.
    multivariate_sweep::<2>(&flags, &netlist, &leakage, &campaign, par)?;
    multivariate_sweep::<3>(&flags, &netlist, &leakage, &campaign, par)
}

/// The `--pairs`/`--triples` sweep of `assess` at order `K`: select the
/// gate sets, stream the co-moment campaign (`O(sets)` memory, never the
/// traces), print the worst rows and write the CSV. An empty selection
/// (e.g. `--pairs 1`, which yields zero pairs) warns and sweeps nothing.
fn multivariate_sweep<const K: usize>(
    flags: &Flags,
    netlist: &Netlist,
    leakage: &GateLeakage,
    campaign: &CampaignConfig,
    par: Parallelism,
) -> Result<(), CliError>
where
    Order<K>: SupportedOrder,
{
    let noun = set_noun(K);
    let (ordinal, test) = order_words(K);
    let top_n: usize = flags.get_parsed(&format!("{noun}s"), 0)?;
    let sets = match flags.get(&format!("{noun}-gates")) {
        Some(spec) => parse_gate_sets(spec, K)?,
        None if top_n > 0 => all_gate_sets(&leakiest_cells(netlist, leakage, top_n), K),
        None => return Ok(()),
    };
    if sets.is_empty() {
        eprintln!(
            "warning: the {noun} selection is empty (fewer than {K} cells selected); \
             skipping the {test} sweep, no CSV written"
        );
        return Ok(());
    }
    eprintln!(
        "running streaming {test} sweep over {} gate {noun}s…",
        sets.len()
    );
    let sweep = assess_gate_sets::<K, _>(netlist, &PowerModel::default(), campaign, par, &sets)
        .map_err(multivariate_err)?;
    println!("\nworst {ordinal}-order ({test}) {noun}s:");
    print_worst(netlist, &sweep);
    if let Some(csv) = flags.get(&format!("{noun}s-csv")) {
        write_file(csv, &co_moment_csv(netlist, &sweep))?;
        eprintln!("per-{noun} results written to {csv}");
    }
    Ok(())
}

/// The ordinal and the name of the order-`order` test: `("second",
/// "bivariate")`, `("third", "trivariate")`.
pub(crate) fn order_words(order: usize) -> (&'static str, &'static str) {
    match order {
        2 => ("second", "bivariate"),
        _ => ("third", "trivariate"),
    }
}

/// Prints the ten worst rows of a multivariate sweep, one line per gate
/// set: the gate names joined by ` x ` and `|tK|`.
pub(crate) fn print_worst<const K: usize>(netlist: &Netlist, sweep: &[([GateId; K], WelchResult)]) {
    for (gates, r) in sweep.iter().take(10) {
        let names: Vec<String> = gates
            .iter()
            .enumerate()
            .map(|(i, &g)| {
                let name = netlist.gate(g).name();
                match i {
                    0 => format!("{name:>10}"),
                    _ if i == K - 1 => format!("{name:<10}"),
                    _ => format!("{name:^10}"),
                }
            })
            .collect();
        println!(
            "  {} |t{K}| = {:.2}{}",
            names.join(" x "),
            r.t.abs(),
            if r.is_leaky(TVLA_THRESHOLD) {
                "  LEAKY"
            } else {
                ""
            }
        );
    }
}

/// The `n` cells with the highest first-order `|t|` — the seed set for the
/// `--pairs N` / `--triples N` top-N multivariate sweeps.
fn leakiest_cells(netlist: &Netlist, leakage: &GateLeakage, n: usize) -> Vec<GateId> {
    let mut cells: Vec<_> = netlist
        .cell_ids()
        .into_iter()
        .map(|id| (id, leakage.abs_t(id)))
        .collect();
    cells.sort_by(|a, b| b.1.total_cmp(&a.1));
    cells.into_iter().take(n).map(|(id, _)| id).collect()
}

/// Maps a conflicting-flags mistake to the usage exit code (2), the same
/// code `main` uses for a missing command.
fn usage_err(message: &str) -> CliError {
    CliError {
        code: 2,
        message: message.to_string(),
    }
}

/// Maps a multivariate input error to its documented exit code (8): scripts
/// can tell a bad pair/triple list from the generic failures that exit 1.
pub(crate) fn multivariate_err(e: MultivariateError) -> CliError {
    CliError {
        code: 8,
        message: e.to_string(),
    }
}

/// RFC-4180-quotes one CSV field: a value containing `,`, `"`, or a line
/// break is wrapped in double quotes with embedded quotes doubled, so a
/// hostile gate name can never desynchronize the columns CI `cmp`s.
pub(crate) fn csv_field(raw: &str) -> std::borrow::Cow<'_, str> {
    if raw.contains([',', '"', '\n', '\r']) {
        std::borrow::Cow::Owned(format!("\"{}\"", raw.replace('"', "\"\"")))
    } else {
        std::borrow::Cow::Borrowed(raw)
    }
}

/// Renders the per-set multivariate CSV: `gate_a,name_a,gate_b,name_b,t,leaky`
/// for pairs, with `gate_c,name_c` added for triples. Shared by
/// `assess --pairs-csv`/`--triples-csv` and `dist merge --csv` on a
/// co-moment plan, so a single-process sweep and a distributed fold of the
/// same campaign write byte-identical files — exactly what the CI smoke
/// jobs diff.
pub(crate) fn co_moment_csv<const K: usize>(
    netlist: &Netlist,
    results: &[([GateId; K], WelchResult)],
) -> String {
    let mut out = String::new();
    for c in ('a'..='z').take(K) {
        out.push_str(&format!("gate_{c},name_{c},"));
    }
    out.push_str("t,leaky\n");
    for (gates, r) in results {
        for &g in gates {
            out.push_str(&format!(
                "{},{},",
                g.index(),
                csv_field(netlist.gate(g).name())
            ));
        }
        out.push_str(&format!(
            "{:.6},{}\n",
            r.t,
            u8::from(r.is_leaky(TVLA_THRESHOLD))
        ));
    }
    out
}

/// Renders the per-gate leakage CSV (`gate,name,kind,t,leaky`). Shared by
/// `assess --csv` and `dist merge --csv` so a distributed fold and a
/// single-process run of the same campaign write byte-identical files —
/// exactly what the CI smoke job diffs.
pub(crate) fn leakage_csv(netlist: &Netlist, leakage: &GateLeakage) -> String {
    let mut out = String::from("gate,name,kind,t,leaky\n");
    for (id, gate) in netlist.iter() {
        let r = leakage.result(id);
        out.push_str(&format!(
            "{},{},{},{:.6},{}\n",
            id.index(),
            csv_field(gate.name()),
            gate.kind().mnemonic(),
            r.t,
            u8::from(r.is_leaky(TVLA_THRESHOLD))
        ));
    }
    out
}

/// `polaris-cli mask`
pub(crate) fn mask(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["report", "adaptive", "no-adaptive", "help"])?;
    if flags.has("help") {
        println!(
            "mask <netlist.v> --model model.polaris --out masked.v \
             [--budget leaky:0.5|cells:0.5|count:N] [--traces N] [--threads N] \
             [--adaptive|--no-adaptive --confidence P] [--report] \
             [--trace-out trace.jsonl]"
        );
        return Ok(());
    }
    let netlist = load_netlist(flags.positional(0, "netlist path")?)?;
    let mut trained = load_model(&flags)?;
    let threads = flags.get_parsed("threads", trained.config().threads)?;
    trained.set_threads(threads);
    // The bundle persists the training-time adaptive knobs; the flags
    // override in either direction (--no-adaptive forces full-budget
    // reporting campaigns from a bundle trained with --adaptive).
    if flags.has("adaptive") && flags.has("no-adaptive") {
        return Err("--adaptive and --no-adaptive are mutually exclusive".into());
    }
    if flags.has("adaptive") {
        trained.set_adaptive(true, confidence_from(&flags)?);
    } else if flags.has("no-adaptive") {
        trained.set_adaptive(false, trained.config().confidence);
    }
    let traces = flags.get_parsed("traces", trained.config().max_traces)?;
    trained.set_max_traces(traces);
    let out = flags.get("out").ok_or("missing --out <file>")?;
    let budget = parse_budget(flags.get("budget").unwrap_or("leaky:1.0"))?;

    eprintln!("masking `{}`…", netlist.name());
    let trace_out = crate::trace::TraceOut::from_flags(&flags);
    let report = trained
        .mask_design_traced(
            &netlist,
            &PowerModel::default(),
            budget,
            trace_out.dyn_recorder(),
        )
        .map_err(|e| e.to_string())?;
    trace_out.flush()?;
    write_file(out, &render_netlist(out, &report.masked.netlist))?;
    eprintln!("protected netlist written to {out}");

    println!("gates masked:     {}", report.masked_gates.len());
    println!("fresh mask bits:  {}", report.masked.added_mask_bits);
    println!(
        "mean |t|:         {:.2} -> {:.2}  ({:.1}% total reduction)",
        report.before.mean_abs_t,
        report.after.mean_abs_t,
        report.reduction_pct()
    );
    println!(
        "leaky cells:      {} -> {}",
        report.before.leaky_cells, report.after.leaky_cells
    );
    println!(
        "mitigation path:  {:.3}s (TVLA-free); reporting TVLA {:.3}s",
        report.mitigation_time_s, report.assessment_time_s
    );
    if trained.config().adaptive {
        println!(
            "reporting traces: {} fixed + {} random per campaign \
             (budget {}/class{})",
            report.campaign_fixed_traces,
            report.campaign_random_traces,
            report.campaign_budget_per_class,
            if report.stopped_early {
                ", stopped early"
            } else {
                ""
            }
        );
    }
    if flags.has("report") {
        let lib = CellLibrary::default();
        let (norm, _) =
            polaris_netlist::transform::decompose(&netlist).map_err(|e| e.to_string())?;
        let base = analyze_overhead(&norm, &lib, 64, 1).map_err(|e| e.to_string())?;
        let cost =
            analyze_overhead(&report.masked.netlist, &lib, 64, 1).map_err(|e| e.to_string())?;
        let r = cost.ratio_to(&base);
        let mut t = TextTable::new(
            ["metric", "original", "masked", "x original"]
                .map(String::from)
                .to_vec(),
        );
        t.push_row(vec![
            "area (um2)".into(),
            fmt_f(base.area_um2, 1),
            fmt_f(cost.area_um2, 1),
            fmt_f(r.area_um2, 2),
        ]);
        t.push_row(vec![
            "power (mW)".into(),
            fmt_f(base.power_mw, 3),
            fmt_f(cost.power_mw, 3),
            fmt_f(r.power_mw, 2),
        ]);
        t.push_row(vec![
            "delay (ns)".into(),
            fmt_f(base.delay_ns, 3),
            fmt_f(cost.delay_ns, 3),
            fmt_f(r.delay_ns, 2),
        ]);
        println!("\n{}", t.render());
    }
    Ok(())
}

fn parse_budget(spec: &str) -> Result<MaskBudget, String> {
    let (kind, value) = spec.split_once(':').ok_or_else(|| {
        format!("budget `{spec}` should look like leaky:0.5 / cells:0.5 / count:40")
    })?;
    match kind {
        "leaky" => Ok(MaskBudget::LeakyFraction(
            value
                .parse()
                .map_err(|_| format!("malformed fraction `{value}`"))?,
        )),
        "cells" => Ok(MaskBudget::CellFraction(
            value
                .parse()
                .map_err(|_| format!("malformed fraction `{value}`"))?,
        )),
        "count" => Ok(MaskBudget::Count(
            value
                .parse()
                .map_err(|_| format!("malformed count `{value}`"))?,
        )),
        other => Err(format!("unknown budget kind `{other}`")),
    }
}

/// `polaris-cli gen`
pub(crate) fn gen(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["help"])?;
    if flags.has("help") {
        println!(
            "gen <design-name> --out file.bench|file.v [--scale N --seed N]\n\n\
             Writes one of the generated benchmark designs to disk (the output\n\
             extension picks the format). Known names: the ISCAS-85-like training\n\
             suite (c17 and the `iscas_like` names, e.g. c432/c499/c880/c1908) and\n\
             the evaluation designs ({}).",
            generators::EVALUATION_NAMES.join(", ")
        );
        return Ok(());
    }
    let name = flags.positional(0, "design name")?;
    let out = flags.get("out").ok_or("missing --out <file>")?;
    let scale: u32 = flags.get_parsed("scale", 1)?;
    let seed: u64 = flags.get_parsed("seed", 7)?;
    let netlist = generators::by_name(name, scale, seed)
        .or_else(|| generators::iscas_like(name, scale, seed))
        .ok_or_else(|| format!("unknown design `{name}` (see `gen --help`)"))?;
    write_file(out, &render_netlist(out, &netlist))?;
    eprintln!(
        "{name} (scale {scale}, seed {seed}): {} gates written to {out}",
        netlist.gate_count()
    );
    Ok(())
}

/// `polaris-cli rules`
pub(crate) fn rules(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["help"])?;
    if flags.has("help") {
        println!("rules --model model.polaris");
        return Ok(());
    }
    let trained = load_model(&flags)?;
    if trained.rules().is_empty() {
        println!("(no rules were mined at training time)");
        return Ok(());
    }
    for (i, rule) in trained.rules().rules().iter().enumerate() {
        println!(
            "Rule {}: {}",
            (b'A' + (i % 26) as u8) as char,
            rule.render()
        );
    }
    Ok(())
}

/// `polaris-cli explain`
pub(crate) fn explain(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["help"])?;
    if flags.has("help") {
        println!("explain <netlist.v> --model model.polaris --gate <instance-name>");
        return Ok(());
    }
    let netlist = load_netlist(flags.positional(0, "netlist path")?)?;
    let trained = load_model(&flags)?;
    let gate_name = flags.get("gate").ok_or("missing --gate <instance-name>")?;

    let (norm, map) = polaris_netlist::transform::decompose(&netlist).map_err(|e| e.to_string())?;
    let original_id = netlist
        .iter()
        .find(|(_, g)| g.name() == gate_name)
        .map(|(id, _)| id)
        .ok_or_else(|| format!("no gate named `{gate_name}` in {}", netlist.name()))?;
    let id = map
        .representative(original_id)
        .ok_or_else(|| format!("gate `{gate_name}` vanished during normalization"))?;
    if !norm.gate(id).kind().is_combinational_cell() || norm.gate(id).fanin().len() > 2 {
        return Err(format!("gate `{gate_name}` is not a maskable cell"));
    }

    let view = GraphView::new(&norm);
    let levels = norm.levels().map_err(|e| e.to_string())?;
    let x = trained.extractor().extract(&norm, &view, &levels, id);
    let proba = polaris_ml::Classifier::predict_proba(trained.model(), &x);
    println!(
        "gate `{gate_name}` ({}): P(good masking candidate) = {proba:.3}\n",
        norm.gate(id).kind()
    );
    let w = trained.explainer().waterfall(trained.model(), &x);
    println!("{}", w.render(10, 28));
    if let Some(action) = trained.rules().decide(&x) {
        println!("matching mined rule says: {action}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_netlist::GateKind;

    #[test]
    fn csv_field_passes_clean_names_through_unquoted() {
        assert_eq!(csv_field("g42"), "g42");
        assert_eq!(csv_field("u_core/xor_1"), "u_core/xor_1");
        assert_eq!(csv_field(""), "");
    }

    #[test]
    fn csv_field_quotes_separators_and_doubles_quotes() {
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_field("two\nlines"), "\"two\nlines\"");
        assert_eq!(csv_field("cr\rname"), "\"cr\rname\"");
    }

    /// A netlist whose cell names contain `,` and `"` must still produce
    /// CSVs with a fixed column count on every row (the bugfix: names used
    /// to be interpolated raw, so one hostile name desynchronized the file
    /// CI `cmp`s).
    fn hostile_netlist() -> (Netlist, GateId, GateId, GateId) {
        let mut n = Netlist::new("hostile");
        let a = n.add_input("in_a");
        let b = n.add_input("in_b");
        let g1 = n.add_gate(GateKind::And, "and,comma", &[a, b]).unwrap();
        let g2 = n.add_gate(GateKind::Xor, "xor\"quote", &[a, g1]).unwrap();
        let g3 = n.add_gate(GateKind::Or, "or_clean", &[g1, g2]).unwrap();
        (n, g1, g2, g3)
    }

    /// Counts the comma-separated fields of one CSV record, honouring
    /// RFC-4180 quoting.
    fn field_count(line: &str) -> usize {
        let (mut fields, mut quoted) = (1, false);
        let mut chars = line.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                '"' if quoted && chars.peek() == Some(&'"') => {
                    chars.next();
                }
                '"' => quoted = !quoted,
                ',' if !quoted => fields += 1,
                _ => {}
            }
        }
        fields
    }

    #[test]
    fn pair_csv_keeps_column_structure_under_hostile_names() {
        let (n, g1, g2, _) = hostile_netlist();
        let r = WelchResult { t: 1.25, dof: 10.0 };
        let csv = co_moment_csv(&n, &[([g1, g2], r)]);
        assert!(csv.starts_with("gate_a,name_a,gate_b,name_b,t,leaky\n"));
        for line in csv.lines() {
            assert_eq!(field_count(line), 6, "bad record: {line}");
        }
        assert!(csv.contains("\"and,comma\""));
        assert!(csv.contains("\"xor\"\"quote\""));
    }

    #[test]
    fn triple_csv_keeps_column_structure_under_hostile_names() {
        let (n, g1, g2, g3) = hostile_netlist();
        let r = WelchResult { t: -7.5, dof: 99.0 };
        let csv = co_moment_csv(&n, &[([g1, g2, g3], r)]);
        assert!(csv.starts_with("gate_a,name_a,gate_b,name_b,gate_c,name_c,t,leaky\n"));
        for line in csv.lines() {
            assert_eq!(field_count(line), 8, "bad record: {line}");
        }
        assert!(csv.contains(",or_clean,"));
        assert!(csv.lines().nth(1).unwrap().ends_with(",-7.500000,1"));
    }

    #[test]
    fn parse_triple_list_accepts_and_rejects() {
        assert_eq!(
            parse_gate_sets("0:1:2,7:8:9", 3).unwrap(),
            vec![vec![0, 1, 2], vec![7, 8, 9]]
        );
        assert!(parse_gate_sets("0:1", 3).is_err());
        assert!(parse_gate_sets("0:1:2:3", 3).is_err());
        assert!(parse_gate_sets("0:x:2", 3).is_err());
        assert!(parse_gate_sets("", 3).is_err());
    }
}
