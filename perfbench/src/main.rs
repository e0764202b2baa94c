//! The repository's benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--cli PATH] [--work DIR]
//! ```
//!
//! Runs one workload (see `README.md` beside this package) and prints, as
//! the last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. An untraced run
//! (`--trace 0`) reports the end-to-end metrics; a traced run (`--trace 1`)
//! reports the per-layer metrics and writes its spans to
//! `DIR/trace-<workload>-<seed>.jsonl`. Two lines before it carry the host
//! block and the workload's own figures.

mod common;
mod host;
mod pipeline;
mod probes;
mod serve_c432;
mod stats;
mod trace;
mod tvla_c1908;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use common::{Ctx, Metric, Outcome};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["tvla-c1908", "serve-c432"];

/// End-to-end metrics every untraced run reports, with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("traces_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every traced run reports, with units. A layer that
/// does no work on a workload reports 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("power.noise_ns_per_sample", "ns"),
    ("sim.eval_ns_per_gate_block", "ns"),
    ("campaign.shards_s", "s"),
    ("campaign.fold_s", "s"),
    ("campaign.gate_traces", "count"),
    ("campaign.unattributed_frac", "frac"),
    ("tvla.welch_record_ns_per_sample", "ns"),
    ("tvla.welch_merge_ns", "ns"),
    ("tvla.pair_push_ns", "ns"),
    ("tvla.pair_merge_ns", "ns"),
    ("tvla.triple_push_ns", "ns"),
    ("tvla.triple_merge_ns", "ns"),
    ("core.cognition_s", "s"),
    ("core.cognition_campaigns", "count"),
    ("core.cognition_traces", "count"),
    ("ml.holdout_fit_s", "s"),
    ("ml.fit_s", "s"),
    ("xai.rules_s", "s"),
    ("netlist.decompose_s", "s"),
    ("pipeline.unattributed_frac", "frac"),
    ("core.rank_s", "s"),
    ("masking.apply_s", "s"),
    ("masking.gate_growth", "ratio"),
    ("tvla.report_s", "s"),
    ("serve.compute_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.cache_hit_ms", "ms"),
    ("serve.computed", "count"),
    ("serve.cached", "count"),
    ("serve.coalesced", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("dist.encode_part_us", "us"),
    ("dist.decode_part_us", "us"),
    ("dist.merge_parts_ms", "ms"),
    ("proto.round_trip_us", "us"),
    ("bench.trace_overhead_frac", "frac"),
    ("obs.recorder_overhead_frac", "frac"),
    ("obs.rounds_traced", "count"),
    ("obs.rounds_untraced", "count"),
    ("train_s", "s"),
    ("protect_s", "s"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    cli: Option<PathBuf>,
    work: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut cli = None;
    let mut work = PathBuf::from("perfbench/work");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value after {flag}"))?;
        let bad = |what: &str| format!("{flag} takes {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad("a number"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--cli" => cli = Some(PathBuf::from(value)),
            "--work" => work = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds: f64 = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
        cli,
        work,
    })
}

/// Runs workload `name` and returns what it measured.
pub fn run_workload(ctx: &Ctx, name: &str) -> Outcome {
    let mut out = Outcome::default();
    match name {
        "tvla-c1908" => tvla_c1908::run(ctx, &mut out),
        "serve-c432" => serve_c432::run(ctx, &mut out),
        other => unreachable!("workload `{other}` was validated"),
    }
    out
}

fn metric_json(m: &Metric) -> String {
    format!(
        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
        m.name, m.value, m.unit
    )
}

/// The metrics a run prints, in table order: exactly the end-to-end set,
/// or exactly the per-layer set with 0 for layers that did no work.
///
/// # Errors
///
/// A missing end-to-end metric, a unit that disagrees with the table, or a
/// value that is not finite.
pub fn select_metrics(out: &Outcome, trace: bool) -> Result<Vec<Metric>, String> {
    let (table, measured): (&[(&str, &str)], &[Metric]) = if trace {
        (&PER_LAYER, &out.layers)
    } else {
        (&END_TO_END, &out.e2e)
    };
    let mut selected = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let m = match measured.iter().find(|m| m.name == name) {
            Some(m) => m.clone(),
            None if trace => Metric {
                name,
                value: 0.0,
                unit,
            },
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !stats::valid_metric_name(name) {
            return Err(format!("{name} is not a valid metric name"));
        }
        if m.unit != unit {
            return Err(format!("{name} measured in {}, declared in {unit}", m.unit));
        }
        if !m.value.is_finite() {
            return Err(format!("{name} is {}", m.value));
        }
        selected.push(m);
    }
    if let Some(m) = measured
        .iter()
        .find(|m| !table.iter().any(|t| t.0 == m.name))
    {
        return Err(format!("{} is not a declared metric", m.name));
    }
    Ok(selected)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: cannot create {}: {e}", args.work.display());
        return ExitCode::from(1);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        tiny: false,
        cli: args.cli,
        work: args.work,
    };
    let mut out = run_workload(&ctx, &args.workload);
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    out.detail("error_rate", error_rate, "frac");

    println!("{}", host::block());
    let details: Vec<String> = out.details.iter().map(metric_json).collect();
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"details\": {{{}}}}}",
        args.workload,
        args.seed,
        details.join(", ")
    );
    if let Some(t) = &out.tracer {
        let path = ctx
            .work
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        match std::fs::write(&path, t.to_jsonl()) {
            Ok(()) => {
                eprintln!("spans written to {}; self time by span:", path.display());
                let mut selfs: Vec<_> = t.self_times().into_iter().collect();
                selfs.sort_by(|a, b| b.1.total_cmp(&a.1));
                for (name, s) in selfs {
                    eprintln!("  {s:>10.4} s  {name}");
                }
            }
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }
    let metrics = match select_metrics(&out, args.trace) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let _ = write!(body, "{}{}", if i == 0 { "" } else { ", " }, metric_json(m));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests;
