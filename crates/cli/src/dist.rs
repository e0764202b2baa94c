//! `polaris-cli dist` — distributed campaign orchestration.
//!
//! ```text
//! polaris-cli dist plan  <netlist> --parts K --out plan.txt
//!                        [--traces N --seed N --cycles N --glitch --sink welch|samples]
//! polaris-cli dist work  <netlist> --plan plan.txt --part I --out part-I.shard [--threads N]
//! polaris-cli dist merge <netlist> --plan plan.txt part-0.shard part-1.shard …
//!                        [--csv out.csv]
//! ```
//!
//! The coordinator `plan`s the campaign's shard grid into contiguous parts;
//! each `work` process (any host — only the netlist and the plan manifest
//! travel) executes its part and snapshots per-shard accumulator state into
//! a checksummed `.shard` file; `merge` folds a complete set of parts in
//! canonical shard order. The merged statistics are **byte-identical** to a
//! single-process `polaris-cli assess` of the same campaign, at any
//! partitioning.
//!
//! Failures decoding shard-state input map to distinct exit codes (see
//! [`EXIT_CODES`]) so orchestration scripts can react without parsing
//! stderr: re-fetch a truncated part, rebuild on version skew, re-plan on a
//! fingerprint mismatch.

use polaris_dist::{
    execute_job_part, merge_parts_traced, merged_outcome, DistError, DistPlan, SinkKind,
};
use polaris_netlist::Netlist;
use polaris_obs::Recorder;
use polaris_sim::{FleetJob, GateSamples, Parallelism, PowerModel};
use polaris_tvla::{
    parse_gate_sets, set_noun, CoMomentAccumulator, Order, SupportedOrder, WelchAccumulator,
    TVLA_THRESHOLD,
};

use crate::commands::{
    campaign_from, co_moment_csv, leakage_csv, load_netlist, order_words, parallelism_from,
    print_worst,
};
use crate::{read_file, write_file, CliError, Flags};

/// Exit-code table of the `dist` subcommands, also printed by
/// `dist --help`. Code 1 stays the generic failure (I/O, usage of other
/// commands); 2 stays usage errors; 8 is `assess`'s multivariate input
/// error, shared with invalid plan gate lists so a hand-edited manifest
/// fails the same way a bad `--pair-gates`/`--triple-gates` flag does.
pub(crate) const EXIT_CODES: &str = "\
exit codes:
  1  generic failure (I/O, simulation, usage)
  3  truncated shard-state file
  4  malformed shard-state file or plan manifest (bad magic, bad structure)
  5  shard-state format version mismatch (rebuild workers and merger together)
  6  shard-state checksum mismatch (corrupted file)
  7  plan mismatch (wrong netlist/campaign fingerprint, wrong sink kind,
     missing/duplicate/overlapping parts)
  8  multivariate gate-list error (a pair/triple list — CLI flag or plan
     manifest — referencing a gate outside the design, repeating a gate
     within one entry, or duplicating an entry)";

fn dist_err(e: DistError) -> CliError {
    CliError {
        code: e.exit_class(),
        message: e.to_string(),
    }
}

const DIST_USAGE: &str = "\
dist plan  <netlist> --parts K --out plan.txt [--traces N --seed N --cycles N --glitch]
           [--sink welch|samples|pairs|triples] [--pair-gates A:B,C:D]
           [--triple-gates A:B:C,D:E:F]
dist work  <netlist> --plan plan.txt --part I --out part-I.shard [--threads N]
           [--trace-out trace.jsonl]
dist merge <netlist> --plan plan.txt <part.shard>... [--csv out.csv]
           [--trace-out trace.jsonl]";

/// `polaris-cli dist` dispatcher.
pub(crate) fn dist(args: &[String]) -> Result<(), CliError> {
    let Some(sub) = args.first() else {
        return Err(CliError::from(format!(
            "missing dist subcommand\n{DIST_USAGE}"
        )));
    };
    let rest = &args[1..];
    match sub.as_str() {
        "plan" => plan(rest),
        "work" => work(rest),
        "merge" => merge(rest),
        "--help" | "-h" | "help" => {
            println!("{DIST_USAGE}\n\n{EXIT_CODES}");
            Ok(())
        }
        other => Err(CliError::from(format!(
            "unknown dist subcommand `{other}`\n{DIST_USAGE}"
        ))),
    }
}

/// Parses the plan manifest the coordinator wrote, then re-verifies it
/// against the freshly loaded netlist (fingerprint + grid size).
fn load_plan(
    flags: &Flags,
    netlist: &polaris_netlist::Netlist,
    model: &polaris_sim::PowerModel,
) -> Result<DistPlan, CliError> {
    let path = flags
        .get("plan")
        .ok_or_else(|| CliError::from("missing --plan <manifest>".to_string()))?;
    let plan = DistPlan::parse(&read_file(path)?).map_err(dist_err)?;
    plan.verify(netlist, model).map_err(dist_err)?;
    Ok(plan)
}

/// `polaris-cli dist plan`
fn plan(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(args, &["glitch", "help"])?;
    if flags.has("help") {
        println!("{DIST_USAGE}\n\n{EXIT_CODES}");
        return Ok(());
    }
    let netlist = load_netlist(flags.positional(0, "netlist path")?)?;
    let campaign = campaign_from(&flags, 7)?;
    let parts: usize = flags.get_parsed("parts", 2)?;
    if parts == 0 {
        return Err(CliError::from("--parts must be at least 1".to_string()));
    }
    let sink = match flags.get("sink").unwrap_or("welch") {
        "welch" => SinkKind::Welch,
        "samples" => SinkKind::GateSamples,
        "pairs" => SinkKind::Pairs,
        "triples" => SinkKind::Triples,
        other => {
            return Err(CliError::from(format!(
                "unknown sink `{other}` (dist campaigns snapshot `welch`, `samples`, \
                 `pairs` or `triples`)"
            )))
        }
    };
    let out = flags
        .get("out")
        .ok_or_else(|| CliError::from("missing --out <plan manifest>".to_string()))?;
    for order in [2, 3] {
        let noun = set_noun(order);
        if flags.get(&format!("{noun}-gates")).is_some() && sink.order() != Some(order) {
            return Err(CliError::from(format!(
                "--{noun}-gates is only valid with --sink {noun}s"
            )));
        }
    }
    let model = polaris_sim::PowerModel::default();
    let plan = match sink.order() {
        Some(order) => {
            let noun = set_noun(order);
            let example = if order == 2 { "A:B,C:D" } else { "A:B:C,D:E:F" };
            let spec = flags.get(&format!("{noun}-gates")).ok_or_else(|| {
                CliError::from(format!(
                    "--sink {noun}s needs --{noun}-gates {example} (the gate {noun}s every \
                     worker accumulates)"
                ))
            })?;
            let sets = parse_gate_sets(spec, order)?;
            DistPlan::new_gate_sets(&netlist, &model, &campaign, order, sets, parts)
        }
        None => DistPlan::new(&netlist, &model, &campaign, sink, parts),
    }
    .map_err(dist_err)?;
    write_file(out, &plan.render())?;
    eprintln!(
        "planned {} + {} traces over {} shards in {} part(s); manifest written to {out}",
        plan.n_fixed,
        plan.n_random,
        plan.n_shards,
        plan.parts.len()
    );
    eprintln!(
        "next: run `dist work {} --plan {out} --part I --out part-I.shard` for every part",
        flags.positional(0, "netlist path")?
    );
    Ok(())
}

/// `polaris-cli dist work`
fn work(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(args, &["help"])?;
    if flags.has("help") {
        println!("{DIST_USAGE}\n\n{EXIT_CODES}");
        return Ok(());
    }
    let netlist = load_netlist(flags.positional(0, "netlist path")?)?;
    let model = polaris_sim::PowerModel::default();
    let plan = load_plan(&flags, &netlist, &model)?;
    let campaign = plan.campaign();
    let part: usize = flags
        .get("part")
        .ok_or_else(|| CliError::from("missing --part <index>".to_string()))?
        .parse()
        .map_err(|_| CliError::from("malformed --part value".to_string()))?;
    let out = flags
        .get("out")
        .ok_or_else(|| CliError::from("missing --out <shard-state file>".to_string()))?;
    let parallelism: Parallelism = parallelism_from(&flags)?;
    let trace_out = crate::trace::TraceOut::from_flags(&flags);
    let recorder = trace_out.dyn_recorder();
    eprintln!(
        "executing part {part} of {} ({} shards total, {} worker threads)…",
        plan.parts.len(),
        plan.n_shards,
        parallelism.threads()
    );
    let parts = plan.parts.len();
    let bytes = match plan.sink {
        SinkKind::Welch => execute_job_part(
            &FleetJob::<WelchAccumulator>::new(&netlist, &model, campaign),
            parallelism,
            part,
            parts,
            recorder,
        ),
        SinkKind::GateSamples => execute_job_part(
            &FleetJob::<GateSamples>::new(&netlist, &model, campaign),
            parallelism,
            part,
            parts,
            recorder,
        ),
        SinkKind::Pairs => execute_job_part(
            &FleetJob::new(&netlist, &model, campaign)
                .with_sink_factory(|| CoMomentAccumulator::<2>::new(&plan.gate_sets)),
            parallelism,
            part,
            parts,
            recorder,
        ),
        SinkKind::Triples => execute_job_part(
            &FleetJob::new(&netlist, &model, campaign)
                .with_sink_factory(|| CoMomentAccumulator::<3>::new(&plan.gate_sets)),
            parallelism,
            part,
            parts,
            recorder,
        ),
    }
    .map_err(dist_err)?;
    // Atomic tmp-then-rename: a worker killed mid-write must never leave a
    // truncated part at the final path for a later merge to reject.
    crate::write_file_bytes(out, &bytes).map_err(CliError::from)?;
    eprintln!("shard state ({} bytes) written to {out}", bytes.len());
    trace_out.flush()?;
    Ok(())
}

/// `polaris-cli dist merge`
fn merge(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(args, &["help"])?;
    if flags.has("help") {
        println!("{DIST_USAGE}\n\n{EXIT_CODES}");
        return Ok(());
    }
    let netlist = load_netlist(flags.positional(0, "netlist path")?)?;
    let model = polaris_sim::PowerModel::default();
    let plan = load_plan(&flags, &netlist, &model)?;
    let campaign = plan.campaign();
    let mut part_files: Vec<Vec<u8>> = Vec::new();
    let mut i = 1;
    while let Ok(path) = flags.positional(i, "shard-state file") {
        part_files.push(
            std::fs::read(path)
                .map_err(|e| CliError::from(format!("cannot read shard state {path}: {e}")))?,
        );
        i += 1;
    }
    if part_files.is_empty() {
        return Err(CliError::from(
            "no shard-state files given (pass every part as a positional argument)".to_string(),
        ));
    }
    let trace_out = crate::trace::TraceOut::from_flags(&flags);
    let recorder = trace_out.dyn_recorder();

    match plan.sink {
        SinkKind::Welch => {
            let merged = merge_parts_traced::<WelchAccumulator>(
                part_files.iter().map(Vec::as_slice),
                Some(plan.fingerprint),
                recorder,
            )
            .map_err(dist_err)?;
            let parts = merged.parts;
            let outcome = merged_outcome(&netlist, &model, &campaign, merged).map_err(dist_err)?;
            let leakage = outcome.sink.leakage();
            let s = leakage.summarize(&netlist);
            eprintln!(
                "folded {} shards from {parts} part(s) — statistics are byte-identical \
                 to a single-process run",
                plan.n_shards
            );
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
        }
        SinkKind::GateSamples => {
            if flags.get("csv").is_some() {
                return Err(CliError::from(
                    "--csv is only available for welch-, pairs- and triples-sink plans".to_string(),
                ));
            }
            let merged = merge_parts_traced::<GateSamples>(
                part_files.iter().map(Vec::as_slice),
                Some(plan.fingerprint),
                recorder,
            )
            .map_err(dist_err)?;
            let parts = merged.parts;
            let samples = merged.state;
            let (fixed, random) = samples.classes();
            println!(
                "merged dense samples: {} gates, {} fixed + {} random traces \
                 ({parts} part(s), {} shards)",
                samples.gate_count(),
                fixed.first().map_or(0, Vec::len),
                random.first().map_or(0, Vec::len),
                plan.n_shards
            );
            println!("(for distributed bivariate sweeps, plan with --sink pairs)");
        }
        SinkKind::Pairs => merge_co_moments::<2>(&flags, &netlist, &plan, &part_files, recorder)?,
        SinkKind::Triples => merge_co_moments::<3>(&flags, &netlist, &plan, &part_files, recorder)?,
    }
    trace_out.flush()?;
    Ok(())
}

/// `dist merge` of a co-moment plan at order `K`: fold the parts, print the
/// sweep like `assess` does, and write `--csv` with the same writer, so the
/// file is byte-identical to the single-process `assess --pairs-csv` /
/// `--triples-csv` output.
fn merge_co_moments<const K: usize>(
    flags: &Flags,
    netlist: &Netlist,
    plan: &DistPlan,
    part_files: &[Vec<u8>],
    recorder: &dyn Recorder,
) -> Result<(), CliError>
where
    Order<K>: SupportedOrder,
{
    let merged = merge_parts_traced::<CoMomentAccumulator<K>>(
        part_files.iter().map(Vec::as_slice),
        Some(plan.fingerprint),
        recorder,
    )
    .map_err(dist_err)?;
    let parts = merged.parts;
    let outcome = merged_outcome(netlist, &PowerModel::default(), &plan.campaign(), merged)
        .map_err(dist_err)?;
    let sweep = outcome.sink.sweep();
    let noun = set_noun(K);
    let (ordinal, test) = order_words(K);
    eprintln!(
        "folded {} shards from {parts} part(s) — {noun} statistics are \
         byte-identical to a single-process `assess --{noun}-gates` run",
        plan.n_shards
    );
    let leaky = sweep
        .iter()
        .filter(|(_, r)| r.is_leaky(TVLA_THRESHOLD))
        .count();
    let width = (noun.len() + 9).max(14);
    println!("{:<width$}{}", format!("gate {noun}s:"), sweep.len());
    println!(
        "{:<width$}{leaky} (|t| > {TVLA_THRESHOLD})",
        format!("leaky {noun}s:")
    );
    println!("worst {ordinal}-order ({test}) {noun}s:");
    print_worst(netlist, &sweep);
    if let Some(csv) = flags.get("csv") {
        write_file(csv, &co_moment_csv(netlist, &sweep))?;
        eprintln!("per-{noun} results written to {csv}");
    }
    Ok(())
}
