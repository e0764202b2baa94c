//! `polaris-cli fleet` — assess a manifest of designs as one shared-pool
//! fleet.
//!
//! The manifest is a plain text file with one netlist path per line (blank
//! lines and `#` comments are skipped; relative paths resolve against the
//! working directory). Every design's fixed-vs-random campaign becomes one
//! [`FleetJob`] of a single [`run_fleet`] pool, so shards of all designs
//! interleave on the same worker threads instead of each campaign
//! serializing on its own fold barrier.
//!
//! Results are byte-identical to per-design `polaris-cli assess` runs with
//! the same flags — the CI fleet smoke `cmp`s the emitted CSVs against solo
//! `assess --csv` outputs.

use polaris_netlist::Netlist;
use polaris_sim::{run_fleet, CampaignOutcome, FleetJob, PowerModel};
use polaris_tvla::{adaptive_fleet_job, SequentialConfig, WelchAccumulator, TVLA_THRESHOLD};

use polaris::report::{fmt_f, TextTable};

use crate::commands::{
    campaign_from, confidence_from, leakage_csv, load_netlist, parallelism_from,
};
use crate::{read_file, write_file, Flags};

/// `polaris-cli fleet`
pub(crate) fn fleet(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["glitch", "adaptive", "help"])?;
    if flags.has("help") {
        println!(
            "fleet <manifest.txt> [--traces N --seed N --cycles N --threads N --glitch] \
             [--adaptive --confidence P] [--csv-dir DIR] [--trace-out trace.jsonl]\n\n\
             manifest: one netlist path per line (# comments, blank lines ok).\n\
             Runs every design's TVLA campaign as a work item on one shared worker\n\
             pool; per-design results are byte-identical to solo `assess` runs.\n\
             --trace-out records queue depth, per-item spans and worker summaries\n\
             (summarize with `polaris-cli trace summarize FILE`)."
        );
        return Ok(());
    }
    let manifest_path = flags.positional(0, "manifest path")?;
    let manifest = read_file(manifest_path)?;
    let mut paths: Vec<String> = Vec::new();
    for line in manifest.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        paths.push(line.to_string());
    }
    if paths.is_empty() {
        return Err(format!("{manifest_path}: no design paths in manifest"));
    }
    let designs: Vec<Netlist> = paths
        .iter()
        .map(|p| load_netlist(p))
        .collect::<Result<_, _>>()?;

    let campaign = campaign_from(&flags, 7)?;
    let par = parallelism_from(&flags)?;
    let adaptive = flags.has("adaptive");
    let confidence = confidence_from(&flags)?;
    let power = PowerModel::default();

    // Validate the CSV destination before any campaign runs — a manifest
    // error after a multi-million-trace fleet would discard all of it.
    let csv_dir = flags.get("csv-dir");
    if let Some(dir) = csv_dir {
        // CSV names derive from the manifest paths' file stems; two entries
        // with the same stem would silently overwrite each other's results.
        let mut stems: Vec<&str> = paths.iter().map(|p| csv_stem(p)).collect();
        stems.sort_unstable();
        if let Some(dup) = stems.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!(
                "manifest has two designs with the CSV name `{}.csv` — rename one \
                 file or drop --csv-dir",
                dup[0]
            ));
        }
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    }

    eprintln!(
        "fleet: {} designs, {} traces/class{}, {} worker threads (shared pool)…",
        designs.len(),
        campaign.n_fixed,
        if adaptive {
            " budget, adaptive stopping"
        } else {
            ""
        },
        par.threads()
    );
    let trace_out = crate::trace::TraceOut::from_flags(&flags);
    let jobs: Vec<FleetJob<'_, WelchAccumulator>> = designs
        .iter()
        .map(|design| {
            if adaptive {
                let seq = SequentialConfig::with_confidence(confidence);
                adaptive_fleet_job(design, &power, campaign.clone(), &seq)
            } else {
                FleetJob::new(design, &power, campaign.clone())
            }
        })
        .collect();
    let start = std::time::Instant::now();
    let outcomes: Vec<CampaignOutcome<WelchAccumulator>> =
        run_fleet(jobs, par, trace_out.dyn_recorder()).map_err(|e| e.to_string())?;
    let seconds = start.elapsed().as_secs_f64();
    trace_out.flush()?;
    let suite_traces: usize = outcomes.iter().map(|o| o.stats.traces_used()).sum();
    eprintln!(
        "fleet finished: {suite_traces} traces across the suite in {seconds:.3}s \
         ({:.0} traces/sec)",
        suite_traces as f64 / seconds.max(1e-9)
    );

    let mut table = TextTable::new(
        [
            "design", "cells", "mean |t|", "max |t|", "leaky", "traces", "rounds", "verdict",
        ]
        .map(String::from)
        .to_vec(),
    );
    for ((path, design), outcome) in paths.iter().zip(&designs).zip(&outcomes) {
        let leakage = outcome.sink.leakage();
        let s = leakage.summarize(design);
        table.push_row(vec![
            design.name().to_string(),
            s.cells.to_string(),
            fmt_f(s.mean_abs_t, 3),
            fmt_f(s.max_abs_t, 3),
            s.leaky_cells.to_string(),
            format!(
                "{}{}",
                outcome.stats.traces_used(),
                if outcome.stats.stopped_early {
                    " (early)"
                } else {
                    ""
                }
            ),
            format!("{}/{}", outcome.stats.rounds, outcome.stats.planned_rounds),
            if s.max_abs_t > TVLA_THRESHOLD {
                "LEAKY".to_string()
            } else {
                "clean".to_string()
            },
        ]);
        if let Some(dir) = csv_dir {
            let out = format!("{dir}/{}.csv", csv_stem(path));
            write_file(&out, &leakage_csv(design, &leakage))?;
            eprintln!("per-gate results written to {out}");
        }
    }
    println!("{}", table.render());
    Ok(())
}

/// The per-design CSV name a manifest path maps to under `--csv-dir`.
fn csv_stem(path: &str) -> &str {
    std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("design")
}
