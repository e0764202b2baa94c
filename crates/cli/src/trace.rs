//! `polaris-cli trace` — offline analysis of the JSONL traces the
//! recording commands write via `--trace-out`, plus the shared
//! [`TraceOut`] helper those commands use to wire a recorder in.
//!
//! ```text
//! polaris-cli trace summarize <trace.jsonl>
//! ```
//!
//! `summarize` parses a trace with the bounded JSONL parser (hostile input
//! never panics) and prints the per-phase time breakdown, per-worker
//! throughput, the worker-utilization histogram, the stopping-rule
//! checkpoint table, and the final per-gate stopping audit. A file the
//! parser rejects exits with code [`EXIT_MALFORMED_TRACE`] so smoke
//! scripts can tell a corrupt trace from a generic failure.

use std::sync::Arc;

use polaris::report::{fmt_f, TextTable};
use polaris_obs::{JsonlRecorder, NullRecorder, Recorder, TraceError, TraceSummary};

use crate::{read_file, write_file, write_stdout, CliError, Flags};

/// Exit code of `trace summarize` on a trace the parser rejects —
/// distinct from the generic 1 so CI smoke jobs can gate on it.
pub(crate) const EXIT_MALFORMED_TRACE: u8 = 9;

const TRACE_USAGE: &str = "\
trace summarize <trace.jsonl>

Summarizes a JSONL trace written by `assess`/`mask`/`fleet`/`dist work`/
`dist merge` with --trace-out FILE: per-phase time breakdown, per-worker
throughput, utilization histogram, round checkpoints, and the final
adaptive-stopping audit table.

exit codes:
  1  generic failure (I/O, usage of other commands)
  2  usage error
  9  malformed trace file (rejected by the bounded JSONL parser)";

/// The `--trace-out FILE` wiring shared by every recording command: holds
/// a buffered [`JsonlRecorder`] when the flag is present, hands it to each
/// run call as its `&dyn Recorder` argument, and flushes the buffer to the
/// file once the command's campaigns are done. Without the flag the run
/// gets the zero-overhead null recorder. Only `serve`, whose coordinator
/// owns its recorder for the daemon's life, takes it as an `Arc`.
pub(crate) struct TraceOut {
    path: Option<String>,
    jsonl: Option<Arc<JsonlRecorder>>,
}

impl TraceOut {
    /// Reads `--trace-out` from the parsed flags.
    pub(crate) fn from_flags(flags: &Flags) -> Self {
        let path = flags.get("trace-out").map(str::to_string);
        let jsonl = path.as_ref().map(|_| Arc::new(JsonlRecorder::new()));
        TraceOut { path, jsonl }
    }

    /// The recorder to pass to a run call.
    pub(crate) fn dyn_recorder(&self) -> &dyn Recorder {
        match &self.jsonl {
            Some(j) => j.as_ref(),
            None => &NullRecorder,
        }
    }

    /// The recorder as an owned handle, for the serve coordinator.
    pub(crate) fn owned(&self) -> Arc<dyn Recorder> {
        match &self.jsonl {
            Some(j) => j.clone(),
            None => Arc::new(NullRecorder),
        }
    }

    /// Writes the buffered events to the `--trace-out` file (no-op when
    /// the flag was absent).
    pub(crate) fn flush(&self) -> Result<(), String> {
        if let (Some(path), Some(j)) = (&self.path, &self.jsonl) {
            let jsonl = j.to_jsonl();
            write_file(path, &jsonl)?;
            eprintln!("trace ({} events) written to {path}", jsonl.lines().count());
        }
        Ok(())
    }
}

/// `polaris-cli trace` dispatcher.
pub(crate) fn trace(args: &[String]) -> Result<(), CliError> {
    let Some(sub) = args.first() else {
        return Err(CliError {
            code: 2,
            message: format!("missing trace subcommand\n{TRACE_USAGE}"),
        });
    };
    let rest = &args[1..];
    match sub.as_str() {
        "summarize" => summarize(rest),
        "--help" | "-h" | "help" => {
            outln!("{TRACE_USAGE}");
            Ok(())
        }
        other => Err(CliError::from(format!(
            "unknown trace subcommand `{other}`\n{TRACE_USAGE}"
        ))),
    }
}

/// Maps a parse failure to the documented malformed-trace exit code.
fn trace_err(e: TraceError) -> CliError {
    CliError {
        code: EXIT_MALFORMED_TRACE,
        message: format!("malformed trace: {e}"),
    }
}

/// `polaris-cli trace summarize`
fn summarize(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(args, &["help"])?;
    if flags.has("help") {
        outln!("{TRACE_USAGE}");
        return Ok(());
    }
    let path = flags.positional(0, "trace file")?;
    let text = read_file(path)?;
    let events = polaris_obs::parse_trace(&text).map_err(trace_err)?;
    let summary = TraceSummary::build(&events);
    write_stdout(format_args!("{}", render_summary(&summary)));
    Ok(())
}

/// Milliseconds with three decimals from a nanosecond count.
fn ms(ns: u64) -> String {
    fmt_f(ns as f64 / 1e6, 3)
}

/// Renders the full summary report. Pure so the hostile-input and
/// formatting tests can assert on it without a process boundary.
fn render_summary(s: &TraceSummary) -> String {
    let mut out = String::new();
    out.push_str(&format!("events: {}\n", s.events));
    if s.events == 0 {
        out.push_str("(empty trace — nothing to summarize)\n");
        return out;
    }
    let counts = s
        .kind_counts
        .iter()
        .map(|(k, c)| format!("{k} x{c}"))
        .collect::<Vec<_>>()
        .join(", ");
    out.push_str(&format!("kinds:  {counts}\n"));

    // Per-phase breakdown over every shard span and fold.
    let phases_ns = s.phases.phases_ns();
    if phases_ns > 0 {
        let mut t = TextTable::new(
            ["phase", "time (ms)", "% of phases"]
                .map(String::from)
                .to_vec(),
        );
        let pct = |ns: u64| fmt_f(ns as f64 * 100.0 / phases_ns as f64, 1);
        for (name, ns) in [
            ("rng", s.phases.rng_ns),
            ("simulate", s.phases.sim_ns),
            ("power", s.phases.power_ns),
            ("accumulate", s.phases.acc_ns),
            ("overhead", s.phases.overhead_ns()),
            ("fold", s.phases.fold_ns),
            ("checkpoint", s.phases.checkpoint_ns),
        ] {
            t.push_row(vec![name.to_string(), ms(ns), pct(ns)]);
        }
        t.push_row(vec!["total".to_string(), ms(phases_ns), fmt_f(100.0, 1)]);
        out.push_str(&format!("\nphase breakdown:\n{}", t.render()));
        if let Some(coverage) = s.phase_coverage() {
            out.push_str(&format!(
                "phase coverage: {} of {} ms campaign wall time ({}%)\n",
                ms(phases_ns),
                ms(s.campaign_wall_ns.unwrap_or(0)),
                fmt_f(coverage * 100.0, 1)
            ));
        }
    }

    // Per-worker throughput over the spans each thread recorded.
    if !s.workers.is_empty() {
        let mut t = TextTable::new(
            ["thread", "shards", "busy (ms)", "shards/sec", "jobs"]
                .map(String::from)
                .to_vec(),
        );
        for w in &s.workers {
            let jobs = w
                .jobs
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(",");
            t.push_row(vec![
                w.thread.to_string(),
                w.shards.to_string(),
                ms(w.busy_ns),
                fmt_f(w.shards_per_sec(), 0),
                jobs,
            ]);
        }
        out.push_str(&format!("\nworkers:\n{}", t.render()));
    }

    // Fleet worker-utilization histogram (10% buckets of busy/wall).
    if let Some(histogram) = &s.utilization {
        out.push_str("\nworker utilization (busy/wall, 10% buckets):\n");
        let peak = histogram.iter().copied().max().unwrap_or(0).max(1);
        for (i, count) in histogram.iter().enumerate() {
            let bar = "#".repeat((count * 40 / peak) as usize);
            out.push_str(&format!(
                "  {:>3}-{:>3}% {:>4} {bar}\n",
                i * 10,
                (i + 1) * 10,
                count
            ));
        }
    }
    if let Some(depth) = s.max_queue_depth {
        out.push_str(&format!("max queue depth: {depth}\n"));
    }
    if s.parts_executed > 0 {
        out.push_str(&format!(
            "distributed parts executed: {}\n",
            s.parts_executed
        ));
    }

    // Stopping-rule looks, one row per round checkpoint.
    if !s.checkpoints.is_empty() {
        let mut t = TextTable::new(
            [
                "round", "fixed", "random", "fraction", "boundary", "leaky", "clean", "open",
                "stop",
            ]
            .map(String::from)
            .to_vec(),
        );
        for c in &s.checkpoints {
            t.push_row(vec![
                c.round.to_string(),
                c.fixed_traces.to_string(),
                c.random_traces.to_string(),
                fmt_f(c.fraction, 3),
                fmt_f(c.boundary, 3),
                c.leaky.to_string(),
                c.clean.to_string(),
                c.unresolved.to_string(),
                if c.stop { "yes" } else { "" }.to_string(),
            ]);
        }
        out.push_str(&format!("\nround checkpoints:\n{}", t.render()));
    }

    // Per-gate audit rows of the final look.
    if !s.final_audit.is_empty() {
        let mut t = TextTable::new(
            ["gate", "|t|", "boundary", "verdict"]
                .map(String::from)
                .to_vec(),
        );
        for row in &s.final_audit {
            t.push_row(vec![
                row.gate.to_string(),
                fmt_f(row.abs_t, 3),
                fmt_f(row.boundary, 3),
                row.verdict.as_str().to_string(),
            ]);
        }
        out.push_str(&format!("\nfinal stopping audit:\n{}", t.render()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_obs::parse_trace;

    fn summarize_text(input: &str) -> Result<String, CliError> {
        let events = parse_trace(input).map_err(trace_err)?;
        Ok(render_summary(&TraceSummary::build(&events)))
    }

    #[test]
    fn empty_trace_renders_without_tables() {
        let report = summarize_text("").unwrap();
        assert!(report.contains("events: 0"));
        assert!(report.contains("nothing to summarize"));
    }

    #[test]
    fn malformed_json_maps_to_exit_code_9() {
        for hostile in [
            "{not json",
            "{\"kind\": \"shard_span\"", // unterminated object
            "{\"kind\": [\"nested\"]}",  // nesting is rejected
            "{\"t\": 1, \"t\": 2, \"kind\": \"x\"}", // duplicate key
            "null",
        ] {
            let err = summarize_text(hostile).unwrap_err();
            assert_eq!(err.code, EXIT_MALFORMED_TRACE, "input: {hostile}");
            assert!(err.message.contains("malformed trace"), "input: {hostile}");
        }
    }

    #[test]
    fn oversized_line_maps_to_exit_code_9() {
        let huge = format!("{{\"kind\": \"{}\"}}", "x".repeat(70_000));
        let err = summarize_text(&huge).unwrap_err();
        assert_eq!(err.code, EXIT_MALFORMED_TRACE);
    }

    /// A shard span without the power phase (the layout written before
    /// `power_ns` existed) is malformed, not summarized with a zero.
    #[test]
    fn shard_span_without_power_phase_maps_to_exit_code_9() {
        let err = summarize_text(concat!(
            "{\"t\": 0, \"thread\": 0, \"kind\": \"shard_span\", \"job\": 0, \"round\": 1, ",
            "\"grid_index\": 0, \"pop\": \"fixed\", \"start\": 0, \"count\": 256, ",
            "\"wall_ns\": 1000000, \"rng_ns\": 600000, \"sim_ns\": 250000, ",
            "\"acc_ns\": 100000}\n",
        ))
        .unwrap_err();
        assert_eq!(err.code, EXIT_MALFORMED_TRACE);
        assert!(err.message.contains("power_ns"), "{}", err.message);
    }

    #[test]
    fn unknown_event_kind_maps_to_exit_code_9() {
        let err = summarize_text("{\"t\": 0, \"thread\": 0, \"kind\": \"mystery\"}").unwrap_err();
        assert_eq!(err.code, EXIT_MALFORMED_TRACE);
    }

    #[test]
    fn renders_phases_workers_and_audit_tables() {
        let trace = concat!(
            "{\"t\": 0, \"thread\": 0, \"kind\": \"shard_span\", \"job\": 0, \"round\": 1, ",
            "\"grid_index\": 0, \"pop\": \"fixed\", \"start\": 0, \"count\": 256, ",
            "\"wall_ns\": 1000000, \"rng_ns\": 100000, \"sim_ns\": 250000, ",
            "\"power_ns\": 500000, \"acc_ns\": 100000}\n",
            "{\"t\": 5, \"thread\": 0, \"kind\": \"fold_span\", \"round\": 1, ",
            "\"shards\": 2, \"wall_ns\": 50000}\n",
            "{\"t\": 6, \"thread\": 0, \"kind\": \"round_checkpoint\", \"round\": 1, ",
            "\"planned_rounds\": 4, \"fixed_traces\": 256, \"random_traces\": 256, ",
            "\"fraction\": 0.25, \"boundary\": 1.5, \"leaky\": 1, \"clean\": 2, ",
            "\"unresolved\": 0, \"stop\": true, \"wall_ns\": 30000}\n",
            "{\"t\": 7, \"thread\": 0, \"kind\": \"stop_audit\", \"round\": 1, ",
            "\"gate\": 3, \"abs_t\": 6.125, \"boundary\": 1.5, \"verdict\": \"leaky\"}\n",
            "{\"t\": 9, \"thread\": 0, \"kind\": \"campaign_end\", \"rounds\": 1, ",
            "\"stopped_early\": true, \"fixed_traces\": 256, \"random_traces\": 256, ",
            "\"wall_ns\": 1100000}\n",
        );
        let report = summarize_text(trace).unwrap();
        assert!(report.contains("events: 5"));
        assert!(report.contains("phase breakdown:"));
        assert!(report.contains("rng"));
        assert!(report.contains("power"));
        assert!(report.contains("phase coverage:"));
        assert!(report.contains("round checkpoints:"));
        assert!(report.contains("final stopping audit:"));
        assert!(report.contains("leaky"));
        assert!(report.contains("workers:"));
    }

    #[test]
    fn trace_out_without_flag_is_null_and_flushes_nothing() {
        let flags = Flags::parse(&[], &[]).unwrap();
        let t = TraceOut::from_flags(&flags);
        assert!(!t.dyn_recorder().enabled());
        assert!(!t.owned().enabled());
        t.flush().unwrap();
    }
}
