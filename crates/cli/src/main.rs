//! `polaris-cli` — the POLARIS design-for-security tool.
//!
//! ```text
//! polaris-cli train   --out model.polaris [--scale N --traces N --seed N --threads N --model adaboost|xgboost|random-forest --glitch --adaptive --confidence P]
//! polaris-cli stats   <netlist.v>
//! polaris-cli assess  <netlist.v> [--traces N --seed N --threads N --glitch --adaptive --confidence P] [--csv out.csv]
//!                     [--pairs N | --pair-gates A:B,C:D] [--pairs-csv out.csv]
//!                     [--triples N | --triple-gates A:B:C,D:E:F] [--triples-csv out.csv] [--trace-out trace.jsonl]
//! polaris-cli fleet   <manifest.txt> [--traces N --seed N --threads N --glitch --adaptive --confidence P] [--csv-dir DIR]
//!                     [--trace-out trace.jsonl]
//! polaris-cli trace   summarize <trace.jsonl>
//! polaris-cli gen     <design-name> --out file.bench [--scale N --seed N]
//! polaris-cli mask    <netlist.v> --model model.polaris --out masked.v
//!                     [--budget leaky:0.5 | cells:0.5 | count:N] [--threads N] [--adaptive --confidence P] [--report]
//! polaris-cli rules   --model model.polaris
//! polaris-cli explain <netlist.v> --model model.polaris --gate <instance-name>
//! polaris-cli serve   [--listen 127.0.0.1:0 --heartbeat-ms N --trace-out trace.jsonl]
//! polaris-cli worker  --connect HOST:PORT [--name ID --threads N]
//! polaris-cli submit  <netlist.v> --connect HOST:PORT [--tenant ID --traces N --seed N
//!                     --cycles N --glitch --adaptive --confidence P] [--csv out.csv]
//! ```
//!
//! Trace campaigns run on the sharded parallel engine; `--threads` (0 = all
//! cores) only changes throughput — results are bit-identical at any count.
//! `--adaptive` turns `--traces` into a budget: campaigns stop at the first
//! round checkpoint where every gate's leakage verdict has converged
//! (`--confidence`, default 0.95, sets the false-clean alpha-spending
//! budget). Early-stopped results equal the prefix of a full run.
//!
//! Netlists use the structural-Verilog subset documented in
//! [`polaris_netlist::parser`].

use std::fs;
use std::io::{ErrorKind, Write};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

/// `println!` for command output: every line the CLI prints to stdout goes
/// through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

mod commands;
mod dist;
mod fleet;
mod serve;
mod trace;

/// A CLI failure with its process exit code. Generic errors exit 1; the
/// `dist` subcommands map each shard-state failure class to a distinct
/// non-zero code (see [`dist::EXIT_CODES`]), so orchestration scripts can
/// tell a truncated part file from a version skew without parsing stderr,
/// and `trace summarize` exits [`trace::EXIT_MALFORMED_TRACE`] on a trace
/// file the bounded JSONL parser rejects.
#[derive(Debug)]
pub(crate) struct CliError {
    pub(crate) code: u8,
    pub(crate) message: String,
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError { code: 1, message }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    let result: Result<(), CliError> = match cmd.as_str() {
        "train" => commands::train(rest).map_err(CliError::from),
        "stats" => commands::stats(rest).map_err(CliError::from),
        "assess" => commands::assess(rest),
        "fleet" => fleet::fleet(rest).map_err(CliError::from),
        "gen" => commands::gen(rest).map_err(CliError::from),
        "mask" => commands::mask(rest).map_err(CliError::from),
        "rules" => commands::rules(rest).map_err(CliError::from),
        "explain" => commands::explain(rest).map_err(CliError::from),
        "dist" => dist::dist(rest),
        "serve" => serve::serve(rest),
        "worker" => serve::worker(rest),
        "submit" => serve::submit(rest),
        "trace" => trace::trace(rest),
        "--help" | "-h" | "help" => {
            outln!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::from(format!(
            "unknown command `{other}`\n{USAGE}"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message);
            ExitCode::from(e.code)
        }
    }
}

const USAGE: &str = "\
polaris-cli — explainable AI for power side-channel mitigation

commands:
  train    train on the generated benchmark suite and save a model bundle
  stats    print netlist statistics
  assess   run TVLA leakage assessment on a netlist
  fleet    assess a manifest of designs on one shared worker pool
  gen      write a generated evaluation design to disk
  mask     protect a netlist with a trained model
  rules    print the mined masking rules of a model bundle
  explain  SHAP waterfall for one gate of a netlist
  dist     distributed campaigns: plan / work / merge shard states
  serve    run the live assessment service daemon
  worker   attach a live worker to a running serve daemon
  submit   submit a design to a running serve daemon
  trace    summarize a JSONL trace written with --trace-out

run `polaris-cli <command> --help` for flags";

/// Set once stdout's reader has gone away; later output is dropped.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes command output to stdout, the one writer behind [`outln!`].
///
/// A reader that closes the pipe early (`polaris-cli assess … | head -1`)
/// is not an error: on the first `BrokenPipe` the rest of the output is
/// dropped, and the command runs to its end and exits with its own status,
/// so files it was asked to write (`--csv`, `--trace-out`) are still
/// written. `println!` would panic there instead. Any other write error
/// prints a message and exits 1.
pub(crate) fn write_stdout(args: std::fmt::Arguments<'_>) {
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    match std::io::stdout().lock().write_fmt(args) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => STDOUT_CLOSED.store(true, Ordering::Relaxed),
        Err(e) => {
            eprintln!("error: cannot write to stdout: {e}");
            std::process::exit(1);
        }
    }
}

/// Reads a file with a friendly error.
pub(crate) fn read_file(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Writes a file with a friendly error.
///
/// Crash-safe: see [`write_file_bytes`].
pub(crate) fn write_file(path: &str, content: &str) -> Result<(), String> {
    write_file_bytes(path, content.as_bytes())
}

/// Writes bytes to `<path>.tmp` and atomically renames onto `path`.
///
/// Every artifact the CLI produces (shard-state parts, CSVs, traces, model
/// bundles) goes through here so a process killed mid-write can never leave
/// a truncated file at the final path — a rerun or a coordinator re-issue
/// always starts from either the old complete artifact or nothing.
pub(crate) fn write_file_bytes(path: &str, bytes: &[u8]) -> Result<(), String> {
    let tmp = format!("{path}.tmp");
    fs::write(&tmp, bytes).map_err(|e| format!("cannot write {tmp}: {e}"))?;
    fs::rename(&tmp, path).map_err(|e| format!("cannot rename {tmp} to {path}: {e}"))
}

/// Minimal flag parser: `--key value` pairs plus positional arguments.
pub(crate) struct Flags {
    positional: Vec<String>,
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    pub(crate) fn parse(args: &[String], switches: &[&str]) -> Result<Self, String> {
        let mut f = Flags {
            positional: Vec::new(),
            pairs: Vec::new(),
            switches: Vec::new(),
        };
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if let Some(name) = a.strip_prefix("--") {
                if switches.contains(&name) {
                    f.switches.push(name.to_string());
                    i += 1;
                } else {
                    let v = args
                        .get(i + 1)
                        .ok_or_else(|| format!("missing value for --{name}"))?;
                    f.pairs.push((name.to_string(), v.clone()));
                    i += 2;
                }
            } else {
                f.positional.push(a.clone());
                i += 1;
            }
        }
        Ok(f)
    }

    pub(crate) fn positional(&self, i: usize, what: &str) -> Result<&str, String> {
        self.positional
            .get(i)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("missing {what}"))
    }

    pub(crate) fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    pub(crate) fn get_parsed<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
    ) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("malformed --{key} value `{v}`")),
        }
    }

    pub(crate) fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }
}
