//! Shared harness for the table/figure reproduction binaries.
//!
//! Every binary accepts the same flags:
//!
//! ```text
//! --scale N     benchmark generator scale factor      (default 1)
//! --traces N    TVLA traces per class                 (default 300)
//! --seed N      master seed                           (default 7)
//! --threads N   campaign worker threads               (default 0 = all cores)
//! --designs a,b restrict to a subset of the 11 designs
//! --paper       paper-scale profile (scale 3, 10 000 traces) — slow
//! ```
//!
//! `--threads` is a pure throughput knob: the sharded campaign engine is
//! bit-identical at any worker count.
//!
//! Run e.g. `cargo run --release -p polaris-bench --bin table2`.

use polaris::config::{ModelKind, PolarisConfig};
use polaris::pipeline::{PolarisPipeline, TrainedPolaris};
use polaris_netlist::{generators, Netlist};
use polaris_obs::NullRecorder;
use polaris_sim::{CampaignConfig, FleetJob, Parallelism, PowerModel};
use polaris_tvla::{CoMomentAccumulator, Order, SupportedOrder};

/// Common harness parameters parsed from the command line.
#[derive(Clone, Debug, PartialEq)]
pub struct HarnessConfig {
    /// Generator scale factor.
    pub scale: u32,
    /// TVLA traces per class.
    pub traces: usize,
    /// Master seed.
    pub seed: u64,
    /// Campaign worker threads (0 = all available cores).
    pub threads: usize,
    /// Evaluation designs (defaults to the paper's 11).
    pub designs: Vec<String>,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            scale: 1,
            traces: 300,
            seed: 7,
            threads: 0,
            designs: generators::EVALUATION_NAMES
                .iter()
                .map(|s| s.to_string())
                .collect(),
        }
    }
}

impl HarnessConfig {
    /// Parses `std::env::args()`: `--help` prints the flags and exits 0, and
    /// a bad command line prints what is wrong and exits 2.
    pub fn from_args() -> Self {
        parse_cli(
            "--scale N  --traces N  --seed N  --threads N  --designs a,b,c  --paper",
            Self::parse,
        )
    }

    /// Parses harness flags (without the program name) over the defaults.
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag on an unknown flag, a missing
    /// value, or a value that is not a non-negative integer.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut cfg = HarnessConfig::default();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => cfg.scale = number(args, i)?,
                "--traces" => cfg.traces = number(args, i)?,
                "--seed" => cfg.seed = number(args, i)?,
                "--threads" => cfg.threads = number(args, i)?,
                "--designs" => {
                    cfg.designs = value(args, i)?
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .collect();
                }
                "--paper" => {
                    cfg.scale = 3;
                    cfg.traces = 10_000;
                    i += 1;
                    continue;
                }
                other => return Err(format!("unknown flag {other}")),
            }
            i += 2;
        }
        Ok(cfg)
    }

    /// POLARIS configuration matched to the harness size.
    pub fn polaris_config(&self, model: ModelKind) -> PolarisConfig {
        PolarisConfig {
            msize: 30 * self.scale as usize,
            iterations: 8,
            max_traces: self.traces,
            model,
            n_estimators: 60,
            learning_rate: 0.01,
            max_depth: 3,
            seed: self.seed,
            threads: self.threads,
            ..Default::default()
        }
    }

    /// The harness's campaign worker budget (`Parallelism::new` treats 0 as
    /// "all cores").
    pub fn parallelism(&self) -> Parallelism {
        Parallelism::new(self.threads)
    }

    /// The evaluation designs selected by `--designs`, in table order.
    pub fn evaluation_designs(&self) -> Vec<Netlist> {
        self.designs
            .iter()
            .map(|name| {
                generators::by_name(name, self.scale, self.seed).unwrap_or_else(|| {
                    eprintln!("unknown design {name}");
                    std::process::exit(2);
                })
            })
            .collect()
    }

    /// The ISCAS-85-like training suite at this scale.
    pub fn training_designs(&self) -> Vec<Netlist> {
        generators::training_suite(self.scale, self.seed)
    }

    /// Trains POLARIS on the training suite with the given model family,
    /// logging progress to stderr.
    pub fn train_polaris(&self, model: ModelKind) -> TrainedPolaris {
        let power = PowerModel::default();
        let pipeline = PolarisPipeline::new(self.polaris_config(model));
        eprintln!(
            "[harness] training POLARIS ({}) on {} designs, {} traces/class…",
            model.name(),
            self.training_designs().len(),
            self.traces
        );
        let trained = pipeline
            .train(&self.training_designs(), &power)
            .unwrap_or_else(|e| {
                eprintln!("training failed: {e}");
                std::process::exit(1);
            });
        let (neg, pos) = trained.dataset().class_counts();
        let v = trained.validation();
        eprintln!(
            "[harness] cognition dataset: {} samples ({} good / {} bad); holdout AUC {:.3}",
            trained.dataset().len(),
            pos,
            neg,
            v.auc
        );
        trained
    }
}

/// Runs `parse` over `std::env::args()` for a binary whose flags `usage`
/// lists: `--help` or `-h` prints `usage` and exits 0, and a parse error is
/// printed and exits 2, so a bad flag value never surfaces as a panic.
pub fn parse_cli<T>(usage: &str, parse: impl FnOnce(&[String]) -> Result<T, String>) -> T {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("flags: {usage}");
        std::process::exit(0);
    }
    parse(&args).unwrap_or_else(|e| {
        eprintln!("{e}; see --help");
        std::process::exit(2);
    })
}

/// The value after the flag at `args[i]`.
fn value(args: &[String], i: usize) -> Result<&str, String> {
    args.get(i + 1)
        .map(String::as_str)
        .ok_or_else(|| format!("missing value after {}", args[i]))
}

/// The integer value after the flag at `args[i]`.
fn number<T: std::str::FromStr>(args: &[String], i: usize) -> Result<T, String> {
    let v = value(args, i)?;
    v.parse()
        .map_err(|_| format!("{} takes a non-negative integer, got `{v}`", args[i]))
}

/// Flags of the `bivariate` and `trivariate` sweep benches.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepArgs {
    /// CI smoke profile: fewer traces and gates unless those flags are given.
    pub quick: bool,
    /// ISCAS-like design to simulate.
    pub design: String,
    /// Traces per TVLA class for the streaming arm.
    pub traces: usize,
    /// Traces per TVLA class for the parity arm (capped at `traces`).
    pub parity_traces: usize,
    /// Sweep every set of the first `gates` cells; 0 = every cell.
    pub gates: usize,
    /// Campaign master seed.
    pub seed: u64,
    /// Campaign worker threads (0 = all available cores).
    pub threads: usize,
    /// Output path of the `BENCH_*.json` artifact.
    pub out: String,
}

impl SweepArgs {
    /// The flags [`SweepArgs::parse`] accepts, for `--help`.
    pub const USAGE: &'static str = "--quick  --design NAME  --traces N  --parity-traces N  \
         --gates K  --seed N  --threads N  --out PATH";

    /// Parses sweep-bench flags (without the program name) over `defaults`;
    /// under `--quick`, `quick` supplies `(traces, gates)` for whichever of
    /// the two flags was not given.
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag on an unknown flag, a missing
    /// value, or a value that is not a non-negative integer.
    pub fn parse(
        args: &[String],
        defaults: SweepArgs,
        quick: (usize, usize),
    ) -> Result<Self, String> {
        let mut a = defaults;
        let (mut traces_set, mut gates_set) = (false, false);
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--quick" => {
                    a.quick = true;
                    i += 1;
                    continue;
                }
                "--design" => a.design = value(args, i)?.to_string(),
                "--traces" => {
                    a.traces = number(args, i)?;
                    traces_set = true;
                }
                "--parity-traces" => a.parity_traces = number(args, i)?,
                "--gates" => {
                    a.gates = number(args, i)?;
                    gates_set = true;
                }
                "--seed" => a.seed = number(args, i)?,
                "--threads" => a.threads = number(args, i)?,
                "--out" => a.out = value(args, i)?.to_string(),
                other => return Err(format!("unknown flag {other}")),
            }
            i += 2;
        }
        if a.quick {
            if !traces_set {
                a.traces = quick.0;
            }
            if !gates_set {
                a.gates = quick.1;
            }
        }
        a.parity_traces = a.parity_traces.min(a.traces);
        Ok(a)
    }
}

/// Writes a `BENCH_*.json` artifact the way every bench binary does: the
/// file itself, the full JSON on stdout (so CI logs carry the numbers), and
/// a one-line stderr note tagged with the bench's label. Shared by the
/// `bivariate` and `trivariate` binaries so the emission protocol cannot
/// drift between them.
///
/// # Errors
///
/// Returns a message naming the path when the file cannot be written.
pub fn emit_bench_json(label: &str, path: &str, json: &str) -> Result<(), String> {
    // Atomic tmp-then-rename so a bench killed mid-write (CI timeout, OOM)
    // never leaves a truncated artifact at the committed path.
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, json).map_err(|e| format!("cannot write {tmp}: {e}"))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("cannot rename {tmp} to {path}: {e}"))?;
    println!("{json}");
    eprintln!("[{label}] wrote {path}");
    Ok(())
}

/// Peak resident set size of this process in kB (`VmHWM` from
/// `/proc/self/status`) — **Linux-only** semantics: `None` on hosts without
/// procfs (macOS, Windows, some containers) or when the `VmHWM` line cannot
/// be parsed, so a missing measurement is distinguishable from a real one
/// (BENCH jsons emit it as `null` via [`json_u64`] rather than a fake `0`).
/// A process-wide high-water mark, so benches comparing arms must run the
/// cheapest arm first for per-arm readings to mean anything. Recorded in
/// every `BENCH_*.json` so a memory regression shows up in the committed
/// artifacts, not just in interactive profiling.
pub fn peak_rss_kb() -> Option<u64> {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<u64>().ok())
            })
        })
}

/// Renders an optional measurement as a JSON number or `null` — the shared
/// formatter for fields like `peak_rss_kb` whose absence must stay
/// distinguishable from a measured zero.
pub fn json_u64(v: Option<u64>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "null".to_string(),
    }
}

/// Renders an optional kB reading as a human `"N MB"` string (or
/// `"unavailable"` off-Linux) for progress lines.
pub fn rss_mb(kb: Option<u64>) -> String {
    match kb {
        Some(kb) => format!("{} MB", kb / 1024),
        None => "unavailable".to_string(),
    }
}

/// The host's available parallelism (0 when it cannot be determined) —
/// recorded in every BENCH json so a committed throughput figure names the
/// core count it was measured on.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(0)
}

/// The parity stage of the multivariate benches: the `(t, dof)` bits of one
/// order-`K` sweep over `sets` must be identical at 1- and 8-word lanes and
/// through a 2-part distributed split folded back together. Returns whether
/// all three agree.
pub fn co_moment_parity<const K: usize>(
    netlist: &Netlist,
    model: &PowerModel,
    config: &CampaignConfig,
    threads: usize,
    sets: &[Vec<u32>],
) -> bool
where
    Order<K>: SupportedOrder,
{
    let empty = CoMomentAccumulator::<K>::new(sets);
    let bits = |acc: CoMomentAccumulator<K>| -> Vec<(u64, u64)> {
        acc.rows()
            .iter()
            .map(|(_, r)| (r.t.to_bits(), r.dof.to_bits()))
            .collect()
    };
    let lanes = |lane_words: usize| {
        let par = Parallelism::new(threads).with_lane_words(lane_words);
        FleetJob::new(netlist, model, config.clone())
            .with_sink_factory(|| empty.clone())
            .run(par, &NullRecorder)
            .expect("campaign runs")
            .sink
    };
    let reference = bits(lanes(1));
    let job = FleetJob::new(netlist, model, config.clone()).with_sink_factory(|| empty.clone());
    let parts: Vec<Vec<u8>> = (0..2)
        .map(|i| {
            polaris_dist::execute_job_part(&job, Parallelism::new(threads), i, 2, &NullRecorder)
                .expect("part executes")
        })
        .collect();
    let folded =
        polaris_dist::merge_parts::<CoMomentAccumulator<K>>(parts.iter().map(Vec::as_slice), None)
            .expect("parts merge")
            .state;
    bits(lanes(8)) == reference && bits(folded) == reference
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_bench_json_writes_the_artifact() {
        // The workspace target dir is the conventional scratch space.
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/emit_bench_json_test.json"
        );
        let json = "{\n  \"bench\": \"test\"\n}\n";
        emit_bench_json("test bench", path, json).expect("write succeeds");
        assert_eq!(std::fs::read_to_string(path).unwrap(), json);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn emit_bench_json_reports_unwritable_paths() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/no-such-dir-for-bench-json/out.json"
        );
        let err = emit_bench_json("test bench", path, "{}").unwrap_err();
        assert!(err.contains("cannot write"), "{err}");
        assert!(err.contains("out.json"), "{err}");
    }

    #[test]
    fn peak_rss_is_measured_on_linux_and_null_renders_elsewhere() {
        let kb = peak_rss_kb();
        if cfg!(target_os = "linux") {
            // A running test process has touched at least a few hundred kB.
            let kb = kb.expect("VmHWM should be readable on Linux");
            assert!(kb > 0, "VmHWM should be positive, got {kb}");
            assert_eq!(json_u64(Some(kb)), kb.to_string());
        }
        // A failed measurement renders as JSON null, never a fake zero.
        assert_eq!(json_u64(None), "null");
    }

    #[test]
    fn host_parallelism_is_sane() {
        // 0 is the "unknown" sentinel; anything else is a real core count.
        let p = host_parallelism();
        assert!(p == 0 || p >= 1);
    }

    #[test]
    fn defaults_cover_all_eleven_designs() {
        let cfg = HarnessConfig::default();
        assert_eq!(cfg.designs.len(), 11);
        assert_eq!(cfg.evaluation_designs().len(), 11);
    }

    #[test]
    fn polaris_config_tracks_harness() {
        let cfg = HarnessConfig {
            traces: 123,
            seed: 9,
            ..Default::default()
        };
        let pc = cfg.polaris_config(ModelKind::Xgboost);
        assert_eq!(pc.max_traces, 123);
        assert_eq!(pc.seed, 9);
        assert_eq!(pc.model, ModelKind::Xgboost);
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn harness_parse_reads_flags_and_the_paper_profile() {
        let cfg = HarnessConfig::parse(&argv(&["--seed", "9", "--designs", "c17, c432"])).unwrap();
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.designs, ["c17", "c432"]);
        let paper = HarnessConfig::parse(&argv(&["--paper"])).unwrap();
        assert_eq!((paper.scale, paper.traces), (3, 10_000));
        // A later flag overrides the profile.
        let paper = HarnessConfig::parse(&argv(&["--paper", "--traces", "50"])).unwrap();
        assert_eq!((paper.scale, paper.traces), (3, 50));
    }

    #[test]
    fn harness_parse_names_the_flag_of_a_bad_command_line() {
        let err = HarnessConfig::parse(&argv(&["--traces", "abc"])).unwrap_err();
        assert!(err.contains("--traces") && err.contains("abc"), "{err}");
        let err = HarnessConfig::parse(&argv(&["--threads", "-1"])).unwrap_err();
        assert!(err.contains("--threads"), "{err}");
        let err = HarnessConfig::parse(&argv(&["--bogus"])).unwrap_err();
        assert!(err.contains("unknown flag --bogus"), "{err}");
        let err = HarnessConfig::parse(&argv(&["--seed"])).unwrap_err();
        assert!(err.contains("missing value after --seed"), "{err}");
    }

    #[test]
    fn sweep_parse_applies_quick_only_to_unset_flags() {
        let defaults = SweepArgs {
            quick: false,
            design: "c880".to_string(),
            traces: 1_000,
            parity_traces: 500,
            gates: 32,
            seed: 7,
            threads: 0,
            out: "out.json".to_string(),
        };
        let a = SweepArgs::parse(&argv(&["--quick"]), defaults.clone(), (40, 4)).unwrap();
        assert_eq!((a.traces, a.gates, a.parity_traces), (40, 4, 40));
        let a = SweepArgs::parse(
            &argv(&["--quick", "--gates", "6"]),
            defaults.clone(),
            (40, 4),
        )
        .unwrap();
        assert_eq!((a.traces, a.gates), (40, 6));
        let err =
            SweepArgs::parse(&argv(&["--traces", "abc"]), defaults.clone(), (40, 4)).unwrap_err();
        assert!(err.contains("--traces") && err.contains("abc"), "{err}");
        let err = SweepArgs::parse(&argv(&["--paper"]), defaults, (40, 4)).unwrap_err();
        assert!(err.contains("unknown flag --paper"), "{err}");
    }

    #[test]
    fn training_suite_nonempty() {
        let cfg = HarnessConfig::default();
        assert_eq!(cfg.training_designs().len(), 6);
    }
}
