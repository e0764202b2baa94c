//! Shared plumbing: run context, per-op seeds, timed phases, results.

use std::path::PathBuf;
use std::time::Instant;

use polaris_netlist::bench_format::{parse_bench, write_bench};
use polaris_netlist::Netlist;
use polaris_sim::campaign::splitmix64;

use crate::stats;
use crate::trace::Tracer;

/// Timed phases run at least this many operations, however short the run.
const MIN_OPS: usize = 5;

/// Everything a workload needs from the command line.
pub struct Ctx {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Target length of the timed phase on the reference host.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny sizes for smoke tests.
    pub tiny: bool,
    /// The `polaris-cli` binary (serve workload only).
    pub cli: Option<PathBuf>,
    /// Scratch directory inside the checkout for files the run writes.
    pub work: PathBuf,
}

impl Ctx {
    /// Operations in a timed phase: enough to fill `seconds` at the
    /// reference host's per-operation time `nominal_op_s`. A pure function
    /// of the arguments, so every run of one configuration does the same
    /// work.
    pub fn ops(&self, nominal_op_s: f64) -> usize {
        if self.tiny {
            2
        } else {
            ((self.seconds / nominal_op_s).round() as usize).max(MIN_OPS)
        }
    }

    /// The `i`-th input seed of stream `salt`, derived from the workload
    /// seed.
    pub fn sub_seed(&self, salt: u64, i: usize) -> u64 {
        splitmix64(self.seed ^ splitmix64(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64))
    }
}

/// Per-op wall times of a timed phase, each op's peak resident set, and the
/// set-up times sampled between ops.
pub struct Timed {
    pub wall_s: f64,
    pub lat_s: Vec<f64>,
    pub rss_mb: Vec<f64>,
    pub setup_s: Vec<f64>,
}

impl Timed {
    /// The median set-up time.
    pub fn setup_s(&self) -> f64 {
        stats::median(&self.setup_s)
    }

    /// The median op's peak resident set, in MB. The process-wide peak
    /// would be the maximum over ops, which one unusual op sets; where the
    /// kernel cannot reset the peak per op, that is what is reported.
    pub fn peak_rss_mb(&self) -> f64 {
        if self.rss_mb.is_empty() {
            peak_rss_mb(None).unwrap_or(f64::NAN)
        } else {
            stats::median(&self.rss_mb)
        }
    }
}

/// Runs `n` operations back to back and times each one and the whole phase.
/// Before each op, `setup` builds the workload's inputs once more; those
/// builds are timed on their own and left out of the phase's wall time.
/// Spread over the whole phase, they see the host load the ops see, where
/// a burst of them at start-up sees one moment's.
pub fn run_timed<T>(n: usize, mut setup: impl FnMut() -> T, mut op: impl FnMut(usize)) -> Timed {
    let mut lat_s = Vec::with_capacity(n);
    let mut rss_mb = Vec::with_capacity(n);
    let mut setup_s = Vec::with_capacity(n);
    let mut aside_s = 0.0;
    let t0 = Instant::now();
    for i in 0..n {
        let t = Instant::now();
        let inputs = setup();
        setup_s.push(t.elapsed().as_secs_f64());
        drop(std::hint::black_box(inputs));
        aside_s += t.elapsed().as_secs_f64();
        // Writing 5 to clear_refs resets VmHWM to the current RSS.
        let reset = std::fs::write("/proc/self/clear_refs", "5").is_ok();
        let t = Instant::now();
        op(i);
        lat_s.push(t.elapsed().as_secs_f64());
        if let Some(peak) = peak_rss_mb(None).filter(|_| reset) {
            rss_mb.push(peak);
        }
    }
    Timed {
        wall_s: t0.elapsed().as_secs_f64() - aside_s,
        lat_s,
        rss_mb,
        setup_s,
    }
}

/// Daemon start-ups per `serve-c432` run; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// Design generation is followed by a round trip through the `.bench`
/// text format, so set-up includes parsing exactly as a file-based run
/// would.
///
/// # Panics
///
/// Panics if the generated design does not survive the round trip.
pub fn via_bench(netlist: &Netlist) -> Netlist {
    let text = write_bench(netlist);
    let parsed = parse_bench(&text).expect("generated designs render to valid .bench");
    assert_eq!(
        parsed.gate_count(),
        netlist.gate_count(),
        "round trip keeps every gate"
    );
    parsed
}

/// Peak resident set (`VmHWM`) of process `pid` (`None`: this process), in
/// MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run produced: check counts and the three metric groups.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced runs).
    pub e2e: Vec<Metric>,
    /// Workload-specific end-to-end figures, printed beside the result.
    pub details: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub layers: Vec<Metric>,
    /// The traced run's spans.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Counts one operation or check; a failure is reported on stderr.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    /// Counts one operation that may have failed.
    pub fn op<T, E: std::fmt::Display>(&mut self, r: Result<T, E>, what: &str) -> Option<T> {
        match r {
            Ok(v) => {
                self.check(true, what);
                Some(v)
            }
            Err(e) => {
                self.check(false, &format!("{what}: {e}"));
                None
            }
        }
    }

    pub fn detail(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.details.push(Metric { name, value, unit });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.push(Metric { name, value, unit });
    }

    /// Records the end-to-end metrics every workload reports.
    pub fn end_to_end(&mut self, setup_s: f64, timed: &Timed, traces: f64, rss_mb: f64) {
        let (tail_pct, tail_s) = stats::tail(&timed.lat_s);
        let (q1, q3) = stats::quartiles(&timed.lat_s);
        let m = |name, value, unit| Metric { name, value, unit };
        self.e2e = vec![
            m("setup_s", setup_s, "s"),
            m("wall_s", timed.wall_s, "s"),
            m("traces_per_s", traces / timed.wall_s, "1/s"),
            m("latency_p50_ms", stats::median(&timed.lat_s) * 1e3, "ms"),
            m("latency_tail_ms", tail_s * 1e3, "ms"),
            m("peak_rss_mb", rss_mb, "MB"),
        ];
        self.detail("latency_tail_pct", f64::from(tail_pct), "percentile");
        self.detail("latency_samples", timed.lat_s.len() as f64, "count");
        self.detail("latency_q1_ms", q1 * 1e3, "ms");
        self.detail("latency_q3_ms", q3 * 1e3, "ms");
    }
}
