//! The host block printed with every result: core count, available
//! parallelism, CPU model, and a contention probe that makes thread-scaling
//! numbers from a shared host interpretable.

use std::time::Instant;

use polaris_sim::{CampaignConfig, Parallelism, PowerModel};
use polaris_tvla::assess_parallel;

use crate::stats::median;
use crate::tvla_c1908;

/// Throughput of two independent one-thread c1908 campaigns run at once,
/// relative to one run alone (2.0 on two idle cores, 1.0 when they share
/// one).
fn contention_ratio(traces: usize) -> f64 {
    let netlist = tvla_c1908::design(1);
    let model = PowerModel::default();
    let config = CampaignConfig::new(traces, traces, 1);
    let run = || {
        assess_parallel(&netlist, &model, &config, Parallelism::new(1)).expect("c1908 levelizes");
    };
    run();
    let mut solo = Vec::new();
    let mut pair = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        run();
        solo.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        std::thread::scope(|s| {
            let a = s.spawn(run);
            let b = s.spawn(run);
            a.join().expect("probe campaign");
            b.join().expect("probe campaign");
        });
        pair.push(t.elapsed().as_secs_f64());
    }
    2.0 * median(&solo) / median(&pair)
}

/// The host block as one JSON object.
pub fn block() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cores = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|l| l.trim_start_matches([' ', '\t', ':']).trim())
        .unwrap_or("unknown")
        .replace(['"', '\\'], "");
    let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    let ratio = contention_ratio(4096);
    format!(
        "{{\"host\": {{\"cores\": {cores}, \"available_parallelism\": {parallelism}, \
         \"cpu_model\": \"{model}\", \"contention_two_runs_throughput_ratio\": {ratio}}}}}"
    )
}
