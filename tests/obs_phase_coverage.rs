//! Phase coverage of a traced campaign: a single-threaded run's phase
//! times account for its own wall time.
//!
//! This timing test has a test binary of its own. Tests of one binary run
//! on parallel threads, and the 2- and 8-thread campaigns of
//! `obs_neutrality` would preempt its one timed thread on a small host and
//! push the phase sums below the bound.

use polaris_netlist::{generators, Netlist};
use polaris_obs::{parse_trace, JsonlRecorder, Payload, TraceSummary};
use polaris_sim::{CampaignConfig, FleetJob, Parallelism, PowerModel};
use polaris_tvla::WelchAccumulator;

fn design() -> Netlist {
    generators::iscas_like("c432", 1, 7).expect("generator knows c432")
}

/// A single-threaded recorded campaign accounts for its own wall time:
/// the rng/simulate/power/accumulate/fold phase sums cover ≥ 90% of the
/// campaign_end wall clock (one thread, one clock — nothing overlaps).
#[test]
fn single_threaded_phase_times_cover_the_campaign_wall_time() {
    let netlist = design();
    let model = PowerModel::default();
    let config = CampaignConfig::new(1_500, 1_500, 11);
    let recorder = JsonlRecorder::new();
    FleetJob::<WelchAccumulator>::new(&netlist, &model, config)
        .run(Parallelism::new(1), &recorder)
        .expect("campaign runs");
    let events = parse_trace(&recorder.to_jsonl()).expect("trace parses");
    let summary = TraceSummary::build(&events);
    let coverage = summary
        .phase_coverage()
        .expect("campaign_end present in the trace");
    assert!(
        coverage > 0.90 && coverage <= 1.02,
        "phase coverage {coverage:.3} outside (0.90, 1.02]"
    );
    // The shard spans account for the full trace budget per population.
    let mut fixed = 0u64;
    let mut random = 0u64;
    for ev in &events {
        if let Payload::ShardSpan { pop, count, .. } = &ev.payload {
            match pop {
                polaris_obs::PopulationTag::Fixed => fixed += count,
                polaris_obs::PopulationTag::Random => random += count,
            }
        }
    }
    assert_eq!(fixed, 1_500);
    assert_eq!(random, 1_500);
}
