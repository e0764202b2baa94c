//! The trace of a fleet accounts for every job: each job's campaign
//! start and end, and one `shard_span` per shard it simulated, stamped with
//! the job it belongs to. A lone campaign is a fleet of one, so the same
//! events describe both. On one thread the phase times cover the fleet's
//! wall time.

use polaris_netlist::generators;
use polaris_obs::{parse_trace, JsonlRecorder, Payload, TraceSummary};
use polaris_sim::{run_fleet, CampaignConfig, FleetJob, Parallelism, PowerModel};
use polaris_tvla::{adaptive_fleet_job, SequentialConfig, WelchAccumulator};

#[test]
fn a_fleet_trace_accounts_for_every_job() {
    let c17 = generators::iscas_c17();
    let c432 = generators::iscas_like("c432", 1, 7).expect("generator knows c432");
    let model = PowerModel::default();
    let seq = SequentialConfig::with_confidence(0.95);
    // Distinct budgets, so each campaign marker names its job by its counts.
    let configs = [
        CampaignConfig::new(1_500, 1_300, 3),
        CampaignConfig::new(3_000, 3_000, 11),
    ];
    for threads in [1usize, 2] {
        let jobs = vec![
            FleetJob::<WelchAccumulator>::new(&c17, &model, configs[0].clone()),
            adaptive_fleet_job(&c432, &model, configs[1].clone(), &seq),
        ];
        let recorder = JsonlRecorder::new();
        let outcomes = run_fleet(jobs, Parallelism::new(threads), &recorder).expect("fleet runs");
        let events = parse_trace(&recorder.to_jsonl()).expect("recorded trace parses");

        let mut traces = vec![0u64; outcomes.len()];
        let mut starts = vec![0usize; outcomes.len()];
        let mut ends: Vec<Vec<u64>> = vec![Vec::new(); outcomes.len()];
        for ev in &events {
            match ev.payload {
                Payload::ShardSpan { job, count, .. } => {
                    let job = usize::try_from(job).expect("job index fits");
                    assert!(job < outcomes.len(), "shard_span job {job} out of range");
                    traces[job] += count;
                }
                Payload::CampaignStart {
                    planned_fixed,
                    planned_random,
                    ..
                } => {
                    let job = configs
                        .iter()
                        .position(|c| {
                            (c.n_fixed as u64, c.n_random as u64) == (planned_fixed, planned_random)
                        })
                        .expect("a campaign_start names a job's budget");
                    starts[job] += 1;
                }
                Payload::CampaignEnd {
                    rounds,
                    fixed_traces,
                    random_traces,
                    ..
                } => {
                    let job = outcomes
                        .iter()
                        .position(|o| {
                            (o.stats.fixed_traces as u64, o.stats.random_traces as u64)
                                == (fixed_traces, random_traces)
                        })
                        .expect("a campaign_end names a job's traces");
                    ends[job].push(rounds);
                }
                _ => {}
            }
        }
        let fold_spans = events
            .iter()
            .filter(|ev| matches!(ev.payload, Payload::FoldSpan { .. }))
            .count();

        for (job, outcome) in outcomes.iter().enumerate() {
            assert_eq!(
                traces[job],
                (outcome.stats.fixed_traces + outcome.stats.random_traces) as u64,
                "job {job}'s shard spans at {threads} threads"
            );
            assert_eq!(
                starts[job], 1,
                "job {job}'s campaign_start at {threads} threads"
            );
            assert_eq!(
                ends[job],
                vec![outcome.stats.rounds as u64],
                "job {job}'s campaign_end at {threads} threads"
            );
        }
        assert!(outcomes[1].stats.rounds > 1, "the adaptive job runs rounds");
        if threads == 1 {
            // One thread, one clock: the phases cover the jobs' wall time,
            // which overlaps across jobs and so counts once.
            let coverage = TraceSummary::build(&events)
                .phase_coverage()
                .expect("the trace has campaign_end events");
            assert!(coverage >= 0.90, "phase coverage {coverage:.3} below 0.90");
        }
        assert_eq!(
            fold_spans,
            outcomes.iter().map(|o| o.stats.rounds).sum::<usize>(),
            "one fold span per job round at {threads} threads"
        );
    }
}
