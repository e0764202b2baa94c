//! Recorder neutrality (ISSUE 9 acceptance): instrumentation lives
//! strictly outside the fold path, so a campaign with recording **on** is
//! byte-identical to the same campaign with recording **off** — at every
//! thread count, every lane width, and under adaptive stopping (same stop
//! round, same traces, same statistics bits). The recorded trace itself
//! must survive the JSONL round trip and carry the event kinds the CI
//! smoke gate requires.

use polaris_netlist::{generators, Netlist};
use polaris_obs::{parse_trace, JsonlRecorder, NullRecorder, Payload, TraceSummary};
use polaris_sim::{run_campaign_parallel, CampaignConfig, FleetJob, Parallelism, PowerModel};
use polaris_tvla::{
    assess_parallel, campaign_outcome_adaptive, SequentialConfig, WelchAccumulator,
};

fn design() -> Netlist {
    generators::iscas_like("c432", 1, 7).expect("generator knows c432")
}

/// Per-gate (t, dof) bit patterns of a Welch campaign outcome.
fn t_bits(design: &Netlist, acc: &WelchAccumulator) -> Vec<(u64, u64)> {
    let leakage = acc.leakage();
    design
        .ids()
        .map(|id| {
            let r = leakage.result(id);
            (r.t.to_bits(), r.dof.to_bits())
        })
        .collect()
}

/// Recording on vs off is byte-identical across threads {1, 2, 8} ×
/// lane words {1, 8} — and every combination equals the untraced
/// `run_campaign_parallel` reference.
#[test]
fn recording_is_byte_identical_across_threads_and_lane_widths() {
    let netlist = design();
    let model = PowerModel::default();
    let config = CampaignConfig::new(700, 700, 11);
    let reference = {
        let acc: WelchAccumulator =
            run_campaign_parallel(&netlist, &model, &config, Parallelism::new(1))
                .expect("campaign runs");
        t_bits(&netlist, &acc)
    };
    for threads in [1usize, 2, 8] {
        for lane_words in [1usize, 8] {
            let par = Parallelism::new(threads).with_lane_words(lane_words);
            let job = || FleetJob::<WelchAccumulator>::new(&netlist, &model, config.clone());
            let off = job().run(par, &NullRecorder).expect("campaign runs");
            let recorder = JsonlRecorder::new();
            let on = job().run(par, &recorder).expect("campaign runs");
            assert!(
                !recorder.is_empty(),
                "the enabled recorder saw no events ({threads}t/{lane_words}w)"
            );
            let off_bits = t_bits(&netlist, &off.sink);
            let on_bits = t_bits(&netlist, &on.sink);
            assert_eq!(
                off_bits, on_bits,
                "recording changed campaign bits at {threads} threads, {lane_words} lane words"
            );
            assert_eq!(
                reference, on_bits,
                "traced campaign differs from the untraced reference at \
                 {threads} threads, {lane_words} lane words"
            );
            assert_eq!(off.stats, on.stats);
        }
    }
}

/// `--trace-out` profiles the schedule the real run uses: a traced
/// assessment job walks the grid in the same single round as the untraced
/// engine, so its trace holds one fold span per untraced round.
#[test]
fn traced_assessment_runs_the_untraced_round_schedule() {
    let netlist = design();
    let model = PowerModel::default();
    let config = CampaignConfig::new(1_500, 1_500, 11);
    for threads in [1usize, 2] {
        let par = Parallelism::new(threads);
        let untraced = FleetJob::<WelchAccumulator>::new(&netlist, &model, config.clone())
            .run(par, &NullRecorder)
            .expect("campaign runs");
        assert_eq!(untraced.stats.rounds, 1);
        let recorder = JsonlRecorder::new();
        let traced = FleetJob::<WelchAccumulator>::new(&netlist, &model, config.clone())
            .run(par, &recorder)
            .expect("campaign runs")
            .sink
            .leakage();
        let plain = assess_parallel(&netlist, &model, &config, par).expect("campaign runs");
        let events = parse_trace(&recorder.to_jsonl()).expect("recorded trace parses");
        let fold_spans = events
            .iter()
            .filter(|ev| matches!(ev.payload, Payload::FoldSpan { .. }))
            .count();
        assert_eq!(
            fold_spans, untraced.stats.rounds,
            "traced run used a different round schedule at {threads} threads"
        );
        let bits = |l: &polaris_tvla::GateLeakage| {
            netlist
                .ids()
                .map(|id| l.result(id).t.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&traced), bits(&plain));
    }
}

/// The adaptive audit trail is an observer: with recording on, the
/// stopping rule stops at the same round with the same trace counts and
/// statistics bits as with recording off, at 1, 2 and 8 threads.
#[test]
fn adaptive_stopping_is_unchanged_by_the_audit_trail() {
    let netlist = design();
    let model = PowerModel::default();
    let config = CampaignConfig::new(2_000, 2_000, 11);
    let seq = SequentialConfig::with_confidence(0.95);
    for threads in [1usize, 2, 8] {
        let par = Parallelism::new(threads);
        let off = campaign_outcome_adaptive(&netlist, &model, &config, par, &seq, &NullRecorder)
            .expect("campaign runs");
        let recorder = JsonlRecorder::new();
        let on = campaign_outcome_adaptive(&netlist, &model, &config, par, &seq, &recorder)
            .expect("campaign runs");
        assert_eq!(
            off.stats, on.stats,
            "stop decision changed at {threads} threads"
        );
        assert_eq!(
            t_bits(&netlist, &off.sink),
            t_bits(&netlist, &on.sink),
            "audit trail changed statistics bits at {threads} threads"
        );
        // The trace itself must round-trip and carry the smoke-gate kinds.
        let jsonl = recorder.to_jsonl();
        let events = parse_trace(&jsonl).expect("recorded trace parses");
        assert_eq!(events.len(), jsonl.lines().count());
        let summary = TraceSummary::build(&events);
        assert!(
            summary.has_adaptive_kinds(),
            "adaptive trace is missing shard_span/round_checkpoint/stop_audit"
        );
        // Every recorded look matches the outcome. The engine consults the
        // rule *between* rounds, so an early stop leaves its final look at
        // the stop round, while a budget-exhausted campaign's last look
        // precedes the final round.
        let last = summary.checkpoints.last().expect("at least one look");
        if on.stats.stopped_early {
            assert_eq!(last.round, on.stats.rounds as u64);
            assert_eq!(
                last.fixed_traces + last.random_traces,
                (on.stats.fixed_traces + on.stats.random_traces) as u64
            );
            assert!(last.stop);
        } else {
            assert_eq!(last.round, on.stats.rounds as u64 - 1);
            assert!(!last.stop);
        }
        // The audit rows cover exactly the rule's scoped gates.
        assert_eq!(summary.final_audit.len(), netlist.cell_ids().len());
    }
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

/// The committed example trace (docs/traces/) stays parseable and its
/// per-phase breakdown sums to within 5% of the recorded wall time — the
/// artifact the README points readers at must not rot.
#[test]
fn committed_example_trace_summarizes_with_tight_phase_coverage() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/docs/traces/c432-adaptive.jsonl"
    );
    let text = std::fs::read_to_string(path).expect("committed example trace exists");
    let events = parse_trace(&text).expect("committed trace parses");
    let summary = TraceSummary::build(&events);
    assert!(summary.has_adaptive_kinds());
    let coverage = summary
        .phase_coverage()
        .expect("committed trace holds a finished campaign");
    assert!(
        (coverage - 1.0).abs() <= 0.05,
        "phase times sum to {:.1}% of wall time (acceptance bound: within 5%)",
        coverage * 100.0
    );
    assert!(!summary.checkpoints.is_empty());
    assert!(!summary.final_audit.is_empty());
}
