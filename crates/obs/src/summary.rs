//! Aggregation of a parsed trace into the figures `polaris-cli trace
//! summarize` prints: per-phase time breakdown, per-worker throughput,
//! a utilization histogram, the stopping audit table, and event-kind
//! counts.

use std::collections::BTreeMap;

use crate::event::{Event, Payload, Verdict};

/// Total nanoseconds per engine phase, summed over every shard span and
/// work item of the trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Counter-derived RNG streams (data, masks).
    pub rng_ns: u64,
    /// Gate evaluation and toggle counting.
    pub sim_ns: u64,
    /// The fused noise-and-energy pass.
    pub power_ns: u64,
    /// Sink recording.
    pub acc_ns: u64,
    /// Checkpoint folds.
    pub fold_ns: u64,
    /// Stopping-rule look evaluations (leakage fold, convergence, alpha
    /// boundary) at round checkpoints.
    pub checkpoint_ns: u64,
    /// Wall time of the spans the phases were measured inside.
    pub shard_wall_ns: u64,
}

impl PhaseTotals {
    /// Shard-span residual the sub-phase timers cannot see: span wall time
    /// minus rng + simulate + power + accumulate (timer reads, loop
    /// bookkeeping, per-shard setup).
    pub fn overhead_ns(&self) -> u64 {
        self.shard_wall_ns
            .saturating_sub(self.rng_ns + self.sim_ns + self.power_ns + self.acc_ns)
    }

    /// Sum of the measured phases: the full shard-span wall time (the four
    /// sub-phases plus their residual overhead), folds, and checkpoint looks.
    pub fn phases_ns(&self) -> u64 {
        self.shard_wall_ns + self.fold_ns + self.checkpoint_ns
    }
}

/// Per-worker-thread aggregate over shard spans and fleet work items.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerRow {
    /// The recording thread's ordinal.
    pub thread: u64,
    /// Shards (or work items) the thread executed.
    pub shards: u64,
    /// Summed wall time of those spans.
    pub busy_ns: u64,
    /// Distinct fleet job indices the thread touched (empty outside fleets).
    pub jobs: Vec<u64>,
}

impl WorkerRow {
    /// Shards per second over the thread's busy time.
    pub fn shards_per_sec(&self) -> f64 {
        if self.busy_ns == 0 {
            0.0
        } else {
            self.shards as f64 * 1e9 / self.busy_ns as f64
        }
    }
}

/// One stopping-rule look, with its per-gate audit rows.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointRow {
    /// 1-based round of the look.
    pub round: u64,
    /// Fixed-class traces consumed at the look.
    pub fixed_traces: u64,
    /// Random-class traces consumed at the look.
    pub random_traces: u64,
    /// Information fraction consumed.
    pub fraction: f64,
    /// Alpha-spending margin of the look.
    pub boundary: f64,
    /// Gates resolved leaky / clean / unresolved.
    pub leaky: u64,
    /// Gates resolved clean.
    pub clean: u64,
    /// Gates still unresolved.
    pub unresolved: u64,
    /// Whether the rule stopped the campaign here.
    pub stop: bool,
}

/// One per-gate audit row of the final look.
#[derive(Clone, Debug, PartialEq)]
pub struct AuditRow {
    /// Gate index within the netlist.
    pub gate: u64,
    /// |t| at the look.
    pub abs_t: f64,
    /// Alpha-spending margin at the look.
    pub boundary: f64,
    /// The gate's verdict.
    pub verdict: Verdict,
}

/// Aggregated view of one JSONL trace.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// Events in the trace.
    pub events: usize,
    /// Count per event kind, in [`Payload::KINDS`] order, zero-count kinds
    /// omitted.
    pub kind_counts: Vec<(&'static str, usize)>,
    /// Per-phase totals.
    pub phases: PhaseTotals,
    /// Summed wall time of `campaign_end` events (None when the trace holds
    /// no finished campaign).
    pub campaign_wall_ns: Option<u64>,
    /// Per-worker aggregates, ordered by thread ordinal.
    pub workers: Vec<WorkerRow>,
    /// Worker-utilization histogram (10% buckets of busy/wall) from
    /// `worker_summary` events; None when the trace has none.
    pub utilization: Option<[u64; 10]>,
    /// Every stopping-rule look, in trace order.
    pub checkpoints: Vec<CheckpointRow>,
    /// Per-gate audit rows of the **final** look, ordered by gate.
    pub final_audit: Vec<AuditRow>,
    /// Largest queue depth a fleet worker observed.
    pub max_queue_depth: Option<u64>,
    /// Distributed parts executed (`plan_exec` events).
    pub parts_executed: usize,
}

impl TraceSummary {
    /// Builds the summary from parsed events.
    pub fn build(events: &[Event]) -> TraceSummary {
        let mut s = TraceSummary {
            events: events.len(),
            ..TraceSummary::default()
        };
        let mut kind_counts: BTreeMap<&'static str, usize> = BTreeMap::new();
        let mut workers: BTreeMap<u64, WorkerRow> = BTreeMap::new();
        let mut histogram = [0u64; 10];
        let mut have_worker_summaries = false;
        let mut audits: BTreeMap<u64, Vec<AuditRow>> = BTreeMap::new();
        let mut campaign_wall = 0u64;
        let mut have_campaign_end = false;

        for ev in events {
            *kind_counts.entry(ev.payload.kind()).or_insert(0) += 1;
            match &ev.payload {
                Payload::ShardSpan {
                    wall_ns,
                    rng_ns,
                    sim_ns,
                    power_ns,
                    acc_ns,
                    ..
                }
                | Payload::WorkItem {
                    wall_ns,
                    rng_ns,
                    sim_ns,
                    power_ns,
                    acc_ns,
                    ..
                } => {
                    s.phases.rng_ns += rng_ns;
                    s.phases.sim_ns += sim_ns;
                    s.phases.power_ns += power_ns;
                    s.phases.acc_ns += acc_ns;
                    s.phases.shard_wall_ns += wall_ns;
                    let row = workers.entry(ev.thread).or_insert_with(|| WorkerRow {
                        thread: ev.thread,
                        ..WorkerRow::default()
                    });
                    row.shards += 1;
                    row.busy_ns += wall_ns;
                    if let Payload::WorkItem { job, .. } = &ev.payload {
                        if !row.jobs.contains(job) {
                            row.jobs.push(*job);
                        }
                    }
                }
                Payload::FoldSpan { wall_ns, .. } => {
                    s.phases.fold_ns += wall_ns;
                }
                Payload::RoundCheckpoint {
                    round,
                    fixed_traces,
                    random_traces,
                    fraction,
                    boundary,
                    leaky,
                    clean,
                    unresolved,
                    stop,
                    wall_ns,
                    ..
                } => {
                    s.phases.checkpoint_ns += wall_ns;
                    s.checkpoints.push(CheckpointRow {
                        round: *round,
                        fixed_traces: *fixed_traces,
                        random_traces: *random_traces,
                        fraction: *fraction,
                        boundary: *boundary,
                        leaky: *leaky,
                        clean: *clean,
                        unresolved: *unresolved,
                        stop: *stop,
                    });
                }
                Payload::StopAudit {
                    round,
                    gate,
                    abs_t,
                    boundary,
                    verdict,
                } => {
                    audits.entry(*round).or_default().push(AuditRow {
                        gate: *gate,
                        abs_t: *abs_t,
                        boundary: *boundary,
                        verdict: *verdict,
                    });
                }
                Payload::CampaignEnd { wall_ns, .. } => {
                    have_campaign_end = true;
                    campaign_wall = campaign_wall.saturating_add(*wall_ns);
                }
                Payload::QueueDepth { depth, .. } => {
                    s.max_queue_depth = Some(s.max_queue_depth.unwrap_or(0).max(*depth));
                }
                Payload::WorkerSummary {
                    busy_ns, wall_ns, ..
                } => {
                    have_worker_summaries = true;
                    let ratio = if *wall_ns == 0 {
                        0.0
                    } else {
                        (*busy_ns as f64 / *wall_ns as f64).clamp(0.0, 1.0)
                    };
                    let bucket = ((ratio * 10.0) as usize).min(9);
                    histogram[bucket] += 1;
                }
                Payload::PlanExec { .. } => s.parts_executed += 1,
                _ => {}
            }
        }

        s.kind_counts = Payload::KINDS
            .iter()
            .filter_map(|k| kind_counts.get(k).map(|&c| (*k, c)))
            .collect();
        s.campaign_wall_ns = have_campaign_end.then_some(campaign_wall);
        s.workers = workers.into_values().collect();
        s.utilization = have_worker_summaries.then_some(histogram);
        if let Some((_, rows)) = audits.into_iter().next_back() {
            let mut rows = rows;
            rows.sort_by_key(|r| r.gate);
            s.final_audit = rows;
        }
        s
    }

    /// Fraction of the summed campaign wall time covered by the measured
    /// phases (shard spans + folds + checkpoint looks). `None` without a
    /// `campaign_end` event. Meaningful for single-threaded traces, where
    /// phase time and wall time share one clock.
    pub fn phase_coverage(&self) -> Option<f64> {
        let wall = self.campaign_wall_ns?;
        if wall == 0 {
            return None;
        }
        Some(self.phases.phases_ns() as f64 / wall as f64)
    }

    /// True when the trace contains the three kinds the CI smoke gate
    /// requires of an adaptive assessment trace: shard spans, round
    /// checkpoints, and stop audits.
    pub fn has_adaptive_kinds(&self) -> bool {
        let has = |k: &str| self.kind_counts.iter().any(|&(kind, c)| kind == k && c > 0);
        has("shard_span") && has("round_checkpoint") && has("stop_audit")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PopulationTag;

    fn ev(thread: u64, payload: Payload) -> Event {
        Event {
            t_ns: 0,
            thread,
            payload,
        }
    }

    #[test]
    fn aggregates_phases_workers_and_audits() {
        let events = vec![
            ev(
                0,
                Payload::ShardSpan {
                    round: 1,
                    grid_index: 0,
                    pop: PopulationTag::Fixed,
                    start: 0,
                    count: 256,
                    wall_ns: 100,
                    rng_ns: 20,
                    sim_ns: 25,
                    power_ns: 40,
                    acc_ns: 10,
                },
            ),
            ev(
                1,
                Payload::WorkItem {
                    job: 2,
                    grid_index: 1,
                    count: 256,
                    wall_ns: 50,
                    rng_ns: 10,
                    sim_ns: 10,
                    power_ns: 20,
                    acc_ns: 5,
                },
            ),
            ev(
                0,
                Payload::FoldSpan {
                    round: 1,
                    shards: 2,
                    wall_ns: 7,
                },
            ),
            ev(
                0,
                Payload::StopAudit {
                    round: 1,
                    gate: 1,
                    abs_t: 3.0,
                    boundary: 1.0,
                    verdict: Verdict::Leaky,
                },
            ),
            ev(
                0,
                Payload::StopAudit {
                    round: 2,
                    gate: 0,
                    abs_t: 0.5,
                    boundary: 1.0,
                    verdict: Verdict::Clean,
                },
            ),
            ev(
                0,
                Payload::CampaignEnd {
                    rounds: 2,
                    stopped_early: true,
                    fixed_traces: 512,
                    random_traces: 512,
                    wall_ns: 200,
                },
            ),
            ev(
                1,
                Payload::QueueDepth {
                    depth: 5,
                    jobs_remaining: 2,
                },
            ),
            ev(
                1,
                Payload::WorkerSummary {
                    items: 1,
                    busy_ns: 95,
                    wall_ns: 100,
                },
            ),
        ];
        let s = TraceSummary::build(&events);
        assert_eq!(s.phases.rng_ns, 30);
        assert_eq!(s.phases.sim_ns, 35);
        assert_eq!(s.phases.power_ns, 60);
        assert_eq!(s.phases.acc_ns, 15);
        assert_eq!(s.phases.fold_ns, 7);
        assert_eq!(s.phases.overhead_ns(), 10);
        assert_eq!(s.phases.phases_ns(), 157);
        assert_eq!(s.campaign_wall_ns, Some(200));
        assert_eq!(s.workers.len(), 2);
        assert_eq!(s.workers[1].jobs, vec![2]);
        assert_eq!(s.max_queue_depth, Some(5));
        assert_eq!(s.utilization.unwrap()[9], 1);
        // Final audit is the *last* round's rows only.
        assert_eq!(s.final_audit.len(), 1);
        assert_eq!(s.final_audit[0].gate, 0);
        assert!((s.phase_coverage().unwrap() - 0.785).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_summarizes_to_nothing() {
        let s = TraceSummary::build(&[]);
        assert_eq!(s.events, 0);
        assert!(s.kind_counts.is_empty());
        assert_eq!(s.campaign_wall_ns, None);
        assert_eq!(s.phase_coverage(), None);
        assert!(!s.has_adaptive_kinds());
    }
}
