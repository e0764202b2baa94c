//! The typed trace event model and its JSONL encoding.
//!
//! Every event is one flat JSON object per line with three common fields —
//! `t` (monotonic nanoseconds since the recorder's epoch), `thread` (a small
//! process-local worker ordinal), and `kind` — plus the kind's payload
//! fields. The schema is closed: decoding rejects unknown kinds, missing
//! fields, and wrong types, so a trace that parses is a trace the
//! summarizer fully understands.

use std::collections::BTreeMap;

use crate::json::{
    bool_field, f64_field, parse_object, str_field, u64_field, JsonWriter, TraceError,
};

/// Which TVLA population a shard belongs to (mirror of
/// `polaris_sim::Population` without the dependency).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PopulationTag {
    /// The fixed-input class `Q0`.
    Fixed,
    /// The random-input class `Q1`.
    Random,
}

impl PopulationTag {
    fn as_str(self) -> &'static str {
        match self {
            PopulationTag::Fixed => "fixed",
            PopulationTag::Random => "random",
        }
    }
}

/// Per-gate verdict of one stopping-rule look.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// |t| cleared the leak threshold plus the alpha-spending margin.
    Leaky,
    /// |t| stayed under the threshold minus the margin.
    Clean,
    /// Inside the margin band — not yet resolved at this look.
    Undecided,
}

impl Verdict {
    /// The wire spelling of the verdict.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Leaky => "leaky",
            Verdict::Clean => "clean",
            Verdict::Undecided => "undecided",
        }
    }
}

/// The typed payload of one trace event. Field names here match the JSON
/// field names one-to-one; all `*_ns` fields are nanoseconds.
#[derive(Clone, Debug, PartialEq)]
pub enum Payload {
    /// A round-checkpointed campaign began.
    CampaignStart {
        /// Gates in the design under assessment.
        gates: u64,
        /// Fixed-class trace budget.
        planned_fixed: u64,
        /// Random-class trace budget.
        planned_random: u64,
        /// Worker-thread budget.
        threads: u64,
        /// SIMD lane width in 64-lane words.
        lane_words: u64,
        /// Shards in the full grid.
        shards: u64,
        /// Rounds the full grid takes.
        planned_rounds: u64,
    },
    /// One shard of a campaign round finished, with its phase split.
    ShardSpan {
        /// Index of the shard's job in its fleet (0 for a lone campaign and
        /// for a bare shard range).
        job: u64,
        /// 1-based round (0 when the executor has no round structure,
        /// e.g. a distributed part).
        round: u64,
        /// Canonical grid index of the shard.
        grid_index: u64,
        /// Population the shard's traces belong to.
        pop: PopulationTag,
        /// First trace index within the population.
        start: u64,
        /// Traces in the shard.
        count: u64,
        /// Wall time of the whole shard.
        wall_ns: u64,
        /// Time in counter-derived RNG streams (data, masks).
        rng_ns: u64,
        /// Time in gate evaluation and toggle counting.
        sim_ns: u64,
        /// Time in the fused noise-and-energy pass.
        power_ns: u64,
        /// Time in sink recording.
        acc_ns: u64,
    },
    /// The checkpoint fold of one round completed.
    FoldSpan {
        /// 1-based round.
        round: u64,
        /// Shards folded this round.
        shards: u64,
        /// Time spent merging sinks (summed across workers).
        wall_ns: u64,
    },
    /// A stopping rule looked at a round checkpoint.
    RoundCheckpoint {
        /// 1-based round of the look.
        round: u64,
        /// Rounds the full grid takes.
        planned_rounds: u64,
        /// Fixed-class traces consumed so far.
        fixed_traces: u64,
        /// Random-class traces consumed so far.
        random_traces: u64,
        /// Information fraction consumed, in `(0, 1]`.
        fraction: f64,
        /// Alpha-spending margin of this look.
        boundary: f64,
        /// Gates resolved leaky.
        leaky: u64,
        /// Gates resolved clean.
        clean: u64,
        /// Gates still inside the margin band.
        unresolved: u64,
        /// Whether the rule stopped the campaign at this look.
        stop: bool,
        /// Wall time the look took (leakage fold, convergence census, alpha
        /// boundary, audit-row recording) — the adaptive overhead the shard
        /// phases cannot see.
        wall_ns: u64,
    },
    /// Per-gate audit row of one stopping-rule look.
    StopAudit {
        /// 1-based round of the look.
        round: u64,
        /// Gate index within the netlist.
        gate: u64,
        /// |t| of the gate at this look.
        abs_t: f64,
        /// Alpha-spending margin of this look.
        boundary: f64,
        /// The gate's verdict at this look.
        verdict: Verdict,
    },
    /// A round-checkpointed campaign finished.
    CampaignEnd {
        /// Rounds executed.
        rounds: u64,
        /// Whether a stopping rule fired before the grid was exhausted.
        stopped_early: bool,
        /// Fixed-class traces consumed.
        fixed_traces: u64,
        /// Random-class traces consumed.
        random_traces: u64,
        /// Wall time of the whole campaign.
        wall_ns: u64,
    },
    /// Fleet queue state observed by a worker right after it took an item.
    QueueDepth {
        /// Shards left in the shared queue.
        depth: u64,
        /// Jobs not yet retired.
        jobs_remaining: u64,
    },
    /// A fleet worker exited its loop.
    WorkerSummary {
        /// Shards the worker executed.
        items: u64,
        /// Time spent on items and folds.
        busy_ns: u64,
        /// Wall time of the worker's whole loop.
        wall_ns: u64,
    },
    /// A distributed worker executed its shard-plan part.
    PlanExec {
        /// 0-based part index.
        part: u64,
        /// Total parts in the plan.
        parts: u64,
        /// First grid index of the part.
        shard_lo: u64,
        /// One past the last grid index of the part.
        shard_hi: u64,
        /// Wall time of the part.
        wall_ns: u64,
    },
    /// The central merge folded one part's shard states.
    MergeFold {
        /// 0-based part index.
        part: u64,
        /// Shards folded from the part.
        shards: u64,
        /// Time spent decoding and folding the part.
        wall_ns: u64,
    },
    /// The central merge finished.
    MergeDone {
        /// Parts merged.
        parts: u64,
        /// Total shards folded.
        shards: u64,
        /// Wall time of the whole merge.
        wall_ns: u64,
    },
}

impl Payload {
    /// The event's `kind` field.
    pub fn kind(&self) -> &'static str {
        match self {
            Payload::CampaignStart { .. } => "campaign_start",
            Payload::ShardSpan { .. } => "shard_span",
            Payload::FoldSpan { .. } => "fold_span",
            Payload::RoundCheckpoint { .. } => "round_checkpoint",
            Payload::StopAudit { .. } => "stop_audit",
            Payload::CampaignEnd { .. } => "campaign_end",
            Payload::QueueDepth { .. } => "queue_depth",
            Payload::WorkerSummary { .. } => "worker_summary",
            Payload::PlanExec { .. } => "plan_exec",
            Payload::MergeFold { .. } => "merge_fold",
            Payload::MergeDone { .. } => "merge_done",
        }
    }

    /// Every kind string the schema defines, in a stable order.
    pub const KINDS: [&'static str; 11] = [
        "campaign_start",
        "shard_span",
        "fold_span",
        "round_checkpoint",
        "stop_audit",
        "campaign_end",
        "queue_depth",
        "worker_summary",
        "plan_exec",
        "merge_fold",
        "merge_done",
    ];
}

/// One recorded event: common header plus typed payload.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Monotonic nanoseconds since the recorder's epoch.
    pub t_ns: u64,
    /// Process-local ordinal of the recording thread.
    pub thread: u64,
    /// The typed payload.
    pub payload: Payload,
}

impl Event {
    /// Encodes the event as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut w = JsonWriter::new();
        w.u64("t", self.t_ns)
            .u64("thread", self.thread)
            .str("kind", self.payload.kind());
        match &self.payload {
            Payload::CampaignStart {
                gates,
                planned_fixed,
                planned_random,
                threads,
                lane_words,
                shards,
                planned_rounds,
            } => {
                w.u64("gates", *gates)
                    .u64("planned_fixed", *planned_fixed)
                    .u64("planned_random", *planned_random)
                    .u64("threads", *threads)
                    .u64("lane_words", *lane_words)
                    .u64("shards", *shards)
                    .u64("planned_rounds", *planned_rounds);
            }
            Payload::ShardSpan {
                job,
                round,
                grid_index,
                pop,
                start,
                count,
                wall_ns,
                rng_ns,
                sim_ns,
                power_ns,
                acc_ns,
            } => {
                w.u64("job", *job)
                    .u64("round", *round)
                    .u64("grid_index", *grid_index)
                    .str("pop", pop.as_str())
                    .u64("start", *start)
                    .u64("count", *count)
                    .u64("wall_ns", *wall_ns)
                    .u64("rng_ns", *rng_ns)
                    .u64("sim_ns", *sim_ns)
                    .u64("power_ns", *power_ns)
                    .u64("acc_ns", *acc_ns);
            }
            Payload::FoldSpan {
                round,
                shards,
                wall_ns,
            } => {
                w.u64("round", *round)
                    .u64("shards", *shards)
                    .u64("wall_ns", *wall_ns);
            }
            Payload::RoundCheckpoint {
                round,
                planned_rounds,
                fixed_traces,
                random_traces,
                fraction,
                boundary,
                leaky,
                clean,
                unresolved,
                stop,
                wall_ns,
            } => {
                w.u64("round", *round)
                    .u64("planned_rounds", *planned_rounds)
                    .u64("fixed_traces", *fixed_traces)
                    .u64("random_traces", *random_traces)
                    .f64("fraction", *fraction)
                    .f64("boundary", *boundary)
                    .u64("leaky", *leaky)
                    .u64("clean", *clean)
                    .u64("unresolved", *unresolved)
                    .bool("stop", *stop)
                    .u64("wall_ns", *wall_ns);
            }
            Payload::StopAudit {
                round,
                gate,
                abs_t,
                boundary,
                verdict,
            } => {
                w.u64("round", *round)
                    .u64("gate", *gate)
                    .f64("abs_t", *abs_t)
                    .f64("boundary", *boundary)
                    .str("verdict", verdict.as_str());
            }
            Payload::CampaignEnd {
                rounds,
                stopped_early,
                fixed_traces,
                random_traces,
                wall_ns,
            } => {
                w.u64("rounds", *rounds)
                    .bool("stopped_early", *stopped_early)
                    .u64("fixed_traces", *fixed_traces)
                    .u64("random_traces", *random_traces)
                    .u64("wall_ns", *wall_ns);
            }
            Payload::QueueDepth {
                depth,
                jobs_remaining,
            } => {
                w.u64("depth", *depth)
                    .u64("jobs_remaining", *jobs_remaining);
            }
            Payload::WorkerSummary {
                items,
                busy_ns,
                wall_ns,
            } => {
                w.u64("items", *items)
                    .u64("busy_ns", *busy_ns)
                    .u64("wall_ns", *wall_ns);
            }
            Payload::PlanExec {
                part,
                parts,
                shard_lo,
                shard_hi,
                wall_ns,
            } => {
                w.u64("part", *part)
                    .u64("parts", *parts)
                    .u64("shard_lo", *shard_lo)
                    .u64("shard_hi", *shard_hi)
                    .u64("wall_ns", *wall_ns);
            }
            Payload::MergeFold {
                part,
                shards,
                wall_ns,
            } => {
                w.u64("part", *part)
                    .u64("shards", *shards)
                    .u64("wall_ns", *wall_ns);
            }
            Payload::MergeDone {
                parts,
                shards,
                wall_ns,
            } => {
                w.u64("parts", *parts)
                    .u64("shards", *shards)
                    .u64("wall_ns", *wall_ns);
            }
        }
        w.finish()
    }

    /// Decodes one trace line. `line_no` is 1-based and used in errors.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] on any syntax violation, unknown kind,
    /// missing field, or wrong field type.
    pub fn decode(line_no: usize, line: &str) -> Result<Event, TraceError> {
        let fields = parse_object(line_no, line)?;
        Event::from_fields(line_no, &fields)
    }

    fn from_fields(
        n: usize,
        f: &BTreeMap<String, crate::json::JsonValue>,
    ) -> Result<Event, TraceError> {
        let t_ns = u64_field(n, f, "t")?;
        let thread = u64_field(n, f, "thread")?;
        let kind = str_field(n, f, "kind")?;
        let payload = match kind {
            "campaign_start" => Payload::CampaignStart {
                gates: u64_field(n, f, "gates")?,
                planned_fixed: u64_field(n, f, "planned_fixed")?,
                planned_random: u64_field(n, f, "planned_random")?,
                threads: u64_field(n, f, "threads")?,
                lane_words: u64_field(n, f, "lane_words")?,
                shards: u64_field(n, f, "shards")?,
                planned_rounds: u64_field(n, f, "planned_rounds")?,
            },
            "shard_span" => Payload::ShardSpan {
                job: u64_field(n, f, "job")?,
                round: u64_field(n, f, "round")?,
                grid_index: u64_field(n, f, "grid_index")?,
                pop: match str_field(n, f, "pop")? {
                    "fixed" => PopulationTag::Fixed,
                    "random" => PopulationTag::Random,
                    other => {
                        return Err(TraceError::new(n, format!("unknown population `{other}`")))
                    }
                },
                start: u64_field(n, f, "start")?,
                count: u64_field(n, f, "count")?,
                wall_ns: u64_field(n, f, "wall_ns")?,
                rng_ns: u64_field(n, f, "rng_ns")?,
                sim_ns: u64_field(n, f, "sim_ns")?,
                power_ns: u64_field(n, f, "power_ns")?,
                acc_ns: u64_field(n, f, "acc_ns")?,
            },
            "fold_span" => Payload::FoldSpan {
                round: u64_field(n, f, "round")?,
                shards: u64_field(n, f, "shards")?,
                wall_ns: u64_field(n, f, "wall_ns")?,
            },
            "round_checkpoint" => Payload::RoundCheckpoint {
                round: u64_field(n, f, "round")?,
                planned_rounds: u64_field(n, f, "planned_rounds")?,
                fixed_traces: u64_field(n, f, "fixed_traces")?,
                random_traces: u64_field(n, f, "random_traces")?,
                fraction: f64_field(n, f, "fraction")?,
                boundary: f64_field(n, f, "boundary")?,
                leaky: u64_field(n, f, "leaky")?,
                clean: u64_field(n, f, "clean")?,
                unresolved: u64_field(n, f, "unresolved")?,
                stop: bool_field(n, f, "stop")?,
                wall_ns: u64_field(n, f, "wall_ns")?,
            },
            "stop_audit" => Payload::StopAudit {
                round: u64_field(n, f, "round")?,
                gate: u64_field(n, f, "gate")?,
                abs_t: f64_field(n, f, "abs_t")?,
                boundary: f64_field(n, f, "boundary")?,
                verdict: match str_field(n, f, "verdict")? {
                    "leaky" => Verdict::Leaky,
                    "clean" => Verdict::Clean,
                    "undecided" => Verdict::Undecided,
                    other => return Err(TraceError::new(n, format!("unknown verdict `{other}`"))),
                },
            },
            "campaign_end" => Payload::CampaignEnd {
                rounds: u64_field(n, f, "rounds")?,
                stopped_early: bool_field(n, f, "stopped_early")?,
                fixed_traces: u64_field(n, f, "fixed_traces")?,
                random_traces: u64_field(n, f, "random_traces")?,
                wall_ns: u64_field(n, f, "wall_ns")?,
            },
            "queue_depth" => Payload::QueueDepth {
                depth: u64_field(n, f, "depth")?,
                jobs_remaining: u64_field(n, f, "jobs_remaining")?,
            },
            "worker_summary" => Payload::WorkerSummary {
                items: u64_field(n, f, "items")?,
                busy_ns: u64_field(n, f, "busy_ns")?,
                wall_ns: u64_field(n, f, "wall_ns")?,
            },
            "plan_exec" => Payload::PlanExec {
                part: u64_field(n, f, "part")?,
                parts: u64_field(n, f, "parts")?,
                shard_lo: u64_field(n, f, "shard_lo")?,
                shard_hi: u64_field(n, f, "shard_hi")?,
                wall_ns: u64_field(n, f, "wall_ns")?,
            },
            "merge_fold" => Payload::MergeFold {
                part: u64_field(n, f, "part")?,
                shards: u64_field(n, f, "shards")?,
                wall_ns: u64_field(n, f, "wall_ns")?,
            },
            "merge_done" => Payload::MergeDone {
                parts: u64_field(n, f, "parts")?,
                shards: u64_field(n, f, "shards")?,
                wall_ns: u64_field(n, f, "wall_ns")?,
            },
            other => return Err(TraceError::new(n, format!("unknown event kind `{other}`"))),
        };
        Ok(Event {
            t_ns,
            thread,
            payload,
        })
    }
}

/// Parses a whole JSONL trace; blank lines are allowed and skipped.
///
/// # Errors
///
/// Returns the first [`TraceError`] encountered, tagged with its 1-based
/// line number.
pub fn parse_trace(input: &str) -> Result<Vec<Event>, TraceError> {
    let mut events = Vec::new();
    for (i, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(Event::decode(i + 1, line)?);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        let mk = |payload| Event {
            t_ns: 12_345,
            thread: 3,
            payload,
        };
        vec![
            mk(Payload::CampaignStart {
                gates: 6,
                planned_fixed: 4096,
                planned_random: 4096,
                threads: 2,
                lane_words: 4,
                shards: 32,
                planned_rounds: 8,
            }),
            mk(Payload::ShardSpan {
                job: 0,
                round: 1,
                grid_index: 0,
                pop: PopulationTag::Fixed,
                start: 0,
                count: 256,
                wall_ns: 1_000_000,
                rng_ns: 80_000,
                sim_ns: 200_000,
                power_ns: 600_000,
                acc_ns: 100_000,
            }),
            mk(Payload::FoldSpan {
                round: 1,
                shards: 4,
                wall_ns: 5_000,
            }),
            mk(Payload::RoundCheckpoint {
                round: 2,
                planned_rounds: 8,
                fixed_traces: 1024,
                random_traces: 1024,
                fraction: 0.25,
                boundary: 1.2345678901234567,
                leaky: 1,
                clean: 4,
                unresolved: 1,
                stop: false,
                wall_ns: 42_000,
            }),
            mk(Payload::StopAudit {
                round: 2,
                gate: 5,
                abs_t: 11.75,
                boundary: f64::INFINITY,
                verdict: Verdict::Leaky,
            }),
            mk(Payload::CampaignEnd {
                rounds: 3,
                stopped_early: true,
                fixed_traces: 1536,
                random_traces: 1536,
                wall_ns: 9_999_999,
            }),
            mk(Payload::QueueDepth {
                depth: 7,
                jobs_remaining: 2,
            }),
            mk(Payload::ShardSpan {
                job: 1,
                round: 2,
                grid_index: 9,
                pop: PopulationTag::Random,
                start: 1024,
                count: 256,
                wall_ns: 800_000,
                rng_ns: 40_000,
                sim_ns: 200_000,
                power_ns: 460_000,
                acc_ns: 90_000,
            }),
            mk(Payload::WorkerSummary {
                items: 12,
                busy_ns: 10_000_000,
                wall_ns: 12_000_000,
            }),
            mk(Payload::PlanExec {
                part: 0,
                parts: 3,
                shard_lo: 0,
                shard_hi: 11,
                wall_ns: 123,
            }),
            mk(Payload::MergeFold {
                part: 2,
                shards: 10,
                wall_ns: 456,
            }),
            mk(Payload::MergeDone {
                parts: 3,
                shards: 32,
                wall_ns: 789,
            }),
        ]
    }

    #[test]
    fn every_kind_round_trips_exactly() {
        for ev in sample_events() {
            let line = ev.encode();
            let back = Event::decode(1, &line).unwrap();
            // Re-encoding compares NaN/inf fields by representation, which
            // `PartialEq` on f64 cannot.
            assert_eq!(back.encode(), line);
            if !line.contains("nan") {
                assert_eq!(back, ev, "decoded mismatch for {line}");
            }
        }
    }

    #[test]
    fn kinds_list_matches_payloads() {
        let mut seen: Vec<&str> = sample_events().iter().map(|e| e.payload.kind()).collect();
        seen.sort_unstable();
        seen.dedup();
        let mut declared = Payload::KINDS.to_vec();
        declared.sort_unstable();
        assert_eq!(seen, declared);
    }

    #[test]
    fn parse_trace_reports_the_failing_line() {
        let mut text = String::new();
        for ev in sample_events() {
            text.push_str(&ev.encode());
            text.push('\n');
        }
        text.push_str("\n{\"t\":0,\"thread\":0,\"kind\":\"no_such_kind\"}\n");
        let err = parse_trace(&text).unwrap_err();
        assert_eq!(err.line, sample_events().len() + 2);
        assert!(err.message.contains("no_such_kind"));
    }

    #[test]
    fn decode_rejects_missing_and_mistyped_fields() {
        let ok = Event {
            t_ns: 1,
            thread: 0,
            payload: Payload::QueueDepth {
                depth: 1,
                jobs_remaining: 1,
            },
        }
        .encode();
        assert!(Event::decode(1, &ok).is_ok());
        assert!(Event::decode(1, &ok.replace("\"depth\":1", "\"depth\":\"x\"")).is_err());
        assert!(Event::decode(1, &ok.replace("\"depth\":1,", "")).is_err());
        assert!(Event::decode(1, &ok.replace("\"t\":1", "\"t\":-1")).is_err());
    }

    /// A shard span names its job: a line without `job` (the layout before
    /// the fleet stamped its shards) is rejected, never read as job 0.
    #[test]
    fn decode_requires_the_shard_job() {
        for ev in sample_events() {
            if let Payload::ShardSpan { job, .. } = ev.payload {
                let line = ev.encode();
                let without = line.replace(&format!("\"job\":{job},"), "");
                assert_ne!(without, line);
                assert!(Event::decode(1, &without).is_err(), "{without}");
            }
        }
    }

    /// The phase split carries `power_ns`: a line without it (the layout
    /// before the power phase was split out) or with a mistyped value is
    /// rejected, never read as zero.
    #[test]
    fn decode_requires_the_power_phase() {
        for ev in sample_events() {
            if !matches!(ev.payload, Payload::ShardSpan { .. }) {
                continue;
            }
            let line = ev.encode();
            let key = line
                .find("\"power_ns\":")
                .expect("phase split encodes power_ns");
            let end = key + line[key..].find(',').expect("acc_ns follows");
            let without = format!("{}{}", &line[..key - 1], &line[end..]);
            assert!(Event::decode(1, &without).is_err(), "{without}");
            for hostile in ["\"x\"", "-1", "1.5", "null", "18446744073709551616"] {
                let bad = format!("{}\"power_ns\":{hostile}{}", &line[..key], &line[end..]);
                assert!(Event::decode(1, &bad).is_err(), "{bad}");
            }
        }
    }
}
