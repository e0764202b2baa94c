//! Adaptive sequential stopping for TVLA campaigns.
//!
//! The cognition loop re-runs full campaigns after every masking step, but
//! leakage verdicts (|t| > 4.5, paper Eq. 1) usually converge long before
//! the configured trace budget is spent. This module implements the
//! group-sequential stopping rule the round-checkpointed campaign engine
//! (see [`polaris_sim::campaign::run_campaign_adaptive`]) evaluates at each
//! round boundary:
//!
//! * every gate's Welch t must be **resolved** — either it exceeds the leak
//!   threshold (the gate fails TVLA; a crossing at any look is a valid
//!   verdict) or its confidence interval excludes the threshold
//!   (`|t| + z_k ≤ threshold`: confidently clean);
//! * the per-look margin `z_k` comes from an O'Brien–Fleming alpha-spending
//!   schedule (see [`crate::special::sequential_boundary`]), which corrects
//!   for the repeated looks: early checkpoints get near-unreachable margins
//!   and the full false-clean budget `α = 1 − confidence` is only spent
//!   across the whole campaign;
//! * the verdict must be **stable**: all-resolved for
//!   [`SequentialConfig::stability`] consecutive checkpoints with an
//!   unchanged leaky-gate count.
//!
//! The determinism contract of the parallel engine extends to stopping:
//! the rule sees only checkpoint-folded accumulators (bit-identical at any
//! thread count), so the stop round, the trace counts, and every
//! t-statistic of an early-stopped run are byte-identical at 1, 2, 8, …
//! threads — and equal to the prefix of a full run truncated at the same
//! round boundary.

use polaris_netlist::{Netlist, NetlistError};
use polaris_obs::{Payload, Recorder, Verdict};
use polaris_sim::campaign::{
    CampaignConfig, CampaignStats, Checkpoint, Parallelism, StoppingRule, DEFAULT_SHARDS_PER_ROUND,
};
use polaris_sim::fleet::FleetJob;
use polaris_sim::power::PowerModel;

use crate::gate_leakage::{GateLeakage, WelchAccumulator};
use crate::special::sequential_boundary;
use crate::TVLA_THRESHOLD;

/// Parameters of the sequential stopping rule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SequentialConfig {
    /// Total false-clean probability budget per gate across all looks
    /// (`α = 1 − confidence`).
    pub alpha: f64,
    /// Leak threshold on `|t|` (TVLA's 4.5).
    pub threshold: f64,
    /// Consecutive all-resolved checkpoints (with an unchanged leaky count)
    /// required before stopping.
    pub stability: usize,
    /// Checkpoints before this round index are never eligible to stop
    /// (t-statistics on a handful of shards are still noise-dominated).
    pub min_rounds: usize,
    /// Shards per round of the checkpointed engine. This is both the
    /// checkpoint granularity *and* the per-round worker-concurrency bound:
    /// the rule must see the folded round before the next one is scheduled,
    /// so at most this many shards run concurrently. Raise it to feed more
    /// worker threads (coarser checkpoints, later stops); the stop round
    /// depends on this knob but never on the thread count.
    pub shards_per_round: usize,
}

impl SequentialConfig {
    /// A rule spending `alpha = 1 − confidence` across the campaign's looks.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < confidence < 1`.
    pub fn with_confidence(confidence: f64) -> Self {
        assert!(
            confidence > 0.0 && confidence < 1.0,
            "confidence must lie in (0, 1)"
        );
        SequentialConfig {
            alpha: 1.0 - confidence,
            ..SequentialConfig::default()
        }
    }
}

impl Default for SequentialConfig {
    /// 95 % confidence, TVLA threshold, 2-checkpoint stability, no stop
    /// before round 2, [`DEFAULT_SHARDS_PER_ROUND`] granularity.
    fn default() -> Self {
        SequentialConfig {
            alpha: 0.05,
            threshold: TVLA_THRESHOLD,
            stability: 2,
            min_rounds: 2,
            shards_per_round: DEFAULT_SHARDS_PER_ROUND,
        }
    }
}

/// The stateful stopping rule: tracks the alpha already spent at previous
/// looks and the current stability streak.
///
/// Every look reports to the checkpoint's
/// [`recorder`](Checkpoint::recorder): a `round_checkpoint` census plus
/// one `stop_audit` row per scoped gate. A disabled recorder skips all of
/// it, and recording never feeds back into the stop decision.
#[derive(Clone, Debug)]
pub struct SequentialStopping {
    config: SequentialConfig,
    /// Gates the verdict is over (`None` = every gate of the map).
    /// [`assess_adaptive`] scopes the rule to the netlist's cells so the
    /// stop decision matches the verdict
    /// [`GateLeakage::summarize`][crate::GateLeakage::summarize] reports —
    /// inputs, constants and flops carry no maskable leakage and must not
    /// hold the campaign open.
    scope: Option<Vec<polaris_netlist::GateId>>,
    prev_fraction: f64,
    streak: usize,
    last_leaky: Option<usize>,
}

impl SequentialStopping {
    /// A fresh rule over every gate of the leakage map.
    pub fn new(config: SequentialConfig) -> Self {
        SequentialStopping {
            config,
            scope: None,
            prev_fraction: 0.0,
            streak: 0,
            last_leaky: None,
        }
    }

    /// A fresh rule whose verdict is restricted to `gates` (typically
    /// [`Netlist::cell_ids`]).
    pub fn scoped(config: SequentialConfig, gates: Vec<polaris_netlist::GateId>) -> Self {
        SequentialStopping {
            scope: Some(gates),
            ..SequentialStopping::new(config)
        }
    }

    /// Emits the per-gate audit rows for one look to the checkpoint's
    /// recorder, then the checkpoint census. The census comes last so its `wall_ns` — elapsed since the
    /// look began — covers the audit-row encoding as well as the leakage
    /// fold, convergence census, and alpha boundary.
    #[allow(clippy::too_many_arguments)]
    fn record_look(
        &self,
        checkpoint: &Checkpoint<'_, WelchAccumulator>,
        leakage: &GateLeakage,
        convergence: &crate::ConvergenceSummary,
        fraction: f64,
        margin: f64,
        stop: bool,
        look_start: std::time::Instant,
    ) {
        let all_gates;
        let gates = match &self.scope {
            Some(gates) => gates.as_slice(),
            None => {
                all_gates = (0..leakage.gate_count())
                    .map(polaris_netlist::GateId::new)
                    .collect::<Vec<_>>();
                all_gates.as_slice()
            }
        };
        for &id in gates {
            let verdict = match leakage.result(id).resolution(self.config.threshold, margin) {
                Some(true) => Verdict::Leaky,
                Some(false) => Verdict::Clean,
                None => Verdict::Undecided,
            };
            checkpoint.recorder.record(Payload::StopAudit {
                round: checkpoint.round as u64,
                gate: id.index() as u64,
                abs_t: leakage.abs_t(id),
                boundary: margin,
                verdict,
            });
        }
        checkpoint.recorder.record(Payload::RoundCheckpoint {
            round: checkpoint.round as u64,
            planned_rounds: checkpoint.planned_rounds as u64,
            fixed_traces: checkpoint.fixed_traces as u64,
            random_traces: checkpoint.random_traces as u64,
            fraction,
            boundary: margin,
            leaky: convergence.leaky as u64,
            clean: convergence.clean as u64,
            unresolved: convergence.unresolved as u64,
            stop,
            wall_ns: look_start.elapsed().as_nanos() as u64,
        });
    }
}

impl StoppingRule<WelchAccumulator> for SequentialStopping {
    fn should_stop(&mut self, checkpoint: &Checkpoint<'_, WelchAccumulator>) -> bool {
        // Time the whole look (leakage fold, convergence census, boundary)
        // so the trace can attribute the adaptive-stopping overhead the
        // shard-phase spans cannot see. Only taken when recording.
        let look_start = checkpoint.recorder.enabled().then(std::time::Instant::now);
        let fraction = checkpoint.information_fraction();
        let margin = sequential_boundary(self.config.alpha, self.prev_fraction, fraction);
        self.prev_fraction = fraction;

        let leakage = checkpoint.sink.leakage();
        let convergence = match &self.scope {
            Some(gates) => {
                leakage.convergence_of(gates.iter().copied(), self.config.threshold, margin)
            }
            None => leakage.convergence(self.config.threshold, margin),
        };
        let stable_leaky = self.last_leaky == Some(convergence.leaky);
        if convergence.is_converged() && (stable_leaky || self.config.stability <= 1) {
            self.streak += 1;
        } else if convergence.is_converged() {
            self.streak = 1;
        } else {
            self.streak = 0;
        }
        self.last_leaky = convergence.is_converged().then_some(convergence.leaky);

        let stop =
            checkpoint.round >= self.config.min_rounds && self.streak >= self.config.stability;
        if let Some(start) = look_start {
            self.record_look(
                checkpoint,
                &leakage,
                &convergence,
                fraction,
                margin,
                stop,
                start,
            );
        }
        stop
    }
}

/// An adaptively assessed leakage map plus the campaign consumption the
/// callers report (traces used vs. budget, early-stop flag).
#[derive(Clone, Debug)]
pub struct AdaptiveAssessment {
    /// Per-gate t-test results at the stop boundary.
    pub leakage: GateLeakage,
    /// Trace/round consumption of the (possibly early-stopped) campaign.
    pub stats: CampaignStats,
    /// The configured per-class budgets (`config.n_fixed`, `config.n_random`).
    pub budget_fixed: usize,
    pub budget_random: usize,
}

impl AdaptiveAssessment {
    /// Fraction of the total trace budget saved by early stopping.
    pub fn savings_fraction(&self) -> f64 {
        let budget = self.budget_fixed + self.budget_random;
        if budget == 0 {
            0.0
        } else {
            1.0 - self.stats.traces_used() as f64 / budget as f64
        }
    }
}

/// Runs a fixed-vs-random (or fixed-vs-fixed) campaign with sequential
/// early stopping and returns the first-order leakage map at the stop
/// boundary.
///
/// `config.n_fixed` / `config.n_random` act as the trace *budget*; the
/// returned [`CampaignStats`] say how much of it was consumed. The stop
/// verdict is over the netlist's *cells* — the same population
/// [`GateLeakage::summarize`][crate::GateLeakage::summarize] reports —
/// so non-cell gates (inputs, constants, flops) never hold the campaign
/// open. Results are byte-identical at any thread count, and equal to
/// [`crate::assess_parallel`] re-run at the consumed trace counts.
///
/// `recorder` gets the engine's shard and fold spans plus the stopping
/// rule's checkpoint census and per-gate audit trail. Recording is strictly
/// observational: the leakage map, stats and stop round are byte-identical
/// without it.
///
/// # Errors
///
/// Propagates [`NetlistError`] from simulator compilation.
pub fn assess_adaptive(
    netlist: &Netlist,
    model: &PowerModel,
    config: &CampaignConfig,
    parallelism: Parallelism,
    sequential: &SequentialConfig,
    recorder: &dyn Recorder,
) -> Result<AdaptiveAssessment, NetlistError> {
    let outcome =
        campaign_outcome_adaptive(netlist, model, config, parallelism, sequential, recorder)?;
    Ok(AdaptiveAssessment {
        leakage: outcome.sink.leakage(),
        stats: outcome.stats,
        budget_fixed: config.n_fixed,
        budget_random: config.n_random,
    })
}

/// [`assess_adaptive`] at the accumulator level: returns the checkpoint-
/// folded [`WelchAccumulator`] outcome instead of the derived leakage map.
/// Flows that hand the folded state onward — snapshotting it into the
/// distributed shard-state format, or feeding a pre-folded baseline into
/// the masking flow — consume this; the leakage map is one
/// [`WelchAccumulator::leakage`] call away.
///
/// # Errors
///
/// Propagates [`NetlistError`] from simulator compilation.
pub fn campaign_outcome_adaptive(
    netlist: &Netlist,
    model: &PowerModel,
    config: &CampaignConfig,
    parallelism: Parallelism,
    sequential: &SequentialConfig,
    recorder: &dyn Recorder,
) -> Result<polaris_sim::CampaignOutcome<WelchAccumulator>, NetlistError> {
    adaptive_fleet_job(netlist, model, config.clone(), sequential).run(parallelism, recorder)
}

/// [`campaign_outcome_adaptive`] packaged as a fleet work item: a
/// [`FleetJob`] carrying the cells-scoped sequential stopping rule at the
/// configuration's checkpoint granularity. Scheduled through
/// [`polaris_sim::fleet::run_fleet`] the job's checkpoints fire per job
/// mid-fleet, so its outcome — sink, stats, and stop round — is
/// byte-identical to the standalone [`campaign_outcome_adaptive`] run at
/// any pool size and in any job mix.
pub fn adaptive_fleet_job<'a>(
    netlist: &'a Netlist,
    model: &'a PowerModel,
    config: CampaignConfig,
    sequential: &SequentialConfig,
) -> FleetJob<'a, WelchAccumulator> {
    let rule = SequentialStopping::scoped(*sequential, netlist.cell_ids());
    FleetJob::new(netlist, model, config).with_rule(rule, sequential.shards_per_round)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_netlist::generators;
    use polaris_obs::NullRecorder;

    fn quick_seq() -> SequentialConfig {
        SequentialConfig {
            shards_per_round: 2,
            ..SequentialConfig::default()
        }
    }

    #[test]
    fn leaky_design_stops_before_the_budget() {
        // c17 at a 6k-trace/class budget: the nand cells blast past 4.5 and
        // the quiet gates fall inside the late-look margins well before the
        // budget is spent.
        let n = generators::iscas_c17();
        let cfg = CampaignConfig::new(6000, 6000, 11);
        let a = assess_adaptive(
            &n,
            &PowerModel::default(),
            &cfg,
            Parallelism::sequential(),
            &quick_seq(),
            &NullRecorder,
        )
        .unwrap();
        assert!(a.stats.stopped_early, "stats: {:?}", a.stats);
        assert!(a.stats.traces_used() < 12_000);
        assert!(a.savings_fraction() > 0.0);
        // The leak verdict is unchanged versus the full-budget run.
        let full = crate::assess(&n, &PowerModel::default(), &cfg).unwrap();
        for id in n.ids() {
            assert_eq!(
                a.leakage.abs_t(id) > TVLA_THRESHOLD,
                full.abs_t(id) > TVLA_THRESHOLD,
                "verdict flip at gate {id}"
            );
        }
    }

    #[test]
    fn adaptive_equals_full_assessment_at_consumed_trace_counts() {
        let n = generators::iscas_c17();
        let cfg = CampaignConfig::new(6000, 6000, 11);
        let a = assess_adaptive(
            &n,
            &PowerModel::default(),
            &cfg,
            Parallelism::sequential(),
            &quick_seq(),
            &NullRecorder,
        )
        .unwrap();
        let prefix_cfg = CampaignConfig::new(a.stats.fixed_traces, a.stats.random_traces, cfg.seed);
        let prefix = crate::assess(&n, &PowerModel::default(), &prefix_cfg).unwrap();
        for id in n.ids() {
            assert_eq!(
                a.leakage.result(id).t.to_bits(),
                prefix.result(id).t.to_bits(),
                "gate {id}"
            );
        }
    }

    #[test]
    fn tight_confidence_consumes_more_traces() {
        let n = generators::iscas_c17();
        let cfg = CampaignConfig::new(6000, 6000, 11);
        let model = PowerModel::default();
        let loose = assess_adaptive(
            &n,
            &model,
            &cfg,
            Parallelism::sequential(),
            &SequentialConfig {
                alpha: 0.2,
                ..quick_seq()
            },
            &NullRecorder,
        )
        .unwrap();
        let tight = assess_adaptive(
            &n,
            &model,
            &cfg,
            Parallelism::sequential(),
            &SequentialConfig {
                alpha: 1e-6,
                ..quick_seq()
            },
            &NullRecorder,
        )
        .unwrap();
        assert!(
            tight.stats.traces_used() >= loose.stats.traces_used(),
            "tight {:?} vs loose {:?}",
            tight.stats,
            loose.stats
        );
    }

    #[test]
    fn never_stops_when_margins_are_unreachable() {
        // α so small that every look's spending underflows: margins are
        // infinite, a quiet cell can never resolve clean, and the full
        // budget is consumed. (The design must have a non-leaky cell — a
        // masked xor — since leaky resolutions need no margin.)
        let src = "
module m (a, m0, y);
  input a;
  mask_input m0;
  output y;
  xor g (y, a, m0);
endmodule";
        let n = polaris_netlist::parse_netlist(src).unwrap();
        let cfg = CampaignConfig::new(1500, 1500, 3);
        let a = assess_adaptive(
            &n,
            &PowerModel::default(),
            &cfg,
            Parallelism::sequential(),
            &SequentialConfig {
                alpha: 1e-12,
                ..quick_seq()
            },
            &NullRecorder,
        )
        .unwrap();
        assert!(!a.stats.stopped_early);
        assert_eq!(a.stats.fixed_traces, 1500);
        assert_eq!(a.stats.random_traces, 1500);
        assert!((a.savings_fraction()).abs() < 1e-12);
    }

    #[test]
    fn stop_verdict_is_scoped_to_cells() {
        // c17's non-cell gates (zero-capacitance inputs) carry pure noise
        // and sit in the undecided band for many looks; the cells are all
        // strongly leaky. A cells-scoped run therefore stops at the
        // earliest eligible checkpoint, while an unscoped rule over every
        // gate must wait at least as long.
        let n = generators::iscas_c17();
        let cfg = CampaignConfig::new(6000, 6000, 11);
        let seq = quick_seq();
        let scoped = assess_adaptive(
            &n,
            &PowerModel::default(),
            &cfg,
            Parallelism::sequential(),
            &seq,
            &NullRecorder,
        )
        .unwrap();
        assert!(scoped.stats.stopped_early);
        assert_eq!(
            scoped.stats.rounds,
            seq.min_rounds.max(seq.stability),
            "all-leaky cells stop at the earliest eligible checkpoint: {:?}",
            scoped.stats
        );

        let mut unscoped = SequentialStopping::new(seq);
        let outcome = polaris_sim::campaign::run_campaign_adaptive::<WelchAccumulator, _>(
            &n,
            &PowerModel::default(),
            &cfg,
            Parallelism::sequential(),
            seq.shards_per_round,
            &mut unscoped,
        )
        .unwrap();
        assert!(
            outcome.stats.rounds >= scoped.stats.rounds,
            "whole-map rule waits on non-cell gates: {:?}",
            outcome.stats
        );
    }

    #[test]
    fn fleet_job_matches_standalone_adaptive_outcome() {
        // The packaged fleet job must reproduce campaign_outcome_adaptive
        // byte for byte — stop round included — even while sharing the pool
        // with an unrelated job.
        let n = generators::iscas_c17();
        let cfg = CampaignConfig::new(6000, 6000, 11);
        let seq = quick_seq();
        let model = PowerModel::default();
        let solo =
            campaign_outcome_adaptive(&n, &model, &cfg, Parallelism::new(2), &seq, &NullRecorder)
                .unwrap();
        assert!(solo.stats.stopped_early);
        let jobs = vec![
            FleetJob::<WelchAccumulator>::new(&n, &model, CampaignConfig::new(500, 500, 3)),
            adaptive_fleet_job(&n, &model, cfg, &seq),
        ];
        let outcome = polaris_sim::fleet::run_fleet(jobs, Parallelism::new(3), &NullRecorder)
            .unwrap()
            .pop()
            .unwrap();
        assert_eq!(outcome.stats, solo.stats);
        let (a, b) = (outcome.sink.leakage(), solo.sink.leakage());
        for id in n.ids() {
            assert_eq!(a.result(id).t.to_bits(), b.result(id).t.to_bits());
        }
    }

    #[test]
    fn with_confidence_maps_to_alpha() {
        let s = SequentialConfig::with_confidence(0.99);
        assert!((s.alpha - 0.01).abs() < 1e-12);
        assert_eq!(s.threshold, TVLA_THRESHOLD);
    }
}
