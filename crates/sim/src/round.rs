//! Round checkpoints, stopping rules, and the one round folder every
//! campaign driver shares.
//!
//! A campaign's shard grid (see [`shard_grid`]) is walked in *rounds* of
//! `shards_per_round` consecutive grid entries. Per-shard states are folded
//! into one running accumulator **strictly in ascending grid order** — the
//! Chan-et-al merges are floating-point, so only that order reproduces the
//! same bits — and after every round but the last the folded state is
//! handed to a [`StoppingRule`] as a [`Checkpoint`].
//!
//! [`RoundFolder`] is that state machine, written once. The in-process
//! engine ([`FleetJob::run`](crate::fleet::FleetJob::run)), the fleet
//! scheduler ([`run_fleet`](crate::fleet::run_fleet)) and the distributed
//! coordinator (`polaris_dist::Coordinator`) all drive it: they decide who
//! simulates which shard and when, and hand each finished state to
//! [`RoundFolder::ingest`] in whatever order it arrives.

use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

use polaris_obs::Recorder;

use crate::campaign::{shard_grid, CampaignConfig, MergeableSink, Population, ShardSpec};

/// Trace-consumption statistics of one (possibly early-stopped) campaign.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CampaignStats {
    /// Fixed-class traces simulated.
    pub fixed_traces: usize,
    /// Random-class traces simulated.
    pub random_traces: usize,
    /// Rounds executed before the engine returned.
    pub rounds: usize,
    /// Rounds the full shard grid would have taken.
    pub planned_rounds: usize,
    /// True when a [`StoppingRule`] terminated the stream before the grid
    /// was exhausted.
    pub stopped_early: bool,
}

impl CampaignStats {
    /// Total traces simulated across both populations.
    pub fn traces_used(&self) -> usize {
        self.fixed_traces + self.random_traces
    }
}

/// Result of a round-checkpointed campaign: the folded sink plus the
/// consumption statistics callers report (`traces_used`, `stopped_early`).
#[derive(Clone, Debug)]
pub struct CampaignOutcome<S> {
    /// The checkpoint-folded sink at the stop (or full-grid) boundary.
    pub sink: S,
    /// How many traces/rounds the campaign actually consumed.
    pub stats: CampaignStats,
}

/// Checkpoint state handed to a [`StoppingRule`] after each round: the
/// folded accumulator so far, the engine's position in the shard grid, and
/// the recorder of the run that reached it.
#[derive(Debug)]
pub struct Checkpoint<'a, S> {
    /// The running accumulator, folded in shard order over every shard
    /// executed so far. Bit-identical at any thread count.
    pub sink: &'a S,
    /// 1-based index of the round that just completed.
    pub round: usize,
    /// Total rounds in the full plan.
    pub planned_rounds: usize,
    /// Fixed-class traces consumed so far.
    pub fixed_traces: usize,
    /// Random-class traces consumed so far.
    pub random_traces: usize,
    /// Fixed-class trace budget of the full campaign.
    pub planned_fixed: usize,
    /// Random-class trace budget of the full campaign.
    pub planned_random: usize,
    /// The recorder the driver passed to [`RoundFolder::ingest`]. A rule
    /// may report its look here; it must never let the recorder change
    /// its decision.
    pub recorder: &'a dyn Recorder,
}

impl<S> Checkpoint<'_, S> {
    /// Fraction of the total trace budget consumed (the *information
    /// fraction* of sequential analysis), in `(0, 1]`.
    pub fn information_fraction(&self) -> f64 {
        let planned = self.planned_fixed + self.planned_random;
        if planned == 0 {
            1.0
        } else {
            (self.fixed_traces + self.random_traces) as f64 / planned as f64
        }
    }
}

/// A sequential-analysis stopping rule evaluated at round checkpoints.
///
/// `should_stop` sees only checkpoint-folded state, which is bit-identical
/// at any worker count — so the stop decision (and therefore the stop round)
/// never depends on the thread budget. Rules may keep per-look state
/// (alpha-spending, stability streaks). A [`RoundFolder`] calls its rule
/// under the folder's lock, so at most once at a time and strictly in round
/// order, but not necessarily on the thread that created it — hence the
/// `Send` bound. It is never called after returning `true`, nor after the
/// last round (the full grid ends the campaign anyway).
pub trait StoppingRule<S>: Send {
    /// Returns `true` to terminate the trace stream at this checkpoint.
    fn should_stop(&mut self, checkpoint: &Checkpoint<'_, S>) -> bool;
}

impl<S, R: StoppingRule<S> + ?Sized> StoppingRule<S> for &mut R {
    fn should_stop(&mut self, checkpoint: &Checkpoint<'_, S>) -> bool {
        (**self).should_stop(checkpoint)
    }
}

/// The never-stopping rule: runs the full shard grid.
/// [`run_campaign_parallel`](crate::campaign::run_campaign_parallel) is
/// [`run_campaign_adaptive`](crate::campaign::run_campaign_adaptive) with
/// this rule.
#[derive(Clone, Copy, Debug, Default)]
pub struct NeverStop;

impl<S> StoppingRule<S> for NeverStop {
    fn should_stop(&mut self, _checkpoint: &Checkpoint<'_, S>) -> bool {
        false
    }
}

/// What one [`RoundFolder::ingest`] call did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ingest {
    /// Nothing folded: the state was parked until its predecessors arrive,
    /// or dropped as a replay or as lying past the stop bound.
    Waiting,
    /// This many states folded; no round boundary was reached.
    Folded(usize),
    /// This many states folded and at least one round completed. `done`
    /// says the campaign is over: the rule stopped it or the grid is
    /// exhausted, and no further state will be folded.
    RoundDone {
        /// States folded by this call.
        folded: usize,
        /// Whether the folder is now [finished](RoundFolder::finished).
        done: bool,
    },
}

/// The round-checkpointed ascending fold of one campaign.
///
/// The folder owns the running accumulator, the index of the next grid
/// entry it will fold, the out-of-order states that arrived ahead of it,
/// the round boundaries of `(grid, shards_per_round)`, the
/// [`CampaignStats`], the stop bound and the [`StoppingRule`]. Drivers hand
/// it each shard's state with [`ingest`](Self::ingest) in any order; the
/// fold sequence — and so every bit of the result and the stop round — is
/// the same whatever that order was.
pub struct RoundFolder<'a, S> {
    grid: Vec<ShardSpec>,
    shards_per_round: usize,
    planned_fixed: usize,
    planned_random: usize,
    rule: Box<dyn StoppingRule<S> + 'a>,
    acc: Option<S>,
    /// Grid index of the next state to fold: everything below is folded.
    next: usize,
    /// Grid index of the current round's first shard.
    round_start: usize,
    /// One past the last grid index that will ever fold: the grid length,
    /// shrunk to the stop boundary when the rule fires.
    stop_bound: usize,
    pending: BTreeMap<usize, S>,
    stats: CampaignStats,
    /// Nanoseconds spent merging, when timing was asked for.
    fold_ns: Option<u64>,
}

impl<'a, S: MergeableSink> RoundFolder<'a, S> {
    /// A folder over `config`'s shard grid, consulting `rule` every
    /// `shards_per_round` shards (`0` is treated as `1`; `usize::MAX` runs
    /// the grid as one round, which never consults the rule).
    pub fn new(
        config: &CampaignConfig,
        shards_per_round: usize,
        rule: Box<dyn StoppingRule<S> + 'a>,
    ) -> Self {
        let grid = shard_grid(config);
        let shards_per_round = shards_per_round.max(1);
        RoundFolder {
            stop_bound: grid.len(),
            stats: CampaignStats {
                planned_rounds: grid.len().div_ceil(shards_per_round),
                ..CampaignStats::default()
            },
            grid,
            shards_per_round,
            planned_fixed: config.n_fixed,
            planned_random: config.n_random,
            rule,
            acc: None,
            next: 0,
            round_start: 0,
            pending: BTreeMap::new(),
            fold_ns: None,
        }
    }

    /// Starts measuring the time spent in merges (see
    /// [`take_fold_ns`](Self::take_fold_ns)). Timing never changes which
    /// merges run or in what order.
    #[must_use]
    pub fn timed(mut self) -> Self {
        self.fold_ns = Some(0);
        self
    }

    /// Nanoseconds spent merging since the last call (0 unless
    /// [`timed`](Self::timed)).
    pub fn take_fold_ns(&mut self) -> u64 {
        self.fold_ns.as_mut().map_or(0, std::mem::take)
    }

    /// The grid range of the round in flight: the shards a driver should
    /// run next. Empty once the folder is [finished](Self::finished).
    pub fn round_range(&self) -> Range<usize> {
        self.round_start..self.round_end().min(self.stop_bound)
    }

    /// Whether every state that will ever fold has folded.
    pub fn finished(&self) -> bool {
        self.next >= self.stop_bound
    }

    /// Shards per round (at least 1).
    pub fn shards_per_round(&self) -> usize {
        self.shards_per_round
    }

    /// Length of the folded grid prefix.
    pub fn folded(&self) -> usize {
        self.next
    }

    /// One past the last grid index that will fold: the grid length until
    /// the rule stops the campaign, the stop boundary afterwards.
    pub fn stop_bound(&self) -> usize {
        self.stop_bound
    }

    /// Consumption so far.
    pub fn stats(&self) -> CampaignStats {
        self.stats
    }

    /// Hands the state of grid shard `grid_idx` to the fold. It folds as
    /// soon as every lower index has; until then it waits in the pending
    /// map. An index that is already folded or already pending (a replay:
    /// shard states are pure functions of the campaign, so a copy is
    /// bit-identical), or one at or past the stop bound, is dropped.
    ///
    /// Completing a round consults the rule (unless it was the last
    /// round) with a [`Checkpoint`] carrying `recorder`; a stop moves the
    /// stop bound to the round boundary and drops every pending state.
    pub fn ingest(&mut self, grid_idx: usize, state: S, recorder: &dyn Recorder) -> Ingest {
        if grid_idx < self.next || grid_idx >= self.stop_bound {
            return Ingest::Waiting;
        }
        if grid_idx != self.next {
            self.pending.entry(grid_idx).or_insert(state);
            return Ingest::Waiting;
        }
        let (mut folded, mut round_done) = (0usize, false);
        let mut ready = Some(state);
        while let Some(state) = ready {
            self.fold(state);
            folded += 1;
            if self.next == self.round_end() {
                round_done = true;
                self.end_round(recorder);
            }
            ready = self.pending.remove(&self.next);
        }
        if round_done {
            Ingest::RoundDone {
                folded,
                done: self.finished(),
            }
        } else {
            Ingest::Folded(folded)
        }
    }

    /// The folded outcome. `empty` builds the sink of a campaign that
    /// folded nothing (an empty grid).
    pub fn finish(self, empty: impl FnOnce() -> S) -> CampaignOutcome<S> {
        debug_assert!(
            self.pending.is_empty(),
            "a finished fold holds no pending state"
        );
        CampaignOutcome {
            sink: self.acc.unwrap_or_else(empty),
            stats: self.stats,
        }
    }

    fn round_end(&self) -> usize {
        self.round_start
            .saturating_add(self.shards_per_round)
            .min(self.grid.len())
    }

    fn fold(&mut self, state: S) {
        let t0 = self.fold_ns.map(|_| Instant::now());
        match &mut self.acc {
            None => self.acc = Some(state),
            Some(acc) => acc.merge(state),
        }
        if let (Some(t0), Some(total)) = (t0, self.fold_ns.as_mut()) {
            *total += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
        let shard = self.grid[self.next];
        match shard.population() {
            Population::Fixed => self.stats.fixed_traces += shard.count(),
            Population::Random => self.stats.random_traces += shard.count(),
        }
        self.next += 1;
    }

    fn end_round(&mut self, recorder: &dyn Recorder) {
        self.stats.rounds += 1;
        self.round_start = self.next;
        if self.stats.rounds >= self.stats.planned_rounds {
            return;
        }
        let checkpoint = Checkpoint {
            sink: self.acc.as_ref().expect("a completed round folded a state"),
            round: self.stats.rounds,
            planned_rounds: self.stats.planned_rounds,
            fixed_traces: self.stats.fixed_traces,
            random_traces: self.stats.random_traces,
            planned_fixed: self.planned_fixed,
            planned_random: self.planned_random,
            recorder,
        };
        if self.rule.should_stop(&checkpoint) {
            self.stats.stopped_early = true;
            self.stop_bound = self.next;
            self.pending.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{EnergyBatch, TraceSink, TRACES_PER_SHARD};
    use polaris_obs::NullRecorder;

    /// A sink recording the grid indices folded into it, in fold order.
    #[derive(Debug, Default, PartialEq)]
    struct Trail(Vec<usize>);

    impl TraceSink for Trail {
        fn record_batch(&mut self, _pop: Population, _batch: EnergyBatch<'_>) {}
    }

    impl MergeableSink for Trail {
        fn merge(&mut self, other: Self) {
            self.0.extend(other.0);
        }
    }

    /// A campaign whose grid has exactly `n` shards.
    fn config(n: usize) -> CampaignConfig {
        CampaignConfig::new(
            n.div_ceil(2) * TRACES_PER_SHARD,
            n / 2 * TRACES_PER_SHARD,
            1,
        )
    }

    /// Stops at the first checkpoint of round `.0` or later.
    struct StopAt(usize);

    impl<S> StoppingRule<S> for StopAt {
        fn should_stop(&mut self, c: &Checkpoint<'_, S>) -> bool {
            c.round >= self.0
        }
    }

    fn folder(
        n: usize,
        spr: usize,
        rule: impl StoppingRule<Trail> + 'static,
    ) -> RoundFolder<'static, Trail> {
        RoundFolder::new(&config(n), spr, Box::new(rule))
    }

    #[test]
    fn out_of_order_states_fold_in_grid_order() {
        let mut f = folder(6, 3, NeverStop);
        assert_eq!(f.round_range(), 0..3);
        assert_eq!(f.ingest(2, Trail(vec![2]), &NullRecorder), Ingest::Waiting);
        assert_eq!(f.ingest(1, Trail(vec![1]), &NullRecorder), Ingest::Waiting);
        assert_eq!(
            f.ingest(0, Trail(vec![0]), &NullRecorder),
            Ingest::RoundDone {
                folded: 3,
                done: false
            }
        );
        assert_eq!(f.round_range(), 3..6);
        assert_eq!(f.ingest(4, Trail(vec![4]), &NullRecorder), Ingest::Waiting);
        assert_eq!(
            f.ingest(3, Trail(vec![3]), &NullRecorder),
            Ingest::Folded(2)
        );
        assert_eq!(
            f.ingest(5, Trail(vec![5]), &NullRecorder),
            Ingest::RoundDone {
                folded: 1,
                done: true
            }
        );
        assert!(f.finished());
        assert!(f.round_range().is_empty());
        let outcome = f.finish(Trail::default);
        assert_eq!(outcome.sink, Trail((0..6).collect()));
        assert_eq!(outcome.stats.rounds, 2);
        assert_eq!(outcome.stats.planned_rounds, 2);
        assert_eq!(outcome.stats.traces_used(), 6 * TRACES_PER_SHARD);
    }

    #[test]
    fn replayed_and_duplicate_indices_are_dropped() {
        let mut f = folder(4, usize::MAX, NeverStop);
        assert_eq!(
            f.ingest(0, Trail(vec![0]), &NullRecorder),
            Ingest::Folded(1)
        );
        // Already folded.
        assert_eq!(
            f.ingest(0, Trail(vec![100]), &NullRecorder),
            Ingest::Waiting
        );
        // Already pending: the first copy stays.
        assert_eq!(f.ingest(2, Trail(vec![2]), &NullRecorder), Ingest::Waiting);
        assert_eq!(
            f.ingest(2, Trail(vec![200]), &NullRecorder),
            Ingest::Waiting
        );
        // Past the grid.
        assert_eq!(f.ingest(4, Trail(vec![4]), &NullRecorder), Ingest::Waiting);
        assert_eq!(
            f.ingest(1, Trail(vec![1]), &NullRecorder),
            Ingest::Folded(2)
        );
        assert_eq!(
            f.ingest(3, Trail(vec![3]), &NullRecorder),
            Ingest::RoundDone {
                folded: 1,
                done: true
            }
        );
        assert_eq!(f.finish(Trail::default).sink, Trail(vec![0, 1, 2, 3]));
    }

    #[test]
    fn a_stop_clears_pending_and_drops_later_ingests() {
        let mut f = folder(8, 2, StopAt(2));
        // The rest of round 2 and part of round 3 arrive early and wait.
        for i in [5usize, 3, 2] {
            assert_eq!(f.ingest(i, Trail(vec![i]), &NullRecorder), Ingest::Waiting);
        }
        assert_eq!(
            f.ingest(0, Trail(vec![0]), &NullRecorder),
            Ingest::Folded(1),
            "index 1 is still missing"
        );
        // Folding 1 completes round 1, then 2 and 3 complete round 2, where
        // the rule stops: the pending 5 is dropped unfolded.
        assert_eq!(
            f.ingest(1, Trail(vec![1]), &NullRecorder),
            Ingest::RoundDone {
                folded: 3,
                done: true
            }
        );
        assert!(f.finished());
        assert_eq!(f.stop_bound(), 4);
        assert!(f.pending.is_empty(), "a stop clears pending");
        assert_eq!(f.ingest(6, Trail(vec![6]), &NullRecorder), Ingest::Waiting);
        assert_eq!(f.ingest(4, Trail(vec![4]), &NullRecorder), Ingest::Waiting);
        assert!(f.pending.is_empty(), "nothing past the stop bound parks");
        let outcome = f.finish(Trail::default);
        assert_eq!(outcome.sink, Trail(vec![0, 1, 2, 3]));
        assert_eq!(
            outcome.stats,
            CampaignStats {
                fixed_traces: 2 * TRACES_PER_SHARD,
                random_traces: 2 * TRACES_PER_SHARD,
                rounds: 2,
                planned_rounds: 4,
                stopped_early: true,
            }
        );
    }

    #[test]
    fn an_empty_grid_is_finished_from_the_start() {
        let f = folder(0, 4, NeverStop);
        assert!(f.finished());
        assert!(f.round_range().is_empty());
        let outcome = f.finish(|| Trail(vec![9]));
        assert_eq!(outcome.sink, Trail(vec![9]));
        assert_eq!(outcome.stats, CampaignStats::default());
    }
}
