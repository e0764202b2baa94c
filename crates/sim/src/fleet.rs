//! Campaign jobs: one value describing a campaign, and the one in-process
//! scheduler that runs any number of them on a shared worker pool.
//!
//! A [`FleetJob`] carries everything a campaign run needs: netlist, power
//! model, configuration, sink factory, stopping rule and round size.
//! [`run_fleet`] compiles one simulation engine per job and lets a single
//! pool of `std::thread::scope` workers pull **shards of any job**, so
//! shards of different campaigns — the cognition loop, the table harnesses,
//! a manifest of designs — interleave on the same threads.
//! [`FleetJob::run`], which every `run_campaign_*` entry point reduces to,
//! is `run_fleet` on a fleet of one. [`FleetJob::run_shards`] runs a bare
//! range of the grid into per-shard states, the primitive of distributed
//! workers.
//!
//! Both take their recorder as the last argument of the run call; the
//! fleet hands it on to each job's [`RoundFolder`], whose checkpoints carry
//! it to the stopping rule.
//!
//! # Determinism contract
//!
//! Workers hand every finished shard to the job's own
//! [`RoundFolder`], which folds it **in the job's canonical grid order** and
//! consults the job's [`StoppingRule`] at the job's own round boundaries,
//! on checkpoint-folded state only. Scheduling therefore changes nothing
//! but timing:
//!
//! * adaptive jobs stop at the same round mid-fleet as they do alone;
//! * only the current round of a job is ever handed out (the rule must see
//!   the folded round before more of that job's grid is scheduled), so no
//!   shard past a stop boundary is simulated;
//! * a fleet hands out a job's shards at most a fixed window ahead of its
//!   folded prefix — one shard per pool thread, or two and two more in a
//!   round whose blocks pair shards — so a job holds at most that many
//!   private sinks besides its accumulator, whatever the length of its
//!   rounds.
//!
//! Workers take *work units* of one shard, or of two
//! shards of one population next to each other in trace order, which the
//! engine simulates as one 8-word block; each shard keeps its own sink,
//! its own fold slot and its own [`Payload::ShardSpan`].
//!
//! Every job's [`CampaignOutcome`] is therefore **byte-identical** to its
//! standalone run — at any worker count and in any job mix.

use std::ops::Range;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use polaris_netlist::{Netlist, NetlistError};
use polaris_obs::{Payload, Recorder};

use crate::campaign::{
    run_sharded_with, shard_grid, work_units, BlockScratch, CampaignConfig, CampaignOutcome,
    Engine, MergeableSink, NeverStop, Parallelism, StoppingRule, WorkUnit,
};
use crate::power::PowerModel;
use crate::round::{CampaignStats, Ingest, RoundFolder};

/// Factory for the private per-shard sinks of one job.
type SinkFactory<'a, S> = Box<dyn Fn() -> S + Send + Sync + 'a>;

/// One campaign: a (netlist, power model, configuration, sink factory)
/// tuple plus the stopping rule and round size of adaptive jobs. Run it
/// alone with [`FleetJob::run`], or with others through [`run_fleet`].
pub struct FleetJob<'a, S> {
    netlist: &'a Netlist,
    power: &'a PowerModel,
    config: CampaignConfig,
    factory: SinkFactory<'a, S>,
    rule: Box<dyn StoppingRule<S> + 'a>,
    shards_per_round: usize,
}

impl<'a, S: MergeableSink + Default + 'a> FleetJob<'a, S> {
    /// A non-adaptive job: the whole shard grid runs as one round (no
    /// checkpoint work), exactly like
    /// [`run_campaign_parallel`](crate::campaign::run_campaign_parallel).
    pub fn new(netlist: &'a Netlist, power: &'a PowerModel, config: CampaignConfig) -> Self {
        FleetJob {
            netlist,
            power,
            config,
            factory: Box::new(S::default),
            rule: Box::new(NeverStop),
            shards_per_round: usize::MAX,
        }
    }

    /// Attaches a stopping rule evaluated every `shards_per_round` shards —
    /// the adaptive-job variant. With the same rule state and round size the
    /// job's outcome (sink, stats, stop round) is byte-identical to
    /// [`run_campaign_adaptive`](crate::campaign::run_campaign_adaptive).
    pub fn with_rule<R>(mut self, rule: R, shards_per_round: usize) -> Self
    where
        R: StoppingRule<S> + 'a,
    {
        self.rule = Box::new(rule);
        self.shards_per_round = shards_per_round.max(1);
        self
    }

    /// Uses `factory` instead of `S::default()` for the job's private
    /// per-shard sinks — for sinks whose empty state carries configuration
    /// (a gate-pair list) or preallocated buffers. The factory must produce
    /// *empty* sinks, equivalent to each other: it configures shape, it
    /// never seeds samples. It also builds the outcome of an empty grid.
    pub fn with_sink_factory<F>(mut self, factory: F) -> Self
    where
        F: Fn() -> S + Send + Sync + 'a,
    {
        self.factory = Box::new(factory);
        self
    }

    /// The job's campaign configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// The job's design.
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// The job's power model.
    pub fn power(&self) -> &'a PowerModel {
        self.power
    }

    /// Executes the grid entries `shards` (see [`shard_grid`]) of the job's
    /// campaign, each into its **own** fresh sink from the job's factory,
    /// and returns the per-shard sinks in grid order. The job's stopping
    /// rule plays no part: a bare shard range has no rounds.
    ///
    /// The states are deliberately *not* folded here: the Chan-et-al
    /// moment merges are floating-point and therefore not associative, so
    /// only a strictly ascending one-shard-at-a-time fold over the whole
    /// grid reproduces [`FleetJob::run`] bit for bit. Keeping shard
    /// granularity lets a central merge replay exactly that fold however
    /// the grid was partitioned across workers.
    ///
    /// An enabled `recorder` gets one [`Payload::ShardSpan`] per shard with
    /// `job = 0`, `round = 0` and the shard's absolute grid index. The
    /// states are unchanged by recording.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the design cannot be
    /// levelized.
    ///
    /// # Panics
    ///
    /// Panics if `shards` reaches past the end of the grid.
    pub fn run_shards(
        &self,
        parallelism: Parallelism,
        shards: Range<usize>,
        recorder: &dyn Recorder,
    ) -> Result<Vec<S>, NetlistError> {
        let engine = Engine::new(
            self.netlist,
            self.power,
            &self.config,
            parallelism.lane_words(),
        )?;
        let grid = shard_grid(&self.config);
        assert!(
            shards.end <= grid.len() && shards.start <= shards.end,
            "shard range {shards:?} outside the {}-shard grid",
            grid.len()
        );
        let tracing = recorder.enabled();
        let units = work_units(
            &grid,
            shards,
            parallelism.lane_words(),
            parallelism.threads(),
        );
        let mut scratch: Vec<BlockScratch> = std::iter::repeat_with(BlockScratch::default)
            .take(parallelism.threads())
            .collect();
        let mut states: Vec<(usize, S)> =
            run_sharded_with(units.len(), parallelism, &mut scratch, |scratch, u| {
                let ran = engine.run_unit(units[u], &*self.factory, tracing, scratch);
                units[u]
                    .shards()
                    .zip(ran)
                    .map(|((grid_index, shard), (sink, timing))| {
                        if let Some(timing) = timing {
                            recorder.record(timing.span(0, 0, grid_index, shard));
                        }
                        (grid_index, sink)
                    })
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
        states.sort_by_key(|&(grid_index, _)| grid_index);
        Ok(states.into_iter().map(|(_, sink)| sink).collect())
    }

    /// Runs the job alone: [`run_fleet`] on a fleet of one. Its outcome
    /// and its trace are those of a one-job fleet.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the design cannot be
    /// levelized.
    ///
    /// # Panics
    ///
    /// Propagates worker panics.
    pub fn run(
        self,
        parallelism: Parallelism,
        recorder: &dyn Recorder,
    ) -> Result<CampaignOutcome<S>, NetlistError> {
        let mut outcomes = run_fleet(vec![self], parallelism, recorder)?;
        Ok(outcomes.pop().expect("a fleet of one has one outcome"))
    }
}

/// Scheduler state of one job (behind the queue lock): which of its work
/// units may be handed out next.
struct Cursor {
    /// The work units of the round in flight, in hand-out order.
    units: Vec<WorkUnit>,
    /// Index into `units` of the next unit to hand out.
    next: usize,
    /// How far past the folded prefix a unit may reach to be handed out,
    /// so the job holds at most that many private sinks.
    window: usize,
    /// The job's folded prefix, as last reported by its folder.
    folded: usize,
    /// 1-based number of the round in flight.
    round: usize,
}

impl Cursor {
    /// `folder`'s round in flight, cut into work units for a pool of
    /// `threads` workers at `lane_words`. The window is one shard per
    /// worker when every unit is one shard. When units pair shards, it is
    /// two per worker and two more: a unit's partner lies two entries past
    /// its first, and the previous unit's partner may still wait for the
    /// fold, so a worker that finishes the lowest unit can always take the
    /// next.
    fn round<S: MergeableSink>(
        folder: &RoundFolder<'_, S>,
        lane_words: usize,
        threads: usize,
    ) -> Cursor {
        let units = work_units(folder.grid(), folder.round_range(), lane_words, threads);
        let paired = units.iter().any(|u| u.len() > 1);
        Cursor {
            units,
            next: 0,
            window: if paired { 2 * threads + 2 } else { threads },
            folded: folder.folded(),
            round: folder.stats().rounds + 1,
        }
    }

    /// Shards in the round in flight.
    fn shards(&self) -> usize {
        self.units.iter().map(|u| u.len()).sum()
    }
}

struct FleetQueue {
    cursors: Vec<Cursor>,
    remaining_jobs: usize,
    /// Set when a worker panicked outside the lock — wakes waiters so the
    /// scope can propagate the panic instead of deadlocking on the condvar.
    poisoned: bool,
    /// The pool's lane width and thread count, which decide how each new
    /// round is cut into work units.
    lane_words: usize,
    threads: usize,
}

impl FleetQueue {
    /// Hands out the next work unit of the first job whose next unit lies
    /// wholly within its window of its folded prefix.
    fn pop(&mut self) -> Option<(usize, WorkUnit)> {
        let (job, cursor) = self.cursors.iter_mut().enumerate().find(|(_, c)| {
            c.units
                .get(c.next)
                .is_some_and(|u| u.last() < c.folded + c.window)
        })?;
        cursor.next += 1;
        Some((job, cursor.units[cursor.next - 1]))
    }

    /// Shards of in-flight rounds not yet handed out.
    fn depth(&self) -> usize {
        self.cursors
            .iter()
            .flat_map(|c| &c.units[c.next..])
            .map(|u| u.len())
            .sum()
    }

    /// Books what an ingest did to `job`'s `folder`: the new folded prefix
    /// and, when a round completed, the next round or the job's retirement.
    /// Returns whether waiting workers may now find work.
    ///
    /// Called with the job's folder lock held, so a job's ingests are booked
    /// in the order they happened and its folded prefix never moves back.
    fn book<S: MergeableSink>(
        &mut self,
        job: usize,
        ingest: Ingest,
        folder: &RoundFolder<'_, S>,
    ) -> bool {
        let cursor = &mut self.cursors[job];
        cursor.folded = folder.folded();
        match ingest {
            Ingest::Waiting => false,
            Ingest::Folded(_) => true,
            Ingest::RoundDone { done: false, .. } => {
                *cursor = Cursor::round(folder, self.lane_words, self.threads);
                true
            }
            Ingest::RoundDone { done: true, .. } => {
                self.remaining_jobs -= 1;
                self.remaining_jobs == 0
            }
        }
    }
}

struct FleetShared<'a, S> {
    queue: Mutex<FleetQueue>,
    work_ready: Condvar,
    /// Each job's fold, behind its own lock so queue pops never wait on a
    /// merge or a rule. Lock order: a folder, then the queue; nothing
    /// takes a folder lock while holding the queue lock.
    folders: Vec<Mutex<RoundFolder<'a, S>>>,
    engines: Vec<Engine<'a>>,
    factories: Vec<SinkFactory<'a, S>>,
    /// When the pool started: every job's campaign wall time runs from here.
    started: Instant,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // The `poisoned` flag (plus scope join) is the panic protocol; std's
    // mutex poisoning would only turn one panic into many.
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Marks a worker panic in the shared state on unwind so waiting workers
/// exit (and the scope can re-raise the panic) instead of sleeping forever.
struct PanicSentry<'g> {
    queue: &'g Mutex<FleetQueue>,
    work_ready: &'g Condvar,
    armed: bool,
}

impl Drop for PanicSentry<'_> {
    fn drop(&mut self) {
        if self.armed {
            lock(self.queue).poisoned = true;
            self.work_ready.notify_all();
        }
    }
}

/// The shared worker loop: take a shard of *any* job, simulate it into a
/// fresh private sink, and hand it to the job's folder. The ingest that
/// completes a round opens the job's next round (or retires the job). The
/// worker's one set of block buffers serves every shard it takes, of any
/// job, and is freed when it exits.
///
/// With an enabled `recorder` the loop reports, per shard, the queue state
/// it observed ([`Payload::QueueDepth`]) and the shard's phase-split timing
/// ([`Payload::ShardSpan`], stamped with its job and round); per round, the
/// job's merge time ([`Payload::FoldSpan`]); per job, its
/// [`Payload::CampaignEnd`] once its folder finishes; and one
/// [`Payload::WorkerSummary`] when the worker exits. Recording never
/// touches scheduling or fold state, so outcomes stay byte-identical to the
/// untraced fleet.
fn worker_loop<S: MergeableSink>(shared: &FleetShared<'_, S>, recorder: &dyn Recorder) {
    let tracing = recorder.enabled();
    let t_loop = tracing.then(Instant::now);
    let mut items = 0u64;
    let mut busy_ns = 0u64;
    let mut scratch = BlockScratch::default();
    'worker: loop {
        let (job, unit, round, queue_obs) = {
            let mut queue = lock(&shared.queue);
            loop {
                if queue.poisoned || queue.remaining_jobs == 0 {
                    break 'worker;
                }
                if let Some((job, unit)) = queue.pop() {
                    let obs = tracing.then(|| (queue.depth() as u64, queue.remaining_jobs as u64));
                    break (job, unit, queue.cursors[job].round, obs);
                }
                queue = shared
                    .work_ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        if let Some((depth, jobs_remaining)) = queue_obs {
            // One observation per shard, as if they were handed out in turn.
            for later in (0..unit.len() as u64).rev() {
                recorder.record(Payload::QueueDepth {
                    depth: depth + later,
                    jobs_remaining,
                });
            }
        }

        let mut sentry = PanicSentry {
            queue: &shared.queue,
            work_ready: &shared.work_ready,
            armed: true,
        };
        let factory = &*shared.factories[job];
        let ran = shared.engines[job].run_unit(unit, factory, tracing, &mut scratch);
        let t_fold = tracing.then(Instant::now);
        for ((grid_idx, shard), (sink, timing)) in unit.shards().zip(ran) {
            if let Some(timing) = timing {
                items += 1;
                busy_ns += timing.wall_ns;
                recorder.record(timing.span(job, round, grid_idx, shard));
            }
            let mut folder = lock(&shared.folders[job]);
            let ingest = folder.ingest(grid_idx, sink, recorder);
            let mut queue = lock(&shared.queue);
            if let (true, Ingest::RoundDone { done, .. }) = (tracing, ingest) {
                recorder.record(Payload::FoldSpan {
                    round: round as u64,
                    shards: queue.cursors[job].shards() as u64,
                    wall_ns: folder.take_fold_ns(),
                });
                if done {
                    recorder.record(campaign_end(folder.stats(), shared.started));
                }
            }
            if queue.book(job, ingest, &folder) {
                shared.work_ready.notify_all();
            }
        }
        if let Some(t0) = t_fold {
            busy_ns += elapsed_ns(t0);
        }
        sentry.armed = false;
    }
    if let Some(t0) = t_loop {
        recorder.record(Payload::WorkerSummary {
            items,
            busy_ns,
            wall_ns: elapsed_ns(t0),
        });
    }
}

/// Nanoseconds since `t0`, saturated.
fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The [`Payload::CampaignEnd`] of a job that finished with `stats`, its
/// campaign having started at `started`.
fn campaign_end(stats: CampaignStats, started: Instant) -> Payload {
    Payload::CampaignEnd {
        rounds: stats.rounds as u64,
        stopped_early: stats.stopped_early,
        fixed_traces: stats.fixed_traces as u64,
        random_traces: stats.random_traces as u64,
        wall_ns: elapsed_ns(started),
    }
}

/// Executes every job of a fleet on one shared worker pool and returns the
/// per-job outcomes **in job order**.
///
/// Shards of different jobs interleave freely on the pool's threads; each
/// job's [`RoundFolder`] folds them in its canonical shard order at its own
/// round boundaries, so every outcome is byte-identical to the job's
/// standalone [`FleetJob::run`] — at any thread count and in any job mix.
/// A worker merges into a job's folder under that job's own lock; only
/// handing out shards holds the shared queue lock.
///
/// `parallelism` caps the pool; a sequential budget (or a fleet with at
/// most one concurrently runnable shard) executes inline on the calling
/// thread.
///
/// An enabled `recorder` gets one [`Payload::CampaignStart`] per job, then
/// the worker events (see `worker_loop`): per-shard queue depth and
/// [`Payload::ShardSpan`], one [`Payload::FoldSpan`] per job round, one
/// [`Payload::CampaignEnd`] per job, and one worker-utilization summary per
/// pool thread; every [`Checkpoint`](crate::round::Checkpoint) hands it to
/// the job's stopping rule. Recording sits strictly outside the fold path,
/// so outcomes are byte-identical with and without it, at every thread
/// count and lane width.
///
/// # Errors
///
/// Returns the first [`NetlistError`] hit while compiling a job's design
/// (no shard of any job runs in that case).
///
/// # Panics
///
/// Propagates worker panics.
pub fn run_fleet<S>(
    jobs: Vec<FleetJob<'_, S>>,
    parallelism: Parallelism,
    recorder: &dyn Recorder,
) -> Result<Vec<CampaignOutcome<S>>, NetlistError>
where
    S: MergeableSink + Default,
{
    let tracing = recorder.enabled();
    // Engines borrow the configs, so the configs move out of the jobs first.
    let mut configs = Vec::with_capacity(jobs.len());
    let mut parts = Vec::with_capacity(jobs.len());
    for job in jobs {
        configs.push(job.config);
        parts.push((
            job.netlist,
            job.power,
            job.factory,
            job.rule,
            job.shards_per_round,
        ));
    }
    let mut engines = Vec::with_capacity(configs.len());
    let mut factories = Vec::with_capacity(configs.len());
    let mut folders = Vec::with_capacity(configs.len());
    let mut gates = Vec::with_capacity(configs.len());
    for ((netlist, power, factory, rule, shards_per_round), config) in
        parts.into_iter().zip(&configs)
    {
        engines.push(Engine::new(
            netlist,
            power,
            config,
            parallelism.lane_words(),
        )?);
        factories.push(factory);
        let folder = RoundFolder::new(config, shards_per_round, rule);
        folders.push(if tracing { folder.timed() } else { folder });
        gates.push(netlist.gate_count());
    }
    // Pool size: per job at most one round — `shards_per_round` shards — is
    // ever runnable, so no thread beyond the fleet's peak runnable-shard
    // count can find work.
    let concurrency: usize = folders.iter().map(|f| f.round_range().len()).sum();
    let threads = parallelism.threads().min(concurrency.max(1));
    let lane_words = parallelism.lane_words();
    let started = Instant::now();
    if tracing {
        for ((folder, config), gates) in folders.iter().zip(&configs).zip(gates) {
            recorder.record(Payload::CampaignStart {
                gates: gates as u64,
                planned_fixed: config.n_fixed as u64,
                planned_random: config.n_random as u64,
                threads: parallelism.threads() as u64,
                lane_words: lane_words as u64,
                shards: folder.grid().len() as u64,
                planned_rounds: folder.stats().planned_rounds as u64,
            });
        }
        // A job with an empty grid is finished before any shard runs.
        for folder in folders.iter().filter(|f| f.finished()) {
            recorder.record(campaign_end(folder.stats(), started));
        }
    }
    let cursors: Vec<Cursor> = folders
        .iter()
        .map(|f| Cursor::round(f, lane_words, threads))
        .collect();
    let remaining_jobs = cursors.iter().filter(|c| !c.units.is_empty()).count();
    let shared = FleetShared {
        queue: Mutex::new(FleetQueue {
            cursors,
            remaining_jobs,
            poisoned: false,
            lane_words,
            threads,
        }),
        work_ready: Condvar::new(),
        folders: folders.into_iter().map(Mutex::new).collect(),
        engines,
        factories,
        started,
    };
    if remaining_jobs > 0 {
        if threads <= 1 {
            // Inline path: a single worker never waits on the condvar.
            worker_loop(&shared, recorder);
        } else {
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| worker_loop(&shared, recorder));
                }
            });
        }
    }

    let queue = shared
        .queue
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    assert!(
        !queue.poisoned && queue.remaining_jobs == 0,
        "fleet pool exited with unfinished jobs"
    );
    Ok(shared
        .folders
        .into_iter()
        .zip(&shared.factories)
        .map(|(folder, factory)| {
            folder
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .finish(factory)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{
        collect_gate_samples_parallel, run_campaign_adaptive, run_campaign_parallel, CampaignStats,
        Checkpoint, GateSamples, Population, TraceSink, DEFAULT_SHARDS_PER_ROUND, TRACES_PER_SHARD,
    };
    use polaris_netlist::generators;
    use polaris_obs::NullRecorder;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The grid ranges a job's folder hands out, round by round, when every
    /// shard of each round is ingested in order.
    fn job_rounds(n_shards: usize, shards_per_round: usize) -> Vec<Range<usize>> {
        let config = CampaignConfig::new(
            n_shards.div_ceil(2) * TRACES_PER_SHARD,
            n_shards / 2 * TRACES_PER_SHARD,
            1,
        );
        let mut folder = RoundFolder::new(&config, shards_per_round, Box::new(NeverStop));
        let mut rounds = Vec::new();
        while !folder.round_range().is_empty() {
            let round = folder.round_range();
            for i in round.clone() {
                folder.ingest(i, CountProbe::default(), &NullRecorder);
            }
            rounds.push(round);
        }
        rounds
    }

    #[test]
    fn job_rounds_tile_the_grid() {
        for (n, spr) in [
            (0usize, 4usize),
            (1, 4),
            (7, 2),
            (8, 4),
            (9, 4),
            (5, usize::MAX),
        ] {
            let rounds = job_rounds(n, spr);
            let mut next = 0usize;
            for r in &rounds {
                assert_eq!(r.start, next);
                assert!(r.end > r.start && r.end - r.start <= spr.max(1));
                next = r.end;
            }
            assert_eq!(next, n);
        }
        assert!(job_rounds(0, 1).is_empty());
        // spr == 0 is clamped to 1, matching the standalone driver.
        assert_eq!(job_rounds(3, 0).len(), 3);
    }

    /// The first grid index of the unit `queue` hands out next, if any.
    fn pop_first(queue: &mut FleetQueue) -> Option<(usize, usize)> {
        queue
            .pop()
            .map(|(job, unit)| (job, unit.shards().next().expect("a unit has a shard").0))
    }

    /// One job of one round, `round`, run by `threads` workers at `lane_words`.
    fn one_job_queue(
        folder: &RoundFolder<'_, CountProbe>,
        lane_words: usize,
        threads: usize,
    ) -> FleetQueue {
        FleetQueue {
            cursors: vec![Cursor::round(folder, lane_words, threads)],
            remaining_jobs: 1,
            poisoned: false,
            lane_words,
            threads,
        }
    }

    #[test]
    fn a_late_booking_never_moves_a_folded_prefix_back() {
        // One job, one six-shard round, a pool window of three.
        let config = CampaignConfig::new(3 * TRACES_PER_SHARD, 3 * TRACES_PER_SHARD, 1);
        let mut folder = RoundFolder::new(&config, usize::MAX, Box::new(NeverStop));
        assert_eq!(folder.round_range(), 0..6);
        let mut queue = one_job_queue(&folder, 1, 3);
        for want in 0..3 {
            assert_eq!(pop_first(&mut queue), Some((0, want)));
        }
        assert_eq!(queue.pop(), None, "the window is full");
        // Shard 1 arrives first and parks; its booking comes last of all.
        let late = folder.ingest(1, CountProbe::default(), &NullRecorder);
        assert_eq!(late, Ingest::Waiting);
        let ingest = folder.ingest(0, CountProbe::default(), &NullRecorder);
        queue.book(0, ingest, &folder);
        assert_eq!(pop_first(&mut queue), Some((0, 3)));
        assert_eq!(pop_first(&mut queue), Some((0, 4)));
        for i in 2..5 {
            let ingest = folder.ingest(i, CountProbe::default(), &NullRecorder);
            queue.book(0, ingest, &folder);
        }
        queue.book(0, late, &folder);
        assert_eq!(
            pop_first(&mut queue),
            Some((0, 5)),
            "the job's last shard is handed out"
        );
        let ingest = folder.ingest(5, CountProbe::default(), &NullRecorder);
        assert!(queue.book(0, ingest, &folder), "the fleet is done");
        assert_eq!(queue.remaining_jobs, 0);
    }

    #[test]
    fn heterogeneous_fleet_matches_standalone_runs() {
        let c17 = generators::iscas_c17();
        let c432 = generators::iscas_like("c432", 1, 5).unwrap();
        let model = PowerModel::default();
        let cfg_a = CampaignConfig::new(700, 900, 21);
        let cfg_b = CampaignConfig::new(450, 333, 9);

        let solo_a: GateSamples =
            run_campaign_parallel(&c17, &model, &cfg_a, Parallelism::new(2)).unwrap();
        let solo_b: GateSamples =
            run_campaign_parallel(&c432, &model, &cfg_b, Parallelism::new(2)).unwrap();

        for threads in [1usize, 2, 3, 8] {
            let jobs = vec![
                FleetJob::<GateSamples>::new(&c17, &model, cfg_a.clone()),
                FleetJob::<GateSamples>::new(&c432, &model, cfg_b.clone()),
            ];
            let outcomes = run_fleet(jobs, Parallelism::new(threads), &NullRecorder).unwrap();
            assert_eq!(outcomes.len(), 2);
            for id in c17.ids() {
                assert_eq!(outcomes[0].sink.fixed(id), solo_a.fixed(id), "{threads}");
                assert_eq!(outcomes[0].sink.random(id), solo_a.random(id), "{threads}");
            }
            for id in c432.ids() {
                assert_eq!(outcomes[1].sink.fixed(id), solo_b.fixed(id), "{threads}");
                assert_eq!(outcomes[1].sink.random(id), solo_b.random(id), "{threads}");
            }
            assert!(!outcomes[0].stats.stopped_early);
            assert_eq!(outcomes[0].stats.fixed_traces, 700);
            assert_eq!(outcomes[0].stats.random_traces, 900);
            assert_eq!(
                outcomes[0].stats.rounds, 1,
                "non-adaptive jobs run as one round"
            );
        }
    }

    /// Test rule: stop unconditionally after a fixed number of rounds.
    struct StopAfter(usize);

    impl<S> StoppingRule<S> for StopAfter {
        fn should_stop(&mut self, c: &Checkpoint<'_, S>) -> bool {
            c.round >= self.0
        }
    }

    #[test]
    fn adaptive_job_stops_at_the_standalone_round_mid_fleet() {
        let c17 = generators::iscas_c17();
        let model = PowerModel::default();
        let adaptive_cfg = CampaignConfig::new(1200, 1200, 21);
        let filler_cfg = CampaignConfig::new(600, 600, 3);

        let solo: CampaignOutcome<GateSamples> = run_campaign_adaptive(
            &c17,
            &model,
            &adaptive_cfg,
            Parallelism::new(2),
            2,
            &mut StopAfter(2),
        )
        .unwrap();
        assert!(solo.stats.stopped_early);

        for threads in [1usize, 2, 8] {
            let jobs = vec![
                FleetJob::<GateSamples>::new(&c17, &model, filler_cfg.clone()),
                FleetJob::new(&c17, &model, adaptive_cfg.clone()).with_rule(StopAfter(2), 2),
            ];
            let outcomes = run_fleet(jobs, Parallelism::new(threads), &NullRecorder).unwrap();
            assert_eq!(outcomes[1].stats, solo.stats, "{threads} threads");
            for id in c17.ids() {
                assert_eq!(outcomes[1].sink.fixed(id), solo.sink.fixed(id));
                assert_eq!(outcomes[1].sink.random(id), solo.sink.random(id));
            }
        }
    }

    #[test]
    fn empty_and_one_sided_jobs_resolve() {
        let c17 = generators::iscas_c17();
        let model = PowerModel::default();
        let jobs = vec![
            FleetJob::<GateSamples>::new(&c17, &model, CampaignConfig::new(0, 0, 1)),
            FleetJob::<GateSamples>::new(&c17, &model, CampaignConfig::new(0, 300, 4)),
        ];
        let outcomes = run_fleet(jobs, Parallelism::new(4), &NullRecorder).unwrap();
        assert_eq!(outcomes[0].stats, CampaignStats::default());
        assert_eq!(outcomes[0].sink.gate_count(), 0);
        assert_eq!(outcomes[1].stats.random_traces, 300);
        let solo: GateSamples = run_campaign_parallel(
            &c17,
            &model,
            &CampaignConfig::new(0, 300, 4),
            Parallelism::new(4),
        )
        .unwrap();
        for id in c17.ids() {
            assert_eq!(outcomes[1].sink.random(id), solo.random(id));
        }
        let none: Vec<CampaignOutcome<GateSamples>> =
            run_fleet(Vec::new(), Parallelism::new(4), &NullRecorder).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn sink_factory_preallocates_without_changing_results() {
        let c17 = generators::iscas_c17();
        let model = PowerModel::default();
        let cfg = CampaignConfig::new(300, 300, 7);
        let gates = c17.gate_count();
        let solo: GateSamples =
            run_campaign_parallel(&c17, &model, &cfg, Parallelism::new(2)).unwrap();
        let job = FleetJob::new(&c17, &model, cfg)
            .with_sink_factory(move || GateSamples::with_capacity(gates, 256, 256));
        let outcomes = run_fleet(vec![job], Parallelism::new(2), &NullRecorder).unwrap();
        for id in c17.ids() {
            assert_eq!(outcomes[0].sink.fixed(id), solo.fixed(id));
            assert_eq!(outcomes[0].sink.random(id), solo.random(id));
        }
    }

    /// Sink counting traces per population — cheap probe for scheduling
    /// bookkeeping.
    #[derive(Default)]
    struct CountProbe {
        fixed: usize,
        random: usize,
    }

    impl TraceSink for CountProbe {
        fn record_batch(&mut self, pop: Population, batch: crate::campaign::EnergyBatch<'_>) {
            if batch.first_gate() > 0 {
                return;
            }
            match pop {
                Population::Fixed => self.fixed += batch.lanes(),
                Population::Random => self.random += batch.lanes(),
            }
        }
    }

    impl MergeableSink for CountProbe {
        fn merge(&mut self, other: Self) {
            self.fixed += other.fixed;
            self.random += other.random;
        }
    }

    #[test]
    fn no_shard_is_lost_or_duplicated_across_a_mixed_fleet() {
        let c17 = generators::iscas_c17();
        let model = PowerModel::default();
        let sizes = [(513usize, 0usize), (1, 1), (300, 1000), (0, 257)];
        for threads in [1usize, 3, 8] {
            let jobs: Vec<FleetJob<CountProbe>> = sizes
                .iter()
                .enumerate()
                .map(|(i, &(nf, nr))| {
                    let job =
                        FleetJob::new(&c17, &model, CampaignConfig::new(nf, nr, i as u64 + 1));
                    if i % 2 == 0 {
                        job.with_rule(NeverStop, DEFAULT_SHARDS_PER_ROUND)
                    } else {
                        job
                    }
                })
                .collect();
            let outcomes = run_fleet(jobs, Parallelism::new(threads), &NullRecorder).unwrap();
            for (outcome, &(nf, nr)) in outcomes.iter().zip(&sizes) {
                assert_eq!(outcome.sink.fixed, nf, "{threads} threads");
                assert_eq!(outcome.sink.random, nr, "{threads} threads");
                assert_eq!(outcome.stats.fixed_traces, nf);
                assert_eq!(outcome.stats.random_traces, nr);
            }
        }
    }

    #[test]
    fn fleet_dense_collection_matches_collect_gate_samples_parallel() {
        let c17 = generators::iscas_c17();
        let model = PowerModel::default();
        let cfg = CampaignConfig::new(100, 130, 1);
        let solo = collect_gate_samples_parallel(&c17, &model, &cfg, Parallelism::new(2)).unwrap();
        let outcomes = run_fleet(
            vec![FleetJob::<GateSamples>::new(&c17, &model, cfg)],
            Parallelism::new(2),
            &NullRecorder,
        )
        .unwrap();
        for id in c17.ids() {
            assert_eq!(outcomes[0].sink.fixed(id), solo.fixed(id));
            assert_eq!(outcomes[0].sink.random(id), solo.random(id));
        }
    }

    /// Live `LiveProbe` instances, and the most ever alive at once.
    static LIVE: AtomicUsize = AtomicUsize::new(0);
    static PEAK: AtomicUsize = AtomicUsize::new(0);

    /// A sink that counts its own live instances.
    struct LiveProbe;

    impl Default for LiveProbe {
        fn default() -> Self {
            let live = LIVE.fetch_add(1, Ordering::SeqCst) + 1;
            PEAK.fetch_max(live, Ordering::SeqCst);
            LiveProbe
        }
    }

    impl Drop for LiveProbe {
        fn drop(&mut self) {
            LIVE.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl TraceSink for LiveProbe {
        fn record_batch(&mut self, _pop: Population, _batch: crate::campaign::EnergyBatch<'_>) {}
    }

    impl MergeableSink for LiveProbe {
        fn merge(&mut self, _other: Self) {}
    }

    #[test]
    fn a_one_round_job_never_holds_a_sink_per_shard() {
        let c17 = generators::iscas_c17();
        let model = PowerModel::default();
        // 80 shards, all in the job's single round.
        let cfg = CampaignConfig::new(40 * TRACES_PER_SHARD, 40 * TRACES_PER_SHARD, 5);
        for lane_words in [4, 8] {
            for threads in [1usize, 3] {
                // The window's sinks plus the accumulator: `threads + 1`
                // at one shard per unit, `2 × threads + 3` with pairs.
                let folder = RoundFolder::<LiveProbe>::new(&cfg, usize::MAX, Box::new(NeverStop));
                let bound = Cursor::round(&folder, lane_words, threads).window + 1;
                drop(folder);
                assert!(bound <= 2 * threads + 3);
                PEAK.store(LIVE.load(Ordering::SeqCst), Ordering::SeqCst);
                let jobs = vec![FleetJob::<LiveProbe>::new(&c17, &model, cfg.clone())];
                let par = Parallelism::new(threads).with_lane_words(lane_words);
                let outcomes = run_fleet(jobs, par, &NullRecorder).unwrap();
                assert_eq!(outcomes[0].stats.rounds, 1);
                drop(outcomes);
                let peak = PEAK.load(Ordering::SeqCst);
                assert!(
                    peak <= bound,
                    "{peak} sinks alive at once with {threads} threads at {lane_words} words"
                );
            }
        }
    }
}
