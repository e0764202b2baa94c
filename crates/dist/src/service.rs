//! The live-worker assessment service: submissions, task leases, and the
//! crash-safe coordinator fold.
//!
//! This module is the socket-agnostic core of `polaris-cli serve`. A
//! [`Submission`] (a design source plus campaign parameters, shipped as a
//! line-oriented manifest) becomes a *job*; the [`Coordinator`] leases
//! contiguous shard ranges of the job's grid to registered live workers as
//! [`TaskSpec`]s, ingests the `PLRSHARD` part each lease returns, and folds
//! the per-shard states **strictly in ascending grid order** — the same
//! canonical left fold as [`polaris_sim::run_campaign_parallel`] and the
//! offline [`crate::merge_parts`]. Each job folds through the same
//! [`RoundFolder`] as the in-process engine, so adaptive submissions replay
//! its round-checkpoint schedule: after each `shards_per_round`-shard
//! prefix folds, the cells-scoped [`SequentialStopping`] rule is consulted
//! exactly as [`polaris_tvla::campaign_outcome_adaptive`] would, so the
//! stop round, the consumed trace counts, and every t-statistic are
//! **byte-identical** to a single-process run — regardless of which worker
//! ran which shards, in what order the parts arrived, or how often a lease
//! was re-issued after a worker crash.
//!
//! # Crash safety and replay idempotence
//!
//! Worker loss is handled by re-leasing: the daemon detects a silent worker
//! (heartbeat timeout or EOF) and calls [`Coordinator::worker_lost`], which
//! returns the worker's outstanding shard ranges to the queue. Because a
//! part is validated (fingerprint, grid size, exact lease range, checksum)
//! before any state is adopted, and because ingestion drops shard indices
//! that are already folded or already pending, a *replayed* part — the
//! original worker finishing late, or two workers racing the same re-issued
//! range — changes nothing: shard states are pure functions of
//! `(netlist, model, config, grid index)`, so the first and second copy are
//! bit-identical and only one is ever folded.
//!
//! # Result cache and coalescing
//!
//! Completed jobs land in a content-addressed cache keyed by
//! `(campaign fingerprint, assessment mode)`: resubmitting an identical
//! design + campaign is served without simulating a single shard, and an
//! identical submission arriving *while* the first is still running attaches
//! to the in-flight job instead of spawning a second one. The mode component
//! keeps adaptive and fixed-budget assessments of the same campaign distinct
//! (their outputs differ even though the fingerprint agrees).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use polaris_netlist::{parse_bench, parse_netlist, Netlist};
use polaris_obs::{NullRecorder, Payload, Recorder};
use polaris_sim::campaign::{
    shard_grid, splitmix64, CampaignConfig, CampaignStats, NeverStop, Parallelism, ShardSpec,
    StoppingRule,
};
use polaris_sim::{FleetJob, PowerModel, RoundFolder};
use polaris_tvla::{SequentialConfig, SequentialStopping, WelchAccumulator};

use crate::part::{encode_part, PartHeader};
use crate::plan::campaign_fingerprint;
use crate::DistError;

/// Heartbeat budget the daemon grants workers at registration: a worker that
/// stays silent (no `Next`/`Ping`) for longer is declared lost and its
/// leases are re-issued.
pub const DEFAULT_HEARTBEAT_MS: u64 = 5_000;

/// Largest submission source the service accepts (bytes).
pub const MAX_SOURCE_BYTES: usize = 8 << 20;

/// Largest per-class trace budget the service accepts.
pub const MAX_TRACES_PER_CLASS: usize = 2_000_000;

/// Largest cycles-per-trace the service accepts.
pub const MAX_CYCLES: usize = 1024;

/// Shard-range cap per lease: bounds how much work one slow or dying worker
/// can strand, and how much speculation past an adaptive stop boundary is
/// in flight.
const MAX_LEASE_SHARDS: usize = 64;

/// Lease failures (worker `Fail` or invalid parts) a job survives before it
/// is settled as failed — re-issuing a deterministically failing task
/// forever would wedge the service.
const MAX_JOB_FAILURES: u32 = 3;

const SUBMISSION_HEADER: &str = "polaris-serve-submission v1";
const TASK_HEADER: &str = "polaris-serve-task v1";

/// Netlist source dialect of a submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DesignFormat {
    /// ISCAS `.bench` format.
    Bench,
    /// The structural-Verilog subset.
    Verilog,
}

impl DesignFormat {
    /// Wire token of the format.
    pub fn name(self) -> &'static str {
        match self {
            DesignFormat::Bench => "bench",
            DesignFormat::Verilog => "verilog",
        }
    }

    /// Parses a wire token.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "bench" => Some(DesignFormat::Bench),
            "verilog" => Some(DesignFormat::Verilog),
            _ => None,
        }
    }

    /// Parses a design source in this format.
    ///
    /// # Errors
    ///
    /// [`DistError::Malformed`] when the source does not parse.
    pub fn parse(self, source: &str) -> Result<Netlist, DistError> {
        match self {
            DesignFormat::Bench => parse_bench(source),
            DesignFormat::Verilog => parse_netlist(source),
        }
        .map_err(|e| DistError::Malformed(format!("design source: {e}")))
    }
}

/// A client's design submission: the netlist source plus everything needed
/// to reconstruct the campaign. Ships as a line-oriented manifest
/// ([`Submission::render`] / [`Submission::parse`]) in the blob of a
/// `SUBMIT` message.
///
/// The service assesses with the default [`PowerModel`] (like the CLI);
/// the power model is part of the campaign fingerprint, so daemon and
/// workers agreeing on the build means agreeing on the model.
#[derive(Clone, Debug, PartialEq)]
pub struct Submission {
    /// Accounting principal (token: letters, digits, `._-`).
    pub tenant: String,
    /// Display name of the design (token).
    pub name: String,
    /// Source dialect of `source`.
    pub format: DesignFormat,
    /// Traces per TVLA class (budget, for adaptive submissions).
    pub traces: usize,
    /// Campaign master seed.
    pub seed: u64,
    /// Clock cycles per trace.
    pub cycles: usize,
    /// Unit-delay (glitch) timing model.
    pub glitch: bool,
    /// Run the sequential-stopping engine instead of the fixed budget.
    pub adaptive: bool,
    /// Adaptive clean-verdict confidence, in `(0, 1)`.
    pub confidence: f64,
    /// The netlist source text.
    pub source: String,
}

/// A [`Submission`] whose design is parsed and fingerprinted: the input of
/// [`Coordinator::submit`], made by [`Submission::prepare`].
#[derive(Debug)]
pub struct PreparedSubmission<'a> {
    sub: &'a Submission,
    netlist: Netlist,
    config: CampaignConfig,
    fingerprint: u64,
}

impl Submission {
    /// The campaign configuration the submission describes.
    pub fn campaign(&self) -> CampaignConfig {
        let mut c =
            CampaignConfig::new(self.traces, self.traces, self.seed).with_cycles(self.cycles);
        if self.glitch {
            c = c.with_glitches();
        }
        c
    }

    /// Validates the submission, then parses and fingerprints its design:
    /// everything [`Coordinator::submit`] needs that takes time. The daemon
    /// calls this before it takes the coordinator lock, so a large design
    /// never holds up the workers' `NEXT` and `DONE`.
    ///
    /// # Errors
    ///
    /// [`DistError::Malformed`] for out-of-bounds fields or an unparsable
    /// design source.
    pub fn prepare(&self) -> Result<PreparedSubmission<'_>, DistError> {
        self.validate()?;
        let netlist = self.format.parse(&self.source)?;
        let config = self.campaign();
        let fingerprint = campaign_fingerprint(&netlist, &PowerModel::default(), &config);
        Ok(PreparedSubmission {
            sub: self,
            netlist,
            config,
            fingerprint,
        })
    }

    /// Bounds-checks every field — the daemon-side guard that a hostile
    /// manifest cannot request an absurd simulation or carry tokens that
    /// would break downstream framing.
    ///
    /// # Errors
    ///
    /// [`DistError::Malformed`] naming the offending field.
    pub fn validate(&self) -> Result<(), DistError> {
        let bad = |why: String| DistError::Malformed(format!("submission: {why}"));
        if !is_token(&self.tenant) {
            return Err(bad(format!("tenant `{}` is not a token", self.tenant)));
        }
        if !is_token(&self.name) {
            return Err(bad(format!("name `{}` is not a token", self.name)));
        }
        if self.traces == 0 || self.traces > MAX_TRACES_PER_CLASS {
            return Err(bad(format!(
                "traces {} outside 1..={MAX_TRACES_PER_CLASS}",
                self.traces
            )));
        }
        if self.cycles == 0 || self.cycles > MAX_CYCLES {
            return Err(bad(format!(
                "cycles {} outside 1..={MAX_CYCLES}",
                self.cycles
            )));
        }
        if !(self.confidence > 0.0 && self.confidence < 1.0) {
            return Err(bad(format!(
                "confidence {} outside (0, 1)",
                self.confidence
            )));
        }
        if self.source.is_empty() {
            return Err(bad("empty design source".into()));
        }
        if self.source.len() > MAX_SOURCE_BYTES {
            return Err(bad(format!(
                "design source of {} bytes exceeds the {MAX_SOURCE_BYTES}-byte bound",
                self.source.len()
            )));
        }
        Ok(())
    }

    /// Renders the submission manifest (manifest lines, then the raw source
    /// as a length-prefixed tail).
    pub fn render(&self) -> Vec<u8> {
        let mut out = String::new();
        out.push_str(SUBMISSION_HEADER);
        out.push('\n');
        out.push_str(&format!("tenant {}\n", self.tenant));
        out.push_str(&format!("name {}\n", self.name));
        out.push_str(&format!("format {}\n", self.format.name()));
        out.push_str(&format!("traces {}\n", self.traces));
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("cycles {}\n", self.cycles));
        out.push_str(&format!("glitch {}\n", u8::from(self.glitch)));
        out.push_str(&format!("adaptive {}\n", u8::from(self.adaptive)));
        out.push_str(&format!("confidence {}\n", self.confidence));
        out.push_str(&format!("source {}\n", self.source.len()));
        let mut bytes = out.into_bytes();
        bytes.extend_from_slice(self.source.as_bytes());
        bytes
    }

    /// Parses a manifest produced by [`Submission::render`] and validates
    /// its fields.
    ///
    /// # Errors
    ///
    /// [`DistError::Malformed`] on any structural or bounds problem.
    pub fn parse(blob: &[u8]) -> Result<Self, DistError> {
        let mut m = Manifest::open(blob, "submission", SUBMISSION_HEADER)?;
        let mut tenant = None;
        let mut name = None;
        let mut format = None;
        let mut traces = None;
        let mut seed = None;
        let mut cycles = None;
        let mut glitch = None;
        let mut adaptive = None;
        let mut confidence = None;
        let source = loop {
            let (key, value) = m.field()?;
            match key {
                "tenant" => m.set(&mut tenant, key, value.to_string())?,
                "name" => m.set(&mut name, key, value.to_string())?,
                "format" => {
                    let f = DesignFormat::from_name(value)
                        .ok_or_else(|| m.bad(format!("unknown format `{value}`")))?;
                    m.set(&mut format, key, f)?;
                }
                "traces" => {
                    let v = m.int(key, value)?;
                    m.set(&mut traces, key, v)?;
                }
                "seed" => {
                    let v = m.u64(key, value)?;
                    m.set(&mut seed, key, v)?;
                }
                "cycles" => {
                    let v = m.int(key, value)?;
                    m.set(&mut cycles, key, v)?;
                }
                "glitch" => {
                    let v = m.flag(key, value)?;
                    m.set(&mut glitch, key, v)?;
                }
                "adaptive" => {
                    let v = m.flag(key, value)?;
                    m.set(&mut adaptive, key, v)?;
                }
                "confidence" => {
                    let v: f64 = value
                        .parse()
                        .map_err(|_| m.bad(format!("bad confidence `{value}`")))?;
                    m.set(&mut confidence, key, v)?;
                }
                "source" => break m.source_tail(value)?,
                other => return Err(m.bad(format!("unknown key `{other}`"))),
            }
        };
        let sub = Submission {
            tenant: m.require(tenant, "tenant")?,
            name: m.require(name, "name")?,
            format: m.require(format, "format")?,
            traces: m.require(traces, "traces")?,
            seed: m.require(seed, "seed")?,
            cycles: m.require(cycles, "cycles")?,
            glitch: m.require(glitch, "glitch")?,
            adaptive: m.require(adaptive, "adaptive")?,
            confidence: m.require(confidence, "confidence")?,
            source: source.to_string(),
        };
        sub.validate()?;
        Ok(sub)
    }
}

/// One leased unit of work: the campaign parameters (so the worker can
/// rebuild the exact engine), the shard range to execute, and the design
/// source itself — workers are stateless and need no local files. Ships in
/// the blob of a `TASK` message.
#[derive(Clone, Debug, PartialEq)]
pub struct TaskSpec {
    /// Source dialect of `source`.
    pub format: DesignFormat,
    /// Traces per TVLA class of the full campaign.
    pub traces: usize,
    /// Campaign master seed.
    pub seed: u64,
    /// Clock cycles per trace.
    pub cycles: usize,
    /// Unit-delay (glitch) timing model.
    pub glitch: bool,
    /// [`campaign_fingerprint`] the worker must reproduce before simulating.
    pub fingerprint: u64,
    /// Total shards in the campaign grid.
    pub n_shards: usize,
    /// First grid index of the leased range.
    pub shard_lo: usize,
    /// One-past-last grid index of the leased range.
    pub shard_hi: usize,
    /// The netlist source text.
    pub source: String,
}

impl TaskSpec {
    /// The campaign configuration the task describes.
    pub fn campaign(&self) -> CampaignConfig {
        let mut c =
            CampaignConfig::new(self.traces, self.traces, self.seed).with_cycles(self.cycles);
        if self.glitch {
            c = c.with_glitches();
        }
        c
    }

    /// Renders the task manifest.
    pub fn render(&self) -> Vec<u8> {
        let mut out = String::new();
        out.push_str(TASK_HEADER);
        out.push('\n');
        out.push_str(&format!("format {}\n", self.format.name()));
        out.push_str(&format!("traces {}\n", self.traces));
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("cycles {}\n", self.cycles));
        out.push_str(&format!("glitch {}\n", u8::from(self.glitch)));
        out.push_str(&format!("fingerprint {:016x}\n", self.fingerprint));
        out.push_str(&format!(
            "shards {} {} {}\n",
            self.n_shards, self.shard_lo, self.shard_hi
        ));
        out.push_str(&format!("source {}\n", self.source.len()));
        let mut bytes = out.into_bytes();
        bytes.extend_from_slice(self.source.as_bytes());
        bytes
    }

    /// Parses a manifest produced by [`TaskSpec::render`].
    ///
    /// # Errors
    ///
    /// [`DistError::Malformed`] on any structural problem.
    pub fn parse(blob: &[u8]) -> Result<Self, DistError> {
        let mut m = Manifest::open(blob, "task", TASK_HEADER)?;
        let mut format = None;
        let mut traces = None;
        let mut seed = None;
        let mut cycles = None;
        let mut glitch = None;
        let mut fingerprint = None;
        let mut shards = None;
        let source = loop {
            let (key, value) = m.field()?;
            match key {
                "format" => {
                    let f = DesignFormat::from_name(value)
                        .ok_or_else(|| m.bad(format!("unknown format `{value}`")))?;
                    m.set(&mut format, key, f)?;
                }
                "traces" => {
                    let v = m.int(key, value)?;
                    m.set(&mut traces, key, v)?;
                }
                "seed" => {
                    let v = m.u64(key, value)?;
                    m.set(&mut seed, key, v)?;
                }
                "cycles" => {
                    let v = m.int(key, value)?;
                    m.set(&mut cycles, key, v)?;
                }
                "glitch" => {
                    let v = m.flag(key, value)?;
                    m.set(&mut glitch, key, v)?;
                }
                "fingerprint" => {
                    let v = u64::from_str_radix(value, 16)
                        .map_err(|_| m.bad(format!("bad fingerprint `{value}`")))?;
                    m.set(&mut fingerprint, key, v)?;
                }
                "shards" => {
                    let fields: Vec<&str> = value.split(' ').collect();
                    if fields.len() != 3 {
                        return Err(m.bad(format!("`shards` takes total lo hi, got `{value}`")));
                    }
                    let total = m.int("shards total", fields[0])?;
                    let lo = m.int("shards lo", fields[1])?;
                    let hi = m.int("shards hi", fields[2])?;
                    if lo > hi || hi > total {
                        return Err(m.bad(format!("shard range {lo}..{hi} of {total} grid")));
                    }
                    m.set(&mut shards, key, (total, lo, hi))?;
                }
                "source" => break m.source_tail(value)?,
                other => return Err(m.bad(format!("unknown key `{other}`"))),
            }
        };
        let (n_shards, shard_lo, shard_hi) = m.require(shards, "shards")?;
        Ok(TaskSpec {
            format: m.require(format, "format")?,
            traces: m.require(traces, "traces")?,
            seed: m.require(seed, "seed")?,
            cycles: m.require(cycles, "cycles")?,
            glitch: m.require(glitch, "glitch")?,
            fingerprint: m.require(fingerprint, "fingerprint")?,
            n_shards,
            shard_lo,
            shard_hi,
            source: source.to_string(),
        })
    }

    /// Executes the leased shard range — the whole body of a serve worker:
    /// parse the design, rebuild the campaign, verify the fingerprint and
    /// grid against the coordinator's, simulate the range, and encode the
    /// snapshots as a single-part `PLRSHARD` file.
    ///
    /// # Errors
    ///
    /// [`DistError::FingerprintMismatch`] when this build derives a
    /// different campaign than the coordinator planned;
    /// [`DistError::PlanMismatch`] for a range outside the grid;
    /// [`DistError::Malformed`] / [`DistError::Sim`] for unparsable or
    /// unlevelizable designs.
    pub fn execute(&self, parallelism: Parallelism) -> Result<Vec<u8>, DistError> {
        let netlist = self.format.parse(&self.source)?;
        let model = PowerModel::default();
        let config = self.campaign();
        let found = campaign_fingerprint(&netlist, &model, &config);
        if found != self.fingerprint {
            return Err(DistError::FingerprintMismatch {
                expected: self.fingerprint,
                found,
            });
        }
        let grid_len = shard_grid(&config).len();
        if grid_len != self.n_shards || self.shard_lo > self.shard_hi || self.shard_hi > grid_len {
            return Err(DistError::PlanMismatch(format!(
                "task leases shards {}..{} of a {}-shard grid, campaign produces {grid_len}",
                self.shard_lo, self.shard_hi, self.n_shards
            )));
        }
        let states = FleetJob::<WelchAccumulator>::new(&netlist, &model, config).run_shards(
            parallelism,
            self.shard_lo..self.shard_hi,
            &NullRecorder,
        )?;
        Ok(encode_part(
            &PartHeader {
                fingerprint: self.fingerprint,
                part_index: 0,
                part_count: 1,
                shard_lo: self.shard_lo as u32,
                shard_hi: self.shard_hi as u32,
                n_shards_total: grid_len as u32,
            },
            &states,
        ))
    }
}

/// A completed assessment: the canonical fold plus everything the daemon
/// needs to render result artifacts (the netlist for gate names, the stats
/// for the consumption report).
#[derive(Clone, Debug)]
pub struct JobResult {
    /// [`campaign_fingerprint`] of the assessed campaign.
    pub fingerprint: u64,
    /// The submitted design, parsed.
    pub netlist: Netlist,
    /// Trace/round consumption (fixed budget: one full round; adaptive: the
    /// engine's stop boundary).
    pub stats: CampaignStats,
    /// The accumulator folded over every consumed shard in grid order —
    /// byte-identical to the single-process run.
    pub sink: WelchAccumulator,
}

/// What [`Coordinator::submit`] decided about a submission.
#[derive(Clone, Debug)]
pub enum SubmitOutcome {
    /// Served from the fingerprint cache — no shard was simulated.
    Cached(Arc<JobResult>),
    /// Queued for the worker fleet.
    Queued {
        /// Job id to poll via [`Coordinator::job_status`].
        job: u64,
        /// True when the submission attached to an identical job already in
        /// flight instead of creating a new one.
        coalesced: bool,
    },
}

/// Lifecycle state of a job id.
#[derive(Clone, Debug)]
pub enum JobStatus {
    /// No such job.
    Unknown,
    /// Still leasing/folding.
    Running,
    /// Folded to completion.
    Done(Arc<JobResult>),
    /// Settled as failed after repeated lease failures.
    Failed {
        /// Failure-class exit code (the `dist` table).
        code: u8,
        /// Human-readable reason.
        message: String,
    },
}

/// Per-tenant accounting the daemon reports at shutdown.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Submissions received (including cached and coalesced ones).
    pub submissions: u64,
    /// Submissions served from the fingerprint cache.
    pub cache_hits: u64,
    /// Submissions attached to an in-flight identical job.
    pub coalesced: u64,
    /// Shards simulated on this tenant's behalf (attributed to the tenant
    /// whose submission created the job).
    pub shards: u64,
    /// Traces simulated on this tenant's behalf.
    pub traces: u64,
    /// Jobs that settled as failed.
    pub failed: u64,
}

struct WorkerEntry {
    name: String,
    lost: bool,
    completed: u64,
}

struct Lease {
    job: u64,
    range: Range<usize>,
    worker: u64,
    issued: Instant,
}

struct Job {
    key: (u64, u64),
    tenants: Vec<String>,
    netlist: Netlist,
    config: CampaignConfig,
    fingerprint: u64,
    format: DesignFormat,
    source: String,
    grid: Vec<ShardSpec>,
    /// Next never-leased grid index.
    cursor: usize,
    /// Ranges returned by lost/failed leases, re-issued before `cursor`
    /// advances (they block the fold).
    requeue: VecDeque<Range<usize>>,
    /// The job's canonical fold, round checkpoints and stop bound.
    folder: RoundFolder<'static, WelchAccumulator>,
    failures: u32,
    leases_done: u64,
    started: Instant,
}

/// The daemon-side job/worker state machine. Deliberately free of any I/O:
/// the `serve` front-end wires it to sockets and threads; the unit tests
/// drive it directly, playing both sides.
pub struct Coordinator {
    /// Owned for the daemon's whole life; every job's folder reports to it.
    recorder: Arc<dyn Recorder>,
    workers: HashMap<u64, WorkerEntry>,
    jobs: BTreeMap<u64, Job>,
    leases: HashMap<u64, Lease>,
    /// Content-addressed results: `(fingerprint, mode) → result`.
    cache: HashMap<(u64, u64), Arc<JobResult>>,
    /// Running jobs by cache key, for coalescing.
    in_flight: HashMap<(u64, u64), u64>,
    /// Terminal states of finished job ids (kept for waiters; a serve
    /// session's job count is small).
    settled: HashMap<u64, JobStatus>,
    tenants: BTreeMap<String, TenantStats>,
    next_worker: u64,
    next_job: u64,
    next_lease: u64,
}

impl Default for Coordinator {
    fn default() -> Self {
        Coordinator::new(Arc::new(NullRecorder))
    }
}

impl Coordinator {
    /// A coordinator reporting scheduling/merge events to `recorder`, and
    /// handing it to every job's folder so adaptive jobs report their
    /// round checkpoints and stopping audit there too.
    pub fn new(recorder: Arc<dyn Recorder>) -> Self {
        Coordinator {
            recorder,
            workers: HashMap::new(),
            jobs: BTreeMap::new(),
            leases: HashMap::new(),
            cache: HashMap::new(),
            in_flight: HashMap::new(),
            settled: HashMap::new(),
            tenants: BTreeMap::new(),
            next_worker: 1,
            next_job: 1,
            next_lease: 1,
        }
    }

    /// Registers a live worker and returns its id. A worker that reconnects
    /// after being declared lost registers again under a fresh id.
    pub fn register_worker(&mut self, name: &str) -> u64 {
        let id = self.next_worker;
        self.next_worker += 1;
        self.workers.insert(
            id,
            WorkerEntry {
                name: name.to_string(),
                lost: false,
                completed: 0,
            },
        );
        id
    }

    /// Declares a worker lost (heartbeat timeout or EOF on the daemon side)
    /// and returns its outstanding leases to the queue for re-issue.
    pub fn worker_lost(&mut self, worker: u64) {
        if let Some(w) = self.workers.get_mut(&worker) {
            w.lost = true;
        }
        let stale: Vec<u64> = self
            .leases
            .iter()
            .filter(|(_, l)| l.worker == worker)
            .map(|(&id, _)| id)
            .collect();
        for id in stale {
            let lease = self.leases.remove(&id).expect("lease id just listed");
            if let Some(job) = self.jobs.get_mut(&lease.job) {
                requeue_range(job, lease.range);
            }
        }
    }

    /// Accepts a prepared submission: served from the cache, coalesced onto
    /// an identical in-flight job, or queued as a new job. The design was
    /// parsed and fingerprinted by [`Submission::prepare`], outside any lock
    /// the caller holds on the coordinator.
    pub fn submit(&mut self, prepared: PreparedSubmission<'_>) -> SubmitOutcome {
        let PreparedSubmission {
            sub,
            netlist,
            config,
            fingerprint,
        } = prepared;
        let key = (fingerprint, mode_digest(sub));
        let tenant = self.tenants.entry(sub.tenant.clone()).or_default();
        tenant.submissions += 1;
        if let Some(result) = self.cache.get(&key) {
            tenant.cache_hits += 1;
            return SubmitOutcome::Cached(Arc::clone(result));
        }
        if let Some(&job_id) = self.in_flight.get(&key) {
            tenant.coalesced += 1;
            let job = self.jobs.get_mut(&job_id).expect("in-flight job is active");
            if !job.tenants.contains(&sub.tenant) {
                job.tenants.push(sub.tenant.clone());
            }
            return SubmitOutcome::Queued {
                job: job_id,
                coalesced: true,
            };
        }

        let grid = shard_grid(&config);
        // The adaptive service replays the exact engine schedule: the
        // cells-scoped sequential rule at its configured checkpoint
        // granularity; fixed submissions are one never-stopping round, like
        // `run_campaign_parallel`.
        let (rule, shards_per_round): (Box<dyn StoppingRule<WelchAccumulator>>, usize) =
            if sub.adaptive {
                let seq = SequentialConfig::with_confidence(sub.confidence);
                (
                    Box::new(SequentialStopping::scoped(seq, netlist.cell_ids())),
                    seq.shards_per_round,
                )
            } else {
                (Box::new(NeverStop), usize::MAX)
            };
        let folder = RoundFolder::new(&config, shards_per_round, rule);
        let job_id = self.next_job;
        self.next_job += 1;
        self.jobs.insert(
            job_id,
            Job {
                key,
                tenants: vec![sub.tenant.clone()],
                netlist,
                config,
                fingerprint,
                format: sub.format,
                source: sub.source.clone(),
                grid,
                cursor: 0,
                requeue: VecDeque::new(),
                folder,
                failures: 0,
                leases_done: 0,
                started: Instant::now(),
            },
        );
        self.in_flight.insert(key, job_id);
        SubmitOutcome::Queued {
            job: job_id,
            coalesced: false,
        }
    }

    /// Leases the next shard range to `worker`, or `None` when no job has
    /// work available. Lease sizes adapt to the observed queue depth and
    /// worker count (deeper queues and fewer workers mean longer leases, up
    /// to the re-issue-cost cap); adaptive jobs additionally cap leases at
    /// one checkpoint round so speculation past a stop boundary stays
    /// bounded.
    pub fn next_task(&mut self, worker: u64) -> Option<(u64, TaskSpec)> {
        if self.workers.get(&worker).is_none_or(|w| w.lost) {
            return None;
        }
        let live_workers = self.workers.values().filter(|w| !w.lost).count().max(1);
        let job_ids: Vec<u64> = self.jobs.keys().copied().collect();
        let mut issued: Option<(u64, TaskSpec)> = None;
        for id in job_ids {
            let job = self.jobs.get_mut(&id).expect("job id just listed");
            if job.folder.finished() {
                continue;
            }
            let range = if let Some(r) = job.requeue.pop_front() {
                if r.len() > MAX_LEASE_SHARDS {
                    job.requeue.push_front(r.start + MAX_LEASE_SHARDS..r.end);
                    r.start..r.start + MAX_LEASE_SHARDS
                } else {
                    r
                }
            } else if job.cursor < job.folder.stop_bound() {
                let available = job.folder.stop_bound() - job.cursor;
                let cap = MAX_LEASE_SHARDS.min(job.folder.shards_per_round());
                let len = (available / live_workers).clamp(1, cap).min(available);
                let r = job.cursor..job.cursor + len;
                job.cursor = r.end;
                r
            } else {
                continue;
            };
            let lease_id = self.next_lease;
            self.next_lease += 1;
            let spec = TaskSpec {
                format: job.format,
                traces: job.config.n_fixed,
                seed: job.config.seed,
                cycles: job.config.cycles,
                glitch: job.config.delay_model == polaris_sim::campaign::DelayModel::UnitDelay,
                fingerprint: job.fingerprint,
                n_shards: job.grid.len(),
                shard_lo: range.start,
                shard_hi: range.end,
                source: job.source.clone(),
            };
            self.leases.insert(
                lease_id,
                Lease {
                    job: id,
                    range,
                    worker,
                    issued: Instant::now(),
                },
            );
            issued = Some((lease_id, spec));
            break;
        }
        if self.recorder.enabled() {
            self.recorder.record(Payload::QueueDepth {
                depth: self.unleased_shards() as u64,
                jobs_remaining: self.jobs.values().filter(|j| !j.folder.finished()).count() as u64,
            });
        }
        issued
    }

    /// Ingests the part a lease returned, as [`crate::decode_part`] gave it (the
    /// caller decodes before it takes the coordinator lock): validate
    /// against the lease, dedup, fold ascending, fire round checkpoints,
    /// and settle the job when its fold completes. Unknown lease ids (a
    /// lost worker finishing late, a duplicate replay) are ignored — the
    /// fold is idempotent.
    ///
    /// # Errors
    ///
    /// The decode error, or the part's [`DistError`] when it does not match
    /// its lease; the lease range is returned to the queue, so the job still
    /// converges (until the job's failure budget runs out and it settles as
    /// failed).
    pub fn complete_task(
        &mut self,
        lease: u64,
        part: Result<(PartHeader, Vec<WelchAccumulator>), DistError>,
    ) -> Result<(), DistError> {
        let Some(lease_info) = self.leases.remove(&lease) else {
            return Ok(());
        };
        if let Some(w) = self.workers.get_mut(&lease_info.worker) {
            w.completed += 1;
        }
        let Some(job) = self.jobs.get_mut(&lease_info.job) else {
            return Ok(());
        };
        let validated = part.and_then(|(header, states)| {
            if header.fingerprint != job.fingerprint {
                return Err(DistError::FingerprintMismatch {
                    expected: job.fingerprint,
                    found: header.fingerprint,
                });
            }
            if header.n_shards_total as usize != job.grid.len()
                || (header.shard_lo as usize, header.shard_hi as usize)
                    != (lease_info.range.start, lease_info.range.end)
            {
                return Err(DistError::PlanMismatch(format!(
                    "part covers shards {}..{} of {}, lease was {}..{} of {}",
                    header.shard_lo,
                    header.shard_hi,
                    header.n_shards_total,
                    lease_info.range.start,
                    lease_info.range.end,
                    job.grid.len()
                )));
            }
            Ok(states)
        });
        let states = match validated {
            Ok(states) => states,
            Err(e) => {
                requeue_range(job, lease_info.range);
                job.failures += 1;
                if job.failures >= MAX_JOB_FAILURES {
                    let message = format!("job failed after {MAX_JOB_FAILURES} bad parts: {e}");
                    self.settle_failed(lease_info.job, e.exit_class(), message);
                }
                return Err(e);
            }
        };

        // Replay-safe ingest: the folder drops indices already folded or
        // already pending — shard states are pure functions of the
        // campaign, so a second copy is bit-identical and folding it twice
        // would be the only way to diverge.
        let fold_start = Instant::now();
        let before = job.folder.folded();
        for (offset, state) in states.into_iter().enumerate() {
            job.folder.ingest(
                lease_info.range.start + offset,
                state,
                self.recorder.as_ref(),
            );
        }
        let folded = job.folder.folded() - before;
        job.leases_done += 1;
        let job_finished = job.folder.finished();
        if self.recorder.enabled() {
            self.recorder.record(Payload::PlanExec {
                part: lease,
                parts: job.leases_done,
                shard_lo: lease_info.range.start as u64,
                shard_hi: lease_info.range.end as u64,
                wall_ns: lease_info.issued.elapsed().as_nanos() as u64,
            });
            if folded > 0 {
                self.recorder.record(Payload::MergeFold {
                    part: lease,
                    shards: folded as u64,
                    wall_ns: fold_start.elapsed().as_nanos() as u64,
                });
            }
        }
        if job_finished {
            self.settle_done(lease_info.job);
        }
        Ok(())
    }

    /// Handles a worker's `Fail` for a lease: the range is re-queued, and
    /// the job settles as failed once its failure budget is exhausted.
    pub fn fail_task(&mut self, lease: u64, reason: &str) {
        let Some(lease_info) = self.leases.remove(&lease) else {
            return;
        };
        let exhausted = match self.jobs.get_mut(&lease_info.job) {
            Some(job) => {
                requeue_range(job, lease_info.range);
                job.failures += 1;
                job.failures >= MAX_JOB_FAILURES
            }
            None => false,
        };
        if exhausted {
            let message = format!("job failed after {MAX_JOB_FAILURES} lease failures: {reason}");
            self.settle_failed(lease_info.job, 1, message);
        }
    }

    /// Lifecycle state of a job id.
    pub fn job_status(&self, job: u64) -> JobStatus {
        if self.jobs.contains_key(&job) {
            return JobStatus::Running;
        }
        self.settled
            .get(&job)
            .cloned()
            .unwrap_or(JobStatus::Unknown)
    }

    /// Whether any job still needs lease or fold work.
    pub fn has_active_jobs(&self) -> bool {
        !self.jobs.is_empty()
    }

    /// Per-tenant accounting, sorted by tenant name.
    pub fn tenant_summary(&self) -> Vec<(String, TenantStats)> {
        self.tenants
            .iter()
            .map(|(name, stats)| (name.clone(), *stats))
            .collect()
    }

    /// Per-worker `(name, completed leases, lost)` rows, in registration
    /// order.
    pub fn worker_summary(&self) -> Vec<(String, u64, bool)> {
        let mut ids: Vec<&u64> = self.workers.keys().collect();
        ids.sort();
        ids.iter()
            .map(|id| {
                let w = &self.workers[id];
                (w.name.clone(), w.completed, w.lost)
            })
            .collect()
    }

    /// Shards queued but not currently leased, across all jobs.
    fn unleased_shards(&self) -> usize {
        self.jobs
            .values()
            .filter(|j| !j.folder.finished())
            .map(|j| {
                (j.folder.stop_bound() - j.cursor.min(j.folder.stop_bound()))
                    + j.requeue.iter().map(ExactSizeIterator::len).sum::<usize>()
            })
            .sum()
    }

    fn settle_done(&mut self, job_id: u64) {
        let job = self.jobs.remove(&job_id).expect("finished job is active");
        let shards = job.folder.folded() as u64;
        let outcome = job.folder.finish(WelchAccumulator::default);
        let traces = outcome.stats.traces_used() as u64;
        if let Some(first) = job.tenants.first() {
            let tenant = self.tenants.entry(first.clone()).or_default();
            tenant.shards += shards;
            tenant.traces += traces;
        }
        let result = Arc::new(JobResult {
            fingerprint: job.fingerprint,
            netlist: job.netlist,
            stats: outcome.stats,
            sink: outcome.sink,
        });
        self.cache.insert(job.key, Arc::clone(&result));
        self.in_flight.remove(&job.key);
        self.settled.insert(job_id, JobStatus::Done(result));
        if self.recorder.enabled() {
            self.recorder.record(Payload::MergeDone {
                parts: job.leases_done,
                shards,
                wall_ns: job.started.elapsed().as_nanos() as u64,
            });
        }
    }

    fn settle_failed(&mut self, job_id: u64, code: u8, message: String) {
        let Some(job) = self.jobs.remove(&job_id) else {
            return;
        };
        self.in_flight.remove(&job.key);
        for t in &job.tenants {
            self.tenants.entry(t.clone()).or_default().failed += 1;
        }
        self.settled
            .insert(job_id, JobStatus::Failed { code, message });
    }
}

/// The cache-key mode component: fixed-budget and adaptive assessments of
/// the same campaign produce different outputs (the adaptive one depends on
/// the confidence level too), so they must never share a cache slot.
fn mode_digest(sub: &Submission) -> u64 {
    if sub.adaptive {
        splitmix64(sub.confidence.to_bits()) | 1
    } else {
        0
    }
}

/// Returns a lease's shard range to its job's queue, clipped to the part of
/// the grid that still matters: the already-folded prefix never needs to
/// re-run, and nothing past the stop boundary will be folded.
fn requeue_range(job: &mut Job, range: Range<usize>) {
    let lo = range.start.max(job.folder.folded());
    let hi = range.end.min(job.folder.stop_bound());
    if lo < hi {
        job.requeue.push_back(lo..hi);
    }
}

fn is_token(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

/// Shared line-walking parser of the two service manifests. Tracks its byte
/// position so the length-prefixed source tail can be taken verbatim.
struct Manifest<'a> {
    what: &'static str,
    text: &'a str,
    pos: usize,
}

impl<'a> Manifest<'a> {
    fn open(blob: &'a [u8], what: &'static str, header: &str) -> Result<Self, DistError> {
        let text = std::str::from_utf8(blob)
            .map_err(|_| DistError::Malformed(format!("{what} manifest: not UTF-8")))?;
        let mut m = Manifest { what, text, pos: 0 };
        match m.line() {
            Some(l) if l == header => Ok(m),
            other => Err(m.bad(format!("expected header `{header}`, found {other:?}"))),
        }
    }

    fn bad(&self, why: String) -> DistError {
        DistError::Malformed(format!("{} manifest: {why}", self.what))
    }

    fn line(&mut self) -> Option<&'a str> {
        if self.pos >= self.text.len() {
            return None;
        }
        let rest = &self.text[self.pos..];
        match rest.find('\n') {
            Some(i) => {
                self.pos += i + 1;
                Some(&rest[..i])
            }
            None => {
                self.pos = self.text.len();
                Some(rest)
            }
        }
    }

    /// The next `key value` line.
    fn field(&mut self) -> Result<(&'a str, &'a str), DistError> {
        let Some(line) = self.line() else {
            return Err(self.bad("missing `source` line".into()));
        };
        match line.split_once(' ') {
            Some((key, value)) if !key.is_empty() && !value.is_empty() => Ok((key, value)),
            _ => Err(self.bad(format!("bad line `{line}`"))),
        }
    }

    /// Consumes the length-prefixed source tail; it must be exactly the
    /// declared number of bytes.
    fn source_tail(&mut self, len_field: &str) -> Result<&'a str, DistError> {
        let declared: usize = len_field
            .parse()
            .map_err(|_| self.bad(format!("bad source length `{len_field}`")))?;
        let tail = &self.text[self.pos..];
        if tail.len() != declared {
            return Err(self.bad(format!(
                "source declares {declared} bytes, {} present",
                tail.len()
            )));
        }
        Ok(tail)
    }

    fn set<T>(&self, slot: &mut Option<T>, key: &str, value: T) -> Result<(), DistError> {
        if slot.is_some() {
            return Err(self.bad(format!("duplicate key `{key}`")));
        }
        *slot = Some(value);
        Ok(())
    }

    fn require<T>(&self, slot: Option<T>, key: &str) -> Result<T, DistError> {
        slot.ok_or_else(|| self.bad(format!("missing key `{key}`")))
    }

    fn int(&self, key: &str, value: &str) -> Result<usize, DistError> {
        value
            .parse()
            .map_err(|_| self.bad(format!("bad {key} `{value}`")))
    }

    fn u64(&self, key: &str, value: &str) -> Result<u64, DistError> {
        value
            .parse()
            .map_err(|_| self.bad(format!("bad {key} `{value}`")))
    }

    fn flag(&self, key: &str, value: &str) -> Result<bool, DistError> {
        match value {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(self.bad(format!("bad {key} flag `{value}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::ShardState;
    use crate::part::decode_part;
    use polaris_netlist::{generators, write_bench};
    use polaris_sim::run_campaign_parallel;
    use polaris_tvla::campaign_outcome_adaptive;

    fn c17_submission(tenant: &str, adaptive: bool) -> Submission {
        Submission {
            tenant: tenant.to_string(),
            name: "c17".to_string(),
            format: DesignFormat::Bench,
            traces: if adaptive { 6000 } else { 600 },
            seed: if adaptive { 11 } else { 5 },
            cycles: 1,
            glitch: false,
            adaptive,
            confidence: 0.95,
            source: write_bench(&generators::iscas_c17()),
        }
    }

    fn sink_bytes(sink: &WelchAccumulator) -> Vec<u8> {
        let mut bytes = Vec::new();
        sink.encode_body(&mut bytes);
        bytes
    }

    /// Plays a full worker fleet against the coordinator: pulls and executes
    /// leases for each worker id in round-robin until every job settles.
    fn drain(coordinator: &mut Coordinator, workers: &[u64]) {
        while coordinator.has_active_jobs() {
            let mut progressed = false;
            for &w in workers {
                if let Some((lease, spec)) = coordinator.next_task(w) {
                    let part = spec.execute(Parallelism::sequential()).expect("executes");
                    coordinator
                        .complete_task(lease, decode_part(&part))
                        .expect("ingests");
                    progressed = true;
                }
            }
            assert!(progressed, "live workers but no leases for active jobs");
        }
    }

    #[test]
    fn submission_manifest_round_trips() {
        let sub = c17_submission("alice", true);
        let parsed = Submission::parse(&sub.render()).unwrap();
        assert_eq!(parsed, sub);
    }

    #[test]
    fn task_manifest_round_trips() {
        let spec = TaskSpec {
            format: DesignFormat::Bench,
            traces: 600,
            seed: 5,
            cycles: 1,
            glitch: true,
            fingerprint: 0xDEAD_BEEF,
            n_shards: 6,
            shard_lo: 2,
            shard_hi: 5,
            source: write_bench(&generators::iscas_c17()),
        };
        let parsed = TaskSpec::parse(&spec.render()).unwrap();
        assert_eq!(parsed, spec);
    }

    #[test]
    fn malformed_manifests_are_rejected() {
        let good = String::from_utf8(c17_submission("alice", false).render()).unwrap();
        for mangle in [
            good.replace("polaris-serve-submission v1", "polaris-serve-submission v9"),
            good.replace("traces 600", "traces 0"),
            good.replace("traces 600", "traces banana"),
            good.replace("cycles 1", "cycles 4096"),
            good.replace("confidence 0.95", "confidence 1.5"),
            good.replace("glitch 0", "glitch maybe"),
            good.replace("seed 5\n", ""),
            good.replace("seed 5", "seed 5\nseed 6"),
            good.replace("format bench", "format parquet"),
            good.replace("tenant alice", "tenant ../../etc"),
            good.replacen("source ", "source 1", 1),
        ] {
            let err = Submission::parse(mangle.as_bytes()).unwrap_err();
            assert!(
                matches!(err, DistError::Malformed(_)),
                "should reject ({err:?}):\n{mangle}"
            );
        }
        assert!(matches!(
            Submission::parse(&[0xFF, 0xFE, 0x00]),
            Err(DistError::Malformed(_))
        ));
        // Reference sanity: the unmangled manifest parses.
        Submission::parse(good.as_bytes()).unwrap();
    }

    #[test]
    fn task_execution_verifies_the_fingerprint() {
        let mut coordinator = Coordinator::default();
        let w = coordinator.register_worker("w1");
        coordinator.submit(c17_submission("alice", false).prepare().unwrap());
        let (_, mut spec) = coordinator.next_task(w).expect("a lease");
        spec.seed += 1; // a worker handed a diverging campaign must refuse
        assert!(matches!(
            spec.execute(Parallelism::sequential()),
            Err(DistError::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn fixed_distributed_run_is_byte_identical_to_single_process() {
        let sub = c17_submission("alice", false);
        let netlist = sub.format.parse(&sub.source).unwrap();
        let config = sub.campaign();
        let reference: WelchAccumulator = run_campaign_parallel(
            &netlist,
            &PowerModel::default(),
            &config,
            Parallelism::sequential(),
        )
        .unwrap();

        let mut coordinator = Coordinator::default();
        let workers = [
            coordinator.register_worker("w1"),
            coordinator.register_worker("w2"),
        ];
        let job = match coordinator.submit(sub.prepare().unwrap()) {
            SubmitOutcome::Queued { job, coalesced } => {
                assert!(!coalesced);
                job
            }
            other => panic!("expected a queued job, got {other:?}"),
        };

        // Pull every lease up front, then complete them in *reverse* order
        // — the fold must wait for the ascending prefix, not adopt states
        // in arrival order.
        let mut leases = Vec::new();
        loop {
            let mut pulled = false;
            for &w in &workers {
                if let Some((lease, spec)) = coordinator.next_task(w) {
                    leases.push((lease, spec.execute(Parallelism::sequential()).unwrap()));
                    pulled = true;
                }
            }
            if !pulled {
                break;
            }
        }
        assert!(leases.len() >= 2, "c17 at 600/class splits across leases");
        for (lease, part) in leases.iter().rev() {
            coordinator
                .complete_task(*lease, decode_part(part))
                .unwrap();
        }
        // Replaying an already-folded part changes nothing (unknown lease).
        let (lease0, part0) = &leases[0];
        coordinator
            .complete_task(*lease0, decode_part(part0))
            .unwrap();

        let result = match coordinator.job_status(job) {
            JobStatus::Done(result) => result,
            other => panic!("expected a settled job, got {other:?}"),
        };
        assert_eq!(sink_bytes(&result.sink), sink_bytes(&reference));
        assert_eq!(
            result.stats,
            CampaignStats {
                fixed_traces: 600,
                random_traces: 600,
                rounds: 1,
                planned_rounds: 1,
                stopped_early: false,
            }
        );
    }

    #[test]
    fn adaptive_run_with_worker_loss_matches_the_engine() {
        let sub = c17_submission("alice", true);
        let netlist = sub.format.parse(&sub.source).unwrap();
        let config = sub.campaign();
        let seq = SequentialConfig::with_confidence(sub.confidence);
        let reference = campaign_outcome_adaptive(
            &netlist,
            &PowerModel::default(),
            &config,
            Parallelism::sequential(),
            &seq,
            &NullRecorder,
        )
        .unwrap();
        assert!(reference.stats.stopped_early, "{:?}", reference.stats);

        let mut coordinator = Coordinator::default();
        let doomed = coordinator.register_worker("doomed");
        let survivor = coordinator.register_worker("survivor");
        let job = match coordinator.submit(sub.prepare().unwrap()) {
            SubmitOutcome::Queued { job, .. } => job,
            other => panic!("expected a queued job, got {other:?}"),
        };

        // The first worker takes a lease and dies mid-plan without ever
        // completing it; its range must be re-issued and the outcome must
        // not change.
        let (_lost_lease, lost_spec) = coordinator.next_task(doomed).expect("a lease");
        assert_eq!(lost_spec.shard_lo, 0, "first lease starts the grid");
        coordinator.worker_lost(doomed);
        drain(&mut coordinator, &[survivor]);

        let result = match coordinator.job_status(job) {
            JobStatus::Done(result) => result,
            other => panic!("expected a settled job, got {other:?}"),
        };
        assert_eq!(result.stats, reference.stats);
        assert_eq!(sink_bytes(&result.sink), sink_bytes(&reference.sink));
        let (a, b) = (result.sink.leakage(), reference.sink.leakage());
        for id in netlist.ids() {
            assert_eq!(a.result(id).t.to_bits(), b.result(id).t.to_bits());
        }
    }

    #[test]
    fn identical_submissions_coalesce_then_hit_the_cache() {
        let sub = c17_submission("alice", false);
        let mut coordinator = Coordinator::default();
        let w = coordinator.register_worker("w1");
        let first = match coordinator.submit(sub.prepare().unwrap()) {
            SubmitOutcome::Queued { job, coalesced } => {
                assert!(!coalesced);
                job
            }
            other => panic!("expected a queued job, got {other:?}"),
        };
        // Identical submission while in flight: same job, no second
        // simulation.
        let twin = Submission {
            tenant: "bob".to_string(),
            ..sub.clone()
        };
        match coordinator.submit(twin.prepare().unwrap()) {
            SubmitOutcome::Queued { job, coalesced } => {
                assert_eq!(job, first);
                assert!(coalesced);
            }
            other => panic!("expected coalescing, got {other:?}"),
        }
        drain(&mut coordinator, &[w]);

        // Resubmission after completion: served from the cache.
        let cached = match coordinator.submit(sub.prepare().unwrap()) {
            SubmitOutcome::Cached(result) => result,
            other => panic!("expected a cache hit, got {other:?}"),
        };
        match coordinator.job_status(first) {
            JobStatus::Done(result) => {
                assert_eq!(sink_bytes(&result.sink), sink_bytes(&cached.sink));
            }
            other => panic!("expected a settled job, got {other:?}"),
        }
        // The adaptive flavour of the same campaign is a different cache
        // key: it must queue, not hit.
        let adaptive = Submission {
            adaptive: true,
            ..sub.clone()
        };
        assert!(matches!(
            coordinator.submit(adaptive.prepare().unwrap()),
            SubmitOutcome::Queued {
                coalesced: false,
                ..
            }
        ));

        let tenants = coordinator.tenant_summary();
        let alice = &tenants.iter().find(|(n, _)| n == "alice").unwrap().1;
        assert_eq!(alice.submissions, 3);
        assert_eq!(alice.cache_hits, 1);
        assert!(alice.shards > 0 && alice.traces == 1200);
        let bob = &tenants.iter().find(|(n, _)| n == "bob").unwrap().1;
        assert_eq!(bob.coalesced, 1);
        assert_eq!(bob.shards, 0, "coalesced tenants ride along for free");
    }

    #[test]
    fn corrupt_parts_are_requeued_and_bounded() {
        let sub = c17_submission("alice", false);
        let mut coordinator = Coordinator::default();
        let w = coordinator.register_worker("w1");
        coordinator.submit(sub.prepare().unwrap());

        // A corrupted part is a typed error and the range is re-issued; the
        // job still converges.
        let (lease, spec) = coordinator.next_task(w).expect("a lease");
        let mut part = spec.execute(Parallelism::sequential()).unwrap();
        let mid = part.len() / 2;
        part[mid] ^= 0x40;
        assert!(matches!(
            coordinator.complete_task(lease, decode_part(&part)),
            Err(DistError::ChecksumMismatch { .. })
        ));
        drain(&mut coordinator, &[w]);

        // A job whose leases keep failing settles as failed instead of
        // looping forever.
        let doomed = Submission {
            seed: 999,
            ..sub.clone()
        };
        let job = match coordinator.submit(doomed.prepare().unwrap()) {
            SubmitOutcome::Queued { job, .. } => job,
            other => panic!("expected a queued job, got {other:?}"),
        };
        for _ in 0..MAX_JOB_FAILURES {
            let (lease, _) = coordinator.next_task(w).expect("a re-issued lease");
            coordinator.fail_task(lease, "worker exploded");
        }
        match coordinator.job_status(job) {
            JobStatus::Failed { code, message } => {
                assert_eq!(code, 1);
                assert!(message.contains("worker exploded"), "{message}");
            }
            other => panic!("expected a failed job, got {other:?}"),
        }
        assert!(!coordinator.has_active_jobs());
    }
}
