//! Distributed trace campaigns: shard plans, serializable shard state, and
//! the central bit-identical fold.
//!
//! Realistic TVLA assessments need millions of traces — more than one
//! machine's budget. The sharded campaign engine already makes every shard
//! location-independent (counter-derived RNG streams, ordered pairwise
//! merge); this crate adds the missing piece: a coordinator partitions the
//! shard grid into contiguous **plans** ([`DistPlan`]), independent worker
//! processes execute one plan each ([`execute_job_part`]) and snapshot their
//! per-shard accumulators into a versioned, checksummed, self-describing
//! binary **shard-state file**, and a central merge ([`merge_parts`]) folds
//! the parts back in canonical shard order — producing a result that is
//! **byte-identical** to a single-process
//! [`polaris_sim::run_campaign_parallel`] run at any partitioning.
//!
//! # Why shard-granular snapshots
//!
//! The Chan-et-al moment merges are floating-point and therefore **not
//! associative**: `(s₀ ⊕ s₁) ⊕ s₂` and `s₀ ⊕ (s₁ ⊕ s₂)` differ in rounding.
//! A part file that pre-folded its whole range would force a different merge
//! tree at every partitioning and break bit-identity. Part files therefore
//! frame one snapshot **per shard** — the engine's merge quantum — so the
//! central fold can replay the exact strictly-ascending one-shard-at-a-time
//! fold of the in-process engine, regardless of how the grid was cut.
//! Per-shard statistical state is small (40 bytes per gate and class for
//! Welch moments), and a shard holds one population, so its moment frames
//! carry only that class. A 40-shard c432 Welch part is 210 KB; on a
//! 2-core Xeon VM it encodes in 0.06–0.08 ms and decodes in about the
//! same, together about 1 % of a 12 ms `serve` round trip.
//!
//! # Wire format (shard-state files)
//!
//! All integers are little-endian and fixed-width; `f64` values are
//! transported as their IEEE-754 bit patterns (`to_bits`), so snapshots are
//! bit-exact.
//!
//! ```text
//! offset size field
//! 0      8    magic "PLRSHARD" (never changes across versions)
//! 8      2    format version (u16) — readers accept an exact match only
//! 10     1    sink kind: 1 Welch moments, 2 dense gate samples,
//!             3 retired (was CPA), never reused,
//!             4 bivariate pair co-moments, 5 trivariate triple co-moments
//! 11     1    reserved (0)
//! 12     8    campaign fingerprint (u64; netlist + campaign digest)
//! 20     4    part index (u32)
//! 24     4    part count (u32)
//! 28     4    first grid index of the part's shard range (u32)
//! 32     4    one-past-last grid index (u32)
//! 36     4    total shards in the campaign grid (u32)
//! 40     8    payload length in bytes (u64)
//! 48     …    payload: one frame per shard, ascending grid index
//! end-8  8    XXH64 (seed 0) checksum over bytes [8, 48 + payload length)
//! ```
//!
//! Each payload frame is `grid index (u32), body length (u32), body`; body
//! encodings are defined by the [`ShardState`] impls in [`codec`]. Moment
//! bodies (Welch and co-moments) frame each class behind a presence byte:
//! `1` and the class's records, or `0` for a class whose records are all
//! the empty state. At most one class is omitted, and a zero-count body is
//! the count alone.
//!
//! # Version policy
//!
//! * The magic is permanent; the version word after it is the **only**
//!   compatibility gate. Readers reject any version other than
//!   [`FORMAT_VERSION`] with [`DistError::VersionMismatch`] — there is no
//!   silent forward or backward compatibility.
//! * Any change to the header layout, the frame layout, a body encoding, or
//!   the checksum/fingerprint recipe bumps [`FORMAT_VERSION`]. So does a
//!   change to a sink's accumulation arithmetic: the bytes still decode, but
//!   a fold of parts from two builds would give bits that match neither
//!   build. Adding or retiring a sink kind does **not** bump it (unknown
//!   and retired kinds already fail decoding cleanly); a retired tag is
//!   never reused.
//! * History: version 4 replaced the FNV-1a-64 checksum and fingerprint
//!   digest with XXH64 and added the class presence bytes; version 3
//!   changed the pair co-moment arithmetic and record layout; version 2
//!   changed the Welch moment arithmetic.
//! * Shard-state files are transport artifacts, not archives: a merge is
//!   expected to run the same build as its workers. The version word exists
//!   to turn a mixed-build deployment into a clear error instead of a
//!   silently wrong fold.
//!
//! # Trust model
//!
//! Shard-state files are untrusted input: every decode path bounds its
//! allocations by the bytes actually present and returns a typed
//! [`DistError`] — never a panic — on truncated, corrupted, or mismatched
//! files. The fingerprint ties a part to one exact `(netlist, campaign)`
//! pair, so parts from a different design, seed, or trace budget cannot be
//! folded together by accident.

pub mod codec;
pub mod part;
pub mod plan;
pub mod proto;
pub mod service;
pub mod wire;

pub use codec::{ShardState, SinkKind};
pub use part::{
    decode_part, encode_part, execute_job_part, execute_part, merge_parts, merge_parts_traced,
    merged_outcome, Merged, PartHeader, FORMAT_VERSION, MAGIC,
};
pub use plan::{campaign_fingerprint, DistPlan};
pub use proto::{Message, ProtoError, ResultOrigin, PROTO_VERSION};
pub use service::{
    Coordinator, DesignFormat, JobResult, JobStatus, Submission, SubmitOutcome, TaskSpec,
    TenantStats, DEFAULT_HEARTBEAT_MS,
};

use polaris_netlist::NetlistError;

/// Everything that can go wrong while encoding, decoding, or folding shard
/// state. Each variant is a distinct failure class so front-ends (the CLI)
/// can map them to distinct exit codes.
#[derive(Debug)]
pub enum DistError {
    /// The file ended before the named field could be read.
    Truncated {
        /// What was being read when the bytes ran out.
        context: String,
    },
    /// The first eight bytes are not the shard-state magic.
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    VersionMismatch {
        /// The version word found in the file.
        found: u16,
    },
    /// The stored checksum does not match the file's contents.
    ChecksumMismatch {
        /// Checksum recomputed from the bytes.
        computed: u64,
        /// Checksum stored in the trailer.
        stored: u64,
    },
    /// The file carries a different sink kind than the decoder expects.
    KindMismatch {
        /// The kind the caller asked to decode.
        expected: SinkKind,
        /// The kind tag found in the file.
        found: u8,
    },
    /// The file's campaign fingerprint does not match the expected one —
    /// it was produced for a different netlist or campaign configuration.
    FingerprintMismatch {
        /// Fingerprint the caller derived from its netlist + campaign.
        expected: u64,
        /// Fingerprint stored in the file.
        found: u64,
    },
    /// The supplied parts do not assemble into one complete plan
    /// (missing/duplicate parts, overlapping or gapped shard ranges,
    /// disagreeing grid sizes).
    PlanMismatch(String),
    /// A plan's gate-pair or gate-triple list is semantically invalid for
    /// the design (wrong arity, out-of-range index, repeated gate, duplicate
    /// entry) —
    /// the same input class [`polaris_tvla::MultivariateError`] covers on
    /// the CLI side, kept distinct from [`DistError::PlanMismatch`] so a
    /// hand-edited `3:3` plan fails with the multivariate-input exit code.
    GateList(String),
    /// Structurally invalid content (bad counts, inconsistent lengths,
    /// unknown tags, trailing garbage, unparsable manifest).
    Malformed(String),
    /// Simulator compilation failed while executing a plan.
    Sim(NetlistError),
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Truncated { context } => {
                write!(f, "truncated shard-state data while reading {context}")
            }
            DistError::BadMagic => write!(f, "not a shard-state file (bad magic)"),
            DistError::VersionMismatch { found } => write!(
                f,
                "unsupported shard-state format version {found} (this build reads \
                 version {FORMAT_VERSION})"
            ),
            DistError::ChecksumMismatch { computed, stored } => write!(
                f,
                "shard-state checksum mismatch (stored {stored:#018x}, \
                 computed {computed:#018x}) — the file is corrupted"
            ),
            DistError::KindMismatch { expected, found } => write!(
                f,
                "shard-state sink kind mismatch: expected {} (tag {}), file carries tag {found}",
                expected.name(),
                expected.tag()
            ),
            DistError::FingerprintMismatch { expected, found } => write!(
                f,
                "campaign fingerprint mismatch: expected {expected:#018x}, file carries \
                 {found:#018x} — the part belongs to a different netlist or campaign"
            ),
            DistError::PlanMismatch(why) => write!(f, "shard plan mismatch: {why}"),
            DistError::GateList(why) => write!(f, "invalid gate list: {why}"),
            DistError::Malformed(why) => write!(f, "malformed shard-state data: {why}"),
            DistError::Sim(e) => write!(f, "campaign execution failed: {e}"),
        }
    }
}

impl DistError {
    /// The failure class as the documented `dist`/`serve` exit code:
    /// 1 execution, 3 truncated, 4 malformed, 5 version skew, 6 checksum,
    /// 7 plan/fingerprint/kind mismatch, 8 gate list. The CLI maps errors
    /// through this so scripts can react to a class without parsing stderr.
    pub fn exit_class(&self) -> u8 {
        match self {
            DistError::Sim(_) => 1,
            DistError::Truncated { .. } => 3,
            DistError::BadMagic | DistError::Malformed(_) => 4,
            DistError::VersionMismatch { .. } => 5,
            DistError::ChecksumMismatch { .. } => 6,
            DistError::KindMismatch { .. }
            | DistError::FingerprintMismatch { .. }
            | DistError::PlanMismatch(_) => 7,
            DistError::GateList(_) => 8,
        }
    }
}

impl std::error::Error for DistError {}

impl From<NetlistError> for DistError {
    fn from(e: NetlistError) -> Self {
        DistError::Sim(e)
    }
}
