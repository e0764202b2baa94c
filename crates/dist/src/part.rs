//! Shard-state part files: encode a worker's per-shard accumulator
//! snapshots, decode them defensively, and fold a complete set of parts in
//! canonical shard order.

use std::ops::Range;
use std::time::Instant;

use polaris_netlist::Netlist;
use polaris_obs::{NullRecorder, Payload, Recorder};
use polaris_sim::campaign::{
    partition_shards, run_shard_states_traced_with, shard_grid, CampaignConfig, CampaignOutcome,
    CampaignStats, MergeableSink, Parallelism,
};
use polaris_sim::PowerModel;

use crate::codec::ShardState;
use crate::plan::campaign_fingerprint;
use crate::wire::{fnv1a64, put_u16, put_u32, put_u64, Reader};
use crate::DistError;

/// File magic of shard-state files. Permanent across format versions.
pub const MAGIC: [u8; 8] = *b"PLRSHARD";

/// Current wire-format version. Readers accept an exact match only; see the
/// crate docs for the version policy.
pub const FORMAT_VERSION: u16 = 3;

/// Fixed-size header fields of a part file (everything between the version
/// word and the payload).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartHeader {
    /// [`campaign_fingerprint`] of the `(netlist, power model, campaign)`
    /// triple.
    pub fingerprint: u64,
    /// This part's index in the plan.
    pub part_index: u32,
    /// Total parts in the plan.
    pub part_count: u32,
    /// First grid index of the part's shard range.
    pub shard_lo: u32,
    /// One-past-last grid index of the part's shard range.
    pub shard_hi: u32,
    /// Total shards in the campaign grid.
    pub n_shards_total: u32,
}

const HEADER_BYTES: usize = 8 + 2 + 1 + 1 + 8 + 4 * 5 + 8;
const CHECKSUM_BYTES: usize = 8;

/// Encodes one part file: `states[i]` is the snapshot of grid shard
/// `header.shard_lo + i`.
///
/// # Panics
///
/// Panics if `states.len()` disagrees with the header's shard range — that
/// is a caller bug, not untrusted input.
pub fn encode_part<S: ShardState>(header: &PartHeader, states: &[S]) -> Vec<u8> {
    assert_eq!(
        states.len(),
        (header.shard_hi - header.shard_lo) as usize,
        "one snapshot per shard in the range"
    );
    let mut payload = Vec::new();
    let mut body = Vec::new();
    for (i, s) in states.iter().enumerate() {
        body.clear();
        s.encode_body(&mut body);
        put_u32(&mut payload, header.shard_lo + i as u32);
        put_u32(
            &mut payload,
            u32::try_from(body.len()).expect("body fits u32"),
        );
        payload.extend_from_slice(&body);
    }

    let mut out = Vec::with_capacity(HEADER_BYTES + payload.len() + CHECKSUM_BYTES);
    out.extend_from_slice(&MAGIC);
    put_u16(&mut out, FORMAT_VERSION);
    out.push(S::KIND.tag());
    out.push(0); // reserved
    put_u64(&mut out, header.fingerprint);
    put_u32(&mut out, header.part_index);
    put_u32(&mut out, header.part_count);
    put_u32(&mut out, header.shard_lo);
    put_u32(&mut out, header.shard_hi);
    put_u32(&mut out, header.n_shards_total);
    put_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(&payload);
    let checksum = fnv1a64(&out[MAGIC.len()..]);
    put_u64(&mut out, checksum);
    out
}

/// Decodes one part file into its header and per-shard states (in ascending
/// grid order). All validation happens here: magic, version, structural
/// completeness, checksum, sink kind, and range consistency.
///
/// # Errors
///
/// A typed [`DistError`] for each failure class — never a panic, however
/// hostile the bytes.
pub fn decode_part<S: ShardState>(bytes: &[u8]) -> Result<(PartHeader, Vec<S>), DistError> {
    let mut r = Reader::new(bytes);
    if r.take(MAGIC.len(), "file magic")? != MAGIC {
        return Err(DistError::BadMagic);
    }
    let version = r.u16("format version")?;
    if version != FORMAT_VERSION {
        return Err(DistError::VersionMismatch { found: version });
    }
    let kind_tag = r.u8("sink kind")?;
    let reserved = r.u8("reserved byte")?;
    let header = PartHeader {
        fingerprint: r.u64("campaign fingerprint")?,
        part_index: r.u32("part index")?,
        part_count: r.u32("part count")?,
        shard_lo: r.u32("shard range start")?,
        shard_hi: r.u32("shard range end")?,
        n_shards_total: r.u32("grid size")?,
    };
    let payload_len = usize::try_from(r.u64("payload length")?)
        .map_err(|_| DistError::Malformed("payload length overflows".into()))?;

    // Structural completeness before anything is interpreted: the file must
    // be exactly header + payload + checksum. Checked arithmetic: the
    // length field is untrusted and must not be able to overflow us.
    let expected_len = HEADER_BYTES
        .checked_add(payload_len)
        .and_then(|v| v.checked_add(CHECKSUM_BYTES))
        .ok_or_else(|| DistError::Malformed("payload length overflows".into()))?;
    if bytes.len() < expected_len {
        return Err(DistError::Truncated {
            context: format!(
                "payload + checksum ({} bytes present, {expected_len} expected)",
                bytes.len()
            ),
        });
    }
    if bytes.len() > expected_len {
        return Err(DistError::Malformed(format!(
            "{} trailing bytes after the checksum",
            bytes.len() - expected_len
        )));
    }
    let computed = fnv1a64(&bytes[MAGIC.len()..HEADER_BYTES + payload_len]);
    let stored = u64::from_le_bytes(
        bytes[HEADER_BYTES + payload_len..]
            .try_into()
            .expect("checksum trailer is 8 bytes"),
    );
    if computed != stored {
        return Err(DistError::ChecksumMismatch { computed, stored });
    }

    if reserved != 0 {
        return Err(DistError::Malformed(format!(
            "reserved header byte is {reserved}, expected 0"
        )));
    }
    if kind_tag != S::KIND.tag() {
        return Err(DistError::KindMismatch {
            expected: S::KIND,
            found: kind_tag,
        });
    }
    if header.shard_lo > header.shard_hi
        || header.shard_hi > header.n_shards_total
        || header.part_index >= header.part_count
    {
        return Err(DistError::Malformed(format!(
            "inconsistent header ranges: part {}/{}, shards {}..{} of {}",
            header.part_index,
            header.part_count,
            header.shard_lo,
            header.shard_hi,
            header.n_shards_total
        )));
    }

    // Frames parse from a reader bounded to the *declared* payload, never
    // the whole file: a frame whose body length reaches past the payload
    // (into the checksum trailer) must be a structural error, not silently
    // adopted data. The file-level completeness check above already proved
    // the payload bytes are all present, so any shortfall in here is
    // malformed framing rather than truncation.
    let overrun = |context: &str, e: DistError| match e {
        DistError::Truncated { .. } => {
            DistError::Malformed(format!("{context} overruns the declared payload"))
        }
        other => other,
    };
    let mut frames = Reader::new(&bytes[HEADER_BYTES..HEADER_BYTES + payload_len]);
    let mut states = Vec::new();
    let mut expected_index = header.shard_lo;
    while frames.remaining() > 0 {
        let index = frames
            .u32("shard frame index")
            .map_err(|e| overrun("shard frame header", e))?;
        if index != expected_index {
            return Err(DistError::Malformed(format!(
                "shard frame {index} out of order (expected {expected_index})"
            )));
        }
        let body_len = frames
            .u32("shard frame length")
            .map_err(|e| overrun("shard frame header", e))? as usize;
        let body = frames
            .take(body_len, "shard frame body")
            .map_err(|e| overrun(&format!("shard frame {index}"), e))?;
        let mut body_reader = Reader::new(body);
        let state = S::decode_body(&mut body_reader)?;
        if body_reader.remaining() != 0 {
            return Err(DistError::Malformed(format!(
                "shard frame {index} carries {} unconsumed bytes",
                body_reader.remaining()
            )));
        }
        states.push(state);
        expected_index += 1;
    }
    if expected_index != header.shard_hi {
        return Err(DistError::Malformed(format!(
            "part covers shards {}..{} but carries frames up to {expected_index}",
            header.shard_lo, header.shard_hi
        )));
    }
    Ok((header, states))
}

/// Executes part `part_index` of a `part_count`-way plan over `config` and
/// returns the encoded shard-state file — the whole body of a
/// `polaris dist work` process.
///
/// # Errors
///
/// [`DistError::PlanMismatch`] for an out-of-range part index;
/// [`DistError::Sim`] if the design cannot be levelized.
pub fn execute_part<S>(
    netlist: &Netlist,
    model: &PowerModel,
    config: &CampaignConfig,
    parallelism: Parallelism,
    part_index: usize,
    part_count: usize,
) -> Result<Vec<u8>, DistError>
where
    S: ShardState + MergeableSink + Default,
{
    execute_part_traced_with(
        netlist,
        model,
        config,
        parallelism,
        part_index,
        part_count,
        S::default,
        &NullRecorder,
    )
}

/// [`execute_part`] with an explicit sink factory and a trace recorder — the
/// general form the plain call reduces to.
///
/// The factory builds each shard's *empty* private sink, for sinks whose
/// shape is configured at construction (e.g.
/// [`polaris_tvla::CoMomentAccumulator`], which must know its gate sets).
/// `recorder` gets one shard span per simulated shard (with the per-phase
/// split) plus a `plan_exec` frame naming the part's slot in the plan. The
/// encoded file is byte-identical to the untraced run.
///
/// # Errors
///
/// Same contract as [`execute_part`].
#[allow(clippy::too_many_arguments)]
pub fn execute_part_traced_with<S, F>(
    netlist: &Netlist,
    model: &PowerModel,
    config: &CampaignConfig,
    parallelism: Parallelism,
    part_index: usize,
    part_count: usize,
    factory: F,
    recorder: &dyn Recorder,
) -> Result<Vec<u8>, DistError>
where
    S: ShardState + MergeableSink,
    F: Fn() -> S + Sync,
{
    let n_shards = shard_grid(config).len();
    if part_count == 0 {
        return Err(DistError::PlanMismatch(
            "a plan needs at least one part".into(),
        ));
    }
    let ranges = partition_shards(n_shards, part_count);
    let range: Range<usize> = ranges.get(part_index).cloned().ok_or_else(|| {
        DistError::PlanMismatch(format!(
            "part index {part_index} out of range for a {part_count}-part plan"
        ))
    })?;
    let started = recorder.enabled().then(Instant::now);
    let states: Vec<S> = run_shard_states_traced_with(
        netlist,
        model,
        config,
        parallelism,
        range.clone(),
        factory,
        recorder,
    )?;
    if let Some(t0) = started {
        recorder.record(Payload::PlanExec {
            part: part_index as u64,
            parts: part_count as u64,
            shard_lo: range.start as u64,
            shard_hi: range.end as u64,
            wall_ns: t0.elapsed().as_nanos() as u64,
        });
    }
    let header = PartHeader {
        fingerprint: campaign_fingerprint(netlist, model, config),
        part_index: part_index as u32,
        part_count: part_count as u32,
        shard_lo: range.start as u32,
        shard_hi: range.end as u32,
        n_shards_total: n_shards as u32,
    };
    Ok(encode_part(&header, &states))
}

/// A complete, verified, centrally folded plan.
#[derive(Clone, Debug)]
pub struct Merged<S> {
    /// The accumulator folded over every shard in canonical grid order —
    /// byte-identical to the in-process
    /// [`polaris_sim::run_campaign_parallel`] fold.
    pub state: S,
    /// The fingerprint every part agreed on.
    pub fingerprint: u64,
    /// Shards folded (the full grid).
    pub n_shards: usize,
    /// Parts the plan was split into.
    pub parts: usize,
}

/// Folds a complete set of encoded part files in canonical shard order.
///
/// Every part must decode cleanly, agree on fingerprint / grid size / part
/// count (and match `expected_fingerprint` when given), and the shard
/// ranges must tile the grid exactly — missing, duplicate, or overlapping
/// parts are [`DistError::PlanMismatch`].
///
/// # Errors
///
/// A typed [`DistError`] for each failure class; see the variant docs.
pub fn merge_parts<'a, S>(
    parts: impl IntoIterator<Item = &'a [u8]>,
    expected_fingerprint: Option<u64>,
) -> Result<Merged<S>, DistError>
where
    S: ShardState + Default,
{
    merge_parts_traced(parts, expected_fingerprint, &NullRecorder)
}

/// [`merge_parts`] reporting structured trace events to `recorder`: one
/// `merge_fold` span per part (covering its shards' fold into the running
/// accumulator) and a final `merge_done` frame. The folded state is
/// byte-identical to the untraced merge.
///
/// # Errors
///
/// Same contract as [`merge_parts`].
pub fn merge_parts_traced<'a, S>(
    parts: impl IntoIterator<Item = &'a [u8]>,
    expected_fingerprint: Option<u64>,
    recorder: &dyn Recorder,
) -> Result<Merged<S>, DistError>
where
    S: ShardState + Default,
{
    let mut decoded: Vec<(PartHeader, Vec<S>)> = Vec::new();
    for bytes in parts {
        decoded.push(decode_part(bytes)?);
    }
    let first = decoded
        .first()
        .map(|(h, _)| *h)
        .ok_or_else(|| DistError::PlanMismatch("no parts supplied".into()))?;
    if let Some(expected) = expected_fingerprint {
        if first.fingerprint != expected {
            return Err(DistError::FingerprintMismatch {
                expected,
                found: first.fingerprint,
            });
        }
    }
    for (h, _) in &decoded {
        if h.fingerprint != first.fingerprint {
            return Err(DistError::FingerprintMismatch {
                expected: first.fingerprint,
                found: h.fingerprint,
            });
        }
        if h.part_count != first.part_count || h.n_shards_total != first.n_shards_total {
            return Err(DistError::PlanMismatch(format!(
                "part {} disagrees on the plan shape ({} parts / {} shards vs {} / {})",
                h.part_index,
                h.part_count,
                h.n_shards_total,
                first.part_count,
                first.n_shards_total
            )));
        }
    }
    if decoded.len() != first.part_count as usize {
        return Err(DistError::PlanMismatch(format!(
            "plan has {} parts, {} supplied",
            first.part_count,
            decoded.len()
        )));
    }
    decoded.sort_by_key(|(h, _)| (h.shard_lo, h.part_index));
    let mut next_shard = 0u32;
    for (expected_index, (h, _)) in decoded.iter().enumerate() {
        if h.part_index as usize != expected_index {
            return Err(DistError::PlanMismatch(format!(
                "duplicate or missing part index {} in the supplied set",
                h.part_index
            )));
        }
        if h.shard_lo != next_shard {
            return Err(DistError::PlanMismatch(format!(
                "part {} covers shards {}..{}, expected the range to start at {next_shard}",
                h.part_index, h.shard_lo, h.shard_hi
            )));
        }
        next_shard = h.shard_hi;
    }
    if next_shard != first.n_shards_total {
        return Err(DistError::PlanMismatch(format!(
            "parts cover {next_shard} shards, grid has {}",
            first.n_shards_total
        )));
    }

    // Shards must agree on the accumulator dimension (gate / guess count)
    // before anything folds: mismatched dimensions mean the parts came from
    // different designs, and the accumulator merges themselves only
    // debug-assert it (a release build would silently truncate).
    let mut dimension: Option<usize> = None;
    for (h, states) in &decoded {
        for s in states {
            let Some(d) = s.dimension() else { continue };
            match dimension {
                None => dimension = Some(d),
                Some(existing) if existing != d => {
                    return Err(DistError::PlanMismatch(format!(
                        "part {} carries shard states of dimension {d}, \
                         other parts have {existing}",
                        h.part_index
                    )))
                }
                Some(_) => {}
            }
        }
    }

    // Canonical fold: strictly ascending grid order, one shard at a time —
    // exactly the merge sequence of the in-process engine.
    let tracing = recorder.enabled();
    let merge_start = tracing.then(Instant::now);
    let mut acc: Option<S> = None;
    let parts_n = decoded.len();
    for (h, states) in decoded {
        let part_start = tracing.then(Instant::now);
        let shards = states.len() as u64;
        for s in states {
            match &mut acc {
                None => acc = Some(s),
                Some(a) => a.fold(s),
            }
        }
        if let Some(t0) = part_start {
            recorder.record(Payload::MergeFold {
                part: h.part_index as u64,
                shards,
                wall_ns: t0.elapsed().as_nanos() as u64,
            });
        }
    }
    if let Some(t0) = merge_start {
        recorder.record(Payload::MergeDone {
            parts: parts_n as u64,
            shards: first.n_shards_total as u64,
            wall_ns: t0.elapsed().as_nanos() as u64,
        });
    }
    Ok(Merged {
        state: acc.unwrap_or_default(),
        fingerprint: first.fingerprint,
        n_shards: first.n_shards_total as usize,
        parts: parts_n,
    })
}

/// Wraps a merged full-grid fold into the [`CampaignOutcome`] the
/// downstream flows (the masking flow's pre-folded baseline path) consume,
/// after re-verifying that the merge belongs to `(netlist, model, config)`.
///
/// # Errors
///
/// [`DistError::FingerprintMismatch`] / [`DistError::PlanMismatch`] if the
/// merge was produced for a different campaign.
pub fn merged_outcome<S>(
    netlist: &Netlist,
    model: &PowerModel,
    config: &CampaignConfig,
    merged: Merged<S>,
) -> Result<CampaignOutcome<S>, DistError> {
    let expected = campaign_fingerprint(netlist, model, config);
    if merged.fingerprint != expected {
        return Err(DistError::FingerprintMismatch {
            expected,
            found: merged.fingerprint,
        });
    }
    let n_shards = shard_grid(config).len();
    if merged.n_shards != n_shards {
        return Err(DistError::PlanMismatch(format!(
            "merge folded {} shards, campaign grid has {n_shards}",
            merged.n_shards
        )));
    }
    Ok(CampaignOutcome {
        sink: merged.state,
        // A merged plan is by construction a full-grid run: the single
        // "round" mirrors run_campaign_parallel's never-stopping schedule.
        stats: CampaignStats {
            fixed_traces: config.n_fixed,
            random_traces: config.n_random,
            rounds: 1,
            planned_rounds: 1,
            stopped_early: false,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_netlist::generators;
    use polaris_tvla::WelchAccumulator;

    fn c17_parts(parts: usize) -> (Netlist, CampaignConfig, Vec<Vec<u8>>) {
        let n = generators::iscas_c17();
        let cfg = CampaignConfig::new(600, 600, 5);
        let files: Vec<Vec<u8>> = (0..parts)
            .map(|i| {
                execute_part::<WelchAccumulator>(
                    &n,
                    &PowerModel::default(),
                    &cfg,
                    Parallelism::sequential(),
                    i,
                    parts,
                )
                .unwrap()
            })
            .collect();
        (n, cfg, files)
    }

    #[test]
    fn encode_decode_round_trip() {
        let (_, _, files) = c17_parts(2);
        for (i, f) in files.iter().enumerate() {
            let (h, states) = decode_part::<WelchAccumulator>(f).unwrap();
            assert_eq!(h.part_index as usize, i);
            assert_eq!(h.part_count, 2);
            assert_eq!(states.len(), (h.shard_hi - h.shard_lo) as usize);
        }
    }

    #[test]
    fn truncation_at_every_boundary_is_a_typed_error() {
        let (_, _, files) = c17_parts(1);
        let full = &files[0];
        for cut in [0, 4, 9, 11, 20, 47, full.len() - 9, full.len() - 1] {
            let err = decode_part::<WelchAccumulator>(&full[..cut]).unwrap_err();
            assert!(
                matches!(err, DistError::Truncated { .. }),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn corruption_is_a_checksum_error() {
        let (_, _, files) = c17_parts(1);
        let mut bytes = files[0].clone();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            decode_part::<WelchAccumulator>(&bytes),
            Err(DistError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn version_bump_is_a_version_error() {
        let (_, _, files) = c17_parts(1);
        let mut bytes = files[0].clone();
        bytes[8] = 0x7F; // version word, little-endian low byte
        assert!(matches!(
            decode_part::<WelchAccumulator>(&bytes),
            Err(DistError::VersionMismatch { found: 0x7F })
        ));
    }

    #[test]
    fn wrong_magic_and_wrong_kind_are_typed_errors() {
        let (_, _, files) = c17_parts(1);
        let mut bytes = files[0].clone();
        bytes[0] = b'X';
        assert!(matches!(
            decode_part::<WelchAccumulator>(&bytes),
            Err(DistError::BadMagic)
        ));
        assert!(matches!(
            decode_part::<polaris_sim::GateSamples>(&files[0]),
            Err(DistError::KindMismatch { found: 1, .. })
        ));
    }

    #[test]
    fn merge_rejects_incomplete_or_mixed_sets() {
        let (n, cfg, files) = c17_parts(2);
        fn slices(fs: &[Vec<u8>]) -> Vec<&[u8]> {
            fs.iter().map(Vec::as_slice).collect()
        }

        // Missing part.
        let err =
            merge_parts::<WelchAccumulator>(slices(&files[..1]).iter().copied(), None).unwrap_err();
        assert!(matches!(err, DistError::PlanMismatch(_)), "{err:?}");

        // Duplicate part.
        let dup = vec![files[0].clone(), files[0].clone()];
        let err = merge_parts::<WelchAccumulator>(slices(&dup).iter().copied(), None).unwrap_err();
        assert!(matches!(err, DistError::PlanMismatch(_)), "{err:?}");

        // Part from a different campaign.
        let other_cfg = CampaignConfig::new(600, 600, 6);
        let foreign = execute_part::<WelchAccumulator>(
            &n,
            &PowerModel::default(),
            &other_cfg,
            Parallelism::sequential(),
            1,
            2,
        )
        .unwrap();
        let mixed = vec![files[0].clone(), foreign];
        let err =
            merge_parts::<WelchAccumulator>(slices(&mixed).iter().copied(), None).unwrap_err();
        assert!(
            matches!(err, DistError::FingerprintMismatch { .. }),
            "{err:?}"
        );

        // Expected-fingerprint cross-check.
        let err = merge_parts::<WelchAccumulator>(slices(&files).iter().copied(), Some(0xDEAD))
            .unwrap_err();
        assert!(
            matches!(err, DistError::FingerprintMismatch { .. }),
            "{err:?}"
        );

        // The untouched set merges fine and matches the campaign.
        let merged = merge_parts::<WelchAccumulator>(slices(&files).iter().copied(), None).unwrap();
        merged_outcome(&n, &PowerModel::default(), &cfg, merged).unwrap();
    }

    #[test]
    fn mismatched_state_dimensions_are_rejected_before_folding() {
        // Two structurally valid parts that claim the same fingerprint but
        // carry different gate counts (i.e. forged or mis-assembled input)
        // must be refused by the merge, not silently truncated by the
        // accumulator fold.
        use polaris_tvla::StreamingMoments;
        let part = |index: u32, gates: usize| {
            let states = vec![WelchAccumulator::from_classes(
                vec![StreamingMoments::new(); gates],
                vec![StreamingMoments::new(); gates],
            )];
            encode_part(
                &PartHeader {
                    fingerprint: 0xF00D,
                    part_index: index,
                    part_count: 2,
                    shard_lo: index,
                    shard_hi: index + 1,
                    n_shards_total: 2,
                },
                &states,
            )
        };
        let files = [part(0, 3), part(1, 5)];
        let err =
            merge_parts::<WelchAccumulator>(files.iter().map(Vec::as_slice), None).unwrap_err();
        assert!(matches!(err, DistError::PlanMismatch(_)), "{err:?}");
        // Same dimensions fold fine.
        let files = [part(0, 3), part(1, 3)];
        merge_parts::<WelchAccumulator>(files.iter().map(Vec::as_slice), None).unwrap();
    }

    #[test]
    fn forged_payload_length_is_a_typed_error() {
        // A payload-length field of u64::MAX must not overflow the length
        // arithmetic (no panic, even in debug builds).
        let (_, _, files) = c17_parts(1);
        let mut bytes = files[0].clone();
        bytes[40..48].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = decode_part::<WelchAccumulator>(&bytes).unwrap_err();
        assert!(matches!(err, DistError::Malformed(_)), "{err:?}");
    }

    #[test]
    fn out_of_range_part_is_a_plan_error() {
        let n = generators::iscas_c17();
        let cfg = CampaignConfig::new(100, 100, 1);
        assert!(matches!(
            execute_part::<WelchAccumulator>(
                &n,
                &PowerModel::default(),
                &cfg,
                Parallelism::sequential(),
                5,
                2
            ),
            Err(DistError::PlanMismatch(_))
        ));
        // A zero-part plan is rejected up front rather than producing a
        // file whose header its own decoder would refuse.
        assert!(matches!(
            execute_part::<WelchAccumulator>(
                &n,
                &PowerModel::default(),
                &cfg,
                Parallelism::sequential(),
                0,
                0
            ),
            Err(DistError::PlanMismatch(_))
        ));
    }

    #[test]
    fn frame_reaching_into_the_checksum_trailer_is_malformed() {
        // A frame body length that extends past the declared payload (into
        // the checksum trailer) must be rejected as malformed — even when
        // the checksum is recomputed to match — never adopted as data.
        let header = PartHeader {
            fingerprint: 0xF00D,
            part_index: 0,
            part_count: 1,
            shard_lo: 0,
            shard_hi: 1,
            n_shards_total: 1,
        };
        let mut bytes = encode_part(&header, &[WelchAccumulator::new()]);
        // Layout: 48-byte header, 12-byte payload (index + len + 4-byte
        // empty-accumulator body), 8-byte checksum.
        assert_eq!(bytes.len(), 48 + 12 + 8);
        bytes[52..56].copy_from_slice(&12u32.to_le_bytes()); // body_len 4 → 12
        let checksum = fnv1a64(&bytes[8..60]);
        let end = bytes.len();
        bytes[end - 8..].copy_from_slice(&checksum.to_le_bytes());
        let err = decode_part::<WelchAccumulator>(&bytes).unwrap_err();
        assert!(
            matches!(&err, DistError::Malformed(m) if m.contains("overruns")),
            "{err:?}"
        );
    }
}
