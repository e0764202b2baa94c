//! Body encodings of the snapshotable accumulators — one [`ShardState`]
//! impl per [`MergeableSink`] the campaign engine folds (Welch moments,
//! dense gate samples, and the co-moment sinks of every multivariate
//! order).
//!
//! Bodies carry raw accumulator state, with every `f64` transported as its
//! bit pattern; the moment bodies frame each class behind a presence byte,
//! so a one-population shard carries one class. `decode(encode(x))`
//! reproduces `x` exactly, and
//! `encode(decode(encode(x))) == encode(x)` byte for byte (the identity the
//! workspace property suite pins).

use polaris_sim::campaign::MergeableSink;
use polaris_sim::GateSamples;
use polaris_tvla::{
    CoMomentAccumulator, CoMoments, Order, StreamingMoments, SupportedOrder, WelchAccumulator,
};

use crate::wire::{put_f64, put_u32, put_u64, Reader};
use crate::DistError;

/// Tag of the accumulator family a shard-state file carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SinkKind {
    /// Per-gate streaming Welch moments ([`WelchAccumulator`]).
    Welch,
    /// Dense per-gate sample buffers ([`GateSamples`]).
    GateSamples,
    /// Per-gate-pair bivariate co-moments ([`CoMomentAccumulator<2>`]).
    Pairs,
    /// Per-gate-triple trivariate co-moments ([`CoMomentAccumulator<3>`]).
    Triples,
}

impl SinkKind {
    /// The co-moment sink of `order` gates per set, if there is one.
    pub const fn for_order(order: usize) -> Option<Self> {
        match order {
            2 => Some(SinkKind::Pairs),
            3 => Some(SinkKind::Triples),
            _ => None,
        }
    }

    /// Gates per set of a co-moment sink; `None` for the other kinds.
    pub fn order(self) -> Option<usize> {
        match self {
            SinkKind::Pairs => Some(2),
            SinkKind::Triples => Some(3),
            _ => None,
        }
    }

    /// The wire tag (see the format table in the crate docs; tag 3 is
    /// retired and never reused).
    pub fn tag(self) -> u8 {
        match self {
            SinkKind::Welch => 1,
            SinkKind::GateSamples => 2,
            SinkKind::Pairs => 4,
            SinkKind::Triples => 5,
        }
    }

    /// Human-readable name (used in plan manifests and error messages).
    pub fn name(self) -> &'static str {
        match self {
            SinkKind::Welch => "welch",
            SinkKind::GateSamples => "samples",
            SinkKind::Pairs => "pairs",
            SinkKind::Triples => "triples",
        }
    }

    /// Resolves a manifest name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "welch" => Some(SinkKind::Welch),
            "samples" => Some(SinkKind::GateSamples),
            "pairs" => Some(SinkKind::Pairs),
            "triples" => Some(SinkKind::Triples),
            _ => None,
        }
    }
}

/// A [`MergeableSink`] whose state can cross a process boundary: encode to
/// the shard-state body format and decode back bit-exactly, so a central
/// [`MergeableSink::merge`] fold over restored states is bit-identical to
/// the single-process fold.
pub trait ShardState: MergeableSink + Sized {
    /// The wire tag this state is framed under.
    const KIND: SinkKind;

    /// Appends the body encoding of `self` to `out`.
    fn encode_body(&self, out: &mut Vec<u8>);

    /// Decodes one body from `r` (untrusted input; must bound allocations
    /// and never panic).
    ///
    /// # Errors
    ///
    /// [`DistError::Truncated`] / [`DistError::Malformed`] on short or
    /// structurally invalid input.
    fn decode_body(r: &mut Reader<'_>) -> Result<Self, DistError>;

    /// The cross-shard dimension this state is committed to (gate count for
    /// the per-gate sinks, gate-set count for the co-moment sinks), or
    /// `None` when the state is empty and imposes no constraint.
    /// [`crate::merge_parts`] refuses to fold states that disagree — the
    /// accumulator merges themselves only debug-assert the dimension, so
    /// without this check a release build would silently truncate
    /// mismatched parts.
    fn dimension(&self) -> Option<usize>;
}

/// A fixed-width moment record: one gate's (or gate set's) accumulator
/// state in one class, transported as its raw parts.
trait MomentRecord: Clone + Default {
    /// Encoded bytes per record.
    const WIRE_BYTES: usize;

    /// Appends the record: `n (u64)`, then its raw `f64` words.
    fn put(&self, out: &mut Vec<u8>);

    /// Reads one record written by [`MomentRecord::put`].
    fn read(r: &mut Reader<'_>, context: &str) -> Result<Self, DistError>;

    /// Whether every raw word is 0, bit for bit — the type's empty state
    /// (so a `-0.0` field is not empty).
    fn is_empty_state(&self) -> bool;
}

impl MomentRecord for StreamingMoments {
    const WIRE_BYTES: usize = 8 + 4 * 8;

    fn put(&self, out: &mut Vec<u8>) {
        let (n, mean, m2, m3, m4) = self.raw_parts();
        put_u64(out, n);
        for w in [mean, m2, m3, m4] {
            put_f64(out, w);
        }
    }

    fn read(r: &mut Reader<'_>, context: &str) -> Result<Self, DistError> {
        // One bounds check per record, not per word.
        let b = r.take(Self::WIRE_BYTES, context)?;
        let w: [u64; 5] = std::array::from_fn(|i| {
            u64::from_le_bytes(b[8 * i..8 * i + 8].try_into().expect("an 8-byte word"))
        });
        let [mean, m2, m3, m4] = [w[1], w[2], w[3], w[4]].map(f64::from_bits);
        Ok(StreamingMoments::from_raw_parts(w[0], mean, m2, m3, m4))
    }

    fn is_empty_state(&self) -> bool {
        let (n, mean, m2, m3, m4) = self.raw_parts();
        n == 0 && [mean, m2, m3, m4].iter().all(|w| w.to_bits() == 0)
    }
}

impl<const K: usize> MomentRecord for CoMoments<K>
where
    Order<K>: SupportedOrder,
{
    const WIRE_BYTES: usize = 8 + 8 * Self::RAW_LEN;

    fn put(&self, out: &mut Vec<u8>) {
        let (n, words) = self.raw_parts();
        put_u64(out, n);
        for w in words {
            put_f64(out, w);
        }
    }

    fn read(r: &mut Reader<'_>, context: &str) -> Result<Self, DistError> {
        let n = r.u64(context)?;
        let words = (0..Self::RAW_LEN)
            .map(|_| r.f64(context))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CoMoments::from_raw_parts(n, &words))
    }

    fn is_empty_state(&self) -> bool {
        let (n, words) = self.raw_parts();
        n == 0 && words.iter().all(|w| w.to_bits() == 0)
    }
}

/// Appends the class frames of a moment body whose count (`fixed.len()`)
/// is already written: per class (fixed, then random) a presence byte,
/// then that class's records if it is 1. A class whose records are all in
/// the empty state is omitted (byte 0); a shard holds one population, so
/// this halves its body. At most one class is omitted — if both are empty,
/// the fixed class is written. A zero count writes nothing.
fn put_classes<R: MomentRecord>(out: &mut Vec<u8>, fixed: &[R], random: &[R]) {
    if fixed.is_empty() {
        return;
    }
    let random_present = !random.iter().all(R::is_empty_state);
    let fixed_present = !random_present || !fixed.iter().all(R::is_empty_state);
    for (present, class) in [(fixed_present, fixed), (random_present, random)] {
        out.push(u8::from(present));
        if present {
            for m in class {
                m.put(out);
            }
        }
    }
}

/// Reads the class frames [`put_classes`] wrote for `count` records per
/// class; `contexts` name the fixed and random class in errors. The
/// omitted class is rebuilt as `count` empty states, an allocation the
/// present class's bytes bound.
fn read_classes<R: MomentRecord>(
    r: &mut Reader<'_>,
    count: usize,
    contexts: [&str; 2],
) -> Result<(Vec<R>, Vec<R>), DistError> {
    if count == 0 {
        return Ok((Vec::new(), Vec::new()));
    }
    let mut read_class = |class: &str| -> Result<Option<Vec<R>>, DistError> {
        match r.u8(class)? {
            0 => Ok(None),
            1 => {
                r.expect_elements(count, R::WIRE_BYTES, class)?;
                let mut v = Vec::with_capacity(count);
                for _ in 0..count {
                    v.push(R::read(r, class)?);
                }
                Ok(Some(v))
            }
            flag => Err(DistError::Malformed(format!(
                "{class}: presence byte {flag}, expected 0 or 1"
            ))),
        }
    };
    let fixed = read_class(contexts[0])?;
    let random = read_class(contexts[1])?;
    match (fixed, random) {
        (Some(fixed), Some(random)) => Ok((fixed, random)),
        (Some(fixed), None) => Ok((fixed, vec![R::default(); count])),
        (None, Some(random)) => Ok((vec![R::default(); count], random)),
        (None, None) => Err(DistError::Malformed(format!(
            "{} and {} are both omitted",
            contexts[0], contexts[1]
        ))),
    }
}

impl ShardState for WelchAccumulator {
    const KIND: SinkKind = SinkKind::Welch;

    /// `gates (u32)`, then per class (fixed, then random) a presence byte
    /// and, if it is 1, `gates` moment records of `n (u64), mean, M2, M3,
    /// M4`. Byte 0 stands for `gates` empty states; at most one class is
    /// omitted, and zero gates leave the body as the count alone.
    fn encode_body(&self, out: &mut Vec<u8>) {
        let (fixed, random) = self.classes();
        put_u32(
            out,
            u32::try_from(fixed.len()).expect("gate count fits u32"),
        );
        put_classes(out, fixed, random);
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<Self, DistError> {
        let gates = r.u32("welch gate count")? as usize;
        let (fixed, random) = read_classes(
            r,
            gates,
            ["welch fixed-class moments", "welch random-class moments"],
        )?;
        Ok(WelchAccumulator::from_classes(fixed, random))
    }

    fn dimension(&self) -> Option<usize> {
        let (fixed, _) = self.classes();
        (!fixed.is_empty()).then_some(fixed.len())
    }
}

impl ShardState for GateSamples {
    const KIND: SinkKind = SinkKind::GateSamples;

    /// Per class (fixed, then random): `gates (u32)`, then per gate
    /// `samples (u32), samples × f64`. The classes may disagree on the gate
    /// count — a one-population shard leaves the unseen class empty.
    fn encode_body(&self, out: &mut Vec<u8>) {
        let (fixed, random) = self.classes();
        for class in [fixed, random] {
            put_u32(
                out,
                u32::try_from(class.len()).expect("gate count fits u32"),
            );
            for samples in class {
                put_u32(
                    out,
                    u32::try_from(samples.len()).expect("shard sample count fits u32"),
                );
                for &s in samples {
                    put_f64(out, s);
                }
            }
        }
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<Self, DistError> {
        let mut read_class = |class: &str| -> Result<Vec<Vec<f64>>, DistError> {
            let gates = r.u32(class)? as usize;
            r.expect_elements(gates, 4, class)?;
            let mut v = Vec::with_capacity(gates);
            for _ in 0..gates {
                let count = r.u32(class)? as usize;
                r.expect_elements(count, 8, class)?;
                let mut samples = Vec::with_capacity(count);
                for _ in 0..count {
                    samples.push(r.f64(class)?);
                }
                v.push(samples);
            }
            Ok(v)
        };
        let fixed = read_class("fixed-class gate samples")?;
        let random = read_class("random-class gate samples")?;
        Ok(GateSamples::from_classes(fixed, random))
    }

    fn dimension(&self) -> Option<usize> {
        // A one-population shard leaves the unseen class empty, so the
        // committed dimension is whichever class has gates.
        let (fixed, random) = self.classes();
        let gates = fixed.len().max(random.len());
        (gates > 0).then_some(gates)
    }
}

impl<const K: usize> ShardState for CoMomentAccumulator<K>
where
    Order<K>: SupportedOrder,
{
    const KIND: SinkKind = match SinkKind::for_order(K) {
        Some(kind) => kind,
        None => panic!("co-moment order without a shard-state kind"),
    };

    /// `sets (u32)`, then `sets` gate-index records of K × `u32`, then the
    /// class frames of the Welch body: per class (fixed, then random) a
    /// presence byte and, if it is 1, `sets` co-moment records, each
    /// `n (u64)` + [`CoMoments::RAW_LEN`] × f64 (the K means, then the
    /// tracked co-moments in lexicographic order — the
    /// [`CoMoments::raw_parts`] layout). At most one class is omitted, and
    /// zero sets leave the body as the count alone.
    fn encode_body(&self, out: &mut Vec<u8>) {
        let sets = self.gate_sets();
        put_u32(
            out,
            u32::try_from(sets.len()).expect("gate-set count fits u32"),
        );
        for &g in sets.iter().flatten() {
            put_u32(out, g);
        }
        let (fixed, random) = self.class_moments();
        put_classes(out, fixed, random);
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<Self, DistError> {
        let count = r.u32("gate-set count")? as usize;
        r.expect_elements(count, 4 * K, "gate-set records")?;
        let mut sets = Vec::with_capacity(count);
        for _ in 0..count {
            let mut set = [0u32; K];
            for g in &mut set {
                *g = r.u32("gate-set index")?;
            }
            sets.push(set);
        }
        let (fixed, random) = read_classes(
            r,
            count,
            ["fixed-class co-moments", "random-class co-moments"],
        )?;
        Ok(CoMomentAccumulator::from_parts(sets, fixed, random))
    }

    fn dimension(&self) -> Option<usize> {
        let sets = self.gate_sets().len();
        (sets > 0).then_some(sets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_tvla::{PairAccumulator, PairMoments, TripleAccumulator, TripleMoments};

    fn round_trip<S: ShardState>(state: &S) -> S {
        let mut bytes = Vec::new();
        state.encode_body(&mut bytes);
        let mut r = Reader::new(&bytes);
        let decoded = S::decode_body(&mut r).expect("decodes");
        assert_eq!(r.remaining(), 0, "body fully consumed");
        let mut re = Vec::new();
        decoded.encode_body(&mut re);
        assert_eq!(bytes, re, "encode∘decode∘encode identity");
        decoded
    }

    #[test]
    fn welch_round_trips_bit_exactly() {
        let mut acc = WelchAccumulator::new();
        use polaris_sim::campaign::{EnergyBatch, Population, TraceSink};
        let e: Vec<f64> = (0..6).map(|i| (i as f64).exp() * 1e-3).collect();
        acc.record_batch(
            Population::Fixed,
            EnergyBatch::new(&e, 3, 2).expect("well-formed"),
        );
        acc.record_batch(
            Population::Random,
            EnergyBatch::new(&e, 3, 2).expect("well-formed"),
        );
        let back = round_trip(&acc);
        let (f0, r0) = acc.classes();
        let (f1, r1) = back.classes();
        assert_eq!(f0, f1);
        assert_eq!(r0, r1);
    }

    #[test]
    fn empty_states_round_trip() {
        round_trip(&WelchAccumulator::new());
        round_trip(&GateSamples::default());
        round_trip(&PairAccumulator::default());
        round_trip(&TripleAccumulator::default());
        round_trip(&TripleAccumulator::for_triples(vec![(0, 1, 2)]));
    }

    #[test]
    fn pairs_round_trip_bit_exactly() {
        use polaris_sim::campaign::{EnergyBatch, Population, TraceSink};
        let mut acc = PairAccumulator::new(&[[0u32, 2], [1, 2]]);
        let e: Vec<f64> = (0..6).map(|i| (i as f64).sin() * 1e-2).collect();
        acc.record_batch(
            Population::Fixed,
            EnergyBatch::new(&e, 3, 2).expect("well-formed"),
        );
        acc.record_batch(
            Population::Random,
            EnergyBatch::new(&e, 3, 2).expect("well-formed"),
        );
        let back = round_trip(&acc);
        assert_eq!(acc, back);
    }

    #[test]
    fn pairs_round_trip_extreme_values() {
        let extreme = PairMoments::from_raw_parts(
            u64::MAX,
            &[
                f64::MIN_POSITIVE,
                -0.0,
                1e308,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
                -1e-308,
                0.0,
            ],
        );
        let acc = PairAccumulator::from_parts(
            vec![[7, u32::MAX]],
            vec![extreme],
            vec![PairMoments::default()],
        );
        let back = round_trip(&acc);
        let (fixed, _) = back.class_moments();
        let (n, parts) = fixed[0].raw_parts();
        assert_eq!(n, u64::MAX);
        assert_eq!(parts[3], f64::INFINITY);
        assert!(parts[5].is_nan());
        assert_eq!(parts[1].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn triples_round_trip_bit_exactly() {
        use polaris_sim::campaign::{EnergyBatch, Population, TraceSink};
        let mut acc = TripleAccumulator::for_triples(vec![(0, 2, 3), (1, 2, 3)]);
        let e: Vec<f64> = (0..8).map(|i| (i as f64).sin() * 1e-2).collect();
        acc.record_batch(
            Population::Fixed,
            EnergyBatch::new(&e, 4, 2).expect("well-formed"),
        );
        acc.record_batch(
            Population::Random,
            EnergyBatch::new(&e, 4, 2).expect("well-formed"),
        );
        let back = round_trip(&acc);
        assert_eq!(acc, back);
    }

    #[test]
    fn triples_round_trip_extreme_values() {
        let mut parts = [0.0f64; TripleMoments::RAW_LEN];
        parts[0] = f64::MIN_POSITIVE;
        parts[1] = -0.0;
        parts[3] = f64::INFINITY;
        parts[4] = f64::NEG_INFINITY;
        parts[5] = f64::NAN;
        parts[25] = -1e-308;
        let extreme = TripleMoments::from_raw_parts(u64::MAX, &parts);
        let acc = TripleAccumulator::from_parts(
            vec![[7, 9, u32::MAX]],
            vec![extreme],
            vec![TripleMoments::default()],
        );
        let back = round_trip(&acc);
        let (fixed, _) = back.class_moments();
        let (n, got) = fixed[0].raw_parts();
        assert_eq!(n, u64::MAX);
        assert_eq!(got[3], f64::INFINITY);
        assert!(got[5].is_nan());
        assert_eq!(got[1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(got[25], -1e-308);
    }

    fn body<S: ShardState>(state: &S) -> Vec<u8> {
        let mut bytes = Vec::new();
        state.encode_body(&mut bytes);
        bytes
    }

    fn raw_bits(m: &StreamingMoments) -> [u64; 5] {
        let (n, mean, m2, m3, m4) = m.raw_parts();
        [n, mean.to_bits(), m2.to_bits(), m3.to_bits(), m4.to_bits()]
    }

    #[test]
    fn one_population_shards_omit_the_empty_class() {
        use polaris_sim::campaign::{EnergyBatch, Population, TraceSink};
        let e: Vec<f64> = (0..10).map(|i| (i as f64).cos() * 1e-2).collect();
        for population in [Population::Fixed, Population::Random] {
            let mut welch = WelchAccumulator::new();
            welch.record_batch(population, EnergyBatch::new(&e, 5, 2).expect("well-formed"));
            assert_eq!(body(&welch).len(), 4 + 2 + 40 * 5);
            round_trip(&welch);

            let mut pairs = PairAccumulator::new(&[[0u32, 2], [1, 4], [3, 4]]);
            pairs.record_batch(population, EnergyBatch::new(&e, 5, 2).expect("well-formed"));
            let record = 8 + 8 * PairMoments::RAW_LEN;
            assert_eq!(body(&pairs).len(), 4 + 8 * 3 + 2 + record * 3);
            assert_eq!(round_trip(&pairs), pairs);
        }
    }

    #[test]
    fn one_class_frames_round_trip_bit_exactly() {
        let full = StreamingMoments::from_raw_parts(3, 1.5, 0.25, -0.125, 2.0);
        let negative_zero = StreamingMoments::from_raw_parts(0, -0.0, 0.0, 0.0, 0.0);
        let empty = StreamingMoments::new();
        let cases = [
            // An all-zero class with one -0.0 mean is not empty: written out.
            (
                vec![empty, negative_zero],
                vec![full, full],
                4 + 2 + 2 * 2 * 40,
            ),
            (vec![full, empty], vec![empty, empty], 4 + 2 + 2 * 40),
            (vec![empty, empty], vec![empty, full], 4 + 2 + 2 * 40),
            // Both classes empty: the fixed class is written.
            (vec![empty; 3], vec![empty; 3], 4 + 2 + 3 * 40),
        ];
        for (fixed, random, len) in cases {
            let acc = WelchAccumulator::from_classes(fixed, random);
            assert_eq!(body(&acc).len(), len);
            let back = round_trip(&acc);
            let bits = |w: &WelchAccumulator| {
                let (f, r) = w.classes();
                f.iter().chain(r).map(raw_bits).collect::<Vec<_>>()
            };
            assert_eq!(bits(&back), bits(&acc));
        }

        let mut words = vec![0.0; PairMoments::RAW_LEN];
        words[0] = -0.0;
        let acc = PairAccumulator::from_parts(
            vec![[0, 1], [1, 2]],
            vec![
                PairMoments::default(),
                PairMoments::from_raw_parts(0, &words),
            ],
            vec![PairMoments::default(); 2],
        );
        let record = 8 + 8 * PairMoments::RAW_LEN;
        assert_eq!(body(&acc).len(), 4 + 2 * 8 + 2 + 2 * record);
        let back = round_trip(&acc);
        let (fixed, _) = back.class_moments();
        assert_eq!(fixed[1].raw_parts().1[0].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn bad_presence_bytes_are_malformed() {
        // A forged count with both classes omitted fails before the
        // omitted classes are built.
        let mut bytes = Vec::new();
        put_u32(&mut bytes, u32::MAX);
        bytes.extend_from_slice(&[0, 0]);
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            WelchAccumulator::decode_body(&mut r),
            Err(DistError::Malformed(_))
        ));

        let mut bytes = Vec::new();
        put_u32(&mut bytes, 1);
        for g in [0u32, 1] {
            put_u32(&mut bytes, g);
        }
        bytes.extend_from_slice(&[0, 0]);
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            PairAccumulator::decode_body(&mut r),
            Err(DistError::Malformed(_))
        ));

        // A presence byte other than 0 or 1.
        for flags in [[2u8, 0], [1, 2]] {
            let mut acc = body(&WelchAccumulator::from_classes(
                vec![StreamingMoments::from_raw_parts(1, 1.0, 0.0, 0.0, 0.0)],
                vec![StreamingMoments::from_raw_parts(1, 2.0, 0.0, 0.0, 0.0)],
            ));
            acc[4] = flags[0];
            acc[4 + 1 + 40] = flags[1];
            let mut r = Reader::new(&acc);
            assert!(
                matches!(
                    WelchAccumulator::decode_body(&mut r),
                    Err(DistError::Malformed(m)) if m.contains("presence byte 2")
                ),
                "{flags:?}"
            );
        }
    }

    #[test]
    fn forged_counts_do_not_allocate() {
        // A body claiming 2^31 gates but carrying 4 bytes must fail cleanly.
        let mut bytes = Vec::new();
        put_u32(&mut bytes, u32::MAX);
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            WelchAccumulator::decode_body(&mut r),
            Err(DistError::Truncated { .. })
        ));
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            PairAccumulator::decode_body(&mut r),
            Err(DistError::Truncated { .. })
        ));
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            TripleAccumulator::decode_body(&mut r),
            Err(DistError::Truncated { .. })
        ));
    }
}
