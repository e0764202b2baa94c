//! Body encodings of the snapshotable accumulators — one [`ShardState`]
//! impl per [`polaris_sim::MergeableSink`] the campaign and CPA engines
//! fold (Welch moments, dense gate samples, CPA correlation sums, and the
//! co-moment sinks of every multivariate order).
//!
//! Bodies carry raw accumulator state, with every `f64` transported as its
//! bit pattern: `decode(encode(x))` reproduces `x` exactly, and
//! `encode(decode(encode(x))) == encode(x)` byte for byte (the identity the
//! workspace property suite pins).

use polaris_sim::campaign::MergeableSink;
use polaris_sim::GateSamples;
use polaris_tvla::{
    CoMomentAccumulator, CoMoments, CorrelationAccumulator, CpaAccumulator, Order,
    StreamingMoments, SupportedOrder, WelchAccumulator,
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
    /// Per-key-guess correlation sums ([`CpaAccumulator`]).
    Cpa,
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

    /// The wire tag (see the format table in the crate docs).
    pub fn tag(self) -> u8 {
        match self {
            SinkKind::Welch => 1,
            SinkKind::GateSamples => 2,
            SinkKind::Cpa => 3,
            SinkKind::Pairs => 4,
            SinkKind::Triples => 5,
        }
    }

    /// Resolves a wire tag; `None` for unknown tags.
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            1 => Some(SinkKind::Welch),
            2 => Some(SinkKind::GateSamples),
            3 => Some(SinkKind::Cpa),
            4 => Some(SinkKind::Pairs),
            5 => Some(SinkKind::Triples),
            _ => None,
        }
    }

    /// Human-readable name (used in plan manifests and error messages).
    pub fn name(self) -> &'static str {
        match self {
            SinkKind::Welch => "welch",
            SinkKind::GateSamples => "samples",
            SinkKind::Cpa => "cpa",
            SinkKind::Pairs => "pairs",
            SinkKind::Triples => "triples",
        }
    }

    /// Resolves a manifest name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "welch" => Some(SinkKind::Welch),
            "samples" => Some(SinkKind::GateSamples),
            "cpa" => Some(SinkKind::Cpa),
            "pairs" => Some(SinkKind::Pairs),
            "triples" => Some(SinkKind::Triples),
            _ => None,
        }
    }
}

/// An accumulator whose state can cross a process boundary: encode to the
/// shard-state body format, decode back, and fold in canonical order.
///
/// `fold` must behave exactly like the in-process merge of the same
/// accumulator (it *is* that merge for every impl here), so a central fold
/// over restored states is bit-identical to the single-process fold.
pub trait ShardState: Sized {
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

    /// Folds `other` (the state of the *following* shard range) into
    /// `self`.
    fn fold(&mut self, other: Self);

    /// The cross-shard dimension this state is committed to (gate count for
    /// the campaign sinks, guess count for CPA), or `None` when the state
    /// is empty and imposes no constraint. [`crate::merge_parts`] refuses
    /// to fold states that disagree — the accumulator merges themselves
    /// only debug-assert the dimension, so without this check a release
    /// build would silently truncate mismatched parts.
    fn dimension(&self) -> Option<usize>;
}

const MOMENTS_WIRE_BYTES: usize = 8 + 4 * 8;

fn put_moments(out: &mut Vec<u8>, m: &StreamingMoments) {
    let (n, mean, m2, m3, m4) = m.raw_parts();
    put_u64(out, n);
    put_f64(out, mean);
    put_f64(out, m2);
    put_f64(out, m3);
    put_f64(out, m4);
}

fn read_moments(r: &mut Reader<'_>, context: &str) -> Result<StreamingMoments, DistError> {
    let n = r.u64(context)?;
    let mean = r.f64(context)?;
    let m2 = r.f64(context)?;
    let m3 = r.f64(context)?;
    let m4 = r.f64(context)?;
    Ok(StreamingMoments::from_raw_parts(n, mean, m2, m3, m4))
}

impl ShardState for WelchAccumulator {
    const KIND: SinkKind = SinkKind::Welch;

    /// `gates (u32)`, then `gates` fixed-class moment records followed by
    /// `gates` random-class records, each `n (u64), mean, M2, M3, M4`.
    fn encode_body(&self, out: &mut Vec<u8>) {
        let (fixed, random) = self.classes();
        put_u32(
            out,
            u32::try_from(fixed.len()).expect("gate count fits u32"),
        );
        for m in fixed.iter().chain(random) {
            put_moments(out, m);
        }
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<Self, DistError> {
        let gates = r.u32("welch gate count")? as usize;
        r.expect_elements(gates, 2 * MOMENTS_WIRE_BYTES, "welch moment records")?;
        let mut read_class = |class: &str| -> Result<Vec<StreamingMoments>, DistError> {
            let mut v = Vec::with_capacity(gates);
            for _ in 0..gates {
                v.push(read_moments(r, class)?);
            }
            Ok(v)
        };
        let fixed = read_class("welch fixed-class moments")?;
        let random = read_class("welch random-class moments")?;
        Ok(WelchAccumulator::from_classes(fixed, random))
    }

    fn fold(&mut self, other: Self) {
        MergeableSink::merge(self, other);
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

    fn fold(&mut self, other: Self) {
        MergeableSink::merge(self, other);
    }

    fn dimension(&self) -> Option<usize> {
        // A one-population shard leaves the unseen class empty, so the
        // committed dimension is whichever class has gates.
        let (fixed, random) = self.classes();
        let gates = fixed.len().max(random.len());
        (gates > 0).then_some(gates)
    }
}

impl ShardState for CpaAccumulator {
    const KIND: SinkKind = SinkKind::Cpa;

    /// `guesses (u32)`, then one record per key guess:
    /// `n (u64), mean_x, mean_y, M2x, M2y, Cxy`.
    fn encode_body(&self, out: &mut Vec<u8>) {
        let per_guess = self.guess_accumulators();
        put_u32(
            out,
            u32::try_from(per_guess.len()).expect("guess count fits u32"),
        );
        for acc in per_guess {
            let (n, mean_x, mean_y, m2x, m2y, cxy) = acc.raw_parts();
            put_u64(out, n);
            put_f64(out, mean_x);
            put_f64(out, mean_y);
            put_f64(out, m2x);
            put_f64(out, m2y);
            put_f64(out, cxy);
        }
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<Self, DistError> {
        let guesses = r.u32("cpa guess count")? as usize;
        r.expect_elements(guesses, 8 + 5 * 8, "cpa correlation records")?;
        let mut per_guess = Vec::with_capacity(guesses);
        for _ in 0..guesses {
            let n = r.u64("cpa correlation record")?;
            let mean_x = r.f64("cpa correlation record")?;
            let mean_y = r.f64("cpa correlation record")?;
            let m2x = r.f64("cpa correlation record")?;
            let m2y = r.f64("cpa correlation record")?;
            let cxy = r.f64("cpa correlation record")?;
            per_guess.push(CorrelationAccumulator::from_raw_parts(
                n, mean_x, mean_y, m2x, m2y, cxy,
            ));
        }
        Ok(CpaAccumulator::from_guess_accumulators(per_guess))
    }

    fn fold(&mut self, other: Self) {
        self.merge(&other);
    }

    fn dimension(&self) -> Option<usize> {
        let guesses = self.guess_accumulators().len();
        (guesses > 0).then_some(guesses)
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

    /// `sets (u32)`, then `sets` gate-index records of K × `u32`, then
    /// `sets` fixed-class co-moment records followed by `sets` random-class
    /// records, each `n (u64)` + [`CoMoments::RAW_LEN`] × f64 (the K means,
    /// then the tracked co-moments in lexicographic order — the
    /// [`CoMoments::raw_parts`] layout).
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
        for m in fixed.iter().chain(random) {
            let (n, words) = m.raw_parts();
            put_u64(out, n);
            for w in words {
                put_f64(out, w);
            }
        }
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<Self, DistError> {
        let count = r.u32("gate-set count")? as usize;
        let record = 8 + 8 * CoMoments::<K>::RAW_LEN;
        r.expect_elements(count, 4 * K + 2 * record, "gate-set records")?;
        let mut sets = Vec::with_capacity(count);
        for _ in 0..count {
            let mut set = [0u32; K];
            for g in &mut set {
                *g = r.u32("gate-set index")?;
            }
            sets.push(set);
        }
        let mut read_class = |class: &str| -> Result<Vec<CoMoments<K>>, DistError> {
            let mut v = Vec::with_capacity(count);
            let mut words = vec![0.0; CoMoments::<K>::RAW_LEN];
            for _ in 0..count {
                let n = r.u64(class)?;
                for w in &mut words {
                    *w = r.f64(class)?;
                }
                v.push(CoMoments::from_raw_parts(n, &words));
            }
            Ok(v)
        };
        let fixed = read_class("fixed-class co-moments")?;
        let random = read_class("random-class co-moments")?;
        Ok(CoMomentAccumulator::from_parts(sets, fixed, random))
    }

    fn fold(&mut self, other: Self) {
        MergeableSink::merge(self, other);
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
        round_trip(&CpaAccumulator::new(0));
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
    fn cpa_round_trips_extreme_values() {
        let per_guess = vec![
            CorrelationAccumulator::from_raw_parts(
                u64::MAX,
                f64::MIN_POSITIVE,
                -0.0,
                1e308,
                f64::INFINITY,
                f64::NAN,
            ),
            CorrelationAccumulator::new(),
        ];
        let acc = CpaAccumulator::from_guess_accumulators(per_guess);
        let back = round_trip(&acc);
        assert_eq!(back.guess_accumulators().len(), 2);
        let (n, _, _, _, m2y, cxy) = back.guess_accumulators()[0].raw_parts();
        assert_eq!(n, u64::MAX);
        assert_eq!(m2y, f64::INFINITY);
        assert!(cxy.is_nan());
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
            CpaAccumulator::decode_body(&mut r),
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
