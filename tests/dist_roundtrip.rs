//! Property tests for the `polaris-dist` shard-state codecs: encoding is a
//! lossless bijection on accumulator state. For every sink kind,
//! `decode(encode(x))` carries exactly `x`'s bytes — pinned via the
//! `encode(decode(encode(x))) == encode(x)` identity — over arbitrary
//! accumulator contents, including empty shards and extreme moment values
//! (the floats are drawn from arbitrary *bit patterns*, so subnormals,
//! infinities, and NaN payloads are all exercised).

use proptest::prelude::*;

use polaris_dist::wire::Reader;
use polaris_dist::{decode_part, encode_part, PartHeader, ShardState};

use polaris_sim::GateSamples;
use polaris_tvla::{
    CoMomentAccumulator, CoMoments, CorrelationAccumulator, CpaAccumulator, Order, PairAccumulator,
    StreamingMoments, SupportedOrder, TripleAccumulator, WelchAccumulator,
};

/// Encode → decode → encode; asserts the two encodings are byte-identical
/// and returns the decoded value for extra checks.
fn round_trip<S: ShardState>(state: &S) -> S {
    let mut first = Vec::new();
    state.encode_body(&mut first);
    let mut r = Reader::new(&first);
    let decoded = S::decode_body(&mut r).expect("well-formed body decodes");
    assert_eq!(r.remaining(), 0, "decode must consume the whole body");
    let mut second = Vec::new();
    decoded.encode_body(&mut second);
    assert_eq!(first, second, "encode∘decode∘encode must be the identity");
    decoded
}

/// Arbitrary `f64` by bit pattern: covers normals, subnormals, ±0, ±∞, and
/// every NaN payload — the codec transports bits, so all must survive.
fn arb_f64() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(f64::from_bits)
}

fn arb_moments() -> impl Strategy<Value = StreamingMoments> {
    (any::<u64>(), arb_f64(), arb_f64(), arb_f64(), arb_f64())
        .prop_map(|(n, mean, m2, m3, m4)| StreamingMoments::from_raw_parts(n, mean, m2, m3, m4))
}

fn arb_co_moments<const K: usize>() -> impl Strategy<Value = CoMoments<K>>
where
    Order<K>: SupportedOrder,
{
    (
        any::<u64>(),
        prop::collection::vec(arb_f64(), CoMoments::<K>::RAW_LEN),
    )
        .prop_map(|(n, f)| CoMoments::from_raw_parts(n, &f))
}

/// Round-trips a co-moment accumulator built from `entries` and checks the
/// gate sets and every raw word survive bit for bit.
fn co_moment_bodies_round_trip<const K: usize>(
    entries: Vec<([u32; K], CoMoments<K>, CoMoments<K>)>,
) -> TestCaseResult
where
    Order<K>: SupportedOrder,
{
    let mut sets = Vec::new();
    let mut fixed = Vec::new();
    let mut random = Vec::new();
    for (set, f, r) in entries {
        sets.push(set);
        fixed.push(f);
        random.push(r);
    }
    let acc = CoMomentAccumulator::from_parts(sets.clone(), fixed.clone(), random.clone());
    let back = round_trip(&acc);
    prop_assert_eq!(back.gate_sets(), &sets[..]);
    let (f1, r1) = back.class_moments();
    for (a, b) in fixed.iter().zip(f1).chain(random.iter().zip(r1)) {
        let (n0, parts0) = a.raw_parts();
        let (n1, parts1) = b.raw_parts();
        prop_assert_eq!(n0, n1);
        for (x, y) in parts0.iter().zip(&parts1) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn welch_bodies_round_trip(
        moments in prop::collection::vec((arb_moments(), arb_moments()), 0..20),
    ) {
        let (fixed, random): (Vec<_>, Vec<_>) = moments.into_iter().unzip();
        let acc = WelchAccumulator::from_classes(fixed, random);
        let back = round_trip(&acc);
        let (f0, r0) = acc.classes();
        let (f1, r1) = back.classes();
        prop_assert_eq!(f0.len(), f1.len());
        for (a, b) in f0.iter().zip(f1).chain(r0.iter().zip(r1)) {
            let (n0, mean0, m20, m30, m40) = a.raw_parts();
            let (n1, mean1, m21, m31, m41) = b.raw_parts();
            prop_assert_eq!(n0, n1);
            prop_assert_eq!(mean0.to_bits(), mean1.to_bits());
            prop_assert_eq!(m20.to_bits(), m21.to_bits());
            prop_assert_eq!(m30.to_bits(), m31.to_bits());
            prop_assert_eq!(m40.to_bits(), m41.to_bits());
        }
    }

    #[test]
    fn gate_samples_round_trip(
        fixed in prop::collection::vec(prop::collection::vec(arb_f64(), 0..12), 0..8),
        random in prop::collection::vec(prop::collection::vec(arb_f64(), 0..12), 0..8),
    ) {
        // The two classes may disagree on gate count (one-population shards).
        let samples = GateSamples::from_classes(fixed.clone(), random.clone());
        let back = round_trip(&samples);
        let (f1, r1) = back.classes();
        prop_assert_eq!(fixed.len(), f1.len());
        prop_assert_eq!(random.len(), r1.len());
        for (a, b) in fixed.iter().zip(f1).chain(random.iter().zip(r1)) {
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn cpa_bodies_round_trip(
        guesses in prop::collection::vec(
            (any::<u64>(), prop::collection::vec(arb_f64(), 5)),
            0..16,
        ),
    ) {
        let per_guess: Vec<CorrelationAccumulator> = guesses
            .iter()
            .map(|(n, f)| CorrelationAccumulator::from_raw_parts(*n, f[0], f[1], f[2], f[3], f[4]))
            .collect();
        let acc = CpaAccumulator::from_guess_accumulators(per_guess);
        let back = round_trip(&acc);
        prop_assert_eq!(back.guess_accumulators().len(), guesses.len());
        for (a, (n, f)) in back.guess_accumulators().iter().zip(&guesses) {
            let (n1, mx, my, m2x, m2y, cxy) = a.raw_parts();
            prop_assert_eq!(n1, *n);
            for (got, want) in [mx, my, m2x, m2y, cxy].iter().zip(f) {
                prop_assert_eq!(got.to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn pair_bodies_round_trip(
        entries in prop::collection::vec(
            ((any::<u32>(), any::<u32>()), arb_co_moments::<2>(), arb_co_moments::<2>()),
            0..16,
        ),
    ) {
        co_moment_bodies_round_trip(
            entries.into_iter().map(|(p, f, r)| (p.into(), f, r)).collect(),
        )?;
    }

    #[test]
    fn triple_bodies_round_trip(
        entries in prop::collection::vec(
            (
                (any::<u32>(), any::<u32>(), any::<u32>()),
                arb_co_moments::<3>(),
                arb_co_moments::<3>(),
            ),
            0..16,
        ),
    ) {
        co_moment_bodies_round_trip(
            entries.into_iter().map(|(t, f, r)| (t.into(), f, r)).collect(),
        )?;
    }

    #[test]
    fn part_files_round_trip(
        shard_lo in 0u32..1000,
        states in prop::collection::vec(
            prop::collection::vec((arb_moments(), arb_moments()), 0..6),
            0..5,
        ),
        fingerprint in any::<u64>(),
    ) {
        // Whole-file identity, including empty parts (zero shards).
        let states: Vec<WelchAccumulator> = states
            .into_iter()
            .map(|ms| {
                let (fixed, random): (Vec<_>, Vec<_>) = ms.into_iter().unzip();
                WelchAccumulator::from_classes(fixed, random)
            })
            .collect();
        let shard_hi = shard_lo + states.len() as u32;
        let header = PartHeader {
            fingerprint,
            part_index: 0,
            part_count: 1,
            shard_lo,
            shard_hi,
            n_shards_total: shard_hi,
        };
        let encoded = encode_part(&header, &states);
        let (decoded_header, decoded_states) =
            decode_part::<WelchAccumulator>(&encoded).expect("valid part decodes");
        prop_assert_eq!(decoded_header, header);
        prop_assert_eq!(decoded_states.len(), states.len());
        let reencoded = encode_part(&header, &decoded_states);
        prop_assert_eq!(encoded, reencoded);
    }
}

/// Empty accumulators (an empty shard's snapshot) survive the wire exactly.
#[test]
fn empty_shard_states_round_trip() {
    round_trip(&WelchAccumulator::new());
    round_trip(&GateSamples::default());
    round_trip(&CpaAccumulator::new(0));
    let back = round_trip(&CpaAccumulator::new(3));
    assert_eq!(back.guess_accumulators().len(), 3);
    round_trip(&PairAccumulator::default());
    let back = round_trip(&PairAccumulator::new(&[[0u32, 1], [1, 2]]));
    assert_eq!(back.gate_sets().len(), 2);
    round_trip(&TripleAccumulator::default());
    let back = round_trip(&TripleAccumulator::for_triples(vec![(0, 1, 2), (1, 2, 3)]));
    assert_eq!(back.gate_sets().len(), 2);
}
