//! Per-layer probes of the traced run: ns per operation of each kernel the
//! campaign engine is built from, the campaign's shard/fold split, the
//! dist part codec and protocol, and the program's own tracer. Every probe
//! calls the layer's public functions on the workload's design.

use std::hint::black_box;
use std::time::Instant;

use polaris_dist::{
    campaign_fingerprint, decode_part, encode_part, execute_part, merge_parts, DesignFormat,
    Message, PartHeader, TaskSpec,
};
use polaris_netlist::{write_bench, GateId, Netlist};
use polaris_obs::JsonlRecorder;
use polaris_sim::campaign::{DEFAULT_SHARDS_PER_ROUND, TRACES_PER_SHARD};
use polaris_sim::power::fill_standard_normal;
use polaris_sim::{
    fold_shard_states, run_campaign_adaptive, run_campaign_traced, run_shard_states, shard_grid,
    CampaignConfig, EnergyBatch, MergeableSink, NeverStop, Parallelism, Population, PowerModel,
    Simulator, TraceSink, DEFAULT_LANE_WORDS, WORD_LANES,
};
use polaris_tvla::{GateLeakage, PairMoments, TripleMoments, WelchAccumulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::Outcome;
use crate::stats::median;
use crate::trace::Tracer;

/// Shards a distributed lease covers at most (the service's lease size).
const LEASE_SHARDS: usize = 64;

/// Lanes one engine batch carries at the default lane width.
const BATCH: usize = DEFAULT_LANE_WORDS * WORD_LANES;

/// Nanoseconds per unit of `body`, which does `units` units per call: the
/// median of five batches, each sized to run about 10 ms.
fn ns_per(units: f64, mut body: impl FnMut()) -> f64 {
    let mut calls = 1usize;
    loop {
        let t = Instant::now();
        for _ in 0..calls {
            body();
        }
        if t.elapsed().as_secs_f64() >= 0.01 || calls >= 1 << 24 {
            break;
        }
        calls *= 2;
    }
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                body();
            }
            t.elapsed().as_nanos() as f64 / (calls as f64 * units)
        })
        .collect();
    median(&samples)
}

fn normals(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v = vec![0.0; n];
    fill_standard_normal(&mut rng, &mut v);
    v
}

/// Per-operation costs of the three campaign hot-loop kernels.
pub struct Kernels {
    /// `fill_standard_normal`, per sample (64-sample words, as the engine
    /// fills them).
    pub noise_ns: f64,
    /// `Simulator::eval_block::<4>`, per gate.
    pub eval_ns: f64,
    /// `WelchAccumulator::record_batch`, per gate sample.
    pub welch_ns: f64,
}

impl Kernels {
    /// The campaign time these kernels predict for `traces` traces (both
    /// classes) over `gates` gates in `shards` shards: one noise draw and
    /// one Welch update per gate and trace, two block evaluations (settle
    /// and cycle) per gate and shard.
    pub fn predict_s(&self, gates: usize, traces: usize, shards: usize) -> f64 {
        let samples = (gates * traces) as f64;
        let blocks = (2 * gates * shards * TRACES_PER_SHARD.div_ceil(BATCH)) as f64;
        ((self.noise_ns + self.welch_ns) * samples + self.eval_ns * blocks) * 1e-9
    }
}

/// Measures the kernels and the co-moment sinks on `netlist`'s shapes.
pub fn kernels(netlist: &Netlist, seed: u64, t: &mut Tracer, out: &mut Outcome) -> Kernels {
    let gates = netlist.gate_count();
    let noise_ns = t.span("power.fill_standard_normal", |_| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut buf = [0.0f64; WORD_LANES];
        ns_per(WORD_LANES as f64, || {
            fill_standard_normal(&mut rng, &mut buf);
            black_box(&buf);
        })
    });
    let eval_ns = t.span("sim.eval_block", |_| {
        let sim = Simulator::new(netlist).expect("workload designs levelize");
        let mut st = sim.zero_block::<DEFAULT_LANE_WORDS>();
        let mut rng = StdRng::seed_from_u64(seed ^ 1);
        let data: Vec<u64> = (0..netlist.data_inputs().len() * DEFAULT_LANE_WORDS)
            .map(|_| rng.gen())
            .collect();
        let mask: Vec<u64> = (0..netlist.mask_inputs().len() * DEFAULT_LANE_WORDS)
            .map(|_| rng.gen())
            .collect();
        ns_per(gates as f64, || {
            sim.eval_block::<DEFAULT_LANE_WORDS>(&mut st, black_box(&data), &mask);
            black_box(&st);
        })
    });
    let energies = normals(gates * BATCH, seed ^ 2);
    let welch_ns = t.span("tvla.welch_record_batch", |_| {
        let batch = EnergyBatch::new(&energies, gates, BATCH).expect("well-formed batch");
        let mut acc = WelchAccumulator::new();
        let mut fixed = false;
        ns_per((gates * BATCH) as f64, || {
            fixed = !fixed;
            let pop = if fixed {
                Population::Fixed
            } else {
                Population::Random
            };
            acc.record_batch(pop, batch);
        })
    });
    out.layer("power.noise_ns_per_sample", noise_ns, "ns");
    out.layer("sim.eval_ns_per_gate_block", eval_ns, "ns");
    out.layer("tvla.welch_record_ns_per_sample", welch_ns, "ns");

    t.span("tvla.welch_merge", |_| {
        let batch = EnergyBatch::new(&energies, gates, BATCH).expect("well-formed batch");
        let mut shard = WelchAccumulator::new();
        shard.record_batch(Population::Fixed, batch);
        shard.record_batch(Population::Random, batch);
        // `merge` consumes its argument, so the clones are made before
        // each timed batch.
        let mut acc = shard.clone();
        let samples: Vec<f64> = (0..5)
            .map(|_| {
                let pool = vec![shard.clone(); 256];
                let t0 = Instant::now();
                for s in pool {
                    acc.merge(s);
                }
                t0.elapsed().as_nanos() as f64 / 256.0
            })
            .collect();
        let ns = median(&samples);
        out.layer("tvla.welch_merge_ns", ns, "ns");
    });

    let xs = normals(4096, seed ^ 3);
    let ys = normals(4096, seed ^ 4);
    let zs = normals(4096, seed ^ 5);
    t.span("tvla.pair_moments", |_| {
        let mut m = PairMoments::new();
        let push = ns_per(xs.len() as f64, || {
            for (&x, &y) in xs.iter().zip(&ys) {
                m.push(x, y);
            }
        });
        let other = m;
        let merge = ns_per(1.0, || m.merge(black_box(&other)));
        out.layer("tvla.pair_push_ns", push, "ns");
        out.layer("tvla.pair_merge_ns", merge, "ns");
    });
    t.span("tvla.triple_moments", |_| {
        let mut m = TripleMoments::new();
        let push = ns_per(xs.len() as f64, || {
            for ((&x, &y), &z) in xs.iter().zip(&ys).zip(&zs) {
                m.push(x, y, z);
            }
        });
        let other = m;
        let merge = ns_per(1.0, || m.merge(black_box(&other)));
        out.layer("tvla.triple_push_ns", push, "ns");
        out.layer("tvla.triple_merge_ns", merge, "ns");
    });
    Kernels {
        noise_ns,
        eval_ns,
        welch_ns,
    }
}

/// One campaign split at the layer boundary: every shard of the grid into
/// its own sink on one thread (`campaign.shards`), then the ordered fold
/// (`campaign.fold`).
pub fn campaign_split(
    netlist: &Netlist,
    model: &PowerModel,
    config: &CampaignConfig,
    t: &mut Tracer,
) -> WelchAccumulator {
    let n = shard_grid(config).len();
    let states: Vec<WelchAccumulator> = t.span("campaign.shards", |_| {
        run_shard_states(netlist, model, config, Parallelism::new(1), 0..n)
            .expect("workload designs levelize")
    });
    t.span("campaign.fold", |_| fold_shard_states(states))
}

/// The t-map as raw IEEE-754 bits, for exact comparisons.
pub fn t_bits(l: &GateLeakage) -> Vec<u64> {
    (0..l.gate_count())
        .map(|g| l.result(GateId::new(g)).t.to_bits())
        .collect()
}

/// Reports the campaign split metrics from the `campaign.shards` and
/// `campaign.fold` spans recorded so far, and the share of shard time the
/// kernels do not account for.
pub fn campaign_metrics(
    t: &Tracer,
    k: &Kernels,
    netlist: &Netlist,
    config: &CampaignConfig,
    out: &mut Outcome,
) -> f64 {
    let shards_s = median(&t.durations("campaign.shards"));
    let fold_s = median(&t.durations("campaign.fold"));
    let traces = config.n_fixed + config.n_random;
    let gates = netlist.gate_count();
    let shards = shard_grid(config).len();
    let unattributed = 1.0 - k.predict_s(gates, traces, shards) / shards_s;
    out.layer("campaign.shards_s", shards_s, "s");
    out.layer("campaign.fold_s", fold_s, "s");
    out.layer("campaign.gate_traces", (gates * traces) as f64, "count");
    out.layer("campaign.unattributed_frac", unattributed, "frac");
    unattributed
}

/// Part codec, central merge and protocol framing on `netlist`'s campaign.
/// `reference` is the t-map of the same campaign from the in-process
/// engine; the merged parts must reproduce it bit for bit.
pub fn dist(
    netlist: &Netlist,
    model: &PowerModel,
    config: &CampaignConfig,
    reference: &[u64],
    t: &mut Tracer,
    out: &mut Outcome,
) {
    let par = Parallelism::new(1);
    let grid = shard_grid(config).len();
    let lease = grid.min(LEASE_SHARDS);
    let parts = grid.div_ceil(LEASE_SHARDS);
    let fingerprint = campaign_fingerprint(netlist, model, config);
    let states: Vec<WelchAccumulator> =
        run_shard_states(netlist, model, config, par, 0..lease).expect("workload designs levelize");
    let header = PartHeader {
        fingerprint,
        part_index: 0,
        part_count: parts as u32,
        shard_lo: 0,
        shard_hi: lease as u32,
        n_shards_total: grid as u32,
    };
    let encoded = encode_part(&header, &states);
    let encode_ns = t.span("dist.encode_part", |_| {
        ns_per(1.0, || {
            black_box(encode_part(&header, black_box(&states)));
        })
    });
    let decode_ns = t.span("dist.decode_part", |_| {
        ns_per(1.0, || {
            let decoded = decode_part::<WelchAccumulator>(black_box(&encoded));
            black_box(decoded.expect("own encoding decodes"));
        })
    });
    let blobs: Vec<Vec<u8>> = (0..parts)
        .map(|i| {
            execute_part::<WelchAccumulator>(netlist, model, config, par, i, parts)
                .expect("in-range part")
        })
        .collect();
    let mut merge_s = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        let merged = t.span("dist.merge_parts", |_| {
            merge_parts::<WelchAccumulator>(blobs.iter().map(Vec::as_slice), Some(fingerprint))
        });
        merge_s.push(t0.elapsed().as_secs_f64());
        let ok = merged.is_ok_and(|m| t_bits(&m.state.leakage()) == reference);
        out.check(ok, "merged dist parts reproduce the in-process t-map");
    }

    let task = Message::Task {
        task: 1,
        blob: TaskSpec {
            format: DesignFormat::Bench,
            traces: config.n_fixed,
            seed: config.seed,
            cycles: 1,
            glitch: false,
            fingerprint,
            n_shards: grid,
            shard_lo: 0,
            shard_hi: lease,
            source: write_bench(netlist),
        }
        .render(),
    };
    let done = Message::Done {
        task: 1,
        blob: encoded,
    };
    let mut wire = Vec::new();
    let round_trip_ns = t.span("proto.round_trip", |_| {
        ns_per(1.0, || {
            wire.clear();
            task.write_to(&mut wire).expect("in-memory write");
            done.write_to(&mut wire).expect("in-memory write");
            let mut r = wire.as_slice();
            black_box(Message::read_from(&mut r).expect("own framing parses"));
            black_box(Message::read_from(&mut r).expect("own framing parses"));
        })
    });
    out.layer("dist.encode_part_us", encode_ns * 1e-3, "us");
    out.layer("dist.decode_part_us", decode_ns * 1e-3, "us");
    out.layer("dist.merge_parts_ms", median(&merge_s) * 1e3, "ms");
    out.layer("proto.round_trip_us", round_trip_ns * 1e-3, "us");
}

/// The program's own JSONL tracer on `netlist`'s campaign: the traced
/// engine path (`run_campaign_traced` in `DEFAULT_SHARDS_PER_ROUND`
/// rounds, as `assess_parallel_traced` runs it) against the untraced
/// one-round path. Results must agree bit for bit.
pub fn obs(
    netlist: &Netlist,
    model: &PowerModel,
    config: &CampaignConfig,
    t: &mut Tracer,
    out: &mut Outcome,
) {
    let par = Parallelism::new(1);
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let (mut rounds_plain, mut rounds_traced) = (0, 0);
    for _ in 0..3 {
        let t0 = Instant::now();
        let plain = t.span("obs.untraced_campaign", |_| {
            run_campaign_adaptive::<WelchAccumulator, _>(
                netlist,
                model,
                config,
                par,
                usize::MAX,
                &mut NeverStop,
            )
        });
        plain_s.push(t0.elapsed().as_secs_f64());
        let recorder = JsonlRecorder::new();
        let t0 = Instant::now();
        let traced = t.span("obs.traced_campaign", |_| {
            run_campaign_traced::<WelchAccumulator, _>(
                netlist,
                model,
                config,
                par,
                DEFAULT_SHARDS_PER_ROUND,
                &mut NeverStop,
                &recorder,
            )
        });
        traced_s.push(t0.elapsed().as_secs_f64());
        let (plain, traced) = (
            plain.expect("workload designs levelize"),
            traced.expect("workload designs levelize"),
        );
        rounds_plain = plain.stats.rounds;
        rounds_traced = traced.stats.rounds;
        out.check(
            t_bits(&plain.sink.leakage()) == t_bits(&traced.sink.leakage()) && !recorder.is_empty(),
            "the program's tracer leaves the t-map unchanged",
        );
    }
    out.layer(
        "obs.recorder_overhead_frac",
        median(&traced_s) / median(&plain_s) - 1.0,
        "frac",
    );
    out.layer("obs.rounds_traced", rounds_traced as f64, "count");
    out.layer("obs.rounds_untraced", rounds_plain as f64, "count");
}

/// Every probe above that does not depend on the workload's own phases,
/// on `netlist`'s campaign `config`. Returns the kernel costs.
pub fn all(
    netlist: &Netlist,
    model: &PowerModel,
    config: &CampaignConfig,
    reference: &[u64],
    t: &mut Tracer,
    out: &mut Outcome,
) -> Kernels {
    let k = t.span("probe.kernels", |t| kernels(netlist, config.seed, t, out));
    t.span("probe.dist", |t| {
        dist(netlist, model, config, reference, t, out)
    });
    t.span("probe.obs", |t| obs(netlist, model, config, t, out));
    k
}
