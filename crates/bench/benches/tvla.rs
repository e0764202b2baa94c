//! TVLA benchmarks: one-pass streaming moments vs the naive two-pass
//! computation (the paper's Eq. 2 vs Eq. 3–4 motivation), Welch throughput,
//! and a full per-gate assessment.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use polaris_netlist::generators;
use polaris_sim::{CampaignConfig, PowerModel};
use polaris_tvla::{welch_t, StreamingMoments};

fn pseudo_random(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 10.0 - 5.0
        })
        .collect()
}

/// Naive two-pass mean/variance (recomputed from scratch, the slow path the
/// paper's §II-A describes).
fn naive_two_pass(xs: &[f64]) -> (f64, f64) {
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (xs.len() - 1) as f64;
    (mean, var)
}

fn bench_moments(c: &mut Criterion) {
    let xs = pseudo_random(100_000, 42);
    let mut g = c.benchmark_group("moments_100k");
    g.bench_function("one_pass_streaming", |b| {
        b.iter(|| {
            let mut m = StreamingMoments::new();
            m.extend_batch(black_box(&xs));
            black_box((m.mean(), m.sample_variance(), m.central_moment4()))
        })
    });
    g.bench_function("naive_two_pass", |b| {
        b.iter(|| black_box(naive_two_pass(black_box(&xs))))
    });
    // Incremental update cost: extending an accumulator by one batch vs
    // recomputing the naive statistics over the grown set.
    let grown: Vec<f64> = pseudo_random(101_000, 42);
    g.bench_function("incremental_batch_update", |b| {
        let mut base = StreamingMoments::new();
        base.extend_batch(&xs);
        b.iter_batched(
            || base,
            |mut m| {
                m.extend_batch(black_box(&grown[100_000..]));
                black_box(m.sample_variance())
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("naive_recompute_grown", |b| {
        b.iter(|| black_box(naive_two_pass(black_box(&grown))))
    });
    g.finish();
}

fn bench_welch(c: &mut Criterion) {
    let a = pseudo_random(10_000, 1);
    let bpop = pseudo_random(10_000, 2);
    let mut ma = StreamingMoments::new();
    ma.extend_batch(&a);
    let mut mb = StreamingMoments::new();
    mb.extend_batch(&bpop);
    c.bench_function("welch_t_from_moments", |b| {
        b.iter(|| black_box(welch_t(black_box(&ma), black_box(&mb))))
    });
}

fn bench_assessment(c: &mut Criterion) {
    let design = generators::sin(1, 7);
    let model = PowerModel::default();
    let mut g = c.benchmark_group("gate_assessment_sin");
    g.sample_size(10);
    for traces in [100usize, 400] {
        g.bench_function(format!("assess_{traces}_traces"), |b| {
            b.iter(|| {
                let cfg = CampaignConfig::new(traces, traces, 3);
                black_box(polaris_tvla::assess(&design, &model, &cfg).expect("assess"))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_moments, bench_welch, bench_assessment);
criterion_main!(benches);
