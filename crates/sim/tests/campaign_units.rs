//! Work units change no bit. Where a block of 8 words reaches into the next
//! shard of a population, the engine simulates the two shards as one block
//! and emits it in gate chunks; each shard keeps its own sink, and must end
//! exactly as a run of that shard alone leaves it.

use polaris_netlist::{generators, Netlist};
use polaris_obs::NullRecorder;
use polaris_sim::{
    shard_grid, CampaignConfig, EnergyBatch, FleetJob, GateSamples, MergeableSink, Parallelism,
    Population, PowerModel, TraceSink,
};
use polaris_tvla::{CoMomentAccumulator, WelchAccumulator};

/// Every sink kind at once, so one run checks them all.
#[derive(Default)]
struct Sinks {
    samples: GateSamples,
    welch: WelchAccumulator,
    pairs: CoMomentAccumulator<2>,
    triples: CoMomentAccumulator<3>,
}

impl TraceSink for Sinks {
    fn record_batch(&mut self, pop: Population, batch: EnergyBatch<'_>) {
        self.samples.record_batch(pop, batch);
        self.welch.record_batch(pop, batch);
        self.pairs.record_batch(pop, batch);
        self.triples.record_batch(pop, batch);
    }
}

impl MergeableSink for Sinks {
    fn merge(&mut self, other: Self) {
        self.samples.merge(other.samples);
        self.welch.merge(other.welch);
        self.pairs.merge(other.pairs);
        self.triples.merge(other.triples);
    }
}

/// The full state of `s`. `Debug` prints each `f64` in the shortest form
/// that reads back to the same bits, so equal strings are equal bits.
fn state(s: &Sinks) -> String {
    format!(
        "{:?} {:?} {:?} {:?}",
        s.samples.classes(),
        s.welch.classes(),
        s.pairs.class_moments(),
        s.triples.class_moments()
    )
}

/// Empty sinks whose gate sets reach across the engine's 64-gate chunks.
/// Their last gate, 127, closes the second chunk, so a third follows it.
fn sinks() -> Sinks {
    Sinks {
        pairs: CoMomentAccumulator::new(&[[3u32, 70], [127, 10], [63, 64], [5, 6]]),
        triples: CoMomentAccumulator::new(&[[0u32, 64, 127], [100, 2, 66], [7, 8, 9]]),
        ..Sinks::default()
    }
}

fn job<'a>(
    netlist: &'a Netlist,
    model: &'a PowerModel,
    cfg: &CampaignConfig,
) -> FleetJob<'a, Sinks> {
    FleetJob::new(netlist, model, cfg.clone()).with_sink_factory(sinks)
}

/// What fresh sinks hold after one shard's samples arrive as a single
/// batch of every gate, with no chunking at all.
fn replayed(shard: &Sinks) -> Sinks {
    let mut out = sinks();
    let (fixed, random) = shard.samples.classes();
    for (pop, rows) in [(Population::Fixed, fixed), (Population::Random, random)] {
        let lanes = rows.first().map_or(0, Vec::len);
        if lanes > 0 {
            let energies: Vec<f64> = rows.concat();
            let batch = EnergyBatch::new(&energies, rows.len(), lanes).expect("one shard fits");
            out.record_batch(pop, batch);
        }
    }
    out
}

#[test]
fn paired_units_match_single_shards() {
    let c432 = generators::iscas_like("c432", 1, 5).expect("known design");
    assert!(
        c432.gate_count() > 2 * 64,
        "a third chunk follows the gate sets"
    );
    let model = PowerModel::default();
    // Trailing fixed extras and a partial last shard in each class.
    let base = CampaignConfig::new(5 * 256 + 100, 2 * 256 + 37, 19);
    for cfg in [
        base.clone(),
        base.clone().with_cycles(3),
        base.with_glitches(),
    ] {
        let n = shard_grid(&cfg).len();
        let alone: Vec<String> = (0..n)
            .map(|i| {
                let one = job(&c432, &model, &cfg)
                    .run_shards(Parallelism::sequential(), i..i + 1, &NullRecorder)
                    .expect("levelizes");
                let alone = state(&one[0]);
                assert!(alone == state(&replayed(&one[0])), "shard {i} chunked");
                alone
            })
            .collect();
        for lane_words in [1, 4, 8] {
            for threads in [1, 2, 3] {
                let par = Parallelism::new(threads).with_lane_words(lane_words);
                let units = job(&c432, &model, &cfg)
                    .run_shards(par, 0..n, &NullRecorder)
                    .expect("levelizes");
                let units: Vec<String> = units.iter().map(state).collect();
                for (i, (a, u)) in alone.iter().zip(&units).enumerate() {
                    assert!(
                        a == u,
                        "shard {i}, W = {lane_words}, {threads} threads, cycles {}, {:?}",
                        cfg.cycles,
                        cfg.delay_model
                    );
                }
            }
        }
    }
}
