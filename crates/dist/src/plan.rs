//! Shard plans: the coordinator-side partition of a campaign's shard grid
//! into contiguous per-worker ranges, plus the campaign fingerprint that
//! ties every shard-state file to one exact `(netlist, power model,
//! campaign)` triple.

use std::ops::Range;

use polaris_netlist::{GateKind, Netlist};
use polaris_sim::campaign::{partition_shards, shard_grid, splitmix64, CampaignConfig, DelayModel};
use polaris_sim::PowerModel;

use crate::codec::SinkKind;
use crate::wire::fnv1a64;
use crate::DistError;

/// Digest of everything that determines a campaign's sample stream: the
/// netlist structure, the power model (per-kind capacitances and noise
/// sigma shape every energy sample), and the campaign configuration (seed,
/// class budgets, cycles, delay model, resolved class vectors). Two parties
/// agree on the fingerprint iff folding their shard states is meaningful —
/// the merge refuses mismatching parts.
///
/// The digest is *not* cryptographic (like the file checksum it guards
/// against mistakes, not adversaries) and is only compared between builds
/// of the same format version, so its recipe may change freely whenever
/// [`crate::FORMAT_VERSION`] bumps.
pub fn campaign_fingerprint(netlist: &Netlist, model: &PowerModel, config: &CampaignConfig) -> u64 {
    let mut h = splitmix64(0x504C_5253_4449_5354); // "PLRSDIST"
    let mix = |h: &mut u64, v: u64| *h = splitmix64(*h ^ v);

    // Power model: every per-kind capacitance weight plus the noise level.
    for kind in GateKind::ALL {
        mix(&mut h, model.cap(kind).to_bits());
    }
    mix(&mut h, model.noise_sigma().to_bits());

    // Netlist structure: name, interface widths, then every gate's kind and
    // fanin. Gate ids are dense indices, so this pins the exact graph.
    mix(&mut h, fnv1a64(netlist.name().as_bytes()));
    mix(&mut h, netlist.gate_count() as u64);
    mix(&mut h, netlist.data_inputs().len() as u64);
    mix(&mut h, netlist.mask_inputs().len() as u64);
    for (_, gate) in netlist.iter() {
        mix(&mut h, gate.kind().ordinal() as u64);
        mix(&mut h, gate.fanin().len() as u64);
        for &f in gate.fanin() {
            mix(&mut h, f.index() as u64);
        }
    }

    // Campaign configuration, including the *resolved* fixed vector(s) so
    // an explicit vector and its seed-derived twin fingerprint identically.
    mix(&mut h, config.seed);
    mix(&mut h, config.n_fixed as u64);
    mix(&mut h, config.n_random as u64);
    mix(&mut h, config.cycles as u64);
    mix(
        &mut h,
        match config.delay_model {
            DelayModel::Zero => 0,
            DelayModel::UnitDelay => 1,
        },
    );
    let mix_bits = |h: &mut u64, bits: &[bool]| {
        mix(h, bits.len() as u64);
        for chunk in bits.chunks(64) {
            let mut word = 0u64;
            for (i, &b) in chunk.iter().enumerate() {
                word |= u64::from(b) << i;
            }
            mix(h, word);
        }
    };
    mix_bits(
        &mut h,
        &config.resolve_fixed_vector(netlist.data_inputs().len()),
    );
    match &config.second_fixed_vector {
        None => mix(&mut h, 0),
        Some(v) => {
            mix(&mut h, 1);
            mix_bits(&mut h, v);
        }
    }
    h
}

/// A distributed campaign plan: the campaign parameters a worker needs to
/// recompute its shard range, the partition itself, and the fingerprint the
/// coordinator derived. Serializes to a line-oriented manifest
/// ([`DistPlan::render`] / [`DistPlan::parse`]) that ships to workers
/// alongside the netlist.
///
/// The manifest deliberately carries only seed-derivable campaigns
/// (fixed-vs-random with the fixed class derived from the seed — what the
/// CLI runs); flows with explicit class vectors use the library API
/// ([`crate::execute_part`] / [`crate::merge_parts`]) on a shared
/// [`CampaignConfig`] instead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DistPlan {
    /// Module name of the design (cross-checked at load).
    pub design: String,
    /// Accumulator family the workers snapshot.
    pub sink: SinkKind,
    /// Campaign master seed.
    pub seed: u64,
    /// Fixed-class trace budget.
    pub n_fixed: usize,
    /// Random-class trace budget.
    pub n_random: usize,
    /// Clock cycles per trace.
    pub cycles: usize,
    /// Unit-delay (glitch) timing model.
    pub glitch: bool,
    /// [`campaign_fingerprint`] of `(netlist, power model, campaign)`.
    pub fingerprint: u64,
    /// Total shards in the campaign grid.
    pub n_shards: usize,
    /// Contiguous per-part shard ranges, tiling `0..n_shards` in order.
    pub parts: Vec<Range<usize>>,
    /// Gate sets the workers accumulate co-moments for, each naming
    /// [`SinkKind::order`] gates (pairs for [`SinkKind::Pairs`], triples for
    /// [`SinkKind::Triples`]). Non-empty exactly when the sink has an order
    /// — every worker must build its [`polaris_tvla::CoMomentAccumulator`]
    /// over the *same ordered list*, or the central fold would combine
    /// moments of different gate sets.
    pub gate_sets: Vec<Vec<u32>>,
}

const MANIFEST_HEADER: &str = "polaris-dist-plan v1";

impl DistPlan {
    /// Plans `config` over `netlist` in `parts` contiguous shard ranges.
    ///
    /// # Errors
    ///
    /// [`DistError::Malformed`] if `parts == 0`, the campaign carries
    /// explicit class vectors (which the manifest cannot transport), or
    /// `sink` is a co-moment sink (which needs a gate list — use
    /// [`DistPlan::new_gate_sets`]).
    pub fn new(
        netlist: &Netlist,
        model: &PowerModel,
        config: &CampaignConfig,
        sink: SinkKind,
        parts: usize,
    ) -> Result<Self, DistError> {
        if sink.order().is_some() {
            return Err(DistError::Malformed(format!(
                "a {} plan needs a gate list; use DistPlan::new_gate_sets",
                sink.name()
            )));
        }
        Self::build(netlist, model, config, sink, parts, Vec::new())
    }

    /// Plans a co-moment campaign of `order` gates per set
    /// ([`SinkKind::Pairs`] for 2, [`SinkKind::Triples`] for 3): like
    /// [`DistPlan::new`], plus the ordered gate-set list every worker
    /// accumulates.
    ///
    /// # Errors
    ///
    /// [`DistError::Malformed`] on the [`DistPlan::new`] conditions, an order
    /// without a co-moment sink, or an empty list; [`DistError::GateList`]
    /// if the list fails [`polaris_tvla::validate_gate_sets`] (wrong arity,
    /// out-of-range index, repeated gate, duplicate entry).
    pub fn new_gate_sets(
        netlist: &Netlist,
        model: &PowerModel,
        config: &CampaignConfig,
        order: usize,
        gate_sets: Vec<Vec<u32>>,
        parts: usize,
    ) -> Result<Self, DistError> {
        let sink = SinkKind::for_order(order)
            .ok_or_else(|| DistError::Malformed(format!("no co-moment sink for order {order}")))?;
        let noun = polaris_tvla::set_noun(order);
        if gate_sets.is_empty() {
            return Err(DistError::Malformed(format!(
                "a {} plan needs at least one gate {noun}",
                sink.name()
            )));
        }
        polaris_tvla::validate_gate_sets(order, &gate_sets, netlist.gate_count())
            .map_err(|e| DistError::GateList(format!("{} plan: {e}", sink.name())))?;
        Self::build(netlist, model, config, sink, parts, gate_sets)
    }

    fn build(
        netlist: &Netlist,
        model: &PowerModel,
        config: &CampaignConfig,
        sink: SinkKind,
        parts: usize,
        gate_sets: Vec<Vec<u32>>,
    ) -> Result<Self, DistError> {
        if parts == 0 {
            return Err(DistError::Malformed(
                "a plan needs at least one part".into(),
            ));
        }
        if config.fixed_vector.is_some() || config.second_fixed_vector.is_some() {
            return Err(DistError::Malformed(
                "plan manifests cannot carry explicit class vectors; \
                 use the library API for fixed-vs-fixed campaigns"
                    .into(),
            ));
        }
        let n_shards = shard_grid(config).len();
        Ok(DistPlan {
            design: netlist.name().to_string(),
            sink,
            seed: config.seed,
            n_fixed: config.n_fixed,
            n_random: config.n_random,
            cycles: config.cycles,
            glitch: config.delay_model == DelayModel::UnitDelay,
            fingerprint: campaign_fingerprint(netlist, model, config),
            n_shards,
            parts: partition_shards(n_shards, parts),
            gate_sets,
        })
    }

    /// Reconstructs the campaign configuration the plan describes.
    pub fn campaign(&self) -> CampaignConfig {
        let mut c =
            CampaignConfig::new(self.n_fixed, self.n_random, self.seed).with_cycles(self.cycles);
        if self.glitch {
            c = c.with_glitches();
        }
        c
    }

    /// Re-derives the campaign against a freshly loaded netlist and the
    /// power model this process will simulate with, and checks both against
    /// the plan's fingerprint and grid size — the worker-side guard that it
    /// was handed the same design (and energy model) the coordinator
    /// planned. The manifest does not transport the model; agreeing on it
    /// is part of agreeing on the fingerprint.
    ///
    /// # Errors
    ///
    /// [`DistError::FingerprintMismatch`] / [`DistError::PlanMismatch`] on
    /// divergence; [`DistError::GateList`] when the plan's gate-set list is
    /// invalid for the loaded netlist (so a hand-edited list fails
    /// on the worker exactly as it would at planning time).
    pub fn verify(
        &self,
        netlist: &Netlist,
        model: &PowerModel,
    ) -> Result<CampaignConfig, DistError> {
        let campaign = self.campaign();
        let found = campaign_fingerprint(netlist, model, &campaign);
        if found != self.fingerprint {
            return Err(DistError::FingerprintMismatch {
                expected: self.fingerprint,
                found,
            });
        }
        let n_shards = shard_grid(&campaign).len();
        if n_shards != self.n_shards {
            return Err(DistError::PlanMismatch(format!(
                "plan says {} shards, campaign produces {n_shards}",
                self.n_shards
            )));
        }
        if let Some(order) = self.sink.order() {
            let noun = polaris_tvla::set_noun(order);
            polaris_tvla::validate_gate_sets(order, &self.gate_sets, netlist.gate_count())
                .map_err(|e| DistError::GateList(format!("{noun} list: {e}")))?;
        }
        Ok(campaign)
    }

    /// Renders the line-oriented plan manifest.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(MANIFEST_HEADER);
        out.push('\n');
        out.push_str(&format!("design {}\n", self.design));
        out.push_str(&format!("sink {}\n", self.sink.name()));
        if let Some(order) = self.sink.order() {
            let list: Vec<String> = self
                .gate_sets
                .iter()
                .map(|set| set.iter().map(u32::to_string).collect::<Vec<_>>().join(":"))
                .collect();
            let noun = polaris_tvla::set_noun(order);
            out.push_str(&format!("{noun}-gates {}\n", list.join(",")));
        }
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("traces-fixed {}\n", self.n_fixed));
        out.push_str(&format!("traces-random {}\n", self.n_random));
        out.push_str(&format!("cycles {}\n", self.cycles));
        out.push_str(&format!("glitch {}\n", u8::from(self.glitch)));
        out.push_str(&format!("fingerprint {:016x}\n", self.fingerprint));
        out.push_str(&format!("shards {}\n", self.n_shards));
        out.push_str(&format!("parts {}\n", self.parts.len()));
        for (i, r) in self.parts.iter().enumerate() {
            out.push_str(&format!("part {i} {} {}\n", r.start, r.end));
        }
        out
    }

    /// Parses a manifest produced by [`DistPlan::render`].
    ///
    /// # Errors
    ///
    /// [`DistError::Malformed`] on any structural problem (wrong header,
    /// missing or duplicate keys, non-tiling part ranges).
    pub fn parse(text: &str) -> Result<Self, DistError> {
        fn bad(why: String) -> DistError {
            DistError::Malformed(format!("plan manifest: {why}"))
        }
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        match lines.next() {
            Some(l) if l.trim() == MANIFEST_HEADER => {}
            other => {
                return Err(bad(format!(
                    "expected header `{MANIFEST_HEADER}`, found {other:?}"
                )))
            }
        }
        let mut design = None;
        let mut sink = None;
        // The gate-set list with the order its key names.
        let mut gate_sets: Option<(usize, Vec<Vec<u32>>)> = None;
        let mut seed = None;
        let mut n_fixed = None;
        let mut n_random = None;
        let mut cycles = None;
        let mut glitch = None;
        let mut fingerprint = None;
        let mut n_shards = None;
        let mut n_parts: Option<usize> = None;
        let mut parts: Vec<(usize, Range<usize>)> = Vec::new();

        fn set<T>(slot: &mut Option<T>, key: &str, v: T) -> Result<(), DistError> {
            if slot.is_some() {
                return Err(DistError::Malformed(format!(
                    "plan manifest: duplicate key `{key}`"
                )));
            }
            *slot = Some(v);
            Ok(())
        }
        let int = |key: &str, v: &str| -> Result<usize, DistError> {
            v.parse()
                .map_err(|_| DistError::Malformed(format!("plan manifest: bad {key} `{v}`")))
        };

        for line in lines {
            let mut words = line.split_whitespace();
            let key = words.next().unwrap_or_default();
            let rest: Vec<&str> = words.collect();
            let one = || -> Result<&str, DistError> {
                if rest.len() == 1 {
                    Ok(rest[0])
                } else {
                    Err(DistError::Malformed(format!(
                        "plan manifest: `{key}` takes one value, line `{line}`"
                    )))
                }
            };
            match key {
                "design" => set(&mut design, key, one()?.to_string())?,
                "sink" => {
                    let name = one()?;
                    let kind = SinkKind::from_name(name)
                        .ok_or_else(|| bad(format!("unknown sink kind `{name}`")))?;
                    set(&mut sink, key, kind)?;
                }
                "pair-gates" | "triple-gates" => {
                    let order = if key == "pair-gates" { 2 } else { 3 };
                    let sets = polaris_tvla::parse_gate_sets(one()?, order).map_err(bad)?;
                    set(&mut gate_sets, key, (order, sets))?;
                }
                "seed" => set(
                    &mut seed,
                    key,
                    one()?
                        .parse::<u64>()
                        .map_err(|_| bad(format!("bad seed `{}`", rest[0])))?,
                )?,
                "traces-fixed" => set(&mut n_fixed, key, int(key, one()?)?)?,
                "traces-random" => set(&mut n_random, key, int(key, one()?)?)?,
                "cycles" => set(&mut cycles, key, int(key, one()?)?)?,
                "glitch" => set(
                    &mut glitch,
                    key,
                    match one()? {
                        "0" => false,
                        "1" => true,
                        v => return Err(bad(format!("bad glitch flag `{v}`"))),
                    },
                )?,
                "fingerprint" => set(
                    &mut fingerprint,
                    key,
                    u64::from_str_radix(one()?, 16)
                        .map_err(|_| bad(format!("bad fingerprint `{}`", rest[0])))?,
                )?,
                "shards" => set(&mut n_shards, key, int(key, one()?)?)?,
                "parts" => set(&mut n_parts, key, int(key, one()?)?)?,
                "part" => {
                    if rest.len() != 3 {
                        return Err(bad(format!("`part` takes index lo hi, line `{line}`")));
                    }
                    parts.push((
                        int("part index", rest[0])?,
                        int("part lo", rest[1])?..int("part hi", rest[2])?,
                    ));
                }
                other => return Err(bad(format!("unknown key `{other}`"))),
            }
        }

        let req = |name: &'static str| move || bad(format!("missing key `{name}`"));
        let mut plan = DistPlan {
            design: design.ok_or_else(req("design"))?,
            sink: sink.ok_or_else(req("sink"))?,
            seed: seed.ok_or_else(req("seed"))?,
            n_fixed: n_fixed.ok_or_else(req("traces-fixed"))?,
            n_random: n_random.ok_or_else(req("traces-random"))?,
            cycles: cycles.ok_or_else(req("cycles"))?,
            glitch: glitch.ok_or_else(req("glitch"))?,
            fingerprint: fingerprint.ok_or_else(req("fingerprint"))?,
            n_shards: n_shards.ok_or_else(req("shards"))?,
            parts: {
                let declared = n_parts.ok_or_else(req("parts"))?;
                if parts.len() != declared {
                    return Err(bad(format!(
                        "declared {declared} parts, found {}",
                        parts.len()
                    )));
                }
                for (i, (idx, _)) in parts.iter().enumerate() {
                    if *idx != i {
                        return Err(bad(format!("part indices out of order at `{idx}`")));
                    }
                }
                parts.into_iter().map(|(_, r)| r).collect()
            },
            gate_sets: Vec::new(),
        };
        // The gate list and the sink kind must agree: a co-moment plan
        // without its list (or a list on another sink) cannot drive the
        // workers.
        match (plan.sink.order(), gate_sets) {
            (Some(order), Some((found, sets))) if found == order => plan.gate_sets = sets,
            (Some(order), _) => {
                return Err(bad(format!(
                    "sink `{}` requires a `{}-gates` list",
                    plan.sink.name(),
                    polaris_tvla::set_noun(order)
                )))
            }
            (None, Some((found, _))) => {
                return Err(bad(format!(
                    "`{}-gates` is only valid with sink `{}s`, found `{}`",
                    polaris_tvla::set_noun(found),
                    polaris_tvla::set_noun(found),
                    plan.sink.name()
                )))
            }
            (None, None) => {}
        }
        // Ranges must tile the grid in order.
        let mut next = 0usize;
        for (i, r) in plan.parts.iter().enumerate() {
            if r.start != next || r.end < r.start {
                return Err(bad(format!("part {i} range {r:?} does not tile the grid")));
            }
            next = r.end;
        }
        if next != plan.n_shards {
            return Err(bad(format!(
                "parts cover {next} shards, grid has {}",
                plan.n_shards
            )));
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_netlist::generators;

    #[test]
    fn manifest_round_trips() {
        let n = generators::iscas_c17();
        let cfg = CampaignConfig::new(3000, 3000, 11);
        let plan = DistPlan::new(&n, &PowerModel::default(), &cfg, SinkKind::Welch, 3).unwrap();
        let parsed = DistPlan::parse(&plan.render()).unwrap();
        assert_eq!(plan, parsed);
        assert_eq!(parsed.campaign(), cfg);
        parsed.verify(&n, &PowerModel::default()).unwrap();
    }

    #[test]
    fn fingerprint_separates_configs_and_designs() {
        let c17 = generators::iscas_c17();
        let cfg = CampaignConfig::new(1000, 1000, 7);
        let model = PowerModel::default();
        let base = campaign_fingerprint(&c17, &model, &cfg);
        assert_eq!(
            base,
            campaign_fingerprint(&c17, &model, &cfg),
            "deterministic"
        );
        let reseeded = CampaignConfig::new(1000, 1000, 8);
        assert_ne!(base, campaign_fingerprint(&c17, &model, &reseeded));
        let rebudgeted = CampaignConfig::new(1000, 1001, 7);
        assert_ne!(base, campaign_fingerprint(&c17, &model, &rebudgeted));
        let glitchy = CampaignConfig::new(1000, 1000, 7).with_glitches();
        assert_ne!(base, campaign_fingerprint(&c17, &model, &glitchy));
        let noisy = PowerModel::default().with_noise(0.05);
        assert_ne!(base, campaign_fingerprint(&c17, &noisy, &cfg));
        let other = generators::iscas_like("c432", 1, 7).unwrap();
        assert_ne!(base, campaign_fingerprint(&other, &model, &cfg));
    }

    #[test]
    fn explicit_vector_fingerprints_like_its_derived_twin() {
        // The fingerprint hashes the *resolved* fixed vector, so pinning the
        // derived vector explicitly is the same campaign.
        let n = generators::iscas_c17();
        let cfg = CampaignConfig::new(500, 500, 9);
        let pinned = cfg
            .clone()
            .with_fixed_vector(cfg.resolve_fixed_vector(n.data_inputs().len()));
        let model = PowerModel::default();
        assert_eq!(
            campaign_fingerprint(&n, &model, &cfg),
            campaign_fingerprint(&n, &model, &pinned)
        );
    }

    #[test]
    fn verify_rejects_a_different_netlist() {
        let n = generators::iscas_c17();
        let cfg = CampaignConfig::new(1000, 1000, 7);
        let model = PowerModel::default();
        let plan = DistPlan::new(&n, &model, &cfg, SinkKind::Welch, 2).unwrap();
        let other = generators::iscas_like("c432", 1, 7).unwrap();
        assert!(matches!(
            plan.verify(&other, &model),
            Err(DistError::FingerprintMismatch { .. })
        ));
        // The same netlist under a different power model is a different
        // campaign too.
        assert!(matches!(
            plan.verify(&n, &PowerModel::default().with_noise(0.01)),
            Err(DistError::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn malformed_manifests_are_rejected() {
        let n = generators::iscas_c17();
        let cfg = CampaignConfig::new(1000, 1000, 7);
        let good = DistPlan::new(&n, &PowerModel::default(), &cfg, SinkKind::Welch, 2)
            .unwrap()
            .render();

        for mangle in [
            good.replace("polaris-dist-plan v1", "polaris-dist-plan v9"),
            good.replace("seed 7", ""),
            good.replace("seed 7", "seed banana"),
            good.replace("sink welch", "sink parquet"),
            good.replace("part 1 4 8", "part 1 5 8"),
            good.replace("parts 2", "parts 3"),
            format!("{good}seed 7\n"),
            good.replace("glitch 0", "glitch maybe"),
        ] {
            assert!(
                matches!(DistPlan::parse(&mangle), Err(DistError::Malformed(_))),
                "should reject:\n{mangle}"
            );
        }
        // Reference sanity: the unmangled manifest parses.
        DistPlan::parse(&good).unwrap();
    }

    #[test]
    fn pairs_manifest_round_trips() {
        let n = generators::iscas_c17();
        let cfg = CampaignConfig::new(2000, 2000, 13);
        let pairs = vec![vec![0, 3], vec![1, 4], vec![2, 5]];
        let plan =
            DistPlan::new_gate_sets(&n, &PowerModel::default(), &cfg, 2, pairs.clone(), 2).unwrap();
        assert_eq!(plan.sink, SinkKind::Pairs);
        let rendered = plan.render();
        assert!(rendered.contains("pair-gates 0:3,1:4,2:5"), "{rendered}");
        let parsed = DistPlan::parse(&rendered).unwrap();
        assert_eq!(plan, parsed);
        assert_eq!(parsed.gate_sets, pairs);
        parsed.verify(&n, &PowerModel::default()).unwrap();
    }

    #[test]
    fn pairs_plans_are_validated() {
        let n = generators::iscas_c17();
        let cfg = CampaignConfig::new(100, 100, 1);
        let model = PowerModel::default();
        // `new` refuses the pairs sink outright.
        assert!(matches!(
            DistPlan::new(&n, &model, &cfg, SinkKind::Pairs, 2),
            Err(DistError::Malformed(_))
        ));
        // Empty and out-of-range pair lists are rejected.
        assert!(matches!(
            DistPlan::new_gate_sets(&n, &model, &cfg, 2, vec![], 2),
            Err(DistError::Malformed(_))
        ));
        assert!(matches!(
            DistPlan::new_gate_sets(&n, &model, &cfg, 2, vec![vec![0, 999]], 2),
            Err(DistError::GateList(_))
        ));
        // Self-pairs and duplicate entries are the multivariate input class.
        assert!(matches!(
            DistPlan::new_gate_sets(&n, &model, &cfg, 2, vec![vec![3, 3]], 2),
            Err(DistError::GateList(_))
        ));
        assert!(matches!(
            DistPlan::new_gate_sets(&n, &model, &cfg, 2, vec![vec![0, 3], vec![3, 0]], 2),
            Err(DistError::GateList(_))
        ));

        // Manifest-side agreement between sink kind and pair list.
        let good = DistPlan::new_gate_sets(&n, &model, &cfg, 2, vec![vec![0, 3]], 2)
            .unwrap()
            .render();
        for mangle in [
            good.replace("pair-gates 0:3\n", ""),
            good.replace("pair-gates 0:3", "pair-gates 0-3"),
            good.replace("pair-gates 0:3", "pair-gates 0:banana"),
            good.replace("sink pairs", "sink welch"),
        ] {
            assert!(
                matches!(DistPlan::parse(&mangle), Err(DistError::Malformed(_))),
                "should reject:\n{mangle}"
            );
        }
        DistPlan::parse(&good).unwrap();

        // A parsed plan whose pairs do not fit the loaded netlist fails
        // verification even when the fingerprint matches — including a
        // hand-edited self-pair, which must land in the gate-list class.
        let mut plan = DistPlan::new_gate_sets(&n, &model, &cfg, 2, vec![vec![0, 3]], 2).unwrap();
        plan.gate_sets = vec![vec![0, 999]];
        assert!(matches!(
            plan.verify(&n, &model),
            Err(DistError::GateList(_))
        ));
        let mut plan = DistPlan::new_gate_sets(&n, &model, &cfg, 2, vec![vec![0, 3]], 2).unwrap();
        plan.gate_sets = vec![vec![3, 3]];
        assert!(matches!(
            plan.verify(&n, &model),
            Err(DistError::GateList(_))
        ));
    }

    #[test]
    fn triples_manifest_round_trips() {
        let n = generators::iscas_c17();
        let cfg = CampaignConfig::new(2000, 2000, 13);
        let triples = vec![vec![0, 3, 5], vec![1, 4, 6]];
        let plan = DistPlan::new_gate_sets(&n, &PowerModel::default(), &cfg, 3, triples.clone(), 2)
            .unwrap();
        assert_eq!(plan.sink, SinkKind::Triples);
        let rendered = plan.render();
        assert!(rendered.contains("triple-gates 0:3:5,1:4:6"), "{rendered}");
        let parsed = DistPlan::parse(&rendered).unwrap();
        assert_eq!(plan, parsed);
        assert_eq!(parsed.gate_sets, triples);
        parsed.verify(&n, &PowerModel::default()).unwrap();
    }

    #[test]
    fn triples_plans_are_validated() {
        let n = generators::iscas_c17();
        let cfg = CampaignConfig::new(100, 100, 1);
        let model = PowerModel::default();
        assert!(matches!(
            DistPlan::new(&n, &model, &cfg, SinkKind::Triples, 2),
            Err(DistError::Malformed(_))
        ));
        assert!(matches!(
            DistPlan::new_gate_sets(&n, &model, &cfg, 3, vec![], 2),
            Err(DistError::Malformed(_))
        ));
        for bad_list in [
            vec![vec![0, 1, 999]],
            vec![vec![0, 1, 1]],
            vec![vec![0, 1, 2], vec![2, 1, 0]],
            vec![vec![0, 1]],
        ] {
            assert!(matches!(
                DistPlan::new_gate_sets(&n, &model, &cfg, 3, bad_list, 2),
                Err(DistError::GateList(_))
            ));
        }

        // Manifest-side agreement between sink kind and triple list.
        let good = DistPlan::new_gate_sets(&n, &model, &cfg, 3, vec![vec![0, 3, 5]], 2)
            .unwrap()
            .render();
        for mangle in [
            good.replace("triple-gates 0:3:5\n", ""),
            good.replace("triple-gates 0:3:5", "triple-gates 0:3"),
            good.replace("triple-gates 0:3:5", "triple-gates 0:3:banana"),
            good.replace("sink triples", "sink welch"),
            good.replace("sink triples", "sink pairs"),
        ] {
            assert!(
                matches!(DistPlan::parse(&mangle), Err(DistError::Malformed(_))),
                "should reject:\n{mangle}"
            );
        }
        DistPlan::parse(&good).unwrap();

        // A hand-edited repeated-gate triple fails verification in the
        // gate-list class (the CLI maps it to the multivariate exit code).
        let mut plan =
            DistPlan::new_gate_sets(&n, &model, &cfg, 3, vec![vec![0, 3, 5]], 2).unwrap();
        plan.gate_sets = vec![vec![3, 3, 5]];
        assert!(matches!(
            plan.verify(&n, &model),
            Err(DistError::GateList(_))
        ));
    }

    #[test]
    fn plans_with_explicit_vectors_are_rejected() {
        let n = generators::iscas_c17();
        let cfg = CampaignConfig::new(100, 100, 7).with_fixed_vector(vec![true; 5]);
        assert!(matches!(
            DistPlan::new(&n, &PowerModel::default(), &cfg, SinkKind::Welch, 2),
            Err(DistError::Malformed(_))
        ));
    }
}
