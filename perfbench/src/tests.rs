//! The benchmark's own tests: metric declarations, seed plumbing, and a
//! tiny-size smoke run of every workload. The serve smoke run needs a built
//! `polaris-cli` (`POLARIS_CLI`, or the workspace's `target/release`).

use std::path::PathBuf;

use super::*;
use crate::stats::valid_metric_name;

fn ctx(seed: u64, trace: bool, name: &str) -> Ctx {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let cli = std::env::var_os("POLARIS_CLI")
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join("../target/release/polaris-cli"));
    Ctx {
        seed,
        seconds: 1.0,
        trace,
        tiny: true,
        cli: Some(cli),
        work: root.join("work").join(format!("test-{name}-{trace}")),
    }
}

#[test]
fn declared_metrics_follow_the_grammar_and_match_benchmark_json() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the package");
    let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
    names.extend(WORKLOADS);
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(valid_metric_name(name), "{name}");
        let declared = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&declared), "BENCHMARK.json lacks {declared}");
    }
    for w in WORKLOADS {
        assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w}");
    }
    let count = json.matches("\"name\":").count();
    assert_eq!(count, names.len(), "BENCHMARK.json declares other names");
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), count, "names are unique");
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    let (a, b, c) = (ctx(5, false, "s"), ctx(5, false, "s"), ctx(6, false, "s"));
    assert_eq!(a.sub_seed(1, 3), b.sub_seed(1, 3));
    assert_ne!(a.sub_seed(1, 3), c.sub_seed(1, 3));
    assert_ne!(a.sub_seed(1, 3), a.sub_seed(2, 3));
    let design = |seed| polaris_netlist::write_bench(&tvla_c1908::design(seed));
    assert_eq!(design(5), design(5));
    assert_ne!(design(5), design(6));
    assert_eq!(serve_c432::plan(&a, 1, 40), serve_c432::plan(&b, 1, 40));
    assert_ne!(serve_c432::plan(&a, 1, 40), serve_c432::plan(&c, 1, 40));
}

#[test]
fn serve_mix_has_fixed_counts_and_repeats_point_back() {
    let mix = serve_c432::plan(&ctx(9, false, "m"), 1, 40);
    assert_eq!(mix.len(), 40);
    assert_eq!(mix.iter().filter(|p| p.repeat_of.is_some()).count(), 10);
    assert_eq!(
        mix.iter()
            .filter(|p| p.adaptive && p.repeat_of.is_none())
            .count(),
        6
    );
    assert_eq!(
        mix.iter()
            .filter(|p| p.c17 && p.repeat_of.is_none())
            .count(),
        6
    );
    for (i, p) in mix.iter().enumerate() {
        if let Some(j) = p.repeat_of {
            assert!(j < i && mix[j].repeat_of.is_none());
            assert_eq!(
                (p.c17, p.seed, p.adaptive),
                (mix[j].c17, mix[j].seed, mix[j].adaptive)
            );
        }
    }
}

fn smoke(name: &str) {
    for trace in [false, true] {
        let c = ctx(3, trace, name);
        std::fs::create_dir_all(&c.work).expect("work dir");
        let a = run_workload(&c, name);
        assert_eq!(a.failed, 0, "{name} trace={trace}: failed checks");
        assert!(a.attempted > 0);
        select_metrics(&a, trace).expect("every declared metric is measured");
        if !trace {
            // The same seed repeats every count.
            let b = run_workload(&c, name);
            assert_eq!((a.attempted, a.failed), (b.attempted, b.failed));
        }
    }
}

#[test]
fn smoke_tvla_c1908() {
    smoke("tvla-c1908");
}

#[test]
fn smoke_serve_c432() {
    smoke("serve-c432");
}
