//! End-to-end tests driving the real `polaris-cli` binary.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_polaris-cli"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("polaris-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

const DEMO: &str = "
module keycmp (d0, d1, k0, k1, flag);
  input d0, d1;
  input k0, k1;
  output flag;
  xor x0 (m0, d0, k0);
  xor x1 (m1, d1, k1);
  nor n0 (flag, m0, m1);
endmodule";

const C17_BENCH: &str = "\
# c17
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
";

/// Trains a small bundle once per test process.
fn model_path() -> PathBuf {
    let path = tmp("model.polaris");
    if !path.exists() {
        let out = cli()
            .args([
                "train",
                "--out",
                path.to_str().expect("utf8"),
                "--traces",
                "120",
            ])
            .output()
            .expect("train runs");
        assert!(
            out.status.success(),
            "train failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    path
}

#[test]
fn help_lists_commands() {
    let out = cli().arg("--help").output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in ["train", "assess", "mask", "rules", "explain", "stats"] {
        assert!(text.contains(cmd), "missing {cmd} in help");
    }
}

#[test]
fn unknown_command_fails_cleanly() {
    let out = cli().arg("frobnicate").output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn stats_reports_structure() {
    let design = tmp("demo.v");
    std::fs::write(&design, DEMO).expect("write design");
    let out = cli()
        .args(["stats", design.to_str().expect("utf8")])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("logic cells:  3"));
    assert!(text.contains("data inputs:  4"));
    assert!(text.contains("XOR"));
}

#[test]
fn assess_flags_leaky_design_and_writes_csv() {
    let design = tmp("demo_assess.v");
    std::fs::write(&design, DEMO).expect("write design");
    let csv = tmp("leakage.csv");
    let out = cli()
        .args([
            "assess",
            design.to_str().expect("utf8"),
            "--traces",
            "600",
            "--csv",
            csv.to_str().expect("utf8"),
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("LEAKY"),
        "unprotected design must be flagged:\n{text}"
    );
    let csv_text = std::fs::read_to_string(&csv).expect("csv written");
    assert!(csv_text.starts_with("gate,name,kind,t,leaky"));
    assert!(csv_text.lines().count() > 5);
}

#[test]
fn assess_adaptive_reports_trace_consumption_and_same_verdict() {
    let design = tmp("demo_adaptive.v");
    std::fs::write(&design, DEMO).expect("write design");
    let run = |extra: &[&str]| {
        let mut args = vec![
            "assess".to_string(),
            design.to_str().expect("utf8").to_string(),
            "--traces".to_string(),
            "4096".to_string(),
            "--seed".to_string(),
            "11".to_string(),
        ];
        args.extend(extra.iter().map(|s| s.to_string()));
        let out = cli().args(&args).output().expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let full = run(&[]);
    let adaptive = run(&["--adaptive", "--confidence", "0.95"]);
    // The budget consumption is reported, and the design verdict agrees
    // with the full-budget run.
    assert!(adaptive.contains("traces used:"), "{adaptive}");
    assert!(
        adaptive.contains("LEAKY") == full.contains("LEAKY"),
        "adaptive and full verdicts must agree:\n{adaptive}\n{full}"
    );
    // A malformed confidence is rejected cleanly.
    let out = cli()
        .args([
            "assess",
            design.to_str().expect("utf8"),
            "--adaptive",
            "--confidence",
            "1.5",
        ])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--confidence"));
}

#[test]
fn mask_reduces_leakage_and_roundtrips() {
    let design = tmp("demo_mask.v");
    std::fs::write(&design, DEMO).expect("write design");
    let masked = tmp("demo_masked.v");
    let out = cli()
        .args([
            "mask",
            design.to_str().expect("utf8"),
            "--model",
            model_path().to_str().expect("utf8"),
            "--out",
            masked.to_str().expect("utf8"),
            "--budget",
            "cells:1.0",
            "--traces",
            "400",
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("gates masked:     3"), "{text}");
    // The written netlist parses and is itself assessable.
    let again = cli()
        .args(["stats", masked.to_str().expect("utf8")])
        .output()
        .expect("runs");
    assert!(again.status.success());
    let stats_text = String::from_utf8_lossy(&again.stdout);
    assert!(stats_text.contains("mask inputs:  9"), "{stats_text}");
}

#[test]
fn bench_format_accepted() {
    let design = tmp("c17.bench");
    std::fs::write(&design, C17_BENCH).expect("write design");
    let out = cli()
        .args(["stats", design.to_str().expect("utf8")])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("logic cells:  6"));
}

#[test]
fn rules_and_explain_work_with_bundle() {
    let model = model_path();
    let out = cli()
        .args(["rules", "--model", model.to_str().expect("utf8")])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let design = tmp("demo_explain.v");
    std::fs::write(&design, DEMO).expect("write design");
    let out = cli()
        .args([
            "explain",
            design.to_str().expect("utf8"),
            "--model",
            model.to_str().expect("utf8"),
            "--gate",
            "n0",
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("P(good masking candidate)"));
    assert!(text.contains("E[f(x)]"));
}

#[test]
fn dist_two_worker_merge_is_byte_identical_to_assess() {
    let design = tmp("dist_c17.bench");
    std::fs::write(&design, C17_BENCH).expect("write design");
    let design = design.to_str().expect("utf8").to_string();
    let plan = tmp("dist_plan.txt");
    let plan = plan.to_str().expect("utf8").to_string();

    let run_ok = |args: &[&str]| {
        let out = cli().args(args).output().expect("runs");
        assert!(
            out.status.success(),
            "{args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };

    run_ok(&[
        "dist", "plan", &design, "--traces", "1500", "--seed", "11", "--parts", "2", "--out", &plan,
    ]);
    let manifest = std::fs::read_to_string(&plan).expect("plan written");
    assert!(manifest.starts_with("polaris-dist-plan v1"), "{manifest}");

    let mut shard_paths = Vec::new();
    for part in ["0", "1"] {
        let shard = tmp(&format!("dist_part{part}.shard"));
        let shard = shard.to_str().expect("utf8").to_string();
        run_ok(&[
            "dist", "work", &design, "--plan", &plan, "--part", part, "--out", &shard,
        ]);
        shard_paths.push(shard);
    }

    let merged_csv = tmp("dist_merged.csv");
    let merged_csv = merged_csv.to_str().expect("utf8").to_string();
    let merge_stdout = run_ok(&[
        "dist",
        "merge",
        &design,
        "--plan",
        &plan,
        &shard_paths[0],
        &shard_paths[1],
        "--csv",
        &merged_csv,
    ]);
    assert!(merge_stdout.contains("LEAKY"), "{merge_stdout}");

    let single_csv = tmp("dist_single.csv");
    let single_csv = single_csv.to_str().expect("utf8").to_string();
    run_ok(&[
        "assess",
        &design,
        "--traces",
        "1500",
        "--seed",
        "11",
        "--csv",
        &single_csv,
    ]);
    let merged = std::fs::read_to_string(&merged_csv).expect("merged csv");
    let single = std::fs::read_to_string(&single_csv).expect("single csv");
    assert_eq!(
        merged, single,
        "distributed fold must be byte-identical to the single-process run"
    );
}

#[test]
fn dist_bad_inputs_map_to_distinct_exit_codes() {
    let design = tmp("dist_exit_c17.bench");
    std::fs::write(&design, C17_BENCH).expect("write design");
    let design = design.to_str().expect("utf8").to_string();
    let plan = tmp("dist_exit_plan.txt");
    let plan = plan.to_str().expect("utf8").to_string();
    let shard = tmp("dist_exit_part0.shard");
    let shard = shard.to_str().expect("utf8").to_string();

    let run = |args: &[&str]| cli().args(args).output().expect("runs");
    assert!(run(&[
        "dist", "plan", &design, "--traces", "600", "--seed", "3", "--parts", "1", "--out", &plan,
    ])
    .status
    .success());
    assert!(
        run(&["dist", "work", &design, "--plan", &plan, "--part", "0", "--out", &shard,])
            .status
            .success()
    );
    let good = std::fs::read(&shard).expect("shard written");

    let merge_code = |path: &str| {
        let out = run(&["dist", "merge", &design, "--plan", &plan, path]);
        assert!(!out.status.success());
        (
            out.status.code().expect("exit code"),
            String::from_utf8_lossy(&out.stderr).to_string(),
        )
    };

    // Truncated file → 3.
    let trunc = tmp("dist_exit_trunc.shard");
    std::fs::write(&trunc, &good[..good.len() / 2]).expect("write");
    let (code, msg) = merge_code(trunc.to_str().expect("utf8"));
    assert_eq!(code, 3, "{msg}");
    assert!(msg.contains("truncated"), "{msg}");

    // Not a shard-state file at all → 4.
    let garbage = tmp("dist_exit_garbage.shard");
    std::fs::write(&garbage, b"definitely not a shard state").expect("write");
    let (code, msg) = merge_code(garbage.to_str().expect("utf8"));
    assert_eq!(code, 4, "{msg}");
    assert!(msg.contains("magic"), "{msg}");

    // Version skew → 5.
    let skewed = tmp("dist_exit_version.shard");
    let mut bytes = good.clone();
    bytes[8] = 99;
    std::fs::write(&skewed, &bytes).expect("write");
    let (code, msg) = merge_code(skewed.to_str().expect("utf8"));
    assert_eq!(code, 5, "{msg}");
    assert!(msg.contains("version"), "{msg}");

    // Flipped payload byte → 6.
    let corrupt = tmp("dist_exit_corrupt.shard");
    let mut bytes = good.clone();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&corrupt, &bytes).expect("write");
    let (code, msg) = merge_code(corrupt.to_str().expect("utf8"));
    assert_eq!(code, 6, "{msg}");
    assert!(msg.contains("checksum"), "{msg}");

    // Plan mismatch (part from a re-seeded campaign) → 7.
    let other_plan = tmp("dist_exit_plan2.txt");
    let other_plan = other_plan.to_str().expect("utf8").to_string();
    let foreign = tmp("dist_exit_foreign.shard");
    let foreign = foreign.to_str().expect("utf8").to_string();
    assert!(run(&[
        "dist",
        "plan",
        &design,
        "--traces",
        "600",
        "--seed",
        "4",
        "--parts",
        "1",
        "--out",
        &other_plan,
    ])
    .status
    .success());
    assert!(run(&[
        "dist",
        "work",
        &design,
        "--plan",
        &other_plan,
        "--part",
        "0",
        "--out",
        &foreign,
    ])
    .status
    .success());
    let (code, msg) = merge_code(&foreign);
    assert_eq!(code, 7, "{msg}");
    assert!(msg.contains("fingerprint"), "{msg}");
}

/// The retired sink kind (wire tag 3, manifest name `cpa`) gets typed exit
/// codes, never a panic: a part file carrying the tag is a kind mismatch
/// (7), and a manifest naming the sink is malformed (4) for both `work` and
/// `merge`.
#[test]
fn dist_retired_sink_kind_is_a_typed_error() {
    let design = tmp("dist_retired_c17.bench");
    std::fs::write(&design, C17_BENCH).expect("write design");
    let design = design.to_str().expect("utf8").to_string();
    let plan = tmp("dist_retired_plan.txt");
    let plan = plan.to_str().expect("utf8").to_string();
    let shard = tmp("dist_retired_part0.shard");
    let shard = shard.to_str().expect("utf8").to_string();

    let run = |args: &[&str]| cli().args(args).output().expect("runs");
    let failure = |args: &[&str]| {
        let out = run(args);
        assert!(!out.status.success());
        (
            out.status.code().expect("exit code"),
            String::from_utf8_lossy(&out.stderr).to_string(),
        )
    };
    assert!(run(&[
        "dist", "plan", &design, "--traces", "600", "--seed", "3", "--parts", "1", "--out", &plan,
    ])
    .status
    .success());
    assert!(
        run(&["dist", "work", &design, "--plan", &plan, "--part", "0", "--out", &shard,])
            .status
            .success()
    );

    // Sink-kind byte 3 with a recomputed checksum → 7.
    let mut bytes = std::fs::read(&shard).expect("shard written");
    bytes[10] = 3;
    let end = bytes.len() - 8;
    let checksum = polaris_dist::wire::xxh64(&bytes[8..end]);
    bytes[end..].copy_from_slice(&checksum.to_le_bytes());
    let retagged = tmp("dist_retired_tag3.shard");
    std::fs::write(&retagged, &bytes).expect("write");
    let retagged = retagged.to_str().expect("utf8");
    let (code, msg) = failure(&["dist", "merge", &design, "--plan", &plan, retagged]);
    assert_eq!(code, 7, "{msg}");
    assert!(msg.contains("sink kind mismatch"), "{msg}");

    // A manifest naming the retired `cpa` sink → 4 from work and merge.
    let manifest = std::fs::read_to_string(&plan).expect("plan written");
    let retired = manifest.replace("sink welch", "sink cpa");
    assert_ne!(retired, manifest, "the manifest names its sink");
    let retired_plan = tmp("dist_retired_cpa_plan.txt");
    std::fs::write(&retired_plan, retired).expect("write");
    let retired_plan = retired_plan.to_str().expect("utf8");
    let unwritten = tmp("dist_retired_cpa.shard");
    let unwritten = unwritten.to_str().expect("utf8");
    let work = ["--part", "0", "--out", unwritten];
    for (sub, tail) in [("work", &work[..]), ("merge", &[shard.as_str()][..])] {
        let mut args = vec!["dist", sub, &design, "--plan", retired_plan];
        args.extend_from_slice(tail);
        let (code, msg) = failure(&args);
        assert_eq!(code, 4, "dist {sub}: {msg}");
        assert!(msg.contains("unknown sink kind `cpa`"), "dist {sub}: {msg}");
    }
}

#[test]
fn fleet_csvs_are_byte_identical_to_solo_assess() {
    // Two designs assessed as one fleet must emit exactly the CSVs the solo
    // `assess --csv` runs write — the CI fleet smoke's `cmp` contract.
    let c17 = tmp("fleet_c17.bench");
    std::fs::write(&c17, C17_BENCH).expect("write design");
    let demo = tmp("fleet_demo.v");
    std::fs::write(&demo, DEMO).expect("write design");
    let manifest = tmp("fleet_manifest.txt");
    std::fs::write(
        &manifest,
        format!(
            "# fleet smoke\n{}\n\n{}\n",
            c17.to_str().expect("utf8"),
            demo.to_str().expect("utf8")
        ),
    )
    .expect("write manifest");
    let csv_dir = tmp("fleet_csv");
    let run_ok = |args: &[&str]| {
        let out = cli().args(args).output().expect("runs");
        assert!(
            out.status.success(),
            "{args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let stdout = run_ok(&[
        "fleet",
        manifest.to_str().expect("utf8"),
        "--traces",
        "600",
        "--seed",
        "11",
        "--threads",
        "2",
        "--csv-dir",
        csv_dir.to_str().expect("utf8"),
    ]);
    assert!(stdout.contains("LEAKY"), "{stdout}");

    // Two manifest entries mapping to the same CSV name are rejected
    // instead of silently overwriting each other.
    let dup_manifest = tmp("fleet_dup_manifest.txt");
    std::fs::write(
        &dup_manifest,
        format!(
            "{}\n{}\n",
            c17.to_str().expect("utf8"),
            c17.to_str().expect("utf8")
        ),
    )
    .expect("write manifest");
    let dup = cli()
        .args([
            "fleet",
            dup_manifest.to_str().expect("utf8"),
            "--traces",
            "100",
            "--csv-dir",
            csv_dir.to_str().expect("utf8"),
        ])
        .output()
        .expect("runs");
    assert!(!dup.status.success());
    assert!(
        String::from_utf8_lossy(&dup.stderr).contains("two designs with the CSV name"),
        "{}",
        String::from_utf8_lossy(&dup.stderr)
    );

    for (design, stem) in [(&c17, "fleet_c17"), (&demo, "fleet_demo")] {
        let solo_csv = tmp(&format!("fleet_solo_{stem}.csv"));
        run_ok(&[
            "assess",
            design.to_str().expect("utf8"),
            "--traces",
            "600",
            "--seed",
            "11",
            "--csv",
            solo_csv.to_str().expect("utf8"),
        ]);
        let fleet_csv = csv_dir.join(format!("{stem}.csv"));
        assert_eq!(
            std::fs::read_to_string(&fleet_csv).expect("fleet csv"),
            std::fs::read_to_string(&solo_csv).expect("solo csv"),
            "{stem}: fleet CSV must be byte-identical to solo assess"
        );
    }
}

#[test]
fn gen_writes_a_parseable_design() {
    let out_path = tmp("gen_c432.bench");
    let out = cli()
        .args([
            "gen",
            "c432",
            "--out",
            out_path.to_str().expect("utf8"),
            "--seed",
            "7",
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stats = cli()
        .args(["stats", out_path.to_str().expect("utf8")])
        .output()
        .expect("runs");
    assert!(stats.status.success());
    assert!(String::from_utf8_lossy(&stats.stdout).contains("logic cells:"));

    let bad = cli()
        .args(["gen", "nope", "--out", out_path.to_str().expect("utf8")])
        .output()
        .expect("runs");
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("unknown design"));
}

#[test]
fn explain_unknown_gate_errors() {
    let design = tmp("demo_unknown.v");
    std::fs::write(&design, DEMO).expect("write design");
    let out = cli()
        .args([
            "explain",
            design.to_str().expect("utf8"),
            "--model",
            model_path().to_str().expect("utf8"),
            "--gate",
            "nope",
        ])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no gate named"));
}

#[test]
fn conflicting_sweep_selectors_are_usage_errors() {
    // `--pairs N` used to be silently ignored whenever `--pair-gates` was
    // also given; both conflicts are now usage errors (exit 2) before any
    // simulation runs.
    let design = tmp("conflict_c17.bench");
    std::fs::write(&design, C17_BENCH).expect("write design");
    let design = design.to_str().expect("utf8");

    for extra in [
        ["--pairs", "3", "--pair-gates", "5:6"],
        ["--triples", "3", "--triple-gates", "5:6:7"],
    ] {
        let mut args = vec!["assess", design, "--traces", "100"];
        args.extend(extra);
        let out = cli().args(&args).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("mutually exclusive"),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn degenerate_gate_lists_exit_8() {
    // Self-pairs, duplicate entries and out-of-range indices in explicit
    // gate lists all map to the documented multivariate exit code.
    let design = tmp("degenerate_c17.bench");
    std::fs::write(&design, C17_BENCH).expect("write design");
    let design = design.to_str().expect("utf8");

    let cases: &[(&str, &str, &str)] = &[
        ("--pair-gates", "3:3", "repeats"),
        ("--pair-gates", "5:6,6:5", "duplicates"),
        ("--pair-gates", "0:999", "out of range"),
        ("--triple-gates", "5:5:6", "repeats"),
        ("--triple-gates", "5:6:7,7:6:5", "duplicates"),
        ("--triple-gates", "0:1:999", "out of range"),
    ];
    for &(flag, list, needle) in cases {
        let out = cli()
            .args(["assess", design, "--traces", "100", flag, list])
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(8), "{flag} {list}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{flag} {list}: {stderr}");
    }
}

#[test]
fn empty_sweep_selection_short_circuits_with_warning() {
    // `--pairs 1` yields zero pairs and `--triples 2` zero triples: both
    // must warn and skip the sweep instead of simulating a whole campaign
    // for nothing, and must not create the CSV file.
    let design = tmp("empty_sweep_c17.bench");
    std::fs::write(&design, C17_BENCH).expect("write design");
    let design = design.to_str().expect("utf8");

    let pairs_csv = tmp("empty_sweep_pairs.csv");
    let out = cli()
        .args([
            "assess",
            design,
            "--traces",
            "100",
            "--pairs",
            "1",
            "--pairs-csv",
            pairs_csv.to_str().expect("utf8"),
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("pair selection is empty"), "{stderr}");
    assert!(!stderr.contains("running streaming bivariate"), "{stderr}");
    assert!(!pairs_csv.exists(), "empty sweep must not write a CSV");

    let triples_csv = tmp("empty_sweep_triples.csv");
    let out = cli()
        .args([
            "assess",
            design,
            "--traces",
            "100",
            "--triples",
            "2",
            "--triples-csv",
            triples_csv.to_str().expect("utf8"),
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("triple selection is empty"), "{stderr}");
    assert!(!stderr.contains("running streaming trivariate"), "{stderr}");
    assert!(!triples_csv.exists(), "empty sweep must not write a CSV");
}

#[test]
fn hand_edited_degenerate_plan_lists_exit_8() {
    // A plan manifest whose gate list is edited to a self-pair (or
    // self-triple) after planning must fail worker- and merge-side with the
    // multivariate exit code, not run to a misleading merge.
    let design = tmp("edited_plan_c17.bench");
    std::fs::write(&design, C17_BENCH).expect("write design");
    let design = design.to_str().expect("utf8");

    for (sink, flag, good, bad) in [
        ("pairs", "--pair-gates", "5:6", "3:3"),
        ("triples", "--triple-gates", "5:6:7", "3:3:7"),
    ] {
        let plan = tmp(&format!("edited_plan_{sink}.txt"));
        let plan_str = plan.to_str().expect("utf8");
        let out = cli()
            .args([
                "dist", "plan", design, "--traces", "200", "--parts", "1", "--out", plan_str,
                "--sink", sink, flag, good,
            ])
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let manifest = std::fs::read_to_string(&plan).expect("manifest");
        std::fs::write(&plan, manifest.replace(good, bad)).expect("edit manifest");
        let shard = tmp(&format!("edited_plan_{sink}.shard"));
        let out = cli()
            .args([
                "dist",
                "work",
                design,
                "--plan",
                plan_str,
                "--part",
                "0",
                "--out",
                shard.to_str().expect("utf8"),
            ])
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(8), "{sink}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("invalid gate list"),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // Planning with a degenerate list never succeeds in the first place.
    let plan = tmp("edited_plan_reject.txt");
    let out = cli()
        .args([
            "dist",
            "plan",
            design,
            "--traces",
            "200",
            "--parts",
            "1",
            "--out",
            plan.to_str().expect("utf8"),
            "--sink",
            "pairs",
            "--pair-gates",
            "6:6",
        ])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(8));
}

#[test]
fn dist_triples_merge_is_byte_identical_to_assess() {
    // A 2-worker trivariate dist fold must write the exact CSV a
    // single-process `assess --triple-gates` writes — the trivariate CI
    // smoke's `cmp` contract.
    let design = tmp("dist_triples_c17.bench");
    std::fs::write(&design, C17_BENCH).expect("write design");
    let design = design.to_str().expect("utf8").to_string();
    let plan = tmp("dist_triples_plan.txt");
    let plan = plan.to_str().expect("utf8").to_string();
    let triples = "5:6:7,5:6:8,8:9:10";

    let run_ok = |args: &[&str]| {
        let out = cli().args(args).output().expect("runs");
        assert!(
            out.status.success(),
            "{args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };

    run_ok(&[
        "dist",
        "plan",
        &design,
        "--traces",
        "900",
        "--seed",
        "11",
        "--parts",
        "2",
        "--out",
        &plan,
        "--sink",
        "triples",
        "--triple-gates",
        triples,
    ]);
    let mut shard_paths = Vec::new();
    for part in ["0", "1"] {
        let shard = tmp(&format!("dist_triples_part{part}.shard"));
        let shard = shard.to_str().expect("utf8").to_string();
        run_ok(&[
            "dist", "work", &design, "--plan", &plan, "--part", part, "--out", &shard,
        ]);
        shard_paths.push(shard);
    }
    let merged_csv = tmp("dist_triples_merged.csv");
    let merged_csv = merged_csv.to_str().expect("utf8").to_string();
    let merge_stdout = run_ok(&[
        "dist",
        "merge",
        &design,
        "--plan",
        &plan,
        &shard_paths[0],
        &shard_paths[1],
        "--csv",
        &merged_csv,
    ]);
    assert!(merge_stdout.contains("gate triples:  3"), "{merge_stdout}");

    let single_csv = tmp("dist_triples_single.csv");
    let single_csv = single_csv.to_str().expect("utf8").to_string();
    run_ok(&[
        "assess",
        &design,
        "--traces",
        "900",
        "--seed",
        "11",
        "--triple-gates",
        triples,
        "--triples-csv",
        &single_csv,
    ]);
    let merged = std::fs::read_to_string(&merged_csv).expect("merged csv");
    let single = std::fs::read_to_string(&single_csv).expect("single csv");
    assert!(
        merged.starts_with("gate_a,name_a,gate_b,name_b,gate_c,name_c,t,leaky"),
        "{merged}"
    );
    assert_eq!(
        merged, single,
        "distributed trivariate fold must be byte-identical to the single-process run"
    );
}

/// Per-kind event counts of a JSONL trace, as `kind=count` in kind order.
fn trace_census(path: &std::path::Path) -> String {
    let text = std::fs::read_to_string(path).expect("trace written");
    let mut counts = std::collections::BTreeMap::<String, usize>::new();
    for line in text.lines() {
        let kind = line
            .split("\"kind\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .expect("every trace line names its kind");
        *counts.entry(kind.to_string()).or_default() += 1;
    }
    counts
        .iter()
        .map(|(kind, n)| format!("{kind}={n}"))
        .collect::<Vec<_>>()
        .join(" ")
}

#[test]
fn traced_commands_emit_pinned_event_counts() {
    // Every recording command at one thread emits a fixed event census:
    // how a recorder reaches a run may change, what it records may not.
    let c17 = tmp("census_c17.bench");
    std::fs::write(&c17, C17_BENCH).expect("write design");
    let demo = tmp("census_demo.v");
    std::fs::write(&demo, DEMO).expect("write design");
    let manifest = tmp("census_manifest.txt");
    std::fs::write(
        &manifest,
        format!(
            "{}\n{}\n",
            c17.to_str().expect("utf8"),
            demo.to_str().expect("utf8")
        ),
    )
    .expect("write manifest");
    let (c17, manifest) = (
        c17.to_str().expect("utf8"),
        manifest.to_str().expect("utf8"),
    );
    let census = |name: &str, args: &[&str]| {
        let trace = tmp(&format!("census_{name}.jsonl"));
        let out = cli()
            .args(args)
            .args([
                "--threads",
                "1",
                "--trace-out",
                trace.to_str().expect("utf8"),
            ])
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        trace_census(&trace)
    };
    let budget = ["--traces", "3000", "--seed", "11"];

    let assess = census("assess", &[&["assess", c17][..], &budget].concat());
    assert_eq!(
        assess,
        "campaign_end=1 campaign_start=1 fold_span=1 shard_span=24"
    );
    let adaptive = census(
        "assess_adaptive",
        &[&["assess", c17, "--adaptive"][..], &budget].concat(),
    );
    assert_eq!(
        adaptive,
        "campaign_end=1 campaign_start=1 fold_span=2 round_checkpoint=2 shard_span=8 stop_audit=12"
    );
    let fleet = census(
        "fleet_adaptive",
        &[&["fleet", manifest, "--adaptive"][..], &budget].concat(),
    );
    assert_eq!(
        fleet,
        "queue_depth=16 round_checkpoint=4 stop_audit=18 work_item=16 worker_summary=1"
    );
    let masked = tmp("census_masked.v");
    let mask = census(
        "mask_adaptive",
        &[
            &[
                "mask",
                c17,
                "--model",
                model_path().to_str().expect("utf8"),
                "--out",
                masked.to_str().expect("utf8"),
                "--adaptive",
            ][..],
            &budget,
        ]
        .concat(),
    );
    assert_eq!(
        mask,
        "campaign_end=2 campaign_start=2 fold_span=3 round_checkpoint=2 shard_span=16 stop_audit=12"
    );

    let plan = tmp("census_plan.txt");
    let plan = plan.to_str().expect("utf8");
    let out = cli()
        .args(
            [
                &["dist", "plan", c17, "--parts", "2", "--out", plan][..],
                &budget,
            ]
            .concat(),
        )
        .output()
        .expect("runs");
    assert!(out.status.success());
    let part = tmp("census_part1.shard");
    let part = part.to_str().expect("utf8");
    let work = census(
        "dist_work",
        &[
            "dist", "work", c17, "--plan", plan, "--part", "1", "--out", part,
        ],
    );
    assert_eq!(work, "plan_exec=1 shard_span=12");
    let part0 = tmp("census_part0.shard");
    let part0 = part0.to_str().expect("utf8");
    let out = cli()
        .args([
            "dist", "work", c17, "--plan", plan, "--part", "0", "--out", part0,
        ])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let merge = census(
        "dist_merge",
        &["dist", "merge", c17, "--plan", plan, part0, part],
    );
    assert_eq!(merge, "merge_done=1 merge_fold=2");
}
