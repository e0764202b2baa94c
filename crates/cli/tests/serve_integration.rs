//! End-to-end tests of the live assessment service and the crash-safety of
//! artifact writes, driving real `polaris-cli` processes over real sockets.

use std::io::{BufReader, Read as _};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_polaris-cli"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("polaris-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

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

fn run_ok(args: &[&str]) -> String {
    let out = cli().args(args).output().expect("runs");
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).to_string()
}

/// Kills the wrapped children on drop so a failing assertion cannot leak
/// daemon/worker processes (and their bound ports) into the test host.
struct Reaper(Vec<Child>);

impl Reaper {
    fn adopt(&mut self, child: Child) -> usize {
        self.0.push(child);
        self.0.len() - 1
    }
}

impl Drop for Reaper {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A `dist work` process SIGKILLed mid-plan must never leave a truncated
/// part at the final output path — the atomic tmp-then-rename write
/// guarantees the path holds either nothing or a complete artifact — and a
/// re-issued plan must converge to the byte-identical single-process
/// result.
#[test]
fn killed_worker_leaves_no_truncated_part_and_rerun_converges() {
    let design = tmp("kill_c17.bench");
    std::fs::write(&design, C17_BENCH).expect("write design");
    let design = design.to_str().expect("utf8").to_string();
    let plan = tmp("kill_plan.txt");
    let plan = plan.to_str().expect("utf8").to_string();
    let shard = tmp("kill_part0.shard");
    let shard_str = shard.to_str().expect("utf8").to_string();

    run_ok(&[
        "dist", "plan", &design, "--traces", "6000", "--seed", "11", "--parts", "1", "--out", &plan,
    ]);

    // Launch the worker and SIGKILL it almost immediately — mid-simulation
    // or (the interesting window) mid-write.
    let mut child = cli()
        .args([
            "dist",
            "work",
            &design,
            "--plan",
            &plan,
            "--part",
            "0",
            "--out",
            &shard_str,
            "--threads",
            "1",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawns");
    std::thread::sleep(Duration::from_millis(60));
    let _ = child.kill();
    let _ = child.wait();

    // The final path holds either nothing or a complete, checksummed part —
    // never a truncated one. A leftover `.tmp` is fine; the contract is
    // about the final path a re-issuing coordinator would trust.
    if shard.exists() {
        let out = cli()
            .args(["dist", "merge", &design, "--plan", &plan, &shard_str])
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "a part present at the final path must be complete: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // Re-issue the plan (the coordinator's crash recovery) and merge: the
    // result must be byte-identical to the single-process run.
    run_ok(&[
        "dist", "work", &design, "--plan", &plan, "--part", "0", "--out", &shard_str,
    ]);
    let merged_csv = tmp("kill_merged.csv");
    let merged_csv = merged_csv.to_str().expect("utf8").to_string();
    run_ok(&[
        "dist",
        "merge",
        &design,
        "--plan",
        &plan,
        &shard_str,
        "--csv",
        &merged_csv,
    ]);
    let solo_csv = tmp("kill_solo.csv");
    let solo_csv = solo_csv.to_str().expect("utf8").to_string();
    run_ok(&[
        "assess", &design, "--traces", "6000", "--seed", "11", "--csv", &solo_csv,
    ]);
    assert_eq!(
        std::fs::read_to_string(&merged_csv).expect("merged csv"),
        std::fs::read_to_string(&solo_csv).expect("solo csv"),
        "re-issued plan must converge byte-identically"
    );
}

/// The full service lifecycle: daemon + two live workers, fixed and
/// adaptive submissions byte-identical to solo `assess` runs through a
/// worker SIGKILLed mid-campaign, a cache-hit resubmission, and the
/// documented failure-class exit codes for protocol skew and malformed
/// submissions.
#[test]
fn serve_two_workers_with_crash_matches_solo_assess() {
    let design = tmp("serve_c17.bench");
    std::fs::write(&design, C17_BENCH).expect("write design");
    let design = design.to_str().expect("utf8").to_string();
    let port_file = tmp("serve_port.txt");

    let mut reaper = Reaper(Vec::new());
    let daemon = cli()
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--heartbeat-ms",
            "500",
            "--port-file",
            port_file.to_str().expect("utf8"),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let daemon = reaper.adopt(daemon);

    // The daemon writes its bound address (port 0 = ephemeral) atomically
    // to the port file once it is accepting.
    let deadline = Instant::now() + Duration::from_secs(10);
    let addr = loop {
        if let Ok(addr) = std::fs::read_to_string(&port_file) {
            break addr.trim().to_string();
        }
        assert!(
            Instant::now() < deadline,
            "daemon never wrote the port file"
        );
        std::thread::sleep(Duration::from_millis(25));
    };

    let spawn_worker = |name: &str| {
        cli()
            .args([
                "worker",
                "--connect",
                &addr,
                "--name",
                name,
                "--threads",
                "1",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("worker spawns")
    };
    let doomed = reaper.adopt(spawn_worker("doomed"));
    let _survivor = reaper.adopt(spawn_worker("survivor"));

    // Adaptive submission first — many small (one-round) leases, so the
    // SIGKILL below lands mid-campaign and the lost leases are re-issued.
    let adaptive_csv = tmp("serve_adaptive.csv");
    let adaptive_csv = adaptive_csv.to_str().expect("utf8").to_string();
    let mut submit = cli()
        .args([
            "submit",
            &design,
            "--connect",
            &addr,
            "--tenant",
            "alice",
            "--traces",
            "6000",
            "--seed",
            "11",
            "--adaptive",
            "--csv",
            &adaptive_csv,
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("submit spawns");
    std::thread::sleep(Duration::from_millis(400));
    let _ = reaper.0[doomed].kill();
    let status = submit.wait().expect("submit finishes");
    let mut submit_err = String::new();
    submit
        .stderr
        .take()
        .expect("piped")
        .read_to_string(&mut submit_err)
        .expect("stderr utf8");
    assert!(status.success(), "adaptive submit failed: {submit_err}");

    let solo_adaptive = tmp("serve_solo_adaptive.csv");
    let solo_adaptive = solo_adaptive.to_str().expect("utf8").to_string();
    run_ok(&[
        "assess",
        &design,
        "--traces",
        "6000",
        "--seed",
        "11",
        "--adaptive",
        "--csv",
        &solo_adaptive,
    ]);
    assert_eq!(
        std::fs::read_to_string(&adaptive_csv).expect("served csv"),
        std::fs::read_to_string(&solo_adaptive).expect("solo csv"),
        "served adaptive CSV must be byte-identical to solo assess through the worker crash"
    );

    // Fixed-budget submission on the surviving worker.
    let fixed_csv = tmp("serve_fixed.csv");
    let fixed_csv = fixed_csv.to_str().expect("utf8").to_string();
    let submit_fixed = |csv: &str| {
        let out = cli()
            .args([
                "submit",
                &design,
                "--connect",
                &addr,
                "--tenant",
                "alice",
                "--traces",
                "1500",
                "--seed",
                "11",
                "--csv",
                csv,
            ])
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "fixed submit failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stderr).to_string()
    };
    let first = submit_fixed(&fixed_csv);
    assert!(first.contains("result: computed"), "{first}");

    let solo_fixed = tmp("serve_solo_fixed.csv");
    let solo_fixed = solo_fixed.to_str().expect("utf8").to_string();
    run_ok(&[
        "assess",
        &design,
        "--traces",
        "1500",
        "--seed",
        "11",
        "--csv",
        &solo_fixed,
    ]);
    assert_eq!(
        std::fs::read_to_string(&fixed_csv).expect("served csv"),
        std::fs::read_to_string(&solo_fixed).expect("solo csv"),
        "served fixed CSV must be byte-identical to solo assess"
    );

    // Identical resubmission: served from the fingerprint cache, still
    // byte-identical.
    let cached_csv = tmp("serve_cached.csv");
    let cached_csv = cached_csv.to_str().expect("utf8").to_string();
    let second = submit_fixed(&cached_csv);
    assert!(second.contains("result: cached"), "{second}");
    assert_eq!(
        std::fs::read_to_string(&cached_csv).expect("cached csv"),
        std::fs::read_to_string(&solo_fixed).expect("solo csv"),
        "cache-served CSV must be byte-identical too"
    );

    // Failure classes: protocol version skew → 5; an unparsable design
    // source → 4 (malformed), reported by the daemon before any simulation.
    let skew = cli()
        .args([
            "submit",
            &design,
            "--connect",
            &addr,
            "--proto-version",
            "99",
        ])
        .output()
        .expect("runs");
    assert_eq!(skew.status.code(), Some(5), "version skew must exit 5");

    let garbage = tmp("serve_garbage.bench");
    std::fs::write(&garbage, "this is not a netlist").expect("write");
    let bad = cli()
        .args([
            "submit",
            garbage.to_str().expect("utf8"),
            "--connect",
            &addr,
        ])
        .output()
        .expect("runs");
    assert_eq!(bad.status.code(), Some(4), "malformed design must exit 4");

    // Drain the daemon; it prints per-tenant accounting and exits 0.
    run_ok(&["submit", "--shutdown", "--connect", &addr]);
    let daemon = &mut reaper.0[daemon];
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = daemon.try_wait().expect("try_wait") {
            break status;
        }
        assert!(Instant::now() < deadline, "daemon did not drain");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(status.success(), "daemon must exit cleanly on shutdown");
    let mut daemon_err = String::new();
    daemon
        .stderr
        .take()
        .expect("piped")
        .read_to_string(&mut daemon_err)
        .expect("stderr utf8");
    assert!(
        daemon_err.contains("tenant alice"),
        "daemon must report tenant accounting:\n{daemon_err}"
    );
    assert!(
        daemon_err.contains("(lost)"),
        "daemon must report the killed worker as lost:\n{daemon_err}"
    );
}

/// A lease lost mid-campaign is re-issued, deterministically: a scripted
/// worker asks for work while the queue is empty, the daemon holds that
/// `NEXT` until a submission arrives and answers it with a `TASK`, and the
/// worker then drops the connection without a `DONE`. A real worker started
/// only afterwards must finish the job through the re-issued lease, with
/// the served CSV byte-identical to solo `assess`.
#[test]
fn long_polled_lease_dropped_by_its_worker_is_reissued() {
    use polaris_dist::{Message, PROTO_VERSION};

    let design = tmp("lost_c17.bench");
    std::fs::write(&design, C17_BENCH).expect("write design");
    let design = design.to_str().expect("utf8").to_string();

    let port_file = tmp("lost_port.txt");

    let mut reaper = Reaper(Vec::new());
    // A 10 s heartbeat lets the daemon hold a `NEXT` for up to 5 s, far
    // longer than the submit below takes to arrive.
    let daemon = cli()
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--heartbeat-ms",
            "10000",
            "--port-file",
            port_file.to_str().expect("utf8"),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let daemon = reaper.adopt(daemon);
    let deadline = Instant::now() + Duration::from_secs(10);
    let addr = loop {
        if let Ok(addr) = std::fs::read_to_string(&port_file) {
            break addr.trim().to_string();
        }
        assert!(
            Instant::now() < deadline,
            "daemon never wrote the port file"
        );
        std::thread::sleep(Duration::from_millis(25));
    };

    let stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    Message::Hello {
        version: PROTO_VERSION,
        name: "scripted".to_string(),
    }
    .write_to(&mut writer)
    .expect("send HELLO");
    let welcome = Message::read_from(&mut reader).expect("WELCOME");
    assert!(
        matches!(welcome, Some(Message::Welcome { .. })),
        "{welcome:?}"
    );
    Message::Next.write_to(&mut writer).expect("send NEXT");

    let csv = tmp("lost_adaptive.csv");
    let csv = csv.to_str().expect("utf8").to_string();
    let submit = cli()
        .args([
            "submit",
            &design,
            "--connect",
            &addr,
            "--traces",
            "6000",
            "--seed",
            "11",
            "--adaptive",
            "--csv",
            &csv,
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("submit spawns");
    let submit = reaper.adopt(submit);

    let reply = Message::read_from(&mut reader).expect("reply to NEXT");
    assert!(
        matches!(reply, Some(Message::Task { .. })),
        "the NEXT sent before the submission must be answered with its TASK, got {reply:?}"
    );
    drop(reader);
    drop(writer);

    reaper.adopt(
        cli()
            .args([
                "worker",
                "--connect",
                &addr,
                "--name",
                "real",
                "--threads",
                "1",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("worker spawns"),
    );
    let status = reaper.0[submit].wait().expect("submit finishes");
    assert!(status.success(), "adaptive submit failed");

    let solo = tmp("lost_solo.csv");
    let solo = solo.to_str().expect("utf8").to_string();
    run_ok(&[
        "assess",
        &design,
        "--traces",
        "6000",
        "--seed",
        "11",
        "--adaptive",
        "--csv",
        &solo,
    ]);
    assert_eq!(
        std::fs::read_to_string(&csv).expect("served csv"),
        std::fs::read_to_string(&solo).expect("solo csv"),
        "served CSV must be byte-identical to solo assess through the lost lease"
    );

    run_ok(&["submit", "--shutdown", "--connect", &addr]);
    let daemon = &mut reaper.0[daemon];
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = daemon.try_wait().expect("try_wait") {
            break status;
        }
        assert!(Instant::now() < deadline, "daemon did not drain");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(status.success(), "daemon must exit cleanly on shutdown");
    let mut daemon_err = String::new();
    daemon
        .stderr
        .take()
        .expect("piped")
        .read_to_string(&mut daemon_err)
        .expect("stderr utf8");
    assert!(
        daemon_err
            .lines()
            .any(|l| l.starts_with("worker scripted:") && l.ends_with("(lost)")),
        "daemon must report the scripted worker as lost:\n{daemon_err}"
    );
}
