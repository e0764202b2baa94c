//! `serve-c432`: a closed loop of one client (100 ms think time) against a `polaris-cli serve`
//! daemon with one `worker --threads 1`. The mix is fresh c432/c17
//! submissions with per-sample seeds, a fixed share of exact repeats (cache
//! hits) and some adaptive submissions. The only workload that exercises
//! dist, proto and the service.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use polaris_dist::{execute_part, DesignFormat, Message, ResultOrigin, Submission, PROTO_VERSION};
use polaris_netlist::{generators, write_bench, Netlist};
use polaris_sim::{CampaignConfig, Parallelism, PowerModel};
use polaris_tvla::WelchAccumulator;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::common::{peak_rss_mb, via_bench, Ctx, Outcome, Timed, SETUPS};
use crate::probes;
use crate::stats::median;
use crate::trace::Tracer;

/// Traces per class of every submission (the budget, for adaptive ones).
pub const TRACES: usize = 5_000;
/// Mean time per request of the mix on the reference host, think time
/// included.
const NOMINAL_OP_S: f64 = 0.5;
/// Client think time between a reply and the next request. Without it the
/// next request races the worker's post-lease poll inside the daemon, and
/// whether it lands before or after that poll swings its latency by the
/// worker's 500 ms idle sleep.
const THINK: Duration = Duration::from_millis(100);
/// The request mix, repeated: `F` fresh c432, `C` fresh c17, `A` adaptive
/// c432, `R` an exact repeat of an earlier fresh request (25 % repeats,
/// 15 % adaptive). A fixed order keeps the number of fresh-after-fresh
/// requests, whose latency races the idle worker's poll, the same for
/// every seed.
const PATTERN: &[u8; 20] = b"FFARCFRFAFRCFARFCRFF";
/// Longest wait for any daemon reply or process exit.
const TIMEOUT: Duration = Duration::from_secs(60);

const PHASE: u64 = 31;
const WARMUP: u64 = 32;
const TRACED: u64 = 33;

/// One planned submission: a fresh design/seed, or a repeat of an earlier
/// entry.
#[derive(Clone, Debug, PartialEq)]
pub struct Planned {
    pub c17: bool,
    pub seed: u64,
    pub adaptive: bool,
    pub repeat_of: Option<usize>,
}

/// The submission mix of `n` requests in stream `salt`: [`PATTERN`]
/// repeated, with seeded campaign seeds and seeded repeat targets.
pub fn plan(ctx: &Ctx, salt: u64, n: usize) -> Vec<Planned> {
    let mut rng = StdRng::seed_from_u64(ctx.sub_seed(salt, usize::MAX));
    let mut out: Vec<Planned> = Vec::with_capacity(n);
    for i in 0..n {
        let kind = PATTERN[i % PATTERN.len()];
        let p = if kind == b'R' {
            let originals: Vec<usize> = (0..i).filter(|&j| out[j].repeat_of.is_none()).collect();
            let j = *originals
                .choose(&mut rng)
                .expect("the pattern starts fresh");
            Planned {
                repeat_of: Some(j),
                ..out[j].clone()
            }
        } else {
            Planned {
                c17: kind == b'C',
                seed: ctx.sub_seed(salt, i),
                adaptive: kind == b'A',
                repeat_of: None,
            }
        };
        out.push(p);
    }
    out
}

/// A running daemon with its one worker.
struct Daemon {
    serve: Child,
    worker: Child,
    addr: String,
    drain: JoinHandle<()>,
}

fn first_line_with(reader: &mut impl BufRead, needle: &str) -> Result<String, String> {
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return Err(format!("stream closed before `{needle}`")),
            Ok(_) if line.contains(needle) => return Ok(line.trim().to_string()),
            Ok(_) => {}
            Err(e) => return Err(e.to_string()),
        }
    }
}

/// A daemon and its worker, spawned; the worker may not have registered yet.
struct Spawned {
    serve: Child,
    worker: Child,
    addr: String,
    stderr: BufReader<ChildStderr>,
}

/// Spawns `serve` and, once it listens, one `worker --threads 1`.
fn spawn(cli: &Path) -> Result<Spawned, String> {
    let mut serve = Command::new(cli)
        .args(["serve", "--listen", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", cli.display()))?;
    let stdout = serve.stdout.take().expect("piped stdout");
    let line = first_line_with(&mut BufReader::new(stdout), "serving on");
    let addr = match line {
        Ok(l) => l.trim_start_matches("serving on").trim().to_string(),
        Err(e) => {
            let _ = serve.kill();
            let _ = serve.wait();
            return Err(format!("daemon: {e}"));
        }
    };
    let worker = Command::new(cli)
        .args([
            "worker",
            "--connect",
            &addr,
            "--name",
            "w1",
            "--threads",
            "1",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn();
    let mut worker = match worker {
        Ok(w) => w,
        Err(e) => {
            let _ = serve.kill();
            let _ = serve.wait();
            return Err(format!("spawning worker: {e}"));
        }
    };
    let stderr = BufReader::new(worker.stderr.take().expect("piped stderr"));
    Ok(Spawned {
        serve,
        worker,
        addr,
        stderr,
    })
}

/// Waits until the spawned worker has registered with its daemon.
fn registered(s: Spawned) -> Result<Daemon, String> {
    let Spawned {
        mut serve,
        mut worker,
        addr,
        mut stderr,
    } = s;
    if let Err(e) = first_line_with(&mut stderr, "registered as") {
        for child in [&mut worker, &mut serve] {
            let _ = child.kill();
            let _ = child.wait();
        }
        return Err(format!("worker: {e}"));
    }
    let drain = std::thread::spawn(move || {
        let _ = std::io::copy(&mut stderr, &mut std::io::sink());
    });
    Ok(Daemon {
        serve,
        worker,
        addr,
        drain,
    })
}

fn wait_with_timeout(child: &mut Child) -> bool {
    let t = Instant::now();
    while t.elapsed() < TIMEOUT {
        if let Ok(Some(status)) = child.try_wait() {
            return status.success();
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let _ = child.kill();
    let _ = child.wait();
    false
}

/// Asks the daemon to drain and waits for both processes to exit.
fn stop(mut d: Daemon) -> bool {
    let asked = TcpStream::connect(&d.addr)
        .and_then(|mut s| Message::Shutdown.write_to(&mut s))
        .is_ok();
    let serve_ok = wait_with_timeout(&mut d.serve);
    let worker_ok = wait_with_timeout(&mut d.worker);
    let _ = d.drain.join();
    asked && serve_ok && worker_ok
}

/// Ends a daemon without draining it (a discarded start-up).
fn kill(mut d: Daemon) {
    for child in [&mut d.worker, &mut d.serve] {
        let _ = child.kill();
        let _ = child.wait();
    }
    let _ = d.drain.join();
}

/// A served result: origin, traces simulated and the leakage CSV.
struct Served {
    origin: ResultOrigin,
    traces: u64,
    csv: Vec<u8>,
}

fn submit(addr: &str, sub: &Submission) -> Result<Served, String> {
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    Message::Submit {
        version: PROTO_VERSION,
        blob: sub.render(),
    }
    .write_to(&mut writer)
    .map_err(|e| e.to_string())?;
    match Message::read_from(&mut reader).map_err(|e| e.to_string())? {
        Some(Message::Result {
            origin,
            fixed,
            random,
            blob,
            ..
        }) => Ok(Served {
            origin,
            traces: fixed + random,
            csv: blob,
        }),
        Some(Message::Error { code, message }) => Err(format!("error {code}: {message}")),
        _ => Err("daemon closed the connection without a result".into()),
    }
}

/// The generated designs and their files for the `assess` oracle.
struct Designs {
    c432: Netlist,
    c432_src: String,
    c17_src: String,
    dir: PathBuf,
}

impl Designs {
    fn new(ctx: &Ctx) -> Result<Self, String> {
        let c432 = via_bench(&generators::iscas_like("c432", 1, ctx.seed).expect("known design"));
        let c432_src = write_bench(&c432);
        let c17_src = write_bench(&via_bench(&generators::iscas_c17()));
        let dir = ctx
            .work
            .join(format!("serve-{}-{}", ctx.seed, std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        std::fs::write(dir.join("c432.bench"), &c432_src).map_err(|e| e.to_string())?;
        std::fs::write(dir.join("c17.bench"), &c17_src).map_err(|e| e.to_string())?;
        Ok(Designs {
            c432,
            c432_src,
            c17_src,
            dir,
        })
    }

    fn submission(&self, p: &Planned, traces: usize) -> Submission {
        Submission {
            tenant: "bench".into(),
            name: if p.c17 { "c17" } else { "c432" }.into(),
            format: DesignFormat::Bench,
            traces,
            seed: p.seed,
            cycles: 1,
            glitch: false,
            adaptive: p.adaptive,
            confidence: 0.95,
            source: if p.c17 { &self.c17_src } else { &self.c432_src }.clone(),
        }
    }

    /// `polaris-cli assess --csv` of the same submission, as bytes.
    fn assess_csv(
        &self,
        cli: &Path,
        p: &Planned,
        traces: usize,
        i: usize,
    ) -> Result<Vec<u8>, String> {
        let design = self
            .dir
            .join(if p.c17 { "c17.bench" } else { "c432.bench" });
        let csv = self.dir.join(format!("assess-{i}.csv"));
        let mut cmd = Command::new(cli);
        cmd.arg("assess")
            .arg(&design)
            .args([
                "--traces",
                &traces.to_string(),
                "--seed",
                &p.seed.to_string(),
            ])
            .args(["--threads", "1", "--csv"])
            .arg(&csv)
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if p.adaptive {
            cmd.arg("--adaptive");
        }
        let status = cmd.status().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("assess exited with {status}"));
        }
        std::fs::read(&csv).map_err(|e| e.to_string())
    }
}

/// Runs one planned mix in a closed loop: each request is sent [`THINK`]
/// after the previous reply and timed from send to reply.
fn drive(
    addr: &str,
    designs: &Designs,
    mix: &[Planned],
    traces: usize,
    mut t: Option<&mut Tracer>,
) -> (Timed, Vec<Result<Served, String>>) {
    let mut served = Vec::with_capacity(mix.len());
    let mut lat_s = Vec::with_capacity(mix.len());
    let started = Instant::now();
    for p in mix {
        std::thread::sleep(THINK);
        let sub = designs.submission(p, traces);
        let sent = Instant::now();
        let r = match t.as_deref_mut() {
            Some(t) => t.span("serve.submit", |_| submit(addr, &sub)),
            None => submit(addr, &sub),
        };
        lat_s.push(sent.elapsed().as_secs_f64());
        served.push(r);
    }
    let timed = Timed {
        wall_s: started.elapsed().as_secs_f64(),
        lat_s,
        rss_mb: Vec::new(),
        setup_s: Vec::new(),
    };
    (timed, served)
}

pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let Some(cli) = ctx.cli.as_deref() else {
        out.check(false, "serve-c432 needs --cli PATH to polaris-cli");
        return;
    };
    let traces = if ctx.tiny { 256 } else { TRACES };
    let n = ctx.ops(NOMINAL_OP_S);

    // Each set-up generates and writes the designs, then spawns a daemon and
    // its worker; the last one serves the timed phase. The worker's
    // registration is waited for untimed: the daemon's accept loop polls
    // every 25 ms, and whether the worker's connect lands before or after a
    // poll swings a start-up between 2 and 27 ms from run to run.
    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let spawned = Designs::new(ctx).and_then(|designs| Ok((designs, spawn(cli)?)));
        setups.push(t0.elapsed().as_secs_f64());
        let started = spawned.and_then(|(designs, s)| Ok((designs, registered(s)?)));
        let Some(started) = out.op(started, "designs + daemon + worker start-up") else {
            return;
        };
        if let Some((_, d)) = last.replace(started) {
            kill(d);
        }
    }
    let (designs, daemon) = last.expect("at least one start-up");
    let setup_s = median(&setups);
    // The first request a daemon serves pays lazy first-use costs.
    let warm = designs.submission(&plan(ctx, WARMUP, 1)[0], traces);
    if out
        .op(submit(&daemon.addr, &warm), "warm-up request")
        .is_none()
    {
        kill(daemon);
        return;
    }

    let mix = plan(ctx, PHASE, n);
    let (timed, served) = drive(&daemon.addr, &designs, &mix, traces, None);
    let rss = peak_rss_mb(Some(daemon.serve.id())).unwrap_or(f64::NAN);
    let computed_traces: u64 = served
        .iter()
        .flatten()
        .filter(|s| s.origin == ResultOrigin::Computed)
        .map(|s| s.traces)
        .sum();
    out.end_to_end(setup_s, &timed, computed_traces as f64, rss);

    // Correctness, outside the timed phase: origins follow the plan, every
    // served CSV equals `assess --csv` of the same submission, and repeats
    // return their original's bytes.
    let mut counts = [0usize; 3];
    for (i, (p, r)) in mix.iter().zip(&served).enumerate() {
        let Some(s) = out.op(r.as_ref(), "submission") else {
            continue;
        };
        let expected = if p.repeat_of.is_some() {
            ResultOrigin::Cached
        } else {
            ResultOrigin::Computed
        };
        counts[match s.origin {
            ResultOrigin::Computed => 0,
            ResultOrigin::Cached => 1,
            ResultOrigin::Coalesced => 2,
        }] += 1;
        out.check(s.origin == expected, &format!("request {i} origin"));
        let oracle = match p.repeat_of {
            Some(j) => served[j]
                .as_ref()
                .map(|o| o.csv.clone())
                .map_err(Clone::clone),
            None => designs.assess_csv(cli, p, traces, i),
        };
        out.check(
            oracle.is_ok_and(|o| o == s.csv),
            &format!("request {i} CSV equals polaris-cli assess --csv"),
        );
    }
    let planned_repeats = mix.iter().filter(|p| p.repeat_of.is_some()).count();
    out.check(
        counts == [mix.len() - planned_repeats, planned_repeats, 0],
        "origin counts match the planned mix",
    );

    if ctx.trace {
        let mut t = Tracer::new();
        let traced_mix = plan(ctx, TRACED, n);
        let (traced, _) = drive(&daemon.addr, &designs, &traced_mix, traces, Some(&mut t));
        out.layer(
            "bench.trace_overhead_frac",
            traced.wall_s / timed.wall_s - 1.0,
            "frac",
        );
        let config = CampaignConfig::new(traces, traces, mix[0].seed);
        let model = PowerModel::default();
        let compute: Vec<f64> = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                let part = t.span("dist.execute_part", |_| {
                    execute_part::<WelchAccumulator>(
                        &designs.c432,
                        &model,
                        &config,
                        Parallelism::new(1),
                        0,
                        1,
                    )
                });
                std::hint::black_box(part.expect("c432 levelizes"));
                t0.elapsed().as_secs_f64()
            })
            .collect();
        let p50 = median(&timed.lat_s);
        let compute_s = median(&compute);
        let cached: Vec<f64> = served
            .iter()
            .zip(&timed.lat_s)
            .filter(|(s, _)| s.as_ref().is_ok_and(|s| s.origin == ResultOrigin::Cached))
            .map(|(_, l)| *l)
            .collect();
        out.layer("serve.compute_ms", compute_s * 1e3, "ms");
        out.layer("serve.wait_ms", (p50 - compute_s) * 1e3, "ms");
        if !cached.is_empty() {
            out.layer("serve.cache_hit_ms", median(&cached) * 1e3, "ms");
        }
        out.layer("serve.computed", counts[0] as f64, "count");
        out.layer("serve.cached", counts[1] as f64, "count");
        out.layer("serve.coalesced", counts[2] as f64, "count");
        out.layer(
            "serve.cache_hit_ratio",
            counts[1] as f64 / planned_repeats.max(1) as f64,
            "ratio",
        );
        let reference = probes::t_bits(
            &polaris_tvla::assess_parallel(&designs.c432, &model, &config, Parallelism::new(1))
                .expect("c432 levelizes"),
        );
        let k = probes::all(&designs.c432, &model, &config, &reference, &mut t, out);
        for _ in 0..3 {
            probes::campaign_split(&designs.c432, &model, &config, &mut t);
        }
        probes::campaign_metrics(&t, &k, &designs.c432, &config, out);
        out.tracer = Some(t);
    }

    out.check(stop(daemon), "daemon drains and exits");
    let _ = std::fs::remove_dir_all(&designs.dir);
}
