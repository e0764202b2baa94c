//! `polaris-cli serve` / `worker` / `submit` — the live assessment service.
//!
//! `serve` runs the daemon: it listens on a TCP socket, accepts design
//! submissions, leases shard ranges of each submission's campaign grid to
//! registered live workers, folds the returned `PLRSHARD` parts in
//! canonical grid order, and replies with the per-gate leakage CSV — built
//! from exactly the same fold as a single-process `assess` run, so the two
//! CSVs compare equal with `cmp` at any worker count, any lease schedule,
//! and through worker crashes. `worker` attaches a stateless executor to a
//! running daemon; `submit` ships a design and waits for the result.
//!
//! The protocol is the line-oriented framing of [`polaris_dist::Message`];
//! the scheduling, replay, adaptive-checkpoint, and caching logic all live
//! in [`polaris_dist::Coordinator`] — this module is only sockets and
//! threads around them.
//!
//! Worker loss is detected by heartbeat: the daemon reads each worker
//! socket with a timeout of twice the granted heartbeat budget; a socket
//! that stays silent past it (or drops) has its leases re-issued to the
//! surviving fleet. Workers `Ping` while a lease executes, so long
//! simulations do not look like death.
//!
//! Nothing on the serve path waits on a timer. The accept loop blocks in
//! `accept` (a shutdown wakes it with one loopback connect); a worker's
//! `Next` that finds no work is held on the condvar that every submission,
//! settled lease, lost worker and shutdown notifies, for up to half the
//! heartbeat budget, and the worker re-asks right after an `Idle`. Every
//! socket runs with `TCP_NODELAY`, and every message is one write.

use std::io::{BufReader, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use polaris_dist::{
    decode_part, Coordinator, DesignFormat, DistError, JobResult, JobStatus, Message, ProtoError,
    ResultOrigin, Submission, SubmitOutcome, TaskSpec, DEFAULT_HEARTBEAT_MS, PROTO_VERSION,
};
use polaris_sim::Parallelism;

use crate::commands::{confidence_from, leakage_csv, parallelism_from};
use crate::trace::TraceOut;
use crate::{read_file, write_file, write_file_bytes, CliError, Flags};

const SERVE_USAGE: &str = "\
serve [--listen HOST:PORT] [--heartbeat-ms N] [--port-file PATH]
      [--trace-out trace.jsonl]

Runs the live assessment daemon. Workers attach with `polaris-cli worker`,
clients submit designs with `polaris-cli submit`. The daemon prints
`serving on HOST:PORT` once the socket is bound (and writes the address to
--port-file, if given, for scripts that listen on port 0); it exits after a
client sends a shutdown request, printing per-tenant accounting.

Results are byte-identical to single-process `assess` runs: identical
resubmissions are served from a fingerprint cache without simulating,
and leases lost to dead workers are re-issued without changing a bit of
the output.";

const WORKER_USAGE: &str = "\
worker --connect HOST:PORT [--name ID --threads N --lane-words W]

Attaches a live worker to a running serve daemon and executes leased shard
ranges until the daemon drains. The daemon holds each task request until
work arrives (up to half its heartbeat budget), so a submission starts on
an idle worker at once. --threads/--lane-words are throughput knobs only;
results are bit-identical at any setting.";

const SUBMIT_USAGE: &str = "\
submit <netlist> --connect HOST:PORT [--tenant ID --traces N --seed N
       --cycles N --glitch --adaptive --confidence P] [--csv out.csv]
submit --shutdown --connect HOST:PORT

Submits a design (.bench or structural Verilog) to a running serve daemon
and waits for the merged assessment. The per-gate leakage CSV goes to
--csv, or stdout without it. --shutdown asks the daemon to drain and exit
instead of submitting.

exit codes: the daemon reports failures with the `dist` failure-class
codes (1 execution/transport, 3 truncated, 4 malformed, 5 protocol or
format version skew, 6 checksum, 7 plan/fingerprint mismatch, 8 gate
list); the client exits with the reported code.";

fn io_err(e: std::io::Error) -> CliError {
    CliError {
        code: 1,
        message: format!("transport: {e}"),
    }
}

fn proto_err(e: ProtoError) -> CliError {
    CliError {
        code: e.class(),
        message: e.to_string(),
    }
}

/// What every connection is told once the coordinator lock is poisoned.
const POISONED: &str =
    "a connection handler panicked holding the coordinator lock; the daemon failed closed";

/// The coordinator lock was found poisoned: a connection thread panicked
/// while holding it, so the coordinator's state may be half-updated.
struct Poisoned;

impl Poisoned {
    /// The typed reply a peer gets: an execution failure (class 1).
    fn reply(&self) -> Message {
        Message::Error {
            code: 1,
            message: POISONED.to_string(),
        }
    }

    /// Sends [`Poisoned::reply`] to `peer` and returns the message the
    /// connection thread logs.
    fn answer(self, peer: &mut TcpStream) -> String {
        let _ = self.reply().write_to(peer);
        POISONED.to_string()
    }
}

/// State shared between the accept loop and every connection thread. The
/// condvar pairs with the coordinator mutex and is notified after every
/// change a waiter may be waiting for — new leasable work, a settled job,
/// shutdown — so waiting submit handlers and long-polling `Next` handlers
/// wake at once.
struct Shared {
    coordinator: Mutex<Coordinator>,
    changed: Condvar,
    shutdown: AtomicBool,
    /// Set once the daemon found the coordinator lock poisoned.
    failed: AtomicBool,
    heartbeat_ms: u64,
    /// Where a shutdown connects to wake the accept loop.
    wake: SocketAddr,
}

impl Shared {
    /// Locks the coordinator. Every handler takes the lock here, so one
    /// that panicked holding it cannot turn later connections into panics:
    /// the daemon fails closed instead. It stops taking work, wakes every
    /// waiter and the accept loop, and `serve` exits with a non-zero code
    /// once the connection threads are done; the caller answers its peer
    /// with [`Poisoned::reply`].
    fn coordinator(&self) -> Result<MutexGuard<'_, Coordinator>, Poisoned> {
        self.coordinator.lock().map_err(|_| self.fail_closed())
    }

    /// Waits on the condvar for at most `timeout`, under the same rule as
    /// [`Shared::coordinator`].
    fn wait<'a>(
        &self,
        guard: MutexGuard<'a, Coordinator>,
        timeout: Duration,
    ) -> Result<MutexGuard<'a, Coordinator>, Poisoned> {
        match self.changed.wait_timeout(guard, timeout) {
            Ok((guard, _)) => Ok(guard),
            Err(_) => Err(self.fail_closed()),
        }
    }

    fn fail_closed(&self) -> Poisoned {
        if !self.failed.swap(true, Ordering::SeqCst) {
            self.shutdown.store(true, Ordering::SeqCst);
            self.changed.notify_all();
            let _ = TcpStream::connect_timeout(&self.wake, Duration::from_secs(5));
        }
        Poisoned
    }
}

/// `polaris-cli serve`
pub(crate) fn serve(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(args, &["help"]).map_err(CliError::from)?;
    if flags.has("help") {
        outln!("{SERVE_USAGE}");
        return Ok(());
    }
    let listen = flags.get("listen").unwrap_or("127.0.0.1:0");
    let heartbeat_ms: u64 = flags
        .get_parsed("heartbeat-ms", DEFAULT_HEARTBEAT_MS)
        .map_err(CliError::from)?;
    if heartbeat_ms == 0 {
        return Err(CliError::from(
            "--heartbeat-ms must be positive".to_string(),
        ));
    }
    let trace = TraceOut::from_flags(&flags);
    let listener = TcpListener::bind(listen)
        .map_err(|e| CliError::from(format!("cannot listen on {listen}: {e}")))?;
    let addr = listener
        .local_addr()
        .map_err(|e| CliError::from(e.to_string()))?;
    outln!("serving on {addr}");
    std::io::stdout().flush().ok();
    if let Some(path) = flags.get("port-file") {
        write_file(path, &format!("{addr}\n")).map_err(CliError::from)?;
    }

    let wake_ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    let shared = Arc::new(Shared {
        coordinator: Mutex::new(Coordinator::new(trace.owned())),
        changed: Condvar::new(),
        shutdown: AtomicBool::new(false),
        failed: AtomicBool::new(false),
        heartbeat_ms,
        wake: SocketAddr::new(wake_ip, addr.port()),
    });
    let served = run_daemon(&listener, &shared);
    trace.flush().map_err(CliError::from)?;
    served
}

/// The accept loop: one thread per connection until a shutdown, then the
/// per-tenant and per-worker accounting. Fails with exit class 1 when the
/// daemon failed closed (see [`Shared::coordinator`]).
fn run_daemon(listener: &TcpListener, shared: &Arc<Shared>) -> Result<(), CliError> {
    let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                handles.retain(|h| !h.is_finished());
                let shared = Arc::clone(shared);
                handles.push(std::thread::spawn(move || {
                    if let Err(e) = handle_connection(stream, &shared) {
                        eprintln!("connection: {e}");
                    }
                }));
            }
            Err(e) => {
                eprintln!("accept: {e}");
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }
    for handle in handles {
        let _ = handle.join();
    }

    let coordinator = shared.coordinator().map_err(|_| CliError {
        code: 1,
        message: POISONED.to_string(),
    })?;
    for (name, stats) in coordinator.tenant_summary() {
        eprintln!(
            "tenant {name}: {} submissions ({} cached, {} coalesced), \
             {} shards / {} traces simulated, {} failed",
            stats.submissions,
            stats.cache_hits,
            stats.coalesced,
            stats.shards,
            stats.traces,
            stats.failed
        );
    }
    for (name, completed, lost) in coordinator.worker_summary() {
        eprintln!(
            "worker {name}: {completed} leases completed{}",
            if lost { " (lost)" } else { "" }
        );
    }
    Ok(())
}

/// Dispatches one accepted connection by its opening message: `Hello`
/// starts a worker session, `Submit` a client session, `Shutdown` drains
/// the daemon.
fn handle_connection(stream: TcpStream, shared: &Shared) -> Result<(), String> {
    let e = |e: std::io::Error| e.to_string();
    stream.set_nodelay(true).map_err(e)?;
    // Bound the first read so a silent connection cannot wedge shutdown.
    stream
        .set_read_timeout(Some(Duration::from_millis(10_000)))
        .map_err(e)?;
    let mut reader = BufReader::new(stream.try_clone().map_err(e)?);
    let mut writer = stream;
    match Message::read_from(&mut reader) {
        Ok(Some(Message::Hello { version, name })) => {
            if version != PROTO_VERSION {
                let _ = Message::Error {
                    code: 5,
                    message: format!(
                        "worker speaks protocol v{version}, this daemon speaks v{PROTO_VERSION}"
                    ),
                }
                .write_to(&mut writer);
                return Ok(());
            }
            serve_worker(&mut reader, &mut writer, shared, &name)
        }
        Ok(Some(Message::Submit { version, blob })) => {
            let reply = client_reply(shared, version, &blob);
            reply.write_to(&mut writer).map_err(e)
        }
        Ok(Some(Message::Shutdown)) => {
            // Set the flag under the lock, so a handler that has just found
            // it clear is already waiting when the notification comes.
            let guard = shared.coordinator();
            shared.shutdown.store(true, Ordering::SeqCst);
            drop(guard);
            shared.changed.notify_all();
            // Wake the accept loop, which re-checks the flag.
            TcpStream::connect_timeout(&shared.wake, Duration::from_secs(5))
                .map(drop)
                .map_err(|err| format!("waking the accept loop: {err}"))
        }
        Ok(Some(_)) => {
            let _ = Message::Error {
                code: 4,
                message: "expected HELLO, SUBMIT, or SHUTDOWN".to_string(),
            }
            .write_to(&mut writer);
            Ok(())
        }
        Ok(None) => Ok(()),
        Err(err) => {
            let _ = Message::Error {
                code: err.class(),
                message: err.to_string(),
            }
            .write_to(&mut writer);
            Ok(())
        }
    }
}

/// The daemon side of one worker connection: a pull loop of `Next` →
/// `Task`/`Idle`/`Shutdown` (see [`next_reply`]), with `Done`/`Fail`
/// settling leases. Leaving the loop for any reason — heartbeat timeout,
/// EOF, protocol violation, drain — marks the worker lost so its
/// outstanding leases are re-issued.
fn serve_worker(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    shared: &Shared,
    name: &str,
) -> Result<(), String> {
    let worker = match shared.coordinator() {
        Ok(mut coordinator) => coordinator.register_worker(name),
        Err(poisoned) => return Err(poisoned.answer(writer)),
    };
    Message::Welcome {
        worker,
        heartbeat_ms: shared.heartbeat_ms,
    }
    .write_to(writer)
    .map_err(|e| e.to_string())?;
    // The read timeout is the loss detector: workers promise a message at
    // least every heartbeat budget; grant 2x slack for scheduling jitter.
    reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_millis(
            shared.heartbeat_ms.saturating_mul(2),
        )))
        .map_err(|e| e.to_string())?;
    loop {
        match Message::read_from(reader) {
            Ok(Some(Message::Next)) => {
                let reply = next_reply(shared, worker).map_err(|p| p.answer(writer))?;
                if reply == Message::Shutdown {
                    let _ = reply.write_to(writer);
                    break;
                }
                reply.write_to(writer).map_err(|e| e.to_string())?;
            }
            Ok(Some(Message::Ping)) => {}
            Ok(Some(Message::Done { task, blob })) => {
                // Decode before locking: a blob of up to 64 MiB must not
                // hold up every other handler.
                let part = decode_part(&blob);
                let outcome = shared
                    .coordinator()
                    .map_err(|p| p.answer(writer))?
                    .complete_task(task, part);
                if let Err(err) = outcome {
                    eprintln!("worker {name}: part for lease {task} rejected: {err}");
                }
                shared.changed.notify_all();
            }
            Ok(Some(Message::Fail { task, reason })) => {
                shared
                    .coordinator()
                    .map_err(|p| p.answer(writer))?
                    .fail_task(task, &reason);
                eprintln!("worker {name}: lease {task} failed: {reason}");
                shared.changed.notify_all();
            }
            // Protocol violation, clean EOF, heartbeat timeout, or transport
            // failure: in every case the worker is no longer usable.
            Ok(Some(_)) | Ok(None) | Err(_) => break,
        }
    }
    shared
        .coordinator()
        .map_err(|p| p.answer(writer))?
        .worker_lost(worker);
    shared.changed.notify_all();
    Ok(())
}

/// The reply to one `Next`: a lease as soon as one is available, or
/// `Shutdown` as soon as the daemon drains. While neither holds, the
/// handler waits on the condvar with the coordinator unlocked, and answers
/// `Idle` after half the heartbeat budget.
fn next_reply(shared: &Shared, worker: u64) -> Result<Message, Poisoned> {
    let deadline = Instant::now() + Duration::from_millis(shared.heartbeat_ms / 2);
    let mut guard = shared.coordinator()?;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Ok(Message::Shutdown);
        }
        if let Some((lease, spec)) = guard.next_task(worker) {
            return Ok(Message::Task {
                task: lease,
                blob: spec.render(),
            });
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Ok(Message::Idle);
        }
        guard = shared.wait(guard, left)?;
    }
}

/// The daemon side of one client submission: parse the manifest and the
/// design (before the coordinator lock, which every worker `NEXT` and
/// `DONE` needs), submit, wait for the job to settle, and build the one
/// reply message.
fn client_reply(shared: &Shared, version: u16, blob: &[u8]) -> Message {
    if version != PROTO_VERSION {
        return Message::Error {
            code: 5,
            message: format!(
                "client speaks protocol v{version}, this daemon speaks v{PROTO_VERSION}"
            ),
        };
    }
    let refuse = |e: DistError| Message::Error {
        code: e.exit_class(),
        message: e.to_string(),
    };
    let sub = match Submission::parse(blob) {
        Ok(sub) => sub,
        Err(e) => return refuse(e),
    };
    let prepared = match sub.prepare() {
        Ok(prepared) => prepared,
        Err(e) => return refuse(e),
    };
    let outcome = match shared.coordinator() {
        Ok(mut coordinator) => coordinator.submit(prepared),
        Err(poisoned) => return poisoned.reply(),
    };
    shared.changed.notify_all();
    match outcome {
        SubmitOutcome::Cached(result) => result_message(&result, ResultOrigin::Cached),
        SubmitOutcome::Queued { job, coalesced } => {
            let origin = if coalesced {
                ResultOrigin::Coalesced
            } else {
                ResultOrigin::Computed
            };
            let mut guard = match shared.coordinator() {
                Ok(guard) => guard,
                Err(poisoned) => return poisoned.reply(),
            };
            loop {
                match guard.job_status(job) {
                    JobStatus::Done(result) => break result_message(&result, origin),
                    JobStatus::Failed { code, message } => break Message::Error { code, message },
                    JobStatus::Unknown => {
                        break Message::Error {
                            code: 1,
                            message: "job vanished".to_string(),
                        }
                    }
                    JobStatus::Running => {
                        if shared.shutdown.load(Ordering::SeqCst) {
                            break Message::Error {
                                code: 1,
                                message: "service shutting down before the job settled".to_string(),
                            };
                        }
                        guard = match shared.wait(guard, Duration::from_millis(100)) {
                            Ok(guard) => guard,
                            Err(poisoned) => break poisoned.reply(),
                        };
                    }
                }
            }
        }
    }
}

/// Builds the `Result` reply: the same per-gate leakage CSV `assess --csv`
/// writes, from the same canonical fold — `cmp`-equal by construction.
fn result_message(result: &JobResult, origin: ResultOrigin) -> Message {
    let csv = leakage_csv(&result.netlist, &result.sink.leakage());
    Message::Result {
        origin,
        fixed: result.stats.fixed_traces as u64,
        random: result.stats.random_traces as u64,
        rounds: result.stats.rounds as u64,
        stopped_early: result.stats.stopped_early,
        blob: csv.into_bytes(),
    }
}

/// Connects to the daemon with `TCP_NODELAY` set and returns the read and
/// write halves of the socket.
fn connect_to(addr: &str) -> Result<(BufReader<TcpStream>, TcpStream), CliError> {
    let stream = TcpStream::connect(addr)
        .map_err(|e| CliError::from(format!("cannot connect to {addr}: {e}")))?;
    stream.set_nodelay(true).map_err(io_err)?;
    let reader = BufReader::new(stream.try_clone().map_err(io_err)?);
    Ok((reader, stream))
}

/// `polaris-cli worker`
pub(crate) fn worker(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(args, &["help"]).map_err(CliError::from)?;
    if flags.has("help") {
        outln!("{WORKER_USAGE}");
        return Ok(());
    }
    let connect = flags
        .get("connect")
        .ok_or_else(|| CliError::from("missing --connect HOST:PORT".to_string()))?;
    let name = flags.get("name").unwrap_or("worker");
    let parallelism = parallelism_from(&flags).map_err(CliError::from)?;
    let (mut reader, mut writer) = connect_to(connect)?;
    Message::Hello {
        version: PROTO_VERSION,
        name: name.to_string(),
    }
    .write_to(&mut writer)
    .map_err(io_err)?;
    let heartbeat_ms = match Message::read_from(&mut reader).map_err(proto_err)? {
        Some(Message::Welcome {
            worker,
            heartbeat_ms,
        }) => {
            eprintln!("worker {name}: registered as #{worker}");
            heartbeat_ms.max(100)
        }
        Some(Message::Error { code, message }) => return Err(CliError { code, message }),
        _ => return Err(CliError::from("daemon did not welcome us".to_string())),
    };

    let mut completed = 0u64;
    loop {
        Message::Next.write_to(&mut writer).map_err(io_err)?;
        match Message::read_from(&mut reader).map_err(proto_err)? {
            Some(Message::Task { task, blob }) => {
                match execute_leased(&blob, parallelism, heartbeat_ms, &mut writer)? {
                    Ok(part) => {
                        completed += 1;
                        Message::Done { task, blob: part }
                            .write_to(&mut writer)
                            .map_err(io_err)?;
                    }
                    Err(reason) => {
                        eprintln!("worker {name}: lease {task}: {reason}");
                        Message::Fail { task, reason }
                            .write_to(&mut writer)
                            .map_err(io_err)?;
                    }
                }
            }
            Some(Message::Idle) => {}
            Some(Message::Shutdown) | None => break,
            Some(Message::Error { code, message }) => return Err(CliError { code, message }),
            Some(_) => return Err(CliError::from("unexpected daemon message".to_string())),
        }
    }
    eprintln!("worker {name}: {completed} leases completed, daemon drained");
    Ok(())
}

/// Executes one leased task on a helper thread while the calling thread
/// keeps the heartbeat alive with `Ping`s — a long shard range must not
/// look like a dead worker. The inner `Result` is the lease outcome
/// (reported as `Done`/`Fail`); the outer one is transport failure.
fn execute_leased(
    blob: &[u8],
    parallelism: Parallelism,
    heartbeat_ms: u64,
    writer: &mut TcpStream,
) -> Result<Result<Vec<u8>, String>, CliError> {
    let spec = match TaskSpec::parse(blob) {
        Ok(spec) => spec,
        Err(e) => return Ok(Err(e.to_string())),
    };
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let _ = tx.send(spec.execute(parallelism).map_err(|e| e.to_string()));
        });
        loop {
            match rx.recv_timeout(Duration::from_millis((heartbeat_ms / 2).max(50))) {
                Ok(outcome) => break Ok(outcome),
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                    Message::Ping.write_to(writer).map_err(io_err)?;
                }
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                    break Ok(Err("executor thread died".to_string()))
                }
            }
        }
    })
}

/// `polaris-cli submit`
pub(crate) fn submit(args: &[String]) -> Result<(), CliError> {
    let flags =
        Flags::parse(args, &["glitch", "adaptive", "shutdown", "help"]).map_err(CliError::from)?;
    if flags.has("help") {
        outln!("{SUBMIT_USAGE}");
        return Ok(());
    }
    let connect = flags
        .get("connect")
        .ok_or_else(|| CliError::from("missing --connect HOST:PORT".to_string()))?;
    let (mut reader, mut writer) = connect_to(connect)?;

    if flags.has("shutdown") {
        Message::Shutdown.write_to(&mut writer).map_err(io_err)?;
        eprintln!("shutdown requested");
        return Ok(());
    }

    let path = flags
        .positional(0, "netlist path")
        .map_err(CliError::from)?;
    let source = read_file(path).map_err(CliError::from)?;
    let format = if path.ends_with(".bench") {
        DesignFormat::Bench
    } else {
        DesignFormat::Verilog
    };
    let sub = Submission {
        tenant: flags.get("tenant").unwrap_or("default").to_string(),
        name: design_token(path),
        format,
        traces: flags.get_parsed("traces", 500).map_err(CliError::from)?,
        seed: flags.get_parsed("seed", 7).map_err(CliError::from)?,
        cycles: flags.get_parsed("cycles", 1).map_err(CliError::from)?,
        glitch: flags.has("glitch"),
        adaptive: flags.has("adaptive"),
        confidence: confidence_from(&flags).map_err(CliError::from)?,
        source,
    };
    // Validate client-side too, so a bad tenant token fails fast with the
    // same failure class the daemon would report.
    if let Err(e) = sub.validate() {
        return Err(CliError {
            code: e.exit_class(),
            message: e.to_string(),
        });
    }
    // Hidden test hook: --proto-version forges the announced version so CI
    // can check the daemon's version-skew rejection path.
    let version: u16 = flags
        .get_parsed("proto-version", PROTO_VERSION)
        .map_err(CliError::from)?;
    Message::Submit {
        version,
        blob: sub.render(),
    }
    .write_to(&mut writer)
    .map_err(io_err)?;

    match Message::read_from(&mut reader).map_err(proto_err)? {
        Some(Message::Result {
            origin,
            fixed,
            random,
            rounds,
            stopped_early,
            blob,
        }) => {
            eprintln!(
                "result: {} ({fixed} fixed + {random} random traces, {rounds} round{}{})",
                origin.name(),
                if rounds == 1 { "" } else { "s" },
                if stopped_early { ", stopped early" } else { "" }
            );
            match flags.get("csv") {
                Some(csv) => {
                    write_file_bytes(csv, &blob).map_err(CliError::from)?;
                    eprintln!("per-gate leakage written to {csv}");
                }
                None => {
                    std::io::stdout()
                        .write_all(&blob)
                        .map_err(|e| CliError::from(e.to_string()))?;
                }
            }
            Ok(())
        }
        Some(Message::Error { code, message }) => Err(CliError { code, message }),
        _ => Err(CliError::from(
            "daemon closed the connection without a result".to_string(),
        )),
    }
}

/// Derives a submission display name from the netlist path: the file stem,
/// restricted to the token alphabet.
fn design_token(path: &str) -> String {
    let stem = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("design");
    let token: String = stem
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
        .take(64)
        .collect();
    if token.is_empty() {
        "design".to_string()
    } else {
        token
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_obs::NullRecorder;

    /// A handler that panics while holding the coordinator lock poisons it.
    /// The next handlers answer with a typed error instead of panicking in
    /// turn, and the daemon stops accepting and exits with a non-zero code.
    #[test]
    fn a_panicking_handler_fails_the_daemon_closed() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("bound address");
        let shared = Arc::new(Shared {
            coordinator: Mutex::new(Coordinator::new(Arc::new(NullRecorder))),
            changed: Condvar::new(),
            shutdown: AtomicBool::new(false),
            failed: AtomicBool::new(false),
            heartbeat_ms: 1_000,
            wake: addr,
        });
        let daemon = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || run_daemon(&listener, &shared))
        };
        let handler = Arc::clone(&shared);
        let panicked = std::thread::spawn(move || {
            let _held = handler.coordinator().ok();
            panic!("a handler panics holding the coordinator lock");
        })
        .join();
        assert!(panicked.is_err());

        // A worker's HELLO reaches a handler, which finds the lock poisoned.
        let (mut reader, mut writer) = connect_to(&addr.to_string()).expect("daemon listens");
        Message::Hello {
            version: PROTO_VERSION,
            name: "w".to_string(),
        }
        .write_to(&mut writer)
        .expect("send HELLO");
        match Message::read_from(&mut reader) {
            Ok(Some(Message::Error { code, message })) => {
                assert_eq!(code, 1);
                assert_eq!(message, POISONED);
            }
            other => panic!("expected a typed error reply, got {other:?}"),
        }
        let exit = daemon.join().expect("the accept loop returns");
        assert_eq!(exit.expect_err("the daemon fails closed").code, 1);

        // A submission gets the same reply, and never reaches the coordinator.
        let sub = Submission {
            tenant: "t".to_string(),
            name: "c17".to_string(),
            format: DesignFormat::Bench,
            traces: 64,
            seed: 1,
            cycles: 1,
            glitch: false,
            adaptive: false,
            confidence: 0.95,
            source: "INPUT(a)\nOUTPUT(b)\nb = NOT(a)\n".to_string(),
        };
        assert_eq!(
            client_reply(&shared, PROTO_VERSION, &sub.render()),
            Poisoned.reply()
        );
        assert_eq!(
            next_reply(&shared, 0).err().map(|p| p.reply()),
            Some(Poisoned.reply())
        );
    }
}
