//! `polaris-obs` — structured tracing for the POLARIS campaign stack.
//!
//! A hand-rolled, zero-dependency event/span model (in the offline-build
//! spirit of the `polaris-dist` wire codec): instrumented engines report
//! typed [`Payload`]s to a [`Recorder`], which stamps each one with a
//! monotonic timestamp and a thread ordinal. Two recorders ship:
//!
//! * [`NullRecorder`] — the default. `enabled()` is `false`, so every
//!   instrumentation site skips its clock reads and event construction
//!   entirely: campaigns without tracing pay nothing.
//! * [`JsonlRecorder`] — buffers one JSON line per event in memory;
//!   [`JsonlRecorder::to_jsonl`] hands the trace back for writing to disk
//!   (`polaris-cli … --trace-out FILE`).
//!
//! # Determinism contract
//!
//! Recording is strictly observational. Instrumented engines emit events
//! *outside* their fold paths and never branch on recorder state except to
//! skip timing — so campaign outcomes with recording on vs off are
//! byte-identical at every thread count, lane width, and partitioning
//! (proven by the workspace's `obs_neutrality` test suite).

mod event;
mod json;
mod summary;

pub use event::{parse_trace, Event, Payload, PopulationTag, Verdict};
pub use json::{JsonValue, JsonWriter, TraceError, MAX_FIELDS, MAX_LINE_BYTES, MAX_STRING_BYTES};
pub use summary::{AuditRow, CheckpointRow, PhaseTotals, TraceSummary, WorkerRow};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// An event sink instrumented engines report to.
///
/// Implementations must be cheap when disabled: every instrumentation site
/// checks [`Recorder::enabled`] before doing any timing work, so a recorder
/// that returns `false` makes the instrumentation free.
pub trait Recorder: Send + Sync {
    /// Whether instrumentation sites should measure and report at all.
    fn enabled(&self) -> bool;

    /// Accepts one event payload. Called from arbitrary worker threads;
    /// implementations stamp time and thread identity themselves so the
    /// emitting engine never touches a clock for a disabled recorder.
    fn record(&self, payload: Payload);
}

/// Debug output of a borrowed recorder: whether it records, not what.
impl std::fmt::Debug for dyn Recorder + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.enabled())
            .finish_non_exhaustive()
    }
}

/// The zero-overhead default recorder: disabled, drops everything.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _payload: Payload) {}
}

/// Process-wide worker ordinals: small, stable per thread, allocated on
/// first use. (Rust's `ThreadId` has no stable integer form on this
/// toolchain, and OS thread ids would tie traces to the platform.)
static NEXT_THREAD_ORDINAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ORDINAL: u64 = NEXT_THREAD_ORDINAL.fetch_add(1, Ordering::Relaxed);
}

/// This thread's process-local trace ordinal.
pub fn thread_ordinal() -> u64 {
    THREAD_ORDINAL.with(|t| *t)
}

/// Where a [`JsonlRecorder`] puts its encoded lines.
enum JsonlSink {
    /// Everything in one in-memory `String`, handed back by
    /// [`JsonlRecorder::to_jsonl`] at the end of the run.
    Buffer(String),
    /// Every line written (and flushed) to the writer as it is recorded, so
    /// a killed or OOM'd long-running process loses at most the line being
    /// written — and resident memory stays O(1) in the trace length.
    Stream {
        writer: Box<dyn std::io::Write + Send>,
        /// Bytes successfully written so far.
        written: usize,
        /// First write/flush error, deferred to [`JsonlRecorder::flush`]
        /// so `record` stays infallible for the engines.
        error: Option<String>,
    },
}

/// JSONL recorder: every event becomes one line — stamped with monotonic
/// nanoseconds since the recorder's creation and the recording thread's
/// ordinal — in either an in-memory buffer ([`JsonlRecorder::new`]) or an
/// incremental writer ([`JsonlRecorder::streaming`]).
///
/// Both modes emit exactly [`Event::encode`] plus a newline per event, so
/// the streamed bytes are byte-identical to the buffered trace for the same
/// event sequence.
pub struct JsonlRecorder {
    epoch: Instant,
    sink: Mutex<JsonlSink>,
}

impl std::fmt::Debug for JsonlRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (mode, len) = match &*self.lock() {
            JsonlSink::Buffer(buf) => ("buffer", buf.len()),
            JsonlSink::Stream { written, .. } => ("stream", *written),
        };
        f.debug_struct("JsonlRecorder")
            .field("mode", &mode)
            .field("len", &len)
            .finish()
    }
}

impl JsonlRecorder {
    /// Creates an empty buffering recorder; its creation instant is the
    /// trace epoch.
    pub fn new() -> Self {
        JsonlRecorder {
            epoch: Instant::now(),
            sink: Mutex::new(JsonlSink::Buffer(String::new())),
        }
    }

    /// Creates a streaming recorder: every recorded event is written (and
    /// flushed) to `writer` immediately instead of buffered, so the trace
    /// of a long-running process survives a crash and memory use does not
    /// grow with the trace. I/O errors are deferred to
    /// [`JsonlRecorder::flush`]; after the first error further events are
    /// dropped.
    pub fn streaming(writer: Box<dyn std::io::Write + Send>) -> Self {
        JsonlRecorder {
            epoch: Instant::now(),
            sink: Mutex::new(JsonlSink::Stream {
                writer,
                written: 0,
                error: None,
            }),
        }
    }

    /// The buffered trace, one JSON object per line. A streaming recorder
    /// has already handed its lines to the writer, so this returns the
    /// empty string for it.
    pub fn to_jsonl(&self) -> String {
        match &*self.lock() {
            JsonlSink::Buffer(buf) => buf.clone(),
            JsonlSink::Stream { .. } => String::new(),
        }
    }

    /// Number of bytes buffered (or, in streaming mode, written so far).
    pub fn len(&self) -> usize {
        match &*self.lock() {
            JsonlSink::Buffer(buf) => buf.len(),
            JsonlSink::Stream { written, .. } => *written,
        }
    }

    /// True when nothing has been recorded (or streamed) yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flushes a streaming writer and surfaces any write error deferred by
    /// [`Recorder::record`]. A no-op `Ok` for a buffering recorder.
    pub fn flush(&self) -> Result<(), String> {
        match &mut *self.lock() {
            JsonlSink::Buffer(_) => Ok(()),
            JsonlSink::Stream { writer, error, .. } => match error.take() {
                Some(e) => Err(e),
                None => writer.flush().map_err(|e| format!("trace flush: {e}")),
            },
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, JsonlSink> {
        // A worker panic elsewhere must not lose the trace collected so far.
        self.sink.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Default for JsonlRecorder {
    fn default() -> Self {
        JsonlRecorder::new()
    }
}

impl Recorder for JsonlRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, payload: Payload) {
        let event = Event {
            t_ns: u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX),
            thread: thread_ordinal(),
            payload,
        };
        let line = event.encode();
        match &mut *self.lock() {
            JsonlSink::Buffer(buf) => {
                buf.push_str(&line);
                buf.push('\n');
            }
            JsonlSink::Stream {
                writer,
                written,
                error,
            } => {
                if error.is_some() {
                    return;
                }
                // One write_all + flush per line: the byte stream is the
                // exact buffered format, durable at line granularity.
                let res = writer
                    .write_all(line.as_bytes())
                    .and_then(|()| writer.write_all(b"\n"))
                    .and_then(|()| writer.flush());
                match res {
                    Ok(()) => *written += line.len() + 1,
                    Err(e) => *error = Some(format!("trace write: {e}")),
                }
            }
        }
    }
}

/// An engine phase measured inside one shard span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Counter-derived RNG streams of data vectors and mask refresh.
    Rng = 0,
    /// Gate evaluation and toggle counting.
    Simulate = 1,
    /// The fused noise-and-energy pass: noise draws, the Box–Muller
    /// transform, and energy synthesis into the batch.
    Power = 2,
    /// Sink recording of the batch.
    Accumulate = 3,
}

/// Accumulates per-phase nanoseconds across the blocks of one shard.
///
/// Built around explicit [`PhaseTimer::begin`]/[`PhaseTimer::end`] pairs so
/// instrumented loops never fight the borrow checker, and fully inert when
/// disabled: `begin` returns `None` without reading the clock, and `end`
/// with `None` is a no-op.
#[derive(Clone, Copy, Debug)]
pub struct PhaseTimer {
    enabled: bool,
    nanos: [u64; 4],
}

impl PhaseTimer {
    /// A timer that measures only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        PhaseTimer {
            enabled,
            nanos: [0; 4],
        }
    }

    /// The inert timer untraced paths pass through the engine.
    pub fn disabled() -> Self {
        PhaseTimer::new(false)
    }

    /// Whether this timer measures at all.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a phase measurement; `None` (no clock read) when disabled.
    #[inline]
    pub fn begin(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Ends a measurement begun with [`PhaseTimer::begin`], attributing the
    /// elapsed time to `phase`.
    #[inline]
    pub fn end(&mut self, phase: Phase, begun: Option<Instant>) {
        if let Some(t0) = begun {
            self.nanos[phase as usize] +=
                u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
    }

    /// Accumulated nanoseconds of `phase`.
    pub fn nanos(&self, phase: Phase) -> u64 {
        self.nanos[phase as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn null_recorder_is_disabled_and_silent() {
        let r = NullRecorder;
        assert!(!r.enabled());
        r.record(Payload::QueueDepth {
            depth: 1,
            jobs_remaining: 1,
        });
    }

    #[test]
    fn jsonl_recorder_buffers_parseable_lines() {
        let r = JsonlRecorder::new();
        assert!(r.is_empty());
        r.record(Payload::QueueDepth {
            depth: 3,
            jobs_remaining: 2,
        });
        r.record(Payload::MergeDone {
            parts: 1,
            shards: 4,
            wall_ns: 99,
        });
        let text = r.to_jsonl();
        let events = parse_trace(&text).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].payload.kind(), "queue_depth");
        assert_eq!(events[1].payload.kind(), "merge_done");
        // Monotonic stamps: the second event is not earlier than the first.
        assert!(events[1].t_ns >= events[0].t_ns);
        assert_eq!(r.len(), text.len());
    }

    /// A `Write` handle into shared bytes, so a test can keep reading what
    /// the boxed writer inside a streaming recorder has produced.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn streaming_recorder_emits_the_buffered_byte_format() {
        let payloads = [
            Payload::QueueDepth {
                depth: 3,
                jobs_remaining: 2,
            },
            Payload::MergeFold {
                part: 1,
                shards: 8,
                wall_ns: 42,
            },
            Payload::MergeDone {
                parts: 2,
                shards: 16,
                wall_ns: 99,
            },
        ];
        let out = SharedBuf::default();
        let stream = JsonlRecorder::streaming(Box::new(out.clone()));
        assert!(stream.is_empty());
        for p in &payloads {
            stream.record(p.clone());
        }
        stream.flush().expect("no deferred write error");
        let bytes = out.0.lock().unwrap().clone();
        assert_eq!(stream.len(), bytes.len());
        // The streamed bytes are exactly `Event::encode() + '\n'` per event
        // — the buffered format: re-encoding the parsed events reproduces
        // the stream byte for byte.
        let text = String::from_utf8(bytes).expect("utf-8 jsonl");
        let events = parse_trace(&text).expect("parseable stream");
        assert_eq!(events.len(), payloads.len());
        let reencoded: String = events.iter().map(|e| e.encode() + "\n").collect();
        assert_eq!(reencoded, text);
        for (event, payload) in events.iter().zip(&payloads) {
            assert_eq!(event.payload.kind(), payload.kind());
        }
        // A streaming recorder has no buffer to hand back.
        assert_eq!(stream.to_jsonl(), "");
    }

    #[test]
    fn streaming_recorder_defers_write_errors_to_flush() {
        struct FailingWriter;
        impl std::io::Write for FailingWriter {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let stream = JsonlRecorder::streaming(Box::new(FailingWriter));
        stream.record(Payload::QueueDepth {
            depth: 0,
            jobs_remaining: 0,
        });
        let err = stream.flush().expect_err("first flush surfaces the error");
        assert!(err.contains("disk full"), "unexpected error: {err}");
        assert!(stream.is_empty(), "failed writes count no bytes");
    }

    #[test]
    fn recorder_is_usable_across_threads() {
        let r = Arc::new(JsonlRecorder::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let r = Arc::clone(&r);
                scope.spawn(move || {
                    r.record(Payload::QueueDepth {
                        depth: 0,
                        jobs_remaining: 0,
                    });
                });
            }
        });
        let events = parse_trace(&r.to_jsonl()).unwrap();
        assert_eq!(events.len(), 4);
    }

    #[test]
    fn disabled_phase_timer_never_reads_the_clock() {
        let mut t = PhaseTimer::disabled();
        assert!(t.begin().is_none());
        t.end(Phase::Rng, None);
        assert_eq!(t.nanos(Phase::Rng), 0);
    }

    #[test]
    fn enabled_phase_timer_accumulates() {
        let mut t = PhaseTimer::new(true);
        let b = t.begin();
        assert!(b.is_some());
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.end(Phase::Simulate, b);
        assert!(t.nanos(Phase::Simulate) >= 1_000_000);
        assert_eq!(t.nanos(Phase::Rng), 0);
    }

    #[test]
    fn thread_ordinals_are_distinct() {
        let here = thread_ordinal();
        let there = std::thread::spawn(thread_ordinal).join().unwrap();
        assert_ne!(here, there);
        assert_eq!(here, thread_ordinal());
    }
}
