//! Line-oriented message protocol of the live assessment service.
//!
//! Every message is one ASCII header line terminated by `\n`; messages that
//! carry a payload (submission manifests, task manifests, shard-state part
//! bytes, result artifacts) append the payload as a length-prefixed binary
//! blob immediately after the line:
//!
//! ```text
//! SUBMIT 2 1234\n<1234 manifest bytes>
//! TASK 7 5678\n<5678 task-manifest bytes>
//! DONE 7 90123\n<90123 PLRSHARD part bytes>
//! ```
//!
//! The framing is transport-agnostic (`BufRead`/`Write`), so the daemon,
//! workers, and clients all reuse one codec and the unit tests drive it
//! over in-memory buffers. As with the shard-state file format, everything
//! read is untrusted: header lines are length-capped, blob lengths are
//! bounded before allocation, and every malformed input maps to a typed
//! [`ProtoError`] — never a panic.
//!
//! Every message, header line and blob together, goes to the writer in one
//! `write_all` call, so on a socket it leaves as one send rather than one
//! per header field.
//!
//! ## Conversations
//!
//! A worker connection: `Hello` → `Welcome`, then a pull loop of `Next` →
//! (`Task` | `Idle` | `Shutdown`), with `Done`/`Fail` completing leases and
//! `Ping` keeping the heartbeat alive while a task executes. The daemon may
//! hold a `Next` for up to half the heartbeat budget, answering `Task` the
//! moment work is queued (or `Shutdown` the moment the daemon drains) and
//! `Idle` only when the wait runs out; the worker sends its next `Next`
//! right after an `Idle`, so an idle worker costs one round trip per half
//! heartbeat and picks up new work without delay. A client connection:
//! `Submit` → (`Result` | `Error`), or a bare `Shutdown` to drain the
//! daemon. Each `Next`/`Ping` doubles as a heartbeat: the daemon reads
//! worker sockets with a timeout, and a worker that stays silent past it is
//! declared lost and its leases re-issued.

use std::io::{BufRead, Read, Write};

/// Protocol version spoken by [`Message::Hello`] and [`Message::Submit`].
/// Exact-match policy, like the shard-state format: a daemon never guesses
/// at framing written by a different build.
///
/// Version 2 made `Next` a long poll: the daemon holds it until work is
/// queued (up to half the heartbeat budget), and the worker re-asks at once
/// after `Idle` instead of sleeping. A version-2 worker against a
/// version-1 daemon, which answers `Idle` at once, would spin, so the
/// handshake refuses the mix.
pub const PROTO_VERSION: u16 = 2;

/// Longest accepted header line (bytes, excluding the newline).
pub const MAX_LINE_BYTES: usize = 1024;

/// Largest accepted payload blob. Bounds allocation on hostile input; real
/// submissions (netlist sources) and parts (shard-state bytes) sit far
/// below it.
pub const MAX_BLOB_BYTES: usize = 64 << 20;

/// A protocol failure, classified so CLI front-ends can map each class to
/// the documented `dist` exit codes.
#[derive(Debug)]
pub enum ProtoError {
    /// Transport failure (socket reset, timeout, broken pipe).
    Io(std::io::Error),
    /// The stream ended inside a message (mid-line or mid-blob).
    Truncated(&'static str),
    /// A header line that does not parse as any message.
    Malformed(String),
    /// A line or blob longer than the protocol allows.
    Oversized {
        /// What overflowed ("header line" or "payload blob").
        what: &'static str,
        /// Declared or observed length.
        len: usize,
        /// The protocol bound it broke.
        max: usize,
    },
    /// The peer speaks a different protocol version.
    Version {
        /// The version the peer announced.
        found: u16,
    },
}

impl ProtoError {
    /// The failure class as a `dist`-style exit code: 3 truncated,
    /// 4 malformed/oversized, 5 version skew, 1 transport.
    pub fn class(&self) -> u8 {
        match self {
            ProtoError::Io(_) => 1,
            ProtoError::Truncated(_) => 3,
            ProtoError::Malformed(_) | ProtoError::Oversized { .. } => 4,
            ProtoError::Version { .. } => 5,
        }
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "transport: {e}"),
            ProtoError::Truncated(what) => write!(f, "stream ended inside {what}"),
            ProtoError::Malformed(msg) => write!(f, "malformed message: {msg}"),
            ProtoError::Oversized { what, len, max } => {
                write!(f, "{what} of {len} bytes exceeds the {max}-byte bound")
            }
            ProtoError::Version { found } => {
                write!(
                    f,
                    "peer speaks protocol v{found}, this build speaks v{PROTO_VERSION}"
                )
            }
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ProtoError::Truncated("a message payload")
        } else {
            ProtoError::Io(e)
        }
    }
}

/// Where a served result came from, reported in [`Message::Result`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResultOrigin {
    /// Simulated for this submission.
    Computed,
    /// Served from the content-addressed fingerprint cache — no shard was
    /// simulated.
    Cached,
    /// Attached to an identical submission already in flight and served
    /// from its (single) simulation.
    Coalesced,
}

impl ResultOrigin {
    /// Wire token of the origin.
    pub fn name(self) -> &'static str {
        match self {
            ResultOrigin::Computed => "computed",
            ResultOrigin::Cached => "cached",
            ResultOrigin::Coalesced => "coalesced",
        }
    }

    /// Parses a wire token.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "computed" => Some(ResultOrigin::Computed),
            "cached" => Some(ResultOrigin::Cached),
            "coalesced" => Some(ResultOrigin::Coalesced),
            _ => None,
        }
    }
}

/// One protocol message, either direction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// Worker → daemon: register under `name` speaking `version`.
    Hello {
        /// Protocol version of the worker build.
        version: u16,
        /// Worker display name (token: letters, digits, `._-`).
        name: String,
    },
    /// Daemon → worker: registration accepted.
    Welcome {
        /// The daemon's id for this worker.
        worker: u64,
        /// Heartbeat budget: the worker must send a message at least this
        /// often or be declared lost.
        heartbeat_ms: u64,
    },
    /// Worker → daemon: request a task (also a heartbeat). The daemon may
    /// hold the request for up to half the heartbeat budget while no work
    /// is queued.
    Next,
    /// Worker → daemon: still alive while executing (heartbeat only).
    Ping,
    /// Daemon → worker: a leased task; blob is a task manifest.
    Task {
        /// Lease id, echoed back in `Done`/`Fail`.
        task: u64,
        /// Rendered task manifest.
        blob: Vec<u8>,
    },
    /// Daemon → worker: no work was queued while the daemon held the
    /// `Next`; the worker asks again right away.
    Idle,
    /// Worker → daemon: the lease's shard-state part bytes.
    Done {
        /// Lease id from the `Task`.
        task: u64,
        /// Encoded `PLRSHARD` part covering the leased shard range.
        blob: Vec<u8>,
    },
    /// Worker → daemon: the lease failed; re-issue it elsewhere.
    Fail {
        /// Lease id from the `Task`.
        task: u64,
        /// Human-readable reason (rest of line).
        reason: String,
    },
    /// Client → daemon: a design submission; blob is a submission manifest.
    Submit {
        /// Protocol version of the client build.
        version: u16,
        /// Rendered submission manifest.
        blob: Vec<u8>,
    },
    /// Daemon → client: the merged assessment; blob is the result artifact
    /// (the per-gate leakage CSV).
    Result {
        /// Where the result came from.
        origin: ResultOrigin,
        /// Fixed-class traces the campaign consumed.
        fixed: u64,
        /// Random-class traces the campaign consumed.
        random: u64,
        /// Rounds executed.
        rounds: u64,
        /// Whether the adaptive rule stopped before the grid was exhausted.
        stopped_early: bool,
        /// Result artifact bytes.
        blob: Vec<u8>,
    },
    /// Daemon → client: the submission failed; `code` is the failure class
    /// (the `dist` exit-code table) for the client to exit with.
    Error {
        /// Failure-class exit code.
        code: u8,
        /// Human-readable reason (rest of line, newlines folded).
        message: String,
    },
    /// Client → daemon: stop accepting work and exit once sent. Daemon →
    /// worker: the service is draining; disconnect.
    Shutdown,
}

impl Message {
    /// Writes the message (header line plus any payload blob) in one
    /// `write_all` and flushes, so a peer blocked in `read` always sees
    /// complete messages and a raw socket never sends a message as several
    /// segments (which Nagle's algorithm would hold back for the peer's
    /// delayed ACK).
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        let (header, blob): (String, &[u8]) = match self {
            Message::Hello { version, name } => (format!("HELLO {version} {}", token(name)), &[]),
            Message::Welcome {
                worker,
                heartbeat_ms,
            } => (format!("WELCOME {worker} {heartbeat_ms}"), &[]),
            Message::Next => ("NEXT".to_string(), &[]),
            Message::Ping => ("PING".to_string(), &[]),
            Message::Task { task, blob } => (format!("TASK {task} {}", blob.len()), blob),
            Message::Idle => ("IDLE".to_string(), &[]),
            Message::Done { task, blob } => (format!("DONE {task} {}", blob.len()), blob),
            Message::Fail { task, reason } => (format!("FAIL {task} {}", oneline(reason)), &[]),
            Message::Submit { version, blob } => (format!("SUBMIT {version} {}", blob.len()), blob),
            Message::Result {
                origin,
                fixed,
                random,
                rounds,
                stopped_early,
                blob,
            } => (
                format!(
                    "RESULT {} {fixed} {random} {rounds} {} {}",
                    origin.name(),
                    u8::from(*stopped_early),
                    blob.len()
                ),
                blob,
            ),
            Message::Error { code, message } => (format!("ERROR {code} {}", oneline(message)), &[]),
            Message::Shutdown => ("SHUTDOWN".to_string(), &[]),
        };
        let mut frame = Vec::with_capacity(header.len() + 1 + blob.len());
        frame.extend_from_slice(header.as_bytes());
        frame.push(b'\n');
        frame.extend_from_slice(blob);
        w.write_all(&frame)?;
        w.flush()
    }

    /// Reads one message. `Ok(None)` is a clean end of stream at a message
    /// boundary; everything else that is not a complete well-formed message
    /// is a typed [`ProtoError`].
    ///
    /// # Errors
    ///
    /// [`ProtoError`] per failure class — transport, truncation, malformed
    /// header, oversized line/blob.
    pub fn read_from(r: &mut impl BufRead) -> Result<Option<Message>, ProtoError> {
        let Some(line) = read_line(r)? else {
            return Ok(None);
        };
        let mut parts = line.splitn(4, ' ');
        let word = parts.next().unwrap_or("");
        let msg = match word {
            "HELLO" => Message::Hello {
                version: field(parts.next(), "HELLO version")?,
                name: parts.next().unwrap_or("").to_string(),
            },
            "WELCOME" => Message::Welcome {
                worker: field(parts.next(), "WELCOME worker id")?,
                heartbeat_ms: field(parts.next(), "WELCOME heartbeat")?,
            },
            "NEXT" => Message::Next,
            "PING" => Message::Ping,
            "TASK" => Message::Task {
                task: field(parts.next(), "TASK id")?,
                blob: read_blob(r, field(parts.next(), "TASK blob length")?)?,
            },
            "IDLE" => Message::Idle,
            "DONE" => Message::Done {
                task: field(parts.next(), "DONE id")?,
                blob: read_blob(r, field(parts.next(), "DONE blob length")?)?,
            },
            "FAIL" => Message::Fail {
                task: field(parts.next(), "FAIL id")?,
                reason: rest(parts),
            },
            "SUBMIT" => Message::Submit {
                version: field(parts.next(), "SUBMIT version")?,
                blob: read_blob(r, field(parts.next(), "SUBMIT blob length")?)?,
            },
            "RESULT" => {
                // RESULT has six fields; re-split without the 4-token cap.
                let mut p = line.split(' ').skip(1);
                let origin = p
                    .next()
                    .and_then(ResultOrigin::from_name)
                    .ok_or_else(|| ProtoError::Malformed("bad RESULT origin".to_string()))?;
                let fixed = field(p.next(), "RESULT fixed")?;
                let random = field(p.next(), "RESULT random")?;
                let rounds = field(p.next(), "RESULT rounds")?;
                let stopped: u8 = field(p.next(), "RESULT stopped flag")?;
                let len: usize = field(p.next(), "RESULT blob length")?;
                Message::Result {
                    origin,
                    fixed,
                    random,
                    rounds,
                    stopped_early: stopped != 0,
                    blob: read_blob(r, len)?,
                }
            }
            "ERROR" => Message::Error {
                code: field(parts.next(), "ERROR code")?,
                message: rest(parts),
            },
            "SHUTDOWN" => Message::Shutdown,
            other => {
                return Err(ProtoError::Malformed(format!(
                    "unknown message `{}`",
                    other.chars().take(32).collect::<String>()
                )))
            }
        };
        Ok(Some(msg))
    }
}

/// Joins the remaining `splitn` fields back into the rest-of-line text.
fn rest<'a>(parts: impl Iterator<Item = &'a str>) -> String {
    parts.collect::<Vec<_>>().join(" ")
}

/// Folds newlines out of free-text fields so they cannot break framing.
fn oneline(s: &str) -> String {
    s.replace(['\n', '\r'], " ")
}

/// Restricts a name to the token alphabet so it cannot break framing.
fn token(s: &str) -> String {
    let t: String = s
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
        .take(64)
        .collect();
    if t.is_empty() {
        "anon".to_string()
    } else {
        t
    }
}

/// Parses one header field, naming it in the error.
fn field<T: std::str::FromStr>(part: Option<&str>, what: &str) -> Result<T, ProtoError> {
    part.and_then(|p| p.parse().ok())
        .ok_or_else(|| ProtoError::Malformed(format!("missing or malformed {what}")))
}

/// Reads one `\n`-terminated header line, bounded by [`MAX_LINE_BYTES`].
/// `Ok(None)` when the stream is cleanly at its end.
fn read_line(r: &mut impl BufRead) -> Result<Option<String>, ProtoError> {
    let mut buf = Vec::new();
    let n = (&mut *r)
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_until(b'\n', &mut buf)
        .map_err(ProtoError::Io)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() != Some(&b'\n') {
        return Err(if buf.len() > MAX_LINE_BYTES {
            ProtoError::Oversized {
                what: "header line",
                len: buf.len(),
                max: MAX_LINE_BYTES,
            }
        } else {
            ProtoError::Truncated("a header line")
        });
    }
    buf.pop();
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| ProtoError::Malformed("non-UTF-8 header line".to_string()))
}

/// Reads a length-prefixed payload blob, bounding allocation first.
fn read_blob(r: &mut impl BufRead, len: usize) -> Result<Vec<u8>, ProtoError> {
    if len > MAX_BLOB_BYTES {
        return Err(ProtoError::Oversized {
            what: "payload blob",
            len,
            max: MAX_BLOB_BYTES,
        });
    }
    let mut blob = vec![0u8; len];
    r.read_exact(&mut blob).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => ProtoError::Truncated("a payload blob"),
        _ => ProtoError::Io(e),
    })?;
    Ok(blob)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: &Message) -> Message {
        let mut bytes = Vec::new();
        msg.write_to(&mut bytes).expect("write to vec");
        let mut r = std::io::Cursor::new(bytes);
        let back = Message::read_from(&mut r)
            .expect("read back")
            .expect("one message");
        assert_eq!(
            Message::read_from(&mut r).expect("clean end"),
            None,
            "no trailing bytes"
        );
        back
    }

    /// One instance of every message variant.
    fn every_message() -> Vec<Message> {
        vec![
            Message::Hello {
                version: PROTO_VERSION,
                name: "w1".to_string(),
            },
            Message::Welcome {
                worker: 7,
                heartbeat_ms: 5000,
            },
            Message::Next,
            Message::Ping,
            Message::Task {
                task: 3,
                blob: b"task manifest".to_vec(),
            },
            Message::Idle,
            Message::Done {
                task: 3,
                blob: vec![0, 1, 2, 255],
            },
            Message::Fail {
                task: 3,
                reason: "fingerprint mismatch on shard 4".to_string(),
            },
            Message::Submit {
                version: PROTO_VERSION,
                blob: b"submission".to_vec(),
            },
            Message::Result {
                origin: ResultOrigin::Cached,
                fixed: 1500,
                random: 1500,
                rounds: 3,
                stopped_early: true,
                blob: b"gate,name,kind,t,leaky\n".to_vec(),
            },
            Message::Error {
                code: 4,
                message: "malformed submission".to_string(),
            },
            Message::Shutdown,
        ]
    }

    #[test]
    fn every_message_roundtrips() {
        for msg in &every_message() {
            assert_eq!(&roundtrip(msg), msg, "roundtrip of {msg:?}");
        }
    }

    /// A writer that counts `write` calls and keeps the bytes.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_message_is_one_write() {
        for msg in &every_message() {
            let mut w = CountingWriter::default();
            msg.write_to(&mut w).expect("write");
            assert_eq!(w.writes, 1, "{msg:?} took {} writes", w.writes);
            let mut r = std::io::Cursor::new(w.bytes);
            let back = Message::read_from(&mut r).expect("read back");
            assert_eq!(back.as_ref(), Some(msg));
            assert_eq!(Message::read_from(&mut r).expect("clean end"), None);
        }
    }

    #[test]
    fn newlines_in_free_text_cannot_break_framing() {
        let msg = Message::Error {
            code: 1,
            message: "line one\nline two".to_string(),
        };
        let back = roundtrip(&msg);
        match back {
            Message::Error { code, message } => {
                assert_eq!(code, 1);
                assert_eq!(message, "line one line two");
            }
            other => panic!("wrong message {other:?}"),
        }
    }

    #[test]
    fn empty_stream_is_a_clean_end() {
        let mut r = std::io::Cursor::new(Vec::<u8>::new());
        assert_eq!(Message::read_from(&mut r).expect("clean"), None);
    }

    #[test]
    fn truncated_blob_is_typed() {
        let mut bytes = Vec::new();
        Message::Done {
            task: 1,
            blob: vec![9; 100],
        }
        .write_to(&mut bytes)
        .expect("write");
        bytes.truncate(bytes.len() - 40);
        let mut r = std::io::Cursor::new(bytes);
        let err = Message::read_from(&mut r).expect_err("truncated");
        assert!(matches!(err, ProtoError::Truncated(_)), "{err:?}");
        assert_eq!(err.class(), 3);
    }

    #[test]
    fn unterminated_header_line_is_truncated() {
        let mut r = std::io::Cursor::new(b"NEXT".to_vec());
        let err = Message::read_from(&mut r).expect_err("no newline");
        assert!(matches!(err, ProtoError::Truncated(_)), "{err:?}");
    }

    #[test]
    fn oversized_line_and_blob_are_rejected_before_allocation() {
        let long = format!("FAIL 1 {}\n", "x".repeat(2 * MAX_LINE_BYTES));
        let mut r = std::io::Cursor::new(long.into_bytes());
        let err = Message::read_from(&mut r).expect_err("line too long");
        assert!(matches!(err, ProtoError::Oversized { .. }), "{err:?}");
        assert_eq!(err.class(), 4);

        let lying = format!("DONE 1 {}\n", MAX_BLOB_BYTES + 1);
        let mut r = std::io::Cursor::new(lying.into_bytes());
        let err = Message::read_from(&mut r).expect_err("blob too large");
        assert!(matches!(err, ProtoError::Oversized { .. }), "{err:?}");
    }

    #[test]
    fn unknown_message_word_is_malformed() {
        let mut r = std::io::Cursor::new(b"FROBNICATE 1 2\n".to_vec());
        let err = Message::read_from(&mut r).expect_err("unknown word");
        assert!(matches!(err, ProtoError::Malformed(_)), "{err:?}");
        assert_eq!(err.class(), 4);
    }

    #[test]
    fn worker_names_are_token_sanitized() {
        let msg = Message::Hello {
            version: 1,
            name: "bad name\nwith breaks".to_string(),
        };
        match roundtrip(&msg) {
            Message::Hello { name, .. } => assert_eq!(name, "badnamewithbreaks"),
            other => panic!("wrong message {other:?}"),
        }
    }
}
