//! Length-prefixed binary frames for cross-process clause/bound exchange.
//!
//! The portfolio engine shards its lanes across OS processes and, since
//! protocol version 4, across hosts (ROADMAP: multi-host sharding); the
//! coordinator and its workers talk over TCP in the frame
//! format defined here. The protocol carries exactly the traffic
//! [`sat::SharedContext`] moves between in-process lanes — learnt
//! clauses, incumbents (encodings up, their weights down as bounds),
//! UNSAT floors, cancellation — plus opaque
//! job/result payloads whose schema belongs to [`crate::proto`], not to
//! this module, plus the fleet-membership frames ([`Frame::Welcome`],
//! [`Frame::Heartbeat`]) that make the TCP transport elastic.
//!
//! # Frame layout
//!
//! ```text
//! [u32 LE body length][u8 tag][payload ...]
//! ```
//!
//! The length counts the tag byte plus the payload. All integers are
//! little-endian, literals travel as their [`Lit::code`] (`u32`). A
//! *physical* frame body is capped at [`MAX_FRAME_LEN`]; a longer
//! declared length is rejected *before* any allocation, so a corrupt
//! length prefix cannot OOM the reader.
//!
//! A *logical* frame whose body would exceed the physical cap is split
//! at encode time into continuation frames (tag `12`): each carries
//! `[flags u8][slice ...]` where flag bit 0 means "more chunks follow".
//! The decoder reassembles the chunk run (bounded by
//! [`MAX_MESSAGE_LEN`]) before decoding the logical body, so oversized
//! `Trace`/`BlackBox` batches round-trip instead of tearing down the
//! link.
//!
//! # Error behavior
//!
//! Decoding never panics. Input that ends before the declared frame
//! does yields [`WireError::Truncated`] — and *only* that case: a
//! complete frame whose payload is internally inconsistent (e.g. a
//! corrupt clause count) is [`WireError::Malformed`], never
//! `Truncated`, so a streaming reader can trust `Truncated` to mean
//! "wait for more bytes" without deadlocking on corruption. An unknown
//! tag is [`WireError::BadTag`]. All structured, so a bridge can log
//! and drop a bad peer instead of taking the coordinator down with it.

use sat::{Lit, SharedClause};
use std::io::{self, Read, Write};

/// Protocol version; bump on any incompatible frame change. A peer
/// whose [`Frame::Hello`] names a different version is rejected.
///
/// Version 2 added the [`Frame::Trace`] span-batch frame. Version 3
/// added the [`Frame::BlackBox`] flight-recorder checkpoint frame.
/// Version 4 added the TCP fleet frames ([`Frame::Welcome`],
/// [`Frame::Heartbeat`]), chunked continuation frames for oversized
/// bodies, the [`HELLO_ANY_SHARD`] registration sentinel, and the
/// [`Frame::Incumbent`] encoding-bearing bound improvement. Version 5
/// changed no frame: peers now exchange clauses learnt over the *search*
/// formula (`fermihedral::symmetry`), so a binary without the block must
/// be refused at `Hello`, not raced. Version 6 changed no frame either:
/// the search formula of exact instances lost the `4^N` independence
/// family, which renumbered every auxiliary the exchanged clauses mention.
/// Version 7 changed no frame: the `Job` payload lost the lane-policy
/// fields (sharing, budgets, concurrency) that a v6 worker requires.
/// Version 8 changed no frame: the `Job` payload names its lanes instead
/// of describing them. Version 9 changed no frame: the constructions left
/// the portfolio, so a v8 `Job` names `baseline[..]` lanes a v9 worker lacks.
/// Version 10 changed no frame: workers stopped sending `Bound`, and the
/// `Result`, `Incumbent` and `BlackBox` payloads lost their repeated fields.
pub const PROTOCOL_VERSION: u32 = 10;

/// Upper bound on a *physical* frame body (tag + payload), chosen to
/// keep a corrupt length prefix harmless. Logical frames larger than
/// this are chunked at encode time.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Upper bound on a reassembled (chunked) logical frame body. Caps the
/// decoder's reassembly buffer so a hostile chunk run cannot OOM the
/// reader; [`Frame::encode`] refuses to produce anything larger.
pub const MAX_MESSAGE_LEN: usize = 64 * 1024 * 1024;

/// `shard` sentinel in a [`Frame::Hello`] meaning "assign me a shard
/// id": a fresh fleet worker registers with this and learns its actual
/// shard from the coordinator's [`Frame::Welcome`]. A reconnecting
/// worker sends its previous shard id instead to rejoin.
pub const HELLO_ANY_SHARD: u32 = u32::MAX;

/// Structured decode failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the declared frame did. This is the only
    /// "wait for more bytes" error; see the module docs.
    Truncated {
        /// Bytes the decoder needed.
        expected: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The declared body length exceeds [`MAX_FRAME_LEN`], or a chunk
    /// run reassembles past [`MAX_MESSAGE_LEN`].
    Oversized {
        /// The declared (or accumulated) length.
        len: usize,
    },
    /// The tag byte names no known frame type.
    BadTag(u8),
    /// A payload field violates its invariant.
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { expected, got } => {
                write!(f, "truncated frame: needed {expected} bytes, got {got}")
            }
            WireError::Oversized { len } => {
                write!(
                    f,
                    "frame body of {len} bytes exceeds cap of {MAX_FRAME_LEN} \
                     (reassembled cap {MAX_MESSAGE_LEN})"
                )
            }
            WireError::BadTag(tag) => write!(f, "unknown frame tag {tag:#04x}"),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A clause crossing the process boundary: the in-process
/// [`SharedClause`] plus the shard that produced it, so the coordinator
/// can forward it to every shard *except* its origin (no echo loops).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteClause {
    /// Index of the shard whose lane learnt the clause.
    pub shard: u32,
    /// The clause (its `source` is the producer's *lane* within that
    /// shard — diagnostics only once it crosses the boundary).
    pub clause: SharedClause,
}

/// One protocol frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Worker → coordinator, first frame: identifies the shard and the
    /// protocol version it speaks. Over TCP, `shard` may be
    /// [`HELLO_ANY_SHARD`] to request an assignment.
    Hello {
        /// The worker's shard index, or [`HELLO_ANY_SHARD`].
        shard: u32,
        /// [`PROTOCOL_VERSION`] of the worker binary.
        protocol: u32,
    },
    /// Coordinator → worker, handshake reply (TCP fleet only): the
    /// shard id the worker now owns and the coordinator's protocol
    /// version. `shard == HELLO_ANY_SHARD` means the registration was
    /// rejected (version mismatch) and the connection is closing.
    Welcome {
        /// The assigned shard index, or [`HELLO_ANY_SHARD`] on reject.
        shard: u32,
        /// [`PROTOCOL_VERSION`] of the coordinator binary.
        protocol: u32,
    },
    /// Liveness probe, either direction (TCP fleet only). A worker
    /// sends these periodically; the coordinator echoes them back, so
    /// both sides can measure peer silence. Carries a sender-local
    /// sequence number for lag diagnostics.
    Heartbeat {
        /// Sender-local monotonically increasing sequence number.
        seq: u64,
    },
    /// Coordinator → worker: the problem and lane assignment, as an
    /// opaque payload (the shard crate owns the schema).
    Job(Vec<u8>),
    /// A learnt clause, either direction.
    Clause(RemoteClause),
    /// Coordinator → worker: an incumbent weight — the weight of a
    /// checked encoding the coordinator holds (or of the warm start). A
    /// worker never sends one: its encodings travel as
    /// [`Frame::Incumbent`].
    Bound(u64),
    /// An UNSAT floor (no encoding strictly below this weight exists);
    /// worker → coordinator.
    Floor(u64),
    /// Coordinator → worker: the race is decided, stop and report.
    Cancel,
    /// Worker → coordinator, terminal frame: the shard's lane timelines,
    /// as an opaque payload (the shard crate owns the schema). Its
    /// encodings and floors already crossed as [`Frame::Incumbent`] and
    /// [`Frame::Floor`].
    Result(Vec<u8>),
    /// Worker → coordinator: a batch of telemetry spans recorded on the
    /// worker, as an opaque payload (the telemetry crate owns the
    /// schema). Best-effort — a coordinator may ignore it, and a worker
    /// only ships it when the job asked for tracing.
    Trace(Vec<u8>),
    /// Worker → coordinator: the worker's flight-recorder ring (its last
    /// log events and span closures), as an opaque payload (the
    /// telemetry crate owns the schema). Always-on and best-effort: the
    /// coordinator keeps only the latest ring per worker, and turns it
    /// into a post-mortem bundle if the worker dies or breaks protocol.
    BlackBox(Vec<u8>),
    /// Worker → coordinator: an improved incumbent encoding, as an
    /// opaque payload (the shard crate owns the schema) — the only way a
    /// worker's encoding reaches the coordinator. The coordinator checks
    /// and re-measures it on arrival, keeps the lightest (so it survives
    /// its finder), and derives every [`Frame::Bound`] it forwards from
    /// one it checked, so no race is steered below a weight nobody can
    /// show.
    Incumbent(Vec<u8>),
}

const TAG_HELLO: u8 = 1;
const TAG_JOB: u8 = 2;
const TAG_CLAUSE: u8 = 3;
const TAG_BOUND: u8 = 4;
const TAG_FLOOR: u8 = 5;
const TAG_CANCEL: u8 = 6;
const TAG_RESULT: u8 = 7;
const TAG_TRACE: u8 = 8;
const TAG_BLACKBOX: u8 = 9;
const TAG_WELCOME: u8 = 10;
const TAG_HEARTBEAT: u8 = 11;
/// Physical continuation frame: `[flags u8][slice ...]`. Never surfaces
/// as a [`Frame`] — the decoder reassembles the run into the logical
/// frame it carries.
const TAG_CHUNK: u8 = 12;
const TAG_INCUMBENT: u8 = 13;

/// `bound_tag` presence flags in a clause payload.
const BOUND_TAG_ABSENT: u8 = 0;
const BOUND_TAG_PRESENT: u8 = 1;

/// Chunk flag bit 0: more chunks follow this one.
const CHUNK_MORE: u8 = 1;

/// Largest logical-body slice one chunk frame can carry (its physical
/// body also holds the chunk tag and the flags byte).
const CHUNK_SLICE_LEN: usize = MAX_FRAME_LEN - 2;

impl Frame {
    /// Stable lower-case name of the frame type, for per-type wire
    /// metrics (`wire_frames_total{type="clause",...}`).
    pub fn kind(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "hello",
            Frame::Welcome { .. } => "welcome",
            Frame::Heartbeat { .. } => "heartbeat",
            Frame::Job(_) => "job",
            Frame::Clause(_) => "clause",
            Frame::Bound(_) => "bound",
            Frame::Floor(_) => "floor",
            Frame::Cancel => "cancel",
            Frame::Result(_) => "result",
            Frame::Trace(_) => "trace",
            Frame::BlackBox(_) => "blackbox",
            Frame::Incumbent(_) => "incumbent",
        }
    }

    /// Appends the logical body (tag + payload, no length prefix).
    fn encode_body(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Hello { shard, protocol } => {
                out.push(TAG_HELLO);
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&protocol.to_le_bytes());
            }
            Frame::Welcome { shard, protocol } => {
                out.push(TAG_WELCOME);
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&protocol.to_le_bytes());
            }
            Frame::Heartbeat { seq } => {
                out.push(TAG_HEARTBEAT);
                out.extend_from_slice(&seq.to_le_bytes());
            }
            Frame::Job(payload) => {
                out.push(TAG_JOB);
                out.extend_from_slice(payload);
            }
            Frame::Clause(remote) => {
                out.push(TAG_CLAUSE);
                out.extend_from_slice(&remote.shard.to_le_bytes());
                out.extend_from_slice(&(remote.clause.source as u32).to_le_bytes());
                out.extend_from_slice(&remote.clause.lbd.to_le_bytes());
                match remote.clause.bound_tag {
                    None => out.push(BOUND_TAG_ABSENT),
                    Some(tag) => {
                        out.push(BOUND_TAG_PRESENT);
                        out.extend_from_slice(&(tag as u64).to_le_bytes());
                    }
                }
                out.extend_from_slice(&(remote.clause.lits.len() as u32).to_le_bytes());
                for lit in &remote.clause.lits {
                    out.extend_from_slice(&(lit.code() as u32).to_le_bytes());
                }
            }
            Frame::Bound(weight) => {
                out.push(TAG_BOUND);
                out.extend_from_slice(&weight.to_le_bytes());
            }
            Frame::Floor(floor) => {
                out.push(TAG_FLOOR);
                out.extend_from_slice(&floor.to_le_bytes());
            }
            Frame::Cancel => out.push(TAG_CANCEL),
            Frame::Result(payload) => {
                out.push(TAG_RESULT);
                out.extend_from_slice(payload);
            }
            Frame::Trace(payload) => {
                out.push(TAG_TRACE);
                out.extend_from_slice(payload);
            }
            Frame::BlackBox(payload) => {
                out.push(TAG_BLACKBOX);
                out.extend_from_slice(payload);
            }
            Frame::Incumbent(payload) => {
                out.push(TAG_INCUMBENT);
                out.extend_from_slice(payload);
            }
        }
    }

    /// Appends the encoded frame (length prefix included) to `out`,
    /// splitting bodies larger than [`MAX_FRAME_LEN`] into continuation
    /// frames so every physical frame honors the cap.
    ///
    /// # Errors
    ///
    /// [`WireError::Oversized`] if the body exceeds [`MAX_MESSAGE_LEN`]
    /// — enforced here, at encode time, so an oversized batch fails on
    /// the producer instead of tearing down the peer's link.
    pub fn encode(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        let start = out.len();
        out.extend_from_slice(&[0u8; 4]); // length back-patched below
        self.encode_body(out);
        let body_len = out.len() - start - 4;
        if body_len <= MAX_FRAME_LEN {
            out[start..start + 4].copy_from_slice(&(body_len as u32).to_le_bytes());
            return Ok(());
        }
        if body_len > MAX_MESSAGE_LEN {
            out.truncate(start);
            return Err(WireError::Oversized { len: body_len });
        }
        // Re-emit the oversized body as a chunk run. The body was
        // appended in place above; carve it out and split it.
        let body = out.split_off(start + 4);
        out.truncate(start);
        let mut chunks = body.chunks(CHUNK_SLICE_LEN).peekable();
        while let Some(slice) = chunks.next() {
            let flags = if chunks.peek().is_some() {
                CHUNK_MORE
            } else {
                0
            };
            out.extend_from_slice(&((slice.len() + 2) as u32).to_le_bytes());
            out.push(TAG_CHUNK);
            out.push(flags);
            out.extend_from_slice(slice);
        }
        Ok(())
    }

    /// The encoded byte form (length prefix included, chunked if the
    /// body exceeds [`MAX_FRAME_LEN`]).
    ///
    /// # Errors
    ///
    /// Same as [`Frame::encode`].
    pub fn to_bytes(&self) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::new();
        self.encode(&mut out)?;
        Ok(out)
    }

    /// Decodes one logical frame from the front of `input`, reassembling
    /// a chunk run if the frame was split at encode time.
    ///
    /// Returns the frame and the number of bytes consumed (spanning
    /// every physical frame of a chunk run), so a reader holding a
    /// buffer of concatenated frames can iterate.
    ///
    /// # Errors
    ///
    /// See the module docs; never panics on any input.
    pub fn decode(input: &[u8]) -> Result<(Frame, usize), WireError> {
        let mut at = 0;
        let mut assembled: Option<Vec<u8>> = None;
        loop {
            if input.len() < at + 4 {
                return Err(WireError::Truncated {
                    expected: at + 4,
                    got: input.len(),
                });
            }
            let body_len =
                u32::from_le_bytes([input[at], input[at + 1], input[at + 2], input[at + 3]])
                    as usize;
            if body_len > MAX_FRAME_LEN {
                return Err(WireError::Oversized { len: body_len });
            }
            if body_len == 0 {
                return Err(WireError::Malformed("zero-length frame body"));
            }
            let total = at + 4 + body_len;
            if input.len() < total {
                return Err(WireError::Truncated {
                    expected: total,
                    got: input.len(),
                });
            }
            let body = &input[at + 4..total];
            at = total;
            if body[0] == TAG_CHUNK {
                if body.len() < 3 {
                    return Err(WireError::Malformed("chunk frame without payload"));
                }
                let more = match body[1] {
                    0 => false,
                    CHUNK_MORE => true,
                    _ => return Err(WireError::Malformed("chunk flags out of range")),
                };
                let acc = assembled.get_or_insert_with(Vec::new);
                if acc.len() + body.len() - 2 > MAX_MESSAGE_LEN {
                    return Err(WireError::Oversized {
                        len: acc.len() + body.len() - 2,
                    });
                }
                acc.extend_from_slice(&body[2..]);
                if more {
                    continue;
                }
                let acc = assembled.take().expect("chunk accumulator exists");
                let frame = Frame::decode_body(&acc).map_err(demote_truncation)?;
                return Ok((frame, at));
            }
            if assembled.is_some() {
                return Err(WireError::Malformed("unchunked frame inside a chunk run"));
            }
            let frame = Frame::decode_body(body).map_err(demote_truncation)?;
            return Ok((frame, at));
        }
    }

    /// Decodes a frame body (tag + payload, no length prefix).
    fn decode_body(body: &[u8]) -> Result<Frame, WireError> {
        if body.is_empty() {
            return Err(WireError::Malformed("empty frame body"));
        }
        let tag = body[0];
        let mut r = Cursor {
            buf: &body[1..],
            at: 0,
        };
        let frame = match tag {
            TAG_HELLO => Frame::Hello {
                shard: r.u32()?,
                protocol: r.u32()?,
            },
            TAG_WELCOME => Frame::Welcome {
                shard: r.u32()?,
                protocol: r.u32()?,
            },
            TAG_HEARTBEAT => Frame::Heartbeat { seq: r.u64()? },
            TAG_JOB => return Ok(Frame::Job(body[1..].to_vec())),
            TAG_CLAUSE => {
                let shard = r.u32()?;
                let source = r.u32()? as usize;
                let lbd = r.u32()?;
                let bound_tag = match r.u8()? {
                    BOUND_TAG_ABSENT => None,
                    BOUND_TAG_PRESENT => Some(r.u64()? as usize),
                    _ => return Err(WireError::Malformed("bound-tag flag out of range")),
                };
                let count = r.u32()? as usize;
                if count == 0 {
                    return Err(WireError::Malformed("empty clause"));
                }
                // A corrupt count must not drive a huge allocation: the
                // remaining payload bounds the real literal count.
                if count > r.remaining() / 4 {
                    return Err(WireError::Truncated {
                        expected: 4 + body.len() - r.remaining() + 4 * count,
                        got: 4 + body.len(),
                    });
                }
                let mut lits = Vec::with_capacity(count);
                for _ in 0..count {
                    lits.push(Lit::from_code(r.u32()? as usize));
                }
                Frame::Clause(RemoteClause {
                    shard,
                    clause: SharedClause {
                        lits,
                        lbd,
                        bound_tag,
                        source,
                    },
                })
            }
            TAG_BOUND => Frame::Bound(r.u64()?),
            TAG_FLOOR => Frame::Floor(r.u64()?),
            TAG_CANCEL => Frame::Cancel,
            TAG_RESULT => return Ok(Frame::Result(body[1..].to_vec())),
            TAG_TRACE => return Ok(Frame::Trace(body[1..].to_vec())),
            TAG_BLACKBOX => return Ok(Frame::BlackBox(body[1..].to_vec())),
            TAG_INCUMBENT => return Ok(Frame::Incumbent(body[1..].to_vec())),
            TAG_CHUNK => return Err(WireError::Malformed("chunk run nested inside a chunk run")),
            other => return Err(WireError::BadTag(other)),
        };
        if r.remaining() != 0 {
            return Err(WireError::Malformed("trailing bytes after payload"));
        }
        Ok(frame)
    }
}

/// Inside a *complete* physical frame, "not enough payload" is
/// corruption, not a partial read — demote it so streaming readers
/// never wait for bytes that can't arrive.
fn demote_truncation(e: WireError) -> WireError {
    match e {
        WireError::Truncated { .. } => {
            WireError::Malformed("payload truncated inside a complete frame")
        }
        other => other,
    }
}

/// Bounds-checked little-endian reader over a frame payload.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl Cursor<'_> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    fn take(&mut self, n: usize) -> Result<&[u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                expected: self.at + n,
                got: self.buf.len(),
            });
        }
        let slice = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

/// One step of a [`FrameReader`].
#[derive(Debug)]
pub enum FrameRead {
    /// A complete logical frame, plus the wire bytes it occupied
    /// (length prefixes included, spanning any chunk run) — the input
    /// for per-direction byte metrics.
    Frame {
        /// The decoded frame.
        frame: Frame,
        /// Wire bytes consumed by the frame.
        wire_bytes: usize,
    },
    /// Clean EOF on a frame boundary: the peer closed its end.
    Eof,
    /// The stream's read timeout expired mid-wait. No data was lost —
    /// the reader holds any partial frame and resumes on the next call.
    Idle,
}

/// The buffered, resumable frame reader every stream is read through —
/// blocking pipes and TCP sockets with read timeouts alike.
///
/// A read timeout can expire at an arbitrary byte position; a reader
/// that kept no state would either block forever or lose the bytes it
/// already consumed — fatal over TCP, where every peer sets a timeout to
/// stay responsive to shutdown. `FrameReader` buffers partial input
/// across calls instead: a timeout surfaces as [`FrameRead::Idle`] with
/// the partial frame retained, `Interrupted` is retried internally, and
/// only EOF-inside-a-frame or corruption surface as errors. On a
/// blocking stream without a timeout (a pipe) `Idle` simply never
/// happens.
///
/// The reader owns its buffer, not the stream, and one `read` may pull
/// several frames off the stream at once: whoever takes over the stream
/// must take the reader with it, or the frames already buffered are
/// lost.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    start: usize,
}

/// Bytes asked of the stream per refill.
const READ_CHUNK: usize = 64 * 1024;

/// Compact the buffer once this many consumed bytes accumulate.
const COMPACT_AT: usize = 256 * 1024;

impl FrameReader {
    /// An empty reader.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Bytes buffered but not yet decoded (a partial frame in flight).
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Reads until one logical frame, EOF, or a timeout.
    ///
    /// # Errors
    ///
    /// EOF in the middle of a frame ([`io::ErrorKind::UnexpectedEof`]),
    /// non-retryable stream failures, and corrupt frames
    /// ([`io::ErrorKind::InvalidData`] wrapping the [`WireError`]) — to a
    /// caller they all mean the same thing: this stream is finished.
    pub fn read(&mut self, stream: &mut impl Read) -> io::Result<FrameRead> {
        loop {
            if self.pending() > 0 {
                match Frame::decode(&self.buf[self.start..]) {
                    Ok((frame, used)) => {
                        self.start += used;
                        if self.start == self.buf.len() {
                            self.buf.clear();
                            self.start = 0;
                        } else if self.start >= COMPACT_AT {
                            self.buf.drain(..self.start);
                            self.start = 0;
                        }
                        return Ok(FrameRead::Frame {
                            frame,
                            wire_bytes: used,
                        });
                    }
                    Err(WireError::Truncated { .. }) => {} // need more bytes
                    Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e)),
                }
            }
            let filled = self.buf.len();
            self.buf.resize(filled + READ_CHUNK, 0);
            match stream.read(&mut self.buf[filled..]) {
                Ok(0) => {
                    self.buf.truncate(filled);
                    if self.pending() == 0 {
                        return Ok(FrameRead::Eof);
                    }
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "EOF inside a frame",
                    ));
                }
                Ok(n) => self.buf.truncate(filled + n),
                Err(e) => {
                    self.buf.truncate(filled);
                    match e.kind() {
                        io::ErrorKind::Interrupted => {}
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
                            return Ok(FrameRead::Idle)
                        }
                        _ => return Err(e),
                    }
                }
            }
        }
    }
}

/// Writes one frame to a blocking stream (no flush; callers batch).
///
/// # Errors
///
/// Propagates stream failures; a body over [`MAX_MESSAGE_LEN`] is
/// [`io::ErrorKind::InvalidData`].
pub fn write_frame(stream: &mut impl Write, frame: &Frame) -> io::Result<()> {
    let bytes = frame
        .to_bytes()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    stream.write_all(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(ids: &[i64]) -> Vec<Lit> {
        ids.iter().map(|&i| Lit::from_dimacs(i)).collect()
    }

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                shard: 3,
                protocol: PROTOCOL_VERSION,
            },
            Frame::Welcome {
                shard: 3,
                protocol: PROTOCOL_VERSION,
            },
            Frame::Heartbeat { seq: 712 },
            Frame::Job(b"{\"modes\":4}".to_vec()),
            Frame::Clause(RemoteClause {
                shard: 1,
                clause: SharedClause {
                    lits: lits(&[1, -2, 17]),
                    lbd: 2,
                    bound_tag: Some(40),
                    source: 2,
                },
            }),
            Frame::Clause(RemoteClause {
                shard: 0,
                clause: SharedClause {
                    lits: lits(&[-9]),
                    lbd: 1,
                    bound_tag: None,
                    source: 0,
                },
            }),
            Frame::Bound(66),
            Frame::Floor(64),
            Frame::Incumbent(b"{\"strings\":[\"XZ\"]}".to_vec()),
            Frame::Cancel,
            Frame::Result(b"{\"workers\":[]}".to_vec()),
            Frame::Trace(b"{\"events\":[]}".to_vec()),
            Frame::BlackBox(b"{\"records\":[]}".to_vec()),
        ]
    }

    #[test]
    fn frames_round_trip() {
        for frame in sample_frames() {
            let bytes = frame.to_bytes().expect("encodes");
            let (decoded, used) = Frame::decode(&bytes).expect("decodes");
            assert_eq!(decoded, frame);
            assert_eq!(used, bytes.len());
        }
    }

    #[test]
    fn concatenated_frames_decode_in_order() {
        let frames = sample_frames();
        let mut buf = Vec::new();
        for f in &frames {
            f.encode(&mut buf).expect("encodes");
        }
        let mut at = 0;
        for expected in &frames {
            let (got, used) = Frame::decode(&buf[at..]).expect("decodes");
            assert_eq!(&got, expected);
            at += used;
        }
        assert_eq!(at, buf.len());
    }

    #[test]
    fn every_truncation_is_a_structured_error() {
        for frame in sample_frames() {
            let bytes = frame.to_bytes().expect("encodes");
            for cut in 0..bytes.len() {
                match Frame::decode(&bytes[..cut]) {
                    Err(WireError::Truncated { .. }) => {}
                    other => panic!("truncation at {cut} of {frame:?} gave {other:?}"),
                }
            }
        }
    }

    #[test]
    fn bad_tag_is_rejected() {
        let mut bytes = Frame::Cancel.to_bytes().expect("encodes");
        bytes[4] = 0xEE;
        assert_eq!(Frame::decode(&bytes), Err(WireError::BadTag(0xEE)));
    }

    #[test]
    fn oversized_length_prefix_rejected_without_allocation() {
        let mut bytes = vec![0u8; 8];
        bytes[..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert_eq!(
            Frame::decode(&bytes),
            Err(WireError::Oversized {
                len: u32::MAX as usize
            })
        );
    }

    #[test]
    fn corrupt_clause_count_is_malformed_not_truncated() {
        let frame = Frame::Clause(RemoteClause {
            shard: 0,
            clause: SharedClause {
                lits: lits(&[1, 2]),
                lbd: 2,
                bound_tag: None,
                source: 0,
            },
        });
        let mut bytes = frame.to_bytes().expect("encodes");
        // The literal count sits 13 bytes into the body (tag + shard +
        // source + lbd + flag); blow it up without growing the payload.
        let count_at = 4 + 1 + 4 + 4 + 4 + 1;
        bytes[count_at..count_at + 4].copy_from_slice(&(u32::MAX).to_le_bytes());
        // The frame is complete per its length prefix, so the corrupt
        // count must read as corruption — a streaming reader must not
        // be told to wait for bytes that will never come.
        match Frame::decode(&bytes) {
            Err(WireError::Malformed(_)) => {}
            other => panic!("corrupt count gave {other:?}"),
        }
    }

    #[test]
    fn oversized_body_chunks_and_round_trips() {
        let payload: Vec<u8> = (0..MAX_FRAME_LEN + MAX_FRAME_LEN / 2)
            .map(|i| (i % 251) as u8)
            .collect();
        let frame = Frame::BlackBox(payload);
        let bytes = frame.to_bytes().expect("encodes");
        // Every physical frame honors the cap.
        let mut at = 0;
        let mut physical = 0;
        while at < bytes.len() {
            let len = u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
                as usize;
            assert!(
                len <= MAX_FRAME_LEN,
                "physical frame body of {len} over cap"
            );
            at += 4 + len;
            physical += 1;
        }
        assert_eq!(at, bytes.len());
        assert!(physical >= 2, "oversized body must split");
        let (decoded, used) = Frame::decode(&bytes).expect("reassembles");
        assert_eq!(decoded, frame);
        assert_eq!(used, bytes.len());
    }

    #[test]
    fn truncated_chunk_run_reads_as_truncated() {
        let frame = Frame::Trace(vec![7u8; MAX_FRAME_LEN + 100]);
        let bytes = frame.to_bytes().expect("encodes");
        // Cut after the first full chunk frame: the decoder must ask
        // for more bytes, not misread the partial run.
        let first_len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize + 4;
        match Frame::decode(&bytes[..first_len]) {
            Err(WireError::Truncated { .. }) => {}
            other => panic!("partial chunk run gave {other:?}"),
        }
    }

    #[test]
    fn encode_rejects_bodies_over_message_cap() {
        let frame = Frame::Trace(vec![0u8; MAX_MESSAGE_LEN + 1]);
        let mut out = vec![0xAA; 3];
        match frame.encode(&mut out) {
            Err(WireError::Oversized { .. }) => {}
            other => panic!("over-cap body gave {other:?}"),
        }
        // A failed encode must not leave partial bytes behind.
        assert_eq!(out, vec![0xAA; 3]);
    }

    #[test]
    fn frame_reader_handles_eof_positions() {
        let bytes = Frame::Bound(9).to_bytes().expect("encodes");
        let read = |mut stream: &[u8]| FrameReader::new().read(&mut stream);
        // Clean EOF between frames.
        assert!(matches!(read(&[]), Ok(FrameRead::Eof)));
        // EOF inside a frame.
        let torn = read(&bytes[..5]).expect_err("EOF inside a frame");
        assert_eq!(torn.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn frame_reader_decodes_a_concatenated_stream() {
        let frames = sample_frames();
        let mut buf = Vec::new();
        for f in &frames {
            f.encode(&mut buf).expect("encodes");
        }
        let mut stream: &[u8] = &buf;
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        loop {
            match reader.read(&mut stream).expect("reads") {
                FrameRead::Frame { frame, .. } => got.push(frame),
                FrameRead::Eof => break,
                FrameRead::Idle => unreachable!("slice streams never time out"),
            }
        }
        assert_eq!(got, frames);
    }

    #[test]
    fn frame_kinds_are_distinct() {
        let mut kinds: Vec<&str> = sample_frames().iter().map(Frame::kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        // Twelve distinct frame types (the sample set repeats Clause).
        assert_eq!(kinds.len(), 12);
    }
}
