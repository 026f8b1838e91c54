//! Property tests for the *streaming* half of `shard::wire`: the one
//! [`FrameReader`] every stream is read through must deliver exactly the
//! frames that were written no matter how the transport slices the
//! bytes — one at a time, in bursts, or interleaved with the retryable
//! errors a stream produces: `Interrupted` anywhere, plus the
//! `WouldBlock` / `TimedOut` a TCP socket with a read timeout raises
//! constantly. A blocking pipe has no timeout, so there the reader must
//! never report `Idle`. A shard link that desyncs on a partial read
//! poisons every frame after it, so this is the contract the whole
//! fleet stands on.

use proptest::prelude::*;
use sat::{SharedClause, Var};
use shard::wire::{Frame, FrameRead, FrameReader, RemoteClause, MAX_FRAME_LEN};
use std::io::{self, Read};

/// One scripted behavior of the underlying transport.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Deliver at most this many bytes (clamped to what the caller's
    /// buffer and the remaining data allow, minimum 1 while data lasts).
    Give(usize),
    Fail(io::ErrorKind),
}

/// A `Read` impl that replays `data` according to a schedule of
/// partial deliveries and transient errors, then streams the remainder
/// and EOFs.
struct ScriptedStream {
    data: Vec<u8>,
    pos: usize,
    script: Vec<Step>,
    step: usize,
}

impl ScriptedStream {
    fn new(data: Vec<u8>, script: Vec<Step>) -> ScriptedStream {
        ScriptedStream {
            data,
            pos: 0,
            script,
            step: 0,
        }
    }
}

impl Read for ScriptedStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let remaining = self.data.len() - self.pos;
        if self.step < self.script.len() {
            let step = self.script[self.step];
            self.step += 1;
            match step {
                Step::Fail(kind) => return Err(io::Error::new(kind, "scripted")),
                Step::Give(n) => {
                    if remaining == 0 {
                        return Ok(0);
                    }
                    // Never a scripted `Ok(0)` while data remains: that
                    // would be an EOF, which is a *different* contract.
                    let n = n.clamp(1, remaining.min(buf.len()));
                    buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                    self.pos += n;
                    return Ok(n);
                }
            }
        }
        if remaining == 0 {
            return Ok(0);
        }
        let n = remaining.min(buf.len());
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn sample_frames(seed: &[u64]) -> Vec<Frame> {
    seed.iter()
        .enumerate()
        .map(|(i, &v)| match v % 6 {
            0 => Frame::Bound(v),
            1 => Frame::Floor(v),
            2 => Frame::Heartbeat { seq: v },
            5 => Frame::Incumbent(v.to_be_bytes().repeat((v % 11) as usize + 1)),
            3 => Frame::Clause(RemoteClause {
                shard: (v % 7) as u32,
                clause: SharedClause {
                    lits: (0..=(v % 9) as usize)
                        .map(|k| Var::new(k + 1).lit(k % 2 == 0))
                        .collect(),
                    lbd: (v % 30) as u32,
                    bound_tag: (v % 2 == 0).then_some(v as usize),
                    source: i,
                },
            }),
            _ => Frame::BlackBox(v.to_le_bytes().repeat((v % 40) as usize + 1)),
        })
        .collect()
}

fn encode_all(frames: &[Frame]) -> Vec<u8> {
    let mut buf = Vec::new();
    for frame in frames {
        frame.encode(&mut buf).expect("well-formed frame encodes");
    }
    buf
}

/// Decodes a proptest-generated `(kind, n)` pair into a schedule step —
/// the vendored proptest has no `prop_oneof`, so enum variants are
/// picked by integer tag. Tags 0 and 1 are what a blocking stream can
/// do; 2 and 3 need a read timeout.
fn steps(raw: &[(u8, usize)]) -> Vec<Step> {
    raw.iter()
        .map(|&(kind, n)| match kind % 4 {
            0 => Step::Give(n),
            1 => Step::Fail(io::ErrorKind::Interrupted),
            2 => Step::Fail(io::ErrorKind::WouldBlock),
            _ => Step::Fail(io::ErrorKind::TimedOut),
        })
        .collect()
}

/// Reads a blocking stream (one that never times out) to its clean EOF.
fn read_blocking(stream: &mut ScriptedStream) -> Vec<Frame> {
    let mut reader = FrameReader::new();
    let mut got = Vec::new();
    loop {
        match reader.read(stream).expect("no corruption in this stream") {
            FrameRead::Frame { frame, .. } => got.push(frame),
            FrameRead::Idle => panic!("Idle on a stream that never timed out"),
            FrameRead::Eof => return got,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // The buffered reader recovers every frame across any schedule of
    // byte splits and transient errors, then reports a clean EOF.
    #[test]
    fn frame_reader_survives_any_split_and_timeout_schedule(
        seed in proptest::collection::vec(0u64..1_000_000, 1..24),
        script in proptest::collection::vec((0u8..4, 1usize..64), 0..96),
    ) {
        let frames = sample_frames(&seed);
        let mut stream = ScriptedStream::new(encode_all(&frames), steps(&script));
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        loop {
            match reader.read(&mut stream) {
                Ok(FrameRead::Frame { frame, .. }) => got.push(frame),
                Ok(FrameRead::Idle) => continue, // a real caller would poll again
                Ok(FrameRead::Eof) => break,
                Err(e) => panic!("reader error: {e}"),
            }
        }
        prop_assert_eq!(got, frames);
        prop_assert_eq!(reader.pending(), 0, "no bytes may linger after a clean EOF");
    }

    // Wire-byte accounting is exact under arbitrary schedules: the
    // per-frame counts sum to the stream's total length.
    #[test]
    fn frame_reader_counts_every_wire_byte(
        seed in proptest::collection::vec(0u64..1_000_000, 1..16),
        script in proptest::collection::vec((0u8..4, 1usize..64), 0..48),
    ) {
        let frames = sample_frames(&seed);
        let encoded = encode_all(&frames);
        let total = encoded.len();
        let mut stream = ScriptedStream::new(encoded, steps(&script));
        let mut reader = FrameReader::new();
        let mut counted = 0usize;
        loop {
            match reader.read(&mut stream) {
                Ok(FrameRead::Frame { wire_bytes, .. }) => counted += wire_bytes,
                Ok(FrameRead::Idle) => continue,
                Ok(FrameRead::Eof) => break,
                Err(e) => panic!("reader error: {e}"),
            }
        }
        prop_assert_eq!(counted, total);
    }

    // A blocking stream with no read timeout — what a pipe is: short
    // reads and stray `Interrupted`s only. Every frame arrives, and the
    // reader never reports `Idle`, which no caller of a pipe handles as
    // anything but a spin.
    #[test]
    fn frame_reader_on_a_blocking_stream_never_idles(
        seed in proptest::collection::vec(0u64..1_000_000, 1..16),
        script in proptest::collection::vec((0u8..2, 1usize..64), 0..64),
    ) {
        let frames = sample_frames(&seed);
        let mut stream = ScriptedStream::new(encode_all(&frames), steps(&script));
        prop_assert_eq!(read_blocking(&mut stream), frames);
    }

    // EOF inside a frame is an error, never a silent truncation — no
    // matter where the cut lands or what the schedule did before it.
    #[test]
    fn frame_reader_flags_eof_inside_a_frame(
        seed in proptest::collection::vec(0u64..1_000_000, 1..8),
        cut_back in 1usize..16,
        script in proptest::collection::vec((0u8..4, 1usize..64), 0..32),
    ) {
        let frames = sample_frames(&seed);
        let mut encoded = encode_all(&frames);
        // The cut must land strictly *inside* the last frame — cutting a
        // whole frame off leaves a frame boundary, where EOF is clean.
        let last_len = {
            let mut b = Vec::new();
            frames.last().unwrap().encode(&mut b).unwrap();
            b.len()
        };
        let cut = 1 + cut_back % (last_len - 1);
        encoded.truncate(encoded.len() - cut);
        let mut stream = ScriptedStream::new(encoded, steps(&script));
        let mut reader = FrameReader::new();
        loop {
            match reader.read(&mut stream) {
                Ok(FrameRead::Frame { .. }) | Ok(FrameRead::Idle) => continue,
                Ok(FrameRead::Eof) => panic!("EOF mid-frame reported as clean"),
                Err(_) => break, // structured error: correct
            }
        }
    }
}

/// A reader fed one byte at a time — with a timeout after every single
/// byte — still decodes a multi-frame stream (the pathological-but-legal
/// slow-sender case).
#[test]
fn frame_reader_survives_byte_at_a_time_with_timeouts() {
    let frames = vec![
        Frame::Bound(16),
        Frame::Heartbeat { seq: 9 },
        Frame::Job(b"payload".to_vec()),
    ];
    let encoded = encode_all(&frames);
    let script: Vec<Step> = encoded
        .iter()
        .flat_map(|_| [Step::Give(1), Step::Fail(io::ErrorKind::WouldBlock)])
        .collect();
    let mut stream = ScriptedStream::new(encoded, script);
    let mut reader = FrameReader::new();
    let mut got = Vec::new();
    let mut idles = 0usize;
    loop {
        match reader
            .read(&mut stream)
            .expect("no errors in this schedule")
        {
            FrameRead::Frame { frame, .. } => got.push(frame),
            FrameRead::Idle => idles += 1,
            FrameRead::Eof => break,
        }
    }
    assert_eq!(got, frames);
    assert!(idles > 0, "the schedule must actually have exercised Idle");
}

/// The blocking stream at its slowest: one byte per read, a stray signal
/// before every byte.
#[test]
fn frame_reader_survives_byte_at_a_time_on_a_blocking_stream() {
    let frames = sample_frames(&[3, 10, 5, 1, 0, 4, 2, 9]);
    let encoded = encode_all(&frames);
    let script: Vec<Step> = encoded
        .iter()
        .flat_map(|_| [Step::Fail(io::ErrorKind::Interrupted), Step::Give(1)])
        .collect();
    let mut stream = ScriptedStream::new(encoded, script);
    assert_eq!(read_blocking(&mut stream), frames);
}

/// A logical frame too big for one physical frame crosses a blocking
/// stream as a chunk run. The bytes arrive one at a time — each after a
/// stray signal — around every physical frame boundary (where the length
/// prefixes and chunk headers sit) and in 4 KiB reads in between.
#[test]
fn frame_reader_reassembles_a_chunk_run_off_a_blocking_stream() {
    let big: Vec<u8> = (0..MAX_FRAME_LEN + 3000).map(|i| (i % 251) as u8).collect();
    let frames = vec![Frame::Bound(7), Frame::Trace(big), Frame::Floor(5)];
    let encoded = encode_all(&frames);
    // Physical frame boundaries: follow the length prefixes.
    let mut boundaries = vec![0usize];
    while *boundaries.last().unwrap() < encoded.len() {
        let at = *boundaries.last().unwrap();
        let len = u32::from_le_bytes(encoded[at..at + 4].try_into().unwrap()) as usize;
        boundaries.push(at + 4 + len);
    }
    assert_eq!(boundaries.len(), 5, "Bound, two chunks, Floor");
    let near = |pos: usize| boundaries.iter().any(|&b| pos + 8 >= b && pos < b + 8);
    let mut script = Vec::new();
    let mut pos = 0;
    while pos < encoded.len() {
        if near(pos) {
            script.extend([Step::Fail(io::ErrorKind::Interrupted), Step::Give(1)]);
            pos += 1;
        } else {
            let next = boundaries.iter().find(|&&b| b > pos + 8).unwrap() - 8;
            let n = (next - pos).min(4096);
            script.push(Step::Give(n));
            pos += n;
        }
    }
    let mut stream = ScriptedStream::new(encoded, script);
    assert_eq!(read_blocking(&mut stream), frames);
}

/// The worker's `Job`-then-`Bound` hand-off: the coordinator writes the
/// current bound right behind the job, so both can arrive in one `read`.
/// The thread that parsed the `Job` hands the stream to a reader thread;
/// the `FrameReader` must travel with it, because the `Bound` is already
/// in its buffer and no longer in the stream.
#[test]
fn frame_reader_moved_between_two_frames_of_one_read_loses_nothing() {
    let frames = vec![Frame::Job(b"{\"modes\":4}".to_vec()), Frame::Bound(16)];
    let mut stream = ScriptedStream::new(encode_all(&frames), vec![Step::Give(usize::MAX)]);
    let mut reader = FrameReader::new();
    match reader.read(&mut stream).expect("reads") {
        FrameRead::Frame { frame, .. } => assert_eq!(frame, frames[0]),
        other => panic!("expected the Job, got {other:?}"),
    }
    assert!(reader.pending() > 0, "the Bound came in with the same read");
    assert_eq!(
        stream.pos,
        stream.data.len(),
        "nothing is left in the stream"
    );

    let rest = std::thread::spawn(move || read_rest(reader, stream))
        .join()
        .expect("reader thread");
    assert_eq!(rest, frames[1..]);

    fn read_rest(mut reader: FrameReader, mut stream: ScriptedStream) -> Vec<Frame> {
        let mut got = Vec::new();
        while let FrameRead::Frame { frame, .. } = reader.read(&mut stream).expect("reads") {
            got.push(frame);
        }
        got
    }
}
