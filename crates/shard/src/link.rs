//! The seam between the race and its transports.
//!
//! [`crate::race`] owns every race decision; a [`Link`] only moves frames
//! and reports facts about its peers — who joined, what they sent, who
//! went away, how long they have been silent, how they exited. The pipe
//! transport ([`crate::coordinator`]) and the TCP transport
//! ([`crate::fleet`]) implement it over real streams with the thread
//! helpers below; a test implements it in memory and scripts a whole
//! race without a process or a socket.

use crate::wire::{Frame, FrameRead, FrameReader};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a link reports into the race loop.
#[derive(Debug)]
pub enum Event {
    /// A peer completed the transport's own handshake and holds `shard`;
    /// `rejoin` when it reclaimed a seat it held on an earlier
    /// connection. (A pipe peer announces itself in-band instead, with a
    /// [`Frame::Hello`].)
    Joined { shard: usize, rejoin: bool },
    /// A frame from `shard`, read off connection number `generation` at
    /// `at`.
    Frame {
        shard: usize,
        generation: u64,
        frame: Frame,
        at: Instant,
    },
    /// Connection number `generation` of `shard` ended: EOF, a read
    /// error, or a corrupt frame.
    Gone { shard: usize, generation: u64 },
}

/// What became of a frame handed to [`Link::send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sent {
    Queued,
    /// The peer's bounded outbox is full: the frame was shed rather than
    /// letting one slow peer head-of-line-block the race.
    Full,
    /// The peer has no live connection.
    Closed,
}

/// How a peer whose lifetime the link owns ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerExit {
    /// Exited on its own with status 0.
    pub clean: bool,
    /// Human-readable exit status, for the post-mortem bundle.
    pub status: String,
}

/// One race's connection to its shards. Every difference between
/// transports is a fact reported here, never an option of the race. The
/// provided methods describe the plainest link: peers connect once, no
/// clocks are kept, and the peers' lifetimes are somebody else's.
pub trait Link {
    /// The shards taking part from the start; each announces itself with
    /// [`Event::Joined`] or [`Frame::Hello`] (or [`Event::Gone`], if it
    /// never got that far). May wait for peers to show up.
    fn muster(&mut self) -> Vec<usize>;
    /// The next event, waiting up to `timeout` for one: `Timeout` when
    /// none arrived, `Disconnected` when none can arrive any more (every
    /// connection has ended).
    fn poll(&mut self, timeout: Duration) -> Result<Event, RecvTimeoutError>;
    /// Queues `frame` for `shard` without ever blocking.
    fn send(&mut self, shard: usize, frame: &Frame) -> Sent;
    /// Cuts `shard` off for good (it ignored `Cancel`, went silent, or
    /// broke protocol).
    fn disconnect(&mut self, shard: usize);
    /// Number of `shard`'s current connection; events carrying another
    /// come from a connection a rejoin has superseded.
    fn generation(&self, _shard: usize) -> u64 {
        0
    }
    /// How long a peer may stay silent, or away after its connection
    /// ended, before its seat is dead. `None`: peers of this link cannot
    /// come back and it keeps no silence clock — a connection that ends
    /// before `Cancel` is a death at once.
    fn patience(&self) -> Option<Duration> {
        None
    }
    /// How long `shard`'s live connection has delivered nothing; `None`
    /// without a live connection or a silence clock.
    fn silence(&self, _shard: usize) -> Option<Duration> {
        None
    }
    /// The race is over for `shard`: stop feeding it. A link that owns
    /// its peer's lifetime waits for the peer to exit — killing one that
    /// lingers — and reports how it ended; the others report `None`.
    fn close(&mut self, _shard: usize) -> Option<PeerExit> {
        None
    }
}

/// Per-direction, per-peer wire telemetry: frame counts by type and
/// total bytes, recorded into the process-wide metric set. Counter
/// handles are cached per reader/writer thread so the hot path never
/// re-resolves names. (Aggregate gates sum by name prefix, so the peer
/// label refines without breaking them.)
struct WireMeter {
    dir: &'static str,
    peer: usize,
    bytes: Arc<telemetry::Counter>,
    frames: Vec<(&'static str, Arc<telemetry::Counter>)>,
}

impl WireMeter {
    fn new(dir: &'static str, peer: usize) -> WireMeter {
        WireMeter {
            dir,
            peer,
            bytes: telemetry::global().metrics().counter(&format!(
                "wire_bytes_total{{dir=\"{dir}\",peer=\"{peer}\"}}"
            )),
            frames: Vec::new(),
        }
    }

    fn record(&mut self, kind: &'static str, bytes: usize) {
        self.bytes.add(bytes as u64);
        if let Some((_, counter)) = self.frames.iter().find(|(k, _)| *k == kind) {
            counter.inc();
            return;
        }
        let counter = telemetry::global().metrics().counter(&format!(
            "wire_frames_total{{type=\"{kind}\",dir=\"{}\",peer=\"{}\"}}",
            self.dir, self.peer
        ));
        counter.inc();
        self.frames.push((kind, counter));
    }
}

/// Per-peer outgoing queue depth. Frames beyond it are shed (clause and
/// bound sharing is best-effort); `Job` is always among the first frames
/// into an empty queue.
const OUTBOX_DEPTH: usize = 1024;

/// The bounded queue into a peer's writer thread.
#[derive(Clone)]
pub(crate) struct Outbox {
    tx: mpsc::SyncSender<Frame>,
    /// Frames shed at the full queue: the price of never letting one
    /// slow peer head-of-line-block the race.
    dropped: Arc<telemetry::Counter>,
}

impl Outbox {
    /// Queues `frame` without ever blocking.
    pub(crate) fn send(&self, frame: Frame) -> Sent {
        match self.tx.try_send(frame) {
            Ok(()) => Sent::Queued,
            Err(mpsc::TrySendError::Full(_)) => {
                self.dropped.inc();
                Sent::Full
            }
            // The writer saw a broken stream and quit.
            Err(mpsc::TrySendError::Disconnected(_)) => Sent::Closed,
        }
    }
}

/// Starts `shard`'s writer thread — the only place that blocks on the
/// peer's stream, so a peer that stops draining backs up *its own*
/// bounded outbox (and sheds) instead of wedging the race loop — and
/// returns the outbox. The thread ends when every outbox handle is
/// dropped or the stream breaks, and calls `finish` on the stream on its
/// way out.
pub(crate) fn spawn_writer<W: Write + Send + 'static>(
    shard: usize,
    mut stream: W,
    finish: fn(&W),
) -> Outbox {
    let (tx, rx) = mpsc::sync_channel::<Frame>(OUTBOX_DEPTH);
    let dropped = telemetry::global().metrics().counter(&format!(
        "wire_frames_dropped_total{{dir=\"tx\",peer=\"{shard}\"}}"
    ));
    std::thread::spawn(move || {
        let mut meter = WireMeter::new("tx", shard);
        while let Ok(frame) = rx.recv() {
            let bytes = match frame.to_bytes() {
                Ok(bytes) => bytes,
                Err(e) => {
                    // Encode-time cap enforcement: shed the oversized
                    // best-effort frame instead of letting the peer tear
                    // down the link.
                    telemetry::log_warn!(
                        "shard.link",
                        "dropping unencodable frame",
                        shard = shard,
                        kind = frame.kind(),
                        error = e.to_string(),
                    );
                    continue;
                }
            };
            meter.record(frame.kind(), bytes.len());
            if stream
                .write_all(&bytes)
                .and_then(|()| stream.flush())
                .is_err()
            {
                break;
            }
        }
        finish(&stream);
    });
    Outbox { tx, dropped }
}

/// `shard`'s reader loop: decodes and meters frames off `stream` and
/// hands each to `deliver`, until the stream ends (EOF, error, corrupt
/// frame), `deliver` returns `false`, or — checked whenever the stream's
/// read timeout expires — `stop` is raised.
pub(crate) fn read_frames(
    shard: usize,
    mut stream: impl Read,
    mut reader: FrameReader,
    stop: Option<&AtomicBool>,
    mut deliver: impl FnMut(Frame) -> bool,
) {
    let mut meter = WireMeter::new("rx", shard);
    while !stop.is_some_and(|stop| stop.load(Ordering::Relaxed)) {
        match reader.read(&mut stream) {
            Ok(FrameRead::Frame { frame, wire_bytes }) => {
                meter.record(frame.kind(), wire_bytes);
                if !deliver(frame) {
                    return;
                }
            }
            Ok(FrameRead::Idle) => {}
            Ok(FrameRead::Eof) | Err(_) => return,
        }
    }
}
