//! The worker half of a sharded race: one process, a subset of the
//! portfolio's lanes, and a TCP session with the coordinator
//! ([`run_worker_fleet`]) — a remote fleet's or the loopback one that
//! `--shards k` spawns its workers against. One protocol:
//!
//! 1. connect and send `Hello { shard, protocol }` (a seat id to claim,
//!    or [`HELLO_ANY_SHARD`]); the coordinator answers `Welcome` with
//!    the granted seat, and both sides verify [`PROTOCOL_VERSION`];
//! 2. receive `Job` (problem + lane names, built from this worker's own
//!    default portfolio); verify the problem fingerprint — clause frames
//!    are only sound between processes solving the identical CNF. A job
//!    that fails either check ends the process;
//! 3. race via [`engine::compile_bridged`], while
//!    * the session's **reader** thread applies incoming frames
//!      (`Clause` → [`sat::RemoteExchange::inject`], `Bound` → tighten
//!      the shared incumbent, `Cancel` → raise the race's token), and
//!    * a **pump** loop streams outgoing traffic (drained exports as
//!      `Clause` frames, incumbent improvements as `Incumbent` — the
//!      encoding itself, which the coordinator checks before it tells
//!      anyone the weight — UNSAT floors as `Floor`, periodic
//!      `Heartbeat`s, and flight-recorder snapshots as `BlackBox` — the
//!      raw material for the coordinator's post-mortem bundles);
//! 4. flush the last `Incumbent` and `Floor`, send a terminal `Result`
//!    carrying only the lane timelines, then wait for the next `Job`.
//!
//! Between jobs the worker heartbeats; the coordinator echoes every
//! heartbeat, so silence is measurable on both ends.
//!
//! A panic hook routes any panic through the structured logger before
//! the default backtrace, so the panic message rides the last `BlackBox`
//! checkpoint into the coordinator's post-mortem instead of dying with
//! the process's stderr.
//!
//! Coordinator loss is handled like cancellation: a dropped connection
//! raises the race's cancel token, so a worker never burns CPU for a
//! race nobody is waiting on. It then reconnects under the seat it was
//! granted — re-entering the race with the incumbent bound and clause
//! digest the coordinator replays — and retires once the coordinator
//! stays unreachable.

use crate::link::read_frames;
use crate::proto::{IncumbentUpdate, Job, ShardResult};
use crate::wire::{
    write_frame, Frame, FrameRead, FrameReader, RemoteClause, HELLO_ANY_SHARD, PROTOCOL_VERSION,
};
use engine::{compile_bridged, RaceBridge};
use std::io::{self, BufWriter, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Pump tick: how often outgoing clauses, incumbents and floors are flushed.
const PUMP_INTERVAL: Duration = Duration::from_millis(5);

/// Pump ticks between `Trace` frame shipments (~every 250 ms): span
/// batches are diagnostics, not race-critical traffic, so they ride a
/// much slower cadence than clauses and incumbents.
const TRACE_EVERY_TICKS: u32 = 50;

/// Pump ticks between `BlackBox` checkpoints (~every 200 ms). Unlike
/// traces these are always on: each shipment replaces the previous one
/// on the coordinator's side, so the cost is one bounded frame, not an
/// ever-growing log.
const BLACKBOX_EVERY_TICKS: u32 = 40;

/// Pump ticks between in-race `Heartbeat` frames (~every 250 ms).
const HEARTBEAT_EVERY_TICKS: u32 = 50;

/// Idle-session heartbeat cadence (between jobs).
const IDLE_HEARTBEAT: Duration = Duration::from_millis(250);

/// How long the coordinator may stay completely silent (not even
/// heartbeat echoes) before an idle fleet session reconnects.
const COORDINATOR_SILENCE: Duration = Duration::from_secs(10);

/// How long to wait for the coordinator's `Welcome` after `Hello`.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// Read timeout on fleet sockets: bounds how long any blocking read can
/// keep a thread from noticing shutdown.
const SOCKET_READ_TIMEOUT: Duration = Duration::from_millis(100);

/// Routes panics through the structured logger (so they land in the
/// flight recorder and reach the coordinator with the next checkpoint —
/// or the post-mortem, if there is no next checkpoint), then defers to
/// the previous hook for the usual stderr backtrace.
fn install_panic_hook(shard: usize) {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| info.payload().downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        let location = info
            .location()
            .map(|l| format!("{}:{}", l.file(), l.line()))
            .unwrap_or_else(|| "unknown".to_string());
        telemetry::log_error!(
            "shard.worker",
            "worker panicked",
            shard = shard,
            panic = payload,
            location = location,
        );
        previous(info);
    }));
}

/// Applies one in-race frame from the coordinator to the race's bridge:
/// `Clause` → inject, `Bound` → tighten (and remember the remote
/// delivery so the pump won't echo it), `Cancel` → raise the token.
/// Anything else is harmless between-race traffic.
fn apply_race_frame(bridge: &RaceBridge, remote_bound: &AtomicUsize, frame: Frame) {
    match frame {
        Frame::Clause(remote) => {
            if let Some(exchange) = &bridge.remote {
                exchange.inject(
                    &remote.clause.lits,
                    remote.clause.lbd,
                    remote.clause.bound_tag,
                );
            }
        }
        Frame::Bound(weight) => {
            remote_bound.fetch_min(weight as usize, Ordering::Relaxed);
            bridge.bound.tighten(weight as usize);
        }
        Frame::Cancel => bridge.cancel.cancel(),
        _ => {} // unexpected but harmless
    }
}

/// Runs one job: fingerprint check, the bridged race, the pump loop,
/// and the terminal `Result` frame. The race's bridge is installed in
/// `router` as soon as it exists, before any lane runs; the session's
/// reader applies incoming frames through it.
///
/// Returns a process exit code: `0` on a clean run, `1` when the
/// coordinator's stream died, `3` on a fingerprint mismatch (the session
/// ends the same way on a `Job` it cannot parse), `4` if the race thread
/// panicked.
fn race_job(shard: usize, job: &Job, mut output: impl Write, router: &Mutex<FrameRouter>) -> i32 {
    let local_fp = engine::fingerprint(&job.problem).to_hex();
    if local_fp != job.fingerprint {
        telemetry::log_error!(
            "shard.worker",
            "fingerprint mismatch",
            shard = shard,
            job_fingerprint = job.fingerprint.clone(),
            parsed_fingerprint = local_fp,
        );
        return 3;
    }
    telemetry::log_info!(
        "shard.worker",
        "job accepted",
        shard = shard,
        total_shards = job.total_shards,
        modes = job.problem.num_modes(),
        lanes = job.strategies.len(),
        fingerprint = job.fingerprint.clone(),
    );
    // First checkpoint right away: even a worker killed milliseconds into
    // the race leaves its ring (the `job accepted` line above) behind.
    let _ = pump_blackbox(&mut output);

    // The coordinator's trace id turns span recording on for this whole
    // process; batches ship back over the pump loop below.
    if job.trace_id.is_some() {
        telemetry::global().enable();
    }
    let trace_id = job.trace_id.clone();

    let config = job.engine_config();
    let problem = job.problem.clone();
    let (bridge_tx, bridge_rx) = mpsc::channel::<RaceBridge>();
    let (done_tx, done_rx) = mpsc::channel::<engine::EngineOutcome>();

    // Lowest bound the coordinator delivered; the pump ships no
    // incumbent at or above it (the coordinator already holds a witness
    // that light).
    let remote_bound = Arc::new(AtomicUsize::new(usize::MAX));

    std::thread::scope(|scope| {
        // ---- Race thread ------------------------------------------------
        scope.spawn(move || {
            let outcome = compile_bridged(&problem, &config, |bridge| {
                // The hook runs before any lane starts; the pump below
                // picks the handles up immediately.
                let _ = bridge_tx.send(bridge);
            });
            let _ = done_tx.send(outcome);
        });

        let bridge = bridge_rx
            .recv()
            .expect("compile_bridged always invokes its hook");
        router
            .lock()
            .unwrap()
            .install(bridge.clone(), remote_bound.clone());

        // ---- Pump loop: race → coordinator ------------------------------
        let mut pump = Pump {
            bridge: &bridge,
            shard,
            remote_bound: &remote_bound,
            incumbent_sent: usize::MAX,
            floor_sent: 0,
            clauses: Vec::new(),
        };
        let mut ticks = 0u32;
        let mut heartbeat_seq = 0u64;
        let outcome = loop {
            match done_rx.recv_timeout(PUMP_INTERVAL) {
                Ok(outcome) => break outcome,
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    // The race thread panicked. The panic hook has
                    // already logged it into the ring; ship one last
                    // checkpoint so the coordinator's post-mortem shows
                    // the panic, then let the scope re-raise on exit.
                    let _ = pump_blackbox(&mut output);
                    return 4;
                }
            }
            if pump.tick(&mut output).is_err() {
                // Coordinator gone: cancel and wait for the race to wind
                // down so the scope can join.
                bridge.cancel.cancel();
            }
            ticks += 1;
            if ticks.is_multiple_of(HEARTBEAT_EVERY_TICKS) {
                heartbeat_seq += 1;
                let beat = Frame::Heartbeat { seq: heartbeat_seq };
                if send(&mut output, &beat).is_err() {
                    bridge.cancel.cancel();
                }
            }
            if ticks.is_multiple_of(TRACE_EVERY_TICKS) {
                if let Some(id) = &trace_id {
                    let _ = pump_trace(shard, id, &mut output);
                }
            }
            if ticks.is_multiple_of(BLACKBOX_EVERY_TICKS) {
                let _ = pump_blackbox(&mut output);
            }
        };

        // Final flush (the incumbent and floor the race published on its
        // way out), then the terminal result.
        let _ = pump.tick(&mut output);
        // The race is over and its lane threads have flushed their spans;
        // ship the tail so the coordinator's timeline is complete.
        if let Some(id) = &trace_id {
            let _ = pump_trace(shard, id, &mut output);
        }
        telemetry::log_info!(
            "shard.worker",
            "race finished",
            shard = shard,
            weight = outcome.weight().map(|w| w as u64).unwrap_or(0),
            optimal = outcome.optimal_proved,
        );
        let _ = pump_blackbox(&mut output);
        let result = ShardResult {
            workers: outcome.report.workers,
        };
        match send(&mut output, &Frame::Result(result.to_bytes())) {
            Ok(()) => 0,
            Err(_) => 1,
        }
    })
}

/// Connection policy for [`run_worker_fleet`].
#[derive(Debug, Clone)]
pub struct FleetWorkerOptions {
    /// Shard id to (re)claim; `None` asks the coordinator to assign one
    /// ([`HELLO_ANY_SHARD`]).
    pub shard: Option<usize>,
    /// Consecutive failed connection attempts before giving up.
    pub reconnect_attempts: u32,
    /// Pause between connection attempts.
    pub reconnect_delay: Duration,
}

impl Default for FleetWorkerOptions {
    fn default() -> FleetWorkerOptions {
        FleetWorkerOptions {
            shard: None,
            reconnect_attempts: 25,
            reconnect_delay: Duration::from_millis(200),
        }
    }
}

/// How one fleet session over an established connection ended.
enum SessionEnd {
    /// Connection lost (EOF, read error, or write error): reconnect and
    /// rejoin under the session's shard id.
    Disconnected,
    /// An unrecoverable end — a registration refused for its protocol
    /// version (5) or a job that could not run (see [`race_job`]);
    /// carries the process exit code.
    Fatal(i32),
}

/// Runs the TCP fleet worker: connect to the coordinator at `addr`,
/// register (or rejoin) via `Hello`/`Welcome`, then serve jobs until
/// the coordinator goes away for good. A dropped connection triggers
/// reconnection under the shard id this worker was assigned, so a
/// worker that loses its coordinator mid-race re-attaches and re-enters
/// the race with the current incumbent bound and clause digest replayed
/// by the coordinator.
///
/// Returns a process exit code: `0` once the coordinator has retired
/// (connection refused after having served), nonzero on registration
/// rejection or protocol violations.
pub fn run_worker_fleet(addr: &str, options: &FleetWorkerOptions) -> i32 {
    let mut shard = options.shard;
    let mut failures = 0u32;
    let mut ever_connected = false;
    loop {
        let stream = match TcpStream::connect(addr) {
            Ok(stream) => stream,
            Err(e) => {
                failures += 1;
                if failures > options.reconnect_attempts {
                    telemetry::log_info!(
                        "shard.worker",
                        "coordinator unreachable; retiring",
                        addr = addr,
                        attempts = failures,
                        error = e.to_string(),
                    );
                    return i32::from(!ever_connected);
                }
                std::thread::sleep(options.reconnect_delay);
                continue;
            }
        };
        failures = 0;
        ever_connected = true;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(SOCKET_READ_TIMEOUT));
        match fleet_session(&stream, &mut shard) {
            SessionEnd::Disconnected => {
                telemetry::log_warn!(
                    "shard.worker",
                    "connection lost; reconnecting",
                    addr = addr,
                    shard = shard.map(|s| s as u64).unwrap_or(u64::MAX),
                );
                std::thread::sleep(options.reconnect_delay);
            }
            SessionEnd::Fatal(code) => return code,
        }
    }
}

/// Frames the session's control loop cares about; everything in-race is
/// applied straight to the bridge by the reader thread.
enum SessionMsg {
    Job(Box<Job>),
    /// A `Job` this worker cannot parse: the session ends, so the
    /// coordinator sees the seat go instead of waiting out its deadline.
    BadJob,
    Gone,
}

/// While a race runs, the reader thread applies `Clause`/`Bound`/
/// `Cancel` directly to the installed bridge. Frames arriving in the gap
/// between `Job` and the bridge's installation are *not* stale: the
/// coordinator sends the current incumbent bound and its learnt-clause
/// digest right behind the `Job`, so they are buffered and applied the
/// moment the bridge exists.
#[derive(Default)]
struct FrameRouter {
    bridge: Option<(RaceBridge, Arc<AtomicUsize>)>,
    /// Tightest pre-bridge `Bound`, if any arrived.
    pending_bound: Option<u64>,
    /// Pre-bridge `Clause` frames (bounded — a digest replay, not a firehose).
    pending: Vec<Frame>,
    pending_cancel: bool,
}

/// Cap on buffered pre-bridge clauses; matches the coordinator's digest
/// depth with headroom.
const PENDING_FRAME_CAP: usize = 4096;

impl FrameRouter {
    /// Routes one in-race frame: straight to the bridge when one is
    /// installed, into the pending buffer otherwise.
    fn route(&mut self, frame: Frame) {
        match &self.bridge {
            Some((bridge, remote_bound)) => apply_race_frame(bridge, remote_bound, frame),
            None => match frame {
                Frame::Bound(w) => {
                    self.pending_bound = Some(self.pending_bound.map_or(w, |p| p.min(w)));
                }
                Frame::Clause(_) if self.pending.len() < PENDING_FRAME_CAP => {
                    self.pending.push(frame);
                }
                Frame::Cancel => self.pending_cancel = true,
                _ => {}
            },
        }
    }

    /// Installs the race's bridge and replays everything buffered since
    /// the `Job` arrived.
    fn install(&mut self, bridge: RaceBridge, remote_bound: Arc<AtomicUsize>) {
        if let Some(w) = self.pending_bound.take() {
            apply_race_frame(&bridge, &remote_bound, Frame::Bound(w));
        }
        for frame in self.pending.drain(..) {
            apply_race_frame(&bridge, &remote_bound, frame);
        }
        if std::mem::take(&mut self.pending_cancel) {
            bridge.cancel.cancel();
        }
        self.bridge = Some((bridge, remote_bound));
    }
}

/// One established-connection session: handshake, then jobs until the
/// connection dies.
fn fleet_session(mut stream: &TcpStream, shard: &mut Option<usize>) -> SessionEnd {
    let mut reader = FrameReader::new();
    // ---- Handshake: Hello → Welcome ------------------------------------
    let hello = Frame::Hello {
        shard: shard.map(|s| s as u32).unwrap_or(HELLO_ANY_SHARD),
        protocol: PROTOCOL_VERSION,
    };
    if send(&mut stream, &hello).is_err() {
        return SessionEnd::Disconnected;
    }
    let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
    let assigned = loop {
        if Instant::now() >= deadline {
            telemetry::log_warn!("shard.worker", "handshake timed out",);
            return SessionEnd::Disconnected;
        }
        match reader.read(&mut stream) {
            Ok(FrameRead::Frame {
                frame:
                    Frame::Welcome {
                        shard: granted,
                        protocol,
                    },
                ..
            }) => {
                if protocol != PROTOCOL_VERSION || granted == HELLO_ANY_SHARD {
                    telemetry::log_error!(
                        "shard.worker",
                        "registration rejected",
                        coordinator_protocol = protocol,
                        worker_protocol = PROTOCOL_VERSION,
                    );
                    return SessionEnd::Fatal(5);
                }
                break granted as usize;
            }
            Ok(FrameRead::Frame { .. }) | Ok(FrameRead::Idle) => continue,
            Ok(FrameRead::Eof) | Err(_) => return SessionEnd::Disconnected,
        }
    };
    *shard = Some(assigned);
    install_panic_hook(assigned);
    telemetry::log_info!(
        "shard.worker",
        "registered with coordinator",
        shard = assigned
    );

    // ---- Session: reader thread + control loop -------------------------
    let router = Mutex::new(FrameRouter::default());
    let stop = AtomicBool::new(false);
    let last_rx = AtomicU64::new(0);
    let epoch = Instant::now();
    let (msg_tx, msg_rx) = mpsc::channel::<SessionMsg>();

    // Tears the session down even if a race panic unwinds through the
    // control loop: the reader must see the stop flag (or a dead
    // socket), or the scope join below would hang.
    struct SessionGuard<'a> {
        stop: &'a AtomicBool,
        stream: &'a TcpStream,
    }
    impl Drop for SessionGuard<'_> {
        fn drop(&mut self) {
            self.stop.store(true, Ordering::Relaxed);
            let _ = self.stream.shutdown(Shutdown::Both);
        }
    }

    std::thread::scope(|scope| {
        let _guard = SessionGuard {
            stop: &stop,
            stream,
        };
        let (router, stop, last_rx) = (&router, &stop, &last_rx);
        scope.spawn(move || {
            read_frames(assigned, stream, reader, stop, |frame| {
                last_rx.store(epoch.elapsed().as_millis() as u64, Ordering::Relaxed);
                match frame {
                    Frame::Job(payload) => match Job::from_bytes(&payload) {
                        Ok(job) => {
                            let _ = msg_tx.send(SessionMsg::Job(Box::new(job)));
                        }
                        Err(e) => {
                            telemetry::log_error!(
                                "shard.worker",
                                "bad job",
                                shard = assigned,
                                error = e,
                            );
                            let _ = msg_tx.send(SessionMsg::BadJob);
                            return false;
                        }
                    },
                    Frame::Heartbeat { .. } | Frame::Welcome { .. } => {}
                    in_race => router.lock().unwrap().route(in_race),
                }
                true
            });
            // A mid-race disconnect must end the race promptly, not
            // leave it solving for nobody.
            if let Some((bridge, _)) = router.lock().unwrap().bridge.as_ref() {
                bridge.cancel.cancel();
            }
            let _ = msg_tx.send(SessionMsg::Gone);
        });

        let mut heartbeat_seq = 0u64;
        loop {
            match msg_rx.recv_timeout(IDLE_HEARTBEAT) {
                Ok(SessionMsg::Job(job)) => {
                    // Buffered: each pump tick's frames leave in one write.
                    let code = race_job(assigned, &job, BufWriter::new(stream), router);
                    *router.lock().unwrap() = FrameRouter::default();
                    match code {
                        0 => {} // result sent; wait for the next job
                        1 => return SessionEnd::Disconnected,
                        fatal => return SessionEnd::Fatal(fatal),
                    }
                }
                Ok(SessionMsg::BadJob) => return SessionEnd::Fatal(3),
                Ok(SessionMsg::Gone) => return SessionEnd::Disconnected,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    heartbeat_seq += 1;
                    let beat = Frame::Heartbeat { seq: heartbeat_seq };
                    if send(&mut stream, &beat).is_err() {
                        return SessionEnd::Disconnected;
                    }
                    // The coordinator echoes heartbeats, so a healthy
                    // link is never silent for long. (The reader may store
                    // a later millisecond than this clock read: saturate.)
                    let silent_ms = (epoch.elapsed().as_millis() as u64)
                        .saturating_sub(last_rx.load(Ordering::Relaxed));
                    if silent_ms > COORDINATOR_SILENCE.as_millis() as u64 {
                        telemetry::log_warn!(
                            "shard.worker",
                            "coordinator silent past deadline; reconnecting",
                            shard = assigned,
                            silent_ms = silent_ms,
                        );
                        return SessionEnd::Disconnected;
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => return SessionEnd::Disconnected,
            }
        }
    })
}

/// The pump's view of one race: its bridge, and what it already told
/// the coordinator, so each tick ships only news.
struct Pump<'a> {
    bridge: &'a RaceBridge,
    shard: usize,
    /// Lowest bound the coordinator delivered (see [`FrameRouter`]).
    remote_bound: &'a AtomicUsize,
    incumbent_sent: usize,
    floor_sent: usize,
    clauses: Vec<sat::SharedClause>,
}

impl Pump<'_> {
    /// One pump tick: forward drained clauses, an improved incumbent and
    /// a strengthened floor. Any write error means the coordinator is
    /// gone.
    fn tick(&mut self, output: &mut impl Write) -> io::Result<()> {
        let bridge = self.bridge;
        let mut wrote = false;
        if let Some(exchange) = &bridge.remote {
            exchange.drain_outgoing(&mut self.clauses);
            for clause in self.clauses.drain(..) {
                let shard = self.shard as u32;
                write_frame(output, &Frame::Clause(RemoteClause { shard, clause }))?;
                wrote = true;
            }
        }
        // Only report encodings this shard *improved* on: one at or above
        // the coordinator's own delivery would echo straight back.
        let remote_bound = self.remote_bound.load(Ordering::Relaxed);
        let snapshot = bridge.best.lock().unwrap().clone();
        if let Some((best, winner)) = snapshot {
            if best.weight < self.incumbent_sent && best.weight < remote_bound {
                self.incumbent_sent = best.weight;
                let update = IncumbentUpdate {
                    strings: best.strings,
                    winner,
                };
                write_frame(output, &Frame::Incumbent(update.to_bytes()))?;
                wrote = true;
            }
        }
        let floor = bridge.floor.load(Ordering::Relaxed);
        if floor > self.floor_sent {
            self.floor_sent = floor;
            write_frame(output, &Frame::Floor(floor as u64))?;
            wrote = true;
        }
        if wrote {
            output.flush()?;
        }
        Ok(())
    }
}

/// Writes one frame and flushes it.
fn send(output: &mut impl Write, frame: &Frame) -> io::Result<()> {
    write_frame(output, frame)?;
    output.flush()
}

/// Drains the process's recorded spans and ships them as one `Trace`
/// frame. Timestamps stay on this process's monotonic epoch; the batch
/// carries the epoch's wall-clock anchor so the coordinator can shift
/// them onto its own timeline.
fn pump_trace(shard: usize, trace_id: &str, output: &mut impl Write) -> io::Result<()> {
    let registry = telemetry::global();
    telemetry::flush();
    let events = registry.drain();
    if events.is_empty() {
        return Ok(());
    }
    let batch = telemetry::chrome::TraceBatch {
        pid: std::process::id(),
        shard: shard as u32,
        trace_id: trace_id.to_string(),
        epoch_wall_us: registry.epoch_wall_us(),
        dropped: registry.dropped(),
        events,
    };
    send(output, &Frame::Trace(batch.to_json().into_bytes()))
}

/// Ships the worker's current flight-recorder ring as one `BlackBox`
/// frame (compact: it rides the pump loop alongside clause traffic).
/// Best-effort by design: a failed write means the coordinator is gone,
/// and the pump loop's own write failure handling will notice on its
/// next write.
fn pump_blackbox(output: &mut impl Write) -> io::Result<()> {
    let snapshot = telemetry::recorder::recorder().snapshot().to_json_value();
    send(
        output,
        &Frame::BlackBox(snapshot.to_json_compact().into_bytes()),
    )
}
