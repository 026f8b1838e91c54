//! The worker half of a sharded race: one process, a subset of the
//! portfolio's lanes, and a frame bridge to the coordinator — over
//! stdin/stdout pipes ([`run_worker`]) or TCP ([`run_worker_fleet`]).
//!
//! Protocol (pipe worker's view):
//!
//! 1. send `Hello { shard, protocol }`;
//! 2. receive `Job` (problem + lane assignment); verify the problem
//!    fingerprint — clause frames are only sound between processes
//!    solving the identical CNF;
//! 3. race via [`engine::compile_bridged`], while
//!    * a **reader** thread applies incoming frames (`Clause` →
//!      [`sat::RemoteExchange::inject`], `Bound` → tighten the shared
//!      incumbent, `Cancel` → raise the race's token), and
//!    * a **pump** loop streams outgoing traffic (drained exports as
//!      `Clause` frames, incumbent improvements as `Bound`, UNSAT floors
//!      as `Floor`, and periodic flight-recorder checkpoints as
//!      `BlackBox` — the raw material for the coordinator's post-mortem
//!      bundles);
//! 4. send a terminal `Result` and exit.
//!
//! A TCP fleet worker speaks the same job protocol with three
//! differences: the handshake is `Hello` → `Welcome` (the coordinator
//! assigns or confirms the shard id, and both sides verify protocol
//! versions); the worker sends periodic `Heartbeat` frames — echoed by
//! the coordinator — so silence is measurable on both ends; and the
//! session *persists across races*: after a `Result` the worker waits
//! for the next `Job`, and a dropped connection triggers
//! reconnect-and-rejoin under the shard id it was assigned.
//!
//! A panic hook routes any panic through the structured logger before
//! the default backtrace, so the panic message rides the last `BlackBox`
//! checkpoint into the coordinator's post-mortem instead of dying with
//! the process's stderr.
//!
//! Coordinator death is handled like cancellation: stdin EOF (or any
//! broken-pipe write) raises the race's cancel token, so an orphaned
//! worker never burns CPU for a race nobody is waiting on.

use crate::link::read_frames;
use crate::proto::{BlackBoxCheckpoint, IncumbentUpdate, Job, ShardResult};
use crate::wire::{
    write_frame, Frame, FrameRead, FrameReader, RemoteClause, HELLO_ANY_SHARD, PROTOCOL_VERSION,
};
use engine::{compile_bridged, RaceBridge};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Pump tick: how often outgoing clauses/bounds are flushed.
const PUMP_INTERVAL: Duration = Duration::from_millis(5);

/// Pump ticks between `Trace` frame shipments (~every 250 ms): span
/// batches are diagnostics, not race-critical traffic, so they ride a
/// much slower cadence than clauses and bounds.
const TRACE_EVERY_TICKS: u32 = 50;

/// Pump ticks between `BlackBox` checkpoints (~every 200 ms). Unlike
/// traces these are always on: each shipment replaces the previous one
/// on the coordinator's side, so the cost is one bounded frame, not an
/// ever-growing log.
const BLACKBOX_EVERY_TICKS: u32 = 40;

/// Pump ticks between in-race `Heartbeat` frames (~every 250 ms, TCP
/// sessions only).
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

/// Runs the worker protocol over arbitrary streams (the binary passes
/// stdin/stdout; tests can pass pipes in-process). Returns a process
/// exit code: `0` on a clean run — including a cancelled one — and
/// nonzero on protocol violations.
pub fn run_worker(shard: usize, input: impl Read + Send + 'static, mut output: impl Write) -> i32 {
    install_panic_hook(shard);
    let hello = Frame::Hello {
        shard: shard as u32,
        protocol: PROTOCOL_VERSION,
    };
    if write_frame(&mut output, &hello)
        .and_then(|()| output.flush())
        .is_err()
    {
        return 1;
    }

    // The Job must arrive before anything else (a version-4 coordinator
    // may confirm the handshake with a Welcome first; pipes need no
    // assignment, so it is informational here).
    let mut input = input;
    let mut reader = FrameReader::new();
    let job = loop {
        let frame = match reader.read(&mut input) {
            Ok(FrameRead::Frame { frame, .. }) => frame,
            Ok(FrameRead::Idle) => continue,
            // The coordinator went away before assigning any work.
            Ok(FrameRead::Eof) => return 0,
            Err(e) => {
                telemetry::log_error!(
                    "shard.worker",
                    "reading job failed",
                    shard = shard,
                    error = e.to_string(),
                );
                return 2;
            }
        };
        match frame {
            Frame::Job(payload) => match Job::from_bytes(&payload) {
                Ok(job) => break job,
                Err(e) => {
                    telemetry::log_error!("shard.worker", "bad job", shard = shard, error = e);
                    return 2;
                }
            },
            Frame::Welcome { .. } | Frame::Heartbeat { .. } => continue,
            // The race can be decided (or externally cancelled) before
            // this worker was ever assigned work — a clean no-work exit,
            // not a protocol violation.
            Frame::Cancel => return 0,
            other => {
                telemetry::log_error!(
                    "shard.worker",
                    "protocol violation: expected Job",
                    shard = shard,
                    got = other.kind(),
                );
                return 2;
            }
        }
    };

    race_job(
        shard,
        &job,
        &mut output,
        |bridge, remote_bound| {
            // ---- Reader thread: coordinator → race ----------------------
            // Deliberately *detached* (not scoped): it blocks reading
            // until the coordinator closes our stdin, which only happens
            // after we send a Result. If the race thread panics, no
            // Result is ever sent — a scoped reader would then deadlock
            // the scope join; detached, it simply dies with the process.
            //
            // The reader that parsed the Job travels with the stream: the
            // coordinator writes the current Bound (and a clause replay)
            // right behind the Job, and one read may already have pulled
            // them into its buffer.
            std::thread::spawn(move || {
                read_frames(shard, input, reader, None, |frame| {
                    apply_race_frame(&bridge, &remote_bound, frame);
                    true
                });
                // Cancellation and coordinator death end the race the
                // same way: stop promptly, report best-so-far.
                bridge.cancel.cancel();
            });
        },
        false,
    )
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
/// and the terminal `Result` frame. Incoming frames are the caller's
/// business — the `on_bridge` hook hands out the race's bridge (and the
/// remote-bound echo guard) as soon as it exists, before any lane runs.
///
/// Returns a process exit code: `0` on a clean run, `1` when the
/// coordinator's stream died, `3` on a fingerprint mismatch, `4` if the
/// race thread panicked.
fn race_job<W: Write>(
    shard: usize,
    job: &Job,
    output: &mut W,
    on_bridge: impl FnOnce(RaceBridge, Arc<AtomicUsize>),
    heartbeats: bool,
) -> i32 {
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
    // the race leaves its job context behind for the post-mortem.
    let _ = pump_blackbox(job, output);

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

    // Lowest bound the coordinator delivered; the pump skips "echoing"
    // it back (it would be counted as this shard's own improvement).
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
        on_bridge(bridge.clone(), remote_bound.clone());

        // ---- Pump loop: race → coordinator ------------------------------
        let mut last_bound_sent = usize::MAX;
        let mut last_incumbent_sent = usize::MAX;
        let mut last_floor_sent = 0usize;
        let mut outbox: Vec<sat::SharedClause> = Vec::new();
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
                    let _ = pump_blackbox(job, output);
                    return 4;
                }
            }
            if pump_once(
                &bridge,
                shard,
                &remote_bound,
                &mut last_bound_sent,
                &mut last_incumbent_sent,
                &mut last_floor_sent,
                &mut outbox,
                output,
            )
            .is_err()
            {
                // Coordinator gone: cancel and wait for the race to wind
                // down so the scope can join.
                bridge.cancel.cancel();
            }
            ticks += 1;
            if heartbeats && ticks.is_multiple_of(HEARTBEAT_EVERY_TICKS) {
                heartbeat_seq += 1;
                let beat = Frame::Heartbeat { seq: heartbeat_seq };
                if write_frame(output, &beat)
                    .and_then(|()| output.flush())
                    .is_err()
                {
                    bridge.cancel.cancel();
                }
            }
            if ticks.is_multiple_of(TRACE_EVERY_TICKS) {
                if let Some(id) = &trace_id {
                    let _ = pump_trace(shard, id, output);
                }
            }
            if ticks.is_multiple_of(BLACKBOX_EVERY_TICKS) {
                let _ = pump_blackbox(job, output);
            }
        };

        // Final flush (bounds/floors the race published on its way out),
        // then the terminal result.
        let _ = pump_once(
            &bridge,
            shard,
            &remote_bound,
            &mut last_bound_sent,
            &mut last_incumbent_sent,
            &mut last_floor_sent,
            &mut outbox,
            output,
        );
        // The race is over and its lane threads have flushed their spans;
        // ship the tail so the coordinator's timeline is complete.
        if let Some(id) = &trace_id {
            let _ = pump_trace(shard, id, output);
        }
        telemetry::log_info!(
            "shard.worker",
            "race finished",
            shard = shard,
            weight = outcome.weight().map(|w| w as u64).unwrap_or(0),
            optimal = outcome.optimal_proved,
        );
        let _ = pump_blackbox(job, output);
        let result = ShardResult {
            weight: outcome.weight(),
            strings: outcome.best.as_ref().map(|b| b.strings.clone()),
            proved_floor: outcome
                .report
                .workers
                .iter()
                .filter_map(|w| w.proved_floor)
                .max()
                .or_else(|| {
                    let f = bridge.floor.load(Ordering::Relaxed);
                    (f != 0).then_some(f)
                }),
            optimal: outcome.optimal_proved,
            winner: outcome.report.winner.clone(),
            workers: outcome.report.workers.clone(),
        };
        let frame = Frame::Result(result.to_bytes());
        if write_frame(output, &frame)
            .and_then(|()| output.flush())
            .is_err()
        {
            return 1;
        }
        0
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
    /// The coordinator rejected the registration (version mismatch).
    Rejected,
    /// An unrecoverable protocol error; carries the exit code.
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
            SessionEnd::Rejected => return 5,
            SessionEnd::Fatal(code) => return code,
        }
    }
}

/// Frames the session's control loop cares about; everything in-race is
/// applied straight to the bridge by the reader thread.
enum SessionMsg {
    Job(Box<Job>),
    Gone,
}

/// While a race runs, the reader thread applies `Clause`/`Bound`/
/// `Cancel` directly to the installed bridge (same immediacy as the
/// pipe worker's dedicated reader). Frames arriving in the gap between
/// `Job` and the bridge's installation are *not* stale: on a rejoin the
/// coordinator replays the current incumbent bound and its learnt-clause
/// digest right behind the `Job`, so they are buffered and applied the
/// moment the bridge exists.
#[derive(Default)]
struct FrameRouter {
    bridge: Option<(RaceBridge, Arc<AtomicUsize>)>,
    /// Tightest pre-bridge `Bound` (`u64::MAX` = none yet).
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

    fn clear(&mut self) {
        *self = FrameRouter::default();
    }
}

/// One established-connection session: handshake, then jobs until the
/// connection dies.
fn fleet_session(stream: &TcpStream, shard: &mut Option<usize>) -> SessionEnd {
    let mut reader = FrameReader::new();
    // ---- Handshake: Hello → Welcome ------------------------------------
    let hello = Frame::Hello {
        shard: shard.map(|s| s as u32).unwrap_or(HELLO_ANY_SHARD),
        protocol: PROTOCOL_VERSION,
    };
    let mut writer = stream;
    if write_frame(&mut writer, &hello)
        .and_then(|()| writer.flush())
        .is_err()
    {
        return SessionEnd::Disconnected;
    }
    let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
    let assigned = loop {
        if Instant::now() >= deadline {
            telemetry::log_warn!("shard.worker", "handshake timed out",);
            return SessionEnd::Disconnected;
        }
        let mut r = stream;
        match reader.read(&mut r) {
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
                    return SessionEnd::Rejected;
                }
                break granted as usize;
            }
            Ok(FrameRead::Frame { .. }) | Ok(FrameRead::Idle) => continue,
            Ok(FrameRead::Eof) | Err(_) => return SessionEnd::Disconnected,
        }
    };
    let rejoin = *shard == Some(assigned);
    *shard = Some(assigned);
    install_panic_hook(assigned);
    telemetry::log_info!(
        "shard.worker",
        "registered with coordinator",
        shard = assigned,
        rejoin = rejoin,
    );

    // ---- Session: reader thread + control loop -------------------------
    let router: Arc<Mutex<FrameRouter>> = Arc::new(Mutex::new(FrameRouter::default()));
    let stop = Arc::new(AtomicBool::new(false));
    let last_rx = Arc::new(AtomicU64::new(0));
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
        {
            let router = router.clone();
            let stop = stop.clone();
            let last_rx = last_rx.clone();
            let msg_tx = msg_tx.clone();
            scope.spawn(move || {
                let mut r = stream;
                loop {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    match reader.read(&mut r) {
                        Ok(FrameRead::Frame { frame, .. }) => {
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
                                    }
                                },
                                Frame::Heartbeat { .. } | Frame::Welcome { .. } => {}
                                in_race => router.lock().unwrap().route(in_race),
                            }
                        }
                        Ok(FrameRead::Idle) => continue,
                        Ok(FrameRead::Eof) | Err(_) => {
                            // A mid-race disconnect must end the race
                            // promptly, not leave it solving for nobody.
                            if let Some((bridge, _)) = router.lock().unwrap().bridge.as_ref() {
                                bridge.cancel.cancel();
                            }
                            let _ = msg_tx.send(SessionMsg::Gone);
                            return;
                        }
                    }
                }
            });
        }

        let mut heartbeat_seq = 0u64;
        loop {
            match msg_rx.recv_timeout(IDLE_HEARTBEAT) {
                Ok(SessionMsg::Job(job)) => {
                    let mut out = stream;
                    let code = race_job(
                        assigned,
                        &job,
                        &mut out,
                        |bridge, remote_bound| {
                            router.lock().unwrap().install(bridge, remote_bound);
                        },
                        true,
                    );
                    router.lock().unwrap().clear();
                    match code {
                        0 => {} // result sent; wait for the next job
                        1 => return SessionEnd::Disconnected,
                        fatal => return SessionEnd::Fatal(fatal),
                    }
                }
                Ok(SessionMsg::Gone) => return SessionEnd::Disconnected,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    heartbeat_seq += 1;
                    let beat = Frame::Heartbeat { seq: heartbeat_seq };
                    let mut out = stream;
                    if write_frame(&mut out, &beat)
                        .and_then(|()| out.flush())
                        .is_err()
                    {
                        return SessionEnd::Disconnected;
                    }
                    // The coordinator echoes heartbeats, so a healthy
                    // link is never silent for long.
                    let silent_ms =
                        epoch.elapsed().as_millis() as u64 - last_rx.load(Ordering::Relaxed);
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

/// One pump tick: forward drained clauses, a tightened bound, and a
/// strengthened floor. Any write error means the coordinator is gone.
#[allow(clippy::too_many_arguments)]
fn pump_once(
    bridge: &RaceBridge,
    shard: usize,
    remote_bound: &AtomicUsize,
    last_bound_sent: &mut usize,
    last_incumbent_sent: &mut usize,
    last_floor_sent: &mut usize,
    outbox: &mut Vec<sat::SharedClause>,
    output: &mut impl Write,
) -> io::Result<()> {
    let mut wrote = false;
    if let Some(exchange) = &bridge.remote {
        exchange.drain_outgoing(outbox);
        for clause in outbox.drain(..) {
            write_frame(
                output,
                &Frame::Clause(RemoteClause {
                    shard: shard as u32,
                    clause,
                }),
            )?;
            wrote = true;
        }
    }
    // Only report bounds this shard *improved*: a bound at or above the
    // coordinator's own delivery would echo straight back.
    let bound = bridge.bound.get();
    if bound < *last_bound_sent && bound < remote_bound.load(Ordering::Relaxed) {
        *last_bound_sent = bound;
        write_frame(output, &Frame::Bound(bound as u64))?;
        wrote = true;
    }
    // Ship the witness behind a local improvement: a weight-only Bound
    // steers every other shard below this encoding, so this process
    // dying must not take the race's only copy of the artifact with it.
    let snapshot = bridge.best.lock().unwrap().clone();
    if let Some((best, winner)) = snapshot {
        if best.weight < *last_incumbent_sent && best.weight < remote_bound.load(Ordering::Relaxed)
        {
            *last_incumbent_sent = best.weight;
            let update = IncumbentUpdate {
                weight: best.weight,
                strings: best.strings,
                winner,
            };
            write_frame(output, &Frame::Incumbent(update.to_bytes()))?;
            wrote = true;
        }
    }
    let floor = bridge.floor.load(Ordering::Relaxed);
    if floor > *last_floor_sent {
        *last_floor_sent = floor;
        write_frame(output, &Frame::Floor(floor as u64))?;
        wrote = true;
    }
    if wrote {
        output.flush()?;
    }
    Ok(())
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
    write_frame(output, &Frame::Trace(batch.to_json().into_bytes()))?;
    output.flush()
}

/// Ships the worker's current flight-recorder ring as one `BlackBox`
/// checkpoint. Best-effort by design: a failed write means the
/// coordinator is gone, and the pump loop's own write failure handling
/// will notice on the next clause/bound attempt.
fn pump_blackbox(job: &Job, output: &mut impl Write) -> io::Result<()> {
    let checkpoint = BlackBoxCheckpoint {
        shard: job.shard,
        fingerprint: job.fingerprint.clone(),
        modes: job.problem.num_modes(),
        lanes: job.strategies.iter().map(|s| s.name()).collect(),
        flight_recorder: telemetry::recorder::recorder().snapshot().to_json_value(),
    };
    write_frame(output, &Frame::BlackBox(checkpoint.to_bytes()))?;
    output.flush()
}
