//! The TCP transport: a [`FleetServer`] that `fermihedral-shard worker
//! --connect` processes on any host register with, for as long as it
//! lives and across any number of races. `--shards k` runs the same
//! server on loopback for one race, with its `k` seats reserved for the
//! children it spawns ([`crate::coordinator`]).
//!
//! What TCP adds under the race ([`crate::link::Link`]):
//!
//! * **Registration** — peers come and go; the server assigns shard ids
//!   at `Hello` time or honors a claimed one (a reserved seat's first
//!   connection is a join, any later one a *rejoin*) and
//!   verifies [`PROTOCOL_VERSION`] on both sides before any race traffic
//!   flows. A race musters whoever is connected when it starts and hears
//!   of everyone who registers while it runs.
//! * **Liveness** — workers send `Heartbeat` frames (echoed back, so
//!   both sides measure silence); the link reports each connection's
//!   silence and [`FleetOptions::heartbeat_deadline`] as its patience —
//!   for a silent peer and for a dropped one to reconnect alike.
//! * **Generations** — every (re)connection of a shard id bumps its
//!   generation, so the race can tell a dying connection's last frames
//!   from its successor's.
//!
//! Cutting a peer off is `shutdown(Both)`. A session outlives the race
//! (the next one may use it) and a remote peer's exit status is
//! unknowable, so closing a seat does and reports nothing.

use crate::link::{read_frames, spawn_writer, Event, Link, Outbox, Sent};
use crate::race;
use crate::wire::{write_frame, Frame, FrameRead, FrameReader, HELLO_ANY_SHARD, PROTOCOL_VERSION};
use engine::{compile_cached, compile_with, EngineConfig, EngineOutcome, SolutionCache};
use fermihedral::EncodingProblem;
use sat::CancelToken;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How long a connection may sit in the handshake (no `Hello`) before
/// the server hangs up on it.
const HANDSHAKE_DEADLINE: Duration = Duration::from_secs(5);

/// Socket read timeout: bounds how long a reader thread can block
/// without noticing server shutdown.
const SOCKET_READ_TIMEOUT: Duration = Duration::from_millis(100);

/// Fleet coordinator policy.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// A peer silent (not even heartbeats) this long is declared dead;
    /// a mid-race disconnect gets the same window to reconnect before
    /// its seat degrades.
    pub heartbeat_deadline: Duration,
    /// A race will wait up to `join_timeout` for at least `min_peers`
    /// registered workers before falling back to in-process compilation.
    pub min_peers: usize,
    pub join_timeout: Duration,
    /// Where post-mortem bundles for dead peers are written.
    pub postmortem_dir: Option<PathBuf>,
}

impl Default for FleetOptions {
    fn default() -> FleetOptions {
        FleetOptions {
            heartbeat_deadline: Duration::from_secs(3),
            min_peers: 1,
            join_timeout: Duration::from_secs(30),
            postmortem_dir: None,
        }
    }
}

/// One registered peer's connection state, owned by the registry. The
/// race reads it through its [`Link`]; the per-connection reader thread
/// updates it.
#[derive(Default)]
struct PeerSlot {
    /// Outbox into the peer's writer thread; `None` while disconnected.
    tx: Option<Outbox>,
    connected: bool,
    /// `None` until the first connection, bumped on every reconnection;
    /// events from a previous connection's reader carry the old value.
    generation: Option<u64>,
    /// Milliseconds since the server's epoch at the last received frame.
    last_rx_ms: Arc<AtomicU64>,
    /// Handle for force-disconnect (liveness kill, server shutdown).
    stream: Option<TcpStream>,
}

struct FleetShared {
    peers: Mutex<Vec<PeerSlot>>,
    events_tx: mpsc::Sender<Event>,
    /// Held by whichever race is running; idle between races.
    events_rx: Mutex<mpsc::Receiver<Event>>,
    epoch: Instant,
    shutdown: AtomicBool,
    options: FleetOptions,
}

impl FleetShared {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn peers(&self) -> MutexGuard<'_, Vec<PeerSlot>> {
        self.peers.lock().expect("registry updates never panic")
    }
}

/// A listening fleet coordinator: accepts worker registrations for as
/// long as it lives, across any number of races.
pub struct FleetServer {
    shared: Arc<FleetShared>,
    local_addr: SocketAddr,
}

impl FleetServer {
    /// Binds `addr` and starts accepting worker registrations.
    pub fn bind(addr: &str, options: FleetOptions) -> std::io::Result<FleetServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let (events_tx, events_rx) = mpsc::channel();
        let shared = Arc::new(FleetShared {
            peers: Mutex::new(Vec::new()),
            events_tx,
            events_rx: Mutex::new(events_rx),
            epoch: Instant::now(),
            shutdown: AtomicBool::new(false),
            options,
        });
        {
            let shared = shared.clone();
            std::thread::spawn(move || accept_loop(listener, shared));
        }
        telemetry::log_info!(
            "shard.fleet",
            "fleet coordinator listening",
            addr = local_addr.to_string(),
        );
        Ok(FleetServer { shared, local_addr })
    }

    /// The bound address (resolves `:0` for tests).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Currently-connected peers.
    pub fn peer_count(&self) -> usize {
        self.shared.peers().iter().filter(|p| p.connected).count()
    }

    /// Holds seats `0..seats` for workers that claim them with
    /// `--shard`; a seat's first connection is a join, not a rejoin.
    pub(crate) fn reserve(&self, seats: usize) {
        let mut peers = self.shared.peers();
        while peers.len() < seats {
            peers.push(PeerSlot::default());
        }
    }

    /// One race's hold on the registry and the event queue.
    pub(crate) fn link<'a>(&'a self, external_cancel: Option<&'a CancelToken>) -> FleetLink<'a> {
        let events = self.shared.events_rx.lock();
        FleetLink {
            shared: &self.shared,
            events: events.expect("a race never panics holding the queue"),
            external_cancel,
        }
    }
}

impl Drop for FleetServer {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        if let Ok(peers) = self.shared.peers.lock() {
            for stream in peers.iter().filter_map(|p| p.stream.as_ref()) {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        // Wake the accept loop so it can observe the flag and exit.
        let _ = TcpStream::connect(self.local_addr);
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<FleetShared>) {
    loop {
        let Ok((stream, peer_addr)) = listener.accept() else {
            return;
        };
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let shared = shared.clone();
        std::thread::spawn(move || {
            let _ = stream.set_nodelay(true);
            let _ = stream.set_read_timeout(Some(SOCKET_READ_TIMEOUT));
            serve_connection(stream, peer_addr, &shared);
        });
    }
}

/// One worker connection: handshake, register, then pump frames into
/// the race until the peer goes away.
fn serve_connection(stream: TcpStream, peer_addr: SocketAddr, shared: &FleetShared) {
    // ---- Handshake: Hello → Welcome ------------------------------------
    let mut reader = FrameReader::new();
    let deadline = Instant::now() + HANDSHAKE_DEADLINE;
    let (requested, protocol) = loop {
        if Instant::now() >= deadline || shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        match reader.read(&mut &stream) {
            Ok(FrameRead::Frame {
                frame: Frame::Hello { shard, protocol },
                ..
            }) => break (shard, protocol),
            Ok(FrameRead::Idle) => continue,
            // Anything that isn't a Hello is not a worker.
            Ok(FrameRead::Frame { .. }) | Ok(FrameRead::Eof) | Err(_) => return,
        }
    };
    if protocol != PROTOCOL_VERSION {
        telemetry::log_warn!(
            "shard.fleet",
            "rejecting worker: protocol mismatch",
            peer = peer_addr.to_string(),
            worker_protocol = protocol,
            coordinator_protocol = PROTOCOL_VERSION,
        );
        // Send our own version so the worker can log *why* and give up
        // instead of reconnect-looping.
        let mut w = &stream;
        let _ = write_frame(
            &mut w,
            &Frame::Welcome {
                shard: HELLO_ANY_SHARD,
                protocol: PROTOCOL_VERSION,
            },
        );
        let _ = w.flush();
        return;
    }

    // ---- Registration: assign (or restore) a shard id ------------------
    let (Ok(writer), Ok(handle)) = (stream.try_clone(), stream.try_clone()) else {
        return;
    };
    let last_rx_ms = Arc::new(AtomicU64::new(shared.now_ms()));
    let (shard, rejoin, generation, outbox) = {
        let mut peers = shared.peers();
        let reclaimed = (requested != HELLO_ANY_SHARD)
            .then_some(requested as usize)
            .filter(|&s| s < peers.len() && !peers[s].connected);
        let shard = reclaimed.unwrap_or(peers.len());
        let outbox = spawn_writer(shard, writer);
        if reclaimed.is_none() {
            peers.push(PeerSlot::default());
        }
        let slot = &mut peers[shard];
        let generation = slot.generation.map_or(0, |g| g + 1);
        let rejoin = slot.generation.replace(generation).is_some();
        slot.tx = Some(outbox.clone());
        slot.connected = true;
        slot.last_rx_ms = last_rx_ms.clone();
        slot.stream = Some(handle);
        (shard, rejoin, generation, outbox)
    };
    telemetry::log_info!(
        "shard.fleet",
        "worker registered",
        shard = shard,
        peer = peer_addr.to_string(),
        rejoin = rejoin,
    );
    // Complete the handshake before announcing the peer: the Welcome
    // must be the first frame out, ahead of any Job the race arms.
    outbox.send(Frame::Welcome {
        shard: shard as u32,
        protocol: PROTOCOL_VERSION,
    });
    let _ = shared.events_tx.send(Event::Joined { shard, rejoin });

    // ---- Reader loop: socket → race ------------------------------------
    read_frames(shard, &stream, reader, &shared.shutdown, |frame| {
        last_rx_ms.store(shared.now_ms(), Ordering::Relaxed);
        if let Frame::Heartbeat { seq } = frame {
            // Echo so the worker can measure *our* liveness too;
            // best-effort — a full outbox just skips one echo.
            outbox.send(Frame::Heartbeat { seq });
            return true;
        }
        let event = Event::Frame {
            shard,
            generation,
            frame,
            at: Instant::now(),
        };
        shared.events_tx.send(event).is_ok()
    });

    // Disconnect: free the slot for a rejoin (the race decides
    // whether/when the seat is *dead* — its patience gives the worker a
    // window to come back).
    {
        let mut peers = shared.peers();
        let slot = &mut peers[shard];
        if slot.generation == Some(generation) {
            slot.connected = false;
            slot.tx = None;
            slot.stream = None;
        }
    }
    let _ = shared.events_tx.send(Event::Gone { shard, generation });
    telemetry::log_info!("shard.fleet", "worker disconnected", shard = shard);
}

/// Server form of the fleet race, mirroring
/// [`crate::compile_sharded_with`]: shared cache, external cancellation,
/// and the registered fleet as the transport. With no peers registered
/// within the join window the race degrades to the in-process engine
/// (the same total-loss containment as all-dead local workers); a
/// caller-chosen portfolio races in-process from the start, because a
/// worker builds only its own default lanes.
pub fn compile_fleet_with(
    problem: &EncodingProblem,
    config: &EngineConfig,
    cache: Option<&SolutionCache>,
    external_cancel: Option<&CancelToken>,
    server: &FleetServer,
) -> EngineOutcome {
    if !config.strategies.is_empty() {
        return compile_with(problem, config, cache, external_cancel);
    }
    compile_cached(problem, config, cache, "shard.race", |input| {
        let mut link = server.link(external_cancel);
        let postmortem_dir = server.shared.options.postmortem_dir.as_deref();
        race::run_or_race_in_process(&mut link, input, external_cancel, postmortem_dir)
    })
}

/// One race's hold on the server's registry and event queue.
pub(crate) struct FleetLink<'a> {
    shared: &'a FleetShared,
    events: MutexGuard<'a, mpsc::Receiver<Event>>,
    external_cancel: Option<&'a CancelToken>,
}

impl FleetLink<'_> {
    /// `shard` has registered at least once.
    pub(crate) fn registered(&self, shard: usize) -> bool {
        self.shared
            .peers()
            .get(shard)
            .is_some_and(|p| p.generation.is_some())
    }

    /// `shard` holds a live connection.
    pub(crate) fn connected(&self, shard: usize) -> bool {
        self.shared.peers().get(shard).is_some_and(|p| p.connected)
    }
}

impl Link for FleetLink<'_> {
    fn muster(&mut self) -> Vec<usize> {
        let opts = &self.shared.options;
        let connected = || -> Vec<usize> {
            let peers = self.shared.peers();
            (0..peers.len()).filter(|&s| peers[s].connected).collect()
        };
        let join_deadline = Instant::now() + opts.join_timeout;
        while connected().len() < opts.min_peers
            && Instant::now() < join_deadline
            && !self.external_cancel.is_some_and(CancelToken::is_cancelled)
        {
            std::thread::sleep(Duration::from_millis(20));
        }
        // Flush anything queued before this race (stale results/traces
        // from a previous race, join/leave churn): the registry snapshot
        // is the ground truth for who is connected *now*, and each of
        // them is announced afresh.
        while self.events.try_recv().is_ok() {}
        let muster = connected();
        for &shard in &muster {
            let _ = self.shared.events_tx.send(Event::Joined {
                shard,
                rejoin: false,
            });
        }
        if muster.is_empty() {
            telemetry::log_warn!(
                "shard.fleet",
                "no workers registered; degrading to in-process race",
                waited_ms = opts.join_timeout.as_millis() as u64,
            );
        }
        muster
    }

    fn poll(&mut self, timeout: Duration) -> Result<Event, mpsc::RecvTimeoutError> {
        self.events.recv_timeout(timeout)
    }

    fn send(&mut self, shard: usize, frame: &Frame) -> Sent {
        let peers = self.shared.peers();
        let outbox = peers.get(shard).and_then(|slot| slot.tx.as_ref());
        outbox.map_or(Sent::Closed, |outbox| outbox.send(frame.clone()))
    }

    fn generation(&self, shard: usize) -> u64 {
        let generation = self.shared.peers().get(shard).and_then(|p| p.generation);
        generation.unwrap_or(0)
    }

    fn patience(&self) -> Option<Duration> {
        Some(self.shared.options.heartbeat_deadline)
    }

    fn silence(&self, shard: usize) -> Option<Duration> {
        let peers = self.shared.peers();
        let slot = peers.get(shard).filter(|slot| slot.connected)?;
        let last_rx_ms = slot.last_rx_ms.load(Ordering::Relaxed);
        Some(Duration::from_millis(
            self.shared.now_ms().saturating_sub(last_rx_ms),
        ))
    }

    fn disconnect(&mut self, shard: usize) {
        if let Some(stream) = self
            .shared
            .peers()
            .get(shard)
            .and_then(|p| p.stream.as_ref())
        {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}
