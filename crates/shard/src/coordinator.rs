//! The pipe transport: `fermihedral-shard worker` child processes on this
//! machine, one per shard, joined to the race by their stdin/stdout.
//!
//! What a pipe link reports ([`crate::link::Link`]): every shard is
//! spawned up front and greets in-band with `Hello`; a pipe cannot be
//! reconnected and carries no heartbeats, so there is no patience and no
//! silence clock — EOF before `Cancel` is a death at once, and EOF after
//! it is settled by the exit status the link reaps when the race closes
//! the seat (clean 0 = wound down, anything else = died). Cutting a
//! shard off is `kill`.

use crate::link::{read_frames, spawn_writer, Event, Link, Outbox, PeerExit, Sent};
use crate::race;
use crate::wire::{Frame, FrameReader};
use engine::{
    compile_cached, compile_with, partition_strategies, EngineConfig, EngineOutcome, SolutionCache,
};
use fermihedral::EncodingProblem;
use sat::CancelToken;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// The worker binary's file name.
pub const WORKER_BIN: &str = "fermihedral-shard";

/// How long a worker gets to exit on its own once the race has closed
/// its seat, before it is killed.
const REAP_GRACE: Duration = Duration::from_secs(2);

/// Process-management options for a sharded run.
#[derive(Clone, Default)]
pub struct ShardOptions {
    /// Path to the worker binary; `None` resolves via
    /// [`default_worker_bin`].
    pub worker_bin: Option<PathBuf>,
    /// Called with `(shard, pid)` for every spawned worker — the
    /// fault-injection tests use this to SIGKILL a worker mid-race.
    pub spawn_hook: Option<Arc<dyn Fn(usize, u32) + Send + Sync>>,
    /// Directory for `postmortem-<shard>.json` bundles, written for
    /// every worker that dies or breaks protocol. `None` falls back to
    /// the `FERMIHEDRAL_POSTMORTEM_DIR` environment variable; unset
    /// both and no bundles are written.
    pub postmortem_dir: Option<PathBuf>,
}

impl std::fmt::Debug for ShardOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardOptions")
            .field("worker_bin", &self.worker_bin)
            .field("spawn_hook", &self.spawn_hook.is_some())
            .field("postmortem_dir", &self.postmortem_dir)
            .finish()
    }
}

/// Locates the worker binary: the `FERMIHEDRAL_SHARD_BIN` environment
/// variable, then `fermihedral-shard` next to the current executable,
/// then in its parent directory (where cargo puts workspace binaries
/// relative to test executables in `deps/`).
pub fn default_worker_bin() -> Option<PathBuf> {
    if let Ok(path) = std::env::var("FERMIHEDRAL_SHARD_BIN") {
        let path = PathBuf::from(path);
        if path.is_file() {
            return Some(path);
        }
    }
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?;
    let name = format!("{WORKER_BIN}{}", std::env::consts::EXE_SUFFIX);
    [dir.join(&name), dir.parent()?.join(&name)]
        .into_iter()
        .find(|c| c.is_file())
}

/// Compiles with lanes sharded across [`EngineConfig::shards`] worker
/// processes. With fewer than 2 shards (or when no worker can be
/// spawned) this degrades to the in-process [`engine::compile`].
pub fn compile_sharded(problem: &EncodingProblem, config: &EngineConfig) -> EngineOutcome {
    let cache = config
        .cache_dir
        .as_ref()
        .and_then(|dir| SolutionCache::open(dir).ok())
        .map(|c| c.with_byte_cap(config.cache_byte_cap));
    compile_sharded_with(
        problem,
        config,
        cache.as_ref(),
        None,
        &ShardOptions::default(),
    )
}

/// [`compile_sharded`] against an externally managed cache handle and
/// cancellation token — the form the compilation server uses (mirrors
/// the in-process engine's service entry point).
pub fn compile_sharded_with(
    problem: &EncodingProblem,
    config: &EngineConfig,
    cache: Option<&SolutionCache>,
    external_cancel: Option<&CancelToken>,
    options: &ShardOptions,
) -> EngineOutcome {
    if config.shards < 2 {
        // Keep the caller's cache handle and cancellation token: a
        // degraded run must stay cancellable (server shutdown!) and its
        // cache traffic must land on the shared counters.
        return compile_with(problem, config, cache, external_cancel);
    }
    let Some(worker_bin) = options.worker_bin.clone().or_else(default_worker_bin) else {
        telemetry::log_warn!(
            "shard.coordinator",
            "worker binary not found; racing in-process instead",
            shards = config.shards,
        );
        return compile_with(problem, config, cache, external_cancel);
    };
    compile_cached(problem, config, cache, "shard.race", |input| {
        // One worker per non-empty lane partition.
        let shards = partition_strategies(input.strategies, config.shards).len();
        let mut link = PipeLink::spawn(&worker_bin, shards, options);
        let postmortem_dir = options.postmortem_dir.as_deref();
        race::run_or_race_in_process(&mut link, input, external_cancel, postmortem_dir)
    })
}

/// The spawned workers of one race.
struct PipeLink {
    /// `None` when the spawn itself failed.
    children: Vec<Option<Child>>,
    /// Outboxes into the workers' writer threads; `None` once a worker
    /// is beyond reach (never spawned, killed, seat closed).
    outboxes: Vec<Option<Outbox>>,
    events: mpsc::Receiver<Event>,
}

impl PipeLink {
    fn spawn(worker_bin: &Path, shards: usize, options: &ShardOptions) -> PipeLink {
        let (tx, events) = mpsc::channel();
        let mut children = Vec::with_capacity(shards);
        let mut outboxes = Vec::with_capacity(shards);
        for shard in 0..shards {
            let spawned = Command::new(worker_bin)
                .arg("worker")
                .arg("--shard")
                .arg(shard.to_string())
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn();
            let gone = Event::Gone {
                shard,
                generation: 0,
            };
            match spawned {
                Ok(mut child) => {
                    if let Some(hook) = &options.spawn_hook {
                        hook(shard, child.id());
                    }
                    let stdin = child.stdin.take().expect("stdin was piped");
                    let stdout = child.stdout.take().expect("stdout was piped");
                    let tx = tx.clone();
                    std::thread::spawn(move || {
                        let deliver = |frame| {
                            let event = Event::Frame {
                                shard,
                                generation: 0,
                                frame,
                                at: Instant::now(),
                            };
                            tx.send(event).is_ok()
                        };
                        read_frames(shard, stdout, FrameReader::new(), None, deliver);
                        let _ = tx.send(gone);
                    });
                    // Dropping the outbox ends the writer, which drops
                    // the pipe: EOF on the worker's stdin.
                    outboxes.push(Some(spawn_writer(shard, stdin, |_| {})));
                    children.push(Some(child));
                }
                Err(e) => {
                    telemetry::log_error!(
                        "shard.coordinator",
                        "spawning worker failed",
                        shard = shard,
                        error = e.to_string(),
                    );
                    let _ = tx.send(gone);
                    outboxes.push(None);
                    children.push(None);
                }
            }
        }
        PipeLink {
            children,
            outboxes,
            events,
        }
    }
}

impl Link for PipeLink {
    fn muster(&mut self) -> Vec<usize> {
        (0..self.children.len()).collect()
    }

    fn poll(&mut self, timeout: Duration) -> Result<Event, mpsc::RecvTimeoutError> {
        self.events.recv_timeout(timeout)
    }

    fn send(&mut self, shard: usize, frame: &Frame) -> Sent {
        let outbox = self.outboxes[shard].as_ref();
        outbox.map_or(Sent::Closed, |outbox| outbox.send(frame.clone()))
    }

    fn disconnect(&mut self, shard: usize) {
        if let Some(child) = &mut self.children[shard] {
            let _ = child.kill();
        }
        self.outboxes[shard] = None;
    }

    fn close(&mut self, shard: usize) -> Option<PeerExit> {
        self.outboxes[shard] = None; // EOF lets a lingering worker exit
        let child = self.children[shard].as_mut()?;
        let deadline = Instant::now() + REAP_GRACE;
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let _ = child.kill();
                    break child.wait().ok();
                }
            }
        };
        // A worker that had to be killed (or could not be reaped) did
        // not end cleanly, whatever status it left.
        Some(PeerExit {
            clean: status.is_some_and(|s| s.success()),
            status: status.map_or_else(|| "unknown".to_string(), |s| s.to_string()),
        })
    }
}
