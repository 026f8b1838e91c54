//! The local transport: `--shards k` races `k` `fermihedral-shard worker
//! --connect` children of this process over a loopback [`FleetServer`]
//! that lives for one race.
//!
//! The seats `0..k` are reserved before the children are spawned, and
//! each child claims its own with `--shard`. A thin wrapper around the
//! fleet's link (`LocalLink`) owns the children's lifetimes: the
//! muster is `0..k` at once; there is no patience, so a connection that
//! ends before `Cancel` is a death at once and a local child never
//! rejoins; a child that ends before it ever connects is reported gone
//! by its process; cutting a child off is `kill`; and closing its seat
//! reaps it, reporting the exit status when its connection had already
//! ended, so a signal names itself in the post-mortem.

use crate::fleet::{FleetLink, FleetOptions, FleetServer};
use crate::link::{Event, Link, PeerExit, Sent};
use crate::race;
use crate::wire::Frame;
use engine::{
    compile_cached, compile_with, partition_strategies, EngineConfig, EngineOutcome, SolutionCache,
};
use fermihedral::EncodingProblem;
use sat::CancelToken;
use std::net::SocketAddr;
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
/// processes. With fewer than 2 shards, a caller-chosen portfolio (a
/// worker builds only its own default lanes), or when no worker can be
/// spawned, this degrades to the in-process [`engine::compile`].
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
    if config.shards < 2 || !config.strategies.is_empty() {
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
        let server = match FleetServer::bind("127.0.0.1:0", FleetOptions::default()) {
            Ok(server) => server,
            Err(e) => {
                telemetry::log_error!(
                    "shard.coordinator",
                    "binding a loopback port failed; racing in-process instead",
                    error = e.to_string(),
                );
                return engine::race_lanes(input, external_cancel, None);
            }
        };
        // One worker per non-empty lane partition.
        let shards = partition_strategies(input.strategies, config.shards).len();
        server.reserve(shards);
        let children = (0..shards)
            .map(|shard| spawn_worker(&worker_bin, server.local_addr(), shard, options))
            .collect();
        let mut link = LocalLink {
            fleet: server.link(external_cancel),
            watched: vec![true; shards],
            children,
        };
        let postmortem_dir = options.postmortem_dir.as_deref();
        race::run_or_race_in_process(&mut link, input, external_cancel, postmortem_dir)
    })
}

/// Spawns the worker that claims seat `shard` at `addr`; `None` when the
/// spawn itself failed.
fn spawn_worker(
    worker_bin: &Path,
    addr: SocketAddr,
    shard: usize,
    options: &ShardOptions,
) -> Option<Child> {
    let spawned = Command::new(worker_bin)
        .args(["worker", "--connect", &addr.to_string()])
        .args(["--shard", &shard.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn();
    match spawned {
        Ok(child) => {
            if let Some(hook) = &options.spawn_hook {
                hook(shard, child.id());
            }
            Some(child)
        }
        Err(e) => {
            telemetry::log_error!(
                "shard.coordinator",
                "spawning worker failed",
                shard = shard,
                error = e.to_string(),
            );
            None
        }
    }
}

/// The loopback fleet of one race, seen as its spawned children.
struct LocalLink<'a> {
    fleet: FleetLink<'a>,
    /// `None` when the spawn failed.
    children: Vec<Option<Child>>,
    /// The child has neither registered nor been reported gone: should it
    /// end, no connection will say so, so its process must.
    watched: Vec<bool>,
}

impl Link for LocalLink<'_> {
    fn muster(&mut self) -> Vec<usize> {
        (0..self.children.len()).collect()
    }

    fn poll(&mut self, timeout: Duration) -> Result<Event, mpsc::RecvTimeoutError> {
        // A child that ends before it registers has no connection to
        // report it; its process does.
        for shard in 0..self.children.len() {
            if self.watched[shard] && self.fleet.registered(shard) {
                self.watched[shard] = false;
            }
            let child = &mut self.children[shard];
            if self.watched[shard]
                && child
                    .as_mut()
                    .is_none_or(|c| !matches!(c.try_wait(), Ok(None)))
            {
                self.watched[shard] = false;
                return Ok(Event::Gone {
                    shard,
                    generation: 0,
                });
            }
        }
        loop {
            match self.fleet.poll(timeout) {
                // Only the spawned children hold seats, each once.
                Ok(Event::Joined { shard, rejoin }) if rejoin || shard >= self.children.len() => {}
                event => return event,
            }
        }
    }

    fn send(&mut self, shard: usize, frame: &Frame) -> Sent {
        self.fleet.send(shard, frame)
    }

    fn disconnect(&mut self, shard: usize) {
        if let Some(child) = &mut self.children[shard] {
            let _ = child.kill();
        }
    }

    fn generation(&self, shard: usize) -> u64 {
        self.fleet.generation(shard)
    }

    fn close(&mut self, shard: usize) -> Option<PeerExit> {
        let child = self.children[shard].as_mut()?;
        if self.fleet.connected(shard) {
            // Idle in its session, waiting for a next job: no verdict.
            let _ = child.kill();
            let _ = child.wait();
            return None;
        }
        let deadline = Instant::now() + REAP_GRACE;
        // Poll from 0.5 ms, doubling up to 10 ms: a worker that exits
        // promptly is reaped promptly, not on the next 10 ms step.
        let mut backoff = Duration::from_micros(500);
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(Duration::from_millis(10));
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
