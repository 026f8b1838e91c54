//! `fermihedral-serve`: a long-running compilation server over the
//! portfolio engine.
//!
//! The ROADMAP's north star is serving fermion-to-qubit compilation as a
//! production service. The engine half exists (portfolio racing,
//! cancellation, the content-addressed solution cache); this crate is the
//! service half — a dependency-free HTTP/1.1 server (std `TcpListener` +
//! worker threads; the container offers no async runtime) that turns
//! [`engine::Engine`] into shared infrastructure.
//!
//! # The life of a compile request
//!
//! There is one request path, and every compile takes it:
//!
//! 1. **Parse.** [`api`] turns the body into a problem and a deadline
//!    (`deadline_ms`, defaulted and capped by [`ServeConfig`]); anything
//!    else is a `400` naming the offending field.
//! 2. **Authenticate.** With [`tenant`]s configured, the API key picks the
//!    tenant the job is accounted to (`401` without one); open mode maps
//!    everyone to the anonymous tenant.
//! 3. **Admit.** A proven-optimal cache entry answers on the spot — repeat
//!    traffic never queues. Otherwise the request joins the one in-flight
//!    solve per fingerprint ([`coalesce::Coalescer`]): the first arrival
//!    leads, journals an admit record when a [`journal`] is configured, and
//!    pushes the one job; later arrivals attach to its cell.
//! 4. **Queue.** The job waits in the [`queue::FairQueue`]: per-tenant
//!    quotas and deficit-round-robin dispatch in front of a bounded global
//!    capacity. A refused push answers `429` (or `503` on shutdown)
//!    immediately instead of building unbounded backlog.
//! 5. **Solve.** A worker thread builds the request's engine config once
//!    ([`engine::Engine::request_config`]: the deadline tightens
//!    [`engine::EngineConfig::total_timeout`], a chained warm hint rides
//!    along) and hands it to the race the server was configured with — the
//!    in-process engine, `--shards N` worker processes, or the `--fleet`
//!    of TCP workers. It journals the completion, then completes the cell.
//! 6. **Settle.** Every attached request wakes with the same
//!    [`api::Settled`]: optimal, best-so-far with
//!    `"status": "deadline-exceeded"` when the deadline fired first, shed,
//!    or — when its own deadline passed before the solve's — whatever the
//!    cache holds.
//! 7. **Document.** [`api::compile_document`] renders the `Settled` as the
//!    ten-key compile document, the same for every outcome.
//!
//! `POST /v1/compile-batch` is that path once per size, small→large, plus
//! what only a batch has: every entry journaled up front (a crash mid-batch
//! replays exactly the unfinished tail), one deadline for the whole batch
//! (entries it starves are `"skipped"`, the batch `"partial"`), the
//! warm-start chain (each entry's best encoding lifted to the next size
//! when there is no cache to carry it), and the tallies. A restarted server
//! re-admits its predecessor's journaled-but-unfinished jobs through step
//! 3 before it accepts traffic.
//!
//! Around the path:
//!
//! * **Tenancy** — per-tenant API keys, admission quotas (`max_queued`,
//!   `max_in_flight`) and fair-share scheduling; see [`tenant`] and
//!   [`queue`].
//! * **Journal** — an append-only admit/done log replayed on startup, so a
//!   SIGKILLed server finishes what it had admitted; see [`journal`].
//! * **Graceful shutdown** — [`ServerHandle::shutdown`] stops accepting,
//!   cancels every in-flight solve through its [`sat::CancelToken`], drains
//!   the queue (shedding unstarted jobs with `503`), and joins every
//!   thread.
//! * **Observability** — every compile request records a `serve.request`
//!   root span with queue-wait/solve/serialization child spans beneath the
//!   engine's own race/lane spans; the last trace per fingerprint is
//!   retrievable as Chrome trace JSON via `GET /v1/trace/<fingerprint>`
//!   (and written to [`ServeConfig::trace_dir`] when set). `GET /metrics`
//!   serves Prometheus text exposition (including `build_info` and
//!   `process_uptime_seconds`) by default and the JSON snapshot under
//!   `?format=json`. Every request gets a correlation id — the client's
//!   `x-request-id` or a minted `<pid>-<seq>` — echoed as a response
//!   header, attached to the root span, and stamped on the structured
//!   `serve.access` log line; those Info events also land in the always-on
//!   flight recorder, served live via `GET /v1/flightrecorder`.
//!
//! Endpoints: `POST /v1/compile`, `POST /v1/compile-batch`,
//! `GET /v1/solution/<fingerprint>`, `GET /v1/trace/<fingerprint>`,
//! `GET /v1/flightrecorder`, `GET /healthz`, `GET /metrics`. See [`api`]
//! for the JSON schema and the README for `curl` examples.
//!
//! This file is the server's frame: configuration, [`start`], the accept
//! and connection loops, routing, and the read-only endpoints. The request
//! path above lives in `flow.rs`, the solve worker in `worker.rs`.

pub mod api;
pub mod client;
pub mod coalesce;
mod flow;
pub mod http;
pub mod journal;
pub mod metrics;
pub mod queue;
pub mod tenant;
mod worker;

use crate::coalesce::Coalescer;
use crate::http::{HttpConn, ReadError, Request, Response};
use crate::journal::Journal;
use crate::metrics::Metrics;
use crate::queue::FairQueue;
use crate::tenant::{Tenant, TenantConfig, TenantRegistry};
use engine::{Engine, EngineConfig, Fingerprint};
use jsonkit::{obj, Value};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telemetry::TraceStore;

/// Poll interval of the non-blocking accept loop and of idle keep-alive
/// connections (both check the shutdown flag at this cadence).
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// How many per-fingerprint traces the in-memory store retains for
/// `GET /v1/trace/<fingerprint>` (oldest-inserted evicted first).
const TRACE_STORE_CAPACITY: usize = 64;

/// Request-id sequence (`<pid hex>-<seq hex>`); process-unique, cheap,
/// and grep-friendly across the access log, span attributes, and the
/// flight recorder.
static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

/// The request's correlation id: an `x-request-id` the client sent
/// (sanitized — it is echoed into a response header and log fields), or
/// a freshly minted `<pid hex>-<seq hex>`.
fn request_id(request: &Request) -> String {
    if let Some(id) = request.header("x-request-id") {
        let clean: String = id
            .chars()
            .filter(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_' || *c == '.')
            .take(64)
            .collect();
        if !clean.is_empty() {
            return clean;
        }
    }
    format!(
        "{:x}-{:08x}",
        std::process::id(),
        NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed)
    )
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `"127.0.0.1:7979"`; port 0 picks an ephemeral
    /// port (read it back from [`ServerHandle::local_addr`]).
    pub addr: String,
    /// Solve worker threads (each runs one engine race at a time).
    pub solve_workers: usize,
    /// Admission-queue capacity; beyond it compile requests get `429`.
    pub queue_capacity: usize,
    /// Maximum live connections; beyond it new connections get `503`.
    pub max_connections: usize,
    /// Deadline applied when a request names none.
    pub default_deadline: Duration,
    /// Hard ceiling on any request's deadline.
    pub max_deadline: Duration,
    /// Maximum accepted `Content-Length`.
    pub max_body_bytes: usize,
    /// Maximum accepted `modes` (compile cost grows super-exponentially).
    pub max_modes: usize,
    /// Keep-alive idle timeout before the server closes a connection.
    pub keep_alive_idle: Duration,
    /// When set, each compile request's merged trace is also written to
    /// `<trace_dir>/<fingerprint>.trace.json` as a Chrome trace document.
    pub trace_dir: Option<PathBuf>,
    /// Engine template: portfolio, budgets, cache directory.
    pub engine: EngineConfig,
    /// When set, bind a [`shard::FleetServer`] on this address and
    /// drive solves over registered TCP workers (multi-host sharding)
    /// instead of local threads or pipe workers. With no workers
    /// registered, solves degrade to the in-process engine.
    pub fleet_addr: Option<String>,
    /// Configured tenants. Empty = open mode (every request maps to the
    /// anonymous tenant with unbounded quotas — the pre-tenancy
    /// behavior). Non-empty = compile endpoints require an API key.
    pub tenants: Vec<TenantConfig>,
    /// When set, admitted compile/batch jobs and their completions are
    /// journaled here and replayed on startup (see [`journal`]).
    pub journal_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            solve_workers: 2,
            queue_capacity: 64,
            max_connections: 64,
            default_deadline: Duration::from_secs(10),
            max_deadline: Duration::from_secs(120),
            max_body_bytes: 1024 * 1024,
            max_modes: 8,
            keep_alive_idle: Duration::from_secs(30),
            trace_dir: None,
            engine: EngineConfig::default(),
            fleet_addr: None,
            tenants: Vec::new(),
            journal_dir: None,
        }
    }
}

/// State shared by the accept loop, connection threads, and solve workers.
struct Shared {
    config: ServeConfig,
    engine: Engine,
    metrics: Metrics,
    queue: FairQueue,
    coalescer: Coalescer,
    tenants: TenantRegistry,
    journal: Option<Journal>,
    trace_store: TraceStore,
    shutdown: AtomicBool,
    started: Instant,
    local_addr: SocketAddr,
    /// Multi-host transport, bound when [`ServeConfig::fleet_addr`] is
    /// set: solves race over whatever workers are registered.
    fleet: Option<shard::FleetServer>,
}

impl Shared {
    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// The deadline a request runs under: what it asked for (the default
    /// when it named none), capped at the server's ceiling.
    fn deadline(&self, requested: Option<Duration>) -> Duration {
        let requested = requested.unwrap_or(self.config.default_deadline);
        requested.min(self.config.max_deadline)
    }
}

/// A running server. Dropping the handle does *not* stop the server; call
/// [`shutdown`](ServerHandle::shutdown) then [`join`](ServerHandle::join).
pub struct ServerHandle {
    shared: Arc<Shared>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// The server's metrics (tests and the load generator read these
    /// in-process; HTTP clients use `GET /metrics`).
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Initiates graceful shutdown: stop accepting, close the admission
    /// queue, cancel in-flight solves. Idempotent; returns immediately —
    /// call [`join`](ServerHandle::join) to wait for completion.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.queue.close();
        self.shared.coalescer.cancel_all();
    }

    /// Waits for the accept loop, every worker, and every connection to
    /// finish. Call after [`shutdown`](ServerHandle::shutdown).
    pub fn join(&self) {
        for handle in self.threads.lock().unwrap().drain(..) {
            let _ = handle.join();
        }
        // Connection threads are detached; wait for their counted exits.
        let deadline = Instant::now() + Duration::from_secs(15);
        while self.shared.metrics.connections_active.get() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// Binds and starts a server.
///
/// # Errors
///
/// Propagates bind failures and cache-directory failures.
pub fn start(config: ServeConfig) -> io::Result<ServerHandle> {
    let tenants = TenantRegistry::new(&config.tenants)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let (journal, replay) = match &config.journal_dir {
        Some(dir) => Some(Journal::open(dir)?),
        None => None,
    }
    .unzip();
    let engine = Engine::new(config.engine.clone())?;
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let local_addr = listener.local_addr()?;

    // The server always records: per-request traces back the
    // /v1/trace endpoint, and (when solves are sharded) the same
    // registry merges worker span batches arriving over the bridge.
    telemetry::global().enable();
    if let Some(dir) = &config.trace_dir {
        std::fs::create_dir_all(dir)?;
    }

    let fleet = match &config.fleet_addr {
        Some(addr) => Some(shard::FleetServer::bind(
            addr,
            shard::FleetOptions {
                // A serve fleet never blocks a request waiting for
                // workers: race whoever is registered right now, degrade
                // in-process when nobody is.
                min_peers: 0,
                join_timeout: Duration::ZERO,
                ..shard::FleetOptions::default()
            },
        )?),
        None => None,
    };

    let shared = Arc::new(Shared {
        queue: FairQueue::new(config.queue_capacity),
        coalescer: Coalescer::default(),
        metrics: Metrics::default(),
        tenants,
        journal,
        trace_store: TraceStore::new(TRACE_STORE_CAPACITY),
        shutdown: AtomicBool::new(false),
        started: Instant::now(),
        local_addr,
        engine,
        fleet,
        config,
    });

    // Re-admit journaled-but-unfinished work before accepting traffic:
    // the restarted server finishes what its predecessor was killed
    // holding, and the coalescing map covers those fingerprints again.
    if let Some(report) = replay {
        flow::replay_pending(&shared, report);
    }

    let mut threads = Vec::new();
    for worker in 0..shared.config.solve_workers.max(1) {
        let shared = shared.clone();
        threads.push(
            std::thread::Builder::new()
                .name(format!("serve-worker-{worker}"))
                .spawn(move || worker::worker_loop(&shared))?,
        );
    }
    {
        let shared = shared.clone();
        threads.push(
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(&shared, listener))?,
        );
    }

    Ok(ServerHandle {
        shared,
        threads: Mutex::new(threads),
    })
}

// ---------------------------------------------------------------------------
// Accept loop and connection handling
// ---------------------------------------------------------------------------

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    while !shared.is_shutdown() {
        match listener.accept() {
            Ok((stream, _peer)) => dispatch_connection(shared, stream),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
}

fn dispatch_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let metrics = &shared.metrics;
    let active = metrics.connections_active.get();
    if active >= shared.config.max_connections as i64 {
        // Over the connection cap: shed with 503 without spawning. The
        // write runs under the socket timeout, so a slow client cannot
        // stall the accept loop for long.
        metrics.connections_shed.inc();
        metrics.record_response(503);
        let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
        let mut conn = HttpConn::new(stream);
        let mut response = Response::error(503, "connection limit reached").with_retry_after(1);
        response.keep_alive = false; // the socket is dropped right here
        let _ = conn.write_response(&response);
        return;
    }
    metrics.connections_active.add(1);
    let conn_shared = shared.clone();
    let result = std::thread::Builder::new()
        .name("serve-conn".into())
        .spawn(move || {
            connection_loop(&conn_shared, stream);
            conn_shared.metrics.connections_active.add(-1);
        });
    if result.is_err() {
        shared.metrics.connections_active.add(-1);
    }
}

fn connection_loop(shared: &Arc<Shared>, stream: TcpStream) {
    // Some platforms (BSD/macOS) hand accepted sockets the listener's
    // O_NONBLOCK; this loop relies on the read *timeout* for its idle
    // tick, so force blocking mode first.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let mut conn = HttpConn::new(stream);
    let mut idle_since = Instant::now();

    loop {
        if shared.is_shutdown() {
            return;
        }
        match conn.read_request(shared.config.max_body_bytes) {
            Ok(request) => {
                idle_since = Instant::now();
                shared.metrics.http_requests.inc();
                let rid = request_id(&request);
                let t0 = Instant::now();
                let mut response = handle_request(shared, &request, &rid);
                response
                    .extra_headers
                    .push(("x-request-id".into(), rid.clone()));
                response.keep_alive &= request.keep_alive && !shared.is_shutdown();
                shared.metrics.record_response(response.status);
                telemetry::log_info!(
                    "serve.access",
                    "request",
                    method = request.method.clone(),
                    path = request.path.clone(),
                    status = response.status as u64,
                    elapsed_ms = api::millis(t0.elapsed()),
                    request_id = rid,
                );
                if conn.write_response(&response).is_err() || !response.keep_alive {
                    return;
                }
            }
            Err(ReadError::IdleTick) => {
                if idle_since.elapsed() > shared.config.keep_alive_idle {
                    return;
                }
            }
            Err(ReadError::Closed) | Err(ReadError::Io(_)) => return,
            Err(fatal) => {
                if let Some(response) = fatal.response() {
                    shared.metrics.http_requests.inc();
                    shared.metrics.record_response(response.status);
                    let mut response = response;
                    response.keep_alive = false;
                    let _ = conn.write_response(&response);
                }
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

fn handle_request(shared: &Arc<Shared>, request: &Request, rid: &str) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => handle_healthz(shared),
        ("GET", "/metrics") => handle_metrics(shared, request),
        ("GET", "/v1/flightrecorder") => handle_flightrecorder(),
        ("POST", "/v1/compile") => match authenticate(shared, request) {
            Ok(tenant) => flow::handle_compile(shared, &request.body, rid, tenant),
            Err(response) => response,
        },
        ("POST", "/v1/compile-batch") => match authenticate(shared, request) {
            Ok(tenant) => flow::handle_batch(shared, &request.body, rid, tenant),
            Err(response) => response,
        },
        ("GET", path) if path.starts_with("/v1/solution/") => {
            handle_solution(shared, &path["/v1/solution/".len()..])
        }
        ("GET", path) if path.starts_with("/v1/trace/") => {
            handle_trace(shared, &path["/v1/trace/".len()..])
        }
        (_, "/healthz" | "/metrics" | "/v1/flightrecorder") => {
            Response::error(405, "method not allowed").with_allow("GET")
        }
        (_, "/v1/compile" | "/v1/compile-batch") => {
            Response::error(405, "method not allowed").with_allow("POST")
        }
        (_, path) if path.starts_with("/v1/solution/") || path.starts_with("/v1/trace/") => {
            Response::error(405, "method not allowed").with_allow("GET")
        }
        _ => Response::error(404, "no such endpoint"),
    }
}

/// The request's API key: `x-api-key` verbatim, or `authorization` with a
/// case-insensitive `Bearer ` prefix stripped.
fn request_api_key(request: &Request) -> Option<&str> {
    if let Some(key) = request.header("x-api-key") {
        return Some(key);
    }
    let auth = request.header("authorization")?.trim();
    match auth.get(..7) {
        Some(prefix) if prefix.eq_ignore_ascii_case("bearer ") => Some(auth[7..].trim()),
        _ => Some(auth),
    }
}

/// Maps a compile/batch request to its tenant, or to the 401 that refuses
/// it. Open mode (no configured tenants) always succeeds.
fn authenticate<'a>(shared: &'a Shared, request: &Request) -> Result<&'a Arc<Tenant>, Response> {
    let authenticated = shared.tenants.authenticate(request_api_key(request));
    authenticated.map_err(|e| {
        shared.metrics.auth_failures.inc();
        shared.metrics.bump();
        Response::error(401, e.message())
    })
}

fn handle_healthz(shared: &Arc<Shared>) -> Response {
    let build = telemetry::build_info();
    Response::json(
        200,
        &obj([
            ("status", Value::Str("ok".into())),
            (
                "uptime_ms",
                Value::Num(shared.started.elapsed().as_millis() as f64),
            ),
            ("shutting_down", Value::Bool(shared.is_shutdown())),
            (
                "build",
                obj([
                    ("git_hash", Value::Str(build.git_hash.to_string())),
                    ("rustc", Value::Str(build.rustc.to_string())),
                    ("profile", Value::Str(build.profile.to_string())),
                ]),
            ),
        ]),
    )
}

/// `GET /v1/flightrecorder`: the process's always-on bounded ring of
/// recent log events and span closures — the same payload a dying shard
/// worker checkpoints into its post-mortem, served live for *this*
/// process. Request ids from the access log appear here, so a client
/// can follow its own `x-request-id` into the server's recent history.
fn handle_flightrecorder() -> Response {
    Response::json(
        200,
        &telemetry::recorder::recorder().snapshot().to_json_value(),
    )
}

fn handle_metrics(shared: &Arc<Shared>, request: &Request) -> Response {
    if request.query_has("format", "json") {
        let doc = shared.metrics.to_json(
            shared.started.elapsed(),
            shared.is_shutdown(),
            shared.queue.len(),
            shared.queue.capacity(),
            shared.coalescer.len(),
            shared.engine.cache_counters(),
            shared.tenants.all(),
        );
        return Response::json(200, &doc);
    }
    let text = shared.metrics.to_prometheus(
        shared.started.elapsed(),
        shared.is_shutdown(),
        shared.queue.len(),
        shared.queue.capacity(),
        shared.coalescer.len(),
        shared.engine.cache_counters(),
        shared.tenants.all(),
        telemetry::global().metrics(),
    );
    Response::text(200, "text/plain; version=0.0.4; charset=utf-8", text)
}

fn handle_trace(shared: &Arc<Shared>, fingerprint_hex: &str) -> Response {
    if Fingerprint::from_hex(fingerprint_hex).is_none() {
        return Response::error(400, "fingerprint must be 64 hex characters");
    }
    match shared.trace_store.get(fingerprint_hex) {
        Some(events) => {
            let doc = telemetry::chrome::trace_document(&events, telemetry::global().dropped());
            Response::json(200, &doc)
        }
        None => Response::error(404, "no retained trace for this fingerprint"),
    }
}

fn handle_solution(shared: &Arc<Shared>, fingerprint_hex: &str) -> Response {
    let t0 = Instant::now();
    let Some(fp) = Fingerprint::from_hex(fingerprint_hex) else {
        return Response::error(400, "fingerprint must be 64 hex characters");
    };
    let response = match shared.engine.lookup(&fp) {
        Some(entry) => Response::json(200, &api::solution_response(&fp.to_hex(), &entry)),
        None => Response::error(404, "no cached solution for this fingerprint"),
    };
    shared.metrics.lookup_latency.record(t0.elapsed());
    response
}
