//! The two server workloads: a closed loop of keep-alive clients against
//! an in-process `serve::start`, on a warm cache (`serve_hit`) and on
//! never-seen problems (`serve_miss`).

use crate::gen::{self, MissProblem, HIT_BODIES, MISS_MODES};
use crate::oracle::{self, Expected};
use crate::run::{
    cpu_seconds, end_to_end, finish_traced, probe_median_s, timed_setup, Metrics, RunResult,
    RunSpec,
};
use crate::trace::{self, Tracer, OP_SPAN};
use crate::workloads::probe_engine_layers;
use engine::{EngineConfig, Fingerprint, SizeIndex, SolutionCache};
use fermihedral::{EncodingProblem, Objective};
use jsonkit::Value;
use serve::client::Client;
use serve::{ServeConfig, ServerHandle};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Which server workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    /// Repeated keys on a warm cache.
    Hit,
    /// Distinct keys on a cold cache.
    Miss,
}

/// Load connections: closed loop, one request in flight on each. Never
/// more than the cores the box has, so the generator does not queue
/// behind the server it drives.
fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// A directory for cache files, next to the running binary: inside the
/// build directory, so inside the checkout and ignored by git.
fn scratch_dir(label: &str) -> PathBuf {
    let base = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_else(std::env::temp_dir);
    base.join(format!("ledger-scratch-{}-{label}", std::process::id()))
}

/// One request of the load: its body, and what the oracle needs to judge
/// the answer.
struct Request<'a> {
    body: &'a str,
    modes: usize,
    monomials: Option<&'a [Vec<u32>]>,
    expected_weight: Option<usize>,
}

/// A started server with its load connections; stops the server and
/// removes its cache when dropped.
struct Server {
    handle: ServerHandle,
    cache_dir: PathBuf,
    connections: Vec<Client>,
}

impl Drop for Server {
    fn drop(&mut self) {
        self.connections.clear();
        self.handle.shutdown();
        self.handle.join();
        let _ = std::fs::remove_dir_all(&self.cache_dir);
    }
}

fn post(conn: &mut Client, body: &str) -> Result<Value, String> {
    match conn.request("POST", "/v1/compile", Some(body)) {
        Ok((200, doc)) => Ok(doc),
        Ok((status, doc)) => Err(format!("status {status}: {}", doc.to_json_compact())),
        Err(e) => Err(format!("transport: {e}")),
    }
}

/// Problems at the end of the `serve_miss` order that warm the server up
/// and that the load therefore never sends.
const MISS_WARMUP: usize = 16;

/// Starts a server with default settings and a fresh cache, warms what
/// the workload wants warm, and opens the load connections.
fn start(kind: ServeKind, problems: &[MissProblem], quick: bool) -> Server {
    let cache_dir = scratch_dir("cache");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let handle = serve::start(ServeConfig {
        engine: EngineConfig {
            cache_dir: Some(cache_dir.clone()),
            ..EngineConfig::default()
        },
        ..ServeConfig::default()
    })
    .expect("server starts on an ephemeral port");
    let connect = || Client::connect(handle.local_addr()).expect("connect to the local server");

    let mut warm = connect();
    match kind {
        // The cache is what is warm: every popular problem solved once.
        ServeKind::Hit => {
            for (_, body) in HIT_BODIES {
                post(&mut warm, body).expect("warm-up compile succeeds");
            }
        }
        // The cache stays cold; threads, allocator and queue are warm.
        ServeKind::Miss => {
            let warmup = if quick { 2 } else { MISS_WARMUP };
            for problem in problems.iter().rev().take(warmup) {
                post(&mut warm, &problem.body).expect("warm-up compile succeeds");
            }
        }
    }
    let connections = (0..clients()).map(|_| connect()).collect();
    Server {
        handle,
        cache_dir,
        connections,
    }
}

/// Server-side counters read over `GET /metrics?format=json`.
#[derive(Debug, Clone, Copy, Default)]
struct ServerCounters {
    compile_count: f64,
    compile_sum_s: f64,
    queue_wait_count: f64,
    queue_wait_sum_s: f64,
    fast_path: f64,
    coalesced: f64,
    rejections: f64,
    cache_misses: f64,
    cache_stores: f64,
}

impl ServerCounters {
    fn read(server: &Server) -> ServerCounters {
        let (_, doc) = Client::connect(server.handle.local_addr())
            .and_then(|mut c| c.request("GET", "/metrics?format=json", None))
            .expect("metrics endpoint answers");
        let num = |path: &[&str]| -> f64 {
            path.iter()
                .try_fold(&doc, |v, key| v.get(key))
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        };
        ServerCounters {
            compile_count: num(&["latency", "compile_ms", "count"]),
            compile_sum_s: num(&["latency", "compile_ms", "sum_ms"]) / 1e3,
            queue_wait_count: num(&["latency", "queue_wait_ms", "count"]),
            queue_wait_sum_s: num(&["latency", "queue_wait_ms", "sum_ms"]) / 1e3,
            fast_path: num(&["solves", "cache_fast_path"]),
            coalesced: num(&["solves", "coalesced_requests"]),
            rejections: num(&["queue", "rejections"]),
            cache_misses: num(&["cache", "misses"]),
            cache_stores: num(&["cache", "stores"]),
        }
    }

    fn zip(self, other: ServerCounters, f: fn(f64, f64) -> f64) -> ServerCounters {
        ServerCounters {
            compile_count: f(self.compile_count, other.compile_count),
            compile_sum_s: f(self.compile_sum_s, other.compile_sum_s),
            queue_wait_count: f(self.queue_wait_count, other.queue_wait_count),
            queue_wait_sum_s: f(self.queue_wait_sum_s, other.queue_wait_sum_s),
            fast_path: f(self.fast_path, other.fast_path),
            coalesced: f(self.coalesced, other.coalesced),
            rejections: f(self.rejections, other.rejections),
            cache_misses: f(self.cache_misses, other.cache_misses),
            cache_stores: f(self.cache_stores, other.cache_stores),
        }
    }
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    /// Requests sent so far, over all rounds.
    sent: usize,
    untraced: Vec<f64>,
    traced: Vec<f64>,
    failures: Vec<String>,
    weight_gap: i64,
    /// One response document, for the serialization probes.
    last_response: Option<Value>,
}

/// Judges one answer against the oracle.
fn judge(
    kind: ServeKind,
    request: &Request<'_>,
    answer: Result<Value, String>,
    tracer: Option<&Tracer>,
    log: &mut ClientLog,
) {
    let verdict = answer.and_then(|doc| {
        let flag = |key: &str| doc.get(key).and_then(Value::as_bool);
        if flag("optimal") != Some(true) {
            return Err("answer is not marked optimal".to_string());
        }
        if flag("from_cache") != Some(kind == ServeKind::Hit) {
            return Err(format!("from_cache is {:?}", flag("from_cache")));
        }
        let weight = doc
            .get("weight")
            .and_then(Value::as_usize)
            .ok_or("answer has no weight")?;
        let strings: Vec<String> = doc
            .get("strings")
            .and_then(Value::as_arr)
            .ok_or("answer has no strings")?
            .iter()
            .filter_map(|s| s.as_str().map(str::to_string))
            .collect();
        oracle::check_encoding(&strings, request.modes, request.monomials, weight, tracer)?;
        log.last_response = Some(doc);
        Ok(weight)
    });
    match (verdict, request.expected_weight) {
        (Ok(weight), Some(expected)) => log.weight_gap += weight as i64 - expected as i64,
        (Ok(_), None) => log
            .failures
            .push("expected.json has no weight for this problem".into()),
        (Err(why), _) => log.failures.push(why),
    }
}

/// Runs `serve_hit` or `serve_miss` under `spec`.
///
/// `serve_miss` has 455 problems and answers some 170 a second, so its
/// window is a sequence of rounds: each round sends every problem once to
/// a server started on an empty cache, and the restart between rounds is
/// not part of the window.
pub fn run_serve(kind: ServeKind, spec: &RunSpec) -> RunResult {
    let ((mut server, problems), setup_s) = timed_setup(spec, || {
        let problems = match kind {
            ServeKind::Hit => Vec::new(),
            ServeKind::Miss => gen::miss_problems(spec.seed),
        };
        (start(kind, &problems, spec.quick), problems)
    });
    let expected = Expected::load();
    let hit_weights = expected.serve_hit_weights();
    // The monomials of the Hamiltonian-shaped `serve_hit` body.
    let hit_pairs = vec![vec![0, 1], vec![2, 3]];
    let golden: Vec<Option<usize>> = problems
        .iter()
        .map(|p| expected.serve_miss_weight(&p.monomials))
        .collect();
    let tracer = Tracer::new();
    let client_count = server.connections.len();
    let round_len = match (kind, spec.quick) {
        (ServeKind::Hit, false) => usize::MAX,
        (ServeKind::Hit, true) => 16 * client_count,
        (ServeKind::Miss, false) => problems.len() - MISS_WARMUP,
        (ServeKind::Miss, true) => 3 * client_count,
    };

    let mut logs: Vec<ClientLog> = (0..client_count).map(|_| ClientLog::default()).collect();
    let mut orders: Vec<_> = (0..client_count)
        .map(|client| gen::hit_order(spec.seed, client))
        .collect();
    let mut server_side = ServerCounters::default();
    let mut window_s = 0.0;
    let mut cpu_s = 0.0;
    loop {
        let before = ServerCounters::read(&server);
        let cpu_start = cpu_seconds();
        let round = Instant::now();
        let deadline = round + Duration::from_secs_f64((spec.seconds - window_s).max(0.0));
        std::thread::scope(|scope| {
            let clients = server
                .connections
                .iter_mut()
                .zip(&mut logs)
                .zip(&mut orders);
            for (client, ((conn, log), order)) in clients.enumerate() {
                let (tracer, problems, hit_weights, hit_pairs, golden) =
                    (&tracer, &problems, &hit_weights, &hit_pairs, &golden);
                scope.spawn(move || {
                    // Each client walks its own stride of the round.
                    for index in (client..round_len).step_by(client_count) {
                        if !spec.quick && Instant::now() >= deadline {
                            break;
                        }
                        let request = match kind {
                            ServeKind::Hit => {
                                let which = order.next().expect("the order is endless");
                                Request {
                                    body: HIT_BODIES[which].1,
                                    modes: HIT_BODIES[which].0,
                                    monomials: (which == 2).then_some(&hit_pairs[..]),
                                    expected_weight: hit_weights.get(which).copied(),
                                }
                            }
                            ServeKind::Miss => Request {
                                body: &problems[index].body,
                                modes: MISS_MODES,
                                monomials: Some(&problems[index].monomials),
                                expected_weight: golden[index],
                            },
                        };
                        let traced = spec.trace && log.sent % 2 == 1;
                        log.sent += 1;
                        let op_tracer = traced.then_some(tracer);
                        let started = Instant::now();
                        let answer = {
                            let _op = trace::span(op_tracer, OP_SPAN);
                            let _request = trace::span(op_tracer, "ledger.serve.request");
                            post(conn, request.body)
                        };
                        let elapsed = started.elapsed().as_secs_f64();
                        if traced {
                            log.traced.push(elapsed);
                        } else {
                            log.untraced.push(elapsed);
                        }
                        judge(kind, &request, answer, op_tracer, log);
                    }
                });
            }
        });
        window_s += round.elapsed().as_secs_f64();
        cpu_s += cpu_seconds() - cpu_start;
        let round_counters =
            ServerCounters::read(&server).zip(before, |after, before| after - before);
        server_side = server_side.zip(round_counters, |total, round| total + round);
        if spec.quick || kind == ServeKind::Hit || window_s >= spec.seconds {
            break;
        }
        drop(server);
        server = start(kind, &problems, spec.quick);
    }

    let mut result = RunResult::default();
    let mut samples: Vec<f64> = Vec::new();
    let mut traced_samples: Vec<f64> = Vec::new();
    // The clients keep pace with each other, so taking their samples in
    // turn puts them in the order they were measured, as `tail` wants.
    let longest = logs.iter().map(|l| l.untraced.len()).max().unwrap_or(0);
    for i in 0..longest {
        samples.extend(logs.iter().filter_map(|l| l.untraced.get(i)));
    }
    for log in &logs {
        traced_samples.extend(&log.traced);
        result.weight_gap += log.weight_gap;
        for why in &log.failures {
            result.reject(why.clone());
        }
    }
    result.attempted = (samples.len() + traced_samples.len()) as u64;
    let ops = result.attempted as f64;

    // Per 1,000 ops so the counts do not depend on how many requests the
    // window held: 1000 means exactly once per request.
    let per_mille = |n: f64| (1_000.0 * n / ops).round() as u64;
    result.counts = [
        (
            "cache_fast_path_per_1000_ops",
            per_mille(server_side.fast_path),
        ),
        (
            "cache_misses_per_1000_ops",
            per_mille(server_side.cache_misses),
        ),
        (
            "cache_stores_per_1000_ops",
            per_mille(server_side.cache_stores),
        ),
    ]
    .into_iter()
    .collect();

    if spec.trace {
        let mut layers = Metrics::new();
        // Means on both sides: the server's histograms give no median.
        let client_mean_s = samples.iter().chain(&traced_samples).sum::<f64>() / ops;
        let server_compile_s = server_side.compile_sum_s / server_side.compile_count.max(1.0);
        layers.insert("serve.api.server_compile_s", server_compile_s);
        layers.insert(
            "serve.queue.wait_s",
            server_side.queue_wait_sum_s / server_side.queue_wait_count.max(1.0),
        );
        layers.insert("serve.http.overhead_s", client_mean_s - server_compile_s);
        layers.insert(
            "serve.coalesce.coalesced_share",
            server_side.coalesced / ops,
        );
        layers.insert("serve.queue.rejected_share", server_side.rejections / ops);
        layers.insert("engine.cache.hits", server_side.fast_path / ops);
        layers.insert("engine.cache.misses", server_side.cache_misses / ops);
        layers.insert("engine.cache.stores", server_side.cache_stores / ops);
        let response = logs.iter().find_map(|l| l.last_response.clone());
        probe_request_layers(kind, &server, &problems, response, &tracer, &mut layers);
        // Only the ledger's own spans: the server has drained the rest.
        let events = tracer.take();
        finish_traced(&mut result, layers, events, &traced_samples, &samples);
    } else {
        (result.end_to_end, result.tail) = end_to_end(&samples, window_s, cpu_s, setup_s);
    }
    result
}

/// An endless walk over `items`, for probes that call a function many
/// times on a handful of inputs.
fn round_robin<'a, T>(items: &'a [T]) -> impl FnMut() -> &'a T {
    let mut walk = items.iter().cycle();
    move || walk.next().expect("probes run on non-empty inputs")
}

/// Times each layer on a request's path by calling its public function on
/// the workload's own inputs: the request bodies, their problems and
/// fingerprints, the server's cache directory, one response document.
fn probe_request_layers(
    kind: ServeKind,
    server: &Server,
    problems: &[MissProblem],
    response: Option<Value>,
    tracer: &Tracer,
    layers: &mut Metrics,
) {
    const BATCHES: usize = 5;
    let bodies: Vec<&str> = match kind {
        ServeKind::Hit => HIT_BODIES.iter().map(|(_, body)| *body).collect(),
        ServeKind::Miss => problems.iter().take(64).map(|p| p.body.as_str()).collect(),
    };
    let mut probe =
        |metric: &'static str, span: &'static str, calls: usize, f: &mut dyn FnMut()| {
            layers.insert(metric, probe_median_s(tracer, span, BATCHES, calls, f));
        };

    if let Ok(mut conn) = Client::connect(server.handle.local_addr()) {
        probe(
            "serve.http.healthz_rtt_s",
            "ledger.serve.http.healthz",
            100,
            &mut || {
                std::hint::black_box(conn.request("GET", "/healthz", None).is_ok());
            },
        );
    }
    let mut body = round_robin(&bodies);
    probe("jsonkit.parse_s", "ledger.jsonkit.parse", 200, &mut || {
        std::hint::black_box(jsonkit::parse(body()).is_ok());
    });
    let docs: Vec<Value> = bodies
        .iter()
        .filter_map(|b| jsonkit::parse(b).ok())
        .collect();
    let mut doc = round_robin(&docs);
    probe(
        "engine.problemio.parse_s",
        "ledger.engine.problemio.parse",
        200,
        &mut || {
            std::hint::black_box(engine::problem_from_json(doc(), Some(8)).is_ok());
        },
    );
    if let Some(response) = &response {
        probe("jsonkit.write_s", "ledger.jsonkit.write", 200, &mut || {
            std::hint::black_box(response.to_json());
        });
    }

    // The cache layers, on the server's own directory: what the window
    // stored are the hits; sizes no workload compiles are the misses.
    let Ok(cache) = SolutionCache::open(&server.cache_dir) else {
        return;
    };
    let known: Vec<(EncodingProblem, Fingerprint)> = docs
        .iter()
        .filter_map(|d| engine::problem_from_json(d, Some(8)).ok())
        .map(|p| {
            let fp = engine::fingerprint(&p);
            (p, fp)
        })
        .filter(|(_, fp)| cache.peek(fp).is_some())
        .collect();
    let unknown: Vec<Fingerprint> = (9..25)
        .map(|modes| engine::fingerprint(&EncodingProblem::new(modes, Objective::MajoranaWeight)))
        .collect();
    let Some((problem, fp)) = known.first() else {
        return;
    };
    let mut hit = round_robin(&known);
    probe(
        "engine.cache.lookup_hit_s",
        "ledger.engine.cache.lookup_hit",
        100,
        &mut || {
            std::hint::black_box(cache.lookup(&hit().1));
        },
    );
    let mut miss = round_robin(&unknown);
    probe(
        "engine.cache.lookup_miss_s",
        "ledger.engine.cache.lookup_miss",
        100,
        &mut || {
            std::hint::black_box(cache.lookup(miss()));
        },
    );
    let scratch = scratch_dir("probe");
    let _ = std::fs::remove_dir_all(&scratch);
    if let (Some(entry), Ok(store)) = (cache.peek(fp), SolutionCache::open(&scratch)) {
        probe(
            "engine.cache.store_s",
            "ledger.engine.cache.store",
            20,
            &mut || {
                std::hint::black_box(store.store(fp, &entry).is_ok());
            },
        );
        // `record` is a no-op for an entry already present, so each call
        // records a fingerprint the index has not seen.
        let index = SizeIndex::open(&scratch);
        let mut fresh = round_robin(&unknown);
        probe(
            "engine.cache.size_index_record_s",
            "ledger.engine.cache.size_index_record",
            20,
            &mut || {
                std::hint::black_box(index.record(problem, fresh()).is_ok());
            },
        );
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let outcome = engine::compile(
        problem,
        &EngineConfig {
            total_timeout: Some(Duration::from_secs(30)),
            ..EngineConfig::default()
        },
    );
    probe_engine_layers(problem, &outcome, tracer, layers);
}
