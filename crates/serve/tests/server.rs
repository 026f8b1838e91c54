//! Integration tests driving the compilation server over real TCP.
//!
//! The acceptance test runs eight concurrent clients against one server
//! and checks the full service contract: identical requests coalesce to a
//! single engine solve, cache hits answer in under 50 ms, an exceeded
//! deadline yields a timeout response carrying the best-so-far encoding,
//! and queue overflow sheds load with 429 while the accept loop stays
//! responsive. Graceful shutdown and the HTTP error surface get their own
//! servers.

use jsonkit::Value;
use serve::client::Client;
use serve::{start, ServeConfig, ServerHandle};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Barrier;
use std::time::{Duration, Instant};

fn connect(addr: SocketAddr) -> Client {
    Client::connect(addr).expect("connect")
}

fn get(addr: SocketAddr, path: &str) -> (u16, Value) {
    connect(addr).request("GET", path, None).expect("GET")
}

fn post_compile(addr: SocketAddr, body: &str) -> (u16, Value) {
    connect(addr)
        .request("POST", "/v1/compile", Some(body))
        .expect("POST")
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

fn tmp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fermihedral-serve-test-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_valid_encoding(doc: &Value, modes: usize) {
    let strings = doc
        .get("strings")
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("response carries no strings: {}", doc.to_json()));
    assert_eq!(strings.len(), 2 * modes, "2N Majorana strings");
    let phased: Vec<pauli::PhasedString> = strings
        .iter()
        .map(|s| {
            s.as_str()
                .unwrap()
                .parse::<pauli::PauliString>()
                .expect("parseable Pauli string")
                .into()
        })
        .collect();
    let report = encodings::validate::validate_strings(&phased);
    assert!(report.anticommuting, "returned encoding must anticommute");
    assert!(
        report.algebraically_independent,
        "returned encoding must be independent"
    );
}

/// Condition-variable wait on the server's metrics: tests block on the
/// actual state transition ("a solve is running", "a job was admitted")
/// instead of sleeping fixed intervals that go flaky under load.
fn wait_metric(handle: &ServerHandle, what: &str, pred: impl Fn(&serve::metrics::Metrics) -> bool) {
    assert!(
        handle.metrics().wait_for(Duration::from_secs(20), pred),
        "timed out waiting for: {what}"
    );
}

fn shutdown_and_join(handle: &ServerHandle) {
    handle.shutdown();
    let t0 = Instant::now();
    handle.join();
    assert!(
        t0.elapsed() < Duration::from_secs(15),
        "join hung: {:?}",
        t0.elapsed()
    );
}

// ---------------------------------------------------------------------------
// The acceptance test: ≥ 8 concurrent TCP clients, one server
// ---------------------------------------------------------------------------

#[test]
fn acceptance_eight_concurrent_clients() {
    let cache_dir = tmp_cache("acceptance");
    let handle = start(ServeConfig {
        solve_workers: 1,
        queue_capacity: 1,
        engine: engine::EngineConfig {
            cache_dir: Some(cache_dir.clone()),
            ..engine::EngineConfig::default()
        },
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = handle.local_addr();

    // ---- Phase A: 8 identical concurrent requests → one engine solve ----
    let body = r#"{"modes": 3, "algebraic_independence": true, "deadline_ms": 60000}"#;
    let barrier = Barrier::new(8);
    let responses: Vec<(u16, Value)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    post_compile(addr, body)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut weights = Vec::new();
    for (status, doc) in &responses {
        assert_eq!(*status, 200, "{}", doc.to_json());
        assert_eq!(doc.get("status").unwrap().as_str(), Some("optimal"));
        assert_valid_encoding(doc, 3);
        weights.push(doc.get("weight").unwrap().as_usize().unwrap());
    }
    assert!(
        weights.windows(2).all(|w| w[0] == w[1]),
        "all clients must see the same optimum: {weights:?}"
    );
    let (status, metrics) = get(addr, "/metrics?format=json");
    assert_eq!(status, 200);
    let solves = metrics.get("solves").unwrap();
    assert_eq!(
        solves.get("started").unwrap().as_usize(),
        Some(1),
        "identical requests must coalesce to one solve: {}",
        metrics.to_json()
    );
    let coalesced = solves
        .get("coalesced_requests")
        .unwrap()
        .as_usize()
        .unwrap();
    let fast_path = solves.get("cache_fast_path").unwrap().as_usize().unwrap();
    assert_eq!(
        coalesced + fast_path,
        7,
        "the other 7 clients attach to the leader or hit the cache"
    );

    // ---- Phase B: repeat request is a sub-50 ms cache hit ---------------
    let fingerprint = responses[0]
        .1
        .get("fingerprint")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let cached_latency = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let (status, doc) = post_compile(addr, body);
            let elapsed = t0.elapsed();
            assert_eq!(status, 200);
            assert_eq!(doc.get("from_cache").unwrap().as_bool(), Some(true));
            assert_eq!(doc.get("status").unwrap().as_str(), Some("optimal"));
            elapsed
        })
        .min()
        .unwrap();
    assert!(
        cached_latency < Duration::from_millis(50),
        "cache hit took {cached_latency:?}"
    );
    let (status, doc) = get(addr, &format!("/v1/solution/{fingerprint}"));
    assert_eq!(status, 200);
    assert_eq!(doc.get("optimal").unwrap().as_bool(), Some(true));
    let (status, _) = get(addr, &format!("/v1/solution/{}", "0".repeat(64)));
    assert_eq!(status, 404, "unknown fingerprint");

    // ---- Phase C: exceeded deadline → timeout response with best-so-far -
    let t0 = Instant::now();
    let (status, doc) = post_compile(addr, r#"{"modes": 6, "deadline_ms": 1200}"#);
    let elapsed = t0.elapsed();
    assert_eq!(status, 200, "{}", doc.to_json());
    assert_eq!(
        doc.get("status").unwrap().as_str(),
        Some("deadline-exceeded"),
        "{}",
        doc.to_json()
    );
    assert_eq!(doc.get("optimal").unwrap().as_bool(), Some(false));
    assert_valid_encoding(&doc, 6);
    assert!(
        elapsed < Duration::from_secs(20),
        "deadline ignored: {elapsed:?}"
    );

    // ---- Phase D: queue overflow sheds with 429, accept loop stays live -
    let solves_before = handle.metrics().solves_started.get();
    let occupier =
        std::thread::spawn(move || post_compile(addr, r#"{"modes": 7, "deadline_ms": 5000}"#));
    // Block until the occupier actually holds the (only) solve worker.
    wait_metric(&handle, "occupier reaches the worker", |m| {
        m.solves_started.get() > solves_before && m.active_solves.get() >= 1
    });
    let distinct_bodies = [
        r#"{"modes": 4, "deadline_ms": 5000}"#,
        r#"{"modes": 5, "deadline_ms": 5000}"#,
        r#"{"modes": 4, "vacuum_condition": false, "deadline_ms": 5000}"#,
        r#"{"modes": 5, "vacuum_condition": false, "deadline_ms": 5000}"#,
    ];
    let flood: Vec<(u16, Value)> = std::thread::scope(|scope| {
        let handles: Vec<_> = distinct_bodies
            .iter()
            .map(|b| scope.spawn(move || post_compile(addr, b)))
            .collect();
        // While the worker is occupied and the queue overflows, the accept
        // loop must still answer instantly. Wait for the overflow itself
        // (first 429 recorded), not a guessed interval.
        wait_metric(&handle, "queue overflow sheds a request", |m| {
            m.queue_rejections.get() >= 1
        });
        let t0 = Instant::now();
        let (status, _) = get(addr, "/healthz");
        assert_eq!(status, 200);
        assert!(
            t0.elapsed() < Duration::from_millis(500),
            "healthz stalled behind the queue: {:?}",
            t0.elapsed()
        );
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let shed = flood.iter().filter(|(s, _)| *s == 429).count();
    assert!(
        shed >= 1,
        "queue overflow must shed with 429: {:?}",
        flood.iter().map(|(s, _)| *s).collect::<Vec<_>>()
    );
    for (status, doc) in &flood {
        assert!(
            [200, 429].contains(status),
            "unexpected status {status}: {}",
            doc.to_json()
        );
    }
    let (status, doc) = occupier.join().unwrap();
    assert_eq!(status, 200);
    assert_valid_encoding(&doc, 7);

    let (_, metrics) = get(addr, "/metrics?format=json");
    assert!(
        metrics
            .get("queue")
            .unwrap()
            .get("rejections")
            .unwrap()
            .as_usize()
            .unwrap()
            >= 1
    );
    assert!(
        metrics
            .get("latency")
            .unwrap()
            .get("compile_ms")
            .unwrap()
            .get("count")
            .unwrap()
            .as_usize()
            .unwrap()
            >= 8
    );

    shutdown_and_join(&handle);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

// ---------------------------------------------------------------------------
// Graceful shutdown
// ---------------------------------------------------------------------------

#[test]
fn graceful_shutdown_cancels_inflight_and_sheds_queued() {
    let handle = start(ServeConfig {
        solve_workers: 1,
        queue_capacity: 4,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = handle.local_addr();

    // A long solve occupies the worker; a second distinct job sits queued.
    let inflight =
        std::thread::spawn(move || post_compile(addr, r#"{"modes": 7, "deadline_ms": 60000}"#));
    wait_metric(&handle, "in-flight solve occupies the worker", |m| {
        m.active_solves.get() >= 1
    });
    let queued =
        std::thread::spawn(move || post_compile(addr, r#"{"modes": 6, "deadline_ms": 60000}"#));
    wait_metric(&handle, "second job admitted to the queue", |m| {
        m.jobs_enqueued.get() >= 2
    });

    shutdown_and_join(&handle);

    // The in-flight solve was cancelled and still answered best-so-far.
    let (status, doc) = inflight.join().unwrap();
    assert_eq!(status, 200, "{}", doc.to_json());
    assert!(
        matches!(
            doc.get("status").unwrap().as_str(),
            Some("cancelled") | Some("best-effort")
        ),
        "{}",
        doc.to_json()
    );
    assert_valid_encoding(&doc, 7);

    // The queued job was shed with 503 (it never reached a worker).
    let (status, doc) = queued.join().unwrap();
    assert!(
        status == 503 || (status == 200 && doc.get("status").is_some()),
        "queued job must be shed or cancelled, got {status}: {}",
        doc.to_json()
    );

    // The listener is gone.
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener must be closed after join"
    );
}

// ---------------------------------------------------------------------------
// HTTP protocol surface
// ---------------------------------------------------------------------------

#[test]
fn http_error_surface() {
    let handle = start(ServeConfig {
        max_body_bytes: 2048,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = handle.local_addr();

    // 404 off-path; 405 wrong method (with Allow).
    assert_eq!(get(addr, "/nope").0, 404);
    assert_eq!(
        connect(addr)
            .request("DELETE", "/v1/compile", Some("{}"))
            .expect("DELETE")
            .0,
        405
    );
    assert_eq!(
        connect(addr)
            .request("POST", "/healthz", Some(""))
            .expect("POST")
            .0,
        405
    );

    // 400s: malformed JSON, schema violations, bad fingerprint path.
    assert_eq!(post_compile(addr, "{not json").0, 400);
    assert_eq!(post_compile(addr, r#"{"modes": 0}"#).0, 400);
    assert_eq!(post_compile(addr, r#"{"modes": 3, "bogus": 1}"#).0, 400);
    assert_eq!(get(addr, "/v1/solution/not-hex").0, 400);

    // 413 for oversized declared bodies.
    let huge = format!(r#"{{"modes": 3, "pad": "{}"}}"#, "x".repeat(4096));
    assert_eq!(post_compile(addr, &huge).0, 413);

    // 411 for a POST without Content-Length.
    let (status, _) = connect(addr)
        .raw(b"POST /v1/compile HTTP/1.1\r\nHost: test\r\n\r\n")
        .expect("raw");
    assert_eq!(status, 411);

    // 400 for garbage request lines.
    let (status, _) = connect(addr).raw(b"NONSENSE\r\n\r\n").expect("raw");
    assert_eq!(status, 400);

    shutdown_and_join(&handle);
}

#[test]
fn keep_alive_serves_sequential_requests_on_one_connection() {
    let handle = start(ServeConfig::default()).expect("server starts");
    let addr = handle.local_addr();

    let mut client = connect(addr);
    let (status, doc) = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
    let (status, _) = client.request("GET", "/metrics?format=json", None).unwrap();
    assert_eq!(status, 200);
    let (status, doc) = client
        .request("POST", "/v1/compile", Some(r#"{"modes": 2}"#))
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(doc.get("status").unwrap().as_str(), Some("optimal"));
    assert_valid_encoding(&doc, 2);

    // Metrics saw all three requests on the single connection.
    let (_, metrics) = client.request("GET", "/metrics?format=json", None).unwrap();
    assert!(
        metrics
            .get("http")
            .unwrap()
            .get("requests")
            .unwrap()
            .as_usize()
            .unwrap()
            >= 4
    );
    shutdown_and_join(&handle);
}

/// `algebraic_independence` names only what the paper formula holds; the
/// search formula, and so the optimum and the cache entry, are the same
/// without it.
#[test]
fn independence_flag_shares_one_cache_entry() {
    let cache_dir = tmp_cache("one-formula");
    let handle = start(ServeConfig {
        engine: engine::EngineConfig {
            cache_dir: Some(cache_dir.clone()),
            ..engine::EngineConfig::default()
        },
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = handle.local_addr();
    let fingerprint = |doc: &Value| {
        doc.get("fingerprint")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string()
    };

    let (status, full) = post_compile(addr, r#"{"modes": 3, "algebraic_independence": true}"#);
    assert_eq!(status, 200, "{}", full.to_json());
    assert_eq!(full.get("status").unwrap().as_str(), Some("optimal"));
    let (status, plain) = post_compile(addr, r#"{"modes": 3}"#);
    assert_eq!(status, 200, "{}", plain.to_json());
    assert_eq!(plain.get("from_cache").unwrap().as_bool(), Some(true));
    assert_eq!(fingerprint(&plain), fingerprint(&full));
    assert_eq!(plain.get("weight"), full.get("weight"));
    assert_valid_encoding(&plain, 3);

    shutdown_and_join(&handle);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn a_cache_file_that_lies_is_never_served() {
    // The N=2 optimum's strings in a file that claims weight 5 and a floor
    // meeting it. The fast path must check the strings like the engine
    // does: the answer is the real weight 6, proved by the bound, from a
    // race rather than the file — and the file is repaired.
    let cache_dir = tmp_cache("liar");
    let problem = fermihedral::EncodingProblem::new(2, fermihedral::Objective::MajoranaWeight);
    let fp = engine::fingerprint(&problem);
    let cache = engine::SolutionCache::open(&cache_dir).unwrap();
    let liar = engine::CacheEntry {
        strings: ["IX", "IY", "XZ", "YZ"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect(),
        weight: 5,
        floor: Some(engine::Floor {
            value: 5,
            source: engine::FloorSource::Unsat,
        }),
        strategy: "liar".into(),
    };
    cache.store(&fp, &liar).unwrap();
    let handle = start(ServeConfig {
        engine: engine::EngineConfig {
            cache_dir: Some(cache_dir.clone()),
            ..engine::EngineConfig::default()
        },
        ..ServeConfig::default()
    })
    .expect("server starts");

    let (status, doc) = post_compile(handle.local_addr(), r#"{"modes": 2}"#);
    assert_eq!(status, 200, "{}", doc.to_json());
    let field = |key: &str| doc.get(key).cloned().unwrap_or(Value::Null);
    assert_eq!(
        field("status").as_str(),
        Some("optimal"),
        "{}",
        doc.to_json()
    );
    assert_eq!(field("weight").as_usize(), Some(6));
    assert_eq!(field("floor").as_usize(), Some(6));
    assert_eq!(field("floor_source").as_str(), Some("bound"));
    assert_eq!(field("from_cache").as_bool(), Some(false));
    assert_valid_encoding(&doc, 2);
    let repaired = cache.peek(&fp).expect("the race stored its answer");
    assert_eq!(repaired.weight, 6);
    assert!(repaired.is_optimal());

    shutdown_and_join(&handle);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

// ---------------------------------------------------------------------------
// Observability: Prometheus exposition, per-request traces, trace files
// ---------------------------------------------------------------------------

#[test]
fn observability_prometheus_metrics_and_trace_endpoint() {
    let trace_dir = tmp_cache("traces");
    let handle = start(ServeConfig {
        trace_dir: Some(trace_dir.clone()),
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = handle.local_addr();

    let (status, doc) = post_compile(addr, r#"{"modes": 3, "deadline_ms": 60000}"#);
    assert_eq!(status, 200, "{}", doc.to_json());
    let fingerprint = doc
        .get("fingerprint")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();

    // ---- Prometheus text exposition is the default /metrics format ------
    let (status, text) = connect(addr)
        .request_text("GET", "/metrics", None)
        .expect("scrape");
    assert_eq!(status, 200);
    for family in [
        "# TYPE serve_http_requests_total counter",
        "# TYPE serve_connections_active gauge",
        "# TYPE serve_compile_latency_seconds histogram",
        "# TYPE serve_solves_total counter",
    ] {
        assert!(text.contains(family), "missing `{family}` in:\n{text}");
    }
    // Every non-comment line is `name{labels} value` with a numeric value.
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let value = line.rsplit(' ').next().unwrap();
        assert!(
            value.parse::<f64>().is_ok(),
            "non-numeric sample value in line: {line}"
        );
    }
    assert!(
        text.contains("serve_compile_latency_seconds_bucket{le=\"+Inf\"}"),
        "histogram must end with a +Inf bucket"
    );

    // ---- Per-request trace retrieval ------------------------------------
    let (status, trace) = get(addr, &format!("/v1/trace/{fingerprint}"));
    assert_eq!(status, 200, "{}", trace.to_json());
    let events = trace
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("trace document carries traceEvents");
    assert!(!events.is_empty(), "trace must contain spans");
    let span_names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(Value::as_str))
        .collect();
    assert!(
        span_names.contains(&"serve.request"),
        "root request span missing: {span_names:?}"
    );
    assert!(
        span_names.contains(&"serve.solve"),
        "solve span missing: {span_names:?}"
    );

    // Unknown fingerprint → 404; non-hex → 400.
    let (status, _) = get(addr, &format!("/v1/trace/{}", "0".repeat(64)));
    assert_eq!(status, 404);
    let (status, _) = get(addr, "/v1/trace/not-hex");
    assert_eq!(status, 400);

    // ---- --trace-dir wrote a parseable Chrome trace file ----------------
    let path = trace_dir.join(format!("{fingerprint}.trace.json"));
    let json = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("trace file {} not written: {e}", path.display()));
    let (parsed, _dropped) = telemetry::chrome::parse_trace_json(&json).expect("trace file parses");
    assert!(
        parsed.iter().any(|e| e.name == "serve.request"),
        "trace file must contain the request span"
    );

    shutdown_and_join(&handle);
    let _ = std::fs::remove_dir_all(&trace_dir);
}

// ---------------------------------------------------------------------------
// Observability: request ids, flight recorder, build info
// ---------------------------------------------------------------------------

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

#[test]
fn request_ids_flight_recorder_and_build_info() {
    let handle = start(ServeConfig::default()).expect("server starts");
    let addr = handle.local_addr();
    let mut client = connect(addr);

    // Every response carries an x-request-id; absent a client id the
    // server mints one.
    let (status, headers, _) = client
        .request_with_headers("GET", "/healthz", None, &[])
        .expect("GET /healthz");
    assert_eq!(status, 200);
    let minted = header(&headers, "x-request-id").expect("server must mint a request id");
    assert!(!minted.is_empty());

    // A well-formed client-supplied id is echoed verbatim.
    let (_, headers, _) = client
        .request_with_headers("GET", "/healthz", None, &[("x-request-id", "test-abc.123")])
        .expect("GET with id");
    assert_eq!(header(&headers, "x-request-id"), Some("test-abc.123"));

    // A hostile id is sanitised before echoing (no spaces, no markup).
    let (_, headers, _) = client
        .request_with_headers(
            "GET",
            "/healthz",
            None,
            &[("x-request-id", "evil id<script>!")],
        )
        .expect("GET with hostile id");
    let echoed = header(&headers, "x-request-id").expect("still echoes an id");
    assert!(
        echoed
            .chars()
            .all(|c| { c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' }),
        "unsanitised echo: {echoed:?}"
    );

    // /healthz exposes build provenance.
    let (status, doc) = get(addr, "/healthz");
    assert_eq!(status, 200);
    let build = doc
        .get("build")
        .unwrap_or_else(|| panic!("healthz carries no build object: {}", doc.to_json()));
    for key in ["git_hash", "rustc", "profile"] {
        assert!(
            build.get(key).and_then(Value::as_str).is_some(),
            "build object missing {key}: {}",
            doc.to_json()
        );
    }

    // A compile tagged with a client request id lands in the flight
    // recorder: the admission event carries the id.
    let (status, headers, doc) = client
        .request_with_headers(
            "POST",
            "/v1/compile",
            Some(r#"{"modes": 2, "deadline_ms": 60000}"#),
            &[("x-request-id", "fr-walkthrough-0001")],
        )
        .expect("POST /v1/compile");
    assert_eq!(status, 200, "{}", doc.to_json());
    assert_eq!(
        header(&headers, "x-request-id"),
        Some("fr-walkthrough-0001")
    );

    let (status, snapshot) = get(addr, "/v1/flightrecorder");
    assert_eq!(status, 200);
    assert!(snapshot.get("written").and_then(Value::as_usize).unwrap() >= 1);
    assert!(snapshot.get("capacity").and_then(Value::as_usize).unwrap() >= 1);
    let records = snapshot
        .get("records")
        .and_then(Value::as_arr)
        .expect("snapshot carries records");
    assert!(!records.is_empty(), "flight recorder must not be empty");
    let admitted = records.iter().any(|r| {
        r.get("target").and_then(Value::as_str) == Some("serve.compile")
            && r.get("fields")
                .and_then(|f| f.get("request_id"))
                .and_then(Value::as_str)
                == Some("fr-walkthrough-0001")
    });
    assert!(
        admitted,
        "compile admission with the client request id must be in the ring: {}",
        snapshot.to_json()
    );

    shutdown_and_join(&handle);
}

// ---------------------------------------------------------------------------
// Sharded compilation behind the server front-end
// ---------------------------------------------------------------------------

#[test]
fn sharded_server_certifies_like_the_in_process_one() {
    // The front-end drives `fermihedral-shard` worker processes when
    // `EngineConfig::shards >= 2` (the `--shards N` flag). Same HTTP
    // contract, same certificates — only the lane placement changes.
    if shard::default_worker_bin().is_none() {
        eprintln!("skipping: fermihedral-shard binary not built yet");
        return;
    }
    let handle = start(ServeConfig {
        solve_workers: 1,
        engine: engine::EngineConfig {
            shards: 2,
            ..engine::EngineConfig::default()
        },
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = handle.local_addr();

    let (status, doc) = post_compile(
        addr,
        r#"{"modes": 3, "algebraic_independence": true, "deadline_ms": 60000}"#,
    );
    assert_eq!(status, 200, "{}", doc.to_json());
    assert_eq!(
        doc.get("status").unwrap().as_str(),
        Some("optimal"),
        "{}",
        doc.to_json()
    );
    assert_valid_encoding(&doc, 3);

    let (_, metrics) = get(addr, "/metrics?format=json");
    assert_eq!(
        metrics
            .get("solves")
            .unwrap()
            .get("started")
            .unwrap()
            .as_usize(),
        Some(1)
    );
    shutdown_and_join(&handle);
}
