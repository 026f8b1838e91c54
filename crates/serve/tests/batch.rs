//! Differential test: `POST /v1/compile-batch` against sequential solo
//! compiles.
//!
//! A batch of one family at sizes 2..4 must certify exactly the weights
//! three solo `/v1/compile` requests certify (optimal weights are unique,
//! so warm-start chaining may only change *how fast* a certificate
//! arrives, never *which* one), and the batch must report at least one
//! cross-size warm start — the SizeIndex chain is the whole point of
//! scheduling small→large. The solo path itself is locked down too: a
//! keyless single request still answers with exactly the legacy response
//! schema, byte-for-byte stable across identical requests.

use jsonkit::Value;
use serve::client::Client;
use serve::{start, ServeConfig, ServerHandle};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const SIZES: [usize; 3] = [2, 3, 4];

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fermihedral-batch-test-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn server(cache_dir: &Path) -> ServerHandle {
    start(ServeConfig {
        solve_workers: 1,
        max_deadline: Duration::from_secs(120),
        engine: engine::EngineConfig {
            cache_dir: Some(cache_dir.to_path_buf()),
            ..engine::EngineConfig::default()
        },
        ..ServeConfig::default()
    })
    .expect("server starts")
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, Value) {
    Client::connect(addr)
        .expect("connect")
        .request("POST", path, Some(body))
        .expect("POST")
}

fn shutdown(handle: &ServerHandle) {
    handle.shutdown();
    let t0 = Instant::now();
    handle.join();
    assert!(t0.elapsed() < Duration::from_secs(15), "join hung");
}

/// The solo `/v1/compile` response schema as shipped before batching —
/// exactly these keys, no more, no fewer.
const LEGACY_KEYS: [&str; 10] = [
    "coalesced",
    "elapsed_ms",
    "fingerprint",
    "from_cache",
    "optimal",
    "status",
    "strings",
    "warm_start",
    "weight",
    "winner",
];

/// The weight of a batch entry's returned strings when they are a valid
/// encoding of the `modes`-mode problem, checked outside the server.
fn entry_encoding_weight(entry: &Value, modes: usize) -> Option<usize> {
    let request = jsonkit::parse(&format!(r#"{{"modes": {modes}}}"#)).unwrap();
    let problem = engine::problem_from_json(&request, None).unwrap();
    let strings = engine::strings_from_json(entry, "strings").ok()??;
    engine::check_encoding(&problem, &strings)
}

fn without_elapsed(doc: &Value) -> Value {
    let mut doc = doc.clone();
    if let Value::Obj(fields) = &mut doc {
        fields.remove("elapsed_ms");
    }
    doc
}

#[test]
fn batch_certifies_the_same_weights_as_sequential_solo_compiles() {
    // ---- Solo baseline: three sequential compiles on their own server --
    let solo_cache = tmp_dir("solo");
    let solo = server(&solo_cache);
    let solo_addr = solo.local_addr();
    let mut solo_weights = Vec::new();
    for modes in SIZES {
        let (status, doc) = post(
            solo_addr,
            "/v1/compile",
            &format!(r#"{{"modes": {modes}, "deadline_ms": 110000}}"#),
        );
        assert_eq!(status, 200, "{}", doc.to_json());
        assert_eq!(
            doc.get("status").unwrap().as_str(),
            Some("optimal"),
            "solo size {modes} must certify: {}",
            doc.to_json()
        );
        // The fresh-solve solo schema is locked to exactly the legacy
        // keys — batching must not perturb the single-compile contract.
        let Value::Obj(fields) = &doc else {
            panic!("compile response must be an object")
        };
        let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
        assert_eq!(keys, LEGACY_KEYS, "solo response schema changed");
        solo_weights.push(doc.get("weight").unwrap().as_usize().unwrap());
    }

    // Identical repeat requests (cache fast path both times) answer
    // byte-for-byte identically, modulo only the elapsed clock.
    let (_, first) = post(solo_addr, "/v1/compile", r#"{"modes": 2}"#);
    let (_, second) = post(solo_addr, "/v1/compile", r#"{"modes": 2}"#);
    assert_eq!(first.get("from_cache").unwrap().as_bool(), Some(true));
    assert_eq!(
        without_elapsed(&first).to_json(),
        without_elapsed(&second).to_json(),
        "identical solo requests must serialize identically"
    );
    shutdown(&solo);

    // ---- Batch: same family, one request, fresh cache ------------------
    let batch_cache = tmp_dir("batch");
    let batch = server(&batch_cache);
    let batch_addr = batch.local_addr();
    let (status, doc) = post(
        batch_addr,
        "/v1/compile-batch",
        r#"{"modes": [4, 2, 3], "deadline_ms": 110000}"#,
    );
    assert_eq!(status, 200, "{}", doc.to_json());
    assert_eq!(
        doc.get("status").unwrap().as_str(),
        Some("complete"),
        "{}",
        doc.to_json()
    );
    let entries = doc.get("entries").and_then(Value::as_arr).unwrap();
    assert_eq!(entries.len(), SIZES.len());

    let mut batch_weights = Vec::new();
    for (entry, modes) in entries.iter().zip(SIZES) {
        assert_eq!(
            entry.get("modes").unwrap().as_usize(),
            Some(modes),
            "entries must come back sorted small→large: {}",
            doc.to_json()
        );
        assert_eq!(
            entry.get("status").unwrap().as_str(),
            Some("optimal"),
            "batch entry {modes} must certify: {}",
            entry.to_json()
        );
        let weight = entry.get("weight").unwrap().as_usize().unwrap();
        assert_eq!(
            entry_encoding_weight(entry, modes),
            Some(weight),
            "batch entry {modes} must carry a valid encoding of its weight: {}",
            entry.to_json()
        );
        batch_weights.push(weight);
    }
    assert_eq!(
        batch_weights, solo_weights,
        "batch and solo must certify identical optimal weights"
    );

    // The chain really chained: at least one entry was warm-started from
    // a smaller sibling through the SizeIndex.
    let cross_size = doc
        .get("cross_size_warm_starts")
        .unwrap()
        .as_usize()
        .unwrap();
    assert!(
        cross_size >= 1,
        "no cross-size warm start in batch: {}",
        doc.to_json()
    );
    let warm_sources: Vec<&str> = entries
        .iter()
        .filter_map(|e| e.get("warm_start"))
        .filter_map(|w| w.get("source"))
        .filter_map(Value::as_str)
        .collect();
    assert!(
        warm_sources.contains(&"cross-size"),
        "some entry must carry cross-size warm-start provenance: {}",
        doc.to_json()
    );
    assert_eq!(
        batch.metrics().batch_warm_starts.get() as usize,
        cross_size,
        "metrics must agree with the response"
    );
    assert!(batch.metrics().batches.get() >= 1);
    assert!(batch.metrics().batch_entries.get() >= SIZES.len() as u64);

    // Repeating the batch is all cache fast path — still complete, still
    // the same weights.
    let (status, again) = post(
        batch_addr,
        "/v1/compile-batch",
        r#"{"modes": [4, 2, 3], "deadline_ms": 110000}"#,
    );
    assert_eq!(status, 200);
    assert_eq!(again.get("status").unwrap().as_str(), Some("complete"));
    let repeat_weights: Vec<usize> = again
        .get("entries")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|e| e.get("weight").unwrap().as_usize().unwrap())
        .collect();
    assert_eq!(repeat_weights, batch_weights);

    shutdown(&batch);
    let _ = std::fs::remove_dir_all(&solo_cache);
    let _ = std::fs::remove_dir_all(&batch_cache);
}

#[test]
fn batch_requests_are_validated() {
    let handle = start(ServeConfig::default()).expect("server starts");
    let addr = handle.local_addr();
    for (body, needle) in [
        (r#"{"modes": 3}"#, "array"),
        (r#"{"modes": []}"#, "at least one"),
        (r#"{"modes": [0]}"#, "positive"),
        (r#"{"modes": [99]}"#, "limit"),
        (r#"{"modes": [2], "bogus": 1}"#, "unknown field"),
    ] {
        let (status, doc) = post(addr, "/v1/compile-batch", body);
        assert_eq!(status, 400, "{body}: {}", doc.to_json());
        let error = doc.get("error").unwrap().as_str().unwrap();
        assert!(
            error.contains(needle),
            "{body}: error {error:?} should mention {needle:?}"
        );
    }
    // Wrong method gets 405 with Allow.
    let (status, _) = Client::connect(addr)
        .unwrap()
        .request("GET", "/v1/compile-batch", None)
        .unwrap();
    assert_eq!(status, 405);
    shutdown(&handle);
}

// ---------------------------------------------------------------------------
// One request path: a batch entry is the solo document plus `modes`
// ---------------------------------------------------------------------------

/// [`server`] racing one deterministic descent lane, so two servers solving
/// the same problem report the same winner and the same strings.
fn single_lane_server(cache_dir: &Path) -> ServerHandle {
    start(ServeConfig {
        solve_workers: 1,
        engine: engine::EngineConfig {
            cache_dir: Some(cache_dir.to_path_buf()),
            strategies: vec![engine::Strategy::SatDescent {
                seed: 1,
                random_branch: 0.0,
                bk_phase_hint: true,
                restart: sat::RestartPolicyKind::default(),
                export_lbd: sat::ExportLbd::default(),
            }],
            ..engine::EngineConfig::default()
        },
        ..ServeConfig::default()
    })
    .expect("server starts")
}

fn entries_of(batch: &Value) -> &[Value] {
    batch.get("entries").and_then(Value::as_arr).unwrap()
}

/// The entry minus the two fields a batch is allowed to differ in.
fn as_solo_document(entry: &Value) -> Value {
    let mut doc = without_elapsed(entry);
    if let Value::Obj(fields) = &mut doc {
        fields.remove("modes");
    }
    doc
}

#[test]
fn batch_of_one_answers_the_solo_document() {
    let solo_cache = tmp_dir("twin-solo");
    let batch_cache = tmp_dir("twin-batch");
    let solo = single_lane_server(&solo_cache);
    let batch = single_lane_server(&batch_cache);
    // Round one solves fresh on both twins, round two is the cache fast
    // path on both.
    for round in ["fresh", "cached"] {
        let (status, solo_doc) = post(solo.local_addr(), "/v1/compile", r#"{"modes": 3}"#);
        assert_eq!(status, 200, "{}", solo_doc.to_json());
        let (status, batch_doc) =
            post(batch.local_addr(), "/v1/compile-batch", r#"{"modes": [3]}"#);
        assert_eq!(status, 200, "{}", batch_doc.to_json());
        let entries = entries_of(&batch_doc);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].get("modes").unwrap().as_usize(), Some(3));
        assert_eq!(
            solo_doc.get("from_cache").unwrap().as_bool(),
            Some(round == "cached")
        );
        assert_eq!(
            as_solo_document(&entries[0]).to_json(),
            without_elapsed(&solo_doc).to_json(),
            "{round}: a batch entry must be the solo document plus \"modes\""
        );
    }
    shutdown(&solo);
    shutdown(&batch);
    let _ = std::fs::remove_dir_all(&solo_cache);
    let _ = std::fs::remove_dir_all(&batch_cache);
}

/// Asserts `entry` carries exactly the legacy compile keys plus `modes`
/// (and `extra`), and the given status. An entry answered from the cache
/// names the lane that found it `strategy` (the cache entry's field, as
/// `GET /v1/solution` serves it) where a race names its `winner`.
fn assert_entry_schema(entry: &Value, status: &str, cached: bool, extra: &[&str]) {
    let Value::Obj(fields) = entry else {
        panic!("batch entry must be an object")
    };
    let mut expected: Vec<&str> = LEGACY_KEYS
        .iter()
        .map(|&key| match key {
            "winner" if cached => "strategy",
            key => key,
        })
        .chain(["modes"])
        .chain(extra.iter().copied())
        .collect();
    expected.sort_unstable();
    let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
    assert_eq!(keys, expected, "{status} entry: {}", entry.to_json());
    assert_eq!(
        entry.get("status").unwrap().as_str(),
        Some(status),
        "{}",
        entry.to_json()
    );
    assert_eq!(entry.get("from_cache").unwrap().as_bool(), Some(cached));
}

#[test]
fn every_batch_entry_outcome_carries_the_compile_document() {
    let cache = tmp_dir("schema");
    let handle = server(&cache);
    let addr = handle.local_addr();

    // Fresh solve, then the cache fast path.
    let (_, fresh) = post(addr, "/v1/compile-batch", r#"{"modes": [2]}"#);
    assert_entry_schema(&entries_of(&fresh)[0], "optimal", false, &[]);
    let (_, cached) = post(addr, "/v1/compile-batch", r#"{"modes": [2]}"#);
    assert_entry_schema(&entries_of(&cached)[0], "optimal", true, &[]);

    // Deadline-exceeded with best-so-far, and the entry the deadline
    // starved: six modes cannot certify in 300 ms, and by the time that
    // entry answers the batch deadline has passed.
    let (_, starved) = post(
        addr,
        "/v1/compile-batch",
        r#"{"modes": [6, 7], "deadline_ms": 300}"#,
    );
    assert_eq!(starved.get("status").unwrap().as_str(), Some("partial"));
    let entries = entries_of(&starved);
    assert_entry_schema(&entries[0], "deadline-exceeded", false, &[]);
    assert!(
        entries[0].get("strings").unwrap().as_arr().is_some(),
        "deadline-exceeded must carry best-so-far: {}",
        entries[0].to_json()
    );
    assert_entry_schema(&entries[1], "skipped", false, &[]);

    // Coalesced follower: a solo compile leads the solve, the batch entry
    // for the same problem attaches to it.
    let solves_before = handle.metrics().solves_started.get();
    let leader = std::thread::spawn(move || {
        post(addr, "/v1/compile", r#"{"modes": 6, "deadline_ms": 1500}"#)
    });
    let t0 = Instant::now();
    while handle.metrics().solves_started.get() == solves_before {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "leader never started"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let (_, follower) = post(
        addr,
        "/v1/compile-batch",
        r#"{"modes": [6], "deadline_ms": 5000}"#,
    );
    leader.join().unwrap();
    let entry = &entries_of(&follower)[0];
    assert_entry_schema(entry, "deadline-exceeded", false, &[]);
    assert_eq!(
        entry.get("coalesced").unwrap().as_bool(),
        Some(true),
        "{}",
        entry.to_json()
    );

    shutdown(&handle);
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn shed_batch_entry_carries_the_compile_document_and_its_error() {
    // A tenant that may queue nothing: every admission is a deterministic
    // per-tenant 429.
    let handle = start(ServeConfig {
        tenants: vec![serve::tenant::TenantConfig::parse("alpha:alpha-key:1:0").unwrap()],
        ..ServeConfig::default()
    })
    .expect("server starts");
    let (status, doc) = Client::connect(handle.local_addr())
        .expect("connect")
        .with_api_key("alpha-key")
        .request("POST", "/v1/compile-batch", Some(r#"{"modes": [2]}"#))
        .expect("POST");
    assert_eq!(status, 200, "{}", doc.to_json());
    assert_eq!(doc.get("status").unwrap().as_str(), Some("partial"));
    let entry = &entries_of(&doc)[0];
    assert_entry_schema(entry, "shed", false, &["error", "http_status"]);
    assert_eq!(entry.get("http_status").unwrap().as_usize(), Some(429));
    assert!(entry
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("quota"));
    assert_eq!(entry.get("optimal").unwrap().as_bool(), Some(false));
    assert!(matches!(entry.get("strings"), Some(Value::Null)));
    shutdown(&handle);
}

/// The size-3 entry of a `[2, 3]` batch on a cache-less server.
fn chained_entry(engine: engine::EngineConfig) -> Value {
    let handle = start(ServeConfig {
        solve_workers: 1,
        engine,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let (status, doc) = post(
        handle.local_addr(),
        "/v1/compile-batch",
        r#"{"modes": [2, 3], "deadline_ms": 60000}"#,
    );
    assert_eq!(status, 200, "{}", doc.to_json());
    assert_eq!(doc.get("status").unwrap().as_str(), Some("complete"));
    let entry = entries_of(&doc)[1].clone();
    shutdown(&handle);
    entry
}

#[test]
fn chained_warm_hint_reaches_every_race() {
    // Without a cache there is no SizeIndex: the batch itself hands the
    // size-2 optimum, lifted to size 3, to the next solve — whichever
    // race the server was configured with.
    let source_of = |entry: &Value| {
        entry
            .get("warm_start")
            .and_then(|w| w.get("source"))
            .and_then(Value::as_str)
            .map(str::to_string)
    };
    let in_process = chained_entry(engine::EngineConfig::default());
    assert_eq!(
        source_of(&in_process).as_deref(),
        Some("config"),
        "in-process: {}",
        in_process.to_json()
    );
    if shard::default_worker_bin().is_none() {
        eprintln!("skipping the sharded half: fermihedral-shard binary not built yet");
        return;
    }
    let sharded = chained_entry(engine::EngineConfig {
        shards: 2,
        ..engine::EngineConfig::default()
    });
    assert_eq!(
        source_of(&sharded).as_deref(),
        Some("config"),
        "shards = 2: {}",
        sharded.to_json()
    );
}
