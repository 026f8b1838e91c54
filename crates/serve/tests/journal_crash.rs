//! Crash-replay fault injection for the request journal.
//!
//! The integration half SIGKILLs a real `serve` process mid-batch and
//! restarts a server on the same `--journal-dir`: replay must finish the
//! entries the dead process was holding, until `GET /v1/solution/<fp>`
//! serves every fingerprint of the batch. The property half drives the
//! journal's pure parse/reduce pipeline with torn, truncated, and
//! garbage tails: never a panic, damaged lines only ever *skipped*, and
//! replay idempotent (a second replay of the compacted state yields the
//! same pending set — no duplicate solves).

use jsonkit::Value;
use proptest::prelude::*;
use serve::client::Client;
use serve::journal::{frame, parse_segment, reduce, PendingJob, Record};
use serve::{start, ServeConfig};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn tmp_dir(tag: &str, attempt: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fermihedral-crash-test-{tag}-{attempt}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------------------
// SIGKILL mid-batch, restart, replay
// ---------------------------------------------------------------------------

/// The batch the server dies holding. Small sizes keep both halves of
/// the test (pre-kill progress, post-restart replay) fast.
const BATCH_SIZES: [usize; 3] = [3, 4, 5];

/// The batch's objective, γ₀γ₁ + γ₂γ₃ + γ₄γ₅ + γ₀γ₃ + γ₂γ₅. A
/// Hamiltonian-independent batch at these sizes is decided at the open
/// in about a millisecond an entry; this one races, at about 20 ms,
/// 100 ms and 150 ms per size, so a kill lands while work is pending.
const BATCH_OBJECTIVE: &str = r#"{"hamiltonian": [[0, 1], [2, 3], [4, 5], [0, 3], [2, 5]]}"#;

fn batch_fingerprints() -> Vec<String> {
    BATCH_SIZES
        .iter()
        .map(|modes| {
            let doc = jsonkit::parse(&format!(
                r#"{{"modes": {modes}, "objective": {BATCH_OBJECTIVE}}}"#
            ))
            .unwrap();
            let problem = engine::problem_from_json(&doc, None).unwrap();
            engine::fingerprint(&problem).to_hex()
        })
        .collect()
}

fn spawn_server(journal_dir: &Path, cache_dir: &Path) -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--journal-dir",
            journal_dir.to_str().unwrap(),
            "--cache-dir",
            cache_dir.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve binary");
    // The CI smoke test parses this same stable line.
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve exited before announcing its address")
            .expect("readable stdout");
        if let Some(rest) = line.strip_prefix("fermihedral-serve listening on http://") {
            break rest.trim().parse().expect("parseable address");
        }
    };
    (child, addr)
}

/// Journal state as (dones, pending) — parsed with the same pure
/// functions the server replays through.
fn journal_state(journal_dir: &Path) -> (usize, usize) {
    let mut records = Vec::new();
    if let Ok(entries) = std::fs::read_dir(journal_dir) {
        let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        paths.sort();
        for path in paths {
            let bytes = std::fs::read(&path).unwrap_or_default();
            records.extend(parse_segment(&bytes).0);
        }
    }
    let dones = records
        .iter()
        .filter(|r| matches!(r, Record::Done { .. }))
        .count();
    (dones, reduce(&records).len())
}

/// One kill attempt: true when the SIGKILL landed while work was still
/// pending (the interesting state); false when the batch outran us.
fn killed_mid_batch(journal_dir: &Path, cache_dir: &Path) -> bool {
    let (mut child, addr) = spawn_server(journal_dir, cache_dir);
    let client = std::thread::spawn(move || {
        // The server dies mid-request; any response or error is fine.
        let body = format!(
            r#"{{"modes": {BATCH_SIZES:?}, "objective": {BATCH_OBJECTIVE}, "deadline_ms": 100000}}"#
        );
        let _ = Client::connect(addr)
            .and_then(|mut c| c.request("POST", "/v1/compile-batch", Some(&body)));
    });

    // Kill as soon as the journal shows real progress (≥1 completion)
    // with work still pending — exactly the torn state replay exists
    // for. Requiring *two* pending entries guarantees at least one of
    // them never solved (at most one entry can sit in the tiny
    // solved-but-completion-record-unwritten window at kill time), so
    // the restarted server must genuinely re-admit work.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut caught = false;
    while Instant::now() < deadline {
        let (dones, pending) = journal_state(journal_dir);
        if dones >= 1 && pending >= 2 {
            caught = true;
            break;
        }
        if dones >= BATCH_SIZES.len() {
            break; // batch finished; this attempt can't exercise replay
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    child.kill().expect("SIGKILL");
    let _ = child.wait();
    let _ = client.join();
    caught
}

#[test]
fn sigkill_mid_batch_then_restart_replays_the_rest() {
    let fingerprints = batch_fingerprints();
    // The kill races the solver; retry with fresh directories until the
    // SIGKILL lands mid-batch (in practice the first attempt does — the
    // larger sizes take far longer than the poll interval).
    let mut dirs = None;
    for attempt in 0..3 {
        let journal_dir = tmp_dir("journal", attempt);
        let cache_dir = tmp_dir("cache", attempt);
        if killed_mid_batch(&journal_dir, &cache_dir) {
            dirs = Some((journal_dir, cache_dir));
            break;
        }
        let _ = std::fs::remove_dir_all(&journal_dir);
        let _ = std::fs::remove_dir_all(&cache_dir);
    }
    let (journal_dir, cache_dir) =
        dirs.expect("SIGKILL never landed mid-batch across three attempts");
    let (_, pending_before) = journal_state(&journal_dir);
    assert!(pending_before >= 1, "kill must leave pending work");

    // Restart on the same journal (in-process this time, for clean
    // shutdown): replay re-admits the pending tail and the workers
    // finish it with no client attached.
    let handle = start(ServeConfig {
        solve_workers: 2,
        journal_dir: Some(journal_dir.to_path_buf()),
        max_deadline: Duration::from_secs(120),
        engine: engine::EngineConfig {
            cache_dir: Some(cache_dir.to_path_buf()),
            ..engine::EngineConfig::default()
        },
        ..ServeConfig::default()
    })
    .expect("restart on the survived journal");
    assert!(
        handle.metrics().journal_replayed.get() >= 1,
        "replay must re-admit the pending entries"
    );
    let addr = handle.local_addr();

    // Every fingerprint of the batch becomes servable: the pre-kill
    // completions from the shared cache, the rest from replay.
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut client = Client::connect(addr).expect("connect");
    for fp in &fingerprints {
        loop {
            let (status, doc) = client
                .request("GET", &format!("/v1/solution/{fp}"), None)
                .expect("GET solution");
            if status == 200 {
                assert!(doc.get("weight").unwrap().as_usize().is_some());
                break;
            }
            assert_eq!(status, 404, "unexpected status: {}", doc.to_json());
            assert!(
                Instant::now() < deadline,
                "replay never finished fingerprint {fp}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    // Replayed completions were journaled: a fresh restart has nothing
    // left pending (replay converged; no duplicate solves on the next
    // boot).
    handle.shutdown();
    handle.join();
    let (_, pending_after) = journal_state(&journal_dir);
    assert_eq!(
        pending_after, 0,
        "journal must be fully retired once replay finished"
    );

    let _ = std::fs::remove_dir_all(&journal_dir);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

// ---------------------------------------------------------------------------
// Property tests over the pure parse/reduce pipeline
// ---------------------------------------------------------------------------

/// Decodes proptest-generated tags into records over a small key pool so
/// admits and dones actually collide.
fn records_from(raw: &[(u8, u8)]) -> Vec<Record> {
    raw.iter()
        .map(|&(kind, key)| {
            let key = format!("{:02x}", key % 8).repeat(32);
            if kind % 3 == 0 {
                Record::Done { key }
            } else {
                Record::Admit(PendingJob {
                    key,
                    tenant: "t".into(),
                    problem: jsonkit::obj([("modes", Value::Num(f64::from(kind % 6) + 2.0))]),
                    deadline_ms: 1000,
                    batch: (kind % 2 == 0).then(|| "batch-x".into()),
                })
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // A segment truncated at any byte, with any garbage appended, parses
    // without panicking; every line before the damage is recovered.
    #[test]
    fn truncated_and_garbage_tails_never_panic(
        raw in proptest::collection::vec((0u8..=255, 0u8..=255), 1..24),
        cut in 0usize..4096,
        garbage in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        let records = records_from(&raw);
        let mut bytes = Vec::new();
        for record in &records {
            bytes.extend_from_slice(frame(record).as_bytes());
        }
        let cut = cut.min(bytes.len());
        let whole_lines = bytes[..cut].iter().filter(|&&b| b == b'\n').count();
        bytes.truncate(cut);
        bytes.extend_from_slice(&garbage);

        let (parsed, _skipped) = parse_segment(&bytes);
        // Lines wholly before the cut survive verbatim (appends are
        // atomic per line); the torn tail and the garbage may only be
        // skipped, never invent records.
        prop_assert!(parsed.len() >= whole_lines);
        prop_assert_eq!(&parsed[..whole_lines], &records[..whole_lines]);
        // Whatever parsed, reducing it must not panic either.
        let _ = reduce(&parsed);
    }

    // Replay is idempotent: compacting the pending set into a fresh
    // segment and replaying that reproduces the same pending set.
    #[test]
    fn double_replay_reproduces_the_pending_set(
        raw in proptest::collection::vec((0u8..=255, 0u8..=255), 0..32),
    ) {
        let records = records_from(&raw);
        let pending = reduce(&records);

        // What Journal::open writes at startup: one admit per pending job.
        let mut compacted = Vec::new();
        for job in &pending {
            compacted.extend_from_slice(frame(&Record::Admit(job.clone())).as_bytes());
        }
        let (replayed, skipped) = parse_segment(&compacted);
        prop_assert_eq!(skipped, 0, "a compacted segment is never damaged");
        let again = reduce(&replayed);
        prop_assert_eq!(again, pending);
    }

    // Every frame round-trips through the parser regardless of content.
    #[test]
    fn frames_round_trip(raw in proptest::collection::vec((0u8..=255, 0u8..=255), 1..8)) {
        for record in records_from(&raw) {
            let line = frame(&record);
            prop_assert_eq!(serve::journal::parse_line(&line), Some(record));
        }
    }
}
