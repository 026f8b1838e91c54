//! Multi-host integration tests: a real in-process [`FleetServer`]
//! racing real `fermihedral-shard worker --connect` child processes
//! over loopback TCP.
//!
//! * **Acceptance**: two TCP workers race a full-SAT N = 5
//!   Hamiltonian-dependent instance (`fixtures::short_race`), certify
//!   it, and demonstrably trade learnt clauses across the wire.
//! * **Fault injection**: one worker is SIGKILL'd mid-race and restarted
//!   with its shard id; the coordinator must re-admit it to its old seat
//!   (rejoin), hand it the incumbent bound, and still certify. This one
//!   races `fixtures::long_race`, so a kill delay lands mid-race.
//! * **Handshake and job refusals**, each against a raw socket: a peer
//!   speaking another protocol version is refused at `Hello` and never
//!   registers, and a worker handed a `Job` it cannot parse exits
//!   instead of holding its seat until the race's deadline.
//! * **The worker's side of the contract**, against a raw socket too: a
//!   real worker reports its encodings only as `Incumbent` frames that
//!   pass the coordinator's check, never as a bare `Bound`, and flushes
//!   its floor before its `Result`.
//!
//! The races are `fermihedral::fixtures` problems: a Hamiltonian-
//! independent race at N ≤ 5 is decided by the engine's bound consult
//! before any job is sent.

use engine::{check_encoding, default_portfolio, EngineConfig};
use fermihedral::fixtures::{chain, long_race, short_race};
use fermihedral::{EncodingProblem, Objective};
use shard::wire::{write_frame, Frame, FrameRead, FrameReader, HELLO_ANY_SHARD, PROTOCOL_VERSION};
use shard::{
    compile_fleet_with, measure_weight, FleetOptions, FleetServer, IncumbentUpdate, Job,
    ShardResult,
};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_fermihedral-shard"))
}

/// A fleet worker child that is SIGKILL'd (and reaped) on drop, so a
/// failing assertion never leaks processes.
struct Worker(Child);

impl Worker {
    fn spawn(addr: &str, shard: Option<usize>) -> Worker {
        let mut cmd = Command::new(worker_bin());
        cmd.arg("worker").arg("--connect").arg(addr);
        if let Some(shard) = shard {
            cmd.arg("--shard").arg(shard.to_string());
        }
        cmd.stdin(Stdio::null()).stdout(Stdio::null());
        match std::env::var("FLEET_TEST_WORKER_LOGS") {
            Ok(dir) => {
                let path = std::path::Path::new(&dir).join(format!(
                    "worker-{}-{:?}.log",
                    std::process::id(),
                    Instant::now()
                ));
                cmd.env("FERMIHEDRAL_LOG", "debug")
                    .stderr(std::fs::File::create(path).expect("worker log file"));
            }
            Err(_) => {
                cmd.stderr(Stdio::null());
            }
        }
        Worker(cmd.spawn().expect("spawn fleet worker"))
    }

    fn kill(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.kill();
    }
}

fn wait_for_peers(server: &FleetServer, n: usize) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while server.peer_count() < n {
        assert!(
            Instant::now() < deadline,
            "workers never registered: have {}, want {n}",
            server.peer_count()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn fleet_config() -> EngineConfig {
    EngineConfig {
        total_timeout: Some(Duration::from_secs(120)),
        ..EngineConfig::default()
    }
}

fn assert_valid_optimum(problem: &EncodingProblem, outcome: &engine::EngineOutcome, label: &str) {
    assert!(outcome.optimal_proved, "{label}: no certificate");
    let best = outcome.best.as_ref().unwrap_or_else(|| {
        panic!("{label}: optimal without an encoding");
    });
    assert_eq!(best.strings.len(), 2 * problem.num_modes(), "{label}");
    assert_eq!(
        measure_weight(problem, &best.strings),
        best.weight,
        "{label}: reported weight must match the strings"
    );
}

#[test]
fn fleet_race_over_tcp_certifies_the_optimum() {
    let server = FleetServer::bind(
        "127.0.0.1:0",
        FleetOptions {
            min_peers: 2,
            join_timeout: Duration::from_secs(30),
            ..FleetOptions::default()
        },
    )
    .expect("bind loopback fleet");
    let addr = server.local_addr().to_string();

    // Sequential registration pins the shard ids: first in is shard 0.
    let _w0 = Worker::spawn(&addr, None);
    wait_for_peers(&server, 1);
    let _w1 = Worker::spawn(&addr, None);
    wait_for_peers(&server, 2);

    let problem = short_race();
    let outcome = compile_fleet_with(&problem, &fleet_config(), None, None, &server);

    assert_valid_optimum(&problem, &outcome, "fleet short race");
    assert_eq!(
        outcome.best.as_ref().unwrap().weight,
        9,
        "the short race's optimum is 9"
    );
    let shards = &outcome.report.shards;
    assert_eq!(shards.len(), 2, "both TCP workers must hold seats");
    assert!(shards.iter().all(|s| !s.dead), "no seat died: {shards:?}");
    assert!(
        shards.iter().any(|s| s.clauses_sent > 0),
        "no clauses crossed the wire: {shards:?}"
    );
    assert!(
        shards.iter().any(|s| s.clauses_received > 0),
        "no clauses were forwarded between hosts: {shards:?}"
    );
    // Conservation: every forwarded clause was sent by the other shard;
    // late arrivals are dropped, so received can trail sent — never exceed.
    let sent: u64 = shards.iter().map(|s| s.clauses_sent).sum();
    let received: u64 = shards.iter().map(|s| s.clauses_received).sum();
    assert!(received <= sent, "received {received} > sent {sent}");

    // The bound consult proves N=4's opening tree optimal before the
    // race, so the same two workers are handed no `Job`.
    let problem = EncodingProblem::full_sat(4, Objective::MajoranaWeight);
    let outcome = compile_fleet_with(&problem, &fleet_config(), None, None, &server);
    assert_valid_optimum(&problem, &outcome, "decided at open N=4");
    assert_eq!(outcome.weight(), Some(16));
    assert!(
        outcome.report.shards.is_empty(),
        "{:?}",
        outcome.report.shards
    );
    assert!(
        outcome.report.workers.is_empty(),
        "{:?}",
        outcome.report.workers
    );
}

/// One attempt at catching the race mid-flight: kill shard 1 after
/// `delay_ms`, restart it with `--shard 1`, and see whether the
/// coordinator recorded a rejoin. `Err` means the timing missed (the
/// race finished before the replacement re-registered) — retryable.
fn rejoin_attempt(delay_ms: u64) -> Result<(), String> {
    let server = FleetServer::bind(
        "127.0.0.1:0",
        FleetOptions {
            min_peers: 2,
            join_timeout: Duration::from_secs(30),
            // The missing-worker window must outlive kill + respawn.
            heartbeat_deadline: Duration::from_secs(10),
            ..FleetOptions::default()
        },
    )
    .expect("bind loopback fleet");
    let addr = server.local_addr().to_string();

    let _w0 = Worker::spawn(&addr, None);
    wait_for_peers(&server, 1);
    let mut w1 = Worker::spawn(&addr, None);
    wait_for_peers(&server, 2);

    let killer_addr = addr.clone();
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(delay_ms));
        w1.kill();
        Worker::spawn(&killer_addr, Some(1))
    });

    let problem = long_race();
    let outcome = compile_fleet_with(&problem, &fleet_config(), None, None, &server);
    let _replacement = killer.join().expect("killer thread");

    let shards = &outcome.report.shards;
    let seat = shards
        .iter()
        .find(|s| s.shard == 1)
        .ok_or_else(|| format!("shard 1 missing from the report: {shards:?}"))?;
    if seat.rejoins == 0 {
        return Err(format!(
            "race finished before the rejoin at delay {delay_ms}ms: {shards:?}"
        ));
    }
    // From here on the run counts: a recorded rejoin with a bad outcome
    // is a real failure, not a timing miss.
    assert!(!seat.dead, "rejoined worker still marked dead: {shards:?}");
    assert_valid_optimum(&problem, &outcome, "fleet long race with mid-race kill");
    assert_eq!(
        outcome.best.as_ref().unwrap().weight,
        11,
        "kill + rejoin must not cost the certificate"
    );
    Ok(())
}

#[test]
fn killed_fleet_worker_rejoins_and_the_race_still_certifies() {
    // The long race takes about a second; sweep kill delays until one
    // lands mid-race and the replacement re-registers in time.
    let mut misses = Vec::new();
    for delay_ms in [150, 300, 100, 450, 250, 600] {
        match rejoin_attempt(delay_ms) {
            Ok(()) => return,
            Err(miss) => misses.push(miss),
        }
    }
    panic!(
        "no attempt caught the race mid-flight:\n{}",
        misses.join("\n")
    );
}

/// The next frame off `stream`, or `None` at EOF; fails after 10 s of
/// silence.
fn next_frame(stream: &mut TcpStream, reader: &mut FrameReader) -> Option<Frame> {
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .expect("read timeout");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match reader.read(stream).expect("a well-formed stream") {
            FrameRead::Frame { frame, .. } => return Some(frame),
            FrameRead::Eof => return None,
            FrameRead::Idle => assert!(Instant::now() < deadline, "peer silent for 10 s"),
        }
    }
}

#[test]
fn a_peer_speaking_another_protocol_is_refused_at_the_handshake() {
    let server = FleetServer::bind("127.0.0.1:0", FleetOptions::default()).expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let hello = Frame::Hello {
        shard: HELLO_ANY_SHARD,
        protocol: PROTOCOL_VERSION + 1,
    };
    write_frame(&mut stream, &hello).expect("send Hello");
    stream.flush().expect("flush");
    let mut reader = FrameReader::new();
    let refusal = Frame::Welcome {
        shard: HELLO_ANY_SHARD,
        protocol: PROTOCOL_VERSION,
    };
    assert_eq!(next_frame(&mut stream, &mut reader), Some(refusal));
    assert_eq!(next_frame(&mut stream, &mut reader), None, "then EOF");
    assert_eq!(server.peer_count(), 0, "a refused peer never registers");
}

#[test]
fn a_worker_that_cannot_parse_its_job_exits_instead_of_holding_its_seat() {
    // A hand-rolled coordinator: the worker's handshake, then a torn job.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let mut worker = Worker::spawn(&listener.local_addr().unwrap().to_string(), None);
    let (mut stream, _) = listener.accept().expect("the worker connects");
    let mut reader = FrameReader::new();
    match next_frame(&mut stream, &mut reader) {
        Some(Frame::Hello { protocol, .. }) => assert_eq!(protocol, PROTOCOL_VERSION),
        other => panic!("expected Hello, got {other:?}"),
    }
    let welcome = Frame::Welcome {
        shard: 0,
        protocol: PROTOCOL_VERSION,
    };
    write_frame(&mut stream, &welcome).expect("send Welcome");
    write_frame(&mut stream, &Frame::Job(b"not json".to_vec())).expect("send Job");
    stream.flush().expect("flush");

    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = worker.0.try_wait().expect("poll the worker") {
            break status;
        }
        // Dropping `worker` kills it, so a failure here leaks nothing.
        assert!(Instant::now() < deadline, "worker still running after 10 s");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(!status.success(), "a bad job must end the worker: {status}");
}

#[test]
fn a_worker_reports_encodings_only_as_checked_incumbents() {
    // A hand-rolled coordinator: the handshake, one job, then every frame
    // the worker sends up to its `Result`.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let _worker = Worker::spawn(&listener.local_addr().unwrap().to_string(), None);
    let (mut stream, _) = listener.accept().expect("the worker connects");
    let mut reader = FrameReader::new();
    assert!(matches!(
        next_frame(&mut stream, &mut reader),
        Some(Frame::Hello { .. })
    ));
    let welcome = Frame::Welcome {
        shard: 0,
        protocol: PROTOCOL_VERSION,
    };
    write_frame(&mut stream, &welcome).expect("send Welcome");
    // γ₀γ₁ + γ₂γ₃ + γ₀γ₃ at N=4: optimum 4, and a race the bound does not
    // decide, so every lane runs.
    let problem = chain(4);
    let job = Job {
        shard: 0,
        total_shards: 1,
        fingerprint: engine::fingerprint(&problem).to_hex(),
        strategies: default_portfolio(&problem),
        problem: problem.clone(),
        total_timeout: Some(Duration::from_secs(60)),
        warm_hint: None,
        trace_id: None,
    };
    write_frame(&mut stream, &Frame::Job(job.to_bytes())).expect("send Job");
    stream.flush().expect("flush");

    let mut kinds = Vec::new();
    let mut weights = Vec::new();
    let mut floors = Vec::new();
    let result = loop {
        let frame = next_frame(&mut stream, &mut reader).expect("a Result before EOF");
        kinds.push(frame.kind());
        match frame {
            Frame::Incumbent(payload) => {
                let update = IncumbentUpdate::from_bytes(&payload).expect("a whole incumbent");
                let weight = check_encoding(&problem, &update.strings);
                weights.push(weight.expect("every incumbent passes the check"));
            }
            Frame::Floor(floor) => floors.push(floor),
            Frame::Result(payload) => break ShardResult::from_bytes(&payload).expect("a result"),
            _ => {}
        }
    };
    assert!(
        !kinds.contains(&"bound"),
        "a worker never sends Bound: {kinds:?}"
    );
    assert_eq!(weights.iter().min(), Some(&4), "N=4 optimum: {weights:?}");
    assert!(floors.contains(&4), "Floor(4) before Result: {kinds:?}");
    assert_eq!(
        result.workers.len(),
        job.strategies.len(),
        "one report per lane"
    );
}
