//! Multi-host integration tests: a real in-process [`FleetServer`]
//! racing real `fermihedral-shard worker --connect` child processes
//! over loopback TCP.
//!
//! * **Acceptance**: two TCP workers race the N = 4 full-SAT instance,
//!   certify the known optimum (total Pauli weight 16), and demonstrably
//!   trade learnt clauses across the wire.
//! * **Fault injection**: one worker is SIGKILL'd mid-race and restarted
//!   with its shard id; the coordinator must re-admit it to its old seat
//!   (rejoin), hand it the incumbent bound, and still certify. This one
//!   races N = 5 (optimum 22): seconds-long, so every kill delay lands
//!   mid-race, where the N = 4 race is over in ~150 ms.

use engine::EngineConfig;
use fermihedral::{EncodingProblem, Objective};
use shard::{compile_fleet_with, measure_weight, FleetOptions, FleetServer};
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

    let problem = EncodingProblem::full_sat(4, Objective::MajoranaWeight);
    let outcome = compile_fleet_with(&problem, &fleet_config(), None, None, &server);

    assert_valid_optimum(&problem, &outcome, "fleet N=4");
    assert_eq!(
        outcome.best.as_ref().unwrap().weight,
        16,
        "N=4 full-SAT optimum is 16"
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

    let problem = EncodingProblem::full_sat(5, Objective::MajoranaWeight);
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
    assert_valid_optimum(&problem, &outcome, "fleet N=5 with mid-race kill");
    assert_eq!(
        outcome.best.as_ref().unwrap().weight,
        22,
        "kill + rejoin must not cost the certificate"
    );
    Ok(())
}

#[test]
fn killed_fleet_worker_rejoins_and_the_race_still_certifies() {
    // Races on this instance take seconds; sweep kill delays until one
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
