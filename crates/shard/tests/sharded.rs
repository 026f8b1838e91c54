//! Cross-process integration tests: real `fermihedral-shard worker`
//! children on a loopback fleet, real SIGKILL.
//!
//! * **Differential**: the 2-process sharded engine and the in-process
//!   portfolio must certify the same optimal Pauli weight on full-SAT
//!   Hamiltonian-dependent instances at N = 4 and 5, and decide the same
//!   N = 3 one at the open.
//! * **Fault injection**: one worker is frozen at spawn (SIGSTOP — it
//!   can never report a result) and SIGKILL'd 300 ms into the race; the
//!   coordinator must still certify the optimum from the surviving
//!   shards and flag the dead one in the report.
//! * **Custom portfolios**: a worker builds only its own default lanes,
//!   so a caller-chosen portfolio races in-process, with no worker.
//! * **Partition**: workers seat search lanes only, so the shard count is
//!   capped by them.
//! * **Decided at the open**: a Hamiltonian-independent race at N ≤ 5,
//!   and a Hamiltonian-dependent one at N ≤ 3, is decided by the engine's
//!   bound consult before any worker is spawned. Every race here that
//!   must run is a `fermihedral::fixtures` problem at N ≥ 4, which the
//!   consult leaves to the lanes.

use engine::{compile, EngineConfig, FloorSource, Strategy};
use fermihedral::descent::{solve_optimal, DescentConfig};
use fermihedral::fixtures::{chain, long_race, short_race};
use fermihedral::{EncodingProblem, Objective};
use shard::{compile_sharded_with, measure_weight, ShardOptions};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_fermihedral-shard"))
}

fn options() -> ShardOptions {
    ShardOptions {
        worker_bin: Some(worker_bin()),
        ..ShardOptions::default()
    }
}

fn sharded_config(shards: usize, timeout: Duration) -> EngineConfig {
    EngineConfig {
        shards,
        total_timeout: Some(timeout),
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
fn differential_sharded_matches_in_process_on_full_sat() {
    for modes in 3..=4usize {
        let problem = chain(modes);
        let in_process = compile(&problem, &sharded_config(0, Duration::from_secs(120)));
        assert_valid_optimum(&problem, &in_process, &format!("in-process N={modes}"));

        let sharded = compile_sharded_with(
            &problem,
            &sharded_config(2, Duration::from_secs(120)),
            None,
            None,
            &options(),
        );
        assert_valid_optimum(&problem, &sharded, &format!("sharded N={modes}"));
        assert_eq!(
            sharded.weight(),
            in_process.weight(),
            "N={modes}: sharded and in-process optima disagree"
        );
        if modes == 3 {
            // Decided at the open: no lane, no worker, the search's floor.
            let sequential = solve_optimal(&problem, &DescentConfig::default());
            for outcome in [&in_process, &sharded] {
                assert_eq!(outcome.weight(), sequential.weight(), "N={modes}");
                assert_eq!(outcome.floor.map(|f| f.source), Some(FloorSource::Bound));
                assert!(outcome.report.workers.is_empty(), "N={modes}: a lane ran");
                assert!(outcome.report.shards.is_empty(), "N={modes}: a worker ran");
            }
            continue;
        }

        // Two real worker processes participated and stayed alive.
        let report = &sharded.report;
        assert_eq!(report.shards.len(), 2, "N={modes}");
        assert!(report.shards.iter().all(|s| !s.dead), "N={modes}");
        // Each child's first connection to its reserved seat is a join.
        assert!(report.shards.iter().all(|s| s.rejoins == 0), "N={modes}");
        assert!(
            report.workers.iter().all(|w| w.shard.is_some()),
            "N={modes}: every lane must be attributed to a shard"
        );
        let distinct: std::collections::BTreeSet<_> =
            report.workers.iter().filter_map(|w| w.shard).collect();
        assert_eq!(distinct.len(), 2, "N={modes}: lanes ran in both shards");
    }
}

#[test]
fn a_caller_chosen_portfolio_races_in_process() {
    // A worker builds only its own default lanes, so a one-lane custom
    // portfolio must never be shipped to one.
    let problem = chain(4);
    let config = EngineConfig {
        strategies: vec![Strategy::SatDescent {
            seed: 7,
            random_branch: 0.0,
            bk_phase_hint: true,
            restart: sat::RestartPolicyKind::default(),
            export_lbd: sat::ExportLbd::default(),
        }],
        ..sharded_config(2, Duration::from_secs(120))
    };
    let outcome = compile_sharded_with(&problem, &config, None, None, &options());
    assert_valid_optimum(&problem, &outcome, "custom portfolio N=4");
    assert_eq!(outcome.weight(), Some(4));
    let shards = &outcome.report.shards;
    assert!(shards.is_empty(), "no worker may race it: {shards:?}");
}

#[test]
fn shards_are_capped_by_the_search_lanes() {
    // The classical constructions open every worker's race instead of
    // taking a seat, so five requested shards over the four search lanes
    // of a Hamiltonian-dependent race (three descent lanes and the
    // annealer) spawn four workers.
    let problem = chain(4);
    let outcome = compile_sharded_with(
        &problem,
        &sharded_config(5, Duration::from_secs(120)),
        None,
        None,
        &options(),
    );
    assert_valid_optimum(&problem, &outcome, "5 shards requested at N=4");
    assert_eq!(outcome.weight(), Some(4));
    let shards = &outcome.report.shards;
    assert_eq!(shards.len(), 4, "one worker per search lane: {shards:?}");

    // A Hamiltonian-independent race has no annealer: three descent
    // lanes, three workers. N=6 is the smallest such race the bound
    // consult leaves to the lanes; they cannot prove its floor in two
    // seconds, but the opening tree's 29 is already the optimum.
    let problem = EncodingProblem::full_sat(6, Objective::MajoranaWeight);
    let outcome = compile_sharded_with(
        &problem,
        &sharded_config(5, Duration::from_secs(2)),
        None,
        None,
        &options(),
    );
    assert_eq!(outcome.weight(), Some(29));
    let shards = &outcome.report.shards;
    assert_eq!(shards.len(), 3, "one worker per descent lane: {shards:?}");
}

#[test]
fn sharded_race_exchanges_clauses_across_the_bridge() {
    // The short race has enough conflicts that both shards' descent
    // lanes demonstrably trade clauses through the coordinator.
    let problem = short_race();
    let outcome = compile_sharded_with(
        &problem,
        &sharded_config(2, Duration::from_secs(120)),
        None,
        None,
        &options(),
    );
    assert_valid_optimum(&problem, &outcome, "sharded short race");
    let shards = &outcome.report.shards;
    assert!(
        shards.iter().any(|s| s.clauses_sent > 0),
        "no clauses crossed the bridge: {shards:?}"
    );
    assert!(
        shards.iter().any(|s| s.clauses_received > 0),
        "no clauses were forwarded: {shards:?}"
    );
    assert!(
        shards.iter().any(|s| s.bounds_sent > 0),
        "no incumbent bounds crossed the bridge: {shards:?}"
    );
    // Coordinator-side conservation: with 2 shards every forwarded
    // clause was sent by the other one. Clauses that arrive after the
    // peer already reported its result are dropped, so `received` may
    // trail `sent` — but can never exceed it.
    let sent: u64 = shards.iter().map(|s| s.clauses_sent).sum();
    let received: u64 = shards.iter().map(|s| s.clauses_received).sum();
    assert!(
        received <= sent,
        "forwarding cannot mint clauses: sent {sent}, received {received}"
    );
}

#[test]
fn sigkilled_worker_degrades_the_race_not_the_result() {
    // The long race runs for about a second, so a kill 300 ms in is
    // mid-race.
    let problem = long_race();
    // Freeze shard 2 the instant it spawns: SIGSTOP guarantees it never
    // reports a result, making the later SIGKILL deterministically
    // "mid-race" regardless of scheduling. 300 ms later — while the
    // surviving shards are deep in the descent — it is SIGKILL'd.
    let victim = 2usize;
    let hook = Arc::new(move |shard: usize, pid: u32| {
        if shard != victim {
            return;
        }
        let _ = std::process::Command::new("kill")
            .args(["-STOP", &pid.to_string()])
            .status();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            let _ = std::process::Command::new("kill")
                .args(["-KILL", &pid.to_string()])
                .status();
        });
    });
    let outcome = compile_sharded_with(
        &problem,
        &sharded_config(3, Duration::from_secs(120)),
        None,
        None,
        &ShardOptions {
            worker_bin: Some(worker_bin()),
            spawn_hook: Some(hook),
            ..ShardOptions::default()
        },
    );

    // The survivors certify the true optimum…
    assert_valid_optimum(&problem, &outcome, "degraded race");
    assert_eq!(outcome.weight(), Some(11), "the long race's optimum");

    // …and the corpse is flagged.
    let report = &outcome.report;
    assert_eq!(report.shards.len(), 3);
    assert!(
        report.shards[victim].dead,
        "killed worker must be flagged dead: {:?}",
        report.shards
    );
    assert!(
        report
            .shards
            .iter()
            .enumerate()
            .all(|(i, s)| s.dead == (i == victim)),
        "survivors must not be flagged: {:?}",
        report.shards
    );
    assert!(
        report.workers.iter().all(|w| w.shard != Some(victim)),
        "a dead shard reports no lane timelines"
    );
}

/// One attempt of the post-mortem scenario: SIGKILL the victim
/// `delay_ms` into the race, then check that the coordinator wrote a
/// complete bundle. Returns `Err` when the kill landed outside the
/// victim's vulnerable window (before job acceptance, or after its
/// result) — the caller retries with a different delay.
fn postmortem_attempt(dir: &std::path::Path, delay_ms: u64) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let problem = long_race();
    let victim = 2usize;
    // No SIGSTOP here: the victim must *run* long enough to accept its
    // job and ship the immediate first checkpoint (~10 ms in), so the
    // kill is delayed into the second-long race.
    let hook = Arc::new(move |shard: usize, pid: u32| {
        if shard != victim {
            return;
        }
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(delay_ms));
            let _ = std::process::Command::new("kill")
                .args(["-KILL", &pid.to_string()])
                .status();
        });
    });
    let outcome = compile_sharded_with(
        &problem,
        &sharded_config(3, Duration::from_secs(120)),
        None,
        None,
        &ShardOptions {
            worker_bin: Some(worker_bin()),
            spawn_hook: Some(hook),
            postmortem_dir: Some(dir.to_path_buf()),
        },
    );

    // The race itself must still certify — kill timing cannot change
    // that, so this is a hard assert, not a retryable condition.
    assert_valid_optimum(&problem, &outcome, "postmortem race");

    if !outcome.report.shards[victim].dead {
        return Err(format!(
            "kill at {delay_ms}ms landed after the victim's result; not dead: {:?}",
            outcome.report.shards
        ));
    }

    // The bundle: one file, named after the dead shard.
    let path = dir.join(format!("postmortem-{victim}.json"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("missing post-mortem bundle {}: {e}", path.display()))?;
    let bundle = jsonkit::parse(&text).expect("post-mortem bundle must be valid JSON");
    assert_eq!(bundle.get("shard").and_then(|v| v.as_usize()), Some(victim));
    let exit = bundle
        .get("exit_status")
        .and_then(|v| v.as_str())
        .expect("a reaped SIGKILL must leave an exit status");
    assert!(
        exit.contains('9') || exit.to_lowercase().contains("kill"),
        "exit status should name the kill signal, got {exit:?}"
    );
    let job = bundle.get("job").expect("job context");
    assert_eq!(
        job.get("fingerprint").and_then(|v| v.as_str()),
        Some(outcome.report.fingerprint.as_str()),
        "job context must carry the race's fingerprint"
    );
    assert_eq!(job.get("modes").and_then(|v| v.as_usize()), Some(5));
    assert!(
        !job.get("lanes")
            .and_then(|v| v.as_arr())
            .unwrap_or(&[])
            .is_empty(),
        "job context must name the victim's lanes"
    );
    // The payload of the tentpole: the victim's last checkpointed
    // flight-recorder ring, with its "job accepted" event intact. A kill
    // that lands before the first checkpoint crossed the wire leaves
    // `flight_recorder: null` — retryable, the window was missed.
    let records = bundle
        .get("flight_recorder")
        .and_then(|v| v.get("records"))
        .and_then(|v| v.as_arr())
        .ok_or_else(|| {
            format!("kill at {delay_ms}ms beat the first checkpoint; no ring in the bundle")
        })?;
    assert!(!records.is_empty(), "checkpointed ring must not be empty");
    assert!(
        records.iter().any(|r| {
            r.get("msg").and_then(|v| v.as_str()) == Some("job accepted")
                && r.get("target").and_then(|v| v.as_str()) == Some("shard.worker")
        }),
        "the victim's job-acceptance event must survive in the bundle"
    );

    // No bundles for the survivors.
    for shard in 0..3 {
        if shard != victim {
            assert!(
                !dir.join(format!("postmortem-{shard}.json")).exists(),
                "live shard {shard} must not get a post-mortem"
            );
        }
    }
    Ok(())
}

#[test]
fn sigkilled_worker_leaves_a_postmortem_bundle() {
    // The black-box pipeline end to end: the worker checkpoints its
    // flight-recorder ring over BlackBox frames from the moment it
    // accepts its job, so a SIGKILL — no unwinding, no final flush —
    // must still leave a postmortem-<shard>.json with its last
    // checkpointed events, the job context, and the kill signal.
    //
    // The kill must land between job acceptance (~10 ms) and the
    // victim's result (about a second into the long race); a miss on
    // either side is detected and retried at a different delay.
    let dir = std::env::temp_dir().join(format!(
        "fermihedral-shard-postmortem-test-{}",
        std::process::id()
    ));
    let mut last_miss = String::new();
    for delay_ms in [150, 250, 100, 400] {
        match postmortem_attempt(&dir, delay_ms) {
            Ok(()) => {
                std::fs::remove_dir_all(&dir).unwrap();
                return;
            }
            Err(miss) => last_miss = miss,
        }
    }
    panic!("no kill delay hit the vulnerable window; last miss: {last_miss}");
}

#[test]
fn killed_worker_partial_trace_merges_without_panicking() {
    // Telemetry on in the coordinator process: every Job frame carries a
    // trace id, the workers record spans and ship them back in Trace
    // frames — and one worker is killed mid-race (frozen at spawn, then
    // SIGKILL'd, as in `sigkilled_worker_degrades_the_race_not_the_result`),
    // so its trace is partial at best and may be cut mid-frame. The
    // coordinator must merge whatever did arrive and never panic on the
    // missing tail.
    let registry = telemetry::global();
    registry.enable();

    let problem = long_race();
    let victim = 2usize;
    let hook = Arc::new(move |shard: usize, pid: u32| {
        if shard != victim {
            return;
        }
        let _ = std::process::Command::new("kill")
            .args(["-STOP", &pid.to_string()])
            .status();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            let _ = std::process::Command::new("kill")
                .args(["-KILL", &pid.to_string()])
                .status();
        });
    });
    let outcome = compile_sharded_with(
        &problem,
        &sharded_config(3, Duration::from_secs(120)),
        None,
        None,
        &ShardOptions {
            worker_bin: Some(worker_bin()),
            spawn_hook: Some(hook),
            ..ShardOptions::default()
        },
    );
    registry.disable();
    telemetry::flush();

    // The survivor still certifies the optimum.
    assert_valid_optimum(&problem, &outcome, "traced degraded race");
    assert!(
        outcome.report.shards[victim].dead,
        "killed worker must be flagged dead: {:?}",
        outcome.report.shards
    );

    // The merged timeline has the coordinator's root span, and every
    // worker event was rebased onto the coordinator's clock.
    let events = registry.drain();
    let coordinator_pid = std::process::id();
    assert!(
        events
            .iter()
            .any(|e| e.name == "shard.race" && e.pid == coordinator_pid),
        "coordinator root span missing from the merged trace"
    );
    // The survivor ran to completion, so its lane spans must have made
    // it across the bridge. (The victim's partial batches may or may
    // not have landed before the kill — that part is best-effort.)
    // Both survivors ship their span tail before their result, so lane
    // spans come from at least two worker processes, one per lane each.
    let lane_pids: std::collections::BTreeMap<u32, usize> = events
        .iter()
        .filter(|e| e.name == "engine.lane" && e.pid != coordinator_pid)
        .fold(Default::default(), |mut pids, e| {
            *pids.entry(e.pid).or_default() += 1;
            pids
        });
    assert!(
        lane_pids.len() >= 2,
        "lane spans from fewer than two worker processes: {lane_pids:?}"
    );
    let survivor_lanes = outcome
        .report
        .workers
        .iter()
        .filter(|w| w.shard.is_some_and(|s| s != victim))
        .count();
    assert!(
        lane_pids.values().sum::<usize>() >= survivor_lanes,
        "{survivor_lanes} surviving lanes, lane spans per pid {lane_pids:?}"
    );
    // Cross-process wire telemetry was recorded on the way.
    assert!(
        registry.metrics().counter_sum("wire_frames_total") > 0,
        "wire frame counters must be nonzero after a sharded race"
    );
}

#[test]
fn sharded_race_warm_starts_from_a_smaller_cached_optimum() {
    // Cross-size transfer through the coordinator: with the N=3 optimum
    // cached, a sharded N=4 compile must find it in the size index,
    // embed it, broadcast the hint to both workers in the Job frame, and
    // still certify the true optimum.
    let dir = std::env::temp_dir().join(format!(
        "fermihedral-shard-warm-test-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let seed = compile(
        &chain(3),
        &EngineConfig {
            cache_dir: Some(dir.clone()),
            total_timeout: Some(Duration::from_secs(120)),
            ..EngineConfig::default()
        },
    );
    assert!(seed.optimal_proved, "seed N=3 must certify");

    let problem = chain(4);
    let cache = engine::SolutionCache::open(&dir).unwrap();
    let outcome = compile_sharded_with(
        &problem,
        &sharded_config(2, Duration::from_secs(120)),
        Some(&cache),
        None,
        &options(),
    );
    assert_valid_optimum(&problem, &outcome, "warm sharded N=4");
    assert_eq!(outcome.weight(), Some(4), "the N=4 optimum");
    assert_eq!(outcome.report.cache, engine::CacheStatus::HitCrossSize);
    let warm = outcome
        .report
        .warm_start
        .as_ref()
        .expect("coordinator must report the cross-size warm start");
    assert_eq!(warm.source, "cross-size");
    assert_eq!(warm.from_modes, Some(3));
    assert_eq!(cache.counters().hit_cross_size, 1);
    // The N=4 result was stored and indexed, so an N=5 probe would now
    // see it as the largest smaller size.
    let n5 = chain(5);
    assert_eq!(
        engine::cross_size_warm_start(&cache, &n5).map(|(_, m)| m),
        Some(4)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The long race's certificate, in-process and across 2 shards.
#[test]
fn differential_full_sat_n5() {
    let problem = long_race();
    let budget = Duration::from_secs(10 * 60);
    let in_process = compile(&problem, &sharded_config(0, budget));
    assert_valid_optimum(&problem, &in_process, "in-process N=5");
    let sharded =
        compile_sharded_with(&problem, &sharded_config(2, budget), None, None, &options());
    assert_valid_optimum(&problem, &sharded, "sharded N=5");
    assert_eq!(sharded.weight(), in_process.weight());
    assert_eq!(sharded.weight(), Some(11), "the long race's optimum");
}

#[test]
fn no_worker_outlives_a_sharded_race() {
    // Every spawned child is reaped by the time the race returns: the
    // idle ones are killed when their seats close, none is left to
    // retire on its own after the coordinator is gone.
    let pids = Arc::new(std::sync::Mutex::new(Vec::new()));
    let seen = pids.clone();
    let hook = Arc::new(move |_shard: usize, pid: u32| seen.lock().unwrap().push(pid));
    let problem = chain(4);
    let outcome = compile_sharded_with(
        &problem,
        &sharded_config(2, Duration::from_secs(120)),
        None,
        None,
        &ShardOptions {
            worker_bin: Some(worker_bin()),
            spawn_hook: Some(hook.clone()),
            ..ShardOptions::default()
        },
    );
    assert_valid_optimum(&problem, &outcome, "sharded N=4");
    let spawned = pids.lock().unwrap().clone();
    assert_eq!(spawned.len(), 2, "one child per shard");
    for pid in spawned.iter() {
        assert!(
            !std::path::Path::new(&format!("/proc/{pid}")).exists(),
            "worker {pid} outlived the race"
        );
    }

    // The bound consult proves the Hamiltonian-independent N=4 opening
    // optimal before the race, so that compile spawns no child at all.
    let problem = EncodingProblem::full_sat(4, Objective::MajoranaWeight);
    let outcome = compile_sharded_with(
        &problem,
        &sharded_config(2, Duration::from_secs(120)),
        None,
        None,
        &ShardOptions {
            worker_bin: Some(worker_bin()),
            spawn_hook: Some(hook),
            ..ShardOptions::default()
        },
    );
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
    assert_eq!(
        pids.lock().unwrap().len(),
        2,
        "a decided race spawned a child"
    );
}

#[test]
fn a_worker_that_exits_before_connecting_is_dead_at_once() {
    // A child that never reaches the coordinator's port has no
    // connection to report its end; its process must. `false` exits 1
    // without connecting: both seats die at once (not at the deadline),
    // the race falls back in-process, and the reaped status is reported.
    let started = std::time::Instant::now();
    let problem = chain(4);
    let outcome = compile_sharded_with(
        &problem,
        &sharded_config(2, Duration::from_secs(60)),
        None,
        None,
        &ShardOptions {
            worker_bin: Some(PathBuf::from("/bin/false")),
            ..ShardOptions::default()
        },
    );
    assert!(outcome.optimal_proved, "the fallback must still certify");
    assert_eq!(outcome.weight(), Some(4)); // the N=4 optimum
    let shards = &outcome.report.shards;
    assert_eq!(shards.len(), 2);
    assert!(shards.iter().all(|s| s.dead), "{shards:?}");
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "the deaths waited for the deadline: {:?}",
        started.elapsed()
    );
}

#[test]
fn coordinator_survives_a_missing_worker_binary() {
    // Spawn failures must degrade to the in-process engine, not abort.
    let problem = chain(4);
    let outcome = compile_sharded_with(
        &problem,
        &sharded_config(2, Duration::from_secs(60)),
        None,
        None,
        &ShardOptions {
            worker_bin: Some(PathBuf::from("/nonexistent/fermihedral-shard")),
            ..ShardOptions::default()
        },
    );
    assert!(outcome.optimal_proved, "degraded run must still certify");
    assert_eq!(outcome.weight(), Some(4)); // the N=4 optimum
}
