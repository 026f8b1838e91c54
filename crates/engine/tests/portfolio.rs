//! End-to-end tests of the portfolio engine: parity with the sequential
//! descent, incumbent sharing, cancellation, and the persistent cache.

use encodings::{Encoding, TernaryTreeEncoding};
use engine::{
    check_encoding, compile, compile_with, CacheStatus, EngineConfig, EngineOutcome, FloorSource,
    Strategy,
};
use fermihedral::descent::{solve_optimal, DescentConfig};
use fermihedral::fixtures::{chain, short_race};
use fermihedral::{AnnealConfig, EncodingProblem, Objective};
use fermion::MajoranaMonomial;
use sat::{CancelToken, ExportLbd, RestartPolicyKind};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The outcome was a checked optimal cache entry: no lane ran.
fn from_cache(outcome: &EngineOutcome) -> bool {
    outcome.report.cache == CacheStatus::HitOptimal
}

fn tmp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fermihedral-engine-test-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn three_descent_lanes() -> Vec<Strategy> {
    vec![
        Strategy::SatDescent {
            seed: 1,
            random_branch: 0.0,
            bk_phase_hint: true,
            restart: RestartPolicyKind::default(),
            export_lbd: ExportLbd::default(),
        },
        Strategy::SatDescent {
            seed: 7,
            random_branch: 0.05,
            bk_phase_hint: false,
            restart: RestartPolicyKind::Geometric {
                initial: 64,
                factor: 1.3,
            },
            export_lbd: ExportLbd::default(),
        },
        Strategy::SatDescent {
            seed: 13,
            random_branch: 0.15,
            bk_phase_hint: false,
            restart: RestartPolicyKind::Fixed { interval: 128 },
            export_lbd: ExportLbd::default(),
        },
    ]
}

fn assert_valid(outcome: &EngineOutcome, problem: &EncodingProblem) {
    let best = outcome.best.as_ref().expect("an encoding was found");
    let phased: Vec<pauli::PhasedString> = best
        .strings
        .iter()
        .cloned()
        .map(pauli::PhasedString::from)
        .collect();
    let report = encodings::validate::validate_strings(&phased);
    assert!(report.anticommuting);
    assert!(report.algebraically_independent);
    if problem.has_vacuum_condition() {
        assert!(report.xy_pair_condition);
    }
}

#[test]
fn portfolio_matches_sequential_optimum_on_small_modes() {
    // The acceptance bar: identical optimal weights to the sequential
    // solve_optimal on 2–4 modes. At N ≤ 3 the bound decides the race at
    // its opening; at N = 4 ≥ 3 workers race.
    for modes in 2..=4usize {
        let problem = chain(modes);
        let sequential = solve_optimal(&problem, &DescentConfig::default());
        let config = EngineConfig {
            strategies: three_descent_lanes(),
            ..EngineConfig::default()
        };
        let parallel = compile(&problem, &config);
        assert_eq!(
            parallel.weight(),
            sequential.weight(),
            "{modes} modes: portfolio and sequential disagree"
        );
        assert!(parallel.optimal_proved, "{modes} modes: no certificate");
        assert!(!from_cache(&parallel));
        let (lanes, source) = match modes {
            2 | 3 => (0, FloorSource::Bound),
            _ => (3, FloorSource::Unsat),
        };
        assert_eq!(parallel.report.workers.len(), lanes, "{modes} modes");
        assert_eq!(
            parallel.floor.map(|f| f.source),
            Some(source),
            "{modes} modes"
        );
        assert_valid(&parallel, &problem);
    }
}

#[test]
fn default_portfolio_races_search_lanes_and_wins() {
    let problem = chain(4);
    let outcome = compile(&problem, &EngineConfig::default());
    let sequential = solve_optimal(&problem, &DescentConfig::default());
    assert_eq!(outcome.weight(), sequential.weight());
    assert!(outcome.optimal_proved);
    // One report per search lane: the classical constructions open the
    // race without being lanes.
    let workers = &outcome.report.workers;
    assert_eq!(workers.len(), engine::default_portfolio(&problem).len());
    assert!(
        workers.iter().all(|w| !w.strategy.starts_with("baseline[")),
        "constructions are not lanes: {:?}",
        workers.iter().map(|w| &w.strategy).collect::<Vec<_>>()
    );
    assert_valid(&outcome, &problem);
}

#[test]
fn every_race_opens_at_the_classical_constructions() {
    // A caller-chosen portfolio of one descent lane, aborted before it
    // starts: the race still holds the lighter construction, published
    // before any lane thread existed. For the Hamiltonian-independent
    // weight that is the vacuum-paired ternary tree (36 at N=7, 43 at
    // N=8, against Bravyi-Kitaev's 38 and 57); a Hamiltonian whose terms
    // Bravyi-Kitaev keeps local (γ₀γ₁ + γ₀γ₃ at N=4: tree 6, Bravyi-Kitaev
    // 3) opens at Bravyi-Kitaev instead.
    let hamiltonian = Objective::HamiltonianWeight(vec![
        MajoranaMonomial::from_sorted(vec![0, 1]),
        MajoranaMonomial::from_sorted(vec![0, 3]),
    ]);
    let cases = [
        (
            EncodingProblem::new(7, Objective::MajoranaWeight),
            36,
            "baseline[ternary-tree]",
        ),
        (
            EncodingProblem::new(8, Objective::MajoranaWeight),
            43,
            "baseline[ternary-tree]",
        ),
        (
            EncodingProblem::new(4, hamiltonian),
            3,
            "baseline[bravyi-kitaev]",
        ),
    ];
    let config = EngineConfig {
        strategies: three_descent_lanes()[..1].to_vec(),
        ..EngineConfig::default()
    };
    for (problem, weight, winner) in cases {
        let cancel = CancelToken::new();
        cancel.cancel();
        let outcome = compile_with(&problem, &config, None, Some(&cancel));
        assert_eq!(outcome.weight(), Some(weight), "{winner}");
        assert_eq!(outcome.report.winner.as_deref(), Some(winner));
        assert!(!outcome.optimal_proved, "{winner}");
        assert_valid(&outcome, &problem);
    }
    // The tree passes the engine's trust-boundary check at every size
    // Fig. 6 covers, at its closed-form weight.
    for (n, weight) in (1..=8).zip([2, 6, 11, 16, 22, 29, 36, 43]) {
        let problem = EncodingProblem::full_sat(n, Objective::MajoranaWeight);
        let tree: Vec<pauli::PauliString> = (TernaryTreeEncoding::new(n).majoranas())
            .iter()
            .map(|m| m.string().clone())
            .collect();
        assert_eq!(check_encoding(&problem, &tree), Some(weight), "n={n}");
    }
}

#[test]
fn hamiltonian_objective_runs_annealing_lane() {
    let problem = chain(4);
    let sequential = solve_optimal(&problem, &DescentConfig::default());
    let outcome = compile(&problem, &EngineConfig::default());
    assert_eq!(outcome.weight(), sequential.weight());
    assert!(outcome.optimal_proved);
    assert!(
        outcome
            .report
            .workers
            .iter()
            .any(|w| w.strategy.starts_with("anneal[")),
        "hamiltonian objective must add an annealing lane"
    );
}

#[test]
fn second_run_is_served_from_cache_without_solving() {
    let dir = tmp_cache("serve");
    let problem = EncodingProblem::full_sat(3, Objective::MajoranaWeight);
    let config = EngineConfig {
        strategies: three_descent_lanes(),
        cache_dir: Some(dir.clone()),
        ..EngineConfig::default()
    };

    let first = compile(&problem, &config);
    assert!(!from_cache(&first));
    assert!(first.optimal_proved);

    let started = Instant::now();
    let second = compile(&problem, &config);
    let elapsed = started.elapsed();
    assert!(from_cache(&second), "second run must hit the cache");
    assert_eq!(second.weight(), first.weight());
    assert!(second.optimal_proved);
    assert!(
        second.report.workers.is_empty(),
        "no solver ran on the cache hit"
    );
    assert!(
        elapsed < Duration::from_millis(100),
        "cache hit took {elapsed:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cache_misses_when_the_objective_changes() {
    let dir = tmp_cache("objective");
    let config = EngineConfig {
        strategies: three_descent_lanes(),
        cache_dir: Some(dir.clone()),
        ..EngineConfig::default()
    };
    let maj = EncodingProblem::full_sat(2, Objective::MajoranaWeight);
    let ham = EncodingProblem::full_sat(
        2,
        Objective::HamiltonianWeight(vec![MajoranaMonomial::from_sorted(vec![0, 1])]),
    );
    assert!(!from_cache(&compile(&maj, &config)));
    let ham_run = compile(&ham, &config);
    assert!(
        !from_cache(&ham_run),
        "different objective must not reuse the majorana entry"
    );
    // Both entries coexist afterwards.
    assert!(from_cache(&compile(&maj, &config)));
    assert!(from_cache(&compile(&ham, &config)));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cache_survives_process_restart_shape() {
    // A fresh SolutionCache handle over the same directory (what a process
    // restart amounts to) still hits.
    let dir = tmp_cache("restart");
    let problem = EncodingProblem::full_sat(2, Objective::MajoranaWeight);
    {
        let config = EngineConfig {
            strategies: three_descent_lanes(),
            cache_dir: Some(dir.clone()),
            ..EngineConfig::default()
        };
        assert!(!from_cache(&compile(&problem, &config)));
    }
    let fresh_config = EngineConfig {
        strategies: three_descent_lanes(),
        cache_dir: Some(dir.clone()),
        ..EngineConfig::default()
    };
    assert!(from_cache(&compile(&problem, &fresh_config)));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn total_timeout_cancels_a_hopeless_run_promptly() {
    // 7 modes without algebraic independence is far beyond what a few
    // hundred milliseconds can prove optimal; the engine must stop on its
    // deadline (through the solver stop flag) and still return the best
    // incumbent (at worst the race's opening Bravyi-Kitaev).
    let problem = EncodingProblem::new(7, Objective::MajoranaWeight);
    let config = EngineConfig {
        strategies: vec![
            Strategy::SatDescent {
                seed: 1,
                random_branch: 0.0,
                bk_phase_hint: true,
                restart: RestartPolicyKind::default(),
                export_lbd: ExportLbd::default(),
            },
            Strategy::SatDescent {
                seed: 2,
                random_branch: 0.1,
                bk_phase_hint: false,
                restart: RestartPolicyKind::Fixed { interval: 256 },
                export_lbd: ExportLbd::default(),
            },
        ],
        total_timeout: Some(Duration::from_millis(300)),
        ..EngineConfig::default()
    };
    let started = Instant::now();
    let outcome = compile(&problem, &config);
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(10),
        "deadline ignored: {elapsed:?}"
    );
    assert!(outcome.best.is_some(), "baseline incumbent must survive");
    assert!(!outcome.optimal_proved);
}

#[test]
fn anneal_lane_reseeds_from_a_better_incumbent() {
    // Structure γ₁γ₇ at N=4: the ternary tree encodes it at weight 1, but
    // the best *pair permutation* of Bravyi-Kitaev only reaches weight 2
    // (verified by brute force over all 4! permutations). Annealing is a
    // pure pair-permutation search, so a BK-based annealing lane can never
    // reach weight 1 from its own base — it must adopt the ternary tree,
    // which opens the race as its incumbent, and re-anneal from there.
    let monomials = vec![MajoranaMonomial::from_sorted(vec![1, 7])];
    let problem = EncodingProblem::new(4, Objective::HamiltonianWeight(monomials));
    let strategies = vec![Strategy::Anneal {
        schedule: AnnealConfig::default(),
    }];

    let outcome = compile(
        &problem,
        &EngineConfig {
            strategies: strategies.clone(),
            ..EngineConfig::default()
        },
    );
    assert_eq!(outcome.weight(), Some(1), "ternary tree optimum must win");
    let anneal = outcome
        .report
        .workers
        .iter()
        .find(|w| w.strategy.starts_with("anneal"))
        .expect("anneal lane report");
    assert!(
        anneal
            .events
            .iter()
            .any(|e| matches!(e.kind, engine::EventKind::Reseeded(1))),
        "lane must record adopting the weight-1 incumbent: {:?}",
        anneal.events
    );
    assert_eq!(
        anneal.final_weight,
        Some(1),
        "re-annealing the adopted incumbent must retain its weight"
    );

    // Control: with re-seeding disabled the lane is stuck at the best BK
    // pair permutation (weight 2, always found — the search space has 6
    // points).
    let outcome = compile(
        &problem,
        &EngineConfig {
            strategies: vec![Strategy::Anneal {
                schedule: AnnealConfig {
                    reseed_t0: None,
                    ..AnnealConfig::default()
                },
            }],
            ..EngineConfig::default()
        },
    );
    let anneal = outcome
        .report
        .workers
        .iter()
        .find(|w| w.strategy.starts_with("anneal"))
        .expect("anneal lane report");
    assert_eq!(
        anneal.final_weight,
        Some(2),
        "BK permutations bottom out at 2"
    );
    assert!(
        !anneal
            .events
            .iter()
            .any(|e| matches!(e.kind, engine::EventKind::Reseeded(_))),
        "re-seeding disabled must record no Reseeded event"
    );
}

#[test]
fn anneal_lane_does_not_idle_out_the_timeout() {
    // Re-seeding waits for other lanes' improvements — but once every
    // other lane has exited without a certificate (here there is none: the
    // annealer is the race's only lane), nobody is left to improve the
    // incumbent and the annealer must exit instead of sleeping out the
    // whole (here: enormous) total_timeout.
    let monomials = vec![MajoranaMonomial::from_sorted(vec![0, 3])];
    let problem = EncodingProblem::new(5, Objective::HamiltonianWeight(monomials));
    let config = EngineConfig {
        strategies: vec![Strategy::Anneal {
            schedule: AnnealConfig::default(),
        }],
        total_timeout: Some(Duration::from_secs(300)),
        ..EngineConfig::default()
    };
    let started = Instant::now();
    let outcome = compile(&problem, &config);
    assert!(
        started.elapsed() < Duration::from_secs(120),
        "anneal lane idled out the timeout: {:?}",
        started.elapsed()
    );
    assert!(outcome.best.is_some(), "baseline incumbent must survive");
}

#[test]
fn anneal_lane_respects_cancellation() {
    // An enormous annealing schedule would run for minutes; the total
    // timeout must cut it off.
    let monomials = vec![MajoranaMonomial::from_sorted(vec![0, 3])];
    let problem = EncodingProblem::new(6, Objective::HamiltonianWeight(monomials));
    let config = EngineConfig {
        strategies: vec![Strategy::Anneal {
            schedule: AnnealConfig {
                iterations: 50_000_000,
                ..AnnealConfig::default()
            },
        }],
        total_timeout: Some(Duration::from_millis(200)),
        ..EngineConfig::default()
    };
    let started = Instant::now();
    let outcome = compile(&problem, &config);
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "annealing ignored the deadline"
    );
    let worker = &outcome.report.workers[0];
    assert!(worker.cancelled, "the lane must report its cancellation");
}

/// Compiles on a helper thread and fails the test, instead of hanging it,
/// when the race has not returned within a minute.
fn compile_within_a_minute(problem: EncodingProblem, config: EngineConfig) -> EngineOutcome {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(compile(&problem, &config));
    });
    rx.recv_timeout(Duration::from_secs(60))
        .expect("the race did not return within 60 s")
}

#[test]
fn queued_lanes_all_wake_when_the_race_is_decided() {
    // One heavy slot per core and three descent lanes more than that:
    // the first lanes run to the certificate while three queue for their
    // slots. Every queued lane must wake, find the race decided and exit
    // without running — a wake-up that reaches only one of them would
    // leave the others, and the race, waiting forever. The short race
    // takes a running lane some 100 ms, long enough for the other three
    // to be queued when it finishes.
    let problem = short_race();
    let slots = std::thread::available_parallelism().map_or(1, |n| n.get());
    let strategies = three_descent_lanes()
        .into_iter()
        .cycle()
        .take(slots + 3)
        .collect();
    let config = EngineConfig {
        strategies,
        ..EngineConfig::default()
    };
    let outcome = compile_within_a_minute(problem, config);
    assert!(outcome.optimal_proved);
    let (skipped, ran): (Vec<_>, Vec<_>) = outcome
        .report
        .workers
        .iter()
        .partition(|w| w.started_at == w.finished_at);
    assert!(ran.len() <= slots, "{slots} slots, more lanes ran: {ran:?}");
    assert!(skipped.len() >= 3, "queued lanes ran: {skipped:?}");
    assert!(
        skipped.iter().all(|w| w.cancelled),
        "queued lanes report their cancellation: {skipped:?}"
    );
}

#[test]
fn a_decided_race_returns_long_before_its_timeout() {
    // The total timeout is enforced by a wait on the race signal; it must
    // end when the lanes exit, not when the hour is up.
    let config = EngineConfig {
        total_timeout: Some(Duration::from_secs(3600)),
        ..EngineConfig::default()
    };
    let outcome = compile_within_a_minute(
        EncodingProblem::full_sat(3, Objective::MajoranaWeight),
        config,
    );
    assert!(outcome.optimal_proved);
}

#[test]
fn racing_lanes_exchange_clauses_and_stay_optimal() {
    // The engine's sharing between three racing lanes, under the default
    // export filter: the certificate must match the sequential optimum
    // and real traffic must flow.
    let problem = short_race();
    let sequential = solve_optimal(&problem, &DescentConfig::default());
    let config = EngineConfig {
        strategies: three_descent_lanes(),
        ..EngineConfig::default()
    };
    let outcome = compile(&problem, &config);
    assert_eq!(outcome.weight(), sequential.weight());
    assert!(outcome.optimal_proved);
    assert_valid(&outcome, &problem);
    let exported: u64 = outcome
        .report
        .workers
        .iter()
        .map(|w| w.clauses_exported)
        .sum();
    assert!(
        exported > 0,
        "three lanes refuting the optimum must export clauses: {:?}",
        outcome
            .report
            .workers
            .iter()
            .map(|w| (&w.strategy, w.conflicts, w.clauses_exported))
            .collect::<Vec<_>>()
    );
}

#[test]
fn cache_counters_surface_in_the_report() {
    let dir = tmp_cache("report-counters");
    let problem = EncodingProblem::full_sat(2, Objective::MajoranaWeight);
    let config = EngineConfig {
        strategies: three_descent_lanes(),
        cache_dir: Some(dir.clone()),
        ..EngineConfig::default()
    };
    let first = compile(&problem, &config);
    assert_eq!(first.report.cache_counters.misses, 1);
    assert_eq!(first.report.cache_counters.stores, 1);
    let second = compile(&problem, &config);
    assert!(from_cache(&second));
    assert_eq!(second.report.cache_counters.hit_optimal, 1);
    assert_eq!(second.report.cache_counters.misses, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn report_json_round_trips() {
    let problem = EncodingProblem::full_sat(2, Objective::MajoranaWeight);
    let outcome = compile(&problem, &EngineConfig::default());
    let text = outcome.report.to_json().to_json();
    let parsed = jsonkit::parse(&text).unwrap();
    assert_eq!(
        parsed.get("fingerprint").unwrap().as_str().unwrap().len(),
        64
    );
    assert_eq!(
        parsed.get("workers").unwrap().as_arr().unwrap().len(),
        outcome.report.workers.len()
    );
}

#[test]
fn partition_spreads_lanes_round_robin() {
    let problem = EncodingProblem::full_sat(3, Objective::MajoranaWeight);
    let lanes = engine::default_portfolio(&problem);
    let parts = engine::partition_strategies(&lanes, 2);
    assert_eq!(parts.len(), 2);
    assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), lanes.len());
    // Round-robin: consecutive lanes land in different shards, so seed
    // and restart diversity spreads instead of clustering.
    assert_eq!(parts[0][0].name(), lanes[0].name());
    assert_eq!(parts[1][0].name(), lanes[1].name());
    // More shards than lanes: every partition stays non-empty.
    let many = engine::partition_strategies(&lanes, lanes.len() + 5);
    assert_eq!(many.len(), lanes.len());
    assert!(many.iter().all(|p| p.len() == 1));
    // Degenerate inputs do not panic.
    assert!(engine::partition_strategies(&[], 3).is_empty());
}

#[test]
fn compile_bridged_exposes_live_race_handles() {
    // The shard worker attaches to a race through these handles; assert
    // they observe the real shared state: the final incumbent weight,
    // the proved floor, the decided cancel, and a live clause bridge.
    let problem = chain(4);
    let captured: std::sync::Mutex<Option<engine::RaceBridge>> = std::sync::Mutex::new(None);
    let outcome = engine::compile_bridged(&problem, &EngineConfig::default(), |bridge| {
        *captured.lock().unwrap() = Some(bridge);
    });
    let bridge = captured.into_inner().unwrap().expect("hook ran");
    assert_eq!(outcome.weight(), Some(4));
    assert!(outcome.optimal_proved);
    assert_eq!(bridge.bound.get(), 4, "bound handle tracks the incumbent");
    assert_eq!(
        bridge.floor.load(std::sync::atomic::Ordering::Relaxed),
        4,
        "floor handle saw the UNSAT certificate"
    );
    assert!(bridge.cancel.is_cancelled(), "decided race raised cancel");
    let remote = bridge.remote.expect("descent lanes get a bridge lane");
    let mut outgoing = Vec::new();
    remote.drain_outgoing(&mut outgoing);
    // Whatever the lanes exported was also routed to the bridge inbox.
    let exported: u64 = outcome
        .report
        .workers
        .iter()
        .map(|w| w.clauses_exported)
        .sum();
    assert!(
        exported == 0 || !outgoing.is_empty(),
        "exports must reach the bridge (exported {exported})"
    );
}

#[test]
fn compile_bridged_hands_a_race_decided_at_open_its_result() {
    // N=2 Hamiltonian-independent: the bound proves the opening tree
    // optimal, so no lane runs. The hook still runs once, on handles that
    // hold the decided race: its incumbent, its floor, a raised cancel,
    // and no clause bridge (there is no lane to trade with).
    let problem = EncodingProblem::full_sat(2, Objective::MajoranaWeight);
    let captured: std::sync::Mutex<Option<engine::RaceBridge>> = std::sync::Mutex::new(None);
    let outcome = engine::compile_bridged(&problem, &EngineConfig::default(), |bridge| {
        *captured.lock().unwrap() = Some(bridge);
    });
    let bridge = captured.into_inner().unwrap().expect("hook ran");
    assert_eq!(outcome.weight(), Some(6));
    assert!(outcome.optimal_proved);
    assert!(outcome.report.workers.is_empty(), "no lane ran");
    assert_eq!(bridge.bound.get(), 6);
    assert_eq!(bridge.floor.load(std::sync::atomic::Ordering::Relaxed), 6);
    assert!(bridge.cancel.is_cancelled());
    assert!(bridge.remote.is_none());
    let best = bridge.best.lock().unwrap().clone().expect("the opening");
    assert_eq!(best.0.weight, 6);
    assert_eq!(Some(best.1), outcome.report.winner);
}

/// The engine's bound consult against the paper's Algorithm 1 on one
/// lane: the Hamiltonian-independent race is decided before any lane
/// starts, at the weight the descent's UNSAT step certifies.
fn assert_decided_at_open_as_one_lane_certifies(n: usize, vacuum: bool) {
    let problem = EncodingProblem::new(n, Objective::MajoranaWeight).with_vacuum_condition(vacuum);
    let outcome = compile(&problem, &EngineConfig::default());
    let label = format!("N={n}, vacuum {vacuum}");
    assert!(outcome.optimal_proved, "{label}");
    assert!(outcome.report.workers.is_empty(), "{label}: a lane ran");
    assert_eq!(
        outcome.report.winner.as_deref(),
        Some("baseline[ternary-tree]"),
        "{label}"
    );
    assert_valid(&outcome, &problem);
    let single_lane = solve_optimal(&problem, &DescentConfig::default());
    assert!(single_lane.optimal_proved, "{label}");
    assert_eq!(outcome.weight(), single_lane.weight(), "{label}");
}

#[test]
fn races_decided_at_open_match_the_single_lane_certificate() {
    for n in 1..=5 {
        assert_decided_at_open_as_one_lane_certifies(n, true);
    }
    // Without the vacuum condition the one-lane floor proof at N=5 takes
    // about a minute (581,593 conflicts); it runs in the ignored test below.
    for n in 1..=4 {
        assert_decided_at_open_as_one_lane_certifies(n, false);
    }
}

#[test]
fn hamiltonian_races_at_n3_are_decided_at_open_by_the_search() {
    // γ₀γ₁ + γ₂γ₃ + γ₀γ₃: at N=2 the tree meets the search's floor; at
    // N=3 the search's own witness is lighter than every opening, and it
    // wins as `bound` once it passes the engine's trust check.
    for (n, winner) in [(2, "baseline[ternary-tree]"), (3, "bound")] {
        for vacuum in [true, false] {
            let problem = chain(n).with_vacuum_condition(vacuum);
            let label = format!("N={n}, vacuum {vacuum}");
            let outcome = compile(&problem, &EngineConfig::default());
            let sequential = solve_optimal(&problem, &DescentConfig::default());
            assert_eq!(outcome.weight(), sequential.weight(), "{label}");
            assert!(outcome.optimal_proved, "{label}");
            assert!(outcome.report.workers.is_empty(), "{label}: a lane ran");
            assert_eq!(outcome.floor.map(|f| f.source), Some(FloorSource::Bound));
            if vacuum {
                assert_eq!(outcome.report.winner.as_deref(), Some(winner), "{label}");
            }
            let best = outcome.best.as_ref().expect("decided with an encoding");
            assert_eq!(check_encoding(&problem, &best.strings), outcome.weight());
        }
    }
}

#[test]
#[ignore = "a minute of single-lane descent in release mode"]
fn the_race_decided_at_open_matches_the_single_lane_certificate_without_vacuum_at_n5() {
    assert_decided_at_open_as_one_lane_certifies(5, false);
}
