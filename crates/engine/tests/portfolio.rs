//! End-to-end tests of the portfolio engine: parity with the sequential
//! descent, incumbent sharing, cancellation, and the persistent cache.

use engine::{compile, BaselineKind, EngineConfig, EngineOutcome, Strategy};
use fermihedral::descent::{solve_optimal, DescentConfig};
use fermihedral::{AnnealConfig, EncodingProblem, Objective};
use fermion::MajoranaMonomial;
use sat::{ExportLbd, RestartPolicyKind};
use std::path::PathBuf;
use std::time::{Duration, Instant};

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
    // The acceptance bar: ≥ 3 workers, identical optimal weights to the
    // sequential solve_optimal on 2–4 modes.
    for modes in 2..=4usize {
        let problem = EncodingProblem::full_sat(modes, Objective::MajoranaWeight);
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
        assert!(!parallel.from_cache);
        assert_eq!(parallel.report.workers.len(), 3);
        assert_valid(&parallel, &problem);
    }
}

#[test]
fn default_portfolio_includes_baselines_and_wins() {
    let problem = EncodingProblem::full_sat(3, Objective::MajoranaWeight);
    let outcome = compile(&problem, &EngineConfig::default());
    // N=3 full-SAT optimum from the paper's tables: strictly below BK.
    let sequential = solve_optimal(&problem, &DescentConfig::default());
    assert_eq!(outcome.weight(), sequential.weight());
    assert!(outcome.optimal_proved);
    assert!(
        outcome.report.workers.len() >= 5,
        "default portfolio races SAT lanes and baselines"
    );
    assert_valid(&outcome, &problem);
}

#[test]
fn hamiltonian_objective_runs_annealing_lane() {
    let monomials = vec![
        MajoranaMonomial::from_sorted(vec![0, 1]),
        MajoranaMonomial::from_sorted(vec![2, 3]),
        MajoranaMonomial::from_sorted(vec![0, 1, 2, 3]),
    ];
    let problem = EncodingProblem::full_sat(2, Objective::HamiltonianWeight(monomials));
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
    assert!(!first.from_cache);
    assert!(first.optimal_proved);

    let started = Instant::now();
    let second = compile(&problem, &config);
    let elapsed = started.elapsed();
    assert!(second.from_cache, "second run must hit the cache");
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
    assert!(!compile(&maj, &config).from_cache);
    let ham_run = compile(&ham, &config);
    assert!(
        !ham_run.from_cache,
        "different objective must not reuse the majorana entry"
    );
    // Both entries coexist afterwards.
    assert!(compile(&maj, &config).from_cache);
    assert!(compile(&ham, &config).from_cache);
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
        assert!(!compile(&problem, &config).from_cache);
    }
    let fresh_config = EngineConfig {
        strategies: three_descent_lanes(),
        cache_dir: Some(dir.clone()),
        ..EngineConfig::default()
    };
    assert!(compile(&problem, &fresh_config).from_cache);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn total_timeout_cancels_a_hopeless_run_promptly() {
    // 7 modes without algebraic independence is far beyond what a few
    // hundred milliseconds can prove optimal; the engine must stop on its
    // deadline (through the solver stop flag) and still return the best
    // incumbent (at worst the BK baseline).
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
            Strategy::Baseline(BaselineKind::BravyiKitaev),
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
    // Structure γ₃γ₅: the ternary tree encodes it at weight 1, but the
    // best *pair permutation* of Bravyi-Kitaev only reaches weight 2
    // (verified by brute force over all 3! permutations). Annealing is a
    // pure pair-permutation search, so a BK-based annealing lane can never
    // reach weight 1 from its own base — it must adopt the ternary-tree
    // baseline's incumbent mid-race and re-anneal from there.
    // Vacuum condition off: the ternary tree does not satisfy the XY-pair
    // constraint, and the lane under test needs it as a publishable
    // incumbent.
    let monomials = vec![MajoranaMonomial::from_sorted(vec![3, 5])];
    let problem = EncodingProblem::new(3, Objective::HamiltonianWeight(monomials))
        .with_vacuum_condition(false);
    let strategies = vec![
        Strategy::Baseline(BaselineKind::TernaryTree),
        Strategy::Anneal {
            base: BaselineKind::BravyiKitaev,
            schedule: AnnealConfig::default(),
        },
    ];

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
            strategies: vec![
                strategies[0].clone(),
                Strategy::Anneal {
                    base: BaselineKind::BravyiKitaev,
                    schedule: AnnealConfig {
                        reseed_t0: None,
                        ..AnnealConfig::default()
                    },
                },
            ],
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
    // other lane has exited without a certificate (here the baseline,
    // which runs before the annealer starts), nobody is left to improve
    // the incumbent and the annealer must exit instead of sleeping out
    // the whole (here: enormous) total_timeout.
    let monomials = vec![MajoranaMonomial::from_sorted(vec![0, 3])];
    let problem = EncodingProblem::new(5, Objective::HamiltonianWeight(monomials));
    let config = EngineConfig {
        strategies: vec![
            Strategy::Baseline(BaselineKind::BravyiKitaev),
            Strategy::Anneal {
                base: BaselineKind::BravyiKitaev,
                schedule: AnnealConfig::default(),
            },
        ],
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
            base: BaselineKind::BravyiKitaev,
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
    // leave the others, and the race, waiting forever. N=4 takes a
    // running lane some 20 ms, long enough for the other three to be
    // queued when it finishes.
    let problem = EncodingProblem::full_sat(4, Objective::MajoranaWeight);
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
    let problem = EncodingProblem::full_sat(3, Objective::MajoranaWeight);
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
    assert!(second.from_cache);
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
    let problem = EncodingProblem::full_sat(2, Objective::MajoranaWeight);
    let captured: std::sync::Mutex<Option<engine::RaceBridge>> = std::sync::Mutex::new(None);
    let outcome = engine::compile_bridged(&problem, &EngineConfig::default(), |bridge| {
        *captured.lock().unwrap() = Some(bridge);
    });
    let bridge = captured.into_inner().unwrap().expect("hook ran");
    assert_eq!(outcome.weight(), Some(6));
    assert!(outcome.optimal_proved);
    assert_eq!(bridge.bound.get(), 6, "bound handle tracks the incumbent");
    assert_eq!(
        bridge.floor.load(std::sync::atomic::Ordering::Relaxed),
        6,
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
