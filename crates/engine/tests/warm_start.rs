//! Differential tests of cross-size warm-start transfer: a cold portfolio
//! and one warm-started from an embedded smaller optimum must certify the
//! *same* optimum, the warm race must open at (or below) the cold race's
//! first incumbent, and on one deterministic lane the warm descent must
//! open at or below the embedded weight and take strictly fewer improving
//! steps to the floor.

use engine::{compile, CacheStatus, EngineConfig, EngineOutcome, EventKind, Strategy};
use fermihedral::{EncodingProblem, Objective};
use pauli::PauliString;
use sat::{ExportLbd, RestartPolicyKind};
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

fn tmp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fermihedral-warmstart-test-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn descent_lanes() -> Vec<Strategy> {
    vec![
        Strategy::SatDescent {
            seed: 1,
            random_branch: 0.0,
            bk_phase_hint: true,
            restart: RestartPolicyKind::default(),
            export_lbd: ExportLbd::default(),
        },
        Strategy::SatDescent {
            seed: 2,
            random_branch: 0.02,
            bk_phase_hint: false,
            restart: RestartPolicyKind::Geometric {
                initial: 100,
                factor: 1.5,
            },
            export_lbd: ExportLbd::default(),
        },
        Strategy::SatDescent {
            seed: 3,
            random_branch: 0.1,
            bk_phase_hint: false,
            restart: RestartPolicyKind::Fixed { interval: 512 },
            export_lbd: ExportLbd::default(),
        },
    ]
}

fn total_conflicts(outcome: &EngineOutcome) -> u64 {
    outcome.report.workers.iter().map(|w| w.conflicts).sum()
}

/// How many `Improved` steps the run's lanes recorded.
fn improved_steps(outcome: &EngineOutcome) -> usize {
    let events = outcome.report.workers.iter().flat_map(|w| &w.events);
    events
        .filter(|e| matches!(e.kind, EventKind::Improved(_)))
        .count()
}

/// Weight of the earliest `Improved` event across all workers — the
/// race's first incumbent.
fn first_incumbent(outcome: &EngineOutcome) -> usize {
    outcome
        .report
        .workers
        .iter()
        .flat_map(|w| &w.events)
        .filter_map(|e| match e.kind {
            EventKind::Improved(w) => Some((e.at, w)),
            _ => None,
        })
        .min_by_key(|(at, _)| *at)
        .map(|(_, w)| w)
        .expect("a run that certified must have found an incumbent")
}

/// The cold/warm differential on `small → large` full-SAT instances.
fn differential(small: usize, large: usize, timeout: Duration) {
    let dir = tmp_cache(&format!("diff-{small}-{large}"));
    let large_problem = EncodingProblem::full_sat(large, Objective::MajoranaWeight);

    // Cold: no cache at all.
    let cold = compile(
        &large_problem,
        &EngineConfig {
            strategies: descent_lanes(),
            total_timeout: Some(timeout),
            ..EngineConfig::default()
        },
    );
    assert!(cold.optimal_proved, "cold N={large} must certify");
    assert!(cold.report.warm_start.is_none(), "cold run warm-started");

    // Seed the cache (and the cross-size index) with the small optimum.
    let seed = compile(
        &EncodingProblem::full_sat(small, Objective::MajoranaWeight),
        &EngineConfig {
            strategies: descent_lanes(),
            total_timeout: Some(timeout),
            cache_dir: Some(dir.clone()),
            ..EngineConfig::default()
        },
    );
    assert!(seed.optimal_proved, "seed N={small} must certify");

    // Warm: same configuration as cold, plus the seeded cache. The
    // same-size lookup misses, the cross-size index answers.
    let warm = compile(
        &large_problem,
        &EngineConfig {
            strategies: descent_lanes(),
            total_timeout: Some(timeout),
            cache_dir: Some(dir.clone()),
            ..EngineConfig::default()
        },
    );
    assert!(warm.optimal_proved, "warm N={large} must certify");
    assert_eq!(
        warm.weight(),
        cold.weight(),
        "cold and warm-started races must certify the same optimum"
    );
    assert_eq!(warm.report.cache, CacheStatus::HitCrossSize);
    assert_eq!(warm.report.cache_counters.hit_cross_size, 1);
    let warm_start = warm
        .report
        .warm_start
        .as_ref()
        .expect("warm run must report its warm start");
    assert_eq!(warm_start.source, "cross-size");
    assert_eq!(warm_start.from_modes, Some(small));

    // The embedded incumbent is available at t = 0; it must be at least
    // as good as whatever the cold race found *first*.
    assert!(
        warm_start.weight <= first_incumbent(&cold),
        "warm initial incumbent {} worse than cold first incumbent {}",
        warm_start.weight,
        first_incumbent(&cold)
    );
    // And the embedding is a real upper bound: never below the optimum.
    assert!(warm_start.weight >= warm.weight().unwrap());

    // What a warm start guarantees, on a single lane whose search is
    // deterministic: the descent opens at or below the embedded weight —
    // its first solver call already assumes `weight < embedded` — and so
    // takes strictly fewer improving steps to the floor than the cold
    // lane, which starts from the Bravyi-Kitaev bound. Total conflicts get
    // a loose guard only — a warm start must not double the work — because
    // the floor proof dominates them and is the same proof either way
    // (N=3 → N=4: 1,458 warm against 1,219 cold; N=4 → N=5, where the
    // embedded N=4 optimum already is the optimum: 50,421 against 56,005).
    let single_dir = tmp_cache(&format!("diff-single-{small}-{large}"));
    let single_lane = |problem: &EncodingProblem, cache: bool| {
        compile(
            problem,
            &EngineConfig {
                strategies: descent_lanes()[..1].to_vec(),
                total_timeout: Some(timeout),
                cache_dir: cache.then(|| single_dir.clone()),
                ..EngineConfig::default()
            },
        )
    };
    let small_problem = EncodingProblem::full_sat(small, Objective::MajoranaWeight);
    assert!(single_lane(&small_problem, true).optimal_proved);
    let cold_lane = single_lane(&large_problem, false);
    let warm_lane = single_lane(&large_problem, true);
    assert!(cold_lane.optimal_proved && warm_lane.optimal_proved);
    assert_eq!(warm_lane.report.cache, CacheStatus::HitCrossSize);
    assert_eq!(warm_lane.weight(), cold_lane.weight());
    let conflicts = format!(
        "warm lane spent {} conflicts, cold lane {}",
        total_conflicts(&warm_lane),
        total_conflicts(&cold_lane)
    );
    let embedded = warm_lane.report.warm_start.as_ref().unwrap().weight;
    let opening = &warm_lane.report.workers[0].events[0];
    assert!(
        match opening.kind {
            EventKind::Improved(w) => w < embedded,
            EventKind::ProvedFloor(bound) => bound <= embedded,
            _ => false,
        },
        "warm lane opened with {opening:?}, embedded weight {embedded}; {conflicts}"
    );
    assert!(
        improved_steps(&warm_lane) < improved_steps(&cold_lane),
        "warm lane took {} improving steps, cold lane {}; {conflicts}",
        improved_steps(&warm_lane),
        improved_steps(&cold_lane)
    );
    assert!(
        total_conflicts(&warm_lane) <= 2 * total_conflicts(&cold_lane),
        "a warm start more than doubled the deterministic lane's work: {conflicts}"
    );
    println!("N={small}→{large}: {conflicts}");
    std::fs::remove_dir_all(&single_dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn warm_started_4_mode_race_matches_cold_optimum() {
    // N=3 → N=4 full SAT: the acceptance instance. The cold N=4 optimum
    // is 16; the N=3 optimum (11) embeds at weight 11 + 2·(parity + 1).
    differential(3, 4, Duration::from_secs(120));
}

#[test]
fn warm_started_5_mode_race_matches_cold_optimum() {
    // N=4 → N=5: seconds with the qubit-order block (hours without). The
    // N=4 optimum (16) embeds at 22, which is the N=5 optimum.
    differential(4, 5, Duration::from_secs(10 * 60));
}

#[test]
fn cross_size_prefers_the_largest_cached_size() {
    // With N=2 *and* N=3 cached, an N=4 compile must embed from N=3.
    let dir = tmp_cache("largest");
    let config = |cache: bool| EngineConfig {
        strategies: descent_lanes(),
        total_timeout: Some(Duration::from_secs(120)),
        cache_dir: cache.then(|| dir.clone()),
        ..EngineConfig::default()
    };
    for n in [2usize, 3] {
        let seeded = compile(
            &EncodingProblem::full_sat(n, Objective::MajoranaWeight),
            &config(true),
        );
        assert!(seeded.optimal_proved);
    }
    let warm = compile(
        &EncodingProblem::full_sat(4, Objective::MajoranaWeight),
        &config(true),
    );
    assert_eq!(
        warm.report.warm_start.as_ref().and_then(|w| w.from_modes),
        Some(3)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cross_size_respects_problem_family_boundaries() {
    // A cached full-SAT N=2 optimum must NOT warm-start an N=3 problem
    // with different constraint toggles (its embedding may not even be
    // feasible there, and the family key must keep them apart).
    let dir = tmp_cache("family");
    let seeded = compile(
        &EncodingProblem::full_sat(2, Objective::MajoranaWeight),
        &EngineConfig {
            strategies: descent_lanes(),
            cache_dir: Some(dir.clone()),
            ..EngineConfig::default()
        },
    );
    assert!(seeded.optimal_proved);
    let other_family = compile(
        &EncodingProblem::new(3, Objective::MajoranaWeight).with_vacuum_condition(false),
        &EngineConfig {
            strategies: descent_lanes(),
            cache_dir: Some(dir.clone()),
            ..EngineConfig::default()
        },
    );
    assert_eq!(other_family.report.cache, CacheStatus::Miss);
    assert!(other_family.report.warm_start.is_none());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Encodings that must not get past the engine's trust boundary, from
/// whichever side they arrive: shape-correct but algebraically invalid
/// (XX/YY commute); strings of mixed widths (comparing them panics if
/// nothing checks first); a uniform *wrong* width (these four do
/// anticommute — on three qubits); and the wrong number of strings.
fn untrustworthy() -> [(&'static str, Vec<PauliString>); 4] {
    let text = |t: &[&str]| {
        t.iter()
            .map(|s| PauliString::from_str(s).unwrap())
            .collect()
    };
    [
        ("invalid", text(&["XX", "YY", "ZI", "IZ"])),
        ("mixed widths", text(&["XX", "Y", "ZX", "ZY"])),
        ("uniform wrong width", text(&["IIX", "IIY", "IXZ", "IYZ"])),
        ("wrong count", text(&["IX", "IY", "XZ"])),
    ]
}

#[test]
fn corrupt_warm_entry_is_rejected_at_the_trust_boundary() {
    // A same-size best-so-far entry whose strings are not an encoding of
    // this problem, with a *lying* weight below the true optimum.
    // Published unchecked, it would poison the shared bound (descent
    // would go straight to UNSAT at 5 and "certify" an invalid encoding
    // at a weight its strings never had). The engine must treat it as a
    // miss and certify the real optimum cold.
    for (what, strings) in untrustworthy() {
        let dir = tmp_cache("corrupt-warm");
        let problem = EncodingProblem::full_sat(2, Objective::MajoranaWeight);
        let cache = engine::SolutionCache::open(&dir).unwrap();
        let fp = engine::fingerprint(&problem);
        let poison = engine::CacheEntry {
            strings,
            weight: 5,
            optimal: false,
            strategy: "corrupt".into(),
        };
        cache.store(&fp, &poison).unwrap();

        let outcome = compile(
            &problem,
            &EngineConfig {
                strategies: descent_lanes(),
                cache_dir: Some(dir.clone()),
                ..EngineConfig::default()
            },
        );
        assert_eq!(outcome.weight(), Some(6), "{what}: optimum survives");
        assert!(outcome.optimal_proved, "{what}");
        assert_eq!(
            outcome.report.cache,
            CacheStatus::Miss,
            "{what}: an untrustworthy entry is a miss, not a warm start"
        );
        assert!(outcome.report.warm_start.is_none(), "{what}");
        // The poison file was deleted and the genuine result stored in
        // its place — without the repair, store_if_better would refuse
        // the real optimum against the lying weight 5 forever.
        let repaired = cache.lookup(&fp).expect("cache repaired");
        assert_eq!((repaired.weight, repaired.optimal), (6, true), "{what}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn lying_optimal_entry_is_demoted_and_repaired() {
    // Valid strings (the true N=2 optimum), but the file claims weight 5
    // and optimality. The claim must not be served: the strings are
    // demoted to a warm start at their *measured* weight, the race
    // certifies for real, and the corrected entry replaces the liar.
    let dir = tmp_cache("lying-optimal");
    let problem = EncodingProblem::full_sat(2, Objective::MajoranaWeight);
    let cache = engine::SolutionCache::open(&dir).unwrap();
    let fp = engine::fingerprint(&problem);
    cache
        .store(
            &fp,
            &engine::CacheEntry {
                strings: ["IX", "IY", "XZ", "YZ"]
                    .iter()
                    .map(|s| PauliString::from_str(s).unwrap())
                    .collect(),
                weight: 5,
                optimal: true,
                strategy: "liar".into(),
            },
        )
        .unwrap();

    let outcome = compile(
        &problem,
        &EngineConfig {
            strategies: descent_lanes(),
            cache_dir: Some(dir.clone()),
            ..EngineConfig::default()
        },
    );
    assert!(!outcome.from_cache, "a lying optimal claim must not serve");
    assert_eq!(outcome.weight(), Some(6));
    assert!(outcome.optimal_proved);
    let warm = outcome
        .report
        .warm_start
        .expect("strings demoted to warm start");
    assert_eq!(warm.source, "cache-entry");
    assert_eq!(warm.weight, 6, "re-measured, not the claimed 5");
    let repaired = cache.lookup(&fp).expect("cache repaired");
    assert_eq!((repaired.weight, repaired.optimal), (6, true));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn config_warm_hint_seeds_the_race() {
    // The shard-worker path: no cache, the hint arrives via the config.
    // A valid JW hint must be adopted (source "config") and the race
    // still certifies; an untrustworthy hint must be ignored entirely.
    let problem = EncodingProblem::full_sat(2, Objective::MajoranaWeight);
    let jw: Vec<PauliString> = ["IX", "IY", "XZ", "YZ"]
        .iter()
        .map(|s| PauliString::from_str(s).unwrap())
        .collect();
    let outcome = compile(
        &problem,
        &EngineConfig {
            strategies: descent_lanes(),
            warm_hint: Some(jw),
            ..EngineConfig::default()
        },
    );
    assert_eq!(outcome.weight(), Some(6));
    assert!(outcome.optimal_proved);
    let warm = outcome.report.warm_start.expect("hint adopted");
    assert_eq!(warm.source, "config");
    assert_eq!(warm.weight, 6, "re-measured, not trusted");

    for (what, hint) in untrustworthy() {
        let outcome = compile(
            &problem,
            &EngineConfig {
                strategies: descent_lanes(),
                warm_hint: Some(hint),
                ..EngineConfig::default()
            },
        );
        assert_eq!(outcome.weight(), Some(6), "{what}");
        assert!(
            outcome.report.warm_start.is_none(),
            "{what}: an untrustworthy config hint must be discarded"
        );
    }
}
