//! **Engine benchmark** — the portfolio compilation engine vs every single
//! strategy run alone, across mode counts, with machine-readable output.
//!
//! For each `N` this runs:
//!
//! * each single strategy by itself (three diversified SAT-descent lanes
//!   and the classical baselines),
//! * the full portfolio with clause sharing *disabled* (the incumbent-only
//!   baseline),
//! * the full portfolio with clause sharing *enabled* (the default),
//! * the portfolio again on a warm cache (the repeated-traffic case).
//!
//! and writes a JSON trajectory file (default `BENCH_engine.json`) with
//! wall time, achieved weight, optimality status, total conflicts, and
//! clause-exchange traffic per (modes, strategy) cell, so perf changes
//! across commits are diffable. The sharing acceptance bar: the sharing
//! portfolio must certify optimality in no more total conflicts (summed
//! across lanes) than the incumbent-only portfolio, within slack.
//!
//! Usage: `engine_portfolio [--max-modes 4] [--timeout 30] [--out BENCH_engine.json] [--csv] [--check] [--shards N] [--warm-start] [--trace-out PATH]`
//!
//! `--shards N` (N ≥ 2) adds a `portfolio-sharded<N>` cell per mode
//! count: the same default portfolio raced across N `fermihedral-shard`
//! worker processes, with the cross-process bridge traffic recorded in
//! the `bridge_clauses` column.
//!
//! `--warm-start` adds a `portfolio-warm` cell per mode count: the same
//! portfolio over a cache that accumulates across mode counts, so each
//! `N ≥ 3` run finds the `N − 1` optimum in the cross-size index and
//! opens from its embedding — the warm-vs-cold comparison the warm-start
//! transfer acceptance bar reads.
//!
//! `--trace-out PATH` enables the global telemetry registry and writes
//! every span recorded across the whole run — solver search phases,
//! descent iterations, engine lanes, and (with `--shards`) the merged
//! cross-process worker timelines — as one Chrome `trace_event` JSON
//! file loadable in Perfetto. It also reports the solver's recording
//! overhead on a deterministic single-lane N=4 cell (telemetry off vs
//! on), so regressions in the hot-path cost of tracing are visible.
//!
//! `--check` exits non-zero when any portfolio run fails to produce the
//! optimality certificate (the CI smoke gate); with `--shards` it also
//! requires live cross-process clause traffic and zero dead workers, and
//! with `--warm-start` it requires every `N ≥ 3` warm run to report a
//! cross-size hit and the deterministic `N ≥ 4` single lane to open at
//! or below the embedded weight and take strictly fewer improving steps
//! than its cold twin (both conflict totals are printed and recorded;
//! the floor proof dominates them, so the only bar on them is that the
//! warm lane spends at most twice the cold lane's). With
//! `--trace-out` it parses the written trace back and requires at least
//! one `engine.lane` span per descent lane — spanning more than one
//! process when sharded — plus nonzero cross-process wire-frame metrics.

use engine::json::{obj, Value};
use engine::{compile, BaselineKind, ClauseSharing, EngineConfig, EventKind, Strategy};
use fermihedral::{EncodingProblem, Objective};
use fermihedral_bench::args::Args;
use fermihedral_bench::report::Table;
use sat::{ExportLbd, RestartPolicyKind};
use std::time::Instant;

fn descent_lanes() -> Vec<Strategy> {
    // Export-LBD bounds are diversified like the engine's default
    // portfolio: one lane starts tight, one at the solver default, one
    // loose — each adapts within its own band from observed import
    // usefulness.
    vec![
        Strategy::SatDescent {
            seed: 1,
            random_branch: 0.0,
            bk_phase_hint: true,
            restart: RestartPolicyKind::Luby { unit: 128 },
            export_lbd: ExportLbd {
                floor: 2,
                initial: 3,
                ceiling: 6,
            },
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
            export_lbd: ExportLbd {
                floor: 3,
                initial: 6,
                ceiling: 12,
            },
        },
    ]
}

struct Cell {
    modes: usize,
    strategy: String,
    seconds: f64,
    weight: Option<usize>,
    optimal: bool,
    from_cache: bool,
    conflicts: u64,
    clauses_exported: u64,
    clauses_imported: u64,
    /// Imported clauses that later became propagation reasons — the
    /// "did sharing actually steer the search" signal, summed over lanes.
    imported_reasons: u64,
    /// Unit propagations summed over lanes — with `conflicts`, the raw
    /// search-throughput signal of the flat-arena hot path.
    propagations: u64,
    /// Conflicts per wall-clock second — the cross-commit regression
    /// metric the deterministic `descent-n4-gate` cell is gated on.
    conflicts_per_sec: f64,
    /// The highest adapted export-LBD threshold any lane ended at (0
    /// when no SAT lane ran or sharing was off).
    adapted_export_lbd: u32,
    /// Learnt clauses that crossed the coordinator's process bridge
    /// (nonzero only for sharded runs).
    bridge_clauses: u64,
    /// Worker processes that died mid-race (sharded runs).
    dead_shards: u64,
    /// Mode count of the embedded cross-size warm start, when the run
    /// opened from one (`portfolio-warm` cells).
    warm_from_modes: Option<usize>,
    /// Weight of the run's opening warm-start incumbent, if any.
    warm_weight: Option<usize>,
    /// The loosest bound the first lane's first finished solver call can
    /// have assumed: the weight it found plus one, or the floor it proved.
    opening_bound: Option<usize>,
    /// `Improved` steps summed over lanes.
    improved_steps: u64,
}

fn cell_of(outcome: &engine::EngineOutcome, label: &str, modes: usize, seconds: f64) -> Cell {
    let conflicts: u64 = outcome.report.workers.iter().map(|w| w.conflicts).sum();
    let events = || outcome.report.workers.iter().flat_map(|w| &w.events);
    Cell {
        modes,
        strategy: label.to_string(),
        seconds,
        weight: outcome.weight(),
        optimal: outcome.optimal_proved,
        from_cache: outcome.from_cache,
        conflicts,
        clauses_exported: outcome
            .report
            .workers
            .iter()
            .map(|w| w.clauses_exported)
            .sum(),
        clauses_imported: outcome
            .report
            .workers
            .iter()
            .map(|w| w.clauses_imported)
            .sum(),
        imported_reasons: outcome
            .report
            .workers
            .iter()
            .map(|w| w.imported_reasons)
            .sum(),
        propagations: outcome.report.workers.iter().map(|w| w.propagations).sum(),
        conflicts_per_sec: if seconds > 0.0 {
            conflicts as f64 / seconds
        } else {
            0.0
        },
        adapted_export_lbd: outcome
            .report
            .workers
            .iter()
            .map(|w| w.adapted_export_lbd)
            .max()
            .unwrap_or(0),
        bridge_clauses: outcome
            .report
            .shards
            .iter()
            .map(|s| s.clauses_received)
            .sum(),
        dead_shards: outcome.report.shards.iter().filter(|s| s.dead).count() as u64,
        warm_from_modes: outcome
            .report
            .warm_start
            .as_ref()
            .filter(|w| w.source == "cross-size")
            .and_then(|w| w.from_modes),
        warm_weight: outcome.report.warm_start.as_ref().map(|w| w.weight),
        opening_bound: events().find_map(|e| match e.kind {
            EventKind::Improved(w) => Some(w + 1),
            EventKind::ProvedFloor(bound) => Some(bound),
            _ => None,
        }),
        improved_steps: events()
            .filter(|e| matches!(e.kind, EventKind::Improved(_)))
            .count() as u64,
    }
}

fn run(problem: &EncodingProblem, config: &EngineConfig, label: &str, modes: usize) -> Cell {
    let started = Instant::now();
    let outcome = compile(problem, config);
    cell_of(&outcome, label, modes, started.elapsed().as_secs_f64())
}

fn run_sharded(
    problem: &EncodingProblem,
    config: &EngineConfig,
    label: &str,
    modes: usize,
) -> Cell {
    let started = Instant::now();
    let outcome = shard::compile_sharded(problem, config);
    cell_of(&outcome, label, modes, started.elapsed().as_secs_f64())
}

fn main() {
    let args = Args::parse(&[
        "max-modes",
        "timeout",
        "out",
        "csv",
        "check",
        "shards",
        "warm-start",
        "trace-out",
    ]);
    let max_modes = args.get_usize("max-modes", 4).min(8);
    let timeout = args.get_duration_secs("timeout", 30.0);
    let out_path = args
        .get_str("out")
        .unwrap_or("BENCH_engine.json")
        .to_string();
    let csv = args.get_bool("csv");
    let check = args.get_bool("check");
    let shards = args.get_usize("shards", 0);
    let warm_start = args.get_bool("warm-start");
    let trace_out = args.get_str("trace-out").map(str::to_string);
    if trace_out.is_some() {
        telemetry::global().enable();
    }

    println!("# Portfolio engine: single strategies vs the full race, per mode count");
    let mut table = Table::new(&[
        "N",
        "strategy",
        "time (s)",
        "weight",
        "optimal",
        "cache",
        "conflicts",
        "props",
        "cps",
        "exp",
        "imp",
        "reasons",
        "lbd",
        "bridge",
        "warm",
    ]);
    let mut cells: Vec<Cell> = Vec::new();

    let cache_dir =
        std::env::temp_dir().join(format!("fermihedral-engine-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);

    for modes in 2..=max_modes {
        let problem = EncodingProblem::full_sat(modes, Objective::MajoranaWeight);

        // Single lanes, each alone.
        let mut singles: Vec<(String, Vec<Strategy>)> = descent_lanes()
            .into_iter()
            .map(|lane| (lane.name(), vec![lane]))
            .collect();
        singles.push((
            "baseline[ternary-tree]".into(),
            vec![Strategy::Baseline(BaselineKind::TernaryTree)],
        ));
        singles.push((
            "baseline[bravyi-kitaev]".into(),
            vec![Strategy::Baseline(BaselineKind::BravyiKitaev)],
        ));
        for (label, strategies) in singles {
            let config = EngineConfig {
                strategies,
                total_timeout: Some(timeout),
                ..EngineConfig::default()
            };
            cells.push(run(&problem, &config, &label, modes));
        }

        // Both portfolio variants force one slot per SAT lane: on a host
        // with fewer cores the default concurrency bound would serialize
        // the lanes (the first one decides the race alone), making the
        // sharing-vs-incumbent-only comparison measure scheduler luck
        // instead of clause traffic. Time-sliced racing keeps it honest.
        let racing_slots = Some(descent_lanes().len());

        // The incumbent-only portfolio (sharing off): the baseline the
        // acceptance criterion compares total conflicts against.
        let no_sharing = EngineConfig {
            strategies: Vec::new(), // default portfolio
            total_timeout: Some(timeout),
            max_concurrency: racing_slots,
            clause_sharing: ClauseSharing {
                enabled: false,
                ..ClauseSharing::default()
            },
            ..EngineConfig::default()
        };
        cells.push(run(&problem, &no_sharing, "portfolio-noshare", modes));

        // The full portfolio with clause sharing (cold cache, then a
        // same-size repeat). The directory is fresh *per mode count*:
        // entries left by a smaller N would otherwise answer through the
        // cross-size index and silently warm this cell — the dedicated
        // `portfolio-warm` cell below measures exactly that.
        let portfolio = EngineConfig {
            strategies: Vec::new(), // default portfolio
            total_timeout: Some(timeout),
            max_concurrency: racing_slots,
            cache_dir: Some(cache_dir.join(format!("cold-{modes}"))),
            ..EngineConfig::default()
        };
        cells.push(run(&problem, &portfolio, "portfolio", modes));
        cells.push(run(&problem, &portfolio, "portfolio-cached", modes));

        // Cross-size warm-start transfer: cache directories accumulate
        // across the mode loop, so at N ≥ 3 the same-size lookup misses
        // but the N − 1 optimum is found in the size index, embedded, and
        // raced from.
        //
        // Two cells: `portfolio-warm` measures the realistic racing
        // configuration (its conflict totals carry scheduling noise — the
        // race cancels lanes at nondeterministic points), and
        // `descent-warm` repeats the seed-1 single lane over the warm
        // cache — fully deterministic, so its opening bound and improving
        // steps vs the cold seed-1 single cell are the strict warm-vs-cold
        // acceptance comparison `--check` gates on.
        if warm_start {
            let warm = EngineConfig {
                strategies: Vec::new(),
                total_timeout: Some(timeout),
                max_concurrency: racing_slots,
                cache_dir: Some(cache_dir.join("warm")),
                ..EngineConfig::default()
            };
            cells.push(run(&problem, &warm, "portfolio-warm", modes));

            let warm_single = EngineConfig {
                strategies: vec![descent_lanes().swap_remove(0)],
                total_timeout: Some(timeout),
                cache_dir: Some(cache_dir.join("warm-descent")),
                ..EngineConfig::default()
            };
            cells.push(run(&problem, &warm_single, "descent-warm", modes));
        }

        // The multi-process race: same default portfolio, lanes sharded
        // across `--shards` worker processes bridged by the coordinator
        // (cold cache — a separate directory, so the in-process runs
        // above cannot pre-answer it).
        if shards >= 2 {
            let sharded = EngineConfig {
                strategies: Vec::new(),
                total_timeout: Some(timeout),
                max_concurrency: racing_slots,
                shards,
                ..EngineConfig::default()
            };
            cells.push(run_sharded(
                &problem,
                &sharded,
                &format!("portfolio-sharded{shards}"),
                modes,
            ));
        }
    }

    // Solver-throughput regression gate: the deterministic seed-1 lane
    // alone at N=4 (no sharing, no cache, fixed Luby restarts — the run
    // is bit-reproducible, so its conflict count is a constant and the
    // only noise is wall clock). `--check` requires the certified
    // optimum (weight 16) and a conflicts-per-second floor far below
    // what the flat-arena hot path delivers, so only a gross hot-path
    // regression trips it on a noisy CI host.
    let gate_cell = {
        let problem = EncodingProblem::full_sat(4, Objective::MajoranaWeight);
        let config = EngineConfig {
            strategies: vec![descent_lanes().swap_remove(0)],
            total_timeout: Some(timeout),
            ..EngineConfig::default()
        };
        run(&problem, &config, "descent-n4-gate", 4)
    };
    cells.push(gate_cell);

    for cell in &cells {
        table.row(&[
            cell.modes.to_string(),
            cell.strategy.clone(),
            format!("{:.4}", cell.seconds),
            cell.weight.map_or("-".into(), |w| w.to_string()),
            cell.optimal.to_string(),
            if cell.from_cache { "hit" } else { "-" }.to_string(),
            cell.conflicts.to_string(),
            cell.propagations.to_string(),
            format!("{:.0}", cell.conflicts_per_sec),
            cell.clauses_exported.to_string(),
            cell.clauses_imported.to_string(),
            cell.imported_reasons.to_string(),
            if cell.adapted_export_lbd == 0 {
                "-".into()
            } else {
                cell.adapted_export_lbd.to_string()
            },
            cell.bridge_clauses.to_string(),
            cell.warm_from_modes
                .map_or("-".into(), |m| format!("embed{m}")),
        ]);
    }
    table.print(csv);

    // Machine-readable trajectory file.
    let doc = obj([
        ("benchmark", Value::Str("engine_portfolio".into())),
        ("version", Value::Num(1.0)),
        ("max_modes", Value::Num(max_modes as f64)),
        ("timeout_seconds", Value::Num(timeout.as_secs_f64())),
        (
            "cells",
            Value::Arr(
                cells
                    .iter()
                    .map(|c| {
                        obj([
                            ("modes", Value::Num(c.modes as f64)),
                            ("strategy", Value::Str(c.strategy.clone())),
                            ("seconds", Value::Num(c.seconds)),
                            (
                                "weight",
                                c.weight.map_or(Value::Null, |w| Value::Num(w as f64)),
                            ),
                            ("optimal", Value::Bool(c.optimal)),
                            ("from_cache", Value::Bool(c.from_cache)),
                            ("conflicts", Value::Num(c.conflicts as f64)),
                            ("clauses_exported", Value::Num(c.clauses_exported as f64)),
                            ("clauses_imported", Value::Num(c.clauses_imported as f64)),
                            ("imported_reasons", Value::Num(c.imported_reasons as f64)),
                            ("propagations", Value::Num(c.propagations as f64)),
                            ("conflicts_per_sec", Value::Num(c.conflicts_per_sec)),
                            (
                                "adapted_export_lbd",
                                Value::Num(c.adapted_export_lbd as f64),
                            ),
                            ("bridge_clauses", Value::Num(c.bridge_clauses as f64)),
                            ("dead_shards", Value::Num(c.dead_shards as f64)),
                            (
                                "warm_from_modes",
                                c.warm_from_modes
                                    .map_or(Value::Null, |m| Value::Num(m as f64)),
                            ),
                            (
                                "warm_weight",
                                c.warm_weight.map_or(Value::Null, |w| Value::Num(w as f64)),
                            ),
                            (
                                "opening_bound",
                                c.opening_bound
                                    .map_or(Value::Null, |w| Value::Num(w as f64)),
                            ),
                            ("improved_steps", Value::Num(c.improved_steps as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(&out_path, doc.to_json()).expect("write benchmark output");
    println!("\nwrote {out_path}");

    // The run's merged trace: every span the registry collected across
    // all cells — in-process lanes plus (when sharded) worker timelines
    // already shifted onto this process's clock by the coordinator.
    if let Some(path) = &trace_out {
        let registry = telemetry::global();
        telemetry::flush();
        let events = registry.drain();
        std::fs::write(
            path,
            telemetry::chrome::trace_json(&events, registry.dropped()),
        )
        .expect("write trace output");
        println!(
            "wrote {path} ({} trace events, {} dropped)",
            events.len(),
            registry.dropped()
        );
        print_recording_overhead(timeout);
    }

    // Sanity summary: the portfolio must not trail the fastest single
    // strategy that proved optimality by more than 20% (+ scheduling
    // slack) — the acceptance bar for incumbent sharing + cancellation.
    for modes in 2..=max_modes {
        let fastest_single = cells
            .iter()
            .filter(|c| c.modes == modes && c.optimal && !c.strategy.starts_with("portfolio"))
            .map(|c| c.seconds)
            .fold(f64::INFINITY, f64::min);
        let portfolio = cells
            .iter()
            .find(|c| c.modes == modes && c.strategy == "portfolio")
            .unwrap();
        if fastest_single.is_finite() {
            let slack = fastest_single * 1.2 + 0.05;
            let verdict = if portfolio.seconds <= slack {
                "ok"
            } else {
                "SLOW"
            };
            println!(
                "N={modes}: portfolio {:.4}s vs fastest optimal single {:.4}s [{verdict}]",
                portfolio.seconds, fastest_single
            );
        }
        // Warm-start bar: a cross-size-warmed run opens at the embedded
        // incumbent instead of descending from Bravyi-Kitaev, so it takes
        // fewer improving steps. Conflict totals are shown for context
        // (the floor proof, the same either way, dominates them); the
        // deterministic single-lane pair is the strict comparison.
        if let Some(warm) = cells
            .iter()
            .find(|c| c.modes == modes && c.strategy == "portfolio-warm")
        {
            println!(
                "N={modes}: warm portfolio {} conflicts (embedded from {:?} at weight {:?}) vs cold {}",
                warm.conflicts, warm.warm_from_modes, warm.warm_weight, portfolio.conflicts
            );
        }
        let cold_single_label = descent_lanes()[0].name();
        if let (Some(warm), Some(cold)) = (
            cells
                .iter()
                .find(|c| c.modes == modes && c.strategy == "descent-warm"),
            cells
                .iter()
                .find(|c| c.modes == modes && c.strategy == cold_single_label),
        ) {
            let verdict = match warm.warm_from_modes {
                Some(_) if warm.improved_steps < cold.improved_steps => "ok",
                // At small N the BK bound is near-optimal and the engine
                // withholds the embedded phase hint, so parity with cold
                // is the expected outcome there.
                Some(_) if warm.improved_steps == cold.improved_steps && modes < 4 => "ok (parity)",
                Some(_) => "NO-SAVINGS",
                None if modes == 2 => "ok (nothing smaller cached)",
                None => "NO-HIT",
            };
            println!(
                "N={modes}: warm single-lane {} improving steps from bound {:?} ({} conflicts) \
                 vs cold {} from {:?} ({} conflicts) [{verdict}]",
                warm.improved_steps,
                warm.opening_bound,
                warm.conflicts,
                cold.improved_steps,
                cold.opening_bound,
                cold.conflicts
            );
        }
        // Clause-sharing bar: certifying with sharing must not cost more
        // total conflicts (summed across lanes) than incumbent-only
        // racing. Scheduling noise gets a small multiplicative slack.
        let noshare = cells
            .iter()
            .find(|c| c.modes == modes && c.strategy == "portfolio-noshare")
            .unwrap();
        if portfolio.optimal && noshare.optimal {
            let verdict = if portfolio.conflicts as f64 <= noshare.conflicts as f64 * 1.1 + 50.0 {
                "ok"
            } else {
                "MORE-CONFLICTS"
            };
            println!(
                "N={modes}: sharing {} conflicts (exp {}, imp {}) vs incumbent-only {} [{verdict}]",
                portfolio.conflicts,
                portfolio.clauses_exported,
                portfolio.clauses_imported,
                noshare.conflicts
            );
        }
    }

    let gate = cells
        .iter()
        .find(|c| c.strategy == "descent-n4-gate")
        .expect("the gate cell always runs");
    println!(
        "N=4 gate: weight {:?} optimal {} in {:.4}s — {} conflicts ({:.0}/s), {} propagations",
        gate.weight,
        gate.optimal,
        gate.seconds,
        gate.conflicts,
        gate.conflicts_per_sec,
        gate.propagations
    );

    let _ = std::fs::remove_dir_all(&cache_dir);

    // CI gate: every portfolio run (sharing on, off, and sharded) must
    // have reached the optimality certificate; sharded runs big enough
    // to generate conflicts (N ≥ 3) must also show real cross-process
    // clause traffic and no dead workers.
    if check {
        let mut failures: Vec<String> = cells
            .iter()
            .filter(|c| c.strategy.starts_with("portfolio") && !c.optimal)
            .map(|c| format!("N={} {} uncertified", c.modes, c.strategy))
            .collect();
        failures.extend(
            cells
                .iter()
                .filter(|c| c.strategy.starts_with("portfolio-sharded"))
                .filter(|c| c.dead_shards > 0 || (c.modes >= 3 && c.bridge_clauses == 0))
                .map(|c| {
                    format!(
                        "N={} {}: bridge_clauses={} dead_shards={}",
                        c.modes, c.strategy, c.bridge_clauses, c.dead_shards
                    )
                }),
        );
        // Warm-start gate: every N ≥ 3 warm run (portfolio and
        // single-lane) must have opened from a cross-size embedding and
        // certified the optimum, and the deterministic single-lane warm
        // run must open at or below the embedded weight, beat its cold
        // twin on improving steps strictly, and not double its conflicts.
        let cold_single_label = descent_lanes()[0].name();
        for warm in cells
            .iter()
            .filter(|c| matches!(c.strategy.as_str(), "portfolio-warm" | "descent-warm"))
        {
            if !warm.optimal {
                failures.push(format!("N={} {} uncertified", warm.modes, warm.strategy));
            }
            if warm.modes >= 3 && warm.warm_from_modes.is_none() {
                failures.push(format!(
                    "N={} {}: no cross-size warm-start hit",
                    warm.modes, warm.strategy
                ));
            }
            // Strictly-fewer-steps bar at N ≥ 4 only: below that the
            // BK bound is already (near-)optimal and parity with cold is
            // correct.
            if warm.strategy == "descent-warm" && warm.modes >= 4 {
                let cold = cells
                    .iter()
                    .find(|c| c.modes == warm.modes && c.strategy == cold_single_label)
                    .expect("the seed-1 single cell runs for every mode count");
                if warm.opening_bound > warm.warm_weight {
                    failures.push(format!(
                        "N={} descent-warm: opened at bound {:?}, above the embedded weight {:?}",
                        warm.modes, warm.opening_bound, warm.warm_weight
                    ));
                }
                if warm.improved_steps >= cold.improved_steps {
                    failures.push(format!(
                        "N={} descent-warm: {} improving steps, not fewer than cold's {}",
                        warm.modes, warm.improved_steps, cold.improved_steps
                    ));
                }
                if warm.conflicts > 2 * cold.conflicts {
                    failures.push(format!(
                        "N={} descent-warm: {} conflicts, more than twice cold's {}",
                        warm.modes, warm.conflicts, cold.conflicts
                    ));
                }
            }
        }
        // Solver-throughput gate: the deterministic N=4 single lane must
        // certify weight 16 and sustain a conservative conflicts-per-
        // second floor (the flat-arena hot path measures an order of
        // magnitude above it on an idle host).
        const GATE_MIN_CPS: f64 = 2000.0;
        if gate.weight != Some(16) || !gate.optimal {
            failures.push(format!(
                "descent-n4-gate: weight {:?} optimal {} (want certified 16)",
                gate.weight, gate.optimal
            ));
        } else if gate.conflicts_per_sec < GATE_MIN_CPS {
            failures.push(format!(
                "descent-n4-gate: {:.0} conflicts/s under the {GATE_MIN_CPS} floor",
                gate.conflicts_per_sec
            ));
        }
        // Trace gate: the written trace must parse back, carry at least
        // one `engine.lane` span per descent lane, span more than one
        // process when sharded, and the sharded bridge must have recorded
        // live wire-frame metrics.
        if let Some(path) = &trace_out {
            match std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|json| {
                    telemetry::chrome::parse_trace_json(&json).map_err(|e| e.to_string())
                }) {
                Ok((events, _dropped)) => {
                    let lanes: Vec<_> = events.iter().filter(|e| e.name == "engine.lane").collect();
                    let want = descent_lanes().len();
                    if lanes.len() < want {
                        failures.push(format!(
                            "trace has {} engine.lane spans, need >= {want}",
                            lanes.len()
                        ));
                    }
                    if shards >= 2 {
                        let pids: std::collections::BTreeSet<u32> =
                            lanes.iter().map(|e| e.pid).collect();
                        if pids.len() < 2 {
                            failures.push(format!(
                                "sharded trace: engine.lane spans all come from {pids:?}, \
                                 expected more than one process"
                            ));
                        }
                        if telemetry::global()
                            .metrics()
                            .counter_sum("wire_frames_total")
                            == 0
                        {
                            failures.push("no cross-process wire-frame metrics recorded".into());
                        }
                    }
                }
                Err(e) => failures.push(format!("trace file {path} unparseable: {e}")),
            }
        }
        if !failures.is_empty() {
            eprintln!("CHECK FAILED: {failures:?}");
            std::process::exit(1);
        }
        println!("check: all portfolio runs certified optimal");
    }
}

/// Measures the wall-clock cost of span recording on the solver's hot
/// path: the deterministic seed-1 descent lane at N=4, telemetry off vs
/// on, best of three each. Reported rather than gated — timing noise on
/// shared CI hosts makes a hard bar flakier than it is useful; the
/// target is under 2%.
fn print_recording_overhead(timeout: std::time::Duration) {
    let registry = telemetry::global();
    let problem = EncodingProblem::full_sat(4, Objective::MajoranaWeight);
    let config = EngineConfig {
        strategies: vec![descent_lanes().swap_remove(0)],
        total_timeout: Some(timeout),
        ..EngineConfig::default()
    };
    let once = |enabled: bool| -> f64 {
        if enabled {
            registry.enable();
        } else {
            registry.disable();
        }
        let t0 = Instant::now();
        let outcome = compile(&problem, &config);
        assert!(outcome.optimal_proved, "overhead cell must certify");
        let elapsed = t0.elapsed().as_secs_f64();
        telemetry::flush();
        let _ = registry.drain();
        elapsed
    };
    // Interleave off/on pairs (rather than all-off then all-on) so slow
    // drift — thermal throttling, a busy co-tenant — hits both sides
    // equally instead of biasing whichever ran second.
    let (mut off, mut on) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..4 {
        off = off.min(once(false));
        on = on.min(once(true));
    }
    registry.enable();
    println!(
        "recording overhead (deterministic N=4 single lane): off {off:.4}s, on {on:.4}s ({:+.2}%)",
        (on - off) / off * 100.0
    );
}
