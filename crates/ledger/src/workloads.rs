//! The five workloads whose ops run one after another in this process:
//! three single-lane descents, CNF construction, and the portfolio race.

use crate::oracle::{self, Expected, ExpectedOutcome};
use crate::run::{probe_median_s, probe_s, Metrics, OpReport, RunSpec, Sequential};
use crate::trace::{span, Tracer};
use encodings::{Encoding, LinearEncoding};
use engine::{EngineConfig, EngineOutcome, EventKind};
use fermihedral::descent::{solve_optimal_instance, DescentConfig, DescentOutcome};
use fermihedral::{EncodingInstance, EncodingProblem, Objective};
use sat::{Cnf, Model, SolveResult, Totalizer};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Single-lane descents: certify_n4, budget_n5_full, anytime_n8_noai
// ---------------------------------------------------------------------------

/// A single-lane weight descent on one pre-built instance. All solver
/// options are the defaults the paper's pipeline uses: Bravyi-Kitaev
/// phase hint on, no random branching, Luby-128 restarts.
#[derive(Debug, Clone)]
pub struct Descent {
    name: &'static str,
    problem: EncodingProblem,
    /// Conflicts per solver call; `None` runs to the certificate.
    conflict_budget: Option<u64>,
}

impl Descent {
    /// `certify_n4`: full-SAT N=4 to the UNSAT certificate.
    pub fn certify_n4() -> Descent {
        Descent {
            name: "certify_n4",
            problem: EncodingProblem::full_sat(4, Objective::MajoranaWeight),
            conflict_budget: None,
        }
    }

    /// `budget_n5_full`: full-SAT N=5, 20,000 conflicts per call.
    pub fn budget_n5_full() -> Descent {
        Descent {
            name: "budget_n5_full",
            problem: EncodingProblem::full_sat(5, Objective::MajoranaWeight),
            conflict_budget: Some(20_000),
        }
    }

    /// `anytime_n8_noai`: N=8 without independence clauses (the rank
    /// check filters dependent models instead), 60,000 conflicts per call.
    pub fn anytime_n8_noai() -> Descent {
        Descent {
            name: "anytime_n8_noai",
            problem: EncodingProblem::new(8, Objective::MajoranaWeight),
            conflict_budget: Some(60_000),
        }
    }

    fn config(&self, budget: Option<u64>) -> DescentConfig {
        DescentConfig {
            conflict_budget: budget,
            validate_independence: true,
            bk_phase_hint: true,
            random_branch: 0.0,
            ..DescentConfig::default()
        }
    }
}

/// What a descent's set-up leaves behind.
pub struct DescentState {
    instance: EncodingInstance,
    config: DescentConfig,
    /// The hand-written answer; `None` in quick runs, whose reduced
    /// budget ends somewhere else.
    expected: Option<ExpectedOutcome>,
}

impl Sequential for Descent {
    type State = DescentState;

    fn setup(&self, spec: &RunSpec) -> DescentState {
        let instance = self.problem.build();
        // The discarded warm-up descent runs on a tenth of the budget, a
        // quick run's ops on a fortieth.
        let cut = |by: u64| self.conflict_budget.map(|b| b / by);
        if !spec.quick {
            std::hint::black_box(solve_optimal_instance(&instance, &self.config(cut(10))));
        }
        let quick_budgeted = spec.quick && self.conflict_budget.is_some();
        DescentState {
            instance,
            config: self.config(if spec.quick {
                cut(40)
            } else {
                self.conflict_budget
            }),
            expected: if quick_budgeted {
                None
            } else {
                Expected::load().outcome(self.name)
            },
        }
    }

    fn op(&self, state: &DescentState, tracer: Option<&Tracer>) -> OpReport {
        let outcome = {
            let _span = span(tracer, "ledger.core.descent");
            solve_optimal_instance(&state.instance, &state.config)
        };
        let mut report = descent_layers(&outcome);
        let Some(best) = &outcome.best else {
            report.failure = Some("descent found no encoding".into());
            return report;
        };
        let modes = self.problem.num_modes();
        if let Err(why) =
            oracle::check_pauli_strings(&best.strings, modes, None, best.weight, tracer)
        {
            report.failure = Some(why);
        }
        if let Some(expected) = state.expected {
            report.weight_gap = best.weight as i64 - expected.weight as i64;
            if outcome.optimal_proved != expected.optimal {
                report.failure = Some(format!(
                    "optimal_proved is {}, expected {}",
                    outcome.optimal_proved, expected.optimal
                ));
            }
        }
        report.counts = vec![
            ("conflicts", outcome.solver_stats.conflicts),
            ("propagations", outcome.solver_stats.propagations),
            ("weight", best.weight as u64),
        ];
        report
    }

    fn probe(&self, state: &DescentState, tracer: &Tracer, layers: &mut Metrics) {
        probe_instance_layers(&self.problem, Some(&state.instance), tracer, layers);
    }
}

/// The solver's own counters for one descent, as per-op layer values.
fn descent_layers(outcome: &DescentOutcome) -> OpReport {
    let stats = outcome.solver_stats;
    let solve_s: f64 = outcome.steps.iter().map(|s| s.elapsed.as_secs_f64()).sum();
    let per = |a: u64, b: f64| if b > 0.0 { a as f64 / b } else { 0.0 };
    OpReport {
        layers: vec![
            ("sat.solver.conflicts", stats.conflicts as f64),
            ("sat.solver.propagations", stats.propagations as f64),
            ("sat.solver.decisions", stats.decisions as f64),
            ("sat.solver.restarts", stats.restarts as f64),
            ("sat.solver.db_reductions", stats.db_reductions as f64),
            ("sat.solver.deleted_clauses", stats.deleted_clauses as f64),
            ("sat.solver.learnt_clauses", stats.learnt_clauses as f64),
            ("sat.solver.conflicts_per_s", per(stats.conflicts, solve_s)),
            (
                "sat.solver.props_per_conflict",
                per(stats.propagations, stats.conflicts as f64),
            ),
        ],
        ..OpReport::default()
    }
}

// ---------------------------------------------------------------------------
// construct_n7_full
// ---------------------------------------------------------------------------

/// `construct_n7_full`: build the CNF, write DIMACS to memory, load a
/// solver — the paper's "hand the instance to Kissat" use, no search.
#[derive(Debug, Clone)]
pub struct Construct {
    problem: EncodingProblem,
}

impl Construct {
    /// The full-SAT N=7 instance (N=5 in quick runs).
    pub fn n7_full(quick: bool) -> Construct {
        let modes = if quick { 5 } else { 7 };
        Construct {
            problem: EncodingProblem::full_sat(modes, Objective::MajoranaWeight),
        }
    }
}

impl Sequential for Construct {
    type State = ();

    fn setup(&self, spec: &RunSpec) {
        if !spec.quick {
            std::hint::black_box(self.op(&(), None));
        }
    }

    fn op(&self, _state: &(), tracer: Option<&Tracer>) -> OpReport {
        let instance = {
            let _span = span(tracer, "ledger.core.instance.build");
            self.problem.build()
        };
        let mut dimacs = Vec::new();
        let written = {
            let _span = span(tracer, "ledger.sat.dimacs.write");
            instance.write_dimacs(&mut dimacs)
        };
        let solver = {
            let _span = span(tracer, "ledger.sat.solver.load");
            instance.solver()
        };

        let stats = instance.stats();
        let mut report = OpReport {
            counts: vec![
                ("vars", stats.num_vars as u64),
                ("clauses", stats.num_clauses as u64),
                ("literals", stats.num_literals as u64),
                ("dimacs_bytes", dimacs.len() as u64),
            ],
            ..OpReport::default()
        };
        // The DIMACS header is the program's own statement of what it
        // wrote; the solver must have been handed the same variables.
        let header = format!("p cnf {} {}\n", stats.num_vars, stats.num_clauses);
        if let Err(e) = written {
            report.failure = Some(format!("write_dimacs failed: {e}"));
        } else if !dimacs
            .split_inclusive(|&b| b == b'\n')
            .any(|line| line == header.as_bytes())
        {
            report.failure = Some(format!("DIMACS lacks the header {header:?}"));
        } else if solver.num_vars() != stats.num_vars {
            report.failure = Some(format!(
                "solver holds {} variables, the CNF {}",
                solver.num_vars(),
                stats.num_vars
            ));
        }
        report
    }

    fn probe(&self, _state: &(), tracer: &Tracer, layers: &mut Metrics) {
        probe_instance_layers(&self.problem, None, tracer, layers);
    }
}

// ---------------------------------------------------------------------------
// race_n4
// ---------------------------------------------------------------------------

/// `race_n4`: `certify_n4`'s problem through `engine::compile` with the
/// default portfolio and no cache.
#[derive(Debug, Clone)]
pub struct Race {
    problem: EncodingProblem,
    config: EngineConfig,
}

impl Race {
    /// Full-SAT N=4, `EngineConfig::default()` plus a 30 s total timeout.
    pub fn n4() -> Race {
        Race {
            problem: EncodingProblem::full_sat(4, Objective::MajoranaWeight),
            config: EngineConfig {
                total_timeout: Some(Duration::from_secs(30)),
                ..EngineConfig::default()
            },
        }
    }
}

/// Discarded races before the first timed one.
const RACE_WARMUP_OPS: usize = 2;

impl Sequential for Race {
    type State = Option<ExpectedOutcome>;

    fn setup(&self, spec: &RunSpec) -> Option<ExpectedOutcome> {
        if !spec.quick {
            for _ in 0..RACE_WARMUP_OPS {
                std::hint::black_box(engine::compile(&self.problem, &self.config));
            }
        }
        // Same problem as certify_n4, so the same hand-written answer.
        Expected::load().outcome("certify_n4")
    }

    fn op(&self, expected: &Option<ExpectedOutcome>, tracer: Option<&Tracer>) -> OpReport {
        let outcome = {
            let _span = span(tracer, "ledger.engine.compile");
            engine::compile(&self.problem, &self.config)
        };
        let mut report = race_layers(&outcome);
        let Some(best) = &outcome.best else {
            report.failure = Some("race found no encoding".into());
            return report;
        };
        let modes = self.problem.num_modes();
        if let Err(why) =
            oracle::check_pauli_strings(&best.strings, modes, None, best.weight, tracer)
        {
            report.failure = Some(why);
        }
        if let Some(expected) = expected {
            report.weight_gap = best.weight as i64 - expected.weight as i64;
            if outcome.optimal_proved != expected.optimal {
                report.failure = Some("race ended without its optimality certificate".into());
            }
        }
        // Which lane wins, and after how many conflicts, depends on thread
        // timing; only the answer repeats exactly.
        report.counts = vec![("weight", best.weight as u64)];
        report
    }

    fn probe(&self, _expected: &Option<ExpectedOutcome>, tracer: &Tracer, layers: &mut Metrics) {
        probe_instance_layers(&self.problem, None, tracer, layers);
        let outcome = engine::compile(&self.problem, &self.config);
        probe_engine_layers(&self.problem, &outcome, tracer, layers);
    }
}

/// Race bookkeeping from the engine's own report, as per-op layer values.
fn race_layers(outcome: &EngineOutcome) -> OpReport {
    let workers = &outcome.report.workers;
    // A lane that was still queued for a heavy slot when the race was
    // decided reports a zero-length, cancelled timeline.
    let ran = |w: &&engine::WorkerReport| !(w.cancelled && w.started_at == w.finished_at);
    let useful = |w: &&engine::WorkerReport| {
        w.events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Improved(_) | EventKind::ProvedFloor(_)))
    };
    let lanes_run = workers.iter().filter(ran).count() as f64;
    let useful_lanes = workers.iter().filter(useful).count() as f64;
    let sum = |f: fn(&engine::WorkerReport) -> u64| workers.iter().map(f).sum::<u64>() as f64;
    let total_conflicts = sum(|w| w.conflicts);
    let useful_conflicts: f64 = workers
        .iter()
        .filter(useful)
        .map(|w| w.conflicts as f64)
        .sum();
    // The lane the result waited for: the longest-running useful one.
    let busiest_useful_s = workers
        .iter()
        .filter(useful)
        .map(|w| (w.finished_at.saturating_sub(w.started_at)).as_secs_f64())
        .fold(0.0, f64::max);
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let imported = sum(|w| w.clauses_imported);
    OpReport {
        layers: vec![
            (
                "engine.portfolio.overhead_s",
                outcome.report.total_elapsed.as_secs_f64() - busiest_useful_s,
            ),
            ("engine.portfolio.lanes_run", lanes_run),
            (
                "engine.portfolio.useful_lane_share",
                share(useful_lanes, lanes_run),
            ),
            ("engine.portfolio.total_conflicts", total_conflicts),
            (
                "engine.portfolio.loser_conflict_share",
                share(total_conflicts - useful_conflicts, total_conflicts),
            ),
            ("sat.solver.conflicts", total_conflicts),
            ("sat.solver.propagations", sum(|w| w.propagations)),
            ("sat.shared.exported", sum(|w| w.clauses_exported)),
            ("sat.shared.imported", imported),
            ("sat.shared.promoted", sum(|w| w.clauses_promoted)),
            (
                "sat.shared.import_useful_share",
                share(sum(|w| w.imported_reasons), imported),
            ),
        ],
        ..OpReport::default()
    }
}

// ---------------------------------------------------------------------------
// Layer probes
// ---------------------------------------------------------------------------

/// Times the engine's bookkeeping functions on one compiled problem.
pub fn probe_engine_layers(
    problem: &EncodingProblem,
    outcome: &EngineOutcome,
    tracer: &Tracer,
    layers: &mut Metrics,
) {
    layers.insert(
        "engine.fingerprint.fingerprint_s",
        probe_median_s(tracer, "ledger.engine.fingerprint", 5, 200, || {
            engine::fingerprint(problem)
        }),
    );
    layers.insert(
        "engine.report.to_json_s",
        probe_median_s(tracer, "ledger.engine.report.to_json", 5, 50, || {
            outcome.report.to_json().to_json()
        }),
    );
}

/// A model of the instance, found from the Bravyi-Kitaev phases the
/// descent also starts from.
fn any_model(instance: &EncodingInstance) -> Option<Model> {
    let layout = instance.layout();
    let mut solver = instance.solver();
    let bk = LinearEncoding::bravyi_kitaev(layout.num_modes()).majoranas();
    for (s, string) in bk.iter().enumerate() {
        for q in 0..layout.num_modes() {
            let (b1, b2) = pauli::encoding::op_to_bits(string.string().get(q));
            for (var, phase) in [(layout.b1(s, q), b1), (layout.b2(s, q), b2)] {
                solver.set_phase(var, phase);
                solver.boost_activity(var, 1.0);
            }
        }
    }
    solver.set_conflict_budget(Some(10_000));
    match solver.solve() {
        SolveResult::Sat(model) => Some(model),
        _ => None,
    }
}

/// Times the construction layers on the workload's own problem: the
/// build and its split by constraint family (a family's cost is the
/// build with it minus the build without it), the totalizer alone, the
/// DIMACS writer, the solver load, and model decode.
pub fn probe_instance_layers(
    problem: &EncodingProblem,
    built: Option<&EncodingInstance>,
    tracer: &Tracer,
    layers: &mut Metrics,
) {
    const BATCHES: usize = 3;
    let build_s = |p: &EncodingProblem| {
        probe_median_s(tracer, "ledger.core.instance.build", BATCHES, 1, || {
            p.build()
        })
    };
    let full_s = build_s(problem);
    layers.insert("core.instance.build_s", full_s);
    // A family cheaper than the build's own jitter reads as 0, not as a
    // negative time.
    if problem.has_algebraic_independence() {
        let without = build_s(&problem.clone().with_algebraic_independence(false));
        layers.insert("core.instance.alg_indep_s", (full_s - without).max(0.0));
    }
    let without_vacuum = build_s(&problem.clone().with_vacuum_condition(false));
    layers.insert("core.instance.vacuum_s", (full_s - without_vacuum).max(0.0));

    let owned;
    let instance = match built {
        Some(instance) => instance,
        None => {
            owned = problem.build();
            &owned
        }
    };
    let stats = instance.stats();
    layers.insert("core.instance.vars", stats.num_vars as f64);
    layers.insert("core.instance.clauses", stats.num_clauses as f64);
    layers.insert("core.instance.literals", stats.num_literals as f64);

    let inputs = instance.weight_upper_bound();
    let totalizer = || {
        let mut cnf = Cnf::new();
        let lits: Vec<sat::Lit> = cnf.new_vars(inputs).iter().map(|v| v.positive()).collect();
        Totalizer::new(&mut cnf, &lits);
        cnf.num_clauses()
    };
    layers.insert("sat.card.totalizer_clauses", totalizer() as f64);
    layers.insert(
        "sat.card.totalizer_s",
        probe_median_s(tracer, "ledger.sat.card.totalizer", BATCHES, 1, totalizer),
    );

    let mut dimacs = Vec::new();
    layers.insert(
        "sat.dimacs.write_s",
        probe_median_s(tracer, "ledger.sat.dimacs.write", BATCHES, 1, || {
            dimacs.clear();
            instance.write_dimacs(&mut dimacs)
        }),
    );
    layers.insert("sat.dimacs.bytes", dimacs.len() as f64);
    layers.insert(
        "sat.solver.load_s",
        probe_median_s(tracer, "ledger.sat.solver.load", BATCHES, 1, || {
            instance.solver()
        }),
    );
    if let Some(model) = any_model(instance) {
        layers.insert(
            "core.instance.decode_s",
            probe_s(tracer, "ledger.core.instance.decode", 200, || {
                instance.decode(&model)
            }),
        );
    }
}
