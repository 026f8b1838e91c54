//! Algorithm 1: weight descent to the optimal encoding.
//!
//! A SAT solver decides feasibility at a fixed weight bound; optimality
//! comes from *descending* the bound until UNSAT:
//!
//! 1. start from a known-feasible bound (Bravyi-Kitaev's weight — the
//!    paper's warm start, Section 3.6);
//! 2. solve under the assumption `weight < w`; a model yields an encoding
//!    of some weight `w′ < w`;
//! 3. set `w = w′` and repeat until the solver proves UNSAT (optimality
//!    certificate) or a time/conflict budget runs out (best-so-far is an
//!    upper bound, as in the paper's timeout-terminated runs).
//!
//! Bounds are solver *assumptions* over one totalizer, so learnt clauses
//! persist across descent steps.

use crate::instance::{EncodingInstance, EncodingProblem, Objective, SearchFormula};
use crate::symmetry::canonical_qubit_order;
use encodings::weight::{majorana_weight, structure_weight};
use encodings::{Encoding, LinearEncoding, MajoranaEncoding};
use pauli::{PauliString, PhasedString};
use sat::CancelToken;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A weight bound shared between concurrent searches of the *same*
/// problem (the portfolio engine's incumbent weight).
///
/// All clones share one atomic `usize` holding the best (lowest) objective
/// weight any cooperating worker has achieved so far. A descent
/// configured with a shared bound starts each step from
/// `min(own bound, shared bound)`, so one worker's improvement immediately
/// tightens every other worker's next assumption, and publishes its own
/// improvements back with [`tighten`](SharedBound::tighten).
#[derive(Debug, Clone)]
pub struct SharedBound {
    best: Arc<AtomicUsize>,
}

impl Default for SharedBound {
    fn default() -> Self {
        SharedBound::new()
    }
}

impl SharedBound {
    /// An unconstrained bound (`usize::MAX`).
    pub fn new() -> SharedBound {
        SharedBound {
            best: Arc::new(AtomicUsize::new(usize::MAX)),
        }
    }

    /// A bound primed with a known-feasible weight.
    pub fn with_weight(weight: usize) -> SharedBound {
        SharedBound {
            best: Arc::new(AtomicUsize::new(weight)),
        }
    }

    /// The current best weight (`usize::MAX` when nothing was published).
    pub fn get(&self) -> usize {
        self.best.load(Ordering::Relaxed)
    }

    /// Publishes an achieved weight; keeps the minimum. Returns `true`
    /// when `weight` improved the shared value.
    pub fn tighten(&self, weight: usize) -> bool {
        self.best.fetch_min(weight, Ordering::Relaxed) > weight
    }
}

/// Budgets and options for [`solve_optimal`].
#[derive(Debug, Clone)]
pub struct DescentConfig {
    /// Starting bound: the search assumes `weight < initial_weight`.
    /// `None` derives Bravyi-Kitaev's weight + 1 (paper Section 3.6).
    pub initial_weight: Option<usize>,
    /// Wall-clock limit per solver call.
    pub solve_timeout: Option<Duration>,
    /// Conflict limit per solver call.
    pub conflict_budget: Option<u64>,
    /// Overall wall-clock limit for the descent.
    pub total_timeout: Option<Duration>,
    /// Cooperative cancellation: when raised, the descent stops at the next
    /// checkpoint (including *inside* a running solver call) and returns
    /// best-so-far with [`DescentOutcome::cancelled`] set.
    pub cancel: Option<CancelToken>,
    /// Incumbent weight shared with concurrent searches of the same
    /// problem; see [`SharedBound`].
    pub shared_bound: Option<SharedBound>,
    /// Seed for the solver's branching randomization (portfolio
    /// diversity). `None` leaves the solver deterministic.
    pub solver_seed: Option<u64>,
    /// Fraction of solver decisions made on a random variable
    /// ([`sat::Solver::set_random_branch`]). Ignored without effect when 0.
    pub random_branch: f64,
    /// Check GF(2) algebraic independence of every model and reject a
    /// dependent one with a blocking clause. No search formula carries the
    /// `4^N` clauses, so this check is the only place the condition is
    /// stated; a problem whose paper formula includes them runs it whatever
    /// this says. It never fires — `2N` pairwise-anticommuting strings are
    /// always independent (the lemma in [`crate::instance`]) — and a hit
    /// would be logged as a warning.
    pub validate_independence: bool,
    /// Seed the solver's phase saving with the Bravyi-Kitaev assignment so
    /// the first solver call walks straight to a known-feasible model. At
    /// 10+ modes the anticommutativity XOR system is otherwise hard to
    /// satisfy from a cold start.
    pub bk_phase_hint: bool,
    /// Explicit warm-start strings (e.g. a cached best-so-far solution,
    /// or a smaller optimum lifted through `encodings::embed`).
    ///
    /// Precedence over `bk_phase_hint` is explicit: a *valid* hint —
    /// `2N` strings on `N` qubits forming an anticommuting, GF(2)-
    /// independent encoding — always wins. An invalid hint is **rejected**
    /// (recorded as [`DescentOutcome::hint_rejected`], so callers can
    /// surface the event) and the descent falls back to the Bravyi-Kitaev
    /// hint when `bk_phase_hint` is set, rather than silently seeding the
    /// solver with phases no feasible model has.
    pub phase_hint: Option<Vec<PauliString>>,
    /// Restart schedule for the lane's solver (`None` = the solver
    /// default, Luby with unit 128). Portfolio lanes diversify restart
    /// behavior through this.
    pub restart_policy: Option<sat::RestartPolicyKind>,
    /// Membership in a portfolio clause exchange
    /// ([`sat::SharedContext`]): the lane's solver exports its short
    /// learnt clauses and imports the peers' at restart boundaries. The
    /// one solver persists across all descent steps, so clauses learned
    /// at weight bound `k` seed the `k−1` round; exports are tagged with
    /// the bound they assumed and importers defer looser-bound clauses
    /// until their own descent catches up.
    pub clause_exchange: Option<sat::LaneHandle>,
    /// Bounds for the solver's adaptive export-LBD filter. `None` keeps
    /// whatever the exchange context configures (its own bounds when
    /// `clause_exchange` is set, the solver default otherwise); `Some`
    /// overrides them per lane, which is how portfolio lanes start tight
    /// or loose.
    pub export_lbd: Option<sat::ExportLbd>,
    /// Live witness publication: invoked with every *improved* encoding
    /// the moment the solver hands back its model, while the descent
    /// keeps running. `shared_bound` ships only the weight; anyone
    /// racing across a crash boundary needs the strings to travel too,
    /// or a killed worker takes its incumbent to the grave while the
    /// weight it already broadcast steers everyone else below a witness
    /// nobody holds.
    pub on_improve: Option<ImproveHook>,
}

/// A cloneable callback receiving each improved [`BestEncoding`] live
/// (see [`DescentConfig::on_improve`]). Wrapped so `DescentConfig` can
/// stay `Debug + Clone`.
#[derive(Clone)]
pub struct ImproveHook(Arc<dyn Fn(&BestEncoding) + Send + Sync>);

impl ImproveHook {
    /// Wraps a callback; it runs on the descent thread, so keep it
    /// cheap (store-and-signal, not recompute).
    pub fn new(hook: impl Fn(&BestEncoding) + Send + Sync + 'static) -> ImproveHook {
        ImproveHook(Arc::new(hook))
    }

    /// Invokes the callback.
    pub fn call(&self, best: &BestEncoding) {
        (self.0)(best)
    }
}

impl std::fmt::Debug for ImproveHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ImproveHook(..)")
    }
}

impl Default for DescentConfig {
    fn default() -> Self {
        DescentConfig {
            initial_weight: None,
            solve_timeout: None,
            conflict_budget: None,
            total_timeout: None,
            validate_independence: true,
            bk_phase_hint: true,
            phase_hint: None,
            cancel: None,
            shared_bound: None,
            solver_seed: None,
            random_branch: 0.0,
            restart_policy: None,
            clause_exchange: None,
            export_lbd: None,
            on_improve: None,
        }
    }
}

/// One solver call in the descent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DescentStep {
    /// The bound assumed for this call (`weight < bound`).
    pub bound: usize,
    /// What the solver returned.
    pub result: StepResult,
    /// Wall-clock time of the call.
    pub elapsed: Duration,
}

/// Outcome of one descent step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepResult {
    /// SAT: an encoding with this objective weight was found.
    Improved(usize),
    /// UNSAT: no encoding below the bound exists.
    Exhausted,
    /// The per-call budget ran out.
    BudgetExceeded,
    /// The cancellation token was raised during this call.
    Cancelled,
}

/// The best encoding found by a descent.
#[derive(Debug, Clone)]
pub struct BestEncoding {
    /// The `2N` Majorana strings.
    pub strings: Vec<PauliString>,
    /// Its objective weight.
    pub weight: usize,
}

impl BestEncoding {
    /// Wraps the strings as a [`MajoranaEncoding`] for the mapping and
    /// validation machinery.
    pub fn to_encoding(&self, name: impl Into<String>) -> MajoranaEncoding {
        MajoranaEncoding::from_strings(name, self.strings.iter().cloned())
            .expect("descent produces 2N equal-width strings")
    }
}

/// Result of [`solve_optimal`].
#[derive(Debug, Clone)]
pub struct DescentOutcome {
    /// Best encoding found, if any solver call succeeded.
    pub best: Option<BestEncoding>,
    /// True when UNSAT certified that `best` is optimal.
    pub optimal_proved: bool,
    /// Per-call log.
    pub steps: Vec<DescentStep>,
    /// When an UNSAT certificate was obtained: the bound it refuted — no
    /// encoding of the problem has objective weight below this value. Set
    /// even when this worker holds no (or a worse) encoding itself, which
    /// happens under a [`SharedBound`] when *another* worker owns the
    /// incumbent; the portfolio engine combines the two facts.
    pub proved_floor: Option<usize>,
    /// True when the descent was stopped by its cancellation token.
    pub cancelled: bool,
    /// True when [`DescentConfig::phase_hint`] was supplied but failed
    /// validation and was rejected (the Bravyi-Kitaev fallback applied
    /// instead, when configured).
    pub hint_rejected: bool,
    /// Final statistics of the lane's solver — conflicts/decisions plus
    /// the clause-exchange traffic (exported/imported/promoted) when the
    /// descent ran inside a portfolio context.
    pub solver_stats: sat::SolverStats,
}

impl DescentOutcome {
    /// The optimal/best weight if any encoding was found.
    pub fn weight(&self) -> Option<usize> {
        self.best.as_ref().map(|b| b.weight)
    }
}

/// GF(2) algebraic independence of decoded strings (cheap rank check).
fn independent(strings: &[PauliString]) -> bool {
    let phased: Vec<PhasedString> = strings.iter().cloned().map(PhasedString::from).collect();
    encodings::validate::algebraically_independent(&phased)
}

/// Whether an explicit phase hint is usable for this instance: the right
/// shape (`2N` strings on `N` qubits) and a genuinely valid encoding
/// (pairwise anticommuting, GF(2) independent). Phases from anything
/// weaker would steer the solver toward assignments no model has.
fn hint_usable(instance: &EncodingInstance, strings: &[PauliString]) -> bool {
    let layout = instance.layout();
    if strings.len() != layout.num_strings()
        || strings.iter().any(|s| s.num_qubits() != layout.num_modes())
    {
        return false;
    }
    let phased: Vec<PhasedString> = strings.iter().cloned().map(PhasedString::from).collect();
    encodings::validate::all_anticommute(&phased)
        && encodings::validate::algebraically_independent(&phased)
}

/// Whether this descent loads the search formula's qubit-order block. The
/// block shrinks refutations and makes models harder to find (both
/// measured in [`crate::symmetry`]), so it pays only when the run goes on
/// to its floor proof. Only problems small enough to reach it have a
/// block ([`crate::symmetry::MAX_ORDERED_MODES`]). A descent that ends at
/// the first call to exhaust a conflict budget is an anytime run — what it
/// returns is the best-so-far — and searches without it.
fn searches_ordered(search: &SearchFormula, config: &DescentConfig) -> bool {
    let gives_up = config.conflict_budget.is_some();
    search.has_order_block() && !gives_up
}

/// Seeds the solver's saved phases with an encoding's primary-variable
/// assignment (paper Eq. 7 bits). A solver that orders the qubit columns
/// gets the hint in that order: the textbook orientation contradicts the
/// ordering clauses, and a hint no model agrees with is worse than none
/// (see [`crate::symmetry`]).
fn apply_phase_hint(
    solver: &mut sat::Solver,
    instance: &EncodingInstance,
    hint: &[PauliString],
    ordered: bool,
) {
    let layout = instance.layout();
    debug_assert_eq!(hint.len(), layout.num_strings());
    let canonical;
    let strings = if ordered {
        canonical = canonical_qubit_order(hint);
        &canonical
    } else {
        hint
    };
    for (s, string) in strings.iter().enumerate() {
        for q in 0..layout.num_modes() {
            let (b1, b2) = pauli::encoding::op_to_bits(string.get(q));
            solver.set_phase(layout.b1(s, q), b1);
            solver.set_phase(layout.b2(s, q), b2);
            // Decide primaries before Tseitin auxiliaries: once all
            // primaries hold the hinted assignment, every gate output
            // follows by unit propagation without conflicts.
            solver.boost_activity(layout.b1(s, q), 1.0);
            solver.boost_activity(layout.b2(s, q), 1.0);
        }
    }
}

/// The warm-start weight: Bravyi-Kitaev evaluated under the problem's own
/// objective.
pub fn bravyi_kitaev_bound(problem: &EncodingProblem) -> usize {
    let bk = LinearEncoding::bravyi_kitaev(problem.num_modes());
    let strings = bk.majoranas();
    match problem.objective() {
        Objective::MajoranaWeight => majorana_weight(&strings),
        Objective::HamiltonianWeight(monomials) => structure_weight(&strings, monomials),
    }
}

/// Runs Algorithm 1 on a problem.
///
/// # Example
///
/// ```
/// use fermihedral::{EncodingProblem, Objective};
/// use fermihedral::descent::{solve_optimal, DescentConfig};
///
/// let problem = EncodingProblem::full_sat(1, Objective::MajoranaWeight);
/// let outcome = solve_optimal(&problem, &DescentConfig::default());
/// assert_eq!(outcome.weight(), Some(2)); // X, Y is optimal for one mode
/// assert!(outcome.optimal_proved);
/// ```
pub fn solve_optimal(problem: &EncodingProblem, config: &DescentConfig) -> DescentOutcome {
    let instance = problem.build();
    solve_optimal_instance(&instance, config)
}

/// Runs Algorithm 1 on a pre-built instance (lets callers reuse the CNF or
/// record its statistics).
pub fn solve_optimal_instance(
    instance: &EncodingInstance,
    config: &DescentConfig,
) -> DescentOutcome {
    let started = Instant::now();
    // Solver and bound assumptions both come from the search formula;
    // `instance` is consulted only for what every formula shares.
    let search = instance.search();
    let ordered = searches_ordered(&search, config);
    let mut solver = search.solver(ordered);
    let check_independence =
        config.validate_independence || instance.problem().has_algebraic_independence();
    solver.set_conflict_budget(config.conflict_budget);
    if let Some(cancel) = &config.cancel {
        solver.set_stop_flag(Some(cancel.flag()));
    }
    if let Some(seed) = config.solver_seed {
        solver.set_random_seed(seed);
    }
    if config.random_branch > 0.0 {
        solver.set_random_branch(config.random_branch);
    }
    if let Some(kind) = &config.restart_policy {
        solver.set_restart_policy(kind.build());
    }
    if let Some(handle) = &config.clause_exchange {
        solver.set_clause_exchange(Some(handle.clone()));
    }
    if let Some(bounds) = config.export_lbd {
        // After set_clause_exchange: the lane override beats the bounds
        // adopted from the exchange context.
        solver.set_export_lbd(bounds);
    }
    // Hint precedence: an explicit, *validated* hint beats the BK hint;
    // an invalid explicit hint is rejected (and reported) rather than
    // silently applied or silently shadowing the BK fallback.
    let mut hint_rejected = false;
    let explicit_hint = config.phase_hint.as_deref().filter(|hint| {
        let usable = hint_usable(instance, hint);
        hint_rejected = !usable;
        usable
    });
    if let Some(hint) = explicit_hint {
        apply_phase_hint(&mut solver, instance, hint, ordered);
    } else if config.bk_phase_hint {
        let bk = LinearEncoding::bravyi_kitaev(instance.problem().num_modes());
        let strings: Vec<PauliString> =
            (bk.majoranas().iter().map(|m| m.string().clone())).collect();
        apply_phase_hint(&mut solver, instance, &strings, ordered);
    }

    let mut best: Option<BestEncoding> = None;
    let mut steps = Vec::new();
    let mut optimal_proved = false;
    let mut proved_floor = None;
    let mut cancelled = false;

    // Initial bound: BK + 1 so the first call admits BK itself; clamp to
    // the totalizer width + 1 (anything above is a free pass).
    let mut bound = config
        .initial_weight
        .unwrap_or_else(|| bravyi_kitaev_bound(instance.problem()) + 1)
        .min(instance.weight_upper_bound() + 1);

    loop {
        if let Some(cancel) = &config.cancel {
            if cancel.is_cancelled() {
                cancelled = true;
                break;
            }
        }
        // Another worker's incumbent tightens our next assumption: only
        // strictly better encodings are worth finding.
        if let Some(shared) = &config.shared_bound {
            bound = bound.min(shared.get());
        }
        if bound == 0 {
            // A weight-0 encoding is impossible (strings would be identity);
            // reaching 0 means weight 1 was achieved... which cannot happen
            // for ≥1 mode, but guard against pathological objectives.
            optimal_proved = true;
            break;
        }
        // Remaining overall budget.
        let mut per_call = config.solve_timeout;
        if let Some(total) = config.total_timeout {
            let left = total.saturating_sub(started.elapsed());
            if left.is_zero() {
                break;
            }
            per_call = Some(per_call.map_or(left, |p| p.min(left)));
        }
        solver.set_timeout(per_call);

        let assumptions: Vec<sat::Lit> =
            search.assume_weight_less_than(bound).into_iter().collect();
        // Tag this call's clause exports with the bound it assumes (no
        // assumption literal — a bound beyond the totalizer — exports
        // unconditionally valid clauses).
        solver.set_bound_tag((!assumptions.is_empty()).then_some(bound));
        let stats_before = solver.stats();
        let mut bound_span = telemetry::span("descent.bound");
        let call_start = Instant::now();
        let result = solver.solve_with_assumptions(&assumptions);
        let elapsed = call_start.elapsed();
        if bound_span.active() {
            let after = solver.stats();
            bound_span.attr("bound", bound as u64);
            bound_span.attr(
                "outcome",
                match &result {
                    sat::SolveResult::Sat(_) => "sat",
                    sat::SolveResult::Unsat => "unsat",
                    sat::SolveResult::Unknown => "budget_exceeded",
                    sat::SolveResult::Interrupted => "cancelled",
                },
            );
            bound_span.attr(
                "exported_clauses",
                after.exported_clauses - stats_before.exported_clauses,
            );
            bound_span.attr(
                "imported_clauses",
                after.imported_clauses - stats_before.imported_clauses,
            );
            bound_span.attr(
                "promoted_clauses",
                after.promoted_clauses - stats_before.promoted_clauses,
            );
            bound_span.attr(
                "imported_reasons",
                after.imported_reasons - stats_before.imported_reasons,
            );
        }

        match result {
            sat::SolveResult::Sat(model) => {
                let strings = instance.decode(&model);
                if check_independence && !independent(&strings) {
                    // No formula solved here states independence; block
                    // the model and retry the same bound. The lemma in
                    // `crate::instance` says an anticommuting model cannot
                    // land here, so the encoder or the solver is broken.
                    telemetry::log_warn!(
                        "core.descent",
                        "pairwise-anticommuting model is GF(2)-dependent; blocked",
                        bound = bound,
                        strings = strings
                            .iter()
                            .map(ToString::to_string)
                            .collect::<Vec<_>>()
                            .join(" "),
                    );
                    let layout = *instance.layout();
                    let mut blocking = Vec::with_capacity(layout.num_primary_vars());
                    for s in 0..layout.num_strings() {
                        for q in 0..layout.num_modes() {
                            for var in [layout.b1(s, q), layout.b2(s, q)] {
                                blocking.push(var.lit(!model.value(var)));
                            }
                        }
                    }
                    solver.add_clause(blocking);
                    continue;
                }
                let weight = instance.measure_weight(&strings);
                debug_assert!(
                    weight < bound,
                    "solver returned weight {weight} under bound {bound}"
                );
                steps.push(DescentStep {
                    bound,
                    result: StepResult::Improved(weight),
                    elapsed,
                });
                bound = weight;
                best = Some(BestEncoding { strings, weight });
                if let Some(shared) = &config.shared_bound {
                    shared.tighten(weight);
                }
                if let Some(hook) = &config.on_improve {
                    hook.call(best.as_ref().expect("just set"));
                }
            }
            sat::SolveResult::Unsat => {
                steps.push(DescentStep {
                    bound,
                    result: StepResult::Exhausted,
                    elapsed,
                });
                proved_floor = Some(bound);
                // The certificate proves *our* best optimal only when it is
                // the encoding sitting exactly at the refuted bound; under a
                // shared bound the incumbent may live in another worker.
                optimal_proved = best.as_ref().is_some_and(|b| b.weight == bound);
                break;
            }
            sat::SolveResult::Unknown => {
                steps.push(DescentStep {
                    bound,
                    result: StepResult::BudgetExceeded,
                    elapsed,
                });
                break;
            }
            sat::SolveResult::Interrupted => {
                steps.push(DescentStep {
                    bound,
                    result: StepResult::Cancelled,
                    elapsed,
                });
                cancelled = true;
                break;
            }
        }
    }

    DescentOutcome {
        best,
        optimal_proved,
        steps,
        proved_floor,
        cancelled,
        hint_rejected,
        solver_stats: solver.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use encodings::validate::validate_strings;
    use fermion::MajoranaMonomial;

    #[test]
    fn one_mode_optimum_proved() {
        let outcome = solve_optimal(
            &EncodingProblem::full_sat(1, Objective::MajoranaWeight),
            &DescentConfig::default(),
        );
        assert_eq!(outcome.weight(), Some(2));
        assert!(outcome.optimal_proved);
        let best = outcome.best.unwrap();
        let phased: Vec<PhasedString> = best
            .strings
            .iter()
            .cloned()
            .map(PhasedString::from)
            .collect();
        assert!(validate_strings(&phased).is_valid());
    }

    #[test]
    fn two_modes_optimum_is_jw() {
        let outcome = solve_optimal(
            &EncodingProblem::full_sat(2, Objective::MajoranaWeight),
            &DescentConfig::default(),
        );
        assert_eq!(outcome.weight(), Some(6));
        assert!(outcome.optimal_proved);
        // The descent must strictly improve every SAT step.
        let mut last = usize::MAX;
        for s in &outcome.steps {
            if let StepResult::Improved(w) = s.result {
                assert!(w < last);
                last = w;
            }
        }
    }

    #[test]
    fn warm_start_bound_matches_bk() {
        let p = EncodingProblem::new(4, Objective::MajoranaWeight);
        let bk = bravyi_kitaev_bound(&p);
        // BK weight for 4 modes: strings of the Fenwick tree; compare with
        // direct computation.
        let direct = majorana_weight(&LinearEncoding::bravyi_kitaev(4).majoranas());
        assert_eq!(bk, direct);
    }

    #[test]
    fn budget_exceeded_reports_best_so_far() {
        // With a tiny conflict budget, large-N descents stop early but
        // may still return whatever they found.
        let config = DescentConfig {
            conflict_budget: Some(1),
            ..DescentConfig::default()
        };
        let outcome = solve_optimal(&EncodingProblem::new(4, Objective::MajoranaWeight), &config);
        assert!(!outcome.optimal_proved);
        assert!(!outcome.steps.is_empty());
    }

    #[test]
    fn only_runs_to_the_certificate_search_the_ordered_formula() {
        let config = |conflict_budget| DescentConfig {
            conflict_budget,
            ..DescentConfig::default()
        };
        // The selector is the input and what the run is for; the
        // algebraic-independence flag plays no part.
        for alg in [true, false] {
            let instance = EncodingProblem::new(4, Objective::MajoranaWeight)
                .with_algebraic_independence(alg)
                .build();
            let search = instance.search();
            assert!(searches_ordered(&search, &config(None)));
            assert!(!searches_ordered(&search, &config(Some(1 << 20))));
            let hamiltonian = EncodingProblem::new(
                4,
                Objective::HamiltonianWeight(vec![MajoranaMonomial::from_sorted(vec![0, 1])]),
            )
            .with_algebraic_independence(alg)
            .build();
            assert!(!searches_ordered(&hamiltonian.search(), &config(None)));
            // Above the cap no run reaches its floor: a deadline-bound run
            // without a budget is an anytime run too.
            let large = EncodingProblem::new(
                crate::symmetry::MAX_ORDERED_MODES + 1,
                Objective::MajoranaWeight,
            )
            .with_algebraic_independence(alg)
            .build();
            assert!(!searches_ordered(&large.search(), &config(None)));
        }
        // With or without the block the optimum is the same, and a give-up
        // budget large enough still ends in the certificate.
        let instance = EncodingProblem::new(4, Objective::MajoranaWeight).build();
        for run in [config(None), config(Some(1 << 20))] {
            let outcome = solve_optimal_instance(&instance, &run);
            assert_eq!(outcome.weight(), Some(16));
            assert!(outcome.optimal_proved);
        }
    }

    #[test]
    fn full_sat_beyond_the_paper_cap_is_searched() {
        // Nothing a descent reads needs the `4^N` paper formula, so the
        // mode cap does not apply to it.
        let problem = EncodingProblem::full_sat(10, Objective::MajoranaWeight);
        let config = DescentConfig {
            conflict_budget: Some(2_000),
            ..DescentConfig::default()
        };
        let outcome = solve_optimal(&problem, &config);
        let best = outcome.best.expect("the Bravyi-Kitaev hint is a model");
        assert!(independent(&best.strings));
        assert!(best.weight <= bravyi_kitaev_bound(&problem));
    }

    #[test]
    fn shared_bound_tightens_the_search() {
        // Prime the shared bound with the known N=2 optimum (6): the
        // descent must then *start* below BK, prove UNSAT at 6 in one
        // step, and return no encoding of its own (6 is not beatable).
        let shared = SharedBound::with_weight(6);
        let config = DescentConfig {
            shared_bound: Some(shared.clone()),
            ..DescentConfig::default()
        };
        let outcome = solve_optimal(
            &EncodingProblem::full_sat(2, Objective::MajoranaWeight),
            &config,
        );
        assert!(outcome.best.is_none(), "nothing below 6 exists");
        assert!(!outcome.optimal_proved, "this worker holds no incumbent");
        assert_eq!(outcome.proved_floor, Some(6));
        assert_eq!(shared.get(), 6);
    }

    #[test]
    fn improvements_are_published_to_the_shared_bound() {
        let shared = SharedBound::new();
        let config = DescentConfig {
            shared_bound: Some(shared.clone()),
            ..DescentConfig::default()
        };
        let outcome = solve_optimal(
            &EncodingProblem::full_sat(2, Objective::MajoranaWeight),
            &config,
        );
        assert_eq!(outcome.weight(), Some(6));
        assert!(outcome.optimal_proved);
        assert_eq!(shared.get(), 6);
        assert_eq!(outcome.proved_floor, Some(6));
    }

    #[test]
    fn pre_cancelled_descent_returns_immediately() {
        let cancel = sat::CancelToken::new();
        cancel.cancel();
        let config = DescentConfig {
            cancel: Some(cancel),
            ..DescentConfig::default()
        };
        let outcome = solve_optimal(
            &EncodingProblem::full_sat(3, Objective::MajoranaWeight),
            &config,
        );
        assert!(outcome.cancelled);
        assert!(outcome.best.is_none());
        assert!(outcome.steps.is_empty());
    }

    #[test]
    fn descent_lanes_exchange_clauses_across_bounds() {
        // Lane 0 runs the whole descent first, exporting everything it
        // learns (no LBD filter). Lane 1 then repeats the descent in the
        // same context: it must import lane 0's clauses — promoting the
        // bound-tagged ones as its own bound catches up — and reach the
        // identical certified optimum.
        let ctx = sat::SharedContext::new(
            2,
            sat::ExchangeConfig {
                export_lbd: sat::ExportLbd::fixed(u32::MAX),
                max_shared_len: usize::MAX,
                capacity_per_lane: 1 << 14,
            },
        );
        let problem = EncodingProblem::full_sat(2, Objective::MajoranaWeight);
        let lane0 = solve_optimal(
            &problem,
            &DescentConfig {
                clause_exchange: Some(ctx.handle(0)),
                ..DescentConfig::default()
            },
        );
        assert_eq!(lane0.weight(), Some(6));
        assert!(lane0.optimal_proved);
        assert!(
            lane0.solver_stats.exported_clauses > 0,
            "the UNSAT certificate at bound 6 must learn exportable clauses"
        );

        let lane1 = solve_optimal(
            &problem,
            &DescentConfig {
                clause_exchange: Some(ctx.handle(1)),
                restart_policy: Some(sat::RestartPolicyKind::Fixed { interval: 8 }),
                ..DescentConfig::default()
            },
        );
        assert_eq!(lane1.weight(), Some(6));
        assert!(lane1.optimal_proved);
        assert!(
            lane1.solver_stats.imported_clauses > 0,
            "lane 1 must consume lane 0's exports: {:?}",
            lane1.solver_stats
        );
    }

    #[test]
    fn valid_explicit_hint_wins_over_bk_and_is_not_rejected() {
        // Hint the N=2 descent with the known optimum (JW): the hint must
        // be accepted (not rejected) and the optimum still certified.
        let jw: Vec<PauliString> = LinearEncoding::jordan_wigner(2)
            .majoranas()
            .iter()
            .map(|p| p.string().clone())
            .collect();
        let config = DescentConfig {
            phase_hint: Some(jw),
            bk_phase_hint: true,
            ..DescentConfig::default()
        };
        let outcome = solve_optimal(
            &EncodingProblem::full_sat(2, Objective::MajoranaWeight),
            &config,
        );
        assert!(!outcome.hint_rejected);
        assert_eq!(outcome.weight(), Some(6));
        assert!(outcome.optimal_proved);
    }

    #[test]
    fn invalid_explicit_hint_is_rejected_and_bk_fallback_applies() {
        // Regression: a deliberately-invalid hint used to be applied
        // silently, shadowing `bk_phase_hint` with phases no feasible
        // model has. It must now be rejected (flagged) and the descent
        // must still certify the optimum from the BK fallback.
        let problem = EncodingProblem::full_sat(2, Objective::MajoranaWeight);
        let bad_hints: Vec<Vec<PauliString>> = vec![
            // Wrong shape: 3 strings.
            ["IX", "IY", "XZ"]
                .iter()
                .map(|s| s.parse().unwrap())
                .collect(),
            // Wrong width: strings on 3 qubits for a 2-mode problem.
            ["IIX", "IIY", "IXZ", "IYZ"]
                .iter()
                .map(|s| s.parse().unwrap())
                .collect(),
            // Right shape, commuting pair (XX vs YY).
            ["XX", "YY", "ZI", "IZ"]
                .iter()
                .map(|s| s.parse().unwrap())
                .collect(),
        ];
        for bad in bad_hints {
            let config = DescentConfig {
                phase_hint: Some(bad.clone()),
                bk_phase_hint: true,
                ..DescentConfig::default()
            };
            let outcome = solve_optimal(&problem, &config);
            assert!(outcome.hint_rejected, "hint {bad:?} must be rejected");
            assert_eq!(outcome.weight(), Some(6), "BK fallback still certifies");
            assert!(outcome.optimal_proved);
        }
        // No hint at all: nothing to reject.
        let outcome = solve_optimal(&problem, &DescentConfig::default());
        assert!(!outcome.hint_rejected);
    }

    #[test]
    fn hamiltonian_dependent_descent() {
        // Two modes, structure = {M₀M₁M₂M₃, M₀M₁}: optimum is 1 + 1 = 2
        // … prove whatever the optimum is, and validate it beats BK.
        let monomials = vec![
            MajoranaMonomial::from_sorted(vec![0, 1, 2, 3]),
            MajoranaMonomial::from_sorted(vec![0, 1]),
        ];
        let problem = EncodingProblem::full_sat(2, Objective::HamiltonianWeight(monomials));
        let bk_bound = bravyi_kitaev_bound(&problem);
        let outcome = solve_optimal(&problem, &DescentConfig::default());
        let w = outcome.weight().expect("solvable");
        assert!(outcome.optimal_proved);
        assert!(w <= bk_bound, "optimal {w} must not exceed BK {bk_bound}");
        assert!(w >= 2, "two non-identity products weigh ≥ 2");
    }
}
