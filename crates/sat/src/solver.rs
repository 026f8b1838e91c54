//! Conflict-driven clause-learning SAT solver.
//!
//! Architecture follows MiniSat [Eén & Sörensson 2003] with the now-standard
//! refinements the paper's solvers (Kissat/CaDiCaL) also build on:
//!
//! * clause storage in a flat arena ([`crate::arena`]): one contiguous
//!   `u32` buffer, garbage-collected in place at `reduce_db` time,
//! * two-watched-literal propagation with blocking literals over flat
//!   per-literal watcher segments ([`crate::watch`]),
//! * first-UIP conflict analysis with clause minimization,
//! * exponential VSIDS variable activities with an indexed max-heap,
//! * phase saving (word-packed, as are the analysis marks),
//! * Luby-sequence restarts,
//! * glue-(LBD-)aware learnt-clause database reduction,
//! * incremental solving under assumptions, which the Fermihedral descent
//!   loop (Algorithm 1) uses to tighten the Pauli-weight bound without
//!   rebuilding the formula,
//! * pluggable restart schedules ([`crate::restart`]) — Luby by default,
//!   geometric/fixed for portfolio diversity — and
//! * adaptive learnt-clause exchange with portfolio peers
//!   ([`crate::shared`]): eligible clauses are exported as they are
//!   learnt under a per-lane LBD threshold that the solver tightens or
//!   loosens (Glucose-style) from the observed usefulness of what it
//!   imports; foreign clauses are imported at solve-call starts and
//!   restart boundaries.

use crate::arena::{CRef, ClauseArena};
use crate::bitset::BitSet;
use crate::cnf::Cnf;
use crate::heap::ActivityHeap;
use crate::restart::{RestartPolicy, DEFAULT_RESTARTS};
use crate::shared::{ExportLbd, LaneHandle, SharedClause};
use crate::types::{LBool, Lit, Var};
use crate::watch::{WatchLists, Watcher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Result of a [`Solver::solve`] call.
#[derive(Debug, Clone)]
pub enum SolveResult {
    /// A satisfying assignment was found.
    Sat(Model),
    /// The formula (under the given assumptions, if any) is unsatisfiable.
    Unsat,
    /// The conflict budget or timeout was exhausted first.
    Unknown,
    /// The external stop flag ([`Solver::set_stop_flag`]) was raised — a
    /// cooperating thread (e.g. a portfolio engine whose incumbent became
    /// optimal) cancelled the search.
    Interrupted,
}

impl SolveResult {
    /// The model if satisfiable.
    pub fn model(&self) -> Option<&Model> {
        match self {
            SolveResult::Sat(m) => Some(m),
            _ => None,
        }
    }

    /// True for [`SolveResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveResult::Sat(_))
    }

    /// True for [`SolveResult::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, SolveResult::Unsat)
    }
}

/// A satisfying assignment (word-packed, one bit per variable).
#[derive(Debug, Clone)]
pub struct Model {
    values: BitSet,
}

impl Model {
    /// Value of a variable (false for variables beyond the model, which can
    /// only be variables never mentioned in any clause).
    pub fn value(&self, v: Var) -> bool {
        v.index() < self.values.len() && self.values.get(v.index())
    }

    /// Value of a literal under the model.
    pub fn lit_value(&self, l: Lit) -> bool {
        l.eval(self.value(l.var()))
    }

    /// The assignment unpacked into one `bool` per variable.
    pub fn values(&self) -> Vec<bool> {
        self.values.to_vec()
    }
}

/// Cumulative solver statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of branching decisions.
    pub decisions: u64,
    /// Number of literal propagations.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Learnt clauses currently in the database.
    pub learnt_clauses: u64,
    /// Learnt clauses deleted by database reductions.
    pub deleted_clauses: u64,
    /// Learnt-clause database reductions (arena garbage collections).
    pub db_reductions: u64,
    /// Learnt clauses exported to the clause exchange
    /// ([`Solver::set_clause_exchange`]).
    pub exported_clauses: u64,
    /// Foreign clauses imported from the clause exchange.
    pub imported_clauses: u64,
    /// Imports that were first deferred by their bound tag and admitted
    /// once this solver's own bound caught up.
    pub promoted_clauses: u64,
    /// Times an *imported* clause became the reason of a propagation —
    /// the per-lane usefulness signal the adaptive exchange filter feeds
    /// on (a clause that never propagates was not worth shipping).
    pub imported_reasons: u64,
    /// The current adaptive export-LBD threshold (0 when the solver was
    /// never connected to an exchange).
    pub adapted_export_lbd: u32,
}

const VAR_DECAY: f64 = 0.95;
const CLAUSE_DECAY: f32 = 0.999;
const RESCALE_LIMIT: f64 = 1e100;
/// Clause activities are f32 (they live in one arena word), so they
/// rescale at a much lower ceiling than the f64 variable activities.
const CLAUSE_RESCALE_LIMIT: f32 = 1e20;
/// Imports deferred by their bound tag are parked here; beyond the cap the
/// oldest are discarded (sharing is best-effort).
const PENDING_IMPORT_CAP: usize = 4096;
/// The adaptive export filter re-evaluates after this many fresh imports.
const ADAPT_WINDOW: u64 = 16;
/// Imported-clause usefulness (reasons per import) at or above which the
/// export threshold loosens — peers' clauses are pulling their weight, so
/// ship more of ours.
const ADAPT_LOOSEN_RATE: f64 = 0.20;
/// Usefulness below which the export threshold tightens.
const ADAPT_TIGHTEN_RATE: f64 = 0.05;

/// The CDCL solver.
///
/// # Example
///
/// ```
/// use sat::{Solver, Var, SolveResult};
///
/// let mut s = Solver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause([a.positive(), b.positive()]);
/// s.add_clause([a.negative()]);
/// let SolveResult::Sat(m) = s.solve() else { panic!() };
/// assert!(!m.value(a));
/// assert!(m.value(b));
///
/// // Incremental: the same solver answers under assumptions.
/// assert!(s.solve_with_assumptions(&[b.negative()]).is_unsat());
/// assert!(s.solve().is_sat());
/// ```
#[derive(Debug, Clone)]
pub struct Solver {
    arena: ClauseArena,
    watches: WatchLists,

    assign: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<Option<CRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,

    activity: Vec<f64>,
    var_inc: f64,
    heap: ActivityHeap,
    saved_phase: BitSet,

    clause_inc: f32,
    max_learnts: f64,

    seen: BitSet,
    unsat: bool,

    // Incremental clause-population counters (the database filter scans
    // they replace were O(db) per conflict).
    n_problem_clauses: usize,
    n_learnt_clauses: usize,

    /// Reused simplification buffer for `add_clause` and the import path
    /// (no per-clause allocation on either).
    scratch: Vec<Lit>,

    stats: SolverStats,
    conflict_budget: Option<u64>,
    timeout: Option<Duration>,
    stop: Option<Arc<AtomicBool>>,
    rng_state: u64,
    random_branch: f64,

    restart: Box<dyn RestartPolicy>,
    shared: Option<LaneHandle>,
    bound_tag: Option<usize>,
    pending_imports: Vec<SharedClause>,

    /// Bounds the adaptive export filter moves within.
    export_lbd: ExportLbd,
    /// The current (adapted) export-LBD threshold.
    export_lbd_now: u32,
    /// Import/reason counters at the last adaptation, so each window
    /// judges only fresh traffic.
    adapt_imports_mark: u64,
    adapt_reasons_mark: u64,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// An empty solver.
    pub fn new() -> Solver {
        let export_lbd = ExportLbd::default();
        Solver {
            arena: ClauseArena::new(),
            watches: WatchLists::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            heap: ActivityHeap::new(),
            saved_phase: BitSet::new(),
            clause_inc: 1.0,
            max_learnts: 0.0,
            seen: BitSet::new(),
            unsat: false,
            n_problem_clauses: 0,
            n_learnt_clauses: 0,
            scratch: Vec::new(),
            stats: SolverStats::default(),
            conflict_budget: None,
            timeout: None,
            stop: None,
            rng_state: 0x9E37_79B9_7F4A_7C15,
            random_branch: 0.0,
            restart: DEFAULT_RESTARTS.build(),
            shared: None,
            bound_tag: None,
            pending_imports: Vec::new(),
            export_lbd,
            export_lbd_now: export_lbd.initial,
            adapt_imports_mark: 0,
            adapt_reasons_mark: 0,
        }
    }

    /// Builds a solver holding all clauses of `cnf`.
    ///
    /// The result is in exactly the state a fresh solver reaches when fed
    /// the same clauses one by one through [`add_clause`](Self::add_clause)
    /// — arena record order, literal order inside each record, watcher
    /// order inside each literal's list, trail — so searches repeat
    /// conflict for conflict whichever way a formula was loaded. What
    /// differs is the cost: clauses that attach without propagation (all
    /// of them, in a Tseitin-encoded instance without constants) are
    /// written into an arena reserved once, their watchers are counted,
    /// and every watch segment is laid out at its final size before the
    /// first watcher is pushed. The first clause that simplifies to a unit
    /// or to the empty clause needs the watches of everything before it,
    /// so it and the rest of the formula take the incremental path.
    pub fn from_cnf(cnf: &Cnf) -> Solver {
        let mut s = Solver::new();
        s.reserve_vars(cnf.num_vars());
        s.arena.reserve(cnf.num_clauses(), cnf.num_literals());

        let mut watcher_counts = vec![0u32; 2 * cnf.num_vars()];
        let mut c = Vec::new();
        let mut clauses = cnf.clauses();
        let mut needs_propagation = None;
        for clause in clauses.by_ref() {
            c.clear();
            c.extend_from_slice(clause);
            if s.simplify_at_root(&mut c) {
                continue;
            }
            if c.len() < 2 {
                needs_propagation = Some(clause);
                break;
            }
            s.arena.alloc(&c, false, false, 0);
            s.n_problem_clauses += 1;
            watcher_counts[(!c[0]).code()] += 1;
            watcher_counts[(!c[1]).code()] += 1;
        }

        s.watches.presize(&watcher_counts);
        for cref in s.arena.iter() {
            s.watches
                .watch(cref, s.arena.lit(cref, 0), s.arena.lit(cref, 1));
        }

        for clause in needs_propagation.into_iter().chain(clauses) {
            s.add_clause(clause.iter().copied());
        }
        s
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::new(self.assign.len());
        self.reserve_vars(v.index() + 1);
        v
    }

    /// Ensures variables `0..n` exist (one resize per side array).
    pub fn reserve_vars(&mut self, n: usize) {
        if n <= self.assign.len() {
            return;
        }
        self.assign.resize(n, LBool::Undef);
        self.level.resize(n, 0);
        self.reason.resize(n, None);
        self.activity.resize(n, 0.0);
        self.saved_phase.grow_to(n);
        self.seen.grow_to(n);
        self.watches.grow_to(2 * n);
        self.heap.grow(n);
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of problem (non-learnt) clauses currently stored.
    pub fn num_clauses(&self) -> usize {
        self.n_problem_clauses
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Limits each subsequent [`solve`](Self::solve) call to roughly this
    /// many conflicts; `None` removes the limit.
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.conflict_budget = budget;
    }

    /// Limits each subsequent [`solve`](Self::solve) call to this much wall
    /// time; `None` removes the limit. Checked every few hundred conflicts.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) {
        self.timeout = timeout;
    }

    /// Replaces the restart schedule (default: Luby, unit 128). The
    /// schedule is rewound at the start of every [`solve`](Self::solve)
    /// call. Portfolio lanes diversify by handing each solver a different
    /// [`RestartPolicy`]; restarts are also when foreign clauses are
    /// imported, so the schedule sets the lane's import cadence.
    pub fn set_restart_policy(&mut self, policy: Box<dyn RestartPolicy>) {
        self.restart = policy;
    }

    /// Plugs this solver into a clause exchange
    /// ([`SharedContext`](crate::shared::SharedContext)) as the lane the
    /// handle was created for. While connected, eligible learnt clauses
    /// are exported as they are learnt, and foreign clauses are imported
    /// at every solve-call start and restart boundary. `None` disconnects.
    ///
    /// Connecting adopts the context's [`ExportLbd`] bounds and resets the
    /// adaptive threshold to their initial value (override with
    /// [`set_export_lbd`](Self::set_export_lbd) afterwards).
    ///
    /// All participating solvers must be loaded with the *same formula
    /// under the same variable numbering*; imported clauses join the
    /// learnt database (and are subject to its reduction policy).
    pub fn set_clause_exchange(&mut self, handle: Option<LaneHandle>) {
        if let Some(h) = &handle {
            self.set_export_lbd(h.export_bounds());
        }
        self.shared = handle;
        self.pending_imports.clear();
        self.adapt_imports_mark = self.stats.imported_clauses;
        self.adapt_reasons_mark = self.stats.imported_reasons;
    }

    /// Sets the bounds the adaptive export filter moves within and resets
    /// the current threshold to `bounds.initial`. Lanes diversify by
    /// starting from different bounds; `ExportLbd::fixed(t)` pins the
    /// threshold (disabling adaptation).
    pub fn set_export_lbd(&mut self, bounds: ExportLbd) {
        let b = bounds.normalized();
        self.export_lbd = b;
        self.export_lbd_now = b.initial;
        self.stats.adapted_export_lbd = b.initial;
    }

    /// The current (adapted) export-LBD threshold.
    pub fn adapted_export_lbd(&self) -> u32 {
        self.export_lbd_now
    }

    /// Declares the assumption context for exported clauses: descent
    /// callers set `Some(bound)` before a call that assumes
    /// `weight < bound`, and `None` for unconditional calls. Exports carry
    /// the tag; imports tagged with a *looser* bound than this solver's
    /// current tag are deferred until the local descent catches up. See
    /// [`shared`](crate::shared) for the soundness discussion.
    pub fn set_bound_tag(&mut self, tag: Option<usize>) {
        self.bound_tag = tag;
    }

    /// Installs a cooperative stop flag. When another thread stores `true`
    /// (with any ordering), the running [`solve`](Self::solve) call returns
    /// [`SolveResult::Interrupted`] within a few dozen conflicts/decisions.
    /// The flag is level-triggered: it is never cleared by the solver, so a
    /// raised flag also aborts *future* solve calls until the owner resets
    /// it.
    pub fn set_stop_flag(&mut self, stop: Option<Arc<AtomicBool>>) {
        self.stop = stop;
    }

    /// Seeds the solver's internal branching randomness. Together with
    /// [`set_random_branch`](Self::set_random_branch) this diversifies
    /// otherwise-identical solvers in a portfolio: different seeds explore
    /// the search space in different orders.
    pub fn set_random_seed(&mut self, seed: u64) {
        self.rng_state = scramble_seed(seed);
    }

    /// Sets the fraction of branching decisions made on a uniformly random
    /// unassigned variable instead of the activity-heap maximum (MiniSat's
    /// `random_var_freq`, default 0 = pure EVSIDS).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ freq ≤ 1`.
    pub fn set_random_branch(&mut self, freq: f64) {
        assert!((0.0..=1.0).contains(&freq), "freq={freq} not a probability");
        self.random_branch = freq;
    }

    /// Randomizes every variable's saved phase from `seed`. Combined with
    /// [`set_random_branch`](Self::set_random_branch), this gives portfolio
    /// workers genuinely different initial trajectories.
    pub fn randomize_phases(&mut self, seed: u64) {
        let mut state = scramble_seed(seed);
        for v in 0..self.saved_phase.len() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            self.saved_phase.set(v, state & 1 == 1);
        }
    }

    #[inline]
    fn next_random(&mut self) -> u64 {
        self.rng_state ^= self.rng_state << 13;
        self.rng_state ^= self.rng_state >> 7;
        self.rng_state ^= self.rng_state << 17;
        self.rng_state
    }

    #[inline]
    fn stop_requested(&self) -> bool {
        self.stop
            .as_ref()
            .is_some_and(|s| s.load(Ordering::Relaxed))
    }

    /// Seeds the saved phase of a variable: branching decisions will first
    /// try this polarity. Seeding all variables with a known-good
    /// assignment (e.g. Bravyi-Kitaev in the Fermihedral descent) steers
    /// the first solution search toward it.
    pub fn set_phase(&mut self, v: Var, phase: bool) {
        assert!(v.index() < self.num_vars(), "unallocated variable");
        self.saved_phase.set(v.index(), phase);
    }

    /// Adds `amount` to a variable's branching activity. Combined with
    /// [`set_phase`](Self::set_phase) this front-loads decisions on a
    /// chosen variable set (e.g. the Fermihedral primary variables), after
    /// which pure Tseitin auxiliaries follow by unit propagation.
    pub fn boost_activity(&mut self, v: Var, amount: f64) {
        assert!(v.index() < self.num_vars(), "unallocated variable");
        self.activity[v.index()] += amount;
        self.heap.update(v.index(), &self.activity);
        if !self.heap.contains(v.index()) {
            self.heap.insert(v.index(), &self.activity);
        }
    }

    /// Adds a clause. Root-level-false literals are dropped, duplicates
    /// merged, and tautologies ignored. Automatically allocates any
    /// variables mentioned.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        debug_assert_eq!(self.decision_level(), 0, "clauses are added at root");
        if self.unsat {
            return;
        }
        let mut c = std::mem::take(&mut self.scratch);
        c.clear();
        c.extend(lits);
        if let Some(max_var) = c.iter().map(|l| l.var().index()).max() {
            self.reserve_vars(max_var + 1);
        }
        if !self.simplify_at_root(&mut c) {
            match c.len() {
                0 => self.unsat = true,
                1 => {
                    self.unchecked_enqueue(c[0], None);
                    if self.propagate().is_some() {
                        self.unsat = true;
                    }
                }
                _ => {
                    self.attach_clause(&c, false, false, 0, 0.0);
                }
            }
        }
        self.scratch = c;
    }

    /// Root-level clause simplification, in place: sorts, merges
    /// duplicates, and drops root-false literals. Returns `true` when the
    /// clause should be discarded entirely (tautology, or satisfied at
    /// root). Both `add_clause` and the import path run their shared
    /// scratch buffer through here.
    fn simplify_at_root(&self, buf: &mut Vec<Lit>) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        buf.sort_unstable();
        buf.dedup();
        let mut keep = 0usize;
        for i in 0..buf.len() {
            let l = buf[i];
            if i + 1 < buf.len() && buf[i + 1] == !l {
                return true; // contains l and ¬l
            }
            match self.value(l) {
                LBool::True => return true, // satisfied at root, forever
                LBool::False => {}          // root-false literal drops out
                LBool::Undef => {
                    buf[keep] = l;
                    keep += 1;
                }
            }
        }
        buf.truncate(keep);
        false
    }

    /// Solves the formula with no assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves under the given assumption literals. [`SolveResult::Unsat`]
    /// then means "unsatisfiable together with the assumptions".
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        let start = Instant::now();
        let mut span = telemetry::span("sat.solve");
        let stats_at_entry = self.stats;
        let budget_end = self.conflict_budget.map(|b| self.stats.conflicts + b);
        self.cancel_until(0);
        if self.unsat {
            return SolveResult::Unsat;
        }
        if self.stop_requested() {
            return SolveResult::Interrupted;
        }
        for a in assumptions {
            assert!(
                a.var().index() < self.num_vars(),
                "assumption references unallocated variable"
            );
        }
        // Foreign clauses published since the last call join here, before
        // the initial propagation (imports may include units).
        self.import_shared_clauses();
        if self.propagate().is_some() {
            self.unsat = true;
            return SolveResult::Unsat;
        }
        if self.unsat {
            return SolveResult::Unsat;
        }
        if self.max_learnts == 0.0 {
            self.max_learnts =
                ((self.n_problem_clauses + self.n_learnt_clauses) as f64 / 3.0).max(1000.0);
        }

        self.restart.reset();
        let mut conflicts_until_restart = self.restart.next_interval();
        let result = loop {
            if let Some(confl) = self.propagate() {
                // Conflict.
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    self.unsat = true;
                    break SolveResult::Unsat;
                }
                let (learnt, bt_level, lbd) = self.analyze(confl);
                self.cancel_until(bt_level);
                self.record_learnt(learnt, lbd);
                self.decay_activities();

                conflicts_until_restart = conflicts_until_restart.saturating_sub(1);
                if let Some(end) = budget_end {
                    if self.stats.conflicts >= end {
                        break SolveResult::Unknown;
                    }
                }
                if self.stats.conflicts.is_multiple_of(64) && self.stop_requested() {
                    break SolveResult::Interrupted;
                }
                if self.stats.conflicts.is_multiple_of(256) {
                    if let Some(t) = self.timeout {
                        if start.elapsed() >= t {
                            break SolveResult::Unknown;
                        }
                    }
                }
            } else {
                // No conflict.
                if conflicts_until_restart == 0 {
                    self.stats.restarts += 1;
                    conflicts_until_restart = self.restart.next_interval();
                    telemetry::log_trace!(
                        "sat.solver",
                        "restart",
                        restarts = self.stats.restarts,
                        conflicts = self.stats.conflicts,
                        next_interval = conflicts_until_restart,
                    );
                    self.cancel_until(0);
                    // Restart boundary: drain the clause-exchange inbox.
                    self.import_shared_clauses();
                    if self.unsat {
                        break SolveResult::Unsat;
                    }
                    continue;
                }
                if self.learnt_count() as f64 > self.max_learnts {
                    self.reduce_db();
                }
                // Re-assert assumptions, then branch.
                if self.stats.decisions.is_multiple_of(512) && self.stop_requested() {
                    break SolveResult::Interrupted;
                }
                match self.pick_next(assumptions) {
                    PickResult::Decision(l) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.unchecked_enqueue(l, None);
                    }
                    PickResult::DummyLevel => {
                        self.trail_lim.push(self.trail.len());
                    }
                    PickResult::AssumptionConflict => break SolveResult::Unsat,
                    PickResult::AllAssigned => {
                        let values = (0..self.assign.len())
                            .map(|v| match self.assign[v] {
                                LBool::True => true,
                                LBool::False => false,
                                LBool::Undef => self.saved_phase.get(v),
                            })
                            .collect();
                        break SolveResult::Sat(Model { values });
                    }
                }
            }
        };
        self.cancel_until(0);
        if span.active() {
            let elapsed = start.elapsed();
            let conflicts = self.stats.conflicts - stats_at_entry.conflicts;
            span.attr(
                "result",
                match &result {
                    SolveResult::Sat(_) => "sat",
                    SolveResult::Unsat => "unsat",
                    SolveResult::Unknown => "unknown",
                    SolveResult::Interrupted => "interrupted",
                },
            );
            span.attr("conflicts", conflicts);
            span.attr(
                "propagations",
                self.stats.propagations - stats_at_entry.propagations,
            );
            span.attr("restarts", self.stats.restarts - stats_at_entry.restarts);
            span.attr(
                "learnt_clauses",
                self.stats.learnt_clauses - stats_at_entry.learnt_clauses,
            );
            span.attr(
                "imported_clauses",
                self.stats.imported_clauses - stats_at_entry.imported_clauses,
            );
            span.attr(
                "imported_reasons",
                self.stats.imported_reasons - stats_at_entry.imported_reasons,
            );
            span.attr(
                "conflicts_per_sec",
                conflicts as f64 / elapsed.as_secs_f64().max(1e-9),
            );
            if self.shared.is_some() {
                span.attr("export_lbd", self.export_lbd_now as u64);
            }
            if let Some(tag) = self.bound_tag {
                span.attr("bound_tag", tag);
            }
        }
        result
    }

    // ----- internal machinery -------------------------------------------

    #[inline]
    fn value(&self, l: Lit) -> LBool {
        self.assign[l.var().index()].under(l)
    }

    #[inline]
    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    fn learnt_count(&self) -> usize {
        self.n_learnt_clauses
    }

    fn attach_clause(
        &mut self,
        lits: &[Lit],
        learnt: bool,
        imported: bool,
        lbd: u32,
        activity: f32,
    ) -> CRef {
        debug_assert!(lits.len() >= 2);
        if learnt {
            self.n_learnt_clauses += 1;
        } else {
            self.n_problem_clauses += 1;
        }
        let cref = self.arena.alloc(lits, learnt, imported, lbd);
        if activity != 0.0 {
            self.arena.set_activity(cref, activity);
        }
        self.watches.watch(cref, lits[0], lits[1]);
        cref
    }

    // ----- clause exchange ----------------------------------------------

    /// Drains the exchange inbox (and the locally deferred backlog) into
    /// the learnt database, then lets the adaptive export filter judge the
    /// fresh traffic. Must be called at decision level 0.
    fn import_shared_clauses(&mut self) {
        if self.shared.is_none() && self.pending_imports.is_empty() {
            return;
        }
        debug_assert_eq!(self.decision_level(), 0);
        // Deferred clauses first: the bound may have caught up since.
        let pending = std::mem::take(&mut self.pending_imports);
        for clause in pending {
            self.integrate_import(clause, true);
        }
        let Some(handle) = self.shared.clone() else {
            return;
        };
        let mut fresh = Vec::new();
        handle.drain_into(&mut fresh);
        for clause in fresh {
            self.integrate_import(clause, false);
        }
        self.adapt_export_threshold();
    }

    /// Moves the export-LBD threshold one step within its bounds, judged
    /// by how often the last window of imports actually propagated
    /// (Glucose-style usefulness feedback): peers sending useful clauses
    /// earn looser exports from us; useless traffic tightens them.
    fn adapt_export_threshold(&mut self) {
        let imports = self.stats.imported_clauses - self.adapt_imports_mark;
        if imports < ADAPT_WINDOW {
            return;
        }
        let reasons = self.stats.imported_reasons - self.adapt_reasons_mark;
        let rate = reasons as f64 / imports as f64;
        if rate >= ADAPT_LOOSEN_RATE {
            self.export_lbd_now = self
                .export_lbd_now
                .saturating_add(1)
                .min(self.export_lbd.ceiling);
        } else if rate < ADAPT_TIGHTEN_RATE {
            self.export_lbd_now = self
                .export_lbd_now
                .saturating_sub(1)
                .max(self.export_lbd.floor);
        }
        self.adapt_imports_mark = self.stats.imported_clauses;
        self.adapt_reasons_mark = self.stats.imported_reasons;
        if self.export_lbd_now != self.stats.adapted_export_lbd {
            telemetry::log_trace!(
                "sat.solver",
                "export threshold adapted",
                export_lbd = self.export_lbd_now as u64,
                reason_rate = rate,
                window_imports = imports,
            );
        }
        self.stats.adapted_export_lbd = self.export_lbd_now;
    }

    /// Files one foreign clause: defers it when its bound tag is looser
    /// than ours, otherwise simplifies it against the root assignment and
    /// attaches it as a learnt clause (or enqueues it as a root unit).
    fn integrate_import(&mut self, clause: SharedClause, was_deferred: bool) {
        if self.unsat {
            return;
        }
        if !self.bound_admits(clause.bound_tag) {
            if self.pending_imports.len() >= PENDING_IMPORT_CAP {
                // Discard the stalest deferred clause (its bound is the
                // least likely to ever be reached).
                self.pending_imports.remove(0);
            }
            self.pending_imports.push(clause);
            return;
        }
        if let Some(max_var) = clause.lits.iter().map(|l| l.var().index()).max() {
            self.reserve_vars(max_var + 1);
        }
        // Root-level simplification (we are at decision level 0, so every
        // assigned variable is root-fixed).
        let mut lits = std::mem::take(&mut self.scratch);
        lits.clear();
        lits.extend_from_slice(&clause.lits);
        if !self.simplify_at_root(&mut lits) {
            match lits.len() {
                0 => self.unsat = true,
                1 => self.unchecked_enqueue(lits[0], None),
                _ => {
                    self.attach_clause(&lits, true, true, clause.lbd, self.clause_inc);
                }
            }
            self.stats.imported_clauses += 1;
            if was_deferred {
                self.stats.promoted_clauses += 1;
            }
        }
        self.scratch = lits;
    }

    /// Whether a clause derived under `tag` is admissible under our own
    /// current bound assumption: untagged clauses always are; tagged ones
    /// need our assumption to be at least as tight as the producer's.
    fn bound_admits(&self, tag: Option<usize>) -> bool {
        match tag {
            None => true,
            Some(k) => self.bound_tag.is_some_and(|own| own <= k),
        }
    }

    /// Offers a freshly learnt clause to the exchange, under the current
    /// adaptive threshold.
    fn export_learnt(&mut self, lits: &[Lit], lbd: u32) {
        if let Some(handle) = &self.shared {
            if handle.export_at(lits, lbd, self.bound_tag, self.export_lbd_now) {
                self.stats.exported_clauses += 1;
            }
        }
    }

    fn unchecked_enqueue(&mut self, l: Lit, from: Option<CRef>) {
        debug_assert_eq!(self.value(l), LBool::Undef);
        let v = l.var().index();
        self.assign[v] = LBool::from_bool(l.is_positive());
        self.level[v] = self.decision_level() as u32;
        self.reason[v] = from;
        self.saved_phase.set(v, l.is_positive());
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause reference if any.
    ///
    /// Watcher lists are scanned by index with a kept-prefix compaction.
    /// In-loop pushes only ever target *other* literals' segments (a
    /// replacement watch is the negation of a non-false literal, and `!p`
    /// is false), so `p`'s segment never moves under the scan.
    fn propagate(&mut self) -> Option<CRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let pcode = p.code();
            let false_lit = !p;

            let n = self.watches.len_of(pcode);
            let mut kept = 0usize;
            let mut i = 0usize;
            let mut conflict = None;
            'watchers: while i < n {
                let w = self.watches.get(pcode, i);
                i += 1;
                // Fast path: blocker already true.
                if self.value(w.blocker) == LBool::True {
                    self.watches.set(pcode, kept, w);
                    kept += 1;
                    continue;
                }
                let cref = w.cref;
                // Normalize: watched false literal at position 1.
                if self.arena.lit(cref, 0) == false_lit {
                    self.arena.swap_lits(cref, 0, 1);
                }
                debug_assert_eq!(self.arena.lit(cref, 1), false_lit);
                let first = self.arena.lit(cref, 0);
                if first != w.blocker && self.value(first) == LBool::True {
                    self.watches.set(
                        pcode,
                        kept,
                        Watcher {
                            cref,
                            blocker: first,
                        },
                    );
                    kept += 1;
                    continue;
                }
                // Search replacement watch.
                let len = self.arena.len(cref);
                for k in 2..len {
                    if self.value(self.arena.lit(cref, k)) != LBool::False {
                        self.arena.swap_lits(cref, 1, k);
                        let new_watch = self.arena.lit(cref, 1);
                        self.watches.push(
                            (!new_watch).code(),
                            Watcher {
                                cref,
                                blocker: first,
                            },
                        );
                        continue 'watchers;
                    }
                }
                // No replacement: unit or conflict.
                self.watches.set(
                    pcode,
                    kept,
                    Watcher {
                        cref,
                        blocker: first,
                    },
                );
                kept += 1;
                if self.value(first) == LBool::False {
                    // Conflict: keep remaining watchers and bail out.
                    while i < n {
                        let rest = self.watches.get(pcode, i);
                        self.watches.set(pcode, kept, rest);
                        kept += 1;
                        i += 1;
                    }
                    self.qhead = self.trail.len();
                    conflict = Some(cref);
                } else {
                    if self.arena.is_imported(cref) {
                        self.stats.imported_reasons += 1;
                    }
                    self.unchecked_enqueue(first, Some(cref));
                }
                if conflict.is_some() {
                    break;
                }
            }
            self.watches.truncate(pcode, kept);
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    /// First-UIP conflict analysis. Returns (learnt clause with asserting
    /// literal first, backtrack level, LBD).
    fn analyze(&mut self, confl: CRef) -> (Vec<Lit>, usize, u32) {
        let mut learnt: Vec<Lit> = Vec::with_capacity(8);
        let mut to_clear: Vec<usize> = Vec::new();
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut confl = confl;
        let mut index = self.trail.len();
        let current_level = self.decision_level() as u32;

        loop {
            {
                self.bump_clause(confl);
                let start = usize::from(p.is_some());
                for pos in start..self.arena.len(confl) {
                    let q = self.arena.lit(confl, pos);
                    let v = q.var().index();
                    if !self.seen.get(v) && self.level[v] > 0 {
                        self.seen.set(v, true);
                        to_clear.push(v);
                        self.bump_var(v);
                        if self.level[v] >= current_level {
                            counter += 1;
                        } else {
                            learnt.push(q);
                        }
                    }
                }
            }
            // Walk the trail backwards to the next marked literal.
            loop {
                index -= 1;
                if self.seen.get(self.trail[index].var().index()) {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen.set(pl.var().index(), false);
            counter -= 1;
            p = Some(pl);
            if counter == 0 {
                break;
            }
            confl = self.reason[pl.var().index()].expect("non-decision has a reason");
        }
        let uip = !p.expect("conflict analysis found a UIP");

        // Cheap clause minimization: drop literals implied by the rest.
        let minimized: Vec<Lit> = learnt
            .iter()
            .copied()
            .filter(|&q| !self.literal_redundant(q))
            .collect();
        let mut clause = Vec::with_capacity(minimized.len() + 1);
        clause.push(uip);
        clause.extend(minimized);

        for v in to_clear {
            self.seen.set(v, false);
        }

        // Backtrack level: highest level among non-UIP literals.
        let bt_level = if clause.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..clause.len() {
                if self.level[clause[i].var().index()] > self.level[clause[max_i].var().index()] {
                    max_i = i;
                }
            }
            clause.swap(1, max_i);
            self.level[clause[1].var().index()] as usize
        };

        // LBD: number of distinct decision levels.
        let mut levels: Vec<u32> = clause.iter().map(|l| self.level[l.var().index()]).collect();
        levels.sort_unstable();
        levels.dedup();
        let lbd = levels.len() as u32;

        (clause, bt_level, lbd)
    }

    /// A literal of the learnt clause is redundant when its reason clause's
    /// other literals are all already marked `seen` (self-subsumption).
    fn literal_redundant(&self, q: Lit) -> bool {
        let v = q.var().index();
        let Some(r) = self.reason[v] else {
            return false;
        };
        self.arena.lits(r).skip(1).all(|l| {
            let lv = l.var().index();
            self.level[lv] == 0 || self.seen.get(lv)
        })
    }

    fn record_learnt(&mut self, clause: Vec<Lit>, lbd: u32) {
        self.stats.learnt_clauses += 1;
        self.export_learnt(&clause, lbd);
        if clause.len() == 1 {
            debug_assert_eq!(self.decision_level(), 0);
            if self.value(clause[0]) == LBool::Undef {
                self.unchecked_enqueue(clause[0], None);
            }
            return;
        }
        let asserting = clause[0];
        let cref = self.attach_clause(&clause, true, false, lbd, self.clause_inc);
        self.unchecked_enqueue(asserting, Some(cref));
    }

    fn cancel_until(&mut self, target: usize) {
        if self.decision_level() <= target {
            return;
        }
        let limit = self.trail_lim[target];
        for idx in (limit..self.trail.len()).rev() {
            let l = self.trail[idx];
            let v = l.var().index();
            self.assign[v] = LBool::Undef;
            self.reason[v] = None;
            if !self.heap.contains(v) {
                self.heap.insert(v, &self.activity);
            }
        }
        self.trail.truncate(limit);
        self.trail_lim.truncate(target);
        self.qhead = self.trail.len();
    }

    fn bump_var(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > RESCALE_LIMIT {
            for a in &mut self.activity {
                *a *= 1.0 / RESCALE_LIMIT;
            }
            self.var_inc *= 1.0 / RESCALE_LIMIT;
        }
        self.heap.update(v, &self.activity);
    }

    fn bump_clause(&mut self, cref: CRef) {
        if !self.arena.is_learnt(cref) {
            return;
        }
        let a = self.arena.activity(cref) + self.clause_inc;
        self.arena.set_activity(cref, a);
        if a > CLAUSE_RESCALE_LIMIT {
            self.arena.scale_activities(1.0 / CLAUSE_RESCALE_LIMIT);
            self.clause_inc /= CLAUSE_RESCALE_LIMIT;
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= VAR_DECAY;
        self.clause_inc /= CLAUSE_DECAY;
    }

    /// Deletes roughly half of the learnt clauses, preferring high-LBD,
    /// low-activity ones, then compacts the arena in place and remaps
    /// every outstanding reference (reasons and watchers). Clauses that
    /// are reasons for current assignments are kept.
    fn reduce_db(&mut self) {
        self.stats.db_reductions += 1;
        self.max_learnts *= 1.15;

        // Rank learnt clauses (binaries are kept unconditionally).
        let mut ranked: Vec<CRef> = self
            .arena
            .iter()
            .filter(|&c| self.arena.is_learnt(c) && self.arena.len(c) > 2)
            .collect();
        ranked.sort_by(|&a, &b| {
            self.arena.lbd(a).cmp(&self.arena.lbd(b)).then(
                self.arena
                    .activity(b)
                    .partial_cmp(&self.arena.activity(a))
                    .unwrap(),
            )
        });
        let keep_from_ranked = ranked.len() / 2;
        for &c in ranked.iter().skip(keep_from_ranked) {
            if !self.is_locked(c) {
                self.arena.mark_dead(c);
                self.stats.deleted_clauses += 1;
                self.n_learnt_clauses -= 1;
            }
        }

        // Compact the arena and remap references through the GC map.
        telemetry::log_debug!(
            "sat.solver",
            "clause database reduced",
            reductions = self.stats.db_reductions,
            ranked = ranked.len(),
            kept = keep_from_ranked,
            deleted_total = self.stats.deleted_clauses,
            max_learnts = self.max_learnts,
        );
        let map = self.arena.collect();
        for r in self.reason.iter_mut() {
            if let Some(old) = *r {
                *r = Some(map.lookup(old).expect("reason clause survived collection"));
            }
        }
        self.watches.retain_map(|c| map.lookup(c));
        self.watches.rebuild();
    }

    fn is_locked(&self, cref: CRef) -> bool {
        let first = self.arena.lit(cref, 0);
        self.value(first) == LBool::True && self.reason[first.var().index()] == Some(cref)
    }

    fn pick_next(&mut self, assumptions: &[Lit]) -> PickResult {
        // Re-assert assumptions in order, one decision level each.
        if self.decision_level() < assumptions.len() {
            let a = assumptions[self.decision_level()];
            return match self.value(a) {
                LBool::True => PickResult::DummyLevel,
                LBool::False => PickResult::AssumptionConflict,
                LBool::Undef => PickResult::Decision(a),
            };
        }
        // Occasional random decision for portfolio diversity (MiniSat's
        // random_var_freq): pick a uniformly random unassigned variable.
        if self.random_branch > 0.0 {
            let draw = (self.next_random() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            if draw < self.random_branch && !self.assign.is_empty() {
                for _ in 0..8 {
                    let v = (self.next_random() % self.assign.len() as u64) as usize;
                    if self.assign[v] == LBool::Undef {
                        return PickResult::Decision(Var::new(v).lit(self.saved_phase.get(v)));
                    }
                }
                // All eight draws hit assigned variables; fall through to
                // the heap.
            }
        }
        // Heuristic decision.
        while let Some(v) = self.heap.pop(&self.activity) {
            if self.assign[v] == LBool::Undef {
                return PickResult::Decision(Var::new(v).lit(self.saved_phase.get(v)));
            }
        }
        // Nothing left in the heap: confirm all variables assigned.
        if self.assign.contains(&LBool::Undef) {
            // Repopulate (can happen when vars were added after a solve).
            for v in 0..self.assign.len() {
                if self.assign[v] == LBool::Undef {
                    self.heap.insert(v, &self.activity);
                }
            }
            let v = self
                .heap
                .pop(&self.activity)
                .expect("unassigned variable exists");
            return PickResult::Decision(Var::new(v).lit(self.saved_phase.get(v)));
        }
        PickResult::AllAssigned
    }

    // ----- test-only inspection -----------------------------------------

    /// Test hook: pins the reduce-db trigger low to force collections.
    #[cfg(test)]
    fn set_max_learnts_for_test(&mut self, v: f64) {
        self.max_learnts = v;
    }

    /// Test hook: recounts the database by a full arena scan, to check the
    /// incremental counters against.
    #[cfg(test)]
    fn db_counts_by_scan(&self) -> (usize, usize) {
        let mut problem = 0;
        let mut learnt = 0;
        for c in self.arena.iter() {
            if self.arena.is_learnt(c) {
                learnt += 1;
            } else {
                problem += 1;
            }
        }
        (problem, learnt)
    }

    /// Test hook: asserts the cross-structure invariants that loading and
    /// arena GC must preserve — every watcher and reason references a live
    /// clause, watch lists sit on the negations of the first two literals,
    /// and every clause is watched exactly twice.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant, or away from the root.
    #[doc(hidden)]
    pub fn check_integrity(&self) {
        use std::collections::HashMap;
        assert_eq!(self.decision_level(), 0, "integrity checks run at root");
        let mut live: HashMap<CRef, (Lit, Lit)> = HashMap::new();
        for c in self.arena.iter() {
            assert!(self.arena.len(c) >= 2, "arena clause too short");
            for l in self.arena.lits(c) {
                assert!(l.var().index() < self.num_vars(), "literal out of range");
            }
            live.insert(c, (self.arena.lit(c, 0), self.arena.lit(c, 1)));
        }
        let mut watch_count: HashMap<CRef, usize> = HashMap::new();
        for code in 0..self.watches.num_lits() {
            let watched = !Lit::from_code(code);
            for w in self.watches.iter_list(code) {
                let (w0, w1) = *live.get(&w.cref).expect("watcher references a live clause");
                assert!(
                    watched == w0 || watched == w1,
                    "watch list holds a non-watched literal"
                );
                *watch_count.entry(w.cref).or_default() += 1;
            }
        }
        for &c in live.keys() {
            assert_eq!(
                watch_count.get(&c).copied().unwrap_or(0),
                2,
                "clause must be watched exactly twice"
            );
        }
        for r in &self.reason {
            if let Some(c) = *r {
                assert!(live.contains_key(&c), "reason references a dead clause");
            }
        }
    }
}

/// SplitMix64 finalizer: decorrelates adjacent seeds (1,2,3,... are the
/// common portfolio inputs) and guarantees the non-zero state xorshift
/// needs. A plain `seed | 1` would alias every even seed onto the next
/// odd one.
fn scramble_seed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z = z ^ (z >> 31);
    if z == 0 {
        0x9E37_79B9_7F4A_7C15
    } else {
        z
    }
}

enum PickResult {
    Decision(Lit),
    DummyLevel,
    AssumptionConflict,
    AllAssigned,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::Cnf;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn lit(i: i64) -> Lit {
        Lit::from_dimacs(i)
    }

    #[test]
    fn empty_formula_is_sat() {
        assert!(Solver::new().solve().is_sat());
    }

    #[test]
    fn unit_clauses_propagate() {
        let mut s = Solver::new();
        s.add_clause([lit(1)]);
        s.add_clause([lit(-1), lit(2)]);
        s.add_clause([lit(-2), lit(3)]);
        let SolveResult::Sat(m) = s.solve() else {
            panic!()
        };
        assert!(m.lit_value(lit(1)) && m.lit_value(lit(2)) && m.lit_value(lit(3)));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        s.add_clause([lit(1)]);
        s.add_clause([lit(-1)]);
        assert!(s.solve().is_unsat());
        // Stays UNSAT on re-solve.
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        s.add_clause([]);
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn tautologies_are_ignored() {
        let mut s = Solver::new();
        s.add_clause([lit(1), lit(-1)]);
        assert_eq!(s.num_clauses(), 0);
        assert!(s.solve().is_sat());
    }

    /// Pigeonhole principle PHP(n+1, n): unsatisfiable.
    fn pigeonhole(pigeons: usize, holes: usize) -> Cnf {
        let mut cnf = Cnf::new();
        let var = |p: usize, h: usize| Var::new(p * holes + h);
        for _ in 0..pigeons * holes {
            cnf.new_var();
        }
        // Every pigeon sits somewhere.
        for p in 0..pigeons {
            cnf.add_clause((0..holes).map(|h| var(p, h).positive()));
        }
        // No two pigeons share a hole.
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    cnf.add_clause([var(p1, h).negative(), var(p2, h).negative()]);
                }
            }
        }
        cnf
    }

    #[test]
    fn pigeonhole_unsat() {
        for n in 2..6usize {
            let cnf = pigeonhole(n + 1, n);
            assert!(
                Solver::from_cnf(&cnf).solve().is_unsat(),
                "PHP({},{n})",
                n + 1
            );
        }
    }

    #[test]
    fn pigeonhole_sat_when_enough_holes() {
        let cnf = pigeonhole(4, 4);
        let SolveResult::Sat(m) = Solver::from_cnf(&cnf).solve() else {
            panic!()
        };
        assert!(cnf.eval(&m.values()));
    }

    #[test]
    fn assumptions_are_incremental() {
        let mut s = Solver::new();
        // x1 xor x2 (as CNF)
        s.add_clause([lit(1), lit(2)]);
        s.add_clause([lit(-1), lit(-2)]);
        let r1 = s.solve_with_assumptions(&[lit(1)]);
        assert!(r1.model().unwrap().lit_value(lit(-2)));
        let r2 = s.solve_with_assumptions(&[lit(2)]);
        assert!(r2.model().unwrap().lit_value(lit(-1)));
        assert!(s.solve_with_assumptions(&[lit(1), lit(2)]).is_unsat());
        // Solver unaffected afterwards.
        assert!(s.solve().is_sat());
    }

    #[test]
    fn conflicting_assumptions_unsat() {
        let mut s = Solver::new();
        s.add_clause([lit(1), lit(2)]);
        assert!(s.solve_with_assumptions(&[lit(-1), lit(1)]).is_unsat());
    }

    #[test]
    fn conflict_budget_reports_unknown() {
        // A hard instance with a tiny budget must return Unknown.
        let cnf = pigeonhole(8, 7);
        let mut s = Solver::from_cnf(&cnf);
        s.set_conflict_budget(Some(5));
        assert!(matches!(s.solve(), SolveResult::Unknown));
        // Removing the budget solves it.
        s.set_conflict_budget(None);
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn model_satisfies_formula_on_random_3sat() {
        let mut rng = StdRng::seed_from_u64(99);
        for round in 0..60 {
            let nvars = rng.gen_range(5..22);
            let nclauses = rng.gen_range(1..nvars * 4);
            let mut cnf = Cnf::new();
            cnf.new_vars(nvars);
            for _ in 0..nclauses {
                let mut c = Vec::new();
                for _ in 0..3 {
                    let v = rng.gen_range(0..nvars);
                    c.push(Var::new(v).lit(rng.gen_bool(0.5)));
                }
                cnf.add_clause(c);
            }
            let result = Solver::from_cnf(&cnf).solve();
            // Cross-check against brute force.
            let brute = (0u64..1 << nvars).any(|mask| {
                let assignment: Vec<bool> = (0..nvars).map(|i| mask >> i & 1 == 1).collect();
                cnf.eval(&assignment)
            });
            match result {
                SolveResult::Sat(m) => {
                    assert!(cnf.eval(&m.values()), "round {round}: bad model");
                    assert!(brute, "round {round}: solver SAT but brute UNSAT");
                }
                SolveResult::Unsat => assert!(!brute, "round {round}: solver UNSAT but brute SAT"),
                SolveResult::Unknown | SolveResult::Interrupted => {
                    panic!("round {round}: unexpected Unknown/Interrupted")
                }
            }
        }
    }

    #[test]
    fn clause_database_reduction_is_sound() {
        // A formula family needing many conflicts: random XOR chains.
        let mut rng = StdRng::seed_from_u64(4);
        let mut cnf = Cnf::new();
        let vars = cnf.new_vars(40);
        for _ in 0..70 {
            let a = vars[rng.gen_range(0usize..40)].positive();
            let b = vars[rng.gen_range(0usize..40)].positive();
            let c = vars[rng.gen_range(0usize..40)].positive();
            let g1 = cnf.xor_gate(a, b);
            let g2 = cnf.xor_gate(g1, c);
            cnf.add_clause([g2]);
        }
        let mut s = Solver::from_cnf(&cnf);
        if let SolveResult::Sat(m) = s.solve() {
            assert!(cnf.eval(&m.values()));
        }
        // Either answer is legitimate; soundness is what we checked above.
    }

    #[test]
    fn variables_added_after_solve() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause([a.positive()]);
        assert!(s.solve().is_sat());
        let b = s.new_var();
        s.add_clause([b.negative()]);
        let SolveResult::Sat(m) = s.solve() else {
            panic!()
        };
        assert!(m.value(a));
        assert!(!m.value(b));
    }

    #[test]
    fn pre_raised_stop_flag_interrupts_immediately() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let mut s = Solver::from_cnf(&pigeonhole(8, 7));
        let stop = Arc::new(AtomicBool::new(true));
        s.set_stop_flag(Some(stop.clone()));
        assert!(matches!(s.solve(), SolveResult::Interrupted));
        // Clearing the flag lets the solve proceed to the real answer.
        stop.store(false, Ordering::Relaxed);
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn stop_flag_terminates_long_solve_promptly() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        use std::time::Duration;
        // PHP(10,9) takes far longer than the test budget to refute; the
        // stop flag must cut it short.
        let stop = Arc::new(AtomicBool::new(false));
        let worker_stop = stop.clone();
        let worker = std::thread::spawn(move || {
            let mut s = Solver::from_cnf(&pigeonhole(10, 9));
            s.set_stop_flag(Some(worker_stop));
            let start = Instant::now();
            let result = s.solve();
            (result, start.elapsed())
        });
        std::thread::sleep(Duration::from_millis(50));
        stop.store(true, Ordering::Relaxed);
        let (result, elapsed) = worker.join().unwrap();
        assert!(matches!(result, SolveResult::Interrupted), "{result:?}");
        assert!(
            elapsed < Duration::from_secs(5),
            "interrupt took {elapsed:?}"
        );
    }

    #[test]
    fn random_branching_is_sound() {
        let mut rng = StdRng::seed_from_u64(17);
        for round in 0..30 {
            let nvars = rng.gen_range(5usize..18);
            let nclauses = rng.gen_range(1..nvars * 4);
            let mut cnf = Cnf::new();
            cnf.new_vars(nvars);
            for _ in 0..nclauses {
                let mut c = Vec::new();
                for _ in 0..3 {
                    let v = rng.gen_range(0..nvars);
                    c.push(Var::new(v).lit(rng.gen_bool(0.5)));
                }
                cnf.add_clause(c);
            }
            let brute = (0u64..1 << nvars).any(|mask| {
                let assignment: Vec<bool> = (0..nvars).map(|i| mask >> i & 1 == 1).collect();
                cnf.eval(&assignment)
            });
            let mut s = Solver::from_cnf(&cnf);
            s.set_random_seed(round as u64 + 1);
            s.set_random_branch(0.5);
            s.randomize_phases(round as u64 + 99);
            match s.solve() {
                SolveResult::Sat(m) => {
                    assert!(cnf.eval(&m.values()), "round {round}: bad model");
                    assert!(brute, "round {round}: solver SAT but brute UNSAT");
                }
                SolveResult::Unsat => assert!(!brute, "round {round}: solver UNSAT but brute SAT"),
                other => panic!("round {round}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn distinct_seeds_diversify_search() {
        // Two solvers on the same satisfiable formula with different seeds
        // and heavy random branching should (almost surely) take different
        // decision trajectories. Statistical, but with 40 variables the
        // collision probability is negligible.
        let mut rng = StdRng::seed_from_u64(23);
        let mut cnf = Cnf::new();
        cnf.new_vars(40);
        for _ in 0..80 {
            let mut c = Vec::new();
            for _ in 0..3 {
                c.push(Var::new(rng.gen_range(0usize..40)).lit(rng.gen_bool(0.5)));
            }
            cnf.add_clause(c);
        }
        let run = |seed: u64| {
            let mut s = Solver::from_cnf(&cnf);
            s.set_random_seed(seed);
            s.set_random_branch(0.9);
            s.randomize_phases(seed);
            let result = s.solve();
            (result.model().map(|m| m.values()), s.stats().decisions)
        };
        // Seeds 2 and 3 specifically: a naive `seed | 1` state fix-up
        // aliases this adjacent even/odd pair onto one stream.
        let (m1, d1) = run(2);
        let (m2, d2) = run(3);
        assert!(m1 != m2 || d1 != d2, "seeds 2 and 3 were indistinguishable");
    }

    #[test]
    fn clause_counters_stay_incremental() {
        // num_clauses/learnt_count must match a full arena scan after
        // heavy learning and reductions (they are O(1) counters).
        let cnf = pigeonhole(7, 6);
        let mut s = Solver::from_cnf(&cnf);
        assert_eq!(s.num_clauses(), cnf.num_clauses());
        assert!(s.solve().is_unsat());
        let (problem, learnt) = s.db_counts_by_scan();
        assert_eq!(s.num_clauses(), problem);
        assert_eq!(s.learnt_count(), learnt);
    }

    #[test]
    fn restart_policy_is_pluggable_and_sound() {
        use crate::restart::{FixedRestarts, GeometricRestarts};
        // The same UNSAT instance under aggressive fixed restarts and
        // a slow geometric schedule: identical verdicts, and the fixed
        // schedule must actually restart more.
        let cnf = pigeonhole(6, 5);
        let mut fixed = Solver::from_cnf(&cnf);
        fixed.set_restart_policy(Box::new(FixedRestarts::new(8)));
        assert!(fixed.solve().is_unsat());
        let mut geo = Solver::from_cnf(&cnf);
        geo.set_restart_policy(Box::new(GeometricRestarts::new(10_000, 2.0)));
        assert!(geo.solve().is_unsat());
        if fixed.stats().conflicts >= 16 {
            assert!(fixed.stats().restarts > geo.stats().restarts);
        }
    }

    #[test]
    fn gc_compaction_keeps_watchers_and_reasons_consistent() {
        // Force many arena collections on a conflict-heavy instance and
        // re-check the cross-structure invariants after every chunk: every
        // reason and watcher must survive each sliding compaction remap.
        let cnf = pigeonhole(7, 6);
        let mut s = Solver::from_cnf(&cnf);
        s.set_max_learnts_for_test(40.0);
        s.set_conflict_budget(Some(500));
        let mut verdict = None;
        for _ in 0..1000 {
            match s.solve() {
                SolveResult::Unknown => s.check_integrity(),
                SolveResult::Unsat => {
                    verdict = Some(());
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(verdict.is_some(), "PHP(7,6) must be refuted");
        s.check_integrity();
        assert!(
            s.stats().db_reductions >= 2,
            "test must exercise repeated collections, got {}",
            s.stats().db_reductions
        );
    }

    #[test]
    fn adaptive_export_threshold_moves_within_bounds() {
        use crate::shared::{ExchangeConfig, SharedContext};
        let cfg = ExchangeConfig {
            export_lbd: ExportLbd {
                floor: 1,
                initial: 3,
                ceiling: 6,
            },
            ..ExchangeConfig::default()
        };

        // Tightening: imports that never propagate. Each foreign binary
        // contains the root-false literal ¬x1, so it simplifies to a root
        // unit on arrival — counted as an import, enqueued without a
        // clause reference, and therefore never an imported *reason*.
        let ctx = SharedContext::new(2, cfg);
        let h0 = ctx.handle(0);
        let mut s = Solver::new();
        s.reserve_vars(60);
        s.add_clause([lit(1)]);
        s.set_clause_exchange(Some(ctx.handle(1)));
        assert_eq!(s.adapted_export_lbd(), 3, "starts at the initial bound");
        let mut next_var = 2i64;
        let mut useless_batch = |s: &mut Solver| {
            for _ in 0..16 {
                assert!(h0.export(&[lit(-1), lit(next_var)], 2, None));
                next_var += 1;
            }
            assert!(s.solve().is_sat());
        };
        useless_batch(&mut s);
        assert_eq!(s.adapted_export_lbd(), 2, "useless imports tighten");
        useless_batch(&mut s);
        assert_eq!(s.adapted_export_lbd(), 1);
        useless_batch(&mut s);
        assert_eq!(s.adapted_export_lbd(), 1, "clamped at the floor");
        assert_eq!(s.stats().adapted_export_lbd, 1);

        // Loosening: imports that fire as reasons. Under the assumption
        // x1, every imported binary ¬x1 ∨ b_k propagates b_k with the
        // imported clause as reason, so each window sees a high
        // usefulness rate once the previous batch has propagated.
        let ctx = SharedContext::new(2, cfg);
        let h0 = ctx.handle(0);
        let mut s = Solver::new();
        s.reserve_vars(120);
        s.set_clause_exchange(Some(ctx.handle(1)));
        let mut next_var = 2i64;
        let mut useful_batch = |s: &mut Solver| {
            for _ in 0..16 {
                assert!(h0.export(&[lit(-1), lit(next_var)], 2, None));
                next_var += 1;
            }
            assert!(s.solve_with_assumptions(&[lit(1)]).is_sat());
            s.adapted_export_lbd()
        };
        // The first batch adapts before anything has propagated (rate 0),
        // tightening once; from then on every window is all-useful.
        assert_eq!(useful_batch(&mut s), 2);
        assert_eq!(useful_batch(&mut s), 3, "useful imports loosen");
        assert_eq!(useful_batch(&mut s), 4);
        assert_eq!(useful_batch(&mut s), 5);
        assert_eq!(useful_batch(&mut s), 6);
        assert_eq!(useful_batch(&mut s), 6, "clamped at the ceiling");
        assert_eq!(s.stats().adapted_export_lbd, 6);
    }

    #[test]
    fn pinned_export_lbd_never_moves() {
        use crate::shared::{ExchangeConfig, SharedContext};
        let ctx = SharedContext::new(
            2,
            ExchangeConfig {
                export_lbd: ExportLbd::fixed(4),
                ..ExchangeConfig::default()
            },
        );
        let h0 = ctx.handle(0);
        let mut s = Solver::new();
        s.reserve_vars(40);
        s.add_clause([lit(1)]);
        s.set_clause_exchange(Some(ctx.handle(1)));
        for k in 2..=33i64 {
            assert!(h0.export(&[lit(-1), lit(k)], 2, None));
        }
        assert!(s.solve().is_sat());
        assert_eq!(s.adapted_export_lbd(), 4, "fixed bounds pin the filter");
    }

    #[test]
    fn exchange_imports_foreign_units_and_binaries() {
        use crate::shared::{ExchangeConfig, SharedContext};
        let ctx = SharedContext::new(2, ExchangeConfig::default());
        // Lane 0 "learns" x0 and (x1 ∨ x2) out of band.
        ctx.handle(0).export(&[lit(1)], 1, None);
        ctx.handle(0).export(&[lit(2), lit(3)], 2, None);
        // Lane 1's formula: ¬x1 ∨ ¬x2 — alone SAT with everything free.
        let mut s = Solver::new();
        s.reserve_vars(3);
        s.add_clause([lit(-2), lit(-3)]);
        s.set_clause_exchange(Some(ctx.handle(1)));
        let SolveResult::Sat(m) = s.solve() else {
            panic!()
        };
        // The imported unit forces x0; the imported binary + own clause
        // force exactly one of x1/x2.
        assert!(m.lit_value(lit(1)));
        assert!(m.lit_value(lit(2)) ^ m.lit_value(lit(3)));
        assert_eq!(s.stats().imported_clauses, 2);
        assert_eq!(s.learnt_count(), 1, "the binary joins the learnt db");
    }

    #[test]
    fn contradictory_imports_prove_unsat() {
        use crate::shared::{ExchangeConfig, SharedContext};
        let ctx = SharedContext::new(2, ExchangeConfig::default());
        ctx.handle(0).export(&[lit(1)], 1, None);
        ctx.handle(0).export(&[lit(-1)], 1, None);
        let mut s = Solver::new();
        s.reserve_vars(1);
        s.set_clause_exchange(Some(ctx.handle(1)));
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn bound_tagged_imports_defer_until_promotion() {
        use crate::shared::{ExchangeConfig, SharedContext};
        let ctx = SharedContext::new(2, ExchangeConfig::default());
        // A unit derived under "weight < 5".
        ctx.handle(0).export(&[lit(1)], 1, Some(5));
        let mut s = Solver::new();
        s.reserve_vars(1);
        s.set_clause_exchange(Some(ctx.handle(1)));
        // Unbounded solve: the clause must be parked, not applied.
        assert!(s.solve().is_sat());
        assert_eq!(s.stats().imported_clauses, 0);
        // A *looser* own bound still defers.
        s.set_bound_tag(Some(9));
        assert!(s.solve().is_sat());
        assert_eq!(s.stats().imported_clauses, 0);
        // Once our bound is at least as tight, the clause is promoted.
        s.set_bound_tag(Some(5));
        let SolveResult::Sat(m) = s.solve() else {
            panic!()
        };
        assert!(m.lit_value(lit(1)));
        assert_eq!(s.stats().imported_clauses, 1);
        assert_eq!(s.stats().promoted_clauses, 1);
    }

    #[test]
    fn lanes_racing_one_unsat_instance_share_clauses() {
        use crate::restart::FixedRestarts;
        use crate::shared::{ExchangeConfig, SharedContext};
        // Two solvers on one PHP instance, sequentially: lane 0 refutes it
        // and exports its short learnt clauses; lane 1 then imports them
        // and must reach the same verdict (typically in fewer conflicts,
        // but only the verdict is asserted — determinism is not).
        let cnf = pigeonhole(7, 6);
        let ctx = SharedContext::new(
            2,
            ExchangeConfig {
                export_lbd: ExportLbd::fixed(u32::MAX),
                max_shared_len: usize::MAX,
                capacity_per_lane: 1 << 14,
            },
        );
        let mut a = Solver::from_cnf(&cnf);
        a.set_clause_exchange(Some(ctx.handle(0)));
        a.set_restart_policy(Box::new(FixedRestarts::new(16)));
        assert!(a.solve().is_unsat());
        assert!(
            a.stats().exported_clauses > 0,
            "refuting PHP(7,6) must learn exportable clauses"
        );
        let mut b = Solver::from_cnf(&cnf);
        b.set_clause_exchange(Some(ctx.handle(1)));
        assert!(b.solve().is_unsat());
        assert!(b.stats().imported_clauses > 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        // Clause exchange preserves satisfiability: a solver importing
        // another lane's exported clauses reaches the same SAT/UNSAT
        // verdict as a solo solver on the same random CNF, and its models
        // still satisfy the formula.
        #[test]
        fn prop_clause_exchange_preserves_satisfiability(
            nvars in 3usize..12,
            clauses in proptest::collection::vec(
                proptest::collection::vec((0usize..12, any::<bool>()), 1..4), 1..40)
        ) {
            use crate::restart::FixedRestarts;
            use crate::shared::{ExchangeConfig, SharedContext};
            let mut cnf = Cnf::new();
            cnf.new_vars(nvars);
            for c in &clauses {
                cnf.add_clause(c.iter().map(|&(v, pol)| Var::new(v % nvars).lit(pol)));
            }
            let solo = Solver::from_cnf(&cnf).solve();

            // Share everything: no LBD/length filter, aggressive restarts
            // so the exporter drains/learns at every opportunity.
            let ctx = SharedContext::new(2, ExchangeConfig {
                export_lbd: ExportLbd::fixed(u32::MAX),
                max_shared_len: usize::MAX,
                capacity_per_lane: 4096,
            });
            let mut exporter = Solver::from_cnf(&cnf);
            exporter.set_clause_exchange(Some(ctx.handle(0)));
            exporter.set_restart_policy(Box::new(FixedRestarts::new(1)));
            let exporter_verdict = exporter.solve();
            let mut importer = Solver::from_cnf(&cnf);
            importer.set_clause_exchange(Some(ctx.handle(1)));
            let importer_verdict = importer.solve();

            for (label, verdict) in [("exporter", &exporter_verdict), ("importer", &importer_verdict)] {
                match (verdict, &solo) {
                    (SolveResult::Sat(m), SolveResult::Sat(_)) => {
                        prop_assert!(cnf.eval(&m.values()), "{label}: bad model");
                    }
                    (SolveResult::Unsat, SolveResult::Unsat) => {}
                    other => prop_assert!(false, "{label}: verdict mismatch {other:?}"),
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_agrees_with_brute_force(
            nvars in 3usize..10,
            clauses in proptest::collection::vec(
                proptest::collection::vec((0usize..10, any::<bool>()), 1..4), 0..30)
        ) {
            let mut cnf = Cnf::new();
            cnf.new_vars(nvars);
            for c in &clauses {
                cnf.add_clause(c.iter().map(|&(v, pol)| Var::new(v % nvars).lit(pol)));
            }
            let result = Solver::from_cnf(&cnf).solve();
            let brute = (0u64..1 << nvars).any(|mask| {
                let assignment: Vec<bool> = (0..nvars).map(|i| mask >> i & 1 == 1).collect();
                cnf.eval(&assignment)
            });
            match result {
                SolveResult::Sat(m) => {
                    prop_assert!(cnf.eval(&m.values()));
                    prop_assert!(brute);
                }
                SolveResult::Unsat => prop_assert!(!brute),
                SolveResult::Unknown | SolveResult::Interrupted => {
                    prop_assert!(false, "unexpected Unknown/Interrupted")
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        // Differential test of the arena under constant GC pressure: with
        // the reduce-db trigger pinned near zero and aggressive restarts,
        // the solver collects the arena many times per solve, and must
        // still agree with brute force (and keep its references intact).
        #[test]
        fn prop_arena_gc_preserves_verdicts(
            nvars in 4usize..11,
            clauses in proptest::collection::vec(
                proptest::collection::vec((0usize..11, any::<bool>()), 1..4), 5..60)
        ) {
            use crate::restart::FixedRestarts;
            let mut cnf = Cnf::new();
            cnf.new_vars(nvars);
            for c in &clauses {
                cnf.add_clause(c.iter().map(|&(v, pol)| Var::new(v % nvars).lit(pol)));
            }
            let mut s = Solver::from_cnf(&cnf);
            s.set_max_learnts_for_test(4.0);
            s.set_restart_policy(Box::new(FixedRestarts::new(4)));
            let result = s.solve();
            s.check_integrity();
            let brute = (0u64..1 << nvars).any(|mask| {
                let assignment: Vec<bool> = (0..nvars).map(|i| mask >> i & 1 == 1).collect();
                cnf.eval(&assignment)
            });
            match result {
                SolveResult::Sat(m) => {
                    prop_assert!(cnf.eval(&m.values()), "bad model under GC pressure");
                    prop_assert!(brute);
                }
                SolveResult::Unsat => prop_assert!(!brute, "false UNSAT under GC pressure"),
                other => prop_assert!(false, "unexpected {other:?}"),
            }
        }
    }
}
