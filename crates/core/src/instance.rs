//! Constraint generation: Fermion-to-qubit encoding as SAT.
//!
//! Implements Sections 3.3–3.7 of the paper:
//!
//! * **Anticommutativity** — for every string pair, the per-qubit
//!   anticommutativity predicates must XOR to 1. Per qubit the predicate is
//!   `(b1·b2′) ⊕ (b2·b1′)` (two AND gates and one XOR — the closed form of
//!   the paper's Eq. 9 truth table).
//! * **Algebraic independence** — for every non-empty subset of the `2N`
//!   strings, the XOR of their bit-sequence forms must not vanish. Subsets
//!   are enumerated depth-first so XOR prefixes are shared, giving the
//!   `≈ 2N·2^{2N}` auxiliary variables the paper reports in Table 3.
//! * **Vacuum state** — each Majorana pair needs an index holding an
//!   `(X, Y)` operator pair (Section 3.5).
//! * **Weight objective** — per-site weight literals (`b1 ∨ b2`) feed a
//!   totalizer ([`sat::Totalizer`]); Hamiltonian-dependent weight instead
//!   counts the sites of every Majorana-monomial product via XOR networks
//!   (Section 3.7).
//!
//! # One search formula, the paper formula on demand
//!
//! A problem is its mode count, objective and vacuum flag, and it has one
//! *search formula* — what Algorithm 1 solves
//! ([`EncodingInstance::search`]): the families above **without** the
//! `4^N` independence set, plus, under `MajoranaWeight` up to five modes,
//! the qubit-order block of [`crate::symmetry`]. [`EncodingProblem::build`]
//! generates it once for every problem. Independence is stated by the rank
//! check the descent runs on every model, and never fails:
//!
//! **Lemma.** An even number of pairwise-anticommuting Pauli strings is
//! GF(2)-independent.
//!
//! *Proof.* Suppose a non-empty subset `S` multiplies to a multiple of the
//! identity. Every `m ∈ S` commutes with that product; `m` commutes with
//! itself and anticommutes with the other `|S| − 1` members, so `|S| − 1`
//! is even and `|S|` is odd. Every `m′ ∉ S` anticommutes with all `|S|`
//! members, hence (odd `|S|`) with their product — impossible for a
//! multiple of the identity — so nothing lies outside `S`: `S` is the whole
//! set, whose size is even. Contradiction. ∎
//!
//! Every instance built here has `2N` strings, so anticommutativity
//! (§3.3) already implies independence (§3.4): the paper's §4.1 / Fig. 4
//! argument that the `4^N` clauses can *probably* be dropped holds exactly.
//! (An odd set can be dependent — `X, Y, Z` — and any `2N + 1` anticommuting
//! strings on `N` qubits are; `encodings/tests/anticommuting_sets.rs`
//! checks the lemma exhaustively at `N ≤ 3`, sampled to `N = 8`, with both
//! controls.)
//!
//! So `new(n)` and [`EncodingProblem::full_sat`] search the same formula.
//! The flag names only the *paper formula* ([`EncodingInstance::cnf`] and
//! its siblings: Table 3, the DIMACS artefact, the reference every other
//! path is tested against) — without it, the search formula minus the
//! block; with it, §3.4 on top, generated on first read with its own
//! totalizer over the same primaries.
//!
//! Soundness does not rest on the lemma. UNSAT of the search formula
//! without the block is UNSAT of the paper formula, which has every one of
//! its clauses; a model is returned only after the rank check passed; a
//! model that failed it would be blocked and the bound retried, which is
//! finite and complete. The lemma only says why that path is never taken.
//! One default lane to the certificate, conflicts / propagations: `N = 4`
//! 988 / 303,629 with the §3.4 clauses in the solver, 1,219 / 166,428
//! without; `N = 5` 43,546 / 27,233,641 against 56,005 / 12,129,380 — more
//! conflicts at under half the price each, since the long subset clauses
//! were what propagation spent its time on.

use crate::layout::VarLayout;
use crate::symmetry;
use encodings::weight::structure_weight;
use fermion::MajoranaMonomial;
use pauli::{PauliString, PhasedString};
use sat::{Cnf, Lit, Model, Solver, Totalizer};
use std::sync::OnceLock;

/// Hard cap on modes for a paper formula with the algebraic-independence
/// clauses (`2^{2N}` subsets; the paper also stops at 8, Table 3). No
/// search formula has an exponential family.
pub const MAX_FULL_SAT_MODES: usize = 8;

/// The optimization objective (paper Section 3.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Objective {
    /// Minimize the summed Pauli weight of the 2N Majorana strings
    /// (Hamiltonian-independent, Section 3.6).
    MajoranaWeight,
    /// Minimize the summed Pauli weight over a target Hamiltonian's
    /// de-duplicated Majorana monomials (Hamiltonian-dependent,
    /// Section 3.7).
    HamiltonianWeight(Vec<MajoranaMonomial>),
}

/// Declarative description of an encoding-search problem.
///
/// # Example
///
/// ```
/// use fermihedral::{EncodingProblem, Objective};
///
/// let problem = EncodingProblem::new(3, Objective::MajoranaWeight)
///     .with_algebraic_independence(true);
/// let instance = problem.build();
/// let stats = instance.stats();
/// assert!(stats.num_clauses > 0);
/// assert_eq!(stats.num_modes, 3);
/// ```
#[derive(Debug, Clone)]
pub struct EncodingProblem {
    num_modes: usize,
    objective: Objective,
    algebraic_independence: bool,
    vacuum: bool,
}

impl EncodingProblem {
    /// A problem with the paper's default optional constraints: vacuum
    /// condition on, algebraic-independence clauses off (the Section 4.1
    /// configuration, which scales; its models are independent anyway, see
    /// the lemma in the [module docs](self)).
    pub fn new(num_modes: usize, objective: Objective) -> EncodingProblem {
        assert!(num_modes > 0, "need at least one mode");
        EncodingProblem {
            num_modes,
            objective,
            algebraic_independence: false,
            vacuum: true,
        }
    }

    /// The paper's **Full SAT** configuration: every constraint enabled
    /// in the paper formula; it searches as [`new`](Self::new) does.
    pub fn full_sat(num_modes: usize, objective: Objective) -> EncodingProblem {
        EncodingProblem::new(num_modes, objective).with_algebraic_independence(true)
    }

    /// Whether the paper formula includes the exponential
    /// algebraic-independence clause set; no search formula does. Reading
    /// that formula panics above [`MAX_FULL_SAT_MODES`] modes.
    pub fn with_algebraic_independence(mut self, on: bool) -> EncodingProblem {
        self.algebraic_independence = on;
        self
    }

    /// Enables/disables the vacuum-state XY-pair constraint.
    pub fn with_vacuum_condition(mut self, on: bool) -> EncodingProblem {
        self.vacuum = on;
        self
    }

    /// Number of modes.
    pub fn num_modes(&self) -> usize {
        self.num_modes
    }

    /// The objective.
    pub fn objective(&self) -> &Objective {
        &self.objective
    }

    /// Whether the paper formula includes the independence clauses.
    pub fn has_algebraic_independence(&self) -> bool {
        self.algebraic_independence
    }

    /// Whether the vacuum condition is enabled.
    pub fn has_vacuum_condition(&self) -> bool {
        self.vacuum
    }

    /// Generates the search formula; the paper formula of a problem with
    /// algebraic independence waits for its first read.
    pub fn build(&self) -> EncodingInstance {
        let layout = VarLayout::new(self.num_modes);
        let (cnf, totalizer) = self.generate(&layout, false, Cnf::new());
        // The block's selector and the measurements that narrowed it are
        // in the `symmetry` module docs.
        let ordered = matches!(self.objective, Objective::MajoranaWeight)
            && self.num_modes <= symmetry::MAX_ORDERED_MODES;
        let order_block = ordered.then(|| symmetry::qubit_order_block(&layout, cnf.num_vars()));
        EncodingInstance {
            problem: self.clone(),
            layout,
            cnf,
            totalizer,
            order_block,
            paper: OnceLock::new(),
        }
    }

    /// The constraint families in their fixed order — anticommutation,
    /// independence (when asked for), vacuum, weight literals, totalizer —
    /// into the empty `cnf`; `layout`'s primaries come first in every formula.
    fn generate(&self, layout: &VarLayout, independence: bool, mut cnf: Cnf) -> (Cnf, Totalizer) {
        cnf.new_vars(layout.num_primary_vars());
        add_anticommutativity(&mut cnf, layout);
        if independence {
            add_algebraic_independence(&mut cnf, layout);
        }
        if self.vacuum {
            add_vacuum_condition(&mut cnf, layout);
        }
        let weight_inputs = match &self.objective {
            Objective::MajoranaWeight => majorana_weight_literals(&mut cnf, layout),
            Objective::HamiltonianWeight(monomials) => {
                hamiltonian_weight_literals(&mut cnf, layout, monomials)
            }
        };
        let totalizer = Totalizer::new(&mut cnf, &weight_inputs);
        (cnf, totalizer)
    }
}

/// A generated CNF instance with its weight counter.
///
/// [`search`](Self::search) is the formula Algorithm 1 solves;
/// [`cnf`](Self::cnf), [`stats`](Self::stats),
/// [`write_dimacs`](Self::write_dimacs), [`solver`](Self::solver) and
/// [`assume_weight_less_than`](Self::assume_weight_less_than) are the
/// *paper formula* (see the [module docs](self)).
/// [`layout`](Self::layout), [`decode`](Self::decode),
/// [`measure_weight`](Self::measure_weight) and
/// [`weight_upper_bound`](Self::weight_upper_bound) serve both: the
/// primaries are numbered first in each, and both count the same inputs.
#[derive(Debug, Clone)]
pub struct EncodingInstance {
    problem: EncodingProblem,
    layout: VarLayout,
    /// The search formula, without the §3.4 family.
    cnf: Cnf,
    /// The weight counter inside `cnf`.
    totalizer: Totalizer,
    /// [`symmetry::qubit_order_block`] over `cnf`'s variables, auxiliaries
    /// numbered after them; `MajoranaWeight` up to `MAX_ORDERED_MODES` only.
    order_block: Option<Cnf>,
    /// The paper formula with the §3.4 family, generated on first read;
    /// unused without algebraic independence.
    paper: OnceLock<(Cnf, Totalizer)>,
}

/// The formula Algorithm 1 solves, with the weight counter that belongs to
/// it. The solver, the bound assumptions and the variable count all come
/// from here because they must come from the same place: the search and
/// paper formulas number their totalizers differently, and a solver of one
/// given an assumption literal of the other answers a question nobody
/// asked.
#[derive(Debug, Clone, Copy)]
pub struct SearchFormula<'a> {
    cnf: &'a Cnf,
    totalizer: &'a Totalizer,
    order_block: Option<&'a Cnf>,
}

impl SearchFormula<'_> {
    /// Whether there is a qubit-order block to load
    /// ([`crate::symmetry`]): `MajoranaWeight` up to `MAX_ORDERED_MODES` only.
    pub fn has_order_block(&self) -> bool {
        self.order_block.is_some()
    }

    /// A fresh solver loaded with the search formula; with `ordered` (which
    /// needs [`has_order_block`](Self::has_order_block)) the block is
    /// appended, leaving one model per qubit-relabelling orbit, and phase
    /// hints must be in [`crate::symmetry::canonical_qubit_order`].
    /// Satisfiable under exactly the bounds the paper formula is.
    pub fn solver(&self, ordered: bool) -> Solver {
        let mut solver = Solver::from_cnf(self.cnf);
        if ordered {
            let block = self.order_block.expect("this instance has no order block");
            for clause in block.clauses() {
                solver.add_clause(clause.iter().copied());
            }
        }
        solver
    }

    /// Assumption literal enforcing `objective weight < w` in a
    /// [`solver`](Self::solver) of this formula; `None` when the bound is
    /// trivially true.
    ///
    /// # Panics
    ///
    /// Panics if `w == 0`.
    pub fn assume_weight_less_than(&self, w: usize) -> Option<Lit> {
        self.totalizer.less_than(w)
    }

    /// Variables of the formula, block auxiliaries included — the bound on
    /// every literal a clause learnt by a [`solver`](Self::solver) can
    /// mention.
    pub fn num_vars(&self) -> usize {
        self.order_block.map_or(self.cnf.num_vars(), Cnf::num_vars)
    }
}

impl EncodingInstance {
    /// The problem this instance encodes.
    pub fn problem(&self) -> &EncodingProblem {
        &self.problem
    }

    /// The variable layout.
    pub fn layout(&self) -> &VarLayout {
        &self.layout
    }

    /// The paper formula and its weight counter; one with the §3.4 family
    /// is generated on first read, and panics above [`MAX_FULL_SAT_MODES`].
    fn paper(&self) -> (&Cnf, &Totalizer) {
        if !self.problem.algebraic_independence {
            return (&self.cnf, &self.totalizer);
        }
        let (cnf, totalizer) = self.paper.get_or_init(|| {
            let n = self.problem.num_modes;
            assert!(
                n <= MAX_FULL_SAT_MODES,
                "algebraic independence needs 2^{{2N}} clauses; {n} modes exceeds the \
                 {MAX_FULL_SAT_MODES}-mode cap (use with_algebraic_independence(false))"
            );
            // Presized: a doubling `Vec` this large takes fresh pages.
            let (clauses, literals) = paper_size(&self.layout, &self.cnf);
            let cnf = Cnf::with_capacity(clauses, literals);
            self.problem.generate(&self.layout, true, cnf)
        });
        (cnf, totalizer)
    }

    /// The generated CNF (the paper formula).
    pub fn cnf(&self) -> &Cnf {
        self.paper().0
    }

    /// A fresh solver loaded with the paper formula.
    pub fn solver(&self) -> Solver {
        Solver::from_cnf(self.cnf())
    }

    /// The formula Algorithm 1 solves.
    pub fn search(&self) -> SearchFormula<'_> {
        SearchFormula {
            cnf: &self.cnf,
            totalizer: &self.totalizer,
            order_block: self.order_block.as_ref(),
        }
    }

    /// Maximum representable weight (number of totalizer inputs).
    pub fn weight_upper_bound(&self) -> usize {
        self.totalizer.len()
    }

    /// Assumption literal enforcing `objective weight < w` in the *paper*
    /// formula ([`solver`](Self::solver)). `None` when the bound is
    /// trivially true.
    ///
    /// # Panics
    ///
    /// Panics if `w == 0`.
    pub fn assume_weight_less_than(&self, w: usize) -> Option<Lit> {
        self.paper().1.less_than(w)
    }

    /// Decodes a model into the `2N` Majorana strings.
    pub fn decode(&self, model: &Model) -> Vec<PauliString> {
        self.layout.decode_all(model)
    }

    /// Evaluates the objective weight of a decoded string set.
    pub fn measure_weight(&self, strings: &[PauliString]) -> usize {
        match &self.problem.objective {
            Objective::MajoranaWeight => strings.iter().map(PauliString::weight).sum(),
            Objective::HamiltonianWeight(monomials) => {
                let phased: Vec<PhasedString> =
                    strings.iter().cloned().map(PhasedString::from).collect();
                structure_weight(&phased, monomials)
            }
        }
    }

    /// Writes the instance in DIMACS CNF format, so it can be cross-checked
    /// with external solvers (Kissat/CaDiCaL — the paper's toolchain).
    ///
    /// Note that the weight bound is *not* part of the formula (Algorithm 1
    /// passes it as an assumption); append a unit clause on
    /// [`assume_weight_less_than`](Self::assume_weight_less_than)'s literal
    /// to fix a bound externally.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_dimacs(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        sat::dimacs::write(self.cnf(), w)
    }

    /// Size statistics (paper Table 3).
    pub fn stats(&self) -> InstanceStats {
        let cnf = self.cnf();
        InstanceStats {
            num_modes: self.problem.num_modes,
            algebraic_independence: self.problem.algebraic_independence,
            num_vars: cnf.num_vars(),
            num_clauses: cnf.num_clauses(),
            num_literals: cnf.num_literals(),
            avg_clause_len: cnf.avg_clause_len(),
        }
    }
}

/// Size statistics of a generated instance (the columns of Table 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceStats {
    /// Number of Fermionic modes `N`.
    pub num_modes: usize,
    /// Whether the exponential constraint set was included.
    pub algebraic_independence: bool,
    /// Total variables (primary + Tseitin auxiliaries).
    pub num_vars: usize,
    /// Total clauses.
    pub num_clauses: usize,
    /// Total literal occurrences.
    pub num_literals: usize,
    /// Mean clause length.
    pub avg_clause_len: f64,
}

// ---------------------------------------------------------------------------
// Constraint generators
// ---------------------------------------------------------------------------

/// Anticommutativity (Section 3.3): for each pair of strings the per-qubit
/// predicates XOR to 1.
fn add_anticommutativity(cnf: &mut Cnf, layout: &VarLayout) {
    let n = layout.num_modes();
    let mut site_lits = Vec::with_capacity(n);
    for s in 0..layout.num_strings() {
        for t in (s + 1)..layout.num_strings() {
            site_lits.clear();
            for q in 0..n {
                let a1 = cnf.and_gate(layout.b1(s, q).positive(), layout.b2(t, q).positive());
                let a2 = cnf.and_gate(layout.b2(s, q).positive(), layout.b1(t, q).positive());
                site_lits.push(cnf.xor_gate(a1, a2));
            }
            cnf.add_xor_constraint(&site_lits, true);
        }
    }
}

/// Algebraic independence (Section 3.4): every non-empty subset's
/// bit-sequence XOR must be non-zero. Depth-first over the subset lattice,
/// sharing XOR prefixes between sibling subsets.
fn add_algebraic_independence(cnf: &mut Cnf, layout: &VarLayout) {
    let num_bits = 2 * layout.num_modes();
    // One row of `num_bits` prefix-XOR literals per included string on the
    // current DFS path, reserved once for the deepest path: the walk visits
    // 4^N nodes and allocates at none of them.
    let mut prefixes = Vec::with_capacity(layout.num_strings() * num_bits);
    walk_subsets(cnf, layout, 0, &mut prefixes);
    debug_assert!(prefixes.is_empty());
}

/// Clauses and literals of the paper formula with §3.4: the `search`
/// formula's, plus what [`add_algebraic_independence`] adds — a clause of
/// `2N` literals per non-empty subset, and an XOR gate (4 clauses, 12
/// literals) per bit wherever a string extends a non-empty prefix.
fn paper_size(layout: &VarLayout, search: &Cnf) -> (usize, usize) {
    let (strings, bits) = (layout.num_strings(), 2 * layout.num_modes());
    let subsets = (1 << strings) - 1;
    let gates = bits * (subsets - strings);
    (
        search.num_clauses() + subsets + 4 * gates,
        search.num_literals() + bits * subsets + 12 * gates,
    )
}

/// Bit `j` of string `s`: qubit `j / 2`, `b1` for even `j`, `b2` for odd.
fn bit_lit(layout: &VarLayout, s: usize, j: usize) -> Lit {
    let q = j / 2;
    if j.is_multiple_of(2) {
        layout.b1(s, q).positive()
    } else {
        layout.b2(s, q).positive()
    }
}

/// Visits every subset of strings `s..` on top of the subset of `0..s`
/// whose bit-wise XOR is the last row of `prefixes` (none when empty).
fn walk_subsets(cnf: &mut Cnf, layout: &VarLayout, s: usize, prefixes: &mut Vec<Lit>) {
    let num_bits = 2 * layout.num_modes();
    let top = prefixes.len().checked_sub(num_bits);
    if s == layout.num_strings() {
        if let Some(top) = top {
            // Non-empty subset: at least one product bit differs from I.
            cnf.add_clause(prefixes[top..].iter().copied());
        }
        return;
    }
    // Exclude string s.
    walk_subsets(cnf, layout, s + 1, prefixes);
    // Include string s: extend the prefix XOR bit-wise.
    for j in 0..num_bits {
        let bit = bit_lit(layout, s, j);
        let next = match top {
            None => bit,
            Some(top) => cnf.xor_gate(prefixes[top + j], bit),
        };
        prefixes.push(next);
    }
    walk_subsets(cnf, layout, s + 1, prefixes);
    prefixes.truncate(prefixes.len() - num_bits);
}

/// Vacuum condition (Section 3.5): each pair `(M_{2j}, M_{2j+1})` has an
/// index with an `(X, Y)` operator pair. `X = (0,1)`, `Y = (1,0)`.
fn add_vacuum_condition(cnf: &mut Cnf, layout: &VarLayout) {
    let n = layout.num_modes();
    for j in 0..n {
        let even = 2 * j;
        let odd = 2 * j + 1;
        let mut site_gates = Vec::with_capacity(n);
        for q in 0..n {
            let lits = [
                layout.b1(even, q).negative(),
                layout.b2(even, q).positive(),
                layout.b1(odd, q).positive(),
                layout.b2(odd, q).negative(),
            ];
            site_gates.push(cnf.and_many(&lits).expect("non-empty"));
        }
        cnf.add_clause(site_gates);
    }
}

/// Per-site weight literals `w(s,q) ↔ b1 ∨ b2` for the
/// Hamiltonian-independent objective (Section 3.6).
fn majorana_weight_literals(cnf: &mut Cnf, layout: &VarLayout) -> Vec<Lit> {
    let mut out = Vec::with_capacity(layout.num_strings() * layout.num_modes());
    for s in 0..layout.num_strings() {
        for q in 0..layout.num_modes() {
            out.push(cnf.or_gate(layout.b1(s, q).positive(), layout.b2(s, q).positive()));
        }
    }
    out
}

/// Weight literals for the Hamiltonian-dependent objective (Section 3.7):
/// for each de-duplicated monomial, the product string's per-qubit weight
/// (`⊕b1 ∨ ⊕b2` over the member strings).
fn hamiltonian_weight_literals(
    cnf: &mut Cnf,
    layout: &VarLayout,
    monomials: &[MajoranaMonomial],
) -> Vec<Lit> {
    let mut unique: std::collections::BTreeSet<&MajoranaMonomial> = Default::default();
    let mut out = Vec::new();
    for m in monomials {
        if m.is_identity() || !unique.insert(m) {
            continue;
        }
        for idx in m.indices() {
            assert!(
                (*idx as usize) < layout.num_strings(),
                "monomial index {idx} out of range for {} modes",
                layout.num_modes()
            );
        }
        for q in 0..layout.num_modes() {
            let b1s: Vec<Lit> = m
                .indices()
                .iter()
                .map(|&s| layout.b1(s as usize, q).positive())
                .collect();
            let b2s: Vec<Lit> = m
                .indices()
                .iter()
                .map(|&s| layout.b2(s as usize, q).positive())
                .collect();
            let x1 = cnf.xor_chain(&b1s).expect("non-empty monomial");
            let x2 = cnf.xor_chain(&b2s).expect("non-empty monomial");
            out.push(cnf.or_gate(x1, x2));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use encodings::validate::validate_strings;
    use sat::SolveResult;

    fn solve_instance(
        instance: &EncodingInstance,
        bound: Option<usize>,
    ) -> Option<Vec<PauliString>> {
        let mut solver = instance.solver();
        let assumptions: Vec<Lit> = bound
            .and_then(|w| instance.assume_weight_less_than(w))
            .into_iter()
            .collect();
        match solver.solve_with_assumptions(&assumptions) {
            SolveResult::Sat(m) => Some(instance.decode(&m)),
            SolveResult::Unsat => None,
            SolveResult::Unknown | SolveResult::Interrupted => panic!("no budget configured"),
        }
    }

    #[test]
    fn single_mode_solution_is_valid() {
        let instance = EncodingProblem::full_sat(1, Objective::MajoranaWeight).build();
        let strings = solve_instance(&instance, None).expect("N=1 is satisfiable");
        let phased: Vec<PhasedString> = strings.iter().cloned().map(PhasedString::from).collect();
        let report = validate_strings(&phased);
        assert!(report.is_valid(), "{report:?} for {strings:?}");
        assert!(report.xy_pair_condition);
        // Optimal weight for one mode is 2 (e.g. X and Y).
        assert!(
            solve_instance(&instance, Some(2)).is_none(),
            "weight < 2 impossible"
        );
        let at_two = solve_instance(&instance, Some(3)).expect("weight ≤ 2 achievable");
        assert_eq!(instance.measure_weight(&at_two), 2);
    }

    #[test]
    fn two_modes_full_sat_solutions_are_valid() {
        let instance = EncodingProblem::full_sat(2, Objective::MajoranaWeight).build();
        for _ in 0..1 {
            let strings = solve_instance(&instance, None).expect("satisfiable");
            let phased: Vec<PhasedString> =
                strings.iter().cloned().map(PhasedString::from).collect();
            let report = validate_strings(&phased);
            assert!(report.anticommuting, "{strings:?}");
            assert!(report.algebraically_independent, "{strings:?}");
            assert!(report.xy_pair_condition, "{strings:?}");
        }
    }

    #[test]
    fn two_modes_optimum_is_six() {
        let instance = EncodingProblem::full_sat(2, Objective::MajoranaWeight).build();
        // Weight ≤ 5 must be UNSAT; weight ≤ 6 SAT (JW achieves 6).
        assert!(solve_instance(&instance, Some(6)).is_none());
        let s = solve_instance(&instance, Some(7)).expect("JW weight must be feasible");
        assert_eq!(instance.measure_weight(&s), 6);
    }

    #[test]
    fn without_algebraic_independence_may_still_validate() {
        // Six anticommuting strings are independent whether or not the
        // formula says so (the lemma in the module docs).
        let instance = EncodingProblem::new(3, Objective::MajoranaWeight).build();
        let strings = solve_instance(&instance, None).expect("satisfiable");
        let phased: Vec<PhasedString> = strings.iter().cloned().map(PhasedString::from).collect();
        let report = validate_strings(&phased);
        assert!(report.anticommuting);
        assert!(report.algebraically_independent);
        assert!(report.xy_pair_condition);
    }

    #[test]
    fn hamiltonian_objective_counts_product_weight() {
        // Single monomial M₀M₁ on one mode: the optimal product weight is 1
        // (e.g. X·Y = Z on the same qubit).
        let monomials = vec![MajoranaMonomial::from_sorted(vec![0, 1])];
        let instance =
            EncodingProblem::full_sat(1, Objective::HamiltonianWeight(monomials)).build();
        assert!(
            solve_instance(&instance, Some(1)).is_none(),
            "weight 0 impossible"
        );
        let s = solve_instance(&instance, Some(2)).expect("weight 1 achievable");
        assert_eq!(instance.measure_weight(&s), 1);
    }

    #[test]
    fn stats_scale_with_constraints() {
        let with_alg = EncodingProblem::full_sat(3, Objective::MajoranaWeight)
            .build()
            .stats();
        let without = EncodingProblem::new(3, Objective::MajoranaWeight)
            .build()
            .stats();
        assert!(with_alg.num_vars > without.num_vars);
        assert!(with_alg.num_clauses > without.num_clauses);
        // Paper Table 3 magnitude check (constructions differ by small
        // constants): N=3 w/ alg ≈ hundreds of vars, thousands of clauses.
        assert!(with_alg.num_clauses > 1000);
        assert!(without.num_clauses < 2500);
    }

    #[test]
    fn paper_formula_is_presized_exactly() {
        for modes in 1..=5 {
            for objective in [
                Objective::MajoranaWeight,
                Objective::HamiltonianWeight(vec![MajoranaMonomial::from_sorted(vec![0, 1])]),
            ] {
                let instance = EncodingProblem::full_sat(modes, objective).build();
                let paper = instance.cnf();
                let size = paper_size(instance.layout(), &instance.cnf);
                assert_eq!(size, (paper.num_clauses(), paper.num_literals()));
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn full_sat_mode_cap() {
        // The cap guards the paper formula only: the search formula builds.
        let problem = EncodingProblem::full_sat(MAX_FULL_SAT_MODES + 1, Objective::MajoranaWeight);
        let instance = std::panic::catch_unwind(|| problem.build()).expect("build() is uncapped");
        let _ = instance.cnf();
    }

    #[test]
    fn dimacs_round_trip_preserves_satisfiability() {
        let instance = EncodingProblem::full_sat(2, Objective::MajoranaWeight).build();
        let mut buf = Vec::new();
        instance.write_dimacs(&mut buf).unwrap();
        let parsed = sat::dimacs::parse(buf.as_slice()).unwrap();
        assert_eq!(parsed.num_vars(), instance.cnf().num_vars());
        assert_eq!(parsed.num_clauses(), instance.cnf().num_clauses());
        // The parsed instance solves to a model that decodes to a valid
        // encoding under the original layout.
        let result = sat::Solver::from_cnf(&parsed).solve();
        let model = result.model().expect("encoding instances are satisfiable");
        let strings = instance.decode(model);
        let phased: Vec<PhasedString> = strings.iter().cloned().map(PhasedString::from).collect();
        assert!(validate_strings(&phased).is_valid());
    }

    #[test]
    fn vacuum_condition_can_be_disabled() {
        let base = EncodingProblem::new(2, Objective::MajoranaWeight)
            .with_vacuum_condition(false)
            .build();
        let with = EncodingProblem::new(2, Objective::MajoranaWeight).build();
        assert!(base.stats().num_clauses < with.stats().num_clauses);
    }
}
