//! CNF formula construction with Tseitin gates.
//!
//! Fermihedral's constraints are rich Boolean circuits — XOR chains over
//! anticommutativity predicates, subset-product networks, weight counters —
//! that must land in conjunctive normal form for a CDCL solver. Directly
//! expanding XORs blows up exponentially (paper Section 3.8); this builder
//! performs the Tseitin transformation [Tseitin 1983] on the fly, creating
//! one auxiliary variable per gate and a constant number of clauses.

use crate::types::{Lit, Var};

/// A CNF formula under construction.
///
/// # Example
///
/// ```
/// use sat::{Cnf, Solver, SolveResult};
///
/// let mut cnf = Cnf::new();
/// let bits: Vec<_> = (0..4).map(|_| cnf.new_var().positive()).collect();
/// // Constrain the XOR of four bits to be odd.
/// let parity = cnf.xor_chain(&bits).unwrap();
/// cnf.add_clause([parity]);
/// let SolveResult::Sat(model) = Solver::from_cnf(&cnf).solve() else {
///     panic!("satisfiable");
/// };
/// let ones = bits.iter().filter(|l| model.lit_value(**l)).count();
/// assert_eq!(ones % 2, 1);
/// ```
///
/// Clauses are stored flat: every literal of every clause sits in one
/// buffer, and `ends[i]` is the offset one past clause `i`'s last literal.
/// A formula of a million short clauses is then two allocations, not a
/// million, and building, walking and dropping it are linear scans.
#[derive(Debug, Clone, Default)]
pub struct Cnf {
    num_vars: usize,
    lits: Vec<Lit>,
    ends: Vec<u32>,
    true_lit: Option<Lit>,
}

/// Iterator over the clauses of a [`Cnf`], each a slice of its literals.
#[derive(Debug, Clone)]
pub struct Clauses<'a> {
    lits: &'a [Lit],
    ends: std::slice::Iter<'a, u32>,
    start: usize,
}

impl<'a> Iterator for Clauses<'a> {
    type Item = &'a [Lit];

    #[inline]
    fn next(&mut self) -> Option<&'a [Lit]> {
        let end = *self.ends.next()? as usize;
        let clause = &self.lits[self.start..end];
        self.start = end;
        Some(clause)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ends.size_hint()
    }
}

impl Cnf {
    /// An empty formula.
    pub fn new() -> Cnf {
        Cnf::default()
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::new(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Allocates `n` fresh variables.
    pub fn new_vars(&mut self, n: usize) -> Vec<Var> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses added so far.
    pub fn num_clauses(&self) -> usize {
        self.ends.len()
    }

    /// Total number of literal occurrences across all clauses.
    pub fn num_literals(&self) -> usize {
        self.lits.len()
    }

    /// Average clause length — the paper reports #vars/#clauses ratios in
    /// Table 3; this is the companion diagnostic.
    pub fn avg_clause_len(&self) -> f64 {
        if self.ends.is_empty() {
            0.0
        } else {
            self.num_literals() as f64 / self.num_clauses() as f64
        }
    }

    /// The clauses built so far, in insertion order.
    pub fn clauses(&self) -> Clauses<'_> {
        Clauses {
            lits: &self.lits,
            ends: self.ends.iter(),
            start: 0,
        }
    }

    /// Adds one clause (a disjunction of literals).
    ///
    /// An empty clause makes the formula trivially unsatisfiable.
    ///
    /// # Panics
    ///
    /// Panics if a literal references an unallocated variable, or if the
    /// formula would exceed `u32::MAX` literal occurrences.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        let start = self.lits.len();
        self.lits.extend(lits);
        if let Some(&bad) = self.lits[start..]
            .iter()
            .find(|l| l.var().index() >= self.num_vars)
        {
            self.lits.truncate(start);
            panic!("literal {bad} references unallocated variable");
        }
        // Kept in release builds: a wrapped offset would silently splice
        // clauses together.
        let end = u32::try_from(self.lits.len()).expect("clause-end offsets fit u32");
        self.ends.push(end);
    }

    /// A literal constrained to be true (allocated lazily, one unit clause).
    pub fn lit_true(&mut self) -> Lit {
        if let Some(t) = self.true_lit {
            return t;
        }
        let t = self.new_var().positive();
        self.add_clause([t]);
        self.true_lit = Some(t);
        t
    }

    /// A literal constrained to be false.
    pub fn lit_false(&mut self) -> Lit {
        !self.lit_true()
    }

    /// Adds `a → b`.
    pub fn add_implies(&mut self, a: Lit, b: Lit) {
        self.add_clause([!a, b]);
    }

    /// Adds `a ↔ b`.
    pub fn add_iff(&mut self, a: Lit, b: Lit) {
        self.add_clause([!a, b]);
        self.add_clause([a, !b]);
    }

    /// Tseitin AND: returns `g` with `g ↔ a ∧ b` (3 clauses).
    pub fn and_gate(&mut self, a: Lit, b: Lit) -> Lit {
        let g = self.new_var().positive();
        self.add_clause([!g, a]);
        self.add_clause([!g, b]);
        self.add_clause([g, !a, !b]);
        g
    }

    /// Tseitin OR: returns `g` with `g ↔ a ∨ b` (3 clauses).
    pub fn or_gate(&mut self, a: Lit, b: Lit) -> Lit {
        let g = self.new_var().positive();
        self.add_clause([g, !a]);
        self.add_clause([g, !b]);
        self.add_clause([!g, a, b]);
        g
    }

    /// Tseitin XOR: returns `g` with `g ↔ a ⊕ b` (4 clauses).
    pub fn xor_gate(&mut self, a: Lit, b: Lit) -> Lit {
        let g = self.new_var().positive();
        self.add_clause([!g, a, b]);
        self.add_clause([!g, !a, !b]);
        self.add_clause([g, !a, b]);
        self.add_clause([g, a, !b]);
        g
    }

    /// XOR of a slice via a chain of [`xor_gate`](Self::xor_gate)s; returns
    /// `None` for an empty slice.
    ///
    /// This is the linear-size construction the paper adopts instead of
    /// unfolding XORs into exponentially many clauses (Section 3.8).
    pub fn xor_chain(&mut self, lits: &[Lit]) -> Option<Lit> {
        let mut it = lits.iter().copied();
        let first = it.next()?;
        Some(it.fold(first, |acc, l| self.xor_gate(acc, l)))
    }

    /// n-ary OR: returns `g` with `g ↔ ⋁ lits` (`lits.len() + 1` clauses).
    /// Returns `None` for an empty slice.
    pub fn or_many(&mut self, lits: &[Lit]) -> Option<Lit> {
        if lits.is_empty() {
            return None;
        }
        if lits.len() == 1 {
            return Some(lits[0]);
        }
        let g = self.new_var().positive();
        for &l in lits {
            self.add_clause([g, !l]);
        }
        self.add_clause(std::iter::once(!g).chain(lits.iter().copied()));
        Some(g)
    }

    /// n-ary AND: returns `g` with `g ↔ ⋀ lits`. Returns `None` for an
    /// empty slice.
    pub fn and_many(&mut self, lits: &[Lit]) -> Option<Lit> {
        if lits.is_empty() {
            return None;
        }
        if lits.len() == 1 {
            return Some(lits[0]);
        }
        let g = self.new_var().positive();
        for &l in lits {
            self.add_clause([!g, l]);
        }
        self.add_clause(std::iter::once(g).chain(lits.iter().map(|&l| !l)));
        Some(g)
    }

    /// Adds the constraint `⊕ lits = parity` *without* an output gate for
    /// the final XOR (saves one variable and two clauses): the chain prefix
    /// is built with gates and the last step is emitted as direct clauses.
    ///
    /// # Panics
    ///
    /// Panics if `lits` is empty.
    pub fn add_xor_constraint(&mut self, lits: &[Lit], parity: bool) {
        assert!(!lits.is_empty(), "XOR constraint over no literals");
        if lits.len() == 1 {
            let l = if parity { lits[0] } else { !lits[0] };
            self.add_clause([l]);
            return;
        }
        let prefix = self.xor_chain(&lits[..lits.len() - 1]).expect("non-empty");
        let last = lits[lits.len() - 1];
        if parity {
            // prefix ⊕ last = 1  ⇔  prefix ↔ ¬last
            self.add_clause([prefix, last]);
            self.add_clause([!prefix, !last]);
        } else {
            // prefix ⊕ last = 0  ⇔  prefix ↔ last
            self.add_clause([prefix, !last]);
            self.add_clause([!prefix, last]);
        }
    }

    /// Evaluates the formula under a complete assignment (for testing and
    /// cross-checking models). `assignment[i]` is the value of variable `i`.
    ///
    /// # Panics
    ///
    /// Panics if the assignment is shorter than the variable count.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        assert!(assignment.len() >= self.num_vars, "assignment too short");
        self.clauses()
            .all(|c| c.iter().any(|l| l.eval(assignment[l.var().index()])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force satisfiability of a Cnf (≤ 20 vars).
    fn brute_force_sat(cnf: &Cnf) -> Option<Vec<bool>> {
        let n = cnf.num_vars();
        assert!(n <= 20);
        for mask in 0u64..(1 << n) {
            let assignment: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
            if cnf.eval(&assignment) {
                return Some(assignment);
            }
        }
        None
    }

    #[test]
    fn gates_have_correct_truth_tables() {
        // For each gate type and input combination, force inputs with unit
        // clauses and check which gate value is consistent by brute force.
        for (a_val, b_val) in [(false, false), (false, true), (true, false), (true, true)] {
            for gate in ["and", "or", "xor"] {
                let mut cnf = Cnf::new();
                let a = cnf.new_var();
                let b = cnf.new_var();
                let g = match gate {
                    "and" => cnf.and_gate(a.positive(), b.positive()),
                    "or" => cnf.or_gate(a.positive(), b.positive()),
                    _ => cnf.xor_gate(a.positive(), b.positive()),
                };
                cnf.add_clause([a.lit(a_val)]);
                cnf.add_clause([b.lit(b_val)]);
                let expect = match gate {
                    "and" => a_val && b_val,
                    "or" => a_val || b_val,
                    _ => a_val ^ b_val,
                };
                // Forcing the gate to the expected value stays SAT…
                let mut yes = cnf.clone();
                yes.add_clause([if expect { g } else { !g }]);
                assert!(brute_force_sat(&yes).is_some(), "{gate} {a_val} {b_val}");
                // …and to the opposite value becomes UNSAT.
                let mut no = cnf.clone();
                no.add_clause([if expect { !g } else { g }]);
                assert!(brute_force_sat(&no).is_none(), "{gate} {a_val} {b_val}");
            }
        }
    }

    #[test]
    fn xor_chain_computes_parity() {
        for n in 1..6usize {
            for mask in 0u32..(1 << n) {
                let mut cnf = Cnf::new();
                let vars = cnf.new_vars(n);
                let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
                let g = cnf.xor_chain(&lits).unwrap();
                for (i, v) in vars.iter().enumerate() {
                    cnf.add_clause([v.lit(mask >> i & 1 == 1)]);
                }
                let parity = (mask.count_ones() % 2) == 1;
                let mut forced = cnf.clone();
                forced.add_clause([if parity { g } else { !g }]);
                assert!(brute_force_sat(&forced).is_some());
                let mut wrong = cnf;
                wrong.add_clause([if parity { !g } else { g }]);
                assert!(brute_force_sat(&wrong).is_none());
            }
        }
    }

    #[test]
    fn or_many_and_many() {
        for n in 1..5usize {
            for mask in 0u32..(1 << n) {
                let mut cnf = Cnf::new();
                let vars = cnf.new_vars(n);
                let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
                let or_g = cnf.or_many(&lits).unwrap();
                let and_g = cnf.and_many(&lits).unwrap();
                for (i, v) in vars.iter().enumerate() {
                    cnf.add_clause([v.lit(mask >> i & 1 == 1)]);
                }
                let any = mask != 0;
                let all = mask == (1 << n) - 1;
                let mut check = cnf.clone();
                check.add_clause([if any { or_g } else { !or_g }]);
                check.add_clause([if all { and_g } else { !and_g }]);
                assert!(brute_force_sat(&check).is_some(), "n={n} mask={mask:b}");
            }
        }
    }

    #[test]
    fn xor_constraint_without_output_gate() {
        // ⊕ of 3 vars = 0: count satisfying assignments = 4.
        let mut cnf = Cnf::new();
        let vars = cnf.new_vars(3);
        let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
        cnf.add_xor_constraint(&lits, false);
        let mut count = 0;
        for mask in 0u32..8 {
            let mut forced = cnf.clone();
            for (i, v) in vars.iter().enumerate() {
                forced.add_clause([v.lit(mask >> i & 1 == 1)]);
            }
            if brute_force_sat(&forced).is_some() {
                count += 1;
                assert_eq!(mask.count_ones() % 2, 0);
            }
        }
        assert_eq!(count, 4);
    }

    #[test]
    fn lit_true_is_constant() {
        let mut cnf = Cnf::new();
        let t = cnf.lit_true();
        let t2 = cnf.lit_true();
        assert_eq!(t, t2, "constant literal is cached");
        assert_eq!(cnf.lit_false(), !t);
        let model = brute_force_sat(&cnf).unwrap();
        assert!(t.eval(model[t.var().index()]));
    }

    #[test]
    fn stats_count_correctly() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        let b = cnf.new_var();
        cnf.add_clause([a.positive(), b.negative()]);
        cnf.add_clause([b.positive()]);
        assert_eq!(cnf.num_vars(), 2);
        assert_eq!(cnf.num_clauses(), 2);
        assert_eq!(cnf.num_literals(), 3);
        assert!((cnf.avg_clause_len() - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn unallocated_variable_rejected() {
        let mut cnf = Cnf::new();
        cnf.add_clause([Var::new(3).positive()]);
    }
}
