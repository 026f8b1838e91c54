//! Cardinality constraints: totalizer and sequential-counter encodings.
//!
//! Fermihedral's objective — minimize total Pauli weight — becomes a
//! cardinality bound `Σ weight-literals < w` (paper Section 3.6). The
//! descent loop of Algorithm 1 repeatedly tightens `w`, so the encoding must
//! support *incremental* bounds: the [`Totalizer`] exposes sorted unary
//! output literals, and a bound is a single assumption literal, letting one
//! solver instance (and its learnt clauses) serve the whole descent.

use crate::cnf::Cnf;
use crate::types::Lit;

/// Totalizer cardinality network [Bailleux & Boutaouche 2003].
///
/// Builds, over `n` input literals, a balanced tree of unary counters with
/// output literals `o_1 … o_n` such that `o_k ⟺ (Σ inputs ≥ k)` (both
/// implication directions are encoded, plus unary ordering clauses).
///
/// # Example
///
/// ```
/// use sat::{Cnf, Solver, SolveResult, Totalizer};
///
/// let mut cnf = Cnf::new();
/// let xs: Vec<_> = (0..5).map(|_| cnf.new_var().positive()).collect();
/// let tot = Totalizer::new(&mut cnf, &xs);
///
/// // Force "at most 2 of 5": assume the negation of output o_3.
/// let bound = tot.at_most(2).unwrap();
/// let mut solver = Solver::from_cnf(&cnf);
/// let SolveResult::Sat(m) = solver.solve_with_assumptions(&[bound]) else {
///     panic!();
/// };
/// let ones = xs.iter().filter(|l| m.lit_value(**l)).count();
/// assert!(ones <= 2);
/// ```
#[derive(Debug, Clone)]
pub struct Totalizer {
    outputs: Vec<Lit>,
}

impl Totalizer {
    /// Encodes the counting network for `inputs` into `cnf`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty.
    pub fn new(cnf: &mut Cnf, inputs: &[Lit]) -> Totalizer {
        assert!(!inputs.is_empty(), "totalizer over no inputs");
        let outputs = build_node(cnf, inputs);
        // Unary ordering: o_{k+1} → o_k.
        for w in outputs.windows(2) {
            cnf.add_implies(w[1], w[0]);
        }
        Totalizer { outputs }
    }

    /// Number of inputs counted.
    pub fn len(&self) -> usize {
        self.outputs.len()
    }

    /// True when the totalizer counts zero inputs (never constructed).
    pub fn is_empty(&self) -> bool {
        self.outputs.is_empty()
    }

    /// The sorted unary outputs; `outputs()[k]` is true iff at least `k+1`
    /// inputs are true.
    pub fn outputs(&self) -> &[Lit] {
        &self.outputs
    }

    /// Assumption literal enforcing `Σ inputs ≥ k`.
    ///
    /// Returns `None` when `k == 0` (trivially true) or `k > n` (cannot be
    /// expressed — it is unsatisfiable; callers check against
    /// [`len`](Self::len)).
    pub fn at_least(&self, k: usize) -> Option<Lit> {
        if k == 0 || k > self.outputs.len() {
            None
        } else {
            Some(self.outputs[k - 1])
        }
    }

    /// Assumption literal enforcing `Σ inputs ≤ k`.
    ///
    /// Returns `None` when `k ≥ n` (trivially true).
    pub fn at_most(&self, k: usize) -> Option<Lit> {
        if k >= self.outputs.len() {
            None
        } else {
            Some(!self.outputs[k])
        }
    }

    /// Assumption literal enforcing `Σ inputs < k` — the exact form used by
    /// Algorithm 1's weight constraint. Equivalent to `at_most(k-1)`.
    ///
    /// Returns `None` when `k > n` (trivially true); for `k == 0` the
    /// formula is made unsatisfiable by no assumption, so the caller gets
    /// the always-false `at_most(usize::MAX)`… instead we document:
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` (a sum of literals cannot be negative).
    pub fn less_than(&self, k: usize) -> Option<Lit> {
        assert!(k > 0, "sum < 0 is always false");
        self.at_most(k - 1)
    }
}

/// Recursively builds the totalizer tree, returning the node's unary
/// output literals (length = number of leaves beneath).
fn build_node(cnf: &mut Cnf, inputs: &[Lit]) -> Vec<Lit> {
    if inputs.len() == 1 {
        return vec![inputs[0]];
    }
    let mid = inputs.len() / 2;
    let left = build_node(cnf, &inputs[..mid]);
    let right = build_node(cnf, &inputs[mid..]);
    merge(cnf, &left, &right)
}

/// Merges two unary counters into one of combined width.
fn merge(cnf: &mut Cnf, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
    let m = a.len() + b.len();
    let outputs: Vec<Lit> = (0..m).map(|_| cnf.new_var().positive()).collect();

    // Direction 1 (inputs → outputs): A_i ∧ B_j → O_{i+j}.
    for i in 0..=a.len() {
        for j in 0..=b.len() {
            if i + j == 0 {
                continue;
            }
            let from_a = (i > 0).then(|| !a[i - 1]);
            let from_b = (j > 0).then(|| !b[j - 1]);
            cnf.add_clause(from_a.into_iter().chain(from_b).chain([outputs[i + j - 1]]));
        }
    }
    // Direction 2 (outputs → inputs): O_{i+j+1} → A_{i+1} ∨ B_{j+1}.
    for i in 0..=a.len() {
        for j in 0..=b.len() {
            if i == a.len() && j == b.len() {
                continue;
            }
            cnf.add_clause(
                a.get(i)
                    .into_iter()
                    .chain(b.get(j))
                    .copied()
                    .chain([!outputs[i + j]]),
            );
        }
    }
    outputs
}

/// Directly adds clauses enforcing `Σ inputs ≤ k` using the sequential
/// counter encoding [Sinz 2005]. Not incremental — used as an independent
/// cross-check of the totalizer and for one-shot bounds.
///
/// # Panics
///
/// Panics if `inputs` is empty.
pub fn add_at_most_seq(cnf: &mut Cnf, inputs: &[Lit], k: usize) {
    assert!(!inputs.is_empty(), "cardinality over no inputs");
    if k >= inputs.len() {
        return; // trivially satisfied
    }
    if k == 0 {
        for &l in inputs {
            cnf.add_clause([!l]);
        }
        return;
    }
    let n = inputs.len();
    // s[i][j]: among inputs[0..=i], at least j+1 are true (j < k).
    let s: Vec<Vec<Lit>> = (0..n - 1)
        .map(|_| (0..k).map(|_| cnf.new_var().positive()).collect())
        .collect();
    cnf.add_implies(inputs[0], s[0][0]);
    #[allow(clippy::needless_range_loop)] // j indexes two zipped roles
    for j in 1..k {
        cnf.add_clause([!s[0][j]]);
    }
    for i in 1..n - 1 {
        cnf.add_implies(inputs[i], s[i][0]);
        cnf.add_implies(s[i - 1][0], s[i][0]);
        for j in 1..k {
            // s[i][j] ← s[i-1][j] ∨ (x_i ∧ s[i-1][j-1])
            cnf.add_implies(s[i - 1][j], s[i][j]);
            cnf.add_clause([!inputs[i], !s[i - 1][j - 1], s[i][j]]);
        }
        // Overflow: x_i with already k true is forbidden.
        cnf.add_clause([!inputs[i], !s[i - 1][k - 1]]);
    }
    cnf.add_clause([!inputs[n - 1], !s[n - 2][k - 1]]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{SolveResult, Solver};
    use crate::types::Var;

    /// Checks by brute force that (formula restricted to input assignment)
    /// is satisfiable exactly when the predicate holds.
    fn check_bound<F: Fn(usize) -> bool>(n: usize, bound: impl Fn(&Totalizer) -> Vec<Lit>, ok: F) {
        let mut cnf = Cnf::new();
        let vars: Vec<Var> = cnf.new_vars(n);
        let inputs: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
        let tot = Totalizer::new(&mut cnf, &inputs);
        let assumptions = bound(&tot);
        for mask in 0u32..(1 << n) {
            let mut solver = Solver::from_cnf(&cnf);
            let mut assume = assumptions.clone();
            for (i, v) in vars.iter().enumerate() {
                assume.push(v.lit(mask >> i & 1 == 1));
            }
            let sat = solver.solve_with_assumptions(&assume).is_sat();
            let ones = mask.count_ones() as usize;
            assert_eq!(sat, ok(ones), "n={n} mask={mask:b} ones={ones}");
        }
    }

    #[test]
    fn totalizer_at_most_exact() {
        for n in 1..=6usize {
            for k in 0..=n {
                check_bound(n, |t| t.at_most(k).into_iter().collect(), |ones| ones <= k);
            }
        }
    }

    #[test]
    fn totalizer_at_least_exact() {
        for n in 1..=5usize {
            for k in 0..=n {
                check_bound(n, |t| t.at_least(k).into_iter().collect(), |ones| ones >= k);
            }
        }
    }

    #[test]
    fn totalizer_window() {
        // 2 ≤ sum ≤ 3 out of 5.
        check_bound(
            5,
            |t| {
                let mut v = Vec::new();
                v.extend(t.at_least(2));
                v.extend(t.at_most(3));
                v
            },
            |ones| (2..=3).contains(&ones),
        );
    }

    #[test]
    fn less_than_is_at_most_minus_one() {
        let mut cnf = Cnf::new();
        let inputs: Vec<Lit> = cnf.new_vars(4).iter().map(|v| v.positive()).collect();
        let tot = Totalizer::new(&mut cnf, &inputs);
        assert_eq!(tot.less_than(3), tot.at_most(2));
        assert_eq!(tot.less_than(5), None);
    }

    #[test]
    #[should_panic(expected = "always false")]
    fn less_than_zero_panics() {
        let mut cnf = Cnf::new();
        let inputs: Vec<Lit> = cnf.new_vars(2).iter().map(|v| v.positive()).collect();
        let tot = Totalizer::new(&mut cnf, &inputs);
        let _ = tot.less_than(0);
    }

    #[test]
    fn sequential_counter_matches_totalizer() {
        for n in 1..=6usize {
            for k in 0..=n {
                let mut cnf = Cnf::new();
                let vars: Vec<Var> = cnf.new_vars(n);
                let inputs: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
                add_at_most_seq(&mut cnf, &inputs, k);
                for mask in 0u32..(1 << n) {
                    let mut solver = Solver::from_cnf(&cnf);
                    let assume: Vec<Lit> = vars
                        .iter()
                        .enumerate()
                        .map(|(i, v)| v.lit(mask >> i & 1 == 1))
                        .collect();
                    let sat = solver.solve_with_assumptions(&assume).is_sat();
                    assert_eq!(sat, mask.count_ones() as usize <= k, "n={n} k={k}");
                }
            }
        }
    }

    #[test]
    fn incremental_descent_over_one_totalizer() {
        // Mimic Algorithm 1: a single solver instance answers a sequence of
        // shrinking bounds; with 6 free inputs, sum < k is SAT iff k ≥ 1.
        let mut cnf = Cnf::new();
        let inputs: Vec<Lit> = cnf.new_vars(6).iter().map(|v| v.positive()).collect();
        // Constrain at least 2 inputs true so descent bottoms out at 2.
        let tot = Totalizer::new(&mut cnf, &inputs);
        if let Some(l) = tot.at_least(2) {
            cnf.add_clause([l]);
        }
        let mut solver = Solver::from_cnf(&cnf);
        let mut best = None;
        let mut w = 6;
        while w > 0 {
            let assume: Vec<Lit> = tot.less_than(w).into_iter().collect();
            match solver.solve_with_assumptions(&assume) {
                SolveResult::Sat(m) => {
                    let count = inputs.iter().filter(|l| m.lit_value(**l)).count();
                    assert!(count < w);
                    best = Some(count);
                    w = count; // descend to "strictly better"
                }
                SolveResult::Unsat => break,
                SolveResult::Unknown | SolveResult::Interrupted => panic!("no budget set"),
            }
        }
        assert_eq!(best, Some(2));
    }
}
