//! Weighted sums of Pauli strings — qubit Hamiltonians.

use crate::PauliString;
use mathkit::{CMatrix, Complex64};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, Mul};

/// Default magnitude below which coefficients are dropped.
const PRUNE_TOL: f64 = 1e-12;

/// A linear combination `Σᵢ wᵢ·Pᵢ` of Pauli strings with complex
/// coefficients: the form every qubit Hamiltonian takes (paper
/// Section 2.1.1).
///
/// Terms are kept merged and sorted (a `BTreeMap` keyed by string), so the
/// representation of a sum is canonical: equal operators compare equal.
///
/// # Example
///
/// ```
/// use pauli::PauliSum;
/// use mathkit::Complex64;
///
/// // H = 0.5·ZI − 0.5·IZ
/// let mut h = PauliSum::new(2);
/// h.add_term("ZI".parse().unwrap(), Complex64::from_re(0.5));
/// h.add_term("IZ".parse().unwrap(), Complex64::from_re(-0.5));
/// assert_eq!(h.len(), 2);
/// assert!(h.is_hermitian(1e-12));
/// assert_eq!(h.total_weight(), 2); // each term has Pauli weight 1
/// ```
#[derive(Clone, PartialEq)]
pub struct PauliSum {
    n: usize,
    terms: BTreeMap<PauliString, Complex64>,
}

impl PauliSum {
    /// The empty (zero) operator on `n` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds
    /// [`MAX_QUBITS`](crate::MAX_QUBITS).
    pub fn new(n: usize) -> Self {
        // Validate via PauliString's constructor rules.
        let _ = PauliString::identity(n);
        PauliSum {
            n,
            terms: BTreeMap::new(),
        }
    }

    /// The identity operator (coefficient 1 on the all-`I` string).
    pub fn identity(n: usize) -> Self {
        let mut s = PauliSum::new(n);
        s.add_term(PauliString::identity(n), Complex64::ONE);
        s
    }

    /// A sum holding a single term.
    pub fn from_term(string: PauliString, coeff: Complex64) -> Self {
        let mut s = PauliSum::new(string.num_qubits());
        s.add_term(string, coeff);
        s
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Number of (merged, non-zero) terms.
    #[inline]
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when the operator is (numerically) zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Adds `coeff·string`, merging and dropping negligible results.
    ///
    /// # Panics
    ///
    /// Panics if the string's qubit count differs from the sum's.
    pub fn add_term(&mut self, string: PauliString, coeff: Complex64) {
        assert_eq!(string.num_qubits(), self.n, "qubit count mismatch");
        let entry = self.terms.entry(string).or_insert(Complex64::ZERO);
        *entry += coeff;
        if entry.is_zero(PRUNE_TOL) {
            // Re-borrow via key removal: find the key we just touched.
            // `entry` is dropped at the end of the statement above, so use a
            // retain pass only on zero coefficients (cheap: amortized rare).
            self.terms.retain(|_, c| !c.is_zero(PRUNE_TOL));
        }
    }

    /// The coefficient of `string` (zero when absent).
    pub fn coefficient(&self, string: &PauliString) -> Complex64 {
        self.terms.get(string).copied().unwrap_or(Complex64::ZERO)
    }

    /// Iterator over `(string, coefficient)` in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (&PauliString, Complex64)> + '_ {
        self.terms.iter().map(|(s, &c)| (s, c))
    }

    /// Drops all terms with `|coeff| <= tol`.
    pub fn prune(&mut self, tol: f64) {
        self.terms.retain(|_, c| !c.is_zero(tol));
    }

    /// Multiplies every coefficient by `k`.
    pub fn scale(&self, k: Complex64) -> PauliSum {
        let mut out = PauliSum::new(self.n);
        for (s, c) in self.iter() {
            out.add_term(s.clone(), c * k);
        }
        out
    }

    /// Hermitian conjugate: conjugates all coefficients.
    pub fn adjoint(&self) -> PauliSum {
        let mut out = PauliSum::new(self.n);
        for (s, c) in self.iter() {
            out.add_term(s.clone(), c.conj());
        }
        out
    }

    /// True when all coefficients are real to within `tol` — i.e. the
    /// operator is Hermitian (Pauli strings themselves are Hermitian).
    pub fn is_hermitian(&self, tol: f64) -> bool {
        self.terms.values().all(|c| c.im.abs() <= tol)
    }

    /// Sum of the Pauli weights of the support strings — the cost metric of
    /// the paper (Section 2.1.3). The identity term contributes zero.
    pub fn total_weight(&self) -> usize {
        self.terms.keys().map(PauliString::weight).sum()
    }

    /// Removes the identity component and returns its coefficient.
    ///
    /// Simulating `exp(iθ·I)` is a global phase, so compilation pipelines
    /// strip it.
    pub fn take_identity(&mut self) -> Complex64 {
        let id = PauliString::identity(self.n);
        self.terms.remove(&id).unwrap_or(Complex64::ZERO)
    }

    /// Dense matrix representation. Exponential in qubit count; meant for
    /// exact diagonalization of the paper's ≤ 8-qubit benchmarks.
    pub fn to_matrix(&self) -> CMatrix {
        let dim = 1usize << self.n;
        let mut m = CMatrix::zeros(dim, dim);
        for (s, c) in self.iter() {
            m = &m + &s.to_matrix().scale(c);
        }
        m
    }

    /// True when each coefficient is within `tol` of `other`'s.
    pub fn approx_eq(&self, other: &PauliSum, tol: f64) -> bool {
        if self.n != other.n {
            return false;
        }
        let keys: std::collections::BTreeSet<_> =
            self.terms.keys().chain(other.terms.keys()).collect();
        keys.into_iter()
            .all(|k| self.coefficient(k).approx_eq(other.coefficient(k), tol))
    }
}

impl Add for &PauliSum {
    type Output = PauliSum;

    fn add(self, rhs: &PauliSum) -> PauliSum {
        assert_eq!(self.n, rhs.n, "qubit count mismatch");
        let mut out = self.clone();
        for (s, c) in rhs.iter() {
            out.add_term(s.clone(), c);
        }
        out
    }
}

impl Mul for &PauliSum {
    type Output = PauliSum;

    /// Operator product, expanding all cross terms with exact phases.
    fn mul(self, rhs: &PauliSum) -> PauliSum {
        assert_eq!(self.n, rhs.n, "qubit count mismatch");
        let mut out = PauliSum::new(self.n);
        for (a, ca) in self.iter() {
            for (b, cb) in rhs.iter() {
                let (prod, phase) = a.mul(b);
                out.add_term(prod, ca * cb * phase.to_complex());
            }
        }
        out.prune(PRUNE_TOL);
        out
    }
}

impl fmt::Debug for PauliSum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PauliSum[{} qubits", self.n)?;
        for (s, c) in self.iter() {
            write!(f, ", ({c})·{s}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn re(x: f64) -> Complex64 {
        Complex64::from_re(x)
    }

    #[test]
    fn add_merges_and_cancels() {
        let mut s = PauliSum::new(2);
        s.add_term("XZ".parse().unwrap(), re(1.0));
        s.add_term("XZ".parse().unwrap(), re(0.5));
        assert_eq!(s.len(), 1);
        assert!(s
            .coefficient(&"XZ".parse().unwrap())
            .approx_eq(re(1.5), 1e-15));
        s.add_term("XZ".parse().unwrap(), re(-1.5));
        assert!(s.is_empty());
    }

    #[test]
    fn paper_section_222_hamiltonian() {
        // H = h1·a†1a1 + h2·a†2a2 ↦ (h1+h2)/2·II − h1/2·IZ − h2/2·ZI
        // Verify the JW mapping algebra by explicit PauliSum arithmetic.
        let (h1, h2) = (0.7, -1.3);
        let build = |x: &str, y: &str| -> (PauliSum, PauliSum) {
            let xs: PauliString = x.parse().unwrap();
            let ys: PauliString = y.parse().unwrap();
            let mut a_dag = PauliSum::new(2);
            a_dag.add_term(xs.clone(), re(0.5));
            a_dag.add_term(ys.clone(), Complex64::new(0.0, -0.5));
            let mut a = PauliSum::new(2);
            a.add_term(xs, re(0.5));
            a.add_term(ys, Complex64::new(0.0, 0.5));
            (a_dag, a)
        };
        let (ad1, a1) = build("IX", "IY");
        let (ad2, a2) = build("XZ", "YZ");
        let h = &(&ad1 * &a1).scale(re(h1)) + &(&ad2 * &a2).scale(re(h2));

        let mut expect = PauliSum::new(2);
        expect.add_term("II".parse().unwrap(), re((h1 + h2) / 2.0));
        expect.add_term("IZ".parse().unwrap(), re(-h1 / 2.0));
        expect.add_term("ZI".parse().unwrap(), re(-h2 / 2.0));
        assert!(h.approx_eq(&expect, 1e-12), "{h:?} vs {expect:?}");
    }

    #[test]
    fn product_matches_matrices() {
        let mut a = PauliSum::new(2);
        a.add_term("XY".parse().unwrap(), Complex64::new(0.3, 0.1));
        a.add_term("ZI".parse().unwrap(), re(-1.0));
        let mut b = PauliSum::new(2);
        b.add_term("YY".parse().unwrap(), Complex64::new(0.0, 2.0));
        b.add_term("IX".parse().unwrap(), re(0.7));
        let prod = &a * &b;
        let lhs = &a.to_matrix() * &b.to_matrix();
        assert!(lhs.approx_eq(&prod.to_matrix(), 1e-12));
    }

    #[test]
    fn hermiticity_check() {
        let mut h = PauliSum::new(1);
        h.add_term("X".parse().unwrap(), re(1.0));
        assert!(h.is_hermitian(1e-12));
        h.add_term("Z".parse().unwrap(), Complex64::new(0.0, 0.2));
        assert!(!h.is_hermitian(1e-12));
        // H·H† of a Hermitian operator is Hermitian with real coefficients.
        let hh = &h * &h.adjoint();
        assert!(hh.is_hermitian(1e-12));
    }

    #[test]
    fn take_identity_strips_constant() {
        let mut h = PauliSum::identity(2).scale(re(3.0));
        h.add_term("XX".parse().unwrap(), re(1.0));
        let c = h.take_identity();
        assert!(c.approx_eq(re(3.0), 1e-15));
        assert_eq!(h.len(), 1);
        assert_eq!(h.total_weight(), 2);
        // Second take returns zero.
        assert!(h.take_identity().approx_eq(Complex64::ZERO, 1e-15));
    }

    #[test]
    fn total_weight_sums_support() {
        let mut h = PauliSum::new(3);
        h.add_term("XXI".parse().unwrap(), re(1.0));
        h.add_term("ZZZ".parse().unwrap(), re(1.0));
        h.add_term("III".parse().unwrap(), re(5.0));
        assert_eq!(h.total_weight(), 5);
    }

    #[test]
    #[should_panic(expected = "qubit count mismatch")]
    fn mismatched_add_panics() {
        let mut h = PauliSum::new(2);
        h.add_term("X".parse().unwrap(), re(1.0));
    }
}
