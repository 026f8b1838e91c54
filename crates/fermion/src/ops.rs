//! Creation/annihilation operators, terms, and second-quantized
//! Hamiltonians.

use mathkit::Complex64;
use std::fmt;

/// A single creation (`a†`) or annihilation (`a`) operator on one mode.
///
/// # Example
///
/// ```
/// use fermion::FermionOp;
///
/// let c = FermionOp::creation(2);
/// assert!(c.is_creation());
/// assert_eq!(c.mode(), 2);
/// assert_eq!(c.adjoint(), FermionOp::annihilation(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FermionOp {
    mode: u32,
    dagger: bool,
}

impl FermionOp {
    /// The creation operator `a†_mode`.
    pub fn creation(mode: usize) -> FermionOp {
        FermionOp {
            mode: mode as u32,
            dagger: true,
        }
    }

    /// The annihilation operator `a_mode`.
    pub fn annihilation(mode: usize) -> FermionOp {
        FermionOp {
            mode: mode as u32,
            dagger: false,
        }
    }

    /// The mode this operator acts on.
    pub fn mode(self) -> usize {
        self.mode as usize
    }

    /// True for `a†`.
    pub fn is_creation(self) -> bool {
        self.dagger
    }

    /// Hermitian conjugate.
    pub fn adjoint(self) -> FermionOp {
        FermionOp {
            mode: self.mode,
            dagger: !self.dagger,
        }
    }
}

impl fmt::Display for FermionOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.dagger {
            write!(f, "a†{}", self.mode)
        } else {
            write!(f, "a{}", self.mode)
        }
    }
}

/// A product of Fermionic operators with a complex coefficient, e.g.
/// `0.5·a†₀a†₁a₂a₃`. Operators are stored in writing order: `ops[0]` is
/// applied *last* to a ket.
#[derive(Debug, Clone, PartialEq)]
pub struct FermionTerm {
    /// Complex prefactor.
    pub coeff: Complex64,
    /// Operator product, leftmost first.
    pub ops: Vec<FermionOp>,
}

impl FermionTerm {
    /// Builds a term.
    pub fn new(coeff: Complex64, ops: Vec<FermionOp>) -> FermionTerm {
        FermionTerm { coeff, ops }
    }

    /// The identity term with the given coefficient.
    pub fn constant(coeff: Complex64) -> FermionTerm {
        FermionTerm { coeff, ops: vec![] }
    }

    /// Hermitian conjugate: reverses the product, flips daggers, conjugates
    /// the coefficient.
    pub fn adjoint(&self) -> FermionTerm {
        FermionTerm {
            coeff: self.coeff.conj(),
            ops: self.ops.iter().rev().map(|o| o.adjoint()).collect(),
        }
    }

    /// True when the term is structurally equal to its own adjoint.
    pub fn is_self_adjoint(&self) -> bool {
        *self == self.adjoint()
    }

    /// Highest mode index mentioned, if any.
    pub fn max_mode(&self) -> Option<usize> {
        self.ops.iter().map(|o| o.mode()).max()
    }
}

impl fmt::Display for FermionTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({})", self.coeff)?;
        for op in &self.ops {
            write!(f, "·{op}")?;
        }
        Ok(())
    }
}

/// A second-quantized Hamiltonian: a sum of [`FermionTerm`]s over a fixed
/// number of modes.
///
/// # Example
///
/// ```
/// use fermion::{FermionHamiltonian, FermionOp};
/// use mathkit::Complex64;
///
/// // Hopping between modes 0 and 1: -t(a†₀a₁ + a†₁a₀)
/// let mut h = FermionHamiltonian::new(2);
/// h.add_hopping(0, 1, 1.5);
/// assert_eq!(h.terms().len(), 2);
/// assert!(h.is_hermitian());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FermionHamiltonian {
    num_modes: usize,
    terms: Vec<FermionTerm>,
}

impl FermionHamiltonian {
    /// An empty Hamiltonian on `num_modes` modes.
    ///
    /// # Panics
    ///
    /// Panics if `num_modes == 0`.
    pub fn new(num_modes: usize) -> FermionHamiltonian {
        assert!(num_modes > 0, "Hamiltonian needs at least one mode");
        FermionHamiltonian {
            num_modes,
            terms: Vec::new(),
        }
    }

    /// Number of Fermionic modes.
    pub fn num_modes(&self) -> usize {
        self.num_modes
    }

    /// The terms in insertion order.
    pub fn terms(&self) -> &[FermionTerm] {
        &self.terms
    }

    /// Adds one term.
    ///
    /// # Panics
    ///
    /// Panics if the term mentions a mode `>= num_modes`.
    pub fn add_term(&mut self, term: FermionTerm) {
        if let Some(max) = term.max_mode() {
            assert!(
                max < self.num_modes,
                "term mentions mode {max} but Hamiltonian has {} modes",
                self.num_modes
            );
        }
        if term.coeff != Complex64::ZERO {
            self.terms.push(term);
        }
    }

    /// Adds `term + term†` (or just `term` when it is self-adjoint), keeping
    /// the Hamiltonian Hermitian by construction.
    pub fn add_hermitian(&mut self, term: FermionTerm) {
        if term.is_self_adjoint() {
            self.add_term(term);
        } else {
            let adj = term.adjoint();
            self.add_term(term);
            self.add_term(adj);
        }
    }

    /// Adds the number operator `c·a†_m a_m`.
    pub fn add_number_operator(&mut self, mode: usize, c: f64) {
        self.add_term(FermionTerm::new(
            Complex64::from_re(c),
            vec![FermionOp::creation(mode), FermionOp::annihilation(mode)],
        ));
    }

    /// Adds the Hermitian hopping pair `t·(a†_i a_j + a†_j a_i)`, `i ≠ j`.
    ///
    /// # Panics
    ///
    /// Panics if `i == j` (use
    /// [`add_number_operator`](Self::add_number_operator)).
    pub fn add_hopping(&mut self, i: usize, j: usize, t: f64) {
        assert_ne!(i, j, "hopping needs two distinct modes");
        self.add_term(FermionTerm::new(
            Complex64::from_re(t),
            vec![FermionOp::creation(i), FermionOp::annihilation(j)],
        ));
        self.add_term(FermionTerm::new(
            Complex64::from_re(t),
            vec![FermionOp::creation(j), FermionOp::annihilation(i)],
        ));
    }

    /// True when the operator is Hermitian.
    ///
    /// Checked exactly through the Majorana expansion (structural
    /// comparisons of operator products are too strict: `n↑·n↓` is Hermitian
    /// although its reversed product is a different expression).
    pub fn is_hermitian(&self) -> bool {
        crate::majorana::MajoranaSum::from_fermion(self).is_hermitian(1e-10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjoint_reverses_and_flips() {
        let t = FermionTerm::new(
            Complex64::new(0.0, 2.0),
            vec![FermionOp::creation(0), FermionOp::annihilation(3)],
        );
        let adj = t.adjoint();
        assert_eq!(adj.coeff, Complex64::new(0.0, -2.0));
        assert_eq!(
            adj.ops,
            vec![FermionOp::creation(3), FermionOp::annihilation(0)]
        );
        // Double adjoint is identity.
        assert_eq!(adj.adjoint(), t);
    }

    #[test]
    fn number_operator_is_self_adjoint() {
        let t = FermionTerm::new(
            Complex64::ONE,
            vec![FermionOp::creation(1), FermionOp::annihilation(1)],
        );
        assert!(t.is_self_adjoint());
    }

    #[test]
    fn add_hermitian_avoids_double_count() {
        let mut h = FermionHamiltonian::new(2);
        let num_op = FermionTerm::new(
            Complex64::ONE,
            vec![FermionOp::creation(0), FermionOp::annihilation(0)],
        );
        h.add_hermitian(num_op);
        assert_eq!(h.terms().len(), 1);
        let hop = FermionTerm::new(
            Complex64::ONE,
            vec![FermionOp::creation(0), FermionOp::annihilation(1)],
        );
        h.add_hermitian(hop);
        assert_eq!(h.terms().len(), 3);
        assert!(h.is_hermitian());
    }

    #[test]
    fn hermiticity_detects_imbalance() {
        let mut h = FermionHamiltonian::new(2);
        h.add_term(FermionTerm::new(
            Complex64::ONE,
            vec![FermionOp::creation(0), FermionOp::annihilation(1)],
        ));
        assert!(!h.is_hermitian());
        h.add_term(FermionTerm::new(
            Complex64::ONE,
            vec![FermionOp::creation(1), FermionOp::annihilation(0)],
        ));
        assert!(h.is_hermitian());
    }

    #[test]
    fn zero_terms_are_dropped() {
        let mut h = FermionHamiltonian::new(1);
        h.add_term(FermionTerm::constant(Complex64::ZERO));
        assert!(h.terms().is_empty());
    }

    #[test]
    #[should_panic(expected = "mentions mode")]
    fn out_of_range_mode_panics() {
        let mut h = FermionHamiltonian::new(2);
        h.add_number_operator(5, 1.0);
    }

    #[test]
    fn display_forms() {
        let t = FermionTerm::new(
            Complex64::from_re(0.5),
            vec![FermionOp::creation(0), FermionOp::annihilation(2)],
        );
        assert_eq!(t.to_string(), "(0.5+0i)·a†0·a2");
    }
}
