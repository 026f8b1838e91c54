//! Pauli strings carrying an exact phase.

use crate::{PauliString, Phase};
use mathkit::{CMatrix, Complex64};
use std::fmt;
use std::ops::Mul;

/// A Pauli string together with a phase `i^k`: the closure of
/// [`PauliString`] under operator products.
///
/// Majorana operators produced by the encoding engines are `PhasedString`s:
/// a product like `X·Z` on one qubit is `-i·Y`, and those `±1, ±i` factors
/// must survive into the qubit Hamiltonian's coefficients.
///
/// # Example
///
/// ```
/// use pauli::{PauliString, PhasedString, Phase};
///
/// let x: PhasedString = PhasedString::from("X".parse::<PauliString>().unwrap());
/// let z: PhasedString = PhasedString::from("Z".parse::<PauliString>().unwrap());
/// let xz = &x * &z;
/// assert_eq!(xz.string().to_string(), "Y");
/// assert_eq!(xz.phase(), Phase::MinusI); // XZ = -iY
/// assert!(!xz.is_hermitian());
/// assert!(xz.adjoint().phase() == Phase::PlusI);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PhasedString {
    phase: Phase,
    string: PauliString,
}

impl PhasedString {
    /// Wraps a string with an explicit phase.
    pub fn new(phase: Phase, string: PauliString) -> Self {
        PhasedString { phase, string }
    }

    /// The phase-free identity on `n` qubits.
    pub fn identity(n: usize) -> Self {
        PhasedString {
            phase: Phase::PlusOne,
            string: PauliString::identity(n),
        }
    }

    /// The phase factor.
    #[inline]
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// The underlying string.
    #[inline]
    pub fn string(&self) -> &PauliString {
        &self.string
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.string.num_qubits()
    }

    /// Pauli weight of the underlying string.
    #[inline]
    pub fn weight(&self) -> usize {
        self.string.weight()
    }

    /// Hermitian conjugate: conjugates the phase (strings are Hermitian).
    pub fn adjoint(&self) -> PhasedString {
        PhasedString {
            phase: self.phase.conj(),
            string: self.string.clone(),
        }
    }

    /// True when the operator is Hermitian, i.e. the phase is `±1`.
    #[inline]
    pub fn is_hermitian(&self) -> bool {
        self.phase.is_real()
    }

    /// Multiplies by an extra phase.
    pub fn scaled(&self, extra: Phase) -> PhasedString {
        PhasedString {
            phase: self.phase * extra,
            string: self.string.clone(),
        }
    }

    /// Dense matrix including the phase. Exponential in qubit count.
    pub fn to_matrix(&self) -> CMatrix {
        self.string.to_matrix().scale(self.phase.to_complex())
    }

    /// The coefficient this operator contributes when expanded over plain
    /// strings: `phase` as a complex number.
    #[inline]
    pub fn coefficient(&self) -> Complex64 {
        self.phase.to_complex()
    }
}

impl From<PauliString> for PhasedString {
    fn from(string: PauliString) -> Self {
        PhasedString {
            phase: Phase::PlusOne,
            string,
        }
    }
}

impl Mul for &PhasedString {
    type Output = PhasedString;

    fn mul(self, rhs: &PhasedString) -> PhasedString {
        let (string, k) = self.string.mul(&rhs.string);
        PhasedString {
            phase: self.phase * rhs.phase * k,
            string,
        }
    }
}

impl fmt::Display for PhasedString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}·{}", self.phase, self.string)
    }
}

impl fmt::Debug for PhasedString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PhasedString({} {})", self.phase, self.string)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(s: &str) -> PhasedString {
        PhasedString::from(s.parse::<PauliString>().unwrap())
    }

    #[test]
    fn product_accumulates_phases() {
        // (XZ)·(XZ): per-site X·X = I and Z·Z = I, no phase.
        let a = ps("XZ");
        let sq = &a * &a;
        assert!(sq.string().is_identity());
        assert_eq!(sq.phase(), Phase::PlusOne);

        // X·Y = iZ, so (X)·(Y) has phase +i.
        let xy = &ps("X") * &ps("Y");
        assert_eq!(xy.phase(), Phase::PlusI);
        assert_eq!(xy.string().to_string(), "Z");
    }

    #[test]
    fn adjoint_matches_matrix_adjoint() {
        let p = PhasedString::new(Phase::PlusI, "XY".parse().unwrap());
        let lhs = p.adjoint().to_matrix();
        let rhs = p.to_matrix().adjoint();
        assert!(lhs.approx_eq(&rhs, 1e-14));
    }

    #[test]
    fn hermiticity_follows_phase() {
        assert!(ps("XYZ").is_hermitian());
        assert!(PhasedString::new(Phase::MinusOne, "X".parse().unwrap()).is_hermitian());
        assert!(!PhasedString::new(Phase::PlusI, "X".parse().unwrap()).is_hermitian());
    }

    #[test]
    fn product_matches_matrices() {
        let a = PhasedString::new(Phase::MinusI, "XZY".parse().unwrap());
        let b = PhasedString::new(Phase::MinusOne, "YIX".parse().unwrap());
        let prod = &a * &b;
        let lhs = &a.to_matrix() * &b.to_matrix();
        assert!(lhs.approx_eq(&prod.to_matrix(), 1e-13));
    }

    #[test]
    fn scaled_multiplies_phase() {
        let p = ps("Z").scaled(Phase::MinusI);
        assert_eq!(p.phase(), Phase::MinusI);
        assert_eq!(p.scaled(Phase::PlusI).phase(), Phase::PlusOne);
    }
}
