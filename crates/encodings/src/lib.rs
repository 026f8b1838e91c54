//! Fermion-to-qubit encodings: constructions, mapping, validation, metrics.
//!
//! A Fermion-to-qubit encoding is a set of `2N` Pauli strings implementing
//! the Majorana operators of an `N`-mode Fermionic system (paper
//! Section 2.2.2). This crate provides:
//!
//! * the classical *Hamiltonian-independent* constructions the paper
//!   compares against — Jordan-Wigner, parity, and Bravyi-Kitaev through a
//!   common GF(2) [linear-encoding engine](linear::LinearEncoding), and the
//!   [ternary tree](ternary_tree::TernaryTreeEncoding) of Jiang et al.;
//! * [`MajoranaEncoding`] — an encoding wrapping explicit strings, the
//!   output form of the SAT solver in the `fermihedral` crate;
//! * [`map`] — exact mapping of second-quantized or Majorana Hamiltonians
//!   onto qubit [`pauli::PauliSum`]s (phases included);
//! * [`embed`] — cross-size lifting: a valid `N`-mode encoding extended to
//!   `N + 1` modes (identity-extended strings plus a JW-style pair on the
//!   fresh qubit), the basis of the engine's warm-start transfer;
//! * [`validate`] — the paper's validity constraints as executable checks
//!   (anticommutativity, GF(2) algebraic independence, vacuum preservation —
//!   both the paper's XY-pair condition and the exact condition);
//! * [`weight`] — the Pauli-weight cost metrics that Figures 6–7 and
//!   Tables 4–5 report.
//!
//! # Example
//!
//! ```
//! use encodings::{Encoding, linear::LinearEncoding};
//! use encodings::validate::validate;
//!
//! let jw = LinearEncoding::jordan_wigner(3);
//! let report = validate(&jw);
//! assert!(report.is_valid());
//!
//! // JW Majorana strings have weights 1,1,2,2,3,3: total 12 for N=3.
//! assert_eq!(encodings::weight::majorana_weight(&jw.majoranas()), 12);
//! ```

pub mod custom;
pub mod embed;
pub mod linear;
pub mod map;
pub mod ternary_tree;
pub mod validate;
pub mod weight;

pub use custom::MajoranaEncoding;
pub use linear::LinearEncoding;
pub use ternary_tree::TernaryTreeEncoding;

use pauli::PhasedString;

/// A Fermion-to-qubit encoding: `2N` Majorana operators as phased Pauli
/// strings on `N` qubits.
///
/// Index convention (0-based): `majoranas()[2j]` is the *X-type* operator
/// `a†_j + a_j` and `majoranas()[2j+1]` the *Y-type* `i(a†_j − a_j)`, so
///
/// ```text
/// a_j  = (M_{2j} + i·M_{2j+1}) / 2
/// a†_j = (M_{2j} − i·M_{2j+1}) / 2
/// ```
pub trait Encoding {
    /// Number of Fermionic modes `N` (= number of qubits).
    fn num_modes(&self) -> usize;

    /// The `2N` Majorana operators.
    fn majoranas(&self) -> Vec<PhasedString>;

    /// Human-readable name for reports.
    fn name(&self) -> &str;
}
