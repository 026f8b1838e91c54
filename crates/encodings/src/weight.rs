//! Pauli-weight cost metrics.
//!
//! Two objectives from the paper (Section 3.1):
//!
//! * **Hamiltonian-independent** — the summed Pauli weight of the `2N`
//!   Majorana strings themselves (Figures 6–7).
//! * **Hamiltonian-dependent** — the summed weight over the target
//!   Hamiltonian's *monomial structure*: every de-duplicated Majorana
//!   monomial contributes the weight of the phase-free product of its
//!   strings (Eq. 14; Tables 4–5). Products let operators cancel site-wise,
//!   which is exactly what Hamiltonian-specific encodings exploit.

use fermion::{MajoranaMonomial, MajoranaSum};
use pauli::{PauliString, PhasedString};

/// Total Pauli weight of the Majorana strings — the Hamiltonian-independent
/// objective.
pub fn majorana_weight(strings: &[PhasedString]) -> usize {
    strings.iter().map(PhasedString::weight).sum()
}

/// Average Pauli weight per Majorana operator (the Y-axis of Figures 6–7).
pub fn average_majorana_weight(strings: &[PhasedString]) -> f64 {
    if strings.is_empty() {
        return 0.0;
    }
    majorana_weight(strings) as f64 / strings.len() as f64
}

/// The Pauli string implementing one Majorana monomial (phase-free product
/// of the member strings).
///
/// # Panics
///
/// Panics if a monomial index exceeds `strings.len()`.
pub fn monomial_string(strings: &[PhasedString], monomial: &MajoranaMonomial) -> PauliString {
    assert!(!strings.is_empty(), "no Majorana strings");
    let n = strings[0].num_qubits();
    let mut acc = PauliString::identity(n);
    for &idx in monomial.indices() {
        acc = acc.mul_unphased(strings[idx as usize].string());
    }
    acc
}

/// Hamiltonian-dependent total Pauli weight over an explicit monomial
/// structure (paper Eq. 14, substituted: each distinct monomial counts
/// once, whatever its coefficient).
pub fn structure_weight(strings: &[PhasedString], monomials: &[MajoranaMonomial]) -> usize {
    let mut seen: std::collections::BTreeSet<&MajoranaMonomial> = std::collections::BTreeSet::new();
    let mut total = 0;
    for m in monomials {
        if m.is_identity() || !seen.insert(m) {
            continue;
        }
        total += monomial_string(strings, m).weight();
    }
    total
}

/// Hamiltonian-dependent total Pauli weight of a Majorana-form Hamiltonian
/// (its de-duplicated non-identity monomials).
pub fn hamiltonian_weight(strings: &[PhasedString], h: &MajoranaSum) -> usize {
    h.weight_structure()
        .into_iter()
        .map(|m| monomial_string(strings, m).weight())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearEncoding;
    use crate::map::map_majorana_sum;
    use crate::Encoding;
    use fermion::models::{FermiHubbard, Lattice, SykModel};
    use fermion::FermionHamiltonian;

    #[test]
    fn jw_weight_closed_form() {
        // JW weights are 1,1,2,2,…,N,N: total N(N+1).
        for n in 1..=8 {
            let w = majorana_weight(&LinearEncoding::jordan_wigner(n).majoranas());
            assert_eq!(w, n * (n + 1));
        }
    }

    #[test]
    fn average_weight_matches_total() {
        let ms = LinearEncoding::jordan_wigner(4).majoranas();
        assert!((average_majorana_weight(&ms) - 20.0 / 8.0).abs() < 1e-12);
        assert_eq!(average_majorana_weight(&[]), 0.0);
    }

    #[test]
    fn monomial_string_cancels_sites() {
        // Under JW, M₀·M₁ = X₀·Y₀ acts only on qubit 0: weight 1 < 1+1.
        let jw = LinearEncoding::jordan_wigner(3).majoranas();
        let m = MajoranaMonomial::from_sorted(vec![0, 1]);
        assert_eq!(monomial_string(&jw, &m).weight(), 1);
        // M₂·M₃ = (XZ)(YZ) on qubits 1,0 → Z-tails cancel: weight 1.
        let m2 = MajoranaMonomial::from_sorted(vec![2, 3]);
        assert_eq!(monomial_string(&jw, &m2).weight(), 1);
    }

    #[test]
    fn hamiltonian_weight_bounds_mapped_weight() {
        // Each monomial maps to one Pauli string; merging/cancellation in
        // the actual sum can only reduce the count, never increase it.
        let model = FermiHubbard::new(
            Lattice::Chain {
                sites: 3,
                periodic: true,
            },
            1.0,
            2.0,
        );
        let h = fermion::MajoranaSum::from_fermion(&model.hamiltonian());
        for enc in [
            LinearEncoding::jordan_wigner(6),
            LinearEncoding::bravyi_kitaev(6),
        ] {
            let strings = enc.majoranas();
            let structural = hamiltonian_weight(&strings, &h);
            let mapped = map_majorana_sum(&enc, &h).total_weight();
            assert!(
                mapped <= structural,
                "{}: mapped {mapped} > structural {structural}",
                Encoding::name(&enc)
            );
            assert!(structural > 0);
        }
    }

    #[test]
    fn structure_weight_dedupes() {
        let jw = LinearEncoding::jordan_wigner(2).majoranas();
        let m = MajoranaMonomial::from_sorted(vec![0, 1]);
        let doubled = vec![m.clone(), m.clone(), MajoranaMonomial::identity()];
        // Identity skipped, duplicate counted once.
        assert_eq!(
            structure_weight(&jw, &doubled),
            monomial_string(&jw, &m).weight()
        );
    }

    #[test]
    fn syk_structure_weight_positive() {
        let syk = SykModel::new(3, 1.0);
        let jw = LinearEncoding::jordan_wigner(3).majoranas();
        let w = structure_weight(&jw, &syk.monomials());
        assert!(w > 0);
        // All C(6,4)=15 quadruples contribute at least weight 1 each.
        assert!(w >= 15);
    }

    #[test]
    fn number_operator_structure() {
        // N̂ = Σ a†_j a_j has monomials {2j, 2j+1} only: under JW each maps
        // to weight-1 Z strings, total N.
        let n = 4;
        let mut h = FermionHamiltonian::new(n);
        for j in 0..n {
            h.add_number_operator(j, 1.0);
        }
        let sum = fermion::MajoranaSum::from_fermion(&h);
        let jw = LinearEncoding::jordan_wigner(n).majoranas();
        assert_eq!(hamiltonian_weight(&jw, &sum), n);
    }
}
