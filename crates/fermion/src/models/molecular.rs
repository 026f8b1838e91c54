//! Molecular electronic-structure Hamiltonians.
//!
//! The paper's quantum-chemistry benchmark (Figure 5):
//!
//! ```text
//! H = Σ_pq h_pq a†_p a_q + ½ Σ_pqrs ⟨pq|rs⟩ a†_p a†_q a_s a_r
//! ```
//!
//! Spatial integrals are stored in chemists' notation `(pq|rs)` with the
//! 8-fold permutational symmetry of real orbitals; the physicists'
//! two-electron coefficient is `⟨PQ|RS⟩ = (pr|qs)·δ(σ_P,σ_R)·δ(σ_Q,σ_S)`.
//!
//! The H₂/STO-3G integrals at the 0.7414 Å equilibrium geometry are
//! embedded as published constants (the values a PySCF/Qiskit-Nature run
//! produces, substituted for running a chemistry package), so the 4-qubit
//! benchmark of the paper's Figures 8/10 and Table 4 is bit-for-bit
//! reproducible without a chemistry stack.

use crate::ops::{FermionHamiltonian, FermionOp, FermionTerm};
use mathkit::Complex64;
use rand::Rng;

/// How spatial orbitals with spin map onto Fermionic mode indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpinOrbitalOrder {
    /// `mode = orbital + n_orbitals·spin` — all α spins first (the
    /// Qiskit-Nature convention; the paper's toolchain).
    #[default]
    Blocked,
    /// `mode = 2·orbital + spin` — spins interleaved per orbital.
    Interleaved,
}

/// One- and two-electron integrals of a molecule in a given basis.
///
/// # Example
///
/// ```
/// use fermion::models::MolecularIntegrals;
///
/// let h2 = MolecularIntegrals::h2_sto3g();
/// assert_eq!(h2.num_orbitals(), 2);
/// assert_eq!(h2.num_spin_orbitals(), 4);
/// let hamiltonian = h2.to_hamiltonian(Default::default());
/// assert!(hamiltonian.is_hermitian());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MolecularIntegrals {
    num_orbitals: usize,
    /// `h1[p·n + q]`, symmetric.
    h1: Vec<f64>,
    /// `(pq|rs)` chemists' notation, flattened `((p·n + q)·n + r)·n + s`.
    h2: Vec<f64>,
    nuclear_repulsion: f64,
}

impl MolecularIntegrals {
    /// Wraps raw integral arrays.
    ///
    /// # Panics
    ///
    /// Panics if array lengths don't match `n²`/`n⁴`, or the required
    /// symmetries (`h_pq = h_qp`, 8-fold for `(pq|rs)`) are violated beyond
    /// `1e-10`.
    pub fn new(num_orbitals: usize, h1: Vec<f64>, h2: Vec<f64>, nuclear_repulsion: f64) -> Self {
        let n = num_orbitals;
        assert!(n > 0, "need at least one orbital");
        assert_eq!(h1.len(), n * n, "h1 must be n×n");
        assert_eq!(h2.len(), n * n * n * n, "h2 must be n⁴");
        let ints = MolecularIntegrals {
            num_orbitals,
            h1,
            h2,
            nuclear_repulsion,
        };
        for p in 0..n {
            for q in 0..n {
                assert!(
                    (ints.h1(p, q) - ints.h1(q, p)).abs() < 1e-10,
                    "h1 must be symmetric"
                );
                for r in 0..n {
                    for s in 0..n {
                        let v = ints.h2(p, q, r, s);
                        for w in [
                            ints.h2(q, p, r, s),
                            ints.h2(p, q, s, r),
                            ints.h2(r, s, p, q),
                        ] {
                            assert!((v - w).abs() < 1e-10, "(pq|rs) symmetry violated");
                        }
                    }
                }
            }
        }
        ints
    }

    /// The published H₂/STO-3G integrals at R = 0.7414 Å (Hartree).
    pub fn h2_sto3g() -> MolecularIntegrals {
        let n = 2;
        let mut h1 = vec![0.0; n * n];
        h1[0] = -1.252477495; // bonding orbital
        h1[3] = -0.475934275; // antibonding orbital
        let mut h2 = vec![0.0; n * n * n * n];
        let mut set = |p: usize, q: usize, r: usize, s: usize, v: f64| {
            // Apply the 8-fold symmetry of real orbitals.
            let perms = [
                (p, q, r, s),
                (q, p, r, s),
                (p, q, s, r),
                (q, p, s, r),
                (r, s, p, q),
                (s, r, p, q),
                (r, s, q, p),
                (s, r, q, p),
            ];
            for (a, b, c, d) in perms {
                h2[((a * n + b) * n + c) * n + d] = v;
            }
        };
        set(0, 0, 0, 0, 0.674493166);
        set(1, 1, 1, 1, 0.697397010);
        set(0, 0, 1, 1, 0.663472101);
        set(0, 1, 0, 1, 0.181287518);
        MolecularIntegrals::new(n, h1, h2, 0.713753980)
    }

    /// Synthetic integrals with full O(N⁴) structure, for scaling
    /// experiments beyond H₂ (Tables 4–5 evaluate electronic structure at up
    /// to 12 modes; only the *term structure* affects Pauli weight, so
    /// random symmetric values stand in for real integrals).
    pub fn synthetic(num_orbitals: usize, rng: &mut impl Rng) -> MolecularIntegrals {
        let n = num_orbitals;
        let mut h1 = vec![0.0; n * n];
        for p in 0..n {
            for q in 0..=p {
                let v = rng.gen_range(-1.0..1.0);
                h1[p * n + q] = v;
                h1[q * n + p] = v;
            }
        }
        let mut h2 = vec![0.0; n * n * n * n];
        for p in 0..n {
            for q in 0..n {
                for r in 0..n {
                    for s in 0..n {
                        let idx = ((p * n + q) * n + r) * n + s;
                        if h2[idx] != 0.0 {
                            continue;
                        }
                        let v = rng.gen_range(-1.0..1.0);
                        for (a, b, c, d) in [
                            (p, q, r, s),
                            (q, p, r, s),
                            (p, q, s, r),
                            (q, p, s, r),
                            (r, s, p, q),
                            (s, r, p, q),
                            (r, s, q, p),
                            (s, r, q, p),
                        ] {
                            h2[((a * n + b) * n + c) * n + d] = v;
                        }
                    }
                }
            }
        }
        MolecularIntegrals::new(n, h1, h2, 0.0)
    }

    /// Number of spatial orbitals.
    pub fn num_orbitals(&self) -> usize {
        self.num_orbitals
    }

    /// Number of spin orbitals (= Fermionic modes = qubits).
    pub fn num_spin_orbitals(&self) -> usize {
        2 * self.num_orbitals
    }

    /// One-electron integral `h_pq`.
    pub fn h1(&self, p: usize, q: usize) -> f64 {
        self.h1[p * self.num_orbitals + q]
    }

    /// Two-electron integral `(pq|rs)` in chemists' notation.
    pub fn h2(&self, p: usize, q: usize, r: usize, s: usize) -> f64 {
        let n = self.num_orbitals;
        self.h2[((p * n + q) * n + r) * n + s]
    }

    /// The constant nuclear-repulsion energy (not included in the
    /// electronic Hamiltonian).
    pub fn nuclear_repulsion(&self) -> f64 {
        self.nuclear_repulsion
    }

    /// Builds the electronic Hamiltonian over spin orbitals.
    pub fn to_hamiltonian(&self, order: SpinOrbitalOrder) -> FermionHamiltonian {
        let n = self.num_orbitals;
        let mode = |orbital: usize, spin: usize| match order {
            SpinOrbitalOrder::Blocked => orbital + n * spin,
            SpinOrbitalOrder::Interleaved => 2 * orbital + spin,
        };
        let mut h = FermionHamiltonian::new(2 * n);
        // One-body: Σ h_pq a†_{pσ} a_{qσ}.
        for p in 0..n {
            for q in 0..n {
                let v = self.h1(p, q);
                if v.abs() < 1e-14 {
                    continue;
                }
                for spin in 0..2 {
                    h.add_term(FermionTerm::new(
                        Complex64::from_re(v),
                        vec![
                            FermionOp::creation(mode(p, spin)),
                            FermionOp::annihilation(mode(q, spin)),
                        ],
                    ));
                }
            }
        }
        // Two-body: ½ Σ ⟨PQ|RS⟩ a†_P a†_Q a_S a_R with
        // ⟨PQ|RS⟩ = (pr|qs) δ(σP,σR) δ(σQ,σS).
        for p in 0..n {
            for q in 0..n {
                for r in 0..n {
                    for s in 0..n {
                        let v = self.h2(p, r, q, s); // (pr|qs)
                        if v.abs() < 1e-14 {
                            continue;
                        }
                        for sigma in 0..2 {
                            for tau in 0..2 {
                                let cp = mode(p, sigma);
                                let cq = mode(q, tau);
                                let as_ = mode(s, tau);
                                let ar = mode(r, sigma);
                                if cp == cq || as_ == ar {
                                    continue; // a†a† or aa on the same mode is 0
                                }
                                h.add_term(FermionTerm::new(
                                    Complex64::from_re(0.5 * v),
                                    vec![
                                        FermionOp::creation(cp),
                                        FermionOp::creation(cq),
                                        FermionOp::annihilation(as_),
                                        FermionOp::annihilation(ar),
                                    ],
                                ));
                            }
                        }
                    }
                }
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fock::hamiltonian_matrix;
    use mathkit::eigen::eigh;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The FCI electronic ground energy of H₂/STO-3G at 0.7414 Å.
    const H2_FCI_ELECTRONIC: f64 = -1.851046;

    #[test]
    fn h2_integrals_have_symmetries() {
        let h2 = MolecularIntegrals::h2_sto3g();
        assert!((h2.h2(0, 0, 1, 1) - h2.h2(1, 1, 0, 0)).abs() < 1e-12);
        assert!((h2.h2(0, 1, 0, 1) - h2.h2(1, 0, 1, 0)).abs() < 1e-12);
        assert!((h2.nuclear_repulsion() - 0.71375398).abs() < 1e-8);
    }

    #[test]
    fn h2_hamiltonian_reproduces_fci_energy() {
        for order in [SpinOrbitalOrder::Blocked, SpinOrbitalOrder::Interleaved] {
            let h = MolecularIntegrals::h2_sto3g().to_hamiltonian(order);
            assert_eq!(h.num_modes(), 4);
            assert!(h.is_hermitian());
            let m = hamiltonian_matrix(&h);
            assert!(m.is_hermitian(1e-10));
            let eig = eigh(&m);
            assert!(
                (eig.values[0] - H2_FCI_ELECTRONIC).abs() < 2e-4,
                "{order:?}: ground energy {} vs FCI {}",
                eig.values[0],
                H2_FCI_ELECTRONIC
            );
        }
    }

    #[test]
    fn h2_ground_state_has_two_electrons() {
        let h = MolecularIntegrals::h2_sto3g().to_hamiltonian(SpinOrbitalOrder::Blocked);
        let m = hamiltonian_matrix(&h);
        let eig = eigh(&m);
        let ground = eig.vector(0);
        // Expectation of the number operator = Σ_x |ψ_x|²·popcount(x).
        let n_avg: f64 = ground
            .iter()
            .enumerate()
            .map(|(x, amp)| amp.norm_sqr() * (x.count_ones() as f64))
            .sum();
        assert!((n_avg - 2.0).abs() < 1e-8, "⟨N⟩ = {n_avg}");
    }

    #[test]
    fn orderings_are_isospectral() {
        let ints = MolecularIntegrals::h2_sto3g();
        let ma = hamiltonian_matrix(&ints.to_hamiltonian(SpinOrbitalOrder::Blocked));
        let mb = hamiltonian_matrix(&ints.to_hamiltonian(SpinOrbitalOrder::Interleaved));
        let ea = eigh(&ma).values;
        let eb = eigh(&mb).values;
        for (a, b) in ea.iter().zip(&eb) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn synthetic_structure_is_hermitian_and_dense() {
        let mut rng = StdRng::seed_from_u64(12);
        let ints = MolecularIntegrals::synthetic(3, &mut rng);
        let h = ints.to_hamiltonian(SpinOrbitalOrder::Blocked);
        assert_eq!(h.num_modes(), 6);
        assert!(h.is_hermitian());
        // O(N⁴) structure: plenty of two-body terms.
        assert!(h.terms().len() > 100);
        let m = hamiltonian_matrix(&h);
        assert!(m.is_hermitian(1e-9));
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn asymmetric_h1_rejected() {
        let _ = MolecularIntegrals::new(2, vec![0.0, 1.0, 0.0, 0.0], vec![0.0; 16], 0.0);
    }
}
