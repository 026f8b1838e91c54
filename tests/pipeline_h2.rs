//! End-to-end integration: the H₂ pipeline across every crate.
//!
//! Exercises the full chain the paper's evaluation depends on:
//! integrals → second quantization → encoding (classical and SAT-optimal)
//! → qubit Hamiltonian → spectrum → Trotter compilation → optimization →
//! (noisy) simulation → shot-based measurement.

use fermihedral_repro::circuit::optimize::optimize;
use fermihedral_repro::circuit::{circuit_unitary, evolution, trotter_circuit};
use fermihedral_repro::encodings::map::map_hamiltonian;
use fermihedral_repro::encodings::validate::validate;
use fermihedral_repro::encodings::{LinearEncoding, MajoranaEncoding};
use fermihedral_repro::fermihedral::descent::{solve_optimal, DescentConfig};
use fermihedral_repro::fermihedral::{EncodingProblem, Objective};
use fermihedral_repro::fermion::fock::hamiltonian_matrix;
use fermihedral_repro::fermion::models::MolecularIntegrals;
use fermihedral_repro::fermion::MajoranaSum;
use fermihedral_repro::mathkit::eigen::eigh;
use fermihedral_repro::qsim::{eigenstate, estimate_energy, spectrum, NoiseModel, Statevector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;
use std::time::Duration;

const H2_FCI: f64 = -1.851046;

fn h2() -> fermihedral_repro::fermion::FermionHamiltonian {
    MolecularIntegrals::h2_sto3g().to_hamiltonian(Default::default())
}

/// One descent for the whole suite: it runs into its 15 s per-call limit
/// at the bound it cannot refute, and three tests want its result.
fn sat_encoding_for_h2() -> MajoranaEncoding {
    static SOLVED: OnceLock<MajoranaEncoding> = OnceLock::new();
    SOLVED.get_or_init(solve_h2).clone()
}

fn solve_h2() -> MajoranaEncoding {
    let monomials: Vec<_> = MajoranaSum::from_fermion(&h2())
        .weight_structure()
        .into_iter()
        .cloned()
        .collect();
    let outcome = solve_optimal(
        &EncodingProblem::full_sat(4, Objective::HamiltonianWeight(monomials)),
        &DescentConfig {
            solve_timeout: Some(Duration::from_secs(15)),
            total_timeout: Some(Duration::from_secs(30)),
            ..Default::default()
        },
    );
    outcome
        .best
        .expect("H2 instance solves within seconds")
        .to_encoding("full-sat-h2")
}

#[test]
fn h2_spectra_agree_across_encodings_including_sat() {
    let h = h2();
    let reference = eigh(&hamiltonian_matrix(&h)).values;
    assert!((reference[0] - H2_FCI).abs() < 2e-4, "Fock FCI check");

    let sat = sat_encoding_for_h2();
    let report = validate(&sat);
    assert!(report.is_valid(), "{report:?}");
    assert!(report.xy_pair_condition);

    for mapped in [
        map_hamiltonian(&LinearEncoding::jordan_wigner(4), &h),
        map_hamiltonian(&LinearEncoding::bravyi_kitaev(4), &h),
        map_hamiltonian(&LinearEncoding::parity(4), &h),
        map_hamiltonian(&sat, &h),
    ] {
        assert!(mapped.is_hermitian(1e-9));
        let eigs = spectrum(&mapped).values;
        for (a, b) in reference.iter().zip(&eigs) {
            assert!((a - b).abs() < 1e-7, "{a} vs {b}");
        }
    }
}

#[test]
fn sat_encoding_reduces_h2_cost_versus_bk() {
    let h = h2();
    let sat = sat_encoding_for_h2();
    let count = |enc: &dyn Fn() -> fermihedral_repro::pauli::PauliSum| {
        let mut mapped = enc();
        mapped.take_identity();
        let c = optimize(&trotter_circuit(&mapped, 1.0, 1));
        (c.counts().total(), c.counts().cnot, c.depth())
    };
    let (bk_total, bk_cnot, bk_depth) =
        count(&|| map_hamiltonian(&LinearEncoding::bravyi_kitaev(4), &h));
    let (sat_total, sat_cnot, sat_depth) = count(&|| map_hamiltonian(&sat, &h));
    // The paper's Table 6 shape: Full SAT strictly cheaper than BK on H2.
    assert!(sat_total < bk_total, "total {sat_total} vs {bk_total}");
    assert!(sat_cnot <= bk_cnot, "cnot {sat_cnot} vs {bk_cnot}");
    assert!(sat_depth <= bk_depth, "depth {sat_depth} vs {bk_depth}");
}

#[test]
fn trotter_circuit_approximates_exact_evolution() {
    let h = h2();
    let mut mapped = map_hamiltonian(&LinearEncoding::jordan_wigner(4), &h);
    let constant = mapped.take_identity();
    // 4 Trotter steps at t = 0.2 are quite accurate for H2.
    let circuit = optimize(&trotter_circuit(&mapped, 0.2, 4));
    let u = circuit_unitary(&circuit);
    let exact = evolution::exact_evolution(&mapped, 0.2);
    let err = (&u - &exact).frobenius_norm();
    assert!(err < 0.05, "Trotter error {err}");
    assert!(constant.im.abs() < 1e-9);
}

#[test]
fn ground_state_energy_survives_noiseless_measurement() {
    let h = h2();
    let mapped = map_hamiltonian(&LinearEncoding::bravyi_kitaev(4), &h);
    let psi = eigenstate(&mapped, 0);
    // Expectation check first (no shots).
    let direct = psi.expectation(&mapped).re;
    assert!((direct - H2_FCI).abs() < 2e-4);

    let mut rest = mapped.clone();
    rest.take_identity();
    let circuit = optimize(&trotter_circuit(&rest, 1.0, 1));
    let mut rng = StdRng::seed_from_u64(2024);
    let est = estimate_energy(
        &psi,
        &circuit,
        &mapped,
        4000,
        &NoiseModel::noiseless(),
        &mut rng,
    );
    // One Trotter step at t=1 is inexact, but an eigenstate's energy is
    // first-order protected; allow a loose-but-meaningful window.
    assert!(
        (est.energy - H2_FCI).abs() < 0.05,
        "measured {} vs {H2_FCI}",
        est.energy
    );
}

#[test]
fn noise_monotonically_degrades_h2_energy() {
    let h = h2();
    let mapped = map_hamiltonian(&LinearEncoding::bravyi_kitaev(4), &h);
    let psi = eigenstate(&mapped, 0);
    let mut rest = mapped.clone();
    rest.take_identity();
    let circuit = optimize(&trotter_circuit(&rest, 1.0, 1));
    let mut rng = StdRng::seed_from_u64(7);
    let mut drifts = Vec::new();
    for p2 in [1e-4, 3e-3, 3e-2] {
        let est = estimate_energy(
            &psi,
            &circuit,
            &mapped,
            3000,
            &NoiseModel::depolarizing(1e-4, p2),
            &mut rng,
        );
        drifts.push((est.energy - H2_FCI).abs());
    }
    // Strong noise must drift more than weak noise (the Figure 8 trend).
    assert!(drifts[2] > drifts[0], "drifts not increasing: {drifts:?}");
}

#[test]
fn vacuum_state_is_zero_electron_sector() {
    // Every H2 term ends in an annihilation operator, so the electronic
    // energy of the zero-electron state is exactly 0. Under a
    // vacuum-preserving encoding, |0…0⟩ *is* that state — so this checks
    // vacuum preservation end-to-end through the mapping.
    let h = h2();
    for enc_mapped in [
        map_hamiltonian(&LinearEncoding::jordan_wigner(4), &h),
        map_hamiltonian(&LinearEncoding::bravyi_kitaev(4), &h),
        map_hamiltonian(&sat_encoding_for_h2(), &h),
    ] {
        let vac = Statevector::zero(4);
        let e = vac.expectation(&enc_mapped);
        assert!(e.abs() < 1e-9, "vacuum energy should vanish, got {e}");
    }
}
