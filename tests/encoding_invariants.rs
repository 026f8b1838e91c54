//! Cross-crate invariants on Fermion-to-qubit encodings.
//!
//! These are the properties the paper's formulation relies on, checked
//! across the classical constructions and the SAT solver's output.

use fermihedral_repro::encodings::validate::{preserves_vacuum, validate, validate_strings};
use fermihedral_repro::encodings::weight::majorana_weight;
use fermihedral_repro::encodings::{Encoding, LinearEncoding, TernaryTreeEncoding};
use fermihedral_repro::fermihedral::descent::{solve_optimal, DescentConfig};
use fermihedral_repro::fermihedral::enumerate::{enumerate_encodings, EnumerateConfig};
use fermihedral_repro::fermihedral::{EncodingProblem, Objective};
use fermihedral_repro::pauli::PhasedString;
use std::time::Duration;

#[test]
fn classical_encodings_valid_up_to_n8() {
    for n in 1..=8 {
        for (name, report) in [
            ("jw", validate(&LinearEncoding::jordan_wigner(n))),
            ("parity", validate(&LinearEncoding::parity(n))),
            ("bk", validate(&LinearEncoding::bravyi_kitaev(n))),
            ("tt", validate(&TernaryTreeEncoding::new(n))),
        ] {
            assert!(report.is_valid(), "{name} at n={n}: {report:?}");
        }
    }
}

#[test]
fn classical_encodings_preserve_vacuum() {
    for n in 1..=6 {
        assert!(validate(&LinearEncoding::jordan_wigner(n)).vacuum_preserving);
        assert!(validate(&LinearEncoding::parity(n)).vacuum_preserving);
        assert!(validate(&LinearEncoding::bravyi_kitaev(n)).vacuum_preserving);
    }
    // The exact check (each pair's annihilator kills |0…0⟩), not only the
    // paper's XY-pair condition.
    for n in 1..=16 {
        let tt = TernaryTreeEncoding::new(n).majoranas();
        assert!(preserves_vacuum(&tt), "ternary tree at n={n}");
        assert!(validate_strings(&tt).is_valid(), "ternary tree at n={n}");
    }
}

#[test]
fn optimal_weights_match_known_small_values() {
    // Proven by UNSAT certificates: N=1 → 2, N=2 → 6, N=3 → 11, N=4 → 16.
    let expected = [(1usize, 2usize), (2, 6), (3, 11), (4, 16)];
    for (n, w) in expected {
        let outcome = solve_optimal(
            &EncodingProblem::full_sat(n, Objective::MajoranaWeight),
            &DescentConfig {
                solve_timeout: Some(Duration::from_secs(30)),
                total_timeout: Some(Duration::from_secs(60)),
                ..Default::default()
            },
        );
        assert_eq!(outcome.weight(), Some(w), "n={n}");
        assert!(outcome.optimal_proved, "n={n} should certify optimality");
        // The vacuum-paired ternary tree meets the certified optimum.
        let tt = majorana_weight(&TernaryTreeEncoding::new(n).majoranas());
        assert_eq!(tt, w, "ternary tree at n={n}");
    }
}

#[test]
fn optimal_weight_monotone_and_below_baselines() {
    // The optimum can't exceed any valid construction's weight.
    let mut last = 0;
    for n in 1..=3 {
        let outcome = solve_optimal(
            &EncodingProblem::full_sat(n, Objective::MajoranaWeight),
            &DescentConfig::default(),
        );
        let w = outcome.weight().expect("solves quickly");
        let jw = majorana_weight(&LinearEncoding::jordan_wigner(n).majoranas());
        let bk = majorana_weight(&LinearEncoding::bravyi_kitaev(n).majoranas());
        let tt = majorana_weight(&TernaryTreeEncoding::new(n).majoranas());
        assert!(
            w <= jw.min(bk).min(tt),
            "n={n}: optimal {w} vs {jw}/{bk}/{tt}"
        );
        assert!(w >= last, "weight should not decrease with size");
        last = w;
    }
}

#[test]
fn dropping_algebraic_independence_only_relaxes() {
    // Without the clause set, the optimum cannot get worse (fewer
    // constraints), and at small N rank-checking restores validity.
    for n in 2..=3 {
        let full = solve_optimal(
            &EncodingProblem::full_sat(n, Objective::MajoranaWeight),
            &DescentConfig::default(),
        );
        let relaxed = solve_optimal(
            &EncodingProblem::new(n, Objective::MajoranaWeight),
            &DescentConfig::default(),
        );
        let wf = full.weight().unwrap();
        let wr = relaxed.weight().unwrap();
        assert!(wr <= wf, "n={n}: relaxed {wr} > full {wf}");
        // Rank-validated relaxed solutions are genuinely valid.
        let strings: Vec<PhasedString> = relaxed
            .best
            .unwrap()
            .strings
            .into_iter()
            .map(PhasedString::from)
            .collect();
        assert!(validate_strings(&strings).is_valid());
    }
}

#[test]
fn enumerated_optimal_encodings_are_valid_and_distinct() {
    let instance = EncodingProblem::full_sat(2, Objective::MajoranaWeight).build();
    let sols = enumerate_encodings(
        &instance,
        &EnumerateConfig {
            max_solutions: 40,
            weight_bound: Some(7),
            ..Default::default()
        },
    );
    assert!(sols.len() >= 4, "several optimal 2-mode encodings exist");
    let mut seen = std::collections::BTreeSet::new();
    for s in &sols {
        assert!(seen.insert(s.clone()), "duplicate encoding");
        let phased: Vec<PhasedString> = s.iter().cloned().map(PhasedString::from).collect();
        let report = validate_strings(&phased);
        assert!(report.is_valid());
        assert!(report.xy_pair_condition, "vacuum condition enforced");
    }
}

#[test]
fn ham_dependent_optimum_at_most_ham_independent_weight() {
    // For the structure = the 2N single-Majorana monomials, the two
    // objectives coincide.
    use fermihedral_repro::fermion::MajoranaMonomial;
    let n = 2;
    let singles: Vec<MajoranaMonomial> = (0..2 * n as u32)
        .map(|i| MajoranaMonomial::from_sorted(vec![i]))
        .collect();
    let dep = solve_optimal(
        &EncodingProblem::full_sat(n, Objective::HamiltonianWeight(singles)),
        &DescentConfig::default(),
    );
    let indep = solve_optimal(
        &EncodingProblem::full_sat(n, Objective::MajoranaWeight),
        &DescentConfig::default(),
    );
    assert_eq!(dep.weight(), indep.weight());
}
