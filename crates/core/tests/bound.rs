//! `fermihedral::bound` against brute force, its pinned floors and search
//! sizes, and its witnesses, in both of its modes.
//!
//! For `MajoranaWeight` the floors are the minimum total weight of `2N`
//! pairwise-anticommuting non-identity Pauli strings (the vacuum condition
//! relaxed). At N = 1…5 they equal the certified SAT optima, and at
//! N = 1…6 the vacuum-paired ternary tree's weight. For
//! `HamiltonianWeight` the floor is the exact optimum: brute force over
//! every ordered tuple at N ≤ 2, the benchmark's 455 golden optima at
//! N = 3, and the single-lane SAT certificate.

use encodings::validate::{
    algebraically_independent, all_anticommute, validate_strings, xy_pair_condition,
};
use encodings::weight::structure_weight;
use encodings::{Encoding, TernaryTreeEncoding};
use fermihedral::bound::{lightest_below, search};
use fermihedral::descent::{solve_optimal, DescentConfig};
use fermihedral::{fixtures, EncodingProblem, Objective};
use fermion::MajoranaMonomial;
use pauli::{PauliString, PhasedString};

fn phased(strings: &[PauliString]) -> Vec<PhasedString> {
    strings.iter().cloned().map(PhasedString::from).collect()
}

/// The `4^N − 1` non-identity strings on `n` qubits.
fn non_identity_strings(n: usize) -> Vec<PauliString> {
    (1u128..1 << (2 * n))
        .map(|bits| PauliString::from_masks(n, bits & ((1 << n) - 1), bits >> n))
        .collect()
}

/// Depth-first over every pairwise-anticommuting set that extends
/// `chosen` with members of `all[from..]`, each visited once: the least
/// total weight of those with `size` members.
fn visit(all: &[PauliString], from: usize, size: usize, chosen: &mut Vec<PauliString>) -> usize {
    if chosen.len() == size {
        return chosen.iter().map(PauliString::weight).sum();
    }
    let mut least = usize::MAX;
    for (i, candidate) in all.iter().enumerate().skip(from) {
        if chosen.iter().all(|c| c.anticommutes(candidate)) {
            chosen.push(candidate.clone());
            least = least.min(visit(all, i + 1, size, chosen));
            chosen.pop();
        }
    }
    least
}

#[test]
fn the_floor_is_the_brute_force_minimum_up_to_three_qubits() {
    for n in 1..=3 {
        let least = visit(&non_identity_strings(n), 0, 2 * n, &mut Vec::new());
        // Asked for anything lighter than a sure upper bound, the search
        // lands on the minimum; asked for anything lighter than the
        // minimum, it finds nothing.
        assert_eq!(lightest_below(n, usize::MAX).floor, least, "N={n}");
        let below = lightest_below(n, least);
        assert_eq!((below.witness, below.floor), (None, least), "N={n}");
    }
}

#[test]
fn floors_and_search_sizes_are_pinned() {
    // (N, floor, nodes proving nothing is lighter, nodes finding the
    // floor from one above it). The floors equal the ternary tree's
    // weight at every N here, so each tree is optimal.
    let pins = [
        (1, 2, 0, 2),
        (2, 6, 4, 6),
        (3, 11, 16, 34),
        (4, 16, 109, 204),
        (5, 22, 1_420, 1_568),
        (6, 29, 5_070, 6_436),
    ];
    for (n, floor, proof_nodes, find_nodes) in pins {
        let tree = phased(
            &(TernaryTreeEncoding::new(n).majoranas())
                .iter()
                .map(|m| m.string().clone())
                .collect::<Vec<_>>(),
        );
        let tree_weight: usize = tree.iter().map(PhasedString::weight).sum();
        assert_eq!(tree_weight, floor, "N={n}: the tree meets the floor");

        let proof = lightest_below(n, floor);
        assert_eq!(proof.witness, None, "N={n}");
        assert_eq!((proof.floor, proof.nodes), (floor, proof_nodes), "N={n}");
        let found = lightest_below(n, floor + 1);
        assert!(found.witness.is_some(), "N={n}");
        assert_eq!((found.floor, found.nodes), (floor, find_nodes), "N={n}");
    }
}

#[test]
fn a_witness_is_an_anticommuting_set_at_the_floor() {
    for (n, floor) in (1..=5).zip([2, 6, 11, 16, 22]) {
        let outcome = lightest_below(n, floor + 1);
        let witness = outcome.witness.expect("a set at the floor exists");
        assert_eq!(witness.len(), 2 * n, "N={n}");
        assert!(witness.iter().all(|s| s.num_qubits() == n), "N={n}");
        let witness = phased(&witness);
        assert!(all_anticommute(&witness), "N={n}: {witness:?}");
        assert!(algebraically_independent(&witness), "N={n}");
        let weight: usize = witness.iter().map(PhasedString::weight).sum();
        assert_eq!(weight, floor, "N={n}");
        assert_eq!(outcome.floor, floor, "N={n}");
    }
}

/// The problem `Σ γ_a γ_b …` over `monomials` at `n` modes, vacuum as asked.
fn hamiltonian(n: usize, monomials: &[&[u32]], vacuum: bool) -> EncodingProblem {
    let monomials = (monomials.iter())
        .map(|m| MajoranaMonomial::from_sorted(m.to_vec()))
        .collect();
    EncodingProblem::full_sat(n, Objective::HamiltonianWeight(monomials))
        .with_vacuum_condition(vacuum)
}

/// The Hamiltonian-dependent weight of `strings` under `problem`, when
/// they are an encoding of it.
fn checked_weight(problem: &EncodingProblem, strings: &[PauliString]) -> Option<usize> {
    let strings = phased(strings);
    let report = validate_strings(&strings);
    let valid = strings.len() == 2 * problem.num_modes()
        && report.anticommuting
        && report.algebraically_independent
        && (!problem.has_vacuum_condition() || report.xy_pair_condition);
    let Objective::HamiltonianWeight(monomials) = problem.objective() else {
        panic!("a Hamiltonian-dependent problem");
    };
    valid.then(|| structure_weight(&strings, monomials))
}

/// The search's optimum for `problem`, after checking its witness.
fn optimum(problem: &EncodingProblem) -> usize {
    let outcome = search(problem, usize::MAX);
    let witness = outcome.witness.expect("every problem has an encoding");
    assert_eq!(
        checked_weight(problem, &witness),
        Some(outcome.floor),
        "{problem:?}: the witness is an encoding at the floor"
    );
    outcome.floor
}

/// Every ordered tuple of `2n` pairwise-anticommuting strings, extending
/// `chosen`.
fn ordered_tuples(
    all: &[PauliString],
    size: usize,
    chosen: &mut Vec<PauliString>,
    out: &mut Vec<Vec<PauliString>>,
) {
    if chosen.len() == size {
        out.push(chosen.clone());
        return;
    }
    for candidate in all {
        if chosen.iter().all(|c| c.anticommutes(candidate)) {
            chosen.push(candidate.clone());
            ordered_tuples(all, size, chosen, out);
            chosen.pop();
        }
    }
}

#[test]
fn the_hamiltonian_floor_is_the_brute_force_minimum_up_to_two_modes() {
    for n in 1..=2 {
        let mut tuples = Vec::new();
        ordered_tuples(
            &non_identity_strings(n),
            2 * n,
            &mut Vec::new(),
            &mut tuples,
        );
        let majoranas = 2 * n as u32;
        let pairs: Vec<[u32; 2]> = (0..majoranas)
            .flat_map(|a| (a + 1..majoranas).map(move |b| [a, b]))
            .collect();
        for vacuum in [true, false] {
            let feasible: Vec<Vec<PhasedString>> = (tuples.iter())
                .map(|t| phased(t))
                .filter(|t| !vacuum || xy_pair_condition(t))
                .collect();
            for subset in 0u32..1 << pairs.len() {
                let chosen: Vec<&[u32]> = (pairs.iter().enumerate())
                    .filter(|(i, _)| subset >> i & 1 == 1)
                    .map(|(_, p)| &p[..])
                    .collect();
                let problem = hamiltonian(n, &chosen, vacuum);
                let Objective::HamiltonianWeight(monomials) = problem.objective() else {
                    unreachable!()
                };
                let least = (feasible.iter())
                    .map(|t| structure_weight(t, monomials))
                    .min()
                    .expect("an encoding exists");
                assert_eq!(optimum(&problem), least, "N={n} vacuum={vacuum} {chosen:?}");
                let below = search(&problem, least);
                assert_eq!((below.witness, below.floor), (None, least), "{chosen:?}");
            }
        }
    }
}

/// The 455 Hamiltonians of the benchmark's `serve_miss` workload — every
/// set of three distinct Majorana pairs at N = 3 — keyed as the golden
/// file keys them (`"01-02-03"`).
fn serve_miss_problems() -> Vec<(String, Vec<[u32; 2]>)> {
    let pairs: Vec<[u32; 2]> = (0..6u32)
        .flat_map(|a| (a + 1..6).map(move |b| [a, b]))
        .collect();
    let mut out = Vec::new();
    for i in 0..pairs.len() {
        for j in i + 1..pairs.len() {
            for k in j + 1..pairs.len() {
                let chosen = vec![pairs[i], pairs[j], pairs[k]];
                let key: Vec<String> = chosen.iter().map(|[a, b]| format!("{a}{b}")).collect();
                out.push((key.join("-"), chosen));
            }
        }
    }
    out
}

#[test]
fn the_hamiltonian_floor_is_every_serve_miss_optimum() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../ledger/expected.json");
    let text = std::fs::read_to_string(path).expect("the golden file is readable");
    let golden = jsonkit::parse(&text).expect("the golden file is JSON");
    let golden = golden
        .get("serve_miss_weights")
        .expect("serve_miss golden weights");
    let problems = serve_miss_problems();
    assert_eq!(problems.len(), 455);
    let mut relaxed_below = 0;
    for (key, pairs) in &problems {
        let expected = golden.get(key).and_then(|w| w.as_usize());
        let problem = EncodingProblem::full_sat(3, fixtures::hamiltonian(pairs));
        assert_eq!(Some(optimum(&problem)), expected, "{key}");
        // The mutation check: without the XY-pair condition the search
        // must land below the golden optimum somewhere, or this test
        // could not tell whether the condition is checked at all.
        let relaxed = optimum(&problem.with_vacuum_condition(false));
        assert!(
            Some(relaxed) <= expected,
            "{key}: relaxing cannot cost weight"
        );
        relaxed_below += usize::from(Some(relaxed) < expected);
    }
    assert_eq!(relaxed_below, 66, "the vacuum condition moves 66 optima");
}

/// (problem, optimum, nodes proving nothing is lighter, nodes finding the
/// optimum from one above it) of the Hamiltonian-dependent pins.
fn hamiltonian_pins() -> Vec<(&'static str, EncodingProblem, usize, u64, u64)> {
    vec![
        ("chain(2)", fixtures::chain(2), 4, 46, 46),
        ("chain(3)", fixtures::chain(3), 4, 678, 681),
        (
            "γ₀γ₁γ₂γ₃ + γ₂γ₃γ₄γ₅ + γ₀γ₅ + γ₁γ₄ + γ₀γ₃ at N=3",
            hamiltonian(
                3,
                &[&[0, 1, 2, 3], &[2, 3, 4, 5], &[0, 5], &[1, 4], &[0, 3]],
                true,
            ),
            7,
            6_345,
            8_046,
        ),
    ]
}

#[test]
fn hamiltonian_floors_and_search_sizes_are_pinned() {
    for (name, problem, floor, proof_nodes, find_nodes) in hamiltonian_pins() {
        let proof = search(&problem, floor);
        assert_eq!(proof.witness, None, "{name}");
        assert_eq!((proof.floor, proof.nodes), (floor, proof_nodes), "{name}");
        let found = search(&problem, floor + 1);
        let witness = found.witness.expect("an encoding at the floor");
        assert_eq!(checked_weight(&problem, &witness), Some(floor), "{name}");
        assert_eq!((found.floor, found.nodes), (floor, find_nodes), "{name}");
    }
}

#[test]
fn the_hamiltonian_floor_is_the_single_lane_certificate() {
    for (name, problem, floor, _, _) in hamiltonian_pins() {
        let outcome = solve_optimal(&problem, &DescentConfig::default());
        assert!(outcome.optimal_proved, "{name}");
        assert_eq!(outcome.weight(), Some(floor), "{name}");
        assert_eq!(optimum(&problem), floor, "{name}");
    }
}
