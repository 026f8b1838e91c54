//! `fermihedral::bound` against brute force, its pinned floors and search
//! sizes, and its witnesses.
//!
//! The floors are the minimum total weight of `2N` pairwise-anticommuting
//! non-identity Pauli strings (the Hamiltonian-independent problem with
//! the vacuum condition relaxed). At N = 1…5 they equal the certified SAT
//! optima, and at N = 1…6 the vacuum-paired ternary tree's weight.

use encodings::validate::{algebraically_independent, all_anticommute};
use encodings::{Encoding, TernaryTreeEncoding};
use fermihedral::bound::lightest_below;
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
