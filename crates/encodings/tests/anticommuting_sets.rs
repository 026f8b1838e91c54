//! The lemma the search formula rests its size on (`fermihedral::instance`
//! module docs): **an even number of pairwise-anticommuting Pauli strings
//! is GF(2)-independent** — so the `2N` Majorana strings of an encoding
//! are independent as soon as they anticommute.
//!
//! Exhaustive at `N ≤ 3`, sampled at `N = 4 … 8`, and two controls that
//! show [`algebraically_independent`] is not vacuous on anticommuting
//! sets: every `2N + 1` of them are dependent, and so is the odd triple
//! `X, Y, Z`.

use encodings::validate::{algebraically_independent, all_anticommute};
use encodings::{Encoding, LinearEncoding};
use pauli::{PauliString, PhasedString};
use proptest::prelude::*;

fn phased(strings: &[PauliString]) -> Vec<PhasedString> {
    strings.iter().cloned().map(PhasedString::from).collect()
}

/// The `4^N − 1` non-identity strings on `n` qubits.
fn non_identity_strings(n: usize) -> Vec<PauliString> {
    (1u128..1 << (2 * n))
        .map(|bits| PauliString::from_masks(n, bits & ((1 << n) - 1), bits >> n))
        .collect()
}

/// Depth-first over the pairwise-anticommuting sets that extend `chosen`
/// with members of `all[from..]` (so each set is visited once, in
/// increasing order): counts those of `size` members, asserts each of them
/// independent and each one-larger set dependent.
fn visit(
    all: &[PauliString],
    from: usize,
    size: usize,
    chosen: &mut Vec<PauliString>,
    found: &mut [usize; 2],
) {
    if chosen.len() == size {
        found[0] += 1;
        assert!(algebraically_independent(&phased(chosen)), "{chosen:?}");
    } else if chosen.len() == size + 1 {
        found[1] += 1;
        assert!(!algebraically_independent(&phased(chosen)), "{chosen:?}");
        return;
    }
    for (i, candidate) in all.iter().enumerate().skip(from) {
        if chosen.iter().all(|c| c.anticommutes(candidate)) {
            chosen.push(candidate.clone());
            visit(all, i + 1, size, chosen, found);
            chosen.pop();
        }
    }
}

#[test]
fn every_anticommuting_2n_set_is_independent_up_to_three_qubits() {
    // Ordered tuples = sets × (2N)!; independence does not see the order.
    for (n, ordered_tuples, orderings) in [(1, 6, 2), (2, 720, 24), (3, 1_451_520, 720)] {
        let mut found = [0, 0];
        visit(
            &non_identity_strings(n),
            0,
            2 * n,
            &mut Vec::new(),
            &mut found,
        );
        assert_eq!(found[0] * orderings, ordered_tuples, "N={n}");
        assert!(found[1] > 0, "N={n}: the 2N+1 control never ran");
    }
}

/// A seeded stream of uniformly random strings on `n` qubits.
fn random_strings(n: usize, seed: u64) -> impl FnMut() -> PauliString {
    let mut state = seed | 1;
    move || {
        // xorshift64; the low 2n bits (n ≤ 8) are the two masks.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let bits = (state >> 20) as u128 & ((1 << (2 * n)) - 1);
        PauliString::from_masks(n, bits & ((1 << n) - 1), bits >> n)
    }
}

/// `2N` pairwise-anticommuting strings by greedy random extension:
/// rejection-sample a string that anticommutes with all chosen so far. An
/// odd prefix that is dependent has no extension (its product commutes
/// with whatever anticommutes with every member), so such a draw is
/// discarded too.
fn random_anticommuting_set(n: usize, seed: u64) -> Vec<PauliString> {
    let mut draw = random_strings(n, seed);
    let mut chosen: Vec<PauliString> = Vec::with_capacity(2 * n);
    let mut attempts = 0u32;
    while chosen.len() < 2 * n {
        attempts += 1;
        assert!(attempts < 1 << 26, "N={n}: no extension of {chosen:?}");
        let candidate = draw();
        if !chosen.iter().all(|c| c.anticommutes(&candidate)) {
            continue;
        }
        chosen.push(candidate);
        if chosen.len() % 2 == 1 && !algebraically_independent(&phased(&chosen)) {
            chosen.pop();
        }
    }
    chosen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]
    #[test]
    fn random_anticommuting_2n_sets_are_independent(n in 4usize..9, seed in any::<u64>()) {
        let strings = random_anticommuting_set(n, seed);
        prop_assert_eq!(strings.len(), 2 * n);
        prop_assert!(all_anticommute(&phased(&strings)));
        prop_assert!(algebraically_independent(&phased(&strings)), "{:?}", strings);
    }
}

#[test]
fn an_anticommuting_set_of_2n_plus_one_is_dependent() {
    for n in 1..=8 {
        // Jordan-Wigner and the product of its strings, which anticommutes
        // with each of them (it meets 2N − 1 anticommuting factors).
        let mut strings: Vec<PauliString> = LinearEncoding::jordan_wigner(n)
            .majoranas()
            .iter()
            .map(|p| p.string().clone())
            .collect();
        assert!(algebraically_independent(&phased(&strings)), "N={n}");
        let product = strings
            .iter()
            .fold(PauliString::identity(n), |acc, s| acc.mul_unphased(s));
        strings.push(product);
        assert!(all_anticommute(&phased(&strings)), "N={n}");
        assert!(!algebraically_independent(&phased(&strings)), "N={n}");
    }
}

#[test]
fn an_odd_anticommuting_set_can_be_dependent() {
    for n in 1..=3 {
        let triple: Vec<PauliString> = [pauli::Pauli::X, pauli::Pauli::Y, pauli::Pauli::Z]
            .into_iter()
            .map(|op| PauliString::single(n, 0, op))
            .collect();
        assert!(all_anticommute(&phased(&triple)));
        assert!(!algebraically_independent(&phased(&triple)));
    }
}
