//! The qubit-order block of the search formula (`fermihedral::symmetry`)
//! against the paper's formula, which stays the reference implementation:
//! same optima with and without it, a canonical form that is one per
//! orbit and that the block admits, and no block outside exact
//! `MajoranaWeight` problems.

use encodings::validate::validate_strings;
use encodings::weight::{majorana_weight, structure_weight};
use encodings::{Encoding, LinearEncoding, TernaryTreeEncoding};
use fermihedral::descent::{solve_optimal_instance, DescentConfig};
use fermihedral::symmetry::{canonical_qubit_order, qubit_order_block};
use fermihedral::{EncodingInstance, EncodingProblem, Objective, VarLayout};
use fermion::MajoranaMonomial;
use pauli::encoding::op_to_bits;
use pauli::{PauliString, PhasedString};
use proptest::prelude::*;
use sat::{Lit, SolveResult, Solver};
use std::sync::OnceLock;

/// Algorithm 1 with nothing added — no hint, bounds from the totalizer's
/// width down to UNSAT — on whatever formula `solver` was loaded with.
fn plain_descent(instance: &EncodingInstance, mut solver: Solver) -> usize {
    let mut bound = instance.weight_upper_bound() + 1;
    loop {
        let assumptions: Vec<Lit> = instance
            .assume_weight_less_than(bound)
            .into_iter()
            .collect();
        match solver.solve_with_assumptions(&assumptions) {
            SolveResult::Sat(model) => {
                let weight = instance.measure_weight(&instance.decode(&model));
                assert!(weight < bound);
                bound = weight;
            }
            SolveResult::Unsat => return bound,
            other => panic!("no budget configured, got {other:?}"),
        }
    }
}

/// The paper's formula is the reference implementation.
fn reference_optimum(instance: &EncodingInstance) -> usize {
    plain_descent(instance, instance.solver())
}

fn assert_same_optimum(problem: &EncodingProblem, label: &str) {
    let instance = problem.build();
    assert!(
        instance.orders_qubits() || problem.num_modes() == 1,
        "{label}"
    );
    let outcome = solve_optimal_instance(&instance, &DescentConfig::default());
    assert!(outcome.optimal_proved, "{label}: no certificate");
    assert_eq!(
        outcome.weight(),
        Some(reference_optimum(&instance)),
        "{label}: the search formula and the paper formula disagree"
    );
}

#[test]
fn search_formula_optimum_equals_paper_formula_optimum() {
    for modes in 1..=4 {
        for vacuum in [true, false] {
            let problem = EncodingProblem::full_sat(modes, Objective::MajoranaWeight)
                .with_vacuum_condition(vacuum);
            assert_same_optimum(&problem, &format!("N={modes} vacuum={vacuum}"));
        }
    }
}

/// `HamiltonianWeight` instances carry no block (measured slower at
/// `N = 4`, see the module docs), but the soundness argument covers them:
/// the block, added by hand, leaves their optimum where it was.
#[test]
fn block_is_sound_for_hamiltonian_objectives_and_not_applied_to_them() {
    // Three distinct Majorana pairs M_a·M_b over the six strings of N=3,
    // drawn from a fixed xorshift stream.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move |below: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % below) as u32
    };
    for case in 0..5 {
        let mut pairs = std::collections::BTreeSet::new();
        while pairs.len() < 3 {
            let (a, b) = (next(6), next(6));
            if a != b {
                pairs.insert((a.min(b), a.max(b)));
            }
        }
        let monomials: Vec<MajoranaMonomial> = pairs
            .iter()
            .map(|&(a, b)| MajoranaMonomial::from_sorted(vec![a, b]))
            .collect();
        for vacuum in [true, false] {
            let label = format!("case {case} {pairs:?} vacuum={vacuum}");
            let instance =
                EncodingProblem::full_sat(3, Objective::HamiltonianWeight(monomials.clone()))
                    .with_vacuum_condition(vacuum)
                    .build();
            assert!(!instance.orders_qubits(), "{label}");
            assert_eq!(instance.num_search_vars(), instance.cnf().num_vars());
            let mut ordered = instance.solver();
            let block = qubit_order_block(instance.layout(), instance.cnf().num_vars());
            for clause in block.clauses() {
                ordered.add_clause(clause.iter().copied());
            }
            assert_eq!(
                plain_descent(&instance, ordered),
                reference_optimum(&instance),
                "{label}: the block moved the optimum"
            );
        }
    }
}

#[test]
fn one_default_lane_certifies_five_modes_at_weight_22() {
    let problem = EncodingProblem::full_sat(5, Objective::MajoranaWeight);
    let outcome = solve_optimal_instance(&problem.build(), &DescentConfig::default());
    assert_eq!(outcome.weight(), Some(22));
    assert!(outcome.optimal_proved);
    assert_eq!(outcome.proved_floor, Some(22));
    let best = outcome.best.unwrap();
    assert!(validate_strings(&phased(&best.strings)).is_valid());
    assert_eq!(
        canonical_qubit_order(&best.strings),
        best.strings,
        "a model of the search formula has sorted qubit columns"
    );
}

#[test]
fn non_exact_instances_have_no_block() {
    for modes in [1usize, 3, 8] {
        for vacuum in [true, false] {
            let instance = EncodingProblem::new(modes, Objective::MajoranaWeight)
                .with_vacuum_condition(vacuum)
                .build();
            assert!(!instance.orders_qubits());
            assert_eq!(instance.num_search_vars(), instance.cnf().num_vars());
            let (search, paper) = (instance.search_solver(), instance.solver());
            assert_eq!(search.num_vars(), paper.num_vars());
            assert_eq!(search.num_clauses(), paper.num_clauses());
        }
    }
    // And exact ones do, numbered after the paper formula's variables.
    let exact = EncodingProblem::full_sat(4, Objective::MajoranaWeight).build();
    assert!(exact.orders_qubits());
    assert_eq!(exact.num_search_vars(), exact.cnf().num_vars() + 45);
    assert_eq!(exact.search_solver().num_vars(), exact.num_search_vars());
    assert_eq!(exact.solver().num_vars(), exact.cnf().num_vars());
}

fn phased(strings: &[PauliString]) -> Vec<PhasedString> {
    strings.iter().cloned().map(PhasedString::from).collect()
}

fn plain(strings: Vec<PhasedString>) -> Vec<PauliString> {
    strings.iter().map(|p| p.string().clone()).collect()
}

/// Jordan-Wigner, Bravyi-Kitaev, parity, ternary tree and the SAT optimum
/// (vacuum on and off), each at N = 2, 3, 4.
fn encodings_under_test() -> &'static [Vec<PauliString>] {
    static ALL: OnceLock<Vec<Vec<PauliString>>> = OnceLock::new();
    ALL.get_or_init(|| {
        let mut all = Vec::new();
        for n in 2..=4 {
            all.push(plain(LinearEncoding::jordan_wigner(n).majoranas()));
            all.push(plain(LinearEncoding::bravyi_kitaev(n).majoranas()));
            all.push(plain(LinearEncoding::parity(n).majoranas()));
            all.push(plain(TernaryTreeEncoding::new(n).majoranas()));
            for vacuum in [true, false] {
                let problem = EncodingProblem::full_sat(n, Objective::MajoranaWeight)
                    .with_vacuum_condition(vacuum);
                let outcome = solve_optimal_instance(&problem.build(), &DescentConfig::default());
                all.push(outcome.best.expect("N ≤ 4 certifies").strings);
            }
        }
        all
    })
}

/// `strings` with qubit `q` moved to position `perm[q]`.
fn permute_qubits(strings: &[PauliString], perm: &[usize]) -> Vec<PauliString> {
    strings
        .iter()
        .map(|s| {
            let mut out = PauliString::identity(s.num_qubits());
            for (q, &to) in perm.iter().enumerate() {
                out.set(to, s.get(q));
            }
            out
        })
        .collect()
}

/// Whether the block, with every primary fixed to `strings`, has a model.
fn block_admits(strings: &[PauliString]) -> bool {
    let layout = VarLayout::new(strings[0].num_qubits());
    let mut solver = Solver::from_cnf(&qubit_order_block(&layout, layout.num_primary_vars()));
    for (s, string) in strings.iter().enumerate() {
        for q in 0..layout.num_modes() {
            let (b1, b2) = op_to_bits(string.get(q));
            solver.add_clause([layout.b1(s, q).lit(b1)]);
            solver.add_clause([layout.b2(s, q).lit(b2)]);
        }
    }
    matches!(solver.solve(), SolveResult::Sat(_))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn canonical_order_is_one_per_orbit_and_admitted_by_the_block(
        which in 0usize..18,
        keys in proptest::collection::vec(any::<u32>(), 4),
    ) {
        let strings = &encodings_under_test()[which];
        let n = strings[0].num_qubits();
        // A uniformly random permutation: the ranks of n random keys.
        let mut perm: Vec<usize> = (0..n).collect();
        perm.sort_by_key(|&q| keys[q]);
        let permuted = permute_qubits(strings, &perm);
        let canonical = canonical_qubit_order(&permuted);

        prop_assert_eq!(&canonical, &canonical_qubit_order(strings), "perm {:?}", perm);
        prop_assert_eq!(&canonical, &canonical_qubit_order(&canonical));

        // Validity (all three conditions, whatever they were) and both
        // weights are those of the original.
        prop_assert_eq!(
            validate_strings(&phased(&canonical)),
            validate_strings(&phased(strings))
        );
        prop_assert_eq!(
            majorana_weight(&phased(&canonical)),
            majorana_weight(&phased(strings))
        );
        let monomials: Vec<MajoranaMonomial> = [vec![0, 1], vec![1, 2], vec![0, 1, 2, 3]]
            .into_iter()
            .map(MajoranaMonomial::from_sorted)
            .collect();
        prop_assert_eq!(
            structure_weight(&phased(&canonical), &monomials),
            structure_weight(&phased(strings), &monomials)
        );

        // The block admits the canonical member and nothing else of the
        // orbit.
        prop_assert!(block_admits(&canonical));
        prop_assert_eq!(block_admits(&permuted), permuted == canonical);
    }
}
