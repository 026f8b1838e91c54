//! The search formula (the paper's without its §3.4 family, plus the
//! qubit-order block of `fermihedral::symmetry` on exact `MajoranaWeight`
//! instances) against the paper's formula, which stays the reference
//! implementation: same optima from both, exact counts pinned, a canonical
//! form that is one per orbit and that the block admits, and one formula
//! only where the problem states no independence.

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
        instance.search().num_vars() < instance.cnf().num_vars(),
        "{label}: the search formula still carries the independence clauses"
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

/// Distinct Majorana pairs `M_a·M_b` over the `2N` strings, drawn from a
/// fixed xorshift stream: `cases` problems of `pairs` monomials each.
fn seeded_pair_structures(modes: usize, pairs: usize, cases: usize) -> Vec<Vec<MajoranaMonomial>> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let strings = 2 * modes as u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % strings) as u32
    };
    (0..cases)
        .map(|_| {
            let mut chosen = std::collections::BTreeSet::new();
            while chosen.len() < pairs {
                let (a, b) = (next(), next());
                if a != b {
                    chosen.insert((a.min(b), a.max(b)));
                }
            }
            chosen
                .iter()
                .map(|&(a, b)| MajoranaMonomial::from_sorted(vec![a, b]))
                .collect()
        })
        .collect()
}

/// Exact `HamiltonianWeight` instances are searched without the §3.4
/// family and without the block (measured slower at `N = 4`, see the
/// module docs); the paper formula agrees on every optimum.
#[test]
fn hamiltonian_search_formula_optimum_equals_paper_formula_optimum() {
    for (modes, pairs, cases) in [(3, 3, 5), (4, 2, 2)] {
        for monomials in seeded_pair_structures(modes, pairs, cases) {
            for vacuum in [true, false] {
                let label = format!("N={modes} {monomials:?} vacuum={vacuum}");
                let objective = Objective::HamiltonianWeight(monomials.clone());
                let problem =
                    EncodingProblem::full_sat(modes, objective).with_vacuum_condition(vacuum);
                assert_same_optimum(&problem, &label);
            }
        }
    }
}

/// `HamiltonianWeight` instances carry no block, but its soundness
/// argument covers them: added by hand to the paper formula, it leaves the
/// optimum where it was.
#[test]
fn block_is_sound_for_hamiltonian_objectives_and_not_applied_to_them() {
    for monomials in seeded_pair_structures(3, 3, 5) {
        for vacuum in [true, false] {
            let label = format!("{monomials:?} vacuum={vacuum}");
            let instance =
                EncodingProblem::full_sat(3, Objective::HamiltonianWeight(monomials.clone()))
                    .with_vacuum_condition(vacuum)
                    .build();
            assert!(!instance.search().has_order_block(), "{label}");
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

/// One default lane to the certificate is bit-reproducible; these are the
/// counts the README, the ROADMAP and the ledger's `certify_n4` quote (the
/// `N = 5` pair is pinned by the next test).
#[test]
fn default_lane_counts_are_pinned_at_four_modes() {
    let problem = EncodingProblem::full_sat(4, Objective::MajoranaWeight);
    let outcome = solve_optimal_instance(&problem.build(), &DescentConfig::default());
    assert_eq!(outcome.weight(), Some(16));
    assert!(outcome.optimal_proved);
    let stats = outcome.solver_stats;
    assert_eq!((stats.conflicts, stats.propagations), (1_219, 166_428));
}

#[test]
fn one_default_lane_certifies_five_modes_at_weight_22() {
    let problem = EncodingProblem::full_sat(5, Objective::MajoranaWeight);
    let outcome = solve_optimal_instance(&problem.build(), &DescentConfig::default());
    assert_eq!(outcome.weight(), Some(22));
    assert!(outcome.optimal_proved);
    assert_eq!(outcome.proved_floor, Some(22));
    let stats = outcome.solver_stats;
    assert_eq!((stats.conflicts, stats.propagations), (56_005, 12_129_380));
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
            let search = instance.search();
            assert!(!search.has_order_block());
            assert_eq!(search.num_vars(), instance.cnf().num_vars());
            let (searched, paper) = (search.solver(false), instance.solver());
            assert_eq!(searched.num_vars(), paper.num_vars());
            assert_eq!(searched.num_clauses(), paper.num_clauses());
            for w in 1..=instance.weight_upper_bound() + 1 {
                assert_eq!(
                    search.assume_weight_less_than(w),
                    instance.assume_weight_less_than(w)
                );
            }
        }
    }
    // An exact instance's search formula is the size of the approximate
    // instance's paper formula, plus the block under `MajoranaWeight`.
    let exact = EncodingProblem::full_sat(4, Objective::MajoranaWeight).build();
    let approximate = EncodingProblem::new(4, Objective::MajoranaWeight).build();
    let search = exact.search();
    assert!(search.has_order_block());
    assert_eq!(search.num_vars(), approximate.cnf().num_vars() + 45);
    assert_eq!(search.solver(true).num_vars(), search.num_vars());
    let unordered = search.solver(false);
    assert_eq!(unordered.num_vars(), approximate.cnf().num_vars());
    assert_eq!(unordered.num_clauses(), approximate.solver().num_clauses());
    assert_ne!(
        search.assume_weight_less_than(16),
        exact.assume_weight_less_than(16),
        "the two totalizers sit at different variable numbers"
    );
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
