//! Named Hamiltonian-dependent problems whose races run.
//!
//! The engine decides a race before any lane starts when [`crate::bound`]
//! can prove it: a Hamiltonian-independent one at `N ≤ 5` (the opening
//! ternary tree is optimal) and a Hamiltonian-dependent one at `N ≤ 3`
//! (the exact search over ordered assignments). Tests, examples and docs
//! that need the lanes themselves to race — clause sharing, cancellation,
//! shards killed mid-race — use these full-SAT `HamiltonianWeight`
//! problems instead, by name, at `N ≥ 4`: [`chain`]`(4)`, [`short_race`]
//! and [`long_race`]. At `N ≤ 3`, [`chain`] is the smallest problem the
//! search decides. Times are the default in-process race on a 2-core VM,
//! release build.
//!
//! # Example
//!
//! ```
//! use fermihedral::fixtures;
//!
//! let problem = fixtures::long_race();
//! assert_eq!(problem.num_modes(), 5);
//! assert!(problem.has_vacuum_condition());
//! ```

use crate::{EncodingProblem, Objective};
use fermion::MajoranaMonomial;

/// The objective `Σ γ_a γ_b` over the given Majorana pairs.
pub fn hamiltonian(terms: &[[u32; 2]]) -> Objective {
    let monomials = terms
        .iter()
        .map(|t| MajoranaMonomial::from_sorted(t.to_vec()));
    Objective::HamiltonianWeight(monomials.collect())
}

/// γ₀γ₁ + γ₂γ₃ + γ₀γ₃ on `n ≥ 2` modes: optimum 4 at `N = 2 … 4`,
/// certified in milliseconds; at `N ≤ 3` the engine decides it at the
/// open, so only `chain(4)` races lanes.
pub fn chain(n: usize) -> EncodingProblem {
    EncodingProblem::full_sat(n, hamiltonian(&[[0, 1], [2, 3], [0, 3]]))
}

/// The [`long_race`] without γ₂γ₅ — γ₀γ₁ + γ₂γ₃ + γ₄γ₅ + γ₆γ₇ + γ₈γ₉ +
/// γ₀γ₃ + γ₄γ₇ at N = 5: optimum 9, certified in 0.1–0.35 s, long enough
/// for lanes to queue and trade clauses.
pub fn short_race() -> EncodingProblem {
    let terms = [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9], [0, 3], [4, 7]];
    EncodingProblem::full_sat(5, hamiltonian(&terms))
}

/// γ₀γ₁ + γ₂γ₃ + γ₄γ₅ + γ₆γ₇ + γ₈γ₉ + γ₀γ₃ + γ₂γ₅ + γ₄γ₇ at N = 5:
/// optimum 11, certified in 0.8–1.7 s, so a worker killed hundreds of
/// milliseconds in dies mid-race. As a `POST /v1/compile` body:
///
/// ```text
/// {"modes": 5, "algebraic_independence": true,
///  "objective": {"hamiltonian": [[0,1],[2,3],[4,5],[6,7],[8,9],[0,3],[2,5],[4,7]]}}
/// ```
pub fn long_race() -> EncodingProblem {
    let terms = [
        [0, 1],
        [2, 3],
        [4, 5],
        [6, 7],
        [8, 9],
        [0, 3],
        [2, 5],
        [4, 7],
    ];
    EncodingProblem::full_sat(5, hamiltonian(&terms))
}
