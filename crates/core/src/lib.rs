//! Fermihedral: SAT-optimal Fermion-to-qubit encoding.
//!
//! This crate is the paper's contribution. It compiles the constraints and
//! objectives of Fermion-to-qubit encoding into Boolean satisfiability:
//!
//! * [`layout`] — the variable layout: two Boolean variables per Pauli
//!   operator per Majorana string (paper Eq. 7).
//! * [`instance`] — constraint generation (Sections 3.3–3.7): pairwise
//!   anticommutativity as XOR chains, algebraic independence over the
//!   subset lattice with shared prefixes, the vacuum-state XY-pair
//!   condition, and either the Hamiltonian-independent or the
//!   Hamiltonian-dependent Pauli-weight objective through a totalizer;
//!   and the *search* formula Algorithm 1 solves, which leaves the
//!   independence family out because anticommutation implies it.
//! * [`bound`] — a second floor with no CNF: branch and bound over `2N`
//!   pairwise-anticommuting Pauli strings — unordered sets for the
//!   Hamiltonian-independent problem with the vacuum condition relaxed,
//!   ordered assignments (exact, vacuum condition included) for the
//!   Hamiltonian-dependent one.
//! * [`symmetry`] — the qubit-order lex-leader block that the search
//!   formula of `MajoranaWeight` instances carries, its soundness
//!   argument, and the canonical form of warm-start hints.
//! * [`descent`] — Algorithm 1: iteratively tightening the weight bound via
//!   solver assumptions until UNSAT proves optimality (or a budget stops
//!   the search with the best-so-far encoding).
//! * [`enumerate`] — enumerating distinct optimal solutions with blocking
//!   clauses (used by the paper's Figure 4 independence study).
//! * [`fixtures`] — named Hamiltonian-dependent problems whose races the
//!   bound does not decide at `N ≥ 4`, for tests, examples and docs.
//! * [`anneal`] — Algorithm 2: simulated-annealing assignment of Majorana
//!   pairs to modes, replacing the exponential Hamiltonian-dependent clause
//!   set at scale (Section 4.2).
//!
//! # Example: the optimal 2-mode encoding
//!
//! ```
//! use fermihedral::{EncodingProblem, Objective};
//! use fermihedral::descent::{solve_optimal, DescentConfig};
//!
//! let problem = EncodingProblem::new(2, Objective::MajoranaWeight)
//!     .with_algebraic_independence(true)
//!     .with_vacuum_condition(true);
//! let outcome = solve_optimal(&problem, &DescentConfig::default());
//! let best = outcome.best.expect("2 modes is solvable instantly");
//! assert_eq!(best.weight, 6); // N=2 optimum equals Jordan-Wigner's 6
//! assert!(outcome.optimal_proved);
//! ```

pub mod anneal;
pub mod bound;
pub mod descent;
pub mod enumerate;
pub mod fixtures;
pub mod instance;
pub mod layout;
pub mod symmetry;

pub use anneal::{anneal_pairing, AnnealConfig, AnnealOutcome};
pub use descent::{solve_optimal, DescentConfig, DescentOutcome};
pub use instance::{
    EncodingInstance, EncodingProblem, InstanceStats, Objective, SearchFormula, MAX_FULL_SAT_MODES,
};
pub use layout::VarLayout;
