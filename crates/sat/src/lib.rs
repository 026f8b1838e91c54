//! A self-contained SAT stack: CDCL solver plus CNF construction toolkit.
//!
//! The Fermihedral paper outsources solving to Kissat and CNF conversion to
//! Z3's Tseitin pass. This crate replaces both:
//!
//! * [`Solver`] — a conflict-driven clause-learning solver with two-watched
//!   literals, first-UIP learning, EVSIDS branching, phase saving, Luby
//!   restarts, LBD-based learnt-clause reduction, and incremental solving
//!   under assumptions (the weight-descent loop of Algorithm 1 re-solves the
//!   same formula under shrinking cardinality assumptions).
//! * [`Cnf`] — a formula builder with Tseitin gates (AND/OR/XOR/equality),
//!   XOR chains for the paper's anticommutativity and algebraic-independence
//!   constraints, and clause/variable statistics (Table 3).
//! * [`card::Totalizer`] — unary cardinality encoding whose output literals
//!   can be assumed, giving incremental `sum ≤ k` bounds.
//! * [`dimacs`] — DIMACS CNF import/export, so instances can be handed to
//!   external solvers for cross-checking.
//!
//! # Example
//!
//! ```
//! use sat::{Cnf, Solver, SolveResult};
//!
//! let mut cnf = Cnf::new();
//! let a = cnf.new_var();
//! let b = cnf.new_var();
//! // (a ∨ b) ∧ (¬a ∨ b) — forces b.
//! cnf.add_clause([a.positive(), b.positive()]);
//! cnf.add_clause([a.negative(), b.positive()]);
//!
//! let mut solver = Solver::from_cnf(&cnf);
//! match solver.solve() {
//!     SolveResult::Sat(model) => assert!(model.value(b)),
//!     _ => unreachable!("formula is satisfiable"),
//! }
//! ```

mod arena;
mod bitset;
pub mod cancel;
pub mod card;
pub mod cnf;
pub mod dimacs;
mod heap;
pub mod restart;
pub mod shared;
pub mod solver;
pub mod types;
mod watch;

pub use cancel::CancelToken;
pub use card::Totalizer;
pub use cnf::{Clauses, Cnf};
pub use restart::{
    FixedRestarts, GeometricRestarts, LubyRestarts, RestartPolicy, RestartPolicyKind,
};
pub use shared::{
    ExchangeConfig, ExportLbd, LaneHandle, RemoteExchange, SharedClause, SharedContext,
};
pub use solver::{Model, SolveResult, Solver, SolverStats};
pub use types::{Lit, Var};
