//! `fermihedral-engine`: the parallel portfolio compilation engine.
//!
//! The Fermihedral paper finds optimal Fermion-to-qubit encodings by a
//! single-threaded SAT descent that it terminates on wall-clock budgets at
//! scale (Section 4). This crate turns that loop into a *production
//! service core*:
//!
//! * [`compile`] races a **portfolio** of search lanes in worker threads —
//!   SAT weight-descent lanes diversified by seed, random branching, and
//!   restart schedule, and simulated-annealing pair assignment — against
//!   one shared incumbent ([`fermihedral::descent::SharedBound`]), which
//!   the classical constructions (ternary tree, Bravyi-Kitaev) open. Any
//!   lane's improvement immediately tightens every other lane's bound;
//!   the first UNSAT certificate proves the incumbent optimal and cancels
//!   the rest ([`sat::CancelToken`]), so wall clock tracks the fastest
//!   lane. A Hamiltonian-independent race at N ≤ 5 and a Hamiltonian-
//!   dependent one at N ≤ 3 are not run at all: a branch and bound over
//!   anticommuting strings ([`fermihedral::bound`]) proves the opening,
//!   or its own checked witness, optimal first. Either proof is a
//!   [`Floor`], and an encoding is optimal exactly when its floor meets
//!   its weight.
//! * Descent lanes additionally exchange **learnt clauses** through a
//!   [`sat::SharedContext`]: units, binaries, and low-LBD clauses one lane
//!   paid conflicts for prune the same subtrees in every other lane.
//!   Per-lane import/export/promotion counters land in the
//!   [`report::EngineReport`].
//! * [`cache::SolutionCache`] persists solved encodings content-addressed
//!   by a SHA-256 [`fingerprint`](fingerprint::fingerprint) of the problem
//!   (modes, constraints, objective, Hamiltonian-term multiset). Repeat
//!   compilations of the same model are served in microseconds; budget-
//!   terminated best-so-far entries warm-start the next attempt; and a
//!   cross-size probe ([`cache::SizeIndex`]: each smaller member of the
//!   problem's family has a computed fingerprint, and is cached when its
//!   entry file exists) transfers cached *smaller* optima into larger
//!   searches by lifting them one mode at a time
//!   (`encodings::embed`) — a feasible opening incumbent plus solver
//!   phase hints, so repeat traffic on growing systems stops paying the
//!   full SAT price.
//! * [`report::EngineReport`] records a per-worker timeline of every run
//!   (who improved what, when; who proved the floor; who got cancelled),
//!   serializable to JSON for the benchmark harness.
//!
//! # Example
//!
//! ```
//! use engine::{compile, EngineConfig};
//! use fermihedral::{EncodingProblem, Objective};
//!
//! let problem = EncodingProblem::full_sat(2, Objective::MajoranaWeight);
//! let outcome = compile(&problem, &EngineConfig::default());
//! assert_eq!(outcome.weight(), Some(6)); // same optimum as solve_optimal
//! assert!(outcome.optimal_proved);
//! println!("winner: {:?}", outcome.report.winner);
//! ```

pub mod cache;
pub mod fingerprint;
pub mod floor;
pub mod portfolio;
pub mod problemio;
pub mod report;
pub mod service;

pub use cache::{CacheCounters, CacheEntry, SizeIndex, SolutionCache};
pub use fingerprint::{fingerprint, fingerprint_at, size_key, Fingerprint};
pub use floor::{Floor, FloorSource};
pub use portfolio::{
    check_encoding, compile, compile_bridged, compile_cached, compile_with, cross_size_warm_start,
    default_portfolio, measure_weight, partition_strategies, race_lanes, EngineConfig,
    EngineOutcome, RaceBridge, RaceInput, RaceOutcome, Strategy,
};
pub use problemio::{problem_from_json, problem_to_json, strings_from_json, strings_to_json};
pub use report::{
    CacheStatus, EngineReport, EventKind, ShardReport, WarmStartReport, WorkerEvent, WorkerReport,
};
pub use service::Engine;
