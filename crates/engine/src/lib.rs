//! `fermihedral-engine`: the parallel portfolio compilation engine.
//!
//! The Fermihedral paper finds optimal Fermion-to-qubit encodings by a
//! single-threaded SAT descent that it terminates on wall-clock budgets at
//! scale (Section 4). This crate turns that loop into a *production
//! service core*:
//!
//! * [`compile`] races a **portfolio** of strategies in worker threads —
//!   SAT weight-descent lanes diversified by seed, random branching, and
//!   restart schedule, simulated-annealing pair assignment, and classical
//!   baselines — against one shared incumbent
//!   ([`fermihedral::descent::SharedBound`]). Any lane's improvement
//!   immediately tightens every other lane's bound; the first UNSAT
//!   certificate proves the incumbent optimal and cancels the rest
//!   ([`sat::CancelToken`]), so wall clock tracks the fastest lane.
//! * Descent lanes additionally exchange **learnt clauses** through a
//!   [`sat::SharedContext`]: units, binaries, and low-LBD clauses one lane
//!   paid conflicts for prune the same subtrees in every other lane.
//!   Toggleable via [`ClauseSharing`]; per-lane import/export/promotion
//!   counters land in the [`report::EngineReport`].
//! * [`cache::SolutionCache`] persists solved encodings content-addressed
//!   by a SHA-256 [`fingerprint`](fingerprint::fingerprint) of the problem
//!   (modes, constraints, objective, Hamiltonian-term multiset). Repeat
//!   compilations of the same model are served in microseconds; budget-
//!   terminated best-so-far entries warm-start the next attempt; and a
//!   cross-size index ([`cache::SizeIndex`]) transfers cached *smaller*
//!   optima into larger searches by lifting them one mode at a time
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
pub mod portfolio;
pub mod problemio;
pub mod report;
pub mod service;

/// The workspace-shared JSON module (tree, writer, hardened parser),
/// re-exported under its historical `engine::json` path.
pub use jsonkit as json;

pub use cache::{CacheCounters, CacheEntry, SizeIndex, SolutionCache};
pub use fingerprint::{fingerprint, size_key, Fingerprint};
pub use portfolio::{
    check_encoding, compile, compile_bridged, compile_cached, compile_with, cross_size_warm_start,
    default_portfolio, measure_weight, partition_strategies, race_lanes, BaselineKind,
    ClauseSharing, EngineConfig, EngineOutcome, RaceBridge, RaceInput, RaceOutcome, Strategy,
};
pub use problemio::{problem_from_json, problem_to_json, strings_from_json, strings_to_json};
pub use report::{
    CacheStatus, EngineReport, EventKind, ShardReport, WarmStartReport, WorkerEvent, WorkerReport,
};
pub use service::Engine;
