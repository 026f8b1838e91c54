//! `fermihedral-ledger`: the layered performance ledger.
//!
//! Seven named workloads — three single-lane descents, CNF construction,
//! the portfolio race, and a compilation server under cache-hit and
//! cache-miss load — each reporting the same end-to-end metrics from an
//! untraced run and per-layer metrics from a traced one, with every
//! answer checked against an oracle that does not go through the engine.
//! `BENCHMARK.json` at the repository root is the contract this crate's
//! `ledger` binary meets; `README.md` beside this crate says why each
//! workload and metric exists and what the first run found.

pub mod compare;
pub mod gen;
pub mod oracle;
pub mod report;
pub mod run;
pub mod schema;
pub mod serve_load;
pub mod stats;
pub mod trace;
pub mod workloads;

use run::{run_sequential, RunResult, RunSpec};
use serve_load::{run_serve, ServeKind};
use workloads::{Construct, Descent, Race};

/// Runs the workload `spec` names, in this process.
///
/// # Panics
///
/// Panics on a workload name that is not in [`schema::WORKLOADS`] — specs
/// are built from that table.
pub fn run_workload(spec: &RunSpec) -> RunResult {
    match spec.workload.name {
        "certify_n4" => run_sequential(&Descent::certify_n4(), spec),
        "budget_n5_full" => run_sequential(&Descent::budget_n5_full(), spec),
        "anytime_n8_noai" => run_sequential(&Descent::anytime_n8_noai(), spec),
        "construct_n7_full" => run_sequential(&Construct::n7_full(spec.quick), spec),
        "race_n4" => run_sequential(&Race::n4(), spec),
        "serve_hit" => run_serve(ServeKind::Hit, spec),
        "serve_miss" => run_serve(ServeKind::Miss, spec),
        other => panic!("no workload named {other:?}"),
    }
}
