//! Multi-process sharded compilation: race the default portfolio across
//! two `fermihedral-shard` worker processes bridged by the coordinator's
//! clause/bound protocol.
//!
//! The Hamiltonian-independent N=4 problem never reaches a worker: the
//! engine's branch and bound proves the opening ternary tree optimal
//! before the race, so it reports no shards. `fixtures::long_race`, a
//! Hamiltonian-dependent N=5 problem, races across both workers.
//!
//! Run with: `cargo run --release --example sharded_compile`
//! (build the worker first: `cargo build --release -p fermihedral-shard`)

use fermihedral_repro::engine::EngineConfig;
use fermihedral_repro::fermihedral::{fixtures, EncodingProblem, Objective};
use fermihedral_repro::shard::compile_sharded;
use std::time::{Duration, Instant};

fn main() {
    let config = EngineConfig {
        shards: 2,
        total_timeout: Some(Duration::from_secs(120)),
        ..EngineConfig::default()
    };

    let started = Instant::now();
    let decided = compile_sharded(
        &EncodingProblem::full_sat(4, Objective::MajoranaWeight),
        &config,
    );
    println!(
        "Hamiltonian-independent N=4: weight {:?}, optimal {}, {} shards, {:.4}s",
        decided.weight(),
        decided.optimal_proved,
        decided.report.shards.len(),
        started.elapsed().as_secs_f64()
    );

    let problem = fixtures::long_race();
    let started = Instant::now();
    let outcome = compile_sharded(&problem, &config);
    println!(
        "sharded long race: weight {:?}, optimal {}, {:.3}s",
        outcome.weight(),
        outcome.optimal_proved,
        started.elapsed().as_secs_f64()
    );
    for shard in &outcome.report.shards {
        println!(
            "  shard {}: {} lanes, {} clauses out / {} in, {} bounds out{}",
            shard.shard,
            shard.lanes,
            shard.clauses_sent,
            shard.clauses_received,
            shard.bounds_sent,
            if shard.dead { " [DEAD]" } else { "" }
        );
    }
    for worker in &outcome.report.workers {
        println!(
            "  lane {:45} shard {:?}: {} conflicts, {} imported",
            worker.strategy, worker.shard, worker.conflicts, worker.clauses_imported
        );
    }
}
