//! Portfolio compilation end-to-end: race SAT descent and annealing,
//! opened by the classical constructions, for a Hubbard-model
//! Hamiltonian, then hit the persistent cache on the second compilation.
//!
//! Run with: `cargo run --release --example portfolio_compile`

use fermihedral_repro::engine::{compile, CacheStatus, EngineConfig};
use fermihedral_repro::fermihedral::{EncodingProblem, Objective};
use fermihedral_repro::fermion::models::{FermiHubbard, Lattice};
use fermihedral_repro::fermion::{MajoranaMonomial, MajoranaSum};
use std::time::Instant;

fn main() {
    // The 2-site Hubbard chain: 4 spin-orbitals = 4 Fermionic modes.
    let model = FermiHubbard::new(
        Lattice::Chain {
            sites: 2,
            periodic: false,
        },
        1.0, // hopping t
        2.0, // on-site U
    );
    let hamiltonian = MajoranaSum::from_fermion(&model.hamiltonian());
    let monomials: Vec<MajoranaMonomial> = hamiltonian
        .weight_structure()
        .into_iter()
        .cloned()
        .collect();
    println!(
        "Hubbard 2-site chain: {} modes, {} distinct Majorana monomials",
        4,
        monomials.len()
    );

    // Hamiltonian-dependent objective (paper Section 3.7): minimize the
    // summed Pauli weight over exactly these monomials.
    let problem = EncodingProblem::full_sat(4, Objective::HamiltonianWeight(monomials));

    let cache_dir = std::env::temp_dir().join("fermihedral-portfolio-example");
    let config = EngineConfig {
        cache_dir: Some(cache_dir.clone()),
        ..EngineConfig::default()
    };

    // First compilation: the full portfolio races.
    let t0 = Instant::now();
    let first = compile(&problem, &config);
    let best = first.best.as_ref().expect("4 modes is solvable");
    println!("\nfirst compilation: {:?}", t0.elapsed());
    println!(
        "  weight {} ({}), winner: {}",
        best.weight,
        if first.optimal_proved {
            "optimal, UNSAT-certified"
        } else {
            "best-so-far"
        },
        first.report.winner.as_deref().unwrap_or("-"),
    );
    for worker in &first.report.workers {
        println!(
            "  lane {:<44} finished at {:>8.1?}  weight {:<4} floor {:<4} {}",
            worker.strategy,
            worker.finished_at,
            worker
                .final_weight
                .map_or("-".to_string(), |w| w.to_string()),
            worker
                .proved_floor
                .map_or("-".to_string(), |w| w.to_string()),
            if worker.cancelled { "(cancelled)" } else { "" },
        );
        if worker.conflicts > 0 {
            println!(
                "       {} conflicts; clause exchange: {} exported, {} imported ({} promoted)",
                worker.conflicts,
                worker.clauses_exported,
                worker.clauses_imported,
                worker.clauses_promoted,
            );
        }
    }

    // Second compilation: served from the content-addressed cache.
    let t1 = Instant::now();
    let second = compile(&problem, &config);
    println!("\nsecond compilation: {:?}", t1.elapsed());
    println!(
        "  from_cache={} weight={:?} (no solver ran: {} workers)",
        second.report.cache == CacheStatus::HitOptimal,
        second.weight(),
        second.report.workers.len(),
    );

    let _ = std::fs::remove_dir_all(&cache_dir);
}
