//! **Ablations** (extension beyond the paper's tables) — quantifies the
//! design choices this reproduction makes:
//!
//! 1. the vacuum XY-pair constraint: optional per the paper; confirm it
//!    does not change the optimal weight, and measure its solve-time cost;
//! 2. the Bravyi-Kitaev phase hint: our warm start for the descent — how
//!    much it buys at mid sizes;
//! 3. first- vs second-order Trotterization on H₂: the gate-count/accuracy
//!    trade-off downstream of any encoding;
//! 4. totalizer vs sequential-counter cardinality encodings: clause counts
//!    for the weight bound.
//!
//! Usage: `ablation_design_choices [--timeout 15] [--csv]`

use circuit::{circuit_unitary, evolution, trotter2_circuit, trotter_circuit};
use encodings::map::map_hamiltonian;
use encodings::LinearEncoding;
use fermihedral::descent::{solve_optimal, DescentConfig};
use fermihedral::{EncodingProblem, Objective};
use fermihedral_bench::args::Args;
use fermihedral_bench::pipeline::Benchmark;
use fermihedral_bench::report::Table;
use sat::{card, Cnf, Totalizer};
use std::time::{Duration, Instant};

fn descent_time(n: usize, vacuum: bool, hint: bool, timeout: Duration) -> (Option<usize>, f64) {
    let problem = EncodingProblem::new(n, Objective::MajoranaWeight).with_vacuum_condition(vacuum);
    let config = DescentConfig {
        solve_timeout: Some(timeout),
        total_timeout: Some(timeout),
        bk_phase_hint: hint,
        ..Default::default()
    };
    let t = Instant::now();
    let outcome = solve_optimal(&problem, &config);
    (outcome.weight(), t.elapsed().as_secs_f64())
}

fn main() {
    let args = Args::parse(&["timeout", "csv"]);
    let timeout = args.get_duration_secs("timeout", 15.0);
    let csv = args.get_bool("csv");

    // --- 1. vacuum constraint ------------------------------------------
    println!("## Ablation 1: vacuum XY-pair constraint (paper: optional, no optimality impact)");
    let mut t1 = Table::new(&[
        "N",
        "weight w/ vacuum",
        "weight w/o vacuum",
        "time w/ (s)",
        "time w/o (s)",
    ]);
    for n in 2..=4 {
        let (w_on, s_on) = descent_time(n, true, true, timeout);
        let (w_off, s_off) = descent_time(n, false, true, timeout);
        t1.row(&[
            n.to_string(),
            w_on.map_or("-".into(), |w| w.to_string()),
            w_off.map_or("-".into(), |w| w.to_string()),
            format!("{s_on:.3}"),
            format!("{s_off:.3}"),
        ]);
    }
    t1.print(csv);

    // --- 2. BK phase hint ----------------------------------------------
    println!("\n## Ablation 2: Bravyi-Kitaev phase hint (descent warm start)");
    let mut t2 = Table::new(&[
        "N",
        "weight hinted",
        "weight cold",
        "time hinted (s)",
        "time cold (s)",
    ]);
    for n in [6usize, 8, 10] {
        let (w_h, s_h) = descent_time(n, true, true, timeout);
        let (w_c, s_c) = descent_time(n, true, false, timeout);
        t2.row(&[
            n.to_string(),
            w_h.map_or("none found".into(), |w| w.to_string()),
            w_c.map_or("none found".into(), |w| w.to_string()),
            format!("{s_h:.3}"),
            format!("{s_c:.3}"),
        ]);
    }
    t2.print(csv);

    // --- 3. Trotter order ----------------------------------------------
    println!("\n## Ablation 3: first- vs second-order Trotter on H2 (BK encoding, t = 1)");
    let h2 = Benchmark::Electronic.second_quantized(4).expect("H2");
    let mut mapped = map_hamiltonian(&LinearEncoding::bravyi_kitaev(4), &h2);
    mapped.take_identity();
    let exact = evolution::exact_evolution(&mapped, 1.0);
    let mut t3 = Table::new(&["order", "steps", "gates", "‖U − U_exact‖_F"]);
    for steps in [1usize, 2, 4] {
        for order in [1usize, 2] {
            let c = if order == 1 {
                circuit::optimize::optimize(&trotter_circuit(&mapped, 1.0, steps))
            } else {
                circuit::optimize::optimize(&trotter2_circuit(&mapped, 1.0, steps))
            };
            let err = (&circuit_unitary(&c) - &exact).frobenius_norm();
            t3.row(&[
                order.to_string(),
                steps.to_string(),
                c.counts().total().to_string(),
                format!("{err:.4}"),
            ]);
        }
    }
    t3.print(csv);

    // --- 4. cardinality encodings --------------------------------------
    println!("\n## Ablation 4: totalizer vs sequential counter (clauses for sum ≤ k, 64 inputs)");
    let mut t4 = Table::new(&["k", "totalizer clauses", "seq-counter clauses"]);
    for k in [4usize, 16, 32] {
        let tot_clauses = {
            let mut cnf = Cnf::new();
            let inputs: Vec<_> = cnf.new_vars(64).iter().map(|v| v.positive()).collect();
            let before = cnf.num_clauses();
            let tot = Totalizer::new(&mut cnf, &inputs);
            let bound = tot.at_most(k);
            let _ = bound;
            cnf.num_clauses() - before
        };
        let seq_clauses = {
            let mut cnf = Cnf::new();
            let inputs: Vec<_> = cnf.new_vars(64).iter().map(|v| v.positive()).collect();
            let before = cnf.num_clauses();
            card::add_at_most_seq(&mut cnf, &inputs, k);
            cnf.num_clauses() - before
        };
        t4.row(&[
            k.to_string(),
            tot_clauses.to_string(),
            seq_clauses.to_string(),
        ]);
    }
    t4.print(csv);
    println!("\n# The totalizer costs more clauses upfront but supports incremental");
    println!("# bounds via assumptions — one instance serves the whole descent.");
}
