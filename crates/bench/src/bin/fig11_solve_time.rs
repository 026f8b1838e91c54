//! **Figure 11** — time to construct and solve the encoding SAT problem
//! with vs without the algebraic-independence clauses.
//!
//! The paper's observation: dropping the `4^N` clause set speeds both
//! construction (up to ~600×) and solving (up to ~50×). Times exclude the
//! final UNSAT optimality proof (the paper excludes it too, as it usually
//! hits the timeout).
//!
//! Both columns time the *paper* formula of their mode: construction is
//! `build()` plus the first `instance.cnf()` read, which generates the
//! `4^N` family, and the solve runs a plain descent over
//! `instance.solver()`. The library's descent searches one formula
//! whatever the flag says, so through it the two columns would time the
//! same thing.
//!
//! Usage: `fig11_solve_time [--max-modes 5] [--timeout 20] [--csv]`

use fermihedral::descent::bravyi_kitaev_bound;
use fermihedral::{EncodingInstance, EncodingProblem, Objective};
use fermihedral_bench::args::Args;
use fermihedral_bench::report::Table;
use sat::SolveResult;
use std::time::{Duration, Instant};

/// Algorithm 1 on the instance's paper formula, from Bravyi-Kitaev's
/// weight down: seconds spent in the improving steps, i.e. up to the call
/// that proves the floor or runs out of `timeout`.
fn improving_steps_s(instance: &EncodingInstance, timeout: Duration) -> f64 {
    let started = Instant::now();
    let mut solver = instance.solver();
    let mut bound =
        (bravyi_kitaev_bound(instance.problem()) + 1).min(instance.weight_upper_bound() + 1);
    let mut improving = Duration::ZERO;
    loop {
        let left = timeout.saturating_sub(started.elapsed());
        if left.is_zero() {
            break;
        }
        solver.set_timeout(Some(left));
        let assumptions: Vec<_> = instance
            .assume_weight_less_than(bound)
            .into_iter()
            .collect();
        match solver.solve_with_assumptions(&assumptions) {
            SolveResult::Sat(model) => {
                bound = instance.measure_weight(&instance.decode(&model));
                improving = started.elapsed();
            }
            _ => break,
        }
    }
    improving.as_secs_f64()
}

fn main() {
    let args = Args::parse(&["max-modes", "timeout", "csv"]);
    let max_modes = args.get_usize("max-modes", 5).min(8);
    let timeout = args.get_duration_secs("timeout", 20.0);
    let csv = args.get_bool("csv");

    println!("# Figure 11: construct/solve time, with vs without algebraic independence");
    let mut table = Table::new(&[
        "N",
        "construct w/ (s)",
        "construct w/o (s)",
        "speedup",
        "solve w/ (s)",
        "solve w/o (s)",
        "speedup",
    ]);

    for n in 2..=max_modes {
        let mut construct = [0.0f64; 2];
        let mut solve = [0.0f64; 2];
        for (i, full) in [true, false].into_iter().enumerate() {
            let t0 = Instant::now();
            let problem = EncodingProblem::new(n, Objective::MajoranaWeight)
                .with_algebraic_independence(full);
            let instance = problem.build();
            // `build()` leaves the `4^N` family until the paper formula is
            // first read: read it here, so the column times what the
            // paper's construction does.
            std::hint::black_box(instance.cnf());
            construct[i] = t0.elapsed().as_secs_f64();

            solve[i] = improving_steps_s(&instance, timeout).max(1e-6);
        }
        table.row(&[
            n.to_string(),
            format!("{:.4}", construct[0]),
            format!("{:.4}", construct[1]),
            format!("{:.1}x", construct[0] / construct[1].max(1e-9)),
            format!("{:.4}", solve[0]),
            format!("{:.4}", solve[1]),
            format!("{:.1}x", solve[0] / solve[1]),
        ]);
    }
    table.print(csv);
}
