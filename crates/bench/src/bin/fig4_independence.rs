//! **Figure 4** — probability that `n` per-index identity-product events
//! (`A_k`, Eq. 15) hold simultaneously, over sampled optimal encodings.
//!
//! The paper's argument for dropping the algebraic-independence clauses: a
//! random *subset* of Majorana strings multiplies to identity at one index
//! with probability ≈ 1/4, and indices behave independently, so a given
//! subset vanishes everywhere with probability `4^{-N}`. This binary
//! reproduces that numerical evidence: enumerate up to 50 optimal
//! encodings per size (with the constraint set *on*, as the paper does),
//! sample random subsets, and estimate `P(A_1 ∧ … ∧ A_n)` for `n = 1…5`.
//!
//! What it measures is per-index identity events of subsets, not the
//! failure rate of whole solutions: `2N` pairwise-anticommuting strings
//! are *always* independent (the lemma in `fermihedral::instance`), so a
//! model of the formula without the clauses never fails the rank check.
//!
//! Usage: `fig4_independence [--max-modes 4] [--encodings 50] [--subsets 4000] [--seed 7] [--csv]`

use fermihedral::descent::{solve_optimal, DescentConfig};
use fermihedral::enumerate::{enumerate_encodings, EnumerateConfig};
use fermihedral::{EncodingProblem, Objective};
use fermihedral_bench::args::Args;
use fermihedral_bench::report::Table;
use pauli::{Pauli, PauliString};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Estimates `P(A_1 ∧ … ∧ A_n)` for each `n`, over random non-empty
/// subsets of each encoding's strings.
fn estimate(
    encodings: &[Vec<PauliString>],
    max_n: usize,
    subsets: usize,
    rng: &mut StdRng,
) -> Vec<f64> {
    let mut hits = vec![0usize; max_n + 1];
    let mut trials = 0usize;
    for strings in encodings {
        let num_strings = strings.len();
        let n_qubits = strings[0].num_qubits();
        for _ in 0..subsets {
            // Random non-empty subset.
            let mask: u64 = rng.gen_range(1..(1u64 << num_strings));
            let mut product = PauliString::identity(n_qubits);
            for (s, string) in strings.iter().enumerate() {
                if mask >> s & 1 == 1 {
                    product = product.mul_unphased(string);
                }
            }
            trials += 1;
            // A_k holds at index k when the product is identity there;
            // count how many of the first `max_n` indices hold.
            for (n, hit) in hits
                .iter_mut()
                .enumerate()
                .take(max_n.min(n_qubits) + 1)
                .skip(1)
            {
                if (0..n).all(|k| product.get(k) == Pauli::I) {
                    *hit += 1;
                }
            }
        }
    }
    (1..=max_n)
        .map(|n| hits[n] as f64 / trials.max(1) as f64)
        .collect()
}

fn main() {
    let args = Args::parse(&[
        "max-modes",
        "encodings",
        "subsets",
        "seed",
        "timeout",
        "csv",
    ]);
    let max_modes = args.get_usize("max-modes", 4).min(8);
    let max_encodings = args.get_usize("encodings", 50);
    let subsets = args.get_usize("subsets", 4000);
    let seed = args.get_u64("seed", 7);
    let timeout = args.get_duration_secs("timeout", 20.0);
    let csv = args.get_bool("csv");
    let mut rng = StdRng::seed_from_u64(seed);

    println!("# Figure 4: probability that n A_k's hold simultaneously (expect 4^-n)");
    let mut table = Table::new(&[
        "N",
        "#encodings",
        "P(n=1)",
        "P(n=2)",
        "P(n=3)",
        "P(n=4)",
        "P(n=5)",
    ]);

    for n in 1..=max_modes {
        // Find the optimal weight, then enumerate optimal encodings.
        let problem = EncodingProblem::full_sat(n, Objective::MajoranaWeight);
        let outcome = solve_optimal(
            &problem,
            &DescentConfig {
                solve_timeout: Some(timeout),
                total_timeout: Some(timeout),
                ..DescentConfig::default()
            },
        );
        let Some(best) = outcome.best else {
            eprintln!("N={n}: no encoding found within budget; skipping");
            continue;
        };
        let instance = problem.build();
        let sols = enumerate_encodings(
            &instance,
            &EnumerateConfig {
                max_solutions: max_encodings,
                weight_bound: Some(best.weight + 1),
                solve_timeout: Some(timeout),
                ..Default::default()
            },
        );
        let probs = estimate(&sols, 5, subsets, &mut rng);
        let fmt = |i: usize| probs.get(i).map_or("-".to_string(), |p| format!("{p:.4}"));
        table.row(&[
            n.to_string(),
            sols.len().to_string(),
            fmt(0),
            fmt(1),
            fmt(2),
            fmt(3),
            fmt(4),
        ]);
    }
    table.print(csv);
    println!();
    println!("reference: 4^-1 = 0.25, 4^-2 = 0.0625, 4^-3 = 0.0156, 4^-4 = 0.0039, 4^-5 = 0.0010");
}
