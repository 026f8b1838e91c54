//! **Figure 6** — average per-Majorana Pauli weight at small scale:
//! Bravyi-Kitaev vs Full SAT (all constraints), N = 1…8, with the
//! vacuum-paired ternary tree's total and the floor beside them.
//!
//! The paper reports an ~11 % average reduction and the regressions
//! `0.73·log₂N + 0.94` (BK) vs `0.56·log₂N + 0.95` (optimal).
//!
//! Usage: `fig6_weight_small [--max-modes 6] [--timeout 30] [--csv]`
//! (the paper runs to N = 8 with much larger solver budgets).
//!
//! * `floor` is `fermihedral::bound`'s: no set of `2N` pairwise-
//!   anticommuting Pauli strings weighs less. It takes milliseconds at
//!   N ≤ 6, 0.25 s at N = 7 and about 40 s at N = 8 (`--max-modes 8`).
//! * `optimal? yes`: the SAT descent proved its total optimal. It does at
//!   N ≤ 5 (about 3 s in all) because it searches up to qubit relabelling
//!   (`fermihedral::symmetry`).
//! * `optimal? yes (bound)`: the descent did not prove it, but the tree
//!   total meets the floor, so the tree is the certified optimum. That is
//!   every row from N = 6 to N = 8. Above N = 5 the descent searches
//!   without the relabelling block and its UNSAT call below the floor
//!   would only run out the per-call budget, so it stops as soon as its
//!   incumbent meets the floor.
//!
//! The tree total equals the floor on every row, and the SAT total on
//! every row SAT certifies: two certificates that share no code.

use encodings::weight::majorana_weight;
use encodings::Encoding;
use fermihedral::bound::lightest_below;
use fermihedral::symmetry::MAX_ORDERED_MODES;
use fermihedral_bench::args::Args;
use fermihedral_bench::pipeline::{bravyi_kitaev, sat_majorana_encoding, ternary_tree, Budget};
use fermihedral_bench::report::{reduction_pct, Table};
use mathkit::stats::fit_log2;

fn main() {
    let args = Args::parse(&["max-modes", "timeout", "csv"]);
    let max_modes = args.get_usize("max-modes", 6).min(8);
    let budget = Budget::seconds(args.get_f64("timeout", 30.0));
    let csv = args.get_bool("csv");

    println!("# Figure 6: average Pauli weight per Majorana operator (small scale)");
    println!("# Full SAT = anticommutativity + algebraic independence + vacuum");
    let mut table = Table::new(&[
        "N",
        "BK total",
        "BK avg",
        "tree total",
        "floor",
        "SAT total",
        "SAT avg",
        "optimal?",
        "reduction",
    ]);
    let mut xs = Vec::new();
    let mut bk_avgs = Vec::new();
    let mut sat_avgs = Vec::new();

    for n in 1..=max_modes {
        let bk = majorana_weight(&bravyi_kitaev(n).majoranas());
        let tree = majorana_weight(&ternary_tree(n).majoranas());
        // Asked for a set lighter than the tree, the search returns the
        // lightest one if there is any, so `floor` is the minimum either way.
        let floor = lightest_below(n, tree).floor;
        let stop_at = (n > MAX_ORDERED_MODES).then_some(floor);
        let result = sat_majorana_encoding(n, true, budget, stop_at);
        let ops = 2 * n;
        xs.push(n as f64);
        bk_avgs.push(bk as f64 / ops as f64);
        sat_avgs.push(result.weight as f64 / ops as f64);
        table.row(&[
            n.to_string(),
            bk.to_string(),
            format!("{:.3}", bk as f64 / ops as f64),
            tree.to_string(),
            floor.to_string(),
            result.weight.to_string(),
            format!("{:.3}", result.weight as f64 / ops as f64),
            if result.optimal {
                "yes"
            } else if tree == floor {
                "yes (bound)"
            } else {
                "best-in-budget"
            }
            .to_string(),
            reduction_pct(bk, result.weight),
        ]);
    }
    table.print(csv);

    if let (Some(bk_fit), Some(sat_fit)) = (fit_log2(&xs, &bk_avgs), fit_log2(&xs, &sat_avgs)) {
        println!();
        println!(
            "regression BK : {:.2}·log2(N) + {:.2}   (paper: 0.73·log2(N) + 0.94)",
            bk_fit.slope, bk_fit.intercept
        );
        println!(
            "regression SAT: {:.2}·log2(N) + {:.2}   (paper: 0.56·log2(N) + 0.95)",
            sat_fit.slope, sat_fit.intercept
        );
    }
}
