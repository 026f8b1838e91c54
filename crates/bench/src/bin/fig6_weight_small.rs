//! **Figure 6** — average per-Majorana Pauli weight at small scale:
//! Bravyi-Kitaev vs Full SAT (all constraints), N = 1…8.
//!
//! The paper reports an ~11 % average reduction and the regressions
//! `0.73·log₂N + 0.94` (BK) vs `0.56·log₂N + 0.95` (optimal).
//!
//! Usage: `fig6_weight_small [--max-modes 5] [--timeout 30] [--csv]`
//! (the paper runs to N = 8 with much larger solver budgets). The default
//! run takes about 7 s and certifies every row, N = 5 included (weight
//! 22, `optimal? yes`): the descent searches up to qubit relabelling
//! (`fermihedral::symmetry`), which brought the N = 5 floor proof from
//! hours to seconds. N = 6…8 still end `best-in-budget`.

use encodings::weight::majorana_weight;
use encodings::Encoding;
use fermihedral_bench::args::Args;
use fermihedral_bench::pipeline::{bravyi_kitaev, sat_majorana_encoding, Budget};
use fermihedral_bench::report::{reduction_pct, Table};
use mathkit::stats::fit_log2;

fn main() {
    let args = Args::parse(&["max-modes", "timeout", "csv"]);
    let max_modes = args.get_usize("max-modes", 5).min(8);
    let budget = Budget::seconds(args.get_f64("timeout", 30.0));
    let csv = args.get_bool("csv");

    println!("# Figure 6: average Pauli weight per Majorana operator (small scale)");
    println!("# Full SAT = anticommutativity + algebraic independence + vacuum");
    let mut table = Table::new(&[
        "N",
        "BK total",
        "BK avg",
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
        let result = sat_majorana_encoding(n, true, budget);
        let ops = 2 * n;
        xs.push(n as f64);
        bk_avgs.push(bk as f64 / ops as f64);
        sat_avgs.push(result.weight as f64 / ops as f64);
        table.row(&[
            n.to_string(),
            bk.to_string(),
            format!("{:.3}", bk as f64 / ops as f64),
            result.weight.to_string(),
            format!("{:.3}", result.weight as f64 / ops as f64),
            if result.optimal {
                "yes"
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
