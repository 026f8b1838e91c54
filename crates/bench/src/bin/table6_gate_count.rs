//! **Table 6** — gate counts and depth of the compiled evolution circuits
//! (`t = 1`, one Trotter step, peephole-optimized): BK vs Full SAT, for
//! H₂ (4 qubits), the 3×1 Fermi-Hubbard chain (6 qubits), and the 2×2
//! Fermi-Hubbard grid (8 qubits).
//!
//! The paper reports ~20 % fewer single-qubit gates and ~35 % fewer CNOTs
//! for Full SAT over BK. (Absolute counts differ from the paper's
//! Qiskit+Paulihedral pipeline, which our own Trotter compiler and
//! peephole optimizer stand in for; the encoding-induced reduction is the
//! claim under test.)
//!
//! At 6/8 qubits the Hamiltonian-dependent search drops the
//! algebraic-independence clauses and rank-checks models instead (the
//! `--full-sat-modes` flag raises the cut-off).
//!
//! Usage: `table6_gate_count [--timeout 30] [--full-sat-modes 4] [--csv]`

use fermihedral_bench::args::Args;
use fermihedral_bench::pipeline::{
    bravyi_kitaev, compile_evolution, hubbard_grid_2x2, jordan_wigner, sat_hamiltonian_encoding,
    Benchmark, Budget,
};
use fermihedral_bench::report::{reduction_pct, Table};
use fermion::{FermionHamiltonian, MajoranaSum};

struct Case {
    name: &'static str,
    hamiltonian: FermionHamiltonian,
}

fn main() {
    let args = Args::parse(&["timeout", "full-sat-modes", "csv"]);
    let budget = Budget::seconds(args.get_f64("timeout", 30.0));
    let full_sat_modes = args.get_usize("full-sat-modes", 4).min(8);
    let csv = args.get_bool("csv");

    let cases = [
        Case {
            name: "H2",
            hamiltonian: Benchmark::Electronic.second_quantized(4).expect("H2"),
        },
        Case {
            name: "3x1 Fermi-Hubbard",
            hamiltonian: Benchmark::Hubbard.second_quantized(6).expect("chain"),
        },
        Case {
            name: "2x2 Fermi-Hubbard",
            hamiltonian: hubbard_grid_2x2().hamiltonian(),
        },
    ];

    println!("# Table 6: compiled circuit gate counts (t = 1, 1 Trotter step, optimized)");
    let mut table = Table::new(&["case", "metric", "JW", "BK", "Full SAT", "red. vs BK"]);

    for case in cases {
        let n = case.hamiltonian.num_modes();
        let monomials: Vec<_> = MajoranaSum::from_fermion(&case.hamiltonian)
            .weight_structure()
            .into_iter()
            .cloned()
            .collect();
        let sat = sat_hamiltonian_encoding(n, &monomials, n <= full_sat_modes, budget);

        let (_, jw) = compile_evolution(&jordan_wigner(n), &case.hamiltonian, 1.0, 1);
        let (_, bk) = compile_evolution(&bravyi_kitaev(n), &case.hamiltonian, 1.0, 1);
        let (_, fs) = compile_evolution(&sat.encoding, &case.hamiltonian, 1.0, 1);

        let rows: [(&str, usize, usize, usize); 4] = [
            ("single", jw.single, bk.single, fs.single),
            ("CNOT", jw.cnot, bk.cnot, fs.cnot),
            ("total", jw.total, bk.total, fs.total),
            ("depth", jw.depth, bk.depth, fs.depth),
        ];
        for (metric, jw_v, bk_v, fs_v) in rows {
            table.row(&[
                case.name.to_string(),
                metric.to_string(),
                jw_v.to_string(),
                bk_v.to_string(),
                fs_v.to_string(),
                reduction_pct(bk_v, fs_v),
            ]);
        }
    }
    table.print(csv);
    println!();
    println!("# paper (Qiskit L3 + Paulihedral absolute counts): H2 total 52→43 (17%),");
    println!("# 3x1 FH total 114→72 (37%), 2x2 FH total 109→72 (34%) for BK→Full SAT");
}
