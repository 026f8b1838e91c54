//! Experiment harness for the Fermihedral reproduction.
//!
//! One binary per table/figure of the paper:
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig4_independence` | Fig. 4: joint probability of the identity-product events `A_k` |
//! | `fig6_weight_small` | Fig. 6: per-Majorana weight, BK vs Full SAT, N = 1…8 |
//! | `fig7_weight_large` | Fig. 7: per-Majorana weight, BK vs SAT w/o Alg., N = 9…19 |
//! | `fig8_h2_noisy` | Fig. 8: noisy H₂ evolution from E₀–E₃ vs two-qubit error |
//! | `fig9_hubbard_noisy` | Fig. 9: noisy 3×1 and 2×2 Fermi-Hubbard evolution |
//! | `fig10_ionq_sim` | Fig. 10: H₂ evolution on a simulated IonQ Aria-1 |
//! | `fig11_solve_time` | Fig. 11: solve time with vs without the independence clauses |
//! | `table3_instance_size` | Table 3: SAT instance sizes with and without those clauses |
//! | `table4_ham_weight` | Table 4: Hamiltonian-dependent weight, small scale |
//! | `table5_ham_weight_large` | Table 5: Hamiltonian-dependent weight, SAT+Annealing at scale |
//! | `table6_gate_count` | Table 6: gate counts and depth of the compiled circuits |
//! | `ablation_design_choices` | beyond the paper: vacuum constraint, BK hint, Trotter order, cardinality encoding |
//!
//! The engine, server and solver throughput are measured by the layered
//! benchmark in `crates/ledger`, not here. The binaries share three
//! pieces:
//!
//! * [`args`] — a small `--flag value` parser so every binary accepts the
//!   same scaling knobs (`--max-modes`, `--timeout`, `--shots`, `--seed`,
//!   `--csv`);
//! * [`report`] — aligned-table / CSV printers producing the paper's rows;
//! * [`pipeline`] — the end-to-end recipes: benchmark Hamiltonians by
//!   name, the four encoding routes (JW / BK / Full SAT / SAT+Annealing),
//!   and map→Trotter→optimize compilation.
//!
//! Every binary prints the paper's reference values next to the measured
//! ones where the paper reports concrete numbers, so the *shape* claims
//! (who wins, by how much) are visible at a glance.

pub mod args;
pub mod pipeline;
pub mod report;
