//! Qubit-order symmetry breaking for the *search* formula of exact
//! `MajoranaWeight` instances.
//!
//! The paper's formula ([`EncodingInstance::cnf`]) — and the search formula
//! an exact instance derives from it by leaving the §3.4 family out, see
//! [`crate::instance`] — has `N!` copies of every encoding: relabel the
//! qubits and nothing it talks about changes. A solver refuting
//! `weight < w*` — the floor proof that dominates every exact compile —
//! refutes each candidate once per relabelling. This module builds the
//! clauses that keep one representative per orbit, and the matching
//! canonical form for warm-start hints.
//!
//! # The block
//!
//! Qubit `q`'s *column* is the `4N`-bit word
//! `(b1(2N−1,q), b2(2N−1,q), b1(2N−2,q), …, b2(0,q))` — string `2N−1`
//! most significant, `false < true`. [`qubit_order_block`] states
//! `col(q) ≤lex col(q+1)` for every adjacent pair with the standard
//! lex-leader chain: one "equal so far" auxiliary `e_i` per position,
//! implied in one direction only,
//!
//! ```text
//! e_{i-1} → (x_i ≤ y_i)            ¬e_{i-1} ∨ ¬x_i ∨ y_i
//! e_{i-1} ∧ x_i       → e_i        ¬e_{i-1} ∨ ¬x_i ∨ e_i
//! e_{i-1} ∧ ¬y_i      → e_i        ¬e_{i-1} ∨  y_i ∨ e_i
//! ```
//!
//! with `e_0` true (its literal is dropped) and no `e_{4N}` (the last
//! position keeps only the first clause): `(N−1)(4N−1)` variables and
//! `(N−1)(12N−2)` clauses — 45 / 138 at `N = 4`, 162 / 492 at `N = 7`.
//!
//! # Soundness
//!
//! These clauses are **premises with their own argument**, not
//! consequences of the paper's formula (a checked certificate must cite
//! them as such, not as RUP steps):
//!
//! 1. A qubit permutation `π` maps models to models at every weight
//!    bound. Anticommutation XORs per-qubit predicates over all qubits;
//!    GF(2) independence asks that no subset product be the identity on
//!    *every* qubit; the vacuum condition asks for an XY pair on *some*
//!    qubit; `MajoranaWeight` sums per-site weights over all qubits and
//!    `HamiltonianWeight` sums the per-qubit weights of monomial products.
//!    Each is a symmetric function of the qubit index, so `π` preserves
//!    every constraint family and both objectives, weight included.
//! 2. Every orbit has a member whose columns are sorted — sort them. The
//!    order is `≤`, so equal columns are fine.
//! 3. Hence, at each bound, the formula with the block is satisfiable iff
//!    the formula without it is: every SAT/UNSAT answer of the descent,
//!    the optimum and the proved floor are unchanged. The chain
//!    auxiliaries are functionally forced or free, so any sorted model of
//!    the formula without the block extends to one of the formula with it.
//!
//! The one assumption: **no constraint or objective depends on which
//! qubit is which.** A connectivity- or depth-aware objective (ROADMAP,
//! parked) breaks step 1 and would have to drop the block.
//!
//! # Where it applies, and why only there
//!
//! The block trades one thing for another: refutations shrink and models
//! get harder to find, because only one relabelling in `N!` of each
//! encoding is still a model. Eight seeded lanes at `N = 4`, full SAT to
//! the certificate: the floor proof takes 11–25 ms with the block and
//! 111–181 ms without, the improving steps 15–101 ms (median 67) with and
//! 12–98 ms (median 31) without. So the block is applied only where a
//! measured run ends in the refutation and wins overall:
//!
//! * [`EncodingProblem::build`] attaches it to the search formula of
//!   problems **with algebraic independence and the `MajoranaWeight`
//!   objective** — the paper's Full SAT mode (capped at `N ≤ 8`), whose
//!   product is the optimality certificate. No other instance has one.
//! * The descent loads it unless the run **gives up at its first exhausted
//!   conflict budget** (`conflict_budget` set, `persist_on_budget` off):
//!   such a run returns the best-so-far, not the certificate.
//!
//! The selector is a property of the problem and of what the run is for,
//! not an option. What was measured on the sides left out — all of it
//! while the solver still carried the §3.4 clauses (PR 19); the selector
//! has not moved since, and what those sides solve *now* (the search
//! formula without the block) is measured in the README:
//!
//! * *No independence clauses* (§4.1, the approximate mode that scales).
//!   `N = 8`, one default lane, 60,000 conflicts per call: weight 56
//!   without the block, 57 with it; ISSUE 19's prototype saw 30 s descents
//!   from four seeds reach 50 / 53 / 43 / 50 without and 54 / 57 / 57 / 57
//!   with.
//! * *`HamiltonianWeight`*, exact, `N = 4`, one lane to the certificate:
//!   the 2-site Hubbard chain goes from 7.7 to 30.8 s (129k → 273k
//!   conflicts; 9.1–23.7 s under the other column keys below) and 6 → 45 s
//!   through the default race; four seeded five-monomial structures go
//!   11.0 → 0.54, 10.1 → 0.92, 3.2 → 1.3 and 1.7 → 2.8 s. Large on average,
//!   4× slower on the repository's own example: left without the block
//!   until a benchmark workload covers it.
//! * *Give-up budgets*, exact `MajoranaWeight`, 20,000 conflicts per call,
//!   six seeded lanes. `N = 5`, conflicts spent reaching weight 22 (the
//!   floor call then exhausts its budget either way): 16,248 / 18,232 /
//!   20,956 / 496 / 13,315 / 12,955 with the block, 2,874 / 6,409 / 1,558 /
//!   1,801 / 2,483 / 1,496 without. `N = 6`, four lanes: all end at 29
//!   without the block, two of them at 32 with it.
//!
//! Wall-clock budgets do not switch the block off: with it a 30 s run
//! certifies `N = 5`, without it none does (86 s on today's search
//! formula). A guard literal (`g → block`, assumed only by calls or lanes
//! that are proving the floor) is the recorded follow-up that could give
//! every run both halves.
//!
//! Lanes that exchange clauses make the same choice — one `EngineConfig`
//! per race, in-process or sharded. Were they ever mixed it would still be
//! sound: what a lane with the block learns follows from formula ∧ block,
//! so a lane without it that imports the clause solves something between
//! two formulas that are satisfiable at exactly the same bounds.
//!
//! # Measured
//!
//! One default lane (Bravyi-Kitaev hint, Luby-128, no random branching),
//! full SAT to the certificate, conflicts / propagations. Left pair: the
//! §3.4 clauses in the solver (PR 19, when the key was chosen); right
//! pair: the search formula as it is now, without them.
//!
//! | column key | `N = 4`, with §3.4 | `N = 5`, with §3.4 | `N = 4` | `N = 5` |
//! |---|---|---|---|---|
//! | no block | 3,376 / 1,171,529 | hours-scale, never finished | 4,111 / 615,086 | 585,115 / 127,338,030 (86 s) |
//! | string `2N−1` most significant, `b1` before `b2` (**committed**) | 988 / 303,629 | 43,546 / 27,233,641 | 1,219 / 166,428 | 56,005 / 12,129,380 |
//! | string `0` most significant, `b1` before `b2` | 2,347 / 778,863 | 40,184 / 26,961,188 | 3,264 / 415,157 | 57,464 / 12,078,233 |
//! | string `2N−1` most significant, `b2` before `b1` | 1,477 / 432,789 | 38,156 / 23,155,115 | 1,209 / 167,485 | 50,996 / 11,137,385 |
//! | string `0` most significant, `b2` before `b1` | 2,962 / 980,288 | 40,859 / 24,365,257 | 767 / 113,377 | 65,082 / 13,483,647 |
//!
//! The `N = 5` counts are within one another's noise (a chaotic quantity:
//! any clause-order change moves them by this much); with the §3.4 clauses
//! `N = 4` separated the keys by 2.4×, so it decided. Without them the
//! committed key is no longer the best at `N = 4` and the best one there
//! is the worst at `N = 5`: nothing to move the key on.
//!
//! Hints matter as much as the clauses. A Bravyi-Kitaev hint left in its
//! textbook qubit order contradicts the block: `N = 4` then needed 2,035
//! conflicts instead of 988 (PR 19), and with the block forced onto the `N = 8`
//! approximate instance the un-canonicalised hint finds *no* model in
//! 60,000 conflicts. [`canonical_qubit_order`] is therefore applied to
//! every hint a descent that loads the block receives.
//!
//! Rejected after measuring (ISSUE 19's prototype): also ordering the
//! Majorana-*pair* rows — sound for `MajoranaWeight` by double-lex — was
//! slower, 2,235 against 1,346 conflicts at `N = 4` in one harness.
//!
//! [`EncodingInstance::cnf`]: crate::EncodingInstance::cnf
//! [`EncodingProblem::build`]: crate::EncodingProblem::build

use crate::layout::VarLayout;
use pauli::encoding::op_to_bits;
use pauli::PauliString;
use sat::{Cnf, Var};

/// The positions of a qubit column, most significant first, as the
/// strings they read and whether they read `b1` (else `b2`).
fn column_positions(num_strings: usize) -> impl Iterator<Item = (usize, bool)> {
    (0..num_strings).rev().flat_map(|s| [(s, true), (s, false)])
}

/// Qubit `q`'s column as variables, most significant first.
fn column_vars(layout: &VarLayout, q: usize) -> impl Iterator<Item = Var> + '_ {
    column_positions(layout.num_strings()).map(move |(s, first)| {
        if first {
            layout.b1(s, q)
        } else {
            layout.b2(s, q)
        }
    })
}

/// The lex-leader block `col(q) ≤lex col(q+1)` for `q = 0 … N−2` (see the
/// module docs). The returned formula declares `first_aux` variables it
/// shares with the formula it extends — the primaries of `layout` must be
/// among them — and numbers its own auxiliaries from `first_aux` upward.
pub fn qubit_order_block(layout: &VarLayout, first_aux: usize) -> Cnf {
    assert!(
        first_aux >= layout.num_primary_vars(),
        "the block's auxiliaries must not alias primary variables"
    );
    let mut cnf = Cnf::new();
    cnf.new_vars(first_aux);
    let last = 2 * layout.num_strings() - 1;
    for q in 0..layout.num_modes() - 1 {
        // `None` is the constant-true e_0.
        let mut equal_so_far = None;
        let pairs = column_vars(layout, q).zip(column_vars(layout, q + 1));
        for (i, (x, y)) in pairs.enumerate() {
            let (x, y) = (x.positive(), y.positive());
            let guard = equal_so_far.map(|e: sat::Lit| !e);
            cnf.add_clause(guard.into_iter().chain([!x, y]));
            if i < last {
                let next = cnf.new_var().positive();
                cnf.add_clause(guard.into_iter().chain([!x, next]));
                cnf.add_clause(guard.into_iter().chain([y, next]));
                equal_so_far = Some(next);
            }
        }
    }
    cnf
}

/// The member of an encoding's qubit-relabelling orbit that
/// [`qubit_order_block`] admits: the same strings with their qubit columns
/// stably sorted by the block's key. Validity and both weights are
/// untouched (see the module docs), and every relabelling of one encoding
/// canonicalises to the same strings — columns that tie are identical.
///
/// # Panics
///
/// Panics if the strings differ in width.
pub fn canonical_qubit_order(strings: &[PauliString]) -> Vec<PauliString> {
    let width = strings.first().map_or(0, PauliString::num_qubits);
    let key = |q: usize| -> Vec<bool> {
        column_positions(strings.len())
            .map(|(s, first)| {
                let (b1, b2) = op_to_bits(strings[s].get(q));
                if first {
                    b1
                } else {
                    b2
                }
            })
            .collect()
    };
    let mut order: Vec<usize> = (0..width).collect();
    order.sort_by_cached_key(|&q| key(q));
    strings
        .iter()
        .map(|string| {
            assert_eq!(string.num_qubits(), width, "strings differ in width");
            let ops: Vec<_> = order.iter().map(|&q| string.get(q)).collect();
            PauliString::from_ops(&ops)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sat::{SolveResult, Solver};

    #[test]
    fn block_has_the_documented_size() {
        for n in 1..=7usize {
            let layout = VarLayout::new(n);
            let first_aux = layout.num_primary_vars() + 5;
            let block = qubit_order_block(&layout, first_aux);
            assert_eq!(block.num_vars() - first_aux, (n - 1) * (4 * n - 1), "N={n}");
            assert_eq!(block.num_clauses(), (n - 1) * (12 * n - 2), "N={n}");
        }
    }

    /// Sampled assignments of the two 8-bit columns at `N = 2`: the block
    /// is satisfiable exactly when column 0 ≤ column 1 under the
    /// documented key.
    #[test]
    fn block_admits_exactly_the_sorted_columns() {
        let layout = VarLayout::new(2);
        let block = qubit_order_block(&layout, layout.num_primary_vars());
        let left: Vec<Var> = column_vars(&layout, 0).collect();
        let right: Vec<Var> = column_vars(&layout, 1).collect();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..400 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let bits = |shift: u32| -> Vec<bool> {
                (0..8).map(|i| (state >> (shift + i)) & 1 == 1).collect()
            };
            // A third of the samples share a long prefix, so ties and
            // late differences are exercised too.
            let x = bits(0);
            let mut y = bits(8);
            if state >> 60 < 6 {
                let keep = ((state >> 32) % 9) as usize;
                y[..keep].copy_from_slice(&x[..keep]);
            }
            let mut solver = Solver::from_cnf(&block);
            for (vars, vals) in [(&left, &x), (&right, &y)] {
                for (var, &val) in vars.iter().zip(vals) {
                    solver.add_clause([var.lit(val)]);
                }
            }
            let sat = matches!(solver.solve(), SolveResult::Sat(_));
            assert_eq!(sat, x <= y, "x={x:?} y={y:?}");
        }
    }

    #[test]
    fn canonical_order_sorts_by_the_last_string_first() {
        let strings: Vec<PauliString> = ["XI", "YI", "ZX", "ZY"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let sorted = canonical_qubit_order(&strings);
        // Whichever way the input was oriented, the output is the same and
        // a second pass changes nothing.
        let flipped: Vec<PauliString> = ["IX", "IY", "XZ", "YZ"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        assert_eq!(sorted, canonical_qubit_order(&flipped));
        assert_eq!(sorted, canonical_qubit_order(&sorted));
        assert!(canonical_qubit_order(&[]).is_empty());
    }
}
