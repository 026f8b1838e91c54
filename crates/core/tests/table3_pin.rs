//! Pins the formula the constraint generators emit (paper Table 3).
//!
//! Every row was captured from the clause-by-clause `Vec<Vec<Lit>>`
//! generators and the `write!`-per-literal DIMACS writer before either was
//! replaced, so "the flat storage and the byte-level writer produce the
//! same formula" is a test. The hash covers the whole DIMACS text: clause
//! order, literal order inside each clause and variable numbering.

use fermihedral::{EncodingProblem, Objective};
use std::fmt::Write as _;

/// (modes, algebraic independence, vars, clauses, literals, DIMACS bytes,
/// FNV-1a 64 of the DIMACS text).
const TABLE: &[(usize, bool, usize, usize, usize, usize, u64)] = &[
    (1, false, 12, 30, 71, 265, 0x03f9e33424fd1e74),
    (1, true, 14, 41, 101, 372, 0x33d359a41caefc54),
    (2, false, 88, 289, 726, 3054, 0xe02f7783dc279791),
    (2, true, 132, 480, 1314, 5652, 0xe297e2301a3052f6),
    (3, false, 289, 1117, 2918, 14353, 0x2718261edd0f12af),
    (3, true, 631, 2548, 7400, 35242, 0x2554e212c274e753),
    (4, false, 664, 2923, 7822, 39607, 0xb85a241c729d2cf7),
    (4, true, 2640, 11082, 33574, 178109, 0x80e2cb2bcb34c435),
    (5, false, 1271, 6231, 16942, 94756, 0xe171eff70a54792f),
    (5, true, 11401, 47774, 148732, 832680, 0x46fc34cc7a2403ab),
    (6, false, 2152, 11629, 32006, 186934, 0x1d6f1d774b24f6e2),
    (6, true, 51148, 211708, 669098, 4230701, 0x372bc1bb1cb9880e),
    (7, false, 3365, 19833, 55094, 328349, 0x935ce3f1ee287b14),
    (
        7,
        true,
        232531,
        952880,
        3034448,
        20773658,
        0xddc26d9fae19480f,
    ),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn instance_sizes_and_dimacs_text_match_the_pinned_table() {
    for &(modes, alg_indep, vars, clauses, literals, bytes, hash) in TABLE {
        let instance = EncodingProblem::new(modes, Objective::MajoranaWeight)
            .with_algebraic_independence(alg_indep)
            .build();
        let stats = instance.stats();
        let mut dimacs = Vec::new();
        instance.write_dimacs(&mut dimacs).unwrap();
        assert_eq!(
            (
                stats.num_vars,
                stats.num_clauses,
                stats.num_literals,
                dimacs.len(),
                fnv1a(&dimacs)
            ),
            (vars, clauses, literals, bytes, hash),
            "N={modes} algebraic independence={alg_indep}"
        );
        let avg = literals as f64 / clauses as f64;
        assert!((stats.avg_clause_len - avg).abs() < 1e-12);
    }
}

/// The obvious writer: one `write!` per literal.
fn reference_dimacs(cnf: &sat::Cnf) -> String {
    let mut out = format!("p cnf {} {}\n", cnf.num_vars(), cnf.num_clauses());
    for clause in cnf.clauses() {
        for lit in clause {
            write!(out, "{} ", lit.to_dimacs()).unwrap();
        }
        out.push_str("0\n");
    }
    out
}

#[test]
fn full_sat_n4_dimacs_equals_the_reference_writer() {
    let instance = EncodingProblem::full_sat(4, Objective::MajoranaWeight).build();
    let mut dimacs = Vec::new();
    instance.write_dimacs(&mut dimacs).unwrap();
    assert_eq!(
        String::from_utf8(dimacs).unwrap(),
        reference_dimacs(instance.cnf())
    );
}
