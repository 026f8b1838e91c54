//! `dimacs::write` formats integers by hand; this keeps the obvious
//! `format!`-based writer as the reference and compares byte for byte.

use proptest::prelude::*;
use sat::{dimacs, Cnf, Lit, Var};
use std::fmt::Write as _;

fn reference_dimacs(cnf: &Cnf) -> String {
    let mut out = format!("p cnf {} {}\n", cnf.num_vars(), cnf.num_clauses());
    for clause in cnf.clauses() {
        for lit in clause {
            write!(out, "{} ", lit.to_dimacs()).unwrap();
        }
        out.push_str("0\n");
    }
    out
}

fn written(cnf: &Cnf) -> String {
    let mut out = Vec::new();
    dimacs::write(cnf, &mut out).unwrap();
    String::from_utf8(out).unwrap()
}

fn assert_round_trips(cnf: &Cnf) {
    let text = written(cnf);
    assert_eq!(text, reference_dimacs(cnf));
    let back = dimacs::parse(text.as_bytes()).unwrap();
    assert_eq!(back.num_vars(), cnf.num_vars());
    assert_eq!(back.num_literals(), cnf.num_literals());
    assert!(back.clauses().eq(cnf.clauses()));
}

#[test]
fn digit_count_boundaries_signs_and_an_empty_clause() {
    // Variables 9|10, 99|100, … sit either side of every digit-count
    // boundary up to the largest index of the formula.
    let num_vars = 100_001;
    let mut cnf = Cnf::new();
    cnf.new_vars(num_vars);
    let edges = [
        0,
        8,
        9,
        98,
        99,
        998,
        999,
        9_998,
        9_999,
        99_998,
        99_999,
        num_vars - 1,
    ];
    cnf.add_clause(edges.iter().map(|&v| Var::new(v).positive()));
    cnf.add_clause([]);
    cnf.add_clause(edges.iter().rev().map(|&v| Var::new(v).negative()));
    cnf.add_clause([Var::new(num_vars - 1).negative()]);
    assert_round_trips(&cnf);
    assert!(written(&cnf).ends_with("-100001 0\n"));
}

#[test]
fn output_longer_than_the_staging_chunk() {
    // ~1.3 MB of text: the writer hands its 64 KiB chunk over many times,
    // with long clauses and empty ones straddling the hand-overs.
    let mut cnf = Cnf::new();
    cnf.new_vars(50_000);
    for i in 0..2_000usize {
        let len = if i % 7 == 0 { 0 } else { 1 + (i * 37) % 200 };
        cnf.add_clause((0..len).map(|k| {
            let v = (i * 7919 + k * 104_729) % 50_000;
            Var::new(v).lit((i + k) % 3 != 0)
        }));
    }
    assert!(written(&cnf).len() > 1 << 20);
    assert_round_trips(&cnf);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn prop_write_equals_reference_and_parse_inverts_it(
        nvars in 1usize..3000,
        clauses in proptest::collection::vec(
            proptest::collection::vec((0usize..3000, any::<bool>()), 0..9), 0..80)
    ) {
        let mut cnf = Cnf::new();
        cnf.new_vars(nvars);
        for c in &clauses {
            cnf.add_clause(c.iter().map(|&(v, positive)| -> Lit {
                Var::new(v % nvars).lit(positive)
            }));
        }
        assert_round_trips(&cnf);
    }
}
