//! `Solver::from_cnf` (the bulk loader) against the incremental path.
//!
//! The loader's contract is that it leaves the solver in the state a fresh
//! solver reaches when fed the same clauses through `add_clause`, so a
//! deterministic search must repeat conflict for conflict. Identical
//! statistics after `solve()` are the observable form of that contract.

use proptest::prelude::*;
use sat::{Cnf, Lit, SolveResult, Solver, Var};

/// Today's clause-by-clause loop, kept as the reference.
fn load_incrementally(cnf: &Cnf) -> Solver {
    let mut s = Solver::new();
    s.reserve_vars(cnf.num_vars());
    for clause in cnf.clauses() {
        s.add_clause(clause.iter().copied());
    }
    s
}

/// Loads `cnf` both ways, solves, and checks verdict, integrity and
/// statistics agree. Returns the bulk-loaded verdict.
fn assert_loaders_agree(cnf: &Cnf) -> SolveResult {
    let mut bulk = Solver::from_cnf(cnf);
    let mut incremental = load_incrementally(cnf);
    bulk.check_integrity();
    incremental.check_integrity();
    assert_eq!(bulk.num_vars(), incremental.num_vars());
    assert_eq!(bulk.num_clauses(), incremental.num_clauses());
    assert_eq!(
        bulk.stats(),
        incremental.stats(),
        "statistics after loading"
    );

    let verdict = bulk.solve();
    let reference = incremental.solve();
    match (&verdict, &reference) {
        (SolveResult::Sat(a), SolveResult::Sat(b)) => {
            assert_eq!(a.values(), b.values(), "same search, same model");
            assert!(cnf.eval(&a.values()));
        }
        (SolveResult::Unsat, SolveResult::Unsat) => {}
        other => panic!("verdicts differ: {other:?}"),
    }
    bulk.check_integrity();
    incremental.check_integrity();
    assert_eq!(bulk.stats(), incremental.stats(), "statistics after solve");
    verdict
}

fn lit(v: usize, positive: bool) -> Lit {
    Var::new(v).lit(positive)
}

/// PHP(pigeons, holes) with `dirty` spliced in after the at-least-one-hole
/// clauses: hard enough that the search runs thousands of conflicts.
/// Literals are written in descending order, so a loader that kept the
/// formula's order instead of the solver's sorted one would watch
/// different literals and search differently.
fn pigeonhole_with(pigeons: usize, holes: usize, dirty: &[Vec<Lit>]) -> Cnf {
    let mut cnf = Cnf::new();
    cnf.new_vars(pigeons * holes + 3);
    let x = |p: usize, h: usize| lit(p * holes + h, true);
    for p in 0..pigeons {
        cnf.add_clause((0..holes).rev().map(|h| x(p, h)));
    }
    for clause in dirty {
        cnf.add_clause(clause.iter().copied());
    }
    for h in 0..holes {
        for p in 0..pigeons {
            for q in p + 1..pigeons {
                cnf.add_clause([!x(q, h), !x(p, h)]);
            }
        }
    }
    cnf
}

#[test]
fn clean_formula_repeats_the_search_conflict_for_conflict() {
    let cnf = pigeonhole_with(8, 7, &[]);
    assert!(assert_loaders_agree(&cnf).is_unsat());
    assert!(Solver::from_cnf(&cnf).solve().is_unsat());
}

#[test]
fn unit_duplicate_and_tautology_mid_formula_repeat_the_search() {
    // Each dirty clause sits between clean ones, so the loader switches
    // (or does not need to switch) paths with watches already in place.
    let free = 8 * 7; // first variable that occurs in no pigeonhole clause
    let cases: [Vec<Vec<Lit>>; 4] = [
        vec![vec![lit(3, false)]],                                // unit
        vec![vec![lit(0, true), lit(0, true), lit(9, true)]],     // duplicate
        vec![vec![lit(5, true), lit(free, true), lit(5, false)]], // tautology
        vec![
            vec![lit(2, true), lit(2, true)], // duplicate that becomes a unit
            vec![lit(free + 1, false), lit(free + 1, false), lit(4, false)],
            vec![lit(11, false)],
        ],
    ];
    for dirty in &cases {
        let verdict = assert_loaders_agree(&pigeonhole_with(8, 7, dirty));
        assert!(verdict.is_unsat(), "PHP(8,7) stays unsatisfiable");
    }
}

#[test]
fn empty_clause_and_contradicting_units() {
    let mut cnf = pigeonhole_with(3, 3, &[vec![]]);
    assert!(assert_loaders_agree(&cnf).is_unsat());

    cnf = pigeonhole_with(3, 3, &[vec![lit(0, true)], vec![lit(0, false)]]);
    assert!(assert_loaders_agree(&cnf).is_unsat());
}

#[test]
fn variables_in_no_clause_are_allocated_and_assigned() {
    let mut cnf = Cnf::new();
    cnf.new_vars(70); // crosses a bit-set word boundary
    cnf.add_clause([lit(1, true), lit(68, false)]);
    let verdict = assert_loaders_agree(&cnf);
    assert_eq!(Solver::from_cnf(&cnf).num_vars(), 70);
    assert_eq!(verdict.model().unwrap().values().len(), 70);
    // No clause at all, only variables.
    let mut bare = Cnf::new();
    bare.new_vars(5);
    assert!(assert_loaders_agree(&bare).is_sat());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    // Clause lengths 0..5 over few variables make units, empty clauses,
    // duplicate literals and tautologies all common; `spare` adds
    // variables that occur in no clause.
    #[test]
    fn prop_bulk_load_equals_incremental_load(
        nvars in 1usize..14,
        spare in 0usize..70,
        clauses in proptest::collection::vec(
            proptest::collection::vec((0usize..14, any::<bool>()), 0..5), 0..60)
    ) {
        let mut cnf = Cnf::new();
        cnf.new_vars(nvars + spare);
        for c in &clauses {
            cnf.add_clause(c.iter().map(|&(v, positive)| lit(v % nvars, positive)));
        }
        assert_loaders_agree(&cnf);
    }
}
