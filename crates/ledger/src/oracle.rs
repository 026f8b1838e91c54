//! The independent oracle: hand-written expected answers, and a check of
//! every returned encoding that does not go through the engine.

use crate::trace::{span, Tracer};
use jsonkit::Value;
use pauli::{PauliString, PhasedString};

/// The hand-written table (`crates/ledger/expected.json`), compiled in so
/// the binary does not depend on its working directory.
const EXPECTED_JSON: &str = include_str!("../expected.json");

/// Expected final answer of a deterministic workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpectedOutcome {
    /// Final weight.
    pub weight: usize,
    /// Whether the run ends with an UNSAT certificate.
    pub optimal: bool,
}

/// The parsed expectation table.
#[derive(Debug, Clone)]
pub struct Expected {
    doc: Value,
}

impl Expected {
    /// Parses the compiled-in table.
    ///
    /// # Panics
    ///
    /// Panics when `expected.json` is not valid JSON — a build defect.
    pub fn load() -> Expected {
        Expected {
            doc: jsonkit::parse(EXPECTED_JSON).expect("expected.json is valid JSON"),
        }
    }

    /// The paper's Fig. 6 optimal Majorana weight at `modes` (full SAT).
    pub fn fig6_optimum(&self, modes: usize) -> Option<usize> {
        self.doc
            .get("fig6_majorana_optimum")?
            .get(&modes.to_string())?
            .as_usize()
    }

    /// Final weight and verdict of a deterministic workload.
    pub fn outcome(&self, workload: &str) -> Option<ExpectedOutcome> {
        let entry = self.doc.get("deterministic_workloads")?.get(workload)?;
        Some(ExpectedOutcome {
            weight: entry.get("weight")?.as_usize()?,
            optimal: entry.get("optimal")?.as_bool()?,
        })
    }

    /// Optimal weights of the three `serve_hit` problems, in
    /// [`crate::gen::HIT_BODIES`] order.
    pub fn serve_hit_weights(&self) -> Vec<usize> {
        self.usize_list("serve_hit_weights")
    }

    /// Golden optimal weight of the `serve_miss` problem whose Hamiltonian
    /// is these Majorana pairs (sorted, as the generator lists them).
    pub fn serve_miss_weight(&self, monomials: &[Vec<u32>]) -> Option<usize> {
        let key: Vec<String> = monomials
            .iter()
            .map(|m| m.iter().map(u32::to_string).collect::<String>())
            .collect();
        self.doc
            .get("serve_miss_weights")?
            .get(&key.join("-"))?
            .as_usize()
    }

    fn usize_list(&self, key: &str) -> Vec<usize> {
        self.doc
            .get(key)
            .and_then(Value::as_arr)
            .map(|items| items.iter().filter_map(Value::as_usize).collect())
            .unwrap_or_default()
    }
}

/// Symplectic `(x, z)` bits of one Pauli character.
fn bits(op: char) -> Option<(bool, bool)> {
    match op {
        'I' => Some((false, false)),
        'X' => Some((true, false)),
        'Y' => Some((true, true)),
        'Z' => Some((false, true)),
        _ => None,
    }
}

/// Summed Pauli weight of the strings, counted on their text form.
pub fn majorana_weight(strings: &[String]) -> usize {
    strings
        .iter()
        .map(|s| s.chars().filter(|&c| c != 'I').count())
        .sum()
}

/// Summed Pauli weight of the monomials' product strings, multiplied out
/// on the text form (phases do not affect weight). `None` when a string
/// holds a non-Pauli character or an index is out of range.
pub fn hamiltonian_weight(strings: &[String], monomials: &[Vec<u32>]) -> Option<usize> {
    let rows: Vec<Vec<(bool, bool)>> = strings
        .iter()
        .map(|s| s.chars().map(bits).collect::<Option<Vec<_>>>())
        .collect::<Option<_>>()?;
    let width = rows.first()?.len();
    let mut total = 0;
    for monomial in monomials {
        let mut product = vec![(false, false); width];
        for &index in monomial {
            let row = rows.get(index as usize)?;
            if row.len() != width {
                return None;
            }
            for (acc, bit) in product.iter_mut().zip(row) {
                *acc = (acc.0 ^ bit.0, acc.1 ^ bit.1);
            }
        }
        total += product.iter().filter(|&&b| b != (false, false)).count();
    }
    Some(total)
}

/// Checks one returned encoding: `2·modes` strings on `modes` qubits,
/// pairwise anticommuting, GF(2)-independent, XY vacuum pairs (every
/// workload keeps the vacuum condition on), and a weight — re-measured
/// here on the text form — equal to the weight the program claimed.
/// `monomials` selects the Hamiltonian-dependent objective; a traced op
/// passes its tracer so the call into `encodings::validate` gets a span.
pub fn check_encoding(
    strings: &[String],
    modes: usize,
    monomials: Option<&[Vec<u32>]>,
    claimed_weight: usize,
    tracer: Option<&Tracer>,
) -> Result<usize, String> {
    if strings.len() != 2 * modes {
        return Err(format!(
            "expected {} strings, got {}",
            2 * modes,
            strings.len()
        ));
    }
    let phased: Vec<PhasedString> = strings
        .iter()
        .map(|s| {
            s.parse::<PauliString>()
                .map(PhasedString::from)
                .map_err(|e| format!("unparsable string {s:?}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    if phased.iter().any(|s| s.num_qubits() != modes) {
        return Err(format!("a string is not on {modes} qubits"));
    }
    let report = {
        let _span = span(tracer, "ledger.encodings.validate");
        encodings::validate::validate_strings(&phased)
    };
    if !report.anticommuting {
        return Err("strings do not pairwise anticommute".into());
    }
    if !report.algebraically_independent {
        return Err("strings are not GF(2)-independent".into());
    }
    if !report.xy_pair_condition {
        return Err("a Majorana pair has no XY vacuum index".into());
    }
    let measured = match monomials {
        None => majorana_weight(strings),
        Some(monomials) => hamiltonian_weight(strings, monomials)
            .ok_or("cannot multiply out the Hamiltonian's monomials")?,
    };
    if measured != claimed_weight {
        return Err(format!(
            "claimed weight {claimed_weight}, re-measured {measured}"
        ));
    }
    Ok(measured)
}

/// [`check_encoding`] for strings still in the program's own type.
pub fn check_pauli_strings(
    strings: &[PauliString],
    modes: usize,
    monomials: Option<&[Vec<u32>]>,
    claimed_weight: usize,
    tracer: Option<&Tracer>,
) -> Result<usize, String> {
    let text: Vec<String> = strings.iter().map(PauliString::to_string).collect();
    check_encoding(&text, modes, monomials, claimed_weight, tracer)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn table_holds_the_papers_small_optima() {
        let expected = Expected::load();
        assert_eq!(expected.fig6_optimum(2), Some(6));
        assert_eq!(expected.fig6_optimum(3), Some(11));
        assert_eq!(expected.fig6_optimum(4), Some(16));
        assert_eq!(
            expected.outcome("certify_n4"),
            Some(ExpectedOutcome {
                weight: 16,
                optimal: true
            })
        );
        // The table states the N=2..4 optima twice — as the paper's figure
        // and as the answers of the workloads that solve them — and the
        // two must say the same.
        assert_eq!(
            expected.serve_hit_weights(),
            [
                expected.fig6_optimum(2).unwrap(),
                expected.fig6_optimum(3).unwrap(),
                2
            ]
        );
        assert_eq!(
            expected.outcome("certify_n4").map(|o| o.weight),
            expected.fig6_optimum(4)
        );
        assert_eq!(
            expected.serve_miss_weight(&[vec![0, 1], vec![2, 3], vec![4, 5]]),
            Some(3),
            "three disjoint pairs: one Z each"
        );
        for problem in crate::gen::miss_problems(crate::gen::DEFAULT_SEED) {
            assert!(expected.serve_miss_weight(&problem.monomials).is_some());
        }
    }

    #[test]
    fn jordan_wigner_two_modes_passes_at_weight_six() {
        // Display order: leftmost character = highest qubit.
        let jw = strings(&["IX", "IY", "XZ", "YZ"]);
        assert_eq!(check_encoding(&jw, 2, None, 6, None), Ok(6));
        assert!(check_encoding(&jw, 2, None, 5, None)
            .unwrap_err()
            .contains("re-measured 6"));
        // M0·M1 = Z on qubit 0, M2·M3 = Z on qubit 1: weight 1 + 1.
        let pairs = vec![vec![0, 1], vec![2, 3]];
        assert_eq!(check_encoding(&jw, 2, Some(&pairs), 2, None), Ok(2));
    }

    #[test]
    fn broken_encodings_are_rejected() {
        let commuting = strings(&["IX", "IX", "XZ", "YZ"]);
        assert!(check_encoding(&commuting, 2, None, 6, None).is_err());
        let short = strings(&["IX", "IY", "XZ"]);
        assert!(check_encoding(&short, 2, None, 5, None).is_err());
        // Anticommuting and independent, but pair (M0, M1) = (Y, X) has no
        // index with X on the even and Y on the odd string.
        let no_vacuum = strings(&["IY", "IX", "XZ", "YZ"]);
        assert!(check_encoding(&no_vacuum, 2, None, 6, None)
            .unwrap_err()
            .contains("vacuum"));
        let garbage = strings(&["IQ", "IY", "XZ", "YZ"]);
        assert!(check_encoding(&garbage, 2, None, 6, None).is_err());
    }
}
