//! One JSON schema for [`EncodingProblem`], shared by every process
//! boundary: the compilation server's HTTP API (`serve::api`) and the
//! shard coordinator's wire jobs (`shard::proto`) both delegate here, so
//! the two surfaces cannot drift apart — a problem accepted over HTTP is
//! byte-for-byte the problem a worker process reconstructs.
//!
//! ```json
//! {
//!   "modes": 4,
//!   "objective": "majorana" | {"hamiltonian": [[0,1],[2,3]]},
//!   "algebraic_independence": false,
//!   "vacuum_condition": true
//! }
//! ```
//!
//! `objective` defaults to `"majorana"`; the constraint flags default to
//! the paper's Section 4.1 configuration (vacuum on, independence off).
//! `algebraic_independence` names what the problem's *paper* formula
//! holds (its DIMACS artefact, Table 3): both settings search the same
//! formula and share one fingerprint, and the flag is echoed as sent. It
//! is refused above [`MAX_FULL_SAT_MODES`] modes, where that formula is
//! not built.

use fermihedral::{EncodingProblem, Objective, MAX_FULL_SAT_MODES};
use fermion::MajoranaMonomial;
use jsonkit::{obj, Value};
use pauli::PauliString;

/// The JSON form of a problem (the exact schema [`problem_from_json`]
/// parses).
pub fn problem_to_json(problem: &EncodingProblem) -> Value {
    let objective = match problem.objective() {
        Objective::MajoranaWeight => Value::Str("majorana".into()),
        Objective::HamiltonianWeight(monomials) => obj([(
            "hamiltonian",
            Value::Arr(
                monomials
                    .iter()
                    .map(|m| {
                        Value::Arr(m.indices().iter().map(|&i| Value::Num(i as f64)).collect())
                    })
                    .collect(),
            ),
        )]),
    };
    obj([
        ("modes", Value::Num(problem.num_modes() as f64)),
        ("objective", objective),
        (
            "algebraic_independence",
            Value::Bool(problem.has_algebraic_independence()),
        ),
        (
            "vacuum_condition",
            Value::Bool(problem.has_vacuum_condition()),
        ),
    ])
}

/// Parses a problem from its JSON form. `max_modes` caps the accepted
/// size (servers bound it; the trusted wire passes `None`).
///
/// # Errors
///
/// A human-readable message naming the offending field.
pub fn problem_from_json(doc: &Value, max_modes: Option<usize>) -> Result<EncodingProblem, String> {
    let modes = doc
        .get("modes")
        .ok_or("missing field \"modes\"")?
        .as_usize()
        .ok_or("\"modes\" must be a non-negative integer")?;
    if modes == 0 {
        return Err("\"modes\" must be at least 1".into());
    }
    if let Some(cap) = max_modes {
        if modes > cap {
            return Err(format!("\"modes\" exceeds this server's limit of {cap}"));
        }
    }

    let objective = match doc.get("objective") {
        None => Objective::MajoranaWeight,
        Some(Value::Str(s)) if s == "majorana" => Objective::MajoranaWeight,
        Some(Value::Str(s)) => {
            return Err(format!(
                "unknown objective {s:?} (use \"majorana\" or {{\"hamiltonian\": [[..]]}})"
            ))
        }
        Some(v) => {
            let monomials = v
                .get("hamiltonian")
                .ok_or("\"objective\" must be \"majorana\" or {\"hamiltonian\": [[..]]}")?
                .as_arr()
                .ok_or("\"hamiltonian\" must be an array of monomials")?;
            if monomials.is_empty() {
                return Err("\"hamiltonian\" must name at least one monomial".into());
            }
            let mut parsed = Vec::with_capacity(monomials.len());
            for (i, monomial) in monomials.iter().enumerate() {
                let indices = monomial
                    .as_arr()
                    .ok_or_else(|| format!("monomial {i} must be an array of Majorana indices"))?;
                if indices.is_empty() {
                    return Err(format!("monomial {i} is empty"));
                }
                let mut idx = Vec::with_capacity(indices.len());
                for v in indices {
                    let n = v
                        .as_usize()
                        .ok_or_else(|| format!("monomial {i} has a non-integer index"))?;
                    if n >= 2 * modes {
                        return Err(format!(
                            "monomial {i} index {n} out of range (< {})",
                            2 * modes
                        ));
                    }
                    idx.push(n as u32);
                }
                idx.sort_unstable();
                if idx.windows(2).any(|w| w[0] == w[1]) {
                    return Err(format!("monomial {i} repeats an index"));
                }
                parsed.push(MajoranaMonomial::from_sorted(idx));
            }
            Objective::HamiltonianWeight(parsed)
        }
    };

    let get_bool = |name: &str| -> Result<Option<bool>, String> {
        match doc.get(name) {
            None => Ok(None),
            Some(v) => v
                .as_bool()
                .map(Some)
                .ok_or_else(|| format!("{name:?} must be a boolean")),
        }
    };
    let mut problem = EncodingProblem::new(modes, objective);
    if let Some(on) = get_bool("algebraic_independence")? {
        if on && modes > MAX_FULL_SAT_MODES {
            return Err(format!(
                "\"algebraic_independence\" is limited to {MAX_FULL_SAT_MODES} modes"
            ));
        }
        problem = problem.with_algebraic_independence(on);
    }
    if let Some(on) = get_bool("vacuum_condition")? {
        problem = problem.with_vacuum_condition(on);
    }
    Ok(problem)
}

/// An encoding as it travels in every JSON document of the workspace
/// (compile responses, cache entries, shard payloads): an array of
/// Pauli-string texts.
pub fn strings_to_json(strings: &[PauliString]) -> Value {
    Value::Arr(strings.iter().map(|s| Value::Str(s.to_string())).collect())
}

/// Parses the encoding under `field` (the [`strings_to_json`] form);
/// absent or `null` is "none". Syntax only — whether the strings encode
/// the problem at hand is for [`check_encoding`](crate::check_encoding) to
/// say, wherever they are about to be trusted.
///
/// # Errors
///
/// A human-readable message naming `field`.
pub fn strings_from_json(doc: &Value, field: &str) -> Result<Option<Vec<PauliString>>, String> {
    let Some(value) = doc.get(field).filter(|v| !matches!(v, Value::Null)) else {
        return Ok(None);
    };
    let texts = value.as_arr().ok_or(format!("{field:?} mistyped"))?;
    let parsed = texts.iter().map(|text| {
        let text = text.as_str().ok_or(format!("non-string {field:?} entry"))?;
        text.parse::<PauliString>()
            .map_err(|_| format!("unparseable Pauli string in {field:?}"))
    });
    parsed.collect::<Result<Vec<_>, _>>().map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint;

    #[test]
    fn round_trips_preserve_the_fingerprint() {
        let problems = [
            EncodingProblem::new(3, Objective::MajoranaWeight),
            EncodingProblem::full_sat(4, Objective::MajoranaWeight).with_vacuum_condition(false),
            EncodingProblem::new(
                2,
                Objective::HamiltonianWeight(vec![
                    MajoranaMonomial::from_sorted(vec![0, 1]),
                    MajoranaMonomial::from_sorted(vec![0, 1, 2, 3]),
                ]),
            ),
        ];
        for problem in problems {
            let back = problem_from_json(&problem_to_json(&problem), None).expect("parses");
            assert_eq!(fingerprint(&back), fingerprint(&problem));
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        let parse = |text: &str, cap| problem_from_json(&jsonkit::parse(text).unwrap(), cap);
        assert!(parse("{}", None).is_err(), "modes required");
        assert!(parse(r#"{"modes": 0}"#, None).is_err());
        assert!(parse(r#"{"modes": 9}"#, Some(8)).is_err(), "server cap");
        assert!(parse(r#"{"modes": 9, "algebraic_independence": true}"#, None).is_err());
        assert!(parse(r#"{"modes": 2, "objective": {"hamiltonian": []}}"#, None).is_err());
        assert!(parse(
            r#"{"modes": 2, "objective": {"hamiltonian": [[0,0]]}}"#,
            None
        )
        .is_err());
        assert!(parse(r#"{"modes": 2, "objective": {"hamiltonian": [[4]]}}"#, None).is_err());
        assert!(parse(r#"{"modes": 2, "objective": "weird"}"#, None).is_err());
        assert!(parse(r#"{"modes": 2, "vacuum_condition": 3}"#, None).is_err());
    }
}
