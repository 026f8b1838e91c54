//! The JSON request/response schema of the compile API.
//!
//! Request (`POST /v1/compile`):
//!
//! ```json
//! {
//!   "modes": 4,
//!   "objective": "majorana",
//!   "algebraic_independence": false,
//!   "vacuum_condition": true,
//!   "deadline_ms": 5000
//! }
//! ```
//!
//! `objective` is either the string `"majorana"` (Hamiltonian-independent,
//! the default) or `{"hamiltonian": [[0,1],[2,3]]}` — a list of Majorana
//! monomials, each a list of distinct indices `< 2 * modes`. Unknown fields
//! are rejected: a typo'd knob silently ignored would compile the wrong
//! problem. `algebraic_independence` (at most 8 modes) names the paper
//! formula's §3.4 clauses, which no solve carries: a request with it and
//! one without compile the same search formula under one fingerprint, so
//! either answers the other from the cache.
//!
//! Response: see [`compile_document`].

use engine::{strings_to_json, CacheEntry, CacheStatus, EngineOutcome, Floor};
use fermihedral::EncodingProblem;
use jsonkit::{obj, Value};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// A parsed compile request.
#[derive(Debug, Clone)]
pub struct CompileRequest {
    /// The problem to compile.
    pub problem: EncodingProblem,
    /// Requested deadline; `None` uses the server default.
    pub deadline: Option<Duration>,
}

/// The fields `POST /v1/compile` accepts.
const KNOWN_FIELDS: [&str; 5] = [
    "modes",
    "objective",
    "algebraic_independence",
    "vacuum_condition",
    "deadline_ms",
];

/// The fields of a request body: a JSON object naming only known fields
/// — the part of the schema `/v1/compile` and `/v1/compile-batch` share.
fn parse_fields(body: &[u8]) -> Result<BTreeMap<String, Value>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let Value::Obj(fields) = jsonkit::parse(text).map_err(|e| e.to_string())? else {
        return Err("body must be a JSON object".into());
    };
    for key in fields.keys() {
        if !KNOWN_FIELDS.contains(&key.as_str()) {
            return Err(format!("unknown field {key:?}"));
        }
    }
    Ok(fields)
}

/// The request's `deadline_ms` field, when it names one.
fn parse_deadline(field: Option<&Value>) -> Result<Option<Duration>, String> {
    let Some(v) = field else {
        return Ok(None);
    };
    let ms = v
        .as_usize()
        .filter(|&ms| ms > 0)
        .ok_or("\"deadline_ms\" must be a positive integer")?;
    Ok(Some(Duration::from_millis(ms as u64)))
}

/// Parses and validates a compile request body.
///
/// # Errors
///
/// A human-readable message (answered as 400) naming the offending field.
pub fn parse_compile_request(body: &[u8], max_modes: usize) -> Result<CompileRequest, String> {
    let doc = Value::Obj(parse_fields(body)?);
    // The problem itself parses through the schema shared with the shard
    // wire ([`engine::problemio`]), so the HTTP surface and the worker
    // protocol accept exactly the same documents.
    let problem = engine::problem_from_json(&doc, Some(max_modes))?;
    let deadline = parse_deadline(doc.get("deadline_ms"))?;
    Ok(CompileRequest { problem, deadline })
}

/// A parsed batch compile request: one problem family at several sizes.
#[derive(Debug, Clone)]
pub struct BatchRequest {
    /// Per-size problems, sorted ascending by mode count (the warm-start
    /// chain order) and deduplicated.
    pub problems: Vec<EncodingProblem>,
    /// Whole-batch deadline; `None` uses the server default.
    pub deadline: Option<Duration>,
}

/// Parses and validates a `POST /v1/compile-batch` body.
///
/// The schema is [`parse_compile_request`]'s with one change: `modes` is
/// an **array** of sizes. All entries share the family fields (objective,
/// flags) — one family by construction, which is what makes small→large
/// scheduling a warm-start chain rather than a coincidence.
///
/// # Errors
///
/// A human-readable message (answered as 400) naming the offending field.
pub fn parse_batch_request(body: &[u8], max_modes: usize) -> Result<BatchRequest, String> {
    let fields = parse_fields(body)?;
    let Some(Value::Arr(raw_sizes)) = fields.get("modes") else {
        return Err("\"modes\" must be an array of sizes in a batch request".into());
    };
    if raw_sizes.is_empty() {
        return Err("\"modes\" must name at least one size".into());
    }
    let mut sizes = Vec::with_capacity(raw_sizes.len());
    for v in raw_sizes {
        let n = v
            .as_usize()
            .filter(|&n| n >= 1)
            .ok_or("every batch size must be a positive integer")?;
        if n > max_modes {
            return Err(format!("batch size {n} exceeds the {max_modes}-mode limit"));
        }
        sizes.push(n);
    }
    // Small→large is the whole point of batching: each solve warm-starts
    // from its smaller sibling.
    sizes.sort_unstable();
    sizes.dedup();

    let mut problems = Vec::with_capacity(sizes.len());
    for size in sizes {
        let mut entry = fields.clone();
        entry.insert("modes".into(), Value::Num(size as f64));
        entry.remove("deadline_ms");
        problems.push(engine::problem_from_json(
            &Value::Obj(entry),
            Some(max_modes),
        )?);
    }

    let deadline = parse_deadline(fields.get("deadline_ms"))?;
    Ok(BatchRequest { problems, deadline })
}

/// Terminal status of a compile request or batch entry, serialized into
/// the response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompileStatus {
    /// The returned encoding's floor (UNSAT or bound) meets its weight.
    Optimal,
    /// The deadline fired first; the returned encoding is best-so-far.
    DeadlineExceeded,
    /// Server shutdown cancelled the solve; best-so-far returned.
    Cancelled,
    /// The engine finished its budgets without a certificate.
    BestEffort,
    /// The job never ran (queue or quota overflow, shutdown).
    Shed,
    /// The batch deadline passed before this entry's turn.
    Skipped,
}

impl CompileStatus {
    /// Wire form.
    pub fn as_str(self) -> &'static str {
        match self {
            CompileStatus::Optimal => "optimal",
            CompileStatus::DeadlineExceeded => "deadline-exceeded",
            CompileStatus::Cancelled => "cancelled",
            CompileStatus::BestEffort => "best-effort",
            CompileStatus::Shed => "shed",
            CompileStatus::Skipped => "skipped",
        }
    }
}

/// How one admission ended — what the request path hands to
/// [`compile_document`], for a solo compile and a batch entry alike. A
/// solve's coalescing cell completes with one, shared by every request
/// attached to it.
#[derive(Debug, Clone)]
pub struct Settled {
    /// The status the document reports.
    pub status: CompileStatus,
    /// True when this request attached to a solve another request led.
    pub coalesced: bool,
    /// What there is to report.
    pub answer: Answer,
}

impl Settled {
    /// An uncoalesced outcome; a request that attached to another's solve
    /// marks its own copy.
    pub fn new(status: CompileStatus, answer: Answer) -> Settled {
        Settled {
            status,
            coalesced: false,
            answer,
        }
    }

    /// The outcome of a job that never ran.
    pub fn shed(http_status: u16, reason: impl Into<String>) -> Settled {
        Settled::new(
            CompileStatus::Shed,
            Answer::Refused(http_status, reason.into()),
        )
    }
}

/// The substance of a [`Settled`].
#[derive(Debug, Clone)]
pub enum Answer {
    /// A cache entry, no solve of this request's own: the proven optimum
    /// on the fast path, or best-so-far when the request's deadline passed
    /// while a longer-deadlined solve was still running.
    Cached(CacheEntry),
    /// The outcome of the solve this request led or attached to.
    Raced(Arc<EngineOutcome>),
    /// The job never ran: the HTTP status a solo request is answered with
    /// (429 or 503), and why.
    Refused(u16, String),
    /// Nothing: the deadline passed empty-handed, or (in a batch) before
    /// this entry's turn.
    Nothing,
}

/// The compile document: the `POST /v1/compile` response body and (with
/// `modes` added) every `POST /v1/compile-batch` entry. Always the same
/// twelve keys, `null` where the outcome has nothing to report; a refused
/// job adds `error` and `http_status`.
pub fn compile_document(fingerprint_hex: &str, settled: &Settled, elapsed: Duration) -> Value {
    // A cache entry is named as the engine names it: `cache[<its lane>]`.
    let (weight, strings, winner, floor, from_cache, warm_start) = match &settled.answer {
        Answer::Cached(entry) => (
            Some(entry.weight),
            Some(&entry.strings),
            Some(format!("cache[{}]", entry.strategy)),
            entry.floor,
            true,
            // No race ran, so no warm start.
            None,
        ),
        Answer::Raced(outcome) => (
            outcome.weight(),
            outcome.best.as_ref().map(|b| &b.strings),
            outcome.report.winner.clone(),
            outcome.floor,
            outcome.report.cache == CacheStatus::HitOptimal,
            outcome.report.warm_start.as_ref(),
        ),
        Answer::Refused(..) | Answer::Nothing => (None, None, None, None, false, None),
    };
    let fields = [
        ("fingerprint", Value::Str(fingerprint_hex.to_string())),
        ("status", Value::Str(settled.status.as_str().to_string())),
        (
            "optimal",
            Value::Bool(settled.status == CompileStatus::Optimal),
        ),
        (
            "weight",
            weight.map_or(Value::Null, |w| Value::Num(w as f64)),
        ),
        (
            "strings",
            strings.map_or(Value::Null, |s| strings_to_json(s)),
        ),
        ("winner", winner.map_or(Value::Null, Value::Str)),
        ("from_cache", Value::Bool(from_cache)),
        // How the race was warm-started (`null` for cold runs): source
        // ("cache-entry" | "cross-size" | "config"), the source's mode
        // count for cross-size transfer, and the opening incumbent weight.
        (
            "warm_start",
            warm_start.map_or(Value::Null, |w| w.to_json()),
        ),
        ("coalesced", Value::Bool(settled.coalesced)),
        ("elapsed_ms", Value::Num(millis(elapsed))),
    ];
    // Plus the proved lower bound and its prover ("unsat" | "bound").
    let mut doc = obj(fields.into_iter().chain(Floor::to_json(floor)));
    if let (Answer::Refused(status, reason), Value::Obj(fields)) = (&settled.answer, &mut doc) {
        fields.insert("error".into(), Value::Str(reason.clone()));
        fields.insert("http_status".into(), Value::Num(*status as f64));
    }
    doc
}

/// A duration as the fractional milliseconds every `elapsed_ms` reports.
pub(crate) fn millis(duration: Duration) -> f64 {
    (duration.as_micros() as f64) / 1_000.0
}

/// The `GET /v1/solution/<fingerprint>` response body.
pub fn solution_response(fingerprint_hex: &str, entry: &CacheEntry) -> Value {
    obj([
        ("fingerprint", Value::Str(fingerprint_hex.to_string())),
        ("weight", Value::Num(entry.weight as f64)),
        ("optimal", Value::Bool(entry.is_optimal())),
        ("strings", strings_to_json(&entry.strings)),
        ("strategy", Value::Str(entry.strategy.clone())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use fermihedral::Objective;

    fn parse(body: &str) -> Result<CompileRequest, String> {
        parse_compile_request(body.as_bytes(), 8)
    }

    #[test]
    fn parses_minimal_and_full_requests() {
        let minimal = parse(r#"{"modes": 3}"#).unwrap();
        assert_eq!(minimal.problem.num_modes(), 3);
        assert!(matches!(
            minimal.problem.objective(),
            Objective::MajoranaWeight
        ));
        assert!(minimal.deadline.is_none());
        assert!(minimal.problem.has_vacuum_condition());
        assert!(!minimal.problem.has_algebraic_independence());

        let full = parse(
            r#"{
                "modes": 2,
                "objective": {"hamiltonian": [[1, 0], [2, 3]]},
                "algebraic_independence": true,
                "vacuum_condition": false,
                "deadline_ms": 1500
            }"#,
        )
        .unwrap();
        assert_eq!(full.deadline, Some(Duration::from_millis(1500)));
        assert!(full.problem.has_algebraic_independence());
        assert!(!full.problem.has_vacuum_condition());
        match full.problem.objective() {
            Objective::HamiltonianWeight(ms) => {
                assert_eq!(ms.len(), 2);
                // Unsorted input was normalized.
                assert_eq!(ms[0].indices(), &[0, 1]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_requests_with_field_naming_messages() {
        for (body, needle) in [
            ("", "parse error"),
            ("[]", "must be a JSON object"),
            ("{}", "missing field \"modes\""),
            (r#"{"modes": 0}"#, "at least 1"),
            (r#"{"modes": 99}"#, "limit"),
            (r#"{"modes": 2.5}"#, "non-negative integer"),
            (
                r#"{"modes": 2, "objective": "frobnicate"}"#,
                "unknown objective",
            ),
            (
                r#"{"modes": 2, "objective": {"hamiltonian": []}}"#,
                "at least one",
            ),
            (
                r#"{"modes": 2, "objective": {"hamiltonian": [[]]}}"#,
                "empty",
            ),
            (
                r#"{"modes": 2, "objective": {"hamiltonian": [[4]]}}"#,
                "out of range",
            ),
            (
                r#"{"modes": 2, "objective": {"hamiltonian": [[1, 1]]}}"#,
                "repeats",
            ),
            (r#"{"modes": 2, "deadline_ms": 0}"#, "positive"),
            (r#"{"modes": 2, "deadline_ms": -5}"#, "positive"),
            (r#"{"modes": 2, "vacuum_condition": 1}"#, "boolean"),
            (r#"{"modes": 2, "frobnicate": true}"#, "unknown field"),
        ] {
            let err = parse(body).expect_err(body);
            assert!(
                err.contains(needle),
                "{body}: error {err:?} should mention {needle:?}"
            );
        }
    }

    #[test]
    fn responses_serialize_and_parse() {
        let doc = compile_document(
            &"ab".repeat(32),
            &Settled {
                coalesced: true,
                ..Settled::new(CompileStatus::DeadlineExceeded, Answer::Nothing)
            },
            Duration::from_millis(1250),
        );
        let parsed = jsonkit::parse(&doc.to_json()).unwrap();
        assert_eq!(
            parsed.get("status").unwrap().as_str(),
            Some("deadline-exceeded")
        );
        assert_eq!(parsed.get("optimal").unwrap().as_bool(), Some(false));
        assert_eq!(parsed.get("coalesced").unwrap().as_bool(), Some(true));
        assert!(parsed.get("weight").unwrap().as_f64().is_none());
        // The warm_start field is always present (null without one), so
        // clients can rely on the schema.
        assert!(matches!(parsed.get("warm_start"), Some(Value::Null)));
    }
}
