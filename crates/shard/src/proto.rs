//! JSON payloads carried inside [`crate::wire`] `Job`, `Incumbent` and
//! `Result` frames.
//!
//! The frame layer ([`crate::wire`]) is deliberately ignorant of what a job
//! or a result *is*; this module owns those three schemas. (A `BlackBox`
//! payload is a [`telemetry::recorder::Snapshot`] as JSON, whose schema
//! the telemetry crate owns.) Everything is explicit field-by-field
//! (de)serialization over `jsonkit` — the
//! container has no serde — and every parser returns `Option`/`Err`
//! instead of panicking, because the bytes come from another process
//! that may have been killed mid-write.
//!
//! A job names its lanes by [`Strategy::name`] and never describes them:
//! the worker rebuilds each one from its own [`default_portfolio`] of the
//! job's problem, and refuses a job naming a lane it cannot build.
//!
//! The job carries the coordinator's fingerprint of the problem; the
//! worker recomputes it after parsing and refuses on mismatch. Clause
//! frames are only sound between processes solving the *identical* CNF,
//! so any schema drift must fail loudly before a single clause moves.

use engine::{
    default_portfolio, strings_from_json, strings_to_json, EngineConfig, Strategy, WorkerReport,
};
use fermihedral::EncodingProblem;
use jsonkit::{obj, Value};
use pauli::PauliString;
use std::time::Duration;

/// A work assignment for one shard: the problem, this shard's lanes, and
/// the race's deadline.
#[derive(Debug, Clone)]
pub struct Job {
    /// This worker's shard index.
    pub shard: usize,
    /// Total shards in the race (diagnostics).
    pub total_shards: usize,
    /// Coordinator-side fingerprint (hex) of `problem`; the worker
    /// verifies it against its own parse.
    pub fingerprint: String,
    /// The problem, identical in every shard.
    pub problem: EncodingProblem,
    /// The lanes this shard races; on the wire, their names.
    pub strategies: Vec<Strategy>,
    /// Wall-clock budget (the coordinator enforces it too, with grace).
    pub total_timeout: Option<Duration>,
    /// Warm-start encoding for the job's problem (`2N` strings), found by
    /// the coordinator in its cache — a same-size best-so-far entry or a
    /// smaller optimum lifted through `encodings::embed`. Workers
    /// re-validate and re-measure it before seeding their race (the bytes
    /// crossed a process boundary).
    pub warm_hint: Option<Vec<PauliString>>,
    /// Trace context id of the coordinator's recording session. `Some`
    /// asks the worker to record telemetry spans and ship them back in
    /// `Trace` frames tagged with this id; `None` keeps recording off.
    pub trace_id: Option<String>,
}

impl Job {
    /// The engine configuration this job describes (cache-less: the
    /// coordinator owns the cache).
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            strategies: self.strategies.clone(),
            total_timeout: self.total_timeout,
            cache_dir: None,
            cache_byte_cap: None,
            warm_hint: self.warm_hint.clone(),
            shards: 0,
        }
    }

    /// Serializes to the `Job` frame payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let lanes = self.strategies.iter().map(|s| Value::Str(s.name()));
        obj([
            ("shard", Value::Num(self.shard as f64)),
            ("total_shards", Value::Num(self.total_shards as f64)),
            ("fingerprint", Value::Str(self.fingerprint.clone())),
            ("problem", engine::problem_to_json(&self.problem)),
            ("strategies", Value::Arr(lanes.collect())),
            (
                "total_timeout_ms",
                self.total_timeout
                    .map_or(Value::Null, |t| Value::Num(t.as_millis() as f64)),
            ),
            (
                "warm_hint",
                self.warm_hint
                    .as_deref()
                    .map_or(Value::Null, strings_to_json),
            ),
            (
                "trace_id",
                self.trace_id.clone().map_or(Value::Null, Value::Str),
            ),
        ])
        .to_json()
        .into_bytes()
    }

    /// Parses a `Job` frame payload.
    ///
    /// # Errors
    ///
    /// A human-readable message naming what was malformed.
    pub fn from_bytes(bytes: &[u8]) -> Result<Job, String> {
        let text = std::str::from_utf8(bytes).map_err(|_| "job is not UTF-8".to_string())?;
        let doc = jsonkit::parse(text).map_err(|e| format!("job: {e}"))?;
        let usize_field = |name: &str| -> Result<usize, String> {
            doc.get(name)
                .and_then(Value::as_usize)
                .ok_or_else(|| format!("job field {name:?} missing or mistyped"))
        };
        // The workspace-wide problem schema ([`engine::problemio`]); no
        // mode cap — the coordinator already built the problem it ships.
        let problem = engine::problem_from_json(
            doc.get("problem").ok_or("job field \"problem\" missing")?,
            None,
        )?;
        let portfolio = default_portfolio(&problem);
        let strategies = doc
            .get("strategies")
            .and_then(Value::as_arr)
            .ok_or("job field \"strategies\" missing")?
            .iter()
            .map(|name| {
                let name = name.as_str().ok_or("job lane name mistyped")?;
                let lane = portfolio.iter().find(|lane| lane.name() == name);
                lane.cloned().ok_or_else(|| {
                    format!("job names lane {name:?} that this worker's portfolio lacks")
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let trace_id = match doc.get("trace_id") {
            Some(Value::Null) => None,
            Some(Value::Str(id)) => Some(id.clone()),
            _ => return Err("job field \"trace_id\" missing or mistyped".to_string()),
        };
        Ok(Job {
            shard: usize_field("shard")?,
            total_shards: usize_field("total_shards")?,
            fingerprint: doc
                .get("fingerprint")
                .and_then(Value::as_str)
                .ok_or("job field \"fingerprint\" missing")?
                .to_string(),
            problem,
            strategies,
            total_timeout: match doc.get("total_timeout_ms") {
                None | Some(Value::Null) => None,
                Some(v) => Some(Duration::from_millis(
                    v.as_usize().ok_or("\"total_timeout_ms\" mistyped")? as u64,
                )),
            },
            warm_hint: strings_from_json(&doc, "warm_hint")?,
            trace_id,
        })
    }
}

/// One shard's terminal report, carried in the `Result` frame: its lane
/// timelines and nothing else. The shard's encodings already crossed as
/// `Incumbent` frames and its floors as `Floor` frames, each once.
#[derive(Debug, Clone, Default)]
pub struct ShardResult {
    /// Per-lane timelines (merged into the coordinator's report).
    pub workers: Vec<WorkerReport>,
}

impl ShardResult {
    /// Serializes to the `Result` frame payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let workers = self.workers.iter().map(WorkerReport::to_json);
        obj([("workers", Value::Arr(workers.collect()))])
            .to_json()
            .into_bytes()
    }

    /// Parses a `Result` frame payload.
    ///
    /// # Errors
    ///
    /// A human-readable message naming what was malformed.
    pub fn from_bytes(bytes: &[u8]) -> Result<ShardResult, String> {
        let text = std::str::from_utf8(bytes).map_err(|_| "result is not UTF-8".to_string())?;
        let doc = jsonkit::parse(text).map_err(|e| format!("result: {e}"))?;
        Ok(ShardResult {
            workers: doc
                .get("workers")
                .and_then(Value::as_arr)
                .ok_or("result field \"workers\" missing")?
                .iter()
                .map(WorkerReport::from_json)
                .collect::<Option<Vec<_>>>()
                .ok_or("result field \"workers\" malformed")?,
        })
    }
}

/// An improved incumbent, carried in the `Incumbent` frame: the only
/// way a shard's encoding reaches the coordinator. It carries no
/// weight — the coordinator checks and measures the strings itself,
/// keeps the lightest as the race's witness (so it survives its
/// finder's death), and derives every `Bound` it forwards from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncumbentUpdate {
    /// The encoding itself (`2N` strings on `N` qubits).
    pub strings: Vec<PauliString>,
    /// Lane name that produced it (diagnostics / winner attribution).
    pub winner: String,
}

impl IncumbentUpdate {
    /// Serializes to the `Incumbent` frame payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        obj([
            ("strings", strings_to_json(&self.strings)),
            ("winner", Value::Str(self.winner.clone())),
        ])
        .to_json_compact()
        .into_bytes()
    }

    /// Parses an `Incumbent` frame payload.
    ///
    /// # Errors
    ///
    /// A human-readable message naming what was malformed.
    pub fn from_bytes(bytes: &[u8]) -> Result<IncumbentUpdate, String> {
        let text = std::str::from_utf8(bytes).map_err(|_| "incumbent is not UTF-8".to_string())?;
        let doc = jsonkit::parse(text).map_err(|e| format!("incumbent: {e}"))?;
        let strings =
            strings_from_json(&doc, "strings")?.ok_or("incumbent field \"strings\" missing")?;
        if strings.is_empty() {
            return Err("incumbent carries no strings".to_string());
        }
        Ok(IncumbentUpdate {
            strings,
            winner: doc
                .get("winner")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fermihedral::Objective;
    use fermion::MajoranaMonomial;
    use std::collections::BTreeMap;

    /// A job racing `problem`'s whole default portfolio.
    fn job_for(problem: EncodingProblem) -> Job {
        Job {
            shard: 1,
            total_shards: 2,
            fingerprint: engine::fingerprint(&problem).to_hex(),
            strategies: default_portfolio(&problem),
            problem,
            total_timeout: Some(Duration::from_millis(1500)),
            warm_hint: None,
            trace_id: Some("fp-1234".into()),
        }
    }

    fn sample_job() -> Job {
        job_for(EncodingProblem::full_sat(3, Objective::MajoranaWeight))
    }

    fn hamiltonian_problem() -> EncodingProblem {
        let monomials = vec![
            MajoranaMonomial::from_sorted(vec![0, 1]),
            MajoranaMonomial::from_sorted(vec![2, 3]),
            MajoranaMonomial::from_sorted(vec![0, 1, 2, 3]),
        ];
        EncodingProblem::new(2, Objective::HamiltonianWeight(monomials))
    }

    #[test]
    fn job_round_trips() {
        for job in [sample_job(), job_for(hamiltonian_problem())] {
            let back = Job::from_bytes(&job.to_bytes()).expect("parses");
            assert_eq!(back.warm_hint, None);
            assert_eq!(back.trace_id, job.trace_id);
            assert_eq!(back.shard, job.shard);
            assert_eq!(back.total_shards, job.total_shards);
            assert_eq!(back.fingerprint, job.fingerprint);
            assert_eq!(back.total_timeout, job.total_timeout);
            // The problem round-trips semantically: same fingerprint.
            assert_eq!(engine::fingerprint(&back.problem).to_hex(), job.fingerprint);
            // Lanes travel by name and resolve to exactly the lanes sent,
            // anneal schedule included.
            assert_eq!(
                format!("{:?}", back.strategies),
                format!("{:?}", job.strategies)
            );
        }
        let hamiltonian = job_for(hamiltonian_problem());
        assert!(hamiltonian
            .strategies
            .iter()
            .any(|lane| matches!(lane, Strategy::Anneal { .. })));
    }

    #[test]
    fn warm_hint_round_trips() {
        let mut job = sample_job();
        job.warm_hint = Some(vec![
            "IIX".parse().unwrap(),
            "IIY".parse().unwrap(),
            "ZXZ".parse().unwrap(),
        ]);
        let back = Job::from_bytes(&job.to_bytes()).expect("parses");
        assert_eq!(back.warm_hint, job.warm_hint);
        assert_eq!(back.engine_config().warm_hint, job.warm_hint);
        // A corrupted hint fails loudly instead of seeding garbage.
        let text = String::from_utf8(job.to_bytes()).unwrap();
        let bad = text.replace("ZXZ", "Z?Z");
        assert!(Job::from_bytes(bad.as_bytes()).is_err());
    }

    #[test]
    fn hamiltonian_objective_round_trips() {
        let job = job_for(hamiltonian_problem());
        let back = Job::from_bytes(&job.to_bytes()).expect("parses");
        assert_eq!(engine::fingerprint(&back.problem).to_hex(), job.fingerprint);
    }

    /// `payload` with its top-level fields edited.
    fn edited<R>(payload: &[u8], edit: impl FnOnce(&mut BTreeMap<String, Value>) -> R) -> Vec<u8> {
        let mut doc = jsonkit::parse(std::str::from_utf8(payload).unwrap()).unwrap();
        if let Value::Obj(fields) = &mut doc {
            edit(fields);
        }
        doc.to_json().into_bytes()
    }

    #[test]
    fn torn_payloads_fail_structured() {
        assert!(Job::from_bytes(b"{\"shard\": 1").is_err());
        assert!(Job::from_bytes(&[0xFF, 0xFE]).is_err());
        assert!(ShardResult::from_bytes(b"[]").is_err());
        let job = sample_job();
        let bytes = job.to_bytes();
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            assert!(Job::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // A lane this worker's portfolio lacks fails, naming the lane,
        // instead of racing something else.
        let unknown = edited(&bytes, |fields| {
            if let Some(Value::Arr(lanes)) = fields.get_mut("strategies") {
                lanes[0] = Value::Str("sat-descent[seed=99]".into());
            }
        });
        let err = Job::from_bytes(&unknown).unwrap_err();
        assert!(err.contains("sat-descent[seed=99]"), "{err}");
        // `trace_id` is required; `null` means off.
        let untraced = edited(&bytes, |fields| fields.remove("trace_id"));
        assert!(Job::from_bytes(&untraced).is_err());
        let off = edited(&bytes, |fields| {
            fields.insert("trace_id".into(), Value::Null)
        });
        assert_eq!(Job::from_bytes(&off).unwrap().trace_id, None);
        // A result without its lane timelines is torn.
        let result = edited(&ShardResult::default().to_bytes(), |f| f.remove("workers"));
        let err = ShardResult::from_bytes(&result).unwrap_err();
        assert!(err.contains("workers"), "{err}");
    }

    #[test]
    fn incumbent_update_round_trips() {
        let update = IncumbentUpdate {
            strings: ["XXII", "ZIII", "YXII", "IZII"]
                .iter()
                .map(|s| s.parse::<PauliString>().expect("valid Pauli"))
                .collect(),
            winner: "sat-descent[seed=1]".into(),
        };
        let back = IncumbentUpdate::from_bytes(&update.to_bytes()).expect("parses");
        assert_eq!(back, update);
        // Torn payloads must fail structured, never panic.
        let bytes = update.to_bytes();
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            assert!(IncumbentUpdate::from_bytes(&bytes[..cut]).is_err());
        }
        assert!(IncumbentUpdate::from_bytes(b"{}").is_err());
        assert!(
            IncumbentUpdate::from_bytes(br#"{"strings":[],"winner":""}"#).is_err(),
            "an incumbent with no strings is meaningless"
        );
    }
}
