//! JSON payloads carried inside [`crate::wire`] `Job` and `Result` frames.
//!
//! The frame layer ([`crate::wire`]) is deliberately ignorant of what a job
//! or a result *is*; this module owns those two schemas. Everything is
//! explicit field-by-field (de)serialization over `jsonkit` — the
//! container has no serde — and every parser returns `Option`/`Err`
//! instead of panicking, because the bytes come from another process
//! that may have been killed mid-write.
//!
//! The job carries the coordinator's fingerprint of the problem; the
//! worker recomputes it after parsing and refuses on mismatch. Clause
//! frames are only sound between processes solving the *identical* CNF,
//! so any schema drift must fail loudly before a single clause moves.

use engine::{
    strings_from_json, strings_to_json, ClauseSharing, EngineConfig, Strategy, WorkerReport,
};
use fermihedral::{AnnealConfig, EncodingProblem};
use jsonkit::{obj, Value};
use pauli::PauliString;
use sat::{ExchangeConfig, ExportLbd, RestartPolicyKind};
use std::time::Duration;

/// A work assignment for one shard: the problem, this shard's lanes, and
/// the engine budgets the race runs under.
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
    /// The lanes this shard races.
    pub strategies: Vec<Strategy>,
    /// Wall-clock budget (the coordinator enforces it too, with grace).
    pub total_timeout: Option<Duration>,
    /// Per-call conflict budget for descent lanes.
    pub conflict_budget_per_call: Option<u64>,
    /// Keep descending through exhausted per-call budgets.
    pub persist_on_budget: bool,
    /// Clause-exchange switch and eligibility knobs.
    pub clause_sharing: ClauseSharing,
    /// Heavy-lane concurrency cap inside this worker.
    pub max_concurrency: Option<usize>,
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
            conflict_budget_per_call: self.conflict_budget_per_call,
            persist_on_budget: self.persist_on_budget,
            clause_sharing: self.clause_sharing,
            cache_dir: None,
            cache_byte_cap: None,
            warm_hint: self.warm_hint.clone(),
            max_concurrency: self.max_concurrency,
            shards: 0,
        }
    }

    /// Serializes to the `Job` frame payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        obj([
            ("shard", Value::Num(self.shard as f64)),
            ("total_shards", Value::Num(self.total_shards as f64)),
            ("fingerprint", Value::Str(self.fingerprint.clone())),
            ("problem", engine::problem_to_json(&self.problem)),
            (
                "strategies",
                Value::Arr(self.strategies.iter().map(strategy_json).collect()),
            ),
            (
                "total_timeout_ms",
                self.total_timeout
                    .map_or(Value::Null, |t| Value::Num(t.as_millis() as f64)),
            ),
            (
                "conflict_budget_per_call",
                self.conflict_budget_per_call.map_or(Value::Null, u64_json),
            ),
            ("persist_on_budget", Value::Bool(self.persist_on_budget)),
            (
                "clause_sharing",
                obj([
                    ("enabled", Value::Bool(self.clause_sharing.enabled)),
                    (
                        "export_lbd_floor",
                        Value::Num(self.clause_sharing.exchange.export_lbd.floor as f64),
                    ),
                    (
                        "export_lbd_initial",
                        Value::Num(self.clause_sharing.exchange.export_lbd.initial as f64),
                    ),
                    (
                        "export_lbd_ceiling",
                        Value::Num(self.clause_sharing.exchange.export_lbd.ceiling as f64),
                    ),
                    (
                        "max_shared_len",
                        Value::Num(self.clause_sharing.exchange.max_shared_len as f64),
                    ),
                    (
                        "capacity_per_lane",
                        Value::Num(self.clause_sharing.exchange.capacity_per_lane as f64),
                    ),
                ]),
            ),
            (
                "max_concurrency",
                self.max_concurrency
                    .map_or(Value::Null, |c| Value::Num(c as f64)),
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
        let sharing = doc
            .get("clause_sharing")
            .ok_or("job field \"clause_sharing\" missing")?;
        let sharing_usize = |name: &str| -> Result<usize, String> {
            sharing
                .get(name)
                .and_then(Value::as_usize)
                .ok_or_else(|| format!("clause_sharing field {name:?} missing or mistyped"))
        };
        Ok(Job {
            shard: usize_field("shard")?,
            total_shards: usize_field("total_shards")?,
            fingerprint: doc
                .get("fingerprint")
                .and_then(Value::as_str)
                .ok_or("job field \"fingerprint\" missing")?
                .to_string(),
            problem: engine::problem_from_json(
                doc.get("problem").ok_or("job field \"problem\" missing")?,
                None,
            )?,
            strategies: doc
                .get("strategies")
                .and_then(Value::as_arr)
                .ok_or("job field \"strategies\" missing")?
                .iter()
                .map(strategy_from_json)
                .collect::<Result<Vec<_>, _>>()?,
            total_timeout: match doc.get("total_timeout_ms") {
                None | Some(Value::Null) => None,
                Some(v) => Some(Duration::from_millis(
                    v.as_usize().ok_or("\"total_timeout_ms\" mistyped")? as u64,
                )),
            },
            conflict_budget_per_call: match doc.get("conflict_budget_per_call") {
                None | Some(Value::Null) => None,
                Some(_) => Some(u64_from_json(&doc, "conflict_budget_per_call")?),
            },
            persist_on_budget: doc
                .get("persist_on_budget")
                .and_then(Value::as_bool)
                .ok_or("job field \"persist_on_budget\" missing")?,
            clause_sharing: ClauseSharing {
                enabled: sharing
                    .get("enabled")
                    .and_then(Value::as_bool)
                    .ok_or("clause_sharing field \"enabled\" missing")?,
                exchange: ExchangeConfig {
                    export_lbd: ExportLbd {
                        floor: sharing_usize("export_lbd_floor")? as u32,
                        initial: sharing_usize("export_lbd_initial")? as u32,
                        ceiling: sharing_usize("export_lbd_ceiling")? as u32,
                    },
                    max_shared_len: sharing_usize("max_shared_len")?,
                    capacity_per_lane: sharing_usize("capacity_per_lane")?,
                },
            },
            max_concurrency: match doc.get("max_concurrency") {
                None | Some(Value::Null) => None,
                Some(v) => Some(v.as_usize().ok_or("\"max_concurrency\" mistyped")?),
            },
            warm_hint: strings_from_json(&doc, "warm_hint")?,
            // Tolerant: jobs written before tracing existed mean "off".
            trace_id: doc
                .get("trace_id")
                .and_then(Value::as_str)
                .map(str::to_string),
        })
    }
}

/// One shard's terminal report, carried in the `Result` frame.
#[derive(Debug, Clone, Default)]
pub struct ShardResult {
    /// Best weight this shard achieved.
    pub weight: Option<usize>,
    /// The encoding at that weight.
    pub strings: Option<Vec<PauliString>>,
    /// Strongest UNSAT floor this shard proved.
    pub proved_floor: Option<usize>,
    /// True when this shard certified its own best as optimal.
    pub optimal: bool,
    /// Lane name that produced the best encoding.
    pub winner: Option<String>,
    /// Per-lane timelines (merged into the coordinator's report).
    pub workers: Vec<WorkerReport>,
}

impl ShardResult {
    /// Serializes to the `Result` frame payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        obj([
            (
                "weight",
                self.weight.map_or(Value::Null, |w| Value::Num(w as f64)),
            ),
            (
                "strings",
                self.strings.as_deref().map_or(Value::Null, strings_to_json),
            ),
            (
                "proved_floor",
                self.proved_floor
                    .map_or(Value::Null, |f| Value::Num(f as f64)),
            ),
            ("optimal", Value::Bool(self.optimal)),
            (
                "winner",
                self.winner.clone().map_or(Value::Null, Value::Str),
            ),
            (
                "workers",
                Value::Arr(self.workers.iter().map(WorkerReport::to_json).collect()),
            ),
        ])
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
            weight: doc.get("weight").and_then(Value::as_usize),
            strings: strings_from_json(&doc, "strings")?,
            proved_floor: doc.get("proved_floor").and_then(Value::as_usize),
            optimal: doc
                .get("optimal")
                .and_then(Value::as_bool)
                .ok_or("result field \"optimal\" missing")?,
            winner: doc
                .get("winner")
                .and_then(Value::as_str)
                .map(str::to_string),
            workers: doc
                .get("workers")
                .and_then(Value::as_arr)
                .unwrap_or(&[])
                .iter()
                .map(WorkerReport::from_json)
                .collect::<Option<Vec<_>>>()
                .ok_or("result field \"workers\" malformed")?,
        })
    }
}

/// A worker's flight-recorder checkpoint, carried in the `BlackBox`
/// frame: enough context to explain a corpse without its stderr. The
/// worker ships one right after parsing its job (so even an early kill
/// leaves the job context behind), then periodically, then once more
/// before its terminal `Result`; the coordinator keeps only the latest
/// per worker and folds it into `postmortem-<shard>.json` when the
/// worker dies or breaks protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct BlackBoxCheckpoint {
    /// The reporting worker's shard index.
    pub shard: usize,
    /// Fingerprint of the problem the worker was racing.
    pub fingerprint: String,
    /// Mode count of that problem.
    pub modes: usize,
    /// Lane names assigned to this shard.
    pub lanes: Vec<String>,
    /// The worker's [`telemetry::recorder::Snapshot`] as JSON (opaque
    /// here: the telemetry crate owns the record schema).
    pub flight_recorder: Value,
}

impl BlackBoxCheckpoint {
    /// Serializes to the `BlackBox` frame payload (compact: checkpoints
    /// ride the pump loop alongside clause traffic).
    pub fn to_bytes(&self) -> Vec<u8> {
        obj([
            ("shard", Value::Num(self.shard as f64)),
            ("fingerprint", Value::Str(self.fingerprint.clone())),
            ("modes", Value::Num(self.modes as f64)),
            (
                "lanes",
                Value::Arr(self.lanes.iter().cloned().map(Value::Str).collect()),
            ),
            ("flight_recorder", self.flight_recorder.clone()),
        ])
        .to_json_compact()
        .into_bytes()
    }

    /// Parses a `BlackBox` frame payload.
    ///
    /// # Errors
    ///
    /// A human-readable message naming what was malformed.
    pub fn from_bytes(bytes: &[u8]) -> Result<BlackBoxCheckpoint, String> {
        let text = std::str::from_utf8(bytes).map_err(|_| "checkpoint is not UTF-8".to_string())?;
        let doc = jsonkit::parse(text).map_err(|e| format!("checkpoint: {e}"))?;
        Ok(BlackBoxCheckpoint {
            shard: doc
                .get("shard")
                .and_then(Value::as_usize)
                .ok_or("checkpoint field \"shard\" missing or mistyped")?,
            fingerprint: doc
                .get("fingerprint")
                .and_then(Value::as_str)
                .ok_or("checkpoint field \"fingerprint\" missing")?
                .to_string(),
            modes: doc
                .get("modes")
                .and_then(Value::as_usize)
                .ok_or("checkpoint field \"modes\" missing or mistyped")?,
            lanes: doc
                .get("lanes")
                .and_then(Value::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(|v| v.as_str().map(str::to_string))
                .collect(),
            flight_recorder: doc.get("flight_recorder").cloned().unwrap_or(Value::Null),
        })
    }
}

/// An improved incumbent *with its witness*, carried in the `Incumbent`
/// frame alongside the weight-only `Bound` broadcast. The coordinator
/// keeps the lightest validated one per race, so the artifact behind a
/// bound announcement survives its finder's death (a SIGKILL'd worker
/// otherwise takes the only copy of the encoding with it, after its
/// bound already steered every surviving lane below re-finding it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncumbentUpdate {
    /// Measured total Pauli weight of `strings`.
    pub weight: usize,
    /// The encoding itself (`2N` strings on `N` qubits).
    pub strings: Vec<PauliString>,
    /// Lane name that produced it (diagnostics / winner attribution).
    pub winner: String,
}

impl IncumbentUpdate {
    /// Serializes to the `Incumbent` frame payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        obj([
            ("weight", Value::Num(self.weight as f64)),
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
            weight: doc
                .get("weight")
                .and_then(Value::as_usize)
                .ok_or("incumbent field \"weight\" missing or mistyped")?,
            strings,
            winner: doc
                .get("winner")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
        })
    }
}

// ---------------------------------------------------------------------------
// Problem and strategy (de)serialization
// ---------------------------------------------------------------------------

// Problem documents use the workspace-wide schema shared with the HTTP
// API ([`engine::problemio`]); the wire passes no mode cap — the
// coordinator already built the problem it is shipping.

/// `u64` values (seeds, budgets) travel as decimal strings: JSON numbers
/// are `f64` in this workspace's parser, which silently rounds integers
/// above 2^53 — a corrupted seed would race the wrong lane.
fn u64_json(value: u64) -> Value {
    Value::Str(value.to_string())
}

fn u64_from_json(doc: &Value, name: &str) -> Result<u64, String> {
    match doc.get(name) {
        Some(Value::Str(s)) => s
            .parse()
            .map_err(|_| format!("field {name:?} is not a u64 string")),
        Some(v) => v
            .as_usize()
            .map(|n| n as u64)
            .ok_or_else(|| format!("field {name:?} missing or mistyped")),
        None => Err(format!("field {name:?} missing")),
    }
}

fn baseline_name(kind: engine::BaselineKind) -> &'static str {
    match kind {
        engine::BaselineKind::JordanWigner => "jordan-wigner",
        engine::BaselineKind::BravyiKitaev => "bravyi-kitaev",
        engine::BaselineKind::TernaryTree => "ternary-tree",
    }
}

fn baseline_from_name(name: &str) -> Result<engine::BaselineKind, String> {
    Ok(match name {
        "jordan-wigner" => engine::BaselineKind::JordanWigner,
        "bravyi-kitaev" => engine::BaselineKind::BravyiKitaev,
        "ternary-tree" => engine::BaselineKind::TernaryTree,
        other => return Err(format!("unknown baseline {other:?}")),
    })
}

fn restart_json(kind: RestartPolicyKind) -> Value {
    match kind {
        RestartPolicyKind::Luby { unit } => obj([
            ("kind", Value::Str("luby".into())),
            ("unit", Value::Num(unit as f64)),
        ]),
        RestartPolicyKind::Geometric { initial, factor } => obj([
            ("kind", Value::Str("geometric".into())),
            ("initial", Value::Num(initial as f64)),
            ("factor", Value::Num(factor)),
        ]),
        RestartPolicyKind::Fixed { interval } => obj([
            ("kind", Value::Str("fixed".into())),
            ("interval", Value::Num(interval as f64)),
        ]),
    }
}

fn restart_from_json(doc: &Value) -> Result<RestartPolicyKind, String> {
    let num = |name: &str| -> Result<u64, String> {
        doc.get(name)
            .and_then(Value::as_usize)
            .map(|n| n as u64)
            .ok_or_else(|| format!("restart field {name:?} missing or mistyped"))
    };
    match doc.get("kind").and_then(Value::as_str) {
        Some("luby") => Ok(RestartPolicyKind::Luby { unit: num("unit")? }),
        Some("geometric") => Ok(RestartPolicyKind::Geometric {
            initial: num("initial")?,
            factor: doc
                .get("factor")
                .and_then(Value::as_f64)
                .filter(|f| f.is_finite() && *f >= 1.0)
                .ok_or("restart \"factor\" missing or out of range")?,
        }),
        Some("fixed") => Ok(RestartPolicyKind::Fixed {
            interval: num("interval")?,
        }),
        other => Err(format!("unknown restart kind {other:?}")),
    }
}

fn strategy_json(strategy: &Strategy) -> Value {
    match strategy {
        Strategy::SatDescent {
            seed,
            random_branch,
            bk_phase_hint,
            restart,
            export_lbd,
        } => obj([
            ("kind", Value::Str("sat-descent".into())),
            ("seed", u64_json(*seed)),
            ("random_branch", Value::Num(*random_branch)),
            ("bk_phase_hint", Value::Bool(*bk_phase_hint)),
            ("restart", restart_json(*restart)),
            ("export_lbd_floor", Value::Num(export_lbd.floor as f64)),
            ("export_lbd_initial", Value::Num(export_lbd.initial as f64)),
            ("export_lbd_ceiling", Value::Num(export_lbd.ceiling as f64)),
        ]),
        Strategy::Anneal { base, schedule } => obj([
            ("kind", Value::Str("anneal".into())),
            ("base", Value::Str(baseline_name(*base).into())),
            ("t0", Value::Num(schedule.t0)),
            ("t1", Value::Num(schedule.t1)),
            ("alpha", Value::Num(schedule.alpha)),
            ("iterations", Value::Num(schedule.iterations as f64)),
            ("k", Value::Num(schedule.k)),
            ("seed", u64_json(schedule.seed)),
            (
                "reseed_t0",
                schedule.reseed_t0.map_or(Value::Null, Value::Num),
            ),
        ]),
        Strategy::Baseline(kind) => obj([
            ("kind", Value::Str("baseline".into())),
            ("base", Value::Str(baseline_name(*kind).into())),
        ]),
    }
}

fn strategy_from_json(doc: &Value) -> Result<Strategy, String> {
    let float = |name: &str| -> Result<f64, String> {
        doc.get(name)
            .and_then(Value::as_f64)
            .filter(|f| f.is_finite())
            .ok_or_else(|| format!("strategy field {name:?} missing or mistyped"))
    };
    match doc.get("kind").and_then(Value::as_str) {
        Some("sat-descent") => Ok(Strategy::SatDescent {
            seed: u64_from_json(doc, "seed")?,
            random_branch: float("random_branch")?,
            bk_phase_hint: doc
                .get("bk_phase_hint")
                .and_then(Value::as_bool)
                .ok_or("strategy \"bk_phase_hint\" missing")?,
            restart: restart_from_json(doc.get("restart").ok_or("strategy \"restart\" missing")?)?,
            export_lbd: {
                // Tolerant: jobs written before adaptive export bounds
                // existed fall back to the solver default.
                let d = ExportLbd::default();
                let bound = |name: &str, fallback: u32| {
                    doc.get(name)
                        .and_then(Value::as_usize)
                        .map_or(fallback, |v| v as u32)
                };
                ExportLbd {
                    floor: bound("export_lbd_floor", d.floor),
                    initial: bound("export_lbd_initial", d.initial),
                    ceiling: bound("export_lbd_ceiling", d.ceiling),
                }
                .normalized()
            },
        }),
        Some("anneal") => Ok(Strategy::Anneal {
            base: baseline_from_name(
                doc.get("base")
                    .and_then(Value::as_str)
                    .ok_or("strategy \"base\" missing")?,
            )?,
            schedule: AnnealConfig {
                t0: float("t0")?,
                t1: float("t1")?,
                alpha: float("alpha")?,
                iterations: doc
                    .get("iterations")
                    .and_then(Value::as_usize)
                    .ok_or("strategy \"iterations\" missing")?,
                k: float("k")?,
                seed: u64_from_json(doc, "seed")?,
                cancel: None,
                reseed_t0: match doc.get("reseed_t0") {
                    None | Some(Value::Null) => None,
                    Some(v) => Some(
                        v.as_f64()
                            .filter(|f| f.is_finite())
                            .ok_or("strategy \"reseed_t0\" mistyped")?,
                    ),
                },
            },
        }),
        Some("baseline") => Ok(Strategy::Baseline(baseline_from_name(
            doc.get("base")
                .and_then(Value::as_str)
                .ok_or("strategy \"base\" missing")?,
        )?)),
        other => Err(format!("unknown strategy kind {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::BaselineKind;
    use fermihedral::Objective;
    use fermion::MajoranaMonomial;

    fn sample_job() -> Job {
        let problem = EncodingProblem::full_sat(3, Objective::MajoranaWeight);
        Job {
            shard: 1,
            total_shards: 2,
            fingerprint: engine::fingerprint(&problem).to_hex(),
            problem,
            strategies: vec![
                Strategy::SatDescent {
                    seed: 7,
                    random_branch: 0.05,
                    bk_phase_hint: true,
                    restart: RestartPolicyKind::Geometric {
                        initial: 100,
                        factor: 1.5,
                    },
                    export_lbd: ExportLbd {
                        floor: 2,
                        initial: 5,
                        ceiling: 9,
                    },
                },
                Strategy::Anneal {
                    base: BaselineKind::BravyiKitaev,
                    schedule: AnnealConfig::default(),
                },
                Strategy::Baseline(BaselineKind::TernaryTree),
            ],
            total_timeout: Some(Duration::from_millis(1500)),
            conflict_budget_per_call: Some(4096),
            persist_on_budget: true,
            clause_sharing: ClauseSharing::default(),
            max_concurrency: Some(2),
            warm_hint: None,
            trace_id: Some("fp-1234".into()),
        }
    }

    #[test]
    fn job_round_trips() {
        let job = sample_job();
        let back = Job::from_bytes(&job.to_bytes()).expect("parses");
        assert_eq!(back.warm_hint, None);
        assert_eq!(back.trace_id, job.trace_id);
        assert_eq!(back.shard, job.shard);
        assert_eq!(back.total_shards, job.total_shards);
        assert_eq!(back.fingerprint, job.fingerprint);
        assert_eq!(back.total_timeout, job.total_timeout);
        assert_eq!(back.conflict_budget_per_call, job.conflict_budget_per_call);
        assert_eq!(back.persist_on_budget, job.persist_on_budget);
        assert_eq!(back.clause_sharing, job.clause_sharing);
        assert_eq!(back.max_concurrency, job.max_concurrency);
        // The problem round-trips semantically: same fingerprint.
        assert_eq!(engine::fingerprint(&back.problem).to_hex(), job.fingerprint);
        // Strategies survive by name (names encode every knob but the
        // anneal schedule, which is asserted separately).
        let names: Vec<String> = back.strategies.iter().map(Strategy::name).collect();
        let expect: Vec<String> = job.strategies.iter().map(Strategy::name).collect();
        assert_eq!(names, expect);
        match (&back.strategies[1], &job.strategies[1]) {
            (Strategy::Anneal { schedule: b, .. }, Strategy::Anneal { schedule: a, .. }) => {
                assert_eq!(b.t0, a.t0);
                assert_eq!(b.iterations, a.iterations);
                assert_eq!(b.reseed_t0, a.reseed_t0);
            }
            _ => panic!("anneal lane lost"),
        }
    }

    #[test]
    fn job_without_trace_id_parses_as_off() {
        // Jobs from a pre-tracing coordinator omit the field entirely.
        let text = String::from_utf8(sample_job().to_bytes()).unwrap();
        let mut doc = jsonkit::parse(&text).unwrap();
        if let Value::Obj(fields) = &mut doc {
            fields.remove("trace_id");
        }
        let back = Job::from_bytes(doc.to_json().as_bytes()).expect("parses");
        assert_eq!(back.trace_id, None);
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
        let monomials = vec![
            MajoranaMonomial::from_sorted(vec![0, 1]),
            MajoranaMonomial::from_sorted(vec![2, 3]),
            MajoranaMonomial::from_sorted(vec![0, 1, 2, 3]),
        ];
        let problem = EncodingProblem::new(2, Objective::HamiltonianWeight(monomials)).clone();
        let mut job = sample_job();
        job.fingerprint = engine::fingerprint(&problem).to_hex();
        job.problem = problem;
        let back = Job::from_bytes(&job.to_bytes()).expect("parses");
        assert_eq!(engine::fingerprint(&back.problem).to_hex(), job.fingerprint);
    }

    #[test]
    fn shard_result_round_trips() {
        let result = ShardResult {
            weight: Some(9),
            strings: Some(vec![
                "XII".parse().unwrap(),
                "YII".parse().unwrap(),
                "ZXI".parse().unwrap(),
            ]),
            proved_floor: Some(9),
            optimal: true,
            winner: Some("sat-descent[seed=1,rb=0,bk=1,rs=luby128]".into()),
            workers: Vec::new(),
        };
        let back = ShardResult::from_bytes(&result.to_bytes()).expect("parses");
        assert_eq!(back.weight, result.weight);
        assert_eq!(back.proved_floor, result.proved_floor);
        assert_eq!(back.optimal, result.optimal);
        assert_eq!(back.winner, result.winner);
        assert_eq!(back.strings, result.strings);
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
    }

    #[test]
    fn black_box_checkpoint_round_trips() {
        let checkpoint = BlackBoxCheckpoint {
            shard: 2,
            fingerprint: "deadbeef".into(),
            modes: 4,
            lanes: vec!["sat-descent[seed=1]".into(), "anneal[bk]".into()],
            flight_recorder: obj([
                ("written", Value::Num(7.0)),
                ("records", Value::Arr(vec![])),
            ]),
        };
        let back = BlackBoxCheckpoint::from_bytes(&checkpoint.to_bytes()).expect("parses");
        assert_eq!(back, checkpoint);
        // Torn payloads (a worker can be SIGKILL'd mid-write) must fail
        // structured, never panic.
        let bytes = checkpoint.to_bytes();
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            assert!(BlackBoxCheckpoint::from_bytes(&bytes[..cut]).is_err());
        }
        assert!(BlackBoxCheckpoint::from_bytes(b"{}").is_err());
        assert!(BlackBoxCheckpoint::from_bytes(&[0xFF, 0xFE]).is_err());
    }

    #[test]
    fn incumbent_update_round_trips() {
        let update = IncumbentUpdate {
            weight: 16,
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
            IncumbentUpdate::from_bytes(br#"{"weight":16,"strings":[],"winner":""}"#).is_err(),
            "an incumbent with no strings is meaningless"
        );
    }
}
