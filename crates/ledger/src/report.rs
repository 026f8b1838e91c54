//! Output: the one-line result the benchmark contract reads, the detail
//! line a parent `ledger` reads from its child, and the run-set document
//! `ledger compare` takes.

use crate::run::{Metrics, RunResult, RunSpec};
use crate::schema::{END_TO_END, PER_LAYER};
use jsonkit::{obj, Value};
use std::collections::BTreeMap;

/// Marks the line, printed just before the result line, that carries what
/// the contract's result line has no key for: exact counts, the weight
/// gap, the tail percentile.
pub const DETAIL_PREFIX: &str = "ledger-detail ";

fn unit_of(metric: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find_map(|(name, unit)| (name == metric).then_some(unit))
        .unwrap_or("")
}

fn metrics_value(metrics: &Metrics) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|(name, value)| {
                (
                    name.to_string(),
                    obj([
                        ("value", Value::Num(*value)),
                        ("unit", Value::Str(unit_of(name).to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics` — the end-to-end metrics of an untraced run, the
/// per-layer metrics of a traced one.
pub fn result_line(spec: &RunSpec, result: &RunResult) -> String {
    let metrics = if spec.trace {
        &result.per_layer
    } else {
        &result.end_to_end
    };
    obj([
        ("correct", Value::Bool(result.correct())),
        ("attempted", Value::Num(result.attempted as f64)),
        ("failed", Value::Num(result.failed as f64)),
        ("metrics", metrics_value(metrics)),
    ])
    .to_json_compact()
}

/// The detail line (without its prefix).
pub fn detail_value(result: &RunResult) -> Value {
    obj([
        ("weight_gap", Value::Num(result.weight_gap as f64)),
        ("tail_percentile", Value::Num(result.tail.percentile)),
        ("tail_s", Value::Num(result.tail.value)),
        (
            "counts",
            Value::Obj(
                result
                    .counts
                    .iter()
                    .map(|(k, v)| (k.to_string(), Value::Num(*v as f64)))
                    .collect(),
            ),
        ),
        (
            "failures",
            Value::Arr(result.failures.iter().cloned().map(Value::Str).collect()),
        ),
    ])
}

/// Prints one run for a human, then the detail line, then the result
/// line — which the contract requires to be the last line of stdout.
pub fn print_run(spec: &RunSpec, result: &RunResult) {
    println!("{}: one op = {}", spec.workload.name, spec.workload.op);
    println!(
        "{} seed={} seconds={} trace={}: {} ops, {} failed, weight gap {}",
        spec.workload.name,
        spec.seed,
        spec.seconds,
        spec.trace as u8,
        result.attempted,
        result.failed,
        result.weight_gap
    );
    for why in &result.failures {
        println!("  rejected: {why}");
    }
    let metrics = if spec.trace {
        &result.per_layer
    } else {
        &result.end_to_end
    };
    for (name, value) in metrics {
        let note = if *name == "tail_ratio" {
            format!(
                "  (p{:.1}: {:.6} s)",
                result.tail.percentile, result.tail.value
            )
        } else {
            String::new()
        };
        println!("  {name:<40} {value:>16.6} {}{note}", unit_of(name));
    }
    for (name, count) in &result.counts {
        println!("  {name:<40} {count:>16} exact");
    }
    println!("{DETAIL_PREFIX}{}", detail_value(result).to_json_compact());
    println!("{}", result_line(spec, result));
}

/// One workload's entry in a run-set document: the untraced run's result
/// line and detail, plus the traced run's per-layer metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadRecord {
    /// Ops attempted and failed, and Σ weight gap, over both runs.
    pub attempted: u64,
    /// Ops the oracle rejected, over both runs.
    pub failed: u64,
    /// Weight gap over both runs.
    pub weight_gap: i64,
    /// Percentile `tail_ratio` was taken at.
    pub tail_percentile: f64,
    /// Seconds at that percentile (`tail_ratio` times `op_s`).
    pub tail_s: f64,
    /// End-to-end metric values.
    pub end_to_end: BTreeMap<String, f64>,
    /// Per-layer metric values.
    pub per_layer: BTreeMap<String, f64>,
    /// Exact counts.
    pub counts: BTreeMap<String, u64>,
}

fn numbers(value: Option<&Value>) -> BTreeMap<String, f64> {
    let Some(Value::Obj(fields)) = value else {
        return BTreeMap::new();
    };
    fields
        .iter()
        .filter_map(|(k, v)| {
            let n = v.as_f64().or_else(|| v.get("value")?.as_f64())?;
            Some((k.clone(), n))
        })
        .collect()
}

impl WorkloadRecord {
    /// Folds a child's output (its detail and result lines) into the
    /// record. Returns an error naming what is missing.
    pub fn absorb_child_output(&mut self, stdout: &str, traced: bool) -> Result<(), String> {
        let mut lines = stdout.lines().rev();
        let result = lines.next().ok_or("child printed nothing")?;
        let result = jsonkit::parse(result).map_err(|e| format!("result line: {e}"))?;
        let detail = lines
            .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
            .ok_or("child printed no detail line")?;
        let detail = jsonkit::parse(detail).map_err(|e| format!("detail line: {e}"))?;

        let count = |doc: &Value, key: &str| doc.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        self.attempted += count(&result, "attempted") as u64;
        self.failed += count(&result, "failed") as u64;
        self.weight_gap += count(&detail, "weight_gap") as i64;
        let metrics = numbers(result.get("metrics"));
        if traced {
            self.per_layer = metrics;
        } else {
            self.end_to_end = metrics;
            self.tail_percentile = count(&detail, "tail_percentile");
            self.tail_s = count(&detail, "tail_s");
            self.counts = numbers(detail.get("counts"))
                .into_iter()
                .map(|(k, v)| (k, v as u64))
                .collect();
        }
        Ok(())
    }

    /// JSON form.
    pub fn to_value(&self) -> Value {
        let floats = |m: &BTreeMap<String, f64>| {
            Value::Obj(m.iter().map(|(k, v)| (k.clone(), Value::Num(*v))).collect())
        };
        obj([
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("weight_gap", Value::Num(self.weight_gap as f64)),
            ("tail_percentile", Value::Num(self.tail_percentile)),
            ("tail_s", Value::Num(self.tail_s)),
            ("end_to_end", floats(&self.end_to_end)),
            ("per_layer", floats(&self.per_layer)),
            (
                "counts",
                Value::Obj(
                    self.counts
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Num(*v as f64)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Inverse of [`to_value`](Self::to_value).
    pub fn from_value(value: &Value) -> WorkloadRecord {
        let count = |key: &str| value.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        WorkloadRecord {
            attempted: count("attempted") as u64,
            failed: count("failed") as u64,
            weight_gap: count("weight_gap") as i64,
            tail_percentile: count("tail_percentile"),
            tail_s: count("tail_s"),
            end_to_end: numbers(value.get("end_to_end")),
            per_layer: numbers(value.get("per_layer")),
            counts: numbers(value.get("counts"))
                .into_iter()
                .map(|(k, v)| (k, v as u64))
                .collect(),
        }
    }
}

/// A run set: provenance plus one record per workload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunSet {
    /// Seed, cores, toolchain, commit, profile, window, quick flag.
    pub provenance: BTreeMap<String, Value>,
    /// Records by workload name.
    pub workloads: BTreeMap<String, WorkloadRecord>,
}

impl RunSet {
    /// Provenance of a run made now by this binary.
    pub fn provenance_now(seed: u64, seconds: f64, quick: bool) -> BTreeMap<String, Value> {
        let build = telemetry::build_info();
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        [
            ("seed", Value::Num(seed as f64)),
            ("seconds", Value::Num(seconds)),
            ("quick", Value::Bool(quick)),
            ("nproc", Value::Num(nproc as f64)),
            ("rustc", Value::Str(build.rustc.to_string())),
            ("commit", Value::Str(build.git_hash.to_string())),
            ("profile", Value::Str(build.profile.to_string())),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }

    /// JSON form.
    pub fn to_value(&self) -> Value {
        obj([
            ("ledger", Value::Obj(self.provenance.clone())),
            (
                "workloads",
                Value::Obj(
                    self.workloads
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_value()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a run-set document.
    pub fn parse(text: &str) -> Result<RunSet, String> {
        let doc = jsonkit::parse(text).map_err(|e| e.to_string())?;
        let Some(Value::Obj(workloads)) = doc.get("workloads") else {
            return Err("no \"workloads\" object: not a ledger run set".into());
        };
        let provenance = match doc.get("ledger") {
            Some(Value::Obj(fields)) => fields.clone(),
            _ => BTreeMap::new(),
        };
        Ok(RunSet {
            provenance,
            workloads: workloads
                .iter()
                .map(|(k, v)| (k.clone(), WorkloadRecord::from_value(v)))
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::WORKLOADS;

    fn spec(trace: bool) -> RunSpec {
        RunSpec {
            workload: &WORKLOADS[0],
            seed: 1,
            seconds: 1.0,
            trace,
            quick: true,
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut result = RunResult {
            attempted: 12,
            ..RunResult::default()
        };
        result.end_to_end.insert("op_s", 0.1415);
        result.per_layer.insert("sat.solver.conflicts", 3376.0);
        let line = result_line(&spec(false), &result);
        assert!(!line.contains('\n'));
        let Value::Obj(fields) = jsonkit::parse(&line).unwrap() else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(fields["correct"], Value::Bool(true));
        let op_s = fields["metrics"].get("op_s").unwrap();
        assert_eq!(op_s.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(op_s.get("value").unwrap().as_f64(), Some(0.1415));

        let traced = jsonkit::parse(&result_line(&spec(true), &result)).unwrap();
        assert!(traced
            .get("metrics")
            .unwrap()
            .get("sat.solver.conflicts")
            .is_some());
    }

    #[test]
    fn child_output_round_trips_through_a_run_set() {
        let mut result = RunResult {
            attempted: 7,
            tail: crate::stats::Tail {
                percentile: 100.0,
                value: 0.3,
            },
            ..RunResult::default()
        };
        result.end_to_end.insert("op_s", 0.25);
        result.counts.insert("conflicts", 3376);
        let stdout = format!(
            "human line\n{DETAIL_PREFIX}{}\n{}\n",
            detail_value(&result).to_json_compact(),
            result_line(&spec(false), &result)
        );
        let mut record = WorkloadRecord::default();
        record.absorb_child_output(&stdout, false).unwrap();
        assert_eq!(record.attempted, 7);
        assert_eq!(record.end_to_end["op_s"], 0.25);
        assert_eq!(record.counts["conflicts"], 3376);
        assert_eq!((record.tail_percentile, record.tail_s), (100.0, 0.3));

        let mut set = RunSet {
            provenance: RunSet::provenance_now(1, 10.0, false),
            ..RunSet::default()
        };
        set.workloads.insert("certify_n4".into(), record);
        let back = RunSet::parse(&set.to_value().to_json()).unwrap();
        assert_eq!(back, set);
        assert!(RunSet::parse("{}").is_err());
    }
}
