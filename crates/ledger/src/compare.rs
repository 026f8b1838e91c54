//! `ledger compare A.json B.json`: one row per workload × end-to-end
//! metric, judged against the bounds fixed in `BENCHMARK.json`.
//!
//! Each side is one run set, or several joined by commas
//! (`a1.json,a2.json,a3.json`); with several, a side's value is the
//! median over its sets and its spread is known.

use crate::report::RunSet;
use crate::schema::{Better, END_TO_END, WORKLOADS};
use crate::stats::{iqr_share, median};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Verdict on one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A side's own run-to-run spread is wider than the bound, so the
    /// difference cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Run-to-run spread of one side: quartile distance over the median with
/// four or more sets, range over the median with two or three, unknown
/// (`None`) with one.
fn spread(values: &[f64]) -> Option<f64> {
    match values.len() {
        0 | 1 => None,
        2 | 3 => {
            let max = values.iter().copied().fold(f64::MIN, f64::max);
            let min = values.iter().copied().fold(f64::MAX, f64::min);
            Some((max - min) / median(values))
        }
        _ => Some(iqr_share(values)),
    }
}

/// Judges one metric: `a` and `b` are each side's values, one per set.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if [a, b]
        .iter()
        .any(|side| spread(side).is_some_and(|s| s > bound))
    {
        return Verdict::Unresolved;
    }
    let (base, new) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    };
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// The comparison table, and whether the two sides agree: no row worse,
/// no failed op or weight gap on either side, every exact count the same.
pub fn compare(a: &[RunSet], b: &[RunSet]) -> (String, bool) {
    let mut out = String::new();
    let mut agree = true;
    let _ = writeln!(
        out,
        "{:<18} {:<13} {:>14} {:>14} {:>9}  {:>6} verdict",
        "workload", "metric", "A (base)", "B", "B/A", "bound"
    );
    for workload in WORKLOADS.iter().map(|w| w.name) {
        let records = |sets: &[RunSet]| -> Vec<crate::report::WorkloadRecord> {
            sets.iter()
                .filter_map(|s| s.workloads.get(workload).cloned())
                .collect()
        };
        let (ra, rb) = (records(a), records(b));
        if ra.is_empty() || rb.is_empty() {
            continue;
        }
        for metric in &END_TO_END {
            let values = |records: &[crate::report::WorkloadRecord]| -> Vec<f64> {
                records
                    .iter()
                    .filter_map(|r| r.end_to_end.get(metric.name).copied())
                    .collect()
            };
            let (va, vb) = (values(&ra), values(&rb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = judge(&va, &vb, metric.better, metric.bound);
            agree &= verdict != Verdict::Worse;
            let _ = writeln!(
                out,
                "{:<18} {:<13} {:>14.6} {:>14.6} {:>9.4}  {:>6.2} {}",
                workload,
                metric.name,
                median(&va),
                median(&vb),
                median(&vb) / median(&va),
                metric.bound,
                verdict.as_str()
            );
        }
        for (side, records) in [("A", &ra), ("B", &rb)] {
            let failed: u64 = records.iter().map(|r| r.failed).sum();
            let gap: i64 = records.iter().map(|r| r.weight_gap).sum();
            if failed > 0 || gap != 0 {
                agree = false;
                let _ = writeln!(
                    out,
                    "{workload:<18} side {side}: {failed} failed ops, weight gap {gap}: incorrect"
                );
            }
        }
        let names: BTreeSet<&String> = ra.iter().chain(&rb).flat_map(|r| r.counts.keys()).collect();
        for name in names {
            let seen: BTreeSet<Option<u64>> = ra
                .iter()
                .chain(&rb)
                .map(|r| r.counts.get(name).copied())
                .collect();
            let same = seen.len() == 1;
            agree &= same;
            let _ = writeln!(
                out,
                "{:<18} {:<28} {:>30}  {}",
                workload,
                name,
                seen.iter()
                    .map(|v| v.map_or("-".to_string(), |n| n.to_string()))
                    .collect::<Vec<_>>()
                    .join(" / "),
                if same { "same" } else { "differs" }
            );
        }
    }
    (out, agree)
}

/// Reads one side: a comma-separated list of run-set files.
pub fn read_side(arg: &str) -> Result<Vec<RunSet>, String> {
    arg.split(',')
        .map(|path| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            RunSet::parse(&text).map_err(|e| format!("{path}: {e}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::WorkloadRecord;

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        assert_eq!(judge(&[1.00], &[1.09], Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(judge(&[1.00], &[1.11], Better::Lower, 0.10), Verdict::Worse);
        assert_eq!(judge(&[1.00], &[0.50], Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(
            judge(&[100.0], &[89.0], Better::Higher, 0.10),
            Verdict::Worse
        );
        assert_eq!(judge(&[100.0], &[120.0], Better::Higher, 0.10), Verdict::Ok);
        // Side A alone swings by 30%: nothing can be concluded.
        assert_eq!(
            judge(&[1.0, 1.3], &[2.0, 2.0], Better::Lower, 0.10),
            Verdict::Unresolved
        );
    }

    fn set(op_s: f64, conflicts: u64, failed: u64) -> RunSet {
        let mut record = WorkloadRecord {
            failed,
            ..WorkloadRecord::default()
        };
        record.end_to_end.insert("op_s".into(), op_s);
        record.counts.insert("conflicts".into(), conflicts);
        let mut set = RunSet::default();
        set.workloads.insert("certify_n4".into(), record);
        set
    }

    #[test]
    fn sets_agree_only_when_rows_counts_and_oracle_all_hold() {
        let (table, agree) = compare(&[set(0.140, 3376, 0)], &[set(0.145, 3376, 0)]);
        assert!(agree, "{table}");
        assert!(table.contains("certify_n4") && table.contains("same"));

        let (table, agree) = compare(&[set(0.140, 3376, 0)], &[set(0.200, 3376, 0)]);
        assert!(!agree && table.contains("worse"), "{table}");

        let (table, agree) = compare(&[set(0.140, 3376, 0)], &[set(0.140, 3400, 0)]);
        assert!(!agree && table.contains("differs"), "{table}");

        let (table, agree) = compare(&[set(0.140, 3376, 0)], &[set(0.140, 3376, 2)]);
        assert!(!agree && table.contains("incorrect"), "{table}");
    }
}
