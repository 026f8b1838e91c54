//! The benchmark's fixed vocabulary: workload names, metric names, units,
//! regression bounds, and the one-sentence reason each exists. The
//! committed `BENCHMARK.json` is generated from these tables
//! ([`benchmark_json`]) and a test keeps the two identical.

use jsonkit::{obj, Value};

/// Seconds one run measures (the `run_seconds` of `BENCHMARK.json`, and
/// the default of `--seconds`).
///
/// The box this was sized on, two cores of a shared host, changes speed by
/// 10-25% in phases of seconds to minutes; the longer a run, the more
/// samples its median and its tail rest on and the more of a short phase
/// it averages away. 27 seconds is what the driver's 92 runs of four gated
/// workloads leave room for: 29 s a run with set-up, about 2,750 s with two
/// builds, of the 3,420 s allowed.
pub const RUN_SECONDS: u64 = 27;

/// A named workload and why it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// What one op is.
    pub op: &'static str,
    /// One line: what this workload stresses that the others do not.
    pub why: &'static str,
    /// Listed in `BENCHMARK.json`, so the benchmark driver runs it and
    /// holds later changes to its bounds.
    pub gated: bool,
}

/// The seven workloads, in run order.
pub const WORKLOADS: [WorkloadSpec; 7] = [
    WorkloadSpec {
        name: "certify_n4",
        op: "full-SAT N=4 descent to the UNSAT certificate, then validate",
        why: "CDCL hot path on short Tseitin clauses: one lane certifies weight 16 in a bit-reproducible 3,376 conflicts, so only wall clock varies",
        gated: true,
    },
    WorkloadSpec {
        name: "budget_n5_full",
        op: "full-SAT N=5 descent, 20,000 conflicts per solver call",
        why: "fixed work dominated by the long 4^N independence clauses (~750 propagations per conflict): where proof-shrinking and watch-scheme work must show",
        // Nine ops in a run: the tail is the slowest of nine, and a fifth
        // and a sixth gated workload would cut every run to 17 seconds.
        // Its counts repeat exactly; `ledger` runs and reports it.
        gated: false,
    },
    WorkloadSpec {
        name: "anytime_n8_noai",
        op: "N=8 descent without independence clauses, 60,000 conflicts per solver call",
        why: "the paper's section 4.1 anytime mode: a growing learnt database, so reduce_db, GC and the 128-input totalizer carry weight here only",
        // Five ops in a run; as `budget_n5_full`.
        gated: false,
    },
    WorkloadSpec {
        name: "construct_n7_full",
        op: "build the full-SAT N=7 CNF, write it as DIMACS to memory, load a solver",
        why: "zero search: 952,880 clauses and 20.8 MB of DIMACS, the only workload where instance build, CNF and solver load dominate, and the memory sentinel",
        gated: true,
    },
    WorkloadSpec {
        name: "race_n4",
        op: "engine::compile of full-SAT N=4 with the default portfolio, no cache",
        why: "certify_n4's problem through five lanes with clause sharing: the pair isolates what threads, sharing and race bookkeeping add or save",
        gated: true,
    },
    WorkloadSpec {
        name: "serve_hit",
        op: "one POST /v1/compile answered from a warm cache",
        why: "repeated keys: HTTP parse, fingerprint, cache read and response serialize with no solve, closed loop on two keep-alive connections",
        // Ten ten-second runs spread by 5% in a quiet minute and by 30%
        // across a noisy one on the box this was sized on (a 65 us request
        // is four threads on two virtual CPUs trading two involuntary
        // context switches per op); no bound the contract allows holds.
        // `ledger` still runs and reports it.
        gated: false,
    },
    WorkloadSpec {
        name: "serve_miss",
        op: "one POST /v1/compile of a never-seen N=3 Hamiltonian problem",
        why: "distinct keys: queue, engine race, validate, cache store and size index on every request, the write-side twin of serve_hit",
        gated: true,
    },
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` word.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEndSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
    /// What it measures.
    pub what: &'static str,
}

/// The end-to-end metrics, the same on every workload.
///
/// Every bound is 0.25, the widest the benchmark contract allows. The
/// two-core box this was sized on is a share of a busy host: the speed of
/// one and the same op drifts by 20-30% in phases of seconds to minutes,
/// and ten back-to-back runs of `--seconds 27` spread (quartile distance
/// over median) by 10-22% on every metric that is a time. A bound has to
/// sit above the noise to mean anything; a change that claims a gain
/// smaller than that needs paired runs, not this gate.
///
/// The tail is gated as a ratio to the median, not in seconds: a slow
/// phase moves tail and median together, so the ratio spreads by 6-9%
/// where the seconds spread by 11-28%, and `op_s` already carries the
/// common part. The seconds are printed beside it and kept in the run set.
///
/// Failures and memory are not in this list. Failures are the
/// `failed`/`attempted` counts of every result line (the contract wants
/// metrics that are never 0), and any failure or weight gap makes the run
/// incorrect. Peak memory is the per-layer `process.peak_rss_mb`: it is
/// steady to 1% on five workloads but swings by 20% between runs of
/// `race_n4`, where it depends on which malloc arenas the lane threads
/// happen to dirty, and no bound survives that.
pub const END_TO_END: [EndToEndSpec; 5] = [
    EndToEndSpec {
        name: "op_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "median wall seconds per op",
    },
    EndToEndSpec {
        name: "tail_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.25,
        what: "tail seconds over op_s; the tail is the highest percentile, up to p99, with ten samples beyond it, taken as the median over ten tenths of the window (the slowest op under 30 samples)",
    },
    EndToEndSpec {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "ops completed per second of the timed window",
    },
    EndToEndSpec {
        name: "cpu_s_per_op",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "process user+system CPU seconds over the window per op: what a portfolio or a spin-wait costs a shared host",
    },
    EndToEndSpec {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "median seconds to get from nothing to the first timed op: instance build, server start, cache warm-up, discarded ops",
    },
];

/// A per-layer metric from the traced run.
#[derive(Debug, Clone, Copy)]
pub struct LayerSpec {
    /// Metric name: `<crate>.<module>.<quantity>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> LayerSpec {
    LayerSpec {
        name,
        unit,
        better,
        moves,
    }
}

const CONSTRUCT: &str =
    "op_s on construct_n7_full (and its process.peak_rss_mb); setup_s elsewhere; nothing on certify_n4";
const SEARCH: &str =
    "op_s and ops_per_s on certify_n4, budget_n5_full, anytime_n8_noai; nothing on serve_hit";
const VALIDATE: &str = "op_s on serve_miss and certify_n4 (small share)";
const RACE: &str = "op_s and cpu_s_per_op on race_n4; nothing on certify_n4";
const RACE_OVERHEAD: &str = "op_s, tail_ratio, ops_per_s on serve_miss and race_n4";
const CACHE_READ: &str = "op_s, tail_ratio, ops_per_s on serve_hit";
const CACHE_WRITE: &str = "op_s, tail_ratio, ops_per_s on serve_miss";
const CACHE_BOTH: &str = "op_s, tail_ratio, ops_per_s on serve_hit and serve_miss";
const HTTP: &str = "op_s and tail_ratio on serve_hit";
const QUEUE: &str = "tail_ratio on serve_miss: two clients on two workers, so ~0 is expected";

use Better::{Higher, Lower};

/// The per-layer metrics. `_s` names are self-time medians per op (or per
/// call, for layers probed on the workload's own inputs after the timed
/// window); the rest are exact per-op counts or ratios. A workload that
/// never enters a layer reports 0 for it.
pub const PER_LAYER: [LayerSpec; 57] = [
    layer("core.instance.build_s", "s", Lower, CONSTRUCT),
    layer("core.instance.alg_indep_s", "s", Lower, CONSTRUCT),
    layer("core.instance.vacuum_s", "s", Lower, CONSTRUCT),
    layer("core.instance.decode_s", "s", Lower, SEARCH),
    layer("core.instance.vars", "count", Lower, CONSTRUCT),
    layer("core.instance.clauses", "count", Lower, CONSTRUCT),
    layer("core.instance.literals", "count", Lower, CONSTRUCT),
    layer("sat.card.totalizer_s", "s", Lower, CONSTRUCT),
    layer("sat.card.totalizer_clauses", "count", Lower, CONSTRUCT),
    layer("sat.dimacs.write_s", "s", Lower, CONSTRUCT),
    layer("sat.dimacs.bytes", "bytes", Lower, CONSTRUCT),
    layer("sat.solver.load_s", "s", Lower, CONSTRUCT),
    layer("sat.solver.solve_s", "s", Lower, SEARCH),
    layer("sat.solver.conflicts", "count", Lower, SEARCH),
    layer("sat.solver.propagations", "count", Lower, SEARCH),
    layer("sat.solver.decisions", "count", Lower, SEARCH),
    layer("sat.solver.restarts", "count", Lower, SEARCH),
    layer("sat.solver.db_reductions", "count", Lower, SEARCH),
    layer("sat.solver.deleted_clauses", "count", Lower, SEARCH),
    layer("sat.solver.learnt_clauses", "count", Lower, SEARCH),
    layer("sat.solver.conflicts_per_s", "1/s", Higher, SEARCH),
    layer("sat.solver.props_per_conflict", "ratio", Lower, SEARCH),
    layer("core.descent.sat_steps_s", "s", Lower, SEARCH),
    layer("core.descent.unsat_step_s", "s", Lower, SEARCH),
    layer("core.descent.first_model_s", "s", Lower, SEARCH),
    layer("core.descent.steps", "count", Lower, SEARCH),
    layer("encodings.validate.validate_s", "s", Lower, VALIDATE),
    layer("engine.portfolio.compile_s", "s", Lower, RACE),
    layer("engine.portfolio.overhead_s", "s", Lower, RACE_OVERHEAD),
    layer("engine.portfolio.lanes_run", "count", Lower, RACE),
    layer("engine.portfolio.useful_lane_share", "ratio", Higher, RACE),
    layer("engine.portfolio.total_conflicts", "count", Lower, RACE),
    layer("engine.portfolio.loser_conflict_share", "ratio", Lower, RACE),
    layer("sat.shared.exported", "count", Lower, RACE),
    layer("sat.shared.imported", "count", Lower, RACE),
    layer("sat.shared.promoted", "count", Lower, RACE),
    layer("sat.shared.import_useful_share", "ratio", Higher, RACE),
    layer("engine.fingerprint.fingerprint_s", "s", Lower, CACHE_BOTH),
    layer("engine.cache.lookup_hit_s", "s", Lower, CACHE_READ),
    layer("engine.cache.lookup_miss_s", "s", Lower, CACHE_WRITE),
    layer("engine.cache.store_s", "s", Lower, CACHE_WRITE),
    layer("engine.cache.size_index_record_s", "s", Lower, CACHE_WRITE),
    layer("engine.cache.hits", "count", Higher, CACHE_READ),
    layer("engine.cache.misses", "count", Lower, CACHE_WRITE),
    layer("engine.cache.stores", "count", Lower, CACHE_WRITE),
    layer("engine.problemio.parse_s", "s", Lower, CACHE_BOTH),
    layer("jsonkit.parse_s", "s", Lower, CACHE_BOTH),
    layer("jsonkit.write_s", "s", Lower, CACHE_BOTH),
    layer("engine.report.to_json_s", "s", Lower, CACHE_WRITE),
    layer("serve.http.healthz_rtt_s", "s", Lower, HTTP),
    layer("serve.api.server_compile_s", "s", Lower, CACHE_BOTH),
    layer("serve.queue.wait_s", "s", Lower, QUEUE),
    layer("serve.http.overhead_s", "s", Lower, HTTP),
    layer("serve.coalesce.coalesced_share", "ratio", Lower, CACHE_BOTH),
    layer("serve.queue.rejected_share", "ratio", Lower, QUEUE),
    layer(
        "process.peak_rss_mb",
        "MB",
        Lower,
        "the memory sentinel: construct_n7_full (~200 MB of CNF, DIMACS and solver) and serve_hit (grows with requests served)",
    ),
    layer(
        "telemetry.recording_overhead_share",
        "ratio",
        Lower,
        "op_s on certify_n4 and serve_hit: traced ops over untraced ops of one run, minus 1",
    ),
];

/// The workload table entry for `name`.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Value {
    let text = |s: &str| Value::Str(s.to_string());
    obj([
        (
            "command",
            Value::Arr(
                // A build-once launcher, not `cargo run`: see bench.sh.
                ["bash", "crates/ledger/bench.sh"]
                    .iter()
                    .map(|s| text(s))
                    .collect(),
            ),
        ),
        ("paths", Value::Arr(vec![text("crates/ledger")])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .filter(|w| w.gated)
                    .map(|w| obj([("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_fit_the_contract_and_are_used_once() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for name in &names {
            assert!(well_formed(name), "bad name {name:?}");
        }
        assert_eq!(
            names.iter().collect::<BTreeSet<_>>().len(),
            names.len(),
            "a name is used twice"
        );
        assert!((2..=8).contains(&WORKLOADS.iter().filter(|w| w.gated).count()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
    }

    #[test]
    fn whys_units_and_bounds_fit_the_contract() {
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{} why",
                w.name
            );
        }
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for m in &END_TO_END {
            assert!(unit_ok(m.unit), "{} unit", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
        }
        for m in &PER_LAYER {
            assert!(unit_ok(m.unit), "{} unit", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let parsed = jsonkit::parse(&committed).expect("BENCHMARK.json parses");
        assert_eq!(
            parsed,
            benchmark_json(),
            "regenerate with `ledger contract`"
        );
        // And it round-trips through jsonkit unchanged.
        assert_eq!(jsonkit::parse(&parsed.to_json()).unwrap(), parsed);
        assert!(committed.len() <= 64 * 1024);
    }
}
