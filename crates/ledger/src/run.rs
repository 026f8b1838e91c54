//! The measuring harness shared by every workload: repeated set-up, the
//! timed window, process CPU and memory readings, and the reduction of
//! samples and spans to metrics.

use crate::schema::{WorkloadSpec, END_TO_END, PER_LAYER};
use crate::stats::{median, tail, Tail};
use crate::trace::{self, Tracer, OP_SPAN};
use std::collections::BTreeMap;
use std::time::Instant;
use telemetry::{AttrValue, Event};

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// The workload.
    pub workload: &'static WorkloadSpec,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Traced run: every second op is wrapped in layer spans, the layers
    /// are probed after the window, and per-layer metrics are reported
    /// instead of end-to-end ones.
    pub trace: bool,
    /// One or two ops, one set-up, reduced budgets: for tests.
    pub quick: bool,
}

impl RunSpec {
    /// How many times set-up runs (its median is `setup_s`).
    pub fn setup_reps(&self) -> usize {
        if self.quick {
            1
        } else {
            5
        }
    }
}

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Ops attempted in the timed window.
    pub attempted: u64,
    /// Ops the oracle rejected.
    pub failed: u64,
    /// Σ (achieved − expected weight) over ops with a known expectation.
    pub weight_gap: i64,
    /// The first few rejections, for the human reader.
    pub failures: Vec<String>,
    /// The tail behind `tail_ratio`: its percentile and its seconds.
    pub tail: Tail,
    /// End-to-end metrics (untraced runs only).
    pub end_to_end: Metrics,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Metrics,
    /// Exact counts that must not differ between two runs of one commit:
    /// per-op solver work, instance sizes, per-op cache traffic.
    pub counts: BTreeMap<&'static str, u64>,
    /// The merged trace (traced runs only).
    pub events: Vec<Event>,
}

impl RunResult {
    /// No op failed and no weight was missed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.weight_gap == 0
    }

    /// Records one rejected op.
    pub fn reject(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }
}

/// What the oracle and the program's own counters say about one op.
#[derive(Debug, Default)]
pub struct OpReport {
    /// Why the oracle rejected the op, if it did.
    pub failure: Option<String>,
    /// Achieved minus expected weight (0 when nothing is expected).
    pub weight_gap: i64,
    /// Counts that must be identical on every op of a run.
    pub counts: Vec<(&'static str, u64)>,
    /// Per-op layer quantities that are not times (solver statistics,
    /// lane shares); the median over traced ops is reported.
    pub layers: Vec<(&'static str, f64)>,
}

/// A workload whose ops run one after another on the calling thread.
pub trait Sequential {
    /// What set-up builds and ops read.
    type State;

    /// Builds the inputs and runs the discarded warm-up ops.
    fn setup(&self, spec: &RunSpec) -> Self::State;

    /// Runs one op; wraps its calls into layers in spans when traced.
    fn op(&self, state: &Self::State, tracer: Option<&Tracer>) -> OpReport;

    /// After the window of a traced run: calls layer functions the op
    /// reaches only indirectly, on the workload's own inputs.
    fn probe(&self, state: &Self::State, tracer: &Tracer, layers: &mut Metrics);
}

/// Runs a sequential workload under `spec`.
pub fn run_sequential<W: Sequential>(workload: &W, spec: &RunSpec) -> RunResult {
    let (state, setup_s) = timed_setup(spec, || workload.setup(spec));
    let tracer = Tracer::new();
    let mut result = RunResult::default();
    let mut samples: Vec<f64> = Vec::new();
    let mut traced_samples: Vec<f64> = Vec::new();
    let mut layer_values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut first_counts: Option<Vec<(&'static str, u64)>> = None;
    let min_ops = if spec.trace { 2 } else { 1 };

    let cpu_start = cpu_seconds();
    let window = Instant::now();
    loop {
        // Traced and untraced ops alternate, so the recording overhead is
        // the difference of two medians taken over the same seconds.
        let traced = spec.trace && result.attempted % 2 == 1;
        let op_tracer = traced.then_some(&tracer);
        if traced {
            telemetry::global().enable();
        }
        let started = Instant::now();
        let report = {
            let mut op_span = trace::span(op_tracer, OP_SPAN);
            if let Some(span) = op_span.as_mut() {
                span.attr("op", result.attempted);
            }
            workload.op(&state, op_tracer)
        };
        let elapsed = started.elapsed().as_secs_f64();
        telemetry::global().disable();

        result.attempted += 1;
        if traced {
            traced_samples.push(elapsed);
            for (name, value) in &report.layers {
                layer_values.entry(name).or_default().push(*value);
            }
        } else {
            samples.push(elapsed);
        }
        result.weight_gap += report.weight_gap;
        if let Some(why) = report.failure {
            result.reject(why);
        } else if let Some(first) = &first_counts {
            if *first != report.counts {
                result.reject(format!(
                    "op {} counted {:?}, op 0 counted {first:?}",
                    result.attempted - 1,
                    report.counts
                ));
            }
        }
        first_counts.get_or_insert(report.counts);

        let done = window.elapsed().as_secs_f64() >= spec.seconds || spec.quick;
        if done && result.attempted >= min_ops {
            break;
        }
    }
    let window_s = window.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu_start;
    result.counts = first_counts.unwrap_or_default().into_iter().collect();

    if spec.trace {
        // Probes first: where an op's own spans time the same layer, that
        // measurement replaces the probe's.
        let mut layers = Metrics::new();
        workload.probe(&state, &tracer, &mut layers);
        for (name, values) in &layer_values {
            layers.insert(name, median(values));
        }
        telemetry::flush();
        let mut events = tracer.take();
        // The ledger's spans reach the registry too while recording is
        // on; the copies in the tracer are the ones kept.
        events.extend(
            telemetry::global()
                .drain()
                .into_iter()
                .filter(|e| !e.name.starts_with("ledger.")),
        );
        events.sort_by_key(|e| e.ts_us);
        finish_traced(&mut result, layers, events, &traced_samples, &samples);
    } else {
        (result.end_to_end, result.tail) = end_to_end(&samples, window_s, cpu_s, setup_s);
    }
    result
}

/// Runs `setup` [`RunSpec::setup_reps`] times; returns the last state and
/// the median duration.
pub fn timed_setup<S>(spec: &RunSpec, mut setup: impl FnMut() -> S) -> (S, f64) {
    let mut durations = Vec::new();
    let mut state = None;
    for _ in 0..spec.setup_reps() {
        // The previous state goes first: two servers, or two N=7
        // instances, alive at once would distort peak memory.
        drop(state.take());
        let started = Instant::now();
        state = Some(setup());
        durations.push(started.elapsed().as_secs_f64());
    }
    (
        state.expect("set-up runs at least once"),
        median(&durations),
    )
}

/// Reduces the window's samples, in the order they were measured, to the
/// end-to-end metrics, and returns the tail `tail_ratio` was taken from.
pub fn end_to_end(samples: &[f64], window_s: f64, cpu_s: f64, setup_s: f64) -> (Metrics, Tail) {
    let t = tail(samples);
    let ops = samples.len() as f64;
    let op_s = median(samples);
    let values = [
        ("op_s", op_s),
        ("tail_ratio", t.value / op_s),
        ("ops_per_s", ops / window_s),
        ("cpu_s_per_op", cpu_s / ops),
        ("setup_s", setup_s),
    ];
    debug_assert_eq!(values.len(), END_TO_END.len());
    (values.into_iter().collect(), t)
}

/// Closes a traced run: adds what the spans say to `layers`, the recording
/// overhead from the two interleaved sample sets, and fills the result.
pub fn finish_traced(
    result: &mut RunResult,
    mut layers: Metrics,
    events: Vec<Event>,
    traced: &[f64],
    untraced: &[f64],
) {
    layers_from_spans(&events, &mut layers);
    layers.insert(
        "telemetry.recording_overhead_share",
        median(traced) / median(untraced) - 1.0,
    );
    result.events = events;
    result.per_layer = complete_layers(layers);
}

/// Every per-layer metric of the contract: what was measured, the
/// process's peak memory, and 0 for layers the workload never entered.
fn complete_layers(mut measured: Metrics) -> Metrics {
    measured.insert("process.peak_rss_mb", peak_rss_mb());
    for name in measured.keys() {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == *name),
            "{name} is not a per-layer metric"
        );
    }
    PER_LAYER
        .iter()
        .map(|m| (m.name, measured.get(m.name).copied().unwrap_or(0.0)))
        .collect()
}

/// Span names whose per-op self time is a per-layer metric.
const SPAN_LAYERS: [(&str, &str); 6] = [
    ("ledger.core.instance.build", "core.instance.build_s"),
    ("ledger.sat.dimacs.write", "sat.dimacs.write_s"),
    ("ledger.sat.solver.load", "sat.solver.load_s"),
    ("ledger.encodings.validate", "encodings.validate.validate_s"),
    ("sat.solve", "sat.solver.solve_s"),
    ("engine.race", "engine.portfolio.compile_s"),
];

/// Per-layer times from the trace: the median over traced ops of each
/// layer's self time, and the descent's split into SAT steps, the first
/// model and the final UNSAT step from the `descent.bound` spans.
fn layers_from_spans(events: &[Event], layers: &mut Metrics) {
    let times = trace::self_times(events);
    let per_op = trace::seconds_per_op(&times);
    for (span, metric) in SPAN_LAYERS {
        if let Some(values) = per_op.get(span) {
            layers.insert(metric, median(values));
        }
    }

    // descent.bound spans carry the step's outcome; group them per op.
    struct Step<'a> {
        ts_us: u64,
        seconds: f64,
        outcome: &'a str,
    }
    let mut steps: BTreeMap<usize, Vec<Step>> = BTreeMap::new();
    for (event, time) in events.iter().zip(&times) {
        let (Some(time), "descent.bound") = (time, event.name.as_str()) else {
            continue;
        };
        let Some(op) = time.op else {
            continue;
        };
        let outcome = event.attrs.iter().find_map(|(k, v)| match (k.as_str(), v) {
            ("outcome", AttrValue::Str(s)) => Some(s.as_str()),
            _ => None,
        });
        steps.entry(op).or_default().push(Step {
            ts_us: event.ts_us,
            seconds: time.dur_us as f64 / 1e6,
            outcome: outcome.unwrap_or(""),
        });
    }
    if steps.is_empty() {
        return;
    }
    let mut per_op = |metric: &'static str, of_op: fn(&[Step]) -> f64| {
        let values: Vec<f64> = steps.values().map(|s| of_op(s)).collect();
        layers.insert(metric, median(&values));
    };
    fn total(steps: &[Step], outcome: &str) -> f64 {
        steps
            .iter()
            .filter(|s| s.outcome == outcome)
            .map(|s| s.seconds)
            .sum()
    }
    per_op("core.descent.sat_steps_s", |s| total(s, "sat"));
    per_op("core.descent.unsat_step_s", |s| total(s, "unsat"));
    per_op("core.descent.first_model_s", |s| {
        s.iter()
            .filter(|s| s.outcome == "sat")
            .min_by_key(|s| s.ts_us)
            .map_or(0.0, |s| s.seconds)
    });
    per_op("core.descent.steps", |s| s.len() as f64);
}

/// Times `calls` invocations of `f` under one `name` span and returns the
/// seconds per call: the probe for a layer too quick, or too deep inside
/// the program, to time from an op.
pub fn probe_s<T>(
    tracer: &Tracer,
    name: &'static str,
    calls: usize,
    mut f: impl FnMut() -> T,
) -> f64 {
    let mut span = tracer.span(name);
    span.attr("calls", calls);
    let started = Instant::now();
    // Results are kept until the clock has stopped: freeing a 950,000-
    // clause CNF costs as much as building it, and is not the layer's work.
    let results: Vec<T> = (0..calls).map(|_| std::hint::black_box(f())).collect();
    let elapsed = started.elapsed().as_secs_f64();
    drop(span);
    drop(results);
    elapsed / calls as f64
}

/// Median of [`probe_s`] over `batches` batches.
pub fn probe_median_s<T>(
    tracer: &Tracer,
    name: &'static str,
    batches: usize,
    calls: usize,
    mut f: impl FnMut() -> T,
) -> f64 {
    let values: Vec<f64> = (0..batches)
        .map(|_| probe_s(tracer, name, calls, &mut f))
        .collect();
    median(&values)
}

/// User plus system CPU seconds this process has used, all threads
/// (`/proc/self/stat` fields 14 and 15, in 10 ms ticks). 0 where `/proc`
/// is missing.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields resume after
    // its closing parenthesis.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// Peak resident set of this process in MB (`VmHWM`). 0 where `/proc` is
/// missing.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::EventKind;

    #[test]
    fn proc_readings_are_positive() {
        let spin = Instant::now();
        while spin.elapsed().as_millis() < 30 {
            std::hint::black_box(0u64);
        }
        assert!(cpu_seconds() > 0.0);
        assert!(peak_rss_mb() > 1.0);
    }

    #[test]
    fn descent_steps_split_by_outcome() {
        let bound = |ts: u64, dur: u64, outcome: &str| Event {
            name: "descent.bound".into(),
            kind: EventKind::Complete { dur_us: dur },
            ts_us: ts,
            pid: 1,
            tid: 1,
            attrs: vec![("outcome".into(), AttrValue::Str(outcome.into()))],
        };
        let events = vec![
            Event {
                name: OP_SPAN.into(),
                kind: EventKind::Complete { dur_us: 1000 },
                ts_us: 0,
                pid: 1,
                tid: 1,
                attrs: Vec::new(),
            },
            bound(10, 100, "sat"),
            bound(200, 300, "sat"),
            bound(600, 250, "unsat"),
        ];
        let mut layers = Metrics::new();
        layers_from_spans(&events, &mut layers);
        let close = |name: &str, want: f64| (layers[name] - want).abs() < 1e-12;
        assert!(close("core.descent.sat_steps_s", 400e-6));
        assert!(close("core.descent.first_model_s", 100e-6));
        assert!(close("core.descent.unsat_step_s", 250e-6));
        assert!(close("core.descent.steps", 3.0));
    }

    #[test]
    fn complete_layers_reports_every_metric() {
        let mut measured = Metrics::new();
        measured.insert("sat.solver.conflicts", 3376.0);
        let all = complete_layers(measured);
        assert_eq!(all.len(), PER_LAYER.len());
        assert_eq!(all["sat.solver.conflicts"], 3376.0);
        assert_eq!(all["serve.queue.wait_s"], 0.0);
    }
}
