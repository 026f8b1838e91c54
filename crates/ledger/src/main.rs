//! The `ledger` command.
//!
//! ```text
//! ledger --workload NAME [--seed S] [--seconds N] [--trace 0|1] [--quick] [--trace-out PATH]
//!     one run of one workload in this process; the last line of stdout
//!     is the benchmark contract's result object
//! ledger [--seed S] [--seconds N] [--quick] [--trace-out PATH]
//!     every workload, an untraced and a traced run each, every run in a
//!     fresh child process; tables on stderr, the run set on stdout, and
//!     each traced child's Chrome trace in PATH.<workload>
//! ledger compare A.json B.json
//!     judge run set B against run set A under BENCHMARK.json's bounds
//! ledger contract
//!     print BENCHMARK.json
//! ledger describe
//!     print why each workload and metric exists and what it should move
//! ```

use ledger::gen::DEFAULT_SEED;
use ledger::report::{print_run, RunSet, WorkloadRecord};
use ledger::run::RunSpec;
use ledger::schema::{self, RUN_SECONDS, WORKLOADS};
use std::process::{Command, ExitCode, Stdio};
use telemetry::Event;

const USAGE: &str = "usage: ledger [--workload NAME] [--seed S] [--seconds N] [--trace 0|1] \
[--quick] [--trace-out PATH] | ledger compare A.json B.json | ledger contract | ledger describe";

struct Args {
    workload: Option<&'static schema::WorkloadSpec>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    trace_out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(schema::workload(name).ok_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("no workload {name:?}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 60.0)
                    .ok_or("--seconds takes a number in (0, 60]")?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--quick" => parsed.quick = true,
            "--trace-out" => parsed.trace_out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(parsed)
}

/// Most events one trace file holds; `serve_hit` alone records several
/// hundred thousand spans in ten seconds. The rest are counted as dropped
/// in the document, as the recorder counts its own.
const TRACE_FILE_EVENTS: usize = 50_000;

fn write_trace(path: &str, events: &[Event]) -> Result<(), String> {
    let kept = &events[..events.len().min(TRACE_FILE_EVENTS)];
    let dropped = telemetry::global().dropped() + (events.len() - kept.len()) as u64;
    std::fs::write(path, telemetry::chrome::trace_json(kept, dropped))
        .map_err(|e| format!("{path}: {e}"))
}

/// One run of one workload, here.
fn run_one(args: &Args, workload: &'static schema::WorkloadSpec) -> Result<bool, String> {
    let spec = RunSpec {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        quick: args.quick,
    };
    let result = ledger::run_workload(&spec);
    if let Some(path) = &args.trace_out {
        write_trace(path, &result.events)?;
    }
    print_run(&spec, &result);
    Ok(result.correct())
}

/// Every workload, untraced then traced, each run in a child process so
/// peak memory and set-up time belong to one workload alone.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut set = RunSet {
        provenance: RunSet::provenance_now(args.seed, args.seconds, args.quick),
        ..RunSet::default()
    };
    let mut correct = true;
    for workload in &WORKLOADS {
        let mut record = WorkloadRecord::default();
        for traced in [false, true] {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .stdout(Stdio::piped());
            if args.quick {
                child.arg("--quick");
            }
            // One file per child, not one merged document: merging means
            // parsing, and jsonkit's parser is quadratic in document size.
            if let (true, Some(path)) = (traced, &args.trace_out) {
                child.args(["--trace-out", &format!("{path}.{}", workload.name)]);
            }
            let output = child
                .output()
                .map_err(|e| format!("cannot start {}: {e}", workload.name))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            // The child's human-readable lines, minus its two JSON lines.
            let human: Vec<&str> = stdout.lines().collect();
            for line in &human[..human.len().saturating_sub(2)] {
                eprintln!("{line}");
            }
            record
                .absorb_child_output(&stdout, traced)
                .map_err(|e| format!("{} (trace {}): {e}", workload.name, traced as u8))?;
            correct &= output.status.success();
        }
        // Both runs feed the share: the traced run's interleaved ops give
        // it within one process; the two runs' medians check it.
        if let (Some(plain), Some(layer)) = (
            record.end_to_end.get("op_s"),
            record.per_layer.get("telemetry.recording_overhead_share"),
        ) {
            eprintln!(
                "  {}: untraced run op_s {plain:.6} s; traced over untraced ops {:+.2}%",
                workload.name,
                100.0 * layer
            );
        }
        set.workloads.insert(workload.name.to_string(), record);
    }
    println!("{}", set.to_value().to_json());
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => ledger::compare::read_side(a).and_then(|a| {
                let b = ledger::compare::read_side(b)?;
                let (table, agree) = ledger::compare::compare(&a, &b);
                print!("{table}");
                Ok(agree)
            }),
            _ => Err(USAGE.to_string()),
        },
        Some("contract") => {
            println!("{}", schema::benchmark_json().to_json());
            Ok(true)
        }
        Some("describe") => {
            for w in &WORKLOADS {
                println!("workload {}\n  op:  {}\n  why: {}", w.name, w.op, w.why);
            }
            for m in &schema::END_TO_END {
                let (better, bound) = (m.better.as_str(), m.bound);
                println!(
                    "end-to-end {} [{}, {better} is better, bound {bound}]",
                    m.name, m.unit
                );
                println!("  {}", m.what);
            }
            for m in &schema::PER_LAYER {
                println!(
                    "per-layer {} [{}, {} is better]",
                    m.name,
                    m.unit,
                    m.better.as_str()
                );
                println!("  should move: {}", m.moves);
            }
            Ok(true)
        }
        _ => parse_args(&args).and_then(|args| {
            if cfg!(debug_assertions) {
                return Err("ledger measures optimized builds only: run it with \
                            `cargo run --release`"
                    .into());
            }
            // The access log's cost depends on where stderr points; keep
            // it out of the measurement. FERMIHEDRAL_LOG still overrides
            // per target.
            telemetry::log::init(Some(telemetry::Level::Warn), false);
            match args.workload {
                Some(workload) => run_one(&args, workload),
                None => run_all(&args),
            }
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("ledger: {message}");
            ExitCode::from(2)
        }
    }
}
