//! `--quick` smoke of all seven workloads, traced and untraced: every op
//! passes the oracle, and every metric the contract names is reported.
//!
//! One test, not fourteen: the runs toggle the process-wide telemetry
//! switch and start servers, so they must not overlap.

use ledger::run::RunSpec;
use ledger::schema::{END_TO_END, PER_LAYER, WORKLOADS};

#[test]
fn every_workload_passes_its_oracle_in_quick_mode() {
    // As the binary does: the server's per-request access log is noise here.
    telemetry::log::set_filter(telemetry::Filter::at_least(telemetry::Level::Warn));
    for workload in &WORKLOADS {
        for trace in [false, true] {
            let spec = RunSpec {
                workload,
                seed: 7,
                seconds: 1.0,
                trace,
                quick: true,
            };
            let result = ledger::run_workload(&spec);
            let label = format!("{} (trace {})", workload.name, trace as u8);
            assert!(result.attempted >= 1, "{label} attempted nothing");
            assert_eq!(result.failed, 0, "{label}: {:?}", result.failures);
            assert_eq!(result.weight_gap, 0, "{label}");
            if trace {
                assert_eq!(result.per_layer.len(), PER_LAYER.len(), "{label}");
                assert!(result.end_to_end.is_empty(), "{label}");
                assert!(
                    result.events.iter().any(|e| e.name == "ledger.op"),
                    "{label} recorded no op span"
                );
            } else {
                assert_eq!(result.end_to_end.len(), END_TO_END.len(), "{label}");
                for (name, value) in &result.end_to_end {
                    // A quick window can be shorter than one 10 ms CPU tick.
                    let floor = if *name == "cpu_s_per_op" { -1.0 } else { 0.0 };
                    assert!(
                        value.is_finite() && *value > floor,
                        "{label}: {name} is {value}"
                    );
                }
            }
        }
    }
}
