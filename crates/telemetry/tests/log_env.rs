//! `FERMIHEDRAL_LOG` takes effect without any set-up call: the logger
//! reads it on first use. This file is its own test binary, so the
//! environment is set before anything in the process logs.

use telemetry::log::{enabled, Level};

#[test]
fn the_environment_filter_applies_from_the_first_log_call() {
    std::env::set_var("FERMIHEDRAL_LOG", "debug,serve=warn");
    assert!(enabled(Level::Debug, "shard.race"));
    assert!(!enabled(Level::Trace, "shard.race"));
    assert!(!enabled(Level::Debug, "serve.http"));
}
