//! The `fermihedral-shard` binary.
//!
//! Three modes:
//!
//! * `fermihedral-shard worker --connect ADDR [--shard N]` — a fleet
//!   worker: registers with a listening coordinator, serves jobs, and
//!   reconnects (reclaiming its shard id) when the link drops. Local
//!   coordinators (the library, `serve --shards N`, the bench harness)
//!   spawn it against their own loopback port.
//! * `fermihedral-shard coordinate --listen ADDR [...]` — a fleet
//!   coordinator: waits for registered workers, races one problem
//!   across them, and prints a JSON summary.
//! * `fermihedral-shard [OPTIONS]` — a coordinator CLI that compiles
//!   one problem sharded over local loopback workers.

use engine::{EngineConfig, SolutionCache};
use fermihedral::{EncodingProblem, Objective};
use jsonkit::{obj, Value};
use shard::{
    compile_fleet_with, compile_sharded_with, run_worker_fleet, FleetOptions, FleetServer,
    FleetWorkerOptions, ShardOptions,
};
use std::time::Duration;

const USAGE: &str = "\
fermihedral-shard: multi-process sharded compilation

USAGE:
    fermihedral-shard worker --connect ADDR [--shard N]
                                            (TCP fleet worker; --shard reclaims a seat)
    fermihedral-shard coordinate --listen ADDR [OPTIONS]
                                            (TCP fleet coordinator)
    fermihedral-shard [OPTIONS]             (local coordinator CLI)

OPTIONS:
    --modes N        problem size (default 4)
    --shards S       local loopback workers (default 2; local mode only)
    --min-peers N    fleet: wait for N registered workers (default 1)
    --join-timeout SECS  fleet: how long to wait for them (default 30)
    --timeout SECS   wall-clock budget (default 60)
    --cache-dir P    persistent solution cache directory
    --postmortem-dir P  write postmortem-<shard>.json for dead workers
    --help           this text

Structured log verbosity/format come from FERMIHEDRAL_LOG (see README).
";

fn main() {
    telemetry::log::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("worker") {
        let Some(addr) = flag_value(&args, "--connect") else {
            eprintln!("worker requires --connect ADDR");
            std::process::exit(2);
        };
        let options = FleetWorkerOptions {
            shard: flag_value(&args, "--shard").and_then(|v| v.parse().ok()),
            ..FleetWorkerOptions::default()
        };
        std::process::exit(run_worker_fleet(addr, &options));
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return;
    }

    let fleet_addr = if args.first().map(String::as_str) == Some("coordinate") {
        match flag_value(&args, "--listen") {
            Some(addr) => Some(addr.to_string()),
            None => {
                eprintln!("coordinate requires --listen ADDR");
                std::process::exit(2);
            }
        }
    } else {
        None
    };

    let modes: usize = flag_value(&args, "--modes")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let shards: usize = flag_value(&args, "--shards")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let timeout: f64 = flag_value(&args, "--timeout")
        .and_then(|v| v.parse().ok())
        .unwrap_or(60.0);
    let problem = EncodingProblem::new(modes, Objective::MajoranaWeight);
    let config = EngineConfig {
        total_timeout: Some(Duration::from_secs_f64(timeout)),
        shards,
        cache_dir: flag_value(&args, "--cache-dir").map(Into::into),
        ..EngineConfig::default()
    };
    let cache = config
        .cache_dir
        .as_ref()
        .and_then(|dir| SolutionCache::open(dir).ok())
        .map(|c| c.with_byte_cap(config.cache_byte_cap));
    let postmortem_dir = flag_value(&args, "--postmortem-dir").map(Into::into);

    let outcome = if let Some(addr) = fleet_addr {
        let options = FleetOptions {
            min_peers: flag_value(&args, "--min-peers")
                .and_then(|v| v.parse().ok())
                .unwrap_or(1),
            join_timeout: Duration::from_secs_f64(
                flag_value(&args, "--join-timeout")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(30.0),
            ),
            postmortem_dir,
            ..FleetOptions::default()
        };
        let server = match FleetServer::bind(&addr, options) {
            Ok(server) => server,
            Err(e) => {
                eprintln!("binding {addr} failed: {e}");
                std::process::exit(2);
            }
        };
        // A stable line for scripts to wait on before launching workers.
        println!("fermihedral-shard listening on {}", server.local_addr());
        compile_fleet_with(&problem, &config, cache.as_ref(), None, &server)
    } else {
        let options = ShardOptions {
            postmortem_dir,
            ..ShardOptions::default()
        };
        compile_sharded_with(&problem, &config, cache.as_ref(), None, &options)
    };
    let doc = obj([
        ("modes", Value::Num(modes as f64)),
        ("shards", Value::Num(shards as f64)),
        (
            "weight",
            outcome
                .weight()
                .map_or(Value::Null, |w| Value::Num(w as f64)),
        ),
        ("optimal", Value::Bool(outcome.optimal_proved)),
        ("from_cache", Value::Bool(outcome.from_cache)),
        ("report", outcome.report.to_json()),
    ]);
    println!("{}", doc.to_json());
    if !outcome.optimal_proved && !outcome.from_cache {
        std::process::exit(1);
    }
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}
