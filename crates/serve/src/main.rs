//! The `serve` binary: a long-running fermion-to-qubit compilation server.
//!
//! ```text
//! serve --addr 127.0.0.1:7979 --cache-dir ./solution-cache
//! ```
//!
//! Shuts down gracefully — cancelling in-flight solves and draining the
//! admission queue — on SIGTERM or SIGINT, or (with `--watch-stdin`) when
//! stdin reaches EOF, then exits 0. `--watch-stdin` is opt-in because
//! detached/background invocations often run with stdin already closed.

use engine::EngineConfig;
use serve::ServeConfig;
use std::io::Read;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

static SHUTDOWN_REQUESTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" fn on_signal(_signum: i32) {
        // Async-signal-safe: a relaxed atomic store only.
        SHUTDOWN_REQUESTED.store(true, Ordering::Relaxed);
    }
    // Bind `signal(2)` from the libc std already links (no crates.io
    // access for the `libc` crate in this container).
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as extern "C" fn(i32) as *const () as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

const USAGE: &str = "\
fermihedral-serve: long-running fermion-to-qubit compilation server

USAGE:
    serve [--addr HOST:PORT] [--cache-dir PATH] [OPTIONS]

OPTIONS:
    --addr HOST:PORT          bind address (default 127.0.0.1:7979; port 0 = ephemeral)
    --cache-dir PATH          persistent solution cache directory (default: caching off)
    --cache-byte-cap BYTES    LRU-evict the cache directory down to this size
    --workers N               solve worker threads (default 2)
    --queue-capacity N        admission queue capacity (default 64)
    --max-connections N       concurrent connection cap (default 64)
    --default-deadline-ms MS  deadline for requests that name none (default 10000)
    --max-deadline-ms MS      ceiling on any request deadline (default 120000)
    --max-modes N             largest accepted problem (default 8)
    --shards N                shard each solve across N worker processes
                              (default 0 = in-process; needs the
                              fermihedral-shard binary on the usual paths)
    --fleet HOST:PORT         listen for `fermihedral-shard worker
                              --connect` TCP workers and race solves
                              across them (multi-host; overrides --shards)
    --trace-dir PATH          write each request's Chrome trace JSON to
                              PATH/<fingerprint>.trace.json
    --journal-dir PATH        append admitted compile/batch jobs to a
                              crash-replayable journal; on startup, replay
                              and finish whatever a previous process was
                              killed holding
    --tenant SPEC             add a tenant: name:key[:max_in_flight[:max_queued]]
                              (repeatable; once any tenant is configured,
                              compile endpoints require an API key via
                              `authorization: Bearer <key>` or `x-api-key`)
    --log-level LEVEL         stderr log floor: trace|debug|info|warn|error
                              (overrides FERMIHEDRAL_LOG's default level)
    --log-json                emit stderr logs as JSON lines instead of text
    --watch-stdin             also shut down when stdin reaches EOF
    --help                    this text

Set FERMIHEDRAL_LOG (e.g. `info,serve.access=debug`) for per-target
filtering; `--log-level` only overrides the default level.
";

struct Flags {
    values: Vec<(String, String)>,
    watch_stdin: bool,
    log_json: bool,
}

fn parse_flags() -> Flags {
    let mut values = Vec::new();
    let mut watch_stdin = false;
    let mut log_json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            "--watch-stdin" => watch_stdin = true,
            "--log-json" => log_json = true,
            name if name.starts_with("--") => {
                let known = [
                    "--addr",
                    "--cache-dir",
                    "--cache-byte-cap",
                    "--workers",
                    "--queue-capacity",
                    "--max-connections",
                    "--default-deadline-ms",
                    "--max-deadline-ms",
                    "--max-modes",
                    "--shards",
                    "--fleet",
                    "--trace-dir",
                    "--journal-dir",
                    "--tenant",
                    "--log-level",
                ];
                if !known.contains(&name) {
                    telemetry::log_error!(
                        "serve.cli",
                        "unknown flag",
                        flag = name,
                        hint = "run with --help for usage",
                    );
                    std::process::exit(2);
                }
                let Some(value) = args.next() else {
                    telemetry::log_error!(
                        "serve.cli",
                        "flag needs a value",
                        flag = name,
                        hint = "run with --help for usage",
                    );
                    std::process::exit(2);
                };
                values.push((name.trim_start_matches("--").to_string(), value));
            }
            other => {
                telemetry::log_error!(
                    "serve.cli",
                    "unexpected argument",
                    argument = other,
                    hint = "run with --help for usage",
                );
                std::process::exit(2);
            }
        }
    }
    Flags {
        values,
        watch_stdin,
        log_json,
    }
}

impl Flags {
    fn get(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Every value of a repeatable flag, in order (`--tenant`).
    fn get_all<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'s str> + 's {
        self.values
            .iter()
            .filter(move |(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn get_num(&self, name: &str, default: u64) -> u64 {
        self.get(name).map_or(default, |v| {
            v.parse().unwrap_or_else(|_| {
                telemetry::log_error!(
                    "serve.cli",
                    "flag expects an integer",
                    flag = format!("--{name}"),
                    value = v,
                );
                std::process::exit(2);
            })
        })
    }
}

fn main() {
    install_signal_handlers();
    let flags = parse_flags();
    let log_level = flags.get("log-level").map(|v| {
        v.parse::<telemetry::log::Level>().unwrap_or_else(|()| {
            telemetry::log_error!(
                "serve.cli",
                "bad flag value",
                flag = "--log-level",
                value = v,
                expected = "trace|debug|info|warn|error",
            );
            std::process::exit(2);
        })
    });
    telemetry::log::init(log_level, flags.log_json);

    let engine = EngineConfig {
        shards: flags.get_num("shards", 0) as usize,
        cache_dir: flags.get("cache-dir").map(Into::into),
        cache_byte_cap: flags.get("cache-byte-cap").map(|v| {
            v.parse().unwrap_or_else(|_| {
                telemetry::log_error!(
                    "serve.cli",
                    "flag expects an integer",
                    flag = "--cache-byte-cap",
                    value = v,
                );
                std::process::exit(2);
            })
        }),
        ..EngineConfig::default()
    };
    let config = ServeConfig {
        addr: flags.get("addr").unwrap_or("127.0.0.1:7979").to_string(),
        solve_workers: flags.get_num("workers", 2) as usize,
        queue_capacity: flags.get_num("queue-capacity", 64) as usize,
        max_connections: flags.get_num("max-connections", 64) as usize,
        default_deadline: Duration::from_millis(flags.get_num("default-deadline-ms", 10_000)),
        max_deadline: Duration::from_millis(flags.get_num("max-deadline-ms", 120_000)),
        max_modes: flags.get_num("max-modes", 8) as usize,
        trace_dir: flags.get("trace-dir").map(Into::into),
        engine,
        fleet_addr: flags.get("fleet").map(Into::into),
        journal_dir: flags.get("journal-dir").map(Into::into),
        tenants: flags
            .get_all("tenant")
            .map(|spec| {
                serve::tenant::TenantConfig::parse(spec).unwrap_or_else(|e| {
                    telemetry::log_error!(
                        "serve.cli",
                        "bad tenant spec",
                        spec = spec,
                        error = e,
                        expected = "name:key[:max_in_flight[:max_queued]]",
                    );
                    std::process::exit(2);
                })
            })
            .collect(),
        ..ServeConfig::default()
    };

    let handle = match serve::start(config) {
        Ok(handle) => handle,
        Err(e) => {
            telemetry::log_error!("serve", "failed to start server", error = e.to_string(),);
            std::process::exit(1);
        }
    };
    // The CI smoke test and scripts parse this line; keep it stable.
    println!(
        "fermihedral-serve listening on http://{}",
        handle.local_addr()
    );
    telemetry::log_info!("serve", "listening", addr = handle.local_addr().to_string(),);

    if flags.watch_stdin {
        std::thread::spawn(|| {
            let mut sink = [0u8; 1024];
            let mut stdin = std::io::stdin().lock();
            loop {
                match stdin.read(&mut sink) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
            }
            SHUTDOWN_REQUESTED.store(true, Ordering::Relaxed);
        });
    }

    while !SHUTDOWN_REQUESTED.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_millis(50));
    }
    telemetry::log_info!(
        "serve",
        "shutting down: cancelling in-flight solves, draining the queue",
    );
    handle.shutdown();
    handle.join();
    telemetry::log_info!("serve", "shut down cleanly",);
}
