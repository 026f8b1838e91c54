#!/usr/bin/env bash
# The command of BENCHMARK.json: build the `ledger` binary if it is missing
# or older than a source file, then run it with the arguments given.
#
# Not `cargo run` on every invocation: crates/telemetry/build.rs asks cargo
# to re-run it when `.git/HEAD` changes, and in a checkout that is not a
# git repository that file is missing, which cargo reads as "changed" —
# every `cargo run` would recompile telemetry and all that depends on it
# (~35 s) before measuring anything.
set -euo pipefail

cd "$(dirname "$0")/../.."
bin="${CARGO_TARGET_DIR:-target}/release/ledger"

stale() {
    [ ! -x "$bin" ] && return 0
    [ -n "$(find Cargo.toml crates vendor -type f -newer "$bin" -print -quit)" ]
}

if stale; then
    # Cargo's own output goes to stderr; stdout carries only the result.
    cargo build --release --quiet --offline \
        --manifest-path crates/ledger/Cargo.toml --bin ledger >&2
fi
exec "$bin" "$@"
