//! Bakes build provenance into the telemetry crate: the git commit, the
//! rustc that compiled it, and the profile. Exposed at runtime through
//! [`build_info`] and rendered as the Prometheus `build_info` gauge and
//! the `/healthz` body — so a fleet operator can tell at a glance which
//! commit a wedged worker is running.
//!
//! Every value degrades to `"unknown"` when the probe fails (tarball
//! builds without `.git`, exotic toolchains): provenance is diagnostics,
//! never a build failure.

use std::process::Command;

fn probe(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let text = text.trim();
    (!text.is_empty()).then(|| text.to_string())
}

fn main() {
    let git_hash =
        probe("git", &["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let rustc_version = probe(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=FERMIHEDRAL_GIT_HASH={git_hash}");
    println!("cargo:rustc-env=FERMIHEDRAL_RUSTC_VERSION={rustc_version}");
    // Re-run when HEAD moves so the hash stays honest across commits. In a
    // checkout that is not a git repository the file is missing, which
    // cargo reads as "changed" on every invocation and recompiles this
    // crate and everything above it; there only the script itself counts.
    println!("cargo:rerun-if-changed=build.rs");
    if std::path::Path::new("../../.git/HEAD").exists() {
        println!("cargo:rerun-if-changed=../../.git/HEAD");
    }
}
