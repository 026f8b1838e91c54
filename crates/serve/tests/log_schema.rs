//! The JSON log sink's schema, checked against a real server's stderr.
//!
//! Every line `serve --log-json` writes must parse as one JSON object
//! with the fields `telemetry::log::format_json_line` documents: `ts`
//! (RFC 3339 UTC), `ts_us`, `level`, `target`, `msg`, `pid` and `tid`
//! always, with the right types; `span` and `fields` optional but typed
//! when present. The integration half drives the binary through one
//! compile, one trace fetch and a SIGTERM shutdown, then validates the
//! whole capture.

use jsonkit::Value;
use serve::client::Client;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Validates one JSON-sink log line against the schema documented on
/// `telemetry::log::format_json_line`.
fn validate_log_line(line: &str) -> Result<(), String> {
    let doc = jsonkit::parse(line).map_err(|_| "not valid JSON".to_string())?;
    for key in ["ts", "level", "target", "msg"] {
        let value = doc
            .get(key)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("`{key}` missing or not a string"))?;
        if key != "msg" && value.is_empty() {
            return Err(format!("`{key}` is empty"));
        }
    }
    let ts = doc.get("ts").and_then(Value::as_str).unwrap_or_default();
    if !ts.ends_with('Z') || !ts.contains('T') {
        return Err(format!("`ts` is not RFC 3339 UTC: {ts:?}"));
    }
    let level = doc.get("level").and_then(Value::as_str).unwrap_or_default();
    if !["trace", "debug", "info", "warn", "error"].contains(&level) {
        return Err(format!("unknown `level` {level:?}"));
    }
    for key in ["ts_us", "pid", "tid"] {
        if doc.get(key).and_then(Value::as_f64).is_none() {
            return Err(format!("`{key}` missing or not a number"));
        }
    }
    if let Some(span) = doc.get("span") {
        if span.as_f64().is_none() {
            return Err("`span` present but not a number".to_string());
        }
    }
    if let Some(fields) = doc.get("fields") {
        match fields {
            Value::Obj(kv) if !kv.is_empty() => {}
            _ => return Err("`fields` present but not a nonempty object".to_string()),
        }
    }
    Ok(())
}

/// Validates a whole capture; returns per-line failures (1-indexed).
fn validate_log_file(text: &str) -> Vec<String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .filter_map(|(i, line)| {
            validate_log_line(line)
                .err()
                .map(|e| format!("line {}: {e}", i + 1))
        })
        .collect()
}

#[test]
fn log_schema_accepts_real_lines_and_rejects_malformed_ones() {
    let good = telemetry::log::format_json_line(
        1_754_700_000_123_456,
        telemetry::Level::Info,
        "serve.access",
        "request",
        7,
        3,
        &[("status".into(), telemetry::AttrValue::U64(200))],
    );
    assert_eq!(validate_log_line(&good), Ok(()));
    let bare = telemetry::log::format_json_line(
        1_754_700_000_123_456,
        telemetry::Level::Warn,
        "shard.coordinator",
        "worker died mid-race; degrading to survivors",
        0,
        1,
        &[],
    );
    assert_eq!(validate_log_line(&bare), Ok(()));

    assert!(validate_log_line("not json").is_err());
    assert!(validate_log_line(r#"{"ts": "x", "level": "info"}"#).is_err());
    assert!(
        validate_log_line(
            r#"{"ts": "2026-08-09T00:00:00.000000Z", "ts_us": 1, "level": "loud",
               "target": "t", "msg": "m", "pid": 1, "tid": 1}"#
        )
        .is_err(),
        "unknown level must fail"
    );

    let capture = format!("{good}\n\n{bare}\nnot json\n");
    let bad = validate_log_file(&capture);
    assert_eq!(bad.len(), 1, "{bad:?}");
    assert!(bad[0].starts_with("line 4:"), "{bad:?}");
}

#[test]
fn serve_json_log_capture_conforms_to_the_schema() {
    let cache_dir = std::env::temp_dir().join(format!(
        "fermihedral-log-schema-test-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--addr", "127.0.0.1:0", "--cache-dir"])
        .arg(&cache_dir)
        .args(["--log-json", "--log-level", "debug"])
        .env_remove("FERMIHEDRAL_LOG")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve binary");

    // Drain stderr on its own thread so a full pipe never stalls the
    // server; the capture is validated once the process has exited.
    let mut stderr = child.stderr.take().expect("piped stderr");
    let capture = std::thread::spawn(move || {
        let mut text = String::new();
        stderr.read_to_string(&mut text).expect("stderr is UTF-8");
        text
    });
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
    let addr: SocketAddr = loop {
        let line = stdout
            .next()
            .expect("serve exited before announcing its address")
            .expect("readable stdout");
        if let Some(rest) = line.strip_prefix("fermihedral-serve listening on http://") {
            break rest.trim().parse().expect("parseable address");
        }
    };
    let drain_stdout = std::thread::spawn(move || stdout.for_each(drop));

    let mut client = Client::connect(addr).expect("connect");
    let (status, doc) = client
        .request(
            "POST",
            "/v1/compile",
            Some(r#"{"modes": 2, "deadline_ms": 60000}"#),
        )
        .expect("compile");
    assert_eq!(status, 200, "{doc:?}");
    let fingerprint = doc
        .get("fingerprint")
        .and_then(Value::as_str)
        .expect("compile response carries its fingerprint")
        .to_string();
    let (status, trace) = client
        .request("GET", &format!("/v1/trace/{fingerprint}"), None)
        .expect("trace");
    assert_eq!(status, 200, "{trace:?}");
    drop(client);

    // Graceful shutdown within a bound: a hang fails instead of blocking.
    let killed = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(killed.success());
    let deadline = Instant::now() + Duration::from_secs(30);
    let exit = loop {
        if let Some(exit) = child.try_wait().expect("wait on serve") {
            break exit;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("serve did not exit within 30 s of SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(exit.success(), "serve exited with {exit}");
    drain_stdout.join().unwrap();
    let text = capture.join().unwrap();
    let _ = std::fs::remove_dir_all(&cache_dir);

    let bad = validate_log_file(&text);
    assert!(bad.is_empty(), "schema violations: {bad:?}\n{text}");
    // An empty capture would pass the line check vacuously.
    let serve_lines = text
        .lines()
        .filter_map(|line| jsonkit::parse(line).ok())
        .filter(|doc| {
            doc.get("target")
                .and_then(Value::as_str)
                .is_some_and(|t| t == "serve" || t.starts_with("serve."))
        })
        .count();
    assert!(
        serve_lines > 0,
        "no line from a serve target in the capture:\n{text}"
    );
}
