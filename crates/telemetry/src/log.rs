//! Leveled, structured logging with span correlation.
//!
//! One event = a severity [`Level`], a dot-namespaced `target`
//! (`shard.coordinator`, `serve.http`, `sat.solver`), a message, and
//! typed key=value fields ([`AttrValue`] — the same attribute type spans
//! use). Every event carries the innermost open span's id
//! ([`crate::current_span_id`]), so a log line can be joined back to the
//! trace timeline it happened inside.
//!
//! Two sinks, both on stderr (stdout stays machine-readable for the
//! bench bins and the shard wire protocol):
//!
//! * **text** (default): `<RFC 3339 ts> <LEVEL> <target>: <msg> k=v …`
//! * **JSON lines** (`set_json(true)`, or `serve --log-json`): one
//!   compact object per line with `ts`, `ts_us`, `level`, `target`,
//!   `msg`, `pid`, `tid`, optional `span` and `fields`.
//!
//! # Filtering — `FERMIHEDRAL_LOG`
//!
//! `RUST_LOG`-style, comma-separated: a bare level sets the default,
//! `target=level` overrides by prefix (longest prefix wins, segments
//! split on `.`). Examples:
//!
//! ```text
//! FERMIHEDRAL_LOG=debug
//! FERMIHEDRAL_LOG=warn,shard=debug
//! FERMIHEDRAL_LOG=info,sat.solver=trace,serve.http=warn
//! ```
//!
//! Unset means `info`. Malformed directives are skipped, never fatal.
//!
//! # The flight-recorder floor
//!
//! Events at [`Level::Info`] and above **always** land in the
//! [`crate::recorder`] ring, even when the sink filter discards them —
//! the black box must not depend on anyone having set the right filter
//! before the crash. `Debug`/`Trace` events exist for live debugging
//! only and never enter the ring; when filtered out (the default) their
//! cost is one atomic load, cheap enough for solver restart/GC events.

use crate::recorder::{Record, RecordKind};
use crate::AttrValue;
use jsonkit::Value;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

/// Log severity, ordered `Trace < Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Hot-path detail (per-restart solver events).
    Trace = 0,
    /// Development diagnostics.
    Debug = 1,
    /// Normal operational events — the flight-recorder floor.
    Info = 2,
    /// Degraded but recovered (a dead shard, a dropped frame).
    Warn = 3,
    /// An operation failed.
    Error = 4,
}

impl Level {
    /// Lower-case name (`"info"`), used by the filter syntax and both
    /// sinks.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Trace => "trace",
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

impl std::str::FromStr for Level {
    type Err = ();

    fn from_str(s: &str) -> Result<Level, ()> {
        match s.trim().to_ascii_lowercase().as_str() {
            "trace" => Ok(Level::Trace),
            "debug" => Ok(Level::Debug),
            "info" => Ok(Level::Info),
            "warn" | "warning" => Ok(Level::Warn),
            "error" => Ok(Level::Error),
            _ => Err(()),
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A parsed `FERMIHEDRAL_LOG` filter: a default level plus per-target
/// prefix overrides.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Filter {
    default: Level,
    /// `(prefix, level)`, longest prefix first.
    directives: Vec<(String, Level)>,
}

impl Default for Filter {
    fn default() -> Filter {
        Filter {
            default: Level::Info,
            directives: Vec::new(),
        }
    }
}

impl Filter {
    /// Parses a `FERMIHEDRAL_LOG` spec. Unrecognized pieces are skipped.
    pub fn parse(spec: &str) -> Filter {
        let mut filter = Filter::default();
        for piece in spec.split(',') {
            let piece = piece.trim();
            if piece.is_empty() {
                continue;
            }
            match piece.split_once('=') {
                None => {
                    if let Ok(level) = piece.parse() {
                        filter.default = level;
                    }
                }
                Some((target, level)) => {
                    if let Ok(level) = level.parse() {
                        filter.directives.push((target.trim().to_string(), level));
                    }
                }
            }
        }
        // Longest prefix first, so the first match is the most specific.
        filter
            .directives
            .sort_by(|a, b| b.0.len().cmp(&a.0.len()).then_with(|| a.0.cmp(&b.0)));
        filter
    }

    /// A filter that passes `default` and above for every target.
    pub fn at_least(default: Level) -> Filter {
        Filter {
            default,
            directives: Vec::new(),
        }
    }

    /// Overrides the default level, keeping per-target directives.
    pub fn with_default(mut self, default: Level) -> Filter {
        self.default = default;
        self
    }

    /// The threshold applying to `target` (most specific directive, or
    /// the default).
    pub fn threshold(&self, target: &str) -> Level {
        for (prefix, level) in &self.directives {
            let matched = target == prefix
                || (target.len() > prefix.len()
                    && target.starts_with(prefix.as_str())
                    && target.as_bytes()[prefix.len()] == b'.');
            if matched {
                return *level;
            }
        }
        self.default
    }

    /// Whether an event at `level` for `target` reaches the sink.
    pub fn allows(&self, level: Level, target: &str) -> bool {
        level >= self.threshold(target)
    }

    /// The most verbose level any directive enables — the fast-path
    /// gate below which no event can possibly pass this filter.
    fn floor(&self) -> Level {
        self.directives
            .iter()
            .map(|(_, level)| *level)
            .chain(std::iter::once(self.default))
            .min()
            .unwrap_or(Level::Info)
    }
}

struct LogState {
    json: AtomicBool,
    /// Cached [`Filter::floor`] — one atomic load rejects below-floor
    /// events without touching the mutex.
    sink_floor: AtomicU8,
    filter: Mutex<Filter>,
}

static STATE: OnceLock<LogState> = OnceLock::new();

fn state() -> &'static LogState {
    STATE.get_or_init(|| LogState {
        json: AtomicBool::new(false),
        sink_floor: AtomicU8::new(Level::Info as u8),
        filter: Mutex::new(Filter::default()),
    })
}

/// Installs a filter (replacing the current one).
pub fn set_filter(filter: Filter) {
    let s = state();
    s.sink_floor.store(filter.floor() as u8, Ordering::Relaxed);
    if let Ok(mut held) = s.filter.lock() {
        *held = filter;
    }
}

/// Switches the sink between text (false, default) and JSON lines.
pub fn set_json(json: bool) {
    state().json.store(json, Ordering::Relaxed);
}

/// Initializes the filter from `FERMIHEDRAL_LOG` (unset = `info`).
/// `default_override` (e.g. `serve --log-level`) replaces the spec's
/// default level but keeps its per-target directives.
pub fn init(default_override: Option<Level>, json: bool) {
    let spec = std::env::var("FERMIHEDRAL_LOG").unwrap_or_default();
    let mut filter = Filter::parse(&spec);
    if let Some(level) = default_override {
        filter = filter.with_default(level);
    }
    set_filter(filter);
    set_json(json);
}

/// [`init`] with no overrides — the one-liner for binaries.
pub fn init_from_env() {
    init(None, false);
}

/// Whether an event at `level` for `target` would go anywhere (sink or
/// flight recorder). The macros call this before building fields; below
/// the recorder floor and the sink floor it is one atomic load.
pub fn enabled(level: Level, target: &str) -> bool {
    if level >= Level::Info {
        return true; // always recorded in the flight-recorder ring
    }
    let s = state();
    if (level as u8) < s.sink_floor.load(Ordering::Relaxed) {
        return false;
    }
    s.filter
        .lock()
        .map(|filter| filter.allows(level, target))
        .unwrap_or(false)
}

/// Emits one structured event: into the flight recorder at
/// [`Level::Info`]+, and onto the stderr sink when the filter allows.
/// Prefer the `log_*!` macros, which gate on [`enabled`] first.
pub fn log(level: Level, target: &str, msg: String, fields: Vec<(String, AttrValue)>) {
    let registry = crate::global();
    let ts_us = registry.now_us();
    let span_id = crate::current_span_id();
    let tid = crate::current_tid();

    if level >= Level::Info {
        crate::recorder::recorder().record(Record {
            seq: 0,
            ts_us,
            tid,
            span_id,
            kind: RecordKind::Log {
                level,
                target: target.to_string(),
                msg: msg.clone(),
                fields: fields.clone(),
            },
        });
    }

    let s = state();
    let sink_allows = s
        .filter
        .lock()
        .map(|filter| filter.allows(level, target))
        .unwrap_or(false);
    if !sink_allows {
        return;
    }
    let unix_us = registry.epoch_wall_us().saturating_add(ts_us);
    let line = if s.json.load(Ordering::Relaxed) {
        format_json_line(unix_us, level, target, &msg, span_id, tid, &fields)
    } else {
        format_text_line(unix_us, level, target, &msg, span_id, &fields)
    };
    let stderr = std::io::stderr();
    let mut handle = stderr.lock();
    let _ = writeln!(handle, "{line}");
}

/// Renders the human-readable sink line (without the trailing newline).
pub fn format_text_line(
    unix_us: u64,
    level: Level,
    target: &str,
    msg: &str,
    span_id: u64,
    fields: &[(String, AttrValue)],
) -> String {
    use std::fmt::Write as _;
    let mut line = format!(
        "{} {:>5} {}: {}",
        format_rfc3339_us(unix_us),
        level.as_str().to_ascii_uppercase(),
        target,
        msg
    );
    for (key, value) in fields {
        match value {
            AttrValue::Str(s) => {
                let _ = write!(line, " {key}={s:?}");
            }
            AttrValue::I64(v) => {
                let _ = write!(line, " {key}={v}");
            }
            AttrValue::U64(v) => {
                let _ = write!(line, " {key}={v}");
            }
            AttrValue::F64(v) => {
                let _ = write!(line, " {key}={v}");
            }
            AttrValue::Bool(v) => {
                let _ = write!(line, " {key}={v}");
            }
        }
    }
    if span_id != 0 {
        let _ = write!(line, " span={span_id}");
    }
    line
}

/// Renders the JSON-lines sink record (one compact object, no newline).
/// Schema (validated line by line in `crates/serve/tests/log_schema.rs`
/// against a real `serve --log-json` capture): `ts`, `ts_us`,
/// `level`, `target`, `msg`, `pid`, `tid` always present; `span` and
/// `fields` only when nonempty.
pub fn format_json_line(
    unix_us: u64,
    level: Level,
    target: &str,
    msg: &str,
    span_id: u64,
    tid: u64,
    fields: &[(String, AttrValue)],
) -> String {
    let mut out = vec![
        ("ts", Value::Str(format_rfc3339_us(unix_us))),
        ("ts_us", Value::Num(unix_us as f64)),
        ("level", Value::Str(level.as_str().into())),
        ("target", Value::Str(target.into())),
        ("msg", Value::Str(msg.into())),
        ("pid", Value::Num(std::process::id() as f64)),
        ("tid", Value::Num(tid as f64)),
    ];
    if span_id != 0 {
        out.push(("span", Value::Num(span_id as f64)));
    }
    if !fields.is_empty() {
        out.push((
            "fields",
            Value::Obj(
                fields
                    .iter()
                    .map(|(k, v)| (k.clone(), v.to_json_value()))
                    .collect(),
            ),
        ));
    }
    jsonkit::obj(out).to_json_compact()
}

/// Formats unix microseconds as RFC 3339 UTC with microsecond precision
/// (`2026-08-09T12:34:56.123456Z`). Hand-rolled: the container has no
/// chrono, and the sink must not allocate surprises.
pub fn format_rfc3339_us(unix_us: u64) -> String {
    let secs = (unix_us / 1_000_000) as i64;
    let micros = unix_us % 1_000_000;
    let days = secs.div_euclid(86_400);
    let secs_of_day = secs.rem_euclid(86_400);
    let (year, month, day) = civil_from_days(days);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}.{micros:06}Z",
        secs_of_day / 3600,
        (secs_of_day / 60) % 60,
        secs_of_day % 60,
    )
}

/// Days-since-1970 → (year, month, day), via the standard era/century
/// decomposition of the proleptic Gregorian calendar.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097) as u64;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let year = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let month = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if month <= 2 { year + 1 } else { year }, month, day)
}

/// The low-level event macro: `log_event!(level, target, msg, k = v, …)`.
/// Prefer the leveled wrappers (`log_info!` &c.).
#[macro_export]
macro_rules! log_event {
    ($level:expr, $target:expr, $msg:expr $(, $key:ident = $value:expr)* $(,)?) => {{
        let level = $level;
        let target: &str = $target;
        if $crate::log::enabled(level, target) {
            $crate::log::log(
                level,
                target,
                ::std::string::String::from($msg),
                ::std::vec![
                    $((::std::string::String::from(::std::stringify!($key)),
                       $crate::AttrValue::from($value))),*
                ],
            );
        }
    }};
}

/// `log_error!(target, msg, key = value, …)`
#[macro_export]
macro_rules! log_error {
    ($target:expr, $msg:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::log_event!($crate::Level::Error, $target, $msg $(, $key = $value)*)
    };
}

/// `log_warn!(target, msg, key = value, …)`
#[macro_export]
macro_rules! log_warn {
    ($target:expr, $msg:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::log_event!($crate::Level::Warn, $target, $msg $(, $key = $value)*)
    };
}

/// `log_info!(target, msg, key = value, …)`
#[macro_export]
macro_rules! log_info {
    ($target:expr, $msg:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::log_event!($crate::Level::Info, $target, $msg $(, $key = $value)*)
    };
}

/// `log_debug!(target, msg, key = value, …)`
#[macro_export]
macro_rules! log_debug {
    ($target:expr, $msg:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::log_event!($crate::Level::Debug, $target, $msg $(, $key = $value)*)
    };
}

/// `log_trace!(target, msg, key = value, …)`
#[macro_export]
macro_rules! log_trace {
    ($target:expr, $msg:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::log_event!($crate::Level::Trace, $target, $msg $(, $key = $value)*)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_parse() {
        assert!(Level::Trace < Level::Debug);
        assert!(Level::Debug < Level::Info);
        assert!(Level::Info < Level::Warn);
        assert!(Level::Warn < Level::Error);
        for level in [
            Level::Trace,
            Level::Debug,
            Level::Info,
            Level::Warn,
            Level::Error,
        ] {
            assert_eq!(level.as_str().parse::<Level>(), Ok(level));
        }
        assert_eq!("WARNING".parse::<Level>(), Ok(Level::Warn));
        assert!("loud".parse::<Level>().is_err());
    }

    #[test]
    fn filter_prefix_matching_is_longest_first() {
        let f = Filter::parse("warn,sat=debug,sat.solver=trace,serve=error");
        assert_eq!(f.threshold("engine"), Level::Warn);
        assert_eq!(f.threshold("sat"), Level::Debug);
        assert_eq!(f.threshold("sat.descent"), Level::Debug);
        assert_eq!(f.threshold("sat.solver"), Level::Trace);
        assert_eq!(f.threshold("sat.solver.gc"), Level::Trace);
        assert_eq!(f.threshold("serve.http"), Level::Error);
        // Prefixes match whole segments only: `satx` is not under `sat`.
        assert_eq!(f.threshold("satx"), Level::Warn);
        assert_eq!(f.floor(), Level::Trace);
    }

    #[test]
    fn filter_skips_malformed_directives() {
        let f = Filter::parse("bogus,shard=loud,debug, ,serve=warn");
        assert_eq!(f.threshold("anything"), Level::Debug);
        assert_eq!(f.threshold("serve"), Level::Warn);
        assert_eq!(Filter::parse(""), Filter::default());
    }

    #[test]
    fn rfc3339_formatting_matches_known_instants() {
        assert_eq!(format_rfc3339_us(0), "1970-01-01T00:00:00.000000Z");
        // 2000-03-01, the day after the century leap day.
        assert_eq!(
            format_rfc3339_us(951_868_800_000_000),
            "2000-03-01T00:00:00.000000Z"
        );
        // An arbitrary modern instant with a microsecond tail.
        assert_eq!(
            format_rfc3339_us(1_754_700_000_123_456),
            "2025-08-09T00:40:00.123456Z"
        );
    }

    #[test]
    fn text_line_renders_fields_and_span() {
        let line = format_text_line(
            0,
            Level::Warn,
            "shard.coordinator",
            "worker died",
            7,
            &[
                ("shard".into(), AttrValue::U64(2)),
                ("error".into(), AttrValue::Str("broken pipe".into())),
                ("fatal".into(), AttrValue::Bool(false)),
            ],
        );
        assert_eq!(
            line,
            "1970-01-01T00:00:00.000000Z  WARN shard.coordinator: worker died \
             shard=2 error=\"broken pipe\" fatal=false span=7"
        );
    }

    #[test]
    fn json_line_is_one_parseable_object() {
        let line = format_json_line(
            1_754_700_000_123_456,
            Level::Info,
            "serve.access",
            "request\nwith newline",
            0,
            3,
            &[("status".into(), AttrValue::U64(200))],
        );
        assert!(!line.contains('\n'), "one record = one line");
        let v = jsonkit::parse(&line).expect("sink line must be valid JSON");
        assert_eq!(v.get("level").unwrap().as_str(), Some("info"));
        assert_eq!(v.get("target").unwrap().as_str(), Some("serve.access"));
        assert_eq!(
            v.get("msg").unwrap().as_str(),
            Some("request\nwith newline")
        );
        assert_eq!(v.get("span"), None, "span 0 is omitted");
        assert_eq!(
            v.get("fields").unwrap().get("status").unwrap().as_usize(),
            Some(200)
        );
        assert_eq!(
            v.get("ts").unwrap().as_str(),
            Some("2025-08-09T00:40:00.123456Z")
        );
    }

    #[test]
    fn enabled_gate_and_recorder_floor() {
        // One test (not two): these assertions mutate the global filter,
        // and cargo runs sibling tests concurrently.
        //
        // Whatever the sink filter says, the black box keeps Info+.
        set_filter(Filter::at_least(Level::Error));
        assert!(enabled(Level::Info, "anything"));
        assert!(enabled(Level::Warn, "anything"));
        assert!(!enabled(Level::Debug, "anything"));
        let before = crate::recorder::recorder().written();
        crate::log_info!("log.test", "recorded despite the filter", k = 1u64);
        assert_eq!(crate::recorder::recorder().written(), before + 1);

        // Below the floor, the per-target directives decide.
        set_filter(Filter::parse("warn,log.test=debug"));
        assert!(enabled(Level::Debug, "log.test"));
        assert!(enabled(Level::Debug, "log.test.sub"));
        assert!(!enabled(Level::Debug, "other"));
        assert!(!enabled(Level::Trace, "log.test"));
        set_filter(Filter::default());
    }
}
