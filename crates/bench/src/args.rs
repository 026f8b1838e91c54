//! Minimal command-line flag parsing for the experiment binaries.
//!
//! All binaries share one convention: `--flag value` pairs, `--csv` as a
//! boolean, unknown flags rejected loudly (silent typos would silently run
//! the wrong experiment).

use std::collections::BTreeMap;
use std::time::Duration;

/// Parsed command-line arguments.
///
/// # Example
///
/// ```
/// use fermihedral_bench::args::Args;
///
/// let args = Args::parse_from(
///     ["--max-modes", "6", "--csv"].iter().map(|s| s.to_string()),
///     &["max-modes", "csv"],
/// );
/// assert_eq!(args.get_usize("max-modes", 4), 6);
/// assert!(args.get_bool("csv"));
/// assert_eq!(args.get_usize("shots", 100), 100); // default
/// ```
#[derive(Debug, Clone)]
pub struct Args {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses `std::env::args`, allowing only the listed flag names.
    ///
    /// # Panics
    ///
    /// Panics (with usage help) on unknown flags or missing values.
    pub fn parse(allowed: &[&str]) -> Args {
        Args::parse_from(std::env::args().skip(1), allowed)
    }

    /// Parses an explicit iterator (testable form of [`parse`](Self::parse)).
    pub fn parse_from(mut it: impl Iterator<Item = String>, allowed: &[&str]) -> Args {
        let mut values = BTreeMap::new();
        let mut flags = Vec::new();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                panic!("unexpected positional argument {arg:?}; flags are --name value");
            };
            assert!(
                allowed.contains(&name),
                "unknown flag --{name}; allowed: {}",
                allowed
                    .iter()
                    .map(|f| format!("--{f}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            );
            // `--csv` is the one boolean flag; it takes no value.
            if name == "csv" {
                flags.push(name.to_string());
                continue;
            }
            let value = it
                .next()
                .unwrap_or_else(|| panic!("flag --{name} needs a value"));
            values.insert(name.to_string(), value);
        }
        Args { values, flags }
    }

    /// Integer flag with default.
    pub fn get_usize(&self, name: &str, default: usize) -> usize {
        self.values
            .get(name)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{name} expects an integer, got {v:?}"))
            })
            .unwrap_or(default)
    }

    /// Float flag with default.
    pub fn get_f64(&self, name: &str, default: f64) -> f64 {
        self.values
            .get(name)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{name} expects a number, got {v:?}"))
            })
            .unwrap_or(default)
    }

    /// Seed flag with default.
    pub fn get_u64(&self, name: &str, default: u64) -> u64 {
        self.values
            .get(name)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{name} expects an integer, got {v:?}"))
            })
            .unwrap_or(default)
    }

    /// Duration flag in (possibly fractional) seconds.
    pub fn get_duration_secs(&self, name: &str, default_secs: f64) -> Duration {
        Duration::from_secs_f64(self.get_f64(name, default_secs))
    }

    /// Boolean flag presence.
    pub fn get_bool(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Raw string flag, if present.
    pub fn get_str(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// Comma-separated list of integers, with default.
    pub fn get_usize_list(&self, name: &str, default: &[usize]) -> Vec<usize> {
        match self.get_str(name) {
            Some(list) => list
                .split(',')
                .map(|t| {
                    t.trim()
                        .parse()
                        .unwrap_or_else(|_| panic!("--{name} expects comma-separated integers"))
                })
                .collect(),
            None => default.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_mixed_flags() {
        let a = Args::parse_from(
            ["--shots", "500", "--timeout", "2.5", "--csv"]
                .iter()
                .map(|s| s.to_string()),
            &["shots", "timeout", "csv"],
        );
        assert_eq!(a.get_usize("shots", 1), 500);
        assert!((a.get_f64("timeout", 0.0) - 2.5).abs() < 1e-12);
        assert_eq!(
            a.get_duration_secs("timeout", 0.0),
            Duration::from_millis(2500)
        );
        assert!(a.get_bool("csv"));
        assert!(!a.get_bool("verbose"));
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn rejects_unknown() {
        let _ = Args::parse_from(["--bogus", "1"].iter().map(|s| s.to_string()), &["shots"]);
    }

    #[test]
    #[should_panic(expected = "needs a value")]
    fn missing_value() {
        let _ = Args::parse_from(["--shots"].iter().map(|s| s.to_string()), &["shots"]);
    }
}
