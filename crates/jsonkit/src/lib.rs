//! Minimal JSON reading/writing shared by the solution cache, the benchmark
//! harness, and the compilation server.
//!
//! The container has no crates.io access, so `serde` is unavailable; this
//! crate implements the small subset the workspace needs: a [`Value`] tree,
//! a writer with deterministic field order, and a recursive-descent parser.
//! Numbers are `f64` (every number the workspace stores — weights, timings,
//! mode counts — fits exactly).
//!
//! Because the compilation server feeds *untrusted network input* into
//! [`parse`], the parser is hardened:
//!
//! * nesting beyond [`MAX_PARSE_DEPTH`] is rejected (no stack overflow from
//!   a `[[[[…]]]]` bomb);
//! * non-finite numbers are rejected (`NaN`/`Infinity` are not JSON, and
//!   `1e999`-style overflow to `∞` is refused rather than absorbed);
//! * the writer renders a non-finite [`Value::Num`] as `null`, so a
//!   serialized document always re-parses.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Maximum container nesting depth [`parse`] accepts. Deeper documents fail
/// with a `ParseError` instead of risking a parser stack overflow.
pub const MAX_PARSE_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. `BTreeMap` keeps serialization deterministic.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number payload as a `usize`, if it is a non-negative integer.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as usize),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Looks up a field, if this is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Serializes with two-space indentation and sorted object keys.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    /// Serializes on one line with no whitespace — the form JSON-lines
    /// sinks (structured logs, flight-recorder checkpoints) require,
    /// where a literal newline would split one record into two.
    pub fn to_json_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Num(n) if !n.is_finite() => out.push_str("null"),
            Value::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Num(n) if !n.is_finite() => out.push_str("null"),
            Value::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Value::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Convenience: an object from key/value pairs.
pub fn obj(fields: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A parse failure, with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document (trailing whitespace allowed, nothing else).
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input, nesting deeper than
/// [`MAX_PARSE_DEPTH`], or numbers outside the finite `f64` range.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing characters"));
    }
    Ok(value)
}

fn err(at: usize, message: &str) -> ParseError {
    ParseError {
        at,
        message: message.to_string(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), ParseError> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, &format!("expected {:?}", b as char)))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, ParseError> {
    if depth > MAX_PARSE_DEPTH {
        return Err(err(*pos, "nesting too deep"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'n') => parse_keyword(bytes, pos, "null", Value::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Value::Bool(false)),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(err(*pos, "expected ',' or ']'")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.insert(key, value);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => return Err(err(*pos, "expected ',' or '}'")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Value,
) -> Result<Value, ParseError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(err(*pos, &format!("expected '{word}'")))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let hex =
                            std::str::from_utf8(hex).map_err(|_| err(*pos, "bad \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "bad \\u escape"))?;
                        // Surrogates are not produced by our writer; map
                        // lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume the run of plain bytes up to the next quote or
                // escape (neither byte occurs inside a multi-byte scalar)
                // and validate only that run, so parsing stays linear in
                // the input.
                let run = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .unwrap_or(bytes.len() - *pos);
                let plain = std::str::from_utf8(&bytes[*pos..*pos + run])
                    .map_err(|e| err(*pos + e.valid_up_to(), "invalid UTF-8"))?;
                out.push_str(plain);
                *pos += run;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).unwrap();
    let n: f64 = text.parse().map_err(|_| err(start, "bad number"))?;
    if !n.is_finite() {
        // `1e999` parses to `inf` under `str::parse`; JSON has no such
        // value, and letting it through would poison later arithmetic.
        return Err(err(start, "number out of range"));
    }
    Ok(Value::Num(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::strategy::Strategy;
    use proptest::test_runner::TestRng;
    use rand::Rng;

    #[test]
    fn round_trips_nested_document() {
        let doc = obj([
            ("name", Value::Str("hub\"bard\n".into())),
            ("modes", Value::Num(4.0)),
            ("optimal", Value::Bool(true)),
            ("nothing", Value::Null),
            (
                "strings",
                Value::Arr(vec![Value::Str("XYZI".into()), Value::Str("IIXX".into())]),
            ),
            ("nested", obj([("pi", Value::Num(3.25))])),
        ]);
        let text = doc.to_json();
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn parses_a_large_string_heavy_document_in_linear_time() {
        // 4.5 MB of strings with multi-byte scalars and every kind of
        // escape. Re-validating the rest of the input per character cost
        // 19.6 s for 2 MB; the bound is far above a linear parse (tens of
        // milliseconds) and far below a quadratic one.
        let piece = "héllo \"wörld\" \\ 量子ビット \n\t\u{8}\u{1} 🙂 /fermion→qubit/ ";
        let mut strings: Vec<Value> = (0..4000)
            .map(|i| Value::Str(format!("{i}:{}", piece.repeat(8 + i % 5))))
            .collect();
        strings.push(Value::Str(piece.repeat(16_000)));
        let doc = obj([
            ("strings", Value::Arr(strings)),
            ("ключ", Value::Str("значение".into())),
        ]);
        let text = doc.to_json();
        assert!(text.len() >= 4 << 20, "document is {} bytes", text.len());
        let start = std::time::Instant::now();
        let parsed = parse(&text).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(parsed, doc);
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "parsing {} bytes took {elapsed:?}",
            text.len()
        );
    }

    #[test]
    fn parses_hand_written_json() {
        let v = parse(r#" { "a" : [ 1, -2.5, [] , {} ], "b": "xAy" } "#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 4);
        assert_eq!(v.get("b").unwrap().as_str(), Some("xAy"));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_usize(), Some(1));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"unterminated"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn compact_form_is_single_line_and_round_trips() {
        let doc = obj([
            ("msg", Value::Str("line\nbreak \"q\"".into())),
            ("n", Value::Num(4.0)),
            ("arr", Value::Arr(vec![Value::Null, Value::Bool(true)])),
            ("nested", obj([("f", Value::Num(0.5))])),
        ]);
        let line = doc.to_json_compact();
        assert!(!line.contains('\n'), "compact output must be one line");
        assert!(!line.contains(": "), "no pretty-print separators");
        assert_eq!(parse(&line).unwrap(), doc);
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Value::Num(6.0).to_json(), "6");
        assert_eq!(Value::Num(2.5).to_json(), "2.5");
    }

    #[test]
    fn rejects_non_finite_numbers() {
        // The literals are not JSON at all…
        for bad in ["NaN", "Infinity", "-Infinity", "[NaN]", "{\"a\": inf}"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
        // …and syntactically valid numbers that overflow f64 are refused
        // rather than silently becoming ∞.
        for overflow in ["1e999", "-1e999", "[1, 1e309]"] {
            assert!(parse(overflow).is_err(), "{overflow:?} should fail");
        }
        // Large-but-finite still parses.
        assert_eq!(parse("1e308").unwrap().as_f64(), Some(1e308));
    }

    #[test]
    fn writer_renders_non_finite_as_null() {
        // A programmatically constructed NaN/∞ must still serialize to a
        // valid document (the server never emits these, but a torn metric
        // must not produce unparseable output).
        let doc = Value::Arr(vec![
            Value::Num(f64::NAN),
            Value::Num(f64::INFINITY),
            Value::Num(f64::NEG_INFINITY),
            Value::Num(1.5),
        ]);
        let text = doc.to_json();
        let back = parse(&text).unwrap();
        assert_eq!(
            back,
            Value::Arr(vec![Value::Null, Value::Null, Value::Null, Value::Num(1.5)])
        );
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        // Depth just under the limit parses…
        let ok = format!(
            "{}1{}",
            "[".repeat(MAX_PARSE_DEPTH),
            "]".repeat(MAX_PARSE_DEPTH)
        );
        assert!(parse(&ok).is_ok());
        // …one past it fails cleanly…
        let deep = format!(
            "{}1{}",
            "[".repeat(MAX_PARSE_DEPTH + 1),
            "]".repeat(MAX_PARSE_DEPTH + 1)
        );
        let e = parse(&deep).unwrap_err();
        assert!(e.message.contains("deep"), "{e}");
        // …and a 100k-bracket bomb is an error, not a stack overflow.
        let bomb = "[".repeat(100_000);
        assert!(parse(&bomb).is_err());
        // Mixed object/array nesting counts every level.
        let mixed = format!("{}1{}", "{\"k\":[".repeat(70), "]}".repeat(70));
        assert!(parse(&mixed).is_err());
    }

    #[test]
    fn escape_sequences_round_trip() {
        let tricky = "quote\" backslash\\ newline\n tab\t cr\r ctrl\u{1} bell\u{7} é 日本 🦀";
        let doc = obj([("s", Value::Str(tricky.into()))]);
        let back = parse(&doc.to_json()).unwrap();
        assert_eq!(back.get("s").unwrap().as_str(), Some(tricky));
        // Parser-side escapes our writer never emits.
        let v = parse(r#""A\b\f\/é""#).unwrap();
        assert_eq!(v.as_str(), Some("A\u{8}\u{c}/é"));
    }

    // ---- Property tests ---------------------------------------------------

    /// Hand-rolled generator of arbitrary finite [`Value`] trees (the
    /// vendored proptest shim has no recursive or string strategies).
    struct ArbValue {
        max_depth: usize,
    }

    impl Strategy for ArbValue {
        type Value = Value;

        fn new_value(&self, rng: &mut TestRng) -> Value {
            gen_value(rng, self.max_depth)
        }
    }

    fn gen_value(rng: &mut TestRng, depth: usize) -> Value {
        let pick = if depth == 0 {
            rng.gen_range(0..4)
        } else {
            rng.gen_range(0..6)
        };
        match pick {
            0 => Value::Null,
            1 => Value::Bool(rng.gen_range(0..2) == 0),
            2 => Value::Num(gen_number(rng)),
            3 => Value::Str(gen_string(rng)),
            4 => {
                let len = rng.gen_range(0..5);
                Value::Arr((0..len).map(|_| gen_value(rng, depth - 1)).collect())
            }
            _ => {
                let len = rng.gen_range(0..5);
                Value::Obj(
                    (0..len)
                        .map(|_| (gen_string(rng), gen_value(rng, depth - 1)))
                        .collect(),
                )
            }
        }
    }

    fn gen_number(rng: &mut TestRng) -> f64 {
        match rng.gen_range(0..5) {
            // Small integers (the common case: weights, counts).
            0 => rng.gen_range(-1_000i64..1_000) as f64,
            // Integers near the exact-i64-rendering cutoff.
            1 => rng.gen_range(8_999_999_999_999_000i64..9_000_000_999_999_999) as f64,
            // Plain fractions.
            2 => rng.gen_range(-1.0e6..1.0e6),
            // Tiny magnitudes.
            3 => rng.gen_range(-1.0..1.0) * 1e-200,
            // Huge-but-finite magnitudes.
            _ => rng.gen_range(-1.0..1.0) * 1e300,
        }
    }

    fn gen_string(rng: &mut TestRng) -> String {
        const POOL: &[char] = &[
            'a', 'B', '0', ' ', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{8}', '\u{c}', '\u{1f}',
            '/', 'é', 'ß', '日', '🦀', '\u{FFFD}', ':', ',', '{', '}', '[', ']',
        ];
        let len = rng.gen_range(0..12);
        (0..len)
            .map(|_| POOL[rng.gen_range(0..POOL.len())])
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn serialize_parse_round_trips(value in ArbValue { max_depth: 4 }) {
            let text = value.to_json();
            let back = parse(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
            prop_assert_eq!(&back, &value);
            let compact = value.to_json_compact();
            prop_assert!(!compact.contains('\n'));
            let back = parse(&compact).unwrap_or_else(|e| panic!("{e}\n---\n{compact}"));
            prop_assert_eq!(back, value);
        }

        #[test]
        fn reparse_is_idempotent(value in ArbValue { max_depth: 3 }) {
            // serialize → parse → serialize must be a fixed point.
            let once = value.to_json();
            let twice = parse(&once).unwrap().to_json();
            prop_assert_eq!(once, twice);
        }
    }
}
