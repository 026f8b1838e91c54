//! Chrome `trace_event` JSON export and the cross-process trace batch.
//!
//! The export format is the [Trace Event Format] object form:
//! `{"traceEvents": [...], "displayTimeUnit": "ms", ...}` with `ph: "X"`
//! (complete) and `ph: "i"` (instant) events — load the file in
//! `chrome://tracing` or <https://ui.perfetto.dev>. Span nesting is by
//! timestamp containment per `(pid, tid)` track, which matches how guards
//! record: a span opened inside another on the same thread closes first.
//!
//! [`TraceBatch`] is the wire form a shard worker ships to its coordinator
//! (inside a `shard::wire` `Trace` frame): the same event JSON plus the
//! worker's pid, shard index, and the wall clock of its monotonic epoch,
//! which [`TraceBatch::shift_onto`] uses to land worker events on the
//! coordinator's timeline.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::{AttrValue, Event, EventKind};
use jsonkit::{obj, Value};

fn attr_to_value(attr: &AttrValue) -> Value {
    match attr {
        AttrValue::I64(v) => Value::Num(*v as f64),
        AttrValue::U64(v) => Value::Num(*v as f64),
        AttrValue::F64(v) => Value::Num(*v),
        AttrValue::Str(v) => Value::Str(v.clone()),
        AttrValue::Bool(v) => Value::Bool(*v),
    }
}

fn attr_from_value(value: &Value) -> Option<AttrValue> {
    match value {
        Value::Num(n) => Some(AttrValue::F64(*n)),
        Value::Str(s) => Some(AttrValue::Str(s.clone())),
        Value::Bool(b) => Some(AttrValue::Bool(*b)),
        _ => None,
    }
}

/// One event as a Chrome `trace_event` object.
pub fn event_to_value(event: &Event) -> Value {
    let args: Vec<(&str, Value)> = event
        .attrs
        .iter()
        .map(|(k, v)| (k.as_str(), attr_to_value(v)))
        .collect();
    let mut fields = vec![
        ("name", Value::Str(event.name.clone())),
        ("cat", Value::Str("fermihedral".into())),
        ("ts", Value::Num(event.ts_us as f64)),
        ("pid", Value::Num(event.pid as f64)),
        ("tid", Value::Num(event.tid as f64)),
        (
            "args",
            Value::Obj(args.into_iter().map(|(k, v)| (k.to_string(), v)).collect()),
        ),
    ];
    match event.kind {
        EventKind::Complete { dur_us } => {
            fields.push(("ph", Value::Str("X".into())));
            fields.push(("dur", Value::Num(dur_us as f64)));
        }
        EventKind::Instant => {
            fields.push(("ph", Value::Str("i".into())));
            // Instant scope: thread.
            fields.push(("s", Value::Str("t".into())));
        }
    }
    obj(fields)
}

/// Parses one Chrome `trace_event` object back into an [`Event`].
///
/// # Errors
///
/// A message naming the missing or mistyped field.
pub fn event_from_value(value: &Value) -> Result<Event, String> {
    let name = value
        .get("name")
        .and_then(Value::as_str)
        .ok_or("event missing \"name\"")?
        .to_string();
    let ts_us = value
        .get("ts")
        .and_then(Value::as_f64)
        .ok_or("event missing \"ts\"")? as u64;
    let pid = value.get("pid").and_then(Value::as_f64).unwrap_or(0.0) as u32;
    let tid = value.get("tid").and_then(Value::as_f64).unwrap_or(0.0) as u64;
    let kind = match value.get("ph").and_then(Value::as_str) {
        Some("X") => EventKind::Complete {
            dur_us: value.get("dur").and_then(Value::as_f64).unwrap_or(0.0) as u64,
        },
        Some("i") => EventKind::Instant,
        other => return Err(format!("unsupported event ph {other:?}")),
    };
    let mut attrs = Vec::new();
    if let Some(Value::Obj(args)) = value.get("args") {
        for (k, v) in args {
            if let Some(attr) = attr_from_value(v) {
                attrs.push((k.clone(), attr));
            }
        }
    }
    Ok(Event {
        name,
        kind,
        ts_us,
        pid,
        tid,
        attrs,
    })
}

/// The full Chrome-trace document for a set of events. `dropped` is the
/// recorder's drop counter at export time, carried in `otherData` so a
/// truncated trace is never mistaken for a complete one.
pub fn trace_document(events: &[Event], dropped: u64) -> Value {
    obj([
        (
            "traceEvents",
            Value::Arr(events.iter().map(event_to_value).collect()),
        ),
        ("displayTimeUnit", Value::Str("ms".into())),
        (
            "otherData",
            obj([("dropped_events", Value::Num(dropped as f64))]),
        ),
    ])
}

/// Serializes events to a Chrome-trace JSON string.
pub fn trace_json(events: &[Event], dropped: u64) -> String {
    trace_document(events, dropped).to_json()
}

/// Parses a Chrome-trace JSON document back into events (skipping any
/// foreign event kinds).
///
/// # Errors
///
/// A message describing the malformation.
pub fn parse_trace_json(text: &str) -> Result<(Vec<Event>, u64), String> {
    let doc = jsonkit::parse(text).map_err(|e| e.to_string())?;
    let raw = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("missing \"traceEvents\" array")?;
    let mut events = Vec::with_capacity(raw.len());
    for value in raw {
        events.push(event_from_value(value)?);
    }
    let dropped = doc
        .get("otherData")
        .and_then(|o| o.get("dropped_events"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0) as u64;
    Ok((events, dropped))
}

/// A batch of events crossing a process boundary (worker → coordinator).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceBatch {
    /// Recording process id.
    pub pid: u32,
    /// Shard index of the recording worker.
    pub shard: u32,
    /// Trace context id the coordinator handed out in the `Job` (empty
    /// when none).
    pub trace_id: String,
    /// Wall-clock microseconds (since `UNIX_EPOCH`) of the recorder's
    /// monotonic epoch — the merge anchor.
    pub epoch_wall_us: u64,
    /// Recorder drop count at batch time.
    pub dropped: u64,
    /// The events, timestamped against the recorder's epoch.
    pub events: Vec<Event>,
}

impl TraceBatch {
    /// Serializes for the wire (`Frame::Trace` payload).
    pub fn to_json(&self) -> String {
        obj([
            ("pid", Value::Num(self.pid as f64)),
            ("shard", Value::Num(self.shard as f64)),
            ("trace_id", Value::Str(self.trace_id.clone())),
            ("epoch_wall_us", Value::Num(self.epoch_wall_us as f64)),
            ("dropped", Value::Num(self.dropped as f64)),
            (
                "events",
                Value::Arr(self.events.iter().map(event_to_value).collect()),
            ),
        ])
        .to_json()
    }

    /// Parses a wire batch. Tolerant of a missing `trace_id` (older
    /// peers); strict about the fields the merge needs.
    ///
    /// # Errors
    ///
    /// A message describing the malformation.
    pub fn from_json(text: &str) -> Result<TraceBatch, String> {
        let doc = jsonkit::parse(text).map_err(|e| e.to_string())?;
        let num = |k: &str| doc.get(k).and_then(Value::as_f64);
        let events = doc
            .get("events")
            .and_then(Value::as_arr)
            .ok_or("batch missing \"events\"")?
            .iter()
            .map(event_from_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(TraceBatch {
            pid: num("pid").ok_or("batch missing \"pid\"")? as u32,
            shard: num("shard").unwrap_or(0.0) as u32,
            trace_id: doc
                .get("trace_id")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            epoch_wall_us: num("epoch_wall_us").ok_or("batch missing \"epoch_wall_us\"")? as u64,
            dropped: num("dropped").unwrap_or(0.0) as u64,
            events,
        })
    }

    /// Re-anchors every event from this batch's epoch onto a receiver
    /// whose epoch wall clock is `receiver_epoch_wall_us`: the two
    /// monotonic clocks are aligned by their wall-clock offset (saturating
    /// at zero for events that precede the receiver's epoch).
    pub fn shift_onto(&mut self, receiver_epoch_wall_us: u64) {
        for event in &mut self.events {
            let wall_us = self.epoch_wall_us.saturating_add(event.ts_us);
            event.ts_us = wall_us.saturating_sub(receiver_epoch_wall_us);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr;

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                name: "engine.lane".into(),
                kind: EventKind::Complete { dur_us: 1_500 },
                ts_us: 100,
                pid: 42,
                tid: 3,
                attrs: vec![
                    attr("strategy", "sat-descent[seed=1]"),
                    attr("conflicts", 250u64),
                    attr("cancelled", false),
                    attr("rate", 1.25f64),
                ],
            },
            Event {
                name: "engine.improved".into(),
                kind: EventKind::Instant,
                ts_us: 900,
                pid: 42,
                tid: 3,
                attrs: vec![attr("weight", 16u64)],
            },
        ]
    }

    #[test]
    fn chrome_trace_round_trips_through_jsonkit() {
        let events = sample_events();
        let text = trace_json(&events, 7);
        // The document must be plain JSON jsonkit can re-parse...
        let doc = jsonkit::parse(&text).expect("valid JSON");
        assert_eq!(doc.get("displayTimeUnit").unwrap().as_str(), Some("ms"));
        // ...and the typed form must survive the round trip (numeric attrs
        // come back as F64 — JSON has one number type).
        let (parsed, dropped) = parse_trace_json(&text).unwrap();
        assert_eq!(dropped, 7);
        assert_eq!(parsed.len(), events.len());
        assert_eq!(parsed[0].name, "engine.lane");
        assert_eq!(parsed[0].kind, EventKind::Complete { dur_us: 1_500 });
        assert_eq!(parsed[0].ts_us, 100);
        assert_eq!(parsed[0].pid, 42);
        assert_eq!(parsed[0].tid, 3);
        let get = |k: &str| {
            parsed[0]
                .attrs
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(
            get("strategy"),
            Some(AttrValue::Str("sat-descent[seed=1]".into()))
        );
        assert_eq!(get("conflicts"), Some(AttrValue::F64(250.0)));
        assert_eq!(get("cancelled"), Some(AttrValue::Bool(false)));
        assert_eq!(parsed[1].kind, EventKind::Instant);
    }

    #[test]
    fn batch_round_trips_and_shifts_onto_receiver_timeline() {
        let batch = TraceBatch {
            pid: 9,
            shard: 1,
            trace_id: "fp123".into(),
            epoch_wall_us: 1_000_000,
            dropped: 2,
            events: sample_events(),
        };
        let mut parsed = TraceBatch::from_json(&batch.to_json()).unwrap();
        // Attr numeric types widen to F64 over JSON; compare the rest.
        assert_eq!(parsed.pid, 9);
        assert_eq!(parsed.shard, 1);
        assert_eq!(parsed.trace_id, "fp123");
        assert_eq!(parsed.epoch_wall_us, 1_000_000);
        assert_eq!(parsed.dropped, 2);
        assert_eq!(parsed.events.len(), 2);

        // Worker epoch 1.0s, coordinator epoch 0.4s: a worker event at
        // +100µs lands at 0.6s + 100µs on the coordinator timeline.
        parsed.shift_onto(400_000);
        assert_eq!(parsed.events[0].ts_us, 600_100);
        assert_eq!(parsed.events[1].ts_us, 600_900);

        // An event from before the receiver's epoch clamps to zero
        // instead of wrapping.
        let mut early = TraceBatch {
            epoch_wall_us: 100,
            ..parsed.clone()
        };
        early.events[0].ts_us = 5;
        early.shift_onto(1_000_000);
        assert_eq!(early.events[0].ts_us, 0);
    }

    #[test]
    fn malformed_documents_are_structured_errors() {
        assert!(parse_trace_json("not json").is_err());
        assert!(parse_trace_json("{}").is_err());
        assert!(TraceBatch::from_json("{\"events\": []}").is_err());
        assert!(TraceBatch::from_json("[1,2,3]").is_err());
        // Unknown ph values are rejected, not panicked on.
        let doc = "{\"traceEvents\": [{\"name\": \"x\", \"ts\": 1, \"ph\": \"Q\"}]}";
        assert!(parse_trace_json(doc).is_err());
    }
}
