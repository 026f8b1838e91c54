//! Layer spans recorded from the ledger's own files, and self time.
//!
//! A traced op wraps every call it makes into a layer's public function
//! in a `ledger.<layer>` span. The span is opened through
//! [`telemetry::span`] (so it sits on the thread's span stack and in the
//! flight recorder like any in-program span) and is *also* kept in the
//! [`Tracer`]'s own memory: the compilation server drains the global
//! registry after every compile request, which would take the ledger's
//! spans with it.
//!
//! A layer's self time is its span's duration minus the part its direct
//! child spans cover. Children are found by containment on one thread, so
//! the in-program spans that already exist (`sat.solve`, `descent.bound`,
//! `engine.race`) subtract from the ledger span that called them.

use std::collections::BTreeMap;
use std::sync::Mutex;
use telemetry::{AttrValue, Event, EventKind};

/// Name of the span around one whole op; per-layer times are summed per
/// op under it.
pub const OP_SPAN: &str = "ledger.op";

/// In-memory sink for the ledger's spans. An op is traced when it is
/// handed `Some(&Tracer)`, and untraced — no span is opened at all — when
/// it is handed `None`.
#[derive(Debug, Default)]
pub struct Tracer {
    events: Mutex<Vec<Event>>,
}

impl Tracer {
    /// An empty sink.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Opens a span; it is recorded when the guard drops.
    pub fn span(&self, name: &'static str) -> LayerSpan<'_> {
        LayerSpan {
            tracer: self,
            guard: telemetry::span(name),
            name,
            start_us: telemetry::global().now_us(),
            attrs: Vec::new(),
        }
    }

    /// Takes every span recorded so far.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(
            &mut *self
                .events
                .lock()
                .expect("no span guard panics while recording"),
        )
    }
}

/// Opens `name` on `tracer` when the op is traced.
pub fn span<'a>(tracer: Option<&'a Tracer>, name: &'static str) -> Option<LayerSpan<'a>> {
    tracer.map(|t| t.span(name))
}

/// An open ledger span.
#[must_use = "a span measures the scope holding it"]
pub struct LayerSpan<'a> {
    tracer: &'a Tracer,
    guard: telemetry::SpanGuard,
    name: &'static str,
    start_us: u64,
    attrs: Vec<(String, AttrValue)>,
}

impl LayerSpan<'_> {
    /// Attaches an attribute (shown as a Chrome-trace `arg`).
    pub fn attr(&mut self, key: &str, value: impl Into<AttrValue>) {
        let value = value.into();
        self.guard.attr(key, value.clone());
        self.attrs.push((key.to_string(), value));
    }
}

impl Drop for LayerSpan<'_> {
    fn drop(&mut self) {
        let end_us = telemetry::global().now_us();
        let event = Event {
            name: self.name.to_string(),
            kind: EventKind::Complete {
                dur_us: end_us.saturating_sub(self.start_us),
            },
            ts_us: self.start_us,
            pid: std::process::id(),
            tid: telemetry::current_tid(),
            attrs: std::mem::take(&mut self.attrs),
        };
        if let Ok(mut events) = self.tracer.events.lock() {
            events.push(event);
        }
    }
}

/// One completed span with its self time and the op it ran under.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    /// Span name.
    pub name: String,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Duration minus the part covered by direct child spans.
    pub self_us: u64,
    /// Index (into the input) of the [`OP_SPAN`] this span ran under:
    /// its outermost ancestor on the same thread, or — for a span on
    /// another thread, such as a portfolio lane — the one op span that
    /// was open when it started. `None` outside every op.
    pub op: Option<usize>,
}

/// Self time of every completed span in `events` (instants are skipped;
/// the result is index-aligned with `events`, `None` for skipped ones).
pub fn self_times(events: &[Event]) -> Vec<Option<SelfTime>> {
    let span_of = |e: &Event| match e.kind {
        EventKind::Complete { dur_us } => Some((e.ts_us, e.ts_us + dur_us)),
        EventKind::Instant => None,
    };
    let mut out: Vec<Option<SelfTime>> = events
        .iter()
        .map(|e| {
            span_of(e).map(|(start, end)| SelfTime {
                name: e.name.clone(),
                dur_us: end - start,
                self_us: end - start,
                op: None,
            })
        })
        .collect();

    let mut by_thread: BTreeMap<(u32, u64), Vec<usize>> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        if span_of(e).is_some() {
            by_thread.entry((e.pid, e.tid)).or_default().push(i);
        }
    }
    for indices in by_thread.values_mut() {
        // Parents before children: earlier start first, longer first on a
        // tie, and on a full tie (microsecond clock) the ledger span first
        // since it was opened around the program's.
        indices.sort_by_key(|&i| {
            let (start, end) = span_of(&events[i]).expect("filtered above");
            let program_span = !events[i].name.starts_with("ledger.");
            (start, std::cmp::Reverse(end), program_span)
        });
        let mut stack: Vec<usize> = Vec::new();
        for &i in indices.iter() {
            let (start, end) = span_of(&events[i]).expect("filtered above");
            while let Some(&top) = stack.last() {
                let (_, top_end) = span_of(&events[top]).expect("only spans are stacked");
                if top_end <= start {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&parent) = stack.last() {
                let (_, parent_end) = span_of(&events[parent]).expect("only spans are stacked");
                let covered = end.min(parent_end) - start;
                let p = out[parent].as_mut().expect("spans have a slot");
                p.self_us = p.self_us.saturating_sub(covered);
            }
            let root = *stack.first().unwrap_or(&i);
            if events[root].name == OP_SPAN {
                out[i].as_mut().expect("spans have a slot").op = Some(root);
            }
            stack.push(i);
        }
    }

    // Spans on other threads (portfolio lanes, server workers) belong to
    // the op that was open when they started, when exactly one was.
    let ops: Vec<(usize, u64, u64)> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.name == OP_SPAN)
        .filter_map(|(i, e)| span_of(e).map(|(s, t)| (i, s, t)))
        .collect();
    for (i, e) in events.iter().enumerate() {
        let Some((start, _)) = span_of(e) else {
            continue;
        };
        let slot = out[i].as_mut().expect("spans have a slot");
        if slot.op.is_some() {
            continue;
        }
        let mut open = ops.iter().filter(|(_, s, t)| *s <= start && start < *t);
        if let (Some((op, ..)), None) = (open.next(), open.next()) {
            slot.op = Some(*op);
        }
    }
    out
}

/// Self seconds per op for each span name: the self times of one name
/// are summed within each op, and the per-op sums listed in op order.
/// Spans outside every op are left out.
pub fn seconds_per_op(times: &[Option<SelfTime>]) -> BTreeMap<String, Vec<f64>> {
    let mut sums: BTreeMap<(String, usize), u64> = BTreeMap::new();
    for t in times.iter().flatten() {
        if let Some(op) = t.op {
            *sums.entry((t.name.clone(), op)).or_default() += t.self_us;
        }
    }
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for ((name, _), us) in sums {
        out.entry(name).or_default().push(us as f64 / 1e6);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn done(name: &str, tid: u64, ts: u64, dur: u64) -> Event {
        Event {
            name: name.into(),
            kind: EventKind::Complete { dur_us: dur },
            ts_us: ts,
            pid: 1,
            tid,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100) ⊃ descent [10,90) ⊃ solve [20,50), solve [60,80);
        // a lane on another thread [15,70) runs under the same op.
        let events = vec![
            done(OP_SPAN, 1, 0, 100),
            done("ledger.core.descent", 1, 10, 80),
            done("sat.solve", 1, 20, 30),
            done("sat.solve", 1, 60, 20),
            done("engine.lane", 2, 15, 55),
            Event {
                name: "marker".into(),
                kind: EventKind::Instant,
                ts_us: 5,
                pid: 1,
                tid: 1,
                attrs: Vec::new(),
            },
        ];
        let times = self_times(&events);
        let t = |i: usize| times[i].as_ref().unwrap();
        assert_eq!(t(0).self_us, 20, "op minus descent");
        assert_eq!(t(1).self_us, 30, "descent minus its two solves");
        assert_eq!(t(2).self_us, 30);
        assert_eq!(t(3).self_us, 20);
        assert_eq!(t(4).self_us, 55, "other thread: nothing subtracted");
        assert!(times[5].is_none(), "instants carry no time");
        for i in 0..5 {
            assert_eq!(t(i).op, Some(0), "span {i} runs under op 0");
        }

        let per_op = seconds_per_op(&times);
        assert_eq!(per_op["sat.solve"], vec![50e-6], "summed within the op");
        assert_eq!(per_op["ledger.core.descent"], vec![30e-6]);
    }

    #[test]
    fn ties_on_a_microsecond_clock_nest_the_program_span_inside() {
        let events = vec![
            done("sat.solve", 1, 10, 40),
            done("ledger.sat.solver", 1, 10, 40),
        ];
        let times = self_times(&events);
        assert_eq!(times[0].as_ref().unwrap().self_us, 40);
        assert_eq!(times[1].as_ref().unwrap().self_us, 0);
    }

    #[test]
    fn spans_between_ops_and_under_two_open_ops_have_no_op() {
        let events = vec![
            done(OP_SPAN, 1, 0, 50),
            done(OP_SPAN, 2, 20, 50),
            done("serve.solve", 3, 30, 5),   // two ops open: ambiguous
            done("ledger.probe", 1, 200, 5), // outside every op
            done("serve.solve", 3, 60, 5),   // only the second op is open
        ];
        let times = self_times(&events);
        assert_eq!(times[2].as_ref().unwrap().op, None);
        assert_eq!(times[3].as_ref().unwrap().op, None);
        assert_eq!(times[4].as_ref().unwrap().op, Some(1));
    }

    #[test]
    fn tracer_keeps_spans_in_its_own_memory() {
        let tracer = Tracer::new();
        {
            let mut outer = tracer.span(OP_SPAN);
            outer.attr("op", 3u64);
            let _inner = span(Some(&tracer), "ledger.inner");
            assert!(span(None, "ledger.untraced").is_none());
        }
        let events = tracer.take();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "ledger.inner", "inner closes first");
        assert_eq!(events[1].attrs, vec![("op".to_string(), AttrValue::U64(3))]);
        assert!(tracer.take().is_empty());
    }
}
