//! End-to-end tracing and metrics for the Fermihedral stack.
//!
//! Every hot subsystem — the CDCL solver, the weight descent, the engine's
//! portfolio race, the shard bridge, the HTTP server — records *spans*
//! (named intervals with typed attributes) and *instants* through this
//! crate, and every process-wide counter lives in its [`MetricSet`]. One
//! recording discipline, two export surfaces:
//!
//! * **Chrome `trace_event` JSON** ([`chrome`]): load the file produced by
//!   `bash crates/ledger/bench.sh --workload race_n4 --trace 1 --trace-out
//!   trace.json` or the server's `/v1/trace/<fingerprint>` document (with
//!   worker batches merged by the shard coordinator) in `chrome://tracing`
//!   or [Perfetto](https://ui.perfetto.dev) and read the race as a timeline.
//! * **Prometheus text exposition / JSON snapshot** ([`metrics`]): the
//!   serve crate's `/metrics` endpoint renders its counters, gauges, and
//!   fixed-bucket histograms through [`metrics::PromText`].
//!
//! # Recording never blocks a solver thread
//!
//! Each thread owns a bounded buffer ([`LocalBuffer`]); a span's drop
//! appends one event to it, and full buffers hand their batch to the
//! [`Registry`] with a single lock-free Treiber-stack push (the same
//! `AtomicPtr`-swap idiom as `sat::shared`). The registry retains a bounded
//! number of events; beyond the cap, events are *dropped and counted* —
//! [`Registry::dropped`] is part of every export, so loss is visible, never
//! silent.
//!
//! # Cross-process timelines
//!
//! Timestamps are microseconds since a per-process monotonic epoch. Each
//! process also notes the wall-clock time of that epoch
//! ([`Registry::epoch_wall_us`]); a shard worker ships it inside its trace
//! batch, and the coordinator shifts the batch by the wall-clock delta onto
//! its own timeline ([`chrome::TraceBatch::shift_onto`]), so a `--shards 2`
//! race exports one merged trace with coordinator and worker spans aligned.
//!
//! # Logs and the flight recorder
//!
//! Tracing is opt-in; diagnostics are not. [`log`] provides leveled,
//! structured key=value events (filtered by `FERMIHEDRAL_LOG`, rendered
//! as text or JSON lines on stderr), and [`recorder`] keeps an always-on
//! bounded ring of the last N `Info`+ events and span closures — the
//! black box a shard worker checkpoints over the wire and a post-mortem
//! bundle is built from. Log events carry the innermost open span's id
//! ([`current_span_id`]), joining the two surfaces.
//!
//! # Overhead
//!
//! With trace recording disabled (the default) a span costs one id
//! allocation, a thread-local push/pop, and one bounded-ring write at
//! close — nanoseconds, paid only at span granularity (per solve, per
//! lane, per request), never per conflict. Filtered-out `Debug`/`Trace`
//! log events cost one atomic load. Every traced ledger run (`--trace 1`)
//! reports the trace-enabled-vs-disabled delta of its workload as
//! `telemetry.recording_overhead_share` (the acceptance bar is <2%).

pub mod chrome;
pub mod log;
pub mod metrics;
pub mod recorder;
pub mod store;

pub use log::{Filter, Level};
pub use metrics::{Counter, Gauge, Histogram, MetricSet, PromText};
pub use recorder::FlightRecorder;
pub use store::TraceStore;

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// A typed attribute value on a span or instant event.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Signed integer.
    I64(i64),
    /// Unsigned integer.
    U64(u64),
    /// Float (timings, rates).
    F64(f64),
    /// Short string (outcomes, strategy names).
    Str(String),
    /// Flag.
    Bool(bool),
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> AttrValue {
        AttrValue::I64(v)
    }
}
impl From<u64> for AttrValue {
    fn from(v: u64) -> AttrValue {
        AttrValue::U64(v)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> AttrValue {
        AttrValue::U64(v as u64)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> AttrValue {
        AttrValue::F64(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> AttrValue {
        AttrValue::Bool(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> AttrValue {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> AttrValue {
        AttrValue::Str(v)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> AttrValue {
        AttrValue::U64(v as u64)
    }
}
impl From<i32> for AttrValue {
    fn from(v: i32) -> AttrValue {
        AttrValue::I64(v as i64)
    }
}

impl AttrValue {
    /// The JSON form (used by the log sink, the flight recorder, and
    /// the Chrome exporter).
    pub fn to_json_value(&self) -> jsonkit::Value {
        match self {
            AttrValue::I64(v) => jsonkit::Value::Num(*v as f64),
            AttrValue::U64(v) => jsonkit::Value::Num(*v as f64),
            AttrValue::F64(v) => jsonkit::Value::Num(*v),
            AttrValue::Str(v) => jsonkit::Value::Str(v.clone()),
            AttrValue::Bool(v) => jsonkit::Value::Bool(*v),
        }
    }
}

/// What an [`Event`] describes.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A completed span: recorded once, at its end, with its duration
    /// (Chrome `ph: "X"`).
    Complete {
        /// Span duration in microseconds.
        dur_us: u64,
    },
    /// A point-in-time marker (Chrome `ph: "i"`).
    Instant,
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Span or marker name, dot-namespaced by subsystem (`sat.solve`,
    /// `descent.bound`, `engine.lane`, `serve.request`, …).
    pub name: String,
    /// Kind (completed span or instant).
    pub kind: EventKind,
    /// Microseconds since the recording process's epoch — after a
    /// cross-process merge, since the *coordinator's* epoch.
    pub ts_us: u64,
    /// OS process id of the recorder (separates coordinator and worker
    /// tracks in Perfetto).
    pub pid: u32,
    /// Recorder thread id (sequentially assigned per process).
    pub tid: u64,
    /// Typed attributes (rendered as Chrome `args`).
    pub attrs: Vec<(String, AttrValue)>,
}

/// Events buffered per thread before a batch push (keeps pushes rare).
const FLUSH_AT: usize = 256;

/// Default registry retention cap, in events. Beyond it, recording keeps
/// counting drops but stops keeping events (a long-running server must not
/// grow without bound between exports).
pub const DEFAULT_RETAIN_CAP: usize = 1 << 20;

struct BatchNode {
    events: Vec<Event>,
    next: *mut BatchNode,
}

/// The process-wide trace sink: enabled flag, monotonic epoch, a lock-free
/// stack of flushed batches, the drop counter, and the process
/// [`MetricSet`]. Usually accessed through [`global`], but tests construct
/// their own.
pub struct Registry {
    enabled: AtomicBool,
    epoch: Instant,
    epoch_wall_us: u64,
    head: AtomicPtr<BatchNode>,
    retained: AtomicUsize,
    retain_cap: AtomicUsize,
    dropped: AtomicU64,
    next_tid: AtomicU64,
    metrics: MetricSet,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl Registry {
    /// A fresh, disabled registry with the default retention cap.
    pub fn new() -> Registry {
        Registry {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            epoch_wall_us: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_micros() as u64),
            head: AtomicPtr::new(std::ptr::null_mut()),
            retained: AtomicUsize::new(0),
            retain_cap: AtomicUsize::new(DEFAULT_RETAIN_CAP),
            dropped: AtomicU64::new(0),
            next_tid: AtomicU64::new(1),
            metrics: MetricSet::new(),
        }
    }

    /// Turns recording on (idempotent).
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Turns recording off. Already-recorded events stay drainable.
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Caps retained (not-yet-drained) events; beyond it events are
    /// dropped and counted.
    pub fn set_retain_cap(&self, events: usize) {
        self.retain_cap.store(events, Ordering::Relaxed);
    }

    /// Microseconds since this registry's monotonic epoch.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Wall-clock microseconds (since `UNIX_EPOCH`) of the monotonic
    /// epoch — the anchor cross-process merges align on.
    pub fn epoch_wall_us(&self) -> u64 {
        self.epoch_wall_us
    }

    /// Seconds since this registry was created. For the global registry
    /// that is process start (modulo lazy first use), exported as the
    /// `process_uptime_seconds` gauge.
    pub fn uptime_seconds(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Events dropped because a buffer or the retention cap was full.
    /// Never silently reset; exports include it.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The process metric set (counters/gauges/histograms by name).
    pub fn metrics(&self) -> &MetricSet {
        &self.metrics
    }

    fn alloc_tid(&self) -> u64 {
        self.next_tid.fetch_add(1, Ordering::Relaxed)
    }

    /// Accepts a batch of events, dropping (and counting) any beyond the
    /// retention cap. Lock-free: one CAS push.
    pub fn push_batch(&self, mut events: Vec<Event>) {
        if events.is_empty() {
            return;
        }
        let cap = self.retain_cap.load(Ordering::Relaxed);
        let held = self.retained.load(Ordering::Relaxed);
        if held >= cap {
            self.dropped
                .fetch_add(events.len() as u64, Ordering::Relaxed);
            return;
        }
        let room = cap - held;
        if events.len() > room {
            self.dropped
                .fetch_add((events.len() - room) as u64, Ordering::Relaxed);
            events.truncate(room);
        }
        self.retained.fetch_add(events.len(), Ordering::Relaxed);
        let node = Box::into_raw(Box::new(BatchNode {
            events,
            next: std::ptr::null_mut(),
        }));
        loop {
            let head = self.head.load(Ordering::Acquire);
            // SAFETY: `node` came from Box::into_raw above and is not yet
            // shared; only this thread writes its `next` field.
            unsafe { (*node).next = head };
            if self
                .head
                .compare_exchange_weak(head, node, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return;
            }
        }
    }

    /// Merges events recorded by *another* process (a shard worker's trace
    /// batch, already shifted onto this timeline). Subject to the same
    /// retention cap as local recording.
    pub fn inject(&self, events: Vec<Event>) {
        self.push_batch(events);
    }

    /// Takes every retained event, sorted by timestamp. Thread-local
    /// buffers of *other* threads are not reachable — call
    /// [`flush`] (or end the thread) before draining if their tail
    /// matters.
    pub fn drain(&self) -> Vec<Event> {
        let mut head = self.head.swap(std::ptr::null_mut(), Ordering::AcqRel);
        let mut out = Vec::new();
        while !head.is_null() {
            // SAFETY: the swap above transferred exclusive ownership of
            // the whole chain to this thread.
            let node = unsafe { Box::from_raw(head) };
            out.extend(node.events);
            head = node.next;
        }
        self.retained.fetch_sub(out.len(), Ordering::Relaxed);
        out.sort_by_key(|e| e.ts_us);
        out
    }
}

impl Drop for Registry {
    fn drop(&mut self) {
        let mut head = std::mem::replace(self.head.get_mut(), std::ptr::null_mut());
        while !head.is_null() {
            // SAFETY: `&mut self` — no concurrent access remains.
            let node = unsafe { Box::from_raw(head) };
            head = node.next;
        }
    }
}

// SAFETY: the raw pointers form an owned intrusive list handed between
// threads only by atomic swap; every dereference happens under exclusive
// ownership (see push_batch/drain/drop).
unsafe impl Send for Registry {}
unsafe impl Sync for Registry {}

/// The per-thread bounded event buffer feeding a [`Registry`]. The global
/// recording API keeps one per thread in a thread-local; tests drive their
/// own instances to exercise the exact production path.
pub struct LocalBuffer {
    tid: u64,
    pid: u32,
    buf: Vec<Event>,
}

impl LocalBuffer {
    /// A buffer bound to a new thread id from `registry`.
    pub fn new(registry: &Registry) -> LocalBuffer {
        LocalBuffer {
            tid: registry.alloc_tid(),
            pid: std::process::id(),
            buf: Vec::new(),
        }
    }

    /// This buffer's thread id.
    pub fn tid(&self) -> u64 {
        self.tid
    }

    /// Appends one event, flushing to `registry` when the buffer reaches
    /// its bound. Never blocks: the flush is a lock-free push.
    pub fn record(&mut self, registry: &Registry, mut event: Event) {
        event.pid = self.pid;
        event.tid = self.tid;
        self.buf.push(event);
        if self.buf.len() >= FLUSH_AT {
            self.flush(registry);
        }
    }

    /// Hands the buffered events to the registry.
    pub fn flush(&mut self, registry: &Registry) {
        if !self.buf.is_empty() {
            registry.push_batch(std::mem::take(&mut self.buf));
        }
    }
}

// ---------------------------------------------------------------------------
// The global recording API
// ---------------------------------------------------------------------------

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry every `span`/`instant` call records into.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

struct LocalSlot(LocalBuffer);

impl Drop for LocalSlot {
    fn drop(&mut self) {
        // Thread exit: hand the tail to the registry so joined threads
        // never lose their last events.
        self.0.flush(global());
    }
}

thread_local! {
    static LOCAL: RefCell<Option<LocalSlot>> = const { RefCell::new(None) };
}

fn with_local(f: impl FnOnce(&mut LocalBuffer)) {
    let _ = LOCAL.try_with(|slot| {
        let mut slot = slot.borrow_mut();
        let slot = slot.get_or_insert_with(|| LocalSlot(LocalBuffer::new(global())));
        f(&mut slot.0);
    });
}

/// Flushes the current thread's buffered events to the global registry.
/// Call before [`Registry::drain`] on threads that recorded and are still
/// alive (ended threads flush on exit automatically).
pub fn flush() {
    with_local(|local| local.flush(global()));
}

/// The calling thread's recorder id (allocating one on first use).
pub fn current_tid() -> u64 {
    let mut tid = 0;
    with_local(|local| tid = local.tid());
    tid
}

/// Process-unique span ids, starting at 1 (0 means "no span").
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The stack of open span ids on this thread; the top is what log
    /// events correlate against.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The innermost open span's id on this thread (0 if none). Log events
/// capture it so a line can be joined to its trace span.
pub fn current_span_id() -> u64 {
    SPAN_STACK
        .try_with(|stack| stack.borrow().last().copied().unwrap_or(0))
        .unwrap_or(0)
}

/// An in-flight span. Created by [`span`]; records one `Complete` event on
/// drop. Attributes added while the span is open travel with it.
///
/// Every guard carries a process-unique [`id`](SpanGuard::id) and pushes
/// it on the thread's span stack, and its closure always lands in the
/// [`recorder`] ring — the flight recorder works with tracing off. The
/// *trace* event (with attributes) is only recorded when the registry is
/// enabled; a disabled guard skips allocation and `attr` is a no-op.
#[must_use = "a span measures the scope holding it"]
pub struct SpanGuard {
    name: &'static str,
    id: u64,
    start_us: u64,
    attrs: Vec<(String, AttrValue)>,
    active: bool,
}

impl SpanGuard {
    /// Attaches a typed attribute.
    pub fn attr(&mut self, key: &str, value: impl Into<AttrValue>) {
        if self.active {
            self.attrs.push((key.to_string(), value.into()));
        }
    }

    /// Whether this guard is recording a trace event (false when
    /// telemetry is off; the flight-recorder closure happens regardless).
    pub fn active(&self) -> bool {
        self.active
    }

    /// This span's process-unique id.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let registry = global();
        let end_us = registry.now_us();
        let dur_us = end_us.saturating_sub(self.start_us);
        // Unwind this id from the thread's stack. Guards nearly always
        // drop in LIFO order; `rposition` also survives a guard moved
        // across an early return holding younger spans open.
        let _ = SPAN_STACK.try_with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(at) = stack.iter().rposition(|&id| id == self.id) {
                stack.remove(at);
            }
        });
        recorder::record_span_close(self.name, self.start_us, dur_us, self.id);
        if !self.active {
            return;
        }
        let event = Event {
            name: self.name.to_string(),
            kind: EventKind::Complete { dur_us },
            ts_us: self.start_us,
            pid: 0,
            tid: 0,
            attrs: std::mem::take(&mut self.attrs),
        };
        with_local(|local| local.record(registry, event));
    }
}

/// Opens a span; the returned guard records it when dropped.
pub fn span(name: &'static str) -> SpanGuard {
    let registry = global();
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let _ = SPAN_STACK.try_with(|stack| stack.borrow_mut().push(id));
    SpanGuard {
        name,
        id,
        start_us: registry.now_us(),
        attrs: Vec::new(),
        active: registry.is_enabled(),
    }
}

/// Records a point-in-time marker with attributes.
pub fn instant(name: &str, attrs: Vec<(String, AttrValue)>) {
    let registry = global();
    if !registry.is_enabled() {
        return;
    }
    let event = Event {
        name: name.to_string(),
        kind: EventKind::Instant,
        ts_us: registry.now_us(),
        pid: 0,
        tid: 0,
        attrs,
    };
    with_local(|local| local.record(registry, event));
}

/// Convenience: builds an attribute pair (keeps call sites short).
pub fn attr(key: &str, value: impl Into<AttrValue>) -> (String, AttrValue) {
    (key.to_string(), value.into())
}

/// Measures `f` and returns `(result, elapsed)` — for callers that feed a
/// duration into a histogram and an attribute at once.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Build provenance baked in at compile time (see `build.rs`). Every
/// field degrades to `"unknown"` rather than failing the build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildInfo {
    /// Short git commit hash of the workspace at build time.
    pub git_hash: &'static str,
    /// `rustc --version` of the compiling toolchain.
    pub rustc: &'static str,
    /// `"release"` or `"debug"`.
    pub profile: &'static str,
}

/// This binary's build provenance — exported as the Prometheus
/// `build_info` gauge and in the `/healthz` body.
pub fn build_info() -> BuildInfo {
    BuildInfo {
        git_hash: env!("FERMIHEDRAL_GIT_HASH"),
        rustc: env!("FERMIHEDRAL_RUSTC_VERSION"),
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, ts: u64) -> Event {
        Event {
            name: name.into(),
            kind: EventKind::Instant,
            ts_us: ts,
            pid: 0,
            tid: 0,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn drain_returns_everything_sorted() {
        let r = Registry::new();
        r.push_batch(vec![ev("b", 20), ev("c", 30)]);
        r.push_batch(vec![ev("a", 10)]);
        let drained = r.drain();
        let names: Vec<_> = drained.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
        assert!(r.drain().is_empty(), "drain is destructive");
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn retention_cap_drops_are_counted() {
        let r = Registry::new();
        r.set_retain_cap(3);
        r.push_batch((0..5).map(|i| ev("x", i)).collect());
        r.push_batch(vec![ev("y", 9)]);
        assert_eq!(r.drain().len(), 3);
        assert_eq!(r.dropped(), 3, "2 truncated + 1 rejected");
        // Draining freed the room.
        r.push_batch(vec![ev("z", 1)]);
        assert_eq!(r.drain().len(), 1);
    }

    #[test]
    fn local_buffer_flushes_at_bound_and_on_demand() {
        let r = Registry::new();
        let mut local = LocalBuffer::new(&r);
        for i in 0..(FLUSH_AT as u64 + 10) {
            local.record(&r, ev("e", i));
        }
        // The bound-triggered flush already delivered FLUSH_AT events.
        assert_eq!(r.drain().len(), FLUSH_AT);
        local.flush(&r);
        assert_eq!(r.drain().len(), 10);
    }

    #[test]
    fn disabled_span_records_nothing() {
        // The global registry: recording stays off by default.
        let mut guard = span("test.off");
        guard.attr("k", 1u64);
        assert!(!guard.active());
        drop(guard);
        instant("test.off.instant", vec![attr("k", true)]);
        flush();
        // Cannot assert drain() is empty here (other tests share the
        // global registry); the inert guard above is the contract.
    }

    #[test]
    fn tids_are_distinct_per_buffer() {
        let r = Registry::new();
        let a = LocalBuffer::new(&r);
        let b = LocalBuffer::new(&r);
        assert_ne!(a.tid(), b.tid());
    }

    #[test]
    fn span_ids_nest_and_unwind() {
        assert_eq!(current_span_id(), 0);
        let outer = span("test.outer");
        assert_eq!(current_span_id(), outer.id());
        {
            let inner = span("test.inner");
            assert_ne!(inner.id(), outer.id());
            assert_eq!(current_span_id(), inner.id());
        }
        assert_eq!(current_span_id(), outer.id());
        let outer_id = outer.id();
        drop(outer);
        assert_eq!(current_span_id(), 0);

        // Even with tracing disabled, the closure reached the black box.
        let snap = recorder::recorder().snapshot();
        assert!(snap.records.iter().any(|r| matches!(
            &r.kind,
            recorder::RecordKind::SpanClose { name, .. } if name == "test.outer"
        ) && r.span_id == outer_id));
    }
}
