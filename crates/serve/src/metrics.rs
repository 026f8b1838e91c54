//! Server-lifetime counters and latency histograms for `GET /metrics`.
//!
//! Built on the unified [`telemetry`] primitives — [`Counter`], [`Gauge`],
//! [`Histogram`] — so the server, the shard coordinator's wire meters, and
//! the bench binaries all record and render through the same types. The
//! endpoint serves Prometheus text exposition by default
//! ([`Metrics::to_prometheus`]) and the historical JSON snapshot under
//! `?format=json` ([`Metrics::to_json`]).

use crate::tenant::Tenant;
use engine::CacheCounters;
use jsonkit::{obj, Value};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use telemetry::{Counter, Gauge, Histogram, PromText};

/// Histogram bucket upper bounds, in milliseconds. The final implicit
/// bucket is `+inf`. Bounds are *inclusive*: an observation equal to a
/// bound lands in that bucket (at microsecond precision — see
/// [`telemetry::Histogram::record_us`]).
pub const LATENCY_BUCKETS_MS: [u64; 14] = [
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 30_000,
];

fn latency_histogram() -> Histogram {
    let bounds_us: Vec<u64> = LATENCY_BUCKETS_MS.iter().map(|ms| ms * 1_000).collect();
    Histogram::new(&bounds_us)
}

/// All server counters. Gauges that belong to other subsystems (queue
/// depth, in-flight groups, cache counters) are passed into
/// [`Metrics::to_json`] / [`Metrics::to_prometheus`] by the caller.
#[derive(Debug)]
pub struct Metrics {
    /// Requests read off connections (any endpoint).
    pub http_requests: Counter,
    /// Responses by status class.
    pub responses_2xx: Counter,
    /// 4xx responses.
    pub responses_4xx: Counter,
    /// 5xx responses.
    pub responses_5xx: Counter,
    /// Compile requests rejected because the admission queue was full.
    pub queue_rejections: Counter,
    /// Connections turned away at the accept loop (connection cap).
    pub connections_shed: Counter,
    /// Live connection count.
    pub connections_active: Gauge,
    /// Compile requests that attached to an identical in-flight solve.
    pub coalesced_requests: Counter,
    /// Compile requests answered from the optimal-entry cache fast path.
    pub cache_fast_path: Counter,
    /// Engine solves started by workers.
    pub solves_started: Counter,
    /// Engine solves finished (any status).
    pub solves_completed: Counter,
    /// Solves that hit their request deadline before proving optimality.
    pub solves_timed_out: Counter,
    /// Queued jobs dropped by shutdown draining.
    pub solves_shed: Counter,
    /// Solves currently running in a worker.
    pub active_solves: Gauge,
    /// Compile jobs admitted to the queue (leaders only).
    pub jobs_enqueued: Counter,
    /// Compile/batch requests refused with 401 (missing or unknown key).
    pub auth_failures: Counter,
    /// Jobs bounced off a *tenant's own* quota with 429 (the global
    /// queue was not full).
    pub tenant_rejections: Counter,
    /// `POST /v1/compile-batch` requests admitted.
    pub batches: Counter,
    /// Individual batch entries solved (or served from cache).
    pub batch_entries: Counter,
    /// Batch entries whose race opened from a cross-size warm start.
    pub batch_warm_starts: Counter,
    /// Journaled jobs re-admitted by startup replay.
    pub journal_replayed: Counter,
    /// Torn/garbage journal lines skipped during replay.
    pub journal_skipped: Counter,
    /// Records appended to the journal since startup.
    pub journal_appends: Counter,
    /// End-to-end latency of `POST /v1/compile` requests.
    pub compile_latency: Histogram,
    /// Latency of `GET /v1/solution/<fp>` lookups.
    pub lookup_latency: Histogram,
    /// Time admitted jobs spent queued before a worker picked them up.
    pub queue_wait: Histogram,
    /// Change signal backing [`wait_for`](Metrics::wait_for).
    change: ChangeSignal,
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics {
            http_requests: Counter::default(),
            responses_2xx: Counter::default(),
            responses_4xx: Counter::default(),
            responses_5xx: Counter::default(),
            queue_rejections: Counter::default(),
            connections_shed: Counter::default(),
            connections_active: Gauge::default(),
            coalesced_requests: Counter::default(),
            cache_fast_path: Counter::default(),
            solves_started: Counter::default(),
            solves_completed: Counter::default(),
            solves_timed_out: Counter::default(),
            solves_shed: Counter::default(),
            active_solves: Gauge::default(),
            jobs_enqueued: Counter::default(),
            auth_failures: Counter::default(),
            tenant_rejections: Counter::default(),
            batches: Counter::default(),
            batch_entries: Counter::default(),
            batch_warm_starts: Counter::default(),
            journal_replayed: Counter::default(),
            journal_skipped: Counter::default(),
            journal_appends: Counter::default(),
            compile_latency: latency_histogram(),
            lookup_latency: latency_histogram(),
            queue_wait: latency_histogram(),
            change: ChangeSignal::default(),
        }
    }
}

/// Generation counter + condvar pair: every counter transition the
/// server considers observable calls [`Metrics::bump`], and state-waiters
/// block on the condvar instead of polling wall-clock sleeps.
#[derive(Debug, Default)]
struct ChangeSignal {
    generation: Mutex<u64>,
    changed: Condvar,
}

impl Metrics {
    /// Signals that observable server state changed, waking every
    /// [`wait_for`](Metrics::wait_for) caller to re-evaluate.
    pub fn bump(&self) {
        let mut generation = self.change.generation.lock().unwrap();
        *generation = generation.wrapping_add(1);
        self.change.changed.notify_all();
    }

    /// Blocks until `pred` holds or `timeout` elapses; returns whether
    /// the predicate held. Wakes on every [`bump`](Metrics::bump), so
    /// tests (and shutdown paths) can wait for a condition — "a solve is
    /// running", "a job is queued" — instead of sleeping fixed intervals
    /// that go flaky under load.
    pub fn wait_for(&self, timeout: Duration, pred: impl Fn(&Metrics) -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        let mut generation = self.change.generation.lock().unwrap();
        loop {
            if pred(self) {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return pred(self);
            }
            let (guard, _) = self
                .change
                .changed
                .wait_timeout(generation, deadline - now)
                .unwrap();
            generation = guard;
        }
    }

    /// Classifies a response status into the class counters.
    pub fn record_response(&self, status: u16) {
        match status {
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        }
        .inc();
    }

    /// The `/metrics?format=json` document. Externally owned gauges are
    /// arguments; `tenants` is the registry's tenant list (anonymous
    /// last).
    #[allow(clippy::too_many_arguments)]
    pub fn to_json(
        &self,
        uptime: Duration,
        shutting_down: bool,
        queue_depth: usize,
        queue_capacity: usize,
        inflight_groups: usize,
        cache: CacheCounters,
        tenants: &[Arc<Tenant>],
    ) -> Value {
        let n = |c: &Counter| Value::Num(c.get() as f64);
        let quota = |q: usize| {
            if q == usize::MAX {
                Value::Null
            } else {
                Value::Num(q as f64)
            }
        };
        let tenant_fields: std::collections::BTreeMap<String, Value> = tenants
            .iter()
            .map(|t| {
                (
                    t.name.clone(),
                    obj([
                        ("admitted", n(&t.admitted)),
                        ("completed", n(&t.completed)),
                        ("quota_rejections", n(&t.quota_rejections)),
                        ("queued", Value::Num(t.queued.get() as f64)),
                        ("in_flight", Value::Num(t.in_flight.get() as f64)),
                        ("max_in_flight", quota(t.max_in_flight)),
                        ("max_queued", quota(t.max_queued)),
                    ]),
                )
            })
            .collect();
        obj([
            ("uptime_ms", Value::Num(uptime.as_millis() as f64)),
            ("shutting_down", Value::Bool(shutting_down)),
            (
                "queue",
                obj([
                    ("depth", Value::Num(queue_depth as f64)),
                    ("capacity", Value::Num(queue_capacity as f64)),
                    ("enqueued", n(&self.jobs_enqueued)),
                    ("rejections", n(&self.queue_rejections)),
                ]),
            ),
            (
                "connections",
                obj([
                    ("active", Value::Num(self.connections_active.get() as f64)),
                    ("shed", n(&self.connections_shed)),
                ]),
            ),
            (
                "http",
                obj([
                    ("requests", n(&self.http_requests)),
                    ("responses_2xx", n(&self.responses_2xx)),
                    ("responses_4xx", n(&self.responses_4xx)),
                    ("responses_5xx", n(&self.responses_5xx)),
                ]),
            ),
            (
                "solves",
                obj([
                    ("started", n(&self.solves_started)),
                    ("completed", n(&self.solves_completed)),
                    ("timed_out", n(&self.solves_timed_out)),
                    ("shed", n(&self.solves_shed)),
                    ("active", Value::Num(self.active_solves.get() as f64)),
                    ("inflight_groups", Value::Num(inflight_groups as f64)),
                    ("coalesced_requests", n(&self.coalesced_requests)),
                    ("cache_fast_path", n(&self.cache_fast_path)),
                ]),
            ),
            ("cache", cache.to_json()),
            (
                "batch",
                obj([
                    ("batches", n(&self.batches)),
                    ("entries", n(&self.batch_entries)),
                    ("warm_starts", n(&self.batch_warm_starts)),
                ]),
            ),
            (
                "journal",
                obj([
                    ("replayed", n(&self.journal_replayed)),
                    ("skipped_lines", n(&self.journal_skipped)),
                    ("appends", n(&self.journal_appends)),
                ]),
            ),
            (
                "auth",
                obj([
                    ("failures", n(&self.auth_failures)),
                    ("tenant_rejections", n(&self.tenant_rejections)),
                ]),
            ),
            ("tenants", Value::Obj(tenant_fields)),
            (
                "latency",
                obj([
                    ("compile_ms", self.compile_latency.to_json()),
                    ("lookup_ms", self.lookup_latency.to_json()),
                    ("queue_wait_ms", self.queue_wait.to_json()),
                ]),
            ),
        ])
    }

    /// The default `/metrics` document: Prometheus text exposition.
    /// Counters carry the `_total` suffix, histograms are
    /// seconds-valued `_seconds` families, and every family gets exactly
    /// one `# TYPE` header. `extra` is the process-wide
    /// [`telemetry::MetricSet`] (wire-frame counters when solves are
    /// sharded, bridge latency, …), appended after the curated server
    /// families.
    #[allow(clippy::too_many_arguments)]
    pub fn to_prometheus(
        &self,
        uptime: Duration,
        shutting_down: bool,
        queue_depth: usize,
        queue_capacity: usize,
        inflight_groups: usize,
        cache: CacheCounters,
        tenants: &[Arc<Tenant>],
        extra: &telemetry::MetricSet,
    ) -> String {
        let mut w = PromText::new();
        let build = telemetry::build_info();
        w.gauge(
            &format!(
                "build_info{{git_hash=\"{}\",rustc=\"{}\",profile=\"{}\"}}",
                build.git_hash, build.rustc, build.profile
            ),
            "Build identity (constant 1; the labels carry the information)",
            1,
        );
        w.gauge(
            "process_uptime_seconds",
            "Seconds since this process initialized telemetry",
            telemetry::global().uptime_seconds() as i64,
        );
        w.gauge(
            "serve_uptime_seconds",
            "Seconds since the server started",
            uptime.as_secs() as i64,
        );
        w.gauge(
            "serve_shutting_down",
            "1 while graceful shutdown is in progress",
            i64::from(shutting_down),
        );
        w.counter(
            "serve_http_requests_total",
            "Requests read off connections (any endpoint)",
            self.http_requests.get(),
        );
        w.counter(
            "serve_responses_total{class=\"2xx\"}",
            "Responses by status class",
            self.responses_2xx.get(),
        );
        w.counter(
            "serve_responses_total{class=\"4xx\"}",
            "",
            self.responses_4xx.get(),
        );
        w.counter(
            "serve_responses_total{class=\"5xx\"}",
            "",
            self.responses_5xx.get(),
        );
        w.gauge(
            "serve_connections_active",
            "Live connections",
            self.connections_active.get(),
        );
        w.counter(
            "serve_connections_shed_total",
            "Connections turned away at the connection cap",
            self.connections_shed.get(),
        );
        w.gauge(
            "serve_queue_depth",
            "Admitted jobs not yet claimed by a worker",
            queue_depth as i64,
        );
        w.gauge(
            "serve_queue_capacity",
            "Admission queue capacity",
            queue_capacity as i64,
        );
        w.counter(
            "serve_jobs_enqueued_total",
            "Compile jobs admitted to the queue (leaders only)",
            self.jobs_enqueued.get(),
        );
        w.counter(
            "serve_queue_rejections_total",
            "Compile requests rejected by a full queue",
            self.queue_rejections.get(),
        );
        w.counter(
            "serve_solves_total{outcome=\"started\"}",
            "Engine solves by lifecycle stage",
            self.solves_started.get(),
        );
        w.counter(
            "serve_solves_total{outcome=\"completed\"}",
            "",
            self.solves_completed.get(),
        );
        w.counter(
            "serve_solves_total{outcome=\"timed_out\"}",
            "",
            self.solves_timed_out.get(),
        );
        w.counter(
            "serve_solves_total{outcome=\"shed\"}",
            "",
            self.solves_shed.get(),
        );
        w.gauge(
            "serve_active_solves",
            "Solves currently running in a worker",
            self.active_solves.get(),
        );
        w.gauge(
            "serve_inflight_groups",
            "Distinct fingerprints with an in-flight solve",
            inflight_groups as i64,
        );
        w.counter(
            "serve_coalesced_requests_total",
            "Requests that attached to an identical in-flight solve",
            self.coalesced_requests.get(),
        );
        w.counter(
            "serve_cache_fast_path_total",
            "Requests answered from the optimal-entry cache fast path",
            self.cache_fast_path.get(),
        );
        w.counter(
            "serve_cache_hits_total{kind=\"optimal\"}",
            "Solution-cache hits by kind",
            cache.hit_optimal,
        );
        w.counter(
            "serve_cache_hits_total{kind=\"warm_start\"}",
            "",
            cache.hit_warm_start,
        );
        w.counter(
            "serve_cache_hits_total{kind=\"cross_size\"}",
            "",
            cache.hit_cross_size,
        );
        w.counter("serve_cache_misses_total", "", cache.misses);
        w.counter("serve_cache_stores_total", "", cache.stores);
        w.counter("serve_cache_evictions_total", "", cache.evictions);
        w.histogram(
            "serve_compile_latency_seconds",
            "End-to-end POST /v1/compile latency",
            &self.compile_latency,
        );
        w.histogram(
            "serve_lookup_latency_seconds",
            "GET /v1/solution lookup latency",
            &self.lookup_latency,
        );
        w.counter(
            "serve_auth_failures_total",
            "Compile/batch requests refused with 401",
            self.auth_failures.get(),
        );
        w.counter(
            "serve_tenant_rejections_total",
            "Jobs bounced off a tenant's own quota with 429",
            self.tenant_rejections.get(),
        );
        w.counter(
            "serve_batches_total",
            "POST /v1/compile-batch requests admitted",
            self.batches.get(),
        );
        w.counter(
            "serve_batch_entries_total",
            "Batch entries solved or served from cache",
            self.batch_entries.get(),
        );
        w.counter(
            "serve_batch_warm_starts_total",
            "Batch entries opened from a cross-size warm start",
            self.batch_warm_starts.get(),
        );
        w.counter(
            "serve_journal_replayed_total",
            "Journaled jobs re-admitted by startup replay",
            self.journal_replayed.get(),
        );
        w.counter(
            "serve_journal_skipped_lines_total",
            "Torn or garbage journal lines skipped during replay",
            self.journal_skipped.get(),
        );
        w.counter(
            "serve_journal_appends_total",
            "Records appended to the journal since startup",
            self.journal_appends.get(),
        );
        for (i, t) in tenants.iter().enumerate() {
            let label = |family: &str| format!("{family}{{tenant=\"{}\"}}", t.name);
            // One TYPE header per family: only the first tenant carries
            // the help text (PromText deduplicates headers by family).
            let help = |text: &'static str| if i == 0 { text } else { "" };
            w.counter(
                &label("serve_tenant_admitted_total"),
                help("Jobs admitted to the queue, per tenant"),
                t.admitted.get(),
            );
            w.counter(
                &label("serve_tenant_completed_total"),
                help("Jobs whose solve finished, per tenant"),
                t.completed.get(),
            );
            w.counter(
                &label("serve_tenant_quota_rejections_total"),
                help("Requests bounced off the tenant's own quota with 429"),
                t.quota_rejections.get(),
            );
            w.gauge(
                &label("serve_tenant_queued"),
                help("Jobs waiting in the tenant's queue slice"),
                t.queued.get(),
            );
            w.gauge(
                &label("serve_tenant_in_flight"),
                help("Tenant jobs currently running in a solve worker"),
                t.in_flight.get(),
            );
        }
        w.histogram(
            "serve_queue_wait_seconds",
            "Time admitted jobs waited for a solve worker",
            &self.queue_wait,
        );
        extra.render_prometheus(&mut w);
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative() {
        let h = latency_histogram();
        h.record(Duration::from_millis(0));
        h.record(Duration::from_millis(3));
        h.record(Duration::from_millis(40));
        h.record(Duration::from_secs(120)); // +inf bucket
        assert_eq!(h.count(), 4);
        let json = h.to_json();
        let buckets = json.get("buckets").unwrap().as_arr().unwrap();
        // le=1 holds only the 0ms sample.
        assert_eq!(buckets[0].get("count").unwrap().as_usize(), Some(1));
        // le=5 adds the 3ms sample.
        assert_eq!(buckets[2].get("count").unwrap().as_usize(), Some(2));
        // The final (inf) bucket sees everything.
        assert_eq!(
            buckets.last().unwrap().get("count").unwrap().as_usize(),
            Some(4)
        );
        assert_eq!(json.get("count").unwrap().as_usize(), Some(4));
    }

    #[test]
    fn bucket_boundaries_are_inclusive() {
        // A 1.000ms observation belongs in le=1, and 2.5ms in le=5 — the
        // old as_millis-truncating histogram filed 2.5ms under le=2.
        let h = latency_histogram();
        h.record(Duration::from_micros(1_000));
        h.record(Duration::from_micros(2_500));
        let cumulative = h.cumulative_counts();
        assert_eq!(cumulative[0], 1, "1ms lands in le=1 inclusively");
        assert_eq!(cumulative[1], 1, "2.5ms must not land in le=2");
        assert_eq!(cumulative[2], 2, "2.5ms lands in le=5");
    }

    #[test]
    fn metrics_json_shape() {
        let m = Metrics::default();
        m.http_requests.add(3);
        m.record_response(200);
        m.record_response(429);
        m.record_response(503);
        let doc = m.to_json(
            Duration::from_secs(1),
            false,
            2,
            64,
            1,
            CacheCounters::default(),
            &[],
        );
        let text = doc.to_json();
        let parsed = jsonkit::parse(&text).unwrap();
        assert_eq!(
            parsed
                .get("queue")
                .unwrap()
                .get("depth")
                .unwrap()
                .as_usize(),
            Some(2)
        );
        assert_eq!(
            parsed
                .get("http")
                .unwrap()
                .get("responses_5xx")
                .unwrap()
                .as_usize(),
            Some(1)
        );
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let m = Metrics::default();
        m.http_requests.add(2);
        m.record_response(200);
        m.compile_latency.record(Duration::from_millis(3));
        let extra = telemetry::MetricSet::new();
        extra
            .counter("wire_frames_total{type=\"clause\",dir=\"rx\"}")
            .add(5);
        let text = m.to_prometheus(
            Duration::from_secs(10),
            false,
            0,
            64,
            0,
            CacheCounters::default(),
            &[],
            &extra,
        );
        assert!(text.contains("# TYPE serve_http_requests_total counter"));
        assert!(text.contains("serve_http_requests_total 2"));
        assert!(text.contains("serve_responses_total{class=\"2xx\"} 1"));
        // Build identity and process uptime ride every exposition.
        assert!(text.contains("# TYPE build_info gauge"));
        assert!(text.contains("build_info{git_hash=\""));
        assert!(text.contains("} 1\n"));
        assert!(text.contains("# TYPE process_uptime_seconds gauge"));
        // One TYPE header per family even with labeled series.
        assert_eq!(text.matches("# TYPE serve_responses_total").count(), 1);
        assert!(text.contains("# TYPE serve_compile_latency_seconds histogram"));
        assert!(text.contains("serve_compile_latency_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("serve_compile_latency_seconds_count 1"));
        // The process-wide set is appended.
        assert!(text.contains("wire_frames_total{type=\"clause\",dir=\"rx\"} 5"));
        // Every sample line parses as `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("sample line");
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok(), "unparseable value {value:?}");
        }
    }
}
