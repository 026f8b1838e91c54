//! The request path, written once: every compile — a solo
//! `POST /v1/compile`, each entry of a `POST /v1/compile-batch`, a job
//! replayed from a dead server's journal — is an [`Admission`] that goes
//! through [`admit`] (coalesce, journal, the one [`Job`], the queue) and,
//! when a client is waiting, through [`settle`] (cache fast path, shutdown
//! check, the wait, the status mapping) to a [`Settled`] that
//! [`api::compile_document`] renders.
//!
//! The two handlers keep only what is theirs: [`handle_compile`] the HTTP
//! rendering of a `Settled` and the latency histogram, [`handle_batch`]
//! the up-front journaling, the per-entry deadline check, the warm-start
//! chain, and the tallies.

use crate::api::{self, Answer, CompileStatus, Settled};
use crate::coalesce::InFlight;
use crate::http::Response;
use crate::journal::{self, PendingJob, Record};
use crate::queue::{Job, PushError};
use crate::tenant::Tenant;
use crate::Shared;
use engine::{fingerprint, CacheEntry, Fingerprint};
use fermihedral::EncodingProblem;
use jsonkit::{obj, Value};
use pauli::PauliString;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Extra wall-clock a connection thread waits beyond its request deadline
/// for the solve worker to hand back the (deadline-bounded) outcome.
const RESULT_GRACE: Duration = Duration::from_millis(500);

/// Where an admission's journal admit record stands when it reaches
/// [`admit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AdmitRecord {
    /// Not written: `admit` appends it if this admission leads the solve
    /// (a follower rides on the leader's record).
    Unwritten,
    /// Written up front by the batch this entry belongs to. However the
    /// entry is answered, the answer retires the record.
    Written,
    /// Inherited from a predecessor's journal. Nobody is waiting for an
    /// answer, so a refused push leaves the record pending for the *next*
    /// restart rather than losing the job.
    Replayed,
}

/// One compile on its way into the queue.
struct Admission {
    problem: EncodingProblem,
    fp: Fingerprint,
    /// `fp` in hex: the coalescing and journal key.
    key: String,
    /// When the request started: the zero of its `deadline_ms`.
    started: Instant,
    deadline_at: Instant,
    tenant: Arc<Tenant>,
    /// Chained warm-start hint (see [`Job::warm_hint`]).
    warm_hint: Option<Vec<PauliString>>,
    record: AdmitRecord,
}

impl Admission {
    fn new(
        problem: EncodingProblem,
        started: Instant,
        deadline: Duration,
        tenant: &Arc<Tenant>,
        record: AdmitRecord,
    ) -> Admission {
        let fp = fingerprint(&problem);
        Admission {
            problem,
            fp,
            key: fp.to_hex(),
            started,
            deadline_at: started + deadline,
            tenant: tenant.clone(),
            warm_hint: None,
            record,
        }
    }
}

/// Appends one record to the journal when one is configured. An append
/// failure degrades that record to journal-less (logged), never panics.
fn journal_append(shared: &Shared, record: &Record) {
    if let Some(journal) = &shared.journal {
        match journal.append(record) {
            Ok(()) => shared.metrics.journal_appends.inc(),
            Err(e) => telemetry::log_warn!(
                "serve.journal",
                "journal append failed",
                error = e.to_string(),
            ),
        }
    }
}

/// Journals the admission's admit record.
fn journal_admit(shared: &Shared, admission: &Admission, batch: Option<&str>) {
    if shared.journal.is_none() {
        return; // spare the problem document
    }
    let deadline = admission.deadline_at - admission.started;
    journal_append(
        shared,
        &Record::Admit(PendingJob {
            key: admission.key.clone(),
            tenant: admission.tenant.name.clone(),
            problem: engine::problem_to_json(&admission.problem),
            deadline_ms: deadline.as_millis() as u64,
            batch: batch.map(str::to_string),
        }),
    );
}

/// Retires `key`'s admit record: the job was answered (or will never
/// run), so it must not replay.
pub(crate) fn journal_done(shared: &Shared, key: &str) {
    journal_append(shared, &Record::Done { key: key.into() });
}

/// Coalesces the admission onto the one in-flight solve per fingerprint
/// and returns its cell and whether this admission leads it. The leader
/// enqueues the job; a follower just attaches (extending the cell's
/// deadline to cover its own). A leader the queue refuses completes the
/// cell as shed — failing any follower that joined in the window, since
/// they asked for the same overloaded queue.
fn admit(shared: &Shared, admission: Admission) -> (Arc<InFlight>, bool) {
    let metrics = &shared.metrics;
    let (cell, leader) = shared.coalescer.join(&admission.key, admission.deadline_at);
    if !leader {
        metrics.coalesced_requests.inc();
        return (cell, false);
    }
    // The admit record is journaled *before* the push: a crash in the
    // window between them replays a job the queue never held, which the
    // replay's cache probe and coalescing de-duplicate.
    if admission.record == AdmitRecord::Unwritten {
        journal_admit(shared, &admission, None);
    }
    let (key, tenant, record) = (admission.key, admission.tenant, admission.record);
    let push = shared.queue.try_push(Job {
        key: key.clone(),
        problem: admission.problem,
        deadline_at: admission.deadline_at,
        enqueued_at: Instant::now(),
        cell: cell.clone(),
        tenant: tenant.clone(),
        warm_hint: admission.warm_hint,
    });
    match push {
        Ok(()) => {
            metrics.jobs_enqueued.inc();
            if record == AdmitRecord::Replayed {
                metrics.journal_replayed.inc();
            }
        }
        Err(error) => {
            // The job never ran: retire its admit record right away, and
            // before the cell completes — an observed answer never replays.
            if record != AdmitRecord::Replayed {
                journal_done(shared, &key);
            }
            let (http_status, reason) = match error {
                PushError::TenantFull(_) => {
                    tenant.quota_rejections.inc();
                    metrics.tenant_rejections.inc();
                    (
                        429,
                        format!(
                            "tenant {:?} queue quota ({}) exhausted",
                            tenant.name, tenant.max_queued
                        ),
                    )
                }
                PushError::Full(_) => {
                    metrics.queue_rejections.inc();
                    (429, "compile queue full".to_string())
                }
                PushError::Closed(_) => (503, "shutting down".to_string()),
            };
            shared
                .coalescer
                .finish(&key, Settled::shed(http_status, reason));
        }
    }
    metrics.bump();
    (cell, true)
}

/// The admission's entry through the engine's checked cache read
/// ([`engine::SolutionCache::checked`]), uncounted: a fast-path probe is
/// made in addition to the counted one of any compilation that follows.
fn checked(shared: &Shared, problem: &EncodingProblem, fp: &Fingerprint) -> Option<CacheEntry> {
    shared.engine.cache().and_then(|c| c.checked(problem, fp))
}

/// Carries one admission to its answer.
fn settle(shared: &Shared, admission: Admission) -> Settled {
    // Fast path: a checked optimal cache entry answers without queueing —
    // this is what keeps repeat traffic in the sub-millisecond range even
    // while every solve worker is busy. Fast-path hits are surfaced as
    // `solves.cache_fast_path`.
    let cached = checked(shared, &admission.problem, &admission.fp);
    let unqueued = match cached.filter(CacheEntry::is_optimal) {
        Some(entry) => {
            shared.metrics.cache_fast_path.inc();
            Some(Settled::new(CompileStatus::Optimal, Answer::Cached(entry)))
        }
        None if shared.is_shutdown() => Some(Settled::shed(503, "shutting down")),
        None => None,
    };
    if let Some(settled) = unqueued {
        if admission.record == AdmitRecord::Written {
            journal_done(shared, &admission.key);
        }
        return settled;
    }
    let (problem, fp) = (admission.problem.clone(), admission.fp);
    let deadline_at = admission.deadline_at;
    let (cell, leader) = admit(shared, admission);
    // Own deadline passed while the (longer-deadlined) solve is still
    // running: answer timeout now with whatever the cache holds as
    // best-so-far.
    let mut settled = cell
        .wait_until(deadline_at + RESULT_GRACE)
        .unwrap_or_else(|| {
            let best = checked(shared, &problem, &fp);
            Settled::new(
                CompileStatus::DeadlineExceeded,
                best.map_or(Answer::Nothing, Answer::Cached),
            )
        });
    // A cache entry is nobody's coalesced solve.
    settled.coalesced = !leader && !matches!(settled.answer, Answer::Cached(_));
    settled
}

/// Moves the registry's drained events into the per-fingerprint trace
/// store (and the trace directory, when configured). Completed spans of
/// an *overlapping* solve land in whichever request drains first — traces
/// are diagnostics, not accounting.
fn capture_trace(shared: &Shared, key: &str) {
    telemetry::flush();
    let registry = telemetry::global();
    let events = registry.drain();
    if events.is_empty() {
        return;
    }
    shared.trace_store.append(key, events);
    if let Some(dir) = &shared.config.trace_dir {
        if let Some(stored) = shared.trace_store.get(key) {
            let json = telemetry::chrome::trace_json(&stored, registry.dropped());
            let _ = std::fs::write(dir.join(format!("{key}.trace.json")), json);
        }
    }
}

/// `POST /v1/compile`.
pub(crate) fn handle_compile(
    shared: &Shared,
    body: &[u8],
    rid: &str,
    tenant: &Arc<Tenant>,
) -> Response {
    let t0 = Instant::now();
    let parsed = match api::parse_compile_request(body, shared.config.max_modes) {
        Ok(parsed) => parsed,
        Err(message) => return Response::error(400, &message),
    };
    let deadline = shared.deadline(parsed.deadline);
    let admission = Admission::new(parsed.problem, t0, deadline, tenant, AdmitRecord::Unwritten);
    let key = admission.key.clone();

    // Root span for this request; the queue-wait and solve spans the
    // worker records nest under it by timestamp containment. The
    // request id rides both the span and the compile log event, so a
    // trace, the access log, and the flight recorder all correlate.
    let mut request_span = telemetry::span("serve.request");
    request_span.attr("fingerprint", key.clone());
    request_span.attr("request_id", rid);
    telemetry::log_info!(
        "serve.compile",
        "compile admitted",
        fingerprint = key.clone(),
        modes = admission.problem.num_modes(),
        deadline_ms = deadline.as_millis() as u64,
        request_id = rid,
    );
    let settled = settle(shared, admission);
    let response = match &settled.answer {
        Answer::Refused(status, reason) => Response::error(*status, reason).with_retry_after(1),
        _ => {
            let _serialize_span = telemetry::span("serve.serialize");
            Response::json(200, &api::compile_document(&key, &settled, t0.elapsed()))
        }
    };
    shared.metrics.compile_latency.record(t0.elapsed());
    request_span.attr("coalesced", settled.coalesced);
    request_span.attr("status", response.status as u64);
    drop(request_span);
    // Everything this request's solve recorded is in the registry by now
    // (the worker flushes before completing the cell); file it under this
    // fingerprint for GET /v1/trace.
    capture_trace(shared, &key);
    response
}

/// `POST /v1/compile-batch`: one problem family at many sizes, solved
/// small→large so every entry warm-starts from its smaller sibling — on a
/// cache-backed engine through the [`engine::SizeIndex`] (cross-size
/// provenance in each entry's `warm_start` field), on a cache-less engine
/// through an explicitly chained, [`encodings::embed`]-lifted hint from
/// the previous entry's best encoding.
///
/// The whole batch runs under one deadline; entries the deadline starves
/// are reported `"status": "skipped"` and the batch answers
/// `"status": "partial"`. Every entry is journaled at admission, so a
/// crash mid-batch replays exactly the unfinished tail.
pub(crate) fn handle_batch(
    shared: &Shared,
    body: &[u8],
    rid: &str,
    tenant: &Arc<Tenant>,
) -> Response {
    let t0 = Instant::now();
    let parsed = match api::parse_batch_request(body, shared.config.max_modes) {
        Ok(parsed) => parsed,
        Err(message) => return Response::error(400, &message),
    };
    if shared.is_shutdown() {
        return Response::error(503, "shutting down").with_retry_after(1);
    }
    let deadline = shared.deadline(parsed.deadline);
    let deadline_at = t0 + deadline;
    let batch_id = format!("batch-{rid}");
    let metrics = &shared.metrics;
    metrics.batches.inc();

    let mut batch_span = telemetry::span("serve.batch");
    batch_span.attr("batch", batch_id.clone());
    batch_span.attr("request_id", rid);
    batch_span.attr("entries", parsed.problems.len() as u64);
    batch_span.attr("tenant", tenant.name.clone());

    // Fingerprint everything up front, then journal every entry before
    // the first solve: a SIGKILL anywhere in the loop leaves admit
    // records for exactly the entries that still owe a completion.
    let entries: Vec<Admission> = parsed
        .problems
        .into_iter()
        .map(|problem| Admission::new(problem, t0, deadline, tenant, AdmitRecord::Written))
        .collect();
    for admission in &entries {
        journal_admit(shared, admission, Some(&batch_id));
    }
    telemetry::log_info!(
        "serve.batch",
        "batch admitted",
        batch = batch_id.clone(),
        entries = entries.len() as u64,
        tenant = tenant.name.clone(),
        deadline_ms = deadline.as_millis() as u64,
        request_id = rid,
    );

    let mut results: Vec<Value> = Vec::with_capacity(entries.len());
    let mut warm_starts = 0u64;
    let mut cross_size = 0u64;
    let mut complete = true;
    // The chain link for cache-less engines: the previous (smaller)
    // entry's best strings, lifted to the next size at use. With a cache,
    // the engine's own SizeIndex probe supplies the (provenance-carrying)
    // cross-size warm start, and a hint would mask it.
    let chained = shared.engine.cache().is_none();
    let mut prev_best: Option<Vec<PauliString>> = None;
    for mut admission in entries {
        let (modes, key) = (admission.problem.num_modes(), admission.key.clone());
        let entry_t0 = Instant::now();
        let settled = if entry_t0 >= deadline_at {
            // Deadline starved this entry; it was *answered* (as
            // skipped), so retire its journal record — replaying it
            // after a restart would resurrect work the client was
            // already told did not happen.
            journal_done(shared, &key);
            Settled::new(CompileStatus::Skipped, Answer::Nothing)
        } else {
            metrics.batch_entries.inc();
            admission.warm_hint = prev_best
                .take()
                .and_then(|strings| encodings::embed::embed_to(&strings, modes).ok());
            let settled = settle(shared, admission);
            capture_trace(shared, &key);
            settled
        };
        complete &= matches!(
            settled.status,
            CompileStatus::Optimal | CompileStatus::BestEffort
        );
        if let Answer::Raced(outcome) = &settled.answer {
            if let Some(ws) = &outcome.report.warm_start {
                warm_starts += 1;
                if ws.source == "cross-size" {
                    cross_size += 1;
                    metrics.batch_warm_starts.inc();
                }
            }
            if chained {
                prev_best = outcome.best.as_ref().map(|b| b.strings.clone());
            }
        }
        let mut doc = api::compile_document(&key, &settled, entry_t0.elapsed());
        if let Value::Obj(fields) = &mut doc {
            fields.insert("modes".into(), Value::Num(modes as f64));
        }
        results.push(doc);
    }

    batch_span.attr("complete", complete);
    batch_span.attr("warm_starts", warm_starts);
    batch_span.attr("cross_size_warm_starts", cross_size);
    drop(batch_span);
    metrics.bump();
    Response::json(
        200,
        &obj([
            ("batch", Value::Str(batch_id)),
            (
                "status",
                Value::Str(if complete { "complete" } else { "partial" }.into()),
            ),
            ("entries", Value::Arr(results)),
            ("warm_starts", Value::Num(warm_starts as f64)),
            ("cross_size_warm_starts", Value::Num(cross_size as f64)),
            ("elapsed_ms", Value::Num(api::millis(t0.elapsed()))),
        ]),
    )
}

/// Re-admits journaled-but-unfinished jobs through the normal queue +
/// coalescer (so their fingerprints coalesce exactly like live traffic).
/// Runs before the workers start; jobs solve as soon as they spawn.
pub(crate) fn replay_pending(shared: &Shared, report: journal::ReplayReport) {
    let metrics = &shared.metrics;
    metrics.journal_skipped.add(report.skipped as u64);
    let pending = report.pending.len();
    for job in report.pending {
        // Not re-admitted: a record from a newer schema (or hand-edited)
        // that does not parse back to its own key, and a job already
        // solved to optimality (the crash happened after the store but
        // before the completion record). Retire them, so they do not
        // replay forever.
        let deadline = shared.deadline(Some(Duration::from_millis(job.deadline_ms)));
        let tenant = shared.tenants.by_name(&job.tenant);
        let admissible = engine::problem_from_json(&job.problem, Some(shared.config.max_modes))
            .ok()
            .map(|p| Admission::new(p, Instant::now(), deadline, tenant, AdmitRecord::Replayed))
            .filter(|a| a.key == job.key)
            .filter(|a| !checked(shared, &a.problem, &a.fp).is_some_and(|e| e.is_optimal()));
        match admissible {
            Some(admission) => drop(admit(shared, admission)),
            None => journal_done(shared, &job.key),
        }
    }
    if pending > 0 || report.skipped > 0 {
        telemetry::log_info!(
            "serve.journal",
            "journal replayed",
            pending = pending as u64,
            re_admitted = metrics.journal_replayed.get(),
            skipped_lines = report.skipped as u64,
            segments = report.segments as u64,
        );
    }
    metrics.bump();
}
