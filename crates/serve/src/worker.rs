//! The solve worker: pops admitted jobs off the fair queue, races each one
//! on whichever engine the server was configured with, and completes its
//! coalescing cell.

use crate::api::{Answer, CompileStatus, Settled};
use crate::flow::journal_done;
use crate::Shared;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub(crate) fn worker_loop(shared: &Shared) {
    let metrics = &shared.metrics;
    while let Some(mut job) = shared.queue.pop() {
        if shared.is_shutdown() {
            metrics.solves_shed.inc();
            metrics.bump();
            shared
                .coalescer
                .finish(&job.key, Settled::shed(503, "shutting down"));
            // No completion record: a journaled job shed by shutdown
            // stays pending and replays when the server comes back.
            shared.queue.job_finished(&job.tenant);
            continue;
        }
        metrics.solves_started.inc();
        metrics.active_solves.add(1);
        metrics.bump();
        // Queue-wait breakdown: the histogram always, plus a span whose
        // start is back-dated to admission time so it lines up under the
        // request's root span in the trace.
        let wait = job.enqueued_at.elapsed();
        metrics.queue_wait.record(wait);
        let registry = telemetry::global();
        if registry.is_enabled() {
            let wait_us = wait.as_micros() as u64;
            registry.push_batch(vec![telemetry::Event {
                name: "serve.queue_wait".into(),
                kind: telemetry::EventKind::Complete { dur_us: wait_us },
                ts_us: registry.now_us().saturating_sub(wait_us),
                pid: std::process::id(),
                tid: telemetry::current_tid(),
                attrs: vec![telemetry::attr("fingerprint", job.key.clone())],
            }]);
        }
        let mut solve_span = telemetry::span("serve.solve");
        solve_span.attr("fingerprint", job.key.clone());
        // Followers that attached before this point may have extended the
        // cell's deadline beyond the admitting request's. A job that sat
        // in the queue past its deadline still runs, but with the minimum
        // budget: the race's opening constructions produce a feasible
        // best-so-far in microseconds, which is exactly what the waiting
        // client should get back.
        let deadline_at = job.cell.deadline_at().max(job.deadline_at);
        let remaining = deadline_at
            .saturating_duration_since(Instant::now())
            .max(Duration::from_millis(1));
        // One per-request config for every race: the deadline tightens the
        // template's budget, and a batch's chained warm hint rides along —
        // in process directly, to shard and fleet workers in their `Job`
        // frames. (A same-size cache entry still wins over the hint.)
        let config = shared
            .engine
            .request_config(Some(remaining), job.warm_hint.take());
        let (cache, cancel) = (shared.engine.cache(), Some(&job.cell.cancel));
        let outcome = match &shared.fleet {
            // Multi-host compilation: the race runs over whatever TCP
            // workers are registered with the fleet server right now
            // (none → in-process fallback inside the fleet coordinator).
            Some(fleet) => shard::compile_fleet_with(&job.problem, &config, cache, cancel, fleet),
            // `--shards N`: lanes race in `fermihedral-shard worker`
            // processes bridged by the coordinator (see crates/shard);
            // below two shards this *is* the in-process engine race.
            None => shard::compile_sharded_with(
                &job.problem,
                &config,
                cache,
                cancel,
                &shard::ShardOptions::default(),
            ),
        };
        let timed_out = !outcome.optimal_proved && Instant::now() >= deadline_at;
        let cancelled = !outcome.optimal_proved && shared.is_shutdown();
        if solve_span.active() {
            solve_span.attr("sharded", config.shards >= 2);
            solve_span.attr("fleet", shared.fleet.is_some());
            solve_span.attr("optimal", outcome.optimal_proved);
            solve_span.attr("timed_out", timed_out);
            solve_span.attr("cancelled", cancelled);
        }
        drop(solve_span);
        // Hand this worker's spans to the registry *before* completing the
        // cell, so the waiting request's trace capture sees them.
        telemetry::flush();
        if timed_out {
            metrics.solves_timed_out.inc();
        }
        metrics.solves_completed.inc();
        metrics.active_solves.add(-1);
        metrics.bump();
        // Completion record first: once the cell is finished a client can
        // observe the result, and an observed result must never replay.
        // A solve cut short by shutdown stays pending instead.
        if !cancelled {
            journal_done(shared, &job.key);
        }
        let status = if outcome.optimal_proved {
            CompileStatus::Optimal
        } else if cancelled {
            CompileStatus::Cancelled
        } else if timed_out {
            CompileStatus::DeadlineExceeded
        } else {
            CompileStatus::BestEffort
        };
        let raced = Answer::Raced(Arc::new(outcome));
        shared
            .coalescer
            .finish(&job.key, Settled::new(status, raced));
        shared.queue.job_finished(&job.tenant);
    }
}
