//! Per-run reporting: what every portfolio worker did, and when.

use crate::cache::CacheCounters;
use jsonkit::{obj, Value};
use std::time::Duration;

/// How the solution cache participated in a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// No cache directory was configured.
    Disabled,
    /// The problem was not in the cache.
    Miss,
    /// An optimal entry was found: the run was served without solving.
    HitOptimal,
    /// A best-so-far (non-optimal) entry was found and used as the
    /// portfolio's warm start; the solvers still ran.
    HitWarmStart,
    /// The same-size lookup missed, but a *smaller*-mode solution of the
    /// same family was found through the [`crate::cache::SizeIndex`] and
    /// embedded as the warm start; the solvers still ran.
    HitCrossSize,
}

impl CacheStatus {
    fn as_str(self) -> &'static str {
        match self {
            CacheStatus::Disabled => "disabled",
            CacheStatus::Miss => "miss",
            CacheStatus::HitOptimal => "hit-optimal",
            CacheStatus::HitWarmStart => "hit-warm-start",
            CacheStatus::HitCrossSize => "hit-cross-size",
        }
    }
}

/// One timestamped event in a worker's life.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerEvent {
    /// Offset from the engine's start.
    pub at: Duration,
    /// What happened.
    pub kind: EventKind,
}

/// The event kinds a worker can log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Found an encoding of this weight (and published it to the shared
    /// incumbent).
    Improved(usize),
    /// Produced an UNSAT certificate: no encoding below this weight exists.
    ProvedFloor(usize),
    /// The worker was cancelled by the shared token.
    Cancelled,
    /// An annealing lane adopted a strictly better shared incumbent (of
    /// this weight) as its next starting point.
    Reseeded(usize),
    /// The lane's explicit phase hint failed validation and was rejected
    /// (the lane fell back to the Bravyi-Kitaev hint when configured).
    HintRejected,
}

impl EventKind {
    fn name(self) -> &'static str {
        match self {
            EventKind::Improved(_) => "improved",
            EventKind::ProvedFloor(_) => "proved-floor",
            EventKind::Cancelled => "cancelled",
            EventKind::Reseeded(_) => "reseeded",
            EventKind::HintRejected => "hint-rejected",
        }
    }

    fn weight(self) -> Option<usize> {
        match self {
            EventKind::Improved(w) | EventKind::ProvedFloor(w) | EventKind::Reseeded(w) => Some(w),
            _ => None,
        }
    }

    /// Inverse of the JSON form ([`name`](Self::name) + optional weight).
    fn from_parts(name: &str, weight: Option<usize>) -> Option<EventKind> {
        Some(match (name, weight) {
            ("improved", Some(w)) => EventKind::Improved(w),
            ("proved-floor", Some(w)) => EventKind::ProvedFloor(w),
            ("reseeded", Some(w)) => EventKind::Reseeded(w),
            ("cancelled", _) => EventKind::Cancelled,
            ("hint-rejected", _) => EventKind::HintRejected,
            _ => return None,
        })
    }
}

/// One worker's timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerReport {
    /// Strategy name (e.g. `sat-descent[seed=2,rb=0.05]`).
    pub strategy: String,
    /// Offset of the worker's start from the engine's start.
    pub started_at: Duration,
    /// Offset of the worker's exit from the engine's start.
    pub finished_at: Duration,
    /// Timestamped events.
    pub events: Vec<WorkerEvent>,
    /// The best weight this worker itself achieved.
    pub final_weight: Option<usize>,
    /// The strongest UNSAT floor this worker proved.
    pub proved_floor: Option<usize>,
    /// True when the worker exited through cancellation.
    pub cancelled: bool,
    /// Solver conflicts this lane spent (0 for non-SAT lanes).
    pub conflicts: u64,
    /// Learnt clauses this lane exported to the exchange.
    pub clauses_exported: u64,
    /// Foreign clauses this lane imported from the exchange.
    pub clauses_imported: u64,
    /// Imports first deferred by their bound tag, admitted later.
    pub clauses_promoted: u64,
    /// Times an imported clause became a propagation reason in this lane —
    /// the usefulness signal behind the import counters (an import that
    /// never propagates was not worth shipping).
    pub imported_reasons: u64,
    /// Unit propagations this lane performed (0 for non-SAT lanes).
    pub propagations: u64,
    /// Where the lane's adaptive export-LBD threshold ended up (0 for
    /// non-SAT lanes).
    pub adapted_export_lbd: u32,
    /// Worker process this lane ran in, for sharded runs (`None` = the
    /// coordinating process itself).
    pub shard: Option<usize>,
}

/// Bridge traffic and liveness of one worker process in a sharded run.
/// Counters are coordinator-side observations, so they stay meaningful
/// even when the worker was killed mid-race.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Lanes assigned to this shard.
    pub lanes: usize,
    /// Learnt clauses this shard sent over the bridge.
    pub clauses_sent: u64,
    /// Remote learnt clauses forwarded into this shard.
    pub clauses_received: u64,
    /// Checked incumbents this shard sent (`Incumbent` frames whose
    /// encoding passed the coordinator's check).
    pub bounds_sent: u64,
    /// Incumbent-bound frames forwarded into this shard — each the weight
    /// of a checked incumbent another shard sent.
    pub bounds_received: u64,
    /// Frames dropped on the way *to* this shard because its bounded
    /// outbox was full (a slow peer sheds best-effort traffic instead
    /// of stalling the race).
    pub frames_dropped: u64,
    /// Times a fleet worker re-attached to this shard id mid-race
    /// (always 0 for the local workers of `--shards N`, which never do).
    pub rejoins: u64,
    /// True when the worker process died (or broke protocol) before
    /// reporting a result; the race degrades to the surviving shards.
    pub dead: bool,
}

impl ShardReport {
    /// Machine-readable form.
    pub fn to_json(&self) -> Value {
        obj([
            ("shard", Value::Num(self.shard as f64)),
            ("lanes", Value::Num(self.lanes as f64)),
            ("clauses_sent", Value::Num(self.clauses_sent as f64)),
            ("clauses_received", Value::Num(self.clauses_received as f64)),
            ("bounds_sent", Value::Num(self.bounds_sent as f64)),
            ("bounds_received", Value::Num(self.bounds_received as f64)),
            ("frames_dropped", Value::Num(self.frames_dropped as f64)),
            ("rejoins", Value::Num(self.rejoins as f64)),
            ("dead", Value::Bool(self.dead)),
        ])
    }
}

/// How a run's opening incumbent was obtained before any lane ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmStartReport {
    /// Where the starting encoding came from: `"cache-entry"` (same-size
    /// best-so-far entry), `"cross-size"` (a smaller cached optimum
    /// lifted through [`encodings::embed`]), or `"config"` (a
    /// caller-supplied hint, e.g. the shard coordinator's broadcast).
    pub source: String,
    /// Mode count of the source solution when it differs from the
    /// problem's (cross-size transfer).
    pub from_modes: Option<usize>,
    /// Weight of the (possibly embedded) starting encoding under the
    /// problem's own objective — the race's opening incumbent.
    pub weight: usize,
}

impl WarmStartReport {
    /// Machine-readable form (also embedded in the server's compile
    /// response as the `warm_start` field).
    pub fn to_json(&self) -> Value {
        obj([
            ("source", Value::Str(self.source.clone())),
            (
                "from_modes",
                self.from_modes
                    .map_or(Value::Null, |m| Value::Num(m as f64)),
            ),
            ("weight", Value::Num(self.weight as f64)),
        ])
    }
}

/// The full run report.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Hex fingerprint of the compiled problem.
    pub fingerprint: String,
    /// Wall-clock time of the whole run.
    pub total_elapsed: Duration,
    /// How the cache participated.
    pub cache: CacheStatus,
    /// Hit/miss/store/eviction counters of the cache handle this run used
    /// (all zero when caching is disabled).
    pub cache_counters: CacheCounters,
    /// Strategy name that produced the returned encoding.
    pub winner: Option<String>,
    /// The warm start the race opened with, when one was found (a
    /// same-size best-so-far entry, an embedded smaller solution, or a
    /// caller-supplied hint). `None` for cold runs and optimal cache
    /// hits.
    pub warm_start: Option<WarmStartReport>,
    /// Per-worker timelines (empty on a cache hit).
    pub workers: Vec<WorkerReport>,
    /// Per-worker-process bridge traffic for sharded runs (empty for
    /// in-process races).
    pub shards: Vec<ShardReport>,
}

impl EngineReport {
    /// Machine-readable form (the `report` field of the shard CLI's JSON
    /// result; the layered benchmark times its serialization).
    pub fn to_json(&self) -> Value {
        obj([
            ("fingerprint", Value::Str(self.fingerprint.clone())),
            (
                "total_seconds",
                Value::Num(self.total_elapsed.as_secs_f64()),
            ),
            ("cache", Value::Str(self.cache.as_str().to_string())),
            ("cache_counters", self.cache_counters.to_json()),
            (
                "winner",
                self.winner.clone().map_or(Value::Null, Value::Str),
            ),
            (
                "warm_start",
                self.warm_start
                    .as_ref()
                    .map_or(Value::Null, WarmStartReport::to_json),
            ),
            (
                "workers",
                Value::Arr(self.workers.iter().map(WorkerReport::to_json).collect()),
            ),
            (
                "shards",
                Value::Arr(self.shards.iter().map(ShardReport::to_json).collect()),
            ),
        ])
    }
}

impl WorkerReport {
    /// Machine-readable form (also the wire form a shard worker reports
    /// its lane timelines in).
    pub fn to_json(&self) -> Value {
        let w = self;
        obj([
            ("strategy", Value::Str(w.strategy.clone())),
            ("started_seconds", Value::Num(w.started_at.as_secs_f64())),
            ("finished_seconds", Value::Num(w.finished_at.as_secs_f64())),
            (
                "final_weight",
                w.final_weight.map_or(Value::Null, |v| Value::Num(v as f64)),
            ),
            (
                "proved_floor",
                w.proved_floor.map_or(Value::Null, |v| Value::Num(v as f64)),
            ),
            ("cancelled", Value::Bool(w.cancelled)),
            ("conflicts", Value::Num(w.conflicts as f64)),
            ("clauses_exported", Value::Num(w.clauses_exported as f64)),
            ("clauses_imported", Value::Num(w.clauses_imported as f64)),
            ("clauses_promoted", Value::Num(w.clauses_promoted as f64)),
            ("imported_reasons", Value::Num(w.imported_reasons as f64)),
            ("propagations", Value::Num(w.propagations as f64)),
            (
                "adapted_export_lbd",
                Value::Num(w.adapted_export_lbd as f64),
            ),
            (
                "shard",
                w.shard.map_or(Value::Null, |v| Value::Num(v as f64)),
            ),
            (
                "events",
                Value::Arr(
                    w.events
                        .iter()
                        .map(|e| {
                            obj([
                                ("at_seconds", Value::Num(e.at.as_secs_f64())),
                                ("kind", Value::Str(e.kind.name().to_string())),
                                (
                                    "weight",
                                    e.kind
                                        .weight()
                                        .map_or(Value::Null, |v| Value::Num(v as f64)),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Inverse of [`to_json`](Self::to_json) — the shard coordinator
    /// merges worker-process reports through this. `None` when required
    /// fields are missing or mistyped (a worker that died mid-write).
    pub fn from_json(doc: &Value) -> Option<WorkerReport> {
        let seconds = |v: &Value| {
            let s = v.as_f64()?;
            (s.is_finite() && s >= 0.0).then(|| Duration::from_secs_f64(s))
        };
        let events = doc
            .get("events")?
            .as_arr()?
            .iter()
            .map(|e| {
                let kind = EventKind::from_parts(
                    e.get("kind")?.as_str()?,
                    e.get("weight").and_then(Value::as_usize),
                )?;
                Some(WorkerEvent {
                    at: seconds(e.get("at_seconds")?)?,
                    kind,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(WorkerReport {
            strategy: doc.get("strategy")?.as_str()?.to_string(),
            started_at: seconds(doc.get("started_seconds")?)?,
            finished_at: seconds(doc.get("finished_seconds")?)?,
            events,
            final_weight: doc.get("final_weight").and_then(Value::as_usize),
            proved_floor: doc.get("proved_floor").and_then(Value::as_usize),
            cancelled: doc.get("cancelled")?.as_bool()?,
            conflicts: doc.get("conflicts")?.as_usize()? as u64,
            clauses_exported: doc.get("clauses_exported")?.as_usize()? as u64,
            clauses_imported: doc.get("clauses_imported")?.as_usize()? as u64,
            clauses_promoted: doc.get("clauses_promoted")?.as_usize()? as u64,
            imported_reasons: doc.get("imported_reasons")?.as_usize()? as u64,
            propagations: doc.get("propagations")?.as_usize()? as u64,
            adapted_export_lbd: doc.get("adapted_export_lbd")?.as_usize()? as u32,
            shard: doc.get("shard").and_then(Value::as_usize),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A finished descent lane's report, carrying `events`.
    fn lane(events: Vec<WorkerEvent>) -> WorkerReport {
        WorkerReport {
            strategy: "sat-descent[seed=1]".into(),
            started_at: Duration::ZERO,
            finished_at: Duration::from_millis(900),
            events,
            final_weight: Some(6),
            proved_floor: Some(6),
            cancelled: false,
            conflicts: 420,
            clauses_exported: 17,
            clauses_imported: 5,
            clauses_promoted: 2,
            imported_reasons: 3,
            propagations: 1234,
            adapted_export_lbd: 5,
            shard: Some(1),
        }
    }

    #[test]
    fn report_serializes_to_parseable_json() {
        let report = EngineReport {
            fingerprint: "ab".repeat(32),
            total_elapsed: Duration::from_millis(1500),
            cache: CacheStatus::Miss,
            cache_counters: CacheCounters {
                misses: 1,
                stores: 1,
                ..CacheCounters::default()
            },
            winner: Some("sat-descent[seed=1]".into()),
            warm_start: Some(WarmStartReport {
                source: "cross-size".into(),
                from_modes: Some(3),
                weight: 20,
            }),
            workers: vec![lane(vec![
                WorkerEvent {
                    at: Duration::from_millis(100),
                    kind: EventKind::Improved(8),
                },
                WorkerEvent {
                    at: Duration::from_millis(800),
                    kind: EventKind::ProvedFloor(6),
                },
            ])],
            shards: vec![ShardReport {
                shard: 1,
                lanes: 3,
                clauses_sent: 11,
                clauses_received: 7,
                bounds_sent: 2,
                bounds_received: 1,
                frames_dropped: 0,
                rejoins: 0,
                dead: false,
            }],
        };
        let text = report.to_json().to_json();
        let parsed = jsonkit::parse(&text).unwrap();
        assert_eq!(parsed.get("cache").unwrap().as_str(), Some("miss"));
        let warm = parsed.get("warm_start").unwrap();
        assert_eq!(warm.get("source").unwrap().as_str(), Some("cross-size"));
        assert_eq!(warm.get("from_modes").unwrap().as_usize(), Some(3));
        assert_eq!(warm.get("weight").unwrap().as_usize(), Some(20));
        let counters = parsed.get("cache_counters").unwrap();
        assert_eq!(counters.get("misses").unwrap().as_usize(), Some(1));
        assert_eq!(counters.get("evictions").unwrap().as_usize(), Some(0));
        let workers = parsed.get("workers").unwrap().as_arr().unwrap();
        assert_eq!(workers.len(), 1);
        assert_eq!(workers[0].get("conflicts").unwrap().as_usize(), Some(420));
        assert_eq!(
            workers[0].get("clauses_exported").unwrap().as_usize(),
            Some(17)
        );
        assert_eq!(
            workers[0].get("clauses_imported").unwrap().as_usize(),
            Some(5)
        );
        let events = workers[0].get("events").unwrap().as_arr().unwrap();
        assert_eq!(events[0].get("weight").unwrap().as_usize(), Some(8));
        assert_eq!(
            events[1].get("kind").unwrap().as_str(),
            Some("proved-floor")
        );
        let shards = parsed.get("shards").unwrap().as_arr().unwrap();
        assert_eq!(shards[0].get("clauses_sent").unwrap().as_usize(), Some(11));
        assert_eq!(shards[0].get("dead").unwrap().as_bool(), Some(false));

        // The worker report round-trips through its JSON form — the shard
        // coordinator depends on this to merge cross-process timelines.
        let worker = WorkerReport::from_json(&workers[0]).expect("parses back");
        assert_eq!(worker, report.workers[0]);
    }

    #[test]
    fn every_event_kind_round_trips() {
        // Worker timelines cross the wire in shard `Result` frames.
        let kinds = [
            EventKind::Improved(9),
            EventKind::ProvedFloor(8),
            EventKind::Cancelled,
            EventKind::Reseeded(7),
            EventKind::HintRejected,
        ];
        let worker = lane(
            (kinds.into_iter().zip(10..))
                .map(|(kind, ms)| WorkerEvent {
                    at: Duration::from_millis(ms),
                    kind,
                })
                .collect(),
        );
        let back = WorkerReport::from_json(&worker.to_json()).expect("parses back");
        assert_eq!(back, worker);
    }

    #[test]
    fn worker_report_from_json_rejects_torn_documents() {
        assert!(WorkerReport::from_json(&Value::Null).is_none());
        assert!(WorkerReport::from_json(&obj([("strategy", Value::Str("x".into()))])).is_none());
        let whole = lane(Vec::new()).to_json();
        assert!(WorkerReport::from_json(&whole).is_some());
        // Every counter is required: a peer that passed the protocol
        // check writes them all.
        for field in ["imported_reasons", "propagations", "adapted_export_lbd"] {
            let mut torn = whole.clone();
            if let Value::Obj(fields) = &mut torn {
                fields.remove(field);
            }
            assert!(WorkerReport::from_json(&torn).is_none(), "{field}");
        }
        // A negative timestamp must not panic Duration construction.
        let mut good = EngineReport {
            fingerprint: String::new(),
            total_elapsed: Duration::ZERO,
            cache: CacheStatus::Disabled,
            cache_counters: CacheCounters::default(),
            winner: None,
            warm_start: None,
            workers: vec![lane(Vec::new())],
            shards: Vec::new(),
        }
        .to_json();
        if let Value::Obj(fields) = &mut good {
            if let Some(Value::Arr(workers)) = fields.get_mut("workers") {
                if let Value::Obj(w) = &mut workers[0] {
                    w.insert("started_seconds".into(), Value::Num(-4.0));
                }
                assert!(WorkerReport::from_json(&workers[0]).is_none());
            }
        }
    }
}
