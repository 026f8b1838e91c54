//! The portfolio compilation engine.
//!
//! [`compile`] races several strategies in worker threads against one
//! shared incumbent:
//!
//! * **SAT weight descent** (`fermihedral::descent`) with distinct solver
//!   seeds, random-branching fractions, and warm-start hints — the paper's
//!   Algorithm 1, diversified;
//! * **simulated annealing** (`fermihedral::anneal`) of the pair
//!   assignment on top of a classical base encoding (Hamiltonian-dependent
//!   objective only — pair permutations cannot change the
//!   Hamiltonian-independent weight);
//! * **classical baselines** (Jordan-Wigner / Bravyi-Kitaev / ternary
//!   tree), which are instant, run before any lane thread starts, and
//!   give the SAT workers a feasible bound to beat.
//!
//! Every worker publishes improvements to a [`SharedBound`], so any
//! worker's find immediately tightens every other worker's next
//! assumption. The first UNSAT certificate proves the incumbent optimal
//! and cancels the remaining workers through a [`CancelToken`] — wall
//! clock tracks the *fastest* strategy, not the slowest.
//!
//! Heavy lanes are bounded by [`EngineConfig::max_concurrency`] (default:
//! the machine's available parallelism), so oversubscribing a small host
//! never makes the race slower than a single lane: excess lanes queue,
//! and a queued lane whose race was decided exits without work.

use crate::cache::{CacheCounters, CacheEntry, SizeIndex, SolutionCache};
use crate::fingerprint::{fingerprint, Fingerprint};
use crate::report::{
    CacheStatus, EngineReport, EventKind, ShardReport, WarmStartReport, WorkerEvent, WorkerReport,
};
use encodings::embed::embed_to;
use encodings::validate::validate_strings;
use encodings::weight::structure_weight;
use encodings::{Encoding, LinearEncoding, MajoranaEncoding, TernaryTreeEncoding};
use fermihedral::descent::{
    bravyi_kitaev_bound, solve_optimal_instance, BestEncoding, DescentConfig, ImproveHook,
    SharedBound, StepResult,
};
use fermihedral::{anneal_pairing, AnnealConfig, EncodingInstance, EncodingProblem, Objective};
use pauli::{PauliString, PhasedString};
use sat::{
    CancelToken, ExchangeConfig, ExportLbd, LaneHandle, RemoteExchange, RestartPolicyKind,
    SharedContext,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The classical constructions available as baseline/annealing-base
/// strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineKind {
    /// Jordan-Wigner.
    JordanWigner,
    /// Bravyi-Kitaev (the paper's warm start).
    BravyiKitaev,
    /// The ternary tree of Jiang et al. (optimal average weight).
    TernaryTree,
}

impl BaselineKind {
    fn name(self) -> &'static str {
        match self {
            BaselineKind::JordanWigner => "jordan-wigner",
            BaselineKind::BravyiKitaev => "bravyi-kitaev",
            BaselineKind::TernaryTree => "ternary-tree",
        }
    }

    fn build(self, n: usize) -> MajoranaEncoding {
        let (name, strings) = match self {
            BaselineKind::JordanWigner => ("jw", LinearEncoding::jordan_wigner(n).majoranas()),
            BaselineKind::BravyiKitaev => ("bk", LinearEncoding::bravyi_kitaev(n).majoranas()),
            BaselineKind::TernaryTree => ("tt", TernaryTreeEncoding::new(n).majoranas()),
        };
        MajoranaEncoding::new(name, strings).expect("classical constructions are well-formed")
    }
}

/// One lane of the portfolio.
#[derive(Debug, Clone)]
pub enum Strategy {
    /// SAT weight descent (Algorithm 1) with portfolio diversification.
    SatDescent {
        /// Solver branching-randomization seed.
        seed: u64,
        /// Fraction of random branching decisions (0 = pure EVSIDS).
        random_branch: f64,
        /// Seed solver phases with the Bravyi-Kitaev assignment.
        bk_phase_hint: bool,
        /// The lane's restart schedule (also its clause-import cadence).
        restart: RestartPolicyKind,
        /// Bounds for the lane's adaptive export-LBD filter (floor /
        /// starting threshold / ceiling). Lanes diversify by starting
        /// tighter or looser; `ExportLbd::fixed` pins a lane.
        export_lbd: ExportLbd,
    },
    /// Simulated-annealing pair assignment on a classical base encoding.
    /// Falls back to publishing the base encoding itself under the
    /// Hamiltonian-independent objective.
    Anneal {
        /// The base encoding whose pair assignment is annealed.
        base: BaselineKind,
        /// Annealing schedule (its `cancel` field is overridden by the
        /// engine's shared token).
        schedule: AnnealConfig,
    },
    /// A classical construction published as-is.
    Baseline(BaselineKind),
}

impl Strategy {
    /// Human-readable lane name used in reports.
    pub fn name(&self) -> String {
        match self {
            Strategy::SatDescent {
                seed,
                random_branch,
                bk_phase_hint,
                restart,
                export_lbd,
            } => format!(
                "sat-descent[seed={seed},rb={random_branch},bk={},rs={},lbd={}..{}..{}]",
                *bk_phase_hint as u8,
                restart.label(),
                export_lbd.floor,
                export_lbd.initial,
                export_lbd.ceiling,
            ),
            Strategy::Anneal { base, .. } => format!("anneal[{}]", base.name()),
            Strategy::Baseline(kind) => format!("baseline[{}]", kind.name()),
        }
    }
}

/// The portfolio used when the caller does not specify one: three SAT
/// descent lanes diversified by seed, random-branching fraction, *and*
/// restart schedule (Luby / geometric / fixed interval), plus the
/// ternary-tree and Bravyi-Kitaev baselines, and — for the
/// Hamiltonian-dependent objective — an annealing lane (the paper's
/// Section 4.2 route).
pub fn default_portfolio(problem: &EncodingProblem) -> Vec<Strategy> {
    let mut lanes = vec![
        Strategy::SatDescent {
            seed: 1,
            random_branch: 0.0,
            bk_phase_hint: true,
            restart: RestartPolicyKind::Luby { unit: 128 },
            // Tight lane: exports only low-glue clauses unless imports
            // prove useful.
            export_lbd: ExportLbd {
                floor: 2,
                initial: 3,
                ceiling: 6,
            },
        },
        Strategy::SatDescent {
            seed: 2,
            random_branch: 0.02,
            bk_phase_hint: false,
            restart: RestartPolicyKind::Geometric {
                initial: 100,
                factor: 1.5,
            },
            export_lbd: ExportLbd::default(),
        },
        Strategy::SatDescent {
            seed: 3,
            random_branch: 0.1,
            bk_phase_hint: false,
            restart: RestartPolicyKind::Fixed { interval: 512 },
            // Loose lane: shares generously from the start.
            export_lbd: ExportLbd {
                floor: 3,
                initial: 6,
                ceiling: 12,
            },
        },
        Strategy::Baseline(BaselineKind::TernaryTree),
        Strategy::Baseline(BaselineKind::BravyiKitaev),
    ];
    if matches!(problem.objective(), Objective::HamiltonianWeight(_)) {
        lanes.push(Strategy::Anneal {
            base: BaselineKind::BravyiKitaev,
            schedule: AnnealConfig::default(),
        });
    }
    lanes
}

/// Learnt-clause sharing between the portfolio's SAT-descent lanes.
///
/// With `enabled` (the default), a [`sat::SharedContext`] connects every
/// descent lane: each exports its units, binaries, and low-LBD learnt
/// clauses, and imports the peers' at restart boundaries. Disabled, lanes
/// share only the incumbent weight — the pre-clause-sharing engine
/// behavior, byte for byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClauseSharing {
    /// Master switch.
    pub enabled: bool,
    /// Export eligibility and inbox capacity.
    pub exchange: ExchangeConfig,
}

impl Default for ClauseSharing {
    fn default() -> Self {
        ClauseSharing {
            enabled: true,
            exchange: ExchangeConfig::default(),
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// The lanes to race. Empty = [`default_portfolio`].
    pub strategies: Vec<Strategy>,
    /// Overall wall-clock limit for the run.
    pub total_timeout: Option<Duration>,
    /// Conflict limit per solver call inside descent lanes. Smaller values
    /// make lanes re-read the shared bound more often; `None` lets each
    /// call run to completion.
    pub conflict_budget_per_call: Option<u64>,
    /// Keep descent lanes running through per-call budget exhaustion
    /// (requires `total_timeout` or an eventual UNSAT to terminate).
    pub persist_on_budget: bool,
    /// Learnt-clause exchange between descent lanes (default: enabled).
    pub clause_sharing: ClauseSharing,
    /// Directory of the persistent solution cache; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Byte cap for the solution cache directory: every store evicts the
    /// least-recently-written entries down to this size. `None` = grow
    /// without bound.
    pub cache_byte_cap: Option<u64>,
    /// Caller-supplied warm-start encoding for *this* problem (`2N`
    /// strings on `N` qubits) — the shard coordinator broadcasts its
    /// (possibly cross-size-embedded) cache findings to workers through
    /// this field. Validated and re-measured before use; an invalid hint
    /// is ignored. A same-size cache entry, when one exists, wins over
    /// this hint.
    pub warm_hint: Option<Vec<PauliString>>,
    /// Maximum *heavy* lanes (SAT descent, annealing) running
    /// concurrently; `None` sizes to [`std::thread::available_parallelism`].
    /// Instant lanes (baselines) always run immediately. Excess heavy
    /// lanes queue, and a queued lane whose race was decided while it
    /// waited exits without doing any work — so on a single-core host the
    /// portfolio costs one lane's wall time, not the sum of all lanes.
    pub max_concurrency: Option<usize>,
    /// Worker *processes* to shard the lanes across (ROADMAP multi-process
    /// sharding). `0` or `1` races every lane in this process. This field
    /// is data: [`compile`] itself always runs in-process; the shard
    /// coordinator (`fermihedral-shard`), the compilation server
    /// (`serve --shards N`), and the benches read it and spawn worker
    /// processes connected by the `shard::wire` clause/bound bridge.
    pub shards: usize,
}

/// Counting semaphore bounding concurrent heavy lanes.
struct Slots {
    available: Mutex<usize>,
    freed: Condvar,
}

impl Slots {
    fn new(n: usize) -> Slots {
        Slots {
            available: Mutex::new(n.max(1)),
            freed: Condvar::new(),
        }
    }

    /// Waits for a slot. Returns `false` (without acquiring) when the race
    /// was decided first.
    fn acquire(&self, cancel: &CancelToken) -> bool {
        let mut avail = self.available.lock().unwrap();
        loop {
            if cancel.is_cancelled() {
                return false;
            }
            if *avail > 0 {
                *avail -= 1;
                return true;
            }
            // Bounded wait so cancellation is polled even if a release
            // signal is missed.
            let (guard, _) = self
                .freed
                .wait_timeout(avail, Duration::from_millis(10))
                .unwrap();
            avail = guard;
        }
    }

    fn release(&self) {
        *self.available.lock().unwrap() += 1;
        self.freed.notify_one();
    }
}

/// Result of a portfolio compilation.
#[derive(Debug, Clone)]
pub struct EngineOutcome {
    /// The best encoding found across all lanes (and the cache).
    pub best: Option<BestEncoding>,
    /// True when an UNSAT certificate (this run's or a cached one) proves
    /// `best` optimal.
    pub optimal_proved: bool,
    /// True when the result was served from the cache without running any
    /// solver.
    pub from_cache: bool,
    /// What every worker did, and when.
    pub report: EngineReport,
}

impl EngineOutcome {
    /// The best weight, if any encoding was found.
    pub fn weight(&self) -> Option<usize> {
        self.best.as_ref().map(|b| b.weight)
    }
}

/// Shared state the workers race on. Cloning shares the same race —
/// every field is a handle — so long-lived callbacks (e.g. a descent
/// lane's live [`core::descent::ImproveHook`]) can own one.
#[derive(Clone)]
struct Incumbent {
    bound: SharedBound,
    /// Shared with the [`RaceBridge`] so a cross-process pump can ship
    /// the incumbent *encoding* (not just its weight) to the coordinator.
    best: Arc<Mutex<Option<(BestEncoding, String)>>>,
    /// Strongest UNSAT floor proved so far (0 = none: a weight-0 encoding
    /// is impossible, so floor 0 carries no information). Shared with the
    /// [`RaceBridge`] so a cross-process pump can forward floor proofs.
    floor: Arc<AtomicUsize>,
    cancel: CancelToken,
    /// Lanes still running. Lets a lane that *waits* on the others (the
    /// re-seeding annealer) stop waiting once it is the last one standing,
    /// instead of idling out the whole timeout.
    active_lanes: Arc<AtomicUsize>,
}

impl Incumbent {
    /// A fresh incumbent racing on `cancel` (the engine raises it when the
    /// race is decided; an external holder may raise it to abort the run).
    fn new(cancel: CancelToken, lanes: usize) -> Incumbent {
        Incumbent {
            bound: SharedBound::new(),
            best: Arc::new(Mutex::new(None)),
            floor: Arc::new(AtomicUsize::new(0)),
            cancel,
            active_lanes: Arc::new(AtomicUsize::new(lanes)),
        }
    }

    /// Publishes an encoding; keeps the lightest. Ties keep the first
    /// publisher (it finished first).
    fn publish(&self, encoding: BestEncoding, strategy: &str) {
        self.bound.tighten(encoding.weight);
        let weight = encoding.weight;
        let mut slot = self.best.lock().unwrap();
        let better = slot
            .as_ref()
            .is_none_or(|(cur, _)| encoding.weight < cur.weight);
        if better {
            *slot = Some((encoding, strategy.to_string()));
        }
        drop(slot);
        if better && telemetry::global().is_enabled() {
            telemetry::instant(
                "engine.improved",
                vec![
                    telemetry::attr("weight", weight as u64),
                    telemetry::attr("strategy", strategy),
                ],
            );
        }
        self.check_optimal();
    }

    /// Records an UNSAT floor and cancels the race when it pins the
    /// incumbent.
    fn prove_floor(&self, floor: usize) {
        self.floor.fetch_max(floor, Ordering::Relaxed);
        if telemetry::global().is_enabled() {
            telemetry::instant("engine.floor", vec![telemetry::attr("floor", floor as u64)]);
        }
        self.check_optimal();
    }

    fn check_optimal(&self) {
        let floor = self.floor.load(Ordering::Relaxed);
        if floor == 0 {
            return;
        }
        let slot = self.best.lock().unwrap();
        if let Some((best, _)) = slot.as_ref() {
            // No encoding below `floor` exists, and we hold one *at* it:
            // the race is decided.
            if best.weight == floor {
                let decided = !self.cancel.is_cancelled();
                self.cancel.cancel();
                if decided && telemetry::global().is_enabled() {
                    telemetry::instant(
                        "engine.race_decided",
                        vec![telemetry::attr("weight", floor as u64)],
                    );
                }
            }
        }
    }

    fn snapshot(&self) -> (Option<(BestEncoding, String)>, usize) {
        (
            self.best.lock().unwrap().clone(),
            self.floor.load(Ordering::Relaxed),
        )
    }
}

/// The handles a cross-process bridge uses to participate in one race
/// (ROADMAP multi-process sharding). Obtained through [`compile_bridged`];
/// every handle is a clone of the race's own shared state, so a bridge
/// thread in the same process can:
///
/// * tighten [`bound`](RaceBridge::bound) with incumbent weights arriving
///   from other shards (and poll it for local improvements to send out);
/// * watch [`floor`](RaceBridge::floor) for locally proved UNSAT floors
///   (an UNSAT certificate is a property of the shared formula — valid in
///   every shard);
/// * raise [`cancel`](RaceBridge::cancel) when the coordinator reports
///   the race decided elsewhere;
/// * move learnt clauses in and out through
///   [`remote`](RaceBridge::remote).
#[derive(Debug, Clone)]
pub struct RaceBridge {
    /// The race's shared incumbent weight.
    pub bound: SharedBound,
    /// The race's cancellation token (also raised by the race itself once
    /// it is decided locally).
    pub cancel: CancelToken,
    /// Strongest UNSAT floor proved by local lanes (0 = none yet).
    pub floor: Arc<AtomicUsize>,
    /// Clause bridge into the local exchange. `None` when the race has no
    /// descent lane or clause sharing is disabled.
    pub remote: Option<RemoteExchange>,
    /// Live view of the best *local* encoding (and the lane that found
    /// it). A pump that announces an improved [`bound`](RaceBridge::bound)
    /// should ship these strings with it: a weight whose witness exists
    /// only in this process dies with it, and a race that was steered
    /// below a lost witness ends floor-met but artifact-less.
    pub best: Arc<Mutex<Option<(BestEncoding, String)>>>,
}

/// [`compile`] with a cross-process bridge attached: `on_start` receives
/// the race's [`RaceBridge`] after the shared state exists but before any
/// lane runs. The shard worker uses this to pump clauses and bounds
/// between its race and the coordinator; see `fermihedral-shard`.
///
/// Caching is intentionally absent here — the *coordinator* owns the
/// cache in a sharded run (workers of one race would all probe and store
/// the same fingerprint).
pub fn compile_bridged(
    problem: &EncodingProblem,
    config: &EngineConfig,
    on_start: impl FnOnce(RaceBridge) + Send,
) -> EngineOutcome {
    let race = |input: &RaceInput| race_lanes(input, None, Some(Box::new(on_start)));
    compile_cached(problem, config, None, "engine.race", race)
}

/// Splits `strategies` round-robin across `shards` worker processes, so
/// lane diversity (seeds, restart schedules, baselines) spreads instead
/// of clustering in one shard. Shards beyond the lane count are dropped:
/// every returned partition is non-empty.
pub fn partition_strategies(strategies: &[Strategy], shards: usize) -> Vec<Vec<Strategy>> {
    let shards = shards.clamp(1, strategies.len().max(1));
    let mut parts: Vec<Vec<Strategy>> = vec![Vec::new(); shards];
    for (i, strategy) in strategies.iter().enumerate() {
        parts[i % shards].push(strategy.clone());
    }
    parts.retain(|p| !p.is_empty());
    parts
}

/// Compiles a problem with the portfolio engine. See the module docs.
///
/// # Example
///
/// ```
/// use engine::{compile, EngineConfig};
/// use fermihedral::{EncodingProblem, Objective};
///
/// let problem = EncodingProblem::full_sat(2, Objective::MajoranaWeight);
/// let outcome = compile(&problem, &EngineConfig::default());
/// assert_eq!(outcome.weight(), Some(6)); // N=2 optimum
/// assert!(outcome.optimal_proved);
/// ```
pub fn compile(problem: &EncodingProblem, config: &EngineConfig) -> EngineOutcome {
    let cache = config
        .cache_dir
        .as_ref()
        .and_then(|dir| SolutionCache::open(dir).ok())
        .map(|c| c.with_byte_cap(config.cache_byte_cap));
    compile_with(problem, config, cache.as_ref(), None)
}

/// [`compile`] against an externally managed cache handle and cancellation
/// token — the re-entrant form the [`crate::Engine`] service handle and
/// the shard coordinator's degradation paths use.
///
/// * `cache` — a pre-opened [`SolutionCache`] shared across calls (its
///   counters accumulate over the handle's lifetime); `None` disables
///   caching regardless of `config.cache_dir`, which this function ignores.
/// * `external_cancel` — raised by the caller to abort the run and get
///   best-so-far back promptly. The engine also raises it itself once the
///   race is decided, so pass a token dedicated to this run.
pub fn compile_with(
    problem: &EncodingProblem,
    config: &EngineConfig,
    cache: Option<&SolutionCache>,
    external_cancel: Option<&CancelToken>,
) -> EngineOutcome {
    let race = |input: &RaceInput| race_lanes(input, external_cancel, None);
    compile_cached(problem, config, cache, "engine.race", race)
}

/// What [`compile_cached`] hands the race it wraps.
#[derive(Debug, Clone, Copy)]
pub struct RaceInput<'a> {
    pub problem: &'a EncodingProblem,
    /// Budgets and sharing policy (its `strategies` and `warm_hint` are
    /// superseded by the resolved fields below).
    pub config: &'a EngineConfig,
    /// Hex fingerprint of the problem.
    pub fingerprint: &'a str,
    /// The lanes to race ([`default_portfolio`] already resolved).
    pub strategies: &'a [Strategy],
    /// The checked opening incumbent, if the cache or the caller had
    /// one: its weight opens the shared bound, its strings seed phases.
    pub warm_start: Option<&'a CacheEntry>,
    /// When the compilation started (lane timelines count from here).
    pub started: Instant,
}

/// What a race hands back to [`compile_cached`].
#[derive(Debug, Clone, Default)]
pub struct RaceOutcome {
    /// The lightest encoding the race holds, and the lane that found it.
    pub best: Option<(BestEncoding, String)>,
    /// Strongest UNSAT floor the race accepts (0 = none).
    pub floor: usize,
    /// Per-lane timelines.
    pub workers: Vec<WorkerReport>,
    /// Per-shard bridge traffic; empty for an in-process race.
    pub shards: Vec<ShardReport>,
}

impl RaceOutcome {
    /// No encoding below `floor` exists and the race holds one *at* it.
    pub fn optimal_proved(&self) -> bool {
        self.floor != 0
            && self
                .best
                .as_ref()
                .is_some_and(|(b, _)| b.weight == self.floor)
    }
}

/// The cache-aware pipeline around *any* race — in-process lanes
/// ([`compile_with`]) or a sharded one over pipes or TCP
/// (`fermihedral-shard`): probe the cache (checked optimal hit → early
/// return; same-size entry, caller hint, or cross-size lift → warm
/// start), run `race`, keep the warm start if the race never beat it,
/// and store the winner back. `root` names the span that covers it all.
pub fn compile_cached(
    problem: &EncodingProblem,
    config: &EngineConfig,
    cache: Option<&SolutionCache>,
    root: &'static str,
    race: impl FnOnce(&RaceInput) -> RaceOutcome,
) -> EngineOutcome {
    let started = Instant::now();
    let fp = fingerprint(problem);
    let mut race_span = telemetry::span(root);
    race_span.attr("modes", problem.num_modes() as u64);
    race_span.attr("fingerprint", fp.to_hex());
    telemetry::log_debug!(
        root,
        "race starting",
        modes = problem.num_modes(),
        fingerprint = fp.to_hex(),
    );

    // ---- Cache probe -----------------------------------------------------
    let mut cache_status = if cache.is_some() {
        CacheStatus::Miss
    } else {
        CacheStatus::Disabled
    };
    let mut warm_start: Option<CacheEntry> = None;
    let mut warm_report: Option<WarmStartReport> = None;
    if let Some(cache) = &cache {
        if let Some(entry) = cache.lookup(&fp) {
            // Trust boundary: re-validate and re-measure before the entry
            // may short-circuit the run or seed the shared bound — a
            // torn-but-parsable (or lying) file that understates its
            // weight could otherwise fake an optimality certificate at a
            // weight its strings never had.
            match checked_entry(problem, &entry.strings, &entry.strategy) {
                // An optimal claim is served only when the strings also
                // measure at the claimed weight; a weight mismatch means
                // the file lies, and its (valid, feasible) strings are
                // demoted to a warm start below.
                Some(checked) if entry.optimal && checked.weight == entry.weight => {
                    return serve_from_cache(fp, entry, started, cache.counters());
                }
                Some(checked) => {
                    if checked.weight != entry.weight {
                        // The file lies about its weight; an understated
                        // one would make store_if_better refuse this
                        // run's genuine result forever. Delete it — the
                        // run's tail re-stores the corrected truth.
                        let _ = cache.invalidate(&fp);
                    }
                    cache_status = CacheStatus::HitWarmStart;
                    warm_report = Some(WarmStartReport {
                        source: "cache-entry".into(),
                        from_modes: None,
                        weight: checked.weight,
                    });
                    warm_start = Some(checked);
                }
                // Invalid strings: a miss — and the poison file must go,
                // for the same store_if_better reason.
                None => {
                    let _ = cache.invalidate(&fp);
                }
            }
        }
    }
    // A caller-supplied hint (the shard coordinator's broadcast) fills a
    // same-size miss; the exact entry above, when present, is at least as
    // good.
    if warm_start.is_none() {
        let hint = config.warm_hint.as_deref();
        if let Some(entry) = hint.and_then(|h| checked_entry(problem, h, "warm-hint")) {
            warm_report = Some(WarmStartReport {
                source: "config".into(),
                from_modes: None,
                weight: entry.weight,
            });
            warm_start = Some(entry);
        }
    }
    // Cross-size transfer (ROADMAP warm-start item): on a same-size miss,
    // look for the largest cached smaller-mode solution of the same
    // problem family and lift it into this search. The lifted encoding is
    // a *feasible* solution, so seeding the shared bound with its weight
    // is sound.
    if warm_start.is_none() {
        if let Some(cache) = &cache {
            if let Some((entry, from_modes)) = cross_size_warm_start(cache, problem) {
                cache.note_cross_size_hit();
                cache_status = CacheStatus::HitCrossSize;
                warm_report = Some(WarmStartReport {
                    source: "cross-size".into(),
                    from_modes: Some(from_modes),
                    weight: entry.weight,
                });
                warm_start = Some(entry);
            }
        }
    }

    // ---- Race ------------------------------------------------------------
    let strategies = if config.strategies.is_empty() {
        default_portfolio(problem)
    } else {
        config.strategies.clone()
    };
    let fp_hex = fp.to_hex();
    let mut outcome = race(&RaceInput {
        problem,
        config,
        fingerprint: &fp_hex,
        strategies: &strategies,
        warm_start: warm_start.as_ref(),
        started,
    });

    // ---- Collect ---------------------------------------------------------
    // A race that never beat the warm start keeps it — and may even have
    // proved it optimal: its weight opened the shared bound, so lanes that
    // all went UNSAT proved a floor *at* that weight. (In-process lanes
    // publish the warm start into their incumbent themselves; a sharded
    // race only ever sees its weight.)
    let lightest = outcome.best.as_ref().map_or(usize::MAX, |(b, _)| b.weight);
    if let Some(entry) = warm_start.filter(|entry| entry.weight < lightest) {
        let winner = format!("cache[{}]", entry.strategy);
        outcome.best = Some((entry.into(), winner));
    }
    let optimal_proved = outcome.optimal_proved();
    let (best, winner) = outcome.best.unzip();
    let shards = outcome.shards;
    let dead_shards = shards.iter().filter(|s| s.dead).count();

    if race_span.active() {
        race_span.attr("lanes", strategies.len() as u64);
        if let Some(b) = &best {
            race_span.attr("weight", b.weight as u64);
        }
        if let Some(w) = &winner {
            race_span.attr("winner", w.as_str());
        }
        race_span.attr("optimal_proved", optimal_proved);
        if !shards.is_empty() {
            race_span.attr("shards", shards.len() as u64);
            race_span.attr("dead_shards", dead_shards as u64);
        }
    }
    telemetry::log_info!(
        root,
        "race finished",
        lanes = strategies.len(),
        weight = best.as_ref().map(|b| b.weight as u64).unwrap_or(0),
        winner = winner.clone().unwrap_or_default(),
        optimal = optimal_proved,
        floor = outcome.floor,
        dead_shards = dead_shards,
        elapsed_ms = started.elapsed().as_millis() as u64,
    );
    drop(race_span);
    telemetry::flush();

    if let (Some(cache), Some(best)) = (&cache, &best) {
        let entry = CacheEntry {
            strings: best.strings.clone(),
            weight: best.weight,
            optimal: optimal_proved,
            strategy: winner.clone().unwrap_or_default(),
        };
        // Cache write failure must not fail the compilation; the same
        // goes for the cross-size index (it is a hint layer over the
        // entries, rebuilt on the next successful record).
        let _ = cache.store_if_better(&fp, &entry);
        let _ = SizeIndex::open(cache.dir()).record(problem, &fp);
    }

    EngineOutcome {
        best,
        optimal_proved,
        from_cache: false,
        report: EngineReport {
            fingerprint: fp_hex,
            total_elapsed: started.elapsed(),
            cache: cache_status,
            cache_counters: cache.map(SolutionCache::counters).unwrap_or_default(),
            winner,
            warm_start: warm_report,
            workers: outcome.workers,
            shards,
        },
    }
}

/// The in-process race: every lane of `input.strategies` as a thread of
/// this process, against one shared incumbent. `external_cancel` aborts
/// it from outside; `bridge_hook` attaches a cross-process bridge (see
/// [`compile_bridged`]). Public because a sharded race that lost every
/// worker falls back to it.
pub fn race_lanes(
    input: &RaceInput,
    external_cancel: Option<&CancelToken>,
    bridge_hook: Option<Box<dyn FnOnce(RaceBridge) + Send + '_>>,
) -> RaceOutcome {
    let (problem, config, started) = (input.problem, input.config, input.started);
    let strategies = input.strategies;
    let needs_instance = strategies
        .iter()
        .any(|s| matches!(s, Strategy::SatDescent { .. }));
    let instance = if needs_instance {
        Some(problem.build())
    } else {
        None
    };

    // Clause exchange between the descent lanes (they all solve the same
    // instance under the same variable numbering). One lane alone has no
    // peers — skip the context so the off-path stays allocation-free —
    // unless a cross-process bridge is attached, in which case even a
    // single lane has remote peers to trade with.
    let descent_lanes = strategies
        .iter()
        .filter(|s| matches!(s, Strategy::SatDescent { .. }))
        .count();
    let mut remote_exchange = None;
    let exchange = if bridge_hook.is_some() {
        (config.clause_sharing.enabled && descent_lanes >= 1).then(|| {
            let (ctx, remote) =
                SharedContext::with_bridge(descent_lanes, config.clause_sharing.exchange);
            if let Some(instance) = &instance {
                // Lanes learn over the search formula; its variable count
                // (totalizer and symmetry auxiliaries included) bounds
                // every literal a remote clause may legally reference.
                remote.set_var_limit(instance.search().num_vars());
            }
            remote_exchange = Some(remote);
            ctx
        })
    } else {
        (config.clause_sharing.enabled && descent_lanes >= 2)
            .then(|| SharedContext::new(descent_lanes, config.clause_sharing.exchange))
    };
    let lane_handles: Vec<Option<LaneHandle>> = {
        let mut next_lane = 0usize;
        strategies
            .iter()
            .map(|s| match s {
                Strategy::SatDescent { .. } => {
                    let handle = exchange.as_ref().map(|ctx| ctx.handle(next_lane));
                    next_lane += 1;
                    handle
                }
                _ => None,
            })
            .collect()
    };

    let incumbent = Incumbent::new(
        external_cancel.cloned().unwrap_or_default(),
        strategies.len(),
    );
    if let Some(entry) = input.warm_start {
        incumbent.publish(entry.clone().into(), &format!("cache[{}]", entry.strategy));
    }
    // The warm incumbent always seeds the shared bound (a feasible
    // solution is a sound upper bound), but its *strings* only displace
    // the lanes' Bravyi-Kitaev phase hint when they open strictly below
    // the BK bound — at small mode counts BK is itself near-optimal, and
    // swapping its phases for a heavier embedded encoding measurably
    // slows the descent.
    let warm_hint_strings = (input.warm_start)
        .filter(|e| e.weight < bravyi_kitaev_bound(problem))
        .map(|e| e.strings.clone());

    if let Some(hook) = bridge_hook {
        hook(RaceBridge {
            bound: incumbent.bound.clone(),
            cancel: incumbent.cancel.clone(),
            floor: incumbent.floor.clone(),
            remote: remote_exchange,
            best: incumbent.best.clone(),
        });
    }

    let slots = Slots::new(
        config
            .max_concurrency
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
    );
    let run_lane = |strategy: &Strategy, lane_handle: Option<LaneHandle>| -> WorkerReport {
        let mut lane_span = telemetry::span("engine.lane");
        let report = match strategy {
            Strategy::SatDescent {
                seed,
                random_branch,
                bk_phase_hint,
                restart,
                export_lbd,
            } => {
                if !slots.acquire(&incumbent.cancel) {
                    incumbent.active_lanes.fetch_sub(1, Ordering::Relaxed);
                    return skipped_lane(strategy.name(), started);
                }
                let report = run_descent_lane(
                    instance.as_ref().expect("instance built for descent lanes"),
                    config,
                    DescentLaneSpec {
                        seed: *seed,
                        random_branch: *random_branch,
                        bk_phase_hint: *bk_phase_hint,
                        restart: *restart,
                        export_lbd: *export_lbd,
                        clause_exchange: lane_handle,
                    },
                    warm_hint_strings.clone(),
                    &incumbent,
                    started,
                    strategy.name(),
                );
                slots.release();
                report
            }
            Strategy::Anneal { base, schedule } => run_anneal_lane(
                problem,
                *base,
                schedule.clone(),
                &incumbent,
                &slots,
                config.total_timeout.map(|t| started + t),
                started,
                strategy.name(),
            ),
            Strategy::Baseline(kind) => {
                run_baseline_lane(problem, *kind, &incumbent, started, strategy.name())
            }
        };
        incumbent.active_lanes.fetch_sub(1, Ordering::Relaxed);
        if lane_span.active() {
            lane_span.attr("strategy", report.strategy.as_str());
            if let Some(w) = report.final_weight {
                lane_span.attr("final_weight", w as u64);
            }
            if let Some(f) = report.proved_floor {
                lane_span.attr("proved_floor", f as u64);
            }
            lane_span.attr("cancelled", report.cancelled);
            lane_span.attr("conflicts", report.conflicts);
            lane_span.attr("imported_reasons", report.imported_reasons);
        }
        drop(lane_span);
        // Lane threads end here; hand their buffered spans to the
        // registry while the thread is still alive.
        telemetry::flush();
        report
    };

    // Baselines are instant and everything after them depends on what
    // they publish — a descent lane's first bound, whether the annealer
    // finds an incumbent to adopt. Run them here, in order, before any
    // lane thread exists, so neither is left to the scheduler.
    let mut reports: Vec<Option<WorkerReport>> = strategies
        .iter()
        .map(|s| matches!(s, Strategy::Baseline(_)).then(|| run_lane(s, None)))
        .collect();

    let deadline_cancel = incumbent.cancel.clone();
    std::thread::scope(|scope| {
        // Watchdog enforcing the total timeout even on lanes that poll
        // nothing else (it also exits early once the race is decided).
        if let Some(total) = config.total_timeout {
            let cancel = deadline_cancel.clone();
            scope.spawn(move || {
                let step = Duration::from_millis(10);
                while started.elapsed() < total && !cancel.is_cancelled() {
                    std::thread::sleep(step.min(total.saturating_sub(started.elapsed())));
                }
                cancel.cancel();
            });
        }

        let run_lane = &run_lane;
        let handles: Vec<_> = (strategies.iter().zip(lane_handles).zip(&mut reports))
            .filter(|(_, report)| report.is_none())
            .map(|((strategy, lane_handle), report)| {
                (scope.spawn(move || run_lane(strategy, lane_handle)), report)
            })
            .collect();
        for (handle, report) in handles {
            *report = Some(handle.join().expect("worker panicked"));
        }
        // Release the watchdog (if the timeout never fired).
        deadline_cancel.cancel();
    });
    let workers = reports.into_iter().flatten().collect();

    let (best, floor) = incumbent.snapshot();
    RaceOutcome {
        best,
        floor,
        workers,
        shards: Vec::new(),
    }
}

/// The engine's one trust-boundary check, for every encoding that
/// arrives from outside this race — a cache entry, a caller-supplied
/// warm hint, a shard's `Incumbent` or `Result` frame. Only the right
/// shape for *this* problem (`2N` strings, each `N` qubits wide — the
/// constraint checks assume equal widths) satisfying its enabled
/// constraints is trusted, and the weight is re-measured locally, never
/// taken from the source's claim. Returns that measured weight.
pub fn check_encoding(problem: &EncodingProblem, strings: &[PauliString]) -> Option<usize> {
    let n = problem.num_modes();
    if strings.len() != 2 * n || strings.iter().any(|s| s.num_qubits() != n) {
        return None;
    }
    let phased: Vec<PhasedString> = strings.iter().cloned().map(PhasedString::from).collect();
    satisfies_problem(problem, &phased).then(|| measure(problem, &phased))
}

/// A cache entry's encoding, as the incumbent it stands for.
impl From<CacheEntry> for BestEncoding {
    fn from(entry: CacheEntry) -> BestEncoding {
        BestEncoding {
            strings: entry.strings,
            weight: entry.weight,
        }
    }
}

/// [`check_encoding`], wrapped as a cache-entry-shaped warm start.
fn checked_entry(
    problem: &EncodingProblem,
    strings: &[PauliString],
    strategy: &str,
) -> Option<CacheEntry> {
    check_encoding(problem, strings).map(|weight| CacheEntry {
        strings: strings.to_vec(),
        weight,
        optimal: false,
        strategy: strategy.to_string(),
    })
}

/// Objective-aware weight of an encoding whose strings all share one
/// width (what [`check_encoding`] verifies for foreign input).
pub fn measure_weight(problem: &EncodingProblem, strings: &[PauliString]) -> usize {
    let phased: Vec<PhasedString> = strings.iter().cloned().map(PhasedString::from).collect();
    measure(problem, &phased)
}

/// Probes the cross-size index for the largest cached `M < N` solution of
/// the problem's family and lifts it to `N` modes. Dangling index entries
/// (evicted files), failed lifts, and lifted encodings that violate the
/// problem's constraints are all skipped — the next-smaller size gets its
/// chance. Returns the lifted entry (weight re-measured under the
/// problem's objective, never marked optimal) and the source mode count.
///
/// [`compile_cached`] runs this on a same-size miss, for in-process and
/// sharded races alike (a shard coordinator broadcasts the lifted strings
/// to its workers in the `Job` frame).
pub fn cross_size_warm_start(
    cache: &SolutionCache,
    problem: &EncodingProblem,
) -> Option<(CacheEntry, usize)> {
    let index = SizeIndex::open(cache.dir());
    for (from_modes, fp) in index.fingerprints_below(problem) {
        let Some(entry) = cache.peek(&fp) else {
            continue; // evicted since it was indexed
        };
        let Ok(lifted) = embed_to(&entry.strings, problem.num_modes()) else {
            continue; // torn or foreign entry: not a valid encoding
        };
        let phased: Vec<PhasedString> = lifted.iter().cloned().map(PhasedString::from).collect();
        if !satisfies_problem(problem, &phased) {
            continue;
        }
        let weight = measure(problem, &phased);
        return Some((
            CacheEntry {
                strings: lifted,
                weight,
                // The *embedded* encoding is feasible, not optimal: the
                // larger problem usually admits lighter solutions.
                optimal: false,
                strategy: format!("embed[{}->{}]", from_modes, problem.num_modes()),
            },
            from_modes,
        ));
    }
    None
}

/// Report for a heavy lane whose race was decided before it got a slot.
fn skipped_lane(name: String, engine_start: Instant) -> WorkerReport {
    let now = engine_start.elapsed();
    WorkerReport {
        strategy: name,
        started_at: now,
        finished_at: now,
        events: vec![WorkerEvent {
            at: now,
            kind: EventKind::Cancelled,
        }],
        final_weight: None,
        proved_floor: None,
        cancelled: true,
        conflicts: 0,
        propagations: 0,
        clauses_exported: 0,
        clauses_imported: 0,
        clauses_promoted: 0,
        imported_reasons: 0,
        adapted_export_lbd: 0,
        shard: None,
    }
}

fn serve_from_cache(
    fp: Fingerprint,
    entry: CacheEntry,
    started: Instant,
    cache_counters: CacheCounters,
) -> EngineOutcome {
    let winner = Some(format!("cache[{}]", entry.strategy));
    EngineOutcome {
        best: Some(entry.into()),
        optimal_proved: true,
        from_cache: true,
        report: EngineReport {
            fingerprint: fp.to_hex(),
            total_elapsed: started.elapsed(),
            cache: CacheStatus::HitOptimal,
            cache_counters,
            winner,
            warm_start: None,
            workers: Vec::new(),
            shards: Vec::new(),
        },
    }
}

/// The diversification knobs of one SAT-descent lane.
struct DescentLaneSpec {
    seed: u64,
    random_branch: f64,
    bk_phase_hint: bool,
    restart: RestartPolicyKind,
    export_lbd: ExportLbd,
    clause_exchange: Option<LaneHandle>,
}

fn run_descent_lane(
    instance: &EncodingInstance,
    config: &EngineConfig,
    spec: DescentLaneSpec,
    warm_start: Option<Vec<PauliString>>,
    incumbent: &Incumbent,
    engine_start: Instant,
    name: String,
) -> WorkerReport {
    let started_at = engine_start.elapsed();
    // Publish improvements *live*, not just at lane end: the shared
    // bound already travels instantly, and the witness strings must
    // keep pace with it — a sharded race whose worker dies mid-descent
    // would otherwise hold a bound without the encoding behind it.
    let live_publish = {
        let incumbent = incumbent.clone();
        let lane = name.clone();
        ImproveHook::new(move |best: &BestEncoding| incumbent.publish(best.clone(), &lane))
    };
    let descent_config = DescentConfig {
        conflict_budget: config.conflict_budget_per_call,
        persist_on_budget: config.persist_on_budget,
        total_timeout: config.total_timeout.map(|t| t.saturating_sub(started_at)),
        cancel: Some(incumbent.cancel.clone()),
        shared_bound: Some(incumbent.bound.clone()),
        on_improve: Some(live_publish),
        solver_seed: Some(spec.seed),
        random_branch: spec.random_branch,
        bk_phase_hint: spec.bk_phase_hint,
        restart_policy: Some(spec.restart),
        export_lbd: Some(spec.export_lbd),
        clause_exchange: spec.clause_exchange,
        phase_hint: warm_start,
        ..DescentConfig::default()
    };
    let outcome = solve_optimal_instance(instance, &descent_config);

    // Publish results and reconstruct the timeline from the step log.
    if let Some(best) = outcome.best.clone() {
        incumbent.publish(best, &name);
    }
    if let Some(floor) = outcome.proved_floor {
        incumbent.prove_floor(floor);
    }
    let mut events = Vec::with_capacity(outcome.steps.len() + 1);
    if outcome.hint_rejected {
        // The hint is applied (or refused) before the first solver call.
        events.push(WorkerEvent {
            at: started_at,
            kind: EventKind::HintRejected,
        });
    }
    let mut clock = started_at;
    for step in &outcome.steps {
        clock += step.elapsed;
        let kind = match step.result {
            StepResult::Improved(w) => EventKind::Improved(w),
            StepResult::Exhausted => EventKind::ProvedFloor(step.bound),
            StepResult::BudgetExceeded => EventKind::BudgetExhausted,
            StepResult::Cancelled => EventKind::Cancelled,
        };
        events.push(WorkerEvent { at: clock, kind });
    }
    WorkerReport {
        strategy: name,
        started_at,
        finished_at: engine_start.elapsed(),
        events,
        final_weight: outcome.weight(),
        proved_floor: outcome.proved_floor,
        cancelled: outcome.cancelled,
        conflicts: outcome.solver_stats.conflicts,
        propagations: outcome.solver_stats.propagations,
        clauses_exported: outcome.solver_stats.exported_clauses,
        clauses_imported: outcome.solver_stats.imported_clauses,
        clauses_promoted: outcome.solver_stats.promoted_clauses,
        imported_reasons: outcome.solver_stats.imported_reasons,
        adapted_export_lbd: outcome.solver_stats.adapted_export_lbd,
        shard: None,
    }
}

/// Checks a classical encoding against the problem's enabled constraints;
/// publishing an encoding from outside the SAT search space would corrupt
/// the shared bound (an UNSAT certificate at its weight would "prove
/// optimal" something the constrained search could never reach).
fn satisfies_problem(problem: &EncodingProblem, strings: &[PhasedString]) -> bool {
    let report = validate_strings(strings);
    report.anticommuting
        && report.algebraically_independent
        && (!problem.has_vacuum_condition() || report.xy_pair_condition)
}

fn measure(problem: &EncodingProblem, strings: &[PhasedString]) -> usize {
    match problem.objective() {
        Objective::MajoranaWeight => encodings::weight::majorana_weight(strings),
        Objective::HamiltonianWeight(monomials) => structure_weight(strings, monomials),
    }
}

fn plain_strings(strings: &[PhasedString]) -> Vec<PauliString> {
    strings.iter().map(|p| p.string().clone()).collect()
}

fn run_baseline_lane(
    problem: &EncodingProblem,
    kind: BaselineKind,
    incumbent: &Incumbent,
    engine_start: Instant,
    name: String,
) -> WorkerReport {
    let started_at = engine_start.elapsed();
    let encoding = kind.build(problem.num_modes());
    let strings = encoding.majoranas();
    let mut events = Vec::new();
    let mut final_weight = None;
    if satisfies_problem(problem, &strings) {
        let weight = measure(problem, &strings);
        incumbent.publish(
            BestEncoding {
                strings: plain_strings(&strings),
                weight,
            },
            &name,
        );
        events.push(WorkerEvent {
            at: engine_start.elapsed(),
            kind: EventKind::Improved(weight),
        });
        final_weight = Some(weight);
    }
    WorkerReport {
        strategy: name,
        started_at,
        finished_at: engine_start.elapsed(),
        events,
        final_weight,
        proved_floor: None,
        cancelled: false,
        conflicts: 0,
        propagations: 0,
        clauses_exported: 0,
        clauses_imported: 0,
        clauses_promoted: 0,
        imported_reasons: 0,
        adapted_export_lbd: 0,
        shard: None,
    }
}

/// Polls the shared incumbent for an encoding strictly better than
/// `my_best` to re-anneal from. Waits until `deadline` (the race's absolute
/// end) when one is set; without a deadline only an *already available*
/// improvement is taken. Either way the wait ends as soon as no *other*
/// lane is still running — nobody is left to produce an improvement, and
/// idling out the rest of the timeout would pin the engine's wall clock
/// (and a server worker) to the full deadline on every uncertified run.
fn wait_for_better_incumbent(
    incumbent: &Incumbent,
    my_best: usize,
    deadline: Option<Instant>,
) -> Option<(Vec<PauliString>, usize)> {
    loop {
        if incumbent.cancel.is_cancelled() {
            return None;
        }
        // Cheap atomic pre-check before cloning the encoding.
        if incumbent.bound.get() < my_best {
            let (slot, _) = incumbent.snapshot();
            if let Some((best, _)) = slot {
                if best.weight < my_best {
                    return Some((best.strings, best.weight));
                }
            }
        }
        if incumbent.active_lanes.load(Ordering::Relaxed) <= 1 {
            return None; // only this lane is left — nothing to wait for
        }
        match deadline {
            None => return None,
            Some(d) if Instant::now() >= d => return None,
            Some(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_anneal_lane(
    problem: &EncodingProblem,
    base: BaselineKind,
    mut schedule: AnnealConfig,
    incumbent: &Incumbent,
    slots: &Slots,
    deadline: Option<Instant>,
    engine_start: Instant,
    name: String,
) -> WorkerReport {
    // Pair permutation cannot change the summed Majorana weight, so under
    // that objective the lane degenerates to its base encoding — instant
    // work that does not occupy a heavy slot.
    let Objective::HamiltonianWeight(monomials) = problem.objective() else {
        return run_baseline_lane(problem, base, incumbent, engine_start, name);
    };
    if !slots.acquire(&incumbent.cancel) {
        return skipped_lane(name, engine_start);
    }
    let started_at = engine_start.elapsed();
    let mut events = Vec::new();
    let mut final_weight: Option<usize> = None;
    let mut cancelled = false;
    schedule.cancel = Some(incumbent.cancel.clone());

    let base_encoding = base.build(problem.num_modes());
    let mut next = satisfies_problem(problem, &base_encoding.majoranas())
        .then_some((base_encoding, /* reseeded: */ false));
    let mut holding_slot = true;
    let mut round = 0u64;

    while let Some((encoding, reseeded)) = next.take() {
        let mut round_schedule = schedule.clone();
        if reseeded {
            // Re-seeded rounds start from an already-good assignment:
            // cool from the configured (lower) re-seed temperature, and
            // vary the seed so repeated re-anneals explore new swaps.
            if let Some(t0) = schedule.reseed_t0 {
                round_schedule.t0 = t0.max(schedule.t1);
            }
            round_schedule.seed = schedule.seed.wrapping_add(round);
        }
        let outcome = anneal_pairing(&encoding, monomials, &round_schedule);
        cancelled = outcome.cancelled;
        // Pair swaps preserve the XY-pair structure, so the annealed
        // encoding satisfies whatever its starting point satisfied.
        let annealed = outcome.encoding.majoranas();
        incumbent.publish(
            BestEncoding {
                strings: plain_strings(&annealed),
                weight: outcome.weight,
            },
            &name,
        );
        events.push(WorkerEvent {
            at: engine_start.elapsed(),
            kind: EventKind::Improved(outcome.weight),
        });
        final_weight = Some(final_weight.map_or(outcome.weight, |w| w.min(outcome.weight)));
        round += 1;
        if cancelled || schedule.reseed_t0.is_none() {
            break;
        }

        // Mid-race re-seed (ROADMAP item): adopt a strictly better shared
        // incumbent — typically a SAT lane's find — as the next starting
        // point instead of only ever annealing the classical base. The
        // heavy slot is released while waiting so queued SAT lanes are not
        // starved by an idle annealer.
        slots.release();
        holding_slot = false;
        if let Some((strings, weight)) =
            wait_for_better_incumbent(incumbent, final_weight.unwrap_or(usize::MAX), deadline)
        {
            if !slots.acquire(&incumbent.cancel) {
                cancelled = true;
                events.push(WorkerEvent {
                    at: engine_start.elapsed(),
                    kind: EventKind::Cancelled,
                });
                break;
            }
            holding_slot = true;
            events.push(WorkerEvent {
                at: engine_start.elapsed(),
                kind: EventKind::Reseeded(weight),
            });
            next = MajoranaEncoding::from_strings("incumbent", strings)
                .ok()
                .map(|e| (e, true));
        }
    }
    if holding_slot {
        slots.release();
    }

    WorkerReport {
        strategy: name,
        started_at,
        finished_at: engine_start.elapsed(),
        events,
        final_weight,
        proved_floor: None,
        cancelled,
        conflicts: 0,
        propagations: 0,
        clauses_exported: 0,
        clauses_imported: 0,
        clauses_promoted: 0,
        imported_reasons: 0,
        adapted_export_lbd: 0,
        shard: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fermihedral::Objective;

    #[test]
    fn descent_lane_logs_a_rejected_hint() {
        // The engine's own warm-start paths validate hints before they
        // reach a lane, so this exercises the defense-in-depth directly:
        // a shape-correct but invalid hint must be rejected by the
        // descent (BK fallback applies) and logged as a worker event.
        let problem = EncodingProblem::full_sat(2, Objective::MajoranaWeight);
        let instance = problem.build();
        let incumbent = Incumbent::new(CancelToken::new(), 1);
        let bad: Vec<PauliString> = ["XX", "YY", "ZI", "IZ"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let report = run_descent_lane(
            &instance,
            &EngineConfig::default(),
            DescentLaneSpec {
                seed: 1,
                random_branch: 0.0,
                bk_phase_hint: true,
                restart: sat::RestartPolicyKind::default(),
                export_lbd: ExportLbd::default(),
                clause_exchange: None,
            },
            Some(bad),
            &incumbent,
            Instant::now(),
            "lane".into(),
        );
        assert_eq!(
            report.events.first().map(|e| e.kind),
            Some(EventKind::HintRejected),
            "the rejection is logged before any solver step: {:?}",
            report.events
        );
        assert_eq!(report.final_weight, Some(6), "BK fallback still certifies");
    }
}
