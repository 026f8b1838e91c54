//! The portfolio compilation engine.
//!
//! [`compile`] races several search lanes in worker threads against one
//! shared incumbent:
//!
//! * **SAT weight descent** (`fermihedral::descent`) with distinct solver
//!   seeds, random-branching fractions, and warm-start hints — the paper's
//!   Algorithm 1, diversified;
//! * **simulated annealing** (`fermihedral::anneal`) of Bravyi-Kitaev's
//!   pair assignment (Hamiltonian-dependent objective only — pair
//!   permutations cannot change the Hamiltonian-independent weight).
//!
//! Every race opens at the classical constructions — the vacuum-paired
//! ternary tree, then Bravyi-Kitaev — each published, when it satisfies
//! the problem's constraints, before any lane thread starts. The lanes
//! therefore start from a feasible bound to beat (the paper's Section 3.6
//! opening bound), and no race returns worse than the best valid
//! construction.
//!
//! Small races are not run at all: [`compile_cached`] asks
//! [`fermihedral::bound`] for anything lighter than the opening, for the
//! Hamiltonian-independent weight at N ≤ 5 and the Hamiltonian-dependent
//! one at N ≤ 3. When the search finds nothing, the opening is the answer;
//! when it finds a witness that passes [`check_encoding`], the witness is.
//! Either way the floor is the search's, no lane thread starts and no CNF
//! is built. For the Hamiltonian-independent weight the search drops the
//! vacuum condition, so its floor is a lower bound with the condition on
//! or off, and the vacuum-paired tree meets it at every N ≤ 5; for the
//! Hamiltonian-dependent weight it searches ordered assignments and its
//! floor is exact. It shares no code with the clause generator.
//!
//! Every worker publishes improvements to a [`SharedBound`], so any
//! worker's find immediately tightens every other worker's next
//! assumption. The first UNSAT certificate proves the incumbent optimal
//! and cancels the remaining workers through a [`CancelToken`] — wall
//! clock tracks the *fastest* strategy, not the slowest.
//!
//! The lane policy is the engine's: descent lanes with a peer share
//! clauses under [`ExchangeConfig::default`], no solver call has a
//! conflict budget, and heavy lanes are bounded by the machine's
//! available parallelism, so oversubscribing a small host never makes
//! the race slower than a single lane: excess lanes queue, and a queued
//! lane whose race was decided exits without work.
//!
//! Nothing in the race polls a clock. One signal — a mutex and condvar
//! owned by the race — is notified when a lane exits, a heavy slot is
//! released, a lane publishes a new incumbent, or the race is decided.
//! Queued lanes, the re-seeding annealer, and the waiter that enforces
//! [`EngineConfig::total_timeout`] all sleep on it; the waiter raises the
//! cancel flag only if the deadline passes first. A race therefore
//! returns as soon as its last lane does.

use crate::cache::{CacheEntry, SizeIndex, SolutionCache};
use crate::fingerprint::fingerprint;
use crate::floor::{Floor, FloorSource};
use crate::report::{
    CacheStatus, EngineReport, EventKind, ShardReport, WarmStartReport, WorkerEvent, WorkerReport,
};
use encodings::embed::embed_to;
use encodings::validate::validate_strings;
use encodings::weight::structure_weight;
use encodings::{Encoding, LinearEncoding, MajoranaEncoding, TernaryTreeEncoding};
use fermihedral::bound;
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
    /// Simulated-annealing pair assignment on Bravyi-Kitaev. Under the
    /// Hamiltonian-independent objective pair swaps cannot change the
    /// weight, so the lane exits at once: the race's opening Bravyi-Kitaev
    /// is all it could publish.
    Anneal {
        /// Annealing schedule (its `cancel` field is overridden by the
        /// engine's shared token).
        schedule: AnnealConfig,
    },
}

impl Strategy {
    /// Human-readable lane name used in reports; a shard `Job` names
    /// its lanes by it.
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
            Strategy::Anneal { .. } => "anneal[bravyi-kitaev]".to_string(),
        }
    }
}

/// The portfolio used when the caller does not specify one: three SAT
/// descent lanes diversified by seed, random-branching fraction, *and*
/// restart schedule (Luby / geometric / fixed interval), plus — for the
/// Hamiltonian-dependent objective — an annealing lane (the paper's
/// Section 4.2 route). The classical constructions are not lanes: they
/// open every race.
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
    ];
    if matches!(problem.objective(), Objective::HamiltonianWeight(_)) {
        lanes.push(Strategy::Anneal {
            schedule: AnnealConfig::default(),
        });
    }
    lanes
}

/// Engine configuration.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// The lanes to race. Empty = [`default_portfolio`].
    pub strategies: Vec<Strategy>,
    /// Overall wall-clock limit for the run.
    pub total_timeout: Option<Duration>,
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
    /// Worker *processes* to shard the lanes across (ROADMAP multi-process
    /// sharding). `0` or `1` races every lane in this process. This field
    /// is data: [`compile`] itself always runs in-process; the shard
    /// coordinator (`fermihedral-shard`) and the compilation server
    /// (`serve --shards N`) read it and spawn worker processes connected
    /// by the `shard::wire` clause/bound bridge.
    pub shards: usize,
}

/// The race's one wake-up signal, whose mutex also guards the counting
/// semaphore bounding concurrent heavy lanes. Every waiter re-tests its
/// condition under the lock, and every notifier changes what waiters test
/// *before* taking the lock, so no wake-up is lost between a test and
/// the wait that follows it.
struct RaceSignal {
    free_slots: Mutex<usize>,
    changed: Condvar,
}

impl RaceSignal {
    fn new(slots: usize) -> RaceSignal {
        RaceSignal {
            free_slots: Mutex::new(slots.max(1)),
            changed: Condvar::new(),
        }
    }

    /// Wakes every waiter to re-test its condition.
    fn notify(&self) {
        drop(self.free_slots.lock().unwrap());
        self.changed.notify_all();
    }

    /// Blocks until `done` (shown the free-slot count) holds or `deadline`
    /// passes; `None` waits without a deadline. A deadline already past
    /// tests `done` once.
    fn wait_until(&self, deadline: Option<Instant>, mut done: impl FnMut(&mut usize) -> bool) {
        let mut free = self.free_slots.lock().unwrap();
        while !done(&mut free) {
            free = match deadline {
                None => self.changed.wait(free).unwrap(),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return;
                    }
                    self.changed.wait_timeout(free, left).unwrap().0
                }
            };
        }
    }

    /// Waits for a heavy slot. Returns `false` (without acquiring) when the
    /// race was decided or aborted first.
    fn acquire(&self, cancel: &CancelToken) -> bool {
        let mut acquired = false;
        self.wait_until(None, |free| {
            if !cancel.is_cancelled() && *free > 0 {
                *free -= 1;
                acquired = true;
            }
            acquired || cancel.is_cancelled()
        });
        acquired
    }

    fn release(&self) {
        *self.free_slots.lock().unwrap() += 1;
        // Every waiter, not one: a woken lane that finds the race decided
        // returns without passing the wake-up on.
        self.changed.notify_all();
    }
}

/// Result of a portfolio compilation.
#[derive(Debug, Clone)]
pub struct EngineOutcome {
    /// The best encoding found across all lanes (and the cache).
    pub best: Option<BestEncoding>,
    /// The strongest floor proved for the problem: a lane's or a shard's
    /// UNSAT certificate, the branch and bound that decides a
    /// Hamiltonian-independent race at its opening
    /// ([`fermihedral::bound`]), or a checked cache entry's.
    pub floor: Option<Floor>,
    /// `floor` meets `best`'s weight ([`Floor::pins`]).
    pub optimal_proved: bool,
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
    /// Strongest UNSAT floor proved so far, read through
    /// [`floor`](Self::floor). Shared with the [`RaceBridge`] so a
    /// cross-process pump can forward floor proofs.
    floor: Arc<AtomicUsize>,
    cancel: CancelToken,
    /// Lanes still running. Lets a lane that *waits* on the others (the
    /// re-seeding annealer) stop waiting once it is the last one standing,
    /// instead of idling out the whole timeout.
    active_lanes: Arc<AtomicUsize>,
    /// Notified on every lane exit, slot release, new incumbent, and when
    /// the race is decided.
    signal: Arc<RaceSignal>,
}

impl Incumbent {
    /// A fresh incumbent racing on `cancel` (the engine raises it when the
    /// race is decided; an external holder may raise it to abort the run)
    /// with `heavy_slots` heavy lanes allowed to run at once.
    fn new(cancel: CancelToken, lanes: usize, heavy_slots: usize) -> Incumbent {
        Incumbent {
            bound: SharedBound::new(),
            best: Arc::new(Mutex::new(None)),
            floor: Arc::new(AtomicUsize::new(0)),
            cancel,
            active_lanes: Arc::new(AtomicUsize::new(lanes)),
            signal: Arc::new(RaceSignal::new(heavy_slots)),
        }
    }

    /// Raises the cancel flag and wakes every waiter.
    fn abort(&self) {
        self.cancel.cancel();
        self.signal.notify();
    }

    /// The strongest UNSAT floor proved so far (the atomic's 0: none).
    fn floor(&self) -> Option<Floor> {
        let value = self.floor.load(Ordering::Relaxed);
        (value > 0).then_some(Floor {
            value,
            source: FloorSource::Unsat,
        })
    }

    fn lanes_done(&self) -> bool {
        self.active_lanes.load(Ordering::Relaxed) == 0
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
        // Only a new incumbent or a decided race can end a wait.
        if self.check_optimal() || better {
            self.signal.notify();
        }
    }

    /// Records an UNSAT floor and cancels the race when it pins the
    /// incumbent.
    fn prove_floor(&self, value: usize) {
        self.floor.fetch_max(value, Ordering::Relaxed);
        trace_floor(Floor {
            value,
            source: FloorSource::Unsat,
        });
        if self.check_optimal() {
            self.signal.notify();
        }
    }

    /// Cancels the race once the floor pins the incumbent. True when this
    /// call decided it; the caller then wakes the waiters, outside the
    /// incumbent's lock (a waiter tests the incumbent holding the
    /// signal's).
    fn check_optimal(&self) -> bool {
        let Some(floor) = self.floor() else {
            return false;
        };
        let slot = self.best.lock().unwrap();
        let pinned = slot
            .as_ref()
            .is_some_and(|(best, _)| floor.pins(best.weight));
        let decided = pinned && !self.cancel.is_cancelled();
        if pinned {
            self.cancel.cancel();
        }
        if decided && telemetry::global().is_enabled() {
            telemetry::instant(
                "engine.race_decided",
                vec![telemetry::attr("weight", floor.value as u64)],
            );
        }
        decided
    }

    /// Handles on this race for a cross-process bridge.
    fn bridge(&self, remote: Option<RemoteExchange>) -> RaceBridge {
        RaceBridge {
            bound: self.bound.clone(),
            cancel: self.cancel.clone(),
            floor: self.floor.clone(),
            remote,
            best: self.best.clone(),
        }
    }

    fn snapshot(&self) -> (Option<(BestEncoding, String)>, Option<Floor>) {
        (self.best.lock().unwrap().clone(), self.floor())
    }
}

/// Counts one lane out of the race when dropped — on a panic too, so no
/// waiter is left waiting on a lane that is gone.
struct LaneExit<'a>(&'a Incumbent);

impl Drop for LaneExit<'_> {
    fn drop(&mut self) {
        self.0.active_lanes.fetch_sub(1, Ordering::Relaxed);
        self.0.signal.notify();
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
    /// it). A pump announces an improvement by shipping these strings,
    /// never the bare weight: a weight whose witness exists only in this
    /// process dies with it, and a race that was steered below a lost
    /// witness ends floor-met but artifact-less.
    pub best: Arc<Mutex<Option<(BestEncoding, String)>>>,
}

/// [`compile`] with a cross-process bridge attached: `on_start` receives
/// the race's [`RaceBridge`] after the shared state exists but before any
/// lane runs. The shard worker uses this to pump clauses and bounds
/// between its race and the coordinator; see `fermihedral-shard`. A race
/// decided at its opening runs no lane; `on_start` then receives, once the
/// compilation is over, handles that already hold its incumbent and floor.
///
/// Caching is intentionally absent here — the *coordinator* owns the
/// cache in a sharded run (workers of one race would all probe and store
/// the same fingerprint).
pub fn compile_bridged(
    problem: &EncodingProblem,
    config: &EngineConfig,
    on_start: impl FnOnce(RaceBridge) + Send,
) -> EngineOutcome {
    let hook = std::cell::Cell::new(Some(on_start));
    let race = |input: &RaceInput| {
        let hook = hook
            .take()
            .map(|f| Box::new(f) as Box<dyn FnOnce(RaceBridge) + Send>);
        race_lanes(input, None, hook)
    };
    let outcome = compile_cached(problem, config, None, "engine.race", race);
    if let Some(hook) = hook.take() {
        // Decided at the open: the race never ran.
        let decided = Incumbent::new(CancelToken::new(), 0, 1);
        let weight = outcome
            .weight()
            .expect("a race decided at open holds its answer");
        decided.bound.tighten(weight);
        decided.floor.store(weight, Ordering::Relaxed);
        *decided.best.lock().expect("a fresh race holds no lock") =
            outcome.best.clone().zip(outcome.report.winner.clone());
        decided.cancel.cancel();
        hook(decided.bridge(None));
    }
    outcome
}

/// Splits `strategies` round-robin across `shards` worker processes, so
/// lane diversity (seeds, restart schedules, the annealer) spreads instead
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
    /// The caller's settings: the total timeout is read from it (its
    /// `strategies` and `warm_hint` are superseded by the resolved fields
    /// below).
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
    /// Strongest floor the race accepts: a lane's or a shard's UNSAT
    /// certificate, or, for a race decided before it ran, the cache
    /// entry's or [`fermihedral::bound`]'s.
    pub floor: Option<Floor>,
    /// Per-lane timelines.
    pub workers: Vec<WorkerReport>,
    /// Per-shard bridge traffic; empty for an in-process race.
    pub shards: Vec<ShardReport>,
}

/// The cache-aware pipeline around *any* race — in-process lanes
/// ([`compile_with`]) or a sharded one over local or remote workers
/// (`fermihedral-shard`): probe the cache through its checked read
/// (same-size entry, caller hint, or cross-size lift → warm start), skip
/// `race` when a checked optimal entry or the bound at the opening
/// decides it (see the module docs), otherwise run `race` and keep the
/// warm start if the race never beat it, then store the winner back.
/// `root` names the span that covers it all.
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
    // Only the checked read may answer: an entry whose floor pins its
    // re-measured weight decides the race below; any other is a warm start.
    let mut cache_status = CacheStatus::Disabled;
    let mut warm_start: Option<CacheEntry> = None;
    let mut warm_source = ("cache-entry", None);
    if let Some(cache) = cache {
        warm_start = cache.checked(problem, &fp);
        cache_status = match &warm_start {
            None => CacheStatus::Miss,
            Some(entry) if entry.is_optimal() => CacheStatus::HitOptimal,
            Some(_) => CacheStatus::HitWarmStart,
        };
        cache.count(cache_status);
    }
    // A caller-supplied hint (the shard coordinator's broadcast) fills a
    // same-size miss; the exact entry above, when present, is at least as
    // good.
    if warm_start.is_none() {
        warm_start = config.warm_hint.as_deref().and_then(|strings| {
            Some(CacheEntry {
                weight: check_encoding(problem, strings)?,
                strings: strings.to_vec(),
                floor: None,
                strategy: "warm-hint".into(),
            })
        });
        warm_source = ("config", None);
    }
    // Cross-size transfer (ROADMAP warm-start item): on a same-size miss,
    // look for the largest cached smaller-mode solution of the same
    // problem family and lift it into this search. The lifted encoding is
    // a *feasible* solution, so seeding the shared bound with its weight
    // is sound.
    if let (None, Some(cache)) = (&warm_start, cache) {
        if let Some((entry, from_modes)) = cross_size_warm_start(cache, problem) {
            cache_status = CacheStatus::HitCrossSize;
            cache.count(cache_status);
            warm_source = ("cross-size", Some(from_modes));
            warm_start = Some(entry);
        }
    }
    let warm_report = (warm_start.as_ref())
        .filter(|_| cache_status != CacheStatus::HitOptimal)
        .map(|entry| WarmStartReport {
            source: warm_source.0.into(),
            from_modes: warm_source.1,
            weight: entry.weight,
        });

    // ---- Race ------------------------------------------------------------
    let strategies = if config.strategies.is_empty() {
        default_portfolio(problem)
    } else {
        config.strategies.clone()
    };
    let fp_hex = fp.to_hex();
    // A checked optimal entry, or the bound at the opening, decides the
    // race before any lane runs.
    let decided = match warm_start.as_ref().filter(|entry| entry.is_optimal()) {
        Some(entry) => Some(RaceOutcome {
            best: Some(cache_incumbent(entry.clone())),
            floor: entry.floor,
            ..RaceOutcome::default()
        }),
        None => decided_at_open(problem, warm_start.as_ref()),
    };
    let lanes = if decided.is_some() {
        0
    } else {
        strategies.len()
    };
    let mut outcome = decided.unwrap_or_else(|| {
        race(&RaceInput {
            problem,
            config,
            fingerprint: &fp_hex,
            strategies: &strategies,
            warm_start: warm_start.as_ref(),
            started,
        })
    });

    // ---- Collect ---------------------------------------------------------
    // A race that never beat the warm start keeps it — and may even have
    // proved it optimal: its weight opened the shared bound, so lanes that
    // all went UNSAT proved a floor *at* that weight. (In-process lanes
    // publish the warm start into their incumbent themselves; a sharded
    // race only ever sees its weight.)
    let lightest = outcome.best.as_ref().map_or(usize::MAX, |(b, _)| b.weight);
    if let Some(entry) = warm_start.filter(|entry| entry.weight < lightest) {
        outcome.best = Some(cache_incumbent(entry));
    }
    let (best, winner) = outcome.best.unzip();
    let floor = outcome.floor;
    let optimal_proved = floor
        .zip(best.as_ref())
        .is_some_and(|(floor, best)| floor.pins(best.weight));
    let floor_source = floor.map_or("none", |f| f.source.as_str());
    let shards = outcome.shards;
    let dead_shards = shards.iter().filter(|s| s.dead).count();

    if race_span.active() {
        race_span.attr("lanes", lanes as u64);
        if let Some(b) = &best {
            race_span.attr("weight", b.weight as u64);
        }
        if let Some(w) = &winner {
            race_span.attr("winner", w.as_str());
        }
        race_span.attr("optimal_proved", optimal_proved);
        race_span.attr("floor_source", floor_source);
        if !shards.is_empty() {
            race_span.attr("shards", shards.len() as u64);
            race_span.attr("dead_shards", dead_shards as u64);
        }
    }
    telemetry::log_info!(
        root,
        "race finished",
        lanes = lanes,
        weight = best.as_ref().map(|b| b.weight as u64).unwrap_or(0),
        winner = winner.clone().unwrap_or_default(),
        optimal = optimal_proved,
        floor = floor.map_or(0, |f| f.value),
        floor_source = floor_source,
        dead_shards = dead_shards,
        elapsed_ms = started.elapsed().as_millis() as u64,
    );
    drop(race_span);
    telemetry::flush();

    // An optimal hit is already stored as well as it can be.
    let store = cache.filter(|_| cache_status != CacheStatus::HitOptimal);
    if let (Some(cache), Some(best)) = (store, &best) {
        let entry = CacheEntry {
            strings: best.strings.clone(),
            weight: best.weight,
            floor,
            strategy: winner.clone().unwrap_or_default(),
        };
        // Cache write failure must not fail the compilation.
        let _ = cache.store_if_better(&fp, &entry);
    }

    EngineOutcome {
        best,
        floor,
        optimal_proved,
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
    // peers and gets no context, unless a cross-process bridge is
    // attached, in which case even a single lane has remote peers to
    // trade with.
    let descent_lanes = strategies
        .iter()
        .filter(|s| matches!(s, Strategy::SatDescent { .. }))
        .count();
    let mut remote_exchange = None;
    let exchange = if bridge_hook.is_some() {
        (descent_lanes >= 1).then(|| {
            let (ctx, remote) =
                SharedContext::with_bridge(descent_lanes, ExchangeConfig::default());
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
        (descent_lanes >= 2).then(|| SharedContext::new(descent_lanes, ExchangeConfig::default()))
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
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let deadline = config.total_timeout.and_then(|t| started.checked_add(t));
    // The warm incumbent always seeds the shared bound (a feasible
    // solution is a sound upper bound), but its *strings* only displace
    // the lanes' Bravyi-Kitaev phase hint when they open strictly below
    // the BK bound — at small mode counts BK is itself near-optimal, and
    // swapping its phases for a heavier embedded encoding measurably
    // slows the descent. The constructions below seed the bound but never
    // the hint, although for the Hamiltonian-independent weight the
    // ternary tree opens below BK at N = 2 and N ≥ 4: a hint only steers a
    // lane toward its next model, and where the tree is the optimum
    // (N ≤ 5) the bound decides the race before any lane runs.
    let warm_hint_strings = (input.warm_start)
        .filter(|e| e.weight < bravyi_kitaev_bound(problem))
        .map(|e| e.strings.clone());

    if let Some(hook) = bridge_hook {
        hook(incumbent.bridge(remote_exchange));
    }

    // The race opens at the warm start and the classical constructions.
    // They are instant, and everything after them depends on what they
    // publish — a descent lane's first bound, whether the annealer finds an
    // incumbent to adopt — so they are published before any lane thread
    // exists.
    for (encoding, name) in openings(problem, input.warm_start) {
        incumbent.publish(encoding, &name);
    }

    let slots = &incumbent.signal;
    let run_lane = |strategy: &Strategy, lane_handle: Option<LaneHandle>| -> WorkerReport {
        let mut lane_span = telemetry::span("engine.lane");
        let exit = LaneExit(&incumbent);
        let report = match strategy {
            Strategy::SatDescent {
                seed,
                random_branch,
                bk_phase_hint,
                restart,
                export_lbd,
            } => {
                if !slots.acquire(&incumbent.cancel) {
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
            Strategy::Anneal { schedule } => run_anneal_lane(
                problem,
                schedule.clone(),
                &incumbent,
                deadline,
                started,
                strategy.name(),
            ),
        };
        drop(exit);
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

    let workers = std::thread::scope(|scope| {
        // The total timeout: a waiter sleeps on the race signal until the
        // race is decided, its last lane exits, or the deadline passes,
        // and then raises the cancel flag — which stops even lanes that
        // check nothing else, and changes nothing if the race is over.
        // It is spawned ahead of the lanes on purpose: on a two-core host
        // that start-up order staggers the first two descent lanes, and
        // lanes started in lockstep cost `race_n4` ~20% more conflicts
        // and CPU (lane 1's first exports slow lane 0's certificate).
        if let Some(deadline) = deadline {
            let incumbent = &incumbent;
            scope.spawn(move || {
                incumbent.signal.wait_until(Some(deadline), |_| {
                    incumbent.cancel.is_cancelled() || incumbent.lanes_done()
                });
                incumbent.abort();
            });
        }
        let run_lane = &run_lane;
        let handles: Vec<_> = (strategies.iter().zip(lane_handles))
            .map(|(strategy, lane_handle)| scope.spawn(move || run_lane(strategy, lane_handle)))
            .collect();
        let workers = (handles.into_iter())
            .map(|handle| handle.join().expect("worker panicked"))
            .collect();
        // Raised whatever ended the race: bridge holders read it as over.
        incumbent.cancel.cancel();
        workers
    });

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
/// warm hint, a shard's `Incumbent` frame. Only the right
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

/// What every race opens at, in publishing order: the checked warm start,
/// then each classical construction that satisfies the problem — the
/// vacuum-paired ternary tree, then Bravyi-Kitaev. Publishing keeps the
/// lightest, and a tie keeps the first.
fn openings(
    problem: &EncodingProblem,
    warm_start: Option<&CacheEntry>,
) -> Vec<(BestEncoding, String)> {
    let mut openings: Vec<(BestEncoding, String)> = warm_start
        .cloned()
        .map(cache_incumbent)
        .into_iter()
        .collect();
    let n = problem.num_modes();
    let constructions: [(&str, &dyn Encoding); 2] = [
        ("baseline[ternary-tree]", &TernaryTreeEncoding::new(n)),
        ("baseline[bravyi-kitaev]", &LinearEncoding::bravyi_kitaev(n)),
    ];
    for (name, construction) in constructions {
        let strings = construction.majoranas();
        if satisfies_problem(problem, &strings) {
            let weight = measure(problem, &strings);
            let strings = plain_strings(&strings);
            openings.push((BestEncoding { strings, weight }, name.to_string()));
        }
    }
    openings
}

/// The largest `N` at which [`decided_at_open`] searches a
/// `MajoranaWeight` problem. The search proves the floor in 1.5 ms at
/// `N = 5` and would in 14 ms at `N = 6`, but the compilation server's
/// tests use the `N = 6` Hamiltonian-independent race as their slow,
/// deadline-bound problem; deciding it at the open would leave them
/// nothing slow to race. The search is not cancellable either, and at
/// `N = 7` (0.24 s) and `N = 8` (38 s) it would outlast short deadlines.
const MAX_DECIDED_MAJORANA_MODES: usize = 5;

/// The largest `N` at which [`decided_at_open`] searches a
/// `HamiltonianWeight` problem. At `N = 3` the exact search takes 0.1 ms
/// in the median and under 1 ms at most over the 455 three-pair
/// Hamiltonians; at `N = 4` it takes 0.19 s on the 2-site Hubbard model
/// and 2.6 s on H₂ (one core, release build), and it is not cancellable.
const MAX_DECIDED_HAMILTONIAN_MODES: usize = 3;

/// The race [`compile_cached`] need not run. At `N ≤`
/// [`MAX_DECIDED_MAJORANA_MODES`] for the Hamiltonian-independent weight
/// and `N ≤` [`MAX_DECIDED_HAMILTONIAN_MODES`] for the Hamiltonian-
/// dependent one, `fermihedral::bound` searches below the lightest
/// opening. When it finds nothing, the opening is optimal; when its
/// witness passes [`check_encoding`] at the search's floor, the witness is
/// optimal and the incumbent is named `bound`. Either way the floor is the
/// search's and the race is decided before any lane starts. A witness that
/// fails the check (a `MajoranaWeight` set that misses the vacuum
/// condition) leaves the race to run.
fn decided_at_open(
    problem: &EncodingProblem,
    warm_start: Option<&CacheEntry>,
) -> Option<RaceOutcome> {
    let limit = match problem.objective() {
        Objective::MajoranaWeight => MAX_DECIDED_MAJORANA_MODES,
        Objective::HamiltonianWeight(_) => MAX_DECIDED_HAMILTONIAN_MODES,
    };
    if problem.num_modes() > limit {
        return None;
    }
    let opening = openings(problem, warm_start)
        .into_iter()
        .reduce(|first, next| {
            if next.0.weight < first.0.weight {
                next
            } else {
                first
            }
        })?;
    let outcome = bound::search(problem, opening.0.weight);
    let best = match outcome.witness {
        None => opening,
        Some(strings) => {
            let weight = check_encoding(problem, &strings).filter(|&w| w == outcome.floor)?;
            (BestEncoding { strings, weight }, "bound".to_string())
        }
    };
    let floor = Floor {
        value: outcome.floor,
        source: FloorSource::Bound,
    };
    trace_floor(floor);
    Some(RaceOutcome {
        best: Some(best),
        floor: Some(floor),
        ..RaceOutcome::default()
    })
}

/// Marks a proved floor on the trace timeline.
fn trace_floor(floor: Floor) {
    if telemetry::global().is_enabled() {
        telemetry::instant(
            "engine.floor",
            vec![
                telemetry::attr("floor", floor.value as u64),
                telemetry::attr("floor_source", floor.source.as_str()),
            ],
        );
    }
}

/// A cache entry's encoding, as the incumbent it stands for.
fn cache_incumbent(entry: CacheEntry) -> (BestEncoding, String) {
    let name = format!("cache[{}]", entry.strategy);
    let encoding = BestEncoding {
        strings: entry.strings,
        weight: entry.weight,
    };
    (encoding, name)
}

/// Objective-aware weight of an encoding whose strings all share one
/// width (what [`check_encoding`] verifies for foreign input).
pub fn measure_weight(problem: &EncodingProblem, strings: &[PauliString]) -> usize {
    let phased: Vec<PhasedString> = strings.iter().cloned().map(PhasedString::from).collect();
    measure(problem, &phased)
}

/// Probes the cache ([`SizeIndex`]) for the largest cached `M < N`
/// solution of the problem's family and lifts it to `N` modes. Entries
/// evicted since the probe, failed lifts, and lifted encodings that
/// violate the problem's constraints are all skipped — the next-smaller
/// size gets its chance. Returns the lifted entry (weight re-measured
/// under the problem's objective, never marked optimal) and the source
/// mode count.
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
            continue; // evicted or torn since it was listed
        };
        let Ok(lifted) = embed_to(&entry.strings, problem.num_modes()) else {
            continue; // torn or foreign entry: not a valid encoding
        };
        let Some(weight) = check_encoding(problem, &lifted) else {
            continue;
        };
        return Some((
            CacheEntry {
                strings: lifted,
                weight,
                // The *embedded* encoding is feasible, with no floor: the
                // larger problem usually admits lighter solutions.
                floor: None,
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
            // With no conflict budget set, a call answers "unknown" only
            // when the race's total timeout ran out mid-call: the same
            // stop the deadline waiter's cancel delivers.
            StepResult::BudgetExceeded | StepResult::Cancelled => EventKind::Cancelled,
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

/// Waits on the race signal for an encoding strictly better than
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
    let mut better = None;
    // A deadline of now tests once.
    let deadline = deadline.unwrap_or_else(Instant::now);
    incumbent.signal.wait_until(Some(deadline), |_| {
        if incumbent.cancel.is_cancelled() {
            return true;
        }
        // Cheap atomic pre-check before cloning the encoding.
        if incumbent.bound.get() < my_best {
            if let (Some((best, _)), _) = incumbent.snapshot() {
                if best.weight < my_best {
                    better = Some((best.strings, best.weight));
                    return true;
                }
            }
        }
        // Only this lane is left — nothing to wait for.
        incumbent.active_lanes.load(Ordering::Relaxed) <= 1
    });
    better
}

fn run_anneal_lane(
    problem: &EncodingProblem,
    mut schedule: AnnealConfig,
    incumbent: &Incumbent,
    deadline: Option<Instant>,
    engine_start: Instant,
    name: String,
) -> WorkerReport {
    let slots = &incumbent.signal;
    // Pair permutation cannot change the summed Majorana weight, so under
    // that objective the opening Bravyi-Kitaev is all the lane could
    // publish: it exits at once, without a heavy slot.
    let Objective::HamiltonianWeight(monomials) = problem.objective() else {
        return WorkerReport {
            events: Vec::new(),
            cancelled: false,
            ..skipped_lane(name, engine_start)
        };
    };
    if !slots.acquire(&incumbent.cancel) {
        return skipped_lane(name, engine_start);
    }
    let started_at = engine_start.elapsed();
    let mut events = Vec::new();
    let mut final_weight: Option<usize> = None;
    let mut cancelled = false;
    schedule.cancel = Some(incumbent.cancel.clone());

    let base = LinearEncoding::bravyi_kitaev(problem.num_modes()).majoranas();
    let base = MajoranaEncoding::new("bk", base).expect("Bravyi-Kitaev is well-formed");
    let mut next =
        satisfies_problem(problem, &base.majoranas()).then_some((base, /* reseeded: */ false));
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
        let incumbent = Incumbent::new(CancelToken::new(), 1, 1);
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
