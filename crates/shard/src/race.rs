//! The sharded race: one coordinator loop over a [`Link`].
//!
//! Everything a race *decides* lives here, once, whatever carries the
//! frames — which seat races which lanes, what a new or returning peer
//! is told, where a clause goes, when the race is decided, who is dead,
//! and what the shards' results add up to.
//!
//! # Echo-free clause forwarding
//!
//! A clause arriving from shard `s` is forwarded to every *other* racing
//! shard, never back to `s` ([`RemoteClause::shard`] is overwritten with
//! the observed sender, so even a confused worker cannot loop its own
//! clauses). Inside each worker the injected clause lands with the bridge
//! lane as its `source`, which the bridge never drains back out — the
//! two halves of the no-echo guarantee. The last [`CLAUSE_DIGEST`]
//! forwarded clauses are kept and replayed (minus its own) to every seat
//! armed later: a slow starter, a late joiner, a rejoin.
//!
//! # Certification across processes
//!
//! An UNSAT certificate is a property of the shared formula, so a
//! `Floor(f)` from any shard bounds every shard. A shard's encoding
//! arrives only as an `Incumbent` frame, and is checked and re-measured
//! on arrival; the lightest checked one is the race's witness, and every
//! `Bound` the loop forwards is the weight of a witness it holds (or of
//! the warm start). No shard can steer the race below a weight nobody
//! can show, so a finder that dies after announcing leaves its encoding
//! behind. The loop merges floors (max) and checked weights (min); the
//! moment they meet, the race is decided and every shard still racing
//! gets `Cancel`. A `Result` carries only the shard's lane timelines.
//!
//! # Crash containment and post-mortems
//!
//! A shard that goes away without a `Result` before `Cancel` (for good:
//! at once on a link that cannot rejoin, after [`Link::patience`] on one
//! that can), falls silent, breaks protocol, or ships an encoding that
//! fails the check is marked **dead** in its [`ShardReport`] and the
//! race degrades to the survivors. Workers ship their flight-recorder
//! ring in `BlackBox` frames (latest wins); for every dead seat the last
//! ring, the coordinator's own job for the seat, the wire counters and
//! the exit status (when the link learns one) are folded into
//! `<dir>/postmortem-<shard>.json` — the corpse's own last words.

use crate::link::{Event, Link, Sent};
use crate::proto::{IncumbentUpdate, Job, ShardResult};
use crate::wire::{Frame, RemoteClause, PROTOCOL_VERSION};
use engine::{
    check_encoding, partition_strategies, Floor, FloorSource, RaceInput, RaceOutcome, ShardReport,
    Strategy, WorkerReport,
};
use fermihedral::descent::BestEncoding;
use jsonkit::{obj, Value};
use sat::CancelToken;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::mpsc::RecvTimeoutError;
use std::time::{Duration, Instant};
use telemetry::Level;

/// Extra wall-clock past the configured timeout before the coordinator
/// broadcasts `Cancel` itself (workers enforce the timeout first).
const CANCEL_GRACE: Duration = Duration::from_millis(500);

/// Extra wall-clock past the cancel broadcast before shards that ignored
/// it are cut off and the race closes on whatever reports exist.
const KILL_GRACE: Duration = Duration::from_secs(5);

/// How long one [`Link::poll`] may wait: the cadence of the deadline and
/// liveness checks while the link is quiet.
const POLL: Duration = Duration::from_millis(20);

/// How many recently forwarded clauses are kept for replay to seats
/// armed later.
pub const CLAUSE_DIGEST: usize = 512;

/// One shard id's part in the race, whichever connections carried it.
#[derive(Default)]
struct Seat {
    report: ShardReport,
    /// The seat's assignment; `Some` once it takes part in this race.
    job: Option<Job>,
    /// The job was sent down the seat's current connection.
    armed: bool,
    result: Option<ShardResult>,
    /// Latest `BlackBox` payload — each shipment replaces the last, so a
    /// death always leaves the freshest ring behind.
    black_box: Option<Vec<u8>>,
    /// Exit status, when the link owns the peer and reaped it.
    exit_status: Option<String>,
    /// Mid-race disconnect time; cleared on rejoin, promoted to `dead`
    /// once the link's patience runs out without one.
    missing_since: Option<Instant>,
    /// A late joiner took over this dead seat's lanes.
    orphan_claimed: bool,
    /// Disconnected during post-cancel wind-down: resultless by design,
    /// not a death — and no longer gating the race's completion.
    wound_down: bool,
}

impl Seat {
    fn new(shard: usize) -> Seat {
        let mut seat = Seat::default();
        seat.report.shard = shard;
        seat
    }

    /// Accounted seats no longer gate the race's completion.
    fn accounted(&self) -> bool {
        self.result.is_some() || self.report.dead || self.job.is_none() || self.wound_down
    }

    /// Worth forwarding race traffic to.
    fn racing(&self) -> bool {
        self.armed && !self.accounted()
    }
}

struct Race<'a> {
    link: &'a mut dyn Link,
    input: &'a RaceInput<'a>,
    seats: Vec<Seat>,
    /// Lane partition over the mustered shards; late joiners with no
    /// orphan to inherit take `parts[shard % parts.len()]`.
    parts: Vec<Vec<Strategy>>,
    /// Lightest checked weight off a current connection (or the warm
    /// start's); strictly better ones are forwarded to peers as `Bound`.
    best_bound: usize,
    /// Every shard's floor claim; only those a known-feasible weight does
    /// not contradict are trusted ([`accepted_floor`]).
    floor_claims: Vec<usize>,
    /// Lightest checked `Incumbent`, with the lane that found it — the
    /// race's witness, which survives its finder's death.
    best: Option<(BestEncoding, String)>,
    cancel_sent_at: Option<Instant>,
    digest: VecDeque<RemoteClause>,
}

/// Races `input.strategies` across the shards of `link` and merges what
/// they report. `external_cancel` ends the race early with best-so-far;
/// post-mortem bundles for dead seats go to `postmortem_dir`, or to
/// `FERMIHEDRAL_POSTMORTEM_DIR` when that is `None`.
///
/// A race that loses every shard returns no encoding and only dead
/// seats; [`run_or_race_in_process`] is the form that contains that.
pub fn run(
    link: &mut dyn Link,
    input: &RaceInput,
    external_cancel: Option<&CancelToken>,
    postmortem_dir: Option<&Path>,
) -> RaceOutcome {
    let muster = link.muster();
    let parts = partition_strategies(input.strategies, muster.len());
    if muster.is_empty() || parts.is_empty() {
        telemetry::log_warn!("shard.race", "no shards to race on");
        return RaceOutcome::default();
    }
    telemetry::log_info!(
        "shard.race",
        "race started",
        shards = muster.len(),
        modes = input.problem.num_modes(),
        lanes = input.strategies.len(),
        fingerprint = input.fingerprint,
    );
    let seats = muster.iter().max().map_or(0, |&top| top + 1);
    let mut race = Race {
        link,
        input,
        seats: (0..seats).map(Seat::new).collect(),
        parts,
        best_bound: input.warm_start.map_or(usize::MAX, |e| e.weight),
        floor_claims: Vec::new(),
        best: None,
        cancel_sent_at: None,
        digest: VecDeque::new(),
    };
    for (k, &shard) in muster.iter().enumerate() {
        let lanes = race.parts[k % race.parts.len()].clone();
        race.assign(shard, lanes);
    }
    race.run(external_cancel);
    race.write_postmortems(postmortem_dir);

    let seats = race.seats.into_iter().filter(|s| s.job.is_some());
    let initial_bound = input.warm_start.map(|e| e.weight);
    let claims = &race.floor_claims;
    merge_results(initial_bound, claims, race.best, seats)
}

/// [`run`] with total-loss containment: when every shard died (or none
/// could be started) before reporting anything, the user asked for a
/// compilation, not an obituary — race in-process instead, keeping the
/// dead-shard forensics in the report.
pub fn run_or_race_in_process(
    link: &mut dyn Link,
    input: &RaceInput,
    external_cancel: Option<&CancelToken>,
    postmortem_dir: Option<&Path>,
) -> RaceOutcome {
    let outcome = run(link, input, external_cancel, postmortem_dir);
    if outcome.best.is_some() || !outcome.shards.iter().all(|s| s.dead) {
        return outcome;
    }
    telemetry::log_warn!(
        "shard.race",
        "no shard survived; racing in-process instead",
        shards = outcome.shards.len(),
    );
    RaceOutcome {
        shards: outcome.shards,
        ..engine::race_lanes(input, external_cancel, None)
    }
}

impl Race<'_> {
    /// Gives `shard` its lanes. The one `Job` constructor.
    fn assign(&mut self, shard: usize, lanes: Vec<Strategy>) {
        let fingerprint = self.input.fingerprint.to_string();
        let total_shards = self.seats.len();
        let seat = &mut self.seats[shard];
        seat.report.lanes = lanes.len();
        seat.job = Some(Job {
            shard,
            total_shards,
            // Recording on in this process → ask workers to record too,
            // under the run's fingerprint as the context id.
            trace_id: telemetry::global()
                .is_enabled()
                .then(|| fingerprint.clone()),
            fingerprint,
            problem: self.input.problem.clone(),
            strategies: lanes,
            total_timeout: self.input.config.total_timeout,
            warm_hint: self.input.warm_start.map(|e| e.strings.clone()),
        });
    }

    /// Queues `frame` for `shard`, counting a shed frame against the seat.
    fn send(&mut self, shard: usize, frame: &Frame) -> bool {
        let sent = self.link.send(shard, frame);
        if sent == Sent::Full {
            self.seats[shard].report.frames_dropped += 1;
        }
        sent == Sent::Queued
    }

    /// Forwards `frame` to every racing seat but its sender; returns who
    /// got it.
    fn forward(&mut self, from: usize, frame: &Frame) -> Vec<usize> {
        (0..self.seats.len())
            .filter(|&to| to != from && self.seats[to].racing() && self.send(to, frame))
            .collect()
    }

    /// Arms a seat: its job, the current bound, and the digest minus its
    /// own clauses, in that order. The same for the starting line-up,
    /// late joiners and rejoins.
    fn arm(&mut self, shard: usize) {
        let job = self.seats[shard].job.as_ref().expect("assigned before");
        let job = Frame::Job(job.to_bytes());
        self.send(shard, &job);
        self.seats[shard].armed = true;
        if self.best_bound != usize::MAX {
            self.send(shard, &Frame::Bound(self.best_bound as u64));
        }
        for i in 0..self.digest.len() {
            if self.digest[i].shard as usize != shard {
                let clause = Frame::Clause(self.digest[i].clone());
                self.send(shard, &clause);
            }
        }
    }

    /// A peer took (or took back) `shard`.
    fn join(&mut self, shard: usize, rejoin: bool) {
        while self.seats.len() <= shard {
            self.seats.push(Seat::new(self.seats.len()));
        }
        let seat = &mut self.seats[shard];
        seat.missing_since = None;
        if rejoin {
            seat.report.rejoins += 1;
            seat.report.dead = false;
        } else if seat.armed {
            return; // a repeated greeting on a live connection
        }
        if seat.result.is_some() {
            return; // already contributed; idle until the next race
        }
        if self.cancel_sent_at.is_some() {
            // The race is winding down: don't arm a seat nobody will
            // wait for — and don't let it gate completion either.
            self.send(shard, &Frame::Cancel);
            self.seats[shard].wound_down = true;
            return;
        }
        seat.wound_down = false;
        // A returning seat keeps its lanes (re-sent — the worker's local
        // race died with the connection). A newcomer inherits a dead
        // seat's orphaned lanes when there are any.
        if seat.job.is_none() {
            let orphan = self.seats.iter().position(|s| {
                s.report.dead && !s.orphan_claimed && s.result.is_none() && s.job.is_some()
            });
            let lanes = match orphan {
                Some(orphan) => {
                    self.seats[orphan].orphan_claimed = true;
                    let job = self.seats[orphan].job.as_ref().expect("checked above");
                    job.strategies.clone()
                }
                None => self.parts[shard % self.parts.len()].clone(),
            };
            self.assign(shard, lanes);
        }
        telemetry::log_info!(
            "shard.race",
            "arming worker",
            shard = shard,
            rejoin = rejoin,
            lanes = self.seats[shard].report.lanes,
            digest_replay = self.digest.len(),
        );
        self.arm(shard);
    }

    /// Declares `shard` dead — the race degrades to the survivors — and
    /// cuts off whatever of it is still connected.
    fn bury(&mut self, shard: usize, level: Level, why: &str) {
        telemetry::log_event!(level, "shard.race", why, shard = shard);
        self.seats[shard].report.dead = true;
        self.link.disconnect(shard);
    }

    /// The race is decided (or out of time): tell every shard that still
    /// owes a result. Once.
    fn cancel(&mut self) {
        if self.cancel_sent_at.is_some() {
            return;
        }
        for shard in 0..self.seats.len() {
            if self.seats[shard].result.is_none() {
                self.send(shard, &Frame::Cancel);
            }
        }
        self.cancel_sent_at = Some(Instant::now());
    }

    /// The accepted floor pins the race's bound: decided.
    fn cancel_if_decided(&mut self) {
        let floor = accepted_floor(&self.floor_claims, self.best_bound);
        if floor.is_some_and(|floor| floor.pins(self.best_bound)) {
            self.cancel();
        }
    }

    fn run(&mut self, external_cancel: Option<&CancelToken>) {
        // Time from a frame's arrival off the wire to this loop picking
        // it up — the bridge's own forwarding latency.
        let forward_latency = telemetry::global().metrics().histogram(
            "bridge_forward_latency",
            &[50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 50_000],
        );
        while !self.seats.iter().all(Seat::accounted) {
            let now = Instant::now();
            let deadline = (self.input.config.total_timeout).map(|t| self.input.started + t);
            if deadline.is_some_and(|d| now >= d + CANCEL_GRACE)
                || external_cancel.is_some_and(CancelToken::is_cancelled)
            {
                self.cancel();
            }
            if self.cancel_sent_at.is_some_and(|at| now >= at + KILL_GRACE) {
                // Shards that ignored Cancel long past grace: cut them
                // off and close the race on whatever reports exist.
                for shard in 0..self.seats.len() {
                    if !self.seats[shard].accounted() {
                        self.bury(shard, Level::Warn, "worker ignored Cancel; cutting it off");
                    }
                }
                break;
            }
            self.check_liveness(now);

            match self.link.poll(POLL) {
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
                Ok(Event::Joined { shard, rejoin }) => self.join(shard, rejoin),
                Ok(Event::Gone { shard, generation }) => {
                    if shard < self.seats.len() && generation == self.link.generation(shard) {
                        self.gone(shard);
                    }
                }
                Ok(Event::Frame {
                    shard,
                    generation,
                    frame,
                    at,
                }) => {
                    forward_latency.record(at.elapsed());
                    if shard >= self.seats.len() {
                        continue;
                    }
                    let current = generation == self.link.generation(shard);
                    self.frame(shard, frame, current);
                }
            }
        }

        // The race is over: let every peer go, and settle the verdicts
        // `gone` deferred to the exit status.
        for shard in 0..self.seats.len() {
            let Some(exit) = self.link.close(shard) else {
                continue;
            };
            let seat = &mut self.seats[shard];
            // No result and not a clean exit 0: the worker died (was
            // signalled, crashed, or had to be killed), whenever that
            // happened relative to the Cancel broadcast.
            if seat.result.is_none() && !exit.clean {
                seat.report.dead = true;
            }
            seat.exit_status = Some(exit.status);
        }
    }

    /// Silence and reconnect windows, on links that keep those clocks.
    fn check_liveness(&mut self, now: Instant) {
        let Some(patience) = self.link.patience() else {
            return;
        };
        for shard in 0..self.seats.len() {
            if self.seats[shard].accounted() {
                continue;
            }
            if let Some(silence) = self.link.silence(shard) {
                telemetry::global()
                    .metrics()
                    .gauge(&format!("fleet_heartbeat_lag_ms{{shard=\"{shard}\"}}"))
                    .set(silence.as_millis() as i64);
                if silence > patience {
                    let why = format!("worker silent for {silence:?}; degrading to survivors");
                    self.bury(shard, Level::Warn, &why);
                }
            } else if self.seats[shard]
                .missing_since
                .is_some_and(|since| now >= since + patience)
            {
                self.bury(
                    shard,
                    Level::Warn,
                    "worker never rejoined; degrading to survivors",
                );
            }
        }
    }

    /// `shard`'s current connection ended.
    fn gone(&mut self, shard: usize) {
        let seat = &mut self.seats[shard];
        seat.armed = false;
        if seat.accounted() {
            return;
        }
        if self.cancel_sent_at.is_some() {
            // Post-cancel wind-down: a worker with nothing to report
            // hangs up resultless by design. Not a death — unless the
            // link later reports an unclean exit — and no longer gating
            // completion.
            seat.wound_down = true;
        } else if let Some(window) = self.link.patience() {
            telemetry::log_warn!(
                "shard.race",
                "worker connection lost mid-race; holding its seat",
                shard = shard,
                window_ms = window.as_millis() as u64,
            );
            seat.missing_since = Some(Instant::now());
        } else {
            self.bury(
                shard,
                Level::Warn,
                "worker died mid-race; degrading to survivors",
            );
        }
    }

    /// One frame from `shard`; `current` unless a rejoin has superseded
    /// the connection it came off.
    fn frame(&mut self, shard: usize, frame: Frame, current: bool) {
        match frame {
            // A dying connection's last incumbent is still a race-global
            // fact (checked on its own evidence) — keep it; everything
            // else from a stale connection drops.
            Frame::Incumbent(payload) => self.record_incumbent(shard, &payload, current),
            _ if !current => {}
            Frame::Clause(RemoteClause { clause, .. }) => {
                self.seats[shard].report.clauses_sent += 1;
                // After Cancel, workers stop reading; the race is
                // decided — drop wind-down traffic instead of queueing it.
                if self.cancel_sent_at.is_some() {
                    return;
                }
                let remote = RemoteClause {
                    shard: shard as u32, // trust the connection, not the tag
                    clause,
                };
                self.digest.push_back(remote.clone());
                if self.digest.len() > CLAUSE_DIGEST {
                    self.digest.pop_front();
                }
                for target in self.forward(shard, &Frame::Clause(remote)) {
                    self.seats[target].report.clauses_received += 1;
                }
            }
            Frame::Floor(floor) => {
                self.floor_claims.push(floor as usize);
                self.cancel_if_decided();
            }
            Frame::Result(payload) => match ShardResult::from_bytes(&payload) {
                Ok(result) => self.seats[shard].result = Some(result),
                Err(e) => {
                    let why = format!("worker sent a bad result ({e}); marking it dead");
                    self.bury(shard, Level::Error, &why);
                }
            },
            Frame::Trace(payload) => {
                // Span batches are best-effort diagnostics: a torn batch
                // from a killed worker is logged and dropped, never
                // allowed to fail the race.
                let registry = telemetry::global();
                match std::str::from_utf8(&payload)
                    .map_err(|_| "not UTF-8".to_string())
                    .and_then(telemetry::chrome::TraceBatch::from_json)
                {
                    Ok(mut batch) => {
                        // Workers report their *cumulative* drop count;
                        // keep the latest per shard, don't sum.
                        registry
                            .metrics()
                            .gauge(&format!("trace_worker_dropped{{shard=\"{shard}\"}}"))
                            .set(batch.dropped as i64);
                        batch.shift_onto(registry.epoch_wall_us());
                        registry.inject(batch.events);
                    }
                    Err(e) => {
                        telemetry::log_warn!(
                            "shard.race",
                            "worker sent a bad trace batch; dropping it",
                            shard = shard,
                            error = e,
                        );
                    }
                }
            }
            // Always-on ring: keep only the latest — the whole ring
            // rides every shipment, so older payloads are subsets of it.
            Frame::BlackBox(payload) => self.seats[shard].black_box = Some(payload),
            // Coordinator-bound traffic only: the rest is not a worker's
            // to send (its `Hello` ended with the link's handshake, and a
            // weight without its witness steers nothing).
            Frame::Bound(_)
            | Frame::Hello { .. }
            | Frame::Welcome { .. }
            | Frame::Heartbeat { .. }
            | Frame::Job(_)
            | Frame::Cancel => {}
        }
    }

    /// The one place a shard's encoding enters the race. Checks and
    /// re-measures it before trusting anything: an encoding off the
    /// current connection that fails the check buries its seat; a stale
    /// connection's is only logged. A checked one becomes the race's
    /// witness when it is the lightest — a stale connection's too, since
    /// the witness outlives its finder. Only a current connection's also
    /// counts as a bound this shard sent, tightens the race's bound,
    /// reaches the other racing seats as `Bound`, and can decide the
    /// race.
    fn record_incumbent(&mut self, shard: usize, payload: &[u8], current: bool) {
        let checked = IncumbentUpdate::from_bytes(payload).and_then(|update| {
            let weight = check_encoding(self.input.problem, &update.strings)
                .ok_or("the encoding fails the problem's check")?;
            Ok((update, weight))
        });
        let (update, weight) = match checked {
            Ok(checked) => checked,
            Err(e) if current => {
                let why = format!("worker sent a bad incumbent ({e}); marking it dead");
                self.bury(shard, Level::Error, &why);
                return;
            }
            Err(e) => {
                telemetry::log_warn!(
                    "shard.race",
                    "stale connection sent a bad incumbent; dropping it",
                    shard = shard,
                    error = e,
                );
                return;
            }
        };
        if self.best.as_ref().is_none_or(|(b, _)| weight < b.weight) {
            telemetry::log_debug!(
                "shard.race",
                "incumbent recorded",
                shard = shard,
                weight = weight,
            );
            let winner = match update.winner {
                name if name.is_empty() => format!("shard-{shard}"),
                name => name,
            };
            let strings = update.strings;
            self.best = Some((BestEncoding { strings, weight }, winner));
        }
        if !current {
            return;
        }
        self.seats[shard].report.bounds_sent += 1;
        if weight < self.best_bound {
            self.best_bound = weight;
            if self.cancel_sent_at.is_none() {
                for target in self.forward(shard, &Frame::Bound(weight as u64)) {
                    self.seats[target].report.bounds_received += 1;
                }
            }
        }
        self.cancel_if_decided();
    }

    /// Writes `postmortem-<shard>.json` for every dead seat that had a
    /// job: enough to explain the corpse without reproducing the race.
    fn write_postmortems(&self, dir: Option<&Path>) {
        let dir = dir
            .map(PathBuf::from)
            .or_else(|| std::env::var_os("FERMIHEDRAL_POSTMORTEM_DIR").map(PathBuf::from));
        let Some(dir) = dir else {
            return;
        };
        if !self.seats.iter().any(|s| s.report.dead) {
            return;
        }
        if let Err(e) = std::fs::create_dir_all(&dir) {
            telemetry::log_error!(
                "shard.race",
                "creating post-mortem directory failed",
                dir = dir.display().to_string(),
                error = e.to_string(),
            );
            return;
        }
        for seat in &self.seats {
            if let (true, Some(job)) = (seat.report.dead, &seat.job) {
                write_postmortem_bundle(&dir, seat, job);
            }
        }
    }
}

/// The strongest UNSAT floor claim at or below `weight`, a known-feasible
/// weight. A claim above it says a real encoding is impossible — a
/// provable lie, so a corrupt worker can poison neither the cache nor the
/// caller. (A floor *equal* to the checked optimum is accepted on the
/// worker's word: an UNSAT proof cannot be cheaply re-checked, and workers
/// are this repository's own binary — the same trust extended to an
/// in-process thread. The defense here is against corruption and provable
/// lies, not a fully Byzantine peer.)
fn accepted_floor(claims: &[usize], weight: usize) -> Option<Floor> {
    let value = claims.iter().copied().filter(|&f| f <= weight).max()?;
    Some(Floor {
        value,
        source: FloorSource::Unsat,
    })
}

/// Merges the seats' results into one race outcome: the lightest
/// checked incumbent, every seat's lane timelines, and the floor accepted
/// against it — failing a checked incumbent, against the warm start.
fn merge_results(
    initial_bound: Option<usize>,
    floor_claims: &[usize],
    best: Option<(BestEncoding, String)>,
    seats: impl Iterator<Item = Seat>,
) -> RaceOutcome {
    let mut workers: Vec<WorkerReport> = Vec::new();
    let mut shards: Vec<ShardReport> = Vec::new();
    for seat in seats {
        let shard = seat.report.shard;
        let result = seat.result.unwrap_or_default();
        workers.extend(result.workers.into_iter().map(|mut lane| {
            lane.shard = Some(shard);
            lane
        }));
        shards.push(seat.report);
    }
    let reference = best.as_ref().map(|(b, _)| b.weight).or(initial_bound);
    let floor = reference.and_then(|r| accepted_floor(floor_claims, r));
    RaceOutcome {
        best,
        floor,
        workers,
        shards,
    }
}

/// Writes one `postmortem-<shard>.json` bundle: the seat's last
/// shipped flight-recorder ring (if any `BlackBox` made it over the
/// wire), the coordinator's own job for the seat, wire counters, and
/// exit status (`null` for a remote peer, whose exit status is
/// unknowable).
fn write_postmortem_bundle(dir: &Path, seat: &Seat, job: &Job) {
    let shard = seat.report.shard;
    // The ring is worker-reported; a torn payload from a mid-write kill
    // must not lose the coordinator-side context.
    let flight_recorder = seat
        .black_box
        .as_deref()
        .and_then(|bytes| std::str::from_utf8(bytes).ok())
        .and_then(|text| jsonkit::parse(text).ok())
        .unwrap_or(Value::Null);
    let count = |n: u64| Value::Num(n as f64);
    let bundle = obj([
        ("shard", Value::Num(shard as f64)),
        ("protocol", Value::Num(PROTOCOL_VERSION as f64)),
        (
            "exit_status",
            seat.exit_status.clone().map_or(Value::Null, Value::Str),
        ),
        (
            "job",
            obj([
                ("fingerprint", Value::Str(job.fingerprint.clone())),
                ("modes", Value::Num(job.problem.num_modes() as f64)),
                ("total_shards", Value::Num(job.total_shards as f64)),
                (
                    "lanes",
                    Value::Arr(
                        job.strategies
                            .iter()
                            .map(|s| Value::Str(s.name()))
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "wire",
            obj([
                ("clauses_sent", count(seat.report.clauses_sent)),
                ("clauses_received", count(seat.report.clauses_received)),
                ("bounds_sent", count(seat.report.bounds_sent)),
                ("bounds_received", count(seat.report.bounds_received)),
            ]),
        ),
        ("flight_recorder", flight_recorder),
    ]);
    let path = dir.join(format!("postmortem-{shard}.json"));
    match std::fs::write(&path, bundle.to_json()) {
        Ok(()) => {
            telemetry::log_warn!(
                "shard.race",
                "post-mortem written",
                shard = shard,
                path = path.display().to_string(),
                exit_status = seat.exit_status.as_deref().unwrap_or("remote"),
            );
        }
        Err(e) => {
            telemetry::log_error!(
                "shard.race",
                "writing post-mortem failed",
                shard = shard,
                path = path.display().to_string(),
                error = e.to_string(),
            );
        }
    }
}
