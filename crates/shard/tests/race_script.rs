//! Scripted in-memory races: the coordinator's logic, driven through the
//! [`Link`] seam by a fixed list of events. No process, no socket, no
//! clock — a race ends when its script does — so each case runs in
//! microseconds and fails the same way every time. The races are N = 2
//! (optimum 6), small enough to write the encodings by hand.

use engine::{
    default_portfolio, EngineConfig, Floor, FloorSource, RaceInput, RaceOutcome, WorkerReport,
};
use fermihedral::{EncodingProblem, Objective};
use pauli::PauliString;
use sat::{SharedClause, Var};
use shard::link::{Event, Link, PeerExit, Sent};
use shard::wire::{Frame, RemoteClause};
use shard::{IncumbentUpdate, Job, ShardResult};
use std::collections::VecDeque;
use std::sync::mpsc::RecvTimeoutError;
use std::time::{Duration, Instant};

/// A shard's UNSAT floor of `value`, as the race accepts it.
fn unsat(value: usize) -> Option<Floor> {
    Some(Floor {
        value,
        source: FloorSource::Unsat,
    })
}

/// The race's accepted floor meets its witness's weight.
fn optimal(outcome: &RaceOutcome) -> bool {
    let weight = outcome.best.as_ref().map(|(best, _)| best.weight);
    outcome
        .floor
        .zip(weight)
        .is_some_and(|(floor, weight)| floor.pins(weight))
}

/// A link that replays `script` and records what the race does to it.
#[derive(Default)]
struct ScriptLink {
    muster: Vec<usize>,
    script: VecDeque<Event>,
    /// `Some`: a link whose peers may rejoin (what TCP reports).
    patience: Option<Duration>,
    /// Current connection number per shard; a delivered rejoin bumps it.
    generations: Vec<u64>,
    /// What `close` reports per shard (a link that owns its peers).
    exits: Vec<Option<PeerExit>>,
    /// Every frame the race sent, in order.
    sent: Vec<(usize, Frame)>,
    disconnected: Vec<usize>,
}

impl ScriptLink {
    fn new(muster: &[usize], script: Vec<Event>) -> ScriptLink {
        ScriptLink {
            muster: muster.to_vec(),
            script: script.into(),
            generations: vec![0; 8],
            ..ScriptLink::default()
        }
    }

    /// Kinds of the frames sent to `shard`, in order.
    fn kinds_to(&self, shard: usize) -> Vec<&'static str> {
        let to_shard = self.sent.iter().filter(|(s, _)| *s == shard);
        to_shard.map(|(_, f)| f.kind()).collect()
    }
}

impl Link for ScriptLink {
    fn muster(&mut self) -> Vec<usize> {
        self.muster.clone()
    }

    fn poll(&mut self, _timeout: Duration) -> Result<Event, RecvTimeoutError> {
        let event = self.script.pop_front();
        if let Some(Event::Joined {
            shard,
            rejoin: true,
        }) = event
        {
            self.generations[shard] += 1;
        }
        event.ok_or(RecvTimeoutError::Disconnected)
    }

    fn send(&mut self, shard: usize, frame: &Frame) -> Sent {
        self.sent.push((shard, frame.clone()));
        Sent::Queued
    }

    fn disconnect(&mut self, shard: usize) {
        self.disconnected.push(shard);
    }

    fn generation(&self, shard: usize) -> u64 {
        self.generations[shard]
    }

    fn patience(&self) -> Option<Duration> {
        self.patience
    }

    fn close(&mut self, shard: usize) -> Option<PeerExit> {
        self.exits.get(shard).cloned().flatten()
    }
}

fn problem() -> EncodingProblem {
    EncodingProblem::full_sat(2, Objective::MajoranaWeight)
}

fn run(link: &mut ScriptLink) -> RaceOutcome {
    let problem = problem();
    let input = RaceInput {
        problem: &problem,
        config: &EngineConfig::default(),
        fingerprint: &engine::fingerprint(&problem).to_hex(),
        strategies: &default_portfolio(&problem),
        warm_start: None,
        started: Instant::now(),
    };
    shard::race::run(link, &input, None, None)
}

fn strings(text: [&str; 4]) -> Vec<PauliString> {
    text.iter()
        .map(|s| s.parse().expect("Pauli text"))
        .collect()
}

/// The N = 2 optimum (Jordan-Wigner), weight 6.
fn optimum() -> Vec<PauliString> {
    strings(["XI", "YI", "ZX", "ZY"])
}

/// A valid but heavier N = 2 encoding, weight 7.
fn heavier() -> Vec<PauliString> {
    strings(["XX", "YX", "ZX", "IY"])
}

#[test]
fn the_fixtures_are_what_they_claim() {
    assert_eq!(engine::check_encoding(&problem(), &optimum()), Some(6));
    assert_eq!(engine::check_encoding(&problem(), &heavier()), Some(7));
}

/// A frame off `shard`'s first connection.
fn frame(shard: usize, frame: Frame) -> Event {
    Event::Frame {
        shard,
        generation: 0,
        frame,
        at: Instant::now(),
    }
}

fn joined(shard: usize) -> Event {
    Event::Joined {
        shard,
        rejoin: false,
    }
}

fn rejoined(shard: usize) -> Event {
    Event::Joined {
        shard,
        rejoin: true,
    }
}

fn gone(shard: usize) -> Event {
    Event::Gone {
        shard,
        generation: 0,
    }
}

fn incumbent(strings: Vec<PauliString>) -> Frame {
    let update = IncumbentUpdate {
        strings,
        winner: "lane-x".into(),
    };
    Frame::Incumbent(update.to_bytes())
}

/// A terminal `Result` with no lane timelines.
fn done() -> Frame {
    Frame::Result(ShardResult::default().to_bytes())
}

/// `shard`'s last word, as a worker sends it: its encoding, its floor
/// (if it proved one), then its `Result`.
fn result(shard: usize, strings: Vec<PauliString>, proved_floor: Option<usize>) -> Vec<Event> {
    let mut events = vec![frame(shard, incumbent(strings))];
    events.extend(proved_floor.map(|f| frame(shard, Frame::Floor(f as u64))));
    events.push(frame(shard, done()));
    events
}

fn clause(tag: u32, var: usize) -> Frame {
    Frame::Clause(RemoteClause {
        shard: tag,
        clause: SharedClause {
            lits: vec![Var::new(var).lit(true)],
            lbd: 1,
            bound_tag: None,
            source: 0,
        },
    })
}

// ---- (a) the PR 9 incumbent-loss bug, as a fixed script ------------------

/// Shard 1 finds the optimum, announces it (a bare `Bound`, then the
/// `Incumbent` when `with_incumbent`), and dies before its `Result`;
/// shard 0 proves the floor but only ever held a heavier encoding. The
/// original numbers were 16 / 19 at N = 4; here 6 / 7 at N = 2.
fn incumbent_loss_script(with_incumbent: bool) -> Vec<Event> {
    let mut script = vec![joined(0), joined(1), frame(1, Frame::Bound(6))];
    if with_incumbent {
        script.push(frame(1, incumbent(optimum())));
    }
    script.extend([gone(1), frame(0, Frame::Floor(6))]);
    script.extend(result(0, heavier(), Some(6)));
    script
}

#[test]
fn an_incumbent_outlives_the_shard_that_found_it() {
    let mut link = ScriptLink::new(&[0, 1], incumbent_loss_script(true));
    let outcome = run(&mut link);
    let (best, winner) = outcome.best.as_ref().expect("the wire incumbent");
    assert_eq!((best.weight, winner.as_str()), (6, "lane-x"));
    assert_eq!(best.strings, optimum());
    assert_eq!(outcome.floor, unsat(6));
    assert!(optimal(&outcome));
    assert!(outcome.shards[1].dead, "a pipe-like link cannot rejoin");
    assert!(!outcome.shards[0].dead);
    // The floor met the bound: shard 0 was told to stop.
    assert_eq!(link.kinds_to(0), ["job", "bound", "cancel"]);
}

#[test]
fn a_bound_without_its_witness_steers_nothing() {
    let mut link = ScriptLink::new(&[0, 1], incumbent_loss_script(false));
    let outcome = run(&mut link);
    assert_eq!(outcome.best.as_ref().map(|(b, _)| b.weight), Some(7));
    assert_eq!(outcome.floor, unsat(6));
    assert!(!optimal(&outcome), "a bound nobody can witness");
    assert!(
        !link.sent.contains(&(0, Frame::Bound(6))),
        "a worker's bare Bound is never forwarded"
    );
    assert_eq!(outcome.shards[1].bounds_sent, 0, "nor counted");
}

// ---- (b) superseded generations ------------------------------------------

#[test]
fn a_stale_generation_is_dropped_but_its_incumbent_is_kept() {
    let mut link = ScriptLink::new(
        &[0, 1],
        vec![
            joined(0),
            joined(1),
            gone(1),
            rejoined(1),
            // Stragglers from shard 1's first connection:
            frame(1, Frame::Bound(6)),
            frame(1, incumbent(optimum())),
            frame(1, Frame::Floor(6)),
            gone(1),
        ]
        .into_iter()
        .chain(result(0, heavier(), Some(6)))
        .collect(),
    );
    link.patience = Some(Duration::from_secs(3600));
    let outcome = run(&mut link);
    assert_eq!(outcome.shards[1].bounds_sent, 0, "the stale Bound dropped");
    assert!(
        !link.sent.contains(&(0, Frame::Bound(6))),
        "and was never forwarded"
    );
    assert_eq!(outcome.best.as_ref().map(|(b, _)| b.weight), Some(6));
    assert!(optimal(&outcome), "shard 0's own floor claim stands");
    assert!(
        !outcome.shards[1].dead,
        "the stale Gone did not count either"
    );
    assert_eq!(outcome.shards[1].rejoins, 1);
}

// ---- (c) arming a rejoining seat -----------------------------------------

#[test]
fn a_rejoining_seat_gets_job_bound_and_the_digest_minus_its_own_clauses() {
    let mut link = ScriptLink::new(
        &[0, 1],
        vec![
            joined(0),
            joined(1),
            frame(0, clause(0, 1)),
            frame(1, clause(1, 2)),
            frame(0, incumbent(heavier())),
            gone(1),
            rejoined(1),
        ],
    );
    link.patience = Some(Duration::from_secs(3600));
    let outcome = run(&mut link);
    assert_eq!(outcome.shards[1].rejoins, 1);
    assert!(!outcome.shards[1].dead);

    // Before the rejoin shard 1 saw: job, shard 0's clause, shard 0's bound.
    let to_1: Vec<&Frame> = link
        .sent
        .iter()
        .filter(|(s, _)| *s == 1)
        .map(|(_, f)| f)
        .collect();
    assert_eq!(
        link.kinds_to(1),
        ["job", "clause", "bound", "job", "bound", "clause"]
    );
    // The re-arm: the same lanes, the current bound, then shard 0's
    // clause — and not its own.
    let lanes = |frame: &Frame| match frame {
        Frame::Job(payload) => Job::from_bytes(payload).expect("job").strategies.len(),
        other => panic!("expected a Job, got {other:?}"),
    };
    assert_eq!(lanes(to_1[3]), lanes(to_1[0]));
    assert_eq!(to_1[4], &Frame::Bound(7));
    assert_eq!(to_1[5], &clause(0, 1));
}

// ---- (d) echo-free forwarding --------------------------------------------

#[test]
fn a_clause_reaches_every_other_live_seat_and_never_its_sender() {
    let mut link = ScriptLink::new(
        &[0, 1, 2, 3],
        vec![
            joined(0),
            joined(1),
            joined(2),
            joined(3),
            gone(3),                // dead: gets nothing
            frame(1, clause(2, 5)), // shard 1, claiming to be shard 2
        ],
    );
    let outcome = run(&mut link);
    let clauses: Vec<&(usize, Frame)> = link
        .sent
        .iter()
        .filter(|(_, f)| f.kind() == "clause")
        .collect();
    // Delivered to 0 and 2 — not to 1 (the sender), not to 3 (dead) —
    // and re-tagged with the connection it really came from.
    assert_eq!(clauses, [&(0, clause(1, 5)), &(2, clause(1, 5))]);
    assert_eq!(outcome.shards[1].clauses_sent, 1);
    let received: Vec<u64> = outcome.shards.iter().map(|s| s.clauses_received).collect();
    assert_eq!(received, [1, 0, 1, 0]);
}

// ---- (f) lying floors ----------------------------------------------------

#[test]
fn a_floor_claim_above_a_validated_weight_is_discarded_at_merge() {
    let mut link = ScriptLink::new(
        &[0, 1],
        vec![
            joined(0),
            joined(1),
            frame(1, Frame::Floor(9)), // "nothing below 9 exists"
        ]
        .into_iter()
        .chain(result(0, optimum(), Some(5)))
        .chain(result(1, heavier(), None))
        .collect(),
    );
    let outcome = run(&mut link);
    assert_eq!(outcome.best.as_ref().map(|(b, _)| b.weight), Some(6));
    assert_eq!(outcome.floor, unsat(5), "9 > 6 is a provable lie; 5 stands");
    assert!(!optimal(&outcome));
}

// ---- (g) hanging up after Cancel -----------------------------------------

/// Shard 0 decides the race; shard 1 then hangs up without a `Result`.
fn wind_down_script() -> Vec<Event> {
    vec![
        joined(0),
        joined(1),
        frame(0, incumbent(optimum())),
        frame(0, Frame::Floor(6)),
        gone(1),
        frame(0, done()),
    ]
}

#[test]
fn gone_after_cancel_is_wind_down_on_a_link_that_can_rejoin() {
    let mut link = ScriptLink::new(&[0, 1], wind_down_script());
    link.patience = Some(Duration::from_secs(3600));
    let outcome = run(&mut link);
    assert!(link.kinds_to(1).contains(&"cancel"));
    assert!(optimal(&outcome));
    assert!(
        !outcome.shards[1].dead,
        "resultless after Cancel: by design"
    );
}

#[test]
fn gone_after_cancel_is_settled_by_the_exit_status_on_a_link_that_cannot() {
    for (clean, status) in [(true, "exit status: 0"), (false, "signal: 9 (SIGKILL)")] {
        let mut link = ScriptLink::new(&[0, 1], wind_down_script());
        let status = status.to_string();
        link.exits = vec![None, Some(PeerExit { clean, status })];
        let outcome = run(&mut link);
        assert!(optimal(&outcome));
        assert_eq!(outcome.shards[1].dead, !clean);
    }
}

// ---- satellite: the trust boundary ---------------------------------------

/// Encodings no peer may get past the coordinator: mixed widths (which
/// used to panic `PauliString::anticommutes`), a uniform wrong width
/// (which used to be *accepted* — these four strings do anticommute),
/// and a wrong count.
fn malformed() -> [(&'static str, Vec<PauliString>); 3] {
    let text = |t: &[&str]| t.iter().map(|s| s.parse().expect("Pauli text")).collect();
    [
        ("mixed widths", text(&["XX", "Y", "ZX", "ZY"])),
        ("uniform wrong width", text(&["XII", "YII", "ZXI", "ZYI"])),
        ("wrong count", text(&["XI", "YI", "ZX"])),
    ]
}

#[test]
fn a_malformed_wire_incumbent_is_dropped_not_a_panic() {
    for (what, bad) in malformed() {
        let mut script = incumbent_loss_script(false);
        script.insert(3, frame(1, incumbent(bad)));
        let outcome = run(&mut ScriptLink::new(&[0, 1], script));
        // The encoding is dropped and its sender buried; the survivor's
        // race goes on exactly as if the frame had never been sent.
        assert!(outcome.shards[1].dead, "{what}");
        assert!(!outcome.shards[0].dead, "{what}");
        assert_eq!(
            outcome.best.as_ref().map(|(b, _)| b.weight),
            Some(7),
            "{what}"
        );
        assert!(!optimal(&outcome), "{what}");
    }
}

#[test]
fn a_malformed_shard_result_marks_the_seat_dead_not_a_panic() {
    // A shard's last word whose encoding fails the check, and a `Result`
    // payload that does not parse: either buries the sender.
    let mut cases: Vec<(&str, Vec<Event>)> = malformed()
        .into_iter()
        .map(|(what, bad)| (what, result(1, bad, Some(6))))
        .collect();
    cases.push((
        "unparsable result",
        vec![frame(1, Frame::Result(b"{\"weight\":6}".to_vec()))],
    ));
    for (what, last_word) in cases {
        let mut script = vec![joined(0), joined(1)];
        script.extend(last_word);
        script.extend(result(0, heavier(), None));
        let outcome = run(&mut ScriptLink::new(&[0, 1], script));
        assert!(outcome.shards[1].dead, "{what}");
        assert!(!outcome.shards[0].dead, "{what}");
        assert_eq!(
            outcome.best.as_ref().map(|(b, _)| b.weight),
            Some(7),
            "{what}"
        );
        assert!(!optimal(&outcome), "{what}");
    }
}

// ---- satellite: lanes are labelled by shard id ---------------------------

#[test]
fn lanes_are_reported_under_their_shard_id_not_their_position() {
    // Registry slot 0 is gone for good; the only seat racing is shard 1.
    let lane = WorkerReport {
        strategy: "lane-r".into(),
        started_at: Duration::ZERO,
        finished_at: Duration::from_millis(100),
        events: Vec::new(),
        final_weight: Some(6),
        proved_floor: None,
        cancelled: false,
        conflicts: 0,
        clauses_exported: 0,
        clauses_imported: 0,
        clauses_promoted: 0,
        imported_reasons: 0,
        propagations: 0,
        adapted_export_lbd: 0,
        shard: None,
    };
    let result = ShardResult {
        workers: vec![lane],
    };
    let script = vec![
        joined(1),
        frame(1, incumbent(optimum())),
        frame(1, Frame::Result(result.to_bytes())),
    ];
    let mut link = ScriptLink::new(&[1], script);
    link.patience = Some(Duration::from_secs(3600));
    let outcome = run(&mut link);
    assert_eq!(outcome.shards.len(), 1);
    assert_eq!(outcome.shards[0].shard, 1);
    let lanes: Vec<Option<usize>> = outcome.workers.iter().map(|w| w.shard).collect();
    assert_eq!(lanes, [Some(1)]);

    // The same when the shard names no winner: the label is its id.
    let unnamed = IncumbentUpdate {
        strings: optimum(),
        winner: String::new(),
    };
    let script = vec![
        joined(1),
        frame(1, Frame::Incumbent(unnamed.to_bytes())),
        frame(1, done()),
    ];
    let outcome = run(&mut ScriptLink::new(&[1], script));
    assert_eq!(outcome.best.expect("shard 1's result").1, "shard-1");
}
