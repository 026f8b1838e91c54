//! `fermihedral-shard`: lane sharding for the portfolio engine, across
//! processes and across hosts.
//!
//! The engine races its portfolio lanes as threads of one process; the
//! heavy Hamiltonian-dependent instances (hours-scale SAT runs in the
//! paper) want more hardware than one process can address. This crate
//! spreads the lanes over **worker processes** — `worker --connect`
//! processes that register with a fleet coordinator over TCP, spawned by
//! the coordinator on loopback or started on any host — that speak one
//! small length-prefixed binary protocol ([`wire`]) and are driven by one
//! race loop ([`race`]):
//!
//! ```text
//!        engine::compile_cached: cache probe · warm start · store
//!            ┌───────────────────────── race ──────────────────────────┐
//!            │ seats · lane partition · frame routing · liveness · merge │
//!            └──┬────────────────────── link ───────────────┬──────────┘
//!        Job ┆ Clause ┆ Bound ┆ Cancel   (length-prefixed frames)
//!            ▼                                              ▼
//!      worker 0 (lanes 0,2)     TCP (loopback or remote)  worker 1 (lane 1)
//!      race + RemoteExchange                          race + RemoteExchange
//! ```
//!
//! # One race, start to finish
//!
//! 1. **A link joins.** A transport ([`link::Link`]) brings peers: the
//!    local fleet spawns them, a remote fleet has been accepting
//!    registrations all along. The shards present at the start are the
//!    *muster*; the portfolio's lanes are partitioned over them
//!    round-robin. Every peer announces itself through the server's
//!    `Hello`/`Welcome` handshake, and one that speaks another
//!    [`wire::PROTOCOL_VERSION`] never gets a job.
//! 2. **The seat is armed**: its `Job` (problem, lane names, deadline,
//!    warm hint), then the current incumbent `Bound`, then a replay of
//!    the last [`race::CLAUSE_DIGEST`] clauses that crossed the bridge
//!    (minus its own). The same three things go to a seat that starts
//!    late, to a newcomer that registers mid-race (it inherits a dead
//!    seat's orphaned lanes when there are any), and to a worker that
//!    reconnects under its old shard id. The worker builds the named
//!    lanes from its own [`engine::default_portfolio`] and exits on a
//!    job it cannot parse; a caller-chosen portfolio never leaves the
//!    coordinator, it races in-process.
//! 3. **The race.** Each worker's [`sat::SharedContext`] has a bridge
//!    lane ([`sat::RemoteExchange`]); exported clauses stream to the
//!    coordinator, which forwards them to every racing shard except
//!    their origin — no echo loops. Any shard's incumbent improvement
//!    tightens every other shard's next descent assumption within
//!    milliseconds, and the encoding behind it travels along
//!    (`Incumbent`), so it outlives its finder. UNSAT floors are
//!    properties of the shared formula: the moment any shard's floor
//!    meets the global incumbent the race is decided and everyone still
//!    racing gets `Cancel`. A shard that dies, goes silent, breaks
//!    protocol or reports an invalid encoding is flagged `dead` in its
//!    [`engine::ShardReport`] (and leaves a `postmortem-<shard>.json`);
//!    the race degrades to the survivors.
//! 4. **Wind-down.** After `Cancel`, a worker with nothing to report may
//!    simply hang up: that is not a death. Shards that ignore `Cancel`
//!    past a grace period are cut off.
//! 5. **Merge.** Every claimed encoding — `Result` frames and the
//!    wire-shipped incumbent alike — goes through
//!    [`engine::check_encoding`] and is re-measured; floor claims above
//!    a validated weight are provable lies and are discarded; the
//!    lightest encoding and the strongest remaining floor are the
//!    outcome. [`engine::compile_cached`] folds in the warm start and
//!    stores the winner. A race that lost *every* shard is re-run
//!    in-process.
//!
//! # What a link reports
//!
//! The race has no transport options; where the local and the remote
//! fleet differ, the link says so:
//!
//! | | local fleet ([`coordinator`], `--shards k`) | remote fleet ([`fleet`]) |
//! |---|---|---|
//! | peers | `k` children spawned per race on a loopback [`FleetServer`], seats `0..k` reserved | registered with a [`FleetServer`] across races; late joiners welcome |
//! | connection ends before `Cancel` | death at once — a local child never rejoins | the seat is held for [`FleetOptions::heartbeat_deadline`]; a reconnect under the same shard id is a *rejoin* (new generation; stale frames drop, a stale `Incumbent` is kept) |
//! | connection ends after `Cancel` | settled by the reaped exit status: clean 0 = wound down | wound down |
//! | silence | no clock: a child's connection and its process are the liveness | time since the last frame (workers heartbeat, the server echoes); past the deadline = dead |
//! | cutting a peer off | `kill` | `shutdown(Both)` |
//! | closing a seat | kill a child still connected; reap one whose connection ended and report its exit status | nothing: the session serves the next race |
//!
//! Entry points: [`compile_sharded`] (mirrors [`engine::compile`]),
//! [`compile_sharded_with`] and [`compile_fleet_with`] (server forms:
//! shared cache + external cancellation), and [`run_worker_fleet`] (the
//! worker-process session behind the `fermihedral-shard worker`
//! subcommand).

pub mod coordinator;
pub mod fleet;
pub mod link;
pub mod proto;
pub mod race;
pub mod wire;
pub mod worker;

pub use coordinator::{
    compile_sharded, compile_sharded_with, default_worker_bin, ShardOptions, WORKER_BIN,
};
pub use engine::measure_weight;
pub use fleet::{compile_fleet_with, FleetOptions, FleetServer};
pub use proto::{BlackBoxCheckpoint, IncumbentUpdate, Job, ShardResult};
pub use worker::{run_worker_fleet, FleetWorkerOptions};
