//! Facade crate for the Fermihedral reproduction workspace.
//!
//! Re-exports every workspace crate under one root so the runnable examples
//! in `examples/` and the integration tests in `tests/` can depend on a
//! single package. Library users should depend on the individual crates
//! (`fermihedral`, `encodings`, `qsim`, …) directly.
//!
//! # Quick tour
//!
//! * [`pauli`] — Pauli strings, phases, and sums.
//! * [`sat`] — the CDCL SAT solver and CNF toolkit.
//! * [`fermion`] — second-quantized operators and benchmark Hamiltonians.
//! * [`encodings`] — Jordan-Wigner / parity / Bravyi-Kitaev / ternary-tree
//!   baselines, Hamiltonian mapping, and validation.
//! * [`fermihedral`] — the paper's contribution: SAT-optimal encodings.
//! * [`engine`] — the parallel portfolio compilation engine with incumbent
//!   sharing and a persistent solution cache.
//! * [`shard`] — lane sharding across processes and hosts: one race loop
//!   over pipe and TCP links to worker processes, speaking the
//!   `shard::wire` clause/bound protocol.
//! * [`serve`] — the long-running compilation server: HTTP endpoints,
//!   request queueing and coalescing, deadlines, graceful shutdown.
//! * [`telemetry`] — structured tracing and metrics: span recorders, the
//!   process registry, Chrome-trace export, Prometheus exposition.
//! * [`jsonkit`] — the dependency-free JSON tree/writer/parser they share.
//! * [`circuit`] — Pauli-evolution circuit synthesis and optimization.
//! * [`qsim`] — noisy state-vector simulation and energy measurement.
//! * [`mathkit`] — the numeric kernel underneath all of the above.

pub use circuit;
pub use encodings;
pub use engine;
pub use fermihedral;
pub use fermion;
pub use jsonkit;
pub use mathkit;
pub use pauli;
pub use qsim;
pub use sat;
pub use serve;
pub use shard;
pub use telemetry;
