//! fedval-serve: an online policy-query server over the federation
//! valuation pipeline.
//!
//! The batch tools (`fedval`, `repro`, `bench_pipeline`) re-solve the
//! coalitional game from scratch on every invocation. An operator
//! steering admission control in a running federation asks the *same*
//! scenario hundreds of times per second — "what is coalition {1,2}
//! worth?", "what is provider 3's Shapley share?", "what happens if a
//! fourth provider joins?". This crate keeps one
//! [`FederationScenario`-derived game][crate::state::ScenarioGame]
//! resident, fills its `2^n` coalition
//! [`TableGame`](fedval_coalition::TableGame) plus the ϕ̂ and nucleolus
//! share payloads at startup, and answers queries over a newline-framed
//! JSON-ish TCP protocol — std-only, no external dependencies.
//!
//! Layout:
//!
//! * [`protocol`] — wire framing, request parsing (total and
//!   panic-free over arbitrary bytes), response rendering.
//! * [`state`] — scenario specification, the base coalition table and
//!   rendered payloads, query execution, the bounded what-if LRU.
//! * [`lru`] — the deterministic bounded LRU map backing what-ifs.
//! * [`metrics`] — the per-second time-series ring buffer and the
//!   `metrics` query payload (JSON-escaped Prometheus-style exposition
//!   of the merged sharded registry plus the ring).
//! * [`server`] — acceptor / reader / worker threads, the bounded
//!   queue with `BUSY` backpressure, per-connection read/write
//!   deadlines with byte-progress tracking, worker supervision
//!   (`catch_unwind` + deterministic respawn), accept-time connection
//!   cap, graceful drain.
//! * [`chaos`] — seeded deterministic fault injection (slowloris,
//!   truncation, resets, mangling, stalled reads, connect floods,
//!   deliberate worker panics) used by the `fedchaos` harness and the
//!   chaos robustness suite.
//!
//! Three binaries ship with the crate: `fedval-serve` (the daemon),
//! `fedload` (a seeded load generator — closed-loop or open-loop
//! Poisson arrivals — that doubles as the correctness smoke-test
//! driver in CI), and `fedchaos` (the chaos campaign runner).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod lru;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod state;

pub use chaos::{ChaosConfig, ChaosReport, ChaosRng, FaultKind};
pub use metrics::{MetricsRing, RingSample};
pub use protocol::{parse_request, ProtocolError, QueryKind, Request, MAX_FRAME};
pub use server::{DrainReport, Server, ServerConfig, ServerStats};
pub use state::{ScenarioSpec, ServeState};
