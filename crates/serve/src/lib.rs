//! fedval-serve: an online policy-query server over the federation
//! valuation pipeline.
//!
//! The batch tools (`fedval`, `repro`, `bench_pipeline`) re-solve the
//! coalitional game from scratch on every invocation. An operator
//! steering admission control in a running federation asks the *same*
//! scenario hundreds of times per second — "what is coalition {1,2}
//! worth?", "what is provider 3's Shapley share?", "what happens if a
//! fourth provider joins?". This crate keeps one
//! [`FederationScenario`](fedval_core::FederationScenario), built from a
//! [`ScenarioSpec`] exactly as `fedval` builds its own, resident; fills
//! its `2^n` coalition [`TableGame`](fedval_coalition::TableGame) plus the
//! ϕ̂ and nucleolus share payloads at startup; and answers queries over a
//! newline-framed JSON-ish TCP protocol — std-only, no external
//! dependencies. Shapley answers, exact or sampled, are the scenario's
//! own [`shapley_estimate`](fedval_core::FederationScenario::shapley_estimate).
//!
//! Layout:
//!
//! * [`protocol`] — wire framing, request parsing (total and
//!   panic-free over arbitrary bytes), response rendering.
//! * [`state`] — the resident scenario and its rendered payloads, query
//!   execution, the what-if derivations and their bounded LRU.
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
//! * [`client`] — the one client: a socket with both deadlines armed
//!   that sends frames and reads response lines, used by `fedload`,
//!   `fedchaos`, the injector and the loopback tests.
//!
//! Three binaries ship with the crate: `fedval-serve` (the daemon),
//! `fedload` (a seeded load generator — closed-loop or open-loop
//! Poisson arrivals — that doubles as the correctness smoke-test
//! driver in CI), and `fedchaos` (the chaos campaign runner).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod lru;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod state;

pub use chaos::{ChaosConfig, ChaosReport, ChaosRng, FaultKind};
pub use client::Client;
pub use metrics::{MetricsRing, RingSample};
pub use protocol::{parse_request, ProtocolError, QueryKind, Request, MAX_FRAME};
pub use server::{DrainReport, Server, ServerConfig, ServerStats};
pub use state::{ScenarioSpec, ServeState};
