#![deny(missing_docs)]

//! Discrete-event simulation substrate for the federation reproduction.
//!
//! The paper's static analysis abstracts away time: holding times `t_k`
//! enter only as multiplexing factors. §2.2 stresses that holding time
//! drives "the level of statistical multiplexing achieved under different
//! federation scenarios", and §6 names a loss-network formulation as the
//! natural extension. This crate provides the machinery to actually run
//! that dynamics: an event calendar, Poisson arrival processes,
//! holding-time distributions, time-weighted statistics, and the Erlang-B
//! loss formula as an analytical cross-check.
//!
//! `fedval-testbed` builds the PlanetLab-style facility simulation on top.
//!
//! # Example: M/M/c/c loss system vs Erlang B
//!
//! ```
//! use fedval_desim::{erlang_b, Simulator, Exponential, Distribution, SimRng};
//!
//! let mut sim = Simulator::new();
//! let mut rng = SimRng::seed_from(7);
//! let arrival = Exponential::with_rate(1.0);
//! let service = Exponential::with_rate(0.5); // offered load = 2 Erlang
//! let servers = 4usize;
//!
//! #[derive(Debug)]
//! enum Ev { Arrival, Departure }
//! sim.try_schedule(arrival.sample(&mut rng), Ev::Arrival)?;
//! let (mut busy, mut arrivals, mut blocked) = (0usize, 0u64, 0u64);
//! while let Some((now, ev)) = sim.next_event() {
//!     if now > 10_000.0 { break; }
//!     match ev {
//!         Ev::Arrival => {
//!             arrivals += 1;
//!             if busy < servers {
//!                 busy += 1;
//!                 sim.try_schedule_at(now + service.sample(&mut rng), Ev::Departure)?;
//!             } else {
//!                 blocked += 1;
//!             }
//!             sim.try_schedule_at(now + arrival.sample(&mut rng), Ev::Arrival)?;
//!         }
//!         Ev::Departure => busy -= 1,
//!     }
//! }
//! let simulated = blocked as f64 / arrivals as f64;
//! let analytic = erlang_b(2.0, 4);
//! assert!((simulated - analytic).abs() < 0.02);
//! # Ok::<(), fedval_desim::ScheduleError>(())
//! ```

mod engine;
mod erlang;
mod fixed_point;
mod loss_network;
mod process;
mod rng;
mod stats;

pub use engine::{ScheduleError, Simulator};
pub use erlang::{erlang_b, offered_load};
pub use fixed_point::{erlang_fixed_point, FixedPoint, Route};
pub use loss_network::{kaufman_roberts, LossAnalysis, LossClass};
pub use process::PoissonProcess;
pub use rng::{Deterministic, Distribution, Exponential, Pareto, SimRng, Uniform};
pub use stats::{BatchMeans, Counter, TimeWeighted, Welford};
