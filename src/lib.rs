#![deny(missing_docs)]

//! # fedval — sharing the value of diversity
//!
//! A full Rust reproduction of *"Federation of virtualized
//! infrastructures: sharing the value of diversity"* (P. Antoniadis,
//! S. Fdida, T. Friedman, V. Misra — ACM CoNEXT 2010).
//!
//! This umbrella crate re-exports the whole workspace as one coherent API:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `fedval-core` | the paper's economic model: facilities, locations, diversity-aware utility, demand, allocation (eq. 2–3), value sharing (eq. 5–7) |
//! | [`coalition`] | `fedval-coalition` | the `WideGame` trait; exact and sampled Shapley value, core, nucleolus, Harsanyi dividends |
//! | [`policy`] | `fedval-policy` | scheme comparison, provision incentives, best-response equilibria, policy reports |
//! | [`testbed`] | `fedval-testbed` | PlanetLab-style facility simulator and measured coalition values |
//! | [`desim`] | `fedval-desim` | discrete-event simulation substrate, Erlang-B, Kaufman–Roberts loss networks |
//! | [`market`] | `fedval-market` | market-mechanism baselines: combinatorial auction, double-auction spot market |
//! | [`form`] | `fedval-form` | dynamic coalition formation: hedonic merge/split dynamics under churn |
//! | [`simplex`] | `fedval-simplex` | the LP solver under the core/nucleolus machinery |
//!
//! The most common entry points are also re-exported at the top level.
//!
//! ```
//! use fedval::{Demand, ExperimentClass, FederationScenario, paper_facilities};
//!
//! let scenario = FederationScenario::new(
//!     paper_facilities([1, 1, 1]),
//!     Demand::one_experiment(ExperimentClass::simple("measurement", 500.0, 1.0)),
//! );
//! assert!((scenario.shapley_shares()[1] - 2.0 / 13.0).abs() < 1e-12);
//! ```
//!
//! Runnable walkthroughs live in `examples/`; the paper's tables and
//! figures are regenerated by `cargo run --release -p fedval-bench --bin
//! repro`.

mod error;

pub use error::FedError;

pub use fedval_coalition as coalition;
pub use fedval_core as core;
pub use fedval_desim as desim;
pub use fedval_form as form;
pub use fedval_market as market;
pub use fedval_policy as policy;
pub use fedval_simplex as simplex;
pub use fedval_testbed as testbed;

pub use fedval_coalition::{
    harsanyi_dividends, is_core_nonempty, shapley, shapley_auto_wide, shapley_normalized,
    try_approx_shapley_wide, try_least_core, try_nucleolus, ApproxConfig, ApproxShapley, Coalition,
    ShapleyEstimate, TableGame, WideGame, EXACT_SHAPLEY_MAX_PLAYERS, MAX_SAMPLED_PLAYERS,
};
pub use fedval_core::{
    p2p_allocate, paper_facilities, paper_facilities_with_locations, CostModel, Demand,
    ExperimentClass, Facility, FederationGame, FederationScenario, LocationOffer, ThresholdPower,
    Volume,
};
pub use fedval_policy::{
    try_policy_report, try_policy_report_measured, PolicyReport, SharingScheme,
};
pub use fedval_testbed::{
    empirical_game_diagnosed, run_coalition_faulted, synthetic_authority, synthetic_federation,
    Authority, FaultPlan, Federation, MeasuredGame, ScenarioSpec, SimConfig, Workload,
};
