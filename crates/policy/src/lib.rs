#![deny(missing_docs)]

//! Federation policy design on top of the economic model: sharing-scheme
//! comparison, provision incentives (Fig. 9), best-response equilibria of
//! the provision game (§3.3), and organizer-facing reports.
//!
//! The paper's practical recommendation is to compute Shapley shares
//! off-line for the expected demand mixture and use them as policy weights;
//! this crate is that tooling.
//!
//! ```
//! use fedval_core::{paper_facilities, Demand, ExperimentClass, FederationScenario};
//! use fedval_policy::{try_policy_report, SharingScheme};
//!
//! let scenario = FederationScenario::new(
//!     paper_facilities([1, 1, 1]),
//!     Demand::one_experiment(ExperimentClass::simple("meas", 500.0, 1.0)),
//! );
//! let report = try_policy_report(&scenario)?;
//! println!("{}", report.render());
//! let phi = SharingScheme::Shapley.shares(&scenario);
//! assert!((phi[1] - 2.0 / 13.0).abs() < 1e-12);
//! # Ok::<(), fedval_coalition::CoalitionError>(())
//! ```

mod compare;
mod equilibrium;
mod fees;
mod hierarchy;
mod incentives;
mod mixture;
mod report;
mod scheme;
mod smoothing;

pub use compare::{assess_tau, compare_schemes, SchemeAssessment};
pub use equilibrium::{best_response_dynamics, Equilibrium};
pub use fees::FeePool;
pub use hierarchy::{hierarchical_shapley, HierarchicalShares};
pub use incentives::{incentive_curve, marginal_payoffs, peak_marginal, IncentivePoint};
pub use mixture::{
    classify_requests, demand_from_mixture, fitted_policy, Category, MixtureEstimate,
};
pub use report::{try_policy_report, try_policy_report_measured, FormationSection, PolicyReport};
pub use scheme::SharingScheme;
pub use smoothing::{
    max_jump, smoothed_incentive_curve, smoothing_benefit, threshold_smoothed_shares,
};
