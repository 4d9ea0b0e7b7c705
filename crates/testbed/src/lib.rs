#![deny(missing_docs)]

//! PlanetLab-style federated testbed simulator.
//!
//! The paper models PlanetLab; this crate *builds* a miniature of it so the
//! economic machinery can run on measured rather than closed-form coalition
//! values:
//!
//! * [`Site`]s contribute ≥ 2 [`Node`]s at a location; nodes admit a
//!   bounded number of concurrent slivers (the admission-control face of
//!   PlanetLab's per-node fair-share scheduling).
//! * [`Authority`] (PLC, PLE, PLJ, …) owns sites and users and projects
//!   onto the economic model as a [`fedval_core::Facility`].
//! * [`Federation`] peers authorities SFA-style: node-registry exchange
//!   (with a compact wire format) and user [`Credential`]s.
//! * [`run_coalition_faulted`] replays a slice [`Workload`] against any
//!   coalition of authorities under a [`FaultPlan`] (empty for a clean
//!   run); [`empirical_game_diagnosed`] measures the full characteristic
//!   function, ready for `fedval_coalition::shapley`.
//!
//! ```
//! use fedval_testbed::{
//!     empirical_game_diagnosed, synthetic_authority, FaultPlan, Federation, SimConfig, Workload,
//! };
//! use fedval_coalition::shapley_normalized;
//! use fedval_core::ExperimentClass;
//!
//! let federation = Federation::new(vec![
//!     synthetic_authority("PLC", 0, 6, 2, 2, 100),
//!     synthetic_authority("PLE", 6, 4, 2, 2, 80),
//! ]);
//! let workload = Workload::single(ExperimentClass::simple("exp", 8.0, 1.0), 0.5, 1.0);
//! let measured =
//!     empirical_game_diagnosed(&federation, &workload, &SimConfig::default(), &FaultPlan::new())?;
//! let shares = shapley_normalized(&measured.game);
//! assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
//! # Ok::<(), fedval_testbed::SimError>(())
//! ```

mod authority;
pub mod faults;
mod federation;
mod scale;
mod selection;
mod simulate;
mod slice;
mod site;
mod workload;

pub use authority::{synthetic_authority, Authority};
pub use faults::{Fault, FaultPlan, RetryPolicy};
pub use federation::{Credential, Federation, NodeRecord};
pub use scale::{
    parse_synthetic, synthetic_federation, synthetic_profile, ScenarioArgs, ScenarioSpec,
    MAX_FACILITY_CAPACITY, MAX_FACILITY_LOCATIONS,
};
pub use selection::{satisfies_diversity, select, NodeQuery, Selection};
pub use simulate::{
    empirical_game_diagnosed, run_coalition_faulted, Churn,
    FaultedRun, MeasuredGame, SimConfig, SimError, SimReport,
};
pub use site::{Node, Site};
pub use slice::{Slice, SliceError, SliceManager, Sliver};
pub use workload::{ClassLoad, SliceRequest, Workload};
