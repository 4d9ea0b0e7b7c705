#![deny(missing_docs)]

//! A dense, two-phase primal simplex solver for linear programs.
//!
//! This crate is the linear-programming substrate of the `fedval` workspace.
//! The coalitional-game solution concepts used in the paper reproduction —
//! core emptiness (balancedness), the least core, and the nucleolus — all
//! reduce to sequences of small, dense LPs, so a compact tableau simplex
//! with Bland's anti-cycling rule is the right tool: exact enough at these
//! sizes (at most `n + 1` rows and one column per coalition, a few thousand
//! for `n ≤ 12` player games), with no external dependencies. The least
//! core and the nucleolus read their allocations from the row duals of an
//! optimal [`Solution`].
//!
//! # Problem form
//!
//! A [`LinearProgram`] is built over `n` decision variables, each implicitly
//! constrained to be non-negative. Free variables can be modelled by the
//! caller as a difference of two non-negative variables (see
//! [`LinearProgram::add_free_variable_pair`] for a convenience helper).
//! Constraints compare a linear expression with a constant using
//! [`Relation::Le`], [`Relation::Ge`] or [`Relation::Eq`], and the objective
//! is either minimized or maximized.
//!
//! # Example
//!
//! Maximize `3x + 2y` subject to `x + y ≤ 4`, `x + 3y ≤ 6`:
//!
//! ```
//! use fedval_simplex::{LinearProgram, Objective, Relation, Status};
//!
//! let mut lp = LinearProgram::new(2, Objective::Maximize);
//! lp.set_objective_coefficient(0, 3.0);
//! lp.set_objective_coefficient(1, 2.0);
//! lp.add_constraint(vec![1.0, 1.0], Relation::Le, 4.0);
//! lp.add_constraint(vec![1.0, 3.0], Relation::Le, 6.0);
//! let solution = lp.solve().unwrap();
//! assert_eq!(solution.status, Status::Optimal);
//! assert!((solution.objective - 12.0).abs() < 1e-9);
//! assert!((solution.x[0] - 4.0).abs() < 1e-9);
//! ```

pub mod approx;
mod problem;
mod solver;
mod tableau;

pub use approx::{approx_eq, is_zero, NOISE_EPS};
pub use problem::{Constraint, LinearProgram, Objective, ProblemError, Relation};
pub use solver::{Solution, Status};

/// Numerical tolerance used throughout the solver for feasibility,
/// optimality, and pivot-eligibility tests.
///
/// LPs arising from coalitional games have coefficients that are exact
/// small rationals (0, ±1) and right-hand sides that are coalition values,
/// so `1e-9` leaves ample headroom between real decisions and float noise.
pub const EPSILON: f64 = 1e-9;
