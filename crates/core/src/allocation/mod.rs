//! Resource allocation — the optimization (eq. 2) whose optimum defines
//! the federation's characteristic function `V(S)` in the commercial
//! scenario.
//!
//! Layering:
//!
//! * [`feasibility`] — Gale–Ryser realizability, max-total and balanced
//!   size-vector construction, explicit location assignment.
//! * [`analytic`] — the production optimizer ([`solve`]), and [`value`],
//!   its optimum alone.
//! * [`exact`] — exhaustive reference solver for tiny instances
//!   ([`solve_exact`]), used to validate the analytic paths.
//! * [`greedy`] — FCFS heuristics ([`solve_greedy`]) for baseline
//!   comparisons.

pub mod analytic;
pub mod exact;
pub mod feasibility;
pub mod greedy;

pub use analytic::{solve, value, ClassAllocation, ProfileSolution, SolveError};
pub use exact::solve_exact;
pub use feasibility::{
    balanced_max_total_sizes, balanced_partition, is_realizable, max_total_sizes,
    realize_assignment, Assignment,
};
pub use greedy::{solve_greedy, GreedyPolicy};
