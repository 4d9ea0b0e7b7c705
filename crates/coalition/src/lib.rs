#![deny(missing_docs)]

//! Coalitional (transferable-utility) game engine.
//!
//! This crate implements the game-theoretic machinery of
//! *"Federation of virtualized infrastructures: sharing the value of
//! diversity"* (CoNEXT 2010): the Shapley value the paper proposes as its
//! sharing mechanism (§3.2.2), the core used to reason about federation
//! stability (§3.2.1), and the nucleolus it compares against (§3.2.3) —
//! plus Harsanyi dividends as an additional diagnostic.
//!
//! The crate is model-agnostic: any type implementing [`WideGame`] (a
//! player count plus a characteristic function over member slices) gets
//! every solution concept. [`TableGame::try_from_walk`] fills a game's
//! `2^n` coalition values once, exact Shapley reads that table, and the
//! other exact solvers enumerate bitset coalitions through
//! [`WideGame::value`], a fast path that table and closure games
//! override; past the exact caps, [`approx`] samples the Shapley value
//! with a certificate. The federation model in `fedval-core` plugs in
//! here; so do the classical oracle games in [`games`] used for
//! validation.
//!
//! # Quick example
//!
//! ```
//! use fedval_coalition::{Coalition, FnGame, TableGame, shapley_normalized};
//!
//! // The paper's §4.1 worked example: L = (100, 400, 800), threshold 500
//! // (eq. 1's threshold is strict: utility is x^d only when x > l).
//! let contrib = [100.0, 400.0, 800.0];
//! let game = FnGame::new(3, move |c: Coalition| {
//!     let total: f64 = c.players().map(|p| contrib[p]).sum();
//!     if total > 500.0 { total } else { 0.0 }
//! });
//! // Evaluate every coalition once, on one thread, then share.
//! let table = TableGame::try_from_walk(&game, 1)?;
//! let shares = shapley_normalized(&table);
//! assert!((shares[1] - 2.0 / 13.0).abs() < 1e-12);
//! # Ok::<(), fedval_coalition::GameError>(())
//! ```

pub mod approx;
mod balancedness;
mod coalition;
mod core_solution;
mod diagnostics;
mod dividends;
mod error;
mod game;
pub mod games;
mod nucleolus;
mod owen;
mod properties;
mod shapley;
mod tau;
mod weighted;

pub use approx::{
    derive_seed, hoeffding_epsilon, hoeffding_samples, shapley_auto_wide, try_approx_shapley_wide,
    z_for_confidence, ApproxConfig, ApproxShapley, ShapleyEstimate, EXACT_SHAPLEY_MAX_PLAYERS,
    MAX_SAMPLED_PLAYERS,
};
pub use balancedness::{is_balanced, try_balancedness, Balancedness};
pub use coalition::{Coalition, PlayerId, Players, Subsets, MAX_PLAYERS};
pub use core_solution::{
    excess, is_core_nonempty, is_in_core, is_in_epsilon_core, try_least_core, LeastCore,
    CORE_TOL, LEAST_CORE_MAX_PLAYERS,
};
pub use diagnostics::{CoalitionDiagnostics, GameDiagnostics, ValueSource};
pub use error::{CoalitionError, GameError};
pub use dividends::{
    harsanyi_dividends, shapley_from_dividends, top_synergies, values_from_dividends,
};
pub use game::{check_zero_normalized_empty, FnGame, TableGame, WideGame};
pub use nucleolus::{try_nucleolus, NUCLEOLUS_MAX_PLAYERS};
pub use owen::{owen_value, owen_value_normalized, quotient_game};
pub use properties::{
    analyze, is_convex, is_essential, is_monotone, is_superadditive, GameProperties,
};
pub use shapley::{shapley, shapley_normalized};
pub use tau::{minimal_rights, tau_value, utopia_payoffs};
pub use weighted::{weighted_shapley, weighted_shapley_normalized};
