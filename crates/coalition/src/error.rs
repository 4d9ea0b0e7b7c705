//! Typed failures for the coalition solution concepts.
//!
//! Every LP-backed concept ([`try_least_core`](crate::try_least_core),
//! [`try_nucleolus`](crate::try_nucleolus),
//! [`try_balancedness`](crate::try_balancedness)) and the dense table
//! builder ([`TableGame::try_from_walk`](crate::TableGame::try_from_walk))
//! returns [`GameError`] instead of panicking, so the federation pipeline can degrade gracefully when a
//! characteristic function is numerically hostile (NaN values from a
//! faulted simulation, degenerate stage LPs, ...) or too wide to
//! enumerate. There is no panicking form beside them.

use crate::coalition::Coalition;
use fedval_simplex::{ProblemError, Status};
use std::fmt;

/// Alias for [`GameError`] emphasizing its role as the crate-wide error
/// type — construction failures (`TableGame::try_from_walk`) and solution
/// concepts share the same variants.
pub type CoalitionError = GameError;

/// Why a coalition solution concept could not be computed.
#[derive(Debug, Clone, PartialEq)]
pub enum GameError {
    /// The game has no players.
    NoPlayers,
    /// The player count exceeds what the algorithm can enumerate.
    ///
    /// Every exact solver names its own documented cap (all of them are
    /// re-exported from the crate root so callers can compare against the
    /// same constant the solver enforces):
    ///
    /// | solver | cap | why |
    /// |---|---|---|
    /// | `try_least_core` / `try_balancedness` (and `is_core_nonempty` / `is_balanced`) | [`LEAST_CORE_MAX_PLAYERS`](crate::LEAST_CORE_MAX_PLAYERS) = 16 | `2^n − 2` LP columns |
    /// | `try_nucleolus` | [`NUCLEOLUS_MAX_PLAYERS`](crate::NUCLEOLUS_MAX_PLAYERS) = 12 | up to `n − 1` LPs of `2^n` columns |
    /// | `TableGame::try_from_walk`, `quotient_game` | [`TableGame::MAX_PLAYERS`](crate::TableGame::MAX_PLAYERS) = 25 | dense `2^n · f64` table |
    /// | exact Shapley auto-selection | [`EXACT_SHAPLEY_MAX_PLAYERS`](crate::EXACT_SHAPLEY_MAX_PLAYERS) = 16 | `2^n` evaluations |
    ///
    /// Shapley values have no such wall: the sampled estimators
    /// ([`shapley_auto_wide`](crate::shapley_auto_wide) and friends in
    /// [`approx`](crate::approx)) answer with certified confidence
    /// intervals at any `n`.
    TooManyPlayers {
        /// Players in the game.
        n: usize,
        /// Maximum the algorithm supports.
        max: usize,
        /// Which solver's cap was hit (e.g. `"nucleolus"`).
        solver: &'static str,
    },
    /// A sampling estimator was asked for zero samples.
    NoSamples {
        /// Which estimator rejected the budget.
        solver: &'static str,
    },
    /// A player index is not in `0..n`.
    PlayerOutOfRange {
        /// The offending index.
        player: usize,
        /// Players in the game.
        n: usize,
    },
    /// A confidence level outside the open interval (0, 1) was requested.
    BadConfidence {
        /// The rejected level.
        value: f64,
    },
    /// A coalition value is NaN or infinite (an overflowing or failed
    /// characteristic function); the table builder rejects it before any
    /// solution concept reads it.
    NonFiniteValue {
        /// The first such coalition, by mask.
        coalition: Coalition,
        /// Its value.
        value: f64,
    },
    /// An internal LP was rejected as malformed — in practice this means the
    /// characteristic function produced NaN or infinite values.
    MalformedLp {
        /// Which computation built the LP.
        context: &'static str,
        /// The underlying validation failure.
        source: ProblemError,
    },
    /// An internal LP terminated without reaching an optimum (infeasible,
    /// unbounded, or stalled on numerical degeneracy).
    LpNotOptimal {
        /// Which computation ran the LP.
        context: &'static str,
        /// The solver's terminal status.
        status: Status,
    },
    /// An iterative scheme stopped making progress before convergence.
    NumericallyStuck {
        /// Which computation got stuck.
        context: &'static str,
    },
}

impl fmt::Display for GameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GameError::NoPlayers => write!(f, "game has no players"),
            GameError::TooManyPlayers { n, max, solver } => {
                write!(
                    f,
                    "{solver}: game has {n} players but exact enumeration supports at most \
                     {max}; use the sampled Shapley estimator (shapley_auto_wide / --approx) for \
                     larger federations"
                )
            }
            GameError::NoSamples { solver } => {
                write!(f, "{solver}: sample budget must be at least 1")
            }
            GameError::PlayerOutOfRange { player, n } => {
                write!(f, "player {player} out of range for a {n}-player game")
            }
            GameError::BadConfidence { value } => {
                write!(
                    f,
                    "confidence level must lie strictly between 0 and 1, got {value}"
                )
            }
            GameError::NonFiniteValue { coalition, value } => {
                write!(
                    f,
                    "table_game: coalition {coalition} (player ids from 0) has the non-finite \
                     value {value}; every coalition value must be a finite number"
                )
            }
            GameError::MalformedLp { context, source } => {
                write!(f, "{context}: internal LP malformed: {source}")
            }
            GameError::LpNotOptimal { context, status } => {
                write!(f, "{context}: internal LP ended {status:?} instead of optimal")
            }
            GameError::NumericallyStuck { context } => {
                write!(f, "{context}: no progress between iterations (numerical degeneracy)")
            }
        }
    }
}

impl std::error::Error for GameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GameError::MalformedLp { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_context() {
        let e = GameError::LpNotOptimal {
            context: "least core",
            status: Status::Stalled,
        };
        let msg = e.to_string();
        assert!(msg.contains("least core"), "{msg}");
        assert!(msg.contains("Stalled"), "{msg}");
    }

    #[test]
    fn source_is_exposed_for_malformed_lp() {
        use std::error::Error;
        let e = GameError::MalformedLp {
            context: "nucleolus",
            source: ProblemError::NonFiniteInput,
        };
        assert!(e.source().is_some());
        assert!(GameError::NoPlayers.source().is_none());
    }
}
