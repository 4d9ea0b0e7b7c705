//! Bondareva–Shapley balancedness: the dual route to core non-emptiness.
//!
//! The core is non-empty iff the game is *balanced*: for every balanced
//! collection of coalitions with weights λ_S,
//! `Σ_S λ_S·V(S) ≤ V(N)`. Equivalently, the LP
//!
//! ```text
//! maximize   Σ_{S ⊊ N, S ≠ ∅} λ_S·V(S)
//! subject to Σ_{S ∋ i} λ_S = 1   for every player i,   λ ≥ 0
//! ```
//!
//! has optimum ≤ V(N). This is the LP-dual of the least-core feasibility
//! problem solved in [`crate::try_least_core`], so the two must agree — an
//! executable strong-duality check that doubles as a cross-validation of
//! the simplex solver on every game we throw at it.

use crate::coalition::Coalition;
use crate::error::GameError;
use crate::game::WideGame;
use fedval_simplex::{LinearProgram, Objective, Relation, Status};

/// Result of the Bondareva–Shapley LP.
#[derive(Debug, Clone)]
pub struct Balancedness {
    /// Optimal value of the balanced-cover LP (`Σ λ_S V(S)` at optimum).
    pub best_cover_value: f64,
    /// The optimal weights λ_S, indexed by coalition mask.
    pub weights: Vec<(Coalition, f64)>,
}

impl Balancedness {
    /// Whether the game is balanced, i.e. the core is non-empty:
    /// `best_cover_value ≤ V(N)` (within `tol`).
    pub fn is_balanced_for(&self, grand_value: f64, tol: f64) -> bool {
        self.best_cover_value <= grand_value + tol
    }
}

/// Solves the Bondareva–Shapley LP.
///
/// # Errors
/// [`GameError::NoPlayers`] for an empty game, [`GameError::TooManyPlayers`]
/// above 16 players (the LP has `2^n − 2` variables), or
/// [`GameError::MalformedLp`] when the characteristic function produces NaN
/// or infinite values.
pub fn try_balancedness<G: WideGame>(game: &G) -> Result<Balancedness, GameError> {
    let n = game.n_players();
    if n == 0 {
        return Err(GameError::NoPlayers);
    }
    if n > crate::core_solution::LEAST_CORE_MAX_PLAYERS {
        return Err(GameError::TooManyPlayers {
            n,
            max: crate::core_solution::LEAST_CORE_MAX_PLAYERS,
            solver: "balancedness",
        });
    }

    let grand = Coalition::grand(n);
    let proper: Vec<Coalition> = Coalition::all(n)
        .filter(|&s| !s.is_empty() && s != grand)
        .collect();
    if proper.is_empty() {
        // Single player: the only cover is {N} itself.
        return Ok(Balancedness {
            best_cover_value: game.grand_value(),
            weights: vec![(grand, 1.0)],
        });
    }

    // One variable per proper coalition, plus one for the grand coalition
    // (covering N itself is always allowed and makes the LP feasible).
    let n_vars = proper.len() + 1;
    let mut lp = LinearProgram::new(n_vars, Objective::Maximize);
    for (k, &s) in proper.iter().enumerate() {
        lp.set_objective_coefficient(k, game.value(s));
    }
    lp.set_objective_coefficient(proper.len(), game.grand_value());
    for i in 0..n {
        let mut row = vec![0.0; n_vars];
        for (k, &s) in proper.iter().enumerate() {
            if s.contains(i) {
                row[k] = 1.0;
            }
        }
        row[proper.len()] = 1.0; // N contains everyone
        lp.add_constraint(row, Relation::Eq, 1.0);
    }
    let sol = lp.solve().map_err(|source| GameError::MalformedLp {
        context: "balancedness",
        source,
    })?;
    // Feasible (λ_N = 1) and bounded, so anything but Optimal is numerical.
    if sol.status != Status::Optimal {
        return Err(GameError::LpNotOptimal {
            context: "balancedness",
            status: sol.status,
        });
    }
    let mut weights: Vec<(Coalition, f64)> = proper
        .iter()
        .enumerate()
        .filter(|&(k, _)| sol.x[k] > 1e-9)
        .map(|(k, &s)| (s, sol.x[k]))
        .collect();
    if sol.x[proper.len()] > 1e-9 {
        weights.push((grand, sol.x[proper.len()]));
    }
    Ok(Balancedness {
        best_cover_value: sol.objective,
        weights,
    })
}

/// Core non-emptiness via Bondareva–Shapley (an independent route from
/// [`crate::is_core_nonempty`], which uses the least-core LP).
///
/// # Errors
/// As [`try_balancedness`]; past 16 players the game is not evaluated at
/// all.
pub fn is_balanced<G: WideGame>(game: &G) -> Result<bool, GameError> {
    Ok(try_balancedness(game)?.is_balanced_for(game.grand_value(), 1e-7))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalition::PlayerId;
    use crate::core_solution::is_core_nonempty;
    use crate::game::tests::table_of;
    use crate::game::FnGame;

    #[test]
    fn majority_game_is_not_balanced() {
        // The balanced collection {{1,2},{1,3},{2,3}} with λ = 1/2 covers
        // everyone and is worth 3/2 > V(N) = 1.
        let g = FnGame::new(3, |c: Coalition| (c.len() >= 2) as u64 as f64);
        let b = try_balancedness(&g).expect("3 players");
        assert!(
            (b.best_cover_value - 1.5).abs() < 1e-7,
            "{}",
            b.best_cover_value
        );
        assert!(!is_balanced(&g).expect("3 players"));
        // The certificate weights must form a fractional partition.
        for i in 0..3 {
            let cover: f64 = b
                .weights
                .iter()
                .filter(|(s, _)| s.contains(i))
                .map(|&(_, w)| w)
                .sum();
            assert!((cover - 1.0).abs() < 1e-7);
        }
    }

    #[test]
    fn convex_game_is_balanced() {
        let g = FnGame::new(4, |c: Coalition| (c.len() as f64).powi(2));
        assert!(is_balanced(&g).expect("4 players"));
    }

    #[test]
    fn agrees_with_least_core_route_on_many_games() {
        // Strong duality in action: the primal (least-core) and dual
        // (balancedness) decisions must coincide on a family of threshold
        // games spanning both outcomes.
        for threshold in (0..=1500).step_by(125) {
            let t = threshold as f64;
            let game = table_of(&FnGame::new(3, move |c: Coalition| {
                let contrib = [100.0, 400.0, 800.0];
                let total: f64 = c.players().map(|p| contrib[p]).sum();
                if total > t {
                    total.sqrt() // concave: plenty of empty cores
                } else {
                    0.0
                }
            }));
            assert_eq!(
                is_balanced(&game).expect("3 players"),
                is_core_nonempty(&game).expect("3 players"),
                "duality mismatch at threshold {threshold}"
            );
        }
    }

    #[test]
    fn single_player_is_balanced() {
        let g = FnGame::new(1, |c: Coalition| c.len() as f64);
        assert!(is_balanced(&g).expect("1 player"));
    }

    /// Both core tests refuse a game past the LP cap before evaluating
    /// any coalition.
    #[test]
    fn core_tests_reject_oversized_games_unevaluated() {
        struct Untouchable;
        impl WideGame for Untouchable {
            fn n_players(&self) -> usize {
                17
            }
            fn value_members(&self, _: &[PlayerId]) -> f64 {
                panic!("an oversized core test must not evaluate any coalition")
            }
        }
        let too_many = |solver| GameError::TooManyPlayers {
            n: 17,
            max: crate::core_solution::LEAST_CORE_MAX_PLAYERS,
            solver,
        };
        assert_eq!(is_core_nonempty(&Untouchable), Err(too_many("least_core")));
        assert_eq!(is_balanced(&Untouchable), Err(too_many("balancedness")));
    }
}
