//! The core, ε-core, and least core of a coalitional game.
//!
//! The core (§3.2.1 of the paper) is the set of efficient allocations no
//! coalition can improve upon by seceding:
//!
//! ```text
//! C = { v : Σᵢ vᵢ = V(N)  and  Σ_{i∈S} vᵢ ≥ V(S)  ∀ S ⊆ N }
//! ```
//!
//! Emptiness is decided by the *least core*: the smallest uniform
//! relaxation ε such that `x(S) ≥ V(S) − ε` for every proper non-empty
//! coalition. The core is non-empty iff the optimum ε\* ≤ 0.
//!
//! The least-core LP is solved in column form (its dual): `n + 1` rows and
//! one column per proper coalition, with the allocation read off the row
//! duals. The nucleolus ([`crate::try_nucleolus`]) runs the same stage LP
//! repeatedly. With `2^n − 2` columns, exact core computations stay
//! practical up to [`LEAST_CORE_MAX_PLAYERS`] players — far beyond the
//! paper's top-level PlanetLab federations (PLC, PLE, PLJ, plus a few
//! joining testbeds).

use crate::coalition::Coalition;
use crate::error::GameError;
use crate::game::WideGame;
use fedval_simplex::{LinearProgram, Objective, Relation, Status};

/// Default numerical tolerance for core decisions.
pub const CORE_TOL: f64 = 1e-7;

/// Result of the least-core computation.
#[derive(Debug, Clone)]
pub struct LeastCore {
    /// Minimal uniform relaxation ε\*. Core is non-empty iff `epsilon ≤ 0`
    /// (within tolerance).
    pub epsilon: f64,
    /// A least-core allocation (efficient; violates no coalition by more
    /// than ε\*).
    pub allocation: Vec<f64>,
}

/// Whether allocation `x` lies in the core of `game` (within `tol`).
///
/// Checks efficiency and all `2^n` coalition-rationality constraints.
pub fn is_in_core<G: WideGame>(game: &G, x: &[f64], tol: f64) -> bool {
    let n = game.n_players();
    assert_eq!(x.len(), n, "allocation length must equal player count");
    let total: f64 = x.iter().sum();
    if (total - game.grand_value()).abs() > tol {
        return false;
    }
    Coalition::all(n).all(|s| {
        let xs: f64 = s.players().map(|p| x[p]).sum();
        xs >= game.value(s) - tol
    })
}

/// The excess `e(S, x) = V(S) − x(S)` of coalition `S` at allocation `x`:
/// positive excess means `S` has a complaint.
pub fn excess<G: WideGame>(game: &G, x: &[f64], s: Coalition) -> f64 {
    let xs: f64 = s.players().map(|p| x[p]).sum();
    game.value(s) - xs
}

/// Largest player count the least-core (and balancedness) LP formulations
/// enumerate: the LP has a column per proper coalition, so 16 players
/// already means 65534 columns. Above this cap use the sampled Shapley
/// estimators ([`crate::shapley_auto_wide`]) — core membership has no
/// sampled analogue here.
pub const LEAST_CORE_MAX_PLAYERS: usize = 16;

/// Solves the least-core LP.
///
/// # Errors
/// [`GameError::NoPlayers`] for an empty game, [`GameError::TooManyPlayers`]
/// above [`LEAST_CORE_MAX_PLAYERS`] players (`2^n` LP columns), or
/// [`GameError::MalformedLp`] when the characteristic function produces NaN
/// or infinite values.
pub fn try_least_core<G: WideGame>(game: &G) -> Result<LeastCore, GameError> {
    let n = game.n_players();
    if n == 0 {
        return Err(GameError::NoPlayers);
    }
    if n > LEAST_CORE_MAX_PLAYERS {
        return Err(GameError::TooManyPlayers {
            n,
            max: LEAST_CORE_MAX_PLAYERS,
            solver: "least_core",
        });
    }

    if n == 1 {
        return Ok(LeastCore {
            epsilon: 0.0,
            allocation: vec![game.grand_value()],
        });
    }

    let grand = Coalition::grand(n);
    let proper: Vec<Coalition> = Coalition::all(n)
        .filter(|&s| !s.is_empty() && s != grand)
        .collect();
    let stage = solve_stage(game, &proper, &[(grand, game.grand_value())], "least core")?;
    Ok(LeastCore {
        epsilon: stage.epsilon,
        allocation: stage.allocation,
    })
}

/// The optimum of one least-core stage LP.
pub(crate) struct Stage {
    /// The smallest achievable largest excess over the active coalitions.
    pub epsilon: f64,
    /// An allocation attaining it.
    pub allocation: Vec<f64>,
    /// The optimal dual weight `y_S` of each active coalition, in order.
    pub weights: Vec<f64>,
}

/// Minimizes the largest excess over the `active` coalitions while every
/// `frozen` pair `(T, v)` keeps `x(T) = v`; the grand coalition must be
/// among them, at `V(N)`.
///
/// The stage LP `min ε s.t. x(S) + ε ≥ V(S) (S active), x(T) = v (T
/// frozen)` has a row per coalition, so it is solved in column form, as
/// its dual:
///
/// ```text
/// maximize   Σ_S y_S·V(S) + Σ_T z_T·v_T
/// subject to Σ_{S∋i} y_S + Σ_{T∋i} z_T = 0   for every player i
///            Σ_S y_S = 1,   y ≥ 0,   z free
/// ```
///
/// That LP has `n + 1` rows. Its optimum is ε, and its row duals on the
/// player rows are an optimal allocation. The weights `y` certify which
/// coalitions are tight: by complementary slackness, `y_S > 0` means
/// `x(S) + ε = V(S)` at every optimum of the stage.
///
/// The LP is feasible and bounded whenever `active` is closed under
/// complements, as it is for both callers: a proper `S` and `N \ S` cannot
/// both gain from the same move of an efficient `x`.
pub(crate) fn solve_stage<G: WideGame>(
    game: &G,
    active: &[Coalition],
    frozen: &[(Coalition, f64)],
    context: &'static str,
) -> Result<Stage, GameError> {
    let n = game.n_players();
    let mut lp = LinearProgram::new(active.len(), Objective::Maximize);
    for (k, &s) in active.iter().enumerate() {
        lp.set_objective_coefficient(k, game.value(s));
    }
    let pairs: Vec<(usize, usize)> = frozen
        .iter()
        .map(|&(_, v)| {
            let pair = lp.add_free_variable_pair();
            lp.set_objective_coefficient(pair.0, v);
            lp.set_objective_coefficient(pair.1, -v);
            pair
        })
        .collect();
    let n_vars = lp.n_vars();
    for i in 0..n {
        let mut row = vec![0.0; n_vars];
        for (k, s) in active.iter().enumerate() {
            if s.contains(i) {
                row[k] = 1.0;
            }
        }
        for (&(t, _), &(plus, minus)) in frozen.iter().zip(&pairs) {
            if t.contains(i) {
                row[plus] = 1.0;
                row[minus] = -1.0;
            }
        }
        lp.add_constraint(row, Relation::Eq, 0.0);
    }
    let mut total = vec![0.0; n_vars];
    total[..active.len()].fill(1.0);
    lp.add_constraint(total, Relation::Eq, 1.0);

    let sol = lp
        .solve()
        .map_err(|source| GameError::MalformedLp { context, source })?;
    // Feasible and bounded (see above), so anything but Optimal is a
    // numerical failure worth surfacing.
    if sol.status != Status::Optimal {
        return Err(GameError::LpNotOptimal {
            context,
            status: sol.status,
        });
    }
    Ok(Stage {
        epsilon: sol.objective,
        allocation: sol.duals[..n].to_vec(),
        weights: sol.x[..active.len()].to_vec(),
    })
}

/// Whether the core is non-empty (least-core ε\* ≤ tolerance).
///
/// # Errors
/// As [`try_least_core`]; past [`LEAST_CORE_MAX_PLAYERS`] the game is
/// not evaluated at all.
pub fn is_core_nonempty<G: WideGame>(game: &G) -> Result<bool, GameError> {
    Ok(try_least_core(game)?.epsilon <= CORE_TOL)
}

/// Whether allocation `x` lies in the ε-core: efficient, and no coalition's
/// excess exceeds `epsilon`.
pub fn is_in_epsilon_core<G: WideGame>(game: &G, x: &[f64], epsilon: f64, tol: f64) -> bool {
    let n = game.n_players();
    assert_eq!(x.len(), n);
    let total: f64 = x.iter().sum();
    if (total - game.grand_value()).abs() > tol {
        return false;
    }
    let grand = Coalition::grand(n);
    Coalition::all(n)
        .filter(|&s| !s.is_empty() && s != grand)
        .all(|s| excess(game, x, s) <= epsilon + tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::FnGame;

    /// 3-player majority game: V(S)=1 iff |S| ≥ 2 — classic empty core.
    fn majority() -> FnGame<impl Fn(Coalition) -> f64 + Sync> {
        FnGame::new(3, |c: Coalition| (c.len() >= 2) as u64 as f64)
    }

    /// Additive game — core is a single point (the singleton values).
    fn additive() -> FnGame<impl Fn(Coalition) -> f64 + Sync> {
        FnGame::new(3, |c: Coalition| {
            c.players().map(|p| (p + 1) as f64).sum::<f64>()
        })
    }

    #[test]
    fn majority_game_core_is_empty() {
        let g = majority();
        let lc = try_least_core(&g).expect("3 players");
        // Known: least-core ε* = 1/3 for the 3-player majority game.
        assert!((lc.epsilon - 1.0 / 3.0).abs() < 1e-6, "ε* = {}", lc.epsilon);
        assert!(!is_core_nonempty(&g).expect("3 players"));
        // The least-core allocation is the symmetric (1/3, 1/3, 1/3).
        for v in &lc.allocation {
            assert!((v - 1.0 / 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn additive_game_core_contains_singleton_vector() {
        let g = additive();
        assert!(is_core_nonempty(&g).expect("3 players"));
        assert!(is_in_core(&g, &[1.0, 2.0, 3.0], 1e-9));
        assert!(!is_in_core(&g, &[0.5, 2.0, 3.5], 1e-9)); // player 0 blocks
        assert!(!is_in_core(&g, &[2.0, 2.0, 3.0], 1e-9)); // inefficient
    }

    #[test]
    fn least_core_allocation_is_in_epsilon_core() {
        let g = majority();
        let lc = try_least_core(&g).expect("3 players");
        assert!(is_in_epsilon_core(&g, &lc.allocation, lc.epsilon, 1e-6));
        // ...but not in any tighter core.
        assert!(!is_in_epsilon_core(
            &g,
            &lc.allocation,
            lc.epsilon - 0.01,
            1e-9
        ));
    }

    #[test]
    fn glove_game_core_is_extreme_point() {
        // 1 left glove (player 0) vs 2 right gloves: the core is the single
        // point (1, 0, 0) — all surplus to the scarce side.
        let g = FnGame::new(3, |c: Coalition| {
            let left = c.contains(0) as usize;
            let right = c.contains(1) as usize + c.contains(2) as usize;
            left.min(right) as f64
        });
        assert!(is_core_nonempty(&g).expect("3 players"));
        assert!(is_in_core(&g, &[1.0, 0.0, 0.0], 1e-9));
        assert!(!is_in_core(&g, &[0.8, 0.1, 0.1], 1e-9));
        let lc = try_least_core(&g).expect("3 players");
        assert!(lc.epsilon <= 1e-7);
    }

    #[test]
    fn excess_signs() {
        let g = additive();
        let s = Coalition::from_players([0, 1]);
        assert!((excess(&g, &[1.0, 2.0, 3.0], s) - 0.0).abs() < 1e-12);
        assert!(excess(&g, &[0.0, 0.0, 6.0], s) > 0.0); // S complains
        assert!(excess(&g, &[3.0, 3.0, 0.0], s) < 0.0); // S over-served
    }

    #[test]
    fn try_least_core_reports_nonfinite_games() {
        // A NaN characteristic value must become a typed error, not a panic.
        let g = FnGame::new(3, |c: Coalition| if c.len() == 2 { f64::NAN } else { 1.0 });
        assert!(matches!(
            try_least_core(&g),
            Err(GameError::MalformedLp {
                context: "least core",
                ..
            })
        ));
    }

    #[test]
    fn try_least_core_rejects_empty_game() {
        let g = FnGame::new(0, |_: Coalition| 0.0);
        assert_eq!(try_least_core(&g).unwrap_err(), GameError::NoPlayers);
    }

    #[test]
    fn single_player_least_core() {
        let g = FnGame::new(1, |c: Coalition| if c.is_empty() { 0.0 } else { 7.0 });
        let lc = try_least_core(&g).expect("1 player");
        assert_eq!(lc.allocation, vec![7.0]);
        assert!(is_in_core(&g, &lc.allocation, 1e-9));
    }

    #[test]
    fn paper_threshold_game_core_nonempty_at_high_threshold() {
        // §3.2.1: as l grows, small coalitions become worthless and the
        // grand coalition's comparative value rises, turning the core
        // non-empty. With l = 1250 only N can serve the experiment.
        let l_contrib = [100.0, 400.0, 800.0];
        let g = FnGame::new(3, move |c: Coalition| {
            let total: f64 = c.players().map(|p| l_contrib[p]).sum();
            if total > 1250.0 {
                total
            } else {
                0.0
            }
        });
        assert!(is_core_nonempty(&g).expect("3 players"));
        // Equal split is in the core: no proper coalition has any value.
        let equal = vec![1300.0 / 3.0; 3];
        assert!(is_in_core(&g, &equal, 1e-9));
    }

    #[test]
    fn concave_no_threshold_game_core_can_be_empty() {
        // §3.2.1: strictly concave utility, no threshold, no multiplexing
        // (d < 1, l = 0, t = 1) — not super-additive, core empty.
        let l_contrib = [100.0, 400.0, 800.0];
        let g = FnGame::new(3, move |c: Coalition| {
            let total: f64 = c.players().map(|p| l_contrib[p]).sum();
            total.powf(0.5)
        });
        assert!(!is_core_nonempty(&g).expect("3 players"));
    }
}
