//! The nucleolus (Schmeidler 1969), computed with the classical successive
//! linear-programming scheme.
//!
//! The nucleolus is the unique allocation that lexicographically minimizes
//! the sorted vector of coalition excesses — "max-min fairness over
//! coalitions", as §3.2.3 of the paper puts it. The paper notes that the
//! nucleolus always lies in the core when the core is non-empty, but that
//! its shares are largely decoupled from contribution, which is why the
//! Shapley value is preferred for incentive design. We implement it so the
//! policy benches can make that comparison concrete.
//!
//! # Algorithm
//!
//! Kopelowitz's successive LPs: minimize the maximal excess ε; among the
//! optima, freeze the coalitions whose excess is ε in *every* optimum
//! (detected with one auxiliary LP per candidate coalition); recurse on the
//! remaining coalitions until the allocation is pinned down (the frozen
//! equality system reaches rank `n`). Each LP has `O(2^n)` rows, so this is
//! practical for the `n ≤ ~10` federations the paper targets.

use crate::coalition::Coalition;
use crate::error::GameError;
use crate::game::WideGame;
use fedval_simplex::{LinearProgram, Objective, Relation, Status};

/// Numerical tolerance for tightness decisions between LP stages.
const TOL: f64 = 1e-7;

/// Largest player count the nucleolus LP cascade enumerates: each of up to
/// `n` stages solves an LP over the `2^n − 2` proper coalitions, so the cap
/// sits lower than the single-shot least-core's
/// [`LEAST_CORE_MAX_PLAYERS`](crate::core_solution::LEAST_CORE_MAX_PLAYERS).
/// Above it, use the sampled Shapley estimators ([`crate::shapley_auto_wide`])
/// for sharing weights.
pub const NUCLEOLUS_MAX_PLAYERS: usize = 12;

/// Computes the nucleolus allocation.
///
/// # Panics
/// Panics where [`try_nucleolus`] would return an error: `n == 0`, `n > 12`
/// (LP cascade becomes impractical), or an internal LP failure — which
/// cannot happen for a well-formed finite game.
pub fn nucleolus<G: WideGame>(game: &G) -> Vec<f64> {
    match try_nucleolus(game) {
        Ok(x) => x,
        // lint: allow(no-panic-path) — documented `# Panics` convenience
        // wrapper; fallible callers use the try_ variant instead.
        Err(e) => panic!("nucleolus: {e}"),
    }
}

/// Computes the nucleolus allocation, reporting failures as [`GameError`]
/// instead of panicking — the entry point for degraded-mode pipelines.
///
/// # Errors
/// [`GameError::NoPlayers`] for an empty game, [`GameError::TooManyPlayers`]
/// above [`NUCLEOLUS_MAX_PLAYERS`] players (the LP cascade becomes
/// impractical), or [`GameError::MalformedLp`] when the characteristic
/// function produces NaN or infinite values.
pub fn try_nucleolus<G: WideGame>(game: &G) -> Result<Vec<f64>, GameError> {
    let n = game.n_players();
    if n == 0 {
        return Err(GameError::NoPlayers);
    }
    if n > NUCLEOLUS_MAX_PLAYERS {
        return Err(GameError::TooManyPlayers {
            n,
            max: NUCLEOLUS_MAX_PLAYERS,
            solver: "nucleolus",
        });
    }
    if n == 1 {
        return Ok(vec![game.grand_value()]);
    }
    let _span = fedval_obs::span_with("coalition.nucleolus.solve", || format!("n={n}"));

    let grand = Coalition::grand(n);
    let proper: Vec<Coalition> = Coalition::all(n)
        .filter(|&s| !s.is_empty() && s != grand)
        .collect();

    // Frozen coalitions and the excess level they were frozen at.
    let mut frozen: Vec<(Coalition, f64)> = Vec::new();
    let mut active: Vec<Coalition> = proper.clone();

    loop {
        fedval_obs::counter_add("coalition.nucleolus.stages", 1);
        let (eps, x) = solve_stage(game, n, &frozen, &active, None)?;

        // Which active coalitions are tight at *every* optimum? Coalition S
        // is frozen iff max x(S) over the optimal face equals V(S) − ε.
        let mut still_active = Vec::new();
        let mut newly_frozen = 0usize;
        for &s in &active {
            let max_xs = maximize_coalition_payoff(game, n, &frozen, &active, eps, s)?;
            if max_xs <= game.value(s) - eps + TOL {
                frozen.push((s, eps));
                newly_frozen += 1;
            } else {
                still_active.push(s);
            }
        }
        if newly_frozen == 0 {
            // Every stage must freeze at least one coalition; a stage that
            // freezes none would loop forever on the same LP.
            return Err(GameError::NumericallyStuck {
                context: "nucleolus",
            });
        }
        active = still_active;

        if active.is_empty() || equality_rank(n, &frozen) >= n {
            // x from the last stage is the nucleolus (unique at this point).
            return Ok(x);
        }
    }
}

/// Solves one stage LP.
///
/// Minimizes ε subject to
/// `x(S) + ε ≥ V(S)` for active S, `x(T) = V(T) − ε_T` for frozen (T, ε_T),
/// and `x(N) = V(N)`. When `fix_eps` is `Some((ε*, s*))` the LP instead
/// *maximizes* `x(s*)` with ε fixed at ε\* — used for the tightness test.
fn solve_stage<G: WideGame>(
    game: &G,
    n: usize,
    frozen: &[(Coalition, f64)],
    active: &[Coalition],
    fix_eps: Option<(f64, Coalition)>,
) -> Result<(f64, Vec<f64>), GameError> {
    let mut lp = LinearProgram::new(
        0,
        if fix_eps.is_some() {
            Objective::Maximize
        } else {
            Objective::Minimize
        },
    );
    let x_pairs: Vec<(usize, usize)> = (0..n).map(|_| lp.add_free_variable_pair()).collect();
    let eps_pair = lp.add_free_variable_pair();
    let n_vars = lp.n_vars();

    match fix_eps {
        None => {
            lp.set_objective_coefficient(eps_pair.0, 1.0);
            lp.set_objective_coefficient(eps_pair.1, -1.0);
        }
        Some((_, target)) => {
            for p in target.players() {
                lp.set_objective_coefficient(x_pairs[p].0, 1.0);
                lp.set_objective_coefficient(x_pairs[p].1, -1.0);
            }
        }
    }

    let row = |s: Coalition, eps_coeff: f64| -> Vec<f64> {
        let mut r = vec![0.0; n_vars];
        for p in s.players() {
            r[x_pairs[p].0] = 1.0;
            r[x_pairs[p].1] = -1.0;
        }
        r[eps_pair.0] = eps_coeff;
        r[eps_pair.1] = -eps_coeff;
        r
    };

    for &s in active {
        lp.add_constraint(row(s, 1.0), Relation::Ge, game.value(s));
    }
    for &(t, eps_t) in frozen {
        lp.add_constraint(row(t, 0.0), Relation::Eq, game.value(t) - eps_t);
    }
    lp.add_constraint(
        row(Coalition::grand(n), 0.0),
        Relation::Eq,
        game.grand_value(),
    );
    if let Some((eps_star, _)) = fix_eps {
        lp.add_constraint(row(Coalition::EMPTY, 1.0), Relation::Eq, eps_star);
    }

    fedval_obs::counter_add("coalition.nucleolus.lp_solves", 1);
    let sol = lp.solve().map_err(|source| GameError::MalformedLp {
        context: "nucleolus stage",
        source,
    })?;
    if sol.status != Status::Optimal {
        return Err(GameError::LpNotOptimal {
            context: "nucleolus stage",
            status: sol.status,
        });
    }
    let x: Vec<f64> = x_pairs
        .iter()
        .map(|&pair| LinearProgram::free_value(&sol.x, pair))
        .collect();
    let eps = LinearProgram::free_value(&sol.x, eps_pair);
    Ok((eps, x))
}

/// Max of `x(s)` over the optimal face of the stage LP (ε fixed at `eps`).
fn maximize_coalition_payoff<G: WideGame>(
    game: &G,
    n: usize,
    frozen: &[(Coalition, f64)],
    active: &[Coalition],
    eps: f64,
    s: Coalition,
) -> Result<f64, GameError> {
    let (_, x) = solve_stage(game, n, frozen, active, Some((eps, s)))?;
    Ok(s.players().map(|p| x[p]).sum())
}

/// Rank of the incidence vectors of the frozen coalitions plus the grand
/// coalition (Gaussian elimination over ℝ).
fn equality_rank(n: usize, frozen: &[(Coalition, f64)]) -> usize {
    let mut rows: Vec<Vec<f64>> = frozen
        .iter()
        .map(|&(s, _)| (0..n).map(|p| s.contains(p) as u64 as f64).collect())
        .collect();
    rows.push(vec![1.0; n]); // efficiency row

    let mut rank = 0;
    for col in 0..n {
        let Some(pivot) = (rank..rows.len()).find(|&r| rows[r][col].abs() > 1e-9) else {
            continue;
        };
        rows.swap(rank, pivot);
        let pivot_val = rows[rank][col];
        for r in 0..rows.len() {
            if r != rank && rows[r][col].abs() > 1e-12 {
                let f = rows[r][col] / pivot_val;
                // why: Gaussian elimination reads row/col indices off the
                // math; a zip over two mutable row slices would not.
                #[allow(clippy::needless_range_loop)]
                for c in col..n {
                    let delta = f * rows[rank][c];
                    rows[r][c] -= delta;
                }
            }
        }
        rank += 1;
        if rank == rows.len() {
            break;
        }
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core_solution::{is_core_nonempty, is_in_core};
    use crate::game::FnGame;

    fn assert_vec_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} != {b:?}");
        }
    }

    /// Bankruptcy game: V(S) = max(0, E − Σ_{j∉S} dⱼ).
    fn bankruptcy(estate: f64, claims: Vec<f64>) -> FnGame<impl Fn(Coalition) -> f64 + Sync> {
        let n = claims.len();
        FnGame::new(n, move |c: Coalition| {
            let outside: f64 = (0..n).filter(|&j| !c.contains(j)).map(|j| claims[j]).sum();
            (estate - outside).max(0.0)
        })
    }

    // Aumann–Maschler (1985): the nucleolus of the bankruptcy game equals
    // the Talmud division. The three classic Talmud cases, d = (100,200,300):

    #[test]
    fn talmud_estate_100() {
        let x = nucleolus(&bankruptcy(100.0, vec![100.0, 200.0, 300.0]));
        assert_vec_close(&x, &[100.0 / 3.0, 100.0 / 3.0, 100.0 / 3.0], 1e-6);
    }

    #[test]
    fn talmud_estate_200() {
        let x = nucleolus(&bankruptcy(200.0, vec![100.0, 200.0, 300.0]));
        assert_vec_close(&x, &[50.0, 75.0, 75.0], 1e-6);
    }

    #[test]
    fn talmud_estate_300() {
        let x = nucleolus(&bankruptcy(300.0, vec![100.0, 200.0, 300.0]));
        assert_vec_close(&x, &[50.0, 100.0, 150.0], 1e-6);
    }

    #[test]
    fn two_player_standard_solution() {
        // For 2 players the nucleolus splits the cooperative surplus evenly:
        // xᵢ = V({i}) + (V(N) − V({1}) − V({2}))/2.
        let g = FnGame::new(2, |c: Coalition| match (c.contains(0), c.contains(1)) {
            (true, true) => 10.0,
            (true, false) => 2.0,
            (false, true) => 4.0,
            (false, false) => 0.0,
        });
        let x = nucleolus(&g);
        assert_vec_close(&x, &[4.0, 6.0], 1e-7);
    }

    #[test]
    fn symmetric_game_equal_split() {
        let g = FnGame::new(4, |c: Coalition| (c.len() as f64).powi(2));
        let x = nucleolus(&g);
        assert_vec_close(&x, &[4.0; 4], 1e-6);
    }

    #[test]
    fn nucleolus_is_efficient_and_in_nonempty_core() {
        // Convex game ⇒ non-empty core containing the nucleolus.
        let g = FnGame::new(4, |c: Coalition| (c.len() as f64).powi(2));
        assert!(is_core_nonempty(&g));
        let x = nucleolus(&g);
        assert!((x.iter().sum::<f64>() - g.grand_value()).abs() < 1e-6);
        assert!(is_in_core(&g, &x, 1e-6));
    }

    #[test]
    fn majority_game_nucleolus_is_symmetric() {
        // Empty-core games still have a nucleolus (it is always defined).
        let g = FnGame::new(3, |c: Coalition| (c.len() >= 2) as u64 as f64);
        let x = nucleolus(&g);
        assert_vec_close(&x, &[1.0 / 3.0; 3], 1e-6);
    }

    #[test]
    fn try_nucleolus_reports_nonfinite_games() {
        let g = FnGame::new(3, |c: Coalition| if c.len() == 1 { f64::INFINITY } else { 0.0 });
        assert!(matches!(
            try_nucleolus(&g),
            Err(GameError::MalformedLp { context: "nucleolus stage", .. })
        ));
    }

    #[test]
    fn try_nucleolus_rejects_oversized_games() {
        let g = FnGame::new(13, |c: Coalition| c.len() as f64);
        assert_eq!(
            try_nucleolus(&g).unwrap_err(),
            GameError::TooManyPlayers {
                n: 13,
                max: 12,
                solver: "nucleolus",
            }
        );
    }

    #[test]
    fn paper_threshold_game_nucleolus() {
        // §4.1 game at l = 500: V({3})=800, V({1,3})=900,
        // V({2,3})=1200, V(N)=1300.
        let l_contrib = [100.0, 400.0, 800.0];
        let g = FnGame::new(3, move |c: Coalition| {
            let total: f64 = c.players().map(|p| l_contrib[p]).sum();
            if total > 500.0 {
                total
            } else {
                0.0
            }
        });
        let x = nucleolus(&g);
        // Efficiency plus: nucleolus must dominate each singleton value.
        assert!((x.iter().sum::<f64>() - 1300.0).abs() < 1e-6);
        assert!(x[2] >= 800.0 - 1e-6);
    }
}
