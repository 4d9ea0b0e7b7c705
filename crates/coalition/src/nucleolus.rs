//! The nucleolus (Schmeidler 1969), computed with successive linear
//! programs in column form.
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
//! Kopelowitz's successive LPs: minimize the largest excess ε over the
//! active coalitions; freeze coalitions whose excess is ε in *every*
//! optimum; recurse on the rest until the frozen equalities pin the
//! allocation down (their incidence vectors reach rank `n`).
//!
//! Each stage is the least-core LP over the active coalitions, solved in
//! column form (`n + 1` rows, one column per active coalition; see the
//! crate's least-core stage builder). Its optimal dual weights name the
//! coalitions to freeze: by complementary slackness a coalition with
//! positive weight is tight at every optimum (Kohlberg 1971; Benedek,
//! Fliege & Nguyen, *Finding and verifying the nucleolus of cooperative
//! games*, Math. Programming 2021), so no per-coalition test LP is needed.
//! A stage freezes only coalitions independent of the frozen span, and the
//! weights sum to 1 over active coalitions outside that span, so every
//! stage raises the rank: at most `n − 1` stage LPs in all. Active
//! coalitions that fall into the span have a fixed excess and are dropped.

use crate::coalition::Coalition;
use crate::core_solution::{excess, solve_stage};
use crate::error::GameError;
use crate::game::WideGame;

/// Numerical tolerance for tightness decisions between LP stages.
const TOL: f64 = 1e-7;

/// Largest player count the nucleolus enumerates: each of up to `n − 1`
/// stages solves an LP with a column per active coalition (up to
/// `2^n − 2`), so the cap sits lower than the single-shot least-core's
/// [`LEAST_CORE_MAX_PLAYERS`](crate::core_solution::LEAST_CORE_MAX_PLAYERS).
/// Above it, use the sampled Shapley estimators ([`crate::shapley_auto_wide`])
/// for sharing weights.
pub const NUCLEOLUS_MAX_PLAYERS: usize = 12;

/// Computes the nucleolus allocation.
///
/// # Errors
/// [`GameError::NoPlayers`] for an empty game, [`GameError::TooManyPlayers`]
/// above [`NUCLEOLUS_MAX_PLAYERS`] players, [`GameError::MalformedLp`]
/// when the characteristic function produces NaN or infinite values, or
/// [`GameError::LpNotOptimal`] / [`GameError::NumericallyStuck`] when a
/// stage LP fails numerically.
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
    let mut span = FrozenSpan::default();
    span.insert(n, grand);
    // Frozen coalitions with the payoff `x(T) = V(T) − ε_T` they keep.
    let mut frozen = vec![(grand, game.grand_value())];
    let mut active: Vec<Coalition> = Coalition::all(n)
        .filter(|&s| !s.is_empty() && s != grand)
        .collect();
    let tight = TOL * game.grand_value().abs().max(1.0);

    loop {
        fedval_obs::counter_add("coalition.nucleolus.stages", 1);
        fedval_obs::counter_add("coalition.nucleolus.lp_solves", 1);
        let stage = solve_stage(game, &active, &frozen, "nucleolus stage")?;
        let x = stage.allocation;

        let mut newly_frozen = 0usize;
        for (&s, &y) in active.iter().zip(&stage.weights) {
            if y > TOL && (excess(game, &x, s) - stage.epsilon).abs() <= tight && span.insert(n, s)
            {
                frozen.push((s, game.value(s) - stage.epsilon));
                newly_frozen += 1;
            }
        }
        if newly_frozen == 0 {
            // The weights sum to 1 over coalitions outside the span, so only
            // numerical trouble leaves a stage with nothing to freeze; the
            // next stage would repeat this one.
            return Err(GameError::NumericallyStuck {
                context: "nucleolus",
            });
        }
        if span.rank() == n {
            // The frozen equalities pin x down: it is the nucleolus.
            return Ok(x);
        }
        active.retain(|&s| !span.contains(n, s));
    }
}

/// The span of the frozen coalitions' incidence vectors, kept in echelon
/// form: each row is 1 at its pivot column and 0 at the pivots of the rows
/// before it, so reducing a vector by the rows in order leaves its
/// component outside the span.
#[derive(Default)]
struct FrozenSpan {
    rows: Vec<(usize, Vec<f64>)>,
}

impl FrozenSpan {
    /// Entries below this magnitude count as zero; incidence vectors have
    /// 0/1 entries, so real residuals sit far above it.
    const ZERO: f64 = 1e-9;

    fn residual(&self, n: usize, s: Coalition) -> Vec<f64> {
        let mut v: Vec<f64> = (0..n).map(|p| f64::from(u8::from(s.contains(p)))).collect();
        for (pivot, row) in &self.rows {
            let f = v[*pivot];
            for (a, b) in v.iter_mut().zip(row) {
                *a -= f * b;
            }
        }
        v
    }

    fn contains(&self, n: usize, s: Coalition) -> bool {
        self.residual(n, s).iter().all(|v| v.abs() <= Self::ZERO)
    }

    /// Adds `s` to the span; false (and no change) when it is already in it.
    fn insert(&mut self, n: usize, s: Coalition) -> bool {
        let mut v = self.residual(n, s);
        let Some(pivot) = (0..n)
            .filter(|&p| v[p].abs() > Self::ZERO)
            .max_by(|&a, &b| v[a].abs().total_cmp(&v[b].abs()))
        else {
            return false;
        };
        let scale = v[pivot];
        for a in &mut v {
            *a /= scale;
        }
        self.rows.push((pivot, v));
        true
    }

    fn rank(&self) -> usize {
        self.rows.len()
    }
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
        let x = try_nucleolus(&bankruptcy(100.0, vec![100.0, 200.0, 300.0])).expect("3 players");
        assert_vec_close(&x, &[100.0 / 3.0, 100.0 / 3.0, 100.0 / 3.0], 1e-6);
    }

    #[test]
    fn talmud_estate_200() {
        let x = try_nucleolus(&bankruptcy(200.0, vec![100.0, 200.0, 300.0])).expect("3 players");
        assert_vec_close(&x, &[50.0, 75.0, 75.0], 1e-6);
    }

    #[test]
    fn talmud_estate_300() {
        let x = try_nucleolus(&bankruptcy(300.0, vec![100.0, 200.0, 300.0])).expect("3 players");
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
        let x = try_nucleolus(&g).expect("nucleolus solves");
        assert_vec_close(&x, &[4.0, 6.0], 1e-7);
    }

    #[test]
    fn symmetric_game_equal_split() {
        let g = FnGame::new(4, |c: Coalition| (c.len() as f64).powi(2));
        let x = try_nucleolus(&g).expect("nucleolus solves");
        assert_vec_close(&x, &[4.0; 4], 1e-6);
    }

    #[test]
    fn nucleolus_is_efficient_and_in_nonempty_core() {
        // Convex game ⇒ non-empty core containing the nucleolus.
        let g = FnGame::new(4, |c: Coalition| (c.len() as f64).powi(2));
        assert!(is_core_nonempty(&g).expect("4 players"));
        let x = try_nucleolus(&g).expect("nucleolus solves");
        assert!((x.iter().sum::<f64>() - g.grand_value()).abs() < 1e-6);
        assert!(is_in_core(&g, &x, 1e-6));
    }

    #[test]
    fn majority_game_nucleolus_is_symmetric() {
        // Empty-core games still have a nucleolus (it is always defined).
        let g = FnGame::new(3, |c: Coalition| (c.len() >= 2) as u64 as f64);
        let x = try_nucleolus(&g).expect("nucleolus solves");
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
        let x = try_nucleolus(&g).expect("nucleolus solves");
        // Efficiency plus: nucleolus must dominate each singleton value.
        assert!((x.iter().sum::<f64>() - 1300.0).abs() < 1e-6);
        assert!(x[2] >= 800.0 - 1e-6);
    }
}
