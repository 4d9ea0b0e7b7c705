//! The τ-value (Tijs 1981) — a compromise solution between utopia and
//! minimal-rights payoffs.
//!
//! Another single-point solution concept for the policy comparison suite.
//! Player `i`'s *utopia payoff* is the marginal contribution to the grand
//! coalition, `Mᵢ = V(N) − V(N∖{i})` (more is never stable); the
//! *minimal right* is the best `i` can guarantee by paying everyone else
//! their utopia payoffs in some coalition:
//! `mᵢ = max_{S ∋ i} [V(S) − Σ_{j∈S∖{i}} Mⱼ]`. The τ-value is the unique
//! efficient point on the segment `[m, M]`.
//!
//! Defined for *quasi-balanced* games (`m ≤ M` component-wise and
//! `Σm ≤ V(N) ≤ ΣM`); [`tau_value`] reports `None` otherwise. Like the
//! nucleolus it is contribution-aware but cheaper — `O(n·2ⁿ)` with no
//! LPs — a useful middle ground for the sharing-scheme comparisons.

use crate::coalition::Coalition;
use crate::game::WideGame;

/// Utopia payoffs `Mᵢ = V(N) − V(N∖{i})`.
pub fn utopia_payoffs<G: WideGame>(game: &G) -> Vec<f64> {
    let n = game.n_players();
    let grand = Coalition::grand(n);
    let vn = game.grand_value();
    (0..n).map(|i| vn - game.value(grand.without(i))).collect()
}

/// Minimal rights `mᵢ = max_{S ∋ i} [V(S) − Σ_{j ∈ S∖{i}} Mⱼ]`.
pub fn minimal_rights<G: WideGame>(game: &G) -> Vec<f64> {
    let n = game.n_players();
    let utopia = utopia_payoffs(game);
    (0..n)
        .map(|i| {
            let others = Coalition::grand(n).without(i);
            others
                .subsets()
                .map(|s| {
                    let coalition = s.with(i);
                    let concessions: f64 = s.players().map(|j| utopia[j]).sum();
                    game.value(coalition) - concessions
                })
                .fold(f64::NEG_INFINITY, f64::max)
        })
        .collect()
}

/// The τ-value, or `None` when the game is not quasi-balanced.
pub fn tau_value<G: WideGame>(game: &G) -> Option<Vec<f64>> {
    let utopia = utopia_payoffs(game);
    let rights = minimal_rights(game);
    let tol = 1e-9;
    if rights
        .iter()
        .zip(&utopia)
        .any(|(&m, &big_m)| m > big_m + tol)
    {
        return None;
    }
    let vn = game.grand_value();
    let sum_m: f64 = rights.iter().sum();
    let sum_big: f64 = utopia.iter().sum();
    if vn < sum_m - tol || vn > sum_big + tol {
        return None;
    }
    if (sum_big - sum_m).abs() < tol {
        // Segment degenerates to a point; it must be efficient.
        return Some(rights);
    }
    let alpha = (vn - sum_m) / (sum_big - sum_m);
    Some(
        rights
            .iter()
            .zip(&utopia)
            .map(|(m, big_m)| m + alpha * (big_m - m))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::FnGame;

    fn worked_example() -> FnGame<impl Fn(Coalition) -> f64 + Sync> {
        let contrib = [100.0, 400.0, 800.0];
        FnGame::new(3, move |c: Coalition| {
            let total: f64 = c.players().map(|p| contrib[p]).sum();
            if total > 500.0 {
                total
            } else {
                0.0
            }
        })
    }

    #[test]
    fn utopia_payoffs_are_grand_marginals() {
        let g = worked_example();
        let m = utopia_payoffs(&g);
        // M₁ = 1300 − V({2,3}) = 100;  M₂ = 1300 − V({1,3}) = 400;
        // M₃ = 1300 − V({1,2}) = 1300 (strict threshold: V({1,2}) = 0).
        assert_eq!(m, vec![100.0, 400.0, 1300.0]);
    }

    #[test]
    fn tau_is_efficient_and_between_bounds() {
        let g = worked_example();
        let tau = tau_value(&g).expect("quasi-balanced");
        let total: f64 = tau.iter().sum();
        assert!((total - 1300.0).abs() < 1e-9);
        let rights = minimal_rights(&g);
        let utopia = utopia_payoffs(&g);
        for i in 0..3 {
            assert!(tau[i] >= rights[i] - 1e-9);
            assert!(tau[i] <= utopia[i] + 1e-9);
        }
        // Facility 3 dominates, as with Shapley and the nucleolus.
        assert!(tau[2] > tau[0] && tau[2] > tau[1]);
    }

    #[test]
    fn additive_game_tau_is_singleton_vector() {
        let a = [3.0, 6.0, 9.0];
        let g = FnGame::new(3, move |c: Coalition| {
            c.players().map(|p| a[p]).sum::<f64>()
        });
        let tau = tau_value(&g).unwrap();
        for (t, expect) in tau.iter().zip(&a) {
            assert!((t - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn symmetric_game_tau_is_equal_split() {
        let g = FnGame::new(4, |c: Coalition| (c.len() as f64).powi(2));
        let tau = tau_value(&g).unwrap();
        for t in &tau {
            assert!((t - 4.0).abs() < 1e-9);
        }
    }

    #[test]
    fn unbalanced_game_reports_none() {
        // Subadditive game: utopia payoffs collapse below minimal rights.
        let g = FnGame::new(3, |c: Coalition| (c.len() as f64).sqrt());
        // √ game: M_i = √3 − √2 ≈ 0.318 each, ΣM ≈ 0.95 < V(N) ≈ 1.73.
        assert!(tau_value(&g).is_none());
    }

    #[test]
    fn tau_matches_shapley_on_two_player_games() {
        // For n = 2 every standard solution is the standard solution.
        let g = FnGame::new(2, |c: Coalition| match (c.contains(0), c.contains(1)) {
            (true, true) => 10.0,
            (true, false) => 2.0,
            (false, true) => 4.0,
            (false, false) => 0.0,
        });
        let tau = tau_value(&g).unwrap();
        let phi = crate::shapley::shapley(&crate::game::tests::table_of(&g));
        for (t, p) in tau.iter().zip(&phi) {
            assert!((t - p).abs() < 1e-9);
        }
    }
}
