//! Weighted Shapley values (Shapley 1953b, Kalai–Samet 1987).
//!
//! The symmetric Shapley value treats players as interchangeable; the
//! *weighted* value biases the division of each Harsanyi dividend by
//! positive player weights:
//!
//! ```text
//! ϕᵂᵢ(V) = Σ_{S ∋ i} d(S) · wᵢ / Σ_{j∈S} wⱼ
//! ```
//!
//! In the federation setting weights are natural: §2.1 notes facilities
//! are "also characterized by their affiliated users and/or customers
//! Uᵢ … part of their contribution to the total profit generated". Using
//! `wᵢ = Uᵢ` gives a sharing rule that combines resource synergy (through
//! the dividends) with customer base (through the weights) — the Aram et
//! al. ownership dimension the paper cites.

use crate::coalition::Coalition;
use crate::dividends::harsanyi_dividends;
use crate::game::WideGame;
use fedval_simplex::approx::{is_zero, NOISE_EPS};

/// Weighted Shapley value with positive weights `w` (one per player).
///
/// Reduces to the symmetric Shapley value when all weights are equal.
///
/// # Panics
/// Panics unless `w.len() == n` and every weight is positive and finite.
pub fn weighted_shapley<G: WideGame>(game: &G, w: &[f64]) -> Vec<f64> {
    let n = game.n_players();
    assert_eq!(w.len(), n, "one weight per player");
    assert!(
        w.iter().all(|&x| x > 0.0 && x.is_finite()),
        "weights must be positive and finite"
    );
    let d = harsanyi_dividends(game);
    let mut phi = vec![0.0; n];
    for (mask, &div) in d.iter().enumerate() {
        if mask == 0 || is_zero(div, NOISE_EPS) {
            continue;
        }
        let s = Coalition(mask as u64);
        let total_w: f64 = s.players().map(|p| w[p]).sum();
        for p in s.players() {
            phi[p] += div * w[p] / total_w;
        }
    }
    phi
}

/// Normalized weighted Shapley shares (sum to one; zeros for a valueless
/// game).
pub fn weighted_shapley_normalized<G: WideGame>(game: &G, w: &[f64]) -> Vec<f64> {
    let phi = weighted_shapley(game, w);
    crate::shapley::normalize(phi, game.grand_value())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::FnGame;
    use crate::shapley::shapley;

    #[test]
    fn equal_weights_recover_symmetric_shapley() {
        let g = FnGame::new(4, |c: Coalition| {
            let s: f64 = c.players().map(|p| (p + 2) as f64).sum();
            if s >= 6.0 {
                s * s
            } else {
                0.0
            }
        });
        let sym = shapley(&g);
        let wtd = weighted_shapley(&g, &[3.0; 4]);
        for (a, b) in sym.iter().zip(&wtd) {
            assert!((a - b).abs() < 1e-9, "{sym:?} vs {wtd:?}");
        }
    }

    #[test]
    fn weighted_value_is_efficient() {
        let g = FnGame::new(3, |c: Coalition| (c.len() as f64).powi(2));
        let w = [1.0, 2.0, 5.0];
        let phi = weighted_shapley(&g, &w);
        let total: f64 = phi.iter().sum();
        assert!((total - g.grand_value()).abs() < 1e-9);
    }

    #[test]
    fn unanimity_dividend_splits_by_weight() {
        // u_{0,1} with weight 6: weights (1, 2) ⇒ (2, 4).
        let t = Coalition::from_players([0, 1]);
        let g = FnGame::new(
            2,
            move |c: Coalition| {
                if t.is_subset_of(c) {
                    6.0
                } else {
                    0.0
                }
            },
        );
        let phi = weighted_shapley(&g, &[1.0, 2.0]);
        assert!((phi[0] - 2.0).abs() < 1e-12);
        assert!((phi[1] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn additive_game_is_weight_insensitive() {
        // No synergy ⇒ all dividends are singletons ⇒ weights cannot move
        // value between players.
        let a = [5.0, 7.0, 11.0];
        let g = FnGame::new(3, move |c: Coalition| {
            c.players().map(|p| a[p]).sum::<f64>()
        });
        let phi = weighted_shapley(&g, &[10.0, 1.0, 0.1]);
        for (i, &ai) in a.iter().enumerate() {
            assert!((phi[i] - ai).abs() < 1e-9);
        }
    }

    #[test]
    fn user_weights_shift_federation_shares() {
        // The paper's worked example with facility 1 carrying many users:
        // its share of every synergy dividend rises.
        let l_contrib = [100.0, 400.0, 800.0];
        let g = FnGame::new(3, move |c: Coalition| {
            let total: f64 = c.players().map(|p| l_contrib[p]).sum();
            if total > 500.0 {
                total
            } else {
                0.0
            }
        });
        let sym = weighted_shapley_normalized(&g, &[1.0, 1.0, 1.0]);
        let heavy1 = weighted_shapley_normalized(&g, &[10.0, 1.0, 1.0]);
        assert!(heavy1[0] > sym[0]);
        assert!((heavy1.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_weights() {
        let g = FnGame::new(2, |c: Coalition| c.len() as f64);
        let _ = weighted_shapley(&g, &[1.0, 0.0]);
    }
}
