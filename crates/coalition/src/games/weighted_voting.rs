//! Weighted voting (quota) games.

use crate::coalition::{Coalition, PlayerId};
use crate::game::WideGame;

/// Weighted voting game `[q; w₁, …, wₙ]`: `V(S) = 1` iff `Σ_{i∈S} wᵢ ≥ q`.
///
/// Structurally identical to the paper's single-experiment threshold game
/// (Fig. 4): locations are votes and the diversity threshold `l` is the
/// quota — which is why the Fig. 4 share curves jump exactly at the
/// coalition weight sums.
#[derive(Debug, Clone)]
pub struct WeightedVotingGame {
    quota: f64,
    weights: Vec<f64>,
}

impl WeightedVotingGame {
    /// Creates the game `[quota; weights]`.
    ///
    /// # Panics
    /// Panics if weights are empty or any weight is negative/non-finite.
    pub fn new(quota: f64, weights: Vec<f64>) -> WeightedVotingGame {
        assert!(!weights.is_empty());
        assert!(weights.iter().all(|w| w.is_finite() && *w >= 0.0));
        WeightedVotingGame { quota, weights }
    }

    /// Total weight of a coalition.
    pub fn weight(&self, s: Coalition) -> f64 {
        s.players().map(|p| self.weights[p]).sum()
    }

    /// Whether the coalition meets the quota.
    pub fn is_winning(&self, s: Coalition) -> bool {
        self.weight(s) >= self.quota
    }
}

impl WideGame for WeightedVotingGame {
    fn n_players(&self) -> usize {
        self.weights.len()
    }

    fn value_members(&self, members: &[PlayerId]) -> f64 {
        self.is_winning(Coalition::from_players(members.iter().copied())) as u64 as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapley::shapley;

    #[test]
    fn un_security_council_style_veto() {
        // [3; 2, 1, 1]: player 0 has veto power (no win without them).
        let g = WeightedVotingGame::new(3.0, vec![2.0, 1.0, 1.0]);
        assert!(!g.is_winning(Coalition::from_players([1, 2])));
        assert!(g.is_winning(Coalition::from_players([0, 1])));
        let phi = shapley(&g);
        // Orders where 0 pivots: all where 0 arrives second or third =
        // 4 of 6 ⇒ ϕ₀ = 2/3; symmetry gives 1/6 each to the others.
        assert!((phi[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((phi[1] - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn dummy_player_gets_zero() {
        // [5; 3, 3, 1]: player 2 never pivots (3 < 5, 3+1 < 5... actually
        // 3+3 ≥ 5 without them and 3+1 < 5): dummy.
        let g = WeightedVotingGame::new(5.0, vec![3.0, 3.0, 1.0]);
        let phi = shapley(&g);
        assert!(phi[2].abs() < 1e-12);
        assert!((phi[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shapley_shares_match_paper_fig4_structure() {
        // The paper's Fig. 4 game at threshold l = 500 with L = (100,400,800)
        // has the same *pivot structure* as [500; 100, 400, 800] — the
        // winning coalitions coincide.
        let g = WeightedVotingGame::new(500.0, vec![100.0, 400.0, 800.0]);
        assert!(!g.is_winning(Coalition::from_players([0])));
        assert!(!g.is_winning(Coalition::from_players([1])));
        assert!(g.is_winning(Coalition::from_players([2])));
        assert!(g.is_winning(Coalition::from_players([0, 1])));
    }
}
