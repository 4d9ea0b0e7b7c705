//! The glove (market) game: value comes from matched pairs of complementary
//! goods — the sharpest toy model of the paper's "value of diversity".

use crate::coalition::PlayerId;
use crate::game::WideGame;

/// Glove game: players `0..n_left` hold left gloves, the rest hold right
/// gloves; `V(S)` = number of complete pairs `S` can assemble.
///
/// The scarce side captures (almost) all the value — the same economics as
/// a federation where one facility holds the only nodes in a needed region.
#[derive(Debug, Clone, Copy)]
pub struct GloveGame {
    n_left: usize,
    n_right: usize,
}

impl GloveGame {
    /// Creates a game with `n_left` left-glove and `n_right` right-glove
    /// holders.
    ///
    /// # Panics
    /// Panics if there are no players or more than 64.
    pub fn new(n_left: usize, n_right: usize) -> GloveGame {
        assert!(n_left + n_right >= 1);
        assert!(n_left + n_right <= 64);
        GloveGame { n_left, n_right }
    }

    /// Whether player `i` holds a left glove.
    pub fn is_left(&self, i: usize) -> bool {
        i < self.n_left
    }
}

impl WideGame for GloveGame {
    fn n_players(&self) -> usize {
        self.n_left + self.n_right
    }

    fn value_members(&self, members: &[PlayerId]) -> f64 {
        let left = members.iter().filter(|&&p| self.is_left(p)).count();
        let right = members.len() - left;
        left.min(right) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core_solution::{is_core_nonempty, is_in_core};
    use crate::game::tests::table_of;
    use crate::shapley::shapley;

    #[test]
    fn one_left_two_right_shapley() {
        let g = GloveGame::new(1, 2);
        let phi = shapley(&table_of(&g));
        assert!((phi[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((phi[1] - 1.0 / 6.0).abs() < 1e-12);
        assert!((phi[2] - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn balanced_market_splits_evenly() {
        let g = GloveGame::new(2, 2);
        let phi = shapley(&table_of(&g));
        let total: f64 = phi.iter().sum();
        assert!((total - 2.0).abs() < 1e-9);
        assert!((phi[0] - phi[1]).abs() < 1e-12);
        assert!((phi[2] - phi[3]).abs() < 1e-12);
        // Symmetric market: everybody gets 1/2.
        assert!((phi[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn scarce_side_takes_all_in_core() {
        let g = GloveGame::new(1, 3);
        assert!(is_core_nonempty(&g).expect("4 players"));
        assert!(is_in_core(&g, &[1.0, 0.0, 0.0, 0.0], 1e-9));
        assert!(!is_in_core(&g, &[0.7, 0.1, 0.1, 0.1], 1e-9));
    }

    #[test]
    fn shapley_more_moderate_than_core() {
        // Shapley tempers the winner-take-all core outcome — the property
        // the paper relies on for "fair" federation sharing.
        let g = GloveGame::new(1, 3);
        let phi = shapley(&table_of(&g));
        assert!(phi[0] < 1.0 && phi[0] > 0.5);
        assert!(phi[1] > 0.0);
    }
}
