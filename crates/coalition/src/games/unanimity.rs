//! Unanimity games — the basis of the space of coalitional games.

use crate::coalition::{Coalition, PlayerId};
use crate::game::WideGame;

/// Unanimity game `u_T`: `V(S) = weight` iff `T ⊆ S`, else 0.
///
/// Any coalitional game decomposes uniquely as a weighted sum of unanimity
/// games with Harsanyi dividends as weights, so these games are the natural
/// fixture for testing linearity-based code paths.
#[derive(Debug, Clone, Copy)]
pub struct UnanimityGame {
    n: usize,
    carrier: Coalition,
    weight: f64,
}

impl UnanimityGame {
    /// Creates `u_T` over `n` players with the given carrier `T` and weight.
    ///
    /// # Panics
    /// Panics if the carrier is empty or not contained in the grand
    /// coalition of `n` players.
    pub fn new(n: usize, carrier: Coalition, weight: f64) -> UnanimityGame {
        assert!(!carrier.is_empty(), "carrier must be non-empty");
        assert!(carrier.is_subset_of(Coalition::grand(n)));
        UnanimityGame { n, carrier, weight }
    }

    /// The carrier coalition `T`.
    pub fn carrier(&self) -> Coalition {
        self.carrier
    }
}

impl WideGame for UnanimityGame {
    fn n_players(&self) -> usize {
        self.n
    }

    fn value_members(&self, members: &[PlayerId]) -> f64 {
        if self
            .carrier
            .players()
            .all(|p| members.binary_search(&p).is_ok())
        {
            self.weight
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nucleolus::nucleolus;
    use crate::shapley::shapley;

    #[test]
    fn shapley_splits_weight_over_carrier() {
        let t = Coalition::from_players([1, 3]);
        let g = UnanimityGame::new(4, t, 6.0);
        let phi = shapley(&g);
        assert_eq!(phi[0], 0.0);
        assert!((phi[1] - 3.0).abs() < 1e-12);
        assert_eq!(phi[2], 0.0);
        assert!((phi[3] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn nucleolus_also_splits_over_carrier() {
        let t = Coalition::from_players([0, 2]);
        let g = UnanimityGame::new(3, t, 10.0);
        let x = nucleolus(&g);
        assert!((x[0] - 5.0).abs() < 1e-6);
        assert!(x[1].abs() < 1e-6);
        assert!((x[2] - 5.0).abs() < 1e-6);
    }

    #[test]
    fn grand_carrier_means_equal_split() {
        let g = UnanimityGame::new(5, Coalition::grand(5), 5.0);
        let phi = shapley(&g);
        for v in phi {
            assert!((v - 1.0).abs() < 1e-12);
        }
    }
}
