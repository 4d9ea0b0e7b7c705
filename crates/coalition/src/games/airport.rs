//! The airport (runway cost-sharing) game of Littlechild & Owen (1973).

use crate::coalition::{Coalition, PlayerId};
use crate::game::WideGame;

/// Airport game: player `i` needs a runway of cost `cost[i]`; a coalition
/// needs the longest runway among its members, so the *cost* game is
/// `c(S) = max_{i∈S} cost[i]`. We represent it as the equivalent savings
/// game `V(S) = Σ_{i∈S} cost[i] − max_{i∈S} cost[i]` (what the coalition
/// saves over everyone building alone), which is convex.
///
/// The Shapley value of the cost game has the famous sequential closed
/// form — [`AirportGame::shapley_costs`] — making this an exact oracle for
/// the generic Shapley implementation.
#[derive(Debug, Clone)]
pub struct AirportGame {
    costs: Vec<f64>,
}

impl AirportGame {
    /// Creates the game from per-player runway costs (all ≥ 0).
    ///
    /// # Panics
    /// Panics if empty or if any cost is negative/non-finite.
    pub fn new(costs: Vec<f64>) -> AirportGame {
        assert!(!costs.is_empty());
        assert!(costs.iter().all(|c| c.is_finite() && *c >= 0.0));
        AirportGame { costs }
    }

    /// Cost of serving coalition `S`: the longest runway needed.
    pub fn cost(&self, s: Coalition) -> f64 {
        s.players().map(|p| self.costs[p]).fold(0.0, f64::max)
    }

    /// Closed-form Shapley value of the *cost* game (Littlechild–Owen):
    /// sort players by cost; the k-th cost increment is shared equally by
    /// all players needing at least that much runway.
    pub fn shapley_costs(&self) -> Vec<f64> {
        let n = self.costs.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| self.costs[a].total_cmp(&self.costs[b]));
        let mut phi = vec![0.0; n];
        let mut prev_cost = 0.0;
        for (rank, &p) in order.iter().enumerate() {
            let increment = self.costs[p] - prev_cost;
            let sharers = n - rank; // players with cost ≥ costs[p]
            let share = increment / sharers as f64;
            // Every player from `rank` onward pays `share` for this step.
            for &q in &order[rank..] {
                phi[q] += share;
            }
            prev_cost = self.costs[p];
        }
        phi
    }
}

impl WideGame for AirportGame {
    fn n_players(&self) -> usize {
        self.costs.len()
    }

    /// Savings form: `V(S) = Σ_{i∈S} costᵢ − max_{i∈S} costᵢ`.
    fn value_members(&self, members: &[PlayerId]) -> f64 {
        let sum: f64 = members.iter().map(|&p| self.costs[p]).sum();
        sum - self.cost(Coalition::from_players(members.iter().copied()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::tests::table_of;
    use crate::properties::is_convex;
    use crate::shapley::shapley;

    #[test]
    fn savings_game_is_convex() {
        let g = AirportGame::new(vec![1.0, 3.0, 7.0, 7.0, 12.0]);
        assert!(is_convex(&g, 1e-9));
    }

    #[test]
    fn generic_shapley_matches_littlechild_owen() {
        let g = AirportGame::new(vec![2.0, 4.0, 10.0]);
        // Cost-game Shapley via closed form.
        let cost_phi = g.shapley_costs();
        // Cost-game Shapley via savings game: ϕᶜᵢ = costᵢ − ϕˢᵢ
        // (cost game c(S) = Σ costᵢ − V(S); Shapley is linear).
        let savings_phi = shapley(&table_of(&g));
        for i in 0..3 {
            let via_savings = g.costs[i] - savings_phi[i];
            assert!(
                (cost_phi[i] - via_savings).abs() < 1e-9,
                "{cost_phi:?} vs savings-derived {via_savings}"
            );
        }
        // Hand-checked values: increments 2 (÷3), 2 (÷2), 6 (÷1).
        assert!((cost_phi[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((cost_phi[1] - (2.0 / 3.0 + 1.0)).abs() < 1e-12);
        assert!((cost_phi[2] - (2.0 / 3.0 + 1.0 + 6.0)).abs() < 1e-12);
    }

    #[test]
    fn shapley_costs_sum_to_total_cost() {
        let g = AirportGame::new(vec![5.0, 1.0, 9.0, 3.0]);
        let total: f64 = g.shapley_costs().iter().sum();
        assert!((total - 9.0).abs() < 1e-12, "runway cost = max cost");
    }

    #[test]
    fn equal_costs_split_equally() {
        let g = AirportGame::new(vec![6.0; 3]);
        let phi = g.shapley_costs();
        for v in phi {
            assert!((v - 2.0).abs() < 1e-12);
        }
    }
}
