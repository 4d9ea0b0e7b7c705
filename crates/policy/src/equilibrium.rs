//! The provision game (§3.3): facilities choose how much to contribute,
//! trading payoff against provision cost — solved by best-response
//! iteration over a discrete strategy grid.
//!
//! The paper stops at "the fact that more sophisticated schemes like the
//! Shapley value do not have a closed form makes it very challenging to
//! analytically study ... equilibria"; numerically it is just a fixed
//! point search, implemented here.

use crate::scheme::SharingScheme;
use fedval_core::{CostModel, Demand, Facility, FederationScenario};

/// Result of the best-response dynamics.
#[derive(Debug, Clone)]
pub struct Equilibrium {
    /// Chosen strategy (grid index per facility).
    pub strategy: Vec<usize>,
    /// Net payoffs (share·V(N) − provision cost) at the fixed point.
    pub net_payoffs: Vec<f64>,
    /// Whether the dynamics converged (vs hitting the iteration cap).
    pub converged: bool,
    /// Best-response sweeps performed.
    pub iterations: usize,
}

/// Runs best-response dynamics.
///
/// * `grid[i]` — facility `i`'s strategy space (e.g. candidate `Lᵢ`).
/// * `make_facility(i, s)` — facility `i` playing strategy value `s`.
///
/// Facilities update in round-robin order to the strategy maximizing
/// `share_i·V(N) − provision_cost`, until no one moves.
pub fn best_response_dynamics(
    grid: &[Vec<u32>],
    make_facility: &dyn Fn(usize, u32) -> Facility,
    demand: &Demand,
    scheme: &SharingScheme,
    cost: &CostModel,
    max_sweeps: usize,
) -> Equilibrium {
    let n = grid.len();
    assert!(n > 0 && grid.iter().all(|g| !g.is_empty()));
    let mut strategy: Vec<usize> = vec![0; n];

    let net_payoff = |strategy: &[usize], i: usize| -> f64 {
        let facilities: Vec<Facility> = (0..n)
            .map(|j| make_facility(j, grid[j][strategy[j]]))
            .collect();
        let provision = cost.provision_cost(&facilities[i]);
        let scenario = FederationScenario::new(facilities, demand.clone());
        scheme.payoffs(&scenario)[i] - provision
    };

    let mut converged = false;
    let mut sweeps = 0;
    while sweeps < max_sweeps {
        sweeps += 1;
        let mut moved = false;
        for i in 0..n {
            let mut best = (strategy[i], net_payoff(&strategy, i));
            for cand in 0..grid[i].len() {
                if cand == strategy[i] {
                    continue;
                }
                let mut trial = strategy.clone();
                trial[i] = cand;
                let v = net_payoff(&trial, i);
                if v > best.1 + 1e-9 {
                    best = (cand, v);
                }
            }
            if best.0 != strategy[i] {
                strategy[i] = best.0;
                moved = true;
            }
        }
        if !moved {
            converged = true;
            break;
        }
    }

    let net_payoffs: Vec<f64> = (0..n).map(|i| net_payoff(&strategy, i)).collect();
    Equilibrium {
        strategy,
        net_payoffs,
        converged,
        iterations: sweeps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedval_core::{ExperimentClass, LocationOffer};

    /// Facilities choose L ∈ {10, 20, 40} at distinct location ranges.
    fn make_facility(i: usize, l: u32) -> Facility {
        let start = u32::try_from(i).unwrap() * 1000;
        Facility::new(format!("f{i}"), LocationOffer::contiguous(start, l, 1))
    }

    #[test]
    fn zero_cost_drives_full_provision() {
        let grid = vec![vec![10u32, 20, 40]; 2];
        let demand = Demand::one_experiment(ExperimentClass::simple("e", 0.0, 1.0));
        let free = CostModel {
            alpha: 0.0,
            beta: 0.0,
            gamma: 0.0,
            federation_fixed: 0.0,
        };
        let eq = best_response_dynamics(
            &grid,
            &make_facility,
            &demand,
            &SharingScheme::Proportional,
            &free,
            20,
        );
        assert!(eq.converged);
        assert_eq!(eq.strategy, vec![2, 2], "both provision maximally");
    }

    #[test]
    fn prohibitive_cost_drives_minimal_provision() {
        let grid = vec![vec![10u32, 20, 40]; 2];
        let demand = Demand::one_experiment(ExperimentClass::simple("e", 0.0, 1.0));
        let expensive = CostModel {
            alpha: 100.0, // location cost dwarfs the ≤ 1-per-location value
            beta: 0.0,
            gamma: 0.0,
            federation_fixed: 0.0,
        };
        let eq = best_response_dynamics(
            &grid,
            &make_facility,
            &demand,
            &SharingScheme::Proportional,
            &expensive,
            20,
        );
        assert!(eq.converged);
        assert_eq!(eq.strategy, vec![0, 0]);
    }

    #[test]
    fn equal_sharing_free_rides() {
        // Under equal split, contributing more only helps via V(N); with a
        // moderate cost, facilities under-provision relative to
        // proportional sharing — the incentive-compatibility failure the
        // paper warns about for contribution-blind schemes.
        let grid = vec![vec![10u32, 40]; 2];
        let demand = Demand::one_experiment(ExperimentClass::simple("e", 0.0, 1.0));
        let cost = CostModel {
            alpha: 0.6, // value of a location to the group is 1; own equal
            beta: 0.0,  // share of it is 0.5 < 0.6 < 1
            gamma: 0.0,
            federation_fixed: 0.0,
        };
        let equal = best_response_dynamics(
            &grid,
            &make_facility,
            &demand,
            &SharingScheme::Equal,
            &cost,
            20,
        );
        let proportional = best_response_dynamics(
            &grid,
            &make_facility,
            &demand,
            &SharingScheme::Proportional,
            &cost,
            20,
        );
        assert!(equal.converged && proportional.converged);
        let equal_total: u32 = equal.strategy.iter().map(|&s| grid[0][s]).sum();
        let prop_total: u32 = proportional.strategy.iter().map(|&s| grid[0][s]).sum();
        assert!(
            equal_total < prop_total,
            "equal split must under-provision: {equal_total} vs {prop_total}"
        );
    }
}
