//! Subscription-fee redistribution — the question PlanetLab actually
//! faces.
//!
//! §4: "sharing P efficiently is an issue that already arises in the
//! PlanetLab context, as subscription fees are paid by industrial users
//! of the system, such as Google and HP. The default policy at present is
//! for each top-level authority … to retain the totality of the fees that
//! it brings in." Customers pay the authority they subscribe through, but
//! consume the *whole* federation — so keep-what-you-collect rewards
//! sales channels, not contributions. This module pools fees and
//! redistributes them under any sharing rule, and quantifies how far the
//! status quo sits from each.

use crate::scheme::SharingScheme;
use fedval_core::FederationScenario;
use serde::{Deserialize, Serialize};

/// Fees collected during a period, per authority.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeePool {
    /// `collected[i]` = fees authority `i` billed its subscribers.
    pub collected: Vec<f64>,
}

impl FeePool {
    /// Creates a pool.
    ///
    /// # Panics
    /// Panics on negative or non-finite fees.
    pub fn new(collected: Vec<f64>) -> FeePool {
        assert!(collected.iter().all(|f| f.is_finite() && *f >= 0.0));
        FeePool { collected }
    }

    /// Total fees in the pool.
    pub fn total(&self) -> f64 {
        self.collected.iter().sum()
    }

    /// The status-quo "keep what you collect" distribution.
    pub fn keep_own(&self) -> Vec<f64> {
        self.collected.clone()
    }

    /// Pool everything and redistribute by `scheme` on the scenario's
    /// federation game.
    pub fn redistribute(&self, scenario: &FederationScenario, scheme: &SharingScheme) -> Vec<f64> {
        assert_eq!(self.collected.len(), scenario.facilities().len());
        let shares = scheme.shares(scenario);
        let total = self.total();
        shares.into_iter().map(|s| s * total).collect()
    }

    /// Per-authority transfer the redistribution implies relative to the
    /// status quo (positive = receives, negative = pays in).
    pub fn transfers(&self, scenario: &FederationScenario, scheme: &SharingScheme) -> Vec<f64> {
        self.redistribute(scenario, scheme)
            .iter()
            .zip(&self.collected)
            .map(|(r, c)| r - c)
            .collect()
    }

    /// L1 distance between the status quo and the scheme's distribution,
    /// normalized by the pool total (0 = status quo already implements the
    /// scheme; 2 = maximal disagreement).
    pub fn status_quo_distance(
        &self,
        scenario: &FederationScenario,
        scheme: &SharingScheme,
    ) -> f64 {
        let total = self.total();
        if total <= 0.0 {
            return 0.0;
        }
        self.transfers(scenario, scheme)
            .iter()
            .map(|t| t.abs())
            .sum::<f64>()
            / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedval_core::{paper_facilities, Demand, ExperimentClass};

    fn scenario() -> FederationScenario {
        FederationScenario::new(
            paper_facilities([1, 1, 1]),
            Demand::one_experiment(ExperimentClass::simple("e", 500.0, 1.0)),
        )
    }

    #[test]
    fn redistribution_conserves_the_pool() {
        // Google subscribes through PLC: PLC collects everything.
        let pool = FeePool::new(vec![1300.0, 0.0, 0.0]);
        for scheme in SharingScheme::all_builtin() {
            let dist = pool.redistribute(&scenario(), &scheme);
            let total: f64 = dist.iter().sum();
            assert!(
                (total - 1300.0).abs() < 1e-9,
                "{} leaks fees: {total}",
                scheme.name()
            );
            let transfers: f64 = pool.transfers(&scenario(), &scheme).iter().sum();
            assert!(transfers.abs() < 1e-9, "transfers must net to zero");
        }
    }

    #[test]
    fn shapley_redistribution_matches_contribution_not_sales() {
        // All fees collected by facility 1 (the sales channel), but
        // facility 3 holds the diversity: Shapley sends 21/26 of the pool
        // to facility 3.
        let pool = FeePool::new(vec![2600.0, 0.0, 0.0]);
        let dist = pool.redistribute(&scenario(), &SharingScheme::Shapley);
        assert!((dist[0] - 2600.0 / 26.0).abs() < 1e-9);
        assert!((dist[2] - 2600.0 * 21.0 / 26.0).abs() < 1e-9);
        let transfers = pool.transfers(&scenario(), &SharingScheme::Shapley);
        assert!(transfers[0] < 0.0, "the collector pays in");
        assert!(transfers[2] > 0.0, "the contributor receives");
    }

    #[test]
    fn status_quo_distance_detects_alignment() {
        // If fees already arrive in Shapley proportion, distance is zero.
        let s = scenario();
        let phi = s.shapley_shares();
        let aligned = FeePool::new(phi.iter().map(|p| p * 1000.0).collect());
        assert!(aligned.status_quo_distance(&s, &SharingScheme::Shapley) < 1e-9);
        // Worst case: everything collected by the smallest contributor.
        let skewed = FeePool::new(vec![1000.0, 0.0, 0.0]);
        assert!(skewed.status_quo_distance(&s, &SharingScheme::Shapley) > 1.5);
    }

    #[test]
    fn empty_pool_is_harmless() {
        let pool = FeePool::new(vec![0.0; 3]);
        assert_eq!(pool.total(), 0.0);
        assert_eq!(
            pool.status_quo_distance(&scenario(), &SharingScheme::Equal),
            0.0
        );
    }
}
