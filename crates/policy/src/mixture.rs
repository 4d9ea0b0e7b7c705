//! Demand-mixture estimation → policy weights: closing the §4.3.2 loop.
//!
//! "It is thus important to be able to classify experiments into a few
//! meaningful categories and, based on the expected mixture, adjust the
//! federation policies implemented in practice." This module does exactly
//! that: classify observed slice requests into the organizer's demand
//! categories (by their diversity requirement), estimate the mixture, and
//! emit Shapley weights computed at the estimated mixture — the
//! `SharingScheme::Fixed` input the paper recommends deriving off-line.

use crate::scheme::SharingScheme;
use fedval_core::{Demand, DemandComponent, ExperimentClass, Facility, FederationScenario, Volume};

/// A demand category: requests whose required diversity falls in
/// `[min_locations, max_locations)` are counted here, and the category is
/// represented in the fitted demand by `representative`.
#[derive(Debug, Clone)]
pub struct Category {
    /// Display name.
    pub name: String,
    /// Inclusive lower bound on observed location requirements.
    pub min_locations: u64,
    /// Exclusive upper bound.
    pub max_locations: u64,
    /// The experiment class used to represent this category in the model.
    pub representative: ExperimentClass,
}

/// The estimated mixture.
#[derive(Debug, Clone)]
pub struct MixtureEstimate {
    /// Requests counted per category (same order as the input categories).
    pub counts: Vec<u64>,
    /// Requests that fit no category.
    pub unclassified: u64,
}

impl MixtureEstimate {
    /// Fraction of classified requests per category (zeros if none).
    pub fn fractions(&self) -> Vec<f64> {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / total as f64)
            .collect()
    }
}

/// Classifies observed per-request location requirements into categories.
pub fn classify_requests(observed_locations: &[u64], categories: &[Category]) -> MixtureEstimate {
    let mut counts = vec![0u64; categories.len()];
    let mut unclassified = 0;
    for &x in observed_locations {
        match categories
            .iter()
            .position(|c| x >= c.min_locations && x < c.max_locations)
        {
            Some(k) => counts[k] += 1,
            None => unclassified += 1,
        }
    }
    MixtureEstimate {
        counts,
        unclassified,
    }
}

/// Builds the model demand corresponding to an estimated mixture, scaled
/// to `total_volume` expected experiments.
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "each fraction lies in [0, 1], so every rounded count lies in [0, total_volume]"
)]
pub fn demand_from_mixture(
    categories: &[Category],
    estimate: &MixtureEstimate,
    total_volume: u64,
) -> Demand {
    let fractions = estimate.fractions();
    Demand {
        components: categories
            .iter()
            .zip(&fractions)
            .map(|(c, &f)| DemandComponent {
                class: c.representative.clone(),
                volume: Volume::Count((f * total_volume as f64).round() as u64),
            })
            .collect(),
    }
}

/// The full pipeline: observations → mixture → Shapley weights at the
/// fitted demand → a ready-to-install [`SharingScheme::Fixed`].
pub fn fitted_policy(
    facilities: &[Facility],
    categories: &[Category],
    observed_locations: &[u64],
    total_volume: u64,
) -> (MixtureEstimate, SharingScheme) {
    let estimate = classify_requests(observed_locations, categories);
    let demand = demand_from_mixture(categories, &estimate, total_volume);
    let scenario = FederationScenario::new(facilities.to_vec(), demand);
    let weights = scenario.shapley_shares();
    (estimate, SharingScheme::Fixed(weights))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedval_core::paper_facilities;

    fn categories() -> Vec<Category> {
        vec![
            Category {
                name: "bulk".into(),
                min_locations: 0,
                max_locations: 100,
                representative: ExperimentClass::simple("bulk", 0.0, 1.0),
            },
            Category {
                name: "diverse".into(),
                min_locations: 100,
                max_locations: 10_000,
                representative: ExperimentClass::simple("diverse", 700.0, 1.0),
            },
        ]
    }

    #[test]
    fn classification_buckets_and_leftovers() {
        let observed = [10, 50, 99, 100, 800, 20_000];
        let est = classify_requests(&observed, &categories());
        assert_eq!(est.counts, vec![3, 2]);
        assert_eq!(est.unclassified, 1);
        let f = est.fractions();
        assert!((f[0] - 0.6).abs() < 1e-12);
        assert!((f[1] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn demand_scales_to_volume() {
        let est = MixtureEstimate {
            counts: vec![30, 10],
            unclassified: 0,
        };
        let demand = demand_from_mixture(&categories(), &est, 60);
        assert_eq!(demand.components[0].volume, Volume::Count(45));
        assert_eq!(demand.components[1].volume, Volume::Count(15));
    }

    #[test]
    fn fitted_policy_tracks_the_observed_mixture() {
        // More diversity-hungry observations ⇒ fitted weights further from
        // proportional, favoring the diversity-rich facility.
        let facilities = paper_facilities([80, 50, 30]);
        let mostly_bulk: Vec<u64> = (0..40).map(|_| 10).chain((0..5).map(|_| 800)).collect();
        let mostly_diverse: Vec<u64> = (0..5).map(|_| 10).chain((0..40).map(|_| 800)).collect();

        let (_, bulk_policy) = fitted_policy(&facilities, &categories(), &mostly_bulk, 60);
        let (_, diverse_policy) = fitted_policy(&facilities, &categories(), &mostly_diverse, 60);
        let scenario = FederationScenario::new(
            facilities.clone(),
            Demand::one_experiment(ExperimentClass::simple("probe", 0.0, 1.0)),
        );
        let bulk_shares = bulk_policy.shares(&scenario);
        let diverse_shares = diverse_policy.shares(&scenario);
        assert!(
            diverse_shares[2] > bulk_shares[2],
            "diverse demand must raise facility 3's weight: {diverse_shares:?} vs {bulk_shares:?}"
        );
        assert!((bulk_shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_observations_yield_zero_fractions() {
        let est = classify_requests(&[], &categories());
        assert_eq!(est.fractions(), vec![0.0, 0.0]);
    }
}
