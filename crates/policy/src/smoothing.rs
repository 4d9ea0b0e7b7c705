//! Smoothed incentive weights — taming §4.4's threshold instability.
//!
//! The paper warns that the Shapley mechanism "creates powerful incentives
//! for resource provision around the threshold points … a potential
//! weakness … since it could cause instability", and suggests using ϕ̂
//! "more as an input to the complicated process of policy design rather
//! than an absolute policy parameter". One standard input-conditioning
//! step is to smooth the payoff landscape over a *neighborhood of demand
//! assumptions*: instead of the Shapley value at one threshold `l`,
//! average it over a window of thresholds (equivalently, over uncertainty
//! in the demand forecast). Jumps shrink from cliff-size to slope-size
//! while the long-run incentive gradient is preserved.

use crate::incentives::IncentivePoint;
use crate::scheme::SharingScheme;
use fedval_core::{Demand, ExperimentClass, Facility, FederationScenario};

/// Shapley shares averaged over a window of diversity thresholds
/// `l ∈ {center − spread, …, center, …, center + spread}` (uniform
/// weights, `2·half_points + 1` samples), modelling forecast uncertainty
/// about the demand's diversity requirement.
///
/// # Panics
/// Panics if `spread < 0` or the window dips below zero thresholds.
pub fn threshold_smoothed_shares(
    facilities: &[Facility],
    demand_at: &dyn Fn(f64) -> Demand,
    center: f64,
    spread: f64,
    half_points: usize,
) -> Vec<f64> {
    assert!(spread >= 0.0);
    assert!(center - spread >= 0.0, "window must stay non-negative");
    let n = facilities.len();
    let samples = 2 * half_points + 1;
    let mut acc = vec![0.0; n];
    for i in 0..samples {
        let offset = if half_points == 0 {
            0.0
        } else {
            spread * (i as f64 - half_points as f64) / half_points as f64
        };
        let scenario = FederationScenario::new(facilities.to_vec(), demand_at(center + offset));
        let shares = scenario.shapley_shares();
        for (a, s) in acc.iter_mut().zip(&shares) {
            *a += s / samples as f64;
        }
    }
    acc
}

/// Convenience: a smoothed Fig. 9-style incentive curve — facility
/// `target`'s payoff under threshold-smoothed Shapley weights.
pub fn smoothed_incentive_curve(
    make_facilities: &dyn Fn(u32) -> Vec<Facility>,
    threshold: f64,
    spread: f64,
    half_points: usize,
    target: usize,
    levels: &[u32],
) -> Vec<IncentivePoint> {
    levels
        .iter()
        .map(|&level| {
            let facilities = make_facilities(level);
            let shares = threshold_smoothed_shares(
                &facilities,
                &|l| Demand::capacity_filling(ExperimentClass::simple("e", l, 1.0)),
                threshold,
                spread,
                half_points,
            );
            // Payoff at the *center* scenario's value.
            let scenario = FederationScenario::new(
                facilities,
                Demand::capacity_filling(ExperimentClass::simple("e", threshold, 1.0)),
            );
            IncentivePoint {
                level,
                payoff: shares[target] * scenario.grand_value(),
            }
        })
        .collect()
}

/// Largest single-step payoff jump of a curve (the instability metric).
pub fn max_jump(curve: &[IncentivePoint]) -> f64 {
    curve
        .windows(2)
        .map(|w| (w[1].payoff - w[0].payoff).abs())
        .fold(0.0, f64::max)
}

/// Compares raw vs smoothed Shapley incentive curves for one facility.
/// Returns `(raw_max_jump, smoothed_max_jump)`.
pub fn smoothing_benefit(
    make_facilities: &dyn Fn(u32) -> Vec<Facility>,
    threshold: f64,
    spread: f64,
    half_points: usize,
    target: usize,
    levels: &[u32],
) -> (f64, f64) {
    let demand = Demand::capacity_filling(ExperimentClass::simple("e", threshold, 1.0));
    let raw = crate::incentives::incentive_curve(
        make_facilities,
        &demand,
        &SharingScheme::Shapley,
        target,
        levels,
    );
    let smoothed = smoothed_incentive_curve(
        make_facilities,
        threshold,
        spread,
        half_points,
        target,
        levels,
    );
    (max_jump(&raw), max_jump(&smoothed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedval_core::paper_facilities_with_locations;

    fn fig9(l1: u32) -> Vec<Facility> {
        paper_facilities_with_locations([l1, 400, 800], [80, 60, 20])
    }

    #[test]
    fn zero_spread_equals_raw_shapley() {
        let facilities = fig9(300);
        let shares = threshold_smoothed_shares(
            &facilities,
            &|l| Demand::capacity_filling(ExperimentClass::simple("e", l, 1.0)),
            400.0,
            0.0,
            0,
        );
        let scenario = FederationScenario::new(
            facilities,
            Demand::capacity_filling(ExperimentClass::simple("e", 400.0, 1.0)),
        );
        let raw = scenario.shapley_shares();
        for (a, b) in shares.iter().zip(&raw) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn smoothed_shares_sum_to_one() {
        let facilities = fig9(500);
        let shares = threshold_smoothed_shares(
            &facilities,
            &|l| Demand::capacity_filling(ExperimentClass::simple("e", l, 1.0)),
            600.0,
            100.0,
            2,
        );
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn smoothing_shrinks_the_threshold_jump() {
        // Around l = 800, facility 1's Shapley payoff jumps as its
        // locations unlock new serving coalitions; a ±100 window flattens
        // the cliff.
        let levels: Vec<u32> = (300..=500).step_by(50).collect();
        let (raw, smoothed) = smoothing_benefit(&fig9, 800.0, 100.0, 2, 0, &levels);
        assert!(
            smoothed <= raw + 1e-9,
            "smoothed jump {smoothed} vs raw {raw}"
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_windows_below_zero() {
        let facilities = fig9(100);
        let _ = threshold_smoothed_shares(
            &facilities,
            &|l| Demand::capacity_filling(ExperimentClass::simple("e", l, 1.0)),
            50.0,
            100.0,
            2,
        );
    }
}
