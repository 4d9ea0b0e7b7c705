//! Scheme comparison metrics: stability, incentive alignment, distance.

use crate::scheme::SharingScheme;
use fedval_coalition::{excess, is_in_core, normalize, Coalition, WideGame};
use fedval_core::FederationScenario;

/// How one scheme behaves on one scenario.
#[derive(Debug, Clone)]
pub struct SchemeAssessment {
    /// Scheme display name.
    pub scheme: String,
    /// Normalized shares.
    pub shares: Vec<f64>,
    /// Whether the payoff vector lies in the core (stable against
    /// secession) — `None` when the scenario's core is empty.
    pub in_core: Option<bool>,
    /// Largest coalition excess at the payoff vector (≤ 0 means in-core).
    pub max_excess: f64,
    /// L1 distance of shares from the proportional benchmark.
    pub distance_from_proportional: f64,
}

/// Assesses the τ-value (Tijs) alongside the schemes, when the game is
/// quasi-balanced; returns `None` otherwise.
pub fn assess_tau(scenario: &FederationScenario) -> Option<SchemeAssessment> {
    let game = scenario.game();
    let grand = game.grand_value();
    let payoffs = fedval_coalition::tau_value(game)?;
    let shares = normalize(payoffs.clone(), grand);
    let n = game.n_players();
    let grand_c = Coalition::grand(n);
    let max_excess = Coalition::all(n)
        .filter(|&s| !s.is_empty() && s != grand_c)
        .map(|s| excess(game, &payoffs, s))
        .fold(f64::NEG_INFINITY, f64::max);
    let pi = scenario.proportional_shares();
    Some(SchemeAssessment {
        scheme: "tau".to_string(),
        shares: shares.clone(),
        in_core: scenario
            .core_nonempty()
            .then(|| is_in_core(game, &payoffs, 1e-7)),
        max_excess,
        distance_from_proportional: shares.iter().zip(&pi).map(|(a, b)| (a - b).abs()).sum(),
    })
}

/// Assesses every given scheme on a scenario.
pub fn compare_schemes(
    scenario: &FederationScenario,
    schemes: &[SharingScheme],
) -> Vec<SchemeAssessment> {
    let game = scenario.game();
    let core_nonempty = scenario.core_nonempty();
    let pi = scenario.proportional_shares();
    schemes
        .iter()
        .map(|scheme| {
            let shares = scheme.shares(scenario);
            let payoffs = scenario.payoffs(&shares);
            let n = game.n_players();
            let grand = Coalition::grand(n);
            let max_excess = Coalition::all(n)
                .filter(|&s| !s.is_empty() && s != grand)
                .map(|s| excess(game, &payoffs, s))
                .fold(f64::NEG_INFINITY, f64::max);
            SchemeAssessment {
                scheme: scheme.name().to_string(),
                shares: shares.clone(),
                in_core: core_nonempty.then(|| is_in_core(game, &payoffs, 1e-7)),
                max_excess,
                distance_from_proportional: shares
                    .iter()
                    .zip(&pi)
                    .map(|(a, b)| (a - b).abs())
                    .sum(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedval_core::{paper_facilities, Demand, ExperimentClass};

    fn scenario(l: f64) -> FederationScenario {
        FederationScenario::new(
            paper_facilities([1, 1, 1]),
            Demand::one_experiment(ExperimentClass::simple("e", l, 1.0)),
        )
    }

    #[test]
    fn tau_assessment_on_worked_example() {
        let s = scenario(500.0);
        let tau = assess_tau(&s).expect("quasi-balanced");
        assert_eq!(tau.scheme, "tau");
        let total: f64 = tau.shares.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        // On this game τ coincides with Shapley: (1/26, 2/13, 21/26).
        assert!((tau.shares[1] - 2.0 / 13.0).abs() < 1e-9);
    }

    #[test]
    fn proportional_has_zero_self_distance() {
        let s = scenario(500.0);
        let a = compare_schemes(&s, &[SharingScheme::Proportional]);
        assert!(a[0].distance_from_proportional.abs() < 1e-12);
    }

    #[test]
    fn shapley_departs_from_proportional_at_positive_threshold() {
        // The paper's headline: thresholds make ϕ̂ ≠ π̂.
        let with_threshold = compare_schemes(&scenario(500.0), &[SharingScheme::Shapley]);
        assert!(with_threshold[0].distance_from_proportional > 0.1);
        let without = compare_schemes(&scenario(0.0), &[SharingScheme::Shapley]);
        assert!(without[0].distance_from_proportional < 1e-9);
    }

    #[test]
    fn nucleolus_is_in_core_when_core_nonempty() {
        // l = 1250: only the grand coalition works; core non-empty.
        let s = scenario(1250.0);
        assert!(s.core_nonempty());
        let a = compare_schemes(&s, &[SharingScheme::Nucleolus]);
        assert_eq!(a[0].in_core, Some(true));
        assert!(a[0].max_excess <= 1e-7);
    }

    #[test]
    fn max_excess_flags_unstable_schemes() {
        // At l = 500 the core requires facility 3 to get ≥ 800/1300 ≈ 0.615
        // …actually ≥ V({3}) = 800. Equal split gives 433: coalition {3}
        // has positive excess.
        let s = scenario(500.0);
        let a = compare_schemes(&s, &[SharingScheme::Equal]);
        assert!(a[0].max_excess > 0.0);
        if let Some(in_core) = a[0].in_core {
            assert!(!in_core);
        }
    }
}
