//! End-to-end reproduction of the paper's §4.1 worked example through the
//! umbrella API, exercising model → allocation → game → solution concepts
//! across crates.

use fedval::{
    is_core_nonempty, paper_facilities, shapley_normalized, try_least_core, try_nucleolus,
    Coalition, Demand, ExperimentClass, FederationScenario, SharingScheme,
};

fn scenario(l: f64) -> FederationScenario {
    FederationScenario::new(
        paper_facilities([1, 1, 1]),
        Demand::one_experiment(ExperimentClass::simple("e", l, 1.0)),
    )
}

#[test]
fn paper_headline_numbers() {
    let s = scenario(500.0);
    assert_eq!(s.grand_value(), 1300.0);
    let phi = s.shapley_shares();
    let pi = s.proportional_shares();
    assert!((phi[1] - 2.0 / 13.0).abs() < 1e-12, "phi_hat_2 = 2/13");
    assert!((pi[1] - 4.0 / 13.0).abs() < 1e-12, "pi_hat_2 = 4/13");
}

#[test]
fn coalition_values_match_the_strict_threshold_derivation() {
    let s = scenario(500.0);
    let v = |players: &[usize]| s.value(Coalition::from_players(players.iter().copied()));
    assert_eq!(v(&[0]), 0.0);
    assert_eq!(v(&[1]), 0.0);
    assert_eq!(v(&[2]), 800.0);
    assert_eq!(v(&[0, 1]), 0.0); // 500 locations is NOT > 500
    assert_eq!(v(&[0, 2]), 900.0);
    assert_eq!(v(&[1, 2]), 1200.0);
    assert_eq!(v(&[0, 1, 2]), 1300.0);
}

#[test]
fn share_crossovers_along_fig4() {
    // The §4.1 narrative: facility shares change exactly at the points
    // where coalitions gain/lose the ability to serve.
    let phi_at = |l: f64| scenario(l).shapley_shares();

    // Below every threshold the game is additive: shares proportional.
    let p0 = phi_at(50.0);
    assert!((p0[0] - 100.0 / 1300.0).abs() < 1e-9);

    // l in (1200, 1300): only the grand coalition serves → equal thirds.
    let p_high = phi_at(1250.0);
    for v in &p_high {
        assert!((v - 1.0 / 3.0).abs() < 1e-9);
    }

    // Above 1300 nothing can serve.
    let p_dead = phi_at(1350.0);
    assert!(p_dead.iter().all(|&v| v == 0.0));
}

#[test]
fn solution_concepts_are_consistent_on_the_worked_example() {
    let s = scenario(500.0);
    let game = s.game();

    // Shapley via the normalized helper agrees with the scenario path.
    let phi_direct = shapley_normalized(game);
    let phi_scenario = s.shapley_shares();
    for (a, b) in phi_direct.iter().zip(&phi_scenario) {
        assert!((a - b).abs() < 1e-12);
    }

    // Nucleolus is efficient and individually rational here.
    let nu = try_nucleolus(game).expect("3 facilities");
    assert!((nu.iter().sum::<f64>() - 1300.0).abs() < 1e-6);
    assert!(nu[2] >= 800.0 - 1e-6, "facility 3 can claim 800 alone");

    // The least-core ε and core emptiness agree.
    let lc = try_least_core(game).expect("3 facilities");
    assert_eq!(
        lc.epsilon <= 1e-7,
        is_core_nonempty(game).expect("3 facilities")
    );
}

#[test]
fn policy_report_runs_every_scheme() {
    let s = scenario(500.0);
    for scheme in SharingScheme::all_builtin() {
        let shares = scheme.shares(&s);
        assert_eq!(shares.len(), 3);
        let total: f64 = shares.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "{}: {total}", scheme.name());
    }
}
