//! Integration tests for the model extensions: overlap (§2.1 `o_ij`),
//! availability (§2.1 `Tᵢ`), weighted Shapley (user-base weights), the
//! Bondareva–Shapley duality, and hierarchical (Owen) sharing.

use fedval::coalition::{balancedness, is_balanced, owen_value, quotient_game, weighted_shapley};
use fedval::core::{block_overlap, diversity_discount, AvailabilityGame, IndependentCoverage};
use fedval::policy::hierarchical_shapley;
use fedval::{
    is_core_nonempty, paper_facilities, shapley, shapley_normalized, Coalition, Demand,
    ExperimentClass, Facility, FederationGame, FederationScenario, TableGame, WideGame,
};

fn worked_demand() -> Demand {
    Demand::one_experiment(ExperimentClass::simple("e", 500.0, 1.0))
}

#[test]
fn overlap_reduces_value_monotonically() {
    let mut prev = f64::INFINITY;
    for shared in [0u32, 100, 200, 300, 400] {
        let facilities = block_overlap(&[100, 400 - shared, 800 - shared], shared, 1);
        let scenario = FederationScenario::new(facilities, worked_demand());
        let v = scenario.grand_value();
        assert!(v <= prev, "more overlap must not create value");
        prev = v;
    }
}

#[test]
fn sampled_overlap_model_tracks_expectations() {
    let model = IndependentCoverage::new(500, vec![(0.4, 1), (0.4, 1), (0.4, 1)]);
    let facilities = model.sample(123);
    let discount = diversity_discount(&facilities);
    // E[union] = 500·(1 − 0.6³) = 392; E[sum] = 600 ⇒ discount ≈ 0.653.
    assert!(
        (discount - 392.0 / 600.0).abs() < 0.06,
        "discount = {discount}"
    );
    // The sampled facilities feed straight into the game machinery.
    let scenario = FederationScenario::new(
        facilities,
        Demand::one_experiment(ExperimentClass::simple("e", 300.0, 1.0)),
    );
    let shares = scenario.shapley_shares();
    assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
}

#[test]
fn availability_game_matches_hand_expectation_on_worked_example() {
    let facilities = paper_facilities([1, 1, 1]);
    let demand = worked_demand();
    let base = TableGame::from_game(&FederationGame::new(&facilities, &demand));
    let game = AvailabilityGame::new(base, vec![1.0, 0.5, 1.0]);
    // V_T(N) = .5·V({1,2,3}) + .5·V({1,3}) = 650 + 450 = 1100.
    assert!((game.grand_value() - 1100.0).abs() < 1e-9);
    let phi_hat = shapley_normalized(&TableGame::from_game(&game));
    assert!((phi_hat[1] - 1.0 / 11.0).abs() < 1e-9);
}

#[test]
fn weighted_shapley_biases_toward_user_heavy_facilities() {
    let facilities = paper_facilities([1, 1, 1]);
    let demand = worked_demand();
    let game = TableGame::from_game(&FederationGame::new(&facilities, &demand));
    let unweighted = shapley(&game);
    // Facility 1 carries 10× the users of the others (the Uᵢ dimension).
    let weighted = weighted_shapley(&game, &[10.0, 1.0, 1.0]);
    assert!(weighted[0] > unweighted[0]);
    // Efficiency in both cases.
    assert!((weighted.iter().sum::<f64>() - 1300.0).abs() < 1e-9);
    assert!((unweighted.iter().sum::<f64>() - 1300.0).abs() < 1e-9);
}

#[test]
fn bondareva_duality_agrees_with_least_core_on_federation_games() {
    for l in [0.0, 300.0, 500.0, 900.0, 1250.0] {
        let scenario = FederationScenario::new(
            paper_facilities([1, 1, 1]),
            Demand::one_experiment(ExperimentClass::simple("e", l, 1.0)),
        );
        let game = scenario.game();
        assert_eq!(
            is_balanced(game),
            is_core_nonempty(game),
            "duality mismatch at l = {l}"
        );
        // The balanced-cover certificate really covers every player once.
        let b = balancedness(game);
        for i in 0..3 {
            let cover: f64 = b
                .weights
                .iter()
                .filter(|(s, _)| s.contains(i))
                .map(|&(_, w)| w)
                .sum();
            assert!((cover - 1.0).abs() < 1e-6);
        }
    }
}

#[test]
fn hierarchical_shares_are_consistent_with_flat_quotient() {
    // PLC = 2 sites (60+40), PLE = 2 sites (250+150), PLJ = 1 site (800):
    // the quotient game is exactly the paper's (100, 400, 800) example.
    let site_groups = vec![
        vec![
            Facility::uniform("PLC-a", 0, 60, 1),
            Facility::uniform("PLC-b", 60, 40, 1),
        ],
        vec![
            Facility::uniform("PLE-a", 100, 250, 1),
            Facility::uniform("PLE-b", 350, 150, 1),
        ],
        vec![Facility::uniform("PLJ-a", 500, 800, 1)],
    ];
    let h = hierarchical_shapley(&site_groups, &worked_demand());
    assert!((h.authority_shares[0] - 1.0 / 26.0).abs() < 1e-9);
    assert!((h.authority_shares[1] - 2.0 / 13.0).abs() < 1e-9);
    assert!((h.authority_shares[2] - 21.0 / 26.0).abs() < 1e-9);
    // Quotient consistency at the site level.
    for (a, group) in h.site_shares.iter().enumerate() {
        let sum: f64 = group.iter().sum();
        assert!((sum - h.authority_shares[a]).abs() < 1e-9);
    }
}

#[test]
fn owen_on_federation_game_respects_union_structure() {
    let facilities = vec![
        Facility::uniform("a", 0, 4, 1),
        Facility::uniform("b", 4, 4, 1),
        Facility::uniform("c", 8, 6, 1),
    ];
    let demand = Demand::one_experiment(ExperimentClass::simple("e", 9.0, 1.0));
    let game = TableGame::from_game(&FederationGame::new(&facilities, &demand));
    let unions = [Coalition::from_players([0, 1]), Coalition::singleton(2)];
    let owen = owen_value(&game, &unions);
    let quotient = quotient_game(&game, &unions);
    let quotient_phi = shapley(&quotient);
    assert!((owen[0] + owen[1] - quotient_phi[0]).abs() < 1e-9);
    assert!((owen[2] - quotient_phi[1]).abs() < 1e-9);
    // Symmetric sites a and b split their union's share equally.
    assert!((owen[0] - owen[1]).abs() < 1e-9);
}
