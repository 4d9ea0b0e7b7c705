//! Property-based tests of scenario-level invariants on random federation
//! configurations.

use fedval::{Coalition, Demand, ExperimentClass, Facility, FederationScenario, Volume, WideGame};
use proptest::prelude::*;

/// Random 3-facility configuration with disjoint location blocks.
fn facilities_strategy() -> impl Strategy<Value = Vec<Facility>> {
    (
        prop::collection::vec(1u32..60, 3),
        prop::collection::vec(1u64..6, 3),
    )
        .prop_map(|(ls, rs)| {
            let mut start = 0u32;
            ls.iter()
                .zip(&rs)
                .enumerate()
                .map(|(i, (&l, &r))| {
                    let f = Facility::uniform(format!("f{i}"), start, l, r);
                    start += l;
                    f
                })
                .collect()
        })
}

fn demand_strategy() -> impl Strategy<Value = Demand> {
    (0u32..150, prop::bool::ANY, 1u64..30).prop_map(|(l, fill, k)| {
        let class = ExperimentClass::simple("e", f64::from(l), 1.0);
        if fill {
            Demand::capacity_filling(class)
        } else {
            Demand::single(class, Volume::Count(k))
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn shares_are_probability_vectors(
        facilities in facilities_strategy(),
        demand in demand_strategy(),
    ) {
        let scenario = FederationScenario::new(facilities, demand);
        let grand = scenario.grand_value();
        for (name, shares) in [
            ("shapley", scenario.shapley_shares()),
            ("proportional", scenario.proportional_shares()),
            ("consumption", scenario.consumption_shares()),
        ] {
            let total: f64 = shares.iter().sum();
            if grand > 1e-9 || name == "proportional" {
                prop_assert!(
                    (total - 1.0).abs() < 1e-6,
                    "{name} sums to {total} (V(N) = {grand})"
                );
            }
            prop_assert!(shares.iter().all(|&s| s >= -1e-9), "{name}: {shares:?}");
        }
    }

    #[test]
    fn value_is_monotone_in_coalitions(
        facilities in facilities_strategy(),
        demand in demand_strategy(),
    ) {
        let scenario = FederationScenario::new(facilities, demand);
        let game = scenario.game();
        for s in Coalition::all(3) {
            let vs = game.value(s);
            for i in s.complement(3).players() {
                prop_assert!(
                    game.value(s.with(i)) >= vs - 1e-9,
                    "adding facility {i} to {s} lost value"
                );
            }
        }
    }

    #[test]
    fn federation_game_is_superadditive_for_disjoint_facilities(
        facilities in facilities_strategy(),
        demand in demand_strategy(),
    ) {
        // Disjoint location sets and a common demand: pooling can only
        // help (the union can always mimic the separate optima).
        let scenario = FederationScenario::new(facilities, demand);
        let game = scenario.game();
        // Check V(S∪T) ≥ V(S) + V(T)... NOT generally true for shared
        // external demand (the same customers can't be served twice), but
        // single-class capacity-filling demand replicates, so:
        // only assert the weaker zero-normalized superadditivity vs
        // singletons of the grand coalition.
        let singles: f64 = (0..3)
            .map(|i| game.value(Coalition::singleton(i)))
            .sum();
        let _ = singles; // volume-capped demand may make this fail; check
        // instead that the grand coalition dominates every single.
        for i in 0..3 {
            prop_assert!(game.grand_value() >= game.value(Coalition::singleton(i)) - 1e-9);
        }
    }

    #[test]
    fn capacity_filling_demand_is_superadditive(
        facilities in facilities_strategy(),
        threshold in 0u32..120,
    ) {
        // With capacity-filling single-class demand the game IS
        // superadditive: demand replicates across coalitions.
        let demand = Demand::capacity_filling(
            ExperimentClass::simple("e", f64::from(threshold), 1.0),
        );
        let scenario = FederationScenario::new(facilities, demand);
        prop_assert!(fedval::coalition::is_superadditive(scenario.game(), 1e-7));
    }

    #[test]
    fn scaling_capacity_scales_value_linearly_when_unblocked(
        facilities in facilities_strategy(),
    ) {
        // Threshold-0 capacity-filling demand: V(N) = total slots, so
        // doubling every R doubles V(N).
        let demand = Demand::capacity_filling(ExperimentClass::simple("e", 0.0, 1.0));
        let doubled: Vec<Facility> = facilities
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let mut offer = fedval::LocationOffer::new();
                for (l, r) in f.offer.iter() {
                    offer.add(l, r * 2);
                }
                Facility::new(format!("d{i}"), offer)
            })
            .collect();
        let v1 = FederationScenario::new(facilities, demand.clone()).grand_value();
        let v2 = FederationScenario::new(doubled, demand).grand_value();
        prop_assert!((v2 - 2.0 * v1).abs() < 1e-6, "{v1} vs {v2}");
    }
}
