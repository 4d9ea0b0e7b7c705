//! Cross-crate pipeline tests: the measured (testbed) route and the
//! closed-form (model) route must tell consistent stories, and the DES
//! must agree with loss-system analytics.

use fedval::desim::{erlang_b, Distribution, Exponential, SimRng, Simulator};
use fedval::testbed::ClassLoad;
use fedval::{
    empirical_game_diagnosed, paper_facilities, run_coalition_faulted, shapley_normalized,
    synthetic_authority, Coalition, Demand, ExperimentClass, FaultPlan, Federation,
    FederationScenario, SimConfig, WideGame, Workload,
};

#[test]
fn measured_shapley_shares_are_a_probability_vector() {
    let federation = Federation::new(vec![
        synthetic_authority("PLC", 0, 8, 2, 2, 100),
        synthetic_authority("PLE", 8, 5, 2, 2, 80),
        synthetic_authority("PLJ", 13, 3, 2, 2, 40),
    ]);
    let workload = Workload {
        classes: vec![
            ClassLoad::external(
                ExperimentClass::simple("p2p", 4.0, 1.0),
                1.0,
                0.5,
            ),
            ClassLoad::external(
                ExperimentClass::simple("wide", 13.0, 1.0),
                0.5,
                0.5,
            ),
        ],
    };
    let config = SimConfig {
        horizon: 800.0,
        warmup: 80.0,
        seed: 5,
        churn: None,
    };
    let game = empirical_game_diagnosed(&federation, &workload, &config, &FaultPlan::new())
        .expect("at most 16 authorities")
        .game;
    let shares = shapley_normalized(&game);
    assert_eq!(shares.len(), 3);
    assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    assert!(shares.iter().all(|&s| s >= -1e-9));
}

#[test]
fn diversity_premium_appears_in_both_routes() {
    // A "wide" class only the full federation can host raises the small
    // authority's Shapley share above its capacity share — in the static
    // model AND in the measured game.

    // Static: L = (8, 5, 3) locations, R = 4 each; class threshold 12.
    let facilities = fedval::paper_facilities_with_locations([8, 5, 3], [4, 4, 4]);
    let scenario = FederationScenario::new(
        facilities,
        Demand::capacity_filling(ExperimentClass::simple("wide", 13.0, 1.0)),
    );
    let static_phi = scenario.shapley_shares();
    let static_pi = scenario.proportional_shares();
    assert!(
        static_phi[2] > static_pi[2],
        "static: {static_phi:?} vs {static_pi:?}"
    );

    // Measured: same geometry as a testbed.
    let federation = Federation::new(vec![
        synthetic_authority("A", 0, 8, 2, 2, 0),
        synthetic_authority("B", 8, 5, 2, 2, 0),
        synthetic_authority("C", 13, 3, 2, 2, 0),
    ]);
    let workload = Workload::single(ExperimentClass::simple("wide", 13.0, 1.0), 2.0, 1.0);
    let config = SimConfig {
        horizon: 600.0,
        warmup: 60.0,
        seed: 17,
        churn: None,
    };
    let game = empirical_game_diagnosed(&federation, &workload, &config, &FaultPlan::new())
        .expect("at most 16 authorities")
        .game;
    let measured_phi = shapley_normalized(&game);
    let capacity: Vec<f64> = federation
        .authorities()
        .iter()
        .map(|a| a.total_capacity() as f64)
        .collect();
    let total_cap: f64 = capacity.iter().sum();
    assert!(
        measured_phi[2] > capacity[2] / total_cap,
        "measured diversity premium: {measured_phi:?} vs capacity {capacity:?}"
    );
}

#[test]
fn federation_never_hurts_in_the_measured_game() {
    // Superadditivity of the measured game on a diversity workload:
    // V(grand) ≥ V(S) for every sub-coalition (same demand stream).
    let federation = Federation::new(vec![
        synthetic_authority("A", 0, 6, 2, 2, 0),
        synthetic_authority("B", 6, 4, 2, 2, 0),
    ]);
    let workload = Workload::single(ExperimentClass::simple("e", 3.0, 1.0), 1.5, 0.5);
    let config = SimConfig {
        horizon: 500.0,
        warmup: 50.0,
        seed: 23,
        churn: None,
    };
    let game = empirical_game_diagnosed(&federation, &workload, &config, &FaultPlan::new())
        .expect("at most 16 authorities")
        .game;
    let grand = game.grand_value();
    for c in Coalition::all(2) {
        assert!(game.value(c) <= grand + 1e-9);
    }
}

#[test]
fn des_blocking_matches_erlang_b() {
    // M/M/c/c via the generic simulator: within ±0.015 of Erlang B.
    let mut sim = Simulator::new();
    let mut rng = SimRng::seed_from(31);
    let arrival = Exponential::with_rate(3.0);
    let service = Exponential::with_mean(1.0); // 3 Erlang offered
    let servers = 5usize;
    enum Ev {
        Arrival,
        Departure,
    }
    sim.try_schedule(arrival.sample(&mut rng), Ev::Arrival)
        .expect("exponential gaps are finite");
    let (mut busy, mut arrivals, mut blocked) = (0usize, 0u64, 0u64);
    while let Some((now, ev)) = sim.next_event() {
        if now > 50_000.0 {
            break;
        }
        match ev {
            Ev::Arrival => {
                arrivals += 1;
                if busy < servers {
                    busy += 1;
                    sim.try_schedule_at(now + service.sample(&mut rng), Ev::Departure)
                        .expect("service times are finite");
                } else {
                    blocked += 1;
                }
                sim.try_schedule_at(now + arrival.sample(&mut rng), Ev::Arrival)
                    .expect("exponential gaps are finite");
            }
            Ev::Departure => busy -= 1,
        }
    }
    let simulated = blocked as f64 / arrivals as f64;
    let analytic = erlang_b(3.0, servers);
    assert!(
        (simulated - analytic).abs() < 0.015,
        "simulated {simulated} vs erlang-B {analytic}"
    );
}

#[test]
fn testbed_sim_agrees_with_erlang_on_single_location_class() {
    // Slices capped at one location on a single-authority testbed reduce
    // to an M/M/c/c loss system.
    let federation = Federation::new(vec![synthetic_authority("A", 0, 2, 2, 2, 0)]);
    let servers = 2 * 2 * 2; // sites × nodes × slivers
    let class = ExperimentClass::simple("job", 0.0, 1.0).with_max_locations(1);
    let lambda = 6.0;
    let workload = Workload::single(class, lambda, 1.0);
    let config = SimConfig {
        horizon: 8000.0,
        warmup: 500.0,
        seed: 41,
        churn: None,
    };
    let plan = FaultPlan::new();
    let report = run_coalition_faulted(&federation, Coalition::grand(1), &workload, &config, &plan)
        .expect("a well-formed workload runs")
        .report;
    let analytic = erlang_b(lambda, servers);
    assert!(
        (report.blocking_probability(0) - analytic).abs() < 0.02,
        "sim {} vs erlang {analytic}",
        report.blocking_probability(0)
    );
}

#[test]
fn closed_form_and_scenario_agree_on_fig8_game() {
    // Spot-check the derived closed form V(S) = B_S(min(K, m⁰)) on the
    // Fig. 8 configuration against the scenario API.
    let facilities = paper_facilities([80, 60, 20]);
    let k = 40u64;
    let scenario = FederationScenario::new(
        facilities,
        Demand::single(
            ExperimentClass::simple("e", 250.0, 1.0),
            fedval::Volume::Count(k),
        ),
    );
    // Facility 2 alone: 400 locations cap 60 ⇒ V = 400·min(K, 60) = 16000.
    assert_eq!(scenario.value(Coalition::singleton(1)), 16_000.0);
    // Facility 3 alone: 800 locations cap 20 ⇒ V = 800·min(K, 20) = 16000.
    assert_eq!(scenario.value(Coalition::singleton(2)), 16_000.0);
    // Facility 1 alone: 100 < 251 locations ⇒ 0.
    assert_eq!(scenario.value(Coalition::singleton(0)), 0.0);
}
