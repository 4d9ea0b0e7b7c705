//! End-to-end fault-injection pipeline: testbed simulation under a
//! `FaultPlan` → measured empirical game → Shapley shares → policy
//! report. The whole chain must complete without panicking, produce
//! finite payoffs, and surface per-coalition measurement diagnostics.

use fedval::coalition::WideGame;
use fedval::core::ExperimentClass;
use fedval::testbed::SimConfig;
use fedval::{
    empirical_game_diagnosed, policy_report_measured, shapley_normalized, synthetic_authority,
    Coalition, Demand, FaultPlan, Federation, FederationScenario, Workload,
};

fn federation() -> Federation {
    Federation::new(vec![
        synthetic_authority("PLC", 0, 5, 2, 3, 100),
        synthetic_authority("PLE", 5, 3, 2, 3, 60),
        synthetic_authority("PLJ", 8, 3, 2, 3, 40),
    ])
}

fn config() -> SimConfig {
    SimConfig {
        horizon: 300.0,
        warmup: 30.0,
        seed: 21,
        churn: None,
    }
}

#[test]
fn faulted_pipeline_completes_with_finite_payoffs_and_diagnostics() {
    let fed = federation();
    let workload = Workload::single(ExperimentClass::simple("exp", 3.0, 1.0), 1.5, 1.0);
    // Node crashes, one correlated site-wide outage, one mid-trace
    // authority departure, one transient credential outage.
    let plan = FaultPlan::new()
        .node_crash(2, 60.0, Some(40.0))
        .node_crash(12, 90.0, None)
        .site_outage(0, 1, 100.0, 50.0)
        .authority_departure(2, 150.0)
        .credential_outage(1, 200.0, 2.0)
        .retry_policy(3, 1.5);

    let measured = empirical_game_diagnosed(&fed, &workload, &config(), &plan)
        .expect("3-authority game is measurable");

    // The game is fully populated and finite.
    assert_eq!(measured.game.n_players(), 3);
    for c in Coalition::all(3) {
        assert!(measured.game.value(c).is_finite(), "v({c:?}) finite");
    }
    // Every coalition has a diagnostics record; the injected faults are
    // visible in them (the grand coalition saw all five plan entries).
    let d = &measured.diagnostics;
    assert_eq!(d.per_coalition.len(), 8);
    assert!(d.total_faults_injected() > 0);
    assert_eq!(d.get(Coalition::grand(3)).unwrap().faults_injected, 5);
    assert_eq!(d.fallbacks_used(), 0, "a valid plan measures every run");

    // Shapley on the measured game: finite shares summing to one.
    let shares = shapley_normalized(&measured.game);
    assert_eq!(shares.len(), 3);
    assert!(shares.iter().all(|s| s.is_finite()));
    assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);

    // Policy report over the measured scenario, with diagnostics attached.
    let scenario = FederationScenario::from_measured(
        fed.facilities(),
        Demand::one_experiment(ExperimentClass::simple("exp", 3.0, 1.0)),
        measured.game.clone(),
    );
    let report = policy_report_measured(&scenario, measured.diagnostics.clone());
    let payoffs = scenario.payoffs(&shares);
    assert!(payoffs.iter().all(|p| p.is_finite()));
    assert!((payoffs.iter().sum::<f64>() - scenario.grand_value()).abs() < 1e-9);
    let text = report.render();
    assert!(text.contains("measurement:"), "{text}");
    assert!(!report.recommended().is_empty());
}

#[test]
fn degraded_pipeline_survives_a_poisoned_plan() {
    // An unschedulable fault (NaN time) on authority 0's node wedges every
    // run containing authority 0; the pipeline must degrade to fallback
    // values, disclose them, and still produce a usable report.
    let fed = federation();
    let workload = Workload::single(ExperimentClass::simple("exp", 2.0, 1.0), 1.5, 1.0);
    let plan = FaultPlan::new().node_crash(0, f64::NAN, None);

    let measured =
        empirical_game_diagnosed(&fed, &workload, &config(), &plan).expect("degrades, not errors");
    let d = &measured.diagnostics;
    assert_eq!(d.fallbacks_used(), 4, "the 4 coalitions containing 0");
    for c in Coalition::all(3) {
        assert!(measured.game.value(c).is_finite());
        if !c.is_empty() && c.contains(0) {
            let rec = d.get(c).unwrap();
            assert!(rec.source.is_fallback());
            assert!(rec.error.is_some());
        }
    }
    // The fallback game is still superadditive enough to report on.
    let shares = shapley_normalized(&measured.game);
    assert!(shares.iter().all(|s| s.is_finite()));
    let scenario = FederationScenario::from_measured(
        fed.facilities(),
        Demand::one_experiment(ExperimentClass::simple("exp", 2.0, 1.0)),
        measured.game.clone(),
    );
    let report = policy_report_measured(&scenario, measured.diagnostics.clone());
    let text = report.render();
    assert!(text.contains("warning:"), "fallbacks are disclosed: {text}");
}
