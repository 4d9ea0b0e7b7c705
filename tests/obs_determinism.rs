//! Nondeterministic-output guard for the observability layer.
//!
//! Two identical seeded runs of the full pipeline (scenario → Shapley →
//! nucleolus → policy report → faulted testbed simulation) must produce
//! *byte-identical* timing-free views: the metric fold's JSON dump
//! ([`MetricsFold::to_json`](fedval_obs::MetricsFold::to_json) — counters,
//! gauges, span, observation and event counts, no durations) followed by
//! every event record a [`RecordingSink`] received, payload included. Any
//! difference here means a count, gauge, or event payload depends on
//! something other than the inputs and the seed — exactly the kind of
//! nondeterminism that would silently corrupt BENCH_pipeline.json and
//! cross-machine comparisons.
//!
//! The whole check lives in one `#[test]` because the obs registry is
//! process-global: parallel test threads would interleave their records.

use fedval::{
    empirical_game_diagnosed, paper_facilities, synthetic_authority, try_policy_report, Demand,
    ExperimentClass, FaultPlan, Federation, FederationScenario, SimConfig, Workload,
};
use fedval_obs::{Record, RecordingSink};
use std::sync::Arc;

/// One full observed pipeline run; returns its timing-free view.
#[expect(
    clippy::expect_used,
    reason = "test helper: a 2-authority game that cannot be measured fails the calling test"
)]
fn traced_run() -> String {
    let sink = RecordingSink::new();
    fedval_obs::install(Arc::new(sink.clone()));

    // Closed-form worked example: table build + Shapley + nucleolus + report.
    let scenario = FederationScenario::new(
        paper_facilities([1, 1, 1]),
        Demand::one_experiment(ExperimentClass::simple("e", 500.0, 1.0)),
    );
    let _ = scenario.shapley_shares();
    let _ = scenario.nucleolus_shares();
    let _ = try_policy_report(&scenario).expect("3 facilities").render();

    // Seeded faulted measurement: exercises the testbed counters, fault
    // events, and the desim engine counters.
    let federation = Federation::new(vec![
        synthetic_authority("A", 0, 3, 2, 1, 60),
        synthetic_authority("B", 3, 3, 2, 1, 60),
    ]);
    let workload = Workload::single(ExperimentClass::simple("slice", 2.0, 1.0), 1.5, 2.0);
    let config = SimConfig {
        horizon: 300.0,
        warmup: 50.0,
        seed: 7,
        churn: None,
    };
    let plan = FaultPlan::new()
        .node_crash(1, 80.0, Some(40.0))
        .credential_outage(1, 120.0, 3.0);
    let _ = empirical_game_diagnosed(&federation, &workload, &config, &plan)
        .expect("2-authority game is measurable");

    fedval_obs::shutdown();
    let mut view = fedval_obs::metrics_fold().to_json();
    for record in sink.records() {
        if let Record::Event { .. } = record {
            view.push('\n');
            view.push_str(&record.to_jsonl());
        }
    }
    view
}

#[test]
fn identical_seeded_runs_yield_byte_identical_snapshots() {
    let first = traced_run();
    let second = traced_run();
    assert_eq!(
        first, second,
        "metric snapshot differs between identical seeded runs"
    );

    // The snapshot really covered the pipeline (not trivially empty).
    for needle in [
        "simplex.solver.pivots",
        "simplex.solver.solves",
        "coalition.nucleolus.lp_solves",
        "coalition.game.evals",
        "coalition.shapley.exact",
        "desim.engine.delivered",
        "testbed.simulate.runs",
        "testbed.faults.apply",
        "policy.report.build",
        "core.scenario.table_build",
    ] {
        assert!(
            first.contains(needle),
            "snapshot is missing {needle}:\n{first}"
        );
    }
}
