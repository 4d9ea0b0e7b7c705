//! Measuring the federation game under injected faults: node crashes,
//! a correlated site-wide outage, a mid-trace authority departure, and a
//! transient credential-exchange outage — then sharing the (degraded)
//! value with Shapley and rendering a policy report that discloses how
//! each coalition's value was obtained.
//!
//! ```text
//! cargo run --release --example faulted_federation
//! ```
#![expect(
    clippy::print_stdout,
    reason = "an example narrates its walkthrough on stdout"
)]

use fedval::coalition::WideGame;
use fedval::testbed::SimConfig;
use fedval::{
    empirical_game_diagnosed, shapley_normalized, synthetic_authority, try_policy_report_measured,
    Coalition, Demand, ExperimentClass, FaultPlan, Federation, FederationScenario, Workload,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let federation = Federation::new(vec![
        synthetic_authority("PLC", 0, 5, 2, 3, 100),
        synthetic_authority("PLE", 5, 3, 2, 3, 60),
        synthetic_authority("PLJ", 8, 3, 2, 3, 40),
    ]);
    let workload = Workload::single(ExperimentClass::simple("exp", 3.0, 1.0), 1.5, 1.0);
    let config = SimConfig {
        horizon: 300.0,
        warmup: 30.0,
        seed: 21,
        churn: None,
    };

    // The fault schedule replays identically against every coalition
    // (node/authority indices are federation-wide), so the measured game
    // stays internally consistent.
    let plan = FaultPlan::new()
        .node_crash(2, 60.0, Some(40.0)) // PLC node down at t=60, back at t=100
        .node_crash(12, 90.0, None) // a PLJ node dies for good
        .site_outage(0, 1, 100.0, 50.0) // PLC site 1 dark for 50 time units
        .authority_departure(2, 150.0) // PLJ leaves the federation mid-trace
        .credential_outage(1, 200.0, 2.0) // PLE's credential exchange flakes
        .retry_policy(3, 1.5);

    let measured = empirical_game_diagnosed(&federation, &workload, &config, &plan)?;

    println!("== measured coalition values under the fault plan ==");
    for c in Coalition::all(3) {
        if c.is_empty() {
            continue;
        }
        let Some(rec) = measured.diagnostics.get(c) else {
            println!("  v({c:?}) — no diagnostics recorded");
            continue;
        };
        println!(
            "  v({:?}) = {:>8.1}   faults injected: {}, credential retries: {}, source: {:?}",
            c,
            measured.game.value(c),
            rec.faults_injected,
            rec.credential_retries,
            rec.source,
        );
    }

    let shares = shapley_normalized(&measured.game);
    println!("\n== Shapley shares of the degraded federation ==");
    for (name, share) in ["PLC", "PLE", "PLJ"].iter().zip(&shares) {
        println!("  {name}: {share:.4}");
    }

    let scenario = FederationScenario::try_from_measured(
        federation.facilities(),
        Demand::one_experiment(ExperimentClass::simple("exp", 3.0, 1.0)),
        measured.game.clone(),
    )?;
    let report = try_policy_report_measured(&scenario, measured.diagnostics.clone())?;
    println!("\n{}", report.render());
    Ok(())
}
