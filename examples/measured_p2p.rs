//! The P2P scenario, measured: each authority's *own users* submit
//! experiments (eq. 3's setting), the slice simulator attributes delivered
//! utility per authority, and we compare standing alone against
//! federating — with and without node churn.
//!
//! ```text
//! cargo run --release --example measured_p2p
//! ```
#![expect(
    clippy::print_stdout,
    reason = "an example narrates its walkthrough on stdout"
)]

use fedval::testbed::{ClassLoad, Churn};
use fedval::{
    run_coalition_faulted, synthetic_authority, Coalition, ExperimentClass, FaultPlan, Federation,
    SimConfig, Workload,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // PLE researchers run wide measurement overlays; PLC users mostly run
    // small P2P experiments; PLJ users run mid-size CDN-ish slices.
    let federation = Federation::new(vec![
        synthetic_authority("PLC", 0, 30, 2, 3, 200),
        synthetic_authority("PLE", 30, 20, 2, 3, 150),
        synthetic_authority("PLJ", 50, 10, 2, 3, 60),
    ]);
    let workload = Workload {
        classes: vec![
            ClassLoad::owned(0, ExperimentClass::simple("plc-p2p", 10.0, 1.0), 2.0, 0.5),
            ClassLoad::owned(1, ExperimentClass::simple("ple-meas", 45.0, 1.0), 1.0, 0.8),
            ClassLoad::owned(2, ExperimentClass::simple("plj-cdn", 25.0, 1.0), 1.0, 1.0),
        ],
    };
    let config = SimConfig {
        horizon: 2000.0,
        warmup: 200.0,
        seed: 77,
        churn: None,
    };

    println!("== utility delivered to each authority's users ==");
    println!("{:>6} {:>12} {:>12} {:>10}", "", "alone", "federated", "gain");
    let clean = FaultPlan::new();
    let run = |coalition, config: &SimConfig| {
        run_coalition_faulted(&federation, coalition, &workload, config, &clean)
    };
    let grand = run(Coalition::grand(3), &config)?.report;
    for (i, a) in federation.authorities().iter().enumerate() {
        let alone = run(Coalition::singleton(i), &config)?.report;
        let own = alone.per_authority_utility[i];
        let fed = grand.per_authority_utility[i];
        let gain = if own > 0.0 {
            format!("{:>9.2}x", fed / own)
        } else if fed > 0.0 {
            "unblocked".to_string()
        } else {
            "-".to_string()
        };
        println!("{:>6} {:>12.0} {:>12.0} {:>10}", a.name, own, fed, gain);
    }
    println!();
    println!("PLE's measurement overlays (need > 45 distinct locations) cannot run");
    println!("on PLE's 20 locations at all; the federation's 60 unblock them —");
    println!("the P2P-scenario version of the value of diversity. Everyone else");
    println!("gains too (wider slices, more multiplexing), so the pooled outcome");
    println!("is individually rational without any side payments (eq. 3's");
    println!("constraint holds at the measured allocation).\n");

    println!("== with node churn (MTBF 50, MTTR 10 — ~83% availability) ==");
    let flaky = SimConfig {
        churn: Some(Churn {
            mtbf: 50.0,
            mttr: 10.0,
        }),
        ..config
    };
    let grand_flaky = run(Coalition::grand(3), &flaky)?.report;
    println!(
        "federated utility: {:.0} (reliable) vs {:.0} (flaky), {} slivers disrupted",
        grand.total_utility, grand_flaky.total_utility, grand_flaky.disrupted_slivers
    );
    println!("Unreliable nodes shave delivered utility — the §2.1 availability");
    println!("attribute Tᵢ, observed rather than assumed.");
    Ok(())
}
