//! The PLC / PLE / PLJ federation with a PlanetLab-like workload mix,
//! evaluated on *measured* coalition values: run the slice simulator for
//! every coalition of authorities and compute Shapley shares from the
//! utility each coalition actually delivers — the paper's proposed
//! off-line policy pipeline, with simulation standing in for the
//! closed-form model.
//!
//! ```text
//! cargo run --release --example planetlab_federation
//! ```
#![expect(
    clippy::print_stdout,
    reason = "an example narrates its walkthrough on stdout"
)]

use fedval::testbed::ClassLoad;
use fedval::{
    empirical_game_diagnosed, shapley_normalized, synthetic_authority, Coalition, ExperimentClass,
    FaultPlan, Federation, SimConfig, WideGame, Workload,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Three top-level authorities, deliberately asymmetric in geography:
    // PLC has many sites; PLE fewer but denser; PLJ is small.
    let federation = Federation::new(vec![
        synthetic_authority("PLC", 0, 60, 2, 4, 300),
        synthetic_authority("PLE", 60, 35, 3, 4, 200),
        synthetic_authority("PLJ", 95, 15, 2, 4, 80),
    ]);

    println!("== federation members ==");
    for a in federation.authorities() {
        println!(
            "{:>4}: {:>3} sites, {:>3} locations, {:>4} sliver capacity, {:>3} users",
            a.name,
            a.sites.len(),
            a.n_locations(),
            a.total_capacity(),
            a.users
        );
    }
    let registry = federation.registry();
    println!(
        "federated registry: {} node records ({} bytes on the wire)\n",
        registry.len(),
        federation.encode_registry().len()
    );

    // The paper's three experiment classes, with diversity thresholds
    // scaled to this 110-location testbed (the paper's l = 40/100/500 are
    // for ~1000-node PlanetLab): a P2P overlay any mid-size authority can
    // host, a CDN needing most of the federation's geography, and a
    // measurement experiment only the full federation can host.
    let workload = Workload {
        classes: vec![
            ClassLoad::external(
                ExperimentClass::simple("p2p", 30.0, 1.0),
                2.0,
                0.2,
            ),
            ClassLoad::external(
                ExperimentClass::simple("cdn", 80.0, 1.0).with_max_locations(100),
                1.0,
                2.0,
            ),
            ClassLoad::external(
                ExperimentClass::simple("measurement", 100.0, 1.0),
                1.0,
                0.8,
            ),
        ],
    };

    println!("== measured coalition values (slice simulation) ==");
    let config = SimConfig {
        horizon: 2000.0,
        warmup: 200.0,
        seed: 2010,
        churn: None,
    };
    let game = empirical_game_diagnosed(&federation, &workload, &config, &FaultPlan::new())?.game;
    for c in Coalition::all(3).filter(|c| !c.is_empty()) {
        let members: Vec<&str> = c
            .players()
            .map(|p| federation.authorities()[p].name.as_str())
            .collect();
        println!("V({:<11}) = {:>12.1}", members.join("+"), game.value(c));
    }

    let shares = shapley_normalized(&game);
    let capacity_share: Vec<f64> = {
        let total: f64 = federation
            .authorities()
            .iter()
            .map(|a| a.total_capacity() as f64)
            .sum();
        federation
            .authorities()
            .iter()
            .map(|a| a.total_capacity() as f64 / total)
            .collect()
    };
    println!("\n== measured Shapley shares vs raw capacity shares ==");
    println!("{:>6} {:>10} {:>10}", "", "shapley", "capacity");
    for (i, a) in federation.authorities().iter().enumerate() {
        println!(
            "{:>6} {:>10.4} {:>10.4}",
            a.name, shares[i], capacity_share[i]
        );
    }
    println!();
    println!("The measurement class (> 100 distinct locations) only runs when all");
    println!("three authorities federate, and the CDN class (> 80) needs PLC plus");
    println!("at least one partner — so the smaller authorities' *locations* are");
    println!("worth more than their raw capacity share, which is exactly the");
    println!("\"value of diversity\" the Shapley decomposition surfaces.");
    Ok(())
}
