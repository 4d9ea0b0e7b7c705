//! Statistical multiplexing: the dynamics the paper's static model
//! abstracts away, made explicit with the discrete-event simulator.
//!
//! Two questions:
//!
//! 1. How much does *pooling* reduce blocking? (Two separate facilities vs
//!    one federation — compared against the Erlang-B analytical baseline.)
//! 2. How do holding times change the value of federation? (The paper's
//!    §2.2 point: capacity-hungry jobs multiplex; diversity-hungry
//!    experiments do not.)
//!
//! ```text
//! cargo run --release --example demand_simulation
//! ```
#![expect(
    clippy::print_stdout,
    reason = "an example narrates its walkthrough on stdout"
)]

use fedval::desim::{erlang_b, offered_load};
use fedval::{
    run_coalition_faulted, synthetic_authority, Coalition, ExperimentClass, FaultPlan, Federation,
    SimConfig, Workload,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Pooling gain on a capacity workload --------------------------
    // Two identical authorities; a slice needs exactly one location
    // (threshold 0, max 1 location) so each sliver is one "server":
    // this is two M/M/c/c systems vs one pooled M/M/2c/2c.
    println!("== multiplexing gain: separate vs federated (capacity workload) ==");
    let site_count = 4u32;
    let capacity_per_site = 2usize; // 2 nodes × 1 sliver
    let servers_each = site_count as usize * capacity_per_site;
    let federation = Federation::new(vec![
        synthetic_authority("A", 0, site_count, 2, 1, 50),
        synthetic_authority("B", site_count, site_count, 2, 1, 50),
    ]);
    let lambda = 6.0;
    let holding = 1.0;
    let single_location = ExperimentClass::simple("job", 0.0, 1.0).with_max_locations(1);
    let config = SimConfig {
        horizon: 5000.0,
        warmup: 500.0,
        seed: 99,
        churn: None,
    };

    let clean = FaultPlan::new();
    let run = |coalition, workload: &Workload| {
        run_coalition_faulted(&federation, coalition, workload, &config, &clean)
    };
    // Each authority alone faces half the arrivals.
    let alone_wl = Workload::single(single_location.clone(), lambda / 2.0, holding);
    let alone = run(Coalition::singleton(0), &alone_wl)?.report;
    // The federation faces the combined stream.
    let pooled_wl = Workload::single(single_location, lambda, holding);
    let pooled = run(Coalition::grand(2), &pooled_wl)?.report;

    let a_each = offered_load(lambda / 2.0, holding);
    let b_alone = erlang_b(a_each, servers_each);
    let b_pooled = erlang_b(2.0 * a_each, 2 * servers_each);
    println!("servers per authority: {servers_each}, offered load each: {a_each:.1} Erlang");
    println!(
        "blocking alone   : simulated {:>6.4}  erlang-B {:>6.4}",
        alone.blocking_probability(0),
        b_alone
    );
    println!(
        "blocking pooled  : simulated {:>6.4}  erlang-B {:>6.4}",
        pooled.blocking_probability(0),
        b_pooled
    );
    println!("pooling cuts blocking — the classic statistical-multiplexing gain.\n");

    // --- 2. Holding time and the value of federation ---------------------
    // Diversity-hungry experiments occupy a sliver at *every* location, so
    // shorter holding times (the paper's t) directly raise how many can be
    // multiplexed onto the same infrastructure.
    println!("== delivered utility vs holding time (diversity workload) ==");
    let diversity_class = ExperimentClass::simple("overlay", 6.0, 1.0);
    println!(
        "{:>12} {:>14} {:>10}",
        "mean hold", "total utility", "blocking"
    );
    for hold in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let wl = Workload::single(diversity_class.clone(), 2.0, hold);
        let r = run(Coalition::grand(2), &wl)?.report;
        println!(
            "{hold:>12.2} {:>14.0} {:>10.4}",
            r.total_utility,
            r.blocking_probability(0)
        );
    }
    println!();
    println!("Shorter holding times (the paper's small t) let the same nodes host");
    println!("many more diversity-hungry experiments: the multiplexing dimension");
    println!("that makes federation super-additive (§3.2.1).");
    Ok(())
}
