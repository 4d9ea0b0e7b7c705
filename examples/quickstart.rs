//! Quickstart: the paper's §4.1 worked example, end to end.
//!
//! Three facilities contribute 100, 400, and 800 locations. One customer
//! wants an experiment on more than 500 distinct locations. How should
//! the customer's fee be split?
//!
//! ```text
//! cargo run --example quickstart
//! ```
#![expect(
    clippy::print_stdout,
    reason = "an example narrates its walkthrough on stdout"
)]

use fedval::{
    is_core_nonempty, paper_facilities, try_policy_report, Demand, ExperimentClass,
    FederationScenario,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The federation: L = (100, 400, 800) locations, one unit of capacity
    // per location (R = 1).
    let facilities = paper_facilities([1, 1, 1]);

    // The demand: a single experiment needing > 500 distinct locations,
    // linear utility (d = 1).
    let demand = Demand::one_experiment(ExperimentClass::simple("measurement", 500.0, 1.0));

    let scenario = FederationScenario::new(facilities, demand);

    println!("== the federation game ==");
    println!(
        "V(N) = {:.0} (the experiment spans all 1300 locations)\n",
        scenario.grand_value()
    );

    let phi = scenario.shapley_shares();
    let pi = scenario.proportional_shares();
    println!(
        "{:>10} {:>12} {:>14}",
        "facility", "shapley", "proportional"
    );
    for i in 0..3 {
        println!("{:>10} {:>12.4} {:>14.4}", i + 1, phi[i], pi[i]);
    }
    println!();
    println!(
        "facility 2 gets phi_hat = {:.4} = 2/13 under Shapley but {:.4} = 4/13",
        phi[1], pi[1]
    );
    println!("under proportional sharing: proportional over-rewards raw volume");
    println!("and ignores that facility 2 cannot serve the customer without help.\n");

    println!("core non-empty: {}", is_core_nonempty(scenario.game())?);
    println!();

    println!("== full policy report ==");
    println!("{}", try_policy_report(&scenario)?.render());
    Ok(())
}
