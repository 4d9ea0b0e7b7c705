//! Model extensions beyond the paper's numerical section, exercising the
//! §2.1 attributes the paper defines but sets aside (overlap `o_ij`,
//! availability `Tᵢ`) and the hierarchical federation of §1.2/§6.
//!
//! ```text
//! cargo run --release --example extensions
//! ```
#![expect(
    clippy::print_stdout,
    reason = "an example narrates its walkthrough on stdout"
)]

use fedval::core::{block_overlap, diversity_discount, AvailabilityGame};
use fedval::policy::hierarchical_shapley;
use fedval::{
    paper_facilities, shapley_normalized, Demand, ExperimentClass, Facility, FederationGame,
    FederationScenario, TableGame,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Overlap: shared locations add capacity, not diversity -------
    println!("== overlap discounts diversity ==");
    let demand = Demand::one_experiment(ExperimentClass::simple("e", 500.0, 1.0));
    for shared in [0u32, 200, 400] {
        // Every facility also covers a common block of `shared`
        // locations, so distinct locations shrink while contributed
        // location counts stay generous.
        let facilities = block_overlap(&[100, 400 - shared, 800 - shared], shared, 1);
        let discount = diversity_discount(&facilities);
        let scenario = FederationScenario::new(facilities, demand.clone());
        println!(
            "shared = {shared:>3}: distinct locations = {:>4}, diversity discount = {:.3}, V(N) = {:>6.0}",
            (1300 - shared),
            discount,
            scenario.grand_value()
        );
    }
    println!("(the experiment values *distinct* locations: every shared location");
    println!(" is value lost — Fig. 1's overlap dimension, quantified.)\n");

    // --- 2. Availability: flaky facilities lose share -------------------
    println!("== availability discounts shares ==");
    let facilities = paper_facilities([1, 1, 1]);
    let base = FederationGame::new(&facilities, &demand);
    let base_table = TableGame::try_from_walk(&base, 1)?;
    println!("{:>18} {:>26}", "T = (1, 1, 1)", "T = (1, 0.5, 1)");
    let reliable = shapley_normalized(&base_table);
    let flaky_game = AvailabilityGame::try_new(base_table.clone(), vec![1.0, 0.5, 1.0])?;
    let flaky = shapley_normalized(&TableGame::try_from_walk(&flaky_game, 1)?);
    for i in 0..3 {
        println!(
            "facility {}: {:>7.4} {:>26.4}",
            i + 1,
            reliable[i],
            flaky[i]
        );
    }
    println!("Facility 2 at 50% availability drops from 2/13 ≈ 0.154 to 1/11 ≈ 0.091:");
    println!("expected-value games price reliability without any new machinery.\n");

    // --- 3. Hierarchy: sites within authorities (Owen value) ------------
    println!("== hierarchical shares: sites within authorities ==");
    let site_groups = vec![
        vec![
            Facility::uniform("PLC-princeton", 0, 60, 1),
            Facility::uniform("PLC-berkeley", 60, 40, 1),
        ],
        vec![
            Facility::uniform("PLE-upmc", 100, 250, 1),
            Facility::uniform("PLE-inria", 350, 150, 1),
        ],
        vec![Facility::uniform("PLJ-tokyo", 500, 800, 1)],
    ];
    let h = hierarchical_shapley(
        &site_groups,
        &Demand::one_experiment(ExperimentClass::simple("meas", 500.0, 1.0)),
    );
    println!(
        "authority shares (quotient Shapley): {:?}",
        rounded(&h.authority_shares)
    );
    for (group, shares) in site_groups.iter().zip(&h.site_shares) {
        for (site, s) in group.iter().zip(shares) {
            println!(
                "  {:>15}: {:>7.4}  (payoff {:>6.1})",
                site.name,
                s,
                s * h.grand_value
            );
        }
    }
    println!("The Owen quotient property makes the two levels consistent: each");
    println!("authority's sites jointly receive exactly its top-level share, so");
    println!("local and global federation policies cannot contradict each other.");
    Ok(())
}

fn rounded(v: &[f64]) -> Vec<f64> {
    v.iter().map(|x| (x * 1e4).round() / 1e4).collect()
}
