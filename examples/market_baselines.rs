//! Market mechanisms vs coalitional sharing — the §5 comparison, run.
//!
//! The paper argues that market-based allocation (Bellagio's combinatorial
//! auctions, GridEcon's spot market) shares profit "implicitly through the
//! market, ignoring the possible complementarities in the valuation of the
//! users". Here both mechanisms run on the paper's worked-example
//! federation, next to the Shapley decomposition, so the difference is a
//! table instead of an argument.
//!
//! ```text
//! cargo run --release --example market_baselines
//! ```
#![expect(
    clippy::print_stdout,
    reason = "an example narrates its walkthrough on stdout"
)]

use fedval::market::{clear_double_auction, run_combinatorial_auction, Ask, Bid, Order};
use fedval::{
    paper_facilities, Demand, ExperimentClass, FederationScenario,
};

fn main() {
    let facilities = paper_facilities([1, 1, 1]);

    // The demand side: one diversity-hungry customer (> 1200 locations —
    // every facility pivotal) plus two modest ones.
    println!("== combinatorial auction (Bellagio-style) ==");
    let bids = vec![
        Bid::new("global-measurement", 1201, 2600.0),
        Bid::new("small-overlay-a", 40, 45.0),
        Bid::new("small-overlay-b", 60, 80.0),
    ];
    let auction = run_combinatorial_auction(&facilities, &bids);
    println!(
        "winners: {:?}, revenue = {:.0}",
        auction
            .winners
            .iter()
            .map(|&i| bids[i].bidder.as_str())
            .collect::<Vec<_>>(),
        auction.revenue
    );
    let market_shares = auction.revenue_shares();

    // The coalitional view of the same headline demand.
    let scenario = FederationScenario::new(
        facilities.clone(),
        Demand::one_experiment(ExperimentClass::simple("global", 1200.0, 1.0)),
    );
    let shapley = scenario.shapley_shares();
    let proportional = scenario.proportional_shares();

    println!(
        "\n{:>10} {:>14} {:>12} {:>14}",
        "facility", "market share", "shapley", "proportional"
    );
    for i in 0..3 {
        println!(
            "{:>10} {:>14.4} {:>12.4} {:>14.4}",
            i + 1,
            market_shares[i],
            shapley[i],
            proportional[i]
        );
    }
    println!();
    println!("Every facility is *pivotal* for the big experiment (it needs more");
    println!("locations than any 2-coalition has), so Shapley pays equal thirds.");
    println!("The market pays by slots consumed — facility 1's hundred locations");
    println!("earn ~1/13 of revenue despite being indispensable.\n");

    // The spot market: slots as a commodity.
    println!("== double-auction spot market (GridEcon-style) ==");
    let asks: Vec<Ask> = facilities
        .iter()
        .map(|f| Ask {
            quantity: f.total_slots(),
            reserve: 0.1,
        })
        .collect();
    let orders = vec![
        Order {
            quantity: 900,
            limit: 1.0,
        },
        Order {
            quantity: 600,
            limit: 0.5,
        },
    ];
    let out = clear_double_auction(&asks, &orders);
    println!(
        "clearing price = {:.2}, traded = {} slots",
        out.price, out.traded
    );
    let spot_shares = out.revenue_shares();
    println!("spot revenue shares: {spot_shares:?}");
    println!();
    println!("Slots are fungible in the spot market: revenue again tracks raw");
    println!("capacity (eq. 6's proportional rule), never the diversity premium.");
}
