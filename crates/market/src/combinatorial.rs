//! A Bellagio-style sealed-bid combinatorial auction over diversity
//! bundles.
//!
//! Bidders (experiments) ask for a bundle of at least `min_locations`
//! distinct locations and state a willingness to pay. Winner
//! determination is the greedy bid-density heuristic standard in
//! combinatorial-auction practice (optimal WDP is NP-hard; Bellagio also
//! approximates): bids are admitted in decreasing `amount / min_locations`
//! order while the accepted bundle sizes remain packable
//! (Gale–Ryser-checked against the coalition's capacity profile).
//! Winners pay their bid (first price); each winner receives exactly its
//! minimum bundle.
//!
//! Facility revenue is attributed pro-rata to the location-slots each
//! facility contributes to winning bundles — the "implicit sharing
//! through the market" the paper contrasts with Shapley sharing.

use fedval_core::allocation::{is_realizable, realize_assignment};
use fedval_core::{coalition_profile, Facility, LocationOffer};
use serde::{Deserialize, Serialize};

/// One sealed bid for a diversity bundle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Bid {
    /// Bidder label (for reports).
    pub bidder: String,
    /// Minimum number of distinct locations demanded.
    pub min_locations: u64,
    /// Willingness to pay for the bundle.
    pub amount: f64,
}

impl Bid {
    /// Creates a bid.
    ///
    /// # Panics
    /// Panics on a zero-location bundle or non-finite/negative amount.
    pub fn new(bidder: impl Into<String>, min_locations: u64, amount: f64) -> Bid {
        assert!(min_locations >= 1);
        assert!(amount.is_finite() && amount >= 0.0);
        Bid {
            bidder: bidder.into(),
            min_locations,
            amount,
        }
    }

    /// Bid density (amount per requested location).
    pub fn density(&self) -> f64 {
        self.amount / self.min_locations as f64
    }
}

/// Outcome of the auction.
#[derive(Debug, Clone)]
pub struct AuctionOutcome {
    /// Indices (into the input bid list) of winning bids, in award order.
    pub winners: Vec<usize>,
    /// Total payments collected (first-price).
    pub revenue: f64,
    /// Total winner valuation served (here equal to revenue; kept
    /// separate so second-price variants can reuse the struct).
    pub welfare: f64,
    /// Revenue attributed to each facility, pro-rata by slots supplied to
    /// winning bundles.
    pub facility_revenue: Vec<f64>,
}

impl AuctionOutcome {
    /// Facility revenue shares (normalized; zeros if no revenue).
    pub fn revenue_shares(&self) -> Vec<f64> {
        let total: f64 = self.facility_revenue.iter().sum();
        fedval_coalition::normalize(self.facility_revenue.clone(), total)
    }
}

/// Runs the greedy combinatorial auction.
pub fn run_combinatorial_auction(facilities: &[Facility], bids: &[Bid]) -> AuctionOutcome {
    let profile = coalition_profile(facilities);
    let merged = LocationOffer::merge(facilities.iter().map(|f| &f.offer));

    // Greedy admission by density, ties broken by input order.
    let mut order: Vec<usize> = (0..bids.len()).collect();
    order.sort_by(|&a, &b| {
        bids[b]
            .density()
            .total_cmp(&bids[a].density())
            .then(a.cmp(&b))
    });

    let mut winners: Vec<usize> = Vec::new();
    let mut sizes: Vec<u64> = Vec::new();
    for idx in order {
        let bid = &bids[idx];
        let mut trial = sizes.clone();
        trial.push(bid.min_locations);
        trial.sort_unstable_by(|a, b| b.cmp(a));
        if is_realizable(&trial, &profile) {
            winners.push(idx);
            sizes = trial;
        }
    }

    let revenue: f64 = winners.iter().map(|&i| bids[i].amount).sum();

    // Attribute revenue: realize the winning bundle sizes on the merged
    // offer, then split each location's usage among the facilities that
    // provide capacity there, weighted by each winner's payment per slot.
    //
    // For simplicity (and because winners' slots are homogeneous here) we
    // attribute the pooled revenue pro-rata to slots used per facility.
    let mut facility_revenue = vec![0.0; facilities.len()];
    let sorted_sizes = sizes;
    if !sorted_sizes.is_empty() {
        if let Some(assignment) = realize_assignment(&merged, &sorted_sizes) {
            let slots_used: u64 = assignment.usage.iter().map(|&(_, u)| u).sum();
            if slots_used > 0 {
                let per_slot = revenue / slots_used as f64;
                for &(loc, used) in &assignment.usage {
                    if used == 0 {
                        continue;
                    }
                    let total_cap = merged.capacity_at(loc) as f64;
                    for (i, f) in facilities.iter().enumerate() {
                        let cap = f.offer.capacity_at(loc) as f64;
                        if cap > 0.0 {
                            facility_revenue[i] += used as f64 * per_slot * cap / total_cap;
                        }
                    }
                }
            }
        }
    }

    AuctionOutcome {
        winners,
        revenue,
        welfare: revenue,
        facility_revenue,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedval_core::paper_facilities;

    #[test]
    fn greedy_prefers_denser_bids() {
        // 3 locations capacity 1: a dense small bid beats a cheap big one.
        let facilities = vec![Facility::uniform("f", 0, 3, 1)];
        let bids = vec![
            Bid::new("cheap-big", 3, 3.0),   // density 1
            Bid::new("dense-small", 1, 5.0), // density 5
            Bid::new("mid", 2, 4.0),         // density 2
        ];
        let out = run_combinatorial_auction(&facilities, &bids);
        // dense-small (1 loc) + mid (2 locs) fill capacity; cheap-big loses.
        assert_eq!(out.winners, vec![1, 2]);
        assert!((out.revenue - 9.0).abs() < 1e-12);
    }

    #[test]
    fn infeasible_bundles_are_rejected() {
        let facilities = vec![Facility::uniform("f", 0, 2, 1)];
        let bids = vec![Bid::new("too-big", 5, 100.0), Bid::new("fits", 2, 1.0)];
        let out = run_combinatorial_auction(&facilities, &bids);
        assert_eq!(out.winners, vec![1]);
    }

    #[test]
    fn revenue_attribution_is_pro_rata_by_slots() {
        // Facility A: 1 location; facility B: 3 locations. A 4-location
        // bundle uses all of both: A gets 1/4 of revenue.
        let facilities = vec![
            Facility::uniform("A", 0, 1, 1),
            Facility::uniform("B", 1, 3, 1),
        ];
        let bids = vec![Bid::new("x", 4, 8.0)];
        let out = run_combinatorial_auction(&facilities, &bids);
        assert!((out.facility_revenue[0] - 2.0).abs() < 1e-9);
        assert!((out.facility_revenue[1] - 6.0).abs() < 1e-9);
        let shares = out.revenue_shares();
        assert!((shares[0] - 0.25).abs() < 1e-9);
    }

    #[test]
    fn market_shares_track_consumption_not_pivotality() {
        // The paper's critique, executable: a diversity-pivotal small
        // facility earns only its slot share from the market, while its
        // Shapley share is far larger.
        use fedval_coalition::{shapley_normalized, TableGame};
        use fedval_core::{Demand, ExperimentClass, FederationGame};

        let facilities = paper_facilities([1, 1, 1]);
        // One bundle needing 1250 locations: only the grand coalition
        // can host it (1300 total), and every facility is pivotal.
        let bids = vec![Bid::new("monster", 1250, 1250.0)];
        let out = run_combinatorial_auction(&facilities, &bids);
        let market = out.revenue_shares();

        let demand = Demand::one_experiment(ExperimentClass::simple("e", 1249.0, 1.0));
        let game = TableGame::try_from_walk(&FederationGame::new(&facilities, &demand), 1)
            .expect("3 facilities");
        let shapley = shapley_normalized(&game);

        // Shapley: equal thirds (all pivotal). Market: slot-proportional.
        for s in &shapley {
            assert!((s - 1.0 / 3.0).abs() < 1e-9);
        }
        assert!(market[0] < 0.11, "market underpays the small facility");
        assert!(market[2] > 0.55, "market overpays the big facility");
    }

    #[test]
    fn empty_bid_set() {
        let facilities = vec![Facility::uniform("f", 0, 3, 1)];
        let out = run_combinatorial_auction(&facilities, &[]);
        assert!(out.winners.is_empty());
        assert_eq!(out.revenue, 0.0);
        assert_eq!(out.revenue_shares(), vec![0.0]);
    }
}
