//! The dynamic (loss-network) federation value — the paper's §6 extension
//! implemented.
//!
//! The static model (eq. 2) counts experiments; the dynamic model counts
//! *rates*: experiments of class `k` arrive Poisson(λ_k), hold their
//! resources for a mean time t̄_k, and are blocked when the coalition's
//! capacity is exhausted. The long-run value rate of coalition `S` is
//!
//! ```text
//! V̇(S) = Σ_k λ_k · (1 − B_k(S)) · u_k(x_k(S))
//! ```
//!
//! where admitted class-`k` experiments take `x_k(S) = min(l̄_k, L(S))`
//! distinct locations (max-diversity placement, PlanetLab style), consume
//! `b_k = r_k·x_k` slot-units, and `B_k` comes from the Kaufman–Roberts
//! recursion on the coalition's slot pool. Classes whose diversity
//! threshold exceeds `L(S)` are simply not servable by `S`.
//!
//! **Approximation note:** pooling all location-slots into one knapsack
//! ignores the per-location packing constraints (Gale–Ryser) that the
//! static optimizer enforces; it is exact when per-location capacities are
//! uniform and experiments spread maximally, and an upper bound otherwise.
//! The testbed DES (`fedval-testbed`) is the packing-faithful
//! counterpart; the bench suite compares the two.
//!
//! This captures the paper's statistical-multiplexing claims: small
//! holding times raise the game's superadditivity (§3.2.1), and pooling
//! cuts blocking — now with Shapley values computable on top.

use crate::experiment::ExperimentClass;
use crate::facility::{coalition_profile, Facility};
use fedval_coalition::{Coalition, PlayerId, WideGame};
use fedval_desim::{erlang_fixed_point, kaufman_roberts, LossClass, Route};

/// How coalition capacity is modelled in the dynamic game.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValueMode {
    /// All location-slots pooled into one stochastic knapsack
    /// (Kaufman–Roberts). Fast; ignores per-location packing.
    #[default]
    SlotPool,
    /// Each location is a link of its own capacity and an experiment is a
    /// route over its locations (Erlang fixed point). Packing-faithful;
    /// limited to coalitions of ≤ 512 locations and uniform
    /// `resources_per_location = 1`.
    PerLocation,
}

/// One class of dynamic demand.
#[derive(Debug, Clone)]
pub struct DynamicClass {
    /// The experiment class (threshold, utility, `r`, `l̄`).
    pub class: ExperimentClass,
    /// Poisson arrival rate λ.
    pub arrival_rate: f64,
    /// Mean holding time t̄ (absolute; the class's `holding_time`
    /// attribute is a *relative* factor — see
    /// [`DynamicDemand::paper_mix`]).
    pub mean_holding: f64,
}

/// A dynamic demand profile.
#[derive(Debug, Clone)]
pub struct DynamicDemand {
    /// The classes.
    pub classes: Vec<DynamicClass>,
}

impl DynamicDemand {
    /// Single-class dynamic demand.
    pub fn single(class: ExperimentClass, arrival_rate: f64, mean_holding: f64) -> DynamicDemand {
        DynamicDemand {
            classes: vec![DynamicClass {
                class,
                arrival_rate,
                mean_holding,
            }],
        }
    }

    /// The paper's three canonical classes with holding times scaled by
    /// their `t` attributes (P2P 0.1, CDN 1, measurement 0.4).
    pub fn paper_mix(rate_per_class: f64, base_holding: f64) -> DynamicDemand {
        let classes = [
            ExperimentClass::p2p(),
            ExperimentClass::cdn(),
            ExperimentClass::measurement(),
        ];
        DynamicDemand {
            classes: classes
                .into_iter()
                .map(|class| DynamicClass {
                    mean_holding: base_holding * class.holding_time,
                    class,
                    arrival_rate: rate_per_class,
                })
                .collect(),
        }
    }

    /// Uniformly scales all holding times (multiplexing knob).
    pub fn with_holding_scale(mut self, factor: f64) -> DynamicDemand {
        assert!(factor > 0.0);
        for c in &mut self.classes {
            c.mean_holding *= factor;
        }
        self
    }
}

/// The coalitional game whose value is the long-run value *rate* of each
/// coalition under dynamic demand.
pub struct DynamicFederationGame<'a> {
    facilities: &'a [Facility],
    demand: &'a DynamicDemand,
    mode: ValueMode,
}

impl<'a> DynamicFederationGame<'a> {
    /// Creates the game.
    ///
    /// # Panics
    /// Panics if there are no facilities or more than 64.
    pub fn new(facilities: &'a [Facility], demand: &'a DynamicDemand) -> DynamicFederationGame<'a> {
        assert!(!facilities.is_empty());
        assert!(facilities.len() <= 64);
        DynamicFederationGame {
            facilities,
            demand,
            mode: ValueMode::SlotPool,
        }
    }

    /// Selects the capacity model (builder style).
    pub fn with_mode(mut self, mode: ValueMode) -> DynamicFederationGame<'a> {
        self.mode = mode;
        self
    }

    /// Per-class blocking probabilities for a coalition (1.0 for classes
    /// the coalition cannot serve at all).
    pub fn blocking(&self, coalition: Coalition) -> Vec<f64> {
        let members: Vec<PlayerId> = coalition.players().collect();
        self.analyze(&members).1
    }

    /// `(value rate, per-class blocking)` for the coalition of `members`.
    fn analyze(&self, members: &[PlayerId]) -> (f64, Vec<f64>) {
        let members: Vec<&Facility> = members.iter().map(|&p| &self.facilities[p]).collect();
        match self.mode {
            ValueMode::SlotPool => self.analyze_slot_pool(members),
            ValueMode::PerLocation => self.analyze_per_location(members),
        }
    }

    /// Per-location (loss-network) analysis: each location is a link, an
    /// admitted class-k experiment is a route over the x_k
    /// largest-capacity locations.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "location counts and route sizes are asserted <= 512 below"
    )]
    fn analyze_per_location(&self, members: Vec<&Facility>) -> (f64, Vec<f64>) {
        let n_classes = self.demand.classes.len();
        let mut blocking = vec![1.0; n_classes];
        if members.is_empty() {
            return (0.0, blocking);
        }
        let profile = coalition_profile(members);
        let locations = profile.n_locations();
        assert!(locations <= 512, "PerLocation mode limited to 512 locations");
        // One link per location, largest capacities first (routes take
        // prefixes of this list).
        let mut capacities: Vec<u64> = Vec::with_capacity(locations as usize);
        for &(cap, count) in profile.groups().iter().rev() {
            for _ in 0..count {
                capacities.push(cap);
            }
        }
        let mut routes = Vec::new();
        let mut servable = Vec::new();
        for (k, dc) in self.demand.classes.iter().enumerate() {
            assert_eq!(
                dc.class.resources_per_location, 1,
                "PerLocation mode requires r = 1"
            );
            let x = dc.class.max_size(locations);
            if (x as f64) <= dc.class.utility.threshold || x == 0 {
                continue;
            }
            routes.push(Route::new(
                (0..x as usize).collect(),
                dc.arrival_rate * dc.mean_holding,
            ));
            servable.push((k, dc.arrival_rate, dc.class.utility_of(x)));
        }
        if routes.is_empty() {
            return (0.0, blocking);
        }
        let fp = erlang_fixed_point(&capacities, &routes);
        let mut value_rate = 0.0;
        for ((k, rate, utility), &b) in servable.into_iter().zip(&fp.route_blocking) {
            blocking[k] = b;
            value_rate += rate * (1.0 - b) * utility;
        }
        (value_rate, blocking)
    }

    /// Pooled-knapsack analysis (Kaufman–Roberts).
    fn analyze_slot_pool(&self, members: Vec<&Facility>) -> (f64, Vec<f64>) {
        if members.is_empty() {
            return (0.0, vec![1.0; self.demand.classes.len()]);
        }
        let profile = coalition_profile(members);
        let locations = profile.n_locations();
        let capacity = profile.total_slots();

        // Servable classes become knapsack classes.
        let mut loss_classes = Vec::new();
        let mut servable = Vec::new(); // (demand idx, x, utility)
        for (k, dc) in self.demand.classes.iter().enumerate() {
            let x = dc.class.max_size(locations);
            if (x as f64) <= dc.class.utility.threshold {
                continue;
            }
            let b = x * dc.class.resources_per_location;
            if b == 0 || b > capacity {
                continue;
            }
            loss_classes.push(LossClass::new(dc.arrival_rate, dc.mean_holding, b));
            servable.push((k, x, dc.class.utility_of(x)));
        }
        let mut blocking = vec![1.0; self.demand.classes.len()];
        if loss_classes.is_empty() {
            return (0.0, blocking);
        }
        let analysis = kaufman_roberts(capacity, &loss_classes);
        let mut value_rate = 0.0;
        for ((&(k, _, utility), loss), &b) in
            servable.iter().zip(&loss_classes).zip(&analysis.blocking)
        {
            blocking[k] = b;
            value_rate += loss.rate * (1.0 - b) * utility;
        }
        (value_rate, blocking)
    }
}

impl WideGame for DynamicFederationGame<'_> {
    fn n_players(&self) -> usize {
        self.facilities.len()
    }

    fn value_members(&self, members: &[PlayerId]) -> f64 {
        self.analyze(members).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facility::paper_facilities;
    use fedval_coalition::{is_superadditive, shapley_normalized, TableGame};

    fn demand(l: f64, rate: f64, holding: f64) -> DynamicDemand {
        DynamicDemand::single(ExperimentClass::simple("e", l, 1.0), rate, holding)
    }

    #[test]
    fn empty_and_unservable_coalitions_have_zero_rate() {
        let facilities = paper_facilities([1, 1, 1]);
        let d = demand(500.0, 1.0, 1.0);
        let g = DynamicFederationGame::new(&facilities, &d);
        assert_eq!(g.value(Coalition::EMPTY), 0.0);
        // Facility 1 alone: 100 locations < 501 ⇒ cannot serve.
        assert_eq!(g.value(Coalition::singleton(0)), 0.0);
        assert_eq!(g.blocking(Coalition::singleton(0))[0], 1.0);
        // The grand coalition serves.
        assert!(g.grand_value() > 0.0);
    }

    #[test]
    fn light_load_approaches_full_throughput() {
        // λ·u with negligible blocking: V ≈ λ·u(x).
        let facilities = paper_facilities([4, 4, 4]);
        let d = demand(0.0, 0.001, 1.0);
        let g = DynamicFederationGame::new(&facilities, &d);
        let v = g.grand_value();
        let expect = 0.001 * 1300.0; // u(1300) = 1300, B ≈ 0
        assert!((v - expect).abs() / expect < 0.01, "v = {v}");
    }

    #[test]
    fn shorter_holding_times_raise_value() {
        // §2.2: small t ⇒ more statistical multiplexing ⇒ higher rate.
        let facilities = paper_facilities([1, 1, 1]);
        let heavy = demand(100.0, 2.0, 4.0);
        let light = demand(100.0, 2.0, 0.25);
        let vh = DynamicFederationGame::new(&facilities, &heavy).grand_value();
        let vl = DynamicFederationGame::new(&facilities, &light).grand_value();
        assert!(vl > vh, "light {vl} vs heavy {vh}");
    }

    #[test]
    fn dynamic_game_is_superadditive_under_diversity_demand() {
        let facilities = paper_facilities([2, 2, 2]);
        let d = demand(300.0, 0.5, 1.0);
        let g = DynamicFederationGame::new(&facilities, &d);
        let table = TableGame::try_from_walk(&g, 1).expect("3 facilities");
        assert!(is_superadditive(&table, 1e-9));
    }

    #[test]
    fn dynamic_shapley_shares_are_probability_vector_and_diversity_biased() {
        let facilities = paper_facilities([1, 1, 1]);
        let d = demand(500.0, 1.0, 1.0);
        let g = DynamicFederationGame::new(&facilities, &d);
        let table = TableGame::try_from_walk(&g, 1).expect("3 facilities");
        let shares = shapley_normalized(&table);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Facility 3 (the only solo server) dominates, as in the static
        // worked example.
        assert!(shares[2] > 0.5);
    }

    #[test]
    fn paper_mix_builds_three_classes() {
        let d = DynamicDemand::paper_mix(1.0, 10.0);
        assert_eq!(d.classes.len(), 3);
        assert!((d.classes[0].mean_holding - 1.0).abs() < 1e-12);
        assert!((d.classes[1].mean_holding - 10.0).abs() < 1e-12);
        assert!((d.classes[2].mean_holding - 4.0).abs() < 1e-12);
        let scaled = d.with_holding_scale(0.5);
        assert!((scaled.classes[1].mean_holding - 5.0).abs() < 1e-12);
    }

    #[test]
    fn blocking_increases_with_load() {
        let facilities = paper_facilities([1, 1, 1]);
        let grand = Coalition::grand(3);
        let mut prev = 0.0;
        for rate in [0.1, 1.0, 10.0] {
            let d = demand(0.0, rate, 1.0);
            let g = DynamicFederationGame::new(&facilities, &d);
            let b = g.blocking(grand)[0];
            assert!(b >= prev - 1e-12);
            prev = b;
        }
    }
}

#[cfg(test)]
mod per_location_tests {
    use super::*;
    use crate::facility::paper_facilities_with_locations;
    use fedval_coalition::shapley_normalized;
    use fedval_coalition::TableGame;

    fn small_facilities() -> Vec<Facility> {
        // 3 facilities with 20/30/50 locations, 2 slots each (260 total).
        paper_facilities_with_locations([20, 30, 50], [2, 2, 2])
    }

    #[test]
    fn per_location_mode_blocks_no_less_than_slot_pool() {
        // The slot pool ignores packing constraints, so it is an
        // optimistic bound: per-location blocking ≥ pooled blocking.
        let facilities = small_facilities();
        let d = DynamicDemand::single(ExperimentClass::simple("e", 40.0, 1.0), 2.0, 1.0);
        let pooled = DynamicFederationGame::new(&facilities, &d);
        let network = DynamicFederationGame::new(&facilities, &d).with_mode(ValueMode::PerLocation);
        let grand = Coalition::grand(3);
        let b_pool = pooled.blocking(grand)[0];
        let b_net = network.blocking(grand)[0];
        assert!(
            b_net >= b_pool - 1e-9,
            "network blocking {b_net} < pooled {b_pool}"
        );
        // And the value rate is correspondingly lower.
        assert!(network.value(grand) <= pooled.value(grand) + 1e-9);
    }

    #[test]
    fn per_location_unservable_classes_block_fully() {
        let facilities = small_facilities();
        let d = DynamicDemand::single(ExperimentClass::simple("wide", 150.0, 1.0), 1.0, 1.0);
        let g = DynamicFederationGame::new(&facilities, &d).with_mode(ValueMode::PerLocation);
        // Facility 1 alone: 20 < 151 locations.
        assert_eq!(g.blocking(Coalition::singleton(0))[0], 1.0);
        assert_eq!(g.value(Coalition::singleton(0)), 0.0);
        // Grand: 100 locations < 151 — still unservable.
        assert_eq!(g.value(Coalition::grand(3)), 0.0);
    }

    #[test]
    fn per_location_shapley_is_probability_vector() {
        let facilities = small_facilities();
        let d = DynamicDemand::single(ExperimentClass::simple("e", 60.0, 1.0), 1.5, 0.5);
        let g = DynamicFederationGame::new(&facilities, &d).with_mode(ValueMode::PerLocation);
        let table = TableGame::try_from_walk(&g, 1).expect("3 facilities");
        let shares = shapley_normalized(&table);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(shares.iter().all(|&s| s >= -1e-12));
        // The 50-location facility is the diversity anchor.
        assert!(shares[2] > shares[0]);
    }

    #[test]
    fn modes_agree_when_capacity_is_uniform_and_routes_span_everything() {
        // Single class spanning all locations with equal per-location
        // capacity: the network behaves like c parallel "layers", which
        // the knapsack model captures closely at low load.
        let facilities = paper_facilities_with_locations([10, 10, 10], [3, 3, 3]);
        let d = DynamicDemand::single(ExperimentClass::simple("e", 0.0, 1.0), 0.05, 1.0);
        let grand = Coalition::grand(3);
        let pooled = DynamicFederationGame::new(&facilities, &d).value(grand);
        let network = DynamicFederationGame::new(&facilities, &d)
            .with_mode(ValueMode::PerLocation)
            .value(grand);
        let rel = (pooled - network).abs() / pooled.max(1e-9);
        assert!(rel < 0.05, "pooled {pooled} vs network {network}");
    }
}
