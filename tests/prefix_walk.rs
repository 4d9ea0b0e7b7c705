//! Equivalence guards for `FederationGame`'s walks (DESIGN.md §14).
//!
//! Exact Shapley fills its coalition table through `WideGame::value_walk`
//! and the permutation estimator evaluates every prefix of each sampled
//! ordering through `WideGame::value_prefixes`, its add-only case.
//! `FederationGame` overrides the walk with a capacity profile updated
//! one facility at a time, added or removed; the contract is bit
//! equality with `value_members` on the current sorted member set. The
//! synthetic federations give every facility its own location range, so
//! the generated facilities here overlap on purpose: shared locations are
//! where accumulated capacities must add up and come back down. Some
//! also sit far apart in the `u32` id space, up to `u32::MAX`, which the
//! walk's dense location numbering must absorb.

use fedval::coalition::{try_approx_shapley_wide, ApproxConfig, ApproxShapley, PlayerId};
use fedval::core::LocationOffer;
use fedval::{Demand, ExperimentClass, Facility, FederationGame, Volume, WideGame};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One facility: up to three `(first location, length, capacity)`
/// segments over a 64-location space, so ranges overlap across
/// facilities and within one (`LocationOffer::add` accumulates).
fn facility_strategy() -> impl Strategy<Value = Vec<(u32, u32, u64)>> {
    prop::collection::vec((0u32..48, 1u32..=16, 1u64..=5), 1..=3)
}

/// One facility whose segments start anywhere in the `u32` id space,
/// half of them among its top 16 ids, where they overlap and run up to
/// `u32::MAX` (a segment stops there). An index sized by the raw id
/// would need gigabytes for these.
fn wide_facility_strategy() -> impl Strategy<Value = Vec<(u32, u32, u64)>> {
    let start = (prop::bool::ANY, any::<u32>(), 0u32..16).prop_map(|(top, anywhere, below)| {
        if top {
            u32::MAX - below
        } else {
            anywhere
        }
    });
    prop::collection::vec((start, 1u32..=16, 1u64..=5), 1..=3)
}

/// A federation of up to 12 facilities, each on the 64-location space
/// or spread over the whole id range.
fn federation_strategy() -> impl Strategy<Value = Vec<Vec<(u32, u32, u64)>>> {
    let facility = (
        prop::bool::ANY,
        facility_strategy(),
        wide_facility_strategy(),
    )
        .prop_map(|(wide, narrow, spread)| if wide { spread } else { narrow });
    prop::collection::vec(facility, 1..=12)
}

fn build_facilities(specs: &[Vec<(u32, u32, u64)>]) -> Vec<Facility> {
    specs
        .iter()
        .enumerate()
        .map(|(i, segments)| {
            let mut offer = LocationOffer::new();
            for &(start, len, r) in segments {
                for l in start..=start.saturating_add(len - 1) {
                    offer.add(l, r);
                }
            }
            Facility::new(format!("f{i}"), offer)
        })
        .collect()
}

/// A single-class demand of one of the three volumes the solver's
/// analytic paths take.
fn build_demand(volume: u8, threshold: f64, shape: f64) -> Demand {
    let class = ExperimentClass::simple("e", threshold, shape);
    match volume {
        0 => Demand::one_experiment(class),
        1 => Demand::single(class, Volume::Count(3)),
        _ => Demand::capacity_filling(class),
    }
}

/// Answers `value_members` only, so the estimator takes the trait's
/// default prefix walk.
struct MembersOnly<'a>(FederationGame<'a>);

impl WideGame for MembersOnly<'_> {
    fn n_players(&self) -> usize {
        self.0.n_players()
    }
    fn value_members(&self, members: &[PlayerId]) -> f64 {
        self.0.value_members(members)
    }
}

fn estimate_bits(est: &ApproxShapley) -> Vec<u64> {
    est.phi
        .iter()
        .chain(&est.std_error)
        .chain(&est.ci_half_width)
        .chain([&est.grand_value])
        .map(|v| v.to_bits())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prefix_walk_matches_value_members_bit_for_bit(
        specs in federation_strategy(),
        threshold in 0.0f64..60.0,
        volume in 0u8..3,
        shape in 0usize..3,
        order_seed in any::<u64>(),
    ) {
        let facilities = build_facilities(&specs);
        let demand = build_demand(volume, threshold, [0.5, 1.0, 2.0][shape]);
        let game = FederationGame::new(&facilities, &demand);
        let mut order: Vec<PlayerId> = (0..facilities.len()).collect();
        order.shuffle(&mut StdRng::seed_from_u64(order_seed));
        let walked = game.value_prefixes(&order);
        prop_assert_eq!(walked.len(), order.len());
        for (k, v) in walked.iter().enumerate() {
            let mut prefix = order[..=k].to_vec();
            prefix.sort_unstable();
            prop_assert_eq!(
                v.to_bits(),
                game.value_members(&prefix).to_bits(),
                "prefix {:?}", prefix
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn walk_with_leaves_and_rejoins_matches_value_members_bit_for_bit(
        specs in federation_strategy(),
        threshold in 0.0f64..60.0,
        volume in 0u8..3,
        shape in 0usize..3,
        start_mask in any::<u64>(),
        toggle_draws in prop::collection::vec(any::<usize>(), 1..=40),
    ) {
        let facilities = build_facilities(&specs);
        let n = facilities.len();
        let demand = build_demand(volume, threshold, [0.5, 1.0, 2.0][shape]);
        let game = FederationGame::new(&facilities, &demand);
        let start: Vec<PlayerId> = (0..n).filter(|&p| start_mask >> p & 1 == 1).collect();
        // Draws repeat players, so members leave and rejoin mid-walk.
        let toggles: Vec<PlayerId> = toggle_draws.iter().map(|&d| d % n).collect();
        let walked = game.value_walk(&start, &toggles);
        prop_assert_eq!(walked.len(), toggles.len());
        let mut held: Vec<bool> = (0..n).map(|p| start_mask >> p & 1 == 1).collect();
        for (v, &p) in walked.iter().zip(&toggles) {
            held[p] = !held[p];
            let current: Vec<PlayerId> = (0..n).filter(|&q| held[q]).collect();
            prop_assert_eq!(
                v.to_bits(),
                game.value_members(&current).to_bits(),
                "start {:?}, toggles {:?}, at {:?}", start, toggles, current
            );
        }
    }
}

#[test]
fn sampled_shapley_bytes_do_not_depend_on_the_prefix_path() {
    // 70 facilities: past the 64-player bitset, on overlapping ranges.
    let specs: Vec<Vec<(u32, u32, u64)>> = (0..70u32)
        .map(|i| vec![((i * 7) % 90, 4 + i % 13, 1 + u64::from(i % 4))])
        .collect();
    let facilities = build_facilities(&specs);
    let demand = build_demand(0, 60.0, 1.0);
    let game = FederationGame::new(&facilities, &demand);
    for threads in [1, 2] {
        // 40 samples: two full blocks of 16 and a partial one.
        let cfg = ApproxConfig {
            samples: 40,
            seed: 13,
            threads,
            force: true,
            ..ApproxConfig::default()
        };
        let walked = try_approx_shapley_wide(&game, &cfg).expect("valid config");
        let per_member = try_approx_shapley_wide(
            &MembersOnly(FederationGame::new(&facilities, &demand)),
            &cfg,
        )
        .expect("valid config");
        assert_eq!(
            estimate_bits(&walked),
            estimate_bits(&per_member),
            "threads={threads}"
        );
    }
}
