//! Extension experiments beyond the paper's own figures — the ablations
//! DESIGN.md §5 calls out, packaged like the paper figures so the repro
//! binary and the benches can regenerate them.
//!
//! * `ext1` — overlap sweep: how shared locations erode federation value
//!   and redistribute Shapley shares (§2.1's `o_ij`, Fig. 1's overlap).
//! * `ext2` — availability sweep: Shapley share of a facility as its
//!   `Tᵢ` degrades (§2.1's availability attribute).
//! * `ext3` — static vs dynamic (loss-network) shares as holding times
//!   shrink: the statistical-multiplexing dimension of §2.2/§6.
//! * `ext4` — greedy vs optimal allocation efficiency: the value lost to
//!   the "simple" policies the paper warns about.
//! * `ext5` — static vs measured Shapley shares across workload seeds:
//!   validates the off-line policy pipeline end to end.

use crate::series::{Figure, Series};
use fedval_coalition::{shapley_normalized, TableGame};
use fedval_core::allocation::{solve, solve_greedy, GreedyPolicy};
use fedval_core::{
    block_overlap, coalition_profile, paper_facilities, paper_facilities_with_locations,
    AvailabilityGame, Demand, DynamicDemand, DynamicFederationGame, ExperimentClass,
    FederationGame, FederationScenario,
};

/// Ext. 1 — overlap sweep: `shared ∈ [0, 400]` common locations among all
/// three facilities (threshold-500 single experiment).
pub fn ext1_overlap() -> Figure {
    let mut value = Series::new("V(N)");
    let mut phi3 = Series::new("phi_hat_3");
    let mut discount = Series::new("diversity_discount");
    for shared in (0u32..=400).step_by(50) {
        let facilities = block_overlap(&[100, 400 - shared, 800 - shared], shared, 1);
        let d = fedval_core::diversity_discount(&facilities);
        let scenario = FederationScenario::new(
            facilities,
            Demand::one_experiment(ExperimentClass::simple("e", 500.0, 1.0)),
        );
        let x = shared as f64;
        value.push(x, scenario.grand_value());
        phi3.push(x, scenario.shapley_shares()[2]);
        discount.push(x, d);
    }
    Figure {
        id: "ext1",
        title: "overlap erodes value and reshuffles shares",
        x_label: "shared",
        series: vec![value, phi3, discount],
    }
}

/// Ext. 2 — availability sweep: facility 2's `T₂ ∈ [0.1, 1.0]` on the
/// worked example; its normalized Shapley share degrades with it.
#[expect(
    clippy::expect_used,
    reason = "3 facilities fit a table; T₂ ∈ [0.1, 1] is valid"
)]
pub fn ext2_availability() -> Figure {
    let facilities = paper_facilities([1, 1, 1]);
    let demand = Demand::one_experiment(ExperimentClass::simple("e", 500.0, 1.0));
    let base = TableGame::try_from_walk(&FederationGame::new(&facilities, &demand), 1)
        .expect("3 facilities");
    let mut share2 = Series::new("phi_hat_2");
    let mut grand = Series::new("V_T(N)");
    for step in 1..=10 {
        let t2 = step as f64 / 10.0;
        let flaky = AvailabilityGame::try_new(base.clone(), vec![1.0, t2, 1.0])
            .expect("availabilities in (0, 1]");
        let game = TableGame::try_from_walk(&flaky, 1).expect("3 facilities");
        share2.push(t2, shapley_normalized(&game)[1]);
        grand.push(t2, game.values()[7]);
    }
    Figure {
        id: "ext2",
        title: "facility 2's share vs its availability T2",
        x_label: "T2",
        series: vec![share2, grand],
    }
}

/// Ext. 3 — static vs dynamic shares as the holding-time scale shrinks
/// (more statistical multiplexing). The static model is insensitive; the
/// loss-network model rewards multiplexability.
#[expect(clippy::expect_used, reason = "3 facilities fit a table")]
pub fn ext3_dynamic_multiplexing() -> Figure {
    let facilities = paper_facilities([1, 1, 1]);
    let mut value_rate = Series::new("dynamic V(N) rate");
    let mut phi3 = Series::new("dynamic phi_hat_3");
    let mut blocking = Series::new("grand blocking");
    for &scale in &[4.0, 2.0, 1.0, 0.5, 0.25, 0.125] {
        let demand = DynamicDemand::single(
            ExperimentClass::simple("e", 500.0, 1.0),
            2.0,
            1.0,
        )
        .with_holding_scale(scale);
        let game = DynamicFederationGame::new(&facilities, &demand);
        let table = TableGame::try_from_walk(&game, 1).expect("3 facilities");
        let shares = shapley_normalized(&table);
        value_rate.push(scale, table.values()[7]);
        phi3.push(scale, shares[2]);
        blocking.push(
            scale,
            game.blocking(fedval_coalition::Coalition::grand(3))[0],
        );
    }
    Figure {
        id: "ext3",
        title: "loss-network federation value vs holding-time scale",
        x_label: "t_scale",
        series: vec![value_rate, phi3, blocking],
    }
}

/// Ext. 4 — greedy efficiency loss: optimal vs FCFS-greedy total utility
/// across thresholds on the Fig. 6 configuration.
pub fn ext4_greedy_loss() -> Figure {
    let facilities = paper_facilities([80, 20, 10]);
    let profile = coalition_profile(&facilities);
    let mut optimal = Series::new("optimal");
    let mut max_div = Series::new("greedy_max_diversity");
    let mut minimal = Series::new("greedy_minimal");
    for l in (0..=1200).step_by(100) {
        let demand = Demand::capacity_filling(ExperimentClass::simple("e", l as f64, 1.0));
        let x = l as f64;
        // Capacity-filling demand is always supported; if solve ever fails
        // here, drop the point rather than abort the whole figure run.
        if let Ok(s) = solve(&profile, &demand) {
            optimal.push(x, s.total_utility);
        }
        max_div.push(
            x,
            solve_greedy(&profile, &demand, GreedyPolicy::MaxDiversity).total_utility,
        );
        minimal.push(
            x,
            solve_greedy(&profile, &demand, GreedyPolicy::Minimal).total_utility,
        );
    }
    Figure {
        id: "ext4",
        title: "allocation efficiency: optimal vs greedy baselines",
        x_label: "l",
        series: vec![optimal, max_div, minimal],
    }
}

/// Ext. 5 — static (closed-form) vs measured (slice-simulation) Shapley
/// shares on the same 3-authority geometry, across workload seeds: the
/// two routes must tell the same story for the paper's off-line policy
/// pipeline to be trustworthy.
#[expect(
    clippy::expect_used,
    reason = "3 authorities are inside the measurement cap"
)]
pub fn ext5_static_vs_measured() -> Figure {
    use fedval_testbed::{
        empirical_game_diagnosed, synthetic_authority, FaultPlan, Federation, SimConfig, Workload,
    };

    // Geometry: 8/5/3 sites with *different* node depths (3/2/1 slivers),
    // class needs > 7 locations. Coalitions differ in both diversity and
    // the depth of their shallowest location, so the measured game
    // carries real congestion differences rather than being a scaled copy
    // of the closed form.
    let federation = Federation::new(vec![
        synthetic_authority("A", 0, 8, 2, 3, 0),
        synthetic_authority("B", 8, 5, 2, 2, 0),
        synthetic_authority("C", 13, 3, 2, 1, 0),
    ]);
    let class = ExperimentClass::simple("wide", 7.0, 1.0);

    // Static route (same slot geometry).
    let facilities = paper_facilities_with_locations([8, 5, 3], [6, 4, 2]);
    let static_scenario = FederationScenario::new(
        facilities,
        Demand::capacity_filling(class.clone()),
    );
    let static_phi = static_scenario.shapley_shares();

    let mut series: Vec<Series> = (1..=3)
        .map(|i| Series::new(format!("measured phi_hat_{i}")))
        .collect();
    let mut static_series: Vec<Series> = (1..=3)
        .map(|i| Series::new(format!("static phi_hat_{i}")))
        .collect();
    for seed in 1..=8u64 {
        // Congested regime (≈ 8 concurrent wide slices vs 4 slivers per
        // node): blocking differs by coalition, so the measured game
        // genuinely deviates from the closed form instead of being a
        // scaled copy of it.
        let workload = Workload::single(class.clone(), 8.0, 1.0);
        let config = SimConfig {
            horizon: 400.0,
            warmup: 40.0,
            seed,
            churn: None,
        };
        let game = empirical_game_diagnosed(&federation, &workload, &config, &FaultPlan::new())
            .expect("3 authorities")
            .game;
        let measured = shapley_normalized(&game);
        for i in 0..3 {
            series[i].push(seed as f64, measured[i]);
            static_series[i].push(seed as f64, static_phi[i]);
        }
    }
    series.extend(static_series);
    Figure {
        id: "ext5",
        title: "measured vs static Shapley shares across workload seeds",
        x_label: "seed",
        series,
    }
}

/// All extension figures.
pub fn all_extras() -> Vec<Figure> {
    vec![
        ext1_overlap(),
        ext2_availability(),
        ext3_dynamic_multiplexing(),
        ext4_greedy_loss(),
        ext5_static_vs_measured(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ext1_value_declines_with_overlap() {
        let fig = ext1_overlap();
        let v = fig.series("V(N)").unwrap();
        let (first, last) = v.endpoints().unwrap();
        assert!(last < first);
        let d = fig.series("diversity_discount").unwrap();
        assert!((d.at(0.0).unwrap() - 1.0).abs() < 1e-9);
        assert!(d.endpoints().unwrap().1 < 1.0);
    }

    #[test]
    fn ext2_share_degrades_with_unavailability() {
        let fig = ext2_availability();
        let s = fig.series("phi_hat_2").unwrap();
        // Monotone non-decreasing in T2.
        assert!(s.points.windows(2).all(|w| w[1].1 >= w[0].1 - 1e-12));
        // At T2 = 1 we recover 2/13.
        assert!((s.at(1.0).unwrap() - 2.0 / 13.0).abs() < 1e-9);
    }

    #[test]
    fn ext3_multiplexing_raises_value_rate() {
        let fig = ext3_dynamic_multiplexing();
        let v = fig.series("dynamic V(N) rate").unwrap();
        // x-axis descends (4.0 → 0.125): value rate ascends.
        assert!(v.points.windows(2).all(|w| w[1].1 >= w[0].1 - 1e-9));
        let b = fig.series("grand blocking").unwrap();
        assert!(b.points.windows(2).all(|w| w[1].1 <= w[0].1 + 1e-9));
    }

    #[test]
    fn ext5_measured_tracks_static_shares() {
        let fig = ext5_static_vs_measured();
        for i in 1..=3 {
            let measured = fig.series(&format!("measured phi_hat_{i}")).unwrap();
            let expected = fig
                .series(&format!("static phi_hat_{i}"))
                .unwrap()
                .points[0]
                .1;
            for &(seed, y) in &measured.points {
                assert!(
                    (y - expected).abs() < 0.25,
                    "seed {seed} facility {i}: measured {y} vs static {expected}"
                );
            }
            // And on average across seeds, tighter agreement.
            let mean: f64 = measured.points.iter().map(|&(_, y)| y).sum::<f64>()
                / measured.points.len() as f64;
            assert!(
                (mean - expected).abs() < 0.15,
                "facility {i}: mean {mean} vs static {expected}"
            );
        }
        // The measured shares must not be degenerate (some seed, some
        // facility deviates from the static value — real noise).
        let noisy = (1..=3).any(|i| {
            let m = fig.series(&format!("measured phi_hat_{i}")).unwrap();
            let s = fig.series(&format!("static phi_hat_{i}")).unwrap().points[0].1;
            m.points.iter().any(|&(_, y)| (y - s).abs() > 1e-6)
        });
        assert!(noisy, "expected simulation noise in the measured game");
    }

    #[test]
    fn ext4_greedy_never_beats_optimal() {
        let fig = ext4_greedy_loss();
        let optimal = fig.series("optimal").unwrap();
        for name in ["greedy_max_diversity", "greedy_minimal"] {
            let g = fig.series(name).unwrap();
            for (&(x, go), &(_, vo)) in g.points.iter().zip(&optimal.points) {
                assert!(go <= vo + 1e-9, "{name} at l = {x}: {go} > {vo}");
            }
        }
        // And the loss is strict somewhere (otherwise greedy would be
        // "good enough" and the paper's point would be moot).
        let strict = fig
            .series("greedy_minimal")
            .unwrap()
            .points
            .iter()
            .zip(&optimal.points)
            .any(|(&(_, g), &(_, o))| g + 1e-9 < o);
        assert!(strict);
    }
}
