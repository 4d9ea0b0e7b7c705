//! One generator per table/figure of the paper's evaluation (§4).
//!
//! Every generator returns a [`Figure`] whose series reproduce the curves
//! in the corresponding plot. Where the paper under-specifies a parameter,
//! the choice is documented on the generator and in EXPERIMENTS.md.

use crate::series::{Figure, Series};
use crate::sweep::{run_sweep, sweep_threads};
use fedval_core::{
    paper_facilities, paper_facilities_with_locations, Demand, ExperimentClass, FederationScenario,
    ThresholdPower, Utility, Volume,
};

/// One sweep point's share vectors (n = 3 facilities).
struct PointShares {
    phi: Vec<f64>,
    pi: Vec<f64>,
    rho: Option<Vec<f64>>,
}

/// Convenience: ϕ̂/π̂ (and optionally ρ̂) series for a family of scenarios
/// swept over `xs`.
///
/// Each point builds its own [`FederationScenario`] inside a
/// [`run_sweep`] worker (the scenario's lazy table cell is
/// single-threaded, so scenarios are never shared across workers); the
/// engine merges results in input order, making the series byte-identical
/// for every thread count.
fn share_sweep(
    xs: &[f64],
    scenario_at: impl Fn(f64) -> FederationScenario + Sync,
    include_consumption: bool,
) -> Vec<Series> {
    let n = 3usize;
    let shares = run_sweep(
        xs,
        |&x| {
            let scenario = scenario_at(x);
            PointShares {
                phi: scenario.shapley_shares(),
                pi: scenario.proportional_shares(),
                rho: include_consumption.then(|| scenario.consumption_shares()),
            }
        },
        sweep_threads(),
    );

    let mut phi: Vec<Series> = (1..=n)
        .map(|i| Series::new(format!("phi_hat_{i}")))
        .collect();
    let mut pi: Vec<Series> = (1..=n)
        .map(|i| Series::new(format!("pi_hat_{i}")))
        .collect();
    let mut rho: Vec<Series> = if include_consumption {
        (1..=n)
            .map(|i| Series::new(format!("rho_hat_{i}")))
            .collect()
    } else {
        Vec::new()
    };
    for (&x, point) in xs.iter().zip(&shares) {
        for i in 0..n {
            phi[i].push(x, point.phi[i]);
            pi[i].push(x, point.pi[i]);
        }
        if let Some(rho_hat) = &point.rho {
            for i in 0..n {
                rho[i].push(x, rho_hat[i]);
            }
        }
    }
    phi.into_iter().chain(pi).chain(rho).collect()
}

/// Fig. 2 — the utility function `u(x) = x^d·1{x > l}` for `l = 50` and
/// `d ∈ {0.8, 1, 1.2}`, sampled on `x ∈ [0, 300]`.
pub fn fig2_utility() -> Figure {
    let shapes = [0.8, 1.0, 1.2];
    let series = shapes
        .iter()
        .map(|&d| {
            let u = ThresholdPower::new(50.0, d);
            let mut s = Series::new(format!("d={d}"));
            for x in (0..=300).step_by(5) {
                s.push(x as f64, u.eval(x as f64));
            }
            s
        })
        .collect();
    Figure {
        id: "fig2",
        title: "utility functions for l = 50",
        x_label: "x",
        series,
    }
}

/// The §4.1 worked example ("Table E1"): coalition values at `l = 500` and
/// the resulting ϕ̂ and π̂.
#[derive(Debug, Clone)]
pub struct WorkedExample {
    /// `(coalition label, V)` for all seven non-empty coalitions.
    pub coalition_values: Vec<(String, f64)>,
    /// Normalized Shapley shares.
    pub shapley_hat: Vec<f64>,
    /// Proportional shares.
    pub proportional_hat: Vec<f64>,
}

/// Computes the worked example.
pub fn table_e1() -> WorkedExample {
    use fedval_coalition::{Coalition, WideGame};
    let scenario = FederationScenario::new(
        paper_facilities([1, 1, 1]),
        Demand::one_experiment(ExperimentClass::simple("e", 500.0, 1.0)),
    );
    let game = scenario.game();
    let labels = [
        (Coalition::from_players([0]), "{1}"),
        (Coalition::from_players([1]), "{2}"),
        (Coalition::from_players([2]), "{3}"),
        (Coalition::from_players([0, 1]), "{1,2}"),
        (Coalition::from_players([0, 2]), "{1,3}"),
        (Coalition::from_players([1, 2]), "{2,3}"),
        (Coalition::from_players([0, 1, 2]), "{1,2,3}"),
    ];
    WorkedExample {
        coalition_values: labels
            .iter()
            .map(|&(c, l)| (l.to_string(), game.value(c)))
            .collect(),
        shapley_hat: scenario.shapley_shares(),
        proportional_hat: scenario.proportional_shares(),
    }
}

/// Fig. 4 — ϕ̂ᵢ and π̂ᵢ vs the diversity threshold `l ∈ [0, 1400]`
/// (step 50), single experiment, `d = 1`, `L = (100, 400, 800)`, `R = 1`.
pub fn fig4_threshold() -> Figure {
    let xs: Vec<f64> = (0..=28).map(|k| (k * 50) as f64).collect();
    let series = share_sweep(
        &xs,
        |l| {
            FederationScenario::new(
                paper_facilities([1, 1, 1]),
                Demand::one_experiment(ExperimentClass::simple("e", l, 1.0)),
            )
        },
        false,
    );
    Figure {
        id: "fig4",
        title: "profit shares with respect to l",
        x_label: "l",
        series,
    }
}

/// Fig. 5 — ϕ̂ᵢ and π̂ᵢ vs the utility shape `d ∈ [0.1, 2.5]` (step 0.1),
/// threshold fixed at `l = 600`.
pub fn fig5_shape() -> Figure {
    let xs: Vec<f64> = (1..=25).map(|k| k as f64 / 10.0).collect();
    let series = share_sweep(
        &xs,
        |d| {
            FederationScenario::new(
                paper_facilities([1, 1, 1]),
                Demand::one_experiment(ExperimentClass::simple("e", 600.0, d)),
            )
        },
        false,
    );
    Figure {
        id: "fig5",
        title: "profit shares with respect to d (l = 600)",
        x_label: "d",
        series,
    }
}

/// Fig. 6 — ϕ̂ᵢ and π̂ᵢ vs `l` with per-location resources
/// `R = (80, 20, 10)` (so every `Lᵢ·Rᵢ = 8000`) and capacity-filling
/// same-class demand, `d = 1`.
pub fn fig6_resources() -> Figure {
    let xs: Vec<f64> = (0..=28).map(|k| (k * 50) as f64).collect();
    let series = share_sweep(
        &xs,
        |l| {
            FederationScenario::new(
                paper_facilities([80, 20, 10]),
                Demand::capacity_filling(ExperimentClass::simple("e", l, 1.0)),
            )
        },
        false,
    );
    Figure {
        id: "fig6",
        title: "profit shares with respect to l (R = (80,20,10))",
        x_label: "l",
        series,
    }
}

/// Total demand volume used for Fig. 7. The paper does not state it; 60
/// experiments roughly matches the federation's capacity for the
/// high-diversity class and reproduces the plotted share dynamics.
pub const FIG7_TOTAL_DEMAND: u64 = 60;

/// Fig. 7 — ϕ̂ᵢ and π̂ᵢ vs the demand mixture σ ∈ [0, 1] (step 0.05)
/// between class 1 (`l₁ = 0`) and class 2 (`l₂ = 700`);
/// `R = (80, 50, 30)`.
pub fn fig7_mixture() -> Figure {
    let xs: Vec<f64> = (0..=20).map(|k| k as f64 / 20.0).collect();
    let series = share_sweep(
        &xs,
        |sigma| {
            FederationScenario::new(
                paper_facilities([80, 50, 30]),
                Demand::mixture(
                    ExperimentClass::simple("bulk", 0.0, 1.0),
                    ExperimentClass::simple("diverse", 700.0, 1.0),
                    FIG7_TOTAL_DEMAND,
                    sigma,
                ),
            )
        },
        false,
    );
    Figure {
        id: "fig7",
        title: "profit shares with respect to mixture sigma",
        x_label: "sigma",
        series,
    }
}

/// Fig. 8 — ϕ̂ᵢ, π̂ᵢ, and ρ̂ᵢ vs demand volume `K ∈ [0, 100]` (step 5),
/// `l = 250`, `R = (80, 60, 20)`.
pub fn fig8_volume() -> Figure {
    let xs: Vec<f64> = (0..=20).map(|k| (k * 5) as f64).collect();
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "every K in xs is a whole number in [0, 100]"
    )]
    let series = share_sweep(
        &xs,
        |k| {
            FederationScenario::new(
                paper_facilities([80, 60, 20]),
                Demand::single(
                    ExperimentClass::simple("e", 250.0, 1.0),
                    Volume::Count(k as u64),
                ),
            )
        },
        true,
    );
    Figure {
        id: "fig8",
        title: "profit shares with respect to demand volume K (l = 250)",
        x_label: "K",
        series,
    }
}

/// Fig. 9 — *absolute* profit of facility 1 (`ϕ₁` and `π₁`) vs its
/// location count `L₁ ∈ [0, 1000]` (step 50), for `l ∈ {0, 400, 800}`;
/// `R = (80, 60, 20)`, `L₂ = 400`, `L₃ = 800`, capacity-filling demand
/// ("demand exceeds capacity").
pub fn fig9_incentives() -> Figure {
    let l1_values: Vec<u32> = (0..=20).map(|k| k * 50).collect();
    let thresholds = [0.0, 400.0, 800.0];
    // Flatten the threshold × L₁ grid into one point list so the sweep
    // engine parallelizes across the whole figure, not per-curve.
    let points: Vec<(f64, u32)> = thresholds
        .iter()
        .flat_map(|&l| l1_values.iter().map(move |&l1| (l, l1)))
        .collect();
    let profits = run_sweep(
        &points,
        |&(l, l1)| {
            let scenario = FederationScenario::new(
                paper_facilities_with_locations([l1, 400, 800], [80, 60, 20]),
                Demand::capacity_filling(ExperimentClass::simple("e", l, 1.0)),
            );
            let grand = scenario.grand_value();
            (
                scenario.shapley_shares()[0] * grand,
                scenario.proportional_shares()[0] * grand,
            )
        },
        sweep_threads(),
    );

    let mut series = Vec::new();
    for (t, &l) in thresholds.iter().enumerate() {
        let mut phi = Series::new(format!("phi_1(l={l})"));
        let mut pi = Series::new(format!("pi_1(l={l})"));
        for (k, &l1) in l1_values.iter().enumerate() {
            let (phi_1, pi_1) = profits[t * l1_values.len() + k];
            phi.push(f64::from(l1), phi_1);
            pi.push(f64::from(l1), pi_1);
        }
        series.push(phi);
        series.push(pi);
    }
    Figure {
        id: "fig9",
        title: "profit of facility 1 with respect to L1",
        x_label: "L1",
        series,
    }
}

/// All figures in paper order (the worked example is separate, see
/// [`table_e1`]).
pub fn all_figures() -> Vec<Figure> {
    vec![
        fig2_utility(),
        fig4_threshold(),
        fig5_shape(),
        fig6_resources(),
        fig7_mixture(),
        fig8_volume(),
        fig9_incentives(),
    ]
}
