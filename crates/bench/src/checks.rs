//! Qualitative shape checks: the claims the paper's §4 prose makes about
//! each figure, verified on the regenerated series.
//!
//! These are the reproduction's acceptance criteria. Absolute values match
//! the paper where the paper states them (the game is closed-form); where
//! it does not, these checks pin the *shape*: crossover locations, equal
//! shares in the forced-grand-coalition regime, convergence of ϕ̂ to π̂,
//! and so on.
//!
//! Every check is panic-free: a missing series or sample point records a
//! failed assertion instead of unwinding, so one malformed figure cannot
//! take down the whole acceptance run (`clippy::panic` and friends are
//! denied workspace-wide).

use crate::figures::*;
use crate::series::{Figure, Series};

/// Result of checking one figure.
#[derive(Debug, Clone)]
pub struct CheckResult {
    /// Figure id.
    pub id: &'static str,
    /// Individual assertions: `(description, passed)`.
    pub assertions: Vec<(String, bool)>,
}

impl CheckResult {
    fn assert(&mut self, description: impl Into<String>, ok: bool) {
        self.assertions.push((description.into(), ok));
    }

    /// Whether every assertion passed.
    pub fn passed(&self) -> bool {
        self.assertions.iter().all(|(_, ok)| *ok)
    }
}

fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() < tol
}

/// `close` over an optional sample: absent points never pass.
fn close_opt(a: Option<f64>, b: f64, tol: f64) -> bool {
    a.is_some_and(|a| close(a, b, tol))
}

/// Sample series `name` at `x`; `None` when the series or point is missing.
fn sample(fig: &Figure, name: &str, x: f64) -> Option<f64> {
    fig.series(name)?.at(x)
}

/// Fetch a required series, recording a failed assertion when absent.
fn require<'a>(r: &mut CheckResult, fig: &'a Figure, name: &str) -> Option<&'a Series> {
    let s = fig.series(name);
    if s.is_none() {
        r.assert(format!("series `{name}` present"), false);
    }
    s
}

/// Fig. 2: ordering of the three utility shapes and the hard threshold.
pub fn check_fig2(fig: &Figure) -> CheckResult {
    let mut r = CheckResult {
        id: "fig2",
        assertions: Vec::new(),
    };
    let (Some(concave), Some(linear), Some(convex)) = (
        require(&mut r, fig, "d=0.8"),
        require(&mut r, fig, "d=1"),
        require(&mut r, fig, "d=1.2"),
    ) else {
        return r;
    };
    r.assert(
        "all shapes are zero at and below the threshold",
        [concave, linear, convex]
            .iter()
            .all(|s| close_opt(s.at(50.0), 0.0, 1e-12) && close_opt(s.at(25.0), 0.0, 1e-12)),
    );
    r.assert(
        "convex > linear > concave at x = 300",
        convex.at(300.0) > linear.at(300.0) && linear.at(300.0) > concave.at(300.0),
    );
    r.assert(
        "linear utility is the identity above l",
        close_opt(linear.at(300.0), 300.0, 1e-9),
    );
    r
}

/// Table E1: the paper's exact numbers (with the V({1,2}) erratum — see
/// EXPERIMENTS.md).
pub fn check_table_e1(t: &WorkedExample) -> CheckResult {
    let mut r = CheckResult {
        id: "table-e1",
        assertions: Vec::new(),
    };
    let v = |label: &str| {
        t.coalition_values
            .iter()
            .find(|(l, _)| l == label)
            .map(|&(_, v)| v)
    };
    // The coalition values are closed-form integers; 1e-12 is pure float
    // noise headroom on this scale.
    r.assert("V({1}) = 0", close_opt(v("{1}"), 0.0, 1e-12));
    r.assert("V({2}) = 0", close_opt(v("{2}"), 0.0, 1e-12));
    r.assert("V({3}) = 800", close_opt(v("{3}"), 800.0, 1e-12));
    r.assert(
        "V({1,2}) = 0 (strict threshold)",
        close_opt(v("{1,2}"), 0.0, 1e-12),
    );
    r.assert("V({1,3}) = 900", close_opt(v("{1,3}"), 900.0, 1e-12));
    r.assert("V({2,3}) = 1200", close_opt(v("{2,3}"), 1200.0, 1e-12));
    r.assert("V(N) = 1300", close_opt(v("{1,2,3}"), 1300.0, 1e-12));
    r.assert(
        "phi_hat_2 = 2/13 (the paper's headline number)",
        t.shapley_hat
            .get(1)
            .is_some_and(|&x| close(x, 2.0 / 13.0, 1e-12)),
    );
    r.assert(
        "pi_hat_2 = 4/13",
        t.proportional_hat
            .get(1)
            .is_some_and(|&x| close(x, 4.0 / 13.0, 1e-12)),
    );
    r
}

/// Fig. 4: the crossover structure the paper walks through in §4.1.
pub fn check_fig4(fig: &Figure) -> CheckResult {
    let mut r = CheckResult {
        id: "fig4",
        assertions: Vec::new(),
    };
    let phi = |i: usize, x: f64| sample(fig, &format!("phi_hat_{i}"), x);
    let pi = |i: usize, x: f64| sample(fig, &format!("pi_hat_{i}"), x);

    r.assert(
        "at l = 0, phi_hat equals pi_hat for every facility",
        (1..=3).all(|i| {
            phi(i, 0.0)
                .zip(pi(i, 0.0))
                .is_some_and(|(a, b)| close(a, b, 1e-9))
        }),
    );
    r.assert(
        "facility 1's share falls once l reaches L1 = 100",
        phi(1, 100.0) < phi(1, 50.0),
    );
    r.assert(
        "facility 2's share falls once l reaches L2 = 400",
        phi(2, 400.0) < phi(2, 350.0),
    );
    r.assert(
        "facilities 1 and 2 lose the {1,2} coalition at l = 500",
        phi(3, 500.0) > phi(3, 450.0),
    );
    r.assert(
        "equal shares once only the grand coalition works (l = 1250)",
        (1..=3).all(|i| close_opt(phi(i, 1250.0), 1.0 / 3.0, 1e-9)),
    );
    r.assert(
        "all shares zero above l = 1300 (no coalition can serve)",
        (1..=3).all(|i| close_opt(phi(i, 1350.0), 0.0, 1e-12)),
    );
    r.assert(
        "pi_hat is constant in l",
        (1..=3).all(|i| {
            fig.series(&format!("pi_hat_{i}")).is_some_and(|s| {
                s.points
                    .first()
                    .is_some_and(|&(_, y0)| s.points.iter().all(|&(_, y)| close(y, y0, 1e-9)))
            })
        }),
    );
    r.assert(
        "shapley shares sum to 1 while the federation has value",
        fig.series.first().is_some_and(|lead| {
            lead.points
                .iter()
                .map(|&(x, _)| x)
                .filter(|&l| l < 1300.0) // strict threshold: V(N) = 0 at 1300
                .all(|l| {
                    let total: f64 = (1..=3).map(|i| phi(i, l).unwrap_or(f64::NAN)).sum();
                    close(total, 1.0, 1e-9)
                })
        }),
    );
    r
}

/// Fig. 5: ϕ̂ converges toward π̂ as d grows (§4.2).
pub fn check_fig5(fig: &Figure) -> CheckResult {
    let mut r = CheckResult {
        id: "fig5",
        assertions: Vec::new(),
    };
    // Missing samples poison the sum with NaN, failing every comparison.
    let distance_at = |d: f64| -> f64 {
        (1..=3)
            .map(|i| {
                let phi = sample(fig, &format!("phi_hat_{i}"), d).unwrap_or(f64::NAN);
                let pi = sample(fig, &format!("pi_hat_{i}"), d).unwrap_or(f64::NAN);
                (phi - pi).abs()
            })
            .sum()
    };
    r.assert(
        "phi_hat approaches pi_hat as d grows",
        distance_at(2.5) < distance_at(0.5),
    );
    r.assert(
        "monotone-ish: distance at 2.5 below distance at 1.0 below 0.3",
        distance_at(2.5) <= distance_at(1.0) + 1e-9,
    );
    r
}

/// Fig. 6: equal products ⇒ equal shares at the extremes; divergence in
/// between (§4.3.1 and footnote 5).
pub fn check_fig6(fig: &Figure) -> CheckResult {
    let mut r = CheckResult {
        id: "fig6",
        assertions: Vec::new(),
    };
    let phi = |i: usize, x: f64| sample(fig, &format!("phi_hat_{i}"), x);
    let pi = |i: usize, x: f64| sample(fig, &format!("pi_hat_{i}"), x);
    r.assert(
        "pi_hat = 1/3 everywhere (equal Li·Ri products)",
        (1..=3).all(|i| close_opt(pi(i, 600.0), 1.0 / 3.0, 1e-9)),
    );
    r.assert(
        "equal shapley shares at l = 0",
        (1..=3).all(|i| close_opt(phi(i, 0.0), 1.0 / 3.0, 1e-9)),
    );
    r.assert(
        "equal shapley shares once only the grand coalition works (l = 1250)",
        (1..=3).all(|i| close_opt(phi(i, 1250.0), 1.0 / 3.0, 1e-9)),
    );
    r.assert(
        "shares diverge at intermediate thresholds despite equal products",
        (1..=3).any(|i| phi(i, 600.0).is_some_and(|x| !close(x, 1.0 / 3.0, 1e-3))),
    );
    r.assert(
        "the diversity-rich facility 3 gains most at high thresholds",
        phi(3, 600.0).zip(phi(1, 600.0)).is_some_and(|(a, b)| a > b),
    );
    r
}

/// Fig. 7: the more diversity-sensitive the mixture, the further Shapley
/// departs from proportional (§4.3.2).
pub fn check_fig7(fig: &Figure) -> CheckResult {
    let mut r = CheckResult {
        id: "fig7",
        assertions: Vec::new(),
    };
    let distance_at = |sigma: f64| -> f64 {
        (1..=3)
            .map(|i| {
                let phi = sample(fig, &format!("phi_hat_{i}"), sigma).unwrap_or(f64::NAN);
                let pi = sample(fig, &format!("pi_hat_{i}"), sigma).unwrap_or(f64::NAN);
                (phi - pi).abs()
            })
            .sum()
    };
    r.assert(
        "shapley departs further from proportional as sigma grows",
        distance_at(1.0) > distance_at(0.0),
    );
    r.assert(
        "the only facility able to host l=700 experiments alone gains",
        sample(fig, "phi_hat_3", 1.0) > sample(fig, "phi_hat_3", 0.0)
            && sample(fig, "phi_hat_3", 0.0).is_some(),
    );
    r
}

/// Fig. 8: π̂ is volume-independent; ρ̂ and ϕ̂ are not (§4.3.3).
pub fn check_fig8(fig: &Figure) -> CheckResult {
    let mut r = CheckResult {
        id: "fig8",
        assertions: Vec::new(),
    };
    let get = |name: &str, x: f64| sample(fig, name, x).unwrap_or(f64::NAN);
    r.assert(
        "pi_hat does not depend on K",
        (1..=3).all(|i| {
            close(
                get(&format!("pi_hat_{i}"), 5.0),
                get(&format!("pi_hat_{i}"), 100.0),
                1e-9,
            )
        }),
    );
    r.assert(
        "rho_hat at low K follows locations (L_i / sum L)",
        close(get("rho_hat_1", 5.0), 100.0 / 1300.0, 1e-9)
            && close(get("rho_hat_3", 5.0), 800.0 / 1300.0, 1e-9),
    );
    r.assert(
        "rho_hat converges to pi_hat at saturation",
        (1..=3).all(|i| {
            close(
                get(&format!("rho_hat_{i}"), 100.0),
                get(&format!("pi_hat_{i}"), 100.0),
                1e-2,
            )
        }),
    );
    r.assert(
        "rho_hat at low K differs significantly from pi_hat",
        (get("rho_hat_1", 5.0) - get("pi_hat_1", 5.0)).abs() > 0.05,
    );
    r.assert(
        "shapley shares depend on the demand volume",
        (get("phi_hat_1", 5.0) - get("phi_hat_1", 100.0)).abs() > 1e-3,
    );
    r
}

/// Fig. 9: incentive structure of the schemes (§4.4).
pub fn check_fig9(fig: &Figure) -> CheckResult {
    let mut r = CheckResult {
        id: "fig9",
        assertions: Vec::new(),
    };
    let (Some(phi0), Some(pi0)) = (
        require(&mut r, fig, "phi_1(l=0)"),
        require(&mut r, fig, "pi_1(l=0)"),
    ) else {
        return r;
    };
    r.assert(
        "with l = 0 the game is additive: phi_1 = pi_1 = 80·L1",
        phi0.points
            .iter()
            .zip(&pi0.points)
            .all(|(&(x, a), &(_, b))| close(a, b, 1e-6) && close(a, 80.0 * x, 1e-6)),
    );
    let (Some(phi800), Some(pi800)) = (
        require(&mut r, fig, "phi_1(l=800)"),
        require(&mut r, fig, "pi_1(l=800)"),
    ) else {
        return r;
    };
    r.assert(
        "profit grows with L1 under every threshold",
        phi800.endpoints().is_some_and(|(first, last)| last > first),
    );
    // Threshold kick: the marginal profit of shapley around the point
    // where facility 1 starts enabling new coalitions exceeds the smooth
    // proportional marginal (the paper's "powerful incentives around the
    // threshold points").
    let max_step = |s: &Series| -> f64 {
        s.points
            .windows(2)
            .map(|w| w[1].1 - w[0].1)
            .fold(f64::NEG_INFINITY, f64::max)
    };
    r.assert(
        "shapley has sharper steps than proportional at l = 800",
        max_step(phi800) > max_step(pi800) - 1e-9,
    );
    r
}

/// Runs every figure generator and its checks.
pub fn check_all() -> Vec<CheckResult> {
    vec![
        check_fig2(&fig2_utility()),
        check_table_e1(&table_e1()),
        check_fig4(&fig4_threshold()),
        check_fig5(&fig5_shape()),
        check_fig6(&fig6_resources()),
        check_fig7(&fig7_mixture()),
        check_fig8(&fig8_volume()),
        check_fig9(&fig9_incentives()),
    ]
}
