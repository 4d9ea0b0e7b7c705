//! Human-readable policy reports for federation organizers.

use crate::compare::{compare_schemes, SchemeAssessment};
use crate::scheme::SharingScheme;
use fedval_coalition::{
    is_core_nonempty, ApproxShapley, CoalitionError, GameDiagnostics, ShapleyEstimate, WideGame,
    NUCLEOLUS_MAX_PLAYERS,
};
use fedval_core::FederationScenario;
use std::fmt::Write as _;

/// A rendered policy report: scenario diagnostics plus a scheme table.
#[derive(Debug, Clone)]
pub struct PolicyReport {
    /// Grand-coalition value `V(N)`.
    pub grand_value: f64,
    /// Whether the core is non-empty (grand coalition stable at all).
    /// Meaningless when [`structure_known`](PolicyReport::structure_known)
    /// is false.
    pub core_nonempty: bool,
    /// Structural game properties.
    pub superadditive: bool,
    /// Convexity (⇒ core non-empty, Shapley in core).
    pub convex: bool,
    /// Whether the structural fields above were actually computed. False
    /// for federations past the exact-enumeration caps, where the report
    /// is built from the sampled Shapley estimate instead.
    pub structure_known: bool,
    /// Per-scheme assessments.
    pub assessments: Vec<SchemeAssessment>,
    /// The sampled-Shapley certificate (per-player CI, budget, seed) when
    /// the Shapley column came from the estimator rather than exact
    /// enumeration; `None` for exact reports.
    pub approx: Option<ApproxShapley>,
    /// Measurement provenance, when the scenario's game was measured
    /// empirically (fault injection, fallbacks, retries); `None` for
    /// closed-form games.
    pub measurement: Option<GameDiagnostics>,
    /// Formation-dynamics summary (convergence, stability, payoff
    /// regret), when a `fedval-form` merge/split run accompanied the
    /// report; `None` for static grand-coalition reports.
    pub formation: Option<FormationSection>,
}

/// Summary of a dynamic coalition-formation run (`fedval-form`) attached
/// to a policy report: did the partition converge, is it merge/split
/// stable, and how far do realized payoffs sit from the Shapley promise.
#[derive(Debug, Clone, PartialEq)]
pub struct FormationSection {
    /// Rounds executed.
    pub rounds: usize,
    /// First quiescent round, if the dynamics converged.
    pub converged_round: Option<usize>,
    /// Total merge operations.
    pub merges: usize,
    /// Total split operations.
    pub splits: usize,
    /// No examined pair of coalitions gains by merging.
    pub merge_stable: bool,
    /// No examined bipartition of a coalition gains by splitting.
    pub split_stable: bool,
    /// Whether the stability probe covered the full candidate space.
    pub stability_exhaustive: bool,
    /// Final coalition count.
    pub coalitions: usize,
    /// Final member count.
    pub members: usize,
    /// Largest |promised − realized| across surviving authorities.
    pub max_abs_regret: f64,
    /// Mean |promised − realized| across surviving authorities.
    pub mean_abs_regret: f64,
    /// The run's combined trajectory+payoff fingerprint.
    pub fingerprint: u64,
}

/// Distances from proportionality closer than this count as tied, so
/// float noise in the shares cannot pick the recommendation.
const DISTANCE_TIE: f64 = 1e-9;

/// The exact report for all built-in schemes, behind
/// [`try_policy_report`]'s cap check.
///
/// The table fill and the least core run first, through the fallible
/// calls: a closed-form game with non-finite values fails the fill with
/// [`CoalitionError::NonFiniteValue`], and a measured one fails the least
/// core with [`CoalitionError::MalformedLp`], before any of the
/// scenario's infallible accessors could panic on it.
fn exact_report(scenario: &FederationScenario) -> Result<PolicyReport, CoalitionError> {
    let _report_span = fedval_obs::span("policy.report.build");
    let (props, core_nonempty) = {
        let _span = fedval_obs::span("policy.report.properties");
        let core_nonempty = is_core_nonempty(scenario.try_game()?)?;
        (scenario.properties(), core_nonempty)
    };
    let assessments = {
        let _span = fedval_obs::span("policy.report.schemes");
        compare_schemes(scenario, &SharingScheme::all_builtin())
    };
    Ok(PolicyReport {
        grand_value: scenario.grand_value(),
        core_nonempty,
        superadditive: props.superadditive,
        convex: props.convex,
        structure_known: true,
        assessments,
        approx: None,
        measurement: None,
        formation: None,
    })
}

/// Builds the report for all built-in schemes behind the
/// solver-selection layer: full exact reports below the enumeration caps,
/// a degraded sampled-Shapley report above them (or when `--approx` forces
/// sampling).
///
/// The degraded report keeps every column that does not require `2^n`
/// enumeration — Shapley (sampled, with its confidence-interval
/// certificate), proportional, consumption, and equal shares plus their
/// distance-from-π — and marks the rest unknown: `structure_known` is
/// false, `in_core` is `None`, `max_excess` is NaN, and the nucleolus row
/// is omitted (its LP is exponential in `n`).
///
/// # Errors
/// Propagates [`CoalitionError`]s from the estimator (malformed sampling
/// configuration, or more players than even the sampled path supports);
/// on the exact path, [`CoalitionError::NonFiniteValue`] from the
/// scenario's table fill, and [`CoalitionError::MalformedLp`] from the
/// least core, when a coalition value is NaN or infinite.
pub fn try_policy_report(scenario: &FederationScenario) -> Result<PolicyReport, CoalitionError> {
    let n = scenario.facilities().len();
    if !scenario.approx_config().force && n <= NUCLEOLUS_MAX_PLAYERS {
        return exact_report(scenario);
    }
    approx_report(scenario)
}

/// [`try_policy_report`] for a scenario whose game was *measured* (e.g. by
/// `fedval-testbed`'s fault-injected empirical pipeline), attaching the
/// measurement diagnostics so the rendered report discloses how much of
/// the game was actually observed versus substituted by fallbacks.
///
/// # Errors
/// Same as [`try_policy_report`].
pub fn try_policy_report_measured(
    scenario: &FederationScenario,
    diagnostics: GameDiagnostics,
) -> Result<PolicyReport, CoalitionError> {
    let mut report = try_policy_report(scenario)?;
    report.measurement = Some(diagnostics);
    Ok(report)
}

/// The degraded (no-enumeration) report path.
fn approx_report(scenario: &FederationScenario) -> Result<PolicyReport, CoalitionError> {
    let _report_span = fedval_obs::span("policy.report.build_approx");
    let n = scenario.facilities().len();
    let (shapley_shares, approx, grand_value) = match scenario.shapley_estimate()? {
        ShapleyEstimate::Exact(phi) => {
            // Exact selection past the nucleolus cap (13..=16 players):
            // the table exists, only the enumeration-heavy columns drop.
            let grand = scenario.try_game()?.grand_value();
            let shares = if grand.abs() < 1e-12 {
                vec![0.0; phi.len()]
            } else {
                phi.iter().map(|v| v / grand).collect()
            };
            (shares, None, grand)
        }
        ShapleyEstimate::Approx(a) => (a.shares(), Some(a.clone()), a.grand_value),
    };
    let pi = scenario.proportional_shares();
    let dist = |shares: &[f64]| -> f64 {
        shares.iter().zip(&pi).map(|(a, b)| (a - b).abs()).sum()
    };
    let rows: [(&str, Vec<f64>); 4] = [
        ("shapley", shapley_shares),
        ("proportional", pi.clone()),
        ("consumption", scenario.consumption_shares()),
        ("equal", fedval_core::sharing::normalized(vec![1.0; n])),
    ];
    let assessments = rows
        .into_iter()
        .map(|(name, shares)| SchemeAssessment {
            scheme: name.to_string(),
            distance_from_proportional: dist(&shares),
            shares,
            in_core: None,
            max_excess: f64::NAN,
        })
        .collect();
    Ok(PolicyReport {
        grand_value,
        core_nonempty: false,
        superadditive: false,
        convex: false,
        structure_known: false,
        assessments,
        approx,
        measurement: None,
        formation: None,
    })
}

impl PolicyReport {
    /// Attaches a formation-dynamics summary (builder style).
    #[must_use]
    pub fn with_formation(mut self, section: FormationSection) -> PolicyReport {
        self.formation = Some(section);
        self
    }

    /// The scheme the report recommends: the in-core scheme closest to
    /// contribution-proportionality, falling back to Shapley (the paper's
    /// default recommendation) when the core is empty or nothing lands in
    /// it. Schemes within 1e-9 of the closest tie, and the first of them
    /// in table order (`SharingScheme::all_builtin`) wins.
    pub fn recommended(&self) -> &str {
        let in_core = || self.assessments.iter().filter(|a| a.in_core == Some(true));
        let closest = in_core()
            .map(|a| a.distance_from_proportional)
            .fold(f64::INFINITY, f64::min);
        in_core()
            .find(|a| a.distance_from_proportional <= closest + DISTANCE_TIE)
            .map_or("shapley", |a| a.scheme.as_str())
    }

    /// Renders a fixed-width text table.
    ///
    /// Approx reports print the scheme rows with `n/a` stability columns,
    /// elide long share vectors after the first eight entries, and append
    /// the estimator's certificate line (method, budget, seed, CI).
    pub fn render(&self) -> String {
        const SHOWN_SHARES: usize = 8;
        let mut out = String::new();
        let _ = writeln!(out, "federation value V(N) = {:.2}", self.grand_value);
        if self.structure_known {
            let _ = writeln!(
                out,
                "game: superadditive={} convex={} core_nonempty={}",
                self.superadditive, self.convex, self.core_nonempty
            );
        } else {
            let n = self.assessments.first().map_or(0, |a| a.shares.len());
            let _ = writeln!(
                out,
                "game: structure not enumerated (n={n} players exceeds the exact caps)"
            );
        }
        let _ = writeln!(
            out,
            "{:<14} {:>10} {:>12} {:<8} shares",
            "scheme", "max_excess", "dist_from_pi", "in_core"
        );
        for a in &self.assessments {
            let core = match a.in_core {
                Some(true) => "yes",
                Some(false) => "no",
                None => "n/a",
            };
            let excess = if a.max_excess.is_nan() {
                "n/a".to_string()
            } else {
                format!("{:.2}", a.max_excess)
            };
            let mut shares = a
                .shares
                .iter()
                .take(SHOWN_SHARES)
                .map(|s| format!("{s:.3}"))
                .collect::<Vec<_>>()
                .join(" ");
            if a.shares.len() > SHOWN_SHARES {
                let _ = write!(shares, " … +{} more", a.shares.len() - SHOWN_SHARES);
            }
            let _ = writeln!(
                out,
                "{:<14} {:>10} {:>12.4} {:<8} [{shares}]",
                a.scheme, excess, a.distance_from_proportional, core
            );
        }
        if let Some(a) = &self.approx {
            let max_ci = a.ci_shares().into_iter().fold(0.0f64, f64::max);
            let _ = writeln!(
                out,
                "shapley: sampled (permutation, {} samples, seed {}); {:.0}% CI half-width ≤ {:.4} of V(N)",
                a.samples,
                a.seed,
                a.confidence * 100.0,
                max_ci
            );
        }
        if let Some(f) = &self.formation {
            let converged = match f.converged_round {
                Some(k) => format!("round {k}/{}", f.rounds),
                None => format!("no ({} rounds)", f.rounds),
            };
            let _ = writeln!(
                out,
                "formation: converged={converged} merges={} splits={} \
merge_stable={} split_stable={} ({}) partition={}x{}",
                f.merges,
                f.splits,
                f.merge_stable,
                f.split_stable,
                if f.stability_exhaustive {
                    "exhaustive"
                } else {
                    "sampled"
                },
                f.coalitions,
                f.members,
            );
            let _ = writeln!(
                out,
                "formation: payoff regret max|r|={:.4} mean|r|={:.4} fingerprint={:016x}",
                f.max_abs_regret, f.mean_abs_regret, f.fingerprint
            );
        }
        if let Some(m) = &self.measurement {
            let _ = writeln!(out, "measurement: {}", m.summary());
            if m.fallbacks_used() > 0 {
                let _ = writeln!(
                    out,
                    "warning: {} coalition value(s) are conservative fallbacks, not measurements",
                    m.fallbacks_used()
                );
            }
        }
        let _ = writeln!(out, "recommended: {}", self.recommended());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedval_core::{paper_facilities, Demand, ExperimentClass};

    fn scenario(l: f64) -> FederationScenario {
        FederationScenario::new(
            paper_facilities([1, 1, 1]),
            Demand::one_experiment(ExperimentClass::simple("e", l, 1.0)),
        )
    }

    #[test]
    fn report_contains_all_schemes() {
        let r = exact_report(&scenario(500.0)).expect("3 facilities");
        assert_eq!(r.assessments.len(), 5);
        let text = r.render();
        for name in [
            "shapley",
            "proportional",
            "consumption",
            "nucleolus",
            "equal",
        ] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
    }

    #[test]
    fn recommendation_prefers_core_membership() {
        // l = 1250: only grand coalition works, everything proportional-ish
        // is out of core except symmetric allocations; equal split IS the
        // core here, and it's also closest-to-pi among in-core schemes.
        let r = exact_report(&scenario(1250.0)).expect("3 facilities");
        assert!(r.core_nonempty);
        let rec = r.recommended();
        let rec_entry = r.assessments.iter().find(|a| a.scheme == rec).unwrap();
        assert_eq!(rec_entry.in_core, Some(true));
    }

    #[test]
    fn measured_reports_disclose_fallbacks() {
        use fedval_coalition::{Coalition, CoalitionDiagnostics, ValueSource};
        let s = scenario(500.0);
        let mut records: Vec<CoalitionDiagnostics> = (0..8u64)
            .map(|m| CoalitionDiagnostics::clean(Coalition(m)))
            .collect();
        records[7].source = ValueSource::SubCoalitionFallback(Coalition(3));
        records[7].error = Some("simulation wedged".into());
        records[5].faults_injected = 3;
        let r = try_policy_report_measured(
            &s,
            GameDiagnostics {
                per_coalition: records,
            },
        )
        .expect("3 facilities");
        let text = r.render();
        assert!(text.contains("measurement:"), "{text}");
        assert!(text.contains("1 fallbacks"), "{text}");
        assert!(text.contains("warning:"), "{text}");
        // Closed-form reports stay silent about measurement.
        let clean = exact_report(&s).expect("3 facilities");
        assert!(!clean.render().contains("measurement:"));
    }

    #[test]
    fn try_report_matches_exact_path_below_the_caps() {
        let s = scenario(500.0);
        let r = try_policy_report(&s).expect("small scenario");
        assert!(r.structure_known);
        assert!(r.approx.is_none());
        assert_eq!(r.assessments.len(), 5);
        assert_eq!(r.render(), exact_report(&s).expect("3 facilities").render());
    }

    #[test]
    fn large_federation_reports_with_certificate() {
        use fedval_coalition::ApproxConfig;
        use fedval_core::Facility;
        // 40 facilities: far past every exact cap. Non-overlapping location
        // blocks, 4–8 locations each, threshold 50 ⇒ position-dependent
        // marginals.
        let facilities: Vec<Facility> = (0..40u32)
            .map(|i| Facility::uniform(format!("f{i}"), 16 * i, 4 + (i % 5), 1))
            .collect();
        let s = FederationScenario::new(
            facilities,
            Demand::one_experiment(ExperimentClass::simple("e", 50.0, 1.0)),
        )
        .with_approx(ApproxConfig {
            samples: 64,
            seed: 7,
            ..ApproxConfig::default()
        })
        .with_threads(4);
        let r = try_policy_report(&s).expect("sampled path");
        assert!(!r.structure_known);
        let a = r.approx.as_ref().expect("certificate attached");
        assert_eq!(a.samples, 64);
        assert_eq!(a.seed, 7);
        assert!(r.grand_value > 0.0);
        // Nucleolus is out of reach; the four enumeration-free schemes stay.
        assert_eq!(r.assessments.len(), 4);
        assert!(r.assessments.iter().all(|x| x.scheme != "nucleolus"));
        assert!(r.assessments.iter().all(|x| x.max_excess.is_nan()));
        assert!(r.assessments.iter().all(|x| x.in_core.is_none()));
        let phi: f64 = r.assessments[0].shares.iter().sum();
        assert!((phi - 1.0).abs() < 1e-9, "normalized shares sum to {phi}");
        assert_eq!(r.recommended(), "shapley");
        let text = r.render();
        assert!(text.contains("structure not enumerated"), "{text}");
        assert!(text.contains("sampled (permutation, 64 samples, seed 7)"), "{text}");
        assert!(text.contains("+32 more"), "{text}");
        assert!(text.contains("n/a"), "{text}");
        // Determinism: the whole report is a pure function of the config.
        let again = try_policy_report(&s).expect("sampled path");
        assert_eq!(again.render(), text);
    }

    #[test]
    fn force_flag_routes_small_scenarios_through_the_estimator() {
        use fedval_coalition::ApproxConfig;
        let s = scenario(500.0).with_approx(ApproxConfig {
            samples: 4096,
            seed: 11,
            force: true,
            ..ApproxConfig::default()
        });
        let r = try_policy_report(&s).expect("forced approx");
        assert!(!r.structure_known);
        let a = r.approx.as_ref().expect("certificate");
        // The CI must cover the exact normalized values (1/26, 2/13, 21/26).
        let exact = [1.0 / 26.0, 2.0 / 13.0, 21.0 / 26.0];
        let shares = &r.assessments[0].shares;
        let ci = a.ci_shares();
        for ((s_hat, e), half) in shares.iter().zip(exact).zip(&ci) {
            assert!(
                (s_hat - e).abs() <= half + 1e-9,
                "|{s_hat} - {e}| > {half}"
            );
        }
    }

    #[test]
    fn measured_variant_attaches_diagnostics_on_the_approx_path() {
        use fedval_coalition::{ApproxConfig, Coalition, CoalitionDiagnostics};
        let s = scenario(500.0).with_approx(ApproxConfig {
            force: true,
            ..ApproxConfig::default()
        });
        let diags = GameDiagnostics {
            per_coalition: (0..8u64)
                .map(|m| CoalitionDiagnostics::clean(Coalition(m)))
                .collect(),
        };
        let r = try_policy_report_measured(&s, diags).expect("forced approx");
        assert!(r.measurement.is_some());
        assert!(r.render().contains("measurement:"));
    }

    #[test]
    fn recommendation_falls_back_to_shapley() {
        // Concave threshold-free game: empty core ⇒ shapley fallback.
        let s = FederationScenario::new(
            paper_facilities([1, 1, 1]),
            Demand::one_experiment(ExperimentClass::simple("e", 0.0, 0.5)),
        );
        if !s.core_nonempty() {
            let r = exact_report(&s).expect("3 facilities");
            assert_eq!(r.recommended(), "shapley");
        }
    }

    fn in_core(scheme: &str, distance: f64) -> SchemeAssessment {
        SchemeAssessment {
            scheme: scheme.to_string(),
            shares: vec![0.5, 0.5],
            in_core: Some(true),
            max_excess: 0.0,
            distance_from_proportional: distance,
        }
    }

    #[test]
    fn recommendation_ignores_float_noise_between_tied_schemes() {
        let mut r = exact_report(&scenario(500.0)).expect("3 facilities");
        let d: f64 = 0.4469;
        let one_ulp_closer = f64::from_bits(d.to_bits() - 1);
        // The later scheme is closer by one ulp: a tie, so the earlier wins.
        r.assessments = vec![
            in_core("consumption", d),
            in_core("nucleolus", one_ulp_closer),
        ];
        assert_eq!(r.recommended(), "consumption");
        r.assessments = vec![
            in_core("consumption", one_ulp_closer),
            in_core("nucleolus", d),
        ];
        assert_eq!(r.recommended(), "consumption");
        // A real gap still decides.
        r.assessments = vec![in_core("consumption", d), in_core("nucleolus", d - 1e-6)];
        assert_eq!(r.recommended(), "nucleolus");
    }

    #[test]
    fn non_finite_measured_values_fail_the_report() {
        use fedval_coalition::{GameError, TableGame};
        // Every non-empty coalition is worth +inf: the least core's LP
        // rejects the values instead of a later accessor panicking.
        let table =
            TableGame::from_values(3, [0.0].into_iter().chain([f64::INFINITY; 7]).collect());
        let s = FederationScenario::try_from_measured(
            paper_facilities([1, 1, 1]),
            Demand::one_experiment(ExperimentClass::simple("e", 500.0, 1.0)),
            table,
        )
        .expect("3 facilities, 3 players");
        assert!(matches!(
            try_policy_report(&s),
            Err(GameError::MalformedLp {
                context: "least core",
                ..
            })
        ));
    }
}
