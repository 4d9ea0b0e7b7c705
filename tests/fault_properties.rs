//! Property tests for the failure model: the closed-form `Churn`
//! availability must match long-run measured uptime, and injecting an
//! authority departure must never increase any coalition's measured
//! value (monotone degradation).

use fedval::testbed::{run_coalition_faulted, Churn, SimConfig};
use fedval::{synthetic_authority, Coalition, ExperimentClass, FaultPlan, Federation, Workload};
use fedval_desim::{Distribution, Exponential, SimRng};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `Churn::availability()` = MTBF/(MTBF+MTTR) agrees with the uptime
    /// fraction measured over many simulated up/down cycles.
    #[test]
    fn churn_availability_matches_measured_uptime(
        mtbf in 1.0f64..20.0,
        mttr in 0.1f64..10.0,
        seed in 0u64..1_000,
    ) {
        let churn = Churn { mtbf, mttr };
        let mut rng = SimRng::seed_from(seed);
        let up_dist = Exponential::with_mean(mtbf);
        let down_dist = Exponential::with_mean(mttr);
        let horizon = 600.0 * (mtbf + mttr);
        let (mut t, mut up_time) = (0.0, 0.0);
        while t < horizon {
            let up = up_dist.sample(&mut rng);
            up_time += up.min(horizon - t);
            t += up;
            if t >= horizon {
                break;
            }
            t += down_dist.sample(&mut rng);
        }
        let measured = up_time / horizon;
        let predicted = churn.availability();
        prop_assert!(
            (measured - predicted).abs() < 0.1,
            "measured {measured} vs predicted {predicted} (mtbf={mtbf}, mttr={mttr})"
        );
    }

    /// Removing an authority mid-trace never makes any coalition more
    /// valuable: for every coalition, the run with the departure injected
    /// measures at most the clean run's utility. (Load is kept moderate
    /// so admission is capacity-unconstrained — the regime where the
    /// degradation argument is exact.)
    #[test]
    fn authority_departure_never_increases_measured_value(
        rate in 0.2f64..1.0,
        holding in 0.2f64..1.0,
        depart_at in 0.0f64..300.0,
        seed in 0u64..1_000,
    ) {
        let fed = Federation::new(vec![
            synthetic_authority("A", 0, 3, 2, 4, 0),
            synthetic_authority("B", 3, 3, 2, 4, 0),
        ]);
        let wl = Workload::single(ExperimentClass::simple("e", 1.0, 1.0), rate, holding);
        let cfg = SimConfig { horizon: 300.0, warmup: 30.0, seed, churn: None };
        let plan = FaultPlan::new().authority_departure(1, depart_at);
        for mask in 1u64..4 {
            let c = Coalition(mask);
            let clean = run_coalition_faulted(&fed, c, &wl, &cfg, &FaultPlan::new())
                .expect("a clean run always runs")
                .report;
            let faulted = run_coalition_faulted(&fed, c, &wl, &cfg, &plan)
                .expect("valid plan always runs");
            prop_assert!(
                faulted.report.total_utility <= clean.total_utility + 1e-9,
                "coalition {mask:#b}: departure raised value {} -> {}",
                clean.total_utility,
                faulted.report.total_utility
            );
            // Coalitions without the departing authority are untouched.
            if !c.contains(1) {
                prop_assert_eq!(faulted.report.total_utility, clean.total_utility);
                prop_assert_eq!(faulted.faults_injected, 0);
            }
        }
    }
}
