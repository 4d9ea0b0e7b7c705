//! Value-sharing schemes (§3.2 and eq. 5–7 of the paper).
//!
//! All schemes return a vector of *normalized shares* `sᵢ` with
//! `Σ sᵢ = 1` (or all zeros for a valueless federation); monetary payoffs
//! are `vᵢ = sᵢ·V(N)`. The game-theoretic schemes — normalized Shapley
//! (eq. 5) and nucleolus shares — need the coalition table and live on
//! [`FederationScenario`](crate::FederationScenario).

use crate::allocation::{realize_assignment, solve};
use crate::experiment::Demand;
use crate::facility::Facility;
use crate::location::{CapacityProfile, LocationOffer};

/// Normalizes a non-negative vector to sum 1 (all zeros if the sum is ~0).
pub fn normalized(raw: Vec<f64>) -> Vec<f64> {
    let total: f64 = raw.iter().sum();
    fedval_coalition::normalize(raw, total)
}

/// Eq. 6 — proportionally fair shares by *contributed* resources:
/// `π̂ᵢ = Lᵢ·Rᵢ / Σ_k L_k·R_k` (generalized to `Σ_l R_{il}` for
/// non-uniform offers).
pub fn proportional_shares(facilities: &[Facility]) -> Vec<f64> {
    normalized(facilities.iter().map(|f| f.total_slots() as f64).collect())
}

/// Equal split — the "equity approach" the paper mentions as ignoring
/// contribution entirely.
pub fn equal_shares(n: usize) -> Vec<f64> {
    if n == 0 {
        Vec::new()
    } else {
        vec![1.0 / n as f64; n]
    }
}

/// Eq. 7 — proportionally fair shares by *consumed* resources ρ̂ᵢ: solve
/// the grand-coalition allocation, realize it on concrete locations, and
/// attribute each location's usage to facilities in proportion to the
/// capacity they contribute there.
///
/// Returns all zeros when nothing is consumed.
pub fn consumption_shares(facilities: &[Facility], demand: &Demand) -> Vec<f64> {
    // Uniform resources-per-location across classes is required by the
    // optimizer; scale capacities accordingly for realization.
    let r = demand
        .components
        .first()
        .map_or(1, |c| c.class.resources_per_location);

    let merged = LocationOffer::merge(facilities.iter().map(|f| &f.offer));
    let scaled_offer = if r == 1 {
        merged.clone()
    } else {
        let mut o = LocationOffer::new();
        for (l, c) in merged.iter() {
            if c / r > 0 {
                o.add(l, c / r);
            }
        }
        o
    };
    let profile = CapacityProfile::from_offer(&scaled_offer);
    let Ok(solution) = solve(&profile, demand) else {
        return vec![0.0; facilities.len()];
    };
    let sizes: Vec<u64> = solution.sizes_desc().iter().map(|&(_, s)| s).collect();
    let Some(assignment) = realize_assignment(&scaled_offer, &sizes) else {
        return vec![0.0; facilities.len()];
    };

    // Attribute usage: facility i's consumption at location l is
    // usage_l · R_{il} / Σ_j R_{jl} (in experiment units; the common factor
    // r cancels in the normalized shares).
    let mut consumed = vec![0.0; facilities.len()];
    for &(loc, used) in &assignment.usage {
        if used == 0 {
            continue;
        }
        let total_cap = merged.capacity_at(loc) as f64;
        for (i, f) in facilities.iter().enumerate() {
            let cap = f.offer.capacity_at(loc) as f64;
            if cap > 0.0 {
                consumed[i] += used as f64 * cap / total_cap;
            }
        }
    }
    normalized(consumed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{ExperimentClass, Volume};
    use crate::facility::paper_facilities;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    #[test]
    fn proportional_matches_eq6() {
        // Fig. 8 setup: L = (100,400,800), R = (80,60,20) ⇒
        // products (8000, 24000, 16000)/48000.
        let f = paper_facilities([80, 60, 20]);
        let pi = proportional_shares(&f);
        assert_close(pi[0], 8.0 / 48.0);
        assert_close(pi[1], 24.0 / 48.0);
        assert_close(pi[2], 16.0 / 48.0);
    }

    #[test]
    fn paper_worked_example_pi_hat() {
        // §4.1: π̂₂ = 4/13 with R = (1,1,1).
        let f = paper_facilities([1, 1, 1]);
        let pi = proportional_shares(&f);
        assert_close(pi[1], 4.0 / 13.0);
    }

    #[test]
    fn consumption_at_low_demand_follows_locations() {
        // Fig. 8: for K ≤ min Rᵢ every location serves K experiments, so
        // ρ̂ᵢ = Lᵢ / ΣL — different from π̂ᵢ.
        let f = paper_facilities([80, 60, 20]);
        let demand = Demand::single(ExperimentClass::simple("e", 250.0, 1.0), Volume::Count(10));
        let rho = consumption_shares(&f, &demand);
        assert_close(rho[0], 100.0 / 1300.0);
        assert_close(rho[1], 400.0 / 1300.0);
        assert_close(rho[2], 800.0 / 1300.0);
    }

    #[test]
    fn consumption_at_saturation_follows_capacity() {
        // With capacity-filling demand every slot is used: ρ̂ = π̂.
        let f = paper_facilities([80, 60, 20]);
        let demand = Demand::capacity_filling(ExperimentClass::simple("e", 0.0, 1.0));
        let rho = consumption_shares(&f, &demand);
        let pi = proportional_shares(&f);
        for i in 0..3 {
            assert_close(rho[i], pi[i]);
        }
    }

    #[test]
    fn equal_shares_sum_to_one() {
        let e = equal_shares(3);
        assert_close(e.iter().sum::<f64>(), 1.0);
        assert!(equal_shares(0).is_empty());
    }

    #[test]
    fn overlap_attribution_splits_shared_locations() {
        // Two facilities fully overlapping with equal capacity: equal
        // consumption shares.
        let a = Facility::uniform("a", 0, 10, 2);
        let b = Facility::uniform("b", 0, 10, 2);
        let facilities = vec![a, b];
        let demand = Demand::capacity_filling(ExperimentClass::simple("e", 0.0, 1.0));
        let rho = consumption_shares(&facilities, &demand);
        assert_close(rho[0], 0.5);
        assert_close(rho[1], 0.5);
    }
}
