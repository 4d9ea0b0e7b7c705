//! Degree-sequence feasibility and size-vector construction.
//!
//! An allocation assigns each admitted experiment a set of **distinct**
//! locations; a location of capacity `c` can serve at most `c` experiments.
//! Viewing experiments and locations as the two sides of a bipartite graph,
//! a vector of experiment sizes `x₁ ≥ x₂ ≥ … ≥ x_m` is realizable iff the
//! Gale–Ryser condition holds:
//!
//! ```text
//! Σ_{j ≤ k} xⱼ ≤ B(k) = Σ_ℓ min(c_ℓ, k)        for every k ≤ m
//! ```
//!
//! (`B` is provided by [`CapacityProfile::usable_slots`].) All optimizers in
//! this module reason over sorted size vectors through this condition and
//! only construct explicit location assignments at the end
//! ([`realize_assignment`], the constructive half of Gale–Ryser).

use crate::location::{CapacityProfile, LocationId, LocationOffer};

/// Checks the Gale–Ryser condition for a **descending** size vector.
///
/// Also checks `xⱼ ≤ n_locations` (an experiment cannot use more distinct
/// locations than exist), which is the `k = 1` condition combined with
/// sortedness, and therefore implied — asserted here for clarity only.
pub fn is_realizable(sizes_desc: &[u64], profile: &CapacityProfile) -> bool {
    debug_assert!(
        sizes_desc.windows(2).all(|w| w[0] >= w[1]),
        "must be sorted"
    );
    let mut prefix = 0u64;
    for (k, &x) in sizes_desc.iter().enumerate() {
        if x > profile.n_locations() {
            return false;
        }
        prefix += x;
        if prefix > profile.usable_slots(k as u64 + 1) {
            return false;
        }
    }
    true
}

/// Maximum achievable total `Σ xⱼ` over descending vectors with
/// per-position bounds `lb ≤ x ≤ ub` (both descending) that satisfy
/// Gale–Ryser. Returns the maximizing vector, or `None` if even `lb` is
/// infeasible.
///
/// Greedy from the largest position with *reservation*: when fixing `xⱼ`
/// we must leave enough budget for the lower bounds of every later
/// position, i.e. for all `k > j`: `P_j + Σ_{i=j+1..k} lbᵢ ≤ B(k)`.
/// Because the prefix constraints form a chain (a polymatroid), this
/// greedy is exact.
pub fn max_total_sizes(profile: &CapacityProfile, lb: &[u64], ub: &[u64]) -> Option<Vec<u64>> {
    let m = lb.len();
    if ub.len() != m {
        // Mismatched bound vectors have no feasible interpretation.
        return None;
    }
    debug_assert!(lb.windows(2).all(|w| w[0] >= w[1]), "lb must be descending");
    if m == 0 {
        return Some(Vec::new());
    }
    if !is_realizable(lb, profile) {
        return None;
    }
    // Suffix sums of lower bounds: reserve[j] = Σ_{i ≥ j} lb[i].
    let mut reserve = vec![0u64; m + 1];
    for j in (0..m).rev() {
        reserve[j] = reserve[j + 1] + lb[j];
    }

    let mut x = vec![0u64; m];
    let mut prefix = 0u64;
    for j in 0..m {
        // Cap from every future prefix constraint k ≥ j (0-indexed):
        //   x_j ≤ B(k+1) − prefix − Σ_{i=j+1..k} lb_i
        // The tightest k is found by scanning; B is cheap. (k ranges j..m−1.)
        let mut cap = u64::MAX;
        for k in j..m {
            let b = profile.usable_slots(k as u64 + 1);
            let reserved_between = reserve[j + 1] - reserve[k + 1];
            let budget = b.saturating_sub(prefix + reserved_between);
            cap = cap.min(budget);
            // Once budgets stop decreasing we could break, but m is small.
        }
        let upper = ub[j]
            .min(profile.n_locations())
            .min(if j > 0 { x[j - 1] } else { u64::MAX });
        let val = cap.min(upper).max(lb[j]);
        if val < lb[j] || val > upper {
            // Reservation made lb unreachable — cannot happen if lb was
            // realizable, kept as a defensive check.
            return None;
        }
        x[j] = val;
        prefix += val;
    }
    debug_assert!(is_realizable(&x, profile));
    Some(x)
}

/// The most **balanced** descending vector with the same total as
/// [`max_total_sizes`] would produce, subject to the same constraints.
///
/// Starts from the greedy max-total vector and performs Robin-Hood
/// transfers (largest → smallest) — each transfer preserves the total,
/// keeps the vector within bounds, and can only relax the prefix sums, so
/// Gale–Ryser is maintained.
pub fn balanced_max_total_sizes(
    profile: &CapacityProfile,
    lb: &[u64],
    ub: &[u64],
) -> Option<Vec<u64>> {
    let mut x = max_total_sizes(profile, lb, ub)?;
    let m = x.len();
    if m < 2 {
        return Some(x);
    }
    // Repeatedly move one unit from the largest surplus slot to the
    // smallest deficit slot, while the move keeps sortedness-compatible
    // bounds and prefix feasibility. Because each move strictly decreases
    // the sum of squares, this terminates.
    loop {
        // Find donor: position with the largest x[j] that can give a unit
        // (x[j] − 1 ≥ lb[j]); recipient: smallest x[j] that can take one
        // (x[j] + 1 ≤ ub[j]).
        let mut donor: Option<usize> = None;
        let mut recipient: Option<usize> = None;
        for j in 0..m {
            if x[j] > lb[j] && donor.is_none_or(|d| x[j] > x[d]) {
                donor = Some(j);
            }
            if x[j] < ub[j] && recipient.is_none_or(|r| x[j] < x[r]) {
                recipient = Some(j);
            }
        }
        let (Some(d), Some(r)) = (donor, recipient) else {
            break;
        };
        if x[d] <= x[r] + 1 {
            break; // already balanced within one unit
        }
        x[d] -= 1;
        x[r] += 1;
        let mut sorted = x.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        if !is_realizable(&sorted, profile) || !respects_bounds(&x, lb, ub) {
            // Revert and stop: no further balancing possible.
            x[d] += 1;
            x[r] -= 1;
            break;
        }
    }
    x.sort_unstable_by(|a, b| b.cmp(a));
    Some(x)
}

fn respects_bounds(x: &[u64], lb: &[u64], ub: &[u64]) -> bool {
    x.iter()
        .zip(lb)
        .zip(ub)
        .all(|((&v, &l), &u)| v >= l && v <= u)
}

/// Splits `total` into `m` parts as evenly as possible (descending).
pub fn balanced_partition(total: u64, m: u64) -> Vec<u64> {
    if m == 0 {
        return Vec::new();
    }
    let q = total / m;
    let r = total % m;
    #[expect(
        clippy::cast_possible_truncation,
        reason = "hot path; m counts experiments, far below 2^32"
    )]
    let mut parts = Vec::with_capacity(m as usize);
    for j in 0..m {
        parts.push(if j < r { q + 1 } else { q });
    }
    parts
}

/// Constructively realizes a feasible size vector as a location assignment
/// (the algorithmic half of Gale–Ryser): each experiment, in descending
/// size order, takes the locations with the most remaining capacity.
///
/// Returns per-location usage keyed by location id, plus per-experiment
/// location lists. Panics (debug) if the vector is infeasible.
#[expect(
    clippy::cast_possible_truncation,
    reason = "hot path; an experiment size x never exceeds the location count, a usize"
)]
pub fn realize_assignment(offer: &LocationOffer, sizes_desc: &[u64]) -> Option<Assignment> {
    let mut residual: Vec<(LocationId, u64)> = offer.iter().collect();
    let mut experiments = Vec::with_capacity(sizes_desc.len());
    for &x in sizes_desc {
        if x as usize > residual.len() {
            return None;
        }
        // Pick the x locations with the largest residual capacity.
        let mut order: Vec<usize> = (0..residual.len()).collect();
        order.sort_by(|&a, &b| residual[b].1.cmp(&residual[a].1));
        let chosen: Vec<usize> = order.into_iter().take(x as usize).collect();
        if chosen.iter().any(|&i| residual[i].1 == 0) {
            return None;
        }
        let mut locs = Vec::with_capacity(x as usize);
        for &i in &chosen {
            residual[i].1 -= 1;
            locs.push(residual[i].0);
        }
        locs.sort_unstable();
        experiments.push(locs);
    }
    let usage: Vec<(LocationId, u64)> = offer
        .iter()
        .zip(&residual)
        .map(|((id, cap), &(rid, rem))| {
            debug_assert_eq!(id, rid);
            (id, cap - rem)
        })
        .collect();
    Some(Assignment { experiments, usage })
}

/// An explicit realization of an allocation.
#[derive(Debug, Clone)]
pub struct Assignment {
    /// Location ids used by each experiment (sorted), in the order the
    /// size vector was given.
    pub experiments: Vec<Vec<LocationId>>,
    /// `(location, slots used)` for every offered location.
    pub usage: Vec<(LocationId, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(groups: &[(u64, u64)]) -> CapacityProfile {
        CapacityProfile::from_groups(groups.to_vec())
    }

    #[test]
    fn gale_ryser_basics() {
        // 3 locations of capacity 2: B(1)=3, B(2)=6.
        let p = profile(&[(2, 3)]);
        assert!(is_realizable(&[3, 3], &p));
        assert!(is_realizable(&[3, 2, 1], &p));
        assert!(!is_realizable(&[4], &p)); // more than 3 locations
        assert!(!is_realizable(&[3, 3, 1], &p)); // total 7 > 6
    }

    #[test]
    fn gale_ryser_prefix_binds() {
        // Locations caps {10, 1}: B(1)=2, B(2)=3. Sizes (2,2): prefix₂=4>3.
        let p = profile(&[(10, 1), (1, 1)]);
        assert!(is_realizable(&[2, 1], &p));
        assert!(!is_realizable(&[2, 2], &p));
    }

    #[test]
    fn max_total_without_lower_bounds() {
        let p = profile(&[(80, 100), (20, 400)]); // Fig. 6 coalition {1,2}
        let m = 40;
        let lb = vec![1u64; m];
        let ub = vec![p.n_locations(); m];
        let x = max_total_sizes(&p, &lb, &ub).unwrap();
        let total: u64 = x.iter().sum();
        assert_eq!(total, p.usable_slots(m as u64)); // B(40) = 12000
    }

    #[test]
    fn max_total_with_threshold_lower_bounds() {
        // Single class with s_min = 501 on the Fig. 6 {1,2} coalition:
        // m·501 ≤ B(m) ⇒ m ≤ 8000/(501−100)·… checked against theory:
        // feasible m ≤ ⌊8000/401⌋ = 19 (for m ≤ 20, B(m) = 500m ≥ 501m is
        // false!) — recompute: for m ≤ 20, B(m) = 500m < 501m ⇒ infeasible
        // for every m ≥ 1? B(1) = 500 < 501 ⇒ even one experiment cannot
        // get 501 distinct locations… n_locations = 500 < 501. Infeasible.
        let p = profile(&[(80, 100), (20, 400)]);
        assert_eq!(max_total_sizes(&p, &[501], &[p.n_locations()]), None);
    }

    #[test]
    fn max_total_respects_reservations() {
        // Caps {1,1,1}: B(k) = 3. lb = (2,1): greedy must hold x₁ to 2.
        let p = profile(&[(1, 3)]);
        let x = max_total_sizes(&p, &[2, 1], &[3, 3]).unwrap();
        assert_eq!(x.iter().sum::<u64>(), 3);
        assert!(x[0] >= 2 && x[1] >= 1);
    }

    #[test]
    fn balanced_respects_total_and_bounds() {
        let p = profile(&[(20, 400), (80, 100)]);
        let m = 40usize;
        let lb = vec![101u64; m];
        let ub = vec![p.n_locations(); m];
        let greedy = max_total_sizes(&p, &lb, &ub).unwrap();
        let balanced = balanced_max_total_sizes(&p, &lb, &ub).unwrap();
        assert_eq!(
            greedy.iter().sum::<u64>(),
            balanced.iter().sum::<u64>(),
            "balancing must preserve the total"
        );
        let spread_g = greedy.first().unwrap() - greedy.last().unwrap();
        let spread_b = balanced.first().unwrap() - balanced.last().unwrap();
        assert!(spread_b <= spread_g);
        assert!(is_realizable(&balanced, &p));
    }

    #[test]
    fn balanced_partition_shapes() {
        assert_eq!(balanced_partition(10, 3), vec![4, 3, 3]);
        assert_eq!(balanced_partition(9, 3), vec![3, 3, 3]);
        assert_eq!(balanced_partition(0, 2), vec![0, 0]);
        assert!(balanced_partition(5, 0).is_empty());
    }

    #[test]
    fn realization_matches_sizes_and_capacity() {
        let offer = LocationOffer::merge([
            &LocationOffer::contiguous(0, 3, 2),
            &LocationOffer::contiguous(3, 2, 1),
        ]);
        // 5 locations, caps (2,2,2,1,1). Sizes (5,3): B(1)=5 ✓, B(2)=8 ✓.
        let a = realize_assignment(&offer, &[5, 3]).unwrap();
        assert_eq!(a.experiments[0].len(), 5);
        assert_eq!(a.experiments[1].len(), 3);
        // Distinctness within an experiment.
        let mut e0 = a.experiments[0].clone();
        e0.dedup();
        assert_eq!(e0.len(), 5);
        // No location over capacity.
        for &(id, used) in &a.usage {
            assert!(used <= offer.capacity_at(id));
        }
        // Total usage equals total size.
        let used: u64 = a.usage.iter().map(|&(_, u)| u).sum();
        assert_eq!(used, 8);
    }

    #[test]
    fn realization_rejects_infeasible() {
        let offer = LocationOffer::contiguous(0, 2, 1);
        assert!(realize_assignment(&offer, &[2, 2]).is_none());
    }

    #[test]
    fn max_total_zero_experiments() {
        let p = profile(&[(2, 2)]);
        assert_eq!(max_total_sizes(&p, &[], &[]), Some(vec![]));
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use proptest::prelude::*;

    fn offer_strategy() -> impl Strategy<Value = LocationOffer> {
        prop::collection::vec(1u64..=4, 1..=8).prop_map(|caps| {
            let mut offer = LocationOffer::new();
            for (i, c) in (0u32..).zip(caps) {
                offer.add(i, c);
            }
            offer
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The analytical condition and the constructive algorithm must
        /// agree on every instance: `is_realizable` ⟺ `realize_assignment`
        /// succeeds.
        #[test]
        fn gale_ryser_matches_construction(
            offer in offer_strategy(),
            mut sizes in prop::collection::vec(1u64..=8, 1..=6),
        ) {
            sizes.sort_unstable_by(|a, b| b.cmp(a));
            let profile = CapacityProfile::from_offer(&offer);
            let predicted = is_realizable(&sizes, &profile);
            let constructed = realize_assignment(&offer, &sizes);
            prop_assert_eq!(
                predicted,
                constructed.is_some(),
                "GR says {} but construction {} for sizes {:?} on {:?}",
                predicted,
                constructed.is_some(),
                sizes,
                profile.groups()
            );
            if let Some(a) = constructed {
                // Realization respects capacities and distinctness.
                for (&(id, used), (id2, cap)) in a.usage.iter().zip(offer.iter()) {
                    prop_assert_eq!(id, id2);
                    prop_assert!(used <= cap);
                }
                for (locs, &want) in a.experiments.iter().zip(&sizes) {
                    prop_assert_eq!(locs.len() as u64, want);
                    let mut dedup = locs.clone();
                    dedup.dedup();
                    prop_assert_eq!(dedup.len(), locs.len());
                }
            }
        }

        /// The greedy max-total vector is never beaten by any balanced
        /// partition of a larger total (soundness of the maximum).
        #[test]
        fn max_total_is_a_true_maximum(
            offer in offer_strategy(),
            m in 1usize..5,
            lb in 1u64..3,
        ) {
            let profile = CapacityProfile::from_offer(&offer);
            let lbs = vec![lb; m];
            let ubs = vec![profile.n_locations(); m];
            if let Some(sizes) = max_total_sizes(&profile, &lbs, &ubs) {
                let total: u64 = sizes.iter().sum();
                // No feasible vector with total + 1 exists: check all
                // balanced candidates (the easiest-to-pack shape).
                let probe = balanced_partition(total + 1, m as u64);
                let mut sorted = probe.clone();
                sorted.sort_unstable_by(|a, b| b.cmp(a));
                let bigger_possible = sorted.iter().all(|&x| x >= lb)
                    && sorted.iter().all(|&x| x <= profile.n_locations())
                    && is_realizable(&sorted, &profile);
                prop_assert!(
                    !bigger_possible,
                    "balanced {:?} beats greedy {:?}",
                    sorted,
                    sizes
                );
            }
        }
    }
}
