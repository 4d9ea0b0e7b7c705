//! The production allocation optimizer (the paper's eq. 2).
//!
//! Given a coalition's [`CapacityProfile`] and a demand mixture, choose how
//! many experiments of each class to admit and how many distinct locations
//! to give each, maximizing total utility `Σ_k u_k(x_k)`.
//!
//! The optimizer exploits the structure established in
//! [`feasibility`](super::feasibility):
//!
//! * For linear utility (`d = 1`, all the paper's multi-experiment figures)
//!   total utility equals total location-slots used, so for each candidate
//!   admission vector the value is `max_total_sizes` and the search space is
//!   the (small) grid of admission counts.
//! * For `d ≠ 1` single-class demand, the optimal size vector given the
//!   admission count is the most balanced (concave `d`) or most spread
//!   (convex `d`) max-total vector, both constructible directly.
//! * A single experiment (Figs. 4–5) takes every location: `V = u(L_tot)`.
//!
//! Heterogeneous `resources_per_location` (`r > 1`) is supported for
//! single-class demand by integer-scaling capacities (`c → ⌊c/r⌋`); mixed-`r`
//! mixtures are the exact solver's and the simulator's job (see DESIGN.md).

use super::feasibility::{balanced_partition, is_realizable, max_total_sizes};
use crate::experiment::Demand;
use crate::location::CapacityProfile;

/// The admission decision and sizes for one demand class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassAllocation {
    /// Number of experiments of the class admitted.
    pub admitted: u64,
    /// Distinct-location counts assigned to each admitted experiment
    /// (descending).
    pub sizes: Vec<u64>,
}

/// An optimal (or, where documented, best-effort) solution of eq. 2 on a
/// capacity profile.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSolution {
    /// Total utility `Σ u_k(x_k)` — the coalition value `V(S)` in the
    /// commercial scenario.
    pub total_utility: f64,
    /// Per-class admissions, aligned with the demand components.
    pub per_class: Vec<ClassAllocation>,
}

impl ProfileSolution {
    /// The empty (zero-value) solution for `n_classes` classes.
    fn zero(n_classes: usize) -> ProfileSolution {
        ProfileSolution {
            total_utility: 0.0,
            per_class: vec![
                ClassAllocation {
                    admitted: 0,
                    sizes: Vec::new(),
                };
                n_classes
            ],
        }
    }

    /// All admitted sizes tagged by class, descending by size — the input
    /// to [`realize_assignment`](super::feasibility::realize_assignment).
    pub fn sizes_desc(&self) -> Vec<(usize, u64)> {
        let mut v: Vec<(usize, u64)> = self
            .per_class
            .iter()
            .enumerate()
            .flat_map(|(k, c)| c.sizes.iter().map(move |&s| (k, s)))
            .collect();
        v.sort_by_key(|&(_, size)| std::cmp::Reverse(size));
        v
    }

    /// Total location-slots consumed.
    pub fn slots_used(&self) -> u64 {
        self.per_class
            .iter()
            .map(|c| c.sizes.iter().sum::<u64>())
            .sum()
    }
}

/// Errors from the analytic optimizer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// Demand mixes classes with different `resources_per_location`; the
    /// analytic optimizer only scales capacities for a single class.
    MixedResourceClasses,
    /// Demand mixes classes with different utility shapes `d`; the paper
    /// assumes a common `d` ("we assume that d is the same for all users").
    MixedShapes,
    /// `d ≠ 1` with more than one class is outside the analytic fast paths.
    NonlinearMixture,
    /// The admission-grid search would exceed the configured budget.
    SearchTooLarge,
    /// The instance has more locations than the exhaustive solver can
    /// enumerate.
    TooManyLocations {
        /// Locations in the instance.
        n: u64,
        /// Maximum the solver supports.
        max: u64,
    },
    /// The exhaustive solver's per-run experiment budget was exceeded.
    ExperimentBudgetExceeded {
        /// Total admission cap requested across classes.
        requested: u64,
        /// Maximum the solver supports.
        max: u64,
    },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::MixedResourceClasses => {
                write!(f, "mixed resources-per-location across classes")
            }
            SolveError::MixedShapes => write!(f, "mixed utility shapes across classes"),
            SolveError::NonlinearMixture => {
                write!(
                    f,
                    "d != 1 with multiple classes is not analytically supported"
                )
            }
            SolveError::SearchTooLarge => write!(f, "admission grid search too large"),
            SolveError::TooManyLocations { n, max } => {
                write!(f, "instance has {n} locations; exhaustive solver supports {max}")
            }
            SolveError::ExperimentBudgetExceeded { requested, max } => {
                write!(
                    f,
                    "admission caps total {requested}; exhaustive solver budget is {max} per class"
                )
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// Grid budget for the admission scan.
const MAX_GRID: u64 = 4_000_000;

/// Solves eq. 2 on `profile` for `demand`.
///
/// # Errors
/// [`SolveError::MixedResourceClasses`], [`SolveError::MixedShapes`], or
/// [`SolveError::NonlinearMixture`] when the demand mix falls outside the
/// analytic fast paths, and [`SolveError::SearchTooLarge`] when the
/// admission-grid scan would exceed its budget.
pub fn solve(profile: &CapacityProfile, demand: &Demand) -> Result<ProfileSolution, SolveError> {
    let classes = &demand.components;
    if classes.is_empty() || profile.n_locations() == 0 {
        return Ok(ProfileSolution::zero(classes.len()));
    }

    // Common shape check (the paper's global d).
    let d = classes[0].class.utility.shape;
    if classes
        .iter()
        .any(|c| (c.class.utility.shape - d).abs() > 1e-12)
    {
        return Err(SolveError::MixedShapes);
    }

    // Resource scaling: only uniform r is supported analytically.
    let r = classes[0].class.resources_per_location;
    if classes.iter().any(|c| c.class.resources_per_location != r) {
        return Err(SolveError::MixedResourceClasses);
    }
    let scaled;
    let profile = if r == 1 {
        profile
    } else {
        scaled = CapacityProfile::from_groups(
            profile
                .groups()
                .iter()
                .map(|&(cap, count)| (cap / r, count))
                .collect(),
        );
        &scaled
    };
    if profile.n_locations() == 0 {
        return Ok(ProfileSolution::zero(classes.len()));
    }

    // Fast path: one class, one experiment (Figs. 4–5).
    if classes.len() == 1 {
        let class = &classes[0].class;
        let cap = classes[0]
            .volume
            .cap(saturation_bound(profile, class.min_size()));
        if cap == 0 {
            return Ok(ProfileSolution::zero(1));
        }
        if cap == 1 {
            return Ok(solve_single_experiment(profile, demand));
        }
        return solve_single_class(profile, demand, d, cap);
    }

    if (d - 1.0).abs() > 1e-12 {
        return Err(SolveError::NonlinearMixture);
    }
    solve_linear_mixture(profile, demand)
}

/// Largest admission count worth considering: the largest `m` with
/// `m` copies of `min_size` realizable (Gale–Ryser region is an interval
/// because `B` is concave), found by binary search; 0 if even one
/// experiment does not fit.
fn saturation_bound(profile: &CapacityProfile, min_size: u64) -> u64 {
    let feasible = |m: u64| -> bool {
        if m == 0 {
            return true;
        }
        min_size <= profile.n_locations() && m * min_size.max(1) <= profile.usable_slots(m)
    };
    if !feasible(1) {
        return 0;
    }
    let mut lo = 1u64;
    let mut hi = profile.total_slots().max(1);
    if feasible(hi) {
        return hi;
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if feasible(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// One experiment of one class: give it everything useful.
fn solve_single_experiment(profile: &CapacityProfile, demand: &Demand) -> ProfileSolution {
    let class = &demand.components[0].class;
    let size = class.max_size(profile.n_locations());
    let utility = class.utility_of(size);
    if utility <= 0.0 {
        return ProfileSolution::zero(1);
    }
    ProfileSolution {
        total_utility: utility,
        per_class: vec![ClassAllocation {
            admitted: 1,
            sizes: vec![size],
        }],
    }
}

/// Single class, many experiments, any `d`.
///
/// * `d = 1`: utility is the slot total, which is non-decreasing in the
///   admission count, so the answer is closed-form at `m* = min(cap, m⁰)`
///   with `T = min(B(m*), m*·ub)` and balanced sizes.
/// * `d < 1`: for each `m`, balanced sizes over total `min(B(m), m·ub)`
///   are optimal (Schur-concavity); utility per `m` is O(1), full scan.
/// * `d > 1`: for each `m`, the greedy max-total (maximally spread) vector
///   is optimal (Schur-convexity); its construction is O(m²), so the scan
///   is capped — convex utility favors few large experiments, so small `m`
///   dominates and the cap is immaterial in practice.
#[expect(
    clippy::cast_possible_truncation,
    reason = "hot path; the spread scan stops at m = SPREAD_SCAN_MAX = 512"
)]
fn solve_single_class(
    profile: &CapacityProfile,
    demand: &Demand,
    d: f64,
    cap: u64,
) -> Result<ProfileSolution, SolveError> {
    let class = &demand.components[0].class;
    let lb = class.min_size();
    let ub = class.max_size(profile.n_locations());
    if ub < lb {
        return Ok(ProfileSolution::zero(1));
    }
    let m_max = saturation_bound(profile, lb).min(cap);
    if m_max == 0 {
        return Ok(ProfileSolution::zero(1));
    }

    // Balanced sizes for admission count m, each clamped to [lb, ub];
    // total = min(B(m), m·ub). Feasible for every m ≤ m⁰ (see DESIGN.md).
    let balanced_for = |m: u64| -> Vec<u64> {
        let total = profile.usable_slots(m).min(m * ub);
        balanced_partition(total, m)
    };
    let utility_of_sizes =
        |sizes: &[u64]| -> f64 { sizes.iter().map(|&x| class.utility_of(x)).sum() };

    let (m_best, sizes) = if (d - 1.0).abs() < 1e-12 {
        // Utility = total T(m) = min(B(m), m·ub), non-decreasing in m;
        // among the (many) maximizers report the *smallest* admission
        // count — the canonical allocation (T is monotone, binary search).
        let t = |m: u64| profile.usable_slots(m).min(m * ub);
        let target = t(m_max);
        let mut lo = 1u64;
        let mut hi = m_max;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if t(mid) == target {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        (lo, balanced_for(lo))
    } else if d < 1.0 {
        // O(1) utility per m via the balanced two-level shape: r parts of
        // size q+1 and m−r of size q, all ≥ lb because m ≤ m⁰.
        let mut best = (f64::MIN, 1u64);
        for m in 1..=m_max {
            let total = profile.usable_slots(m).min(m * ub);
            let q = total / m;
            let r = total % m;
            let u = r as f64 * ((q + 1) as f64).powf(d) + (m - r) as f64 * (q as f64).powf(d);
            if u > best.0 {
                best = (u, m);
            }
        }
        (best.1, balanced_for(best.1))
    } else {
        // Convex d: scan small m with the spread (greedy max-total) vector.
        const SPREAD_SCAN_MAX: u64 = 512;
        let scan_to = m_max.min(SPREAD_SCAN_MAX);
        let mut best: Option<(f64, Vec<u64>)> = None;
        for m in 1..=scan_to {
            let lbs = vec![lb; m as usize];
            let ubs = vec![ub; m as usize];
            let Some(sizes) = max_total_sizes(profile, &lbs, &ubs) else {
                continue;
            };
            let u = utility_of_sizes(&sizes);
            if best.as_ref().is_none_or(|(bu, _)| u > *bu) {
                best = Some((u, sizes));
            }
        }
        // Also consider full saturation (cheap balanced shape) in case the
        // scan cap bit.
        if m_max > scan_to {
            let sizes = balanced_for(m_max);
            let u = utility_of_sizes(&sizes);
            if best.as_ref().is_none_or(|(bu, _)| u > *bu) {
                best = Some((u, sizes));
            }
        }
        let Some((_, sizes)) = best else {
            return Ok(ProfileSolution::zero(1));
        };
        (sizes.len() as u64, sizes)
    };

    let utility = utility_of_sizes(&sizes);
    if utility <= 0.0 {
        return Ok(ProfileSolution::zero(1));
    }
    Ok(ProfileSolution {
        total_utility: utility,
        per_class: vec![ClassAllocation {
            admitted: m_best,
            sizes,
        }],
    })
}

/// Linear utility (`d = 1`), arbitrary class mixture: scan the admission
/// grid; each cell's value is the max-total greedy.
///
/// Classes with `min_size == 1` ("filler" classes — any location helps)
/// are not scanned: admitting another size-1 experiment never reduces the
/// achievable total, so for each grid cell of the threshold classes the
/// single filler class (when there is exactly one) is set to its largest
/// feasible count by binary search.
fn solve_linear_mixture(
    profile: &CapacityProfile,
    demand: &Demand,
) -> Result<ProfileSolution, SolveError> {
    let classes = &demand.components;
    // Per-class bounds.
    let mut caps = Vec::with_capacity(classes.len());
    for c in classes {
        let lb = c.class.min_size();
        let sat = saturation_bound(profile, lb);
        caps.push(c.volume.cap(sat).min(sat));
    }

    // Identify the filler optimization opportunity.
    let fillers: Vec<usize> = classes
        .iter()
        .enumerate()
        .filter(|(_, c)| c.class.min_size() == 1)
        .map(|(k, _)| k)
        .collect();
    let filler = (fillers.len() == 1).then(|| fillers[0]);

    let grid: u64 = caps
        .iter()
        .enumerate()
        .filter(|&(k, _)| Some(k) != filler)
        .map(|(_, &c)| c + 1)
        .product();
    if grid > MAX_GRID {
        return Err(SolveError::SearchTooLarge);
    }

    // (utility, admission counts, class-tagged sizes)
    type Best = (f64, Vec<u64>, Vec<(usize, u64)>);
    let mut best: Option<Best> = None;
    let mut admissions = vec![0u64; classes.len()];
    loop {
        // Evaluate current admission vector (filling the filler class).
        let candidate = match filler {
            None => evaluate_linear(profile, demand, &admissions)
                .map(|(u, t)| (u, admissions.clone(), t)),
            Some(fk) => {
                // Binary search the largest feasible filler count: the lb
                // vector's feasibility is monotone in it.
                let mut trial = admissions.clone();
                let feasible = |cnt: u64, trial: &mut Vec<u64>| {
                    trial[fk] = cnt;
                    evaluate_linear(profile, demand, trial)
                };
                if feasible(0, &mut trial).is_none() {
                    None
                } else {
                    let (mut lo, mut hi) = (0u64, caps[fk]);
                    while lo < hi {
                        let mid = lo + (hi - lo).div_ceil(2);
                        if feasible(mid, &mut trial).is_some() {
                            lo = mid;
                        } else {
                            hi = mid - 1;
                        }
                    }
                    feasible(lo, &mut trial).map(|(u, t)| (u, trial.clone(), t))
                }
            }
        };
        if let Some((utility, adm, tagged)) = candidate {
            if best.as_ref().is_none_or(|(u, _, _)| utility > *u) {
                best = Some((utility, adm, tagged));
            }
        }
        // Advance mixed-radix counter over non-filler classes.
        let mut k = 0;
        loop {
            if k == classes.len() {
                // Done scanning.
                let Some((utility, admissions, tagged)) = best else {
                    return Ok(ProfileSolution::zero(classes.len()));
                };
                return Ok(assemble(classes.len(), utility, &admissions, tagged));
            }
            if Some(k) == filler {
                k += 1;
                continue;
            }
            if admissions[k] < caps[k] {
                admissions[k] += 1;
                break;
            }
            admissions[k] = 0;
            k += 1;
        }
    }
}

/// Value of one admission vector under linear utility. Returns the total
/// plus the class-tagged size vector, or `None` if infeasible.
fn evaluate_linear(
    profile: &CapacityProfile,
    demand: &Demand,
    admissions: &[u64],
) -> Option<(f64, Vec<(usize, u64)>)> {
    // Build (lb, ub, class) triples sorted by descending lb (exchange
    // argument: larger thresholds take the larger sorted positions).
    let mut spec: Vec<(u64, u64, usize)> = Vec::new();
    for (k, comp) in demand.components.iter().enumerate() {
        let lb = comp.class.min_size();
        let ub = comp.class.max_size(profile.n_locations());
        if ub < lb && admissions[k] > 0 {
            return None;
        }
        for _ in 0..admissions[k] {
            spec.push((lb, ub, k));
        }
    }
    spec.sort_by_key(|&(lb, _, _)| std::cmp::Reverse(lb));
    let lbs: Vec<u64> = spec.iter().map(|s| s.0).collect();
    let ubs: Vec<u64> = spec.iter().map(|s| s.1).collect();
    let sizes = max_total_sizes(profile, &lbs, &ubs)?;
    debug_assert!(is_realizable(&sizes, profile));
    let total: u64 = sizes.iter().sum();
    let tagged: Vec<(usize, u64)> = spec
        .iter()
        .zip(&sizes)
        .map(|(&(_, _, k), &x)| (k, x))
        .collect();
    Some((total as f64, tagged))
}

fn assemble(
    n_classes: usize,
    utility: f64,
    admissions: &[u64],
    tagged: Vec<(usize, u64)>,
) -> ProfileSolution {
    let mut per_class = vec![
        ClassAllocation {
            admitted: 0,
            sizes: Vec::new(),
        };
        n_classes
    ];
    for (k, size) in tagged {
        per_class[k].sizes.push(size);
    }
    for (k, c) in per_class.iter_mut().enumerate() {
        c.sizes.sort_unstable_by(|a, b| b.cmp(a));
        c.admitted = admissions[k];
        debug_assert_eq!(c.sizes.len() as u64, c.admitted);
    }
    ProfileSolution {
        total_utility: utility,
        per_class,
    }
}

impl crate::experiment::ExperimentClass {
    /// Utility of an experiment of this class assigned `x` locations.
    pub fn utility_of(&self, x: u64) -> f64 {
        use crate::utility::Utility;
        self.utility.eval(x as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{ExperimentClass, Volume};
    use crate::location::CapacityProfile;

    fn profile(groups: &[(u64, u64)]) -> CapacityProfile {
        CapacityProfile::from_groups(groups.to_vec())
    }

    fn single_class(l: f64, volume: Volume) -> Demand {
        Demand::single(ExperimentClass::simple("x", l, 1.0), volume)
    }

    #[test]
    fn single_experiment_takes_all_locations() {
        // Fig. 4 coalition {2,3}: 1200 locations, threshold 500 ⇒ V = 1200.
        let p = profile(&[(1, 1200)]);
        let s = solve(&p, &single_class(500.0, Volume::Count(1))).unwrap();
        assert_eq!(s.total_utility, 1200.0);
        assert_eq!(s.per_class[0].sizes, vec![1200]);
    }

    #[test]
    fn single_experiment_below_threshold_is_blocked() {
        // Fig. 4 coalition {1,2}: 500 locations, threshold 500 (strict).
        let p = profile(&[(1, 500)]);
        let s = solve(&p, &single_class(500.0, Volume::Count(1))).unwrap();
        assert_eq!(s.total_utility, 0.0);
        assert_eq!(s.per_class[0].admitted, 0);
    }

    #[test]
    fn capacity_filling_uses_all_slots_when_threshold_small() {
        // Fig. 6 facility 1 alone: 100 locations × cap 80, l ≤ 99 ⇒ 8000.
        let p = profile(&[(80, 100)]);
        let s = solve(&p, &single_class(50.0, Volume::CapacityFilling)).unwrap();
        assert_eq!(s.total_utility, 8000.0);
        assert_eq!(s.per_class[0].admitted, 80);
        assert!(s.per_class[0].sizes.iter().all(|&x| x == 100));
    }

    #[test]
    fn fig6_coalition_12_piecewise_values() {
        // Coalition {1,2}: caps (80×100, 20×400). Derived in DESIGN.md:
        //   l ≤ 199 (s_min ≤ 200): V = 16000
        //   s_min ∈ (200, 500]:    V = 100·min(80, ⌊8000/(s−100)⌋) + 8000
        //     at l = 299 (s_min=300): m = 40, V = 12000
        //     at l = 499 (s_min=500): m = 20, V = 10000
        //   l ≥ 500 (s_min > 500 > n_locations): V = 0
        let p = profile(&[(80, 100), (20, 400)]);
        let v = |l: f64| {
            solve(&p, &single_class(l, Volume::CapacityFilling))
                .unwrap()
                .total_utility
        };
        assert_eq!(v(0.0), 16_000.0);
        assert_eq!(v(199.0), 16_000.0);
        assert_eq!(v(299.0), 12_000.0);
        assert_eq!(v(499.0), 10_000.0);
        assert_eq!(v(500.0), 0.0);
    }

    #[test]
    fn volume_cap_limits_admission() {
        // Fig. 8 facility 3 alone: 800 locations × cap 20, l = 250.
        // V(K) = 800·min(K, 20) until the feasibility cap (m ≤ 63).
        let p = profile(&[(20, 800)]);
        for k in [1u64, 5, 19, 20, 40] {
            let s = solve(&p, &single_class(250.0, Volume::Count(k))).unwrap();
            let expect = 800 * k.min(20);
            assert_eq!(s.total_utility, expect as f64, "K = {k}");
        }
    }

    #[test]
    fn concave_shape_prefers_many_small_experiments() {
        // d = 0.5, threshold 0, 4 locations × cap 2 (8 slots).
        // Options: m=8 experiments of size 1: utility 8·1 = 8;
        //          m=2 of size 4: 2·2 = 4. Expect many small.
        let p = profile(&[(2, 4)]);
        let d = Demand::single(
            ExperimentClass::simple("c", 0.0, 0.5),
            Volume::CapacityFilling,
        );
        let s = solve(&p, &d).unwrap();
        assert_eq!(s.per_class[0].admitted, 8);
        assert!((s.total_utility - 8.0).abs() < 1e-9);
    }

    #[test]
    fn convex_shape_prefers_few_large_experiments() {
        // d = 2, threshold 0, 4 locations × cap 2.
        // m=2 of size 4 each: 16+16 = 32; m=8 of size 1: 8. Expect 2 big.
        let p = profile(&[(2, 4)]);
        let d = Demand::single(
            ExperimentClass::simple("c", 0.0, 2.0),
            Volume::CapacityFilling,
        );
        let s = solve(&p, &d).unwrap();
        assert!((s.total_utility - 32.0).abs() < 1e-9);
        assert_eq!(s.per_class[0].admitted, 2);
        assert_eq!(s.per_class[0].sizes, vec![4, 4]);
    }

    #[test]
    fn two_class_mixture_serves_diversity_class_when_possible() {
        // Fig. 7 shape: class A l=0, class B l=700 on the full federation
        // profile (80×100, 50×400, 30×800).
        let p = profile(&[(80, 100), (50, 400), (30, 800)]);
        let demand = Demand::mixture(
            ExperimentClass::simple("a", 0.0, 1.0),
            ExperimentClass::simple("b", 700.0, 1.0),
            60,
            0.5,
        );
        let s = solve(&p, &demand).unwrap();
        // 30 of each class; everything fits easily: every admitted
        // experiment helps, B(60) = 100·60 + 400·50 + 800·30 = 50000;
        // 30 B-experiments ≥ 701 each plus 30 A-experiments: the optimizer
        // should use a large share of the slots.
        assert_eq!(s.per_class[1].admitted, 30);
        assert!(s.per_class[1].sizes.iter().all(|&x| x > 700));
        assert_eq!(s.per_class[0].admitted, 30);
        assert!(s.total_utility > 0.0);
    }

    #[test]
    fn two_class_mixture_drops_diversity_class_on_small_coalition() {
        // Facility {1} alone (80×100): only 100 locations, class B (l=700)
        // impossible; all value from class A.
        let p = profile(&[(80, 100)]);
        let demand = Demand::mixture(
            ExperimentClass::simple("a", 0.0, 1.0),
            ExperimentClass::simple("b", 700.0, 1.0),
            60,
            0.5,
        );
        let s = solve(&p, &demand).unwrap();
        assert_eq!(s.per_class[1].admitted, 0);
        assert_eq!(s.per_class[0].admitted, 30);
        // 30 experiments of 100 locations each = 3000 slots.
        assert_eq!(s.total_utility, 3000.0);
    }

    #[test]
    fn resource_scaling_single_class() {
        // CDN-style r = 4 on 10 locations of capacity 8: effectively
        // capacity 2 per location for this class.
        let p = profile(&[(8, 10)]);
        let class = ExperimentClass::simple("cdn", 2.0, 1.0).with_resources(4);
        let s = solve(&p, &Demand::capacity_filling(class)).unwrap();
        // 2 experiments of 10 locations each (l=2 ⇒ s_min=3 ≤ 10).
        assert_eq!(s.per_class[0].admitted, 2);
        assert_eq!(s.total_utility, 20.0);
    }

    #[test]
    fn mixed_resources_rejected() {
        let p = profile(&[(8, 10)]);
        let demand = Demand {
            components: vec![
                crate::experiment::DemandComponent {
                    class: ExperimentClass::simple("a", 0.0, 1.0),
                    volume: Volume::Count(1),
                },
                crate::experiment::DemandComponent {
                    class: ExperimentClass::simple("b", 0.0, 1.0).with_resources(2),
                    volume: Volume::Count(1),
                },
            ],
        };
        assert_eq!(solve(&p, &demand), Err(SolveError::MixedResourceClasses));
    }

    #[test]
    fn empty_profile_and_empty_demand() {
        let p = CapacityProfile::empty();
        let s = solve(&p, &single_class(10.0, Volume::Count(5))).unwrap();
        assert_eq!(s.total_utility, 0.0);
        let p2 = profile(&[(1, 10)]);
        let s2 = solve(&p2, &Demand { components: vec![] }).unwrap();
        assert_eq!(s2.total_utility, 0.0);
    }

    #[test]
    fn max_locations_cap_applies() {
        // CDN with l̄ = 5 on 10 locations: one experiment gets only 5.
        let p = profile(&[(1, 10)]);
        let class = ExperimentClass::simple("cdn", 2.0, 1.0).with_max_locations(5);
        let s = solve(&p, &Demand::one_experiment(class)).unwrap();
        assert_eq!(s.total_utility, 5.0);
        assert_eq!(s.per_class[0].sizes, vec![5]);
    }
}
