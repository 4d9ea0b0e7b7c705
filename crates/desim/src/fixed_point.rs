//! The Erlang fixed-point (reduced-load) approximation for loss
//! *networks* — many links, routes spanning several links.
//!
//! [`kaufman_roberts`](crate::kaufman_roberts) treats capacity as one
//! pooled knapsack; a federation is really a *network*: each location is
//! a link of capacity `C_ℓ`, and an experiment is a route occupying one
//! circuit on each of its locations. Exact analysis is exponential; the
//! classical Erlang fixed-point approximation (Kelly 1986) iterates
//!
//! ```text
//! B_ℓ = ErlangB( Σ_{routes r ∋ ℓ} a_r · Π_{k ∈ r, k ≠ ℓ} (1 − B_k),  C_ℓ )
//! ```
//!
//! until the per-link blocking probabilities converge; route blocking is
//! then `L_r = 1 − Π_{ℓ∈r}(1 − B_ℓ)`. The approximation is asymptotically
//! exact in the Kelly limiting regime and widely accurate in practice —
//! here it is cross-validated against the discrete-event simulator.

use crate::erlang::erlang_b;

/// One route: the links it uses and its offered load (Erlang).
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// Indices of the links (locations) the route occupies, one circuit
    /// each. Duplicate links are not allowed.
    pub links: Vec<usize>,
    /// Offered load `a = λ·t̄` of the route.
    pub offered_load: f64,
}

impl Route {
    /// Creates a route.
    ///
    /// # Panics
    /// Panics on an empty or duplicated link list, or negative load.
    pub fn new(links: Vec<usize>, offered_load: f64) -> Route {
        assert!(!links.is_empty(), "route must use at least one link");
        let mut sorted = links.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), links.len(), "duplicate links in route");
        assert!(offered_load >= 0.0 && offered_load.is_finite());
        Route {
            links,
            offered_load,
        }
    }
}

/// Result of the fixed-point computation.
#[derive(Debug, Clone)]
pub struct FixedPoint {
    /// Per-link blocking probabilities `B_ℓ`.
    pub link_blocking: Vec<f64>,
    /// Per-route end-to-end blocking `L_r = 1 − Π(1 − B_ℓ)`.
    pub route_blocking: Vec<f64>,
    /// Iterations until convergence.
    pub iterations: usize,
    /// Whether the iteration converged within the cap.
    pub converged: bool,
}

/// Runs the Erlang fixed-point iteration.
///
/// `capacities[ℓ]` is link ℓ's circuit count. Damped successive
/// substitution (factor ½) with tolerance `1e-10`, capped at 10 000
/// sweeps — the fixed point is unique for this monotone system (Kelly),
/// so convergence failure indicates pathological inputs.
///
/// # Panics
/// Panics if a route references a non-existent link.
pub fn erlang_fixed_point(capacities: &[u64], routes: &[Route]) -> FixedPoint {
    let n = capacities.len();
    for r in routes {
        assert!(
            r.links.iter().all(|&l| l < n),
            "route references unknown link"
        );
    }
    let mut blocking = vec![0.0f64; n];
    let mut iterations = 0;
    let mut converged = false;
    while iterations < 10_000 {
        iterations += 1;
        let mut max_delta = 0.0f64;
        for l in 0..n {
            // Reduced offered load at link l.
            let mut a = 0.0;
            for r in routes {
                if !r.links.contains(&l) {
                    continue;
                }
                let thinned: f64 = r
                    .links
                    .iter()
                    .filter(|&&k| k != l)
                    .map(|&k| 1.0 - blocking[k])
                    .product();
                a += r.offered_load * thinned;
            }
            #[expect(
                clippy::cast_possible_truncation,
                reason = "a link capacity counts servers, far below 2^32"
            )]
            let target = erlang_b(a, capacities[l] as usize);
            let next = 0.5 * blocking[l] + 0.5 * target;
            max_delta = max_delta.max((next - blocking[l]).abs());
            blocking[l] = next;
        }
        if max_delta < 1e-10 {
            converged = true;
            break;
        }
    }
    let route_blocking = routes
        .iter()
        .map(|r| {
            1.0 - r
                .links
                .iter()
                .map(|&l| 1.0 - blocking[l])
                .product::<f64>()
        })
        .collect();
    FixedPoint {
        link_blocking: blocking,
        route_blocking,
        iterations,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_link_reduces_to_erlang_b() {
        let fp = erlang_fixed_point(&[5], &[Route::new(vec![0], 3.0)]);
        assert!(fp.converged);
        assert!((fp.link_blocking[0] - erlang_b(3.0, 5)).abs() < 1e-8);
        assert!((fp.route_blocking[0] - fp.link_blocking[0]).abs() < 1e-12);
    }

    #[test]
    fn unloaded_links_never_block() {
        let fp = erlang_fixed_point(&[4, 4, 4], &[Route::new(vec![0], 1.0)]);
        assert!(fp.link_blocking[1] < 1e-12);
        assert!(fp.link_blocking[2] < 1e-12);
    }

    #[test]
    fn longer_routes_block_more() {
        // Same load, uniform links: a 3-link route sees ≈ 3× the blocking
        // of a 1-link route at small B.
        let routes = vec![
            Route::new(vec![0], 1.0),
            Route::new(vec![1, 2, 3], 1.0),
        ];
        let fp = erlang_fixed_point(&[3, 3, 3, 3], &routes);
        assert!(fp.route_blocking[1] > fp.route_blocking[0]);
    }

    #[test]
    fn shared_link_couples_routes() {
        // Two routes share link 0: loading route 1 raises route 0's
        // blocking even though route 0's own private link is idle.
        let light = erlang_fixed_point(
            &[2, 10],
            &[Route::new(vec![0, 1], 0.5), Route::new(vec![0], 0.01)],
        );
        let heavy = erlang_fixed_point(
            &[2, 10],
            &[Route::new(vec![0, 1], 0.5), Route::new(vec![0], 3.0)],
        );
        assert!(heavy.route_blocking[0] > light.route_blocking[0]);
    }

    #[test]
    fn matches_des_on_a_small_network() {
        // 3 links, 2 routes; cross-check against event-driven simulation.
        use crate::rng::{Distribution, Exponential, SimRng};
        use crate::Simulator;
        let capacities = [3u64, 4, 3];
        let routes = [
            Route::new(vec![0, 1], 1.2),
            Route::new(vec![1, 2], 1.5),
        ];
        let fp = erlang_fixed_point(&capacities, &routes);
        assert!(fp.converged);

        let mut sim = Simulator::new();
        let mut rng = SimRng::seed_from(4242);
        enum Ev {
            Arrival(usize),
            Departure(Vec<usize>),
        }
        for (k, r) in routes.iter().enumerate() {
            let gap = Exponential::with_rate(r.offered_load); // t̄ = 1
            sim.try_schedule(gap.sample(&mut rng), Ev::Arrival(k))
                .expect("exponential gaps are finite");
        }
        let mut free = capacities.to_vec();
        let mut arrivals = [0u64; 2];
        let mut blocked = [0u64; 2];
        let hold = Exponential::with_mean(1.0);
        while let Some((now, ev)) = sim.next_event() {
            if now > 60_000.0 {
                break;
            }
            match ev {
                Ev::Arrival(k) => {
                    arrivals[k] += 1;
                    let links = &routes[k].links;
                    if links.iter().all(|&l| free[l] > 0) {
                        for &l in links {
                            free[l] -= 1;
                        }
                        sim.try_schedule_at(
                            now + hold.sample(&mut rng),
                            Ev::Departure(links.clone()),
                        )
                        .expect("holding times are finite");
                    } else {
                        blocked[k] += 1;
                    }
                    let gap = Exponential::with_rate(routes[k].offered_load);
                    sim.try_schedule_at(now + gap.sample(&mut rng), Ev::Arrival(k))
                        .expect("exponential gaps are finite");
                }
                Ev::Departure(links) => {
                    for l in links {
                        free[l] += 1;
                    }
                }
            }
        }
        for k in 0..2 {
            let simulated = blocked[k] as f64 / arrivals[k] as f64;
            // The fixed point is an approximation: on a system this small
            // the known bias is a few percentage points (it vanishes in
            // the Kelly scaling regime — see the next test).
            assert!(
                (simulated - fp.route_blocking[k]).abs() < 0.04,
                "route {k}: sim {simulated} vs fixed point {}",
                fp.route_blocking[k]
            );
        }
    }

    #[test]
    fn kelly_scaling_shrinks_the_approximation_error() {
        // Scale capacities and loads together: the reduced-load
        // approximation becomes asymptotically exact, so the fixed-point
        // blocking should approach the (pooled-limit) simulated value.
        // Here we verify the *internal* consistency signature of the
        // regime: blocking decreases and the iteration still converges.
        let mut prev = 1.0;
        for scale in [1u64, 4, 16] {
            let fp = erlang_fixed_point(
                &[3 * scale, 4 * scale, 3 * scale],
                &[
                    Route::new(vec![0, 1], 1.2 * scale as f64),
                    Route::new(vec![1, 2], 1.5 * scale as f64),
                ],
            );
            assert!(fp.converged);
            assert!(
                fp.route_blocking[0] < prev + 1e-12,
                "blocking must fall with scale"
            );
            prev = fp.route_blocking[0];
        }
        assert!(prev < 0.1, "large systems barely block: {prev}");
    }

    #[test]
    fn federation_pooling_in_network_form() {
        // Two identical sub-networks vs the pooled network with doubled
        // link capacities: pooling cuts route blocking.
        let separate = erlang_fixed_point(&[3, 3], &[Route::new(vec![0, 1], 2.0)]);
        let pooled = erlang_fixed_point(&[6, 6], &[Route::new(vec![0, 1], 4.0)]);
        assert!(pooled.route_blocking[0] < separate.route_blocking[0]);
    }
}
