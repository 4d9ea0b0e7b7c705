//! Multi-class loss systems: the Kaufman–Roberts recursion.
//!
//! The paper's §6 names "a loss networks formulation … similar to
//! Paschalidis and Liu" as the natural dynamic extension of its static
//! model. The single-link kernel of that theory is the *stochastic
//! knapsack*: `C` resource units shared by `K` Poisson classes, class `k`
//! holding `b_k` units for an exponential holding time. The occupancy
//! distribution satisfies the Kaufman–Roberts recursion
//!
//! ```text
//! j·q(j) = Σ_k a_k · b_k · q(j − b_k)        (a_k = λ_k·t̄_k)
//! ```
//!
//! and class-`k` blocking is the tail mass `B_k = Σ_{j > C−b_k} q(j)`.
//! Complexity `O(C·K)` — exact, no simulation noise.

/// One traffic class of the stochastic knapsack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossClass {
    /// Poisson arrival rate λ.
    pub rate: f64,
    /// Mean holding time t̄.
    pub mean_holding: f64,
    /// Resource units held per admitted call (`b_k ≥ 1`).
    pub size: u64,
}

impl LossClass {
    /// Creates a class.
    ///
    /// # Panics
    /// Panics on non-positive rate/holding or zero size.
    pub fn new(rate: f64, mean_holding: f64, size: u64) -> LossClass {
        assert!(rate >= 0.0 && rate.is_finite());
        assert!(mean_holding > 0.0 && mean_holding.is_finite());
        assert!(size >= 1);
        LossClass {
            rate,
            mean_holding,
            size,
        }
    }

    /// Offered load `a = λ·t̄` in Erlang.
    pub fn offered_load(&self) -> f64 {
        self.rate * self.mean_holding
    }
}

/// Result of the Kaufman–Roberts analysis.
#[derive(Debug, Clone)]
pub struct LossAnalysis {
    /// Blocking probability per class.
    pub blocking: Vec<f64>,
    /// Occupancy distribution `q(j)`, `j ∈ 0..=C`.
    pub occupancy: Vec<f64>,
    /// Mean number of busy resource units.
    pub mean_occupancy: f64,
}

impl LossAnalysis {
    /// Long-run admitted throughput of class `k` (arrivals per time unit).
    pub fn throughput(&self, classes: &[LossClass], k: usize) -> f64 {
        classes[k].rate * (1.0 - self.blocking[k])
    }

    /// Long-run *value rate*: `Σ_k λ_k·(1 − B_k)·u_k` for per-admission
    /// utilities `u`.
    pub fn value_rate(&self, classes: &[LossClass], utilities: &[f64]) -> f64 {
        classes
            .iter()
            .zip(&self.blocking)
            .zip(utilities)
            .map(|((c, &b), &u)| c.rate * (1.0 - b) * u)
            .sum()
    }
}

/// Runs the Kaufman–Roberts recursion for `capacity` resource units.
#[expect(
    clippy::cast_possible_truncation,
    reason = "capacity and class sizes count resource units; the occupancy vector already needs capacity + 1 slots"
)]
pub fn kaufman_roberts(capacity: u64, classes: &[LossClass]) -> LossAnalysis {
    let c = capacity as usize;
    // Unnormalized occupancy: g(0) = 1; j·g(j) = Σ a_k b_k g(j − b_k).
    let mut g = vec![0.0f64; c + 1];
    g[0] = 1.0;
    for j in 1..=c {
        let mut total = 0.0;
        for class in classes {
            let b = class.size as usize;
            if b <= j {
                total += class.offered_load() * b as f64 * g[j - b];
            }
        }
        g[j] = total / j as f64;
    }
    let norm: f64 = g.iter().sum();
    let occupancy: Vec<f64> = g.iter().map(|&v| v / norm).collect();

    let blocking = classes
        .iter()
        .map(|class| {
            let b = class.size as usize;
            if b > c {
                1.0
            } else {
                occupancy[c + 1 - b..=c].iter().sum()
            }
        })
        .collect();
    let mean_occupancy = occupancy
        .iter()
        .enumerate()
        .map(|(j, &q)| j as f64 * q)
        .sum();
    LossAnalysis {
        blocking,
        occupancy,
        mean_occupancy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::erlang::erlang_b;

    #[test]
    fn single_unit_class_reduces_to_erlang_b() {
        for (a, c) in [(2.0, 4u64), (5.0, 5), (0.5, 10)] {
            let analysis = kaufman_roberts(c, &[LossClass::new(a, 1.0, 1)]);
            let expect = erlang_b(a, usize::try_from(c).unwrap());
            assert!(
                (analysis.blocking[0] - expect).abs() < 1e-12,
                "a={a} c={c}: {} vs {expect}",
                analysis.blocking[0]
            );
        }
    }

    #[test]
    fn occupancy_is_a_distribution() {
        let classes = [LossClass::new(1.0, 1.0, 1), LossClass::new(0.5, 2.0, 3)];
        let analysis = kaufman_roberts(12, &classes);
        let total: f64 = analysis.occupancy.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(analysis.occupancy.iter().all(|&q| q >= 0.0));
        assert!(analysis.mean_occupancy > 0.0 && analysis.mean_occupancy < 12.0);
    }

    #[test]
    fn bigger_calls_block_more() {
        let classes = [LossClass::new(1.0, 1.0, 1), LossClass::new(1.0, 1.0, 4)];
        let analysis = kaufman_roberts(10, &classes);
        assert!(analysis.blocking[1] > analysis.blocking[0]);
    }

    #[test]
    fn oversized_calls_always_block() {
        let analysis = kaufman_roberts(3, &[LossClass::new(1.0, 1.0, 5)]);
        assert!((analysis.blocking[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pooling_two_links_reduces_blocking() {
        // The federation story in loss-network form: one class split over
        // two C-unit links blocks more than the same total load on 2C.
        let half = [LossClass::new(2.0, 1.0, 2)];
        let full = [LossClass::new(4.0, 1.0, 2)];
        let separate = kaufman_roberts(10, &half).blocking[0];
        let pooled = kaufman_roberts(20, &full).blocking[0];
        assert!(pooled < separate);
    }

    #[test]
    fn value_rate_and_throughput() {
        let classes = [LossClass::new(2.0, 1.0, 1), LossClass::new(1.0, 1.0, 2)];
        let analysis = kaufman_roberts(6, &classes);
        let tp0 = analysis.throughput(&classes, 0);
        assert!(tp0 > 0.0 && tp0 <= 2.0);
        let vr = analysis.value_rate(&classes, &[10.0, 25.0]);
        let by_hand =
            2.0 * (1.0 - analysis.blocking[0]) * 10.0 + 1.0 * (1.0 - analysis.blocking[1]) * 25.0;
        assert!((vr - by_hand).abs() < 1e-12);
    }

    #[test]
    fn matches_des_simulation() {
        // Cross-validate against the event-driven simulator.
        use crate::rng::{Distribution, Exponential, SimRng};
        use crate::Simulator;
        let classes = [LossClass::new(1.5, 1.0, 1), LossClass::new(0.75, 1.0, 3)];
        let capacity = 8u64;
        let analytic = kaufman_roberts(capacity, &classes);

        let mut sim = Simulator::new();
        let mut rng = SimRng::seed_from(77);
        enum Ev {
            Arrival(usize),
            Departure(u64),
        }
        for (k, class) in classes.iter().enumerate() {
            let gap = Exponential::with_rate(class.rate);
            sim.try_schedule(gap.sample(&mut rng), Ev::Arrival(k))
                .expect("exponential gaps are finite");
        }
        let mut busy = 0u64;
        let mut arrivals = [0u64; 2];
        let mut blocked = [0u64; 2];
        while let Some((now, ev)) = sim.next_event() {
            if now > 40_000.0 {
                break;
            }
            match ev {
                Ev::Arrival(k) => {
                    let class = &classes[k];
                    arrivals[k] += 1;
                    if busy + class.size <= capacity {
                        busy += class.size;
                        let hold = Exponential::with_mean(class.mean_holding);
                        sim.try_schedule_at(now + hold.sample(&mut rng), Ev::Departure(class.size))
                            .expect("holding times are finite");
                    } else {
                        blocked[k] += 1;
                    }
                    let gap = Exponential::with_rate(class.rate);
                    sim.try_schedule_at(now + gap.sample(&mut rng), Ev::Arrival(k))
                        .expect("exponential gaps are finite");
                }
                Ev::Departure(size) => busy -= size,
            }
        }
        for k in 0..2 {
            let simulated = blocked[k] as f64 / arrivals[k] as f64;
            assert!(
                (simulated - analytic.blocking[k]).abs() < 0.015,
                "class {k}: sim {simulated} vs kr {}",
                analytic.blocking[k]
            );
        }
    }
}
