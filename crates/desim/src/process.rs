//! Arrival processes.

use crate::rng::{Distribution, Exponential, SimRng};

/// A homogeneous Poisson arrival process of rate λ.
///
/// Generates successive interarrival gaps; pair with
/// [`Simulator::try_schedule`](crate::Simulator::try_schedule) to drive workloads.
#[derive(Debug, Clone, Copy)]
pub struct PoissonProcess {
    interarrival: Exponential,
}

impl PoissonProcess {
    /// Process with arrival rate `lambda` (> 0).
    pub fn new(lambda: f64) -> PoissonProcess {
        PoissonProcess {
            interarrival: Exponential::with_rate(lambda),
        }
    }

    /// The arrival rate λ.
    pub fn rate(&self) -> f64 {
        1.0 / self.interarrival.mean()
    }

    /// Draws the gap until the next arrival.
    pub fn next_gap(&self, rng: &mut SimRng) -> f64 {
        self.interarrival.sample(rng)
    }

    /// Generates all arrival instants in `[0, horizon)`.
    pub fn arrivals_until(&self, horizon: f64, rng: &mut SimRng) -> Vec<f64> {
        let mut t = 0.0;
        let mut out = Vec::new();
        loop {
            t += self.next_gap(rng);
            if t >= horizon {
                return out;
            }
            out.push(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_count_matches_rate() {
        let p = PoissonProcess::new(2.5);
        let mut rng = SimRng::seed_from(21);
        let horizon = 20_000.0;
        let n = p.arrivals_until(horizon, &mut rng).len() as f64;
        let expected = 2.5 * horizon;
        // Within 3σ of the Poisson count (σ = sqrt(λT)).
        assert!((n - expected).abs() < 3.0 * expected.sqrt(), "n = {n}");
    }

    #[test]
    fn arrivals_are_increasing_and_within_horizon() {
        let p = PoissonProcess::new(1.0);
        let mut rng = SimRng::seed_from(22);
        let a = p.arrivals_until(100.0, &mut rng);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| t < 100.0));
    }

    #[test]
    fn rate_round_trips() {
        assert!((PoissonProcess::new(4.0).rate() - 4.0).abs() < 1e-12);
    }
}
