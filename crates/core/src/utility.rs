//! User utility functions (§2.3.1 of the paper).
//!
//! The paper's utility (eq. 1) is a *threshold-power* function of the
//! number of distinct locations `x` assigned to an experiment:
//!
//! ```text
//! u(x) = x^d   if x > l      (zero below the diversity threshold l)
//!        0     otherwise
//! ```
//!
//! `d < 1` is concave (diminishing returns), `d = 1` linear, `d > 1`
//! convex. The threshold is **strict** (`x > l`, as printed in eq. 1):
//! this is the convention that exactly reproduces the paper's §4.1 worked
//! example (ϕ̂₂ = 2/13 requires `V({1,2}) = 0` at `l = 500` with
//! `L₁+L₂ = 500`). See EXPERIMENTS.md for the full derivation.

use serde::{Deserialize, Serialize};

/// A utility function over the number of distinct locations assigned.
pub trait Utility {
    /// Utility of being assigned `x` distinct locations.
    fn eval(&self, x: f64) -> f64;

    /// The diversity threshold below (or at) which utility is zero;
    /// `0.0` for threshold-free utilities.
    fn threshold(&self) -> f64 {
        0.0
    }
}

/// The paper's eq. (1): `u(x) = x^d · 1{x > l}`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThresholdPower {
    /// Diversity threshold `l` (strict: utility is zero unless `x > l`).
    pub threshold: f64,
    /// Shape exponent `d` (see Fig. 2: 0.8 concave, 1 linear, 1.2 convex).
    pub shape: f64,
}

impl ThresholdPower {
    /// Creates `u(x) = x^d · 1{x > l}`.
    ///
    /// # Panics
    /// Panics if `l < 0` or `d ≤ 0` or either is non-finite.
    pub fn new(threshold: f64, shape: f64) -> ThresholdPower {
        assert!(threshold.is_finite() && threshold >= 0.0);
        assert!(shape.is_finite() && shape > 0.0);
        ThresholdPower { threshold, shape }
    }

    /// Linear utility with a threshold: `u(x) = x · 1{x > l}`.
    pub fn linear(threshold: f64) -> ThresholdPower {
        ThresholdPower::new(threshold, 1.0)
    }

    /// The smallest *integer* number of locations with positive utility:
    /// `min { x ∈ ℕ : x > l }`, or `u64::MAX` when `l ≥ 2⁶⁴ − 1` (no
    /// location count clears such a threshold).
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "the threshold is asserted finite and non-negative in new(); `as` saturates"
    )]
    pub fn min_admissible(&self) -> u64 {
        (self.threshold.floor() as u64).saturating_add(1)
    }
}

impl Utility for ThresholdPower {
    fn eval(&self, x: f64) -> f64 {
        if x > self.threshold {
            x.powf(self.shape)
        } else {
            0.0
        }
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_is_strict() {
        let u = ThresholdPower::linear(50.0);
        assert_eq!(u.eval(50.0), 0.0);
        assert_eq!(u.eval(50.5), 50.5);
        assert_eq!(u.eval(49.0), 0.0);
    }

    #[test]
    fn fig2_shapes() {
        // Fig. 2: l = 50, d ∈ {0.8, 1, 1.2}; at x = 300 the curves order
        // convex > linear > concave, all zero at/below 50.
        let concave = ThresholdPower::new(50.0, 0.8);
        let linear = ThresholdPower::new(50.0, 1.0);
        let convex = ThresholdPower::new(50.0, 1.2);
        for u in [&concave, &linear, &convex] {
            assert_eq!(u.eval(50.0), 0.0);
            assert!(u.eval(51.0) > 0.0);
        }
        assert!(convex.eval(300.0) > linear.eval(300.0));
        assert!(linear.eval(300.0) > concave.eval(300.0));
        assert!((linear.eval(300.0) - 300.0).abs() < 1e-12);
    }

    #[test]
    fn min_admissible_integer_sizes() {
        assert_eq!(ThresholdPower::linear(0.0).min_admissible(), 1);
        assert_eq!(ThresholdPower::linear(50.0).min_admissible(), 51);
        assert_eq!(ThresholdPower::linear(50.5).min_admissible(), 51);
        assert_eq!(ThresholdPower::linear(499.999).min_admissible(), 500);
        assert_eq!(ThresholdPower::linear(500.0).min_admissible(), 501);
        // Past u64::MAX the cast saturates and the + 1 must too.
        assert_eq!(ThresholdPower::linear(1e30).min_admissible(), u64::MAX);
    }

    #[test]
    fn monotone_above_threshold() {
        let u = ThresholdPower::new(10.0, 0.8);
        let mut prev = 0.0;
        for x in 11..100 {
            let v = u.eval(x as f64);
            assert!(v > prev);
            prev = v;
        }
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_shape() {
        let _ = ThresholdPower::new(1.0, 0.0);
    }
}
