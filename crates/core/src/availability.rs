//! Availability (`Tᵢ`, §2.1): facilities that are not always up.
//!
//! The paper's model gives each facility an availability `Tᵢ ∈ (0, 1]` —
//! "the resources of each facility could be made available only for a
//! subset of time" — and then fixes `Tᵢ = 1` for the analysis. We
//! implement the general case: treating facility up-times as independent,
//! the *expected* value of coalition `S` is
//!
//! ```text
//! V_T(S) = Σ_{A ⊆ S}  Π_{i∈A} Tᵢ · Π_{j∈S∖A} (1 − Tⱼ) · V(A)
//! ```
//!
//! [`AvailabilityGame`] wraps any base game with this expectation. One
//! evaluation costs `O(2^|S|)` base evaluations, so materializing a full
//! table costs `O(3^n)` — fine for the paper's federation sizes. If the
//! base game's characteristic function is expensive, materialize it first
//! with [`TableGame::try_from_walk`](fedval_coalition::TableGame::try_from_walk).

use fedval_coalition::{Coalition, PlayerId, WideGame};
use std::fmt;

/// Why an availability vector was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum AvailabilityError {
    /// The vector length differs from the base game's player count.
    LengthMismatch {
        /// Players in the base game.
        expected: usize,
        /// Entries in the availability vector.
        actual: usize,
    },
    /// An availability value lies outside `(0, 1]` (or is NaN).
    OutOfRange {
        /// Index of the offending player.
        index: usize,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for AvailabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AvailabilityError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "availability vector has {actual} entries for {expected} players"
                )
            }
            AvailabilityError::OutOfRange { index, value } => {
                write!(f, "availability[{index}] = {value} is outside (0, 1]")
            }
        }
    }
}

impl std::error::Error for AvailabilityError {}

/// Expectation of a base game over independent facility availability.
pub struct AvailabilityGame<G> {
    base: G,
    availability: Vec<f64>,
}

impl<G: WideGame> AvailabilityGame<G> {
    /// Wraps `base` with per-player availabilities.
    ///
    /// # Errors
    /// [`AvailabilityError::LengthMismatch`] when the vector length differs
    /// from the base game's player count; [`AvailabilityError::OutOfRange`]
    /// when any value is NaN or outside `(0, 1]`.
    pub fn try_new(
        base: G,
        availability: Vec<f64>,
    ) -> Result<AvailabilityGame<G>, AvailabilityError> {
        if availability.len() != base.n_players() {
            return Err(AvailabilityError::LengthMismatch {
                expected: base.n_players(),
                actual: availability.len(),
            });
        }
        if let Some((index, &value)) = availability
            .iter()
            .enumerate()
            .find(|&(_, &t)| !(t > 0.0 && t <= 1.0))
        {
            return Err(AvailabilityError::OutOfRange { index, value });
        }
        Ok(AvailabilityGame { base, availability })
    }

    /// The wrapped base game.
    pub fn base(&self) -> &G {
        &self.base
    }

    /// The availability vector.
    pub fn availability(&self) -> &[f64] {
        &self.availability
    }
}

impl<G: WideGame> WideGame for AvailabilityGame<G> {
    fn n_players(&self) -> usize {
        self.base.n_players()
    }

    fn value_members(&self, members: &[PlayerId]) -> f64 {
        let coalition = Coalition::from_players(members.iter().copied());
        let mut expected = 0.0;
        for up in coalition.subsets() {
            let mut prob = 1.0;
            for p in coalition.players() {
                prob *= if up.contains(p) {
                    self.availability[p]
                } else {
                    1.0 - self.availability[p]
                };
            }
            if prob > 0.0 {
                expected += prob * self.base.value(up);
            }
        }
        expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedval_coalition::{shapley_normalized, FnGame, TableGame};

    fn threshold_game() -> FnGame<impl Fn(Coalition) -> f64 + Sync> {
        let contrib = [100.0, 400.0, 800.0];
        FnGame::new(3, move |c: Coalition| {
            let total: f64 = c.players().map(|p| contrib[p]).sum();
            if total > 500.0 {
                total
            } else {
                0.0
            }
        })
    }

    #[test]
    fn full_availability_recovers_base_game() {
        let g = AvailabilityGame::try_new(threshold_game(), vec![1.0; 3]).expect("valid");
        for c in Coalition::all(3) {
            assert!((g.value(c) - g.base().value(c)).abs() < 1e-12);
        }
    }

    #[test]
    fn single_player_expectation() {
        // V({i}) scales by Tᵢ for an additive base game.
        let base = FnGame::new(2, |c: Coalition| {
            c.players().map(|p| (p + 1) as f64 * 10.0).sum::<f64>()
        });
        let g = AvailabilityGame::try_new(base, vec![0.5, 0.25]).expect("valid");
        assert!((g.value(Coalition::singleton(0)) - 5.0).abs() < 1e-12);
        assert!((g.value(Coalition::singleton(1)) - 5.0).abs() < 1e-12);
        // Independence: E[V({0,1})] = 0.5·10 + 0.25·20.
        assert!((g.grand_value() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn expectation_is_hand_checkable_on_threshold_game() {
        // S = {2,3} with T = (·, 0.5, 0.5): states
        //   both up (.25): V = 1200; only 3 up (.25): V = 800; else 0.
        let g = AvailabilityGame::try_new(threshold_game(), vec![1.0, 0.5, 0.5]).expect("valid");
        let v = g.value(Coalition::from_players([1, 2]));
        assert!((v - (0.25 * 1200.0 + 0.25 * 800.0)).abs() < 1e-12);
    }

    #[test]
    fn unreliable_facilities_lose_shapley_share() {
        // Note: making facility 3 flaky just rescales this particular game
        // (every positive coalition contains 3), leaving normalized shares
        // unchanged — so the interesting case is a flaky facility 2.
        // Hand-computed: V_T({2,3}) = 1000, V_T(N) = 1100 ⇒
        // ϕ₂ = (200 + 200 + 200)/6 = 100 ⇒ ϕ̂₂ = 1/11 < 2/13.
        let table = |availability| {
            let game = AvailabilityGame::try_new(threshold_game(), availability).expect("valid");
            TableGame::try_from_walk(&game, 1).expect("3 players")
        };
        let reliable = table(vec![1.0, 1.0, 1.0]);
        let flaky2 = table(vec![1.0, 0.5, 1.0]);
        let phi_reliable = shapley_normalized(&reliable);
        let phi_flaky = shapley_normalized(&flaky2);
        assert!((phi_flaky[1] - 1.0 / 11.0).abs() < 1e-12);
        assert!(
            phi_flaky[1] < phi_reliable[1],
            "flaky facility 2: {phi_flaky:?} vs {phi_reliable:?}"
        );
        // Shares remain a probability vector.
        assert!((phi_flaky.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn availability_lowers_every_coalition_value_of_monotone_games() {
        let g = AvailabilityGame::try_new(threshold_game(), vec![0.9, 0.8, 0.7]).expect("valid");
        for c in Coalition::all(3) {
            assert!(g.value(c) <= g.base().value(c) + 1e-12);
        }
    }

    #[test]
    fn rejects_zero_availability() {
        assert!(matches!(
            AvailabilityGame::try_new(threshold_game(), vec![1.0, 1.0, 0.0]),
            Err(AvailabilityError::OutOfRange { .. })
        ));
    }

    #[test]
    fn try_new_reports_bad_vectors_without_panicking() {
        assert_eq!(
            AvailabilityGame::try_new(threshold_game(), vec![1.0, 1.0, 0.0]).err(),
            Some(AvailabilityError::OutOfRange {
                index: 2,
                value: 0.0
            })
        );
        assert_eq!(
            AvailabilityGame::try_new(threshold_game(), vec![1.0]).err(),
            Some(AvailabilityError::LengthMismatch {
                expected: 3,
                actual: 1
            })
        );
        // NaN is rejected too (it fails the open-interval check).
        assert!(matches!(
            AvailabilityGame::try_new(threshold_game(), vec![1.0, f64::NAN, 1.0]),
            Err(AvailabilityError::OutOfRange { index: 1, .. })
        ));
        assert!(AvailabilityGame::try_new(threshold_game(), vec![0.5, 1.0, 0.1]).is_ok());
    }
}
