//! The bankruptcy game of O'Neill (1982) and the Talmud rule of
//! Aumann & Maschler (1985).

use crate::coalition::PlayerId;
use crate::game::WideGame;

/// Bankruptcy game: an estate `E` must be divided among creditors with
/// claims `d`. A coalition is guaranteed what the others cannot take:
/// `V(S) = max(0, E − Σ_{j∉S} dⱼ)`.
///
/// Aumann & Maschler proved its nucleolus equals the Talmud division
/// ([`talmud_rule`]), which makes this family the canonical oracle for
/// nucleolus implementations.
#[derive(Debug, Clone)]
pub struct BankruptcyGame {
    estate: f64,
    claims: Vec<f64>,
}

impl BankruptcyGame {
    /// Creates the game.
    ///
    /// # Panics
    /// Panics if claims are empty/negative or the estate is negative or
    /// exceeds the total claims (then it is not a bankruptcy problem).
    pub fn new(estate: f64, claims: Vec<f64>) -> BankruptcyGame {
        assert!(!claims.is_empty());
        assert!(claims.iter().all(|c| c.is_finite() && *c >= 0.0));
        let total: f64 = claims.iter().sum();
        assert!(
            (0.0..=total).contains(&estate),
            "estate must lie in [0, total claims]"
        );
        BankruptcyGame { estate, claims }
    }

    /// The estate being divided.
    pub fn estate(&self) -> f64 {
        self.estate
    }

    /// The creditors' claims.
    pub fn claims(&self) -> &[f64] {
        &self.claims
    }
}

impl WideGame for BankruptcyGame {
    fn n_players(&self) -> usize {
        self.claims.len()
    }

    fn value_members(&self, members: &[PlayerId]) -> f64 {
        let outside: f64 = (0..self.claims.len())
            .filter(|j| members.binary_search(j).is_err())
            .map(|j| self.claims[j])
            .sum();
        (self.estate - outside).max(0.0)
    }
}

/// The Talmud (contested-garment-consistent) division of `estate` among
/// `claims`.
///
/// If the estate is at most half the total claims, each creditor receives
/// `min(dᵢ/2, λ)` with λ chosen to exhaust the estate ("constrained equal
/// awards on half-claims"); otherwise each receives
/// `dᵢ − min(dᵢ/2, λ)` ("constrained equal losses on half-claims").
pub fn talmud_rule(estate: f64, claims: &[f64]) -> Vec<f64> {
    let total: f64 = claims.iter().sum();
    assert!((0.0..=total).contains(&estate));
    let halves: Vec<f64> = claims.iter().map(|d| d / 2.0).collect();
    if estate <= total / 2.0 {
        let lambda = solve_cea(&halves, estate);
        halves.iter().map(|&h| h.min(lambda)).collect()
    } else {
        let losses = total - estate; // losses divided by CEA on half-claims
        let lambda = solve_cea(&halves, losses);
        claims
            .iter()
            .zip(&halves)
            .map(|(&d, &h)| d - h.min(lambda))
            .collect()
    }
}

/// Finds λ with `Σ min(capᵢ, λ) = amount` (constrained equal awards).
fn solve_cea(caps: &[f64], amount: f64) -> f64 {
    debug_assert!(amount <= caps.iter().sum::<f64>() + 1e-9);
    let mut lo = 0.0f64;
    let mut hi = caps.iter().cloned().fold(0.0, f64::max).max(amount);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        let served: f64 = caps.iter().map(|&c| c.min(mid)).sum();
        if served < amount {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalition::Coalition;
    use crate::properties::{is_convex, is_superadditive};

    fn assert_vec_close(a: &[f64], b: &[f64], tol: f64) {
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} != {b:?}");
        }
    }

    #[test]
    fn talmud_classic_cases() {
        let d = [100.0, 200.0, 300.0];
        assert_vec_close(&talmud_rule(100.0, &d), &[100.0 / 3.0; 3], 1e-9);
        assert_vec_close(&talmud_rule(200.0, &d), &[50.0, 75.0, 75.0], 1e-9);
        assert_vec_close(&talmud_rule(300.0, &d), &[50.0, 100.0, 150.0], 1e-9);
    }

    #[test]
    fn talmud_contested_garment_two_claimants() {
        // Mishnah: claims (50, 100) on estate 100 → (25, 75).
        assert_vec_close(&talmud_rule(100.0, &[50.0, 100.0]), &[25.0, 75.0], 1e-9);
    }

    #[test]
    fn talmud_awards_sum_to_estate() {
        let d = [10.0, 35.0, 80.0, 125.0];
        for estate in [0.0, 40.0, 125.0, 200.0, 250.0] {
            let award = talmud_rule(estate, &d);
            let total: f64 = award.iter().sum();
            assert!((total - estate).abs() < 1e-6, "estate {estate}");
            for (a, dd) in award.iter().zip(&d) {
                assert!(*a >= -1e-9 && *a <= dd + 1e-9);
            }
        }
    }

    #[test]
    fn bankruptcy_game_values() {
        let g = BankruptcyGame::new(200.0, vec![100.0, 200.0, 300.0]);
        assert_eq!(g.value(Coalition::EMPTY), 0.0);
        assert_eq!(g.value(Coalition::singleton(0)), 0.0); // 200−500 < 0
        assert_eq!(g.value(Coalition::from_players([1, 2])), 100.0); // 200−100
        assert_eq!(g.grand_value(), 200.0);
    }

    #[test]
    fn bankruptcy_game_is_convex() {
        let g = BankruptcyGame::new(250.0, vec![100.0, 200.0, 300.0]);
        assert!(is_convex(&g, 1e-9));
        assert!(is_superadditive(&g, 1e-9));
    }

    #[test]
    fn nucleolus_equals_talmud_on_fresh_case() {
        // A case not used by the nucleolus module's own tests.
        let claims = vec![60.0, 90.0, 150.0];
        let estate = 120.0;
        let g = BankruptcyGame::new(estate, claims.clone());
        let nuc = crate::nucleolus::nucleolus(&g);
        let talmud = talmud_rule(estate, &claims);
        assert_vec_close(&nuc, &talmud, 1e-5);
    }
}
