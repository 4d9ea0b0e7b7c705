//! Structural properties of coalitional games: superadditivity, convexity,
//! monotonicity, essentiality.
//!
//! §3.2.1 of the paper ties these properties to the existence of the core
//! of the federation game: superadditivity and convexity "depend
//! significantly on the utility function assumed" — specifically on the
//! diversity threshold `l`, the shape `d`, and the holding times. The
//! checks here are used by tests and by the policy reports to certify those
//! claims on concrete instances.

use crate::coalition::Coalition;
use crate::game::WideGame;

/// Whether `V(S ∪ T) ≥ V(S) + V(T)` for all disjoint `S, T`.
///
/// Enumerates all disjoint pairs in `O(3^n)`; practical for `n ≤ ~13`.
pub fn is_superadditive<G: WideGame>(game: &G, tol: f64) -> bool {
    let n = game.n_players();
    for s in Coalition::all(n) {
        let complement = s.complement(n);
        let vs = game.value(s);
        for t in complement.subsets() {
            if t.is_empty() {
                continue;
            }
            if game.value(s.union(t)) < vs + game.value(t) - tol {
                return false;
            }
        }
    }
    true
}

/// Whether the game is convex (supermodular):
/// `V(S∪{i}) − V(S) ≤ V(T∪{i}) − V(T)` whenever `S ⊆ T ⊆ N∖{i}`.
///
/// Uses the equivalent local condition — for all `S` and all `i ≠ j ∉ S`:
/// `V(S∪{i,j}) + V(S) ≥ V(S∪{i}) + V(S∪{j})` — giving `O(n²·2^n)`.
pub fn is_convex<G: WideGame>(game: &G, tol: f64) -> bool {
    let n = game.n_players();
    for s in Coalition::all(n) {
        let outside: Vec<usize> = s.complement(n).players().collect();
        let vs = game.value(s);
        for (a, &i) in outside.iter().enumerate() {
            let v_si = game.value(s.with(i));
            for &j in &outside[a + 1..] {
                let v_sj = game.value(s.with(j));
                let v_sij = game.value(s.with(i).with(j));
                if v_sij + vs < v_si + v_sj - tol {
                    return false;
                }
            }
        }
    }
    true
}

/// Whether `V` is monotone: `S ⊆ T ⟹ V(S) ≤ V(T)`.
///
/// Uses the equivalent one-player-at-a-time condition in `O(n·2^n)`.
pub fn is_monotone<G: WideGame>(game: &G, tol: f64) -> bool {
    let n = game.n_players();
    for s in Coalition::all(n) {
        let vs = game.value(s);
        for i in s.complement(n).players() {
            if game.value(s.with(i)) < vs - tol {
                return false;
            }
        }
    }
    true
}

/// Whether the game is essential: `V(N) > Σᵢ V({i})` — cooperation creates
/// strictly positive surplus, the precondition for federation to be
/// "meaningful" in the paper's §2 sense.
pub fn is_essential<G: WideGame>(game: &G, tol: f64) -> bool {
    let n = game.n_players();
    let singles: f64 = (0..n).map(|i| game.value(Coalition::singleton(i))).sum();
    game.grand_value() > singles + tol
}

/// Summary of all property checks, convenient for reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GameProperties {
    /// See [`is_superadditive`].
    pub superadditive: bool,
    /// See [`is_convex`].
    pub convex: bool,
    /// See [`is_monotone`].
    pub monotone: bool,
    /// See [`is_essential`].
    pub essential: bool,
}

/// Runs every property check with tolerance `tol`.
pub fn analyze<G: WideGame>(game: &G, tol: f64) -> GameProperties {
    GameProperties {
        superadditive: is_superadditive(game, tol),
        convex: is_convex(game, tol),
        monotone: is_monotone(game, tol),
        essential: is_essential(game, tol),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::FnGame;

    #[test]
    fn convex_game_is_superadditive() {
        // V(S) = |S|² is the canonical convex game.
        let g = FnGame::new(5, |c: Coalition| (c.len() as f64).powi(2));
        let p = analyze(&g, 1e-9);
        assert!(p.convex && p.superadditive && p.monotone && p.essential);
    }

    #[test]
    fn concave_game_is_not_convex() {
        let g = FnGame::new(4, |c: Coalition| (c.len() as f64).sqrt());
        assert!(!is_convex(&g, 1e-9));
        // √ is subadditive, hence not superadditive (and not essential).
        assert!(!is_superadditive(&g, 1e-9));
        assert!(!is_essential(&g, 1e-9));
        assert!(is_monotone(&g, 1e-9));
    }

    #[test]
    fn paper_threshold_game_superadditive_not_convex_at_mid_threshold() {
        // l = 450, L = (100,400,800): V({1,2}) = 500 but marginals are not
        // monotone in coalition size everywhere ⇒ superadditive yet not
        // convex (Δ₁({2}) = 500 > Δ₁({2,3}) = 100).
        let l_contrib = [100.0, 400.0, 800.0];
        let g = FnGame::new(3, move |c: Coalition| {
            let total: f64 = c.players().map(|p| l_contrib[p]).sum();
            if total > 450.0 {
                total
            } else {
                0.0
            }
        });
        assert!(is_superadditive(&g, 1e-9));
        assert!(!is_convex(&g, 1e-9));
        assert!(is_monotone(&g, 1e-9));
        assert!(is_essential(&g, 1e-9));
    }

    #[test]
    fn paper_claim_convex_utility_gives_convex_game() {
        // §3.2.1 footnote: "when d > 1 the core always exists" — the
        // threshold-free game with convex utility is convex.
        let l_contrib = [100.0, 400.0, 800.0];
        let g = FnGame::new(3, move |c: Coalition| {
            let total: f64 = c.players().map(|p| l_contrib[p]).sum();
            total.powf(1.5)
        });
        assert!(is_convex(&g, 1e-6));
        assert!(is_superadditive(&g, 1e-6));
    }

    #[test]
    fn non_monotone_game_detected() {
        // Adding player 2 destroys value.
        let g = FnGame::new(
            3,
            |c: Coalition| {
                if c.contains(2) {
                    0.0
                } else {
                    c.len() as f64
                }
            },
        );
        assert!(!is_monotone(&g, 1e-9));
    }

    #[test]
    fn additive_game_is_weakly_everything_but_essential() {
        let g = FnGame::new(3, |c: Coalition| c.len() as f64);
        assert!(is_superadditive(&g, 1e-9));
        assert!(is_convex(&g, 1e-9));
        assert!(is_monotone(&g, 1e-9));
        assert!(!is_essential(&g, 1e-9)); // no surplus beyond singletons
    }
}
