//! The Shapley value (eq. 4 of the paper) — exact, from a filled
//! coalition table. The sampled estimators for games past the exact cap
//! live in [`approx`](crate::approx).
//!
//! The Shapley value of player `i` is the expected marginal contribution of
//! `i` over a uniformly random ordering of the players:
//!
//! ```text
//! ϕᵢ(N, V) = Σ_{S ⊆ N∖{i}}  |S|!·(n−|S|−1)!/n! · [V(S ∪ {i}) − V(S)]
//! ```
//!
//! The paper uses ϕ and its normalization ϕ̂ᵢ = ϕᵢ / V(N) (eq. 5) as the
//! profit-sharing weights `sᵢ`.

use crate::coalition::{Coalition, PlayerId};
use crate::game::{TableGame, WideGame};

/// Exact Shapley values of all players, read from `table`: each player's
/// weighted marginals summed over the `2^(n−1)` coalitions without it,
/// in subset order. Fill the table with [`TableGame::try_from_walk`]
/// (every coalition evaluated once, on as many threads as asked); the
/// sums are the same bits at any fill thread count.
pub fn shapley(table: &TableGame) -> Vec<f64> {
    let _span = fedval_obs::span_with("coalition.shapley.exact", || {
        format!("n={}", table.n_players())
    });
    player_sums(table)
}

/// The sums behind [`shapley`], without its span — for callers that open
/// `coalition.shapley.exact` around the fill as well.
pub(crate) fn player_sums(table: &TableGame) -> Vec<f64> {
    let n = table.n_players();
    if n == 0 {
        return Vec::new();
    }
    let weights = subset_weights(n);
    (0..n).map(|i| player_sum(table, &weights, i)).collect()
}

/// Player `i`'s subset sum `Σ_{S ⊆ N∖{i}} w(|S|)·[V(S ∪ {i}) − V(S)]`
/// over the filled table, with `weights` from [`subset_weights`].
fn player_sum(table: &TableGame, weights: &[f64], i: PlayerId) -> f64 {
    let others = Coalition::grand(table.n_players()).without(i);
    let mut phi = 0.0;
    for s in others.subsets() {
        phi += weights[s.len()] * table.marginal(i, s);
    }
    phi
}

/// Normalized Shapley values ϕ̂ᵢ = ϕᵢ / V(N) (eq. 5 of the paper).
///
/// Returns all zeros when `V(N) = 0` (an inessential federation generates no
/// value to share).
pub fn shapley_normalized(table: &TableGame) -> Vec<f64> {
    normalize(shapley(table), table.grand_value())
}

/// Divides each of `phi` by `total`, the one share-normalization rule
/// (ϕ̂ᵢ = ϕᵢ / V(N), eq. 5): all zeros when `|total| < 1e-12`, since a
/// valueless federation has nothing to share.
pub fn normalize(phi: Vec<f64>, total: f64) -> Vec<f64> {
    if total.abs() < 1e-12 {
        vec![0.0; phi.len()]
    } else {
        phi.into_iter().map(|v| v / total).collect()
    }
}

/// Weight `w[s] = s!·(n−1−s)!/n! = 1/(n·C(n−1,s))` for each predecessor-set
/// size `s ∈ 0..n`: `1 / (n · C(n−1, s))` stays in `f64` range for any
/// `n ≤ 64`.
fn subset_weights(n: usize) -> Vec<f64> {
    assert!(n >= 1);
    let mut w = Vec::with_capacity(n);
    // C(n−1, s) built incrementally: C(n−1,0)=1; C(n−1,s+1)=C·(n−1−s)/(s+1).
    let mut binom = 1.0f64;
    for s in 0..n {
        w.push(1.0 / (n as f64 * binom));
        binom *= (n - 1 - s) as f64 / (s + 1) as f64;
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::tests::table_of;
    use crate::game::FnGame;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn weights_sum_over_subsets_to_one() {
        // Σ_{S⊆N∖i} w(|S|) = Σ_s C(n−1,s)·w(s) = 1 for any n.
        for n in 1..=10 {
            let w = subset_weights(n);
            let mut total = 0.0;
            let mut binom = 1.0f64;
            #[expect(
                clippy::needless_range_loop,
                reason = "the loop reads w[s] beside the running binomial C(n-1, s)"
            )]
            for s in 0..n {
                total += binom * w[s];
                binom *= (n - 1 - s) as f64 / (s + 1) as f64;
            }
            assert_close(total, 1.0, 1e-12);
        }
    }

    #[test]
    fn additive_game_gives_singleton_values() {
        // V(S) = Σ_{i∈S} aᵢ ⟹ ϕᵢ = aᵢ.
        let a = [3.0, 5.0, 7.0, 11.0];
        let g = FnGame::new(4, move |c: Coalition| {
            c.players().map(|p| a[p]).sum::<f64>()
        });
        let phi = shapley(&table_of(&g));
        for (i, &ai) in a.iter().enumerate() {
            assert_close(phi[i], ai, 1e-12);
        }
    }

    #[test]
    fn symmetric_players_get_equal_shares() {
        let g = FnGame::new(5, |c: Coalition| (c.len() as f64).powi(2));
        let phi = shapley(&table_of(&g));
        for i in 1..5 {
            assert_close(phi[i], phi[0], 1e-12);
        }
        assert_close(phi.iter().sum::<f64>(), 25.0, 1e-9); // efficiency
    }

    #[test]
    fn glove_game_three_players() {
        // Players {0} left glove, {1, 2} right gloves; a pair is worth 1.
        // Known Shapley: ϕ_left = 2/3, ϕ_right = 1/6 each.
        let g = FnGame::new(3, |c: Coalition| {
            let left = c.contains(0) as usize;
            let right = c.contains(1) as usize + c.contains(2) as usize;
            left.min(right) as f64
        });
        let phi = shapley(&table_of(&g));
        assert_close(phi[0], 2.0 / 3.0, 1e-12);
        assert_close(phi[1], 1.0 / 6.0, 1e-12);
        assert_close(phi[2], 1.0 / 6.0, 1e-12);
    }

    #[test]
    fn paper_worked_example_threshold_500() {
        // §4.1: L = (100, 400, 800), l = 500, single experiment, d = 1.
        // Eq. (1) uses a *strict* threshold (u = x^d iff x > l), so
        // V({1})=0, V({2})=0, V({3})=800, V({1,2})=0 (500 ≯ 500),
        // V({1,3})=900, V({2,3})=1200, V(N)=1300 — which reproduces the
        // paper's ϕ̂₂ = 2/13 exactly. (The paper's in-text "V({1,2})=500,
        // V({2,3})=1300" list is inconsistent with its own 2/13; see
        // EXPERIMENTS.md.)
        let l_contrib = [100.0, 400.0, 800.0];
        let g = FnGame::new(3, move |c: Coalition| {
            let total: f64 = c.players().map(|p| l_contrib[p]).sum();
            if total > 500.0 {
                total
            } else {
                0.0
            }
        });
        let phi_hat = shapley_normalized(&table_of(&g));
        assert_close(phi_hat[1], 2.0 / 13.0, 1e-12);
        assert_close(phi_hat.iter().sum::<f64>(), 1.0, 1e-12);
    }

    #[test]
    fn efficiency_axiom_on_random_table() {
        let mut g = table_of(&FnGame::new(6, |c: Coalition| {
            // Deterministic pseudo-random values.
            let x = c.0.wrapping_mul(0x9E3779B97F4A7C15);
            (x >> 40) as f64 / 1e3
        }));
        // Force V(∅)=0 for the axiom.
        g.set(Coalition::EMPTY, 0.0);
        let phi = shapley(&g);
        assert_close(phi.iter().sum::<f64>(), g.grand_value(), 1e-9);
    }

    /// Answers `value_members` only (so the fill takes the default walk)
    /// and counts every call.
    struct CountingGame {
        n: usize,
        calls: std::sync::atomic::AtomicUsize,
    }

    impl WideGame for CountingGame {
        fn n_players(&self) -> usize {
            self.n
        }
        fn value_members(&self, members: &[PlayerId]) -> f64 {
            self.calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let mask: u64 = members.iter().map(|&p| 1u64 << p).sum();
            if mask == 0 {
                0.0
            } else {
                (mask.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as f64 / 1e3
            }
        }
    }

    /// The walk fill evaluates each of the `2^n` coalitions exactly once
    /// at every thread count (n = 10 is four walk blocks), and exact
    /// Shapley on it has the per-coalition table's bits.
    #[test]
    fn exact_shapley_evaluates_each_coalition_once() {
        use std::sync::atomic::Ordering;
        let n = 10;
        let game = CountingGame {
            n,
            calls: Default::default(),
        };
        let reference =
            TableGame::from_values(n, Coalition::all(n).map(|c| game.value(c)).collect());
        let want: Vec<u64> = shapley(&reference).iter().map(|v| v.to_bits()).collect();
        for threads in [1, 2, 3, 8] {
            game.calls.store(0, Ordering::Relaxed);
            let table = TableGame::try_from_walk(&game, threads).expect("10 players");
            assert_eq!(
                game.calls.load(Ordering::Relaxed),
                1 << n,
                "threads={threads}"
            );
            let got: Vec<u64> = shapley(&table).iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn normalization_handles_zero_grand_value() {
        let g = FnGame::new(3, |_| 0.0);
        assert_eq!(shapley_normalized(&table_of(&g)), vec![0.0; 3]);
    }
}
