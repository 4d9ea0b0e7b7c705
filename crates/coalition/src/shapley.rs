//! The Shapley value (eq. 4 of the paper) — exact, parallel, and
//! Monte-Carlo estimators.
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
use crate::error::GameError;
use crate::game::CoalitionalGame;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Exact Shapley value of a single player, by the subset-sum formula.
///
/// Runs in `O(2^(n−1))` evaluations of the characteristic function. The
/// combinatorial weight `|S|!·(n−1−|S|)!/n!` is computed as
/// `1 / (n · C(n−1, |S|))`, which stays in `f64` range for any `n ≤ 64`.
///
/// # Panics
/// Panics when `i ≥ n`; [`try_shapley_player`] reports that as a typed
/// error instead.
pub fn shapley_player<G: CoalitionalGame>(game: &G, i: PlayerId) -> f64 {
    match try_shapley_player(game, i) {
        Ok(phi) => phi,
        // lint: allow(no-panic-path) — documented legacy wrapper; fallible
        // callers use try_shapley_player.
        Err(e) => panic!("shapley_player: {e}"),
    }
}

/// Exact Shapley value of a single player, reporting a bad player index as
/// [`GameError::PlayerOutOfRange`] instead of panicking.
///
/// # Errors
/// [`GameError::PlayerOutOfRange`] when `i ≥ n` (including the `n = 0`
/// case, where every index is out of range).
pub fn try_shapley_player<G: CoalitionalGame>(game: &G, i: PlayerId) -> Result<f64, GameError> {
    let n = game.n_players();
    if i >= n {
        return Err(GameError::PlayerOutOfRange { player: i, n });
    }
    let weights = subset_weights(n);
    let others = Coalition::grand(n).without(i);
    let mut phi = 0.0;
    for s in others.subsets() {
        phi += weights[s.len()] * game.marginal(i, s);
    }
    Ok(phi)
}

/// Exact Shapley values of all players (sequential).
pub fn shapley<G: CoalitionalGame>(game: &G) -> Vec<f64> {
    let _span = fedval_obs::span_with("coalition.shapley.exact", || {
        format!("n={}", game.n_players())
    });
    (0..game.n_players())
        .map(|i| shapley_player(game, i))
        .collect()
}

/// Exact Shapley values of all players, with the per-player sums computed
/// on a crossbeam scoped-thread pool.
///
/// Worth it when `n` is large enough that `2^n` characteristic-function
/// evaluations dominate, or when the characteristic function itself is
/// expensive (allocation optimizer, simulation). The characteristic
/// function must be `Sync`, which [`CoalitionalGame`] requires.
///
/// Records the same `coalition.shapley.exact` span as [`shapley`] (with
/// `threads=` in its detail), so a trace names the solution concept, not
/// the thread count it ran at.
pub fn shapley_parallel<G: CoalitionalGame>(game: &G, threads: usize) -> Vec<f64> {
    let n = game.n_players();
    let threads = threads.clamp(1, n.max(1));
    let _span = fedval_obs::span_with("coalition.shapley.exact", || {
        format!("n={n} threads={threads}")
    });
    let mut phi = vec![0.0; n];
    let outcome = crossbeam::thread::scope(|scope| {
        let chunks: Vec<&mut [f64]> = phi.chunks_mut(n.div_ceil(threads)).collect();
        let mut start = 0usize;
        for chunk in chunks {
            let len = chunk.len();
            let base = start;
            scope.spawn(move |_| {
                for (k, slot) in chunk.iter_mut().enumerate() {
                    *slot = shapley_player(game, base + k);
                }
            });
            start += len;
        }
    });
    if let Err(payload) = outcome {
        // A worker panicked (characteristic function blew up): propagate
        // the original panic rather than masking it with a new one.
        std::panic::resume_unwind(payload);
    }
    phi
}

/// Result of the Monte-Carlo permutation estimator.
#[derive(Debug, Clone)]
pub struct MonteCarloShapley {
    /// Estimated Shapley value per player.
    pub phi: Vec<f64>,
    /// Standard error of the estimate per player.
    pub std_error: Vec<f64>,
    /// Number of sampled permutations.
    pub samples: usize,
}

/// Monte-Carlo Shapley estimator: samples `samples` uniform player
/// orderings and averages marginal contributions (the random-order
/// interpretation of eq. 4).
///
/// Each sampled permutation costs `n` characteristic-function evaluations,
/// so the total cost is `samples · n` — this is the estimator to use when
/// `2^n` is out of reach. The estimate is unbiased; `std_error` is the
/// per-player sample standard deviation divided by `√samples`.
///
/// # Panics
/// Panics on an empty game or a zero sample budget;
/// [`try_shapley_monte_carlo`] reports both as typed errors instead.
pub fn shapley_monte_carlo<G: CoalitionalGame>(
    game: &G,
    samples: usize,
    seed: u64,
) -> MonteCarloShapley {
    match try_shapley_monte_carlo(game, samples, seed) {
        Ok(mc) => mc,
        // lint: allow(no-panic-path) — documented legacy wrapper; fallible
        // callers use try_shapley_monte_carlo.
        Err(e) => panic!("shapley_monte_carlo: {e}"),
    }
}

/// Monte-Carlo Shapley estimator with typed input validation — the entry
/// point for request-driven callers (a malformed serve request must never
/// panic a worker).
///
/// # Errors
/// [`GameError::NoPlayers`] for an empty game, [`GameError::NoSamples`]
/// when `samples == 0`.
pub fn try_shapley_monte_carlo<G: CoalitionalGame>(
    game: &G,
    samples: usize,
    seed: u64,
) -> Result<MonteCarloShapley, GameError> {
    let n = game.n_players();
    if n == 0 {
        return Err(GameError::NoPlayers);
    }
    if samples == 0 {
        return Err(GameError::NoSamples {
            solver: "shapley_monte_carlo",
        });
    }
    let _span = fedval_obs::span_with("coalition.shapley.monte_carlo", || {
        format!("n={n} samples={samples} seed={seed}")
    });
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<PlayerId> = (0..n).collect();
    let mut sum = vec![0.0; n];
    let mut sum_sq = vec![0.0; n];
    for _ in 0..samples {
        order.shuffle(&mut rng);
        let mut s = Coalition::EMPTY;
        let mut prev = game.value(s);
        for &p in &order {
            s = s.with(p);
            let cur = game.value(s);
            let delta = cur - prev;
            sum[p] += delta;
            sum_sq[p] += delta * delta;
            prev = cur;
        }
    }
    let m = samples as f64;
    let phi: Vec<f64> = sum.iter().map(|s| s / m).collect();
    let std_error: Vec<f64> = (0..n)
        .map(|p| {
            if samples < 2 {
                f64::INFINITY
            } else {
                let var = (sum_sq[p] - sum[p] * sum[p] / m) / (m - 1.0);
                (var.max(0.0) / m).sqrt()
            }
        })
        .collect();
    Ok(MonteCarloShapley {
        phi,
        std_error,
        samples,
    })
}

/// Normalized Shapley values ϕ̂ᵢ = ϕᵢ / V(N) (eq. 5 of the paper).
///
/// Returns all zeros when `V(N) = 0` (an inessential federation generates no
/// value to share).
pub fn shapley_normalized<G: CoalitionalGame>(game: &G) -> Vec<f64> {
    normalize(shapley(game), game.grand_value())
}

pub(crate) fn normalize(phi: Vec<f64>, total: f64) -> Vec<f64> {
    if total.abs() < 1e-12 {
        vec![0.0; phi.len()]
    } else {
        phi.into_iter().map(|v| v / total).collect()
    }
}

/// Weight `w[s] = s!·(n−1−s)!/n! = 1/(n·C(n−1,s))` for each predecessor-set
/// size `s ∈ 0..n`.
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
    use crate::game::{FnGame, TableGame};

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
            #[allow(clippy::needless_range_loop)]
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
        let phi = shapley(&g);
        for (i, &ai) in a.iter().enumerate() {
            assert_close(phi[i], ai, 1e-12);
        }
    }

    #[test]
    fn symmetric_players_get_equal_shares() {
        let g = FnGame::new(5, |c: Coalition| (c.len() as f64).powi(2));
        let phi = shapley(&g);
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
        let phi = shapley(&g);
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
        let phi_hat = shapley_normalized(&g);
        assert_close(phi_hat[1], 2.0 / 13.0, 1e-12);
        assert_close(phi_hat.iter().sum::<f64>(), 1.0, 1e-12);
    }

    #[test]
    fn efficiency_axiom_on_random_table() {
        let g = TableGame::from_fn(6, |c| {
            // Deterministic pseudo-random values.
            let x = c.0.wrapping_mul(0x9E3779B97F4A7C15);
            (x >> 40) as f64 / 1e3
        });
        // Force V(∅)=0 for the axiom.
        let mut g = g;
        g.set(Coalition::EMPTY, 0.0);
        let phi = shapley(&g);
        assert_close(phi.iter().sum::<f64>(), g.grand_value(), 1e-9);
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = TableGame::from_fn(8, |c| (c.len() as f64).sqrt() * c.0 as f64 % 17.0);
        let seq = shapley(&g);
        for threads in [1, 2, 3, 8, 64] {
            let par = shapley_parallel(&g, threads);
            for i in 0..8 {
                assert_close(par[i], seq[i], 1e-12);
            }
        }
    }

    #[test]
    fn monte_carlo_converges_to_exact() {
        let g = FnGame::new(6, |c: Coalition| {
            let s: f64 = c.players().map(|p| (p + 1) as f64).sum();
            if s >= 8.0 {
                s * s
            } else {
                0.0
            }
        });
        let exact = shapley(&g);
        let mc = shapley_monte_carlo(&g, 20_000, 42);
        #[allow(clippy::needless_range_loop)]
        for i in 0..6 {
            // Within 5 standard errors (overwhelmingly likely).
            let tol = 5.0 * mc.std_error[i] + 1e-9;
            assert_close(mc.phi[i], exact[i], tol);
        }
        // Efficiency holds exactly per-permutation, hence in the average.
        assert_close(mc.phi.iter().sum::<f64>(), g.grand_value(), 1e-9);
    }

    #[test]
    fn monte_carlo_is_deterministic_per_seed() {
        let g = FnGame::new(4, |c: Coalition| c.len() as f64);
        let a = shapley_monte_carlo(&g, 100, 7);
        let b = shapley_monte_carlo(&g, 100, 7);
        assert_eq!(a.phi, b.phi);
    }

    #[test]
    fn normalization_handles_zero_grand_value() {
        let g = FnGame::new(3, |_| 0.0);
        assert_eq!(shapley_normalized(&g), vec![0.0; 3]);
    }
}
