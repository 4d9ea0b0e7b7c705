//! The Shapley value (eq. 4 of the paper) — exact and parallel. The
//! sampled estimators for games past the exact cap live in
//! [`approx`](crate::approx).
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
use crate::game::{TableGame, WideGame};
use std::sync::atomic::{AtomicU64, Ordering};

/// Exact Shapley value of a single player, by the subset-sum formula.
///
/// Runs in `O(2^(n−1))` evaluations of the characteristic function. The
/// combinatorial weight `|S|!·(n−1−|S|)!/n!` is computed as
/// `1 / (n · C(n−1, |S|))`, which stays in `f64` range for any `n ≤ 64`.
///
/// # Panics
/// Panics when `i ≥ n`; [`try_shapley_player`] reports that as a typed
/// error instead.
pub fn shapley_player<G: WideGame + ?Sized>(game: &G, i: PlayerId) -> f64 {
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
pub fn try_shapley_player<G: WideGame + ?Sized>(game: &G, i: PlayerId) -> Result<f64, GameError> {
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

/// Exact Shapley values of all players: [`shapley_parallel`] on one
/// thread, with the same bits.
///
/// Evaluates the characteristic function once per coalition (`2^n`
/// calls) into a dense table of `2^n` `f64` values — 512 KiB at
/// [`EXACT_SHAPLEY_MAX_PLAYERS`](crate::EXACT_SHAPLEY_MAX_PLAYERS) — and
/// then sums each player's weighted marginals from the table.
pub fn shapley<G: WideGame + ?Sized>(game: &G) -> Vec<f64> {
    let _span = fedval_obs::span_with("coalition.shapley.exact", || {
        format!("n={}", game.n_players())
    });
    exact_shapley(game, 1)
}

/// Exact Shapley values of all players, evaluating the game on up to
/// `threads` threads.
///
/// Every coalition is evaluated exactly once: the calling thread and
/// `threads − 1` crossbeam scoped workers fill one dense table of `2^n`
/// `f64` values (512 KiB at
/// [`EXACT_SHAPLEY_MAX_PLAYERS`](crate::EXACT_SHAPLEY_MAX_PLAYERS)), each
/// walking a contiguous range of Gray-code ranks through
/// [`WideGame::value_walk`] so consecutive coalitions differ by one
/// player. The calling thread then runs each player's subset sum —
/// [`shapley_player`] on the table — so every ϕᵢ has the same bits as
/// [`shapley`]. The characteristic function must be `Sync`, which
/// [`WideGame`] requires.
///
/// Records the same `coalition.shapley.exact` span as [`shapley`] (with
/// `threads=` in its detail), so a trace names the solution concept, not
/// the thread count it ran at.
pub fn shapley_parallel<G: WideGame + ?Sized>(game: &G, threads: usize) -> Vec<f64> {
    let n = game.n_players();
    let threads = threads.clamp(1, n.max(1));
    let _span = fedval_obs::span_with("coalition.shapley.exact", || {
        format!("n={n} threads={threads}")
    });
    exact_shapley(game, threads)
}

/// Gray-code ranks per [`WideGame::value_walk`] call while filling the
/// exact table: bounds each call's toggle and value vectors, at the cost
/// of re-entering the block's first coalition once per block.
const WALK_BLOCK: usize = 256;

/// The exact pass behind [`shapley`] and [`shapley_parallel`]
/// (`1 ≤ threads ≤ n`): fill the table, then sum per player.
fn exact_shapley<G: WideGame + ?Sized>(game: &G, threads: usize) -> Vec<f64> {
    let n = game.n_players();
    if n == 0 {
        return Vec::new();
    }
    let table = coalition_table(game, threads);
    (0..n).map(|i| shapley_player(&table, i)).collect()
}

/// `V(S)` of every coalition `S ⊆ N`, indexed by mask: the Gray-code
/// ranks `0..2^n` split into `threads` contiguous ranges, the first
/// walked on the calling thread and each other on a scoped worker.
fn coalition_table<G: WideGame + ?Sized>(game: &G, threads: usize) -> TableGame {
    let n = game.n_players();
    let size = 1usize << n;
    let slots: Vec<AtomicU64> = (0..size).map(|_| AtomicU64::new(0)).collect();
    let per = size.div_ceil(threads);
    let walk = |lo: usize| walk_ranks(game, &slots, lo, (lo + per).min(size));
    let walk = &walk;
    let outcome = crossbeam::thread::scope(|scope| {
        for lo in (per..size).step_by(per) {
            scope.spawn(move |_| walk(lo));
        }
        walk(0);
    });
    if let Err(payload) = outcome {
        // A worker panicked (characteristic function blew up): propagate
        // the original panic rather than masking it with a new one.
        std::panic::resume_unwind(payload);
    }
    let values = slots
        .into_iter()
        .map(|bits| f64::from_bits(bits.into_inner()))
        .collect();
    TableGame::from_values(n, values)
}

/// Stores `V` of the coalitions at Gray-code ranks `lo..hi` (rank `r` is
/// mask `r ⊕ (r ≫ 1)`) into their slots, in blocks of [`WALK_BLOCK`]:
/// rank `r` differs from rank `r − 1` in player `trailing_zeros(r)`
/// alone, so a block is one `value_walk` from the coalition just before
/// it. Ranges of different callers are disjoint, so every slot is
/// written once. `Relaxed` suffices: a slot publishes only its own
/// value, and joining the workers orders every store before the table is
/// read.
fn walk_ranks<G: WideGame + ?Sized>(game: &G, slots: &[AtomicU64], lo: usize, hi: usize) {
    let gray = |rank: usize| rank ^ (rank >> 1);
    let mut rank = lo;
    if rank == 0 {
        slots[0].store(game.value_members(&[]).to_bits(), Ordering::Relaxed);
        rank = 1;
    }
    while rank < hi {
        let end = (rank + WALK_BLOCK).min(hi);
        let start: Vec<PlayerId> = Coalition(gray(rank - 1) as u64).players().collect();
        let toggles: Vec<PlayerId> = (rank..end)
            .map(|r| r.trailing_zeros() as PlayerId)
            .collect();
        for (r, v) in (rank..end).zip(game.value_walk(&start, &toggles)) {
            slots[gray(r)].store(v.to_bits(), Ordering::Relaxed);
        }
        rank = end;
    }
}

/// Normalized Shapley values ϕ̂ᵢ = ϕᵢ / V(N) (eq. 5 of the paper).
///
/// Returns all zeros when `V(N) = 0` (an inessential federation generates no
/// value to share).
pub fn shapley_normalized<G: WideGame + ?Sized>(game: &G) -> Vec<f64> {
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

    /// Answers `value_members` only (so the exact pass takes the default
    /// walk) and counts every call.
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

    #[test]
    fn exact_shapley_evaluates_each_coalition_once() {
        use std::sync::atomic::Ordering;
        let n = 10;
        let game = CountingGame {
            n,
            calls: Default::default(),
        };
        let want: Vec<u64> = shapley(&TableGame::from_game(&game))
            .iter()
            .map(|v| v.to_bits())
            .collect();
        for threads in [1, 2, 3, 8] {
            game.calls.store(0, Ordering::Relaxed);
            let sequential = shapley(&game);
            assert_eq!(game.calls.load(Ordering::Relaxed), 1 << n, "shapley");
            game.calls.store(0, Ordering::Relaxed);
            let parallel = shapley_parallel(&game, threads);
            assert_eq!(
                game.calls.load(Ordering::Relaxed),
                1 << n,
                "threads={threads}"
            );
            for phi in [sequential, parallel] {
                let got: Vec<u64> = phi.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "threads={threads}");
            }
        }
    }

    #[test]
    fn normalization_handles_zero_grand_value() {
        let g = FnGame::new(3, |_| 0.0);
        assert_eq!(shapley_normalized(&g), vec![0.0; 3]);
    }
}
