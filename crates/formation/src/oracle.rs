//! Memoizing coalition-value oracle with deterministic parallel batches.
//!
//! Merge/split rounds ask for many coalition values at once. The oracle
//! wraps any [`WideGame`] with a `BTreeMap` memo (keyed by the sorted
//! member list) behind an [`OrderedMutex`], and evaluates batches with
//! [`par_map`], which returns each query's value at its input position,
//! so the returned vector — and every decision made from it — is a pure
//! function of the queries, independent of thread count and scheduling.
//! Cache hit/miss *counters* are scheduling-dependent (two threads may
//! race to the same miss) and are therefore only ever reported through
//! observability, never folded into deterministic output.

use fedval_coalition::{par_map, PlayerId, WideGame};
use fedval_obs::lockorder::OrderedMutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Thread-safe memoizing view of a [`WideGame`].
pub struct ValueOracle<'g, G: WideGame + ?Sized> {
    game: &'g G,
    cache: OrderedMutex<BTreeMap<Vec<PlayerId>, f64>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<'g, G: WideGame + ?Sized> ValueOracle<'g, G> {
    /// Wraps `game` with an empty memo.
    pub fn new(game: &'g G) -> ValueOracle<'g, G> {
        ValueOracle {
            game,
            cache: OrderedMutex::new("form.value_cache", BTreeMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The wrapped game.
    pub fn game(&self) -> &'g G {
        self.game
    }

    /// Number of players in the wrapped game.
    pub fn n_players(&self) -> usize {
        self.game.n_players()
    }

    /// `V(S)` for the sorted member list `members`, memoized.
    pub fn value(&self, members: &[PlayerId]) -> f64 {
        if let Some(&v) = self.cache.lock().get(members) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            fedval_obs::counter_add("form.value.hit", 1);
            return v;
        }
        // Evaluate outside the lock: the characteristic function is pure,
        // so a racing duplicate evaluation returns the identical f64.
        let v = self.game.value_members(members);
        self.misses.fetch_add(1, Ordering::Relaxed);
        fedval_obs::counter_add("form.value.miss", 1);
        self.cache.lock().insert(members.to_vec(), v);
        v
    }

    /// Evaluates every query, returning values in **input order** — the
    /// deterministic contract — on up to `threads` workers through
    /// [`par_map`]. A query whose characteristic function panics re-raises
    /// that panic's own payload.
    pub fn eval_batch(&self, queries: &[Vec<PlayerId>], threads: usize) -> Vec<f64> {
        par_map(queries.len(), threads, |i| self.value(&queries[i]))
    }

    /// `(hits, misses)` so far. Scheduling-dependent under parallel
    /// batches — reporting only, never part of deterministic output.
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct SquareGame {
        n: usize,
    }

    impl WideGame for SquareGame {
        fn n_players(&self) -> usize {
            self.n
        }
        fn value_members(&self, members: &[PlayerId]) -> f64 {
            let s = members.len() as f64;
            s * s
        }
    }

    #[test]
    fn memoizes_repeat_queries() {
        let game = SquareGame { n: 8 };
        let oracle = ValueOracle::new(&game);
        assert_eq!(oracle.value(&[0, 1, 2]), 9.0);
        assert_eq!(oracle.value(&[0, 1, 2]), 9.0);
        let (hits, misses) = oracle.cache_stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn batches_are_input_ordered_at_any_thread_count() {
        let game = SquareGame { n: 16 };
        let queries: Vec<Vec<PlayerId>> = (0..40).map(|k| (0..(k % 7)).collect()).collect();
        let seq = ValueOracle::new(&game).eval_batch(&queries, 1);
        for threads in [2, 3, 8] {
            let par = ValueOracle::new(&game).eval_batch(&queries, threads);
            assert_eq!(seq, par);
        }
    }
}
