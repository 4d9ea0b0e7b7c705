//! Game representations: the [`WideGame`] trait, dense tables, and
//! memoizing wrappers.

use crate::coalition::{Coalition, PlayerId};
use crate::error::GameError;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use fedval_obs::OrderedMutex;
use std::sync::Condvar;

/// A transferable-utility coalitional game `(N, V)`.
///
/// Implementors provide the number of players and the characteristic
/// function `V : 2^N → ℝ` over **member slices**, so a game is not bounded
/// by the 64-bit [`Coalition`] bitset. Callers always pass ids in strictly
/// increasing order with no duplicates, and the empty slice denotes ∅. The
/// characteristic function must be pure (same members, same value), and
/// the convention `V(∅) = 0` is assumed by every solution concept in this
/// crate; [`check_zero_normalized_empty`] can be used in tests to validate
/// custom implementations.
///
/// The exact solution concepts enumerate bitset coalitions through
/// [`WideGame::value`], whose default lists the members and calls
/// [`WideGame::value_members`]. A game with a cheaper route by mask
/// ([`TableGame`], [`CachedGame`], [`FnGame`]) overrides it, and the
/// override must return the same bits as `value_members` on the same
/// members. [`WideGame::grand_value`] and [`WideGame::value_walk`] stay
/// on the member path, so a game past 64 players never builds a bitset.
///
/// Implementations should be cheap to call repeatedly — the exact solution
/// concepts evaluate `value` up to `O(2^n)` times. Expensive characteristic
/// functions (e.g. ones that run an allocation optimizer or a simulation)
/// should be wrapped in a [`CachedGame`] or materialized into a
/// [`TableGame`] via [`TableGame::from_game`].
pub trait WideGame: Sync {
    /// Number of players `n = |N|`; members range over `0..n`.
    fn n_players(&self) -> usize;

    /// Value `V(S)` of the coalition whose members are `members`
    /// (strictly increasing, no duplicates).
    fn value_members(&self, members: &[PlayerId]) -> f64;

    /// The characteristic function `V(S)` on a bitset coalition
    /// (`n ≤ 64`) — the exact solvers' fast path.
    fn value(&self, coalition: Coalition) -> f64 {
        let members: Vec<PlayerId> = coalition.players().collect();
        self.value_members(&members)
    }

    /// Value of the grand coalition `V(N)`.
    fn grand_value(&self) -> f64 {
        let members: Vec<PlayerId> = (0..self.n_players()).collect();
        self.value_members(&members)
    }

    /// Marginal contribution of player `i` to coalition `S` (with `i ∉ S`):
    /// `Δᵢ(V, S) = V(S ∪ {i}) − V(S)`.
    fn marginal(&self, i: PlayerId, coalition: Coalition) -> f64 {
        debug_assert!(!coalition.contains(i));
        self.value(coalition.with(i)) - self.value(coalition)
    }

    /// Values along a walk through coalitions: element `k` is
    /// `value_members` of `start` (strictly increasing) after each of
    /// `toggles[..=k]` has been toggled — an outsider joins, a member
    /// leaves. Toggles may repeat, so players leave and rejoin; the value
    /// of `start` itself is not part of the result. Exact Shapley fills
    /// its coalition table by walking Gray-code blocks through this hook,
    /// and the permutation estimator walks each sampled ordering through
    /// [`WideGame::value_prefixes`], its add-only case.
    ///
    /// The default keeps a sorted member list and calls
    /// [`WideGame::value_members`] at every step. A game whose value of
    /// `S ± p` can be built from that of `S` overrides it, and the
    /// override must return the same bits as the default: exact shares
    /// and seeded estimates are byte-identical whichever path a game
    /// takes.
    fn value_walk(&self, start: &[PlayerId], toggles: &[PlayerId]) -> Vec<f64> {
        let mut members = start.to_vec();
        toggles
            .iter()
            .map(|&p| {
                match members.binary_search(&p) {
                    Ok(pos) => {
                        members.remove(pos);
                    }
                    Err(pos) => members.insert(pos, p),
                }
                self.value_members(&members)
            })
            .collect()
    }

    /// Values of every prefix of `order` (distinct ids, any order):
    /// element `k` is `value_members` of `order[..=k]` sorted ascending —
    /// [`WideGame::value_walk`] from `∅`, where every toggle is a join.
    /// Games override `value_walk`, not this.
    fn value_prefixes(&self, order: &[PlayerId]) -> Vec<f64> {
        self.value_walk(&[], order)
    }
}

/// Asserts `V(∅) = 0` (within `tol`); helper for tests of custom games.
pub fn check_zero_normalized_empty<G: WideGame>(game: &G, tol: f64) -> bool {
    game.value(Coalition::EMPTY).abs() <= tol
}

/// A game materialized as a dense table of `2^n` values.
///
/// This is the workhorse representation: exact solution concepts touch every
/// coalition anyway, so paying `O(2^n)` space makes each lookup one array
/// access. Practical for `n ≤ ~25`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableGame {
    n: usize,
    values: Vec<f64>,
}

impl TableGame {
    /// Largest player count a dense table supports: `2^25` f64 values is
    /// 256 MiB; anything bigger must stay lazy (see [`CachedGame`]).
    pub const MAX_PLAYERS: usize = 25;

    /// Builds a table game by evaluating `f` on every coalition.
    ///
    /// # Errors
    /// [`GameError::TooManyPlayers`] when `n > TableGame::MAX_PLAYERS` —
    /// materialize lazily with [`CachedGame`] instead.
    pub fn try_from_fn(n: usize, f: impl Fn(Coalition) -> f64) -> Result<TableGame, GameError> {
        if n > TableGame::MAX_PLAYERS {
            return Err(GameError::TooManyPlayers {
                n,
                max: TableGame::MAX_PLAYERS,
                solver: "table_game",
            });
        }
        let values = Coalition::all(n)
            .map(|c| {
                // One span per coalition evaluation: with the scenario
                // characteristic function each of these is one LP solve,
                // which is exactly the per-coalition cost the trace exists
                // to expose.
                let _eval = fedval_obs::span_with("coalition.game.eval", || format!("mask={}", c.0));
                f(c)
            })
            .collect();
        Ok(TableGame { n, values })
    }

    /// Materializes any [`WideGame`] into a dense table.
    ///
    /// # Errors
    /// [`GameError::TooManyPlayers`] when the game exceeds
    /// [`TableGame::MAX_PLAYERS`].
    pub fn try_from_game<G: WideGame>(game: &G) -> Result<TableGame, GameError> {
        TableGame::try_from_fn(game.n_players(), |c| game.value(c))
    }

    /// Builds a table game by evaluating `f` on every coalition.
    ///
    /// # Panics
    /// Panics where [`TableGame::try_from_fn`] would return an error
    /// (`n > TableGame::MAX_PLAYERS`).
    pub fn from_fn(n: usize, f: impl Fn(Coalition) -> f64) -> TableGame {
        match TableGame::try_from_fn(n, f) {
            Ok(table) => table,
            #[expect(
                clippy::panic,
                reason = "documented `# Panics` convenience wrapper for the paper's small scenarios; fallible callers use try_from_fn"
            )]
            Err(e) => panic!("TableGame::from_fn: {e}"),
        }
    }

    /// Materializes any [`WideGame`] into a dense table.
    ///
    /// # Panics
    /// Panics where [`TableGame::try_from_game`] would return an error.
    pub fn from_game<G: WideGame>(game: &G) -> TableGame {
        match TableGame::try_from_game(game) {
            Ok(table) => table,
            #[expect(
                clippy::panic,
                reason = "documented `# Panics` convenience wrapper mirroring from_fn"
            )]
            Err(e) => panic!("TableGame::from_game: {e}"),
        }
    }

    /// Builds directly from a value vector indexed by coalition mask.
    ///
    /// # Panics
    /// Panics if `values.len() != 2^n`.
    pub fn from_values(n: usize, values: Vec<f64>) -> TableGame {
        assert_eq!(values.len(), 1usize << n, "need exactly 2^n values");
        TableGame { n, values }
    }

    /// Immutable access to the raw table (indexed by `Coalition::index`).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Sets `V(S)`.
    pub fn set(&mut self, coalition: Coalition, value: f64) {
        self.values[coalition.index()] = value;
    }

    /// The zero-normalized version of this game:
    /// `V₀(S) = V(S) − Σ_{i∈S} V({i})`.
    pub fn zero_normalized(&self) -> TableGame {
        let singles: Vec<f64> = (0..self.n)
            .map(|i| self.values[Coalition::singleton(i).index()])
            .collect();
        TableGame::from_fn(self.n, |c| {
            self.values[c.index()] - c.players().map(|p| singles[p]).sum::<f64>()
        })
    }
}

impl WideGame for TableGame {
    fn n_players(&self) -> usize {
        self.n
    }

    fn value_members(&self, members: &[PlayerId]) -> f64 {
        self.value(Coalition::from_players(members.iter().copied()))
    }

    fn value(&self, coalition: Coalition) -> f64 {
        self.values[coalition.index()]
    }
}

/// One memo-table entry: a finished value, or a marker that some thread is
/// currently evaluating this coalition (single-flight).
enum Slot {
    /// The characteristic function finished; the value is cached.
    Ready(f64),
    /// A thread is evaluating this coalition right now; wait, don't re-run.
    Pending,
}

/// Memoizing wrapper for games with expensive characteristic functions
/// (allocation optimizers, simulations).
///
/// Thread-safe *and single-flight*: concurrent solution-concept code (e.g.
/// the parallel Shapley pass or the sweep engine) may share one
/// `CachedGame` across threads, and concurrent misses on the *same*
/// coalition run the inner evaluation exactly once — the losers of the
/// race block on a condvar until the winner publishes, instead of
/// silently re-running an expensive LP solve. Misses on *different*
/// coalitions still evaluate in parallel (the inner call runs outside the
/// map lock).
///
/// Counters: `coalition.cache.hits` / `coalition.cache.misses` count
/// served-from-cache vs evaluated-by-this-call; `coalition.cache.duplicate_evals`
/// counts races where a second thread missed on an in-flight coalition —
/// each of those was a duplicated inner evaluation before the fix, and is
/// a blocked wait after it.
///
/// The memo table is a `BTreeMap` keyed by coalition mask: iteration (and
/// any future snapshot/export of the cache) visits coalitions in ascending
/// mask order, so nothing downstream can ever observe hash-seed-dependent
/// ordering (`HashMap` is banned workspace-wide by `clippy.toml`).
pub struct CachedGame<G> {
    inner: G,
    /// An [`OrderedMutex`] so every test run validates the workspace
    /// lock-acquisition order dynamically (DESIGN.md §12). Poison
    /// recovery lives inside the wrapper: the map only ever holds
    /// coherent Ready/Pending entries (a panicking inner evaluation
    /// cleans its sentinel up via `EvalGuard` before the lock drops).
    cache: OrderedMutex<BTreeMap<u64, Slot>>,
    ready: Condvar,
}

impl<G: WideGame> CachedGame<G> {
    /// Wraps `inner` with an empty cache.
    pub fn new(inner: G) -> CachedGame<G> {
        CachedGame {
            inner,
            cache: OrderedMutex::new("coalition.cache", BTreeMap::new()),
            ready: Condvar::new(),
        }
    }

    /// Number of memoized (finished) coalition values.
    pub fn cached_len(&self) -> usize {
        self.cache
            .lock()
            .values()
            .filter(|slot| matches!(slot, Slot::Ready(_)))
            .count()
    }

    /// Consumes the wrapper, returning the inner game.
    pub fn into_inner(self) -> G {
        self.inner
    }

    /// Evaluates **every** coalition of the game, populating the memo
    /// table so later callers always hit. `threads > 1` shards the
    /// `2^n` evaluations across scoped workers; the single-flight
    /// machinery already makes concurrent misses safe, so workers need
    /// no extra coordination. Returns the number of coalitions cached
    /// afterwards (always `2^n`).
    ///
    /// This is the warm-up path of long-lived services (`fedval-serve`
    /// pre-warms its scenario cache at startup so the first client
    /// request is as fast as the millionth).
    pub fn prewarm(&self, threads: usize) -> usize {
        let n = self.inner.n_players();
        let total: u64 = if n >= 64 { u64::MAX } else { (1u64 << n) - 1 };
        let threads = threads.max(1).min(n.max(1) * 8);
        let _span = fedval_obs::span_with("coalition.cache.prewarm", || {
            format!("n={n} threads={threads}")
        });
        if threads == 1 {
            for c in Coalition::all(n) {
                let _ = self.value(c);
            }
        } else {
            std::thread::scope(|scope| {
                for t in 0..threads {
                    scope.spawn(move || {
                        // Strided sharding: worker t evaluates masks
                        // t, t+threads, t+2·threads, …
                        let mut mask = t as u64;
                        while mask <= total {
                            let _ = self.value(Coalition(mask));
                            match mask.checked_add(threads as u64) {
                                Some(next) => mask = next,
                                None => break,
                            }
                        }
                    });
                }
            });
        }
        self.cached_len()
    }

}

/// Removes the `Pending` sentinel if the inner evaluation unwinds before
/// publishing, and wakes waiters either way — a blocked thread then finds
/// the slot empty and retries the evaluation itself rather than hanging.
struct EvalGuard<'a, G: WideGame> {
    game: &'a CachedGame<G>,
    key: u64,
}

impl<G: WideGame> Drop for EvalGuard<'_, G> {
    fn drop(&mut self) {
        let mut cache = self.game.cache.lock();
        if matches!(cache.get(&self.key), Some(Slot::Pending)) {
            cache.remove(&self.key);
        }
        drop(cache);
        self.game.ready.notify_all();
    }
}

impl<G: WideGame> WideGame for CachedGame<G> {
    fn n_players(&self) -> usize {
        self.inner.n_players()
    }

    fn value_members(&self, members: &[PlayerId]) -> f64 {
        self.value(Coalition::from_players(members.iter().copied()))
    }

    /// The memo lookup, keyed by mask; a miss evaluates the inner game's
    /// own [`WideGame::value`].
    fn value(&self, coalition: Coalition) -> f64 {
        let key = coalition.0;
        {
            let mut cache = self.cache.lock();
            let mut raced = false;
            loop {
                match cache.get(&key) {
                    Some(Slot::Ready(v)) => {
                        let v = *v;
                        drop(cache);
                        fedval_obs::counter_add("coalition.cache.hits", 1);
                        return v;
                    }
                    Some(Slot::Pending) => {
                        if !raced {
                            raced = true;
                            // A concurrent miss on an in-flight coalition:
                            // before the single-flight fix this re-ran the
                            // inner evaluation.
                            fedval_obs::counter_add("coalition.cache.duplicate_evals", 1);
                        }
                        cache = self.cache.wait(&self.ready, cache);
                    }
                    None => {
                        cache.insert(key, Slot::Pending);
                        break;
                    }
                }
            }
        }
        fedval_obs::counter_add("coalition.cache.misses", 1);
        let guard = EvalGuard { game: self, key };
        let v = self.inner.value(coalition);
        {
            let mut cache = self.cache.lock();
            cache.insert(key, Slot::Ready(v));
        }
        // The guard finds the slot Ready (nothing to clean up) and
        // notifies the waiters blocked on this coalition.
        drop(guard);
        v
    }
}

/// A game defined by a closure; convenient for tests and ad-hoc models.
pub struct FnGame<F> {
    n: usize,
    f: F,
}

impl<F: Fn(Coalition) -> f64 + Sync> FnGame<F> {
    /// Wraps a closure as a game over `n` players.
    pub fn new(n: usize, f: F) -> FnGame<F> {
        FnGame { n, f }
    }
}

impl<F: Fn(Coalition) -> f64 + Sync> WideGame for FnGame<F> {
    fn n_players(&self) -> usize {
        self.n
    }

    fn value_members(&self, members: &[PlayerId]) -> f64 {
        self.value(Coalition::from_players(members.iter().copied()))
    }

    fn value(&self, coalition: Coalition) -> f64 {
        (self.f)(coalition)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cardinality_game(n: usize) -> TableGame {
        TableGame::from_fn(n, |c| c.len() as f64)
    }

    #[test]
    fn table_from_fn_round_trips() {
        let g = cardinality_game(4);
        assert_eq!(g.n_players(), 4);
        assert_eq!(g.value(Coalition::EMPTY), 0.0);
        assert_eq!(g.value(Coalition::grand(4)), 4.0);
        assert_eq!(g.value(Coalition::from_players([1, 3])), 2.0);
        assert!(check_zero_normalized_empty(&g, 0.0));
    }

    #[test]
    fn marginal_contribution() {
        let g = TableGame::from_fn(3, |c| (c.len() * c.len()) as f64);
        // Δ_0({1}) = V({0,1}) − V({1}) = 4 − 1 = 3.
        assert_eq!(g.marginal(0, Coalition::singleton(1)), 3.0);
    }

    #[test]
    fn zero_normalization_subtracts_singletons() {
        let g = TableGame::from_fn(3, |c| if c.is_empty() { 0.0 } else { 10.0 });
        let z = g.zero_normalized();
        assert_eq!(z.value(Coalition::singleton(0)), 0.0);
        assert_eq!(z.value(Coalition::grand(3)), 10.0 - 30.0);
    }

    #[test]
    fn from_values_checks_length() {
        let g = TableGame::from_values(2, vec![0.0, 1.0, 2.0, 5.0]);
        assert_eq!(g.value(Coalition::grand(2)), 5.0);
    }

    #[test]
    #[should_panic(expected = "2^n")]
    fn from_values_rejects_bad_length() {
        let _ = TableGame::from_values(2, vec![0.0; 3]);
    }

    #[test]
    fn cached_game_memoizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let g = FnGame::new(3, |c: Coalition| {
            CALLS.fetch_add(1, Ordering::SeqCst);
            c.len() as f64
        });
        let cached = CachedGame::new(g);
        let c = Coalition::from_players([0, 1]);
        assert_eq!(cached.value(c), 2.0);
        assert_eq!(cached.value(c), 2.0);
        assert_eq!(CALLS.load(Ordering::SeqCst), 1);
        assert_eq!(cached.cached_len(), 1);
    }

    #[test]
    fn table_clone_preserves_values() {
        let g = cardinality_game(3);
        let g2 = g.clone();
        assert_eq!(g.values(), g2.values());
    }

    #[test]
    fn try_from_fn_rejects_oversized_games() {
        let err = TableGame::try_from_fn(TableGame::MAX_PLAYERS + 1, |c| c.len() as f64)
            .expect_err("26 players must not materialize");
        match &err {
            GameError::TooManyPlayers { n, max, solver } => {
                assert_eq!(*n, TableGame::MAX_PLAYERS + 1);
                assert_eq!(*max, TableGame::MAX_PLAYERS);
                assert_eq!(*solver, "table_game");
            }
            other => panic!("wrong error variant: {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("26"), "error must name the player count: {msg}");
    }

    #[test]
    fn try_from_game_matches_from_game() {
        let g = FnGame::new(3, |c: Coalition| (c.len() * 2) as f64);
        let table = TableGame::try_from_game(&g).expect("3 players fit");
        assert_eq!(table.values(), TableGame::from_game(&g).values());
    }

    #[test]
    #[should_panic(expected = "supports at most")]
    fn from_fn_panics_past_max_players() {
        let _ = TableGame::from_fn(TableGame::MAX_PLAYERS + 1, |_| 0.0);
    }

    /// Regression test for the concurrent-miss race: before the
    /// single-flight fix, threads missing on the same coalition all ran
    /// the inner evaluation. With the fix, inner evals must equal the
    /// number of distinct coalitions no matter how many threads race.
    #[test]
    fn cached_game_single_flight_under_contention() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;

        const N: usize = 5; // 32 distinct coalitions
        const THREADS: usize = 8;
        const ROUNDS: usize = 3;

        let evals = AtomicUsize::new(0);
        let cached = CachedGame::new(FnGame::new(N, |c: Coalition| {
            evals.fetch_add(1, Ordering::SeqCst);
            // Widen the race window so concurrent misses overlap.
            std::thread::sleep(std::time::Duration::from_millis(1));
            c.len() as f64
        }));
        let barrier = Barrier::new(THREADS);

        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let cached = &cached;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    for round in 0..ROUNDS {
                        for c in Coalition::all(N) {
                            // Stagger start offsets so threads collide on
                            // different keys, not just in lockstep.
                            let mask = (c.0 + (t + round) as u64) % (1 << N);
                            let shifted = Coalition(mask);
                            assert_eq!(cached.value(shifted), shifted.len() as f64);
                        }
                    }
                });
            }
        });

        assert_eq!(
            evals.load(Ordering::SeqCst),
            1 << N,
            "inner evaluations must equal distinct coalitions (single-flight)"
        );
        assert_eq!(cached.cached_len(), 1 << N);
    }

    /// Pre-warming fills the cache completely (sequential and sharded
    /// paths agree), and warm lookups never re-enter the inner game.
    #[test]
    fn prewarm_fills_the_cache_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for threads in [1, 4] {
            let evals = AtomicUsize::new(0);
            let cached = CachedGame::new(FnGame::new(6, |c: Coalition| {
                evals.fetch_add(1, Ordering::SeqCst);
                c.len() as f64
            }));
            assert_eq!(cached.prewarm(threads), 1 << 6, "threads={threads}");
            assert_eq!(evals.load(Ordering::SeqCst), 1 << 6);
            // Every post-warm read is a pure cache hit.
            for c in Coalition::all(6) {
                assert_eq!(cached.value(c), c.len() as f64);
            }
            assert_eq!(evals.load(Ordering::SeqCst), 1 << 6);
        }
    }

    /// A panicking inner evaluation must clean up its Pending sentinel so
    /// waiters retry instead of hanging, and later calls succeed.
    #[test]
    fn cached_game_recovers_from_panicking_eval() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = AtomicUsize::new(0);
        let cached = CachedGame::new(FnGame::new(2, |c: Coalition| {
            if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("first evaluation fails");
            }
            c.len() as f64
        }));
        let c = Coalition::from_players([0, 1]);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cached.value(c)));
        assert!(unwound.is_err());
        // The sentinel was removed on unwind: the retry evaluates afresh.
        assert_eq!(cached.value(c), 2.0);
        assert_eq!(cached.cached_len(), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::approx::{shapley_auto_wide, ApproxConfig, ShapleyEstimate};
    use crate::shapley::shapley;
    use proptest::prelude::*;

    /// A pseudo-random characteristic function with `V(∅) = 0`: every
    /// coalition gets its own value, so a wrong mask or member list shows.
    fn hashed(c: Coalition, salt: u64) -> f64 {
        if c.is_empty() {
            0.0
        } else {
            ((c.0 ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as f64 / 1e3
        }
    }

    /// Answers `value_members` only, so every other method (the bitset
    /// path the exact solvers read included) takes the trait's default.
    struct MembersOnly<'g, G>(&'g G);

    impl<G: WideGame> WideGame for MembersOnly<'_, G> {
        fn n_players(&self) -> usize {
            self.0.n_players()
        }
        fn value_members(&self, members: &[PlayerId]) -> f64 {
            self.0.value_members(members)
        }
    }

    /// `value` by mask and `value_members` by list must agree bit for bit.
    fn same_bits<G: WideGame>(game: &G, members: &[PlayerId]) -> bool {
        let by_mask = game.value(Coalition::from_players(members.iter().copied()));
        by_mask.to_bits() == game.value_members(members).to_bits()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every game that overrides the bitset fast path answers it with
        /// the same bits as the member path, on random member sets.
        #[test]
        fn bitset_fast_path_matches_the_member_path(
            n in 1usize..=10,
            mask in 0u64..1024,
            salt in any::<u64>(),
        ) {
            let members: Vec<PlayerId> = Coalition(mask & ((1 << n) - 1)).players().collect();
            let f = FnGame::new(n, move |c: Coalition| hashed(c, salt));
            let table = TableGame::from_game(&f);
            let cached = CachedGame::new(FnGame::new(n, move |c: Coalition| hashed(c, salt)));
            prop_assert!(same_bits(&f, &members));
            prop_assert!(same_bits(&table, &members));
            // Cold (the first read misses), then warm (both reads hit).
            prop_assert!(same_bits(&cached, &members));
            prop_assert!(same_bits(&cached, &members));
        }

        /// A game that implements only `value_members` gets exact Shapley
        /// through `shapley_auto_wide` with the same bits as `shapley` on
        /// its materialized table.
        #[test]
        fn members_only_exact_shapley_matches_the_table(
            n in 1usize..=10,
            salt in any::<u64>(),
        ) {
            let f = FnGame::new(n, move |c: Coalition| hashed(c, salt));
            let table = TableGame::from_game(&f);
            let estimate = shapley_auto_wide(&MembersOnly(&f), &ApproxConfig::default())
                .expect("valid config");
            let ShapleyEstimate::Exact(phi) = estimate else {
                panic!("n ≤ 10 must select exact enumeration");
            };
            let want: Vec<u64> = shapley(&table).iter().map(|v| v.to_bits()).collect();
            let got: Vec<u64> = phi.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(got, want);
        }
    }
}
