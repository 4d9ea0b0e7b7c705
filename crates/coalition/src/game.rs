//! Game representations: the [`WideGame`] trait, the dense
//! [`TableGame`] and the closure-backed [`FnGame`].

use crate::coalition::{Coalition, PlayerId};
use crate::error::GameError;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

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
/// ([`TableGame`], [`FnGame`]) overrides it, and the
/// override must return the same bits as `value_members` on the same
/// members. [`WideGame::grand_value`] and [`WideGame::value_walk`] stay
/// on the member path, so a game past 64 players never builds a bitset.
///
/// Implementations should be cheap to call repeatedly — the exact solution
/// concepts evaluate `value` up to `O(2^n)` times. Expensive characteristic
/// functions (e.g. ones that run an allocation optimizer or a simulation)
/// should be materialized once into a [`TableGame`] with
/// [`TableGame::try_from_walk`].
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
    /// of `start` itself is not part of the result.
    /// [`TableGame::try_from_walk`] fills every `2^n` table by walking
    /// Gray-code blocks through this hook, and the permutation estimator
    /// walks each sampled ordering through
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
    /// 256 MiB. A bigger game stays lazy: callers evaluate
    /// [`WideGame::value_members`] per coalition, or sample its Shapley
    /// value with [`shapley_auto_wide`](crate::shapley_auto_wide).
    pub const MAX_PLAYERS: usize = 25;

    /// Materializes any [`WideGame`] into a dense table — the one `2^n`
    /// builder. Every coalition is evaluated once along a Gray-code walk:
    /// the ranks `0..2^n` split into contiguous ranges, the first walked
    /// on the calling thread and each other on a crossbeam scoped worker,
    /// each through [`WideGame::value_walk`] so consecutive coalitions
    /// differ by one player. `threads` is clamped to `1..=n` and to one
    /// walker per 256 ranks, so a table of at most 256 coalitions never
    /// spawns. Each slot holds `value_members`' bits for its coalition at
    /// every thread count. Adds `2^n` to the `coalition.game.evals`
    /// counter.
    ///
    /// # Errors
    /// [`GameError::TooManyPlayers`] when the game exceeds
    /// [`TableGame::MAX_PLAYERS`], before anything is allocated;
    /// [`GameError::NonFiniteValue`] naming the first coalition (by mask)
    /// whose value is NaN or infinite.
    pub fn try_from_walk<G: WideGame + ?Sized>(
        game: &G,
        threads: usize,
    ) -> Result<TableGame, GameError> {
        let n = game.n_players();
        if n > TableGame::MAX_PLAYERS {
            return Err(GameError::TooManyPlayers {
                n,
                max: TableGame::MAX_PLAYERS,
                solver: "table_game",
            });
        }
        let size = 1usize << n;
        let slots: Vec<AtomicU64> = (0..size).map(|_| AtomicU64::new(0)).collect();
        let walkers = threads.clamp(1, n.max(1)).min(size.div_ceil(WALK_BLOCK));
        let per = size.div_ceil(walkers);
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
        fedval_obs::counter_add("coalition.game.evals", size as u64);
        let values: Vec<f64> = slots
            .into_iter()
            .map(|bits| f64::from_bits(bits.into_inner()))
            .collect();
        if let Some((mask, &value)) = values.iter().enumerate().find(|(_, v)| !v.is_finite()) {
            return Err(GameError::NonFiniteValue {
                coalition: Coalition(mask as u64),
                value,
            });
        }
        Ok(TableGame { n, values })
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
        let values = Coalition::all(self.n)
            .map(|c| self.values[c.index()] - c.players().map(|p| singles[p]).sum::<f64>())
            .collect();
        TableGame { n: self.n, values }
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

/// Gray-code ranks per [`WideGame::value_walk`] call in
/// [`TableGame::try_from_walk`]: bounds each call's toggle and value
/// vectors, at the cost of re-entering the block's first coalition once
/// per block.
const WALK_BLOCK: usize = 256;

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
pub(crate) mod tests {
    use super::*;

    /// `game`'s table, walked on the calling thread — the unit tests'
    /// way from a closure or oracle game to the exact solvers.
    pub(crate) fn table_of<G: WideGame + ?Sized>(game: &G) -> TableGame {
        TableGame::try_from_walk(game, 1).expect("test games fit a table")
    }

    fn cardinality_game(n: usize) -> TableGame {
        table_of(&FnGame::new(n, |c: Coalition| c.len() as f64))
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
        let g = table_of(&FnGame::new(3, |c: Coalition| (c.len() * c.len()) as f64));
        // Δ_0({1}) = V({0,1}) − V({1}) = 4 − 1 = 3.
        assert_eq!(g.marginal(0, Coalition::singleton(1)), 3.0);
    }

    #[test]
    fn zero_normalization_subtracts_singletons() {
        let g = table_of(&FnGame::new(
            3,
            |c: Coalition| if c.is_empty() { 0.0 } else { 10.0 },
        ));
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
    fn table_clone_preserves_values() {
        let g = cardinality_game(3);
        let g2 = g.clone();
        assert_eq!(g.values(), g2.values());
    }

    /// A members-only game past the table cap is refused before the 2ⁿ
    /// slots are allocated or any coalition is evaluated.
    #[test]
    fn try_from_walk_rejects_oversized_games_at_once() {
        struct Untouchable(usize);
        impl WideGame for Untouchable {
            fn n_players(&self) -> usize {
                self.0
            }
            fn value_members(&self, _: &[PlayerId]) -> f64 {
                panic!("an oversized table must not evaluate any coalition")
            }
        }
        for n in [TableGame::MAX_PLAYERS + 1, 64, 200] {
            let err = TableGame::try_from_walk(&Untouchable(n), 4)
                .expect_err("past MAX_PLAYERS must not materialize");
            assert_eq!(
                err,
                GameError::TooManyPlayers {
                    n,
                    max: TableGame::MAX_PLAYERS,
                    solver: "table_game",
                }
            );
            assert!(err.to_string().contains(&n.to_string()), "{err}");
        }
    }

    /// A NaN or infinite coalition value fails the fill, naming the
    /// lowest such mask, at every walker count.
    #[test]
    fn try_from_walk_rejects_non_finite_values() {
        for (bad, value) in [
            (5u64, f64::INFINITY),
            (6, f64::NAN),
            (1000, f64::NEG_INFINITY),
        ] {
            let game = FnGame::new(10, move |c: Coalition| {
                if c.0 == bad || c.0 == 1020 {
                    value
                } else {
                    c.len() as f64
                }
            });
            for threads in [1, 3] {
                let err = TableGame::try_from_walk(&game, threads)
                    .expect_err("a non-finite value must not make a table");
                let GameError::NonFiniteValue {
                    coalition,
                    value: got,
                } = err
                else {
                    panic!("wrong error variant: {err:?}");
                };
                assert_eq!(coalition, Coalition(bad), "threads={threads}");
                assert_eq!(got.to_bits(), value.to_bits());
            }
        }
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

    /// The per-coalition reference fill: `V(S)` by mask for every `S`.
    fn per_coalition<G: WideGame>(game: &G) -> TableGame {
        let n = game.n_players();
        TableGame::from_values(n, Coalition::all(n).map(|c| game.value(c)).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every game that overrides the bitset fast path answers it with
        /// the same bits as the member path, on random member sets, and
        /// the walk fills the per-coalition table bit for bit at 1–3
        /// walkers (n ≥ 10 at 3 threads splits the ranks unevenly).
        #[test]
        fn bitset_fast_path_matches_the_member_path(
            n in 1usize..=11,
            mask in 0u64..2048,
            salt in any::<u64>(),
        ) {
            let members: Vec<PlayerId> = Coalition(mask & ((1 << n) - 1)).players().collect();
            let f = FnGame::new(n, move |c: Coalition| hashed(c, salt));
            let table = per_coalition(&f);
            prop_assert!(same_bits(&f, &members));
            prop_assert!(same_bits(&table, &members));
            let want: Vec<u64> = table.values().iter().map(|v| v.to_bits()).collect();
            for threads in 1..=3 {
                let walked = TableGame::try_from_walk(&MembersOnly(&f), threads)
                    .expect("n ≤ 11 fits a table");
                prop_assert!(same_bits(&walked, &members));
                let got: Vec<u64> = walked.values().iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(got, want.clone(), "threads={}", threads);
            }
        }

        /// A game that implements only `value_members` gets exact Shapley
        /// through `shapley_auto_wide` with the same bits as `shapley` on
        /// its per-coalition table.
        #[test]
        fn members_only_exact_shapley_matches_the_table(
            n in 1usize..=10,
            salt in any::<u64>(),
        ) {
            let f = FnGame::new(n, move |c: Coalition| hashed(c, salt));
            let estimate = shapley_auto_wide(&MembersOnly(&f), &ApproxConfig::default())
                .expect("valid config");
            let ShapleyEstimate::Exact(phi) = estimate else {
                panic!("n ≤ 10 must select exact enumeration");
            };
            let want: Vec<u64> = shapley(&per_coalition(&f)).iter().map(|v| v.to_bits()).collect();
            let got: Vec<u64> = phi.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(got, want);
        }
    }
}
