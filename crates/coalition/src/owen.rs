//! The Owen coalitional value — Shapley with a priori unions (Owen 1977).
//!
//! PlanetLab's federation is *hierarchical*: sites contribute to
//! authorities, authorities federate globally (§1.2 of the paper; studying
//! "the interdependencies between local and global federation policies" is
//! named as future work). The Owen value is the canonical two-level
//! extension of the Shapley value for exactly this structure: players are
//! partitioned into unions (sites into authorities), orderings are
//! restricted to keep each union contiguous, and a player's value is the
//! expected marginal contribution over those orderings:
//!
//! ```text
//! φᵢ = Σ_{Q ⊆ U∖{k}} Σ_{S ⊆ B_k∖{i}}  w(|Q|, |U|−1) · w(|S|, |B_k|−1)
//!        · [ V(⋃Q ∪ S ∪ {i}) − V(⋃Q ∪ S) ]        (i ∈ B_k)
//! ```
//!
//! with `w(s, m) = s!·(m−s)!/(m+1)!`. Two classical consistency
//! properties are verified by tests:
//!
//! * **Quotient property**: the members of union `B_k` jointly receive the
//!   Shapley value of `k` in the *quotient game* between unions.
//! * Singleton unions (or one big union) recover the plain Shapley value.

use crate::coalition::Coalition;
use crate::error::GameError;
use crate::game::{FnGame, TableGame, WideGame};

/// Computes the Owen value for the given partition into unions.
///
/// `unions` must partition `0..n` into disjoint, non-empty coalitions.
///
/// # Panics
/// Panics if `unions` is not a partition of the player set.
pub fn owen_value<G: WideGame>(game: &G, unions: &[Coalition]) -> Vec<f64> {
    let n = game.n_players();
    validate_partition(n, unions);

    let u = unions.len();
    let union_weights = ordering_weights(u);
    let mut phi = vec![0.0; n];

    for (k, &block) in unions.iter().enumerate() {
        let others: Vec<Coalition> = unions
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != k)
            .map(|(_, &b)| b)
            .collect();
        let b = block.len();
        let member_weights = ordering_weights(b);

        // Enumerate subsets Q of the other unions by bitmask.
        for q_mask in 0u64..(1u64 << others.len()) {
            let mut q_union = Coalition::EMPTY;
            let mut q_count = 0usize;
            for (j, &other) in others.iter().enumerate() {
                if q_mask & (1 << j) != 0 {
                    q_union = q_union.union(other);
                    q_count += 1;
                }
            }
            let wq = union_weights[q_count];
            for i in block.players() {
                let rest = block.without(i);
                for s in rest.subsets() {
                    let w = wq * member_weights[s.len()];
                    let base = q_union.union(s);
                    phi[i] += w * game.marginal(i, base);
                }
            }
        }
    }
    phi
}

/// Normalized Owen shares (sum to one; zeros for a valueless game).
pub fn owen_value_normalized<G: WideGame>(game: &G, unions: &[Coalition]) -> Vec<f64> {
    crate::shapley::normalize(owen_value(game, unions), game.grand_value())
}

/// The quotient game between unions: player `k` of the quotient is union
/// `B_k`, and `V_Q(T) = V(⋃_{k∈T} B_k)`, walked into a table on the
/// calling thread.
///
/// # Errors
/// [`GameError::TooManyPlayers`] past [`TableGame::MAX_PLAYERS`] unions,
/// [`GameError::NonFiniteValue`] when a merged coalition's value is NaN or
/// infinite.
pub fn quotient_game<G: WideGame>(game: &G, unions: &[Coalition]) -> Result<TableGame, GameError> {
    let n = game.n_players();
    validate_partition(n, unions);
    let quotient = FnGame::new(unions.len(), |t: Coalition| {
        let merged = t
            .players()
            .fold(Coalition::EMPTY, |acc, k| acc.union(unions[k]));
        game.value(merged)
    });
    TableGame::try_from_walk(&quotient, 1)
}

/// `w(s, m) = s!·(m−s)!/(m+1)!` for `s ∈ 0..=m`, computed via
/// `1/((m+1)·C(m, s))`.
fn ordering_weights(size: usize) -> Vec<f64> {
    let m = size.saturating_sub(1);
    let mut w = Vec::with_capacity(m + 1);
    let mut binom = 1.0f64;
    for s in 0..=m {
        w.push(1.0 / ((m + 1) as f64 * binom));
        if s < m {
            binom *= (m - s) as f64 / (s + 1) as f64;
        }
    }
    w
}

fn validate_partition(n: usize, unions: &[Coalition]) {
    let mut seen = Coalition::EMPTY;
    for &b in unions {
        assert!(!b.is_empty(), "unions must be non-empty");
        assert!(seen.is_disjoint(b), "unions must be disjoint");
        seen = seen.union(b);
    }
    assert_eq!(
        seen,
        Coalition::grand(n),
        "unions must cover all {n} players"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::tests::table_of;
    use crate::shapley::shapley;

    fn majority3() -> FnGame<impl Fn(Coalition) -> f64 + Sync> {
        FnGame::new(3, |c: Coalition| (c.len() >= 2) as u64 as f64)
    }

    #[test]
    fn singleton_unions_recover_shapley() {
        let g = FnGame::new(4, |c: Coalition| (c.len() as f64).powi(2));
        let unions: Vec<Coalition> = (0..4).map(Coalition::singleton).collect();
        let owen = owen_value(&g, &unions);
        let plain = shapley(&table_of(&g));
        for (a, b) in owen.iter().zip(&plain) {
            assert!((a - b).abs() < 1e-9, "{owen:?} vs {plain:?}");
        }
    }

    #[test]
    fn one_big_union_recovers_shapley() {
        let g = FnGame::new(4, |c: Coalition| {
            let s: f64 = c.players().map(|p| (p + 1) as f64).sum();
            if s > 4.0 {
                s
            } else {
                0.0
            }
        });
        let owen = owen_value(&g, &[Coalition::grand(4)]);
        let plain = shapley(&table_of(&g));
        for (a, b) in owen.iter().zip(&plain) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn majority_with_pair_union_shuts_out_the_outsider() {
        // Classic example: v = majority(3), unions {{0,1},{2}} — the
        // allied pair captures everything: φ = (1/2, 1/2, 0).
        let unions = [Coalition::from_players([0, 1]), Coalition::singleton(2)];
        let owen = owen_value(&majority3(), &unions);
        assert!((owen[0] - 0.5).abs() < 1e-12);
        assert!((owen[1] - 0.5).abs() < 1e-12);
        assert!(owen[2].abs() < 1e-12);
    }

    #[test]
    fn owen_is_efficient() {
        let g = FnGame::new(5, |c: Coalition| {
            let s: f64 = c.players().map(|p| (p * p + 1) as f64).sum();
            s.sqrt()
        });
        let unions = [
            Coalition::from_players([0, 3]),
            Coalition::from_players([1, 2]),
            Coalition::singleton(4),
        ];
        let owen = owen_value(&g, &unions);
        let total: f64 = owen.iter().sum();
        assert!((total - g.grand_value()).abs() < 1e-9);
    }

    #[test]
    fn quotient_property_holds() {
        // Σ_{i ∈ B_k} φᵢ equals the Shapley value of k in the quotient
        // game.
        let g = FnGame::new(5, |c: Coalition| {
            let s: f64 = c.players().map(|p| (p + 1) as f64).sum();
            if s > 6.0 {
                s * s
            } else {
                0.0
            }
        });
        let unions = [
            Coalition::from_players([0, 1]),
            Coalition::from_players([2, 4]),
            Coalition::singleton(3),
        ];
        let owen = owen_value(&g, &unions);
        let quotient = quotient_game(&g, &unions).expect("3 unions");
        let quotient_shapley = shapley(&quotient);
        for (k, &block) in unions.iter().enumerate() {
            let block_total: f64 = block.players().map(|i| owen[i]).sum();
            assert!(
                (block_total - quotient_shapley[k]).abs() < 1e-9,
                "union {k}: {block_total} vs {}",
                quotient_shapley[k]
            );
        }
    }

    #[test]
    fn symmetric_players_within_a_union_get_equal_owen_value() {
        let g = FnGame::new(4, |c: Coalition| (c.len() as f64).powi(2));
        let unions = [Coalition::from_players([0, 1, 2]), Coalition::singleton(3)];
        let owen = owen_value(&g, &unions);
        assert!((owen[0] - owen[1]).abs() < 1e-12);
        assert!((owen[1] - owen[2]).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cover")]
    fn rejects_incomplete_partitions() {
        let _ = owen_value(&majority3(), &[Coalition::from_players([0, 1])]);
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn rejects_overlapping_unions() {
        let _ = owen_value(
            &majority3(),
            &[
                Coalition::from_players([0, 1]),
                Coalition::from_players([1, 2]),
            ],
        );
    }
}
