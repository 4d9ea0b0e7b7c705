//! The [`Coalition`] bitset and iteration utilities.
//!
//! A coalition is a subset of at most 64 players, represented as a bitmask.
//! Bit `i` set means player `i` is a member. This representation makes the
//! lattice operations the solution concepts need (union, intersection,
//! subset enumeration) single machine instructions or tight loops.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a player (facility) in a coalitional game: `0..n`.
pub type PlayerId = usize;

/// Maximum number of players supported by the bitset representation.
pub const MAX_PLAYERS: usize = 64;

/// A set of players, stored as a bitmask.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct Coalition(pub u64);

impl Coalition {
    /// The empty coalition ∅.
    pub const EMPTY: Coalition = Coalition(0);

    /// The grand coalition over `n` players.
    ///
    /// # Panics
    /// Panics if `n > 64`.
    pub fn grand(n: usize) -> Coalition {
        assert!(n <= MAX_PLAYERS, "at most {MAX_PLAYERS} players supported");
        if n == MAX_PLAYERS {
            Coalition(u64::MAX)
        } else {
            Coalition((1u64 << n) - 1)
        }
    }

    /// The singleton coalition {i}.
    pub fn singleton(i: PlayerId) -> Coalition {
        assert!(i < MAX_PLAYERS);
        Coalition(1u64 << i)
    }

    /// Builds a coalition from an iterator of player ids.
    pub fn from_players<I: IntoIterator<Item = PlayerId>>(players: I) -> Coalition {
        players.into_iter().fold(Coalition::EMPTY, |c, p| c.with(p))
    }

    /// Whether player `i` is a member.
    pub fn contains(self, i: PlayerId) -> bool {
        i < MAX_PLAYERS && self.0 & (1u64 << i) != 0
    }

    /// This coalition with player `i` added.
    pub fn with(self, i: PlayerId) -> Coalition {
        assert!(i < MAX_PLAYERS);
        Coalition(self.0 | (1u64 << i))
    }

    /// This coalition with player `i` removed.
    pub fn without(self, i: PlayerId) -> Coalition {
        assert!(i < MAX_PLAYERS);
        Coalition(self.0 & !(1u64 << i))
    }

    /// Union S ∪ T.
    pub fn union(self, other: Coalition) -> Coalition {
        Coalition(self.0 | other.0)
    }

    /// Intersection S ∩ T.
    pub fn intersection(self, other: Coalition) -> Coalition {
        Coalition(self.0 & other.0)
    }

    /// Set difference S \ T.
    pub fn difference(self, other: Coalition) -> Coalition {
        Coalition(self.0 & !other.0)
    }

    /// Complement within the grand coalition over `n` players.
    pub fn complement(self, n: usize) -> Coalition {
        Coalition(Coalition::grand(n).0 & !self.0)
    }

    /// Whether S and T share no players.
    pub fn is_disjoint(self, other: Coalition) -> bool {
        self.0 & other.0 == 0
    }

    /// Whether S ⊆ T.
    pub fn is_subset_of(self, other: Coalition) -> bool {
        self.0 & !other.0 == 0
    }

    /// Number of members |S|.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the coalition is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterator over member player ids, in increasing order.
    pub fn players(self) -> Players {
        Players(self.0)
    }

    /// Iterator over **all** subsets of this coalition, including ∅ and the
    /// coalition itself. Yields `2^|S|` coalitions.
    pub fn subsets(self) -> Subsets {
        Subsets {
            mask: self.0,
            next: Some(0),
        }
    }

    /// Iterator over all `2^n` coalitions of an `n`-player game, ∅ first and
    /// the grand coalition last.
    pub fn all(n: usize) -> impl Iterator<Item = Coalition> {
        let grand = Coalition::grand(n).0;
        (0..=grand).map(Coalition)
    }

    /// Dense table index of this coalition (the raw mask).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "hot path; dense tables stop at 2^16 coalitions, so the mask fits any usize"
    )]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Coalition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for p in self.players() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

/// Iterator over the members of a coalition. See [`Coalition::players`].
pub struct Players(u64);

impl Iterator for Players {
    type Item = PlayerId;

    fn next(&mut self) -> Option<PlayerId> {
        if self.0 == 0 {
            None
        } else {
            let i = self.0.trailing_zeros() as usize;
            self.0 &= self.0 - 1;
            Some(i)
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Players {}

/// Iterator over all subsets of a coalition. See [`Coalition::subsets`].
///
/// Uses the classic sub-mask enumeration `next = (cur − mask) & mask`
/// rewritten to ascend from ∅ to the full mask.
pub struct Subsets {
    mask: u64,
    next: Option<u64>,
}

impl Iterator for Subsets {
    type Item = Coalition;

    fn next(&mut self) -> Option<Coalition> {
        let cur = self.next?;
        self.next = if cur == self.mask {
            None
        } else {
            // Increment within the sub-lattice of `mask`.
            Some((cur.wrapping_sub(self.mask)) & self.mask)
        };
        Some(Coalition(cur))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grand_and_singleton() {
        assert_eq!(Coalition::grand(3).0, 0b111);
        assert_eq!(Coalition::singleton(2).0, 0b100);
        assert_eq!(Coalition::grand(0), Coalition::EMPTY);
        assert_eq!(Coalition::grand(64).0, u64::MAX);
    }

    #[test]
    fn membership_and_mutation() {
        let c = Coalition::from_players([0, 2, 5]);
        assert!(c.contains(0) && c.contains(2) && c.contains(5));
        assert!(!c.contains(1));
        assert_eq!(c.len(), 3);
        assert_eq!(c.without(2).len(), 2);
        assert_eq!(c.with(2), c, "adding a member is idempotent");
    }

    #[test]
    fn set_algebra() {
        let a = Coalition::from_players([0, 1]);
        let b = Coalition::from_players([1, 2]);
        assert_eq!(a.union(b), Coalition::from_players([0, 1, 2]));
        assert_eq!(a.intersection(b), Coalition::singleton(1));
        assert_eq!(a.difference(b), Coalition::singleton(0));
        assert!(!a.is_disjoint(b));
        assert!(a.difference(b).is_disjoint(b));
        assert_eq!(a.complement(3), Coalition::singleton(2));
        assert!(a.is_subset_of(Coalition::grand(3)));
        assert!(!Coalition::grand(3).is_subset_of(a));
    }

    #[test]
    fn players_iterate_in_order() {
        let c = Coalition::from_players([5, 1, 3]);
        let got: Vec<_> = c.players().collect();
        assert_eq!(got, vec![1, 3, 5]);
        assert_eq!(c.players().len(), 3);
    }

    #[test]
    fn subsets_enumerate_full_powerset() {
        let c = Coalition::from_players([0, 2, 3]);
        let subs: Vec<_> = c.subsets().collect();
        assert_eq!(subs.len(), 8);
        assert!(subs.contains(&Coalition::EMPTY));
        assert!(subs.contains(&c));
        assert!(subs.iter().all(|s| s.is_subset_of(c)));
        // No duplicates.
        let mut sorted = subs.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 8);
    }

    #[test]
    fn subsets_of_empty_is_just_empty() {
        let subs: Vec<_> = Coalition::EMPTY.subsets().collect();
        assert_eq!(subs, vec![Coalition::EMPTY]);
    }

    #[test]
    fn all_coalitions_count() {
        assert_eq!(Coalition::all(4).count(), 16);
        let v: Vec<_> = Coalition::all(2).collect();
        assert_eq!(v[0], Coalition::EMPTY);
        assert_eq!(v[3], Coalition::grand(2));
    }

    #[test]
    fn display_formats_members() {
        assert_eq!(Coalition::from_players([0, 2]).to_string(), "{0, 2}");
        assert_eq!(Coalition::EMPTY.to_string(), "{}");
    }
}
