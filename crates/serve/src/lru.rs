//! A small bounded LRU map for derived what-if scenarios.
//!
//! Capacity is a hard bound: inserting into a full cache evicts the
//! least-recently-*used* entry first (reads count as uses). The map is
//! a `BTreeMap` and eviction scans for the minimum use-tick, which is
//! O(capacity) — fine at the tens-of-entries scale the what-if cache
//! runs at, and fully deterministic (no hash-seed-dependent choices).

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Bounded least-recently-used map.
#[derive(Debug)]
pub struct Lru<K: Ord + Clone, V> {
    map: BTreeMap<K, (u64, V)>,
    tick: u64,
    capacity: usize,
}

impl<K: Ord + Clone, V> Lru<K, V> {
    /// Creates an empty cache holding at most `capacity` entries
    /// (clamped to at least 1).
    pub fn new(capacity: usize) -> Lru<K, V> {
        Lru {
            map: BTreeMap::new(),
            tick: 0,
            capacity: capacity.max(1),
        }
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current entry count (≤ capacity, always).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up `key`, marking it most-recently-used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(key) {
            Some(entry) => {
                entry.0 = tick;
                Some(&entry.1)
            }
            None => None,
        }
    }

    /// Inserts `key → value`, evicting the least-recently-used entry if
    /// the cache is full and `key` is new. Returns the evicted key, if
    /// any.
    pub fn insert(&mut self, key: K, value: V) -> Option<K> {
        self.tick += 1;
        match self.map.entry(key) {
            Entry::Occupied(mut slot) => {
                slot.insert((self.tick, value));
                return None;
            }
            Entry::Vacant(slot) => {
                slot.insert((self.tick, value));
            }
        }
        if self.map.len() <= self.capacity {
            return None;
        }
        // Oldest tick = least recently used. Ties are impossible: ticks
        // are unique, and the entry just inserted holds the newest one.
        let oldest = self
            .map
            .iter()
            .min_by_key(|(_, (t, _))| *t)
            .map(|(k, _)| k.clone())?;
        self.map.remove(&oldest);
        Some(oldest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_and_insert_round_trip() {
        let mut lru: Lru<u32, &str> = Lru::new(4);
        assert!(lru.is_empty());
        assert_eq!(lru.get(&1), None);
        lru.insert(1, "one");
        assert_eq!(lru.get(&1), Some(&"one"));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn capacity_is_a_hard_bound() {
        let mut lru: Lru<u32, u32> = Lru::new(3);
        for i in 0..10 {
            lru.insert(i, i * 10);
            assert!(lru.len() <= 3, "len {} exceeds capacity", lru.len());
        }
        // Last three inserted survive.
        assert_eq!(lru.get(&9), Some(&90));
        assert_eq!(lru.get(&8), Some(&80));
        assert_eq!(lru.get(&7), Some(&70));
        assert_eq!(lru.get(&0), None);
    }

    #[test]
    fn reads_refresh_recency() {
        let mut lru: Lru<u32, ()> = Lru::new(2);
        lru.insert(1, ());
        lru.insert(2, ());
        // Touch 1 so 2 becomes the LRU entry.
        assert!(lru.get(&1).is_some());
        let evicted = lru.insert(3, ());
        assert_eq!(evicted, Some(2));
        assert!(lru.get(&1).is_some());
        assert!(lru.get(&3).is_some());
        assert_eq!(lru.get(&2), None);
    }

    #[test]
    fn reinsert_updates_without_evicting() {
        let mut lru: Lru<u32, u32> = Lru::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        assert_eq!(lru.insert(1, 11), None);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(&1), Some(&11));
        assert_eq!(lru.get(&2), Some(&20));
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut lru: Lru<u32, ()> = Lru::new(0);
        assert_eq!(lru.capacity(), 1);
        lru.insert(1, ());
        lru.insert(2, ());
        assert_eq!(lru.len(), 1);
    }
}
