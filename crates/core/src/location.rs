//! Locations and coalition capacity profiles (§2.1 of the paper).
//!
//! Each facility provides resources at a set of locations `Lᵢ ⊆ L`; when
//! facilities overlap at a location the capacities add (Fig. 1). For the
//! allocation optimizer the only thing that matters about a coalition is
//! its **capacity profile**: how many distinct locations it has at each
//! capacity level. [`CapacityProfile`] stores that compressed form and
//! provides the `B(m) = Σ_ℓ min(c_ℓ, m)` primitive (maximum usable
//! location-slots when at most `m` experiments may share a location) on
//! which the whole analytic allocation theory rests.

use serde::{Deserialize, Serialize};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Identifier of a geographic/network location.
pub type LocationId = u32;

/// A facility's resource offer at a set of locations: location id →
/// capacity `R_{il}` (number of experiments that can run there thanks to
/// facility `i`, the paper's bottleneck-resource aggregation).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LocationOffer {
    slots: BTreeMap<LocationId, u64>,
}

impl LocationOffer {
    /// The empty offer.
    pub fn new() -> LocationOffer {
        LocationOffer::default()
    }

    /// Uniform offer: capacity `r` at each of `locations`.
    ///
    /// # Panics
    /// Panics if `r == 0`.
    pub fn uniform<I: IntoIterator<Item = LocationId>>(locations: I, r: u64) -> LocationOffer {
        assert!(r > 0, "capacity per location must be positive");
        LocationOffer {
            slots: locations.into_iter().map(|l| (l, r)).collect(),
        }
    }

    /// Uniform offer on a contiguous id range `[start, start+count)`.
    pub fn contiguous(start: LocationId, count: u32, r: u64) -> LocationOffer {
        LocationOffer::uniform(start..start + count, r)
    }

    /// Adds capacity `r` at `location` (accumulating).
    pub fn add(&mut self, location: LocationId, r: u64) {
        if r > 0 {
            *self.slots.entry(location).or_insert(0) += r;
        }
    }

    /// Number of distinct locations offered (the paper's `Lᵢ`).
    pub fn n_locations(&self) -> usize {
        self.slots.len()
    }

    /// Total location-slots offered (`Σ_l R_{il}`).
    pub fn total_slots(&self) -> u64 {
        self.slots.values().sum()
    }

    /// Iterates `(location, capacity)` pairs in location order.
    pub fn iter(&self) -> impl Iterator<Item = (LocationId, u64)> + '_ {
        self.slots.iter().map(|(&l, &r)| (l, r))
    }

    /// Capacity offered at `location` (0 if none).
    pub fn capacity_at(&self, location: LocationId) -> u64 {
        self.slots.get(&location).copied().unwrap_or(0)
    }

    /// Merges several offers by summing capacities at shared locations —
    /// exactly the paper's Fig. 1 note: "at locations where there is
    /// overlapping the total available resources are the sum".
    pub fn merge<'a, I: IntoIterator<Item = &'a LocationOffer>>(offers: I) -> LocationOffer {
        let mut merged = LocationOffer::new();
        for offer in offers {
            for (l, r) in offer.iter() {
                merged.add(l, r);
            }
        }
        merged
    }
}

/// The compressed capacity profile of a coalition: sorted groups of
/// `(capacity, #locations at that capacity)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CapacityProfile {
    /// Groups sorted by ascending capacity; capacities are distinct.
    groups: Vec<(u64, u64)>,
    n_locations: u64,
    total_slots: u64,
}

impl CapacityProfile {
    /// Builds the profile of a merged offer.
    pub fn from_offer(offer: &LocationOffer) -> CapacityProfile {
        let mut by_cap: BTreeMap<u64, u64> = BTreeMap::new();
        for (_, r) in offer.iter() {
            *by_cap.entry(r).or_insert(0) += 1;
        }
        CapacityProfile::from_groups(by_cap.into_iter().collect())
    }

    /// Builds directly from `(capacity, count)` groups (need not be sorted
    /// or deduplicated).
    pub fn from_groups(groups: Vec<(u64, u64)>) -> CapacityProfile {
        let mut by_cap: BTreeMap<u64, u64> = BTreeMap::new();
        for (cap, count) in groups {
            if cap > 0 && count > 0 {
                *by_cap.entry(cap).or_insert(0) += count;
            }
        }
        CapacityProfile::from_histogram(&by_cap)
    }

    /// Builds from a capacity → location-count histogram whose keys and
    /// counts are all positive (already the sorted, distinct groups).
    fn from_histogram(histogram: &BTreeMap<u64, u64>) -> CapacityProfile {
        let groups: Vec<(u64, u64)> = histogram.iter().map(|(&c, &n)| (c, n)).collect();
        let n_locations = groups.iter().map(|&(_, n)| n).sum();
        let total_slots = groups.iter().map(|&(c, n)| c * n).sum();
        CapacityProfile {
            groups,
            n_locations,
            total_slots,
        }
    }

    /// The empty profile (coalition with no resources).
    pub fn empty() -> CapacityProfile {
        CapacityProfile::from_groups(Vec::new())
    }

    /// Number of distinct locations.
    pub fn n_locations(&self) -> u64 {
        self.n_locations
    }

    /// Total slots `Σ_ℓ c_ℓ`.
    pub fn total_slots(&self) -> u64 {
        self.total_slots
    }

    /// Maximum capacity of any location (0 for the empty profile).
    pub fn max_capacity(&self) -> u64 {
        self.groups.last().map_or(0, |&(c, _)| c)
    }

    /// `B(m) = Σ_ℓ min(c_ℓ, m)`: the maximum number of location-slots
    /// usable by `m` experiments that each use a location at most once.
    pub fn usable_slots(&self, m: u64) -> u64 {
        self.groups
            .iter()
            .map(|&(cap, count)| cap.min(m) * count)
            .sum()
    }

    /// `δ(m) = B(m) − B(m−1)`: the number of locations with capacity ≥ m.
    pub fn locations_with_capacity_at_least(&self, m: u64) -> u64 {
        if m == 0 {
            return self.n_locations;
        }
        self.groups
            .iter()
            .filter(|&&(cap, _)| cap >= m)
            .map(|&(_, count)| count)
            .sum()
    }

    /// The groups, sorted by ascending capacity.
    pub fn groups(&self) -> &[(u64, u64)] {
        &self.groups
    }

    /// Per-location usage when `m` experiments are packed optimally:
    /// location with capacity `c` carries `min(c, m)`. Returns usage summed
    /// per capacity group, `(capacity, count, used_per_location)`.
    pub fn usage_at(&self, m: u64) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.groups
            .iter()
            .map(move |&(cap, count)| (cap, count, cap.min(m)))
    }
}

/// The capacity profile of a changing coalition, updated one facility
/// offer at a time — the incremental form of
/// [`coalition_profile`](crate::coalition_profile).
///
/// Holds the merged capacity of every location currently held plus a
/// histogram of how many locations sit at each capacity level, so an
/// [`add`](ProfileAccumulator::add) or a
/// [`remove`](ProfileAccumulator::remove) touches only that offer's
/// locations. A location whose capacity drops to zero leaves the map, and
/// a level that empties leaves the histogram, so both always hold exactly
/// what a fresh merge would. Capacities are integers, so after any
/// sequence of adds and removes [`profile`](ProfileAccumulator::profile)
/// equals `coalition_profile` of the offers currently held exactly, in
/// whatever order they came and went.
#[derive(Debug, Default)]
pub(crate) struct ProfileAccumulator {
    capacity: BTreeMap<LocationId, u64>,
    histogram: BTreeMap<u64, u64>,
}

impl ProfileAccumulator {
    /// Adds one facility's offer, summing capacity where it overlaps
    /// locations already held (zero-capacity entries add nothing, as in
    /// [`LocationOffer::merge`]).
    pub(crate) fn add(&mut self, offer: &LocationOffer) {
        for (location, r) in offer.iter().filter(|&(_, r)| r > 0) {
            let cap = self.capacity.entry(location).or_insert(0);
            // Move the location off its old level (a new one has none).
            leave_level(&mut self.histogram, *cap);
            *cap += r;
            *self.histogram.entry(*cap).or_insert(0) += 1;
        }
    }

    /// Removes one facility's offer, previously added: the inverse of
    /// [`add`](ProfileAccumulator::add).
    pub(crate) fn remove(&mut self, offer: &LocationOffer) {
        for (location, r) in offer.iter().filter(|&(_, r)| r > 0) {
            if let Entry::Occupied(mut held) = self.capacity.entry(location) {
                leave_level(&mut self.histogram, *held.get());
                let left = *held.get() - r;
                if left == 0 {
                    held.remove();
                } else {
                    held.insert(left);
                    *self.histogram.entry(left).or_insert(0) += 1;
                }
            }
        }
    }

    /// The profile of everything currently held, read straight off the
    /// histogram, which never keeps an empty level.
    pub(crate) fn profile(&self) -> CapacityProfile {
        CapacityProfile::from_histogram(&self.histogram)
    }
}

/// Takes one location off capacity level `cap`, dropping the level when
/// it empties (level 0, a location not yet held, has no entry).
fn leave_level(histogram: &mut BTreeMap<u64, u64>, cap: u64) {
    if let Entry::Occupied(mut level) = histogram.entry(cap) {
        *level.get_mut() -= 1;
        if *level.get() == 0 {
            level.remove();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_matches_the_merged_profile_in_any_order() {
        let mut offers = [
            LocationOffer::contiguous(0, 10, 3),
            LocationOffer::contiguous(5, 10, 2),
            LocationOffer::contiguous(8, 4, 1),
            LocationOffer::new(),
        ];
        offers[3].add(9, 6);
        offers[3].add(40, 2);
        for order in [[0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]] {
            let mut acc = ProfileAccumulator::default();
            assert_eq!(acc.profile(), CapacityProfile::empty());
            for (k, &i) in order.iter().enumerate() {
                acc.add(&offers[i]);
                let merged = LocationOffer::merge(order[..=k].iter().map(|&j| &offers[j]));
                assert_eq!(
                    acc.profile(),
                    CapacityProfile::from_offer(&merged),
                    "{order:?} @ {k}"
                );
            }
        }
    }

    #[test]
    fn accumulator_tracks_adds_and_removes_down_to_empty() {
        let mut offers = [
            LocationOffer::contiguous(0, 10, 3),
            LocationOffer::contiguous(5, 10, 2),
            LocationOffer::contiguous(8, 4, 1),
            LocationOffer::new(),
        ];
        offers[3].add(9, 6);
        offers[3].add(40, 2);
        // Each step toggles one facility: a held one is removed, any
        // other added. Every sequence ends with nothing held.
        let sequences: [&[usize]; 3] = [
            &[0, 1, 2, 3, 0, 2, 3, 1],
            &[3, 2, 3, 1, 3, 2, 1, 3],
            &[1, 0, 1, 2, 1, 0, 2, 1],
        ];
        for steps in sequences {
            let mut acc = ProfileAccumulator::default();
            let mut held: Vec<usize> = Vec::new();
            for (k, &i) in steps.iter().enumerate() {
                if held.contains(&i) {
                    acc.remove(&offers[i]);
                    held.retain(|&j| j != i);
                } else {
                    acc.add(&offers[i]);
                    held.push(i);
                }
                let merged = LocationOffer::merge(held.iter().map(|&j| &offers[j]));
                let want = CapacityProfile::from_offer(&merged);
                // The profile is read off the histogram as is, so an
                // emptied level left behind shows here.
                assert_eq!(acc.profile(), want, "{steps:?} @ {k}");
                // An emptied location left behind shows here.
                let locations: Vec<(LocationId, u64)> =
                    acc.capacity.iter().map(|(&l, &c)| (l, c)).collect();
                let merged: Vec<(LocationId, u64)> = merged.iter().collect();
                assert_eq!(locations, merged, "{steps:?} @ {k}");
            }
            assert_eq!(acc.profile(), CapacityProfile::empty());
        }
    }

    #[test]
    fn uniform_offer_counts() {
        let o = LocationOffer::contiguous(0, 100, 80);
        assert_eq!(o.n_locations(), 100);
        assert_eq!(o.total_slots(), 8000);
        assert_eq!(o.capacity_at(5), 80);
        assert_eq!(o.capacity_at(100), 0);
    }

    #[test]
    fn merge_sums_overlapping_capacity() {
        let a = LocationOffer::contiguous(0, 10, 3);
        let b = LocationOffer::contiguous(5, 10, 2); // overlaps on 5..10
        let m = LocationOffer::merge([&a, &b]);
        assert_eq!(m.n_locations(), 15);
        assert_eq!(m.capacity_at(4), 3);
        assert_eq!(m.capacity_at(7), 5);
        assert_eq!(m.capacity_at(12), 2);
        assert_eq!(m.total_slots(), 30 + 20);
    }

    #[test]
    fn profile_groups_and_b_function() {
        // Fig. 6-style coalition {1,2}: 100 locations at cap 80 + 400 at 20.
        let profile = CapacityProfile::from_groups(vec![(80, 100), (20, 400)]);
        assert_eq!(profile.n_locations(), 500);
        assert_eq!(profile.total_slots(), 16_000);
        assert_eq!(profile.max_capacity(), 80);
        // B(m) = 100·min(80,m) + 400·min(20,m).
        assert_eq!(profile.usable_slots(1), 500);
        assert_eq!(profile.usable_slots(20), 10_000);
        assert_eq!(profile.usable_slots(40), 12_000);
        assert_eq!(profile.usable_slots(80), 16_000);
        assert_eq!(profile.usable_slots(1000), 16_000);
    }

    #[test]
    fn b_is_concave_nondecreasing() {
        let profile = CapacityProfile::from_groups(vec![(7, 3), (2, 11), (40, 1)]);
        let mut prev = 0;
        let mut prev_delta = u64::MAX;
        for m in 1..=50 {
            let b = profile.usable_slots(m);
            let delta = b - prev;
            assert!(delta <= prev_delta, "B must be concave");
            assert_eq!(
                delta,
                profile.locations_with_capacity_at_least(m),
                "δ(m) = #locations with capacity ≥ m"
            );
            prev = b;
            prev_delta = delta;
        }
    }

    #[test]
    fn profile_from_offer_matches_groups() {
        let mut o = LocationOffer::contiguous(0, 3, 5);
        o.add(100, 5);
        o.add(101, 9);
        let p = CapacityProfile::from_offer(&o);
        assert_eq!(p.groups(), &[(5, 4), (9, 1)]);
    }

    #[test]
    fn empty_profile_is_harmless() {
        let p = CapacityProfile::empty();
        assert_eq!(p.n_locations(), 0);
        assert_eq!(p.usable_slots(10), 0);
        assert_eq!(p.max_capacity(), 0);
    }

    #[test]
    fn zero_capacity_groups_are_dropped() {
        let p = CapacityProfile::from_groups(vec![(0, 10), (3, 2)]);
        assert_eq!(p.n_locations(), 2);
    }
}
