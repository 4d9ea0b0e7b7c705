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
        let groups: Vec<(u64, u64)> = by_cap.into_iter().collect();
        let n_locations = groups.iter().map(|&(_, n)| n).sum();
        let total_slots = groups.iter().map(|&(c, n)| c * n).sum();
        CapacityProfile {
            groups,
            n_locations,
            total_slots,
        }
    }

    /// Moves `count` locations from capacity `from` to capacity `to`,
    /// where capacity 0 means not held: the in-place update behind
    /// [`ProfileAccumulator`]. A group that empties is dropped, so the
    /// groups stay sorted, distinct and positive.
    fn move_locations(&mut self, from: u64, to: u64, count: u64) {
        if from > 0 {
            if let Ok(pos) = self.groups.binary_search_by_key(&from, |&(c, _)| c) {
                self.groups[pos].1 -= count;
                if self.groups[pos].1 == 0 {
                    self.groups.remove(pos);
                }
                self.n_locations -= count;
                self.total_slots -= from * count;
            }
        }
        if to > 0 {
            match self.groups.binary_search_by_key(&to, |&(c, _)| c) {
                Ok(pos) => self.groups[pos].1 += count,
                Err(pos) => self.groups.insert(pos, (to, count)),
            }
            self.n_locations += count;
            self.total_slots += to * count;
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

/// A dense numbering of the locations a fixed list of offers uses: the
/// distinct location ids, sorted, become slots `0..m`, and each offer is
/// kept as its `(slot, capacity)` entries, one flat run per offer. A
/// walk over those offers then indexes an `m`-long array instead of an
/// ordered map. Nothing is sized by a raw [`LocationId`], which may be
/// any `u32`; zero-capacity entries are dropped, as
/// [`LocationOffer::add`] drops them.
#[derive(Debug)]
pub(crate) struct SlotIndex {
    /// Every offer's entries as `(slot, capacity)`, offer after offer.
    entries: Vec<(usize, u64)>,
    /// Offer `p`'s entries are `entries[starts[p]..starts[p + 1]]`.
    starts: Vec<usize>,
    /// Number of distinct locations across the offers.
    slots: usize,
}

impl SlotIndex {
    /// Numbers the locations of `offers`, in offer order.
    pub(crate) fn new<'a, I>(offers: I) -> SlotIndex
    where
        I: IntoIterator<Item = &'a LocationOffer>,
        I::IntoIter: Clone,
    {
        let offers = offers.into_iter();
        let held = |offer: &'a LocationOffer| offer.iter().filter(|&(_, r)| r > 0);
        let mut ids: Vec<LocationId> = offers.clone().flat_map(held).map(|(l, _)| l).collect();
        let mut entries = Vec::with_capacity(ids.len());
        ids.sort_unstable();
        ids.dedup();
        let mut starts = vec![0];
        for offer in offers {
            entries.extend(held(offer).map(|(l, r)| (ids.partition_point(|&id| id < l), r)));
            starts.push(entries.len());
        }
        SlotIndex {
            entries,
            starts,
            slots: ids.len(),
        }
    }

    /// Offer `p`'s `(slot, capacity)` entries.
    pub(crate) fn offer(&self, p: usize) -> &[(usize, u64)] {
        &self.entries[self.starts[p]..self.starts[p + 1]]
    }

    /// Number of slots (distinct locations).
    pub(crate) fn slots(&self) -> usize {
        self.slots
    }
}

/// The capacity profile of a changing coalition, updated one facility
/// offer at a time — the incremental form of
/// [`coalition_profile`](crate::coalition_profile).
///
/// Holds the merged capacity of every slot of a [`SlotIndex`] and the
/// profile itself. An [`add`](ProfileAccumulator::add) or a
/// [`remove`](ProfileAccumulator::remove) touches only that offer's
/// slots, moving each location from its old capacity group to its new
/// one in place; consecutive entries that move between the same two
/// capacities move as one group update (a disjoint uniform offer is one
/// update in all). A group that empties leaves the profile, so it always
/// holds exactly what a fresh merge would. Capacities are integers, so
/// after any sequence of adds and removes
/// [`profile`](ProfileAccumulator::profile) equals `coalition_profile`
/// of the offers currently held exactly, in whatever order they came
/// and went.
#[derive(Debug)]
pub(crate) struct ProfileAccumulator {
    capacity: Vec<u64>,
    profile: CapacityProfile,
}

impl ProfileAccumulator {
    /// Holds nothing, over `slots` slots.
    pub(crate) fn new(slots: usize) -> ProfileAccumulator {
        ProfileAccumulator {
            capacity: vec![0; slots],
            profile: CapacityProfile::empty(),
        }
    }

    /// Adds one offer's [`SlotIndex::offer`] entries, summing capacity
    /// where it overlaps slots already held.
    pub(crate) fn add(&mut self, entries: &[(usize, u64)]) {
        self.update(entries, |held, r| held + r);
    }

    /// Removes one offer's entries, previously added: the inverse of
    /// [`add`](ProfileAccumulator::add).
    pub(crate) fn remove(&mut self, entries: &[(usize, u64)]) {
        self.update(entries, |held, r| held - r);
    }

    /// Sets each entry's slot to `step(held, r)` and moves its location
    /// to the new capacity group. An offer's slots are distinct, so a run
    /// of consecutive entries from one capacity to one other moves that
    /// many locations at once, with the same result as one by one.
    fn update(&mut self, entries: &[(usize, u64)], step: impl Fn(u64, u64) -> u64) {
        // The pending run (from, to, locations); (0, 0, 0) moves nothing.
        let mut run = (0, 0, 0);
        for &(slot, r) in entries {
            let held = self.capacity[slot];
            let next = step(held, r);
            self.capacity[slot] = next;
            if (held, next) == (run.0, run.1) {
                run.2 += 1;
            } else {
                self.profile.move_locations(run.0, run.1, run.2);
                run = (held, next, 1);
            }
        }
        self.profile.move_locations(run.0, run.1, run.2);
    }

    /// The profile of everything currently held.
    pub(crate) fn profile(&self) -> &CapacityProfile {
        &self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four overlapping offers, two reaching out to `u32::MAX`.
    fn overlapping_offers() -> [LocationOffer; 4] {
        let mut offers = [
            LocationOffer::contiguous(0, 10, 3),
            LocationOffer::contiguous(5, 10, 2),
            LocationOffer::contiguous(8, 4, 1),
            LocationOffer::new(),
        ];
        offers[3].add(9, 6);
        offers[3].add(40, 2);
        offers[3].add(u32::MAX, 4);
        offers[2].add(u32::MAX, 1);
        offers
    }

    #[test]
    fn slot_index_numbers_distinct_locations_in_id_order() {
        let offers = overlapping_offers();
        let index = SlotIndex::new(&offers);
        // 0..15, 40 and u32::MAX.
        assert_eq!(index.slots(), 17);
        let first: Vec<(usize, u64)> = (0..10).map(|s| (s, 3)).collect();
        assert_eq!(index.offer(0), &first[..]);
        assert_eq!(index.offer(3), &[(9, 6), (15, 2), (16, 4)]);
        assert_eq!(index.offer(2).last(), Some(&(16, 1)));
    }

    #[test]
    fn accumulator_matches_the_merged_profile_in_any_order() {
        let offers = overlapping_offers();
        let index = SlotIndex::new(&offers);
        for order in [[0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]] {
            let mut acc = ProfileAccumulator::new(index.slots());
            assert_eq!(acc.profile(), &CapacityProfile::empty());
            for (k, &i) in order.iter().enumerate() {
                acc.add(index.offer(i));
                let merged = LocationOffer::merge(order[..=k].iter().map(|&j| &offers[j]));
                assert_eq!(
                    acc.profile(),
                    &CapacityProfile::from_offer(&merged),
                    "{order:?} @ {k}"
                );
            }
        }
    }

    #[test]
    fn accumulator_tracks_adds_and_removes_down_to_empty() {
        let offers = overlapping_offers();
        let index = SlotIndex::new(&offers);
        // Slot `s` holds the `s`-th smallest id any offer holds.
        let mut ids: Vec<LocationId> = offers
            .iter()
            .flat_map(|o| o.iter().filter(|&(_, r)| r > 0).map(|(l, _)| l))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        // Each step toggles one facility: a held one is removed, any
        // other added. Every sequence ends with nothing held.
        let sequences: [&[usize]; 3] = [
            &[0, 1, 2, 3, 0, 2, 3, 1],
            &[3, 2, 3, 1, 3, 2, 1, 3],
            &[1, 0, 1, 2, 1, 0, 2, 1],
        ];
        for steps in sequences {
            let mut acc = ProfileAccumulator::new(index.slots());
            let mut held: Vec<usize> = Vec::new();
            for (k, &i) in steps.iter().enumerate() {
                if held.contains(&i) {
                    acc.remove(index.offer(i));
                    held.retain(|&j| j != i);
                } else {
                    acc.add(index.offer(i));
                    held.push(i);
                }
                let merged = LocationOffer::merge(held.iter().map(|&j| &offers[j]));
                // An emptied group left behind shows here.
                assert_eq!(
                    acc.profile(),
                    &CapacityProfile::from_offer(&merged),
                    "{steps:?} @ {k}"
                );
                // A capacity left behind on an emptied slot shows here.
                let want: Vec<u64> = ids.iter().map(|&l| merged.capacity_at(l)).collect();
                assert_eq!(acc.capacity, want, "{steps:?} @ {k}");
            }
            assert_eq!(acc.profile(), &CapacityProfile::empty());
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
