//! The user-facing slice API: create, inspect, and delete slices against
//! a live federation state.
//!
//! The batch simulator ([`crate::run_coalition_faulted`]) replays
//! workloads; this module is the *interactive* counterpart — the
//! operations PlanetLab exposes to researchers (§1.2: "a slice consists of
//! one virtual machine on each of a set of nodes"), with SFA-style
//! credential checks and MySlice-style node selection.

use crate::federation::{Credential, Federation};
use crate::selection::{select, NodeQuery};
use fedval_core::{ExperimentClass, LocationId, Utility};
use std::collections::BTreeMap;

/// A live sliver: `r` resource units on one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sliver {
    /// Index into the manager's node table.
    pub node: usize,
    /// Location of that node.
    pub location: LocationId,
    /// Resource units held.
    pub units: u64,
}

/// A live slice.
#[derive(Debug, Clone)]
pub struct Slice {
    /// Slice id (unique per manager).
    pub id: u64,
    /// Owner credential that created it.
    pub owner: Credential,
    /// The slivers composing the slice.
    pub slivers: Vec<Sliver>,
    /// Utility of the slice per the owning experiment class.
    pub utility: f64,
}

impl Slice {
    /// Distinct locations the slice spans.
    pub fn n_locations(&self) -> usize {
        let mut locs: Vec<LocationId> = self.slivers.iter().map(|s| s.location).collect();
        locs.sort_unstable();
        locs.dedup();
        locs.len()
    }
}

/// Why a slice request was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SliceError {
    /// The credential's integrity tag does not verify.
    BadCredential,
    /// The issuing authority is not a federation member.
    UnknownAuthority,
    /// Not enough distinct locations with free capacity to clear the
    /// class's diversity threshold. Carries the number available.
    InsufficientDiversity(u64),
    /// No such slice.
    NoSuchSlice,
}

impl std::fmt::Display for SliceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SliceError::BadCredential => write!(f, "credential failed verification"),
            SliceError::UnknownAuthority => write!(f, "credential from unknown authority"),
            SliceError::InsufficientDiversity(n) => {
                write!(f, "only {n} distinct locations available")
            }
            SliceError::NoSuchSlice => write!(f, "no such slice"),
        }
    }
}

impl std::error::Error for SliceError {}

struct ManagedNode {
    location: LocationId,
    capacity: u64,
    used: u64,
}

/// Tracks live slices and node occupancy for a federation.
pub struct SliceManager {
    federation: Federation,
    nodes: Vec<ManagedNode>,
    slices: BTreeMap<u64, Slice>,
    next_id: u64,
}

impl SliceManager {
    /// Creates a manager over all nodes of the federation.
    pub fn new(federation: Federation) -> SliceManager {
        let nodes = federation
            .registry()
            .into_iter()
            .map(|r| ManagedNode {
                location: r.location,
                capacity: r.sliver_capacity,
                used: 0,
            })
            .collect();
        SliceManager {
            federation,
            nodes,
            slices: BTreeMap::new(),
            next_id: 1,
        }
    }

    /// The managed federation.
    pub fn federation(&self) -> &Federation {
        &self.federation
    }

    /// Number of live slices.
    pub fn n_slices(&self) -> usize {
        self.slices.len()
    }

    /// Total resource units currently in use.
    pub fn units_in_use(&self) -> u64 {
        self.nodes.iter().map(|n| n.used).sum()
    }

    /// Creates a slice for `class`, optionally restricted to nodes
    /// matching `query` (MySlice-style property selection).
    ///
    /// Placement: one least-loaded eligible node per matching location
    /// (up to the class's `l̄`); the class's `r` units per chosen node.
    /// Fails without side effects if the diversity threshold cannot be
    /// met.
    ///
    /// # Errors
    /// [`SliceError::BadCredential`] or [`SliceError::UnknownAuthority`] when
    /// the credential fails verification, and
    /// [`SliceError::InsufficientDiversity`] when too few distinct locations
    /// have capacity to clear the class's threshold.
    pub fn create_slice(
        &mut self,
        owner: &Credential,
        class: &ExperimentClass,
        query: Option<&NodeQuery>,
    ) -> Result<u64, SliceError> {
        if !owner.verify() {
            return Err(SliceError::BadCredential);
        }
        if owner.authority as usize >= self.federation.len() {
            return Err(SliceError::UnknownAuthority);
        }

        // Candidate node indices: registry order matches `self.nodes`.
        let allowed: Vec<bool> = match query {
            None => vec![true; self.nodes.len()],
            Some(q) => {
                let matching = select(&self.federation, q);
                // Mark nodes by (location, capacity, count) — registry
                // order is deterministic, so re-run the predicate.
                self.federation
                    .registry()
                    .iter()
                    .map(|r| matching.nodes.contains(r))
                    .collect()
            }
        };

        let r = class.resources_per_location;
        // Best (least-loaded) eligible node per location.
        let mut per_location: BTreeMap<LocationId, usize> = BTreeMap::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if !allowed[i] || node.used + r > node.capacity {
                continue;
            }
            per_location
                .entry(node.location)
                .and_modify(|best| {
                    if node.used < self.nodes[*best].used {
                        *best = i;
                    }
                })
                .or_insert(i);
        }
        let available = per_location.len() as u64;
        let want = class.max_size(available);
        if (want as f64) <= class.utility.threshold {
            return Err(SliceError::InsufficientDiversity(available));
        }
        let mut chosen: Vec<usize> = per_location.into_values().collect();
        chosen.sort_by_key(|&i| (self.nodes[i].used, i));
        chosen.truncate(usize::try_from(want).unwrap_or(usize::MAX));

        let slivers: Vec<Sliver> = chosen
            .iter()
            .map(|&i| {
                self.nodes[i].used += r;
                Sliver {
                    node: i,
                    location: self.nodes[i].location,
                    units: r,
                }
            })
            .collect();
        let id = self.next_id;
        self.next_id += 1;
        self.slices.insert(
            id,
            Slice {
                id,
                owner: owner.clone(),
                utility: class.utility.eval(want as f64),
                slivers,
            },
        );
        Ok(id)
    }

    /// Looks up a live slice.
    pub fn slice(&self, id: u64) -> Option<&Slice> {
        self.slices.get(&id)
    }

    /// Deletes a slice, releasing its slivers.
    ///
    /// # Errors
    /// [`SliceError::NoSuchSlice`] when `id` is not a live slice.
    pub fn delete_slice(&mut self, id: u64) -> Result<(), SliceError> {
        let slice = self.slices.remove(&id).ok_or(SliceError::NoSuchSlice)?;
        for sliver in &slice.slivers {
            debug_assert!(self.nodes[sliver.node].used >= sliver.units);
            self.nodes[sliver.node].used -= sliver.units;
        }
        Ok(())
    }

    /// Total utility of all live slices.
    pub fn total_utility(&self) -> f64 {
        self.slices.values().map(|s| s.utility).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authority::synthetic_authority;

    fn manager() -> SliceManager {
        SliceManager::new(Federation::new(vec![
            synthetic_authority("PLC", 0, 6, 2, 2, 10),
            synthetic_authority("PLE", 6, 4, 2, 2, 10),
        ]))
    }

    fn cred() -> Credential {
        Credential::issue(0, 7)
    }

    #[test]
    fn create_inspect_delete_round_trip() {
        let mut m = manager();
        let class = ExperimentClass::simple("e", 5.0, 1.0);
        let id = m.create_slice(&cred(), &class, None).unwrap();
        let slice = m.slice(id).unwrap();
        assert_eq!(slice.n_locations(), 10);
        assert_eq!(slice.utility, 10.0);
        assert_eq!(m.units_in_use(), 10);
        m.delete_slice(id).unwrap();
        assert_eq!(m.units_in_use(), 0);
        assert_eq!(m.n_slices(), 0);
        assert_eq!(m.delete_slice(id), Err(SliceError::NoSuchSlice));
    }

    #[test]
    fn rejects_forged_credentials() {
        let mut m = manager();
        let mut forged = cred();
        forged.user = 99;
        let class = ExperimentClass::simple("e", 1.0, 1.0);
        assert_eq!(
            m.create_slice(&forged, &class, None),
            Err(SliceError::BadCredential)
        );
        let foreign = Credential::issue(9, 1);
        assert_eq!(
            m.create_slice(&foreign, &class, None),
            Err(SliceError::UnknownAuthority)
        );
    }

    #[test]
    fn capacity_exhaustion_blocks_politely() {
        let mut m = manager();
        // Each location has 2 nodes × 2 slivers = 4 capacity; a slice
        // takes 1 unit at one node per location. 4 wide slices fill the
        // per-location best nodes' capacity...
        let class = ExperimentClass::simple("e", 9.0, 1.0);
        let mut created = 0;
        loop {
            match m.create_slice(&cred(), &class, None) {
                Ok(_) => created += 1,
                Err(SliceError::InsufficientDiversity(n)) => {
                    assert!(n < 10);
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
            assert!(created < 100, "must eventually exhaust");
        }
        // 10 locations × 4 slivers = 40 units; each slice takes 10.
        assert_eq!(created, 4);
    }

    #[test]
    fn query_restricts_placement() {
        let mut m = manager();
        let class = ExperimentClass::simple("e", 3.0, 1.0);
        // Only PLE's block (locations 6..10).
        let q = NodeQuery::any().in_location_range(6, 10);
        let id = m.create_slice(&cred(), &class, Some(&q)).unwrap();
        let slice = m.slice(id).unwrap();
        assert_eq!(slice.n_locations(), 4);
        assert!(slice.slivers.iter().all(|s| s.location >= 6));
        // A too-narrow query fails cleanly.
        let tight = NodeQuery::any().in_location_range(6, 8);
        let err = m.create_slice(&cred(), &class, Some(&tight));
        assert_eq!(err, Err(SliceError::InsufficientDiversity(2)));
    }

    #[test]
    fn failed_creation_has_no_side_effects() {
        let mut m = manager();
        let class = ExperimentClass::simple("e", 50.0, 1.0); // impossible
        let before = m.units_in_use();
        let _ = m.create_slice(&cred(), &class, None);
        assert_eq!(m.units_in_use(), before);
        assert_eq!(m.n_slices(), 0);
    }
}
