//! Hierarchical federation sharing (§1.2 / §6 of the paper).
//!
//! PlanetLab is a two-level federation: *sites* contribute nodes to their
//! *authority* (PLC, PLE, PLJ), and authorities federate at the top. The
//! paper treats the top level only ("in future work, we will study the
//! interdependencies between local and global federation policies"); this
//! module implements that next step with the Owen value: sites are the
//! players, authorities are the a priori unions, and the Owen quotient
//! property guarantees the two levels are consistent — each authority's
//! sites jointly receive exactly the authority's top-level Shapley share.

use fedval_coalition::{owen_value, quotient_game, shapley, Coalition, TableGame, WideGame};
use fedval_core::{Demand, Facility, FederationGame};

/// The two-level sharing result.
#[derive(Debug, Clone)]
pub struct HierarchicalShares {
    /// Top-level (authority) normalized shares — the quotient-game
    /// Shapley values.
    pub authority_shares: Vec<f64>,
    /// Per-site normalized shares (global: all sites sum to 1), grouped
    /// by authority in input order.
    pub site_shares: Vec<Vec<f64>>,
    /// Total federation value `V(N)`.
    pub grand_value: f64,
}

impl HierarchicalShares {
    /// Monetary payoff of site `s` of authority `a`.
    pub fn site_payoff(&self, a: usize, s: usize) -> f64 {
        self.site_shares[a][s] * self.grand_value
    }
}

/// Computes hierarchical Shapley/Owen shares for sites grouped by
/// authority.
///
/// `site_groups[a]` lists the facilities (sites) of authority `a`. The
/// total number of sites must be ≤ 16 (the Owen computation evaluates the
/// site-level characteristic function `O(2^u · 2^b)` times per player).
///
/// # Panics
/// Panics if there are no sites, more than 16, a coalition value is NaN
/// or infinite, or the demand is not supported by the allocation
/// optimizer.
pub fn hierarchical_shapley(site_groups: &[Vec<Facility>], demand: &Demand) -> HierarchicalShares {
    let flat: Vec<Facility> = site_groups.iter().flatten().cloned().collect();
    let n = flat.len();
    assert!(n >= 1, "need at least one site");
    assert!(n <= 16, "hierarchical computation limited to 16 sites");

    // Unions: contiguous player-id blocks per authority.
    let mut unions = Vec::with_capacity(site_groups.len());
    let mut next = 0usize;
    for group in site_groups {
        assert!(!group.is_empty(), "authorities must own at least one site");
        unions.push(Coalition::from_players(next..next + group.len()));
        next += group.len();
    }

    // The Owen value reads every coalition many times over: fill the 2ⁿ
    // table once, then each read is an array lookup.
    let tables = TableGame::try_from_walk(&FederationGame::new(&flat, demand), 1)
        .and_then(|game| quotient_game(&game, &unions).map(|quotient| (quotient, game)));
    let (quotient, game) = match tables {
        Ok(tables) => tables,
        #[expect(
            clippy::panic,
            reason = "documented `# Panics`: n ≤ 16 is asserted above, inside TableGame::MAX_PLAYERS, so only a non-finite coalition value fails the fill"
        )]
        Err(e) => panic!("hierarchical_shapley: {e}"),
    };
    let grand_value = game.grand_value();

    let owen = owen_value(&game, &unions);
    let authority_raw = shapley(&quotient);

    let normalize = |v: Vec<f64>| -> Vec<f64> {
        if grand_value.abs() < 1e-12 {
            vec![0.0; v.len()]
        } else {
            v.into_iter().map(|x| x / grand_value).collect()
        }
    };
    let owen_hat = normalize(owen);
    let authority_shares = normalize(authority_raw);

    let mut site_shares = Vec::with_capacity(site_groups.len());
    let mut idx = 0usize;
    for group in site_groups {
        site_shares.push(owen_hat[idx..idx + group.len()].to_vec());
        idx += group.len();
    }

    HierarchicalShares {
        authority_shares,
        site_shares,
        grand_value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedval_core::{ExperimentClass, Facility};

    /// Two authorities: A with two 4-location sites, B with one
    /// 6-location site; experiment needs > 9 distinct locations.
    fn site_groups() -> Vec<Vec<Facility>> {
        vec![
            vec![
                Facility::uniform("A-s1", 0, 4, 1),
                Facility::uniform("A-s2", 4, 4, 1),
            ],
            vec![Facility::uniform("B-s1", 8, 6, 1)],
        ]
    }

    fn demand() -> Demand {
        Demand::one_experiment(ExperimentClass::simple("e", 9.0, 1.0))
    }

    #[test]
    fn quotient_consistency_between_levels() {
        let h = hierarchical_shapley(&site_groups(), &demand());
        for (a, group) in h.site_shares.iter().enumerate() {
            let site_total: f64 = group.iter().sum();
            assert!(
                (site_total - h.authority_shares[a]).abs() < 1e-9,
                "authority {a}: sites sum {site_total} vs share {}",
                h.authority_shares[a]
            );
        }
        let total: f64 = h.authority_shares.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pivotal_small_site_earns_within_authority() {
        // V: any coalition with > 9 locations. A-s1+A-s2 = 8 < 10;
        // B-s1 alone = 6 < 10; A(8)+B(6) = 14 ≥ 10. Every serving
        // coalition needs B plus at least one A-site.
        let h = hierarchical_shapley(&site_groups(), &demand());
        // Grand value = 14 (the experiment takes all locations).
        assert!((h.grand_value - 14.0).abs() < 1e-9);
        // B is pivotal as a union: its share must exceed A's per-capita.
        assert!(h.authority_shares[1] > 0.3);
        // Symmetric sites within A get equal shares.
        let a = &h.site_shares[0];
        assert!((a[0] - a[1]).abs() < 1e-12);
        // Everything is non-negative.
        assert!(h.site_shares.iter().flatten().all(|&s| s >= -1e-12));
    }

    #[test]
    fn payoffs_scale_with_grand_value() {
        let h = hierarchical_shapley(&site_groups(), &demand());
        let total_payoff: f64 = (0..h.site_shares.len())
            .flat_map(|a| (0..h.site_shares[a].len()).map(move |s| (a, s)))
            .map(|(a, s)| h.site_payoff(a, s))
            .sum();
        assert!((total_payoff - h.grand_value).abs() < 1e-9);
    }

    #[test]
    fn single_authority_reduces_to_plain_site_shapley() {
        let groups = vec![vec![
            Facility::uniform("s1", 0, 3, 1),
            Facility::uniform("s2", 3, 5, 1),
        ]];
        let d = Demand::one_experiment(ExperimentClass::simple("e", 4.0, 1.0));
        let h = hierarchical_shapley(&groups, &d);
        assert!((h.authority_shares[0] - 1.0).abs() < 1e-9);
        let flat: Vec<Facility> = groups.concat();
        let plain = fedval_coalition::shapley_normalized(
            &TableGame::try_from_walk(&FederationGame::new(&flat, &d), 1).expect("2 sites"),
        );
        for (a, b) in h.site_shares[0].iter().zip(&plain) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}
