//! Seeded large-n federation generator — the PlanetLab-scale workload.
//!
//! The paper's federation story is about *hundreds* of authorities, far
//! past the `2^n` exact solvers. This module fabricates such federations
//! deterministically so the sampled-Shapley path
//! ([`fedval_coalition::shapley_auto_wide`]) has a first-class workload:
//! `fedval-serve --synthetic`, the `bench_pipeline` approx section, and the
//! CI n=200 smoke all build their scenarios here from a `(n, seed)` pair,
//! which pins every downstream byte.
//!
//! Authority sizes follow the skew real PlanetLab exhibits: most sites
//! contribute a handful of nodes, a few contribute big blocks. Location
//! ranges never overlap (each authority owns a contiguous block), so the
//! merged coalition profile is just the concatenation the allocation
//! optimizer expects.

use fedval_core::{Demand, ExperimentClass, Facility, FederationScenario};

/// Smallest location block an authority contributes.
const MIN_LOCATIONS: u32 = 4;

/// SplitMix64 — the same seeded stream discipline as `fedval-serve`'s
/// chaos injector; deterministic and dependency-free.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The raw `(locations, capacity)` draw per authority plus the demand
/// threshold — the spec-level form of [`synthetic_federation`], for
/// consumers (like `fedval-serve --synthetic`) that build their own
/// facility objects from location/capacity vectors.
///
/// # Panics
/// Panics if `n == 0` (a federation needs at least one authority).
pub fn synthetic_profile(n: usize, seed: u64) -> (Vec<(u32, u64)>, f64) {
    assert!(n > 0, "need at least one authority");
    let mut rng = seed ^ 0x5CA1_AB1E_F00D_CAFE;
    let mut draws = Vec::with_capacity(n);
    let mut total: u64 = 0;
    for _ in 0..n {
        let roll = splitmix64(&mut rng);
        // 1-in-8 authorities are "large" (up to ~64 locations); the rest
        // draw uniformly from the small range.
        let locations = if roll & 7 == 0 {
            // lint: allow(lossy-cast) — the modulus bounds the value below
            // 48 before the cast; exact.
            MIN_LOCATIONS + 16 + ((roll >> 8) % 48) as u32
        } else {
            // lint: allow(lossy-cast) — bounded below 16 by the modulus.
            MIN_LOCATIONS + ((roll >> 8) % 16) as u32
        };
        let capacity = 1 + (splitmix64(&mut rng) % 4);
        draws.push((locations, capacity));
        total += locations as u64;
    }
    let threshold = (total as f64 * 0.3).floor();
    (draws, threshold)
}

/// Generates a synthetic federation of `n` authorities from `seed`.
///
/// Each authority contributes a contiguous block of locations whose size is
/// drawn from a skewed distribution (mostly [`MIN_LOCATIONS`]..20, with
/// ~1-in-8 "large" authorities up to ~64 — the PlanetLab site-size skew)
/// and a per-location sliver capacity in 1..=4. The demand is a single
/// threshold experiment whose threshold sits at 30% of the federation's
/// total location count, so marginal contributions are genuinely
/// position-dependent: early coalition members are below threshold and
/// contribute nothing, later members tip the coalition over.
///
/// The output is a pure function of `(n, seed)` — same inputs, same
/// facilities, same demand, same downstream Shapley bytes.
///
/// # Panics
/// Panics if `n == 0` (a federation needs at least one authority).
pub fn synthetic_federation(n: usize, seed: u64) -> (Vec<Facility>, Demand) {
    let (draws, threshold) = synthetic_profile(n, seed);
    let mut facilities = Vec::with_capacity(n);
    let mut start: u32 = 0;
    for (i, &(locations, capacity)) in draws.iter().enumerate() {
        facilities.push(Facility::uniform(
            format!("authority-{i}"),
            start,
            locations,
            capacity,
        ));
        start += locations;
    }
    let demand = Demand::one_experiment(ExperimentClass::simple("scale", threshold, 1.0));
    (facilities, demand)
}

/// [`synthetic_federation`] packaged as a ready-to-query
/// [`FederationScenario`].
pub fn synthetic_scenario(n: usize, seed: u64) -> FederationScenario {
    let (facilities, demand) = synthetic_federation(n, seed);
    FederationScenario::new(facilities, demand)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedval_coalition::WideGame;
    use fedval_core::FederationGame;

    #[test]
    fn generator_is_deterministic() {
        let (a, _) = synthetic_federation(50, 7);
        let (b, _) = synthetic_federation(50, 7);
        assert_eq!(a.len(), 50);
        for (fa, fb) in a.iter().zip(&b) {
            assert_eq!(fa.name, fb.name);
            assert_eq!(fa.offer.n_locations(), fb.offer.n_locations());
        }
        // A different seed reshapes the federation.
        let (c, _) = synthetic_federation(50, 8);
        let sizes = |fs: &[Facility]| -> Vec<usize> {
            fs.iter().map(|f| f.offer.n_locations()).collect()
        };
        assert_ne!(sizes(&a), sizes(&c));
    }

    #[test]
    fn n200_federation_is_wide_game_ready() {
        let (facilities, demand) = synthetic_federation(200, 42);
        let game = FederationGame::new(&facilities, &demand);
        assert_eq!(game.n_players(), 200);
        // The grand coalition clears the threshold; small prefixes do not.
        let all: Vec<usize> = (0..200).collect();
        assert!(game.value_members(&all) > 0.0);
        assert_eq!(game.value_members(&[0, 1]), 0.0);
        assert_eq!(game.value_members(&[]), 0.0);
    }
}
