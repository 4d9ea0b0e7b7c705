//! Seeded large-n federation generator — the PlanetLab-scale workload —
//! and [`ScenarioSpec`], the one place command-line flags become a
//! federation.
//!
//! The paper's federation story is about *hundreds* of authorities, far
//! past the `2^n` exact solvers. This module fabricates such federations
//! deterministically so the sampled-Shapley path
//! ([`fedval_coalition::shapley_auto_wide`]) has a first-class workload:
//! `--synthetic` in `fedval`, `fedval-serve` and `fedform`, the
//! `bench_pipeline` approx section, and the CI n=200 smoke all build their
//! scenarios here from a `(n, seed)` pair, which pins every downstream
//! byte.
//!
//! `fedval` and `fedval-serve` read their shared scenario and sampling
//! flags through [`ScenarioArgs`] into a [`ScenarioSpec`], and
//! [`ScenarioSpec::scenario`] builds the [`FederationScenario`] both
//! answer from.
//!
//! Authority sizes follow the skew real PlanetLab exhibits: most sites
//! contribute a handful of nodes, a few contribute big blocks. Location
//! ranges never overlap (each authority owns a contiguous block), so the
//! merged coalition profile is just the concatenation the allocation
//! optimizer expects.

use fedval_coalition::{ApproxConfig, MAX_SAMPLED_PLAYERS};
use fedval_core::{Demand, ExperimentClass, Facility, FederationScenario, Volume};
use std::fmt::Display;
use std::str::FromStr;

/// Smallest location block an authority contributes.
const MIN_LOCATIONS: u32 = 4;

/// Most locations one facility may bring, on the command line
/// (`--locations`) or in a `fedval-serve` `what-if-join`: 2¹⁶, over 80×
/// the paper's largest facility (800 locations). A facility's cost grows
/// linearly with its locations.
pub const MAX_FACILITY_LOCATIONS: u32 = 1 << 16;

/// Largest per-location capacity one facility may bring (`u32::MAX`).
/// With [`MAX_FACILITY_LOCATIONS`] it keeps a facility below 2⁴⁸ slots,
/// so even [`MAX_SAMPLED_PLAYERS`] (2⁹) of them sum inside a `u64`.
pub const MAX_FACILITY_CAPACITY: u64 = u32::MAX as u64;

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
/// threshold, from which [`ScenarioSpec::synthetic`] (and so
/// [`synthetic_federation`]) builds the federation.
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
            MIN_LOCATIONS + 16 + ((roll >> 8) % 48) as u32
        } else {
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
/// drawn from a skewed distribution (mostly `MIN_LOCATIONS`..20, with
/// ~1-in-8 "large" authorities up to ~64 — the PlanetLab site-size skew)
/// and a per-location sliver capacity in 1..=4. The demand is a single
/// threshold experiment whose threshold sits at 30% of the federation's
/// total location count, so marginal contributions are genuinely
/// position-dependent: early coalition members are below threshold and
/// contribute nothing, later members tip the coalition over.
///
/// The output is a pure function of `(n, seed)` — same inputs, same
/// facilities, same demand, same downstream Shapley bytes. It is the
/// federation of [`ScenarioSpec::synthetic`]; use
/// `ScenarioSpec::synthetic(n, seed).scenario()` for a ready-to-query
/// [`FederationScenario`].
///
/// # Panics
/// Panics if `n == 0` (a federation needs at least one authority).
pub fn synthetic_federation(n: usize, seed: u64) -> (Vec<Facility>, Demand) {
    let spec = ScenarioSpec::synthetic(n, seed);
    (spec.facilities(), spec.demand())
}

/// A federation as the command line describes it: facility `i` brings
/// `locations[i]` locations of `capacities[i]` slots each, and the demand
/// is one experiment class (threshold ℓ, utility exponent d) at `volume`.
/// Kept apart from the built [`FederationScenario`] so derived federations
/// (serve's what-ifs) are cheap to describe.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Locations per facility.
    pub locations: Vec<u32>,
    /// Per-location capacity per facility.
    pub capacities: Vec<u64>,
    /// Diversity threshold ℓ of the single experiment class.
    pub threshold: f64,
    /// Utility exponent d.
    pub shape: f64,
    /// Number of experiments; `None` = capacity-filling demand.
    pub volume: Option<u64>,
}

impl ScenarioSpec {
    /// The paper's §4.1 worked example: L = (100, 400, 800), R = 1,
    /// ℓ = 500, d = 1, one experiment.
    pub fn paper_4_1() -> ScenarioSpec {
        ScenarioSpec {
            locations: vec![100, 400, 800],
            capacities: vec![1, 1, 1],
            threshold: 500.0,
            shape: 1.0,
            volume: Some(1),
        }
    }

    /// The seeded synthetic federation of [`synthetic_profile`]
    /// (`--synthetic N[:SEED]`): one experiment at the drawn threshold,
    /// d = 1.
    ///
    /// # Panics
    /// Panics if `n == 0`, as [`synthetic_profile`] does.
    pub fn synthetic(n: usize, seed: u64) -> ScenarioSpec {
        let (draws, threshold) = synthetic_profile(n, seed);
        ScenarioSpec {
            locations: draws.iter().map(|&(l, _)| l).collect(),
            capacities: draws.iter().map(|&(_, r)| r).collect(),
            threshold,
            shape: 1.0,
            volume: Some(1),
        }
    }

    /// Player count.
    pub fn n(&self) -> usize {
        self.locations.len()
    }

    /// The facilities: facility `i` is `facility-{i+1}` and owns the next
    /// `locations[i]` location ids, so offers never overlap and player
    /// order is spec order.
    pub fn facilities(&self) -> Vec<Facility> {
        let mut start = 0u32;
        self.locations
            .iter()
            .zip(&self.capacities)
            .enumerate()
            .map(|(i, (&l, &r))| {
                let f = Facility::uniform(format!("facility-{}", i + 1), start, l, r);
                start = start.saturating_add(l);
                f
            })
            .collect()
    }

    /// The demand: one experiment class (threshold ℓ, exponent d) at the
    /// spec's volume.
    pub fn demand(&self) -> Demand {
        let class = ExperimentClass::simple("scenario", self.threshold, self.shape);
        match self.volume {
            Some(1) => Demand::one_experiment(class),
            Some(k) => Demand::single(class, Volume::Count(k)),
            None => Demand::capacity_filling(class),
        }
    }

    /// Builds the scenario of [`ScenarioSpec::facilities`] and
    /// [`ScenarioSpec::demand`]. Threads and sampling parameters are the
    /// caller's ([`FederationScenario::with_threads`],
    /// [`FederationScenario::with_approx`]).
    pub fn scenario(&self) -> FederationScenario {
        FederationScenario::new(self.facilities(), self.demand())
    }
}

/// The scenario and sampling flags `fedval` and `fedval-serve` share:
/// `--locations`, `--capacities`, `--threshold`, `--shape`, `--volume`,
/// `--synthetic`, `--approx`, `--approx-samples`, `--approx-seed` and
/// `--confidence`. Each binary walks its own arguments, hands every flag
/// to [`ScenarioArgs::parse_flag`] first, and calls
/// [`ScenarioArgs::finish`] after the last one. The defaults reproduce the
/// paper's §4.1 example.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioArgs {
    /// The federation; `capacities` stays empty, meaning one slot per
    /// location, until [`ScenarioArgs::finish`].
    pub spec: ScenarioSpec,
    /// The sampled-Shapley budget, seed, confidence and `--approx` force
    /// flag.
    pub approx: ApproxConfig,
    /// Whether `--approx-samples` was given, so a budget planned from other
    /// flags (`fedval --epsilon`) yields to it.
    pub samples_given: bool,
}

impl Default for ScenarioArgs {
    fn default() -> ScenarioArgs {
        ScenarioArgs {
            spec: ScenarioSpec {
                capacities: Vec::new(),
                ..ScenarioSpec::paper_4_1()
            },
            approx: ApproxConfig::default(),
            samples_given: false,
        }
    }
}

impl ScenarioArgs {
    /// Applies `flag` when it is one of the shared flags, taking its value
    /// from `rest`; returns `false`, consuming nothing, for any other flag.
    /// Flags apply in command-line order: `--synthetic` replaces the whole
    /// federation, and later scenario flags edit it.
    ///
    /// # Errors
    /// A usage message when the flag's value is missing or malformed,
    /// `--approx-samples` is 0, `--confidence` lies outside (0, 1), or
    /// `--synthetic` is malformed or outside `1..=`[`MAX_SAMPLED_PLAYERS`].
    pub fn parse_flag<'a>(
        &mut self,
        flag: &str,
        rest: &mut impl Iterator<Item = &'a String>,
    ) -> Result<bool, String> {
        let mut value = || {
            rest.next()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag {
            "--approx" => self.approx.force = true,
            "--locations" => self.spec.locations = parse_list(flag, value()?)?,
            "--capacities" => self.spec.capacities = parse_list(flag, value()?)?,
            "--threshold" => self.spec.threshold = parse_value(flag, value()?)?,
            "--shape" => self.spec.shape = parse_value(flag, value()?)?,
            "--volume" => {
                let value = value()?;
                self.spec.volume = if value == "fill" {
                    None
                } else {
                    Some(parse_value(flag, value)?)
                };
            }
            "--synthetic" => {
                let (n, seed) = parse_synthetic(value()?)?;
                self.spec = ScenarioSpec::synthetic(n, seed);
            }
            "--approx-samples" => {
                self.approx.samples = parse_value(flag, value()?)?;
                if self.approx.samples == 0 {
                    return Err("--approx-samples must be at least 1".to_string());
                }
                self.samples_given = true;
            }
            "--approx-seed" => self.approx.seed = parse_value(flag, value()?)?,
            "--confidence" => {
                self.approx.confidence = parse_value(flag, value()?)?;
                if !(self.approx.confidence > 0.0 && self.approx.confidence < 1.0) {
                    return Err("--confidence must be strictly between 0 and 1".to_string());
                }
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Checks the federation once every flag is in, defaulting one slot
    /// per location when `--capacities` was not given.
    ///
    /// # Errors
    /// A usage message unless there are 1 to [`MAX_SAMPLED_PLAYERS`]
    /// facilities of at most [`MAX_FACILITY_LOCATIONS`] locations each,
    /// one capacity in 1..=[`MAX_FACILITY_CAPACITY`] per facility, a
    /// finite threshold ≥ 0 and a finite shape > 0.
    pub fn finish(&mut self) -> Result<(), String> {
        let spec = &mut self.spec;
        if spec.locations.is_empty() || spec.locations.len() > MAX_SAMPLED_PLAYERS {
            return Err(format!(
                "need between 1 and {MAX_SAMPLED_PLAYERS} facilities"
            ));
        }
        if spec.locations.iter().any(|&l| l > MAX_FACILITY_LOCATIONS) {
            return Err(format!(
                "--locations must each be at most {MAX_FACILITY_LOCATIONS}"
            ));
        }
        if spec.capacities.is_empty() {
            spec.capacities = vec![1; spec.locations.len()];
        }
        if spec.capacities.len() != spec.locations.len() {
            return Err("--capacities must match --locations in length".to_string());
        }
        if spec.capacities.contains(&0) {
            return Err("--capacities must each be at least 1".to_string());
        }
        if spec.capacities.iter().any(|&r| r > MAX_FACILITY_CAPACITY) {
            return Err(format!(
                "--capacities must each be at most {MAX_FACILITY_CAPACITY}"
            ));
        }
        if !(spec.threshold.is_finite() && spec.threshold >= 0.0) {
            return Err("--threshold must be finite and at least 0".to_string());
        }
        if !(spec.shape.is_finite() && spec.shape > 0.0) {
            return Err("--shape must be finite and positive".to_string());
        }
        Ok(())
    }
}

/// Parses `--synthetic`'s `N[:SEED]` (default seed 42).
///
/// # Errors
/// A usage message when either number is malformed or `N` lies outside
/// `1..=`[`MAX_SAMPLED_PLAYERS`].
pub fn parse_synthetic(value: &str) -> Result<(usize, u64), String> {
    let (n, seed) = value
        .split_once(':')
        .map_or((value, None), |(n, s)| (n, Some(s)));
    let n: usize = parse_value("--synthetic", n)?;
    let seed = seed.map_or(Ok(42), |s| parse_value("--synthetic", s))?;
    if n == 0 || n > MAX_SAMPLED_PLAYERS {
        return Err(format!(
            "--synthetic: need between 1 and {MAX_SAMPLED_PLAYERS} authorities"
        ));
    }
    Ok((n, seed))
}

/// Parses one flag value, naming the flag on failure.
fn parse_value<T: FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: Display,
{
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

/// Parses a comma-separated flag value, naming the flag on failure.
fn parse_list<T: FromStr>(flag: &str, value: &str) -> Result<Vec<T>, String>
where
    T::Err: Display,
{
    value
        .split(',')
        .map(|v| parse_value(flag, v.trim()))
        .collect()
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
        let sizes =
            |fs: &[Facility]| -> Vec<usize> { fs.iter().map(|f| f.offer.n_locations()).collect() };
        assert_ne!(sizes(&a), sizes(&c));
    }

    /// Runs the shared parser over `line` alone, as a binary would.
    fn parse(line: &[&str]) -> Result<ScenarioArgs, String> {
        let args: Vec<String> = line.iter().map(|a| a.to_string()).collect();
        let mut parsed = ScenarioArgs::default();
        let mut rest = args.iter();
        while let Some(flag) = rest.next() {
            if !parsed.parse_flag(flag, &mut rest)? {
                return Err(format!("not a shared flag: {flag}"));
            }
        }
        parsed.finish()?;
        Ok(parsed)
    }

    /// Every scenario and sampling case `fedval` and `fedval-serve` test:
    /// what each accepted command line builds, and the exact usage message
    /// each rejected one prints.
    #[test]
    fn shared_flags_parse_and_validate() {
        let spec = |locations: &[u32], capacities: &[u64], threshold, shape, volume| ScenarioSpec {
            locations: locations.to_vec(),
            capacities: capacities.to_vec(),
            threshold,
            shape,
            volume,
        };
        let sampling = |force, samples, seed, confidence| ApproxConfig {
            force,
            samples,
            seed,
            confidence,
            ..ApproxConfig::default()
        };
        let paper = ScenarioSpec::paper_4_1();
        let defaults = ApproxConfig::default();
        let accepted: [(&[&str], ScenarioSpec, ApproxConfig); 9] = [
            (&[], paper.clone(), defaults),
            (
                &["--locations", "10,20,30", "--capacities", "2,2,2"],
                spec(&[10, 20, 30], &[2, 2, 2], 500.0, 1.0, Some(1)),
                defaults,
            ),
            (
                &[
                    "--locations",
                    "10,20,30",
                    "--capacities",
                    "2,2,2",
                    "--threshold",
                    "25",
                    "--shape",
                    "0.8",
                    "--volume",
                    "fill",
                ],
                spec(&[10, 20, 30], &[2, 2, 2], 25.0, 0.8, None),
                defaults,
            ),
            (
                &[
                    "--locations",
                    "10, 20",
                    "--capacities",
                    "2,3",
                    "--threshold",
                    "15",
                    "--shape",
                    "0.5",
                    "--volume",
                    "40",
                ],
                spec(&[10, 20], &[2, 3], 15.0, 0.5, Some(40)),
                defaults,
            ),
            (
                &["--locations", "5,6,7,8"],
                spec(&[5, 6, 7, 8], &[1; 4], 500.0, 1.0, Some(1)),
                defaults,
            ),
            (
                &["--threshold", "0", "--capacities", "1,1,1"],
                ScenarioSpec {
                    threshold: 0.0,
                    ..paper.clone()
                },
                defaults,
            ),
            (
                &[
                    "--approx",
                    "--approx-samples",
                    "128",
                    "--approx-seed",
                    "9",
                    "--confidence",
                    "0.99",
                ],
                paper.clone(),
                sampling(true, 128, 9, 0.99),
            ),
            (
                &[
                    "--approx-samples",
                    "64",
                    "--approx-seed",
                    "5",
                    "--confidence",
                    "0.9",
                ],
                paper.clone(),
                sampling(false, 64, 5, 0.9),
            ),
            (
                &["--synthetic", "40:7", "--shape", "400"],
                ScenarioSpec {
                    shape: 400.0,
                    ..ScenarioSpec::synthetic(40, 7)
                },
                defaults,
            ),
        ];
        for (line, want_spec, want_approx) in accepted {
            let got = parse(line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
            assert_eq!(got.spec, want_spec, "{line:?}");
            assert_eq!(got.approx, want_approx, "{line:?}");
            assert_eq!(
                got.samples_given,
                line.contains(&"--approx-samples"),
                "{line:?}"
            );
        }
        let synthetic_range = "--synthetic: need between 1 and 512 authorities";
        let rejected: [(&[&str], &str); 24] = [
            (&["--locations"], "flag --locations needs a value"),
            (&["--approx-seed"], "flag --approx-seed needs a value"),
            (
                &["--locations", "1,x"],
                "--locations: invalid digit found in string",
            ),
            (
                &["--locations", ""],
                "--locations: cannot parse integer from empty string",
            ),
            (
                &["--volume", "x"],
                "--volume: invalid digit found in string",
            ),
            (&["--threshold", "x"], "--threshold: invalid float literal"),
            (
                &["--capacities", "1,2"],
                "--capacities must match --locations in length",
            ),
            (
                &["--capacities", "0,1,1"],
                "--capacities must each be at least 1",
            ),
            (
                &["--locations", "10,65537"],
                "--locations must each be at most 65536",
            ),
            (
                &["--capacities", "1,4294967296,1"],
                "--capacities must each be at most 4294967295",
            ),
            (
                &["--capacities", "18446744073709551615,1,1"],
                "--capacities must each be at most 4294967295",
            ),
            (
                &["--threshold", "nan"],
                "--threshold must be finite and at least 0",
            ),
            (
                &["--threshold", "inf"],
                "--threshold must be finite and at least 0",
            ),
            (
                &["--threshold", "-5"],
                "--threshold must be finite and at least 0",
            ),
            (&["--shape", "-1"], "--shape must be finite and positive"),
            (&["--shape", "0"], "--shape must be finite and positive"),
            (&["--shape", "nan"], "--shape must be finite and positive"),
            (
                &["--approx-samples", "0"],
                "--approx-samples must be at least 1",
            ),
            (
                &["--confidence", "1"],
                "--confidence must be strictly between 0 and 1",
            ),
            (
                &["--confidence", "1.5"],
                "--confidence must be strictly between 0 and 1",
            ),
            (
                &["--confidence", "0"],
                "--confidence must be strictly between 0 and 1",
            ),
            (&["--synthetic", "0"], synthetic_range),
            (&["--synthetic", "513"], synthetic_range),
            (
                &["--synthetic", "8:x"],
                "--synthetic: invalid digit found in string",
            ),
        ];
        for (line, message) in rejected {
            assert_eq!(parse(line).unwrap_err(), message, "{line:?}");
        }
        // The per-facility bounds themselves are accepted.
        let largest = parse(&["--locations", "65536,1", "--capacities", "4294967295,1"]).unwrap();
        assert_eq!(largest.spec.locations, [MAX_FACILITY_LOCATIONS, 1]);
        assert_eq!(largest.spec.capacities, [MAX_FACILITY_CAPACITY, 1]);
        // The facility count is bounded by the sampled path, not the exact
        // caps.
        let wide = |n: usize| vec!["4"; n].join(",");
        assert_eq!(parse(&["--locations", &wide(100)]).unwrap().spec.n(), 100);
        assert_eq!(
            parse(&["--locations", &wide(513)]).unwrap_err(),
            "need between 1 and 512 facilities"
        );
        assert_eq!(
            parse(&["--frobnicate"]).unwrap_err(),
            "not a shared flag: --frobnicate"
        );
    }

    #[test]
    fn synthetic_flag_builds_the_seeded_federation() {
        let spec = parse(&["--synthetic", "200:7"]).unwrap().spec;
        assert_eq!((spec.n(), spec.capacities.len()), (200, 200));
        assert_eq!((spec.shape, spec.volume), (1.0, Some(1)));
        assert_eq!(
            spec,
            ScenarioSpec::synthetic(200, 7),
            "same n:seed, same spec"
        );
        assert_ne!(spec, parse(&["--synthetic", "200:8"]).unwrap().spec);
        assert_eq!(
            parse(&["--synthetic", "200"]).unwrap().spec,
            ScenarioSpec::synthetic(200, 42),
            "the default seed is 42"
        );
        assert_eq!(parse_synthetic("512:3"), Ok((512, 3)));
        // The generator's federation is the spec's: the same coalition
        // values, under the same position names.
        let built = ScenarioSpec::synthetic(6, 7).scenario();
        let (facilities, demand) = synthetic_federation(6, 7);
        assert_eq!(facilities[5].name, "facility-6");
        let generated = FederationScenario::new(facilities, demand);
        assert_eq!(built.game().values(), generated.game().values());
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
