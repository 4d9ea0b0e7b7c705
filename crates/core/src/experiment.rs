//! Experiments and demand (§2.2 of the paper).
//!
//! An experiment class bundles the paper's three demand attributes —
//! required distinct locations `l` (with optional upper bound `l̄`),
//! resources per location `r`, and holding time per location `t` — with
//! the utility shape `d`. Demand is a mixture of classes with either a
//! finite volume `K` or "capacity-filling" volume (the paper's "enough in
//! number to fill the system's capacity").

use crate::utility::ThresholdPower;
use serde::{Deserialize, Serialize};

/// A class of experiments with identical demand attributes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentClass {
    /// Class label for reports (e.g. "p2p", "cdn", "measurement").
    pub name: String,
    /// Utility function (threshold `l` and shape `d`).
    pub utility: ThresholdPower,
    /// Optional maximum useful locations `l̄` (None = unbounded, the
    /// paper's default since real maxima far exceed available locations).
    pub max_locations: Option<u64>,
    /// Resources consumed per assigned location (`r`).
    pub resources_per_location: u64,
    /// Holding time per location (`t ∈ (0, 1]`), used by the
    /// statistical-multiplexing simulations; the static analysis uses 1.
    pub holding_time: f64,
}

impl ExperimentClass {
    /// Creates a class with `r = 1`, `t = 1`, unbounded `l̄` — the paper's
    /// static-analysis defaults.
    pub fn simple(name: impl Into<String>, threshold: f64, shape: f64) -> ExperimentClass {
        ExperimentClass {
            name: name.into(),
            utility: ThresholdPower::new(threshold, shape),
            max_locations: None,
            resources_per_location: 1,
            holding_time: 1.0,
        }
    }

    /// Sets `r` (builder style).
    ///
    /// # Panics
    /// Panics if `r == 0`.
    pub fn with_resources(mut self, r: u64) -> ExperimentClass {
        assert!(r > 0);
        self.resources_per_location = r;
        self
    }

    /// Sets `t` (builder style).
    ///
    /// # Panics
    /// Panics unless `0 < t ≤ 1`.
    pub fn with_holding_time(mut self, t: f64) -> ExperimentClass {
        assert!(t > 0.0 && t <= 1.0);
        self.holding_time = t;
        self
    }

    /// Sets `l̄` (builder style).
    pub fn with_max_locations(mut self, max: u64) -> ExperimentClass {
        self.max_locations = Some(max);
        self
    }

    /// Smallest admissible integer size (`> l`), capped by nothing.
    pub fn min_size(&self) -> u64 {
        self.utility.min_admissible()
    }

    /// Largest useful integer size given `available` distinct locations.
    pub fn max_size(&self, available: u64) -> u64 {
        self.max_locations.unwrap_or(u64::MAX).min(available)
    }

    /// The paper's example P2P experiment: `l = 40, l̄ = ∞, r = 1, t = 0.1`.
    pub fn p2p() -> ExperimentClass {
        ExperimentClass::simple("p2p", 40.0, 1.0).with_holding_time(0.1)
    }

    /// The paper's example CDN service: `l = 100, l̄ = 500, r = 4, t = 1`.
    pub fn cdn() -> ExperimentClass {
        ExperimentClass::simple("cdn", 100.0, 1.0)
            .with_max_locations(500)
            .with_resources(4)
    }

    /// The paper's example measurement experiment:
    /// `l = 500, l̄ = ∞, r = 2, t = 0.4`.
    pub fn measurement() -> ExperimentClass {
        ExperimentClass::simple("measurement", 500.0, 1.0)
            .with_resources(2)
            .with_holding_time(0.4)
    }
}

/// How many experiments of a class request access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Volume {
    /// Exactly this many experiments (the paper's `K`).
    Count(u64),
    /// Enough experiments to fill any coalition's capacity (§4.3.1's
    /// "enough in number to fill the system's capacity").
    CapacityFilling,
}

impl Volume {
    /// The effective admission cap given a bound that certainly exceeds any
    /// useful admission count (e.g. the profile's max capacity).
    pub fn cap(&self, saturation_bound: u64) -> u64 {
        match *self {
            Volume::Count(k) => k,
            Volume::CapacityFilling => saturation_bound,
        }
    }
}

/// One component of a demand mixture.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DemandComponent {
    /// The experiment class.
    pub class: ExperimentClass,
    /// How many experiments of this class arrive.
    pub volume: Volume,
}

/// A demand profile: a mixture of experiment classes (§4.3.2).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Demand {
    /// Mixture components.
    pub components: Vec<DemandComponent>,
}

impl Demand {
    /// A single class with a given volume.
    pub fn single(class: ExperimentClass, volume: Volume) -> Demand {
        Demand {
            components: vec![DemandComponent { class, volume }],
        }
    }

    /// One experiment of one class — the Figs. 4–5 workload.
    pub fn one_experiment(class: ExperimentClass) -> Demand {
        Demand::single(class, Volume::Count(1))
    }

    /// Capacity-filling single-class demand — the Figs. 6 & 9 workload.
    pub fn capacity_filling(class: ExperimentClass) -> Demand {
        Demand::single(class, Volume::CapacityFilling)
    }

    /// Two-class mixture with total volume `k_total` and fraction `sigma`
    /// of the second class — the Fig. 7 workload (σ is "the ratio between
    /// two types of experiments").
    ///
    /// # Panics
    /// Panics unless `0 ≤ sigma ≤ 1`.
    pub fn mixture(
        class1: ExperimentClass,
        class2: ExperimentClass,
        k_total: u64,
        sigma: f64,
    ) -> Demand {
        assert!((0.0..=1.0).contains(&sigma), "sigma must lie in [0, 1]");
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "sigma is asserted in [0, 1], so the rounded product lies in [0, k_total]"
        )]
        let k2 = (sigma * k_total as f64).round() as u64;
        let k1 = k_total - k2.min(k_total);
        Demand {
            components: vec![
                DemandComponent {
                    class: class1,
                    volume: Volume::Count(k1),
                },
                DemandComponent {
                    class: class2,
                    volume: Volume::Count(k2),
                },
            ],
        }
    }

    /// Number of mixture components.
    pub fn n_classes(&self) -> usize {
        self.components.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_canonical_classes() {
        let p2p = ExperimentClass::p2p();
        assert_eq!(p2p.min_size(), 41);
        assert_eq!(p2p.resources_per_location, 1);
        assert!((p2p.holding_time - 0.1).abs() < 1e-12);

        let cdn = ExperimentClass::cdn();
        assert_eq!(cdn.max_size(10_000), 500);
        assert_eq!(cdn.resources_per_location, 4);

        let m = ExperimentClass::measurement();
        assert_eq!(m.min_size(), 501);
        assert_eq!(m.max_size(300), 300);
    }

    #[test]
    fn volume_caps() {
        assert_eq!(Volume::Count(7).cap(100), 7);
        assert_eq!(Volume::CapacityFilling.cap(100), 100);
    }

    #[test]
    fn mixture_splits_volume() {
        let d = Demand::mixture(
            ExperimentClass::simple("a", 0.0, 1.0),
            ExperimentClass::simple("b", 700.0, 1.0),
            100,
            0.25,
        );
        assert_eq!(d.components[0].volume, Volume::Count(75));
        assert_eq!(d.components[1].volume, Volume::Count(25));
    }

    #[test]
    fn mixture_extremes() {
        let mk = |s| {
            Demand::mixture(
                ExperimentClass::simple("a", 0.0, 1.0),
                ExperimentClass::simple("b", 700.0, 1.0),
                60,
                s,
            )
        };
        let d0 = mk(0.0);
        assert_eq!(d0.components[0].volume, Volume::Count(60));
        assert_eq!(d0.components[1].volume, Volume::Count(0));
        let d1 = mk(1.0);
        assert_eq!(d1.components[0].volume, Volume::Count(0));
        assert_eq!(d1.components[1].volume, Volume::Count(60));
    }
}
