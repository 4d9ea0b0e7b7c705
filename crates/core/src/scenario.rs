//! High-level scenario façade tying the model together.

use crate::cost::CostModel;
use crate::experiment::Demand;
use crate::facility::Facility;
use crate::sharing;
use crate::value::FederationGame;
use fedval_coalition::{
    analyze, is_core_nonempty, shapley, shapley_auto_wide, try_nucleolus, ApproxConfig, Coalition,
    CoalitionError, GameProperties, ShapleyEstimate, TableGame, WideGame,
};

/// A measured game's player count disagrees with the facility list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlayerCountMismatch {
    /// Facilities supplied.
    pub facilities: usize,
    /// Players in the measured table.
    pub players: usize,
}

impl std::fmt::Display for PlayerCountMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "measured game has {} players for {} facilities",
            self.players, self.facilities
        )
    }
}

impl std::error::Error for PlayerCountMismatch {}

/// A complete federation scenario: facilities + demand (+ cost model),
/// with every solution concept one call away.
///
/// The coalition-value table is materialized lazily on first use and
/// reused by every subsequent query.
///
/// A scenario is intentionally *not* `Sync` (the lazy table cell is
/// single-threaded); parallel sweeps build one scenario per worker. The
/// [`with_threads`](FederationScenario::with_threads) knob instead
/// parallelizes *within* one scenario's `2^n` table fill — the cost that
/// dominates at larger player counts; exact Shapley then reads the table.
///
/// The infallible accessors (`game`, `value`, `grand_value`,
/// `shapley_shares`, `nucleolus_shares`, `core_nonempty`, `properties`,
/// `payoffs`) serve scenarios inside the exact caps — the coalition table
/// holds 25 facilities, the least-core LP 16, the nucleolus 12 — and panic
/// past them or on a NaN or infinite coalition value;
/// [`try_game`](FederationScenario::try_game),
/// [`shapley_estimate`](FederationScenario::shapley_estimate) and
/// `fedval_policy::try_policy_report` check first.
pub struct FederationScenario {
    facilities: Vec<Facility>,
    demand: Demand,
    cost: CostModel,
    threads: usize,
    approx: ApproxConfig,
    table: std::cell::OnceCell<TableGame>,
}

impl FederationScenario {
    /// Creates a scenario with the default cost model.
    pub fn new(facilities: Vec<Facility>, demand: Demand) -> FederationScenario {
        FederationScenario {
            facilities,
            demand,
            cost: CostModel::paper_default(),
            threads: 1,
            approx: ApproxConfig::default(),
            table: std::cell::OnceCell::new(),
        }
    }

    /// Overrides the cost model (builder style).
    pub fn with_cost(mut self, cost: CostModel) -> FederationScenario {
        self.cost = cost;
        self
    }

    /// Sets the worker-thread count (builder style) for the table fill
    /// ([`TableGame::try_from_walk`]) and the sampled estimator. `1` (the
    /// default) keeps everything on the calling thread; any value yields
    /// bit-identical tables, shares and estimates (see DESIGN.md §9).
    pub fn with_threads(mut self, threads: usize) -> FederationScenario {
        self.threads = threads.max(1);
        self
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Sets the sampled-Shapley budget, seed, confidence level, and the
    /// `--approx` force flag (builder style). The thread count still comes
    /// from [`with_threads`](FederationScenario::with_threads).
    pub fn with_approx(mut self, approx: ApproxConfig) -> FederationScenario {
        self.approx = approx;
        self
    }

    /// The configured sampled-Shapley parameters.
    pub fn approx_config(&self) -> &ApproxConfig {
        &self.approx
    }

    /// Builds a scenario around an *externally measured* coalition-value
    /// table (e.g. `fedval-testbed`'s empirical game) instead of the
    /// closed-form model. The facilities still drive the proportional and
    /// consumption benchmarks; the game queries use `game` as-is.
    ///
    /// # Errors
    /// [`PlayerCountMismatch`] when the measured table's player count differs
    /// from the facility count.
    pub fn try_from_measured(
        facilities: Vec<Facility>,
        demand: Demand,
        game: TableGame,
    ) -> Result<FederationScenario, PlayerCountMismatch> {
        if game.n_players() != facilities.len() {
            return Err(PlayerCountMismatch {
                facilities: facilities.len(),
                players: game.n_players(),
            });
        }
        let table = std::cell::OnceCell::new();
        let _ = table.set(game);
        Ok(FederationScenario {
            facilities,
            demand,
            cost: CostModel::paper_default(),
            threads: 1,
            approx: ApproxConfig::default(),
            table,
        })
    }

    /// The facilities, in player order.
    pub fn facilities(&self) -> &[Facility] {
        &self.facilities
    }

    /// The demand profile.
    pub fn demand(&self) -> &Demand {
        &self.demand
    }

    /// `V(S)` for an arbitrary member subset (ascending player ids), at
    /// any federation width — the enumeration-free
    /// [`WideGame`](fedval_coalition::WideGame) view of the scenario.
    /// This is the hook the formation engine (`fedval-form`) prices
    /// candidate coalitions through: no `2^n` table is materialized.
    pub fn value_of_members(&self, members: &[usize]) -> f64 {
        FederationGame::new(&self.facilities, &self.demand).value_members(members)
    }

    /// The cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The materialized coalition-value table.
    ///
    /// # Panics
    /// Panics where [`FederationScenario::try_game`] would return an error
    /// (more facilities than a dense table supports, or a non-finite
    /// coalition value).
    pub fn game(&self) -> &TableGame {
        solved("game", self.try_game())
    }

    /// Materializes the coalition-value table on first call and caches it:
    /// [`TableGame::try_from_walk`] on
    /// [`threads`](FederationScenario::threads) walkers.
    ///
    /// # Errors
    /// [`CoalitionError::TooManyPlayers`] when the facility count exceeds
    /// [`TableGame::MAX_PLAYERS`], [`CoalitionError::NonFiniteValue`] when a
    /// coalition value overflows or is NaN; the scenario stays usable (the
    /// next call retries) and the proportional/consumption benchmarks —
    /// which never enumerate coalitions — keep working.
    pub fn try_game(&self) -> Result<&TableGame, CoalitionError> {
        if let Some(table) = self.table.get() {
            return Ok(table);
        }
        let built = {
            let _span = fedval_obs::span_with("core.scenario.table_build", || {
                format!("n={}", self.facilities.len())
            });
            TableGame::try_from_walk(
                &FederationGame::new(&self.facilities, &self.demand),
                self.threads,
            )?
        };
        Ok(self.table.get_or_init(|| built))
    }

    /// `V(S)` for an explicit coalition.
    pub fn value(&self, coalition: Coalition) -> f64 {
        self.game().value(coalition)
    }

    /// `V(N)` — total value to share.
    pub fn grand_value(&self) -> f64 {
        self.game().grand_value()
    }

    /// Normalized Shapley shares ϕ̂ (eq. 5), read from the cached table.
    pub fn shapley_shares(&self) -> Vec<f64> {
        let table = self.game();
        let grand = table.grand_value();
        if grand.abs() < 1e-12 {
            return vec![0.0; table.n_players()];
        }
        shapley(table).into_iter().map(|p| p / grand).collect()
    }

    /// Shapley values through the solver-selection rule
    /// ([`ApproxConfig::selects_sampling`]): exact up to
    /// [`fedval_coalition::EXACT_SHAPLEY_MAX_PLAYERS`] facilities, read
    /// from the cached table ([`try_game`](FederationScenario::try_game)),
    /// and the seeded sampled estimator (with its confidence-interval
    /// certificate) past it or under `force` — the entry point that makes
    /// a 200-authority scenario answerable instead of a `TooManyPlayers`
    /// error.
    ///
    /// The estimator samples the measured table when one was supplied
    /// ([`try_from_measured`](FederationScenario::try_from_measured)) or
    /// already filled, and the un-materialized wide federation game
    /// otherwise. Sampling parameters come from
    /// [`with_approx`](FederationScenario::with_approx); results are
    /// byte-identical per seed at any thread count.
    ///
    /// # Errors
    /// [`CoalitionError::NoPlayers`] / [`CoalitionError::NoSamples`] /
    /// [`CoalitionError::BadConfidence`] for malformed inputs, as
    /// [`try_game`](FederationScenario::try_game) on the exact path, and
    /// [`CoalitionError::TooManyPlayers`] past the sampled path's own
    /// sanity cap ([`fedval_coalition::MAX_SAMPLED_PLAYERS`]).
    pub fn shapley_estimate(&self) -> Result<ShapleyEstimate, CoalitionError> {
        let cfg = ApproxConfig {
            threads: self.threads,
            ..self.approx
        };
        let n = self.facilities.len();
        if !cfg.selects_sampling(n) {
            if n == 0 {
                return Err(CoalitionError::NoPlayers);
            }
            cfg.validate()?;
            return Ok(ShapleyEstimate::Exact(shapley(self.try_game()?)));
        }
        if let Some(table) = self.table.get() {
            // Measured scenarios must answer from their table: the
            // closed-form model does not reproduce measured values.
            return shapley_auto_wide(table, &cfg);
        }
        shapley_auto_wide(&FederationGame::new(&self.facilities, &self.demand), &cfg)
    }

    /// Normalized shares from [`shapley_estimate`]
    /// (ϕ̂ᵢ = ϕᵢ / V(N), eq. 5), exact or sampled.
    ///
    /// # Errors
    /// As [`shapley_estimate`](FederationScenario::shapley_estimate).
    pub fn shapley_shares_estimated(&self) -> Result<Vec<f64>, CoalitionError> {
        match self.shapley_estimate()? {
            ShapleyEstimate::Exact(phi) => {
                // The exact path always has a table (it just used it).
                let grand = self.try_game()?.grand_value();
                if grand.abs() < 1e-12 {
                    return Ok(vec![0.0; phi.len()]);
                }
                Ok(phi.into_iter().map(|v| v / grand).collect())
            }
            ShapleyEstimate::Approx(a) => Ok(a.shares()),
        }
    }

    /// Proportional (contribution-based) shares π̂ (eq. 6).
    pub fn proportional_shares(&self) -> Vec<f64> {
        sharing::proportional_shares(&self.facilities)
    }

    /// Consumption-based shares ρ̂ (eq. 7).
    pub fn consumption_shares(&self) -> Vec<f64> {
        sharing::consumption_shares(&self.facilities, &self.demand)
    }

    /// Nucleolus shares (allocation / V(N)).
    pub fn nucleolus_shares(&self) -> Vec<f64> {
        let grand = self.grand_value();
        if grand.abs() < 1e-12 {
            return vec![0.0; self.facilities.len()];
        }
        solved("nucleolus_shares", try_nucleolus(self.game()))
            .into_iter()
            .map(|v| v / grand)
            .collect()
    }

    /// Structural properties of the induced game (superadditivity,
    /// convexity, …) — §3.2.1's core-existence diagnostics.
    pub fn properties(&self) -> GameProperties {
        analyze(self.game(), 1e-7)
    }

    /// Whether the core is non-empty.
    pub fn core_nonempty(&self) -> bool {
        solved("core_nonempty", is_core_nonempty(self.game()))
    }

    /// Monetary payoff vector for a normalized share vector.
    pub fn payoffs(&self, shares: &[f64]) -> Vec<f64> {
        let v = self.grand_value();
        shares.iter().map(|s| s * v).collect()
    }
}

/// The one panic point of the scenario's infallible accessors: their
/// callers stay inside the exact caps named on [`FederationScenario`].
fn solved<T>(accessor: &str, result: Result<T, CoalitionError>) -> T {
    match result {
        Ok(value) => value,
        #[expect(
            clippy::panic,
            reason = "documented convenience accessors for scenarios inside the exact caps; fallible callers use try_game, shapley_estimate or try_policy_report"
        )]
        Err(e) => panic!("FederationScenario::{accessor}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentClass;
    use crate::facility::paper_facilities;

    fn worked_example() -> FederationScenario {
        FederationScenario::new(
            paper_facilities([1, 1, 1]),
            Demand::one_experiment(ExperimentClass::simple("e", 500.0, 1.0)),
        )
    }

    #[test]
    fn scenario_round_trip() {
        let s = worked_example();
        assert_eq!(s.grand_value(), 1300.0);
        let phi = s.shapley_shares();
        assert!((phi[1] - 2.0 / 13.0).abs() < 1e-12);
        assert!((phi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let pi = s.proportional_shares();
        assert!((pi[1] - 4.0 / 13.0).abs() < 1e-12);
        let payoffs = s.payoffs(&phi);
        assert!((payoffs.iter().sum::<f64>() - 1300.0).abs() < 1e-9);
    }

    #[test]
    fn nucleolus_shares_equal_when_only_grand_coalition_works() {
        // l = 1250: only the grand coalition can serve; the nucleolus (like
        // Shapley) splits equally — the paper's "in the grand coalition all
        // facilities receive an equal share even if their resource
        // contributions are very different!".
        let s = FederationScenario::new(
            paper_facilities([1, 1, 1]),
            Demand::one_experiment(ExperimentClass::simple("e", 1250.0, 1.0)),
        );
        for v in s.nucleolus_shares() {
            assert!((v - 1.0 / 3.0).abs() < 1e-9, "{v}");
        }
        for v in s.shapley_shares() {
            assert!((v - 1.0 / 3.0).abs() < 1e-9, "{v}");
        }
    }

    #[test]
    fn properties_of_worked_example() {
        let s = worked_example();
        let p = s.properties();
        assert!(p.superadditive);
        assert!(p.monotone);
        assert!(p.essential);
    }

    #[test]
    fn measured_scenarios_use_the_supplied_table() {
        let closed_form = worked_example();
        let table = closed_form.game().clone();
        let measured = FederationScenario::try_from_measured(
            paper_facilities([1, 1, 1]),
            Demand::one_experiment(ExperimentClass::simple("e", 500.0, 1.0)),
            table,
        )
        .expect("3 players for 3 facilities");
        assert_eq!(measured.grand_value(), 1300.0);
        assert_eq!(measured.shapley_shares(), closed_form.shapley_shares());
        // Mismatched player counts are rejected, not ground through.
        let bad = FederationScenario::try_from_measured(
            paper_facilities([1, 1, 1]),
            Demand::one_experiment(ExperimentClass::simple("e", 500.0, 1.0)),
            TableGame::from_values(2, vec![0.0; 4]),
        );
        assert_eq!(
            bad.err(),
            Some(PlayerCountMismatch {
                facilities: 3,
                players: 2
            })
        );
    }

    #[test]
    fn table_is_cached() {
        let s = worked_example();
        let a = s.game() as *const _;
        let b = s.game() as *const _;
        assert_eq!(a, b);
    }

    #[test]
    fn threads_do_not_change_shares() {
        let sequential = worked_example().shapley_shares();
        for t in [2, 4, 8] {
            let parallel = worked_example().with_threads(t).shapley_shares();
            assert_eq!(sequential, parallel, "t={t} must be bit-identical");
        }
        // threads=0 is clamped to 1, not a panic.
        assert_eq!(worked_example().with_threads(0).threads(), 1);
    }

    #[test]
    fn shapley_estimate_selects_exact_on_small_scenarios() {
        let s = worked_example();
        match s.shapley_estimate().expect("worked example must solve") {
            ShapleyEstimate::Exact(phi) => {
                assert!((phi.iter().sum::<f64>() - 1300.0).abs() < 1e-9);
            }
            ShapleyEstimate::Approx(_) => panic!("n=3 must select exact"),
        }
        let shares = s.shapley_shares_estimated().expect("shares");
        assert_eq!(shares, s.shapley_shares());
    }

    #[test]
    fn shapley_estimate_samples_past_the_exact_cap() {
        use crate::facility::Facility;
        // 40 facilities: exact enumeration (2^40) is out of reach, the
        // estimator must answer with a certificate instead of erroring.
        let facilities: Vec<Facility> = (0..40u32)
            .map(|i| Facility::uniform(format!("f{i}"), 16 * i, 4 + (i % 5), 1))
            .collect();
        let s = FederationScenario::new(
            facilities,
            Demand::one_experiment(ExperimentClass::simple("e", 50.0, 1.0)),
        )
        .with_approx(ApproxConfig {
            samples: 64,
            seed: 7,
            ..ApproxConfig::default()
        })
        .with_threads(4);
        let est = s.shapley_estimate().expect("sampled path must answer");
        let approx = est.as_approx().expect("n=40 must sample");
        assert_eq!(approx.phi.len(), 40);
        assert_eq!(approx.samples, 64);
        assert!(approx.grand_value > 0.0);
        // Efficiency after normalization.
        let total: f64 = approx.shares().iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "{total}");
        // Deterministic across repeat calls and thread counts.
        let again = s.shapley_estimate().expect("repeat");
        assert_eq!(est, again);
    }

    #[test]
    fn try_game_rejects_non_finite_coalition_values() {
        use crate::facility::Facility;
        // d = 400 over 10 and 20 locations overflows every non-empty
        // coalition's value to inf.
        let s = FederationScenario::new(
            vec![
                Facility::uniform("a", 0, 10, 1),
                Facility::uniform("b", 10, 20, 1),
            ],
            Demand::one_experiment(ExperimentClass::simple("e", 1.0, 400.0)),
        )
        .with_threads(2);
        let err = s.try_game().expect_err("inf values must not make a table");
        assert!(
            matches!(err, CoalitionError::NonFiniteValue { coalition, value }
                if coalition == Coalition::singleton(0) && value == f64::INFINITY),
            "{err:?}"
        );
        assert_eq!(s.shapley_estimate().err(), Some(err));
    }

    #[test]
    fn try_game_rejects_oversized_federations() {
        use crate::facility::Facility;
        let facilities: Vec<Facility> = (0..26)
            .map(|i| Facility::uniform(format!("f{i}"), i, 1, 1))
            .collect();
        let s = FederationScenario::new(
            facilities,
            Demand::one_experiment(ExperimentClass::simple("e", 1.0, 1.0)),
        );
        let err = s.try_game().expect_err("26 facilities must not materialize");
        assert!(matches!(err, CoalitionError::TooManyPlayers { n: 26, .. }));
        // Non-enumerating benchmarks keep working on the same scenario.
        let pi = s.proportional_shares();
        assert_eq!(pi.len(), 26);
    }
}
