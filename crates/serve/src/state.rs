//! Warm query state: the scenario, its coalition table, pre-rendered
//! share payloads, and the bounded what-if LRU.
//!
//! The serving model is the paper's policy loop (§4.3): the expensive
//! coalitional solve happens once (at warm-up or on first demand), and
//! every subsequent query is a lookup against immutable pre-rendered
//! bytes. Three layers, coarsest first:
//!
//! 1. **Payloads** — `shapley` / `nucleolus` responses for the base
//!    scenario are rendered exactly once (`OnceLock`) and reused
//!    byte-for-byte. This is what makes identical queries return
//!    byte-identical responses.
//! 2. **Base table** — up to [`EXACT_SHAPLEY_MAX_PLAYERS`] players, the
//!    base scenario's `2^n` coalition values are filled once into a
//!    [`TableGame`] along a Gray-code walk (`OnceLock`): by `--warm` on
//!    its threads, or else by the first query that needs it, on one.
//!    The payloads and `coalition-value` read it; past the cap,
//!    `coalition-value` evaluates the one coalition it names.
//! 3. **What-if LRU** — derived scenarios (`what-if-join` /
//!    `what-if-leave`) are re-solved once and the rendered payload kept
//!    in a bounded [`Lru`]; the bound caps both memory and the blast
//!    radius of adversarial query streams.

use crate::lru::Lru;
use crate::protocol::{render_f64_array, QueryError, QueryKind};
use fedval_coalition::{
    shapley, try_approx_shapley_wide, try_nucleolus, ApproxConfig, ApproxShapley, TableGame,
    WideGame, EXACT_SHAPLEY_MAX_PLAYERS, MAX_SAMPLED_PLAYERS, NUCLEOLUS_MAX_PLAYERS,
};
use fedval_core::{Demand, ExperimentClass, Facility, FederationGame, Volume};
use fedval_obs::OrderedMutex;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Everything needed to (re)build a federation scenario. Kept separate
/// from the built artifacts so what-if queries can derive modified
/// copies cheaply.
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

    /// Player count.
    pub fn n(&self) -> usize {
        self.locations.len()
    }

    /// Builds the facility list (disjoint location ranges, player
    /// order = spec order).
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

    /// Builds the demand profile.
    pub fn demand(&self) -> Demand {
        let class = ExperimentClass::simple("serve", self.threshold, self.shape);
        match self.volume {
            Some(1) => Demand::one_experiment(class),
            Some(k) => Demand::single(class, Volume::Count(k)),
            None => Demand::capacity_filling(class),
        }
    }

    /// The spec with one facility appended (what-if-join).
    ///
    /// Joins past the exact-enumeration caps are fine — the solve falls
    /// through to the sampled Shapley estimator — so the only bound is
    /// the estimator's own [`MAX_SAMPLED_PLAYERS`].
    ///
    /// # Errors
    /// `BAD_REQUEST` when the result would exceed the sampled-path
    /// player bound.
    pub fn join(&self, locations: u32, capacity: u64) -> Result<ScenarioSpec, QueryError> {
        if self.n() + 1 > MAX_SAMPLED_PLAYERS {
            return Err(QueryError::new(
                "BAD_REQUEST",
                format!(
                    "cannot join: {MAX_SAMPLED_PLAYERS} players is the sampled-Shapley limit"
                ),
            ));
        }
        let mut spec = self.clone();
        spec.locations.push(locations);
        spec.capacities.push(capacity);
        Ok(spec)
    }

    /// The spec with player `player` removed (what-if-leave).
    ///
    /// # Errors
    /// `BAD_REQUEST` when `player` is out of range or the departure
    /// would leave an empty federation.
    pub fn leave(&self, player: usize) -> Result<ScenarioSpec, QueryError> {
        if player >= self.n() {
            return Err(QueryError::new(
                "BAD_REQUEST",
                format!("player {player} out of range (n={})", self.n()),
            ));
        }
        if self.n() == 1 {
            return Err(QueryError::new(
                "BAD_REQUEST",
                "cannot leave: the federation would be empty",
            ));
        }
        let mut spec = self.clone();
        spec.locations.remove(player);
        spec.capacities.remove(player);
        Ok(spec)
    }
}

/// An owned [`WideGame`] over a spec's facilities and demand — the
/// borrow-free form that lives inside shared server state.
pub struct ScenarioGame {
    facilities: Vec<Facility>,
    demand: Demand,
}

impl ScenarioGame {
    /// Builds the owned game for a spec.
    pub fn new(spec: &ScenarioSpec) -> ScenarioGame {
        ScenarioGame {
            facilities: spec.facilities(),
            demand: spec.demand(),
        }
    }
}

impl WideGame for ScenarioGame {
    fn n_players(&self) -> usize {
        self.facilities.len()
    }

    /// `V(S)` over member slices — what the sampled Shapley estimator
    /// and `coalition-value` past [`EXACT_SHAPLEY_MAX_PLAYERS`] consume.
    fn value_members(&self, members: &[usize]) -> f64 {
        FederationGame::new(&self.facilities, &self.demand).value_members(members)
    }

    fn value_walk(&self, start: &[usize], toggles: &[usize]) -> Vec<f64> {
        FederationGame::new(&self.facilities, &self.demand).value_walk(start, toggles)
    }
}

/// Outcome of warming the state (reported by the daemon at startup).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmReport {
    /// Coalition values in the base table (`2^n`; 0 past the exact cap).
    pub coalitions: usize,
    /// Whether the ϕ̂ payload rendered cleanly.
    pub shapley_ok: bool,
    /// Whether the nucleolus payload rendered cleanly.
    pub nucleolus_ok: bool,
}

/// Shared, thread-safe query state. One instance serves every worker.
pub struct ServeState {
    spec: ScenarioSpec,
    game: ScenarioGame,
    /// The base scenario's `2^n` coalition values, filled once.
    table: OnceLock<Result<TableGame, QueryError>>,
    /// Sampled-Shapley parameters: budget, seed, confidence, method,
    /// threads, and the `--approx` force flag. Per-seed deterministic,
    /// so the pre-rendered payloads stay byte-identical.
    approx: ApproxConfig,
    shapley: OnceLock<Result<String, QueryError>>,
    nucleolus: OnceLock<Result<String, QueryError>>,
    /// Derived-scenario LRU behind an [`OrderedMutex`] so debug builds
    /// validate its acquisition order against every other named lock
    /// (DESIGN.md §12). Poison recovery lives inside the wrapper.
    whatif: OrderedMutex<Lru<WhatIfKey, Result<String, QueryError>>>,
}

/// Cache key for one derived scenario.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum WhatIfKey {
    Join { locations: u32, capacity: u64 },
    Leave { player: usize },
}

impl ServeState {
    /// Creates cold state for a spec; `whatif_capacity` bounds the
    /// derived-scenario LRU.
    pub fn new(spec: ScenarioSpec, whatif_capacity: usize) -> ServeState {
        ServeState {
            game: ScenarioGame::new(&spec),
            spec,
            table: OnceLock::new(),
            approx: ApproxConfig::default(),
            shapley: OnceLock::new(),
            nucleolus: OnceLock::new(),
            whatif: OrderedMutex::new("serve.whatif", Lru::new(whatif_capacity)),
        }
    }

    /// Sets the sampled-Shapley parameters (builder style). Must be set
    /// before the first query: the payload caches render exactly once.
    pub fn with_approx(mut self, approx: ApproxConfig) -> ServeState {
        self.approx = approx;
        self
    }

    /// The sampled-Shapley parameters in effect.
    pub fn approx_config(&self) -> &ApproxConfig {
        &self.approx
    }

    /// True when share queries are answered by the sampled estimator:
    /// the resident scenario is past [`EXACT_SHAPLEY_MAX_PLAYERS`], or
    /// the operator forced sampling with `--approx`. This is
    /// [`ApproxConfig::selects_sampling`], the rule
    /// [`ServeState::execute`] dispatches `shapley` queries by, so the
    /// method `stats` advertises is the answering path.
    pub fn approx_active(&self) -> bool {
        self.approx.selects_sampling(self.n())
    }

    /// The scenario spec being served.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// Player count of the base scenario.
    pub fn n(&self) -> usize {
        self.spec.n()
    }

    /// Coalition values held in the base table: `2^n` once it is
    /// filled, 0 before.
    pub fn coalitions_cached(&self) -> usize {
        match self.table.get() {
            Some(Ok(table)) => table.values().len(),
            _ => 0,
        }
    }

    /// Fills every layer: the base table of all `2^n` coalition values
    /// (walked on `threads` threads), the ϕ̂ payload, and the nucleolus
    /// payload.
    ///
    /// Past [`EXACT_SHAPLEY_MAX_PLAYERS`] the table is skipped (it would
    /// never finish); only the payloads are rendered, which on that path
    /// means one sampled-estimator run.
    pub fn warm(&self, threads: usize) -> WarmReport {
        let _span = fedval_obs::span_with("serve.state.warm", || {
            format!("n={} threads={threads}", self.n())
        });
        if self.n() <= EXACT_SHAPLEY_MAX_PLAYERS {
            let _ = self.base_table(threads);
        } else {
            fedval_obs::counter_add("serve.warm.prewarm_skipped", 1);
        }
        let coalitions = self.coalitions_cached();
        let shapley_ok = self.shapley_payload().is_ok();
        let nucleolus_ok = self.nucleolus_payload().is_ok();
        WarmReport {
            coalitions,
            shapley_ok,
            nucleolus_ok,
        }
    }

    /// Executes one compute-kind query, returning the rendered payload
    /// (the `"kind":…` body of the response line).
    ///
    /// # Errors
    /// `BAD_REQUEST` for out-of-range players, `SOLVE_FAILED` when the
    /// characteristic-function table cannot be materialized.
    pub fn execute(&self, kind: &QueryKind) -> Result<String, QueryError> {
        match kind {
            QueryKind::CoalitionValue { coalition } => self.coalition_value(coalition),
            QueryKind::Shapley => self.shapley_payload().clone(),
            QueryKind::Nucleolus => self.nucleolus_payload().clone(),
            QueryKind::WhatIfJoin {
                locations,
                capacity,
            } => self.what_if(WhatIfKey::Join {
                locations: *locations,
                capacity: *capacity,
            }),
            QueryKind::WhatIfLeave { player } => {
                self.what_if(WhatIfKey::Leave { player: *player })
            }
            #[expect(
                clippy::panic,
                reason = "chaos harness: this panic is the fault being injected"
            )]
            QueryKind::ChaosPanic => {
                // Deliberate fault injection: the server only routes
                // this kind here when started with `--chaos-harness`,
                // and the worker's catch_unwind turns the panic into a
                // typed INTERNAL response. This is how the fedchaos
                // suite proves worker supervision end to end.
                fedval_obs::counter_add("serve.chaos.panic_injected", 1);
                panic!("chaos-panic: deliberate injected worker panic");
            }
            // Health / stats / shutdown are answered by the server
            // inline and never reach the compute path.
            other => Err(QueryError::new(
                "BAD_REQUEST",
                format!("'{}' is not a compute query", other.name()),
            )),
        }
    }

    fn coalition_value(&self, players: &[usize]) -> Result<String, QueryError> {
        let n = self.n();
        if let Some(p) = players.iter().find(|&&p| p >= n) {
            return Err(QueryError::new(
                "BAD_REQUEST",
                format!("player {p} out of range (n={n})"),
            ));
        }
        let mut members = players.to_vec();
        members.sort_unstable();
        members.dedup();
        let value = if n <= EXACT_SHAPLEY_MAX_PLAYERS {
            self.base_table(1)
                .as_ref()
                .map_err(QueryError::clone)?
                .value_members(&members)
        } else {
            // Past the exact cap no table is built: evaluate the one
            // coalition asked for.
            fedval_obs::counter_add("serve.coalition.wide_evals", 1);
            self.game.value_members(&members)
        };
        let members: Vec<String> = members.iter().map(|p| p.to_string()).collect();
        Ok(format!(
            "\"kind\":\"coalition-value\",\"coalition\":[{}],\"value\":{}",
            members.join(","),
            fedval_obs::json_f64(value)
        ))
    }

    /// Renders ϕ̂ of the base scenario, once; later calls reuse the
    /// identical string.
    fn shapley_payload(&self) -> &Result<String, QueryError> {
        self.shapley
            .get_or_init(|| self.solve_shares("shapley", &self.spec, SolveWhich::Shapley))
    }

    fn nucleolus_payload(&self) -> &Result<String, QueryError> {
        self.nucleolus
            .get_or_init(|| self.solve_shares("nucleolus", &self.spec, SolveWhich::Nucleolus))
    }

    /// The base scenario's table, walked on `threads` threads by the
    /// first caller; later callers share its result.
    fn base_table(&self, threads: usize) -> &Result<TableGame, QueryError> {
        self.table.get_or_init(|| fill_table(&self.game, threads))
    }

    fn solve_shares(
        &self,
        kind: &str,
        spec: &ScenarioSpec,
        which: SolveWhich,
    ) -> Result<String, QueryError> {
        let _span = fedval_obs::span_with("serve.state.solve", || format!("kind={kind}"));
        match which {
            SolveWhich::Shapley if self.approx.selects_sampling(spec.n()) => {
                // Solver selection: past the exact cap (or under
                // `--approx`) the query is answered by the sampled
                // estimator with its confidence-interval certificate.
                return self.sampled_shares(kind, spec);
            }
            SolveWhich::Nucleolus if spec.n() > NUCLEOLUS_MAX_PLAYERS => {
                return Err(QueryError::new(
                    "SOLVE_FAILED",
                    format!(
                        "nucleolus: game has {} players but exact enumeration supports at \
                         most {NUCLEOLUS_MAX_PLAYERS}; the nucleolus has no sampled \
                         fallback — query shapley instead",
                        spec.n()
                    ),
                ));
            }
            _ => {}
        }
        if spec == &self.spec {
            let table = self.base_table(1).as_ref().map_err(QueryError::clone)?;
            render_shares_payload(kind, table, which)
        } else {
            let table = fill_table(&ScenarioGame::new(spec), 1)?;
            render_shares_payload(kind, &table, which)
        }
    }

    /// Runs the seeded sampled-Shapley estimator on `spec` and renders
    /// the approx payload (shares + CI + budget + seed). Byte-identical
    /// per `(spec, approx config)` at any thread count.
    fn sampled_shares(&self, kind: &str, spec: &ScenarioSpec) -> Result<String, QueryError> {
        let game = ScenarioGame::new(spec);
        let approx = try_approx_shapley_wide(&game, &self.approx)
            .map_err(|e| QueryError::new("SOLVE_FAILED", e.to_string()))?;
        Ok(render_approx_payload(kind, spec.n(), &approx))
    }

    fn what_if(&self, key: WhatIfKey) -> Result<String, QueryError> {
        // Hit/miss tallies live only in the sharded metric registry
        // (`serve.whatif.{hits,misses}`): the stats payload and the
        // metrics exposition both read the same fold.
        let mut lru = self.whatif.lock();
        if let Some(cached) = lru.get(&key) {
            fedval_obs::counter_add("serve.whatif.hits", 1);
            return cached.clone();
        }
        fedval_obs::counter_add("serve.whatif.misses", 1);
        // Solve while holding the LRU lock: what-if misses are the rare
        // expensive path, and the lock gives single-flight semantics —
        // concurrent identical what-ifs solve once, not N times.
        let (kind, derived) = match &key {
            WhatIfKey::Join {
                locations,
                capacity,
            } => ("what-if-join", self.spec.join(*locations, *capacity)),
            WhatIfKey::Leave { player } => ("what-if-leave", self.spec.leave(*player)),
        };
        let result = derived.and_then(|spec| self.solve_shares(kind, &spec, SolveWhich::Shapley));
        // Deterministic outcomes (answers and request-shape rejections)
        // are cached; solver failures are NOT — pinning one would keep
        // serving a stale error after the condition clears (the bug that
        // used to wedge joins which crossed the old exact-solver cap).
        match &result {
            Ok(_) => {
                lru.insert(key, result.clone());
            }
            Err(e) if e.code == "BAD_REQUEST" => {
                lru.insert(key, result.clone());
            }
            Err(_) => {
                fedval_obs::counter_add("serve.whatif.errors_uncached", 1);
            }
        }
        result
    }
}

/// Which solution concept a share solve runs.
#[derive(Debug, Clone, Copy)]
enum SolveWhich {
    Shapley,
    Nucleolus,
}

/// `game`'s `2^n` coalition table, walked on `threads` threads.
fn fill_table(game: &ScenarioGame, threads: usize) -> Result<TableGame, QueryError> {
    TableGame::try_from_walk(game, threads)
        .map_err(|e| QueryError::new("SOLVE_FAILED", e.to_string()))
}

/// Renders `which`'s normalized shares on `table` (zeros, unsolved, for a
/// valueless game); `SOLVE_FAILED` when the nucleolus LP cascade fails.
fn render_shares_payload(
    kind: &str,
    table: &TableGame,
    which: SolveWhich,
) -> Result<String, QueryError> {
    let grand = table.grand_value();
    let shares = if grand.abs() < 1e-12 {
        vec![0.0; table.n_players()]
    } else {
        let raw = match which {
            SolveWhich::Shapley => shapley(table),
            SolveWhich::Nucleolus => {
                try_nucleolus(table).map_err(|e| QueryError::new("SOLVE_FAILED", e.to_string()))?
            }
        };
        raw.into_iter().map(|v| v / grand).collect()
    };
    Ok(format!(
        "\"kind\":\"{kind}\",\"n\":{},\"grand_value\":{},\"shares\":{}",
        table.n_players(),
        fedval_obs::json_f64(grand),
        render_f64_array(&shares)
    ))
}

/// Renders the sampled-estimator payload: the exact payload's prefix
/// (`kind`/`n`/`grand_value`/`shares`) plus the certificate fields —
/// `approx`, `method`, `samples`, `confidence`, `seed`, and the
/// per-player CI half-widths normalized by `V(N)`.
fn render_approx_payload(kind: &str, n: usize, approx: &ApproxShapley) -> String {
    format!(
        "\"kind\":\"{kind}\",\"n\":{n},\"grand_value\":{},\"shares\":{},\
         \"approx\":true,\"method\":\"permutation\",\"samples\":{},\"confidence\":{},\
         \"seed\":{},\"ci\":{}",
        fedval_obs::json_f64(approx.grand_value),
        render_f64_array(&approx.shares()),
        approx.samples,
        fedval_obs::json_f64(approx.confidence),
        approx.seed,
        render_f64_array(&approx.ci_shares()),
    )
}

/// Locks a mutex, recovering from poisoning: every structure behind
/// these locks stays coherent across unwinds (the LRU mutates under
/// `&mut self` with no partial states observable after a panic).
pub(crate) fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosRng;
    use fedval_coalition::Coalition;

    fn state() -> ServeState {
        ServeState::new(ScenarioSpec::paper_4_1(), 4)
    }

    #[test]
    fn approx_active_mirrors_the_dispatch_guard() {
        // n=3, no force: exact path.
        assert!(!state().approx_active());
        // Same scenario, operator-forced sampling.
        assert!(state()
            .with_approx(ApproxConfig {
                force: true,
                ..ApproxConfig::default()
            })
            .approx_active());
        // Past the exact cap: sampled regardless of the force flag.
        let wide = ScenarioSpec {
            locations: vec![8; EXACT_SHAPLEY_MAX_PLAYERS + 1],
            capacities: vec![1; EXACT_SHAPLEY_MAX_PLAYERS + 1],
            threshold: 20.0,
            shape: 1.0,
            volume: Some(1),
        };
        assert!(ServeState::new(wide, 4).approx_active());
    }

    #[test]
    fn coalition_value_matches_the_paper() {
        let s = state();
        let payload = s
            .execute(&QueryKind::CoalitionValue {
                coalition: vec![0, 1, 2],
            })
            .unwrap();
        assert_eq!(
            payload,
            "\"kind\":\"coalition-value\",\"coalition\":[0,1,2],\"value\":1300"
        );
        // Duplicates are idempotent and membership is canonicalized.
        let dup = s
            .execute(&QueryKind::CoalitionValue {
                coalition: vec![2, 0, 1, 1, 2],
            })
            .unwrap();
        assert_eq!(dup, payload);
    }

    #[test]
    fn out_of_range_players_are_bad_requests() {
        let s = state();
        let err = s
            .execute(&QueryKind::CoalitionValue {
                coalition: vec![7],
            })
            .unwrap_err();
        assert_eq!(err.code, "BAD_REQUEST");
    }

    #[test]
    fn shapley_payload_is_cached_and_correct() {
        let s = state();
        let a = s.execute(&QueryKind::Shapley).unwrap();
        let b = s.execute(&QueryKind::Shapley).unwrap();
        assert_eq!(a, b, "identical queries must serve identical bytes");
        assert!(a.starts_with("\"kind\":\"shapley\",\"n\":3,\"grand_value\":1300,"));
        // ϕ̂₂ = 2/13 from the worked example; compare a truncated
        // decimal prefix, since the solver's summation order may land
        // one ulp away from the literal `2.0 / 13.0`.
        assert!(a.contains("0.15384615384615"), "{a}");
    }

    #[test]
    fn nucleolus_payload_renders() {
        let s = state();
        let p = s.execute(&QueryKind::Nucleolus).unwrap();
        assert!(p.starts_with("\"kind\":\"nucleolus\",\"n\":3,"), "{p}");
    }

    #[test]
    fn warm_fills_every_layer() {
        let s = state();
        assert_eq!(s.coalitions_cached(), 0, "a cold state has no table");
        let report = s.warm(2);
        assert_eq!(report.coalitions, 8);
        assert!(report.shapley_ok && report.nucleolus_ok);
        assert_eq!(s.coalitions_cached(), 8);
    }

    #[test]
    fn warm_solves_the_nucleolus_at_its_cap() {
        // The 12-player synthetic federation sits exactly at
        // NUCLEOLUS_MAX_PLAYERS: warm-up must finish its nucleolus.
        let (draws, threshold) = fedval_testbed::synthetic_profile(NUCLEOLUS_MAX_PLAYERS, 42);
        let spec = ScenarioSpec {
            locations: draws.iter().map(|&(l, _)| l).collect(),
            capacities: draws.iter().map(|&(_, r)| r).collect(),
            threshold,
            shape: 1.0,
            volume: Some(1),
        };
        let report = ServeState::new(spec, 4).warm(1);
        assert_eq!(report.coalitions, 1 << NUCLEOLUS_MAX_PLAYERS);
        assert!(report.shapley_ok && report.nucleolus_ok);
    }

    #[test]
    fn what_if_join_adds_a_player_and_caches() {
        let s = state();
        let kind = QueryKind::WhatIfJoin {
            locations: 200,
            capacity: 1,
        };
        let a = s.execute(&kind).unwrap();
        assert!(a.starts_with("\"kind\":\"what-if-join\",\"n\":4,"), "{a}");
        assert_eq!(s.whatif.lock().len(), 1, "the miss must populate the LRU");
        let b = s.execute(&kind).unwrap();
        assert_eq!(a, b, "the hit must serve the cached bytes");
        assert_eq!(s.whatif.lock().len(), 1, "the hit must not re-insert");
    }

    #[test]
    fn what_if_leave_drops_a_player() {
        let s = state();
        let p = s
            .execute(&QueryKind::WhatIfLeave { player: 0 })
            .unwrap();
        assert!(p.starts_with("\"kind\":\"what-if-leave\",\"n\":2,"), "{p}");
        // Removing facility 1 (L=100) leaves L=(400,800): with ℓ=500
        // the pair still clears the diversity threshold.
        assert!(p.contains("\"grand_value\":1200"), "{p}");
    }

    #[test]
    fn what_if_errors_are_cached_as_bad_requests() {
        let s = state();
        let err = s
            .execute(&QueryKind::WhatIfLeave { player: 9 })
            .unwrap_err();
        assert_eq!(err.code, "BAD_REQUEST");
        let again = s
            .execute(&QueryKind::WhatIfLeave { player: 9 })
            .unwrap_err();
        assert_eq!(again, err, "the cached error must be served verbatim");
        assert_eq!(s.whatif.lock().len(), 1, "errors are cached, not re-derived");
    }

    #[test]
    fn lru_bound_holds_under_many_distinct_whatifs() {
        let s = ServeState::new(ScenarioSpec::paper_4_1(), 2);
        for loc in 1..=6u32 {
            let _ = s.execute(&QueryKind::WhatIfJoin {
                locations: loc,
                capacity: 1,
            });
        }
        let lru = s.whatif.lock();
        assert_eq!(lru.len(), 2, "LRU must stay at its bound");
    }

    #[test]
    fn spec_join_and_leave_validate() {
        let spec = ScenarioSpec::paper_4_1();
        assert_eq!(spec.join(10, 1).unwrap().n(), 4);
        assert_eq!(spec.leave(1).unwrap().n(), 2);
        assert!(spec.leave(3).is_err());
        let solo = ScenarioSpec {
            locations: vec![5],
            capacities: vec![1],
            ..ScenarioSpec::paper_4_1()
        };
        assert!(solo.leave(0).is_err());
        let mut big = spec.clone();
        big.locations = vec![1; MAX_SAMPLED_PLAYERS];
        big.capacities = vec![1; MAX_SAMPLED_PLAYERS];
        assert!(
            big.join(1, 1).is_err(),
            "joins past the sampled-path bound fail"
        );
        // Joins past the old dense-table cap succeed now: they fall
        // through to the sampled estimator.
        let mut wide = spec.clone();
        wide.locations = vec![1; TableGame::MAX_PLAYERS];
        wide.capacities = vec![1; TableGame::MAX_PLAYERS];
        assert_eq!(
            wide.join(1, 1).unwrap().n(),
            TableGame::MAX_PLAYERS + 1,
            "joins may cross the exact caps"
        );
    }

    #[test]
    fn what_if_join_crossing_the_exact_cap_uses_the_estimator() {
        // 16 facilities = exactly the exact-solver cap; one join crosses
        // it, and the solve must fall through to the sampled estimator
        // instead of erroring (the old behaviour pinned a TooManyPlayers
        // error in the LRU).
        let spec = ScenarioSpec {
            locations: vec![8; EXACT_SHAPLEY_MAX_PLAYERS],
            capacities: vec![1; EXACT_SHAPLEY_MAX_PLAYERS],
            threshold: 20.0,
            shape: 1.0,
            volume: Some(1),
        };
        let s = ServeState::new(spec, 4).with_approx(ApproxConfig {
            samples: 32,
            seed: 9,
            ..ApproxConfig::default()
        });
        let kind = QueryKind::WhatIfJoin {
            locations: 12,
            capacity: 1,
        };
        let a = s.execute(&kind).unwrap();
        assert!(a.starts_with("\"kind\":\"what-if-join\",\"n\":17,"), "{a}");
        assert!(a.contains("\"approx\":true"), "{a}");
        assert!(a.contains("\"samples\":32"), "{a}");
        assert!(a.contains("\"seed\":9"), "{a}");
        assert!(a.contains("\"ci\":["), "{a}");
        let b = s.execute(&kind).unwrap();
        assert_eq!(a, b, "sampled what-ifs serve cached identical bytes");
        assert_eq!(s.whatif.lock().len(), 1);
    }

    #[test]
    fn solver_failures_are_not_pinned_in_the_lru() {
        // samples = 0 is a solver-layer failure (NoSamples), not a
        // request-shape error: it must not be cached, so a later
        // identical query re-runs the solve instead of serving a stale
        // error forever.
        let s = ServeState::new(ScenarioSpec::paper_4_1(), 4).with_approx(ApproxConfig {
            samples: 0,
            force: true,
            ..ApproxConfig::default()
        });
        let kind = QueryKind::WhatIfJoin {
            locations: 50,
            capacity: 1,
        };
        let err = s.execute(&kind).unwrap_err();
        assert_eq!(err.code, "SOLVE_FAILED");
        assert_eq!(
            s.whatif.lock().len(),
            0,
            "solver failures must not populate the LRU"
        );
        let again = s.execute(&kind).unwrap_err();
        assert_eq!(again.code, "SOLVE_FAILED");
    }

    #[test]
    fn large_federation_shapley_is_sampled_and_deterministic() {
        let spec = ScenarioSpec {
            locations: vec![6; 40],
            capacities: vec![1; 40],
            threshold: 30.0,
            shape: 1.0,
            volume: Some(1),
        };
        let approx = ApproxConfig {
            samples: 48,
            seed: 7,
            ..ApproxConfig::default()
        };
        let one_thread = ServeState::new(spec.clone(), 4).with_approx(approx);
        let four_threads = ServeState::new(spec, 4).with_approx(ApproxConfig {
            threads: 4,
            ..approx
        });
        let a = one_thread.execute(&QueryKind::Shapley).unwrap();
        let b = four_threads.execute(&QueryKind::Shapley).unwrap();
        assert_eq!(a, b, "sampling must be byte-identical at any thread count");
        assert!(a.starts_with("\"kind\":\"shapley\",\"n\":40,"), "{a}");
        assert!(a.contains("\"approx\":true"), "{a}");
        // The nucleolus has no sampled fallback: typed error, no panic.
        let err = one_thread.execute(&QueryKind::Nucleolus).unwrap_err();
        assert_eq!(err.code, "SOLVE_FAILED");
        assert!(err.detail.contains("no sampled fallback"), "{}", err.detail);
        // Warm must not attempt the 2^40 sweep.
        let report = one_thread.warm(2);
        assert_eq!(report.coalitions, 0);
        assert!(report.shapley_ok);
        assert!(!report.nucleolus_ok);
    }

    #[test]
    fn nucleolus_lp_failure_is_solve_failed() {
        // A NaN coalition value makes the nucleolus LP malformed: the
        // request gets a typed SOLVE_FAILED, not a worker panic.
        let table = TableGame::from_values(2, vec![0.0, f64::NAN, 1.0, 3.0]);
        let err = render_shares_payload("nucleolus", &table, SolveWhich::Nucleolus)
            .expect_err("malformed LP");
        assert_eq!(err.code, "SOLVE_FAILED");
        assert!(err.detail.contains("nucleolus"), "{}", err.detail);
    }

    #[test]
    fn non_finite_coalition_values_are_solve_failed() {
        // d = 400 over 10 and 20 locations overflows every non-empty
        // coalition's value to inf: the table fill refuses it, cold and
        // warm, and each query that reads the table says so.
        let spec = ScenarioSpec {
            locations: vec![10, 20],
            capacities: vec![1, 1],
            threshold: 1.0,
            shape: 400.0,
            volume: Some(1),
        };
        for warm in [false, true] {
            let s = ServeState::new(spec.clone(), 4);
            if warm {
                let report = s.warm(2);
                assert!(!report.shapley_ok && !report.nucleolus_ok, "{report:?}");
                assert_eq!(report.coalitions, 0);
            }
            for kind in [
                QueryKind::Shapley,
                QueryKind::Nucleolus,
                QueryKind::CoalitionValue { coalition: vec![1] },
            ] {
                let err = s.execute(&kind).expect_err("an inf table must not be served");
                assert_eq!(err.code, "SOLVE_FAILED", "{}: {}", kind.name(), err.detail);
                assert!(err.detail.contains("non-finite"), "{}", err.detail);
            }
        }
    }

    #[test]
    fn coalition_value_works_past_the_bitset_width() {
        let spec = ScenarioSpec {
            locations: vec![5; 70],
            capacities: vec![1; 70],
            threshold: 8.0,
            shape: 1.0,
            volume: Some(1),
        };
        let s = ServeState::new(spec, 4);
        let p = s
            .execute(&QueryKind::CoalitionValue {
                coalition: vec![69, 0, 1, 1],
            })
            .unwrap();
        assert!(
            p.starts_with("\"kind\":\"coalition-value\",\"coalition\":[0,1,69],"),
            "{p}"
        );
        assert!(p.contains("\"value\":15"), "three facilities × 5 locations: {p}");
        let err = s
            .execute(&QueryKind::CoalitionValue {
                coalition: vec![70],
            })
            .unwrap_err();
        assert_eq!(err.code, "BAD_REQUEST");
    }

    /// `coalition-value` renders `value_members` of the sorted,
    /// deduplicated members, with the same bytes cold and warm: read from
    /// the base table up to the exact cap, evaluated directly past it.
    #[test]
    fn coalition_value_is_value_members_cold_and_warm() {
        let every: Vec<Vec<usize>> = Coalition::all(3).map(|c| c.players().collect()).collect();
        let wide = ScenarioSpec {
            locations: (0..20).map(|i| 3 + i % 7).collect(),
            capacities: vec![1; 20],
            threshold: 30.0,
            shape: 1.0,
            volume: Some(1),
        };
        let mut rng = ChaosRng::new(20);
        let sampled: Vec<Vec<usize>> = (0..64)
            .map(|_| {
                let k = rng.below(25);
                (0..k)
                    .map(|_| usize::try_from(rng.below(20)).unwrap())
                    .collect()
            })
            .collect();
        assert!(sampled.iter().any(|q| q.windows(2).any(|w| w[0] > w[1])));
        assert!(sampled.iter().any(|q| {
            let mut sorted = q.clone();
            sorted.sort_unstable();
            sorted.windows(2).any(|w| w[0] == w[1])
        }));
        for (spec, queries) in [(ScenarioSpec::paper_4_1(), every), (wide, sampled)] {
            let approx = ApproxConfig {
                samples: 8,
                ..ApproxConfig::default()
            };
            let cold = ServeState::new(spec.clone(), 4).with_approx(approx);
            let warm = ServeState::new(spec.clone(), 4).with_approx(approx);
            let _ = warm.warm(2);
            let game = ScenarioGame::new(&spec);
            for players in queries {
                let mut members = players.clone();
                members.sort_unstable();
                members.dedup();
                let ids: Vec<String> = members.iter().map(|p| p.to_string()).collect();
                let want = format!(
                    "\"kind\":\"coalition-value\",\"coalition\":[{}],\"value\":{}",
                    ids.join(","),
                    fedval_obs::json_f64(game.value_members(&members))
                );
                let kind = QueryKind::CoalitionValue { coalition: players };
                assert_eq!(cold.execute(&kind).unwrap(), want, "n={}", spec.n());
                assert_eq!(warm.execute(&kind).unwrap(), want, "n={}", spec.n());
            }
        }
    }

    #[test]
    fn forced_approx_covers_the_exact_worked_example() {
        let s = ServeState::new(ScenarioSpec::paper_4_1(), 4).with_approx(ApproxConfig {
            samples: 2048,
            seed: 3,
            force: true,
            ..ApproxConfig::default()
        });
        let p = s.execute(&QueryKind::Shapley).unwrap();
        assert!(p.contains("\"approx\":true"), "{p}");
        assert!(p.contains("\"grand_value\":1300"), "{p}");
    }

    #[test]
    fn non_compute_kinds_are_rejected_by_execute() {
        let s = state();
        assert_eq!(s.execute(&QueryKind::Health).unwrap_err().code, "BAD_REQUEST");
    }
}
