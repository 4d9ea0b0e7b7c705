//! The hedonic merge/split formation engine.
//!
//! Each round on the desim clock: retire announced departures, then let
//! coalitions **merge** (highest strict gain first, each block in at
//! most one merge per round), then let blocks **split** along the best
//! strictly-gaining bipartition found within a seeded candidate budget.
//! Because every operation strictly increases the potential
//! `Σ_blocks V(B)` by more than `gain_epsilon`, the dynamics cannot
//! cycle; the round cap bounds the run regardless.
//!
//! Determinism: candidate enumeration follows block-id order, sampling
//! draws come from `derive_seed(seed, round)` streams consumed on the
//! single decision thread, and all parallel value evaluation goes
//! through [`ValueOracle::eval_batch`] (input-order results). The
//! rendered outcome is a pure function of `(game, schedule, config)`.

use crate::churn::{ChurnSchedule, LifeEvent};
use crate::lifecycle::LifecycleState;
use crate::oracle::ValueOracle;
use crate::partition::{fnv1a, Partition};
use fedval_coalition::{
    derive_seed, shapley_auto_wide, ApproxConfig, GameError, PlayerId, WideGame,
};
use fedval_core::{Demand, Facility, FederationGame, FederationScenario};
use fedval_desim::{SimRng, Simulator};
use std::collections::BTreeSet;

/// Stream selector for round rule RNGs.
const ROUND_STREAM: u64 = 0x00F0_4444;
/// Stream selector for the final stability probe.
const STABILITY_STREAM: u64 = 0x0057_AB1E;
/// FNV-1a offset basis (64-bit), re-stated for trajectory folding.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// An owned federation characteristic function — the glue between
/// [`FederationScenario`] / the synthetic generator and the engine's
/// [`WideGame`] interface (the borrowed [`FederationGame`] cannot
/// outlive its scenario; formation runs want an owned game).
pub struct FormationGame {
    facilities: Vec<Facility>,
    demand: Demand,
}

impl FormationGame {
    /// Clones a scenario's facilities and demand into an owned game.
    pub fn from_scenario(scenario: &FederationScenario) -> FormationGame {
        FormationGame {
            facilities: scenario.facilities().to_vec(),
            demand: scenario.demand().clone(),
        }
    }

    /// The seeded synthetic federation (shared `(n, seed)` generator —
    /// same bytes as `fedval --synthetic` and `fedval-serve`).
    ///
    /// # Panics
    /// Panics if `n == 0` (propagated from the generator).
    pub fn synthetic(n: usize, seed: u64) -> FormationGame {
        let (facilities, demand) = fedval_testbed::synthetic_federation(n, seed);
        FormationGame { facilities, demand }
    }

    /// The facilities, in player-id order.
    pub fn facilities(&self) -> &[Facility] {
        &self.facilities
    }
}

impl WideGame for FormationGame {
    fn n_players(&self) -> usize {
        self.facilities.len()
    }
    fn value_members(&self, members: &[PlayerId]) -> f64 {
        FederationGame::new(&self.facilities, &self.demand).value_members(members)
    }
    fn value_walk(&self, start: &[PlayerId], toggles: &[PlayerId]) -> Vec<f64> {
        FederationGame::new(&self.facilities, &self.demand).value_walk(start, toggles)
    }
}

/// A [`WideGame`] restricted to a subset of its players (payoff math
/// runs on the survivors / one coalition at a time).
struct RestrictedGame<'g, G: WideGame + ?Sized> {
    game: &'g G,
    members: Vec<PlayerId>,
}

impl<G: WideGame + ?Sized> WideGame for RestrictedGame<'_, G> {
    fn n_players(&self) -> usize {
        self.members.len()
    }
    fn value_members(&self, members: &[PlayerId]) -> f64 {
        let mapped: Vec<PlayerId> = members.iter().map(|&i| self.members[i]).collect();
        // `members` is ascending and `self.members` is sorted, so the
        // mapped list is ascending too — the WideGame contract holds.
        self.game.value_members(&mapped)
    }
    fn value_walk(&self, start: &[PlayerId], toggles: &[PlayerId]) -> Vec<f64> {
        // The mapping is increasing, so the mapped start stays ascending
        // and toggling a mapped id tracks the mapped current set: element
        // k is still V of the walk's k-th coalition.
        let start: Vec<PlayerId> = start.iter().map(|&i| self.members[i]).collect();
        let toggles: Vec<PlayerId> = toggles.iter().map(|&i| self.members[i]).collect();
        self.game.value_walk(&start, &toggles)
    }
}

/// Tuning for a formation run. All fields feed the deterministic result.
#[derive(Debug, Clone)]
pub struct FormationConfig {
    /// Master seed for merge-pair sampling and split bipartition draws.
    pub seed: u64,
    /// Hard cap on rounds (the engine may stop earlier on convergence).
    pub max_rounds: usize,
    /// Simulated time between rounds; must be finite and at least 0
    /// ([`FormationEngine::run`] panics otherwise).
    pub round_dt: f64,
    /// Max merge candidate pairs examined per round (lexicographic
    /// enumeration below the budget, seeded sampling above it).
    pub pair_budget: usize,
    /// Bipartitions sampled per block per round (small blocks are
    /// enumerated exhaustively).
    pub split_budget: usize,
    /// Weak-improvement merges allowed per round on value plateaus.
    /// Threshold demand makes every under-threshold coalition worth 0 —
    /// no *strictly* gaining pair exists below the threshold, and a
    /// strict-only rule stalls at singletons. Zero-gain ("neutral")
    /// merges let the federation coarsen across the plateau toward the
    /// threshold; strictly harmful merges never fire. Set 0 to restore
    /// the strict-only rule.
    pub neutral_budget: usize,
    /// Max pairs examined by the final merge-stability probe.
    pub stability_pair_budget: usize,
    /// Strict-improvement tolerance: an operation fires only when its
    /// gain exceeds this (guards float noise from counting as gain).
    pub gain_epsilon: f64,
    /// Worker threads for value evaluation (results are invariant).
    pub threads: usize,
    /// Sampled-Shapley settings for the payoff table past the exact cap.
    pub approx: ApproxConfig,
}

impl Default for FormationConfig {
    fn default() -> FormationConfig {
        FormationConfig {
            seed: 42,
            max_rounds: 32,
            round_dt: 10.0,
            pair_budget: 128,
            split_budget: 2,
            neutral_budget: 32,
            stability_pair_budget: 4096,
            gain_epsilon: 1e-9,
            threads: 1,
            approx: ApproxConfig {
                samples: 64,
                ..ApproxConfig::default()
            },
        }
    }
}

/// What one round did to the partition.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// 1-based round number.
    pub round: usize,
    /// Simulated time of the round boundary.
    pub time: f64,
    /// Arrivals admitted since the previous round.
    pub arrivals: usize,
    /// Departing authorities retired at this boundary.
    pub departures: usize,
    /// Merges fired this round.
    pub merges: usize,
    /// Splits fired this round.
    pub splits: usize,
    /// Coalitions after the round.
    pub coalitions: usize,
    /// Members (incl. departing-not-yet-retired) after the round.
    pub members: usize,
    /// Canonical partition fingerprint after the round.
    pub fingerprint: u64,
}

/// Final per-authority payoff accounting.
#[derive(Debug, Clone)]
pub struct PayoffRow {
    /// Player id.
    pub authority: usize,
    /// Lifecycle state at the end of the run.
    pub state: LifecycleState,
    /// Minimum member of the authority's final coalition (a canonical,
    /// id-history-free coalition label).
    pub coalition: usize,
    /// Shapley share promised by the grand coalition of survivors.
    pub promised: f64,
    /// Shapley share realized inside the authority's actual coalition.
    pub realized: f64,
    /// `promised - realized` — what fragmentation cost this authority.
    pub regret: f64,
}

/// Is the final partition stable under the rules that built it?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StabilityReport {
    /// No examined pair of blocks strictly gains by merging.
    pub merge_stable: bool,
    /// No examined bipartition of any block strictly gains.
    pub split_stable: bool,
    /// Whether both probes covered *all* candidates (vs. seeded samples
    /// once the candidate space outgrew the probe budgets).
    pub exhaustive: bool,
    /// Merge pairs examined.
    pub pairs_checked: usize,
    /// Bipartitions examined.
    pub bipartitions_checked: usize,
}

/// Everything a formation run produced.
#[derive(Debug, Clone)]
pub struct FormationOutcome {
    /// Scenario width (players known to the game).
    pub n: usize,
    /// Per-round trajectory.
    pub rounds: Vec<RoundRecord>,
    /// First round after which the partition was quiescent (no arrivals,
    /// retirements, merges, or splits), if any.
    pub converged_round: Option<usize>,
    /// Total merges across the run.
    pub total_merges: usize,
    /// Total splits across the run.
    pub total_splits: usize,
    /// The final partition.
    pub final_partition: Partition,
    /// Final lifecycle state per player id.
    pub states: Vec<LifecycleState>,
    /// Stability probe verdict on the final partition.
    pub stability: StabilityReport,
    /// Per-authority promised/realized/regret rows (empty if nobody
    /// survived to the end).
    pub payoffs: Vec<PayoffRow>,
    /// Payoff solver failure, if the Shapley stage refused its config.
    pub payoff_error: Option<String>,
    /// FNV-1a fold of the round trajectory.
    pub trajectory_fingerprint: u64,
}

impl FormationOutcome {
    /// Largest absolute regret across the payoff table (0.0 when empty).
    pub fn max_abs_regret(&self) -> f64 {
        self.payoffs
            .iter()
            .map(|r| r.regret.abs())
            .fold(0.0, f64::max)
    }

    /// Mean absolute regret across the payoff table (0.0 when empty).
    pub fn mean_abs_regret(&self) -> f64 {
        if self.payoffs.is_empty() {
            return 0.0;
        }
        self.payoffs.iter().map(|r| r.regret.abs()).sum::<f64>() / self.payoffs.len() as f64
    }

    /// Trajectory fingerprint folded with the payoff-table bit patterns —
    /// one u64 that pins the whole deterministic outcome (what CI and
    /// `bench_pipeline` compare).
    pub fn combined_fingerprint(&self) -> u64 {
        let mut h = self.trajectory_fingerprint;
        for row in &self.payoffs {
            h = fnv1a(h, &(row.authority as u64).to_le_bytes());
            h = fnv1a(h, &row.promised.to_bits().to_le_bytes());
            h = fnv1a(h, &row.realized.to_bits().to_le_bytes());
        }
        h
    }

    /// The policy-report section for this run.
    pub fn policy_section(&self) -> fedval_policy::FormationSection {
        fedval_policy::FormationSection {
            rounds: self.rounds.len(),
            converged_round: self.converged_round,
            merges: self.total_merges,
            splits: self.total_splits,
            merge_stable: self.stability.merge_stable,
            split_stable: self.stability.split_stable,
            stability_exhaustive: self.stability.exhaustive,
            coalitions: self.final_partition.n_blocks(),
            members: self.final_partition.n_members(),
            max_abs_regret: self.max_abs_regret(),
            mean_abs_regret: self.mean_abs_regret(),
            fingerprint: self.combined_fingerprint(),
        }
    }

    /// Deterministic full-text render: trajectory table, convergence and
    /// stability verdicts, and the payoff table. Byte-identical at any
    /// thread count (contains no wall-clock or scheduling artifacts).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("round   time      join  leave  merge  split  blocks  members  fingerprint\n");
        for r in &self.rounds {
            out.push_str(&format!(
                "{:>5}  {:>8.1}  {:>4}  {:>5}  {:>5}  {:>5}  {:>6}  {:>7}  {:016x}\n",
                r.round,
                r.time,
                r.arrivals,
                r.departures,
                r.merges,
                r.splits,
                r.coalitions,
                r.members,
                r.fingerprint
            ));
        }
        match self.converged_round {
            Some(k) => out.push_str(&format!("converged: round {k} of {}\n", self.rounds.len())),
            None => out.push_str(&format!(
                "converged: no (round cap {} reached)\n",
                self.rounds.len()
            )),
        }
        out.push_str(&format!(
            "stability: merge-stable={} split-stable={} ({}; {} pairs, {} bipartitions)\n",
            yes_no(self.stability.merge_stable),
            yes_no(self.stability.split_stable),
            if self.stability.exhaustive {
                "exhaustive"
            } else {
                "sampled"
            },
            self.stability.pairs_checked,
            self.stability.bipartitions_checked,
        ));
        out.push_str(&format!(
            "final partition: {} coalitions / {} members (of n={})\n",
            self.final_partition.n_blocks(),
            self.final_partition.n_members(),
            self.n
        ));
        if let Some(err) = &self.payoff_error {
            out.push_str(&format!("payoffs: unavailable ({err})\n"));
        } else if self.payoffs.is_empty() {
            out.push_str("payoffs: none (no surviving members)\n");
        } else {
            out.push_str("authority  state      coalition  promised      realized      regret\n");
            for row in &self.payoffs {
                out.push_str(&format!(
                    "{:>9}  {:<9}  {:>9}  {:>12.6}  {:>12.6}  {:>+12.6}\n",
                    row.authority,
                    row.state.label(),
                    row.coalition,
                    row.promised,
                    row.realized,
                    row.regret
                ));
            }
            out.push_str(&format!(
                "regret: max|r|={:.6} mean|r|={:.6}\n",
                self.max_abs_regret(),
                self.mean_abs_regret()
            ));
        }
        out.push_str(&format!(
            "totals: merges={} splits={}\n",
            self.total_merges, self.total_splits
        ));
        out.push_str(&format!(
            "trajectory fingerprint: {:016x}\n",
            self.trajectory_fingerprint
        ));
        out.push_str(&format!(
            "outcome fingerprint: {:016x}\n",
            self.combined_fingerprint()
        ));
        out
    }
}

fn yes_no(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no"
    }
}

/// Simulator payload: lifecycle events interleave with round boundaries.
enum FormEvent {
    Life(LifeEvent),
    Round,
}

/// The engine: a game plus tuning, run over a churn schedule.
pub struct FormationEngine<'g, G: WideGame + ?Sized> {
    oracle: ValueOracle<'g, G>,
    cfg: FormationConfig,
}

impl<'g, G: WideGame + ?Sized> FormationEngine<'g, G> {
    /// Builds an engine over `game`.
    pub fn new(game: &'g G, cfg: FormationConfig) -> FormationEngine<'g, G> {
        FormationEngine {
            oracle: ValueOracle::new(game),
            cfg,
        }
    }

    /// Cache statistics from the run (reporting only — scheduling
    /// dependent under parallel evaluation).
    pub fn cache_stats(&self) -> (u64, u64) {
        self.oracle.cache_stats()
    }

    /// Runs the merge/split dynamics over `schedule` to completion
    /// (convergence with no pending lifecycle events, or the round cap).
    ///
    /// # Panics
    /// Panics when an event would fall at a non-finite time: `cfg.round_dt`
    /// must be finite and at least 0, and no churn event time infinite.
    pub fn run(&self, schedule: &ChurnSchedule) -> FormationOutcome {
        let n = self.oracle.n_players();
        let mut states = vec![LifecycleState::Candidate; n];
        let mut partition = Partition::new();
        let mut sim: Simulator<FormEvent> = Simulator::new();

        let lifecycle: Vec<(f64, FormEvent)> = schedule
            .events()
            .iter()
            .filter(|(_, ev)| match *ev {
                LifeEvent::Arrive(a) | LifeEvent::Depart(a) => a < n,
            })
            .map(|&(at, ev)| (at.max(0.0), FormEvent::Life(ev)))
            .collect();
        let mut lifecycle_pending = lifecycle.len();
        let max_rounds = self.cfg.max_rounds.max(1);
        let rounds = (1..=max_rounds).map(|k| (k as f64 * self.cfg.round_dt, FormEvent::Round));
        for (at, event) in lifecycle.into_iter().chain(rounds) {
            match sim.try_schedule_at(at, event) {
                Ok(()) => {}
                #[expect(
                    clippy::panic,
                    reason = "documented `# Panics`: finite event times are the caller's precondition; fedform checks --round-dt while parsing"
                )]
                Err(e) => panic!("FormationEngine::run: {e}"),
            }
        }

        let mut rounds: Vec<RoundRecord> = Vec::new();
        let mut converged_round: Option<usize> = None;
        let (mut total_merges, mut total_splits) = (0usize, 0usize);
        let (mut arrivals_since, mut round_no) = (0usize, 0usize);

        while let Some((time, event)) = sim.next_event() {
            match event {
                FormEvent::Life(LifeEvent::Arrive(a)) => {
                    lifecycle_pending -= 1;
                    if states[a] == LifecycleState::Candidate {
                        states[a] = LifecycleState::Member;
                        partition.insert_singleton(a);
                        arrivals_since += 1;
                        converged_round = None;
                        fedval_obs::counter_add("form.join", 1);
                    }
                }
                FormEvent::Life(LifeEvent::Depart(a)) => {
                    lifecycle_pending -= 1;
                    if states[a] == LifecycleState::Member {
                        states[a] = LifecycleState::Departing;
                        converged_round = None;
                        fedval_obs::counter_add("form.departing", 1);
                    }
                }
                FormEvent::Round => {
                    round_no += 1;
                    fedval_obs::counter_add("form.round", 1);
                    let _span = fedval_obs::span_with("form.round", || {
                        format!("round={round_no} blocks={}", partition.n_blocks())
                    });
                    let mut departures = 0usize;
                    for (a, state) in states.iter_mut().enumerate().take(n) {
                        if *state == LifecycleState::Departing {
                            partition.remove_member(a);
                            *state = LifecycleState::Gone;
                            departures += 1;
                            fedval_obs::counter_add("form.leave", 1);
                        }
                    }
                    let mut rng = SimRng::seed_from(derive_seed(
                        self.cfg.seed,
                        ROUND_STREAM ^ round_no as u64,
                    ));
                    let merges = self.merge_pass(&mut partition, &mut rng);
                    let splits = self.split_pass(&mut partition, &mut rng);
                    total_merges += merges;
                    total_splits += splits;
                    rounds.push(RoundRecord {
                        round: round_no,
                        time,
                        arrivals: arrivals_since,
                        departures,
                        merges,
                        splits,
                        coalitions: partition.n_blocks(),
                        members: partition.n_members(),
                        fingerprint: partition.fingerprint(),
                    });
                    let quiescent =
                        arrivals_since == 0 && departures == 0 && merges == 0 && splits == 0;
                    arrivals_since = 0;
                    if quiescent && converged_round.is_none() {
                        converged_round = Some(round_no);
                    }
                    if converged_round.is_some() && lifecycle_pending == 0 {
                        break;
                    }
                }
            }
        }

        let stability = self.check_stability(&partition);
        let (payoffs, payoff_error) = match self.compute_payoffs(&partition, &states) {
            Ok(rows) => (rows, None),
            Err(e) => (Vec::new(), Some(e.to_string())),
        };

        let mut trajectory_fingerprint = FNV_OFFSET;
        for r in &rounds {
            for word in [
                r.round as u64,
                r.arrivals as u64,
                r.departures as u64,
                r.merges as u64,
                r.splits as u64,
                r.fingerprint,
            ] {
                trajectory_fingerprint = fnv1a(trajectory_fingerprint, &word.to_le_bytes());
            }
        }

        FormationOutcome {
            n,
            rounds,
            converged_round,
            total_merges,
            total_splits,
            final_partition: partition,
            states,
            stability,
            payoffs,
            payoff_error,
            trajectory_fingerprint,
        }
    }

    /// One merge round: examine up to `pair_budget` block pairs, fire the
    /// strictly-gaining ones greedily by descending gain, each block in
    /// at most one merge.
    fn merge_pass(&self, partition: &mut Partition, rng: &mut SimRng) -> usize {
        let ids = partition.block_ids();
        if ids.len() < 2 {
            return 0;
        }
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                pairs.push((a, b));
            }
        }
        if pairs.len() > self.cfg.pair_budget && self.cfg.pair_budget > 0 {
            sample_prefix(&mut pairs, self.cfg.pair_budget, rng);
            pairs.sort_unstable();
        }
        let (values, union_values) = self.pair_values(partition, &pairs);
        let mut scored: Vec<(f64, u32, u32)> = pairs
            .iter()
            .enumerate()
            .map(|(k, &(a, b))| {
                let gain = union_values[k] - values[&a] - values[&b];
                (gain, a, b)
            })
            .collect();
        scored.sort_by(|x, y| {
            y.0.total_cmp(&x.0)
                .then_with(|| (x.1, x.2).cmp(&(y.1, y.2)))
        });
        let mut consumed: BTreeSet<u32> = BTreeSet::new();
        let mut merges = 0usize;
        let mut neutral_left = self.cfg.neutral_budget;
        for (gain, a, b) in scored {
            if gain < -self.cfg.gain_epsilon {
                // Descending order: everything past here strictly loses.
                break;
            }
            let strict = gain > self.cfg.gain_epsilon;
            if !strict && neutral_left == 0 {
                // Descending order: no strict gains remain either.
                break;
            }
            if consumed.contains(&a) || consumed.contains(&b) {
                continue;
            }
            if partition.merge(a, b).is_some() {
                consumed.insert(a);
                consumed.insert(b);
                merges += 1;
                fedval_obs::counter_add("form.merge", 1);
                if !strict {
                    neutral_left -= 1;
                    fedval_obs::counter_add("form.merge.neutral", 1);
                }
            }
        }
        merges
    }

    /// Values for every block named in `pairs` plus every pairwise union,
    /// evaluated as one deterministic batch. Returns
    /// `(block_id -> value, union value per pair in pair order)`.
    fn pair_values(
        &self,
        partition: &Partition,
        pairs: &[(u32, u32)],
    ) -> (std::collections::BTreeMap<u32, f64>, Vec<f64>) {
        let involved: BTreeSet<u32> = pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
        let mut queries: Vec<Vec<PlayerId>> = Vec::with_capacity(involved.len() + pairs.len());
        for &id in &involved {
            queries.push(partition.members(id).to_vec());
        }
        for &(a, b) in pairs {
            let mut u: Vec<PlayerId> = partition
                .members(a)
                .iter()
                .chain(partition.members(b))
                .copied()
                .collect();
            u.sort_unstable();
            queries.push(u);
        }
        let vals = self.oracle.eval_batch(&queries, self.cfg.threads);
        let block_values: std::collections::BTreeMap<u32, f64> =
            involved.iter().copied().zip(vals.iter().copied()).collect();
        (block_values, vals[involved.len()..].to_vec())
    }

    /// One split round: for each multi-member block, enumerate (small
    /// blocks) or sample (large blocks) bipartitions; fire the best
    /// strictly-gaining one per block.
    fn split_pass(&self, partition: &mut Partition, rng: &mut SimRng) -> usize {
        let ids = partition.block_ids();
        // (block id, side_a, side_b) in deterministic generation order.
        let mut candidates: Vec<(u32, Vec<PlayerId>, Vec<PlayerId>)> = Vec::new();
        for &id in &ids {
            let members = partition.members(id).to_vec();
            if members.len() < 2 {
                continue;
            }
            generate_bipartitions(&members, self.cfg.split_budget, rng, &mut |a, b| {
                candidates.push((id, a, b));
            });
        }
        if candidates.is_empty() {
            return 0;
        }
        let mut queries: Vec<Vec<PlayerId>> = Vec::with_capacity(candidates.len() * 2);
        for (_, a, b) in &candidates {
            queries.push(a.clone());
            queries.push(b.clone());
        }
        let side_vals = self.oracle.eval_batch(&queries, self.cfg.threads);
        let whole_queries: Vec<Vec<PlayerId>> = ids
            .iter()
            .map(|&id| partition.members(id).to_vec())
            .collect();
        let whole_vals = self.oracle.eval_batch(&whole_queries, self.cfg.threads);
        let whole: std::collections::BTreeMap<u32, f64> = ids
            .iter()
            .copied()
            .zip(whole_vals.iter().copied())
            .collect();

        // Best strictly-gaining candidate per block, first-listed wins ties.
        let mut best: std::collections::BTreeMap<u32, (f64, usize)> =
            std::collections::BTreeMap::new();
        for (k, (id, _, _)) in candidates.iter().enumerate() {
            let gain = side_vals[2 * k] + side_vals[2 * k + 1] - whole[id];
            if gain > self.cfg.gain_epsilon {
                let better = match best.get(id) {
                    Some(&(g, _)) => gain > g,
                    None => true,
                };
                if better {
                    best.insert(*id, (gain, k));
                }
            }
        }
        let mut splits = 0usize;
        for (&id, &(_, k)) in &best {
            let (_, a, b) = &candidates[k];
            if partition.split(id, a.clone(), b.clone()).is_some() {
                splits += 1;
                fedval_obs::counter_add("form.split", 1);
            }
        }
        splits
    }

    /// Probes the final partition for merge- and split-stability, within
    /// the stability budgets; `exhaustive` says whether the probe covered
    /// the full candidate space.
    fn check_stability(&self, partition: &Partition) -> StabilityReport {
        let mut rng = SimRng::seed_from(derive_seed(self.cfg.seed, STABILITY_STREAM));
        let ids = partition.block_ids();
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                pairs.push((a, b));
            }
        }
        let pairs_exhaustive = pairs.len() <= self.cfg.stability_pair_budget;
        if !pairs_exhaustive {
            sample_prefix(&mut pairs, self.cfg.stability_pair_budget, &mut rng);
            pairs.sort_unstable();
        }
        let (values, union_values) = self.pair_values(partition, &pairs);
        let merge_stable = pairs
            .iter()
            .enumerate()
            .all(|(k, &(a, b))| union_values[k] - values[&a] - values[&b] <= self.cfg.gain_epsilon);

        // Split probe: exhaustive for small blocks, a larger-than-round
        // seeded sample for big ones.
        let probe_budget = self.cfg.split_budget.max(16);
        let mut split_exhaustive = true;
        let mut candidates: Vec<(u32, Vec<PlayerId>, Vec<PlayerId>)> = Vec::new();
        for &id in &ids {
            let members = partition.members(id).to_vec();
            if members.len() < 2 {
                continue;
            }
            if !exhaustive_below(&members, probe_budget) {
                split_exhaustive = false;
            }
            generate_bipartitions(&members, probe_budget, &mut rng, &mut |a, b| {
                candidates.push((id, a, b));
            });
        }
        let mut queries: Vec<Vec<PlayerId>> = Vec::with_capacity(candidates.len() * 2);
        for (_, a, b) in &candidates {
            queries.push(a.clone());
            queries.push(b.clone());
        }
        let side_vals = self.oracle.eval_batch(&queries, self.cfg.threads);
        let whole_queries: Vec<Vec<PlayerId>> = ids
            .iter()
            .map(|&id| partition.members(id).to_vec())
            .collect();
        let whole_vals = self.oracle.eval_batch(&whole_queries, self.cfg.threads);
        let whole: std::collections::BTreeMap<u32, f64> = ids
            .iter()
            .copied()
            .zip(whole_vals.iter().copied())
            .collect();
        let split_stable = candidates.iter().enumerate().all(|(k, (id, _, _))| {
            side_vals[2 * k] + side_vals[2 * k + 1] - whole[id] <= self.cfg.gain_epsilon
        });

        StabilityReport {
            merge_stable,
            split_stable,
            exhaustive: pairs_exhaustive && split_exhaustive,
            pairs_checked: pairs.len(),
            bipartitions_checked: candidates.len(),
        }
    }

    /// The payoff table: promised (Shapley in the survivors' grand
    /// coalition) vs. realized (Shapley inside the actual coalition),
    /// exact below the cap and sampled with certified CIs above it. A
    /// block holding every survivor reuses the promised pass.
    ///
    /// # Errors
    /// Propagates [`GameError`] when the Shapley stage rejects its
    /// configuration (e.g. a zero sample budget).
    fn compute_payoffs(
        &self,
        partition: &Partition,
        states: &[LifecycleState],
    ) -> Result<Vec<PayoffRow>, GameError> {
        let mut grand: Vec<PlayerId> = Vec::new();
        for (_, members) in partition.blocks() {
            grand.extend_from_slice(members);
        }
        grand.sort_unstable();
        if grand.is_empty() {
            return Ok(Vec::new());
        }
        let approx = ApproxConfig {
            threads: self.cfg.threads,
            ..self.cfg.approx
        };
        let _span = fedval_obs::span_with("form.payoffs", || {
            format!("members={} blocks={}", grand.len(), partition.n_blocks())
        });
        let promised_game = RestrictedGame {
            game: self.oracle.game(),
            members: grand.clone(),
        };
        let promised_phi = shapley_auto_wide(&promised_game, &approx)?.phi().to_vec();
        let mut promised: std::collections::BTreeMap<PlayerId, f64> =
            std::collections::BTreeMap::new();
        for (i, &p) in grand.iter().enumerate() {
            promised.insert(p, promised_phi[i]);
        }

        let mut rows: Vec<PayoffRow> = Vec::with_capacity(grand.len());
        for (_, members) in partition.blocks() {
            let coalition_label = members.first().copied().unwrap_or(0);
            let realized_phi: Vec<f64> = if members.len() == 1 {
                vec![self.oracle.value(members)]
            } else if members == grand.as_slice() {
                // Every survivor sits in this block: it is the promised
                // game itself, so its shares are the promised bits.
                promised_phi.clone()
            } else {
                let block_game = RestrictedGame {
                    game: self.oracle.game(),
                    members: members.to_vec(),
                };
                shapley_auto_wide(&block_game, &approx)?.phi().to_vec()
            };
            for (i, &p) in members.iter().enumerate() {
                let want = promised[&p];
                let got = realized_phi[i];
                rows.push(PayoffRow {
                    authority: p,
                    state: states[p],
                    coalition: coalition_label,
                    promised: want,
                    realized: got,
                    regret: want - got,
                });
            }
        }
        rows.sort_by_key(|r| r.authority);
        Ok(rows)
    }
}

/// Whether [`generate_bipartitions`] will enumerate `members`
/// exhaustively under `budget` (vs. falling back to seeded sampling).
fn exhaustive_below(members: &[PlayerId], budget: usize) -> bool {
    let m = members.len();
    m >= 2 && m - 1 < usize::BITS as usize && (1usize << (m - 1)) - 1 <= budget.max(7)
}

/// Emits proper bipartitions of `members` (first member always on side
/// A, so each unordered bipartition appears once): every one of the
/// `2^(m-1) - 1` candidates when that fits the budget (with slack — tiny
/// blocks are always enumerated), otherwise `budget` seeded draws.
fn generate_bipartitions(
    members: &[PlayerId],
    budget: usize,
    rng: &mut SimRng,
    emit: &mut dyn FnMut(Vec<PlayerId>, Vec<PlayerId>),
) {
    let m = members.len();
    if m < 2 {
        return;
    }
    let by_mask = |mask: u64, emit: &mut dyn FnMut(Vec<PlayerId>, Vec<PlayerId>)| {
        let mut a = vec![members[0]];
        let mut b = Vec::new();
        for (k, &p) in members[1..].iter().enumerate() {
            if mask >> k & 1 == 1 {
                b.push(p);
            } else {
                a.push(p);
            }
        }
        emit(a, b);
    };
    if exhaustive_below(members, budget) {
        for mask in 1..(1u64 << (m - 1)) {
            by_mask(mask, emit);
        }
    } else if m - 1 < 64 {
        let count = (1u64 << (m - 1)) - 1;
        for _ in 0..budget {
            by_mask(1 + rng.below(count), emit);
        }
    } else {
        // Wider than the mask word: coin-flip each member, then repair
        // degenerate draws deterministically.
        for _ in 0..budget {
            let mut a = vec![members[0]];
            let mut b = Vec::new();
            for &p in &members[1..] {
                if rng.uniform01() < 0.5 {
                    b.push(p);
                } else {
                    a.push(p);
                }
            }
            if b.is_empty() {
                if let Some(p) = a.pop() {
                    b.push(p);
                }
            }
            emit(a, b);
        }
    }
}

/// Moves a uniformly-drawn `k`-subset of `items` (partial Fisher-Yates)
/// to the front and truncates to it.
fn sample_prefix<T>(items: &mut Vec<T>, k: usize, rng: &mut SimRng) {
    let len = items.len();
    if k >= len {
        return;
    }
    for i in 0..k {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "below(n) < n, and n came from a usize"
        )]
        let j = i + rng.below((len - i) as u64) as usize;
        items.swap(i, j);
    }
    items.truncate(k);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Superadditive with strictly convex gains: v(S) = (Σ w_i)².
    struct QuadGame {
        weights: Vec<f64>,
    }

    impl WideGame for QuadGame {
        fn n_players(&self) -> usize {
            self.weights.len()
        }
        fn value_members(&self, members: &[PlayerId]) -> f64 {
            let s: f64 = members.iter().map(|&i| self.weights[i]).sum();
            s * s
        }
    }

    fn quad(n: usize) -> QuadGame {
        QuadGame {
            weights: (0..n).map(|i| 1.0 + i as f64 * 0.25).collect(),
        }
    }

    #[test]
    fn superadditive_all_present_converges_to_grand_coalition() {
        let game = quad(8);
        let engine = FormationEngine::new(&game, FormationConfig::default());
        let out = engine.run(&ChurnSchedule::all_at_start(8));
        assert_eq!(out.final_partition.n_blocks(), 1);
        assert_eq!(out.final_partition.n_members(), 8);
        assert!(out.converged_round.is_some());
        assert!(out.stability.merge_stable);
        assert!(out.stability.split_stable);
        // Everybody sits in the grand coalition: promised == realized.
        for row in &out.payoffs {
            assert!(row.regret.abs() < 1e-9);
        }
    }

    #[test]
    fn a_block_of_every_survivor_is_priced_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct Counting {
            inner: QuadGame,
            calls: AtomicUsize,
        }
        impl WideGame for Counting {
            fn n_players(&self) -> usize {
                self.inner.n_players()
            }
            fn value_members(&self, members: &[PlayerId]) -> f64 {
                self.calls.fetch_add(1, Ordering::Relaxed);
                self.inner.value_members(members)
            }
        }
        let game = Counting {
            inner: quad(8),
            calls: AtomicUsize::new(0),
        };
        let engine = FormationEngine::new(&game, FormationConfig::default());
        let out = engine.run(&ChurnSchedule::all_at_start(8));
        assert_eq!(out.final_partition.n_blocks(), 1);
        // One thread: every oracle miss is one call, so the rest are the
        // payoff stage's — one exact pass over 2^8 coalitions.
        let (_, misses) = engine.cache_stats();
        let payoff_calls = game.calls.load(Ordering::Relaxed) as u64 - misses;
        assert!(
            payoff_calls <= 1 << 8,
            "payoff stage made {payoff_calls} calls"
        );
    }

    #[test]
    fn departures_retire_members_through_the_lifecycle() {
        let game = quad(6);
        let engine = FormationEngine::new(&game, FormationConfig::default());
        let schedule = ChurnSchedule::all_at_start(6).depart(2, 15.0);
        let out = engine.run(&schedule);
        assert_eq!(out.states[2], LifecycleState::Gone);
        assert_eq!(out.final_partition.n_members(), 5);
        assert!(out.final_partition.block_of(2).is_none());
        assert!(out.payoffs.iter().all(|r| r.authority != 2));
    }

    #[test]
    fn run_is_thread_invariant() {
        let game = quad(9);
        let schedule = ChurnSchedule::seeded(9, 5, 100.0, 4, 2);
        let mut renders = Vec::new();
        for threads in [1, 4] {
            let cfg = FormationConfig {
                threads,
                ..FormationConfig::default()
            };
            let engine = FormationEngine::new(&game, cfg);
            renders.push(engine.run(&schedule).render());
        }
        assert_eq!(renders[0], renders[1]);
    }

    #[test]
    fn empty_schedule_converges_immediately() {
        let game = quad(4);
        let engine = FormationEngine::new(&game, FormationConfig::default());
        let out = engine.run(&ChurnSchedule::new());
        assert_eq!(out.converged_round, Some(1));
        assert_eq!(out.final_partition.n_blocks(), 0);
        assert!(out.payoffs.is_empty());
        assert!(out.payoff_error.is_none());
    }

    #[test]
    fn formation_game_matches_scenario_bytes() {
        let game = FormationGame::synthetic(12, 7);
        let scenario = fedval_testbed::ScenarioSpec::synthetic(12, 7).scenario();
        let from_scenario = FormationGame::from_scenario(&scenario);
        let members: Vec<PlayerId> = (0..12).collect();
        assert_eq!(
            game.value_members(&members).to_bits(),
            from_scenario.value_members(&members).to_bits()
        );
        assert_eq!(game.n_players(), 12);
    }
}
