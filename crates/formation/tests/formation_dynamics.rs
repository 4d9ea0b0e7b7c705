//! Property tests for the hedonic merge/split dynamics (ISSUE 10,
//! satellite 3; DESIGN.md §15).
//!
//! Four guarantees the engine advertises:
//!
//! (a) **thread invariance** — the rendered outcome (trajectory, payoff
//!     table, fingerprints) is byte-identical at any `threads`;
//! (b) **termination** — random games with `n ≤ 12` finish within the
//!     round cap (the potential argument bounds merge/split churn, the
//!     cap bounds everything else);
//! (c) **superadditive convergence** — on strictly superadditive games
//!     the grand coalition must win: the dynamics converge to a
//!     merge/split-stable partition with a single block;
//! (d) **probe agreement** — the stability probe prices candidates with
//!     the round scorers, so where both examine every candidate a
//!     converged run reports an exhaustive, stable partition.

use fedval_coalition::{ApproxConfig, PlayerId, WideGame};
use fedval_form::{fnv1a, ChurnSchedule, FormationConfig, FormationEngine};
use proptest::prelude::*;

/// Deterministic pseudo-random characteristic function: `V(S)` is an
/// FNV-1a hash of the member list mixed with `seed`, mapped into
/// `[0, 4)`, and `V(∅) = 0`. Pure by construction (same members, same
/// value), but neither monotone nor superadditive — a worst case for
/// the dynamics' termination and determinism guarantees.
struct HashGame {
    n: usize,
    seed: u64,
}

impl WideGame for HashGame {
    fn n_players(&self) -> usize {
        self.n
    }
    fn value_members(&self, members: &[PlayerId]) -> f64 {
        if members.is_empty() {
            return 0.0;
        }
        let mut hash = fnv1a(0xCBF2_9CE4_8422_2325, &self.seed.to_le_bytes());
        for &m in members {
            hash = fnv1a(hash, &(m as u64).to_le_bytes());
        }
        // Top 53 bits → uniform in [0, 1), scaled to [0, 4).
        (hash >> 11) as f64 / (1u64 << 53) as f64 * 4.0
    }
}

/// Strictly superadditive weighted game: `V(S) = (Σ w_i)²` with all
/// weights positive, so any two disjoint non-empty coalitions strictly
/// gain by merging and the grand coalition is the unique stable
/// outcome.
struct QuadraticGame {
    weights: Vec<f64>,
}

impl WideGame for QuadraticGame {
    fn n_players(&self) -> usize {
        self.weights.len()
    }
    fn value_members(&self, members: &[PlayerId]) -> f64 {
        let total: f64 = members.iter().map(|&m| self.weights[m]).sum();
        total * total
    }
}

/// Shared config: exhaustive pair scans at these sizes, modest sampled
/// budgets, and the small Shapley sample count keeps the payoff stage
/// cheap (n ≤ 12 rides the exact path anyway).
fn test_config(threads: usize, max_rounds: usize) -> FormationConfig {
    FormationConfig {
        seed: 7,
        max_rounds,
        pair_budget: 4096,
        split_budget: 4,
        threads,
        approx: ApproxConfig {
            samples: 32,
            ..ApproxConfig::default()
        },
        ..FormationConfig::default()
    }
}

/// Mixed churn schedule: half the authorities at `t = 0`, the rest
/// staggered one round apart, one departure near the end. Exercises
/// the lifecycle path, not just the static all-at-start case.
fn staggered_schedule(n: usize, round_dt: f64) -> ChurnSchedule {
    let mut schedule = ChurnSchedule::new();
    for authority in 0..n {
        let at = if authority < n.div_ceil(2) {
            0.0
        } else {
            (authority - n.div_ceil(2) + 1) as f64 * round_dt
        };
        schedule = schedule.arrive(authority, at);
    }
    if n > 2 {
        schedule = schedule.depart(0, 6.0 * round_dt);
    }
    schedule
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// (a) Byte-identical rendered outcome across thread counts on
    /// adversarially random (non-superadditive) games.
    #[test]
    fn dynamics_are_thread_invariant(n in 4usize..=10, seed in 0u64..1_000_000) {
        let game = HashGame { n, seed };
        let schedule = staggered_schedule(n, 10.0);
        let baseline = FormationEngine::new(&game, test_config(1, 24))
            .run(&schedule)
            .render();
        for threads in [2usize, 4] {
            let parallel = FormationEngine::new(&game, test_config(threads, 24))
                .run(&schedule)
                .render();
            prop_assert_eq!(&baseline, &parallel, "threads={} diverged", threads);
        }
    }

    /// (b) Random games with n ≤ 12 terminate within the round cap:
    /// the engine returns, records at most `max_rounds` rounds, and
    /// leaves a partition that covers exactly the surviving members.
    #[test]
    fn random_games_terminate_within_round_cap(n in 2usize..=12, seed in 0u64..1_000_000) {
        let game = HashGame { n, seed };
        let schedule = staggered_schedule(n, 10.0);
        let max_rounds = 24;
        let outcome = FormationEngine::new(&game, test_config(1, max_rounds)).run(&schedule);
        prop_assert!(!outcome.rounds.is_empty());
        prop_assert!(outcome.rounds.len() <= max_rounds);
        if let Some(round) = outcome.converged_round {
            prop_assert!(round <= max_rounds);
        }
        let expected_members = if n > 2 { n - 1 } else { n };
        prop_assert_eq!(outcome.final_partition.n_members(), expected_members);
    }

    /// (c) On strictly superadditive games the grand coalition must
    /// win: one block, merge/split-stable, converged before the cap.
    #[test]
    fn superadditive_games_converge_to_grand_coalition(
        weights in prop::collection::vec(0.25f64..4.0, 2..=9),
    ) {
        let n = weights.len();
        let game = QuadraticGame { weights };
        let outcome = FormationEngine::new(&game, test_config(1, 32))
            .run(&ChurnSchedule::all_at_start(n));
        prop_assert!(outcome.converged_round.is_some(), "did not converge");
        prop_assert_eq!(outcome.final_partition.n_blocks(), 1, "grand coalition must win");
        prop_assert_eq!(outcome.final_partition.n_members(), n);
        prop_assert!(outcome.stability.merge_stable, "not merge-stable");
        prop_assert!(outcome.stability.split_stable, "not split-stable");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// (d) At `pair_budget: 0` every round scores every block pair, and
    /// at `split_budget: 64` every bipartition of a block of up to 7
    /// members; the probe's budgets cover the same candidates. A
    /// converged run ended on a round that fired nothing, so the probe
    /// must find nothing either.
    #[test]
    fn converged_runs_pass_an_exhaustive_probe(
        n in 2usize..=7,
        seed in 0u64..1_000_000,
        neutral in prop::bool::ANY,
    ) {
        let game = HashGame { n, seed };
        let cfg = FormationConfig {
            seed,
            pair_budget: 0,
            split_budget: 64,
            neutral_budget: if neutral { 32 } else { 0 },
            ..test_config(1, 24)
        };
        let schedule = ChurnSchedule::seeded(n, seed, 240.0, n / 2, n / 4);
        let outcome = FormationEngine::new(&game, cfg).run(&schedule);
        prop_assume!(outcome.converged_round.is_some());
        prop_assert!(outcome.stability.exhaustive, "probe sampled");
        prop_assert!(outcome.stability.merge_stable, "not merge-stable");
        prop_assert!(outcome.stability.split_stable, "not split-stable");
    }
}
