//! Property-based tests of the game-theoretic machinery on randomly
//! generated federation-style games.

use fedval::coalition::{
    analyze, excess, harsanyi_dividends, is_in_core, shapley_from_dividends, values_from_dividends,
    FnGame, TableGame,
};
use fedval::simplex::{LinearProgram, Objective, Relation, Status};
use fedval::{
    is_core_nonempty, shapley, try_approx_shapley_wide, try_nucleolus, ApproxConfig, Coalition,
    WideGame,
};
use proptest::prelude::*;

/// Random monotone game over n players built from non-negative Harsanyi
/// dividends — guaranteed superadditive-ish structure.
fn random_positive_game(n: usize) -> impl Strategy<Value = TableGame> {
    prop::collection::vec(0.0f64..10.0, 1 << n).prop_map(move |mut dividends| {
        dividends[0] = 0.0; // V(∅) = 0
        let values = values_from_dividends(n, &dividends);
        TableGame::from_values(n, values)
    })
}

/// Random threshold game mimicking the paper's structure.
fn random_threshold_game() -> impl Strategy<Value = TableGame> {
    (prop::collection::vec(1u32..1000, 3..=4), 0u32..2500).prop_map(|(contribs, threshold)| {
        let n = contribs.len();
        let values = Coalition::all(n)
            .map(|c| {
                let total: u32 = c.players().map(|p| contribs[p]).sum();
                if total > threshold {
                    f64::from(total)
                } else {
                    0.0
                }
            })
            .collect();
        TableGame::from_values(n, values)
    })
}

/// Random game with 2..=6 players and values in [0, 20): integers (many
/// tied excesses, degenerate stage LPs) or continuous.
fn random_game() -> impl Strategy<Value = TableGame> {
    (
        2usize..=6,
        prop::collection::vec(0u32..20_000, 64),
        prop::bool::ANY,
    )
        .prop_map(|(n, draws, integer)| {
            let values = (0..1usize << n)
                .map(|m| match (m, integer) {
                    (0, _) => 0.0,
                    (_, true) => f64::from(draws[m] / 1000),
                    (_, false) => f64::from(draws[m]) / 1000.0,
                })
                .collect();
            TableGame::from_values(n, values)
        })
}

/// Whether `collection` is balanced: weights λ_S ≥ 1 exist with
/// Σ_{S∋i} λ_S the same for every player i. Decided by a feasibility LP
/// over μ_S = λ_S − 1 ≥ 0 and the common sum t ≥ 0.
fn is_balanced_collection(n: usize, collection: &[Coalition]) -> bool {
    let k = collection.len();
    let mut lp = LinearProgram::new(k + 1, Objective::Minimize);
    for i in 0..n {
        let mut row: Vec<f64> = collection
            .iter()
            .map(|s| f64::from(u8::from(s.contains(i))))
            .collect();
        let ones: f64 = row.iter().sum();
        row.push(-1.0);
        lp.add_constraint(row, Relation::Eq, -ones);
    }
    matches!(lp.solve(), Ok(sol) if sol.status == Status::Optimal)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn nucleolus_satisfies_kohlbergs_criterion(game in random_game()) {
        // Kohlberg (1971): x is the (pre)nucleolus iff it is efficient and,
        // at every excess level α, the coalitions with excess ≥ α form a
        // balanced collection. The check shares no LP with the nucleolus.
        let n = game.n_players();
        let x = try_nucleolus(&game).expect("at most 6 players");
        prop_assert!((x.iter().sum::<f64>() - game.grand_value()).abs() < 1e-7);
        let grand = Coalition::grand(n);
        let proper: Vec<(Coalition, f64)> = Coalition::all(n)
            .filter(|&s| !s.is_empty() && s != grand)
            .map(|s| (s, excess(&game, &x, s)))
            .collect();
        for &(_, alpha) in &proper {
            let top: Vec<Coalition> = proper
                .iter()
                .filter(|&&(_, e)| e >= alpha - 1e-7)
                .map(|&(s, _)| s)
                .collect();
            prop_assert!(
                is_balanced_collection(n, &top),
                "excess ≥ {} is not balanced at x = {:?}: {:?}", alpha, x, top
            );
        }
    }

    #[test]
    fn shapley_is_efficient_and_matches_dividend_route(game in random_positive_game(5)) {
        let phi = shapley(&game);
        let total: f64 = phi.iter().sum();
        prop_assert!((total - game.grand_value()).abs() < 1e-6);
        let phi2 = shapley_from_dividends(&game);
        for (a, b) in phi.iter().zip(&phi2) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn positive_dividend_games_are_convex_with_shapley_in_core(game in random_positive_game(4)) {
        // Non-negative dividends ⇒ convex game ⇒ non-empty core containing
        // the Shapley value (a classical theorem; here an executable one).
        let props = analyze(&game, 1e-7);
        prop_assert!(props.convex);
        prop_assert!(props.superadditive);
        prop_assert!(is_core_nonempty(&game).expect("4 players"));
        let phi = shapley(&game);
        prop_assert!(is_in_core(&game, &phi, 1e-6));
    }

    #[test]
    fn nucleolus_is_efficient_and_in_core_when_nonempty(game in random_threshold_game()) {
        let nu = try_nucleolus(&game).expect("3–4 players");
        prop_assert!((nu.iter().sum::<f64>() - game.grand_value()).abs() < 1e-5);
        if is_core_nonempty(&game).expect("3–4 players") {
            prop_assert!(is_in_core(&game, &nu, 1e-5));
        }
    }

    #[test]
    fn monte_carlo_tracks_exact_shapley(game in random_threshold_game()) {
        let exact = shapley(&game);
        let cfg = ApproxConfig {
            samples: 4000,
            seed: 1234,
            force: true,
            ..ApproxConfig::default()
        };
        let mc = try_approx_shapley_wide(&game, &cfg).expect("valid config");
        #[expect(
            clippy::needless_range_loop,
            reason = "i indexes three parallel vectors: exact, phi and std_error"
        )]
        for i in 0..exact.len() {
            let tol = 6.0 * mc.std_error[i] + 1e-6;
            prop_assert!(
                (mc.phi[i] - exact[i]).abs() < tol,
                "player {i}: mc {} vs exact {} (tol {tol})",
                mc.phi[i], exact[i]
            );
        }
    }

    #[test]
    fn dividends_invert(game in random_threshold_game()) {
        let d = harsanyi_dividends(&game);
        let v = values_from_dividends(game.n_players(), &d);
        for c in Coalition::all(game.n_players()) {
            prop_assert!((v[c.index()] - game.value(c)).abs() < 1e-6);
        }
    }

    #[test]
    fn threshold_games_shapley_is_symmetric_in_equal_contributions(
        contrib in 1u32..500,
        threshold in 0u32..1600,
    ) {
        let game = FnGame::new(3, move |c: Coalition| {
            let total = contrib * u32::try_from(c.len()).unwrap();
            if total > threshold { f64::from(total) } else { 0.0 }
        });
        let game = TableGame::try_from_walk(&game, 1).expect("3 players");
        let phi = shapley(&game);
        prop_assert!((phi[0] - phi[1]).abs() < 1e-9);
        prop_assert!((phi[1] - phi[2]).abs() < 1e-9);
    }
}
