//! Property-based tests of the game-theoretic machinery on randomly
//! generated federation-style games.

use fedval::coalition::{
    analyze, harsanyi_dividends, is_in_core, shapley_from_dividends, values_from_dividends,
    TableGame,
};
use fedval::{
    is_core_nonempty, nucleolus, shapley, try_approx_shapley_wide, ApproxConfig, Coalition,
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
        TableGame::from_fn(n, move |c: Coalition| {
            let total: u32 = c.players().map(|p| contribs[p]).sum();
            if total > threshold {
                f64::from(total)
            } else {
                0.0
            }
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

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
        prop_assert!(is_core_nonempty(&game));
        let phi = shapley(&game);
        prop_assert!(is_in_core(&game, &phi, 1e-6));
    }

    #[test]
    fn nucleolus_is_efficient_and_in_core_when_nonempty(game in random_threshold_game()) {
        let nu = nucleolus(&game);
        prop_assert!((nu.iter().sum::<f64>() - game.grand_value()).abs() < 1e-5);
        if is_core_nonempty(&game) {
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
        #[allow(clippy::needless_range_loop)]
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
        let game = TableGame::from_fn(3, move |c: Coalition| {
            let total = contrib * c.len() as u32;
            if total > threshold { f64::from(total) } else { 0.0 }
        });
        let phi = shapley(&game);
        prop_assert!((phi[0] - phi[1]).abs() < 1e-9);
        prop_assert!((phi[1] - phi[2]).abs() < 1e-9);
    }
}
