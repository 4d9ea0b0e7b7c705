//! The federation game: facilities + demand → a coalitional game (§3).
//!
//! In the commercial scenario the value of a coalition `S` is the maximum
//! total user utility its pooled infrastructure can generate (eq. 2), with
//! profit `P = µ·ΣU`; since µ only rescales every sharing vector we take
//! µ = 1 as the paper does in §4.

use crate::allocation::{solve, ProfileSolution, SolveError};
use crate::experiment::Demand;
use crate::facility::{coalition_profile, Facility};
use crate::location::{ProfileAccumulator, SlotIndex};
use fedval_coalition::{WideGame, MAX_SAMPLED_PLAYERS};
use std::borrow::Cow;
use std::sync::OnceLock;

/// The coalitional game induced by a set of facilities facing a demand
/// profile (commercial scenario).
///
/// `value(S)` runs the allocation optimizer on the coalition's merged
/// capacity profile. For repeated solution-concept computations,
/// materialize it once with
/// [`TableGame::try_from_walk`](fedval_coalition::TableGame::try_from_walk)
/// and use the table.
///
/// It is a [`WideGame`] at any size up to [`MAX_SAMPLED_PLAYERS`]: the
/// exact solution concepts read it through bitset coalitions (up to 64
/// facilities), and the sampled Shapley estimators
/// ([`fedval_coalition::shapley_auto_wide`]) walk member slices.
///
/// The game borrows its facilities and demand ([`FederationGame::new`])
/// or owns them ([`FederationGame::owned`], for a game that outlives
/// its inputs). Its first [`WideGame::value_walk`] numbers the
/// facilities' locations once; every later walk on the same game, on
/// any thread, reuses that numbering.
pub struct FederationGame<'a> {
    facilities: Cow<'a, [Facility]>,
    demand: Cow<'a, Demand>,
    slots: OnceLock<SlotIndex>,
}

impl<'a> FederationGame<'a> {
    /// Creates the game over borrowed facilities and demand.
    ///
    /// # Panics
    /// Panics if there are no facilities or more than
    /// [`MAX_SAMPLED_PLAYERS`]. (Beyond 64 facilities only the member-slice
    /// methods of [`WideGame`] apply — bitset coalitions cap at 64.)
    pub fn new(facilities: &'a [Facility], demand: &'a Demand) -> FederationGame<'a> {
        FederationGame::from_cow(Cow::Borrowed(facilities), Cow::Borrowed(demand))
    }

    /// Creates the game over facilities and demand it owns.
    ///
    /// # Panics
    /// As [`FederationGame::new`].
    pub fn owned(facilities: Vec<Facility>, demand: Demand) -> FederationGame<'static> {
        FederationGame::from_cow(Cow::Owned(facilities), Cow::Owned(demand))
    }

    fn from_cow(facilities: Cow<'a, [Facility]>, demand: Cow<'a, Demand>) -> FederationGame<'a> {
        assert!(!facilities.is_empty(), "need at least one facility");
        assert!(
            facilities.len() <= MAX_SAMPLED_PLAYERS,
            "at most {MAX_SAMPLED_PLAYERS} facilities"
        );
        FederationGame {
            facilities,
            demand,
            slots: OnceLock::new(),
        }
    }

    /// The facilities (players), in player-id order.
    pub fn facilities(&self) -> &[Facility] {
        &self.facilities
    }

    /// The demand profile.
    pub fn demand(&self) -> &Demand {
        &self.demand
    }

    /// Full allocation solution (not just its value) for the coalition
    /// whose members are `members` (player ids in `0..n`, no duplicates),
    /// at any facility count.
    ///
    /// # Errors
    /// Any [`SolveError`] from the analytic optimizer when the demand
    /// profile is outside its supported cases.
    pub fn solve_members(&self, members: &[usize]) -> Result<ProfileSolution, SolveError> {
        let members: Vec<&Facility> = members.iter().map(|&p| &self.facilities[p]).collect();
        let profile = coalition_profile(members);
        solve(&profile, &self.demand)
    }
}

impl WideGame for FederationGame<'_> {
    fn n_players(&self) -> usize {
        self.facilities.len()
    }

    /// `V(S)` — the optimal total utility of the coalition whose members
    /// are `members`, at any facility count.
    ///
    /// # Panics
    /// Panics if the demand profile is outside the analytic optimizer's
    /// supported cases (see [`SolveError`]); validate demand up front with
    /// [`FederationGame::solve_members`].
    fn value_members(&self, members: &[usize]) -> f64 {
        match self.solve_members(members) {
            Ok(solution) => solution.total_utility,
            #[expect(
                clippy::panic,
                reason = "the WideGame trait is infallible; `# Panics` documents this, and callers validate via solve_members"
            )]
            Err(e) => panic!("FederationGame::value_members: unsupported demand: {e}"),
        }
    }

    /// Walk values with one facility added or removed per step: the
    /// coalition's capacity profile is updated in place instead of
    /// re-merged from every member, so a step costs `O(Lₚ)` updates of
    /// a flat per-location array rather than `O(Σ_{i∈S} Lᵢ)` map
    /// inserts. The locations are numbered densely on the game's first
    /// walk. The updated profile equals `coalition_profile` of the
    /// current members (integer capacities), so the solver sees the same
    /// input and every value keeps its bits.
    ///
    /// # Panics
    /// As [`WideGame::value_members`] on this game.
    fn value_walk(&self, start: &[usize], toggles: &[usize]) -> Vec<f64> {
        let index = self
            .slots
            .get_or_init(|| SlotIndex::new(self.facilities.iter().map(|f| &f.offer)));
        let mut acc = ProfileAccumulator::new(index.slots());
        let mut held = vec![false; self.facilities.len()];
        for &p in start {
            acc.add(index.offer(p));
            held[p] = true;
        }
        toggles
            .iter()
            .map(|&p| {
                if held[p] {
                    acc.remove(index.offer(p));
                } else {
                    acc.add(index.offer(p));
                }
                held[p] = !held[p];
                match solve(acc.profile(), &self.demand) {
                    Ok(solution) => solution.total_utility,
                    #[expect(
                        clippy::panic,
                        reason = "the WideGame trait is infallible; `# Panics` documents this, and callers validate via solve_members"
                    )]
                    Err(e) => panic!("FederationGame::value_walk: unsupported demand: {e}"),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentClass;
    use crate::facility::paper_facilities;
    use fedval_coalition::{shapley_normalized, Coalition, TableGame};

    #[test]
    fn worked_example_values_and_shapley() {
        // §4.1: single experiment, l = 500, d = 1, L = (100, 400, 800).
        let facilities = paper_facilities([1, 1, 1]);
        let demand = Demand::one_experiment(ExperimentClass::simple("e", 500.0, 1.0));
        let game = FederationGame::new(&facilities, &demand);

        assert_eq!(game.value(Coalition::singleton(0)), 0.0);
        assert_eq!(game.value(Coalition::singleton(1)), 0.0);
        assert_eq!(game.value(Coalition::singleton(2)), 800.0);
        assert_eq!(game.value(Coalition::from_players([0, 1])), 0.0); // strict
        assert_eq!(game.value(Coalition::from_players([0, 2])), 900.0);
        assert_eq!(game.value(Coalition::from_players([1, 2])), 1200.0);
        assert_eq!(game.grand_value(), 1300.0);

        let table = TableGame::try_from_walk(&game, 1).expect("3 facilities");
        let phi_hat = shapley_normalized(&table);
        assert!((phi_hat[1] - 2.0 / 13.0).abs() < 1e-12);
    }

    #[test]
    fn zero_threshold_shares_are_proportional() {
        // Paper: "for l = 0, each ϕ̂ᵢ and π̂ᵢ are equal".
        let facilities = paper_facilities([1, 1, 1]);
        let demand = Demand::one_experiment(ExperimentClass::simple("e", 0.0, 1.0));
        let game = FederationGame::new(&facilities, &demand);
        let phi_hat =
            shapley_normalized(&TableGame::try_from_walk(&game, 1).expect("3 facilities"));
        assert!((phi_hat[0] - 100.0 / 1300.0).abs() < 1e-9);
        assert!((phi_hat[1] - 400.0 / 1300.0).abs() < 1e-9);
        assert!((phi_hat[2] - 800.0 / 1300.0).abs() < 1e-9);
    }

    #[test]
    fn fig6_game_values_with_resources() {
        // Fig. 6 at l = 299: R = (80, 20, 10). Checked against DESIGN.md's
        // derivation for coalition {1,2}: V = 12000.
        let facilities = paper_facilities([80, 20, 10]);
        let demand = Demand::capacity_filling(ExperimentClass::simple("e", 299.0, 1.0));
        let game = FederationGame::new(&facilities, &demand);
        assert_eq!(game.value(Coalition::from_players([0, 1])), 12_000.0);
        // Facility 1 alone: only 100 locations < 300 required ⇒ 0.
        assert_eq!(game.value(Coalition::singleton(0)), 0.0);
        // Facility 3 alone: 800 locations, cap 10 ⇒ B(10) = 8000 (m=10,
        // sizes 800 each ≥ 300 ✓).
        assert_eq!(game.value(Coalition::singleton(2)), 8000.0);
    }
}
