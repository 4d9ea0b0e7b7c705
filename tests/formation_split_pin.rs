//! Byte-level pin of fedval-form's split path (DESIGN.md §15).
//!
//! Every formation run that `ci.sh`, `bench_pipeline` and perfbench make
//! is a threshold game that ends with `splits=0`, so none of them would
//! notice a change to how bipartitions are drawn, priced or applied. This
//! grid runs a game that splits often: `V(S)` is `4·|S|` times a hash of
//! `S` mapped into `[0, 1)`, so values grow with size but are neither
//! monotone nor superadditive. The `render()` of every run (trajectory,
//! stability verdict, payoff table) is folded into one FNV-1a value.

use fedval::coalition::{ApproxConfig, PlayerId, WideGame};
use fedval::form::{fnv1a, ChurnSchedule, FormationConfig, FormationEngine};

/// The pinned fold of the grid's renders.
const PINNED_FOLD: u64 = 0xb329_dafb_d187_c15f;
/// Splits across the whole grid.
const PINNED_SPLITS: usize = 239;

/// `V(∅) = 0`; otherwise `4·|S|·h/2⁵³`, where `h` is the top 53 bits of
/// an FNV-1a hash of the seed and the members.
struct SizeHashGame {
    n: usize,
    seed: u64,
}

impl WideGame for SizeHashGame {
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
        4.0 * members.len() as f64 * (hash >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[test]
fn split_heavy_grid_renders_the_pinned_bytes() {
    let mut fold = 0u64;
    let mut splits = 0usize;
    for n in [4usize, 6, 9, 12, 20] {
        for seed in 0u64..16 {
            let game = SizeHashGame { n, seed };
            let schedule = ChurnSchedule::seeded(n, seed, 240.0, n / 2, n / 4);
            for (pair_budget, split_budget, neutral_budget) in
                [(0, 2, 0), (4096, 4, 32), (8, 1, 0), (128, 64, 4)]
            {
                let cfg = FormationConfig {
                    seed,
                    max_rounds: 24,
                    pair_budget,
                    split_budget,
                    neutral_budget,
                    threads: 1,
                    approx: ApproxConfig {
                        samples: 16,
                        ..ApproxConfig::default()
                    },
                    ..FormationConfig::default()
                };
                let outcome = FormationEngine::new(&game, cfg).run(&schedule);
                fold = fnv1a(fold, outcome.render().as_bytes());
                splits += outcome.total_splits;
            }
        }
    }
    assert_eq!(
        (format!("{fold:016x}"), splits),
        (format!("{PINNED_FOLD:016x}"), PINNED_SPLITS)
    );
}
