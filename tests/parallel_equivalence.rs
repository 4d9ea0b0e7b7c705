//! Parallel-vs-sequential equivalence guards (DESIGN.md §9).
//!
//! The determinism contract of this workspace's parallel paths is *bit
//! equality*, not approximate equality: `TableGame::try_from_walk` must
//! fill exactly the same table at every thread count (so exact Shapley,
//! which reads it, does too), and [`fedval_bench::run_sweep`]-generated
//! figure data must render to identical bytes at threads=1 and
//! threads=4. Anything weaker would let thread count leak into committed
//! figure CSVs and BENCH_pipeline.json's deterministic section.

use fedval_bench::{run_sweep, set_sweep_threads};
use fedval_coalition::{Coalition, FnGame, TableGame};
use proptest::prelude::*;

/// Pseudo-random finite value in [−100, 100) per coalition, `V(∅) = 0`.
fn hashed(c: Coalition, salt: u64) -> f64 {
    if c.is_empty() {
        return 0.0;
    }
    let bits = (c.0 ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11;
    bits as f64 / (1u64 << 53) as f64 * 200.0 - 100.0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// 2–12 players: from n = 9 up more than one walker runs (at most
    /// one per 256 coalitions), and from n = 10 three threads split the
    /// ranks unevenly.
    #[test]
    fn walk_fill_is_bit_identical_at_any_thread_count(n in 2usize..=12, salt in any::<u64>()) {
        let game = FnGame::new(n, move |c: Coalition| hashed(c, salt));
        let bits = |threads: usize| -> Vec<u64> {
            TableGame::try_from_walk(&game, threads)
                .expect("n ≤ 12 fits a table")
                .values()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        };
        let sequential = bits(1);
        for threads in 2..=8 {
            // Bit-for-bit: every slot is written once, by whichever
            // walker owns its Gray-code rank.
            prop_assert_eq!(&sequential, &bits(threads), "threads={} diverged", threads);
        }
    }

    #[test]
    fn run_sweep_is_thread_count_invariant(points in prop::collection::vec(-1000i64..1000, 1..80)) {
        let eval = |&p: &i64| (p as f64).sin() * (p as f64);
        let sequential = run_sweep(&points, eval, 1);
        for threads in [2usize, 3, 4, 8] {
            let parallel = run_sweep(&points, eval, threads);
            prop_assert_eq!(&sequential, &parallel, "threads={} diverged", threads);
        }
    }
}

/// End-to-end: a real figure generator produces byte-identical CSV at
/// threads=1 and threads=4 (the same equality `bench_pipeline` commits
/// to BENCH_pipeline.json and ci.sh re-checks via `repro --csv` diffs).
#[test]
fn figure_data_is_thread_invariant() {
    set_sweep_threads(1);
    let sequential = fedval_bench::fig4_threshold().to_csv();
    set_sweep_threads(4);
    let parallel = fedval_bench::fig4_threshold().to_csv();
    set_sweep_threads(0);
    assert_eq!(
        sequential, parallel,
        "fig4 CSV differs between threads=1 and threads=4"
    );
}
