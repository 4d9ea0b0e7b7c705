//! Deterministic parallel sweep engine.
//!
//! Every figure of the paper's evaluation is a *sweep*: ~20–50 scenario
//! points, each materializing a dense `TableGame` (`2^n` LP-backed
//! characteristic-function evaluations) and running the share
//! computations. The points are independent, so [`run_sweep`] maps
//! them with [`par_map`] — but the emitted figure data and the
//! observability output must be **identical regardless of thread
//! count** (DESIGN.md §9). Three mechanisms deliver that:
//!
//! 1. **Input-order merge.** [`par_map`] returns each point's result at
//!    its index, so the output `Vec` is positionally identical to a
//!    sequential loop.
//! 2. **Sharded metrics.** Counters, gauges, and latency observations
//!    go straight from worker threads into their per-thread metric
//!    shards — summation is commutative, so the merged fold is
//!    interleaving-invariant by construction and nothing needs
//!    buffering.
//! 3. **Sampled record capture/replay.** Only events and a seeded,
//!    index-determined sample of span traces ([`span_sampled`]) emit
//!    records at all; each point's evaluation runs inside
//!    [`fedval_obs::capture`] (unsampled points additionally suppress
//!    span records via
//!    [`fedval_obs::with_span_records_suppressed`] — span *counts*
//!    still land in the shards), and the coordinator replays the tiny
//!    buffers in input order. Because the sample decision is a pure
//!    function of the point index, the replayed record stream is
//!    scheduling-independent.
//!
//! `threads = 1` runs the *same* capture/replay path on the calling
//! thread, so sequential and parallel runs emit identical streams.

use fedval_coalition::{available_threads, par_map};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide default worker count for figure sweeps; `0` means "use
/// [`available_threads`]". Set from `--threads N` by the bins.
static SWEEP_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide default sweep worker count (`0` restores the
/// "available parallelism" default). This is what `--threads N` wires up.
pub fn set_sweep_threads(threads: usize) {
    SWEEP_THREADS.store(threads, Ordering::SeqCst);
}

/// The effective default sweep worker count: the value from
/// [`set_sweep_threads`], or [`available_threads`] when unset.
pub fn sweep_threads() -> usize {
    match SWEEP_THREADS.load(Ordering::SeqCst) {
        0 => available_threads(),
        t => t,
    }
}

/// Seed for the span-trace sampling decision. Fixed (not configurable):
/// the sample set must be identical across runs, thread counts, and
/// machines for the record stream to stay deterministic.
const SPAN_SAMPLE_SEED: u64 = 0xfed5_ba11_0b5e_0001;

/// Keep span records for one point in `SPAN_SAMPLE_MODULUS`.
const SPAN_SAMPLE_MODULUS: u64 = 8;

/// Whether point `index` contributes span-trace records — a pure,
/// seeded function of the input index (splitmix64 finalizer), so the
/// decision is identical for every thread count and schedule.
pub fn span_sampled(index: usize) -> bool {
    let mut z = SPAN_SAMPLE_SEED ^ (index as u64).wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    (z ^ (z >> 31)).is_multiple_of(SPAN_SAMPLE_MODULUS)
}

/// Evaluates `eval` on every point with [`par_map`] and returns the
/// results **in input order**.
///
/// The output — both the returned `Vec` and the observability record
/// stream — is byte-identical for every `threads` value (see the module
/// docs for how). `threads` is a **cap**, not a demand: the engine never
/// runs more workers than there are points or hardware threads
/// ([`available_threads`]) — oversubscribing a CPU-bound sweep buys
/// nothing but context-switch and cache-thrash loss, so `--threads 4` on
/// a single-core host degrades gracefully to the sequential path. Pass
/// [`sweep_threads`] to honor the process-wide `--threads` setting. A
/// panicking point re-raises its own panic payload.
///
/// Observability: the whole call runs under a `bench.sweep` span, each
/// point contributes a `bench.sweep.point_ns` observation (in input
/// order), and `bench.sweep.points` counts points evaluated.
pub fn run_sweep<P, T, F>(points: &[P], eval: F, threads: usize) -> Vec<T>
where
    P: Sync,
    T: Send,
    F: Fn(&P) -> T + Sync,
{
    if points.is_empty() {
        return Vec::new();
    }
    let threads = threads.min(available_threads());
    let _sweep = fedval_obs::span_with("bench.sweep", || {
        format!("points={} threads={threads}", points.len())
    });
    // Each point's result, captured records (events plus sampled span
    // traces) and wall time, in input order.
    let finished = par_map(points.len(), threads, |index| {
        let start = fedval_obs::now_ns();
        let (result, records) = fedval_obs::capture(|| {
            if span_sampled(index) {
                eval(&points[index])
            } else {
                fedval_obs::with_span_records_suppressed(|| eval(&points[index]))
            }
        });
        (result, records, fedval_obs::now_ns().saturating_sub(start))
    });

    // Replay the per-point buffers (events + sampled span traces) in
    // input order. Counters and observations never entered the buffers —
    // they accumulated in the workers' metric shards as they happened.
    let mut results = Vec::with_capacity(finished.len());
    for (result, records, dur_ns) in finished {
        fedval_obs::replay(records);
        fedval_obs::observe_ns("bench.sweep.point_ns", dur_ns);
        results.push(result);
    }
    fedval_obs::counter_add("bench.sweep.points", results.len() as u64);
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order_for_every_thread_count() {
        let points: Vec<u64> = (0..37).collect();
        let expected: Vec<u64> = points.iter().map(|p| p * p).collect();
        for threads in [1, 2, 3, 4, 8, 64] {
            let out = run_sweep(&points, |&p| p * p, threads);
            assert_eq!(out, expected, "threads={threads}");
        }
        assert!(run_sweep(&Vec::<u64>::new(), |&p: &u64| p, 4).is_empty());
    }

    /// The sweep re-raises the failing point's own panic, not a generic
    /// "a scoped thread panicked".
    #[test]
    fn worker_panics_propagate() {
        let points: Vec<u64> = (0..8).collect();
        let unwound = std::panic::catch_unwind(|| {
            run_sweep(
                &points,
                |&p| if p == 5 { panic!("point 5 fails") } else { p },
                4,
            )
        })
        .expect_err("a panicking point must fail the sweep");
        assert_eq!(unwound.downcast_ref::<&str>(), Some(&"point 5 fails"));
    }

    #[test]
    fn thread_knob_round_trips() {
        assert!(available_threads() >= 1);
        set_sweep_threads(3);
        assert_eq!(sweep_threads(), 3);
        set_sweep_threads(0);
        assert_eq!(sweep_threads(), available_threads());
    }
}
