//! Host-speed calibration for the batch workloads' timed metrics.
//!
//! The shared 2-core host the benchmark was built on switches between
//! fast and slow states that last from seconds to minutes; in a slow
//! state the same job takes up to twice as long. Process CPU time moves
//! with wall time, so the slowdown is in the host's cycles, not in time
//! taken from the process. A fixed kernel of the benchmark's own code,
//! timed just before and after each job, reads the host's speed around
//! it; scaling the job's wall time by it gives the time at the reference
//! speed, which the host's state moves less than the wall time.

use crate::stats::SplitMix;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time at the reference speed: about its median on the
/// 2-core host the benchmark was built on (8–13 ms), so scaled times read
/// close to that host's wall times.
pub const REF_KERNEL_S: f64 = 0.010;

/// Runs the kernel at once on `threads` threads, as many as the measured
/// job keeps busy, and returns the slowest thread's time in seconds: on
/// a host whose cores slow down one at a time, a parallel job waits for
/// its slowest thread.
pub fn kernel_s(threads: usize) -> f64 {
    std::thread::scope(|scope| {
        let others: Vec<_> = (1..threads).map(|_| scope.spawn(kernel_once)).collect();
        let mine = kernel_once();
        others
            .into_iter()
            .map(|h| h.join().unwrap_or(mine))
            .fold(mine, f64::max)
    })
}

/// Times one run of the kernel on this thread, in seconds. The kernel
/// mixes the kinds of work the workloads do: dense floating-point row
/// elimination (the simplex), sorting integer runs (capacity profiles),
/// and ordered-map inserts (caches). Its working sets stay under about
/// 100 KB a thread, so it does not raise the process's peak resident
/// memory.
fn kernel_once() -> f64 {
    const N: usize = 48;
    const REPS: usize = 24;
    let start = Instant::now();
    let mut rng = SplitMix(0x0C41_1B8A_7E5E_ED01);
    let mut acc = 0.0;
    for _ in 0..REPS {
        let mut a: Vec<f64> = (0..N * N).map(|_| rng.unit() + 0.5).collect();
        for k in 0..N {
            let pivot = a[k * N + k];
            for i in (0..N).filter(|&i| i != k) {
                let f = a[i * N + k] / pivot;
                for j in k..N {
                    a[i * N + j] -= f * a[k * N + j];
                }
            }
        }
        acc += a[N * N - 1];
        let mut runs: Vec<u64> = (0..1 << 13).map(|_| rng.next_u64()).collect();
        runs.sort_unstable();
        let mut map = BTreeMap::new();
        for _ in 0..2_000 {
            map.insert(rng.below(4_000), rng.next_u64());
        }
        black_box((runs[runs.len() / 2], map.len()));
    }
    black_box(acc);
    start.elapsed().as_secs_f64()
}

/// The factor that scales a wall time measured between kernel runs
/// taking `before` and `after` seconds to the reference speed.
pub fn to_reference(before: f64, after: f64) -> f64 {
    REF_KERNEL_S / ((before + after) / 2.0)
}
