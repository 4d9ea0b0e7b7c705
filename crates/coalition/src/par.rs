//! The one parallel fan-out: [`par_map`] maps item indices to results
//! over scoped threads and returns them in index order. The `2^n` table
//! fill, the permutation sampler, formation's value batches and the
//! figure sweeps all run on it, so one determinism argument covers them
//! (DESIGN.md §9).

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker threads the hardware offers (`available_parallelism`), with a
/// floor of 1 when the hint is unavailable: every binary's default
/// `--threads`.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// One worker's finished `(index, result)` pairs, or the index and panic
/// payload of the item that stopped it.
type Part<T> = Result<Vec<(usize, T)>, (usize, Box<dyn Any + Send>)>;

/// `[f(0), f(1), …, f(len − 1)]`, computed by `min(threads, len)`
/// workers: the calling thread and that many minus one scoped threads,
/// each taking the next index from one shared cursor until none is
/// left. Results come back in index order whatever the schedule, so the
/// output is the same at every thread count when `f` depends on its
/// index alone. With `len ≤ 1` or `threads ≤ 1` the items run on the
/// calling thread, in order, and no thread is spawned.
///
/// The helper records nothing in `fedval-obs`: every span, counter and
/// event comes from `f`, so their names do not depend on `threads`.
///
/// # Panics
/// Re-raises an item's panic with the item's own payload. Every worker
/// is joined first, and among several panicking items the lowest index
/// wins, as in the sequential loop: once an item fails no further index
/// is handed out, and every lower index was handed out before it.
pub fn par_map<T, F>(len: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.min(len);
    if workers <= 1 {
        return (0..len).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let work = || -> Part<T> {
        let mut done = Vec::new();
        loop {
            // Relaxed suffices: the read-modify-write alone makes each
            // index unique, and the joins order every result before the
            // merge reads it.
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= len {
                return Ok(done);
            }
            match catch_unwind(AssertUnwindSafe(|| f(index))) {
                Ok(result) => done.push((index, result)),
                Err(payload) => {
                    next.store(len, Ordering::Relaxed);
                    return Err((index, payload));
                }
            }
        }
    };
    let work = &work;
    let parts: Vec<Part<T>> = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut parts = vec![work()];
        for worker in spawned {
            parts.push(worker.join().unwrap_or_else(|payload| Err((len, payload))));
        }
        parts
    });
    let mut results = Vec::with_capacity(len);
    let mut failures = Vec::new();
    for part in parts {
        match part {
            Ok(done) => results.extend(done),
            Err(failure) => failures.push(failure),
        }
    }
    if let Some((_, payload)) = failures.into_iter().min_by_key(|&(index, _)| index) {
        resume_unwind(payload);
    }
    results.sort_unstable_by_key(|&(index, _)| index);
    results.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::thread::{self, ThreadId};

    /// Item `i`'s result after a busy loop whose length varies with `i`,
    /// so workers finish their items out of index order.
    fn uneven(i: usize) -> u64 {
        let spins = (i * 7919) % 13 * 2_000;
        let mut acc = i as u64;
        for k in 0..spins {
            acc = std::hint::black_box(acc.wrapping_mul(31).wrapping_add(k as u64));
        }
        std::hint::black_box(acc);
        (i * i) as u64
    }

    #[test]
    fn results_come_back_in_index_order_under_uneven_cost() {
        for len in [0usize, 1, 2, 5, 37, 200] {
            let want: Vec<u64> = (0..len).map(|i| (i * i) as u64).collect();
            for threads in [1usize, 2, 3, 8, len + 1, 64] {
                assert_eq!(
                    par_map(len, threads, uneven),
                    want,
                    "len={len} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn short_maps_and_one_thread_never_spawn() {
        let caller = thread::current().id();
        for (len, threads) in [(0usize, 8usize), (1, 8), (1, 1), (10, 1), (10, 0)] {
            let seen: Vec<ThreadId> = par_map(len, threads, |_| thread::current().id());
            assert_eq!(seen.len(), len);
            assert!(
                seen.iter().all(|&id| id == caller),
                "len={len} threads={threads}"
            );
        }
    }

    /// Four items meet at a barrier, so no worker can take a second item
    /// before every item has started: they run on four distinct workers,
    /// the caller and three spawned threads.
    #[test]
    fn the_caller_is_one_of_the_workers() {
        let barrier = Barrier::new(4);
        let seen = par_map(4, 4, |_| {
            barrier.wait();
            thread::current().id()
        });
        assert!(seen.contains(&thread::current().id()));
        for (i, id) in seen.iter().enumerate() {
            assert!(!seen[i + 1..].contains(id), "{seen:?}");
        }
    }

    /// The payload `par_map` re-raised, as a string.
    fn payload_of(unwound: Box<dyn Any + Send>) -> String {
        match unwound.downcast::<&str>() {
            Ok(text) => (*text).to_string(),
            Err(other) => match other.downcast::<String>() {
                Ok(text) => *text,
                Err(_) => "<not a string>".to_string(),
            },
        }
    }

    #[test]
    fn a_panicking_item_reraises_its_own_payload() {
        for threads in [1, 4] {
            let unwound = std::panic::catch_unwind(|| {
                par_map(
                    10,
                    threads,
                    |i| if i == 5 { panic!("item 5 fails") } else { i },
                )
            })
            .expect_err("a panicking item must fail the map");
            assert_eq!(payload_of(unwound), "item 5 fails", "threads={threads}");
        }
    }

    #[test]
    fn the_lowest_panicking_index_wins() {
        for threads in [1, 2, 4] {
            let unwound = std::panic::catch_unwind(|| {
                par_map(40, threads, |i| match i {
                    7 | 23 | 31 => panic!("item {i} fails"),
                    _ => uneven(i),
                })
            })
            .expect_err("panicking items must fail the map");
            assert_eq!(payload_of(unwound), "item 7 fails", "threads={threads}");
        }
    }
}
