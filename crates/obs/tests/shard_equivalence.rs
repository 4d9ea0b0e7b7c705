//! Property tests for sharded metric accumulation (DESIGN.md §13).
//!
//! The shard/merge design is only sound if a merged fold is
//! indistinguishable from unsharded accumulation: counter totals,
//! histogram contents, and the nearest-rank percentiles derived from
//! them must not depend on how observations were partitioned across
//! shards or the order shards are merged. The proptests here check that
//! over arbitrary partitions; `real_registry_threads_match_unsharded`
//! drives the actual process-global registry with racing threads and
//! compares the fold against a sequential reference.

use fedval_obs::Histogram;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Observation values spanning every decade bucket plus overflow: a
/// band selector picks the magnitude, the raw draw picks the position.
fn obs_values() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec((0u64..4, 0u64..1_000_000), 0..120).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(band, raw)| match band {
                0 => raw % 2_000,
                1 => 1_000 + raw % 200_000,
                2 => 100_000 + raw * 20 % 20_000_000,
                _ => 1_000_000_000 + raw * 20_000 % 20_000_000_000,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sharded_histograms_equal_unsharded(
        values in obs_values(),
        assignment in prop::collection::vec(0usize..8, 0..120),
        merge_rotation in 0usize..8,
    ) {
        let mut whole = Histogram::new();
        let mut shards = vec![Histogram::new(); 8];
        for (i, &v) in values.iter().enumerate() {
            whole.observe(v);
            let shard = assignment.get(i).copied().unwrap_or(i % 8);
            shards[shard].observe(v);
        }
        // Merge in an arbitrary rotation of shard order.
        let mut merged = Histogram::new();
        for k in 0..shards.len() {
            merged.merge(&shards[(k + merge_rotation) % shards.len()]);
        }
        prop_assert_eq!(&merged, &whole, "merged fold must equal unsharded accumulation");
        for p in [1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 100.0] {
            prop_assert_eq!(
                merged.percentile_ns(p),
                whole.percentile_ns(p),
                "nearest-rank p{} must survive sharding", p
            );
        }
    }

    #[test]
    fn sharded_counters_equal_unsharded(
        bumps in prop::collection::vec((0usize..5, 1u64..1_000), 0..200),
        assignment in prop::collection::vec(0usize..8, 0..200),
    ) {
        const NAMES: [&str; 5] = ["a", "b", "c", "d", "e"];
        let mut whole: BTreeMap<&str, u64> = BTreeMap::new();
        let mut shards: Vec<BTreeMap<&str, u64>> = vec![BTreeMap::new(); 8];
        for (i, &(name, delta)) in bumps.iter().enumerate() {
            *whole.entry(NAMES[name]).or_insert(0) += delta;
            let shard = assignment.get(i).copied().unwrap_or(i % 8);
            *shards[shard].entry(NAMES[name]).or_insert(0) += delta;
        }
        let mut merged: BTreeMap<&str, u64> = BTreeMap::new();
        for shard in &shards {
            for (&name, &total) in shard {
                *merged.entry(name).or_insert(0) += total;
            }
        }
        prop_assert_eq!(merged, whole);
    }
}

/// Drives the real process-global registry from racing threads and
/// checks the fold equals a sequential single-histogram reference —
/// counters, histogram totals, and nearest-rank percentiles alike. One
/// plain `#[test]` (not a proptest) because the registry is
/// process-global; this file is its own test binary, so nothing else
/// races it.
#[test]
fn real_registry_threads_match_unsharded() {
    fedval_obs::ensure_enabled();
    // A deterministic pseudo-random workload: each thread walks its own
    // splitmix64 stream, so the value multiset is fixed but the
    // cross-thread interleaving is whatever the scheduler does.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
    let per_thread_values = |t: u64| -> Vec<u64> {
        let mut state = 0xfed5_0000 + t;
        (0..500)
            .map(|_| splitmix(&mut state) % 30_000_000)
            .collect()
    };

    let threads: Vec<_> = (0..6u64)
        .map(|t| {
            std::thread::spawn(move || {
                for v in per_thread_values(t) {
                    fedval_obs::counter_add("t.equiv.count", 1);
                    fedval_obs::counter_add("t.equiv.weight", v % 7);
                    fedval_obs::observe_ns("t.equiv.lat_ns", v);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("worker thread panicked");
    }

    let mut reference = Histogram::new();
    let mut count = 0u64;
    let mut weight = 0u64;
    for t in 0..6u64 {
        for v in per_thread_values(t) {
            reference.observe(v);
            count += 1;
            weight += v % 7;
        }
    }

    let fold = fedval_obs::metrics_fold();
    assert_eq!(fold.counter("t.equiv.count"), count);
    assert_eq!(fold.counter("t.equiv.weight"), weight);
    let h = fold
        .histogram("t.equiv.lat_ns")
        .expect("histogram recorded");
    assert_eq!(
        h, &reference,
        "fold histogram must equal sequential reference"
    );
    for p in [50.0, 95.0, 99.0] {
        assert_eq!(h.percentile_ns(p), reference.percentile_ns(p));
    }
    fedval_obs::shutdown();
}
