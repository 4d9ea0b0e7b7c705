//! Fixed-bucket latency histograms.
//!
//! Latency observations ([`observe_ns`](crate::observe_ns)) are aggregated
//! into a fixed decade ladder from 1 µs to 10 s plus an overflow bucket. Fixed
//! boundaries keep aggregation allocation-free and — more importantly —
//! make bucket counts *comparable across runs and machines*: two traces
//! of the same workload bucket identically unless the latencies really
//! moved a decade.

/// Upper bounds (inclusive) of the finite buckets, in nanoseconds:
/// 1 µs, 10 µs, 100 µs, 1 ms, 10 ms, 100 ms, 1 s, 10 s.
pub const BUCKET_BOUNDS_NS: [u64; 8] = [
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
];

/// Total bucket count: the finite ladder plus one overflow bucket.
pub const BUCKET_COUNT: usize = BUCKET_BOUNDS_NS.len() + 1;

/// Human-readable labels for each bucket, aligned with
/// [`bucket_index`]: `labels()[bucket_index(v)]` describes `v`'s bucket.
pub fn bucket_labels() -> [&'static str; BUCKET_COUNT] {
    [
        "<=1us", "<=10us", "<=100us", "<=1ms", "<=10ms", "<=100ms", "<=1s", "<=10s", ">10s",
    ]
}

/// Maps an observed duration to its bucket index.
///
/// Bounds are inclusive: exactly 1 000 ns lands in the `<=1us` bucket.
/// Values above 10 s land in the final overflow bucket.
pub fn bucket_index(value_ns: u64) -> usize {
    BUCKET_BOUNDS_NS
        .iter()
        .position(|&bound| value_ns <= bound)
        .unwrap_or(BUCKET_BOUNDS_NS.len())
}

/// Aggregated view of one named observation stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Per-bucket counts, indexed per [`bucket_index`].
    pub buckets: [u64; BUCKET_COUNT],
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values, ns.
    pub sum_ns: u64,
    /// Smallest observation, ns (0 when empty).
    pub min_ns: u64,
    /// Largest observation, ns (0 when empty).
    pub max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKET_COUNT],
            count: 0,
            sum_ns: 0,
            min_ns: 0,
            max_ns: 0,
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one observation into the histogram.
    pub fn observe(&mut self, value_ns: u64) {
        self.buckets[bucket_index(value_ns)] += 1;
        if self.count == 0 || value_ns < self.min_ns {
            self.min_ns = value_ns;
        }
        if value_ns > self.max_ns {
            self.max_ns = value_ns;
        }
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(value_ns);
    }

    /// Folds another histogram into this one (shard merging): bucket
    /// counts and sums add, the min/max envelope widens.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        for (slot, &n) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *slot += n;
        }
        if self.count == 0 || other.min_ns < self.min_ns {
            self.min_ns = other.min_ns;
        }
        if other.max_ns > self.max_ns {
            self.max_ns = other.max_ns;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
    }

    /// The observations recorded since `earlier` was snapshotted, as a
    /// histogram: bucket counts and sums subtract (saturating, so a
    /// reset between snapshots degrades to zeros instead of wrapping).
    /// `min_ns`/`max_ns` cannot be reconstructed for a window, so the
    /// delta keeps the conservative envelope `[0, self.max_ns]` —
    /// percentile estimates on a delta stay within the decade-bucket
    /// resolution rather than being exact at the edges.
    pub fn delta(&self, earlier: &Histogram) -> Histogram {
        let mut out = Histogram::new();
        for (i, slot) in out.buckets.iter_mut().enumerate() {
            *slot = self.buckets[i].saturating_sub(earlier.buckets[i]);
        }
        out.count = self.count.saturating_sub(earlier.count);
        out.sum_ns = self.sum_ns.saturating_sub(earlier.sum_ns);
        out.min_ns = 0;
        out.max_ns = if out.count == 0 { 0 } else { self.max_ns };
        out
    }

    /// Mean observation in nanoseconds, or 0 when empty.
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// The `p`-th percentile (0 < p ≤ 100) estimated from the decade
    /// buckets, in nanoseconds. Returns 0 when the histogram is empty.
    ///
    /// Interpolation rule (the one number everything downstream quotes,
    /// so it is spelled out): the percentile *rank* is
    /// `r = ceil(p/100 · count)` (nearest-rank, 1-based). Buckets are
    /// walked in order until the cumulative count reaches `r`; within
    /// the containing bucket the estimate interpolates **linearly by
    /// rank position** between the bucket's lower and upper bound
    /// (lower = previous bound, 0 for the first bucket; upper = the
    /// bucket's inclusive bound). The overflow bucket (`>10s`) has no
    /// upper bound and reports `max_ns`. The final estimate is clamped
    /// to the exactly-tracked `[min_ns, max_ns]` envelope, so
    /// single-observation histograms report that observation exactly
    /// and no percentile can leave the observed range.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "rank lies in [1, count] and the in-bucket offset in [0, upper - lower]"
    )]
    pub fn percentile_ns(&self, p: f64) -> u64 {
        if self.count == 0 || !p.is_finite() || p <= 0.0 {
            return 0;
        }
        let p = p.min(100.0);
        // Nearest-rank, 1-based: the smallest r with r/count >= p/100.
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let estimate = if i == BUCKET_BOUNDS_NS.len() {
                    // Overflow bucket: unbounded above, report the exact max.
                    self.max_ns
                } else {
                    let lower = if i == 0 { 0 } else { BUCKET_BOUNDS_NS[i - 1] };
                    let upper = BUCKET_BOUNDS_NS[i];
                    // Rank position within this bucket, in (0, 1].
                    let frac = (rank - seen) as f64 / n as f64;
                    lower + ((upper - lower) as f64 * frac) as u64
                };
                return estimate.clamp(self.min_ns, self.max_ns);
            }
            seen += n;
        }
        self.max_ns
    }

    /// Median estimate, ns (see [`Histogram::percentile_ns`]).
    pub fn p50_ns(&self) -> u64 {
        self.percentile_ns(50.0)
    }

    /// 95th-percentile estimate, ns (see [`Histogram::percentile_ns`]).
    pub fn p95_ns(&self) -> u64 {
        self.percentile_ns(95.0)
    }

    /// 99th-percentile estimate, ns (see [`Histogram::percentile_ns`]).
    pub fn p99_ns(&self) -> u64 {
        self.percentile_ns(99.0)
    }

    /// One-line textual rendering of the non-empty buckets, e.g.
    /// `"<=10us:3 <=100us:1"`. Empty histogram renders as `"(empty)"`.
    pub fn render_buckets(&self) -> String {
        if self.count == 0 {
            return "(empty)".to_string();
        }
        let labels = bucket_labels();
        let mut parts = Vec::new();
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                parts.push(format!("{}:{}", labels[i], n));
            }
        }
        parts.join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_inclusive() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(999), 0);
        assert_eq!(bucket_index(1_000), 0);
        assert_eq!(bucket_index(1_001), 1);
        assert_eq!(bucket_index(10_000), 1);
        assert_eq!(bucket_index(10_001), 2);
        assert_eq!(bucket_index(1_000_000), 3);
        assert_eq!(bucket_index(10_000_000_000), 7);
        assert_eq!(bucket_index(10_000_000_001), 8);
        assert_eq!(bucket_index(u64::MAX), 8);
    }

    #[test]
    fn labels_align_with_indices() {
        let labels = bucket_labels();
        assert_eq!(labels.len(), BUCKET_COUNT);
        assert_eq!(labels[bucket_index(500)], "<=1us");
        assert_eq!(labels[bucket_index(50_000)], "<=100us");
        assert_eq!(labels[bucket_index(u64::MAX)], ">10s");
    }

    #[test]
    fn histogram_tracks_count_sum_min_max_mean() {
        let mut h = Histogram::new();
        assert_eq!(h.mean_ns(), 0);
        h.observe(100);
        h.observe(300);
        h.observe(2_000);
        assert_eq!(h.count, 3);
        assert_eq!(h.sum_ns, 2_400);
        assert_eq!(h.min_ns, 100);
        assert_eq!(h.max_ns, 2_000);
        assert_eq!(h.mean_ns(), 800);
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[1], 1);
    }

    #[test]
    fn percentiles_of_empty_histogram_are_zero() {
        let h = Histogram::new();
        assert_eq!(h.percentile_ns(50.0), 0);
        assert_eq!(h.p99_ns(), 0);
    }

    #[test]
    fn single_observation_reports_itself_at_every_percentile() {
        let mut h = Histogram::new();
        h.observe(7_300);
        // The [min, max] clamp makes every percentile exact here.
        assert_eq!(h.p50_ns(), 7_300);
        assert_eq!(h.p95_ns(), 7_300);
        assert_eq!(h.p99_ns(), 7_300);
        assert_eq!(h.percentile_ns(1.0), 7_300);
    }

    #[test]
    fn percentile_walks_buckets_by_nearest_rank() {
        let mut h = Histogram::new();
        // 90 observations in <=1us, 10 in (1us, 10us].
        for _ in 0..90 {
            h.observe(500);
        }
        for _ in 0..10 {
            h.observe(5_000);
        }
        // rank(50) = 50 → bucket 0, frac 50/90: 0 + 1000·(50/90) = 555.
        assert_eq!(h.p50_ns(), 555);
        // rank(95) = 95 → bucket 1 (5 of 10 into it): 1000 + 9000·0.5 = 5500,
        // clamped to max = 5000.
        assert_eq!(h.p95_ns(), 5_000);
        // rank(99) = 99 → bucket 1, frac 9/10: 1000 + 9000·0.9 = 9100,
        // clamped to max = 5000.
        assert_eq!(h.p99_ns(), 5_000);
    }

    #[test]
    fn interpolation_is_linear_in_rank_within_a_bucket() {
        let mut h = Histogram::new();
        // 4 observations, all in the (1us, 10us] bucket.
        for v in [2_000, 4_000, 6_000, 8_000] {
            h.observe(v);
        }
        // rank(25) = 1 → 1000 + 9000·(1/4) = 3250.
        assert_eq!(h.percentile_ns(25.0), 3_250);
        // rank(75) = 3 → 1000 + 9000·(3/4) = 7750.
        assert_eq!(h.percentile_ns(75.0), 7_750);
        // rank(100) = 4 → upper bound 10000, clamped to max 8000.
        assert_eq!(h.percentile_ns(100.0), 8_000);
    }

    #[test]
    fn overflow_bucket_reports_exact_max() {
        let mut h = Histogram::new();
        h.observe(100);
        h.observe(20_000_000_000); // >10s
        assert_eq!(h.p99_ns(), 20_000_000_000);
        // rank(50) = 1 → bucket 0, frac 1/1 → upper bound 1000 (the decade
        // resolution limit), still inside the [min, max] envelope.
        assert_eq!(h.p50_ns(), 1_000);
    }

    #[test]
    fn out_of_range_p_is_defensive() {
        let mut h = Histogram::new();
        h.observe(42);
        assert_eq!(h.percentile_ns(0.0), 0);
        assert_eq!(h.percentile_ns(-3.0), 0);
        assert_eq!(h.percentile_ns(f64::NAN), 0);
        assert_eq!(h.percentile_ns(250.0), 42, "p > 100 saturates to p100");
    }

    #[test]
    fn merge_matches_unsharded_accumulation() {
        let values = [100u64, 2_000, 2_000, 50_000, 20_000_000_000];
        let mut whole = Histogram::new();
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for (i, &v) in values.iter().enumerate() {
            whole.observe(v);
            if i % 2 == 0 {
                a.observe(v);
            } else {
                b.observe(v);
            }
        }
        let mut merged = Histogram::new();
        merged.merge(&a);
        merged.merge(&b);
        merged.merge(&Histogram::new());
        assert_eq!(merged, whole);
    }

    #[test]
    fn delta_isolates_the_window() {
        let mut h = Histogram::new();
        h.observe(500);
        h.observe(5_000);
        let earlier = h.clone();
        h.observe(700);
        h.observe(70_000);
        let d = h.delta(&earlier);
        assert_eq!(d.count, 2);
        assert_eq!(d.sum_ns, 70_700);
        assert_eq!(d.buckets[0], 1);
        assert_eq!(d.buckets[2], 1);
        // An empty window is empty, not a stale copy.
        let none = h.delta(&h);
        assert_eq!(none.count, 0);
        assert_eq!(none.max_ns, 0);
        assert_eq!(none.p99_ns(), 0);
    }

    #[test]
    fn render_skips_empty_buckets() {
        let mut h = Histogram::new();
        assert_eq!(h.render_buckets(), "(empty)");
        h.observe(5_000);
        h.observe(5_500);
        h.observe(200_000);
        assert_eq!(h.render_buckets(), "<=10us:2 <=1ms:1");
    }
}
