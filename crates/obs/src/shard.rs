//! Per-thread sharded metric accumulation (DESIGN.md §13).
//!
//! Counters, gauges, latency histograms, span aggregates and event
//! counts do not travel through the record stream: each thread owns a
//! *shard* — a small map bundle behind an uncontended `Mutex` —
//! registered with a process-global registry on first use. An enabled
//! `counter_add` is a thread-local map bump (one uncontended lock, no
//! allocation for the `&'static str` key), not a global `RwLock` read
//! plus a sink mutex. Merging happens only on demand: [`metrics_fold`]
//! locks the registry, then each shard one at a time, and sums
//! everything into a [`MetricsFold`].
//!
//! Thread exit flushes: a shard's owning thread drains it into the
//! registry's `retired` accumulator when the thread's locals are torn
//! down, so no increment is lost when worker threads come and go.
//!
//! Lock discipline: the bump path takes only the calling thread's own
//! shard lock; the merge/flush paths take the registry lock first, then
//! shard locks one at a time (never two shards together). The registry
//! lock is an [`OrderedMutex`] so debug runs witness any ordering
//! violation; the per-shard locks are plain `std::sync::Mutex` — they
//! all share one role and are provably leaf locks, and the lock-order
//! checker's same-name-relock rule would reject a shared static name.

use crate::histogram::Histogram;
use crate::lockorder::OrderedMutex;
use crate::report::SpanStat;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Global sequence stamping gauge writes so the merge can pick the
/// process-wide *last* write regardless of which shard holds it.
// lint: allow(atomic-ordering-audit) — monotonic ticket; only uniqueness and per-thread order matter
static GAUGE_SEQ: AtomicU64 = AtomicU64::new(1);

/// One thread's private metric accumulation.
#[derive(Debug, Default)]
pub(crate) struct ShardData {
    /// Counter name → summed deltas.
    counters: BTreeMap<&'static str, u64>,
    /// Gauge name → (write sequence, value); highest sequence wins the merge.
    gauges: BTreeMap<&'static str, (u64, f64)>,
    /// Span name → completed-span aggregate (count / total / max wall time).
    spans: BTreeMap<&'static str, SpanStat>,
    /// Observation name → latency histogram.
    histograms: BTreeMap<&'static str, Histogram>,
    /// Event name → occurrences.
    events: BTreeMap<&'static str, u64>,
}

impl ShardData {
    const fn new() -> ShardData {
        ShardData {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            spans: BTreeMap::new(),
            histograms: BTreeMap::new(),
            events: BTreeMap::new(),
        }
    }

    /// Adds `delta` to the named counter.
    pub(crate) fn counter_add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Stamps and stores a gauge write.
    pub(crate) fn gauge_set(&mut self, name: &'static str, value: f64) {
        let seq = GAUGE_SEQ.fetch_add(1, Ordering::Relaxed);
        self.gauges.insert(name, (seq, value));
    }

    /// Folds one latency observation into the named histogram.
    pub(crate) fn observe_ns(&mut self, name: &'static str, value_ns: u64) {
        self.histograms.entry(name).or_default().observe(value_ns);
    }

    /// Folds one completed span into the named aggregate.
    pub(crate) fn span_end(&mut self, name: &'static str, dur_ns: u64) {
        self.spans.entry(name).or_default().merge(&SpanStat {
            count: 1,
            total_ns: dur_ns,
            max_ns: dur_ns,
        });
    }

    /// Counts one occurrence of the named event.
    pub(crate) fn event(&mut self, name: &'static str) {
        *self.events.entry(name).or_insert(0) += 1;
    }

    /// Sums `other` into `self`: counters, span aggregates, histograms
    /// and event counts add; each gauge keeps its highest-sequence write.
    fn absorb(&mut self, other: &ShardData) {
        for (&name, &delta) in &other.counters {
            *self.counters.entry(name).or_insert(0) += delta;
        }
        for (&name, &(seq, value)) in &other.gauges {
            let slot = self.gauges.entry(name).or_insert((0, 0.0));
            if seq >= slot.0 {
                *slot = (seq, value);
            }
        }
        for (&name, stat) in &other.spans {
            self.spans.entry(name).or_default().merge(stat);
        }
        for (&name, h) in &other.histograms {
            self.histograms.entry(name).or_default().merge(h);
        }
        for (&name, &count) in &other.events {
            *self.events.entry(name).or_insert(0) += count;
        }
    }
}

/// The shard registry: every live thread's shard plus the accumulated
/// contributions of exited threads.
struct Shards {
    live: Vec<Arc<Mutex<ShardData>>>,
    retired: ShardData,
}

static SHARDS: OrderedMutex<Shards> = OrderedMutex::new(
    "obs.shards",
    Shards {
        live: Vec::new(),
        retired: ShardData::new(),
    },
);

/// Locks one shard, absorbing poisoning (shard maps are sum-coherent
/// even after a panicked writer, like every other obs lock).
fn lock_shard(shard: &Mutex<ShardData>) -> MutexGuard<'_, ShardData> {
    match shard.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Registers this thread's shard on creation, drains it into the
/// registry's `retired` accumulator on thread exit.
struct LocalShard {
    data: Arc<Mutex<ShardData>>,
}

impl LocalShard {
    fn register() -> LocalShard {
        let data = Arc::new(Mutex::new(ShardData::default()));
        SHARDS.lock().live.push(Arc::clone(&data));
        LocalShard { data }
    }
}

impl Drop for LocalShard {
    fn drop(&mut self) {
        // Registry first, then the shard — same order as the merge path.
        let mut reg = SHARDS.lock();
        reg.retired.absorb(&lock_shard(&self.data));
        reg.live.retain(|s| !Arc::ptr_eq(s, &self.data));
    }
}

thread_local! {
    static LOCAL_SHARD: LocalShard = LocalShard::register();
}

/// Runs `f` against this thread's shard. During thread teardown (after
/// the shard TLS slot is destroyed) the bump lands in the registry's
/// `retired` accumulator instead, so late emitters still count.
pub(crate) fn with_shard(f: impl FnOnce(&mut ShardData)) {
    match LOCAL_SHARD.try_with(|s| Arc::clone(&s.data)) {
        Ok(shard) => f(&mut lock_shard(&shard)),
        Err(_) => f(&mut SHARDS.lock().retired),
    }
}

/// Clears every live shard and the retired accumulator — the fresh-run
/// reset performed by [`install`](crate::install).
pub(crate) fn reset() {
    let mut reg = SHARDS.lock();
    reg.retired = ShardData::new();
    for shard in &reg.live {
        *lock_shard(shard) = ShardData::new();
    }
}

/// Merges every thread's shard (live and retired) into one
/// [`MetricsFold`]. Non-destructive: shards keep accumulating.
pub fn metrics_fold() -> MetricsFold {
    let mut all = ShardData::new();
    {
        let reg = SHARDS.lock();
        all.absorb(&reg.retired);
        for shard in &reg.live {
            all.absorb(&lock_shard(shard));
        }
    }
    fn owned<V>(map: BTreeMap<&'static str, V>) -> BTreeMap<String, V> {
        map.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
    }
    MetricsFold {
        counters: owned(all.counters),
        gauges: all
            .gauges
            .into_iter()
            .map(|(k, (_, v))| (k.to_string(), v))
            .collect(),
        spans: owned(all.spans),
        histograms: owned(all.histograms),
        events: owned(all.events),
    }
}

/// The on-demand merge of all metric shards: counter totals, last-write
/// gauge values, span aggregates, latency histograms and event counts —
/// the one aggregate every report, dump and exposition renders from
/// ([`MetricsFold::render`], [`MetricsFold::to_json`],
/// [`MetricsFold::to_prometheus`]).
///
/// This is the process's *current* metric state — cheap to produce
/// (one registry lock plus one uncontended lock per live thread) and
/// safe to take while work continues, which is what lets `fedval-serve`
/// answer a live `metrics` query without quiescing workers.
#[derive(Debug, Clone, Default)]
pub struct MetricsFold {
    /// Counter name → summed deltas across all shards.
    pub counters: BTreeMap<String, u64>,
    /// Gauge name → most recent write, process-wide.
    pub gauges: BTreeMap<String, f64>,
    /// Span name → completed-span aggregate.
    pub spans: BTreeMap<String, SpanStat>,
    /// Observation name → merged latency histogram.
    pub histograms: BTreeMap<String, Histogram>,
    /// Event name → occurrences.
    pub events: BTreeMap<String, u64>,
}

impl MetricsFold {
    /// Counter total, defaulting to 0 when never incremented.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Latest gauge value, if ever written.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Completed-span count for `name`, defaulting to 0.
    pub fn span_count(&self, name: &str) -> u64 {
        self.spans.get(name).map(|s| s.count).unwrap_or(0)
    }

    /// Merged histogram for `name`, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Hit ratio for a `<prefix>.hits` / `<prefix>.misses` counter pair;
    /// `None` when neither counter fired.
    pub fn cache_ratio(&self, prefix: &str) -> Option<f64> {
        let hits = self.counter(&format!("{prefix}.hits"));
        let misses = self.counter(&format!("{prefix}.misses"));
        let total = hits + misses;
        if total == 0 {
            None
        } else {
            Some(hits as f64 / total as f64)
        }
    }
}
