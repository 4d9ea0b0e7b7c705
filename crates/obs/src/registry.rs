//! Process-global observability registry.
//!
//! Instrumentation sites call free functions ([`counter_add`], [`span`],
//! [`event`], …) that consult a single global state: an enabled flag and
//! an optional [`Sink`] slot. With collection off (the default) every
//! entry point reduces to one relaxed atomic load and an immediate
//! return — no allocation, no locking, no time query — which is what
//! lets hot loops (simplex pivots, desim event dispatch) stay
//! instrumented permanently. [`install`] turns collection on with a
//! sink for the records; [`ensure_enabled`] turns it on for the metric
//! shards alone, with an empty slot that drops every record.
//!
//! The *enabled* paths split by kind (DESIGN.md §13): counters, gauges,
//! and latency observations accumulate into per-thread shards
//! ([`crate::shard`]) — a thread-local map bump, no record, no sink —
//! while spans and events are counted in the shards *and* emit typed
//! [`Record`]s (they carry the structure traces are made of).
//! [`shutdown`] bridges the two worlds: before detaching the sink it
//! dumps the merged counter totals and final gauge values as ordered
//! records, so a recorded stream remains a complete picture of the run.
//!
//! Span nesting is tracked per thread: a [`SpanGuard`] pushes its id on a
//! thread-local stack at creation and pops it on drop, so `parent` links
//! in the trace reflect lexical nesting on each thread. Guard drop is
//! unwind-safe — a panic inside a span still emits the `SpanEnd` and
//! never double-panics, so a poisoned computation cannot poison the
//! registry. Span *records* can be suppressed in a lexical scope
//! ([`with_span_records_suppressed`]) — the shard aggregates still count
//! every span exactly once, only the trace records are elided; this is
//! what lets the parallel sweep sample span traces without perturbing
//! deterministic span counts.
#![expect(
    clippy::disallowed_methods,
    reason = "the registry owns the sanctioned monotonic clock behind now_ns"
)]

use crate::lockorder::OrderedMutex;
use crate::record::Record;
use crate::shard;
use crate::sink::Sink;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Fast-path switch: true while collection is on.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The installed sink; `None` while collection is off and in a
/// metrics-only run. An [`OrderedMutex`] so tests witness any
/// acquisition-order violation involving the registry (DESIGN.md §12).
static SINK: OrderedMutex<Option<Arc<dyn Sink>>> = OrderedMutex::new("obs.sink", None);

/// Next span id; ids are process-unique and monotonically increasing.
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// Monotonic time origin, set on first use so `t_ns` values are small.
static ORIGIN: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Stack of open span ids on this thread (innermost last).
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };

    /// When set, records emitted on this thread are diverted into the
    /// buffer instead of the installed sink (see [`capture`]).
    static CAPTURE_BUFFER: RefCell<Option<Vec<Record>>> = const { RefCell::new(None) };

    /// Nesting depth of [`with_span_records_suppressed`] scopes: spans
    /// opened while nonzero skip their trace records (shard aggregation
    /// still counts them).
    static SUPPRESS_SPAN_RECORDS: Cell<u32> = const { Cell::new(0) };
}

/// Nanoseconds since the process-wide monotonic origin.
///
/// The origin is pinned by the first observability action in the
/// process, so early records start near zero.
pub fn now_ns() -> u64 {
    let origin = ORIGIN.get_or_init(Instant::now);
    // Saturation is unreachable in practice: u64 nanoseconds cover ~584
    // years of process uptime.
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// True while collection is on: from [`install`] or [`ensure_enabled`]
/// until [`shutdown`], whether or not a sink takes the records.
///
/// Use to guard instrumentation whose *inputs* are expensive to gather
/// (string formatting, sums over vectors); the emitting functions
/// already check internally.
#[inline]
pub fn is_enabled() -> bool {
    // lint: allow(atomic-ordering-audit) — single-flag fast path; sites needing the sink re-synchronize through the SINK lock
    ENABLED.load(Ordering::Relaxed)
}

/// Installs `sink` as the process-global record destination and enables
/// collection. Replaces (and flushes) any previously installed sink and
/// resets the metric shards, so each installed sink observes a fresh
/// run.
pub fn install(sink: Arc<dyn Sink>) {
    let previous = SINK.lock().replace(sink);
    shard::reset();
    ENABLED.store(true, Ordering::SeqCst);
    if let Some(prev) = previous {
        prev.flush();
    }
}

/// Turns collection on without a sink, if it is off; a no-op while it
/// is on, so an installed sink keeps its records and the shards their
/// counts.
///
/// This is the switch for consumers that only want the sharded metric
/// fold (`fedval-serve`'s `metrics` query, `fedload --metrics`): span
/// and event records are dropped. Like [`install`], a fresh enablement
/// resets the shards.
pub fn ensure_enabled() {
    // Holding the slot serializes concurrent first calls, so exactly
    // one of them resets the shards.
    let _slot = SINK.lock();
    if !is_enabled() {
        shard::reset();
        ENABLED.store(true, Ordering::SeqCst);
    }
}

/// Disables collection, flushes, and removes the installed sink.
///
/// Before disabling, the merged shard state is dumped into the record
/// stream as one ordered [`Record::Counter`] per counter total and one
/// [`Record::Gauge`] per final gauge value — so sinks that only see
/// records (trace files, recording sinks) still carry the run's metric
/// totals, exactly once each. The shards themselves are left intact:
/// callers read [`crate::metrics_fold`] *after* shutdown to build
/// reports.
///
/// Returns `true` if collection was on, with or without a sink. Span
/// guards still open keep working — their `Drop` just finds collection
/// disabled and emits nothing.
pub fn shutdown() -> bool {
    if is_enabled() {
        let fold = shard::metrics_fold();
        for (name, delta) in &fold.counters {
            emit(Record::Counter {
                name: name.clone(),
                delta: *delta,
            });
        }
        for (name, value) in &fold.gauges {
            emit(Record::Gauge {
                name: name.clone(),
                value: *value,
            });
        }
    }
    let was_on = ENABLED.swap(false, Ordering::SeqCst);
    let previous = SINK.lock().take();
    if let Some(sink) = previous {
        sink.flush();
    }
    was_on
}

/// Flushes the installed sink, if any.
pub fn flush() {
    if let Some(sink) = current_sink() {
        sink.flush();
    }
}

fn current_sink() -> Option<Arc<dyn Sink>> {
    if !is_enabled() {
        return None;
    }
    SINK.lock().clone()
}

fn emit(r: Record) {
    // An active capture scope on this thread intercepts the record before
    // it reaches the sink; `push_local` hands it back when none is active.
    let Some(r) = push_local(r) else {
        return;
    };
    if let Some(sink) = current_sink() {
        sink.record(&r);
    }
}

/// Appends `r` to this thread's capture buffer if one is active, returning
/// the record back to the caller otherwise.
fn push_local(r: Record) -> Option<Record> {
    CAPTURE_BUFFER.with(|buffer| {
        // try_borrow_mut: a sink emitting from inside a capture hand-off
        // (none do today) must fall through to the sink, not panic.
        match buffer.try_borrow_mut() {
            Ok(mut guard) => match guard.as_mut() {
                Some(buf) => {
                    buf.push(r);
                    None
                }
                None => Some(r),
            },
            Err(_) => Some(r),
        }
    })
}

/// Restores the previous capture state on drop, so a panic inside a
/// [`capture`] closure cannot leave the thread diverting records forever.
struct CaptureRestore {
    previous: Option<Vec<Record>>,
}

impl Drop for CaptureRestore {
    fn drop(&mut self) {
        CAPTURE_BUFFER.with(|buffer| {
            *buffer.borrow_mut() = self.previous.take();
        });
    }
}

/// Runs `f` with every record emitted *on this thread* diverted into a
/// local buffer, returned alongside `f`'s result.
///
/// This is the building block for deterministic parallel execution: each
/// worker captures its own records, and the coordinator [`replay`]s the
/// buffers in a scheduling-independent order (e.g. sweep-point input
/// order), so the record stream the sink sees does not depend on thread
/// interleaving. Capture scopes nest; records emitted by *other* threads
/// during the scope are not captured. With collection off this is
/// exactly `f()` plus one atomic load, and the buffer comes back empty.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Vec<Record>) {
    if !is_enabled() {
        return (f(), Vec::new());
    }
    let previous = CAPTURE_BUFFER.with(|buffer| buffer.replace(Some(Vec::new())));
    let mut restore = CaptureRestore { previous };
    let out = f();
    let captured = CAPTURE_BUFFER.with(|buffer| buffer.replace(restore.previous.take()));
    // State restored by hand just above — the guard only exists for the
    // unwind path, so its Drop (which would clobber the buffer with None)
    // must not run.
    std::mem::forget(restore);
    (out, captured.unwrap_or_default())
}

/// Forwards previously [`capture`]d records to the installed sink, if
/// any (or to the enclosing capture scope, when replaying inside one),
/// in order.
pub fn replay<I: IntoIterator<Item = Record>>(records: I) {
    if !is_enabled() {
        return;
    }
    for r in records {
        emit(r);
    }
}

/// Adds `delta` to the named monotonic counter.
///
/// Names are `&'static str` (`crate.subsystem.name`); the cost when
/// disabled is one atomic load, and when enabled a bump of this
/// thread's metric shard — no record, no sink, no allocation.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !is_enabled() || delta == 0 {
        return;
    }
    shard::with_shard(|s| s.counter_add(name, delta));
}

/// Sets the named gauge to `value` (last write process-wide wins).
#[inline]
pub fn gauge_set(name: &'static str, value: f64) {
    if !is_enabled() {
        return;
    }
    shard::with_shard(|s| s.gauge_set(name, value));
}

/// Records one latency observation (nanoseconds) under `name`, folded
/// into this thread's shard of the named decade-bucket histogram.
#[inline]
pub fn observe_ns(name: &'static str, value_ns: u64) {
    if !is_enabled() {
        return;
    }
    shard::with_shard(|s| s.observe_ns(name, value_ns));
}

/// Restores the suppression depth on unwind.
struct SuppressRestore;

impl Drop for SuppressRestore {
    fn drop(&mut self) {
        SUPPRESS_SPAN_RECORDS.with(|d| d.set(d.get().saturating_sub(1)));
    }
}

/// Runs `f` with span *records* suppressed on this thread: spans opened
/// inside the scope emit no `SpanStart`/`SpanEnd` (and skip their detail
/// closures and id allocation), but their shard aggregates — count,
/// total and max wall time — are still updated exactly once per span.
///
/// This is the sampling primitive for deterministic parallel sweeps:
/// span counts stay exact and scheduling-independent while only a
/// seeded, index-determined subset of points contributes trace records.
/// Scopes nest; events and captured records are unaffected.
pub fn with_span_records_suppressed<T>(f: impl FnOnce() -> T) -> T {
    SUPPRESS_SPAN_RECORDS.with(|d| d.set(d.get() + 1));
    let _restore = SuppressRestore;
    f()
}

fn span_records_suppressed() -> bool {
    SUPPRESS_SPAN_RECORDS
        .try_with(|d| d.get() > 0)
        .unwrap_or(false)
}

/// Counts a structured event in this thread's shard and emits it as a
/// record. `fields` is only invoked when collection is enabled, so
/// building the key/value vector costs nothing by default.
#[inline]
pub fn event<F>(name: &'static str, fields: F)
where
    F: FnOnce() -> Vec<(String, String)>,
{
    if !is_enabled() {
        return;
    }
    shard::with_shard(|s| s.event(name));
    emit(Record::Event {
        name: name.to_string(),
        fields: fields(),
    });
}

/// Opens a span named `name`; the span closes when the guard drops.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    span_inner(name, None)
}

/// Opens a span with a lazily-built detail string (e.g. a coalition
/// mask). `detail` is only invoked when collection is enabled.
#[inline]
pub fn span_with<F>(name: &'static str, detail: F) -> SpanGuard
where
    F: FnOnce() -> String,
{
    if !is_enabled() {
        return SpanGuard { inner: None };
    }
    if span_records_suppressed() {
        // Aggregation-only guard: the detail closure is trace payload,
        // so it is skipped along with the records.
        return span_inner(name, None);
    }
    span_inner(name, Some(detail()))
}

fn span_inner(name: &'static str, detail: Option<String>) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard { inner: None };
    }
    let t_ns = now_ns();
    if span_records_suppressed() {
        // No trace record, no id, no place on the nesting stack — the
        // guard exists purely to feed the shard span aggregate on drop.
        return SpanGuard {
            inner: Some(SpanInner {
                id: 0,
                name,
                start_ns: t_ns,
                recorded: false,
            }),
        };
    }
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|stack| {
        // try_borrow_mut: a sink that itself opens spans (none do today)
        // must degrade to a parentless span rather than panic.
        match stack.try_borrow_mut() {
            Ok(mut s) => {
                let parent = s.last().copied();
                s.push(id);
                parent
            }
            Err(_) => None,
        }
    });
    emit(Record::SpanStart {
        id,
        parent,
        name: name.to_string(),
        detail,
        t_ns,
    });
    SpanGuard {
        inner: Some(SpanInner {
            id,
            name,
            start_ns: t_ns,
            recorded: true,
        }),
    }
}

struct SpanInner {
    id: u64,
    name: &'static str,
    start_ns: u64,
    /// False for suppressed spans: no records were emitted at open, so
    /// none are emitted at close and no stack entry exists to pop.
    recorded: bool,
}

/// RAII guard for an open span; emits `SpanEnd` on drop.
///
/// Dropping is unwind-safe: it never panics, even during a panic inside
/// the span, and it removes exactly its own id from the thread-local
/// nesting stack (by value, not by position) so an out-of-order drop
/// cannot corrupt sibling spans.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    inner: Option<SpanInner>,
}

impl SpanGuard {
    /// True if this guard corresponds to a live (recorded) span.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        if inner.recorded {
            SPAN_STACK.with(|stack| {
                if let Ok(mut s) = stack.try_borrow_mut() {
                    if let Some(pos) = s.iter().rposition(|&id| id == inner.id) {
                        s.remove(pos);
                    }
                }
            });
        }
        if !is_enabled() {
            // Collection was shut down while the span was open: nesting
            // state is cleaned up above, but there is nowhere to report to.
            return;
        }
        let t_ns = now_ns();
        let dur_ns = t_ns.saturating_sub(inner.start_ns);
        // Every completed span — recorded or suppressed — counts exactly
        // once in the shard aggregates; suppression only elides the
        // trace records.
        shard::with_shard(|s| s.span_end(inner.name, dur_ns));
        if !inner.recorded {
            return;
        }
        emit(Record::SpanEnd {
            id: inner.id,
            name: inner.name.to_string(),
            t_ns,
            dur_ns,
        });
    }
}

/// Times `f` and records its duration as a latency observation
/// ([`observe_ns`]) under `name`. When disabled this is exactly `f()`
/// plus one atomic load.
#[inline]
pub fn time_ns<T, F: FnOnce() -> T>(name: &'static str, f: F) -> T {
    if !is_enabled() {
        return f();
    }
    let start = now_ns();
    let out = f();
    observe_ns(name, now_ns().saturating_sub(start));
    out
}
