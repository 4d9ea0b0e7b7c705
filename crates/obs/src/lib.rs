//! # fedval-obs — zero-dependency observability for the fedval workspace
//!
//! Hierarchical spans with monotonic timing, typed counters and gauges,
//! fixed-bucket latency histograms, pluggable sinks, and deterministic
//! run reports — all on `std` alone, in the same spirit as
//! `fedval-lint`'s hand-rolled analysis.
//!
//! ## Design (see DESIGN.md §8)
//!
//! * **One global registry.** Instrumentation sites call free functions
//!   ([`span`], [`counter_add`], [`event`], …). With no sink installed
//!   (the default) each call is a single relaxed atomic load, so hot
//!   loops — simplex pivots, desim event dispatch — stay permanently
//!   instrumented at zero practical cost.
//! * **Sharded metrics.** Enabled counters, gauges, and latency
//!   observations accumulate into per-thread shards merged on demand
//!   ([`metrics_fold`]) — a thread-local map bump, not a global lock —
//!   and [`shutdown`] dumps the merged totals into the record stream so
//!   recorded traces stay complete (DESIGN.md §13).
//! * **Records, not strings.** Spans and events are typed [`Record`]s;
//!   rendering (JSONL for `--trace`, aggregation for reports) happens in
//!   the sink, off the instrumented path.
//! * **Determinism split.** [`MetricsSnapshot`] is the timing-free view
//!   (byte-identical across identical seeded runs); [`RunReport`] is the
//!   timing-full view for humans and benches.
//! * **Capture/replay.** Parallel coordinators divert each worker's
//!   records into a thread-local buffer ([`capture`]) and [`replay`]
//!   them in a scheduling-independent order, so traces and snapshots
//!   stay deterministic regardless of thread count (DESIGN.md §9).
//!
//! ## Naming convention
//!
//! Metric and span names are `crate.subsystem.name`, e.g.
//! `simplex.solver.pivots`, `serve.whatif.hits`,
//! `testbed.simulate.run`. Latency observation names end in `_ns`.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//!
//! let sink = fedval_obs::RecordingSink::new();
//! fedval_obs::install(Arc::new(sink.clone()));
//! {
//!     let _run = fedval_obs::span("example.demo.run");
//!     fedval_obs::counter_add("example.demo.items", 3);
//! }
//! fedval_obs::shutdown();
//!
//! let snap = fedval_obs::MetricsSnapshot::from_records(&sink.records());
//! assert_eq!(snap.counter("example.demo.items"), 3);
//! assert_eq!(snap.spans("example.demo.run"), 1);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod histogram;
pub mod lockorder;
mod record;
mod registry;
mod report;
mod shard;
mod sink;
mod snapshot;

pub use histogram::{bucket_index, bucket_labels, Histogram, BUCKET_BOUNDS_NS, BUCKET_COUNT};
pub use lockorder::{OrderedMutex, OrderedRwLock};
pub use record::{escape_json, json_f64, Record};
pub use registry::{
    capture, counter_add, ensure_enabled, event, flush, gauge_set, install, is_enabled, now_ns,
    observe_ns, replay, shutdown, span, span_with, time_ns, with_span_records_suppressed,
    SpanGuard,
};
pub use report::{fmt_ns, RunReport, SpanStat};
pub use shard::{metrics_fold, MetricsFold};
pub use sink::{FileSink, NullSink, RecordingSink, Sink, TeeSink};
pub use snapshot::MetricsSnapshot;
