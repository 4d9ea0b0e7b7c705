//! # fedval-obs — zero-dependency observability for the fedval workspace
//!
//! Hierarchical spans with monotonic timing, typed counters and gauges,
//! fixed-bucket latency histograms, pluggable sinks, and deterministic
//! run reports — all on `std` alone, in the same spirit as
//! `fedval-lint`'s hand-rolled analysis.
//!
//! ## Design (see DESIGN.md §8)
//!
//! * **One global registry, one switch.** Instrumentation sites call
//!   free functions ([`span`], [`counter_add`], [`event`], …). With
//!   collection off (the default) each call is a single relaxed atomic
//!   load, so hot loops — simplex pivots, desim event dispatch — stay
//!   permanently instrumented at zero practical cost. [`install`] turns
//!   collection on and sends records to a [`Sink`]; [`ensure_enabled`]
//!   turns it on for the metrics alone, with no sink; [`shutdown`]
//!   turns it off.
//! * **Sharded metrics.** Enabled counters, gauges, latency
//!   observations, span aggregates and event counts accumulate into
//!   per-thread shards merged on demand ([`metrics_fold`]) — a
//!   thread-local map bump, not a global lock — and [`shutdown`] dumps
//!   the merged counter and gauge totals into the record stream so
//!   recorded traces stay complete (DESIGN.md §13).
//! * **Records, not strings.** Spans and events are typed [`Record`]s;
//!   rendering them (JSONL for `--trace`) happens in the sink, off the
//!   instrumented path.
//! * **One aggregate, three renderings.** [`MetricsFold`] is the only
//!   aggregate: [`MetricsFold::render`] is the timing-full run report
//!   for humans (`fedval --metrics`), [`MetricsFold::to_json`] the
//!   timing-free dump (`fedload --metrics`), and
//!   [`MetricsFold::to_prometheus`] the live exposition
//!   (`fedval-serve`'s `metrics` query).
//! * **Capture/replay.** Parallel coordinators divert each worker's
//!   records into a thread-local buffer ([`capture`]) and [`replay`]
//!   them in a scheduling-independent order, so traces stay
//!   deterministic regardless of thread count (DESIGN.md §9).
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
//! fedval_obs::ensure_enabled();
//! {
//!     let _run = fedval_obs::span("example.demo.run");
//!     fedval_obs::counter_add("example.demo.items", 3);
//!     fedval_obs::event("example.demo.done", Vec::new);
//! }
//! let fold = fedval_obs::metrics_fold();
//! fedval_obs::shutdown();
//!
//! assert_eq!(fold.counter("example.demo.items"), 3);
//! assert_eq!(fold.span_count("example.demo.run"), 1);
//! assert!(fold.render().contains("-- events --\nexample.demo.done  1\n"));
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

pub use histogram::{bucket_index, bucket_labels, Histogram, BUCKET_BOUNDS_NS, BUCKET_COUNT};
pub use lockorder::OrderedMutex;
pub use record::{escape_json, json_f64, Record};
pub use registry::{
    capture, counter_add, ensure_enabled, event, flush, gauge_set, install, is_enabled, now_ns,
    observe_ns, replay, shutdown, span, span_with, time_ns, with_span_records_suppressed,
    SpanGuard,
};
pub use report::{fmt_ns, SpanStat};
pub use shard::{metrics_fold, MetricsFold};
pub use sink::{FileSink, RecordingSink, Sink};
