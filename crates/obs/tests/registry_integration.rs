//! Integration tests for the global registry: span nesting, unwind
//! safety, and the disabled fast path.
//!
//! The registry is process-global, so every scenario runs inside ONE
//! test function (integration tests may run in parallel threads; a
//! shared registry would interleave records across tests otherwise).
//! Each scenario installs a fresh `RecordingSink` and shuts down before
//! the next; the metric fold of the run stays readable after shutdown
//! until the next install.

use fedval_obs::{Record, RecordingSink, SpanGuard};
use std::sync::Arc;

fn with_fresh_sink<F: FnOnce()>(f: F) -> Vec<Record> {
    let sink = RecordingSink::new();
    fedval_obs::install(Arc::new(sink.clone()));
    f();
    fedval_obs::shutdown();
    sink.records()
}

/// `SpanEnd` records named `name`.
fn span_ends(records: &[Record], name: &str) -> usize {
    records
        .iter()
        .filter(|r| matches!(r, Record::SpanEnd { .. }) && r.name() == name)
        .count()
}

/// `Event` records named `name`.
fn events(records: &[Record], name: &str) -> usize {
    records
        .iter()
        .filter(|r| matches!(r, Record::Event { .. }) && r.name() == name)
        .count()
}

/// `(name, delta)` of every `Counter` record, in stream order.
fn counter_records(records: &[Record]) -> Vec<(&str, u64)> {
    records
        .iter()
        .filter_map(|r| match r {
            Record::Counter { name, delta } => Some((name.as_str(), *delta)),
            _ => None,
        })
        .collect()
}

#[test]
fn registry_scenarios() {
    nesting_links_parents();
    panic_inside_span_still_closes_it_and_does_not_poison();
    disabled_paths_emit_nothing();
    lazy_closures_not_invoked_when_disabled();
    spans_open_across_shutdown_are_harmless();
    threads_get_independent_span_stacks();
    capture_diverts_this_thread_only_and_replay_forwards();
    capture_scopes_nest_and_survive_unwind();
    capture_when_disabled_is_free();
    sharded_fold_merges_threads_and_flushes_exits();
    suppressed_spans_count_without_records();
    ensure_enabled_installs_a_null_sink_once();
}

fn nesting_links_parents() {
    let records = with_fresh_sink(|| {
        let _outer = fedval_obs::span("t.nest.outer");
        let _inner = fedval_obs::span_with("t.nest.inner", || "detail".to_string());
        fedval_obs::counter_add("t.nest.count", 1);
    });
    let starts: Vec<(u64, Option<u64>, Option<&str>)> = records
        .iter()
        .filter_map(|r| match r {
            Record::SpanStart {
                id, parent, detail, ..
            } => Some((*id, *parent, detail.as_deref())),
            _ => None,
        })
        .collect();
    assert_eq!(starts.len(), 2);
    let (outer_id, outer_parent, _) = starts[0];
    assert_eq!(outer_parent, None);
    let (_, inner_parent, inner_detail) = starts[1];
    assert_eq!(
        inner_parent,
        Some(outer_id),
        "inner span must link to outer"
    );
    assert_eq!(inner_detail, Some("detail"));
    // Inner closes before outer (LIFO drop order).
    let ends: Vec<&str> = records
        .iter()
        .filter_map(|r| match r {
            Record::SpanEnd { name, .. } => Some(name.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(ends, vec!["t.nest.inner", "t.nest.outer"]);
}

#[expect(clippy::panic, reason = "the scenario panics inside a span on purpose")]
fn panic_inside_span_still_closes_it_and_does_not_poison() {
    let records = with_fresh_sink(|| {
        let result = std::panic::catch_unwind(|| {
            let _span = fedval_obs::span("t.panic.victim");
            panic!("boom inside span");
        });
        assert!(result.is_err());
        // The registry must keep working after the unwind: new spans
        // nest correctly (parent = None — the stack was cleaned up).
        let _after = fedval_obs::span("t.panic.after");
        fedval_obs::counter_add("t.panic.survived", 1);
    });
    assert_eq!(
        span_ends(&records, "t.panic.victim"),
        1,
        "span must close on unwind"
    );
    assert_eq!(span_ends(&records, "t.panic.after"), 1);
    let fold = fedval_obs::metrics_fold();
    assert_eq!(fold.span_count("t.panic.victim"), 1);
    assert_eq!(fold.counter("t.panic.survived"), 1);
    for r in &records {
        if let Record::SpanStart { name, parent, .. } = r {
            if name == "t.panic.after" {
                assert_eq!(
                    *parent, None,
                    "unwound span must be removed from the nesting stack"
                );
            }
        }
    }
}

fn disabled_paths_emit_nothing() {
    assert!(!fedval_obs::is_enabled());
    let sink = RecordingSink::new();
    {
        let guard = fedval_obs::span("t.disabled.span");
        assert!(!guard.is_recording());
        fedval_obs::counter_add("t.disabled.count", 5);
        fedval_obs::gauge_set("t.disabled.gauge", 1.0);
        fedval_obs::observe_ns("t.disabled.obs_ns", 10);
    }
    assert!(sink.is_empty());
}

#[expect(
    clippy::panic,
    reason = "each closure panics if it runs, which is what the scenario rules out"
)]
fn lazy_closures_not_invoked_when_disabled() {
    assert!(!fedval_obs::is_enabled());
    let _g: SpanGuard = fedval_obs::span_with("t.lazy.span", || {
        panic!("detail closure must not run when disabled")
    });
    fedval_obs::event("t.lazy.event", || {
        panic!("fields closure must not run when disabled")
    });
    let out = fedval_obs::time_ns("t.lazy.timed_ns", || 42);
    assert_eq!(out, 42);
}

fn spans_open_across_shutdown_are_harmless() {
    let sink = RecordingSink::new();
    fedval_obs::install(Arc::new(sink.clone()));
    let guard = fedval_obs::span("t.shutdown.orphan");
    assert!(guard.is_recording());
    fedval_obs::shutdown();
    drop(guard); // must not panic, must not emit
    assert_eq!(span_ends(&sink.records(), "t.shutdown.orphan"), 0);
    assert_eq!(
        fedval_obs::metrics_fold().span_count("t.shutdown.orphan"),
        0
    );
    // And a fresh install still works afterwards.
    let records = with_fresh_sink(|| {
        let _s = fedval_obs::span("t.shutdown.fresh");
    });
    assert_eq!(span_ends(&records, "t.shutdown.fresh"), 1);
}

fn capture_diverts_this_thread_only_and_replay_forwards() {
    let records = with_fresh_sink(|| {
        fedval_obs::counter_add("t.capture.before", 1);
        let ((), captured) = fedval_obs::capture(|| {
            let _span = fedval_obs::span("t.capture.inner");
            // Counters bypass the record stream entirely now: they land
            // in this thread's metric shard even inside a capture.
            fedval_obs::counter_add("t.capture.diverted", 2);
            let emitter =
                std::thread::spawn(|| fedval_obs::counter_add("t.capture.other_thread", 1));
            assert!(emitter.join().is_ok(), "emitting thread panicked");
        });
        // Only the span records were buffered; counters went to shards.
        assert_eq!(captured.len(), 2, "span start+end only: {captured:?}");
        fedval_obs::replay(captured);
    });
    assert_eq!(span_ends(&records, "t.capture.inner"), 1);
    // Counter records exist only as the shutdown dump: exactly one per
    // name, ordered by name, carrying the total.
    assert_eq!(
        counter_records(&records),
        vec![
            ("t.capture.before", 1),
            ("t.capture.diverted", 2),
            ("t.capture.other_thread", 1)
        ]
    );
}

#[expect(
    clippy::panic,
    reason = "the scenario panics inside a capture on purpose"
)]
fn capture_scopes_nest_and_survive_unwind() {
    let records = with_fresh_sink(|| {
        // Events still travel as records, so they exercise the nesting.
        let ((), outer) = fedval_obs::capture(|| {
            fedval_obs::event("t.nestcap.outer", Vec::new);
            let ((), inner) = fedval_obs::capture(|| {
                fedval_obs::event("t.nestcap.inner", Vec::new);
            });
            assert_eq!(inner.len(), 1);
            // Replaying inside a capture scope lands in that scope.
            fedval_obs::replay(inner);
        });
        assert_eq!(outer.len(), 2, "{outer:?}");

        // A panic inside a capture must restore direct emission.
        let unwound = std::panic::catch_unwind(|| {
            fedval_obs::capture(|| -> () { panic!("boom inside capture") })
        });
        assert!(unwound.is_err());
        fedval_obs::counter_add("t.nestcap.after_panic", 1);
        fedval_obs::replay(outer);
    });
    assert_eq!(events(&records, "t.nestcap.outer"), 1);
    assert_eq!(events(&records, "t.nestcap.inner"), 1);
    assert_eq!(
        counter_records(&records),
        vec![("t.nestcap.after_panic", 1)],
        "captures must not stay active after an unwind"
    );
    // The fold counts each event once, when emitted: capturing and
    // replaying the record does not count it again.
    let fold = fedval_obs::metrics_fold();
    assert_eq!(fold.events.get("t.nestcap.outer"), Some(&1));
    assert_eq!(fold.events.get("t.nestcap.inner"), Some(&1));
}

fn capture_when_disabled_is_free() {
    assert!(!fedval_obs::is_enabled());
    let (out, captured) = fedval_obs::capture(|| {
        fedval_obs::counter_add("t.offcap.count", 1);
        7
    });
    assert_eq!(out, 7);
    assert!(captured.is_empty(), "disabled capture must record nothing");
}

fn sharded_fold_merges_threads_and_flushes_exits() {
    let _records = with_fresh_sink(|| {
        fedval_obs::counter_add("t.fold.hits", 2);
        fedval_obs::gauge_set("t.fold.depth", 4.0);
        fedval_obs::observe_ns("t.fold.lat_ns", 1_500);
        let workers: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    fedval_obs::counter_add("t.fold.hits", 3);
                    fedval_obs::observe_ns("t.fold.lat_ns", 2_500);
                })
            })
            .collect();
        for w in workers {
            assert!(w.join().is_ok(), "worker thread panicked");
        }
        // The workers have exited, so their shards were drained into the
        // retired accumulator — the fold must still see every increment.
        let fold = fedval_obs::metrics_fold();
        assert_eq!(fold.counter("t.fold.hits"), 14);
        assert_eq!(fold.gauge("t.fold.depth"), Some(4.0));
        let h = fold.histogram("t.fold.lat_ns");
        assert_eq!(h.map(|h| h.count), Some(5));
        assert_eq!(h.map(|h| h.sum_ns), Some(1_500 + 4 * 2_500));
        assert_eq!(h.map(|h| h.min_ns), Some(1_500));
        assert_eq!(h.map(|h| h.max_ns), Some(2_500));
    });
}

#[expect(
    clippy::panic,
    reason = "the detail closure panics if it runs, which is what the scenario rules out"
)]
fn suppressed_spans_count_without_records() {
    let records = with_fresh_sink(|| {
        fedval_obs::with_span_records_suppressed(|| {
            let _a = fedval_obs::span("t.suppress.span");
            let _b = fedval_obs::span_with("t.suppress.detail", || {
                panic!("detail closure must be skipped while suppressed")
            });
        });
        {
            let _v = fedval_obs::span("t.suppress.visible");
        }
        let fold = fedval_obs::metrics_fold();
        assert_eq!(fold.span_count("t.suppress.span"), 1);
        assert_eq!(fold.span_count("t.suppress.detail"), 1);
        assert_eq!(fold.span_count("t.suppress.visible"), 1);
    });
    // Suppressed spans left no trace records; the visible one has both.
    assert!(records
        .iter()
        .all(|r| r.name() != "t.suppress.span" && r.name() != "t.suppress.detail"));
    assert_eq!(
        records.iter().filter(|r| r.name() == "t.suppress.visible").count(),
        2
    );
}

fn ensure_enabled_installs_a_null_sink_once() {
    assert!(!fedval_obs::is_enabled());
    fedval_obs::ensure_enabled();
    assert!(fedval_obs::is_enabled());
    fedval_obs::counter_add("t.ensure.count", 1);
    // Idempotent: a second call must not reset accumulated state.
    fedval_obs::ensure_enabled();
    assert_eq!(fedval_obs::metrics_fold().counter("t.ensure.count"), 1);
    assert!(fedval_obs::shutdown());
    assert!(!fedval_obs::is_enabled());
}

fn threads_get_independent_span_stacks() {
    let records = with_fresh_sink(|| {
        let _main_span = fedval_obs::span("t.threads.main");
        let handle = std::thread::spawn(|| {
            let _worker = fedval_obs::span("t.threads.worker");
        });
        assert!(handle.join().is_ok(), "worker thread panicked");
    });
    for r in &records {
        if let Record::SpanStart { name, parent, .. } = r {
            if name == "t.threads.worker" {
                assert_eq!(
                    *parent, None,
                    "spans on other threads must not inherit this thread's stack"
                );
            }
        }
    }
}
