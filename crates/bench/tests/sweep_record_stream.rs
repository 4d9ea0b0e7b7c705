//! The sweep engine's record stream is identical at every thread count.
//!
//! The obs registry is process-global, so this check runs in its own
//! test binary (the crate's lib tests record into the registry while they
//! run) and every scenario lives in this one test function (parallel
//! test threads would interleave records otherwise).

use fedval_bench::run_sweep;
use fedval_bench::sweep::span_sampled;
use fedval_obs::{Record, RecordingSink};
use std::sync::Arc;

/// The `p=…` payloads of the `t.sweep.done` event records, in stream order.
fn done_payloads(records: &[Record]) -> Vec<String> {
    records
        .iter()
        .filter_map(|r| match r {
            Record::Event { name, fields } if name == "t.sweep.done" => {
                Some(fields.iter().map(|(k, v)| format!("{k}={v}")).collect())
            }
            _ => None,
        })
        .collect()
}

#[test]
fn record_stream_is_thread_count_invariant() {
    let traced = |threads: usize| {
        let sink = RecordingSink::new();
        fedval_obs::install(Arc::new(sink.clone()));
        let points: Vec<u64> = (0..16).collect();
        let out = run_sweep(
            &points,
            |&p| {
                let _span = fedval_obs::span("t.sweep.point");
                fedval_obs::counter_add("t.sweep.evals", 1);
                fedval_obs::event("t.sweep.done", || vec![("p".into(), p.to_string())]);
                p + 1
            },
            threads,
        );
        let fold = fedval_obs::metrics_fold();
        fedval_obs::shutdown();
        (out, sink.records(), fold)
    };

    let sampled_points: Vec<usize> = (0..16).filter(|&i| span_sampled(i)).collect();
    assert!(
        !sampled_points.is_empty() && sampled_points.len() < 16,
        "the 16-point sample set must be a strict, nonempty subset: {sampled_points:?}"
    );

    let (seq_out, seq_records, seq_fold) = traced(1);
    // Shard-accumulated metrics count every point exactly once, span
    // sampling notwithstanding.
    assert_eq!(seq_fold.counter("t.sweep.evals"), 16);
    assert_eq!(seq_fold.counter("bench.sweep.points"), 16);
    assert_eq!(seq_fold.span_count("t.sweep.point"), 16);
    assert_eq!(seq_fold.span_count("bench.sweep"), 1);
    assert_eq!(
        seq_fold.histogram("bench.sweep.point_ns").map(|h| h.count),
        Some(16)
    );
    assert_eq!(seq_fold.events.get("t.sweep.done"), Some(&16));
    // Events replay in input order, not completion order.
    let payloads: Vec<String> = (0..16).map(|p| format!("p={p}")).collect();
    assert_eq!(done_payloads(&seq_records), payloads);
    // Only the sampled points contributed span-trace records; the
    // shutdown dump emits each counter exactly once.
    let point_span_ends = seq_records
        .iter()
        .filter(|r| matches!(r, Record::SpanEnd { name, .. } if name == "t.sweep.point"))
        .count();
    assert_eq!(point_span_ends, sampled_points.len());
    let eval_counter_emissions = seq_records
        .iter()
        .filter(|r| matches!(r, Record::Counter { name, .. } if name == "t.sweep.evals"))
        .count();
    assert_eq!(eval_counter_emissions, 1, "one dump emission per counter");

    // Timing-free shape of the record stream: kind + name, in order.
    let shape = |records: &[Record]| -> Vec<String> {
        records
            .iter()
            .map(|r| {
                let kind = match r {
                    Record::SpanStart { .. } => "start",
                    Record::SpanEnd { .. } => "end",
                    Record::Counter { .. } => "counter",
                    Record::Gauge { .. } => "gauge",
                    Record::Event { .. } => "event",
                };
                format!("{kind}:{}", r.name())
            })
            .collect()
    };
    let seq_shape = shape(&seq_records);

    for threads in [2, 4, 8] {
        let (out, records, fold) = traced(threads);
        assert_eq!(out, seq_out, "threads={threads}");
        assert_eq!(
            shape(&records),
            seq_shape,
            "sampled record stream must be schedule-independent at threads={threads}"
        );
        assert_eq!(done_payloads(&records), payloads, "threads={threads}");
        assert_eq!(
            fold.to_json(),
            seq_fold.to_json(),
            "timing-free fold must be identical at threads={threads}"
        );
    }
}
