//! Golden-file test for the run-report format.
//!
//! `RunReport::render` is user-facing (`fedval --metrics`) and parsed by
//! eyeballs and scripts alike, so its shape is pinned byte-for-byte
//! against a committed golden file built from synthetic fixed-timestamp
//! records. To regenerate after an intentional format change:
//!
//! ```sh
//! cargo test -q -p fedval-obs --test golden_report -- --ignored regenerate
//! ```
//!
//! then inspect the diff of `tests/golden/run_report.txt`.

use fedval_obs::{MetricsSnapshot, Record, RunReport};
use std::path::PathBuf;

/// A synthetic record stream with fixed timestamps: every section of the
/// report is exercised.
fn fixture_records() -> Vec<Record> {
    vec![
        Record::SpanStart {
            id: 1,
            parent: None,
            name: "fedval.phase.scenario".into(),
            detail: Some("n=3".into()),
            t_ns: 0,
        },
        Record::SpanEnd {
            id: 1,
            name: "fedval.phase.scenario".into(),
            t_ns: 1_500_000,
            dur_ns: 1_500_000,
        },
        Record::SpanStart {
            id: 2,
            parent: None,
            name: "coalition.game.eval".into(),
            detail: Some("mask=7".into()),
            t_ns: 1_600_000,
        },
        Record::SpanEnd {
            id: 2,
            name: "coalition.game.eval".into(),
            t_ns: 1_850_000,
            dur_ns: 250_000,
        },
        Record::SpanStart {
            id: 3,
            parent: None,
            name: "coalition.game.eval".into(),
            detail: Some("mask=5".into()),
            t_ns: 1_900_000,
        },
        Record::SpanEnd {
            id: 3,
            name: "coalition.game.eval".into(),
            t_ns: 2_250_000,
            dur_ns: 350_000,
        },
        Record::Counter {
            name: "simplex.solver.pivots".into(),
            delta: 42,
        },
        Record::Counter {
            name: "simplex.solver.solves".into(),
            delta: 9,
        },
        Record::Counter {
            name: "form.value.hit".into(),
            delta: 12,
        },
        Record::Counter {
            name: "form.value.miss".into(),
            delta: 4,
        },
        Record::Gauge {
            name: "testbed.simulate.utilization".into(),
            value: 0.8125,
        },
        Record::Observe {
            name: "simplex.solver.solve_ns".into(),
            value_ns: 8_000,
        },
        Record::Observe {
            name: "simplex.solver.solve_ns".into(),
            value_ns: 95_000,
        },
        Record::Observe {
            name: "simplex.solver.solve_ns".into(),
            value_ns: 110_000,
        },
        Record::Event {
            name: "testbed.faults.apply".into(),
            fields: vec![("kind".into(), "node_crash".into()), ("site".into(), "1".into())],
        },
        Record::Event {
            name: "testbed.faults.apply".into(),
            fields: vec![("kind".into(), "site_outage".into()), ("site".into(), "2".into())],
        },
    ]
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("run_report.txt")
}

#[test]
fn run_report_render_matches_golden() {
    let rendered = RunReport::from_records(&fixture_records()).render();
    let golden = std::fs::read_to_string(golden_path())
        .expect("golden file missing; run the ignored `regenerate` test");
    assert_eq!(
        rendered, golden,
        "run-report format drifted from tests/golden/run_report.txt; \
         if intentional, regenerate via the ignored `regenerate` test"
    );
}

#[test]
fn snapshot_of_fixture_is_stable() {
    // The same fixture through the timing-free path: spot-check that the
    // snapshot agrees with the report on everything deterministic.
    let records = fixture_records();
    let snap = MetricsSnapshot::from_records(&records);
    let report = RunReport::from_records(&records);
    assert_eq!(snap.counter("simplex.solver.pivots"), report.counter("simplex.solver.pivots"));
    assert_eq!(snap.spans("coalition.game.eval"), 2);
    assert_eq!(
        snap.counter("form.value.hit"),
        report.counter("form.value.hit")
    );
}

#[test]
#[ignore = "writes the golden file; run explicitly after intentional format changes"]
fn regenerate() {
    let rendered = RunReport::from_records(&fixture_records()).render();
    std::fs::write(golden_path(), rendered).expect("write golden");
}
