//! Golden-file test for the run-report format.
//!
//! `MetricsFold::render` is user-facing (`fedval --metrics`) and parsed
//! by eyeballs and scripts alike, so its shape is pinned byte-for-byte
//! against a committed golden file rendered from a fixed fold (synthetic
//! span timings, no clock). To regenerate after an intentional format
//! change:
//!
//! ```sh
//! cargo test -q -p fedval-obs --test golden_report -- --ignored regenerate
//! ```
//!
//! then inspect the diff of `tests/golden/run_report.txt`.

use fedval_obs::{Histogram, MetricsFold, SpanStat};
use std::path::PathBuf;

/// A fold with fixed timings: every section of the report is exercised.
fn fixture_fold() -> MetricsFold {
    let mut fold = MetricsFold::default();
    fold.spans.insert(
        "fedval.phase.scenario".into(),
        SpanStat {
            count: 1,
            total_ns: 1_500_000,
            max_ns: 1_500_000,
        },
    );
    // Two spans of 250 µs and 350 µs.
    fold.spans.insert(
        "coalition.game.eval".into(),
        SpanStat {
            count: 2,
            total_ns: 600_000,
            max_ns: 350_000,
        },
    );
    for (name, value) in [
        ("simplex.solver.pivots", 42),
        ("simplex.solver.solves", 9),
        ("form.value.hit", 12),
        ("form.value.miss", 4),
    ] {
        fold.counters.insert(name.into(), value);
    }
    fold.gauges
        .insert("testbed.simulate.utilization".into(), 0.8125);
    let mut solve = Histogram::new();
    for value_ns in [8_000, 95_000, 110_000] {
        solve.observe(value_ns);
    }
    fold.histograms
        .insert("simplex.solver.solve_ns".into(), solve);
    fold.events.insert("testbed.faults.apply".into(), 2);
    fold
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("run_report.txt")
}

#[test]
fn run_report_render_matches_golden() {
    let rendered = fixture_fold().render();
    let golden = std::fs::read_to_string(golden_path())
        .expect("golden file missing; run the ignored `regenerate` test");
    assert_eq!(
        rendered, golden,
        "run-report format drifted from tests/golden/run_report.txt; \
         if intentional, regenerate via the ignored `regenerate` test"
    );
}

#[test]
fn json_dump_of_fixture_is_timing_free() {
    // The same fold through the timing-free rendering: counts only, no
    // durations or latencies.
    assert_eq!(
        fixture_fold().to_json(),
        "{\"counters\":{\"form.value.hit\":12,\"form.value.miss\":4,\
         \"simplex.solver.pivots\":42,\"simplex.solver.solves\":9},\
         \"gauges\":{\"testbed.simulate.utilization\":0.8125},\
         \"spans\":{\"coalition.game.eval\":2,\"fedval.phase.scenario\":1},\
         \"observations\":{\"simplex.solver.solve_ns\":3},\
         \"events\":{\"testbed.faults.apply\":2}}"
    );
}

#[test]
#[ignore = "writes the golden file; run explicitly after intentional format changes"]
fn regenerate() {
    std::fs::write(golden_path(), fixture_fold().render()).expect("write golden");
}
