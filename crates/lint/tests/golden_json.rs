//! Golden-file test: the `--json` rendering of the fixture corpus must
//! match `tests/golden/sample.json` byte for byte.
//!
//! To regenerate after an intentional rule or format change:
//!
//! ```sh
//! cargo run -p fedval-lint -- \
//!     --root crates/lint/tests/fixtures/sample \
//!     --json > crates/lint/tests/golden/sample.json
//! ```

use fedval_lint::{lint_workspace, report};
use std::path::PathBuf;

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/sample")
}

#[test]
fn json_output_matches_golden_file() {
    let findings = lint_workspace(&fixture_root()).expect("fixture lints");
    let got = report::json(&findings);

    let golden_path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sample.json");
    let want = std::fs::read_to_string(&golden_path).expect("golden file readable");
    assert_eq!(
        got, want,
        "JSON output drifted from the golden file; if intentional, regenerate \
         it (see the module doc) and review the diff"
    );
}

#[test]
fn fixture_exercises_every_rule() {
    let findings = lint_workspace(&fixture_root()).expect("fixture lints");
    for rule in fedval_lint::rules::RULE_NAMES {
        assert!(
            findings.iter().any(|f| f.rule == rule),
            "fixture corpus produces no `{rule}` finding — the golden test \
             would not catch a regression in that rule"
        );
    }
}

#[test]
fn justified_marker_suppresses_and_hollow_marker_does_not() {
    let findings = lint_workspace(&fixture_root()).expect("fixture lints");
    let float_lines: Vec<u32> = findings
        .iter()
        .filter(|f| f.rule == "float-eq")
        .map(|f| f.line)
        .collect();
    // Line 16 sits under a justified marker; line 21 under a hollow one.
    assert_eq!(float_lines, vec![6, 11, 21]);
}
