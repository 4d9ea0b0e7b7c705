//! End-to-end tests of the `fedval` CLI binary (spawned as a real
//! process via the path Cargo exports to integration tests).

use std::process::Command;

#[expect(
    clippy::expect_used,
    reason = "test helper: a binary that cannot be spawned fails the calling test"
)]
fn fedval(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_fedval"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn shares_defaults_print_the_worked_example() {
    let (stdout, _, ok) = fedval(&["shares"]);
    assert!(ok);
    assert!(stdout.contains("V(N) = 1300.00"), "{stdout}");
    assert!(stdout.contains("0.1538"), "phi_hat_2 = 2/13: {stdout}");
}

#[test]
fn values_lists_every_coalition() {
    let (stdout, _, ok) = fedval(&["values", "--locations", "10,20", "--threshold", "15"]);
    assert!(ok);
    assert!(stdout.contains("{1}"));
    assert!(stdout.contains("{1,2}"));
    // V({2}) = 20 (20 > 15), V({1,2}) = 30.
    assert!(stdout.contains("20.00"));
    assert!(stdout.contains("30.00"));
}

#[test]
fn report_includes_all_schemes_and_recommendation() {
    let (stdout, _, ok) = fedval(&[
        "report",
        "--capacities",
        "80,60,20",
        "--threshold",
        "250",
        "--volume",
        "40",
    ]);
    assert!(ok);
    for scheme in [
        "shapley",
        "proportional",
        "consumption",
        "nucleolus",
        "equal",
    ] {
        assert!(stdout.contains(scheme), "missing {scheme}: {stdout}");
    }
    assert!(stdout.contains("recommended:"));
}

#[test]
fn bad_input_fails_with_usage() {
    let (_, stderr, ok) = fedval(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage:"), "{stderr}");

    let (_, stderr, ok) = fedval(&["shares", "--locations", "nope"]);
    assert!(!ok);
    assert!(stderr.contains("--locations"));
}

#[test]
fn hostile_numbers_are_usage_errors() {
    for (args, flag) in [
        (&["shares", "--threshold", "nan"][..], "--threshold"),
        (&["shares", "--threshold", "-5"], "--threshold"),
        (&["report", "--threshold", "inf"], "--threshold"),
        (&["shares", "--shape", "-1"], "--shape"),
        (&["values", "--capacities", "0,1,1"], "--capacities"),
        (&["values", "--locations", "10,65537"], "--locations"),
        (
            &["report", "--capacities", "18446744073709551615,1,1"],
            "--capacities",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_fedval"))
            .args(args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn nucleolus_scheme_via_cli() {
    let (stdout, _, ok) = fedval(&["shares", "--scheme", "nucleolus"]);
    assert!(ok);
    assert!(stdout.contains("nucleolus"));
    // Payoffs must sum to V(N) = 1300 — sum the payoff column of the
    // facility rows (lines whose first token is the facility index).
    let total: f64 = stdout
        .lines()
        .filter(|l| {
            l.split_whitespace()
                .next()
                .is_some_and(|t| t.parse::<u32>().is_ok())
        })
        .filter_map(|l| l.split_whitespace().last())
        .filter_map(|v| v.parse::<f64>().ok())
        .sum();
    assert!(
        (total - 1300.0).abs() < 1.0,
        "payoff column sums to {total}"
    );
}

#[test]
fn trace_flag_writes_valid_jsonl_with_pipeline_spans() {
    let path = std::env::temp_dir().join("fedval_cli_trace_test.jsonl");
    let path_arg = path.to_str().expect("temp path is utf-8");
    let (stdout, _, ok) = fedval(&["report", "--trace", path_arg]);
    assert!(ok);
    assert!(stdout.contains("recommended:"), "{stdout}");
    let text = std::fs::read_to_string(&path).expect("trace file written");
    assert!(!text.is_empty());
    for line in text.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "not a JSON object line: {line}"
        );
        assert!(line.contains("\"type\":"), "untyped record: {line}");
    }
    // The §4.1 pipeline is visible: scenario build (one table fill that
    // evaluates all 8 coalitions of 3 players), Shapley aggregation,
    // report build.
    for span in [
        "core.scenario.table_build",
        "coalition.shapley.exact",
        "policy.report.build",
        "fedval.cli.command",
    ] {
        assert!(text.contains(span), "trace is missing {span}");
    }
    let evals: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"name\":\"coalition.game.evals\""))
        .collect();
    assert_eq!(
        evals,
        ["{\"type\":\"counter\",\"name\":\"coalition.game.evals\",\"delta\":8}"],
        "one fill of the 8 coalitions of 3 players"
    );
    let _ = std::fs::remove_file(&path);
}

/// The span names of a `fedval report --trace` run, one entry per span
/// started, sorted (a multiset).
#[expect(
    clippy::expect_used,
    reason = "test helper: a missing or malformed trace file fails the calling test"
)]
fn report_span_names(threads: &str) -> Vec<String> {
    let path = std::env::temp_dir().join(format!("fedval_cli_span_names_t{threads}.jsonl"));
    let path_arg = path.to_str().expect("temp path is utf-8");
    let (_, stderr, ok) = fedval(&["report", "--threads", threads, "--trace", path_arg]);
    assert!(ok, "{stderr}");
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let _ = std::fs::remove_file(&path);
    let mut names: Vec<String> = text
        .lines()
        .filter(|l| l.contains("\"type\":\"span_start\""))
        .map(|l| {
            let rest = &l[l.find("\"name\":\"").expect("span has a name") + 8..];
            rest[..rest.find('"').expect("name is a closed string")].to_string()
        })
        .collect();
    names.sort();
    names
}

#[test]
fn trace_span_names_do_not_depend_on_threads() {
    let one = report_span_names("1");
    assert!(
        one.iter().any(|n| n == "coalition.shapley.exact"),
        "{one:?}"
    );
    assert_eq!(one, report_span_names("4"));
}

#[test]
fn metrics_flag_appends_run_report() {
    let (stdout, _, ok) = fedval(&["shares", "--metrics", "--scheme", "nucleolus"]);
    assert!(ok);
    // Command output first, then the run report.
    assert!(stdout.contains("V(N) = 1300.00"), "{stdout}");
    assert!(stdout.contains("== run report =="), "{stdout}");
    assert!(stdout.contains("-- spans (wall time) --"), "{stdout}");
    assert!(stdout.contains("simplex.solver.pivots"), "{stdout}");
    assert!(stdout.contains("coalition.nucleolus.lp_solves"), "{stdout}");
    let report_at = stdout.find("== run report ==").unwrap();
    let shares_at = stdout.find("V(N)").unwrap();
    assert!(
        shares_at < report_at,
        "report must follow the command output"
    );
}

/// The `name  value` lines of a run report's counters section.
fn report_counters(stdout: &str) -> Vec<&str> {
    stdout
        .lines()
        .skip_while(|l| *l != "-- counters --")
        .skip(1)
        .take_while(|l| !l.starts_with("-- "))
        .collect()
}

#[test]
fn trace_and_metrics_together_write_trace_and_report() {
    let path = std::env::temp_dir().join("fedval_cli_trace_metrics_test.jsonl");
    let path_arg = path.to_str().expect("temp path is utf-8");
    let (stdout, stderr, ok) = fedval(&["report", "--trace", path_arg, "--metrics"]);
    assert!(ok, "{stderr}");
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let _ = std::fs::remove_file(&path);
    for kind in ["span_start", "span_end"] {
        let tag = format!("\"type\":\"{kind}\"");
        assert!(text.lines().any(|l| l.contains(&tag)), "no {kind}: {text}");
    }
    let evals: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"type\":\"counter\",\"name\":\"coalition.game.evals\""))
        .collect();
    assert_eq!(evals.len(), 1, "{text}");
    // The command output, then the run report, which ends stdout and
    // lists the counters `--metrics` alone lists.
    let report_at = stdout.find("== run report ==").expect("run report printed");
    assert!(stdout[..report_at].contains("recommended:"), "{stdout}");
    assert!(!stdout[report_at..].contains("recommended:"), "{stdout}");
    let (alone, stderr, ok) = fedval(&["report", "--metrics"]);
    assert!(ok, "{stderr}");
    let counters = report_counters(&stdout[report_at..]);
    assert!(
        counters.contains(&"coalition.game.evals           8"),
        "{stdout}"
    );
    assert_eq!(counters, report_counters(&alone));
}

#[test]
fn exact_report_runs_at_the_nucleolus_cap() {
    // n = 12 is NUCLEOLUS_MAX_PLAYERS; the nucleolus needs at most n − 1
    // stage LPs.
    let (stdout, stderr, ok) = fedval(&["report", "--synthetic", "12", "--metrics"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("nucleolus "), "{stdout}");
    let lp_solves: u64 = stdout
        .lines()
        .find_map(|l| l.strip_prefix("coalition.nucleolus.lp_solves"))
        .and_then(|rest| rest.trim().parse().ok())
        .expect("lp_solves counter in the run report");
    assert!((1..=11).contains(&lp_solves), "{lp_solves} stage LPs");
}

#[test]
fn non_finite_coalition_values_fail_the_report_cleanly() {
    // d = 400 overflows every coalition value to inf. Each command exits 1
    // naming what it refused, prints no inf or NaN, and does not panic:
    // the table fill names coalition {0}; the sampled estimator and the
    // enumeration-free schemes name V(N).
    let overflow = ["--shape", "400", "--locations", "10,20", "--threshold", "1"];
    let table = "coalition {0} (player ids from 0) has the non-finite value inf";
    let sampled = "approx_shapley: V(N) has the non-finite value inf";
    let wide = "V(N) has the non-finite value inf";
    for (command, needle) in [
        (&["report"][..], table),
        (&["values"], table),
        (&["shares"], table),
        (&["shares", "--scheme", "nucleolus"], table),
        (&["shares", "--scheme", "proportional"], table),
        (&["shares", "--approx", "--scheme", "nucleolus"], table),
        (&["shares", "--approx"], sampled),
        (&["report", "--approx"], sampled),
        (&["shares", "--approx", "--scheme", "proportional"], wide),
        (&["shares", "--synthetic", "20", "--shape", "400"], sampled),
        (&["report", "--synthetic", "20", "--shape", "400"], sampled),
        (
            &[
                "shares",
                "--synthetic",
                "20",
                "--shape",
                "400",
                "--scheme",
                "equal",
            ],
            wide,
        ),
    ] {
        let args: &[&str] = if command.contains(&"--synthetic") {
            &[]
        } else {
            &overflow
        };
        let out = Command::new(env!("CARGO_BIN_EXE_fedval"))
            .args(command)
            .args(args)
            .output()
            .expect("binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command:?}: {stdout}{stderr}");
        assert!(stderr.contains(needle), "{command:?}: {stderr}");
        assert!(
            !stdout.contains("inf") && !stdout.contains("NaN"),
            "{command:?}: {stdout}"
        );
    }
}

#[test]
fn one_walk_fills_the_sixteen_player_table() {
    // 2^16 coalitions, each evaluated once by the scenario's one fill:
    // no per-coalition span, and exact Shapley reads the table instead
    // of filling a second one.
    let (stdout, stderr, ok) =
        fedval(&["shares", "--synthetic", "16", "--threads", "2", "--metrics"]);
    assert!(ok, "{stderr}");
    let counter = |name: &str| -> Option<u64> {
        stdout.lines().find_map(|l| {
            let mut words = l.split_whitespace();
            (words.next() == Some(name)).then(|| words.next()?.parse().ok())?
        })
    };
    assert_eq!(counter("coalition.game.evals"), Some(65_536), "{stdout}");
    assert!(!stdout.contains("coalition.game.eval "), "{stdout}");
    let builds = stdout
        .lines()
        .find(|l| l.starts_with("core.scenario.table_build"))
        .expect("table_build span in the run report");
    assert!(builds.contains("count=1 "), "{builds}");
}

#[test]
fn trace_to_unwritable_path_fails_cleanly() {
    let (_, stderr, ok) = fedval(&["report", "--trace", "/nonexistent-dir/out.jsonl"]);
    assert!(!ok);
    assert!(stderr.contains("--trace"), "{stderr}");
}

#[test]
fn untraced_runs_print_no_report() {
    let (stdout, _, ok) = fedval(&["shares"]);
    assert!(ok);
    assert!(!stdout.contains("== run report =="));
}

#[test]
fn closed_stdout_ends_the_run_quietly() {
    // The read end is gone before the spawn, so the first write fails
    // with a broken pipe, as under `fedval shares --synthetic 200 | head -1`.
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_fedval"))
        .args(["shares", "--synthetic", "200"])
        .stdout(writer)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}
