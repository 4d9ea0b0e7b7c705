//! Loopback integration for the live-telemetry surfaces: the `metrics`
//! query (Prometheus-style exposition + ring buffer) and slow-request
//! exemplar tracing, checked end to end against a real server with a
//! recording trace sink.
//!
//! Runs as its own test binary so the process-global registry and sink
//! belong to this test alone.

use fedval_obs::{Record, RecordingSink};
use fedval_serve::state::ScenarioSpec;
use fedval_serve::{Client, ServeState, Server, ServerConfig};
use std::sync::Arc;
use std::time::Duration;

/// Pulls the JSON-escaped exposition text out of a metrics response and
/// un-escapes the newlines.
#[expect(
    clippy::expect_used,
    reason = "test helper: a metrics response without an exposition fails the calling test"
)]
fn exposition_of(metrics_line: &str) -> String {
    metrics_line
        .split("\"exposition\":\"")
        .nth(1)
        .and_then(|rest| rest.split("\",\"ring\":").next())
        .expect("metrics payload carries an exposition")
        .replace("\\n", "\n")
}

#[test]
fn metrics_query_and_exemplar_trace_agree_on_the_trace_id() {
    let sink = RecordingSink::new();
    fedval_obs::install(Arc::new(sink.clone()));

    let state = ServeState::new(ScenarioSpec::paper_4_1(), 8);
    state.warm(1);
    let server = Server::start(
        state,
        "127.0.0.1:0",
        ServerConfig {
            threads: 2,
            slow_trace: Duration::ZERO, // every compute request is an exemplar
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");

    let mut client = Client::connect(server.local_addr(), Duration::from_secs(10)).unwrap();

    // A slow (threshold zero) compute request must carry its trace id
    // in the response…
    let shapley = client.ask("{\"id\":1,\"kind\":\"shapley\"}").unwrap();
    assert!(shapley.contains("\"ok\":true"), "{shapley}");
    let trace_id: u64 = shapley
        .split(",\"trace_id\":")
        .nth(1)
        .and_then(|rest| rest.trim_end_matches('}').parse().ok())
        .expect("slow response must carry a numeric trace_id");

    // …and the metrics query must return a well-formed exposition plus
    // the ring buffer.
    let metrics = client.ask("{\"id\":2,\"kind\":\"metrics\"}").unwrap();
    assert!(
        metrics.starts_with("{\"id\":2,\"ok\":true,\"kind\":\"metrics\",\"uptime_s\":"),
        "{metrics}"
    );
    assert!(metrics.contains("\"ring\":["), "{metrics}");
    let exposition = exposition_of(&metrics);
    let mut req_ok = None;
    for line in exposition.lines() {
        if line.is_empty() || line.starts_with("# ") {
            continue;
        }
        let (name, value) = line
            .split_once(' ')
            .unwrap_or_else(|| panic!("sample line must be 'name value': {line:?}"));
        let bare = name.split('{').next().unwrap_or(name);
        assert!(
            bare.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "metric names must be sanitized: {line:?}"
        );
        assert!(
            value.parse::<f64>().is_ok(),
            "sample value must be numeric: {line:?}"
        );
        if name == "serve_req_ok" {
            req_ok = value.parse::<u64>().ok();
        }
    }
    assert!(
        req_ok.is_some_and(|v| v > 0),
        "exposition must report a nonzero serve_req_ok:\n{exposition}"
    );

    server.shutdown();
    fedval_obs::shutdown();

    // The trace sink saw the exemplar event for that same trace id…
    let records = sink.records();
    let exemplar_ids: Vec<String> = records
        .iter()
        .filter_map(|r| match r {
            Record::Event { name, fields } if name == "serve.trace.exemplar" => fields
                .iter()
                .find(|(k, _)| k == "trace_id")
                .map(|(_, v)| v.clone()),
            _ => None,
        })
        .collect();
    assert!(
        exemplar_ids.contains(&trace_id.to_string()),
        "exemplar events {exemplar_ids:?} must include response trace id {trace_id}"
    );
    // …and the replayed request span carries it in its detail.
    assert!(
        records.iter().any(|r| matches!(
            r,
            Record::SpanStart { name, detail: Some(d), .. }
                if name == "serve.request" && d.contains(&format!("trace_id={trace_id}"))
        )),
        "replayed serve.request span must carry trace_id={trace_id}"
    );
}
