//! End-to-end tests over a real loopback server: determinism across
//! connections, `BUSY` backpressure under saturation, and the
//! never-drop-without-a-response guarantee.

use fedval_serve::{Client, ScenarioSpec, ServeState, Server, ServerConfig};
use std::io::Write;
use std::time::Duration;

/// Read and write deadline of the test clients: long enough for the
/// saturation test's uncached 12-player what-ifs.
const TIMEOUT: Duration = Duration::from_secs(60);

#[test]
fn responses_are_byte_identical_across_connections() {
    let state = ServeState::new(ScenarioSpec::paper_4_1(), 8);
    state.warm(1);
    let server =
        Server::start(state, "127.0.0.1:0", ServerConfig::default()).expect("start server");

    let queries = [
        "{\"id\":7,\"kind\":\"shapley\"}",
        "{\"id\":7,\"kind\":\"nucleolus\"}",
        "{\"id\":7,\"kind\":\"coalition-value\",\"coalition\":[0,2]}",
        "{\"id\":7,\"kind\":\"what-if-join\",\"locations\":250,\"capacity\":1}",
        "{\"id\":7,\"kind\":\"what-if-leave\",\"player\":2}",
    ];
    // Same id on purpose: with the id pinned, the whole response line
    // must be byte-identical, across repeats and across connections.
    let mut c1 = Client::connect(server.local_addr(), TIMEOUT).unwrap();
    let first: Vec<String> = queries.iter().map(|q| c1.ask(q).unwrap()).collect();
    let repeat: Vec<String> = queries.iter().map(|q| c1.ask(q).unwrap()).collect();
    assert_eq!(first, repeat, "same connection, same bytes");

    let mut c2 = Client::connect(server.local_addr(), TIMEOUT).unwrap();
    let other: Vec<String> = queries.iter().map(|q| c2.ask(q).unwrap()).collect();
    assert_eq!(first, other, "different connection, same bytes");

    for line in &first {
        assert!(line.contains("\"ok\":true"), "unexpected error: {line}");
    }

    let report = server.shutdown();
    assert_eq!(report.protocol_errors, 0);
    assert_eq!(report.abandoned, 0);
}

#[test]
fn saturation_yields_busy_and_every_request_gets_a_response() {
    // A deliberately slow scenario (11 players → each distinct what-if
    // join solves a 2^12-entry table) with the tightest possible
    // server: one worker, queue depth one. Flooding pipelined cache
    // misses must overflow the queue.
    let spec = ScenarioSpec {
        locations: vec![10; 11],
        capacities: vec![1; 11],
        threshold: 5.0,
        shape: 1.0,
        volume: Some(1),
    };
    let state = ServeState::new(spec, 16);
    let config = ServerConfig {
        threads: 1,
        queue_depth: 1,
        deadline: Duration::from_secs(120),
        ..ServerConfig::default()
    };
    let server = Server::start(state, "127.0.0.1:0", config).expect("start server");
    let mut client = Client::connect(server.local_addr(), TIMEOUT).unwrap();

    // One pipelined burst of six distinct (uncached) what-ifs.
    let total = 6usize;
    let mut burst = String::new();
    for i in 0..total {
        burst.push_str(&format!(
            "{{\"id\":{i},\"kind\":\"what-if-join\",\"locations\":{},\"capacity\":1}}\n",
            20 + i
        ));
    }
    client
        .socket()
        .write_all(burst.as_bytes())
        .expect("send burst");

    let mut ok = 0u64;
    let mut busy = 0u64;
    for _ in 0..total {
        // An error here is a connection dropped before every request
        // was answered.
        let line = client.recv().unwrap();
        if line.contains("\"ok\":true") {
            ok += 1;
        } else if line.contains("\"error\":\"BUSY\"") {
            busy += 1;
        } else {
            panic!("unexpected response under saturation: {line}");
        }
    }
    assert!(ok >= 1, "the in-flight request must complete");
    assert!(busy >= 1, "a full queue must refuse with BUSY, got {ok} ok");

    let report = server.shutdown();
    assert_eq!(report.busy, busy, "server-side BUSY tally must match");
    assert_eq!(
        report.abandoned, 0,
        "drain must leave no queued work behind"
    );
}

#[test]
fn drain_answers_inflight_then_refuses_new_work() {
    let state = ServeState::new(ScenarioSpec::paper_4_1(), 8);
    state.warm(1);
    let server =
        Server::start(state, "127.0.0.1:0", ServerConfig::default()).expect("start server");
    let mut client = Client::connect(server.local_addr(), TIMEOUT).unwrap();

    let bye = client.ask("{\"id\":1,\"kind\":\"shutdown\"}").unwrap();
    assert!(bye.contains("\"draining\":true"), "{bye}");

    // A fresh connection during/after drain is either refused outright
    // or answered with SHUTTING_DOWN — never silently hung.
    if let Ok(mut late) = Client::connect(server.local_addr(), Duration::from_secs(10)) {
        let _ = late.send("{\"id\":2,\"kind\":\"shapley\"}");
        // A failed send or read, a bare EOF and SHUTTING_DOWN are all
        // clean refusals; any other bytes, a cut line too, are not.
        if let Ok(tail) = late.recv_to_eof() {
            assert!(
                tail.is_empty() || tail.contains("SHUTTING_DOWN"),
                "{tail:?}"
            );
        }
    }

    let report = server.wait();
    assert_eq!(report.abandoned, 0);
}
