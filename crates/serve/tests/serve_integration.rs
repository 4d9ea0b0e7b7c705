//! End-to-end tests over a real loopback server: determinism across
//! connections, `BUSY` backpressure under saturation, and the
//! never-drop-without-a-response guarantee.

use fedval_serve::{ScenarioSpec, ServeState, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

#[expect(
    clippy::expect_used,
    reason = "test helper: a failed connect, send or receive fails the calling test"
)]
fn connect(server: &Server) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (reader, stream)
}

#[expect(
    clippy::expect_used,
    reason = "test helper: a failed connect, send or receive fails the calling test"
)]
fn ask(reader: &mut BufReader<TcpStream>, stream: &mut TcpStream, line: &str) -> String {
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("send");
    let mut response = String::new();
    reader.read_line(&mut response).expect("recv");
    response.trim_end().to_string()
}

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
    let (mut r1, mut s1) = connect(&server);
    let first: Vec<String> = queries.iter().map(|q| ask(&mut r1, &mut s1, q)).collect();
    let repeat: Vec<String> = queries.iter().map(|q| ask(&mut r1, &mut s1, q)).collect();
    assert_eq!(first, repeat, "same connection, same bytes");

    let (mut r2, mut s2) = connect(&server);
    let other: Vec<String> = queries.iter().map(|q| ask(&mut r2, &mut s2, q)).collect();
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
    let (mut reader, mut stream) = connect(&server);

    // One pipelined burst of six distinct (uncached) what-ifs.
    let total = 6usize;
    let mut burst = String::new();
    for i in 0..total {
        burst.push_str(&format!(
            "{{\"id\":{i},\"kind\":\"what-if-join\",\"locations\":{},\"capacity\":1}}\n",
            20 + i
        ));
    }
    stream.write_all(burst.as_bytes()).expect("send burst");

    let mut ok = 0u64;
    let mut busy = 0u64;
    for _ in 0..total {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("recv");
        assert_ne!(n, 0, "connection dropped before every request was answered");
        if line.contains("\"ok\":true") {
            ok += 1;
        } else if line.contains("\"error\":\"BUSY\"") {
            busy += 1;
        } else {
            panic!("unexpected response under saturation: {}", line.trim_end());
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
    let (mut reader, mut stream) = connect(&server);

    let bye = ask(&mut reader, &mut stream, "{\"id\":1,\"kind\":\"shutdown\"}");
    assert!(bye.contains("\"draining\":true"), "{bye}");

    // A fresh connection during/after drain is either refused outright
    // or answered with SHUTTING_DOWN — never silently hung.
    if let Ok(late) = TcpStream::connect(server.local_addr()) {
        late.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut w = late.try_clone().expect("clone");
        let _ = w.write_all(b"{\"id\":2,\"kind\":\"shapley\"}\n");
        let mut r = BufReader::new(late);
        let mut line = String::new();
        // EOF (0 bytes) and SHUTTING_DOWN are both clean refusals.
        if r.read_line(&mut line).unwrap_or(0) > 0 {
            assert!(line.contains("SHUTTING_DOWN"), "{line}");
        }
    }

    let report = server.wait();
    assert_eq!(report.abandoned, 0);
}
