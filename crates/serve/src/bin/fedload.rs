//! `fedload` — a seeded, deterministic load generator for
//! `fedval-serve`, with closed-loop and open-loop modes.
//!
//! **Closed loop** (default): `--connections` TCP connections each
//! drive `--requests` queries back-to-back — the next request is sent
//! only after the previous response arrives. Self-pacing: the offered
//! load collapses to whatever the server sustains, which measures
//! capacity but hides overload behavior.
//!
//! **Open loop** (`--open-loop --rate R`): requests are issued on a
//! seeded Poisson arrival process at `R` requests/second *regardless of
//! response progress*, the way independent federation operators
//! actually arrive. Latency is measured from the **scheduled** arrival
//! time, not the actual send, so queueing delay under saturation is
//! charged to the server (no coordinated omission). Running at ~1.2×
//! the closed-loop saturation rate is how BENCH_serve.json records tail
//! latency under overload.
//!
//! **Retry** (`--retry N`): retryable failures — `BUSY`, `DEADLINE`,
//! and transport errors (reset/EOF, which trigger a reconnect) — are
//! retried up to N times with capped exponential backoff plus seeded
//! jitter; protocol errors and mismatches stay fatal. This is the
//! client half of the serving stack's overload contract: the server
//! sheds with typed errors, the client backs off deterministically.
//! A connection over the server's cap is shed at accept with an
//! id-less `BUSY` line and closed; that counts as `busy` too, and the
//! next attempt or request reconnects.
//!
//! The query stream, arrival process, and retry jitter all derive from
//! one [`ChaosRng`] seed, so two runs with the same seed issue the same
//! requests at the same (relative) times. Every response is validated;
//! the first `shapley` body is memoized and every later one must be
//! **byte-identical** — the server's determinism contract, checked from
//! outside the process.
//!
//! ```text
//! fedload --addr 127.0.0.1:7411 --connections 4 --requests 5000 \
//!         --kind shapley --seed 42 --retry 3 --out BENCH_serve.json
//! fedload --addr 127.0.0.1:7411 --open-loop --rate 54000 --requests 20000
//! ```
#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::disallowed_methods,
    reason = "a command-line tool reports on stdout and stderr, and this load generator paces and times requests with Instant::now"
)]

use fedval_obs::Histogram;
use fedval_serve::chaos::ChaosRng;
use fedval_serve::client::{self, Client};
use std::collections::BTreeMap;
use std::net::Shutdown;
use std::process::ExitCode;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct Options {
    addr: String,
    connections: usize,
    requests: usize,
    kind: String,
    seed: u64,
    out: Option<String>,
    metrics: Option<String>,
    scrape: Option<String>,
    shutdown: bool,
    retry: u32,
    open_loop: bool,
    rate: f64,
}

fn usage() -> &'static str {
    "usage: fedload --addr HOST:PORT [options]\n\
     \n\
     options:\n\
       --addr HOST:PORT      server to drive (required)\n\
       --connections N       concurrent connections (default 2)\n\
       --requests N          requests per connection          (default 1000)\n\
       --kind K              shapley|nucleolus|coalition-value|what-if|mixed\n\
                             (default shapley)\n\
       --seed S              seed for queries/arrivals/jitter (default 42)\n\
       --retry N             retry BUSY/DEADLINE/transport failures up to N\n\
                             times with capped exponential backoff + seeded\n\
                             jitter (closed loop only; default 0 = fail fast)\n\
       --open-loop           Poisson arrivals instead of closed-loop pacing\n\
       --rate R              offered load in req/s across all connections\n\
                             (open loop; default 1000)\n\
       --out PATH            write the JSON report here (e.g. BENCH_serve.json)\n\
       --metrics PATH        dump the client's merged metric registry\n\
                             (timing-free JSON) at exit\n\
       --scrape PATH         after the run, issue one `metrics` query and\n\
                             write the raw response line here (CI scrapes it)\n\
       --shutdown            send a shutdown query when the run completes\n"
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        addr: String::new(),
        connections: 2,
        requests: 1000,
        kind: "shapley".to_string(),
        seed: 42,
        out: None,
        metrics: None,
        scrape: None,
        shutdown: false,
        retry: 0,
        open_loop: false,
        rate: 1000.0,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--shutdown" {
            opts.shutdown = true;
            continue;
        }
        if flag == "--open-loop" {
            opts.open_loop = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--addr" => opts.addr = value.clone(),
            "--connections" => {
                let n: usize = value.parse().map_err(|e| format!("--connections: {e}"))?;
                if n == 0 {
                    return Err("--connections must be at least 1".to_string());
                }
                opts.connections = n;
            }
            "--requests" => {
                opts.requests = value.parse().map_err(|e| format!("--requests: {e}"))?;
            }
            "--seed" => {
                opts.seed = value.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--retry" => {
                opts.retry = value.parse().map_err(|e| format!("--retry: {e}"))?;
            }
            "--rate" => {
                let r: f64 = value.parse().map_err(|e| format!("--rate: {e}"))?;
                if !r.is_finite() || r <= 0.0 {
                    return Err("--rate must be positive".to_string());
                }
                opts.rate = r;
            }
            "--kind" => {
                if !matches!(
                    value.as_str(),
                    "shapley" | "nucleolus" | "coalition-value" | "what-if" | "mixed"
                ) {
                    return Err(format!("--kind: unknown kind '{value}'\n\n{}", usage()));
                }
                opts.kind = value.clone();
            }
            "--out" => opts.out = Some(value.clone()),
            "--metrics" => opts.metrics = Some(value.clone()),
            "--scrape" => opts.scrape = Some(value.clone()),
            other => return Err(format!("unknown flag '{other}'\n\n{}", usage())),
        }
    }
    if opts.addr.is_empty() {
        return Err(usage().to_string());
    }
    if opts.open_loop && opts.retry > 0 {
        return Err("--retry is a closed-loop mode (open loop never re-offers load)".to_string());
    }
    Ok(opts)
}

/// Renders the `i`-th request line for this connection's stream.
fn request_line(kind: &str, id: u64, rng: &mut ChaosRng) -> String {
    let concrete = match kind {
        "mixed" => match rng.next_u64() % 4 {
            0 => "shapley",
            1 => "nucleolus",
            2 => "coalition-value",
            _ => "what-if",
        },
        k => k,
    };
    match concrete {
        "coalition-value" => {
            // Non-empty subsets of the 3-player worked example.
            let mask = 1 + (rng.next_u64() % 7);
            let members: Vec<String> = (0..3)
                .filter(|p| mask & (1 << p) != 0)
                .map(|p: u64| p.to_string())
                .collect();
            format!(
                "{{\"id\":{id},\"kind\":\"coalition-value\",\"coalition\":[{}]}}",
                members.join(",")
            )
        }
        "what-if" => {
            // A small rotating pool so the bounded LRU sees hits.
            if rng.next_u64().is_multiple_of(2) {
                let locations = 100 * (1 + rng.next_u64() % 8);
                format!(
                    "{{\"id\":{id},\"kind\":\"what-if-join\",\"locations\":{locations},\"capacity\":1}}"
                )
            } else {
                let player = rng.next_u64() % 3;
                format!("{{\"id\":{id},\"kind\":\"what-if-leave\",\"player\":{player}}}")
            }
        }
        other => format!("{{\"id\":{id},\"kind\":\"{other}\"}}"),
    }
}

/// Capped exponential backoff with seeded jitter: attempt 1 waits
/// ~4-8ms, doubling to a 200ms ceiling, with the upper half drawn from
/// the run's RNG so synchronized clients desynchronize deterministically.
fn backoff(attempt: u32, rng: &mut ChaosRng) -> Duration {
    let ceiling: u64 = 200;
    let base = 4u64
        .saturating_mul(1 << attempt.min(16).saturating_sub(1))
        .min(ceiling);
    Duration::from_millis(base / 2 + rng.below(base / 2 + 1))
}

/// Tally from one connection's loop.
#[derive(Debug, Default)]
struct ConnReport {
    ok: u64,
    busy: u64,
    deadline: u64,
    protocol_errors: u64,
    mismatches: u64,
    retries: u64,
    recovered: u64,
    exhausted: u64,
    lost: u64,
    histogram: Histogram,
}

/// Strips the `{"id":N,` prefix and any `,"trace_id":N` exemplar tag
/// so determinism is compared on the response *body* (ids differ
/// across connections by construction; trace ids are intentionally
/// per-request metadata the server appends to slow responses).
fn body_of(line: &str) -> &str {
    let body = match line.find(",\"ok\":") {
        Some(pos) => &line[pos..],
        None => line,
    };
    match body.find(",\"trace_id\":") {
        Some(pos) => &body[..pos],
        None => body.strip_suffix('}').unwrap_or(body),
    }
}

/// What one response line means to the load loop.
enum Outcome {
    Ok,
    Busy,
    Deadline,
    Fatal,
}

fn classify(line: &str) -> Outcome {
    if line.contains("\"ok\":true") {
        Outcome::Ok
    } else if line.contains("\"error\":\"BUSY\"") {
        Outcome::Busy
    } else if line.contains("\"error\":\"DEADLINE\"") {
        Outcome::Deadline
    } else {
        // Any other failure (protocol error, SOLVE_FAILED, …) is a
        // correctness problem for this deterministic workload.
        Outcome::Fatal
    }
}

/// Whether `line` is the acceptor's shed: an id-less `BUSY` written to
/// a connection over the server's cap, which the server then closes
/// without reading a request.
fn shed_at_accept(line: &str) -> bool {
    line.starts_with("{\"ok\":false,\"error\":\"BUSY\"")
}

/// Read and write deadline of every fedload socket.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Checks a successful shapley body against the run-wide canonical
/// bytes, establishing them on first sight.
fn check_canonical(
    request: &str,
    line: &str,
    canonical_shapley: &Arc<OnceLock<String>>,
    report: &mut ConnReport,
) {
    if request.contains("\"kind\":\"shapley\"") || line.contains("\"kind\":\"shapley\"") {
        let body = body_of(line).to_string();
        let canonical = canonical_shapley.get_or_init(|| body.clone());
        if *canonical != body {
            report.mismatches += 1;
        }
    }
}

/// Drives one closed-loop connection, tallying into `report` as it
/// goes, so a connection that fails keeps what it counted.
fn drive_connection(
    opts: &Options,
    conn_index: usize,
    canonical_shapley: &Arc<OnceLock<String>>,
    report: &mut ConnReport,
) -> Result<(), String> {
    // `None` after a reset or a shed: the next attempt reconnects.
    let mut client = Some(Client::connect(&opts.addr, CLIENT_TIMEOUT)?);
    let mut rng = ChaosRng::new(
        opts.seed
            .wrapping_add(conn_index as u64)
            .wrapping_mul(0x9E37_79B9),
    );
    for i in 0..opts.requests {
        let id = (conn_index * opts.requests + i) as u64;
        let request = request_line(&opts.kind, id, &mut rng);
        let started = Instant::now();
        let mut attempt: u32 = 0;
        loop {
            let live = match client.as_mut() {
                Some(live) => live,
                None => client.insert(Client::connect(&opts.addr, CLIENT_TIMEOUT)?),
            };
            let line = match live.ask(&request) {
                Ok(line) => line,
                Err(transport) => {
                    // Reset/EOF: retryable via a fresh connection.
                    if attempt >= opts.retry {
                        return Err(transport);
                    }
                    attempt += 1;
                    report.retries += 1;
                    std::thread::sleep(backoff(attempt, &mut rng));
                    client = None;
                    continue;
                }
            };
            let expected_id = format!("{{\"id\":{id},");
            if shed_at_accept(&line) {
                client = None;
            } else if !line.starts_with(&expected_id) {
                report.mismatches += 1;
                break;
            }
            match classify(&line) {
                Outcome::Ok => {
                    report.ok += 1;
                    if attempt > 0 {
                        report.recovered += 1;
                    }
                    check_canonical(&request, &line, canonical_shapley, report);
                    break;
                }
                Outcome::Busy | Outcome::Deadline => {
                    if attempt < opts.retry {
                        attempt += 1;
                        report.retries += 1;
                        std::thread::sleep(backoff(attempt, &mut rng));
                        continue;
                    }
                    if opts.retry > 0 {
                        report.exhausted += 1;
                    }
                    if matches!(classify(&line), Outcome::Busy) {
                        report.busy += 1;
                    } else {
                        report.deadline += 1;
                    }
                    break;
                }
                Outcome::Fatal => {
                    report.protocol_errors += 1;
                    break;
                }
            }
        }
        let elapsed_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        report.histogram.observe(elapsed_ns);
        // Also lands in this thread's metric shard for `--metrics`.
        fedval_obs::observe_ns("load.request_ns", elapsed_ns);
    }
    Ok(())
}

/// Extracts the numeric id from a `{"id":N,...` response line.
fn id_of(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"id\":")?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Drives one open-loop connection and leaves its tallies in `report`,
/// also when a send fails.
fn drive_open_loop(
    opts: &Options,
    conn_index: usize,
    canonical_shapley: &Arc<OnceLock<String>>,
    report: &mut ConnReport,
) -> Result<(), String> {
    let mut sender = Client::connect(&opts.addr, CLIENT_TIMEOUT)?;
    let mut receiver = sender.try_clone()?;
    let mut rng = ChaosRng::new(
        opts.seed
            .wrapping_add(conn_index as u64)
            .wrapping_mul(0x9E37_79B9),
    );
    // Scheduled (ideal) send instants by id, shared with the reader so
    // latency is charged from the arrival process, not the actual send.
    let pending: Arc<Mutex<BTreeMap<u64, Instant>>> = Arc::new(Mutex::new(BTreeMap::new()));

    let reader_pending = Arc::clone(&pending);
    let reader_canonical = Arc::clone(canonical_shapley);
    let collector = std::thread::spawn(move || {
        let mut report = ConnReport::default();
        while let Ok(line) = receiver.recv() {
            if shed_at_accept(&line) {
                // Refused before any request was read: every request
                // sent on this connection goes unanswered (`lost`).
                report.busy += 1;
                continue;
            }
            let scheduled = id_of(&line)
                .and_then(|id| reader_pending.lock().ok().and_then(|mut p| p.remove(&id)));
            let Some(scheduled) = scheduled else {
                report.mismatches += 1;
                continue;
            };
            let elapsed_ns = u64::try_from(scheduled.elapsed().as_nanos()).unwrap_or(u64::MAX);
            report.histogram.observe(elapsed_ns);
            fedval_obs::observe_ns("load.request_ns", elapsed_ns);
            match classify(&line) {
                Outcome::Ok => {
                    report.ok += 1;
                    check_canonical("", &line, &reader_canonical, &mut report);
                }
                Outcome::Busy => report.busy += 1,
                Outcome::Deadline => report.deadline += 1,
                Outcome::Fatal => report.protocol_errors += 1,
            }
        }
        report
    });

    let per_conn_rate = opts.rate / opts.connections as f64;
    let start = Instant::now();
    let mut offset = Duration::ZERO;
    let mut send_failure: Option<String> = None;
    for i in 0..opts.requests {
        // Exponential inter-arrival: -ln(1-u)/λ seconds.
        let u = rng.unit();
        offset += Duration::from_secs_f64((-(1.0 - u).ln()) / per_conn_rate);
        let scheduled = start + offset;
        let now = Instant::now();
        if scheduled > now {
            std::thread::sleep(scheduled - now);
        }
        let id = (conn_index * opts.requests + i) as u64;
        let request = request_line(&opts.kind, id, &mut rng);
        if let Ok(mut p) = pending.lock() {
            p.insert(id, scheduled);
        }
        if let Err(e) = sender.send(&request) {
            send_failure = Some(e);
            if let Ok(mut p) = pending.lock() {
                p.remove(&id);
            }
            break;
        }
    }
    // Drain: give the server a grace window to answer the tail, then
    // close the read half so the collector unblocks. A collector that
    // has already stopped (the server closed the connection) reads no
    // more answers, so whatever is still pending is lost at once.
    let drain_deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < drain_deadline && !collector.is_finished() {
        let outstanding = pending.lock().map(|p| p.len()).unwrap_or(0);
        if outstanding == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let _ = sender.socket().shutdown(Shutdown::Both);
    *report = collector.join().unwrap_or_default();
    report.lost += pending.lock().map(|p| p.len() as u64).unwrap_or(0);
    match send_failure {
        Some(failure) => Err(failure),
        None => Ok(()),
    }
}

fn render_report(opts: &Options, total: &ConnReport, wall: Duration) -> String {
    let h = &total.histogram;
    let issued = total.ok + total.busy + total.deadline + total.protocol_errors + total.mismatches;
    let secs = wall.as_secs_f64();
    let rps = if secs > 0.0 {
        issued as f64 / secs
    } else {
        0.0
    };
    let mode = if opts.open_loop {
        "open-loop"
    } else {
        "closed-loop"
    };
    format!(
        "{{\n  \"kind\": \"{}\",\n  \"mode\": \"{}\",\n  \"offered_rps\": {},\n  \"connections\": {},\n  \"requests_per_connection\": {},\n  \"seed\": {},\n  \"issued\": {},\n  \"ok\": {},\n  \"busy\": {},\n  \"deadline\": {},\n  \"protocol_errors\": {},\n  \"mismatches\": {},\n  \"lost\": {},\n  \"retry\": {{\n    \"max\": {},\n    \"attempts\": {},\n    \"recovered\": {},\n    \"exhausted\": {}\n  }},\n  \"wall_s\": {},\n  \"throughput_rps\": {},\n  \"latency_ns\": {{\n    \"mean\": {},\n    \"p50\": {},\n    \"p95\": {},\n    \"p99\": {},\n    \"max\": {}\n  }}\n}}",
        opts.kind,
        mode,
        if opts.open_loop {
            fedval_obs::json_f64(opts.rate)
        } else {
            "null".to_string()
        },
        opts.connections,
        opts.requests,
        opts.seed,
        issued,
        total.ok,
        total.busy,
        total.deadline,
        total.protocol_errors,
        total.mismatches,
        total.lost,
        opts.retry,
        total.retries,
        total.recovered,
        total.exhausted,
        fedval_obs::json_f64(secs),
        fedval_obs::json_f64(rps),
        h.mean_ns(),
        h.p50_ns(),
        h.p95_ns(),
        h.p99_ns(),
        h.max_ns,
    )
}

fn merge(total: &mut ConnReport, part: &ConnReport) {
    total.ok += part.ok;
    total.busy += part.busy;
    total.deadline += part.deadline;
    total.protocol_errors += part.protocol_errors;
    total.mismatches += part.mismatches;
    total.retries += part.retries;
    total.recovered += part.recovered;
    total.exhausted += part.exhausted;
    total.lost += part.lost;
    total.histogram.merge(&part.histogram);
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse(&args)?;
    if opts.metrics.is_some() {
        // Enable the sharded registry (NullSink) so per-connection
        // threads accumulate latency shards for the exit dump.
        fedval_obs::ensure_enabled();
    }

    let canonical_shapley: Arc<OnceLock<String>> = Arc::new(OnceLock::new());
    let failures: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let started = Instant::now();
    let mut handles = Vec::new();
    for conn_index in 0..opts.connections {
        let opts = opts.clone();
        let canonical = Arc::clone(&canonical_shapley);
        let failures = Arc::clone(&failures);
        handles.push(std::thread::spawn(move || {
            let mut report = ConnReport::default();
            let outcome = if opts.open_loop {
                drive_open_loop(&opts, conn_index, &canonical, &mut report)
            } else {
                drive_connection(&opts, conn_index, &canonical, &mut report)
            };
            if let Err(message) = outcome {
                if let Ok(mut sink) = failures.lock() {
                    sink.push(format!("connection {conn_index}: {message}"));
                }
            }
            report
        }));
    }
    let mut total = ConnReport::default();
    for handle in handles {
        if let Ok(part) = handle.join() {
            merge(&mut total, &part);
        }
    }
    let wall = started.elapsed();

    if let Some(path) = &opts.scrape {
        // One `metrics` query; the raw response line is what CI greps.
        let line = client::query(
            &opts.addr,
            CLIENT_TIMEOUT,
            "{\"id\":0,\"kind\":\"metrics\"}",
        )?;
        std::fs::write(path, format!("{line}\n")).map_err(|e| format!("--scrape {path}: {e}"))?;
    }
    if opts.shutdown {
        client::query(
            &opts.addr,
            CLIENT_TIMEOUT,
            "{\"id\":0,\"kind\":\"shutdown\"}",
        )?;
    }

    let report = render_report(&opts, &total, wall);
    println!("{report}");
    if let Some(path) = &opts.out {
        std::fs::write(path, format!("{report}\n")).map_err(|e| format!("--out {path}: {e}"))?;
    }
    if let Some(path) = &opts.metrics {
        // Fold the run-wide tallies in as counters, then dump the
        // merged registry (written even when the run then fails, so a
        // red run still leaves its telemetry behind).
        fedval_obs::counter_add("load.req.ok", total.ok);
        fedval_obs::counter_add("load.req.busy", total.busy);
        fedval_obs::counter_add("load.req.deadline", total.deadline);
        fedval_obs::counter_add("load.req.fatal", total.protocol_errors + total.mismatches);
        fedval_obs::counter_add("load.req.lost", total.lost);
        fedval_obs::counter_add("load.retries", total.retries);
        let json = fedval_obs::metrics_fold().to_json();
        std::fs::write(path, format!("{json}\n")).map_err(|e| format!("--metrics {path}: {e}"))?;
    }

    let failures = failures.lock().map(|f| f.clone()).unwrap_or_default();
    if !failures.is_empty() {
        return Err(failures.join("\n"));
    }
    if total.protocol_errors > 0 || total.mismatches > 0 || total.lost > 0 {
        return Err(format!(
            "correctness failures: {} protocol errors, {} mismatches, {} lost",
            total.protocol_errors, total.mismatches, total.lost
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_flags() {
        let opts = parse(&args(&[
            "--addr",
            "127.0.0.1:9",
            "--connections",
            "4",
            "--requests",
            "10",
            "--kind",
            "mixed",
            "--seed",
            "7",
            "--retry",
            "3",
            "--out",
            "report.json",
            "--metrics",
            "metrics.json",
            "--shutdown",
        ]))
        .unwrap();
        assert_eq!(opts.addr, "127.0.0.1:9");
        assert_eq!(opts.connections, 4);
        assert_eq!(opts.requests, 10);
        assert_eq!(opts.kind, "mixed");
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.retry, 3);
        assert_eq!(opts.out.as_deref(), Some("report.json"));
        assert_eq!(opts.metrics.as_deref(), Some("metrics.json"));
        assert!(opts.shutdown);
        assert!(!opts.open_loop);
    }

    #[test]
    fn parses_open_loop_flags() {
        let opts = parse(&args(&["--addr", "x", "--open-loop", "--rate", "2500"])).unwrap();
        assert!(opts.open_loop);
        assert!((opts.rate - 2500.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&args(&[])).is_err(), "--addr is required");
        assert!(parse(&args(&["--addr", "x", "--connections", "0"])).is_err());
        assert!(parse(&args(&["--addr", "x", "--kind", "venetian"])).is_err());
        assert!(parse(&args(&["--addr", "x", "--rate", "0"])).is_err());
        assert!(parse(&args(&["--addr", "x", "--rate", "-3"])).is_err());
        assert!(
            parse(&args(&["--addr", "x", "--open-loop", "--retry", "2"])).is_err(),
            "retry is closed-loop only"
        );
        assert!(parse(&args(&["--addr"])).is_err());
    }

    #[test]
    fn request_stream_is_deterministic_per_seed() {
        let mut a = ChaosRng::new(42);
        let mut b = ChaosRng::new(42);
        for id in 0..50 {
            assert_eq!(
                request_line("mixed", id, &mut a),
                request_line("mixed", id, &mut b)
            );
        }
        let mut c = ChaosRng::new(43);
        let stream_a: Vec<String> = (0..50)
            .map(|id| request_line("mixed", id, &mut ChaosRng::new(42 + id)))
            .collect();
        let stream_c: Vec<String> = (0..50)
            .map(|id| request_line("mixed", id, &mut c))
            .collect();
        assert_ne!(stream_a, stream_c, "different seeds, different streams");
    }

    #[test]
    fn body_of_strips_the_id() {
        let a = "{\"id\":1,\"ok\":true,\"kind\":\"shapley\"}";
        let b = "{\"id\":9,\"ok\":true,\"kind\":\"shapley\"}";
        assert_eq!(body_of(a), body_of(b));
        assert_eq!(body_of("garbage"), "garbage");
    }

    #[test]
    fn body_of_strips_trace_ids() {
        // A slow-request exemplar tag must not trip the byte-identity
        // check: same body, different trace ids, one untagged.
        let slow_a = "{\"id\":1,\"ok\":true,\"kind\":\"shapley\",\"trace_id\":7}";
        let slow_b = "{\"id\":2,\"ok\":true,\"kind\":\"shapley\",\"trace_id\":9}";
        let fast = "{\"id\":3,\"ok\":true,\"kind\":\"shapley\"}";
        assert_eq!(body_of(slow_a), body_of(slow_b));
        assert_eq!(body_of(slow_a), body_of(fast));
    }

    #[test]
    fn id_of_parses_response_prefixes() {
        assert_eq!(id_of("{\"id\":42,\"ok\":true}"), Some(42));
        assert_eq!(id_of("{\"id\":null,\"ok\":false}"), None);
        assert_eq!(id_of("garbage"), None);
    }

    /// The acceptor sheds a connection over the cap with an id-less
    /// `BUSY` line and closes it: `busy`, never a mismatch, and a
    /// retrying run reconnects until the slot frees.
    #[test]
    fn accept_time_shed_is_busy_and_retries_reconnect() {
        use fedval_serve::{ScenarioSpec, ServeState, Server, ServerConfig};
        let state = ServeState::new(ScenarioSpec::paper_4_1(), 8);
        let config = ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        };
        let server = Server::start(state, "127.0.0.1:0", config).unwrap();
        let addr = server.local_addr().to_string();
        let run = |retry: &str| {
            let opts = parse(&args(&[
                "--addr",
                &addr,
                "--requests",
                "3",
                "--kind",
                "shapley",
                "--retry",
                retry,
            ]))
            .unwrap();
            let mut report = ConnReport::default();
            drive_connection(&opts, 0, &Arc::new(OnceLock::new()), &mut report).unwrap();
            (report.ok, report.busy, report.mismatches)
        };
        let mut held = Client::connect(&addr, CLIENT_TIMEOUT).unwrap();
        // Answered, so the held connection owns the one slot.
        let health = held.ask("{\"id\":0,\"kind\":\"health\"}").unwrap();
        assert!(health.contains("\"ok\":true"), "{health}");
        assert_eq!(run("0"), (0, 3, 0));
        assert_eq!(run("2"), (0, 3, 0));
        drop(held);
        assert_eq!(run("16"), (3, 0, 0));
        server.shutdown();
    }

    /// An open-loop connection the acceptor sheds: its collector stops
    /// at the server's close, so the drain ends at once rather than
    /// after its 30 s grace, and the unanswered request is `lost`. A
    /// later send that fails on the closed connection still leaves the
    /// connection's tallies behind.
    #[test]
    fn shed_open_loop_connection_drains_at_once_and_keeps_its_tallies() {
        use fedval_serve::{ScenarioSpec, ServeState, Server, ServerConfig};
        let state = ServeState::new(ScenarioSpec::paper_4_1(), 8);
        let config = ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        };
        let server = Server::start(state, "127.0.0.1:0", config).unwrap();
        let addr = server.local_addr().to_string();
        let run = |requests: &str| {
            let opts = parse(&args(&[
                "--addr",
                &addr,
                "--open-loop",
                "--rate",
                "200",
                "--connections",
                "1",
                "--requests",
                requests,
                "--kind",
                "shapley",
            ]))
            .unwrap();
            let mut report = ConnReport::default();
            let started = Instant::now();
            let outcome = drive_open_loop(&opts, 0, &Arc::new(OnceLock::new()), &mut report);
            let took = started.elapsed();
            assert!(took < Duration::from_secs(10), "drain took {took:?}");
            (outcome, report)
        };
        let mut held = Client::connect(&addr, CLIENT_TIMEOUT).unwrap();
        // Answered, so the held connection owns the one slot.
        let health = held.ask("{\"id\":0,\"kind\":\"health\"}").unwrap();
        assert!(health.contains("\"ok\":true"), "{health}");
        let (outcome, report) = run("1");
        assert!(outcome.is_ok(), "{outcome:?}");
        assert_eq!((report.busy, report.lost), (1, 1));
        // The send after the server's reset fails; the shed and the
        // request sent before it are still counted.
        let (outcome, report) = run("3");
        assert!(outcome.is_err(), "{report:?}");
        assert_eq!(report.busy, 1);
        assert!(report.lost >= 1, "{report:?}");
        drop(held);
        server.shutdown();
    }

    #[test]
    fn backoff_is_capped_and_seeded() {
        let mut rng = ChaosRng::new(9);
        for attempt in 1..12 {
            let d = backoff(attempt, &mut rng);
            assert!(d <= Duration::from_millis(200), "attempt {attempt}: {d:?}");
            assert!(d >= Duration::from_millis(2), "attempt {attempt}: {d:?}");
        }
        // Same seed, same jitter sequence.
        let mut a = ChaosRng::new(5);
        let mut b = ChaosRng::new(5);
        let seq_a: Vec<Duration> = (1..6).map(|i| backoff(i, &mut a)).collect();
        let seq_b: Vec<Duration> = (1..6).map(|i| backoff(i, &mut b)).collect();
        assert_eq!(seq_a, seq_b);
    }
}
