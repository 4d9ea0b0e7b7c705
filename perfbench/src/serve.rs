//! The `serve-mixed` workload: `fedval-serve --warm` with its defaults,
//! driven open-loop over loopback by the benchmark's own client.
//!
//! The client holds one connection and two threads: the run's main
//! thread sends each frame in one write at its scheduled (Poisson)
//! time, and one receiver thread reads and checks the answers. Latency
//! runs from the scheduled send, so a stalled sender or server charges
//! every request it delayed; percentiles come from the raw samples. A
//! `metrics` query goes out once per second, as a monitoring agent
//! would send it, and at the edges of every phase, where its counters
//! give the daemon's own split of each request's time.

use crate::stats::{mean, median, percentile, ratio, SplitMix};
use crate::trace::Trace;
use crate::{Ctx, Metrics, Outcome};
use fedval_serve::protocol::{render_err, render_ok};
use fedval_serve::state::ScenarioSpec;
use fedval_serve::{parse_request, ServeState};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The daemon's default what-if LRU capacity (`--whatif-cache`).
const WHATIF_CAPACITY: usize = 64;
/// Query mix: shapley, nucleolus, coalition-value, what-if-join,
/// what-if-leave. These are the shares of fedload's `mixed` stream: a
/// quarter each of the three reads and of what-if, the what-ifs split
/// evenly between join and leave.
const MIX: [f64; 5] = [0.25, 0.25, 0.25, 0.125, 0.125];
/// Distinct what-if-join keys, and the Zipf exponent of their
/// popularity: YCSB's core-workload defaults (1000 records, zipfian
/// requests with constant 0.99; Cooper et al., SoCC 2010). The working
/// set is many times the LRU, so joins both hit and miss it.
const JOIN_KEYS: usize = 1000;
const ZIPF_EXPONENT: f64 = 0.99;
/// Fixed offered rates, requests per second. The daemon keeps up with
/// about 10,000 req/s of this mix on the 2-core host, but with as little
/// as 3,000 in the host's slowest states; `high` stays under that, since
/// a fixed rate above capacity fills the daemon's queue and it refuses
/// requests.
const LOW_RATE: f64 = 1_000.0;
const HIGH_RATE: f64 = 2_500.0;
/// The rate ladder, requests per second, climbed until a rung misses
/// the limit.
const LADDER: [f64; 17] = [
    3_000.0, 5_000.0, 7_000.0, 8_000.0, 9_000.0, 9_500.0, 10_000.0, 10_500.0, 11_000.0, 11_500.0,
    12_000.0, 12_500.0, 13_000.0, 13_500.0, 14_000.0, 15_000.0, 16_000.0,
];
/// p99 limit a ladder rung must meet, milliseconds. Stalls of the
/// 2-core host reach tens of milliseconds at any rate, so the limit sits
/// above them and the rung that fails is the one the daemon cannot keep
/// up with.
const P99_LIMIT_MS: f64 = 50.0;
/// Outstanding requests at which a rung is called a growing backlog
/// and stopped (under the daemon's 1024-deep queue, so no request is
/// refused).
const BACKLOG_LIMIT: u64 = 768;
/// Attempts per ladder rung: a rung that misses once is run again
/// before the climb stops, so one stall does not end the ladder.
const RUNG_ATTEMPTS: usize = 2;
/// Unmeasured traffic that fills the what-if LRU before timing.
const WARMUP_S: f64 = 0.5;
/// How long the receiver waits for stragglers after the last send.
const DRAIN: Duration = Duration::from_secs(5);
/// Ids at or above this mark answer `metrics` scrapes.
const SCRAPE_ID: u64 = 1 << 40;

/// One query of the mix, by kind.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Query {
    Shapley,
    Nucleolus,
    Coalition(u8),
    Join(u16),
    Leave(u8),
}

impl Query {
    /// Every query the mix can draw, in universe order.
    fn universe() -> Vec<Query> {
        let mut all = vec![Query::Shapley, Query::Nucleolus];
        all.extend((1u8..8).map(Query::Coalition));
        all.extend((0..JOIN_KEYS as u16).map(Query::Join));
        all.extend((0u8..3).map(Query::Leave));
        all
    }

    fn index(self) -> usize {
        match self {
            Query::Shapley => 0,
            Query::Nucleolus => 1,
            Query::Coalition(mask) => 1 + mask as usize,
            Query::Join(k) => 9 + k as usize,
            Query::Leave(p) => 9 + JOIN_KEYS + p as usize,
        }
    }

    /// The join key's facility: capacity 1 as in fedload's joins, and a
    /// location count of its own from 100 up, the low end of fedload's
    /// 100–800, so a miss costs what fedload's joins cost.
    fn join_facility(k: u16) -> (u32, u64) {
        (100 + u32::from(k), 1)
    }

    fn frame(self, id: u64) -> String {
        let body = match self {
            Query::Shapley => "\"kind\":\"shapley\"".to_string(),
            Query::Nucleolus => "\"kind\":\"nucleolus\"".to_string(),
            Query::Coalition(mask) => {
                let members: Vec<String> = (0..3)
                    .filter(|p| mask >> p & 1 == 1)
                    .map(|p| p.to_string())
                    .collect();
                format!(
                    "\"kind\":\"coalition-value\",\"coalition\":[{}]",
                    members.join(",")
                )
            }
            Query::Join(k) => {
                let (l, c) = Query::join_facility(k);
                format!("\"kind\":\"what-if-join\",\"locations\":{l},\"capacity\":{c}")
            }
            Query::Leave(p) => format!("\"kind\":\"what-if-leave\",\"player\":{p}"),
        };
        format!("{{\"id\":{id},{body}}}\n")
    }

    fn is_whatif(self) -> bool {
        matches!(self, Query::Join(_) | Query::Leave(_))
    }
}

/// Draws queries from the mix; what-if-join keys follow a Zipf law over
/// the working set, the key of rank r drawn with weight r^-`ZIPF_EXPONENT`.
struct Mix {
    rng: SplitMix,
    zipf: Vec<f64>,
}

impl Mix {
    fn new(seed: u64) -> Mix {
        let weights: Vec<f64> = (1..=JOIN_KEYS)
            .map(|r| (r as f64).powf(-ZIPF_EXPONENT))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let zipf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Mix {
            rng: SplitMix(seed ^ 0x5E2F_E0A1_D00D_F00D),
            zipf,
        }
    }

    fn draw(&mut self) -> Query {
        let u = self.rng.unit();
        let mut acc = 0.0;
        let mut kind = MIX.len() - 1;
        for (i, share) in MIX.iter().enumerate() {
            acc += share;
            if u < acc {
                kind = i;
                break;
            }
        }
        match kind {
            0 => Query::Shapley,
            1 => Query::Nucleolus,
            2 => Query::Coalition(1 + self.rng.below(7) as u8),
            3 => {
                let v = self.rng.unit();
                let k = self.zipf.partition_point(|&c| c < v).min(JOIN_KEYS - 1);
                Query::Join(k as u16)
            }
            _ => Query::Leave(self.rng.below(3) as u8),
        }
    }

    /// Poisson arrivals at `rate` for `secs`: offsets in ns.
    fn schedule(&mut self, rate: f64, secs: f64) -> Vec<(u64, Query)> {
        let mut out = Vec::new();
        let mut t = 0.0;
        loop {
            t += -(1.0 - self.rng.unit()).ln() / rate;
            if t >= secs {
                return out;
            }
            out.push(((t * 1e9) as u64, self.draw()));
        }
    }
}

/// The expected answer to every query of the universe, as the daemon's
/// response line after its `{"id":N,` prefix — computed in process by a
/// fresh warmed `ServeState::execute`.
fn expected_answers(nproc: usize) -> Vec<String> {
    let state = ServeState::new(ScenarioSpec::paper_4_1(), WHATIF_CAPACITY);
    state.warm(nproc);
    Query::universe()
        .into_iter()
        .map(|q| {
            let line = q.frame(0);
            let line = match parse_request(line.trim_end().as_bytes()) {
                Ok(req) => match state.execute(&req.kind) {
                    Ok(payload) => render_ok(None, &payload),
                    Err(e) => render_err(None, e.code, &e.detail),
                },
                Err(e) => render_err(None, e.code(), &e.to_string()),
            };
            line[1..].to_string()
        })
        .collect()
}

/// A running daemon. Dropping it kills and reaps the process.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
    setup_s: f64,
}

impl Daemon {
    fn spawn(bin: &std::path::Path, extra: &[String]) -> Result<Daemon, String> {
        let start = Instant::now();
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--warm"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let Some(out) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon stdout missing".to_string());
        };
        let mut daemon = Daemon {
            child,
            stdout: BufReader::new(out),
            addr: String::new(),
            setup_s: 0.0,
        };
        let mut line = String::new();
        loop {
            line.clear();
            match daemon.stdout.read_line(&mut line) {
                Ok(0) | Err(_) => return Err("daemon exited before listening".to_string()),
                Ok(_) => {
                    if let Some(addr) = line.trim().strip_prefix("listening on ") {
                        daemon.addr = addr.to_string();
                        daemon.setup_s = start.elapsed().as_secs_f64();
                        return Ok(daemon);
                    }
                }
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the daemon to drain, waits for it to exit, and returns its
    /// drain summary line.
    fn shutdown(mut self) -> Result<String, String> {
        let mut conn = Conn::open(&self.addr)?;
        conn.send(b"{\"kind\":\"shutdown\"}\n")?;
        let _ = conn.read_line();
        drop(conn);
        let mut summary = String::new();
        let mut line = String::new();
        while self.stdout.read_line(&mut line).is_ok_and(|n| n > 0) {
            if line.starts_with("drained:") {
                summary = line.trim().to_string();
            }
            line.clear();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(summary),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}: {summary}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => return Err("daemon did not exit after shutdown".to_string()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The client's one connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_write_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            writer: stream,
            reader,
        })
    }

    /// One frame, one write.
    fn send(&mut self, frame: &[u8]) -> Result<(), String> {
        self.writer
            .write_all(frame)
            .map_err(|e| format!("send: {e}"))
    }

    /// Reads one line, waiting up to the drain limit.
    fn read_line(&mut self) -> Result<String, String> {
        let deadline = Instant::now() + DRAIN;
        let mut buf = Vec::new();
        loop {
            match self.reader.read_until(b'\n', &mut buf) {
                Ok(0) => return Err("connection closed".to_string()),
                Ok(_) if buf.ends_with(b"\n") => {
                    return Ok(String::from_utf8_lossy(&buf).trim_end().to_string())
                }
                Ok(_) => {}
                Err(e) if is_timeout(&e) && Instant::now() < deadline => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }

    /// A synchronous `metrics` scrape.
    fn scrape(&mut self, id: u64) -> Result<Scrape, String> {
        self.send(format!("{{\"id\":{id},\"kind\":\"metrics\"}}\n").as_bytes())?;
        Ok(Scrape::parse(&self.read_line()?))
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// The daemon counters a `metrics` scrape carries that the benchmark
/// reads.
#[derive(Default, Clone, Copy)]
struct Scrape {
    exec_ns: f64,
    exec_count: f64,
    server_ns: f64,
    server_count: f64,
    whatif_hits: f64,
    whatif_misses: f64,
}

impl Scrape {
    fn parse(line: &str) -> Scrape {
        Scrape {
            exec_ns: prom_value(line, "serve_request_spans_time_ns_total"),
            exec_count: prom_value(line, "serve_request_spans_count"),
            server_ns: prom_value(line, "serve_request_ns_sum"),
            server_count: prom_value(line, "serve_request_ns_count"),
            whatif_hits: prom_value(line, "serve_whatif_hits"),
            whatif_misses: prom_value(line, "serve_whatif_misses"),
        }
    }

    fn delta(&self, before: &Scrape) -> Scrape {
        Scrape {
            exec_ns: self.exec_ns - before.exec_ns,
            exec_count: self.exec_count - before.exec_count,
            server_ns: self.server_ns - before.server_ns,
            server_count: self.server_count - before.server_count,
            whatif_hits: self.whatif_hits - before.whatif_hits,
            whatif_misses: self.whatif_misses - before.whatif_misses,
        }
    }
}

/// Value of series `name` in the JSON-escaped exposition text of a
/// `metrics` response (0 when absent).
fn prom_value(line: &str, name: &str) -> f64 {
    let needle = format!("\\n{name} ");
    line.find(&needle)
        .map(|at| &line[at + needle.len()..])
        .and_then(|rest| {
            let end = rest
                .find(|c: char| !c.is_ascii_digit() && c != '.')
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .unwrap_or(0.0)
}

/// What one phase of traffic measured.
struct Phase {
    /// Latency of every request sent, from its scheduled send, in ms
    /// (a failed or unanswered request counts as the drain limit).
    latency_ms: Vec<f64>,
    /// Actual minus scheduled send time, ms.
    late_ms: Vec<f64>,
    sent: u64,
    failed: u64,
    /// Requests per second answered over the phase.
    achieved_rps: f64,
    /// The rung was stopped on a growing backlog.
    backlog: bool,
    /// Daemon counter deltas over the phase.
    daemon: Scrape,
    /// (scheduled, received) ns of every answered request.
    spans: Vec<(u64, u64)>,
}

impl Phase {
    fn p(&self, q: f64) -> f64 {
        percentile(&self.latency_ms, q)
    }

    fn answered_mean_us(&self) -> f64 {
        let ok: Vec<f64> = self
            .spans
            .iter()
            .map(|&(s, r)| (r - s) as f64 / 1e3)
            .collect();
        mean(&ok)
    }
}

/// Sends `plan` on schedule and collects every answer.
fn run_phase(
    conn: &mut Conn,
    plan: &[(u64, Query)],
    expected: &Arc<Vec<String>>,
    id_base: u64,
    stop_on_backlog: bool,
) -> Result<Phase, String> {
    let before = conn.scrape(SCRAPE_ID + id_base)?;
    // Scrapes ride the same schedule, once per second.
    let scrape_at: Vec<u64> = (1..)
        .map(|s: u64| s * 1_000_000_000)
        .take_while(|&t| plan.last().is_some_and(|&(last, _)| t < last))
        .collect();
    let n = plan.len();
    let queries: Arc<Vec<usize>> = Arc::new(plan.iter().map(|&(_, q)| q.index()).collect());
    let frames: Vec<Vec<u8>> = plan
        .iter()
        .enumerate()
        .map(|(i, &(_, q))| q.frame(id_base + i as u64 + 1).into_bytes())
        .collect();
    let answered = Arc::new(AtomicU64::new(0));
    // Requests the receiver waits for: all of them, until the sender
    // stops a rung early and lowers it to the number actually sent.
    let target = Arc::new(AtomicU64::new(n as u64));
    let done_at = Arc::new(AtomicU64::new(u64::MAX));
    let origin = Instant::now();
    let reader = std::mem::replace(
        &mut conn.reader,
        BufReader::new(conn.writer.try_clone().map_err(|e| e.to_string())?),
    );
    let receiver = {
        let (expected, queries) = (Arc::clone(expected), Arc::clone(&queries));
        let (answered, target, done_at) = (
            Arc::clone(&answered),
            Arc::clone(&target),
            Arc::clone(&done_at),
        );
        let scrapes = scrape_at.len();
        std::thread::spawn(move || {
            let progress = Progress {
                answered: &answered,
                target: &target,
                done_at: &done_at,
            };
            receive(
                reader, origin, id_base, &queries, &expected, scrapes, &progress,
            )
        })
    };

    let mut sent_ns = vec![0u64; n];
    let mut next_scrape = 0;
    let mut sent = 0usize;
    let mut backlog = false;
    let mut send_error = None;
    for (i, &(at, _)) in plan.iter().enumerate() {
        wait_until(origin, at);
        if next_scrape < scrape_at.len() && scrape_at[next_scrape] <= at {
            let frame = format!(
                "{{\"id\":{},\"kind\":\"metrics\"}}\n",
                SCRAPE_ID + id_base + 1 + next_scrape as u64
            );
            next_scrape += 1;
            if let Err(e) = conn.send(frame.as_bytes()) {
                send_error = Some(e);
                break;
            }
        }
        if stop_on_backlog
            && (i as u64).saturating_sub(answered.load(Ordering::Relaxed)) > BACKLOG_LIMIT
        {
            backlog = true;
            break;
        }
        sent_ns[i] = ns_since(origin);
        if let Err(e) = conn.send(&frames[i]) {
            send_error = Some(e);
            break;
        }
        sent = i + 1;
    }
    // Scrapes the sender skipped (a stopped rung) still owe an answer
    // slot; send them now so the receiver's count closes.
    for k in next_scrape..scrape_at.len() {
        let frame = format!(
            "{{\"id\":{},\"kind\":\"metrics\"}}\n",
            SCRAPE_ID + id_base + 1 + k as u64
        );
        let _ = conn.send(frame.as_bytes());
    }
    target.store(sent as u64, Ordering::SeqCst);
    done_at.store(ns_since(origin), Ordering::SeqCst);
    let (reader, received, ok) = receiver
        .join()
        .map_err(|_| "receiver thread panicked".to_string())?;
    conn.reader = reader;
    if let Some(e) = send_error {
        return Err(e);
    }
    let after = conn.scrape(SCRAPE_ID + id_base + (1 << 20))?;

    let drain_ms = DRAIN.as_secs_f64() * 1e3;
    let mut latency_ms = Vec::with_capacity(sent);
    let mut late_ms = Vec::with_capacity(sent);
    let mut spans = Vec::with_capacity(sent);
    let mut failed = 0u64;
    let mut last = 0u64;
    for i in 0..sent {
        let at = plan[i].0;
        late_ms.push(sent_ns[i].saturating_sub(at) as f64 / 1e6);
        if ok[i] {
            latency_ms.push(received[i].saturating_sub(at) as f64 / 1e6);
            spans.push((at, received[i]));
            last = last.max(received[i]);
        } else {
            failed += 1;
            latency_ms.push(drain_ms);
        }
    }
    Ok(Phase {
        latency_ms,
        late_ms,
        sent: sent as u64,
        failed,
        achieved_rps: ratio(spans.len() as f64, last as f64 / 1e9),
        backlog,
        daemon: after.delta(&before),
        spans,
    })
}

fn ns_since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Sleeps until `at` ns after `origin`: a coarse sleep, then yields for
/// the last stretch the sleep cannot hit.
fn wait_until(origin: Instant, at: u64) {
    const SLEEP_SLACK_NS: u64 = 150_000;
    loop {
        let now = ns_since(origin);
        if now >= at {
            return;
        }
        let left = at - now;
        if left > SLEEP_SLACK_NS {
            std::thread::sleep(Duration::from_nanos(left - SLEEP_SLACK_NS + 50_000));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Counters the sender and the receiver share during a phase.
struct Progress<'a> {
    /// Requests answered so far (the sender's backlog check).
    answered: &'a AtomicU64,
    /// Requests the receiver waits for.
    target: &'a AtomicU64,
    /// When the sender finished, ns after the phase origin.
    done_at: &'a AtomicU64,
}

/// The receiver thread: reads answers until every request sent and every
/// scrape of the phase is answered, or the drain limit passes after the
/// last send. Returns the reader with the receive time and verdict of
/// every request.
fn receive(
    mut reader: BufReader<TcpStream>,
    origin: Instant,
    id_base: u64,
    queries: &[usize],
    expected: &[String],
    scrapes: usize,
    progress: &Progress,
) -> (BufReader<TcpStream>, Vec<u64>, Vec<bool>) {
    let n = queries.len();
    let mut received = vec![0u64; n];
    let mut ok = vec![false; n];
    let mut remaining_scrapes = scrapes;
    let mut answers = 0u64;
    let mut buf = Vec::with_capacity(512);
    while answers < progress.target.load(Ordering::SeqCst) || remaining_scrapes > 0 {
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => break,
            Ok(_) if buf.ends_with(b"\n") => {
                let t = ns_since(origin);
                let line = &buf[..buf.len() - 1];
                match response_id(line) {
                    Some((id, _)) if id >= SCRAPE_ID => {
                        remaining_scrapes = remaining_scrapes.saturating_sub(1);
                    }
                    Some((id, rest)) if id > id_base && id - id_base <= n as u64 => {
                        let i = (id - id_base - 1) as usize;
                        if received[i] == 0 {
                            answers += 1;
                            progress.answered.fetch_add(1, Ordering::Relaxed);
                        }
                        received[i] = t;
                        ok[i] = strip_trace_id(rest) == expected[queries[i]].as_bytes();
                    }
                    _ => {}
                }
                buf.clear();
            }
            Ok(_) => {}
            Err(e) if is_timeout(&e) => {
                let done = progress.done_at.load(Ordering::SeqCst);
                if done != u64::MAX && ns_since(origin) > done + DRAIN.as_nanos() as u64 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    (reader, received, ok)
}

/// Splits `{"id":N,REST` into `(N, REST)`.
fn response_id(line: &[u8]) -> Option<(u64, &[u8])> {
    let rest = line.strip_prefix(b"{\"id\":")?;
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    let id = std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()?;
    Some((id, rest.get(digits + 1..)?))
}

/// Drops a slow-request `,"trace_id":N` tag before the closing brace:
/// the daemon adds it to answers that took longer than its exemplar
/// threshold, and it is not part of the answer.
fn strip_trace_id(rest: &[u8]) -> Vec<u8> {
    const TAG: &[u8] = b",\"trace_id\":";
    match rest.windows(TAG.len()).rposition(|w| w == TAG) {
        Some(at)
            if rest[at + TAG.len()..rest.len() - 1]
                .iter()
                .all(u8::is_ascii_digit) =>
        {
            let mut v = rest[..at].to_vec();
            v.push(b'}');
            v
        }
        _ => rest.to_vec(),
    }
}

/// Starts a throwaway daemon, records its start-up time, and shuts it
/// down: `setup_s` is the median of these probes, taken between the
/// phases so that they sample the machine across the whole run.
fn setup_probe(bin: &std::path::Path, setups: &mut Vec<f64>) -> Result<(), String> {
    let d = Daemon::spawn(bin, &[])?;
    setups.push(d.setup_s);
    d.shutdown().map(|_| ())
}

/// Everything the untraced part of a run measured.
struct Measured {
    setup_s: f64,
    low: Phase,
    high: Phase,
    ladder: Vec<(f64, Phase)>,
    peak_rss_mb: f64,
    plans: Vec<(u64, Query)>,
    drain: String,
}

impl Measured {
    fn attempted(&self) -> u64 {
        self.low.sent + self.high.sent + self.ladder.iter().map(|(_, p)| p.sent).sum::<u64>()
    }

    fn failed(&self) -> u64 {
        self.low.failed + self.high.failed + self.ladder.iter().map(|(_, p)| p.failed).sum::<u64>()
    }

    /// Achieved rate of the highest rung attempt whose p99 met the limit
    /// with no failure and no growing backlog (0 when none did).
    fn max_rps_slo(&self) -> f64 {
        self.ladder
            .iter()
            .rfind(|(_, p)| rung_passes(p))
            .map_or(0.0, |(_, p)| p.achieved_rps)
    }
}

fn rung_passes(p: &Phase) -> bool {
    !p.backlog && p.failed == 0 && p.p(99.0) <= P99_LIMIT_MS
}

/// Warm-up, the two fixed rates, then the ladder, against one daemon.
fn measure(
    ctx: &Ctx,
    bin: &std::path::Path,
    expected: &Arc<Vec<String>>,
) -> Result<Measured, String> {
    let mut setups = Vec::new();
    setup_probe(bin, &mut setups)?;
    let daemon = Daemon::spawn(bin, &[])?;
    setups.push(daemon.setup_s);
    let mut conn = Conn::open(&daemon.addr)?;
    let mut mix = Mix::new(ctx.seed);
    let warm = mix.schedule(LOW_RATE, WARMUP_S);
    run_phase(&mut conn, &warm, expected, 0, false)?;
    let share = ctx.seconds / 4.0;
    setup_probe(bin, &mut setups)?;
    let low_plan = mix.schedule(LOW_RATE, share);
    let low = run_phase(&mut conn, &low_plan, expected, 1 << 32, false)?;
    setup_probe(bin, &mut setups)?;
    let high_plan = mix.schedule(HIGH_RATE, share);
    let high = run_phase(&mut conn, &high_plan, expected, 2 << 32, false)?;
    let rung_s = (ctx.seconds / 2.0) / LADDER.len() as f64;
    let mut ladder = Vec::new();
    let mut id_base = 3u64 << 32;
    'climb: for &rate in &LADDER {
        for attempt in 1..=RUNG_ATTEMPTS {
            setup_probe(bin, &mut setups)?;
            let plan = mix.schedule(rate, rung_s);
            let phase = run_phase(&mut conn, &plan, expected, id_base, true)?;
            id_base += 1 << 32;
            let pass = rung_passes(&phase);
            println!(
                "rung {rate} req/s, attempt {attempt}: p99 {:.3} ms, achieved {:.1} req/s, {}",
                phase.p(99.0),
                phase.achieved_rps,
                if pass {
                    "meets the limit"
                } else {
                    "misses the limit"
                }
            );
            ladder.push((rate, phase));
            if pass {
                continue 'climb;
            }
        }
        break;
    }
    let setup_s = median(&setups);
    drop(conn);
    let peak_rss_mb = crate::peak_rss_mb(Some(daemon.pid()));
    let drain = daemon.shutdown()?;
    let mut plans = low_plan;
    plans.extend(high_plan);
    Ok(Measured {
        setup_s,
        low,
        high,
        ladder,
        peak_rss_mb,
        plans,
        drain,
    })
}

/// The serve-mixed run.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let bin = ctx
        .serve_bin
        .clone()
        .ok_or("serve-mixed needs --serve-bin (the fedval-serve binary)")?;
    println!(
        "inputs: scenario=paper-4.1 (n=3) whatif-cache={WHATIF_CAPACITY} join-keys={JOIN_KEYS} (Zipf {ZIPF_EXPONENT}) \
         mix shapley/nucleolus/coalition-value/join/leave={MIX:?} low={LOW_RATE} high={HIGH_RATE} \
         ladder={LADDER:?} p99-limit={P99_LIMIT_MS} ms daemon-workers={} client: 1 connection, 2 threads",
        ctx.nproc
    );
    let expected = Arc::new(expected_answers(ctx.nproc));
    let m = measure(ctx, &bin, &expected)?;
    let mut notes = vec![format!("daemon {}", m.drain)];
    for (name, value, unit) in [
        ("p50_ms.low", m.low.p(50.0), "ms"),
        ("p99_ms.low", m.low.p(99.0), "ms"),
        ("p50_ms.high", m.high.p(50.0), "ms"),
        ("p99_ms.high", m.high.p(99.0), "ms"),
        ("max_rps_slo", m.max_rps_slo(), "req/s"),
        ("load.late_p50_ms", percentile(&m.low.late_ms, 50.0), "ms"),
        ("load.late_p99_ms", percentile(&m.low.late_ms, 99.0), "ms"),
    ] {
        notes.push(format!("{name} = {value} {unit}"));
    }
    notes.push(format!(
        "samples: low {} requests, high {} requests, ladder rungs {}",
        m.low.sent,
        m.high.sent,
        m.ladder.len()
    ));
    let shapley = &expected[Query::Shapley.index()];
    notes.push(format!(
        "fingerprint {:016x}: shapley answer; every answer is checked byte for byte against ServeState::execute",
        crate::stats::fnv1a(crate::stats::FNV_OFFSET, shapley.as_bytes())
    ));
    let metrics: Metrics = if ctx.trace {
        traced_layers(ctx, &bin, &expected, &m)?
    } else {
        vec![
            ("ops_per_s", m.max_rps_slo()),
            ("setup_s", m.setup_s),
            ("peak_rss_mb", m.peak_rss_mb),
        ]
    };
    Ok(Outcome::new(m.attempted(), m.failed(), metrics, notes))
}

/// The traced run's extra work: a low-rate phase against a daemon with
/// full tracing (every request's span tree written to its trace file),
/// the in-process replay, and the per-layer arithmetic.
fn traced_layers(
    ctx: &Ctx,
    bin: &std::path::Path,
    expected: &Arc<Vec<String>>,
    m: &Measured,
) -> Result<Metrics, String> {
    std::fs::create_dir_all(&ctx.out_dir).map_err(|e| e.to_string())?;
    let trace_file = ctx.out_dir.join(format!("serve-daemon-{}.jsonl", ctx.seed));
    let extra = vec![
        "--trace".to_string(),
        trace_file.display().to_string(),
        "--slow-trace-ms".to_string(),
        "0".to_string(),
    ];
    let traced = Daemon::spawn(bin, &extra)?;
    let mut conn = Conn::open(&traced.addr)?;
    let mut mix = Mix::new(ctx.seed);
    let warm = mix.schedule(LOW_RATE, WARMUP_S);
    run_phase(&mut conn, &warm, expected, 0, false)?;
    let low_traced = run_phase(
        &mut conn,
        &mix.schedule(LOW_RATE, ctx.seconds / 4.0),
        expected,
        1 << 32,
        false,
    )?;
    drop(conn);
    traced.shutdown()?;

    // Client-side spans of the measured phases, written at the end.
    let mut tr = Trace::new();
    for (name, phase) in [("load.low", &m.low), ("load.high", &m.high)] {
        let root = tr.push(
            name,
            0,
            phase.spans.iter().map(|s| s.1).max().unwrap_or(0),
            None,
            0,
        );
        for &(s, r) in &phase.spans {
            tr.push("load.request", s, r, Some(root), 1);
        }
    }
    ctx.write_trace(&tr);

    let replay = replay(ctx, &m.plans);
    let high = &m.high;
    let d = high.daemon;
    let exec_us = ratio(d.exec_ns, d.exec_count) / 1e3;
    let server_us = ratio(d.server_ns, d.server_count) / 1e3;
    let client_us = high.answered_mean_us();
    let mut layers: Metrics = replay;
    layers.extend([
        ("serve.exec_us", exec_us),
        ("serve.server_us", server_us),
        ("serve.queue_us", server_us - exec_us),
        ("serve.wire_us", client_us - server_us),
        (
            "serve.whatif.hit_ratio",
            ratio(d.whatif_hits, d.whatif_hits + d.whatif_misses),
        ),
        ("load.late_p99_ms", percentile(&m.low.late_ms, 99.0)),
        ("p50_ms.low", m.low.p(50.0)),
        ("p99_ms.low", m.low.p(99.0)),
        ("p50_ms.high", high.p(50.0)),
        ("p99_ms.high", high.p(99.0)),
        ("max_rps_slo", m.max_rps_slo()),
        ("obs.overhead", ratio(low_traced.p(50.0), m.low.p(50.0))),
        ("trace.coverage", ratio(server_us, client_us)),
    ]);
    Ok(layers)
}

/// Replays the run's measured request stream through a fresh warmed
/// `ServeState` in process, timing `parse_request`, `execute` (by
/// query class, with what-if hits told from misses by the program's own
/// `serve.whatif.hits` counter) and `render_ok`.
fn replay(ctx: &Ctx, plan: &[(u64, Query)]) -> Vec<(&'static str, f64)> {
    fedval_obs::ensure_enabled();
    let state = ServeState::new(ScenarioSpec::paper_4_1(), WHATIF_CAPACITY);
    state.warm(ctx.nproc);
    let (mut parse, mut render, mut read, mut hit, mut miss) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (i, &(_, q)) in plan.iter().enumerate() {
        let frame = q.frame(i as u64 + 1);
        let bytes = frame.trim_end().as_bytes();
        let t0 = Instant::now();
        let request = parse_request(std::hint::black_box(bytes));
        let t1 = Instant::now();
        let Ok(request) = request else { continue };
        let hits_before = q
            .is_whatif()
            .then(|| fedval_obs::metrics_fold().counter("serve.whatif.hits"));
        let t2 = Instant::now();
        let payload = state.execute(&request.kind);
        let t3 = Instant::now();
        let exec_us = (t3 - t2).as_secs_f64() * 1e6;
        match hits_before {
            None => read.push(exec_us),
            Some(before) => {
                if fedval_obs::metrics_fold().counter("serve.whatif.hits") > before {
                    hit.push(exec_us);
                } else {
                    miss.push(exec_us);
                }
            }
        }
        parse.push((t1 - t0).as_secs_f64() * 1e6);
        if let Ok(payload) = payload {
            let t4 = Instant::now();
            std::hint::black_box(render_ok(request.id, &payload));
            render.push(t4.elapsed().as_secs_f64() * 1e6);
        }
    }
    fedval_obs::shutdown();
    vec![
        ("serve.parse_us", mean(&parse)),
        ("serve.render_us", mean(&render)),
        ("serve.exec_us.read", mean(&read)),
        ("serve.exec_us.whatif_hit", mean(&hit)),
        ("serve.exec_us.whatif_miss", mean(&miss)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_exposition_and_ids() {
        let line = r##"{"id":9,"ok":true,"kind":"metrics","exposition":"# TYPE a counter\na 1\nserve_request_ns_sum 1234\nserve_request_ns_count 7\n"}"##;
        assert_eq!(prom_value(line, "serve_request_ns_sum"), 1234.0);
        assert_eq!(prom_value(line, "serve_request_ns_count"), 7.0);
        assert_eq!(prom_value(line, "missing"), 0.0);
        let (id, rest) = response_id(br#"{"id":42,"ok":true}"#).unwrap();
        assert_eq!((id, rest), (42, &br#""ok":true}"#[..]));
        assert_eq!(
            strip_trace_id(br#""ok":true,"x":1,"trace_id":77}"#),
            br#""ok":true,"x":1}"#.to_vec()
        );
        assert_eq!(strip_trace_id(br#""ok":true}"#), br#""ok":true}"#.to_vec());
    }

    #[test]
    fn mix_is_seeded_and_covers_every_kind() {
        let a = Mix::new(3).schedule(5_000.0, 1.0);
        let b = Mix::new(3).schedule(5_000.0, 1.0);
        assert_eq!(a, b);
        assert!(a.len() > 4_000 && a.len() < 6_000);
        for probe in [Query::Shapley, Query::Nucleolus] {
            assert!(a.iter().any(|&(_, q)| q == probe));
        }
        assert!(a.iter().any(|&(_, q)| matches!(q, Query::Join(_))));
        assert!(a.iter().any(|&(_, q)| matches!(q, Query::Leave(_))));
        let universe = Query::universe();
        assert!(universe.iter().enumerate().all(|(i, q)| q.index() == i));
    }
}
