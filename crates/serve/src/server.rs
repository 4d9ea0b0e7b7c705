//! The long-running TCP server: acceptor, fixed worker pool, bounded
//! request queue, explicit backpressure, deadlines, graceful drain.
//!
//! ## Threading model
//!
//! * **One acceptor thread** owns the listener and spawns one
//!   I/O-bound reader thread per connection.
//! * **Reader threads** frame and parse requests. Cheap kinds
//!   (`health`, `stats`, `metrics`, `shutdown`) are answered inline so
//!   they stay responsive even when the compute queue is saturated.
//!   Compute kinds are pushed onto the shared bounded queue.
//! * **One sampler thread** folds the sharded metric registry into the
//!   per-second ring buffer the `metrics` query serves (see
//!   [`crate::metrics`]).
//! * **A fixed pool of `threads` worker threads** pops the queue,
//!   enforces the per-request deadline, executes against the warm
//!   [`ServeState`], and writes the response. Responses carry the
//!   request id, so per-connection ordering does not matter.
//!
//! ## Backpressure contract
//!
//! The queue is bounded at `queue_depth`. A request that arrives while
//! the queue is full is answered **immediately** with a `BUSY` error —
//! the server never buffers unbounded work, never drops a connection
//! without a response, and never blocks the reader on the queue. A
//! request that waited in the queue longer than `deadline` is answered
//! with `DEADLINE` instead of being executed — stale what-if answers
//! are worse than fast failures in a policy loop.
//!
//! ## Drain
//!
//! Shutdown (the `shutdown` query, or [`Server::shutdown`]) stops the
//! acceptor, half-closes every connection for reads (in-flight
//! responses still go out), lets the workers finish every job already
//! queued, and joins all threads. Requests arriving mid-drain get
//! `SHUTTING_DOWN`.
#![expect(
    clippy::disallowed_methods,
    reason = "the daemon enforces socket deadlines and times request phases with Instant::now"
)]

use crate::metrics::{render_metrics_payload, MetricsRing};
use crate::protocol::{
    parse_request, render_err, render_ok, ProtocolError, QueryKind, Request, MAX_FRAME,
};
use crate::state::{lock_recover, ServeState};
use fedval_obs::OrderedMutex;
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables of one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing compute queries.
    pub threads: usize,
    /// Bounded request-queue depth; a full queue answers `BUSY`.
    pub queue_depth: usize,
    /// Per-request deadline, measured from enqueue to dequeue.
    pub deadline: Duration,
    /// Accept-time cap on simultaneously served connections. A
    /// connection accepted while the cap is reached is answered with a
    /// single `BUSY` line and closed immediately (shed) — it never gets
    /// a reader thread, so a connect flood cannot exhaust threads or
    /// descriptors.
    pub max_connections: usize,
    /// Per-socket read *and* write timeout on every accepted
    /// connection. A read that makes no byte progress across one whole
    /// timeout window mid-frame closes the connection; a write that
    /// cannot complete within it fails instead of pinning a worker on a
    /// dead or stalled peer.
    pub io_timeout: Duration,
    /// Maximum wall time one frame may take from its first byte to its
    /// newline. Defeats slow-drip (slowloris) clients that keep making
    /// just enough byte progress to dodge the per-read timeout.
    pub frame_deadline: Duration,
    /// Maximum time a connection may sit idle *between* frames before
    /// it is closed (silently — an idle close is not an error).
    pub idle_timeout: Duration,
    /// Honour the `chaos-panic` query (a deliberate worker panic used
    /// by the `fedchaos` harness to prove worker supervision works).
    /// Disabled by default; disabled servers answer it `BAD_REQUEST`.
    pub chaos_panic: bool,
    /// Execution-time threshold for slow-request exemplars: a compute
    /// request whose `execute` takes at least this long has its
    /// captured span tree replayed into the trace sink and its response
    /// tagged with the request's trace id. Tests set
    /// [`Duration::ZERO`] to make every request an exemplar.
    pub slow_trace: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            threads: available_threads(),
            queue_depth: 1024,
            deadline: Duration::from_millis(2_000),
            max_connections: 256,
            io_timeout: Duration::from_secs(10),
            frame_deadline: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(60),
            chaos_panic: false,
            slow_trace: Duration::from_millis(250),
        }
    }
}

/// Worker threads the hardware offers, floor 1.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Samples the ring holds (~2 minutes at the 1 Hz sample interval).
const RING_CAPACITY: usize = 120;

/// How often the sampler thread folds the registry into the ring.
const SAMPLE_INTERVAL: Duration = Duration::from_secs(1);

/// The per-second sampler: folds the sharded registry into one
/// [`RingSample`](crate::metrics::RingSample) per tick until the drain
/// flag rises. Rides the shutdown condvar so the drain wakes it
/// immediately instead of waiting out the final tick.
fn sampler_loop(shared: &Shared) {
    let mut last = Instant::now();
    loop {
        {
            let mut flagged = lock_recover(&shared.shutdown_signal);
            while !*flagged {
                let (guard, timeout) = match shared
                    .shutdown_cv
                    .wait_timeout(flagged, SAMPLE_INTERVAL)
                {
                    Ok(pair) => pair,
                    Err(poisoned) => poisoned.into_inner(),
                };
                flagged = guard;
                if timeout.timed_out() {
                    break;
                }
            }
            if *flagged {
                return;
            }
        }
        let fold = fedval_obs::metrics_fold();
        let t_s = shared.started.elapsed().as_secs();
        let elapsed_s = last.elapsed().as_secs_f64();
        last = Instant::now();
        let queue_depth = lock_recover(&shared.queue).len() as u64;
        shared.ring.lock().push(&fold, t_s, elapsed_s, queue_depth);
    }
}

/// Counters the `stats` query reports. All relaxed: they are
/// monotone operational telemetry, not synchronization.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub accepted: AtomicU64,
    /// Compute requests answered (ok or query error).
    pub answered: AtomicU64,
    /// Requests refused with `BUSY`.
    pub busy: AtomicU64,
    /// Requests expired with `DEADLINE`.
    pub deadline_expired: AtomicU64,
    /// Frames rejected with a typed protocol error.
    pub protocol_errors: AtomicU64,
    /// Requests refused with `SHUTTING_DOWN`.
    pub refused_draining: AtomicU64,
    /// Inline requests answered (health/stats/shutdown).
    pub inline_answered: AtomicU64,
    /// Connections shed at accept time (`BUSY` + close, over the cap).
    pub shed: AtomicU64,
    /// Worker restarts: caught panics mid-request plus respawns of the
    /// worker loop itself. `health` reports `degraded` whenever this
    /// advanced since the previous probe.
    pub worker_restarts: AtomicU64,
    /// Requests answered with a typed `INTERNAL` error (the request
    /// that was on a worker when it panicked — never silently lost).
    pub internal_errors: AtomicU64,
    /// Connections closed for stalling mid-frame or dripping bytes past
    /// the frame deadline (slowloris defense), plus idle closes.
    pub slow_closed: AtomicU64,
    /// Response writes that failed (dead peer, write timeout). The
    /// request still counts as answered; the bytes just had nowhere to
    /// go.
    pub write_failed: AtomicU64,
}

/// Final tally returned by [`Server::shutdown`] / [`Server::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Connections accepted over the server's lifetime.
    pub accepted: u64,
    /// Compute requests answered.
    pub answered: u64,
    /// `BUSY` refusals.
    pub busy: u64,
    /// `DEADLINE` expiries.
    pub deadline_expired: u64,
    /// Typed protocol errors returned.
    pub protocol_errors: u64,
    /// Connections shed at accept time (over the connection cap).
    pub shed: u64,
    /// Worker restarts over the server's lifetime (caught panics).
    pub worker_restarts: u64,
    /// Jobs still queued when the drain finished (always 0 — the
    /// workers drain the queue before exiting; reported so tests can
    /// assert it).
    pub abandoned: u64,
    /// Connections still registered after every thread joined (always
    /// 0 — readers deregister on exit; reported so tests can assert no
    /// descriptor leaked).
    pub open_conns: u64,
}

/// One queued compute request.
struct Job {
    request: Request,
    writer: Arc<Mutex<TcpStream>>,
    enqueued: Instant,
}

struct Shared {
    state: ServeState,
    config: ServerConfig,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    shutting_down: AtomicBool,
    shutdown_signal: Mutex<bool>,
    shutdown_cv: Condvar,
    stats: ServerStats,
    /// `worker_restarts` value at the last `health` probe: the probe
    /// reports `degraded` when the counter advanced since, then
    /// acknowledges it (one probe sees the degradation, the next sees
    /// `ok` again unless workers kept restarting).
    restarts_acked: AtomicU64,
    /// Live connections by id; readers deregister themselves on exit so
    /// short-lived connections don't leak file descriptors.
    conns: Mutex<std::collections::BTreeMap<u64, TcpStream>>,
    next_conn_id: AtomicU64,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
    started: Instant,
    /// Per-second time-series ring fed by the sampler thread, served by
    /// the `metrics` query.
    ring: OrderedMutex<MetricsRing>,
    /// Monotone trace-id allocator; every dequeued compute request gets
    /// one, threaded through its span detail and (for slow requests)
    /// the response payload.
    next_trace_id: AtomicU64,
}

/// A running server. Dropping the handle does **not** stop the
/// threads; call [`Server::shutdown`] (or send a `shutdown` query and
/// [`Server::wait`]).
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    sampler: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts the acceptor and worker pool.
    ///
    /// # Errors
    /// Propagates socket errors from bind/local_addr.
    pub fn start(state: ServeState, addr: &str, config: ServerConfig) -> io::Result<Server> {
        // The metrics exposition and fold-sourced stats read the global
        // registry; make sure it is collecting even when the binary did
        // not install a trace sink (NullSink: records dropped, shards
        // still accumulate).
        fedval_obs::ensure_enabled();
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let threads = config.threads.max(1);
        let shared = Arc::new(Shared {
            state,
            config: ServerConfig { threads, ..config },
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            shutdown_signal: Mutex::new(false),
            shutdown_cv: Condvar::new(),
            stats: ServerStats::default(),
            restarts_acked: AtomicU64::new(0),
            conns: Mutex::new(std::collections::BTreeMap::new()),
            next_conn_id: AtomicU64::new(0),
            conn_threads: Mutex::new(Vec::new()),
            started: Instant::now(),
            ring: OrderedMutex::new("serve.metrics.ring", MetricsRing::new(RING_CAPACITY)),
            next_trace_id: AtomicU64::new(1),
        });

        let workers = (0..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || supervised_worker(&shared))
            })
            .collect();

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || acceptor_loop(&listener, &shared))
        };

        let sampler = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || sampler_loop(&shared))
        };

        Ok(Server {
            local_addr,
            shared,
            acceptor: Some(acceptor),
            workers,
            sampler: Some(sampler),
        })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Live operational counters.
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// Initiates a graceful drain without blocking: stops the
    /// acceptor, half-closes connections, releases the workers.
    pub fn initiate_shutdown(&self) {
        initiate_shutdown(&self.shared, self.local_addr);
    }

    /// Blocks until a drain is initiated (by [`Server::initiate_shutdown`]
    /// or a client's `shutdown` query), then joins every thread and
    /// reports the final tally.
    pub fn wait(mut self) -> DrainReport {
        {
            let mut flagged = lock_recover(&self.shared.shutdown_signal);
            while !*flagged {
                flagged = match self.shared.shutdown_cv.wait(flagged) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        }
        // The flag is set before the signal, but the acceptor may not
        // have been poked if the drain came from a client request on a
        // reader thread; poke it (idempotent).
        initiate_shutdown(&self.shared, self.local_addr);

        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        loop {
            let handle = lock_recover(&self.shared.conn_threads).pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(sampler) = self.sampler.take() {
            let _ = sampler.join();
        }

        let stats = &self.shared.stats;
        DrainReport {
            accepted: stats.accepted.load(Ordering::Relaxed),
            answered: stats.answered.load(Ordering::Relaxed),
            busy: stats.busy.load(Ordering::Relaxed),
            deadline_expired: stats.deadline_expired.load(Ordering::Relaxed),
            protocol_errors: stats.protocol_errors.load(Ordering::Relaxed),
            shed: stats.shed.load(Ordering::Relaxed),
            worker_restarts: stats.worker_restarts.load(Ordering::Relaxed),
            abandoned: lock_recover(&self.shared.queue).len() as u64,
            open_conns: lock_recover(&self.shared.conns).len() as u64,
        }
    }

    /// Initiates the drain and waits for it: the one-call stop used by
    /// tests and the daemon's signal-free teardown.
    pub fn shutdown(self) -> DrainReport {
        self.initiate_shutdown();
        self.wait()
    }
}

fn initiate_shutdown(shared: &Shared, local_addr: SocketAddr) {
    let first = !shared.shutting_down.swap(true, Ordering::SeqCst);
    {
        let mut flagged = lock_recover(&shared.shutdown_signal);
        *flagged = true;
    }
    shared.shutdown_cv.notify_all();
    shared.queue_cv.notify_all();
    if first {
        fedval_obs::event("serve.server.drain", Vec::new);
        // Unblock the acceptor with a throwaway self-connection; it
        // re-checks the flag after every accept.
        let _ = TcpStream::connect(local_addr);
        // Half-close every connection for reads: blocked readers wake
        // with EOF while queued responses can still be written.
        for conn in lock_recover(&shared.conns).values() {
            let _ = conn.shutdown(Shutdown::Read);
        }
    }
}

/// Joins reader threads that already finished so a long-lived server
/// under connection churn does not accumulate dead `JoinHandle`s.
fn reap_finished_readers(shared: &Shared) {
    let finished: Vec<JoinHandle<()>> = {
        let mut threads = lock_recover(&shared.conn_threads);
        let mut out = Vec::new();
        let mut i = 0;
        while i < threads.len() {
            if threads[i].is_finished() {
                out.push(threads.swap_remove(i));
            } else {
                i += 1;
            }
        }
        out
    };
    for handle in finished {
        let _ = handle.join();
    }
}

fn acceptor_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    // The drain's self-connection (or a late client):
                    // close immediately, stop accepting.
                    drop(stream);
                    return;
                }
                reap_finished_readers(shared);
                shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
                fedval_obs::counter_add("serve.conn.accepted", 1);
                let _ = stream.set_nodelay(true);
                // Both timeouts, before any byte moves: a peer that
                // stops reading or writing can cost at most io_timeout
                // per blocked operation, never a pinned thread.
                let _ = stream.set_read_timeout(Some(shared.config.io_timeout));
                let _ = stream.set_write_timeout(Some(shared.config.io_timeout));
                if lock_recover(&shared.conns).len() >= shared.config.max_connections {
                    // Shed: one BUSY line, then close. No reader thread
                    // is spawned and nothing is registered, so a connect
                    // flood is bounded work per connection.
                    shared.stats.shed.fetch_add(1, Ordering::Relaxed);
                    fedval_obs::counter_add("serve.conn.shed", 1);
                    let mut stream = stream;
                    let line = render_err(
                        None,
                        "BUSY",
                        &format!(
                            "connection limit reached (max {})",
                            shared.config.max_connections
                        ),
                    );
                    let _ = stream
                        .write_all(line.as_bytes())
                        .and_then(|()| stream.write_all(b"\n"));
                    continue;
                }
                let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
                match stream.try_clone() {
                    Ok(registered) => {
                        lock_recover(&shared.conns).insert(conn_id, registered);
                    }
                    Err(_) => {
                        // Can't register for drain half-close; refuse the
                        // connection rather than leak an undrainable reader.
                        drop(stream);
                        continue;
                    }
                }
                let conn_shared = Arc::clone(shared);
                let handle = std::thread::spawn(move || {
                    connection_loop(&conn_shared, stream);
                    // Deregister so the duplicated fd closes with the
                    // reader; queued responses still hold their own
                    // writer clone until written.
                    lock_recover(&conn_shared.conns).remove(&conn_id);
                });
                lock_recover(&shared.conn_threads).push(handle);
            }
            Err(_) if shared.shutting_down.load(Ordering::SeqCst) => return,
            Err(_) => {
                // Transient accept failure (EMFILE, aborted handshake):
                // keep serving.
                std::thread::yield_now();
            }
        }
    }
}

/// What one framing attempt produced.
enum FrameRead {
    /// A complete frame is in the buffer.
    Frame,
    /// The frame exceeded [`MAX_FRAME`] before its newline.
    TooLarge,
    /// Clean end of stream.
    Eof,
    /// The socket read timeout expired. Any partial frame stays in
    /// `buf`; the caller decides between waiting more (byte progress
    /// was made, frame deadline not reached) and closing (stalled).
    TimedOut,
}

/// Reads one newline-terminated frame into `buf` (newline stripped,
/// trailing `\r` stripped), bounding memory at [`MAX_FRAME`]. The
/// caller clears `buf` between frames — on [`FrameRead::TimedOut`] the
/// partial frame is preserved so the read can resume.
fn read_frame(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> io::Result<FrameRead> {
    loop {
        let available = match reader.fill_buf() {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(FrameRead::TimedOut)
            }
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            // EOF. A non-empty unterminated tail is handed to the
            // parser (it will reject it as truncated if incomplete).
            return Ok(if buf.is_empty() {
                FrameRead::Eof
            } else {
                FrameRead::Frame
            });
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if buf.len() + pos > MAX_FRAME {
                    reader.consume(pos + 1);
                    return Ok(FrameRead::TooLarge);
                }
                buf.extend_from_slice(&available[..pos]);
                reader.consume(pos + 1);
                if buf.last() == Some(&b'\r') {
                    buf.pop();
                }
                return Ok(FrameRead::Frame);
            }
            None => {
                let len = available.len();
                if buf.len() + len > MAX_FRAME {
                    reader.consume(len);
                    return Ok(FrameRead::TooLarge);
                }
                buf.extend_from_slice(available);
                reader.consume(len);
            }
        }
    }
}

/// Writes one response line; returns whether the bytes went out. A
/// failed write means the client left or stalled past the write
/// timeout — either way the connection is done for.
fn write_line(writer: &Arc<Mutex<TcpStream>>, line: &str) -> bool {
    let mut stream = lock_recover(writer);
    stream
        .write_all(line.as_bytes()) // lint: allow(guard-across-blocking) — the per-connection writer lock exists to keep response lines whole; the socket write deadline bounds the hold
        .and_then(|()| stream.write_all(b"\n"))
        .is_ok()
}

/// [`write_line`] plus the failed-write tally.
fn respond(shared: &Shared, writer: &Arc<Mutex<TcpStream>>, line: &str) {
    if !write_line(writer, line) {
        shared.stats.write_failed.fetch_add(1, Ordering::Relaxed);
        fedval_obs::counter_add("serve.io.write_failed", 1);
    }
}

fn connection_loop(shared: &Arc<Shared>, stream: TcpStream) {
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let mut reader = BufReader::with_capacity(16 * 1024, stream);
    let mut buf = Vec::with_capacity(256);
    // Byte-progress deadline tracking: `frame_started` is set at the
    // first timeout tick that observes a partial frame; `last_len` is
    // the partial length at the previous tick; `idle_since` restarts
    // whenever a frame completes.
    let mut idle_since = Instant::now();
    let mut frame_started: Option<Instant> = None;
    let mut last_len = 0usize;
    loop {
        match read_frame(&mut reader, &mut buf) {
            Ok(FrameRead::Eof) | Err(_) => return,
            Ok(FrameRead::TimedOut) => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                if buf.is_empty() {
                    // Idle between frames: tolerated up to idle_timeout,
                    // then closed silently — the client sent nothing we
                    // could answer.
                    if idle_since.elapsed() >= shared.config.idle_timeout {
                        shared.stats.slow_closed.fetch_add(1, Ordering::Relaxed);
                        fedval_obs::counter_add("serve.conn.idle_closed", 1);
                        return;
                    }
                    continue;
                }
                let started = *frame_started.get_or_insert_with(Instant::now);
                let progressed = buf.len() > last_len;
                last_len = buf.len();
                if progressed && started.elapsed() < shared.config.frame_deadline {
                    continue;
                }
                // Mid-frame stall (no byte progress across a whole
                // timeout window) or slow drip past the frame deadline:
                // a slowloris peer must not pin this reader thread.
                shared.stats.slow_closed.fetch_add(1, Ordering::Relaxed);
                fedval_obs::counter_add("serve.conn.slow_closed", 1);
                respond(
                    shared,
                    &writer,
                    &render_err(None, "SLOW_CLIENT", "frame stalled mid-read; closing"),
                );
                return;
            }
            Ok(FrameRead::TooLarge) => {
                shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                fedval_obs::counter_add("serve.protocol.errors", 1);
                let err = ProtocolError::FrameTooLarge { len: MAX_FRAME + 1 };
                respond(shared, &writer, &render_err(None, err.code(), &err.to_string()));
                // Unrecoverable mid-frame: close rather than misparse
                // the remainder of the oversized frame as new frames.
                return;
            }
            Ok(FrameRead::Frame) => {
                frame_started = None;
                last_len = 0;
                idle_since = Instant::now();
                if !buf.is_empty() {
                    match parse_request(&buf) {
                        Err(err) => {
                            shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                            fedval_obs::counter_add("serve.protocol.errors", 1);
                            respond(
                                shared,
                                &writer,
                                &render_err(None, err.code(), &err.to_string()),
                            );
                            if err.is_fatal() {
                                return;
                            }
                        }
                        Ok(request) => dispatch(shared, &writer, request),
                    }
                }
                buf.clear();
            }
        }
    }
}

/// Routes one parsed request: inline kinds answer on the reader
/// thread; compute kinds go through the bounded queue.
fn dispatch(shared: &Arc<Shared>, writer: &Arc<Mutex<TcpStream>>, request: Request) {
    counter_for_kind(&request.kind);
    match request.kind {
        QueryKind::Health => {
            shared.stats.inline_answered.fetch_add(1, Ordering::Relaxed);
            // Degradation latch: `degraded` exactly when workers
            // restarted since the previous probe, then acknowledge, so
            // one probe observes the incident and the next reports `ok`
            // again unless restarts continued.
            fedval_obs::counter_add("serve.req.ok", 1);
            let restarts = shared.stats.worker_restarts.load(Ordering::Relaxed);
            let acked = shared.restarts_acked.swap(restarts, Ordering::Relaxed);
            let payload = if shared.shutting_down.load(Ordering::SeqCst) {
                "\"kind\":\"health\",\"status\":\"draining\"".to_string()
            } else if restarts > acked {
                format!(
                    "\"kind\":\"health\",\"status\":\"degraded\",\"worker_restarts\":{restarts}"
                )
            } else {
                "\"kind\":\"health\",\"status\":\"ok\"".to_string()
            };
            respond(shared, writer, &render_ok(request.id, &payload));
        }
        QueryKind::Stats => {
            shared.stats.inline_answered.fetch_add(1, Ordering::Relaxed);
            fedval_obs::counter_add("serve.req.ok", 1);
            let payload = stats_payload(shared);
            respond(shared, writer, &render_ok(request.id, &payload));
        }
        QueryKind::Metrics => {
            shared.stats.inline_answered.fetch_add(1, Ordering::Relaxed);
            // Bump before folding so the scrape's own success is
            // visible in the exposition it returns.
            fedval_obs::counter_add("serve.req.ok", 1);
            let fold = fedval_obs::metrics_fold();
            let uptime_s = shared.started.elapsed().as_secs();
            let payload = {
                let ring = shared.ring.lock();
                render_metrics_payload(&fold, uptime_s, &ring)
            };
            respond(shared, writer, &render_ok(request.id, &payload));
        }
        QueryKind::Shutdown => {
            shared.stats.inline_answered.fetch_add(1, Ordering::Relaxed);
            fedval_obs::counter_add("serve.req.ok", 1);
            // Raise the drain flag BEFORE acknowledging: once the client
            // reads the response, no later connection can be served
            // normally. This also half-closes our own socket; the next
            // read_frame sees EOF and the reader thread exits.
            initiate_shutdown(shared, local_addr_of(shared));
            respond(
                shared,
                writer,
                &render_ok(request.id, "\"kind\":\"shutdown\",\"draining\":true"),
            );
        }
        QueryKind::ChaosPanic if !shared.config.chaos_panic => {
            shared.stats.inline_answered.fetch_add(1, Ordering::Relaxed);
            fedval_obs::counter_add("serve.req.error", 1);
            respond(
                shared,
                writer,
                &render_err(
                    request.id,
                    "BAD_REQUEST",
                    "chaos-panic is disabled; start the server with --chaos-harness",
                ),
            );
        }
        _ => enqueue(shared, writer, request),
    }
}

/// The acceptor's address, recovered from any registered conn (used by
/// the reader-thread shutdown path); falls back to an unspecified
/// address — the self-connect poke then fails silently, and the
/// acceptor still exits on its next accepted connection or via
/// [`Server::wait`]'s idempotent re-poke.
fn local_addr_of(shared: &Shared) -> SocketAddr {
    lock_recover(&shared.conns)
        .values()
        .next()
        .and_then(|c| c.local_addr().ok())
        .unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0)))
}

fn enqueue(shared: &Arc<Shared>, writer: &Arc<Mutex<TcpStream>>, request: Request) {
    if shared.shutting_down.load(Ordering::SeqCst) {
        shared.stats.refused_draining.fetch_add(1, Ordering::Relaxed);
        respond(
            shared,
            writer,
            &render_err(request.id, "SHUTTING_DOWN", "server is draining"),
        );
        return;
    }
    let depth = {
        let mut queue = lock_recover(&shared.queue);
        if queue.len() >= shared.config.queue_depth {
            drop(queue);
            shared.stats.busy.fetch_add(1, Ordering::Relaxed);
            fedval_obs::counter_add("serve.busy", 1);
            respond(
                shared,
                writer,
                &render_err(
                    request.id,
                    "BUSY",
                    &format!("queue full (depth {})", shared.config.queue_depth),
                ),
            );
            return;
        }
        queue.push_back(Job {
            request,
            writer: Arc::clone(writer),
            enqueued: Instant::now(),
        });
        queue.len()
    };
    fedval_obs::gauge_set("serve.queue.depth", depth as f64);
    shared.queue_cv.notify_one();
}

/// Outer supervision shell around [`worker_loop`]: a panic that
/// escapes the per-job guard (e.g. inside queue bookkeeping) respawns
/// the loop in place instead of silently shrinking the pool. The
/// respawn is deterministic — same thread, same shared state, the
/// queue and its condvar are untouched — so a chaos run with a fixed
/// seed reproduces the identical recovery sequence.
fn supervised_worker(shared: &Arc<Shared>) {
    loop {
        if catch_unwind(AssertUnwindSafe(|| worker_loop(shared))).is_ok() {
            // Clean exit: drain finished with the queue empty.
            return;
        }
        shared.stats.worker_restarts.fetch_add(1, Ordering::Relaxed);
        fedval_obs::counter_add("serve.worker.restarts", 1);
        // Respawn even mid-drain: queued jobs still deserve answers.
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut queue = lock_recover(&shared.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    fedval_obs::gauge_set("serve.queue.depth", queue.len() as f64);
                    break Some(job);
                }
                if shared.shutting_down.load(Ordering::SeqCst) {
                    break None;
                }
                queue = match shared.queue_cv.wait(queue) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        let Some(job) = job else { return };
        process(shared, job);
    }
}

fn process(shared: &Shared, job: Job) {
    let Job {
        request,
        writer,
        enqueued,
    } = job;
    let waited = enqueued.elapsed();
    if waited > shared.config.deadline {
        shared.stats.deadline_expired.fetch_add(1, Ordering::Relaxed);
        fedval_obs::counter_add("serve.deadline_expired", 1);
        fedval_obs::counter_add("serve.req.error", 1);
        respond(
            shared,
            &writer,
            &render_err(
                request.id,
                "DEADLINE",
                &format!(
                    "queued {}ms > deadline {}ms",
                    waited.as_millis(),
                    shared.config.deadline.as_millis()
                ),
            ),
        );
        return;
    }
    let trace_id = shared.next_trace_id.fetch_add(1, Ordering::Relaxed);
    let exec_start = Instant::now();
    // Per-job guard: a panicking query (a state bug, or the deliberate
    // `chaos-panic` injection) becomes a typed `INTERNAL` response to
    // the client who asked — never a silently lost request — and the
    // worker recovers in place. Counted as a worker restart so `health`
    // degrades and operators see it.
    //
    // The whole execution runs under `capture`: every span/event the
    // state emits is buffered on this thread (metric shards still see
    // them) and only replayed into the trace sink when the request
    // turns out slow — exemplar tracing without per-request sink
    // traffic on the fast path.
    let (outcome, captured) = fedval_obs::capture(|| {
        let _span = fedval_obs::span_with("serve.request", || {
            format!("kind={} trace_id={trace_id}", request.kind.name())
        });
        catch_unwind(AssertUnwindSafe(|| shared.state.execute(&request.kind)))
    });
    let exec = exec_start.elapsed();
    let slow = exec >= shared.config.slow_trace;
    let line = match outcome {
        Ok(Ok(payload)) => {
            fedval_obs::counter_add("serve.req.ok", 1);
            if slow {
                // Tag the response so the client can join it with the
                // exemplar dumped below.
                render_ok(request.id, &format!("{payload},\"trace_id\":{trace_id}"))
            } else {
                render_ok(request.id, &payload)
            }
        }
        Ok(Err(err)) => {
            fedval_obs::counter_add("serve.req.error", 1);
            render_err(request.id, err.code, &err.detail)
        }
        Err(_) => {
            shared.stats.worker_restarts.fetch_add(1, Ordering::Relaxed);
            shared.stats.internal_errors.fetch_add(1, Ordering::Relaxed);
            fedval_obs::counter_add("serve.worker.restarts", 1);
            fedval_obs::counter_add("serve.req.internal", 1);
            fedval_obs::counter_add("serve.req.error", 1);
            render_err(
                request.id,
                "INTERNAL",
                "worker panicked mid-request; worker recovered",
            )
        }
    };
    if slow {
        let exec_ns = u64::try_from(exec.as_nanos()).unwrap_or(u64::MAX);
        fedval_obs::counter_add("serve.trace.exemplars", 1);
        fedval_obs::event("serve.trace.exemplar", || {
            vec![
                ("trace_id".to_string(), trace_id.to_string()),
                ("kind".to_string(), request.kind.name().to_string()),
                ("exec_ns".to_string(), exec_ns.to_string()),
            ]
        });
        fedval_obs::replay(captured);
    }
    respond(shared, &writer, &line);
    shared.stats.answered.fetch_add(1, Ordering::Relaxed);
    let total_ns = u64::try_from(enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX);
    fedval_obs::observe_ns("serve.request_ns", total_ns);
}

/// Bumps the per-kind request counter (static names: `counter_add`
/// requires `&'static str`).
fn counter_for_kind(kind: &QueryKind) {
    let name = match kind {
        QueryKind::CoalitionValue { .. } => "serve.req.coalition_value",
        QueryKind::Shapley => "serve.req.shapley",
        QueryKind::Nucleolus => "serve.req.nucleolus",
        QueryKind::WhatIfJoin { .. } => "serve.req.what_if_join",
        QueryKind::WhatIfLeave { .. } => "serve.req.what_if_leave",
        QueryKind::Health => "serve.req.health",
        QueryKind::Stats => "serve.req.stats",
        QueryKind::Metrics => "serve.req.metrics",
        QueryKind::Shutdown => "serve.req.shutdown",
        QueryKind::ChaosPanic => "serve.req.chaos_panic",
    };
    fedval_obs::counter_add(name, 1);
}

/// Per-kind request-counter names, in payload order. One list shared
/// by [`stats_payload`] so adding a kind cannot silently drop it from
/// `stats`.
const REQ_KIND_COUNTERS: [(&str, &str); 9] = [
    ("coalition_value", "serve.req.coalition_value"),
    ("shapley", "serve.req.shapley"),
    ("nucleolus", "serve.req.nucleolus"),
    ("what_if_join", "serve.req.what_if_join"),
    ("what_if_leave", "serve.req.what_if_leave"),
    ("health", "serve.req.health"),
    ("stats", "serve.req.stats"),
    ("metrics", "serve.req.metrics"),
    ("shutdown", "serve.req.shutdown"),
];

fn stats_payload(shared: &Shared) -> String {
    let stats = &shared.stats;
    let queue_depth = lock_recover(&shared.queue).len();
    let open_conns = lock_recover(&shared.conns).len();
    // Shed/restart tallies, the what-if cache counters, and the
    // per-kind request counts come from the sharded metric registry —
    // the same fold the `metrics` exposition reads, so the two surfaces
    // cannot drift apart. The `ServerStats` atomics stay for the
    // drain report and the health degradation latch.
    let fold = fedval_obs::metrics_fold();
    let per_kind: Vec<String> = REQ_KIND_COUNTERS
        .iter()
        .map(|(label, counter)| format!("\"{label}\":{}", fold.counter(counter)))
        .collect();
    // Past the exact cap (or under `--approx`) share queries run the
    // sampled estimator; stats must say so, with the budget actually
    // in effect — clients were misled into reading sampled CIs as
    // exact values when this was missing.
    let approx = if shared.state.approx_active() {
        let config = shared.state.approx_config();
        format!(
            ",\"approx\":true,\"approx_method\":\"permutation\",\"approx_samples\":{},\"approx_confidence\":{},\"approx_seed\":{}",
            config.samples,
            fedval_obs::json_f64(config.confidence),
            config.seed,
        )
    } else {
        ",\"approx\":false".to_string()
    };
    format!(
        "\"kind\":\"stats\",\"n\":{},\"uptime_ms\":{},\"uptime_s\":{},\"threads\":{},\"queue_depth\":{},\"queue_capacity\":{},\"accepted\":{},\"answered\":{},\"inline_answered\":{},\"busy\":{},\"deadline_expired\":{},\"protocol_errors\":{},\"refused_draining\":{},\"shed\":{},\"worker_restarts\":{},\"internal_errors\":{},\"slow_closed\":{},\"write_failed\":{},\"open_conns\":{},\"max_connections\":{},\"req_ok\":{},\"req_error\":{},\"requests\":{{{}}},\"whatif_hits\":{},\"whatif_misses\":{},\"coalitions_cached\":{}{}",
        shared.state.n(),
        shared.started.elapsed().as_millis(),
        shared.started.elapsed().as_secs(),
        shared.config.threads,
        queue_depth,
        shared.config.queue_depth,
        stats.accepted.load(Ordering::Relaxed),
        stats.answered.load(Ordering::Relaxed),
        stats.inline_answered.load(Ordering::Relaxed),
        stats.busy.load(Ordering::Relaxed),
        stats.deadline_expired.load(Ordering::Relaxed),
        stats.protocol_errors.load(Ordering::Relaxed),
        stats.refused_draining.load(Ordering::Relaxed),
        fold.counter("serve.conn.shed"),
        fold.counter("serve.worker.restarts"),
        stats.internal_errors.load(Ordering::Relaxed),
        stats.slow_closed.load(Ordering::Relaxed),
        stats.write_failed.load(Ordering::Relaxed),
        open_conns,
        shared.config.max_connections,
        fold.counter("serve.req.ok"),
        fold.counter("serve.req.error"),
        per_kind.join(","),
        fold.counter("serve.whatif.hits"),
        fold.counter("serve.whatif.misses"),
        shared.state.coalitions_cached(),
        approx,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ScenarioSpec;
    use std::io::BufRead;

    fn start_test_server(config: ServerConfig) -> Server {
        let state = ServeState::new(ScenarioSpec::paper_4_1(), 8);
        state.warm(1);
        Server::start(state, "127.0.0.1:0", config).expect("bind loopback")
    }

    fn client(addr: SocketAddr) -> (std::io::BufReader<TcpStream>, TcpStream) {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
        (reader, stream)
    }

    fn roundtrip(
        reader: &mut std::io::BufReader<TcpStream>,
        stream: &mut TcpStream,
        request: &str,
    ) -> String {
        stream
            .write_all(format!("{request}\n").as_bytes())
            .expect("send");
        let mut line = String::new();
        reader.read_line(&mut line).expect("recv");
        line.trim_end().to_string()
    }

    #[test]
    fn end_to_end_query_roundtrip() {
        let server = start_test_server(ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        });
        let (mut reader, mut stream) = client(server.local_addr());

        let health = roundtrip(&mut reader, &mut stream, "{\"id\":1,\"kind\":\"health\"}");
        assert_eq!(
            health,
            "{\"id\":1,\"ok\":true,\"kind\":\"health\",\"status\":\"ok\"}"
        );

        let a = roundtrip(&mut reader, &mut stream, "{\"id\":2,\"kind\":\"shapley\"}");
        assert!(a.contains("\"ok\":true") && a.contains("\"grand_value\":1300"), "{a}");
        let b = roundtrip(&mut reader, &mut stream, "{\"id\":2,\"kind\":\"shapley\"}");
        assert_eq!(a, b, "identical queries must be byte-identical");

        let v = roundtrip(
            &mut reader,
            &mut stream,
            "{\"id\":3,\"kind\":\"coalition-value\",\"coalition\":[1,2]}",
        );
        assert!(v.contains("\"value\":1200"), "{v}");

        let report = server.shutdown();
        assert_eq!(report.protocol_errors, 0);
        assert_eq!(report.abandoned, 0);
        assert_eq!(report.answered, 3);
    }

    #[test]
    fn malformed_frames_get_typed_errors_and_connection_survives() {
        let server = start_test_server(ServerConfig::default());
        let (mut reader, mut stream) = client(server.local_addr());

        let err = roundtrip(&mut reader, &mut stream, "this is not json");
        assert!(err.contains("\"ok\":false") && err.contains("MALFORMED"), "{err}");

        // Same connection still answers real queries.
        let ok = roundtrip(&mut reader, &mut stream, "{\"kind\":\"health\"}");
        assert!(ok.contains("\"status\":\"ok\""), "{ok}");

        let report = server.shutdown();
        assert_eq!(report.protocol_errors, 1);
    }

    #[test]
    fn oversized_frame_is_answered_then_closed() {
        let server = start_test_server(ServerConfig::default());
        let (mut reader, mut stream) = client(server.local_addr());

        let huge = "x".repeat(MAX_FRAME + 10);
        stream.write_all(huge.as_bytes()).expect("send body");
        stream.write_all(b"\n").expect("send newline");
        let mut line = String::new();
        reader.read_line(&mut line).expect("recv");
        assert!(line.contains("FRAME_TOO_LARGE"), "{line}");
        // The server closes after the fatal error: next read is EOF.
        line.clear();
        let n = reader.read_line(&mut line).expect("eof read");
        assert_eq!(n, 0, "connection must be closed, got {line:?}");

        server.shutdown();
    }

    #[test]
    fn shutdown_query_drains_cleanly() {
        let server = start_test_server(ServerConfig::default());
        let (mut reader, mut stream) = client(server.local_addr());
        let bye = roundtrip(&mut reader, &mut stream, "{\"id\":9,\"kind\":\"shutdown\"}");
        assert!(bye.contains("\"draining\":true"), "{bye}");
        let report = server.wait();
        assert_eq!(report.abandoned, 0);
    }

    #[test]
    fn stats_reports_queue_capacity() {
        let server = start_test_server(ServerConfig {
            queue_depth: 7,
            ..ServerConfig::default()
        });
        let (mut reader, mut stream) = client(server.local_addr());
        let stats = roundtrip(&mut reader, &mut stream, "{\"kind\":\"stats\"}");
        assert!(stats.contains("\"queue_capacity\":7"), "{stats}");
        assert!(stats.contains("\"coalitions_cached\":8"), "{stats}");
        assert!(stats.contains("\"uptime_s\":"), "{stats}");
        assert!(stats.contains("\"requests\":{\"coalition_value\":"), "{stats}");
        // The paper scenario (n=3) is far under the exact cap: stats
        // must advertise the exact path, with no sampling parameters.
        assert!(stats.contains("\"approx\":false"), "{stats}");
        assert!(!stats.contains("\"approx_method\""), "{stats}");
        server.shutdown();
    }

    #[test]
    fn stats_reports_sampled_estimator_when_forced() {
        let state = ServeState::new(ScenarioSpec::paper_4_1(), 8).with_approx(
            fedval_coalition::ApproxConfig {
                samples: 48,
                force: true,
                ..fedval_coalition::ApproxConfig::default()
            },
        );
        state.warm(1);
        let server =
            Server::start(state, "127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
        let (mut reader, mut stream) = client(server.local_addr());
        let stats = roundtrip(&mut reader, &mut stream, "{\"kind\":\"stats\"}");
        assert!(stats.contains("\"approx\":true"), "{stats}");
        assert!(stats.contains("\"approx_method\":\"permutation\""), "{stats}");
        assert!(stats.contains("\"approx_samples\":48"), "{stats}");
        assert!(stats.contains("\"approx_confidence\":0.95"), "{stats}");
        assert!(stats.contains("\"approx_seed\":42"), "{stats}");
        server.shutdown();
    }

    #[test]
    fn metrics_query_returns_exposition_and_ring() {
        let server = start_test_server(ServerConfig::default());
        let (mut reader, mut stream) = client(server.local_addr());
        let _ = roundtrip(&mut reader, &mut stream, "{\"id\":1,\"kind\":\"shapley\"}");
        let m = roundtrip(&mut reader, &mut stream, "{\"id\":2,\"kind\":\"metrics\"}");
        assert!(m.starts_with("{\"id\":2,\"ok\":true,\"kind\":\"metrics\""), "{m}");
        assert!(m.contains("\"uptime_s\":"), "{m}");
        // The exposition is the JSON-escaped Prometheus text; the
        // scrape's own success was counted before folding, so
        // serve_req_ok is always present and nonzero.
        assert!(m.contains("serve_req_ok "), "{m}");
        assert!(m.contains("\"ring\":["), "{m}");
        server.shutdown();
    }

    #[test]
    fn slow_requests_are_tagged_with_a_trace_id() {
        let server = start_test_server(ServerConfig {
            slow_trace: Duration::ZERO, // every compute request is "slow"
            ..ServerConfig::default()
        });
        let (mut reader, mut stream) = client(server.local_addr());
        let a = roundtrip(&mut reader, &mut stream, "{\"id\":1,\"kind\":\"shapley\"}");
        assert!(a.contains(",\"trace_id\":"), "{a}");
        // Inline kinds never go through the worker path, so they are
        // never tagged.
        let h = roundtrip(&mut reader, &mut stream, "{\"kind\":\"health\"}");
        assert!(!h.contains("trace_id"), "{h}");
        server.shutdown();
    }

    #[test]
    fn fast_requests_are_not_tagged() {
        let server = start_test_server(ServerConfig {
            slow_trace: Duration::from_secs(3600),
            ..ServerConfig::default()
        });
        let (mut reader, mut stream) = client(server.local_addr());
        let a = roundtrip(&mut reader, &mut stream, "{\"id\":1,\"kind\":\"shapley\"}");
        assert!(!a.contains("trace_id"), "{a}");
        server.shutdown();
    }
}
