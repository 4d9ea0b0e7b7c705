//! fedchaos: seeded, deterministic chaos injection for the serving
//! stack.
//!
//! A chaos run sits on the client side of a live `fedval-serve`
//! loopback socket and, driven entirely by one [`ChaosRng`] seed,
//! interleaves hostile connections (slow-drip writes, mid-frame
//! truncations, abrupt resets, byte mangling, stalled reads, connect
//! floods, deliberate worker panics) with *well-behaved probe
//! connections* that assert the service contract still holds:
//!
//! * the server answers probes with **byte-identical** `shapley`
//!   payloads (the determinism contract, checked from outside);
//! * every fault either gets a typed error response or a clean close —
//!   never a hang, never a panic;
//! * `health` keeps answering, reporting `degraded` after injected
//!   worker panics and recovering to `ok`.
//!
//! The same seed replays the same fault sequence in the same order, so
//! a failing seed from CI reproduces locally with one flag. The module
//! is used three ways: from the `fedchaos` binary (against a daemon),
//! from the `chaos_robustness` integration suite (against an in-process
//! [`Server`](crate::Server)), and as a library for future harnesses.
//! Every connection it opens, probe or fault, is a [`Client`]; the
//! faults that are not whole frames write raw bytes through
//! [`Client::socket`].

use crate::client::{Client, CLOSED_MID_LINE};
use std::io::Write;
use std::net::Shutdown;
use std::time::Duration;

/// xorshift64* — tiny, seeded, deterministic; no external RNG dep.
/// Shared by the chaos injector, `fedload`'s query stream, retry
/// jitter, and the open-loop arrival process so every stochastic choice
/// in the serving toolchain replays from one seed.
#[derive(Debug, Clone)]
pub struct ChaosRng(u64);

impl ChaosRng {
    /// Seeds the generator; a zero seed is bumped to 1 (xorshift's one
    /// forbidden state).
    #[must_use]
    pub fn new(seed: u64) -> ChaosRng {
        ChaosRng(seed.max(1))
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw in `[0, n)`; `n = 0` yields 0.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 mantissa bits of the draw, scaled into the unit interval.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The faults the injector knows how to produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A valid frame written one byte at a time with a pause between
    /// bytes (slowloris). Slow but live: the server must serve it as
    /// long as it finishes inside the frame deadline.
    SlowDrip,
    /// Half a frame, then silence for `hold`. The server must close the
    /// connection (SLOW_CLIENT or EOF) instead of pinning the reader.
    SlowStall,
    /// Half a frame, then FIN. The truncated tail must get a typed
    /// error response, then a clean close.
    Truncate,
    /// A valid request whose response is never read; the socket is
    /// dropped with the response still in flight (RST on loopback).
    Reset,
    /// A valid frame with one byte corrupted: a typed parse error must
    /// come back and the connection must survive.
    Mangle,
    /// A pipelined burst whose responses are read only after a pause —
    /// exercises the server's write path against a lazy reader.
    StallRead,
    /// A burst of simultaneous connections; those over the server's
    /// connection cap must be shed with one `BUSY` line each.
    ConnectFlood,
    /// A `chaos-panic` query (server started with `--chaos-harness`):
    /// the worker must panic, recover, and answer `INTERNAL`.
    PanicInjection,
}

impl FaultKind {
    /// Every fault, in declaration order: the order of
    /// [`ChaosReport::injected`] and of a run's fault menu.
    const ALL: [FaultKind; 8] = [
        FaultKind::SlowDrip,
        FaultKind::SlowStall,
        FaultKind::Truncate,
        FaultKind::Reset,
        FaultKind::Mangle,
        FaultKind::StallRead,
        FaultKind::ConnectFlood,
        FaultKind::PanicInjection,
    ];

    /// The name that prefixes the fault's failures; the report's JSON
    /// spells it with underscores.
    fn name(self) -> &'static str {
        match self {
            FaultKind::SlowDrip => "slow-drip",
            FaultKind::SlowStall => "slow-stall",
            FaultKind::Truncate => "truncate",
            FaultKind::Reset => "reset",
            FaultKind::Mangle => "mangle",
            FaultKind::StallRead => "stall-read",
            FaultKind::ConnectFlood => "connect-flood",
            FaultKind::PanicInjection => "panic-injection",
        }
    }
}

/// Tunables for one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Master seed; the entire fault sequence derives from it.
    pub seed: u64,
    /// Fault rounds to run.
    pub rounds: u32,
    /// A well-behaved probe connection runs before round 0 and after
    /// every `probe_every` rounds (0 disables intermediate probes).
    pub probe_every: u32,
    /// Connections opened by one `ConnectFlood` round.
    pub flood: usize,
    /// Requests pipelined by one `StallRead` round.
    pub pipeline: usize,
    /// Pause between dripped bytes in a `SlowDrip` round.
    pub drip_delay: Duration,
    /// Silence window for `SlowStall` / read stall for `StallRead`.
    pub hold: Duration,
    /// Read/write timeout on the injector's own sockets — the harness
    /// must never hang even when the server misbehaves.
    pub client_timeout: Duration,
    /// Inject `chaos-panic` rounds (requires a `--chaos-harness`
    /// server; against a stock server the round expects BAD_REQUEST).
    pub panic_injection: bool,
    /// Whether `SlowStall` rounds wait for and require the server's
    /// close (true when the server runs with tight `io_timeout` /
    /// `frame_deadline`; false lets the round drop the socket itself
    /// after `hold`, for servers with production-long deadlines).
    pub expect_stall_close: bool,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            seed: 42,
            rounds: 12,
            probe_every: 2,
            flood: 12,
            pipeline: 16,
            drip_delay: Duration::from_millis(3),
            hold: Duration::from_millis(300),
            client_timeout: Duration::from_secs(5),
            panic_injection: false,
            expect_stall_close: false,
        }
    }
}

/// What one chaos run observed. `failures` holds human-readable
/// invariant violations; an empty list (and zero probe mismatches)
/// means the server survived.
#[derive(Debug, Default, Clone)]
pub struct ChaosReport {
    /// Rounds executed per fault, in [`FaultKind`] declaration order:
    /// slow-drip, slow-stall, truncate, reset, mangle, stall-read,
    /// connect-flood, panic-injection.
    pub injected: [u64; 8],
    /// Well-behaved probe connections completed.
    pub probes: u64,
    /// Probe `shapley` responses that differed from the canonical bytes.
    pub probe_mismatches: u64,
    /// `INTERNAL` responses received for injected panics.
    pub internal_answers: u64,
    /// `BUSY`-at-accept shed lines observed during floods.
    pub shed_observed: u64,
    /// Valid (`ok` or typed-error) responses received across all fault
    /// connections.
    pub answered: u64,
    /// Invariant violations, empty on a clean run.
    pub failures: Vec<String>,
}

impl ChaosReport {
    /// Whether every invariant held.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty() && self.probe_mismatches == 0
    }

    /// Renders the report as one JSON object (stable field order).
    #[must_use]
    pub fn to_json(&self) -> String {
        let injected: Vec<String> = FaultKind::ALL
            .iter()
            .zip(self.injected.iter())
            .map(|(kind, c)| format!("\"{}\":{c}", kind.name().replace('-', "_")))
            .collect();
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| format!("\"{}\"", fedval_obs::escape_json(f)))
            .collect();
        format!(
            "{{\"passed\":{},\"injected\":{{{}}},\"probes\":{},\"probe_mismatches\":{},\"internal_answers\":{},\"shed_observed\":{},\"answered\":{},\"failures\":[{}]}}",
            self.passed(),
            injected.join(","),
            self.probes,
            self.probe_mismatches,
            self.internal_answers,
            self.shed_observed,
            self.answered,
            failures.join(",")
        )
    }
}

/// Extracts a `"name":123` unsigned field from a single-line JSON
/// payload (the server's own renderer emits no whitespace, so a plain
/// scan suffices). Returns `None` when absent or malformed.
#[must_use]
pub fn json_u64_field(line: &str, name: &str) -> Option<u64> {
    let needle = format!("\"{name}\":");
    let at = line.find(&needle)? + needle.len();
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// A well-behaved probe: health must answer, shapley must be
/// byte-identical to (or establish) the canonical response body.
fn probe(
    addr: &str,
    config: &ChaosConfig,
    canonical: &mut Option<String>,
    report: &mut ChaosReport,
) {
    // Retries absorb the small deregistration lag after fault rounds
    // (a dropped fault socket frees its connection-cap slot only once
    // the server reaps the reader), so probes never flake on BUSY.
    let mut last_err = String::new();
    for _ in 0..40 {
        match probe_once(addr, config, canonical, report) {
            Ok(()) => return,
            Err(e) if e.contains("BUSY") || e.contains("connect") => {
                last_err = e;
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => {
                report.failures.push(format!("probe: {e}"));
                return;
            }
        }
    }
    report
        .failures
        .push(format!("probe never got through: {last_err}"));
}

fn probe_once(
    addr: &str,
    config: &ChaosConfig,
    canonical: &mut Option<String>,
    report: &mut ChaosReport,
) -> Result<(), String> {
    let mut client = Client::connect(addr, config.client_timeout)?;
    let health = client.ask("{\"id\":1,\"kind\":\"health\"}")?;
    if health.contains("\"error\":\"BUSY\"") {
        return Err(format!("BUSY: {health}"));
    }
    if !health.contains("\"kind\":\"health\"") {
        return Err(format!("unexpected health response: {health}"));
    }
    let shapley = client.ask("{\"id\":1,\"kind\":\"shapley\"}")?;
    if shapley.contains("\"error\":\"BUSY\"") {
        return Err(format!("BUSY: {shapley}"));
    }
    if !shapley.contains("\"ok\":true") {
        return Err(format!("probe shapley failed: {shapley}"));
    }
    match canonical {
        None => *canonical = Some(shapley),
        Some(want) => {
            if *want != shapley {
                report.probe_mismatches += 1;
            }
        }
    }
    report.probes += 1;
    let _ = client.socket().shutdown(Shutdown::Both);
    Ok(())
}

/// Whether a response line is a well-formed answer (ok or typed error).
fn is_valid_response(line: &str) -> bool {
    line.starts_with("{\"id\":") && (line.contains("\"ok\":true") || line.contains("\"ok\":false"))
}

fn inject_slow_drip(
    mut client: Client,
    config: &ChaosConfig,
    rng: &mut ChaosRng,
    report: &mut ChaosReport,
) {
    let id = 100 + rng.below(100);
    let frame = format!("{{\"id\":{id},\"kind\":\"shapley\"}}\n");
    for byte in frame.as_bytes() {
        if client
            .socket()
            .write_all(std::slice::from_ref(byte))
            .is_err()
        {
            report
                .failures
                .push("slow-drip: server closed a live (dripping) frame".to_string());
            return;
        }
        std::thread::sleep(config.drip_delay);
    }
    match client.recv() {
        Ok(line) if is_valid_response(&line) => report.answered += 1,
        Ok(line) => report
            .failures
            .push(format!("slow-drip: invalid response: {line}")),
        Err(e) => report
            .failures
            .push(format!("slow-drip: no response to a completed frame: {e}")),
    }
}

fn inject_slow_stall(
    mut client: Client,
    config: &ChaosConfig,
    rng: &mut ChaosRng,
    report: &mut ChaosReport,
) {
    let id = rng.below(1000);
    let partial = format!("{{\"id\":{id},\"kind\":\"shap");
    if client.socket().write_all(partial.as_bytes()).is_err() {
        return; // already closed: acceptable under load
    }
    std::thread::sleep(config.hold);
    if !config.expect_stall_close {
        return; // long-deadline server: just abandon the socket
    }
    // The server must have closed (or be about to close) this
    // connection: either a SLOW_CLIENT line then EOF, or a bare EOF.
    match client.recv_to_eof() {
        Ok(tail) => {
            if !(tail.is_empty() || tail.contains("SLOW_CLIENT")) {
                report
                    .failures
                    .push(format!("slow-stall: unexpected close payload: {tail}"));
            }
        }
        Err(e) => report.failures.push(format!(
            "slow-stall: server kept a stalled frame open past hold+timeout: {e}"
        )),
    }
}

fn inject_truncate(mut client: Client, rng: &mut ChaosRng, report: &mut ChaosReport) {
    let id = rng.below(1000);
    let frame = format!("{{\"id\":{id},\"kind\":\"shapley\"}}");
    #[expect(
        clippy::cast_possible_truncation,
        reason = "below(n) < n, and n came from a usize"
    )]
    let cut = 1 + (rng.below(frame.len() as u64 - 1) as usize);
    if client.socket().write_all(&frame.as_bytes()[..cut]).is_err() {
        return;
    }
    let _ = client.socket().shutdown(Shutdown::Write); // FIN mid-frame
    match client.recv() {
        Ok(line) if line.contains("\"ok\":false") => report.answered += 1,
        Ok(line) => report
            .failures
            .push(format!("truncate: expected a typed error, got: {line}")),
        Err(e) => report.failures.push(format!(
            "truncate: no error response for a truncated frame: {e}"
        )),
    }
}

fn inject_reset(mut client: Client, rng: &mut ChaosRng) {
    let id = rng.below(1000);
    let _ = client.send(&format!("{{\"id\":{id},\"kind\":\"shapley\"}}"));
    // Drop with the response unread: on loopback the pending receive
    // data turns the close into an RST, so the server's write path sees
    // a hard connection failure (counted in `write_failed`).
    drop(client);
}

fn inject_mangle(mut client: Client, rng: &mut ChaosRng, report: &mut ChaosReport) {
    let id = rng.below(1000);
    let mut frame = format!("{{\"id\":{id},\"kind\":\"shapley\"}}");
    // Corrupt one byte strictly inside the frame (never the newline).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "below(n) < n, and n came from a usize"
    )]
    let at = 1 + (rng.below(frame.len() as u64 - 2) as usize);
    frame.replace_range(at..=at, "#");
    if client.send(&frame).is_err() {
        return;
    }
    match client.recv() {
        Ok(line) if line.contains("\"ok\":false") => report.answered += 1,
        // A lucky mangle can still parse (e.g. inside the id digits):
        // an ok response is then legitimate.
        Ok(line) if line.contains("\"ok\":true") => report.answered += 1,
        Ok(line) => report
            .failures
            .push(format!("mangle: invalid response: {line}")),
        Err(e) => report
            .failures
            .push(format!("mangle: no response to a mangled frame: {e}")),
    }
}

fn inject_stall_read(
    mut client: Client,
    config: &ChaosConfig,
    rng: &mut ChaosRng,
    report: &mut ChaosReport,
) {
    let base = rng.below(10_000);
    let mut burst = String::new();
    for i in 0..config.pipeline {
        burst.push_str(&format!(
            "{{\"id\":{},\"kind\":\"shapley\"}}\n",
            base + i as u64
        ));
    }
    if client.socket().write_all(burst.as_bytes()).is_err() {
        return;
    }
    // Refuse to read while the server answers the whole burst.
    std::thread::sleep(config.hold);
    for _ in 0..config.pipeline {
        match client.recv() {
            Ok(line) if is_valid_response(&line) => report.answered += 1,
            Ok(line) => {
                report
                    .failures
                    .push(format!("stall-read: invalid response: {line}"));
                return;
            }
            Err(e) if e.starts_with(CLOSED_MID_LINE) => {
                report.failures.push(format!("stall-read: {e}"));
                return;
            }
            // The server gave up on the lazy reader, or the tail timed
            // out: acceptable.
            Err(_) => return,
        }
    }
}

fn inject_connect_flood(addr: &str, config: &ChaosConfig, report: &mut ChaosReport) {
    let mut held: Vec<Client> = Vec::new();
    for _ in 0..config.flood {
        match Client::connect(addr, config.client_timeout) {
            Ok(client) => held.push(client),
            Err(_) => break, // backlog exhausted: the flood did its job
        }
    }
    // Each connection either serves a health probe or was shed with one
    // BUSY line at accept time; both are clean outcomes. Hangs are not.
    // Every connection stays open until all have been asked: closing one
    // mid-flood frees a slot, and a reader that answers faster than the
    // acceptor accepts would then let the whole burst in unshed.
    for client in &mut held {
        match client.ask("{\"id\":2,\"kind\":\"health\"}") {
            Ok(line) if line.contains("\"error\":\"BUSY\"") => report.shed_observed += 1,
            Ok(line) if line.contains("\"kind\":\"health\"") => report.answered += 1,
            Ok(line) => report
                .failures
                .push(format!("flood: invalid response: {line}")),
            // A shed socket may already carry the BUSY line + FIN; a
            // failed send/recv after shed is a clean refusal too.
            Err(_) => report.shed_observed += 1,
        }
    }
    // A closed connection frees its slot only once the server's reader
    // has seen the close, so right after the flood closes the server can
    // still be at its cap and shed the next fault's connection.
    drop(held);
    if let Err(e) = await_free_slot(addr, config) {
        report.failures.push(format!("connect-flood: {e}"));
    }
}

/// Asks `stats` on fresh connections until one is answered with fewer
/// open connections, itself included, than the server's cap: the next
/// connection is then admitted even if this one's slot is not yet free.
fn await_free_slot(addr: &str, config: &ChaosConfig) -> Result<(), String> {
    let mut last = String::new();
    for _ in 0..40 {
        match Client::connect(addr, config.client_timeout)
            .and_then(|mut client| client.ask("{\"id\":3,\"kind\":\"stats\"}"))
        {
            Ok(stats) => {
                let open = json_u64_field(&stats, "open_conns");
                let cap = json_u64_field(&stats, "max_connections");
                if matches!((open, cap), (Some(open), Some(cap)) if open < cap) {
                    return Ok(());
                }
                last = stats;
            }
            Err(e) => last = e,
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    Err(format!(
        "the server kept its cap full after the flood: {last}"
    ))
}

fn inject_panic(mut client: Client, rng: &mut ChaosRng, report: &mut ChaosReport) {
    let id = rng.below(1000);
    match client.ask(&format!("{{\"id\":{id},\"kind\":\"chaos-panic\"}}")) {
        Ok(line) if line.contains("\"error\":\"INTERNAL\"") => {
            report.internal_answers += 1;
            report.answered += 1;
        }
        Ok(line) if line.contains("\"error\":\"BAD_REQUEST\"") => {
            // Server without --chaos-harness: refusal is the contract.
            report.answered += 1;
        }
        Ok(line) => report
            .failures
            .push(format!("panic-injection: unexpected response: {line}")),
        Err(e) => report.failures.push(format!(
            "panic-injection: worker panic lost the request: {e}"
        )),
    }
}

/// Runs one fault round: the connect flood opens its own connections,
/// every other fault runs on one fresh [`Client`].
fn inject(
    addr: &str,
    kind: FaultKind,
    config: &ChaosConfig,
    rng: &mut ChaosRng,
    report: &mut ChaosReport,
) {
    let client = match kind {
        FaultKind::ConnectFlood => return inject_connect_flood(addr, config, report),
        _ => match Client::connect(addr, config.client_timeout) {
            Ok(client) => client,
            Err(e) => return report.failures.push(format!("{}: {e}", kind.name())),
        },
    };
    match kind {
        FaultKind::SlowDrip => inject_slow_drip(client, config, rng, report),
        FaultKind::SlowStall => inject_slow_stall(client, config, rng, report),
        FaultKind::Truncate => inject_truncate(client, rng, report),
        FaultKind::Reset => inject_reset(client, rng),
        FaultKind::Mangle => inject_mangle(client, rng, report),
        FaultKind::StallRead => inject_stall_read(client, config, rng, report),
        FaultKind::PanicInjection => inject_panic(client, rng, report),
        FaultKind::ConnectFlood => {} // flooded above
    }
}

/// Runs one full seeded chaos campaign against `addr` and reports what
/// it observed. Never panics and never hangs (every injector socket
/// carries both deadlines).
#[must_use]
pub fn run(addr: &str, config: &ChaosConfig) -> ChaosReport {
    let mut rng = ChaosRng::new(config.seed);
    let mut report = ChaosReport::default();
    let mut canonical: Option<String> = None;

    // Establish the canonical shapley bytes before any fault lands.
    probe(addr, config, &mut canonical, &mut report);

    let menu: Vec<FaultKind> = FaultKind::ALL
        .into_iter()
        .filter(|kind| config.panic_injection || *kind != FaultKind::PanicInjection)
        .collect();
    for round in 0..config.rounds {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "below(n) < n, and n came from a usize"
        )]
        let kind = menu[rng.below(menu.len() as u64) as usize];
        report.injected[kind as usize] += 1;
        inject(addr, kind, config, &mut rng, &mut report);
        if config.probe_every > 0 && (round + 1) % config.probe_every == 0 {
            probe(addr, config, &mut canonical, &mut report);
        }
    }

    // Final probe: the server must still be serving canonical bytes
    // after the full campaign.
    probe(addr, config, &mut canonical, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_seed_sensitive() {
        let mut a = ChaosRng::new(7);
        let mut b = ChaosRng::new(7);
        let mut c = ChaosRng::new(8);
        let seq_a: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let seq_b: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let seq_c: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(seq_a, seq_b);
        assert_ne!(seq_a, seq_c);
        // Zero seed is legal (bumped internally).
        assert_ne!(ChaosRng::new(0).next_u64(), 0);
    }

    #[test]
    fn unit_draws_stay_in_the_unit_interval() {
        let mut rng = ChaosRng::new(99);
        for _ in 0..1000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u), "{u}");
        }
        assert!(ChaosRng::new(5).below(0) == 0);
    }

    /// `injected[kind as usize]` counts a round, and `to_json` names
    /// the counts in `ALL` order: both must be declaration order.
    #[test]
    fn all_lists_every_fault_in_declaration_order() {
        for (i, kind) in FaultKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind:?}");
        }
    }

    #[test]
    fn json_u64_field_scans_flat_payloads() {
        let line = "{\"id\":0,\"ok\":true,\"kind\":\"stats\",\"shed\":3,\"worker_restarts\":2}";
        assert_eq!(json_u64_field(line, "shed"), Some(3));
        assert_eq!(json_u64_field(line, "worker_restarts"), Some(2));
        assert_eq!(json_u64_field(line, "absent"), None);
        assert_eq!(json_u64_field("\"x\":abc", "x"), None);
    }

    #[test]
    fn report_json_is_stable_and_escapes_failures() {
        let mut r = ChaosReport::default();
        assert!(r.passed());
        r.injected[0] = 2;
        r.failures.push("bad \"quote\"".to_string());
        let json = r.to_json();
        assert!(json.contains("\"passed\":false"));
        assert!(json.contains(
            "\"injected\":{\"slow_drip\":2,\"slow_stall\":0,\"truncate\":0,\"reset\":0,\"mangle\":0,\"stall_read\":0,\"connect_flood\":0,\"panic_injection\":0}"
        ));
        assert!(json.contains("bad \\\"quote\\\""));
    }

    /// A failure that quotes server bytes (slow-stall's close payload)
    /// may hold newlines and control characters; the report must stay
    /// one line of valid JSON.
    #[test]
    fn report_json_escapes_control_characters_in_failures() {
        let mut r = ChaosReport::default();
        r.failures
            .push("slow-stall: unexpected close payload: a\nb\u{1}c".to_string());
        let json = r.to_json();
        assert!(
            json.contains("unexpected close payload: a\\nb\\u0001c"),
            "{json}"
        );
        assert!(!json.chars().any(char::is_control), "{json:?}");
    }
}
