//! Chaos robustness suite: a real loopback server under the seeded
//! fault injector must never panic, never leak a file descriptor,
//! never hang a worker, and keep serving byte-identical shapley
//! payloads on every surviving connection. The acceptance sweep runs
//! 24 distinct seeds; a proptest extends the claim to arbitrary seeds.

use fedval_serve::chaos::{self, ChaosConfig};
use fedval_serve::{Client, ScenarioSpec, ServeState, Server, ServerConfig};
use proptest::prelude::*;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Socket tests in this binary run serially: fd accounting and
/// connection-cap assertions are cross-talk sensitive.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    match SERIAL.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A server with deliberately tight robustness deadlines so every
/// chaos defense actually fires inside a test-sized time budget.
fn tight_config() -> ServerConfig {
    ServerConfig {
        threads: 2,
        queue_depth: 64,
        deadline: Duration::from_secs(5),
        max_connections: 12,
        io_timeout: Duration::from_millis(120),
        frame_deadline: Duration::from_millis(400),
        idle_timeout: Duration::from_secs(5),
        chaos_panic: true,
        ..ServerConfig::default()
    }
}

#[expect(
    clippy::expect_used,
    reason = "test helper: a server that cannot bind loopback fails the calling test"
)]
fn start_server(config: ServerConfig) -> Server {
    let state = ServeState::new(ScenarioSpec::paper_4_1(), 8);
    state.warm(1);
    Server::start(state, "127.0.0.1:0", config).expect("bind loopback")
}

fn chaos_config(seed: u64, rounds: u32) -> ChaosConfig {
    ChaosConfig {
        seed,
        rounds,
        probe_every: 2,
        flood: 20,
        pipeline: 8,
        drip_delay: Duration::from_millis(2),
        hold: Duration::from_millis(320),
        client_timeout: Duration::from_secs(5),
        panic_injection: true,
        expect_stall_close: true,
    }
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .map(|d| d.count())
        .unwrap_or(0)
}

/// Read and write deadline of the test clients.
const TIMEOUT: Duration = Duration::from_secs(10);

/// The acceptance sweep: 24 distinct seeds, each a full chaos campaign
/// against a fresh server. Every run must end with zero panics, zero
/// leaked fds, zero abandoned jobs, every worker drained, and the
/// determinism contract intact.
#[test]
fn chaos_campaign_survives_24_distinct_seeds() {
    let _guard = serial();
    let fds_before = open_fds();
    for seed in 0..24u64 {
        let server = start_server(tight_config());
        let addr = server.local_addr().to_string();
        let report = chaos::run(&addr, &chaos_config(seed, 5));
        assert!(
            report.passed(),
            "seed {seed}: probe_mismatches={} failures={:?}",
            report.probe_mismatches,
            report.failures
        );
        assert!(report.probes >= 3, "seed {seed}: probes must keep landing");
        assert_eq!(
            report.internal_answers, report.injected[7],
            "seed {seed}: every injected panic must come back as a typed INTERNAL"
        );

        // Worker supervision: restarts cover at least the injected panics.
        let restarts = server.stats().worker_restarts.load(Ordering::Relaxed);
        assert!(
            restarts >= report.injected[7],
            "seed {seed}: {restarts} restarts < {} injected panics",
            report.injected[7]
        );

        // Drain: wait() joins every worker and reader — a hung thread
        // fails the test by hanging it, an unserved job by abandoned.
        let drain = server.shutdown();
        assert_eq!(drain.abandoned, 0, "seed {seed}: drain left queued work");
        assert_eq!(
            drain.open_conns, 0,
            "seed {seed}: drain leaked a connection"
        );
    }
    // fd hygiene: after every server drained, the process must be back
    // to its baseline descriptor count (kernel cleanup can lag a tick).
    let mut fds_after = open_fds();
    for _ in 0..40 {
        if fds_after <= fds_before + 2 {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
        fds_after = open_fds();
    }
    assert!(
        fds_after <= fds_before + 2,
        "fd leak across chaos sweep: {fds_before} before, {fds_after} after"
    );
}

/// A flood leaves the server at its connection cap, and a closed
/// connection frees its slot only once the server's reader has seen the
/// close. Seed 1533 floods right before a panic injection, a slow drip
/// and a slow stall, with probes off so nothing runs in between; spinning
/// threads keep the cores busy so the readers lag. Over four campaigns
/// each of those faults must still be admitted, not shed.
#[test]
fn faults_right_after_a_flood_are_admitted() {
    let _guard = serial();
    let server = start_server(tight_config());
    let addr = server.local_addr().to_string();
    let config = ChaosConfig {
        probe_every: 0,
        ..chaos_config(1533, 6)
    };
    /// Stops the spinners when dropped, so a panicking campaign fails
    /// the test instead of leaving the scope waiting on them.
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(false, Ordering::Relaxed);
        }
    }
    let spinning = AtomicBool::new(true);
    let reports: Vec<chaos::ChaosReport> = std::thread::scope(|scope| {
        for _ in 0..3 {
            scope.spawn(|| {
                while spinning.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
        }
        let _stop = StopOnDrop(&spinning);
        (0..4).map(|_| chaos::run(&addr, &config)).collect()
    });
    for report in reports {
        assert!(report.passed(), "{:?}", report.failures);
        // slow-drip, slow-stall, connect-flood ×3, panic-injection.
        assert_eq!(report.injected, [1, 1, 0, 0, 0, 0, 3, 1]);
        assert_eq!(report.internal_answers, 1);
    }
    assert_eq!(server.shutdown().abandoned, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Any seed whatsoever: a short campaign must uphold the same
    /// invariants (the 24-seed sweep pins depth; this pins generality).
    #[test]
    fn chaos_campaign_survives_arbitrary_seeds(seed in any::<u64>()) {
        let _guard = serial();
        let server = start_server(tight_config());
        let addr = server.local_addr().to_string();
        let report = chaos::run(&addr, &chaos_config(seed, 3));
        prop_assert!(
            report.passed(),
            "seed {}: probe_mismatches={} failures={:?}",
            seed,
            report.probe_mismatches,
            report.failures
        );
        let drain = server.shutdown();
        prop_assert_eq!(drain.abandoned, 0);
        prop_assert_eq!(drain.open_conns, 0);
    }
}

/// A worker panic is never a lost request: the client gets `INTERNAL`,
/// the next health probe reports `degraded`, the one after `ok`, and
/// the shapley bytes never change across the incident.
#[test]
fn injected_panic_yields_internal_then_health_degrades_and_recovers() {
    let _guard = serial();
    let server = start_server(tight_config());
    let mut client = Client::connect(server.local_addr(), TIMEOUT).unwrap();

    let canonical = client.ask("{\"id\":5,\"kind\":\"shapley\"}").unwrap();
    assert!(canonical.contains("\"ok\":true"), "{canonical}");

    let internal = client.ask("{\"id\":6,\"kind\":\"chaos-panic\"}").unwrap();
    assert!(
        internal.contains("\"error\":\"INTERNAL\""),
        "panic must surface as a typed error, got: {internal}"
    );

    let degraded = client.ask("{\"id\":7,\"kind\":\"health\"}").unwrap();
    assert!(
        degraded.contains("\"status\":\"degraded\"") && degraded.contains("\"worker_restarts\":"),
        "first probe after a restart must degrade, got: {degraded}"
    );
    let recovered = client.ask("{\"id\":8,\"kind\":\"health\"}").unwrap();
    assert!(
        recovered.contains("\"status\":\"ok\""),
        "second probe must acknowledge and recover, got: {recovered}"
    );

    let again = client.ask("{\"id\":5,\"kind\":\"shapley\"}").unwrap();
    assert_eq!(
        canonical, again,
        "a worker panic must not perturb cached bytes"
    );

    // Counters surface in the stats payload (the operator's view).
    let stats = client.ask("{\"id\":9,\"kind\":\"stats\"}").unwrap();
    assert!(
        chaos::json_u64_field(&stats, "worker_restarts").unwrap_or(0) >= 1,
        "{stats}"
    );
    assert!(
        chaos::json_u64_field(&stats, "internal_errors").unwrap_or(0) >= 1,
        "{stats}"
    );

    let drain = server.shutdown();
    assert_eq!(drain.abandoned, 0);
    assert!(drain.worker_restarts >= 1);
}

/// Without `--chaos-harness` the panic query is refused, not honoured.
#[test]
fn chaos_panic_is_refused_when_harness_mode_is_off() {
    let _guard = serial();
    let server = start_server(ServerConfig {
        chaos_panic: false,
        ..tight_config()
    });
    let mut client = Client::connect(server.local_addr(), TIMEOUT).unwrap();
    let refused = client.ask("{\"id\":1,\"kind\":\"chaos-panic\"}").unwrap();
    assert!(refused.contains("\"error\":\"BAD_REQUEST\""), "{refused}");
    let drain = server.shutdown();
    assert_eq!(drain.worker_restarts, 0, "no panic may reach a worker");
}

/// Connections over the accept-time cap are shed with one BUSY line and
/// an immediate close — and the shed counter is visible in stats.
#[test]
fn connection_cap_sheds_with_busy() {
    let _guard = serial();
    let server = start_server(ServerConfig {
        max_connections: 2,
        ..tight_config()
    });
    let mut c1 = Client::connect(server.local_addr(), TIMEOUT).unwrap();
    let ok = c1.ask("{\"id\":1,\"kind\":\"health\"}").unwrap();
    assert!(ok.contains("\"kind\":\"health\""), "{ok}");
    // The stats payload sources shed counts from the process-global
    // metric registry, which earlier tests in this binary also fed;
    // assert on the delta across the shed, not the absolute value.
    let before = c1.ask("{\"id\":10,\"kind\":\"stats\"}").unwrap();
    let shed_before = chaos::json_u64_field(&before, "shed").expect("shed in stats");
    let _c2 = Client::connect(server.local_addr(), TIMEOUT).unwrap();

    // Third connection: over the cap, must get BUSY then EOF without
    // sending a byte.
    let response = Client::connect(server.local_addr(), Duration::from_secs(5))
        .unwrap()
        .recv_to_eof()
        .expect("shed line then EOF");
    assert!(
        response.contains("\"error\":\"BUSY\"") && response.contains("connection limit"),
        "expected an accept-time shed, got: {response:?}"
    );

    let stats = c1.ask("{\"id\":2,\"kind\":\"stats\"}").unwrap();
    let shed_after = chaos::json_u64_field(&stats, "shed").expect("shed in stats");
    assert_eq!(shed_after - shed_before, 1, "{stats}");
    assert_eq!(
        chaos::json_u64_field(&stats, "max_connections"),
        Some(2),
        "{stats}"
    );

    let drain = server.shutdown();
    assert_eq!(drain.shed, 1);
    assert_eq!(drain.open_conns, 0);
}

/// A frame stalled mid-read (slowloris) is closed with `SLOW_CLIENT`
/// once it stops making byte progress; the reader thread is freed.
#[test]
fn stalled_mid_frame_connection_is_closed() {
    let _guard = serial();
    let server = start_server(tight_config());
    let mut stalled = Client::connect(server.local_addr(), Duration::from_secs(5)).unwrap();
    stalled
        .socket()
        .write_all(b"{\"id\":1,\"kind\":\"shap")
        .expect("send partial frame");
    // Stop sending. After one full io_timeout window with no progress
    // the server must close with SLOW_CLIENT (or a bare EOF).
    let tail = stalled
        .recv_to_eof()
        .expect("server must close the stalled connection");
    assert!(
        tail.is_empty() || tail.contains("SLOW_CLIENT"),
        "unexpected close payload: {tail:?}"
    );

    // The slow-close is counted where operators can see it.
    let mut probe = Client::connect(server.local_addr(), TIMEOUT).unwrap();
    let stats = probe.ask("{\"id\":2,\"kind\":\"stats\"}").unwrap();
    assert!(
        chaos::json_u64_field(&stats, "slow_closed").unwrap_or(0) >= 1,
        "{stats}"
    );

    let drain = server.shutdown();
    assert_eq!(drain.open_conns, 0);
}

/// A slow-but-live client (drip inside the frame deadline) must still
/// be served: timeouts punish stalls, not slowness.
#[test]
fn slow_drip_inside_the_deadline_is_served() {
    let _guard = serial();
    let server = start_server(tight_config());
    let mut client = Client::connect(server.local_addr(), Duration::from_secs(5)).unwrap();
    for byte in b"{\"id\":3,\"kind\":\"health\"}\n" {
        client
            .socket()
            .write_all(std::slice::from_ref(byte))
            .expect("drip byte");
        std::thread::sleep(Duration::from_millis(2));
    }
    let line = client.recv().unwrap();
    assert!(line.contains("\"kind\":\"health\""), "{line}");
    server.shutdown();
}
