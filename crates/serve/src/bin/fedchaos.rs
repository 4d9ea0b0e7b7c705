//! `fedchaos` — seeded chaos campaigns against a live `fedval-serve`.
//!
//! Runs the [`fedval_serve::chaos`] fault injector (slowloris drips,
//! mid-frame truncations, resets, byte mangling, stalled reads,
//! connect floods, optional deliberate worker panics) against `--addr`
//! and exits nonzero unless every survival invariant held: probes keep
//! answering byte-identical `shapley` payloads, every completed frame
//! gets a valid response, stalls are closed, floods are shed.
//!
//! ```text
//! fedval-serve --addr 127.0.0.1:0 --warm --chaos-harness \
//!              --max-connections 24 --io-timeout-ms 500 &
//! fedchaos --addr 127.0.0.1:PORT --seed 7 --rounds 16 --panic-injection \
//!          --expect-stall-close --stats
//! ```
//!
//! `--seeds N` sweeps N consecutive seeds starting at `--seed` in one
//! invocation (the CI chaos stage and the acceptance bar's ≥ 20-seed
//! sweep); the run stops at the first failing seed so the failure is
//! attributable and reproducible with `--seed <that seed>`.
#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a command-line tool reports on stdout and stderr"
)]

use fedval_serve::chaos::{self, ChaosConfig};
use fedval_serve::client;
use std::process::ExitCode;
use std::time::Duration;

#[derive(Debug)]
struct Options {
    addr: String,
    config: ChaosConfig,
    seeds: u64,
    stats: bool,
    metrics: Option<String>,
    shutdown: bool,
}

fn usage() -> &'static str {
    "usage: fedchaos --addr HOST:PORT [options]\n\
     \n\
     options:\n\
       --addr HOST:PORT        server to attack (required)\n\
       --seed S                master seed (default 42)\n\
       --seeds N               sweep N consecutive seeds from --seed (default 1)\n\
       --rounds N              fault rounds per seed (default 12)\n\
       --probe-every N         well-behaved probe cadence (default 2; 0 = off)\n\
       --flood N               connections per connect-flood round (default 12)\n\
       --pipeline N            requests per stalled-read round (default 16)\n\
       --drip-delay-ms MS      pause between dripped bytes (default 3)\n\
       --hold-ms MS            stall/hold window (default 300)\n\
       --client-timeout-ms MS  harness socket deadlines (default 5000)\n\
       --panic-injection       include chaos-panic rounds (server must run\n\
                               with --chaos-harness)\n\
       --expect-stall-close    require the server to close stalled frames\n\
                               (use with tight --io-timeout-ms servers)\n\
       --stats                 print the server's stats payload after the run\n\
       --metrics PATH          dump the harness's merged metric registry\n\
                               (timing-free JSON) at exit\n\
       --shutdown              send a shutdown query when the campaign ends\n"
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        addr: String::new(),
        config: ChaosConfig::default(),
        seeds: 1,
        stats: false,
        metrics: None,
        shutdown: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--panic-injection" => {
                opts.config.panic_injection = true;
                continue;
            }
            "--expect-stall-close" => {
                opts.config.expect_stall_close = true;
                continue;
            }
            "--stats" => {
                opts.stats = true;
                continue;
            }
            "--shutdown" => {
                opts.shutdown = true;
                continue;
            }
            "--help" | "-h" => return Err(usage().to_string()),
            _ => {}
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--addr" => opts.addr = value.clone(),
            "--seed" => {
                opts.config.seed = value.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seeds" => {
                let n: u64 = value.parse().map_err(|e| format!("--seeds: {e}"))?;
                if n == 0 {
                    return Err("--seeds must be at least 1".to_string());
                }
                opts.seeds = n;
            }
            "--rounds" => {
                opts.config.rounds = value.parse().map_err(|e| format!("--rounds: {e}"))?;
            }
            "--probe-every" => {
                opts.config.probe_every =
                    value.parse().map_err(|e| format!("--probe-every: {e}"))?;
            }
            "--flood" => {
                opts.config.flood = value.parse().map_err(|e| format!("--flood: {e}"))?;
            }
            "--pipeline" => {
                opts.config.pipeline = value.parse().map_err(|e| format!("--pipeline: {e}"))?;
            }
            "--drip-delay-ms" => {
                let ms: u64 = value.parse().map_err(|e| format!("--drip-delay-ms: {e}"))?;
                opts.config.drip_delay = Duration::from_millis(ms);
            }
            "--hold-ms" => {
                let ms: u64 = value.parse().map_err(|e| format!("--hold-ms: {e}"))?;
                opts.config.hold = Duration::from_millis(ms);
            }
            "--metrics" => opts.metrics = Some(value.clone()),
            "--client-timeout-ms" => {
                let ms: u64 = value
                    .parse()
                    .map_err(|e| format!("--client-timeout-ms: {e}"))?;
                if ms == 0 {
                    return Err("--client-timeout-ms must be at least 1".to_string());
                }
                opts.config.client_timeout = Duration::from_millis(ms);
            }
            other => return Err(format!("unknown flag '{other}'\n\n{}", usage())),
        }
    }
    if opts.addr.is_empty() {
        return Err(usage().to_string());
    }
    Ok(opts)
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse(&args)?;
    if opts.metrics.is_some() {
        // Turn on metric collection (no trace sink) so the campaign's
        // client-side telemetry accumulates for the exit dump.
        fedval_obs::ensure_enabled();
    }

    let mut failed = false;
    for offset in 0..opts.seeds {
        let config = ChaosConfig {
            seed: opts.config.seed.wrapping_add(offset),
            ..opts.config.clone()
        };
        let report = chaos::run(&opts.addr, &config);
        fedval_obs::counter_add("chaos.seeds", 1);
        fedval_obs::counter_add("chaos.probe_mismatches", report.probe_mismatches);
        fedval_obs::counter_add("chaos.invariant_failures", report.failures.len() as u64);
        println!(
            "{{\"seed\":{},\"report\":{}}}",
            config.seed,
            report.to_json()
        );
        if !report.passed() {
            eprintln!(
                "seed {} FAILED: {} probe mismatches, {} invariant violations:",
                config.seed,
                report.probe_mismatches,
                report.failures.len()
            );
            for failure in &report.failures {
                eprintln!("  - {failure}");
            }
            failed = true;
            break;
        }
    }

    if opts.stats {
        let stats = "{\"id\":0,\"kind\":\"stats\"}";
        println!(
            "{}",
            client::query(&opts.addr, opts.config.client_timeout, stats)?
        );
    }
    if let Some(path) = &opts.metrics {
        // Written even for failed campaigns: the dump is the evidence.
        let json = fedval_obs::metrics_fold().to_json();
        std::fs::write(path, format!("{json}\n")).map_err(|e| format!("--metrics {path}: {e}"))?;
    }
    if opts.shutdown {
        let shutdown = "{\"id\":0,\"kind\":\"shutdown\"}";
        client::query(&opts.addr, opts.config.client_timeout, shutdown)?;
    }
    if failed {
        return Err("chaos campaign failed; rerun with the printed seed to reproduce".to_string());
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
            "--seed",
            "7",
            "--seeds",
            "24",
            "--rounds",
            "6",
            "--probe-every",
            "3",
            "--flood",
            "20",
            "--pipeline",
            "8",
            "--drip-delay-ms",
            "2",
            "--hold-ms",
            "250",
            "--client-timeout-ms",
            "900",
            "--metrics",
            "chaos-metrics.json",
            "--panic-injection",
            "--expect-stall-close",
            "--stats",
            "--shutdown",
        ]))
        .unwrap();
        assert_eq!(opts.addr, "127.0.0.1:9");
        assert_eq!(opts.config.seed, 7);
        assert_eq!(opts.seeds, 24);
        assert_eq!(opts.config.rounds, 6);
        assert_eq!(opts.config.probe_every, 3);
        assert_eq!(opts.config.flood, 20);
        assert_eq!(opts.config.pipeline, 8);
        assert_eq!(opts.config.drip_delay, Duration::from_millis(2));
        assert_eq!(opts.config.hold, Duration::from_millis(250));
        assert_eq!(opts.config.client_timeout, Duration::from_millis(900));
        assert!(opts.config.panic_injection);
        assert!(opts.config.expect_stall_close);
        assert!(opts.stats);
        assert_eq!(opts.metrics.as_deref(), Some("chaos-metrics.json"));
        assert!(opts.shutdown);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&args(&[])).is_err(), "--addr is required");
        assert!(parse(&args(&["--addr", "x", "--seeds", "0"])).is_err());
        assert!(parse(&args(&["--addr", "x", "--client-timeout-ms", "0"])).is_err());
        assert!(parse(&args(&["--addr", "x", "--frobnicate", "1"])).is_err());
        assert!(parse(&args(&["--addr"])).is_err());
    }
}
