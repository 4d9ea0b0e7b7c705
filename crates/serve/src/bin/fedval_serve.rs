//! `fedval-serve` — the online policy-query daemon.
//!
//! Loads a federation scenario, optionally fills its `2^n` coalition
//! table and the ϕ̂ and nucleolus share payloads, then serves
//! newline-framed queries over TCP until a `shutdown` query arrives:
//!
//! ```text
//! fedval-serve --addr 127.0.0.1:7411 --warm
//! fedval-serve --addr 127.0.0.1:0 --threads 2 --queue-depth 256 \
//!              --deadline-ms 500 --locations 100,400,800 --threshold 500
//! ```
//!
//! The daemon prints `listening on ADDR` once it is ready (with the
//! real port when `:0` was requested — scripts parse this line), and a
//! drain summary when it exits. Exit code 0 means a clean drain.
#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a command-line tool reports on stdout and stderr"
)]

use fedval_coalition::{ApproxConfig, MAX_SAMPLED_PLAYERS};
use fedval_serve::state::ScenarioSpec;
use fedval_serve::{Server, ServerConfig, ServeState};
use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

#[derive(Debug)]
struct Options {
    addr: String,
    threads: usize,
    queue_depth: usize,
    deadline_ms: u64,
    max_connections: usize,
    io_timeout_ms: u64,
    frame_deadline_ms: u64,
    idle_timeout_ms: u64,
    chaos_harness: bool,
    warm: bool,
    whatif_cache: usize,
    slow_trace_ms: u64,
    spec: ScenarioSpec,
    approx: ApproxConfig,
    trace: Option<String>,
}

fn usage() -> &'static str {
    "usage: fedval-serve [options]\n\
     \n\
     server options:\n\
       --addr ADDR              bind address            (default 127.0.0.1:7411;\n\
                                use port 0 for an ephemeral port)\n\
       --threads N              worker threads          (default: available\n\
                                hardware parallelism)\n\
       --queue-depth N          bounded request queue; full => BUSY\n\
                                (default 1024)\n\
       --deadline-ms MS         per-request queue deadline (default 2000)\n\
       --max-connections N      accept-time connection cap; over it new\n\
                                connections are shed with BUSY (default 256)\n\
       --io-timeout-ms MS       per-socket read AND write timeout (default 10000)\n\
       --frame-deadline-ms MS   max wall time for one frame, first byte to\n\
                                newline — slowloris defense (default 10000)\n\
       --idle-timeout-ms MS     close connections idle between frames this\n\
                                long (default 60000)\n\
       --chaos-harness          honour the chaos-panic query (fedchaos runs;\n\
                                never enable in production)\n\
       --warm                   fill the 2^n coalition table (n <= 16) and the\n\
                                shapley/nucleolus payloads before listening\n\
       --whatif-cache N         bounded LRU of derived what-if scenarios\n\
                                (default 64)\n\
       --slow-trace-ms MS       compute requests executing at least this long\n\
                                dump their span tree to the trace sink and\n\
                                carry a trace_id in the response (default 250;\n\
                                0 traces every request)\n\
       --trace PATH             write a JSONL observability trace\n\
     \n\
     scenario options (defaults reproduce the paper's §4.1 example):\n\
       --locations L1,L2,...    locations per facility  (default 100,400,800)\n\
       --capacities R1,R2,...   capacity per location   (default 1,1,...)\n\
       --threshold l            diversity threshold     (default 500)\n\
       --shape d                utility exponent        (default 1)\n\
       --volume K               experiments; 'fill' for capacity-filling\n\
       --synthetic N[:SEED]     serve the seeded large-n synthetic federation\n\
                                (fedval-testbed generator; overrides the\n\
                                scenario flags above; default seed 42)\n\
     \n\
     sampled-Shapley options (past 16 facilities shapley and what-if\n\
     queries answer from the seeded estimator with confidence intervals):\n\
       --approx                 force the sampled estimator even below the\n\
                                exact cap\n\
       --approx-samples N       sampling budget          (default 256)\n\
       --approx-seed S          RNG seed; same seed, same bytes (default 42)\n\
       --confidence C           CI confidence level in (0,1) (default 0.95)\n"
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        addr: "127.0.0.1:7411".to_string(),
        threads: fedval_serve::server::available_threads(),
        queue_depth: 1024,
        deadline_ms: 2_000,
        max_connections: 256,
        io_timeout_ms: 10_000,
        frame_deadline_ms: 10_000,
        idle_timeout_ms: 60_000,
        chaos_harness: false,
        warm: false,
        whatif_cache: 64,
        slow_trace_ms: 250,
        spec: ScenarioSpec::paper_4_1(),
        approx: ApproxConfig::default(),
        trace: None,
    };
    opts.spec.capacities = Vec::new(); // re-defaulted below to match --locations
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--warm" {
            opts.warm = true;
            continue;
        }
        if flag == "--chaos-harness" {
            opts.chaos_harness = true;
            continue;
        }
        if flag == "--approx" {
            opts.approx.force = true;
            continue;
        }
        if flag == "--help" || flag == "-h" {
            return Err(usage().to_string());
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--addr" => opts.addr = value.clone(),
            "--threads" => {
                let n: usize = value.parse().map_err(|e| format!("--threads: {e}"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                opts.threads = n;
            }
            "--queue-depth" => {
                let n: usize = value.parse().map_err(|e| format!("--queue-depth: {e}"))?;
                if n == 0 {
                    return Err("--queue-depth must be at least 1".to_string());
                }
                opts.queue_depth = n;
            }
            "--deadline-ms" => {
                opts.deadline_ms = value.parse().map_err(|e| format!("--deadline-ms: {e}"))?;
            }
            "--max-connections" => {
                let n: usize = value
                    .parse()
                    .map_err(|e| format!("--max-connections: {e}"))?;
                if n == 0 {
                    return Err("--max-connections must be at least 1".to_string());
                }
                opts.max_connections = n;
            }
            "--io-timeout-ms" => {
                let ms: u64 = value.parse().map_err(|e| format!("--io-timeout-ms: {e}"))?;
                if ms == 0 {
                    return Err("--io-timeout-ms must be at least 1".to_string());
                }
                opts.io_timeout_ms = ms;
            }
            "--frame-deadline-ms" => {
                opts.frame_deadline_ms = value
                    .parse()
                    .map_err(|e| format!("--frame-deadline-ms: {e}"))?;
            }
            "--idle-timeout-ms" => {
                opts.idle_timeout_ms = value
                    .parse()
                    .map_err(|e| format!("--idle-timeout-ms: {e}"))?;
            }
            "--whatif-cache" => {
                opts.whatif_cache = value.parse().map_err(|e| format!("--whatif-cache: {e}"))?;
            }
            "--slow-trace-ms" => {
                opts.slow_trace_ms = value
                    .parse()
                    .map_err(|e| format!("--slow-trace-ms: {e}"))?;
            }
            "--locations" => {
                opts.spec.locations = value
                    .split(',')
                    .map(|v| v.trim().parse::<u32>())
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("--locations: {e}"))?;
            }
            "--capacities" => {
                opts.spec.capacities = value
                    .split(',')
                    .map(|v| v.trim().parse::<u64>())
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("--capacities: {e}"))?;
            }
            "--threshold" => {
                opts.spec.threshold =
                    value.parse().map_err(|e| format!("--threshold: {e}"))?;
            }
            "--shape" => {
                opts.spec.shape = value.parse().map_err(|e| format!("--shape: {e}"))?;
            }
            "--volume" => {
                opts.spec.volume = if value == "fill" {
                    None
                } else {
                    Some(value.parse().map_err(|e| format!("--volume: {e}"))?)
                };
            }
            "--synthetic" => {
                let (n, seed) = match value.split_once(':') {
                    Some((n, seed)) => (
                        n.parse::<usize>().map_err(|e| format!("--synthetic: {e}"))?,
                        seed.parse::<u64>().map_err(|e| format!("--synthetic: {e}"))?,
                    ),
                    None => (
                        value.parse::<usize>().map_err(|e| format!("--synthetic: {e}"))?,
                        42,
                    ),
                };
                if n == 0 || n > MAX_SAMPLED_PLAYERS {
                    return Err(format!(
                        "--synthetic: need between 1 and {MAX_SAMPLED_PLAYERS} authorities"
                    ));
                }
                let (draws, threshold) = fedval_testbed::synthetic_profile(n, seed);
                opts.spec.locations = draws.iter().map(|&(l, _)| l).collect();
                opts.spec.capacities = draws.iter().map(|&(_, r)| r).collect();
                opts.spec.threshold = threshold;
                opts.spec.shape = 1.0;
                opts.spec.volume = Some(1);
            }
            "--approx-samples" => {
                opts.approx.samples = value
                    .parse()
                    .map_err(|e| format!("--approx-samples: {e}"))?;
                if opts.approx.samples == 0 {
                    return Err("--approx-samples must be at least 1".to_string());
                }
            }
            "--approx-seed" => {
                opts.approx.seed = value.parse().map_err(|e| format!("--approx-seed: {e}"))?;
            }
            "--confidence" => {
                opts.approx.confidence =
                    value.parse().map_err(|e| format!("--confidence: {e}"))?;
                if !(opts.approx.confidence > 0.0 && opts.approx.confidence < 1.0) {
                    return Err("--confidence must be strictly between 0 and 1".to_string());
                }
            }
            "--trace" => opts.trace = Some(value.clone()),
            other => return Err(format!("unknown flag '{other}'\n\n{}", usage())),
        }
    }
    if opts.spec.locations.is_empty() || opts.spec.locations.len() > MAX_SAMPLED_PLAYERS {
        return Err(format!(
            "need between 1 and {MAX_SAMPLED_PLAYERS} facilities"
        ));
    }
    if opts.spec.capacities.is_empty() {
        opts.spec.capacities = vec![1; opts.spec.locations.len()];
    }
    if opts.spec.capacities.len() != opts.spec.locations.len() {
        return Err("--capacities must match --locations in length".to_string());
    }
    if opts.spec.capacities.contains(&0) {
        return Err("--capacities must each be at least 1".to_string());
    }
    if !(opts.spec.threshold.is_finite() && opts.spec.threshold >= 0.0) {
        return Err("--threshold must be finite and at least 0".to_string());
    }
    if !(opts.spec.shape.is_finite() && opts.spec.shape > 0.0) {
        return Err("--shape must be finite and positive".to_string());
    }
    Ok(opts)
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse(&args)?;

    if let Some(path) = &opts.trace {
        let sink = fedval_obs::FileSink::create(path)
            .map_err(|e| format!("--trace {path}: {e}"))?;
        fedval_obs::install(std::sync::Arc::new(sink));
    }

    let approx = ApproxConfig {
        threads: opts.threads,
        ..opts.approx
    };
    let state = ServeState::new(opts.spec.clone(), opts.whatif_cache).with_approx(approx);
    if opts.warm {
        let report = state.warm(opts.threads);
        println!(
            "warmed {} coalition values (n={}), shapley={}, nucleolus={}",
            report.coalitions,
            opts.spec.n(),
            if report.shapley_ok { "ok" } else { "FAILED" },
            if report.nucleolus_ok { "ok" } else { "FAILED" },
        );
    }

    let config = ServerConfig {
        threads: opts.threads,
        queue_depth: opts.queue_depth,
        deadline: Duration::from_millis(opts.deadline_ms),
        max_connections: opts.max_connections,
        io_timeout: Duration::from_millis(opts.io_timeout_ms),
        frame_deadline: Duration::from_millis(opts.frame_deadline_ms),
        idle_timeout: Duration::from_millis(opts.idle_timeout_ms),
        chaos_panic: opts.chaos_harness,
        slow_trace: Duration::from_millis(opts.slow_trace_ms),
    };
    let server = Server::start(state, &opts.addr, config)
        .map_err(|e| format!("bind {}: {e}", opts.addr))?;

    // Scripts (ci.sh, fedload wrappers) parse this exact line for the
    // resolved ephemeral port; flush so they see it before any queries.
    println!("listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();

    let report = server.wait();
    println!(
        "drained: accepted={} answered={} busy={} deadline_expired={} protocol_errors={} shed={} worker_restarts={} abandoned={} open_conns={}",
        report.accepted,
        report.answered,
        report.busy,
        report.deadline_expired,
        report.protocol_errors,
        report.shed,
        report.worker_restarts,
        report.abandoned,
        report.open_conns,
    );
    if opts.trace.is_some() {
        fedval_obs::shutdown();
    }
    if report.abandoned != 0 {
        return Err(format!("drain abandoned {} queued jobs", report.abandoned));
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
    fn defaults_serve_the_worked_example() {
        let opts = parse(&args(&[])).unwrap();
        assert_eq!(opts.addr, "127.0.0.1:7411");
        assert_eq!(opts.spec, ScenarioSpec::paper_4_1());
        assert_eq!(opts.queue_depth, 1024);
        assert_eq!(opts.deadline_ms, 2_000);
        assert!(!opts.warm);
        assert!(opts.threads >= 1, "threads default to hardware parallelism");
    }

    #[test]
    fn parses_server_flags() {
        let opts = parse(&args(&[
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "3",
            "--queue-depth",
            "9",
            "--deadline-ms",
            "250",
            "--warm",
            "--whatif-cache",
            "5",
        ]))
        .unwrap();
        assert_eq!(opts.addr, "127.0.0.1:0");
        assert_eq!(opts.threads, 3);
        assert_eq!(opts.queue_depth, 9);
        assert_eq!(opts.deadline_ms, 250);
        assert!(opts.warm);
        assert_eq!(opts.whatif_cache, 5);
    }

    #[test]
    fn parses_slow_trace_threshold() {
        assert_eq!(parse(&args(&[])).unwrap().slow_trace_ms, 250);
        let opts = parse(&args(&["--slow-trace-ms", "0"])).unwrap();
        assert_eq!(opts.slow_trace_ms, 0, "0 traces every request");
    }

    #[test]
    fn parses_scenario_flags() {
        let opts = parse(&args(&[
            "--locations",
            "10,20",
            "--capacities",
            "2,3",
            "--threshold",
            "15",
            "--shape",
            "0.5",
            "--volume",
            "fill",
        ]))
        .unwrap();
        assert_eq!(opts.spec.locations, vec![10, 20]);
        assert_eq!(opts.spec.capacities, vec![2, 3]);
        assert_eq!(opts.spec.threshold, 15.0);
        assert_eq!(opts.spec.volume, None);
    }

    #[test]
    fn parses_robustness_flags() {
        let opts = parse(&args(&[
            "--max-connections",
            "24",
            "--io-timeout-ms",
            "500",
            "--frame-deadline-ms",
            "1500",
            "--idle-timeout-ms",
            "4000",
            "--chaos-harness",
        ]))
        .unwrap();
        assert_eq!(opts.max_connections, 24);
        assert_eq!(opts.io_timeout_ms, 500);
        assert_eq!(opts.frame_deadline_ms, 1500);
        assert_eq!(opts.idle_timeout_ms, 4000);
        assert!(opts.chaos_harness);
        // Chaos mode is opt-in.
        assert!(!parse(&args(&[])).unwrap().chaos_harness);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&args(&["--threads", "0"])).is_err());
        assert!(parse(&args(&["--queue-depth", "0"])).is_err());
        assert!(parse(&args(&["--max-connections", "0"])).is_err());
        assert!(parse(&args(&["--io-timeout-ms", "0"])).is_err());
        assert!(parse(&args(&["--locations", "1,x"])).is_err());
        assert!(parse(&args(&["--capacities", "1,2"])).is_err());
        assert!(parse(&args(&["--frobnicate", "1"])).is_err());
        assert!(parse(&args(&["--addr"])).is_err());
        assert!(parse(&args(&["--approx-samples", "0"])).is_err());
        assert!(parse(&args(&["--confidence", "1.5"])).is_err());
        assert!(parse(&args(&["--confidence", "0"])).is_err());
        assert!(parse(&args(&["--synthetic", "0"])).is_err());
        assert!(parse(&args(&["--synthetic", "513"])).is_err());
        assert!(parse(&args(&["--synthetic", "8:x"])).is_err());
    }

    #[test]
    fn rejects_hostile_scenario_numbers() {
        for bad in [
            &["--threshold", "nan"][..],
            &["--threshold", "inf"],
            &["--threshold", "-5"],
            &["--shape", "-1"],
            &["--shape", "0"],
            &["--shape", "nan"],
            &["--capacities", "0,1,1"],
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} must be a usage error");
        }
        // The edge values stay valid.
        let opts = parse(&args(&["--threshold", "0", "--capacities", "1,1,1"])).unwrap();
        assert_eq!(opts.spec.threshold, 0.0);
    }

    #[test]
    fn parses_approx_flags() {
        let opts = parse(&args(&[
            "--approx",
            "--approx-samples",
            "128",
            "--approx-seed",
            "9",
            "--confidence",
            "0.99",
        ]))
        .unwrap();
        assert!(opts.approx.force);
        assert_eq!(opts.approx.samples, 128);
        assert_eq!(opts.approx.seed, 9);
        assert!((opts.approx.confidence - 0.99).abs() < 1e-12);
        // Approx is opt-in; defaults match the library's.
        let plain = parse(&args(&[])).unwrap();
        assert!(!plain.approx.force);
        assert_eq!(plain.approx.samples, 256);
    }

    #[test]
    fn synthetic_builds_the_seeded_large_federation() {
        let opts = parse(&args(&["--synthetic", "200:7"])).unwrap();
        assert_eq!(opts.spec.n(), 200);
        assert_eq!(opts.spec.volume, Some(1));
        // Deterministic: the same n:seed yields the same spec.
        let again = parse(&args(&["--synthetic", "200:7"])).unwrap();
        assert_eq!(opts.spec, again.spec);
        // A different seed reshapes it; the default seed is 42.
        let other = parse(&args(&["--synthetic", "200:8"])).unwrap();
        assert_ne!(opts.spec, other.spec);
        let default_seed = parse(&args(&["--synthetic", "200"])).unwrap();
        let explicit = parse(&args(&["--synthetic", "200:42"])).unwrap();
        assert_eq!(default_seed.spec, explicit.spec);
        // Large plain --locations lists are accepted now too.
        let many: Vec<&str> = vec!["4"; 100];
        assert!(parse(&args(&["--locations", &many.join(",")])).is_ok());
    }
}
