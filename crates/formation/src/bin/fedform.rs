//! `fedform` — dynamic coalition formation under churn.
//!
//! Runs the seeded hedonic merge/split engine over a synthetic
//! federation and prints the deterministic trajectory, stability
//! verdict, and promised-vs-realized payoff table. All stdout is a pure
//! function of the flags (no wall-clock, no thread-count artifacts), so
//! two runs — at any `--threads` — diff clean; CI relies on that.
#![expect(
    clippy::print_stderr,
    reason = "a command-line tool reports errors and telemetry on stderr"
)]

use fedval_coalition::{available_threads, ApproxConfig};
use fedval_form::{ChurnSchedule, FormationConfig, FormationEngine, FormationGame};
use fedval_obs::FileSink;
use fedval_policy::try_policy_report;
use fedval_testbed::{parse_synthetic, ScenarioSpec};
use std::io::{ErrorKind, Write as _};
use std::process::ExitCode;
use std::sync::Arc;

struct Options {
    n: usize,
    scenario_seed: u64,
    seed: u64,
    rounds: usize,
    round_dt: f64,
    pair_budget: usize,
    split_budget: usize,
    neutral_budget: usize,
    initial: Option<usize>,
    departures: Option<usize>,
    threads: usize,
    approx_samples: usize,
    report: bool,
    trace: Option<String>,
    metrics: bool,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            n: 16,
            scenario_seed: 42,
            seed: 42,
            rounds: 32,
            round_dt: 10.0,
            pair_budget: 128,
            split_budget: 2,
            neutral_budget: 32,
            initial: None,
            departures: None,
            threads: available_threads(),
            approx_samples: 64,
            report: false,
            trace: None,
            metrics: false,
        }
    }
}

const USAGE: &str = "usage: fedform [options]
  --synthetic N[:SEED]  federation width and generator seed (default 16:42)
  --seed S              merge/split rule seed (default 42)
  --rounds R            round cap (default 32)
  --round-dt T          simulated time between rounds (default 10)
  --pair-budget K       merge pairs examined per round (default 128)
  --split-budget K      bipartitions sampled per block per round (default 2)
  --neutral-budget K    zero-gain plateau merges per round (default 32; 0 = strict only)
  --initial K           authorities present at t=0 (default n/2)
  --departures K        seeded departures over the run (default n/16)
  --threads N           value-evaluation workers (default: all cores; output invariant)
  --approx-samples M    sampled-Shapley budget for payoffs past the exact cap (default 64)
  --report              append the policy report (sampled path) with its formation section
  --trace PATH          write an observability trace (JSONL)
  --metrics             print the run's metrics snapshot to stderr
  --help                this text";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" => return Err(USAGE.to_string()),
            "--report" => {
                opts.report = true;
                continue;
            }
            "--metrics" => {
                opts.metrics = true;
                continue;
            }
            _ => {}
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{arg} needs a value\n{USAGE}"))?;
        match arg.as_str() {
            "--synthetic" => (opts.n, opts.scenario_seed) = parse_synthetic(value)?,
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad --seed: {value}"))?,
            "--rounds" => {
                opts.rounds = value
                    .parse()
                    .map_err(|_| format!("bad --rounds: {value}"))?;
            }
            "--round-dt" => {
                opts.round_dt = value
                    .parse()
                    .map_err(|_| format!("bad --round-dt: {value}"))?;
            }
            "--pair-budget" => {
                opts.pair_budget = value
                    .parse()
                    .map_err(|_| format!("bad --pair-budget: {value}"))?;
            }
            "--split-budget" => {
                opts.split_budget = value
                    .parse()
                    .map_err(|_| format!("bad --split-budget: {value}"))?;
            }
            "--neutral-budget" => {
                opts.neutral_budget = value
                    .parse()
                    .map_err(|_| format!("bad --neutral-budget: {value}"))?;
            }
            "--initial" => {
                opts.initial = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --initial: {value}"))?,
                );
            }
            "--departures" => {
                opts.departures = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --departures: {value}"))?,
                );
            }
            "--threads" => {
                let t: usize = value
                    .parse()
                    .map_err(|_| format!("bad --threads: {value}"))?;
                if t == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                opts.threads = t;
            }
            "--approx-samples" => {
                opts.approx_samples = value
                    .parse()
                    .map_err(|_| format!("bad --approx-samples: {value}"))?;
            }
            "--trace" => opts.trace = Some(value.clone()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if !(opts.round_dt.is_finite() && opts.round_dt >= 0.0) {
        return Err("--round-dt must be finite and at least 0".to_string());
    }
    if !(opts.rounds as f64 * opts.round_dt).is_finite() {
        return Err("--rounds × --round-dt overflows the simulated clock".to_string());
    }
    Ok(opts)
}

/// Turns on observability for `--trace` and `--metrics`, as the `fedval`
/// CLI does.
fn install_observability(opts: &Options) -> Result<(), String> {
    if let Some(path) = &opts.trace {
        let sink = FileSink::create(path).map_err(|e| format!("--trace {path}: {e}"))?;
        fedval_obs::install(Arc::new(sink));
    }
    if opts.metrics {
        fedval_obs::ensure_enabled();
    }
    Ok(())
}

/// Runs the command line, appending what it prints to `out`.
fn run(out: &mut String) -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse(&args)?;
    install_observability(&opts)?;

    let n = opts.n;
    let initial = opts.initial.unwrap_or(n.div_ceil(2)).min(n);
    let departures = opts.departures.unwrap_or(n / 16);
    let horizon = opts.rounds as f64 * opts.round_dt;
    let game = FormationGame::synthetic(n, opts.scenario_seed);
    let schedule = ChurnSchedule::seeded(n, opts.seed, horizon, initial, departures);
    let cfg = FormationConfig {
        seed: opts.seed,
        max_rounds: opts.rounds,
        round_dt: opts.round_dt,
        pair_budget: opts.pair_budget,
        split_budget: opts.split_budget,
        neutral_budget: opts.neutral_budget,
        threads: opts.threads,
        approx: ApproxConfig {
            samples: opts.approx_samples.max(1),
            ..ApproxConfig::default()
        },
    };

    *out += &format!(
        "fedform: n={n} scenario-seed={} seed={} rounds<={} round-dt={} pair-budget={} \
split-budget={} neutral-budget={} initial={initial} departures={departures}\n",
        opts.scenario_seed,
        opts.seed,
        opts.rounds,
        opts.round_dt,
        opts.pair_budget,
        opts.split_budget,
        opts.neutral_budget,
    );
    let engine = FormationEngine::new(&game, cfg);
    let outcome = engine.run(&schedule);
    *out += &outcome.render();

    if opts.report {
        // Force the enumeration-free report path: formation targets
        // federations where 2^n tables (and the nucleolus LP) are off
        // the table, and the exact n=12 nucleolus alone takes minutes.
        let scenario = ScenarioSpec::synthetic(n, opts.scenario_seed)
            .scenario()
            .with_threads(opts.threads)
            .with_approx(ApproxConfig {
                samples: opts.approx_samples.max(1),
                force: true,
                ..ApproxConfig::default()
            });
        let report = try_policy_report(&scenario)
            .map_err(|e| format!("fedform: policy report unavailable: {e}"))?
            .with_formation(outcome.policy_section());
        *out += &report.render();
    }

    if opts.metrics {
        let (hits, misses) = engine.cache_stats();
        eprintln!("fedform: value cache hits={hits} misses={misses}");
    }
    fedval_obs::shutdown();
    if opts.metrics {
        eprint!("{}", fedval_obs::metrics_fold().render());
    }
    Ok(())
}

/// Writes the run's stdout in one piece. A reader that has gone away
/// (`fedform | head -1`) ends the run quietly; any other write error
/// fails it.
fn write_stdout(text: &str) -> Result<(), String> {
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => Err(format!("writing stdout: {e}")),
        _ => Ok(()),
    }
}

fn main() -> ExitCode {
    let mut out = String::new();
    let outcome = run(&mut out);
    match outcome.and(write_stdout(&out)) {
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

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_flags() {
        let defaults = parse(&args("")).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!((defaults.n, defaults.round_dt), (16, 10.0));
        let opts = parse(&args(
            "--synthetic 200:7 --seed 3 --rounds 12 --round-dt 0 --report",
        ))
        .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!((opts.n, opts.scenario_seed, opts.seed), (200, 7, 3));
        assert_eq!((opts.rounds, opts.round_dt), (12, 0.0));
        assert!(opts.report);
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            "--round-dt nan",
            "--round-dt inf",
            "--round-dt -5",
            "--round-dt 1e308 --rounds 32",
            "--synthetic 0",
            "--synthetic 513",
            "--synthetic 8:x",
            "--threads 0",
            "--frobnicate 1",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad} must be a usage error");
        }
    }
}
