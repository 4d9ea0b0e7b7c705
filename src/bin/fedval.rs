//! `fedval` — command-line front end for federation policy design.
//!
//! Build a scenario from flags, then print coalition values, shares under
//! every scheme, and the stability report:
//!
//! ```text
//! fedval report --locations 100,400,800 --threshold 500
//! fedval shares --locations 100,400,800 --capacities 80,60,20 \
//!               --threshold 250 --volume 40 --scheme shapley
//! fedval values --locations 100,400,800 --threshold 500
//! ```
//!
//! Defaults reproduce the paper's §4.1 worked example.
#![expect(
    clippy::print_stderr,
    reason = "a command-line tool reports errors on stderr"
)]

use fedval::coalition::{available_threads, hoeffding_samples, normalize, NUCLEOLUS_MAX_PLAYERS};
use fedval::policy::try_policy_report;
use fedval::testbed::ScenarioArgs;
use fedval::{
    ApproxShapley, Coalition, FederationGame, FederationScenario, ShapleyEstimate, SharingScheme,
    WideGame, EXACT_SHAPLEY_MAX_PLAYERS,
};
use fedval_obs::FileSink;
use std::io::{ErrorKind, Write as _};
use std::process::ExitCode;
use std::sync::Arc;

#[derive(Debug)]
struct Options {
    command: String,
    /// The federation and the sampled-Shapley parameters.
    scenario: ScenarioArgs,
    scheme: String,
    threads: usize,
    trace: Option<String>,
    metrics: bool,
}

impl Options {
    /// The scenario the command answers from.
    fn scenario(&self) -> FederationScenario {
        self.scenario
            .spec
            .scenario()
            .with_threads(self.threads)
            .with_approx(self.scenario.approx)
    }
}

fn usage() -> &'static str {
    "usage: fedval <report|shares|values> [options]\n\
     \n\
     options:\n\
       --locations  L1,L2,...   locations per facility   (default 100,400,800)\n\
       --capacities R1,R2,...   capacity per location    (default 1,1,...)\n\
       --threshold  l           diversity threshold      (default 500)\n\
       --shape      d           utility exponent         (default 1)\n\
       --volume     K           number of experiments; omit for one,\n\
                                'fill' for capacity-filling demand\n\
       --scheme     name        shapley|proportional|consumption|\n\
                                nucleolus|equal          (default shapley)\n\
       --threads    N           worker threads for the 2^n coalition-table\n\
                                fill and the sampled estimator (default:\n\
                                available hardware parallelism; any N\n\
                                gives identical output)\n\
       --trace      path        write a JSONL observability trace (spans,\n\
                                counters, events) to this file\n\
       --metrics                print the run report (per-phase timings,\n\
                                counter totals) after the command output\n\
       --synthetic  N[:SEED]    use the seeded large-n synthetic federation\n\
                                (overrides --locations/--capacities/\n\
                                --threshold; default seed 42)\n\
     \n\
     sampled Shapley (automatic past 16 facilities):\n\
       --approx                 force the sampled estimator even below the\n\
                                exact cap\n\
       --epsilon        E       target error radius on normalized shares;\n\
                                the sampling budget is Hoeffding-planned\n\
                                from E and --confidence\n\
       --approx-seed    S       RNG seed; same seed, same output (default 42)\n\
       --confidence     C       CI confidence level in (0,1) (default 0.95)\n\
     \n\
     expert overrides (instead of --epsilon):\n\
       --approx-samples N       explicit sampling budget  (default 256);\n\
                                wins over --epsilon when both are given\n"
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        command: args.first().cloned().ok_or_else(|| usage().to_string())?,
        scenario: ScenarioArgs::default(),
        scheme: "shapley".to_string(),
        // Shares are identical at any thread count, so the hardware's
        // parallelism is a free default; `--threads` overrides it.
        threads: available_threads(),
        trace: None,
        metrics: false,
    };
    if !matches!(opts.command.as_str(), "report" | "shares" | "values") {
        return Err(format!("unknown command '{}'\n\n{}", opts.command, usage()));
    }
    // `--epsilon` plans the budget from the Hoeffding bound, but an
    // explicit `--approx-samples` wins; resolved after the flag loop so
    // order on the command line never matters.
    let mut epsilon: Option<f64> = None;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        if opts.scenario.parse_flag(flag, &mut it)? {
            continue;
        }
        // Valueless switches are matched before the generic value grab.
        if flag == "--metrics" {
            opts.metrics = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--scheme" => {
                opts.scheme = value.clone();
            }
            "--threads" => {
                let n: usize = value.parse().map_err(|e| format!("--threads: {e}"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                opts.threads = n;
            }
            "--trace" => {
                opts.trace = Some(value.clone());
            }
            "--epsilon" => {
                let e: f64 = value.parse().map_err(|e| format!("--epsilon: {e}"))?;
                if !(e > 0.0 && e.is_finite()) {
                    return Err("--epsilon must be a positive finite number".to_string());
                }
                epsilon = Some(e);
            }
            other => return Err(format!("unknown flag '{other}'\n\n{}", usage())),
        }
    }
    opts.scenario.finish()?;
    if let Some(epsilon) = epsilon {
        if !opts.scenario.samples_given {
            // Normalized shares live in [0, 1], so `range = 1`; the
            // Hoeffding bound turns (ε, 1 − confidence) into the budget.
            let approx = &mut opts.scenario.approx;
            let samples = hoeffding_samples(1.0, epsilon, 1.0 - approx.confidence);
            if samples == usize::MAX {
                return Err(format!(
                    "--epsilon {epsilon} with --confidence {} needs an unbounded budget",
                    approx.confidence
                ));
            }
            // The estimator's floor (32) still applies downstream.
            approx.samples = samples.max(1);
        }
    }
    Ok(opts)
}

/// A scheme's `shares` table: each facility's share and its payoff
/// `share × V(N)`.
fn shares_table(scheme: &str, grand: f64, shares: &[f64]) -> String {
    let mut text = format!(
        "scheme: {scheme} — V(N) = {grand:.2}\n{:>10} {:>10} {:>14}\n",
        "facility", "share", "payoff"
    );
    for (i, share) in shares.iter().enumerate() {
        text += &format!("{:>10} {:>10.4} {:>14.2}\n", i + 1, share, share * grand);
    }
    text
}

/// The `shares` table for a sampled Shapley estimate, with the
/// per-facility CI half-width column and the certificate header.
fn sampled_shapley_table(approx: &ApproxShapley) -> String {
    let mut text = format!(
        "scheme: shapley (sampled: permutation, {} samples, seed {}, {:.0}% CI) — V(N) = {:.2}\n\
         {:>10} {:>10} {:>10} {:>14}\n",
        approx.samples,
        approx.seed,
        approx.confidence * 100.0,
        approx.grand_value,
        "facility",
        "share",
        "±ci",
        "payoff"
    );
    for (i, (share, ci)) in approx.shares().iter().zip(approx.ci_shares()).enumerate() {
        text += &format!(
            "{:>10} {:>10.4} {:>10.4} {:>14.2}\n",
            i + 1,
            share,
            ci,
            share * approx.grand_value
        );
    }
    text
}

fn scheme_from_name(name: &str) -> Result<SharingScheme, String> {
    Ok(match name {
        "shapley" => SharingScheme::Shapley,
        "proportional" => SharingScheme::Proportional,
        "consumption" => SharingScheme::Consumption,
        "nucleolus" => SharingScheme::Nucleolus,
        "equal" => SharingScheme::Equal,
        other => return Err(format!("unknown scheme '{other}'")),
    })
}

/// Turns on observability for `--trace` (a JSONL file sink) and
/// `--metrics` (the metric fold alone, when no trace file is written).
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

/// Runs the command, appending what it prints to `out`.
fn execute(opts: &Options, out: &mut String) -> Result<(), String> {
    let scenario = {
        let _span = fedval_obs::span("fedval.cli.scenario");
        opts.scenario()
    };
    let n = scenario.facilities().len();
    let _command_span = fedval_obs::span_with("fedval.cli.command", || opts.command.clone());

    match opts.command.as_str() {
        "values" => {
            if n > EXACT_SHAPLEY_MAX_PLAYERS {
                return Err(format!(
                    "values enumerates all 2^n coalitions and supports at most \
                     {EXACT_SHAPLEY_MAX_PLAYERS} facilities (got {n}); use 'shares' or \
                     'report' — past the cap they answer from the sampled estimator"
                ));
            }
            let table = scenario.try_game().map_err(|e| e.to_string())?;
            *out += &format!("{:>16} {:>14}\n", "coalition", "V(S)");
            for c in Coalition::all(n).filter(|c| !c.is_empty()) {
                let label: Vec<String> = c.players().map(|p| (p + 1).to_string()).collect();
                *out += &format!(
                    "{:>16} {:>14.2}\n",
                    format!("{{{}}}", label.join(",")),
                    table.value(c)
                );
            }
        }
        "shares" => {
            let scheme = scheme_from_name(&opts.scheme)?;
            if matches!(scheme, SharingScheme::Nucleolus) && n > NUCLEOLUS_MAX_PLAYERS {
                return Err(format!(
                    "the nucleolus supports at most {NUCLEOLUS_MAX_PLAYERS} facilities \
                     (got {n}) and has no sampled fallback; use --scheme shapley"
                ));
            }
            if matches!(scheme, SharingScheme::Shapley) {
                match scenario.shapley_estimate().map_err(|e| e.to_string())? {
                    ShapleyEstimate::Approx(approx) => *out += &sampled_shapley_table(&approx),
                    ShapleyEstimate::Exact(phi) => {
                        let grand = scenario
                            .try_game()
                            .map_err(|e| e.to_string())?
                            .grand_value();
                        *out += &shares_table(scheme.name(), grand, &normalize(phi, grand));
                    }
                }
                return Ok(());
            }
            let grand = if opts.scenario.approx.selects_sampling(n)
                && !matches!(scheme, SharingScheme::Nucleolus)
            {
                // Enumeration-free schemes at large n: V(N) comes from
                // one wide-game evaluation instead of the 2^n table.
                let all: Vec<usize> = (0..n).collect();
                let grand = FederationGame::new(scenario.facilities(), scenario.demand())
                    .value_members(&all);
                if !grand.is_finite() {
                    return Err(format!(
                        "V(N) has the non-finite value {grand}; every coalition value must \
                         be a finite number"
                    ));
                }
                grand
            } else {
                // The scheme reads the 2^n table: fill it fallibly first,
                // since the infallible accessors panic on a game it refuses.
                scenario
                    .try_game()
                    .map_err(|e| e.to_string())?
                    .grand_value()
            };
            *out += &shares_table(scheme.name(), grand, &scheme.shares(&scenario));
        }
        "report" => {
            let report = try_policy_report(&scenario).map_err(|e| e.to_string())?;
            *out += &report.render();
        }
        #[expect(
            clippy::unreachable,
            reason = "parse() rejects unknown commands before dispatch, so this arm is dead by construction"
        )]
        _ => unreachable!("validated in parse"),
    }
    Ok(())
}

/// Runs the command line, appending what it prints to `out`.
fn run(out: &mut String) -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse(&args)?;
    install_observability(&opts)?;

    let outcome = execute(&opts, out);

    // Shutdown flushes the trace file, ending it with the counter and
    // gauge totals; the run report renders the metric fold, which
    // shutdown leaves in place.
    fedval_obs::shutdown();
    if opts.metrics {
        *out += &fedval_obs::metrics_fold().render();
    }
    outcome
}

/// Writes the run's stdout in one piece. A reader that has gone away
/// (`fedval shares --synthetic 200 | head -1`) ends the run quietly;
/// any other write error fails it.
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

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn defaults_reproduce_worked_example() {
        let opts = parse(&args(&["shares"])).unwrap();
        let scenario = opts.scenario();
        assert_eq!(scenario.grand_value(), 1300.0);
        assert!((scenario.shapley_shares()[1] - 2.0 / 13.0).abs() < 1e-12);
    }

    /// fedval's own flags mixed with the shared scenario and sampling
    /// flags, whose values fedval-testbed's parser test pins.
    #[test]
    fn parses_all_flags() {
        let opts = parse(&args(&[
            "report",
            "--locations",
            "10,20,30",
            "--scheme",
            "nucleolus",
            "--capacities",
            "2,2,2",
            "--threshold",
            "25",
            "--approx",
            "--shape",
            "0.8",
            "--volume",
            "fill",
        ]))
        .unwrap();
        let spec = &opts.scenario.spec;
        assert_eq!(spec.locations, vec![10, 20, 30]);
        assert_eq!(spec.capacities, vec![2, 2, 2]);
        assert_eq!((spec.threshold, spec.shape, spec.volume), (25.0, 0.8, None));
        assert!(opts.scenario.approx.force);
        assert!(scheme_from_name(&opts.scheme).is_ok());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&args(&["frobnicate"])).is_err());
        assert!(parse(&args(&["shares", "--locations"])).is_err());
        assert!(parse(&args(&["shares", "--locations", "1,x"])).is_err());
        assert!(parse(&args(&["shares", "--capacities", "1,2"])).is_err());
        assert!(scheme_from_name("venetian").is_err());
        assert!(parse(&args(&[])).is_err());
    }

    #[test]
    fn parses_observability_flags() {
        let opts = parse(&args(&[
            "report",
            "--metrics",
            "--trace",
            "out.jsonl",
            "--threshold",
            "250",
        ]))
        .unwrap();
        assert!(opts.metrics);
        assert_eq!(opts.trace.as_deref(), Some("out.jsonl"));
        assert_eq!(opts.scenario.spec.threshold, 250.0);
        // --metrics takes no value; --trace requires one.
        let bare = parse(&args(&["values", "--metrics"])).unwrap();
        assert!(bare.metrics && bare.trace.is_none());
        assert!(parse(&args(&["values", "--trace"])).is_err());
    }

    #[test]
    fn parses_threads_flag() {
        assert_eq!(
            parse(&args(&["shares"])).unwrap().threads,
            available_threads()
        );
        assert!(available_threads() >= 1);
        let opts = parse(&args(&["shares", "--threads", "4"])).unwrap();
        assert_eq!(opts.threads, 4);
        assert!(parse(&args(&["shares", "--threads", "0"])).is_err());
        assert!(parse(&args(&["shares", "--threads", "x"])).is_err());
        assert!(parse(&args(&["shares", "--threads"])).is_err());
    }

    #[test]
    fn epsilon_plans_the_sampling_budget() {
        // ε = 0.1 at the default 95% confidence: ⌈ln(40)/0.02⌉ = 185.
        let opts = parse(&args(&["shares", "--epsilon", "0.1"])).unwrap();
        assert_eq!(
            opts.scenario.approx.samples,
            hoeffding_samples(1.0, 0.1, 0.05)
        );
        assert_eq!(opts.scenario.approx.samples, 185);

        // Tighter confidence raises the planned budget; flag order on
        // the command line must not matter.
        let tight = parse(&args(&[
            "shares",
            "--confidence",
            "0.99",
            "--epsilon",
            "0.1",
        ]))
        .unwrap();
        let tight_rev = parse(&args(&[
            "shares",
            "--epsilon",
            "0.1",
            "--confidence",
            "0.99",
        ]))
        .unwrap();
        assert_eq!(
            tight.scenario.approx.samples,
            tight_rev.scenario.approx.samples
        );
        assert!(tight.scenario.approx.samples > opts.scenario.approx.samples);

        // An explicit --approx-samples is the expert override and wins
        // over --epsilon regardless of position.
        let explicit = parse(&args(&[
            "shares",
            "--epsilon",
            "0.1",
            "--approx-samples",
            "64",
        ]))
        .unwrap();
        assert_eq!(explicit.scenario.approx.samples, 64);
        let explicit_rev = parse(&args(&[
            "shares",
            "--approx-samples",
            "64",
            "--epsilon",
            "0.1",
        ]))
        .unwrap();
        assert_eq!(explicit_rev.scenario.approx.samples, 64);

        assert!(parse(&args(&["shares", "--epsilon", "0"])).is_err());
        assert!(parse(&args(&["shares", "--epsilon", "-0.5"])).is_err());
        assert!(parse(&args(&["shares", "--epsilon", "inf"])).is_err());
        assert!(parse(&args(&["shares", "--epsilon", "x"])).is_err());
        assert!(parse(&args(&["shares", "--epsilon"])).is_err());
    }

    #[test]
    fn sampled_shares_and_report_run_on_large_federations() {
        let mut opts = parse(&args(&["shares", "--synthetic", "40:7"])).unwrap();
        opts.scenario.approx.samples = 32;
        let scenario = opts.scenario();
        let estimate = scenario.shapley_estimate().expect("sampled estimate");
        let table = sampled_shapley_table(estimate.as_approx().expect("n=40 samples"));
        assert_eq!(table.lines().count(), 2 + 40);
        let report = try_policy_report(&scenario).expect("degraded report");
        assert!(report.approx.is_some());
    }

    #[test]
    fn threads_do_not_change_cli_shares() {
        let sequential = parse(&args(&["shares"])).unwrap().scenario();
        let parallel = parse(&args(&["shares", "--threads", "4"]))
            .unwrap()
            .scenario();
        assert_eq!(sequential.shapley_shares(), parallel.shapley_shares());
    }
}
