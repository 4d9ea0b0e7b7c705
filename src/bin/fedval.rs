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

use fedval::coalition::{hoeffding_samples, NUCLEOLUS_MAX_PLAYERS};
use fedval::policy::try_policy_report;
use fedval::{
    ApproxConfig, ApproxMethod, Coalition, Demand, ExperimentClass, Facility, FederationGame,
    FederationScenario, ShapleyEstimate, SharingScheme, Volume, WideGame,
    EXACT_SHAPLEY_MAX_PLAYERS, MAX_SAMPLED_PLAYERS,
};
use fedval_obs::{FileSink, RecordingSink, RunReport, Sink, TeeSink};
use std::process::ExitCode;
use std::sync::Arc;

#[derive(Debug)]
struct Options {
    command: String,
    locations: Vec<u32>,
    capacities: Vec<u64>,
    threshold: f64,
    shape: f64,
    volume: Option<u64>, // None = capacity-filling
    scheme: String,
    threads: usize,
    approx: ApproxConfig,
    trace: Option<String>,
    metrics: bool,
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
       --threads    N           worker threads for the Shapley pass\n\
                                (default: available hardware parallelism;\n\
                                any N gives identical shares)\n\
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
       --approx-method  M       permutation|stratified  (default permutation)\n\
       --confidence     C       CI confidence level in (0,1) (default 0.95)\n\
     \n\
     expert overrides (instead of --epsilon):\n\
       --approx-samples N       explicit sampling budget  (default 256);\n\
                                wins over --epsilon when both are given\n"
}

/// Default worker-thread count: the available hardware parallelism
/// (floor 1). Shares are identical for any thread count — the repro
/// suite diffs t=1 against t=4 to enforce it — so defaulting to the
/// hardware is free throughput. `--threads` overrides.
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        command: args.first().cloned().ok_or_else(|| usage().to_string())?,
        locations: vec![100, 400, 800],
        capacities: Vec::new(),
        threshold: 500.0,
        shape: 1.0,
        volume: Some(1),
        scheme: "shapley".to_string(),
        threads: default_threads(),
        approx: ApproxConfig::default(),
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
    let mut samples_overridden = false;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        // Valueless switches are matched before the generic value grab.
        if flag == "--metrics" {
            opts.metrics = true;
            continue;
        }
        if flag == "--approx" {
            opts.approx.force = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--locations" => {
                opts.locations = value
                    .split(',')
                    .map(|v| v.trim().parse::<u32>())
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("--locations: {e}"))?;
            }
            "--capacities" => {
                opts.capacities = value
                    .split(',')
                    .map(|v| v.trim().parse::<u64>())
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("--capacities: {e}"))?;
            }
            "--threshold" => {
                opts.threshold = value.parse().map_err(|e| format!("--threshold: {e}"))?;
            }
            "--shape" => {
                opts.shape = value.parse().map_err(|e| format!("--shape: {e}"))?;
            }
            "--volume" => {
                opts.volume = if value == "fill" {
                    None
                } else {
                    Some(value.parse().map_err(|e| format!("--volume: {e}"))?)
                };
            }
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
                let (draws, threshold) = fedval::testbed::synthetic_profile(n, seed);
                opts.locations = draws.iter().map(|&(l, _)| l).collect();
                opts.capacities = draws.iter().map(|&(_, r)| r).collect();
                opts.threshold = threshold;
                opts.shape = 1.0;
                opts.volume = Some(1);
            }
            "--approx-samples" => {
                opts.approx.samples = value
                    .parse()
                    .map_err(|e| format!("--approx-samples: {e}"))?;
                if opts.approx.samples == 0 {
                    return Err("--approx-samples must be at least 1".to_string());
                }
                samples_overridden = true;
            }
            "--epsilon" => {
                let e: f64 = value.parse().map_err(|e| format!("--epsilon: {e}"))?;
                if !(e > 0.0 && e.is_finite()) {
                    return Err("--epsilon must be a positive finite number".to_string());
                }
                epsilon = Some(e);
            }
            "--approx-seed" => {
                opts.approx.seed = value.parse().map_err(|e| format!("--approx-seed: {e}"))?;
            }
            "--approx-method" => {
                opts.approx.method = ApproxMethod::parse(value).ok_or_else(|| {
                    format!("--approx-method: '{value}' is not 'permutation' or 'stratified'")
                })?;
            }
            "--confidence" => {
                opts.approx.confidence =
                    value.parse().map_err(|e| format!("--confidence: {e}"))?;
                if !(opts.approx.confidence > 0.0 && opts.approx.confidence < 1.0) {
                    return Err("--confidence must be strictly between 0 and 1".to_string());
                }
            }
            other => return Err(format!("unknown flag '{other}'\n\n{}", usage())),
        }
    }
    if opts.locations.is_empty() || opts.locations.len() > MAX_SAMPLED_PLAYERS {
        return Err(format!("need between 1 and {MAX_SAMPLED_PLAYERS} facilities"));
    }
    if opts.capacities.is_empty() {
        opts.capacities = vec![1; opts.locations.len()];
    }
    if opts.capacities.len() != opts.locations.len() {
        return Err("--capacities must match --locations in length".to_string());
    }
    if let Some(epsilon) = epsilon {
        if !samples_overridden {
            // Normalized shares live in [0, 1], so `range = 1`; the
            // Hoeffding bound turns (ε, 1 − confidence) into the budget.
            let delta = 1.0 - opts.approx.confidence;
            let samples = hoeffding_samples(1.0, epsilon, delta);
            if samples == usize::MAX {
                return Err(format!(
                    "--epsilon {epsilon} with --confidence {} needs an unbounded budget",
                    opts.approx.confidence
                ));
            }
            // The estimator's floor (32) still applies downstream.
            opts.approx.samples = samples.max(1);
        }
    }
    Ok(opts)
}

fn build_scenario(opts: &Options) -> FederationScenario {
    let mut start = 0u32;
    let facilities: Vec<Facility> = opts
        .locations
        .iter()
        .zip(&opts.capacities)
        .enumerate()
        .map(|(i, (&l, &r))| {
            let f = Facility::uniform(format!("facility-{}", i + 1), start, l, r);
            start += l;
            f
        })
        .collect();
    let class = ExperimentClass::simple("cli", opts.threshold, opts.shape);
    let demand = match opts.volume {
        Some(1) => Demand::one_experiment(class),
        Some(k) => Demand::single(class, Volume::Count(k)),
        None => Demand::capacity_filling(class),
    };
    FederationScenario::new(facilities, demand)
        .with_threads(opts.threads)
        .with_approx(opts.approx)
}

/// Prints the `shares` table for a sampled Shapley estimate, with the
/// per-facility CI half-width column and the certificate header.
fn print_sampled_shapley(scenario: &FederationScenario, n: usize) -> Result<(), String> {
    let estimate = scenario.shapley_estimate().map_err(|e| e.to_string())?;
    let approx = match estimate {
        ShapleyEstimate::Approx(a) => a,
        // Only reachable if solver selection changes under us; render the
        // exact result in the sampled format with zero-width intervals.
        ShapleyEstimate::Exact(phi) => {
            let grand: f64 = phi.iter().sum();
            println!("scheme: shapley (exact) — V(N) = {grand:.2}");
            println!("{:>10} {:>10} {:>14}", "facility", "share", "payoff");
            for (i, v) in phi.iter().enumerate() {
                let share = if grand.abs() < 1e-12 { 0.0 } else { v / grand };
                println!("{:>10} {:>10.4} {:>14.2}", i + 1, share, v);
            }
            return Ok(());
        }
    };
    let shares = approx.shares();
    let ci = approx.ci_shares();
    println!(
        "scheme: shapley (sampled: {}, {} samples, seed {}, {:.0}% CI) — V(N) = {:.2}",
        approx.method.as_str(),
        approx.samples,
        approx.seed,
        approx.confidence * 100.0,
        approx.grand_value
    );
    println!(
        "{:>10} {:>10} {:>10} {:>14}",
        "facility", "share", "±ci", "payoff"
    );
    for i in 0..n {
        println!(
            "{:>10} {:>10.4} {:>10.4} {:>14.2}",
            i + 1,
            shares[i],
            ci[i],
            shares[i] * approx.grand_value
        );
    }
    Ok(())
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

/// Installs the observability sink combination requested on the command
/// line. Returns the recording handle when `--metrics` asked for a run
/// report, so `run` can aggregate after the command finishes.
fn install_observability(opts: &Options) -> Result<Option<RecordingSink>, String> {
    let recording = opts.metrics.then(RecordingSink::new);
    let file = match &opts.trace {
        Some(path) => {
            Some(FileSink::create(path).map_err(|e| format!("--trace {path}: {e}"))?)
        }
        None => None,
    };
    let sink: Option<Arc<dyn Sink>> = match (file, recording.clone()) {
        (Some(f), Some(r)) => Some(Arc::new(TeeSink::new(f, r))),
        (Some(f), None) => Some(Arc::new(f)),
        (None, Some(r)) => Some(Arc::new(r)),
        (None, None) => None,
    };
    if let Some(sink) = sink {
        fedval_obs::install(sink);
    }
    Ok(recording)
}

fn execute(opts: &Options) -> Result<(), String> {
    let scenario = {
        let _span = fedval_obs::span("fedval.cli.scenario");
        build_scenario(opts)
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
            println!("{:>16} {:>14}", "coalition", "V(S)");
            for c in Coalition::all(n).filter(|c| !c.is_empty()) {
                let label: Vec<String> = c.players().map(|p| (p + 1).to_string()).collect();
                println!(
                    "{:>16} {:>14.2}",
                    format!("{{{}}}", label.join(",")),
                    scenario.game().value(c)
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
            let sampled = opts.approx.force || n > EXACT_SHAPLEY_MAX_PLAYERS;
            match (&scheme, sampled) {
                (SharingScheme::Shapley, true) => print_sampled_shapley(&scenario, n)?,
                (_, true) => {
                    // Enumeration-free schemes at large n: V(N) comes from
                    // one wide-game evaluation instead of the 2^n table.
                    let shares = scheme.shares(&scenario);
                    let game =
                        FederationGame::new(scenario.facilities(), scenario.demand());
                    let all: Vec<usize> = (0..n).collect();
                    let grand = game.value_members(&all);
                    println!("scheme: {} — V(N) = {grand:.2}", scheme.name());
                    println!("{:>10} {:>10} {:>14}", "facility", "share", "payoff");
                    for (i, s) in shares.iter().enumerate() {
                        println!("{:>10} {:>10.4} {:>14.2}", i + 1, s, s * grand);
                    }
                }
                (_, false) => {
                    let shares = scheme.shares(&scenario);
                    let payoffs = scenario.payoffs(&shares);
                    println!(
                        "scheme: {} — V(N) = {:.2}",
                        scheme.name(),
                        scenario.grand_value()
                    );
                    println!("{:>10} {:>10} {:>14}", "facility", "share", "payoff");
                    for i in 0..n {
                        println!("{:>10} {:>10.4} {:>14.2}", i + 1, shares[i], payoffs[i]);
                    }
                }
            }
        }
        "report" => {
            let report = try_policy_report(&scenario).map_err(|e| e.to_string())?;
            print!("{}", report.render());
        }
        // lint: allow(no-panic-path) — parse() rejects unknown commands before
        // dispatch, so this arm is dead by construction.
        _ => unreachable!("validated in parse"),
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse(&args)?;
    let recording = install_observability(&opts)?;

    let outcome = execute(&opts);

    // Disable and flush before aggregating so the trace file is complete
    // and the recording contains every span-end. The metric fold is read
    // first: shutdown dumps counter/gauge totals into the record stream
    // for trace files, but the report sources metrics from the shards.
    let fold = (opts.trace.is_some() || opts.metrics).then(fedval_obs::metrics_fold);
    if fold.is_some() {
        fedval_obs::shutdown();
    }
    if let (Some(recording), Some(fold)) = (recording, fold) {
        print!(
            "{}",
            RunReport::from_parts(&fold, &recording.records()).render()
        );
    }
    outcome
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
    fn defaults_reproduce_worked_example() {
        let opts = parse(&args(&["shares"])).unwrap();
        let scenario = build_scenario(&opts);
        assert_eq!(scenario.grand_value(), 1300.0);
        assert!((scenario.shapley_shares()[1] - 2.0 / 13.0).abs() < 1e-12);
    }

    #[test]
    fn parses_all_flags() {
        let opts = parse(&args(&[
            "report",
            "--locations",
            "10,20,30",
            "--capacities",
            "2,2,2",
            "--threshold",
            "25",
            "--shape",
            "0.8",
            "--volume",
            "fill",
            "--scheme",
            "nucleolus",
        ]))
        .unwrap();
        assert_eq!(opts.locations, vec![10, 20, 30]);
        assert_eq!(opts.capacities, vec![2, 2, 2]);
        assert_eq!(opts.threshold, 25.0);
        assert_eq!(opts.shape, 0.8);
        assert_eq!(opts.volume, None);
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
            "report", "--metrics", "--trace", "out.jsonl", "--threshold", "250",
        ]))
        .unwrap();
        assert!(opts.metrics);
        assert_eq!(opts.trace.as_deref(), Some("out.jsonl"));
        assert_eq!(opts.threshold, 250.0);
        // --metrics takes no value; --trace requires one.
        let bare = parse(&args(&["values", "--metrics"])).unwrap();
        assert!(bare.metrics && bare.trace.is_none());
        assert!(parse(&args(&["values", "--trace"])).is_err());
    }

    #[test]
    fn capacity_default_matches_facility_count() {
        let opts = parse(&args(&["values", "--locations", "5,6,7,8"])).unwrap();
        assert_eq!(opts.capacities, vec![1; 4]);
    }

    #[test]
    fn parses_threads_flag() {
        assert_eq!(parse(&args(&["shares"])).unwrap().threads, default_threads());
        assert!(default_threads() >= 1);
        let opts = parse(&args(&["shares", "--threads", "4"])).unwrap();
        assert_eq!(opts.threads, 4);
        assert!(parse(&args(&["shares", "--threads", "0"])).is_err());
        assert!(parse(&args(&["shares", "--threads", "x"])).is_err());
        assert!(parse(&args(&["shares", "--threads"])).is_err());
    }

    #[test]
    fn parses_approx_and_synthetic_flags() {
        let opts = parse(&args(&[
            "shares",
            "--approx",
            "--approx-samples",
            "64",
            "--approx-seed",
            "5",
            "--approx-method",
            "stratified",
            "--confidence",
            "0.9",
        ]))
        .unwrap();
        assert!(opts.approx.force);
        assert_eq!(opts.approx.samples, 64);
        assert_eq!(opts.approx.seed, 5);
        assert_eq!(opts.approx.method, ApproxMethod::Stratified);
        assert!((opts.approx.confidence - 0.9).abs() < 1e-12);
        assert!(parse(&args(&["shares", "--approx-samples", "0"])).is_err());
        assert!(parse(&args(&["shares", "--confidence", "1"])).is_err());
        assert!(parse(&args(&["shares", "--approx-method", "x"])).is_err());

        let syn = parse(&args(&["report", "--synthetic", "40:7"])).unwrap();
        assert_eq!(syn.locations.len(), 40);
        assert_eq!(syn.capacities.len(), 40);
        let again = parse(&args(&["report", "--synthetic", "40:7"])).unwrap();
        assert_eq!(syn.locations, again.locations);
        assert!(parse(&args(&["report", "--synthetic", "0"])).is_err());
        assert!(parse(&args(&["report", "--synthetic", "1000"])).is_err());
        // The old 12-facility wall is gone.
        let many: Vec<&str> = vec!["4"; 40];
        assert!(parse(&args(&["shares", "--locations", &many.join(",")])).is_ok());
    }

    #[test]
    fn epsilon_plans_the_sampling_budget() {
        // ε = 0.1 at the default 95% confidence: ⌈ln(40)/0.02⌉ = 185.
        let opts = parse(&args(&["shares", "--epsilon", "0.1"])).unwrap();
        assert_eq!(opts.approx.samples, hoeffding_samples(1.0, 0.1, 0.05));
        assert_eq!(opts.approx.samples, 185);

        // Tighter confidence raises the planned budget; flag order on
        // the command line must not matter.
        let tight = parse(&args(&["shares", "--confidence", "0.99", "--epsilon", "0.1"])).unwrap();
        let tight_rev =
            parse(&args(&["shares", "--epsilon", "0.1", "--confidence", "0.99"])).unwrap();
        assert_eq!(tight.approx.samples, tight_rev.approx.samples);
        assert!(tight.approx.samples > opts.approx.samples);

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
        assert_eq!(explicit.approx.samples, 64);
        let explicit_rev = parse(&args(&[
            "shares",
            "--approx-samples",
            "64",
            "--epsilon",
            "0.1",
        ]))
        .unwrap();
        assert_eq!(explicit_rev.approx.samples, 64);

        assert!(parse(&args(&["shares", "--epsilon", "0"])).is_err());
        assert!(parse(&args(&["shares", "--epsilon", "-0.5"])).is_err());
        assert!(parse(&args(&["shares", "--epsilon", "inf"])).is_err());
        assert!(parse(&args(&["shares", "--epsilon", "x"])).is_err());
        assert!(parse(&args(&["shares", "--epsilon"])).is_err());
    }

    #[test]
    fn sampled_shares_and_report_run_on_large_federations() {
        let mut opts = parse(&args(&["shares", "--synthetic", "40:7"])).unwrap();
        opts.approx.samples = 32;
        let scenario = build_scenario(&opts);
        assert!(print_sampled_shapley(&scenario, 40).is_ok());
        let report = try_policy_report(&scenario).expect("degraded report");
        assert!(report.approx.is_some());
    }

    #[test]
    fn threads_do_not_change_cli_shares() {
        let sequential = build_scenario(&parse(&args(&["shares"])).unwrap());
        let parallel =
            build_scenario(&parse(&args(&["shares", "--threads", "4"])).unwrap());
        assert_eq!(sequential.shapley_shares(), parallel.shapley_shares());
    }
}
