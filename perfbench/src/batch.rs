//! The batch workloads: `shares-n200`, `report-n7` and `form-n16`.
//!
//! Each job is cold, as a one-shot CLI run is: it builds a fresh
//! scenario, game or engine from the generated inputs, calls the same
//! library entry point the CLI calls with the CLI's defaults, and hands
//! its output to a check. Untraced jobs run with telemetry off; a
//! traced job turns the program's own telemetry on (`metrics_fold`)
//! and times each layer from the benchmark's side.

use crate::stats::{fingerprint_f64, fnv1a, median, ratio, FNV_OFFSET};
use crate::trace::{summarize, Recorder, ThreadCalls, TimedGame, Trace};
use crate::{calib, Ctx, Metrics, Outcome};
use fedval_coalition::{
    shapley_auto_wide, ApproxConfig, ApproxShapley, PlayerId, ShapleyEstimate, WideGame,
};
use fedval_core::allocation::solve;
use fedval_core::{
    coalition_profile, Demand, ExperimentClass, Facility, FederationGame, FederationScenario,
};
use fedval_form::{
    ChurnSchedule, FormationConfig, FormationEngine, FormationGame, FormationOutcome,
};
use fedval_obs::MetricsFold;
use fedval_policy::{try_policy_report, PolicyReport};
use std::hint::black_box;
use std::time::Instant;

/// Seed of the synthetic federations (`--synthetic N` default).
const FEDERATION_SEED: u64 = 42;
/// Input builds timed as one interval before each job. A build takes
/// microseconds, so only an interval this long rises clear of timer and
/// cache jitter; `setup_s` is the median over the run's jobs of the mean
/// build, so it samples the machine across the whole run.
const SETUP_REPS: usize = 256;

/// The seeded synthetic federation exactly as `fedval --synthetic N`
/// builds it: facility names by position, one experiment class.
fn cli_scenario(
    draws: &[(u32, u64)],
    threshold: f64,
    threads: usize,
    approx: ApproxConfig,
) -> FederationScenario {
    let mut start = 0u32;
    let facilities: Vec<Facility> = draws
        .iter()
        .enumerate()
        .map(|(i, &(l, r))| {
            let f = Facility::uniform(format!("facility-{}", i + 1), start, l, r);
            start += l;
            f
        })
        .collect();
    let demand = Demand::one_experiment(ExperimentClass::simple("cli", threshold, 1.0));
    FederationScenario::new(facilities, demand)
        .with_threads(threads)
        .with_approx(approx)
}

/// Mean wall time of one build over `SETUP_REPS` back-to-back builds,
/// timed as one interval, in seconds.
fn time_builds(build: &mut impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..SETUP_REPS {
        build();
    }
    t.elapsed().as_secs_f64() / SETUP_REPS as f64
}

/// Tally of checked operations.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.notes.push(format!("check failed: {what}: {e}"));
        }
    }
}

/// Output fingerprints against the recorded reference, as counts.
struct Prints {
    workload: &'static str,
    seen: u64,
    matched: u64,
    unrecorded: u64,
}

impl Prints {
    fn new(workload: &'static str) -> Prints {
        Prints {
            workload,
            seen: 0,
            matched: 0,
            unrecorded: 0,
        }
    }

    fn add(&mut self, variant: u64, print: u64) {
        self.seen += 1;
        match crate::reference::fingerprint(self.workload, variant) {
            Some(r) if r == print => self.matched += 1,
            Some(_) => {}
            None => self.unrecorded += 1,
        }
    }

    fn note(&self) -> String {
        format!(
            "fingerprints: {} of {} outputs match the recorded reference ({} without one)",
            self.matched, self.seen, self.unrecorded
        )
    }
}

/// Runs `job` repeatedly for `seconds` (at least once); returns the
/// wall time of each run in seconds.
fn run_for(seconds: f64, mut job: impl FnMut() -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut walls = Vec::new();
    while walls.is_empty() || start.elapsed().as_secs_f64() < seconds {
        walls.push(job());
    }
    walls
}

fn fmt_walls(walls: &[f64]) -> String {
    walls
        .iter()
        .map(|w| format!("{w:.4}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Per-layer values of one traced job.
type Layers = Metrics;

/// Per-name median over the traced jobs.
fn median_layers(jobs: &[Layers]) -> Layers {
    let Some(first) = jobs.first() else {
        return Vec::new();
    };
    first
        .iter()
        .map(|&(name, _)| {
            let vals: Vec<f64> = jobs
                .iter()
                .filter_map(|j| j.iter().find(|(n, _)| *n == name).map(|&(_, v)| v))
                .collect();
            (name, median(&vals))
        })
        .collect()
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn span_total(fold: &MetricsFold, name: &str) -> u64 {
    fold.spans.get(name).map_or(0, |s| s.total_ns)
}

/// Sum of the program's `simplex.solver.solve_ns` histogram.
fn simplex_ns(fold: &MetricsFold) -> u64 {
    fold.histogram("simplex.solver.solve_ns")
        .map_or(0, |h| h.sum_ns)
}

/// The layers the program reports through its own telemetry: exact
/// Shapley, simplex, formation rounds and value cache.
fn fold_layers(fold: &MetricsFold) -> Layers {
    let solve_ns = simplex_ns(fold);
    let pivots = fold.counter("simplex.solver.pivots");
    let hits = fold.counter("form.value.hit") as f64;
    let misses = fold.counter("form.value.miss") as f64;
    vec![
        (
            "coalition.shapley.exact_s",
            secs(
                span_total(fold, "coalition.shapley.exact")
                    + span_total(fold, "coalition.shapley.parallel"),
            ),
        ),
        (
            "simplex.solves",
            fold.counter("simplex.solver.solves") as f64,
        ),
        ("simplex.pivots", pivots as f64),
        ("simplex.solve_s", secs(solve_ns)),
        (
            "simplex.us_per_pivot",
            ratio(solve_ns as f64 / 1e3, pivots as f64),
        ),
        ("form.round_s", secs(span_total(fold, "form.round"))),
        ("form.value.hit_ratio", ratio(hits, hits + misses)),
    ]
}

/// Share of the time that `coalition_profile` (the merge) takes out of
/// merge + `allocation::solve`, re-timed outside the job on the member
/// sets the value-call recorder sampled.
fn profile_share(samples: &[Vec<PlayerId>], facilities: &[Facility], demand: &Demand) -> f64 {
    const REPS: usize = 3;
    let (mut merge_ns, mut solve_ns) = (0u128, 0u128);
    for _ in 0..REPS {
        for members in samples {
            let t0 = Instant::now();
            let profile = coalition_profile(members.iter().map(|&p| &facilities[p]));
            let t1 = Instant::now();
            black_box(solve(black_box(&profile), demand).ok());
            let t2 = Instant::now();
            merge_ns += (t1 - t0).as_nanos();
            solve_ns += (t2 - t1).as_nanos();
        }
    }
    ratio(merge_ns as f64, (merge_ns + solve_ns) as f64)
}

/// Layers measured from the value-call recorder and the span tree.
fn core_layers(calls: &[ThreadCalls], job_ns: u64, threads: usize, profile: f64) -> Layers {
    let s = summarize(calls);
    vec![
        ("core.value.calls", s.calls as f64),
        (
            "core.value.distinct_share",
            ratio(s.distinct as f64, s.calls as f64),
        ),
        (
            "core.value.us_per_call",
            ratio(s.busy_ns as f64 / 1e3, s.calls as f64),
        ),
        (
            "core.value.busy_share",
            ratio(s.busy_ns as f64, job_ns as f64 * threads as f64),
        ),
        ("core.profile.share", profile),
    ]
}

/// What one batch job returns to [`drive`].
struct Job {
    /// Wall time of the job, seconds.
    wall: f64,
    /// Fingerprint of every output byte; `None` when the job failed.
    print: Option<u64>,
    /// Per-layer values (traced jobs only).
    layers: Layers,
    /// The span tree (traced jobs only).
    trace: Option<Trace>,
}

impl Job {
    fn plain(wall: f64, print: Option<u64>) -> Job {
        Job {
            wall,
            print,
            layers: Vec::new(),
            trace: None,
        }
    }
}

/// Runs the jobs of a batch workload — `job(tally, traced, variant)`
/// runs one cold job on input `variant`, keeping `busy_threads` threads
/// busy for most of it — and assembles the metrics: untraced jobs, each
/// preceded by timed builds of the inputs (`setup`), with `--trace 0`;
/// alternating untraced and traced jobs with `--trace 1`, where each
/// traced job must give the same output bytes as the untraced job on the
/// same input before it, so the traced path cannot drift from the path
/// the end-to-end metrics time.
fn drive(
    ctx: &Ctx,
    busy_threads: usize,
    mut setup: impl FnMut(),
    tally: &mut Tally,
    mut job: impl FnMut(&mut Tally, bool, u64) -> Job,
) -> Metrics {
    // Job k runs input variant (seed + k) mod VARIANTS, so a run's median
    // covers many inputs and a claim cannot rest on one.
    let mut k = 0u64;
    let mut next_variant = || {
        k += 1;
        (ctx.variant + k - 1) % crate::VARIANTS
    };
    if !ctx.trace {
        // The calibration kernel runs before and after each job; the
        // build and the job between them are scaled to the reference
        // speed by the mean of the two.
        let (mut setups, mut scaled, mut kernels) = (Vec::new(), Vec::new(), Vec::new());
        let walls = run_for(ctx.seconds, || {
            let before = calib::kernel_s(busy_threads);
            let build = time_builds(&mut setup);
            let wall = job(tally, false, next_variant()).wall;
            let after = calib::kernel_s(busy_threads);
            let to_ref = calib::to_reference(before, after);
            setups.push(build * to_ref);
            scaled.push(wall * to_ref);
            kernels.extend([before, after]);
            wall
        });
        println!(
            "job_s = {} s (median of {} cold jobs), {} s at the reference speed",
            median(&walls),
            walls.len(),
            median(&scaled)
        );
        println!("job walls (s): {}", fmt_walls(&walls));
        println!(
            "calibration kernel: median {} s (reference {} s)",
            median(&kernels),
            calib::REF_KERNEL_S
        );
        return vec![
            ("ops_per_s", 1.0 / median(&scaled)),
            ("setup_s", median(&setups)),
            ("peak_rss_mb", crate::peak_rss_mb(None)),
        ];
    }
    // Alternate untraced and traced jobs so both see the same machine.
    let start = Instant::now();
    let (mut plain, mut with_trace, mut layers) = (Vec::new(), Vec::new(), Vec::new());
    let mut last_trace = None;
    while plain.is_empty() || with_trace.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
        // Each untraced/traced pair runs the same input.
        let variant = next_variant();
        let untraced = job(tally, false, variant);
        plain.push(untraced.wall);
        let traced = job(tally, true, variant);
        let same = match (untraced.print, traced.print) {
            (Some(a), Some(b)) if a == b => Ok(()),
            (Some(a), Some(b)) => Err(format!("untraced {a:016x}, traced {b:016x}")),
            _ => Err("a job of the pair failed".to_string()),
        };
        tally.check("traced output equals the untraced output", same);
        with_trace.push(traced.wall);
        layers.push(traced.layers);
        last_trace = traced.trace.or(last_trace);
    }
    if let Some(tr) = &last_trace {
        ctx.write_trace(tr);
    }
    let mut out = median_layers(&layers);
    out.push(("job_s", median(&plain)));
    out.push(("obs.overhead", median(&with_trace) / median(&plain)));
    println!(
        "jobs: {} untraced (median {:.4} s), {} traced (median {:.4} s)",
        plain.len(),
        median(&plain),
        with_trace.len(),
        median(&with_trace)
    );
    out
}

// ---------------------------------------------------------------- shares

const SHARES_N: usize = 200;
const SHARES_SAMPLES: usize = 256;

/// The estimator settings of `fedval shares --synthetic 200`, with the
/// sampling seed drawn from the workload seed (42 for variant 0).
fn shares_config(variant: u64) -> ApproxConfig {
    ApproxConfig {
        seed: FEDERATION_SEED + variant,
        samples: SHARES_SAMPLES,
        ..ApproxConfig::default()
    }
}

/// Every byte of an estimate: shares, errors, intervals and `V(N)`.
fn shares_bytes(a: &ApproxShapley) -> Vec<f64> {
    let mut v = a.phi.clone();
    v.extend_from_slice(&a.std_error);
    v.extend_from_slice(&a.ci_half_width);
    v.push(a.grand_value);
    v
}

/// One cold `fedval shares` job: build the scenario, run the solver
/// selection the CLI runs (`FederationScenario::shapley_estimate`).
fn shares_job(
    draws: &[(u32, u64)],
    threshold: f64,
    approx: ApproxConfig,
    threads: usize,
) -> (f64, Result<ApproxShapley, String>) {
    let t = Instant::now();
    let scenario = cli_scenario(draws, threshold, threads, approx);
    let est = scenario.shapley_estimate();
    let wall = t.elapsed().as_secs_f64();
    (wall, sampled(est.map_err(|e| e.to_string())))
}

fn sampled(est: Result<ShapleyEstimate, String>) -> Result<ApproxShapley, String> {
    est.and_then(|e| {
        e.as_approx()
            .cloned()
            .ok_or_else(|| "expected a sampled estimate".to_string())
    })
}

/// `fedval shares --synthetic 200 --approx-seed S`: the permutation
/// estimator, 256 permutations, on the seeded 200-authority federation.
pub fn shares(ctx: &Ctx) -> Outcome {
    let (draws, threshold) = fedval_testbed::synthetic_profile(SHARES_N, FEDERATION_SEED);
    println!(
        "inputs: n={SHARES_N} federation-seed={FEDERATION_SEED} permutations={SHARES_SAMPLES} \
         sampling-seed=42+variant, first variant {} threads={}",
        ctx.variant, ctx.nproc
    );
    let setup = || {
        let (d, t) = fedval_testbed::synthetic_profile(SHARES_N, FEDERATION_SEED);
        black_box(cli_scenario(&d, t, ctx.nproc, shares_config(ctx.variant)));
    };
    let v_empty = {
        let s = cli_scenario(&draws, threshold, 1, shares_config(0));
        FederationGame::new(s.facilities(), s.demand()).value_members(&[])
    };
    let mut tally = Tally::default();
    let mut prints = Prints::new("shares-n200");
    let mut first: Option<Vec<u64>> = None;
    let mut record = |tally: &mut Tally, variant: u64, a: Result<ApproxShapley, String>| match a {
        Ok(a) => {
            let total: f64 = a.phi.iter().sum();
            let want = a.grand_value - v_empty;
            let efficient = if (total - want).abs() <= 1e-9 * want.abs().max(1.0) {
                Ok(())
            } else {
                Err(format!("sum(phi) = {total} but V(N) - V(empty) = {want}"))
            };
            tally.check("sum(phi) = V(N) - V(empty)", efficient);
            let bytes = shares_bytes(&a);
            let print = fingerprint_f64(&bytes);
            prints.add(variant, print);
            first.get_or_insert_with(|| bytes.iter().map(|v| v.to_bits()).collect());
            Some(print)
        }
        Err(e) => {
            tally.check("sampled estimate", Err(e));
            None
        }
    };
    let metrics = drive(
        ctx,
        ctx.nproc,
        setup,
        &mut tally,
        |tally, traced, variant| {
            let approx = shares_config(variant);
            if traced {
                let (wall, a, layers, tr) = shares_traced(ctx, &draws, threshold, approx);
                Job {
                    wall,
                    print: record(tally, variant, a),
                    layers,
                    trace: Some(tr),
                }
            } else {
                let (wall, a) = shares_job(&draws, threshold, approx, ctx.nproc);
                Job::plain(wall, record(tally, variant, a))
            }
        },
    );
    // Thread-count invariance (DESIGN.md §14) on the run's first input,
    // checked once per run outside the measured jobs.
    let (_, single) = shares_job(&draws, threshold, shares_config(ctx.variant), 1);
    let invariant = match (single, &first) {
        (Ok(a), Some(p)) => {
            if shares_bytes(&a)
                .iter()
                .map(|v| v.to_bits())
                .eq(p.iter().copied())
            {
                Ok(())
            } else {
                Err(format!("threads=1 and threads={} differ", ctx.nproc))
            }
        }
        (Err(e), _) => Err(e),
        (_, None) => Err("no estimate to compare".to_string()),
    };
    tally.check("phi byte-identical at threads 1 and nproc", invariant);
    tally.notes.push(prints.note());
    Outcome::new(tally.attempted, tally.failed, metrics, tally.notes)
}

fn shares_traced(
    ctx: &Ctx,
    draws: &[(u32, u64)],
    threshold: f64,
    approx: ApproxConfig,
) -> (f64, Result<ApproxShapley, String>, Layers, Trace) {
    fedval_obs::ensure_enabled();
    let mut tr = Trace::new();
    let rec = Recorder::new(tr.origin(), ctx.seed, 197, 256);
    let job = tr.open("job", None);
    let scenario = cli_scenario(draws, threshold, ctx.nproc, approx);
    let game = TimedGame {
        inner: FederationGame::new(scenario.facilities(), scenario.demand()),
        rec: &rec,
    };
    let cfg = ApproxConfig {
        threads: ctx.nproc,
        ..approx
    };
    let approx_span = tr.open("coalition.approx", Some(job));
    let est = shapley_auto_wide(&game, &cfg);
    tr.close(approx_span);
    tr.close(job);
    let fold = fedval_obs::metrics_fold();
    fedval_obs::shutdown();
    let calls = rec.drain();
    tr.adopt_calls(&calls, approx_span);
    let job_ns = tr.get(job).dur();
    let samples: Vec<Vec<PlayerId>> = calls.iter().flat_map(|t| t.samples.clone()).collect();
    let profile = profile_share(&samples, scenario.facilities(), scenario.demand());
    let mut layers = core_layers(&calls, job_ns, ctx.nproc, profile);
    let selfs = tr.self_times();
    layers.push(("coalition.approx.self_s", secs(selfs[approx_span])));
    layers.push((
        "coalition.approx.worker_balance",
        summarize(&calls).worker_balance,
    ));
    layers.extend(fold_layers(&fold));
    layers.push(("trace.coverage", tr.coverage(job)));
    (
        secs(job_ns),
        sampled(est.map_err(|e| e.to_string())),
        layers,
        tr,
    )
}

// ---------------------------------------------------------------- report

const REPORT_N: usize = 7;

/// The player order of a `report-n7` input: a seeded relabeling of the
/// seven authorities (identity for variant 0, the CLI's own order).
/// Shapley values and the nucleolus are unique and relabel with the
/// players, so one canonical reference checks every variant.
fn relabeling(variant: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..REPORT_N).collect();
    let mut rng = crate::stats::SplitMix(variant.wrapping_mul(0xA5A5_0F0F_3C3C_9696));
    if variant != 0 {
        for i in (1..REPORT_N).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            order.swap(i, j);
        }
    }
    order
}

fn scheme_shares(report: &PolicyReport, scheme: &str) -> Result<Vec<f64>, String> {
    report
        .assessments
        .iter()
        .find(|a| a.scheme == scheme)
        .map(|a| a.shares.clone())
        .ok_or_else(|| format!("report has no {scheme} row"))
}

/// One cold `fedval report` job: build the scenario, build the report,
/// render it.
fn report_job(
    draws: &[(u32, u64)],
    threshold: f64,
    threads: usize,
) -> (f64, Result<(PolicyReport, String), String>) {
    let t = Instant::now();
    let scenario = cli_scenario(draws, threshold, threads, ApproxConfig::default());
    let out = try_policy_report(&scenario).map(|r| {
        let text = r.render();
        (r, text)
    });
    (t.elapsed().as_secs_f64(), out.map_err(|e| e.to_string()))
}

/// `fedval report --synthetic 7`: `try_policy_report` plus `render` —
/// exact Shapley, the core tests and the nucleolus.
pub fn report(ctx: &Ctx) -> Outcome {
    let (canonical, threshold) = fedval_testbed::synthetic_profile(REPORT_N, FEDERATION_SEED);
    let inputs = |variant: u64| -> (Vec<usize>, Vec<(u32, u64)>) {
        let order = relabeling(variant);
        let draws = order.iter().map(|&p| canonical[p]).collect();
        (order, draws)
    };
    println!(
        "inputs: n={REPORT_N} federation-seed={FEDERATION_SEED} player order seeded by the \
         variant, first variant {} threads={}",
        ctx.variant, ctx.nproc
    );
    let setup = || {
        let (c, t) = fedval_testbed::synthetic_profile(REPORT_N, FEDERATION_SEED);
        let d: Vec<(u32, u64)> = relabeling(ctx.variant).iter().map(|&p| c[p]).collect();
        black_box(cli_scenario(&d, t, ctx.nproc, ApproxConfig::default()));
    };
    let shapley_ref = crate::reference::report_shares("shapley");
    let nucleolus_ref = crate::reference::report_shares("nucleolus");
    let check = |order: &[usize], report: &PolicyReport| -> Result<(), String> {
        for (scheme, want) in [("shapley", &shapley_ref), ("nucleolus", &nucleolus_ref)] {
            let got = scheme_shares(report, scheme)?;
            if got.len() != REPORT_N || want.len() != REPORT_N {
                return Err(format!(
                    "{scheme}: no recorded reference for {REPORT_N} authorities"
                ));
            }
            for (i, &p) in order.iter().enumerate() {
                if (got[i] - want[p]).abs() > 1e-9 {
                    return Err(format!(
                        "{scheme} share of authority {p} is {} (reference {})",
                        got[i], want[p]
                    ));
                }
            }
        }
        Ok(())
    };
    let mut tally = Tally::default();
    let mut prints = Prints::new("report-n7");
    // Nearly all of the job is the nucleolus, which runs on one thread.
    let metrics = drive(ctx, 1, setup, &mut tally, |tally, traced, variant| {
        let (order, draws) = inputs(variant);
        let (wall, out, layers, tr) = if traced {
            let (wall, out, layers, tr) = report_traced(ctx, &draws, threshold);
            (wall, out, layers, Some(tr))
        } else {
            let (wall, out) = report_job(&draws, threshold, ctx.nproc);
            (wall, out, Vec::new(), None)
        };
        let print = match out {
            Ok((report, text)) => {
                tally.check(
                    "shapley and nucleolus within 1e-9 of the reference",
                    check(&order, &report),
                );
                let print = fnv1a(FNV_OFFSET, text.as_bytes());
                prints.add(variant, print);
                Some(print)
            }
            Err(e) => {
                tally.check("policy report", Err(e));
                None
            }
        };
        Job {
            wall,
            print,
            layers,
            trace: tr,
        }
    });
    tally.notes.push(prints.note());
    Outcome::new(tally.attempted, tally.failed, metrics, tally.notes)
}

fn report_traced(
    ctx: &Ctx,
    draws: &[(u32, u64)],
    threshold: f64,
) -> (f64, Result<(PolicyReport, String), String>, Layers, Trace) {
    fedval_obs::ensure_enabled();
    let mut tr = Trace::new();
    let job = tr.open("job", None);
    let scenario = cli_scenario(draws, threshold, ctx.nproc, ApproxConfig::default());
    let build = tr.open("policy.report", Some(job));
    let report = try_policy_report(&scenario);
    tr.close(build);
    let render = tr.open("policy.render", Some(job));
    let out = report.map(|r| {
        let text = r.render();
        (r, text)
    });
    tr.close(render);
    tr.close(job);
    let fold = fedval_obs::metrics_fold();
    fedval_obs::shutdown();

    // The report builds the coalition table inside the scenario, so the
    // core layer is read from the program's own table-build span.
    let table_ns = span_total(&fold, "core.scenario.table_build");
    let calls = fold.span_count("coalition.game.eval");
    let n = scenario.facilities().len();
    let all: Vec<Vec<PlayerId>> = (0u64..1 << n)
        .map(|mask| (0..n).filter(|&p| mask >> p & 1 == 1).collect())
        .collect();
    let profile = profile_share(&all, scenario.facilities(), scenario.demand());
    let job_ns = tr.get(job).dur();
    let mut layers: Layers = vec![
        ("core.value.calls", calls as f64),
        (
            "core.value.distinct_share",
            ratio((calls.min(1 << n)) as f64, calls as f64),
        ),
        (
            "core.value.us_per_call",
            ratio(table_ns as f64 / 1e3, calls as f64),
        ),
        (
            "core.value.busy_share",
            ratio(table_ns as f64, job_ns as f64 * ctx.nproc as f64),
        ),
        ("core.profile.share", profile),
    ];
    let exact_ns = span_total(&fold, "coalition.shapley.exact")
        + span_total(&fold, "coalition.shapley.parallel");
    let nucleolus_ns = span_total(&fold, "coalition.nucleolus.solve");
    let solve_ns = simplex_ns(&fold);
    // The simplex histogram does not say which solves the nucleolus ran.
    // A probe outside the job re-runs the same nucleolus on the same
    // table and counts its pivots; the job's simplex time is split by
    // that share of its pivots.
    let probe_pivots = match scenario.try_game() {
        Ok(table) => {
            fedval_obs::ensure_enabled();
            black_box(fedval_coalition::try_nucleolus(table).ok());
            let probe = fedval_obs::metrics_fold();
            fedval_obs::shutdown();
            probe.counter("simplex.solver.pivots")
        }
        Err(_) => 0,
    };
    let pivots = fold.counter("simplex.solver.pivots");
    let inside_ns = (solve_ns as f64 * ratio(probe_pivots as f64, pivots as f64)) as u64;
    let report_ns = tr.get(build).dur();
    let outside_ns = solve_ns.saturating_sub(inside_ns);
    layers.extend(fold_layers(&fold));
    layers.push((
        "coalition.nucleolus.self_s",
        secs(nucleolus_ns.saturating_sub(inside_ns)),
    ));
    layers.push((
        "policy.other_s",
        secs(report_ns.saturating_sub(table_ns + exact_ns + nucleolus_ns + outside_ns)),
    ));
    layers.push(("trace.coverage", tr.coverage(job)));
    (secs(job_ns), out.map_err(|e| e.to_string()), layers, tr)
}

// ------------------------------------------------------------------ form

const FORM_N: usize = 16;
const FORM_ROUNDS: usize = 32;
const FORM_ROUND_DT: f64 = 10.0;

/// `fedform` with its defaults, the rule seed drawn from the workload
/// seed.
fn form_config(seed: u64, threads: usize) -> FormationConfig {
    FormationConfig {
        seed,
        max_rounds: FORM_ROUNDS,
        round_dt: FORM_ROUND_DT,
        pair_budget: 128,
        split_budget: 2,
        neutral_budget: 32,
        threads,
        approx: ApproxConfig {
            samples: 64,
            ..ApproxConfig::default()
        },
        ..FormationConfig::default()
    }
}

/// `fedform`'s default churn (seed 42) in every input variant: the
/// same authorities arrive and depart, so every variant ends with the
/// same 15 members and its payoff passes do the same work, and a run's
/// median does not hinge on which variants it reached.
fn form_schedule() -> ChurnSchedule {
    let horizon = FORM_ROUNDS as f64 * FORM_ROUND_DT;
    ChurnSchedule::seeded(
        FORM_N,
        FEDERATION_SEED,
        horizon,
        FORM_N.div_ceil(2),
        FORM_N / 16,
    )
}

/// Shapley passes the payoff stage runs: the promised pass over all
/// survivors plus one realized pass per multi-member coalition; and how
/// many realized passes repeat the promised game because the coalition
/// is the whole membership.
fn payoff_passes(outcome: &FormationOutcome) -> (usize, usize) {
    let survivors = outcome.final_partition.n_members();
    if survivors == 0 {
        return (0, 0);
    }
    let blocks: Vec<usize> = outcome
        .final_partition
        .blocks()
        .map(|(_, m)| m.len())
        .filter(|&len| len > 1)
        .collect();
    let repeated = blocks.iter().filter(|&&len| len == survivors).count();
    (1 + blocks.len(), repeated)
}

/// One cold `fedform` job: build the game, schedule and engine, run
/// the dynamics.
fn form_job(rule_seed: u64, threads: usize) -> (f64, FormationOutcome) {
    let t = Instant::now();
    let game = FormationGame::synthetic(FORM_N, FEDERATION_SEED);
    let schedule = form_schedule();
    let engine = FormationEngine::new(&game, form_config(rule_seed, threads));
    let outcome = engine.run(&schedule);
    (t.elapsed().as_secs_f64(), outcome)
}

/// `fedform` with no flags: n=16, half present at t=0, n/16 seeded
/// departures, a 32-round cap; the merge/split rule seed is 42 + the
/// input variant.
pub fn form(ctx: &Ctx) -> Outcome {
    let rule_seed = |variant: u64| FEDERATION_SEED + variant;
    println!(
        "inputs: n={FORM_N} federation-seed={FEDERATION_SEED} churn-seed={FEDERATION_SEED} \
         rule-seed=42+variant, first variant {} initial={} departures={} rounds<={FORM_ROUNDS} \
         threads={}",
        ctx.variant,
        FORM_N.div_ceil(2),
        FORM_N / 16,
        ctx.nproc
    );
    let setup = || {
        let game = FormationGame::synthetic(FORM_N, FEDERATION_SEED);
        let schedule = form_schedule();
        let config = form_config(rule_seed(ctx.variant), ctx.nproc);
        black_box(FormationEngine::new(&game, config).cache_stats());
        black_box(schedule);
    };
    let (facilities, demand) = fedval_testbed::synthetic_federation(FORM_N, FEDERATION_SEED);
    let check = |o: &FormationOutcome| -> Result<(), String> {
        if let Some(e) = &o.payoff_error {
            return Err(format!("payoffs unavailable: {e}"));
        }
        if o.payoffs.is_empty() {
            return Err("no payoff rows".to_string());
        }
        let game = FederationGame::new(&facilities, &demand);
        for (_, members) in o.final_partition.blocks() {
            let value = game.value_members(members);
            let paid: f64 = o
                .payoffs
                .iter()
                .filter(|r| members.contains(&r.authority))
                .map(|r| r.realized)
                .sum();
            if (paid - value).abs() > 1e-9 * value.abs().max(1.0) {
                return Err(format!(
                    "coalition {members:?} is paid {paid} but worth {value}"
                ));
            }
        }
        Ok(())
    };
    let mut tally = Tally::default();
    let mut prints = Prints::new("form-n16");
    let mut first: Option<String> = None;
    let metrics = drive(
        ctx,
        ctx.nproc,
        setup,
        &mut tally,
        |tally, traced, variant| {
            let (wall, o, layers, tr) = if traced {
                let (wall, o, layers, tr) = form_traced(ctx, rule_seed(variant));
                (wall, o, layers, Some(tr))
            } else {
                let (wall, o) = form_job(rule_seed(variant), ctx.nproc);
                (wall, o, Vec::new(), None)
            };
            tally.check("realized payoffs sum to each coalition's value", check(&o));
            let print = o.combined_fingerprint();
            prints.add(variant, print);
            first.get_or_insert_with(|| o.render());
            Job {
                wall,
                print: Some(print),
                layers,
                trace: tr,
            }
        },
    );
    // Thread-count invariance on the run's first input, once per run
    // outside the measured jobs.
    let (_, single) = form_job(rule_seed(ctx.variant), 1);
    let invariant = match &first {
        Some(text) if *text == single.render() => Ok(()),
        Some(_) => Err(format!("threads=1 and threads={} differ", ctx.nproc)),
        None => Err("no outcome to compare".to_string()),
    };
    tally.check("outcome byte-identical at threads 1 and nproc", invariant);
    tally.notes.push(prints.note());
    Outcome::new(tally.attempted, tally.failed, metrics, tally.notes)
}

fn form_traced(ctx: &Ctx, rule_seed: u64) -> (f64, FormationOutcome, Layers, Trace) {
    fedval_obs::ensure_enabled();
    let mut tr = Trace::new();
    let rec = Recorder::new(tr.origin(), ctx.seed, 4099, 256);
    let job = tr.open("job", None);
    let game = TimedGame {
        inner: FormationGame::synthetic(FORM_N, FEDERATION_SEED),
        rec: &rec,
    };
    let schedule = form_schedule();
    let engine = FormationEngine::new(&game, form_config(rule_seed, ctx.nproc));
    let run = tr.open("form.run", Some(job));
    let outcome = engine.run(&schedule);
    tr.close(run);
    tr.close(job);
    let fold = fedval_obs::metrics_fold();
    fedval_obs::shutdown();
    let calls = rec.drain();
    tr.adopt_calls(&calls, run);
    let job_ns = tr.get(job).dur();
    let (facilities, demand) = fedval_testbed::synthetic_federation(FORM_N, FEDERATION_SEED);
    let samples: Vec<Vec<PlayerId>> = calls.iter().flat_map(|t| t.samples.clone()).collect();
    let profile = profile_share(&samples, &facilities, &demand);
    let mut layers = core_layers(&calls, job_ns, ctx.nproc, profile);
    layers.extend(fold_layers(&fold));
    let (passes, repeated) = payoff_passes(&outcome);
    layers.push(("form.payoff_passes", passes as f64));
    layers.push(("form.payoff_passes_repeated", repeated as f64));
    layers.push(("trace.coverage", tr.coverage(job)));
    (secs(job_ns), outcome, layers, tr)
}

/// Prints the canonical `report-n7` shares and the output fingerprint
/// of every input variant of the batch workloads, as the lines of
/// `reference.tsv`. Records the reference; never part of a run.
pub fn record_reference(nproc: usize) {
    let (draws, threshold) = fedval_testbed::synthetic_profile(REPORT_N, FEDERATION_SEED);
    let scenario = cli_scenario(&draws, threshold, nproc, ApproxConfig::default());
    match try_policy_report(&scenario) {
        Ok(r) => {
            for scheme in ["shapley", "nucleolus"] {
                let shares = scheme_shares(&r, scheme).unwrap_or_default();
                let text: Vec<String> = shares.iter().map(|v| format!("{v:?}")).collect();
                println!("report-n7.{scheme}\t-\t{}", text.join(","));
            }
        }
        Err(e) => eprintln!("report-n7: {e}"),
    }
    let (wide, wide_threshold) = fedval_testbed::synthetic_profile(SHARES_N, FEDERATION_SEED);
    for variant in 0..crate::VARIANTS {
        let order = relabeling(variant);
        let d: Vec<(u32, u64)> = order.iter().map(|&p| draws[p]).collect();
        if let (wall, Ok((_, text))) = report_job(&d, threshold, nproc) {
            println!(
                "report-n7\t{variant}\t{:016x}",
                fnv1a(FNV_OFFSET, text.as_bytes())
            );
            eprintln!("report-n7 {variant}: {wall:.3} s");
        }
        if let (wall, Ok(a)) = shares_job(&wide, wide_threshold, shares_config(variant), nproc) {
            println!(
                "shares-n200\t{variant}\t{:016x}",
                fingerprint_f64(&shares_bytes(&a))
            );
            eprintln!("shares-n200 {variant}: {wall:.3} s");
        }
        let (wall, o) = form_job(FEDERATION_SEED + variant, nproc);
        println!("form-n16\t{variant}\t{:016x}", o.combined_fingerprint());
        eprintln!(
            "form-n16 {variant}: {wall:.3} s, {} rounds, final {} coalitions / {} members",
            o.rounds.len(),
            o.final_partition.n_blocks(),
            o.final_partition.n_members()
        );
    }
}
