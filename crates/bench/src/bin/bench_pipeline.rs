//! End-to-end observed pipeline benchmark feeding `BENCH_pipeline.json`.
//!
//! Runs the paper's §4.1 worked example (scenario build → Shapley →
//! nucleolus → policy report), a seeded demand simulation for the desim
//! event rate, and the full Fig. 4–9 sweep twice (threads=1 vs
//! `--threads N`) — all with observability on — then writes the metric
//! fold and the phase summaries as JSON.
//!
//! ```text
//! cargo run --release -p fedval-bench --bin bench_pipeline             # write
//! cargo run --release -p fedval-bench --bin bench_pipeline -- --check  # verify
//! ```
//!
//! The JSON has two sections. `"deterministic"` holds counts that must be
//! byte-identical on every machine and every run (pivot counts, LP solves,
//! coalition evaluations, seeded simulation totals, per-figure sweep totals,
//! the threads=1 vs threads=N byte-equality verdict, and the sampled-
//! Shapley error-vs-budget curve with its n=200 fingerprint); `"timing"` holds
//! wall-clock measurements and derived rates — the sequential vs parallel
//! sweep walls and their speedup, next to the workers the parallel leg
//! actually ran and the host's core count (`host.cores`, from
//! `fedval_coalition::available_threads`), plus an `obs_overhead` probe
//! timing the worked example with metrics collection on (no sink) vs off
//! — refreshed on each write. `--check` re-runs the pipeline and fails unless the
//! committed file contains the regenerated deterministic section byte for
//! byte — timing drift is fine, a logic change that shifts pivot or event
//! counts (or breaks sweep thread-invariance) is not — and additionally
//! gates `sweep.speedup >= 1.0` whenever the parallel leg ran with at
//! least 4 workers (the sharded-telemetry redesign is what makes the
//! parallel sweep actually faster; this ratchet keeps it that way). On a
//! host with fewer than 4 cores the gate cannot fire, and the recorded
//! `host.cores` says so.
#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::disallowed_methods,
    reason = "a command-line tool reports on stdout and stderr, and this benchmark times its phases with Instant::now"
)]

use fedval_bench::{set_sweep_threads, Figure};
use fedval_coalition::{shapley, try_approx_shapley_wide, ApproxConfig, Coalition, TableGame};
use fedval_core::{paper_facilities, Demand, ExperimentClass, FederationGame, FederationScenario};
use fedval_obs::MetricsFold;
use fedval_policy::try_policy_report;
use fedval_testbed::{
    run_coalition_faulted, synthetic_authority, synthetic_federation, FaultPlan, Federation,
    SimConfig, Workload,
};
use std::process::ExitCode;

/// Location of the committed benchmark file, relative to this crate.
fn bench_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_pipeline.json")
}

/// Outcome of the Fig. 4–9 sweep legs: per-figure data totals (from the
/// sequential leg) and whether the parallel leg reproduced every figure
/// byte for byte.
struct SweepSummary {
    /// `(figure id, sum of every series value)` in figure order.
    totals: Vec<(&'static str, f64)>,
    /// Scenario points evaluated per leg.
    points: u64,
    /// True iff `to_csv()` is byte-identical between the two legs.
    thread_invariant: bool,
    /// Worker cap requested for the parallel leg (`--threads`).
    parallel_threads: usize,
    /// Workers the parallel leg actually ran (the engine caps at the
    /// hardware's available parallelism — see `run_sweep`).
    parallel_workers: usize,
    /// Best-of-two wall time of the sequential leg, ns.
    sequential_wall_ns: u64,
    /// Best-of-two wall time of the parallel leg, ns.
    parallel_wall_ns: u64,
}

impl SweepSummary {
    /// Sequential-over-parallel wall ratio (0.0 when unmeasurable).
    fn speedup(&self) -> f64 {
        if self.parallel_wall_ns > 0 {
            self.sequential_wall_ns as f64 / self.parallel_wall_ns as f64
        } else {
            0.0
        }
    }
}

/// One point on the sampled-Shapley error-vs-budget curve.
struct ApproxPoint {
    /// Permutation budget fed to the estimator.
    samples: usize,
    /// `max_i |phi_exact_i - phi_sampled_i|` against the 2^n solver.
    max_abs_error: f64,
    /// True iff every exact `phi_i` lies inside the sampled CI for
    /// player `i` — the certificate doing its job.
    exact_within_ci: bool,
}

/// Sampled-Shapley results: the error-vs-budget curve on a validation
/// federation small enough for the exact solver, plus one timed n=200
/// estimate — the workload the 2^n wall used to reject outright.
struct ApproxSummary {
    /// Players in the validation federation (exact Shapley feasible).
    validation_n: usize,
    /// Error at each sample budget, in ascending budget order.
    curve: Vec<ApproxPoint>,
    /// Permutation budget of the n=200 run.
    n200_samples: u64,
    /// First player's raw `phi` estimate at n=200 — a deterministic
    /// fingerprint of the whole sampled run (fixed seed, fixed fold
    /// order ⇒ identical bytes on every machine and thread count).
    n200_phi0: f64,
    /// Widest per-player CI half-width at n=200.
    n200_max_ci: f64,
    /// Wall time of the single n=200 estimate, ns.
    n200_wall_ns: u64,
}

/// Runs the sampled-Shapley benchmark: exact-vs-sampled error at three
/// budgets on a seeded 12-authority federation, then one n=200 estimate
/// under the wall clock. Everything except the wall time is a pure
/// function of the seeds.
fn run_approx(parallel_threads: usize) -> ApproxSummary {
    let _phase = fedval_obs::span("bench.phase.approx");
    const VALIDATION_N: usize = 12;
    const N_LARGE: usize = 200;
    let (facilities, demand) = synthetic_federation(VALIDATION_N, 42);
    let game = FederationGame::new(&facilities, &demand);
    #[expect(
        clippy::expect_used,
        reason = "12 authorities fit a table and the synthetic federation's values are finite"
    )]
    let exact = shapley(&TableGame::try_from_walk(&game, 1).expect("exact table"));
    let curve = [32usize, 128, 512]
        .into_iter()
        .map(|samples| {
            let config = ApproxConfig {
                samples,
                seed: 42,
                threads: parallel_threads,
                ..ApproxConfig::default()
            };
            // The config is valid by construction (samples ≥ 32, default
            // confidence) and n=12 is far under the sampled cap; a panic
            // here means the benchmark itself is broken.
            #[expect(clippy::expect_used, reason = "valid-by-construction config")]
            let approx = try_approx_shapley_wide(&game, &config).expect("estimate");
            let max_abs_error = exact
                .iter()
                .zip(&approx.phi)
                .map(|(e, a)| (e - a).abs())
                .fold(0.0f64, f64::max);
            ApproxPoint {
                samples,
                max_abs_error,
                exact_within_ci: approx.contains(&exact, 1e-9),
            }
        })
        .collect();

    let (facilities, demand) = synthetic_federation(N_LARGE, 42);
    let game = FederationGame::new(&facilities, &demand);
    let config = ApproxConfig {
        samples: 64,
        seed: 42,
        threads: parallel_threads,
        ..ApproxConfig::default()
    };
    let start = std::time::Instant::now();
    #[expect(clippy::expect_used, reason = "same valid-by-construction config")]
    let approx = try_approx_shapley_wide(&game, &config).expect("estimate");
    let n200_wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    ApproxSummary {
        validation_n: VALIDATION_N,
        curve,
        n200_samples: config.samples as u64,
        n200_phi0: approx.phi[0],
        n200_max_ci: approx.max_ci_half_width(),
        n200_wall_ns,
    }
}

/// One formation run in the size ladder: seeded merge/split dynamics on
/// a synthetic federation with everyone present at `t = 0`.
struct FormationCase {
    /// Federation width.
    n: usize,
    /// Rounds the engine actually ran (≤ the cap).
    rounds: u64,
    /// Quiescent round, or 0 when the cap hit first — the
    /// time-to-converge figure BENCH_pipeline.json tracks.
    time_to_converge: u64,
    /// [`fedval_form::FormationOutcome::combined_fingerprint`] of the
    /// threads=1 leg: trajectory + payoff table in one u64.
    fingerprint: u64,
    /// Wall time of the threads=1 leg, ns.
    wall_ns: u64,
}

/// Formation benchmark results: the n ∈ {12, 64, 200} ladder plus the
/// threads=1 vs threads=N byte-equality verdict.
struct FormationSummary {
    /// One entry per ladder size, ascending n.
    cases: Vec<FormationCase>,
    /// True iff every case rendered byte-identically on both legs.
    thread_invariant: bool,
    /// Rounds per second across every threads=1 leg (timing only).
    rounds_per_sec: f64,
}

/// Runs the merge/split engine at n ∈ {12, 64, 200}, each size twice
/// (threads=1, then `parallel_threads`), and demands byte-identical
/// rendered outcomes — the PR 4 fold discipline applied to coalition
/// formation. Budgets are deliberately lean (16-round cap, 8 Shapley
/// samples) so the ladder stays a sub-second phase; the committed
/// fingerprints still pin every merge, split, and payoff byte.
fn run_formation(parallel_threads: usize) -> FormationSummary {
    use fedval_form::{ChurnSchedule, FormationConfig, FormationEngine, FormationGame};
    let _phase = fedval_obs::span("bench.phase.formation");
    let config = |threads: usize| FormationConfig {
        seed: 42,
        max_rounds: 16,
        threads,
        approx: ApproxConfig {
            samples: 8,
            ..ApproxConfig::default()
        },
        ..FormationConfig::default()
    };
    let mut cases = Vec::new();
    let mut thread_invariant = true;
    let mut total_rounds = 0u64;
    let mut total_wall_ns = 0u64;
    for n in [12usize, 64, 200] {
        let game = FormationGame::synthetic(n, 7);
        let schedule = ChurnSchedule::all_at_start(n);
        let start = std::time::Instant::now();
        let baseline = FormationEngine::new(&game, config(1)).run(&schedule);
        let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let parallel = FormationEngine::new(&game, config(parallel_threads)).run(&schedule);
        thread_invariant &= baseline.render() == parallel.render();
        total_rounds += baseline.rounds.len() as u64;
        total_wall_ns += wall_ns;
        cases.push(FormationCase {
            n,
            rounds: baseline.rounds.len() as u64,
            time_to_converge: baseline.converged_round.unwrap_or(0) as u64,
            fingerprint: baseline.combined_fingerprint(),
            wall_ns,
        });
    }
    let rounds_per_sec = if total_wall_ns > 0 {
        total_rounds as f64 / (total_wall_ns as f64 / 1e9)
    } else {
        0.0
    };
    FormationSummary {
        cases,
        thread_invariant,
        rounds_per_sec,
    }
}

/// The figures that are sweeps (everything except closed-form Fig. 2).
fn sweep_figures() -> Vec<Figure> {
    vec![
        fedval_bench::fig4_threshold(),
        fedval_bench::fig5_shape(),
        fedval_bench::fig6_resources(),
        fedval_bench::fig7_mixture(),
        fedval_bench::fig8_volume(),
        fedval_bench::fig9_incentives(),
    ]
}

/// Scenario points one generation of `fig` evaluated: every series shares
/// the same x grid, and Fig. 9 sweeps the full threshold × L₁ grid (its
/// six series come in ϕ/π pairs, one pair per threshold).
fn fig_points(fig: &Figure) -> u64 {
    let xs = fig.series.first().map_or(0, |s| s.points.len());
    let curves = if fig.id == "fig9" {
        fig.series.len() / 2
    } else {
        1
    };
    (xs * curves) as u64
}

/// Sum of every series value in the figure — one number that moves if any
/// data point moves.
fn fig_total(fig: &Figure) -> f64 {
    fig.series
        .iter()
        .flat_map(|s| s.points.iter().map(|&(_, y)| y))
        .sum()
}

/// Runs Fig. 4–9 twice at threads=1 and twice at `parallel_threads`,
/// proving the figure data thread-count-invariant and timing both legs
/// (under `bench.phase.sweep_sequential` / `..._parallel` spans). Each
/// leg's wall is the better of its two generations — the first
/// sequential pass doubles as the warm-up, and min-of-two keeps a single
/// scheduler hiccup from deciding the speedup ratio.
fn run_sweep_legs(parallel_threads: usize) -> SweepSummary {
    let time_leg = |threads: usize, span: &'static str| -> (Vec<Figure>, u64) {
        set_sweep_threads(threads);
        let mut best_ns = u64::MAX;
        let mut figures = Vec::new();
        for _ in 0..2 {
            let _leg = fedval_obs::span(span);
            let start = std::time::Instant::now();
            figures = sweep_figures();
            best_ns = best_ns.min(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        (figures, best_ns)
    };
    let (sequential, sequential_wall_ns) = time_leg(1, "bench.phase.sweep_sequential");
    let (parallel, parallel_wall_ns) = time_leg(parallel_threads, "bench.phase.sweep_parallel");
    set_sweep_threads(0); // restore the process-wide default
    let thread_invariant = sequential.len() == parallel.len()
        && sequential
            .iter()
            .zip(&parallel)
            .all(|(a, b)| a.to_csv() == b.to_csv());
    SweepSummary {
        totals: sequential.iter().map(|f| (f.id, fig_total(f))).collect(),
        points: sequential.iter().map(fig_points).sum(),
        thread_invariant,
        parallel_threads,
        parallel_workers: parallel_threads
            .min(fedval_coalition::available_threads())
            .max(1),
        sequential_wall_ns,
        parallel_wall_ns,
    }
}

/// The aggregate of one pipeline run.
type PipelineRun = (MetricsFold, SweepSummary, ApproxSummary, FormationSummary);

/// Runs every phase with observability on and returns the aggregate.
fn run_pipeline(parallel_threads: usize) -> Result<PipelineRun, Box<dyn std::error::Error>> {
    fedval_obs::ensure_enabled();

    let (sweep, approx, formation) = {
        let _total = fedval_obs::span("bench.pipeline.total");

        // §4.1 worked example: three facilities, one diversity-hungry
        // experiment with threshold 500 — V(N) = 1300.
        let scenario = {
            let _phase = fedval_obs::span("bench.phase.scenario");
            let s = FederationScenario::new(
                paper_facilities([1, 1, 1]),
                Demand::one_experiment(ExperimentClass::simple("e", 500.0, 1.0)),
            );
            let _ = s.game(); // force the coalition table inside this phase
            s
        };
        {
            let _phase = fedval_obs::span("bench.phase.shapley");
            let _ = scenario.shapley_shares();
        }
        {
            let _phase = fedval_obs::span("bench.phase.nucleolus");
            let _ = scenario.nucleolus_shares();
        }
        {
            let _phase = fedval_obs::span("bench.phase.report");
            let _ = try_policy_report(&scenario)?.render();
        }
        {
            // Seeded statistical-multiplexing run (the demand-simulation
            // example's pooled case): drives the desim event counters.
            let _phase = fedval_obs::span("bench.phase.demand_sim");
            let federation = Federation::new(vec![
                synthetic_authority("A", 0, 4, 2, 1, 50),
                synthetic_authority("B", 4, 4, 2, 1, 50),
            ]);
            let class = ExperimentClass::simple("job", 0.0, 1.0).with_max_locations(1);
            let workload = Workload::single(class, 6.0, 1.0);
            let config = SimConfig {
                horizon: 2000.0,
                warmup: 200.0,
                seed: 99,
                churn: None,
            };
            let plan = FaultPlan::new();
            run_coalition_faulted(&federation, Coalition::grand(2), &workload, &config, &plan)?;
        }
        let sweep = {
            // Fig. 4–9 twice: sequential baseline, then the parallel
            // engine — same data, two wall clocks.
            let _phase = fedval_obs::span("bench.phase.sweep");
            run_sweep_legs(parallel_threads)
        };
        // Sampled Shapley: error-vs-budget validation + the n=200
        // federation the exact solvers cannot touch.
        let approx = run_approx(parallel_threads);
        // Coalition formation: the merge/split dynamics ladder, each
        // size run at threads=1 and threads=N for the byte-equality
        // verdict.
        let formation = run_formation(parallel_threads);
        (sweep, approx, formation)
    };

    fedval_obs::shutdown();
    Ok((fedval_obs::metrics_fold(), sweep, approx, formation))
}

/// Total wall time of the named span across all occurrences, ns.
fn span_total_ns(fold: &MetricsFold, name: &str) -> u64 {
    fold.spans.get(name).map_or(0, |s| s.total_ns)
}

/// Wall-clock cost of the telemetry layer itself, measured on the §4.1
/// worked example (scenario build + exact Shapley on its coalition
/// table): once with metrics collection on and no sink (the full enabled
/// path — shard bumps, span guards, records built and dropped) and once
/// off (the `is_enabled()` fast path short-circuits everything).
struct ObsOverhead {
    /// Fastest enabled leg: [`OVERHEAD_PASSES`] passes of the probe
    /// workload with collection on, ns.
    enabled_wall_ns: u64,
    /// Fastest disabled leg: the same passes with collection off, ns.
    disabled_wall_ns: u64,
}

/// Passes of [`overhead_workload`] per timed leg: one pass takes well
/// under a millisecond, too short to time alone.
const OVERHEAD_PASSES: u32 = 100;

/// Rounds of alternating enabled and disabled legs. Each leg keeps its
/// fastest round, so a burst of host noise (or the cold first round)
/// drops out of the ratio.
const OVERHEAD_ROUNDS: u32 = 11;

/// The probe workload: heavy enough to exercise spans and counters,
/// light enough to run a few thousand times per benchmark write.
fn overhead_workload() {
    let scenario = FederationScenario::new(
        paper_facilities([1, 1, 1]),
        Demand::one_experiment(ExperimentClass::simple("e", 500.0, 1.0)),
    );
    let _ = shapley(scenario.game());
}

/// Times [`overhead_workload`] with collection on vs off, alternating
/// the two legs over [`OVERHEAD_ROUNDS`] rounds and keeping each leg's
/// fastest. Must run while observability is shut down; leaves it shut
/// down.
fn measure_obs_overhead() -> ObsOverhead {
    let mut best = ObsOverhead {
        enabled_wall_ns: u64::MAX,
        disabled_wall_ns: u64::MAX,
    };
    for _ in 0..OVERHEAD_ROUNDS {
        fedval_obs::ensure_enabled();
        best.enabled_wall_ns = best.enabled_wall_ns.min(time_overhead_leg());
        fedval_obs::shutdown();
        best.disabled_wall_ns = best.disabled_wall_ns.min(time_overhead_leg());
    }
    best
}

/// Wall time of [`OVERHEAD_PASSES`] passes of [`overhead_workload`], ns.
fn time_overhead_leg() -> u64 {
    let start = std::time::Instant::now();
    for _ in 0..OVERHEAD_PASSES {
        overhead_workload();
    }
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn push_kv_u64(out: &mut String, key: &str, value: u64, last: bool) {
    out.push_str(&format!(
        "    \"{key}\": {value}{}\n",
        if last { "" } else { "," }
    ));
}

fn push_kv_f64(out: &mut String, key: &str, value: f64, last: bool) {
    out.push_str(&format!(
        "    \"{key}\": {value:.6}{}\n",
        if last { "" } else { "," }
    ));
}

/// The deterministic section: identical bytes on every run and machine.
fn deterministic_section(
    fold: &MetricsFold,
    sweep: &SweepSummary,
    approx: &ApproxSummary,
    formation: &FormationSummary,
) -> String {
    let mut out = String::from("  \"deterministic\": {\n");
    for key in [
        "coalition.game.evals",
        "coalition.nucleolus.lp_solves",
        "coalition.nucleolus.stages",
        "desim.engine.delivered",
        "desim.engine.scheduled",
        "simplex.solver.pivots",
        "simplex.solver.solves",
        "testbed.simulate.admitted",
        "testbed.simulate.blocked",
        "testbed.simulate.requests",
    ] {
        push_kv_u64(&mut out, key, fold.counter(key), false);
    }
    push_kv_u64(
        &mut out,
        "testbed.simulate.runs",
        fold.counter("testbed.simulate.runs"),
        false,
    );
    push_kv_u64(&mut out, "sweep.figures", sweep.totals.len() as u64, false);
    push_kv_u64(&mut out, "sweep.points", sweep.points, false);
    for (id, total) in &sweep.totals {
        push_kv_f64(&mut out, &format!("sweep.{id}.total"), *total, false);
    }
    // 1 iff the parallel leg reproduced every figure byte for byte.
    push_kv_u64(
        &mut out,
        "sweep.thread_invariant",
        u64::from(sweep.thread_invariant),
        false,
    );
    // Sampled-Shapley section: every value below is a pure function of
    // the seeds (42 everywhere) — the error curve must shrink as the
    // budget grows, and the n=200 fingerprint pins the wide-game
    // estimator bytes across machines and thread counts.
    push_kv_u64(
        &mut out,
        "approx.validation.n",
        approx.validation_n as u64,
        false,
    );
    for point in &approx.curve {
        push_kv_f64(
            &mut out,
            &format!("approx.curve.{}.max_abs_error", point.samples),
            point.max_abs_error,
            false,
        );
        push_kv_u64(
            &mut out,
            &format!("approx.curve.{}.exact_within_ci", point.samples),
            u64::from(point.exact_within_ci),
            false,
        );
    }
    push_kv_u64(&mut out, "approx.n200.samples", approx.n200_samples, false);
    push_kv_f64(&mut out, "approx.n200.phi0", approx.n200_phi0, false);
    push_kv_f64(
        &mut out,
        "approx.n200.max_ci_half_width",
        approx.n200_max_ci,
        false,
    );
    // Formation ladder: rounds run, quiescent round (0 = cap hit), and
    // the combined trajectory+payoff fingerprint of each size — plus
    // the round/merge/split counters the engine emitted across both
    // legs and the threads=1 vs threads=N verdict. All of it is a pure
    // function of the seeds.
    for case in &formation.cases {
        push_kv_u64(
            &mut out,
            &format!("form.n{}.rounds", case.n),
            case.rounds,
            false,
        );
        push_kv_u64(
            &mut out,
            &format!("form.n{}.time_to_converge", case.n),
            case.time_to_converge,
            false,
        );
        push_kv_u64(
            &mut out,
            &format!("form.n{}.fingerprint", case.n),
            case.fingerprint,
            false,
        );
    }
    for key in ["form.round", "form.merge", "form.split"] {
        push_kv_u64(&mut out, key, fold.counter(key), false);
    }
    push_kv_u64(
        &mut out,
        "form.thread_invariant",
        u64::from(formation.thread_invariant),
        true,
    );
    out.push_str("  }");
    out
}

/// The timing section: wall-clock, refreshed on every write.
fn timing_section(
    fold: &MetricsFold,
    sweep: &SweepSummary,
    approx: &ApproxSummary,
    formation: &FormationSummary,
    overhead: &ObsOverhead,
) -> String {
    let mut out = String::from("  \"timing\": {\n");
    push_kv_u64(
        &mut out,
        "total_wall_ns",
        span_total_ns(fold, "bench.pipeline.total"),
        false,
    );
    for phase in [
        "scenario",
        "shapley",
        "nucleolus",
        "report",
        "demand_sim",
        "sweep",
        "approx",
        "formation",
    ] {
        push_kv_u64(
            &mut out,
            &format!("phase.{phase}_wall_ns"),
            span_total_ns(fold, &format!("bench.phase.{phase}")),
            false,
        );
    }
    let simulate_ns = span_total_ns(fold, "testbed.simulate.run");
    let events_per_sec = if simulate_ns > 0 {
        fold.counter("desim.engine.delivered") as f64 * 1e9 / simulate_ns as f64
    } else {
        0.0
    };
    push_kv_f64(&mut out, "desim.events_per_sec", events_per_sec, false);
    push_kv_u64(
        &mut out,
        "sweep.sequential_wall_ns",
        sweep.sequential_wall_ns,
        false,
    );
    push_kv_u64(
        &mut out,
        "sweep.parallel_wall_ns",
        sweep.parallel_wall_ns,
        false,
    );
    push_kv_u64(
        &mut out,
        "sweep.parallel_threads",
        sweep.parallel_threads as u64,
        false,
    );
    push_kv_u64(
        &mut out,
        "sweep.parallel_workers",
        sweep.parallel_workers as u64,
        false,
    );
    push_kv_u64(
        &mut out,
        "host.cores",
        fedval_coalition::available_threads() as u64,
        false,
    );
    push_kv_f64(&mut out, "sweep.speedup", sweep.speedup(), false);
    push_kv_u64(&mut out, "approx.n200_wall_ns", approx.n200_wall_ns, false);
    for case in &formation.cases {
        push_kv_u64(
            &mut out,
            &format!("form.n{}_wall_ns", case.n),
            case.wall_ns,
            false,
        );
    }
    push_kv_f64(
        &mut out,
        "form.rounds_per_sec",
        formation.rounds_per_sec,
        false,
    );
    push_kv_u64(
        &mut out,
        "obs_overhead.enabled_wall_ns",
        overhead.enabled_wall_ns,
        false,
    );
    push_kv_u64(
        &mut out,
        "obs_overhead.disabled_wall_ns",
        overhead.disabled_wall_ns,
        false,
    );
    let overhead_ratio = if overhead.disabled_wall_ns > 0 {
        overhead.enabled_wall_ns as f64 / overhead.disabled_wall_ns as f64
    } else {
        0.0
    };
    push_kv_f64(&mut out, "obs_overhead.ratio", overhead_ratio, true);
    out.push_str("  }");
    out
}

fn render_json(
    fold: &MetricsFold,
    sweep: &SweepSummary,
    approx: &ApproxSummary,
    formation: &FormationSummary,
    overhead: &ObsOverhead,
) -> String {
    format!(
        "{{\n  \"bench\": \"pipeline\",\n  \"example\": \"section-4.1 worked example + seeded demand simulation + fig4-9 sweep + sampled shapley + formation ladder\",\n{},\n{}\n}}\n",
        deterministic_section(fold, sweep, approx, formation),
        timing_section(fold, sweep, approx, formation, overhead),
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    // Worker count for the parallel sweep leg. Defaults to the
    // available hardware parallelism (floor 1); the committed
    // deterministic section is identical for any count, and the run
    // always diffs a threads=1 sweep against this one to prove it.
    let threads = match args.iter().position(|a| a == "--threads") {
        Some(pos) => match args.get(pos + 1).and_then(|v| v.parse::<usize>().ok()) {
            Some(n) if n >= 1 => n,
            _ => {
                eprintln!("--threads needs a positive integer");
                return ExitCode::FAILURE;
            }
        },
        None => fedval_coalition::available_threads(),
    };
    let (fold, sweep, approx, formation) = match run_pipeline(threads) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("bench_pipeline: {e}");
            return ExitCode::FAILURE;
        }
    };
    let path = bench_path();

    if !sweep.thread_invariant {
        eprintln!(
            "bench_pipeline: figure data differs between threads=1 and threads={}",
            sweep.parallel_threads
        );
        return ExitCode::FAILURE;
    }
    if !formation.thread_invariant {
        eprintln!(
            "bench_pipeline: formation outcome differs between threads=1 and threads={}",
            sweep.parallel_threads
        );
        return ExitCode::FAILURE;
    }

    if check {
        let existing = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!(
                    "bench_pipeline --check: cannot read {}: {e}",
                    path.display()
                );
                return ExitCode::FAILURE;
            }
        };
        let expected = deterministic_section(&fold, &sweep, &approx, &formation);
        if !existing.contains(&expected) {
            eprintln!(
                "bench_pipeline --check: deterministic section of {} is stale.\n\
                 Regenerate with: cargo run --release -p fedval-bench --bin bench_pipeline\n\
                 expected:\n{expected}",
                path.display()
            );
            return ExitCode::FAILURE;
        }
        // Ratcheted perf gate: with 4+ actual workers, the parallel
        // sweep leg must not lose to the sequential one. Sharded
        // telemetry is what bought the speedup; a regression here means
        // the enabled path grew a new serialization point. The minimum
        // is 1.0 less a 3% wall-clock measurement tolerance —
        // best-of-two walls still jitter a percent or two on a busy
        // host. The gate keys on workers, not the requested cap: when
        // the hardware clamps the leg to fewer workers (a single-core
        // host runs both legs as identical sequential code), the ratio
        // is pure scheduler noise and proves nothing.
        let speedup = sweep.speedup();
        if sweep.parallel_workers >= 4 && speedup < 0.97 {
            eprintln!(
                "bench_pipeline --check: sweep.speedup {speedup:.3} < 1.000 at {} workers — \
                 the parallel sweep must beat the sequential baseline",
                sweep.parallel_workers
            );
            return ExitCode::FAILURE;
        }
        println!(
            "bench_pipeline --check: deterministic section matches (sweep.speedup {speedup:.2}x \
             at {} threads: {} workers on {} host cores; the speedup gate needs 4 workers)",
            sweep.parallel_threads,
            sweep.parallel_workers,
            fedval_coalition::available_threads()
        );
        ExitCode::SUCCESS
    } else {
        let overhead = measure_obs_overhead();
        let json = render_json(&fold, &sweep, &approx, &formation, &overhead);
        match std::fs::write(&path, &json) {
            Ok(()) => {
                print!("{json}");
                println!("wrote {}", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("bench_pipeline: cannot write {}: {e}", path.display());
                ExitCode::FAILURE
            }
        }
    }
}
