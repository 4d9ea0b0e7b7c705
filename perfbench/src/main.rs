//! `perfbench` — fedval's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload shares-n200|report-n7|form-n16|serve-mixed \
//!           --seed N --seconds S --trace 0|1 [--serve-bin PATH] [--out-dir DIR]
//! ```
//!
//! One workload per process. The workload seed picks the inputs; the
//! program under test only ever sees the generated inputs. With
//! `--trace 0` the run measures the end-to-end metrics with telemetry
//! off; with `--trace 1` it measures the per-layer metrics. Every output
//! is checked, and the last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

mod batch;
mod calib;
mod reference;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// Input variants per workload: the workload seed is reduced modulo
/// this, so every input has a recorded reference fingerprint.
pub const VARIANTS: u64 = 16;

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: &[&str] = &["ops_per_s", "setup_s", "peak_rss_mb"];

/// The per-layer metrics every workload reports with `--trace 1`. A
/// layer a workload never reaches is absent from its measurements and
/// reads 0.
pub const PER_LAYER: &[&str] = &[
    "core.value.calls",
    "core.value.distinct_share",
    "core.value.us_per_call",
    "core.value.busy_share",
    "core.profile.share",
    "coalition.approx.self_s",
    "coalition.approx.worker_balance",
    "coalition.shapley.exact_s",
    "coalition.nucleolus.self_s",
    "simplex.solves",
    "simplex.pivots",
    "simplex.solve_s",
    "simplex.us_per_pivot",
    "policy.other_s",
    "form.round_s",
    "form.value.hit_ratio",
    "form.payoff_passes",
    "form.payoff_passes_repeated",
    "serve.parse_us",
    "serve.render_us",
    "serve.exec_us.read",
    "serve.exec_us.whatif_hit",
    "serve.exec_us.whatif_miss",
    "serve.exec_us",
    "serve.server_us",
    "serve.queue_us",
    "serve.wire_us",
    "serve.whatif.hit_ratio",
    "load.late_p99_ms",
    "p50_ms.low",
    "p99_ms.low",
    "p50_ms.high",
    "p99_ms.high",
    "max_rps_slo",
    "job_s",
    "obs.overhead",
    "trace.coverage",
];

/// Unit of a metric, by name.
pub fn unit_of(name: &str) -> &'static str {
    match name {
        "load.late_p99_ms" | "p50_ms.low" | "p99_ms.low" | "p50_ms.high" | "p99_ms.high" => "ms",
        "peak_rss_mb" => "MB",
        "max_rps_slo" => "req/s",
        "ops_per_s" => "1/s",
        "core.value.calls"
        | "simplex.solves"
        | "simplex.pivots"
        | "form.payoff_passes"
        | "form.payoff_passes_repeated" => "count",
        n if n.ends_with("_s") => "s",
        n if n.contains("_us") || n.contains(".us_") => "us",
        _ => "ratio",
    }
}

/// `(name, value)` pairs; the unit of each comes from [`unit_of`].
pub type Metrics = Vec<(&'static str, f64)>;

/// What one run measured and checked.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64, metrics: Metrics, notes: Vec<String>) -> Outcome {
        Outcome {
            attempted,
            failed,
            metrics,
            notes,
        }
    }
}

/// The run's settings.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    /// `seed % VARIANTS`: which recorded input variant this run uses.
    pub variant: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Worker threads given to the program (and the host's core count).
    pub nproc: usize,
    /// Where traced runs write their spans.
    pub out_dir: PathBuf,
    /// The `fedval-serve` daemon binary (serve-mixed only).
    pub serve_bin: Option<PathBuf>,
}

impl Ctx {
    /// Writes a traced job's spans under the output directory.
    pub fn write_trace(&self, tr: &trace::Trace) {
        let path = self
            .out_dir
            .join(format!("trace-{}-{}.tsv", self.workload, self.seed));
        if let Err(e) = tr.write(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
}

/// Peak resident memory (VmHWM) of `pid`, or of this process, in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn parse_args() -> Result<(Ctx, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, false);
    let mut out_dir = PathBuf::from(".bench_build/perfbench");
    let mut serve_bin = None;
    let mut record = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--record-reference" {
            record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let seed = seed.unwrap_or(0);
    let ctx = Ctx {
        workload: workload.unwrap_or_default(),
        seed,
        variant: seed % VARIANTS,
        seconds: seconds.unwrap_or(10.0),
        trace,
        nproc,
        out_dir,
        serve_bin,
    };
    if !record && ctx.workload.is_empty() {
        return Err("usage: perfbench --workload W --seed N --seconds S --trace 0|1".to_string());
    }
    Ok((ctx, record))
}

fn print_result(ctx: &Ctx, out: &Outcome) -> Result<(), String> {
    let names = if ctx.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for name in names {
        let measured = out.metrics.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
        let value = match measured {
            Some(v) => v,
            None if ctx.trace => 0.0,
            None => return Err(format!("workload did not measure {name}")),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not a finite number ({value})"));
        }
        let unit = unit_of(name);
        println!("metric {name} = {value} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for note in &out.notes {
        println!("{note}");
    }
    println!(
        "fail_share = {} ratio ({} failed of {} attempted)",
        stats::ratio(out.failed as f64, out.attempted as f64),
        out.failed,
        out.attempted
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        fields.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    let (ctx, record) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if record {
        batch::record_reference(ctx.nproc);
        return ExitCode::SUCCESS;
    }
    println!(
        "perfbench: workload={} seed={} variant={} seconds={} trace={} host-cores={} worker-threads={}",
        ctx.workload,
        ctx.seed,
        ctx.variant,
        ctx.seconds,
        u8::from(ctx.trace),
        ctx.nproc,
        ctx.nproc
    );
    let outcome = match ctx.workload.as_str() {
        "shares-n200" => batch::shares(&ctx),
        "report-n7" => batch::report(&ctx),
        "form-n16" => batch::form(&ctx),
        "serve-mixed" => match serve::run(&ctx) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("perfbench: serve-mixed: {e}");
                return ExitCode::FAILURE;
            }
        },
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::FAILURE;
        }
    };
    match print_result(&ctx, &outcome) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
