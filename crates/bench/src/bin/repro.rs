//! Regenerates every table and figure of the paper and verifies the
//! paper's qualitative claims.
//!
//! ```text
//! cargo run --release -p fedval-bench --bin repro            # everything
//! cargo run --release -p fedval-bench --bin repro -- fig4    # one figure
//! cargo run --release -p fedval-bench --bin repro -- checks  # checks only
//! ```
//!
//! `--threads N` sets the sweep worker count (default: available
//! parallelism); every N produces byte-identical figure data.
//!
//! Exit code 0 iff every check passes.
#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a command-line tool reports on stdout and stderr"
)]

use fedval_bench::{all_figures, check_all, table_e1};
use std::process::ExitCode;

fn print_table_e1() {
    let t = table_e1();
    println!("# table-e1 — §4.1 worked example (l = 500, L = (100,400,800))");
    println!("{:>10} {:>10}", "coalition", "V");
    for (label, v) in &t.coalition_values {
        println!("{label:>10} {v:>10.1}");
    }
    println!("{:>10} {:>10} {:>10}", "facility", "phi_hat", "pi_hat");
    for i in 0..3 {
        println!(
            "{:>10} {:>10.6} {:>10.6}",
            i + 1,
            t.shapley_hat[i],
            t.proportional_hat[i]
        );
    }
    println!();
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();

    // --csv DIR: additionally write every generated figure as CSV.
    let csv_dir: Option<String> = args.iter().position(|a| a == "--csv").map(|pos| {
        let dir = args.get(pos + 1).cloned().unwrap_or_else(|| ".".into());
        args.drain(pos..=(pos + 1).min(args.len() - 1));
        dir
    });
    // --svg DIR: additionally render every generated figure as SVG.
    let svg_dir: Option<String> = args.iter().position(|a| a == "--svg").map(|pos| {
        let dir = args.get(pos + 1).cloned().unwrap_or_else(|| ".".into());
        args.drain(pos..=(pos + 1).min(args.len() - 1));
        dir
    });
    // --threads N: sweep worker count (default: available parallelism).
    // The figure data is byte-identical for every value (DESIGN.md §9).
    if let Some(pos) = args.iter().position(|a| a == "--threads") {
        let Some(n) = args.get(pos + 1).and_then(|v| v.parse::<usize>().ok()) else {
            eprintln!("--threads needs a positive integer");
            return ExitCode::FAILURE;
        };
        if n == 0 {
            eprintln!("--threads must be at least 1");
            return ExitCode::FAILURE;
        }
        args.drain(pos..=pos + 1);
        fedval_bench::set_sweep_threads(n);
    }
    let write_csv = |fig: &fedval_bench::Figure| {
        if let Some(dir) = &csv_dir {
            let path = std::path::Path::new(dir).join(format!("{}.csv", fig.id));
            if let Err(e) = std::fs::write(&path, fig.to_csv()) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
        if let Some(dir) = &svg_dir {
            let path = std::path::Path::new(dir).join(format!("{}.svg", fig.id));
            if let Err(e) = std::fs::write(&path, fig.to_svg()) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
    };

    let want = |id: &str| args.is_empty() || args.iter().any(|a| a == id || a == "all");

    if want("table-e1") && !args.iter().any(|a| a == "checks") {
        print_table_e1();
    }
    if !args.iter().any(|a| a == "checks") {
        for fig in all_figures() {
            if want(fig.id) {
                println!("{}", fig.render());
                write_csv(&fig);
            }
        }
        // Extension experiments print when asked for explicitly or with
        // "extras"/"all".
        let want_extras = |id: &str| args.iter().any(|a| a == id || a == "extras" || a == "all");
        for fig in fedval_bench::all_extras() {
            if want_extras(fig.id) {
                println!("{}", fig.render());
                write_csv(&fig);
            }
        }
    }

    if args.is_empty() || args.iter().any(|a| a == "checks" || a == "all") {
        println!("# paper-claim checks");
        let mut all_ok = true;
        for result in check_all() {
            for (desc, ok) in &result.assertions {
                println!(
                    "[{}] {:10} {}",
                    if *ok { "PASS" } else { "FAIL" },
                    result.id,
                    desc
                );
                all_ok &= ok;
            }
        }
        if !all_ok {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
