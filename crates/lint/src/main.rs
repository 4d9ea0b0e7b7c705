//! `fedval-lint` CLI driver.
//!
//! Exit codes: `0` — no findings; `2` — at least one finding (CI should
//! fail); `1` — the linter itself could not run (bad flags, unreadable
//! workspace).
#![expect(
    clippy::print_stderr,
    reason = "a CLI reports its own failure on stderr"
)]

use fedval_lint::{lint_workspace, report};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Prints to stdout, ignoring broken pipes (`fedval-lint | head` must not
/// panic — the linter holds itself to its own no-panic rule).
fn emit(text: &str) {
    let _ = std::io::stdout().write_all(text.as_bytes());
}

const USAGE: &str = "\
fedval-lint: the workspace checks clippy cannot make.

USAGE:
    fedval-lint [OPTIONS]

OPTIONS:
    --json               emit machine-readable JSON instead of the report
    --explain <RULE>     print the rationale behind a rule and exit
    --root <PATH>        workspace root (default: autodetected from cwd)
    --help               print this help

EXIT CODES:
    0    clean (no findings)
    2    at least one finding
    1    linter failure (bad flags, unreadable workspace)";

struct Options {
    json: bool,
    explain: Option<String>,
    root: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut opts = Options {
        json: false,
        explain: None,
        root: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--explain" => {
                let v = it.next().ok_or("--explain requires a rule name argument")?;
                opts.explain = Some(v.clone());
            }
            "--root" => {
                let v = it.next().ok_or("--root requires a path argument")?;
                opts.root = Some(PathBuf::from(v));
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    Ok(Some(opts))
}

/// Walks upward from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]`.
fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    for dir in start.ancestors() {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(dir.to_path_buf());
            }
        }
    }
    None
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(opts) = parse_args(&args)? else {
        emit(USAGE);
        emit("\n");
        return Ok(ExitCode::SUCCESS);
    };

    if let Some(rule) = &opts.explain {
        let Some(text) = fedval_lint::rules::explain(rule) else {
            return Err(format!(
                "unknown rule `{rule}` — known rules: {}",
                fedval_lint::rules::RULE_NAMES.join(", ")
            ));
        };
        emit(&format!(
            "{rule} [{}]\n\n{text}\n",
            fedval_lint::rules::severity_of(rule)
        ));
        return Ok(ExitCode::SUCCESS);
    }

    let root = match opts.root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir()
                .map_err(|e| format!("cannot determine working directory: {e}"))?;
            find_workspace_root(&cwd)
                .ok_or("no [workspace] Cargo.toml found above the working directory; pass --root")?
        }
    };
    let findings = lint_workspace(&root).map_err(|e| format!("linting {}: {e}", root.display()))?;

    if opts.json {
        emit(&report::json(&findings));
    } else {
        emit(&report::human(&findings));
    }
    if findings.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::from(2))
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("fedval-lint: error: {msg}");
            ExitCode::FAILURE
        }
    }
}
