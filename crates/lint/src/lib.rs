#![deny(missing_docs)]

//! `fedval-lint`: a zero-dependency static-analysis pass for the fedval
//! workspace.
//!
//! The paper's "compute ϕ̂ᵢ off-line" policy loop is only trustworthy if
//! every coalition value is reproducible and panic-free. Most of that
//! discipline is clippy's: the workspace `[lints]` table and `clippy.toml`
//! deny panic paths, lossy casts, hash-ordered collections, wall clocks,
//! undocumented `Result`s, printing from libraries and unjustified
//! suppressions. This crate keeps the checks clippy cannot make. It ships
//! a lightweight Rust lexer ([`lexer`]), two per-file rules ([`rules`]),
//! and the cross-file `fedval-analyze` concurrency pass ([`model`] +
//! [`analyze`]):
//!
//! | rule | discipline |
//! |------|------------|
//! | `float-eq` | no raw `==`/`!=` against float literals, `0.0` included |
//! | `socket-timeouts` | every `TcpStream` file sets both socket deadlines |
//! | `lock-order-cycle` | one global lock-acquisition order, no cycles |
//! | `guard-across-blocking` | no guard held across blocking calls |
//! | `atomic-ordering-audit` | `Relaxed` flags / `SeqCst` counters need review |
//!
//! Any finding fails the run. See `DESIGN.md` §7 and §12 for the full
//! workflow.

pub mod analyze;
pub mod lexer;
pub mod model;
pub mod report;
pub mod rules;
pub mod walker;

use rules::Finding;
use std::io;
use std::path::Path;

/// Lints every source file under `root`. Findings come back sorted by
/// `(file, line, rule)`.
///
/// # Errors
/// Propagates [`io::Error`] from directory traversal or file reads; an
/// unreadable workspace is a lint-infrastructure failure, never a silent
/// pass.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let mut models = Vec::new();
    for src in walker::collect_sources(root)? {
        let text = std::fs::read_to_string(&src.path)?;
        findings.extend(rules::lint_file(&text, &src.rel, &src.krate));
        models.push(model::FileModel::parse(&text, &src.rel, &src.krate));
    }
    findings.extend(analyze::analyze(&models));
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(findings)
}
