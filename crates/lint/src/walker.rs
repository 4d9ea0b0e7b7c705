//! Workspace file discovery.
//!
//! Walks every `.rs` file under the workspace root that belongs to a lib,
//! bin, or example target. Excluded by rule config:
//!
//! - `tests/` directories (integration tests may panic freely),
//! - `benches/` directories (measurement harnesses),
//! - `fixtures/` directories (lint-test corpora with *intentional*
//!   violations),
//! - `vendor/` (third-party API stubs, not ours to lint),
//! - `target/`, hidden directories, and anything else non-source,
//! - any directory below the root whose `Cargo.toml` declares its own
//!   `[workspace]` (today `perfbench/`, the benchmark harness): a nested
//!   workspace builds on its own and is not part of this one, so its
//!   files would otherwise be mapped to the root crate's library code.
//!
//! Results are sorted by path so every lint run visits files in the same
//! order — the linter holds itself to the determinism discipline it
//! enforces.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names that end a walk branch.
const EXCLUDED_DIRS: [&str; 6] = ["tests", "benches", "fixtures", "vendor", "target", "data"];

/// One workspace source file scheduled for linting.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Absolute path on disk.
    pub path: PathBuf,
    /// Workspace-relative path with forward slashes (finding-id key).
    pub rel: String,
    /// Owning crate: the directory name under `crates/`, or `fedval` for
    /// the root package's `src/` and `examples/`.
    pub krate: String,
}

/// Collects all lintable `.rs` files under `root`, sorted by relative
/// path.
///
/// # Errors
/// Returns any [`io::Error`] from directory traversal (permission
/// problems, concurrent deletion); nonexistent roots yield an error from
/// the first `read_dir`.
pub fn collect_sources(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name.starts_with('.')
                || EXCLUDED_DIRS.contains(&name.as_ref())
                || declares_workspace(&path)
            {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = relative_slash(root, &path);
            out.push(SourceFile {
                krate: crate_of(&rel),
                path,
                rel,
            });
        }
    }
    Ok(())
}

/// Whether `dir/Cargo.toml` opens a `[workspace]` table of its own. An
/// unreadable or missing manifest means "no".
fn declares_workspace(dir: &Path) -> bool {
    fs::read_to_string(dir.join("Cargo.toml"))
        .map(|manifest| manifest.lines().any(|line| line.trim() == "[workspace]"))
        .unwrap_or(false)
}

fn relative_slash(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Maps a workspace-relative path to its crate identifier.
pub fn crate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => name.to_string(),
        _ => "fedval".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_mapping() {
        assert_eq!(crate_of("crates/coalition/src/game.rs"), "coalition");
        assert_eq!(crate_of("src/lib.rs"), "fedval");
        assert_eq!(crate_of("examples/quickstart.rs"), "fedval");
    }

    #[test]
    fn walks_the_real_workspace_deterministically() {
        // The lint crate lives at <root>/crates/lint.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .map(Path::to_path_buf);
        let Some(root) = root else {
            return;
        };
        let Ok(a) = collect_sources(&root) else {
            return;
        };
        let Ok(b) = collect_sources(&root) else {
            return;
        };
        let ra: Vec<_> = a.iter().map(|s| s.rel.clone()).collect();
        let rb: Vec<_> = b.iter().map(|s| s.rel.clone()).collect();
        assert_eq!(ra, rb);
        assert!(ra.iter().any(|r| r == "crates/lint/src/walker.rs"));
        assert!(!ra.iter().any(|r| r.contains("/tests/")));
        assert!(!ra.iter().any(|r| r.starts_with("vendor/")));
        // perfbench/ is a Cargo workspace of its own, not a member.
        assert!(!ra.iter().any(|r| r.starts_with("perfbench/")));
        assert!(ra.windows(2).all(|w| w[0] < w[1]), "sorted, no duplicates");
    }
}
