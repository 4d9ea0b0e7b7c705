//! Self-checks against the real workspace: it must lint clean, and the
//! clippy configuration that took over the retired fedval-lint rules
//! must stay in force. These are the gates ci.sh runs, expressed as tests
//! so `cargo test` alone catches a regression.

use fedval_lint::lint_workspace;
use std::path::{Path, PathBuf};

#[expect(
    clippy::expect_used,
    reason = "test helper: a crate outside the workspace layout fails the calling test"
)]
fn workspace_root() -> PathBuf {
    // The lint crate lives at <root>/crates/lint.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("lint crate sits two levels below the workspace root")
        .to_path_buf()
}

#[expect(
    clippy::panic,
    reason = "test helper: an unreadable workspace file fails the calling test"
)]
fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn workspace_has_no_findings() {
    let findings = lint_workspace(&workspace_root()).expect("workspace lints");
    let listed: Vec<String> = findings
        .iter()
        .map(|f| format!("  {}:{} {}: {}", f.file, f.line, f.rule, f.message))
        .collect();
    assert!(
        listed.is_empty(),
        "fedval-lint findings:\n{}\nfix them or justify with an inline \
         `// lint: allow(<rule>) — reason` marker (see DESIGN.md §7)",
        listed.join("\n")
    );
}

/// The clippy lints that replaced each retired fedval-lint rule. Each
/// must be `deny` in the root `[workspace.lints.clippy]` table.
const CLIPPY_REPLACEMENTS: [(&str, &[&str]); 7] = [
    (
        "no-panic-path",
        &[
            "unwrap_used",
            "expect_used",
            "panic",
            "todo",
            "unimplemented",
            "unreachable",
        ],
    ),
    (
        "lossy-cast",
        &[
            "cast_possible_truncation",
            "cast_possible_wrap",
            "cast_sign_loss",
            "disallowed_types",
        ],
    ),
    ("nondeterministic-iteration", &["disallowed_types"]),
    (
        "wall-clock-in-deterministic-path",
        &["disallowed_methods", "disallowed_types"],
    ),
    ("errors-doc", &["missing_errors_doc"]),
    (
        "println-in-lib",
        &["print_stdout", "print_stderr", "dbg_macro"],
    ),
    (
        "allow-audit",
        &["allow_attributes", "allow_attributes_without_reason"],
    ),
];

/// The `clippy.toml` bans behind `disallowed_types` / `disallowed_methods`.
const CLIPPY_TOML_BANS: [(&str, &str); 5] = [
    ("disallowed-types", "std::collections::HashMap"),
    ("disallowed-types", "std::collections::HashSet"),
    ("disallowed-types", "f32"),
    ("disallowed-types", "std::time::SystemTime"),
    ("disallowed-methods", "std::time::Instant::now"),
];

/// `key = value` pairs of one TOML table, comments and blanks skipped.
fn table(toml: &str, header: &str) -> Vec<(String, String)> {
    toml.lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect()
}

fn is_deny(value: &str) -> bool {
    value == "\"deny\"" || value.replace(' ', "").contains("level=\"deny\"")
}

/// The `path = "…"` entries of a top-level `key = [ … ]` array.
fn banned_paths(toml: &str, key: &str) -> Vec<String> {
    toml.lines()
        .skip_while(|l| !l.trim_start().starts_with(&format!("{key} =")))
        .skip(1)
        .take_while(|l| l.trim() != "]")
        .filter_map(|l| {
            l.split_once("path = \"")?
                .1
                .split_once('"')
                .map(|(p, _)| p.to_string())
        })
        .collect()
}

#[test]
fn clippy_enforces_every_retired_rule() {
    let root = workspace_root();
    let manifest = read(&root.join("Cargo.toml"));
    let clippy = table(&manifest, "[workspace.lints.clippy]");
    for (rule, lints) in CLIPPY_REPLACEMENTS {
        for lint in lints {
            let level = clippy
                .iter()
                .find(|(k, _)| k == lint)
                .map(|(_, v)| v.as_str());
            assert!(
                level.is_some_and(is_deny),
                "`{rule}` is enforced by clippy::{lint}, which the root \
                 [workspace.lints.clippy] table must deny (found {level:?})"
            );
        }
    }
    let rust = table(&manifest, "[workspace.lints.rust]");
    assert!(
        rust.iter()
            .any(|(k, v)| k == "unfulfilled_lint_expectations" && is_deny(v)),
        "a stale #[expect] must fail the build: deny unfulfilled_lint_expectations"
    );

    let clippy_toml = read(&root.join("clippy.toml"));
    for (key, path) in CLIPPY_TOML_BANS {
        assert!(
            banned_paths(&clippy_toml, key).iter().any(|p| p == path),
            "clippy.toml must list `{path}` under {key}"
        );
    }
}

#[test]
fn every_package_opts_into_the_workspace_lints() {
    let root = workspace_root();
    let mut manifests = vec![root.join("Cargo.toml")];
    let members = std::fs::read_dir(root.join("crates")).expect("crates/ readable");
    for entry in members {
        let manifest = entry.expect("crates/ entry").path().join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    assert!(manifests.len() > 10, "found only {manifests:?}");
    for manifest in manifests {
        let lints = table(&read(&manifest), "[lints]");
        assert!(
            lints.iter().any(|(k, v)| k == "workspace" && v == "true"),
            "{} lacks `[lints] workspace = true`",
            manifest.display()
        );
    }
}
