//! Finding presentation: the human report (rule × crate groups with
//! file:line anchors) and the `--json` machine format.
//!
//! Both renderings are fully deterministic: findings arrive pre-sorted
//! from the driver and all grouping uses ordered maps.

use crate::rules::{Finding, RULE_NAMES};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Renders the grouped human-readable report.
pub fn human(findings: &[Finding]) -> String {
    let mut out = String::new();
    if findings.is_empty() {
        out.push_str("fedval-lint: no findings — the workspace is clean.\n");
        return out;
    }
    for rule in RULE_NAMES {
        let of_rule: Vec<&Finding> = findings.iter().filter(|f| f.rule == rule).collect();
        if of_rule.is_empty() {
            continue;
        }
        let _ = writeln!(out, "rule {rule} — {} finding(s)", of_rule.len());
        let mut by_crate: BTreeMap<&str, Vec<&Finding>> = BTreeMap::new();
        for f in of_rule {
            by_crate.entry(f.krate.as_str()).or_default().push(f);
        }
        for (krate, fs) in by_crate {
            let _ = writeln!(out, "  crate {krate}:");
            for f in fs {
                let _ = writeln!(out, "    {}:{}  {}", f.file, f.line, f.message);
            }
        }
        out.push('\n');
    }

    let _ = writeln!(
        out,
        "{} finding(s) — fix each one or justify it with an inline marker.",
        findings.len()
    );
    out
}

/// Renders findings as deterministic JSON.
pub fn json(findings: &[Finding]) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"crate\": {}, \"severity\": {}, \"id\": {}, \"message\": {}}}",
            if i == 0 { "" } else { "," },
            escape(f.rule),
            escape(&f.file),
            f.line,
            escape(&f.krate),
            escape(f.severity),
            escape(&f.id),
            escape(&f.message)
        );
    }
    out.push_str(if findings.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });
    let _ = write!(
        out,
        "  \"summary\": {{\"total\": {}}}\n}}\n",
        findings.len()
    );
    out
}

/// JSON string escaping (quotes, backslashes, control characters).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, file: &str, line: u32) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line,
            krate: crate::walker::crate_of(file),
            message: format!("m{line}"),
            severity: crate::rules::severity_of(rule),
            id: format!("{rule}:{file}:deadbeefdeadbeef"),
        }
    }

    #[test]
    fn human_groups_by_rule_then_crate() {
        let fs = vec![
            finding("float-eq", "crates/core/src/a.rs", 1),
            finding("float-eq", "crates/desim/src/b.rs", 2),
            finding("socket-timeouts", "src/lib.rs", 3),
        ];
        let r = human(&fs);
        let fe = r.find("rule float-eq");
        let st = r.find("rule socket-timeouts");
        assert!(fe < st, "rules in RULE_NAMES order");
        assert!(r.contains("3 finding(s)"));
        assert!(r.contains("crates/core/src/a.rs:1"));
        assert!(r.contains("crate desim:"));
    }

    #[test]
    fn json_escapes_and_counts() {
        let mut f = finding("float-eq", "a\"b.rs", 1);
        f.message = "uses `==`\non floats".to_string();
        let j = json(&[f]);
        assert!(j.contains("a\\\"b.rs"));
        assert!(j.contains("\\n"));
        assert!(j.contains("\"total\": 1"));
        assert!(j.contains("\"severity\": \"error\""));
        assert!(j.contains("\"id\": \"float-eq:"));
    }

    #[test]
    fn empty_report_is_clean() {
        let r = human(&[]);
        assert!(r.contains("clean"));
        let j = json(&[]);
        assert!(j.contains("\"findings\": []"));
    }
}
