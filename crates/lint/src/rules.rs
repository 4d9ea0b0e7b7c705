//! The fedval-specific lint rules.
//!
//! Every rule operates on the token stream of one file (see
//! [`crate::lexer`]), restricted to non-test code, and yields
//! [`Finding`]s. Findings can be suppressed by a *justified* inline
//! marker:
//!
//! ```text
//! // lint: allow(<rule>) — <reason of at least 8 characters>
//! ```
//!
//! placed on the offending line or on a comment line directly above it.
//! A marker with a hollow reason or an unknown rule name suppresses
//! nothing.
//!
//! Everything clippy can check with types (panic paths, lossy casts,
//! hash-ordered collections, wall clocks, `# Errors` docs, printing from
//! libraries, suppression hygiene) is enforced by the workspace
//! `[lints]` table and `clippy.toml` instead; these rules cover what it
//! cannot.

use crate::lexer::{test_mask, Tok, TokKind};

/// Rule identifiers, in reporting order. The first two are per-file
/// token rules; the last three are the cross-file `fedval-analyze` pass
/// (see [`crate::analyze`]).
pub const RULE_NAMES: [&str; 5] = [
    "float-eq",
    "socket-timeouts",
    "lock-order-cycle",
    "guard-across-blocking",
    "atomic-ordering-audit",
];

/// The rationale behind a rule, for `fedval-lint --explain <rule>` and
/// CI failure messages. Returns `None` for unknown rule names.
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        "float-eq" => {
            "Comparing floats with ==/!= against a literal is seed-fragile: two pipelines \
             that differ by one rounding step diverge silently. Use is_zero/approx_eq from \
             fedval_core::approx with an explicit tolerance. clippy's float_cmp exempts \
             comparisons against 0.0 and infinities; this rule does not."
        }
        "socket-timeouts" => {
            "Every TcpStream needs both set_read_timeout and set_write_timeout (DESIGN.md \
             §11): without deadlines one stalled peer pins a thread forever. Applies to \
             client bins (fedload, fedchaos) as much as to the daemon."
        }
        "lock-order-cycle" => {
            "Two threads taking the same locks in opposite orders is the canonical deadlock. \
             fedval-analyze builds the workspace acquisition-order graph (guard of A live \
             while B is acquired, directly or through the call graph) and reports every \
             cycle with a witness path. Fix by picking one global order; the runtime \
             OrderedMutex/OrderedRwLock checker panics if a test witnesses a cycle the \
             static model missed."
        }
        "guard-across-blocking" => {
            "A guard held across socket I/O, thread::sleep, recv, join, or a Condvar wait on \
             a different lock turns one slow peer into a pile-up on the lock (DESIGN.md §11's \
             stalled-reader scenario). Drop the guard before blocking, or justify the hold \
             with a lint marker when the lock exists precisely to serialize that I/O."
        }
        "atomic-ordering-audit" => {
            "Ordering::Relaxed on an AtomicBool cross-thread flag usually fails to publish \
             the writes the flag guards (use Acquire/Release); SeqCst on a plain counter RMW \
             buys nothing but a full fence. Severity warn: each hit is answered by fixing \
             the ordering or by a justified marker explaining why it is load-bearing."
        }
        _ => return None,
    })
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (one of [`RULE_NAMES`]).
    pub rule: &'static str,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Crate identifier (directory name under `crates/`, or `fedval` for
    /// the root package).
    pub krate: String,
    /// Human-readable description of the violation.
    pub message: String,
    /// `"error"` or `"warn"` (see [`severity_of`]).
    pub severity: &'static str,
    /// Stable id `rule:file:hash(snippet)` — survives pure line drift
    /// because the hash covers the trimmed source line, not its number.
    /// Duplicate snippets in one file get an ordinal suffix (`:2`, …).
    pub id: String,
}

/// The severity a rule reports at. `atomic-ordering-audit` is a review
/// prompt (each hit is answered by a fix *or* a justified marker), so it
/// warns; everything else is an error.
pub fn severity_of(rule: &str) -> &'static str {
    if rule == "atomic-ordering-audit" {
        "warn"
    } else {
        "error"
    }
}

impl Finding {
    /// Builds a finding with severity derived from the rule and an empty
    /// id (ids are assigned per file once line content is known, see
    /// [`assign_ids`]).
    pub(crate) fn new(
        rule: &'static str,
        file: &str,
        line: u32,
        krate: &str,
        message: String,
    ) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line,
            krate: krate.to_string(),
            message,
            severity: severity_of(rule),
            id: String::new(),
        }
    }
}

/// FNV-1a 64-bit, the id hash. Stable by construction (no seed), short
/// enough to read in a report.
fn fnv64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Assigns `rule:file:hash(snippet)` ids to one file's findings. Call
/// with the findings sorted by line so ordinal suffixes for repeated
/// identical snippets are deterministic.
pub(crate) fn assign_ids(findings: &mut [Finding], source: &str) {
    let lines: Vec<&str> = source.lines().collect();
    let mut seen: std::collections::BTreeMap<(&str, u64), u32> = std::collections::BTreeMap::new();
    for f in findings.iter_mut() {
        let snippet = lines
            .get(f.line.saturating_sub(1) as usize)
            .map(|l| l.trim())
            .unwrap_or("");
        let h = fnv64(snippet);
        let n = seen.entry((f.rule, h)).or_insert(0);
        *n += 1;
        f.id = if *n == 1 {
            format!("{}:{}:{:016x}", f.rule, f.file, h)
        } else {
            format!("{}:{}:{:016x}:{}", f.rule, f.file, h, *n)
        };
    }
}

/// A parsed `// lint: allow(rule) — reason` marker.
#[derive(Debug, Clone)]
pub(crate) struct Marker {
    rule: String,
    reason: String,
    /// Line the marker suppresses (first code line at/after the marker).
    target: u32,
}

/// Applies justified markers: a finding is suppressed when a marker for
/// its rule targets its line. Markers with hollow reasons suppress
/// nothing.
pub(crate) fn apply_markers(findings: &mut Vec<Finding>, markers: &[Marker]) {
    findings.retain(|f| {
        !markers.iter().any(|m| {
            m.rule == f.rule && m.target == f.line && m.reason.len() >= MIN_REASON_LEN
        })
    });
}

const MIN_REASON_LEN: usize = 8;

/// Lints one file's source text. `file` must be the workspace-relative
/// path with forward slashes; `krate` the owning crate's identifier.
pub fn lint_file(source: &str, file: &str, krate: &str) -> Vec<Finding> {
    let toks = lex_with_mask(source);
    let markers = collect_markers(&toks.tokens);
    let mut findings = Vec::new();

    float_eq(&toks, file, krate, &mut findings);
    socket_timeouts(&toks, file, krate, &mut findings);

    apply_markers(&mut findings, &markers);
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    assign_ids(&mut findings, source);
    findings
}

/// Token stream plus derived views used by the rules.
struct Lexed {
    tokens: Vec<Tok>,
    in_test: Vec<bool>,
    /// Indices of non-comment tokens, for neighbor lookups.
    code: Vec<usize>,
}

fn lex_with_mask(source: &str) -> Lexed {
    let tokens = crate::lexer::lex(source);
    let in_test = test_mask(&tokens);
    let code = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| t.kind != TokKind::Comment)
        .map(|(i, _)| i)
        .collect();
    Lexed {
        tokens,
        in_test,
        code,
    }
}

impl Lexed {
    fn code_tok(&self, ci: usize) -> &Tok {
        &self.tokens[self.code[ci]]
    }

    fn code_in_test(&self, ci: usize) -> bool {
        self.in_test[self.code[ci]]
    }
}

fn finding(
    rule: &'static str,
    file: &str,
    krate: &str,
    line: u32,
    message: String,
) -> Finding {
    Finding::new(rule, file, line, krate, message)
}

/// `==`/`!=` with a float literal on either side.
fn float_eq(lx: &Lexed, file: &str, krate: &str, out: &mut Vec<Finding>) {
    for ci in 0..lx.code.len() {
        if lx.code_in_test(ci) {
            continue;
        }
        let t = lx.code_tok(ci);
        if !(t.is_punct("==") || t.is_punct("!=")) {
            continue;
        }
        let prev_is_float = ci
            .checked_sub(1)
            .is_some_and(|p| lx.code_tok(p).kind == TokKind::Float);
        // `x == -1.0`: a unary minus may sit between operator and literal.
        let next_is_float = lx.code.get(ci + 1).is_some_and(|&i| {
            lx.tokens[i].kind == TokKind::Float
                || (lx.tokens[i].is_punct("-")
                    && lx
                        .code
                        .get(ci + 2)
                        .is_some_and(|&k| lx.tokens[k].kind == TokKind::Float))
        });
        if prev_is_float || next_is_float {
            out.push(finding(
                "float-eq",
                file,
                krate,
                t.line,
                format!(
                    "raw float `{}` comparison — use is_zero/approx_eq from fedval_core::approx with an explicit tolerance",
                    t.text
                ),
            ));
        }
    }
}

/// `TcpStream` acquisition (`TcpStream::connect`, `.accept()`,
/// `.incoming()`) anywhere in the workspace requires the same file to
/// call **both** `set_read_timeout` and `set_write_timeout` somewhere in
/// non-test code — the serving stack's robustness contract (DESIGN.md
/// §11) says a socket without both deadlines lets a stalled peer pin a
/// thread forever, and that is just as true for the `fedload`/`fedchaos`
/// client bins as for the daemon. File granularity keeps the check
/// honest without data flow: a file that acquires sockets but never
/// mentions one of the two setters cannot possibly be applying it.
fn socket_timeouts(lx: &Lexed, file: &str, krate: &str, out: &mut Vec<Finding>) {
    let mut has_read = false;
    let mut has_write = false;
    let mut sites: Vec<(u32, String)> = Vec::new();
    for ci in 0..lx.code.len() {
        if lx.code_in_test(ci) {
            continue;
        }
        let t = lx.code_tok(ci);
        if t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "set_read_timeout" => has_read = true,
            "set_write_timeout" => has_write = true,
            "connect" => {
                let colons = ci.checked_sub(1).is_some_and(|p| lx.code_tok(p).is_punct("::"));
                let on_tcp = ci
                    .checked_sub(2)
                    .is_some_and(|p| lx.code_tok(p).is_ident("TcpStream"));
                if colons && on_tcp {
                    sites.push((t.line, "TcpStream::connect".to_string()));
                }
            }
            "accept" | "incoming" => {
                let dotted = ci.checked_sub(1).is_some_and(|p| lx.code_tok(p).is_punct("."));
                let called = lx.code.get(ci + 1).is_some_and(|&i| lx.tokens[i].is_punct("("));
                if dotted && called {
                    sites.push((t.line, format!(".{}()", t.text)));
                }
            }
            _ => {}
        }
    }
    if has_read && has_write {
        return;
    }
    let missing = if !has_read && !has_write {
        "set_read_timeout and set_write_timeout"
    } else if has_read {
        "set_write_timeout"
    } else {
        "set_read_timeout"
    };
    for (line, what) in sites {
        out.push(finding(
            "socket-timeouts",
            file,
            krate,
            line,
            format!(
                "{what} in a file that never calls {missing} — a stalled peer can pin a thread; set both socket deadlines"
            ),
        ));
    }
}

/// Collects `// lint: allow(rule) — reason` markers.
pub(crate) fn collect_markers(toks: &[Tok]) -> Vec<Marker> {
    let mut markers = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Comment {
            continue;
        }
        let body = t
            .text
            .trim_start_matches('/')
            .trim_start_matches('*')
            .trim_start_matches('!')
            .trim();
        let Some(rest) = body.strip_prefix("lint: allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let reason = rest[close + 1..]
            .trim_start_matches([' ', '—', '-', ':', '–'])
            .trim()
            .to_string();
        // Target: the first code token at or after the marker's line
        // (same line for trailing markers, next code line otherwise —
        // continuation comment lines in between are skipped).
        let target = toks[i + 1..]
            .iter()
            .find(|n| n.kind != TokKind::Comment)
            .map(|n| n.line)
            .or_else(|| {
                // Trailing marker on the last line of the file: suppress
                // its own line.
                toks[..i]
                    .iter()
                    .rev()
                    .find(|p| p.kind != TokKind::Comment && p.line == t.line)
                    .map(|p| p.line)
            })
            .unwrap_or(t.line);
        // A trailing marker (code earlier on the same line) targets its
        // own line even when more code follows below.
        let trailing = toks[..i]
            .iter()
            .rev()
            .find(|p| p.kind != TokKind::Comment)
            .is_some_and(|p| p.line == t.line);
        markers.push(Marker {
            rule,
            reason,
            target: if trailing { t.line } else { target },
        });
    }
    markers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(src: &str, krate: &str) -> Vec<(&'static str, u32)> {
        lint_file(src, "x.rs", krate)
            .into_iter()
            .map(|f| (f.rule, f.line))
            .collect()
    }

    #[test]
    fn float_eq_adjacent_literal() {
        let src = "fn f(x: f64) -> bool { x == 0.0 }\nfn g(x: f64) -> bool { 1.5 != x }";
        assert_eq!(
            rules_of(src, "core"),
            vec![("float-eq", 1), ("float-eq", 2)]
        );
    }

    #[test]
    fn float_eq_outside_tests_only() {
        let src = "fn f(x: f64) -> bool { x == -1.0 }\n#[cfg(test)]\nmod tests { fn t(y: f64) -> bool { y == 2.0 } }";
        assert_eq!(rules_of(src, "core"), vec![("float-eq", 1)]);
        let in_string = "fn f() { let s = \"x == 0.0\"; }";
        assert!(rules_of(in_string, "core").is_empty());
    }

    #[test]
    fn int_eq_not_flagged() {
        let src = "fn f(x: usize) -> bool { x == 0 && x != 3 }";
        assert!(rules_of(src, "core").is_empty());
    }

    #[test]
    fn socket_timeouts_requires_both_setters_everywhere() {
        let src = "fn dial() { let s = TcpStream::connect(addr); s.set_read_timeout(Some(t)); }";
        assert_eq!(rules_of(src, "serve"), vec![("socket-timeouts", 1)]);
        // The rule is workspace-wide: client bins hold sockets too.
        assert_eq!(rules_of(src, "testbed"), vec![("socket-timeouts", 1)]);
        // Both setters present: clean, wherever in the file they sit.
        let both = "fn dial() { let s = TcpStream::connect(addr); }\nfn arm(s: &TcpStream) { s.set_read_timeout(Some(t)); s.set_write_timeout(Some(t)); }";
        assert!(rules_of(both, "serve").is_empty());
    }

    #[test]
    fn socket_timeouts_covers_accept_and_incoming() {
        let src = "fn serve(l: &TcpListener) { let c = l.accept(); for s in l.incoming() {} }";
        let hits = rules_of(src, "serve");
        assert_eq!(
            hits,
            vec![("socket-timeouts", 1), ("socket-timeouts", 1)]
        );
        // Test code is exempt like every other rule.
        let in_test = "#[cfg(test)]\nmod tests { fn t() { let c = TcpStream::connect(a); } }";
        assert!(rules_of(in_test, "serve").is_empty());
    }

    #[test]
    fn marker_suppresses_with_justification() {
        let src = "fn f(x: f64) -> bool {\n    // lint: allow(float-eq) — exact sentinel written by the caller\n    x == 0.5\n}";
        assert!(rules_of(src, "core").is_empty());
    }

    #[test]
    fn marker_with_continuation_comment_still_targets_code() {
        let src = "fn f(x: f64) -> bool {\n    // lint: allow(float-eq) — exact sentinel written\n    // by the caller, never computed.\n    x == 0.5\n}";
        assert!(rules_of(src, "core").is_empty());
    }

    #[test]
    fn hollow_or_misspelled_marker_suppresses_nothing() {
        let hollow = "fn f(x: f64) -> bool {\n    // lint: allow(float-eq)\n    x == 0.5\n}";
        assert_eq!(rules_of(hollow, "core"), vec![("float-eq", 3)]);
        let misspelled = "fn f(x: f64) -> bool {\n    // lint: allow(float_eq) — exact sentinel written by the caller\n    x == 0.5\n}";
        assert_eq!(rules_of(misspelled, "core"), vec![("float-eq", 3)]);
    }

    #[test]
    fn trailing_marker_targets_its_own_line() {
        let src = "fn f(x: f64) -> bool { x == 0.5 } // lint: allow(float-eq) — exact sentinel value\nfn g(y: f64) -> bool { y == 0.5 }";
        assert_eq!(rules_of(src, "core"), vec![("float-eq", 2)]);
    }

    #[test]
    fn every_rule_has_an_explanation() {
        for r in RULE_NAMES {
            assert!(explain(r).is_some(), "missing explanation for {r}");
            assert!(matches!(severity_of(r), "error" | "warn"));
        }
        assert!(explain("no-such-rule").is_none());
    }

    #[test]
    fn ids_survive_pure_line_drift() {
        let a = "fn f(x: f64) -> bool { x == 0.5 }";
        let b = "// an unrelated new comment line\nfn f(x: f64) -> bool { x == 0.5 }";
        let fa = lint_file(a, "x.rs", "core");
        let fb = lint_file(b, "x.rs", "core");
        assert_eq!(fa.len(), 1);
        assert_eq!(fa[0].id, fb[0].id);
        assert_ne!(fa[0].line, fb[0].line);
        assert!(fa[0].id.starts_with("float-eq:x.rs:"));
        assert_eq!(fa[0].severity, "error");
    }

    #[test]
    fn duplicate_snippets_get_ordinal_ids() {
        let src = "fn f(x: f64) {\n    x == 0.5;\n    x == 0.5;\n}";
        let fs = lint_file(src, "x.rs", "core");
        assert_eq!(fs.len(), 2);
        assert_ne!(fs[0].id, fs[1].id);
        assert!(fs[1].id.ends_with(":2"));
    }
}
