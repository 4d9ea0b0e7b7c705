//! Adversarial-input properties for the linter: every entry point that
//! consumes source text is total. Arbitrary byte garbage, token soup,
//! truncated real code, and pathological nesting never panic
//! [`lint_file`], [`FileModel::parse`], or [`analyze`] — a linter that
//! dies on weird input silently drops coverage for the file that
//! provoked it.

use fedval_lint::analyze::analyze;
use fedval_lint::model::FileModel;
use fedval_lint::rules::lint_file;
use proptest::prelude::*;

/// Fragments biased toward the constructs the lexer and item parser
/// treat specially: strings, chars, lifetimes, comments, cfg(test)
/// fences, lock/atomic vocabulary, and unbalanced delimiters.
fn fragment(which: usize) -> &'static str {
    const FRAGMENTS: &[&str] = &[
        "fn ",
        "f(",
        "{",
        "}",
        "(",
        ")",
        "<",
        ">",
        "\"",
        "\\\"",
        "'",
        "'a ",
        "'x'",
        "// c\n",
        "/* b",
        "*/",
        "#[cfg(test)]",
        "mod ",
        "tests",
        "Mutex<",
        "RwLock<",
        "AtomicBool",
        "Ordering::Relaxed",
        ".lock()",
        ".write(",
        ".unwrap()",
        "panic!(",
        "Instant::now()",
        "let ",
        "static ",
        "= ",
        "; ",
        ": ",
        "&self",
        "self.",
        "drop(",
        "Condvar",
        ".wait(",
        "b\"",
        "r#\"",
        "\u{0}",
        "\u{7f}",
        "é",
        "𝕏",
        "\n",
        "\t",
        "1e9",
        "0x_",
    ];
    FRAGMENTS[which % FRAGMENTS.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_the_linter(
        bytes in prop::collection::vec(0u8..=255, 0..400),
    ) {
        // Files reach the linter through lossy UTF-8 conversion, so the
        // property is over every string that conversion can produce.
        let source = String::from_utf8_lossy(&bytes);
        let _ = lint_file(&source, "fuzz.rs", "fuzz");
        let model = FileModel::parse(&source, "crates/fuzz/src/fuzz.rs", "fuzz");
        let _ = analyze(&[model]);
    }

    #[test]
    fn token_soup_never_panics_the_linter(
        picks in prop::collection::vec(0usize..64, 0..120),
    ) {
        // Rust-ish token soup reaches far deeper into the item parser
        // than raw bytes: fn boundaries, guard spans, marker scanning.
        let source: String = picks.iter().map(|&w| fragment(w)).collect();
        let _ = lint_file(&source, "soup.rs", "soup");
        let model = FileModel::parse(&source, "crates/soup/src/soup.rs", "soup");
        let _ = analyze(&[model]);
    }

    #[test]
    fn truncated_real_code_never_panics(cut in 0usize..2000) {
        // Prefixes of a real workspace file end mid-string, mid-generic,
        // mid-comment — everywhere an unbalanced-state bug would hide.
        let full = include_str!("../src/model.rs");
        let cut = cut.min(full.len());
        let prefix = match full.get(..cut) {
            Some(p) => p,
            // Cut landed inside a multibyte char; back off to a boundary.
            None => {
                let mut c = cut;
                while !full.is_char_boundary(c) {
                    c -= 1;
                }
                &full[..c]
            }
        };
        let _ = lint_file(prefix, "prefix.rs", "lint");
        let model = FileModel::parse(prefix, "crates/lint/src/prefix.rs", "lint");
        let _ = analyze(&[model]);
    }

    #[test]
    fn deep_nesting_terminates(depth in 0usize..300, which in 0usize..3) {
        // The decl scanner and guard-span tracker walk bracket depth;
        // unbounded recursion or a depth-counter underflow would show
        // here as a stack overflow or panic.
        let (open, close) = [("{", "}"), ("(", ")"), ("<", ">")][which % 3];
        let mut source = String::from("fn f() ");
        for _ in 0..depth {
            source.push_str(open);
        }
        source.push_str("a.lock()");
        for _ in 0..depth {
            source.push_str(close);
        }
        let _ = lint_file(&source, "deep.rs", "deep");
        let model = FileModel::parse(&source, "crates/deep/src/deep.rs", "deep");
        let _ = analyze(&[model]);
    }
}

/// Analysis over *many* adversarial models at once: cross-file rules
/// (lock-order graph, call-graph closure) must stay total when every
/// file in the workspace is garbage.
#[test]
fn analyze_is_total_over_garbage_workspaces() {
    let sources = [
        "fn a(){m.lock();n.lock();} fn b(){n.lock();m.lock();}",
        "fn a(){a();} fn b(){c();} fn c(){b();}", // call-graph cycles
        "static M: Mutex<u8> = ; fn ){ .lock(",
        "",
        "\u{0}\u{0}\u{0}",
    ];
    let models: Vec<FileModel> = sources
        .iter()
        .enumerate()
        .map(|(i, s)| FileModel::parse(s, &format!("crates/g/src/f{i}.rs"), "g"))
        .collect();
    let _ = analyze(&models);
}
