//! A lightweight Rust lexer: just enough tokenization for lint rules.
//!
//! This is *not* a full Rust lexer — it is the minimal tokenizer that lets
//! the rules in [`crate::rules`] reason about real code without being
//! fooled by the classic static-analysis traps:
//!
//! - string/char literals (`"x == 0.0"` is not a float comparison),
//! - raw strings with arbitrary `#` fencing,
//! - nested block comments,
//! - float literals vs. tuple indexing (`0.5` vs. `t.0`),
//! - lifetimes vs. char literals (`'a` vs. `'a'`),
//! - raw identifiers (`r#type`).
//!
//! Comments are kept as tokens (they carry lint markers);
//! [`test_mask`] layers `#[cfg(test)]` / `mod tests` scope tracking on top.

/// Token category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw identifiers, prefix stripped).
    Ident,
    /// Integer literal.
    Int,
    /// Float literal (has a fraction, an exponent, or an `f32`/`f64` suffix).
    Float,
    /// String literal (plain, raw, or byte).
    Str,
    /// Character literal.
    Char,
    /// Lifetime or loop label (`'a`, `'outer`).
    Lifetime,
    /// Punctuation; multi-character operators that matter to the rules
    /// (`==`, `!=`, `->`, `::`, `..`) are kept as single tokens.
    Punct,
    /// Line or block comment, text included.
    Comment,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Category.
    pub kind: TokKind,
    /// Source text (for comments: including the delimiters).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
}

impl Tok {
    fn new(kind: TokKind, text: impl Into<String>, line: u32) -> Tok {
        Tok {
            kind,
            text: text.into(),
            line,
        }
    }

    /// `true` for identifier tokens with exactly this text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokKind::Ident && self.text == text
    }

    /// `true` for punctuation tokens with exactly this text.
    pub fn is_punct(&self, text: &str) -> bool {
        self.kind == TokKind::Punct && self.text == text
    }
}

/// Multi-character operators the rules care about, longest first.
const OPERATORS: [&str; 8] = ["..=", "==", "!=", "<=", ">=", "->", "::", ".."];

/// Tokenizes `source`. Unterminated literals/comments are tolerated: the
/// lexer consumes to end-of-input rather than failing, so a syntactically
/// broken file degrades to fewer findings instead of a lint crash.
pub fn lex(source: &str) -> Vec<Tok> {
    let b: Vec<char> = source.chars().collect();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let n = b.len();

    let is_ident_start = |c: char| c.is_alphabetic() || c == '_';
    let is_ident_cont = |c: char| c.is_alphanumeric() || c == '_';

    while i < n {
        let c = b[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }

        // Line comments (doc comments included).
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            let start = i;
            let start_line = line;
            while i < n && b[i] != '\n' {
                i += 1;
            }
            let text: String = b[start..i].iter().collect();
            toks.push(Tok::new(TokKind::Comment, text, start_line));
            continue;
        }

        // Block comments, nested.
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let start = i;
            let start_line = line;
            let mut depth = 1u32;
            i += 2;
            while i < n && depth > 0 {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    if b[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            let text: String = b[start..i].iter().collect();
            toks.push(Tok::new(TokKind::Comment, text, start_line));
            continue;
        }

        // Raw strings / byte strings / raw identifiers.
        if c == 'r' || c == 'b' {
            // r"..", r#".."#, br".." , b"..", b'c', br#".."#
            let mut j = i + 1;
            let mut is_byte = c == 'b';
            let mut raw = c == 'r';
            if c == 'b' && j < n && b[j] == 'r' {
                raw = true;
                j += 1;
            } else if c == 'r' && j < n && b[j] == 'b' {
                is_byte = true;
                j += 1;
            }
            let _ = is_byte;
            if raw {
                let mut hashes = 0usize;
                while j < n && b[j] == '#' {
                    hashes += 1;
                    j += 1;
                }
                if j < n && b[j] == '"' {
                    // Raw string: scan for `"` followed by `hashes` hashes.
                    let start = i;
                    let start_line = line;
                    j += 1;
                    loop {
                        if j >= n {
                            break;
                        }
                        if b[j] == '\n' {
                            line += 1;
                            j += 1;
                            continue;
                        }
                        if b[j] == '"' {
                            let mut k = 0usize;
                            while k < hashes && j + 1 + k < n && b[j + 1 + k] == '#' {
                                k += 1;
                            }
                            if k == hashes {
                                j += 1 + hashes;
                                break;
                            }
                        }
                        j += 1;
                    }
                    let text: String = b[start..j.min(n)].iter().collect();
                    toks.push(Tok::new(TokKind::Str, text, start_line));
                    i = j;
                    continue;
                }
                if hashes > 0 && c == 'r' && j < n && is_ident_start(b[j]) {
                    // Raw identifier r#type.
                    let start = j;
                    while j < n && is_ident_cont(b[j]) {
                        j += 1;
                    }
                    let text: String = b[start..j].iter().collect();
                    toks.push(Tok::new(TokKind::Ident, text, line));
                    i = j;
                    continue;
                }
                // Neither raw string nor raw ident: fall through to ident.
            }
            if c == 'b' && i + 1 < n && (b[i + 1] == '"' || b[i + 1] == '\'') {
                // Byte string / byte char: delegate to the quoted scanners
                // below by skipping the `b` prefix.
                i += 1;
                continue;
            }
        }

        // Identifiers and keywords.
        if is_ident_start(c) {
            let start = i;
            while i < n && is_ident_cont(b[i]) {
                i += 1;
            }
            let text: String = b[start..i].iter().collect();
            toks.push(Tok::new(TokKind::Ident, text, line));
            continue;
        }

        // Numbers.
        if c.is_ascii_digit() {
            let start = i;
            let mut is_float = false;
            if c == '0' && i + 1 < n && matches!(b[i + 1], 'x' | 'o' | 'b') {
                // Radix literal: digits + underscores + hex letters.
                i += 2;
                while i < n && (b[i].is_ascii_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
            } else {
                while i < n && (b[i].is_ascii_digit() || b[i] == '_') {
                    i += 1;
                }
                // Fraction: a `.` followed by a digit (so `0..4` and
                // `x.0` keep their meanings).
                if i + 1 < n && b[i] == '.' && b[i + 1].is_ascii_digit() {
                    is_float = true;
                    i += 1;
                    while i < n && (b[i].is_ascii_digit() || b[i] == '_') {
                        i += 1;
                    }
                } else if i < n
                    && b[i] == '.'
                    && (i + 1 >= n
                        || !matches!(b[i + 1], '.' | '0'..='9') && !is_ident_start(b[i + 1]))
                {
                    // Trailing-dot float `1.` (not a range, not a method).
                    is_float = true;
                    i += 1;
                }
                // Exponent.
                if i < n && matches!(b[i], 'e' | 'E') {
                    let mut j = i + 1;
                    if j < n && matches!(b[j], '+' | '-') {
                        j += 1;
                    }
                    if j < n && b[j].is_ascii_digit() {
                        is_float = true;
                        i = j;
                        while i < n && (b[i].is_ascii_digit() || b[i] == '_') {
                            i += 1;
                        }
                    }
                }
                // Type suffix (f64, u32, …).
                if i < n && is_ident_start(b[i]) {
                    let suffix_start = i;
                    while i < n && is_ident_cont(b[i]) {
                        i += 1;
                    }
                    if b[suffix_start] == 'f' {
                        is_float = true;
                    }
                }
            }
            let text: String = b[start..i].iter().collect();
            toks.push(Tok::new(
                if is_float {
                    TokKind::Float
                } else {
                    TokKind::Int
                },
                text,
                line,
            ));
            continue;
        }

        // Lifetimes vs char literals.
        if c == '\'' {
            // 'a' / '\n' / '\u{..}' are chars; 'a (no closing quote) is a
            // lifetime or label.
            if i + 1 < n && is_ident_start(b[i + 1]) && !(i + 2 < n && b[i + 2] == '\'') {
                let start = i;
                i += 1;
                while i < n && is_ident_cont(b[i]) {
                    i += 1;
                }
                let text: String = b[start..i].iter().collect();
                toks.push(Tok::new(TokKind::Lifetime, text, line));
                continue;
            }
            let start = i;
            let start_line = line;
            i += 1;
            while i < n {
                if b[i] == '\\' {
                    // An escaped newline (line continuation) still ends a
                    // source line.
                    if i + 1 < n && b[i + 1] == '\n' {
                        line += 1;
                    }
                    i += 2;
                    continue;
                }
                if b[i] == '\'' {
                    i += 1;
                    break;
                }
                if b[i] == '\n' {
                    line += 1;
                }
                i += 1;
            }
            let text: String = b[start..i.min(n)].iter().collect();
            toks.push(Tok::new(TokKind::Char, text, start_line));
            continue;
        }

        // Plain strings.
        if c == '"' {
            let start = i;
            let start_line = line;
            i += 1;
            while i < n {
                if b[i] == '\\' {
                    // An escaped newline (line continuation) still ends a
                    // source line.
                    if i + 1 < n && b[i + 1] == '\n' {
                        line += 1;
                    }
                    i += 2;
                    continue;
                }
                if b[i] == '"' {
                    i += 1;
                    break;
                }
                if b[i] == '\n' {
                    line += 1;
                }
                i += 1;
            }
            let text: String = b[start..i.min(n)].iter().collect();
            toks.push(Tok::new(TokKind::Str, text, start_line));
            continue;
        }

        // Multi-character operators the rules depend on.
        let mut matched = false;
        for op in OPERATORS {
            let len = op.len();
            if i + len <= n && b[i..i + len].iter().collect::<String>() == op {
                toks.push(Tok::new(TokKind::Punct, op, line));
                i += len;
                matched = true;
                break;
            }
        }
        if matched {
            continue;
        }

        toks.push(Tok::new(TokKind::Punct, c.to_string(), line));
        i += 1;
    }
    toks
}

/// Computes, per token, whether it sits inside test-only code: a block
/// following `#[cfg(test)]` / `#[test]` (any `cfg(..)` mentioning `test`
/// without `not`), or a `mod tests { .. }` body.
///
/// The heuristic marks from the first `{` after the attribute/mod header
/// to its matching `}`. Items gated with `#[cfg(test)]` but declared as
/// `mod tests;` (out-of-line) are instead excluded at the walker level via
/// the `tests/` directory rule.
pub fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    // (start_depth) of each open test region; a region closes when the
    // brace depth returns to start_depth.
    let mut regions: Vec<u32> = Vec::new();
    let mut depth = 0u32;
    let mut pending_attr_test = false;
    let mut pending_mod_tests = false;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Comment {
            mask[i] = !regions.is_empty();
            i += 1;
            continue;
        }
        // Attributes: parse #[ ... ] wholesale.
        if t.is_punct("#") {
            let mut j = i + 1;
            // Inner attribute `#![..]`.
            if j < toks.len() && toks[j].is_punct("!") {
                j += 1;
            }
            if j < toks.len() && toks[j].is_punct("[") {
                let mut bdepth = 0u32;
                let mut idents: Vec<&str> = Vec::new();
                let attr_start = i;
                while j < toks.len() {
                    let a = &toks[j];
                    if a.is_punct("[") {
                        bdepth += 1;
                    } else if a.is_punct("]") {
                        bdepth -= 1;
                        if bdepth == 0 {
                            break;
                        }
                    } else if a.kind == TokKind::Ident {
                        idents.push(&a.text);
                    }
                    j += 1;
                }
                let mentions_test = idents.contains(&"test");
                let negated = idents.contains(&"not");
                let is_cfg_like = idents
                    .first()
                    .is_some_and(|s| *s == "cfg" || *s == "cfg_attr" || *s == "test");
                if mentions_test && !negated && is_cfg_like {
                    pending_attr_test = true;
                }
                let in_test = !regions.is_empty();
                for m in mask
                    .iter_mut()
                    .take(j.min(toks.len() - 1) + 1)
                    .skip(attr_start)
                {
                    *m = in_test;
                }
                i = j + 1;
                continue;
            }
        }
        // `mod tests` / `mod test` headers.
        if t.is_ident("mod") {
            if let Some(next) = toks[i + 1..].iter().find(|x| x.kind != TokKind::Comment) {
                if next.kind == TokKind::Ident && (next.text == "tests" || next.text == "test") {
                    pending_mod_tests = true;
                }
            }
        }

        if t.is_punct(";") {
            // Item ended without a body: any pending markers die here.
            pending_attr_test = false;
            pending_mod_tests = false;
        } else if t.is_punct("{") {
            if pending_attr_test || pending_mod_tests {
                regions.push(depth);
                pending_attr_test = false;
                pending_mod_tests = false;
            }
            depth += 1;
        } else if t.is_punct("}") {
            depth = depth.saturating_sub(1);
            if regions.last().is_some_and(|&d| d == depth) {
                // This brace closes the region: the `}` itself is still
                // test code.
                mask[i] = true;
                regions.pop();
                i += 1;
                continue;
            }
        }
        mask[i] = !regions.is_empty();
        i += 1;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_and_method_calls() {
        let toks = lex("x.unwrap()");
        assert_eq!(toks.len(), 5);
        assert!(toks[1].is_punct("."));
        assert!(toks[2].is_ident("unwrap"));
        assert!(toks[3].is_punct("("));
    }

    #[test]
    fn strings_hide_their_contents() {
        let toks = kinds(r#"let s = "x.unwrap() == 0.0";"#);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Str && t.contains("unwrap")));
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && t == "unwrap"));
    }

    #[test]
    fn raw_strings_with_fencing() {
        let src = r##"let s = r#"quote " and panic!( inside"# ; done"##;
        let toks = lex(src);
        let s = toks.iter().find(|t| t.kind == TokKind::Str);
        assert!(s.is_some_and(|t| t.text.contains("panic!(")));
        assert!(toks.iter().any(|t| t.is_ident("done")));
        assert!(!toks.iter().any(|t| t.is_ident("panic")));
    }

    #[test]
    fn nested_block_comments() {
        let toks = lex("a /* outer /* inner */ still comment */ b");
        assert!(toks.iter().any(|t| t.is_ident("a")));
        assert!(toks.iter().any(|t| t.is_ident("b")));
        let comments: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Comment).collect();
        assert_eq!(comments.len(), 1);
        assert!(comments[0].text.contains("inner"));
    }

    #[test]
    fn floats_vs_tuple_indexing_vs_ranges() {
        let toks = kinds("a.0 + 0.5 + (0..4) + 1e-9 + 2f64 + 3usize + c.1.abs()");
        let floats: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Float)
            .map(|(_, t)| t.clone())
            .collect();
        assert_eq!(floats, vec!["0.5", "1e-9", "2f64"]);
        let ints: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Int)
            .map(|(_, t)| t.clone())
            .collect();
        assert_eq!(ints, vec!["0", "0", "4", "3usize", "1"]);
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let toks = kinds("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Lifetime && t == "'a"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Char && t == "'x'"));
    }

    #[test]
    fn operators_are_single_tokens() {
        let toks = lex("a == b != c -> d::e ..= f");
        assert!(toks.iter().any(|t| t.is_punct("==")));
        assert!(toks.iter().any(|t| t.is_punct("!=")));
        assert!(toks.iter().any(|t| t.is_punct("->")));
        assert!(toks.iter().any(|t| t.is_punct("::")));
        assert!(toks.iter().any(|t| t.is_punct("..=")));
    }

    #[test]
    fn macro_bang_stays_separate_from_neq() {
        let toks = lex("panic!(\"x\"); a != b");
        assert!(toks.iter().any(|t| t.is_ident("panic")));
        assert!(toks.iter().any(|t| t.is_punct("!")));
        assert!(toks.iter().any(|t| t.is_punct("!=")));
    }

    #[test]
    fn raw_identifiers() {
        let toks = kinds("let r#type = 1;");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && t == "type"));
    }

    #[test]
    fn line_numbers_survive_multiline_tokens() {
        let src = "a\n/* two\nlines */\nb \"str\nacross\" c";
        let toks = lex(src);
        let b_tok = toks.iter().find(|t| t.is_ident("b"));
        assert_eq!(b_tok.map(|t| t.line), Some(4));
        let c_tok = toks.iter().find(|t| t.is_ident("c"));
        assert_eq!(c_tok.map(|t| t.line), Some(5));
    }

    #[test]
    fn escaped_newline_continuations_count_lines() {
        let src = "let u = \"first\\\n second\\\n third\";\nafter";
        let toks = lex(src);
        let after = toks.iter().find(|t| t.is_ident("after"));
        assert_eq!(after.map(|t| t.line), Some(4));
    }

    #[test]
    fn cfg_test_mod_scoping() {
        let src = "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n  fn t() { y.unwrap(); }\n}\nfn live2() {}";
        let toks = lex(src);
        let mask = test_mask(&toks);
        let unwraps: Vec<bool> = toks
            .iter()
            .zip(&mask)
            .filter(|(t, _)| t.is_ident("unwrap"))
            .map(|(_, &m)| m)
            .collect();
        assert_eq!(unwraps, vec![false, true]);
        let live2 = toks.iter().position(|t| t.is_ident("live2"));
        assert!(live2.is_some_and(|i| !mask[i]));
    }

    #[test]
    fn bare_mod_tests_without_cfg() {
        let src = "mod tests { fn f() { a.unwrap(); } }\nfn out() { b.unwrap(); }";
        let toks = lex(src);
        let mask = test_mask(&toks);
        let unwraps: Vec<bool> = toks
            .iter()
            .zip(&mask)
            .filter(|(t, _)| t.is_ident("unwrap"))
            .map(|(_, &m)| m)
            .collect();
        assert_eq!(unwraps, vec![true, false]);
    }

    #[test]
    fn cfg_not_test_is_live_code() {
        let src = "#[cfg(not(test))]\nmod live { fn f() { a.unwrap(); } }";
        let toks = lex(src);
        let mask = test_mask(&toks);
        let idx = toks.iter().position(|t| t.is_ident("unwrap"));
        assert!(idx.is_some_and(|i| !mask[i]));
    }

    #[test]
    fn test_attribute_on_fn() {
        let src = "#[test]\nfn check() { a.unwrap(); }\nfn live() { b.unwrap(); }";
        let toks = lex(src);
        let mask = test_mask(&toks);
        let unwraps: Vec<bool> = toks
            .iter()
            .zip(&mask)
            .filter(|(t, _)| t.is_ident("unwrap"))
            .map(|(_, &m)| m)
            .collect();
        assert_eq!(unwraps, vec![true, false]);
    }

    #[test]
    fn mod_tests_semicolon_does_not_open_region() {
        let src = "#[cfg(test)]\nmod tests;\nfn live() { a.unwrap(); }";
        let toks = lex(src);
        let mask = test_mask(&toks);
        let idx = toks.iter().position(|t| t.is_ident("unwrap"));
        assert!(idx.is_some_and(|i| !mask[i]));
    }
}
