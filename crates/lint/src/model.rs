//! Item-level model of one source file for the cross-file analysis pass.
//!
//! [`FileModel::parse`] layers a lightweight *item parser* on top of the
//! token stream from [`crate::lexer`]: function boundaries (by brace
//! matching), lock declarations (struct fields, statics, `let` locals,
//! and `&Mutex<_>`-style parameters), lock-acquisition sites with an
//! approximate guard-liveness span, blocking-call sites, an intra-crate
//! call-site list, and atomic-ordering observation points.
//! [`crate::analyze`] stitches the per-file models into a workspace
//! lock-order graph.
//!
//! The model is deliberately approximate — it reasons about *names*, not
//! types. The approximations are chosen to under-report rather than
//! invent findings:
//!
//! * A receiver only counts as a lock when its final path segment
//!   resolves to a known `Mutex`/`RwLock`/`OrderedMutex` declaration,
//!   and only for argument-less `.lock()`/`.read()`/`.write()` calls
//!   (so `io::Read::read(&mut buf)` never matches).
//! * Guard liveness: a `let`-bound guard lives to the end of its
//!   enclosing block (or an explicit `drop(guard)`); a temporary guard
//!   lives to the end of its statement (the whole loop for `for`, the
//!   scrutinized body for `match`, only the condition for `if`/`while`).
//! * Guards returned from `&self` helper methods are not tracked — the
//!   `OrderedMutex` adoption removes that pattern from the hot crates.

use crate::lexer::{self, Tok, TokKind};

/// Sentinel for "no matching close token".
const NONE: usize = usize::MAX;

/// Lock-like types recognized in declarations.
const LOCK_TYPES: [&str; 3] = ["Mutex", "RwLock", "OrderedMutex"];

/// Atomic types recognized in declarations (`bool` flags vs. counters).
const ATOMIC_BOOL: &str = "AtomicBool";
const ATOMIC_COUNTERS: [&str; 8] = [
    "AtomicUsize",
    "AtomicIsize",
    "AtomicU64",
    "AtomicU32",
    "AtomicU16",
    "AtomicU8",
    "AtomicI64",
    "AtomicI32",
];

/// Method names that acquire a guard when called with no arguments.
const LOCK_METHODS: [&str; 3] = ["lock", "read", "write"];

/// Blocking operations a guard must not be held across. Names requiring
/// an *empty* argument list (`join`, `recv`) are disambiguated from
/// `Path::join`/etc. in the collector.
const BLOCKING_ANY_ARGS: [&str; 10] = [
    "sleep",
    "recv_timeout",
    "recv_deadline",
    "write_all",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "read_line",
    "read_until",
    "flush",
];
const BLOCKING_EMPTY_ARGS: [&str; 2] = ["join", "recv"];
const WAIT_METHODS: [&str; 3] = ["wait", "wait_timeout", "wait_while"];

/// Kind of a lock-like declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// `std::sync::Mutex` or `OrderedMutex`.
    Mutex,
    /// `std::sync::RwLock`.
    RwLock,
    /// `std::sync::Condvar` (never a guard source; kept for completeness).
    Condvar,
}

/// A named lock declaration.
#[derive(Debug, Clone)]
pub struct LockDecl {
    /// Bare identifier used at acquisition sites (`cache`, `SINK`).
    pub name: String,
    /// What was declared.
    pub kind: LockKind,
    /// 1-based declaration line.
    pub line: u32,
}

/// A named atomic declaration.
#[derive(Debug, Clone)]
pub struct AtomicDecl {
    /// Bare identifier (`ENABLED`, `next`).
    pub name: String,
    /// `true` for `AtomicBool` (a cross-thread flag), `false` for the
    /// integer counters.
    pub is_bool: bool,
    /// 1-based declaration line.
    pub line: u32,
}

/// A potential lock acquisition inside a function body.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// Final receiver path segment for `recv.lock()`-style sites; `None`
    /// for free-function call sites (resolved against wrapper functions
    /// in [`crate::analyze`]).
    pub receiver: Option<String>,
    /// `lock`/`read`/`write`, or the callee name for call-form sites.
    pub method: String,
    /// Identifiers inside the call's parentheses (wrapper-argument
    /// resolution).
    pub args: Vec<String>,
    /// Code-token index of the method/callee identifier.
    pub ci: usize,
    /// 1-based source line.
    pub line: u32,
    /// Code-token index one past the guard's approximate live range.
    pub live_end: usize,
    /// `let`-binding identifier holding the guard, when bound.
    pub bound: Option<String>,
}

/// One call site, feeding the intra-crate call graph.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee identifier (final path segment).
    pub callee: String,
    /// Code-token index of the callee identifier.
    pub ci: usize,
    /// 1-based source line.
    pub line: u32,
}

/// A blocking-operation site.
#[derive(Debug, Clone)]
pub struct BlockingSite {
    /// Operation name as written (`write_all`, `wait`, …).
    pub what: String,
    /// Code-token index of the identifier.
    pub ci: usize,
    /// 1-based source line.
    pub line: u32,
    /// `true` for `Condvar`-style waits, which atomically release the
    /// guard passed to them.
    pub is_wait: bool,
    /// Identifiers inside the call's parentheses (used to exempt the
    /// guard a `wait` releases).
    pub args: Vec<String>,
}

/// An atomic-memory-ordering observation point.
#[derive(Debug, Clone)]
pub struct AtomicSite {
    /// Final receiver path segment (`ENABLED` in `ENABLED.load(..)`).
    pub receiver: Option<String>,
    /// `load`, `store`, `fetch_add`, or `fetch_sub`.
    pub op: String,
    /// The `Ordering` variant named in the arguments, if recognized.
    pub ordering: Option<String>,
    /// 1-based source line.
    pub line: u32,
    /// Whether the site is inside test-only code.
    pub in_test: bool,
}

/// One function item.
#[derive(Debug, Clone)]
pub struct FnModel {
    /// Function name.
    pub name: String,
    /// 1-based line of the name.
    pub line: u32,
    /// Whether the function body is test-only code.
    pub in_test: bool,
    /// Whether the signature takes a `&Mutex<_>`/`&RwLock<_>`-style
    /// parameter and returns a `*Guard` type — a lock passthrough
    /// (e.g. `lock_recover`), whose call sites acquire the argument.
    pub is_wrapper: bool,
    /// Function-local lock declarations (params and `let` bindings).
    pub locals: Vec<LockDecl>,
    /// Acquisition candidates, in source order.
    pub lock_sites: Vec<LockSite>,
    /// Call sites, in source order.
    pub calls: Vec<CallSite>,
    /// Blocking-operation sites, in source order.
    pub blocking: Vec<BlockingSite>,
}

/// The full per-file model consumed by [`crate::analyze`].
#[derive(Debug, Clone)]
pub struct FileModel {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// Owning crate identifier.
    pub krate: String,
    /// File-level lock declarations (struct fields and statics).
    pub locks: Vec<LockDecl>,
    /// File-level atomic declarations.
    pub atomics: Vec<AtomicDecl>,
    /// Function items, in source order.
    pub fns: Vec<FnModel>,
    /// Atomic-ordering observation points.
    pub atomic_sites: Vec<AtomicSite>,
    /// Suppression markers, shared with the per-file rules.
    pub(crate) markers: Vec<crate::rules::Marker>,
    /// The file's source text (finding-id hashing).
    pub(crate) source: String,
}

/// Token-stream scaffolding: code-token views, brace depths, matching
/// delimiter indices.
struct Scan {
    toks: Vec<Tok>,
    /// Indices of non-comment tokens.
    code: Vec<usize>,
    in_test: Vec<bool>,
    /// Brace depth at each code token (`{` carries the outer depth, its
    /// matching `}` the same value).
    depth: Vec<u32>,
    /// For each opening `{`/`(`/`[` code token: matching close index,
    /// else [`NONE`].
    close: Vec<usize>,
    /// Matched brace pairs `(open, close)`, sorted by open.
    pairs: Vec<(usize, usize)>,
}

impl Scan {
    fn new(source: &str) -> Scan {
        let toks = lexer::lex(source);
        let in_test = lexer::test_mask(&toks);
        let code: Vec<usize> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind != TokKind::Comment)
            .map(|(i, _)| i)
            .collect();
        let n = code.len();
        let mut depth = vec![0u32; n];
        let mut close = vec![NONE; n];
        let mut pairs = Vec::new();
        let mut braces = Vec::new();
        let mut parens = Vec::new();
        let mut brackets = Vec::new();
        let mut d = 0u32;
        for ci in 0..n {
            let t = &toks[code[ci]];
            depth[ci] = d;
            if t.kind != TokKind::Punct {
                continue;
            }
            match t.text.as_str() {
                "{" => {
                    braces.push(ci);
                    d += 1;
                }
                "}" => {
                    d = d.saturating_sub(1);
                    depth[ci] = d;
                    if let Some(o) = braces.pop() {
                        close[o] = ci;
                        pairs.push((o, ci));
                    }
                }
                "(" => parens.push(ci),
                ")" => {
                    if let Some(o) = parens.pop() {
                        close[o] = ci;
                    }
                }
                "[" => brackets.push(ci),
                "]" => {
                    if let Some(o) = brackets.pop() {
                        close[o] = ci;
                    }
                }
                _ => {}
            }
        }
        pairs.sort_unstable();
        Scan {
            toks,
            code,
            in_test,
            depth,
            close,
            pairs,
        }
    }

    fn len(&self) -> usize {
        self.code.len()
    }

    fn t(&self, ci: usize) -> &Tok {
        &self.toks[self.code[ci]]
    }

    fn is_test(&self, ci: usize) -> bool {
        self.in_test[self.code[ci]]
    }

    /// Close index of the innermost brace pair strictly containing `ci`.
    fn enclosing_close(&self, ci: usize) -> usize {
        let mut best = NONE;
        for &(o, c) in &self.pairs {
            if o >= ci {
                break;
            }
            if c >= ci && (best == NONE || c <= best) {
                best = c;
            }
        }
        best
    }
}

impl FileModel {
    /// Parses one file into its item-level model. Never fails: broken or
    /// non-Rust input degrades to an empty model, mirroring the lexer's
    /// tolerance.
    pub fn parse(source: &str, file: &str, krate: &str) -> FileModel {
        let s = Scan::new(source);
        let markers = crate::rules::collect_markers(&s.toks);
        let fn_items = find_fns(&s);

        // File-level declarations: everything outside fn signatures and
        // bodies. Function-local declarations attach to their fn below.
        let mut locks = Vec::new();
        let mut atomics = Vec::new();
        let in_fn = |ci: usize| {
            fn_items
                .iter()
                .any(|f| ci > f.kw && ci <= f.body_close.min(NONE - 1))
        };
        for ci in 0..s.len() {
            if in_fn(ci) {
                continue;
            }
            collect_decl(&s, ci, &mut locks, &mut atomics);
        }

        let mut fns = Vec::new();
        for (idx, f) in fn_items.iter().enumerate() {
            fns.push(build_fn(&s, f, idx, &fn_items));
        }

        FileModel {
            file: file.to_string(),
            krate: krate.to_string(),
            locks,
            atomics,
            fns,
            atomic_sites: collect_atomic_sites(&s),
            markers,
            source: source.to_string(),
        }
    }
}

/// Raw function item positions (code-token indices).
struct FnItem {
    /// Index of the `fn` keyword.
    kw: usize,
    /// Index of the name identifier.
    name: usize,
    /// Index of the body `{`.
    body_open: usize,
    /// Index of the matching `}`.
    body_close: usize,
}

fn find_fns(s: &Scan) -> Vec<FnItem> {
    let mut out = Vec::new();
    let n = s.len();
    for ci in 0..n {
        if !s.t(ci).is_ident("fn") {
            continue;
        }
        let name = ci + 1;
        if name >= n || s.t(name).kind != TokKind::Ident {
            continue; // `fn(..)` pointer type or truncated input
        }
        // Walk the signature to the body `{` (or `;` for bodyless items),
        // hopping over balanced parens/brackets.
        let mut j = name + 1;
        let mut body_open = NONE;
        while j < n {
            let t = s.t(j);
            if (t.is_punct("(") || t.is_punct("[")) && s.close[j] != NONE {
                j = s.close[j] + 1;
                continue;
            }
            if t.is_punct("{") {
                body_open = j;
                break;
            }
            if t.is_punct(";") {
                break;
            }
            j += 1;
        }
        if body_open == NONE || s.close[body_open] == NONE {
            continue;
        }
        out.push(FnItem {
            kw: ci,
            name,
            body_open,
            body_close: s.close[body_open],
        });
    }
    out
}

/// Whether `ci` starts a `name: <type mentioning a lock/atomic>` or
/// `name = LockType::new(..)` declaration; pushes the decl if so.
fn collect_decl(s: &Scan, ci: usize, locks: &mut Vec<LockDecl>, atomics: &mut Vec<AtomicDecl>) {
    let n = s.len();
    let t = s.t(ci);
    if t.kind != TokKind::Ident || ci + 1 >= n {
        return;
    }
    let name = &t.text;
    let line = t.line;
    let nx = s.t(ci + 1);
    let type_start = if nx.is_punct(":") {
        ci + 2
    } else if nx.is_punct("=") {
        // `name = LockType::new(..)`. A `:` right before `name` means we
        // are looking at the *type* of an annotated decl (`x: T = ..`),
        // already handled from the name token — not a new declaration.
        if ci > 0 && s.t(ci - 1).is_punct(":") {
            return;
        }
        ci + 2
    } else {
        return;
    };
    // Scan the type (or initializer head) region with angle/paren nesting,
    // stopping at a top-level terminator. Bounded so adversarial input
    // cannot make this quadratic-ish scan dominate.
    let mut depth = 0i32;
    let mut j = type_start;
    let limit = (type_start + 48).min(n);
    while j < limit {
        let tj = s.t(j);
        if tj.kind == TokKind::Punct {
            match tj.text.as_str() {
                "<" | "(" | "[" => depth += 1,
                ">" | ")" | "]" => {
                    if depth == 0 {
                        return;
                    }
                    depth -= 1;
                }
                "," | ";" | "{" | "}" if depth == 0 => return,
                "=" if depth == 0 && nx.is_punct(":") => return,
                _ => {}
            }
        } else if tj.kind == TokKind::Ident && depth <= 2 {
            let ty = tj.text.as_str();
            // Initializer form requires `LockType::new`.
            if nx.is_punct("=") && !(j + 1 < n && s.t(j + 1).is_punct("::")) {
                j += 1;
                continue;
            }
            if ty == "Mutex" || ty == "OrderedMutex" {
                locks.push(LockDecl {
                    name: name.clone(),
                    kind: LockKind::Mutex,
                    line,
                });
                return;
            }
            if ty == "RwLock" {
                locks.push(LockDecl {
                    name: name.clone(),
                    kind: LockKind::RwLock,
                    line,
                });
                return;
            }
            if ty == "Condvar" {
                locks.push(LockDecl {
                    name: name.clone(),
                    kind: LockKind::Condvar,
                    line,
                });
                return;
            }
            if ty == ATOMIC_BOOL {
                atomics.push(AtomicDecl {
                    name: name.clone(),
                    is_bool: true,
                    line,
                });
                return;
            }
            if ATOMIC_COUNTERS.contains(&ty) {
                atomics.push(AtomicDecl {
                    name: name.clone(),
                    is_bool: false,
                    line,
                });
                return;
            }
            // In `name: Type` form, only look past wrapper idents
            // (`Arc`, `Box`, `Option`, references); in `name = ..` form
            // only the leading path matters.
            if nx.is_punct("=") {
                return;
            }
        }
        j += 1;
    }
}

fn build_fn(s: &Scan, f: &FnItem, idx: usize, all: &[FnItem]) -> FnModel {
    let n = s.len();
    let name = s.t(f.name).text.clone();
    let line = s.t(f.name).line;
    let in_test = s.is_test(f.name);

    // Signature analysis: wrapper detection + lock-typed params.
    let mut sig_has_lock_param = false;
    let mut sig_has_guard_return = false;
    let mut seen_arrow = false;
    let mut locals = Vec::new();
    let mut sink = Vec::new(); // atomic decls in signatures: ignored
    for ci in f.kw..f.body_open {
        let t = s.t(ci);
        if t.is_punct("->") {
            seen_arrow = true;
        } else if t.kind == TokKind::Ident {
            if LOCK_TYPES.contains(&t.text.as_str()) && !seen_arrow {
                sig_has_lock_param = true;
            }
            if seen_arrow && t.text.ends_with("Guard") {
                sig_has_guard_return = true;
            }
        }
        collect_decl(s, ci, &mut locals, &mut sink);
    }
    sink.clear();

    // Nested fn items: their sites belong to them, not to us.
    let nested: Vec<(usize, usize)> = all
        .iter()
        .enumerate()
        .filter(|&(i, g)| i != idx && g.kw > f.body_open && g.body_close < f.body_close)
        .map(|(_, g)| (g.kw, g.body_close))
        .collect();
    let skip = |ci: usize| nested.iter().any(|&(a, b)| ci >= a && ci <= b);

    let mut lock_sites = Vec::new();
    let mut calls = Vec::new();
    let mut blocking = Vec::new();
    let mut ci = f.body_open + 1;
    while ci < f.body_close.min(n) {
        if skip(ci) {
            ci += 1;
            continue;
        }
        let t = s.t(ci);
        if t.kind != TokKind::Ident {
            ci += 1;
            continue;
        }
        // Function-local declarations (`let x: Mutex<..>`, `let x = Mutex::new(..)`).
        collect_decl(s, ci, &mut locals, &mut sink);

        let called = ci + 1 < n && s.t(ci + 1).is_punct("(");
        if !called {
            ci += 1;
            continue;
        }
        let open = ci + 1;
        let close = s.close[open];
        let prev_dot = ci > 0 && s.t(ci - 1).is_punct(".");
        let prev_path = ci > 0 && s.t(ci - 1).is_punct("::");
        let empty_args = close == open + 1;
        let nm = t.text.as_str();

        // Call-graph edges: free calls, path calls, and `self.method()`.
        // Dotted calls on *other* receivers (`conn.shutdown(..)`,
        // `cv.wait(..)`) are std/foreign methods that would otherwise be
        // conflated with same-named fns in this crate.
        let self_call = prev_dot && ci.checked_sub(2).is_some_and(|p| s.t(p).is_ident("self"));
        if !prev_dot || self_call {
            calls.push(CallSite {
                callee: t.text.clone(),
                ci,
                line: t.line,
            });
        }

        if prev_dot && LOCK_METHODS.contains(&nm) && empty_args {
            let receiver = ci
                .checked_sub(2)
                .map(|p| s.t(p))
                .filter(|p| p.kind == TokKind::Ident)
                .map(|p| p.text.clone());
            let (live_end, bound) = guard_span(s, ci, close);
            lock_sites.push(LockSite {
                receiver,
                method: t.text.clone(),
                args: Vec::new(),
                ci,
                line: t.line,
                live_end,
                bound,
            });
        } else if !prev_dot && close != NONE {
            // Free/path call: a wrapper-candidate acquisition site.
            let args = arg_idents(s, open, close);
            let (live_end, bound) = guard_span(s, ci, close);
            lock_sites.push(LockSite {
                receiver: None,
                method: t.text.clone(),
                args,
                ci,
                line: t.line,
                live_end,
                bound,
            });
        }

        let is_wait = WAIT_METHODS.contains(&nm);
        // `.write(buf)` with arguments is io::Write (the empty-args form
        // is the RwLock acquisition handled above); `.read(..)` stays
        // unclassified because `Read::read` and RwLock reads share too
        // much shape with ordinary getters.
        let blocking_hit = is_wait
            || BLOCKING_ANY_ARGS.contains(&nm)
            || (BLOCKING_EMPTY_ARGS.contains(&nm) && empty_args)
            || (nm == "write" && prev_dot && !empty_args && close != NONE)
            || (nm == "connect"
                && prev_path
                && ci
                    .checked_sub(2)
                    .is_some_and(|p| s.t(p).is_ident("TcpStream")));
        if blocking_hit {
            blocking.push(BlockingSite {
                what: t.text.clone(),
                ci,
                line: t.line,
                is_wait,
                args: if close == NONE {
                    Vec::new()
                } else {
                    arg_idents(s, open, close)
                },
            });
        }
        ci += 1;
    }

    FnModel {
        name,
        line,
        in_test,
        is_wrapper: sig_has_lock_param && sig_has_guard_return,
        locals,
        lock_sites,
        calls,
        blocking,
    }
}

/// Identifiers appearing inside `(open, close)`, capped.
fn arg_idents(s: &Scan, open: usize, close: usize) -> Vec<String> {
    let mut out = Vec::new();
    if close == NONE {
        return out;
    }
    for ci in open + 1..close.min(s.len()) {
        let t = s.t(ci);
        if t.kind == TokKind::Ident {
            out.push(t.text.clone());
            if out.len() >= 16 {
                break;
            }
        }
    }
    out
}

/// Approximates the live range of the guard produced by the call at
/// `site` (whose argument list closes at `close`). Returns
/// `(one-past-end code index, let-binding ident if bound)`.
fn guard_span(s: &Scan, site: usize, close: usize) -> (usize, Option<String>) {
    let n = s.len();
    if close == NONE {
        return (site + 1, None);
    }
    // Statement start: the token after the previous `;`/`{`/`}`.
    let mut st = site;
    while st > 0 {
        let p = s.t(st - 1);
        if p.is_punct(";") || p.is_punct("{") || p.is_punct("}") {
            break;
        }
        st -= 1;
    }
    let stmt_depth = s.depth.get(st).copied().unwrap_or(0);
    let kw = s.t(st).text.clone();

    // `let g = <acq>;`-bound guard: live to the enclosing block's close
    // or to an explicit `drop(g)`.
    let mut after = close + 1;
    while after < n && s.t(after).is_punct("?") {
        after += 1;
    }
    let terminal = after < n && s.t(after).is_punct(";");
    if kw == "let" && terminal {
        let mut bi = st + 1;
        if bi < n && s.t(bi).is_ident("mut") {
            bi += 1;
        }
        if bi < n && s.t(bi).kind == TokKind::Ident {
            let bound = s.t(bi).text.clone();
            let block_close = s.enclosing_close(st);
            let end = if block_close == NONE { n } else { block_close };
            for j in after..end.min(n.saturating_sub(3)) {
                if s.t(j).is_ident("drop")
                    && s.t(j + 1).is_punct("(")
                    && s.t(j + 2).is_ident(&bound)
                    && s.t(j + 3).is_punct(")")
                {
                    return (j, Some(bound));
                }
            }
            return (end, Some(bound));
        }
    }

    // Temporary guard: statement-shaped lifetime.
    match kw.as_str() {
        // `for x in <acq>.iter() { .. }` — iterator temporaries live for
        // the whole loop.
        "for" => {
            for j in close + 1..n {
                if s.t(j).is_punct("{") && s.depth[j] == stmt_depth {
                    let c = s.close[j];
                    return (if c == NONE { n } else { c }, None);
                }
            }
            (n, None)
        }
        // Condition temporaries drop before the body.
        "if" | "while" => {
            for j in close + 1..n {
                if s.t(j).is_punct("{") && s.depth[j] == stmt_depth {
                    return (j, None);
                }
            }
            (n, None)
        }
        // Scrutinee temporaries live for the whole match.
        "match" => {
            for j in close + 1..n {
                if s.t(j).is_punct("{") && s.depth[j] == stmt_depth {
                    let c = s.close[j];
                    return (if c == NONE { n } else { c }, None);
                }
            }
            (n, None)
        }
        _ => {
            for j in close + 1..n {
                let t = s.t(j);
                if (t.is_punct(";") && s.depth[j] <= stmt_depth)
                    || (t.is_punct("}") && s.depth[j] < stmt_depth)
                {
                    return (j, None);
                }
            }
            (n, None)
        }
    }
}

fn collect_atomic_sites(s: &Scan) -> Vec<AtomicSite> {
    const OPS: [&str; 4] = ["load", "store", "fetch_add", "fetch_sub"];
    const ORDERINGS: [&str; 5] = ["Relaxed", "SeqCst", "Acquire", "Release", "AcqRel"];
    let mut out = Vec::new();
    let n = s.len();
    for ci in 0..n {
        let t = s.t(ci);
        if t.kind != TokKind::Ident || !OPS.contains(&t.text.as_str()) {
            continue;
        }
        let prev_dot = ci > 0 && s.t(ci - 1).is_punct(".");
        let called = ci + 1 < n && s.t(ci + 1).is_punct("(");
        if !prev_dot || !called {
            continue;
        }
        let open = ci + 1;
        let close = s.close[open];
        if close == NONE {
            continue;
        }
        let receiver = ci
            .checked_sub(2)
            .map(|p| s.t(p))
            .filter(|p| p.kind == TokKind::Ident)
            .map(|p| p.text.clone());
        let mut ordering = None;
        for j in open + 1..close.min(n) {
            let a = s.t(j);
            if a.kind == TokKind::Ident && ORDERINGS.contains(&a.text.as_str()) {
                ordering = Some(a.text.clone());
            }
        }
        out.push(AtomicSite {
            receiver,
            op: t.text.clone(),
            ordering,
            line: t.line,
            in_test: s.is_test(ci),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> FileModel {
        FileModel::parse(src, "crates/x/src/lib.rs", "x")
    }

    #[test]
    fn field_and_static_lock_decls() {
        let m = model(
            "struct S { cache: Mutex<BTreeMap<u64, Slot>>, ready: Condvar }\n\
             static SINK: RwLock<Option<Arc<dyn Sink>>> = RwLock::new(None);\n\
             static ENABLED: AtomicBool = AtomicBool::new(false);",
        );
        let names: Vec<(&str, LockKind)> =
            m.locks.iter().map(|l| (l.name.as_str(), l.kind)).collect();
        assert!(names.contains(&("cache", LockKind::Mutex)));
        assert!(names.contains(&("ready", LockKind::Condvar)));
        assert!(names.contains(&("SINK", LockKind::RwLock)));
        assert_eq!(m.atomics.len(), 1);
        assert!(m.atomics[0].is_bool);
    }

    #[test]
    fn arc_wrapped_lock_field_detected() {
        let m = model("struct R { records: Arc<Mutex<Vec<Record>>> }");
        assert_eq!(m.locks.len(), 1);
        assert_eq!(m.locks[0].name, "records");
        assert_eq!(m.locks[0].kind, LockKind::Mutex);
    }

    #[test]
    fn fn_boundaries_and_acquisitions() {
        let m = model(
            "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
             impl S {\n  fn f(&self) {\n    let g = self.a.lock();\n    let h = self.b.lock();\n  }\n}",
        );
        let f = m.fns.iter().find(|f| f.name == "f").expect("fn f");
        assert_eq!(f.lock_sites.len(), 2);
        assert_eq!(f.lock_sites[0].receiver.as_deref(), Some("a"));
        assert_eq!(f.lock_sites[0].bound.as_deref(), Some("g"));
        // Both guards live to the end of the fn body.
        assert!(f.lock_sites[0].live_end > f.lock_sites[1].ci);
    }

    #[test]
    fn io_read_with_args_is_not_an_acquisition() {
        let m = model("fn f(s: &mut TcpStream) { s.read(&mut buf); s.write(&buf); }");
        let f = &m.fns[0];
        assert!(f
            .lock_sites
            .iter()
            .all(|l| l.method != "read" && l.method != "write"));
    }

    #[test]
    fn drop_ends_guard_liveness() {
        let m = model(
            "struct S { a: Mutex<u32> }\n\
             impl S { fn f(&self) { let g = self.a.lock(); use_it(&g); drop(g); after(); } }",
        );
        let f = m.fns.iter().find(|f| f.name == "f").expect("fn f");
        let site = &f.lock_sites[0];
        let after_call = f.calls.iter().find(|c| c.callee == "after").expect("after");
        assert!(site.live_end < after_call.ci, "drop(g) ends the guard");
    }

    #[test]
    fn temporary_guard_ends_at_statement() {
        let m = model(
            "struct S { a: Mutex<Vec<u32>> }\n\
             impl S { fn f(&self) { self.a.lock().push(1); other(); } }",
        );
        let f = m.fns.iter().find(|f| f.name == "f").expect("fn f");
        let site = &f.lock_sites[0];
        let other = f.calls.iter().find(|c| c.callee == "other").expect("other");
        assert!(site.live_end < other.ci);
    }

    #[test]
    fn if_condition_temporary_does_not_cover_body() {
        let m = model(
            "struct S { a: Mutex<Vec<u32>> }\n\
             impl S { fn f(&self) { if self.a.lock().len() > 3 { body(); } } }",
        );
        let f = m.fns.iter().find(|f| f.name == "f").expect("fn f");
        let site = &f.lock_sites[0];
        let body = f.calls.iter().find(|c| c.callee == "body").expect("body");
        assert!(site.live_end < body.ci);
    }

    #[test]
    fn for_loop_temporary_covers_body() {
        let m = model(
            "struct S { a: Mutex<Vec<u32>> }\n\
             impl S { fn f(&self) { for x in self.a.lock().iter() { body(); } } }",
        );
        let f = m.fns.iter().find(|f| f.name == "f").expect("fn f");
        let site = f
            .lock_sites
            .iter()
            .find(|l| l.method == "lock")
            .expect("lock site");
        let body = f.calls.iter().find(|c| c.callee == "body").expect("body");
        assert!(site.live_end > body.ci);
    }

    #[test]
    fn wrapper_fn_detected() {
        let m = model(
            "fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {\n\
               match mutex.lock() { Ok(g) => g, Err(p) => p.into_inner() }\n\
             }\nfn plain(x: u32) -> u32 { x }",
        );
        let w = m.fns.iter().find(|f| f.name == "lock_recover").expect("w");
        assert!(w.is_wrapper);
        assert!(w.locals.iter().any(|l| l.name == "mutex"));
        let p = m.fns.iter().find(|f| f.name == "plain").expect("p");
        assert!(!p.is_wrapper);
    }

    #[test]
    fn blocking_sites_classified() {
        let m = model(
            "fn f(rx: &Receiver<u32>, s: &mut TcpStream, h: JoinHandle<()>) {\n\
               thread::sleep(d); rx.recv(); s.write_all(b\"x\"); h.join();\n\
               path.join(\"seg\"); cv.wait(guard);\n\
             }",
        );
        let f = &m.fns[0];
        let whats: Vec<&str> = f.blocking.iter().map(|b| b.what.as_str()).collect();
        assert!(whats.contains(&"sleep"));
        assert!(whats.contains(&"recv"));
        assert!(whats.contains(&"write_all"));
        // `h.join()` (empty args) blocks; `path.join("seg")` does not.
        assert_eq!(whats.iter().filter(|w| **w == "join").count(), 1);
        let wait = f.blocking.iter().find(|b| b.is_wait).expect("wait");
        assert_eq!(wait.args, vec!["guard".to_string()]);
    }

    #[test]
    fn local_let_lock_decl() {
        let m = model(
            "fn f() { let finished: Mutex<Vec<u32>> = Mutex::new(Vec::new()); g(); }\n\
             fn h() { let m = Mutex::new(0u32); }",
        );
        let f = &m.fns[0];
        assert!(f.locals.iter().any(|l| l.name == "finished"));
        let h = m.fns.iter().find(|f| f.name == "h").expect("h");
        assert!(h.locals.iter().any(|l| l.name == "m"));
        assert!(m.locks.is_empty(), "locals are not file-level decls");
    }

    #[test]
    fn atomic_sites() {
        let m = model(
            "fn g(n: &AtomicUsize, b: &AtomicBool) {\n\
               n.fetch_add(1, Ordering::SeqCst); b.load(Ordering::Relaxed);\n\
               b.store(true, Ordering::SeqCst);\n\
             }",
        );
        let ops: Vec<(&str, Option<&str>)> = m
            .atomic_sites
            .iter()
            .map(|a| (a.op.as_str(), a.ordering.as_deref()))
            .collect();
        assert!(ops.contains(&("fetch_add", Some("SeqCst"))));
        assert!(ops.contains(&("load", Some("Relaxed"))));
        assert!(ops.contains(&("store", Some("SeqCst"))));
    }

    #[test]
    fn test_code_is_marked() {
        let m = model(
            "fn live() {}\n#[cfg(test)]\nmod tests { fn t() { X.load(Ordering::Relaxed); } }",
        );
        let t = m.fns.iter().find(|f| f.name == "t").expect("t");
        assert!(t.in_test);
        assert!(m.atomic_sites.iter().all(|a| a.in_test));
    }

    #[test]
    fn degenerate_inputs_do_not_panic() {
        for src in [
            "",
            "fn",
            "fn (",
            "{{{",
            "}}}",
            "fn f( { ; }",
            "let x: Mutex<",
        ] {
            let _ = FileModel::parse(src, "x.rs", "x");
        }
    }
}
