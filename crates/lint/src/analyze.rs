//! `fedval-analyze`: the cross-file concurrency pass.
//!
//! Consumes the per-file [`crate::model::FileModel`]s and implements the
//! three workspace-level rules:
//!
//! * **`lock-order-cycle`** — builds the workspace lock-acquisition-order
//!   graph (edge `A → B` when a guard of `A` is live while `B` is
//!   acquired, directly or through the intra-crate call graph) and
//!   reports every cycle with a witness path. Two threads taking the
//!   same two locks in opposite orders is the canonical deadlock; one
//!   global acquisition order is the discipline that rules it out.
//! * **`guard-across-blocking`** — a guard held across socket/file I/O,
//!   `thread::sleep`, channel `recv`, `join`, or a `Condvar` wait that
//!   releases a *different* lock. Such a hold turns one slow peer into a
//!   pile-up on the lock (`DESIGN.md` §11's stalled-reader scenario).
//! * **`atomic-ordering-audit`** — `Ordering::Relaxed` on `AtomicBool`
//!   cross-thread flags (a flag usually *publishes* other writes) and
//!   `SeqCst` RMWs on plain counters (a full fence on the hot path).
//!   Severity `warn`: each finding is a review prompt, answered either by
//!   fixing the ordering or by a justified marker.
//!
//! Findings respect the same `// lint: allow(<rule>) — reason` markers as
//! the per-file rules.

use crate::model::{FileModel, FnModel, LockKind};
use crate::rules::{self, Finding};
use std::collections::{BTreeMap, BTreeSet};

/// Runs the cross-file pass over every parsed model. Findings come back
/// marker-filtered, id-assigned, and sorted by `(file, line, rule)`.
pub fn analyze(models: &[FileModel]) -> Vec<Finding> {
    let ws = Workspace::build(models);
    let mut findings = Vec::new();
    ws.lock_order_cycles(&mut findings);
    ws.guard_across_blocking(&mut findings);
    atomic_ordering(models, &mut findings);

    // Marker suppression + stable ids, per file.
    let mut out = Vec::new();
    for model in models {
        let mut of_file: Vec<Finding> = findings
            .iter()
            .filter(|f| f.file == model.file)
            .cloned()
            .collect();
        if of_file.is_empty() {
            continue;
        }
        of_file.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
        rules::apply_markers(&mut of_file, &model.markers);
        rules::assign_ids(&mut of_file, &model.source);
        out.extend(of_file);
    }
    out.sort_by(|a, b| (a.file.clone(), a.line, a.rule).cmp(&(b.file.clone(), b.line, b.rule)));
    out
}

/// One resolved acquisition: a guard of `lock` live over
/// `(ci, live_end)`.
#[derive(Debug, Clone)]
struct Acq {
    /// Workspace-qualified lock identity (`crate::name`).
    lock: String,
    ci: usize,
    line: u32,
    live_end: usize,
    bound: Option<String>,
}

/// A function with its acquisitions resolved.
struct FnInfo<'m> {
    model: &'m FileModel,
    f: &'m FnModel,
    acqs: Vec<Acq>,
}

/// First-witness metadata for a lock-order edge.
#[derive(Debug, Clone)]
struct Witness {
    file: String,
    line: u32,
    context: String,
}

struct Workspace<'m> {
    fns: Vec<FnInfo<'m>>,
    /// `(crate, fn name) → transitively acquirable lock identities`.
    may_acquire: BTreeMap<(String, String), BTreeSet<String>>,
}

impl<'m> Workspace<'m> {
    fn build(models: &'m [FileModel]) -> Workspace<'m> {
        // Declaration tables. Same-name locks within a crate merge into
        // one identity (conservative and deterministic); cross-crate
        // resolution only fires when the name is unique workspace-wide.
        let mut crate_locks: BTreeMap<&str, BTreeMap<&str, LockKind>> = BTreeMap::new();
        let mut wrappers: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for m in models {
            let per = crate_locks.entry(m.krate.as_str()).or_default();
            for d in &m.locks {
                per.entry(d.name.as_str()).or_insert(d.kind);
            }
            for f in &m.fns {
                if f.is_wrapper {
                    wrappers
                        .entry(m.krate.as_str())
                        .or_default()
                        .insert(f.name.as_str());
                }
            }
        }
        let mut global: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for (krate, per) in &crate_locks {
            for (&name, kind) in per {
                if matches!(kind, LockKind::Mutex | LockKind::RwLock) {
                    global.entry(name).or_default().insert(krate);
                }
            }
        }

        let lockish = |kind: LockKind| matches!(kind, LockKind::Mutex | LockKind::RwLock);
        let resolve = |m: &FileModel, f: &FnModel, name: &str| -> Option<String> {
            if let Some(l) = f.locals.iter().find(|l| l.name == name) {
                return lockish(l.kind)
                    .then(|| format!("{}::{}().{}", m.krate, f.name, name));
            }
            if let Some(l) = m.locks.iter().find(|l| l.name == name) {
                return lockish(l.kind).then(|| format!("{}::{}", m.krate, name));
            }
            if let Some(kind) = crate_locks
                .get(m.krate.as_str())
                .and_then(|per| per.get(name))
            {
                return lockish(*kind).then(|| format!("{}::{}", m.krate, name));
            }
            let owners = global.get(name)?;
            if owners.len() == 1 {
                let owner = owners.iter().next()?;
                return Some(format!("{owner}::{name}"));
            }
            None
        };

        let mut fns = Vec::new();
        for m in models {
            for f in &m.fns {
                let mut acqs = Vec::new();
                for site in &f.lock_sites {
                    let lock = match &site.receiver {
                        Some(r) => resolve(m, f, r),
                        None => {
                            // Call form: only wrapper callees acquire, via
                            // their last resolvable argument.
                            if wrappers
                                .get(m.krate.as_str())
                                .is_some_and(|w| w.contains(site.method.as_str()))
                            {
                                site.args.iter().rev().find_map(|a| resolve(m, f, a))
                            } else {
                                None
                            }
                        }
                    };
                    if let Some(lock) = lock {
                        acqs.push(Acq {
                            lock,
                            ci: site.ci,
                            line: site.line,
                            live_end: site.live_end,
                            bound: site.bound.clone(),
                        });
                    }
                }
                acqs.sort_by_key(|a| a.ci);
                fns.push(FnInfo { model: m, f, acqs });
            }
        }

        // Transitive may-acquire sets over the intra-crate call graph,
        // to fixpoint. Sets only grow and are bounded by the lock
        // universe, so this terminates; the cap is a defensive bound.
        let mut may_acquire: BTreeMap<(String, String), BTreeSet<String>> = BTreeMap::new();
        for fi in &fns {
            if fi.f.in_test {
                continue;
            }
            let key = (fi.model.krate.clone(), fi.f.name.clone());
            let entry = may_acquire.entry(key).or_default();
            entry.extend(fi.acqs.iter().map(|a| a.lock.clone()));
        }
        for _round in 0..64 {
            let mut changed = false;
            for fi in &fns {
                if fi.f.in_test {
                    continue;
                }
                let key = (fi.model.krate.clone(), fi.f.name.clone());
                let mut add = BTreeSet::new();
                for c in &fi.f.calls {
                    let ck = (fi.model.krate.clone(), c.callee.clone());
                    if ck == key {
                        continue;
                    }
                    if let Some(s) = may_acquire.get(&ck) {
                        add.extend(s.iter().cloned());
                    }
                }
                if !add.is_empty() {
                    let entry = may_acquire.entry(key).or_default();
                    let before = entry.len();
                    entry.extend(add);
                    changed |= entry.len() != before;
                }
            }
            if !changed {
                break;
            }
        }

        Workspace { fns, may_acquire }
    }

    /// Acquisitions whose guard is live at code-token `ci`.
    fn held_at<'a>(fi: &'a FnInfo<'_>, ci: usize) -> Vec<&'a Acq> {
        fi.acqs
            .iter()
            .filter(|a| a.ci < ci && ci < a.live_end)
            .collect()
    }

    fn lock_order_cycles(&self, out: &mut Vec<Finding>) {
        // Edge set with first-witness metadata; insertion order is the
        // deterministic model/site order, so witnesses are stable.
        let mut edges: BTreeMap<(String, String), Witness> = BTreeMap::new();
        let mut add_edge = |from: &str, to: &str, w: Witness| {
            if from != to {
                edges
                    .entry((from.to_string(), to.to_string()))
                    .or_insert(w);
            }
        };
        for fi in &self.fns {
            if fi.f.in_test {
                continue;
            }
            for b in &fi.acqs {
                for a in Self::held_at(fi, b.ci) {
                    add_edge(
                        &a.lock,
                        &b.lock,
                        Witness {
                            file: fi.model.file.clone(),
                            line: b.line,
                            context: format!("in `{}`", fi.f.name),
                        },
                    );
                }
            }
            for c in &fi.f.calls {
                let ck = (fi.model.krate.clone(), c.callee.clone());
                let Some(reach) = self.may_acquire.get(&ck) else {
                    continue;
                };
                if reach.is_empty() {
                    continue;
                }
                for a in Self::held_at(fi, c.ci) {
                    for l in reach {
                        add_edge(
                            &a.lock,
                            l,
                            Witness {
                                file: fi.model.file.clone(),
                                line: c.line,
                                context: format!("in `{}` via `{}`", fi.f.name, c.callee),
                            },
                        );
                    }
                }
            }
        }

        let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for (from, to) in edges.keys() {
            adj.entry(from.as_str()).or_default().insert(to.as_str());
        }

        // One finding per distinct cycle node-set: BFS from each node for
        // the shortest path back to itself.
        let mut seen: BTreeSet<Vec<String>> = BTreeSet::new();
        for start in adj.keys().copied().collect::<Vec<_>>() {
            let Some(path) = shortest_cycle(&adj, start) else {
                continue;
            };
            let mut canon: Vec<String> = path.iter().map(|s| s.to_string()).collect();
            canon.sort();
            canon.dedup();
            if !seen.insert(canon) {
                continue;
            }
            // Render `a → b → … → a` with the witness of each edge.
            let mut msg = String::from("lock-order cycle: ");
            let mut hops = Vec::new();
            for w in path.windows(2) {
                let (from, to) = (w[0], w[1]);
                if let Some(wit) = edges.get(&(from.to_string(), to.to_string())) {
                    hops.push(format!(
                        "{from} → {to} ({}:{} {})",
                        wit.file, wit.line, wit.context
                    ));
                }
            }
            msg.push_str(&hops.join(", then "));
            msg.push_str(" — inconsistent acquisition order can deadlock; pick one global order");
            let first = edges.get(&(path[0].to_string(), path[1].to_string()));
            let (file, line) = match first {
                Some(w) => (w.file.clone(), w.line),
                None => continue,
            };
            let krate = crate::walker::crate_of(&file);
            out.push(Finding::new("lock-order-cycle", &file, line, &krate, msg));
        }
    }

    fn guard_across_blocking(&self, out: &mut Vec<Finding>) {
        for fi in &self.fns {
            if fi.f.in_test {
                continue;
            }
            // One finding per (held set) per fn: repeated I/O under the
            // same guard is one decision, not N findings.
            let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
            for b in &fi.f.blocking {
                let held = Self::held_at(fi, b.ci);
                if held.is_empty() {
                    continue;
                }
                let offending: Vec<&Acq> = if b.is_wait {
                    let released: Vec<&&Acq> = held
                        .iter()
                        .filter(|a| {
                            a.bound
                                .as_ref()
                                .is_some_and(|g| b.args.iter().any(|x| x == g))
                        })
                        .collect();
                    if released.is_empty() && held.len() == 1 {
                        // The single held guard is the one the wait
                        // releases.
                        continue;
                    }
                    held.iter()
                        .filter(|a| {
                            !a.bound
                                .as_ref()
                                .is_some_and(|g| b.args.iter().any(|x| x == g))
                        })
                        .copied()
                        .collect()
                } else {
                    held
                };
                if offending.is_empty() {
                    continue;
                }
                let mut locks: Vec<String> =
                    offending.iter().map(|a| a.lock.clone()).collect();
                locks.sort();
                locks.dedup();
                if !reported.insert(locks.clone()) {
                    continue;
                }
                let verb = if b.is_wait {
                    "waiting on a condvar"
                } else {
                    "blocking"
                };
                out.push(Finding::new(
                    "guard-across-blocking",
                    &fi.model.file,
                    b.line,
                    &fi.model.krate,
                    format!(
                        "guard of {} held across {verb} `{}` — one slow peer stalls every \
                         thread contending for the lock; drop the guard first or justify \
                         with a lint marker",
                        locks.join(", "),
                        b.what
                    ),
                ));
            }
        }
    }
}

/// Shortest path `start → … → start` through `adj`, if any (BFS).
fn shortest_cycle<'a>(
    adj: &BTreeMap<&'a str, BTreeSet<&'a str>>,
    start: &'a str,
) -> Option<Vec<&'a str>> {
    let mut parent: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue: std::collections::VecDeque<&str> = adj.get(start)?.iter().copied().collect();
    for &s in adj.get(start)? {
        parent.entry(s).or_insert(start);
    }
    while let Some(node) = queue.pop_front() {
        if node == start {
            break;
        }
        for &next in adj.get(node).into_iter().flatten() {
            if next == start {
                // Reconstruct start → … → node → start.
                let mut rev = vec![start, node];
                let mut cur = node;
                while let Some(&p) = parent.get(cur) {
                    if p == start {
                        break;
                    }
                    rev.push(p);
                    cur = p;
                }
                rev.push(start);
                rev.reverse();
                return Some(rev);
            }
            if !parent.contains_key(next) {
                parent.insert(next, node);
                queue.push_back(next);
            }
        }
    }
    None
}

fn atomic_ordering(models: &[FileModel], out: &mut Vec<Finding>) {
    // Workspace-wide AtomicBool names; ambiguous names (also declared as
    // a counter somewhere) resolve to "not a flag" to avoid inventing
    // findings.
    let mut bools: BTreeSet<&str> = BTreeSet::new();
    let mut counters: BTreeSet<&str> = BTreeSet::new();
    for m in models {
        for d in &m.atomics {
            if d.is_bool {
                bools.insert(d.name.as_str());
            } else {
                counters.insert(d.name.as_str());
            }
        }
    }
    for m in models {
        for site in &m.atomic_sites {
            if site.in_test {
                continue;
            }
            match (site.op.as_str(), site.ordering.as_deref()) {
                ("load" | "store", Some("Relaxed")) => {
                    let Some(r) = site.receiver.as_deref() else {
                        continue;
                    };
                    let local = m.atomics.iter().find(|d| d.name == r);
                    let is_flag = match local {
                        Some(d) => d.is_bool,
                        None => bools.contains(r) && !counters.contains(r),
                    };
                    if is_flag {
                        out.push(Finding::new(
                            "atomic-ordering-audit",
                            &m.file,
                            site.line,
                            &m.krate,
                            format!(
                                "`{r}.{}(Ordering::Relaxed)` on an AtomicBool cross-thread \
                                 flag — a flag usually publishes the writes it guards; use \
                                 Acquire/Release or justify with a lint marker",
                                site.op
                            ),
                        ));
                    }
                }
                ("fetch_add" | "fetch_sub", Some("SeqCst")) => {
                    out.push(Finding::new(
                        "atomic-ordering-audit",
                        &m.file,
                        site.line,
                        &m.krate,
                        format!(
                            "`{}(.., Ordering::SeqCst)` — a counter RMW is already atomic; \
                             Relaxed avoids a full fence on the hot path (justify with a \
                             marker if the ordering is load-bearing)",
                            site.op
                        ),
                    ));
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FileModel;

    fn run(files: &[(&str, &str, &str)]) -> Vec<Finding> {
        let models: Vec<FileModel> = files
            .iter()
            .map(|(src, file, krate)| FileModel::parse(src, file, krate))
            .collect();
        analyze(&models)
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn two_lock_cycle_detected_with_witness() {
        let src = "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
                   impl S {\n\
                     fn fwd(&self) { let g = self.a.lock(); let h = self.b.lock(); }\n\
                     fn rev(&self) { let h = self.b.lock(); let g = self.a.lock(); }\n\
                   }";
        let fs = run(&[(src, "crates/x/src/lib.rs", "x")]);
        let cyc: Vec<&Finding> = fs.iter().filter(|f| f.rule == "lock-order-cycle").collect();
        assert_eq!(cyc.len(), 1, "one finding per cycle: {fs:?}");
        assert!(cyc[0].message.contains("x::a"));
        assert!(cyc[0].message.contains("x::b"));
        assert!(cyc[0].message.contains("crates/x/src/lib.rs:"));
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
                   impl S {\n\
                     fn f(&self) { let g = self.a.lock(); let h = self.b.lock(); }\n\
                     fn g(&self) { let g = self.a.lock(); let h = self.b.lock(); }\n\
                   }";
        let fs = run(&[(src, "crates/x/src/lib.rs", "x")]);
        assert!(rules_of(&fs).iter().all(|r| *r != "lock-order-cycle"));
    }

    #[test]
    fn cycle_through_call_graph_detected() {
        let src = "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
                   impl S {\n\
                     fn take_b(&self) { let h = self.b.lock(); }\n\
                     fn fwd(&self) { let g = self.a.lock(); self.take_b(); }\n\
                     fn rev(&self) { let h = self.b.lock(); let g = self.a.lock(); }\n\
                   }";
        let fs = run(&[(src, "crates/x/src/lib.rs", "x")]);
        let cyc: Vec<&Finding> = fs.iter().filter(|f| f.rule == "lock-order-cycle").collect();
        assert_eq!(cyc.len(), 1, "{fs:?}");
        assert!(cyc[0].message.contains("via `take_b`"));
    }

    #[test]
    fn cross_crate_cycle_detected() {
        let a = "struct S { a: Mutex<u32> }\n\
                 impl S { fn f(&self, o: &Other) { let g = self.a.lock(); let h = o.b.lock(); } }";
        let b = "struct Other { b: Mutex<u32> }\n\
                 impl Other { fn g(&self, s: &S) { let h = self.b.lock(); let g = s.a.lock(); } }";
        let fs = run(&[
            (a, "crates/x/src/lib.rs", "x"),
            (b, "crates/y/src/lib.rs", "y"),
        ]);
        let cyc: Vec<&Finding> = fs.iter().filter(|f| f.rule == "lock-order-cycle").collect();
        assert_eq!(cyc.len(), 1, "{fs:?}");
    }

    #[test]
    fn guard_across_write_all_flagged() {
        let src = "fn send(stream: &mut TcpStream, m: &Mutex<u64>) {\n\
                     let g = m.lock();\n\
                     stream.write_all(b\"x\");\n\
                   }";
        let fs = run(&[(src, "crates/x/src/lib.rs", "x")]);
        let hits: Vec<&Finding> = fs
            .iter()
            .filter(|f| f.rule == "guard-across-blocking")
            .collect();
        assert_eq!(hits.len(), 1, "{fs:?}");
        assert!(hits[0].message.contains("write_all"));
    }

    #[test]
    fn dropping_guard_before_io_is_clean() {
        let src = "fn send(stream: &mut TcpStream, m: &Mutex<u64>) {\n\
                     let g = m.lock();\n\
                     drop(g);\n\
                     stream.write_all(b\"x\");\n\
                   }";
        let fs = run(&[(src, "crates/x/src/lib.rs", "x")]);
        assert!(rules_of(&fs).iter().all(|r| *r != "guard-across-blocking"));
    }

    #[test]
    fn condvar_wait_releasing_its_own_guard_is_clean() {
        let src = "struct S { m: Mutex<bool>, cv: Condvar }\n\
                   impl S { fn f(&self) { let mut g = self.m.lock(); g = self.cv.wait(g); } }";
        let fs = run(&[(src, "crates/x/src/lib.rs", "x")]);
        assert!(rules_of(&fs).iter().all(|r| *r != "guard-across-blocking"), "{fs:?}");
    }

    #[test]
    fn condvar_wait_holding_second_lock_flagged() {
        let src = "struct S { m: Mutex<bool>, o: Mutex<u32>, cv: Condvar }\n\
                   impl S { fn f(&self) {\n\
                     let held = self.o.lock();\n\
                     let mut g = self.m.lock();\n\
                     g = self.cv.wait(g);\n\
                   } }";
        let fs = run(&[(src, "crates/x/src/lib.rs", "x")]);
        let hits: Vec<&Finding> = fs
            .iter()
            .filter(|f| f.rule == "guard-across-blocking")
            .collect();
        assert_eq!(hits.len(), 1, "{fs:?}");
        assert!(hits[0].message.contains("x::o"));
        assert!(!hits[0].message.contains("x::m"));
    }

    #[test]
    fn wrapper_call_acquisition_resolves() {
        let src = "struct S { queue: Mutex<Vec<u32>> }\n\
                   fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {\n\
                     match mutex.lock() { Ok(g) => g, Err(p) => p.into_inner() }\n\
                   }\n\
                   impl S { fn f(&self, rx: &Receiver<u32>) {\n\
                     let q = lock_recover(&self.queue);\n\
                     rx.recv();\n\
                   } }";
        let fs = run(&[(src, "crates/x/src/lib.rs", "x")]);
        let hits: Vec<&Finding> = fs
            .iter()
            .filter(|f| f.rule == "guard-across-blocking")
            .collect();
        assert_eq!(hits.len(), 1, "{fs:?}");
        assert!(hits[0].message.contains("x::queue"));
    }

    #[test]
    fn relaxed_bool_flag_and_seqcst_counter_flagged() {
        let src = "static ENABLED: AtomicBool = AtomicBool::new(false);\n\
                   static HITS: AtomicU64 = AtomicU64::new(0);\n\
                   fn f() -> bool { ENABLED.load(Ordering::Relaxed) }\n\
                   fn g() { HITS.fetch_add(1, Ordering::SeqCst); }\n\
                   fn ok() { HITS.load(Ordering::Relaxed); HITS.fetch_add(1, Ordering::Relaxed); }";
        let fs = run(&[(src, "crates/x/src/lib.rs", "x")]);
        assert_eq!(
            rules_of(&fs),
            vec!["atomic-ordering-audit", "atomic-ordering-audit"]
        );
        assert!(fs.iter().all(|f| f.severity == "warn"));
    }

    #[test]
    fn markers_suppress_analyze_findings() {
        let src = "static ENABLED: AtomicBool = AtomicBool::new(false);\n\
                   fn f() -> bool {\n\
                     // lint: allow(atomic-ordering-audit) — single-flag fast path, no payload\n\
                     ENABLED.load(Ordering::Relaxed)\n\
                   }";
        let fs = run(&[(src, "crates/x/src/lib.rs", "x")]);
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn findings_carry_stable_ids() {
        let src = "fn f(stream: &mut TcpStream, m: &Mutex<u64>) { let g = m.lock(); stream.write_all(b\"x\"); }";
        let fs = run(&[(src, "crates/x/src/lib.rs", "x")]);
        assert_eq!(fs.len(), 1);
        assert!(fs[0].id.starts_with("guard-across-blocking:crates/x/src/lib.rs:"));
        // Same content → same id on a second run.
        let fs2 = run(&[(src, "crates/x/src/lib.rs", "x")]);
        assert_eq!(fs[0].id, fs2[0].id);
    }
}
