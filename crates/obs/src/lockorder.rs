//! Runtime lock-order validation: the dynamic counterpart of the
//! `fedval-analyze` `lock-order-cycle` rule (DESIGN.md §12).
//!
//! [`OrderedMutex`], the one lock wrapper, gives a `std::sync::Mutex` a
//! `&'static str` name. Under `debug_assertions` (i.e. in every
//! `cargo test` run) each acquisition records *held-lock →
//! acquired-lock* edges into a process-global order graph and panics
//! with a witness path the moment an acquisition would close a cycle —
//! turning a latent deadlock into a loud test failure at the first
//! interleaving that *could* deadlock, not the one that does. Release
//! builds skip all bookkeeping; the wrapper costs one branch.
//!
//! [`edges`] lists the witnessed graph, for tests that check which
//! orders actually ran.
//!
//! Poisoning is absorbed (`into_inner`) like everywhere else in this
//! workspace: observability and caching state stay usable after a
//! panicked writer, and the panic itself already failed the test.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard};

/// Process-global acquisition-order graph: `from → to` means some thread
/// acquired `to` while holding `from`.
static GRAPH: Mutex<BTreeMap<&'static str, BTreeSet<&'static str>>> = Mutex::new(BTreeMap::new());

thread_local! {
    /// Locks currently held by this thread, in acquisition order.
    static HELD: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

fn graph_guard() -> MutexGuard<'static, BTreeMap<&'static str, BTreeSet<&'static str>>> {
    match GRAPH.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Shortest `from → … → to` path in the graph, if one exists (BFS).
fn path_between(
    graph: &BTreeMap<&'static str, BTreeSet<&'static str>>,
    from: &'static str,
    to: &'static str,
) -> Option<Vec<&'static str>> {
    let mut parent: BTreeMap<&'static str, &'static str> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::from([from]);
    while let Some(node) = queue.pop_front() {
        for &next in graph.get(node).into_iter().flatten() {
            if next == to {
                let mut rev = vec![to, node];
                let mut cur = node;
                while let Some(&p) = parent.get(cur) {
                    rev.push(p);
                    cur = p;
                }
                rev.reverse();
                return Some(rev);
            }
            if next != from && !parent.contains_key(next) {
                parent.insert(next, node);
                queue.push_back(next);
            }
        }
    }
    None
}

/// Records `held → name` edges and panics if the acquisition closes a
/// cycle. Must run *before* the underlying lock is taken so the test
/// dies instead of deadlocking. No-op without `debug_assertions`.
#[expect(
    clippy::panic,
    reason = "the checker's contract is to abort the test on witnessed deadlock risk"
)]
fn on_acquire(name: &'static str) {
    if !cfg!(debug_assertions) {
        return;
    }
    // try_with: ordered locks are taken from TLS destructors (the
    // thread-exit metric-shard flush); once this thread's held-stack is
    // torn down there is nothing left to order against, so checking
    // degrades to a no-op instead of panicking mid-teardown.
    let held: Vec<&'static str> = HELD.try_with(|h| h.borrow().clone()).unwrap_or_default();
    if held.contains(&name) {
        panic!("lock-order: thread re-acquiring `{name}` while already holding it");
    }
    let mut graph = graph_guard();
    for &h in &held {
        graph.entry(h).or_default().insert(name);
    }
    // A cycle exists iff the graph now orders `name` before some lock
    // this thread already holds.
    for &h in &held {
        if let Some(path) = path_between(&graph, name, h) {
            let witness = path.join(" → ");
            drop(graph);
            panic!(
                "lock-order cycle witnessed: acquiring `{name}` while holding `{h}`, \
                 but recorded acquisitions already order {witness}; pick one global \
                 lock order (see DESIGN.md §12)"
            );
        }
    }
}

fn push_held(name: &'static str) {
    if cfg!(debug_assertions) {
        let _ = HELD.try_with(|h| h.borrow_mut().push(name));
    }
}

fn pop_held(name: &'static str) {
    if cfg!(debug_assertions) {
        let _ = HELD.try_with(|h| {
            let mut held = h.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&n| n == name) {
                held.remove(pos);
            }
        });
    }
}

/// Snapshot of the witnessed acquisition-order edges, sorted.
pub fn edges() -> Vec<(&'static str, &'static str)> {
    graph_guard()
        .iter()
        .flat_map(|(&from, tos)| tos.iter().map(move |&to| (from, to)))
        .collect()
}

/// A [`Mutex`] that participates in runtime lock-order validation.
pub struct OrderedMutex<T> {
    name: &'static str,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Wraps `value` under the global order name `name` (use the
    /// `crate.subsystem` metric convention, e.g. `"serve.whatif"`).
    pub const fn new(name: &'static str, value: T) -> OrderedMutex<T> {
        OrderedMutex {
            name,
            inner: Mutex::new(value),
        }
    }

    /// Locks, recovering from poisoning, after recording the acquisition
    /// in the order graph (panicking on a witnessed cycle under
    /// `debug_assertions`).
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        on_acquire(self.name);
        let inner = match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        push_held(self.name);
        OrderedMutexGuard {
            inner,
            name: self.name,
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("name", &self.name)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Guard returned by [`OrderedMutex::lock`].
pub struct OrderedMutexGuard<'a, T> {
    inner: MutexGuard<'a, T>,
    name: &'static str,
}

impl<T> Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Drop for OrderedMutexGuard<'_, T> {
    fn drop(&mut self) {
        pop_held(self.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Test locks use unique names so the intentional-cycle tests cannot
    // pollute the order graph other tests (or adopted production locks)
    // observe.

    #[test]
    fn consistent_order_records_edges() {
        let a = OrderedMutex::new("t1.alpha", 1u32);
        let b = OrderedMutex::new("t1.beta", 2u32);
        {
            let ga = a.lock();
            let gb = b.lock();
            assert_eq!(*ga + *gb, 3);
        }
        {
            let ga = a.lock();
            let gb = b.lock();
            assert_eq!(*ga + *gb, 3);
        }
        assert!(edges().contains(&("t1.alpha", "t1.beta")));
    }

    #[test]
    fn reversed_order_panics_with_witness() {
        let a = OrderedMutex::new("t2.alpha", 0u32);
        let b = OrderedMutex::new("t2.beta", 0u32);
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _gb = b.lock();
            let _ga = a.lock();
        }));
        let err = caught.expect_err("reversed acquisition must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("lock-order cycle witnessed"), "{msg}");
        assert!(msg.contains("t2.alpha"), "{msg}");
        assert!(msg.contains("t2.beta"), "{msg}");
    }

    #[test]
    fn same_thread_relock_panics() {
        let a = OrderedMutex::new("t3.alpha", 0u32);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g1 = a.lock();
            let _g2 = a.lock();
        }));
        let err = caught.expect_err("self-relock must panic, not deadlock");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("re-acquiring"), "{msg}");
    }

    #[test]
    fn transitive_cycle_detected() {
        let a = OrderedMutex::new("t4.alpha", 0u32);
        let b = OrderedMutex::new("t4.beta", 0u32);
        let c = OrderedMutex::new("t4.gamma", 0u32);
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        {
            let _gb = b.lock();
            let _gc = c.lock();
        }
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _gc = c.lock();
            let _ga = a.lock();
        }));
        let err = caught.expect_err("transitive reversal must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("t4.alpha → t4.beta → t4.gamma"), "{msg}");
    }

    #[test]
    fn guard_drop_releases_held_slot() {
        let a = OrderedMutex::new("t5.alpha", 0u32);
        let b = OrderedMutex::new("t5.beta", 0u32);
        {
            let _ga = a.lock();
        }
        // a is no longer held, so taking b then a records b→a without a
        // false a→b edge from the dropped guard.
        let _gb = b.lock();
        let _ga = a.lock();
        assert!(edges().contains(&("t5.beta", "t5.alpha")));
        assert!(!edges().contains(&("t5.alpha", "t5.beta")));
    }
}
