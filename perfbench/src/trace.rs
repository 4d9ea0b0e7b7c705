//! The benchmark-side tracer: spans recorded around calls into each
//! layer's public functions, kept in memory and written when the run
//! ends.
//!
//! Nothing here instruments the program. Layer boundaries the program
//! does not expose as a call (the coalition value function) are timed
//! by handing the program a [`TimedGame`] that delegates to the real
//! game; everything else is a span around a public entry point.

use fedval_coalition::{PlayerId, WideGame};
use std::cell::RefCell;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed span: name, start, end (ns since the trace origin), the
/// span that caused it, and the thread it ran on (0 = the job thread).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub thread: u32,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The spans of one traced job, in memory.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn now(&self) -> u64 {
        ns_since(self.origin)
    }

    /// Opens a span named `name` under `parent`; returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            thread: 0,
        });
        self.spans.len() - 1
    }

    /// Adds a span measured elsewhere; returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
        thread: u32,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            thread,
        });
        self.spans.len() - 1
    }

    /// Closes the span `index` opened.
    pub fn close(&mut self, index: usize) {
        self.spans[index].end = self.now();
    }

    /// Adds the value calls a [`Recorder`] saw as children of `parent`.
    pub fn adopt_calls(&mut self, calls: &[ThreadCalls], parent: usize) {
        for t in calls {
            self.spans.extend(t.calls.iter().map(|c| Span {
                name: "core.value",
                start: c.start,
                end: c.end,
                parent: Some(parent),
                thread: t.thread,
            }));
        }
    }

    pub fn get(&self, index: usize) -> &Span {
        &self.spans[index]
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its children cover (the union of their intervals,
    /// so children running in parallel are not counted twice).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: std::collections::BTreeMap<usize, Vec<(u64, u64)>> =
            std::collections::BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start, s.end));
            }
        }
        let mut out: Vec<u64> = self.spans.iter().map(Span::dur).collect();
        for (p, kids) in children {
            let s = &self.spans[p];
            out[p] = s.dur().saturating_sub(covered(s.start, s.end, kids));
        }
        out
    }

    /// Share of span `root`'s wall time that its descendants cover:
    /// 1 − self(root) / dur(root).
    pub fn coverage(&self, root: usize) -> f64 {
        let dur = self.spans[root].dur();
        if dur == 0 {
            return 0.0;
        }
        let self_ns = self.self_times()[root];
        1.0 - self_ns as f64 / dur as f64
    }

    /// Writes every span as one tab-separated line:
    /// `index name start_ns end_ns parent thread`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\tthread")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start, s.end, s.thread
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

fn ns_since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One value call: start/end (ns since the trace origin) and a hash of
/// the member set.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub start: u64,
    pub end: u64,
    pub key: u64,
}

/// Every value call one thread made, plus the member sets sampled for
/// the attribution probe.
#[derive(Debug, Default)]
pub struct ThreadCalls {
    pub thread: u32,
    pub calls: Vec<Call>,
    pub samples: Vec<Vec<PlayerId>>,
}

impl ThreadCalls {
    pub fn busy_ns(&self) -> u64 {
        self.calls.iter().map(|c| c.end - c.start).sum()
    }
}

static NEXT_RECORDER: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's log for the recorder with the given id.
    static LOCAL: RefCell<Option<(u64, Arc<Mutex<ThreadCalls>>)>> = const { RefCell::new(None) };
}

/// Collects value calls from every thread the program runs them on.
/// Each thread appends to its own log (one uncontended lock per call);
/// the registry lock is taken once per thread.
pub struct Recorder {
    id: u64,
    origin: Instant,
    main: std::thread::ThreadId,
    logs: Mutex<Vec<Arc<Mutex<ThreadCalls>>>>,
    /// A member set is kept for the probe when `key % sample_mod == 0`
    /// after mixing with the workload seed.
    sample_mod: u64,
    sample_salt: u64,
    sample_cap: usize,
}

impl Recorder {
    pub fn new(origin: Instant, seed: u64, sample_mod: u64, sample_cap: usize) -> Recorder {
        Recorder {
            id: NEXT_RECORDER.fetch_add(1, Ordering::Relaxed),
            origin,
            main: std::thread::current().id(),
            logs: Mutex::new(Vec::new()),
            sample_mod: sample_mod.max(1),
            sample_salt: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            sample_cap,
        }
    }

    fn log(&self) -> Arc<Mutex<ThreadCalls>> {
        LOCAL.with(|slot| {
            let mut slot = slot.borrow_mut();
            if let Some((id, log)) = slot.as_ref() {
                if *id == self.id {
                    return Arc::clone(log);
                }
            }
            let mut logs = self.logs.lock().expect("recorder registry poisoned");
            let thread = if std::thread::current().id() == self.main {
                0
            } else {
                u32::try_from(logs.len() + 1).unwrap_or(u32::MAX)
            };
            let log = Arc::new(Mutex::new(ThreadCalls {
                thread,
                ..ThreadCalls::default()
            }));
            logs.push(Arc::clone(&log));
            *slot = Some((self.id, Arc::clone(&log)));
            log
        })
    }

    fn record(&self, start: u64, end: u64, members: &[PlayerId]) {
        let key = members.iter().fold(crate::stats::FNV_OFFSET, |h, &m| {
            crate::stats::fnv1a(h, &(m as u64).to_le_bytes())
        });
        let log = self.log();
        let mut log = log.lock().expect("thread log poisoned");
        log.calls.push(Call { start, end, key });
        if (key ^ self.sample_salt).is_multiple_of(self.sample_mod)
            && log.samples.len() < self.sample_cap
        {
            log.samples.push(members.to_vec());
        }
    }

    /// Takes every thread's log, leaving the recorder empty.
    pub fn drain(&self) -> Vec<ThreadCalls> {
        let logs = std::mem::take(&mut *self.logs.lock().expect("recorder registry poisoned"));
        LOCAL.with(|slot| *slot.borrow_mut() = None);
        logs.into_iter()
            .map(|l| std::mem::take(&mut *l.lock().expect("thread log poisoned")))
            .collect()
    }
}

/// A [`WideGame`] that times every value call and delegates to the
/// real game — what the benchmark hands the program in a traced job.
pub struct TimedGame<'r, G: WideGame> {
    pub inner: G,
    pub rec: &'r Recorder,
}

impl<G: WideGame> WideGame for TimedGame<'_, G> {
    fn n_players(&self) -> usize {
        self.inner.n_players()
    }

    fn value_members(&self, members: &[PlayerId]) -> f64 {
        let start = ns_since(self.rec.origin);
        let v = self.inner.value_members(members);
        let end = ns_since(self.rec.origin);
        self.rec.record(start, end, members);
        v
    }
}

/// Summary of the value calls of one job.
pub struct CallSummary {
    pub calls: u64,
    pub distinct: u64,
    pub busy_ns: u64,
    /// Per-thread busy time, min ÷ max, over threads other than the job
    /// thread (1 when only one worker ran).
    pub worker_balance: f64,
}

pub fn summarize(calls: &[ThreadCalls]) -> CallSummary {
    let mut keys: Vec<u64> = calls
        .iter()
        .flat_map(|t| t.calls.iter().map(|c| c.key))
        .collect();
    let n = keys.len() as u64;
    keys.sort_unstable();
    keys.dedup();
    let workers: Vec<u64> = calls
        .iter()
        .filter(|t| t.thread != 0 && !t.calls.is_empty())
        .map(ThreadCalls::busy_ns)
        .collect();
    let worker_balance = match (workers.iter().min(), workers.iter().max()) {
        (Some(&lo), Some(&hi)) if hi > 0 => lo as f64 / hi as f64,
        _ => 0.0,
    };
    CallSummary {
        calls: n,
        distinct: keys.len() as u64,
        busy_ns: calls.iter().map(ThreadCalls::busy_ns).sum(),
        worker_balance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_counts_overlap_once() {
        assert_eq!(covered(0, 100, vec![(10, 30), (20, 40), (50, 60)]), 40);
        assert_eq!(covered(0, 100, vec![(90, 150)]), 10);
        assert_eq!(covered(0, 100, vec![]), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Trace::new();
        t.spans = vec![
            Span {
                name: "job",
                start: 0,
                end: 100,
                parent: None,
                thread: 0,
            },
            Span {
                name: "a",
                start: 10,
                end: 60,
                parent: Some(0),
                thread: 0,
            },
            Span {
                name: "b",
                start: 20,
                end: 50,
                parent: Some(1),
                thread: 1,
            },
            Span {
                name: "c",
                start: 30,
                end: 55,
                parent: Some(1),
                thread: 2,
            },
        ];
        assert_eq!(t.self_times(), vec![50, 15, 30, 25]);
        assert!((t.coverage(0) - 0.5).abs() < 1e-12);
    }
}
