//! Sink implementations: where records go once emitted.
//!
//! The registry holds at most one installed [`Sink`]; instrumentation
//! sites never talk to sinks directly. Three implementations cover the
//! three operating modes of the workspace:
//!
//! * [`NullSink`] — discards everything; the default. The registry's
//!   enabled flag stays `false` with no sink installed, so the hot path
//!   is a single relaxed atomic load and the null sink itself is only
//!   reachable through explicit installation (useful for overhead tests).
//! * [`RecordingSink`] — appends records to an in-memory vector; the
//!   record substrate of the workspace's tests.
//! * [`FileSink`] — renders each record as one JSONL line into a
//!   buffered file; the `fedval --trace <path>` backend.
//!
//! Reports never read a sink: they render the metric fold
//! ([`crate::metrics_fold`]), which counts every span and event whatever
//! sink is installed.

use crate::record::Record;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

/// Destination for observability records.
///
/// Implementations must be cheap and must never panic: sinks are invoked
/// from `Drop` impls (span guards) where a panic would abort the process
/// during unwinding. They must also be internally synchronized
/// (`Send + Sync`) — records arrive from worker threads (e.g. the
/// sampled Shapley estimator's block workers).
pub trait Sink: Send + Sync {
    /// Delivers one record. Implementations must not panic.
    fn record(&self, r: &Record);

    /// Flushes any buffered output. Default: no-op.
    fn flush(&self) {}
}

/// Discards every record.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl Sink for NullSink {
    fn record(&self, _r: &Record) {}
}

/// Recovers a mutex guard even if a previous holder panicked.
///
/// Observability state is append-only, so a poisoned lock's contents are
/// still coherent; refusing to proceed would turn an unrelated panic into
/// a lost trace (and panicking here, inside `Drop`, would abort).
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Appends records to an in-memory vector for later inspection.
///
/// Clone-shares the underlying buffer: keep one handle, install a clone.
#[derive(Debug, Default, Clone)]
pub struct RecordingSink {
    records: Arc<Mutex<Vec<Record>>>,
}

impl RecordingSink {
    /// Creates an empty recording sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a copy of every record captured so far, in emission order.
    pub fn records(&self) -> Vec<Record> {
        lock_unpoisoned(&self.records).clone()
    }

    /// Number of records captured so far.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.records).len()
    }

    /// True when no records have been captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all captured records.
    pub fn clear(&self) {
        lock_unpoisoned(&self.records).clear();
    }
}

impl Sink for RecordingSink {
    fn record(&self, r: &Record) {
        lock_unpoisoned(&self.records).push(r.clone());
    }
}

/// Writes each record as one JSON line to a buffered file.
///
/// Write errors after creation are silently dropped: tracing must never
/// take down the computation it observes. The buffer is flushed on
/// [`Sink::flush`] and on drop.
pub struct FileSink {
    writer: Mutex<BufWriter<File>>,
}

impl FileSink {
    /// Opens (creating or truncating) `path` as a JSONL trace file.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`std::io::Error`] if the file cannot be
    /// created, e.g. the parent directory does not exist or is not
    /// writable.
    pub fn create<P: AsRef<Path>>(path: P) -> std::io::Result<FileSink> {
        let file = File::create(path)?;
        Ok(FileSink {
            writer: Mutex::new(BufWriter::new(file)),
        })
    }
}

impl Sink for FileSink {
    fn record(&self, r: &Record) {
        let mut w = lock_unpoisoned(&self.writer);
        let line = r.to_jsonl();
        // lint: allow(guard-across-blocking) — this lock exists to serialize writer I/O; writes go to a BufWriter, not a socket
        let _ = w.write_all(line.as_bytes());
        let _ = w.write_all(b"\n");
    }

    fn flush(&self) {
        // lint: allow(guard-across-blocking) — this lock exists to serialize writer I/O; flush drains the BufWriter it guards
        let _ = lock_unpoisoned(&self.writer).flush();
    }
}

impl Drop for FileSink {
    fn drop(&mut self) {
        Sink::flush(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_sink_captures_in_order_and_clears() {
        let sink = RecordingSink::new();
        assert!(sink.is_empty());
        sink.record(&Record::Counter {
            name: "a".into(),
            delta: 1,
        });
        sink.record(&Record::Counter {
            name: "b".into(),
            delta: 2,
        });
        let recs = sink.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].name(), "a");
        assert_eq!(recs[1].name(), "b");
        sink.clear();
        assert!(sink.is_empty());
    }

    #[test]
    fn recording_sink_clones_share_the_buffer() {
        let sink = RecordingSink::new();
        let handle = sink.clone();
        sink.record(&Record::Counter {
            name: "x".into(),
            delta: 1,
        });
        assert_eq!(handle.len(), 1);
    }

    #[test]
    fn file_sink_writes_one_json_line_per_record() {
        let path = std::env::temp_dir().join("fedval_obs_sink_test.jsonl");
        {
            let sink = FileSink::create(&path).unwrap();
            sink.record(&Record::Counter {
                name: "n".into(),
                delta: 3,
            });
            sink.record(&Record::Event {
                name: "e".into(),
                fields: vec![("k".into(), "v".into())],
            });
            sink.flush();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with('{') && lines[0].ends_with('}'));
        assert!(lines[1].contains("\"type\":\"event\""));
        let _ = std::fs::remove_file(&path);
    }
}
