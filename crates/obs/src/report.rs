//! Run reports: the human-facing aggregation of one traced run.
//!
//! Where [`MetricsSnapshot`](crate::MetricsSnapshot) deliberately drops
//! timing for determinism, [`RunReport`] keeps it: per-span wall time,
//! latency histograms, and derived rates (events per second). This is
//! what `fedval --metrics` prints after a run.

use crate::histogram::Histogram;
use crate::record::Record;
use crate::shard::MetricsFold;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregate statistics for one span name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanStat {
    /// Number of completed spans.
    pub count: u64,
    /// Summed wall time, ns.
    pub total_ns: u64,
    /// Longest single span, ns.
    pub max_ns: u64,
}

impl SpanStat {
    /// Mean span duration in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// Aggregation of a full record stream, timing included.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Span name → timing stats.
    pub spans: BTreeMap<String, SpanStat>,
    /// Counter name → summed deltas.
    pub counters: BTreeMap<String, u64>,
    /// Gauge name → last value.
    pub gauges: BTreeMap<String, f64>,
    /// Observation name → latency histogram.
    pub histograms: BTreeMap<String, Histogram>,
    /// Event name → occurrence count.
    pub event_counts: BTreeMap<String, u64>,
}

impl RunReport {
    /// Builds a report from a captured record stream.
    pub fn from_records(records: &[Record]) -> RunReport {
        let mut report = RunReport::default();
        for r in records {
            match r {
                Record::SpanStart { .. } => {}
                Record::SpanEnd { name, dur_ns, .. } => {
                    let stat = report.spans.entry(name.clone()).or_default();
                    stat.count += 1;
                    stat.total_ns = stat.total_ns.saturating_add(*dur_ns);
                    if *dur_ns > stat.max_ns {
                        stat.max_ns = *dur_ns;
                    }
                }
                Record::Counter { name, delta } => {
                    *report.counters.entry(name.clone()).or_insert(0) += delta;
                }
                Record::Gauge { name, value } => {
                    report.gauges.insert(name.clone(), *value);
                }
                Record::Observe { name, value_ns } => {
                    report
                        .histograms
                        .entry(name.clone())
                        .or_default()
                        .observe(*value_ns);
                }
                Record::Event { name, .. } => {
                    *report.event_counts.entry(name.clone()).or_insert(0) += 1;
                }
            }
        }
        report
    }

    /// Builds a report from a metric fold plus the run's record stream:
    /// spans, counters, gauges, and histograms come from the sharded
    /// fold (timing included, exact regardless of span-record sampling);
    /// event counts come from the records. `Counter`/`Gauge`/`Observe`
    /// records — including the totals [`crate::shutdown`] dumps — are
    /// ignored to avoid double counting, and `SpanEnd` records are
    /// ignored because the fold's aggregates already cover every span.
    pub fn from_parts(fold: &MetricsFold, records: &[Record]) -> RunReport {
        let mut report = RunReport {
            spans: fold.spans.clone(),
            counters: fold.counters.clone(),
            gauges: fold.gauges.clone(),
            histograms: fold.histograms.clone(),
            event_counts: BTreeMap::new(),
        };
        for r in records {
            if let Record::Event { name, .. } = r {
                *report.event_counts.entry(name.clone()).or_insert(0) += 1;
            }
        }
        report
    }

    /// Counter value, defaulting to 0.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Total wall time of the named span across all occurrences, ns.
    pub fn span_total_ns(&self, name: &str) -> u64 {
        self.spans.get(name).map(|s| s.total_ns).unwrap_or(0)
    }

    /// Rate of `counter_name` per second of `span_name` wall time, e.g.
    /// desim events/sec over the simulation span. `None` when the span
    /// never completed or took no measurable time.
    pub fn rate_per_sec(&self, counter_name: &str, span_name: &str) -> Option<f64> {
        let total_ns = self.span_total_ns(span_name);
        if total_ns == 0 {
            return None;
        }
        Some(self.counter(counter_name) as f64 * 1e9 / total_ns as f64)
    }

    /// Renders the report as aligned human-readable text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== run report ==\n");
        if !self.spans.is_empty() {
            out.push_str("-- spans (wall time) --\n");
            let width = self.spans.keys().map(|k| k.len()).max().unwrap_or(0);
            for (name, stat) in &self.spans {
                let _ = writeln!(
                    out,
                    "{name:width$}  count={:<6} total={:<12} mean={:<10} max={}",
                    stat.count,
                    fmt_ns(stat.total_ns),
                    fmt_ns(stat.mean_ns()),
                    fmt_ns(stat.max_ns),
                );
            }
        }
        if !self.counters.is_empty() {
            out.push_str("-- counters --\n");
            let width = self.counters.keys().map(|k| k.len()).max().unwrap_or(0);
            for (name, value) in &self.counters {
                let _ = writeln!(out, "{name:width$}  {value}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("-- gauges --\n");
            let width = self.gauges.keys().map(|k| k.len()).max().unwrap_or(0);
            for (name, value) in &self.gauges {
                let _ = writeln!(out, "{name:width$}  {value}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("-- latency histograms --\n");
            let width = self.histograms.keys().map(|k| k.len()).max().unwrap_or(0);
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "{name:width$}  count={:<6} mean={:<10} p50={:<10} p95={:<10} p99={:<10} max={:<10} {}",
                    h.count,
                    fmt_ns(h.mean_ns()),
                    fmt_ns(h.p50_ns()),
                    fmt_ns(h.p95_ns()),
                    fmt_ns(h.p99_ns()),
                    fmt_ns(h.max_ns),
                    h.render_buckets(),
                );
            }
        }
        if !self.event_counts.is_empty() {
            out.push_str("-- events --\n");
            let width = self.event_counts.keys().map(|k| k.len()).max().unwrap_or(0);
            for (name, count) in &self.event_counts {
                let _ = writeln!(out, "{name:width$}  {count}");
            }
        }
        out
    }
}

/// Formats nanoseconds with an adaptive unit: `812ns`, `4.23us`,
/// `1.87ms`, `2.05s`.
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records() -> Vec<Record> {
        vec![
            Record::SpanEnd {
                id: 1,
                name: "p.phase.a".into(),
                t_ns: 100,
                dur_ns: 40,
            },
            Record::SpanEnd {
                id: 2,
                name: "p.phase.a".into(),
                t_ns: 200,
                dur_ns: 60,
            },
            Record::Counter {
                name: "form.value.hit".into(),
                delta: 30,
            },
            Record::Counter {
                name: "desim.engine.delivered".into(),
                delta: 1_000,
            },
            Record::SpanEnd {
                id: 3,
                name: "testbed.simulate.run".into(),
                t_ns: 500,
                dur_ns: 2_000_000_000,
            },
            Record::Observe {
                name: "simplex.solver.solve_ns".into(),
                value_ns: 5_000,
            },
            Record::Event {
                name: "testbed.faults.apply".into(),
                fields: vec![],
            },
        ]
    }

    #[test]
    fn span_stats_accumulate() {
        let report = RunReport::from_records(&records());
        let stat = &report.spans["p.phase.a"];
        assert_eq!(stat.count, 2);
        assert_eq!(stat.total_ns, 100);
        assert_eq!(stat.max_ns, 60);
        assert_eq!(stat.mean_ns(), 50);
    }

    #[test]
    fn derived_metrics() {
        let report = RunReport::from_records(&records());
        assert_eq!(report.counter("form.value.hit"), 30);
        assert_eq!(report.counter("no.such"), 0);
        let rate = report
            .rate_per_sec("desim.engine.delivered", "testbed.simulate.run")
            .unwrap();
        assert!((rate - 500.0).abs() < 1e-9, "rate = {rate}");
        assert_eq!(report.rate_per_sec("x", "missing.span"), None);
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(812), "812ns");
        assert_eq!(fmt_ns(4_230), "4.23us");
        assert_eq!(fmt_ns(1_870_000), "1.87ms");
        assert_eq!(fmt_ns(2_050_000_000), "2.05s");
    }

    #[test]
    fn render_contains_all_sections() {
        let text = RunReport::from_records(&records()).render();
        assert!(text.contains("-- spans (wall time) --"));
        assert!(text.contains("-- counters --"));
        assert!(text.contains("-- latency histograms --"));
        assert!(text.contains("-- events --"));
    }
}
