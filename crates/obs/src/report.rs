//! The three renderings of a [`MetricsFold`]: the human run report
//! `fedval --metrics` prints ([`MetricsFold::render`], timing included),
//! the timing-free JSON dump of `fedload`/`fedchaos --metrics`
//! ([`MetricsFold::to_json`]), and the Prometheus exposition
//! `fedval-serve` answers a `metrics` query with
//! ([`MetricsFold::to_prometheus`]).

use crate::histogram::BUCKET_BOUNDS_NS;
use crate::record::{escape_json, json_f64};
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

    /// Folds `other` into this aggregate: counts and totals add, the
    /// maximum widens.
    pub(crate) fn merge(&mut self, other: &SpanStat) {
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// Writes one run-report section: its `-- title --` header, then one
/// `name  rest` line per entry with names padded to the longest. Empty
/// maps write nothing.
fn section<V>(
    out: &mut String,
    title: &str,
    map: &BTreeMap<String, V>,
    rest: impl Fn(&V) -> String,
) {
    if map.is_empty() {
        return;
    }
    let _ = writeln!(out, "-- {title} --");
    let width = map.keys().map(String::len).max().unwrap_or(0);
    for (name, value) in map {
        let _ = writeln!(out, "{name:width$}  {}", rest(value));
    }
}

/// Writes `{"name":value,...}` with names JSON-escaped.
fn json_object<V>(out: &mut String, map: &BTreeMap<String, V>, value: impl Fn(&V) -> String) {
    out.push('{');
    for (i, (name, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", escape_json(name), value(v));
    }
    out.push('}');
}

impl MetricsFold {
    /// Renders the fold as the aligned, human-readable run report:
    /// per-span wall time, counters, gauges, latency histograms and event
    /// counts, each section alphabetical and omitted when empty.
    pub fn render(&self) -> String {
        let mut out = String::from("== run report ==\n");
        section(&mut out, "spans (wall time)", &self.spans, |stat| {
            format!(
                "count={:<6} total={:<12} mean={:<10} max={}",
                stat.count,
                fmt_ns(stat.total_ns),
                fmt_ns(stat.mean_ns()),
                fmt_ns(stat.max_ns),
            )
        });
        section(&mut out, "counters", &self.counters, u64::to_string);
        section(&mut out, "gauges", &self.gauges, f64::to_string);
        section(&mut out, "latency histograms", &self.histograms, |h| {
            format!(
                "count={:<6} mean={:<10} p50={:<10} p95={:<10} p99={:<10} max={:<10} {}",
                h.count,
                fmt_ns(h.mean_ns()),
                fmt_ns(h.p50_ns()),
                fmt_ns(h.p95_ns()),
                fmt_ns(h.p99_ns()),
                fmt_ns(h.max_ns),
                h.render_buckets(),
            )
        });
        section(&mut out, "events", &self.events, u64::to_string);
        out
    }

    /// Renders the timing-free part of the fold as one JSON object —
    /// counter totals, gauge values, span counts, observation counts and
    /// event counts (durations and latencies excluded) — the
    /// `--metrics <path>` dump format of `fedload` and `fedchaos`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":");
        json_object(&mut out, &self.counters, u64::to_string);
        out.push_str(",\"gauges\":");
        json_object(&mut out, &self.gauges, |v| json_f64(*v));
        out.push_str(",\"spans\":");
        json_object(&mut out, &self.spans, |s| s.count.to_string());
        out.push_str(",\"observations\":");
        json_object(&mut out, &self.histograms, |h| h.count.to_string());
        out.push_str(",\"events\":");
        json_object(&mut out, &self.events, u64::to_string);
        out.push('}');
        out
    }

    /// Renders the fold as Prometheus-style text exposition.
    ///
    /// Metric names are sanitized (`.` and any other non-alphanumeric
    /// byte become `_`). Counters and gauges render directly; spans
    /// render as a `<name>_count` / `<name>_time_ns_total` counter pair;
    /// histograms render as cumulative `<name>_bucket{le="…"}` series
    /// with `_sum` and `_count`, closing with `le="+Inf"`. Ordering is
    /// alphabetical per section, so the exposition is deterministic for
    /// a given fold. Event counts are not exposed.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let name = sanitize_metric_name(name);
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {value}");
        }
        for (name, value) in &self.gauges {
            if !value.is_finite() {
                continue;
            }
            let name = sanitize_metric_name(name);
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {}", json_f64(*value));
        }
        for (name, stat) in &self.spans {
            let name = sanitize_metric_name(name);
            let _ = writeln!(
                out,
                "# TYPE {name}_spans counter\n{name}_spans_count {}\n{name}_spans_time_ns_total {}",
                stat.count, stat.total_ns
            );
        }
        for (name, h) in &self.histograms {
            let name = sanitize_metric_name(name);
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for (i, &n) in h.buckets.iter().enumerate() {
                cumulative += n;
                match BUCKET_BOUNDS_NS.get(i) {
                    Some(bound) => {
                        let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
                    }
                    None => {
                        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                    }
                }
            }
            let _ = writeln!(out, "{name}_sum {}\n{name}_count {}", h.sum_ns, h.count);
        }
        out
    }
}

/// Maps a `crate.subsystem.name` metric name onto the Prometheus
/// `[a-zA-Z_][a-zA-Z0-9_]*` grammar.
fn sanitize_metric_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if out
        .chars()
        .next()
        .map(|c| c.is_ascii_digit())
        .unwrap_or(true)
    {
        out.insert(0, '_');
    }
    out
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
    use crate::histogram::Histogram;

    /// A fold with every map populated.
    fn fold() -> MetricsFold {
        let mut fold = MetricsFold::default();
        fold.counters.insert("serve.req.ok".into(), 42);
        fold.gauges.insert("serve.queue.depth".into(), 3.0);
        fold.gauges.insert("serve.bad".into(), f64::NAN);
        fold.spans.insert(
            "serve.request".into(),
            SpanStat {
                count: 2,
                total_ns: 10,
                max_ns: 7,
            },
        );
        let mut h = Histogram::new();
        h.observe(500);
        h.observe(5_000);
        fold.histograms.insert("serve.request_ns".into(), h);
        fold.events.insert("serve.trace.exemplar".into(), 3);
        fold
    }

    #[test]
    fn span_stats_merge() {
        let mut stat = SpanStat::default();
        for dur_ns in [40, 60] {
            stat.merge(&SpanStat {
                count: 1,
                total_ns: dur_ns,
                max_ns: dur_ns,
            });
        }
        assert_eq!(stat.count, 2);
        assert_eq!(stat.total_ns, 100);
        assert_eq!(stat.max_ns, 60);
        assert_eq!(stat.mean_ns(), 50);
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
        let text = fold().render();
        assert!(text.starts_with("== run report ==\n"));
        assert!(text.contains("-- spans (wall time) --"));
        assert!(text.contains("-- counters --\nserve.req.ok  42\n"));
        assert!(text.contains("-- gauges --"));
        assert!(text.contains("-- latency histograms --"));
        assert!(text.contains("-- events --\nserve.trace.exemplar  3\n"));
        assert_eq!(MetricsFold::default().render(), "== run report ==\n");
    }

    #[test]
    fn json_dump_is_ordered_and_timing_free() {
        assert_eq!(
            fold().to_json(),
            "{\"counters\":{\"serve.req.ok\":42},\
             \"gauges\":{\"serve.bad\":null,\"serve.queue.depth\":3},\
             \"spans\":{\"serve.request\":2},\
             \"observations\":{\"serve.request_ns\":2},\
             \"events\":{\"serve.trace.exemplar\":3}}"
        );
        assert_eq!(
            MetricsFold::default().to_json(),
            "{\"counters\":{},\"gauges\":{},\"spans\":{},\"observations\":{},\"events\":{}}"
        );
    }

    #[test]
    fn sanitize_follows_prometheus_grammar() {
        assert_eq!(sanitize_metric_name("serve.req.ok"), "serve_req_ok");
        assert_eq!(sanitize_metric_name("a-b c"), "a_b_c");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name(""), "_");
    }

    #[test]
    fn fold_exposition_is_well_formed() {
        let text = fold().to_prometheus();
        assert!(text.contains("# TYPE serve_req_ok counter\nserve_req_ok 42\n"));
        assert!(text.contains("# TYPE serve_queue_depth gauge\nserve_queue_depth 3\n"));
        assert!(!text.contains("serve_bad"), "non-finite gauges are skipped");
        assert!(text.contains("serve_request_spans_count 2"));
        assert!(text.contains("serve_request_spans_time_ns_total 10"));
        assert!(text.contains("serve_request_ns_bucket{le=\"1000\"} 1"));
        assert!(text.contains("serve_request_ns_bucket{le=\"10000\"} 2"));
        assert!(text.contains("serve_request_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("serve_request_ns_sum 5500"));
        assert!(text.contains("serve_request_ns_count 2"));
        assert!(!text.contains("exemplar"), "event counts are not exposed");
    }
}
