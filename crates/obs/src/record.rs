//! The observability record vocabulary and its JSONL rendering.
//!
//! Spans and events reach the installed [`crate::Sink`] as records when
//! they happen; counters and gauges become records only in
//! [`crate::shutdown`]'s dump of their merged totals, and latency
//! observations never do (they live in the metric shards). Records are
//! plain data: rendering (JSONL for traces) is the sink's business, which
//! is what keeps the hot path cheap.

use std::fmt::Write as _;

/// One observability record.
///
/// Metric names follow the `crate.subsystem.name` convention (see
/// DESIGN.md §8), e.g. `simplex.solver.pivots` or `serve.whatif.hits`.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A span opened. `t_ns` is nanoseconds since the process-wide
    /// monotonic origin (first observability action).
    SpanStart {
        /// Process-unique span id (monotonically increasing).
        id: u64,
        /// Enclosing span on the same thread, if any.
        parent: Option<u64>,
        /// Span name (`crate.subsystem.name`).
        name: String,
        /// Optional free-form detail (e.g. a coalition mask).
        detail: Option<String>,
        /// Start time, ns since the monotonic origin.
        t_ns: u64,
    },
    /// The matching span closed.
    SpanEnd {
        /// Id from the corresponding [`Record::SpanStart`].
        id: u64,
        /// Span name, repeated so single-line consumers need no join.
        name: String,
        /// End time, ns since the monotonic origin.
        t_ns: u64,
        /// Wall-clock duration of the span in nanoseconds.
        dur_ns: u64,
    },
    /// A monotonic counter's total, as [`crate::shutdown`] dumps it.
    Counter {
        /// Counter name.
        name: String,
        /// Amount added (counters only ever go up).
        delta: u64,
    },
    /// A gauge's last value, as [`crate::shutdown`] dumps it.
    Gauge {
        /// Gauge name.
        name: String,
        /// The recorded value.
        value: f64,
    },
    /// A discrete structured event (fault injected, fallback taken, …).
    Event {
        /// Event name.
        name: String,
        /// Key → value pairs, in emission order.
        fields: Vec<(String, String)>,
    },
}

impl Record {
    /// The record's metric/span/event name.
    pub fn name(&self) -> &str {
        match self {
            Record::SpanStart { name, .. }
            | Record::SpanEnd { name, .. }
            | Record::Counter { name, .. }
            | Record::Gauge { name, .. }
            | Record::Event { name, .. } => name,
        }
    }

    /// Renders the record as one JSON line (no trailing newline).
    ///
    /// The output is self-describing via a `"type"` tag and is valid JSON
    /// for any input: strings are escaped per RFC 8259 and non-finite
    /// gauge values render as `null`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(96);
        match self {
            Record::SpanStart {
                id,
                parent,
                name,
                detail,
                t_ns,
            } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"span_start\",\"id\":{id},\"name\":\"{}\"",
                    escape_json(name)
                );
                if let Some(p) = parent {
                    let _ = write!(out, ",\"parent\":{p}");
                }
                if let Some(d) = detail {
                    let _ = write!(out, ",\"detail\":\"{}\"", escape_json(d));
                }
                let _ = write!(out, ",\"t_ns\":{t_ns}}}");
            }
            Record::SpanEnd {
                id,
                name,
                t_ns,
                dur_ns,
            } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"span_end\",\"id\":{id},\"name\":\"{}\",\"t_ns\":{t_ns},\"dur_ns\":{dur_ns}}}",
                    escape_json(name)
                );
            }
            Record::Counter { name, delta } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"counter\",\"name\":\"{}\",\"delta\":{delta}}}",
                    escape_json(name)
                );
            }
            Record::Gauge { name, value } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{}}}",
                    escape_json(name),
                    json_f64(*value)
                );
            }
            Record::Event { name, fields } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"event\",\"name\":\"{}\",\"fields\":{{",
                    escape_json(name)
                );
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\":\"{}\"", escape_json(k), escape_json(v));
                }
                out.push_str("}}");
            }
        }
        out
    }
}

/// Escapes a string for inclusion inside a JSON string literal.
///
/// Handles the two mandatory escapes (`"` and `\`), the common control
/// shorthands (`\n`, `\r`, `\t`), and renders any other control character
/// as `\u00XX` per RFC 8259.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON value: non-finite values become `null`
/// (JSON has no NaN/Infinity), finite values use Rust's shortest
/// round-trip decimal rendering.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_quotes_backslashes_and_controls() {
        assert_eq!(escape_json("plain"), "plain");
        assert_eq!(escape_json("a\"b"), "a\\\"b");
        assert_eq!(escape_json("a\\b"), "a\\\\b");
        assert_eq!(escape_json("a\nb\tc\r"), "a\\nb\\tc\\r");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
        assert_eq!(escape_json("ϕ̂ unicode stays"), "ϕ̂ unicode stays");
    }

    #[test]
    fn jsonl_renders_every_variant() {
        let start = Record::SpanStart {
            id: 3,
            parent: Some(1),
            name: "a.b.c".into(),
            detail: Some("mask=5".into()),
            t_ns: 10,
        };
        assert_eq!(
            start.to_jsonl(),
            "{\"type\":\"span_start\",\"id\":3,\"name\":\"a.b.c\",\"parent\":1,\"detail\":\"mask=5\",\"t_ns\":10}"
        );
        let end = Record::SpanEnd {
            id: 3,
            name: "a.b.c".into(),
            t_ns: 25,
            dur_ns: 15,
        };
        assert_eq!(
            end.to_jsonl(),
            "{\"type\":\"span_end\",\"id\":3,\"name\":\"a.b.c\",\"t_ns\":25,\"dur_ns\":15}"
        );
        let c = Record::Counter {
            name: "x.y.n".into(),
            delta: 7,
        };
        assert_eq!(
            c.to_jsonl(),
            "{\"type\":\"counter\",\"name\":\"x.y.n\",\"delta\":7}"
        );
        let g = Record::Gauge {
            name: "g".into(),
            value: 1.5,
        };
        assert_eq!(
            g.to_jsonl(),
            "{\"type\":\"gauge\",\"name\":\"g\",\"value\":1.5}"
        );
        let e = Record::Event {
            name: "ev".into(),
            fields: vec![("k".into(), "v\"q".into()), ("n".into(), "2".into())],
        };
        assert_eq!(
            e.to_jsonl(),
            "{\"type\":\"event\",\"name\":\"ev\",\"fields\":{\"k\":\"v\\\"q\",\"n\":\"2\"}}"
        );
    }

    #[test]
    fn non_finite_gauges_render_as_null() {
        let g = Record::Gauge {
            name: "g".into(),
            value: f64::NAN,
        };
        assert!(g.to_jsonl().ends_with("\"value\":null}"));
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(2.0), "2");
    }

    #[test]
    fn span_start_without_parent_or_detail_omits_keys() {
        let start = Record::SpanStart {
            id: 1,
            parent: None,
            name: "root".into(),
            detail: None,
            t_ns: 0,
        };
        let line = start.to_jsonl();
        assert!(!line.contains("parent"));
        assert!(!line.contains("detail"));
    }
}
