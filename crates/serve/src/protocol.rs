//! Wire protocol: newline-framed JSON-subset requests and responses.
//!
//! One request per line, one response per line, both at most
//! [`MAX_FRAME`] bytes. The payload grammar is a strict subset of JSON —
//! a single flat object whose values are unsigned integers, floats,
//! strings, or arrays of unsigned integers:
//!
//! ```text
//! {"id":7,"kind":"shapley"}
//! {"id":8,"kind":"coalition-value","coalition":[0,2]}
//! {"id":9,"kind":"what-if-join","locations":200,"capacity":1}
//! {"id":10,"kind":"what-if-leave","player":1}
//! {"kind":"health"}
//! ```
//!
//! Responses echo the request `id` (when one was sent) and carry either
//! an `"ok":true` payload or an `"ok":false` machine-readable error
//! code:
//!
//! ```text
//! {"id":7,"ok":true,"kind":"shapley","n":3,"grand_value":1300,"shares":[...]}
//! {"id":11,"ok":false,"error":"BUSY","detail":"queue full (depth 128)"}
//! ```
//!
//! The parser is hand-rolled (no serde on the request path), total, and
//! panic-free: arbitrary byte garbage, truncated frames, and oversized
//! frames always yield a typed [`ProtocolError`] — never an unwind.
//! Every error carries a stable uppercase `code()` that the server
//! echoes on the wire, so clients can switch on it without string
//! matching free-form detail text.

use fedval_testbed::{MAX_FACILITY_CAPACITY, MAX_FACILITY_LOCATIONS};
use std::fmt;

/// Hard upper bound on a single request or response frame, bytes
/// (newline excluded). Frames that exceed this are rejected with
/// [`ProtocolError::FrameTooLarge`] and the connection is closed —
/// there is no reliable way to resynchronize mid-frame.
pub const MAX_FRAME: usize = 16 * 1024;

/// A typed protocol-level failure. Conversion to the wire code is
/// total: see [`ProtocolError::code`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The frame exceeded [`MAX_FRAME`] bytes before a newline arrived.
    FrameTooLarge {
        /// Bytes seen before giving up.
        len: usize,
    },
    /// The frame is not valid UTF-8.
    InvalidUtf8,
    /// The frame is not a well-formed request object.
    Malformed {
        /// Human-readable description of the first syntax problem.
        detail: String,
    },
    /// A required field is absent.
    MissingField {
        /// Field name.
        field: &'static str,
    },
    /// A field is present but has the wrong type or an invalid value.
    BadField {
        /// Field name.
        field: &'static str,
        /// What was wrong with it.
        detail: String,
    },
    /// The `kind` field names no known query.
    UnknownKind {
        /// The offending kind string.
        kind: String,
    },
}

impl ProtocolError {
    /// Stable machine-readable error code, echoed on the wire.
    pub fn code(&self) -> &'static str {
        match self {
            ProtocolError::FrameTooLarge { .. } => "FRAME_TOO_LARGE",
            ProtocolError::InvalidUtf8 => "INVALID_UTF8",
            ProtocolError::Malformed { .. } => "MALFORMED",
            ProtocolError::MissingField { .. } => "MISSING_FIELD",
            ProtocolError::BadField { .. } => "BAD_FIELD",
            ProtocolError::UnknownKind { .. } => "UNKNOWN_KIND",
        }
    }

    /// Whether the connection can keep framing after this error.
    /// Oversized frames poison the stream (the remainder of the frame
    /// is unread garbage), so they force a close; everything else is
    /// frame-delimited and recoverable.
    pub fn is_fatal(&self) -> bool {
        matches!(self, ProtocolError::FrameTooLarge { .. })
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::FrameTooLarge { len } => {
                write!(f, "frame exceeds {MAX_FRAME} bytes (got at least {len})")
            }
            ProtocolError::InvalidUtf8 => write!(f, "frame is not valid UTF-8"),
            ProtocolError::Malformed { detail } => write!(f, "malformed request: {detail}"),
            ProtocolError::MissingField { field } => write!(f, "missing field '{field}'"),
            ProtocolError::BadField { field, detail } => {
                write!(f, "bad field '{field}': {detail}")
            }
            ProtocolError::UnknownKind { kind } => write!(f, "unknown query kind '{kind}'"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// The query kinds the server answers.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryKind {
    /// `V(S)` for an explicit coalition (player ids).
    CoalitionValue {
        /// Member player ids, as sent (deduplicated, order-preserving
        /// semantics are the bitset's — duplicates are idempotent).
        coalition: Vec<usize>,
    },
    /// Normalized Shapley shares ϕ̂ of the base scenario.
    Shapley,
    /// Normalized nucleolus shares of the base scenario.
    Nucleolus,
    /// Re-solve with one facility added (the paper's "what does my
    /// share become if authority X joins?" policy query).
    WhatIfJoin {
        /// Location count of the joining facility.
        locations: u32,
        /// Per-location capacity of the joining facility.
        capacity: u64,
    },
    /// Re-solve with one member removed.
    WhatIfLeave {
        /// Player id of the departing facility.
        player: usize,
    },
    /// Liveness probe; answered inline, never queued.
    Health,
    /// Server statistics; answered inline, never queued.
    Stats,
    /// Live telemetry: Prometheus-style text exposition of the merged
    /// metric registry plus the per-second time-series ring buffer.
    /// Answered inline, never queued — observability must survive a
    /// saturated compute queue.
    Metrics,
    /// Initiate graceful drain: stop accepting, answer everything
    /// already queued, then exit.
    Shutdown,
    /// Deliberately panic inside a worker thread. Only honoured when the
    /// server was started with [`chaos_panic`] enabled (the `fedchaos`
    /// harness); otherwise answered `BAD_REQUEST` inline. Exists so the
    /// worker-supervision path (catch_unwind → typed `INTERNAL` response
    /// → deterministic respawn) is exercisable from outside the process.
    ///
    /// [`chaos_panic`]: crate::server::ServerConfig::chaos_panic
    ChaosPanic,
}

impl QueryKind {
    /// The wire name of this kind.
    pub fn name(&self) -> &'static str {
        match self {
            QueryKind::CoalitionValue { .. } => "coalition-value",
            QueryKind::Shapley => "shapley",
            QueryKind::Nucleolus => "nucleolus",
            QueryKind::WhatIfJoin { .. } => "what-if-join",
            QueryKind::WhatIfLeave { .. } => "what-if-leave",
            QueryKind::Health => "health",
            QueryKind::Stats => "stats",
            QueryKind::Metrics => "metrics",
            QueryKind::Shutdown => "shutdown",
            QueryKind::ChaosPanic => "chaos-panic",
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: Option<u64>,
    /// What to compute.
    pub kind: QueryKind,
}

/// A JSON-subset value: the only shapes requests may carry.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    UInt(u64),
    Float(f64),
    Str(String),
    Arr(Vec<u64>),
}

/// Parses one frame (without its trailing newline) into a [`Request`].
///
/// # Errors
/// Every way a frame can be wrong maps to one [`ProtocolError`]
/// variant; see the enum. This function never panics on any input.
pub fn parse_request(frame: &[u8]) -> Result<Request, ProtocolError> {
    if frame.len() > MAX_FRAME {
        return Err(ProtocolError::FrameTooLarge { len: frame.len() });
    }
    let text = std::str::from_utf8(frame).map_err(|_| ProtocolError::InvalidUtf8)?;
    let fields = parse_object(text)?;

    let mut id = None;
    if let Some(v) = lookup(&fields, "id") {
        match v {
            Value::UInt(n) => id = Some(*n),
            other => {
                return Err(ProtocolError::BadField {
                    field: "id",
                    detail: format!("expected an unsigned integer, got {}", type_name(other)),
                })
            }
        }
    }

    let kind_name = match lookup(&fields, "kind") {
        Some(Value::Str(s)) => s.as_str(),
        Some(other) => {
            return Err(ProtocolError::BadField {
                field: "kind",
                detail: format!("expected a string, got {}", type_name(other)),
            })
        }
        None => return Err(ProtocolError::MissingField { field: "kind" }),
    };

    let kind = match kind_name {
        "coalition-value" => QueryKind::CoalitionValue {
            coalition: take_player_array(&fields, "coalition")?,
        },
        "shapley" => QueryKind::Shapley,
        "nucleolus" => QueryKind::Nucleolus,
        "what-if-join" => {
            let locations = take_uint(&fields, "locations")?;
            if locations == 0 {
                return Err(ProtocolError::BadField {
                    field: "locations",
                    detail: "a joining facility needs at least one location".to_string(),
                });
            }
            let locations = u32::try_from(locations)
                .ok()
                .filter(|&l| l <= MAX_FACILITY_LOCATIONS)
                .ok_or_else(|| ProtocolError::BadField {
                    field: "locations",
                    detail: format!("{locations} exceeds the limit of {MAX_FACILITY_LOCATIONS}"),
                })?;
            let capacity = match lookup(&fields, "capacity") {
                None => 1,
                Some(_) => take_uint(&fields, "capacity")?,
            };
            if capacity == 0 || capacity > MAX_FACILITY_CAPACITY {
                return Err(ProtocolError::BadField {
                    field: "capacity",
                    detail: format!(
                        "capacity must be in 1..={MAX_FACILITY_CAPACITY}, got {capacity}"
                    ),
                });
            }
            QueryKind::WhatIfJoin {
                locations,
                capacity,
            }
        }
        "what-if-leave" => {
            let player = take_uint(&fields, "player")?;
            let player = usize::try_from(player).map_err(|_| ProtocolError::BadField {
                field: "player",
                detail: format!("{player} exceeds usize"),
            })?;
            QueryKind::WhatIfLeave { player }
        }
        "health" => QueryKind::Health,
        "stats" => QueryKind::Stats,
        "metrics" => QueryKind::Metrics,
        "shutdown" => QueryKind::Shutdown,
        "chaos-panic" => QueryKind::ChaosPanic,
        other => {
            return Err(ProtocolError::UnknownKind {
                kind: other.to_string(),
            })
        }
    };
    Ok(Request { id, kind })
}

fn lookup<'a>(fields: &'a [(String, Value)], name: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

fn type_name(v: &Value) -> &'static str {
    match v {
        Value::UInt(_) => "integer",
        Value::Float(_) => "float",
        Value::Str(_) => "string",
        Value::Arr(_) => "array",
    }
}

fn take_uint(fields: &[(String, Value)], field: &'static str) -> Result<u64, ProtocolError> {
    match lookup(fields, field) {
        Some(Value::UInt(n)) => Ok(*n),
        Some(other) => Err(ProtocolError::BadField {
            field,
            detail: format!("expected an unsigned integer, got {}", type_name(other)),
        }),
        None => Err(ProtocolError::MissingField { field }),
    }
}

fn take_player_array(
    fields: &[(String, Value)],
    field: &'static str,
) -> Result<Vec<usize>, ProtocolError> {
    match lookup(fields, field) {
        Some(Value::Arr(ids)) => ids
            .iter()
            .map(|&n| {
                usize::try_from(n).map_err(|_| ProtocolError::BadField {
                    field,
                    detail: format!("player id {n} exceeds usize"),
                })
            })
            .collect(),
        Some(other) => Err(ProtocolError::BadField {
            field,
            detail: format!("expected an array of player ids, got {}", type_name(other)),
        }),
        None => Err(ProtocolError::MissingField { field }),
    }
}

/// Recursive-descent parser for the single flat object a frame holds.
fn parse_object(text: &str) -> Result<Vec<(String, Value)>, ProtocolError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect_byte(b'{')?;
    let mut fields = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.parse_string()?;
            p.skip_ws();
            p.expect_byte(b':')?;
            p.skip_ws();
            let value = p.parse_value()?;
            fields.push((key, value));
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                Some(c) => return Err(p.unexpected(c, "',' or '}'")),
                None => return Err(p.truncated("',' or '}'")),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(ProtocolError::Malformed {
            detail: format!("trailing bytes after object at offset {}", p.pos),
        });
    }
    Ok(fields)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r')) {
            self.pos += 1;
        }
    }

    fn unexpected(&self, got: u8, wanted: &str) -> ProtocolError {
        ProtocolError::Malformed {
            detail: format!(
                "expected {wanted} at offset {}, got {:?}",
                self.pos.saturating_sub(1),
                char::from(got)
            ),
        }
    }

    fn truncated(&self, wanted: &str) -> ProtocolError {
        ProtocolError::Malformed {
            detail: format!("truncated frame: expected {wanted} at offset {}", self.pos),
        }
    }

    fn expect_byte(&mut self, want: u8) -> Result<(), ProtocolError> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            Some(b) => Err(self.unexpected(b, &format!("'{}'", char::from(want)))),
            None => Err(self.truncated(&format!("'{}'", char::from(want)))),
        }
    }

    /// A double-quoted string. Escapes supported: `\"`, `\\`, `\n`,
    /// `\t`, `\r` — enough for field names and kind values; anything
    /// fancier is Malformed by design (requests never need it).
    fn parse_string(&mut self) -> Result<String, ProtocolError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(c) => return Err(self.unexpected(c, "a supported escape")),
                    None => return Err(self.truncated("an escape character")),
                },
                Some(c) if c < 0x20 => {
                    return Err(ProtocolError::Malformed {
                        detail: format!("raw control byte 0x{c:02x} inside string"),
                    })
                }
                Some(c) => {
                    // Multi-byte UTF-8 sequences pass through byte-wise:
                    // the frame was validated as UTF-8 up front, so
                    // accumulating raw bytes of a char is safe only via
                    // the original str. Track them through char
                    // boundaries instead.
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.bytes.len() && self.bytes[end] & 0xc0 == 0x80 {
                        end += 1;
                    }
                    match std::str::from_utf8(&self.bytes[start..end]) {
                        Ok(s) => {
                            out.push_str(s);
                            self.pos = end;
                        }
                        Err(_) => return Err(ProtocolError::InvalidUtf8),
                    }
                    let _ = c;
                }
                None => return Err(self.truncated("a closing quote")),
            }
        }
    }

    fn parse_value(&mut self) -> Result<Value, ProtocolError> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => self.parse_uint_array(),
            Some(b'0'..=b'9') => self.parse_number(),
            Some(b'-') => Err(ProtocolError::Malformed {
                detail: "negative numbers are not valid in requests".to_string(),
            }),
            Some(b'{') => Err(ProtocolError::Malformed {
                detail: "nested objects are not valid in requests".to_string(),
            }),
            Some(c) => Err(ProtocolError::Malformed {
                detail: format!("expected a value at offset {}, got {:?}", self.pos, char::from(c)),
            }),
            None => Err(self.truncated("a value")),
        }
    }

    fn parse_uint_array(&mut self) -> Result<Value, ProtocolError> {
        self.expect_byte(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(out));
        }
        loop {
            self.skip_ws();
            match self.parse_number()? {
                Value::UInt(n) => out.push(n),
                _ => {
                    return Err(ProtocolError::Malformed {
                        detail: "arrays may only hold unsigned integers".to_string(),
                    })
                }
            }
            // Defensive cap: no federation exceeds the sampled-path
            // player bound, so any longer array is garbage regardless
            // of frame size.
            if out.len() > fedval_coalition::MAX_SAMPLED_PLAYERS {
                return Err(ProtocolError::Malformed {
                    detail: format!(
                        "array longer than {} entries",
                        fedval_coalition::MAX_SAMPLED_PLAYERS
                    ),
                });
            }
            self.skip_ws();
            match self.next() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Arr(out)),
                Some(c) => return Err(self.unexpected(c, "',' or ']'")),
                None => return Err(self.truncated("',' or ']'")),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, ProtocolError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return match self.peek() {
                Some(c) => Err(self.unexpected(c, "a digit")),
                None => Err(self.truncated("a digit")),
            };
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(ProtocolError::Malformed {
                    detail: "digits required after decimal point".to_string(),
                });
            }
        }
        // Safe: the scanned range is ASCII digits and '.' only.
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| ProtocolError::InvalidUtf8)?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|e| ProtocolError::Malformed {
                    detail: format!("bad float literal '{text}': {e}"),
                })
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|e| ProtocolError::Malformed {
                    detail: format!("integer literal '{text}' out of range: {e}"),
                })
        }
    }
}

/// A query failed *after* parsing (bad player id, solver failure,
/// server saturation, …). Distinct from [`ProtocolError`]: the frame
/// itself was fine, so the connection always survives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryError {
    /// Stable uppercase wire code (`BUSY`, `DEADLINE`, `BAD_REQUEST`,
    /// `SOLVE_FAILED`, `SHUTTING_DOWN`, `INTERNAL`, `SLOW_CLIENT`).
    pub code: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

impl QueryError {
    /// Convenience constructor.
    pub fn new(code: &'static str, detail: impl Into<String>) -> QueryError {
        QueryError {
            code,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.detail)
    }
}

impl std::error::Error for QueryError {}

/// Renders a success response line (no trailing newline). `payload` is
/// the pre-rendered kind-specific body, e.g.
/// `"kind":"shapley","n":3,...` — identical queries reuse the identical
/// payload string, which is what makes responses byte-identical.
pub fn render_ok(id: Option<u64>, payload: &str) -> String {
    match id {
        Some(id) => format!("{{\"id\":{id},\"ok\":true,{payload}}}"),
        None => format!("{{\"ok\":true,{payload}}}"),
    }
}

/// Renders an error response line (no trailing newline).
pub fn render_err(id: Option<u64>, code: &str, detail: &str) -> String {
    let detail = fedval_obs::escape_json(detail);
    match id {
        Some(id) => format!("{{\"id\":{id},\"ok\":false,\"error\":\"{code}\",\"detail\":\"{detail}\"}}"),
        None => format!("{{\"ok\":false,\"error\":\"{code}\",\"detail\":\"{detail}\"}}"),
    }
}

/// Renders a `[x1,x2,…]` JSON array of floats via the deterministic
/// [`fedval_obs::json_f64`] shortest-representation formatter.
pub fn render_f64_array(values: &[f64]) -> String {
    let parts: Vec<String> = values.iter().map(|&v| fedval_obs::json_f64(v)).collect();
    format!("[{}]", parts.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_and_full_requests() {
        let r = parse_request(b"{\"kind\":\"health\"}").unwrap();
        assert_eq!(r, Request { id: None, kind: QueryKind::Health });

        let r = parse_request(b"{\"id\":7,\"kind\":\"shapley\"}").unwrap();
        assert_eq!(r.id, Some(7));
        assert_eq!(r.kind, QueryKind::Shapley);

        let r = parse_request(b"{\"id\":8,\"kind\":\"coalition-value\",\"coalition\":[0,2]}")
            .unwrap();
        assert_eq!(
            r.kind,
            QueryKind::CoalitionValue {
                coalition: vec![0, 2]
            }
        );

        let r = parse_request(b"{\"kind\":\"what-if-join\",\"locations\":200,\"capacity\":3}")
            .unwrap();
        assert_eq!(
            r.kind,
            QueryKind::WhatIfJoin {
                locations: 200,
                capacity: 3
            }
        );

        let r = parse_request(b"{\"kind\":\"what-if-leave\",\"player\":1}").unwrap();
        assert_eq!(r.kind, QueryKind::WhatIfLeave { player: 1 });

        let r = parse_request(b"{\"id\":3,\"kind\":\"chaos-panic\"}").unwrap();
        assert_eq!(r.kind, QueryKind::ChaosPanic);
    }

    #[test]
    fn capacity_defaults_to_one() {
        let r = parse_request(b"{\"kind\":\"what-if-join\",\"locations\":50}").unwrap();
        assert_eq!(
            r.kind,
            QueryKind::WhatIfJoin {
                locations: 50,
                capacity: 1
            }
        );
    }

    #[test]
    fn whitespace_is_tolerated() {
        let r = parse_request(b"{ \"id\" : 3 , \"kind\" : \"stats\" }\r").unwrap();
        assert_eq!(r.id, Some(3));
        assert_eq!(r.kind, QueryKind::Stats);
    }

    #[test]
    fn missing_and_unknown_kinds_are_typed() {
        assert_eq!(
            parse_request(b"{\"id\":1}"),
            Err(ProtocolError::MissingField { field: "kind" })
        );
        assert!(matches!(
            parse_request(b"{\"kind\":\"frobnicate\"}"),
            Err(ProtocolError::UnknownKind { .. })
        ));
    }

    #[test]
    fn bad_field_types_are_typed() {
        assert!(matches!(
            parse_request(b"{\"id\":\"seven\",\"kind\":\"shapley\"}"),
            Err(ProtocolError::BadField { field: "id", .. })
        ));
        assert!(matches!(
            parse_request(b"{\"kind\":\"coalition-value\",\"coalition\":3}"),
            Err(ProtocolError::BadField { field: "coalition", .. })
        ));
        assert!(matches!(
            parse_request(b"{\"kind\":\"coalition-value\"}"),
            Err(ProtocolError::MissingField { field: "coalition" })
        ));
        assert!(matches!(
            parse_request(b"{\"kind\":\"what-if-join\",\"locations\":0}"),
            Err(ProtocolError::BadField { field: "locations", .. })
        ));
        assert!(matches!(
            parse_request(b"{\"kind\":\"what-if-join\",\"locations\":1,\"capacity\":0}"),
            Err(ProtocolError::BadField { field: "capacity", .. })
        ));
        for locations in ["65537", "2000000", "4294967296", "18446744073709551615"] {
            let frame = format!("{{\"kind\":\"what-if-join\",\"locations\":{locations}}}");
            assert!(
                matches!(
                    parse_request(frame.as_bytes()),
                    Err(ProtocolError::BadField { field: "locations", .. })
                ),
                "{frame}"
            );
        }
        for capacity in ["4294967296", "18446744073709551615"] {
            let frame =
                format!("{{\"kind\":\"what-if-join\",\"locations\":1,\"capacity\":{capacity}}}");
            assert!(
                matches!(
                    parse_request(frame.as_bytes()),
                    Err(ProtocolError::BadField { field: "capacity", .. })
                ),
                "{frame}"
            );
        }
        assert_eq!(
            parse_request(
                b"{\"kind\":\"what-if-join\",\"locations\":65536,\"capacity\":4294967295}"
            )
            .map(|r| r.kind),
            Ok(QueryKind::WhatIfJoin {
                locations: MAX_FACILITY_LOCATIONS,
                capacity: MAX_FACILITY_CAPACITY,
            })
        );
    }

    #[test]
    fn garbage_yields_malformed_not_panic() {
        for frame in [
            &b""[..],
            b"{",
            b"}",
            b"{}",
            b"[]",
            b"{\"kind\"",
            b"{\"kind\":}",
            b"{\"kind\":\"shapley\"",
            b"{\"kind\":\"shapley\"}extra",
            b"{\"kind\":\"shapley\",}",
            b"{kind:\"shapley\"}",
            b"{\"a\":-1,\"kind\":\"shapley\"}",
            b"{\"a\":{},\"kind\":\"shapley\"}",
            b"{\"a\":1.,\"kind\":\"shapley\"}",
            b"{\"a\":99999999999999999999999999,\"kind\":\"shapley\"}",
            b"\x00\x01\x02",
        ] {
            let out = parse_request(frame);
            assert!(out.is_err(), "frame {frame:?} must be rejected, got {out:?}");
        }
        // `{}` specifically is a MissingField, not Malformed.
        assert_eq!(
            parse_request(b"{}"),
            Err(ProtocolError::MissingField { field: "kind" })
        );
    }

    #[test]
    fn invalid_utf8_is_typed() {
        assert_eq!(parse_request(b"{\"kind\":\"\xff\"}"), Err(ProtocolError::InvalidUtf8));
    }

    #[test]
    fn oversized_frames_are_fatal_others_are_not() {
        let big = vec![b'x'; MAX_FRAME + 1];
        let err = parse_request(&big).unwrap_err();
        assert_eq!(err.code(), "FRAME_TOO_LARGE");
        assert!(err.is_fatal());
        assert!(!ProtocolError::InvalidUtf8.is_fatal());
    }

    #[test]
    fn long_arrays_are_capped() {
        let over = fedval_coalition::MAX_SAMPLED_PLAYERS + 16;
        let ids: Vec<String> = (0..over).map(|i| i.to_string()).collect();
        let frame = format!("{{\"kind\":\"coalition-value\",\"coalition\":[{}]}}", ids.join(","));
        assert!(matches!(
            parse_request(frame.as_bytes()),
            Err(ProtocolError::Malformed { .. })
        ));
        // Arrays sized for wide (sampled-path) federations parse fine.
        let ids: Vec<String> = (0..80).map(|i| i.to_string()).collect();
        let frame = format!("{{\"kind\":\"coalition-value\",\"coalition\":[{}]}}", ids.join(","));
        assert!(parse_request(frame.as_bytes()).is_ok());
    }

    #[test]
    fn unicode_strings_survive() {
        let r = parse_request("{\"kind\":\"health\",\"note\":\"ϕ̂ unicode\"}".as_bytes());
        assert!(r.is_ok(), "unknown extra fields are ignored: {r:?}");
    }

    #[test]
    fn response_rendering_is_stable() {
        assert_eq!(render_ok(Some(3), "\"kind\":\"health\",\"status\":\"ok\""),
            "{\"id\":3,\"ok\":true,\"kind\":\"health\",\"status\":\"ok\"}");
        assert_eq!(render_ok(None, "\"a\":1"), "{\"ok\":true,\"a\":1}");
        assert_eq!(
            render_err(Some(4), "BUSY", "queue full"),
            "{\"id\":4,\"ok\":false,\"error\":\"BUSY\",\"detail\":\"queue full\"}"
        );
        assert_eq!(
            render_err(None, "MALFORMED", "ctrl \n char"),
            "{\"ok\":false,\"error\":\"MALFORMED\",\"detail\":\"ctrl \\n char\"}"
        );
        assert_eq!(render_f64_array(&[0.5, 1.0 / 3.0]), "[0.5,0.3333333333333333]");
    }

    #[test]
    fn error_codes_are_stable() {
        assert_eq!(
            ProtocolError::Malformed { detail: String::new() }.code(),
            "MALFORMED"
        );
        assert_eq!(ProtocolError::MissingField { field: "x" }.code(), "MISSING_FIELD");
        assert_eq!(
            ProtocolError::UnknownKind { kind: "x".into() }.code(),
            "UNKNOWN_KIND"
        );
    }
}
