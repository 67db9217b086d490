//! Hand-rolled JSON: the general [`Json`] value the recorded benchmark
//! baselines use, and the trace JSONL export with its strict schema
//! parser.
//!
//! Each trace event serialises to one JSON object per line (JSONL):
//!
//! ```json
//! {"seq":0,"t":1200,"sub":"save","ev":"step","a":3,"b":0,"d":"FlushCaches"}
//! ```
//!
//! The trace parser is deliberately strict — it accepts exactly this
//! shape (all seven keys, in this order) and nothing else, which doubles
//! as the schema validator `scripts/verify.sh` runs. [`Json::parse`]
//! accepts any document in the subset the baselines need: objects,
//! arrays, strings, finite numbers, bools and null. Both emitters share
//! one string escaper and both parsers one string-literal reader. The
//! crate has no external dependencies, so both directions are written
//! by hand.
//!
//! # Examples
//!
//! ```
//! use wsp_obs::json::Json;
//!
//! let doc = Json::object([
//!     ("ops_per_sec", Json::from(12500.0)),
//!     ("config", Json::from("fof")),
//! ]);
//! let text = doc.to_string_pretty();
//! let back = Json::parse(&text).unwrap();
//! assert_eq!(back.get("ops_per_sec").and_then(Json::as_f64), Some(12500.0));
//! ```

use std::fmt::Write as _;

use wsp_units::Nanos;

use crate::event::Event;
use crate::trace::Trace;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (JSON has no NaN/Inf).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on emit.
    Obj(Vec<(String, Json)>),
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Num(v as f64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_owned())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Self {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from values.
    pub fn array(items: impl IntoIterator<Item = Json>) -> Self {
        Json::Arr(items.into_iter().collect())
    }

    /// Looks a key up in an object node.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number value, if this node is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this node is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The object entries, if this node is an object.
    #[must_use]
    pub fn entries(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Serialises with two-space indentation and a trailing newline.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite number, which JSON cannot represent.
    #[must_use]
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.emit(&mut out, 0);
        out.push('\n');
        out
    }

    fn emit(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => emit_number(out, *v),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    indent(out, depth + 1);
                    item.emit(out, depth + 1);
                }
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) if pairs.is_empty() => out.push_str("{}"),
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    indent(out, depth + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.emit(out, depth + 1);
                }
                indent(out, depth);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax error,
    /// including a number too large to be finite.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut c = Cursor { s: text, pos: 0 };
        let value = c.value()?;
        c.skip_ws();
        if c.pos != text.len() {
            return Err(format!("trailing garbage at byte {}", c.pos));
        }
        Ok(value)
    }
}

fn indent(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn emit_number(out: &mut String, v: f64) {
    assert!(v.is_finite(), "JSON numbers must be finite, got {v}");
    if v == v.trunc() && v.abs() < 9e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Writes `s` as a quoted, escaped JSON string literal.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// An event deserialised from JSONL. Field meanings match [`Event`];
/// string fields are owned because parsed text cannot be `'static`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedEvent {
    /// Trace sequence number.
    pub seq: u64,
    /// Simulation timestamp.
    pub t: Nanos,
    /// Emitting subsystem.
    pub sub: String,
    /// Event name.
    pub ev: String,
    /// First payload slot.
    pub a: i64,
    /// Second payload slot.
    pub b: i64,
    /// Detail string (may be empty).
    pub d: String,
}

impl ParsedEvent {
    /// Structural equality against a live event (ignores `seq` and `t`).
    #[must_use]
    pub fn same_shape(&self, e: &Event) -> bool {
        self.sub == e.subsystem
            && self.ev == e.name
            && self.a == e.a
            && self.b == e.b
            && self.d == e.detail
    }

    /// Full-content equality against a live event (ignores `seq` only;
    /// timestamps must match bitwise).
    #[must_use]
    pub fn same_content(&self, e: &Event) -> bool {
        self.t == e.t && self.same_shape(e)
    }

    /// Renders the parsed event like [`Event`]'s `Display`.
    #[must_use]
    pub fn display(&self) -> String {
        let mut s = format!(
            "#{} t={} {}.{} a={} b={}",
            self.seq, self.t, self.sub, self.ev, self.a, self.b
        );
        if !self.d.is_empty() {
            let _ = write!(s, " ({})", self.d);
        }
        s
    }
}

/// Serialises one event to its JSON line (no trailing newline).
#[must_use]
pub fn event_to_json(e: &Event) -> String {
    let mut out = String::with_capacity(64 + e.detail.len());
    let _ = write!(out, "{{\"seq\":{},\"t\":{},\"sub\":", e.seq, e.t.as_nanos());
    write_string(&mut out, e.subsystem);
    out.push_str(",\"ev\":");
    write_string(&mut out, e.name);
    let _ = write!(out, ",\"a\":{},\"b\":{},\"d\":", e.a, e.b);
    write_string(&mut out, &e.detail);
    out.push('}');
    out
}

/// Serialises a whole trace to JSONL (one event per line, trailing
/// newline after each).
#[must_use]
pub fn trace_to_jsonl(trace: &Trace) -> String {
    let mut out = String::new();
    for e in trace.events() {
        out.push_str(&event_to_json(e));
        out.push('\n');
    }
    out
}

/// A read position in JSON text. It only ever advances past whole
/// characters, so `pos` is always a character boundary of `s`.
struct Cursor<'a> {
    s: &'a str,
    pos: usize,
}

impl Cursor<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, lit: &str) -> Result<(), String> {
        let rest = &self.s[self.pos..];
        if rest.starts_with(lit) {
            self.pos += lit.len();
            Ok(())
        } else {
            let found: String = rest.chars().take(12).collect();
            Err(format!(
                "expected `{lit}` at byte {} (found `{found}`)",
                self.pos
            ))
        }
    }

    fn integer(&mut self) -> Result<i64, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.s[start..self.pos]
            .parse::<i64>()
            .map_err(|e| format!("bad integer at byte {start}: {e}"))
    }

    fn unsigned(&mut self) -> Result<u64, String> {
        let v = self.integer()?;
        u64::try_from(v).map_err(|_| format!("expected unsigned value, got {v}"))
    }

    fn number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = &self.s[start..self.pos];
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(v),
            Ok(_) => Err(format!("number `{text}` at byte {start} is not finite")),
            Err(_) => Err(format!("bad number `{text}` at byte {start}")),
        }
    }

    /// Reads one string literal in a single pass over its characters.
    fn string(&mut self) -> Result<String, String> {
        self.expect("\"")?;
        let mut out = String::new();
        let mut chars = self.s[self.pos..].char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    self.pos += i + 1;
                    return Ok(out);
                }
                '\\' => match chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, '/')) => out.push('/'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'b')) => out.push('\u{8}'),
                    Some((_, 'f')) => out.push('\u{c}'),
                    Some((j, 'u')) => {
                        let hex_start = self.pos + j + 1;
                        let hex = self
                            .s
                            .get(hex_start..hex_start + 4)
                            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                            .ok_or_else(|| format!("bad \\u escape at byte {hex_start}"))?;
                        let code = u32::from_str_radix(hex, 16).expect("four hex digits");
                        out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                        // Skip the 4 hex digits.
                        for _ in 0..4 {
                            chars.next();
                        }
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                c => out.push(c),
            }
        }
        Err("unterminated string".into())
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".to_owned()),
            Some(b'n') => self.expect("null").map(|()| Json::Null),
            Some(b't') => self.expect("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.expect("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.items(b']', Self::value).map(Json::Arr),
            Some(b'{') => self
                .items(b'}', |c| {
                    c.skip_ws();
                    let key = c.string()?;
                    c.skip_ws();
                    c.expect(":")?;
                    Ok((key, c.value()?))
                })
                .map(Json::Obj),
            Some(_) => self.number().map(Json::Num),
        }
    }

    /// Reads the comma-separated items of an array or object, from its
    /// opening bracket through `close`.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(items);
                }
                _ => {
                    return Err(format!(
                        "expected `,` or `{}` at byte {}",
                        char::from(close),
                        self.pos
                    ))
                }
            }
        }
    }
}

/// Parses and validates one JSONL trace line against the event schema.
///
/// Strict by design: the seven keys must all be present, in canonical
/// order, with the right types. Any deviation is an error naming the
/// offending position.
pub fn parse_event(line: &str) -> Result<ParsedEvent, String> {
    let mut c = Cursor {
        s: line.trim_end(),
        pos: 0,
    };
    c.expect("{\"seq\":")?;
    let seq = c.unsigned()?;
    c.expect(",\"t\":")?;
    let t = Nanos::new(c.unsigned()?);
    c.expect(",\"sub\":")?;
    let sub = c.string()?;
    c.expect(",\"ev\":")?;
    let ev = c.string()?;
    c.expect(",\"a\":")?;
    let a = c.integer()?;
    c.expect(",\"b\":")?;
    let b = c.integer()?;
    c.expect(",\"d\":")?;
    let d = c.string()?;
    c.expect("}")?;
    if c.pos != c.s.len() {
        return Err(format!("trailing data at byte {}", c.pos));
    }
    if sub.is_empty() || ev.is_empty() {
        return Err("`sub` and `ev` must be non-empty".into());
    }
    Ok(ParsedEvent {
        seq,
        t,
        sub,
        ev,
        a,
        b,
        d,
    })
}

/// Parses a whole JSONL document, reporting the first bad line by
/// number (1-based).
pub fn parse_jsonl(text: &str) -> Result<Vec<ParsedEvent>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(parse_event(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::capture;
    use crate::{emit, emit_detail};

    #[test]
    fn roundtrip_preserves_every_field() {
        let ((), cap) = capture(|| {
            emit("save", "step", Nanos::new(1200), 3, 0);
            emit_detail(
                "ladder",
                "refusal",
                Nanos::new(99),
                -1,
                7,
                "torn \"image\"\n\\end".into(),
            );
        });
        let jsonl = trace_to_jsonl(&cap.trace);
        let parsed = parse_jsonl(&jsonl).unwrap();
        assert_eq!(parsed.len(), 2);
        for (p, e) in parsed.iter().zip(cap.trace.events()) {
            assert_eq!(p.seq, e.seq);
            assert!(p.same_content(e), "{} vs {}", p.display(), e);
        }
        assert_eq!(parsed[1].d, "torn \"image\"\n\\end");
    }

    #[test]
    fn parser_rejects_missing_and_reordered_keys() {
        assert!(parse_event("{\"seq\":0,\"t\":1,\"sub\":\"s\",\"ev\":\"e\",\"a\":0,\"b\":0}").is_err());
        assert!(parse_event("{\"t\":1,\"seq\":0,\"sub\":\"s\",\"ev\":\"e\",\"a\":0,\"b\":0,\"d\":\"\"}").is_err());
        assert!(parse_event("not json").is_err());
        let err = parse_jsonl("{\"seq\":0,\"t\":1,\"sub\":\"\",\"ev\":\"e\",\"a\":0,\"b\":0,\"d\":\"\"}\n")
            .unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        // A multi-byte character within the error snippet's reach.
        let err = parse_event("{\"xéééééé\":0}").unwrap_err();
        assert!(err.contains("expected `{\"seq\":`"), "{err}");
        let err = parse_jsonl("{\"xéééééé\":0}\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn parser_rejects_trailing_data_and_bad_types() {
        assert!(parse_event(
            "{\"seq\":0,\"t\":1,\"sub\":\"s\",\"ev\":\"e\",\"a\":0,\"b\":0,\"d\":\"\"}junk"
        )
        .is_err());
        assert!(parse_event(
            "{\"seq\":-4,\"t\":1,\"sub\":\"s\",\"ev\":\"e\",\"a\":0,\"b\":0,\"d\":\"\"}"
        )
        .is_err());
        assert!(parse_event(
            "{\"seq\":0,\"t\":1,\"sub\":\"s\",\"ev\":\"e\",\"a\":x,\"b\":0,\"d\":\"\"}"
        )
        .is_err());
    }

    #[test]
    fn unicode_escape_roundtrips() {
        let line = "{\"seq\":0,\"t\":1,\"sub\":\"s\",\"ev\":\"e\",\"a\":0,\"b\":0,\"d\":\"a\\u0001b\"}";
        let p = parse_event(line).unwrap();
        assert_eq!(p.d, "a\u{1}b");
    }

    #[test]
    fn event_lines_are_json_documents() {
        let ((), cap) = capture(|| {
            emit_detail("ladder", "refusal", Nanos::new(9), -1, 2, "a\"b\té".into());
        });
        let line = event_to_json(&cap.trace.events()[0]);
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("d").and_then(Json::as_str), Some("a\"b\té"));
        assert_eq!(doc.get("a").and_then(Json::as_f64), Some(-1.0));
        assert_eq!(parse_event(&line).unwrap().d, "a\"b\té");
    }

    #[test]
    fn round_trips_nested_documents() {
        let doc = Json::object([
            ("name", Json::from("hashtable")),
            ("ok", Json::from(true)),
            ("none", Json::Null),
            ("rates", Json::array([Json::from(1.5), Json::from(2e6)])),
            ("nested", Json::object([("ops", Json::from(123456u64))])),
        ]);
        let text = doc.to_string_pretty();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn integers_emit_without_fraction() {
        assert_eq!(Json::from(42u64).to_string_pretty().trim(), "42");
        assert_eq!(Json::from(2.5).to_string_pretty().trim(), "2.5");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = Json::from("a\"b\\c\nd\te");
        let text = s.to_string_pretty();
        assert_eq!(Json::parse(&text).unwrap(), s);
        assert_eq!(Json::parse("\"\\u0041\\u00e9\"").unwrap(), Json::from("Aé"));
        assert!(Json::parse("\"\\u+041\"").is_err());
        assert!(Json::parse("\"\\ud800\"").is_err());
    }

    #[test]
    fn long_strings_round_trip() {
        let chunk = "wsp é \"q\" \\ \n\t";
        let long: String = chunk.repeat((1 << 20) / chunk.len() + 1);
        assert!(long.len() >= 1 << 20);
        let doc = Json::array([Json::from(long.as_str())]);
        assert_eq!(Json::parse(&doc.to_string_pretty()).unwrap(), doc);
    }

    #[test]
    fn accessors_navigate_objects() {
        let doc = Json::parse(r#"{"a": {"b": [1, 2, 3]}, "s": "x"}"#).unwrap();
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("x"));
        let arr = doc.get("a").and_then(|a| a.get("b")).unwrap();
        assert_eq!(arr, &Json::array([1u64.into(), 2u64.into(), 3u64.into()]));
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("{\"é\" 1}").is_err());
    }

    #[test]
    fn rejects_non_finite_numbers() {
        assert!(Json::parse("[1e999]").is_err());
        assert!(Json::parse("-1e999").is_err());
        assert_eq!(
            Json::parse("[1e300]").unwrap(),
            Json::array([Json::from(1e300)])
        );
    }

    #[test]
    fn preserves_key_order_on_emit() {
        let doc = Json::object([("z", Json::from(1u64)), ("a", Json::from(2u64))]);
        let text = doc.to_string_pretty();
        assert!(text.find("\"z\"").unwrap() < text.find("\"a\"").unwrap());
    }
}
