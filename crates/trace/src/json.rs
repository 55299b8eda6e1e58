//! A dependency-free JSON value: builder, pretty writer, and parser.
//!
//! Run reports must round-trip (emit, re-parse, compare) without external
//! crates, so this module implements the small subset of JSON the reports
//! need: objects preserve insertion order, numbers are `f64` (written as
//! integers when they are exact integers), and parsing is strict recursive
//! descent with byte offsets in error messages.

use std::fmt::Write as _;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers written without a fractional part).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on write.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, for chained [`Json::set`] building.
    pub fn object() -> Json {
        Json::Obj(Vec::new())
    }

    /// Inserts/updates a key (builder style).
    ///
    /// # Panics
    /// Panics when `self` is not an object.
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(pairs) => {
                let value = value.into();
                if let Some(slot) = pairs.iter_mut().find(|(k, _)| k == key) {
                    slot.1 = value;
                } else {
                    pairs.push((key.to_string(), value));
                }
                self
            }
            _ => panic!("Json::set on a non-object"),
        }
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The number as `u64`, if it is a non-negative exact integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => Some(*x as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes with 2-space indentation and a trailing newline.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_number(out, *x),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (rejects trailing garbage).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}
impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Num(x as f64)
    }
}
impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x as f64)
    }
}
impl From<u32> for Json {
    fn from(x: u32) -> Json {
        Json::Num(x as f64)
    }
}
impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, x: f64) {
    if !x.is_finite() {
        // JSON has no Inf/NaN; clamp to null (never produced by reports).
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() < 2f64.powi(53) {
        let _ = write!(out, "{}", x as i64);
    } else {
        let _ = write!(out, "{x}");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", b as char, *pos))
    }
}

/// The deepest container nesting parsed: the parser recurses once per
/// level, so unbounded nesting could overflow the stack.
const MAX_DEPTH: usize = 256;

/// Parses the value at `pos`, `depth` containers below the document root.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if depth == MAX_DEPTH && matches!(bytes.get(*pos), Some(b'{' | b'[')) {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number '{text}' at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        // Surrogate pairs are not needed by report content;
                        // map unpaired surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume the whole run up to the next quote or escape in
                // one slice. The delimiters are ASCII, so they can never
                // split a multi-byte UTF-8 scalar, and validating the run
                // once keeps parsing linear even for megabyte strings
                // (per-character re-validation of the tail made parsing a
                // long string quadratic in its length).
                let start = *pos;
                while *pos < bytes.len() && bytes[*pos] != b'"' && bytes[*pos] != b'\\' {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_accessors() {
        let doc = Json::object()
            .set("name", "per-element")
            .set("count", 42u64)
            .set("ratio", 1.5)
            .set("ok", true)
            .set("items", vec![Json::Num(1.0), Json::Null]);
        assert_eq!(doc.get("name").unwrap().as_str(), Some("per-element"));
        assert_eq!(doc.get("count").unwrap().as_u64(), Some(42));
        assert_eq!(doc.get("ratio").unwrap().as_f64(), Some(1.5));
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("items").unwrap().as_array().unwrap().len(), 2);
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn round_trip_nested_document() {
        let doc = Json::object()
            .set("exhibit", "table1")
            .set(
                "runs",
                vec![Json::object()
                    .set("scheme", "per-point")
                    .set("metrics", Json::object().set("quad_evals", 123_456_789u64))
                    .set("times_ms", vec![Json::Num(0.5), Json::Num(1.25)])],
            )
            .set("empty_arr", Vec::<Json>::new())
            .set("empty_obj", Json::object())
            .set("escaped", "line\nbreak \"quoted\" back\\slash\ttab");
        let text = doc.to_pretty_string();
        let reparsed = Json::parse(&text).expect("round trip parse");
        assert_eq!(reparsed, doc);
    }

    #[test]
    fn integers_written_exactly() {
        let text = Json::Num(9_007_199_254_740_992.0).to_pretty_string();
        // 2^53 exceeds the exact-integer window; falls back to float form.
        assert!(Json::parse(&text).is_ok());
        let small = Json::Num(1_000_000.0).to_pretty_string();
        assert_eq!(small.trim(), "1000000");
        let neg = Json::Num(-42.0).to_pretty_string();
        assert_eq!(neg.trim(), "-42");
    }

    #[test]
    fn parses_standard_forms() {
        let doc = Json::parse(
            r#"{"a": [1, 2.5, -3e2, true, false, null], "b": {"nested": "x"}, "c": "A"}"#,
        )
        .unwrap();
        let arr = doc.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[2].as_f64(), Some(-300.0));
        assert_eq!(
            doc.get("b").unwrap().get("nested").unwrap().as_str(),
            Some("x")
        );
        assert_eq!(doc.get("c").unwrap().as_str(), Some("A"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1, 2",
            "{\"a\" 1}",
            "tru",
            "{\"a\": 1} extra",
            "\"unterminated",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted malformed: {bad:?}");
        }
    }

    /// Deep nesting is a typed error, not a stack overflow; the limit
    /// itself still parses.
    #[test]
    fn rejects_nesting_beyond_the_depth_limit() {
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let deep = open.repeat(100_000);
            let err = Json::parse(&deep).unwrap_err();
            assert!(err.starts_with("nesting deeper than"), "{err}");
            let at_limit = format!("{}{}", open.repeat(MAX_DEPTH), close.repeat(MAX_DEPTH))
                .replace(&format!("{open}{close}"), &format!("{open}1{close}"));
            assert!(Json::parse(&at_limit).is_ok(), "limit {MAX_DEPTH} refused");
        }
    }

    #[test]
    fn set_replaces_existing_keys() {
        let doc = Json::object().set("k", 1u64).set("k", 2u64);
        assert_eq!(doc.get("k").unwrap().as_u64(), Some(2));
        match &doc {
            Json::Obj(pairs) => assert_eq!(pairs.len(), 1),
            _ => unreachable!(),
        }
    }
}
