//! A small, real JSON implementation: a [`JsonValue`] tree, a strict recursive-descent
//! parser and a serializer (compact and pretty).
//!
//! The workspace has no registry access, so this module plays the role `serde_json`
//! would: the serving wire protocol (`vitality-serve`) and the bench emitters
//! (`BENCH_*.json`) all build and parse documents through this one implementation
//! instead of hand-rolling `String` pushes per call site.
//!
//! Scope and guarantees:
//!
//! * Full JSON value model (`null`, booleans, numbers as `f64`, strings, arrays,
//!   objects). Object members keep insertion order, so emitted documents are stable.
//! * Parsing is strict UTF-8 JSON with escape handling (`\n`, `\t`, `\uXXXX` including
//!   surrogate pairs), a nesting-depth limit and byte-offset error reporting.
//! * Serialization escapes control characters and round-trips every finite number
//!   (`f64` uses Rust's shortest-round-trip formatting). Non-finite numbers serialize
//!   as `null`, which is what `serde_json` does by default.

use std::fmt;

/// Maximum nesting depth the parser accepts before reporting an error (guards the
/// recursive-descent parser against stack exhaustion on adversarial input).
pub const MAX_DEPTH: usize = 128;

/// A parsed or constructed JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`, like `serde_json`'s default arithmetic type).
    Number(f64),
    /// A string.
    String(String),
    /// An array of values.
    Array(Vec<JsonValue>),
    /// An object; members keep insertion order for stable output.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Creates an empty object.
    pub fn object() -> Self {
        JsonValue::Object(Vec::new())
    }

    /// Inserts (or replaces) an object member and returns `self` for chaining.
    ///
    /// # Panics
    ///
    /// Panics when `self` is not an object — mixing member insertion into non-objects
    /// is always a construction bug, not a data-dependent condition.
    pub fn set(&mut self, key: &str, value: impl Into<JsonValue>) -> &mut Self {
        match self {
            JsonValue::Object(members) => {
                let value = value.into();
                if let Some(slot) = members.iter_mut().find(|(k, _)| k == key) {
                    slot.1 = value;
                } else {
                    members.push((key.to_string(), value));
                }
            }
            other => panic!("JsonValue::set on non-object {other:?}"),
        }
        self
    }

    /// Looks up an object member by key.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite `f64`, when it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, when it is a whole number.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as usize)
            }
            _ => None,
        }
    }

    /// The value as a bool, when it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, when it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value's object members, when it is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(members) => Some(members),
            _ => None,
        }
    }

    /// Compact serialization (no whitespace).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialization with two-space indentation and a trailing newline, the
    /// format the `BENCH_*.json` artifacts use.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::Number(n) => write_number(out, *n),
            JsonValue::String(s) => write_string(out, s),
            JsonValue::Array(items) => {
                write_seq(
                    out,
                    indent,
                    level,
                    '[',
                    ']',
                    items.len(),
                    |out, i, level| {
                        items[i].write(out, indent, level);
                    },
                );
            }
            JsonValue::Object(members) => {
                write_seq(
                    out,
                    indent,
                    level,
                    '{',
                    '}',
                    members.len(),
                    |out, i, level| {
                        write_string(out, &members[i].0);
                        out.push(':');
                        if indent.is_some() {
                            out.push(' ');
                        }
                        members[i].1.write(out, indent, level);
                    },
                );
            }
        }
    }
}

/// Writes a bracketed, comma-separated sequence, handling both compact and pretty modes.
fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    level: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * (level + 1)));
        }
        item(out, i, level + 1);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * level));
    }
    out.push(close);
}

fn write_number(out: &mut String, n: f64) {
    if n.is_finite() {
        // Rust's `{}` for f64 is the shortest string that round-trips, which is both
        // valid JSON and lossless for every finite value (f32 widened to f64 included).
        out.push_str(&format!("{n}"));
    } else {
        // serde_json's default behaviour for NaN / infinity.
        out.push_str("null");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Number(v)
    }
}

impl From<f32> for JsonValue {
    fn from(v: f32) -> Self {
        JsonValue::Number(v as f64)
    }
}

impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::Number(v as f64)
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::Number(v as f64)
    }
}

impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        JsonValue::Number(v as f64)
    }
}

impl From<u32> for JsonValue {
    fn from(v: u32) -> Self {
        JsonValue::Number(v as f64)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::String(v.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::String(v)
    }
}

impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(items: Vec<T>) -> Self {
        JsonValue::Array(items.into_iter().map(Into::into).collect())
    }
}

/// `None` renders as `null`.
impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(value: Option<T>) -> Self {
        value.map_or(JsonValue::Null, Into::into)
    }
}

/// A parse failure: what went wrong and the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset into the input at which the failure was detected.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document; trailing content (other than whitespace) is an error.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after the JSON document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than MAX_DEPTH"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            out.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("raw control character in string"));
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (the input is a &str, so boundaries exist).
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| self.err("invalid UTF-8 in string"))?,
                    );
                    self.pos = end;
                }
            }
        }
    }

    /// Parses the `XXXX` of a `\uXXXX` escape (the `\u` is already consumed), combining
    /// surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.hex4()?;
        if (0xD800..0xDC00).contains(&first) {
            // High surrogate: a low surrogate escape must follow.
            if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                self.pos += 2;
                let second = self.hex4()?;
                if (0xDC00..0xE000).contains(&second) {
                    let combined = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                    return char::from_u32(combined)
                        .ok_or_else(|| self.err("invalid surrogate pair"));
                }
            }
            return Err(self.err("unpaired high surrogate"));
        }
        if (0xDC00..0xE000).contains(&first) {
            return Err(self.err("unpaired low surrogate"));
        }
        char::from_u32(first).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a' + 10) as u32,
                Some(c @ b'A'..=b'F') => (c - b'A' + 10) as u32,
                _ => return Err(self.err("expected four hex digits after \\u")),
            };
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: either a lone 0 or a nonzero-led digit run.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.err("number out of range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let mut root = JsonValue::object();
        root.set("name", "vitality-serve")
            .set("ok", true)
            .set("count", 3usize)
            .set("ratio", 0.125f64)
            .set("nothing", JsonValue::Null)
            .set("logits", vec![1.0f32, -2.5, 0.0]);
        let compact = root.to_json();
        assert_eq!(parse(&compact).unwrap(), root);
        let pretty = root.to_json_pretty();
        assert_eq!(parse(&pretty).unwrap(), root);
        assert!(pretty.ends_with('\n'));
    }

    #[test]
    fn numbers_round_trip_losslessly() {
        for v in [
            0.0f64,
            -0.0,
            1.0,
            -17.0,
            0.1,
            1e-9,
            3.5e20,
            f64::MAX,
            f64::MIN,
        ] {
            let s = JsonValue::Number(v).to_json();
            let back = parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} serialised as {s}");
        }
        // f32 logits widen exactly and survive the trip.
        let x = -0.123_456_79_f32;
        let s = JsonValue::from(x).to_json();
        assert_eq!(parse(&s).unwrap().as_f64().unwrap() as f32, x);
        // Non-finite numbers degrade to null, never to invalid JSON.
        assert_eq!(JsonValue::Number(f64::NAN).to_json(), "null");
        assert_eq!(JsonValue::Number(f64::INFINITY).to_json(), "null");
    }

    #[test]
    fn integers_serialize_without_a_fraction() {
        assert_eq!(JsonValue::from(42usize).to_json(), "42");
        assert_eq!(JsonValue::from(-3i64).to_json(), "-3");
        assert_eq!(parse("42").unwrap().as_usize(), Some(42));
        assert_eq!(parse("42.5").unwrap().as_usize(), None);
        assert_eq!(parse("-1").unwrap().as_usize(), None);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let ugly = "a\"b\\c\nd\te\u{0007}é→𝄞";
        let s = JsonValue::from(ugly).to_json();
        assert_eq!(parse(&s).unwrap().as_str(), Some(ugly));
        assert_eq!(
            parse(r#""\u0041\u00e9\ud834\udd1e""#).unwrap().as_str(),
            Some("Aé𝄞")
        );
    }

    #[test]
    fn object_access_and_replacement() {
        let mut o = JsonValue::object();
        o.set("a", 1usize).set("b", "x").set("a", 2usize);
        assert_eq!(o.get("a").and_then(JsonValue::as_usize), Some(2));
        assert_eq!(o.get("b").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(o.get("missing"), None);
        assert_eq!(o.as_object().unwrap().len(), 2);
        assert_eq!(o.get("b").and_then(JsonValue::as_bool), None);
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "01",
            "1.",
            "1e",
            "tru",
            "\"abc",
            "\"\\q\"",
            "[1] x",
            "nulll",
            "\"\\ud800\"",
            "{\"a\" 1}",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input {bad:?}");
        }
        // Offsets point at the failure site.
        let err = parse("[1, x]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.to_string().contains("byte 4"));
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(16).to_string() + &"]".repeat(16);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn whitespace_is_tolerated_everywhere() {
        let v = parse(" \r\n\t{ \"a\" : [ 1 , 2 ] , \"b\" : { } } ").unwrap();
        assert_eq!(
            v.get("a").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(2)
        );
        assert_eq!(
            v.get("b").and_then(JsonValue::as_object).map(<[_]>::len),
            Some(0)
        );
    }
}
