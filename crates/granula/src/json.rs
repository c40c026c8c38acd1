//! A minimal, dependency-free JSON reader and writer.
//!
//! Granula archives and the harness's job results serialize to JSON,
//! and the benchmark service decodes request bodies and archives with the
//! same type. The workspace deliberately avoids a `serde_json` dependency
//! (see DESIGN.md §7); this module covers the subset we emit — objects,
//! arrays, strings, finite numbers, booleans and null — plus a full
//! [`Json::parse`] for reading any standards-conforming document back.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered object (deterministic output).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience object builder.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Parses a JSON document. The whole input must be one value
    /// (surrounded by optional whitespace); trailing content is an error.
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer (rejects fractions).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && *x == x.trunc() && *x < 1.8e19 => Some(*x as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes compactly.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with 2-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_number(out, *x),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, indent, depth);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent, depth + 1);
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    newline(out, indent, depth);
                }
                out.push('}');
            }
        }
    }
}

fn newline(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_number(out: &mut String, x: f64) {
    if !x.is_finite() {
        // JSON has no Infinity/NaN; archives encode them as null.
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 1e15 {
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

/// A JSON parse failure: byte offset into the input plus a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    pub offset: usize,
    pub message: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonParseError {}

/// Nesting depth limit: documents this deep are hostile, not data.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonParseError {
        JsonParseError { offset: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Copy runs of plain UTF-8 wholesale.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The input is a &str, so byte runs are valid UTF-8.
                out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
            }
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonParseError> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        match c {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // High surrogate: require a low-surrogate partner.
                    if self.bytes[self.pos..].starts_with(b"\\u") {
                        self.pos += 2;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.err("unpaired surrogate"));
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else {
                        return Err(self.err("unpaired surrogate"));
                    }
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err(self.err("unpaired surrogate"));
                } else {
                    hi
                };
                out.push(char::from_u32(code).ok_or_else(|| self.err("invalid code point"))?);
            }
            _ => return Err(self.err(format!("invalid escape \\{}", c as char))),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let c = self.peek().ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (c as char).to_digit(16).ok_or_else(|| self.err("bad hex digit"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: a single 0, or a nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("expected digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected digit after decimal point"));
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
                return Err(self.err("expected digit in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        // `parse::<f64>` maps overflow to ±inf rather than failing; this
        // module's invariant is finite numbers only (the writer encodes
        // non-finite as null), so reject overflow explicitly.
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Num(x)),
            _ => Err(self.err("number out of range")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(Json::Null.to_string_compact(), "null");
        assert_eq!(Json::Bool(true).to_string_compact(), "true");
        assert_eq!(Json::Num(3.0).to_string_compact(), "3");
        assert_eq!(Json::Num(3.5).to_string_compact(), "3.5");
        assert_eq!(Json::Num(f64::INFINITY).to_string_compact(), "null");
        assert_eq!(Json::str("hi").to_string_compact(), "\"hi\"");
    }

    #[test]
    fn escaping() {
        let s = Json::str("a\"b\\c\nd\te\u{1}");
        assert_eq!(s.to_string_compact(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn nested_structure() {
        let v = Json::obj(vec![
            ("name", Json::str("bfs")),
            ("times", Json::Arr(vec![Json::Num(1.0), Json::Num(2.5)])),
            ("ok", Json::Bool(false)),
        ]);
        assert_eq!(v.to_string_compact(), r#"{"name":"bfs","times":[1,2.5],"ok":false}"#);
    }

    #[test]
    fn pretty_has_indentation() {
        let v = Json::obj(vec![("a", Json::Num(1.0))]);
        let pretty = v.to_string_pretty();
        assert!(pretty.contains("\n  \"a\": 1"));
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::Arr(vec![]).to_string_compact(), "[]");
        assert_eq!(Json::Obj(vec![]).to_string_pretty(), "{}");
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("0").unwrap(), Json::Num(0.0));
        assert_eq!(Json::parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::str("hi"));
    }

    #[test]
    fn parse_nested_structure() {
        let v = Json::parse(r#"{"jobs":[{"id":1,"eps":2.5e6},{"id":2}],"ok":true}"#).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        let jobs = v.get("jobs").and_then(Json::as_arr).unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].get("id").and_then(Json::as_u64), Some(1));
        assert_eq!(jobs[0].get("eps").and_then(Json::as_f64), Some(2.5e6));
        assert_eq!(jobs[1].get("eps"), None);
    }

    #[test]
    fn escape_round_trip() {
        // Writer output parses back to the same value, including every
        // escape class the writer emits.
        let original = Json::obj(vec![
            ("text", Json::str("a\"b\\c\nd\te\u{1}f\r")),
            ("unicode", Json::str("π 💡 ←")),
        ]);
        let parsed = Json::parse(&original.to_string_compact()).unwrap();
        assert_eq!(parsed, original);
        // Explicit \u forms, including a surrogate pair.
        let v = Json::parse(r#""\u0041\u00e9\ud83d\udca1\/""#).unwrap();
        assert_eq!(v, Json::str("Aé💡/"));
    }

    #[test]
    fn number_round_trip() {
        for x in [0.0, -0.0, 1.0, -17.0, 3.5, 1.0e-9, 6.25e18, -2.5e-3, 1234567890.125] {
            let text = Json::Num(x).to_string_compact();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back, x, "{text}");
        }
        // Non-finite numbers serialize as null and stay null.
        assert_eq!(Json::parse(&Json::Num(f64::NAN).to_string_compact()).unwrap(), Json::Null);
        // Overflowing literals are rejected, not folded to infinity.
        assert!(Json::parse("1e999").is_err());
        assert!(Json::parse("-1e999").is_err());
        assert_eq!(Json::parse("1e-999").unwrap(), Json::Num(0.0), "underflow is just zero");
    }

    #[test]
    fn pretty_round_trip() {
        let v = Json::obj(vec![
            ("name", Json::str("bfs")),
            ("times", Json::Arr(vec![Json::Num(1.0), Json::Num(2.5)])),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
            ("nothing", Json::Null),
        ]);
        assert_eq!(Json::parse(&v.to_string_pretty()).unwrap(), v);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "", "tru", "nul", "01", "1.", ".5", "1e", "+1", "\"unterminated", "\"bad \\x\"",
            "\"\\u12\"", "\"\\ud800\"", "[1,]", "[1 2]", "{\"a\"}", "{\"a\":1,}", "{a:1}",
            "1 2", "[1]]", "\u{1}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_depth_limit() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"n":3,"f":2.5,"s":"x","b":false,"neg":-1}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("f").and_then(Json::as_u64), None, "fraction is not a u64");
        assert_eq!(v.get("neg").and_then(Json::as_u64), None);
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(false));
        assert!(v.get("missing").is_none());
        assert!(Json::Null.get("n").is_none());
        assert!(Json::Null.as_arr().is_none());
    }
}
