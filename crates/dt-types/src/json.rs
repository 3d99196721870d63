//! Minimal JSON document model, parser, and writer.
//!
//! The build environment has no crates.io access, so the workspace
//! carries its own JSON support instead of `serde_json`. Two consumers
//! drive the feature set:
//!
//! * `dt-server` parses newline-delimited JSON tuple frames off the
//!   wire and emits run reports ([`Json::parse`] / [`Json::render`]).
//! * `dt-bench` / `dt-metrics` serialize experiment results for
//!   plotting ([`ToJson`]).
//!
//! The parser accepts standard JSON (RFC 8259): objects, arrays,
//! strings with escapes (including `\uXXXX`), numbers, booleans, and
//! null. Object key order is preserved (`Vec<(String, Json)>`), which
//! keeps rendering deterministic. Arrays and objects may nest at most
//! [`MAX_DEPTH`] deep: the parser recurses once per level, so an
//! unbounded depth would let one wire frame overflow a thread's stack.

use crate::error::{DtError, DtResult};

/// The deepest array/object nesting [`Json::parse`] accepts; a
/// document nested deeper is a parse error. Wire frames nest two
/// levels and experiment reports a handful, so the cap only ever
/// rejects adversarial input.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always held as `f64`; integers up to 2^53
    /// round-trip exactly, which covers every count this workspace
    /// serializes).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one JSON document from `input`. Trailing non-whitespace
    /// is an error (one frame per line on the wire).
    pub fn parse(input: &str) -> DtResult<Json> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON document"));
        }
        Ok(v)
    }

    /// Compact single-line rendering (the NDJSON wire format).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation, for files meant to
    /// be read by humans (experiment reports).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&render_number(*n)),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d);
                })
            }
            Json::Obj(fields) => {
                write_seq(out, indent, depth, '{', '}', fields.len(), |out, i, d| {
                    let (k, v) = &fields[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, d);
                })
            }
        }
    }

    /// The value at `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Integer payload, if this is a number representing an integer
    /// exactly.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) => Some(*n as i64),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Render a sequence with optional pretty indentation.
fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
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
        if let Some(step) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', step * (depth + 1)));
        }
        item(out, i, depth + 1);
    }
    if let Some(step) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', step * depth));
    }
    out.push(close);
}

/// Numbers render as integers when they are integers (counts, ids) and
/// via `f64`'s shortest round-trip formatting otherwise.
fn render_number(n: f64) -> String {
    if !n.is_finite() {
        // JSON has no Inf/NaN; null is the conventional degradation.
        return "null".to_string();
    }
    if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &str) -> DtError {
        DtError::parse_at(format!("{what} (JSON)"), self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, lit: &str) -> DtResult<()> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err("unexpected token"))
        }
    }

    fn value(&mut self) -> DtResult<Json> {
        match self.peek() {
            Some(b'n') => self.eat("null").map(|_| Json::Null),
            Some(b't') => self.eat("true").map(|_| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|_| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parse one array or object one level deeper, refusing to go
    /// past [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> DtResult<Json>) -> DtResult<Json> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> DtResult<Json> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> DtResult<Json> {
        self.pos += 1; // consume '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected object key string"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':'"));
            }
            self.pos += 1;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> DtResult<String> {
        self.pos += 1; // consume '"'
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes at once.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                let run = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?;
                out.push_str(run);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs for astral-plane chars.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                self.eat("\\u")
                                    .map_err(|_| self.err("unpaired surrogate"))?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> DtResult<u32> {
        let slice = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(slice).map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> DtResult<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while let Some(b'0'..=b'9') = self.peek() {
                self.pos += 1;
            }
        }
        if let Some(b'e' | b'E') = self.peek() {
            self.pos += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            while let Some(b'0'..=b'9') = self.peek() {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("malformed number"))
    }
}

/// Conversion into the [`Json`] document model — the workspace's
/// replacement for `serde::Serialize`. Implemented by hand on the few
/// result types that are written to disk or the wire.
pub trait ToJson {
    /// Build the JSON representation of `self`.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl ToJson for i64 {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

/// Build a [`Json::Obj`] from `("key", value)` pairs; the workhorse
/// for hand-written `ToJson` impls.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-3.5e2").unwrap(), Json::Num(-350.0));
        assert_eq!(
            Json::parse("\"hi\\n\\u0041\"").unwrap(),
            Json::Str("hi\nA".into())
        );
    }

    #[test]
    fn parses_nested() {
        let doc = Json::parse(r#"{"s":"cpu","ts":123,"vals":[1,2.5,-3],"ok":true}"#).unwrap();
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("cpu"));
        assert_eq!(doc.get("ts").and_then(Json::as_i64), Some(123));
        let vals = doc.get("vals").and_then(Json::as_arr).unwrap();
        assert_eq!(vals.len(), 3);
        assert_eq!(vals[1].as_f64(), Some(2.5));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn surrogate_pairs_round_trip() {
        let doc = Json::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(doc, Json::Str("😀".into()));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"\\ud800\"").is_err());
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper"), "{err}");
        assert!(Json::parse(&format!("{{\"a\":{}}}", nest(MAX_DEPTH))).is_err());
    }

    #[test]
    fn round_trips_render() {
        let src = r#"{"name":"w","count":7,"frac":0.25,"tags":["a","b"],"none":null}"#;
        let doc = Json::parse(src).unwrap();
        assert_eq!(doc.render(), src);
        let re = Json::parse(&doc.render_pretty()).unwrap();
        assert_eq!(re, doc);
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(3.0).render(), "3");
        assert_eq!(Json::Num(3.25).render(), "3.25");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn to_json_building_blocks() {
        let v = obj(vec![
            ("xs", vec![1u64, 2, 3].to_json()),
            ("label", "hi".to_json()),
            ("opt", None::<f64>.to_json()),
        ]);
        assert_eq!(v.render(), r#"{"xs":[1,2,3],"label":"hi","opt":null}"#);
    }

    #[test]
    fn control_chars_escape() {
        let s = Json::Str("a\u{1}b".into());
        assert_eq!(s.render(), "\"a\\u0001b\"");
        assert_eq!(Json::parse(&s.render()).unwrap(), s);
    }
}
