//! Offline stand-in for `serde_json`: JSON text ⇄ the serde shim's
//! [`Value`] tree.
//!
//! Covers the workspace's usage: `to_string`, `to_string_pretty`,
//! `from_str`, `to_value`, `from_value`, and a simplified `json!` macro
//! (object/array literals whose values are expressions). Floats are
//! written with Rust's shortest round-trippable formatting, so
//! `to_string` → `from_str` reproduces `f64` bits exactly — tests rely on
//! that.

#![forbid(unsafe_code)]

use std::fmt::Write as _;

pub use serde::{DeError as Error, Number, Value};

/// `Result` alias matching real serde_json's signature shape.
pub type Result<T> = std::result::Result<T, Error>;

/// Serialises any shim-`Serialize` type into a [`Value`].
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Value {
    value.to_json()
}

/// Reconstructs a typed value from a [`Value`] tree.
pub fn from_value<T: serde::Deserialize>(value: Value) -> Result<T> {
    T::from_json(&value)
}

/// Serialises to compact JSON text.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_json(), None, 0);
    Ok(out)
}

/// Serialises to pretty-printed JSON text (two-space indent, like real
/// serde_json).
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_json(), Some(2), 0);
    Ok(out)
}

/// Parses JSON text into a typed value.
pub fn from_str<T: serde::Deserialize>(text: &str) -> Result<T> {
    let value = parse(text)?;
    T::from_json(&value)
}

// ------------------------------------------------------------------ writer

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, level: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => write_number(out, *n),
        Value::String(s) => write_string(out, s),
        Value::Array(items) => write_seq(out, items.iter(), indent, level, ('[', ']'), write_value),
        Value::Object(fields) => write_seq(
            out,
            fields.iter(),
            indent,
            level,
            ('{', '}'),
            |o, (k, val), ind, lvl| {
                write_string(o, k);
                o.push(':');
                if ind.is_some() {
                    o.push(' ');
                }
                write_value(o, val, ind, lvl);
            },
        ),
    }
}

fn write_seq<I, T>(
    out: &mut String,
    items: I,
    indent: Option<usize>,
    level: usize,
    brackets: (char, char),
    mut write_item: impl FnMut(&mut String, T, Option<usize>, usize),
) where
    I: ExactSizeIterator<Item = T>,
{
    out.push(brackets.0);
    let n = items.len();
    if n == 0 {
        out.push(brackets.1);
        return;
    }
    for (i, item) in items.enumerate() {
        if let Some(width) = indent {
            out.push('\n');
            for _ in 0..(width * (level + 1)) {
                out.push(' ');
            }
        }
        write_item(out, item, indent, level + 1);
        if i + 1 < n {
            out.push(',');
        }
    }
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..(width * level) {
            out.push(' ');
        }
    }
    out.push(brackets.1);
}

fn write_number(out: &mut String, n: Number) {
    match n {
        Number::U(v) => {
            let _ = write!(out, "{v}");
        }
        Number::I(v) => {
            let _ = write!(out, "{v}");
        }
        Number::F(v) => {
            if !v.is_finite() {
                // real serde_json writes null for non-finite floats
                out.push_str("null");
            } else if v == v.trunc() && v.abs() < 1e15 {
                // keep integral floats recognisable as floats
                let _ = write!(out, "{v:.1}");
            } else {
                // Rust's shortest round-trippable representation
                let _ = write!(out, "{v}");
            }
        }
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

// ------------------------------------------------------------------ parser

/// Deepest nesting of arrays and objects the parser accepts — the limit
/// real serde_json uses. The parser recurses once per level, so without
/// a limit one line of nested `[` can exhaust the thread's stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

/// Parses JSON text into a [`Value`].
///
/// # Errors
///
/// Malformed text, and arrays or objects nested deeper than 128 levels
/// (the error names the byte offset of the first bracket past the
/// limit).
pub fn parse(text: &str) -> Result<Value> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(Error(format!(
                "unexpected `{}` at byte {}",
                b as char, self.pos
            ))),
            None => Err(Error("unexpected end of input".into())),
        }
    }

    /// Parses one array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        if self.depth == MAX_DEPTH {
            return Err(Error(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = parse(self)?;
        self.depth -= 1;
        Ok(v)
    }

    fn array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error(format!("expected `,` or `]` at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(Error(format!("expected `,` or `}}` at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self
                .peek()
                .ok_or_else(|| Error("unterminated string".into()))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error("unterminated escape".into()))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error("truncated \\u escape".into()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error("bad \\u escape".into()))?,
                                16,
                            )
                            .map_err(|_| Error("bad \\u escape".into()))?;
                            self.pos += 4;
                            // surrogate pairs are not produced by this shim's
                            // writer; accept BMP scalars only
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error("bad \\u scalar".into()))?,
                            );
                        }
                        other => {
                            return Err(Error(format!("bad escape `\\{}`", other as char)));
                        }
                    }
                }
                _ => {
                    // re-decode UTF-8 from the byte stream
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| Error("truncated UTF-8".into()))?;
                    let s =
                        std::str::from_utf8(chunk).map_err(|_| Error("invalid UTF-8".into()))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("invalid number".into()))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Number(Number::U(u)));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Number(Number::I(i)));
            }
        }
        text.parse::<f64>()
            .map(|f| Value::Number(Number::F(f)))
            .map_err(|_| Error(format!("invalid number `{text}`")))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        b if b < 0x80 => 1,
        b if b >= 0xF0 => 4,
        b if b >= 0xE0 => 3,
        _ => 2,
    }
}

/// Builds a [`Value`] in place. Simplified relative to real serde_json:
/// object keys must be string literals, and nested values are arbitrary
/// expressions (serialised via [`to_value`]); use nested `json!` calls
/// explicitly for literal sub-objects.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($item:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::to_value(&$item) ),* ])
    };
    ({ $($key:literal : $value:expr),* $(,)? }) => {
        $crate::Value::Object(vec![
            $( (($key).to_string(), $crate::to_value(&$value)) ),*
        ])
    };
    ($other:expr) => { $crate::to_value(&$other) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in ["null", "true", "false", "0", "-7", "1.5"] {
            let v = parse(text).unwrap();
            let mut out = String::new();
            write_value(&mut out, &v, None, 0);
            let v2 = parse(&out).unwrap();
            assert_eq!(v, v2, "{text}");
        }
    }

    #[test]
    fn float_bits_survive_text_round_trip() {
        for &f in &[
            0.1,
            std::f64::consts::PI,
            1.0 / 3.0,
            -2.2250738585072014e-308,
            1e300,
            123_456_789.123_456_78,
        ] {
            let s = to_string(&f).unwrap();
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(f.to_bits(), back.to_bits(), "{f} via {s}");
        }
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "a\"b\\c\nd\te\u{1F600}é";
        let text = to_string(&s.to_string()).unwrap();
        let back: String = from_str(&text).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn nested_structures() {
        let text = r#"{"a": [1, 2.5, null], "b": {"c": "x"}}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = json!({"n": 2usize, "data": vec![1.0f64, 2.0]});
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains('\n'));
        let back = parse(&pretty).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn json_macro_shapes() {
        assert_eq!(json!(null), Value::Null);
        let arr = json!([1usize, 2usize]);
        assert_eq!(arr.as_array().unwrap().len(), 2);
        let n = 3usize;
        let obj = json!({"n": n, "name": "x"});
        assert_eq!(obj.get("n").unwrap(), &Value::Number(Number::U(3)));
    }

    #[test]
    fn nesting_is_capped_at_the_depth_limit() {
        let nested =
            |open: &str, close: &str, depth: usize| open.repeat(depth) + &close.repeat(depth);
        // a line this deep used to overflow the stack and abort
        let err = parse(&nested("[", "]", 100_000)).unwrap_err();
        assert!(err.to_string().contains("at byte 128"), "{err}");
        assert!(parse(&nested("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse(&nested("[", "]", MAX_DEPTH + 1)).is_err());
        // objects count towards the same limit as arrays
        let mut mixed = String::new();
        for _ in 0..MAX_DEPTH / 2 {
            mixed.push_str("{\"a\":[");
        }
        for _ in 0..MAX_DEPTH / 2 {
            mixed.push_str("]}");
        }
        assert!(parse(&mixed).is_ok());
        let deeper = format!("[{mixed}]");
        assert!(parse(&deeper).is_err());
        // siblings do not accumulate depth
        let wide = format!("[{}]", vec![nested("[", "]", MAX_DEPTH - 1); 3].join(","));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("1 2").is_err());
    }
}
