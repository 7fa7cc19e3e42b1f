//! The workspace's one JSON module: a value type, string quoting, and
//! a recursive-descent parser, with no serde dependency. The manifest
//! writers quote through [`quote`], and `reproduce` reads every
//! artifact back with [`parse`].
//! The parser supports the full JSON grammar except `\u` escapes beyond
//! the BMP, and refuses documents nested deeper than 128 levels with
//! an error rather than recursing until the stack overflows.

use std::collections::BTreeMap;

/// A parsed JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; key order is not preserved.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member access for objects; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Quotes `s` as a JSON string literal, escaping the characters JSON
/// requires (quote, backslash, control characters).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub use reader::parse;

/// The parser. Its input may come from anywhere, so it never indexes,
/// overflows or panics: every byte is read through `get`, and clippy
/// holds it to that.
#[deny(
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]
mod reader {
    use std::collections::BTreeMap;

    use super::Value;

    /// Deepest array/object nesting [`parse`] accepts. Every document
    /// arpshield writes nests under ten levels; the cap keeps the
    /// recursion bounded on input it did not write.
    pub(super) const MAX_DEPTH: usize = 128;

    /// Parses a JSON document, rejecting trailing garbage and arrays or
    /// objects nested deeper than 128 levels.
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// Moves `pos` past `n` bytes the caller has just read. `pos` stays
    /// within the input, so the sum never saturates.
    fn advance(pos: &mut usize, n: usize) {
        *pos = pos.saturating_add(n);
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while matches!(bytes.get(*pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            advance(pos, 1);
        }
    }

    fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
        if bytes.get(*pos) == Some(&byte) {
            advance(pos, 1);
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {pos}", byte as char, pos = *pos))
        }
    }

    /// Parses one value whose enclosing arrays and objects number `depth`.
    fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
        skip_ws(bytes, pos);
        if depth == MAX_DEPTH && matches!(bytes.get(*pos), Some(b'{' | b'[')) {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {pos}",
                pos = *pos
            ));
        }
        // Below the cap, so the increment never saturates.
        let inner = depth.saturating_add(1);
        match bytes.get(*pos) {
            Some(b'{') => parse_obj(bytes, pos, inner),
            Some(b'[') => parse_arr(bytes, pos, inner),
            Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
            Some(b't') => parse_keyword(bytes, pos, "true", Value::Bool(true)),
            Some(b'f') => parse_keyword(bytes, pos, "false", Value::Bool(false)),
            Some(b'n') => parse_keyword(bytes, pos, "null", Value::Null),
            Some(_) => parse_number(bytes, pos),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn parse_keyword(
        bytes: &[u8],
        pos: &mut usize,
        word: &str,
        value: Value,
    ) -> Result<Value, String> {
        if bytes.get(*pos..).is_some_and(|rest| rest.starts_with(word.as_bytes())) {
            advance(pos, word.len());
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {pos}", pos = *pos))
        }
    }

    fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while matches!(bytes.get(*pos), Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')) {
            advance(pos, 1);
        }
        bytes
            .get(start..*pos)
            .and_then(|digits| std::str::from_utf8(digits).ok())
            .and_then(|s| s.parse().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(bytes, pos, b'"')?;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    advance(pos, 1);
                    return Ok(out);
                }
                Some(b'\\') => {
                    advance(pos, 1);
                    match bytes.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(*pos..)
                                .and_then(|rest| rest.get(1..5))
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "invalid \\u escape".to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            advance(pos, 4);
                        }
                        _ => return Err(format!("invalid escape at byte {pos}", pos = *pos)),
                    }
                    advance(pos, 1);
                }
                Some(_) => {
                    // Consume the whole run up to the next quote or
                    // escape in one append. `"` and `\` are ASCII, so
                    // they can never appear inside a UTF-8 continuation
                    // sequence, and the input is a &str, so the run is
                    // valid UTF-8.
                    let start = *pos;
                    while bytes.get(*pos).is_some_and(|b| !matches!(b, b'"' | b'\\')) {
                        advance(pos, 1);
                    }
                    let run = bytes.get(start..*pos).unwrap_or_default();
                    out.push_str(std::str::from_utf8(run).map_err(|e| e.to_string())?);
                }
            }
        }
    }

    fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
        expect(bytes, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b']') {
            advance(pos, 1);
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(parse_value(bytes, pos, depth)?);
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => advance(pos, 1),
                Some(b']') => {
                    advance(pos, 1);
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
            }
        }
    }

    fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
        expect(bytes, pos, b'{')?;
        let mut map = BTreeMap::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b'}') {
            advance(pos, 1);
            return Ok(Value::Obj(map));
        }
        loop {
            skip_ws(bytes, pos);
            let key = parse_string(bytes, pos)?;
            skip_ws(bytes, pos);
            expect(bytes, pos, b':')?;
            map.insert(key, parse_value(bytes, pos, depth)?);
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => advance(pos, 1),
                Some(b'}') => {
                    advance(pos, 1);
                    return Ok(Value::Obj(map));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reader::MAX_DEPTH;
    use super::*;

    #[test]
    fn quoting() {
        assert_eq!(quote("plain"), "\"plain\"");
        assert_eq!(quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(quote("nl\ntab\t"), "\"nl\\ntab\\t\"");
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn parses_nested_documents() {
        let v =
            parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "e": "x\ny"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_num(), Some(2.5));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2].as_num(), Some(-300.0));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Value::Null));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"unterminated"] {
            assert!(parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn nesting_is_capped_with_an_error() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let objects = format!("{}1{}", r#"{"a":"#.repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(parse(&objects).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err, format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}"));
        // Far past the cap, and unterminated: still an error, not a
        // stack overflow.
        assert!(parse(&"[".repeat(400_000)).unwrap_err().contains("nesting deeper"));
        assert!(parse(&r#"{"k":"#.repeat(100_000)).unwrap_err().contains("nesting deeper"));
    }
}
