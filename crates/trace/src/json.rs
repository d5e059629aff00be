//! The workspace's one JSON codec.
//!
//! Every JSON writer — the trace exporters, `BENCH_<scenario>.json` and
//! `plasma-eval verify --json` — emits its fixed shape by hand and escapes
//! strings with [`escape_into`]. [`parse`] is a strict RFC 8259 parser for
//! reading those files back (`plasma-eval compare`) and for checking
//! exports in tests.

use std::fmt::Write as _;

/// Appends `s` to `out` as the content of a JSON string literal (without
/// the surrounding quotes).
pub fn escape_into(out: &mut String, s: &str) {
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
}

/// `s` as a quoted JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

/// A parsed JSON value.
///
/// Objects keep their members in document order. Numbers keep their
/// literal text, so integers of any size and floats read back exactly.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as written.
    Number(String),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object's members in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The first member named `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Value> {
        let members = self.as_object()?;
        members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The value, if this is a number written as a non-negative integer
    /// that fits a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(text) => text.parse().ok(),
            _ => None,
        }
    }
}

/// Parses one JSON document. Strict: rejects trailing input, trailing
/// commas, leading zeros, bare control characters inside strings and
/// malformed literals or escapes. An error names what was wrong and the
/// byte offset where it was found.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        self.pos += usize::from(b.is_some());
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, then consumes `b` if it comes next.
    fn eat(&mut self, b: u8) -> bool {
        self.skip_ws();
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        for (word, value) in [
            ("null", Value::Null),
            ("true", Value::Bool(true)),
            ("false", Value::Bool(false)),
        ] {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                return Ok(value);
            }
        }
        match self.peek() {
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => {
                let mut items = Vec::new();
                self.sequence(b']', |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                let mut members = Vec::new();
                self.sequence(b'}', |p| {
                    let key = p.string()?;
                    p.expect(b':')?;
                    members.push((key, p.value()?));
                    Ok(())
                })?;
                Ok(Value::Object(members))
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Consumes the opening bracket, then `element (, element)*` up to the
    /// closing bracket `close`, or an immediate `close`.
    fn sequence(
        &mut self,
        close: u8,
        mut element: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        if self.eat(close) {
            return Ok(());
        }
        loop {
            element(self)?;
            if !self.eat(b',') {
                return self.expect(close);
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            // The run starts and stops at ASCII bytes of a `&str`, so it is
            // whole UTF-8.
            out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).expect("utf-8 run"));
            let c = match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'/') => '/',
                    Some(b'b') => '\u{8}',
                    Some(b'f') => '\u{c}',
                    Some(b'n') => '\n',
                    Some(b'r') => '\r',
                    Some(b't') => '\t',
                    Some(b'u') => self.unicode_escape()?,
                    _ => return Err(self.err("invalid escape")),
                },
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            };
            out.push(c);
        }
    }

    /// The character of a `\u` escape whose `\u` is consumed, joining a
    /// surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let mut cp = self.hex4()?;
        if (0xD800..0xDC00).contains(&cp) {
            if !self.bytes[self.pos..].starts_with(b"\\u") {
                return Err(self.err("unpaired surrogate"));
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err("unpaired surrogate"));
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
        }
        char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0;
        for _ in 0..4 {
            let digit = self.bump().and_then(|b| (b as char).to_digit(16));
            v = v * 16 + digit.ok_or_else(|| self.err("invalid \\u escape"))?;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.pos += usize::from(self.peek() == Some(b'-'));
        let int = self.digits();
        if int == 0 || int > 1 && self.bytes[self.pos - int] == b'0' {
            return Err(self.err("expected an integer part without leading zeros"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("expected a fraction digit"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            self.pos += usize::from(matches!(self.peek(), Some(b'+' | b'-')));
            if self.digits() == 0 {
                return Err(self.err("expected an exponent digit"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        Ok(Value::Number(text.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_documents() {
        let text = "{\"name\": \"plasma\", \"count\": 3, \"ratio\": -0.5e1, \"big\": 18446744073709551615,
                    \"tags\": [\"a\", \"b\\u00e9\\ud83d\\ude00\\/\"], \"nested\": {\"ok\": true, \"none\": null},
                    \"empty\": [{}, [ ]] }";
        let v = parse(text).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|m| m.0.as_str())
            .collect();
        assert_eq!(
            keys,
            ["name", "count", "ratio", "big", "tags", "nested", "empty"]
        );
        assert_eq!(v.get("name").and_then(Value::as_str), Some("plasma"));
        assert_eq!(v.get("count").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("ratio").and_then(Value::as_f64), Some(-5.0));
        assert_eq!(v.get("ratio").and_then(Value::as_u64), None);
        assert_eq!(v.get("big").and_then(Value::as_u64), Some(u64::MAX));
        let tags = v.get("tags").and_then(Value::as_array).unwrap();
        assert_eq!(tags[1].as_str(), Some("bé😀/"));
        let nested = v.get("nested").unwrap();
        assert_eq!(nested.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(nested.get("none"), Some(&Value::Null));
        let empty = Value::Array(vec![Value::Object(vec![]), Value::Array(vec![])]);
        assert_eq!(v.get("empty"), Some(&empty));
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,]",
            "[1 2]",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "{1:2}",
            "nul",
            "[1] x",
            // A bare control character, leading zeros, a lone minus sign and
            // a number without digits after its point or exponent.
            "\"a\u{1}b\"",
            "01",
            "-01",
            "-",
            "1.",
            "1e",
            ".5",
            // Unterminated strings, a bad escape and an unpaired surrogate.
            "\"unterminated",
            "[\"a",
            "\"bad \\q\"",
            "\"\\ud800\"",
            "\"\\udc00\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        assert_eq!(
            parse("[1, 2] 3"),
            Err("trailing characters at byte 7".into())
        );
    }

    #[test]
    fn escaped_strings_round_trip_unchanged() {
        let raw = "quote \" backslash \\ newline \n return \r tab \t one \u{1} é";
        let quoted = quote(raw);
        let expected = "\"quote \\\" backslash \\\\ newline \\n return \\r tab \\t one \\u0001 é\"";
        assert_eq!(quoted, expected);
        assert_eq!(parse(&quoted).unwrap().as_str(), Some(raw));
    }
}
