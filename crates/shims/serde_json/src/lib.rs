//! Workspace-local stand-in for `serde_json`.
//!
//! Renders and parses JSON over the `serde` shim's [`Value`] tree, with the
//! familiar entry points: [`to_string`], [`to_string_pretty`], [`from_str`],
//! [`to_value`], [`from_value`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};
pub use serde::{Error, Number, Value};
use std::fmt::Write as _;

/// Serializes `t` into a [`Value`] tree.
pub fn to_value<T: Serialize>(t: &T) -> Value {
    t.to_value()
}

/// Reconstructs a `T` from a [`Value`] tree.
pub fn from_value<T: Deserialize>(v: &Value) -> Result<T, Error> {
    T::from_value(v)
}

/// Serializes `t` as compact JSON.
pub fn to_string<T: Serialize>(t: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &t.to_value(), None, 0);
    Ok(out)
}

/// Serializes `t` as two-space-indented JSON.
pub fn to_string_pretty<T: Serialize>(t: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &t.to_value(), Some(2), 0);
    Ok(out)
}

/// Parses JSON text and reconstructs a `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    T::from_value(&parse(s)?)
}

/// Parses JSON text into a [`Value`] tree without deserializing further.
///
/// Callers that need to inspect or hold on to the tree (rather than go
/// straight to a concrete type) use this to avoid re-serializing: the
/// returned `Value` is owned, so no clone of the input survives.
pub fn parse(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing input at byte {}", p.pos)));
    }
    Ok(v)
}

// --- writer ----------------------------------------------------------------

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(Number::PosInt(n)) => {
            let _ = write!(out, "{n}");
        }
        Value::Number(Number::NegInt(n)) => {
            let _ = write!(out, "{n}");
        }
        Value::Number(Number::Float(f)) => {
            if f.is_finite() {
                // `{}` on f64 prints the shortest representation that parses
                // back to the same bits, so floats round-trip exactly. Append
                // a `.0` marker to integral values so they re-parse as Float.
                let start = out.len();
                let _ = write!(out, "{f}");
                if !out[start..].contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null"); // serde_json convention for non-finite
            }
        }
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            if !items.is_empty() {
                newline_indent(out, indent, depth);
            }
            out.push(']');
        }
        Value::Object(entries) => {
            out.push('{');
            for (i, (key, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, depth + 1);
            }
            if !entries.is_empty() {
                newline_indent(out, indent, depth);
            }
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
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
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// --- parser ----------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
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

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(Error(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(Error(format!("unexpected input at byte {}", self.pos))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
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

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(Error(format!("expected `,` or `}}` at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            // Copy the run up to the next quote or backslash as one slice.
            // Both are ASCII, so a run of valid input is valid UTF-8 on its
            // own and each byte is checked once.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| Error("unterminated string".into()))?;
            s.push_str(
                std::str::from_utf8(&rest[..run])
                    .map_err(|_| Error("invalid UTF-8 in string".into()))?,
            );
            if rest[run] == b'"' {
                self.pos += run + 1;
                return Ok(s);
            }
            // A backslash: one escape.
            self.pos += run + 1;
            match self.peek() {
                Some(b'"') => s.push('"'),
                Some(b'\\') => s.push('\\'),
                Some(b'/') => s.push('/'),
                Some(b'n') => s.push('\n'),
                Some(b'r') => s.push('\r'),
                Some(b't') => s.push('\t'),
                Some(b'b') => s.push('\u{08}'),
                Some(b'f') => s.push('\u{0c}'),
                Some(b'u') => {
                    let hex = self
                        .bytes
                        .get(self.pos + 1..self.pos + 5)
                        .ok_or_else(|| Error("truncated \\u escape".into()))?;
                    let hex =
                        std::str::from_utf8(hex).map_err(|_| Error("invalid \\u escape".into()))?;
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| Error("invalid \\u escape".into()))?;
                    s.push(
                        char::from_u32(code)
                            .ok_or_else(|| Error("invalid \\u code point".into()))?,
                    );
                    self.pos += 4;
                }
                _ => return Err(Error("invalid escape".into())),
            }
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("invalid number".into()))?;
        let number = if is_float {
            Number::Float(
                text.parse()
                    .map_err(|_| Error(format!("bad number `{text}`")))?,
            )
        } else if text.starts_with('-') {
            Number::NegInt(
                text.parse()
                    .map_err(|_| Error(format!("bad number `{text}`")))?,
            )
        } else {
            Number::PosInt(
                text.parse()
                    .map_err(|_| Error(format!("bad number `{text}`")))?,
            )
        };
        Ok(Value::Number(number))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_round_trip() {
        let v = Value::Object(vec![
            ("k".into(), Value::Number(Number::PosInt(1000))),
            ("gamma".into(), Value::Number(Number::Float(0.5))),
            ("name".into(), Value::String("a \"b\"\n".into())),
            (
                "flags".into(),
                Value::Array(vec![Value::Bool(true), Value::Null]),
            ),
            ("empty".into(), Value::Object(vec![])),
        ]);
        let text = to_string(&{
            struct W(Value);
            impl serde::Serialize for W {
                fn to_value(&self) -> Value {
                    self.0.clone()
                }
            }
            W(v.clone())
        })
        .unwrap();
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        assert_eq!(p.value().unwrap(), v);
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let text = r#" { "a" : [ 1 , -2 , 3.5e1 ] , "b" : { "c" : "A" } } "#;
        let parsed: Value = {
            let mut p = Parser {
                bytes: text.trim().as_bytes(),
                pos: 0,
            };
            p.value().unwrap()
        };
        assert_eq!(
            parsed.get("a").unwrap().as_array().unwrap()[1].as_i64(),
            Some(-2)
        );
        assert_eq!(
            parsed.get("a").unwrap().as_array().unwrap()[2].as_f64(),
            Some(35.0)
        );
        assert_eq!(
            parsed.get("b").unwrap().get("c").unwrap().as_str(),
            Some("A")
        );
    }

    #[test]
    fn u64_seeds_survive_exactly() {
        let seed = u64::MAX - 3;
        let text = to_string(&seed).unwrap();
        let back: u64 = from_str(&text).unwrap();
        assert_eq!(back, seed);
    }

    #[test]
    fn floats_survive_exactly() {
        for f in [0.1f64, -1.5, 1e300, std::f64::consts::PI, 2.0] {
            let text = to_string(&f).unwrap();
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{text}");
        }
    }

    #[test]
    fn pretty_output_is_reparseable() {
        let v = vec![1u32, 2, 3];
        let text = to_string_pretty(&v).unwrap();
        assert!(text.contains('\n'));
        let back: Vec<u32> = from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(from_str::<bool>("true x").is_err());
    }

    fn parse_str(text: &str) -> Result<String, Error> {
        parse(text).map(|v| v.as_str().expect("a string value").to_owned())
    }

    #[test]
    fn every_escape_parses() {
        for (text, want) in [
            (r#""\"""#, "\""),
            (r#""\\""#, "\\"),
            (r#""\/""#, "/"),
            (r#""\b""#, "\u{08}"),
            (r#""\f""#, "\u{0c}"),
            (r#""\n""#, "\n"),
            (r#""\r""#, "\r"),
            (r#""\t""#, "\t"),
            (r#""\u00e9""#, "é"),
            (r#""\u00E9A""#, "éA"),
            (r#""a\tb\\c\"d""#, "a\tb\\c\"d"),
            (r#""""#, ""),
        ] {
            assert_eq!(parse_str(text).unwrap(), want, "{text}");
        }
    }

    #[test]
    fn multibyte_characters_next_to_quotes_and_escapes_survive() {
        // 2-, 3- and 4-byte UTF-8 at the start, the end and on either side
        // of an escape.
        for want in [
            "é",
            "€",
            "😀",
            "é€😀",
            "😀\n€",
            "\"é\"",
            "€\\",
            "\t😀",
            "aé\"€\\😀b",
        ] {
            let text = to_string(&want.to_owned()).unwrap();
            assert_eq!(parse_str(&text).unwrap(), want, "{text}");
        }
        assert_eq!(parse_str(r#""\u00e9é😀""#).unwrap(), "éé😀");
    }

    #[test]
    fn malformed_strings_are_errors() {
        for text in [
            r#""abc"#,
            r#""abc\"#,
            r#""\u00"#,
            r#""\u00e"#,
            r#""\ud83d""#,
            r#""\x""#,
            r#""\u12g4""#,
        ] {
            assert!(parse(text).is_err(), "{text}");
        }
    }

    #[test]
    fn long_string_arrays_parse_in_linear_time() {
        // 65,536 strings of 60 characters (about 4 MB): the old parser
        // re-checked the rest of the input for every character.
        let cell = "é".repeat(10) + &"x".repeat(38) + "\\n\\\"";
        let text = format!("[{}]", vec![format!("\"{cell}\""); 1 << 16].join(","));
        assert!(text.len() > 4_000_000, "{}", text.len());
        let started = std::time::Instant::now();
        let v = parse(&text).unwrap();
        let took = started.elapsed();
        let items = v.as_array().unwrap();
        assert_eq!(items.len(), 1 << 16);
        assert_eq!(
            items[7].as_str().unwrap(),
            "é".repeat(10) + &"x".repeat(38) + "\n\""
        );
        assert!(took < std::time::Duration::from_secs(2), "{took:?}");
    }
}
