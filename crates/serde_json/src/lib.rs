//! Offline stand-in for `serde_json`.
//!
//! JSON text ⇄ [`serde::Value`] ⇄ Rust types, supporting exactly the
//! entry points this workspace calls: [`to_string`],
//! [`to_string_pretty`], [`to_writer`], [`from_str`] and
//! [`from_reader`]. Numbers are kept as `i64`/`u64` when integral so
//! integer fields round-trip exactly; floats print with Rust's
//! shortest round-trip formatting, so every finite `f32`/`f64`
//! round-trips bit-exactly. Non-finite floats serialize as `null`
//! (JSON has no NaN/Infinity); types that must keep them exact encode
//! themselves as strings (checkpoint tensors do).
//!
//! The parser runs in time linear in its input and nests at most
//! [`MAX_DEPTH`] arrays/objects deep, so hostile input is an error,
//! never a stack overflow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::io::{Read, Write};

use serde::{Deserialize, Serialize, Value};

/// Deepest array/object nesting [`from_str`] accepts. The parser
/// recurses once per level, so this bounds its stack use; the
/// workspace's own documents nest fewer than ten levels.
pub const MAX_DEPTH: usize = 128;

/// Serialization / deserialization error.
#[derive(Debug)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Error { message: message.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error::new(e.to_string())
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::new(format!("io error: {e}"))
    }
}

/// Serialize `value` to a compact JSON string.
///
/// # Errors
///
/// Infallible for the value model used here; the `Result` mirrors the
/// upstream signature.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serialize `value` to a pretty-printed JSON string (2-space indent).
///
/// # Errors
///
/// Infallible for the value model used here.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Serialize `value` as compact JSON into `writer`.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn to_writer<W: Write, T: Serialize + ?Sized>(mut writer: W, value: &T) -> Result<(), Error> {
    let text = to_string(value)?;
    writer.write_all(text.as_bytes())?;
    Ok(())
}

/// Deserialize a `T` from a JSON string.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or a shape mismatch.
pub fn from_str<T: Deserialize>(input: &str) -> Result<T, Error> {
    let value = parse_value(input)?;
    Ok(T::from_value(&value)?)
}

/// Deserialize a `T` from a reader producing JSON text.
///
/// # Errors
///
/// Returns [`Error`] on I/O failure, malformed JSON, or a shape
/// mismatch.
pub fn from_reader<R: Read, T: Deserialize>(mut reader: R) -> Result<T, Error> {
    let mut buf = String::new();
    reader.read_to_string(&mut buf)?;
    from_str(&buf)
}

// ---- writer ----------------------------------------------------------

fn write_value(out: &mut String, value: &Value, indent: Option<usize>, level: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::UInt(n) => out.push_str(&n.to_string()),
        Value::Float(x) => {
            if x.is_finite() {
                // `{:?}` is Rust's shortest round-trip formatting.
                out.push_str(&format!("{x:?}"));
            } else {
                out.push_str("null");
            }
        }
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
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
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---- parser ----------------------------------------------------------

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

fn parse_value(input: &str) -> Result<Value, Error> {
    let mut p = Parser { text: input, bytes: input.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing data at byte {}", p.pos)));
    }
    Ok(value)
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}, found {:?}",
                byte as char,
                self.pos,
                self.peek().map(|b| b as char)
            )))
        }
    }

    fn literal(&mut self, text: &str) -> bool {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        if self.literal("null") {
            return Ok(Value::Null);
        }
        if self.literal("true") {
            return Ok(Value::Bool(true));
        }
        if self.literal("false") {
            return Ok(Value::Bool(false));
        }
        match self.peek() {
            Some(b'"') => self.string().map(Value::String),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(Error::new(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let value = if open == b'[' { self.array() } else { self.object() };
                self.depth -= 1;
                value
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(Error::new(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.eat(b'[')?;
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
                other => {
                    return Err(Error::new(format!(
                        "expected `,` or `]` at byte {}, found {:?}",
                        self.pos,
                        other.map(|b| b as char)
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.eat(b'{')?;
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
            self.eat(b':')?;
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
                other => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}` at byte {}, found {:?}",
                        self.pos,
                        other.map(|b| b as char)
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::new("unterminated string")),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| Error::new("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::new("bad \\u escape"))?;
                            // Surrogate pairs are not produced by our
                            // writer; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        other => {
                            return Err(Error::new(format!("bad escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or
                    // escape at once. Both delimiters are ASCII, so
                    // the run ends on a char boundary of the input.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
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
            .map_err(|_| Error::new("invalid number"))?;
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Int(n));
            }
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::new(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(from_str::<f32>("1.25").unwrap(), 1.25);
        assert!(from_str::<bool>("true").unwrap());
        assert_eq!(from_str::<String>("\"a\\nb\"").unwrap(), "a\nb");
    }

    #[test]
    fn f32_bit_exact_round_trip() {
        for &x in &[0.1f32, -1.0e-8, 3.402_823e38, 1.175_494e-38, 0.333_333_34] {
            let json = to_string(&x).unwrap();
            let back: f32 = from_str(&json).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {json} -> {back}");
        }
    }

    #[test]
    fn nan_serializes_as_null_and_parses_back_as_nan() {
        let json = to_string(&f32::NAN).unwrap();
        assert_eq!(json, "null");
        let back: f32 = from_str(&json).unwrap();
        assert!(back.is_nan());
    }

    #[test]
    fn nested_containers_round_trip() {
        let v: Vec<Vec<f32>> = vec![vec![1.0, 2.0], vec![], vec![3.5]];
        let json = to_string(&v).unwrap();
        assert_eq!(from_str::<Vec<Vec<f32>>>(&json).unwrap(), v);
    }

    #[test]
    fn pretty_output_is_parseable_and_indented() {
        let v = vec![1u32, 2, 3];
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains("\n  "));
        assert_eq!(from_str::<Vec<u32>>(&pretty).unwrap(), v);
    }

    #[test]
    fn reader_writer_round_trip() {
        let mut buf = Vec::new();
        to_writer(&mut buf, &vec![(1usize, 2usize)]).unwrap();
        let back: Vec<(usize, usize)> = from_reader(buf.as_slice()).unwrap();
        assert_eq!(back, vec![(1, 2)]);
    }

    #[test]
    fn strings_round_trip_escapes_multibyte_and_long_runs() {
        let cases = [
            "quote \" backslash \\ slash / newline \n tab \t cr \r bell \u{7} nul \0".to_string(),
            "wafer 晶圆 — Ωμ 🙂 mixed with ascii".to_string(),
            "x".repeat(1 << 20),
            format!("{}\"{}", "é".repeat(1000), "a".repeat(1000)),
        ];
        for s in cases {
            let json = to_string(&s).unwrap();
            assert_eq!(from_str::<String>(&json).unwrap(), s);
        }
        assert_eq!(from_str::<String>(r#""é\/\b\f""#).unwrap(), "é/\u{8}\u{c}");
    }

    #[test]
    fn nesting_depth_is_limited() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(from_str::<Value>(&nested(MAX_DEPTH)).is_ok());
        assert!(from_str::<Value>(&nested(MAX_DEPTH + 1)).is_err());
        let objects = format!("{}1{}", "{\"k\":".repeat(MAX_DEPTH + 1), "}".repeat(MAX_DEPTH + 1));
        assert!(from_str::<Value>(&objects).is_err());
        assert!(from_str::<Value>(&"[".repeat(1_000_000)).is_err());
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(from_str::<u64>("").is_err());
        assert!(from_str::<u64>("4 2").is_err());
        assert!(from_str::<Vec<u32>>("[1, 2").is_err());
        assert!(from_str::<String>("\"unterminated").is_err());
    }
}
