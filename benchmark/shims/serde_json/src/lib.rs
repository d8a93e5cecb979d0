//! Offline stand-in for `serde_json`: `to_string`, `to_vec`, `from_str`,
//! `from_slice` and `Error` — the surface the BlendHouse library crates use —
//! over the serde shim's [`Content`] tree. Output is compact JSON with the
//! number formatting of real serde_json (shortest round-trip floats,
//! non-finite floats as `null`).

use serde::de::DeserializeOwned;
use serde::{Content, Deserializer, Serialize, Serializer};
use std::fmt;

/// A rendering or parsing failure.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl serde::ser::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

impl serde::de::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

pub type Result<T> = std::result::Result<T, Error>;

// ------------------------------------------------------------------ render

struct JsonSerializer;

impl Serializer for JsonSerializer {
    type Ok = String;
    type Error = Error;
    fn serialize_content(self, content: Content) -> Result<String> {
        let mut out = String::new();
        render(&content, &mut out);
        Ok(out)
    }
}

fn render_str(s: &str, out: &mut String) {
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn render(c: &Content, out: &mut String) {
    use fmt::Write;
    match c {
        Content::Null => out.push_str("null"),
        Content::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Content::U64(v) => write!(out, "{v}").expect("string write"),
        Content::I64(v) => write!(out, "{v}").expect("string write"),
        // `{:?}` on a float is the shortest digit string that round-trips
        // and always carries a `.` or exponent, so it parses back as float.
        Content::F32(v) if v.is_finite() => write!(out, "{v:?}").expect("string write"),
        Content::F64(v) if v.is_finite() => write!(out, "{v:?}").expect("string write"),
        Content::F32(_) | Content::F64(_) => out.push_str("null"),
        Content::Str(s) => render_str(s, out),
        Content::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(item, out);
            }
            out.push(']');
        }
        Content::Map(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_str(k, out);
                out.push(':');
                render(v, out);
            }
            out.push('}');
        }
    }
}

/// Serialize to a compact JSON string.
pub fn to_string<T: ?Sized + Serialize>(value: &T) -> Result<String> {
    value.serialize(JsonSerializer)
}

/// Serialize to compact JSON bytes.
pub fn to_vec<T: ?Sized + Serialize>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

// ------------------------------------------------------------------- parse

/// Nesting bound, as in real serde_json, so hostile input cannot overflow
/// the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: &str) -> Result<T> {
        Err(Error(format!("{msg} at byte {}", self.pos)))
    }

    fn skip_ws(&mut self) {
        while matches!(self.src.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn eat_lit(&mut self, lit: &str, value: Content) -> Result<Content> {
        if self.src[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            self.err("invalid literal")
        }
    }

    fn value(&mut self, depth: usize) -> Result<Content> {
        if depth > MAX_DEPTH {
            return self.err("nesting too deep");
        }
        self.skip_ws();
        match self.src.get(self.pos).copied() {
            None => self.err("unexpected end of input"),
            Some(b'n') => self.eat_lit("null", Content::Null),
            Some(b't') => self.eat_lit("true", Content::Bool(true)),
            Some(b'f') => self.eat_lit("false", Content::Bool(false)),
            Some(b'"') => self.string().map(Content::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.src.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Content::Seq(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.src.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Content::Seq(items));
                        }
                        _ => return self.err("expected ',' or ']'"),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.src.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Content::Map(fields));
                }
                loop {
                    self.skip_ws();
                    if self.src.get(self.pos) != Some(&b'"') {
                        return self.err("expected a string key");
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    if self.src.get(self.pos) != Some(&b':') {
                        return self.err("expected ':'");
                    }
                    self.pos += 1;
                    fields.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    match self.src.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Content::Map(fields));
                        }
                        _ => return self.err("expected ',' or '}'"),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => self.err("unexpected character"),
        }
    }

    fn number(&mut self) -> Result<Content> {
        let start = self.pos;
        let mut is_float = false;
        while let Some(&b) = self.src.get(self.pos) {
            match b {
                b'0'..=b'9' | b'-' | b'+' => {}
                b'.' | b'e' | b'E' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii digits");
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Content::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Content::I64(v));
            }
        }
        match text.parse::<f64>() {
            Ok(v) => Ok(Content::F64(v)),
            Err(_) => {
                self.pos = start;
                self.err("invalid number")
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let Some(digits) = self.src.get(self.pos..self.pos + 4) else {
            return self.err("truncated \\u escape");
        };
        let text = std::str::from_utf8(digits).map_err(|_| Error("bad \\u escape".into()))?;
        let v = u32::from_str_radix(text, 16).map_err(|_| Error("bad \\u escape".into()))?;
        self.pos += 4;
        Ok(v)
    }

    fn string(&mut self) -> Result<String> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.src.get(self.pos), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            match std::str::from_utf8(&self.src[start..self.pos]) {
                Ok(s) => out.push_str(s),
                Err(_) => return self.err("invalid UTF-8 in string"),
            }
            match self.src.get(self.pos) {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    let Some(&esc) = self.src.get(self.pos) else {
                        return self.err("unterminated escape");
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'u' => {
                            let mut cp = self.hex4()?;
                            if (0xD800..0xDC00).contains(&cp)
                                && self.src[self.pos..].starts_with(b"\\u")
                            {
                                self.pos += 2;
                                let lo = self.hex4()?;
                                cp = 0x10000
                                    + ((cp - 0xD800) << 10)
                                    + (lo.wrapping_sub(0xDC00) & 0x3FF);
                            }
                            match char::from_u32(cp) {
                                Some(c) => out.push(c),
                                None => return self.err("invalid \\u escape"),
                            }
                        }
                        _ => return self.err("unknown escape"),
                    }
                }
            }
        }
    }
}

struct JsonDeserializer<'a>(&'a [u8]);

impl<'de, 'a> Deserializer<'de> for JsonDeserializer<'a> {
    type Error = Error;
    fn into_content(self) -> Result<Content> {
        let mut p = Parser { src: self.0, pos: 0 };
        let c = p.value(0)?;
        p.skip_ws();
        if p.pos != p.src.len() {
            return p.err("trailing characters");
        }
        Ok(c)
    }
}

/// Deserialize from JSON bytes.
pub fn from_slice<T: DeserializeOwned>(bytes: &[u8]) -> Result<T> {
    T::deserialize(JsonDeserializer(bytes))
}

/// Deserialize from a JSON string.
pub fn from_str<T: DeserializeOwned>(s: &str) -> Result<T> {
    from_slice(s.as_bytes())
}
