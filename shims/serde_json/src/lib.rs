//! Offline stand-in for `serde_json`.
//!
//! JSON text ⇄ the serde shim's [`Value`] tree. Covers the API surface
//! this workspace uses: [`to_string`], [`to_string_pretty`], [`to_vec`],
//! [`to_vec_pretty`], [`from_str`], [`from_slice`], plus
//! [`value_to_string`] for a tree that is already built. Numbers round-trip
//! faithfully: integers stay integers, and floats are printed with
//! Rust's shortest round-trip formatting.

#![warn(missing_docs)]

use serde::{DeError, Deserialize, Num, Serialize, Value};
use std::fmt::{self, Write as _};

/// Serialization or parse error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.to_string())
    }
}

/// Serialize to compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    value_to_string(&value.serialize())
}

/// Write an already-built tree as compact JSON text. Same bytes as
/// [`to_string`] of the tree, without the copy `Value`'s own
/// [`Serialize`] impl makes.
pub fn value_to_string(value: &Value) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, value, None, 0)?;
    Ok(out)
}

/// Serialize to two-space-indented JSON text.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.serialize(), Some(2), 0)?;
    Ok(out)
}

/// Serialize to compact JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    to_string(value).map(String::into_bytes)
}

/// Serialize to pretty JSON bytes.
pub fn to_vec_pretty<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    to_string_pretty(value).map(String::into_bytes)
}

/// Deserialize from JSON text.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing data at byte {}", p.pos)));
    }
    Ok(T::deserialize(&v)?)
}

/// Deserialize from JSON bytes (must be UTF-8).
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let text = std::str::from_utf8(bytes).map_err(|e| Error::new(e.to_string()))?;
    from_str(text)
}

// -------------------------------------------------------------- writing

fn write_value(
    out: &mut String,
    v: &Value,
    indent: Option<usize>,
    depth: usize,
) -> Result<(), Error> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Num(n) => write_num(out, n)?,
        Value::Str(s) => write_string(out, s),
        Value::Seq(items) => {
            write_sequence(out, items.len(), indent, depth, '[', ']', |out, i, d| {
                write_value(out, &items[i], indent, d)
            })?
        }
        Value::Object(entries) => {
            write_sequence(out, entries.len(), indent, depth, '{', '}', |out, i, d| {
                let (k, val) = &entries[i];
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, d)
            })?
        }
    }
    Ok(())
}

/// Write a number in place: integers in decimal, floats in Rust's
/// shortest round-trip form.
fn write_num(out: &mut String, n: &Num) -> Result<(), Error> {
    match *n {
        Num::U(x) => write_digits(out, x),
        Num::I(x) => {
            if x < 0 {
                out.push('-');
            }
            write_digits(out, x.unsigned_abs());
        }
        Num::F(x) => {
            if !x.is_finite() {
                return Err(Error::new("cannot serialize non-finite float"));
            }
            let start = out.len();
            write!(out, "{x}").expect("writing to a String cannot fail");
            // Add `.0` to keep integral floats recognizable as floats.
            if !out[start..].contains(['.', 'e', 'E']) {
                out.push_str(".0");
            }
        }
    }
    Ok(())
}

/// Decimal digits of `x`, most significant first.
fn write_digits(out: &mut String, mut x: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
}

fn write_sequence(
    out: &mut String,
    len: usize,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    mut item: impl FnMut(&mut String, usize, usize) -> Result<(), Error>,
) -> Result<(), Error> {
    out.push(open);
    if len == 0 {
        out.push(close);
        return Ok(());
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        item(out, i, depth + 1)?;
    }
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
    out.push(close);
    Ok(())
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// -------------------------------------------------------------- parsing

/// How many arrays and objects a document may nest, as in serde_json:
/// the parser recurses once per level, so a deeper document is an
/// error, not a stack overflow.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Result<u8, Error> {
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::new("unexpected end of input"))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error::new(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek()? {
            b'n' => self.literal("null", Value::Null),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'"' => self.string().map(Value::Str),
            b'[' | b'{' if self.depth == MAX_DEPTH => Err(Error::new(format!(
                "recursion limit exceeded: more than {MAX_DEPTH} nested arrays or objects at byte {}",
                self.pos
            ))),
            b'[' => self.nested(Self::sequence),
            b'{' => self.nested(Self::object),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(Error::new(format!(
                "unexpected `{}` at byte {}",
                other as char, self.pos
            ))),
        }
    }

    /// Parse one array or object a level deeper.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn sequence(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                other => {
                    return Err(Error::new(format!(
                        "expected `,` or `]`, got `{}` at byte {}",
                        other as char, self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek()? == b'}' {
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
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                other => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}`, got `{}` at byte {}",
                        other as char, self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while self.peek()? != b'"' && self.bytes[self.pos] != b'\\' {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| Error::new(e.to_string()))?,
            );
            if self.bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1; // backslash
            let esc = self.peek()?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{0008}'),
                b'f' => out.push('\u{000c}'),
                b'u' => {
                    let hex = self
                        .bytes
                        .get(self.pos..self.pos + 4)
                        .ok_or_else(|| Error::new("truncated \\u escape"))?;
                    let code = u32::from_str_radix(
                        std::str::from_utf8(hex).map_err(|e| Error::new(e.to_string()))?,
                        16,
                    )
                    .map_err(|e| Error::new(e.to_string()))?;
                    self.pos += 4;
                    out.push(char::from_u32(code).ok_or_else(|| {
                        Error::new("invalid \\u escape (surrogates unsupported)")
                    })?);
                }
                other => {
                    return Err(Error::new(format!(
                        "invalid escape `\\{}` at byte {}",
                        other as char, self.pos
                    )))
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek()? == b'-' {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| Error::new(e.to_string()))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Num(Num::U(u)));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Num(Num::I(i)));
            }
        }
        text.parse::<f64>()
            .map(|f| Value::Num(Num::F(f)))
            .map_err(|e| Error::new(format!("bad number `{text}`: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_round_trips_through_text() {
        let v = Value::Object(vec![
            ("name".into(), Value::Str("wean \"trial\"\n".into())),
            ("count".into(), Value::Num(Num::U(18446744073709551615))),
            ("delta".into(), Value::Num(Num::I(-42))),
            ("ratio".into(), Value::Num(Num::F(0.1 + 0.2))),
            ("whole".into(), Value::Num(Num::F(1500.0))),
            ("flag".into(), Value::Bool(true)),
            ("gap".into(), Value::Null),
            (
                "items".into(),
                Value::Seq(vec![Value::Num(Num::U(1)), Value::Num(Num::U(2))]),
            ),
            ("empty".into(), Value::Seq(vec![])),
        ]);
        struct Raw(Value);
        impl Serialize for Raw {
            fn serialize(&self) -> Value {
                self.0.clone()
            }
        }
        impl Deserialize for Raw {
            fn deserialize(v: &Value) -> Result<Raw, DeError> {
                Ok(Raw(v.clone()))
            }
        }
        for text in [
            to_string(&Raw(v.clone())).unwrap(),
            to_string_pretty(&Raw(v.clone())).unwrap(),
        ] {
            let back: Raw = from_str(&text).unwrap();
            // Float-valued entries come back as the narrowest numeric
            // type; normalize 1500.0 → matches because we append `.0`.
            assert_eq!(back.0, v, "through {text}");
        }
    }

    #[test]
    fn numbers_write_as_display_did() {
        // The writer before numbers were written in place: `Display`,
        // plus `.0` on a float with no `.` or exponent.
        fn display_form(n: &Num) -> String {
            match *n {
                Num::U(x) => x.to_string(),
                Num::I(x) => x.to_string(),
                Num::F(x) => {
                    let s = x.to_string();
                    if s.contains(['.', 'e', 'E']) {
                        s
                    } else {
                        s + ".0"
                    }
                }
            }
        }
        let mut nums = vec![
            Num::U(0),
            Num::U(u64::MAX),
            Num::I(i64::MIN),
            Num::I(-1),
            Num::F(-0.0),
            Num::F(0.0),
            Num::F(5e-324),
            Num::F(1e21),
            Num::F(0.1 + 0.2),
            Num::F(f64::MAX),
            Num::F(f64::MIN_POSITIVE),
        ];
        for k in 0..=19 {
            let p = 10u64.pow(k);
            nums.extend([Num::U(p - 1), Num::U(p), Num::U(p + 1)]);
            if let Ok(q) = i64::try_from(p) {
                nums.extend([Num::I(1 - q), Num::I(-q), Num::I(-1 - q)]);
            }
            let f = p as f64;
            nums.extend([Num::F(f - 1.0), Num::F(f), Num::F(-f), Num::F(f + 0.5)]);
        }
        for x in [1.5e300, -2.0e-300, 123456789012345680000.0, -7.0, 4096.0] {
            nums.push(Num::F(x));
        }
        for n in &nums {
            let v = Value::Num(*n);
            assert_eq!(value_to_string(&v).unwrap(), display_form(n), "{n:?}");
        }
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(value_to_string(&Value::Num(Num::F(x))).is_err());
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(from_str::<bool>("true false").is_err());
        assert!(from_str::<u64>("12,").is_err());
    }

    #[test]
    fn nesting_is_limited_to_128_levels() {
        for (open, inner, close) in [("[", "", "]"), ("{\"k\":", "0", "}")] {
            let doc = |depth: usize| open.repeat(depth) + inner + &close.repeat(depth);
            assert!(from_str::<Value>(&doc(128)).is_ok(), "{open} x 128");
            let err = from_str::<Value>(&doc(129)).unwrap_err().to_string();
            assert!(err.contains("recursion limit exceeded"), "{err}");
            // Far past the limit the parser still stops at level 129.
            assert!(from_str::<Value>(&doc(50_000)).is_err(), "{open} x 50 000");
        }
    }

    #[test]
    fn parses_escapes() {
        let s: String = from_str("\"a\\u0041\\n\\\"b\\\\\"").unwrap();
        assert_eq!(s, "aA\n\"b\\");
    }
}
