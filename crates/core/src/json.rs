//! A minimal, dependency-free JSON value with a canonical writer.
//!
//! The workspace builds offline and carries no serde, so the serve
//! subsystem (job specs over HTTP, the on-disk result cache, the memo
//! persistence file) hand-rolls its JSON through this module. A hot-tier
//! hit parses a job spec and writes its canonical text on every request,
//! so both directions work on runs of bytes rather than on single
//! characters, under two properties that no speed-up may trade away:
//!
//! * **Canonical output** — objects are [`std::collections::BTreeMap`]s,
//!   so serialization is key-sorted and byte-deterministic. The serve
//!   cache key is a hash of this canonical text, so one changed byte
//!   orphans every stored result and memo entry.
//! * **Exact numeric round-trips** — integers stay [`Json::Int`]
//!   end-to-end, and floats are written with Rust's shortest-round-trip
//!   `Display`, so `parse(write(v)) == v` bit-for-bit. Cached simulation
//!   results reload without drift.
//!
//! There is one serializer, [`Json::write_to`]: it appends into a single
//! `String`, copying each unescaped run of a string in one `push_str`,
//! and [`fmt::Display`] delegates to it. The parser likewise copies runs
//! of plain ASCII out of a string literal in one step. The tests keep the
//! character-at-a-time formatter and the byte-at-a-time string scanner
//! these replaced as oracles, and check both fast paths against them
//! byte for byte; `crates/serve/tests/wire_pins.rs` pins the cache keys
//! and response bytes the writer produces.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use crate::error::Error;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written without `.`/`e` — kept exact as an integer.
    Int(i64),
    /// A number with a fractional or exponent part.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (key-sorted, for canonical serialization).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a float ([`Json::Int`] widens losslessly).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(i) => Some(i as f64),
            Json::Num(n) => Some(n),
            _ => None,
        }
    }

    /// The value as an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Int(i) => u64::try_from(i).ok(),
            _ => None,
        }
    }

    /// The value as a usize.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an object map (key-sorted).
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Parses JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] on malformed input, trailing garbage, or
    /// nesting deeper than 64 levels (the parser is recursive and may face
    /// untrusted network input).
    pub fn parse(text: &str) -> Result<Json, Error> {
        let mut p = Parser::new(text);
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(Error::Parse(format!(
                "trailing characters at byte {}",
                p.pos
            )));
        }
        Ok(v)
    }

    /// Appends the canonical text of `self` to `out`: the one JSON
    /// serializer ([`fmt::Display`] delegates here). Pre-size `out` when
    /// the length is roughly known, and the whole document is written
    /// without a reallocation.
    pub fn write_to(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Writing into a `String` cannot fail.
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(n) => write_float(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(a) => {
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_to(out);
                }
                out.push(']');
            }
            Json::Obj(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_to(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_to(&mut out);
        f.write_str(&out)
    }
}

fn write_float(out: &mut String, n: f64) {
    if !n.is_finite() {
        // Job specs reject non-finite numbers before they get here; null
        // keeps the output valid JSON regardless.
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{n}");
    // Keep the int/float distinction round-trippable: a float that
    // prints like an integer gets a ".0" suffix.
    let written = out.as_bytes().get(start..).unwrap_or_default();
    if !written.iter().any(|b| matches!(b, b'.' | b'e' | b'E')) {
        out.push_str(".0");
    }
}

/// Writes `s` as a JSON string literal. Only `"`, `\` and bytes below
/// 0x20 are escaped; each is a one-byte char, so every unescaped run
/// between them starts and ends on a char boundary and is copied whole.
fn write_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(s.get(run..i).unwrap_or_default());
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        run = i + 1;
    }
    out.push_str(s.get(run..).unwrap_or_default());
    out.push('"');
}

/// The character-at-a-time formatter [`Json::write_to`] replaced, kept as
/// the byte-identity oracle for it.
#[cfg(test)]
struct FormatterOracle<'a>(&'a Json);

#[cfg(test)]
impl fmt::Display for FormatterOracle<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Num(n) => {
                if !n.is_finite() {
                    return f.write_str("null");
                }
                let s = format!("{n}");
                f.write_str(&s)?;
                if !s.contains('.') && !s.contains('e') && !s.contains('E') {
                    f.write_str(".0")?;
                }
                Ok(())
            }
            Json::Str(s) => write_escaped_oracle(f, s),
            Json::Arr(a) => {
                f.write_str("[")?;
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}", FormatterOracle(v))?;
                }
                f.write_str("]")
            }
            Json::Obj(m) => {
                f.write_str("{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped_oracle(f, k)?;
                    write!(f, ":{}", FormatterOracle(v))?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
fn write_escaped_oracle(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn err(&self, msg: &str) -> Error {
        Error::Parse(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, Error> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, Error> {
        self.expect_byte(b'[')?;
        self.depth += 1;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, Error> {
        self.expect_byte(b'{')?;
        self.depth += 1;
        let mut out = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let val = self.value()?;
            out.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(out));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain ASCII up to the next byte that needs
            // a look of its own; a run never splits a char.
            let rest = self.bytes.get(self.pos..).unwrap_or_default();
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || !(0x20..0x80).contains(&b))
                .unwrap_or(rest.len());
            out.push_str(self.text.get(self.pos..self.pos + run).unwrap_or_default());
            self.pos += run;
            if self.string_step(&mut out)? {
                return Ok(out);
            }
        }
    }

    /// The byte-at-a-time scanner [`Parser::string`] replaced, kept as
    /// the oracle for its run copy.
    #[cfg(test)]
    fn string_oracle(&mut self) -> Result<String, Error> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        while !self.string_step(&mut out)? {}
        Ok(out)
    }

    /// Consumes one step of a string literal: the closing quote (returns
    /// `true`), one escape, or one whole UTF-8 char.
    fn string_step(&mut self, out: &mut String) -> Result<bool, Error> {
        let Some(b) = self.peek() else {
            return Err(self.err("unterminated string"));
        };
        self.pos += 1;
        match b {
            b'"' => return Ok(true),
            b'\\' => {
                let Some(esc) = self.peek() else {
                    return Err(self.err("unterminated escape"));
                };
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
                        let hi = self.hex4()?;
                        let c = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: expect \uXXXX low half.
                            if self.bytes[self.pos..].starts_with(b"\\u") {
                                self.pos += 2;
                                let lo = self.hex4()?;
                                let code = 0x10000
                                    + ((hi - 0xD800) << 10)
                                    + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                char::from_u32(code)
                            } else {
                                None
                            }
                        } else {
                            char::from_u32(hi)
                        };
                        out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                    }
                    _ => return Err(self.err("unknown escape")),
                }
            }
            b if b < 0x20 => return Err(self.err("control character in string")),
            _ => {
                // Re-decode from the original UTF-8 text.
                let start = self.pos - 1;
                let mut end = self.pos;
                while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                    end += 1;
                }
                let chunk = std::str::from_utf8(&self.bytes[start..end])
                    .map_err(|_| self.err("invalid utf-8"))?;
                out.push_str(chunk);
                self.pos = end;
            }
        }
        Ok(false)
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
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
            .map_err(|_| self.err("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| self.err("invalid number"))
        } else {
            // Integers too large for i64 fall back to f64 like upstream
            // parsers do.
            match text.parse::<i64>() {
                Ok(i) => Ok(Json::Int(i)),
                Err(_) => text
                    .parse::<f64>()
                    .map(Json::Num)
                    .map_err(|_| self.err("invalid number")),
            }
        }
    }
}

/// 64-bit FNV-1a over `bytes`, from an arbitrary basis. Two passes with
/// different bases give the serve cache its 128-bit content key.
pub fn fnv1a_64(bytes: &[u8], basis: u64) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = basis;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn roundtrips_scalars() {
        for text in ["null", "true", "false", "0", "-42", "3.5", "1.0e-3"] {
            let v = Json::parse(text).unwrap();
            let back = Json::parse(&v.to_string()).unwrap();
            assert_eq!(v, back, "{text}");
        }
    }

    #[test]
    fn ints_and_floats_stay_distinct() {
        assert_eq!(Json::parse("64").unwrap(), Json::Int(64));
        assert_eq!(Json::parse("64.0").unwrap(), Json::Num(64.0));
        assert_eq!(Json::Num(64.0).to_string(), "64.0");
        assert_eq!(Json::Int(64).to_string(), "64");
    }

    #[test]
    fn float_roundtrip_is_exact() {
        for v in [0.1, 1.0 / 3.0, f64::MAX, 5e-324, -0.75] {
            let text = Json::Num(v).to_string();
            match Json::parse(&text).unwrap() {
                Json::Num(back) => assert_eq!(v.to_bits(), back.to_bits(), "{text}"),
                other => panic!("expected float, got {other:?}"),
            }
        }
    }

    #[test]
    fn objects_serialize_key_sorted() {
        let v = Json::parse(r#"{"b":1,"a":2}"#).unwrap();
        assert_eq!(v.to_string(), r#"{"a":2,"b":1}"#);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let v = Json::Str("a\"b\\c\nd\tü€".into());
        let back = Json::parse(&v.to_string()).unwrap();
        assert_eq!(v, back);
        let surrogate = Json::parse(r#""😀""#).unwrap();
        assert_eq!(surrogate.as_str(), Some("\u{1F600}"));
    }

    #[test]
    fn nested_structures_parse() {
        let v = Json::parse(r#"{"a":[1,{"b":[true,null]}],"c":"x"}"#).unwrap();
        assert_eq!(
            v.get("a").and_then(|a| a.as_arr()).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
    }

    #[test]
    fn rejects_malformed_input() {
        for text in [
            "", "{", "[1,", "{\"a\"}", "nul", "1 2", "\"abc", "{\"a\":}", "+5",
        ] {
            assert!(Json::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn rejects_bomb_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn fnv_distinguishes_inputs() {
        let a = fnv1a_64(b"abc", 0xcbf29ce484222325);
        let b = fnv1a_64(b"abd", 0xcbf29ce484222325);
        assert_ne!(a, b);
        assert_ne!(a, fnv1a_64(b"abc", 0x9747b28c9747b28c));
    }

    /// A splitmix64 stream for the random documents below.
    pub(crate) struct Rng(pub(crate) u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Chars the writer must copy or escape with care: both escaped
    /// ASCII bytes, DEL, `/`, and one- to four-byte UTF-8.
    const CHARS: &[char] = &[
        '"',
        '\\',
        '/',
        '\u{7f}',
        '\u{80}',
        'é',
        '€',
        '\u{ffff}',
        '😀',
        '\u{10ffff}',
        ' ',
        'a',
        'Z',
        '0',
        '.',
        'e',
    ];

    /// Floats whose shortest form is hard: signed zero, the smallest
    /// subnormal, the thresholds where `Display` keeps digits, floats that
    /// print like integers, and the non-finite values that print `null`.
    const FLOATS: &[f64] = &[
        0.0,
        -0.0,
        5e-324,
        1e21,
        1e-7,
        64.0,
        0.75,
        -1.5,
        1e16,
        f64::MAX,
        f64::MIN_POSITIVE,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];

    fn random_string(rng: &mut Rng) -> String {
        (0..rng.below(12))
            .map(|_| match rng.below(4) {
                // Every control byte, \n \r \t among them.
                0 => char::from(rng.below(0x20) as u8),
                1 => CHARS[rng.below(CHARS.len())],
                2 => char::from_u32(rng.below(0x11_0000) as u32).unwrap_or('\u{fffd}'),
                _ => char::from(0x20 + rng.below(0x5f) as u8),
            })
            .collect()
    }

    fn random_float(rng: &mut Rng) -> f64 {
        match rng.below(3) {
            0 => FLOATS[rng.below(FLOATS.len())],
            1 => f64::from_bits(rng.next()),
            _ => (rng.next() % 100_000) as f64 / [1.0, 8.0, 1000.0][rng.below(3)],
        }
    }

    /// A random document at most `depth` containers deep.
    pub(crate) fn random_json(rng: &mut Rng, depth: usize) -> Json {
        match rng.below(if depth == 0 { 5 } else { 7 }) {
            0 => [Json::Null, Json::Bool(true), Json::Bool(false)][rng.below(3)].clone(),
            1 => Json::Int(match rng.below(3) {
                0 => [i64::MIN, i64::MAX, 0, -1][rng.below(4)],
                1 => rng.next() as i64,
                _ => (rng.next() % 1000) as i64,
            }),
            2 | 3 => Json::Num(random_float(rng)),
            4 => Json::Str(random_string(rng)),
            5 => Json::Arr(
                (0..rng.below(5))
                    .map(|_| random_json(rng, depth - 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.below(5))
                    .map(|_| (random_string(rng), random_json(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// `c` as a `\u` escape (a surrogate pair above the BMP), in either
    /// hex case.
    fn unicode_escape(c: char, upper: bool, out: &mut String) {
        let mut units = [0u16; 2];
        for unit in c.encode_utf16(&mut units) {
            if upper {
                out.push_str(&format!("\\u{unit:04X}"));
            } else {
                out.push_str(&format!("\\u{unit:04x}"));
            }
        }
    }

    fn noisy_string(s: &str, rng: &mut Rng, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match (c, rng.below(4)) {
                (_, 0) => unicode_escape(c, rng.below(2) == 0, out),
                ('/', 1) => out.push_str("\\/"),
                ('\u{8}', 1) => out.push_str("\\b"),
                ('\u{c}', 1) => out.push_str("\\f"),
                ('"' | '\\' | '\n' | '\r' | '\t', _) => {
                    let mut quoted = String::new();
                    write_escaped(&mut quoted, &c.to_string());
                    out.push_str(&quoted[1..quoted.len() - 1]);
                }
                (c, _) if (c as u32) < 0x20 => unicode_escape(c, false, out),
                (c, _) => out.push(c),
            }
        }
        out.push('"');
    }

    fn noisy_ws(rng: &mut Rng, out: &mut String) {
        out.push_str(["", "", " ", "\n", "\t", "\r\n", "  \t"][rng.below(7)]);
    }

    /// `v` as a client might send it: whitespace between tokens, members
    /// in a rotated order, and strings spelled with equivalent escapes
    /// (`A` for `A`, `\/` for `/`, surrogate pairs). It parses back
    /// to `v`, so it must hash like `v`.
    pub(crate) fn noisy_text(v: &Json, rng: &mut Rng) -> String {
        let mut out = String::new();
        noisy_value(v, rng, &mut out);
        out
    }

    fn noisy_value(v: &Json, rng: &mut Rng, out: &mut String) {
        noisy_ws(rng, out);
        match v {
            Json::Str(s) => noisy_string(s, rng, out),
            Json::Arr(a) => {
                out.push('[');
                for (i, item) in a.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    noisy_value(item, rng, out);
                }
                noisy_ws(rng, out);
                out.push(']');
            }
            Json::Obj(m) => {
                out.push('{');
                let mut members: Vec<_> = m.iter().collect();
                let len = members.len();
                members.rotate_left(if len == 0 { 0 } else { rng.below(len) });
                for (i, (k, item)) in members.into_iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    noisy_ws(rng, out);
                    noisy_string(k, rng, out);
                    noisy_ws(rng, out);
                    out.push(':');
                    noisy_value(item, rng, out);
                }
                noisy_ws(rng, out);
                out.push('}');
            }
            scalar => scalar.write_to(out),
        }
        noisy_ws(rng, out);
    }

    /// Writes a random document after a prefix holding `.` and `e` (the
    /// float suffix check must look only at its own bytes) and compares
    /// with the formatter oracle.
    fn writer_matches_oracle_on(seed: u64) {
        let v = random_json(&mut Rng(seed), 4);
        let mut out = String::from("e.");
        v.write_to(&mut out);
        let oracle = FormatterOracle(&v).to_string();
        assert_eq!(out.get(2..), Some(oracle.as_str()), "{v:?}");
        assert_eq!(v.to_string(), oracle, "{v:?}");
    }

    /// Runs the run-copying scanner and the byte-at-a-time oracle from
    /// every quote in `text` and demands the same string or the same
    /// error, ending at the same byte.
    fn scanners_agree_on(text: &str) {
        for (start, _) in text.match_indices('"') {
            let mut fast = Parser::new(text);
            let mut oracle = Parser::new(text);
            fast.pos = start;
            oracle.pos = start;
            let got = fast.string();
            let want = oracle.string_oracle();
            assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "{text:?} from {start}"
            );
            assert_eq!(fast.pos, oracle.pos, "{text:?} from {start}");
        }
    }

    #[test]
    fn writer_matches_oracle_on_edge_values() {
        let mut controls: String = (0u8..0x20).map(char::from).collect();
        controls.push_str("\"\\/\u{7f}\u{80}é€😀\u{10ffff}");
        let mut values = vec![
            Json::Str(controls.clone()),
            Json::Str(String::new()),
            Json::Int(i64::MIN),
            Json::Int(i64::MAX),
            Json::obj([("k", Json::Str(controls))]),
        ];
        values.extend(FLOATS.iter().map(|&x| Json::Num(x)));
        for v in &values {
            let mut out = String::from("1.");
            v.write_to(&mut out);
            assert_eq!(out, format!("1.{}", FormatterOracle(v)), "{v:?}");
        }
        assert_eq!(Json::Num(-0.0).to_string(), "-0.0");
        assert_eq!(Json::Num(1e21).to_string(), "1000000000000000000000.0");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(
            Json::str("\u{1}\u{1f}\u{7f}").to_string(),
            "\"\\u0001\\u001f\u{7f}\""
        );
    }

    #[test]
    fn nesting_is_refused_past_64_levels() {
        let nested = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
        assert!(Json::parse(&nested("[", "]", 64)).is_ok());
        assert!(Json::parse(&nested("[", "]", 65)).is_err());
        assert!(Json::parse(&nested("{\"a\":", "}", 63).replace("\"a\":}", "\"a\":1}")).is_ok());
        assert!(Json::parse(&(nested("{\"a\":", "}", 64).replace("\"a\":}", "\"a\":1}"))).is_err());
        assert!(Json::parse(&(nested("[", "]", 64).replace("[]", "[1]"))).is_err());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn writer_matches_formatter_oracle(seed in 0u64..u64::MAX) {
            writer_matches_oracle_on(seed);
        }

        /// A document re-sent with other whitespace, member order and
        /// escapes parses to the same value; each of its strict prefixes
        /// (a body cut short by a split read) is refused, never read as
        /// another document; random and mangled bytes are refused or
        /// parsed, never a panic; and the run-copying string scanner
        /// agrees with the oracle on all of it.
        #[test]
        fn split_and_hostile_bytes_parse_or_fail_cleanly(
            seed in 0u64..u64::MAX,
            bytes in proptest::collection::vec(0u8..=255, 0..96),
            flips in proptest::collection::vec((0usize..4096, 0u8..=255), 1..4),
        ) {
            let mut rng = Rng(seed);
            // An object, so that no strict prefix is itself a document.
            let v = Json::Obj(
                (0..1 + rng.below(4))
                    .map(|_| (random_string(&mut rng), random_json(&mut rng, 3)))
                    .collect(),
            );
            let canonical = v.to_string();
            let text = noisy_text(&v, &mut rng);
            let text = text.trim_end();
            let back = Json::parse(text).unwrap_or_else(|e| panic!("{e}: {text:?}"));
            proptest::prop_assert_eq!(back.to_string(), canonical.as_str(), "{:?}", text);
            scanners_agree_on(text);
            for (cut, _) in text.char_indices().skip(1) {
                let prefix = &text[..cut];
                proptest::prop_assert!(Json::parse(prefix).is_err(), "{:?} parsed", prefix);
            }

            let mut mangled = text.as_bytes().to_vec();
            for &(at, b) in &flips {
                let at = at % mangled.len();
                mangled[at] = b;
            }
            for raw in [bytes, mangled] {
                let lossy = String::from_utf8_lossy(&raw);
                scanners_agree_on(&lossy);
                if let Ok(parsed) = Json::parse(&lossy) {
                    // Whatever parses writes back to text that parses to
                    // the same document.
                    let again = Json::parse(&parsed.to_string()).unwrap();
                    proptest::prop_assert_eq!(again.to_string(), parsed.to_string());
                }
            }
        }

        #[test]
        fn scanner_matches_oracle_on_escape_soup(
            picks in proptest::collection::vec(0usize..24, 0..40),
        ) {
            const PIECES: [&str; 24] = [
                "\"", "\\", "\\\"", "\\\\", "\\/", "\\b", "\\n", "\\u0041", "\\uD83D\\uDE00",
                "\\ud800", "\\uDC00", "\\u12", "\\u+041", "\\x", "\u{1}", "\t", "\u{7f}", "é",
                "😀", "a", "plain run ", "\\uD800\\u0041", "}", "\\u00e9",
            ];
            let text: String = std::iter::once("\"")
                .chain(picks.iter().map(|&i| PIECES[i]))
                .collect();
            scanners_agree_on(&text);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(20_000))]

        /// [`writer_matches_formatter_oracle`] at 20 K cases; CI runs it
        /// in release mode with `-- --ignored`.
        #[test]
        #[ignore = "deep oracle run, 20 K cases; run in release mode"]
        fn writer_matches_formatter_oracle_deep(seed in 0u64..u64::MAX) {
            writer_matches_oracle_on(seed);
        }
    }
}
