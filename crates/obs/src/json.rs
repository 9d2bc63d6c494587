//! A minimal, std-only JSON value: the one JSON writer and parser of
//! the stack. The newline-delimited check protocol, the CLI's `--json`
//! output, log records, Chrome traces and flight dumps are all built as
//! a [`Json`] and rendered by [`Json::render`].
//!
//! No serde in this workspace (the build image is offline), and the
//! protocol needs only a small well-behaved subset: objects keep their
//! insertion order (so responses render deterministically), numbers are
//! `i64` where integral and `f64` otherwise, and parsing is
//! depth-limited so a malicious request line cannot recurse the decoder
//! off the stack. Encoding always produces a single line (no raw
//! newlines — they are escaped), which is what makes one-request-per-line
//! framing sound.

use std::fmt;

/// A JSON value. Object members preserve insertion order.
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integral number.
    Int(i64),
    /// A non-integral number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (later duplicates win on lookup is
    /// NOT implemented — first match wins, duplicates are parser-legal).
    Obj(Vec<(String, Json)>),
}

/// Parse failure, with a byte offset into the input.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JsonError {
    /// What went wrong.
    pub message: &'static str,
    /// Byte offset of the failure.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

const MAX_DEPTH: u32 = 64;

impl Json {
    /// An object from key/value pairs (convenience for response builders).
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Member lookup on objects (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Member lookup along a path of object keys:
    /// `resp.get_in(&["error", "kind"])` ≡
    /// `resp.get("error").and_then(|e| e.get("kind"))`.
    pub fn get_in(&self, path: &[&str]) -> Option<&Json> {
        path.iter().try_fold(self, |v, key| v.get(key))
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if integral.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array payload.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses one JSON value from the whole input (trailing whitespace
    /// allowed, trailing garbage is an error).
    ///
    /// # Errors
    ///
    /// [`JsonError`] with the failing byte offset.
    pub fn parse(src: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: src.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(MAX_DEPTH)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }

    /// Renders to a single-line JSON string (newlines in payloads are
    /// escaped, so the output never spans lines).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Num(v) => {
                if v.is_finite() {
                    out.push_str(&format!("{v}"));
                } else {
                    out.push_str("null"); // JSON has no NaN/Inf
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            message,
            at: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, b: u8, message: &'static str) -> Result<(), JsonError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn lit(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: u32) -> Result<Json, JsonError> {
        if depth == 0 {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') if self.lit("null") => Ok(Json::Null),
            Some(b't') if self.lit("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.lit("false") => Ok(Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat(b']') {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth - 1)?);
                    self.skip_ws();
                    if self.eat(b']') {
                        return Ok(Json::Arr(items));
                    }
                    self.expect(b',', "expected `,` or `]`")?;
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.eat(b'}') {
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':', "expected `:`")?;
                    let v = self.value(depth - 1)?;
                    fields.push((key, v));
                    self.skip_ws();
                    if self.eat(b'}') {
                        return Ok(Json::Obj(fields));
                    }
                    self.expect(b',', "expected `,` or `}`")?;
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    /// Four hex digits at byte offset `at` (does not advance `pos`).
    fn hex4(&self, at: usize) -> Result<u32, JsonError> {
        let hex = self
            .bytes
            .get(at..at + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
        u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected string")?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hi = self.hex4(self.pos + 1)?;
                            self.pos += 4;
                            // JSON encodes non-BMP characters as a
                            // surrogate pair of \u escapes; combine a high
                            // surrogate with its following low surrogate.
                            // Unpaired halves (either order) → U+FFFD.
                            let cp = if (0xd800..0xdc00).contains(&hi)
                                && self.bytes.get(self.pos + 1) == Some(&b'\\')
                                && self.bytes.get(self.pos + 2) == Some(&b'u')
                            {
                                let lo = self.hex4(self.pos + 3)?;
                                if (0xdc00..0xe000).contains(&lo) {
                                    self.pos += 6;
                                    0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                                } else {
                                    hi
                                }
                            } else {
                                hi
                            };
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(&b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xc0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos]).expect("input is utf-8"),
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.eat(b'.') {
            integral = false;
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if !self.eat(b'+') {
                let _ = self.eat(b'-');
            }
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if integral {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_and_renders_round_trip() {
        let src =
            r#"{"cmd":"check","id":7,"nested":[1,-2,3.5,true,false,null,"a\nb"],"obj":{"k":"v"}}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(v.get("cmd").and_then(Json::as_str), Some("check"));
        assert_eq!(v.get("id").and_then(Json::as_i64), Some(7));
        assert_eq!(v.get("nested").unwrap().as_arr().unwrap().len(), 7);
        // render ∘ parse is the identity on the value.
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
        // rendered output is a single line even with embedded newlines.
        assert!(!v.render().contains('\n'));
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Json::obj([("z", Json::Int(1)), ("a", Json::Int(2))]);
        assert_eq!(v.render(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn escapes_round_trip() {
        let s = "quote\" backslash\\ newline\n tab\t unicode\u{1f600} ctrl\u{1}";
        let v = Json::Str(s.to_string());
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn surrogate_pairs_combine_and_unpaired_halves_degrade() {
        // A proper \uXXXX\uXXXX pair combines into one scalar.
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap(),
            Json::Str("😀".into())
        );
        // Pair in the middle of other content (U+1D465 𝑥).
        assert_eq!(
            Json::parse(r#""a\ud835\udc65b""#).unwrap(),
            Json::Str("a\u{1d465}b".into())
        );
        // Raw (unescaped) non-BMP characters pass straight through.
        assert_eq!(Json::parse("\"😀\"").unwrap(), Json::Str("😀".into()));
        // Unpaired high / low halves become U+FFFD, never a panic.
        assert_eq!(
            Json::parse(r#""\ud83dx""#).unwrap(),
            Json::Str("\u{fffd}x".into())
        );
        assert_eq!(
            Json::parse(r#""\ude00""#).unwrap(),
            Json::Str("\u{fffd}".into())
        );
        // High surrogate followed by a non-surrogate escape: both kept,
        // the high half degraded.
        assert_eq!(
            Json::parse(r#""\ud83dA""#).unwrap(),
            Json::Str("\u{fffd}A".into())
        );
    }

    #[test]
    fn unicode_escape_parses() {
        assert_eq!(Json::parse(r#""Aé""#).unwrap(), Json::Str("Aé".into()));
    }

    #[test]
    fn errors_are_positions_not_panics() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "\"unterminated",
            "01x",
            "{\"a\":1} trailing",
            "\u{1}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn deep_nesting_is_rejected() {
        let src = "[".repeat(100) + &"]".repeat(100);
        assert!(matches!(
            Json::parse(&src),
            Err(JsonError {
                message: "nesting too deep",
                ..
            })
        ));
    }

    #[test]
    fn numbers_classify_int_vs_float() {
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert!(matches!(Json::parse("1.5").unwrap(), Json::Num(v) if v == 1.5));
        assert!(matches!(Json::parse("1e3").unwrap(), Json::Num(v) if v == 1000.0));
    }

    /// Arbitrary Unicode strings biased toward the troublemakers: the
    /// whole ASCII block (quotes, backslashes, every control character)
    /// plus a spread across the BMP and astral planes.
    fn arb_string() -> impl Strategy<Value = String> {
        prop::collection::vec(
            prop_oneof![(0u32..0x80).boxed(), (0x80u32..0x11_0000).boxed(),],
            0..24,
        )
        .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_keys_and_values_round_trip(key in arb_string(), val in arb_string()) {
            let v = Json::Obj(vec![(key, Json::Str(val))]);
            let line = v.render();
            prop_assert!(!line.contains('\n'), "{line:?} spans lines");
            prop_assert_eq!(Json::parse(&line).unwrap(), v);
        }
    }
}
