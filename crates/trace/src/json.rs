//! A deterministic JSON writer and a strict parser.
//!
//! The store replays cached response *bytes*, so freshly rendered JSON
//! must be byte-identical to what an earlier process rendered from the
//! same (deterministic) pipeline output. This writer guarantees that:
//! object members keep insertion order, floats use Rust's shortest
//! round-trip `Display` (stable across runs and platforms), and
//! non-finite floats — not representable in JSON — become `null`.
//!
//! [`Json::parse`] is the inverse: a strict recursive-descent parser
//! (no trailing garbage, no unknown escapes, bounded depth) used by
//! `fgbs trace summary` to validate emitted Chrome traces. Rendered
//! output round-trips render-stably: `Json::parse(&j.render())` yields
//! a value that renders to the same bytes (integral floats reparse as
//! integers; non-finite floats render as `null`).

use std::fmt::Write as _;

/// Maximum nesting depth [`Json::parse`] accepts.
const MAX_DEPTH: usize = 256;

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (counters, sizes).
    U64(u64),
    /// A float; non-finite values render as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; members render in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Render to a compact JSON string (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Member lookup on an object (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value as `f64` (accepts both integer and float nodes).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(v) => Some(*v as f64),
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Integer value (floats only if they are exact non-negative ints).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// String value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array items.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parse a complete JSON document. Strict: rejects trailing
    /// garbage, malformed escapes, lone surrogates, leading zeros and
    /// nesting deeper than an internal bound. Non-negative integers
    /// without a fraction or exponent parse as [`Json::U64`]; all other
    /// numbers as [`Json::Num`].
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Num(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
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
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
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
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
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

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value(depth + 1)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // High surrogate: a low surrogate must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code =
                                    0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(hi)
                                    .ok_or_else(|| self.err("lone low surrogate"))?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character")),
                Some(_) => {
                    // Copy the run up to the next quote, backslash or
                    // control byte in one piece. Those stop bytes are
                    // ASCII, so the run ends on a char boundary; checking
                    // only the run keeps parsing linear in the input.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                        .unwrap_or(rest.len());
                    let run =
                        std::str::from_utf8(&rest[..len]).map_err(|_| self.err("bad utf-8"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // Integer part: no leading zeros.
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    return Err(self.err("leading zero"));
                }
            }
            Some(c) if c.is_ascii_digit() => {
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("expected digit")),
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("expected fraction digit"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("expected exponent digit"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if integral && !negative {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_and_ordered() {
        let j = Json::obj(vec![
            ("b", Json::U64(2)),
            ("a", Json::Arr(vec![Json::Num(1.5), Json::Null, Json::Bool(true)])),
        ]);
        assert_eq!(j.render(), r#"{"b":2,"a":[1.5,null,true]}"#);
    }

    #[test]
    fn floats_are_shortest_round_trip_and_nan_is_null() {
        assert_eq!(Json::Num(3.0).render(), "3");
        assert_eq!(Json::Num(0.1).render(), "0.1");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn strings_escape_controls() {
        assert_eq!(Json::str("a\"b\\c\nd\u{1}").render(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn rendering_is_deterministic() {
        let j = Json::obj(vec![("x", Json::Num(1.0 / 3.0)), ("y", Json::str("é"))]);
        assert_eq!(j.render(), j.clone().render());
    }

    #[test]
    fn parses_what_it_renders() {
        let j = Json::obj(vec![
            ("name", Json::str("stage.reduce")),
            ("ts", Json::Num(12.375)),
            ("n", Json::U64(42)),
            ("big", Json::U64(u64::MAX)),
            ("neg", Json::Num(-7.0)),
            ("none", Json::Null),
            ("ok", Json::Bool(false)),
            ("items", Json::Arr(vec![Json::U64(1), Json::str("a\"b\nc\u{1}é")])),
            ("nested", Json::obj(vec![("deep", Json::Arr(vec![]))])),
        ]);
        assert_eq!(Json::parse(&j.render()), Ok(j));
    }

    #[test]
    fn parses_whitespace_escapes_and_surrogates() {
        let j = Json::parse(" { \"a\" : [ 1 , -2.5e3 ,\t\"\\u0041\\ud83d\\ude00\" ] } ")
            .unwrap();
        assert_eq!(
            j,
            Json::obj(vec![(
                "a",
                Json::Arr(vec![Json::U64(1), Json::Num(-2500.0), Json::str("A😀")])
            )])
        );
    }

    #[test]
    fn long_documents_parse_in_linear_time() {
        // 20,000 trace-shaped events, about 2 MB, within seconds. A
        // parser that re-validates the rest of the input for every char
        // takes about a minute here.
        let event = r#"{"name":"cluster.distance","ph":"X","ts":12.5,"dur":3.25,"pid":1,"tid":2,"args":{"observations":67}}"#;
        let doc = format!("[{}]", vec![event; 20_000].join(","));
        let start = std::time::Instant::now();
        let parsed = Json::parse(&doc).expect("valid document");
        assert!(start.elapsed().as_secs() < 5, "took {:?}", start.elapsed());
        assert_eq!(parsed.as_arr().map(|a| a.len()), Some(20_000));
        // A 1 MiB string with a multi-byte char and escapes round-trips.
        let mut long = "x".repeat(1 << 20);
        long.insert_str(1 << 19, "é\"\n");
        let j = Json::Arr(vec![Json::str(long)]);
        assert_eq!(Json::parse(&j.render()), Ok(j));
    }

    #[test]
    fn integer_float_split() {
        assert_eq!(Json::parse("7"), Ok(Json::U64(7)));
        assert_eq!(Json::parse("7.0"), Ok(Json::Num(7.0)));
        assert_eq!(Json::parse("-7"), Ok(Json::Num(-7.0)));
        assert_eq!(Json::parse("1e2"), Ok(Json::Num(100.0)));
    }

    #[test]
    fn strict_rejections() {
        for bad in [
            "", "{", "[1,]", "{\"a\":}", "01", "1 2", "\"\\x\"", "\"unterminated",
            "nul", "+1", "1.", "{a:1}", "\"\\ud800\"", "[1]]",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn accessors() {
        let j = Json::parse(r#"{"s":"x","n":3,"f":1.5,"a":[true]}"#).unwrap();
        assert_eq!(j.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(j.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(j.get("n").and_then(Json::as_f64), Some(3.0));
        assert_eq!(j.get("f").and_then(Json::as_f64), Some(1.5));
        assert_eq!(j.get("a").and_then(Json::as_arr).map(|a| a.len()), Some(1));
        assert_eq!(j.get("missing"), None);
    }
}
