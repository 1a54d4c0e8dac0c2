//! Minimal hand-rolled JSON serialization and parsing (the sandbox is
//! offline, so no serde). Serialization covers what the tracer and
//! report need: objects, arrays, strings, integers, floats, booleans.
//! Parsing ([`parse`]) covers full JSON, nested at most [`MAX_DEPTH`]
//! deep, and backs the `bench-diff` regression gate and the job
//! daemon's config parsing.

use std::fmt::Write as _;

/// Escape a string for inclusion inside JSON double quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Format an `f64` as a JSON number (`null` for NaN/infinity, which JSON
/// cannot represent).
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        // `{}` is Rust's shortest round-trip formatting; always contains
        // a digit, never an empty string.
        let s = format!("{v}");
        // Guard against "inf"-style output slipping through.
        if s.parse::<f64>().is_ok() {
            s
        } else {
            "null".to_owned()
        }
    } else {
        "null".to_owned()
    }
}

/// Incremental JSON object builder.
///
/// ```
/// use rescue_obs::json::JsonObj;
/// let mut o = JsonObj::new();
/// o.str("name", "podem").u64("backtracks", 17);
/// assert_eq!(o.finish(), r#"{"name":"podem","backtracks":17}"#);
/// ```
#[derive(Debug)]
pub struct JsonObj {
    buf: String,
    first: bool,
}

impl Default for JsonObj {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonObj {
    /// Start an object.
    pub fn new() -> Self {
        JsonObj {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, k: &str) -> &mut Self {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        self.buf.push_str(&escape(k));
        self.buf.push_str("\":");
        self
    }

    /// Add a string field.
    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.buf.push('"');
        self.buf.push_str(&escape(v));
        self.buf.push('"');
        self
    }

    /// Add an unsigned integer field.
    pub fn u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Add a signed integer field.
    pub fn i64(&mut self, k: &str, v: i64) -> &mut Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Add a float field (`null` if not finite).
    pub fn f64(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        self.buf.push_str(&fmt_f64(v));
        self
    }

    /// Add a boolean field.
    pub fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Add a pre-serialized JSON value verbatim.
    pub fn raw(&mut self, k: &str, json: &str) -> &mut Self {
        self.key(k);
        self.buf.push_str(json);
        self
    }

    /// Add an array of unsigned integers.
    pub fn arr_u64(&mut self, k: &str, vs: &[u64]) -> &mut Self {
        self.key(k);
        self.buf.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            let _ = write!(self.buf, "{v}");
        }
        self.buf.push(']');
        self
    }

    /// Close the object and return the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Serialize a list of pre-serialized JSON values as a JSON array.
pub fn array(items: &[String]) -> String {
    let mut s = String::from("[");
    for (i, it) in items.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(it);
    }
    s.push(']');
    s
}

/// A parsed JSON value.
///
/// Integers without a fraction or exponent are kept exact in
/// [`JsonValue::Int`] (i128 covers the full u64 range), so counter
/// comparisons in `bench-diff` never round through f64. Object keys keep
/// insertion order; duplicate keys are preserved.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written without `.` or an exponent.
    Int(i128),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member of an object by key (first occurrence), if this is an
    /// object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an f64 if numeric (`Int` converts lossily).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a bool if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an exact integer if it is one.
    pub fn as_int(&self) -> Option<i128> {
        match self {
            JsonValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as a string slice if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice if it is one.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// The deepest array/object nesting [`parse`] accepts. The parser
/// recurses once per level, so the cap keeps a hostile document from
/// overflowing the stack of the (default-sized) thread parsing it.
pub const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document (trailing whitespace allowed, nothing
/// else). Returns a byte-offset error message on malformed input, and
/// an error naming the limit on nesting deeper than [`MAX_DEPTH`].
pub fn parse(s: &str) -> Result<JsonValue, String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    let v = p_value(b, &mut i, 0)?;
    p_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing bytes at offset {i}"));
    }
    Ok(v)
}

fn p_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn p_value(b: &[u8], i: &mut usize, depth: usize) -> Result<JsonValue, String> {
    p_ws(b, i);
    match b.get(*i) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at offset {i}"
        )),
        Some(b'{') => p_object(b, i, depth + 1),
        Some(b'[') => p_array(b, i, depth + 1),
        Some(b'"') => Ok(JsonValue::Str(p_string(b, i)?)),
        Some(b't') => p_lit(b, i, "true", JsonValue::Bool(true)),
        Some(b'f') => p_lit(b, i, "false", JsonValue::Bool(false)),
        Some(b'n') => p_lit(b, i, "null", JsonValue::Null),
        Some(_) => p_number(b, i),
        None => Err("unexpected end of input".to_owned()),
    }
}

fn p_lit(b: &[u8], i: &mut usize, word: &str, v: JsonValue) -> Result<JsonValue, String> {
    if b[*i..].starts_with(word.as_bytes()) {
        *i += word.len();
        Ok(v)
    } else {
        Err(format!("bad literal at offset {i}"))
    }
}

fn p_number(b: &[u8], i: &mut usize) -> Result<JsonValue, String> {
    let start = *i;
    let mut integral = true;
    while let Some(&c) = b.get(*i) {
        match c {
            b'0'..=b'9' | b'-' => {}
            b'+' | b'.' | b'e' | b'E' => integral = false,
            _ => break,
        }
        *i += 1;
    }
    let text = std::str::from_utf8(&b[start..*i]).map_err(|e| e.to_string())?;
    if integral {
        if let Ok(v) = text.parse::<i128>() {
            return Ok(JsonValue::Int(v));
        }
    }
    text.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|_| format!("bad number {text:?} at offset {start}"))
}

fn p_string(b: &[u8], i: &mut usize) -> Result<String, String> {
    if b.get(*i) != Some(&b'"') {
        return Err(format!("expected string at offset {i}"));
    }
    *i += 1;
    let mut out = String::new();
    loop {
        let c = *b.get(*i).ok_or("unterminated string")?;
        *i += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = *b.get(*i).ok_or("truncated escape")?;
                *i += 1;
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
                        let cp = p_hex4(b, i)?;
                        // Surrogate pair: a high surrogate must be
                        // followed by `\u` + low surrogate.
                        let ch = if (0xd800..0xdc00).contains(&cp) {
                            if b.get(*i) == Some(&b'\\') && b.get(*i + 1) == Some(&b'u') {
                                *i += 2;
                                let lo = p_hex4(b, i)?;
                                let combined =
                                    0x10000 + ((cp - 0xd800) << 10) + (lo.wrapping_sub(0xdc00));
                                char::from_u32(combined).ok_or("bad surrogate pair")?
                            } else {
                                return Err("lone high surrogate".to_owned());
                            }
                        } else {
                            char::from_u32(cp).ok_or("bad \\u codepoint")?
                        };
                        out.push(ch);
                    }
                    other => return Err(format!("bad escape \\{}", other as char)),
                }
            }
            c if c < 0x20 => return Err(format!("raw control byte 0x{c:02x} in string")),
            _ => {
                // Re-assemble the UTF-8 sequence starting at c.
                let len = utf8_len(c)?;
                let start = *i - 1;
                *i = start + len;
                let chunk = b.get(start..*i).ok_or("truncated UTF-8")?;
                out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
            }
        }
    }
}

fn utf8_len(first: u8) -> Result<usize, String> {
    match first {
        0x00..=0x7f => Ok(1),
        0xc0..=0xdf => Ok(2),
        0xe0..=0xef => Ok(3),
        0xf0..=0xf7 => Ok(4),
        _ => Err(format!("bad UTF-8 lead byte 0x{first:02x}")),
    }
}

fn p_hex4(b: &[u8], i: &mut usize) -> Result<u32, String> {
    let hex = b.get(*i..*i + 4).ok_or("truncated \\u escape")?;
    *i += 4;
    u32::from_str_radix(std::str::from_utf8(hex).map_err(|e| e.to_string())?, 16)
        .map_err(|e| e.to_string())
}

fn p_array(b: &[u8], i: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *i += 1; // consume [
    let mut items = Vec::new();
    p_ws(b, i);
    if b.get(*i) == Some(&b']') {
        *i += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(p_value(b, i, depth)?);
        p_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b']') => {
                *i += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected , or ] at offset {i}")),
        }
    }
}

fn p_object(b: &[u8], i: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *i += 1; // consume {
    let mut fields = Vec::new();
    p_ws(b, i);
    if b.get(*i) == Some(&b'}') {
        *i += 1;
        return Ok(JsonValue::Obj(fields));
    }
    loop {
        p_ws(b, i);
        let k = p_string(b, i)?;
        p_ws(b, i);
        if b.get(*i) != Some(&b':') {
            return Err(format!("expected : at offset {i}"));
        }
        *i += 1;
        fields.push((k, p_value(b, i, depth)?));
        p_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b'}') => {
                *i += 1;
                return Ok(JsonValue::Obj(fields));
            }
            _ => return Err(format!("expected , or }} at offset {i}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips_control_and_unicode() {
        // Every control character, the JSON specials, and some
        // multi-byte unicode (including an astral-plane char).
        let mut nasty = String::new();
        for c in 0u8..0x20 {
            nasty.push(c as char);
        }
        nasty.push_str("\"\\/ plain ascii … ünïcode 🚀 \u{7f}");
        let doc = {
            let mut o = JsonObj::new();
            o.str("s", &nasty);
            o.finish()
        };
        let parsed = parse(&doc).expect("escaped doc parses");
        assert_eq!(parsed.get("s").unwrap().as_str().unwrap(), nasty);
    }

    #[test]
    fn fmt_f64_nonfinite_is_null() {
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        assert_eq!(fmt_f64(f64::NEG_INFINITY), "null");
        assert_eq!(fmt_f64(0.25), "0.25");
        assert_eq!(fmt_f64(-0.0), "-0");
    }

    #[test]
    fn nonfinite_floats_round_trip_as_null() {
        let doc = {
            let mut o = JsonObj::new();
            o.f64("nan", f64::NAN)
                .f64("inf", f64::INFINITY)
                .f64("ninf", f64::NEG_INFINITY)
                .f64("fine", 1.5);
            o.finish()
        };
        let v = parse(&doc).expect("document with null floats parses");
        assert_eq!(v.get("nan"), Some(&JsonValue::Null));
        assert_eq!(v.get("inf"), Some(&JsonValue::Null));
        assert_eq!(v.get("ninf"), Some(&JsonValue::Null));
        assert_eq!(v.get("fine").unwrap().as_f64(), Some(1.5));
    }

    #[test]
    fn integers_parse_exactly() {
        let doc = {
            let mut o = JsonObj::new();
            o.u64("max", u64::MAX).i64("min", i64::MIN);
            o.finish()
        };
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("max").unwrap().as_int(), Some(u64::MAX as i128));
        assert_eq!(v.get("min").unwrap().as_int(), Some(i64::MIN as i128));
        // Exponent/fraction forms are floats, not ints.
        assert_eq!(parse("1e3").unwrap(), JsonValue::Num(1000.0));
        assert_eq!(parse("1.5").unwrap(), JsonValue::Num(1.5));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "\"unterminated",
            "{\"a\":1} trailing",
            "\"\\u12\"",
            "\"\\ud800\"", // lone high surrogate
            "nul",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_is_capped_before_the_stack_runs_out() {
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_cap).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&over)
            .unwrap_err()
            .contains("nesting deeper than 128"));
        // 100k levels on a fresh default-stack thread, like a served
        // connection's: uncapped recursion aborts the process here.
        std::thread::spawn(|| {
            for doc in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
                let err = parse(&doc).unwrap_err();
                assert!(err.contains("nesting deeper than"), "{err}");
            }
        })
        .join()
        .expect("deep documents return Err");
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn arrays_and_nesting_round_trip() {
        let doc = {
            let mut inner = JsonObj::new();
            inner.arr_u64("xs", &[1, 2, 3]).bool("b", true);
            let mut o = JsonObj::new();
            o.raw("inner", &inner.finish()).raw(
                "list",
                &array(&["1".into(), "\"two\"".into(), "null".into()]),
            );
            o.finish()
        };
        let v = parse(&doc).unwrap();
        let xs = v.get("inner").unwrap().get("xs").unwrap().as_arr().unwrap();
        assert_eq!(xs.len(), 3);
        assert_eq!(v.get("list").unwrap().as_arr().unwrap()[2], JsonValue::Null);
    }
}
