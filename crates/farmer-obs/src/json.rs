//! The workspace's one ordered JSON value: emitter, reader, one escaping
//! rule.
//!
//! Everything that emits a machine-readable record — the `eval_matrix`
//! record (`BENCH_eval.json`) and [`ObsReport::json`](crate::ObsReport::json)
//! — builds a [`Json`] and prints
//! [`Json::render`]: one writer, one stable field order. [`Json::parse`]
//! reads such a record back (the reference model checks runs against the
//! checked-in `BENCH_eval.json`).

/// An ordered JSON value. Objects preserve insertion order, so emitted
/// records are stable and diffable across runs.
///
/// Equality is equality **as printed**: two numbers are equal when they
/// render to the same text (`Fixed(0.79349, 4) == Fixed(0.7935, 4)`), so
/// `parse(render(x)) == x` holds and a fresh measurement can be compared
/// with a record at the record's own precision.
#[derive(Debug, Clone)]
pub enum Json {
    /// `true`/`false`.
    Bool(bool),
    /// Unsigned integer (counters, byte totals).
    UInt(u64),
    /// Float rendered with Rust's shortest-roundtrip formatting. Must be
    /// finite ([`Json::render`] panics otherwise — benchmark records with
    /// NaN/inf in them are bugs, not data).
    F64(f64),
    /// Float rendered with a fixed number of decimals (stable diffs for
    /// metrics where sub-precision digits are noise).
    Fixed(f64, usize),
    /// String (escaped on render).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with insertion-ordered fields; build with [`Json::obj`] and
    /// [`Json::field`].
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, for builder-style construction.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append a field to an object (panics on non-objects).
    #[must_use]
    pub fn field(mut self, key: &str, value: Json) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value)),
            #[expect(
                clippy::panic,
                reason = "a builder chain that does not start at `Json::obj()` is a bug at the \
                          call site, hit the first time it runs; dropping the field instead would \
                          emit a record that silently lacks it"
            )]
            _ => panic!("field() on a non-object"),
        }
        self
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Render as pretty-printed JSON (two-space indent, trailing newline
    /// omitted). Panics on non-finite floats.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    /// Parse JSON text: what [`Json::render`] emits, plus exponents and
    /// the standard string escapes (no `null` — the emitter has none).
    /// Total: malformed, truncated or over-deep input is a [`JsonError`],
    /// never a panic. A decimal literal keeps its printed precision
    /// (`0.7935` parses to `Fixed(0.7935, 4)`).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { text, at: 0 };
        let value = p.value(0)?;
        p.skip_ws();
        if p.at < text.len() {
            return Err(p.err("trailing characters after the value"));
        }
        Ok(value)
    }

    /// Field `key` of an object (`None` on a non-object or a missing key).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value of any number variant.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::UInt(u) => Some(u as f64),
            Json::F64(v) | Json::Fixed(v, _) => Some(v),
            _ => None,
        }
    }

    /// The value of an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(u) => Some(u),
            _ => None,
        }
    }

    /// The contents of a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items of an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(u) => out.push_str(&u.to_string()),
            Json::F64(v) => {
                assert!(v.is_finite(), "non-finite value in benchmark record: {v}");
                out.push_str(&format!("{v}"));
            }
            Json::Fixed(v, d) => {
                assert!(v.is_finite(), "non-finite value in benchmark record: {v}");
                out.push_str(&format!("{:.*}", *d, v));
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    write_escaped(k, out);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }
}

/// Emit `s` as a quoted, escaped JSON string (used for both values and
/// object keys).
fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl PartialEq for Json {
    fn eq(&self, other: &Json) -> bool {
        match (self, other) {
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Arr(a), Json::Arr(b)) => a == b,
            (Json::Obj(a), Json::Obj(b)) => a == b,
            // Numbers, whatever the variant: equal as printed.
            (a, b) => a.as_f64().is_some() && b.as_f64().is_some() && a.render() == b.render(),
        }
    }
}

/// Why [`Json::parse`] refused its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset the parser stopped at.
    pub offset: usize,
    /// What was wrong there.
    pub message: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Nesting bound of [`Json::parse`]: deeper input is an error, not a
/// stack overflow.
const MAX_DEPTH: usize = 64;

/// Cursor over the input; `at` only ever rests after an ASCII byte, so
/// it is always a `char` boundary of `text`.
struct Parser<'a> {
    text: &'a str,
    at: usize,
}

impl Parser<'_> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            offset: self.at,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\n' | b'\t' | b'\r')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.at += usize::from(hit);
        hit
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.text[self.at..].starts_with(word) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(self.err("unknown literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'{') => {
                let mut fields = Vec::new();
                self.members(b'}', |p| {
                    let key = p.string()?;
                    p.skip_ws();
                    if !p.eat(b':') {
                        return Err(p.err("expected ':' after an object key"));
                    }
                    fields.push((key, p.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Json::Obj(fields))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.members(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    /// The comma-separated members of an object or array, from its
    /// opening bracket through `close`.
    fn members(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.at += 1;
        self.skip_ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            self.skip_ws();
            member(self)?;
            self.skip_ws();
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or a closing bracket"));
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        if !self.eat(b'"') {
            return Err(self.err("expected a string"));
        }
        let mut out = String::new();
        loop {
            // Copy up to the next byte that needs a decision.
            let rest = &self.text[self.at..];
            let stop = rest
                .bytes()
                .position(|b| b == b'"' || b == b'\\' || b < 0x20)
                .ok_or_else(|| self.err("unterminated string"))?;
            out.push_str(&rest[..stop]);
            self.at += stop + 1;
            match rest.as_bytes()[stop] {
                b'"' => return Ok(out),
                b'\\' => out.push(self.escape()?),
                _ => return Err(self.err("raw control character in a string")),
            }
        }
    }

    /// The character a backslash escape stands for (surrogate halves are
    /// refused: the emitter only ever `\u`-escapes control characters).
    fn escape(&mut self) -> Result<char, JsonError> {
        let esc = self.peek().ok_or_else(|| self.err("unterminated string"))?;
        self.at += 1;
        Ok(match esc {
            b'"' | b'\\' | b'/' => esc as char,
            b'n' => '\n',
            b't' => '\t',
            b'r' => '\r',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let code = self
                    .text
                    .get(self.at..self.at + 4)
                    .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                    .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                    .and_then(char::from_u32)
                    .ok_or_else(|| self.err("bad \\u escape"))?;
                self.at += 4;
                code
            }
            _ => return Err(self.err("unknown string escape")),
        })
    }

    /// `-? digits (. digits)? ([eE] [+-]? digits)?`
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.at;
        self.eat(b'-');
        let int_digits = self.digits();
        let decimals = if self.eat(b'.') {
            Some(self.digits())
        } else {
            None
        };
        let exponent = if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            Some(self.digits())
        } else {
            None
        };
        if int_digits == 0 || decimals == Some(0) || exponent == Some(0) {
            return Err(self.err("malformed number"));
        }
        let text = &self.text[start..self.at];
        if decimals.is_none() && exponent.is_none() {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() && exponent.is_some() => Ok(Json::F64(v)),
            Ok(v) if v.is_finite() => Ok(Json::Fixed(v, decimals.unwrap_or(0))),
            _ => Err(self.err("number out of range")),
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.at;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        self.at - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_renders_ordered_and_escaped() {
        let j = Json::obj()
            .field("bench", Json::str("x\"y"))
            .field("events", Json::UInt(42))
            .field("rate", Json::Fixed(1234.567, 0))
            .field("ratio", Json::F64(0.5))
            .field(
                "cells",
                Json::Arr(vec![Json::obj().field("ok", Json::Bool(true))]),
            );
        let s = j.render();
        // Field order is insertion order.
        let pos = |needle: &str| s.find(needle).unwrap_or_else(|| panic!("missing {needle}"));
        assert!(pos("bench") < pos("events"));
        assert!(pos("events") < pos("rate"));
        assert!(s.contains("\"x\\\"y\""));
        assert!(s.contains("\"rate\": 1235"), "fixed(0) rounds: {s}");
        assert!(s.contains("\"ratio\": 0.5"));
        assert!(s.contains("\"ok\": true"));
        assert!(s.starts_with('{') && s.ends_with('}'));
        // Keys go through the same escaping as values.
        let k = Json::obj().field("size \"hint\"", Json::UInt(1)).render();
        assert!(k.contains("\"size \\\"hint\\\"\": 1"), "{k}");
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn json_rejects_nan() {
        let _ = Json::F64(f64::NAN).render();
    }

    /// The tree `json_renders_ordered_and_escaped` renders, plus the
    /// shapes it lacks (empty containers, control characters, a negative
    /// and a sub-precision number).
    fn sample_tree() -> Json {
        Json::obj()
            .field("bench", Json::str("x\"y\\z\n\t\u{1}é"))
            .field("events", Json::UInt(42))
            .field("rate", Json::Fixed(1234.567, 0))
            .field("ratio", Json::F64(0.5))
            .field("gauge", Json::F64(-2.0))
            .field("hit", Json::Fixed(0.79349, 4))
            .field("empty", Json::Arr(Vec::new()))
            .field("none", Json::obj())
            .field(
                "cells",
                Json::Arr(vec![Json::obj().field("ok", Json::Bool(true))]),
            )
    }

    #[test]
    fn json_parse_round_trips_the_emitter() {
        let tree = sample_tree();
        let parsed = Json::parse(&tree.render()).expect("emitter output parses");
        assert_eq!(parsed, tree);
        assert_eq!(parsed.render(), tree.render());
        // Printed precision is kept, and is what equality means.
        let hit = parsed.get("hit").expect("hit");
        assert_eq!(hit.render(), "0.7935");
        assert_eq!(*hit, Json::Fixed(0.7935, 4));
        assert_ne!(*hit, Json::Fixed(0.7936, 4));
        assert_eq!(parsed.get("events").and_then(Json::as_u64), Some(42));
        assert_eq!(parsed.get("gauge").and_then(Json::as_f64), Some(-2.0));
        assert_eq!(
            parsed.get("bench").and_then(Json::as_str),
            Some("x\"y\\z\n\t\u{1}é")
        );
        assert_eq!(
            parsed
                .get("cells")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(1)
        );
        assert!(parsed.get("missing").is_none() && hit.get("x").is_none());
        // Forms the emitter never writes but JSON allows.
        assert_eq!(Json::parse(" 1.5e3 ").unwrap(), Json::F64(1500.0));
        assert_eq!(Json::parse(r#""\u0041\/""#).unwrap(), Json::str("A/"));
    }

    #[test]
    fn json_parse_rejects_malformed_input_without_panicking() {
        let text = sample_tree().render();
        // Every proper prefix of a document is truncated, never valid.
        for cut in 0..text.len() {
            if text.is_char_boundary(cut) {
                assert!(Json::parse(&text[..cut]).is_err(), "prefix {cut} parsed");
            }
        }
        for garbage in [
            "",
            "   ",
            "nul",
            "null",
            "tru",
            "{",
            "}",
            "[1,]",
            "[1 2]",
            "{\"a\"}",
            "{\"a\":}",
            "{a:1}",
            "{\"a\":1,}",
            "\"abc",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"a\nb\"",
            "-",
            "1.",
            ".5",
            "+1",
            "1e",
            "1e+",
            "--1",
            "1e999",
            "[1] x",
            "é",
            "[é]",
            "{\"a\":é}",
            "\"\\u00é\"",
            "\"\\ué\"",
            "tré",
            "\u{0}",
        ] {
            let err = Json::parse(garbage).expect_err(garbage);
            assert!(err.offset <= garbage.len(), "{garbage:?}: {err}");
            assert!(err.to_string().starts_with("invalid JSON at byte"));
        }
        // Deep nesting is an error, not a stack overflow.
        let deep = "[".repeat(100_000);
        assert_eq!(Json::parse(&deep).unwrap_err().message, "nesting too deep");
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
    }
}
