//! The [`Json`] value model, its writers and its parser.
//!
//! Enough of RFC 8259 for every document the workspace exchanges
//! (objects, arrays, strings with escapes, finite numbers, booleans,
//! null). Object key order is preserved on parse and render, and
//! numbers render through Rust's shortest-round-trip `f64` formatting,
//! so `parse → render` is byte-stable — the property the golden-file
//! test on `EXPERIMENTS.md` regeneration relies on.

use std::fmt::Write as _;

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so the bound keeps hostile input (a line of
/// `[[[[…`) a parse error instead of a stack overflow; real documents
/// nest a handful of levels.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (integers included; rendered via shortest `f64`).
    Num(f64),
    /// A string (escaped on write, unescaped on parse).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

/// A JSON parse error with byte offset context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description of what went wrong.
    pub message: String,
    /// Byte offset into the input where the error was detected.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing content after document"));
        }
        Ok(value)
    }

    /// Renders with 2-space indentation and a trailing newline — the
    /// on-disk format of `reports/*.json`.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, true);
        out.push('\n');
        out
    }

    /// Renders compactly (no whitespace).
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, false);
        out
    }

    fn write(&self, out: &mut String, depth: usize, pretty: bool) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    write!(out, "{n}").expect("write to string");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                let items = items
                    .iter()
                    .map(|item| move |out: &mut String| item.write(out, depth + 1, pretty));
                write_seq(out, depth, pretty, ['[', ']'], items);
            }
            Json::Obj(entries) => {
                let entries = entries.iter().map(|(key, value)| {
                    move |out: &mut String| {
                        write_escaped(out, key);
                        out.push_str(if pretty { ": " } else { ":" });
                        value.write(out, depth + 1, pretty);
                    }
                });
                write_seq(out, depth, pretty, ['{', '}'], entries);
            }
        }
    }

    /// Object field lookup (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an unsigned integer (rejects fractions).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    /// NOTE: numbers are stored as `f64`, so only integers up to 2^53
    /// round-trip exactly (RFC 8259 interoperability limit). Report
    /// fields kept in JSON numbers (seeds, RSS bytes, wall clock) stay
    /// far below it; anything larger belongs in a string field.
    fn from(v: u64) -> Self {
        debug_assert!(v <= (1u64 << 53), "{v} exceeds the f64-exact integer range");
        Json::Num(v as f64)
    }
}

/// Writes a bracketed sequence: `[]`/`{}` when empty, else the items
/// comma-separated, one per indented line when `pretty`.
fn write_seq<F: FnOnce(&mut String)>(
    out: &mut String,
    depth: usize,
    pretty: bool,
    [open, close]: [char; 2],
    items: impl Iterator<Item = F>,
) {
    out.push(open);
    let mut empty = true;
    for item in items {
        if !empty {
            out.push(',');
        }
        if pretty {
            out.push('\n');
            indent(out, depth + 1);
        }
        item(out);
        empty = false;
    }
    if pretty && !empty {
        out.push('\n');
        indent(out, depth);
    }
    out.push(close);
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
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
                write!(out, "\\u{:04x}", c as u32).expect("write to string");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("nesting too deep"));
                }
                self.depth += 1;
                let nested = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                nested
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
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
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by `\uXXXX` with the low half.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if (0xDC00..0xE000).contains(&low) {
                                        char::from_u32(
                                            0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00),
                                        )
                                    } else {
                                        None
                                    }
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                // Multi-byte UTF-8: copy the raw bytes through.
                b if b < 0x80 => out.push(b as char),
                _ => {
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.bytes.len() && self.bytes[end] & 0xC0 == 0x80 {
                        end += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        let n: f64 = text.parse().map_err(|_| self.err("invalid number"))?;
        if !n.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(Json::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-12.5e1").unwrap(), Json::Num(-125.0));
        assert_eq!(
            Json::parse(r#""a\nb\"c\\dé""#).unwrap(),
            Json::Str("a\nb\"c\\dé".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let doc = r#"{"id": "t1", "rows": [[1, 2], []], "ok": true, "x": null}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_str), Some("t1"));
        assert_eq!(v.get("rows").and_then(Json::as_arr).unwrap().len(), 2);
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("x"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn nesting_is_bounded_without_recursing_past_the_bound() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.message, "nesting too deep");
        assert_eq!(err.offset, MAX_DEPTH);
        // Far past the bound, unterminated, objects too: an error, not
        // a stack overflow.
        assert!(Json::parse(&"{\"a\":".repeat(1_000_000)).is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "\"abc", "{\"a\" 1}", "tru", "1 2", "[1,]"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        // A high surrogate must be followed by a low surrogate.
        for bad in ["\"\\ud800\\u0041\"", "\"\\ud800\"", "\"\\ud800x\""] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn render_parse_is_byte_stable() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::Str("tab\"le\n1".into())),
            ("count".into(), Json::Num(42.0)),
            ("ratio".into(), Json::Num(0.125)),
            (
                "rows".into(),
                Json::Arr(vec![
                    Json::Arr(vec![Json::Str("a".into())]),
                    Json::Arr(vec![]),
                ]),
            ),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        let first = doc.render_pretty();
        let reparsed = Json::parse(&first).unwrap();
        assert_eq!(reparsed, doc);
        assert_eq!(reparsed.render_pretty(), first, "render is a fixpoint");
        // Compact form round-trips too.
        assert_eq!(Json::parse(&doc.render_compact()).unwrap(), doc);
    }

    #[test]
    fn surrogate_pairs_round_trip() {
        let v = Json::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        let escaped = Json::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(escaped.as_str(), Some("😀"));
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(1024.0).render_compact(), "1024");
        assert_eq!(Json::Num(0.5).render_compact(), "0.5");
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        let s = Json::from("Ferry \"Nord\"\nline\\x\t\r\u{1}\u{1f}é😀");
        assert_eq!(
            s.render_compact(),
            r#""Ferry \"Nord\"\nline\\x\t\r\u0001\u001fé😀""#
        );
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let doc = Json::Obj(vec![("bad".into(), Json::Num(n))]);
            assert_eq!(doc.render_compact(), r#"{"bad":null}"#);
            assert_eq!(doc.render_pretty(), "{\n  \"bad\": null\n}\n");
        }
    }

    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Characters the escaper must get right: quotes, backslashes, every
    /// control character, plus plain ASCII, the rest of the BMP and
    /// the astral planes (no surrogates: those are not `char`s).
    fn chars() -> impl Strategy<Value = char> {
        prop_oneof![
            Just(u32::from('"')),
            Just(u32::from('\\')),
            0u32..0x20,
            0x20u32..0x7f,
            0x80u32..0xd800,
            0xe000u32..0x10000,
            0x10000u32..0x110000,
        ]
        .prop_map(|c| char::from_u32(c).expect("a scalar value"))
    }

    fn strings() -> impl Strategy<Value = String> {
        vec(chars(), 0..12).prop_map(String::from_iter)
    }

    /// Finite `f64`s: every bit pattern (a non-finite one becomes 0),
    /// small integers and short decimals.
    fn numbers() -> impl Strategy<Value = f64> {
        prop_oneof![
            any::<u64>().prop_map(|bits| {
                let n = f64::from_bits(bits);
                if n.is_finite() {
                    n
                } else {
                    0.0
                }
            }),
            (-1_000_000i64..1_000_000).prop_map(|n| n as f64),
            -1e3f64..1e3,
        ]
    }

    fn leaves() -> BoxedStrategy<Json> {
        prop_oneof![
            Just(Json::Null),
            any::<bool>().prop_map(Json::Bool),
            numbers().prop_map(Json::Num),
            strings().prop_map(Json::Str),
        ]
        .boxed()
    }

    /// Trees of at most `depth` nested arrays/objects.
    fn trees(depth: usize) -> BoxedStrategy<Json> {
        if depth == 0 {
            return leaves();
        }
        let items = vec((strings(), trees(depth - 1)), 0..4);
        prop_oneof![
            leaves(),
            (any::<bool>(), items).prop_map(|(array, items)| if array {
                Json::Arr(items.into_iter().map(|(_, v)| v).collect())
            } else {
                Json::Obj(items)
            }),
        ]
        .boxed()
    }

    /// Arrays and objects on the deepest path of `doc`.
    fn depth(doc: &Json) -> usize {
        match doc {
            Json::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
            Json::Obj(entries) => 1 + entries.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
            _ => 0,
        }
    }

    /// A tree of depth at most 4 wrapped in a chain of single-entry
    /// containers. The chain stops at the cap, so a few cases in every
    /// run nest exactly [`MAX_DEPTH`] deep.
    fn deep_trees() -> impl Strategy<Value = Json> {
        (
            0..=MAX_DEPTH,
            vec(any::<bool>(), MAX_DEPTH),
            strings(),
            trees(4),
        )
            .prop_map(|(levels, kinds, key, mut doc)| {
                let levels = levels.min(MAX_DEPTH - depth(&doc));
                for &array in &kinds[..levels] {
                    doc = if array {
                        Json::Arr(vec![doc])
                    } else {
                        Json::Obj(vec![(key.clone(), doc)])
                    };
                }
                doc
            })
    }

    proptest! {
        #[test]
        fn both_renderings_parse_back_to_the_tree(doc in deep_trees()) {
            let compact = doc.render_compact();
            // The parser takes raw control characters; the writer must
            // never emit one.
            prop_assert!(compact.chars().all(|c| u32::from(c) >= 0x20), "{compact:?}");
            prop_assert_eq!(Json::parse(&compact).unwrap(), doc.clone());
            prop_assert_eq!(Json::parse(&doc.render_pretty()).unwrap(), doc);
        }
    }
}
