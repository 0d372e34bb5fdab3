#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `pmor-json`: the workspace's one JSON implementation.
//!
//! The workspace's JSON goes through this crate: the `BENCH_*.json`
//! records, the `LINT_*.json` lint reports, and the `pmor serve` line
//! protocol.
//!
//! * **Reading** — [`parse_json`] is a strict (RFC 8259) recursive
//!   descent parser into a [`Json`] tree: depth-limited, linear in the
//!   input, with position-annotated error messages. Validators check
//!   their schema on the tree with [`Json::field`] / [`Json::check`].
//! * **Writing** — one primitive pair, [`push_string`] and
//!   [`push_number`]. Each writer composes them in its own layout
//!   (line-per-record for the report files, compact for serve); there
//!   is deliberately no generic serializer with a layout switch.
//!
//! The crate has no dependencies: `pmor-lint` reads and writes its
//! reports through it, and a leaf cannot break the linter when the code
//! the linter checks changes.

use std::fmt::Write;

/// Nesting depth cap for the parser (arrays + objects combined).
const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

/// The value shapes a schema check can require of a field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A string.
    Str,
    /// A number, or `null` — how [`push_number`] writes a non-finite
    /// value.
    Num,
    /// A non-negative integral number (an id, a line, a tally).
    Count,
    /// `true` / `false`.
    Bool,
    /// An array.
    Arr,
    /// An object.
    Obj,
}

impl Kind {
    /// The name error messages use for this shape.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Str => "string",
            Kind::Num => "number",
            Kind::Count => "count",
            Kind::Bool => "boolean",
            Kind::Arr => "array",
            Kind::Obj => "object",
        }
    }

    /// Whether `value` has this shape.
    pub fn admits(self, value: &Json) -> bool {
        match self {
            Kind::Str => matches!(value, Json::Str(_)),
            Kind::Num => matches!(value, Json::Num(_) | Json::Null),
            Kind::Count => value.as_count().is_some(),
            Kind::Bool => matches!(value, Json::Bool(_)),
            Kind::Arr => matches!(value, Json::Arr(_)),
            Kind::Obj => matches!(value, Json::Obj(_)),
        }
    }
}

impl Json {
    /// Looks up a key in an object; `None` for absent keys or
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.entries()
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Looks up a key that must be present with the shape `kind`.
    ///
    /// # Errors
    ///
    /// `missing <kind> field "<key>"` when the key is absent (or `self`
    /// is not an object), and a wrong-type message naming the key when
    /// the value has another shape.
    pub fn field(&self, key: &str, kind: Kind) -> Result<&Json, String> {
        match self.get(key) {
            Some(value) if kind.admits(value) => Ok(value),
            Some(_) => Err(format!("field \"{key}\" is not a {}", kind.name())),
            None => Err(format!("missing {} field \"{key}\"", kind.name())),
        }
    }

    /// [`Json::field`] over a whole record schema, stopping at the
    /// first violation.
    ///
    /// # Errors
    ///
    /// The first failing [`Json::field`] message.
    pub fn check(&self, schema: &[(&str, Kind)]) -> Result<(), String> {
        schema
            .iter()
            .try_for_each(|&(key, kind)| self.field(key, kind).map(drop))
    }

    /// The string's text; empty for non-strings.
    pub fn text(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => "",
        }
    }

    /// The array's items; empty for non-arrays.
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    /// The object's entries in source order; empty for non-objects.
    pub fn entries(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(fields) => fields,
            _ => &[],
        }
    }

    /// The value as a count: `Some` for non-negative integral numbers.
    pub fn as_count(&self) -> Option<usize> {
        match *self {
            Json::Num(n) if n >= 0.0 && n.fract() == 0.0 => Some(n as usize),
            _ => None,
        }
    }
}

/// Parses one JSON document (whole-input: trailing garbage is an
/// error).
///
/// # Errors
///
/// Returns a position-annotated message on any syntax violation,
/// depth overflow, or trailing input.
pub fn parse_json(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing input at byte {pos}"));
    }
    Ok(value)
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH}"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

/// RFC 8259 `number`: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
        *pos - from
    };
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let leading_zero = bytes.get(*pos) == Some(&b'0');
    let int_digits = digits(pos);
    let mut valid = int_digits == 1 || (int_digits > 1 && !leading_zero);
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        valid &= digits(pos) > 0;
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        valid &= digits(pos) > 0;
    }
    // The scanned span is ASCII by construction.
    let text = std::str::from_utf8(&bytes[start..*pos]).unwrap_or_default();
    match text.parse::<f64>() {
        Ok(n) if valid => Ok(Json::Num(n)),
        _ => Err(format!("invalid number {text:?} at byte {start}")),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        *pos += 1;
                        let hi = parse_hex4(bytes, pos)?;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: require a following \uXXXX low half.
                            if bytes.get(*pos) != Some(&b'\\') || bytes.get(*pos + 1) != Some(&b'u')
                            {
                                return Err("unpaired high surrogate".into());
                            }
                            *pos += 2;
                            let lo = parse_hex4(bytes, pos)?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err("invalid low surrogate".into());
                            }
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else if (0xDC00..0xE000).contains(&hi) {
                            return Err("unpaired low surrogate".into());
                        } else {
                            hi
                        };
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| "invalid unicode escape".to_string())?,
                        );
                        continue; // parse_hex4 already advanced pos
                    }
                    _ => return Err(format!("invalid escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => {
                return Err(format!("raw control byte in string at {pos}", pos = *pos))
            }
            Some(_) => {
                // Copy the whole run of plain characters up to the next
                // quote, escape or control byte. Those stoppers are ASCII,
                // so the run ends on a char boundary and only the run
                // itself is UTF-8-checked: parsing stays linear.
                let run = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                    .map_or(bytes.len(), |n| *pos + n);
                let text = std::str::from_utf8(&bytes[*pos..run])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?;
                out.push_str(text);
                *pos = run;
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    let end = pos
        .checked_add(4)
        .filter(|&e| e <= bytes.len())
        .ok_or("truncated \\u escape")?;
    let text =
        std::str::from_utf8(&bytes[*pos..end]).map_err(|_| "invalid \\u escape".to_string())?;
    let v = u32::from_str_radix(text, 16).map_err(|_| format!("invalid \\u escape {text:?}"))?;
    *pos = end;
    Ok(v)
}

fn expect(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at byte {pos}",
            want as char,
            pos = *pos
        ))
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while matches!(bytes.get(*pos), Some(b' ' | b'\t' | b'\r' | b'\n')) {
        *pos += 1;
    }
}

/// Appends `s` as a JSON string literal with the mandatory escapes.
pub fn push_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

/// Appends `v` as a JSON number: the shortest decimal form that
/// round-trips through `f64` parsing, with `.0` on integral values so a
/// reader sees a float. Non-finite values become `null` (JSON has no
/// NaN/Inf).
pub fn push_number(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{v}");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn string(s: &str) -> String {
        let mut out = String::new();
        push_string(&mut out, s);
        out
    }

    fn number(v: f64) -> String {
        let mut out = String::new();
        push_number(&mut out, v);
        out
    }

    #[test]
    fn parses_scalars_and_nesting() {
        assert_eq!(parse_json("null").unwrap(), Json::Null);
        assert_eq!(parse_json(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse_json("-1.5e3").unwrap(), Json::Num(-1500.0));
        assert_eq!(
            parse_json(r#""a\nb\u00e9\ud83d\ude00""#).unwrap(),
            Json::Str("a\nb\u{e9}\u{1F600}".to_string())
        );
        let doc = parse_json(r#"{"a":[1,{"b":[]}],"c":{}}"#).unwrap();
        assert!(matches!(doc.get("a"), Some(Json::Arr(items)) if items.len() == 2));
        assert_eq!(doc.get("c"), Some(&Json::Obj(vec![])));
    }

    #[test]
    fn rejects_garbage_without_panicking() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\"}",
            "tru",
            "1.2.3",
            "\"\\q\"",
            "\"\\ud800\"",
            "\"\\udc00x\"",
            "{} trailing",
            "\"unterminated",
            // RFC 8259 numbers: no sign but '-', no bare or trailing
            // point, no leading zeros.
            "+1",
            ".5",
            "01",
            "1.",
            "-",
            "1e",
            "[-01]",
        ] {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
        // Depth bomb stops at the limit instead of blowing the stack.
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse_json(&deep).is_err());
    }

    #[test]
    fn writer_primitives_round_trip_through_the_parser() {
        assert_eq!(string("a\"b\\c\n\u{1}"), "\"a\\\"b\\\\c\\n\\u0001\"");
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(2.0), "2.0");
        assert_eq!(number(0.1), "0.1");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        for v in [
            0.0,
            -0.0,
            1e300,
            -2.5e-300,
            0.1 + 0.2,
            f64::MAX,
            f64::MIN_POSITIVE,
        ] {
            assert_eq!(parse_json(&number(v)).unwrap(), Json::Num(v), "{v}");
        }
        for s in ["", "plain", "tab\there \"quoted\"", "\u{7}\u{1F600}é\\/"] {
            assert_eq!(parse_json(&string(s)).unwrap(), Json::Str(s.into()));
        }
    }

    #[test]
    fn schema_checks_name_the_field_and_the_shape() {
        let doc = parse_json(r#"{"s":"x","n":null,"c":3,"b":true,"a":[],"o":{}}"#).unwrap();
        let schema = [
            ("s", Kind::Str),
            ("n", Kind::Num),
            ("c", Kind::Count),
            ("c", Kind::Num),
            ("b", Kind::Bool),
            ("a", Kind::Arr),
            ("o", Kind::Obj),
        ];
        doc.check(&schema).unwrap();
        assert_eq!(
            doc.field("zz", Kind::Str).unwrap_err(),
            "missing string field \"zz\""
        );
        assert!(doc.field("s", Kind::Count).unwrap_err().contains("\"s\""));
        for (text, count) in [("0", Some(0)), ("7", Some(7)), ("-1", None), ("0.5", None)] {
            assert_eq!(parse_json(text).unwrap().as_count(), count, "{text}");
        }
        assert_eq!(Json::Null.text(), "");
        assert!(Json::Null.items().is_empty() && Json::Null.entries().is_empty());
    }

    #[test]
    fn string_heavy_documents_parse_in_linear_time() {
        // ~1.2 MB of strings, multi-byte characters included. A parser
        // that re-validates the rest of the input per character needs
        // minutes here; a linear one needs milliseconds, so the fence
        // is loose enough for any debug build on a slow host.
        let record = r#"{"fn":"eval_into_αβγ","path":"a -> b -> c","file":"crates/x/src/y.rs"},"#;
        let body = record.repeat(1_200_000 / record.len());
        let doc = format!("[{body}null]");
        assert!(doc.len() >= 1_000_000);
        let start = std::time::Instant::now();
        let parsed = parse_json(&doc).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(parsed.items().len(), body.len() / record.len() + 1);
        assert!(elapsed.as_secs_f64() < 2.0, "parse took {elapsed:?}");
    }
}
